"""Deterministic random weight generation."""

from __future__ import annotations

import numpy as np

from .errors import CapacityError
from .model import LayerWeights, ModelSpec, Weights
from .tensor import Rng


def random_weights(spec: ModelSpec, seed: int) -> Weights:
    """Seeded gaussian init at scales that keep tiny models well-behaved."""
    g = Rng(seed).generator
    d, m, v = spec.d_model, spec.d_mlp, spec.vocab
    s = 1.0 / np.sqrt(d)
    try:
        layers = []
        for _ in range(spec.n_layers):
            layers.append(LayerWeights(
                wq=g.standard_normal((d, d)) * s,
                wk=g.standard_normal((d, d)) * s,
                wv=g.standard_normal((d, d)) * s,
                wo=g.standard_normal((d, d)) * s,
                w_in=g.standard_normal((d, m)) * s,
                w_out=g.standard_normal((m, d)) / np.sqrt(m),
                attn_gain=np.ones(d),
                mlp_gain=np.ones(d),
            ))
        w = Weights(
            embed=g.standard_normal((v, d)),
            layers=layers,
            final_gain=np.ones(d),
            unembed=g.standard_normal((d, v)) * s,
        )
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise CapacityError(f"cannot allocate a random model with vocab {v} "
                            f"and d_model {d}") from None
    w.validate(spec)
    return w
