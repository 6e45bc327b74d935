"""Dense float64 numerics and sampling primitives.

Every module downstream operates on plain numpy float64 arrays in row-major
layout. This module pins the conventions: finiteness after public
operations and a single deterministic RNG stream (PCG64) whose draw
sequence is reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError

Array = np.ndarray


def check_finite(x: Array, what: str = "array") -> None:
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{what} contains non-finite values")


class Rng:
    """Deterministic random stream. Identical seed => identical draws.

    Single-owner by contract: never share one instance across threads.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self._gen = np.random.Generator(np.random.PCG64(seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self) -> float:
        return float(self._gen.random())

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def sample_categorical(p: Array, rng: Rng) -> int:
    """Draw an index from a probability vector via inverse CDF.

    Consumes exactly one uniform draw.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ShapeError(f"probability vector must be 1-D, got shape {p.shape}")
    if np.any(p < 0):
        raise ParameterError("probability vector has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise ParameterError(f"probabilities sum to {total}, expected 1 within 1e-6")
    cum = np.cumsum(p)
    u = rng.uniform() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    return min(idx, len(p) - 1)


def draw(p: Array, rng: Rng, temperature: float) -> int:
    """The token a sampler picks from ``p``: its argmax at temperature 0
    (no draw), otherwise one ``sample_categorical`` draw."""
    if temperature == 0:
        return int(np.argmax(p))
    return sample_categorical(p, rng)
