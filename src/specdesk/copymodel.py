"""Hand-constructed copy-capable model for the synthetic retrieval tasks.

Three-layer recipe over a 32-token vocabulary:

* layer 1, head 0: a position-offset head that writes each token's
  *previous* token identity into a dedicated residual block, using a
  multi-frequency rotary match peaked at offset 1;
* layer 2, head 0: a *weak* match head that attends to positions whose
  previous token equals the current token and copies their token identity
  into a prediction block. Its matched-position weight is a fixed score
  mass, so its signal is diluted linearly by cache size: with a long
  context a single matching position loses to background noise, with a
  reduced cache it wins;
* layer 3, head 0: the same circuit with a very large score mass, immune
  to dilution at any supported length.

A layer-truncated draft (first two layers) therefore relies on the weak
head alone: accurate exactly when its cache is small or its evidence is
recent/multiplied, while the full model stays accurate everywhere. Second
heads are zero; MLPs are zero; token matching lives in rotary pairs whose
per-position angle is ~1e-5 rad so content scores barely decay over 32K
positions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ParameterError
from .model import LayerWeights, ModelSpec, Weights, rope_angles

VOCAB = 32
D_MODEL = 128
N_HEADS = 2
D_HEAD = 64
ROPE_BASE = 1e10
MAX_POS = 32768

# Residual layout.
CUR = 0  # [0, 32): current-token one-hot
PREV = 32  # [32, 64): previous-token one-hot (written by layer 1)
PRED = 64  # [64, 96): predicted-token accumulator (written by layers 2/3)
CARRIER = 96  # constant component present in every embedding

# Head-dim layout: pairs 0..7 carry the offset-match rotary signal; dims
# [32, 64) (pairs 16..31) hold the token codes, one dim per token.
OFFSET_PAIRS = 8
CODE_BASE = 32

PREV_GAIN = 1.0
PRED_WEAK_GAIN = 1.0
PRED_STRONG_GAIN = 8.0
UNEMBED_GAIN = 4.0
STRONG_MATCH_MASS = 1e9
OFFSET_MISS_MASS = 1e-4  # total stray attention allowed in the offset head


def offset_score_profile(max_delta: int = MAX_POS) -> np.ndarray:
    """Unit-scale offset-head score at key offsets delta = (query-1) - key.

    Index d holds the score for delta = d - 1, so index 0 is self-attention
    and index 2 is the runner-up next to the peak at index 1 (delta 0).
    """
    theta = rope_angles(D_HEAD, ROPE_BASE)[:OFFSET_PAIRS]
    deltas = np.arange(-1, max_delta)
    return np.cos(deltas[:, None] * theta[None, :]).sum(axis=1)


@functools.lru_cache(maxsize=1)
def _offset_scale() -> float:
    """Score multiplier making non-adjacent positions negligible in softmax.

    A constant of the recipe; computing it scans a 32769-row cosine table,
    most of a build's cost, so it runs once per process.
    """
    profile = offset_score_profile()
    peak = profile[1]
    gap = peak - max(profile[0], profile[2:].max())
    return float(np.log(MAX_POS / OFFSET_MISS_MASS) / gap)


def _rotate_minus_one(u: np.ndarray) -> np.ndarray:
    """Rotate a head-dim vector by one position backwards."""
    theta = rope_angles(D_HEAD, ROPE_BASE)
    out = np.empty_like(u)
    even, odd = u[0::2], u[1::2]
    out[0::2] = even * np.cos(theta) + odd * np.sin(theta)
    out[1::2] = -even * np.sin(theta) + odd * np.cos(theta)
    return out


def _zero_layer(spec: ModelSpec) -> LayerWeights:
    d, m = spec.d_model, spec.d_mlp
    return LayerWeights(
        wq=np.zeros((d, d)), wk=np.zeros((d, d)), wv=np.zeros((d, d)),
        wo=np.zeros((d, d)), w_in=np.zeros((d, m)), w_out=np.zeros((m, d)),
        attn_gain=np.ones(d), mlp_gain=np.ones(d),
    )


def _match_layer(spec: ModelSpec, rms_in: float, match_mass: float,
                 pred_gain: float) -> LayerWeights:
    """Head 0 attends where key's PREV code equals query's CUR code and
    copies the key position's token into the PRED block."""
    lw = _zero_layer(spec)
    # score = (a/rms)(b/rms)/sqrt(dh) at a code match; solve for a*b with
    # a == b so that the matched weight is exp(log(match_mass)).
    target = np.log(match_mass) * (rms_in ** 2) * np.sqrt(D_HEAD)
    a = np.sqrt(target)
    for v in range(VOCAB):
        lw.wq[CUR + v, CODE_BASE + v] = a
        lw.wk[PREV + v, CODE_BASE + v] = a
        lw.wv[CUR + v, v] = rms_in  # v = e_token after normalization
        lw.wo[v, PRED + v] = pred_gain
    return lw


def build_copy_model(weak_match_mass: float = 400.0,
                     strong_match_mass: float = STRONG_MATCH_MASS,
                     n_layers: int = 3) -> tuple[ModelSpec, Weights]:
    """Construct the model; ``weak_match_mass`` is the dilution knob for the
    draft-visible match head (matched-position weight relative to the
    weight 1 of an unmatched position)."""
    if n_layers < 3:
        raise ParameterError("copy model needs the offset, weak and strong layers")
    # Below a mass of 1 the match weight sqrt(log(mass) * ...) has no real value.
    for name, mass in (("weak_match_mass", weak_match_mass),
                       ("strong_match_mass", strong_match_mass)):
        if not (math.isfinite(mass) and mass >= 1):
            raise ParameterError(f"{name} must be finite and >= 1, got {mass}")
    spec = ModelSpec(n_layers=n_layers, n_heads=N_HEADS, d_model=D_MODEL,
                     d_head=D_HEAD, vocab=VOCAB, max_pos=MAX_POS,
                     rope_base=ROPE_BASE)

    embed = np.zeros((VOCAB, D_MODEL))
    for v in range(VOCAB):
        embed[v, CUR + v] = 1.0
        embed[v, CARRIER] = 1.0
    rms1 = np.sqrt(2.0 / D_MODEL)

    # Layer 1: previous-token head driven by the constant carrier.
    l1 = _zero_layer(spec)
    u = np.zeros(D_HEAD)
    u[0:2 * OFFSET_PAIRS:2] = 1.0
    # score = (ab / (rms1^2 sqrt(dh))) * C(delta); _offset_scale sizes the
    # multiplier of C so stray softmax mass stays below OFFSET_MISS_MASS.
    ab = _offset_scale() * (rms1 ** 2) * np.sqrt(D_HEAD)
    a = np.sqrt(ab)
    l1.wq[CARRIER, 0:D_HEAD] = a * _rotate_minus_one(u)
    l1.wk[CARRIER, 0:D_HEAD] = a * u
    for v in range(VOCAB):
        l1.wv[CUR + v, v] = rms1
        l1.wo[v, PREV + v] = PREV_GAIN
    # Residual now carries CUR + PREV + CARRIER components of unit size.
    rms2 = np.sqrt(3.0 / D_MODEL)

    l2 = _match_layer(spec, rms2, weak_match_mass, PRED_WEAK_GAIN)
    l3 = _match_layer(spec, rms2, strong_match_mass, PRED_STRONG_GAIN)
    layers = [l1, l2, l3] + [_zero_layer(spec) for _ in range(n_layers - 3)]

    unembed = np.zeros((D_MODEL, VOCAB))
    for v in range(VOCAB):
        unembed[PRED + v, v] = UNEMBED_GAIN
    weights = Weights(embed=embed, layers=layers, final_gain=np.ones(D_MODEL),
                      unembed=unembed)
    weights.validate(spec)
    return spec, weights
