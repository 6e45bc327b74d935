"""The attention kernel: online softmax over a list of KV parts.

Every forward pass (prefill, draft, verify and commit) calls :func:`attend`.
The keys and values come as contiguous ``(k, v, mask)`` parts: the cached
prefix, read in place as one part or in ``kv_chunk`` tiles, and the new
block, the only part that carries a mask. Each part is scored on its own
with its own running max; the parts then merge into the exact
softmax-weighted output (FlashAttention, Dao et al., 2022). A boolean mask
(True = visible) gives masked positions exactly zero weight.

:func:`attend_monolithic` computes the same result with a single softmax
over the concatenated parts. No forward pass uses it; it is kept as the
reference the tests compare :func:`attend` against.

Shapes are head-generic: queries ``[..., nq, dh]`` against parts
``[..., L, dh]`` with leading batch/head axes broadcast by numpy matmul.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError, ShapeError


def attend(q: np.ndarray,
           parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
           scale: float,
           want_probs: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Attention over a list of ``(k, v, mask)`` parts via online merging.

    Returns ``(out [..., nq, dh], probs [..., nq, sum(L)] or None)``. The
    probabilities are normalized over the union of all visible positions, in
    part order.
    """
    if not parts:
        raise ShapeError("attention requires at least one KV part")
    maxes, denoms, accs, weights = [], [], [], []
    for k, v, mask in parts:
        w = q @ np.swapaxes(k, -1, -2)
        w *= scale
        if mask is not None:
            if mask.shape != w.shape[-2:]:
                raise ShapeError(f"mask shape {mask.shape} does not match scores {w.shape[-2:]}")
            np.copyto(w, -np.inf, where=np.logical_not(mask))
        m = np.max(w, axis=-1)
        # A row that sees nothing in this part has m = -inf; shifting it by
        # 0 leaves its weights at exp(-inf) = 0.
        w -= np.where(np.isfinite(m), m, 0.0)[..., None]
        np.exp(w, out=w)
        maxes.append(m)
        denoms.append(np.sum(w, axis=-1))
        accs.append(w @ v)
        if want_probs:
            weights.append(w)
    m_star = np.maximum.reduce(maxes)
    if not np.all(np.isfinite(m_star)):
        raise InternalError("attention row with no visible positions")
    denom = np.zeros_like(m_star)
    acc = np.zeros_like(accs[0])
    scales = []
    for m, d, a in zip(maxes, denoms, accs):
        s = np.exp(m - m_star)
        scales.append(s)
        denom += s * d
        acc += s[..., None] * a
    if np.any(denom <= 0):
        raise InternalError("attention denominator is zero")
    acc /= denom[..., None]
    if not want_probs:
        return acc, None
    for w, s in zip(weights, scales):
        w *= (s / denom)[..., None]
    return acc, np.concatenate(weights, axis=-1)


def attend_monolithic(q: np.ndarray,
                      parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
                      scale: float,
                      want_probs: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Single-softmax attention over the concatenated parts.

    Mathematically identical to :func:`attend`; kept as the reference path.
    """
    if not parts:
        raise ShapeError("attention requires at least one KV part")
    ks = np.concatenate([k for k, _, _ in parts], axis=-2)
    vs = np.concatenate([v for _, v, _ in parts], axis=-2)
    scores = (q @ np.swapaxes(ks, -1, -2)) * scale
    col = 0
    for k, _, mask in parts:
        width = k.shape[-2]
        if mask is not None:
            block = scores[..., col:col + width]
            scores[..., col:col + width] = np.where(mask, block, -np.inf)
        col += width
    m = np.max(scores, axis=-1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise InternalError("attention row with no visible positions")
    w = np.exp(scores - m)
    denom = np.sum(w, axis=-1, keepdims=True)
    probs = w / denom
    out = probs @ vs
    return out, (probs if want_probs else None)


def split_chunks(length: int, chunk: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` spans covering ``length`` in ``chunk`` steps."""
    if chunk < 1:
        raise ShapeError(f"chunk size must be >= 1, got {chunk}")
    return [(s, min(s + chunk, length)) for s in range(0, length, chunk)]
