"""The attention kernel: online softmax over a list of KV parts.

Every forward pass (prefill, draft, verify and commit) calls :func:`attend`.
The keys and values come as contiguous ``(k, v, mask)`` parts: each block
of cached rows, read in place as one part or in ``kv_chunk`` tiles, and the
new block, which carries a mask. Each part is scored on its own
with its own running max; the parts then merge into the exact
softmax-weighted output (FlashAttention, Dao et al., 2022). A boolean mask
(True = visible) gives masked positions exactly zero weight.

A score buffer keeps the last row: the queries are scored one head at a
time into one caller-owned buffer, sized for one head's largest part,
instead of new ``[H, nq, L]`` arrays, and the probabilities then cover the
last query row only, the row a prefill keeps.

:func:`attend_monolithic` computes the same result with a single softmax
over the concatenated parts. No forward pass uses it; it is kept as the
reference the tests compare :func:`attend` against.

Shapes are head-generic: queries ``[..., nq, dh]`` against parts
``[..., L, dh]`` with leading batch/head axes broadcast by numpy matmul.
The model passes ``[H, nq, dh]`` queries and ``[H, L, dh]`` parts; the
cached parts are views of the stores (``KVCache`` or ``DraftCache``
``.layer_parts``): each head's keys are contiguous ``[L, dh]`` rows and its
values ``[dh, L]`` rows, so a one-row pass reads both as dot-form gemvs,
``K @ q`` and ``V^T @ w``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalError, ShapeError


def attend(q: np.ndarray,
           parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
           scale: float,
           want_probs: bool = False,
           scores: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Attention over a list of ``(k, v, mask)`` parts via online merging.

    Returns ``(out [..., nq, dh], probs [..., nq, sum(L)] or None)``. The
    probabilities are normalized over the union of all visible positions, in
    part order.

    ``scores``, a flat buffer with room for one head's largest part,
    ``[nq, L]``, receives each head's scores of each part in turn instead of
    a new array: queries ``[H, nq, dh]`` are then scored one head at a time.
    It cannot hold every row's weights, so with it the probabilities hold
    only the last query row, ``[H, 1, sum(L)]``, bitwise equal to that row of
    the full result.
    """
    if not parts:
        raise ShapeError("attention requires at least one KV part")
    q = q * scale  # once here, not over every [..., nq, L] score block
    if scores is None:
        return _attend(q, parts, want_probs)
    # Through the private body, so a wrapper of attend sees one call.
    heads = [_attend(q[h], [(k[h], v[h], mask) for k, v, mask in parts], want_probs, scores)
             for h in range(q.shape[0])]
    return (np.stack([out for out, _ in heads]),
            np.stack([probs for _, probs in heads]) if want_probs else None)


def _attend(q: np.ndarray,
            parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]],
            want_probs: bool,
            scores: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`attend` for scaled queries: every leading axis at once, or one
    head's ``[nq, dh]`` queries against its ``[L, dh]`` parts with a buffer."""
    maxes, denoms, accs, weights = [], [], [], []
    for k, v, mask in parts:
        shape = q.shape[:-1] + k.shape[-2:-1]
        buf = None if scores is None else scores[:math.prod(shape)].reshape(shape)
        w = np.matmul(q, np.swapaxes(k, -1, -2), out=buf)
        if mask is not None:
            if mask.shape != w.shape[-2:]:
                raise ShapeError(f"mask shape {mask.shape} does not match scores {w.shape[-2:]}")
            np.copyto(w, -np.inf, where=np.logical_not(mask))
        # ufunc methods, not np.max / np.sum: same sums, no Python wrappers.
        m = np.maximum.reduce(w, axis=-1)
        # A row that sees nothing in this part has m = -inf; shifting it by
        # 0 leaves its weights at exp(-inf) = 0.
        w -= np.where(np.isfinite(m), m, 0.0)[..., None]
        np.exp(w, out=w)
        maxes.append(m)
        denoms.append(np.add.reduce(w, axis=-1))
        accs.append(w @ v)
        if want_probs:
            weights.append(w if scores is None else w[..., -1:, :].copy())
    m_star = np.maximum.reduce(maxes)
    if not np.isfinite(m_star).all():
        raise InternalError("attention row with no visible positions")
    # The first part's terms become the sums (0.0 + x is x, bitwise).
    denom, acc, scales = 0.0, 0.0, []
    for m, d, a in zip(maxes, denoms, accs):
        s = np.exp(m - m_star)
        scales.append(s)
        denom += s * d
        acc += s[..., None] * a
    if (denom <= 0).any():
        raise InternalError("attention denominator is zero")
    acc /= denom[..., None]
    if not want_probs:
        return acc, None
    rows = slice(None) if scores is None else slice(-1, None)
    for w, s in zip(weights, scales):
        w *= (s / denom)[..., rows, None]
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
