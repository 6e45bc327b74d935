"""Retrieval controller for the draft cache.

A retrieval draft holds what the target's attention points at. The
target's head-averaged last-layer attention row is sliced to the draft's
prompt prefix and renormalized (``extract_scores``), then averaged per
fixed-size chunk; the top-k chunks (ties broken toward the lower index)
and the first ``sink`` rows are what the draft holds, read back from the
target's cache. Updates run on the first step after prefill and then every
``frequency`` steps; the row is read only when an update is due.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import KVCache, RetrievalPolicy
from .errors import ParameterError, ShapeError, StateError


@dataclass
class RetrievalState:
    """One retrieval draft's schedule and last selection."""

    policy: RetrievalPolicy
    last_selection: np.ndarray | None = None
    countdown: int = 0  # steps until the next update; 0 means due now

    def __post_init__(self):
        if not isinstance(self.policy, RetrievalPolicy):
            raise ParameterError(f"retrieval needs a RetrievalPolicy, got {self.policy!r}")

    @property
    def chunk_size(self) -> int:
        return self.policy.chunk_size


def extract_scores(attn_row: np.ndarray, prefix_len: int) -> np.ndarray:
    """Slice an attention row to the prefix positions and renormalize."""
    if attn_row is None:
        raise StateError("attention scores were not captured")
    if prefix_len < 1 or prefix_len > attn_row.shape[-1]:
        raise ShapeError(f"prefix length {prefix_len} out of range for row "
                         f"of {attn_row.shape[-1]}")
    s = np.asarray(attn_row[:prefix_len], dtype=np.float64)
    total = s.sum()
    if total <= 0:
        # No mass on the prefix: fall back to uniform so selection stays defined.
        return np.full(prefix_len, 1.0 / prefix_len)
    return s / total


def chunk_scores(s: np.ndarray, chunk_size: int) -> np.ndarray:
    """Arithmetic mean of the score vector per chunk; the trailing partial
    chunk is averaged over its own length."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ParameterError("scores must be a non-empty 1-D vector")
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    n = s.shape[0]
    full = n // chunk_size
    out = np.empty(-(-n // chunk_size))
    if full:
        out[:full] = s[:full * chunk_size].reshape(full, chunk_size).mean(axis=1)
    if full * chunk_size < n:
        out[full] = s[full * chunk_size:].mean()
    return out


def chunk_rows(selected, chunk_size: int, n: int, sink: int = 0) -> np.ndarray:
    """Ascending rows of an ``n``-row prefix covered by the selected chunks
    or the first ``sink`` rows.

    Chunk ``i`` covers rows ``[i*chunk_size, (i+1)*chunk_size)``; the
    trailing partial chunk is legal.
    """
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    # A chunk of n or more rows is the whole prefix: sizing the offsets by it
    # would allocate (or overflow int64) for nothing.
    chunk_size = min(chunk_size, max(n, 1))
    sel = np.asarray(list(selected), dtype=np.int64)
    n_chunks = -(-n // chunk_size)
    if sel.size:
        if np.any(np.diff(sel) <= 0):
            raise ParameterError("selected chunks must be strictly ascending")
        if sel[0] < 0 or sel[-1] >= n_chunks:
            raise ParameterError(
                f"chunk index out of range: have {n_chunks} prefix chunks, got {sel.tolist()}")
    rows = (sel[:, None] * chunk_size + np.arange(chunk_size)).ravel()
    return np.union1d(np.arange(min(sink, n)), rows[rows < n])


def select_top_k(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Indices of the k largest scores, ties toward the lower index,
    returned ascending (document order)."""
    if top_k < 1:
        raise ParameterError(f"top_k must be >= 1, got {top_k}")
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    k = min(top_k, n)
    order = np.lexsort((np.arange(n), -scores))
    return np.sort(order[:k])


def maybe_update(state: RetrievalState, row: np.ndarray | None, cache: KVCache) -> bool:
    """Reselect the draft's prefix rows from the attention ``row`` when an
    update is due; otherwise count down. Returns whether it updated."""
    if state.countdown:
        state.countdown -= 1
        return False
    policy = state.policy
    scores = chunk_scores(extract_scores(row, cache.prefix_len), policy.chunk_size)
    selection = select_top_k(scores, policy.top_k)
    cache.hold_prefix(chunk_rows(selection, policy.chunk_size, cache.prefix_len, policy.sink))
    state.last_selection = selection
    state.countdown = policy.frequency - 1
    return True
