"""Retrieval controller for the draft cache.

The target model's last-layer attention row over the input prefix is
averaged per fixed-size chunk; the top-k chunks (ties broken toward the
lower index) are what the draft keeps. Updates run on the first step after
prefill and then every ``frequency`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import KVCache, RetrievalPolicy
from .errors import ParameterError, StateError


@dataclass
class RetrievalState:
    chunk_size: int
    top_k: int
    frequency: int
    sink: int = 0
    steps_since_update: int = 0
    last_selection: np.ndarray | None = None
    primed: bool = False  # becomes True once the post-prefill update has run

    @classmethod
    def from_policy(cls, policy: RetrievalPolicy) -> "RetrievalState":
        return cls(chunk_size=policy.chunk_size, top_k=policy.top_k,
                   frequency=policy.frequency, sink=policy.sink)


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


def maybe_update(state: RetrievalState, s: np.ndarray | None, cache: KVCache) -> bool:
    """Run a cache update when due; otherwise just advance the counter.

    Updates fire on the first step after prefill and whenever
    ``steps_since_update + 1 == frequency``.
    """
    due = (not state.primed) or (state.steps_since_update + 1 == state.frequency)
    if not due:
        state.steps_since_update += 1
        return False
    if s is None:
        raise StateError("retrieval update due but no attention scores available")
    scores = chunk_scores(s, state.chunk_size)
    selection = select_top_k(scores, state.top_k)
    cache.rebuild_retrieval(selection, state.chunk_size, sink=state.sink)
    state.last_selection = selection
    state.steps_since_update = 0
    state.primed = True
    return True
