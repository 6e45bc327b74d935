"""Per-layer key/value storage with Full, Streaming and Retrieval eviction.

The cache separates *archive* from *live view*. Every appended row is
archived (prefix rows are immutable once sealed); the live view is the
subset of archive slots the next forward pass may attend to. Streaming
eviction shrinks the live view monotonically; retrieval rebuilds re-derive
it from the archive, so a chunk dropped by an earlier update can be
restored by a later one. Rows keep their original absolute positions:
keys are stored post-rotation and are never re-rotated on eviction.

Positions must be non-decreasing across appends (speculative tree siblings
share a position); committed content is strictly increasing. Rollback is by
position truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderingError, ParameterError

_INIT_CAP = 64


@dataclass(frozen=True)
class FullPolicy:
    kind: str = "full"


@dataclass(frozen=True)
class StreamingPolicy:
    sink: int
    recent: int
    kind: str = "streaming"

    def __post_init__(self):
        if self.sink < 0 or self.recent < 1:
            raise ParameterError("streaming policy needs sink >= 0 and recent >= 1")


@dataclass(frozen=True)
class RetrievalPolicy:
    chunk_size: int
    top_k: int
    frequency: int
    sink: int = 0
    kind: str = "retrieval"

    def __post_init__(self):
        if self.chunk_size < 1 or self.top_k < 1 or self.frequency < 1:
            raise ParameterError("retrieval policy needs chunk_size, top_k, frequency >= 1")
        if self.sink < 0:
            raise ParameterError("retrieval sink must be >= 0")


CachePolicy = FullPolicy | StreamingPolicy | RetrievalPolicy


def _with_room(rows: np.ndarray, cap: int) -> np.ndarray:
    """``rows`` copied to the head of a new buffer of ``cap`` rows."""
    out = np.empty((cap,) + rows.shape[1:])
    out[:rows.shape[0]] = rows
    return out


class KVCache:
    """Growable per-layer K/V store shared by one generation session."""

    def __init__(self, n_layers: int, n_heads: int, d_head: int):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        cap = _INIT_CAP
        self._k = [np.empty((cap, n_heads, d_head)) for _ in range(n_layers)]
        self._v = [np.empty((cap, n_heads, d_head)) for _ in range(n_layers)]
        self._pos = np.empty(cap, dtype=np.int64)
        self._len = 0
        self._live = np.empty(0, dtype=np.int64)
        self._prefix_len = 0  # archive rows sealed as the input prefix
        self._view: list[tuple[np.ndarray, np.ndarray]] | None = None  # see layer_view

    # -- capacity -----------------------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self._pos.shape[0]
        if need <= cap:
            return
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        for li in range(self.n_layers):
            nk = np.empty((new_cap, self.n_heads, self.d_head))
            nv = np.empty((new_cap, self.n_heads, self.d_head))
            nk[:self._len] = self._k[li][:self._len]
            nv[:self._len] = self._v[li][:self._len]
            self._k[li], self._v[li] = nk, nv
        np_pos = np.empty(new_cap, dtype=np.int64)
        np_pos[:self._len] = self._pos[:self._len]
        self._pos = np_pos

    # -- core state ---------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of live slots."""
        return int(self._live.shape[0])

    @property
    def pos_ids(self) -> np.ndarray:
        return self._pos[self._live].copy()

    @property
    def generation_boundary(self) -> int:
        """Count of live slots that belong to the sealed input prefix."""
        return int(np.count_nonzero(self._live < self._prefix_len))

    @property
    def prefix_len(self) -> int:
        return self._prefix_len

    @property
    def archive_len(self) -> int:
        return self._len

    @property
    def world_len(self) -> int:
        """One past the largest archived position, live or evicted."""
        return int(self._pos[self._len - 1]) + 1 if self._len else 0

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(k, v, pos)`` for one layer, k/v shaped ``[L, H, dh]``.

        A non-contiguous live set is gathered once, for every layer, into
        buffers with room to grow. Appends extend those copies and rollbacks
        shorten them, so only an eviction, a rebuild or an overflow gathers
        again.
        """
        live = self._live
        n = live.shape[0]
        if n and live[0] == 0 and live[-1] == n - 1 and n == self._len:
            # Contiguous full view: return slices, no copy.
            return self._k[layer][:n], self._v[layer][:n], self._pos[:n]
        if self._view is None:
            room = 2 * n + _INIT_CAP
            self._view = [(_with_room(k[live], room), _with_room(v[live], room))
                          for k, v in zip(self._k, self._v)]
        k, v = self._view[layer]
        return k[:n], v[:n], self._pos[live]

    # -- mutation -----------------------------------------------------------

    def append(self, ks: list[np.ndarray], vs: list[np.ndarray], positions: np.ndarray) -> None:
        """Append one block of rows to every layer.

        ``ks[layer]`` and ``vs[layer]`` are ``[q, H, dh]``; positions must be
        non-decreasing and must not precede the current maximum (speculative
        siblings may share a position).
        """
        positions = np.asarray(positions, dtype=np.int64)
        q = positions.shape[0]
        if len(ks) != self.n_layers or len(vs) != self.n_layers:
            raise ParameterError("append expects one K and V block per layer")
        if q == 0:
            return
        if np.any(np.diff(positions) < 0):
            raise OrderingError(f"positions must be non-decreasing, got {positions.tolist()}")
        if self._len and positions[0] < self._pos[self._len - 1]:
            raise OrderingError(
                f"position {int(positions[0])} precedes current max {int(self._pos[self._len - 1])}"
            )
        self._grow(self._len + q)
        n, view = self.length, self._view
        if view is not None and n + q > view[0][0].shape[0]:
            view = self._view = None
        for li in range(self.n_layers):
            self._k[li][self._len:self._len + q] = ks[li]
            self._v[li][self._len:self._len + q] = vs[li]
            if view is not None:
                view[li][0][n:n + q] = ks[li]
                view[li][1][n:n + q] = vs[li]
        self._pos[self._len:self._len + q] = positions
        self._live = np.concatenate([self._live, np.arange(self._len, self._len + q)])
        self._len += q

    def seal_prefix(self) -> None:
        """Mark everything archived so far as the input prefix."""
        self._prefix_len = self._len

    def truncate(self, world_len: int) -> None:
        """Drop every slot whose position is >= ``world_len`` (rollback)."""
        cut = int(np.searchsorted(self._pos[:self._len], world_len, side="left"))
        self._len = cut
        self._live = self._live[self._live < cut]
        self._prefix_len = min(self._prefix_len, cut)

    def evict_streaming(self, sink: int, recent: int) -> None:
        """Keep the first ``sink`` and last ``recent`` live slots."""
        n = self.length
        if n <= sink + recent:
            return
        head = self._live[:min(sink, n)]
        tail = self._live[n - min(recent, n - min(sink, n)):]
        self._live = np.concatenate([head, tail])
        self._view = None

    def rebuild_retrieval(self, selected_chunks, chunk_size: int, sink: int = 0) -> None:
        """Reset the live view to the selected prefix chunks plus the suffix.

        Chunk ``i`` covers prefix positions ``[i*chunk_size, (i+1)*chunk_size)``;
        the trailing partial chunk is legal. Generated-suffix slots (at or
        beyond the sealed prefix) always survive.
        """
        if chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        sel = np.asarray(list(selected_chunks), dtype=np.int64)
        n_chunks = -(-self._prefix_len // chunk_size) if self._prefix_len else 0
        if sel.size:
            if np.any(np.diff(sel) <= 0):
                raise ParameterError("selected chunks must be strictly ascending")
            if sel[0] < 0 or sel[-1] >= n_chunks:
                raise ParameterError(
                    f"chunk index out of range: have {n_chunks} prefix chunks, got {sel.tolist()}"
                )
        keep = np.zeros(self._prefix_len, dtype=bool)
        prefix_pos = self._pos[:self._prefix_len]
        for c in sel:
            lo, hi = c * chunk_size, (c + 1) * chunk_size
            keep |= (prefix_pos >= lo) & (prefix_pos < hi)
        if sink:
            keep |= prefix_pos < sink
        live_prefix = np.flatnonzero(keep)
        self._live = np.concatenate([live_prefix, np.arange(self._prefix_len, self._len)])
        self._view = None
