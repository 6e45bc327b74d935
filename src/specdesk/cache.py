"""Per-layer key/value storage with Full, Streaming and Retrieval eviction.

A cache is a fixed-size row store: rows ``[0, archive_len)`` are exactly the
rows the next forward pass attends to, in position order, so every layer
view is a slice. Rows keep their original absolute positions: keys are
stored post-rotation and are never re-rotated on eviction. An append past
the reserved capacity raises ``CapacityError``.

Streaming eviction compacts the held rows in place. A cache built with
``KVCache.seeded`` copies the prompt rows of a *source* cache (the draft's
layers are the target's first layers, so the target's rows are the draft's)
and keeps a reference to it: a retrieval rebuild gathers the selected
prefix chunks from the source's sealed prefix and places them in front of
the cache's own generated rows, so a chunk dropped by one update can be
restored by a later one. The source must keep its prefix rows in place;
the target cache never reallocates or truncates below its prompt.

Positions must be non-decreasing across appends (speculative tree siblings
share a position); committed content is strictly increasing. Rollback is by
position truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, OrderingError, ParameterError, StateError

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


class KVCache:
    """Fixed-size per-layer K/V store shared by one generation session.

    ``capacity`` rows are reserved up front; a caller passes the most rows a
    session can hold.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int,
                 capacity: int = _INIT_CAP):
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self._k = [np.empty((capacity, n_heads, d_head)) for _ in range(n_layers)]
        self._v = [np.empty((capacity, n_heads, d_head)) for _ in range(n_layers)]
        self._pos = np.empty(capacity, dtype=np.int64)
        self._len = 0
        self._world = 0  # see world_len
        self._prefix_pos = np.empty(0, dtype=np.int64)  # sealed prefix, held or not
        self._held_prefix = 0  # leading held rows that belong to the sealed prefix
        self._source: KVCache | None = None  # where rebuilds read prefix rows

    @classmethod
    def seeded(cls, source: KVCache, n_layers: int, rows: int,
               capacity: int) -> KVCache:
        """A cache over the first ``n_layers`` layers of ``source``.

        It holds a copy of source rows ``[0, rows)`` as its sealed prefix;
        retrieval rebuilds read those rows back from ``source``, which must
        keep them in place.
        """
        cache = cls(n_layers, source.n_heads, source.d_head, capacity)
        views = [source.layer_view(li) for li in range(n_layers)]
        cache.append([k[:rows] for k, _, _ in views], [v[:rows] for _, v, _ in views],
                     views[0][2][:rows])
        cache.seal_prefix()
        cache._source = source
        return cache

    # -- core state ---------------------------------------------------------

    @property
    def pos_ids(self) -> np.ndarray:
        return self._pos[:self._len].copy()

    @property
    def generation_boundary(self) -> int:
        """Count of held rows that belong to the sealed input prefix."""
        return self._held_prefix

    @property
    def prefix_len(self) -> int:
        return int(self._prefix_pos.shape[0])

    @property
    def archive_len(self) -> int:
        """Number of held rows: what attention reads."""
        return self._len

    @property
    def world_len(self) -> int:
        """One past the largest position appended and not rolled back,
        whether or not its row is still held."""
        return self._world

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Held ``(k, v, pos)`` for one layer, k/v shaped ``[L, H, dh]``,
        as slices of the store."""
        n = self._len
        return self._k[layer][:n], self._v[layer][:n], self._pos[:n]

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
        if positions[0] < self._world - 1:
            raise OrderingError(
                f"position {int(positions[0])} precedes current max {self._world - 1}")
        end = self._len + q
        if end > self._pos.shape[0]:
            raise CapacityError(f"appending {q} rows to {self._len} overflows the "
                                f"{self._pos.shape[0]} reserved")
        for li in range(self.n_layers):
            self._k[li][self._len:end] = ks[li]
            self._v[li][self._len:end] = vs[li]
        self._pos[self._len:end] = positions
        self._len = end
        self._world = int(positions[-1]) + 1

    def seal_prefix(self) -> None:
        """Mark every held row as the input prefix."""
        self._prefix_pos = self._pos[:self._len].copy()
        self._held_prefix = self._len

    def truncate(self, world_len: int) -> None:
        """Drop every row whose position is >= ``world_len`` (rollback)."""
        cut = int(np.searchsorted(self._pos[:self._len], world_len, side="left"))
        self._len = cut
        self._held_prefix = min(self._held_prefix, cut)
        self._prefix_pos = self._prefix_pos[:np.searchsorted(self._prefix_pos, world_len)]
        self._world = min(self._world, world_len)

    def evict_streaming(self, sink: int, recent: int) -> None:
        """Keep the first ``sink`` and last ``recent`` held rows."""
        n = self._len
        if n <= sink + recent:
            return
        for buf in (*self._k, *self._v, self._pos):
            buf[sink:sink + recent] = buf[n - recent:n]
        self._held_prefix = (min(self._held_prefix, sink)
                             + max(0, self._held_prefix - (n - recent)))
        self._len = sink + recent

    def rebuild_retrieval(self, selected_chunks, chunk_size: int, sink: int = 0) -> None:
        """Hold the selected prefix chunks, read from the source, then the
        generated rows still held.

        Chunk ``i`` covers prefix positions ``[i*chunk_size, (i+1)*chunk_size)``;
        the trailing partial chunk is legal.
        """
        src = self._source
        if src is None:
            raise StateError("a retrieval rebuild needs a source cache (KVCache.seeded)")
        if chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        sel = np.asarray(list(selected_chunks), dtype=np.int64)
        prefix_pos = self._prefix_pos
        n_chunks = -(-prefix_pos.shape[0] // chunk_size)
        if sel.size:
            if np.any(np.diff(sel) <= 0):
                raise ParameterError("selected chunks must be strictly ascending")
            if sel[0] < 0 or sel[-1] >= n_chunks:
                raise ParameterError(
                    f"chunk index out of range: have {n_chunks} prefix chunks, got {sel.tolist()}"
                )
        keep = np.zeros(prefix_pos.shape[0], dtype=bool)
        for c in sel:
            lo, hi = c * chunk_size, (c + 1) * chunk_size
            keep |= (prefix_pos >= lo) & (prefix_pos < hi)
        if sink:
            keep |= prefix_pos < sink
        rows = np.flatnonzero(keep)  # the source's prefix rows are its first rows
        m, gen = rows.shape[0], slice(self._held_prefix, self._len)
        end = m + self._len - self._held_prefix
        if end > self._pos.shape[0]:
            raise CapacityError(f"rebuild needs {end} rows, {self._pos.shape[0]} reserved")
        n = self.n_layers
        for own, theirs in zip((*self._k, *self._v), (*src._k[:n], *src._v[:n])):
            own[m:end] = own[gen]
            own[:m] = theirs[rows]
        self._pos[m:end] = self._pos[gen]
        self._pos[:m] = prefix_pos[rows]
        self._held_prefix, self._len = m, end
