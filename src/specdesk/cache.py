"""Per-layer key/value storage with Full, Streaming and Retrieval eviction.

A cache is a fixed-size row store: rows ``[0, archive_len)`` are exactly the
rows the next forward pass attends to, in position order, so every layer
view is a slice. Rows keep their original absolute positions: keys are
stored post-rotation and are never re-rotated on eviction. An append past
the reserved capacity raises ``CapacityError``.

A cache built with ``KVCache.seeded`` starts empty over the prompt rows of a
*source* cache, its sealed prefix: the draft's layers are the target's
first layers, so the target's rows are the draft's. ``hold_prefix`` is the
one way prefix rows get in: it reads the given prefix rows from the source
and places them in front of the cache's own generated rows. Each policy
picks its rows: the full draft all of them, the streaming draft its sink
and recent window, and a retrieval update the selected chunks, so a chunk
dropped by one update can be restored by a later one. The source must keep
its prefix rows in place; the target cache never reallocates or truncates
below its prompt.

Committed rows are held in increasing position order. Behind them may come
a speculative tail, a draft tree's decoded nodes after its root, in any
order (siblings share a position); every tail position exceeds the root's.
Rollback is by position truncation; ``keep`` compacts any subset of the held
rows in place: a tree's accepted path, or after every step a streaming
draft's sink and recent window, the rows its policy's ``held_rows`` names.
The cache itself knows no policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, OrderingError, ParameterError, ShapeError, StateError

_INIT_CAP = 64


@dataclass(frozen=True)
class FullPolicy:
    """Each policy names the rows a draft holds out of ``n`` (``held_rows``):
    of its prompt prefix once seeded and, for a streaming draft, of all its
    rows after every step. ``prefix_rows`` is the most prompt rows it ever
    holds."""

    def held_rows(self, n: int) -> np.ndarray:
        return np.arange(n)

    def prefix_rows(self, n: int) -> int:
        return n


@dataclass(frozen=True)
class StreamingPolicy:
    sink: int
    recent: int

    def __post_init__(self):
        if self.sink < 0 or self.recent < 1:
            raise ParameterError("streaming policy needs sink >= 0 and recent >= 1")

    def held_rows(self, n: int) -> np.ndarray:
        return np.r_[:min(self.sink, n), max(self.sink, n - self.recent):n]

    def prefix_rows(self, n: int) -> int:
        return min(self.sink + self.recent, n)


@dataclass(frozen=True)
class RetrievalPolicy:
    chunk_size: int
    top_k: int
    frequency: int
    sink: int = 0

    def __post_init__(self):
        if self.chunk_size < 1 or self.top_k < 1 or self.frequency < 1:
            raise ParameterError("retrieval policy needs chunk_size, top_k, frequency >= 1")
        if self.sink < 0:
            raise ParameterError("retrieval sink must be >= 0")

    def held_rows(self, n: int) -> np.ndarray:
        return np.arange(0)  # the first update, before any draft forward, fills it

    def prefix_rows(self, n: int) -> int:
        return min(self.top_k * self.chunk_size + self.sink, n)


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
        try:
            self._k = [np.empty((capacity, n_heads, d_head)) for _ in range(n_layers)]
            self._v = [np.empty((capacity, n_heads, d_head)) for _ in range(n_layers)]
            self._pos = np.empty(capacity, dtype=np.int64)
        except (MemoryError, ValueError):  # ValueError: past numpy's size limit
            raise CapacityError(f"cannot reserve {capacity} cache rows") from None
        self._len = 0
        self._world = 0  # see world_len
        self._prefix_rows = 0  # sealed prefix, positions [0, _prefix_rows), held or not
        self._held_prefix = 0  # leading held rows that belong to the sealed prefix
        self._source: KVCache | None = None  # where hold_prefix reads prefix rows

    @classmethod
    def seeded(cls, source: KVCache, n_layers: int, rows: int, capacity: int) -> KVCache:
        """An empty cache over the first ``n_layers`` layers of ``source``,
        whose rows ``[0, rows)``, at positions ``0 .. rows - 1`` as a prefill
        writes them, are its sealed prefix.

        ``hold_prefix`` reads prefix rows back from ``source``, which must
        keep them in place.
        """
        if not np.array_equal(source._pos[:source._len][:rows], np.arange(rows)):
            raise OrderingError(f"the source's first {rows} rows are not positions "
                                f"0 .. {rows - 1}")
        cache = cls(n_layers, source.n_heads, source.d_head, capacity)
        cache._prefix_rows = cache._world = rows
        cache._source = source
        return cache

    # -- core state ---------------------------------------------------------

    @property
    def generation_boundary(self) -> int:
        """Count of held rows that belong to the sealed input prefix."""
        return self._held_prefix

    @property
    def prefix_len(self) -> int:
        return self._prefix_rows

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

    def append(self, ks: list[np.ndarray], vs: list[np.ndarray], positions: np.ndarray,
               tail: int = 0) -> None:
        """Append one block of rows to every layer.

        ``ks[layer]`` and ``vs[layer]`` are ``[q, H, dh]``. The last ``tail``
        held rows are a speculative tail; the block's positions may come in
        any order, but each must exceed the last held row before the tail,
        and without a tail every position appended and not rolled back.
        """
        positions = np.asarray(positions, dtype=np.int64)
        q = positions.shape[0]
        if len(ks) != self.n_layers or len(vs) != self.n_layers:
            raise ParameterError("append expects one K and V block per layer")
        if not 0 <= tail <= self._len:
            raise ShapeError(f"a tail of {tail} rows, but {self._len} are held")
        if q == 0:
            return
        if tail:
            bound = int(self._pos[self._len - tail - 1]) if self._len > tail else -1
        else:
            bound = self._world - 1
        if positions.min() <= bound:
            raise OrderingError(
                f"position {int(positions.min())} does not follow position {bound}")
        end = self._len + q
        if end > self._pos.shape[0]:
            raise CapacityError(f"appending {q} rows to {self._len} overflows the "
                                f"{self._pos.shape[0]} reserved")
        for li in range(self.n_layers):
            self._k[li][self._len:end] = ks[li]
            self._v[li][self._len:end] = vs[li]
        self._pos[self._len:end] = positions
        self._len = end
        self._world = max(self._world, int(positions.max()) + 1)

    def truncate(self, world_len: int) -> None:
        """Drop every row whose position is >= ``world_len`` (rollback).

        The rows below ``world_len`` must come first, as they do for any cut
        at or before a speculative tail; a cut through an unordered tail
        raises ``OrderingError``.
        """
        pos = self._pos[:self._len]
        cut = int(np.searchsorted(pos, world_len, side="left"))
        if (pos[:cut] >= world_len).any() or (pos[cut:] < world_len).any():
            raise OrderingError(f"the rows below position {world_len} do not come first")
        self._len = cut
        self._held_prefix = min(self._held_prefix, cut)
        self._prefix_rows = min(self._prefix_rows, world_len)
        self._world = min(self._world, world_len)

    def keep(self, rows) -> None:
        """Hold only the held rows ``rows`` (strictly ascending indices),
        compacted in place; positions dropped here stay in ``world_len``."""
        rows = np.asarray(rows, dtype=np.int64)
        m = rows.shape[0]
        if m and (np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= self._len):
            raise ParameterError(f"kept rows must be strictly ascending in [0, {self._len})")
        # ``rows[i] - i`` never decreases; rows where it is 0 are in place.
        still = int(np.searchsorted(rows - np.arange(m), 0, side="right"))
        for buf in (*self._k, *self._v, self._pos):
            buf[still:m] = buf[rows[still:]]
        self._held_prefix = int(np.searchsorted(rows, self._held_prefix))
        self._len = m

    def hold_prefix(self, rows) -> None:
        """Hold the sealed prefix rows ``rows`` (strictly ascending indices),
        read from the source, then the generated rows still held."""
        src = self._source
        if src is None:
            raise StateError("holding prefix rows needs a source cache (KVCache.seeded)")
        rows = np.asarray(rows, dtype=np.int64)
        m = rows.shape[0]
        if m and (np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= self.prefix_len):
            raise ParameterError(
                f"prefix rows must be strictly ascending in [0, {self.prefix_len})")
        gen = slice(self._held_prefix, self._len)
        end = m + self._len - self._held_prefix
        if end > self._pos.shape[0]:
            raise CapacityError(f"holding {m} prefix rows needs {end} rows, "
                                f"{self._pos.shape[0]} reserved")
        n = self.n_layers
        for own, theirs in zip((*self._k, *self._v), (*src._k[:n], *src._v[:n])):
            own[m:end] = own[gen]
            # The rows are in range, so "clip" changes nothing; unlike the
            # default "raise" it writes into ``out`` without a temporary.
            np.take(theirs, rows, axis=0, out=own[:m], mode="clip")
        self._pos[m:end] = self._pos[gen]
        self._pos[:m] = rows
        self._held_prefix, self._len = m, end
