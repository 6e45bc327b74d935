"""Per-layer key/value storage with Full, Streaming and Retrieval eviction.

A cache is a fixed-size row store: rows ``[0, archive_len)`` are exactly the
rows the next forward pass attends to, in position order, as one or two
contiguous blocks. Per layer, K is stored ``[H, capacity, dh]`` and V
dh-major, ``[H, dh, capacity]``, so a one-row pass reads each head's values
as ``dh`` contiguous rows (a dot-form gemv, as ``q @ K^T`` reads the keys);
``layer_parts`` gives both as ``[H, L, dh]`` views. Rows keep their absolute
positions: keys are stored post-rotation and never re-rotated. An append
past the reserved capacity raises ``CapacityError``.

A cache built with ``KVCache.seeded`` starts empty over the prompt rows of a
*source* cache, its sealed prefix: the draft's layers are the target's
first layers, so the target's rows are the draft's. ``hold_prefix`` is the
one way prefix rows get in, in front of the cache's own generated rows.
Each policy picks its rows: the full draft all of them, the streaming draft
its sink and recent window, and a retrieval update the selected chunks, so
a chunk dropped by one update can be restored by a later one. A selection
is gathered from the source, but a whole prefix is read there in place
(*borrowed*): ``layer_parts`` gives the borrowed rows, then the own rows,
and ``layer_view`` copies them into one array. Own rows start at store row
0, so a cache that borrows its whole prefix needs store rows only for the
rows it generates. The source must keep its prefix rows in place; the
target cache never reallocates or truncates below the draft's sealed
prefix.

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
        sink = min(self.sink, n)
        return np.r_[:sink, max(sink, n - self.recent):n]

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

    ``capacity`` store rows are reserved up front; a caller passes the most
    rows a session can own: every row it holds but the borrowed ones.
    """

    def __init__(self, n_layers: int, n_heads: int, d_head: int,
                 capacity: int = _INIT_CAP):
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        try:
            self._k = [np.empty((n_heads, capacity, d_head)) for _ in range(n_layers)]
            # dh-major in memory; every method indexes the [H, capacity, dh] view.
            self._v = [np.empty((n_heads, d_head, capacity)).swapaxes(1, 2)
                       for _ in range(n_layers)]
            self._pos = np.empty(capacity, dtype=np.int64)  # by held row
        except (MemoryError, ValueError):  # ValueError: past numpy's size limit
            raise CapacityError(f"cannot reserve {capacity} cache rows") from None
        self._cap = capacity
        self._len = 0
        self._world = 0  # see world_len
        self._prefix_rows = 0  # sealed prefix, positions [0, _prefix_rows), held or not
        self._held_prefix = 0  # leading held rows that belong to the sealed prefix
        self._borrowed = 0  # leading held rows read in place from the source
        self._source: KVCache | None = None  # where hold_prefix reads prefix rows

    @classmethod
    def seeded(cls, source: KVCache, n_layers: int, rows: int, capacity: int) -> KVCache:
        """An empty cache over the first ``n_layers`` layers of ``source``,
        whose rows ``[0, rows)``, at positions ``0 .. rows - 1`` as a prefill
        writes them, are its sealed prefix.

        ``hold_prefix`` reads prefix rows back from ``source``, which must
        keep them in place. ``capacity`` counts the rows the cache owns: the
        prefix rows it copies, none if it only borrows, and its generated
        rows.
        """
        if not np.array_equal(source._pos[:source._len][:rows], np.arange(rows)):
            raise OrderingError(f"the source's first {rows} rows are not positions "
                                f"0 .. {rows - 1}")
        cache = cls(n_layers, source.n_heads, source.d_head, capacity)
        cache._pos = np.empty(rows + capacity, dtype=np.int64)  # borrowed + own
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

    def layer_parts(self, layer: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Held ``(k, v)`` of one layer as ``[H, L, dh]`` views of the stores in
        row order: the borrowed rows, if any, then the own rows. Each head's
        keys are contiguous ``[L, dh]`` and its values ``[dh, L]``."""
        own, b, src = self._len - self._borrowed, self._borrowed, self._source
        lent = [(src._k[layer][:, :b], src._v[layer][:, :b])] if b else []
        return lent + [(self._k[layer][:, :own], self._v[layer][:, :own])]

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Held ``(k, v, pos)`` for one layer, k/v shaped ``[H, L, dh]``:
        slices of the store, or a copy while the cache borrows rows."""
        parts = self.layer_parts(layer)
        k, v = (np.concatenate(x, axis=1) if len(x) > 1 else x[0] for x in zip(*parts))
        return k, v, self._pos[:self._len]

    # -- mutation -----------------------------------------------------------

    def append(self, ks: list[np.ndarray], vs: list[np.ndarray], positions: np.ndarray,
               tail: int = 0) -> None:
        """Append one block of rows to every layer.

        ``ks[layer]`` and ``vs[layer]`` are ``[q, H, dh]``.
        The last ``tail`` held rows are a speculative tail; the block's
        positions may come in any order, but each must exceed the last held
        row before the tail, or without a tail ``world_len - 1``.
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
        own = self._len - self._borrowed
        if own + q > self._cap:
            raise CapacityError(f"appending {q} rows to {own} own rows overflows the "
                                f"{self._cap} reserved")
        for li in range(self.n_layers):
            self._k[li][:, own:own + q] = ks[li].transpose(1, 0, 2)
            self._v[li][:, own:own + q] = vs[li].transpose(1, 0, 2)
        self._pos[self._len:self._len + q] = positions
        self._len += q
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
        self._borrowed = min(self._borrowed, cut)
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
        b = self._borrowed
        if still < b:  # a borrowed row moves: copy the kept ones in first
            lent = int(np.searchsorted(rows, b))
            self.hold_prefix(rows[:lent])
            rows, still, b = np.r_[:lent, rows[lent:] - b + lent], lent, 0
        # Kept rows only move down, so runs copy in ascending order; one head
        # at a time, so a copy's temporary is at most one head's run.
        runs = _runs(rows[still:] - b, still - b)
        for head in (head for kv in (*self._k, *self._v) for head in kv):
            for at, lo, size in runs:
                head[at:at + size] = head[lo:lo + size]
        self._pos[still:m] = self._pos[rows[still:]]
        self._held_prefix = int(np.searchsorted(rows, self._held_prefix))
        self._len = m

    def hold_prefix(self, rows) -> None:
        """Hold the sealed prefix rows ``rows`` (strictly ascending indices),
        read from the source, then the generated rows still held. The whole
        prefix, ``0 .. prefix_len - 1``, is borrowed, not copied."""
        src, p = self._source, self.prefix_len
        if src is None:
            raise StateError("holding prefix rows needs a source cache (KVCache.seeded)")
        if p and (src._len < p or src._pos[p - 1] != p - 1):
            raise StateError(f"the source no longer holds prefix rows 0 .. {p - 1}")
        rows = np.asarray(rows, dtype=np.int64)
        m = rows.shape[0]
        if m and (np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= p):
            raise ParameterError(f"prefix rows must be strictly ascending in [0, {p})")
        held, b = self._held_prefix, self._borrowed
        gen = self._len - held  # generated rows, at store rows held - b ..
        stay = m if m == p else 0  # the whole prefix is read in place
        if m - stay + gen > self._cap:
            raise CapacityError(f"holding {m} prefix rows and {gen} generated rows needs "
                                f"{m - stay + gen} own rows, {self._cap} reserved")
        n, runs = self.n_layers, _runs(rows)
        for own, theirs in zip((*self._k, *self._v), (*src._k[:n], *src._v[:n])):
            own[:, m - stay:m - stay + gen] = own[:, held - b:held - b + gen]
            if not stay:  # a slice copy per run, without a temporary
                for at, lo, size in runs:
                    own[:, at:at + size] = theirs[:, lo:lo + size]
        self._pos[m:m + gen] = self._pos[held:self._len]
        self._pos[:m] = rows
        self._held_prefix, self._borrowed, self._len = m, stay, m + gen


def _runs(rows: np.ndarray, at: int = 0) -> list[tuple[int, int, int]]:
    """``(to, first, size)`` for each run of consecutive values in ascending
    ``rows``, copied to ``at, at + 1, ...``: a retrieval selection of whole
    chunks is a few runs, a streaming window one."""
    if not rows.shape[0]:
        return []
    starts = np.r_[0, np.flatnonzero(np.diff(rows) != 1) + 1]
    sizes = np.diff(np.r_[starts, rows.shape[0]])
    return list(zip((starts + at).tolist(), rows[starts].tolist(), sizes.tolist()))
