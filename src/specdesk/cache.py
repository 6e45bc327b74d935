"""Per-layer key/value storage with Full, Streaming and Retrieval draft policies.

A cache is a fixed-size row store: rows ``[0, archive_len)`` are exactly the
rows the next forward pass attends to. Per layer, K is stored
``[H, capacity, dh]`` and V dh-major, ``[H, dh, capacity]``, so a one-row
pass reads each head's values as ``dh`` contiguous rows (a dot-form gemv, as
``q @ K^T`` reads the keys); ``layer_parts`` gives both as ``[H, L, dh]``
views. Rows keep their absolute positions: keys are stored post-rotation and
never re-rotated. An append past the reserved capacity raises
``CapacityError``.

Committed rows are held in increasing position order. Behind them may come
a speculative tail, a draft tree's decoded nodes after its root, in any
order (siblings share a position); every tail position exceeds the root's.
The target's cache holds committed rows only, every committed position at
index = position, appended once and never moved: that invariant is what
lets a draft read those rows in place. ``truncate`` rolls a cache back by
position; no session does.

A cache built with ``KVCache.seeded`` is a draft's, whose layers are the
target's first, so the target's rows at committed positions are its rows.
It owns only the prompt rows a retrieval update gathers (``hold_prefix``)
and the root and nodes it decodes in a step; ``read_source`` drops those
and reads the committed rows before the next root in place, as the runs of
the target's store its policy names (``in_place``). ``layer_parts`` gives
the gathered rows, the runs and the own rows in position order. A draft
never rolls back: its ``truncate`` raises. The cache itself knows no
policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, OrderingError, ParameterError, ShapeError, StateError

_INIT_CAP = 64


@dataclass(frozen=True)
class FullPolicy:
    """Each policy names the runs ``(lo, hi)`` of the committed rows
    ``[0, end)`` that a draft reads in place, given its sealed prompt prefix
    of ``prefix`` rows (``in_place``), and the most of ``n`` prompt rows it
    gathers into its own store (``prefix_rows``)."""

    def in_place(self, prefix: int, end: int) -> list[tuple[int, int]]:
        return [(0, end)]

    def prefix_rows(self, n: int) -> int:
        return 0


@dataclass(frozen=True)
class StreamingPolicy:
    sink: int
    recent: int

    def __post_init__(self):
        if self.sink < 0 or self.recent < 1:
            raise ParameterError("streaming policy needs sink >= 0 and recent >= 1")

    def in_place(self, prefix: int, end: int) -> list[tuple[int, int]]:
        if end <= self.sink + self.recent:
            return [(0, end)]
        return [(0, self.sink), (end - self.recent, end)]

    def prefix_rows(self, n: int) -> int:
        return 0


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

    def in_place(self, prefix: int, end: int) -> list[tuple[int, int]]:
        return [(prefix, end)]  # the generated rows; an update gathers the prompt's

    def prefix_rows(self, n: int) -> int:
        return min(self.top_k * self.chunk_size + self.sink, n)


CachePolicy = FullPolicy | StreamingPolicy | RetrievalPolicy


class KVCache:
    """Fixed-size per-layer K/V store shared by one generation session.

    ``capacity`` store rows are reserved up front; a caller passes the most
    rows a session can own: every row it holds but those read in place.
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
        self._gathered = 0  # leading held rows, copied from the source to store rows 0 ..
        self._in_place: list[tuple[int, int]] = []  # source rows read in place, held next
        self._lent = 0  # rows in _in_place
        self._source: KVCache | None = None  # where a seeded cache reads its rows

    @classmethod
    def seeded(cls, source: KVCache, n_layers: int, rows: int, capacity: int) -> KVCache:
        """An empty cache over the first ``n_layers`` layers of ``source``,
        whose rows ``[0, rows)``, at positions ``0 .. rows - 1`` as a prefill
        writes them, are its sealed prefix.

        ``hold_prefix`` gathers prefix rows from ``source`` and
        ``read_source`` reads its committed rows in place. ``capacity``
        counts the rows the cache owns: the prefix rows it gathers and one
        step's decoded rows.
        """
        if not np.array_equal(source._pos[:source._len][:rows], np.arange(rows)):
            raise OrderingError(f"the source's first {rows} rows are not positions "
                                f"0 .. {rows - 1}")
        cache = cls(n_layers, source.n_heads, source.d_head, capacity)
        cache._pos = np.empty(capacity + source._cap, dtype=np.int64)  # own + in place
        cache._prefix_rows = cache._world = rows
        cache._source = source
        return cache

    # -- core state ---------------------------------------------------------

    @property
    def generation_boundary(self) -> int:
        """Count of held rows that belong to the sealed input prefix; they
        lead the held rows."""
        return int(np.searchsorted(self._pos[:self._len], self._prefix_rows))

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
        position order: the gathered rows, if any, the source's runs read in
        place, then the own rows, always the last part. Each head's keys are
        contiguous ``[L, dh]`` and its values ``[dh, L]``."""
        k, v, g, src = self._k[layer], self._v[layer], self._gathered, self._source
        own = self._len - self._lent
        parts = [(k[:, :g], v[:, :g])] if g else []
        parts += [(src._k[layer][:, lo:hi], src._v[layer][:, lo:hi])
                  for lo, hi in self._in_place]
        return parts + [(k[:, g:own], v[:, g:own])]

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Held ``(k, v, pos)`` for one layer, k/v shaped ``[H, L, dh]``:
        slices of the store, or a copy when the rows lie in several parts."""
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
        own = self._len - self._lent
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
        if self._source is not None:
            raise StateError("a draft cache is not rolled back: read_source drops its rows")
        pos = self._pos[:self._len]
        cut = int(np.searchsorted(pos, world_len, side="left"))
        if (pos[:cut] >= world_len).any() or (pos[cut:] < world_len).any():
            raise OrderingError(f"the rows below position {world_len} do not come first")
        self._len = cut
        self._world = min(self._world, world_len)

    def hold_prefix(self, rows) -> None:
        """Hold the sealed prefix rows ``rows`` (strictly ascending indices),
        gathered from the source, in front of the rows read in place. It
        runs between steps, while the cache holds no decoded rows."""
        p = self.prefix_len
        self._check_source(p)
        rows = np.asarray(rows, dtype=np.int64)
        m = rows.shape[0]
        if m and (np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= p):
            raise ParameterError(f"prefix rows must be strictly ascending in [0, {p})")
        src, g, lent = self._source, self._gathered, self._lent
        if self._len > g + lent:
            raise StateError("prefix rows are gathered between steps, with no decoded rows")
        if m and lent and rows[-1] >= self._pos[g]:
            raise OrderingError("gathered rows must precede the rows read in place")
        if m > self._cap:
            raise CapacityError(f"holding {m} prefix rows overflows the {self._cap} reserved")
        n, runs = self.n_layers, _runs(rows)
        for own, theirs in zip((*self._k, *self._v), (*src._k[:n], *src._v[:n])):
            for at, lo, size in runs:  # a slice copy per run, without a temporary
                own[:, at:at + size] = theirs[:, lo:lo + size]
        self._pos[m:m + lent] = self._pos[g:g + lent]
        self._pos[:m] = rows
        self._gathered, self._len = m, m + lent

    def read_source(self, end: int, runs) -> None:
        """Drop every decoded row and read the source rows ``runs``,
        ascending ``(lo, hi)`` pairs in ``[0, end)``, in place behind the
        gathered rows: the committed rows a draft sees before its root at
        position ``end``, which the next append decodes."""
        self._check_source(end)
        runs, g = [(lo, hi) for lo, hi in runs if lo < hi], self._gathered
        if np.any(np.diff([self._pos[g - 1] + 1 if g else 0, *np.ravel(runs), end]) < 0):
            raise OrderingError(f"runs must be ascending, after the gathered rows and "
                                f"below position {end}")
        pos = np.concatenate([np.arange(lo, hi) for lo, hi in [(0, 0), *runs]])
        self._pos[g:g + pos.size] = pos
        self._in_place, self._lent, self._len, self._world = runs, pos.size, g + pos.size, end

    def _check_source(self, end: int) -> None:
        """The source must still hold positions ``0 .. end - 1`` at index =
        position; its committed rows ascend, so its row ``end - 1`` tells."""
        src = self._source
        if src is None:
            raise StateError("reading source rows needs a source cache (KVCache.seeded)")
        if end and (src._len < end or src._pos[end - 1] != end - 1):
            raise StateError(f"the source no longer holds positions 0 .. {end - 1} in place")


def _runs(rows: np.ndarray) -> list[tuple[int, int, int]]:
    """``(to, first, size)`` for each run of consecutive values in ascending
    ``rows``, copied to ``0, 1, ...``: a retrieval selection of whole chunks
    is a few runs."""
    if not rows.shape[0]:
        return []
    starts = np.r_[0, np.flatnonzero(np.diff(rows) != 1) + 1]
    sizes = np.diff(np.r_[starts, rows.shape[0]])
    return list(zip(starts.tolist(), rows[starts].tolist(), sizes.tolist()))
