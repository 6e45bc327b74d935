"""Per-layer key/value storage with Full, Streaming and Retrieval draft policies.

A cache is a fixed-size row store: rows ``[0, archive_len)`` are exactly the
rows the next forward pass attends to. Per layer, K is stored
``[H, capacity, dh]`` and V dh-major, ``[H, dh, capacity]``, so a one-row
pass reads each head's values as ``dh`` contiguous rows (a dot-form gemv, as
``q @ K^T`` reads the keys); ``layer_parts`` gives both as ``[H, L, dh]``
views. Rows keep their absolute positions: keys are stored post-rotation and
never re-rotated. An append past the reserved capacity raises
``CapacityError``.

Every held row is a committed row. An unseeded cache, the target's, holds
positions ``0 .. archive_len - 1`` at index = position: ``append`` takes
only the next positions, ``world_len ..``, so no row ever moves, and that
is what lets a draft read those rows in place. ``truncate`` rolls such a
cache back; no session does. A draft tree's rows are never appended: the
drafter keeps them beside the tree (``drafting.draft_tree``).

A cache built with ``KVCache.seeded`` is a draft's, whose layers are the
target's first, so the target's rows at committed positions are its rows.
It appends no row and owns only the prompt rows a retrieval update gathers
(``hold_prefix``). Its root is its source's last row; the committed rows
before it that its policy names (``in_place``) it reads in place, as runs
of the source's store derived from the source's length on every read, so
the view follows the source and cannot go stale. ``layer_parts`` gives the
gathered rows and the runs in position order. A draft never rolls back:
its ``truncate`` raises. Which rows a draft reads is decided here alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, OrderingError, ParameterError, StateError

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

    ``capacity`` store rows are reserved up front: the most rows the cache
    owns. The caller of an unseeded cache passes it; a seeded cache reserves
    the most prompt rows its policy gathers.
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
        except (MemoryError, ValueError):  # ValueError: past numpy's size limit
            raise CapacityError(f"cannot reserve {capacity} cache rows") from None
        self._cap = capacity
        self._len = 0  # store rows in use: an unseeded cache's rows, a draft's gathered rows
        self._gathered = np.arange(0)  # a draft's: the positions of its store rows
        self._prefix_rows = 0  # sealed prefix, positions [0, _prefix_rows), held or not
        self._source: KVCache | None = None  # where a seeded cache reads its rows
        self._policy: CachePolicy | None = None  # which of them it reads in place

    @classmethod
    def seeded(cls, source: KVCache, n_layers: int, rows: int,
               policy: CachePolicy) -> KVCache:
        """An empty cache over the first ``n_layers`` layers of ``source``,
        whose rows ``[0, rows)``, at positions ``0 .. rows - 1`` as a prefill
        writes them, are its sealed prefix; its root is the source's last row.

        It reads the committed rows ``policy`` names in place, and reserves
        store rows for the most prefix rows ``policy`` gathers
        (``hold_prefix``), and at least one.
        """
        if source._source is not None or source._len <= rows:
            raise OrderingError(f"the source does not hold positions 0 .. {rows} in place")
        cache = cls(n_layers, source.n_heads, source.d_head, max(policy.prefix_rows(rows), 1))
        cache._prefix_rows, cache._source, cache._policy = rows, source, policy
        return cache

    # -- core state ---------------------------------------------------------

    def _read_runs(self) -> list[tuple[int, int]]:
        """The non-empty runs ``(lo, hi)`` of the source a seeded cache reads
        in place: what its policy names before its root."""
        if self._source is None:
            return []
        return [(lo, hi) for lo, hi in self._policy.in_place(self._prefix_rows, self.world_len)
                if lo < hi]

    @property
    def generation_boundary(self) -> int:
        """Count of held rows that belong to the sealed input prefix; they
        lead the held rows."""
        p = self._prefix_rows
        return self._gathered.size + sum(max(min(hi, p) - lo, 0) for lo, hi in self._read_runs())

    @property
    def prefix_len(self) -> int:
        return self._prefix_rows

    @property
    def archive_len(self) -> int:
        """Number of held rows: what attention reads."""
        return self._len + sum(hi - lo for lo, hi in self._read_runs())

    @property
    def world_len(self) -> int:
        """One past the last committed position, whether or not its row is
        held: a seeded cache's root is there, at its source's last row."""
        return self._len if self._source is None else self._source._len - 1

    def layer_parts(self, layer: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Held ``(k, v)`` of one layer as ``[H, L, dh]`` views of the stores in
        position order: the store's own rows, always the first part (every
        row of an unseeded cache; a draft's gathered rows, maybe none), then
        the source's runs read in place. Each head's keys are contiguous
        ``[L, dh]`` and its values ``[dh, L]``."""
        k, v, own, src = self._k[layer], self._v[layer], self._len, self._source
        return [(k[:, :own], v[:, :own])] + [
            (src._k[layer][:, lo:hi], src._v[layer][:, lo:hi]) for lo, hi in self._read_runs()]

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Held ``(k, v, pos)`` for one layer, k/v shaped ``[H, L, dh]``:
        slices of the store, or a copy when the rows lie in several parts.
        ``pos`` is a draft's gathered rows, then its runs."""
        parts = self.layer_parts(layer)
        k, v = (np.concatenate(x, axis=1) if len(x) > 1 else x[0] for x in zip(*parts))
        if self._source is None:
            return k, v, np.arange(self._len)
        return k, v, np.concatenate([self._gathered,
                                     *(np.arange(lo, hi) for lo, hi in self._read_runs())])

    # -- mutation -----------------------------------------------------------

    def append(self, ks: list[np.ndarray], vs: list[np.ndarray], positions: np.ndarray) -> None:
        """Append one block of rows, at positions ``world_len ..
        world_len + q - 1``, to every layer. ``ks[layer]`` and ``vs[layer]``
        are ``[q, H, dh]``. A seeded cache appends none: its committed rows
        are its source's."""
        positions = np.asarray(positions, dtype=np.int64)
        q = positions.shape[0]
        if self._source is not None:
            raise StateError("a draft cache appends no rows: its source holds them")
        if len(ks) != self.n_layers or len(vs) != self.n_layers:
            raise ParameterError("append expects one K and V block per layer")
        if not np.array_equal(positions, np.arange(self._len, self._len + q)):
            raise OrderingError(f"appended positions must be {self._len} .. "
                                f"{self._len + q - 1}")
        if self._len + q > self._cap:
            raise CapacityError(f"appending {q} rows to {self._len} rows overflows the "
                                f"{self._cap} reserved")
        for li in range(self.n_layers):
            self._k[li][:, self._len:self._len + q] = ks[li].transpose(1, 0, 2)
            self._v[li][:, self._len:self._len + q] = vs[li].transpose(1, 0, 2)
        self._len += q

    def truncate(self, world_len: int) -> None:
        """Drop every row whose position is >= ``world_len`` (rollback)."""
        if self._source is not None:
            raise StateError("a draft cache is not rolled back: its rows follow its source")
        self._len = max(min(self._len, world_len), 0)

    def hold_prefix(self, rows) -> None:
        """Hold the sealed prefix rows ``rows`` (strictly ascending indices),
        gathered from the source, in front of the rows read in place."""
        p, src = self.prefix_len, self._source
        if src is None:
            raise StateError("holding prefix rows needs a source cache (KVCache.seeded)")
        if src._len < p:
            raise StateError(f"the source no longer holds positions 0 .. {p - 1} in place")
        rows = np.array(rows, dtype=np.int64)
        m = rows.shape[0]
        if m and (np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= p):
            raise ParameterError(f"prefix rows must be strictly ascending in [0, {p})")
        read = self._read_runs()
        if m and read and rows[-1] >= read[0][0]:
            raise OrderingError("gathered rows must precede the rows read in place")
        if m > self._cap:
            raise CapacityError(f"holding {m} prefix rows overflows the {self._cap} reserved")
        n, runs = self.n_layers, _runs(rows)
        for own, theirs in zip((*self._k, *self._v), (*src._k[:n], *src._v[:n])):
            for at, lo, size in runs:  # a slice copy per run, without a temporary
                own[:, at:at + size] = theirs[:, lo:lo + size]
        self._gathered, self._len = rows, m


def _runs(rows: np.ndarray) -> list[tuple[int, int, int]]:
    """``(to, first, size)`` for each run of consecutive values in ascending
    ``rows``, copied to ``0, 1, ...``: a retrieval selection of whole chunks
    is a few runs."""
    if not rows.shape[0]:
        return []
    starts = np.r_[0, np.flatnonzero(np.diff(rows) != 1) + 1]
    sizes = np.diff(np.r_[starts, rows.shape[0]])
    return list(zip(starts.tolist(), rows[starts].tolist(), sizes.tolist()))
