"""Per-layer key/value storage: the target's ``KVCache`` and a draft's view of it.

A ``KVCache`` is the target's fixed-size row store: it holds the committed
positions ``0 .. archive_len - 1`` at index = position. Per layer, K is
stored ``[H, capacity, dh]`` and V dh-major, ``[H, dh, capacity]``, so a
one-row pass reads each head's values as ``dh`` contiguous rows (a dot-form
gemv, as ``q @ K^T`` reads the keys); ``layer_parts`` gives both as
``[H, L, dh]`` views. Keys are stored post-rotation and never re-rotated.
``append`` takes only the next positions, ``world_len ..``, so no row ever
moves, and that is what lets a draft read those rows in place; an append
past the reserved capacity raises ``CapacityError``. ``truncate`` rolls the
store back; no session does. A draft tree's rows are never appended: the
drafter keeps them beside the tree (``drafting.draft_tree``).

A ``DraftCache`` is a draft's, whose layers are the target's first, so the
target's rows at committed positions are its rows. It appends no row and
stores only the prompt rows a retrieval update gathers (``hold_prefix``),
at most what its policy names. Its root is its source's last row; the
committed rows before it that its policy names (``in_place``) it reads in
place, as runs of the source's store derived from the source's length on
every read, so the view follows the source and cannot go stale.
``layer_parts`` gives the gathered rows, then the runs: only a retrieval
policy gathers, and its runs start at the prefix's end, so they are in
position order. Which rows a draft reads is decided here alone.
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


def _store(n_layers: int, n_heads: int, d_head: int,
           capacity: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per layer, ``capacity`` rows of K and of V, dh-major underneath."""
    try:
        return ([np.empty((n_heads, capacity, d_head)) for _ in range(n_layers)],
                [np.empty((n_heads, d_head, capacity)).swapaxes(1, 2)
                 for _ in range(n_layers)])
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise CapacityError(f"cannot reserve {capacity} cache rows") from None


class KVCache:
    """The target's K/V store for one generation session; ``capacity``
    rows, the most it holds, are reserved up front."""

    def __init__(self, n_layers: int, n_heads: int, d_head: int,
                 capacity: int = _INIT_CAP):
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.n_layers, self.n_heads, self.d_head = n_layers, n_heads, d_head
        self._k, self._v = _store(n_layers, n_heads, d_head, capacity)
        self._cap = capacity
        self._len = 0

    @property
    def archive_len(self) -> int:
        """Number of held rows: what attention reads."""
        return self._len

    # One past the last committed position: every committed row is held.
    world_len = archive_len

    def layer_parts(self, layer: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Held ``(k, v)`` of one layer: one part, ``[H, L, dh]`` views of the
        store whose heads' keys are contiguous ``[L, dh]``, values ``[dh, L]``."""
        return [(self._k[layer][:, :self._len], self._v[layer][:, :self._len])]

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Held ``(k, v, pos)`` for one layer: slices of the store."""
        (k, v), = self.layer_parts(layer)
        return k, v, np.arange(self._len)

    def append(self, ks: list[np.ndarray], vs: list[np.ndarray], positions: np.ndarray) -> None:
        """Append one block of rows, at positions ``world_len ..
        world_len + q - 1``, to every layer. ``ks[layer]`` and ``vs[layer]``
        are ``[q, H, dh]``."""
        positions = np.asarray(positions, dtype=np.int64)
        q = positions.shape[0]
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
        self._len = max(min(self._len, world_len), 0)


class DraftCache:
    """A draft's view of the committed rows of ``source``, the target's
    store, over its first ``n_layers`` layers.

    The source's rows ``[0, rows)``, at positions ``0 .. rows - 1`` as a
    prefill writes them, are its sealed prefix; its root is the source's
    last row. It reads the committed rows ``policy`` names in place, and
    reserves store rows for the most prefix rows ``policy`` gathers
    (``hold_prefix``): none for a full or streaming draft.
    """

    def __init__(self, source: KVCache, n_layers: int, rows: int, policy: CachePolicy):
        if not isinstance(source, KVCache) or source.archive_len <= rows:
            raise OrderingError(f"the source does not hold positions 0 .. {rows} in place")
        self.n_layers, self.prefix_len = n_layers, rows
        self._cap = policy.prefix_rows(rows)
        self._k, self._v = _store(n_layers, source.n_heads, source.d_head, self._cap)
        self._gathered = np.arange(0)  # the positions of the store rows
        self._source, self._policy = source, policy

    def _read_runs(self) -> list[tuple[int, int]]:
        """The non-empty runs ``(lo, hi)`` of the source read in place: what
        the policy names before the root."""
        return [(lo, hi) for lo, hi in self._policy.in_place(self.prefix_len, self.world_len)
                if lo < hi]

    @property
    def generation_boundary(self) -> int:
        """Count of held rows that belong to the sealed input prefix; they
        lead the held rows."""
        p = self.prefix_len
        return self._gathered.size + sum(max(min(hi, p) - lo, 0) for lo, hi in self._read_runs())

    @property
    def archive_len(self) -> int:
        """Number of held rows: what attention reads."""
        return self._gathered.size + sum(hi - lo for lo, hi in self._read_runs())

    @property
    def world_len(self) -> int:
        """One past the last committed position, whether or not its row is
        held: the root, at the source's last row."""
        return self._source.archive_len - 1

    def layer_parts(self, layer: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Held ``(k, v)`` of one layer as ``[H, L, dh]`` views of the stores in
        position order: the gathered rows, always the first part (maybe
        none), then the source's runs read in place. Each head's keys are
        contiguous ``[L, dh]`` and its values ``[dh, L]``."""
        n, src = self._gathered.size, self._source
        return [(self._k[layer][:, :n], self._v[layer][:, :n])] + [
            (src._k[layer][:, lo:hi], src._v[layer][:, lo:hi]) for lo, hi in self._read_runs()]

    def layer_view(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Held ``(k, v, pos)`` for one layer, k/v shaped ``[H, L, dh]``:
        slices of the stores, or a copy when the rows lie in several parts.
        ``pos`` is the gathered rows, then the runs."""
        k, v = (np.concatenate(x, axis=1) if len(x) > 1 else x[0]
                for x in zip(*self.layer_parts(layer)))
        return k, v, np.concatenate([self._gathered,
                                     *(np.arange(lo, hi) for lo, hi in self._read_runs())])

    def hold_prefix(self, rows) -> None:
        """Hold the sealed prefix rows ``rows`` (strictly ascending indices),
        gathered from the source, in front of the rows read in place."""
        p, src = self.prefix_len, self._source
        if src.archive_len < p:
            raise StateError(f"the source no longer holds positions 0 .. {p - 1} in place")
        rows = np.array(rows, dtype=np.int64)
        m = rows.shape[0]
        if m and (np.any(np.diff(rows) <= 0) or rows[0] < 0 or rows[-1] >= p):
            raise ParameterError(f"prefix rows must be strictly ascending in [0, {p})")
        if m > self._cap:
            raise CapacityError(f"holding {m} prefix rows overflows the {self._cap} reserved")
        n, runs = self.n_layers, _runs(rows)
        for own, theirs in zip((*self._k, *self._v), (*src._k[:n], *src._v[:n])):
            for at, lo, size in runs:  # a slice copy per run, without a temporary
                own[:, at:at + size] = theirs[:, lo:lo + size]
        self._gathered = rows


def _runs(rows: np.ndarray) -> list[tuple[int, int, int]]:
    """``(to, first, size)`` for each run of consecutive values in ascending
    ``rows``, copied to ``0, 1, ...``: a retrieval selection of whole chunks
    is a few runs."""
    if not rows.shape[0]:
        return []
    starts = np.r_[0, np.flatnonzero(np.diff(rows) != 1) + 1]
    sizes = np.diff(np.r_[starts, rows.shape[0]])
    return list(zip(starts.tolist(), rows[starts].tolist(), sizes.tolist()))
