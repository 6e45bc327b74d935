import tracemalloc

import numpy as np
import pytest

from specdesk.cache import FullPolicy, KVCache, RetrievalPolicy, StreamingPolicy
from specdesk.errors import (CapacityError, OrderingError, ParameterError, ShapeError,
                             StateError)
from specdesk.model import ModelSpec, decode_step, derive_draft
from specdesk.modelgen import random_weights
from specdesk.retrieval import chunk_rows


def make_cache(n_layers=2, n_heads=2, d_head=4):
    return KVCache(n_layers, n_heads, d_head)


def seeded_cache(n, n_layers=2):
    # A draft cache holding all n prompt rows of a deeper source cache, gathered.
    source = make_cache(n_layers=n_layers + 1)
    append_tokens(source, list(range(n)))
    cache = KVCache.seeded(source, n_layers, n, capacity=64)
    cache.hold_prefix(np.arange(n))
    return cache


def reading_cache(n, runs, prefix=None, n_layers=2):
    # A draft cache over a source of n committed rows that reads ``runs`` in
    # place before a root at position n.
    source = make_cache(n_layers=n_layers + 1)
    append_tokens(source, list(range(n)))
    cache = KVCache.seeded(source, n_layers, n if prefix is None else prefix, capacity=64)
    cache.read_source(n, runs)
    return source, cache


def append_tokens(cache, positions, tail=0):
    positions = np.asarray(positions, dtype=np.int64)
    q = positions.shape[0]
    ks = [np.random.default_rng(int(positions[0]) + li).standard_normal(
        (q, cache.n_heads, cache.d_head)) for li in range(cache.n_layers)]
    vs = [k + 1.0 for k in ks]
    cache.append(ks, vs, positions, tail=tail)


class TestAppend:
    def test_single(self):
        c = make_cache()
        append_tokens(c, [0])
        assert c.archive_len == 1
        assert c.layer_view(0)[2].tolist() == [0]

    def test_blocks(self):
        c = make_cache()
        append_tokens(c, [0, 1, 2])
        append_tokens(c, [3, 4])
        assert c.archive_len == 5
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("rows", [10**12, 10**18, 2**63])
    def test_a_capacity_that_cannot_be_reserved_raises(self, rows):
        # 32 PB and more for the first layer's keys: past any address space.
        with pytest.raises(CapacityError, match=f"cannot reserve {rows} cache rows"):
            KVCache(1, 64, 64, capacity=rows)

    def test_append_past_capacity_raises(self):
        c = KVCache(2, 2, 4, capacity=3)
        append_tokens(c, [0, 1])
        with pytest.raises(CapacityError):
            append_tokens(c, [2, 3])
        append_tokens(c, [2])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2]
        with pytest.raises(ParameterError):
            KVCache(2, 2, 4, capacity=0)

    def test_rejects_regression(self):
        c = make_cache()
        append_tokens(c, list(range(8)))
        with pytest.raises(OrderingError):
            append_tokens(c, [4])

    def test_allows_equal_positions_for_siblings(self):
        c = make_cache()
        append_tokens(c, [0, 1])
        append_tokens(c, [2, 2, 3])  # two siblings at depth 1
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 2, 3]

    def test_committed_positions_strictly_increase(self):
        c = make_cache()
        append_tokens(c, list(range(10)))
        pos = c.layer_view(0)[2]
        assert np.all(np.diff(pos) > 0)


class TestSpeculativeTail:
    """A draft tree's rows after its root, appended in decode order."""

    def test_out_of_order_tail_block_is_accepted(self):
        c = make_cache()
        append_tokens(c, list(range(5)))  # root at position 4
        append_tokens(c, [5, 6, 7])  # a greedy chain
        append_tokens(c, [5, 6], tail=3)  # a sibling branch, shallower
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 5, 6]
        assert c.world_len == 8
        c.truncate(5)
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4]
        assert c.world_len == 5

    def test_block_at_or_before_the_root_raises(self):
        c = make_cache()
        append_tokens(c, list(range(5)))
        append_tokens(c, [5, 6])
        for bad in ([4], [6, 4], [3]):
            with pytest.raises(OrderingError):
                append_tokens(c, bad, tail=2)
        with pytest.raises(OrderingError):
            append_tokens(c, [6])  # no tail: must follow position 6
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_tail_longer_than_the_held_rows_raises(self):
        c = make_cache()
        append_tokens(c, [0, 1])
        with pytest.raises(ShapeError):
            append_tokens(c, [2], tail=3)

    def test_mask_wider_than_the_held_rows_raises(self):
        spec = ModelSpec(n_layers=1, n_heads=2, d_model=8, d_head=4, vocab=5,
                         max_pos=64)
        w = random_weights(spec, 0)
        c = KVCache(1, 2, 4)
        decode_step(spec, w, [1, 2], c, positions=[0, 1])
        with pytest.raises(ShapeError):
            decode_step(spec, w, [3], c, tree_mask=np.ones((1, 4), bool),
                        positions=[2])
        out = decode_step(spec, w, [3], c, tree_mask=np.ones((1, 3), bool),
                          positions=[2])
        assert out.logits.shape == (1, 5) and c.archive_len == 3

    def test_mask_reaching_into_borrowed_rows_raises(self):
        # A tail is the draft's own decoded rows; a mask that reaches past
        # them into the source rows it reads in place is refused.
        spec = ModelSpec(n_layers=2, n_heads=2, d_model=8, d_head=4, vocab=5,
                         max_pos=64)
        w = random_weights(spec, 0)
        source = KVCache(2, 2, 4)
        decode_step(spec, w, [1, 2, 3], source, positions=[0, 1, 2])
        c = KVCache.seeded(source, 1, 2, capacity=8)
        c.read_source(2, [(0, 2)])
        draft, draft_w = derive_draft(spec, w, 1)
        decode_step(draft, draft_w, [3], c, positions=[2])
        with pytest.raises(ShapeError, match="own rows"):
            decode_step(draft, draft_w, [4], c, tree_mask=np.ones((1, 3), bool),
                        positions=[3])
        out = decode_step(draft, draft_w, [4], c, tree_mask=np.ones((1, 2), bool),
                          positions=[3])
        assert out.logits.shape == (1, 5) and c.archive_len == 4

    def test_truncate_checks_the_rows_it_drops(self):
        c = make_cache()
        append_tokens(c, list(range(3)))
        append_tokens(c, [5])
        append_tokens(c, [3, 4], tail=1)
        with pytest.raises(OrderingError):
            c.truncate(4)  # position 3 would follow the cut
        c.truncate(3)
        assert c.layer_view(0)[2].tolist() == [0, 1, 2]

    def test_truncate_checks_the_rows_it_keeps(self):
        c = make_cache()
        append_tokens(c, list(range(7)))
        append_tokens(c, [9])
        append_tokens(c, [7, 8], tail=1)
        with pytest.raises(OrderingError):
            c.truncate(9)  # the search ends past position 9's row
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5, 6, 9, 7, 8]


def window(n, sink, recent):
    # What a streaming draft reads in place before a root at position n.
    return reading_cache(n, StreamingPolicy(sink, recent).in_place(n, n))


class TestStreaming:
    def test_sink_and_recent(self):
        source, c = window(10, sink=2, recent=3)
        assert c.layer_view(0)[2].tolist() == [0, 1, 7, 8, 9]
        assert c.world_len == 10
        assert len(c.layer_parts(0)) == 3  # two slices of the source, no own rows
        # Oracle: all n rows, or the first sink and the last recent, as
        # slices of the source, and never a copy.
        for n in range(1, 12):
            for sink in range(4):
                for recent in range(1, 6):
                    policy = StreamingPolicy(sink, recent)
                    rows = [p for lo, hi in policy.in_place(3, n) for p in range(lo, hi)]
                    want = ([*range(sink), *range(n - recent, n)]
                            if n > sink + recent else list(range(n)))
                    assert rows == want and policy.prefix_rows(n) == 0

    def test_noop_when_small(self):
        _, c = window(4, sink=2, recent=3)
        assert c.layer_view(0)[2].tolist() == list(range(4))
        assert len(c.layer_parts(0)) == 2  # one slice of the source, no own rows

    def test_zero_sink(self):
        _, c = window(5, sink=0, recent=1)
        assert c.layer_view(0)[2].tolist() == [4]

    def test_original_positions_preserved(self):
        source, c = window(20, sink=1, recent=4)
        assert c.layer_view(0)[2].tolist() == [0, 16, 17, 18, 19]
        for li in range(2):
            k, v, pos = c.layer_view(li)
            sk, sv, _ = source.layer_view(li)
            assert np.array_equal(k, sk[:, pos]) and np.array_equal(v, sv[:, pos])


class TestRetrievalRebuild:
    """``hold_prefix``, the gather a retrieval update runs."""

    def test_basic_selection(self):
        c = seeded_cache(12)
        c.hold_prefix([0, 1, 2, 3, 8, 9, 10, 11])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 8, 9, 10, 11]

    def test_select_all_is_identity(self):
        c = seeded_cache(12)
        c.hold_prefix(np.arange(12))
        assert c.layer_view(0)[2].tolist() == list(range(12))

    def test_rows_must_be_ascending_prefix_rows(self):
        c = seeded_cache(10)
        for rows in ([10], [-1, 0], [3, 2], [4, 4]):
            with pytest.raises(ParameterError):
                c.hold_prefix(rows)
        assert c.layer_view(0)[2].tolist() == list(range(10))

    def test_suffix_always_survives(self):
        # The generated rows, read in place, stay behind a new selection.
        _, c = reading_cache(15, [(12, 15)], prefix=12)
        c.hold_prefix([4, 5, 6, 7])
        assert c.layer_view(0)[2].tolist() == [4, 5, 6, 7, 12, 13, 14]
        assert c.generation_boundary == 4
        with pytest.raises(OrderingError):  # gathered rows 6 and 7 after them
            c.read_source(15, [(6, 15)])
        append_tokens(c, [15])  # a decoded root: gather between steps
        with pytest.raises(StateError, match="between steps"):
            c.hold_prefix([0, 1, 2, 3])
        assert c.layer_view(0)[2].tolist() == [4, 5, 6, 7, 12, 13, 14, 15]

    def test_rebuild_can_restore_dropped_chunks(self):
        c = seeded_cache(12)
        c.hold_prefix([0, 1, 2, 3])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3]
        c.hold_prefix(np.arange(4, 12))
        assert c.layer_view(0)[2].tolist() == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_restored_rows_are_the_source_rows(self):
        source = make_cache(n_layers=3)
        append_tokens(source, list(range(14)))
        c = KVCache.seeded(source, 2, 12, capacity=64)
        assert c.archive_len == 0 and c.world_len == 12
        c.read_source(14, [(12, 14)])
        c.hold_prefix([4, 5, 6, 7])
        c.hold_prefix([0, 1, 2, 3, 8, 9, 10, 11])
        for li in range(2):
            k, v, pos = c.layer_view(li)
            sk, sv, _ = source.layer_view(li)
            assert np.array_equal(k, sk[:, pos]) and np.array_equal(v, sv[:, pos])
        assert pos.tolist() == [0, 1, 2, 3, 8, 9, 10, 11, 12, 13]

    def test_world_len_survives_dropping_the_last_chunk(self):
        c = seeded_cache(12)
        c.hold_prefix([0, 1, 2, 3])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3]
        assert c.world_len == 12
        append_tokens(c, [12])
        c.read_source(12, [])  # drops the decoded row
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3]
        assert c.world_len == 12

    def test_the_source_prefix_must_be_positions_from_zero(self):
        source = make_cache(n_layers=3)
        append_tokens(source, [0, 1, 2, 4])
        assert KVCache.seeded(source, 2, 3, capacity=8).world_len == 3
        for rows in (4, 5):  # a gap at position 3; past the held rows
            with pytest.raises(OrderingError):
                KVCache.seeded(source, 2, rows, capacity=8)

    def test_the_source_must_still_hold_the_prefix(self):
        # The target may drop its last prompt row, never the draft's prefix,
        # nor a committed row the draft reads in place.
        source = make_cache(n_layers=3)
        append_tokens(source, list(range(12)))
        c = KVCache.seeded(source, 2, 11, capacity=16)
        source.truncate(11)
        c.hold_prefix(np.arange(11))
        c.read_source(11, [])
        with pytest.raises(StateError, match="no longer holds positions 0 .. 11"):
            c.read_source(12, [])
        source.truncate(10)
        with pytest.raises(StateError, match="no longer holds positions 0 .. 10"):
            c.hold_prefix(np.arange(4))
        append_tokens(source, [12])  # as many rows, but row 10 is position 12
        with pytest.raises(StateError, match="no longer holds positions 0 .. 10"):
            c.hold_prefix(np.arange(4))
        with pytest.raises(StateError, match="no longer holds positions 0 .. 10"):
            c.read_source(11, [])
        assert c.layer_view(0)[2].tolist() == list(range(11))

    def test_rebuild_needs_a_source(self):
        c = make_cache()
        append_tokens(c, list(range(12)))
        with pytest.raises(StateError):
            c.hold_prefix([0])
        with pytest.raises(StateError):
            c.read_source(12, [(0, 12)])

    def test_idempotent(self):
        c = seeded_cache(16)
        c.hold_prefix([4, 5, 6, 7, 12, 13, 14, 15])
        before = c.layer_view(0)[2].tolist()
        c.hold_prefix([4, 5, 6, 7, 12, 13, 14, 15])
        assert c.layer_view(0)[2].tolist() == before

    def test_layers_consistent(self):
        c = seeded_cache(12, n_layers=3)
        c.hold_prefix([4, 5, 6, 7])
        views = [c.layer_view(li) for li in range(3)]
        for k, v, pos in views:
            assert k.shape[1] == 4
            assert pos.tolist() == [4, 5, 6, 7]

    def test_prefix_past_capacity_raises(self):
        # Gathered and decoded rows share the reserved store rows.
        source = make_cache()
        append_tokens(source, list(range(12)))
        c = KVCache.seeded(source, 2, 12, capacity=6)
        with pytest.raises(CapacityError):
            c.hold_prefix(np.arange(7))
        c.hold_prefix(np.arange(4))
        append_tokens(c, [12, 13])
        with pytest.raises(CapacityError):
            append_tokens(c, [14])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 12, 13]


class TestGatherTemporaries:
    # numpy reports its buffers to tracemalloc. A gather that builds a
    # temporary the size of one layer's gathered rows would double its
    # working memory at 8K; one head's rows at a time is the most allowed.
    @staticmethod
    def peak_bytes(op):
        tracemalloc.start()
        try:
            op()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    N, HEADS, D_HEAD = 2047, 2, 64
    LAYER_ROWS = N * HEADS * D_HEAD * 8  # bytes of one layer's prefix keys

    def seeded(self):
        source = KVCache(3, self.HEADS, self.D_HEAD, capacity=self.N + 1)
        append_tokens(source, list(range(self.N + 1)))
        return source, KVCache.seeded(source, 2, self.N, capacity=self.N + 16)

    def assert_source_rows(self, c, source):
        for li in range(2):
            k, v, pos = c.layer_view(li)
            sk, sv, _ = source.layer_view(li)
            assert np.array_equal(k, sk[:, pos]) and np.array_equal(v, sv[:, pos])

    def test_hold_prefix_gathers_one_head_at_a_time(self):
        # Every prefix row but the first: a gather into the store.
        source, c = self.seeded()
        assert self.peak_bytes(lambda: c.hold_prefix(np.arange(1, self.N))) < self.LAYER_ROWS / 8
        assert len(c.layer_parts(0)) == 2  # the gathered rows, then no own rows
        self.assert_source_rows(c, source)

    def test_a_whole_prefix_is_read_in_place(self):
        source, c = self.seeded()
        runs = [(0, 4), (50, self.N + 1)]  # a streaming draft's sink and window
        assert self.peak_bytes(lambda: c.read_source(self.N + 1, runs)) < self.LAYER_ROWS / 8
        sk, sv, _ = source.layer_view(1)
        for (k, v), (lo, hi) in zip(c.layer_parts(1), runs):
            assert np.shares_memory(k, sk) and np.shares_memory(v, sv)
            assert np.array_equal(k, sk[:, lo:hi]) and np.array_equal(v, sv[:, lo:hi])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3] + list(range(50, self.N + 1))
        self.assert_source_rows(c, source)


def test_layer_view_tracks_every_mutation():
    # Each row holds its own position, so a view is right exactly when its
    # rows read back the held positions. ``held`` models the held rows: first
    # of a cache that appends and truncates, then of a draft's, which
    # gathers prompt rows, reads source runs in place and decodes.
    rng = np.random.default_rng(5)

    def rows_for(pos, n_layers):
        rows = [np.broadcast_to((pos + li)[:, None, None], (len(pos), 2, 4))
                for li in range(n_layers)]
        return rows, [-r for r in rows]

    def append(c, held, n, tail_room):
        # A block of n rows after a tail of up to 4 of the last tail_room
        # rows: positions in any order, each past the last row before it.
        tail = int(rng.integers(0, min(4, max(0, tail_room)) + 1))
        root = held[-tail - 1] if tail else c.world_len - 1
        pos = rng.permutation(np.arange(root + 1, root + 1 + n))
        c.append(*rows_for(pos, 2), pos, tail=tail)
        held.extend(pos.tolist())

    def check(c, held, world):
        assert c.world_len == world
        for li in range(2):
            k, v, pos = c.layer_view(li)
            assert pos.tolist() == held
            assert np.array_equal(k[0, :, 0], pos + li)
            assert np.array_equal(v[1, :, 3], -(pos + li))

    t = KVCache(2, 2, 4, capacity=400)
    held: list[int] = []
    world = 0
    for _ in range(300):
        if rng.integers(2) or not held:
            append(t, held, int(rng.integers(1, 6)), len(held) - 1)
            world = max(world, max(held) + 1)
        else:
            # Cut at or before any unordered tail, as a rollback does.
            lo = min([world] + [p for i, p in enumerate(held)
                                if p <= max(held[:i], default=-1)])
            w = int(rng.integers(max(0, min(lo, world - 6)), lo + 1))
            t.truncate(w)
            held[:] = [p for p in held if p < w]
            world = min(world, w)
        check(t, held, world)

    source = KVCache(3, 2, 4, capacity=80)
    source.append(*rows_for(np.arange(80), 3), np.arange(80))
    c = KVCache.seeded(source, 2, 40, capacity=56)
    gathered: list[int] = []
    read: list[int] = []
    held, world = [], 40
    for _ in range(400):
        op = rng.integers(3)
        own = len(held) - len(gathered) - len(read)
        if op == 0:
            end = int(rng.integers(40, 81))
            policy = [FullPolicy(), RetrievalPolicy(4, 2, 1),
                      StreamingPolicy(int(rng.integers(0, 4)),
                                      int(rng.integers(1, 30)))][rng.integers(3)]
            runs = policy.in_place(40, end)
            rows = [p for lo, hi in runs for p in range(lo, hi)]
            if gathered and rows and rows[0] <= gathered[-1]:
                with pytest.raises(OrderingError):
                    c.read_source(end, runs)
            else:
                c.read_source(end, runs)
                read, held, world = rows, gathered + rows, end
        elif op == 1:
            chunks = np.flatnonzero(rng.random(10) < rng.choice([0.0, 0.4]))
            rows = chunk_rows(chunks, 4, 40, int(rng.integers(0, 3))).tolist()
            if own:
                with pytest.raises(StateError):
                    c.hold_prefix(rows)
            elif rows and read and rows[-1] >= read[0]:
                with pytest.raises(OrderingError):
                    c.hold_prefix(rows)
            else:
                c.hold_prefix(rows)
                gathered, held = rows, rows + read
        else:
            n = int(rng.integers(1, 6))
            if len(gathered) + own + n <= 56:
                append(c, held, n, own)
                world = max(world, max(held) + 1)
            else:
                with pytest.raises(CapacityError):
                    append(c, [*held], n, own)
        check(c, held, world)


class TestTruncate:
    def test_rollback_by_position(self):
        c = make_cache()
        append_tokens(c, list(range(6)))
        append_tokens(c, [6, 6, 7])  # speculative tree rows
        c.truncate(6)
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5]

    def test_a_draft_cache_never_rolls_back(self):
        # A draft drops its decoded rows by reading the source again; it
        # never truncates, so no row it reads in place moves.
        _, c = reading_cache(12, [(0, 12)])
        append_tokens(c, [12, 13])
        with pytest.raises(StateError, match="read_source"):
            c.truncate(12)
        assert c.layer_view(0)[2].tolist() == list(range(14))
        c.read_source(12, [(0, 12)])
        assert c.layer_view(0)[2].tolist() == list(range(12))

    def test_truncate_then_reappend(self):
        c = make_cache()
        append_tokens(c, list(range(4)))
        c.truncate(2)
        append_tokens(c, [2, 3, 4])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4]


class TestPolicyValidation:
    def test_streaming_bounds(self):
        with pytest.raises(ParameterError):
            StreamingPolicy(sink=-1, recent=4)
        with pytest.raises(ParameterError):
            StreamingPolicy(sink=0, recent=0)

    def test_retrieval_bounds(self):
        with pytest.raises(ParameterError):
            RetrievalPolicy(chunk_size=0, top_k=1, frequency=1)
        with pytest.raises(ParameterError):
            RetrievalPolicy(chunk_size=1, top_k=0, frequency=1)
        with pytest.raises(ParameterError):
            RetrievalPolicy(chunk_size=1, top_k=1, frequency=0)
