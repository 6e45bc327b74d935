import tracemalloc

import numpy as np
import pytest

from specdesk.cache import KVCache, RetrievalPolicy, StreamingPolicy
from specdesk.errors import (CapacityError, OrderingError, ParameterError, ShapeError,
                             StateError)
from specdesk.model import ModelSpec, decode_step, derive_draft
from specdesk.modelgen import random_weights
from specdesk.retrieval import chunk_rows


def make_cache(n_layers=2, n_heads=2, d_head=4):
    return KVCache(n_layers, n_heads, d_head)


def seeded_cache(n, n_layers=2):
    # A draft cache holding all n prompt rows of a deeper source cache.
    source = make_cache(n_layers=n_layers + 1)
    append_tokens(source, list(range(n)))
    cache = KVCache.seeded(source, n_layers, n, capacity=64)
    cache.hold_prefix(np.arange(n))
    return cache


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
        # them into the rows a whole prefix borrows is refused.
        spec = ModelSpec(n_layers=2, n_heads=2, d_model=8, d_head=4, vocab=5,
                         max_pos=64)
        w = random_weights(spec, 0)
        source = KVCache(2, 2, 4)
        decode_step(spec, w, [1, 2, 3], source, positions=[0, 1, 2])
        c = KVCache.seeded(source, 1, 2, capacity=8)
        c.hold_prefix(np.arange(2))
        draft, draft_w = derive_draft(spec, w, 1)
        decode_step(draft, draft_w, [3], c, positions=[2])
        with pytest.raises(ShapeError, match="borrowed"):
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


class TestKeep:
    def test_compacts_in_place(self):
        c = seeded_cache(6)
        append_tokens(c, [6, 7, 8, 9])
        k_before = c.layer_view(1)[0].copy()
        c.keep([0, 2, 3, 5, 7, 9])
        assert c.layer_view(0)[2].tolist() == [0, 2, 3, 5, 7, 9]
        assert np.array_equal(c.layer_view(1)[0], k_before[:, [0, 2, 3, 5, 7, 9]])
        assert c.generation_boundary == 4  # four of the six prefix rows held
        assert c.world_len == 10  # dropped positions stay in the world

    def test_keep_everything_or_nothing(self):
        c = seeded_cache(6)
        append_tokens(c, [6, 7])
        c.keep(np.arange(8))
        assert c.layer_view(0)[2].tolist() == list(range(8))
        assert c.generation_boundary == 6
        c.keep([])
        assert (c.archive_len, c.generation_boundary, c.world_len) == (0, 0, 8)

    def test_rows_must_be_strictly_ascending_held_rows(self):
        c = make_cache()
        append_tokens(c, list(range(5)))
        for rows in ([5], [-1, 0], [3, 2], [1, 1]):
            with pytest.raises(ParameterError):
                c.keep(rows)
        assert c.layer_view(0)[2].tolist() == list(range(5))


def evict(cache, sink, recent):
    # What the engine does after every step of a streaming draft.
    cache.keep(StreamingPolicy(sink, recent).held_rows(cache.archive_len))


class TestStreaming:
    def test_sink_and_recent(self):
        c = make_cache()
        append_tokens(c, list(range(10)))
        evict(c, sink=2, recent=3)
        assert c.layer_view(0)[2].tolist() == [0, 1, 7, 8, 9]
        assert c.world_len == 10
        # Oracle: all n rows, or the first sink and the last recent.
        for n in range(1, 12):
            for sink in range(4):
                for recent in range(1, 6):
                    policy = StreamingPolicy(sink, recent)
                    rows = policy.held_rows(n).tolist()
                    want = ([*range(sink), *range(n - recent, n)]
                            if n > sink + recent else list(range(n)))
                    assert rows == want and policy.prefix_rows(n) == len(rows)

    def test_noop_when_small(self):
        c = make_cache()
        append_tokens(c, list(range(4)))
        evict(c, sink=2, recent=3)
        assert c.archive_len == 4

    def test_zero_sink(self):
        c = make_cache()
        append_tokens(c, list(range(5)))
        evict(c, sink=0, recent=1)
        assert c.layer_view(0)[2].tolist() == [4]

    def test_original_positions_preserved(self):
        c = make_cache()
        append_tokens(c, list(range(20)))
        evict(c, sink=1, recent=4)
        assert c.layer_view(0)[2].tolist() == [0, 16, 17, 18, 19]


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
        c = seeded_cache(12)
        append_tokens(c, [12, 13, 14])  # generated
        c.hold_prefix([4, 5, 6, 7])
        assert c.layer_view(0)[2].tolist() == [4, 5, 6, 7, 12, 13, 14]
        assert c.generation_boundary == 4

    def test_rebuild_can_restore_dropped_chunks(self):
        c = seeded_cache(12)
        c.hold_prefix([0, 1, 2, 3])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3]
        c.hold_prefix(np.arange(4, 12))
        assert c.layer_view(0)[2].tolist() == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_restored_rows_are_the_source_rows(self):
        source = make_cache(n_layers=3)
        append_tokens(source, list(range(12)))
        c = KVCache.seeded(source, 2, 12, capacity=64)
        assert c.archive_len == 0 and c.world_len == 12
        append_tokens(c, [12, 13])
        c.hold_prefix([4, 5, 6, 7])
        c.hold_prefix([0, 1, 2, 3, 8, 9, 10, 11])
        for li in range(2):
            k, v, pos = c.layer_view(li)
            sk, sv, _ = source.layer_view(li)
            assert (np.array_equal(k[:, :8], sk[:, pos[:8]])
                    and np.array_equal(v[:, :8], sv[:, pos[:8]]))
        assert pos.tolist() == [0, 1, 2, 3, 8, 9, 10, 11, 12, 13]

    def test_world_len_survives_dropping_the_last_chunk(self):
        c = seeded_cache(12)
        c.hold_prefix([0, 1, 2, 3])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3]
        assert c.world_len == 12
        append_tokens(c, [12])
        c.truncate(12)
        assert c.world_len == 12

    def test_the_source_prefix_must_be_positions_from_zero(self):
        source = make_cache(n_layers=3)
        append_tokens(source, [0, 1, 2, 4])
        assert KVCache.seeded(source, 2, 3, capacity=8).world_len == 3
        for rows in (4, 5):  # a gap at position 3; past the held rows
            with pytest.raises(OrderingError):
                KVCache.seeded(source, 2, rows, capacity=8)

    def test_the_source_must_still_hold_the_prefix(self):
        # The target may drop its last prompt row, never the draft's prefix.
        source = make_cache(n_layers=3)
        append_tokens(source, list(range(12)))
        c = KVCache.seeded(source, 2, 11, capacity=16)
        source.truncate(11)
        c.hold_prefix(np.arange(11))
        source.truncate(10)
        with pytest.raises(StateError, match="no longer holds prefix rows"):
            c.hold_prefix(np.arange(4))
        append_tokens(source, [12])  # as many rows, but row 10 is position 12
        with pytest.raises(StateError, match="no longer holds prefix rows"):
            c.hold_prefix(np.arange(4))
        assert c.layer_view(0)[2].tolist() == list(range(11))

    def test_rebuild_needs_a_source(self):
        c = make_cache()
        append_tokens(c, list(range(12)))
        with pytest.raises(StateError):
            c.hold_prefix([0])

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
        source = make_cache()
        append_tokens(source, list(range(12)))
        c = KVCache.seeded(source, 2, 12, capacity=6)
        append_tokens(c, [12, 13])
        with pytest.raises(CapacityError):
            c.hold_prefix(np.arange(5))
        c.hold_prefix(np.arange(4))
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
    MOVED = 2000 * HEADS * D_HEAD * 8  # a streaming window of 2000 rows

    def seeded(self):
        source = KVCache(3, self.HEADS, self.D_HEAD, capacity=self.N + 1)
        append_tokens(source, list(range(self.N + 1)))
        return source, KVCache.seeded(source, 2, self.N, capacity=self.N + 16)

    def assert_source_rows(self, c, source):
        for li in range(2):
            k, v, pos = c.layer_view(li)
            sk, sv, _ = source.layer_view(li)
            assert np.array_equal(k[:, :-3], sk[:, pos[:-3]])
            assert np.array_equal(v[:, :-3], sv[:, pos[:-3]])

    def test_hold_prefix_and_a_streaming_keep(self):
        # Every prefix row but the first: a gather, where the whole prefix
        # would be borrowed and copy nothing.
        source, c = self.seeded()
        assert self.peak_bytes(lambda: c.hold_prefix(np.arange(1, self.N))) < self.LAYER_ROWS / 8
        assert len(c.layer_parts(0)) == 1
        append_tokens(c, [self.N, self.N + 1, self.N + 2])
        # The window shifts down by 45 rows.
        assert self.peak_bytes(lambda: evict(c, 4, 2000)) < self.MOVED
        assert c.layer_view(0)[2].tolist() == [1, 2, 3, 4] + list(range(50, self.N + 3))
        self.assert_source_rows(c, source)

    def test_a_whole_prefix_is_borrowed_until_a_keep_moves_it(self):
        source, c = self.seeded()
        assert self.peak_bytes(lambda: c.hold_prefix(np.arange(self.N))) < self.LAYER_ROWS / 8
        (bk, bv), _ = c.layer_parts(1)
        sk, sv, _ = source.layer_view(1)
        assert np.shares_memory(bk, sk) and np.shares_memory(bv, sv)
        append_tokens(c, [self.N, self.N + 1, self.N + 2])
        # The borrowed rows are copied in, then the window shifts down by 46.
        assert self.peak_bytes(lambda: evict(c, 4, 2000)) < self.MOVED
        assert len(c.layer_parts(0)) == 1
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3] + list(range(50, self.N + 3))
        self.assert_source_rows(c, source)


def test_layer_view_tracks_every_mutation():
    # Each row holds its own position, so a view is right exactly when its
    # rows read back the held positions. ``held`` and ``appended`` model the
    # held rows and every appended position not rolled back.
    rng = np.random.default_rng(5)

    def rows_for(pos, n_layers):
        rows = [np.broadcast_to((pos + li)[:, None, None], (len(pos), 2, 4))
                for li in range(n_layers)]
        return rows, [-r for r in rows]

    source = KVCache(3, 2, 4, capacity=40)
    source.append(*rows_for(np.arange(40), 3), np.arange(40))
    c = KVCache.seeded(source, 2, 40, capacity=400)
    c.hold_prefix(np.arange(40))
    held, appended = list(range(40)), list(range(40))

    def append(n):
        pos = np.arange(c.world_len, c.world_len + n)
        c.append(*rows_for(pos, 2), pos)
        held.extend(pos.tolist())
        appended.extend(pos.tolist())

    def append_tail(n):
        # A speculative block after a tail of up to 4 rows: positions in any
        # order, each past the last row before the tail, a generated root.
        tail = int(rng.integers(0, max(0, min(4, len(held) - c.generation_boundary - 1)) + 1))
        root = held[-tail - 1] if tail else c.world_len - 1
        pos = rng.permutation(np.arange(root + 1, root + 1 + n))
        c.append(*rows_for(pos, 2), pos, tail=tail)
        held.extend(pos.tolist())
        appended.extend(pos.tolist())

    for _ in range(400):
        op = rng.integers(6)
        if op == 0:
            append(int(rng.integers(1, 6)))
        elif op == 4:
            append_tail(int(rng.integers(1, 4)))
        elif op == 5:
            rows = np.flatnonzero(rng.random(len(held)) < 0.7)
            c.keep(rows)
            held[:] = [held[r] for r in rows]
        elif op == 1:
            # Cut at or before any unordered tail, as a rollback does.
            lo = min([c.world_len] + [p for i, p in enumerate(held)
                                      if p <= max(held[:i], default=-1)])
            w = int(rng.integers(max(40, min(lo, c.world_len - 6)), lo + 1))
            c.truncate(w)
            held[:] = [p for p in held if p < w]
            appended[:] = [p for p in appended if p < w]
        elif op == 2:
            sink, recent = int(rng.integers(0, 4)), int(rng.integers(1, 30))
            evict(c, sink, recent)
            if len(held) > sink + recent:
                held[:] = held[:sink] + held[-recent:]
        else:
            # Every chunk now and then: the whole prefix, borrowed in place.
            chunks = np.flatnonzero(rng.random(10) < rng.choice([0.4, 1.0], p=[0.75, 0.25]))
            sink = int(rng.integers(0, 3))
            c.hold_prefix(chunk_rows(chunks, 4, c.prefix_len, sink))
            held[:] = ([p for p in range(40) if p // 4 in chunks or p < sink]
                       + [p for p in held if p >= 40])
        assert c.layer_view(0)[2].tolist() == held
        assert c.world_len == max(appended) + 1
        assert c.generation_boundary == sum(p < 40 for p in held)
        for li in range(2):
            k, v, pos = c.layer_view(li)
            assert pos.tolist() == held
            assert np.array_equal(k[0, :, 0], pos + li)
            assert np.array_equal(v[1, :, 3], -(pos + li))


class TestTruncate:
    def test_rollback_by_position(self):
        c = make_cache()
        append_tokens(c, list(range(6)))
        append_tokens(c, [6, 6, 7])  # speculative tree rows
        c.truncate(6)
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5]

    def test_rollback_into_the_prefix_is_not_restored(self):
        c = seeded_cache(12)
        c.truncate(6)
        assert (c.prefix_len, c.world_len) == (6, 6)
        assert c.layer_view(0)[0].shape[1] == 6  # of the 12 rows it borrowed
        with pytest.raises(ParameterError):
            c.hold_prefix(np.arange(8))
        c.hold_prefix(chunk_rows([0, 1], 4, c.prefix_len))
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5]

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
