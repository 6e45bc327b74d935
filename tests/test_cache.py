import tracemalloc

import numpy as np
import pytest

from specdesk.cache import DraftCache, FullPolicy, KVCache, RetrievalPolicy, StreamingPolicy
from specdesk.errors import (CapacityError, OrderingError, ParameterError, ShapeError,
                             StateError)
from specdesk.model import ModelSpec, decode_step, derive_draft
from specdesk.modelgen import random_weights
from specdesk.retrieval import chunk_rows


def make_cache(n_layers=2, n_heads=2, d_head=4):
    return KVCache(n_layers, n_heads, d_head)


def seeded_cache(n, n_layers=2):
    # A retrieval draft cache holding all n prompt rows of a deeper source
    # cache, gathered, before its root at position n.
    source = make_cache(n_layers=n_layers + 1)
    append_tokens(source, list(range(n + 1)))
    cache = DraftCache(source, n_layers, n, RetrievalPolicy(1, n, 1))
    cache.hold_prefix(np.arange(n))
    return cache


def reading_cache(n, policy, prefix=None, n_layers=2):
    # A draft cache over a source of n committed rows and a root at
    # position n, reading what ``policy`` names in place.
    source = make_cache(n_layers=n_layers + 1)
    append_tokens(source, list(range(n + 1)))
    cache = DraftCache(source, n_layers, n if prefix is None else prefix, policy)
    return source, cache


def append_tokens(cache, positions):
    positions = np.asarray(positions, dtype=np.int64)
    q = positions.shape[0]
    ks = [np.random.default_rng(int(positions[0]) + li).standard_normal(
        (q, cache.n_heads, cache.d_head)) for li in range(cache.n_layers)]
    vs = [k + 1.0 for k in ks]
    cache.append(ks, vs, positions)


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

    def test_a_gap_raises(self):
        c = make_cache()
        append_tokens(c, [0, 1])
        for bad in ([3], [2, 4], [2, 3, 5]):
            with pytest.raises(OrderingError, match="must be 2 .. "):
                append_tokens(c, bad)
        assert c.layer_view(0)[2].tolist() == [0, 1] and c.world_len == 2

    def test_a_repeated_position_raises(self):
        # Two siblings share a position: a tree's rows never enter a cache.
        c = make_cache()
        append_tokens(c, [0, 1])
        for bad in ([2, 2, 3], [1], [2, 3, 3], [3, 2]):
            with pytest.raises(OrderingError):
                append_tokens(c, bad)
        assert c.layer_view(0)[2].tolist() == [0, 1] and c.world_len == 2

    def test_committed_positions_strictly_increase(self):
        c = make_cache()
        append_tokens(c, list(range(10)))
        pos = c.layer_view(0)[2]
        assert np.all(np.diff(pos) > 0)


class TestSpeculativeTail:
    """A draft tree's rows: ``decode_step`` reads them from its ``tree``
    argument, beside the cache, and no cache holds them."""

    @staticmethod
    def model(n_layers):
        spec = ModelSpec(n_layers=n_layers, n_heads=2, d_model=8, d_head=4, vocab=5,
                         max_pos=64)
        return spec, random_weights(spec, 0)

    @staticmethod
    def tree_rows(out):
        return [(k.transpose(1, 0, 2), v.transpose(1, 0, 2)) for k, v in zip(out.ks, out.vs)]

    def test_block_at_or_before_the_root_raises(self):
        # Nor a sibling branch after a chain: a block must follow the last row.
        c = make_cache()
        append_tokens(c, list(range(5)))  # root at position 4
        append_tokens(c, [5, 6])
        for bad in ([4], [6, 4], [3], [5, 6], [6]):
            with pytest.raises(OrderingError):
                append_tokens(c, bad)
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_mask_wider_than_the_held_rows_raises(self):
        spec, w = self.model(1)
        c = KVCache(1, 2, 4)
        decode_step(spec, w, [1, 2], c, positions=[0, 1])
        rows = self.tree_rows(decode_step(spec, w, [3], c, positions=[2], append=False))
        with pytest.raises(ShapeError, match="T <= 1 tree rows"):
            decode_step(spec, w, [4], c, tree_mask=np.ones((1, 3), bool),
                        positions=[3], append=False, tree=rows)
        with pytest.raises(ShapeError, match="T <= 0 tree rows"):  # no tree, no tail
            decode_step(spec, w, [4], c, tree_mask=np.ones((1, 2), bool), positions=[3])
        out = decode_step(spec, w, [4], c, tree_mask=np.ones((1, 2), bool),
                          positions=[3], append=False, tree=rows)
        assert out.logits.shape == (1, 5) and c.archive_len == 2

    def test_mask_reaching_into_borrowed_rows_raises(self):
        # The tree rows are the draft's own; a mask that reaches past them
        # into the source rows it reads in place is refused.
        spec, w = self.model(2)
        source = KVCache(2, 2, 4)
        decode_step(spec, w, [1, 2, 3], source, positions=[0, 1, 2])
        c = DraftCache(source, 1, 2, FullPolicy())
        draft, draft_w = derive_draft(spec, w, 1)
        rows = self.tree_rows(decode_step(draft, draft_w, [3], c, positions=[2],
                                          append=False))
        with pytest.raises(ShapeError, match="tree rows"):
            decode_step(draft, draft_w, [4], c, tree_mask=np.ones((1, 3), bool),
                        positions=[3], append=False, tree=rows)
        out = decode_step(draft, draft_w, [4], c, tree_mask=np.ones((1, 2), bool),
                          positions=[3], append=False, tree=rows)
        assert out.logits.shape == (1, 5) and c.archive_len == 2 and c.world_len == 2

    def test_tree_rows_of_another_layer_count_raise(self):
        spec, w = self.model(2)
        c = KVCache(2, 2, 4)
        decode_step(spec, w, [1, 2], c, positions=[0, 1])
        rows = self.tree_rows(decode_step(spec, w, [3], c, positions=[2], append=False))
        for bad in (rows[:1], rows + rows[:1], []):
            with pytest.raises(ShapeError, match="2 \\(k, v\\) pairs"):
                decode_step(spec, w, [4], c, positions=[3], append=False, tree=bad)
        assert c.archive_len == 2

    def test_tree_rows_of_a_bad_shape_raise(self):
        spec, w = self.model(2)
        c = KVCache(2, 2, 4)
        decode_step(spec, w, [1, 2], c, positions=[0, 1])
        (k0, v0), (k1, v1) = self.tree_rows(decode_step(spec, w, [3, 4, 0], c,
                                                        positions=[2, 3, 4], append=False))
        bad = [
            [(k0.transpose(1, 0, 2), v0), (k1, v1)],  # [q, H, dh], as ForwardOutput holds it
            [(k0, v0[:, :1]), (k1, v1)],  # k and v of different lengths
            [(k0, v0), (k1[:, :1], v1[:, :1])],  # layers of different lengths
            [(k0[..., :2], v0), (k1, v1)],  # not d_head wide
            [(k0[0], v0), (k1, v1)],  # not 3-D
            [(k0,), (k1, v1)],  # no v
        ]
        for rows in bad:
            with pytest.raises(ShapeError, match="\\[2, N, 4\\]"):
                decode_step(spec, w, [4], c, positions=[5], append=False, tree=rows)
        out = decode_step(spec, w, [4], c, positions=[5], append=False,
                          tree=[(k0, v0), (k1, v1)])
        assert out.logits.shape == (1, 5) and c.archive_len == 2


def window(n, sink, recent):
    # What a streaming draft reads in place before a root at position n.
    return reading_cache(n, StreamingPolicy(sink, recent))


class TestStreaming:
    def test_sink_and_recent(self):
        source, c = window(10, sink=2, recent=3)
        assert c.layer_view(0)[2].tolist() == [0, 1, 7, 8, 9]
        assert c.world_len == 10
        assert len(c.layer_parts(0)) == 3  # no store rows, then two slices of the source
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
        assert len(c.layer_parts(0)) == 2  # no store rows, then one slice of the source

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
        # The generated rows, read in place, stay behind a new selection,
        # and a row the source commits joins them.
        source, c = reading_cache(15, RetrievalPolicy(4, 3, 1), prefix=12)
        c.hold_prefix([4, 5, 6, 7])
        assert c.layer_view(0)[2].tolist() == [4, 5, 6, 7, 12, 13, 14]
        assert c.generation_boundary == 4
        append_tokens(source, [16])
        c.hold_prefix([0, 1, 2, 3])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 12, 13, 14, 15]
        assert c.generation_boundary == 4 and c.world_len == 16

    def test_rebuild_can_restore_dropped_chunks(self):
        c = seeded_cache(12)
        c.hold_prefix([0, 1, 2, 3])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3]
        c.hold_prefix(np.arange(4, 12))
        assert c.layer_view(0)[2].tolist() == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_restored_rows_are_the_source_rows(self):
        source = make_cache(n_layers=3)
        append_tokens(source, list(range(15)))
        c = DraftCache(source, 2, 12, RetrievalPolicy(4, 2, 1))
        assert c.archive_len == 2 and c.world_len == 14  # generated rows 12 and 13
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
        assert c.world_len == 12  # the source's last row, not the held rows

    def test_the_source_must_hold_the_prefix_and_the_root(self):
        # An unseeded cache's rows are positions 0 .. archive_len - 1, so a
        # source holds a prefix and the root after it exactly when it holds
        # one row more.
        source = make_cache(n_layers=3)
        append_tokens(source, [0, 1, 2, 3, 4])
        draft = DraftCache(source, 2, 4, FullPolicy())
        assert draft.world_len == 4 and draft.prefix_len == 4
        with pytest.raises(OrderingError, match="0 .. 5"):  # the root is not held
            DraftCache(source, 2, 5, FullPolicy())
        with pytest.raises(OrderingError):  # past the held rows
            DraftCache(source, 2, 6, FullPolicy())
        with pytest.raises(OrderingError):  # a draft's rows are not its positions
            DraftCache(draft, 1, 2, FullPolicy())

    def test_the_source_must_still_hold_the_prefix(self):
        # The target may drop its last prompt row, never the draft's prefix,
        # nor a committed row the draft reads in place.
        source = make_cache(n_layers=3)
        append_tokens(source, list(range(12)))
        c = DraftCache(source, 2, 11, RetrievalPolicy(1, 11, 1))
        source.truncate(11)
        c.hold_prefix(np.arange(11))
        source.truncate(10)
        with pytest.raises(StateError, match="no longer holds positions 0 .. 10"):
            c.hold_prefix(np.arange(4))
        with pytest.raises(OrderingError):  # row 10 can only be position 10
            append_tokens(source, [12])
        assert c.layer_view(0)[2].tolist() == list(range(11))

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
        # The reserved store rows hold the gathered rows only.
        source = make_cache()
        append_tokens(source, list(range(13)))
        c = DraftCache(source, 2, 12, RetrievalPolicy(3, 2, 1))
        with pytest.raises(CapacityError):
            c.hold_prefix(np.arange(7))
        c.hold_prefix(np.arange(6))
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5]


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

    def seeded(self, policy):
        source = KVCache(3, self.HEADS, self.D_HEAD, capacity=self.N + 1)
        append_tokens(source, list(range(self.N + 1)))
        return source, DraftCache(source, 2, self.N, policy)

    def assert_source_rows(self, c, source):
        for li in range(2):
            k, v, pos = c.layer_view(li)
            sk, sv, _ = source.layer_view(li)
            assert np.array_equal(k, sk[:, pos]) and np.array_equal(v, sv[:, pos])

    def test_hold_prefix_gathers_one_head_at_a_time(self):
        # Every prefix row but the first: a gather into the store.
        source, c = self.seeded(RetrievalPolicy(1, self.N, 1))
        assert self.peak_bytes(lambda: c.hold_prefix(np.arange(1, self.N))) < self.LAYER_ROWS / 8
        assert len(c.layer_parts(0)) == 1  # the gathered rows, read in no run
        self.assert_source_rows(c, source)

    def test_a_whole_prefix_is_read_in_place(self):
        source, c = self.seeded(StreamingPolicy(4, self.N - 50))
        runs = [(0, 4), (50, self.N)]  # its sink and window, before the root
        assert self.peak_bytes(lambda: c.layer_parts(1)) < self.LAYER_ROWS / 8
        sk, sv, _ = source.layer_view(1)
        (gk, gv), *parts = c.layer_parts(1)
        assert gk.shape[1] == gv.shape[1] == 0  # nothing gathered
        assert len(parts) == len(runs)
        for (k, v), (lo, hi) in zip(parts, runs):
            assert np.shares_memory(k, sk) and np.shares_memory(v, sv)
            assert np.array_equal(k, sk[:, lo:hi]) and np.array_equal(v, sv[:, lo:hi])
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3] + list(range(50, self.N))
        self.assert_source_rows(c, source)


def test_layer_view_tracks_every_mutation():
    # Each row holds its own position, so a view is right exactly when its
    # rows read back the held positions. ``held`` models the held rows: first
    # of a cache that appends and truncates, then of drafts', which gather
    # prompt rows and read source runs in place as the source commits rows.
    rng = np.random.default_rng(5)

    def rows_for(pos, n_layers):
        rows = [np.broadcast_to((pos + li)[:, None, None], (len(pos), 2, 4))
                for li in range(n_layers)]
        return rows, [-r for r in rows]

    def check(c, held, world):
        assert c.world_len == world
        for li in range(2):
            k, v, pos = c.layer_view(li)
            assert pos.tolist() == held
            assert np.array_equal(k[0, :, 0], pos + li)
            assert np.array_equal(v[1, :, 3], -(pos + li))

    t = KVCache(2, 2, 4, capacity=400)
    held: list[int] = []
    for _ in range(300):
        if rng.integers(2) or not held:
            # The next positions, or a block that skips, repeats or reorders.
            n = int(rng.integers(1, 6))
            pos = np.arange(len(held), len(held) + n)
            bad = rng.integers(4) == 0
            if bad:
                pos = [pos + 1, pos - 1, pos[::-1], np.r_[pos, pos[-1]]][rng.integers(4)]
            if bad and not np.array_equal(pos, np.arange(len(held), len(held) + len(pos))):
                with pytest.raises(OrderingError):
                    t.append(*rows_for(pos, 2), pos)
            else:
                t.append(*rows_for(pos, 2), pos)
                held.extend(pos.tolist())
        else:
            w = int(rng.integers(max(0, len(held) - 6), len(held) + 2))
            t.truncate(w)
            held[:] = held[:w]
        check(t, held, len(held))

    # A draft follows its source, which only commits rows, as in a session.
    source = KVCache(3, 2, 4, capacity=400)
    source.append(*rows_for(np.arange(41), 3), np.arange(41))
    policies = [FullPolicy(), RetrievalPolicy(4, 10, 1), StreamingPolicy(0, 20),
                StreamingPolicy(3, 29)]
    drafts = [DraftCache(source, 2, 40, policy) for policy in policies]
    gathered: list[list[int]] = [[] for _ in drafts]
    for _ in range(300):
        op, i = rng.integers(2), int(rng.integers(len(drafts)))
        c, policy = drafts[i], policies[i]
        world = source.archive_len - 1
        if op == 0 and source.archive_len < 395:
            pos = np.arange(world + 1, world + 1 + int(rng.integers(1, 6)))
            source.append(*rows_for(pos, 3), pos)
        elif op == 1:
            chunks = np.flatnonzero(rng.random(10) < rng.choice([0.0, 0.1, 0.4]))
            rows = chunk_rows(chunks, 4, 40, int(rng.integers(0, 3))).tolist()
            if len(rows) > policy.prefix_rows(40):
                with pytest.raises(CapacityError):
                    c.hold_prefix(rows)
            else:
                c.hold_prefix(rows)
                gathered[i] = rows
        world = source.archive_len - 1
        for c, policy, rows in zip(drafts, policies, gathered):
            read = [p for lo, hi in policy.in_place(40, world) for p in range(lo, hi)]
            check(c, rows + read, world)


@pytest.mark.parametrize("policy", [FullPolicy(), StreamingPolicy(2, 5),
                                    RetrievalPolicy(4, 2, 1)], ids=lambda p: type(p).__name__)
def test_a_draft_follows_its_source_without_a_call(policy):
    # The source commits rows and nothing touches the draft: it reads what
    # its policy names before the source's last row, its root.
    source = make_cache(n_layers=3)
    append_tokens(source, list(range(13)))
    c = DraftCache(source, 2, 12, policy)
    gathered = [4, 5, 6, 7] if isinstance(policy, RetrievalPolicy) else []
    c.hold_prefix(gathered)
    for block in (1, 3, 5, 1):
        n = source.archive_len
        append_tokens(source, list(range(n, n + block)))
        root = source.archive_len - 1
        want = gathered + [p for lo, hi in policy.in_place(12, root) for p in range(lo, hi)]
        assert (c.world_len, c.archive_len) == (root, len(want))
        for li in range(2):
            k, v, pos = c.layer_view(li)
            sk, sv, _ = source.layer_view(li)
            assert pos.tolist() == want
            assert np.array_equal(k, sk[:, want]) and np.array_equal(v, sv[:, want])


@pytest.mark.parametrize("policy", [FullPolicy(), StreamingPolicy(0, 20), StreamingPolicy(3, 29),
                                    RetrievalPolicy(4, 5, 1, sink=2)],
                         ids=lambda p: type(p).__name__)
def test_a_draft_view_stays_bounded_and_in_position_order(policy):
    # A draft stores at most the prompt rows its policy gathers (none for a
    # full or streaming draft), and only a retrieval policy's runs, which
    # start at the prefix's end, read in place behind them. So a larger
    # gather is refused and leaves the view as it was, and the held positions
    # strictly ascend after any gather and any rollback of the source.
    rng = np.random.default_rng(11)
    source = make_cache(n_layers=3)
    append_tokens(source, list(range(41)))
    c = DraftCache(source, 2, 40, policy)
    bound = policy.prefix_rows(40)

    def check():
        pos = c.layer_view(0)[2]
        assert np.all(np.diff(pos) > 0) and c.archive_len == pos.size
        assert c.world_len == source.archive_len - 1

    for _ in range(100):
        n = source.archive_len  # commit rows until the source holds the prefix and a root
        hi = min(max(n, 41) + int(rng.integers(0, 8)), 60)
        if hi > n:
            append_tokens(source, list(range(n, hi)))
        rows = np.flatnonzero(rng.random(40) < rng.choice([0.0, 0.05, 0.3, 0.9]))
        if len(rows) > bound:
            before = c.layer_view(1)
            with pytest.raises(CapacityError):
                c.hold_prefix(rows)
            assert all(np.array_equal(a, b) for a, b in zip(before, c.layer_view(1)))
        else:
            c.hold_prefix(rows)
        check()
        source.truncate(int(rng.integers(0, source.archive_len + 1)))
        check()


def test_each_cache_has_only_its_roles_methods():
    # The target's store commits and rolls back rows; a draft's view of it
    # gathers prompt rows and does neither.
    assert not {"append", "truncate"} & set(dir(DraftCache))
    assert not {"hold_prefix", "prefix_len", "generation_boundary"} & set(dir(KVCache))


class TestTruncate:
    def test_rollback_by_position(self):
        c = make_cache()
        append_tokens(c, list(range(9)))
        c.truncate(6)
        assert c.layer_view(0)[2].tolist() == [0, 1, 2, 3, 4, 5] and c.world_len == 6
        c.truncate(8)  # past the held rows: nothing to drop
        assert c.archive_len == c.world_len == 6
        c.truncate(-3)  # before the first row: every row
        assert c.archive_len == c.world_len == 0

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
