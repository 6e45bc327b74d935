import numpy as np
import pytest

from specdesk.cache import KVCache, RetrievalPolicy, StreamingPolicy
from specdesk.errors import OrderingError, ParameterError


def make_cache(n_layers=2, n_heads=2, d_head=4):
    return KVCache(n_layers, n_heads, d_head)


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
        assert c.length == 1
        assert c.pos_ids.tolist() == [0]

    def test_blocks(self):
        c = make_cache()
        append_tokens(c, [0, 1, 2])
        append_tokens(c, [3, 4])
        assert c.length == 5
        assert c.pos_ids.tolist() == [0, 1, 2, 3, 4]

    def test_grows_past_reserved_capacity(self):
        c = KVCache(2, 2, 4, capacity=3)
        append_tokens(c, [0, 1])
        append_tokens(c, [2, 3, 4, 5, 6])
        assert c.pos_ids.tolist() == list(range(7))
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
        assert c.pos_ids.tolist() == [0, 1, 2, 2, 3]

    def test_committed_positions_strictly_increase(self):
        c = make_cache()
        append_tokens(c, list(range(10)))
        pos = c.pos_ids
        assert np.all(np.diff(pos) > 0)


class TestStreaming:
    def test_sink_and_recent(self):
        c = make_cache()
        append_tokens(c, list(range(10)))
        c.evict_streaming(sink=2, recent=3)
        assert c.pos_ids.tolist() == [0, 1, 7, 8, 9]

    def test_noop_when_small(self):
        c = make_cache()
        append_tokens(c, list(range(4)))
        c.evict_streaming(sink=2, recent=3)
        assert c.length == 4

    def test_zero_sink(self):
        c = make_cache()
        append_tokens(c, list(range(5)))
        c.evict_streaming(sink=0, recent=1)
        assert c.pos_ids.tolist() == [4]

    def test_original_positions_preserved(self):
        c = make_cache()
        append_tokens(c, list(range(20)))
        c.evict_streaming(sink=1, recent=4)
        assert c.pos_ids.tolist() == [0, 16, 17, 18, 19]


class TestRetrievalRebuild:
    def test_basic_selection(self):
        c = make_cache()
        append_tokens(c, list(range(12)))
        c.seal_prefix()
        c.rebuild_retrieval([0, 2], chunk_size=4)
        assert c.pos_ids.tolist() == [0, 1, 2, 3, 8, 9, 10, 11]

    def test_select_all_is_identity(self):
        c = make_cache()
        append_tokens(c, list(range(12)))
        c.seal_prefix()
        c.rebuild_retrieval([0, 1, 2], chunk_size=4)
        assert c.pos_ids.tolist() == list(range(12))

    def test_partial_trailing_chunk(self):
        c = make_cache()
        append_tokens(c, list(range(10)))
        c.seal_prefix()
        c.rebuild_retrieval([2], chunk_size=4)
        assert c.pos_ids.tolist() == [8, 9]

    def test_out_of_range_chunk(self):
        c = make_cache()
        append_tokens(c, list(range(10)))
        c.seal_prefix()
        with pytest.raises(ParameterError):
            c.rebuild_retrieval([3], chunk_size=4)

    def test_suffix_always_survives(self):
        c = make_cache()
        append_tokens(c, list(range(12)))
        c.seal_prefix()
        append_tokens(c, [12, 13, 14])  # generated
        c.rebuild_retrieval([1], chunk_size=4)
        assert c.pos_ids.tolist() == [4, 5, 6, 7, 12, 13, 14]
        assert c.generation_boundary == 4

    def test_rebuild_can_restore_dropped_chunks(self):
        c = make_cache()
        append_tokens(c, list(range(12)))
        c.seal_prefix()
        c.rebuild_retrieval([0], chunk_size=4)
        assert c.pos_ids.tolist() == [0, 1, 2, 3]
        c.rebuild_retrieval([1, 2], chunk_size=4)
        assert c.pos_ids.tolist() == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_idempotent(self):
        c = make_cache()
        append_tokens(c, list(range(16)))
        c.seal_prefix()
        c.rebuild_retrieval([1, 3], chunk_size=4)
        before = c.pos_ids.tolist()
        c.rebuild_retrieval([1, 3], chunk_size=4)
        assert c.pos_ids.tolist() == before

    def test_optional_sink(self):
        c = make_cache()
        append_tokens(c, list(range(12)))
        c.seal_prefix()
        c.rebuild_retrieval([2], chunk_size=4, sink=2)
        assert c.pos_ids.tolist() == [0, 1, 8, 9, 10, 11]

    def test_layers_consistent(self):
        c = make_cache(n_layers=3)
        append_tokens(c, list(range(12)))
        c.seal_prefix()
        c.rebuild_retrieval([1], chunk_size=4)
        views = [c.layer_view(li) for li in range(3)]
        for k, v, pos in views:
            assert k.shape[0] == 4
            assert pos.tolist() == [4, 5, 6, 7]


def test_layer_view_tracks_every_mutation():
    # Each row holds its own position, so a view is right exactly when its
    # rows read back the live positions.
    rng = np.random.default_rng(5)
    c = make_cache()

    def append(n):
        pos = np.arange(c.world_len, c.world_len + n)
        rows = [np.broadcast_to((pos + li)[:, None, None], (n, 2, 4)) for li in range(2)]
        c.append(rows, [-r for r in rows], pos)

    append(40)
    c.seal_prefix()
    for _ in range(300):
        op = rng.integers(4)
        if op == 0:
            append(int(rng.integers(1, 6)))
        elif op == 1:
            c.truncate(int(rng.integers(max(40, c.world_len - 6), c.world_len + 1)))
        elif op == 2:
            c.evict_streaming(int(rng.integers(0, 4)), int(rng.integers(1, 30)))
        else:
            chunks = np.flatnonzero(rng.random(10) < 0.4)
            c.rebuild_retrieval(chunks, chunk_size=4, sink=int(rng.integers(0, 3)))
        for li in range(2):
            k, v, pos = c.layer_view(li)
            assert pos.tolist() == c.pos_ids.tolist()
            assert np.array_equal(k[:, 0, 0], pos + li)
            assert np.array_equal(v[:, 1, 3], -(pos + li))


class TestTruncate:
    def test_rollback_by_position(self):
        c = make_cache()
        append_tokens(c, list(range(6)))
        append_tokens(c, [6, 6, 7])  # speculative tree rows
        c.truncate(6)
        assert c.pos_ids.tolist() == [0, 1, 2, 3, 4, 5]

    def test_truncate_then_reappend(self):
        c = make_cache()
        append_tokens(c, list(range(4)))
        c.truncate(2)
        append_tokens(c, [2, 3, 4])
        assert c.pos_ids.tolist() == [0, 1, 2, 3, 4]


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
