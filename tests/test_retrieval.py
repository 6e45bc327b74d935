import numpy as np
import pytest

from specdesk.cache import KVCache, RetrievalPolicy
from specdesk.errors import ParameterError, StateError
from specdesk.retrieval import RetrievalState, chunk_scores, maybe_update, select_top_k
from specdesk.tensor import Rng


class TestChunkScores:
    def test_uniform(self):
        s = np.full(8, 1.0 / 8.0)
        assert np.allclose(chunk_scores(s, 4), [1.0 / 8.0, 1.0 / 8.0])

    def test_mass_in_second_chunk(self):
        s = np.zeros(8)
        s[4:] = 0.25
        assert np.allclose(chunk_scores(s, 4), [0.0, 0.25])

    def test_brute_force_means(self):
        # Oracle: explicit per-chunk loop.
        rng = np.random.default_rng(5)
        s = rng.random(100)
        got = chunk_scores(s, 32)
        expected = []
        for start in range(0, 100, 32):
            block = s[start:start + 32]
            expected.append(sum(block) / len(block))
        assert np.allclose(got, expected, atol=0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            chunk_scores(np.array([]), 4)


class TestSelectTopK:
    def test_tie_breaks_low_index(self):
        assert select_top_k(np.array([0.1, 0.4, 0.4, 0.1]), 1).tolist() == [1]

    def test_saturation(self):
        assert select_top_k(np.array([0.3, 0.7]), 5).tolist() == [0, 1]

    def test_argsort_oracle(self):
        # Oracle: stable argsort on (-score, index).
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            scores = rng.integers(0, 5, n).astype(float)  # many ties
            k = int(rng.integers(1, 6))
            got = select_top_k(scores, k).tolist()
            ranked = sorted(range(n), key=lambda i: (-scores[i], i))[:min(k, n)]
            assert got == sorted(ranked)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(3)
        scores = rng.random(12)
        perm = rng.permutation(12)
        sel = set(select_top_k(scores, 4).tolist())
        sel_perm = set(select_top_k(scores[perm], 4).tolist())
        assert {int(perm[i]) for i in sel_perm} == sel


def _cache_with_prefix(n):
    source = KVCache(1, 1, 2, capacity=n)
    source.append([np.zeros((n, 1, 2))], [np.zeros((n, 1, 2))], np.arange(n))
    return KVCache.seeded(source, 1, n, capacity=n)


class TestMaybeUpdate:
    def test_frequency_one_updates_every_step(self):
        c = _cache_with_prefix(16)
        st = RetrievalState(chunk_size=4, top_k=2, frequency=1)
        s = np.full(16, 1 / 16)
        assert all(maybe_update(st, s, c) for _ in range(5))

    def test_frequency_four_updates_on_steps_1_5_9(self):
        c = _cache_with_prefix(16)
        st = RetrievalState(chunk_size=4, top_k=2, frequency=4)
        s = np.full(16, 1 / 16)
        fired = [maybe_update(st, s, c) for _ in range(12)]
        assert fired == [True, False, False, False,
                         True, False, False, False,
                         True, False, False, False]
        assert 0 <= st.steps_since_update < st.frequency

    def test_idempotent_selection(self):
        c = _cache_with_prefix(16)
        st = RetrievalState(chunk_size=4, top_k=2, frequency=1)
        s = np.array([0.0] * 4 + [0.5] * 4 + [0.0] * 4 + [0.5] * 4) / 4
        maybe_update(st, s, c)
        first = c.pos_ids.tolist()
        maybe_update(st, s, c)
        assert c.pos_ids.tolist() == first == list(range(4, 8)) + list(range(12, 16))

    def test_missing_scores_is_state_error(self):
        c = _cache_with_prefix(8)
        st = RetrievalState(chunk_size=4, top_k=1, frequency=1)
        with pytest.raises(StateError):
            maybe_update(st, None, c)

    def test_working_cache_bound(self):
        # Prefix live size after an update never exceeds top_k * chunk_size.
        rng = Rng(4)
        for prefix_len in (100, 1000, 5000):
            c = _cache_with_prefix(prefix_len)
            st = RetrievalState(chunk_size=32, top_k=8, frequency=1)
            s = rng.generator.random(prefix_len)
            s /= s.sum()
            maybe_update(st, s, c)
            assert c.generation_boundary <= 32 * 8

    def test_from_policy(self):
        st = RetrievalState.from_policy(
            RetrievalPolicy(chunk_size=32, top_k=32, frequency=4, sink=3))
        assert (st.chunk_size, st.top_k, st.frequency, st.sink) == (32, 32, 4, 3)
