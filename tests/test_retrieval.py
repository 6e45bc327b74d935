import numpy as np
import pytest

from specdesk.cache import DraftCache, KVCache, RetrievalPolicy
from specdesk.errors import ParameterError, StateError
from specdesk.retrieval import (RetrievalState, chunk_rows, chunk_scores, extract_scores,
                                maybe_update, select_top_k)
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


class TestChunkRows:
    def test_partial_trailing_chunk(self):
        assert chunk_rows([2], 4, 10).tolist() == [8, 9]

    def test_out_of_range_chunk(self):
        with pytest.raises(ParameterError):
            chunk_rows([3], 4, 10)
        with pytest.raises(ParameterError):
            chunk_rows([-1], 4, 10)

    def test_chunks_must_ascend(self):
        for sel in ([1, 0], [1, 1]):
            with pytest.raises(ParameterError):
                chunk_rows(sel, 4, 12)

    def test_optional_sink(self):
        assert chunk_rows([2], 4, 12, sink=2).tolist() == [0, 1, 8, 9, 10, 11]
        assert chunk_rows([], 4, 3, sink=5).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("size", [10, 11, 10**12, 2**63 - 1, 2**63])
    def test_a_chunk_past_the_prefix_is_the_whole_prefix(self, size):
        assert chunk_rows([0], size, 10).tolist() == list(range(10))

    def test_membership_oracle(self):
        # Oracle: a row is held iff its chunk is selected or it is a sink row.
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, size = int(rng.integers(1, 60)), int(rng.integers(1, 9))
            sel = np.flatnonzero(rng.random(-(-n // size)) < 0.4)
            sink = int(rng.integers(0, 5))
            want = [r for r in range(n) if r // size in sel or r < sink]
            assert chunk_rows(sel, size, n, sink).tolist() == want


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


def _cache_with_prefix(n, policy):
    # A draft over an n-row prompt prefix and its root, reserving what
    # ``policy`` gathers.
    source = KVCache(1, 1, 2, capacity=n + 1)
    source.append([np.zeros((n + 1, 1, 2))], [np.zeros((n + 1, 1, 2))], np.arange(n + 1))
    return DraftCache(source, 1, n, policy)


class TestMaybeUpdate:
    def test_frequency_one_updates_every_step(self):
        st = RetrievalState(RetrievalPolicy(chunk_size=4, top_k=2, frequency=1))
        c = _cache_with_prefix(16, st.policy)
        s = np.full(16, 1 / 16)
        assert all(maybe_update(st, s, c) for _ in range(5))

    def test_frequency_four_updates_on_steps_1_5_9(self):
        st = RetrievalState(RetrievalPolicy(chunk_size=4, top_k=2, frequency=4))
        c = _cache_with_prefix(16, st.policy)
        s = np.full(16, 1 / 16)
        fired = [maybe_update(st, s, c) for _ in range(12)]
        assert fired == [True, False, False, False,
                         True, False, False, False,
                         True, False, False, False]
        assert 0 <= st.countdown < st.policy.frequency

    def test_idempotent_selection(self):
        st = RetrievalState(RetrievalPolicy(chunk_size=4, top_k=2, frequency=1))
        c = _cache_with_prefix(16, st.policy)
        s = np.array([0.0] * 4 + [0.5] * 4 + [0.0] * 4 + [0.5] * 4) / 4
        maybe_update(st, s, c)
        first = c.layer_view(0)[2].tolist()
        maybe_update(st, s, c)
        assert c.layer_view(0)[2].tolist() == first == list(range(4, 8)) + list(range(12, 16))

    def test_missing_scores_is_state_error(self):
        st = RetrievalState(RetrievalPolicy(chunk_size=4, top_k=1, frequency=1))
        c = _cache_with_prefix(8, st.policy)
        with pytest.raises(StateError):
            maybe_update(st, None, c)

    def test_a_step_without_an_update_does_not_read_the_row(self):
        st = RetrievalState(RetrievalPolicy(chunk_size=4, top_k=1, frequency=3))
        c = _cache_with_prefix(8, st.policy)
        assert maybe_update(st, np.full(8, 1 / 8), c)
        assert not maybe_update(st, None, c) and not maybe_update(st, None, c)
        with pytest.raises(StateError):
            maybe_update(st, None, c)

    def test_working_cache_bound(self):
        # Prefix live size after an update never exceeds top_k * chunk_size.
        rng = Rng(4)
        for prefix_len in (100, 1000, 5000):
            st = RetrievalState(RetrievalPolicy(chunk_size=32, top_k=8, frequency=1))
            c = _cache_with_prefix(prefix_len, st.policy)
            s = rng.generator.random(prefix_len)
            s /= s.sum()
            maybe_update(st, s, c)
            assert c.generation_boundary <= 32 * 8

    def test_state_holds_a_validated_policy(self):
        policy = RetrievalPolicy(chunk_size=32, top_k=32, frequency=4, sink=3)
        st = RetrievalState(policy)
        assert st.policy is policy and st.chunk_size == 32 and st.last_selection is None
        with pytest.raises(ParameterError):
            RetrievalState(RetrievalPolicy(chunk_size=4, top_k=2, frequency=0))
        for not_a_policy in (None, (4, 2, 1, 0)):
            with pytest.raises(ParameterError):
                RetrievalState(not_a_policy)

    @pytest.mark.parametrize("extra", [0, 7])  # the row may run past the prefix
    @pytest.mark.parametrize("sink", [0, 3])
    def test_a_raw_row_selects_the_top_chunks_of_its_prefix_scores(self, extra, sink):
        rng = np.random.default_rng(11 + extra + sink)
        for n in (1, 5, 16, 37):
            policy = RetrievalPolicy(chunk_size=4, top_k=2, frequency=1, sink=sink)
            st = RetrievalState(policy)
            c = _cache_with_prefix(n, policy)
            row = rng.random((3, n + extra)).mean(axis=0)  # a head-averaged row
            row /= row.sum()
            assert maybe_update(st, row, c)
            want = select_top_k(chunk_scores(extract_scores(row, n), 4), 2)
            assert st.last_selection.tolist() == want.tolist()
            assert c.layer_view(0)[2].tolist() == chunk_rows(want, 4, n, sink).tolist()

    def test_a_row_without_prefix_mass_selects_uniformly(self):
        st = RetrievalState(RetrievalPolicy(chunk_size=4, top_k=2, frequency=1))
        c = _cache_with_prefix(16, st.policy)
        row = np.r_[np.zeros(16), 1.0]  # all mass past the prefix
        assert maybe_update(st, row, c)
        # Uniform scores tie every chunk; ties go to the lower index.
        assert st.last_selection.tolist() == [0, 1]
        assert c.layer_view(0)[2].tolist() == list(range(8))
