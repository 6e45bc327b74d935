import dataclasses

import numpy as np
import pytest

from specdesk.cache import FullPolicy, KVCache, RetrievalPolicy, StreamingPolicy
from specdesk.drafting import TreeBudget
from specdesk.engine import Session, greedy_reference, prefill_caches
from specdesk.errors import ParameterError
from specdesk.model import ModelSpec, derive_draft, prefill
from specdesk.modelgen import random_weights


def target_model(seed=0, vocab=19, n_layers=2, max_pos=1024):
    spec = ModelSpec(n_layers=n_layers, n_heads=2, d_model=16, d_head=8,
                     vocab=vocab, max_pos=max_pos)
    return spec, random_weights(spec, seed)


def session_for(spec, w, policy, drafting="chain", temperature=0.0, seed=0,
                draft_layers=None, **kw):
    keep = draft_layers or max(1, spec.n_layers - 1)
    dspec, dw = derive_draft(spec, w, keep)
    return Session(spec, w, dspec, dw, policy=policy, drafting=drafting,
                   temperature=temperature, seed=seed, **kw)


PROMPT = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]


class TestGreedyLosslessness:
    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        StreamingPolicy(sink=2, recent=6),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_output_matches_target_greedy(self, policy, drafting):
        spec, w = target_model(seed=11)
        reference = greedy_reference(spec, w, PROMPT, 48)
        sess = session_for(spec, w, policy, drafting=drafting,
                           budget=TreeBudget(10, 4, 0.5))
        result = sess.run(PROMPT, 48)
        assert result.output_tokens == reference

    def test_full_vs_retrieval_same_output_different_tau(self):
        spec, w = target_model(seed=23, vocab=31)
        full = session_for(spec, w, FullPolicy()).run(PROMPT, 64)
        retr = session_for(
            spec, w, RetrievalPolicy(chunk_size=4, top_k=2, frequency=1)
        ).run(PROMPT, 64)
        assert full.output_tokens == retr.output_tokens

    def test_hta_chunking_preserves_output(self):
        spec, w = target_model(seed=31)
        a = session_for(spec, w, FullPolicy(), hta_chunk=None).run(PROMPT, 32)
        b = session_for(spec, w, FullPolicy(), hta_chunk=5).run(PROMPT, 32)
        assert a.output_tokens == b.output_tokens


class TestSelfDraft:
    def test_tau_exactly_two_with_k1(self):
        # Draft == target, chain k=1, temperature 0: the single draft is
        # always accepted and a bonus follows, so tau == 2 exactly.
        spec, w = target_model(seed=7)
        sess = Session(spec, w, spec, w, policy=FullPolicy(), drafting="chain",
                       k=1, temperature=0.0, seed=0)
        result = sess.run(PROMPT, 40)
        assert all(s.accepted == 1 and s.used_bonus for s in result.steps)
        taus = [s.accepted + 1 for s in result.steps]
        assert np.mean(taus) == 2.0


class TestStochasticRuns:
    def test_sampled_run_is_reproducible(self):
        spec, w = target_model(seed=3)
        a = session_for(spec, w, FullPolicy(), temperature=0.5, seed=12).run(PROMPT, 32)
        b = session_for(spec, w, FullPolicy(), temperature=0.5, seed=12).run(PROMPT, 32)
        assert a.output_tokens == b.output_tokens

    def test_step_reports_consistent(self):
        spec, w = target_model(seed=3)
        result = session_for(spec, w, FullPolicy(), temperature=0.5, seed=4,
                             drafting="tree",
                             budget=TreeBudget(8, 3, 0.4)).run(PROMPT, 32)
        for s in result.steps:
            assert 0 <= s.accepted <= s.drafted
            assert s.tree_nodes <= 8
        committed = sum(s.accepted + 1 for s in result.steps)
        assert committed >= 32


class TestWorkingCacheBound:
    def test_retrieval_prefix_bound_holds(self):
        spec, w = target_model(seed=5, max_pos=2048)
        prompt = list(np.random.default_rng(0).integers(0, 19, 300))
        policy = RetrievalPolicy(chunk_size=8, top_k=4, frequency=2)
        sess = session_for(spec, w, policy)
        result = sess.run(prompt, 40)
        assert result.max_draft_prefix_live <= 8 * 4

    def test_streaming_cache_stays_small(self):
        spec, w = target_model(seed=5, max_pos=2048)
        prompt = list(np.random.default_rng(0).integers(0, 19, 200))
        sess = session_for(spec, w, StreamingPolicy(sink=4, recent=16))
        result = sess.run(prompt, 24)
        assert max(result.draft_cache_len_by_step) <= 4 + 16 + 8


class TestBookkeeping:
    def test_output_trimmed_to_requested_length(self):
        spec, w = target_model(seed=9)
        result = session_for(spec, w, FullPolicy()).run(PROMPT, 33)
        assert len(result.output_tokens) == 33

    def test_phase_times_nonnegative(self):
        spec, w = target_model(seed=9)
        result = session_for(spec, w, FullPolicy()).run(PROMPT, 16)
        for s in result.steps:
            assert s.draft_ms >= 0 and s.verify_ms >= 0 and s.update_ms >= 0
        assert result.prefill_s >= 0
        total_phase = sum(s.draft_ms + s.verify_ms + s.update_ms
                          for s in result.steps) / 1e3 + result.prefill_s
        assert total_phase <= result.wall_s + 1e-6


class TestSeededDraftCache:
    @pytest.mark.parametrize("n_layers", [2, 3, 4])
    def test_matches_a_draft_prefill(self, n_layers):
        # The draft's prompt rows come from the target's prefill; they must
        # equal what a draft prefill of all but the last token would store.
        spec, w = target_model(seed=40 + n_layers, n_layers=n_layers, max_pos=2048)
        prompt = list(np.random.default_rng(n_layers).integers(0, 19, 600))
        drafts = [derive_draft(spec, w, keep) for keep in range(1, n_layers)]
        for dspec, dw in drafts + [(spec, w)]:
            _, seeded, _ = prefill_caches(spec, w, dspec, prompt, capacity=700)
            ref = KVCache(dspec.n_layers, dspec.n_heads, dspec.d_head)
            prefill(dspec, dw, prompt[:-1], ref)
            ref.seal_prefix()
            assert np.array_equal(seeded.pos_ids, ref.pos_ids)
            assert seeded.prefix_len == ref.prefix_len == len(prompt) - 1
            for li in range(dspec.n_layers):
                (k, v, _), (rk, rv, _) = seeded.layer_view(li), ref.layer_view(li)
                assert np.max(np.abs(k - rk)) < 1e-12
                assert np.max(np.abs(v - rv)) < 1e-12

    def test_rejects_a_draft_that_is_not_the_target_prefix(self):
        spec, w = target_model(seed=1, n_layers=3)
        _, other = target_model(seed=2, n_layers=3)
        dspec, dw = derive_draft(spec, w, 2)
        drafts = [
            derive_draft(spec, other, 2),
            (dspec, dataclasses.replace(dw, layers=[dw.layers[0], other.layers[1]])),
            (dspec, dataclasses.replace(dw, embed=dw.embed.copy())),
            (dataclasses.replace(dspec, rope_base=500.0), dw),
        ]
        for bad_spec, bad_w in drafts:
            with pytest.raises(ParameterError, match="derive_draft"):
                Session(spec, w, bad_spec, bad_w, policy=FullPolicy())


class TestCacheSizing:
    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        StreamingPolicy(sink=4, recent=24),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_no_cache_regrows(self, policy, drafting, monkeypatch):
        # A self-draft at temperature 0 accepts most drafted tokens, so steps
        # append the largest block and the last one overshoots gen_tokens.
        def grow(self, need):
            raise AssertionError(f"cache regrew to {need} rows")

        monkeypatch.setattr(KVCache, "_grow", grow)
        spec, w = target_model(seed=17)
        sess = Session(spec, w, spec, w, policy=policy, drafting=drafting, k=4,
                       budget=TreeBudget(6, 4, 0.5))
        result = sess.run(PROMPT, 49)
        assert result.output_tokens == greedy_reference(spec, w, PROMPT, 49)
        assert sum(s.accepted + 1 for s in result.steps) > 49
