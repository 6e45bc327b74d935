import dataclasses

import numpy as np
import pytest

from specdesk import engine, retrieval
from specdesk.cache import FullPolicy, KVCache, RetrievalPolicy, StreamingPolicy
from specdesk.drafting import TreeBudget
from specdesk.engine import Session, greedy_reference, prefill_caches
from specdesk.errors import CapacityError, ParameterError
from specdesk.model import (PREFILL_BLOCK, ModelSpec, decode_step, derive_draft,
                            prefill)
from specdesk.modelgen import random_weights
from specdesk.retrieval import chunk_rows


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

    @pytest.mark.parametrize("policy", [FullPolicy(), StreamingPolicy(sink=2, recent=6)])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_only_retrieval_reads_attention_scores(self, monkeypatch, policy, drafting):
        def unused(*args):
            raise AssertionError("scores extracted for a draft without retrieval")

        monkeypatch.setattr(retrieval, "extract_scores", unused)
        spec, w = target_model(seed=11)
        sess = session_for(spec, w, policy, drafting=drafting, budget=TreeBudget(10, 4, 0.5))
        assert sess.run(PROMPT, 48).output_tokens == greedy_reference(spec, w, PROMPT, 48)

    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_retrieval_reads_scores_only_when_it_updates(self, monkeypatch, drafting):
        calls = []
        real = retrieval.extract_scores
        monkeypatch.setattr(retrieval, "extract_scores",
                            lambda *a: calls.append(a[1]) or real(*a))
        spec, w = target_model(seed=11)
        sess = session_for(spec, w, RetrievalPolicy(chunk_size=4, top_k=2, frequency=3),
                           drafting=drafting, budget=TreeBudget(10, 4, 0.5))
        result = sess.run(PROMPT, 48)
        updates = [s.retrieval_update for s in result.steps]
        assert updates == [i % 3 == 0 for i in range(len(updates))]
        assert calls == [len(PROMPT) - 1] * sum(updates)
        assert result.output_tokens == greedy_reference(spec, w, PROMPT, 48)

    def test_full_vs_retrieval_same_output_different_tau(self):
        spec, w = target_model(seed=23, vocab=31)
        full = session_for(spec, w, FullPolicy()).run(PROMPT, 64)
        retr = session_for(
            spec, w, RetrievalPolicy(chunk_size=4, top_k=2, frequency=1)
        ).run(PROMPT, 64)
        assert full.output_tokens == retr.output_tokens

    def test_hta_chunking_preserves_output(self):
        # The default reads the verify prefix as one part.
        spec, w = target_model(seed=31)
        for drafting in ("chain", "tree"):
            kw = dict(drafting=drafting, budget=TreeBudget(10, 4, 0.5))
            a = session_for(spec, w, FullPolicy(), **kw).run(PROMPT, 32)
            b = session_for(spec, w, FullPolicy(), hta_chunk=5, **kw).run(PROMPT, 32)
            assert a.output_tokens == b.output_tokens
            assert [s.accepted for s in a.steps] == [s.accepted for s in b.steps]


class TestSelfDraft:
    def test_tau_exactly_two_with_k1(self):
        # Draft == target, chain k=1, temperature 0: the single draft is
        # always accepted and a bonus follows, so tau == 2 exactly.
        spec, w = target_model(seed=7)
        sess = Session(spec, w, spec, w, policy=FullPolicy(), drafting="chain",
                       k=1, temperature=0.0, seed=0)
        result = sess.run(PROMPT, 40)
        assert all(s.accepted == 1 for s in result.steps)
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


class TestDraftCacheInvariant:
    """After every tree step the draft holds the committed tokens but the
    last, so the next step's pending block is the one token the step added."""

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    @pytest.mark.parametrize("hta_chunk", [None, 5])
    def test_full_tree_draft_holds_all_but_the_last_commit(self, temperature, hta_chunk):
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, FullPolicy(), drafting="tree",
                             temperature=temperature, seed=3, hta_chunk=hta_chunk,
                             budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        assert sum(s.accepted for s in result.steps) > 0
        assert min(s.tree_nodes for s in result.steps) >= 5  # the depth-4 chain at least
        generated = 0
        for s, held in zip(result.steps, result.draft_cache_len_by_step):
            generated += s.accepted + 1
            assert held == len(PROMPT) - 1 + generated

    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        StreamingPolicy(sink=2, recent=6),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_pending_block_size(self, monkeypatch, policy, drafting):
        # A tree leaves every node's row, so one token is pending: the draft
        # is neither ahead of the committed tokens nor more than one behind.
        # A chain never decodes its last drafted token, so after a step that
        # accepts all k it is two behind; it is never ahead.
        pending_lens = []

        def recorded(fn):
            def draft(spec, weights, cache, pending, *args):
                pending_lens.append(len(pending))
                return fn(spec, weights, cache, pending, *args)
            return draft

        for name in ("draft_chain", "draft_tree"):
            monkeypatch.setattr(engine, name, recorded(getattr(engine, name)))
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, policy, drafting=drafting, temperature=0.8,
                             seed=3, budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        if drafting == "tree":
            assert pending_lens == [1] * len(result.steps)
        else:
            all_in = [False] + [s.accepted == s.drafted for s in result.steps[:-1]]
            assert pending_lens == [1 + a for a in all_in] and 2 in pending_lens


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
            ref = KVCache(dspec.n_layers, dspec.n_heads, dspec.d_head, capacity=600)
            prefill(dspec, dw, prompt[:-1], ref)
            assert np.array_equal(seeded.layer_view(0)[2], ref.layer_view(0)[2])
            assert seeded.prefix_len == seeded.generation_boundary == len(prompt) - 1
            for li in range(dspec.n_layers):
                (k, v, _), (rk, rv, _) = seeded.layer_view(li), ref.layer_view(li)
                assert np.max(np.abs(k - rk)) < 1e-12
                assert np.max(np.abs(v - rv)) < 1e-12

    @pytest.mark.parametrize("sink", [0, 3])
    def test_rebuild_restores_the_target_rows(self, sink):
        # Evicted prompt rows come back from the target cache, bitwise equal
        # to the rows the draft held before the eviction.
        spec, w = target_model(seed=3, n_layers=3)
        dspec, _ = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(3).integers(0, 19, 40))
        target, draft, _ = prefill_caches(spec, w, dspec, prompt, capacity=64)
        before = [[a.copy() for a in draft.layer_view(li)[:2]] for li in range(2)]
        draft.hold_prefix(chunk_rows([1], 8, draft.prefix_len, sink))
        draft.hold_prefix(chunk_rows([0, 2, 4], 8, draft.prefix_len, sink))
        pos = draft.layer_view(0)[2]
        assert pos.tolist() == sorted(set(range(8)) | set(range(16, 24))
                                      | set(range(32, 39)) | set(range(sink)))
        for li in range(2):
            k, v, _ = draft.layer_view(li)
            tk, tv, tpos = target.layer_view(li)
            assert np.array_equal(tpos[pos], pos)
            assert np.array_equal(k, tk[pos]) and np.array_equal(v, tv[pos])
            assert np.array_equal(k, before[li][0][pos])
            assert np.array_equal(v, before[li][1][pos])

    def test_retrieval_draft_holds_no_prompt_rows(self):
        # Seeded empty, a retrieval draft's first rebuild gathers bitwise the
        # rows a draft seeded with a copy of the prompt rows would hold.
        spec, w = target_model(seed=3, n_layers=3)
        dspec, _ = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(3).integers(0, 19, 40))
        policy = RetrievalPolicy(chunk_size=8, top_k=2, frequency=2, sink=3)
        target, empty, _ = prefill_caches(spec, w, dspec, prompt, 64, policy)
        _, copied, _ = prefill_caches(spec, w, dspec, prompt, 64)
        assert empty.archive_len == empty.generation_boundary == 0
        assert empty.world_len == copied.world_len == empty.prefix_len == 39
        for cache in (empty, copied):
            cache.hold_prefix(chunk_rows([1, 2], 8, cache.prefix_len, sink=3))
        pos = empty.layer_view(0)[2]
        assert pos.tolist() == [0, 1, 2] + list(range(8, 24))
        assert np.array_equal(pos, copied.layer_view(0)[2])
        assert empty.generation_boundary == copied.generation_boundary == 19
        for li in range(2):
            (k, v, _), (ck, cv, _) = empty.layer_view(li), copied.layer_view(li)
            tk, tv, _ = target.layer_view(li)
            assert np.array_equal(k, tk[pos]) and np.array_equal(v, tv[pos])
            assert np.array_equal(k, ck) and np.array_equal(v, cv)
        # It reserves top_k * chunk_size + sink rows plus the target's
        # 64 - 40 rows of generation room.
        block = [np.zeros((24, 2, 8))] * 2
        empty.append(block, block, np.arange(39, 63))
        with pytest.raises(CapacityError):
            empty.append([a[:1] for a in block], [a[:1] for a in block], [63])

    def test_streaming_draft_holds_only_its_window(self):
        # A streaming draft reads only its sink and recent rows from the
        # target: bitwise the rows that a copy of every prompt row followed
        # by the engine's eviction after a step holds.
        spec, w = target_model(seed=3, n_layers=3)
        dspec, _ = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(3).integers(0, 19, 40))
        policy = StreamingPolicy(sink=3, recent=5)
        target, draft, _ = prefill_caches(spec, w, dspec, prompt, 64, policy)
        views = [target.layer_view(li) for li in range(2)]
        ref = KVCache(2, spec.n_heads, spec.d_head, capacity=64)
        ref.append([k[:39] for k, _, _ in views], [v[:39] for _, v, _ in views],
                   np.arange(39))
        ref.keep(policy.held_rows(ref.archive_len))
        assert (draft.layer_view(0)[2].tolist() == ref.layer_view(0)[2].tolist()
                == [0, 1, 2] + list(range(34, 39)))
        assert (draft.world_len, draft.generation_boundary, draft.prefix_len) == (39, 8, 39)
        for li in range(2):
            (k, v, _), (rk, rv, _) = draft.layer_view(li), ref.layer_view(li)
            assert np.array_equal(k, rk) and np.array_equal(v, rv)
        # It reserves sink + recent rows plus the target's 64 - 40 rows of
        # generation room.
        block = [np.zeros((24, 2, 8))] * 2
        draft.append(block, block, np.arange(39, 63))
        with pytest.raises(CapacityError):
            draft.append([a[:1] for a in block], [a[:1] for a in block], [63])

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
    def test_no_cache_regrows(self, policy, drafting):
        # A self-draft at temperature 0 accepts most drafted tokens, so steps
        # append the largest block and the last one overshoots gen_tokens; an
        # append past the reserved rows would raise CapacityError.
        spec, w = target_model(seed=17)
        sess = Session(spec, w, spec, w, policy=policy, drafting=drafting, k=4,
                       budget=TreeBudget(6, 4, 0.5))
        result = sess.run(PROMPT, 49)
        assert result.output_tokens == greedy_reference(spec, w, PROMPT, 49)
        assert sum(s.accepted + 1 for s in result.steps) > 49


class TestRunBoundary:
    def test_rejects_a_bad_k_or_hta_chunk_before_any_work(self):
        spec, w = target_model()
        with pytest.raises(ParameterError, match="k must be >= 1"):
            session_for(spec, w, FullPolicy(), k=0)
        session_for(spec, w, FullPolicy(), drafting="tree", k=0)  # no chain to draft
        with pytest.raises(ParameterError, match="hta_chunk must be >= 0"):
            session_for(spec, w, FullPolicy(), hta_chunk=-1)
        for hta_chunk in (None, 0):  # both read the verify prefix as one part
            sess = session_for(spec, w, FullPolicy(), hta_chunk=hta_chunk)
            assert sess.run(PROMPT, 8).output_tokens == greedy_reference(spec, w, PROMPT, 8)

    # The last step may start at 16 + gen - 1 committed tokens and commit its
    # deepest draft plus the bonus: k for a chain, 10 for the default tree.
    @pytest.mark.parametrize("drafting, gen, k, position", [
        ("chain", 1024 - 15, 4, 1028),
        ("tree", 1024 - 15, 4, 1034),
        ("chain", 4, 1024 - 15, 1028),
    ], ids=["chain-1009-4", "tree-1009-4", "chain-4-1009"])
    def test_a_run_past_max_pos_fails_before_prefill(self, monkeypatch, drafting, gen, k,
                                                     position):
        spec, w = target_model()  # max_pos 1024
        monkeypatch.setattr(engine, "prefill_caches", None)  # not reached
        sess = session_for(spec, w, FullPolicy(), drafting=drafting, k=k)
        with pytest.raises(CapacityError, match=f"position {position}, past max_pos 1024"):
            sess.run(PROMPT, gen)

    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_the_max_pos_bound_is_the_worst_case(self, monkeypatch, drafting):
        # A self-draft at temperature 0 commits 5 tokens a step (k = 4, or a
        # tree 4 deep), so with gen 46 the last step starts at 16 + 45 and
        # decodes position 16 + 45 + 4 = 65, the last below max_pos 66.
        spec, w = target_model(seed=17, max_pos=66)
        sess = Session(spec, w, spec, w, policy=FullPolicy(), drafting=drafting, k=4,
                       budget=TreeBudget(6, 4, 0.5))
        result = sess.run(PROMPT, 46)
        assert [s.accepted for s in result.steps] == [4] * 10
        assert result.output_tokens == greedy_reference(spec, w, PROMPT, 46)
        short = dataclasses.replace(spec, max_pos=65)
        monkeypatch.setattr(engine, "prefill_caches", None)  # not reached
        with pytest.raises(CapacityError, match="position 65, past max_pos 65"):
            Session(short, w, short, w, policy=FullPolicy(), drafting=drafting, k=4,
                    budget=TreeBudget(6, 4, 0.5)).run(PROMPT, 46)


class TestGreedyReference:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, PREFILL_BLOCK - 1, PREFILL_BLOCK,
                                   PREFILL_BLOCK + 1, 600])
    def test_matches_a_loop_over_all_row_logits(self, n, n_layers):
        spec, w = target_model(seed=50 + n_layers, n_layers=n_layers)
        prompt = list(np.random.default_rng(n).integers(0, 19, n))
        gen = 12
        cache = KVCache(spec.n_layers, spec.n_heads, spec.d_head, n + gen)
        logits = prefill(spec, w, prompt, cache).logits[-1]
        want = []
        for pos in range(n, n + gen):
            want.append(int(np.argmax(logits)))
            logits = decode_step(spec, w, want[-1:], cache,
                                 positions=np.array([pos])).logits[-1]
        assert greedy_reference(spec, w, prompt, gen) == want
