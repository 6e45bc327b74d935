import dataclasses

import numpy as np
import pytest

from specdesk import attn, engine, retrieval, verification
from specdesk.cache import FullPolicy, KVCache, RetrievalPolicy, StreamingPolicy
from specdesk.drafting import TreeBudget, undecoded
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


def path_nodes(tree, accepted):
    """The nodes of the path that spells ``accepted`` from the root."""
    path = [0]
    for tok in accepted:
        path.append(next(c for c in tree.children_of(path[-1])
                         if tree.nodes[c].token == tok))
    return path[1:]


def ends_without_a_row(tree, accepted):
    """Whether the path that spells ``accepted`` ends at a node the draft
    did not decode."""
    return max(path_nodes(tree, accepted), default=0) > tree.decoded


def record_steps(monkeypatch):
    """Spy on the engine's drafters and verifiers; return the per-step
    roots, draft trees and walks they see."""
    seen = {"roots": [], "trees": [], "walks": []}

    def drafted(fn):
        def draft(spec, weights, cache, root, *args):
            seen["roots"].append(root)
            out = fn(spec, weights, cache, root, *args)
            seen["trees"].append(getattr(out, "tree", out))  # a chain's path tree
            return out
        return draft

    def verified(fn):
        def verify(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen["walks"].append(out.walk)
            return out
        return verify

    for name in ("draft_chain", "draft_tree"):
        monkeypatch.setattr(engine, name, drafted(getattr(engine, name)))
    for name in ("verify_chain", "verify_tree"):
        monkeypatch.setattr(engine, name, verified(getattr(engine, name)))
    return seen


class TestDraftCacheInvariant:
    """One rule for chains and trees: a drafter never decodes a leaf it does
    not expand, and after every step the draft drops its tree and reads the
    committed rows before the new root from the target, so the next pending
    block is that root alone. The target holds the committed rows only."""

    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    @pytest.mark.parametrize("hta_chunk", [None, 5])
    def test_full_tree_draft_holds_all_but_the_pending_block(self, monkeypatch,
                                                             temperature, hta_chunk):
        seen = record_steps(monkeypatch)
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, FullPolicy(), drafting="tree",
                             temperature=temperature, seed=3, hta_chunk=hta_chunk,
                             budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        assert sum(s.accepted for s in result.steps) > 0
        assert min(s.tree_nodes for s in result.steps) >= 5  # the depth-4 chain at least
        generated, short = 0, []
        for s, held, tree, walk in zip(result.steps, result.draft_cache_len_by_step,
                                       seen["trees"], seen["walks"]):
            generated += s.accepted + 1
            short.append(ends_without_a_row(tree, walk.accepted))
            assert held == len(PROMPT) - 1 + generated
        assert True in short  # a path that ended at a leaf the draft never decoded

    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        StreamingPolicy(sink=2, recent=6),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_pending_block_size(self, monkeypatch, policy, drafting):
        # The draft decoded its tree's first nodes and no other: the rest
        # are leaves. Whether or not the path ended at such a leaf, the next
        # step's root, its pending block, is the token the step added.
        seen = record_steps(monkeypatch)
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, policy, drafting=drafting, temperature=0.8,
                             seed=3, budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        trees, walks = seen["trees"], seen["walks"]
        assert len(trees) == len(walks) == len(result.steps)
        for tree in trees:
            assert all(not tree.nodes[i].children for i in undecoded(tree))
        assert True in [ends_without_a_row(t, wk.accepted) for t, wk in zip(trees, walks)]
        assert seen["roots"][0] == PROMPT[-1]
        for root, walk in zip(seen["roots"][1:], walks):
            assert root == walk.committed[-1]

    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        StreamingPolicy(sink=2, recent=6),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2, sink=1),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_the_draft_owns_only_its_gathered_rows(self, monkeypatch, policy, drafting):
        # Before every step's drafting and after the run, the draft holds
        # the chunks a retrieval update gathered, then the rows of [0, R) its
        # policy names, read in place in the target's store, R being the
        # root; it owns no other row. The target holds positions 0 .. R at
        # index = position and nothing else.
        caches, selections, checked = {}, [], []

        def check():
            target, draft = caches["target"], caches["draft"]
            root = target.archive_len - 1
            assert target.layer_view(0)[2].tolist() == list(range(root + 1))
            assert target.world_len == root + 1
            gathered = []
            if selections:
                gathered = chunk_rows(selections[-1], policy.chunk_size,
                                      draft.prefix_len, policy.sink).tolist()
            if isinstance(policy, FullPolicy):
                runs = [(0, root)]
            elif isinstance(policy, StreamingPolicy):  # two runs once the window slides
                runs = [(0, policy.sink), (max(policy.sink, root - policy.recent), root)]
            else:  # the generated rows
                runs = [(len(PROMPT) - 1, root)]
            runs = [(lo, hi) for lo, hi in runs if lo < hi]
            read = [p for lo, hi in runs for p in range(lo, hi)]
            assert draft.layer_view(0)[2].tolist() == gathered + read
            assert draft.world_len == root
            for li in range(draft.n_layers):
                parts = draft.layer_parts(li)
                (tk, tv), = target.layer_parts(li)
                own_k, own_v = parts.pop()
                assert own_k.shape[1] == own_v.shape[1] == 0
                if gathered:
                    gk, gv = parts.pop(0)
                    assert gk.shape[1] == len(gathered)
                    assert not np.shares_memory(gk, tk) and not np.shares_memory(gv, tv)
                    assert np.array_equal(gk, tk[:, gathered])
                    assert np.array_equal(gv, tv[:, gathered])
                assert len(parts) == len(runs)
                for (k, v), (lo, hi) in zip(parts, runs):
                    assert np.shares_memory(k, tk) and np.shares_memory(v, tv)
                    assert np.array_equal(k, tk[:, lo:hi]) and np.array_equal(v, tv[:, lo:hi])
            checked.append(root)

        def prefilled(*args, **kwargs):
            out = real_prefill(*args, **kwargs)
            caches["target"], caches["draft"], _ = out
            return out

        def drafted(fn):
            def draft(*args, **kwargs):
                check()
                return fn(*args, **kwargs)
            return draft

        def update(state, row, cache):
            updated = real_update(state, row, cache)
            if updated:
                selections.append(state.last_selection)
            return updated

        real_prefill, real_update = engine.prefill_caches, engine.maybe_update
        monkeypatch.setattr(engine, "prefill_caches", prefilled)
        monkeypatch.setattr(engine, "maybe_update", update)
        for name in ("draft_chain", "draft_tree"):
            monkeypatch.setattr(engine, name, drafted(getattr(engine, name)))
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, policy, drafting=drafting, temperature=0.8,
                             seed=3, budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        check()
        assert len(checked) == len(result.steps) + 1
        assert checked[-1] == len(PROMPT) + sum(s.accepted + 1 for s in result.steps) - 1
        if isinstance(policy, StreamingPolicy):
            assert checked[-1] > 2 + 6  # the window slid


class TestSessionInvariants:
    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        StreamingPolicy(sink=2, recent=6),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_both_caches_after_every_step(self, monkeypatch, policy, drafting, temperature):
        # The target holds exactly the committed positions; the draft is
        # never ahead of them and holds its rows in position order.
        caches, committed, checked = {}, [len(PROMPT)], []

        def check():
            target, draft = caches["target"], caches["draft"]
            assert target.layer_view(0)[2].tolist() == list(range(committed[0]))
            assert draft.world_len <= committed[0]
            assert np.all(np.diff(draft.layer_view(0)[2]) > 0)
            # The draft's prompt rows are the target's, bitwise; a full
            # draft reads them in place.
            held = draft.generation_boundary
            for li in range(draft.n_layers):
                k, v, pos = draft.layer_view(li)
                tk, tv, _ = target.layer_view(li)
                assert np.array_equal(k[:, :held], tk[:, pos[:held]])
                assert np.array_equal(v[:, :held], tv[:, pos[:held]])
            if isinstance(policy, FullPolicy):
                assert np.shares_memory(draft.layer_parts(0)[0][0], target.layer_view(0)[0])
            checked.append(committed[0])

        def spy(fn, role):
            def call(spec, weights, cache, *args, **kwargs):
                caches[role] = cache
                if role == "draft" and "target" in caches:
                    check()  # the previous step's end, after any update
                out = fn(spec, weights, cache, *args, **kwargs)
                if role == "target":
                    committed[0] += len(out.walk.committed)
                return out
            return call

        for name in ("draft_chain", "draft_tree"):
            monkeypatch.setattr(engine, name, spy(getattr(engine, name), "draft"))
        for name in ("verify_chain", "verify_tree"):
            monkeypatch.setattr(engine, name, spy(getattr(engine, name), "target"))
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, policy, drafting=drafting, temperature=temperature,
                             seed=3, budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        check()
        assert len(checked) == len(result.steps)
        assert {s.accepted for s in result.steps} > {0}  # steps that accept nothing too

    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        StreamingPolicy(sink=2, recent=6),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_the_target_decodes_each_committed_token_once(self, monkeypatch, policy,
                                                          drafting):
        # A step that accepts a root child decodes its drafted tokens in the
        # verify pass; every step then decodes only the correction or bonus,
        # with score capture: no committed token's row is decoded twice, the
        # root's included, and a step that accepts nothing decodes one row.
        passes = []
        real = verification.decode_step

        def spy(spec, weights, tokens, cache, **kwargs):
            passes.append((len(tokens), kwargs.get("capture_scores", False)))
            return real(spec, weights, tokens, cache, **kwargs)

        monkeypatch.setattr(verification, "decode_step", spy)
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, policy, drafting=drafting, temperature=0.8,
                             seed=3, budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        steps = result.steps
        verified = sum(s.drafted for s in steps if s.accepted >= 1)
        assert sum(n for n, _ in passes) == verified + len(steps)
        assert [n for n, capture in passes if capture] == [1] * len(steps)
        assert {s.accepted for s in steps} > {0}


class TestBorrowedPrefix:
    # A draft reads its committed rows from the target in place:
    # ``layer_parts`` gives any gathered chunks, the target's runs, then the
    # own rows.
    @pytest.mark.parametrize("policy, parts", [
        # One run of the target until the window slides, then two.
        pytest.param(StreamingPolicy(sink=2, recent=20),
                     lambda seen: seen[0] == 2 and seen[-1] == 3, id="streaming"),
        # A budget that covers every prompt chunk: the gathered chunks, then
        # from the second step one run of generated rows.
        pytest.param(RetrievalPolicy(chunk_size=4, top_k=4, frequency=2),
                     lambda seen: seen[0] == 2 and set(seen[1:]) == {3}, id="retrieval"),
    ])
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    def test_output_matches_target_greedy(self, monkeypatch, policy, parts, drafting):
        seen = []

        def spy(fn):
            def draft(spec, weights, cache, *args, **kwargs):
                seen.append(len(cache.layer_parts(0)))
                return fn(spec, weights, cache, *args, **kwargs)
            return draft

        for name in ("draft_chain", "draft_tree"):
            monkeypatch.setattr(engine, name, spy(getattr(engine, name)))
        spec, w = target_model(seed=11)
        sess = session_for(spec, w, policy, drafting=drafting,
                           budget=TreeBudget(10, 4, 0.5))
        assert sess.run(PROMPT, 48).output_tokens == greedy_reference(spec, w, PROMPT, 48)
        assert seen == sorted(seen) and parts(seen)


class TestChainRollback:
    @pytest.mark.parametrize("policy", [
        FullPolicy(),
        RetrievalPolicy(chunk_size=4, top_k=2, frequency=2),
        StreamingPolicy(sink=2, recent=12),
    ])
    def test_a_chain_session_never_compacts(self, monkeypatch, policy):
        # After every step, rejections included, the target holds the
        # committed positions at index = position and nothing else: no row
        # was dropped or moved, and the draft reads the target again.
        committed, checked = [len(PROMPT)], []

        def verified(spec, weights, cache, *args, **kwargs):
            out = real(spec, weights, cache, *args, **kwargs)
            committed[0] += len(out.walk.committed)
            assert cache.layer_view(0)[2].tolist() == list(range(committed[0]))
            assert cache.archive_len == cache.world_len == committed[0]
            checked.append(committed[0])
            return out

        real = engine.verify_chain
        monkeypatch.setattr(engine, "verify_chain", verified)
        spec, w = target_model(seed=13, n_layers=3)
        result = session_for(spec, w, policy).run(PROMPT, 40)
        assert result.output_tokens == greedy_reference(spec, w, PROMPT, 40)
        assert {s.accepted for s in result.steps} > {0, 4}  # rejections too
        assert len(checked) == len(result.steps)


class TestTargetAppends:
    @pytest.mark.parametrize("drafting", ["chain", "tree"])
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_a_step_appends_its_path_then_its_commit_row(self, monkeypatch, drafting,
                                                         temperature):
        # The verify pass appends nothing to the target; after the walk the
        # target appends the verify pass's rows of the accepted path, then
        # the commit pass appends the correction's or bonus's row. A step
        # that accepts nothing runs no verify pass and appends only that row.
        caches, steps = {}, []
        real_prefill, real_append = engine.prefill_caches, KVCache.append
        real_decode = verification.decode_step

        def prefilled(*args, **kwargs):
            out = real_prefill(*args, **kwargs)
            caches["target"] = out[0]
            return out

        def append(cache, ks, vs, positions, tail=0):
            if cache is caches.get("target"):
                steps[-1][2].append(("append", np.asarray(positions).tolist(), ks, vs))
            real_append(cache, ks, vs, positions, tail)

        def decode(spec, weights, tokens, cache, **kwargs):
            out = real_decode(spec, weights, tokens, cache, **kwargs)
            steps[-1][2].append(("commit" if kwargs.get("capture_scores") else "verify", out))
            return out

        def verified(fn):
            def verify(spec, weights, cache, draft, *args, **kwargs):
                steps.append([getattr(draft, "tree", draft), None, []])
                out = fn(spec, weights, cache, draft, *args, **kwargs)
                steps[-1][1] = out.walk
                return out
            return verify

        monkeypatch.setattr(engine, "prefill_caches", prefilled)
        monkeypatch.setattr(KVCache, "append", append)
        monkeypatch.setattr(verification, "decode_step", decode)
        for name in ("verify_chain", "verify_tree"):
            monkeypatch.setattr(engine, name, verified(getattr(engine, name)))
        spec, w = target_model(seed=13, n_layers=3)
        session_for(spec, w, FullPolicy(), drafting=drafting, temperature=temperature,
                    seed=3, budget=TreeBudget(12, 4, 0.3)).run(PROMPT, 40)
        for tree, walk, events in steps:
            path = path_nodes(tree, walk.accepted)
            root, n = tree.root_pos, len(path)
            if path:
                (kind, verify), *events = events
                assert kind == "verify"  # and no append before it
                (kind, positions, ks, vs), *events = events
                assert kind == "append" and positions == list(range(root + 1, root + n + 1))
                rows = [i - 1 for i in path]  # node i is row i - 1 of the verify block
                for li in range(spec.n_layers):
                    assert np.array_equal(ks[li], verify.ks[li][rows])
                    assert np.array_equal(vs[li], verify.vs[li][rows])
            (kind, positions, ks, vs), (last, commit) = events
            assert kind == "append" and positions == [root + n + 1] and last == "commit"
            assert commit.ks is None  # the commit pass appended its row itself
        assert {len(walk.accepted) for _, walk, _ in steps} > {0}
        if drafting == "tree":
            assert True in [ends_without_a_row(t, wk.accepted) for t, wk, _ in steps]


class TestOneRowPasses:
    # A one-row pass over a full draft's borrowed and own rows, as a chain
    # step, a tree node after a decoded tail, or a commit with score capture.
    @pytest.mark.parametrize("shape", ["chain", "tree-tail", "commit"])
    def test_matches_one_softmax_over_the_layer_view(self, monkeypatch, shape):
        spec, w = target_model(seed=5, n_layers=3)
        dspec, dw = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(5).integers(0, 19, 300))
        _, draft, _ = prefill_caches(spec, w, dspec, prompt, capacity=340, max_nodes=5)
        n = len(prompt) - 1
        decode_step(dspec, dw, [1, 2, 3, 4], draft, positions=np.arange(n, n + 4))
        # The tree node at n + 3 sees its parent at n + 2, not its sibling.
        tail, mask = (2, np.array([[True, False, True]])) if shape == "tree-tail" else (0, None)
        views = [draft.layer_view(li) for li in range(dspec.n_layers)]
        calls, real = [], attn.attend

        def attend(q, parts, scale, want_probs=False, scores=None):
            out = real(q, parts, scale, want_probs, scores)
            calls.append((q, parts, scale, want_probs, out))
            return out

        monkeypatch.setattr(attn, "attend", attend)
        decode_step(dspec, dw, [5], draft, tree_mask=mask, positions=[n + 3 if tail else n + 4],
                    capture_scores=shape == "commit")
        assert len(calls) == dspec.n_layers
        for (k, v, _), (q, parts, scale, want, (out, probs)) in zip(views, calls):
            assert len(parts) == 3 + bool(tail)  # in place, own, [tail,] new block
            # Every cached head's values are dh contiguous rows in the store.
            assert all(pv.strides[-2] == pv.itemsize for _, pv, _ in parts[:-1])
            seen = np.ones((1, k.shape[1]), dtype=bool)
            if tail:
                seen[:, -tail:] = mask[:, :tail]
            want_out, want_probs = attn.attend_monolithic(
                q, [(k, v, seen), parts[-1]], scale, want)
            assert np.max(np.abs(out - want_out)) < 1e-12
            if want:
                assert np.max(np.abs(probs - want_probs)) < 1e-12
        assert calls[-1][3] == (shape == "commit")


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
            _, seeded, _ = prefill_caches(spec, w, dspec, prompt, capacity=700, max_nodes=8)
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
        # to the rows a full draft reads in place.
        spec, w = target_model(seed=3, n_layers=3)
        dspec, _ = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(3).integers(0, 19, 40))
        policy = RetrievalPolicy(chunk_size=8, top_k=3, frequency=2, sink=sink)
        target, draft, _ = prefill_caches(spec, w, dspec, prompt, 64, policy, max_nodes=8)
        _, full, _ = prefill_caches(spec, w, dspec, prompt, 64, max_nodes=8)
        draft.hold_prefix(chunk_rows([1], 8, draft.prefix_len, sink))
        draft.hold_prefix(chunk_rows([0, 2, 4], 8, draft.prefix_len, sink))
        pos = draft.layer_view(0)[2]
        assert pos.tolist() == sorted(set(range(8)) | set(range(16, 24))
                                      | set(range(32, 39)) | set(range(sink)))
        for li in range(2):
            k, v, _ = draft.layer_view(li)
            tk, tv, tpos = target.layer_view(li)
            fk, fv, _ = full.layer_view(li)
            assert np.array_equal(tpos[pos], pos)
            assert np.array_equal(k, tk[:, pos]) and np.array_equal(v, tv[:, pos])
            assert np.array_equal(k, fk[:, pos]) and np.array_equal(v, fv[:, pos])

    def test_retrieval_draft_holds_no_prompt_rows(self):
        # Seeded empty, a retrieval draft's first rebuild gathers bitwise the
        # target's rows.
        spec, w = target_model(seed=3, n_layers=3)
        dspec, _ = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(3).integers(0, 19, 40))
        policy = RetrievalPolicy(chunk_size=8, top_k=2, frequency=2, sink=3)
        target, empty, _ = prefill_caches(spec, w, dspec, prompt, 64, policy, max_nodes=8)
        assert empty.archive_len == empty.generation_boundary == 0
        assert empty.world_len == empty.prefix_len == 39
        empty.hold_prefix(chunk_rows([1, 2], 8, empty.prefix_len, sink=3))
        pos = empty.layer_view(0)[2]
        assert pos.tolist() == [0, 1, 2] + list(range(8, 24))
        assert empty.generation_boundary == 19
        for li in range(2):
            k, v, _ = empty.layer_view(li)
            tk, tv, _ = target.layer_view(li)
            assert np.array_equal(k, tk[:, pos]) and np.array_equal(v, tv[:, pos])
        # It reserves top_k * chunk_size + sink rows plus a tree of 8 nodes.
        block = [np.zeros((8, 2, 8))] * 2
        empty.append(block, block, np.arange(39, 47))
        with pytest.raises(CapacityError):
            empty.append([a[:1] for a in block], [a[:1] for a in block], [47])

    def test_streaming_draft_holds_only_its_window(self):
        # A streaming draft reads only its sink and recent rows, in place in
        # the target's store.
        spec, w = target_model(seed=3, n_layers=3)
        dspec, _ = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(3).integers(0, 19, 40))
        policy = StreamingPolicy(sink=3, recent=5)
        target, draft, _ = prefill_caches(spec, w, dspec, prompt, 64, policy, max_nodes=8)
        assert draft.layer_view(0)[2].tolist() == [0, 1, 2] + list(range(34, 39))
        assert (draft.world_len, draft.generation_boundary, draft.prefix_len) == (39, 8, 39)
        for li in range(2):
            (sk, sv), (rk, rv), (ok, _) = draft.layer_parts(li)
            tk, tv, _ = target.layer_view(li)
            assert np.shares_memory(sk, tk) and np.shares_memory(rv, tv)
            assert np.array_equal(sk, tk[:, :3]) and np.array_equal(sv, tv[:, :3])
            assert np.array_equal(rk, tk[:, 34:39]) and np.array_equal(rv, tv[:, 34:39])
            assert ok.shape[1] == 0
        # It reserves a tree of 8 nodes and no prompt row.
        block = [np.zeros((8, 2, 8))] * 2
        draft.append(block, block, np.arange(39, 47))
        with pytest.raises(CapacityError):
            draft.append([a[:1] for a in block], [a[:1] for a in block], [47])

    def test_a_full_draft_owns_only_its_generated_rows(self):
        # It reads all 39 prompt rows in place, so its store holds only one
        # step's tree of 24 nodes, its own rows from store row 0, and V
        # dh-major.
        spec, w = target_model(seed=3, n_layers=3)
        dspec, _ = derive_draft(spec, w, 2)
        prompt = list(np.random.default_rng(3).integers(0, 19, 40))
        _, draft, _ = prefill_caches(spec, w, dspec, prompt, capacity=64, max_nodes=24)
        block = [np.ones((24, 2, 8))] * 2
        draft.append(block, block, np.arange(39, 63))
        with pytest.raises(CapacityError):
            draft.append([a[:1] for a in block], [a[:1] for a in block], [63])
        for li in range(2):
            _, (k, v) = draft.layer_parts(li)
            assert k.shape == v.shape == (2, 24, 8)
            assert k.base.shape == (2, 24, 8) and v.base.shape == (2, 8, 24)
            for a in (k, v):
                assert a.__array_interface__["data"] == a.base.__array_interface__["data"]

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
        # append the largest block; an append past the reserved rows would
        # raise CapacityError. Where the last step ends depends on the run,
        # so sweep gen_tokens until some run's last step overshoots it.
        spec, w = target_model(seed=17)
        overshoots = []
        for gen in range(46, 50):
            sess = Session(spec, w, spec, w, policy=policy, drafting=drafting, k=4,
                           budget=TreeBudget(6, 4, 0.5))
            result = sess.run(PROMPT, gen)
            assert result.output_tokens == greedy_reference(spec, w, PROMPT, gen)
            overshoots.append(sum(s.accepted + 1 for s in result.steps) - gen)
        assert max(overshoots) > 0


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

    @pytest.mark.parametrize("bad", [3.7, True, "x", None, float("nan"), -1, 19],
                             ids=["float", "bool", "str", "none", "nan", "neg", "vocab"])
    def test_a_prompt_token_that_is_not_an_id_fails_before_prefill(self, monkeypatch,
                                                                   bad):
        spec, w = target_model()  # vocab 19
        monkeypatch.setattr(engine, "prefill_caches", None)  # not reached
        with pytest.raises(ParameterError, match="prompt tokens must"):
            session_for(spec, w, FullPolicy()).run([*PROMPT[:5], bad, *PROMPT[5:]], 4)

    @pytest.mark.parametrize("bad", [3.7, "4", None, True],
                             ids=["float", "str", "none", "bool"])
    def test_a_gen_tokens_that_is_not_an_int_fails_before_prefill(self, monkeypatch, bad):
        spec, w = target_model()
        monkeypatch.setattr(engine, "prefill_caches", None)  # not reached
        with pytest.raises(ParameterError, match="gen_tokens must be an integer"):
            session_for(spec, w, FullPolicy()).run(PROMPT, bad)

    def test_the_reference_refuses_a_token_outside_the_vocab(self):
        # The embedding would read token -1 as token 18, the last row.
        spec, w = target_model()
        with pytest.raises(ParameterError, match=r"must lie in \[0, 19\)"):
            greedy_reference(spec, w, [*PROMPT, -1], 4)

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
