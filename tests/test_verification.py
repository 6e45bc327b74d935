from dataclasses import fields

import numpy as np
import pytest

from specdesk import verification
from specdesk.cache import KVCache
from specdesk.drafting import (ChainDraft, DraftTree, TreeBudget, TreeNode,
                               chain_tree, draft_tree)
from specdesk.errors import InternalError, ShapeError, StateError
from specdesk.metrics import natural_divergence
from specdesk.model import ModelSpec, decode_step, next_token_dist, prefill
from specdesk.modelgen import random_weights
from specdesk.retrieval import extract_scores
from specdesk.tensor import Rng, draw, sample_categorical
from specdesk.verification import (LevelRecord, WalkResult, accept_probability,
                                   hybrid_attention, residual_after_reject,
                                   verify_chain, verify_tree, walk_tree)


def small_model(seed=0, vocab=8, n_layers=1):
    spec = ModelSpec(n_layers=n_layers, n_heads=2, d_model=16, d_head=8,
                     vocab=vocab, max_pos=256)
    return spec, random_weights(spec, seed)


def prepped(spec, w, prompt):
    cache = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
    out = prefill(spec, w, prompt, cache)
    return cache, out.logits[-1]


def rand_dist(rng, n, zeros=0):
    x = rng.random(n) + 1e-3
    if zeros:
        x[rng.choice(n, zeros, replace=False)] = 0.0
    return x / x.sum()


def walk_chain(tokens, proposals, rows, root_dist, rng, temperature, logits):
    """The chain walk as it was written before chains became path trees:
    the oracle ``walk_tree`` on a ``chain_tree`` must match bitwise.

    ``rows[i]`` is the target distribution after drafted token i; the bonus
    is sampled from the last row when everything is accepted.
    """
    accepted, levels = [], []
    correction = bonus = None
    q_cur = root_dist
    for i, tok in enumerate(tokens):
        p = accept_probability(q_cur, tok, proposals[i])
        ok = p >= 1.0 if temperature == 0 else rng.uniform() < p
        rec = LevelRecord(target_dist=q_cur, proposal_dist=proposals[i],
                          first_candidate=tok, committed=-1, accepted=ok,
                          draft_logits=logits[i])
        levels.append(rec)
        if ok:
            accepted.append(tok)
            rec.committed = tok
            q_cur = rows[i]
        else:
            residual = residual_after_reject(q_cur, tok, proposals[i])
            correction = draw(residual, rng, temperature)
            rec.committed = correction
            break
    if correction is None:
        bonus = draw(q_cur, rng, temperature)
        levels.append(LevelRecord(target_dist=q_cur, proposal_dist=None,
                                  first_candidate=None, committed=bonus,
                                  accepted=False))
    return WalkResult(accepted, correction, bonus, levels)


def walk_chain_as_tree(tokens, proposals, rows, root_dist, rng, temperature, logits):
    """The same arguments as ``walk_chain``, walked as the chain's path tree."""
    tree = chain_tree(ChainDraft(tokens, proposals, logits), root_pos=0)
    return walk_tree(tree, {0: root_dist, **{i + 1: r for i, r in enumerate(rows)}},
                     rng, temperature)


def same_bits(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


class TestAcceptResidual:
    def test_identical_distributions_always_accept(self):
        rng = np.random.default_rng(0)
        p = rand_dist(rng, 8)
        for tok in range(8):
            assert accept_probability(p, tok, p) == 1.0

    def test_zero_target_mass_rejects(self):
        q = np.array([0.0, 1.0])
        p = np.array([0.6, 0.4])
        assert accept_probability(q, 0, p) == 0.0
        residual = residual_after_reject(q, 0, p)
        # max(q - p, 0) renormalized: all mass on token 1.
        assert np.allclose(residual, [0.0, 1.0])

    def test_zero_proposal_probability_is_internal_error(self):
        q = np.array([0.5, 0.5])
        p = np.array([1.0, 0.0])
        with pytest.raises(InternalError):
            accept_probability(q, 1, p)

    def test_point_mass_residual_removes_token(self):
        q = np.array([0.2, 0.3, 0.5])
        r = residual_after_reject(q, 2, None)
        assert np.allclose(r, [0.4, 0.6, 0.0])


class TestChainLosslessnessAnalytic:
    """Enumerate every accept/reject branch; the committed-token marginal
    must reproduce the target distribution at machine precision."""

    def committed_marginal(self, p, q):
        vocab = len(p)
        out = np.zeros(vocab)
        reject_total = 0.0
        for tok in range(vocab):
            if p[tok] == 0:
                continue
            acc = accept_probability(q, tok, p)
            out[tok] += p[tok] * acc
            if acc < 1.0:
                residual = residual_after_reject(q, tok, p)
                out += p[tok] * (1.0 - acc) * residual
                reject_total += p[tok] * (1.0 - acc)
        return out

    def test_vocab8_random_pairs(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            p = rand_dist(rng, 8, zeros=trial % 3)
            q = rand_dist(rng, 8, zeros=(trial + 1) % 3)
            marginal = self.committed_marginal(p, q)
            assert np.max(np.abs(marginal - q)) < 1e-12

    def test_monte_carlo_chain_first_token(self):
        # Candidate drawn from p, one walk level: the committed token must
        # be distributed as q.
        rng_np = np.random.default_rng(7)
        p = rand_dist(rng_np, 8)
        q = rand_dist(rng_np, 8)
        next_row = rand_dist(rng_np, 8)
        rng = Rng(99)
        counts = np.zeros(8)
        trials = 100_000
        for _ in range(trials):
            tok = sample_categorical(p, rng)
            walk = walk_chain_as_tree([tok], [p], [next_row], q, rng, 0.5, [p])
            first = walk.accepted[0] if walk.accepted else walk.correction
            counts[first] += 1
        tv = 0.5 * np.abs(counts / trials - q).sum()
        assert tv <= 0.01


class TestChainVerification:
    def test_all_accepted_with_equal_dists(self):
        # Self-draft: p == q at temperature 0 means everything is accepted
        # and a bonus token is sampled.
        spec, w = small_model(seed=3)
        prompt = [1, 2, 3]
        cache, last_logits = prepped(spec, w, prompt)
        root = next_token_dist(last_logits, 0.0)
        c2 = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
        logits = prefill(spec, w, prompt, c2).logits[-1]
        toks, dists, logs = [], [], []
        pos = len(prompt)
        from specdesk.model import decode_step

        for _ in range(3):
            tok = int(np.argmax(logits))
            toks.append(tok)
            dists.append(next_token_dist(logits, 0.0))
            logs.append(logits)
            logits = decode_step(spec, w, [tok], c2,
                                 positions=np.array([pos])).logits[-1]
            pos += 1
        draft = ChainDraft(tokens=toks, dists=dists, logits=logs)
        out = verify_chain(spec, w, cache, draft, root, Rng(0), 0.0)
        assert len(out.walk.accepted) == 3
        assert out.walk.bonus is not None and out.walk.correction is None
        # Cache rolled forward to committed tokens only.
        assert cache.layer_view(0)[2].tolist() == list(range(len(prompt) + 4))

    def test_rejection_yields_correction(self):
        spec, w = small_model(seed=5)
        prompt = [4, 1, 0]
        cache, last_logits = prepped(spec, w, prompt)
        root = next_token_dist(last_logits, 0.0)
        wrong = (int(np.argmax(last_logits)) + 1) % spec.vocab
        draft = ChainDraft(tokens=[wrong],
                           dists=[np.eye(spec.vocab)[wrong]],
                           logits=[last_logits])
        out = verify_chain(spec, w, cache, draft, root, Rng(0), 0.0)
        assert len(out.walk.accepted) == 0
        assert out.walk.correction == int(np.argmax(last_logits))
        assert cache.layer_view(0)[2].tolist() == list(range(4))

    def test_outcome_invariant(self):
        for correction, bonus in ((1, 2), (None, None)):
            with pytest.raises(InternalError):
                WalkResult(accepted=[], correction=correction, bonus=bonus, levels=[])
        assert WalkResult([3], None, 2, []).committed == [3, 2]
        assert WalkResult([3], 1, None, []).committed == [3, 1]


def hand_tree(structure, dists, root_pos, vocab):
    nodes = []
    for (token, parent), dist in zip(structure, dists):
        depth = 0 if parent == -1 else nodes[parent].depth + 1
        logits = None if dist is None else np.log(np.maximum(dist, 1e-12))
        nodes.append(TreeNode(token=token, parent=parent, depth=depth,
                              path_logprob=0.0, dist=dist, logits=logits))
        if parent >= 0:
            nodes[parent].children.append(len(nodes) - 1)
    return DraftTree(nodes=nodes, root_pos=root_pos)


class TestWalkTree:
    def test_single_chain_tree_matches_walk_chain_same_seed(self):
        # A path tree whose children were sampled from their parents' dists
        # is the chain walk; identical seeds must give identical outcomes.
        rng_np = np.random.default_rng(11)
        vocab = 6
        q0, q1, q2, p0, p1 = (rand_dist(rng_np, vocab) for _ in range(5))
        for trial in range(300):
            t0 = int(rng_np.integers(0, vocab))
            t1 = int(rng_np.integers(0, vocab))
            tree = hand_tree([(9, -1), (t0, 0), (t1, 1)], [p0, p1, None],
                             root_pos=3, vocab=vocab)
            tree.sampled = True
            chain = walk_chain([t0, t1], [p0, p1], [q1, q2], q0, Rng(trial), 0.8,
                               logits=[tree.nodes[0].logits, tree.nodes[1].logits])
            tree_walk = walk_tree(tree, {0: q0, 1: q1, 2: q2}, Rng(trial), 0.8)
            assert chain.accepted == tree_walk.accepted
            assert chain.correction == tree_walk.correction
            assert chain.bonus == tree_walk.bonus

    def test_identical_children_mass_removal(self):
        # Second identical sibling sees the residual with that token removed,
        # so it can never be accepted after the first was rejected.
        vocab = 4
        q0 = np.array([0.0, 0.55, 0.45, 0.0])
        parent_dist = np.array([0.9, 0.05, 0.05, 0.0])
        tree = hand_tree([(2, -1), (0, 0), (0, 0)],
                         [parent_dist, np.ones(vocab) / vocab, np.ones(vocab) / vocab],
                         root_pos=0, vocab=vocab)
        for seed in range(200):
            walk = walk_tree(tree, {0: q0, 1: q0, 2: q0}, Rng(seed), 0.7)
            assert walk.accepted == []  # token 0 has zero target mass
            assert walk.correction in (1, 2)

    def test_monte_carlo_tree_committed_distribution(self):
        # Oracle: the first committed token must be distributed as the
        # target's root distribution, TV <= 0.015 at 1e5 trials.
        vocab = 6
        rng_np = np.random.default_rng(23)
        q_rows = {i: rand_dist(rng_np, vocab) for i in range(5)}
        d_rows = [rand_dist(rng_np, vocab) for _ in range(5)]
        # 5-node tree: root with two children, first child has two children.
        tree = hand_tree([(0, -1), (2, 0), (4, 0), (1, 1), (5, 1)],
                         d_rows, root_pos=0, vocab=vocab)
        trials = 100_000
        counts = np.zeros(vocab)
        rng = Rng(2024)
        for _ in range(trials):
            walk = walk_tree(tree, q_rows, rng, temperature=0.9)
            first = walk.accepted[0] if walk.accepted else (
                walk.correction if walk.correction is not None else walk.bonus)
            counts[first] += 1
        tv = 0.5 * np.abs(counts / trials - q_rows[0]).sum()
        assert tv <= 0.015

    def test_monte_carlo_second_level_conditional(self):
        # Conditional on accepting the first child, the next committed token
        # must follow that node's target row.
        vocab = 6
        rng_np = np.random.default_rng(29)
        q_rows = {i: rand_dist(rng_np, vocab) for i in range(4)}
        d_rows = [rand_dist(rng_np, vocab) for _ in range(4)]
        tree = hand_tree([(0, -1), (2, 0), (3, 1), (5, 1)],
                         d_rows, root_pos=0, vocab=vocab)
        trials = 150_000
        counts = np.zeros(vocab)
        hits = 0
        rng = Rng(77)
        for _ in range(trials):
            walk = walk_tree(tree, q_rows, rng, temperature=0.9)
            if walk.accepted[:1] == [2]:
                hits += 1
                second = walk.accepted[1] if len(walk.accepted) > 1 else (
                    walk.correction if walk.correction is not None else walk.bonus)
                counts[second] += 1
        assert hits > 1000
        tv = 0.5 * np.abs(counts / hits - q_rows[1]).sum()
        assert tv <= 0.02


def random_logits(rng_np, vocab, base=None):
    """A logits row with some -inf entries (zero probabilities); near
    ``base`` when given, so that a target row can agree with a draft row."""
    x = 2.0 * rng_np.standard_normal(vocab)
    if base is not None:
        x = base + rng_np.uniform(0.05, 2.0) * x
    x[rng_np.random(vocab) < 0.25] = -np.inf
    if np.isinf(x).all():
        x[rng_np.integers(vocab)] = 0.0
    return x


class TestChainAsPathTree:
    TEMPERATURES = (0.0, 0.5, 0.9, 1.3)

    def test_walk_matches_the_chain_walk_bitwise(self):
        # 20 000 random chains: the outcome, every LevelRecord field and the
        # RNG stream after the walk are those of the chain walk.
        rng_np = np.random.default_rng(2505)
        outcomes = {"bonus": 0, "correction": 0, "zero_mass_reject": 0}
        for trial in range(20_000):
            temperature = self.TEMPERATURES[trial % 4]
            vocab = int(rng_np.integers(2, 9))
            k = int(rng_np.integers(1, 7))
            logits = [random_logits(rng_np, vocab) for _ in range(k)]
            proposals = [next_token_dist(x, temperature) for x in logits]
            tokens = [int(np.argmax(p)) if temperature == 0
                      else int(rng_np.choice(vocab, p=p)) for p in proposals]
            root, *rows = [next_token_dist(random_logits(rng_np, vocab, base), temperature)
                           for base in [*logits, None]]
            args = (tokens, proposals, rows, root)
            rng_a, rng_b = Rng(trial), Rng(trial)
            want = walk_chain(*args, rng_a, temperature, logits)
            got = walk_chain_as_tree(*args, rng_b, temperature, logits)
            assert got.accepted == want.accepted
            assert same_bits(got.correction, want.correction)
            assert same_bits(got.bonus, want.bonus)
            assert len(got.levels) == len(want.levels)
            for g, w in zip(got.levels, want.levels):
                for f in fields(LevelRecord):
                    assert same_bits(getattr(g, f.name), getattr(w, f.name)), f.name
            assert rng_a.uniform() == rng_b.uniform()
            outcomes["bonus" if want.bonus is not None else "correction"] += 1
            depth = len(want.accepted)
            if depth < k and ([root, *rows][depth][tokens[depth]] == 0):
                outcomes["zero_mass_reject"] += 1
        assert min(outcomes.values()) > 1000, outcomes

    @pytest.mark.parametrize("kv_chunk", [None, 2])
    def test_verify_pass_is_a_causal_decode(self, monkeypatch, kv_chunk):
        # The path tree's mask is the causal mask: the verify logits are
        # bitwise those of a plain decode of the drafted tokens.
        spec, w = small_model(seed=37, n_layers=2)
        prompt = [1, 5, 2, 0, 3, 6]
        cache, last_logits = prepped(spec, w, prompt)
        ref_cache, _ = prepped(spec, w, prompt)
        uniform = np.full(spec.vocab, 1 / spec.vocab)
        draft = ChainDraft(tokens=[4, 4, 1, 7], dists=[uniform] * 4,
                           logits=[np.zeros(spec.vocab)] * 4)
        passes = []
        real = verification.decode_step
        monkeypatch.setattr(verification, "decode_step",
                            lambda *a, **kw: passes.append(real(*a, **kw)) or passes[-1])
        verify_chain(spec, w, cache, draft, next_token_dist(last_logits, 0.7),
                     Rng(0), 0.7, kv_chunk=kv_chunk)
        want = decode_step(spec, w, draft.tokens, ref_cache,
                           positions=np.arange(len(prompt), len(prompt) + 4),
                           kv_chunk=kv_chunk)
        assert len(passes) == 2  # verify, then commit
        assert passes[0].logits.tobytes() == want.logits.tobytes()


class TestVerifyTreeEndToEnd:
    def test_greedy_tree_commits_target_greedy_path(self):
        spec, w = small_model(seed=31, vocab=9)
        prompt = [1, 5, 2, 8]
        dcache = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
        prefill(spec, w, prompt[:-1], dcache)
        tree = draft_tree(spec, w, dcache, [prompt[-1]],
                          TreeBudget(8, 3, 0.5), temperature=0.0)
        tcache, last_logits = prepped(spec, w, prompt)
        root = next_token_dist(last_logits, 0.0)
        out = verify_tree(spec, w, tcache, tree, root, Rng(0), 0.0)
        # Self-draft at temperature 0: the greedy chain of the tree is the
        # target's own greedy path, so every drafted depth is accepted.
        assert len(out.walk.accepted) == 3
        assert out.walk.bonus is not None
        assert tcache.layer_view(0)[2].tolist() == list(range(len(prompt) + 4))

    def test_a_tail_without_every_node_is_a_state_error(self):
        # The target verifies the nodes in the order the draft decoded them,
        # so a tree whose tail misses a node, or repeats one, cannot be
        # verified.
        spec, w = small_model(seed=31, vocab=9)
        prompt = [1, 5, 2, 8]
        vocab = spec.vocab
        tree = hand_tree([(8, -1), (3, 0), (4, 0), (6, 1)],
                         [np.full(vocab, 1 / vocab)] * 4,
                         root_pos=len(prompt) - 1, vocab=vocab)
        for tail in ([], [1, 2], [1, 2, 2], [1, 2, 3, 3]):
            tree.tail = tail
            cache, last_logits = prepped(spec, w, prompt)
            with pytest.raises(StateError, match="non-root nodes"):
                verify_tree(spec, w, cache, tree, next_token_dist(last_logits, 0.0),
                            Rng(0), 0.0)
            assert cache.layer_view(0)[2].tolist() == list(range(len(prompt)))
        tree.tail = [2, 1, 3]  # any order of every non-root node is a tail
        cache, last_logits = prepped(spec, w, prompt)
        out = verify_tree(spec, w, cache, tree, next_token_dist(last_logits, 0.0),
                          Rng(0), 0.0)
        assert cache.world_len == len(prompt) + len(out.walk.committed)

    def test_attention_rows_are_distributions(self):
        spec, w = small_model(seed=33)
        prompt = [0, 1, 2, 3]
        cache, last_logits = prepped(spec, w, prompt)
        root = next_token_dist(last_logits, 0.0)
        draft = ChainDraft(tokens=[1], dists=[np.eye(spec.vocab)[1]],
                           logits=[last_logits])
        out = verify_chain(spec, w, cache, draft, root, Rng(0), 0.0)
        row = out.last_committed_attn_row
        assert abs(row.sum() - 1.0) < 1e-6
        assert np.all(row >= 0)


class TestExtractScores:
    def test_one_hot_slice(self):
        row = np.zeros(10)
        row[3] = 1.0
        s = extract_scores(row, prefix_len=8)
        assert np.allclose(s, np.eye(8)[3])

    def test_renormalizes(self):
        row = np.array([0.1, 0.1, 0.2, 0.6])
        s = extract_scores(row, prefix_len=2)
        assert np.allclose(s, [0.5, 0.5])

    def test_not_captured_is_state_error(self):
        with pytest.raises(StateError):
            extract_scores(None, 4)

    def test_matches_recomputed_standard_attention(self):
        # Oracle: recompute the last-layer row with plain softmax attention.
        spec, w = small_model(seed=35)
        prompt = list(range(6))
        cache, last_logits = prepped(spec, w, prompt)
        root = next_token_dist(last_logits, 0.0)
        draft = ChainDraft(tokens=[2], dists=[np.eye(spec.vocab)[2]],
                           logits=[last_logits])
        out = verify_chain(spec, w, cache, draft, root, Rng(0), 0.0)
        prefix_len = len(prompt)
        s = extract_scores(out.last_committed_attn_row, prefix_len)
        row = out.last_committed_attn_row
        assert np.allclose(s, row[:prefix_len] / row[:prefix_len].sum())


class TestHybridAttention:
    def rand_instance(self, rng, nq, prefix, n_chunks, n_tree, d=16):
        ks = rng.standard_normal((prefix, d))
        vs = rng.standard_normal((prefix, d))
        cuts = np.sort(rng.choice(np.arange(1, prefix), n_chunks - 1,
                                  replace=False)) if n_chunks > 1 else np.array([], int)
        bounds = [0, *cuts.tolist(), prefix]
        chunks = [(ks[a:b], vs[a:b]) for a, b in zip(bounds, bounds[1:])]
        q = rng.standard_normal((nq, d))
        tree = None
        mask = None
        if n_tree:
            tree = (rng.standard_normal((n_tree, d)),
                    rng.standard_normal((n_tree, d)))
            mask = rng.random((nq, n_tree)) < 0.6
            mask[:, 0] = True  # keep every row attendable
        return q, ks, vs, chunks, tree, mask

    def monolithic_oracle(self, q, ks, vs, tree, mask):
        # Independent reference: one softmax over the concatenation.
        d = q.shape[1]
        if tree is not None:
            kall = np.concatenate([ks, tree[0]])
            vall = np.concatenate([vs, tree[1]])
        else:
            kall, vall = ks, vs
        scores = q @ kall.T / np.sqrt(d)
        if tree is not None:
            full_mask = np.concatenate(
                [np.ones((q.shape[0], ks.shape[0]), bool), mask], axis=1)
            scores = np.where(full_mask, scores, -np.inf)
        m = scores.max(axis=1, keepdims=True)
        wts = np.exp(scores - m)
        probs = wts / wts.sum(axis=1, keepdims=True)
        return probs @ vall, probs

    def test_single_chunk_no_tree_is_plain_attention(self):
        rng = np.random.default_rng(0)
        q, ks, vs, chunks, _, _ = self.rand_instance(rng, 2, 12, 1, 0)
        out, probs = hybrid_attention(q, chunks)
        want_out, want_probs = self.monolithic_oracle(q, ks, vs, None, None)
        assert np.max(np.abs(out - want_out)) < 1e-12
        assert np.max(np.abs(probs - want_probs)) < 1e-12

    def test_two_chunks_match_monolithic(self):
        rng = np.random.default_rng(1)
        q, ks, vs, chunks, _, _ = self.rand_instance(rng, 3, 20, 2, 0)
        out, _ = hybrid_attention(q, chunks)
        want, _ = self.monolithic_oracle(q, ks, vs, None, None)
        assert np.max(np.abs(out - want)) < 1e-9

    def test_tree_only_chain_mask_is_causal(self):
        rng = np.random.default_rng(2)
        d, n = 8, 5
        kt = rng.standard_normal((n, d))
        vt = rng.standard_normal((n, d))
        q = rng.standard_normal((n, d))
        mask = np.tril(np.ones((n, n), bool))
        out, probs = hybrid_attention(q, [], (kt, vt), mask)
        scores = q @ kt.T / np.sqrt(d)
        scores = np.where(mask, scores, -np.inf)
        m = scores.max(axis=1, keepdims=True)
        wts = np.exp(scores - m)
        want_probs = wts / wts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(probs - want_probs)) < 1e-12
        assert np.max(np.abs(out - want_probs @ vt)) < 1e-12

    def test_masked_positions_exact_zero(self):
        rng = np.random.default_rng(3)
        q, ks, vs, chunks, tree, mask = self.rand_instance(rng, 4, 10, 2, 6)
        _, probs = hybrid_attention(q, chunks, tree, mask)
        tree_probs = probs[:, 10:]
        assert np.all(tree_probs[~mask] == 0.0)

    def test_random_instances_vs_monolithic(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            nq = int(rng.integers(1, 6))
            prefix = int(rng.integers(8, 257))
            n_chunks = int(rng.integers(1, min(9, prefix)))
            n_tree = int(rng.integers(0, 51))
            q, ks, vs, chunks, tree, mask = self.rand_instance(
                rng, nq, prefix, n_chunks, n_tree)
            out, probs = hybrid_attention(q, chunks, tree, mask)
            want_out, want_probs = self.monolithic_oracle(q, ks, vs, tree, mask)
            assert np.max(np.abs(out - want_out)) < 1e-9
            assert np.max(np.abs(probs - want_probs)) < 1e-9

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            hybrid_attention(np.zeros((2, 4)), [])
        with pytest.raises(ShapeError):
            hybrid_attention(np.zeros((2, 4)),
                             [(np.zeros((0, 4)), np.zeros((0, 4)))])


def test_divergence_governs_rejection_rate():
    # Sanity link: expected acceptance of one chain attempt is
    # 1 - natural_divergence(p, q) when the candidate is drawn from p.
    rng_np = np.random.default_rng(55)
    p = rand_dist(rng_np, 8)
    q = rand_dist(rng_np, 8)
    expected_accept = 1.0 - natural_divergence(p, q)
    analytic = sum(p[t] * accept_probability(q, t, p) for t in range(8))
    assert analytic == pytest.approx(expected_accept, abs=1e-12)
