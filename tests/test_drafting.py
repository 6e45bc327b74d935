import heapq

import numpy as np
import pytest

from specdesk import drafting, verification
from specdesk.cache import KVCache
from specdesk.drafting import (DraftTree, TreeBudget, TreeNode, draft_chain,
                               draft_tree, tree_block, undecoded)
from specdesk.errors import ParameterError
from specdesk.model import (ModelSpec, decode_step, next_token_dist, prefill)
from specdesk.modelgen import random_weights
from specdesk.tensor import Rng, draw
from specdesk.verification import WalkResult, accepted_path, verify_tree


def small_model(seed=0, vocab=7, n_layers=1):
    spec = ModelSpec(n_layers=n_layers, n_heads=2, d_model=16, d_head=8,
                     vocab=vocab, max_pos=256)
    return spec, random_weights(spec, seed)


def prepped_cache(spec, w, prompt):
    cache = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
    prefill(spec, w, prompt[:-1], cache)
    return cache


PROMPT = [1, 3, 2, 5]


class TestDraftChain:
    def test_greedy_equals_greedy_rollout(self):
        spec, w = small_model(seed=2)
        cache = prepped_cache(spec, w, PROMPT)
        chain = draft_chain(spec, w, cache, PROMPT[-1], k=4, temperature=0.0,
                            rng=Rng(0))
        # Oracle: plain greedy rollout with a fresh cache.
        c2 = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
        logits = prefill(spec, w, PROMPT, c2).logits[-1]
        pos = len(PROMPT)
        for tok in chain.tokens:
            assert tok == int(np.argmax(logits))
            logits = decode_step(spec, w, [tok], c2,
                                 positions=np.array([pos])).logits[-1]
            pos += 1

    def test_k1_single_forward(self):
        spec, w = small_model()
        cache = prepped_cache(spec, w, PROMPT)
        before = cache.archive_len
        chain = draft_chain(spec, w, cache, PROMPT[-1], k=1, temperature=0.0,
                            rng=Rng(0))
        assert len(chain.tokens) == 1
        # One forward pass: only the root was appended.
        assert cache.archive_len == before + 1

    def test_recorded_dists_normalized(self):
        spec, w = small_model(seed=4)
        cache = prepped_cache(spec, w, PROMPT)
        chain = draft_chain(spec, w, cache, PROMPT[-1], k=5, temperature=0.7,
                            rng=Rng(3))
        for node in chain.tree.nodes[:-1]:
            assert abs(node.dist.sum() - 1.0) < 1e-9

    def test_k_validation(self):
        spec, w = small_model()
        cache = prepped_cache(spec, w, PROMPT)
        with pytest.raises(ParameterError):
            draft_chain(spec, w, cache, PROMPT[-1], k=0, temperature=0.0,
                        rng=Rng(0))


class TestChainTree:
    def test_a_chain_is_a_sampled_path_tree(self):
        spec, w = small_model(seed=4)
        cache = prepped_cache(spec, w, PROMPT)
        chain = draft_chain(spec, w, cache, PROMPT[-1], k=4, temperature=0.7,
                            rng=Rng(1))
        tree = chain.tree
        assert tree.sampled and tree.root_pos == len(PROMPT) - 1
        assert [n.parent for n in tree.nodes] == [-1, 0, 1, 2, 3]
        assert [n.depth for n in tree.nodes] == [0, 1, 2, 3, 4]
        assert [n.children for n in tree.nodes] == [[1], [2], [3], [4], []]
        assert [n.token for n in tree.nodes] == [PROMPT[-1], *chain.tokens]
        # Node i holds the dist token i was drawn from; the draft decoded
        # nodes 1 .. 3, in row order, and never the leaf.
        assert tree.decoded == 3 and list(undecoded(tree)) == [4]
        for node in tree.nodes[:4]:
            assert np.array_equal(node.dist, next_token_dist(node.logits, 0.7))
        assert tree.nodes[4].dist is None and tree.nodes[4].logits is None
        assert cache.layer_view(0)[2].tolist() == list(range(len(PROMPT) + 3))

    def test_a_sampled_tree_is_its_chain_whatever_the_budget(self):
        # A top-child sibling of a sampled child would be verified against
        # the parent's dist as its proposal, so a sampled tree never branches.
        spec, w = small_model(seed=8)
        cache = prepped_cache(spec, w, PROMPT)
        tree = draft_tree(spec, w, cache, PROMPT[-1], TreeBudget(12, 3, 0.1),
                          temperature=0.9, rng=Rng(2))
        assert tree.sampled and [n.parent for n in tree.nodes] == [-1, 0, 1, 2]
        assert tree.decoded == 2

    def test_its_block_is_the_causal_block(self):
        spec, w = small_model(seed=4)
        cache = prepped_cache(spec, w, PROMPT)
        chain = draft_chain(spec, w, cache, PROMPT[-1], k=3, temperature=0.7,
                            rng=Rng(1))
        tree = chain.tree
        tokens, mask, positions = tree_block(tree, range(1, tree.size))
        assert tokens == chain.tokens
        assert np.array_equal(mask, np.tril(np.ones((3, 3), dtype=bool)))
        assert positions.tolist() == [4, 5, 6]


class TestChainBits:
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    def test_nodes_are_one_row_causal_decodes(self, temperature):
        # A chain is draft_tree's sampled tree, with the bits of decoding the
        # root and each drawn token alone on a plain causal cache, and the
        # same RNG draws.
        spec, w = small_model(seed=4, n_layers=2)
        k, rng, cache = 5, Rng(9), prepped_cache(spec, w, PROMPT)
        chain = draft_chain(spec, w, cache, PROMPT[-1], k, temperature, rng)
        ref_rng, ref = Rng(9), prepped_cache(spec, w, PROMPT)
        logits = decode_step(spec, w, PROMPT[-1:], ref,
                             positions=np.array([ref.world_len])).logits[-1]
        tokens = []
        for i in range(k):
            assert np.array_equal(chain.tree.nodes[i].logits, logits)
            tokens.append(draw(next_token_dist(logits, temperature), ref_rng, temperature))
            if i < k - 1:
                logits = decode_step(spec, w, tokens[-1:], ref,
                                     positions=np.array([ref.world_len])).logits[-1]
        assert chain.tokens == tokens
        assert rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state
        for li in range(spec.n_layers):
            for got, want in zip(cache.layer_view(li), ref.layer_view(li)):
                assert np.array_equal(got, want)


class TestDraftTree:
    def test_one_hot_degenerates_to_chain(self):
        # Greedy dists are one-hot, so the tree is a chain of
        # min(max_depth, max_nodes - 1) edges.
        spec, w = small_model(seed=6)
        cache = prepped_cache(spec, w, PROMPT)
        budget = TreeBudget(max_nodes=10, max_depth=4, expand_threshold=0.7)
        tree = draft_tree(spec, w, cache, PROMPT[-1], budget, temperature=0.0)
        assert tree.size == 1 + min(budget.max_depth, budget.max_nodes - 1)
        depths = sorted(n.depth for n in tree.nodes)
        assert depths == list(range(tree.size))  # one node per depth: a chain

    def test_max_nodes_one_is_root_only(self):
        spec, w = small_model()
        cache = prepped_cache(spec, w, PROMPT)
        tree = draft_tree(spec, w, cache, PROMPT[-1],
                          TreeBudget(1, 5, 0.7), temperature=0.0)
        assert tree.size == 1
        assert tree.nodes[0].parent == -1

    def test_budget_hard_limits(self):
        spec, w = small_model(seed=8)
        cache = prepped_cache(spec, w, PROMPT)
        budget = TreeBudget(max_nodes=12, max_depth=3, expand_threshold=0.1)
        tree = draft_tree(spec, w, cache, PROMPT[-1], budget, temperature=0.9)
        assert tree.size <= 12
        assert max(n.depth for n in tree.nodes) <= 3

    def test_leaves_committed_rows_then_one_row_per_node(self):
        spec, w = small_model(seed=14)
        cache = prepped_cache(spec, w, PROMPT)
        tree = draft_tree(spec, w, cache, PROMPT[-1], TreeBudget(12, 4, 0.3),
                          temperature=0.8)
        assert tree.size > 2 and undecoded(tree)
        # The draft decoded the first nodes, one row each in index order;
        # the rest are leaves. Here the last decode block is not in depth
        # order: its positions read 4, 3, 3 after the root's.
        decoded = range(1, tree.decoded + 1)
        assert list(undecoded(tree)) == list(range(tree.decoded + 1, tree.size))
        assert all(tree.nodes[i].dist is not None for i in decoded)
        assert all(not tree.nodes[i].children and tree.nodes[i].dist is None
                   for i in undecoded(tree))
        pos = cache.layer_view(0)[2].tolist()
        assert pos[:len(PROMPT)] == list(range(len(PROMPT)))
        assert pos[len(PROMPT):] == [tree.root_pos + tree.nodes[i].depth for i in decoded]
        assert [tree.nodes[i].depth for i in decoded][-3:] == [4, 3, 3]

    def test_path_logprob_monotone(self):
        spec, w = small_model(seed=11)
        cache = prepped_cache(spec, w, PROMPT)
        tree = draft_tree(spec, w, cache, PROMPT[-1], TreeBudget(16, 4, 0.3),
                          temperature=1.0)
        for i, node in enumerate(tree.nodes):
            if node.parent >= 0:
                assert node.depth == tree.nodes[node.parent].depth + 1
                assert node.path_logprob <= tree.nodes[node.parent].path_logprob + 1e-12

    def test_expansion_rule_enumeration_oracle(self):
        # Oracle: replay the documented rule with distributions computed by
        # full recomputation (fresh prefill per path), never reusing the
        # incremental cache path.
        spec, w = small_model(seed=13, vocab=3)
        prompt = [1, 0, 2, 1]
        budget = TreeBudget(max_nodes=9, max_depth=3, expand_threshold=0.35)
        temperature = 1.0

        def dist_after(path):
            c = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
            out = prefill(spec, w, prompt + path, c)
            return next_token_dist(out.logits[-1], temperature)

        nodes = [{"token": prompt[-1], "parent": -1, "depth": 0, "prob": 1.0,
                  "path": [], "children": {}}]

        def top2(dist):
            order = np.argsort(-dist, kind="stable")[:2]
            return [(float(dist[t]), int(t)) for t in order if dist[t] > 0]

        def add(parent, prob, tok):
            if tok in nodes[parent]["children"]:
                return None
            node = {"token": tok, "parent": parent,
                    "depth": nodes[parent]["depth"] + 1,
                    "prob": nodes[parent]["prob"] * prob,
                    "path": nodes[parent]["path"] + [tok], "children": {}}
            nodes.append(node)
            nodes[parent]["children"][tok] = len(nodes) - 1
            return len(nodes) - 1

        cursor = 0
        while nodes[cursor]["depth"] < budget.max_depth and len(nodes) < budget.max_nodes:
            prob, tok = top2(dist_after(nodes[cursor]["path"]))[0]
            cursor = add(cursor, prob, tok)

        heap = []
        for idx, node in enumerate(nodes):
            if node["depth"] < budget.max_depth and \
                    node["prob"] >= budget.expand_threshold ** node["depth"]:
                heapq.heappush(heap, (-node["prob"], idx))
        expanded = set()
        while heap and len(nodes) < budget.max_nodes:
            _, idx = heapq.heappop(heap)
            if idx in expanded:
                continue
            expanded.add(idx)
            for prob, tok in top2(dist_after(nodes[idx]["path"])):
                if len(nodes) >= budget.max_nodes:
                    break
                child = add(idx, prob, tok)
                if child is not None and nodes[child]["depth"] < budget.max_depth and \
                        nodes[child]["prob"] >= budget.expand_threshold ** nodes[child]["depth"]:
                    heapq.heappush(heap, (-nodes[child]["prob"], child))

        expected = sorted((tuple(n["path"]) for n in nodes))

        cache = prepped_cache(spec, w, prompt)
        tree = draft_tree(spec, w, cache, prompt[-1], budget, temperature)

        def path_of(i):
            path = []
            while tree.nodes[i].parent != -1:
                path.append(tree.nodes[i].token)
                i = tree.nodes[i].parent
            return tuple(reversed(path))

        got = sorted(path_of(i) for i in range(tree.size))
        assert got == expected


def path_to(tree, node):
    path = []
    while node != -1:
        path.append(node)
        node = tree.nodes[node].parent
    return path[::-1]


class TestDecodeOnce:
    """``draft_tree`` decodes each node once, over its cached ancestors."""

    @pytest.mark.parametrize("seed,temperature", [(19, 1.0), (23, 0.9), (29, 0.8),
                                                  (31, 1.0)])
    def test_node_logits_match_decoding_the_path_alone(self, seed, temperature):
        spec, w = small_model(seed=seed, n_layers=2)
        cache = prepped_cache(spec, w, PROMPT)
        tree = draft_tree(spec, w, cache, PROMPT[-1], TreeBudget(14, 4, 0.2),
                          temperature)
        assert any(len(n.children) > 1 for n in tree.nodes)  # it branches
        for node in range(1, tree.decoded + 1):
            c2 = prepped_cache(spec, w, PROMPT)
            path = path_to(tree, node)
            out = decode_step(spec, w, [tree.nodes[i].token for i in path], c2,
                              positions=np.arange(tree.root_pos,
                                                  tree.root_pos + len(path)))
            got = tree.nodes[node].logits
            assert np.max(np.abs(got - out.logits[-1])) < 1e-9

    def test_decodes_each_row_once(self, monkeypatch):
        spec, w = small_model(seed=23)
        cache = prepped_cache(spec, w, PROMPT)
        decoded = []
        orig = drafting.decode_step

        def counted(spec, weights, new_tokens, *args, **kwargs):
            decoded.append(len(new_tokens))
            return orig(spec, weights, new_tokens, *args, **kwargs)

        monkeypatch.setattr(drafting, "decode_step", counted)
        tree = draft_tree(spec, w, cache, PROMPT[-1], TreeBudget(16, 4, 0.2), 0.9)
        assert tree.size > 8 and undecoded(tree)  # it leaves leaves undecoded
        assert decoded[0] == 1 and sum(decoded) == 1 + tree.decoded  # the root alone first
        assert cache.archive_len == len(PROMPT) + tree.decoded

    def test_the_path_append_holds_the_verify_rows(self, monkeypatch):
        # The target's verify pass decodes every node after the root and
        # appends none; for a walk that accepts a path to any of them, one
        # the draft decoded or a leaf it did not, verify_tree appends that
        # path's rows of the verify pass, then the correction's row. The
        # fixed walk reads ``rows[node]`` along its path, as walk_tree does,
        # which is what runs the verify pass.
        spec, w = small_model(seed=23, n_layers=2)
        tree = draft_tree(spec, w, prepped_cache(spec, w, PROMPT), PROMPT[-1],
                          TreeBudget(14, 4, 0.2), 0.9)
        tokens, mask, positions = tree_block(tree, range(1, tree.size))
        ref = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
        prefill(spec, w, PROMPT, ref)
        decode_step(spec, w, tokens, ref, tree_mask=mask, positions=positions)
        uniform = np.full(spec.vocab, 1.0 / spec.vocab)
        for ends in (range(1, tree.decoded + 1), undecoded(tree)):
            path = path_to(tree, max(ends, key=lambda i: (tree.nodes[i].depth, i)))[1:]
            accepted = [tree.nodes[i].token for i in path]
            assert accepted_path(tree, accepted) == path

            def fixed_walk(tree, rows, *args):
                for node in [0, *path]:
                    rows[node]
                return WalkResult(accepted, 0, None, [])

            monkeypatch.setattr(verification, "walk_tree", fixed_walk)
            cache = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
            prefill(spec, w, PROMPT, cache)
            verify_tree(spec, w, cache, tree, uniform, Rng(0), 0.9)
            n = len(PROMPT) + len(path)
            assert cache.layer_view(0)[2].tolist() == list(range(n + 1))
            rows = [len(PROMPT) + i - 1 for i in path]  # node i's row in ref
            for li in range(spec.n_layers):
                for got, want in zip(cache.layer_view(li)[:2], ref.layer_view(li)[:2]):
                    assert np.array_equal(got[:, :len(PROMPT)], want[:, :len(PROMPT)])
                    assert np.array_equal(got[:, len(PROMPT):n], want[:, rows])


def hand_tree(structure, root_pos=3, vocab=6):
    """Build a DraftTree from (token, parent) pairs; node dists uniform."""
    nodes = []
    for token, parent in structure:
        depth = 0 if parent == -1 else nodes[parent].depth + 1
        nodes.append(TreeNode(token=token, parent=parent, depth=depth,
                              path_logprob=0.0,
                              dist=np.full(vocab, 1.0 / vocab)))
        if parent >= 0:
            nodes[parent].children.append(len(nodes) - 1)
    return DraftTree(nodes=nodes, root_pos=root_pos)


class TestFlattenTree:
    """``tree_block`` flattens tree nodes into one decode block."""

    def test_chain_lower_triangular(self):
        tree = hand_tree([(1, -1), (2, 0), (3, 1), (4, 2)])
        tokens, mask, positions = tree_block(tree, [1, 2, 3])
        assert tokens == [2, 3, 4]
        assert np.array_equal(mask, np.tril(np.ones((3, 3), bool)))
        assert positions.tolist() == [4, 5, 6]
        tokens, mask, positions = tree_block(tree, [3], cached=[1, 2])
        assert tokens == [4] and mask.tolist() == [[True, True, True]]
        assert positions.tolist() == [6]

    def test_two_children_see_self_only(self):
        tree = hand_tree([(1, -1), (2, 0), (3, 0)])
        _, mask, positions = tree_block(tree, [1, 2])
        assert mask.tolist() == [[True, False], [False, True]]
        assert positions.tolist() == [4, 4]

    def test_random_tree_reachability_oracle(self):
        # Oracle: transitive closure of the parent relation, over any split
        # of the non-root nodes into cached rows and a block, in any order.
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            structure = [(int(rng.integers(0, 6)), -1)]
            for i in range(1, n):
                structure.append((int(rng.integers(0, 6)),
                                  int(rng.integers(0, i))))
            tree = hand_tree(structure)
            order = [int(i) for i in rng.permutation(np.arange(1, n))]
            split = int(rng.integers(0, n - 1))
            cached, nodes = order[:split], order[split:]
            tokens, mask, positions = tree_block(tree, nodes, cached)
            reach = np.eye(n, dtype=bool)
            for i in range(1, n):
                p = structure[i][1]
                reach[i] |= reach[p]
            assert mask.shape == (len(nodes), n - 1)
            for r, i in enumerate(nodes):
                assert tokens[r] == structure[i][0]
                assert positions[r] == tree.root_pos + tree.nodes[i].depth
                for c, j in enumerate(cached + nodes):
                    assert mask[r, c] == reach[i, j]

    def test_flattened_paths_match_sequential_decode(self):
        # The block the target verifies, every non-root node in index order,
        # gives every root-to-leaf path the logits of decoding that path alone.
        spec, w = small_model(seed=19)
        cache = prepped_cache(spec, w, PROMPT)
        tree = draft_tree(spec, w, cache, PROMPT[-1], TreeBudget(10, 3, 0.2),
                          temperature=1.0)
        assert tree.size > 5
        # Drop the draft's tree rows; the root's row stays.
        cache.truncate(tree.root_pos + 1)
        tokens, mask, positions = tree_block(tree, range(1, tree.size))
        batch = decode_step(spec, w, tokens, cache, tree_mask=mask,
                            positions=positions)
        leaves = [i for i in range(tree.size) if not tree.nodes[i].children]
        for leaf in leaves:
            path = path_to(tree, leaf)
            c2 = KVCache(spec.n_layers, spec.n_heads, spec.d_head)
            prefill(spec, w, PROMPT[:-1], c2)
            seq_logits = []
            for step, node in enumerate(path):
                out = decode_step(spec, w, [tree.nodes[node].token], c2,
                                  positions=np.array([len(PROMPT) - 1 + step]))
                seq_logits.append(out.logits[0])
            for node, want in zip(path[1:], seq_logits[1:]):
                got = batch.logits[node - 1]
                assert np.max(np.abs(got - want)) < 1e-9


class TestTreeBudgetValidation:
    def test_bounds(self):
        with pytest.raises(ParameterError):
            TreeBudget(0, 1, 0.5)
        with pytest.raises(ParameterError):
            TreeBudget(1, 0, 0.5)
        with pytest.raises(ParameterError):
            TreeBudget(1, 1, 0.0)
        with pytest.raises(ParameterError):
            TreeBudget(1, 1, 1.5)
