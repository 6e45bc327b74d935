"""Candidate generation with the draft model: budgeted trees, of which a
chain is the sampled one of width one.

Tree drafting expands a token tree under a node/depth/threshold budget: the
forced chain is always included, then the most probable unexpanded node
whose path probability clears ``expand_threshold ** depth`` is expanded with
its top children until the node budget is exhausted or nothing qualifies.
Children are deterministic top-probability picks, so their proposal is a
point mass. Given an ``rng``, the tree is the forced chain alone, each child
drawn from its parent's ``dist``, and ``DraftTree.sampled`` tells
verification that this ``dist`` is the child's proposal; ``draft_chain`` is
this tree with depth k.

A drafter decodes the root, then nodes only to expand one, in index order,
so nodes ``1 .. DraftTree.decoded`` hold the draft-cache rows after the
root and the leaves added after its last expansion stay undecoded
(``undecoded``). Once its walk accepts a root child, the target verifies
nodes ``1 .. size - 1`` in one ``tree_block``. The draft keeps none of
these rows: the next step reads the committed ones from the target.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .cache import KVCache
from .errors import ParameterError
from .model import ModelSpec, Weights, decode_step, next_token_dist
from .tensor import Rng, draw

TOP_CHILDREN = 2


@dataclass(frozen=True)
class TreeBudget:
    max_nodes: int
    max_depth: int
    expand_threshold: float

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_depth < 1:
            raise ParameterError("tree budget needs max_nodes >= 1 and max_depth >= 1")
        if not 0 < self.expand_threshold <= 1:
            raise ParameterError(
                f"expand_threshold must be in (0, 1], got {self.expand_threshold}"
            )


@dataclass
class TreeNode:
    token: int
    parent: int  # -1 for the root
    depth: int
    path_logprob: float
    logits: np.ndarray | None = None  # raw next-token logits at this node
    dist: np.ndarray | None = None  # temperature-adjusted next-token dist
    children: list[int] = field(default_factory=list)


@dataclass
class DraftTree:
    """Speculated token tree; the root is the last committed token.

    Node ``i`` of nodes ``1 .. decoded`` is the one whose K/V the draft
    decoded into the ``i``-th cached row after the root; the rest are
    undecoded leaves. ``sampled`` says that each child was drawn from its
    parent's ``dist`` (a chain), not picked as a top child.
    """

    nodes: list[TreeNode]
    root_pos: int
    decoded: int = 0
    sampled: bool = False

    @property
    def size(self) -> int:
        return len(self.nodes)

    def children_of(self, idx: int) -> list[int]:
        return self.nodes[idx].children


def undecoded(tree: DraftTree) -> range:
    """The nodes the draft has not decoded."""
    return range(tree.decoded + 1, tree.size)


@dataclass
class ChainDraft:
    """A drafted chain's path tree and its tokens, as the engine's chain mode
    passes it from ``draft_chain`` to ``verify_chain``."""

    tree: DraftTree

    @property
    def tokens(self) -> list[int]:
        return [node.token for node in self.tree.nodes[1:]]


def draft_chain(spec: ModelSpec, weights: Weights, cache: KVCache,
                root: int, k: int, temperature: float, rng: Rng) -> ChainDraft:
    """Sample a k-token chain: ``draft_tree``'s sampled tree of depth k. It
    runs exactly k one-row forward passes, the root's first, and never
    decodes the leaf."""
    return ChainDraft(draft_tree(spec, weights, cache, root,
                                 TreeBudget(k + 1, k, 1.0), temperature, rng))


def draft_tree(spec: ModelSpec, weights: Weights, cache: KVCache,
               root: int, budget: TreeBudget, temperature: float,
               rng: Rng | None = None) -> DraftTree:
    """Expand a draft tree rooted at ``root``, the last committed token, at
    the cache's next position; with ``rng``, sample its chain instead (see
    the module docstring).

    The root is decoded first, in a one-row pass. Each other node is
    decoded once: whenever a node without a distribution must be expanded,
    every such node is decoded in one step, under a mask over the tree rows
    already cached, so each sees the committed rows, its ancestors and
    itself; the nodes added after the last such step stay undecoded. The rows stay in the cache after the root, one
    per decoded node at ``root_pos + depth``, in index order.
    """
    root_pos = cache.world_len
    out = decode_step(spec, weights, [root], cache, positions=np.array([root_pos]))
    logits = out.logits[-1]
    tree = DraftTree(nodes=[TreeNode(token=int(root), parent=-1, depth=0, path_logprob=0.0,
                                     logits=logits, dist=next_token_dist(logits, temperature))],
                     root_pos=root_pos, sampled=rng is not None)

    def refresh() -> None:
        """Decode every node added since the last refresh, in one pass. A
        block that sees every cached node, as on a path, reads them with the
        committed rows, not as a separate tail part."""
        new, n_cached = undecoded(tree), tree.decoded
        tokens, mask, positions = tree_block(tree, new, range(1, n_cached + 1))
        if mask[:, :n_cached].all():
            mask = mask[:, n_cached:]
        step = decode_step(spec, weights, tokens, cache, tree_mask=mask,
                           positions=positions)
        for row, i in enumerate(new):
            node = tree.nodes[i]
            node.logits = step.logits[row]
            node.dist = next_token_dist(step.logits[row], temperature)
        tree.decoded = tree.size - 1

    def top_children(idx: int) -> list[tuple[float, int]]:
        dist = tree.nodes[idx].dist
        order = np.argsort(-dist, kind="stable")[:TOP_CHILDREN]
        return [(float(dist[t]), int(t)) for t in order if dist[t] > 0]

    def add_child(parent_idx: int, token: int, prob: float) -> int | None:
        parent = tree.nodes[parent_idx]
        if any(tree.nodes[c].token == token for c in parent.children):
            return None
        node = TreeNode(token=token, parent=parent_idx, depth=parent.depth + 1,
                        path_logprob=parent.path_logprob + float(np.log(prob)))
        tree.nodes.append(node)
        parent.children.append(tree.size - 1)
        return tree.size - 1

    # Forced chain, greedy or sampled, to min(max_depth, remaining budget).
    # The cursor never has children, so add_child always adds a node.
    cursor = 0
    while (tree.nodes[cursor].depth < budget.max_depth
           and tree.size < budget.max_nodes):
        if tree.nodes[cursor].dist is None:
            refresh()
        if rng is None:
            prob, tok = top_children(cursor)[0]
        else:
            dist = tree.nodes[cursor].dist
            tok = draw(dist, rng, temperature)
            prob = float(dist[tok])
        cursor = add_child(cursor, tok, prob)
    if tree.sampled:  # width one: a sampled child has no top-child siblings
        return tree

    # Threshold expansion: most probable qualifying node first. Each node is
    # pushed at most once: the forced chain's by the first loop below, later
    # ones when add_child creates them.
    heap: list[tuple[float, int]] = []

    def push(idx: int) -> None:
        node = tree.nodes[idx]
        if node.depth >= budget.max_depth:
            return
        path_prob = float(np.exp(node.path_logprob))
        if path_prob >= budget.expand_threshold ** node.depth:
            heapq.heappush(heap, (-path_prob, idx))

    for idx in range(tree.size):
        push(idx)
    while heap and tree.size < budget.max_nodes:
        _, idx = heapq.heappop(heap)
        if tree.nodes[idx].dist is None:
            refresh()
        for prob, tok in top_children(idx):
            if tree.size >= budget.max_nodes:
                break
            child = add_child(idx, tok, prob)
            if child is not None:
                push(child)

    assert tree.size <= budget.max_nodes
    assert max(n.depth for n in tree.nodes) <= budget.max_depth
    return tree


def tree_block(tree: DraftTree, nodes: list[int] | range, cached: list[int] | range = ()
               ) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The decode block of ``nodes``: their tokens, their ancestor-or-self
    mask (columns for the ``cached`` nodes, then for ``nodes``) and their
    positions ``root_pos + depth``."""
    index_of = {node: col for col, node in enumerate([*cached, *nodes])}
    mask = np.zeros((len(nodes), len(index_of)), dtype=bool)
    for row, node in enumerate(nodes):
        cur = node
        while cur != -1:
            if cur in index_of:
                mask[row, index_of[cur]] = True
            cur = tree.nodes[cur].parent
    tokens = [tree.nodes[i].token for i in nodes]
    positions = np.array([tree.root_pos + tree.nodes[i].depth for i in nodes])
    return tokens, mask, positions
