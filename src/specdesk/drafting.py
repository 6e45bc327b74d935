"""Candidate generation with the draft model: chains and budgeted trees.

Chain drafting samples sequentially and records every proposal
distribution. Tree drafting expands a token tree under a node/depth/
threshold budget: the greedy chain is always included, then the most
probable unexpanded node whose path probability clears
``expand_threshold ** depth`` is expanded with its top children until the
node budget is exhausted or nothing qualifies. Children are deterministic
top-probability picks, so their proposal is a point mass; chain proposals
are the full sampled-from distributions.

The draft cache is only ever extended speculatively here; callers roll the
speculation back by position truncation after verification.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .cache import KVCache
from .errors import ParameterError
from .model import ModelSpec, Weights, decode_step, next_token_dist
from .tensor import Rng, sample_categorical

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
    """Speculated token tree; the root is the last committed token."""

    nodes: list[TreeNode]
    root_pos: int

    @property
    def size(self) -> int:
        return len(self.nodes)

    def children_of(self, idx: int) -> list[int]:
        return self.nodes[idx].children


@dataclass
class ChainDraft:
    tokens: list[int]
    dists: list[np.ndarray]  # proposal distribution per drafted token
    logits: list[np.ndarray]  # raw draft logits per drafted position


def draft_chain(spec: ModelSpec, weights: Weights, cache: KVCache,
                pending: list[int], k: int, temperature: float, rng: Rng) -> ChainDraft:
    """Sample a k-token chain; the first distribution comes from decoding
    the pending committed tokens, so exactly k forward passes run in total."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not pending:
        raise ParameterError("draft_chain needs at least one pending committed token")
    start = cache.world_len
    out = decode_step(spec, weights, pending, cache,
                      positions=np.arange(start, start + len(pending)))
    logits_row = out.logits[-1]
    pos = start + len(pending)
    tokens: list[int] = []
    dists: list[np.ndarray] = []
    logits: list[np.ndarray] = []
    for i in range(k):
        p = next_token_dist(logits_row, temperature)
        tok = int(np.argmax(p)) if temperature == 0 else sample_categorical(p, rng)
        tokens.append(tok)
        dists.append(p)
        logits.append(logits_row)
        if i + 1 < k:
            step = decode_step(spec, weights, [tok], cache,
                               positions=np.array([pos]))
            logits_row = step.logits[-1]
            pos += 1
    return ChainDraft(tokens=tokens, dists=dists, logits=logits)


def draft_tree(spec: ModelSpec, weights: Weights, cache: KVCache,
               pending: list[int], budget: TreeBudget, temperature: float) -> DraftTree:
    """Expand a draft tree rooted at the last committed token.

    Node distributions are refreshed lazily: whenever an undecoded node must
    be expanded, the current tree is re-decoded in one masked step from the
    committed cache.
    """
    if not pending:
        raise ParameterError("draft_tree needs at least one pending committed token")
    start = cache.world_len
    out = decode_step(spec, weights, pending, cache,
                      positions=np.arange(start, start + len(pending)))
    root_pos = start + len(pending) - 1
    committed_end = root_pos + 1
    root = TreeNode(token=int(pending[-1]), parent=-1, depth=0, path_logprob=0.0,
                    logits=out.logits[-1],
                    dist=next_token_dist(out.logits[-1], temperature))
    tree = DraftTree(nodes=[root], root_pos=root_pos)

    def refresh() -> None:
        """Roll back speculation and decode every non-root node in one pass."""
        cache.truncate(committed_end)
        order = sorted(range(1, tree.size), key=lambda i: (tree.nodes[i].depth, i))
        tokens = [tree.nodes[i].token for i in order]
        positions = np.array([root_pos + tree.nodes[i].depth for i in order])
        mask = _ancestor_mask(tree, order)
        step = decode_step(spec, weights, tokens, cache, tree_mask=mask,
                           positions=positions)
        for row, i in enumerate(order):
            node = tree.nodes[i]
            node.logits = step.logits[row]
            node.dist = next_token_dist(step.logits[row], temperature)

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

    # Forced greedy chain: argmax path to min(max_depth, remaining budget).
    cursor = 0
    while (tree.nodes[cursor].depth < budget.max_depth
           and tree.size < budget.max_nodes):
        if tree.nodes[cursor].dist is None:
            refresh()
        prob, tok = top_children(cursor)[0]
        nxt = add_child(cursor, tok, prob)
        if nxt is None:
            break
        cursor = nxt

    # Threshold expansion: most probable qualifying node first.
    expanded: set[int] = set()
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
        if idx in expanded:
            continue
        expanded.add(idx)
        if tree.nodes[idx].dist is None:
            refresh()
        for prob, tok in top_children(idx):
            if tree.size >= budget.max_nodes:
                break
            child = add_child(idx, tok, prob)
            if child is not None:
                push(child)

    # Ensure every node is decoded, then roll speculation back.
    if any(n.dist is None for n in tree.nodes):
        refresh()
    cache.truncate(committed_end)
    assert tree.size <= budget.max_nodes
    assert max(n.depth for n in tree.nodes) <= budget.max_depth
    return tree


def _ancestor_mask(tree: DraftTree, order: list[int]) -> np.ndarray:
    """Visibility among the given nodes: ancestor-or-self, in ``order``."""
    index_of = {node: row for row, node in enumerate(order)}
    n = len(order)
    mask = np.zeros((n, n), dtype=bool)
    for row, node in enumerate(order):
        cur = node
        while cur != -1:
            if cur in index_of:
                mask[row, index_of[cur]] = True
            cur = tree.nodes[cur].parent
    return mask


def flatten_tree(tree: DraftTree) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Breadth-first flattening: tokens, ancestor-or-self mask, positions."""
    order = sorted(range(tree.size), key=lambda i: (tree.nodes[i].depth, i))
    tokens = [tree.nodes[i].token for i in order]
    positions = np.array([tree.root_pos + tree.nodes[i].depth for i in order],
                         dtype=np.int64)
    mask = _ancestor_mask(tree, order)
    return tokens, mask, positions
