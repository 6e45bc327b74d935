"""Target-side verification: lossless accept/reject/correct over a draft
tree, and hybrid chunked+tree attention.

There is one walk, and at most one verify decode, of every non-root node
in index order, whichever of them the draft decoded. The walk's root level
reads only the root distribution, which the previous step's commit pass or
the prefill gave, so the decode runs only once the root level accepts a
child: a step that accepts nothing decodes only its commit row. A drafted
chain is its path tree, whose mask is the causal mask.

Acceptance follows the standard ratio rule ``u < min(1, q(x)/p(x))``
against the proposal distribution each candidate was actually drawn from.
The children of a sampled tree, a chain's, were drawn from their parent's
recorded draft distribution, which is their proposal. The children of a
drafted tree are deterministic top-probability picks, i.e. point-mass
proposals, so a rejected child simply has its token's mass removed from the
residual before the next sibling is tried. Either way each attempt is one
exact rejection-sampling round, so the committed token is distributed as
the target distribution.

The verify pass appends nothing to the target's cache, which holds
committed rows only: after the walk it appends the verify pass's rows of
the accepted path (``accepted_path``) behind them, so no committed row
moves and the draft can read them in place. One pass with score capture
then decodes and appends the token the step adds, the correction or bonus.
That token is the next step's root: its row gives the next root
distribution and is the row retrieval reads, so the target decodes each
committed token once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cache import KVCache
from .drafting import ChainDraft, DraftTree, tree_block
from .errors import InternalError, ShapeError, StateError
from .model import ModelSpec, Weights, decode_step, next_token_dist
from .tensor import Rng, draw
from . import attn


@dataclass
class LevelRecord:
    """Per-depth record of the verification walk (for metrics)."""

    target_dist: np.ndarray  # q at this level, temperature-adjusted
    proposal_dist: np.ndarray | None  # draft dist that generated this level
    first_candidate: int | None  # draft's top proposal at this level
    committed: int
    accepted: bool
    draft_logits: np.ndarray | None = None  # raw draft logits at this level


# -- accept / residual machinery ----------------------------------------------

def accept_probability(residual: np.ndarray, token: int,
                       proposal: np.ndarray | None) -> float:
    """min(1, q(x)/p(x)); a point-mass proposal (None) gives q(x) directly."""
    r = float(residual[token])
    if proposal is None:
        return min(1.0, r)
    p = float(proposal[token])
    if p <= 0.0:
        raise InternalError("candidate drafted with zero proposal probability")
    return min(1.0, r / p)


def residual_after_reject(residual: np.ndarray, token: int,
                          proposal: np.ndarray | None) -> np.ndarray:
    """Residual target distribution after rejecting one candidate."""
    if proposal is None:
        out = residual.copy()
        out[token] = 0.0
    else:
        out = np.maximum(residual - proposal, 0.0)
    s = out.sum()
    if s <= 0.0:
        raise InternalError("residual distribution vanished after rejection")
    return out / s


def _attempt(residual: np.ndarray, token: int, proposal: np.ndarray | None,
             rng: Rng, temperature: float) -> bool:
    p = accept_probability(residual, token, proposal)
    if temperature == 0:
        return p >= 1.0
    return rng.uniform() < p


@dataclass
class WalkResult:
    accepted: list[int]
    correction: int | None
    bonus: int | None
    levels: list[LevelRecord]

    def __post_init__(self):
        if (self.correction is None) == (self.bonus is None):
            raise InternalError("exactly one of correction/bonus must be present")

    @property
    def committed(self) -> list[int]:
        return self.accepted + [self.bonus if self.correction is None else self.correction]


def walk_tree(tree: DraftTree, rows, rng: Rng, temperature: float) -> WalkResult:
    """Pure walk from the root over ``rows[node]``, the target's distribution
    after each node: try children in draft-probability order, taking each
    rejected child's proposal out of the residual (its token's mass, or its
    parent's ``dist`` in a sampled tree). The level that accepts none
    commits a draw from its residual: the correction, or at a leaf, whose
    residual is untouched, the bonus."""
    accepted: list[int] = []
    levels: list[LevelRecord] = []
    node = 0
    while True:
        q_cur = rows[node]
        parent_dist = tree.nodes[node].dist
        children = sorted(tree.children_of(node),
                          key=lambda c: (-float(parent_dist[tree.nodes[c].token]), c))
        proposal = parent_dist if tree.sampled else None
        residual, chosen = q_cur, None
        for c in children:
            tok = tree.nodes[c].token
            if _attempt(residual, tok, proposal, rng, temperature):
                chosen = c
                break
            residual = residual_after_reject(residual, tok, proposal)
        committed = (draw(residual, rng, temperature) if chosen is None
                     else tree.nodes[chosen].token)
        levels.append(LevelRecord(
            target_dist=q_cur, proposal_dist=parent_dist,
            first_candidate=tree.nodes[children[0]].token if children else None,
            committed=committed, accepted=chosen is not None,
            draft_logits=tree.nodes[node].logits))
        if chosen is None:
            break
        accepted.append(committed)
        node = chosen
    if children:
        return WalkResult(accepted, committed, None, levels)
    return WalkResult(accepted, None, committed, levels)


@dataclass
class VerifyOutcome:
    """The walk, and what the commit pass of the next root yields."""

    walk: WalkResult
    next_root_dist: np.ndarray
    attn_row: np.ndarray  # the next root's last-layer row


# -- verify ---------------------------------------------------------------------

def verify_tree(spec: ModelSpec, weights: Weights, cache: KVCache,
                tree: DraftTree, root_dist: np.ndarray, rng: Rng,
                temperature: float, kv_chunk: int | None = None) -> VerifyOutcome:
    """Verify a draft tree: once the walk accepts a root child, one masked
    decode of nodes ``1 .. size - 1`` gives the rows it reads; append the
    accepted path's rows, then decode the correction or bonus with score
    capture."""
    if tree.root_pos != cache.world_len - 1:
        raise StateError(f"tree root position {tree.root_pos} does not match "
                         f"cache ({cache.world_len - 1})")
    tokens, mask, positions = tree_block(tree, range(1, tree.size))
    verify = functools.cache(lambda: decode_step(
        spec, weights, tokens, cache, tree_mask=mask, positions=positions,
        kv_chunk=kv_chunk, append=False))

    class Rows(dict):  # the first read of a non-root node runs the verify pass
        def __missing__(self, node):
            row = self[node] = next_token_dist(verify().logits[node - 1], temperature)
            return row

    walk = walk_tree(tree, Rows({0: root_dist}), rng, temperature)
    if walk.accepted:  # node i is row i - 1 of the verify block
        path, out = np.array(accepted_path(tree, walk.accepted)) - 1, verify()
        cache.append([k[path] for k in out.ks], [v[path] for v in out.vs], positions[path])
    out = decode_step(spec, weights, walk.committed[-1:], cache,
                      positions=np.array([cache.world_len]), capture_scores=True,
                      kv_chunk=kv_chunk)
    return VerifyOutcome(walk, next_token_dist(out.logits[-1], temperature),
                         out.last_layer_attn[-1])


def verify_chain(spec: ModelSpec, weights: Weights, cache: KVCache,
                 draft: ChainDraft, root_dist: np.ndarray, rng: Rng,
                 temperature: float, kv_chunk: int | None = None) -> VerifyOutcome:
    """Verify a drafted chain as its path tree, then commit. It goes with
    ``ChainDraft`` and ``draft_chain`` once a sampled ``draft_tree`` replaces them."""
    return verify_tree(spec, weights, cache, draft.tree, root_dist, rng, temperature,
                       kv_chunk)


def accepted_path(tree: DraftTree, tokens: list[int]) -> list[int]:
    """The nodes of the path that spells ``tokens`` from the root."""
    path, node = [], 0
    for tok in tokens:
        match = [c for c in tree.children_of(node) if tree.nodes[c].token == tok]
        if not match:
            raise InternalError(f"token {tok} is not a child of tree node {node}")
        node = match[0]
        path.append(node)
    return path


# -- hybrid attention (public, head-free) ----------------------------------------

def hybrid_attention(q: np.ndarray,
                     chunks: list[tuple[np.ndarray, np.ndarray]],
                     tree_kv: tuple[np.ndarray, np.ndarray] | None = None,
                     tree_mask: np.ndarray | None = None,
                     scale: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Two-phase attention: chunked prefix merged with a masked tree part.

    ``q`` is ``[nq, d]``, each chunk is ``(K [L, d], V [L, d])`` and the
    optional tree part is ``(K_t [nt, d], V_t [nt, d])`` with a boolean
    ``[nq, nt]`` visibility mask. Returns the attention output and the
    merged probability rows over all visible positions, in part order.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2:
        raise ShapeError(f"queries must be [nq, d], got {q.shape}")
    d = q.shape[1]
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray | None]] = []
    for k, v in chunks:
        if k.shape[0] < 1:
            raise ShapeError("chunk sizes must be >= 1")
        parts.append((np.asarray(k, dtype=np.float64),
                      np.asarray(v, dtype=np.float64), None))
    if tree_kv is not None:
        kt, vt = tree_kv
        if tree_mask is None:
            raise ShapeError("tree part requires a visibility mask")
        tree_mask = np.asarray(tree_mask, dtype=bool)
        if tree_mask.shape != (q.shape[0], kt.shape[0]):
            raise ShapeError(f"tree mask shape {tree_mask.shape}, expected "
                             f"{(q.shape[0], kt.shape[0])}")
        parts.append((np.asarray(kt, dtype=np.float64),
                      np.asarray(vt, dtype=np.float64), tree_mask))
    if not parts:
        raise ShapeError("hybrid attention requires at least one KV part")
    out, probs = attn.attend(q, parts, scale, want_probs=True)
    return out, probs
