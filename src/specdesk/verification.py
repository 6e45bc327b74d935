"""Target-side verification: lossless accept/reject/correct over a draft
tree, and hybrid chunked+tree attention.

There is one walk and one verify decode. A drafted chain is verified as its
path tree (``drafting.chain_tree``), whose mask is the causal mask.

Acceptance follows the standard ratio rule ``u < min(1, q(x)/p(x))``
against the proposal distribution each candidate was actually drawn from.
The children of a sampled tree, a chain's, were drawn from their parent's
recorded draft distribution, which is their proposal. The children of a
drafted tree are deterministic top-probability picks, i.e. point-mass
proposals, so a rejected child simply has its token's mass removed from the
residual before the next sibling is tried. Either way each attempt is one
exact rejection-sampling round, so the committed token is distributed as
the target distribution.

After the walk the speculative rows are rolled back and the newly committed
tokens are decoded once more with score capture; that pass supplies the
next root distribution and the last-layer attention rows, and it keeps the
cache position set equal to the committed tokens after every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import KVCache
from .drafting import ChainDraft, DraftTree, chain_tree, tree_block
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


def walk_tree(tree: DraftTree, rows: dict[int, np.ndarray], rng: Rng,
              temperature: float) -> WalkResult:
    """Pure walk from the root: try children in draft-probability order,
    taking each rejected child's proposal out of the residual (its token's
    mass, or its parent's ``dist`` in a sampled tree); sample the correction
    from the final residual, or the bonus at an accepted leaf."""
    accepted: list[int] = []
    levels: list[LevelRecord] = []
    correction = None
    bonus = None
    node = 0
    while True:
        q_cur = rows[node]
        parent_dist = tree.nodes[node].dist
        children = sorted(tree.children_of(node),
                          key=lambda c: (-float(parent_dist[tree.nodes[c].token]), c))
        if not children:
            bonus = draw(q_cur, rng, temperature)
            levels.append(LevelRecord(target_dist=q_cur, proposal_dist=parent_dist,
                                      first_candidate=None, committed=bonus,
                                      accepted=False,
                                      draft_logits=tree.nodes[node].logits))
            break
        proposal = parent_dist if tree.sampled else None
        residual = q_cur
        chosen = None
        for c in children:
            tok = tree.nodes[c].token
            if _attempt(residual, tok, proposal, rng, temperature):
                chosen = c
                break
            residual = residual_after_reject(residual, tok, proposal)
        first = tree.nodes[children[0]].token
        if chosen is None:
            correction = draw(residual, rng, temperature)
            levels.append(LevelRecord(target_dist=q_cur, proposal_dist=parent_dist,
                                      first_candidate=first, committed=correction,
                                      accepted=False,
                                      draft_logits=tree.nodes[node].logits))
            break
        accepted.append(tree.nodes[chosen].token)
        levels.append(LevelRecord(target_dist=q_cur, proposal_dist=parent_dist,
                                  first_candidate=first,
                                  committed=tree.nodes[chosen].token,
                                  accepted=True,
                                  draft_logits=tree.nodes[node].logits))
        node = chosen
    return WalkResult(accepted, correction, bonus, levels)


@dataclass
class VerifyOutcome:
    """The walk, and what the commit pass over its tokens adds."""

    walk: WalkResult
    next_root_dist: np.ndarray
    last_accepted_attn_row: np.ndarray | None  # None when nothing was accepted
    last_committed_attn_row: np.ndarray


# -- verify ---------------------------------------------------------------------

def verify_tree(spec: ModelSpec, weights: Weights, cache: KVCache,
                tree: DraftTree, root_dist: np.ndarray, rng: Rng,
                temperature: float, kv_chunk: int | None = None) -> VerifyOutcome:
    """Verify a draft tree in one masked decode, in the order the draft
    decoded its nodes (``tree.tail``), then commit the surviving path."""
    committed_before = cache.world_len
    if tree.root_pos != committed_before - 1:
        raise StateError(
            f"tree root position {tree.root_pos} does not match cache ({committed_before - 1})"
        )
    if sorted(tree.tail) != list(range(1, tree.size)):
        raise StateError(f"the tree's tail must hold each of its {tree.size - 1} "
                         f"non-root nodes once, got {tree.tail}")
    rows: dict[int, np.ndarray] = {0: root_dist}
    if tree.tail:
        tokens, mask, positions = tree_block(tree, tree.tail)
        out = decode_step(spec, weights, tokens, cache, tree_mask=mask,
                          positions=positions, kv_chunk=kv_chunk)
        for row, node in enumerate(tree.tail):
            rows[node] = next_token_dist(out.logits[row], temperature)
    walk = walk_tree(tree, rows, rng, temperature)
    return _commit(spec, weights, cache, committed_before, walk, temperature, kv_chunk)


def verify_chain(spec: ModelSpec, weights: Weights, cache: KVCache,
                 draft: ChainDraft, root_dist: np.ndarray, rng: Rng,
                 temperature: float, kv_chunk: int | None = None) -> VerifyOutcome:
    """Verify a drafted chain as its path tree, then commit."""
    if len(draft.tokens) != len(draft.dists):
        raise ShapeError("drafted tokens and distributions disagree in length")
    return verify_tree(spec, weights, cache, chain_tree(draft, cache.world_len - 1),
                       root_dist, rng, temperature, kv_chunk)


# -- commit ---------------------------------------------------------------------

def _commit(spec: ModelSpec, weights: Weights, cache: KVCache,
            committed_before: int, walk: WalkResult,
            temperature: float, kv_chunk: int | None) -> VerifyOutcome:
    """Roll back speculation, append the committed tokens with score capture."""
    cache.truncate(committed_before)
    commit_tokens = walk.committed
    out = decode_step(spec, weights, commit_tokens, cache,
                      positions=np.arange(committed_before,
                                          committed_before + len(commit_tokens)),
                      capture_scores=True, kv_chunk=kv_chunk)
    attn_rows = out.last_layer_attn
    a = len(walk.accepted)
    return VerifyOutcome(
        walk=walk,
        next_root_dist=next_token_dist(out.logits[-1], temperature),
        last_accepted_attn_row=attn_rows[a - 1].copy() if a >= 1 else None,
        last_committed_attn_row=attn_rows[-1].copy(),
    )


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
