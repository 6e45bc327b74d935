"""Generation session: prefill, then retrieval-update / draft / verify steps.

The target always runs a full cache; only the draft cache is subject to a
policy. The draft's layers are the target's first layers (``derive_draft``,
or the target itself), so the target's prefill has already computed the
draft's prompt K/V for all but the last prompt token. The draft never
prefills: it reads the prompt rows its policy holds from the target cache,
all of them for a full draft, the sink and recent window for a streaming
draft, and the selected chunks at each update for a retrieval draft (none
before its first). Every step, including the first, then
drafts from a post-update cache. The drafters leave their rows in the draft
cache; after verification it keeps the rows of the accepted tokens (a
tree's accepted path compacted in place) and drops the rest. So the pending
block of the next step's drafting is the correction or bonus token, after
a fully accepted chain also the last drafted token, which a chain never
decodes; its last row yields the first proposal distribution.

Both caches are sized once from the prompt length, ``gen_tokens`` and the
largest block a step appends, the draft's for the most prompt rows its
policy holds; an append past the reserved rows raises.

A retrieval draft is updated from the target's last-layer attention row
of the most recent commit: the deepest accepted token's row, or the
previous commit's last row when nothing was accepted. The first update
fires immediately after prefill from the prefill's last-token row;
``retrieval.maybe_update`` decides when an update is due and turns the row
into a selection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cache import CachePolicy, FullPolicy, KVCache, RetrievalPolicy, StreamingPolicy
from .drafting import TreeBudget, draft_chain, draft_tree, keep_path
from .errors import CapacityError, InternalError, ParameterError
from .metrics import ProposalLog, natural_divergence, shannon_entropy
from .model import ForwardOutput, ModelSpec, Weights, next_token_dist, prefill
from .retrieval import RetrievalState, maybe_update
from .tensor import Rng
from .verification import VerifyOutcome, verify_chain, verify_tree


@dataclass
class StepReport:
    step: int
    drafted: int
    accepted: int
    tree_nodes: int  # 0 for chain steps
    retrieval_update: bool
    draft_ms: float
    verify_ms: float
    update_ms: float
    divergence: list[float] = field(default_factory=list)


@dataclass
class SessionResult:
    output_tokens: list[int]
    steps: list[StepReport]
    prefill_s: float
    wall_s: float
    proposals: list[ProposalLog]
    entropy_accept: list[tuple[float, bool]]
    max_draft_prefix_live: int
    draft_cache_len_by_step: list[int]


def _check_shared_prefix(tspec: ModelSpec, tw: Weights,
                         dspec: ModelSpec, dw: Weights) -> None:
    """The draft must be the target's embedding and first layers, with the
    same attention geometry, so that its prompt K/V are the target's."""
    shared = (dw.embed is tw.embed
              and len(dw.layers) == dspec.n_layers <= len(tw.layers)
              and all(d is t for d, t in zip(dw.layers, tw.layers))
              and (dspec.n_heads, dspec.d_head, dspec.rope_base)
              == (tspec.n_heads, tspec.d_head, tspec.rope_base))
    if not shared:
        raise ParameterError("the draft must share the target's embedding and first "
                             "layers (build it with derive_draft)")


def prefill_caches(tspec: ModelSpec, tw: Weights, dspec: ModelSpec, prompt,
                   capacity: int, policy: CachePolicy = FullPolicy()
                   ) -> tuple[KVCache, KVCache, ForwardOutput]:
    """Prefill the target on ``prompt`` and seed the draft cache from it.

    Returns ``(target_cache, draft_cache, target prefill output)``; the
    output holds the last prompt row's logits and attention only. The
    target cache reserves ``capacity`` rows. The draft, whose layers are the
    target's first ``dspec.n_layers``, is seeded over those layers' rows for
    all but the last prompt token, which is the first pending commit, and
    holds the rows ``policy.held_rows`` picks. It reserves room for the most
    prompt rows the policy holds and for the target's generation room.
    """
    n = len(prompt)
    target_cache = KVCache(tspec.n_layers, tspec.n_heads, tspec.d_head, capacity)
    out = prefill(tspec, tw, prompt, target_cache, capture_scores=True,
                  last_row_only=True)
    draft_cache = KVCache.seeded(target_cache, dspec.n_layers, n - 1,
                                 policy.prefix_rows(n - 1) + capacity - n)
    draft_cache.hold_prefix(policy.held_rows(n - 1))
    return target_cache, draft_cache, out


class Session:
    """One generation run; owns both caches and the RNG."""

    def __init__(self, target_spec: ModelSpec, target_weights: Weights,
                 draft_spec: ModelSpec, draft_weights: Weights,
                 policy: CachePolicy, drafting: str = "chain", k: int = 4,
                 budget: TreeBudget | None = None, temperature: float = 0.0,
                 seed: int = 0, hta_chunk: int | None = None):
        if drafting not in ("chain", "tree"):
            raise ParameterError(f"unknown drafting mode: {drafting!r}")
        if not isinstance(policy, CachePolicy):
            raise ParameterError(f"unknown cache policy: {policy!r}")
        if not (math.isfinite(temperature) and temperature >= 0):
            raise ParameterError(f"temperature must be finite and >= 0, got {temperature}")
        if drafting == "chain" and k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        if hta_chunk is not None and hta_chunk < 0:
            raise ParameterError(f"hta_chunk must be >= 0, got {hta_chunk}")
        if drafting == "tree" and budget is None:
            budget = TreeBudget(max_nodes=50, max_depth=10, expand_threshold=0.7)
        _check_shared_prefix(target_spec, target_weights, draft_spec, draft_weights)
        self.target_spec, self.target_weights = target_spec, target_weights
        self.draft_spec, self.draft_weights = draft_spec, draft_weights
        self.policy = policy
        self.drafting = drafting
        self.k = k
        self.budget = budget
        self.temperature = temperature
        self.rng = Rng(seed)
        self.hta_chunk = hta_chunk

    def run(self, prompt, gen_tokens: int) -> SessionResult:
        prompt = [int(t) for t in prompt]
        if len(prompt) < 2:
            raise ParameterError("prompt must have at least 2 tokens")
        vocab = self.target_spec.vocab
        if not all(0 <= t < vocab for t in prompt):
            raise ParameterError(f"prompt tokens must lie in [0, {vocab})")
        if gen_tokens < 1:
            raise ParameterError(f"gen_tokens must be >= 1, got {gen_tokens}")
        # The last step may start one token short of gen_tokens and commit
        # its deepest draft plus the bonus: refuse before any work.
        depth = (self.k if self.drafting == "chain"
                 else min(self.budget.max_depth, self.budget.max_nodes - 1))
        reach = len(prompt) + gen_tokens + depth
        if reach > self.target_spec.max_pos:
            raise CapacityError(f"the run may decode position {reach - 1}, past max_pos "
                                f"{self.target_spec.max_pos}")
        t_start = time.perf_counter()
        tspec, tw = self.target_spec, self.target_weights
        dspec, dw = self.draft_spec, self.draft_weights
        block = self.k if self.drafting == "chain" else self.budget.max_nodes
        capacity = len(prompt) + gen_tokens + block + 1

        t0 = time.perf_counter()
        target_cache, draft_cache, out = prefill_caches(tspec, tw, dspec, prompt,
                                                        capacity, self.policy)
        root_dist = next_token_dist(out.logits[-1], self.temperature)
        # The rows retrieval reads: this step's, and the last commit's.
        row = last_row = out.last_layer_attn[-1]
        prefill_s = time.perf_counter() - t0

        retr = None
        if isinstance(self.policy, RetrievalPolicy):
            retr = RetrievalState(self.policy)

        committed = list(prompt)
        steps: list[StepReport] = []
        proposals: list[ProposalLog] = []
        entropy_accept: list[tuple[float, bool]] = []
        max_prefix_live = 0
        cache_len_by_step: list[int] = []
        step_idx = 0

        while len(committed) - len(prompt) < gen_tokens:
            step_idx += 1
            t0 = time.perf_counter()
            updated = False
            if retr is not None:
                updated = maybe_update(retr, row, draft_cache)
                if updated:
                    bound = self.policy.prefix_rows(draft_cache.prefix_len)
                    if draft_cache.generation_boundary > bound:
                        raise InternalError(
                            f"draft prefix cache {draft_cache.generation_boundary} "
                            f"exceeds working bound {bound}"
                        )
            update_ms = (time.perf_counter() - t0) * 1e3
            max_prefix_live = max(max_prefix_live, draft_cache.generation_boundary)

            # Sync the draft cache with tokens committed by earlier steps.
            pending = committed[draft_cache.world_len:]
            if not pending:
                raise InternalError("draft cache is ahead of committed tokens")

            t0 = time.perf_counter()
            n_before = len(committed)
            if self.drafting == "chain":
                chain = draft_chain(dspec, dw, draft_cache, pending, self.k,
                                    self.temperature, self.rng)
                drafted_n, tree_nodes = len(chain.tokens), 0
            else:
                tree = draft_tree(dspec, dw, draft_cache, pending, self.budget,
                                  self.temperature)
                drafted_n, tree_nodes = tree.size - 1, tree.size
            draft_ms = (time.perf_counter() - t0) * 1e3

            t0 = time.perf_counter()
            if self.drafting == "chain":
                outc: VerifyOutcome = verify_chain(
                    tspec, tw, target_cache, chain, root_dist, self.rng,
                    self.temperature, kv_chunk=self.hta_chunk)
            else:
                outc = verify_tree(tspec, tw, target_cache, tree, root_dist,
                                   self.rng, self.temperature,
                                   kv_chunk=self.hta_chunk)
            verify_ms = (time.perf_counter() - t0) * 1e3

            walk = outc.walk
            committed.extend(walk.committed)
            root_dist = outc.next_root_dist

            # Roll the draft cache back to the committed world, keeping the
            # accepted tokens' rows.
            if self.drafting == "tree":
                keep_path(draft_cache, tree, walk.accepted)
            draft_cache.truncate(n_before + len(walk.accepted))
            if isinstance(self.policy, StreamingPolicy):
                draft_cache.keep(self.policy.held_rows(draft_cache.archive_len))

            row = outc.last_accepted_attn_row if walk.accepted else last_row
            last_row = outc.last_committed_attn_row

            # Metrics bookkeeping.
            div = []
            for lvl in walk.levels:
                entropy_accept.append((shannon_entropy(lvl.target_dist), lvl.accepted))
                if lvl.proposal_dist is not None:
                    div.append(natural_divergence(lvl.proposal_dist, lvl.target_dist))
            for i, lvl in enumerate(walk.levels):
                if lvl.first_candidate is None or lvl.draft_logits is None:
                    continue
                pos = n_before - len(prompt) + i
                metric = next_token_dist(lvl.draft_logits, 1.0)
                proposals.append(ProposalLog(
                    position=pos, proposed=lvl.first_candidate,
                    committed=lvl.committed,
                    metric_prob=float(metric[lvl.committed])))

            steps.append(StepReport(
                step=step_idx, drafted=drafted_n, accepted=len(walk.accepted),
                tree_nodes=tree_nodes, retrieval_update=updated,
                draft_ms=draft_ms, verify_ms=verify_ms,
                update_ms=update_ms, divergence=div))
            cache_len_by_step.append(draft_cache.archive_len)

        wall_s = time.perf_counter() - t_start
        output = committed[len(prompt):len(prompt) + gen_tokens]
        return SessionResult(
            output_tokens=output, steps=steps, prefill_s=prefill_s,
            wall_s=wall_s, proposals=proposals, entropy_accept=entropy_accept,
            max_draft_prefix_live=max_prefix_live,
            draft_cache_len_by_step=cache_len_by_step)


def greedy_reference(spec: ModelSpec, weights: Weights, prompt,
                     gen_tokens: int) -> list[int]:
    """Target-only greedy decoding, the losslessness oracle."""
    from .model import decode_step

    cache = KVCache(spec.n_layers, spec.n_heads, spec.d_head,
                    capacity=len(prompt) + gen_tokens)
    out = prefill(spec, weights, prompt, cache, last_row_only=True)
    tokens = []
    logits = out.logits[-1]
    pos = len(prompt)
    for _ in range(gen_tokens):
        tok = int(np.argmax(logits))
        tokens.append(tok)
        step = decode_step(spec, weights, [tok], cache, positions=np.array([pos]))
        logits = step.logits[-1]
        pos += 1
    return tokens
