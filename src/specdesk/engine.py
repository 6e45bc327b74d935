"""Generation session: prefill, then retrieval-update / draft / verify steps.

The target always runs a full cache; only the draft cache is subject to a
policy. The draft's layers are the target's first layers (``derive_draft``,
or the target itself), so its K/V at every committed position are rows the
target has already computed, and it never prefills. At each step the target
holds the committed positions ``0 .. R`` at index = position, ``R`` being
the root, the last committed token. The draft reads the rows of ``[0, R)``
its policy names in place: all of them for a full draft, the sink and
recent window for a streaming draft, the generated rows for a retrieval
draft, which also holds the prompt chunks its last update gathered. It
decodes the root, then its tree's nodes (a chain is a sampled tree of
width one); after verification it drops them and reads the rows for the
new root (``KVCache.read_source``).

The target decodes a step's nodes only when its walk accepts a root child,
then the correction or bonus (``verification.verify_tree``). Its cache
holds committed rows only, so it is sized once to the furthest position a
run may commit: the last step may start one token short of ``gen_tokens``
and commit its deepest draft plus the bonus. The draft's store holds the
most prompt rows its policy gathers and one step's root and nodes. An
append past the reserved rows raises.

A retrieval draft is updated from the target's last-layer attention row
of the step's root: at the first step the prefill's last row, after that
the row the commit pass captured when it decoded that token
(``VerifyOutcome.attn_row``). The first update fires immediately after
prefill; ``retrieval.maybe_update`` decides when an update is due and
turns the row into a selection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cache import CachePolicy, FullPolicy, KVCache, RetrievalPolicy
from .drafting import TreeBudget, draft_chain, draft_tree
from .errors import CapacityError, InternalError, ParameterError
from .metrics import ProposalLog, natural_divergence, shannon_entropy
from .model import ForwardOutput, ModelSpec, Weights, next_token_dist, prefill, token_ids
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
                   capacity: int, policy: CachePolicy = FullPolicy(), *,
                   max_nodes: int) -> tuple[KVCache, KVCache, ForwardOutput]:
    """Prefill the target on ``prompt`` and seed the draft cache from it.

    Returns ``(target_cache, draft_cache, target prefill output)``; the
    output holds the last prompt row's logits and attention only. The
    target cache reserves ``capacity`` rows. The draft, whose layers are the
    target's first ``dspec.n_layers``, is seeded over those layers' rows for
    all but the last prompt token, the first root, and reads the rows
    ``policy`` names in place. It reserves store rows for the most prompt
    rows the policy gathers and for a tree of ``max_nodes`` nodes.
    """
    n = len(prompt)
    target_cache = KVCache(tspec.n_layers, tspec.n_heads, tspec.d_head, capacity)
    out = prefill(tspec, tw, prompt, target_cache, capture_scores=True,
                  last_row_only=True)
    draft_cache = KVCache.seeded(target_cache, dspec.n_layers, n - 1,
                                 policy.prefix_rows(n - 1) + max_nodes)
    draft_cache.read_source(n - 1, policy.in_place(n - 1, n - 1))
    return target_cache, draft_cache, out


def check_session_keys(drafting: str, k: int, temperature: float,
                       hta_chunk: int | None) -> None:
    """Refuse a bad drafting mode, chain length, temperature or verify tile.

    These checks need no model, so a caller can run them before it builds
    or reads one; ``Session`` runs them too.
    """
    if drafting not in ("chain", "tree"):
        raise ParameterError(f"unknown drafting mode: {drafting!r}")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ParameterError(f"temperature must be finite and >= 0, got {temperature}")
    if drafting == "chain" and k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if hta_chunk is not None and hta_chunk < 0:
        raise ParameterError(f"hta_chunk must be >= 0, got {hta_chunk}")


class Session:
    """One generation run; owns both caches and the RNG."""

    def __init__(self, target_spec: ModelSpec, target_weights: Weights,
                 draft_spec: ModelSpec, draft_weights: Weights,
                 policy: CachePolicy, drafting: str = "chain", k: int = 4,
                 budget: TreeBudget | None = None, temperature: float = 0.0,
                 seed: int = 0, hta_chunk: int | None = None):
        check_session_keys(drafting, k, temperature, hta_chunk)
        if not isinstance(policy, CachePolicy):
            raise ParameterError(f"unknown cache policy: {policy!r}")
        if drafting == "chain":  # a chain is the sampled tree of depth k
            budget = TreeBudget(max_nodes=k + 1, max_depth=k, expand_threshold=1.0)
        elif budget is None:
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
        prompt = token_ids(prompt, self.target_spec.vocab, "prompt tokens").tolist()
        if len(prompt) < 2:
            raise ParameterError("prompt must have at least 2 tokens")
        if isinstance(gen_tokens, bool) or not isinstance(gen_tokens, (int, np.integer)):
            raise ParameterError(f"gen_tokens must be an integer, got {gen_tokens!r}")
        if gen_tokens < 1:
            raise ParameterError(f"gen_tokens must be >= 1, got {gen_tokens}")
        # The last step may start one token short of gen_tokens and commit
        # its deepest draft plus the bonus: refuse before any work, and
        # reserve that many target rows.
        reach = (len(prompt) + gen_tokens
                 + min(self.budget.max_depth, self.budget.max_nodes - 1))
        if reach > self.target_spec.max_pos:
            raise CapacityError(f"the run may decode position {reach - 1}, past max_pos "
                                f"{self.target_spec.max_pos}")
        t_start = time.perf_counter()
        tspec, tw = self.target_spec, self.target_weights
        dspec, dw = self.draft_spec, self.draft_weights

        t0 = time.perf_counter()
        target_cache, draft_cache, out = prefill_caches(
            tspec, tw, dspec, prompt, reach, self.policy,
            max_nodes=self.budget.max_nodes)
        root_dist = next_token_dist(out.logits[-1], self.temperature)
        row = out.last_layer_attn[-1]  # the first root's row, which retrieval reads
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

            t0 = time.perf_counter()
            n_before = len(committed)
            if self.drafting == "chain":
                chain = draft_chain(dspec, dw, draft_cache, committed[-1], self.k,
                                    self.temperature, self.rng)
                tree, tree_nodes = chain.tree, 0
            else:
                tree = draft_tree(dspec, dw, draft_cache, committed[-1], self.budget,
                                  self.temperature)
                tree_nodes = tree.size
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
            root_dist, row = outc.next_root_dist, outc.attn_row

            # The draft drops its tree and reads the rows before the new root.
            root = len(committed) - 1
            draft_cache.read_source(root, self.policy.in_place(draft_cache.prefix_len, root))

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
                step=step_idx, drafted=tree.size - 1, accepted=len(walk.accepted),
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
    """Target-only greedy decoding of ``gen_tokens >= 1`` tokens, the
    losslessness oracle. The last token is not decoded: no one reads its
    logits."""
    from .model import decode_step

    cache = KVCache(spec.n_layers, spec.n_heads, spec.d_head,
                    capacity=len(prompt) + gen_tokens - 1)
    out = prefill(spec, weights, prompt, cache, last_row_only=True)
    tokens = [int(np.argmax(out.logits[-1]))]
    for pos in range(len(prompt), len(prompt) + gen_tokens - 1):
        step = decode_step(spec, weights, tokens[-1:], cache, positions=np.array([pos]))
        tokens.append(int(np.argmax(step.logits[-1])))
    return tokens
