"""The benchmark's workloads and the set-up each session needs.

Every workload is the doc task at temperature 0 with the copy model
(``weak_match_mass=100``, ``loop_len=15``, ``k=4``), so tau and the output
tokens are deterministic for a given seed. The seed only reshuffles the
generated prompt; the program sees nothing but that prompt.
"""

from __future__ import annotations

from dataclasses import dataclass

from specdesk import harness
from specdesk.config import RunConfig, parse_config
from specdesk.drafting import TreeBudget
from specdesk.engine import Session
from specdesk.model import ModelSpec, Weights, derive_draft
from specdesk.tasks import NeedleTask

BASE_OVERRIDES = ["task=doc", "weak_match_mass=100", "loop_len=15", "k=4",
                  "temperature=0"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prompt_len: int
    policy: str
    drafting: str
    gen_tokens: int

    def config(self, seed: int) -> RunConfig:
        return parse_config(overrides=BASE_OVERRIDES + [
            f"seed={seed}", f"prompt_len={self.prompt_len}",
            f"policy={self.policy}", f"drafting={self.drafting}",
            f"gen_tokens={self.gen_tokens}",
        ])


WORKLOADS = {w.name: w for w in [
    Workload("doc8k-retrieval-chain",
             "the paper's regime: 8K prompt, retrieval draft cache, chain; "
             "prefill-heavy, exercises retrieval rebuilds and layer_view copies",
             prompt_len=8192, policy="retrieval", drafting="chain", gen_tokens=256),
    Workload("doc2k-full-tree",
             "decode-heavy: 2K prompt, full draft cache, 50-node tree; tree "
             "refreshes and chunked verify, retrieval never runs",
             prompt_len=2048, policy="full", drafting="tree", gen_tokens=512),
    Workload("doc8k-full-chain",
             "the Full baseline: same 8K prompt, full draft cache, chain; "
             "1-token reads of the whole 8K cache at tau 1.16",
             prompt_len=8192, policy="full", drafting="chain", gen_tokens=64),
]}


@dataclass
class Setup:
    """Everything built before a session: models, draft, prompt, task."""

    cfg: RunConfig
    target: tuple[ModelSpec, Weights]
    draft: tuple[ModelSpec, Weights]
    prompt: list[int]
    task: NeedleTask


def build_setup(workload: Workload, seed: int) -> Setup:
    """``build_models`` + ``derive_draft`` + ``build_task``: what setup_s times."""
    cfg = workload.config(seed)
    target = harness.build_models(cfg)
    draft = derive_draft(*target, cfg.draft_layers)
    prompt, task = harness.build_task(cfg)
    return Setup(cfg, target, draft, [int(t) for t in prompt], task)


def new_session(setup: Setup) -> Session:
    cfg = setup.cfg
    return Session(*setup.target, *setup.draft, policy=harness.build_policy(cfg),
                   drafting=cfg.drafting, k=cfg.k,
                   budget=TreeBudget(cfg.max_nodes, cfg.max_depth, cfg.expand_threshold),
                   temperature=cfg.temperature, seed=cfg.seed,
                   hta_chunk=cfg.hta_chunk if cfg.hta_chunk > 0 else None)
