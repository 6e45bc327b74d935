"""Experiment assembly: config -> models -> task -> session -> report."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cache import CachePolicy, FullPolicy, RetrievalPolicy, StreamingPolicy
from .config import RunConfig, config_dict
from .copymodel import build_copy_model
from .drafting import TreeBudget
from .engine import Session, SessionResult, check_session_keys
from .errors import ParameterError
from .model import ModelSpec, Weights, derive_draft, load_weights
from .modelgen import random_weights
from .reports import RunReport, build_report, emit_report
from .tasks import NeedleTask, cyclic_filler, loop_doc_task, standard_needle


@dataclass
class ExperimentRun:
    report: RunReport
    result: SessionResult


def build_models(cfg: RunConfig) -> tuple[ModelSpec, Weights]:
    if cfg.model == "copy":
        return build_copy_model(weak_match_mass=cfg.weak_match_mass)
    if cfg.model == "random":
        spec = ModelSpec(n_layers=cfg.n_layers, n_heads=cfg.n_heads,
                         d_model=cfg.n_heads * cfg.d_head, d_head=cfg.d_head,
                         vocab=cfg.vocab, max_pos=cfg.max_pos,
                         rope_base=cfg.rope_base)
        return spec, random_weights(spec, cfg.seed)
    if os.path.exists(cfg.model):
        return load_weights(cfg.model)
    raise ParameterError(f"model must be 'copy', 'random' or a weight file, got {cfg.model!r}")


def build_policy(cfg: RunConfig) -> CachePolicy:
    if cfg.policy == "full":
        return FullPolicy()
    if cfg.policy == "streaming":
        return StreamingPolicy(sink=cfg.streaming_sink, recent=cfg.recent)
    if cfg.policy == "retrieval":
        return RetrievalPolicy(chunk_size=cfg.chunk_size, top_k=cfg.top_k,
                               frequency=cfg.frequency, sink=cfg.sink)
    raise ParameterError(f"unknown policy: {cfg.policy!r}")


def build_task(cfg: RunConfig) -> tuple[np.ndarray, NeedleTask | None]:
    if cfg.needle_pos < -1:
        raise ParameterError(f"needle_pos must be >= 0, or -1 for auto, got {cfg.needle_pos}")
    pos = None if cfg.needle_pos == -1 else cfg.needle_pos
    if cfg.task == "needle":
        task = standard_needle(cfg.prompt_len, cfg.seed, body_len=cfg.needle_body,
                               needle_pos=pos)
        return task.tokens, task
    if cfg.task == "doc":
        task = loop_doc_task(cfg.prompt_len, cfg.seed, loop_len=cfg.loop_len,
                             needle_pos=pos)
        return task.tokens, task
    if cfg.task == "cycle":
        return cyclic_filler(cfg.prompt_len, cfg.seed), None
    raise ParameterError(f"unknown task: {cfg.task!r}")


def run_experiment(cfg: RunConfig) -> ExperimentRun:
    # Cheap checks first: the policy, the session's keys, then the prompt,
    # so a bad value fails before the work it would waste: before a model
    # is built or a weight file is read.
    policy = build_policy(cfg)
    budget = TreeBudget(cfg.max_nodes, cfg.max_depth, cfg.expand_threshold)
    check_session_keys(cfg.drafting, cfg.k, cfg.temperature, cfg.hta_chunk)
    if cfg.draft_layers < 1:  # its upper bound needs the model: derive_draft
        raise ParameterError(f"draft_layers must be >= 1, got {cfg.draft_layers}")
    prompt, task = build_task(cfg)
    target_spec, target_weights = build_models(cfg)
    draft_spec, draft_weights = derive_draft(target_spec, target_weights,
                                             cfg.draft_layers)
    session = Session(
        target_spec, target_weights, draft_spec, draft_weights,
        policy=policy, drafting=cfg.drafting, k=cfg.k, budget=budget,
        temperature=cfg.temperature, seed=cfg.seed, hta_chunk=cfg.hta_chunk,
    )
    result = session.run(prompt, cfg.gen_tokens)
    expected = task.expected if task is not None else None
    report = build_report(config_dict(cfg), result, expected)
    if cfg.out:
        emit_report(report, result.steps, cfg.out)
    return ExperimentRun(report=report, result=result)
