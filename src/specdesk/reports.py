"""Run reports: the summary JSON and the per-step CSV.

Schemas are fixed:

* ``summary.json``: {config, tau, tokens_per_s, total_tokens, wall_s,
  phase_s:{draft, verify, cache_update, prefill}, divergence_by_pos,
  acceptance:{hard, easy}, needle:{accuracy, ppl}|null}
* ``steps.csv`` columns: step,drafted,accepted,tree_nodes,retrieval_update,
  draft_ms,verify_ms,update_ms
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import SessionResult, StepReport
from .errors import ParameterError
from .metrics import (NeedleMetrics, buckets_from_entropies, needle_metrics,
                      tau_from_counts)

CSV_COLUMNS = ["step", "drafted", "accepted", "tree_nodes", "retrieval_update",
               "draft_ms", "verify_ms", "update_ms"]
DIVERGENCE_POSITIONS = 8


@dataclass
class RunReport:
    config: dict
    tau: float
    tokens_per_s: float
    total_tokens: int
    wall_s: float
    phase_s: dict
    divergence_by_pos: list[float]
    acceptance: dict
    needle: NeedleMetrics | None
    # Desk-scale extras kept off the wire (the JSON schema is fixed).
    max_draft_prefix_live: int = 0


def build_report(cfg_dict: dict, result: SessionResult,
                 expected: list[int] | None) -> RunReport:
    steps = result.steps
    tau = tau_from_counts([s.accepted for s in steps])
    total = len(result.output_tokens)
    div_sums = np.zeros(DIVERGENCE_POSITIONS)
    div_counts = np.zeros(DIVERGENCE_POSITIONS)
    for s in steps:
        for i, d in enumerate(s.divergence[:DIVERGENCE_POSITIONS]):
            div_sums[i] += d
            div_counts[i] += 1
    divergence = [float(div_sums[i] / div_counts[i]) if div_counts[i] else None
                  for i in range(DIVERGENCE_POSITIONS)]
    while divergence and divergence[-1] is None:
        divergence.pop()
    if len(result.entropy_accept) >= 10:
        acceptance = buckets_from_entropies(
            [e for e, _ in result.entropy_accept],
            [a for _, a in result.entropy_accept])
    else:
        acceptance = {"hard": None, "easy": None}
    needle = None
    if expected is not None:
        needle = needle_metrics(result.proposals, result.output_tokens, expected)
    return RunReport(
        config=cfg_dict,
        tau=tau,
        tokens_per_s=total / result.wall_s if result.wall_s > 0 else 0.0,
        total_tokens=total,
        wall_s=result.wall_s,
        phase_s={
            "draft": sum(s.draft_ms for s in steps) / 1e3,
            "verify": sum(s.verify_ms for s in steps) / 1e3,
            "cache_update": sum(s.update_ms for s in steps) / 1e3,
            "prefill": result.prefill_s,
        },
        divergence_by_pos=divergence,
        acceptance=acceptance,
        needle=needle,
        max_draft_prefix_live=result.max_draft_prefix_live,
    )


def report_json(report: RunReport) -> dict:
    return {
        "config": report.config,
        "tau": report.tau,
        "tokens_per_s": report.tokens_per_s,
        "total_tokens": report.total_tokens,
        "wall_s": report.wall_s,
        "phase_s": report.phase_s,
        "divergence_by_pos": report.divergence_by_pos,
        "acceptance": report.acceptance,
        "needle": ({"accuracy": report.needle.accuracy, "ppl": report.needle.perplexity}
                   if report.needle is not None else None),
    }


def emit_report(report: RunReport, steps: list[StepReport], out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(report_json(report), indent=2) + "\n")
    with open(out / "steps.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for s in steps:
            writer.writerow([s.step, s.drafted, s.accepted, s.tree_nodes,
                             int(s.retrieval_update), f"{s.draft_ms:.3f}",
                             f"{s.verify_ms:.3f}", f"{s.update_ms:.3f}"])


def reaggregate(run_dir: str) -> dict:
    """Recompute tau and bookkeeping from an emitted run directory."""
    out = Path(run_dir)
    try:
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "steps.csv") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        raise ParameterError(f"{run_dir}: cannot read {exc.filename}: {exc.strerror}") from exc
    if not rows:
        raise ParameterError(f"{run_dir}: steps.csv has no rows")
    tau = tau_from_counts([int(r["accepted"]) for r in rows])
    committed = sum(int(r["accepted"]) + 1 for r in rows)
    consistent = (abs(tau - summary["tau"]) < 1e-9
                  and committed >= summary["total_tokens"])
    return {"tau": tau, "steps": len(rows), "committed": committed,
            "consistent_with_summary": bool(consistent)}
