"""Benchmark of ``specdesk``: one workload, one seed, one process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload doc8k-retrieval-chain --seed 7 \\
        --seconds 35 --trace 0

The program under test is imported from ``src/`` of the same checkout and
driven only through its public Python API. Sessions run one after another
(a closed loop with one client). Every session's output is compared with
``engine.greedy_reference``, computed once outside the timed region; that
reference run also warms the process up.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a run that alternates untraced and traced sessions. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 25
MIN_SESSIONS = 3  # timed sessions per untraced run, even past --seconds

# name -> (unit, better); mirrored by BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "prefill_s": ("s", "lower"),
    "decode_tok_s": ("tok/s", "higher"),
    "wall_s": ("s", "lower"),
    "tau": ("tok/step", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "lossless_rate": ("ratio", "higher"),
}
PER_LAYER = {
    "model.prefill.target_s": "s",
    "model.prefill.draft_s": "s",
    "model.fwd.draft_per_step": "count",
    "model.fwd.target_verify_per_step": "count",
    "model.fwd.target_commit_per_step": "count",
    "model.fwd.draft_ms": "ms",
    "model.fwd.target_verify_ms": "ms",
    "model.fwd.target_commit_ms": "ms",
    "attn.monolithic_s": "s",
    "attn.online_s": "s",
    "attn.score_elems": "count",
    "attn.concat_mb": "MB",
    "cache.view_rows_copied": "count",
    "cache.rows_rolled_back": "count",
    "retrieval.update_ms": "ms",
    "retrieval.updates": "count",
    "retrieval.churn": "ratio",
    "retrieval.needle_hit": "ratio",
    "drafting.draft_ms_per_step": "ms",
    "drafting.accept_ratio": "ratio",
    "drafting.decoded_per_node": "ratio",
    "verification.verify_ms_per_step": "ms",
    "engine.step_ms.p50": "ms",
    "engine.step_ms.p90": "ms",
    "trace.overhead_s": "s",
}


def load_program(root: Path = ROOT) -> None:
    """Put the checkout's ``src/`` first on the import path.

    Raises ``FileNotFoundError`` when the checkout holds no program, so the
    benchmark never measures a copy installed elsewhere.
    """
    src = root / "src"
    if not (src / "specdesk" / "__init__.py").is_file():
        raise FileNotFoundError(f"no specdesk package under {src}")
    sys.path.insert(0, str(src))


class Gate:
    """Losslessness gate: every session must reproduce the greedy output."""

    def __init__(self, reference: list[int]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, session, prompt: list[int], gen_tokens: int):
        """Run one session; return ``(result, wall_s)``, or None if it raised.

        A session whose output differs from the reference still returns its
        result, so its timings are reported, but it counts as failed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = session.run(prompt, gen_tokens)
        except Exception:  # a raising session is a counted failure, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        wall = time.perf_counter() - t0
        if result.output_tokens != self.reference:
            print(f"session {self.attempted}: output differs from greedy reference",
                  file=sys.stderr)
            self.failed += 1
        return result, wall


def _tau(result) -> float:
    from specdesk.metrics import tau_from_counts
    return tau_from_counts([s.accepted for s in result.steps])


def _fits(t_end: float, walls: list[float]) -> bool:
    """Whether one more session of the slowest length seen ends in time."""
    return bool(walls) and time.perf_counter() + max(walls) <= t_end


def measure(workload, seed: int, seconds: float, trace: bool,
            reference: list[int] | None = None) -> dict:
    """Run one workload and return the result object the benchmark prints.

    ``reference`` overrides the greedy reference; the tests use it to show
    that a wrong output fails the gate.
    """
    from specdesk.engine import greedy_reference
    from workloads import build_setup, new_session

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup = build_setup(workload, seed)
        setup_times.append(time.perf_counter() - t0)
    gen = workload.gen_tokens
    if reference is None:
        reference = greedy_reference(*setup.target, setup.prompt, gen)
    gate = Gate(reference)

    if trace:
        metrics = _traced(workload, setup, gate, seconds)
    else:
        runs = []
        peak_rss_mb = None
        t_end = time.perf_counter() + seconds
        while gate.attempted < MIN_SESSIONS or _fits(t_end, [w for _, w in runs]):
            done = gate.run(new_session(setup), setup.prompt, gen)
            if done is not None:
                runs.append(done)
            if peak_rss_mb is None:
                # After one session: later ones add allocator noise, not work.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not runs:
            raise RuntimeError("every session raised")
        metrics = _end_to_end(runs, setup_times, gate, gen, peak_rss_mb)
        _print_summary(workload.name, seed, runs, gate, gen)
    units = PER_LAYER if trace else {name: unit for name, (unit, _) in END_TO_END.items()}
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _end_to_end(runs, setup_times: list[float], gate: Gate, gen: int,
                peak_rss_mb: float) -> dict:
    walls = [w for _, w in runs]
    prefills = [r.prefill_s for r, _ in runs]
    return {
        "setup_s": statistics.median(setup_times),
        "prefill_s": statistics.median(prefills),
        "decode_tok_s": statistics.median(gen / (w - p) for w, p in zip(walls, prefills)),
        "wall_s": statistics.median(walls),
        "tau": statistics.median(_tau(r) for r, _ in runs),
        "peak_rss_mb": peak_rss_mb,
        "lossless_rate": (gate.attempted - gate.failed) / gate.attempted,
    }


def _traced(workload, setup, gate: Gate, seconds: float) -> dict:
    """Alternate untraced and traced sessions; report per-layer medians."""
    import numpy as np
    from tracer import Tracer
    from workloads import new_session

    tracer = Tracer(setup.task.span)
    plain, traced, layers, pair_walls = [], [], [], []
    t_end = time.perf_counter() + seconds
    while not pair_walls or _fits(t_end, pair_walls):
        t0 = time.perf_counter()
        done = gate.run(new_session(setup), setup.prompt, workload.gen_tokens)
        if done is not None:
            plain.append(done)
        tracer.reset()
        with tracer.installed():
            done = gate.run(new_session(setup), setup.prompt, workload.gen_tokens)
        if done is not None:
            traced.append(done)
            steps = done[0].steps
            layers.append(tracer.layer_metrics(
                len(steps), accepted=sum(s.accepted for s in steps),
                drafted=sum(s.drafted for s in steps)))
        pair_walls.append(time.perf_counter() - t0)
    if not (plain and traced):
        raise RuntimeError("every untraced or every traced session raised")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    step_ms = [s.draft_ms + s.verify_ms + s.update_ms for r, _ in plain for s in r.steps]
    metrics["engine.step_ms.p50"] = float(np.percentile(step_ms, 50))
    metrics["engine.step_ms.p90"] = float(np.percentile(step_ms, 90))
    metrics["trace.overhead_s"] = (statistics.median(w for _, w in traced)
                                   - statistics.median(w for _, w in plain))
    print(f"# {workload.name}: {len(plain)} untraced + {len(traced)} traced sessions, "
          f"{len(step_ms)} pooled steps", flush=True)
    return metrics


def _print_summary(name: str, seed: int, runs, gate: Gate, gen: int) -> None:
    """Human-readable line with the per-session samples, in run order."""
    print(f"# {name} seed={seed}: {gate.attempted} sessions, {gate.failed} failed; "
          f"wall_s {[round(w, 3) for _, w in runs]}; "
          f"prefill_s {[round(r.prefill_s, 3) for r, _ in runs]}; "
          f"decode_tok_s {[round(gen / (w - r.prefill_s), 1) for r, w in runs]}",
          flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a specdesk checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
