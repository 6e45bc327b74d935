"""Command-line entry points: gen-model, run, needle, speedup-model, report."""

from __future__ import annotations

import argparse
import json
import sys

from .config import parse_config
from .errors import SpecDeskError
from .harness import run_experiment
from .model import ModelSpec
from .modelgen import gen_model
from .reports import reaggregate, report_json
from .speedup import SpeedupInputs, speedup_model

DESK_SCALE_NOTE = ("note: desk-scale run; relative orderings are meaningful, "
                   "absolute throughput multipliers are not")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("overrides", nargs="*", help="key=value overrides")


def _cmd_gen_model(args) -> int:
    spec = None
    if args.kind == "random":
        spec = ModelSpec(n_layers=args.layers, n_heads=args.heads,
                         d_model=args.heads * args.d_head, d_head=args.d_head,
                         vocab=args.vocab, max_pos=args.max_pos,
                         rope_base=args.rope_base)
    out_spec = gen_model(args.out, args.kind, args.seed, spec=spec,
                         weak_match_mass=args.weak_match_mass)
    print(f"wrote {args.out}: {out_spec.n_layers} layers, vocab {out_spec.vocab}, "
          f"d_model {out_spec.d_model}")
    return 0


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, args.overrides)
    run = run_experiment(cfg)
    print(json.dumps(report_json(run.report), indent=2))
    print(DESK_SCALE_NOTE, file=sys.stderr)
    return 0


def _cmd_needle(args) -> int:
    rows = []
    for policy in ("full", "streaming", "retrieval"):
        cfg = parse_config(args.config, args.overrides + [f"policy={policy}", "task=needle"])
        run = run_experiment(cfg)
        n = run.report.needle
        rows.append((policy, run.report.tau, n))
        if cfg.out:
            print(f"{policy}: report written to {cfg.out}")
    print(f"{'policy':<12}{'tau':>8}{'accuracy':>10}{'ppl':>10}{'reproduced':>12}")
    for policy, tau, n in rows:
        if n is None:
            print(f"{policy:<12}{tau:>8.3f}{'n/a':>10}{'n/a':>10}{'n/a':>12}")
        else:
            print(f"{policy:<12}{tau:>8.3f}{n.accuracy:>10.3f}{n.perplexity:>10.3f}"
                  f"{str(n.reproduced):>12}")
    print(DESK_SCALE_NOTE, file=sys.stderr)
    return 0


def _cmd_speedup(args) -> int:
    result = speedup_model(SpeedupInputs(
        tau=args.tau, d=args.d, t_draft=args.t_draft, t_target=args.t_target,
        t_verify=args.t_verify))
    print(json.dumps({"ratio": result.ratio, "speedup": result.speedup}, indent=2))
    return 0


def _cmd_report(args) -> int:
    print(json.dumps(reaggregate(args.run_dir), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="specdesk")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="write a deterministic weight file")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["random", "copy"], default="copy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--d-head", type=int, default=16)
    p.add_argument("--vocab", type=int, default=32)
    p.add_argument("--max-pos", type=int, default=4096)
    p.add_argument("--rope-base", type=float, default=10000.0)
    p.add_argument("--weak-match-mass", type=float, default=None)
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("run", help="run one experiment")
    _add_run_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("needle", help="needle task across all three draft-cache policies")
    _add_run_args(p)
    p.set_defaults(func=_cmd_needle)

    p = sub.add_parser("speedup-model", help="analytic speedup calculator")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t-draft", type=float, required=True)
    p.add_argument("--t-target", type=float, required=True)
    p.add_argument("--t-verify", type=float, required=True)
    p.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("report", help="re-aggregate an emitted run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecDeskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
