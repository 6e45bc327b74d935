"""Exact work counts: forward passes and rows decoded, by role.

Timings swing by tens of percent between runs on a shared machine; counts at
temperature 0 are exact. Each run is a seed-7 pin's shape (the doc task at a
2K prompt and 64 generated tokens, see ``test_seed_runs.py``) with every
forward pass of the draft (``drafting.decode_step``) and of the target's
verify and commit passes (``verification.decode_step``) counted. A change
that makes a count rise fails here; one that makes it fall re-pins it, with
the reason in CHANGES.md.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest

from specdesk import drafting, harness, verification
from specdesk.config import parse_config

# (drafting, policy): draft forwards, draft rows, target forwards, target rows
PINS = {
    ("chain", "retrieval"): (52, 64, 26, 65),
    ("tree", "full"): (80, 85, 16, 88),
    ("chain", "full"): (60, 72, 30, 75),
}


def counted_run(drafting_mode: str, policy: str) -> Counter:
    cfg = parse_config(overrides=[
        "task=doc", "weak_match_mass=100", "loop_len=15", "seed=7",
        "prompt_len=2048", "gen_tokens=64", f"policy={policy}",
        f"drafting={drafting_mode}", "temperature=0"])
    counts: Counter = Counter()

    def counting(role, orig):
        def decode_step(spec, weights, new_tokens, *args, **kwargs):
            counts[role, "forwards"] += 1
            counts[role, "rows"] += len(new_tokens)
            return orig(spec, weights, new_tokens, *args, **kwargs)
        return decode_step

    with mock.patch.object(drafting, "decode_step",
                           counting("draft", drafting.decode_step)), \
            mock.patch.object(verification, "decode_step",
                              counting("target", verification.decode_step)):
        harness.run_experiment(cfg)
    return counts


@pytest.mark.parametrize("drafting_mode, policy", list(PINS),
                         ids=[f"{p}-{d}" for d, p in PINS])
def test_forwards_and_rows_by_role(drafting_mode, policy):
    counts = counted_run(drafting_mode, policy)
    got = tuple(counts[role, what] for role in ("draft", "target")
                for what in ("forwards", "rows"))
    assert got == PINS[drafting_mode, policy]
