"""Exact work counts: forward passes, rows decoded, attention score elements
and rows copied, by role.

Timings swing by tens of percent between runs on a shared machine; counts at
temperature 0 are exact. Each run is a seed-7 pin's shape (the doc task at a
2K prompt and 64 generated tokens, see ``test_seed_runs.py``) with every
forward pass of the draft (``drafting.decode_step``) and of the target's
verify and commit passes (``verification.decode_step``) counted, every
attention score element those passes compute (``attn.attend``: query rows,
heads included, times the summed key widths of the parts), and every prompt
row ``KVCache.hold_prefix`` gathers. A change that makes a count rise fails
here; one that makes it fall re-pins it, with the reason in CHANGES.md.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from specdesk import attn, drafting, harness, verification
from specdesk.cache import KVCache
from specdesk.config import parse_config

COUNTS = [("draft", "forwards"), ("draft", "rows"), ("draft", "scores"),
          ("target", "forwards"), ("target", "rows"), ("target", "scores"),
          ("cache", "gathered")]
# (drafting, policy): the COUNTS in order
PINS = {
    ("chain", "retrieval"): (52, 52, 219544, 26, 65, 812058, 4092),
    ("tree", "full"): (80, 80, 665360, 16, 88, 1100712, 0),
    ("chain", "full"): (60, 60, 498808, 30, 75, 936438, 0),
    ("chain", "streaming"): (104, 104, 427024, 52, 130, 1615482, 0),
}


def counted_run(drafting_mode: str, policy: str) -> Counter:
    cfg = parse_config(overrides=[
        "task=doc", "weak_match_mass=100", "loop_len=15", "seed=7",
        "prompt_len=2048", "gen_tokens=64", f"policy={policy}",
        f"drafting={drafting_mode}", "temperature=0",
        "streaming_sink=32", "recent=992"])
    counts: Counter = Counter()
    role: list[str] = []  # the role whose pass is running, if any

    def counting(name, orig):
        def decode_step(spec, weights, new_tokens, *args, **kwargs):
            counts[name, "forwards"] += 1
            counts[name, "rows"] += len(new_tokens)
            role.append(name)
            try:
                return orig(spec, weights, new_tokens, *args, **kwargs)
            finally:
                role.pop()
        return decode_step

    attend, hold_prefix = attn.attend, KVCache.hold_prefix

    def scoring(q, parts, *args, **kwargs):
        if role:  # a prefill's attention belongs to no role
            keys = sum(k.shape[-2] for k, _, _ in parts)
            counts[role[-1], "scores"] += int(np.prod(q.shape[:-1])) * keys
        return attend(q, parts, *args, **kwargs)

    def gathering(cache, rows):
        counts["cache", "gathered"] += len(rows)
        hold_prefix(cache, rows)

    with mock.patch.object(drafting, "decode_step",
                           counting("draft", drafting.decode_step)), \
            mock.patch.object(verification, "decode_step",
                              counting("target", verification.decode_step)), \
            mock.patch.object(attn, "attend", scoring), \
            mock.patch.object(KVCache, "hold_prefix", gathering):
        harness.run_experiment(cfg)
    return counts


@pytest.mark.parametrize("drafting_mode, policy", list(PINS),
                         ids=[f"{p}-{d}" for d, p in PINS])
def test_forwards_and_rows_by_role(drafting_mode, policy):
    counts = counted_run(drafting_mode, policy)
    assert tuple(counts[key] for key in COUNTS) == PINS[drafting_mode, policy]
