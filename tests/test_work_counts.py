"""Exact work counts: forward passes, rows decoded and rows copied, by role.

Timings swing by tens of percent between runs on a shared machine; counts at
temperature 0 are exact. Each run is a seed-7 pin's shape (the doc task at a
2K prompt and 64 generated tokens, see ``test_seed_runs.py``) with every
forward pass of the draft (``drafting.decode_step``) and of the target's
verify and commit passes (``verification.decode_step``) counted, and every
row a cache copies: prompt rows gathered by ``KVCache.hold_prefix`` and
rows moved by ``KVCache.keep``. A change that makes a count rise fails
here; one that makes it fall re-pins it, with the reason in CHANGES.md.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from specdesk import drafting, harness, verification
from specdesk.cache import KVCache
from specdesk.config import parse_config

COUNTS = [("draft", "forwards"), ("draft", "rows"), ("target", "forwards"),
          ("target", "rows"), ("cache", "gathered"), ("cache", "moved")]
# (drafting, policy): the COUNTS in order
PINS = {
    ("chain", "retrieval"): (52, 52, 26, 65, 4092, 0),
    ("tree", "full"): (80, 80, 16, 88, 0, 0),
    ("chain", "full"): (60, 60, 30, 75, 0, 0),
    ("chain", "streaming"): (104, 104, 52, 130, 0, 0),
}


def counted_run(drafting_mode: str, policy: str) -> Counter:
    cfg = parse_config(overrides=[
        "task=doc", "weak_match_mass=100", "loop_len=15", "seed=7",
        "prompt_len=2048", "gen_tokens=64", f"policy={policy}",
        f"drafting={drafting_mode}", "temperature=0",
        "streaming_sink=32", "recent=992"])
    counts: Counter = Counter()

    def counting(role, orig):
        def decode_step(spec, weights, new_tokens, *args, **kwargs):
            counts[role, "forwards"] += 1
            counts[role, "rows"] += len(new_tokens)
            return orig(spec, weights, new_tokens, *args, **kwargs)
        return decode_step

    hold_prefix, keep = KVCache.hold_prefix, KVCache.keep

    def gathering(cache, rows):
        counts["cache", "gathered"] += len(rows)
        hold_prefix(cache, rows)

    def moving(cache, rows):
        # A kept row moves unless it is already at its new index.
        counts["cache", "moved"] += int(np.count_nonzero(np.asarray(rows)
                                                         != np.arange(len(rows))))
        keep(cache, rows)

    with mock.patch.object(drafting, "decode_step",
                           counting("draft", drafting.decode_step)), \
            mock.patch.object(verification, "decode_step",
                              counting("target", verification.decode_step)), \
            mock.patch.object(KVCache, "hold_prefix", gathering), \
            mock.patch.object(KVCache, "keep", moving):
        harness.run_experiment(cfg)
    return counts


@pytest.mark.parametrize("drafting_mode, policy", list(PINS),
                         ids=[f"{p}-{d}" for d, p in PINS])
def test_forwards_and_rows_by_role(drafting_mode, policy):
    counts = counted_run(drafting_mode, policy)
    assert tuple(counts[key] for key in COUNTS) == PINS[drafting_mode, policy]
