"""Exact work counts: forward passes, rows decoded, attention score elements
and rows copied, by role.

Timings swing by tens of percent between runs on a shared machine; counts at
temperature 0 are exact. Each run is the doc task at seed 7: a seed-7 pin's
shape (a 2K prompt and 64 generated tokens, see ``test_seed_runs.py``), or a
benchmark workload's (``bench/workloads.py``: its prompt and policy) at 128
generated tokens. A run counts every forward pass of the draft
(``drafting.decode_step``) and of the target's verify and commit passes
(``verification.decode_step``), every attention score element those passes
compute (``attn.attend``: query rows, heads included, times the summed key
widths of the parts), and every prompt row ``KVCache.hold_prefix`` gathers.
A change that makes a count rise fails here; one that makes it fall re-pins
it, with the reason in CHANGES.md.
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
# (drafting, policy, prompt_len, gen_tokens): the COUNTS in order
PINS = {
    ("chain", "retrieval", 2048, 64): (52, 52, 219544, 26, 65, 812058, 4092),
    ("tree", "full", 2048, 64): (80, 80, 665360, 15, 78, 977232, 0),
    ("chain", "full", 2048, 64): (60, 60, 498808, 29, 71, 887190, 0),
    ("chain", "streaming", 2048, 64): (104, 104, 427024, 36, 66, 824634, 0),
    # The benchmark workloads at 128 tokens, named as in the test ids below.
    # Target rows per committed token: 130 / 130, 133 / 129 and 134 / 128.
    ("chain", "retrieval", 8192, 128): (104, 104, 452832, 52, 130, 6441786, 7165),
    ("tree", "full", 2048, 128): (130, 130, 1095060, 25, 133, 1688082, 0),
    ("chain", "full", 8192, 128): (280, 280, 9222432, 86, 134, 6638694, 0),
}


def counted_run(drafting_mode: str, policy: str, prompt_len: int,
                gen_tokens: int) -> Counter:
    cfg = parse_config(overrides=[
        "task=doc", "weak_match_mass=100", "loop_len=15", "seed=7",
        f"prompt_len={prompt_len}", f"gen_tokens={gen_tokens}", f"policy={policy}",
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


@pytest.mark.parametrize("shape", list(PINS), ids=[
    f"{p}-{d}" if (n, g) == (2048, 64) else f"doc{n // 1024}k-{p}-{d}-{g}"
    for d, p, n, g in PINS])
def test_forwards_and_rows_by_role(shape):
    counts = counted_run(*shape)
    assert tuple(counts[key] for key in COUNTS) == PINS[shape]
