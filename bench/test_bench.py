"""Tests of the benchmark itself, on prompts small enough to run in seconds.

Run from the root of the checkout::

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

from specdesk import attn, drafting, engine, verification  # noqa: E402
from specdesk.cache import KVCache  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], prompt_len=128, gen_tokens=16)


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    result = run.measure(tiny(name), seed=7, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    json.dumps(result, allow_nan=False)


def test_traced_counts_on_a_chain_workload():
    metrics = run.measure(tiny("doc8k-full-chain"), seed=7, seconds=0.0,
                          trace=True)["metrics"]
    assert metrics["model.fwd.draft_per_step"]["value"] == 4.0
    assert metrics["model.fwd.target_verify_per_step"]["value"] == 1.0
    assert metrics["model.fwd.target_commit_per_step"]["value"] == 1.0
    assert metrics["retrieval.updates"]["value"] == 0
    assert metrics["cache.view_rows_copied"]["value"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_wrong_reference_fails_the_gate(trace):
    workload = tiny("doc2k-full-tree")
    wrong = [0] * workload.gen_tokens
    result = run.measure(workload, seed=7, seconds=0.0, trace=trace, reference=wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    if not trace:
        assert result["metrics"]["lossless_rate"]["value"] == 0.0


def test_tracer_restores_every_patched_name():
    names = [(engine, "prefill"), (engine, "maybe_update"), (engine, "draft_chain"),
             (engine, "draft_tree"), (engine, "verify_chain"), (engine, "verify_tree"),
             (drafting, "decode_step"), (verification, "decode_step"),
             (attn, "attend"), (attn, "attend_monolithic"),
             (KVCache, "layer_view"), (KVCache, "truncate")]
    before = [getattr(owner, name) for owner, name in names]
    with Tracer((0, 1)).installed():
        assert all(getattr(o, n) is not b for (o, n), b in zip(names, before))
    assert all(getattr(o, n) is b for (o, n), b in zip(names, before))


def test_retrieval_signals_from_selection():
    tracer = Tracer(needle_span=(64, 102))  # chunks 2 and 3 at chunk size 32
    tracer.record_selection([0, 2, 3, 5], chunk_size=32)
    tracer.record_selection([0, 2, 4, 5], chunk_size=32)
    assert tracer.needle_hits == [True, False]
    assert tracer.churn == [0.25]


def test_fails_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "doc2k-full-tree",
                          "--seed", "7", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
