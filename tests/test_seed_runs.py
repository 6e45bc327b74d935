"""Pinned seed-7 runs: every recorded field of twelve small sessions.

The runs are the doc task (copy model, ``weak_match_mass=100``,
``loop_len=15``, seed 7) at a 2K prompt and 64 generated tokens, over
{chain, tree} x {full, streaming (sink 32, recent 992), retrieval} x
temperature {0, 0.7}. Retrieval updates and streaming evictions both
happen in them. Per run the pins are the output tokens, the accepted count,
tree size and retrieval-update flag of every step, the chunks each
retrieval update selected, and the draft cache length after every step.

A refactor must leave every pin as it is. A change that moves the numerics
or the order of RNG draws on purpose re-pins them; the script prints the
fields that changed in each run before it writes::

    PYTHONPATH=src python tests/test_seed_runs.py
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

from specdesk import engine, harness
from specdesk.config import parse_config

PINS = Path(__file__).with_name("seed7_runs.json")
RUNS = [(drafting, policy, temperature)
        for drafting in ("chain", "tree")
        for policy in ("full", "streaming", "retrieval")
        for temperature in (0.0, 0.7)]


def record(drafting: str, policy: str, temperature: float,
           gen_tokens: int = 64) -> dict:
    """Run one session and return its pinned fields."""
    cfg = parse_config(overrides=[
        "task=doc", "weak_match_mass=100", "loop_len=15", "seed=7",
        "prompt_len=2048", f"gen_tokens={gen_tokens}", f"policy={policy}",
        f"drafting={drafting}", f"temperature={temperature}",
        "streaming_sink=32", "recent=992"])
    selections = []
    update = engine.maybe_update

    def spy(state, scores, cache):
        updated = update(state, scores, cache)
        if updated:
            selections.append(state.last_selection.tolist())
        return updated

    with mock.patch.object(engine, "maybe_update", spy):
        result = harness.run_experiment(cfg).result
    return {
        "output_tokens": result.output_tokens,
        "accepted": [s.accepted for s in result.steps],
        "tree_nodes": [s.tree_nodes for s in result.steps],
        "retrieval_update": [s.retrieval_update for s in result.steps],
        "selections": selections,
        "draft_cache_len_by_step": result.draft_cache_len_by_step,
    }


def run_id(drafting: str, policy: str, temperature: float) -> str:
    return f"{drafting}-{policy}-t{temperature}"


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("drafting, policy, temperature", RUNS,
                         ids=[run_id(*r) for r in RUNS])
def test_run_matches_its_pins(pins, drafting, policy, temperature):
    got = record(drafting, policy, temperature)
    want = pins[run_id(drafting, policy, temperature)]
    for name in want:
        assert got[name] == want[name], name


def test_the_pins_cover_evictions_and_updates(pins):
    # A streaming draft evicts back to its window after every step, and
    # every retrieval run re-selects its chunks more than once.
    for name, pin in pins.items():
        if "streaming" in name:
            assert set(pin["draft_cache_len_by_step"]) == {32 + 992}
        if "retrieval" in name:
            assert len(pin["selections"]) > 1


if __name__ == "__main__":
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    new = {run_id(*r): record(*r) for r in RUNS}
    for name, pin in new.items():
        changed = [f for f in pin if old.get(name, {}).get(f) != pin[f]]
        print(f"{name}: {', '.join(changed) or 'unchanged'}")
    PINS.write_text(json.dumps(new) + "\n")
