import contextlib
import io
import json
import tempfile
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from specdesk import harness
from specdesk.cli import main
from specdesk.config import RunConfig
from specdesk.model import load_weights


def test_gen_model_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    for p in (p1, p2):
        assert main(["gen-model", "--out", str(p), "--kind", "random",
                     "--seed", "9", "--layers", "2", "--vocab", "11"]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    spec, _ = load_weights(str(p1))
    assert spec.vocab == 11


def test_gen_model_copy(tmp_path):
    p = tmp_path / "copy.bin"
    assert main(["gen-model", "--out", str(p), "--kind", "copy"]) == 0
    spec, _ = load_weights(str(p))
    assert spec.vocab == 32 and spec.n_layers == 3


def test_run_small_cycle(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "task=cycle", "model=random", "vocab=16", "n_layers=2",
                 "n_heads=2", "d_head=8", "draft_layers=1", "prompt_len=32",
                 "gen_tokens=16", "policy=full", "max_pos=256",
                 f"out={out}", "hta_chunk=0"])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["total_tokens"] == 16
    assert (out / "summary.json").exists()
    assert (out / "steps.csv").exists()


def test_run_rejects_unknown_key(capsys):
    assert main(["run", "nonsense=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_speedup_model_cli(capsys):
    code = main(["speedup-model", "--tau", "2", "--d", "4", "--t-draft", "0.1",
                 "--t-target", "1.0", "--t-verify", "1.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["ratio"] - 0.7) < 1e-12


def test_report_reaggregate(tmp_path, capsys):
    out = tmp_path / "run"
    main(["run", "task=cycle", "model=random", "vocab=16", "n_layers=2",
          "n_heads=2", "d_head=8", "draft_layers=1", "prompt_len=32",
          "gen_tokens=12", "policy=full", "max_pos=256", f"out={out}",
          "hta_chunk=0"])
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent_with_summary"]


SMALL_RUN = ["model=random", "vocab=16", "task=cycle", "prompt_len=32", "gen_tokens=4",
             "n_layers=2", "draft_layers=1", "d_head=8", "max_pos=256"]


@pytest.mark.parametrize("overrides, message", [
    (["model=random", "vocab=8", "task=needle", "prompt_len=64", "gen_tokens=4"],
     "prompt tokens must lie in [0, 8)"),
    (["model=random", "vocab=16", "task=cycle", "prompt_len=32", "gen_tokens=0"],
     "gen_tokens must be >= 1"),
    (SMALL_RUN + ["seed=-1"], "seed must be >= 0"),
    (SMALL_RUN + ["n_heads=-1"], "n_heads must be >= 1"),
    (SMALL_RUN + ["n_heads=0"], "n_heads must be >= 1"),
    (SMALL_RUN + ["d_head=0"], "d_head must be even and >= 2"),
    (SMALL_RUN + ["temperature=nan"], "temperature must be finite and >= 0"),
    (SMALL_RUN + ["temperature=inf"], "temperature must be finite and >= 0"),
    (SMALL_RUN + ["hta_chunk=-1"], "hta_chunk must be >= 0"),
    (SMALL_RUN + ["rope_base=nan"], "rope_base must be finite and > 0"),
    (SMALL_RUN + ["rope_base=inf"], "rope_base must be finite and > 0"),
    (["weak_match_mass=0"], "weak_match_mass must be finite and >= 1, got 0.0"),
    (["weak_match_mass=nan"], "weak_match_mass must be finite and >= 1, got nan"),
    (["prompt_len=256", "gen_tokens=8", "needle_body=-2"],
     "needle_body must be in [1, 15], got -2"),
    (["task=doc", "prompt_len=256", "gen_tokens=8", "loop_len=-3"],
     "loop_len must be in [1, 15], got -3"),
])
def test_run_rejects_bad_prompt_or_length(overrides, message, capsys):
    assert main(["run", *overrides]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_a_bad_policy_or_mode_fails_before_the_work_it_would_waste(monkeypatch, capsys):
    calls = []
    for name in ("build_models", "build_task"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda cfg, real=real, name=name: calls.append(name) or real(cfg))
    assert main(["run", *SMALL_RUN, "policy=bogus"]) == 2
    assert "unknown policy: 'bogus'" in capsys.readouterr().err
    assert calls == []  # no model built
    assert main(["run", *SMALL_RUN, "drafting=bogus"]) == 2
    assert "unknown drafting mode: 'bogus'" in capsys.readouterr().err
    assert calls == ["build_models"]  # no prompt built


@pytest.mark.parametrize("argv, message", [
    ("gen-model --kind random --heads 0 --out {tmp}/m.bin", "n_heads must be >= 1"),
    ("run --config {tmp}/absent.cfg", "cannot read config file"),
    ("report {tmp}", "cannot read"),  # a directory without summary.json
    ("run model={tmp} draft_layers=1", "cannot read weight file {tmp}"),
    ("gen-model --out {tmp}", "cannot write weight file {tmp}"),
    ("gen-model --weak-match-mass 0.5 --out {tmp}/m.bin",
     "weak_match_mass must be finite and >= 1, got 0.5"),
])
def test_rejects_missing_file_or_zero_heads(tmp_path, capsys, argv, message):
    assert main(argv.format(tmp=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err and "Traceback" not in err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("overrides, message", [
    (["k=1000000000000"], "past max_pos 32768"),
    (["gen_tokens=1000000000000"], "past max_pos 32768"),
    (["prompt_len=1000000"], "past max_pos 32768"),
    (["drafting=tree", "max_nodes=1000000000000"], "cannot reserve"),
    (["drafting=tree", "max_nodes=1000000000000000000"], "cannot reserve"),
])
def test_run_rejects_a_size_that_can_never_run(overrides, message, capsys):
    # Each fails before a row is reserved, or when the reservation fails.
    assert main(["run", "prompt_len=64", "gen_tokens=4", *overrides]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_run_rejects_a_report_path_that_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", *SMALL_RUN, f"out={out}"]) == 2
    err = capsys.readouterr().err
    assert f"cannot write report to {out}" in err and "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    (None, b"not json", "header line is not JSON"),
    (None, b"[1, 2]", "header must be a JSON object"),
    (b'"vocab"', b'"extra"', "unknown ['extra']"),
    (b',"vocab":11', b"", "missing ['vocab']"),
    (b'"n_layers":2', b'"n_layers":"2"', "spec n_layers must be int"),
    (b'"offset":0,', b"", "malformed tensor entry"),
])
def test_run_rejects_malformed_weight_header(tmp_path, capsys, old, new, message):
    path = tmp_path / "m.bin"
    assert main(["gen-model", "--out", str(path), "--kind", "random",
                 "--layers", "2", "--vocab", "11"]) == 0
    header, payload = path.read_bytes().split(b"\n", 1)
    header = new if old is None else header.replace(old, new, 1)
    path.write_bytes(header + b"\n" + payload)
    capsys.readouterr()
    assert main(["run", f"model={path}", "draft_layers=1", "gen_tokens=4"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("summary, steps, message", [
    (b"not json", None, "summary.json is not JSON"),
    (b"\xff\xfe", None, "summary.json is not JSON"),
    (b"[1, 2]", None, "summary.json must hold a JSON object"),
    (b'{"total_tokens": 12}', None, "summary.json has no numeric 'tau'"),
    (b'{"tau": 2.0}', None, "summary.json has no numeric 'total_tokens'"),
    (b'{"tau": "2", "total_tokens": 12}', None, "summary.json has no numeric 'tau'"),
    (None, "step,drafted\n1,4\n", "steps.csv has no 'accepted' column"),
    (None, "step,accepted\n1,x\n", "steps.csv has a non-integer 'accepted'"),
    (None, "step,accepted\n1\n", "steps.csv has a non-integer 'accepted'"),
])
def test_report_rejects_malformed_files(tmp_path, capsys, summary, steps, message):
    out = tmp_path / "run"
    assert main(["run", *SMALL_RUN, f"out={out}"]) == 0
    if summary is not None:
        (out / "summary.json").write_bytes(summary)
    if steps is not None:
        (out / "steps.csv").write_text(steps)
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# -- fuzz: hostile key=value overrides through ``specdesk run`` -----------------

HOSTILE_INTS = ["-1", "0", "1000000", "9223372036854775808", "x", "1.5", ""]
HOSTILE_FLOATS = ["-1", "0", "1e-300", "1e300", "inf", "-inf", "nan", "x"]
# (usable, hostile) values of the keys that size a run or a random model, so
# every example stays tiny: prompt_len <= 256, gen_tokens <= 8, k <= 8 and
# max_nodes <= 16; and of the keys that name a choice.
CAPPED = {
    "prompt_len": (["64", "256"], ["-1", "0", "1", "2", "3", "x"]),
    "gen_tokens": (["1", "8"], ["-1", "0", "nan"]),
    "k": (["1", "3", "8"], ["-1", "0", "1.5"]),
    "max_nodes": (["1", "5", "16"], ["-1", "0", ""]),
    "vocab": (["17", "33"], ["-1", "0", "1", "2", "x"]),
    "n_layers": (["2", "4"], ["-1", "0", "1", "x"]),
    "n_heads": (["1", "3"], ["-1", "0", "inf"]),
    "d_head": (["2", "8"], ["-1", "0", "1", "3", ""]),
    "model": (["copy", "random"], ["no/such/weights.bin", ""]),
    "policy": (["full", "streaming", "retrieval"], ["lru", ""]),
    "drafting": (["chain", "tree"], ["beam", ""]),
    "task": (["needle", "doc", "cycle"], ["essay", ""]),
}
SIZED = ("prompt_len", "gen_tokens", "k", "max_nodes")
# ``out`` writes files; the fuzz points it into a temporary directory.
FUZZ_KEYS = [f.name for f in fields(RunConfig) if f.name != "out"]


def usable(key):
    return CAPPED[key][0] if key in CAPPED else [str(getattr(RunConfig(), key))]


def hostile(key):
    if key in CAPPED:
        return CAPPED[key][1]
    return HOSTILE_FLOATS if isinstance(getattr(RunConfig(), key), float) else HOSTILE_INTS


def run_cli(overrides, out_dir=None):
    """``specdesk run`` in process: (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    out = [f"out={out_dir}"] if out_dir else []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", *overrides, *out])
    return code, stderr.getvalue()


def test_every_key_rejects_each_hostile_value_cleanly():
    # One hostile key at a time on a run that otherwise succeeds.
    base = {"prompt_len": "64", "gen_tokens": "4", "max_nodes": "8"}
    assert run_cli([f"{k}={v}" for k, v in base.items()])[0] == 0
    bad = []
    for key in FUZZ_KEYS:
        for value in hostile(key):
            try:
                code, err = run_cli([f"{k}={v}" for k, v in {**base, key: value}.items()])
            except Exception as exc:  # anything but a SpecDeskError escapes main
                code, err = None, repr(exc)
            if code not in (0, 2) or "Traceback" in err:
                bad.append(f"{key}={value}: {err.strip()[-200:]}")
    assert bad == []


@st.composite
def hostile_overrides(draw):
    # The sized keys are always set; up to four more keys join them, and at
    # most three of all the keys get a hostile value.
    free = [k for k in FUZZ_KEYS if k not in SIZED]
    keys = list(SIZED) + draw(st.lists(st.sampled_from(free), max_size=4, unique=True))
    bad = set(draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)))
    return [f"{k}={draw(st.sampled_from(hostile(k) if k in bad else usable(k)))}"
            for k in keys]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hostile_overrides(), st.booleans())
def test_fuzzed_run_overrides_exit_cleanly(overrides, with_out):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli(overrides, f"{tmp}/run" if with_out else None)
    event(f"exit code {code}")
    assert code in (0, 2), overrides
    assert "Traceback" not in err
