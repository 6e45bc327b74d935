import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from specdesk import engine, harness
from specdesk.cli import main
from specdesk.config import RunConfig, parse_config
from specdesk.errors import CapacityError
from specdesk.model import load_weights


def test_gen_model_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    for p in (p1, p2):
        assert main(["gen-model", "--out", str(p), "model=random", "seed=9",
                     "n_layers=2", "vocab=11"]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    spec, _ = load_weights(str(p1))
    assert spec.vocab == 11


def test_gen_model_copy(tmp_path):
    p = tmp_path / "copy.bin"
    assert main(["gen-model", "--out", str(p)]) == 0
    spec, _ = load_weights(str(p))
    assert spec.vocab == 32 and spec.n_layers == 3


# The files gen-model has always written for the default copy model and for
# a seed-9 random model of 2 layers, vocab 11, 2 heads, d_head 16 and
# max_pos 4096.
@pytest.mark.parametrize("keys, digest", [
    ([], "480c9d29964397e8f9d56b1548490bd39fec8ab32d52752cc490729f81920301"),
    (["model=random", "seed=9", "n_layers=2", "vocab=11", "n_heads=2", "d_head=16",
      "max_pos=4096"],
     "d6cf1f219bf6e2ee85aba2307318222a64dbeac757aee73960e545fb79ec63de"),
])
def test_gen_model_files_are_pinned(tmp_path, keys, digest):
    path = tmp_path / "m.bin"
    # Keys that do not concern the model are ignored.
    assert main(["gen-model", "--out", str(path), *keys, "policy=full", "k=2"]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("model", [
    ["model=random", "vocab=32", "n_layers=3", "d_head=8", "max_pos=512"],
    ["model=copy", "weak_match_mass=100"],
])
def test_run_on_a_gen_model_file_matches_run_on_its_keys(tmp_path, model):
    path = tmp_path / "m.bin"
    rest = ["task=doc", "prompt_len=256", "gen_tokens=24", "loop_len=10",
            "chunk_size=8", "top_k=4", "draft_layers=2", "seed=3"]
    assert main(["gen-model", "--out", str(path), *model, *rest]) == 0
    built = harness.run_experiment(parse_config(overrides=[*model, *rest]))
    loaded = harness.run_experiment(parse_config(overrides=[f"model={path}", *rest]))
    assert loaded.result.output_tokens == built.result.output_tokens
    assert ([s.accepted for s in loaded.result.steps]
            == [s.accepted for s in built.result.steps])


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


@pytest.mark.parametrize("flag", ["tau", "d", "t-draft", "t-target", "t-verify"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_speedup_model_refuses_non_finite_values(flag, value):
    values = {"tau": "2", "d": "4", "t-draft": "0.1", "t-target": "1.0",
              "t-verify": "1.0", flag: value}
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(["speedup-model", *(f"--{k}={v}" for k, v in values.items())])
        except SystemExit as exc:  # argparse refuses a non-integer --d
            code = exc.code
    err = stderr.getvalue()
    message = "invalid int value" if flag == "d" else "speedup inputs must be finite"
    assert code == 2 and message in err and "Traceback" not in err


def test_speedup_model_refuses_an_int_past_the_float_range():
    code, err = cli("speedup-model", "--tau", "2", "--d", "9" * 400, "--t-draft", "0.1",
                    "--t-target", "1.0", "--t-verify", "1.0")
    assert code == 2 and "within the float range" in err and "Traceback" not in err


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
    assert calls == []  # no prompt or model built


@pytest.mark.parametrize("overrides, message", [
    (["task=bogus"], "unknown task: 'bogus'"),
    (["needle_body=0"], "needle_body must be in [1, 15], got 0"),
    (["task=doc", "loop_len=16"], "loop_len must be in [1, 15], got 16"),
    (["needle_pos=250"], "does not fit before the query"),
    (["needle_pos=-7"], "needle_pos must be >= 0, or -1 for auto, got -7"),
])
def test_a_bad_prompt_fails_before_a_weight_file_is_read(tmp_path, monkeypatch, capsys,
                                                         overrides, message):
    fails_before_a_weight_file_is_read(tmp_path, monkeypatch, capsys, overrides, message)


def fails_before_a_weight_file_is_read(tmp_path, monkeypatch, capsys, overrides, message):
    weights = tmp_path / "m.bin"
    assert main(["gen-model", "--out", str(weights), *SMALL_RUN]) == 0

    def unread(path):
        raise AssertionError(f"{path} read before the run's keys were checked")

    monkeypatch.setattr(harness, "load_weights", unread)
    argv = ["run", f"model={weights}", "prompt_len=256", "gen_tokens=4", *overrides]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("overrides, message", [
    (["drafting=bogus"], "unknown drafting mode: 'bogus'"),
    (["k=0"], "k must be >= 1, got 0"),
    (["temperature=-1"], "temperature must be finite and >= 0, got -1.0"),
    (["temperature=nan"], "temperature must be finite and >= 0, got nan"),
    (["hta_chunk=-1"], "hta_chunk must be >= 0, got -1"),
    (["max_nodes=0"], "tree budget needs max_nodes >= 1 and max_depth >= 1"),
    (["max_depth=0"], "tree budget needs max_nodes >= 1 and max_depth >= 1"),
    (["expand_threshold=0"], "expand_threshold must be in (0, 1], got 0.0"),
    (["draft_layers=0"], "draft_layers must be >= 1, got 0"),
])
def test_a_bad_session_key_fails_before_a_weight_file_is_read(tmp_path, monkeypatch, capsys,
                                                              overrides, message):
    fails_before_a_weight_file_is_read(tmp_path, monkeypatch, capsys, overrides, message)


@pytest.mark.parametrize("argv, message", [
    ("gen-model --out {tmp}/m.bin model=random n_heads=0", "n_heads must be >= 1"),
    ("run --config {tmp}/absent.cfg", "cannot read config file"),
    ("report {tmp}", "cannot read"),  # a directory without summary.json
    ("run model={tmp} draft_layers=1", "cannot read weight file {tmp}"),
    ("gen-model --out {tmp}", "cannot write weight file {tmp}"),
    ("gen-model --out {tmp}/m.bin weak_match_mass=0.5",
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
])
def test_run_rejects_a_size_that_can_never_run(overrides, message, capsys):
    # Each fails before a row is reserved.
    assert main(["run", "prompt_len=64", "gen_tokens=4", *overrides]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("max_nodes", [10**12, 10**18])
def test_a_node_budget_past_any_store_only_caps_the_tree(max_nodes, capsys):
    # No cache reserves rows for the tree, which the default depth of 10
    # bounds, so the budget reserves nothing.
    assert main(["run", "prompt_len=64", "gen_tokens=4", "drafting=tree",
                 f"max_nodes={max_nodes}"]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen-model"])
@pytest.mark.parametrize("size", [["vocab=1000000000000"],
                                  ["d_head=100000000000", "n_heads=1"]])
def test_a_random_model_that_cannot_be_allocated_is_refused(tmp_path, capsys,
                                                            command, size):
    # Both sizes fail when the first too-large array is requested, before
    # any memory is filled: petabytes, or past numpy's size limit.
    keys = ["model=random", "n_layers=2", "draft_layers=1", "prompt_len=64",
            "gen_tokens=4", *size]
    out = ([f"out={tmp_path}/run"] if command == "run"
           else ["--out", f"{tmp_path}/m.bin"])
    assert main([command, *out, *keys]) == 2
    err = capsys.readouterr().err
    assert "cannot allocate a random model" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(CapacityError):
        harness.build_models(parse_config(overrides=keys))


@pytest.mark.parametrize("overrides", [["gen_tokens=56", "k=4"],
                                       ["drafting=tree", "gen_tokens=50"]])
def test_a_run_that_may_pass_max_pos_is_refused_before_prefill(overrides, capsys,
                                                                monkeypatch):
    # 200 + 56 + k 4, or 200 + 50 + the default tree's depth 10: the last
    # step may decode position 259.
    monkeypatch.setattr(engine, "prefill_caches", None)  # not reached
    argv = ["run", "model=random", "vocab=16", "task=cycle", "n_layers=2",
            "draft_layers=1", "d_head=8", "max_pos=256", "prompt_len=200",
            "policy=full", *overrides]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "position 259, past max_pos 256" in err and "Traceback" not in err
    with pytest.raises(CapacityError):
        harness.run_experiment(parse_config(overrides=argv[1:]))


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
    (b'"offset":0,', b'"offset":true,', "malformed tensor entry"),
    (b'"shape":[11,', b'"shape":[true,', "malformed tensor entry"),
])
def test_run_rejects_malformed_weight_header(tmp_path, capsys, old, new, message):
    path = tmp_path / "m.bin"
    assert main(["gen-model", "--out", str(path), "model=random", "n_layers=2",
                 "vocab=11"]) == 0
    header, payload = path.read_bytes().split(b"\n", 1)
    header = new if old is None else header.replace(old, new, 1)
    path.write_bytes(header + b"\n" + payload)
    capsys.readouterr()
    assert main(["run", f"model={path}", "draft_layers=1", "gen_tokens=4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


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

HOSTILE_INTS = ["-1", "0", "1000000", "9223372036854775808", "99999999999999999999999",
                "x", "1.5", ""]
HOSTILE_FLOATS = ["-1", "0", "1e-300", "1e300", "inf", "-inf", "nan", "x"]
# (usable, hostile) values of the keys that size a run or a random model, so
# every example stays tiny: prompt_len <= 256, gen_tokens <= 8, k <= 8 and
# max_nodes <= 16; and of the keys that name a choice.
CAPPED = {
    "prompt_len": (["64", "256"], ["-1", "0", "1", "2", "3", "x", "1000000000000"]),
    "gen_tokens": (["1", "8"], ["-1", "0", "nan"]),
    "k": (["1", "3", "8"], ["-1", "0", "1.5"]),
    "max_nodes": (["1", "5", "16"], ["-1", "0", ""]),
    "vocab": (["17", "33"], ["-1", "0", "1", "2", "x", "1000000000000"]),
    "n_layers": (["2", "4"], ["-1", "0", "1", "x"]),
    "n_heads": (["1", "3"], ["-1", "0", "inf"]),
    "d_head": (["2", "8"], ["-1", "0", "1", "3", "", "100000000000"]),
    "model": (["copy", "random"], ["no/such/weights.bin", ""]),
    "policy": (["full", "streaming", "retrieval"], ["lru", ""]),
    "drafting": (["chain", "tree"], ["beam", ""]),
    "task": (["needle", "doc", "cycle"], ["essay", ""]),
}
SIZED = ("prompt_len", "gen_tokens", "k", "max_nodes")
# ``out`` writes files; the fuzz points it into a temporary directory.
FUZZ_KEYS = [f.name for f in fields(RunConfig) if f.name != "out"]
MODEL_KEYS = ("model", "seed", "n_layers", "n_heads", "d_head", "vocab", "max_pos",
              "rope_base", "weak_match_mass")


def usable(key):
    return CAPPED[key][0] if key in CAPPED else [str(getattr(RunConfig(), key))]


def hostile(key):
    if key in CAPPED:
        return CAPPED[key][1]
    return HOSTILE_FLOATS if isinstance(getattr(RunConfig(), key), float) else HOSTILE_INTS


def cli(*argv):
    """``specdesk`` in process: (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stderr.getvalue()


def run_cli(overrides, out_dir=None):
    """``specdesk run`` in process: (exit code, stderr)."""
    return cli("run", *overrides, *([f"out={out_dir}"] if out_dir else []))


def test_every_key_rejects_each_hostile_value_cleanly(tmp_path):
    # One hostile key at a time on a run that otherwise succeeds, and on
    # gen-model of either built model for the keys that describe a model.
    base = {"prompt_len": "64", "gen_tokens": "4", "max_nodes": "8"}
    assert run_cli([f"{k}={v}" for k, v in base.items()])[0] == 0
    path = tmp_path / "m.bin"
    argvs = [["run", *(f"{k}={v}" for k, v in {**base, key: value}.items())]
             for key in FUZZ_KEYS for value in hostile(key)]
    # The retrieval default never reads the streaming keys: run them streaming too.
    argvs += [["run", *(f"{k}={v}" for k, v in
                        {**base, "policy": "streaming", key: value}.items())]
              for key in ("streaming_sink", "recent") for value in hostile(key)]
    argvs += [["gen-model", "--out", str(path), f"model={model}", f"{key}={value}"]
              for key in MODEL_KEYS for value in hostile(key)
              for model in ("copy", "random")]
    bad = []
    for argv in argvs:
        try:
            code, err = cli(*argv)
        except Exception as exc:  # anything but a SpecDeskError escapes main
            code, err = None, repr(exc)
        if code not in (0, 2) or "Traceback" in err:
            bad.append(f"{' '.join(argv)}: {err.strip()[-200:]}")
        if code == 2 and path.exists():
            bad.append(f"{' '.join(argv)}: refused but wrote {path}")
        path.unlink(missing_ok=True)
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
