import json

import pytest

from specdesk.cli import main
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
])
def test_run_rejects_bad_prompt_or_length(overrides, message, capsys):
    assert main(["run", *overrides]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    ("gen-model --kind random --heads 0 --out {tmp}/m.bin", "n_heads must be >= 1"),
    ("run --config {tmp}/absent.cfg", "cannot read config file"),
    ("report {tmp}", "cannot read"),  # a directory without summary.json
])
def test_rejects_missing_file_or_zero_heads(tmp_path, capsys, argv, message):
    assert main(argv.format(tmp=tmp_path).split()) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "m.bin").exists()


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
