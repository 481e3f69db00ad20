import hashlib
import json

import pytest

from usvt.checks import CheckReport
from usvt.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_experiment_inline_writes_reports(tmp_path, capsys):
    out = tmp_path / "r"
    code, stdout, _ = run(["experiment", "--model", "blockmodel", "--model-param", "k=2",
                           "--n-grid", "16", "--p-grid", "1.0", "--out", str(out)], capsys)
    assert code == 0
    assert "1/1 cells completed" in stdout
    assert json.loads((tmp_path / "r.json").read_text())["spec"]["model"]["params"] == {"k": 2}


def test_misspelled_model_param_exits_1(tmp_path, capsys):
    code, _, err = run(["experiment", "--model", "blockmodel", "--model-param", "k=2",
                        "--model-param", "in_porb=0.9", "--n-grid", "16",
                        "--out", str(tmp_path / "r")], capsys)
    assert code == 1
    assert "in_porb" in err
    assert not (tmp_path / "r.json").exists()


def test_missing_required_model_param_exits_1(tmp_path, capsys):
    code, _, err = run(["experiment", "--model", "lowrank", "--n-grid", "16",
                        "--out", str(tmp_path / "r")], capsys)
    assert code == 1
    assert "'r'" in err


def test_misspelled_config_key_exits_1(tmp_path, capsys):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0],
                                  "trails": 5}))
    code, _, err = run(["experiment", "--config", str(config), "--out", str(tmp_path / "r")],
                       capsys)
    assert code == 1
    assert "trails" in err


@pytest.mark.parametrize("config, message", [
    ({"model": {"kind": "zero"}, "p_grid": [1.0]}, "missing ExperimentSpec key 'n_grid'"),
    ({"model": {"params": {}}, "n_grid": [8], "p_grid": [1.0]}, "missing ModelSpec key 'kind'"),
    ([{"model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0]}], "must be a JSON object"),
])
def test_malformed_config_exits_1(tmp_path, capsys, config, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(config))
    code, _, err = run(["experiment", "--config", str(path), "--out", str(tmp_path / "r")],
                       capsys)
    assert code == 1
    assert message in err
    assert not (tmp_path / "r.json").exists()


def test_workers_flag_is_gone(tmp_path, capsys):
    code, _, _ = run(["experiment", "--model", "zero", "--n-grid", "8", "--workers", "2",
                      "--out", str(tmp_path / "r")], capsys)
    assert code == 1


def test_negative_control_exits_2(capsys):
    code, stdout, _ = run(["check", "--suite", "negative-control"], capsys)
    assert code == 2
    assert "FAIL  negative-control" in stdout


def write_config(tmp_path, config):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("override, field", [
    ({"trials": "five"}, "trials"),
    ({"n_grid": 8}, "n_grid"),
    ({"n_grid": "816"}, "n_grid"),
    ({"model": {"kind": "zero", "params": None}}, "params"),
    ({"model": {"kind": ["zero"]}}, "model kind"),
    ({"eta": "x"}, "eta"),
    ({"eta": 1.5}, "eta"),
    ({"sigma_sq": 0}, "sigma_sq"),
    ({"seed": "abc"}, "seed"),
    ({"baseline_trivial": "yes"}, "baseline_trivial"),
    ({"n_grid": [8.7]}, "n_grid"),
    ({"trials": 2.5}, "trials"),
    ({"seed": True}, "seed"),
    ({"p_grid": [True]}, "p_grid"),
    ({"sigma_sq": True}, "sigma_sq"),
])
def test_bad_config_value_exits_1(tmp_path, capsys, override, field):
    config = {"model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0], **override}
    code, _, err = run(["experiment", "--config", write_config(tmp_path, config),
                        "--out", str(tmp_path / "r")], capsys)
    assert code == 1
    assert field in err
    assert not (tmp_path / "r.json").exists()


def test_config_that_is_not_json_exits_1(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"model": {"kind": "zero"},')
    code, _, err = run(["experiment", "--config", str(path), "--out", str(tmp_path / "r")],
                       capsys)
    assert code == 1
    assert "not valid JSON" in err


@pytest.mark.parametrize("flag", [
    ["--eta", "0.5"], ["--trials", "5"], ["--n-grid", "16"], ["--sigma-sq", "0.5"],
    ["--model-param", "k=2"], ["--baseline-trivial"],
])
def test_spec_flag_beside_config_exits_1(tmp_path, capsys, flag):
    config = write_config(tmp_path, {"model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0]})
    code, _, err = run(["experiment", "--config", config, *flag, "--out", str(tmp_path / "r")],
                       capsys)
    assert code == 1
    assert flag[0] in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flags, config", [
    (["--model", "zero"], {"model": {"kind": "zero"}, "n_grid": [100], "p_grid": [1.0]}),
    (["--model", "blockmodel", "--model-param", "k=2", "--model-param", "in_prob=0.7",
      "--n-grid", "12", "16", "--p-grid", "0.5", "1.0", "--eta", "0.05", "--sigma-sq", "0.5",
      "--trials", "2", "--seed", "3", "--baseline-trivial"],
     {"model": {"kind": "blockmodel", "params": {"k": 2, "in_prob": 0.7}},
      "n_grid": [12, 16], "p_grid": [0.5, 1.0], "eta": 0.05, "sigma_sq": 0.5, "trials": 2,
      "seed": 3, "baseline_trivial": True}),
])
def test_inline_flags_match_config(tmp_path, capsys, flags, config):
    inline, from_file = tmp_path / "inline", tmp_path / "file"
    assert run(["experiment", *flags, "--out", str(inline)], capsys)[0] == 0
    assert run(["experiment", "--config", write_config(tmp_path, config),
                "--out", str(from_file)], capsys)[0] == 0
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"inline{suffix}").read_bytes() == \
            (tmp_path / f"file{suffix}").read_bytes()


def test_report_bytes_pinned(tmp_path, capsys):
    # sha256 of the reports, recorded at the commit before reports were
    # built with dataclasses.asdict (x86-64, numpy 2.4, OpenBLAS 0.3.31).
    config = {"model": {"kind": "blockmodel",
                        "params": {"k": 2, "block_probs": [[0.7, 0.2], [0.2, 0.6]]}},
              "n_grid": [12, 16, 20], "p_grid": [0.5, 1.0], "eta": 0.05, "sigma_sq": 0.5,
              "trials": 2, "seed": 3, "baseline_trivial": True}
    code, _, _ = run(["experiment", "--config", write_config(tmp_path, config),
                      "--out", str(tmp_path / "r")], capsys)
    assert code == 0
    digests = [hashlib.sha256((tmp_path / f"r.{ext}").read_bytes()).hexdigest()
               for ext in ("json", "csv")]
    assert digests == ["124bea4fc7681880865fafce3e67eef26a8487765e72255114ad65209a2890a7",
                       "ab739906ce2c3c87403f4f0255df13cf08e2097f2770585d31d44a492a383616"]


def test_check_default_seed_is_727(capsys):
    assert run(["check", "--suite", "norms"], capsys) == \
        run(["check", "--suite", "norms", "--seed", "727"], capsys)


def test_flags_not_given_are_not_passed(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("usvt.cli.check_suite",
                        lambda **given: calls.append(given) or CheckReport(results=()))
    assert run(["check"], capsys)[0] == 0
    assert run(["check", "--suite", "norms", "--seed", "5"], capsys)[0] == 0
    assert calls == [{}, {"selectors": ["norms"], "seed": 5}]


def test_estimate_bad_mode_exits_1(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0.5,NA\nNA,0.5\n")
    code, _, _ = run(["estimate", str(path), "--mode", "bogus", "--out", str(tmp_path / "e.csv")],
                     capsys)
    assert code == 1
    assert not (tmp_path / "e.csv").exists()
