import json

import pytest

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
