import hashlib
import json

import numpy as np
import pytest

from usvt.checks import CheckReport
from usvt.cli import main
from usvt.rng import make_rng


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, config):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(config))
    return str(path)


def experiment(tmp_path, capsys, config, out="r"):
    """``usvt experiment`` on ``config`` written as a spec file."""
    return run(["experiment", "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / out)], capsys)


def test_experiment_inline_writes_reports(tmp_path, capsys):
    code, stdout, _ = experiment(tmp_path, capsys, {
        "model": {"kind": "blockmodel", "params": {"k": 2}}, "n_grid": [16], "p_grid": [1.0]})
    assert code == 0
    assert "1/1 cells completed" in stdout
    assert json.loads((tmp_path / "r.json").read_text())["spec"]["model"]["params"] == {"k": 2}


def test_misspelled_model_param_exits_1(tmp_path, capsys):
    code, _, err = experiment(tmp_path, capsys, {
        "model": {"kind": "blockmodel", "params": {"k": 2, "in_porb": 0.9}}, "n_grid": [16],
        "p_grid": [1.0]})
    assert code == 1
    assert "in_porb" in err
    assert not (tmp_path / "r.json").exists()


def test_missing_required_model_param_exits_1(tmp_path, capsys):
    code, _, err = experiment(tmp_path, capsys, {
        "model": {"kind": "lowrank"}, "n_grid": [16], "p_grid": [1.0]})
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
    config = write_config(tmp_path, {"model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0]})
    code, _, err = run(["experiment", "--config", config, "--workers", "2",
                        "--out", str(tmp_path / "r")], capsys)
    assert code == 1
    assert "unrecognized arguments: --workers 2" in err


def test_negative_control_exits_2(capsys):
    code, stdout, _ = run(["check", "--suite", "negative-control"], capsys)
    assert code == 2
    assert "FAIL  negative-control" in stdout


def test_unwritable_out_exits_3(tmp_path, capsys):
    code, _, err = experiment(tmp_path, capsys, {
        "model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0]}, out="missing/r")
    assert code == 3
    assert err.startswith("i/o error: ")


def test_model_param_that_is_not_json_passes_as_a_string(tmp_path, capsys):
    code, _, _ = experiment(tmp_path, capsys, {
        "model": {"kind": "distance", "params": {"metric": "manhattan"}}, "n_grid": [8],
        "p_grid": [1.0]})
    assert code == 0
    params = json.loads((tmp_path / "r.json").read_text())["spec"]["model"]["params"]
    assert params == {"metric": "manhattan"}


def test_experiment_without_config_exits_1(tmp_path, capsys):
    code, _, err = run(["experiment", "--out", str(tmp_path / "r")], capsys)
    assert code == 1
    assert "--config" in err
    assert not (tmp_path / "r.json").exists()


def test_failed_cell_is_printed(tmp_path, capsys):
    code, stdout, _ = experiment(tmp_path, capsys, {
        "model": {"kind": "minimax", "params": {"theta": 0.3}}, "n_grid": [16], "p_grid": [1.0]})
    assert code == 0
    assert stdout.splitlines() == [
        "n=16 p=1.0 FAILED: ValidationError: p must lie in (0, 1), got 1.0",
        f"wrote {tmp_path / 'r'}.json and {tmp_path / 'r'}.csv (0/1 cells completed)",
    ]


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
    *[({"model": {"kind": kind, "params": params}}, f"parameter {name!r}")
      for kind, params, name in [
          ("lowrank", {"r": 2.5}, "r"),
          ("lowrank", {"r": True}, "r"),
          ("lowrank", {"r": "two"}, "r"),
          ("blockmodel", {"k": 2.7}, "k"),
          ("distance", {"dim": 1.9}, "dim"),
          ("bradley_terry", {"games_per_pair": 2.9}, "games_per_pair"),
          ("minimax", {"theta": True}, "theta"),
          ("blockmodel", {"k": 2, "in_prob": True}, "in_prob"),
          ("blockmodel", {"k": 2, "observe_diagonal": "no"}, "observe_diagonal"),
          ("lowrank", {"r": 2, "noise": "gauss"}, "noise"),
          ("distance", {"metric": "cosine"}, "metric"),
          ("latent", {"f": "nope"}, "f"),
          ("graphon", {"f": "nope"}, "f"),
          # The sweep's blockmodel is planted-partition and its Bradley-Terry
          # model nonparametric: a block matrix, a family or strengths is unknown.
          ("bradley_terry", {"family": "elo"}, "family"),
          ("blockmodel", {"k": 2, "block_probs": [[0.5, 0.1], [0.1, 0.5]], "in_prob": 0.9},
           "block_probs"),
          ("blockmodel", {"k": 2, "block_probs": [[0.5, 0.1], [0.1, 0.5]], "out_prob": 0.1},
           "block_probs"),
          ("bradley_terry", {"strengths": [1.0, 2.0]}, "strengths"),
          ("bradley_terry", {"family": "nonparametric_monotone", "strengths": [1.0, 2.0]},
           "strengths"),
      ]],
    # A repeated grid value would fit a rate through equal sizes or write two
    # columns under one rate-fit key.
    ({"n_grid": [8, 8, 8]}, "n_grid"),
    ({"n_grid": [8, 12, 16], "p_grid": [0.5, 0.5]}, "p_grid"),
    # A float parameter must be finite: a NaN would fail every cell and then the report.
    *[({"model": {"kind": kind, "params": params}}, f"parameter {name!r} must be finite")
      for kind, params, name in [
          ("minimax", {"theta": float("nan")}, "theta"),
          ("minimax", {"theta": float("inf")}, "theta"),
          ("blockmodel", {"k": 2, "in_prob": float("nan")}, "in_prob"),
          ("blockmodel", {"k": 2, "out_prob": float("-inf")}, "out_prob"),
      ]],
    # Each family's ranges, checked before any cell runs.
    *[({"model": {"kind": kind, "params": params}}, f"parameter {name!r} must {rule}")
      for kind, params, name, rule in [
          ("minimax", {"theta": 2.0}, "theta", "lie in [0, 1]"),
          ("minimax", {"theta": -0.5}, "theta", "lie in [0, 1]"),
          ("blockmodel", {"k": 0}, "k", "be >= 1"),
          ("blockmodel", {"k": 2, "in_prob": 1.5}, "in_prob", "lie in [0, 1]"),
          ("blockmodel", {"k": 2, "out_prob": -0.1}, "out_prob", "lie in [0, 1]"),
          ("lowrank", {"r": 0}, "r", "be >= 1"),
          ("lowrank_adversary", {"r": 0}, "r", "be >= 1"),
          ("latent", {"dim": 0}, "dim", "be >= 1"),
          ("distance", {"dim": 0}, "dim", "be >= 1"),
          ("bradley_terry", {"games_per_pair": 0}, "games_per_pair", "be >= 1"),
      ]],
])
def test_bad_config_value_exits_1(tmp_path, capsys, override, field):
    config = {"model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0], **override}
    code, _, err = experiment(tmp_path, capsys, config)
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


#: The flags of the removed inline sweep form: every spec value is set in the file.
@pytest.mark.parametrize("flag", [
    ["--eta", "0.5"], ["--trials", "5"], ["--n-grid", "16"], ["--sigma-sq", "0.5"],
    ["--model-param", "k=2"], ["--baseline-trivial"], ["--model", "zero"], ["--p-grid", "0.5"],
    ["--seed", "3"],
])
def test_spec_flag_beside_config_exits_1(tmp_path, capsys, flag):
    config = write_config(tmp_path, {"model": {"kind": "zero"}, "n_grid": [8], "p_grid": [1.0]})
    code, _, err = run(["experiment", "--config", config, *flag, "--out", str(tmp_path / "r")],
                       capsys)
    assert code == 1
    assert flag[0] in err
    assert not (tmp_path / "r.json").exists()


#: Parameters of each model kind for the pinned sweeps; minimax also needs
#: p < 1, so it gets its own p grid.
_PINNED_SWEEPS = {
    "zero": {},
    "lowrank": {"params": {"r": 2, "noise": "sign"}},
    "lowrank_adversary": {"params": {"r": 2}},
    "blockmodel": {"params": {"k": 2, "in_prob": 0.7, "out_prob": 0.2}},
    "distance": {"params": {"dim": 2}},
    "latent": {"params": {"f": "one_minus_l1", "dim": 2}},
    "correlation": {},
    "graphon": {"params": {"f": "product"}},
    "bradley_terry": {"params": {"games_per_pair": 3}},
    "minimax": {"params": {"theta": 0.4}, "p_grid": [0.3, 0.6]},
}

#: sha256 of each kind's reports (JSON, CSV). The blockmodel pair was
#: recorded at the commit before the sweep's blockmodel lost its block
#: matrix parameter; the others at the commit before the generators
#: returned plain arrays (x86-64, numpy 2.4, OpenBLAS 0.3.31).
_REPORT_DIGESTS = {
    "blockmodel": ["4ce798bec45176b253c9c2cc72bfdb8672d76da22613f531d03970388940d5ee",
                   "df464269ea1b5662dfc5381b928c32a5b059403cdc7058fa29f4795cd131147d"],
    "bradley_terry": ["320191e60ec4a9738610b75b7ef9a513528307acf9211eda2cd3b85335a906d0",
                      "868a10238fe7a20fc4d981e079da9a64b688274c7aeb66c9b610944f4f928970"],
    "correlation": ["5881b59904e0b039cf92ca5059db647aae515106d0cb5ea6201247b7cd695d73",
                    "5f6117d0282ab37b1777368bde88d67847d2718c0ae93cea9932db05d912f254"],
    "distance": ["8e875eb4386e2e44cb59d34861a26a44902d5439f618e2a5e7bcdedc64d4f3b8",
                 "b1be2d873506a029172f7a9c4172fbe22e961ebc0e77e715093a496ddfc426af"],
    "graphon": ["7c4d678179d41cde4da467d92ef5bceee604d53c6e572426f5b4df1d1d061b89",
                "49bab09197fbb52b5a7ea1ef80f732bf9c4a1186a54c41ed827086e1e7fd10d6"],
    "latent": ["c128d259c9ce0b2afb121f1cf7efe630fd302ad1f380c67dc9265ed249649ad7",
               "dff727060c46131e88206f02143bfc0973647b8fbced89320135abedd6bdbcfc"],
    "lowrank": ["230dc6bbe3d9f3296e8d20f642e472c09b3a1be25c5438120093b005d490732a",
                "0519ef0c46af809bc7b034be623f397fb51f1a5f3f1727029fa5860612bbb29d"],
    "lowrank_adversary": ["80366652688f147967e29b6d14440cf89ebd6a0ec1d17758a417755d4a56e888",
                          "53ba83b7e03b8e959e2533c93290120d5175efe0d2f9143d8f658550b0b9ed96"],
    "minimax": ["696a2fee56d2aa1105b93278254ac9489a5b0e2139466b6e90787fc5b9b1ec63",
                "3ee7a63dc3807d225ee88d500e75344b06e16bd094898671110d2e64b4b27606"],
    "zero": ["18e0cf0997b44033f456a87208ca0489254dc9f34944d1194681d7f67cda37f2",
             "b321e823923ada2b89caf9a9e19182494ccc057b56c7cd62789dc06b2dadc6f5"],
}


@pytest.mark.parametrize("kind", sorted(_PINNED_SWEEPS))
def test_report_bytes_pinned(tmp_path, capsys, kind):
    model = {"kind": kind, "params": _PINNED_SWEEPS[kind].get("params", {})}
    config = {"model": model, "n_grid": [12, 16, 20],
              "p_grid": _PINNED_SWEEPS[kind].get("p_grid", [0.5, 1.0]), "eta": 0.05,
              "sigma_sq": 0.5, "trials": 2, "seed": 3, "baseline_trivial": True}
    code, _, _ = experiment(tmp_path, capsys, config)
    assert code == 0
    digests = [hashlib.sha256((tmp_path / f"r.{ext}").read_bytes()).hexdigest()
               for ext in ("json", "csv")]
    assert digests == _REPORT_DIGESTS[kind]


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


def test_estimate_non_utf8_input_exits_1(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1.0,\xff\n")
    code, _, err = run(["estimate", str(path), "--out", str(tmp_path / "e.csv")], capsys)
    assert code == 1
    assert err == "error: line 1: not UTF-8: byte 0xff\n"
    assert not (tmp_path / "e.csv").exists()


def test_estimate_command_bytes_pinned(tmp_path, capsys):
    # sha256 of the estimate CSV, the --report JSON and stdout, recorded
    # before write_matrix_csv lost its mask argument (x86-64, numpy 2.4,
    # OpenBLAS 0.3.31). The input has NA entries, a header row and a
    # rank-1 signal, so one component is kept.
    rng = make_rng(3)
    signal = np.outer(rng.choice([-1.0, 1.0], 14), rng.uniform(0.5, 1.0, 11)) * 0.9
    values = (signal + rng.uniform(-0.1, 0.1, (14, 11))).tolist()
    seen = (rng.random((14, 11)) < 0.6).tolist()
    path = tmp_path / "in.csv"
    path.write_text(",".join(f"x{j}" for j in range(11)) + "\n" + "".join(
        ",".join(repr(v) if s else "NA" for v, s in zip(row, seen_row)) + "\n"
        for row, seen_row in zip(values, seen)))
    code, stdout, _ = run(["estimate", str(path), "--header", "--out", str(tmp_path / "e.csv"),
                           "--report", str(tmp_path / "e.json")], capsys)
    assert code == 0
    assert json.loads(stdout)["retained_rank"] == 1
    digests = [hashlib.sha256(data).hexdigest() for data in (
        (tmp_path / "e.csv").read_bytes(), (tmp_path / "e.json").read_bytes(), stdout.encode())]
    assert digests == ["fbf7970487567d9420d7d700cb6f3a41b3ff4457b003d4d2650ce602714c7330",
                       "6ff79dd8f0303580b2c26dd6ee4a237ebaae2d681f63a23f299e7a49e8cd11e7",
                       "794eb551f7712be31a13cbc4c1314b0c1a6ee151d1d066d4cf8641184219ba2e"]


def test_experiment_help_states_the_byte_contract(capsys):
    code, stdout, _ = run(["experiment", "--help"], capsys)
    assert code == 0
    help_text = " ".join(stdout.split())
    assert "byte-identical reports on the same numpy build at the same BLAS thread count" in help_text
