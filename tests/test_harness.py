import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import usvt
from usvt.errors import ValidationError
from usvt.estimator import SymmetryMode
from usvt.generators import gen_blockmodel
from usvt.harness import (
    FAMILIES,
    MODEL_KINDS,
    ExperimentSpec,
    ModelSpec,
    estimate_file,
    report_to_dict,
    run_experiment,
    write_report_csv,
    write_report_json,
)
from usvt.matrixio import read_matrix_csv, write_matrix_csv
from usvt.rng import make_rng


#: One 300-row symmetric (blockmodel) and general (sign-noise lowrank) sweep
#: at two p; prints the serialized cells as JSON.
_THREADS_SCRIPT = """
import json
from usvt.harness import ExperimentSpec, report_to_dict, run_experiment
cells = []
for model in ({"kind": "blockmodel", "params": {"k": 3}},
              {"kind": "lowrank", "params": {"r": 3, "noise": "sign"}}):
    spec = {"model": model, "n_grid": [300], "p_grid": [0.3, 1.0], "seed": 5}
    cells += report_to_dict(run_experiment(ExperimentSpec.from_dict(spec)))["cells"]
print(json.dumps(cells))
"""


def small_spec(**overrides):
    base = dict(
        model=ModelSpec("blockmodel", {"k": 2}),
        n_grid=(30, 45),
        p_grid=(0.5, 1.0),
        eta=0.01,
        trials=3,
        seed=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ModelSpec("tensor")

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            small_spec(n_grid=())
        with pytest.raises(ValidationError):
            small_spec(p_grid=(1.5,))
        with pytest.raises(ValidationError):
            small_spec(trials=0)

    def test_integral_values_accepted(self):
        spec = small_spec(n_grid=["8", 16.0], trials="5", seed=3.0)
        assert spec.n_grid == (8, 16) and spec.trials == 5 and spec.seed == 3
        assert all(type(v) is int for v in (*spec.n_grid, spec.trials, spec.seed))
        for kind, params, typed in (("lowrank", {"r": 3.0}, 3), ("lowrank", {"r": "3"}, 3),
                                    ("minimax", {"theta": 1}, 1.0)):
            (value,) = ModelSpec(kind, params).params.values()
            assert value == typed and type(value) is type(typed)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValidationError, match="in_porb") as info:
            ModelSpec("blockmodel", {"k": 2, "in_porb": 0.99})
        assert "in_prob" in str(info.value)  # the accepted names are listed

    def test_missing_required_param_rejected(self):
        with pytest.raises(ValidationError, match="'r'"):
            ModelSpec("lowrank", {"noise": "sign"})
        with pytest.raises(ValidationError, match="'theta'"):
            ModelSpec("minimax")

    def test_out_of_range_param_rejected(self):
        with pytest.raises(ValidationError, match="parameter 'k' must be >= 1"):
            ModelSpec("blockmodel", {"k": -1})
        # The ends of each range are in it.
        ModelSpec("minimax", {"theta": 0.0})
        ModelSpec("minimax", {"theta": 1.0})
        ModelSpec("blockmodel", {"k": 1, "in_prob": 1.0, "out_prob": 0.0})

    def test_every_family_param_accepted(self):
        # Every default converts to itself, and every accepted name of every
        # name parameter runs a tiny cell.
        for kind, family in FAMILIES.items():
            required = {k: v(1) for k, v in family.params.items() if isinstance(v, type)}
            settings = ModelSpec(kind, required).settings()
            assert ModelSpec(kind, settings).settings() == settings
            names = [(k, name) for k, v in family.params.items() if isinstance(v, tuple)
                     for name in v]
            for key, name in names or [(None, None)]:
                params = {**required, **({key: name} if key else {})}
                spec = ExperimentSpec(model=ModelSpec(kind, params), n_grid=(6,),
                                      p_grid=(0.5,), seed=1)
                failure = run_experiment(spec).cells[0].failure
                assert failure is None, (kind, key, name, failure)
        assert MODEL_KINDS == tuple(FAMILIES)

    def test_every_param_kind_is_checked(self):
        # The spec converts and range-checks every model parameter before any
        # cell runs: each is required (int or float), one of a tuple of names,
        # or has a bool, int or float default whose type is its kind.
        for kind, family in FAMILIES.items():
            for name, spec in family.params.items():
                names = isinstance(spec, tuple) and all(isinstance(v, str) for v in spec)
                assert spec in (int, float) or names or type(spec) in (bool, int, float), \
                    (kind, name, spec)

    def test_from_dict_rejects_unknown_keys(self):
        d = small_spec().to_dict()
        with pytest.raises(ValidationError, match="trails"):
            ExperimentSpec.from_dict({**d, "trails": 5})
        with pytest.raises(ValidationError, match="parms"):
            ExperimentSpec.from_dict({**d, "model": {"kind": "zero", "parms": {}}})

    def test_round_trip_dict(self):
        spec = small_spec(sigma_sq=0.5, baseline_trivial=True)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec


class TestRunExperiment:
    def test_zero_model_recovers_exactly(self):
        spec = ExperimentSpec(model=ModelSpec("zero"), n_grid=(20, 40), p_grid=(0.3, 1.0),
                              eta=0.01, trials=2, seed=1)
        report = run_experiment(spec)
        for cell in report.cells:
            assert cell.failure is None
            assert cell.mean_mse <= 1e-12

    def test_grid_complete_and_ordered(self):
        spec = small_spec()
        report = run_experiment(spec)
        seen = [(c.n, c.p) for c in report.cells]
        expected = [(n, p) for n in spec.n_grid for p in spec.p_grid]
        assert seen == expected

    def test_reports_byte_identical_across_runs(self, tmp_path):
        spec = small_spec()
        paths = []
        for tag in ("a", "b"):
            report = run_experiment(spec)
            jpath = tmp_path / f"{tag}.json"
            cpath = tmp_path / f"{tag}.csv"
            write_report_json(report, jpath)
            write_report_csv(report, cpath)
            paths.append((jpath.read_bytes(), cpath.read_bytes()))
        assert paths[0] == paths[1]

    def test_monotone_information_blockmodel(self):
        spec = ExperimentSpec(model=ModelSpec("blockmodel", {"k": 2}), n_grid=(60,),
                              p_grid=(0.3, 1.0), eta=0.01, trials=20, seed=7)
        report = run_experiment(spec)
        by_p = {c.p: c.mean_mse for c in report.cells}
        assert by_p[1.0] <= by_p[0.3]

    def test_monotone_information_lowrank(self):
        spec = ExperimentSpec(model=ModelSpec("lowrank", {"r": 2, "noise": "sign"}),
                              n_grid=(60,), p_grid=(0.3, 1.0), eta=0.01, trials=20, seed=8)
        report = run_experiment(spec)
        by_p = {c.p: c.mean_mse for c in report.cells}
        assert by_p[1.0] <= by_p[0.3]

    def test_failure_recorded_and_other_cells_complete(self):
        cases = [
            # Rank 12 cannot be realized at n = 10; it can at n = 20.
            (ModelSpec("lowrank", {"r": 12}), (10, 20), "r=12"),
            # The covering number of [0, 1]^300 at n = 4 is 16^300, beyond
            # the float range; at n = 2 it is 8^300, within it.
            (ModelSpec("distance", {"dim": 300}), (4, 2), "'dim'"),
        ]
        for model, n_grid, named in cases:
            spec = ExperimentSpec(model=model, n_grid=n_grid, p_grid=(1.0,), eta=0.01,
                                  trials=1, seed=2)
            report = run_experiment(spec)
            failed, *done = report.cells
            assert failed.failure.startswith("ValidationError: "), model
            assert named in failed.failure and failed.mean_mse is None, model
            assert all(c.failure is None and c.mean_mse is not None for c in done), model
            # report machinery still serializes
            payload = report_to_dict(report)
            assert payload["cells"][0]["failure"] == failed.failure

    def test_only_validation_and_numerical_errors_recorded(self, monkeypatch):
        def raising(exc):
            def estimate(data, config, baseline):
                raise exc
            return estimate

        # Each trial computes its estimate and baseline in one call.
        spec = ExperimentSpec(model=ModelSpec("zero"), n_grid=(8,), p_grid=(1.0,))
        monkeypatch.setattr("usvt.harness._usvt_and_baseline",
                            raising(np.linalg.LinAlgError("SVD did not converge")))
        assert run_experiment(spec).cells[0].failure == "LinAlgError: SVD did not converge"
        monkeypatch.setattr("usvt.harness._usvt_and_baseline", raising(RuntimeError("a bug")))
        with pytest.raises(RuntimeError, match="a bug"):
            run_experiment(spec)

    def test_trivial_baseline_present(self):
        spec = small_spec(baseline_trivial=True)
        report = run_experiment(spec)
        assert all(c.trivial_mean_mse is not None for c in report.cells)

    def test_rate_fit_emitted_per_p(self):
        spec = ExperimentSpec(model=ModelSpec("blockmodel", {"k": 2}),
                              n_grid=(20, 40, 80), p_grid=(1.0,), eta=0.01, trials=3, seed=3)
        report = run_experiment(spec)
        fit = report.rate_fits["1.0"]
        assert fit is not None and fit.slope < 0

    def test_rate_fit_absent_for_short_grid(self):
        report = run_experiment(small_spec())
        assert report.rate_fits["1.0"] is None  # only two sizes

    def test_each_model_kind_runs(self):
        cases = {
            "zero": {},
            "lowrank": {"r": 2},
            "lowrank_adversary": {"r": 2},
            "blockmodel": {"k": 2},
            "distance": {"dim": 1},
            "latent": {"f": "dot", "dim": 2},
            "correlation": {},
            "graphon": {"f": "mean"},
            "bradley_terry": {},
            "minimax": {"theta": 0.3},
        }
        for kind, params in cases.items():
            spec = ExperimentSpec(model=ModelSpec(kind, params), n_grid=(24,),
                                  p_grid=(0.8,), eta=0.01, trials=1, seed=4)
            report = run_experiment(spec)
            assert report.cells[0].failure is None, (kind, report.cells[0].failure)
            assert report.cells[0].mean_mse is not None
            assert report.cells[0].bracket is not None

    def test_minimax_needs_p_below_one(self):
        spec = ExperimentSpec(model=ModelSpec("minimax", {"theta": 0.3}), n_grid=(16,),
                              p_grid=(1.0,), eta=0.01, trials=1, seed=5)
        report = run_experiment(spec)
        assert report.cells[0].failure is not None

    def test_no_bracket_at_p_zero(self):
        report = run_experiment(small_spec(p_grid=(0.0, 1.0), n_grid=(16,), trials=1))
        assert [c.bracket is None for c in report.cells] == [True, False]

    def test_each_model_drawn_once(self, monkeypatch):
        # One draw per (n, trial), observed at every p of the grid.
        calls = []

        def spy(*args):
            calls.append(args)
            return gen_blockmodel(*args)

        monkeypatch.setattr("usvt.harness.gen_blockmodel", spy)
        spec = ExperimentSpec(model=ModelSpec("blockmodel", {"k": 2}), n_grid=(12, 16),
                              p_grid=(0.3, 0.6, 1.0), trials=2, seed=3)
        assert all(c.failure is None for c in run_experiment(spec).cells)
        assert len(calls) == 4

    def test_failed_bracket_draws_no_model(self, monkeypatch):
        # The covering number of [0, 1]^1000000 overflows at n = 2, so both
        # cells fail at their bracket, before any point is drawn.
        calls = []
        monkeypatch.setattr("usvt.harness.uniform_points", lambda *args: calls.append(args))
        spec = ExperimentSpec(model=ModelSpec("distance", {"dim": 1000000}), n_grid=(2,),
                              p_grid=(0.5, 1.0), trials=2)
        assert all("'dim'" in c.failure for c in run_experiment(spec).cells)
        assert calls == []

    def test_cells_agree_across_blas_thread_counts(self):
        # Reports are byte-identical only at one BLAS thread count: from 300
        # rows a decomposition may differ in its last bits at another. The
        # retained rank, the bracket and the error to 1e-12 still agree.
        src = str(Path(usvt.__file__).resolve().parent.parent)
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, check=True,
                                 capture_output=True, text=True, timeout=300).stdout
            runs.append(json.loads(out))
        assert len(runs[0]) == 4
        for one, two in zip(*runs):
            assert one["failure"] is None and two["failure"] is None
            assert one["mean_retained_rank"] == two["mean_retained_rank"] > 0
            assert one["bracket"] == two["bracket"]
            assert one["mean_mse"] == pytest.approx(two["mean_mse"], rel=1e-12, abs=0.0)

    def test_blockmodel_diagonal_knob(self):
        spec = ExperimentSpec(
            model=ModelSpec("blockmodel", {"k": 2, "observe_diagonal": False}),
            n_grid=(24,), p_grid=(1.0,), eta=0.01, trials=2, seed=6,
        )
        report = run_experiment(spec)
        assert report.cells[0].failure is None


class TestReportSerialization:
    def test_json_schema_and_no_wall_time(self, tmp_path):
        report = run_experiment(small_spec())
        payload = report_to_dict(report)
        assert payload["schema"] == 1
        assert all("wall_time" not in cell for cell in payload["cells"])
        path = tmp_path / "r.json"
        write_report_json(report, path)
        parsed = json.loads(path.read_text())
        assert parsed == json.loads(json.dumps(payload))

    def test_csv_one_row_per_cell(self, tmp_path):
        report = run_experiment(small_spec())
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + len(report.cells)
        assert lines[0].startswith("n,p,mean_mse")


    def test_csv_failure_commas_become_semicolons(self, tmp_path):
        spec = ExperimentSpec(model=ModelSpec("minimax", {"theta": 0.3}), n_grid=(16,),
                              p_grid=(1.0,), eta=0.01, trials=1, seed=5)
        path = tmp_path / "r.csv"
        write_report_csv(run_experiment(spec), path)
        row = path.read_text().splitlines()[1]
        assert row == "16,1.0,,,,,,ValidationError: p must lie in (0; 1); got 1.0"


class TestEstimateFile:
    def test_zero_matrix(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        rpt = tmp_path / "diag.json"
        write_matrix_csv(src, np.zeros((8, 8)))
        report, diag = estimate_file(src, out, rpt, eta=0.01)
        values, mask = read_matrix_csv(out)
        assert np.all(values == 0.0) and mask.all()
        assert diag["p_hat"] == 1.0 and diag["retained_rank"] == 0
        assert json.loads(rpt.read_text())["schema"] == 1

    def test_round_trip_preserves_values(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        values = make_rng(9).uniform(-1, 1, (12, 9))
        write_matrix_csv(src, values)
        estimate_file(src, out, None, eta=0.01)
        # the output is itself a valid matrix file reproducing the estimate
        est1, _ = read_matrix_csv(out)
        estimate_file(out, tmp_path / "out2.csv", None, eta=0.01)
        est2, _ = read_matrix_csv(tmp_path / "out2.csv")
        assert est1.shape == values.shape
        assert np.isfinite(est2).all()

    def test_all_missing_gives_midpoint_and_flag(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        src.write_text("NA,NA\nNA,NA\n")
        report, diag = estimate_file(src, out, None, eta=0.01, interval=(0.0, 1.0))
        assert diag["no_data"] is True
        values, _ = read_matrix_csv(out)
        assert np.all(values == 0.5)

    def test_out_of_interval_rejected(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("0.5,3.5\n0.1,0.2\n")
        with pytest.raises(ValidationError):
            estimate_file(src, tmp_path / "out.csv", None, eta=0.01)

    def test_symmetric_mode(self, tmp_path):
        src = tmp_path / "in.csv"
        rng = make_rng(10)
        vals = rng.uniform(0, 1, (10, 10))
        vals = (vals + vals.T) / 2
        write_matrix_csv(src, vals)
        report, diag = estimate_file(src, tmp_path / "out.csv", None, eta=0.01,
                                     interval=(0.0, 1.0), mode=SymmetryMode.SYMMETRIC)
        assert diag["mode"] == "sym"

    def test_string_mode_rejected_before_writing(self, tmp_path):
        src = tmp_path / "in.csv"
        write_matrix_csv(src, np.full((4, 4), 0.5))
        out, rpt = tmp_path / "out.csv", tmp_path / "diag.json"
        with pytest.raises(ValidationError, match="mode"):
            estimate_file(src, out, rpt, eta=0.01, mode="sym")
        assert not out.exists() and not rpt.exists()


class TestRewrite:
    """Every writer writes an existing file over in place and cuts it to
    length, with ``open(path, "w")``'s bytes, links and permissions."""

    def test_writers_open_without_truncating(self, tmp_path, monkeypatch):
        # open(path, "w") reaches no os.open, so a writer that truncates
        # first records nothing here.
        report = run_experiment(small_spec(n_grid=(30,), trials=1))
        src = tmp_path / "in.csv"
        write_matrix_csv(src, np.full((4, 4), 0.5))
        real_open, seen = os.open, []

        def recorder(path, flags, *args, **kwargs):
            seen.append((Path(path).name, flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recorder)
        write_matrix_csv(tmp_path / "m.csv", np.eye(3))
        write_report_json(report, tmp_path / "r.json")
        write_report_csv(report, tmp_path / "r.csv")
        estimate_file(src, tmp_path / "e.csv", tmp_path / "e.json", eta=0.01)
        assert [name for name, _ in seen] == ["m.csv", "r.json", "r.csv", "e.csv", "e.json"]
        assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in seen)

    def test_rewrite_over_a_longer_file_gives_fresh_bytes(self, tmp_path):
        # Fails if the cut to length is dropped; truncating first passes.
        def rewritten(write, first, second, name):
            write(first, tmp_path / name)
            write(second, tmp_path / name)
            write(second, tmp_path / f"fresh.{name}")
            return (tmp_path / name).read_bytes(), (tmp_path / f"fresh.{name}").read_bytes()

        old, fresh = rewritten(lambda values, path: write_matrix_csv(path, values),
                               make_rng(1).uniform(-1, 1, (40, 40)),
                               make_rng(2).uniform(-1, 1, (3, 3)), "m.csv")
        assert old == fresh and len(fresh) < 200
        large, small = run_experiment(small_spec()), run_experiment(
            small_spec(n_grid=(30,), p_grid=(1.0,), trials=1))
        for write, name in ((write_report_json, "r.json"), (write_report_csv, "r.csv")):
            old, fresh = rewritten(write, large, small, name)
            assert old == fresh
        big, tiny = tmp_path / "big.csv", tmp_path / "tiny.csv"
        write_matrix_csv(big, make_rng(3).uniform(-1, 1, (30, 30)))
        write_matrix_csv(tiny, make_rng(4).uniform(-1, 1, (3, 3)))
        estimate_file(big, tmp_path / "e.csv", tmp_path / "e.json", eta=0.01)
        estimate_file(tiny, tmp_path / "e.csv", tmp_path / "e.json", eta=0.01)
        estimate_file(tiny, tmp_path / "f.csv", tmp_path / "f.json", eta=0.01)
        for ext in ("csv", "json"):
            assert (tmp_path / f"e.{ext}").read_bytes() == (tmp_path / f"f.{ext}").read_bytes()

    @pytest.mark.skipif(os.name != "posix", reason="symlinks, hard links and modes are POSIX")
    def test_rewrite_keeps_links_and_permissions(self, tmp_path):
        # As under open(path, "w"); the mode check fails if the opener
        # drops its 0o666 (os.open's default mode is 0o777).
        values = make_rng(5).uniform(-1, 1, (3, 3))
        with open(tmp_path / "plain.csv", "w"):
            pass
        write_matrix_csv(tmp_path / "new.csv", values)
        assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
        target = tmp_path / "target.csv"
        target.write_text("9" * 1000)
        target.chmod(0o600)
        os.link(target, tmp_path / "hard.csv")
        write_matrix_csv(tmp_path / "hard.csv", values)
        assert target.read_bytes() == (tmp_path / "new.csv").read_bytes()
        assert target.stat().st_mode & 0o777 == 0o600


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: small_spec(n_grid=(30, 0)), "n_grid: matrix sizes must be positive",
                 id="n-grid"),
    pytest.param(lambda: ModelSpec("blockmodel", {"out_prob": 1.5, "k": 0}),
                 r"^blockmodel model: parameter 'k' must be >= 1; "
                 r"parameter 'out_prob' must lie in \[0, 1\]$", id="two-params-in-family-order"),
])
def test_guard_rejects_bad_value(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
