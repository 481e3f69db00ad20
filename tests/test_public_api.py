import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import usvt

#: The package's public names. A name added to or removed from
#: ``usvt.__all__`` must be added to or removed from this list too.
PUBLIC = [
    "CellResult", "CheckReport", "CheckResult", "EstimateReport", "EstimatorConfig",
    "ExperimentReport", "ExperimentSpec", "GRAPHON_CATALOG", "LATENT_CATALOG", "MaskedMatrix",
    "MatrixFormatError", "ModelSpec", "RateFit", "SvdFactorization", "SymmetryMode",
    "TournamentModel", "ValidationError", "__version__", "bernoulli_mask",
    "bernoulli_round", "bradley_terry_bracket", "check_suite", "denoise_by_threshold",
    "denoise_error_constant", "distance_bracket", "estimate_file", "frobenius_norm",
    "gen_blockmodel", "gen_bradley_terry", "gen_correlation_matrix", "gen_distance_matrix",
    "gen_graphon", "gen_latent_space", "gen_low_rank", "gen_low_rank_adversary",
    "gen_minimax_instance", "lipschitz_latent_bracket", "low_rank_lower_bound", "make_rng",
    "mix_seed", "mse", "nuclear_bracket", "nuclear_norm", "numerical_rank",
    "play_tournament", "psd_bracket", "rate_fit", "read_matrix_csv", "run_experiment",
    "spectral_concentration_trial", "spectral_norm", "svd", "threshold_value",
    "trivial_estimate", "uniform_points", "usvt_estimate", "write_matrix_csv",
    "write_report_csv", "write_report_json",
]


def test_public_surface_pinned():
    assert len(usvt.__all__) == len(set(usvt.__all__))
    assert sorted(usvt.__all__) == PUBLIC
    for name in usvt.__all__:
        assert hasattr(usvt, name), name


#: Parameter names of each public function and dataclass. An option added
#: to or removed from any of them must be added to or removed from this
#: map too.
OPTIONS = {
    "CellResult": ("n", "p", "mean_mse", "std_mse", "mean_retained_rank", "bracket",
                   "trivial_mean_mse", "failure", "wall_time"),
    "CheckReport": ("results",),
    "CheckResult": ("name", "passed", "failed", "detail"),
    "EstimateReport": ("estimate", "p_hat", "q_hat", "threshold", "retained_rank", "no_data"),
    "EstimatorConfig": ("eta", "sigma_sq", "interval", "mode"),
    "ExperimentReport": ("spec", "cells", "rate_fits"),
    "ExperimentSpec": ("model", "n_grid", "p_grid", "eta", "sigma_sq", "trials", "seed",
                       "baseline_trivial"),
    "MaskedMatrix": ("values", "mask", "mode"),
    "ModelSpec": ("kind", "params"),
    "RateFit": ("ns", "mses", "slope", "intercept", "r_squared"),
    "SvdFactorization": ("singular_values", "left_vectors", "right_vectors"),
    "TournamentModel": ("p", "strength_order"),
    "bernoulli_mask": ("rows", "cols", "p", "mode", "seed"),
    "bernoulli_round": ("m", "mode", "seed"),
    "bradley_terry_bracket": ("n", "p"),
    "check_suite": ("selectors", "seed"),
    "denoise_by_threshold": ("a", "b", "delta"),
    "denoise_error_constant": ("delta",),
    "distance_bracket": ("n", "p", "dim"),
    "estimate_file": ("input_path", "out_path", "report_path", "eta", "sigma_sq", "interval",
                      "mode", "header"),
    "frobenius_norm": ("a",),
    "gen_blockmodel": ("n", "k", "block_probs", "seed"),
    "gen_bradley_terry": ("n", "seed", "family", "strengths"),
    "gen_correlation_matrix": ("n", "seed"),
    "gen_distance_matrix": ("points", "metric"),
    "gen_graphon": ("n", "f", "seed"),
    "gen_latent_space": ("n", "dim", "f", "seed"),
    "gen_low_rank": ("m", "n", "r", "seed"),
    "gen_low_rank_adversary": ("m", "n", "r", "seed"),
    "gen_minimax_instance": ("m", "n", "delta", "p", "seed"),
    "lipschitz_latent_bracket": ("n", "p", "dim"),
    "low_rank_lower_bound": ("m", "r", "p"),
    "make_rng": ("seed",),
    "mix_seed": ("seed", "path"),
    "mse": ("estimate", "truth"),
    "nuclear_bracket": ("m_matrix", "p"),
    "nuclear_norm": ("a",),
    "numerical_rank": ("a", "tol"),
    "play_tournament": ("model", "p", "games_per_pair", "seed"),
    "psd_bracket": ("n", "p"),
    "rate_fit": ("ns", "mses"),
    "read_matrix_csv": ("path", "header"),
    "run_experiment": ("spec",),
    "spectral_concentration_trial": ("n", "dist", "eta", "trials", "seed"),
    "spectral_norm": ("a",),
    "svd": ("a",),
    "threshold_value": ("n", "p_hat", "eta", "sigma_sq"),
    "trivial_estimate": ("data", "interval"),
    "uniform_points": ("n", "dim", "seed"),
    "usvt_estimate": ("data", "config"),
    "write_matrix_csv": ("path", "values", "header"),
    "write_report_csv": ("report", "path"),
    "write_report_json": ("report", "path"),
}


def test_options_pinned():
    public = {name: getattr(usvt, name) for name in usvt.__all__}
    pinned = {name for name, obj in public.items()
              if inspect.isfunction(obj) or dataclasses.is_dataclass(obj)}
    assert pinned == set(OPTIONS)
    for name in OPTIONS:
        assert tuple(inspect.signature(public[name]).parameters) == OPTIONS[name], name


def test_no_catch_all_handlers():
    # A handler that catches every exception turns a bug into a silent
    # result; src/usvt/ catches only the errors it means to handle.
    broad = {"Exception", "BaseException"}
    found = []
    modules = sorted(Path(usvt.__file__).parent.glob("*.py"))
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names = [getattr(t, "id", getattr(t, "attr", None)) for t in caught]
                if any(t is None for t in caught) or broad & set(names):
                    found.append(f"{path.name}:{node.lineno}")
    assert len(modules) == 11 and found == []


def test_imports_are_stdlib_numpy_or_usvt():
    # pyproject.toml declares numpy as the only dependency, so any other
    # import (scipy, say) would work where it happens to be installed and
    # fail where it is not.
    allowed = set(sys.stdlib_module_names) | {"numpy", "usvt"}
    found = []
    modules = sorted(Path(usvt.__file__).parent.glob("*.py"))
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert len(modules) == 11 and found == []
