"""Configuration-driven experiment runner.

An :class:`ExperimentSpec` names a model family, grids of matrix sizes and
observation probabilities, estimator settings, a trial count and a master
seed. :func:`run_experiment` sweeps the grid, scores the estimator against
the generated truth in every cell, optionally scores the trivial baseline
(the observed matrix itself), fits log-log error rates per observation
probability, and emits machine-readable reports (JSON plus a flat CSV, one
row per grid cell).

Reproducibility contract: identical spec + seed gives byte-identical
report files. Per-trial seeds are derived as ``mix_seed(seed, stream,
n_index, trial)`` (stream 1 = model draws, stream 2 = mask/game draws); the
p-grid index is deliberately not part of the path, so cells at different p
share their model draws and get nested masks — paired comparisons across p.
Cell wall times are tracked on the in-memory results but never serialized,
since timing would break byte-identical reports.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .errors import ValidationError
from .estimator import (
    EstimatorConfig,
    MaskedMatrix,
    SymmetryMode,
    trivial_estimate,
    usvt_estimate,
)
from .evaluation import (
    bradley_terry_bracket,
    distance_bracket,
    lipschitz_latent_bracket,
    low_rank_lower_bound,
    mse,
    nuclear_bracket,
    psd_bracket,
    rate_fit,
)
from .generators import (
    GRAPHON_CATALOG,
    LATENT_CATALOG,
    bernoulli_mask,
    bernoulli_round,
    gen_blockmodel,
    gen_bradley_terry,
    gen_correlation_matrix,
    gen_distance_matrix,
    gen_graphon,
    gen_latent_space,
    gen_low_rank,
    gen_low_rank_adversary,
    gen_minimax_instance,
    play_tournament,
    uniform_points,
)
from .matrixio import read_matrix_csv, write_matrix_csv
from .rng import mix_seed

__all__ = [
    "FAMILIES",
    "MODEL_KINDS",
    "ModelSpec",
    "ExperimentSpec",
    "CellResult",
    "ExperimentReport",
    "run_experiment",
    "report_to_dict",
    "write_report_json",
    "write_report_csv",
    "estimate_file",
]

ASYM = SymmetryMode.ASYMMETRIC
SYM = SymmetryMode.SYMMETRIC

#: Threshold slack of :func:`estimate_file` and :class:`ExperimentSpec` when none is given.
DEFAULT_ETA = 0.01

#: Default of a parameter that has none: the caller must give it.
REQUIRED = object()


@dataclass(frozen=True)
class Family:
    """One model family: accepted parameter names with their defaults
    (:data:`REQUIRED` for none), symmetry mode, known value interval,
    ``realize(prm, n, p, model_seed, data_seed) -> (truth, data)`` with
    ``data`` a full matrix seen through a Bernoulli(p) mask in ``mode`` or a
    self-masked :class:`MaskedMatrix`, and ``bracket(prm, n, p)``, the rate
    bracket (``None``: nuclear-norm bracket of the first trial's truth)."""

    params: dict
    mode: SymmetryMode
    interval: tuple | None
    realize: Callable
    bracket: Callable | None = None


def _observed(x: np.ndarray, mask: np.ndarray, mode: SymmetryMode) -> MaskedMatrix:
    return MaskedMatrix(values=np.where(mask, x, 0.0), mask=mask, mode=mode)


def _catalog_lookup(catalog, name, what):
    try:
        return catalog[name]
    except KeyError:
        raise ValidationError(f"unknown {what} {name!r}; choose from {sorted(catalog)}") from None


def _exact(truth):
    """Realize function of a family whose data are the exact entries of
    the truth ``truth(prm, n, p, model_seed)``."""
    def realize(prm, n, p, model_seed, data_seed):
        t = truth(prm, n, p, model_seed)
        return t, t
    return realize


def _realize_lowrank(prm, n, p, model_seed, data_seed):
    truth = gen_low_rank(n, n, int(prm["r"]), model_seed)
    if prm["noise"] == "none":
        return truth, truth
    if prm["noise"] == "sign":
        flips = bernoulli_round((truth + 1.0) / 2.0, ASYM, mix_seed(model_seed, 10))
        return truth, 2.0 * flips - 1.0
    raise ValidationError(f"unknown lowrank noise model {prm['noise']!r}")


def _realize_blockmodel(prm, n, p, model_seed, data_seed):
    k = int(prm["k"])
    if prm["block_probs"] is None:
        probs = np.full((k, k), float(prm["out_prob"]))
        np.fill_diagonal(probs, float(prm["in_prob"]))
    else:
        probs = np.asarray(prm["block_probs"], dtype=float)
    truth, adjacency = gen_blockmodel(n, k, probs, model_seed)
    if prm["observe_diagonal"]:
        return truth, adjacency
    mask = bernoulli_mask(n, n, p, SYM, data_seed) & ~np.eye(n, dtype=bool)
    return truth, _observed(adjacency, mask, SYM)


def _latent_truth(prm, n, p, seed):
    f = _catalog_lookup(LATENT_CATALOG, prm["f"], "latent function")
    return gen_latent_space(n, int(prm["dim"]), f, seed)[0]


def _realize_graphon(prm, n, p, model_seed, data_seed):
    sample = gen_graphon(n, _catalog_lookup(GRAPHON_CATALOG, prm["f"], "graphon"), model_seed)
    return sample.m, sample.adjacency


def _realize_bradley_terry(prm, n, p, model_seed, data_seed):
    # Pairs play with probability p: the tournament draw is the mask.
    tm = gen_bradley_terry(n, model_seed, prm["family"], prm["strengths"])
    return tm.p, play_tournament(tm, p, int(prm["games_per_pair"]), data_seed)


def _minimax_truth(prm, n, p, seed):
    # Nuclear budget theta * n^{3/2}; the construction requires p < 1.
    return gen_minimax_instance(n, n, float(prm["theta"]) * n * math.sqrt(n), p, seed).m_matrix


#: Every model family the harness sweeps, by kind.
FAMILIES = {
    "zero": Family({}, ASYM, None, _exact(lambda prm, n, p, seed: np.zeros((n, n)))),
    "lowrank": Family(
        {"r": REQUIRED, "noise": "none"}, ASYM, None, _realize_lowrank,
        lambda prm, n, p: min(math.sqrt(int(prm["r"]) / (n * p)), 1.0),
    ),
    "lowrank_adversary": Family(
        {"r": REQUIRED}, ASYM, None,
        _exact(lambda prm, n, p, seed: gen_low_rank_adversary(n, n, int(prm["r"]), seed)),
        lambda prm, n, p: low_rank_lower_bound(n, int(prm["r"]), p),
    ),
    "blockmodel": Family(
        {"k": REQUIRED, "block_probs": None, "in_prob": 0.8, "out_prob": 0.2,
         "observe_diagonal": True},
        SYM, (0.0, 1.0), _realize_blockmodel,
        lambda prm, n, p: min(math.sqrt(int(prm["k"]) / (n * p)), 1.0),
    ),
    "distance": Family(
        {"dim": 1, "metric": "euclidean"}, SYM, (0.0, 1.0),
        _exact(lambda prm, n, p, seed: gen_distance_matrix(
            uniform_points(n, int(prm["dim"]), seed), prm["metric"])),
        lambda prm, n, p: distance_bracket(n, p, lambda d: math.ceil(1.0 / d) ** int(prm["dim"])),
    ),
    "latent": Family(
        {"dim": 1, "f": "dot"}, ASYM, None, _exact(_latent_truth),
        lambda prm, n, p: lipschitz_latent_bracket(n, p, int(prm["dim"])),
    ),
    "correlation": Family(
        {}, SYM, None, _exact(lambda prm, n, p, seed: gen_correlation_matrix(n, seed)),
        lambda prm, n, p: psd_bracket(n, p),
    ),
    "graphon": Family({"f": "mean"}, SYM, (0.0, 1.0), _realize_graphon),
    "bradley_terry": Family(
        {"family": "nonparametric_monotone", "strengths": None, "games_per_pair": 1},
        SymmetryMode.SKEW_SYMMETRIC, (0.0, 1.0), _realize_bradley_terry,
        lambda prm, n, p: bradley_terry_bracket(n, p),
    ),
    "minimax": Family({"theta": REQUIRED}, ASYM, None, _exact(_minimax_truth)),
}

MODEL_KINDS = tuple(FAMILIES)


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus its parameters; :data:`FAMILIES` lists the kinds
    and, for each, the parameter names it accepts with their defaults."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        family = FAMILIES.get(self.kind) if isinstance(self.kind, str) else None
        if family is None:
            raise ValidationError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if not isinstance(self.params, dict):
            raise ValidationError(f"params must be an object, got {self.params!r}")
        object.__setattr__(self, "params", dict(self.params))
        bad = [f"unknown parameter {k!r}" for k in self.params if k not in family.params]
        bad += [f"missing parameter {k!r}" for k, v in family.params.items()
                if v is REQUIRED and k not in self.params]
        if bad:
            accepted = ", ".join(sorted(family.params)) or "none"
            raise ValidationError(f"{self.kind} model: {'; '.join(bad)}; accepted: {accepted}")

    def settings(self) -> dict:
        """The parameters with the family's defaults filled in."""
        return {**FAMILIES[self.kind].params, **self.params}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        _check_keys(cls, d)
        return cls(**d)


def _check_keys(cls, d) -> None:
    """Reject a non-dict ``d``, and unknown or missing keys of dataclass ``cls``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    accepted = [f.name for f in fields(cls)]
    for key in d:
        if key not in accepted:
            raise ValidationError(f"unknown {cls.__name__} key {key!r}; accepted: {accepted}")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in d:
            raise ValidationError(f"missing {cls.__name__} key {f.name!r}")


def _convert(name, value, kind):
    """``kind(value)`` for ``kind`` int or float, or a :class:`ValidationError`
    naming field ``name``. A bool is not a number, and an int field takes
    only an integral value: ``2.5`` is rejected, not truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        converted = kind(value)
        if kind is int and not isinstance(value, (int, str)) and converted != value:
            raise ValueError
        return converted
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be {kind.__name__}, got {value!r}") from None


def _convert_grid(name, values, kind):
    if not isinstance(values, (list, tuple)) or not values:
        raise ValidationError(f"{name} must be a nonempty list, got {values!r}")
    return tuple(_convert(name, v, kind) for v in values)


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid sweep description; see module docstring for seed semantics. Each
    field is converted to its type (a grid must be a list); a value that does
    not convert or is out of range raises :class:`ValidationError` naming it."""

    model: ModelSpec
    n_grid: tuple
    p_grid: tuple
    eta: float = DEFAULT_ETA
    sigma_sq: float | None = None
    trials: int = 1
    seed: int = 0
    baseline_trivial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_grid", _convert_grid("n_grid", self.n_grid, int))
        object.__setattr__(self, "p_grid", _convert_grid("p_grid", self.p_grid, float))
        for name, kind in (("eta", float), ("trials", int), ("seed", int)):
            object.__setattr__(self, name, _convert(name, getattr(self, name), kind))
        if self.sigma_sq is not None:
            object.__setattr__(self, "sigma_sq", _convert("sigma_sq", self.sigma_sq, float))
        if not isinstance(self.baseline_trivial, bool):
            raise ValidationError(
                f"baseline_trivial must be a bool, got {self.baseline_trivial!r}")
        if any(n < 1 for n in self.n_grid):
            raise ValidationError("n_grid: matrix sizes must be positive")
        if any(not 0.0 <= p <= 1.0 for p in self.p_grid):
            raise ValidationError("p_grid: observation probabilities must lie in [0, 1]")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        EstimatorConfig(eta=self.eta, sigma_sq=self.sigma_sq)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        _check_keys(cls, d)
        return cls(**{**d, "model": ModelSpec.from_dict(d["model"])})


@dataclass(frozen=True)
class CellResult:
    """Aggregated results for one (n, p) grid cell. ``wall_time`` is
    informational only and never serialized."""

    n: int
    p: float
    mean_mse: float | None
    std_mse: float | None
    mean_retained_rank: float | None
    bracket: float | None
    trivial_mean_mse: float | None
    failure: str | None
    wall_time: float


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    cells: tuple
    rate_fits: dict


def _realize(model: ModelSpec, n: int, p: float, model_seed: int, data_seed: int):
    """Build (masked data, truth, interval) for one trial."""
    family = FAMILIES[model.kind]
    truth, data = family.realize(model.settings(), n, p, model_seed, data_seed)
    if not isinstance(data, MaskedMatrix):
        data = _observed(data, bernoulli_mask(n, n, p, family.mode, data_seed), family.mode)
    return data, truth, family.interval


def _bracket_for(model: ModelSpec, n: int, p: float, truth0: np.ndarray) -> float | None:
    """Family rate bracket where the family has one; otherwise the generic
    nuclear-norm bracket of the first trial's truth. p = 0 has no bracket."""
    if p <= 0.0:
        return None
    bracket = FAMILIES[model.kind].bracket
    if bracket is None:
        return nuclear_bracket(truth0, p)
    return bracket(model.settings(), n, p)


def _run_cell(spec: ExperimentSpec, i: int, j: int) -> CellResult:
    n = spec.n_grid[i]
    p = spec.p_grid[j]
    start = time.perf_counter()
    mses = []
    ranks = []
    trivial = []
    bracket = None
    try:
        for t in range(spec.trials):
            model_seed = mix_seed(spec.seed, 1, i, t)
            data_seed = mix_seed(spec.seed, 2, i, t)
            data, truth, interval = _realize(spec.model, n, p, model_seed, data_seed)
            if t == 0:
                bracket = _bracket_for(spec.model, n, p, truth)
            config = EstimatorConfig(
                eta=spec.eta, sigma_sq=spec.sigma_sq, interval=interval, mode=data.mode
            )
            report = usvt_estimate(data, config)
            mses.append(mse(report.estimate, truth))
            ranks.append(report.retained_rank)
            if spec.baseline_trivial:
                trivial.append(mse(trivial_estimate(data, interval), truth))
    except Exception as exc:
        return CellResult(
            n=n, p=p, mean_mse=None, std_mse=None, mean_retained_rank=None,
            bracket=None, trivial_mean_mse=None,
            failure=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - start,
        )
    arr = np.asarray(mses)
    return CellResult(
        n=n,
        p=p,
        mean_mse=float(arr.mean()),
        std_mse=float(arr.std()),
        mean_retained_rank=float(np.mean(ranks)),
        bracket=bracket,
        trivial_mean_mse=float(np.mean(trivial)) if trivial else None,
        failure=None,
        wall_time=time.perf_counter() - start,
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Sweep the full grid; deterministic given the spec. Failed cells
    carry a recorded reason; the rest complete."""
    n_p = len(spec.p_grid)
    cells = [_run_cell(spec, i, j) for i in range(len(spec.n_grid)) for j in range(n_p)]
    fits = {}
    for j, p in enumerate(spec.p_grid):
        column = [cells[i * n_p + j] for i in range(len(spec.n_grid))]
        usable = [c for c in column if c.failure is None and c.mean_mse and c.mean_mse > 0.0]
        if len(usable) >= 3:
            fits[repr(float(p))] = rate_fit([c.n for c in usable], [c.mean_mse for c in usable])
        else:
            fits[repr(float(p))] = None
    return ExperimentReport(spec=spec, cells=tuple(cells), rate_fits=fits)


#: The serialized fields of a :class:`CellResult`: a JSON cell, a CSV row.
_CELL_FIELDS = (
    "n", "p", "mean_mse", "std_mse", "mean_retained_rank",
    "bracket", "trivial_mean_mse", "failure",
)


def report_to_dict(report: ExperimentReport) -> dict:
    """Canonical JSON structure (schema 1). Excludes wall times so that
    identical runs serialize to identical bytes."""
    return {
        "schema": 1,
        "spec": report.spec.to_dict(),
        "cells": [{col: getattr(c, col) for col in _CELL_FIELDS} for c in report.cells],
        "rate_fits": {k: None if f is None else asdict(f) for k, f in report.rate_fits.items()},
    }


def write_report_json(report: ExperimentReport, path) -> None:
    payload = json.dumps(report_to_dict(report), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload + "\n")


def write_report_csv(report: ExperimentReport, path) -> None:
    """Flat per-cell table for plotting; one row per grid cell."""
    lines = [",".join(_CELL_FIELDS)]
    for c in report.cells:
        row = []
        for col in _CELL_FIELDS:
            value = getattr(c, col)
            if value is None:
                row.append("")
            elif col == "failure":
                row.append(str(value).replace(",", ";"))
            elif col == "n":
                row.append(str(value))
            else:
                row.append(repr(float(value)))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def estimate_file(
    input_path,
    out_path,
    report_path=None,
    *,
    eta: float = DEFAULT_ETA,
    sigma_sq: float | None = None,
    interval=None,
    mode: SymmetryMode = SymmetryMode.ASYMMETRIC,
    header: bool = False,
):
    """Estimate the mean matrix of a CSV file with NA-marked missing entries.

    Writes the estimate as CSV to ``out_path`` and, when ``report_path`` is
    given, a JSON diagnostics file (observed fraction, threshold, retained
    rank, no-data flag). Returns ``(EstimateReport, diagnostics dict)``.
    """
    values, mask = read_matrix_csv(input_path, header=header)
    data = MaskedMatrix(values=values, mask=mask, mode=mode)
    config = EstimatorConfig(eta=eta, sigma_sq=sigma_sq, interval=interval, mode=mode)
    report = usvt_estimate(data, config)
    write_matrix_csv(out_path, report.estimate, header=header)
    diagnostics = {
        "schema": 1,
        "shape": list(data.shape),
        "mode": mode.value,
        "eta": eta,
        "sigma_sq": sigma_sq,
        "interval": list(config.interval) if config.interval else None,
        "p_hat": report.p_hat,
        "q_hat": report.q_hat,
        "threshold": report.threshold,
        "retained_rank": report.retained_rank,
        "retained_indices": list(range(report.retained_rank)),
        "no_data": report.no_data,
    }
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(diagnostics, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return report, diagnostics
