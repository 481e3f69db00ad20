"""Configuration-driven experiment runner.

An :class:`ExperimentSpec` names a model family, grids of matrix sizes and
observation probabilities, estimator settings, a trial count and a master
seed. :func:`run_experiment` sweeps the grid, scores the estimator against
the generated truth in every cell, optionally scores the trivial baseline
(the observed matrix itself), fits log-log error rates per observation
probability, and emits machine-readable reports (JSON plus a flat CSV, one
row per grid cell).

Reproducibility contract: identical spec + seed gives byte-identical
report files on the same numpy build at the same BLAS thread count.
Decompositions of 300 rows or more may differ in their last bits at another
thread count or on another build, and so may the errors of their cells.
Per-trial seeds are derived as ``mix_seed(seed, stream, n_index, trial)``
(stream 1 = model draws, stream 2 = mask/game draws); the p-grid index is
deliberately not part of the path, so cells at different p share their
model draws and get nested masks — paired comparisons across p. Each
(n, trial) model is therefore drawn once and observed at every p.
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
    _usvt_and_baseline,
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
    DISTANCE_METRICS,
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


@dataclass(frozen=True)
class Family:
    """One model family: each accepted parameter with its kind (``int`` or
    ``float``: required; a tuple of names: one of them, the first by default;
    a bool, int or float: the default, whose type is the kind), known value
    interval, ``realize(prm, n, model_seed) -> observe``, which draws one
    model, with ``observe(p, data_seed) -> (truth, data)`` its data seen at
    probability p as a :class:`MaskedMatrix` that carries the family's
    symmetry mode, and ``bracket(prm, n, p)``, the rate bracket (``None``:
    nuclear-norm bracket of the first trial's truth). A kind is also a
    range: an int parameter is a count, at least 1, and a float one a
    probability or fraction, in [0, 1]."""

    params: dict
    interval: tuple | None
    realize: Callable
    bracket: Callable | None = None


def _observe(mode: SymmetryMode, truth: np.ndarray, x: np.ndarray | None = None):
    """``observe`` showing ``x`` (by default the truth) through a Bernoulli(p)
    mask in ``mode``, whole: the estimator reads only the observed entries."""
    x = truth if x is None else x
    n = len(x)
    return lambda p, data_seed: (
        truth, MaskedMatrix(values=x, mask=bernoulli_mask(n, n, p, mode, data_seed), mode=mode))


def _realize_lowrank(prm, n, model_seed):
    truth = gen_low_rank(n, n, prm["r"], model_seed)
    if prm["noise"] == "none":
        return _observe(ASYM, truth)
    flips = bernoulli_round((truth + 1.0) / 2.0, ASYM, mix_seed(model_seed, 10))
    return _observe(ASYM, truth, 2.0 * flips - 1.0)


def _realize_blockmodel(prm, n, model_seed):
    probs = np.full((prm["k"], prm["k"]), prm["out_prob"])
    np.fill_diagonal(probs, prm["in_prob"])
    truth, adjacency = gen_blockmodel(n, prm["k"], probs, model_seed)

    def observe(p, data_seed):
        mask = bernoulli_mask(n, n, p, SYM, data_seed)
        if not prm["observe_diagonal"]:
            np.fill_diagonal(mask, False)
        return truth, MaskedMatrix(values=adjacency, mask=mask, mode=SYM)
    return observe


def _realize_bradley_terry(prm, n, model_seed):
    # Pairs play with probability p: the tournament draw is the mask.
    tm = gen_bradley_terry(n, model_seed)
    return lambda p, data_seed: (
        tm.p, play_tournament(tm, p, prm["games_per_pair"], data_seed))


#: Every model family the harness sweeps, by kind.
FAMILIES = {
    "zero": Family({}, None, lambda prm, n, seed: _observe(ASYM, np.zeros((n, n)))),
    "lowrank": Family(
        {"r": int, "noise": ("none", "sign")}, None, _realize_lowrank,
        lambda prm, n, p: min(math.sqrt(prm["r"] / (n * p)), 1.0),
    ),
    "lowrank_adversary": Family(
        {"r": int}, None,
        lambda prm, n, seed: _observe(ASYM, gen_low_rank_adversary(n, n, prm["r"], seed)),
        lambda prm, n, p: low_rank_lower_bound(n, prm["r"], p),
    ),
    "blockmodel": Family(
        {"k": int, "in_prob": 0.8, "out_prob": 0.2, "observe_diagonal": True},
        (0.0, 1.0), _realize_blockmodel,
        lambda prm, n, p: min(math.sqrt(prm["k"] / (n * p)), 1.0),
    ),
    "distance": Family(
        {"dim": 1, "metric": tuple(DISTANCE_METRICS)}, (0.0, 1.0),
        lambda prm, n, seed: _observe(SYM, gen_distance_matrix(
            uniform_points(n, prm["dim"], seed), prm["metric"])),
        lambda prm, n, p: distance_bracket(n, p, prm["dim"]),
    ),
    "latent": Family(
        {"dim": 1, "f": tuple(LATENT_CATALOG)}, None,
        lambda prm, n, seed: _observe(ASYM, gen_latent_space(n, prm["dim"], prm["f"], seed)),
        lambda prm, n, p: lipschitz_latent_bracket(n, p, prm["dim"]),
    ),
    "correlation": Family(
        {}, None, lambda prm, n, seed: _observe(SYM, gen_correlation_matrix(n, seed)),
        lambda prm, n, p: psd_bracket(n, p),
    ),
    "graphon": Family(
        {"f": tuple(GRAPHON_CATALOG)}, (0.0, 1.0),
        lambda prm, n, seed: _observe(SYM, *gen_graphon(n, prm["f"], seed)),
    ),
    "bradley_terry": Family(
        {"games_per_pair": 1}, (0.0, 1.0), _realize_bradley_terry,
        lambda prm, n, p: bradley_terry_bracket(n, p),
    ),
    # Nuclear budget theta * n^{3/2}, at most the n^{3/2} the construction allows. It
    # depends on p (and requires p < 1), so each observation builds its instance from the seed.
    "minimax": Family({"theta": float}, None, lambda prm, n, seed: lambda p, data_seed: _observe(
        ASYM, gen_minimax_instance(n, n, prm["theta"] * n * math.sqrt(n), p, seed))(p, data_seed)),
}

MODEL_KINDS = tuple(FAMILIES)


@dataclass(frozen=True)
class ModelSpec:
    """Model family plus its parameters, each converted to the kind that
    :data:`FAMILIES` gives it (a :class:`ValidationError` if it does not)."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        family = FAMILIES.get(self.kind) if isinstance(self.kind, str) else None
        if family is None:
            raise ValidationError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if not isinstance(self.params, dict):
            raise ValidationError(f"params must be an object, got {self.params!r}")
        bad = [f"unknown parameter {k!r}" for k in self.params if k not in family.params]
        bad += [f"missing parameter {k!r}" for k, v in family.params.items()
                if isinstance(v, type) and k not in self.params]
        if bad:
            accepted = ", ".join(sorted(family.params)) or "none"
            raise ValidationError(f"{self.kind} model: {'; '.join(bad)}; accepted: {accepted}")
        object.__setattr__(self, "params", {
            k: _convert(f"{self.kind} parameter {k!r}", v, family.params[k])
            for k, v in self.params.items()})
        bad = []
        for k in family.params:  # in the family's order
            v = self.params.get(k)
            if type(v) is int and v < 1:
                bad.append(f"parameter {k!r} must be >= 1")
            elif type(v) is float and not 0 <= v <= 1:
                bad.append(f"parameter {k!r} must lie in [0, 1]")
        if bad:
            raise ValidationError(f"{self.kind} model: {'; '.join(bad)}")

    def settings(self) -> dict:
        """The parameters with the family's defaults filled in."""
        defaults = {k: v[0] if isinstance(v, tuple) else v
                    for k, v in FAMILIES[self.kind].params.items()}
        return {**defaults, **self.params}

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
    """``value`` as ``kind``, or a :class:`ValidationError` naming field
    ``name``. ``kind`` is a type (int, float or bool) or a :class:`Family`
    parameter kind. Only a bool is a bool, an int field takes only an
    integral value (``2.5`` is rejected, not truncated), and a float field
    only a finite one."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ValidationError(f"{name} must be one of {kind}, got {value!r}")
    kind = kind if isinstance(kind, type) else type(kind)
    try:
        if isinstance(value, bool) != (kind is bool):
            raise TypeError
        converted = kind(value)
        if kind is int and not isinstance(value, (int, str)) and converted != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(converted):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return converted


def _convert_grid(name, values, kind):
    if not isinstance(values, (list, tuple)) or not values:
        raise ValidationError(f"{name} must be a nonempty list, got {values!r}")
    grid = tuple(_convert(name, v, kind) for v in values)
    if len(set(grid)) < len(grid):
        raise ValidationError(f"{name} must not repeat a value, got {values!r}")
    return grid


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid sweep description; see module docstring for seed semantics. Each
    field is converted to its type (a grid is a list of distinct values); a
    bad or out-of-range value raises :class:`ValidationError` naming it."""

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
        for name, kind in (("eta", float), ("trials", int), ("seed", int),
                           ("baseline_trivial", bool)):
            object.__setattr__(self, name, _convert(name, getattr(self, name), kind))
        if self.sigma_sq is not None:
            object.__setattr__(self, "sigma_sq", _convert("sigma_sq", self.sigma_sq, float))
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
    """Aggregated results for one (n, p) grid cell. ``wall_time`` covers the
    cell's observations, estimates and scores (with a nuclear-norm bracket),
    not its row's shared model draws or a family's bracket, which precede
    them; it is informational only, never serialized."""

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


def _trial(spec: ExperimentSpec, observe, i: int, t: int, p: float) -> tuple:
    """Trial ``t`` of cell (``spec.n_grid[i]``, p): ``(nuclear bracket, mse,
    retained rank, trivial mse)``. The bracket is that of trial 0's truth
    where the family has none of its own and p > 0, else None; the trivial
    mse is None unless ``spec.baseline_trivial``."""
    family = FAMILIES[spec.model.kind]
    truth, data = observe(p, mix_seed(spec.seed, 2, i, t))
    bracket = None
    if t == 0 and p > 0.0 and family.bracket is None:
        bracket = nuclear_bracket(truth, p)
    config = EstimatorConfig(eta=spec.eta, sigma_sq=spec.sigma_sq, interval=family.interval,
                             mode=data.mode)
    report, baseline = _usvt_and_baseline(data, config, spec.baseline_trivial)
    return (bracket, mse(report.estimate, truth), report.retained_rank,
            None if baseline is None else mse(baseline, truth))


def _sweep_size(spec: ExperimentSpec, i: int) -> list:
    """The cells of ``spec.n_grid[i]`` in p-grid order. The family's brackets
    come first; each trial then draws its model once and observes it at every
    p whose cell has not failed. A cell stops at its first ValidationError or
    LinAlgError: at its bracket, before any draw."""
    family = FAMILIES[spec.model.kind]
    n = spec.n_grid[i]
    runs = [[] for _ in spec.p_grid]
    brackets = [None] * len(spec.p_grid)
    failures = [None] * len(spec.p_grid)
    times = [0.0] * len(spec.p_grid)
    for j, p in enumerate(spec.p_grid):
        if family.bracket is not None and p > 0.0:
            try:
                brackets[j] = family.bracket(spec.model.settings(), n, p)
            except (ValidationError, np.linalg.LinAlgError) as exc:
                failures[j] = f"{type(exc).__name__}: {exc}"
    for t in range(spec.trials):
        if all(failures):
            break
        observe = None  # free the last model before the next is drawn
        try:
            observe = family.realize(spec.model.settings(), n, mix_seed(spec.seed, 1, i, t))
        except (ValidationError, np.linalg.LinAlgError) as exc:
            failures = [f or f"{type(exc).__name__}: {exc}" for f in failures]
        for j, p in enumerate(spec.p_grid):
            if failures[j] is None:
                start = time.perf_counter()
                try:
                    runs[j].append(_trial(spec, observe, i, t, p))
                except (ValidationError, np.linalg.LinAlgError) as exc:
                    failures[j] = f"{type(exc).__name__}: {exc}"
                times[j] += time.perf_counter() - start
    cells = []
    for p, run, bracket, failure, wall in zip(spec.p_grid, runs, brackets, failures, times):
        if failure is not None:
            cells.append(CellResult(n, p, None, None, None, None, None, failure, wall))
            continue
        nuclear, mses, ranks, trivial = zip(*run)
        cells.append(CellResult(
            n=n, p=p, mean_mse=float(np.mean(mses)), std_mse=float(np.std(mses)),
            mean_retained_rank=float(np.mean(ranks)),
            bracket=nuclear[0] if family.bracket is None else bracket,
            trivial_mean_mse=None if trivial[0] is None else float(np.mean(trivial)),
            failure=None, wall_time=wall))
    return cells


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Sweep the full grid; deterministic given the spec. A cell that raises
    :class:`ValidationError` or ``numpy.linalg.LinAlgError`` records it as
    its failure and the rest complete; any other exception propagates."""
    n_p = len(spec.p_grid)
    cells = [cell for i in range(len(spec.n_grid)) for cell in _sweep_size(spec, i)]
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
