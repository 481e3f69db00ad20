"""The benchmark's four workloads, their inputs and their correctness gates.

Each workload builds its inputs from the workload seed through the public
``usvt`` generators, then runs passes of ops. A pass is one op of each
kind the workload alternates. Every op is followed by an untimed gate:

- ``estimate-file`` and ``estimate-large`` compare the estimate and its
  retained rank with :func:`oracle_estimate`, the paper's pipeline on a
  full ``numpy.linalg.svd`` or ``eigh``, computed once per input in a
  separate process so that its memory does not count in the benchmark's
  peak;
- ``sweep`` requires zero failed cells and report bytes identical to the
  first run of the same spec;
- ``check-all`` requires exit code 0.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import usvt
import usvt.cli

#: Threshold slack used by every estimate (the CLI default).
ETA = 0.01
#: Largest entry difference from the oracle that still passes the gate.
TOLERANCE = 1e-8


def sub_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def lowrank_sign_input(n, rank, p, seed):
    """Rank-``rank`` truth in [-1, 1], observed as +-1 signs with the same
    means, each entry seen with probability ``p``."""
    asym = usvt.SymmetryMode.ASYMMETRIC
    truth = usvt.gen_low_rank(n, n, rank, sub_seed(seed, 1))
    signs = 2.0 * usvt.bernoulli_round((truth + 1.0) / 2.0, asym, sub_seed(seed, 2)) - 1.0
    mask = usvt.bernoulli_mask(n, n, p, asym, sub_seed(seed, 3))
    return truth, np.where(mask, signs, 0.0), mask


def blockmodel_input(n, k, p, seed):
    """k-block stochastic blockmodel (0.8 within, 0.2 across), one
    adjacency draw, a symmetric mask with probability ``p``."""
    probs = np.full((k, k), 0.2)
    np.fill_diagonal(probs, 0.8)
    truth, adjacency = usvt.gen_blockmodel(n, k, probs, sub_seed(seed, 4))
    mask = usvt.bernoulli_mask(n, n, p, usvt.SymmetryMode.SYMMETRIC, sub_seed(seed, 5))
    return truth, np.where(mask, adjacency, 0.0), mask


def oracle_estimate(values, mask, interval, symmetric):
    """The paper's estimator with a full decomposition: zero-fill, cut the
    spectrum at ``(2 + eta) * sqrt(n * p_hat)``, rescale, clip.

    Returns ``(estimate, retained rank)``. Inputs are square.
    """
    lo, hi = interval
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    n = values.shape[1]
    y = np.where(mask, (values - mid) / half, 0.0)
    p_hat = float(mask[np.triu_indices(n)].mean() if symmetric else mask.mean())
    threshold = (2.0 + ETA) * np.sqrt(n * p_hat)
    if symmetric:
        lam, q = np.linalg.eigh(y)
        keep = np.abs(lam) >= threshold
        proj = (q[:, keep] * lam[keep]) @ q[:, keep].T
    else:
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        keep = s >= threshold
        proj = (u[:, keep] * s[keep]) @ vt[keep]
    estimate = np.clip(np.clip(proj / p_hat, -1.0, 1.0) * half + mid, lo, hi)
    return estimate, int(keep.sum())


def compare(estimate, rank, oracle_est, oracle_rank, truth):
    """Gate against the oracle; returns ``(ok, mse against truth, detail)``."""
    if estimate.shape != oracle_est.shape:
        return False, None, f"shape {estimate.shape} != {oracle_est.shape}"
    diff = float(np.abs(estimate - oracle_est).max())
    mse = float(np.mean((estimate - truth) ** 2))
    if rank != oracle_rank:
        return False, mse, f"retained rank {rank} != oracle {oracle_rank}"
    if not diff <= TOLERANCE:
        return False, mse, f"max |estimate - oracle| = {diff:.3e}"
    return True, mse, ""


def write_csv(path, values, mask):
    """Input file in the CLI's format: ``NA`` marks a missing entry.

    Written one row at a time, so that set-up holds little beyond the
    arrays and the benchmark's memory stays below the program's.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, seen_row in zip(values, mask):
            fh.write(",".join(repr(v) if seen else "NA"
                              for v, seen in zip(row.tolist(), seen_row.tolist())) + "\n")


def read_csv(path, shape):
    """Read back a fully observed CSV matrix of the given shape.

    ``numpy.loadtxt`` parses in chunks, so the gate's memory stays below
    that of ``read_matrix_csv`` and the peak RSS stays the program's.
    """
    matrix = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    if matrix.shape != shape:
        raise ValueError(f"{path}: shape {matrix.shape}, expected {shape}")
    return matrix


def run_cli(argv):
    """``usvt.cli.main(argv)`` with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = usvt.cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One workload: ``build`` is the set-up, ``run`` the timed op and
    ``gate`` its untimed check."""

    name = ""
    kinds = ()
    needs_oracle = False

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed = seed
        self.work = work
        self.tiny = tiny

    def build(self):
        raise NotImplementedError

    def oracle(self) -> dict:
        """Reference results for the built inputs (computed in a child)."""
        return {}

    def load_oracle(self, arrays: dict):
        self.reference = arrays

    def run(self, kind):
        raise NotImplementedError

    def gate(self, kind, result):
        """``(ok, mse or None, detail)`` for one op's result."""
        raise NotImplementedError

    #: Whether :meth:`quality_probe` gives the ``mse`` of a workload whose
    #: ops make no estimate.
    has_quality_probe = False

    def quality_probe(self):
        """``(ok, mse, detail)`` of one untimed estimate."""
        raise NotImplementedError


class EstimateFile(Workload):
    """``usvt estimate IN.csv --out OUT.csv`` through the CLI: CSV read,
    estimate, CSV write."""

    name = "estimate-file"
    kinds = ("estimate",)
    needs_oracle = True

    def build(self):
        n = 60 if self.tiny else 1000
        self.truth, self.values, self.mask = lowrank_sign_input(n, 5, 0.5, self.seed)
        self.in_csv = self.work / "input.csv"
        self.out_csv = self.work / "estimate.csv"
        write_csv(self.in_csv, self.values, self.mask)

    def oracle(self):
        est, rank = oracle_estimate(self.values, self.mask, (-1.0, 1.0), symmetric=False)
        return {"estimate": est, "rank": np.array(rank)}

    def run(self, kind):
        self.out_csv.unlink(missing_ok=True)
        return run_cli(["estimate", str(self.in_csv), "--out", str(self.out_csv)])

    def gate(self, kind, result):
        code, out = result
        if code != 0:
            return False, None, f"exit code {code}"
        rank = json.loads(out.strip().splitlines()[-1])["retained_rank"]
        estimate = read_csv(self.out_csv, self.truth.shape)
        return compare(estimate, rank, self.reference["estimate"],
                       int(self.reference["rank"]), self.truth)


class EstimateLarge(Workload):
    """``usvt_estimate`` on in-memory data, alternating a general matrix
    (full SVD path) and a symmetric one (``eigh`` path) sized to take
    about the same time."""

    name = "estimate-large"
    kinds = ("asym", "sym")
    needs_oracle = True

    def build(self):
        n_asym, n_sym = (80, 90) if self.tiny else (1500, 2200)
        modes = usvt.SymmetryMode
        # The symmetric input first: its generator's temporaries are the
        # largest of set-up, and then they come on top of less held data.
        sym_truth, sym_values, sym_mask = blockmodel_input(n_sym, 4, 0.5, self.seed)
        truth, values, mask = lowrank_sign_input(n_asym, 5, 0.5, self.seed)
        self.inputs = {
            "asym": (truth, usvt.MaskedMatrix(values, mask),
                     usvt.EstimatorConfig(eta=ETA)),
            "sym": (sym_truth, usvt.MaskedMatrix(sym_values, sym_mask, modes.SYMMETRIC),
                    usvt.EstimatorConfig(eta=ETA, interval=(0.0, 1.0), mode=modes.SYMMETRIC)),
        }

    def oracle(self):
        arrays = {}
        for kind, (truth, data, config) in self.inputs.items():
            interval = config.interval or (-1.0, 1.0)
            est, rank = oracle_estimate(data.values, data.mask, interval, kind == "sym")
            arrays[f"{kind}_estimate"] = est
            arrays[f"{kind}_rank"] = np.array(rank)
        return arrays

    def run(self, kind):
        truth, data, config = self.inputs[kind]
        return usvt.usvt_estimate(data, config)

    def gate(self, kind, result):
        return compare(result.estimate, result.retained_rank,
                       self.reference[f"{kind}_estimate"],
                       int(self.reference[f"{kind}_rank"]), self.inputs[kind][0])


class Sweep(Workload):
    """``usvt experiment --config SPEC --out PREFIX`` through the CLI,
    alternating a blockmodel spec (``eigh`` path) and a sign-noise
    low-rank spec (SVD path) over the same grid."""

    name = "sweep"
    kinds = ("blockmodel", "lowrank")

    def build(self):
        if self.tiny:
            grid = {"n_grid": [16, 24, 32], "p_grid": [0.5, 1.0]}
            trials = {"blockmodel": 1, "lowrank": 1}
        else:
            grid = {"n_grid": [100, 200, 400, 800], "p_grid": [0.2, 0.5, 1.0]}
            # The blockmodel cells are about half as costly per trial.
            trials = {"blockmodel": 4, "lowrank": 2}
        models = {
            "blockmodel": {"kind": "blockmodel", "params": {"k": 3}},
            "lowrank": {"kind": "lowrank", "params": {"r": 3, "noise": "sign"}},
        }
        self.first_bytes = {}
        for kind, model in models.items():
            spec = {"model": model, **grid, "eta": ETA, "trials": trials[kind],
                    "seed": sub_seed(self.seed, 6), "baseline_trivial": True}
            with open(self.work / f"{kind}.spec.json", "w", encoding="utf-8") as fh:
                json.dump(spec, fh)

    def run(self, kind):
        return run_cli(["experiment", "--config", str(self.work / f"{kind}.spec.json"),
                        "--out", str(self.work / kind)])

    def gate(self, kind, result):
        code, _ = result
        if code != 0:
            return False, None, f"exit code {code}"
        json_bytes = (self.work / f"{kind}.json").read_bytes()
        csv_bytes = (self.work / f"{kind}.csv").read_bytes()
        cells = json.loads(json_bytes)["cells"]
        # Pooled over every estimated entry, so the large cells weigh most.
        scored = [c for c in cells if c["mean_mse"] is not None]
        mse = (sum(c["n"] ** 2 * c["mean_mse"] for c in scored)
               / sum(c["n"] ** 2 for c in scored)) if scored else None
        failed = [c for c in cells if c["failure"] is not None]
        if failed:
            return False, mse, f"{len(failed)} failed cells: {failed[0]['failure']}"
        first = self.first_bytes.setdefault(kind, (json_bytes, csv_bytes))
        if first != (json_bytes, csv_bytes):
            return False, mse, "report bytes differ from the first run of the same spec"
        return True, mse, ""


class CheckAll(Workload):
    """``usvt check --suite all`` through the CLI. It runs no estimate, so
    it is the control for estimator and I/O changes."""

    name = "check-all"
    kinds = ("check",)
    has_quality_probe = True

    def build(self):
        pass

    def run(self, kind):
        return run_cli(["check", "--suite", "all", "--seed", str(sub_seed(self.seed, 7))])

    def gate(self, kind, result):
        code, out = result
        return code == 0, None, "" if code == 0 else f"exit code {code}: {out.strip()}"

    def quality_probe(self):
        n = 60 if self.tiny else 1000
        truth, values, mask = lowrank_sign_input(n, 5, 0.5, sub_seed(self.seed, 8))
        report = usvt.usvt_estimate(usvt.MaskedMatrix(values, mask),
                                    usvt.EstimatorConfig(eta=ETA))
        est, rank = oracle_estimate(values, mask, (-1.0, 1.0), symmetric=False)
        return compare(report.estimate, report.retained_rank, est, rank, truth)


WORKLOADS = {w.name: w for w in (EstimateFile, EstimateLarge, Sweep, CheckAll)}
