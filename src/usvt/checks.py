"""Named property batteries runnable from the CLI (``usvt check``).

Each check runs a deterministic battery of fixed size, seeded only by
``seed``, and reports pass/fail counts. ``negative-control`` is a
deliberately corrupted fixture that must fail; it proves the suite
surfaces failures and is excluded from ``all``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimator import denoise_by_threshold, denoise_error_constant
from .evaluation import spectral_concentration_trial
from .generators import (
    DISTANCE_METRICS,
    gen_blockmodel,
    gen_bradley_terry,
    gen_correlation_matrix,
    gen_distance_matrix,
    gen_low_rank,
    uniform_points,
)
from .linalg import frobenius_norm, nuclear_norm, numerical_rank, spectral_norm
from .rng import make_rng, mix_seed

__all__ = ["CheckResult", "CheckReport", "check_suite", "CHECK_NAMES"]

DEFAULT_SEED = 727


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: int
    failed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class CheckReport:
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary_lines(self):
        lines = []
        for r in self.results:
            status = "pass" if r.ok else "FAIL"
            line = f"{status}  {r.name}: {r.passed} passed, {r.failed} failed"
            if r.detail:
                line += f"  ({r.detail})"
            lines.append(line)
        return lines


def check_denoise_bound(seed: int = DEFAULT_SEED) -> CheckResult:
    """Deterministic reconstruction bound on 1000 random perturbed pairs.

    For shapes up to 20 x 30 and delta in {0.5, 1, 2}, verifies
    ``||b_hat - b||_F <= K(delta) * sqrt(||a - b|| * ||b||_*)`` within a
    numerical slack of 1e-8.
    """
    cases = 1000
    deltas = (0.5, 1.0, 2.0)
    failed = 0
    worst = -math.inf
    for case in range(cases):
        rng = make_rng(mix_seed(seed, case))
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 31))
        delta = deltas[case % len(deltas)]
        b = rng.uniform(-1.0, 1.0, (m, n))
        if case % 2:
            a = b + rng.uniform(-1.0, 1.0, (m, n)) * rng.uniform(0.01, 0.5)
        else:
            a = rng.uniform(-1.0, 1.0, (m, n))
        lhs = frobenius_norm(denoise_by_threshold(a, b, delta) - b)
        rhs = denoise_error_constant(delta) * math.sqrt(spectral_norm(a - b) * nuclear_norm(b))
        margin = lhs - rhs
        worst = max(worst, margin)
        if margin > 1e-8:
            failed += 1
    return CheckResult(
        name="denoise-bound",
        passed=cases - failed,
        failed=failed,
        detail=f"worst margin {worst:.3e}",
    )


def check_norm_order(seed: int = DEFAULT_SEED) -> CheckResult:
    """spectral <= frobenius <= nuclear, triangle inequality, and the
    rank-based nuclear bound on 200 random (including low-rank) matrices."""
    cases = 200
    failed = 0
    for case in range(cases):
        rng = make_rng(mix_seed(seed, 7, case))
        m = int(rng.integers(1, 15))
        n = int(rng.integers(1, 15))
        a = rng.uniform(-2.0, 2.0, (m, n))
        b = rng.uniform(-2.0, 2.0, (m, n))
        r = int(rng.integers(1, min(m, n) + 1))
        low = gen_low_rank(m, n, r, mix_seed(seed, 8, case))
        sp, fro, nuc = spectral_norm(a), frobenius_norm(a), nuclear_norm(a)
        sp_diff = spectral_norm(a - b)
        ok = sp <= fro * (1 + 1e-10) + 1e-12 and fro <= nuc * (1 + 1e-10) + 1e-12
        ok = ok and abs(sp - spectral_norm(b)) <= sp_diff * (1 + 1e-10) + 1e-12
        ok = ok and sp_diff <= frobenius_norm(a - b) * (1 + 1e-10) + 1e-12
        rank = numerical_rank(low, 1e-10)
        if rank > 0:
            ok = ok and nuclear_norm(low) <= math.sqrt(rank) * frobenius_norm(low) * (1 + 1e-8)
        failed += not ok
    return CheckResult(name="norms", passed=cases - failed, failed=failed)


def check_concentration(seed: int = DEFAULT_SEED) -> CheckResult:
    """Spectral norms of random symmetric 400 x 400 matrices stay below
    ``2.1 * sigma * sqrt(n)`` in at least 95 of 100 trials, for uniform and
    Rademacher entries."""
    failed = 0
    details = []
    for idx, dist in enumerate(("uniform", "rademacher")):
        frac = spectral_concentration_trial(400, dist, 0.1, 100, mix_seed(seed, 11, idx))
        details.append(f"{dist}: {frac:.3f}")
        failed += frac < 0.95
    return CheckResult(
        name="concentration", passed=2 - failed, failed=failed, detail=", ".join(details)
    )


def _triangle_ok(d: np.ndarray, tol: float = 1e-12) -> bool:
    # min over k of d[i,k] + d[k,j] must not undercut d[i,j].
    through = (d[:, :, None] + d[None, :, :]).min(axis=1)
    return bool((d <= through + tol).all())


def _tournament_monotone(p: np.ndarray, order: np.ndarray, tol: float = 1e-12) -> bool:
    # Ranked row a must dominate every weaker row b, off columns a and b.
    ranked = p[np.ix_(order, order)]
    a, b, c = np.ogrid[:len(order), :len(order), :len(order)]
    exempt = (a >= b) | (c == a) | (c == b)
    return bool((exempt | (ranked[:, None, :] - ranked[None, :, :] >= -tol)).all())


def check_generator_certificates(seed: int = DEFAULT_SEED) -> CheckResult:
    """Structural certificates on 100 seeded draws from every generator
    family: blockmodel rank <= k, low-rank nuclear norm <= sqrt(r m n),
    correlation matrices PSD, distance matrices metric, tournaments
    consistent and monotone."""
    draws = 100
    failed = 0
    for i in range(draws):
        rng = make_rng(mix_seed(seed, 3, i))
        ok = True

        k = int(rng.integers(1, 7))
        probs = rng.uniform(0.0, 1.0, (k, k))
        probs = (probs + probs.T) / 2.0
        m_block, adj = gen_blockmodel(40, k, probs, mix_seed(seed, 4, i))
        ok = ok and numerical_rank(m_block, 1e-8) <= k
        ok = ok and np.array_equal(adj, adj.T) and np.isin(adj, (0.0, 1.0)).all()

        m = int(rng.integers(2, 41))
        n = int(rng.integers(2, 41))
        r = int(rng.integers(1, min(m, n) + 1))
        low = gen_low_rank(m, n, r, mix_seed(seed, 5, i))
        ok = ok and nuclear_norm(low) <= math.sqrt(r * m * n) * (1 + 1e-8)
        ok = ok and np.abs(low).max() <= 1.0 + 1e-12

        corr = gen_correlation_matrix(50, mix_seed(seed, 6, i))
        ok = ok and float(np.linalg.eigvalsh(corr).min()) >= -1e-8
        ok = ok and np.allclose(np.diagonal(corr), 1.0, rtol=0.0, atol=0.0)

        dim = int(rng.integers(1, 4))
        metric = tuple(DISTANCE_METRICS)[i % len(DISTANCE_METRICS)]
        dist = gen_distance_matrix(uniform_points(16, dim, mix_seed(seed, 7, i)), metric)
        ok = ok and _triangle_ok(dist)
        ok = ok and np.abs(np.diagonal(dist)).max() == 0.0

        nt = int(rng.integers(2, 13))
        if i % 2:
            tm = gen_bradley_terry(nt, mix_seed(seed, 8, i))
        else:
            strengths = rng.uniform(0.1, 10.0, nt)
            tm = gen_bradley_terry(nt, mix_seed(seed, 8, i), "parametric", strengths)
        off = ~np.eye(nt, dtype=bool)
        ok = ok and ((tm.p + tm.p.T)[off] == 1.0).all()
        ok = ok and _tournament_monotone(tm.p, tm.strength_order)

        failed += not ok
    return CheckResult(name="generators", passed=draws - failed, failed=failed)


def check_negative_control(seed: int = DEFAULT_SEED) -> CheckResult:
    """Corrupted fixture: the recorded norm of this matrix is wrong on
    purpose, so the check must fail. Excluded from the default suite."""
    fixture = np.diag([3.0, 1.0])
    claimed_spectral_norm = 2.0
    ok = abs(spectral_norm(fixture) - claimed_spectral_norm) <= 1e-9
    return CheckResult(
        name="negative-control",
        passed=int(ok),
        failed=int(not ok),
        detail="corrupted fixture; failure expected",
    )


_CHECKS = {
    "denoise-bound": check_denoise_bound,
    "norms": check_norm_order,
    "concentration": check_concentration,
    "generators": check_generator_certificates,
    "negative-control": check_negative_control,
}

#: Selectors accepted by :func:`check_suite` (plus "all").
CHECK_NAMES = tuple(_CHECKS)


def check_suite(selectors=("all",), seed: int = DEFAULT_SEED) -> CheckReport:
    """Run the named property batteries; "all" runs every check except the
    negative control. A bare string is one selector."""
    names = []
    for sel in (selectors,) if isinstance(selectors, str) else selectors:
        if sel == "all":
            names.extend(name for name in CHECK_NAMES if name != "negative-control")
        elif sel in _CHECKS:
            names.append(sel)
        else:
            raise ValidationError(f"unknown check {sel!r}; choose from {('all',) + CHECK_NAMES}")
    return CheckReport(results=tuple(_CHECKS[name](seed=seed) for name in dict.fromkeys(names)))
