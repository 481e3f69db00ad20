"""Error metrics, rate brackets and concentration checks.

A "bracket" is a theoretical error-rate expression with its unspecified
constants stripped: useful for log-log slope comparisons against empirical
mean-squared errors, meaningless as an absolute bound. All brackets clamp
at 1 where their theorem does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .generators import sample_upper
from .linalg import as_matrix, nuclear_norm
from .rng import make_rng, mix_seed

__all__ = [
    "RateFit",
    "mse",
    "nuclear_bracket",
    "distance_bracket",
    "lipschitz_latent_bracket",
    "bradley_terry_bracket",
    "psd_bracket",
    "low_rank_lower_bound",
    "ENTRY_DISTRIBUTIONS",
    "spectral_concentration_trial",
    "rate_fit",
]


def mse(estimate, truth) -> float:
    """Mean per-entry squared error ``sum((a - b)^2) / (m * n)``."""
    a = as_matrix(estimate)
    b = as_matrix(truth)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float((diff * diff).mean())


def _check_size_and_rate(n: int, p: float) -> None:
    if n < 1:
        raise ValidationError("n must be positive")
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"p must lie in (0, 1], got {p}")


def nuclear_bracket(m_matrix, p: float) -> float:
    """Bracket ``min(||M||_* / (m sqrt(n p)), ||M||_*^2 / (m n), 1)``.

    ``m <= n`` is the row/column convention; wider-than-tall inputs are
    transposed internally. The guarantee's exponentially small additive
    term ``C * exp(-c * n * p)`` has no computable constant and is left
    out, so the bracket says little when ``n * p`` is small.
    """
    mat = as_matrix(m_matrix)
    m_side, n_side = sorted(mat.shape)
    _check_size_and_rate(n_side, p)
    nn = nuclear_norm(mat)
    return min(nn / (m_side * math.sqrt(n_side * p)), nn * nn / (m_side * n_side), 1.0)


def distance_bracket(n: int, p: float, covering) -> float:
    """Bracket ``inf_delta min((delta + sqrt(N(delta/4) / n)) / sqrt(p), 1)``
    for matrices of pairwise values over a space coverable by ``N(delta)``
    balls of radius delta.

    The infimum is taken over 50 log-spaced deltas in [1/n, 1], which
    covers the optimal ``delta ~ n^{-1/3}`` regime of one-dimensional
    spaces with margin. ``covering`` must be nonincreasing.
    """
    _check_size_and_rate(n, p)
    deltas = np.logspace(-math.log10(n), 0.0, 50)
    counts = np.array([float(covering(d / 4.0)) for d in deltas])
    if (np.diff(counts) > 0).any():
        raise ValidationError("covering must be monotone nonincreasing")
    vals = np.minimum((deltas + np.sqrt(counts / n)) / math.sqrt(p), 1.0)
    return float(vals.min())


def lipschitz_latent_bracket(n: int, p: float, dim: int) -> float:
    """Bracket ``n^{-1/(dim+2)} / sqrt(p)`` for Lipschitz latent-position
    models in ``dim`` latent dimensions."""
    _check_size_and_rate(n, p)
    if dim < 1:
        raise ValidationError("dim must be positive")
    return n ** (-1.0 / (dim + 2)) / math.sqrt(p)


def bradley_terry_bracket(n: int, p: float) -> float:
    """Bracket ``n^{-1/4} / sqrt(p)`` for monotone pairwise-comparison
    matrices."""
    _check_size_and_rate(n, p)
    return n ** (-0.25) / math.sqrt(p)


def psd_bracket(n: int, p: float) -> float:
    """Bracket ``1 / sqrt(n p)`` for positive semidefinite matrices with
    unit-bounded entries."""
    _check_size_and_rate(n, p)
    return 1.0 / math.sqrt(n * p)


def low_rank_lower_bound(m: int, r: int, p: float) -> float:
    """Estimation floor ``(1 - p)^{floor(m/r)}`` for rank-r matrices: with
    rows copied floor(m/r) times, a block is invisible with this
    probability and no estimator can beat it (constant-free)."""
    if not 1 <= r <= m:
        raise ValidationError(f"need 1 <= r <= m, got r={r}")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    return (1.0 - p) ** (m // r)


def _rademacher(rng, size):
    return rng.integers(0, 2, size) * 2.0 - 1.0


#: Named bounded zero-mean entry distributions: name -> (sampler, variance).
ENTRY_DISTRIBUTIONS = {
    "uniform": (lambda rng, size: rng.uniform(-1.0, 1.0, size), 1.0 / 3.0),
    "rademacher": (_rademacher, 1.0),
}


def spectral_concentration_trial(n: int, dist: str, eta: float, trials: int, seed: int) -> float:
    """Fraction of random symmetric n x n matrices with spectral norm at
    most ``(2 + eta) * sigma * sqrt(n)``.

    Each trial draws the entries on and above the diagonal independently
    from the distribution named ``dist`` in :data:`ENTRY_DISTRIBUTIONS`,
    whose variance is ``sigma^2``, and mirrors them below. Requires
    ``sigma^2 >= n^{-0.9}``, the regime in which the exceedance
    probability is exponentially small.
    """
    if n < 1 or trials < 1:
        raise ValidationError("n and trials must be positive")
    if not isinstance(dist, str) or dist not in ENTRY_DISTRIBUTIONS:
        raise ValidationError(
            f"unknown entry distribution {dist!r}; choose from {sorted(ENTRY_DISTRIBUTIONS)}")
    sampler, sigma_sq = ENTRY_DISTRIBUTIONS[dist]
    if sigma_sq < n ** (-0.9):
        raise ValidationError(f"variance bound {sigma_sq} below n^-0.9; out of regime")
    bound = (2.0 + eta) * math.sqrt(sigma_sq) * math.sqrt(n)
    hits = 0
    for t in range(trials):
        rng = make_rng(mix_seed(seed, t))
        a = sample_upper(n, lambda i, j: sampler(rng, i.size))
        hits += float(np.abs(np.linalg.eigvalsh(a)).max()) <= bound
    return hits / trials


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(mse) against log(n)."""

    ns: tuple
    mses: tuple
    slope: float
    intercept: float
    r_squared: float


def rate_fit(ns, mses) -> RateFit:
    """Fit ``log(mse) = slope * log(n) + intercept``.

    Needs at least three grid points and strictly positive errors. For
    perfectly constant values the slope is 0 and r^2 is reported as 1.
    """
    ns = tuple(int(v) for v in ns)
    mses = tuple(float(v) for v in mses)
    if len(ns) != len(mses):
        raise ValidationError("ns and mses must have equal length")
    if len(ns) < 3:
        raise ValidationError("rate fit needs at least 3 grid points")
    if any(v <= 0 for v in mses):
        raise ValidationError("rate fit needs strictly positive mses")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(mses, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return RateFit(ns=ns, mses=mses, slope=float(slope), intercept=float(intercept),
                   r_squared=float(r_squared))
