"""Error metrics, rate brackets, bootstrap diagnostics and concentration checks.

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
from .estimator import EstimatorConfig, MaskedMatrix, SymmetryMode, _variance_rate, usvt_estimate
from .generators import bernoulli_mask, bernoulli_round, sample_upper
from .linalg import as_matrix, nuclear_norm, spectral_norm
from .rng import make_rng, mix_seed

__all__ = [
    "BoundBracket",
    "RateFit",
    "mse",
    "nuclear_bracket",
    "distance_bracket",
    "lipschitz_latent_bracket",
    "bradley_terry_bracket",
    "psd_bracket",
    "low_rank_lower_bound",
    "bootstrap_mse",
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


@dataclass(frozen=True)
class BoundBracket:
    """Constant-free error bracket for a bounded matrix under sampling.

    ``bracket = min(term_nuclear, term_nuclear_sq, 1)``. ``small_np_flag``
    signals the strict inequality ``n * p < 20``, with ``n`` the longer
    side, where the (uncomputable) exponentially small additive term
    ``C * exp(-c * n * p)`` of the underlying guarantee may not be
    negligible. The guarantee fixes no number; 20 is this package's cutoff.
    ``term_nuclear_variant`` is the tightened first term available under a
    known variance bound; it never exceeds ``term_nuclear``.
    """

    term_nuclear: float
    term_nuclear_sq: float
    bracket: float
    small_np_flag: bool
    term_nuclear_variant: float | None = None


def _check_size_and_rate(n: int, p: float) -> None:
    if n < 1:
        raise ValidationError("n must be positive")
    if not (0.0 < p <= 1.0):
        raise ValidationError(f"p must lie in (0, 1], got {p}")


def nuclear_bracket(m_matrix, p: float, sigma_sq: float | None = None) -> BoundBracket:
    """Bracket ``min(||M||_* / (m sqrt(n p)), ||M||_*^2 / (m n), 1)``.

    ``m <= n`` is the row/column convention; wider-than-tall inputs are
    transposed internally. With ``sigma_sq`` given, the variant term
    ``||M||_* sqrt(q) / (m sqrt(n) p)`` with
    ``q = p sigma^2 + p (1-p) (1 - sigma^2)`` is reported alongside.
    """
    mat = as_matrix(m_matrix)
    m_side, n_side = sorted(mat.shape)
    _check_size_and_rate(n_side, p)
    nn = nuclear_norm(mat)
    term_nuclear = nn / (m_side * math.sqrt(n_side * p))
    term_nuclear_sq = nn * nn / (m_side * n_side)
    variant = None
    if sigma_sq is not None:
        q = _variance_rate(p, sigma_sq)
        variant = nn * math.sqrt(q) / (m_side * math.sqrt(n_side) * p)
    return BoundBracket(
        term_nuclear=term_nuclear,
        term_nuclear_sq=term_nuclear_sq,
        bracket=min(term_nuclear, term_nuclear_sq, 1.0),
        small_np_flag=n_side * p < 20.0,
        term_nuclear_variant=variant,
    )


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


def bootstrap_mse(
    estimate,
    p: float,
    config: EstimatorConfig,
    k: int,
    seed: int,
    resample: str,
) -> float:
    """Parametric-bootstrap MSE estimate: treat ``estimate`` as the truth,
    regenerate data ``k`` times, re-estimate, average the per-entry squared
    Frobenius discrepancy.

    ``resample`` must be declared by the caller: ``"bernoulli"`` rounds the
    estimate to {0, 1} data (entries must lie in [0, 1]); ``"exact"``
    observes the estimate's own entries. Masks are Bernoulli(p), drawn in
    ``config.mode``.

    Caveat: this is an assumption-dependent diagnostic, not a guarantee.
    No data-driven procedure can reliably certify whether a non-trivial
    estimator's true error is small — the bootstrap value is only
    trustworthy when the original estimate is already known to be accurate
    (e.g. from a nuclear-norm bound on the truth).
    """
    est = as_matrix(estimate)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if resample not in ("bernoulli", "exact"):
        raise ValidationError(f"unknown resample model {resample!r}")
    rows, cols = est.shape
    total = 0.0
    for i in range(k):
        child = mix_seed(seed, i)
        if resample == "bernoulli":
            x = bernoulli_round(est, config.mode, mix_seed(child, 0))
        else:
            x = est
        mask = bernoulli_mask(rows, cols, p, config.mode, mix_seed(child, 1))
        data = MaskedMatrix(values=np.where(mask, x, 0.0), mask=mask, mode=config.mode)
        replica = usvt_estimate(data, config).estimate
        total += mse(replica, est)
    return total / k


def _rademacher(rng, size):
    return rng.integers(0, 2, size) * 2.0 - 1.0


#: Named bounded zero-mean entry distributions: name -> (sampler, variance).
ENTRY_DISTRIBUTIONS = {
    "uniform": (lambda rng, size: rng.uniform(-1.0, 1.0, size), 1.0 / 3.0),
    "rademacher": (_rademacher, 1.0),
}


def spectral_concentration_trial(
    n: int,
    dist,
    mode: SymmetryMode,
    eta: float,
    trials: int,
    seed: int,
) -> float:
    """Fraction of random n x n matrices with spectral norm at most
    ``(2 + eta) * sigma * sqrt(n)``.

    ``dist`` is a name from :data:`ENTRY_DISTRIBUTIONS` or a
    ``(sampler, sigma_sq)`` pair where ``sampler(rng, size)`` draws bounded
    zero-mean entries with variance at most ``sigma_sq``. Requires
    ``sigma_sq >= n^{-0.9}``, the regime in which the exceedance
    probability is exponentially small.
    """
    if n < 1 or trials < 1:
        raise ValidationError("n and trials must be positive")
    if isinstance(dist, str):
        if dist not in ENTRY_DISTRIBUTIONS:
            raise ValidationError(f"unknown entry distribution {dist!r}")
        sampler, sigma_sq = ENTRY_DISTRIBUTIONS[dist]
    else:
        sampler, sigma_sq = dist
    if sigma_sq < n ** (-0.9):
        raise ValidationError(f"variance bound {sigma_sq} below n^-0.9; out of regime")
    bound = (2.0 + eta) * math.sqrt(sigma_sq) * math.sqrt(n)
    hits = 0
    for t in range(trials):
        rng = make_rng(mix_seed(seed, t))
        if mode is SymmetryMode.ASYMMETRIC:
            a = np.asarray(sampler(rng, (n, n)), dtype=float)
            norm = spectral_norm(a)
        elif mode is SymmetryMode.SYMMETRIC:
            a = sample_upper(n, lambda i, j: sampler(rng, i.size))
            norm = float(np.abs(np.linalg.eigvalsh(a)).max())
        else:
            # The diagonal is drawn, keeping the stream of the symmetric
            # mode, then zeroed.
            a = sample_upper(n, lambda i, j: sampler(rng, i.size), below="negate")
            np.fill_diagonal(a, 0.0)
            norm = spectral_norm(a)
        hits += norm <= bound
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
