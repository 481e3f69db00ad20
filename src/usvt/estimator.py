"""Universal singular value thresholding (USVT) for partially observed matrices.

The estimator takes a bounded data matrix with a Boolean observation mask,
fills unobserved entries with zero, thresholds the singular values of the
resulting matrix at ``(2 + eta) * sqrt(n * p_hat)`` (``p_hat`` = observed
fraction, ``n`` = larger dimension), rescales the retained part by
``1 / p_hat`` and clips entrywise to the known value range. The threshold
is universal: no rank or noise-level input is needed beyond an optional
variance bound that tightens it.

Three observation models are supported. ``ASYMMETRIC`` treats every entry
as independent. ``SYMMETRIC`` and ``SKEW_SYMMETRIC`` treat entries on and
above the diagonal as the independent units, mirrored below; for the skew
model the *noise* is skew-symmetric while the recorded values themselves
(e.g. pairwise win fractions with ``x_ji = 1 - x_ij``) need not be.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, spectral_norm, thresholded_part

__all__ = [
    "SymmetryMode",
    "MaskedMatrix",
    "EstimatorConfig",
    "EstimateReport",
    "threshold_value",
    "usvt_estimate",
    "trivial_estimate",
    "denoise_by_threshold",
    "denoise_error_constant",
]


class SymmetryMode(enum.Enum):
    """Observation model for a matrix with missing entries."""

    ASYMMETRIC = "asym"
    SYMMETRIC = "sym"
    SKEW_SYMMETRIC = "skew"


def check_mode(mode) -> None:
    """Reject anything but a :class:`SymmetryMode`, such as the string "sym"."""
    if not isinstance(mode, SymmetryMode):
        raise ValidationError(f"mode must be a SymmetryMode, got {mode!r}")


def _check_interval(interval) -> tuple[float, float]:
    if interval is None:
        return (-1.0, 1.0)
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValidationError(f"interval must satisfy a < b, got ({lo}, {hi})")
    return (lo, hi)


@dataclass(frozen=True)
class MaskedMatrix:
    """Dense values plus a Boolean observation mask (True = observed).

    In ``SYMMETRIC`` mode the mask must be exactly symmetric, and so must
    the values at observed positions; in ``SKEW_SYMMETRIC`` mode the mask
    must be symmetric while the values carry whatever was recorded at each
    position (the skew structure lives in the noise, not in the data).
    Values must be finite everywhere; those at unobserved positions are
    ignored.
    """

    values: np.ndarray
    mask: np.ndarray
    mode: SymmetryMode = SymmetryMode.ASYMMETRIC

    def __post_init__(self):
        check_mode(self.mode)
        values = as_matrix(self.values)
        mask = np.asarray(self.mask)
        if mask.dtype != bool:
            raise ValidationError(f"mask must be Boolean, got dtype {mask.dtype}")
        if mask.shape != values.shape:
            raise ValidationError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        if self.mode is not SymmetryMode.ASYMMETRIC:
            if values.shape[0] != values.shape[1]:
                raise ValidationError(f"{self.mode.value} mode requires a square matrix")
            if not np.array_equal(mask, mask.T):
                raise ValidationError(f"{self.mode.value} mode requires a symmetric mask")
            if self.mode is SymmetryMode.SYMMETRIC:
                # True where the pair agrees or the entry is unobserved.
                agree = values == values.T
                np.greater_equal(agree, mask, out=agree)
                if not agree.all():
                    i, j = np.unravel_index(np.argmin(agree), agree.shape)
                    raise ValidationError(
                        f"symmetric mode requires symmetric observed values; ({i}, {j}) holds "
                        f"{float(values[i, j])!r} and ({j}, {i}) holds {float(values[j, i])!r}"
                    )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def observed_fraction(self) -> float:
        """Observed proportion; counts on-and-above-diagonal entries in the
        symmetric and skew-symmetric modes."""
        if self.mode is SymmetryMode.ASYMMETRIC:
            return float(self.mask.mean())
        # The mask is symmetric: the upper triangle holds half of the
        # off-diagonal entries and the whole diagonal.
        n = self.shape[0]
        seen = np.count_nonzero(self.mask) + np.count_nonzero(self.mask.diagonal())
        return seen // 2 / (n * (n + 1) // 2)


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything the estimator needs besides the data.

    ``eta`` is the threshold slack in [0, 1); the error guarantee requires
    eta > 0, but 0 is accepted for exploratory runs (it works well in
    simulations). It must be chosen a priori, never from the data, which is
    why there is no default here. ``sigma_sq`` is an optional known bound
    on the entry variances in (0, 1]; when present the threshold uses
    ``q_hat = p_hat * sigma_sq + p_hat * (1 - p_hat) * (1 - sigma_sq)``.
    ``interval`` is the known value range (a, b), defaulting to [-1, 1].
    """

    eta: float
    sigma_sq: float | None = None
    interval: tuple[float, float] | None = None
    mode: SymmetryMode = SymmetryMode.ASYMMETRIC

    def __post_init__(self):
        check_mode(self.mode)
        if not (0.0 <= self.eta < 1.0):
            raise ValidationError(f"eta must lie in [0, 1), got {self.eta}")
        if self.sigma_sq is not None and not (0.0 < self.sigma_sq <= 1.0):
            raise ValidationError(f"sigma_sq must lie in (0, 1], got {self.sigma_sq}")
        if self.interval is not None:
            object.__setattr__(self, "interval", _check_interval(self.interval))


@dataclass(frozen=True)
class EstimateReport:
    """Estimate plus diagnostics.

    ``retained_rank`` counts the leading singular values at or above the
    threshold; ``threshold`` refers to the interval-normalized scale.
    ``no_data`` flags the degenerate p_hat = 0 case where the estimate is
    the interval midpoint.
    """

    estimate: np.ndarray
    p_hat: float
    q_hat: float | None
    threshold: float
    retained_rank: int
    no_data: bool = False


def _variance_rate(p: float, sigma_sq: float) -> float:
    """``q = p * sigma_sq + p * (1 - p) * (1 - sigma_sq)``: the variance
    bound of a zero-filled entry observed with probability ``p``."""
    if not (0.0 < sigma_sq <= 1.0):
        raise ValidationError(f"sigma_sq must lie in (0, 1], got {sigma_sq}")
    return p * sigma_sq + p * (1.0 - p) * (1.0 - sigma_sq)


def threshold_value(n: int, p_hat: float, eta: float, sigma_sq: float | None = None) -> float:
    """Singular value cutoff ``(2 + eta) * sqrt(n * p_hat)``.

    With a known variance bound ``sigma_sq`` the cutoff tightens to
    ``(2 + eta) * sqrt(n * q_hat)`` where
    ``q_hat = p_hat * sigma_sq + p_hat * (1 - p_hat) * (1 - sigma_sq)``.
    """
    if n < 1:
        raise ValidationError("n must be a positive integer")
    if not (0.0 <= p_hat <= 1.0):
        raise ValidationError(f"p_hat must lie in [0, 1], got {p_hat}")
    if not (0.0 <= eta < 1.0):
        raise ValidationError(f"eta must lie in [0, 1), got {eta}")
    rate = p_hat if sigma_sq is None else _variance_rate(p_hat, sigma_sq)
    return (2.0 + eta) * float(np.sqrt(n * rate))


def _normalise(data: MaskedMatrix, interval, copy: bool = True):
    """Check the interval and that the observed values lie in it; map the
    observed entries affinely onto [-1, 1] and zero-fill the rest.

    Returns ``(lo, hi, p_hat, y)``; ``y`` is None when nothing is observed.
    ``y`` is a new array unless ``copy`` is False and ``data.values`` is
    already that matrix (interval [-1, 1], C order, +0.0 at every
    unobserved entry, as ``read_matrix_csv`` returns it): then ``y`` is
    ``data.values`` itself, and the caller must not write it.
    """
    lo, hi = _check_interval(interval)
    p_hat = data.observed_fraction()
    if p_hat == 0.0:
        return lo, hi, p_hat, None
    mid = (lo + hi) / 2.0
    values = data.values
    # True where an unobserved entry's bits are not +0.0's (-0.0 is copied
    # as +0.0); a masked reduction (``where=``) takes over ten times longer.
    if (copy or (lo, hi) != (-1.0, 1.0) or not values.flags.c_contiguous
            or np.greater(values.view(np.int64) != 0, data.mask).any()):
        # The unobserved entries hold the midpoint, which lies in [lo, hi],
        # so only an observed value can fall outside, and they map to zero.
        y = np.where(data.mask, values, mid)
    else:
        y = values
    if y.min() < lo or y.max() > hi:
        i, j = np.unravel_index(np.argmax((y < lo) | (y > hi)), y.shape)
        raise ValidationError(
            f"observed values fall outside the declared interval [{lo}, {hi}], "
            f"first at ({i}, {j}): {float(y[i, j])!r}; the error guarantee requires bounded entries"
        )
    if y is not values:
        y -= mid
        y /= (hi - lo) / 2.0
    return lo, hi, p_hat, y


def _restore(w: np.ndarray, p_hat: float, lo: float, hi: float) -> np.ndarray:
    """Rescale ``w`` by ``1 / p_hat``, clip to [-1, 1], map back onto
    [lo, hi] and clamp exactly to it, all in ``w``'s own buffer: every
    caller passes an array of its own."""
    np.clip(np.divide(w, p_hat, out=w), -1.0, 1.0, out=w)
    w *= (hi - lo) / 2.0
    w += (lo + hi) / 2.0
    return np.clip(w, lo, hi, out=w)


def usvt_estimate(data: MaskedMatrix, config: EstimatorConfig) -> EstimateReport:
    """Estimate the mean matrix of partially observed bounded data.

    Pipeline: map values affinely from the declared interval onto [-1, 1];
    zero-fill unobserved entries; keep the part of the spectrum at or
    above ``threshold_value`` with n = the larger dimension
    (:func:`usvt.linalg.thresholded_part`: eigenpairs of the Gram matrix,
    by block Krylov iteration on large inputs or ``eigh`` on general ones,
    else the eigendecomposition in ``SYMMETRIC`` mode or the SVD);
    rescale that part by ``1 / p_hat``; clip to [-1, 1]; map back and
    clamp exactly to the interval.

    With no observations at all (p_hat = 0) the midpoint matrix is
    returned with an empty retained set, threshold 0 and ``no_data`` set:
    the zero-information answer rather than an error, so sweeps over small
    observation probabilities stay total.

    ``data`` is never written. Where its values are already the zero-filled
    matrix on [-1, 1] (the default interval, C order and +0.0 at every
    unobserved entry, as :func:`usvt.read_matrix_csv` returns them), the
    cut reads them in place and no normalised copy is made.
    """
    return _usvt_and_baseline(data, config, baseline=False)[0]


def _usvt_and_baseline(data: MaskedMatrix, config: EstimatorConfig, baseline: bool):
    """``(usvt_estimate(data, config), trivial)``, where ``trivial`` is
    ``trivial_estimate(data, config.interval)`` when ``baseline`` is set and
    None otherwise; both from one validation and one zero-filled matrix."""
    if config.mode is not data.mode:
        raise ValidationError(
            f"config mode {config.mode.value!r} does not match data mode {data.mode.value!r}"
        )
    lo, hi, p_hat, y = _normalise(data, config.interval, copy=baseline)
    if y is None:
        report = EstimateReport(
            estimate=np.full(data.shape, (lo + hi) / 2.0),
            p_hat=0.0,
            q_hat=None,
            threshold=0.0,
            retained_rank=0,
            no_data=True,
        )
        return report, (report.estimate.copy() if baseline else None)

    thr = threshold_value(max(y.shape), p_hat, config.eta, config.sigma_sq)
    q_hat = None if config.sigma_sq is None else _variance_rate(p_hat, config.sigma_sq)
    part, k = thresholded_part(y, thr, symmetric=data.mode is SymmetryMode.SYMMETRIC)
    report = EstimateReport(
        estimate=_restore(part, p_hat, lo, hi),
        p_hat=p_hat,
        q_hat=q_hat,
        threshold=thr,
        retained_rank=k,
    )
    # The cut does not write y, so the baseline is restored in its buffer.
    return report, (_restore(y, p_hat, lo, hi) if baseline else None)


def trivial_estimate(data: MaskedMatrix, interval=None) -> np.ndarray:
    """Baseline estimator: the observed matrix itself.

    Unobserved entries become the interval midpoint and observed entries
    are rescaled by ``1 / p_hat`` on the normalized scale, then clipped;
    with everything observed this is just the data clipped to the interval.
    USVT is only worthwhile where it beats this.
    """
    lo, hi, p_hat, y = _normalise(data, interval)
    if y is None:
        return np.full(data.shape, (lo + hi) / 2.0)
    return _restore(y, p_hat, lo, hi)


def denoise_error_constant(delta: float) -> float:
    """``(4 + 2*delta) * sqrt(2/delta) + sqrt(2 + delta)``.

    Frobenius-error constant of :func:`denoise_by_threshold`; grows like
    ``(2*sqrt(2) + 1) * sqrt(delta)`` for large delta and blows up as
    delta -> 0. It is not monotone: its minimum, about 9.947, lies near
    delta = 1.62, and it rises only past that point.
    """
    if not 0 < delta < np.inf:
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    return (4.0 + 2.0 * delta) * float(np.sqrt(2.0 / delta)) + float(np.sqrt(2.0 + delta))


def denoise_by_threshold(a, b, delta: float) -> np.ndarray:
    """Reconstruct ``b`` from a perturbed copy ``a`` by spectral thresholding.

    Keeps the part of ``a``'s SVD with singular values *strictly* above
    ``(1 + delta) * ||a - b||`` (operator norm), through
    :func:`usvt.linalg.thresholded_part` with the cut moved up one ulp
    (a singular value equal to the cut is dropped). The result ``b_hat``
    satisfies the deterministic bound

        ``||b_hat - b||_F <= denoise_error_constant(delta)
                             * sqrt(||a - b|| * ||b||_*)``,

    which is the engine behind the USVT guarantee: proximity in operator
    norm plus a nuclear-norm budget yields proximity entrywise.
    """
    if not 0 < delta < np.inf:
        raise ValidationError(f"delta must be positive and finite, got {delta}")
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    gap = spectral_norm(a - b)
    return thresholded_part(a, np.nextafter((1.0 + delta) * gap, np.inf))[0]
