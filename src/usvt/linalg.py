"""Dense linear-algebra primitives used throughout the package.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects; :func:`as_matrix`
is the single entry point that coerces and validates them (finite entries,
positive dimensions). Factorizations come from LAPACK via ``numpy.linalg``,
which is deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "SvdFactorization",
    "as_matrix",
    "svd",
    "nuclear_norm",
    "spectral_norm",
    "frobenius_norm",
    "numerical_rank",
    "thresholded_part",
]

#: Relative cutoff (times the largest singular value) below which singular
#: values count as zero; the double-precision noise floor at desk scale.
DEFAULT_RANK_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a validated 2-D float64 array.

    Raises :class:`ValidationError` if the input is not numbers in
    equal-length rows, is not two-dimensional, has a zero dimension, or
    contains NaN/infinity.
    """
    try:
        out = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("matrix entries must be numbers in equal-length rows") from None
    if out.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValidationError(f"matrix dimensions must be positive, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValidationError("matrix entries must be finite")
    return out


@dataclass(frozen=True)
class SvdFactorization:
    """Full thin SVD: ``A = U diag(s) V^T``.

    ``singular_values`` is length ``min(m, n)`` and sorted descending;
    ``left_vectors`` is ``m x k`` and ``right_vectors`` is ``n x k``, both
    with orthonormal columns. Individual singular vectors are only defined
    up to sign (and rotation within repeated singular values); downstream
    code must depend only on retained-subspace projections.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """``U diag(s) V^T``, for invariant checks."""
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


def svd(a) -> SvdFactorization:
    """Singular value decomposition of a dense matrix.

    Raises ``numpy.linalg.LinAlgError`` if the iterative solver does not
    converge within LAPACK's iteration budget; never returns garbage.
    """
    m = as_matrix(a)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return SvdFactorization(s, u, vt.T)


def thresholded_part(a, cut: float, symmetric: bool = False) -> tuple[np.ndarray, int]:
    """``(part, k)``: the sum of ``s_i u_i v_i^T`` over the ``k`` singular
    values ``s_i >= cut``, always the leading ``k``. For a strict cut
    ``s_i > c`` pass ``numpy.nextafter(c, inf)``.

    ``symmetric`` asserts, unchecked, that ``a`` is a finite, exactly
    symmetric float matrix: the part then comes from its eigendecomposition
    (singular values are |eigenvalues|), several times faster than
    :func:`svd` and structurally symmetric.
    """
    if symmetric:
        lam, q = np.linalg.eigh(a)
        order = np.argsort(-np.abs(lam), kind="stable")
        k = int((np.abs(lam)[order] >= cut).sum())
        cols = order[:k]
        return (q[:, cols] * lam[cols]) @ q[:, cols].T, k
    fact = svd(a)
    s = fact.singular_values
    keep = s >= cut
    return (fact.left_vectors[:, keep] * s[keep]) @ fact.right_vectors[:, keep].T, int(keep.sum())


def _singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def nuclear_norm(a) -> float:
    """Sum of the singular values."""
    return float(_singular_values(a).sum())


def spectral_norm(a) -> float:
    """Largest singular value (operator norm)."""
    return float(_singular_values(a)[0])


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    m = as_matrix(a)
    return float(np.sqrt((m * m).sum()))


def numerical_rank(a, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values exceeding ``tol`` times the largest one.

    Returns 0 for the zero matrix.
    """
    if tol < 0:
        raise ValidationError("tol must be nonnegative")
    s = _singular_values(a)
    return int((s > tol * s[0]).sum())
