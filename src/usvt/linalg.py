"""Dense linear-algebra primitives used throughout the package.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects; :func:`as_matrix`
is the single entry point that coerces and validates them (finite entries,
positive dimensions). Factorizations come from LAPACK via ``numpy.linalg``,
which is deterministic for a fixed input.

:func:`thresholded_part`, the spectral cut of the estimator, keeps only the
singular triplets at or above a cut. It computes them by block Krylov
iteration on large inputs, by ``eigh`` of the Gram matrix ``a a^T`` on
mid-size general ones, and falls back to the full ``svd`` or ``eigh``
wherever neither can certify its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import make_rng, mix_seed

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

#: Smallest ``min(m, n)`` at which :func:`thresholded_part` tries the partial
#: path on a symmetric input; below it ``eigh`` costs about as much.
_PARTIAL_MIN_DIM = 500
#: Smallest ``min(m, n)`` at which a general input takes the Gram route, and
#: at which it tries the partial path first. Below the first the SVD costs
#: about as much (and every smaller input keeps the SVD's bytes); below the
#: second ``eigh`` of the Gram matrix is faster than the partial path.
_GRAM_MIN_DIM = 64
_GENERAL_PARTIAL_MIN_DIM = 1000
#: Columns added to the Krylov basis per step; more than half of them at or
#: above the cut saturates the block.
_BLOCK = 10
#: Krylov steps, so the basis has at most ``_BLOCK * (_STEPS + 1)`` columns.
_STEPS = 20
#: Blocks in the basis at the first Rayleigh-Ritz, which tests saturation.
_FIRST_RITZ = 2
#: Relative distance from the cut within which a Ritz value is a near-tie.
#: The certificate also shrinks the cut ``c`` by it, to cover rounding. A
#: Cholesky factorization of an m x m matrix that completes in floating
#: point proves it definite up to a shift of about (m+1) u tr (Rump, BIT 46,
#: 2006; u = 2^-53). For ``c^2 I - R R^T`` with m <= n rows the trace is at
#: most m c^2, so the shift moves the proved bound on ||R|| by m^2 u / 2
#: relative. Forming ``R R^T`` errs by at most n m u ||R||^2 in norm, which
#: moves ||R|| by n m u / 2 relative; forming ``R`` and the rank-k part
#: moves it by a few u times ||R|| and s_1, about 1e-9 c at most while
#: s_1 / c < 1e6. The margin covers the sum for every shape, a symmetric
#: ``R`` included, with n up to about 95,000.
_MARGIN = 1e-6
#: Largest accepted residual of the kept Ritz pairs, as a fraction of the
#: distance of the smallest kept Ritz value from the cut.
_RESIDUAL = 1e-10


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

    ``a`` is checked as by :func:`as_matrix`, finite entries included.
    ``symmetric`` asserts, unchecked, that ``a`` is exactly symmetric: the
    part then comes from its eigendecomposition (singular values are
    |eigenvalues|), several times faster than :func:`svd` and structurally
    symmetric. An ``a`` with more rows than columns is cut as its
    transpose and the part transposed back, so every path below sees
    ``m <= n`` rows and columns.

    Three paths give the same ``k`` and the same part up to rounding:

    - *Partial*, tried when ``m >= 500`` (symmetric) or ``m >= 1000``
      (general). Block Krylov iteration (on ``a a^T`` from ``a G``, or on
      ``a`` from ``G`` when symmetric) builds an orthonormal basis of up
      to 210 columns, and Rayleigh-Ritz on it gives the Ritz triplets whose
      values reach the cut. ``G`` is Gaussian, drawn from
      ``make_rng(mix_seed(m, n))``, so the same input always gives the
      same bytes.
    - *Gram*, for a general ``a`` with ``m >= 64`` that the partial path
      did not take or could not certify: ``numpy.linalg.eigh`` of the
      m x m Gram matrix ``a a^T``, whose eigenvalues ``lam_i`` are the
      ``s_i^2``; the part is ``U_k (U_k^T a)`` over the eigenvectors with
      ``lam_i >= cut^2``, and ``s_i = sqrt(lam_i)``.
    - *Full*: :func:`svd`, or ``numpy.linalg.eigh`` when symmetric, for
      smaller inputs and wherever the other paths cannot certify their
      result.

    A partial result is returned only when it is certified. Its ``k`` Ritz
    values reach the cut, and Ritz values are lower bounds (interlacing), so
    ``s_k >= cut``. And ``||a - part|| < cut``, which bounds ``s_{k+1}``
    for any rank-``k`` part, decided by one Cholesky factorization of
    ``c^2 I - R R^T`` for ``R = a - part``, symmetric or not, and the cut
    ``c`` shrunk by a relative margin of 1e-6.
    The next path runs instead when more than 5 Ritz values reach the cut
    (the block of 10 is saturated; tested on the first two blocks of the
    basis and again on all of it), when a Ritz value lies within the margin
    of the cut, when the largest residual ``||a v - s u||`` of the kept
    Ritz pairs exceeds 1e-10 times the distance of the smallest kept value
    from the cut, when the basis has lost orthonormality, or when the
    Cholesky factorization fails.

    A Gram result needs no certificate: ``eigh`` bounds every eigenvalue
    from both sides. Forming ``a a^T`` and diagonalising it move each
    ``lam_i`` by at most ``2 (m + n) u ||a||_F^2`` (``u = 2^-53``), so ``k``
    is set only when every ``|lam_i - cut^2|`` exceeds that bound and every
    ``sqrt(lam_i)`` lies outside the 1e-6 margin of the cut. The result is
    returned only when, as on the partial path, every kept triplet has
    ``||a v - s u|| <= 1e-10 (s_k - cut)`` with ``v = a^T u / s``; an
    ill-conditioned ``a`` (``s_1 / cut`` near 1e5) fails it. Otherwise the
    SVD runs. A near-tie therefore costs time and never changes the answer.
    """
    a = as_matrix(a)
    tall = a.shape[0] > a.shape[1]
    if tall:
        a = a.T
    m = a.shape[0]
    found = None
    if m >= (_PARTIAL_MIN_DIM if symmetric else _GENERAL_PARTIAL_MIN_DIM):
        found = _partial_part(a, cut, symmetric)
    if found is None and not symmetric and m >= _GRAM_MIN_DIM:
        found = _gram_part(a, cut)
    if found is not None:
        part, k = found
    elif symmetric:
        lam, q = np.linalg.eigh(a)
        order = np.argsort(-np.abs(lam), kind="stable")
        k = int((np.abs(lam)[order] >= cut).sum())
        cols = order[:k]
        part = (q[:, cols] * lam[cols]) @ q[:, cols].T
    else:
        fact = svd(a)
        s = fact.singular_values
        keep = s >= cut
        k = int(keep.sum())
        part = (fact.left_vectors[:, keep] * s[keep]) @ fact.right_vectors[:, keep].T
    return (part.T if tall else part), k


def _partial_part(a: np.ndarray, cut: float, symmetric: bool):
    """The partial path of :func:`thresholded_part` for an ``a`` with no
    more rows than columns: its certified ``(part, k)``, or ``None`` where
    the full path must run."""
    m, n = a.shape
    width = _BLOCK * (_STEPS + 1)
    q = np.empty((m, width), order="F")
    # a q when symmetric, else a^T q: the columns Rayleigh-Ritz needs.
    w = np.empty((n, width), order="F")
    start = make_rng(mix_seed(m, n)).standard_normal((n, _BLOCK))
    q[:, :_BLOCK] = np.linalg.qr(start if symmetric else a @ start)[0]
    for step in range(1, _STEPS + 2):
        size = step * _BLOCK
        new = slice(size - _BLOCK, size)
        w[:, new] = (a if symmetric else a.T) @ q[:, new]
        if step == _FIRST_RITZ:
            values = _ritz(q[:, :size], w[:, :size], symmetric)[0]
            if (np.abs(values) >= cut).sum() > _BLOCK // 2:
                return None
        if step > _STEPS:
            break
        y = w[:, new] if symmetric else a @ w[:, new]
        # Twice is enough: the second pass restores orthogonality that the
        # first loses to cancellation; QR after each keeps the block unit.
        for _ in range(2):
            y = np.linalg.qr(y - q[:, :size] @ (q[:, :size].T @ y))[0]
        q[:, size:size + _BLOCK] = y
    if width * np.abs(q.T @ q - np.eye(width)).max() >= _MARGIN:
        return None
    values, left, right = _ritz(q, w, symmetric)
    keep = np.abs(values) >= cut
    k = int(keep.sum())
    if k > _BLOCK // 2 or not (np.abs(np.abs(values) - cut) > _MARGIN * cut).all():
        return None
    lam = values[keep]
    u = q @ left[:, keep]
    if symmetric:
        v = u
        residual = w @ left[:, keep] - u * lam
    else:
        v = right[:, keep]
        residual = a @ v - u * lam
    if k and not (np.linalg.norm(residual, axis=0).max()
                  <= _RESIDUAL * (np.abs(lam).min() - cut)):
        return None
    part = (u * lam) @ v.T
    if not _norm_below(a, part, cut * (1.0 - _MARGIN)):
        return None
    return part, k


def _gram_part(a: np.ndarray, cut: float):
    """The Gram route of :func:`thresholded_part` for a general ``a`` with no
    more rows than columns: ``(part, k)`` from ``eigh`` of ``a a^T``, or
    ``None`` where the SVD must run."""
    m, n = a.shape
    g = a @ a.T
    # Each entry of the computed G is a dot product of length n, so G errs
    # by at most gamma_n |a| |a|^T entrywise, at most gamma_n ||a||_F^2 in
    # norm (gamma_n = n u / (1 - n u), u = 2^-53). LAPACK's eigh returns the
    # exact eigenvalues of G + F with ||F|| <= p(m) u ||G||, p(m) a modestly
    # growing function of m taken here as m, and ||G|| <= tr(G) = ||a||_F^2.
    # By Weyl each computed eigenvalue therefore lies within
    # (n + m) u ||a||_F^2 (1 + O(n u)) of s_i^2; the factor 2 covers the
    # higher-order terms and the rounding of the trace itself.
    err = 2.0 * (m + n) * (np.finfo(float).eps / 2.0) * float(np.trace(g))
    lam, q = np.linalg.eigh(g)
    del g
    near = np.abs(np.sqrt(np.maximum(lam, 0.0)) - cut) <= _MARGIN * cut
    if not cut > 0 or near.any() or (np.abs(lam - cut * cut) <= err).any():
        return None
    keep = lam >= cut * cut
    k = int(keep.sum())
    u = q[:, keep]
    w = u.T @ a
    # Rows of w are s_i v_i^T, so a v_i - s_i u_i = (a w_i - lam_i u_i) / s_i.
    s = np.sqrt(lam[keep])
    residual = (a @ w.T - u * lam[keep]) / s
    if k and not (np.linalg.norm(residual, axis=0).max() <= _RESIDUAL * (s.min() - cut)):
        return None
    return u @ w, k


def _ritz(q: np.ndarray, w: np.ndarray, symmetric: bool):
    """Rayleigh-Ritz on the orthonormal basis ``q`` with ``w = a q``
    (symmetric) or ``w = a^T q``: Ritz values, their vectors in ``q``'s
    coordinates and, for ``a^T q``, the right Ritz vectors."""
    if symmetric:
        h = q.T @ w
        values, vectors = np.linalg.eigh((h + h.T) / 2.0)
        return values, vectors, None
    right, values, left_t = np.linalg.svd(w, full_matrices=False)
    return values, left_t.T, right


def _norm_below(a: np.ndarray, part, c: float) -> bool:
    """Whether ``||r|| < c`` for ``r = a - part``, or ``r = a`` when ``part``
    is None: ``c > 0`` and one Cholesky factorization of ``c^2 I - r r^T``
    completes, ``r`` having no more rows than columns. ``a`` is not written."""
    r = a if part is None else a - part
    g = r @ r.T
    del r
    np.negative(g, out=g)
    g[np.diag_indices_from(g)] += c * c
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return c > 0


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
