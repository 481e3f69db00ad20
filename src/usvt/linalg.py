"""Dense linear-algebra primitives used throughout the package.

Matrices are plain 2-D float64 ``numpy.ndarray`` objects; :func:`as_matrix`
is the single entry point that coerces and validates them (finite entries,
positive dimensions). Factorizations come from LAPACK via ``numpy.linalg``,
which is deterministic for a fixed input.

:func:`thresholded_part`, the spectral cut of the estimator, keeps only the
singular triplets at or above a cut. On all but small inputs it finds them
as eigenpairs of the Gram matrix ``a a^T``: from 500 rows by block Krylov
iteration, stopped at the first step where its result is certified; on
general inputs too small for it, or that it does not certify, by ``eigh``;
and it falls back to the full ``svd`` or ``eigh`` wherever neither can
certify its result.
"""

from __future__ import annotations

import math
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

#: Smallest ``min(m, n)`` at which :func:`thresholded_part` tries the Krylov
#: route, on symmetric and general inputs alike; below it ``eigh`` (of ``a``
#: when symmetric, of ``a a^T`` when general) costs about as much.
_PARTIAL_MIN_DIM = 500
#: Smallest ``min(m, n)`` at which a general input is cut through its Gram
#: matrix; below it the SVD costs about as much, and every smaller input
#: keeps the SVD's bytes.
_GRAM_MIN_DIM = 64
#: Columns added to the Krylov basis per step; more than half of them at or
#: above the cut saturates the block.
_BLOCK = 10
#: Most Krylov steps, so the basis has at most ``_BLOCK * (_STEPS + 1)``
#: columns; and never more than a third of the rows.
_STEPS = 40
#: Fewest Krylov steps between two Rayleigh-Ritz checks of the basis. Once
#: two checks show the residuals' decay, the next comes where that decay
#: meets their bound; the last comes at the last step. A decay that meets it
#: more than this many steps past the last step is given up from the middle.
_CHECK = 4
#: Relative distance from the cut within which the square root of a Ritz
#: value or eigenvalue of ``G = a a^T`` is a near-tie. The certificate
#: shrinks the cut ``c`` by it too, so ``cut^2 - c^2`` (about 2e-6 cut^2)
#: covers rounding (u = 2^-53). Forming ``G`` errs by gamma_n ||a||_F^2 in
#: norm, half the Gram route's ``err``; forming ``P G P`` from it, by about
#: as much again. The Krylov route is refused where ``err`` exceeds
#: ``_MARGIN cut^2 / 2``, so the two take at most 0.75e-6 cut^2. A Cholesky
#: factorization that completes in floating point proves an m x m matrix
#: definite up to a shift of about (m + 1) u tr (Rump, BIT 46, 2006), here
#: (m + 1) m u c^2: below the remaining 1.2e-6 cut^2 for m up to about
#: 100,000; by panels in ``h``'s buffer too, since Demmel's backward-error
#: bound allows any order of the inner products (Higham, Accuracy and
#: Stability of Numerical Algorithms, 2nd ed., Thm 10.3). The concentration
#: trial's ``c^2 I - A A^T`` (n x n) spends about n^2 u c^2 on each of
#: forming and the shift: n up to about 95,000.
_MARGIN = 1e-6
#: Largest accepted residual ``||a v - s u||`` of the kept triplets, as a
#: fraction of the distance of the smallest kept singular value from the
#: cut.
_RESIDUAL = 1e-10
#: Rows per block, and per chunk of in-place updates, of the certificate.
_PANEL = 512


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

    ``a`` is checked as by :func:`as_matrix`, finite entries included, and a
    NaN ``cut``, which no singular value would reach, is refused.
    ``symmetric`` asserts, unchecked, that ``a`` is exactly symmetric: the
    part then comes from its eigenvectors (singular values are
    |eigenvalues|), several times faster than :func:`svd` and structurally
    symmetric. An ``a`` with more rows than columns is cut as its
    transpose and the part transposed back, so every route below sees
    ``m <= n`` rows and columns.

    From ``m >= 500`` (symmetric) or ``m >= 64`` (general) the triplets come
    from the Gram matrix ``G = a a^T``, formed once: its eigenpairs
    ``(lam_i, u_i)`` with ``lam_i >= cut^2`` give ``s_i = sqrt(lam_i)`` and
    the part ``U (U^T a)``, or ``U sym(U^T a U) U^T`` when symmetric. Three
    routes give the same ``k`` and the same part up to rounding:

    - *Krylov*, tried first from ``m >= 500``, whatever the kind of ``a``:
      block Krylov iteration on ``G`` from a Gaussian start drawn from
      ``make_rng(mix_seed(m, n))`` (so the same input always gives the
      same bytes) adds 10 orthonormal columns to its basis per step, for
      at most 40 steps and ``m / 3`` columns. Rayleigh-Ritz on the basis
      gives the Ritz pairs whose values reach ``cut^2``: at step 4, then
      4 steps on, at the budget's middle, or further where the residuals'
      decay so far says they meet their bound, and at the last step. The
      route returns at the first check where they are accepted and certified.
    - *Gram*, for a general ``a`` of fewer than 500 rows, or that the
      Krylov route did not certify: ``numpy.linalg.eigh`` of ``G``.
    - *Full*: :func:`svd`, or ``numpy.linalg.eigh`` of ``a`` when symmetric
      (never the Gram route), for smaller inputs and wherever the other
      routes cannot certify their result.

    One rule accepts the pairs of both the Krylov and the Gram routes.
    Forming ``G`` and diagonalising it move each ``lam_i`` by at most
    ``err = 2 (m + n) u ||a||_F^2`` (``u = 2^-53``), so ``k`` is set only
    when ``cut > 0``, every ``|lam_i - cut^2|`` exceeds ``err`` and every
    ``sqrt(lam_i)`` lies outside a relative margin of 1e-6 around the cut.
    The pairs are kept only when every kept triplet has
    ``||a v - s u|| <= 1e-10 (s_k - cut)`` with ``v = a^T u / s``; an
    ill-conditioned ``a`` (``s_1 / cut`` near 1e5) fails it.

    A Gram result needs nothing more: ``eigh`` bounds every eigenvalue from
    both sides. A Krylov result is returned only when it is certified. Its
    ``k`` Ritz values reach ``cut^2``, and Ritz values are lower bounds
    (interlacing), so ``s_k >= cut``. And ``s_{k+1}^2 <= lam_max(P G P)``
    for ``P = I - U U^T`` and any ``U`` (Courant-Fischer: ``P x = x`` for
    every ``x`` orthogonal to ``U``), which one Cholesky factorization of
    ``c^2 I - P G P``, by panels, in ``G``'s buffer bounds below ``c^2``,
    the cut ``c`` shrunk by the margin. The next route runs instead when
    ``err`` exceeds ``5e-7 cut^2``, past which the margin cannot cover
    rounding; when, at a check, more than 5 Ritz values reach the cut (the
    block of 10 is saturated), the basis has lost orthonormality or the
    Cholesky factorization fails; when the residuals of the kept Ritz pairs
    do not fall between two checks (a near-tie never meets their bound);
    when, at a check from the middle of the budget on, they would at the
    rate seen since the last check still exceed their bound 4 steps past
    the last step (before the middle, such a check sets the next one there:
    block Krylov convergence speeds up as the basis grows); or when the
    acceptance rule still refuses at the last check. A near-tie therefore
    costs time and never changes the answer.

    ``a`` is never written. The Krylov route's peak holds ``a``, ``G`` (in
    whose buffer ``c^2 I - P G P`` is formed and factored) and about one
    panel of 512 rows: the basis, then the certificate's products.
    """
    if math.isnan(cut):
        raise ValidationError("cut must be a number, got nan")
    a = as_matrix(a)
    tall = a.shape[0] > a.shape[1]
    if tall:
        a = a.T
    found = None
    if a.shape[0] >= (_PARTIAL_MIN_DIM if symmetric else _GRAM_MIN_DIM):
        found = _gram_cut(a, cut, symmetric)
    if found is None and symmetric:
        lam, q = np.linalg.eigh(a)
        order = np.argsort(-np.abs(lam), kind="stable")
        k = int((np.abs(lam)[order] >= cut).sum())
        cols = order[:k]
        part = (q[:, cols] * lam[cols]) @ q[:, cols].T
    elif found is None:
        fact = svd(a)
        s = fact.singular_values
        keep = s >= cut
        k = int(keep.sum())
        part = (fact.left_vectors[:, keep] * s[keep]) @ fact.right_vectors[:, keep].T
    else:
        u, w = found
        k = u.shape[1]
        if symmetric:
            h = w @ u
            part = (u @ ((h + h.T) / 2.0)) @ u.T
        else:
            part = u @ w
    return (part.T if tall else part), k


def _gram_cut(a: np.ndarray, cut: float, symmetric: bool):
    """The Krylov and Gram routes of :func:`thresholded_part` for an ``a``
    with no more rows than columns: ``(U, U^T a)`` over the kept triplets,
    or ``None`` where the full decomposition must run."""
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
    found = None
    if m >= _PARTIAL_MIN_DIM and err <= _MARGIN * cut * cut / 2.0:
        found = _krylov(a, g, cut, err)
    if found is None and not symmetric:
        lam, q = np.linalg.eigh(g)
        del g
        found = _accepted(a, lam, q, cut, err)
    return found


def _krylov(a: np.ndarray, g: np.ndarray, cut: float, err: float):
    """The Krylov route: block Krylov iteration on ``g = a a^T``; the
    accepted Ritz pairs as ``(U, U^T a)`` at the first check where they are
    certified, else ``None``. The certificate spends ``g``, factoring in its
    buffer; where it fails, ``g`` is formed again, with the same bytes."""
    m = g.shape[0]
    steps = min(_STEPS, m // (3 * _BLOCK) - 1)
    q = np.empty((m, _BLOCK * (steps + 1)), order="F")
    gq = np.empty_like(q)
    start = make_rng(mix_seed(m, a.shape[1])).standard_normal((m, _BLOCK))
    q[:, :_BLOCK] = np.linalg.qr(start)[0]
    check, last = _CHECK, None
    for step in range(steps + 1):
        size = (step + 1) * _BLOCK
        new = slice(size - _BLOCK, size)
        gq[:, new] = g @ q[:, new]
        if step == check or step == steps:
            basis = q[:, :size]
            if size * np.abs(basis.T @ basis - np.eye(size)).max() >= _MARGIN:
                return None
            h = basis.T @ gq[:, :size]
            values, vectors = np.linalg.eigh((h + h.T) / 2.0)
            keep = values >= cut * cut
            k = int(keep.sum())
            if k > _BLOCK // 2:
                return None
            # a v - s u = (G u - lam u) / s, so G Q gives the residuals at
            # little cost. The rule itself, which reads them off a, runs only
            # once they meet its bound; until then, their decay sets the next
            # check, or shows that they cannot meet it within the budget.
            excess = _excess(basis, gq[:, :size], values[keep], vectors[:, keep], cut)
            if excess <= 1.0:
                found = _accepted(a, values, vectors, cut, err, basis)
                if found is not None:
                    # Free the basis before the certificate's m x m arrays.
                    del q, gq, basis
                    if _complement_below(g, found[0], cut):
                        return found
                    np.matmul(a, a.T, out=g)
                    return None
            due = step
            if excess > 1.0 and last is not None and last[0] == k:
                due = _due(*last[1:], step, excess)
                # Block Krylov convergence speeds up as the basis grows, so a
                # prediction past the budget is trusted only from its middle.
                if due == math.inf or (due > steps + _CHECK and step >= steps // 2):
                    return None
                if due > steps + _CHECK:
                    due = steps // 2
            # A check costs as much as several steps: at least _CHECK apart.
            check = max(step + _CHECK, math.ceil(due))
            last = (k, step, excess)
        if step == steps:
            break
        y = gq[:, new]
        # Twice is enough: the second pass restores orthogonality that the
        # first loses to cancellation; QR after each keeps the block unit.
        for _ in range(2):
            y = np.linalg.qr(y - q[:, :size] @ (q[:, :size].T @ y))[0]
        q[:, size:size + _BLOCK] = y
    return None


def _excess(basis: np.ndarray, g_basis: np.ndarray, lam: np.ndarray, x: np.ndarray,
            cut: float) -> float:
    """The largest residual ``||G u - lam u|| / sqrt(lam)`` of the Ritz
    pairs ``(lam_i, basis @ x_i)``, read off ``g_basis = G basis``, over the
    residual rule's bound; infinite where the smallest is a near-tie."""
    if not lam.size:
        return 0.0
    s = np.sqrt(lam)
    if not s.min() - cut > _MARGIN * cut:
        return np.inf
    worst = (np.linalg.norm(g_basis @ x - (basis @ x) * lam, axis=0) / s).max()
    return float(worst / (_RESIDUAL * (s.min() - cut)))


def _due(then: int, was: float, now: int, excess: float) -> float:
    """The step at which the residual excess, down from ``was`` at step
    ``then`` to ``excess > 1`` at step ``now``, reaches 1 at that rate;
    infinite where it does not fall."""
    if not excess < was:
        return math.inf
    if was == math.inf:
        return now
    drop = math.log(was / excess) / (now - then)
    return now + math.log(excess) / drop if drop > 0.0 else math.inf


def _complement_below(g: np.ndarray, u: np.ndarray, cut: float) -> bool:
    """The certificate of the Krylov route: whether ``P g P``, for
    ``P = I - U U^T``, has every eigenvalue below ``c^2``, ``c`` the cut
    shrunk by the margin. ``c^2 I - P g P`` is formed, and factored by
    panels, in ``g``'s own buffer, which the caller hands over."""
    # P G P = G - U Z^T - Z U^T for Z = G U - U (U^T G U) / 2: one m x 2k x m
    # product, subtracted from the lower triangle 512 rows at a time.
    gu = g @ u
    ugu = u.T @ gu
    z = gu - u @ ((ugu + ugu.T) / 4.0)
    left, right = np.concatenate([u, z], axis=1), np.concatenate([z, u], axis=1)
    for r in range(0, len(g), _PANEL):
        g[r:r + _PANEL, :r + _PANEL] -= left[r:r + _PANEL] @ right[:r + _PANEL].T
    return _norm_below(g, cut * (1.0 - _MARGIN))


def _accepted(a: np.ndarray, lam: np.ndarray, vectors: np.ndarray, cut: float, err: float,
              basis=None):
    """``(U, U^T a)`` over the pairs ``(lam_i, x_i)`` of ``a a^T`` with
    ``lam_i >= cut^2``, ``x_i`` column i of ``vectors``, or of
    ``basis @ vectors`` for Ritz pairs (forming only the kept ones); ``None``
    where the acceptance rule of :func:`thresholded_part` refuses."""
    near = np.abs(np.sqrt(np.maximum(lam, 0.0)) - cut) <= _MARGIN * cut
    if not cut > 0 or near.any() or (np.abs(lam - cut * cut) <= err).any():
        return None
    keep = lam >= cut * cut
    u = vectors[:, keep] if basis is None else basis @ vectors[:, keep]
    w = u.T @ a
    # Rows of w are s_i v_i^T, so a v_i - s_i u_i = (a w_i - lam_i u_i) / s_i.
    s = np.sqrt(lam[keep])
    residual = (a @ w.T - u * lam[keep]) / s
    if keep.any() and not (np.linalg.norm(residual, axis=0).max()
                           <= _RESIDUAL * (s.min() - cut)):
        return None
    return u, w


def _norm_below(h: np.ndarray, c: float) -> bool:
    """Whether every eigenvalue of the symmetric ``h`` lies below ``c^2``,
    so ``||r|| < c`` for ``h = r r^T``: ``c > 0`` and one Cholesky
    factorization of ``c^2 I - h``, by panels, in ``h``'s own buffer (which
    the caller hands over) completes: ``numpy.linalg.cholesky`` of each
    512-row diagonal block, substitution for the panel below it, whose outer
    product leaves the trailing lower triangle. Like LAPACK's, it reads only
    the lower triangle of ``h``, and the first block that fails decides."""
    np.negative(h, out=h)
    h[np.diag_indices_from(h)] += c * c
    m = len(h)
    for j in range(0, m, _PANEL):
        end = min(j + _PANEL, m)
        try:
            lower = np.linalg.cholesky(h[j:end, j:end])
        except np.linalg.LinAlgError:
            return False
        if end == m:
            break
        # Nothing reads rows j:end again: they hold y = lower^-1 h[end:, j:end]^T.
        y = h[j:end].reshape(-1)[:_PANEL * (m - end)].reshape(_PANEL, m - end)
        y[...] = h[end:, j:end].T
        _substitute(lower, y)
        for r in range(end, m, _PANEL):
            top = min(r + _PANEL, m)
            h[r:top, end:top] -= y[:, r - end:top - end].T @ y[:, :top - end]
    return c > 0


def _substitute(lower: np.ndarray, y: np.ndarray) -> None:
    """``y <- lower^-1 y`` in place, for a lower-triangular ``lower``: one
    product per halving of ``lower``, one row division per leaf."""
    if len(lower) == 1:
        y /= lower[0, 0]
        return
    half = len(lower) // 2
    _substitute(lower[:half, :half], y[:half])
    y[half:] -= lower[half:, :half] @ y[:half]
    _substitute(lower[half:, half:], y[half:])


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
    if not tol >= 0:
        raise ValidationError("tol must be nonnegative")
    s = _singular_values(a)
    return int((s > tol * s[0]).sum())
