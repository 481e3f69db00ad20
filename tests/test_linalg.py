import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import usvt.linalg as linalg_module
from usvt.errors import ValidationError
from usvt.estimator import MaskedMatrix, SymmetryMode, threshold_value
from usvt.generators import bernoulli_mask, bernoulli_round, gen_blockmodel, gen_low_rank
from usvt.harness import FAMILIES
from usvt.linalg import (
    _norm_below,
    as_matrix,
    frobenius_norm,
    nuclear_norm,
    numerical_rank,
    spectral_norm,
    svd,
    thresholded_part,
)
from usvt.rng import make_rng, mix_seed


def power_iteration_norm(a, iters=5000):
    """Independent oracle for the largest singular value."""
    gram = a.T @ a
    v = np.full(a.shape[1], 1.0 / np.sqrt(a.shape[1]))
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(np.sqrt(v @ gram @ v))


def gram_singular_values(a):
    """Independent oracle: singular values via eigenvalues of A^T A."""
    eigs = np.linalg.eigvalsh(a.T @ a)
    return np.sqrt(np.clip(eigs, 0.0, None))[::-1]


class TestSvd:
    def test_identity(self):
        fact = svd(np.eye(2))
        assert np.allclose(fact.singular_values, [1.0, 1.0])

    def test_zero_matrix(self):
        fact = svd(np.zeros((3, 5)))
        assert fact.singular_values.shape == (3,)
        assert np.all(fact.singular_values == 0.0)

    def test_all_ones_rank_one(self):
        # 1 1^T has eigenvalues (n, 0, ..., 0), so singular values match.
        n = 12
        fact = svd(np.ones((n, n)))
        assert fact.singular_values[0] == pytest.approx(n, rel=1e-12)
        assert np.abs(fact.singular_values[1:]).max() < 1e-10 * n

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (17, 9), (64, 33), (64, 64)])
    def test_reconstruction_and_orthonormality(self, shape):
        a = make_rng(hash(shape) & 0xFFFF).uniform(-1, 1, shape)
        fact = svd(a)
        s1 = fact.singular_values[0]
        err = frobenius_norm(a - fact.reconstruct())
        assert err <= 1e-8 * max(shape) * max(s1, 1e-300)
        k = min(shape)
        assert np.abs(fact.left_vectors.T @ fact.left_vectors - np.eye(k)).max() < 1e-8
        assert np.abs(fact.right_vectors.T @ fact.right_vectors - np.eye(k)).max() < 1e-8
        assert np.all(np.diff(fact.singular_values) <= 0)
        assert np.all(fact.singular_values >= 0)

    def test_rejects_nan(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            svd(bad)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            svd(np.ones(4))


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(7)) == pytest.approx(7.0)

    def test_rank_one_outer_product(self):
        rng = make_rng(3)
        u = rng.uniform(-1, 1, 6)
        v = rng.uniform(-1, 1, 9)
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert nuclear_norm(np.outer(u, v)) == pytest.approx(expected, rel=1e-10)

    def test_against_gram_eigenvalues(self):
        a = make_rng(11).uniform(-1, 1, (6, 4))
        assert nuclear_norm(a) == pytest.approx(gram_singular_values(a).sum(), abs=1e-10)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == 1.0

    def test_diagonal_sign(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_against_power_iteration(self):
        a = make_rng(17).uniform(-1, 1, (5, 5))
        assert spectral_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-8)


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((4, 2))) == 0.0

    def test_all_ones_2x2(self):
        assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_against_singular_values(self):
        a = make_rng(23).uniform(-1, 1, (7, 5))
        s = svd(a).singular_values
        assert frobenius_norm(a) == pytest.approx(float(np.sqrt((s * s).sum())), abs=1e-8)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(9), 1e-10) == 9

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 4)), 1e-10) == 0
        assert numerical_rank(np.zeros((3, 4)), 0.5) == 0

    def test_rank_three_product(self):
        rng = make_rng(31)
        a = rng.uniform(-1, 1, (12, 3)) @ rng.uniform(-1, 1, (3, 8))
        assert numerical_rank(a, 1e-8) == 3

    def test_rejects_negative_tol(self):
        with pytest.raises(ValidationError):
            numerical_rank(np.eye(2), -1.0)

    def test_rejects_nan_tol(self):
        # No singular value exceeds a NaN cutoff, so the rank would read 0.
        with pytest.raises(ValidationError):
            numerical_rank(np.eye(2), math.nan)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_norm_ordering(seed):
    rng = make_rng(seed)
    m = int(rng.integers(1, 12))
    n = int(rng.integers(1, 12))
    a = rng.uniform(-2, 2, (m, n))
    sp, fro, nuc = spectral_norm(a), frobenius_norm(a), nuclear_norm(a)
    assert sp <= fro * (1 + 1e-10) + 1e-12
    assert fro <= nuc * (1 + 1e-10) + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_nuclear_cauchy_schwarz_low_rank(seed):
    rng = make_rng(seed)
    m = int(rng.integers(2, 12))
    n = int(rng.integers(2, 12))
    r = int(rng.integers(1, min(m, n) + 1))
    a = rng.uniform(-1, 1, (m, r)) @ rng.uniform(-1, 1, (r, n))
    rank = numerical_rank(a, 1e-10)
    assert nuclear_norm(a) <= np.sqrt(max(rank, 1)) * frobenius_norm(a) * (1 + 1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_spectral_triangle_inequality(seed):
    rng = make_rng(seed)
    m = int(rng.integers(1, 10))
    n = int(rng.integers(1, 10))
    a = rng.uniform(-2, 2, (m, n))
    b = rng.uniform(-2, 2, (m, n))
    gap = spectral_norm(a - b)
    assert abs(spectral_norm(a) - spectral_norm(b)) <= gap * (1 + 1e-10) + 1e-12
    assert gap <= frobenius_norm(a - b) * (1 + 1e-10) + 1e-12


def test_as_matrix_preserves_values():
    a = [[1.5, 2.0], [3.0, -4.0]]
    out = as_matrix(a)
    assert out.dtype == np.float64
    assert np.array_equal(out, np.array(a))


def svd_oracle_part(a, cut):
    """Sum of ``s_i u_i v_i^T`` over ``s_i >= cut``, straight from numpy."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s >= cut
    return (u[:, keep] * s[keep]) @ vt[keep], int(keep.sum())


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shape=st.sampled_from(["tall", "wide", "square", "symmetric"]),
    position=st.floats(min_value=0.0, max_value=1.0),
)
def test_thresholded_part_matches_svd_oracle(seed, shape, position):
    rng = make_rng(seed)
    m = int(rng.integers(2, 13))
    n = {"tall": int(rng.integers(1, m)), "wide": int(rng.integers(m + 1, 16))}.get(shape, m)
    r = int(rng.integers(1, min(m, n) + 1))
    a = rng.uniform(-1, 1, (m, r)) @ rng.uniform(-1, 1, (r, n)) + 0.1 * rng.uniform(-1, 1, (m, n))
    if shape == "symmetric":
        a = (a + a.T) / 2.0
    s = np.linalg.svd(a, compute_uv=False)
    # The cut lies above s[0], midway below s[-1] or midway between two
    # neighbours; a gap of at least 1e-3 keeps both the retained count and
    # the eigendecomposition's subspace well defined.
    j = min(int(position * (s.size + 1)), s.size)
    upper = s[j - 1] if j else 2.0 * s[0] + 1.0
    lower = s[j] if j < s.size else 0.0
    assume(upper - lower >= 1e-3)
    cut = (upper + lower) / 2.0
    part, k = thresholded_part(a, cut, symmetric=shape == "symmetric")
    expected, expected_k = svd_oracle_part(a, cut)
    assert k == expected_k == j
    assert part.shape == a.shape
    assert np.abs(part - expected).max() <= 1e-10


@pytest.mark.parametrize("symmetric", [False, True])
def test_thresholded_part_keeps_a_singular_value_equal_to_the_cut(symmetric):
    a = np.diag([3.0, -1.0, 0.5])
    part, k = thresholded_part(a, 1.0, symmetric=symmetric)
    assert k == 2
    assert np.abs(part - np.diag([3.0, -1.0, 0.0])).max() <= 1e-12
    part, k = thresholded_part(a, np.nextafter(1.0, np.inf), symmetric=symmetric)
    assert k == 1
    assert np.abs(part - np.diag([3.0, 0.0, 0.0])).max() <= 1e-12


@pytest.mark.parametrize("bad", ["nan", "inf", "1-D"])
def test_thresholded_part_validates_symmetric_input(bad):
    a = np.eye(4) if bad != "1-D" else np.ones(4)
    if bad != "1-D":
        a[1, 1] = float(bad)
    with pytest.raises(ValidationError):
        thresholded_part(a, 0.5, symmetric=True)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: as_matrix([[1.0, 2.0], [3.0]]),
                 "matrix entries must be numbers in equal-length rows", id="ragged"),
    pytest.param(lambda: as_matrix(np.zeros((0, 3))), "matrix dimensions must be positive",
                 id="empty"),
    # A NaN cut compares False with every singular value: it would keep nothing.
    pytest.param(lambda: thresholded_part(np.eye(2), math.nan), "cut must be a number",
                 id="nan-cut"),
])
def test_guard_rejects_bad_value(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("m, n", [(60, 45), (540, 500)])
def test_thresholded_part_cuts_a_tall_input_as_its_transpose(m, n):
    # 540 x 500 takes the Gram route; 60 x 45 the full SVD.
    rng = make_rng(m)
    a = rng.uniform(-1, 1, (m, 3)) @ rng.uniform(-1, 1, (3, n)) + 0.1 * rng.uniform(-1, 1, (m, n))
    s = np.linalg.svd(a, compute_uv=False)
    cut = (s[2] + s[3]) / 2.0
    part, k = thresholded_part(a, cut)
    wide_part, wide_k = thresholded_part(a.T, cut)
    assert k == wide_k == 3
    assert wide_part.T.tobytes() == part.tobytes()


#: Shapes at the size where ``thresholded_part`` starts trying its partial
#: path on a symmetric input; a general one takes the Gram route there.
LARGE = {"tall": (540, 500), "wide": (500, 540), "square": (500, 500), "symmetric": (500, 500)}


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shape=st.sampled_from(list(LARGE)),
    position=st.integers(min_value=0, max_value=7),
)
def test_thresholded_part_matches_svd_oracle_above_cutoff(seed, shape, position):
    rng = make_rng(seed)
    m, n = LARGE[shape]
    r = int(rng.integers(1, 7))
    a = rng.uniform(-1, 1, (m, r)) @ rng.uniform(-1, 1, (r, n)) + 0.1 * rng.uniform(-1, 1, (m, n))
    if shape == "symmetric":
        a = (a + a.T) / 2.0
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    # As in the oracle test above; a position past the rank puts the cut
    # inside the noise bulk, where the partial path falls back.
    upper = s[position - 1] if position else 2.0 * s[0] + 1.0
    assume(upper - s[position] >= 1e-3)
    cut = (upper + s[position]) / 2.0
    part, k = thresholded_part(a, cut, symmetric=shape == "symmetric")
    assert k == position
    assert np.abs(part - (u[:, :k] * s[:k]) @ vt[:k]).max() <= 1e-10


@pytest.mark.parametrize("case", ["symmetric", "wide", "part"])
@pytest.mark.parametrize("scale", [1.0 - 1e-3, 1.0 + 1e-3])
def test_norm_below_decides_exact_spectra(case, scale):
    # h = a a^T for a = Q diag(s) P^T with a known norm, or proj a a^T proj
    # for proj = I - U U^T, U spanning the leading two triplets, against a c
    # just below or just above that norm.
    rng = make_rng(29)
    m, n = (60, 60) if case == "symmetric" else (40, 90)
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    if case == "symmetric":
        # The most negative eigenvalue sets the norm: c I - A alone is
        # definite for every c in (2.5, 3), and proves nothing there.
        s = np.concatenate([[-3.0, 2.5], np.linspace(2.0, -2.0, m - 2)])
        a = (q * s) @ q.T
        a, norm = (a + a.T) / 2.0, 3.0
    else:
        p = np.linalg.qr(rng.standard_normal((n, m)))[0]
        s = np.concatenate([[9.0, 7.0, 3.0], np.linspace(2.0, 0.0, m - 3)])
        a = (q * s) @ p.T
        # With the leading two triplets projected out, s_3 = 3 is the norm left.
        norm = 3.0 if case == "part" else 9.0
    u = q[:, :2] if case == "part" else q[:, :0]
    proj = np.eye(m) - u @ u.T
    # _norm_below factors in h's own buffer, so each call gets an h of its own.
    assert _norm_below(proj @ a @ a.T @ proj, norm * scale) == (scale > 1.0)
    # A negative c has the same square but bounds nothing.
    assert not _norm_below(proj @ a @ a.T @ proj, -2.0 * norm)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The ``numpy.linalg.cholesky`` calls made, as a list of the row count
    of each block and whether its factorization completed."""
    calls, cholesky = [], np.linalg.cholesky

    def cholesky_spy(x):
        try:
            factor = cholesky(x)
        except np.linalg.LinAlgError:
            calls.append((len(x), False))
            raise
        calls.append((len(x), True))
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
    return calls


@pytest.mark.parametrize("m", [512, 513, 1100, 1537])
@pytest.mark.parametrize("scale", [1.0 - 1e-3, 1.0 + 1e-3])
def test_norm_below_decides_exact_spectra_across_panels(m, scale, cholesky_calls):
    # As above for h = Q diag(s^2) Q^T with norm 3, on 1 to 4 panels of 512
    # rows: each diagonal block is factored on its own, and every block
    # completes only where c lies above the norm.
    q = np.linalg.qr(make_rng(m).standard_normal((m, m)))[0]
    s = np.concatenate([[3.0, 2.9], np.linspace(2.5, 0.0, m - 2)])
    assert _norm_below((q * s * s) @ q.T, 3.0 * scale) == (scale > 1.0)
    panels = [min(512, m - j) for j in range(0, m, 512)]
    if scale > 1.0:
        assert cholesky_calls == [(rows, True) for rows in panels]
    else:
        assert cholesky_calls[-1][1] is False


@pytest.mark.parametrize("pivot, failing_call", [(300, 0), (1099, 2)], ids=["first", "last"])
def test_norm_below_stops_at_the_panel_of_the_negative_pivot(pivot, failing_call,
                                                              cholesky_calls):
    # c^2 I - h is definite but for one diagonal entry, 10 too large: its
    # only negative pivot is that entry's, in the first or the last of three
    # panels, and the factorization fails at that panel's block.
    m = 1100
    q = np.linalg.qr(make_rng(43).standard_normal((m, m)))[0]
    h = (q * np.linspace(4.0, 0.0, m)) @ q.T
    h[pivot, pivot] += 10.0
    assert not _norm_below(h, 3.0)
    assert cholesky_calls == [(512, True)] * failing_call + [([512, 512, 76][failing_call], False)]


def test_norm_below_peak_memory():
    # The factorization runs in h's own buffer: beyond h, the traced peak is
    # a diagonal block's factor and the products of one panel, about a
    # quarter of an m x m array. np.linalg.cholesky of the whole matrix
    # traces its m x m factor, on top of LAPACK's untraced working copy.
    m = 2048
    h = make_rng(47).uniform(-1.0, 1.0, (m, m))
    h = (h + h.T) / 2.0
    tracemalloc.start()
    try:
        # Every row sum of |h| is below m, so every panel completes.
        assert _norm_below(h, math.sqrt(2.0 * m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * m * m * 8


def spectrum_input(dims, leading, bulk, seed, symmetric=False):
    """``(a, part)``: an ``m x n`` matrix whose singular values are
    ``leading`` followed by a bulk spread evenly over [0, ``bulk``]
    (eigenvalues of alternating sign when symmetric), and the part of it
    that ``leading`` makes up."""
    rng = make_rng(seed)
    m, n = dims
    k, size = len(leading), min(m, n)
    values = np.concatenate([leading, np.linspace(bulk, 0.0, size - k)])
    u = np.linalg.qr(rng.standard_normal((m, size)))[0]
    if symmetric:
        v = u
        values = values * (-1.0) ** np.arange(size)
    else:
        v = np.linalg.qr(rng.standard_normal((n, size)))[0]
    a = (u * values) @ v.T
    part = (u[:, :k] * values[:k]) @ v[:, :k].T
    return ((a + a.T) / 2.0 if symmetric else a), part


@pytest.fixture
def full_decompositions(monkeypatch):
    """The full decompositions ``thresholded_part`` runs, as a list of
    names: ``usvt.linalg.svd`` calls and ``eigh`` calls on a matrix of 500
    rows or more (the partial path's own ``eigh`` is of a small matrix). On
    a general input such an ``eigh`` is the Gram route's, of ``a a^T``."""
    calls = []
    full_svd, full_eigh = linalg_module.svd, np.linalg.eigh

    def svd_spy(a):
        calls.append("svd")
        return full_svd(a)

    def eigh_spy(a, *args, **kwargs):
        if np.shape(a)[0] >= 500:
            calls.append("eigh")
        return full_eigh(a, *args, **kwargs)

    monkeypatch.setattr(linalg_module, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    return calls


@pytest.fixture
def qr_calls(monkeypatch):
    """The ``numpy.linalg.qr`` calls ``thresholded_part`` makes, as a list.
    Only the Krylov route calls it: once for the start block and twice per
    step, so ``n`` calls mean ``(n - 1) / 2`` steps."""
    calls, qr = [], np.linalg.qr

    def qr_spy(x, *args, **kwargs):
        calls.append(np.shape(x))
        return qr(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    return calls


#: Leading singular values and the top of the bulk, for a cut of 5: a
#: clear gap; a value within 1e-9 of the cut; 40 values above the cut, more
#: than the partial path's block can hold; a gap too narrow for the Krylov
#: route to resolve within its budget of steps.
SPECTRA = {
    "gap": ([30.0, 20.0, 10.0], 0.9),
    "near-tie": ([30.0, 20.0, 5.0 + 5e-10], 0.9),
    "saturated": (np.linspace(30.0, 6.0, 40), 0.9),
    "slow": ([5.3, 5.2, 5.1], 4.9),
}


@pytest.mark.parametrize("case, shape", [
    *[("gap", shape) for shape in LARGE],
    ("near-tie", "tall"), ("near-tie", "symmetric"),
    ("saturated", "wide"), ("saturated", "symmetric"),
    ("slow", "square"), ("slow", "symmetric"),
    ("certificate fails", "square"), ("certificate fails", "symmetric"),
])
def test_thresholded_part_partial_path_or_full(case, shape, monkeypatch, full_decompositions,
                                               qr_calls):
    leading, bulk = SPECTRA.get(case, SPECTRA["gap"])
    a, expected = spectrum_input(LARGE[shape], leading, bulk, seed=11, symmetric=shape == "symmetric")
    if case == "certificate fails":
        def cholesky_fails(x):
            raise np.linalg.LinAlgError("injected")
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_fails)
    part, k = thresholded_part(a, 5.0, symmetric=shape == "symmetric")
    if case == "slow" and shape == "symmetric":
        # The residuals decay too slowly to meet their bound within the
        # budget of 15 steps at 500 rows: the Krylov route gives up early.
        assert (len(qr_calls) - 1) // 2 < 15
    assert k == len(leading)
    assert np.abs(part - expected).max() <= 1e-10
    assert np.array_equal(thresholded_part(a, 5.0, symmetric=shape == "symmetric")[0], part)
    # An input of 500 rows, of either kind, tries the partial path: only a
    # clear gap with a working certificate skips the full decomposition.
    # Otherwise a symmetric input takes the full eigh, and a general one the
    # Gram route, which needs no certificate and no block: only the near-tie
    # sends it on to the SVD.
    if case == "gap":
        route = []
    elif shape == "symmetric":
        route = ["eigh"]
    else:
        route = ["eigh", "svd"] if case == "near-tie" else ["eigh"]
    assert full_decompositions == route * 2


@pytest.mark.parametrize("m", [499, 500])
@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
def test_krylov_route_is_tried_from_500_rows_for_both_kinds(symmetric, m, qr_calls):
    # One cutoff: the Krylov route, the only caller of QR, is tried exactly
    # when the shorter side has 500 rows or more, whatever the kind.
    dims = (m, m) if symmetric else (m, m + 40)
    a, expected = spectrum_input(dims, *SPECTRA["gap"], seed=23, symmetric=symmetric)
    qr_calls.clear()
    part, k = thresholded_part(a, 5.0, symmetric=symmetric)
    assert k == 3
    assert np.abs(part - expected).max() <= 1e-10
    assert bool(qr_calls) == (m >= 500)


@pytest.mark.parametrize("p", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_krylov_route_certifies_the_sweeps_general_cell(seed, p, full_decompositions):
    # The harness's rank-3 sign-noise lowrank input at n = 800, cut as the
    # estimator cuts it: the sweep's largest general cells, where the kept
    # singular values lie 1.3-1.9 times the cut (1.07-1.15 at p = 0.2). The
    # Krylov route certifies them with no full decomposition: at p = 0.2,
    # seeds 2 and 3 meet the residual bound only at the last of 25 steps.
    n = 800
    observe = FAMILIES["lowrank"].realize({"r": 3, "noise": "sign"}, n, mix_seed(seed, 1))
    data = observe(p, mix_seed(seed, 2))[1]
    y = np.where(data.mask, data.values, 0.0)
    cut = threshold_value(n, data.observed_fraction(), 0.01)
    part, k = thresholded_part(y, cut)
    assert full_decompositions == []
    expected, expected_k = svd_oracle_part(y, cut)
    assert k == expected_k >= 1
    assert np.abs(part - expected).max() <= 1e-10


@pytest.mark.parametrize("m, n", [(70, 130), (450, 120), (300, 300)], ids=["wide", "tall", "square"])
def test_gram_route_matches_svd_oracle(m, n, full_decompositions):
    # Between 64 and 500 rows a general input takes the Gram route.
    rng = make_rng(m + n)
    a = rng.uniform(-1, 1, (m, 4)) @ rng.uniform(-1, 1, (4, n)) + 0.2 * rng.uniform(-1, 1, (m, n))
    s = np.linalg.svd(a, compute_uv=False)
    cut = (s[2] + s[3]) / 2.0
    part, k = thresholded_part(a, cut)
    expected, expected_k = svd_oracle_part(a, cut)
    assert k == expected_k == 3
    assert np.abs(part - expected).max() <= 1e-10
    assert thresholded_part(a, cut)[0].tobytes() == part.tobytes()
    assert "svd" not in full_decompositions


def test_gram_route_on_weak_signal(full_decompositions, qr_calls):
    # The harness's rank-3 sign-noise lowrank input at n = 800 and p = 0.1,
    # cut as the estimator cuts it: its two kept singular values lie within
    # 2.5% of the cut. At the middle of its 25-step budget, step 12, the
    # residuals' decay still predicts their bound past step 25 + 4, so the
    # Krylov route gives up there, and the Gram route decides.
    n = 800
    observe = FAMILIES["lowrank"].realize({"r": 3, "noise": "sign"}, n, mix_seed(1, 1))
    data = observe(0.1, mix_seed(1, 2))[1]
    y = np.where(data.mask, data.values, 0.0)
    cut = threshold_value(n, data.observed_fraction(), 0.01)
    qr_calls.clear()
    part, k = thresholded_part(y, cut)
    assert len(qr_calls) == 1 + 2 * 12
    expected, expected_k = svd_oracle_part(y, cut)
    assert k == expected_k >= 1
    assert np.abs(part - expected).max() <= 1e-10
    assert full_decompositions == ["eigh"]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_krylov_route_certifies_weak_symmetric_signal(seed, full_decompositions):
    # A k = 3 blockmodel seen at n = 800 and p = 0.2, cut as the estimator
    # cuts it: the sweep's weakest large symmetric cell. Krylov iteration on
    # a a^T certifies it without the full eigh.
    n, sym = 800, SymmetryMode.SYMMETRIC
    probs = np.full((3, 3), 0.2)
    np.fill_diagonal(probs, 0.8)
    adjacency = gen_blockmodel(n, 3, probs, seed)[1]
    mask = bernoulli_mask(n, n, 0.2, sym, seed + 10)
    y = np.where(mask, 2.0 * adjacency - 1.0, 0.0)
    cut = threshold_value(n, MaskedMatrix(adjacency, mask, sym).observed_fraction(), 0.01)
    part, k = thresholded_part(y, cut, symmetric=True)
    assert full_decompositions == []
    lam, q = np.linalg.eigh(y)
    keep = np.abs(lam) >= cut
    assert k == keep.sum() >= 1
    assert np.abs(part - (q[:, keep] * lam[keep]) @ q[:, keep].T).max() <= 1e-10


def test_krylov_route_stops_at_the_first_certified_check(full_decompositions, qr_calls):
    # A k = 4 blockmodel at n = 2200 and p = 0.5, the benchmark's large
    # symmetric input, cut as the estimator cuts it: its four eigenvalues
    # are certified long before step 20, with no full decomposition.
    n, sym = 2200, SymmetryMode.SYMMETRIC
    probs = np.full((4, 4), 0.2)
    np.fill_diagonal(probs, 0.8)
    adjacency = gen_blockmodel(n, 4, probs, 3)[1]
    mask = bernoulli_mask(n, n, 0.5, sym, 13)
    y = np.where(mask, 2.0 * adjacency - 1.0, 0.0)
    cut = threshold_value(n, MaskedMatrix(adjacency, mask, sym).observed_fraction(), 0.01)
    part, k = thresholded_part(y, cut, symmetric=True)
    assert (len(qr_calls) - 1) // 2 < 20
    assert full_decompositions == []
    lam, q = np.linalg.eigh(y)
    keep = np.abs(lam) >= cut
    assert k == keep.sum() == 4
    assert np.abs(part - (q[:, keep] * lam[keep]) @ q[:, keep].T).max() <= 1e-10


def test_krylov_route_certifies_weak_general_signal(full_decompositions, qr_calls):
    # A rank-3 truth seen through sign noise at n = 1500 and p = 0.1: its
    # kept singular values lie within 15% of the cut, and their residuals
    # meet the rule only after 20 steps. The Krylov route goes on to
    # certify them, and eigh(a a^T) never runs.
    n, asym = 1500, SymmetryMode.ASYMMETRIC
    truth = gen_low_rank(n, n, 3, 1)
    signs = 2.0 * bernoulli_round((truth + 1.0) / 2.0, asym, 2) - 1.0
    mask = bernoulli_mask(n, n, 0.1, asym, 3)
    y = np.where(mask, signs, 0.0)
    cut = 2.01 * np.sqrt(n * mask.mean())
    part, k = thresholded_part(y, cut)
    assert (len(qr_calls) - 1) // 2 > 20
    assert full_decompositions == []
    expected, expected_k = svd_oracle_part(y, cut)
    assert k == expected_k == 3
    assert np.abs(part - expected).max() <= 1e-10


@pytest.mark.parametrize("leading", [
    [30.0, 20.0, 5.0 + 1e-9], [30.0, 20.0, 10.0, 5.0 - 1e-9], [5e5, 20.0, 10.0],
], ids=["near-tie-kept", "near-tie-dropped", "ill-conditioned"])
def test_gram_route_falls_back_to_svd(leading, full_decompositions):
    # A singular value within 1e-9 of the cut of 5, kept or dropped, or
    # s_1 / cut = 1e5, whose Gram eigenvectors miss the residual rule: the
    # SVD decides.
    a = spectrum_input((120, 200), leading, 0.9, seed=13)[0]
    part, k = thresholded_part(a, 5.0)
    expected, expected_k = svd_oracle_part(a, 5.0)
    assert k == expected_k == 3
    assert full_decompositions == ["svd"]
    assert np.array_equal(part, expected)


@pytest.mark.parametrize("case", ["gap", "slow", "certificate fails"])
def test_general_partial_path_falls_back_to_gram_route(case, monkeypatch, full_decompositions,
                                                       qr_calls):
    # From 500 rows a general input tries the partial path first; when it
    # cannot certify, the Gram route runs, not the SVD.
    leading, bulk = SPECTRA.get(case, SPECTRA["gap"])
    a, expected = spectrum_input((1000, 1040), leading, bulk, seed=17)
    krylov, tried = linalg_module._krylov, []

    def krylov_spy(*args):
        found = krylov(*args)
        tried.append(found is not None)
        return found

    monkeypatch.setattr(linalg_module, "_krylov", krylov_spy)
    if case == "certificate fails":
        def cholesky_fails(x):
            raise np.linalg.LinAlgError("injected")
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_fails)
    part, k = thresholded_part(a, 5.0)
    assert k == 3
    assert np.abs(part - expected).max() <= 1e-10
    assert tried == [case == "gap"]
    assert full_decompositions == ([] if case == "gap" else ["eigh"])
    # A clear gap is certified, and a slow one given up, before step 20.
    assert (len(qr_calls) - 1) // 2 < 20


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
def test_krylov_route_hands_over_a_near_tie_at_its_second_check(symmetric, full_decompositions,
                                                                qr_calls):
    # A Ritz value within the margin of the cut never meets the residual
    # rule: at 1000 rows its excess is infinite at the checks of steps 4 and
    # 8, and the route hands over at the second, long before the middle of
    # its 32-step budget. The next routes decide: the full eigh when
    # symmetric; when general, the Gram route, which refuses the near-tie
    # too, and then the SVD.
    dims = (1000, 1000) if symmetric else (1000, 1040)
    a, expected = spectrum_input(dims, *SPECTRA["near-tie"], seed=11, symmetric=symmetric)
    qr_calls.clear()
    part, k = thresholded_part(a, 5.0, symmetric=symmetric)
    assert len(qr_calls) == 1 + 2 * 8
    assert k == 3
    assert np.abs(part - expected).max() <= 1e-10
    assert full_decompositions == (["eigh"] if symmetric else ["eigh", "svd"])


def cholesky_fails(x):
    raise np.linalg.LinAlgError("injected")


@pytest.mark.parametrize("dims, symmetric", [((600, 600), True), ((1000, 1040), False)],
                         ids=["symmetric", "general"])
def test_krylov_route_peak_memory(dims, symmetric, full_decompositions, qr_calls):
    # The certificate forms and factors c^2 I - P G P in G's own buffer, so
    # beyond the input the cut's traced peak is G and the Krylov basis:
    # about 1.7-1.9 m x m arrays. A buffer of the certificate's own would
    # add a third.
    a = spectrum_input(dims, *SPECTRA["gap"], seed=11, symmetric=symmetric)[0]
    qr_calls.clear()
    tracemalloc.start()
    try:
        k = thresholded_part(a, 5.0, symmetric=symmetric)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 3 and qr_calls and full_decompositions == []
    assert peak < 2.5 * dims[0] ** 2 * 8


def test_failed_certificate_leaves_gram_route_bytes(monkeypatch):
    # The certificate spends G; after it fails, the Gram route must see the
    # same G as where the Krylov route is never tried, byte for byte.
    a = spectrum_input((1000, 1040), *SPECTRA["gap"], seed=17)[0]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", cholesky_fails)
        part, k = thresholded_part(a, 5.0)
    monkeypatch.setattr(linalg_module, "_krylov", lambda *args: None)
    expected, expected_k = thresholded_part(a, 5.0)
    assert k == expected_k == 3
    assert np.array_equal(part, expected)


def test_certificate_failing_in_a_later_panel_leaves_gram_route_bytes(monkeypatch):
    # As above, with the failure in the second panel's block, after the
    # first panel has overwritten G's first 512 rows and the lower triangle
    # below them.
    a = spectrum_input((1000, 1040), *SPECTRA["gap"], seed=17)[0]
    cholesky, calls = np.linalg.cholesky, []

    def second_fails(x):
        calls.append(len(x))
        if len(calls) == 2:
            raise np.linalg.LinAlgError("injected")
        return cholesky(x)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", second_fails)
        part, k = thresholded_part(a, 5.0)
    assert calls == [512, 488]
    monkeypatch.setattr(linalg_module, "_krylov", lambda *args: None)
    expected, expected_k = thresholded_part(a, 5.0)
    assert k == expected_k == 3
    assert np.array_equal(part, expected)


@pytest.mark.parametrize("guard", [True, False], ids=["err", "err-zero"])
@pytest.mark.parametrize("seed", [41, 42, 43])
def test_gram_route_refused_within_its_rounding_of_the_cut(seed, guard, monkeypatch,
                                                           full_decompositions):
    # 350 singular values in [200, 400] cut make err = 2 (m + n) u ||a||_F^2
    # about 5.9e-6 cut^2, and one more lies at cut (1 - 2.5e-6): its
    # eigenvalue of a a^T is 5e-6 cut^2 from cut^2, within err, but it is no
    # near-tie, and the kept residuals (about 7e-13) meet their bound (about
    # 2e-8). Only the err guard refuses the Gram route's eigh, and the SVD
    # decides; with err = 0 the eigh's pairs are accepted. (That eigh, of 400
    # rows, is below the fixture's floor of 500.)
    leading = np.concatenate([np.linspace(400.0, 200.0, 350), [1.0 - 2.5e-6]])
    a = spectrum_input((400, 420), leading, 0.5, seed=seed)[0]
    expected, expected_k = svd_oracle_part(a, 1.0)
    accepted, outcomes = linalg_module._accepted, []

    def accepted_spy(a, lam, vectors, cut, err, *basis):
        found = accepted(a, lam, vectors, cut, err if guard else 0.0, *basis)
        outcomes.append(found is not None)
        return found

    monkeypatch.setattr(linalg_module, "_accepted", accepted_spy)
    part, k = thresholded_part(a, 1.0)
    assert k == expected_k == 350
    if guard:
        assert outcomes == [False] and full_decompositions == ["svd"]
        assert np.array_equal(part, expected)
    else:
        assert outcomes == [True] and full_decompositions == []
        assert np.abs(part - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("dims, symmetric, fails, route", [
    ((40, 60), False, False, ["svd"]),
    ((300, 300), True, False, []),
    ((400, 450), False, False, []),
    ((450, 400), False, False, []),
    ((500, 500), True, False, []),
    ((1000, 1040), False, False, []),
    ((700, 600), False, False, []),
    ((500, 500), True, True, ["eigh"]),
    ((1000, 1040), False, True, ["eigh"]),
], ids=["svd", "eigh", "gram", "gram-tall", "krylov-symmetric", "krylov-general", "krylov-tall",
        "certificate-fails-symmetric", "certificate-fails-general"])
def test_thresholded_part_never_writes_its_input(dims, symmetric, fails, route, monkeypatch,
                                                 full_decompositions, qr_calls):
    # The estimator restores its baseline in the buffer of the matrix it
    # cut, on the promise that the cut does not write it. (The Gram route's
    # eigh, below 500 rows, is below the fixture's floor.)
    a = spectrum_input(dims, *SPECTRA["gap"], seed=37, symmetric=symmetric)[0]
    before = a.copy()
    qr_calls.clear()
    if fails:
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_fails)
    assert thresholded_part(a, 5.0, symmetric=symmetric)[1] == 3
    assert a.tobytes() == before.tobytes()
    assert full_decompositions == route
    assert bool(qr_calls) == (min(dims) >= 500)


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
def test_krylov_route_refuses_a_basis_that_lost_orthonormality(symmetric, monkeypatch,
                                                               full_decompositions):
    # One block of the basis, moved by 1e-6 after its second QR pass, leaves
    # the basis further from orthonormal than 1e-6 / 50 at the first check,
    # after step 4: the Ritz pairs never reach the acceptance rule, and the
    # next route decides.
    dims = (500, 500) if symmetric else (1000, 1040)
    a, expected = spectrum_input(dims, *SPECTRA["gap"], seed=19, symmetric=symmetric)
    qr, accepted, calls, ritz = np.linalg.qr, linalg_module._accepted, [], []

    def perturbed_qr(x, *args, **kwargs):
        q, r = qr(x, *args, **kwargs)
        calls.append(x.shape)
        # The start, then two passes per step: the second pass of step 2.
        return (q + 1e-6 if len(calls) == 5 else q), r

    def accepted_spy(*args):
        ritz.append(len(args) > 5)
        return accepted(*args)

    monkeypatch.setattr(np.linalg, "qr", perturbed_qr)
    monkeypatch.setattr(linalg_module, "_accepted", accepted_spy)
    part, k = thresholded_part(a, 5.0, symmetric=symmetric)
    assert k == 3 and len(calls) == 1 + 2 * 4
    assert np.abs(part - expected).max() <= 1e-10
    assert ritz == ([] if symmetric else [False])
    assert full_decompositions == ["eigh"]


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
def test_krylov_route_hands_over_after_a_last_check_that_refuses(symmetric, monkeypatch,
                                                                 full_decompositions, qr_calls):
    # With every Krylov basis refused by the acceptance rule, a clear-gap
    # input of 500 rows runs its whole budget of 15 steps. Its residuals
    # meet their bound from the check at step 8; that one, the one at step
    # 12 and the last, at step 15, neither return nor give up. The route
    # then hands over, and the next one returns the part.
    dims = (500, 500) if symmetric else (500, 540)
    a = spectrum_input(dims, *SPECTRA["gap"], seed=19, symmetric=symmetric)[0]
    accepted, refused = linalg_module._accepted, []

    def refusing(*args):
        if len(args) > 5:  # the Krylov route's call, which passes its basis
            refused.append(args[5].shape[1] // 10 - 1)  # the check's step: 10 columns a step
            return None
        return accepted(*args)

    monkeypatch.setattr(linalg_module, "_accepted", refusing)
    qr_calls.clear()  # the input's own QR calls
    part, k = thresholded_part(a, 5.0, symmetric=symmetric)
    expected, expected_k = svd_oracle_part(a, 5.0)
    assert len(qr_calls) == 1 + 2 * 15
    assert refused == [8, 12, 15]
    assert k == expected_k == 3
    assert np.abs(part - expected).max() <= 1e-10
    assert full_decompositions == ["eigh"]


@pytest.mark.parametrize("then, was, now, excess, due", [
    (4, math.inf, 8, 10.0, 8),  # after a near-tie: check again at once
    (4, 10.0, 8, 20.0, math.inf),  # a rise
    (4, 10.0, 8, 10.0, math.inf),  # no fall
    (4, 100.0, 8, 10.0, 12),  # a tenfold fall in 4 steps reaches 1 in 4 more
])
def test_krylov_due_step(then, was, now, excess, due):
    assert linalg_module._due(then, was, now, excess) == pytest.approx(due)


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
def test_krylov_certificate_survives_worst_case_rounding(symmetric, monkeypatch,
                                                         full_decompositions):
    # A floating-point Cholesky that completes proves definiteness only up
    # to a shift of (m + 1) u tr (Rump, BIT 46, 2006). Factor with that
    # whole shift added, on an input whose s_4 exceeds the cut of 5 by 1e-13
    # relative and whose s_4 vector is orthogonal to the Krylov start block,
    # so that no Ritz value comes near it: only the margin by which the
    # certificate shrinks the cut can refuse the three Ritz pairs.
    dims = (500, 500) if symmetric else (1000, 1040)
    m, n = dims
    rng = make_rng(31)
    start = np.linalg.qr(make_rng(mix_seed(m, n)).standard_normal((m, 10)))[0]
    hidden = rng.standard_normal(m)
    hidden -= start @ (start.T @ hidden)
    u = np.linalg.qr(np.column_stack([hidden, rng.standard_normal((m, m - 1))]))[0]
    u = np.roll(u, 3, axis=1)
    values = np.concatenate([[30.0, 20.0, 10.0, 5.0 * (1.0 + 1e-13)], np.linspace(4.9, 0.0, m - 4)])
    if symmetric:
        a = (u * values * (-1.0) ** np.arange(m)) @ u.T
        a = (a + a.T) / 2.0
    else:
        a = (u * values) @ np.linalg.qr(rng.standard_normal((n, m)))[0].T
    expected, expected_k = svd_oracle_part(a, 5.0)
    assert expected_k == 4
    cholesky = np.linalg.cholesky

    def lenient_cholesky(h):
        shift = (len(h) + 1) * 2.0 ** -53 * abs(np.trace(h))
        return cholesky(h + shift * np.eye(len(h)))

    monkeypatch.setattr(np.linalg, "cholesky", lenient_cholesky)
    # The premise: with the three leading vectors projected out, the
    # lenient factorization certifies the unshrunk cut.
    proj = np.eye(m) - u[:, :3] @ u[:, :3].T
    assert _norm_below(proj @ a @ a.T @ proj, 5.0)
    krylov, tried = linalg_module._krylov, []

    def krylov_spy(*args):
        found = krylov(*args)
        tried.append(found is not None)
        return found

    monkeypatch.setattr(linalg_module, "_krylov", krylov_spy)
    part, k = thresholded_part(a, 5.0, symmetric=symmetric)
    assert tried == [False]
    assert k == expected_k
    assert np.abs(part - expected).max() <= 1e-10
    # The Gram route refuses the near-tie too, so a general input ends at the SVD.
    assert full_decompositions == (["eigh"] if symmetric else ["eigh", "svd"])


@pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
def test_krylov_route_refused_where_gram_rounding_exceeds_the_margin(symmetric, monkeypatch,
                                                                    full_decompositions):
    # With s_1 / cut = 4000, forming a a^T errs by more than the margin can
    # cover, so the Krylov route is not tried. A symmetric input goes on to
    # eigh; a general one to the Gram route, whose residual rule refuses
    # this ill-conditioned input, and then to the SVD.
    dims = (500, 500) if symmetric else (1000, 1040)
    a = spectrum_input(dims, [2e4, 20.0, 10.0], 0.9, seed=23, symmetric=symmetric)[0]
    monkeypatch.setattr(linalg_module, "_krylov", lambda *args: pytest.fail("Krylov tried"))
    part, k = thresholded_part(a, 5.0, symmetric=symmetric)
    expected, expected_k = svd_oracle_part(a, 5.0)
    assert k == expected_k == 3
    assert np.abs(part - expected).max() <= 1e-10
    assert full_decompositions == (["eigh"] if symmetric else ["eigh", "svd"])
