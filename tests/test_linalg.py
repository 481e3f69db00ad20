import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from usvt.errors import ValidationError
from usvt.linalg import (
    as_matrix,
    frobenius_norm,
    nuclear_norm,
    numerical_rank,
    spectral_norm,
    svd,
    thresholded_part,
)
from usvt.rng import make_rng


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
