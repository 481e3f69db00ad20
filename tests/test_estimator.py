import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from usvt.errors import ValidationError
from usvt.estimator import (
    EstimatorConfig,
    MaskedMatrix,
    SymmetryMode,
    threshold_value,
    trivial_estimate,
    usvt_estimate,
)
from usvt.linalg import svd
from usvt.rng import make_rng

ASYM = SymmetryMode.ASYMMETRIC
SYM = SymmetryMode.SYMMETRIC


def full_mask(shape):
    return np.ones(shape, dtype=bool)


def random_masked(seed, m, n, p=0.6, mode=ASYM, scale=1.0):
    rng = make_rng(seed)
    values = rng.uniform(-scale, scale, (m, n))
    mask = rng.random((m, n)) < p
    if mode is not ASYM:
        values = (values + values.T) / 2.0
        mask = mask | mask.T
    return MaskedMatrix(np.where(mask, values, 0.0), mask, mode)


class TestThresholdValue:
    def test_basic_arithmetic(self):
        assert threshold_value(100, 1.0, 0.01) == pytest.approx(20.1, rel=1e-12)

    def test_sigma_one_collapses(self):
        for p_hat in (0.2, 0.5, 1.0):
            assert threshold_value(64, p_hat, 0.05, sigma_sq=1.0) == pytest.approx(
                threshold_value(64, p_hat, 0.05), rel=1e-12
            )

    def test_sigma_zero_limit(self):
        # sigma_sq must be > 0; use the formula at sigma_sq -> 0 via a tiny value
        # and the exact q_hat arithmetic at sigma_sq = 0 computed by hand.
        got = threshold_value(100, 0.5, 0.01, sigma_sq=1e-12)
        assert got == pytest.approx(2.01 * 5.0, rel=1e-6)  # q_hat -> 0.25

    def test_eta_zero_allowed(self):
        assert threshold_value(25, 1.0, 0.0) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            threshold_value(0, 1.0, 0.01)
        with pytest.raises(ValidationError):
            threshold_value(10, 1.5, 0.01)
        with pytest.raises(ValidationError):
            threshold_value(10, 1.0, 1.0)
        with pytest.raises(ValidationError):
            threshold_value(10, 1.0, 0.01, sigma_sq=2.0)


class TestClip:
    def test_bad_interval(self):
        # trivial_estimate is the data clipped to the interval when all is
        # observed; an interval with equal endpoints is refused.
        data = MaskedMatrix(np.eye(2), full_mask((2, 2)))
        with pytest.raises(ValidationError):
            trivial_estimate(data, interval=(1.0, 1.0))


class TestMaskedMatrix:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            MaskedMatrix(np.ones((2, 3)), np.ones((3, 2), bool))

    def test_symmetric_requires_square(self):
        with pytest.raises(ValidationError):
            MaskedMatrix(np.ones((2, 3)), np.ones((2, 3), bool), SYM)

    def test_symmetric_requires_symmetric_values(self):
        vals = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError):
            MaskedMatrix(vals, full_mask((2, 2)), SYM)

    def test_skew_allows_asymmetric_values(self):
        vals = np.array([[0.0, 0.8], [0.2, 0.0]])
        mm = MaskedMatrix(vals, full_mask((2, 2)), SymmetryMode.SKEW_SYMMETRIC)
        assert mm.observed_fraction() == 1.0

    def test_observed_fraction_counts_upper_triangle(self):
        mask = np.array([[True, False], [False, True]])
        mm = MaskedMatrix(np.zeros((2, 2)), mask, SYM)
        assert mm.observed_fraction() == pytest.approx(2.0 / 3.0)


class TestUsvtEstimate:
    def test_zero_matrix_keeps_nothing(self):
        data = MaskedMatrix(np.zeros((10, 10)), full_mask((10, 10)))
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01))
        assert np.array_equal(rep.estimate, np.zeros((10, 10)))
        assert rep.retained_rank == 0
        assert rep.p_hat == 1.0
        assert not rep.no_data

    def test_all_ones_exact(self):
        n = 100
        data = MaskedMatrix(np.ones((n, n)), full_mask((n, n)))
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01))
        assert rep.threshold == pytest.approx(20.1, rel=1e-12)
        assert rep.retained_rank == 1
        assert np.abs(rep.estimate - 1.0).max() < 1e-9
        assert float(((rep.estimate - 1.0) ** 2).mean()) < 1e-18

    def test_all_missing_returns_midpoint(self):
        data = MaskedMatrix(np.zeros((6, 6)), np.zeros((6, 6), bool))
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01, interval=(-1.0, 1.0)))
        assert rep.no_data
        assert rep.p_hat == 0.0
        assert rep.threshold == 0.0
        assert rep.retained_rank == 0
        assert np.array_equal(rep.estimate, np.zeros((6, 6)))

    def test_all_missing_nondefault_interval(self):
        data = MaskedMatrix(np.zeros((4, 4)), np.zeros((4, 4), bool))
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01, interval=(0.0, 1.0)))
        assert np.array_equal(rep.estimate, np.full((4, 4), 0.5))

    def test_exact_recovery_rank_two(self):
        # Two orthonormal flat directions scaled to 40: both singular values
        # clear the threshold 2.01 * sqrt(200) ~ 28.4, so the retained
        # projection is the matrix itself.
        n = 200
        u = np.full(n, 1.0 / np.sqrt(n))
        w = u * np.tile([1.0, -1.0], n // 2)
        truth = 40.0 * (np.outer(u, u) + np.outer(w, w))
        assert np.abs(truth).max() <= 1.0
        data = MaskedMatrix(truth, full_mask((n, n)))
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01))
        assert rep.retained_rank == 2
        assert float(((rep.estimate - truth) ** 2).mean()) <= 1e-6

    def test_out_of_interval_rejected(self):
        data = MaskedMatrix(np.full((3, 3), 2.0), full_mask((3, 3)))
        with pytest.raises(ValidationError):
            usvt_estimate(data, EstimatorConfig(eta=0.01))

    def test_unobserved_out_of_range_ignored(self):
        values = np.array([[0.5, 9.0], [0.1, 0.2]])
        mask = np.array([[True, False], [True, True]])
        rep = usvt_estimate(MaskedMatrix(values, mask), EstimatorConfig(eta=0.01))
        assert np.abs(rep.estimate).max() <= 1.0

    def test_mode_mismatch_rejected(self):
        data = random_masked(1, 5, 5, mode=SYM)
        with pytest.raises(ValidationError):
            usvt_estimate(data, EstimatorConfig(eta=0.01, mode=ASYM))

    def test_q_hat_reported(self):
        data = random_masked(2, 30, 30, p=0.5)
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01, sigma_sq=0.5))
        p = rep.p_hat
        assert rep.q_hat == pytest.approx(p * 0.5 + p * (1 - p) * 0.5)

    def test_transpose_equivariance_rectangular_exact(self):
        data = random_masked(7, 30, 20, p=0.7)
        flipped = MaskedMatrix(data.values.T, data.mask.T, ASYM)
        rep = usvt_estimate(data, EstimatorConfig(eta=0.05))
        rep_t = usvt_estimate(flipped, EstimatorConfig(eta=0.05))
        # Both orientations reduce to the same rows <= cols computation.
        assert np.array_equal(rep.estimate, rep_t.estimate.T)
        assert rep.threshold == rep_t.threshold
        assert rep.retained_rank == rep_t.retained_rank

    def test_transpose_equivariance_square(self):
        data = random_masked(8, 25, 25, p=0.8)
        flipped = MaskedMatrix(data.values.T, data.mask.T, ASYM)
        rep = usvt_estimate(data, EstimatorConfig(eta=0.05))
        rep_t = usvt_estimate(flipped, EstimatorConfig(eta=0.05))
        assert np.abs(rep.estimate - rep_t.estimate.T).max() < 1e-10

    def test_interval_equivariance(self):
        base = random_masked(9, 24, 18, p=0.7)
        alpha, beta = 1.7, 0.4
        shifted = MaskedMatrix(
            np.where(base.mask, alpha * base.values + beta, 0.0), base.mask, ASYM
        )
        rep = usvt_estimate(base, EstimatorConfig(eta=0.02, interval=(-1.0, 1.0)))
        rep2 = usvt_estimate(
            shifted, EstimatorConfig(eta=0.02, interval=(-alpha + beta, alpha + beta))
        )
        assert np.abs(rep2.estimate - (alpha * rep.estimate + beta)).max() < 1e-10
        assert rep2.retained_rank == rep.retained_rank

    def test_eta_monotonicity(self):
        data = random_masked(10, 40, 40, p=0.9)
        ranks = [
            usvt_estimate(data, EstimatorConfig(eta=eta)).retained_rank
            for eta in (0.0, 0.1, 0.3, 0.6, 0.9)
        ]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_symmetric_output_symmetric(self):
        rng = make_rng(12)
        n = 40
        vals = rng.uniform(-1, 1, (n, n))
        vals = (vals + vals.T) / 2.0
        mask = rng.random((n, n)) < 0.7
        mask = mask | mask.T
        data = MaskedMatrix(np.where(mask, vals, 0.0), mask, SYM)
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01, mode=SYM))
        assert np.abs(rep.estimate - rep.estimate.T).max() <= 1e-8

    def test_symmetric_path_matches_general_svd_path(self):
        # Dual route: the eigendecomposition-based retained projection must
        # agree with the general SVD reconstruction on the same matrix.
        rng = make_rng(13)
        n = 60
        vals = rng.uniform(-1, 1, (n, n))
        vals = (vals + vals.T) / 2.0
        mask = rng.random((n, n)) < 0.8
        mask = mask | mask.T
        data = MaskedMatrix(np.where(mask, vals, 0.0), mask, SYM)
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01, mode=SYM))

        y = np.where(mask, vals, 0.0)
        fact = svd(y)
        keep = fact.singular_values >= rep.threshold
        proj = (fact.left_vectors[:, keep] * fact.singular_values[keep]) @ fact.right_vectors[:, keep].T
        expected = np.clip(proj / rep.p_hat, -1.0, 1.0)
        assert keep.sum() == rep.retained_rank
        assert np.abs(rep.estimate - expected).max() < 1e-9

    def test_full_retention_identity(self):
        # Every nonzero singular value clears the threshold, so the
        # estimate equals the (clipped) observed matrix. The two-block
        # constant truth has singular values 48 and 24 against a cut of
        # 2.01 * sqrt(80) = 17.98 (p_hat = 1), so the whole spectrum is kept.
        n = 80
        blocks = np.array([[0.9, -0.3], [-0.3, 0.9]])
        z = np.repeat([0, 1], n // 2)
        truth = blocks[z][:, z]
        data = MaskedMatrix(truth, full_mask((n, n)))
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01))
        s = svd(truth).singular_values
        assert s[s > 1e-9 * s[0]].min() >= rep.threshold
        assert np.abs(rep.estimate - np.clip(truth, -1.0, 1.0)).max() < 1e-10

    def test_division_uses_p_hat_not_p(self):
        # A mask with exactly half the entries observed gives p_hat = 0.5
        # regardless of any nominal sampling rate.
        n = 20
        mask = np.zeros((n, n), dtype=bool)
        mask[:, : n // 2] = True
        data = MaskedMatrix(np.where(mask, 0.9, 0.0), mask)
        rep = usvt_estimate(data, EstimatorConfig(eta=0.01))
        assert rep.p_hat == 0.5

    def test_skew_mode_round_trip(self):
        rng = make_rng(15)
        n = 30
        upper = rng.uniform(0, 1, (n, n))
        vals = np.triu(upper, 1)
        vals = vals + np.triu(1.0 - upper, 1).T
        np.fill_diagonal(vals, 0.0)
        data = MaskedMatrix(vals, full_mask((n, n)), SymmetryMode.SKEW_SYMMETRIC)
        rep = usvt_estimate(
            data, EstimatorConfig(eta=0.01, interval=(0.0, 1.0), mode=SymmetryMode.SKEW_SYMMETRIC)
        )
        assert rep.estimate.min() >= 0.0 and rep.estimate.max() <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=1.0),
    eta=st.floats(min_value=0.0, max_value=0.99),
)
def test_estimate_always_bounded(seed, p, eta):
    rng = make_rng(seed)
    m = int(rng.integers(1, 15))
    n = int(rng.integers(1, 15))
    lo, hi = sorted(rng.uniform(-3, 3, 2))
    if hi - lo < 1e-6:
        hi = lo + 1.0
    values = rng.uniform(lo, hi, (m, n))
    mask = rng.random((m, n)) < p
    data = MaskedMatrix(np.where(mask, values, 0.0), mask)
    rep = usvt_estimate(data, EstimatorConfig(eta=eta, interval=(lo, hi)))
    assert rep.estimate.min() >= lo
    assert rep.estimate.max() <= hi
    assert 0 <= rep.retained_rank <= min(m, n)


class TestTrivialEstimate:
    def test_fully_observed_is_clip(self):
        data = random_masked(16, 12, 12, p=1.0)
        out = trivial_estimate(data)
        assert np.array_equal(out, np.clip(data.values, -1, 1))

    def test_unobserved_become_midpoint(self):
        values = np.array([[0.8, 0.0], [0.0, 0.2]])
        mask = np.array([[True, False], [False, True]])
        out = trivial_estimate(MaskedMatrix(values, mask), interval=(0.0, 1.0))
        assert out[0, 1] == 0.5 and out[1, 0] == 0.5

    def test_no_data(self):
        data = MaskedMatrix(np.zeros((3, 3)), np.zeros((3, 3), bool))
        assert np.array_equal(trivial_estimate(data), np.zeros((3, 3)))


class TestEstimatorConfig:
    def test_eta_range(self):
        with pytest.raises(ValidationError):
            EstimatorConfig(eta=1.0)
        with pytest.raises(ValidationError):
            EstimatorConfig(eta=-0.1)
        EstimatorConfig(eta=0.0)  # exploratory value is allowed

    def test_interval_order(self):
        with pytest.raises(ValidationError):
            EstimatorConfig(eta=0.01, interval=(1.0, -1.0))

    def test_sigma_sq_range(self):
        with pytest.raises(ValidationError):
            EstimatorConfig(eta=0.01, sigma_sq=0.0)
        with pytest.raises(ValidationError):
            EstimatorConfig(eta=0.01, sigma_sq=1.5)


class TestSpectralCut:
    def test_singular_value_equal_to_threshold_is_kept(self):
        # With n = 16 and p_hat = 1 the threshold is (2 + eta) * 4, which is
        # exact, so eta = s / 4 - 2 puts the cut exactly on the top singular
        # value s (about 10, from a 10 x 10 block of ones).
        n = 16
        values = np.zeros((n, n))
        values[:10, :10] = 1.0
        data = MaskedMatrix(values, full_mask((n, n)))
        s = svd(values).singular_values[0]
        at = EstimatorConfig(eta=s / 4.0 - 2.0)
        above = EstimatorConfig(eta=np.nextafter(s / 4.0, np.inf) - 2.0)
        rep = usvt_estimate(data, at)
        assert rep.threshold == s
        assert rep.retained_rank == 1
        assert usvt_estimate(data, above).retained_rank == 0


def pinned_input(mode):
    rng = make_rng(31)
    m, n = (60, 45) if mode is ASYM else (50, 50)
    u = rng.uniform(-1, 1, (m, 2))
    v = u if mode is SYM else rng.uniform(-1, 1, (n, 2))
    noise = rng.uniform(-0.5, 0.5, (m, n))
    mask = rng.random((m, n)) < 0.7
    if mode is SYM:
        noise, mask = noise + noise.T, mask | mask.T
    values = np.clip(u @ v.T + noise, -1.0, 1.0)
    return MaskedMatrix(np.where(mask, values, 0.0), mask, mode)


@pytest.mark.parametrize("mode, digest", [
    (ASYM, "1307eaf8eaa277fe07abed7cff856bd3816146f48c5413a36f880a819052fcdd"),
    (SYM, "db10f19ceac3b9a56a9519c49d5f0ea0ed45b6b8712f4e45d8eb2d47a2e5c2c3"),
], ids=["asym", "sym"])
def test_estimate_bytes_pinned(mode, digest):
    # A change to the estimator's arithmetic (the order of the rescale and
    # clips, the decomposition call, the retained set) shows as a new
    # digest. The digests were recorded on x86-64 with numpy 2.4 and
    # OpenBLAS 0.3.31; another LAPACK may round differently.
    rep = usvt_estimate(pinned_input(mode), EstimatorConfig(eta=0.01, mode=mode))
    assert rep.retained_rank == 1
    assert hashlib.sha256(rep.estimate.tobytes()).hexdigest() == digest
