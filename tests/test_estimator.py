import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from usvt.errors import ValidationError
from usvt.estimator import (
    EstimatorConfig,
    MaskedMatrix,
    SymmetryMode,
    _normalise,
    _usvt_and_baseline,
    threshold_value,
    trivial_estimate,
    usvt_estimate,
)
from usvt.generators import bernoulli_mask, bernoulli_round
from usvt.linalg import svd
from usvt.rng import make_rng

ASYM = SymmetryMode.ASYMMETRIC
SYM = SymmetryMode.SYMMETRIC
SKEW = SymmetryMode.SKEW_SYMMETRIC


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
        # A mask of another dtype is rejected, not read as "nonzero = observed".
        for mask in ([[0.5, 0.0], [2.0, -1.0]], [[1, 0], [1, 1]]):
            with pytest.raises(ValidationError, match="mask must be Boolean"):
                MaskedMatrix(np.ones((2, 2)), mask)

    def test_symmetric_requires_square(self):
        with pytest.raises(ValidationError):
            MaskedMatrix(np.ones((2, 3)), np.ones((2, 3), bool), SYM)

    def test_symmetric_requires_symmetric_values(self):
        vals = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError, match=r"\(0, 1\) holds 1\.0 and \(1, 0\) holds 0\.5"):
            MaskedMatrix(vals, full_mask((2, 2)), SYM)

    def test_symmetric_ignores_unobserved_values(self):
        mask = np.array([[True, False], [False, True]])
        config = EstimatorConfig(eta=0.01, mode=SYM)
        data = MaskedMatrix([[1.0, 0.3], [0.7, 1.0]], mask, SYM)
        equal = MaskedMatrix([[1.0, 0.3], [0.3, 1.0]], mask, SYM)
        assert np.array_equal(usvt_estimate(data, config).estimate,
                              usvt_estimate(equal, config).estimate)

    def test_skew_allows_asymmetric_values(self):
        vals = np.array([[0.0, 0.8], [0.2, 0.0]])
        mm = MaskedMatrix(vals, full_mask((2, 2)), SymmetryMode.SKEW_SYMMETRIC)
        assert mm.observed_fraction() == 1.0

    def test_observed_fraction_counts_upper_triangle(self):
        mask = np.array([[True, False], [False, True]])
        mm = MaskedMatrix(np.zeros((2, 2)), mask, SYM)
        assert mm.observed_fraction() == pytest.approx(2.0 / 3.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mode=st.sampled_from(list(SymmetryMode)),
    p=st.floats(min_value=0.0, max_value=1.0),
    spill=st.sampled_from([0.0, 1e-9, 0.5]),
)
def test_normalise_matches_two_pass_form(seed, mode, p, spill):
    # The one-pass normalisation gives the bytes and p_hat of the two-pass
    # form: gather the observed values for the range check, then map them
    # and zero-fill; p_hat counts the upper triangle in the paired modes.
    # Values may spill past the interval, observed or not.
    rng = make_rng(seed)
    m = int(rng.integers(1, 12))
    n = m if mode is not ASYM else int(rng.integers(1, 12))
    lo, hi = sorted(rng.uniform(-3, 3, 2))
    hi = max(hi, lo + 1e-3)
    values = rng.uniform(lo - spill, hi + spill, (m, n))
    mask = rng.random((m, n)) < p
    if mode is not ASYM:
        mask = np.triu(mask) | np.triu(mask).T
    if mode is SYM:
        values = np.triu(values) + np.triu(values, 1).T
    data = MaskedMatrix(values, mask, mode)
    observed = values[mask]
    p_hat = mask.mean() if mode is ASYM else mask[np.triu_indices(m)].mean()
    if observed.size and (observed.min() < lo or observed.max() > hi):
        with pytest.raises(ValidationError, match="outside the declared interval"):
            _normalise(data, (lo, hi))
        return
    got = _normalise(data, (lo, hi))
    assert got[:3] == (lo, hi, p_hat)
    if p_hat == 0.0:
        assert got[3] is None
    else:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        assert got[3].tobytes() == np.where(mask, (values - mid) / half, 0.0).tobytes()


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

    def test_out_of_interval_error_names_the_first_observed_entry(self):
        values = np.zeros((3, 3))
        values[0, 2] = 9.0  # unobserved, so ignored
        values[1, 0], values[2, 1] = -1.5, 2.0
        mask = full_mask((3, 3))
        mask[0, 2] = False
        message = r"interval \[-1\.0, 1\.0\], first at \(1, 0\): -1\.5;"
        with pytest.raises(ValidationError, match=message):
            usvt_estimate(MaskedMatrix(values, mask), EstimatorConfig(eta=0.01))

    def test_unobserved_out_of_range_ignored(self):
        values = np.array([[0.5, 9.0], [0.1, 0.2]])
        mask = np.array([[True, False], [True, True]])
        rep = usvt_estimate(MaskedMatrix(values, mask), EstimatorConfig(eta=0.01))
        assert np.abs(rep.estimate).max() <= 1.0
        # Zero or any value the mode allows at the unobserved entries gives
        # the same bytes of estimate and baseline, both where a full
        # decomposition makes the cut (40 rows) and where the Krylov route
        # does (symmetric, 500 rows).
        for mode, n in ((ASYM, 40), (SYM, 40), (SKEW, 40), (SYM, 500)):
            rng = make_rng(n)
            u = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            seen = 0.8 * np.outer(u, u) + rng.uniform(-0.2, 0.2, (n, n))
            junk = rng.uniform(-50.0, 50.0, (n, n))
            if mode is SYM:
                seen, junk = (seen + seen.T) / 2.0, (junk + junk.T) / 2.0
            mask = bernoulli_mask(n, n, 0.6, mode, seed=n)
            config = EstimatorConfig(eta=0.01, mode=mode)
            outputs = []
            for fill in (0.0, junk):
                data = MaskedMatrix(np.where(mask, seen, fill), mask, mode)
                report, baseline = _usvt_and_baseline(data, config, baseline=True)
                outputs.append((report.estimate.tobytes(), baseline.tobytes(),
                                report.retained_rank))
            assert outputs[0] == outputs[1], (mode, n)
            assert outputs[0][2] == 1, (mode, n)

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
        assert rep.estimate.tobytes() == rep_t.estimate.T.tobytes()
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


#: Every entry point that takes a symmetry mode, called with ``mode``.
_MODE_TAKERS = {
    "MaskedMatrix": lambda mode: MaskedMatrix(np.zeros((4, 4)), full_mask((4, 4)), mode),
    "EstimatorConfig": lambda mode: EstimatorConfig(eta=0.01, mode=mode),
    "bernoulli_mask": lambda mode: bernoulli_mask(4, 4, 0.5, mode, 1),
    "bernoulli_round": lambda mode: bernoulli_round(np.full((4, 4), 0.5), mode, 1),
}


@pytest.mark.parametrize("mode", ["asym", "sym", "skew"])
@pytest.mark.parametrize("entry", sorted(_MODE_TAKERS))
def test_string_mode_rejected(entry, mode):
    # The enum's value is not the enum: "sym" would be read as another mode.
    with pytest.raises(ValidationError, match="mode"):
        _MODE_TAKERS[entry](mode)


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


def paper_oracle(data):
    """The paper's pipeline on a full ``numpy.linalg.svd`` (``eigh`` when
    symmetric), for the default interval: zero-fill, keep the spectrum at
    or above ``2.01 * sqrt(n * p_hat)`` with ``n`` the larger dimension,
    rescale by ``1 / p_hat``, clip. Returns ``(estimate, retained rank)``."""
    y = np.where(data.mask, data.values, 0.0)
    if data.mode is SYM:
        p_hat = data.mask[np.triu_indices(y.shape[0])].mean()
        cut = 2.01 * np.sqrt(y.shape[0] * p_hat)
        lam, q = np.linalg.eigh(y)
        keep = np.abs(lam) >= cut
        part = (q[:, keep] * lam[keep]) @ q[:, keep].T
    else:
        p_hat = data.mask.mean()
        cut = 2.01 * np.sqrt(max(y.shape) * p_hat)
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        keep = s >= cut
        part = (u[:, keep] * s[keep]) @ vt[keep]
    return np.clip(part / p_hat, -1.0, 1.0), int(keep.sum())


@pytest.mark.parametrize("mode, shape", [
    (ASYM, (500, 520)), (SYM, (500, 500)), (ASYM, (540, 500)),
], ids=["asym", "sym", "tall"])
def test_large_estimate_matches_full_decomposition_oracle(mode, shape, monkeypatch):
    # At n >= 500 both kinds take the partial path, certified with no full
    # decomposition. With the full SVD made to raise and every large eigh
    # counted, each must still reproduce the oracle.
    rng = make_rng(43)
    u = rng.uniform(-1, 1, (shape[0], 3))
    v = u if mode is SYM else rng.uniform(-1, 1, (shape[1], 3))
    noise = rng.uniform(-0.5, 0.5, shape)
    mask = rng.random(shape) < 0.6
    if mode is SYM:
        noise, mask = (noise + noise.T) / 2.0, np.triu(mask) | np.triu(mask).T
    values = np.clip(u @ v.T / 2.0 + noise, -1.0, 1.0)
    data = MaskedMatrix(np.where(mask, values, 0.0), mask, mode)
    expected, expected_rank = paper_oracle(data)
    full_eigh = np.linalg.eigh
    large_eighs = []

    def no_svd(a):
        raise AssertionError("full SVD of the input")

    def counted_eigh(a, *args, **kwargs):
        if min(np.shape(a)) >= 500:
            large_eighs.append(np.shape(a))
        return full_eigh(a, *args, **kwargs)

    monkeypatch.setattr("usvt.linalg.svd", no_svd)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    rep = usvt_estimate(data, EstimatorConfig(eta=0.01, mode=mode))
    assert large_eighs == []
    assert rep.retained_rank == expected_rank == 3
    assert np.abs(rep.estimate - expected).max() <= 1e-10


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


def zero_filled_input(mode, shape, seed=37):
    """Rank-2 signal plus noise, clipped to [-1, 1], 60% observed, with
    +0.0 at every unobserved entry: the matrix ``read_matrix_csv`` returns."""
    rng = make_rng(seed)
    u = rng.uniform(-1.5, 1.5, (shape[0], 2))
    v = u if mode is SYM else rng.uniform(-1.5, 1.5, (shape[1], 2))
    noise = rng.uniform(-0.5, 0.5, shape)
    mask = rng.random(shape) < 0.6
    if mode is not ASYM:
        noise, mask = (noise + noise.T) / 2.0, np.triu(mask) | np.triu(mask).T
    values = np.clip(u @ v.T + noise, -1.0, 1.0)
    return MaskedMatrix(np.where(mask, values, 0.0), mask, mode)


def spilled(data, fill=0.75):
    """``data`` with ``fill`` at every unobserved entry, which the
    estimator must ignore."""
    return MaskedMatrix(np.where(data.mask, data.values, fill), data.mask, data.mode)


def test_zero_filled_data_is_cut_in_place():
    data = zero_filled_input(ASYM, (6, 7))
    assert _normalise(data, None, copy=False)[3] is data.values
    assert _normalise(data, (-1, 1), copy=False)[3] is data.values
    negative_zero = data.values.copy()
    negative_zero[~data.mask] = -0.0
    fortran = np.asfortranarray(data.values)
    copied = [
        (data, None, True),  # the caller writes y
        (data, (-1.0, 2.0), False),  # another interval
        (spilled(data), None, False),  # nonzero values at unobserved entries
        (MaskedMatrix(negative_zero, data.mask), None, False),  # -0.0 there
        (MaskedMatrix(fortran, data.mask), None, False),  # not C order
    ]
    for case, interval, copy in copied:
        y = _normalise(case, interval, copy=copy)[3]
        assert not np.shares_memory(y, case.values)
        if interval is None:
            assert y.tobytes() == data.values.tobytes()


@pytest.mark.parametrize("mode", [ASYM, SYM, SKEW], ids=["asym", "sym", "skew"])
@pytest.mark.parametrize("m", [40, 300, 500], ids=["full", "gram", "krylov"])
def test_in_place_cut_matches_copy_path(mode, m):
    # Below 64 rows the full decomposition, then the Gram route (general
    # inputs) and from 500 rows the Krylov route. The copy path is the
    # reference: the in-place cut must match it bit for bit and leave the
    # data's bytes as they were.
    shape = (m, m + 20) if mode is ASYM else (m, m)
    data = zero_filled_input(mode, shape)
    before = data.values.tobytes()
    config = EstimatorConfig(eta=0.01, mode=mode)
    rep = usvt_estimate(data, config)
    assert data.values.tobytes() == before
    assert rep.retained_rank >= 1
    copy = usvt_estimate(spilled(data), config)
    assert rep.retained_rank == copy.retained_rank
    assert np.array_equal(rep.estimate, copy.estimate)


def test_in_place_range_check_names_the_first_entry():
    data = zero_filled_input(ASYM, (5, 6))
    values = data.values.copy()
    (i, j), (k, l) = np.argwhere(data.mask)[[3, 7]]
    values[i, j], values[k, l] = 1.5, -2.0
    zero_filled = MaskedMatrix(values, data.mask)
    assert _normalise(data, None, copy=False)[3] is data.values
    messages = []
    for case in (zero_filled, spilled(zero_filled)):
        with pytest.raises(ValidationError) as err:
            usvt_estimate(case, EstimatorConfig(eta=0.01))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"first at ({i}, {j}): 1.5;" in messages[0]


def test_in_place_cut_peak_memory():
    # The traced peak above the input, in matrices: about 1.7 on this
    # route, and 2.7 with a normalised copy of the input.
    data = zero_filled_input(ASYM, (1000, 1040))
    matrix_bytes = data.values.nbytes
    config = EstimatorConfig(eta=0.01)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = usvt_estimate(data, config)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rep.retained_rank >= 1
    assert peak < 2.2 * matrix_bytes, peak / matrix_bytes


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: MaskedMatrix(np.zeros((2, 2)), np.tri(2, dtype=bool), SYM),
                 "sym mode requires a symmetric mask", id="sym-mask"),
])
def test_guard_rejects_bad_value(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
