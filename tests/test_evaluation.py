import math

import numpy as np
import pytest

import usvt
from usvt.errors import ValidationError
from usvt.evaluation import (
    bradley_terry_bracket,
    distance_bracket,
    lipschitz_latent_bracket,
    low_rank_lower_bound,
    mse,
    nuclear_bracket,
    psd_bracket,
    rate_fit,
    spectral_concentration_trial,
)
from usvt.generators import gen_blockmodel, gen_low_rank
from usvt.rng import make_rng, mix_seed


class TestMse:
    def test_zero_for_equal(self):
        a = make_rng(1).uniform(-1, 1, (4, 5))
        assert mse(a, a) == 0.0

    def test_ones_vs_zeros(self):
        assert mse(np.ones((3, 3)), np.zeros((3, 3))) == 1.0

    def test_matches_frobenius(self):
        rng = make_rng(2)
        a = rng.uniform(-1, 1, (6, 7))
        b = rng.uniform(-1, 1, (6, 7))
        expected = usvt.frobenius_norm(a - b) ** 2 / (6 * 7)
        assert mse(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_scaling(self):
        rng = make_rng(3)
        a = rng.uniform(-1, 1, (5, 5))
        b = rng.uniform(-1, 1, (5, 5))
        assert mse(a, b) == mse(b, a)
        assert mse(3 * a, 3 * b) == pytest.approx(9 * mse(a, b), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            mse(np.ones((2, 2)), np.ones((2, 3)))


class TestNuclearBracket:
    def test_zero_matrix(self):
        assert nuclear_bracket(np.zeros((4, 6)), 1.0) == 0.0

    def test_maximal_nuclear_norm(self):
        # 4x4 Hadamard matrix: nuclear norm m*sqrt(n) = 8, the maximum for
        # entries bounded by 1. First term = 1 at p = 1, second term = m.
        # Scaled by c, the terms are c and 4 c^2: the first is the minimum
        # at c = 1/2, the second at c = 1/10.
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
        assert usvt.nuclear_norm(h) == pytest.approx(8.0, rel=1e-12)
        assert nuclear_bracket(h, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert nuclear_bracket(0.5 * h, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert nuclear_bracket(0.1 * h, 1.0) == pytest.approx(0.04, rel=1e-12)

    def test_low_rank_bound(self):
        for i in range(20):
            m, n, r, p = 20, 30, 1 + i % 4, (0.25, 0.5, 1.0)[i % 3]
            a = gen_low_rank(m, n, r, seed=mix_seed(4, i))
            assert nuclear_bracket(a, p) <= math.sqrt(r / (m * p)) * (1 + 1e-12) + 1e-12

    def test_orientation_invariant(self):
        a = make_rng(5).uniform(-1, 1, (6, 10))
        assert nuclear_bracket(a, 0.5) == pytest.approx(nuclear_bracket(a.T, 0.5), rel=1e-12)

    def test_monotone_in_p(self):
        a = gen_low_rank(15, 15, 2, seed=6)
        vals = [nuclear_bracket(a, p) for p in (0.1, 0.3, 0.6, 1.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_monotone_in_nuclear_norm(self):
        a = 0.25 * gen_low_rank(12, 12, 2, seed=7)
        assert nuclear_bracket(2 * a, 0.5) >= nuclear_bracket(a, 0.5)

    def test_clamped_at_one(self):
        h = np.ones((10, 10))
        assert nuclear_bracket(h * 0 + np.eye(10) * 0 + 1, 0.0001) <= 1.0

    def test_blockmodel_bracket_bound(self):
        for i in range(10):
            k = 1 + i % 5
            probs = np.full((k, k), 0.3)
            np.fill_diagonal(probs, 0.9)
            m, _ = gen_blockmodel(50, k, probs, seed=mix_seed(9, i))
            assert nuclear_bracket(m, 1.0) <= math.sqrt(k / 50) * (1 + 1e-8)


class TestDistanceBracket:
    @staticmethod
    def fine_oracle(n, p, covering, num=4000):
        deltas = np.logspace(-math.log10(n), 0.0, num)
        return min(
            min((d + math.sqrt(covering(d / 4.0) / n)) / math.sqrt(p), 1.0) for d in deltas
        )

    def test_interval_covering_magnitude(self):
        cov = lambda d: math.ceil(1.0 / d)
        got = distance_bracket(10**6, 1.0, cov)
        fine = self.fine_oracle(10**6, 1.0, cov)
        assert got == pytest.approx(fine, rel=0.02)
        assert 0.02 <= got <= 0.04  # ~3 n^{-1/3} at n = 1e6

    def test_interval_covering_slope(self):
        cov = lambda d: math.ceil(1.0 / d)
        ns = [10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6]
        fit = rate_fit(ns, [distance_bracket(n, 1.0, cov) for n in ns])
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=0.05)

    def test_single_ball_space(self):
        for n in (100, 10000):
            got = distance_bracket(n, 1.0, lambda d: 1)
            assert abs(got - 1.0 / math.sqrt(n)) <= 1.0 / n + 1e-12

    def test_clamps_at_one(self):
        assert distance_bracket(1000, 1e-6, lambda d: math.ceil(1.0 / d)) == 1.0

    def test_p_scaling(self):
        cov = lambda d: math.ceil(1.0 / d)
        b1 = distance_bracket(10**5, 1.0, cov)
        b2 = distance_bracket(10**5, 0.25, cov)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-9)

    def test_nonmonotone_covering_rejected(self):
        with pytest.raises(ValidationError):
            distance_bracket(100, 1.0, lambda d: d)


class TestSimpleBrackets:
    def test_lipschitz_values(self):
        assert lipschitz_latent_bracket(1000, 1.0, 1) == pytest.approx(1000 ** (-1 / 3), rel=1e-12)
        assert lipschitz_latent_bracket(1000, 1.0, 1) == pytest.approx(0.1, rel=1e-12)

    def test_lipschitz_p_scaling(self):
        assert lipschitz_latent_bracket(500, 0.25, 2) == pytest.approx(
            2.0 * lipschitz_latent_bracket(500, 1.0, 2), rel=1e-12
        )

    def test_lipschitz_matches_distance_exponent(self):
        # The covering bracket for an interval decays with the same
        # exponent as the dim = 1 Lipschitz bracket.
        cov = lambda d: math.ceil(1.0 / d)
        ns = [10**4, 10**5, 10**6]
        slope_cov = rate_fit(ns, [distance_bracket(n, 1.0, cov) for n in ns]).slope
        slope_lip = rate_fit(ns, [lipschitz_latent_bracket(n, 1.0, 1) for n in ns]).slope
        assert abs(slope_cov - slope_lip) <= 0.05

    def test_bradley_terry_values(self):
        assert bradley_terry_bracket(10**4, 1.0) == pytest.approx(0.1, rel=1e-12)
        assert bradley_terry_bracket(16, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_bradley_terry_slope(self):
        ns = [100, 1000, 10000]
        fit = rate_fit(ns, [bradley_terry_bracket(n, 1.0) for n in ns])
        assert fit.slope == pytest.approx(-0.25, abs=1e-9)

    def test_psd_values(self):
        assert psd_bracket(100, 1.0) == pytest.approx(0.1, rel=1e-12)
        assert psd_bracket(10, 0.1) == pytest.approx(1.0, rel=1e-12)

    def test_psd_slope(self):
        ns = [100, 1000, 10000]
        fit = rate_fit(ns, [psd_bracket(n, 1.0) for n in ns])
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)

    def test_low_rank_lower(self):
        assert low_rank_lower_bound(10, 2, 1.0) == 0.0
        assert low_rank_lower_bound(7, 7, 0.3) == pytest.approx(0.7)
        vals = [low_rank_lower_bound(m, 3, 0.4) for m in range(3, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] > vals[-1]

    @pytest.mark.parametrize("bracket, args", [
        (lipschitz_latent_bracket, (0, 0.5, 1)),
        (lipschitz_latent_bracket, (10, 0.0, 1)),
        (lipschitz_latent_bracket, (10, 0.5, 0)),
        (bradley_terry_bracket, (0, 0.5)),
        (bradley_terry_bracket, (10, 1.5)),
        (psd_bracket, (0, 0.5)),
        (psd_bracket, (10, -0.1)),
        (distance_bracket, (0, 0.5, lambda d: 1)),
        (distance_bracket, (10, 0.0, lambda d: 1)),
        (nuclear_bracket, (np.ones((3, 3)), 0.0)),
    ])
    def test_out_of_range_arguments_rejected(self, bracket, args):
        with pytest.raises(ValidationError):
            bracket(*args)


class TestRateFit:
    def test_exact_power_law(self):
        ns = [100, 200, 400, 800]
        fit = rate_fit(ns, [3.0 * n ** (-0.5) for n in ns])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)

    def test_constant_values(self):
        fit = rate_fit([10, 100, 1000], [0.25, 0.25, 0.25])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noisy_slope_recovery(self):
        rng = make_rng(10)
        ns = [int(v) for v in np.logspace(2, 4, 12)]
        mses = [2.0 * n ** (-0.7) * math.exp(rng.normal(0, 0.02)) for n in ns]
        fit = rate_fit(ns, mses)
        assert fit.slope == pytest.approx(-0.7, abs=0.05)

    def test_requirements(self):
        with pytest.raises(ValidationError):
            rate_fit([10, 20], [1.0, 0.5])
        with pytest.raises(ValidationError):
            rate_fit([10, 20, 30], [1.0, 0.0, 0.5])
        with pytest.raises(ValidationError):
            rate_fit([10, 20, 30], [1.0, 0.5])


class TestSpectralConcentration:
    def test_degenerate_n_one(self):
        frac = spectral_concentration_trial(1, "rademacher", 0.1, trials=5, seed=14)
        assert frac == 1.0  # |a| <= 1 <= 2.1 always

    def test_uniform_small(self):
        frac = spectral_concentration_trial(150, "uniform", 0.1, trials=20, seed=15)
        assert frac >= 0.9

    def test_variance_regime_enforced(self):
        with pytest.raises(ValidationError):
            # uniform entries have variance 1/3 < 2^-0.9
            spectral_concentration_trial(2, "uniform", 0.1, trials=5, seed=18)

    def test_unknown_name(self):
        for dist in ["gaussian", ["uniform"], (lambda rng, size: rng.random(size), 0.25)]:
            with pytest.raises(ValidationError):
                spectral_concentration_trial(100, dist, 0.1, trials=5, seed=19)
