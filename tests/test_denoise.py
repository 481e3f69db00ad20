"""The deterministic spectral-denoising bound behind the estimator."""

import math

import numpy as np
import pytest

from usvt.errors import ValidationError
from usvt.estimator import denoise_by_threshold, denoise_error_constant
from usvt.linalg import frobenius_norm, nuclear_norm, spectral_norm
from usvt.rng import make_rng, mix_seed


class TestConstant:
    def test_delta_two(self):
        # (4 + 4) * sqrt(1) + sqrt(4) = 10
        assert denoise_error_constant(2.0) == pytest.approx(10.0, rel=1e-14)

    def test_delta_half(self):
        # 5 * 2 + sqrt(2.5)
        assert denoise_error_constant(0.5) == pytest.approx(10.0 + math.sqrt(2.5), rel=1e-14)

    def test_large_delta_asymptote(self):
        # K(delta) ~ 2 sqrt(2 delta) + sqrt(delta) as delta grows.
        for delta in (1e2, 1e4, 1e6):
            ratio = denoise_error_constant(delta) / (2 * math.sqrt(2 * delta) + math.sqrt(delta))
            assert ratio == pytest.approx(1.0, abs=2e-2)

    def test_monotone_growth_for_large_delta(self):
        # K has its minimum (about 9.947) near delta = 1.62 and falls
        # before it, so the grid starts on the rising branch at K(2) = 10.
        grid = np.logspace(np.log10(2.0), 4, 30)
        vals = [denoise_error_constant(d) for d in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            denoise_error_constant(0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            denoise_error_constant(math.nan)

    def test_rejects_infinite(self):
        # The constant of an infinite delta is no number: inf * 0 inside.
        with pytest.raises(ValidationError, match="delta must be positive"):
            denoise_error_constant(math.inf)


class TestDenoise:
    def test_equal_inputs_recovered_exactly(self):
        a = make_rng(1).uniform(-1, 1, (8, 11))
        out = denoise_by_threshold(a, a, delta=1.0)
        # gap = 0 keeps every nonzero singular value, so b_hat = a.
        assert np.abs(out - a).max() < 1e-12

    def test_zero_target_keeps_nothing(self):
        a = make_rng(2).uniform(-1, 1, (6, 6))
        out = denoise_by_threshold(a, np.zeros((6, 6)), delta=1.0)
        # No singular value strictly exceeds 2 ||a||.
        assert np.array_equal(out, np.zeros((6, 6)))

    def test_singular_value_equal_to_cut_is_dropped(self):
        # a has singular values 3 and 1, ||a - b|| = 1 and delta = 2, so the
        # cut (1 + delta) * ||a - b|| = 3 equals the top singular value.
        a = np.diag([3.0, 1.0])
        b = np.diag([3.0, 0.0])
        assert (1.0 + 2.0) * spectral_norm(a - b) == 3.0
        assert np.array_equal(denoise_by_threshold(a, b, 2.0), np.zeros((2, 2)))
        assert np.allclose(denoise_by_threshold(a, b, 1.9), b, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            denoise_by_threshold(np.ones((2, 3)), np.ones((3, 2)), 1.0)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValidationError):
            denoise_by_threshold(np.eye(2), np.eye(2), 0.0)

    def test_rejects_nan_delta(self):
        # A NaN delta would make the cut NaN, and no singular value reaches it.
        with pytest.raises(ValidationError):
            denoise_by_threshold(np.eye(2), np.eye(2), math.nan)

    def test_rejects_infinite_delta(self):
        # With a == b the gap is 0, and an infinite delta makes the cut inf * 0 = NaN.
        with pytest.raises(ValidationError, match="delta must be positive"):
            denoise_by_threshold(np.eye(2), np.eye(2), math.inf)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_bound_small_perturbations(self, delta):
        for case in range(60):
            rng = make_rng(mix_seed(99, case))
            b = rng.uniform(-1, 1, (15, 20))
            a = b + 0.05 * rng.uniform(-1, 1, (15, 20))
            lhs = frobenius_norm(denoise_by_threshold(a, b, delta) - b)
            rhs = denoise_error_constant(delta) * math.sqrt(spectral_norm(a - b) * nuclear_norm(b))
            assert lhs <= rhs + 1e-8

    def test_bound_battery_mixed(self):
        deltas = (0.5, 1.0, 2.0)
        for case in range(200):
            rng = make_rng(mix_seed(7, case))
            m = int(rng.integers(2, 21))
            n = int(rng.integers(2, 31))
            delta = deltas[case % 3]
            b = rng.uniform(-1, 1, (m, n))
            if case % 2:
                a = b + rng.uniform(-1, 1, (m, n)) * rng.uniform(0.01, 0.5)
            else:
                a = rng.uniform(-1, 1, (m, n))
            lhs = frobenius_norm(denoise_by_threshold(a, b, delta) - b)
            rhs = denoise_error_constant(delta) * math.sqrt(spectral_norm(a - b) * nuclear_norm(b))
            assert lhs <= rhs + 1e-8
