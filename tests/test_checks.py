import inspect

import pytest

from usvt.checks import (
    DEFAULT_SEED,
    _CHECKS,
    check_denoise_bound,
    check_generator_certificates,
    check_negative_control,
    check_norm_order,
    check_suite,
)
from usvt.errors import ValidationError


def test_denoise_battery_small():
    result = check_denoise_bound(seed=20240)
    assert result.ok
    assert result.passed == 1000


def test_denoise_battery_fails_with_corrupt_constant(monkeypatch):
    # Negative control for the battery machinery: an undersized constant
    # must produce violations.
    monkeypatch.setattr("usvt.checks.denoise_error_constant", lambda delta: 0.05)
    result = check_denoise_bound(seed=20240)
    assert not result.ok


def test_norms_battery():
    result = check_norm_order(seed=20240)
    assert result.ok
    assert result.passed == 200


def test_generator_certificates_small():
    result = check_generator_certificates(seed=20240)
    assert result.ok
    assert result.passed == 100


def test_negative_control_fails():
    result = check_negative_control()
    assert not result.ok
    assert result.failed == 1


def test_suite_all_excludes_negative_control():
    report = check_suite(["all"], seed=727)
    names = [r.name for r in report.results]
    assert "negative-control" not in names
    assert {"denoise-bound", "norms", "concentration", "generators"} <= set(names)
    assert report.ok


def test_suite_negative_control_selector():
    report = check_suite(["negative-control"])
    assert not report.ok
    lines = report.summary_lines()
    assert any("FAIL" in line and "negative-control" in line for line in lines)


def test_suite_unknown_selector():
    with pytest.raises(ValidationError):
        check_suite(["spectra"])


def test_suite_deduplicates():
    report = check_suite(["norms", "norms"])
    assert len(report.results) == 1


def test_batteries_take_only_seed():
    for battery in _CHECKS.values():
        params = inspect.signature(battery).parameters
        assert [(p.name, p.default) for p in params.values()] == [("seed", DEFAULT_SEED)]
