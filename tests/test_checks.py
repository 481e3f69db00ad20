import hashlib
import inspect

import numpy as np
import pytest

from usvt.checks import (
    DEFAULT_SEED,
    _CHECKS,
    _tournament_monotone,
    check_denoise_bound,
    check_generator_certificates,
    check_negative_control,
    check_norm_order,
    check_suite,
)
from usvt.errors import ValidationError
from usvt.generators import gen_bradley_terry
from usvt.rng import make_rng


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


def _monotone_loop(p, order, tol=1e-12):
    # Reference: every ranked row dominates each weaker row, off both rows' columns.
    n = p.shape[0]
    ranked = p[np.ix_(order, order)]
    for a in range(n - 1):
        for b in range(a + 1, n):
            cols = np.ones(n, dtype=bool)
            cols[[a, b]] = False
            if ((ranked[a] - ranked[b])[cols] < -tol).any():
                return False
    return True


def test_tournament_monotone_matches_loop():
    rng = make_rng(5)
    verdicts = set()
    for t in range(300):
        n = int(rng.integers(1, 10))
        if t % 2:
            p, order = rng.random((n, n)), rng.permutation(n)
        else:
            tm = gen_bradley_terry(n, t)
            p, order = tm.p, tm.strength_order
        verdict = _tournament_monotone(p, order)
        assert verdict == _monotone_loop(p, order), t
        verdicts.add(verdict)
    assert verdicts == {True, False}


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
    # The printed report's bytes, recorded when every concentration trial
    # still ran eigvalsh: the same seed must print the same report.
    text = "\n".join(report.summary_lines())
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "11f7fbc3cf3a628b15ed88d522421616c97a559e790ce1a4b797c47b1bb8d947")


def test_suite_negative_control_selector():
    report = check_suite(["negative-control"])
    assert not report.ok
    lines = report.summary_lines()
    assert any("FAIL" in line and "negative-control" in line for line in lines)


def test_suite_unknown_selector():
    with pytest.raises(ValidationError):
        check_suite(["spectra"])


def test_suite_reads_a_bare_string_as_one_selector():
    assert check_suite("norms") == check_suite(("norms",))


def test_suite_deduplicates():
    report = check_suite(["norms", "norms"])
    assert len(report.results) == 1


def test_batteries_take_only_seed():
    for battery in _CHECKS.values():
        params = inspect.signature(battery).parameters
        assert [(p.name, p.default) for p in params.values()] == [("seed", DEFAULT_SEED)]
