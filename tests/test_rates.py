"""The paper's claims, checked end to end through ``run_experiment``.

For each family with a rate bracket, USVT's error stays under the bracket,
falls at least about as fast in n, and beats the trivial estimator (the
observed matrix itself, rescaled by ``1 / p_hat``). On the adversarial
families the error stays above a fixed fraction of the floor that no
estimator can beat. Each check ties a family's realize function, its
bracket and the estimator together. What passes regardless: a bracket
that is too loose; most brackets made steeper by n^(-1/2), since USVT's
error falls near n^(-1) at these sizes; and, since USVT keeps rank 0 in
every floor cell, any adversary that keeps most of its energy.

Measured at seed 1, n in {100, 200, 400}, p = 0.5, 2 trials:

==============  =========  =============  =====================  ===============
family          MSE slope  bracket slope  MSE / bracket          trivial / USVT
==============  =========  =============  =====================  ===============
lowrank r=3     -0.55      -0.50          0.35, 0.50, 0.32       5.8, 5.8, 12.6
blockmodel k=3  -0.96      -0.50          0.099, 0.076, 0.052    5.1, 9.4, 19.5
latent          -1.25      -0.33          0.017, 0.009, 0.005    19, 41, 93
distance        -0.62      -0.33          0.005, 0.004, 0.003    12, 17, 27
bradley_terry   -1.09      -0.25          0.054, 0.029, 0.017    5.0, 11, 24
correlation     -1.04      -0.50          0.067, 0.049, 0.032    11, 18, 39
==============  =========  =============  =====================  ===============

Over seeds 1 to 5 the lowrank slope ranged from -0.30 to -0.70 (the
retained rank is still settling at these sizes), so ``SLOPE_TOLERANCE``
lets a slope sit up to 0.25 above its bracket's; every other slope was at
least 0.18 below its bracket's (distance, seed 5).

Lower side, 1 trial: ``lowrank_adversary`` with r = 100 has MSE /
``(1 - p)^{floor(n/r)}`` of 0.67, 1.3 and 5.3; ``minimax`` has MSE /
``min(theta / sqrt(p), theta^2 n, 1)`` between 0.21 and 0.40 over
theta in {0.005, 0.05, 0.8} and seeds 1 to 3.

Variance bound: ``lowrank`` r = 3 with noise ``none`` (entry variance 0),
cut with ``sigma_sq = 1e-6`` and with the universal threshold on the same
draws, n in {100, 200, 400}, p = 0.5, 2 trials. At n = 100 both keep rank
0 and give the same cells. Retained rank (universal / bound) and the
universal MSE over the bound's MSE:

====  ==========  ==========  =============  =============
seed  rank 200    rank 400    ratio n = 200  ratio n = 400
====  ==========  ==========  =============  =============
1     0 / 2       1 / 3       3.4            33
2     0 / 1       0.5 / 3     1.7            39
3     0 / 2.5     0.5 / 3     5.9            42
4     0 / 0.5     1.5 / 3     1.3            24
5     0 / 2       0.5 / 3     3.5            42
====  ==========  ==========  =============  =============

At n = 400 the bound's MSE / bracket was 0.008-0.009 and trivial / USVT
47-50 on every seed, against 0.21-0.36 and 1.2-2.1 for the universal cut.
"""

import math

import pytest

from usvt.estimator import threshold_value
from usvt.evaluation import rate_fit
from usvt.harness import FAMILIES, ExperimentSpec, ModelSpec, report_to_dict, run_experiment

N_GRID = (100, 200, 400)
P = 0.5
SLOPE_TOLERANCE = 0.25

#: Families whose bracket is an upper rate, with the parameters swept.
UPPER = {
    "lowrank": {"r": 3, "noise": "sign"},
    "blockmodel": {"k": 3},
    "latent": {},
    "distance": {},
    "bradley_terry": {},
    "correlation": {},
}


def _cells(kind, params, trials, baseline_trivial=False, sigma_sq=None):
    spec = ExperimentSpec(ModelSpec(kind, params), N_GRID, (P,), trials=trials, seed=1,
                          baseline_trivial=baseline_trivial, sigma_sq=sigma_sq)
    cells = run_experiment(spec).cells
    assert [c.failure for c in cells] == [None] * len(N_GRID)
    return cells


def test_every_bracketed_family_is_checked():
    # lowrank_adversary's bracket is the estimation floor, checked below.
    bracketed = {kind for kind, family in FAMILIES.items() if family.bracket is not None}
    assert bracketed == set(UPPER) | {"lowrank_adversary"}


@pytest.mark.parametrize("kind", sorted(UPPER))
def test_error_within_bracket_and_beats_trivial(kind):
    cells = _cells(kind, UPPER[kind], trials=2, baseline_trivial=True)
    for c in cells:
        assert c.mean_mse <= c.bracket, c
        assert c.trivial_mean_mse >= 2.0 * c.mean_mse, c
    ns = [c.n for c in cells]
    slope = rate_fit(ns, [c.mean_mse for c in cells]).slope
    bracket_slope = rate_fit(ns, [c.bracket for c in cells]).slope
    assert slope <= bracket_slope + SLOPE_TOLERANCE


def test_adversary_error_above_floor():
    # All floor(n/r) copies of an entry go unobserved with probability
    # (1 - p)^{floor(n/r)}; the entry is then uniform on [-1, 1] given the
    # data, so any estimator pays 1/3 of the floor in expectation.
    for c in _cells("lowrank_adversary", {"r": 100}, trials=1):
        assert c.mean_mse >= 0.25 * c.bracket, c


@pytest.mark.parametrize("theta", [0.005, 0.05, 0.8])
def test_minimax_error_above_floor(theta):
    # One theta per construction of gen_minimax_instance at p = 0.5.
    for c in _cells("minimax", {"theta": theta}, trials=1):
        assert c.mean_mse >= 0.1 * min(theta / math.sqrt(P), theta * theta * c.n, 1.0), c


def test_unit_variance_bound_is_the_universal_threshold():
    # Sign noise has entry variance 1. With sigma_sq = 1, q_hat = p_hat
    # exactly, so the cut is the universal one and so is every cell.
    for n in range(1, 2000, 7):
        for p in [i / 200 for i in range(201)]:
            assert threshold_value(n, p, 0.01, 1.0) == threshold_value(n, p, 0.01)
    cells = [report_to_dict(run_experiment(ExperimentSpec(
        ModelSpec("lowrank", {"r": 3, "noise": "sign"}), (50, 100, 200), (0.1, 0.3, 0.5, 1.0),
        sigma_sq=sigma_sq, trials=2, seed=5)))["cells"] for sigma_sq in (None, 1.0)]
    assert all(c["failure"] is None for c in cells[0])
    assert cells[0] == cells[1]


def test_variance_bound_keeps_the_signal_the_universal_cut_drops():
    # Noise-free entries have variance 0, so a small sigma_sq lowers the cut
    # to (2 + eta) sqrt(n p_hat (1 - p_hat)) and the rank-3 signal clears it.
    grid = {sigma_sq: _cells("lowrank", {"r": 3, "noise": "none"}, trials=2,
                             sigma_sq=sigma_sq)
            for sigma_sq in (None, 1e-6)}
    for universal, bound in zip(grid[None], grid[1e-6]):
        assert universal.bracket == bound.bracket  # the same draws
        assert bound.mean_mse <= universal.mean_mse, (universal, bound)
    universal, bound = grid[None][-1], grid[1e-6][-1]
    assert bound.mean_retained_rank == 3
    assert universal.mean_mse >= 10.0 * bound.mean_mse, (universal, bound)
