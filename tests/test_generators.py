import hashlib
import math
import re

import numpy as np
import pytest

from usvt.errors import ValidationError
from usvt.estimator import SymmetryMode
from usvt.evaluation import spectral_concentration_trial
from usvt.generators import (
    GRAPHON_CATALOG,
    LATENT_CATALOG,
    TournamentModel,
    bernoulli_mask,
    bernoulli_round,
    gen_blockmodel,
    gen_bradley_terry,
    gen_correlation_matrix,
    gen_distance_matrix,
    gen_graphon,
    gen_latent_space,
    gen_low_rank,
    gen_low_rank_adversary,
    gen_minimax_instance,
    play_tournament,
    sample_upper,
    uniform_points,
)
from usvt.linalg import frobenius_norm, nuclear_norm, numerical_rank
from usvt.rng import make_rng, mix_seed

ASYM = SymmetryMode.ASYMMETRIC
SYM = SymmetryMode.SYMMETRIC
SKEW = SymmetryMode.SKEW_SYMMETRIC


class TestLowRank:
    def test_rank_one(self):
        assert numerical_rank(gen_low_rank(50, 50, 1, seed=1), 1e-8) == 1

    def test_full_rank(self):
        assert numerical_rank(gen_low_rank(8, 8, 8, seed=2), 1e-10) == 8

    def test_entries_bounded(self):
        a = gen_low_rank(20, 30, 3, seed=3)
        assert np.abs(a).max() <= 1.0

    def test_nuclear_norm_bound(self):
        for i in range(100):
            m, n, r = 15, 25, 1 + i % 5
            a = gen_low_rank(m, n, r, seed=mix_seed(50, i))
            assert nuclear_norm(a) <= math.sqrt(r * m * n) * (1 + 1e-8)
            assert numerical_rank(a, 1e-8) <= r

    def test_deterministic(self):
        assert np.array_equal(gen_low_rank(9, 7, 2, seed=4), gen_low_rank(9, 7, 2, seed=4))
        assert not np.array_equal(gen_low_rank(9, 7, 2, seed=4), gen_low_rank(9, 7, 2, seed=5))

    def test_bad_rank(self):
        with pytest.raises(ValidationError):
            gen_low_rank(4, 4, 0, seed=1)
        with pytest.raises(ValidationError):
            gen_low_rank(4, 4, 5, seed=1)


class TestBlockmodel:
    def test_single_block_constant(self):
        m, adj = gen_blockmodel(12, 1, [[0.42]], seed=6)
        assert np.all(m == 0.42)
        assert numerical_rank(m, 1e-10) == 1
        assert np.isin(adj, (0.0, 1.0)).all()

    def test_rank_at_most_k(self):
        probs = np.array([[0.9, 0.1, 0.3], [0.1, 0.8, 0.2], [0.3, 0.2, 0.7]])
        m, _ = gen_blockmodel(40, 3, probs, seed=7)
        assert numerical_rank(m, 1e-8) <= 3

    def test_mean_follows_drawn_blocks(self):
        # The diagonal entries are distinct, so m_ii names the block of i.
        probs = np.array([[0.1, 0.2, 0.4], [0.2, 0.3, 0.5], [0.4, 0.5, 0.6]])
        m, _ = gen_blockmodel(30, 3, probs, seed=8)
        z = np.searchsorted(np.diagonal(probs), np.diagonal(m))
        assert np.array_equal(np.diagonal(probs)[z], np.diagonal(m))
        assert np.array_equal(m, probs[np.ix_(z, z)])
        assert len(set(z.tolist())) == 3

    def test_empty_block_allowed(self):
        probs = np.diag([0.2, 0.5, 0.8])
        m, _ = gen_blockmodel(2, 3, probs, seed=9)  # two vertices: a block is empty
        assert numerical_rank(m, 1e-10) <= 2

    def test_adjacency_symmetric_and_mean_unbiased(self):
        # Each seed draws its own blocks, so compare against the mean of
        # the draws' own mean matrices, with the standard error of the sum.
        probs = np.array([[0.7, 0.3], [0.3, 0.6]])
        total = np.zeros((6, 6))
        variance = np.zeros((6, 6))
        trials = 10000
        for t in range(trials):
            m, adj = gen_blockmodel(6, 2, probs, seed=mix_seed(60, t))
            if t == 0:
                assert np.array_equal(adj, adj.T)
            total += adj - m
            variance += m * (1 - m)
        assert (np.abs(total) <= 4 * np.sqrt(variance) + 1e-12).all()

    def test_asymmetric_probs_rejected(self):
        with pytest.raises(ValidationError):
            gen_blockmodel(4, 2, [[0.5, 0.1], [0.2, 0.5]], seed=1)


class TestDistanceMatrix:
    def test_identical_points(self):
        assert np.array_equal(gen_distance_matrix([[1.0], [1.0]]), np.zeros((2, 2)))

    def test_collinear_points(self):
        got = gen_distance_matrix([[0.0], [1.0], [2.0]])
        expected = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_triangle_inequality(self, metric):
        pts = uniform_points(20, 3, seed=11)
        d = gen_distance_matrix(pts, metric)
        through = (d[:, :, None] + d[None, :, :]).min(axis=1)
        assert (d <= through + 1e-12).all()
        assert d.max() == 1.0
        assert np.all(np.diagonal(d) == 0.0)
        assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_exactly_symmetric_with_zero_diagonal(self, metric, dim):
        # x_i - x_j rounds to exactly -(x_j - x_i), every metric's transform
        # is even and both orders accumulate alike: no symmetrisation needed.
        d = gen_distance_matrix(uniform_points(60, dim, seed=mix_seed(13, dim)), metric)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diagonal(d), np.zeros(60))

    def test_one_dimensional_points_are_one_column(self):
        pts = uniform_points(30, 1, seed=5)
        assert np.array_equal(gen_distance_matrix(pts[:, 0]), gen_distance_matrix(pts))

    def test_unknown_metric(self):
        for metric in ["cosine", ["euclidean"], np.add]:
            with pytest.raises(ValidationError, match="unknown metric"):
                gen_distance_matrix([[0.0], [1.0]], metric=metric)


class TestLatentSpace:
    def test_gram_structure_rank(self):
        dim = 3
        m = gen_latent_space(25, dim, "dot", seed=13)
        assert np.abs(m - m.T).max() < 1e-15
        assert numerical_rank(m, 1e-8) <= dim

    def test_lipschitz_catalog_function(self):
        # |f(x, y) - f(x', y)| <= ||x - x'||_1 / dim for the L1 kernel.
        dim = 4
        f = LATENT_CATALOG["one_minus_l1"]
        rng_pts = uniform_points(30, dim, seed=14)
        for i in range(10):
            x, xp, y = rng_pts[3 * i], rng_pts[3 * i + 1], rng_pts[3 * i + 2]
            lhs = abs(float(f(x, y)) - float(f(xp, y)))
            assert lhs <= np.abs(x - xp).sum() / dim + 1e-12

    @pytest.mark.parametrize("name", sorted(LATENT_CATALOG))
    def test_catalog_values_in_range(self, name):
        for dim in (1, 2, 5):
            m = gen_latent_space(20, dim, name, seed=mix_seed(72, dim))
            assert m.shape == (20, 20)
            assert np.isfinite(m).all() and np.abs(m).max() <= 1.0

    def test_nonpositive_size_rejected(self):
        for n, dim in [(0, 2), (-1, 2), (5, 0)]:
            with pytest.raises(ValidationError, match="n and dim"):
                gen_latent_space(n, dim, "dot", seed=15)

    def test_unknown_name_rejected(self):
        for f in ["dott", ["dot"], LATENT_CATALOG["dot"]]:
            with pytest.raises(ValidationError, match="unknown latent function"):
                gen_latent_space(5, 1, f, seed=15)

    @staticmethod
    def refused_before_called(f, calls):
        # A function outside the catalog is refused, with the catalog's names
        # in the message, before it is evaluated even once.
        names = re.escape(str(sorted(LATENT_CATALOG)))
        with pytest.raises(ValidationError, match=f"unknown latent function .*{names}"):
            gen_latent_space(5, 2, f, seed=15)
        assert calls == []

    def test_out_of_range_rejected(self):
        # Values outside [-1, 1] can only come from outside the catalog,
        # whose entries stay in range (test_catalog_values_in_range).
        calls = []

        def too_large(x, y):
            calls.append(1)
            return 2.0 + (x * y).sum(axis=-1)

        self.refused_before_called(too_large, calls)

    def test_wrong_shape_rejected(self):
        # A wrongly shaped result can only come from outside the catalog,
        # whose entries return n x n (test_catalog_values_in_range).
        calls = []

        def flat(x, y):
            calls.append(1)
            return np.zeros(3)

        self.refused_before_called(flat, calls)


class TestCorrelation:
    def test_single_entry(self):
        assert np.array_equal(gen_correlation_matrix(1, seed=16), np.array([[1.0]]))

    def test_psd_and_unit_diagonal(self):
        m = gen_correlation_matrix(50, seed=17)
        assert float(np.linalg.eigvalsh(m).min()) >= -1e-8
        assert np.all(np.diagonal(m) == 1.0)
        assert m.min() >= -1.0 and m.max() <= 1.0


class TestGraphon:
    def test_mean_density(self):
        # E f(U, V) = 1/2 for f = (u + v) / 2.
        total = 0.0
        count = 0
        trials = 300
        for t in range(trials):
            _, adjacency = gen_graphon(30, "mean", seed=mix_seed(70, t))
            off = ~np.eye(30, dtype=bool)
            total += adjacency[off].sum()
            count += off.sum()
        assert total / count == pytest.approx(0.5, abs=0.02)

    def test_conditional_mean_matches_m(self):
        # For f(u, v) = u v the diagonal holds u_i^2, which recovers u.
        m, _ = gen_graphon(6, "product", seed=20)
        u = np.sqrt(np.diagonal(m))
        assert np.allclose(m, np.outer(u, u))

    @pytest.mark.parametrize("name", sorted(GRAPHON_CATALOG))
    def test_catalog_sample_well_formed(self, name):
        m, adjacency = gen_graphon(25, name, seed=mix_seed(71, len(name)))
        assert np.array_equal(m, m.T)
        assert m.min() >= 0.0 and m.max() <= 1.0
        assert np.array_equal(adjacency, adjacency.T)
        assert np.isin(adjacency, (0.0, 1.0)).all()

    def test_unknown_name_rejected(self):
        for f in ["means", ["mean"], GRAPHON_CATALOG["mean"]]:
            with pytest.raises(ValidationError, match="unknown graphon"):
                gen_graphon(4, f, seed=21)


class TestBradleyTerry:
    def test_equal_strengths(self):
        tm = gen_bradley_terry(2, seed=22, family="parametric", strengths=[1.0, 1.0])
        assert tm.p[0, 1] == pytest.approx(0.5)

    def test_three_to_one(self):
        tm = gen_bradley_terry(2, seed=23, family="parametric", strengths=[3.0, 1.0])
        assert tm.p[0, 1] == pytest.approx(0.75)
        assert tm.p[1, 0] == pytest.approx(0.25)

    def test_diagonal_zero_and_sum_one(self):
        tm = gen_bradley_terry(9, seed=24)
        off = ~np.eye(9, dtype=bool)
        assert np.all(np.diagonal(tm.p) == 0.0)
        assert np.all((tm.p + tm.p.T)[off] == 1.0)

    def test_monotonicity_many_draws(self):
        for t in range(200):
            n = 4 + t % 9
            if t % 2:
                tm = gen_bradley_terry(n, seed=mix_seed(80, t))
            else:
                strengths = np.linspace(0.5, 5.0, n) ** (1 + t % 3)
                tm = gen_bradley_terry(n, seed=mix_seed(80, t), family="parametric",
                                       strengths=strengths)
            ranked = tm.p[np.ix_(tm.strength_order, tm.strength_order)]
            for a in range(n - 1):
                b = a + 1
                cols = np.ones(n, dtype=bool)
                cols[[a, b]] = False
                assert (ranked[a, cols] >= ranked[b, cols] - 1e-12).all()

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            gen_bradley_terry(3, seed=1, family="elo")

    def test_probability_out_of_range_rejected(self):
        # p + p^T = 1 off the diagonal, yet 1.5 and -0.5 are no probabilities.
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            TournamentModel(p=[[0.0, 1.5], [-0.5, 0.0]], strength_order=[0, 1])


    @pytest.mark.parametrize("order", [[0, 0], [0.5, 1], [0, "x"], [[0], 1], 1],
                             ids=["repeated", "fractional", "not-a-number", "ragged", "scalar"])
    def test_strength_order_must_be_a_permutation(self, order):
        # 0.5 is no team index, though it truncates to one; "x" is not a
        # number; a ragged list is no array, and a scalar no sequence.
        with pytest.raises(ValidationError, match="permutation of team indices"):
            TournamentModel(p=[[0.0, 0.5], [0.5, 0.0]], strength_order=order)


class TestPlayTournament:
    def test_p_zero_only_diagonal(self):
        tm = gen_bradley_terry(6, seed=25)
        data = play_tournament(tm, p=0.0, games_per_pair=1, seed=26)
        assert np.array_equal(data.mask, np.eye(6, dtype=bool))
        assert data.mode is SKEW

    def test_certain_win(self):
        # Nonparametric with n=2: the stronger team wins with probability 1.
        tm = gen_bradley_terry(2, seed=27)
        i = tm.strength_order[0]
        j = tm.strength_order[1]
        assert tm.p[i, j] == 1.0
        data = play_tournament(tm, p=1.0, games_per_pair=5, seed=28)
        assert data.values[i, j] == 1.0
        assert data.values[j, i] == 0.0

    def test_win_fraction_concentrates(self):
        tm = gen_bradley_terry(2, seed=29, family="parametric", strengths=[7.0, 3.0])
        data = play_tournament(tm, p=1.0, games_per_pair=10000, seed=30)
        assert data.values[0, 1] == pytest.approx(0.7, abs=0.02)

    def test_observed_pair_sums_to_one(self):
        tm = gen_bradley_terry(10, seed=31)
        data = play_tournament(tm, p=0.6, games_per_pair=3, seed=32)
        iu = np.triu_indices(10, 1)
        played = data.mask[iu]
        sums = (data.values + data.values.T)[iu][played]
        assert np.all(sums == 1.0)
        assert np.all(np.diagonal(data.values) == 0.0)
        assert np.all(np.diagonal(data.mask))

    def test_masks_nested_across_p(self):
        tm = gen_bradley_terry(12, seed=33)
        lo = play_tournament(tm, p=0.3, games_per_pair=1, seed=34)
        hi = play_tournament(tm, p=0.9, games_per_pair=1, seed=34)
        assert np.all(hi.mask[lo.mask])  # observed at 0.3 implies observed at 0.9
        both = lo.mask & hi.mask & ~np.eye(12, dtype=bool)
        assert np.array_equal(lo.values[both], hi.values[both])


class TestMinimax:
    def test_zero_budget(self):
        out = gen_minimax_instance(10, 12, 0.0, 0.4, seed=35)
        assert np.array_equal(out, np.zeros((10, 12)))

    # The three regimes and both boundaries. With m = 8, n = 16 and p = 0.25,
    # theta = 0.25 gives m theta sqrt(p) = 1 and theta = 0.5 gives
    # theta = sqrt(p), both exactly. The p = 0.5 cases meet them in inexact
    # arithmetic. At p = 0.05, theta = 0.1 copies one row of amplitude < 1
    # to all m rows, and theta = 0.9 copies int(m p) = 0 rows.
    @pytest.mark.parametrize("theta, p", [
        (0.125, 0.25), (0.25, 0.25), (0.375, 0.25), (0.5, 0.25), (0.75, 0.25), (1.0, 0.25),
        (0.125, 0.5), (0.25, 0.5), (math.sqrt(0.5), 0.5), (0.9, 0.5),
        (0.1, 0.05), (0.9, 0.05),
    ])
    def test_bounded_entries_within_budget(self, theta, p):
        m, n = 8, 16
        delta = theta * m * math.sqrt(n)
        out = gen_minimax_instance(m, n, delta, p, seed=mix_seed(39, round(theta * 1000), round(p * 100)))
        assert out.shape == (m, n)
        assert np.abs(out).max() <= 1.0
        assert nuclear_norm(out) <= delta * (1.0 + 1e-8) + 1e-12

    def test_block_copy_case(self):
        m, n, p = 40, 50, 0.25
        theta = 0.4  # theta <= sqrt(p) = 0.5 and m * theta * sqrt(p) = 8 >= 1
        delta = theta * m * math.sqrt(n)
        out = gen_minimax_instance(m, n, delta, p, seed=36)
        k = int(m * theta * math.sqrt(p))
        assert numerical_rank(out, 1e-8) <= k
        assert nuclear_norm(out) <= delta * (1 + 1e-8)
        # rows i and i + k of the copied block agree
        assert np.array_equal(out[0], out[k])

    def test_rank_one_case(self):
        m, n, p = 12, 15, 0.3
        theta = 0.01  # m * theta * sqrt(p) < 1
        delta = theta * m * math.sqrt(n)
        out = gen_minimax_instance(m, n, delta, p, seed=37)
        assert numerical_rank(out, 1e-8) <= 1
        amp = m * theta * math.sqrt(p)
        assert np.abs(out).max() <= amp + 1e-15
        assert nuclear_norm(out) <= delta * (1 + 1e-8)

    def test_large_theta_case(self):
        m, n, p = 30, 30, 0.2
        theta = 0.9  # theta > sqrt(p)
        delta = theta * m * math.sqrt(n)
        out = gen_minimax_instance(m, n, delta, p, seed=38)
        assert numerical_rank(out, 1e-8) <= int(m * p)
        assert nuclear_norm(out) <= delta * (1 + 1e-8)

    def test_p_range(self):
        with pytest.raises(ValidationError):
            gen_minimax_instance(4, 4, 1.0, 1.0, seed=1)


class TestLowRankAdversary:
    def test_full_rank_no_copy(self):
        a = gen_low_rank_adversary(6, 8, 6, seed=39)
        assert numerical_rank(a, 1e-8) == 6

    def test_rank_one_all_rows_identical(self):
        a = gen_low_rank_adversary(7, 5, 1, seed=40)
        assert np.array_equal(a, np.tile(a[0], (7, 1)))

    def test_rank_bound(self):
        for r in (1, 2, 3, 5):
            a = gen_low_rank_adversary(11, 9, r, seed=mix_seed(41, r))
            assert numerical_rank(a, 1e-8) <= r
            assert np.abs(a).max() <= 1.0


class TestBernoulliMask:
    def test_p_one(self):
        assert bernoulli_mask(5, 7, 1.0, ASYM, seed=42).all()

    def test_p_zero(self):
        assert not bernoulli_mask(5, 7, 0.0, ASYM, seed=43).any()

    def test_fraction(self):
        mask = bernoulli_mask(100, 100, 0.3, ASYM, seed=44)
        assert mask.mean() == pytest.approx(0.3, abs=0.03)

    def test_symmetric_modes(self):
        for mode in (SYM, SKEW):
            mask = bernoulli_mask(30, 30, 0.5, mode, seed=45)
            assert np.array_equal(mask, mask.T)
        with pytest.raises(ValidationError):
            bernoulli_mask(3, 4, 0.5, SYM, seed=46)

    def test_nested_across_p(self):
        lo = bernoulli_mask(40, 40, 0.2, ASYM, seed=47)
        hi = bernoulli_mask(40, 40, 0.8, ASYM, seed=47)
        assert np.all(hi[lo])


class TestBernoulliRound:
    def test_extremes(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(bernoulli_round(m, ASYM, seed=48), m)

    def test_unbiased(self):
        m = np.array([[0.1, 0.5], [0.9, 0.3]])
        total = np.zeros_like(m)
        trials = 10000
        for t in range(trials):
            total += bernoulli_round(m, ASYM, seed=mix_seed(90, t))
        assert np.abs(total / trials - m).max() <= 0.02

    def test_symmetric_mirroring(self):
        m = np.full((10, 10), 0.5)
        out = bernoulli_round(m, SYM, seed=49)
        assert np.array_equal(out, out.T)

    def test_skew_mirroring(self):
        m = np.full((10, 10), 0.5)
        np.fill_diagonal(m, 0.0)
        out = bernoulli_round(m, SKEW, seed=50)
        off = np.triu_indices(10, 1)
        assert np.all((out + out.T)[off] == 1.0)

    def test_range_enforced(self):
        with pytest.raises(ValidationError):
            bernoulli_round(np.array([[1.5]]), ASYM, seed=51)


def _sample_upper_reference(n, draw, *, diagonal=True, below="mirror", dtype=float):
    """The construction ``sample_upper`` replaced: the lower triangle copied
    from the upper through a second mask."""
    upper = ~np.tri(n, k=-1 if diagonal else 0, dtype=bool)
    out = np.zeros((n, n), dtype=dtype)
    out[upper] = draw(upper, np.count_nonzero(upper))
    fill = {"mirror": lambda x: x, "complement": lambda x: 1.0 - x}[below]
    np.copyto(out, fill(out.T), where=np.tri(n, k=-1, dtype=bool))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("below, dtype", [("mirror", float), ("complement", float),
                                          ("mirror", bool)])
def test_sample_upper_matches_reference(n, diagonal, below, dtype):
    def draw(upper, size):  # the same stream on each call
        x = make_rng(n).random(size)
        return x < 0.5 if dtype is bool else x

    kwargs = dict(diagonal=diagonal, below=below, dtype=dtype)
    got = sample_upper(n, draw, **kwargs)
    want = _sample_upper_reference(n, draw, **kwargs)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_all_generators_deterministic():
    cases = [
        lambda s: gen_low_rank(6, 7, 2, s),
        lambda s: gen_blockmodel(8, 2, np.full((2, 2), 0.5), s)[1],
        lambda s: gen_latent_space(6, 2, "dot", s),
        lambda s: gen_correlation_matrix(6, s),
        lambda s: gen_graphon(6, "mean", s)[1],
        lambda s: gen_bradley_terry(6, s).p,
        lambda s: gen_minimax_instance(6, 6, 3.0, 0.4, s),
        lambda s: gen_low_rank_adversary(6, 6, 2, s),
        lambda s: bernoulli_mask(6, 6, 0.5, ASYM, s).astype(float),
        lambda s: bernoulli_round(np.full((6, 6), 0.5), ASYM, s),
    ]
    for idx, gen in enumerate(cases):
        a = gen(1000 + idx)
        b = gen(1000 + idx)
        assert np.array_equal(a, b), f"generator {idx} not deterministic"


def _digest(*arrays):
    """sha256 over the dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _bt_fields(tm):
    return tm.p, tm.strength_order


def _played(p, seed):
    data = play_tournament(gen_bradley_terry(13, seed=seed), p, 3, seed=seed + 1)
    return data.values, data.mask


def _minimax(theta, p, seed):
    return (gen_minimax_instance(13, 11, theta * 13 * math.sqrt(11), p, seed),)


_PROBS = np.array([[0.9, 0.2, 0.4], [0.2, 0.7, 0.1], [0.4, 0.1, 0.6]])
_UNIT = make_rng(7).random((13, 13))

#: Outputs at fixed seeds and their digests. The draws involve no BLAS, so
#: any change to a digest means the random stream itself changed.
_PINNED = {
    "blockmodel": (
        lambda: gen_blockmodel(13, 3, _PROBS, seed=101),
        "1e90d725cd45ff6b3551cde8c8b12e863130548d6914bde1f43ee54b7606df40",
    ),
    "correlation": (
        lambda: (gen_correlation_matrix(13, seed=116),),
        "af5e46849067e0ea0df430f3b2964eae9c16a6cbf90d305ac19f4af382c6c0e6",
    ),
    "graphon": (
        lambda: gen_graphon(13, "product", seed=102),
        "1951de43a1df9e61cd7d8634ff1a35f7dce6edddd53dfb83a5d08a5ec0192704",
    ),
    "bradley_terry": (
        lambda: _bt_fields(gen_bradley_terry(13, seed=103)),
        "bd184fbaf73298549fde9c60f28d02659b716ae58c8c94981c1b596a0421791e",
    ),
    "bradley_terry_parametric": (
        lambda: _bt_fields(gen_bradley_terry(13, seed=104, family="parametric",
                                             strengths=np.linspace(0.5, 4.0, 13))),
        "32c5bf786f8ad39fe2507681b4674f3ad176c9e8d717af4e399065f659b80a07",
    ),
    "play_tournament": (
        lambda: _played(0.6, 105),
        "76d6afce3154ce4a6cee23d6ea2569b67f2317fdf2afe0949d40076c1c6ae0d8",
    ),
    "mask_asym": (
        lambda: (bernoulli_mask(9, 13, 0.4, ASYM, seed=106),),
        "cfca8065839dfe0e6506fed19d1ed742ef5a8c819506421e1d8a5aa7268d1128",
    ),
    "mask_sym": (
        lambda: (bernoulli_mask(13, 13, 0.4, SYM, seed=107),),
        "08090205e354c3da35c162f1b242b411e89c5799155709945b53d469f1f39fce",
    ),
    "mask_skew": (
        lambda: (bernoulli_mask(13, 13, 0.4, SKEW, seed=108),),
        "f4047e9eea2f695c78840574bc3070fe7d5198617161331e0604e9266ca18707",
    ),
    "round_asym": (
        lambda: (bernoulli_round(_UNIT[:9], ASYM, seed=109),),
        "653f9b8fcdb48e47e2299c3ee56f3bd8e0dfdd3be1fcfece8dac37c8c1e59add",
    ),
    "round_sym": (
        lambda: (bernoulli_round(_UNIT, SYM, seed=110),),
        "a3a52c9a32bbf5d305daeccd1cbbfc03e36d5284ad5563fd43dd7dd4777e8f34",
    ),
    "round_skew": (
        lambda: (bernoulli_round(_UNIT, SKEW, seed=111),),
        "4efb9106c251cc8d43dac14dd249dba22306e58cfe7ad77f7b1b3bb8b12553da",
    ),
    "low_rank_adversary": (
        lambda: (gen_low_rank_adversary(13, 11, 3, seed=112),),
        "041204b92e21e2fc13d5c934c64f05a824b15697a6ea509a32cd986937b48c2e",
    ),
    # The three regimes of gen_minimax_instance: k = m*theta*sqrt(p) >= 1
    # rows copied; a single row of amplitude < 1 copied up to m times; and
    # theta > sqrt(p), m*p rows copied.
    "minimax_block_copies": (
        lambda: _minimax(0.4, 0.3, 113),
        "499db4fd94b38824f112a092fa806c4d7f5430cd9fb1e3813478d3d41eaca6c1",
    ),
    "minimax_rank_one": (
        lambda: _minimax(0.1, 0.05, 114),
        "481b83c732116542a01b727d04b661c2112d203085b79f64fe26f8b5ff32598c",
    ),
    "minimax_dense_rows": (
        lambda: _minimax(0.8, 0.3, 115),
        "e21884680748ec85e42def8f04f934edf3a51500c5f5d6875a3c70638ef68878",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_random_stream_pinned(name):
    make, expected = _PINNED[name]
    assert _digest(*make()) == expected


def test_concentration_trial_stream_pinned():
    # eta < 0 puts the bound inside the spread of the norms at n = 20, so
    # the fraction depends on every draw rather than saturating at 0 or 1.
    assert spectral_concentration_trial(20, "uniform", -0.2, 8, seed=5) == 0.25


@pytest.mark.parametrize("metric, expected", [
    ("manhattan", "66d29dddfa2dd8ff460e586f0ed905e8266e437d0b4c49663f12f86a1ee4cf06"),
    ("chebyshev", "e55fe9fdfa9d94475fd787ed4a813b025e865eea7fd4752764bb8aa78264526b"),
])
def test_distance_matrix_bytes_pinned(metric, expected):
    # Euclidean distances, the harness default, are pinned through the
    # distance report digest of test_report_bytes_pinned in tests/test_cli.py.
    assert _digest(gen_distance_matrix(uniform_points(13, 3, seed=117), metric)) == expected


_TOURNAMENT = gen_bradley_terry(3, seed=1)
_POINTS_SHAPE = "points must be a nonempty list of equal-length vectors"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: TournamentModel(p=np.zeros((2, 3)), strength_order=[0, 1]),
                 "tournament matrix must be square", id="tournament-not-square"),
    pytest.param(lambda: TournamentModel(p=np.full((2, 2), 0.5), strength_order=[0, 1]),
                 "tournament diagonal must be zero", id="tournament-diagonal"),
    pytest.param(lambda: TournamentModel(p=[[0.0, 0.5], [0.4, 0.0]], strength_order=[0, 1]),
                 "p_ji = 1 - p_ij", id="tournament-complement"),
    pytest.param(lambda: gen_blockmodel(4, 2, np.full((3, 3), 0.5), 1),
                 "block_probs must be 2x2", id="blockmodel-shape"),
    pytest.param(lambda: gen_blockmodel(4, 2, [[0.5, 1.5], [1.5, 0.5]], 1),
                 r"block_probs must lie in \[0, 1\]", id="blockmodel-range"),
    pytest.param(lambda: gen_distance_matrix([]), _POINTS_SHAPE, id="distance-empty"),
    pytest.param(lambda: gen_distance_matrix([[1.0, 2.0], [3.0]]), _POINTS_SHAPE,
                 id="distance-ragged"),
    pytest.param(lambda: gen_distance_matrix([["a"], ["b"]]), _POINTS_SHAPE,
                 id="distance-not-numbers"),
    pytest.param(lambda: gen_distance_matrix([[0.0], [math.inf]]), "points must be finite",
                 id="distance-infinite"),
    pytest.param(lambda: gen_distance_matrix([[1e308], [-1e308]]), "diameter overflows",
                 id="distance-overflow"),
    pytest.param(lambda: gen_distance_matrix([[1e200], [-1e200]]), "diameter overflows",
                 id="distance-square-overflow"),
    pytest.param(lambda: uniform_points(0, 1, 1), "n and dim must be positive",
                 id="uniform-points"),
    pytest.param(lambda: gen_correlation_matrix(0, 1), "n must be positive", id="correlation"),
    pytest.param(lambda: gen_graphon(0, "mean", 1), "n must be positive", id="graphon"),
    pytest.param(lambda: gen_bradley_terry(0, 1), "n must be positive", id="bradley-terry-n"),
    pytest.param(lambda: gen_bradley_terry(2, 1, "parametric", ["a", "b"]),
                 "strengths must be n positive finite numbers", id="strengths-not-numbers"),
    pytest.param(lambda: gen_bradley_terry(2, 1, "parametric", [1.0, -1.0]),
                 "strengths must be n positive finite numbers", id="strengths-negative"),
    pytest.param(lambda: gen_bradley_terry(2, 1, strengths=[1.0, 2.0]),
                 "strengths only apply to the parametric family", id="strengths-unused"),
    pytest.param(lambda: play_tournament(_TOURNAMENT, 1.5, 1, 1), r"p must lie in \[0, 1\]",
                 id="tournament-p"),
    pytest.param(lambda: play_tournament(_TOURNAMENT, 0.5, 0, 1),
                 "games_per_pair must be >= 1", id="games-per-pair"),
    pytest.param(lambda: gen_minimax_instance(0, 3, 0.0, 0.5, 1), "m and n must be positive",
                 id="minimax-shape"),
    pytest.param(lambda: gen_minimax_instance(3, 3, -1.0, 0.5, 1),
                 r"delta must lie in \[0, m\*sqrt\(n\)\]", id="minimax-delta"),
    pytest.param(lambda: gen_low_rank_adversary(3, 3, 4, 1), "need 1 <= r <= m",
                 id="adversary-rank"),
    pytest.param(lambda: bernoulli_mask(2, 2, -0.1, ASYM, 1), r"p must lie in \[0, 1\]",
                 id="mask-p"),
    pytest.param(lambda: bernoulli_mask(0, 2, 0.5, ASYM, 1), "rows and cols must be positive",
                 id="mask-shape"),
    pytest.param(lambda: bernoulli_round(np.full((2, 3), 0.5), SYM, 1),
                 "sym mode requires a square matrix", id="round-shape"),
])
def test_guard_rejects_bad_value(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
