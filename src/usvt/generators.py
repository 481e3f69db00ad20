"""Seeded generators for parameter matrices, data matrices and masks.

Each generator is a pure function of its parameters and a 64-bit seed:
same inputs, bit-identical output (see :mod:`usvt.rng`). Parameter
matrices have entries in [-1, 1] (or [0, 1] for probability-valued
models); data generators are entrywise unbiased for their parameter
matrix. Families covered: low-rank, stochastic blockmodels, distance
matrices, latent-position models, correlation matrices, graphons,
pairwise-comparison tournaments, and the adversarial block-copy
constructions that realize the minimax lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimator import MaskedMatrix, SymmetryMode, check_mode
from .linalg import as_matrix
from .rng import make_rng

__all__ = [
    "TournamentModel",
    "DISTANCE_METRICS",
    "GRAPHON_CATALOG",
    "LATENT_CATALOG",
    "gen_low_rank",
    "gen_blockmodel",
    "gen_distance_matrix",
    "uniform_points",
    "gen_latent_space",
    "gen_correlation_matrix",
    "gen_graphon",
    "gen_bradley_terry",
    "play_tournament",
    "gen_minimax_instance",
    "gen_low_rank_adversary",
    "bernoulli_mask",
    "bernoulli_round",
]

#: Named symmetric functions [0,1]^2 -> [0,1] for graphon sampling.
GRAPHON_CATALOG = {
    "mean": lambda u, v: (u + v) / 2.0,
    "product": lambda u, v: u * v,
    "min": lambda u, v: np.minimum(u, v),
    "gaussian": lambda u, v: np.exp(-4.0 * (u - v) ** 2),
}

#: Named functions on pairs of latent vectors, mapping into [-1, 1].
#: All reduce over the last axis so they broadcast across point pairs.
LATENT_CATALOG = {
    "dot": lambda x, y: np.mean(x * y, axis=-1),
    "one_minus_l1": lambda x, y: 1.0 - np.mean(np.abs(x - y), axis=-1),
    "cosine": lambda x, y: np.cos(np.pi * (np.mean(x, axis=-1) - np.mean(y, axis=-1))),
}

#: Named metrics on points, as ufuncs ``(combine, transform, finish)``: the
#: distance is ``finish`` of the ``combine``-reduction of ``transform`` of
#: the coordinate differences.
DISTANCE_METRICS = {
    "euclidean": (np.add, np.square, np.sqrt),
    "manhattan": (np.add, np.abs, np.positive),
    "chebyshev": (np.maximum, np.abs, np.positive),
}


def _named(table: dict, name, what: str):
    """``table[name]``, or a :class:`ValidationError` that lists the names
    in ``table`` when ``name`` is not one of them."""
    if not isinstance(name, str) or name not in table:
        raise ValidationError(f"unknown {what} {name!r}; choose from {sorted(table)}")
    return table[name]


@dataclass(frozen=True)
class TournamentModel:
    """Win-probability matrix and strength ordering (strongest team first).
    The constructor checks that ``p`` is square with entries in [0, 1], a
    zero diagonal and ``p_ji = 1 - p_ij`` off it, and that ``strength_order``
    is a permutation of the teams. That each row dominates the rows of weaker
    teams is not checked here; ``usvt check --suite generators`` certifies
    it on models drawn by :func:`gen_bradley_terry`."""

    p: np.ndarray
    strength_order: np.ndarray

    def __post_init__(self):
        p = as_matrix(self.p)
        n = p.shape[0]
        if p.shape[0] != p.shape[1]:
            raise ValidationError("tournament matrix must be square")
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValidationError("tournament win probabilities must lie in [0, 1]")
        if np.abs(np.diagonal(p)).max(initial=0.0) != 0.0:
            raise ValidationError("tournament diagonal must be zero")
        off = ~np.eye(n, dtype=bool)
        if n > 1 and not np.allclose((p + p.T)[off], 1.0, rtol=0.0, atol=1e-12):
            raise ValidationError("tournament requires p_ji = 1 - p_ij off the diagonal")
        try:
            order = np.asarray(self.strength_order)
        except ValueError:  # ragged: rejected below
            order = np.empty(0)
        if (order.shape != (n,) or order.dtype.kind not in "iu"
                or sorted(order.tolist()) != list(range(n))):
            raise ValidationError("strength_order must be a permutation of team indices")
        object.__setattr__(self, "strength_order", order.astype(int))


def gen_low_rank(m: int, n: int, r: int, seed: int) -> np.ndarray:
    """Sum of ``r`` random outer products, rescaled so max |entry| = 1.

    Rank is at most ``r`` (almost surely exactly ``r``), and the nuclear
    norm is automatically at most ``sqrt(r * m * n)``.
    """
    if not 1 <= r <= min(m, n):
        raise ValidationError(f"need 1 <= r <= min(m, n), got r={r}")
    rng = make_rng(seed)
    u = rng.uniform(-1.0, 1.0, (m, r))
    v = rng.uniform(-1.0, 1.0, (n, r))
    out = u @ v.T
    peak = np.abs(out).max()
    if peak > 0.0:
        out = out / peak
    return out


#: How :func:`sample_upper` fills entry (j, i) from the value x at (i, j).
_BELOW = {
    "mirror": lambda x: x,
    "complement": lambda x: 1.0 - x,
}


def sample_upper(n: int, draw, *, diagonal: bool = True, below: str = "mirror", dtype=float):
    """n x n matrix built from its upper triangle.

    ``draw(upper, size)`` returns the ``size`` entries at ``upper``, the
    Boolean n x n mask of the positions on and above the diagonal (strictly
    above when ``diagonal`` is False), in row-major order: the order of
    ``x[upper]``, and the order in which a random ``draw`` consumes its
    stream. Each entry (j, i) below the diagonal is filled from x at (i, j)
    by ``below``: "mirror" (x) or "complement" (1 - x).
    Diagonal entries keep their drawn value, or are zero when not drawn.
    """
    upper = ~np.tri(n, k=-1 if diagonal else 0, dtype=bool)
    out = np.zeros((n, n), dtype=dtype)
    x = draw(upper, np.count_nonzero(upper))
    out.T[upper] = _BELOW[below](x)
    out[upper] = x  # also restores a drawn diagonal
    return out


def gen_blockmodel(n, k, block_probs, seed):
    """Stochastic blockmodel mean matrix and one sampled adjacency matrix.

    ``block_probs`` is a symmetric k x k matrix of edge probabilities.
    Each vertex's block ``z_i`` is drawn uniformly from 0..k-1 (empty
    blocks are fine, the rank just drops). The mean matrix
    ``m_ij = block_probs[z_i, z_j]`` has rank at most k. Adjacency
    entries on and above the diagonal are independent Bernoulli(m_ij),
    mirrored below; self-pairs included.
    """
    b = as_matrix(block_probs)
    if b.shape != (k, k):
        raise ValidationError(f"block_probs must be {k}x{k}, got {b.shape}")
    if not np.array_equal(b, b.T):
        raise ValidationError("block_probs must be symmetric")
    if b.min() < 0.0 or b.max() > 1.0:
        raise ValidationError("block_probs must lie in [0, 1]")
    rng = make_rng(seed)
    z = rng.integers(0, k, size=n)
    m = b[np.ix_(z, z)]
    return m, sample_upper(n, lambda upper, size: rng.random(size) < m[upper])


def gen_distance_matrix(points, metric: str = "euclidean") -> np.ndarray:
    """Pairwise distances normalized by the realized diameter.

    The max entry is exactly 1 (all-zero if every point coincides), the
    diagonal is zero and the triangle inequality is preserved. ``metric``
    names one of :data:`DISTANCE_METRICS`.
    """
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers: rejected below
        pts = np.empty((0, 0))
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError("points must be a nonempty list of equal-length vectors")
    if not np.isfinite(pts).all():
        raise ValidationError("points must be finite")
    combine, transform, finish = _named(DISTANCE_METRICS, metric, "metric")
    n, dim = pts.shape
    dist = np.zeros((n, n))
    with np.errstate(over="ignore"):  # an overflow makes the diameter inf: refused below
        for d in range(dim):  # x_i - x_j is -(x_j - x_i), each transform even: dist == dist.T
            combine(dist, transform(pts[:, d, None] - pts[None, :, d]), out=dist)
        finish(dist, out=dist)
    diameter = dist.max()
    if not np.isfinite(diameter):
        raise ValidationError("points are too far apart: their diameter overflows")
    if diameter > 0.0:
        dist = dist / diameter
    return dist


def uniform_points(n: int, dim: int, seed: int) -> np.ndarray:
    """``n`` points drawn uniformly from the unit cube [0, 1]^dim."""
    if n < 1 or dim < 1:
        raise ValidationError("n and dim must be positive")
    return make_rng(seed).random((n, dim))


def gen_latent_space(n: int, dim: int, f: str, seed: int) -> np.ndarray:
    """Latent-position mean matrix ``m_ij = f(beta_i, beta_j)``.

    Positions ``beta_i`` are uniform on [0, 1]^dim; ``f`` names one of the
    functions of :data:`LATENT_CATALOG`, which map into [-1, 1] and need
    not be symmetric. Returns m.
    """
    func = _named(LATENT_CATALOG, f, "latent function")
    if n < 1 or dim < 1:
        raise ValidationError("n and dim must be positive")
    betas = make_rng(seed).random((n, dim))
    return func(betas[:, None], betas[None, :])


def gen_correlation_matrix(n: int, seed: int) -> np.ndarray:
    """Random correlation matrix ``m_ij = u_i u_j`` (i != j), unit diagonal,
    with ``u_i`` uniform on [0, 1].

    Equals ``u u^T + diag(1 - u_i^2)``, hence positive semidefinite.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    u = make_rng(seed).random(n)
    m = np.outer(u, u)
    np.fill_diagonal(m, 1.0)
    return m


def gen_graphon(n: int, f: str, seed: int):
    """Sample a random graph from a symmetric function [0,1]^2 -> [0,1],
    the one that ``f`` names in :data:`GRAPHON_CATALOG`.

    Draws latent uniforms ``u``, evaluates ``m_ij = f(u_i, u_j)`` (upper
    triangle, mirrored, so the result is exactly symmetric) and flips one
    coin per pair on and above the diagonal. Returns ``(m, adjacency)``:
    the mean matrix and a symmetric 0/1 matrix with
    ``E[adjacency | u] = m``, self-pairs included.
    """
    func = _named(GRAPHON_CATALOG, f, "graphon")
    if n < 1:
        raise ValidationError("n must be positive")
    rng = make_rng(seed)
    u = rng.random(n)
    full = func(u[:, None], u[None, :])
    m = sample_upper(n, lambda upper, size: full[upper])
    return m, sample_upper(n, lambda upper, size: rng.random(size) < m[upper])


def gen_bradley_terry(
    n: int,
    seed: int,
    family: str = "nonparametric_monotone",
    strengths=None,
) -> TournamentModel:
    """Pairwise win-probability model.

    ``parametric``: ``p_ij = a_i / (a_i + a_j)`` from caller-supplied
    positive strengths. ``nonparametric_monotone``: teams get a random
    strength order; with normalized strengths ``s`` (strongest = 1,
    weakest = 0), ``p_ij = 1/2 + (s_i - s_j) / 2`` — the simplest family
    in which a stronger team beats any opponent at least as often as a
    weaker one does.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    if family == "parametric":
        try:
            a = np.asarray(strengths, dtype=float)
        except (TypeError, ValueError):
            a = None
        if a is None or a.shape != (n,) or (a <= 0).any() or not np.isfinite(a).all():
            raise ValidationError("strengths must be n positive finite numbers")
        raw = a[:, None] / (a[:, None] + a[None, :])
        order = np.argsort(-a, kind="stable")
    elif family == "nonparametric_monotone":
        if strengths is not None:
            raise ValidationError("strengths only apply to the parametric family")
        rng = make_rng(seed)
        order = rng.permutation(n)
        pos = np.empty(n, dtype=int)
        pos[order] = np.arange(n)
        s = 1.0 - pos / max(n - 1, 1)
        raw = 0.5 + (s[:, None] - s[None, :]) / 2.0
    else:
        raise ValidationError(f"unknown tournament family {family!r}")
    # Build the lower triangle as exactly 1 - upper so p + p^T == 1 holds
    # entry for entry.
    p = sample_upper(n, lambda upper, size: raw[upper], diagonal=False, below="complement")
    return TournamentModel(p=p, strength_order=order)


def play_tournament(model: TournamentModel, p: float, games_per_pair: int, seed: int) -> MaskedMatrix:
    """Play a (partial) round-robin and record win fractions.

    Each unordered pair meets with probability ``p`` independently; when it
    does, the pair plays ``games_per_pair`` independent games and the
    observed entry (i, j) is the fraction of games i won, with
    ``x_ji = 1 - x_ij``. The diagonal is observed as zero. Returns a
    skew-symmetric-mode :class:`MaskedMatrix`.

    The analysis behind the n^{-1/4} error rate assumes one game per played
    pair; larger ``games_per_pair`` is an extension knob.
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if games_per_pair < 1:
        raise ValidationError("games_per_pair must be >= 1")
    prob = model.p
    n = prob.shape[0]
    rng = make_rng(seed)
    mask = sample_upper(n, lambda upper, size: rng.random(size) < p, diagonal=False, dtype=bool)
    # Draw outcomes for every pair (played or not) so the stream is the
    # same at every p: masks at different p are then nested couplings.
    values = sample_upper(
        n, lambda upper, size: rng.binomial(games_per_pair, prob[upper]) / games_per_pair,
        diagonal=False, below="complement")
    values *= mask  # unplayed pairs read 0 on both sides
    np.fill_diagonal(mask, True)
    return MaskedMatrix(values=values, mask=mask, mode=SymmetryMode.SKEW_SYMMETRIC)


def gen_minimax_instance(m: int, n: int, delta: float, p: float, seed: int) -> np.ndarray:
    """Worst-case m x n matrix with entries in [-1, 1] and nuclear norm at
    most ``delta``, for observation probability ``p``.

    Writing ``theta = delta / (m sqrt(n))``, picks among three block-copy
    constructions (random rows copied floor(1/p) times) according to
    whether ``theta <= sqrt(p)`` and ``m * theta * sqrt(p) >= 1``; these
    are the regimes in which any estimator must pay
    ``min(delta / (m sqrt(n p)), delta^2 / (m n), 1)`` per entry.
    """
    if m < 1 or n < 1:
        raise ValidationError("m and n must be positive")
    if not (0.0 < p < 1.0):
        raise ValidationError(f"p must lie in (0, 1), got {p}")
    if not (0.0 <= delta <= m * math.sqrt(n) * (1.0 + 1e-12)):
        raise ValidationError(f"delta must lie in [0, m*sqrt(n)], got {delta}")
    theta = delta / (m * math.sqrt(n))
    rng = make_rng(seed)
    out = np.zeros((m, n))
    copies = int(1.0 / p)
    if theta > 0.0:
        if theta <= math.sqrt(p):
            k = int(m * theta * math.sqrt(p))
            if k >= 1:
                block = rng.uniform(-1.0, 1.0, (k, n))
            else:
                amp = m * theta * math.sqrt(p)
                block = rng.uniform(-amp, amp, (1, n))
                k = 1
        else:
            k = int(m * p)
            block = rng.uniform(-1.0, 1.0, (k, n)) if k >= 1 else np.zeros((0, n))
        if k >= 1:
            # floor-arithmetic guarantees k * copies <= m except in the
            # rank-one regime at very small p; never overflow the rows.
            copies = min(copies, m // k)
            out[:copies * k] = np.tile(block, (copies, 1))
    return out


def gen_low_rank_adversary(m: int, n: int, r: int, seed: int) -> np.ndarray:
    """Rank-<= r matrix of ``r`` random Uniform[-1,1] rows copied
    floor(m/r) times (remaining rows zero); the redundancy is what makes
    the ``(1-p)^{floor(m/r)}`` estimation floor unavoidable."""
    if not 1 <= r <= m:
        raise ValidationError(f"need 1 <= r <= m, got r={r}")
    rng = make_rng(seed)
    block = rng.uniform(-1.0, 1.0, (r, n))
    out = np.zeros((m, n))
    out[:m // r * r] = np.tile(block, (m // r, 1))
    return out


def bernoulli_mask(rows: int, cols: int, p: float, mode: SymmetryMode, seed: int) -> np.ndarray:
    """Boolean observation mask, Bernoulli(p) per independent unit.

    In the symmetric and skew-symmetric modes the units are the entries on
    and above the diagonal, mirrored below (square shape required).
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0, 1], got {p}")
    if rows < 1 or cols < 1:
        raise ValidationError("rows and cols must be positive")
    check_mode(mode)
    rng = make_rng(seed)
    if mode is SymmetryMode.ASYMMETRIC:
        return rng.random((rows, cols)) < p
    if rows != cols:
        raise ValidationError(f"{mode.value} mode requires a square mask")
    return sample_upper(rows, lambda upper, size: rng.random(size) < p, dtype=bool)


def bernoulli_round(m, mode: SymmetryMode, seed: int) -> np.ndarray:
    """Round a [0, 1]-valued matrix to {0, 1} with expectation preserved.

    Symmetric mode flips one coin per on-and-above-diagonal entry and
    mirrors it; skew-symmetric mode mirrors ``1 - x`` (win/loss data),
    which preserves expectations when ``m_ji = 1 - m_ij``.
    """
    m = as_matrix(m)
    if m.min() < 0.0 or m.max() > 1.0:
        raise ValidationError("entries must lie in [0, 1]")
    check_mode(mode)
    rng = make_rng(seed)
    if mode is SymmetryMode.ASYMMETRIC:
        return (rng.random(m.shape) < m).astype(float)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{mode.value} mode requires a square matrix")
    below = "mirror" if mode is SymmetryMode.SYMMETRIC else "complement"
    return sample_upper(m.shape[0], lambda upper, size: rng.random(size) < m[upper], below=below)
