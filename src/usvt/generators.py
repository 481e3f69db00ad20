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
from .estimator import MaskedMatrix, SymmetryMode
from .linalg import as_matrix, nuclear_norm
from .rng import make_rng

__all__ = [
    "GraphonSample",
    "TournamentModel",
    "MinimaxInstance",
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


@dataclass(frozen=True)
class GraphonSample:
    """Latent uniforms, mean matrix ``m_ij = f(u_i, u_j)`` and a 0/1
    adjacency matrix with ``E[adjacency | u] = m`` (self-pairs included)."""

    u: np.ndarray
    m: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.m)
        a = as_matrix(self.adjacency)
        if not np.array_equal(m, m.T):
            raise ValidationError("graphon mean matrix must be symmetric")
        if m.min() < 0.0 or m.max() > 1.0:
            raise ValidationError("graphon values must lie in [0, 1]")
        if not np.array_equal(a, a.T) or not np.isin(a, (0.0, 1.0)).all():
            raise ValidationError("adjacency must be a symmetric 0/1 matrix")


@dataclass(frozen=True)
class TournamentModel:
    """Win-probability matrix with ``p_ji = 1 - p_ij`` off the diagonal,
    zero diagonal, and a strength ordering (strongest team first) under
    which every row dominates the rows of weaker teams."""

    p: np.ndarray
    strength_order: np.ndarray

    def __post_init__(self):
        p = as_matrix(self.p)
        n = p.shape[0]
        if p.shape[0] != p.shape[1]:
            raise ValidationError("tournament matrix must be square")
        if np.abs(np.diagonal(p)).max(initial=0.0) != 0.0:
            raise ValidationError("tournament diagonal must be zero")
        off = ~np.eye(n, dtype=bool)
        if n > 1 and not np.allclose((p + p.T)[off], 1.0, rtol=0.0, atol=1e-12):
            raise ValidationError("tournament requires p_ji = 1 - p_ij off the diagonal")
        order = np.asarray(self.strength_order, dtype=int)
        if sorted(order.tolist()) != list(range(n)):
            raise ValidationError("strength_order must be a permutation of team indices")
        object.__setattr__(self, "strength_order", order)


@dataclass(frozen=True)
class MinimaxInstance:
    """Worst-case parameter matrix for a given nuclear-norm budget and
    observation probability."""

    m_matrix: np.ndarray
    nuclear_budget: float
    observed_p: float

    def __post_init__(self):
        m = as_matrix(self.m_matrix)
        if np.abs(m).max() > 1.0:
            raise ValidationError("minimax instance entries must lie in [-1, 1]")
        if nuclear_norm(m) > self.nuclear_budget * (1.0 + 1e-8) + 1e-12:
            raise ValidationError("minimax instance exceeds its nuclear-norm budget")


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

    ``draw(rows, cols)`` returns the entries at the index pairs on and above
    the diagonal (strictly above when ``diagonal`` is False), in row-major
    order; that order is the order in which a random ``draw`` consumes its
    stream. Each entry (j, i) below the diagonal is filled from x at (i, j)
    by ``below``: "mirror" (x) or "complement" (1 - x).
    Diagonal entries keep their drawn value, or are zero when not drawn.
    """
    rows, cols = np.triu_indices(n, 0 if diagonal else 1)
    upper = draw(rows, cols)
    out = np.zeros((n, n), dtype=dtype)
    out[cols, rows] = _BELOW[below](upper)
    out[rows, cols] = upper
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
    return m, sample_upper(n, lambda i, j: rng.random(i.size) < m[i, j])


def gen_distance_matrix(points, metric: str = "euclidean") -> np.ndarray:
    """Pairwise distances normalized by the realized diameter.

    The max entry is exactly 1 (all-zero if every point coincides), the
    diagonal is zero and the triangle inequality is preserved. Metrics:
    euclidean, manhattan, chebyshev.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError("points must be a nonempty list of equal-length vectors")
    if not np.isfinite(pts).all():
        raise ValidationError("points must be finite")
    n, dim = pts.shape
    acc = np.zeros((n, n))
    if metric == "euclidean":
        for d in range(dim):
            diff = pts[:, d, None] - pts[None, :, d]
            acc += diff * diff
        dist = np.sqrt(acc)
    elif metric == "manhattan":
        for d in range(dim):
            acc += np.abs(pts[:, d, None] - pts[None, :, d])
        dist = acc
    elif metric == "chebyshev":
        for d in range(dim):
            acc = np.maximum(acc, np.abs(pts[:, d, None] - pts[None, :, d]))
        dist = acc
    else:
        raise ValidationError(f"unknown metric {metric!r}")
    np.fill_diagonal(dist, 0.0)
    dist = np.maximum(dist, dist.T)
    diameter = dist.max()
    if diameter > 0.0:
        dist = dist / diameter
    return dist


def uniform_points(n: int, dim: int, seed: int) -> np.ndarray:
    """``n`` points drawn uniformly from the unit cube [0, 1]^dim."""
    if n < 1 or dim < 1:
        raise ValidationError("n and dim must be positive")
    return make_rng(seed).random((n, dim))


def _pairwise_eval(f, x_left, x_right):
    """``out[i, j] = f(x_left[i], x_right[j])`` from one broadcast call of
    ``f``; a constant result is broadcast to (n, n)."""
    n = x_left.shape[0]
    out = np.asarray(f(x_left[:, None], x_right[None, :]), dtype=float)
    if out.ndim == 0:
        return np.full((n, n), out)
    if out.shape != (n, n):
        raise ValidationError(f"pairwise function gave shape {out.shape}, not {(n, n)}")
    return out


def gen_latent_space(n: int, dim: int, f, seed: int):
    """Latent-position mean matrix ``m_ij = f(beta_i, beta_j)``.

    Positions ``beta_i`` are uniform on [0, 1]^dim; ``f`` must map into
    [-1, 1] (rejection error otherwise) but need not be symmetric.
    Returns (m, betas).
    """
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    rng = make_rng(seed)
    betas = rng.random((n, dim))
    m = _pairwise_eval(f, betas, betas)
    if not np.isfinite(m).all() or np.abs(m).max() > 1.0:
        raise ValidationError("latent function values must lie in [-1, 1]")
    return m, betas


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


def gen_graphon(n: int, f, seed: int) -> GraphonSample:
    """Sample a random graph from a symmetric function [0,1]^2 -> [0,1].

    Draws latent uniforms ``u``, evaluates ``m_ij = f(u_i, u_j)`` (upper
    triangle, mirrored, so the result is exactly symmetric) and flips one
    coin per pair on and above the diagonal. Out-of-range values are a
    rejection error.
    """
    if n < 1:
        raise ValidationError("n must be positive")
    rng = make_rng(seed)
    u = rng.random(n)
    full = _pairwise_eval(f, u, u)
    m = sample_upper(n, lambda i, j: full[i, j])
    if not np.isfinite(m).all() or m.min() < 0.0 or m.max() > 1.0:
        raise ValidationError("graphon values must lie in [0, 1]")
    adjacency = sample_upper(n, lambda i, j: rng.random(i.size) < m[i, j])
    return GraphonSample(u=u, m=m, adjacency=adjacency)


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
        if strengths is None:
            raise ValidationError("parametric family requires strengths")
        a = np.asarray(strengths, dtype=float)
        if a.shape != (n,) or (a <= 0).any() or not np.isfinite(a).all():
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
    p = sample_upper(n, lambda i, j: raw[i, j], diagonal=False, below="complement")
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
    mask = sample_upper(n, lambda i, j: rng.random(i.size) < p, diagonal=False, dtype=bool)
    # Draw outcomes for every pair (played or not) so the stream is the
    # same at every p: masks at different p are then nested couplings.
    values = sample_upper(n, lambda i, j: rng.binomial(games_per_pair, prob[i, j]) / games_per_pair,
                          diagonal=False, below="complement")
    values *= mask  # unplayed pairs read 0 on both sides
    np.fill_diagonal(mask, True)
    return MaskedMatrix(values=values, mask=mask, mode=SymmetryMode.SKEW_SYMMETRIC)


def gen_minimax_instance(m: int, n: int, delta: float, p: float, seed: int) -> MinimaxInstance:
    """Worst-case matrix with nuclear norm at most ``delta``.

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
    return MinimaxInstance(m_matrix=out, nuclear_budget=delta, observed_p=p)


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
    rng = make_rng(seed)
    if mode is SymmetryMode.ASYMMETRIC:
        return rng.random((rows, cols)) < p
    if rows != cols:
        raise ValidationError(f"{mode.value} mode requires a square mask")
    return sample_upper(rows, lambda i, j: rng.random(i.size) < p, dtype=bool)


def bernoulli_round(m, mode: SymmetryMode, seed: int) -> np.ndarray:
    """Round a [0, 1]-valued matrix to {0, 1} with expectation preserved.

    Symmetric mode flips one coin per on-and-above-diagonal entry and
    mirrors it; skew-symmetric mode mirrors ``1 - x`` (win/loss data),
    which preserves expectations when ``m_ji = 1 - m_ij``.
    """
    m = as_matrix(m)
    if m.min() < 0.0 or m.max() > 1.0:
        raise ValidationError("entries must lie in [0, 1]")
    rng = make_rng(seed)
    if mode is SymmetryMode.ASYMMETRIC:
        return (rng.random(m.shape) < m).astype(float)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{mode.value} mode requires a square matrix")
    below = "mirror" if mode is SymmetryMode.SYMMETRIC else "complement"
    return sample_upper(m.shape[0], lambda i, j: rng.random(i.size) < m[i, j], below=below)
