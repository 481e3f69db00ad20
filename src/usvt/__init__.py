"""Matrix estimation by universal singular value thresholding.

Estimate a bounded matrix from noisy, partially observed entries by
thresholding the singular values of the zero-filled observation matrix at
a universal level that adapts to however much structure the matrix has.
The package bundles the estimator, generators for the model families it
provably handles (low rank, blockmodels, distance matrices, latent-space
models, correlation matrices, graphons, pairwise-comparison tournaments,
minimax adversaries), constant-free rate brackets, and a seeded
simulation harness that verifies the error rates empirically.
"""

from .checks import CheckReport, CheckResult, check_suite
from .errors import MatrixFormatError, ValidationError
from .estimator import (
    EstimateReport,
    EstimatorConfig,
    MaskedMatrix,
    SymmetryMode,
    denoise_by_threshold,
    denoise_error_constant,
    threshold_value,
    trivial_estimate,
    usvt_estimate,
)
from .evaluation import (
    RateFit,
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
from .generators import (
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
    uniform_points,
)
from .harness import (
    CellResult,
    ExperimentReport,
    ExperimentSpec,
    ModelSpec,
    estimate_file,
    run_experiment,
    write_report_csv,
    write_report_json,
)
from .linalg import (
    SvdFactorization,
    frobenius_norm,
    nuclear_norm,
    numerical_rank,
    spectral_norm,
    svd,
)
from .matrixio import read_matrix_csv, write_matrix_csv
from .rng import make_rng, mix_seed

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CellResult",
    "CheckReport",
    "CheckResult",
    "EstimateReport",
    "EstimatorConfig",
    "ExperimentReport",
    "ExperimentSpec",
    "GRAPHON_CATALOG",
    "LATENT_CATALOG",
    "MaskedMatrix",
    "MatrixFormatError",
    "ModelSpec",
    "RateFit",
    "SvdFactorization",
    "SymmetryMode",
    "TournamentModel",
    "ValidationError",
    "bernoulli_mask",
    "bernoulli_round",
    "bradley_terry_bracket",
    "check_suite",
    "denoise_by_threshold",
    "denoise_error_constant",
    "distance_bracket",
    "estimate_file",
    "frobenius_norm",
    "gen_blockmodel",
    "gen_bradley_terry",
    "gen_correlation_matrix",
    "gen_distance_matrix",
    "gen_graphon",
    "gen_latent_space",
    "gen_low_rank",
    "gen_low_rank_adversary",
    "gen_minimax_instance",
    "lipschitz_latent_bracket",
    "low_rank_lower_bound",
    "make_rng",
    "mix_seed",
    "mse",
    "nuclear_bracket",
    "nuclear_norm",
    "numerical_rank",
    "play_tournament",
    "psd_bracket",
    "rate_fit",
    "read_matrix_csv",
    "run_experiment",
    "spectral_concentration_trial",
    "spectral_norm",
    "svd",
    "threshold_value",
    "trivial_estimate",
    "uniform_points",
    "usvt_estimate",
    "write_matrix_csv",
    "write_report_csv",
    "write_report_json",
]
