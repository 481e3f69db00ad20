import usvt

#: The package's public names. A name added to or removed from
#: ``usvt.__all__`` must be added to or removed from this list too.
PUBLIC = [
    "BoundBracket", "CellResult", "CheckReport", "CheckResult", "EstimateReport",
    "EstimatorConfig", "ExperimentReport", "ExperimentSpec", "GRAPHON_CATALOG",
    "GraphonSample", "LATENT_CATALOG", "MaskedMatrix", "MatrixFormatError",
    "MinimaxInstance", "ModelSpec", "RateFit", "SvdFactorization", "SymmetryMode",
    "TournamentModel", "ValidationError", "__version__", "bernoulli_mask",
    "bernoulli_round", "bradley_terry_bracket", "check_suite", "denoise_by_threshold",
    "denoise_error_constant", "distance_bracket", "estimate_file", "frobenius_norm",
    "gen_blockmodel", "gen_bradley_terry", "gen_correlation_matrix", "gen_distance_matrix",
    "gen_graphon", "gen_latent_space", "gen_low_rank", "gen_low_rank_adversary",
    "gen_minimax_instance", "lipschitz_latent_bracket", "low_rank_lower_bound", "make_rng",
    "mix_seed", "mse", "nuclear_bracket", "nuclear_norm", "numerical_rank",
    "play_tournament", "psd_bracket", "rate_fit", "read_matrix_csv", "run_experiment",
    "spectral_concentration_trial", "spectral_norm", "svd", "threshold_value",
    "trivial_estimate", "uniform_points", "usvt_estimate", "write_matrix_csv",
    "write_report_csv", "write_report_json",
]


def test_public_surface_pinned():
    assert len(usvt.__all__) == len(set(usvt.__all__))
    assert sorted(usvt.__all__) == PUBLIC
    for name in usvt.__all__:
        assert hasattr(usvt, name), name
