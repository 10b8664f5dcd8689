"""Two-sample location testing with kernel U-statistics and Monte-Carlo cutoffs."""

from .baselines import BaselineReport, f_cdf, hotelling_t2
from .calibration import (
    DEFAULT_SEED,
    ESTIMATORS,
    NullDrawConfig,
    TestReport,
    empirical_quantile,
    run_test,
    simulate_null_draws,
)
from .cli import (
    BlockReport,
    BlockSummary,
    block_summary,
    load_matrix_csv,
    main,
    run_realdata_blocks,
)
from .config import ScenarioConfig, config_from_dict, config_to_dict, load_configs
from .covariance import (
    TaperSpec,
    delta_hat,
    eigenvalues_sym,
    estimate_plain,
    estimate_tapered,
    taper_weight,
)
from .datagen import (
    COV_FORMS,
    CovarianceSpec,
    ModelSpec,
    build_sigma,
    generate_scenario,
    parse_family,
    sample_elliptical,
    scenario_sigma,
    shift_vector,
)
from .experiments import (
    CSV_COLUMNS,
    ResultRow,
    run_power_curve,
    run_size_experiment,
    write_csv,
    write_manifest,
)
from .seeding import derive_seed, substream
from .statistic import (
    IDENTITY,
    KERNELS,
    SIGN,
    compute_statistic,
    compute_statistic_centered,
    compute_statistic_oracle,
    pair_aggregates,
)

__version__ = "0.2.0"

__all__ = [
    "BaselineReport",
    "BlockReport",
    "BlockSummary",
    "COV_FORMS",
    "CSV_COLUMNS",
    "CovarianceSpec",
    "DEFAULT_SEED",
    "ESTIMATORS",
    "IDENTITY",
    "KERNELS",
    "ModelSpec",
    "NullDrawConfig",
    "ResultRow",
    "SIGN",
    "ScenarioConfig",
    "TaperSpec",
    "TestReport",
    "block_summary",
    "build_sigma",
    "compute_statistic",
    "compute_statistic_centered",
    "compute_statistic_oracle",
    "config_from_dict",
    "config_to_dict",
    "delta_hat",
    "derive_seed",
    "eigenvalues_sym",
    "empirical_quantile",
    "estimate_plain",
    "estimate_tapered",
    "f_cdf",
    "generate_scenario",
    "hotelling_t2",
    "load_configs",
    "load_matrix_csv",
    "main",
    "pair_aggregates",
    "parse_family",
    "run_power_curve",
    "run_realdata_blocks",
    "run_size_experiment",
    "run_test",
    "sample_elliptical",
    "scenario_sigma",
    "shift_vector",
    "simulate_null_draws",
    "substream",
    "taper_weight",
    "write_csv",
    "write_manifest",
]
