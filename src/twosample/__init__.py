"""Two-sample location testing with kernel U-statistics and Monte-Carlo cutoffs."""

from .baselines import BaselineReport, hotelling_t2
from .calibration import (
    DEFAULT_SEED,
    NullDrawConfig,
    TestReport,
    empirical_quantile,
    run_test,
    simulate_null_draws,
)
from .covariance import ESTIMATORS, eigenvalues_sym, taper_weight
from .datagen import (
    COV_FORMS,
    generate_scenario,
    parse_family,
    shift_vector,
)
from .experiments import (
    CSV_COLUMNS,
    ResultRow,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    load_configs,
    run_power_curve,
    run_power_curves,
    write_csv,
    write_manifest,
)
from .realdata import (
    BlockReport,
    BlockSummary,
    block_summary,
    load_matrix_csv,
    run_realdata_blocks,
)
from .seeding import derive_seed, substream
from .statistic import (
    IDENTITY,
    KERNELS,
    SIGN,
    compute_statistic,
    pair_aggregates,
)

__version__ = "0.37.0"

__all__ = [
    "BaselineReport",
    "BlockReport",
    "BlockSummary",
    "COV_FORMS",
    "CSV_COLUMNS",
    "DEFAULT_SEED",
    "ESTIMATORS",
    "IDENTITY",
    "KERNELS",
    "NullDrawConfig",
    "ResultRow",
    "SIGN",
    "ScenarioConfig",
    "TestReport",
    "block_summary",
    "compute_statistic",
    "config_from_dict",
    "config_to_dict",
    "derive_seed",
    "eigenvalues_sym",
    "empirical_quantile",
    "generate_scenario",
    "hotelling_t2",
    "load_configs",
    "load_matrix_csv",
    "pair_aggregates",
    "parse_family",
    "run_power_curve",
    "run_power_curves",
    "run_realdata_blocks",
    "run_test",
    "shift_vector",
    "simulate_null_draws",
    "substream",
    "taper_weight",
    "write_csv",
    "write_manifest",
]
