"""Monte-Carlo calibration against the weighted chi-square null reference."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import statistic
from .covariance import TaperSpec, _apply_taper, _plain_from_aggregates, eigenvalues_sym
from .statistic import _check_pair, _statistic_from_aggregates

DEFAULT_SEED = 12345
PLAIN = "plain"
TAPER = "taper"
ESTIMATORS = (PLAIN, TAPER)


@dataclass(frozen=True)
class NullDrawConfig:
    """Number of reference draws, nominal level, and the generator seed."""

    draws: int = 10000
    alpha: float = 0.05
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError("draws must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


@dataclass(frozen=True)
class TestReport:
    statistic: float
    cutoff: float
    p_value: float
    reject: bool
    trace: float
    top_eigenvalue: float
    negative_eigenvalues: int


def simulate_null_draws(spectrum, config, rng):
    """Draw config.draws values of sum_i lam_i * (Z_i^2 - 1), Z standard normal.

    The p normals of draw j are consumed before any normal of draw j+1, which
    pins the output for a given generator state.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("spectrum must be a nonempty 1-d sequence")
    z = rng.standard_normal((config.draws, lam.size))
    return (z * z - 1.0) @ lam


def empirical_quantile(values, level):
    """Inf-form sample quantile: the ceil(level * M)-th order statistic."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    # snap the level to the nearest simple rational so a binary float like
    # 0.95 cannot land an epsilon away from 19/20 and shift the rank
    frac = Fraction(level).limit_denominator(10**12)
    k = min(max(math.ceil(frac * v.size), 1), v.size)
    return float(np.sort(v)[k - 1])


def run_test(x, y, kernel, estimator=PLAIN, config=None, *, beta=0.25):
    """Full test: statistic, spectrum estimate, null draws, cutoff, decision.

    The statistic and the covariance estimate come from one pair pass.

    The reported decision is the strict cutoff comparison T > c(alpha); the
    p-value (1 + #{V_j >= T}) / (M + 1) is reported alongside and may disagree
    with the flag at ties.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    if config is None:
        config = NullDrawConfig()
    mx, my = _check_pair(x, y)
    if mx.shape[0] < 2 or my.shape[0] < 2:
        raise ValueError("run_test needs at least two rows in each sample")
    # looked up on the module, so a wrapper installed on
    # statistic.pair_aggregates (bench/tracing.py) sees this pass
    g, sx, sy, sumsq = statistic.pair_aggregates(mx, my, kernel)
    stat = _statistic_from_aggregates(g, sx, sy, sumsq)
    est = _plain_from_aggregates(g, sx, sy)
    if estimator == TAPER:
        est = _apply_taper(est, TaperSpec.derive(beta, mx.shape[0] + my.shape[0], mx.shape[1]))
    lam = eigenvalues_sym(est)
    draws = simulate_null_draws(lam, config, np.random.default_rng(config.seed))
    cutoff = empirical_quantile(draws, 1.0 - config.alpha)
    exceed = int(np.count_nonzero(draws >= stat))
    return TestReport(
        statistic=float(stat),
        cutoff=float(cutoff),
        p_value=(1 + exceed) / (config.draws + 1),
        reject=bool(stat > cutoff),
        trace=float(lam.sum()),
        top_eigenvalue=float(lam[0]),
        negative_eigenvalues=int(np.count_nonzero(lam < 0.0)),
    )
