"""Monte-Carlo calibration against the weighted chi-square null reference."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import statistic
from .covariance import (
    _apply_taper,
    _is_real,
    _plain_from_aggregates,
    _plain_gram,
    _taper_bandwidth,
    eigenvalues_sym,
)
from .statistic import IDENTITY, _check_pair, _recentred_statistic, _statistic_from_aggregates

DEFAULT_SEED = 12345
PLAIN = "plain"
TAPER = "taper"
ESTIMATORS = (PLAIN, TAPER)
_NEGATIVE_RTOL = 1e-10  # tau of TestReport.negative_eigenvalues


def _check_int(name, value, low=None):
    """Reject a count that is not an int (a bool included) or is below low, naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


@dataclass(frozen=True)
class NullDrawConfig:
    """Reference draws (an int >= 1), level alpha in (0, 1), and generator seed (an int >= 0)."""

    draws: int = 10000
    alpha: float = 0.05
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_int("draws", self.draws, 1)
        if not _is_real(self.alpha):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class TestReport:
    """Outcome of `run_test`, with diagnostics of the spectrum it drew over.

    `trace` and `top_eigenvalue` are the sum and the largest of the spectrum.
    `negative_eigenvalues` counts eigenvalues below -tau * |top_eigenvalue|
    with tau = 1e-10, so rounding noise around zero is not counted.
    """

    statistic: float
    cutoff: float
    p_value: float
    reject: bool
    trace: float
    top_eigenvalue: float
    negative_eigenvalues: int


def simulate_null_draws(spectrum, config, rng):
    """Draw config.draws values of sum_i lam_i * (Z_i^2 - 1), Z standard normal.

    The k normals of draw j are consumed before any normal of draw j+1, which
    pins the output for a given generator state. A k x S matrix of spectra,
    one per column, gives config.draws x S draws over one set of normals;
    each column equals the call on that column alone, bit for bit.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim not in (1, 2) or lam.size == 0:
        raise ValueError("spectrum must be a nonempty 1-d sequence or a k x S matrix of columns")
    z = rng.standard_normal((config.draws, lam.shape[0]))
    z *= z  # in place: no draws x k temporaries
    z -= 1.0
    # column by column: one matrix product would round unlike the 1-d call
    return z @ lam if lam.ndim == 1 else np.array([z @ col for col in lam.T]).T


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
    # the k-th smallest without sorting all M; NaN ranks last, as in a sort
    return float(np.partition(v, k - 1)[k - 1])


def _overflow(kernel):
    return ValueError(
        f"x and y are too large in magnitude for the {kernel} kernel: "
        "its pair sums overflow; rescale the data"
    )


def _estimate(mx, my, kernel, estimator, beta):
    """One pair pass: the grand sum g, the statistic and the spectrum of the
    estimate (plain from its Gram form, or tapered)."""
    # the identity kernel's sums can overflow for huge but finite data; that
    # is reported below in terms of x and y, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # looked up on the module, so a wrapper installed on
        # statistic.pair_aggregates (bench/tracing.py) sees this pass
        g, sx, sy, sumsq = statistic.pair_aggregates(mx, my, kernel)
        stat = _statistic_from_aggregates(g, sx, sy, sumsq)
        if estimator == TAPER:
            k = _taper_bandwidth(beta, mx.shape[0] + my.shape[0], mx.shape[1])
            est = _apply_taper(_plain_from_aggregates(g, sx, sy), k)
        else:
            est = _plain_gram(g, sx, sy)
    if not (math.isfinite(stat) and np.isfinite(est).all()):
        raise _overflow(kernel)
    return g, stat, eigenvalues_sym(est)


def _shift_tests(x, y0, shifts, kernel, estimator, config, beta):
    """T, spectrum and null draws of the test of x against y0 + s, per shift s.

    Returns (stats, spectra, draws): a statistic per shift, and the k x C
    spectra and config.draws x C null draws of C calibrations, where C is
    len(shifts), or 1 when one serves every shift. shifts=None tests y0.

    All calibrations draw over one set of null normals, which depend only
    on config.seed and the spectrum length. The sign kernel makes one pair
    pass and one spectrum per shift. The identity kernel has h = x - y, so
    a shift of y recentres h and leaves the estimate as it is: one pass and
    one calibration serve every shift, and T comes from
    `_recentred_statistic`, equal to a separate test's up to rounding and
    exactly at s = 0.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    mx, my0 = _check_pair(x, y0)
    if mx.shape[0] < 2 or my0.shape[0] < 2:
        raise ValueError(
            f"x and y need at least two rows each: x has {mx.shape[0]}, y has {my0.shape[0]}"
        )
    if shifts is None:
        shifts = [np.zeros(mx.shape[1])]
    if kernel == IDENTITY:
        g, stat, lam = _estimate(mx, my0, kernel, estimator, beta)
        with np.errstate(over="ignore", invalid="ignore"):
            stats = [_recentred_statistic(stat, g, mx.shape[0], my0.shape[0], s) for s in shifts]
        if not np.isfinite(stats).all():
            raise _overflow(kernel)
        spectra = lam[:, None]
    else:
        # a shift keeps the row counts, and pair_aggregates checks that y is finite
        passes = [_estimate(mx, my0 + s, kernel, estimator, beta) for s in shifts]
        stats = [stat for _, stat, _ in passes]
        spectra = np.array([lam for _, _, lam in passes]).T
    draws = simulate_null_draws(spectra, config, np.random.default_rng(config.seed))
    return stats, spectra, draws


def run_test(x, y, kernel, estimator=PLAIN, config=None, *, beta=0.25):
    """Full test: statistic, spectrum estimate, null draws, cutoff, decision.

    The one-shift case of the replication path (`_shift_tests`). The
    statistic and the covariance estimate come from one pair pass. The
    plain spectrum is taken from the min(p, n1+n2)-square Gram form of the
    estimate (`_plain_gram`), so the null draws use that many weights; the
    tapered estimate is not low rank and keeps its p x p spectrum.

    The reported decision is the strict cutoff comparison T > c(alpha); the
    p-value (1 + #{V_j >= T}) / (M + 1) is reported alongside and may disagree
    with the flag at ties.
    """
    if config is None:
        config = NullDrawConfig()
    stats, spectra, draws = _shift_tests(x, y, None, kernel, estimator, config, beta)
    stat, lam, draws = stats[0], spectra[:, 0], draws[:, 0]
    cutoff = empirical_quantile(draws, 1.0 - config.alpha)
    exceed = int(np.count_nonzero(draws >= stat))
    return TestReport(
        statistic=float(stat),
        cutoff=float(cutoff),
        p_value=(1 + exceed) / (config.draws + 1),
        reject=bool(stat > cutoff),
        trace=float(lam.sum()),
        top_eigenvalue=float(lam[0]),
        negative_eigenvalues=int(np.count_nonzero(lam < -_NEGATIVE_RTOL * abs(lam[0]))),
    )
