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


def _check_int(name, value):
    """Reject a count that is not an int, a bool included, naming the field."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class NullDrawConfig:
    """Reference draws (an int >= 1), level alpha in (0, 1), and generator seed (an int >= 0)."""

    draws: int = 10000
    alpha: float = 0.05
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_int("draws", self.draws)
        if self.draws < 1:
            raise ValueError("draws must be at least 1")
        if not _is_real(self.alpha):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        _check_int("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


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

    The p normals of draw j are consumed before any normal of draw j+1, which
    pins the output for a given generator state.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("spectrum must be a nonempty 1-d sequence")
    return _squared_normals(config.draws, lam.size, rng) @ lam


def _squared_normals(draws, k, rng):
    """Z * Z - 1 for a draws x k matrix Z of standard normals, drawn row by row.

    Times a spectrum of length k it gives that spectrum's null draws, so one
    matrix serves every spectrum of that length drawn with the same seed.
    """
    z = rng.standard_normal((draws, k))
    z *= z  # in place: no draws x k temporaries
    z -= 1.0
    return z


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


def _checked_pair(x, y, estimator):
    """The input checks of a test: a known estimator and two finite samples
    of equal width with at least two rows each."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    mx, my = _check_pair(x, y)
    if mx.shape[0] < 2 or my.shape[0] < 2:
        raise ValueError(
            f"x and y need at least two rows each: x has {mx.shape[0]}, y has {my.shape[0]}"
        )
    return mx, my


def _overflow(kernel):
    return ValueError(
        f"x and y are too large in magnitude for the {kernel} kernel: "
        "its pair sums overflow; rescale the data"
    )


def _estimate(mx, my, kernel, estimator, beta):
    """One pair pass: the grand sum g, the statistic and the spectrum of the
    estimate (plain from its Gram form, or tapered), as `run_test` takes them."""
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


def run_test(x, y, kernel, estimator=PLAIN, config=None, *, beta=0.25):
    """Full test: statistic, spectrum estimate, null draws, cutoff, decision.

    The statistic and the covariance estimate come from one pair pass. The
    plain spectrum is taken from the min(p, n1+n2)-square Gram form of the
    estimate (`_plain_gram`), so the null draws use that many weights; the
    tapered estimate is not low rank and keeps its p x p spectrum.

    The reported decision is the strict cutoff comparison T > c(alpha); the
    p-value (1 + #{V_j >= T}) / (M + 1) is reported alongside and may disagree
    with the flag at ties.
    """
    mx, my = _checked_pair(x, y, estimator)
    if config is None:
        config = NullDrawConfig()
    _, stat, lam = _estimate(mx, my, kernel, estimator, beta)
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
        negative_eigenvalues=int(np.count_nonzero(lam < -_NEGATIVE_RTOL * abs(lam[0]))),
    )


def _shift_tests(x, y0, shifts, kernel, estimator, config, beta):
    """(statistic, cutoff) of `run_test(x, y0 + s, ...)` for each shift s.

    The null normals depend only on config.seed and the spectrum length,
    which does not change with the shift, so they are drawn once. The sign
    kernel then makes one pair pass and one spectrum per shift, and its
    values equal run_test's bit for bit. For the identity kernel h = x - y,
    so shifting y by s recentres h by s: the centred sums, and with them
    the estimate, the spectrum and the cutoff, do not change, and T comes
    from `_recentred_statistic`. It makes one pair pass and one calibration
    in all; its values equal run_test's up to rounding, and exactly at s = 0.
    """
    mx, my0 = _checked_pair(x, y0, estimator)
    rng = np.random.default_rng(config.seed)
    level = 1.0 - config.alpha
    if kernel == IDENTITY:
        g, stat, lam = _estimate(mx, my0, kernel, estimator, beta)
        cutoff = empirical_quantile(simulate_null_draws(lam, config, rng), level)
        with np.errstate(over="ignore", invalid="ignore"):
            stats = [_recentred_statistic(stat, g, mx.shape[0], my0.shape[0], s) for s in shifts]
        if not np.isfinite(stats).all():
            raise _overflow(kernel)
        return [(t, cutoff) for t in stats]
    out = []
    squares = None
    for s in shifts:
        # a shift keeps the row counts, and pair_aggregates checks that y is finite
        _, stat, lam = _estimate(mx, my0 + s, kernel, estimator, beta)
        if squares is None:
            squares = _squared_normals(config.draws, lam.size, rng)
        out.append((stat, empirical_quantile(squares @ lam, level)))
    return out
