"""Monte-Carlo calibration against the weighted chi-square null reference."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import covariance, statistic
from .covariance import _apply_taper, _centred_factor, _is_real, _taper_bandwidth, eigenvalues_sym
from .statistic import IDENTITY, _check_pair, _recentred_statistic, _statistic_from_aggregates

DEFAULT_SEED = 12345
PLAIN = "plain"
TAPER = "taper"
ESTIMATORS = (PLAIN, TAPER)
_NEGATIVE_RTOL = 1e-10  # tau of TestReport.negative_eigenvalues
_MIN_ROWS = 2  # per sample: the statistic sums over pairs of distinct rows


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
            raise ValueError(f"alpha must be strictly between 0 and 1, got {self.alpha}")
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test, with diagnostics of the spectrum it drew over.

    `cutoff` is the (1 - alpha) quantile of the M null draws V_j
    (`empirical_quantile`). The decision `reject` is the strict comparison
    T > cutoff; the p-value (1 + #{V_j >= T}) / (M + 1) is reported
    alongside and may disagree with the flag at ties.
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


_BLOCK_DOUBLES = 2**17  # 1 MiB of normals per block


def _block_rows(k):
    """Rows of one block of k normals: a multiple of 8, at least 8, and at
    most _BLOCK_DOUBLES doubles in all once k <= _BLOCK_DOUBLES / 8."""
    return max(8, _BLOCK_DOUBLES // k // 8 * 8)


def simulate_null_draws(spectrum, config, rng):
    """Draw config.draws values of sum_i lam_i * (Z_i^2 - 1), Z standard normal.

    The k normals of draw j are consumed before any normal of draw j+1, which
    pins the output for a given generator state. A k x S matrix of spectra,
    one per column, gives config.draws x S draws over one set of normals;
    each column equals the call on that column alone, bit for bit.

    The normals are drawn in row blocks of B = `_block_rows(k)` draws that
    reuse one buffer, so working memory is O(B k + M S), not O(M k). The bits
    equal those of one M x k matrix times each column at one OpenBLAS
    thread. The generator fills consecutive blocks in the order it fills one
    array, and OpenBLAS's matrix-vector product rounds a row by its place in
    a group of 4 rows counted from the top, so every block but the last is
    a multiple of 8 rows. For k up to 57600 a block's product is below the
    size (rows x k = 460800) at which OpenBLAS 0.3.31 splits one over
    threads, so the draws do not depend on the BLAS thread count, bar one
    draw over more than 10000 weights: a dot product, which OpenBLAS splits.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim not in (1, 2) or lam.size == 0:
        raise ValueError("spectrum must be a nonempty 1-d sequence or a k x S matrix of columns")
    if not np.isfinite(lam).all():
        raise ValueError("spectrum contains non-finite entries")
    m, k = config.draws, lam.shape[0]
    cols = lam.T if lam.ndim == 2 else lam[None, :]
    out = np.empty((cols.shape[0], m))
    buf = np.empty((min(_block_rows(k), m), k))
    for start in range(0, m, buf.shape[0]):
        n = min(buf.shape[0], m - start)
        z = buf[:n]
        rng.standard_normal(out=z)
        z *= z
        z -= 1.0
        if n == 1 < m:
            # numpy takes a one-row product by a dot, which rounds unlike the
            # last row of a matrix-vector product: lead it by the previous
            # block's last four rows, a group of 4 as in one M x k matrix
            z = np.concatenate((buf[-4:], z))
        # column by column: one matrix product would round unlike the 1-d call
        for row, col in zip(out, cols):
            row[start : start + n] = (z @ col)[-n:]
    return out.T if lam.ndim == 2 else out[0]


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
    estimate, from one centred factor C (`_centred_factor`): plain from the
    smaller of C^T C and C C^T, tapered from the p x p C^T C."""
    # the identity kernel's sums can overflow for huge but finite data; that
    # is reported below in terms of x and y, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # looked up on the module, so a wrapper installed on
        # statistic.pair_aggregates (bench/tracing.py) sees this pass
        g, sx, sy, sumsq = statistic.pair_aggregates(mx, my, kernel)
        stat = _statistic_from_aggregates(g, sx, sy, sumsq)
        c = _centred_factor(g, sx, sy)
        if estimator == TAPER:
            k = _taper_bandwidth(beta, mx.shape[0] + my.shape[0], mx.shape[1])
            est = _apply_taper(c.T @ c, k)
        else:
            est = c.T @ c if c.shape[1] <= c.shape[0] else c @ c.T
    if not (math.isfinite(stat) and np.isfinite(est).all()):
        raise _overflow(kernel)
    return g, stat, eigenvalues_sym(est)


def _report(stat, lam, draws, cutoff, config):
    """The TestReport of T = stat against one calibration: spectrum, draws, cutoff."""
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
    """The TestReport of the test of x against y0 + s, per shift s.

    shifts=None tests y0 alone. All calibrations draw over one set of null
    normals, which depend only on config.seed and the spectrum length. The
    sign kernel makes one pair pass, one spectrum and one cutoff per shift.
    The identity kernel has h = x - y, so a shift of y recentres h and
    leaves the estimate as it is: one pass and one calibration serve every
    shift, and T comes from `_recentred_statistic`, equal to a separate
    test's up to rounding and exactly at s = 0.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    mx, my0 = _check_pair(x, y0)
    if min(mx.shape[0], my0.shape[0]) < _MIN_ROWS:
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
    calibrations = [
        (lam, column, empirical_quantile(column, 1.0 - config.alpha))
        for lam, column in zip(spectra.T, draws.T)
    ]
    if kernel == IDENTITY:
        calibrations *= len(stats)
    return [_report(stat, *calib, config) for stat, calib in zip(stats, calibrations)]


def run_test(x, y, kernel, estimator=PLAIN, config=None, *, beta=covariance._BETA):
    """Full test: statistic, spectrum estimate, null draws, cutoff, decision.

    The one-shift case of the replication path (`_shift_tests`). The
    statistic and the estimate come from one pair pass, the estimate from
    one centred factor C with C^T C the plain estimate (`_estimate`). The
    plain spectrum is that of the min(p, n1+n2)-square C^T C or C C^T, so
    the null draws use that many weights; the tapered C^T C is not low
    rank and keeps its p x p spectrum.
    """
    config = NullDrawConfig() if config is None else config
    [report] = _shift_tests(x, y, None, kernel, estimator, config, beta)
    return report
