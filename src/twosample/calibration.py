"""Monte-Carlo calibration against the weighted chi-square null reference."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._blas import _one_blas_thread
from .covariance import _BETA, ESTIMATORS, PLAIN, _matrix, _taper_bandwidth
from .covariance import eigenvalues_sym
from .statistic import IDENTITY, _check_choice, _check_int, _check_pair, _check_real, _check_varies
from .statistic import KERNELS, _as_real, _pass, _recentred_statistic

DEFAULT_SEED = 12345
_NEGATIVE_RTOL = 1e-10  # tau of TestReport.negative_eigenvalues


@dataclass(frozen=True)
class NullDrawConfig:
    """Reference draws (an int >= 1), level alpha in (2**-54, 1), generator seed (an int >= 0)."""

    draws: int = 10000
    alpha: float = 0.05
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # kept as Python numbers; alpha before its range checks, so they run in float64
        object.__setattr__(self, "draws", _check_int("draws", self.draws, 1))
        object.__setattr__(self, "alpha", _check_real("alpha", self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be strictly between 0 and 1, got {self.alpha}")
        if not 1.0 - self.alpha < 1.0:  # the level of `empirical_quantile` must stay below 1
            raise ValueError(
                f"alpha must be above 2**-54, or 1 - alpha rounds to 1, got {self.alpha}"
            )
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test, with diagnostics of the spectrum it drew over.

    `cutoff` is the (1 - alpha) quantile of the M null draws V_j
    (`empirical_quantile`). The decision `reject` is the strict comparison
    T > cutoff; the p-value (1 + c) / (M + 1), c = #{V_j >= T}, is reported
    alongside. With k = ceil((1 - alpha) M), `reject` holds when c <= M - k
    and p_value <= alpha when c <= alpha (M + 1) - 1, so they disagree only
    for an integer c with alpha (M + 1) - 1 < c <= M - k, where reject is True.
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
    """Rows of one block of k normals: at least 2, and at most _BLOCK_DOUBLES
    doubles in all once k <= _BLOCK_DOUBLES / 2."""
    return max(2, _BLOCK_DOUBLES // k)


def simulate_null_draws(spectrum, config, rng):
    """Draw config.draws values of sum_i lam_i * (Z_i^2 - 1), Z standard normal.

    The k normals of draw j are consumed before any normal of draw j+1, which
    pins the output for a given generator state. A k x S matrix of spectra,
    one per column, gives config.draws x S draws over one set of normals;
    each column equals the call on that column alone, bit for bit.

    The normals are drawn in row blocks of B = min(`_block_rows(k)`, M) draws
    that reuse one buffer of B + 1 rows, so working memory is O(B k + M S),
    not O(M k). Each block's draws for all S spectra come from one einsum,
    which makes no BLAS call and reduces each row on its own, so the bits
    equal those of one M x k matrix of normals and depend on neither the
    block height nor the BLAS thread count. Two rules keep that so, since
    einsum rounds otherwise in both cases: the spectra are read as
    contiguous rows, and no block has one row unless M = 1 (above 8192
    weights einsum takes a one-row product through another loop). A lone
    last row joins the block before it, which then has B + 1 rows.
    """
    lam = _as_real(spectrum, "spectrum")
    if lam.ndim not in (1, 2) or lam.size == 0:
        raise ValueError("spectrum must be a nonempty 1-d sequence or a k x S matrix of columns")
    if not np.isfinite(lam).all():
        raise ValueError("spectrum contains non-finite entries")
    m, k = config.draws, lam.shape[0]
    cols = np.ascontiguousarray(lam.T if lam.ndim == 2 else lam[None, :])
    out = np.empty((cols.shape[0], m))
    b = min(_block_rows(k), m)
    buf = np.empty((b + 1, k))
    # no block starts at the last row, so a lone last row joins the one before
    for start in range(0, max(m - 1, 1), b):
        n = b if m - start > b + 1 else m - start
        z = buf[:n]
        rng.standard_normal(out=z)
        z *= z
        z -= 1.0
        np.einsum("ij,sj->si", z, cols, out=out[:, start : start + n])
    return out.T if lam.ndim == 2 else out[0]


def empirical_quantile(values, level):
    """Inf-form sample quantile: the ceil(level * M)-th order statistic.

    level is a number (numpy's too, taken as the Python number it equals)
    strictly between 0 and 1.
    """
    v = _as_real(values, "values")
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    level = _check_real("level", level)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    # snap the level to the nearest simple rational so a binary float like
    # 0.95 cannot land an epsilon away from 19/20 and shift the rank
    frac = Fraction(level).limit_denominator(10**12)
    k = min(max(math.ceil(frac * v.size), 1), v.size)
    # the k-th smallest without sorting all M; NaN ranks last, as in a sort
    return float(np.partition(v, k - 1)[k - 1])


def _calibrate(laws, config):
    """The TestReports of every statistic against the null law of its spectrum.

    laws holds (spectrum, statistics) pairs, with spectra of one length; all
    draw over one set of null normals, and each spectrum gets one cutoff.
    """
    spectra = np.array([lam for lam, _ in laws]).T
    draws = simulate_null_draws(spectra, config, np.random.default_rng(config.seed))
    reports = []
    for (lam, stats), column in zip(laws, draws.T):
        cutoff = empirical_quantile(column, 1.0 - config.alpha)
        diag = dict(  # the diagnostics of the spectrum
            trace=float(lam.sum()),
            top_eigenvalue=float(lam[0]),
            negative_eigenvalues=int(np.count_nonzero(lam < -_NEGATIVE_RTOL * abs(lam[0]))),
        )
        for stat in stats:
            exceed = int(np.count_nonzero(column >= stat))
            p_value = (1 + exceed) / (config.draws + 1)
            reports.append(TestReport(float(stat), cutoff, p_value, bool(stat > cutoff), **diag))
    return reports


def _shift_tests(x, y0, shifts, kernel, estimator, config, beta):
    """The TestReport of the test of x against y0 + s, per shift s.

    shifts=None tests y0 alone, as given. Each pair pass is followed by its
    spectrum, and no centred factor C outlives it; all calibrations then draw
    over one set of null normals (`_calibrate`). The sign kernel makes one pass
    per shift. The identity kernel has h = x - y, so a shift of y recentres h
    and leaves the estimate as it is: one pass at y0 and one calibration serve
    every shift, with T from `_recentred_statistic`, equal to a separate test's
    up to rounding. Everything runs at one OpenBLAS thread (`_one_blas_thread`),
    so the reports do not depend on the caller's BLAS thread count.
    """
    with _one_blas_thread():
        _check_choice("estimator", estimator, ESTIMATORS)
        mx, my0 = _check_pair(x, y0)
        k = _taper_bandwidth(beta, mx.shape[0] + my0.shape[0], mx.shape[1])
        _check_varies(mx, my0)  # a shift keeps a constant y constant
        _check_choice("kernel", kernel, KERNELS)  # before the comparison, which is by ==
        recentre = kernel == IDENTITY and shifts is not None
        # a shift keeps the row counts, and pair_aggregates checks that y is finite
        ys = [my0] if shifts is None or recentre else (my0 + s for s in shifts)
        laws = []
        for g, stat, c in (_pass(mx, y, kernel) for y in ys):
            stats = [stat]
            if recentre:
                stats = [_recentred_statistic(stat, g, len(mx), len(my0), s) for s in shifts]
            laws.append((eigenvalues_sym(_matrix(c, estimator, k)), stats))
            del c
        return _calibrate(laws, config)


def run_test(x, y, kernel, estimator=PLAIN, config=None, *, beta=_BETA):
    """Full test: statistic, spectrum estimate, null draws, cutoff, decision.

    The one-shift case of the replication path (`_shift_tests`). The
    statistic and the centred factor C, with C^T C the plain estimate, come
    from one pair pass (`statistic._pass`), and the estimate from C
    (`_matrix`). The plain spectrum is that of the min(p, n1+n2)-square
    C^T C or C C^T, so the null draws use that many weights; the tapered
    C^T C is not low rank and keeps its p x p spectrum. C is dropped once
    its spectrum is taken, so it is not held during the null draws.
    """
    config = NullDrawConfig() if config is None else config
    [report] = _shift_tests(x, y, None, kernel, estimator, config, beta)
    return report
