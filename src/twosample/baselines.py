"""Hotelling T^2 baseline with a self-contained F reference distribution."""

import math
from dataclasses import dataclass

import numpy as np

from ._blas import _one_blas_thread
from .statistic import _check_pair, _varies


@dataclass(frozen=True)
class BaselineReport:
    t2: float
    f_stat: float
    df1: int
    df2: int
    p_value: float


_OVERFLOW = (
    "x and y are too large in magnitude for the Hotelling test: "
    "its pooled covariance overflows; rescale the data"
)
_T2_OVERFLOW = (
    "x and y are too far apart for the Hotelling test: its T^2 overflows, "
    "as the mean difference is too large against the pooled covariance"
)
_UNDERFLOW = (
    "x and y are too small in magnitude for the Hotelling test: "
    "its pooled covariance underflows; rescale the data"
)


def _check_hotelling_dims(p, n1, n2, where=""):
    """Hotelling's F reference needs p <= n1 + n2 - 2, so its degrees of freedom are positive."""
    if p > n1 + n2 - 2:
        raise ValueError(f"{where}hotelling needs p <= n1 + n2 - 2, got p={p}, n1={n1}, n2={n2}")


def hotelling_t2(x, y):
    """Two-sample Hotelling T^2 with pooled covariance, F-calibrated.

    Requires p <= n1 + n2 - 2. The quadratic form is evaluated through a
    Cholesky solve of the pooled covariance, never an explicit inverse.
    The products, the factor and the solve run at one OpenBLAS thread
    (`_one_blas_thread`): at p >= 300 their last bits depend on the thread
    count.
    """
    mx, my = _check_pair(x, y)
    n1, p = mx.shape
    n2 = my.shape[0]
    _check_hotelling_dims(p, n1, n2)
    n = n1 + n2
    with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
        mean_x, mean_y = mx.mean(axis=0), my.mean(axis=0)
        xc, yc = mx - mean_x, my - mean_y
        pooled = (xc.T @ xc + yc.T @ yc) / (n - 2)
        # an overflowed pooled matrix factors to an infinite diagonal
        # without an error, and t2 would then read 0
        if not np.isfinite(pooled).all():
            raise ValueError(_OVERFLOW)
        # a column that varies in neither sample is singular, whatever the
        # rounding of its centring; a subnormal (or zero) variance of one that
        # varies has lost its digits
        if not _varies(mx, my).all():
            raise np.linalg.LinAlgError("pooled covariance is singular")
        if (np.diag(pooled) < np.finfo(float).tiny).any():
            raise ValueError(_UNDERFLOW)
        try:
            chol = np.linalg.cholesky(pooled)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError("pooled covariance is singular") from err
        # t2 = (n1 n2 / n) ||L^-1 (mean_x - mean_y)||^2
        half = np.linalg.solve(chol, mean_x - mean_y)
        t2 = (n1 * n2 / n) * float(half @ half)
    if not math.isfinite(t2):
        raise ValueError(_T2_OVERFLOW)
    df1, df2 = p, n - p - 1
    f_stat = t2 * df2 / ((n - 2) * p)
    # survival form: evaluating I_x(b, a) at x = d2/(d2 + d1 f) avoids the
    # cancellation of 1 - cdf for large f
    p_value = _betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f_stat))
    return BaselineReport(t2=t2, f_stat=f_stat, df1=df1, df2=df2, p_value=p_value)


def _betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b) by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only below the distribution mean;
    # above it, evaluate the mirrored tail
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


_FPMIN = 1e-300


def _floored(v):
    """v, or _FPMIN in its place when |v| is below it: Lentz's guard against dividing by 0."""
    return _FPMIN if abs(v) < _FPMIN else v


def _betacf(a, b, x):
    """Lentz evaluation of the incomplete-beta continued fraction, a step per coefficient."""
    max_iter = 300
    eps = 3e-16
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _floored(1.0 - qab * x / qap)
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for coef in (even, odd):
            d = 1.0 / _floored(1.0 + coef * d)
            c = _floored(1.0 + coef / c)
            step = d * c
            h *= step
        if abs(step - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")
