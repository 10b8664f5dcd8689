"""Plain and tapered covariance estimators for the pair kernel, plus spectra."""

import numbers

import numpy as np

from ._blas import _one_blas_thread
from .statistic import _as_sample, _check_real

PLAIN = "plain"
TAPER = "taper"
ESTIMATORS = (PLAIN, TAPER)
_BETA = 0.25  # the default taper exponent beta of `_taper_bandwidth`'s callers


def _taper_bandwidth(beta, n, p):
    """Taper bandwidth k = min(n^(1/(2 beta + 2)), p) for a finite number beta > 0, kept real."""
    if not 0 < _check_real("beta", beta) < np.inf:  # NaN fails both comparisons
        raise ValueError(f"beta must be {'positive' if beta <= 0 else 'finite'}, got {beta}")
    return min(float(n) ** (1.0 / (2.0 * float(beta) + 2.0)), float(p))


def taper_weight(i, j, k):
    """Weight for entry (i, j): 1 if |i-j| <= k/2, linear ramp below k, else 0.

    k is a positive number and i and j finite numbers (numpy's too, each
    taken as the Python number it equals, so a uint8 offset cannot wrap).
    """
    k = _check_real("bandwidth k", k)
    if not k > 0:
        raise ValueError("bandwidth k must be positive")
    # an offset past k weighs 0, as k does; min keeps an int offset too large
    # for a float out of the division
    return float(_offset_weight(min(abs(_check_index("i", i) - _check_index("j", j)), k), k))


def _check_index(name, value):
    """A `taper_weight` index as the Python number it equals; an int stays
    exact at any size, past the float range too."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    value = _check_real(f"index {name}", value)
    if not -np.inf < value < np.inf:  # NaN fails both comparisons
        raise ValueError(f"index {name} must be finite, got {value}")
    return value


def _offset_weight(d, k):
    """`taper_weight` at offsets d = |i-j| >= 0 (a number or an array), for a
    bandwidth k > 0 already checked."""
    return np.where(d <= k / 2.0, 1.0, np.maximum(1.0 - d / k, 0.0))


def _apply_taper(est, k):
    """Multiply a p x p estimate elementwise by the `taper_weight`s at bandwidth k,
    in place, and return it.

    Entries at |i-j| >= k become 0. k > 0 is a float, as `_taper_bandwidth`
    gives it. est must be exactly symmetric, as the C^T C of `_matrix` is;
    the weights are too, so the product needs no re-symmetrizing.
    """
    p = est.shape[0]
    half = _offset_weight(np.arange(p), k)
    weights = np.concatenate([half[:0:-1], half])  # one per offset j-i, from 1-p to p-1
    # row i of the reversed windows is weights[p-1-i : 2p-1-i], the offsets j-i of that row
    est *= np.lib.stride_tricks.sliding_window_view(weights, p)[::-1]
    return est


def _matrix(c, estimator, k):
    """The matrix whose spectrum the estimator's null law draws over, from the
    centred factor C of `statistic._pass`: plain as the smaller of C^T C and C C^T,
    which share their nonzero eigenvalues, tapered as the p x p C^T C at
    bandwidth k. Both products go through syrk, so they are exactly symmetric."""
    if estimator == TAPER:
        return _apply_taper(c.T @ c, k)
    return c.T @ c if c.shape[1] <= c.shape[0] else c @ c.T


def eigenvalues_sym(m):
    """All eigenvalues of a symmetric matrix m, sorted descending.

    m is taken in as a sample is (`_as_sample`), and must be square.
    `eigvalsh` reads only the lower triangle, so m must be exactly symmetric,
    as C^T C and C C^T from syrk are. Negative eigenvalues are kept verbatim:
    the null reference draws over them. It runs at one OpenBLAS thread
    (`_one_blas_thread`): at p >= 300 its last bits depend on the thread count.
    """
    a = _as_sample(m, "m")
    if a.shape[0] != a.shape[1]:
        raise ValueError("m must be a square 2-d array")
    with _one_blas_thread():
        return np.linalg.eigvalsh(a)[::-1].copy()
