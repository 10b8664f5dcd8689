"""Plain and tapered covariance estimators for the pair kernel, plus spectra."""

import numpy as np

from .statistic import pair_aggregates

_BETA = 0.25  # the default taper exponent beta of `_taper_bandwidth`'s callers


def estimate_plain(x, y, kernel):
    """Pooled outer-product estimator of the kernel covariance.

    (1/(n n1 n2)) [sum_i sx_i sx_i^T + sum_j sy_j sy_j^T] - dh dh^T with
    dh the pair mean, taken as C^T C for the centred factor C of
    `_centred_factor` and emitted exactly symmetric. It is positive
    semidefinite with rank at most n1+n2-2; the computed eigenvalues beyond
    that rank are rounding noise of either sign.
    """
    g, sx, sy, _ = pair_aggregates(x, y, kernel)
    c = _centred_factor(g, sx, sy)
    return c.T @ c


def _centred_factor(g, sx, sy):
    """The (n1+n2) x p factor C with C^T C the plain estimate.

    With s = n n1 n2, C = [sx - g/n1; sy - g/n2] / sqrt(s): the rows of sx
    and of sy each sum to g, so centring them subtracts the -dh dh^T term
    of the outer-product form. Centring first keeps the digits that form
    loses to cancellation when the mean is large against the spread.
    C^T C goes through syrk, so it is exactly symmetric; C C^T shares its
    nonzero eigenvalues.
    """
    n1, n2 = sx.shape[0], sy.shape[0]
    return np.vstack([sx - g / n1, sy - g / n2]) / np.sqrt((n1 + n2) * n1 * n2)


def _is_real(value):
    """An int or a float, not a bool; an int too large for a finite float is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _taper_bandwidth(beta, n, p):
    """Taper bandwidth k = min(n^(1/(2 beta + 2)), p) for a finite number beta > 0, kept real."""
    if not _is_real(beta):
        raise ValueError(f"beta must be a number, got {beta!r}")
    if not 0 < beta < np.inf:  # NaN fails both comparisons
        raise ValueError(f"beta must be {'finite' if beta > 0 else 'positive'}, got {beta}")
    return min(float(n) ** (1.0 / (2.0 * float(beta) + 2.0)), float(p))


def taper_weight(i, j, k):
    """Weight for entry (i, j): 1 if |i-j| <= k/2, linear ramp below k, else 0."""
    if not k > 0:
        raise ValueError("bandwidth k must be positive")
    d = abs(i - j)
    if d <= k / 2.0:
        return 1.0
    if d < k:
        return 1.0 - d / k
    return 0.0


def _apply_taper(est, k):
    """Multiply a p x p estimate elementwise by the `taper_weight`s at bandwidth k.

    Entries at |i-j| >= k become 0. est must be exactly symmetric, as the
    C^T C of `_centred_factor` is; the weights are too, so the product
    needs no re-symmetrizing.
    """
    p = est.shape[0]
    weights = np.array([taper_weight(0, d, k) for d in range(p)])  # one per offset |i-j|
    return est * weights[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))]


def eigenvalues_sym(m):
    """All eigenvalues of a symmetric matrix, sorted descending.

    `eigvalsh` reads only the lower triangle, so m must be exactly symmetric,
    as C^T C and C C^T from syrk are. Negative eigenvalues are kept verbatim:
    the null reference draws over them.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("m must be a square 2-d array")
    if not np.isfinite(a).all():
        raise ValueError("m contains non-finite entries")
    return np.linalg.eigvalsh(a)[::-1].copy()
