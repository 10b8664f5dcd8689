"""Plain and tapered covariance estimators for the pair kernel, plus spectra."""

import numpy as np

from .statistic import pair_aggregates


def _symmetrize(a):
    return (a + a.T) / 2.0


def estimate_plain(x, y, kernel):
    """Pooled outer-product estimator of the kernel covariance.

    (1/(n n1 n2)) [sum_i sx_i sx_i^T + sum_j sy_j sy_j^T] - dh dh^T with
    dh the pair mean, emitted exactly symmetric. In exact arithmetic it is
    positive semidefinite with rank at most n1+n2-2 (see `_plain_gram`); the
    computed eigenvalues beyond that rank are rounding noise of either sign.
    """
    g, sx, sy, _ = pair_aggregates(x, y, kernel)
    return _plain_from_aggregates(g, sx, sy)


def _plain_from_aggregates(g, sx, sy):
    """The estimate_plain matrix from the sums of one pair pass."""
    n1, n2 = sx.shape[0], sy.shape[0]
    n = n1 + n2
    dh = g / (n1 * n2)
    est = (sx.T @ sx + sy.T @ sy) / (n * n1 * n2) - np.outer(dh, dh)
    return _symmetrize(est)


def _plain_gram(g, sx, sy):
    """A min(p, n1+n2)-square matrix with the nonzero spectrum of the plain estimate.

    With s = n n1 n2 the plain estimate is exactly C^T C for the row-centred
    C = [sx - g/n1; sy - g/n2] / sqrt(s): the rows of sx and of sy each sum
    to g, so the -dh dh^T term is what centring them subtracts. C^T C and
    C C^T share their nonzero eigenvalues; the smaller product is returned.
    """
    n1, n2 = sx.shape[0], sy.shape[0]
    n = n1 + n2
    c = np.vstack([sx - g / n1, sy - g / n2]) / np.sqrt(n * n1 * n2)
    return c.T @ c if c.shape[1] <= n else c @ c.T


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _taper_bandwidth(beta, n, p):
    """Taper bandwidth k = min(n^(1/(2 beta + 2)), p) for a number beta > 0, kept real."""
    if not _is_real(beta):
        raise ValueError(f"beta must be a number, got {beta!r}")
    if not beta > 0:
        raise ValueError("beta must be positive")
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

    Entries at |i-j| >= k become 0. est must be exactly symmetric, as
    `_plain_from_aggregates` emits it; the weights are too, so the product
    needs no re-symmetrizing.
    """
    p = est.shape[0]
    weights = np.array([taper_weight(0, d, k) for d in range(p)])  # one per offset |i-j|
    return est * weights[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))]


def eigenvalues_sym(m):
    """All eigenvalues of a symmetric matrix, sorted descending.

    Negative eigenvalues are retained; callers that feed the spectrum into
    the null reference expect them verbatim.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("m must be a square 2-d array")
    if not np.isfinite(a).all():
        raise ValueError("m contains non-finite entries")
    lam = np.linalg.eigvalsh(_symmetrize(a))
    return lam[::-1].copy()
