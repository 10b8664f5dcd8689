"""Plain and tapered covariance estimators for the pair kernel, plus spectra."""

from dataclasses import dataclass

import numpy as np

from .statistic import pair_aggregates


def _symmetrize(a):
    return (a + a.T) / 2.0


def delta_hat(x, y, kernel):
    """Mean of the kernel over all n1*n2 pairs.

    For the identity kernel this equals mean(x) - mean(y) exactly up to
    summation order.
    """
    g, sx, sy, _ = pair_aggregates(x, y, kernel)
    return g / (sx.shape[0] * sy.shape[0])


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


@dataclass(frozen=True)
class TaperSpec:
    """Taper bandwidth: weights ramp from 1 inside k/2 down to 0 at k."""

    beta: float
    k: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.k > 0:
            raise ValueError("bandwidth k must be positive")

    @classmethod
    def derive(cls, beta, n, p):
        """Bandwidth k = min(n^(1/(2 beta + 2)), p), kept real-valued."""
        if not beta > 0:
            raise ValueError("beta must be positive")
        if n < 1 or p < 1:
            raise ValueError("n and p must be at least 1")
        k = min(float(n) ** (1.0 / (2.0 * float(beta) + 2.0)), float(p))
        return cls(beta=float(beta), k=k)


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


def _weight_matrix(p, k):
    d = np.abs(np.subtract.outer(np.arange(p, dtype=float), np.arange(p, dtype=float)))
    return np.where(d <= k / 2.0, 1.0, np.where(d < k, 1.0 - d / k, 0.0))


def estimate_tapered(x, y, kernel, taper):
    """Elementwise taper of the plain estimator; entries at |i-j| >= k are 0."""
    return _apply_taper(estimate_plain(x, y, kernel), taper)


def _apply_taper(est, taper):
    """Multiply a p x p estimate elementwise by the taper weights."""
    return _symmetrize(est * _weight_matrix(est.shape[0], taper.k))


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
