"""Two-sample kernel U-statistic with identity and spatial-sign kernels."""

import numpy as np

IDENTITY = "identity"
SIGN = "sign"
KERNELS = (IDENTITY, SIGN)


def _as_sample(a, name):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d array with at least one row and one column")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_pair(x, y):
    mx = _as_sample(x, "x")
    my = _as_sample(y, "y")
    if mx.shape[1] != my.shape[1]:
        raise ValueError(
            f"dimension mismatch: x has {mx.shape[1]} columns, y has {my.shape[1]}"
        )
    return mx, my


def _check_kernel(kernel):
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


def _unit(d):
    # scale by the largest magnitude first so the squared norm cannot
    # overflow or underflow for extreme but finite differences
    m = np.max(np.abs(d))
    if m == 0.0:
        return np.zeros_like(d)
    s = d / m
    return s / np.sqrt(s @ s)


def _sign_rows(h):
    """Normalize the rows of h to unit length; exactly-zero rows stay zero."""
    nsq = np.einsum("ij,ij->i", h, h)
    ok = np.isfinite(nsq) & (nsq > 0.0)
    out = h / np.sqrt(np.where(ok, nsq, 1.0))[:, None]
    if not ok.all():
        zero = ~h.any(axis=1)
        # rows whose squared norm over- or underflowed get the prescaled path
        for r in np.flatnonzero(~ok & ~zero):
            out[r] = _unit(h[r])
        out[zero] = 0.0
    return out


def pair_aggregates(x, y, kernel):
    """One streaming pass over all n1*n2 kernel evaluations.

    Returns (g, sx, sy, sumsq): the grand sum of h over all pairs, the
    per-row-of-x sums (n1 x p), the per-row-of-y sums (n2 x p), and the sum
    of ||h||^2 over all pairs. The statistic, the pair mean and the plain
    covariance estimate are all functions of this tuple. Kernel blocks are
    formed one x-row at a time, so memory stays O((n1 + n2) * p).
    """
    mx, my = _check_pair(x, y)
    _check_kernel(kernel)
    n1, p = mx.shape
    n2 = my.shape[0]
    sx = np.empty((n1, p))
    sy = np.zeros((n2, p))
    sumsq = 0.0
    for i in range(n1):
        h = mx[i] - my
        if kernel == SIGN:
            h = _sign_rows(h)
        sx[i] = h.sum(axis=0)
        sy += h
        sumsq += float(np.einsum("ij,ij->", h, h))
    return sx.sum(axis=0), sx, sy, sumsq


def _statistic_from_aggregates(g, sx, sy, sumsq):
    n1, n2 = sx.shape[0], sy.shape[0]
    if n1 < 2 or n2 < 2:
        return 0.0  # the off-diagonal index sets are empty
    n = n1 + n2
    total = (
        float(g @ g)
        - float(np.einsum("ij,ij->", sx, sx))
        - float(np.einsum("ij,ij->", sy, sy))
        + sumsq
    )
    return total / (n * n1 * n2)


def compute_statistic(x, y, kernel):
    """Two-sample statistic T over all pairs with distinct x-rows and y-rows.

    Evaluated in the four-term norm form
    (||g||^2 - sum_i ||sx_i||^2 - sum_j ||sy_j||^2 + sum_ij ||h_ij||^2) / (n n1 n2),
    which never materializes the n1*n2 kernel vectors at once.
    """
    return _statistic_from_aggregates(*pair_aggregates(x, y, kernel))


def compute_statistic_centered(x, y, kernel, delta):
    """Statistic with every kernel value recentered by `delta` before summing.

    Closed form in the pair sums: replacing h by h - delta gives
    T(delta) = T + (n1-1)(n2-1)(n1 n2 ||delta||^2 - 2 delta.g) / (n n1 n2).
    """
    g, sx, sy, sumsq = pair_aggregates(x, y, kernel)
    (n1, p), n2 = sx.shape, sy.shape[0]
    d = np.asarray(delta, dtype=float)
    if d.shape != (p,):
        raise ValueError(f"delta must have length {p}")
    if not np.isfinite(d).all():
        raise ValueError("delta contains non-finite entries")
    correction = (n1 - 1) * (n2 - 1) * (n1 * n2 * float(d @ d) - 2.0 * float(d @ g))
    return _statistic_from_aggregates(g, sx, sy, sumsq) + correction / ((n1 + n2) * n1 * n2)


def compute_statistic_oracle(x, y, kernel):
    """Literal quadruple-sum evaluation, for cross-checking on small inputs.

    Cost is O(n1^2 n2^2 p); intended for n1 * n2 up to about 100.
    """
    mx, my = _check_pair(x, y)
    _check_kernel(kernel)
    n1, p = mx.shape
    n2 = my.shape[0]
    n = n1 + n2
    h = np.empty((n1, n2, p))
    for i in range(n1):
        for j in range(n2):
            d = mx[i] - my[j]
            h[i, j] = d if kernel == IDENTITY else _unit(d)
    total = 0.0
    for i1 in range(n1):
        for i2 in range(n1):
            if i2 == i1:
                continue
            for j1 in range(n2):
                for j2 in range(n2):
                    if j2 == j1:
                        continue
                    total += float(h[i1, j1] @ h[i2, j2])
    return total / (n * n1 * n2)
