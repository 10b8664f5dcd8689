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


def pair_aggregates(x, y, kernel):
    """All sums over the n1*n2 kernel values h(x_i - y_j), with no loop over pairs.

    Returns (g, sx, sy, sumsq): the grand sum of h over all pairs, the
    per-row-of-x sums (n1 x p), the per-row-of-y sums (n2 x p), and the sum
    of ||h||^2 over all pairs. The statistic, the pair mean and the plain
    covariance estimate are all functions of this tuple.

    Both kernels depend only on x_i - y_j, so the rows are first centred on
    a row of x and scaled by a power of two. The identity kernel's sums then
    have a closed form in the column sums X and Y. The sign kernel weights
    each pair by w_ij = 1/||x_i - y_j||, from squared distances in Gram form,
    and takes sx = (W 1) o x - W y and sy = W^T x - (W^T 1) o y from two
    matrix products. Working memory is O((n1 + n2)^2 + (n1 + n2) p), plus
    O(p) for each pair close enough to be summed directly (`_sign_sums`).
    """
    mx, my = _check_pair(x, y)
    _check_kernel(kernel)
    # a data row subtracts exactly from the entries near its own, where a
    # mean would round them. The x row nearest the mean of x keeps a far-out
    # x[0] from making many pairs near; it is found from differences to x[0],
    # so integer translates of the data choose the same row and equal bits.
    dev = mx - mx[0]
    dev -= dev.mean(axis=0)
    centre = mx[np.argmin(np.einsum("ij,ij->i", dev, dev))]
    z = np.vstack([mx, my]) - centre
    e = int(np.frexp(np.max(np.abs(z)))[1])  # exact power-of-two scale
    z = np.ldexp(z, -e)
    if kernel == IDENTITY:
        n1 = mx.shape[0]
        return _identity_sums(z[:n1], z[n1:], e)
    return _sign_sums(mx, my, z)


def _identity_sums(zx, zy, e):
    """g = n2 X - n1 Y, sx_i = n2 x_i - Y, sy_j = X - n1 y_j, for z = 2^-e data."""
    n1, n2 = zx.shape[0], zy.shape[0]
    sum_x, sum_y = zx.sum(axis=0), zy.sum(axis=0)
    sumsq = (
        n2 * float(np.einsum("ij,ij->", zx, zx))
        + n1 * float(np.einsum("ij,ij->", zy, zy))
        - 2.0 * float(np.einsum("i,i->", sum_x, sum_y))
    )
    return (
        np.ldexp(n2 * sum_x - n1 * sum_y, e),
        np.ldexp(n2 * zx - sum_y, e),
        np.ldexp(sum_x - n1 * zy, e),
        float(np.ldexp(sumsq, 2 * e)),
    )


# tau: a sign-kernel pair with d^2 <= tau (|x|^2 + |y|^2), in centred
# coordinates, has lost the digits of d^2 to cancellation in the Gram form
_NEAR = 1e-4


def _sign_sums(mx, my, z):
    """Unit-vector sums of the sign kernel; z holds the centred, scaled rows."""
    n1 = mx.shape[0]
    zx, zy = z[:n1], z[n1:]
    # all norms and cross products from one symmetric product: its bits do
    # not depend on the BLAS thread count, while those of zx @ zy.T do
    gram = z @ z.T
    nsq = np.diag(gram)
    scale = nsq[:n1, None] + nsq[None, n1:]
    d2 = scale - 2.0 * gram[:n1, n1:]
    # a near pair gets weight 0, because w x_i - w y_j would cancel too
    near = d2 <= _NEAR * scale
    w = 1.0 / np.sqrt(np.where(near, 1.0, d2))
    w[near] = 0.0
    sx = w.sum(axis=1)[:, None] * zx - w @ zy
    sy = w.T @ zx - w.sum(axis=0)[:, None] * zy
    # its unit vector is added from the raw rows instead, which centring
    # would round, prescaled so that its squared norm cannot overflow
    sumsq = float(near.size - np.count_nonzero(near))
    if near.any():
        i, j = np.nonzero(near)
        h = mx[i]
        h -= my[j]
        top = np.max(np.abs(h), axis=1)
        keep = top > 0.0  # a tie x_i == y_j has kernel value 0
        if not keep.all():
            i, j, h, top = i[keep], j[keep], h[keep], top[keep]
        h /= top[:, None]
        h /= np.sqrt(np.einsum("ij,ij->i", h, h))[:, None]
        _add_rows(sx, h, i)
        _add_rows(sy, h, j)
        sumsq += i.size
    return sx.sum(axis=0), sx, sy, sumsq


def _add_rows(out, rows, index):
    """out[index[k]] += rows[k] for every k, one update per distinct index.

    The rows of each index are summed first with np.add.reduceat over a
    stable sort, which costs a fraction of np.add.at's scatter of every row.
    """
    if index.size == 0:
        return
    order = np.argsort(index, kind="stable")
    index, rows = index[order], rows[order]
    starts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])
    out[index[starts]] += np.add.reduceat(rows, starts, axis=0)


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


def _recentred_statistic(stat, g, n1, n2, delta):
    """T(delta) from T and the grand sum g of one pair pass, in closed form.

    Replacing every kernel value h by h - delta gives
    T(delta) = T + (n1-1)(n2-1)(n1 n2 ||delta||^2 - 2 delta.g) / (n n1 n2).
    At delta = 0 the correction is exactly 0.0, so T comes back unchanged.
    """
    correction = (n1 - 1) * (n2 - 1) * (n1 * n2 * float(delta @ delta) - 2.0 * float(delta @ g))
    return stat + correction / ((n1 + n2) * n1 * n2)
