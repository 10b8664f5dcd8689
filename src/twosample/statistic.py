"""Two-sample kernel U-statistic with identity and spatial-sign kernels."""

import numbers

import numpy as np

from ._blas import _one_blas_thread

IDENTITY = "identity"
SIGN = "sign"
KERNELS = (IDENTITY, SIGN)
_MIN_ROWS = 2  # per sample: the statistic sums over pairs of distinct rows


def _is_real(value):
    """A real number (numpy's too), not a bool; an int too large for a finite float is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _check_int(name, value, low=None):
    """value as a Python int; reject a non-integer (a bool included) or one below low, naming it."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _check_real(name, value):
    """value as the Python int or float it equals, as JSON and repr write it; reject a
    non-number (a bool included, see `_is_real`), naming it."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else float(value)


def _as_real(a, name):
    """a as a float array. Only bool, int and float arrays, and object arrays
    whose every element is a bool or a real number (`_is_real`), are taken;
    complex, text or None data, which a cast would silently truncate, parse
    or turn into NaN, raise naming a."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "biufO" or (
        arr.dtype.kind == "O"
        and not all(isinstance(v, (bool, np.bool_)) or _is_real(v) for v in arr.flat)
    ):
        raise ValueError(f"{name} must hold real numbers, got {arr.dtype} data")
    return arr.astype(float, copy=False)


def _as_sample(a, name):
    m = _as_real(a, name)
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


def _varies(mx, my):
    """Per column, whether it varies within x or within y, by exact comparison with row 0."""
    return (mx != mx[0]).any(axis=0) | (my != my[0]).any(axis=0)


def _check_varies(mx, my, where=""):
    """Reject x and y that are each constant, whose kernel covariance estimate is 0.

    A sample of fewer than `_MIN_ROWS` rows is left to the two-rows rule of `_pass`.
    """
    if min(len(mx), len(my)) >= _MIN_ROWS and not _varies(mx, my).any():
        raise ValueError(
            f"{where}x and y are each constant: every row of x equals x[0] and every row "
            "of y equals y[0], so the covariance estimate is 0 and the test has no null law"
        )


def _check_choice(what, value, choices):
    # `in` compares by ==, which a one-element numpy array would pass
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")


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
    matrix products. Each result is written in place into a buffer already
    held, with the operations of the out-of-place pass in the same order:
    sx and sy over the centred rows, the weights over the squared
    distances. Beside the (n1 + n2) x p rows, working memory is at most the
    (n1 + n2)^2 Gram matrix and one n1 x n2 array, then two n1 x n2 arrays
    and a boolean mask, then the weights, the mask and the two products,
    another (n1 + n2) x p; plus O(n2 p) for the near pairs, summed one row
    of x at a time (`_sign_sums`). Huge data whose sums overflow raise
    `_finite`'s error, as the statistic does. The sign kernel's matrix
    products run at one OpenBLAS thread (`_one_blas_thread`), so the sums
    do not depend on the caller's BLAS thread count.
    """
    mx, my = _check_pair(x, y)
    _check_choice("kernel", kernel, KERNELS)
    # a data row subtracts exactly from the entries near its own, where a
    # mean would round them. The x row nearest the mean of x keeps a far-out
    # x[0] from making many pairs near; it is found from differences to x[0],
    # so integer translates of the data choose the same row and equal bits.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = mx - mx[0]
        dev -= dev.mean(axis=0)
        centre = mx[np.argmin(np.einsum("ij,ij->i", dev, dev))]
        del dev
        z = np.vstack([mx, my])
        z -= centre
        e = int(np.frexp(max(z.max(), -z.min()))[1])  # exact power-of-two scale of max |z|
        np.ldexp(z, -e, out=z)
        if kernel == IDENTITY:
            n1 = mx.shape[0]
            sums = _identity_sums(z[:n1], z[n1:], e)
        else:
            with _one_blas_thread():
                sums = _sign_sums(mx, my, z)
    for part in sums:
        _finite(part, kernel)
    return sums


def _identity_sums(zx, zy, e):
    """g = n2 X - n1 Y, sx_i = n2 x_i - Y, sy_j = X - n1 y_j, for z = 2^-e data;
    sx and sy are written over zx and zy."""
    # the sums of squares are 2^2e times values of order 1; below this 2e,
    # those within 2^-52 of that order would be subnormal and lose digits
    if 2 * e < np.finfo(float).minexp + np.finfo(float).nmant:
        raise ValueError(
            "x and y are too small in magnitude for the identity kernel: "
            "its pair sums underflow; rescale the data"
        )
    n1, n2 = zx.shape[0], zy.shape[0]
    sum_x, sum_y = zx.sum(axis=0), zy.sum(axis=0)
    sumsq = (
        n2 * float(np.einsum("ij,ij->", zx, zx))
        + n1 * float(np.einsum("ij,ij->", zy, zy))
        - 2.0 * float(np.einsum("i,i->", sum_x, sum_y))
    )
    zx *= n2
    zx -= sum_y
    zy *= n1
    np.subtract(sum_x, zy, out=zy)
    return (
        np.ldexp(n2 * sum_x - n1 * sum_y, e),
        np.ldexp(zx, e, out=zx),
        np.ldexp(zy, e, out=zy),
        float(np.ldexp(sumsq, 2 * e)),
    )


# tau: a sign-kernel pair with d^2 <= tau (|x|^2 + |y|^2), in centred
# coordinates, has lost the digits of d^2 to cancellation in the Gram form
_NEAR = 1e-4


def _sign_sums(mx, my, z):
    """Unit-vector sums of the sign kernel; z holds the centred, scaled rows,
    and sx and sy are written over them."""
    n1 = mx.shape[0]
    zx, zy = z[:n1], z[n1:]
    # all norms and cross products from one symmetric product. OpenBLAS
    # splits this product, w @ zy and w.T @ zx over threads at some sizes,
    # which moves their last bits, so `pair_aggregates` runs them at one thread
    gram = z @ z.T
    nsq = np.diag(gram).copy()
    # d2 = scale + (-2 gram) has the bits of scale - 2 gram; the Gram matrix
    # is freed before scale is formed
    d2 = gram[:n1, n1:] * -2.0
    del gram
    scale = nsq[:n1, None] + nsq[None, n1:]
    d2 += scale
    # a near pair gets weight 0, because w x_i - w y_j would cancel too
    scale *= _NEAR
    near = d2 <= scale
    del scale
    d2[near] = np.inf
    w = np.sqrt(d2, out=d2)
    np.divide(1.0, w, out=w)  # 1/sqrt(inf) is +0.0
    # both products read the centred rows before sx and sy overwrite them
    wy, wx = w @ zy, w.T @ zx
    zx *= w.sum(axis=1)[:, None]
    zx -= wy
    zy *= w.sum(axis=0)[:, None]
    np.subtract(wx, zy, out=zy)
    del wx, wy
    sx, sy = zx, zy
    # its unit vector is added from the raw rows instead, which centring
    # would round, prescaled so that its squared norm cannot overflow, one
    # row of x at a time, so that at most n2 of them are held at once
    n_near = np.count_nonzero(near)
    sumsq = float(near.size - n_near)
    # the count, already taken, skips the scan of an all-False mask for near rows
    for i in np.flatnonzero(near.any(axis=1)) if n_near else ():
        j = np.flatnonzero(near[i])
        h = mx[i] - my[j]
        top = np.max(np.abs(h), axis=1)
        keep = top > 0.0  # a tie x_i == y_j has kernel value 0
        j, h, top = j[keep], h[keep], top[keep]
        h /= top[:, None]
        h /= np.sqrt(np.einsum("ij,ij->i", h, h))[:, None]
        sx[i] += h.sum(axis=0)
        sy[j] += h  # the j of one row are distinct
        sumsq += j.size
    return sx.sum(axis=0), sx, sy, sumsq


def _finite(stat, kernel):
    """stat, or a ValueError naming x, y and the kernel whose pair sums overflowed
    if any entry of stat is not finite."""
    if not np.isfinite(stat).all():
        raise ValueError(
            f"x and y are too large in magnitude for the {kernel} kernel: "
            "its pair sums overflow; rescale the data"
        )
    return stat


def _pass(x, y, kernel):
    """One pair pass: the grand sum g, the statistic T and the (n1+n2) x p
    centred factor C, with T in the four-term norm form
    (||g||^2 - sum_i ||sx_i||^2 - sum_j ||sy_j||^2 + sum_ij ||h_ij||^2) / (n n1 n2).

    C^T C is the plain estimate: the pooled outer-product estimator
    (1/(n n1 n2)) [sum_i sx_i sx_i^T + sum_j sy_j sy_j^T] - dh dh^T of the
    kernel covariance, dh the pair mean. It is positive semidefinite with
    rank at most n1+n2-2. With s = n n1 n2, C = [sx - g/n1; sy - g/n2] / sqrt(s):
    the rows of sx and of sy each sum to g, so centring them subtracts the
    -dh dh^T term of the outer-product form. Centring first keeps the digits
    that form loses to cancellation when the mean is large against the
    spread. sx and sy are stacked once, into C, then centred and scaled in place.

    x or y of fewer than `_MIN_ROWS` rows raise, as do huge data that
    overflow the pair sums or T (`_finite`). A finite T bounds C, C^T C and
    C C^T, as its terms do.
    """
    # a module global, so a wrapper set on statistic.pair_aggregates sees the pass
    g, sx, sy, sumsq = pair_aggregates(x, y, kernel)
    n1, n2 = sx.shape[0], sy.shape[0]
    if min(n1, n2) < _MIN_ROWS:
        raise ValueError(f"x and y need at least two rows each: x has {n1}, y has {n2}")
    s = (n1 + n2) * n1 * n2
    with np.errstate(over="ignore", invalid="ignore"):
        total = (
            float(g @ g)
            - float(np.einsum("ij,ij->", sx, sx))
            - float(np.einsum("ij,ij->", sy, sy))
            + sumsq
        )
        stat = _finite(total / s, kernel)
    c = np.vstack([sx, sy])
    del sx, sy
    c[:n1] -= g / n1
    c[n1:] -= g / n2
    c /= np.sqrt(s)
    return g, stat, c


def compute_statistic(x, y, kernel):
    """Two-sample statistic T over all pairs with distinct x-rows and y-rows.

    Evaluated from the sums of one pair pass (`_pass`), which never
    materializes the n1*n2 kernel vectors at once; the pass's centred
    factor C, one (n1+n2) x p array, is dropped. It runs at one OpenBLAS
    thread (`_one_blas_thread`), so T does not depend on the caller's BLAS
    thread count.
    """
    with _one_blas_thread():
        return _pass(x, y, kernel)[1]


def _recentred_statistic(stat, g, n1, n2, delta):
    """T(delta) from T and the grand sum g of one pair pass, in closed form.

    Replacing every kernel value h by h - delta gives
    T(delta) = T + (n1-1)(n2-1)(n1 n2 ||delta||^2 - 2 delta.g) / (n n1 n2).
    At delta = 0 the correction is exactly 0.0, so T comes back unchanged.
    A delta so far out that T(delta) overflows raises the identity kernel's error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        correction = (n1 - 1) * (n2 - 1) * (n1 * n2 * float(delta @ delta) - 2.0 * float(delta @ g))
        return _finite(stat + correction / ((n1 + n2) * n1 * n2), IDENTITY)
