"""Slow, literal references for the tests: the quadruple-sum statistic,
the null draws from one matrix of normals, the dense covariance of each
scenario form, the scenario data drawn through full-size temporaries, the
p x p plain estimate, and the pair pass, centred factor and taper that
build each result through temporaries. Also the one CSV writer of the
command-line tests, and the replications that inject a fault into the
simulation harness.

Not part of the package; the fast pair pass in `twosample.statistic`, the
blocked draws of `twosample.calibration`, the closed-form factors and
in-place sampler of `twosample.datagen` and the in-place pair pass and
estimates of `twosample.statistic` and `twosample.covariance` are checked
against these. They take no input checks of their own.
"""

import math
import os

import numpy as np

from twosample import experiments
from twosample._blas import _one_blas_thread
from twosample.datagen import _AR_BLOCK, _FORM_RHO, parse_family, shift_vector
from twosample.covariance import TAPER, _centred_factor, taper_weight
from twosample.statistic import (
    _NEAR,
    IDENTITY,
    KERNELS,
    _check_choice,
    _check_pair,
    _finite,
    _pass,
)


def unit(d):
    """d / ||d||, prescaled by its largest magnitude so the squared norm
    cannot overflow or underflow; a zero vector stays zero."""
    m = np.max(np.abs(d))
    if m == 0.0:
        return np.zeros_like(d)
    s = d / m
    return s / np.sqrt(s @ s)


def compute_statistic_oracle(x, y, kernel):
    """Literal quadruple-sum evaluation, for cross-checking on small inputs.

    Cost is O(n1^2 n2^2 p); intended for n1 * n2 up to about 100.
    """
    mx, my = _check_pair(x, y)
    _check_choice("kernel", kernel, KERNELS)
    n1, p = mx.shape
    n2 = my.shape[0]
    n = n1 + n2
    h = np.empty((n1, n2, p))
    for i in range(n1):
        for j in range(n2):
            d = mx[i] - my[j]
            h[i, j] = d if kernel == IDENTITY else unit(d)
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


def null_draws_one_matrix(spectrum, config, rng):
    """`simulate_null_draws` from one config.draws x k matrix of normals.

    Its memory is O(M k). All spectra reduce it in one einsum over their
    contiguous rows, as in the package.
    """
    lam = np.asarray(spectrum, dtype=float)
    z = rng.standard_normal((config.draws, lam.shape[0]))
    z *= z
    z -= 1.0
    cols = np.ascontiguousarray(lam.T if lam.ndim == 2 else lam[None, :])
    out = np.einsum("ij,sj->si", z, cols)
    return out.T if lam.ndim == 2 else out[0]


def scenario_sigma(cov_form, p):
    """The dense p x p covariance of a named scenario form at its fixed correlation."""
    rho = _FORM_RHO[cov_form]
    if cov_form == "equicorr":
        sigma = np.full((p, p), rho)
        np.fill_diagonal(sigma, 1.0)
        return sigma
    if cov_form == "identity":
        return np.eye(p)
    # ar: rho^|i-j|
    d = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return rho**d


def estimate_plain(x, y, kernel):
    """The p x p plain estimate C^T C, C the centred factor of one pair pass."""
    c = _centred_factor(*_pass(x, y, kernel)[:3])
    return c.T @ c


def correlator_out_of_place(cov_form, p):
    """`datagen._correlator` as of 0.31.0: each map writes z Lᵀ into a new array."""
    rho = _FORM_RHO[cov_form]
    if cov_form == "identity":
        return lambda z: z
    if cov_form == "equicorr":
        a = 1.0 - rho
        r = rho * a / (a + rho * np.arange(p))
        diag = np.sqrt(a + r)
        below = r[:-1] / diag[:-1]

        def equicorr(z):
            x = z * diag
            x[:, 1:] += np.add.accumulate(z[:, :-1] * below, axis=1)
            return x

        return equicorr
    t = np.arange(1, _AR_BLOCK + 1)
    up = math.sqrt(1.0 - rho * rho) * rho**-t
    down = rho**t

    def ar(z):
        x = np.empty_like(z)
        x[:, 0] = z[:, 0]
        for k in range(1, p, _AR_BLOCK):
            block = x[:, k : k + _AR_BLOCK]
            b = block.shape[1]
            np.add.accumulate(z[:, k : k + b] * up[:b], axis=1, out=block)
            block += x[:, k - 1 : k]
            block *= down[:b]
        return x

    return ar


def sample_out_of_place(loc, correlate, nu, n, rng):
    """`datagen._sample` as of 0.31.0: loc plus the correlated draw, out of place."""
    p = loc.size
    if nu is None:
        return loc + correlate(rng.standard_normal((n, p)))
    draw = rng.standard_normal((n, p + nu))
    w = np.einsum("ij,ij->i", draw[:, p:], draw[:, p:])  # chi-square(nu) per row
    return loc + correlate(draw[:, :p]) / np.sqrt(w / nu)[:, None]


def scenario_out_of_place(config, rng):
    """`generate_scenario` through the out-of-place maps above."""
    nu = parse_family(config.family)
    correlate = correlator_out_of_place(config.cov_form, config.p)
    x = sample_out_of_place(np.zeros(config.p), correlate, nu, config.n1, rng)
    y = sample_out_of_place(shift_vector(config.p, config.deltas[0]), correlate, nu, config.n2, rng)
    return x, y


def pair_aggregates_out_of_place(x, y, kernel):
    """`statistic.pair_aggregates` as of 0.32.0: each array through new temporaries.

    As the package's pass does since 0.34.0, it raises `_finite`'s error
    when an output overflows, and it runs its products at one OpenBLAS
    thread, as the package's pass does since 0.35.0.
    """
    mx, my = _check_pair(x, y)
    _check_choice("kernel", kernel, KERNELS)
    with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
        sums = _sums_out_of_place(mx, my, kernel)
    for part in sums:
        _finite(part, kernel)
    return sums


def _sums_out_of_place(mx, my, kernel):
    dev = mx - mx[0]
    dev -= dev.mean(axis=0)
    centre = mx[np.argmin(np.einsum("ij,ij->i", dev, dev))]
    z = np.vstack([mx, my]) - centre
    e = int(np.frexp(np.max(np.abs(z)))[1])
    z = np.ldexp(z, -e)
    n1 = mx.shape[0]
    zx, zy = z[:n1], z[n1:]
    if kernel == IDENTITY:
        if 2 * e < np.finfo(float).minexp + np.finfo(float).nmant:
            raise ValueError(
                "x and y are too small in magnitude for the identity kernel: "
                "its pair sums underflow; rescale the data"
            )
        n2 = zy.shape[0]
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
    gram = z @ z.T
    nsq = np.diag(gram)
    scale = nsq[:n1, None] + nsq[None, n1:]
    d2 = scale - 2.0 * gram[:n1, n1:]
    near = d2 <= _NEAR * scale
    w = 1.0 / np.sqrt(np.where(near, np.inf, d2))
    sx = w.sum(axis=1)[:, None] * zx - w @ zy
    sy = w.T @ zx - w.sum(axis=0)[:, None] * zy
    sumsq = float(near.size - np.count_nonzero(near))
    for i in np.flatnonzero(near.any(axis=1)):
        j = np.flatnonzero(near[i])
        h = mx[i] - my[j]
        top = np.max(np.abs(h), axis=1)
        keep = top > 0.0
        j, h, top = j[keep], h[keep], top[keep]
        h /= top[:, None]
        h /= np.sqrt(np.einsum("ij,ij->i", h, h))[:, None]
        sx[i] += h.sum(axis=0)
        sy[j] += h
        sumsq += j.size
    return sx.sum(axis=0), sx, sy, sumsq


def centred_factor_out_of_place(g, sx, sy):
    """`covariance._centred_factor` as of 0.32.0: both halves centred into new arrays."""
    n1, n2 = sx.shape[0], sy.shape[0]
    return np.vstack([sx - g / n1, sy - g / n2]) / np.sqrt((n1 + n2) * n1 * n2)


def apply_taper_out_of_place(est, k):
    """`covariance._apply_taper` as of 0.32.0: the product in a new array, est kept."""
    p = est.shape[0]
    half = [taper_weight(0, d, k) for d in range(p)]
    weights = np.array(half[:0:-1] + half)
    return est * np.lib.stride_tricks.sliding_window_view(weights, p)[::-1]


def estimate_out_of_place(x, y, kernel, estimator, k):
    """The estimate of `covariance._estimate` from the three references above."""
    c = centred_factor_out_of_place(*pair_aggregates_out_of_place(x, y, kernel)[:3])
    if estimator == TAPER:
        return apply_taper_out_of_place(c.T @ c, k)
    return c.T @ c if c.shape[1] <= c.shape[0] else c @ c.T


def write_matrix(path, matrix):
    """Write matrix to path as the CSV that `load_matrix_csv` reads: one row a
    line, each value as the repr of its float, so it reads back exactly."""
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def second_scenario_fails(config, r):
    """A replication that raises ValueError in the scenario named "second"."""
    if config.scenario_id == "second":
        raise ValueError(f"replication {r} of {config.scenario_id} failed")
    return [False] * len(config.deltas)


def worker_exits(caller, replicate=experiments._replicate):
    """A replication that ends any process but `caller` with exit code 3."""

    def spy(config, r):
        if os.getpid() != caller:
            os._exit(3)
        return replicate(config, r)

    return spy


def worker_raises(caller, replicate=experiments._replicate):
    """A replication that raises ValueError, naming its process id, in any
    process but `caller`."""

    def spy(config, r):
        if os.getpid() != caller:
            raise ValueError(f"replication {r} failed in process {os.getpid()}")
        return replicate(config, r)

    return spy
