"""Slow, literal references for the tests: the quadruple-sum statistic,
the null draws from one matrix of normals, and the scenario data drawn
through full-size temporaries.

Not part of the package; the fast pair pass in `twosample.statistic`, the
blocked draws of `twosample.calibration` and the in-place sampler of
`twosample.datagen` are checked against these.
"""

import math

import numpy as np

from twosample.datagen import _AR_BLOCK, _FORM_RHO, parse_family, shift_vector
from twosample.statistic import IDENTITY, KERNELS, _check_choice, _check_pair


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

    Its memory is O(M k). Each spectrum column is its own matrix-vector
    product, as in the package.
    """
    lam = np.asarray(spectrum, dtype=float)
    z = rng.standard_normal((config.draws, lam.shape[0]))
    z *= z
    z -= 1.0
    return z @ lam if lam.ndim == 1 else np.array([z @ col for col in lam.T]).T


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
    _, nu = parse_family(config.family)
    correlate = correlator_out_of_place(config.cov_form, config.p)
    x = sample_out_of_place(np.zeros(config.p), correlate, nu, config.n1, rng)
    y = sample_out_of_place(shift_vector(config.p, config.deltas[0]), correlate, nu, config.n2, rng)
    return x, y
