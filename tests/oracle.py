"""Slow, literal references for the tests: the quadruple-sum statistic and
the null draws from one matrix of normals.

Not part of the package; the fast pair pass in `twosample.statistic` and
the blocked draws of `twosample.calibration` are checked against these.
"""

import numpy as np

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
