"""Covariance structures, shift vectors, and elliptical samplers for simulations."""

import math

import numpy as np

from .statistic import _check_int, _is_real

# correlation levels used by the named simulation designs
_FORM_RHO = {"equicorr": 0.5, "identity": 0.0, "ar": 0.75}
COV_FORMS = tuple(_FORM_RHO)


def shift_vector(p, delta):
    """delta times the unit vector along (1, 2, ..., p), for a finite delta >= 0."""
    p = _check_int("p", p, 1)
    if not (_is_real(delta) and math.isfinite(delta) and delta >= 0):
        raise ValueError(f"deltas must be finite and nonnegative, got {delta!r}")
    v = np.arange(1, p + 1, dtype=float)
    # |v|^2 = p(p+1)(2p+1)/6, exact in Python ints, so the norm takes no BLAS call
    return (float(delta) / math.sqrt(p * (p + 1) * (2 * p + 1) // 6)) * v


# columns per block of the ar recursion; rho^-64 stays finite for any rho >= 1e-4
_AR_BLOCK = 64


def _correlate(z, cov_form):
    """Overwrite the rows of z with z Lᵀ and return z, L the Cholesky factor
    of the form's p x p correlation matrix (p = z.shape[1]): rho =
    `_FORM_RHO[cov_form]` off the diagonal for equicorr, the identity, and
    rho^|i-j| for ar.

    Each form's L has a closed form, applied row by row in O(n p) without a
    p x p matrix or BLAS, so its bits do not depend on the BLAS thread count
    or on how many rows z stacks. The working memory beyond z is O(p) plus
    at most one block of _AR_BLOCK + 1 columns.
    """
    rho = _FORM_RHO[cov_form]
    p = z.shape[1]
    if cov_form == "equicorr":
        # after j columns the Schur complement is a I + r_j 1 1ᵀ, with
        # 1/r_j = 1/rho + j/a; so L_jj = sqrt(a + r_j), and r_j / L_jj below
        # it. They are built in place, as z is already held; the last entry
        # of below feeds only a sum that no column takes
        a = 1.0 - rho
        r = np.arange(p, dtype=float)
        r *= rho
        r += a
        np.divide(rho * a, r, out=r)
        diag = r + a
        np.sqrt(diag, out=diag)
        below = np.divide(r, diag, out=r)
        # x_j = diag_j z_j + S_{j-1}, S_j = sum_{i<=j} below_i z_i summed in
        # column order. Column 0 of s carries S up to the block's first
        # column; it starts at -0.0, which adds to any float exactly
        s = np.full((z.shape[0], _AR_BLOCK + 1), -0.0)
        for k in range(0, p, _AR_BLOCK):
            block = z[:, k : k + _AR_BLOCK]
            b = block.shape[1]
            np.multiply(block, below[k : k + b], out=s[:, 1 : b + 1])
            np.add.accumulate(s[:, : b + 1], axis=1, out=s[:, : b + 1])
            block *= diag[k : k + b]
            block += s[:, :b]
            s[:, 0] = s[:, b]
    elif cov_form == "ar":
        # x_0 = z_0 and x_i = rho x_{i-1} + s z_i, s = sqrt(1 - rho^2). After
        # column k, x_{k+t} = rho^t (x_k + s sum_{u<=t} rho^-u z_{k+u}): one
        # cumulative sum per block of columns, each term back at unit scale
        t = np.arange(1, _AR_BLOCK + 1)
        up = math.sqrt(1.0 - rho * rho) * rho**-t
        down = rho**t
        # block by block in place: column k - 1 already holds x_{k-1}
        for k in range(1, p, _AR_BLOCK):
            block = z[:, k : k + _AR_BLOCK]
            b = block.shape[1]
            block *= up[:b]
            np.add.accumulate(block, axis=1, out=block)
            block += z[:, k - 1 : k]
            block *= down[:b]
    return z


def parse_family(family):
    """The degrees of freedom nu of a scenario family: None for gaussian, 1 for
    cauchy, k for t<k>.

    The name is a str, and k is written in ASCII digits.
    """
    # == on a numpy array compares elementwise, so refuse a non-str first
    if isinstance(family, str):
        if family == "gaussian":
            return None
        if family == "cauchy":
            return 1
        nu = family[1:] if family.startswith("t") else ""
        # str.isdigit also takes "²", which int() refuses, and non-ASCII digits
        if nu.isascii() and nu.isdigit() and int(nu) >= 1:
            return int(nu)
    raise ValueError(f"unknown family {family!r}; expected gaussian, cauchy, or t<k>")


def generate_scenario(config, rng):
    """Draw (x, y) for a single-delta scenario.

    x is sampled at the origin and y at shift_vector(p, delta), sharing the
    family and the covariance form's closed-form Cholesky factor
    (`_correlate`). Both are row blocks of one draw of n1 + n2 rows, x's
    first: the p normals of row r come before anything of row r+1, and for
    the t family the nu chi-square normals of row r follow its p Gaussian
    normals. Every family is correlated, scaled and shifted in place in the
    array its normals were drawn into: x and y are views of it, which for
    the t family skip its nu chi-square columns and are not C-contiguous.
    No step uses BLAS, so the data do not depend on its thread count.
    """
    if len(config.deltas) != 1:
        raise ValueError("generate_scenario needs a single-delta config; split the grid first")
    nu = parse_family(config.family)
    n1, p = config.n1, config.p
    draw = rng.standard_normal((n1 + config.n2, p + (nu or 0)))
    z = _correlate(draw[:, :p], config.cov_form)
    if nu is not None:
        w = np.einsum("ij,ij->i", draw[:, p:], draw[:, p:])  # chi-square(nu) per row
        z /= np.sqrt(w / nu)[:, None]
    z[n1:] += shift_vector(p, config.deltas[0])
    return z[:n1], z[n1:]
