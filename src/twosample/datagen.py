"""Covariance structures, shift vectors, and elliptical samplers for simulations."""

import functools
import math

import numpy as np

from ._blas import _one_blas_thread
from .statistic import _check_choice, _check_int, _is_real

GAUSSIAN = "gaussian"
STUDENT_T = "t"

# correlation levels used by the named simulation designs
_FORM_RHO = {"equicorr": 0.5, "identity": 0.0, "ar": 0.75}
COV_FORMS = tuple(_FORM_RHO)


def scenario_sigma(cov_form, p):
    """Covariance matrix for a named scenario form at its fixed correlation."""
    _check_choice("covariance form", cov_form, COV_FORMS)
    _check_int("p", p, 1)
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


def shift_vector(p, delta):
    """delta times the unit vector along (1, 2, ..., p), for a finite delta >= 0."""
    _check_int("p", p, 1)
    if not (_is_real(delta) and math.isfinite(delta) and delta >= 0):
        raise ValueError(f"deltas must be finite and nonnegative, got {delta!r}")
    v = np.arange(1, p + 1, dtype=float)
    return (delta / np.linalg.norm(v)) * v


def _sample(loc, chol, nu, n, rng):
    """Draw n rows at location loc with scatter chol chol^T; t(nu) unless nu is None.

    Draw order is fixed: the p normals of row r come before anything of row
    r+1, and for the t family the nu chi-square normals of row r follow its
    p Gaussian normals.
    """
    p = loc.size
    if nu is None:
        z = rng.standard_normal((n, p))
        return loc + z @ chol.T
    draw = rng.standard_normal((n, p + nu))
    z = draw[:, :p]
    w = np.einsum("ij,ij->i", draw[:, p:], draw[:, p:])  # chi-square(nu) per row
    return loc + (z @ chol.T) / np.sqrt(w / nu)[:, None]


def parse_family(family):
    """Map a scenario family name to (family, nu): gaussian, cauchy, or t<k>."""
    if family == GAUSSIAN:
        return GAUSSIAN, None
    if family == "cauchy":
        return STUDENT_T, 1
    nu = family[1:] if isinstance(family, str) and family.startswith(STUDENT_T) else ""
    if nu.isdigit() and int(nu) >= 1:
        return STUDENT_T, int(nu)
    raise ValueError(f"unknown family {family!r}; expected gaussian, cauchy, or t<k>")


@functools.lru_cache(maxsize=1)
def _factor(cov_form, p):
    """The read-only Cholesky factor of scenario_sigma(cov_form, p).

    One factor is kept at a time, so a run over one design factors it once.
    """
    chol = np.linalg.cholesky(scenario_sigma(cov_form, p))
    chol.flags.writeable = False
    return chol


def generate_scenario(config, rng):
    """Draw (x, y) for a single-delta scenario.

    x is sampled at the origin and y at shift_vector(p, delta), sharing the
    family and one Cholesky factor of the covariance form, which is reused
    while the form and p stay the same. x is drawn before y from the same
    generator. The factor and both draws run at one BLAS thread, since at
    large p their last bits depend on the thread count.
    """
    if len(config.deltas) != 1:
        raise ValueError("generate_scenario needs a single-delta config; split the grid first")
    _, nu = parse_family(config.family)
    with _one_blas_thread():
        chol = _factor(config.cov_form, config.p)
        x = _sample(np.zeros(config.p), chol, nu, config.n1, rng)
        y = _sample(shift_vector(config.p, config.deltas[0]), chol, nu, config.n2, rng)
    return x, y
