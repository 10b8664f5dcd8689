"""Output checks: each TestReport and each simulate CSV row against a reference.

A test report is checked against quantities the benchmark computes itself,
by a different route than the package:

- the statistic, from the full n1 x n2 x p tensor of kernel vectors (sign or
  identity), to a tight tolerance: it does not use the draws;
- the spectrum, from the (n1+n2+1)-sized dual of the plain estimate, or for
  the tapered estimate from the full p x p matrix times the benchmark's own
  taper weights; `trace` and `top_eigenvalue` must match it tightly;
- the cutoff and the p-value, against an independent sample of the same
  weighted chi-square reference law, within Z standard errors of the two
  Monte-Carlo samples. So a change of the random stream passes, and so does
  drawing only over the nonzero eigenvalues.

`negative_eigenvalues` is not checked: below the rank n1+n2-2 it counts
rounding noise, and a later change may count with a tolerance.

A simulate row is checked field by field against its scenario, and the
rejection counts of each (scenario, delta) cell, summed over the run, are
tested against a power curve recorded with many replications.
"""

import math

import numpy as np

Z = 6.0  # Monte-Carlo deviations allowed; two-sided tail about 2e-9 per check
STAT_RTOL = 1e-9  # relative to the sum of the absolute inclusion-exclusion terms
SPECTRUM_RTOL = 1e-8
TAIL_FLOOR = 1e-7  # binomial tail below which a power cell fails


def taper_weights(p, k):
    """p x p taper matrix, entry by entry from the package's scalar definition
    `taper_weight`, so only the matrix the estimator builds is under test."""
    from twosample.covariance import taper_weight

    return np.array([[taper_weight(i, j, k) for j in range(p)] for i in range(p)])


def taper_bandwidth(beta, n, p):
    """k = min(n^(1/(2 beta + 2)), p), as documented for TaperSpec.derive."""
    return min(float(n) ** (1.0 / (2.0 * beta + 2.0)), float(p))


class PairReference:
    """Statistic, spectrum and a sorted reference-law sample for one (x, y).

    `kernel` is "sign" or "identity". With `taper_k` the spectrum is that of
    the plain estimate tapered at bandwidth k, else of the plain estimate.
    """

    def __init__(self, x, y, draws, rng, kernel="sign", taper_k=None):
        n1, n2 = x.shape[0], y.shape[0]
        scale = (n1 + n2) * n1 * n2
        d = x[:, None, :] - y[None, :, :]
        if kernel == "identity":
            h = d
        else:
            norm = np.sqrt(np.einsum("ijk,ijk->ij", d, d))[..., None]
            h = np.divide(d, norm, out=np.zeros_like(d), where=norm > 0)
        sx, sy, g = h.sum(axis=1), h.sum(axis=0), h.sum(axis=(0, 1))
        # sum over i1 != i2 and j1 != j2 of <h[i1, j1], h[i2, j2]>, by inclusion-exclusion
        terms = (
            g @ g,
            -np.einsum("ik,ik->", sx, sx),
            -np.einsum("jk,jk->", sy, sy),
            np.einsum("ijk,ijk->", h, h),
        )
        self.statistic = float(sum(terms)) / scale
        self.stat_tol = STAT_RTOL * float(sum(abs(t) for t in terms)) / scale
        # plain estimate = W^T diag(signs) W with W = [sx; sy; dh]
        w = np.vstack([sx, sy, g[None, :] / (n1 * n2)])
        signs = np.r_[np.full(n1 + n2, 1.0 / scale), -1.0]
        if taper_k is None:
            r = np.linalg.qr(w.T, mode="r")
            self.spectrum = np.linalg.eigvalsh((r * signs) @ r.T)
        else:
            plain = (w.T * signs) @ w
            self.spectrum = np.linalg.eigvalsh(plain * taper_weights(plain.shape[0], taper_k))
        z = rng.standard_normal((draws, self.spectrum.size))
        self.law = np.sort((z * z - 1.0) @ self.spectrum)

    def problems(self, report, draws, alpha):
        """List of reasons the report disagrees with this reference."""
        out = []
        if not abs(report.statistic - self.statistic) <= self.stat_tol:
            out.append(f"statistic {report.statistic!r} != reference {self.statistic!r}")
        if report.reject != (report.statistic > report.cutoff):
            out.append("reject flag disagrees with statistic > cutoff")
        lam = self.spectrum
        if not abs(report.trace - lam.sum()) <= SPECTRUM_RTOL * np.abs(lam).sum():
            out.append(f"trace {report.trace!r} != reference {lam.sum()!r}")
        if not abs(report.top_eigenvalue - lam.max()) <= SPECTRUM_RTOL * np.abs(lam).max():
            out.append(f"top_eigenvalue {report.top_eigenvalue!r} != reference {lam.max()!r}")
        m_ref = self.law.size
        below = np.searchsorted(self.law, report.cutoff, side="right") / m_ref
        if not abs(below - (1.0 - alpha)) <= _mc_bound(alpha, draws, m_ref):
            out.append(f"cutoff {report.cutoff!r} sits at reference level {below}")
        if not 1.0 / (draws + 1) <= report.p_value <= 1.0:
            out.append(f"p_value {report.p_value!r} outside [1/(M+1), 1]")
        exceed = (report.p_value * (draws + 1) - 1.0) / draws
        tail = 1.0 - np.searchsorted(self.law, report.statistic, side="left") / m_ref
        floor = 10.0 / m_ref  # a tail the reference sample cannot resolve
        if not abs(exceed - tail) <= _mc_bound(min(max(tail, floor), 1.0 - floor), draws, m_ref):
            out.append(f"p_value {report.p_value!r} but reference tail {tail}")
        return out


def _mc_bound(q, draws, ref_draws):
    return Z * math.sqrt(q * (1.0 - q) * (1.0 / draws + 1.0 / ref_draws)) + 2.0 / draws


ROW_FIELDS = (
    ("scenario_id", str),
    ("family", str),
    ("cov_form", str),
    ("p", int),
    ("n1", int),
    ("n2", int),
    ("kernel", str),
    ("estimator", str),
    ("alpha", float),
    ("M", int),
    ("R", int),
    ("delta", float),
)


def row_problems(row, scenario, delta):
    """Reasons one simulate CSV row disagrees with its scenario; [] if none.

    All columns but `seconds` are checked; `reject_frac` here only for being
    a whole number of rejections out of R, with its `mcse`.
    """
    expected = dict(scenario, M=scenario["draws"], R=scenario["replications"], delta=delta)
    out = []
    try:
        for name, kind in ROW_FIELDS:
            if kind(row[name]) != expected[name]:
                out.append(f"{name} {row[name]!r} != {expected[name]!r}")
        reps = expected["R"]
        frac = float(row["reject_frac"])
        if abs(frac * reps - round(frac * reps)) > 1e-9 or not 0.0 <= frac <= 1.0:
            out.append(f"reject_frac {frac!r} is not a count out of {reps}")
        if not math.isclose(float(row["mcse"]), math.sqrt(frac * (1 - frac) / reps), abs_tol=1e-12):
            out.append(f"mcse {row['mcse']!r} disagrees with reject_frac")
        float(row["seconds"])
    except (KeyError, ValueError, TypeError) as err:
        out.append(f"malformed row: {err!r}")
    return out


def _log_pmf(k, n, p):
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binom_cdf(k, n, p):
    """P(X <= k) for X ~ Binomial(n, p)."""
    return min(1.0, sum(math.exp(_log_pmf(i, n, p)) for i in range(0, k + 1)))


def binom_sf(k, n, p):
    """P(X >= k) for X ~ Binomial(n, p)."""
    return min(1.0, sum(math.exp(_log_pmf(i, n, p)) for i in range(k, n + 1)))


def power_interval(rejections, replications):
    """Exact (Clopper-Pearson) interval for the power, each side at TAIL_FLOOR."""

    def solve(fn, target, increasing):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if (fn(mid) < target) == increasing:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    lower = 0.0 if rejections == 0 else solve(
        lambda q: binom_sf(rejections, replications, q), TAIL_FLOOR, True
    )
    upper = 1.0 if rejections == replications else solve(
        lambda q: binom_cdf(rejections, replications, q), TAIL_FLOOR, False
    )
    return lower, upper


def power_cell_problem(rejections, replications, reference):
    """None when `rejections` of `replications` fits the reference cell."""
    lower, upper = power_interval(reference["rejections"], reference["replications"])
    if binom_cdf(rejections, replications, lower) < TAIL_FLOOR:
        return f"{rejections}/{replications} rejections, below the reference power {lower:.4f}"
    if binom_sf(rejections, replications, upper) < TAIL_FLOOR:
        return f"{rejections}/{replications} rejections, above the reference power {upper:.4f}"
    return None
