import math

import numpy as np
import pytest

from twosample import BaselineReport, hotelling_t2
from twosample.baselines import _betainc


class TestHotelling:
    def test_equal_means_give_zero(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([[2.0], [0.0]])
        report = hotelling_t2(x, y)
        assert report.t2 == 0.0
        assert report.f_stat == 0.0
        assert report.p_value == 1.0

    def test_univariate_matches_pooled_t_squared(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 1))
        y = rng.standard_normal((12, 1)) + 0.8
        n1, n2 = 9, 12
        sp2 = ((n1 - 1) * x.var(ddof=1) + (n2 - 1) * y.var(ddof=1)) / (n1 + n2 - 2)
        t = (x.mean() - y.mean()) / math.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
        report = hotelling_t2(x, y)
        assert abs(report.t2 - t * t) <= 1e-12 * t * t

    def test_report_fields_are_consistent(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal((18, 4))
        report = hotelling_t2(x, y)
        n = 33
        assert isinstance(report, BaselineReport)
        assert report.df1 == 4
        assert report.df2 == n - 4 - 1
        assert report.f_stat == report.t2 * report.df2 / ((n - 2) * report.df1)
        assert 0.0 < report.p_value <= 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((22, 3)) + 0.4
        a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        shift = rng.standard_normal(3)
        base = hotelling_t2(x, y)
        mapped = hotelling_t2(x @ a.T + shift, y @ a.T + shift)
        assert abs(mapped.t2 - base.t2) <= 1e-6 * (1.0 + base.t2)

    def test_dimension_too_large_raises(self):
        # p = 6 > n1 + n2 - 2 = 5 leaves no F degrees of freedom
        rng = np.random.default_rng(9)
        message = "^hotelling needs p <= n1 \\+ n2 - 2, got p=6, n1=4, n2=3$"
        with pytest.raises(ValueError, match=message):
            hotelling_t2(rng.standard_normal((4, 6)), rng.standard_normal((3, 6)))

    @pytest.mark.parametrize(
        "x_value, y_value",
        [(None, None), (0.3, 0.3), (0.3, 0.7)],
        ids=["duplicated-column", "constant-equal", "constant-unequal"],
    )
    def test_singular_pooled_covariance_raises(self, x_value, y_value):
        if x_value is None:
            rng = np.random.default_rng(11)
            base = rng.standard_normal((10, 1))
            x = np.hstack([base, base])  # duplicated column
            other = rng.standard_normal((10, 1)) + 1.0
            y = np.hstack([other, other])
        else:
            # column 1 constant within each sample: the mean of x's 0.3s is
            # 0.3 - 5.6e-17, so centring leaves a variance of about 1e-33
            # that Cholesky accepts, and t2 would read 6.70 or 5.9e31
            rng = np.random.default_rng(0)
            x = rng.standard_normal((20, 3))
            y = rng.standard_normal((25, 3))
            x[:, 1], y[:, 1] = x_value, y_value
        with pytest.raises(np.linalg.LinAlgError, match="^pooled covariance is singular$"):
            hotelling_t2(x, y)

    def test_column_constant_in_one_sample_keeps_t2(self):
        # the column varies in y, so the pooled covariance is not singular
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal((25, 3))
        x[:, 1] = 0.3
        report = hotelling_t2(x, y)
        assert math.isfinite(report.t2) and 0.0 < report.p_value < 1.0

    @pytest.mark.parametrize("scale, shift", [(1e160, 0.5e160), (1.0, 1e300)])
    def test_overflowing_pooled_covariance_raises(self, scale, shift):
        # entries near 1e160 overflow the pooled covariance, as do centred
        # rows of a sample near 1e300, which keep about 4.5e284 of rounding
        # error; Cholesky factors the inf matrix without an error, so t2
        # would read 0 and p 1
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 3)) * scale
        y = rng.standard_normal((25, 3)) * scale + shift
        with pytest.raises(ValueError, match="too large in magnitude for the Hotelling test"):
            hotelling_t2(x, y)

    def test_overflowing_t2_names_it(self):
        # the pooled covariance is about 1e-300 and finite; T^2 is
        # scale-invariant, so no rescaling of the data can help
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 1)) * 1e-150
        y = rng.standard_normal((25, 1)) * 1e-150 + 1e150
        message = (
            "^x and y are too far apart for the Hotelling test: its T\\^2 overflows, "
            "as the mean difference is too large against the pooled covariance$"
        )
        with pytest.raises(ValueError, match=message):
            hotelling_t2(x, y)

    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    def test_underflowing_pooled_covariance_raises(self, scale):
        # at 1e-160 the pooled variances are subnormal and t2 read 28.9174
        # for 28.9251; at 1e-200 they are 0, which Cholesky called singular
        x, y = _small_shift_pair()
        with pytest.raises(ValueError, match="too small in magnitude for the Hotelling test"):
            hotelling_t2(x * scale, y * scale)

    def test_small_data_keep_t2(self):
        x, y = _small_shift_pair()
        base = hotelling_t2(x, y).t2
        assert abs(hotelling_t2(x * 1e-100, y * 1e-100).t2 - base) <= 1e-12 * base


def _small_shift_pair():
    rng = np.random.default_rng(0)
    return rng.standard_normal((20, 4)), rng.standard_normal((25, 4)) + 0.8


def _f_density(x, d1, d2):
    ln = (
        0.5 * d1 * math.log(d1 / d2)
        + (0.5 * d1 - 1.0) * np.log(x)
        - 0.5 * (d1 + d2) * np.log1p(d1 * x / d2)
        - (math.lgamma(0.5 * d1) + math.lgamma(0.5 * d2) - math.lgamma(0.5 * (d1 + d2)))
    )
    return np.exp(ln)


def _f_cdf(x, d1, d2):
    """The F(d1, d2) cdf as the incomplete beta I_t(d1/2, d2/2), t = d1 x / (d1 x + d2)."""
    return _betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))


class TestBetainc:
    """The incomplete beta behind hotelling_t2's p-value, checked as an F cdf."""

    def test_zero_and_huge(self):
        assert _f_cdf(0.0, 3.0, 5.0) == 0.0
        assert _f_cdf(1e6, 3.0, 5.0) > 0.999
        assert _betainc(1.5, 2.5, -0.1) == 0.0
        assert _betainc(1.5, 2.5, 1.0) == 1.0

    def test_no_convergence_raises(self):
        # near the mean of a Beta(10^6, 10^6) the fraction needs about sqrt(a)
        # terms, beyond the 300 iterations of `_betacf`
        with pytest.raises(ArithmeticError, match="did not converge"):
            _betainc(1e6, 1e6, 0.4999)

    def test_equal_dfs_median_at_one(self):
        for d in (1.0, 2.0, 5.0, 17.5):
            assert abs(_f_cdf(1.0, d, d) - 0.5) <= 1e-10

    def test_monotone_in_x(self):
        grid = np.linspace(0.0, 8.0, 200)
        values = [_f_cdf(g, 4.0, 9.0) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_closed_form_for_two_numerator_dfs(self):
        # F(x; 2, d2) has cdf 1 - (1 + 2 x / d2)^(-d2 / 2)
        for x in (0.05, 0.7, 1.3, 4.0):
            want = 1.0 - (1.0 + 2.0 * x / 7.0) ** (-3.5)
            assert abs(_f_cdf(x, 2.0, 7.0) - want) <= 1e-12

    def test_quadrature_oracle(self):
        # independent route: integrate the density on a dense grid
        for d1, d2, upper in ((4.0, 9.0, 2.5), (6.0, 3.0, 1.8)):
            grid = np.linspace(0.0, upper, 1_000_001)
            density = np.empty_like(grid)
            density[0] = 0.0 if d1 > 2 else _f_density(1e-300, d1, d2)
            density[1:] = _f_density(grid[1:], d1, d2)
            integral = np.trapezoid(density, grid)
            assert abs(_f_cdf(upper, d1, d2) - integral) <= 1e-8

    def test_hotelling_p_value_is_the_f_survival(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal((18, 4)) + 0.3
        report = hotelling_t2(x, y)
        cdf = _f_cdf(report.f_stat, report.df1, report.df2)
        assert abs(report.p_value - (1.0 - cdf)) <= 1e-12
