import numpy as np
import pytest

from twosample import (
    IDENTITY,
    SIGN,
    eigenvalues_sym,
    estimate_plain,
    pair_aggregates,
    taper_weight,
)
from twosample.covariance import _apply_taper, _plain_gram, _taper_bandwidth

X4 = np.array([[0.0], [2.0]])
Y4 = np.array([[1.0], [3.0]])


def _pair_mean(x, y, kernel):
    """The kernel's mean over all n1*n2 pairs: g / (n1 n2)."""
    g, sx, sy, _ = pair_aggregates(x, y, kernel)
    return g / (sx.shape[0] * sy.shape[0])


class TestPairMean:
    def test_identity_is_mean_difference(self):
        assert np.array_equal(_pair_mean(X4, Y4, IDENTITY), [-1.0])

    def test_sign_is_mean_of_signs(self):
        # the four pair signs are (-1, -1, +1, -1)
        assert np.array_equal(_pair_mean(X4, Y4, SIGN), [-0.5])

    def test_constant_samples_give_the_single_kernel_value(self):
        x = np.tile([1.0, 3.0], (3, 1))
        y = np.tile([4.0, 7.0], (4, 1))
        assert np.allclose(_pair_mean(x, y, IDENTITY), [-3.0, -4.0], rtol=0, atol=1e-15)
        assert np.allclose(_pair_mean(x, y, SIGN), [-0.6, -0.8], rtol=0, atol=1e-15)


class TestEstimatePlain:
    def test_four_point_value(self):
        # straight-line transcription: (16 + 16) / 16 - (-1)^2 = 1
        assert np.array_equal(estimate_plain(X4, Y4, IDENTITY), [[1.0]])

    def test_four_point_sign_value(self):
        # row sums (-2, 0) and column sums (0, -2): (4 + 4) / 16 - 0.25
        assert np.array_equal(estimate_plain(X4, Y4, SIGN), [[0.25]])

    def test_constant_pairs_give_zero_matrix(self):
        x = np.tile([0.0, 0.0], (2, 1))
        y = np.tile([1.0, 1.0], (2, 1))
        assert np.array_equal(estimate_plain(x, y, IDENTITY), np.zeros((2, 2)))

    def test_output_is_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 5))
        y = rng.standard_normal((8, 5))
        for kernel in (IDENTITY, SIGN):
            est = estimate_plain(x, y, kernel)
            assert np.array_equal(est, est.T)
            tapered = _apply_taper(est, 2.5)
            assert np.array_equal(tapered, tapered.T)

    def test_trace_identity_from_aggregates(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((7, 4))
        y = rng.standard_normal((9, 4))
        for kernel in (IDENTITY, SIGN):
            g, sx, sy, _ = pair_aggregates(x, y, kernel)
            n1, n2 = sx.shape[0], sy.shape[0]
            n = n1 + n2
            dh = g / (n1 * n2)
            want = (np.einsum("ij,ij->", sx, sx) + np.einsum("ij,ij->", sy, sy)) / (
                n * n1 * n2
            ) - dh @ dh
            est = estimate_plain(x, y, kernel)
            assert abs(np.trace(est) - want) <= 1e-10 * (1.0 + abs(want))
            assert np.trace(est) >= -1e-8 * 4


class TestPlainGram:
    @pytest.mark.parametrize("kernel", [IDENTITY, SIGN])
    @pytest.mark.parametrize("p", [5, 88, 90, 92, 300])
    def test_spectrum_matches_the_p_by_p_estimate(self, kernel, p):
        # n1 + n2 = 90: the Gram form is p x p up to p = 90, then 90 x 90
        rng = np.random.default_rng(p)
        x = rng.standard_normal((40, p))
        y = rng.standard_t(3, size=(50, p)) + 0.2
        g, sx, sy, _ = pair_aggregates(x, y, kernel)
        gram = _plain_gram(g, sx, sy)
        assert gram.shape == (min(p, 90), min(p, 90))
        lam = eigenvalues_sym(gram)
        full = eigenvalues_sym(estimate_plain(x, y, kernel))
        assert np.max(np.abs(lam - full[: lam.size])) <= 1e-12 * full[0]

    def test_four_point_value(self):
        g, sx, sy, _ = pair_aggregates(X4, Y4, IDENTITY)
        assert np.array_equal(_plain_gram(g, sx, sy), [[1.0]])


class TestTaper:
    def test_derived_bandwidth(self):
        assert _taper_bandwidth(0.25, 90, 10) == 90.0 ** (1.0 / 2.5)
        assert _taper_bandwidth(0.25, 90, 2) == 2.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="beta must be positive"):
            _taper_bandwidth(0.0, 90, 10)
        with pytest.raises(ValueError):
            taper_weight(0, 1, 0.0)

    def test_weight_branches(self):
        assert taper_weight(0, 1, 4.0) == 1.0
        assert taper_weight(0, 2, 4.0) == 1.0  # inner boundary d = k/2
        assert taper_weight(0, 3, 4.0) == 0.25
        assert taper_weight(0, 4, 4.0) == 0.0  # outer boundary d = k
        assert taper_weight(9, 2, 4.0) == 0.0

    def test_small_p_taper_equals_plain(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((50, 2))
        k = _taper_bandwidth(0.25, 90, 2)  # k = 2, so d = 1 sits at the inner boundary
        plain = estimate_plain(x, y, SIGN)
        assert np.array_equal(_apply_taper(plain, k), plain)

    def test_cellwise_weights_match_scalar_op(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((40, 10))
        y = rng.standard_normal((50, 10))
        k = _taper_bandwidth(0.25, 90, 10)
        plain = estimate_plain(x, y, IDENTITY)
        tapered = _apply_taper(plain, k)
        for i in range(10):
            for j in range(10):
                assert tapered[i, j] == taper_weight(i, j, k) * plain[i, j]

    def test_entries_beyond_bandwidth_are_zero(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((10, 12))
        y = rng.standard_normal((11, 12))
        tapered = _apply_taper(estimate_plain(x, y, IDENTITY), 3.0)
        d = np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
        assert (tapered[d >= 3] == 0.0).all()

    def test_wide_bandwidth_equals_plain(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((8, 6))
        y = rng.standard_normal((9, 6))
        plain = estimate_plain(x, y, IDENTITY)
        assert np.array_equal(_apply_taper(plain, 2.0 * (6 - 1)), plain)


class TestEigenvaluesSym:
    def test_analytic_two_by_two(self):
        lam = eigenvalues_sym([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(lam, [3.0, 1.0], rtol=0, atol=1e-12)

    def test_identity_matrix(self):
        assert np.allclose(eigenvalues_sym(np.eye(4)), np.ones(4), rtol=0, atol=1e-14)

    def test_diagonal_matrix(self):
        d = np.array([3.0, -1.0, 0.5, 7.0])
        lam = eigenvalues_sym(np.diag(d))
        assert np.allclose(lam, np.sort(d)[::-1], rtol=0, atol=1e-10)

    def test_trace_identity_and_order(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((5, 5))
        sym = (a + a.T) / 2.0
        lam = eigenvalues_sym(sym)
        assert abs(lam.sum() - np.trace(sym)) <= 1e-8 * (1.0 + abs(np.trace(sym)))
        assert (np.diff(lam) <= 0).all()

    def test_spectrum_is_permutation_invariant(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((10, 6))
        y = rng.standard_normal((12, 6))
        perm = rng.permutation(6)
        base = eigenvalues_sym(estimate_plain(x, y, SIGN))
        permuted = eigenvalues_sym(estimate_plain(x[:, perm], y[:, perm], SIGN))
        assert np.allclose(base, permuted, rtol=0, atol=1e-8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eigenvalues_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            eigenvalues_sym(np.zeros((2, 3)))
