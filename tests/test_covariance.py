import re

import numpy as np
import pytest

from twosample import (
    IDENTITY,
    SIGN,
    eigenvalues_sym,
    pair_aggregates,
    taper_weight,
)
from twosample.covariance import PLAIN, _apply_taper, _matrix, _taper_bandwidth
from twosample.statistic import _pass

from oracle import estimate_plain

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
        # p > n1 + n2: the plain spectrum comes from the smaller C C^T
        x = rng.standard_normal((6, 20))
        y = rng.standard_normal((8, 20))
        for kernel in (IDENTITY, SIGN):
            gram = _matrix(_pass(x, y, kernel)[2], PLAIN, 2.5)
            assert gram.shape == (14, 14)
            assert np.array_equal(gram, gram.T)

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
            # and entry by entry: the outer-product definition the centred factor equals
            outer = (sx.T @ sx + sy.T @ sy) / (n * n1 * n2) - np.outer(dh, dh)
            assert np.allclose(est, outer, rtol=0, atol=1e-14)
            assert np.trace(est) >= -1e-8 * 4


class TestPlainGram:
    @pytest.mark.parametrize("kernel", [IDENTITY, SIGN])
    @pytest.mark.parametrize("p", [5, 88, 90, 92, 300])
    def test_spectrum_matches_the_p_by_p_estimate(self, kernel, p):
        # n1 + n2 = 90: C^T C is the smaller product up to p = 90, then C C^T
        rng = np.random.default_rng(p)
        x = rng.standard_normal((40, p))
        y = rng.standard_t(3, size=(50, p)) + 0.2
        c = _pass(x, y, kernel)[2]
        assert c.shape == (90, p)
        lam = eigenvalues_sym(_matrix(c, PLAIN, 1.0))
        full = eigenvalues_sym(estimate_plain(x, y, kernel))
        assert lam.size == min(p, 90)
        assert np.max(np.abs(lam - full[: lam.size])) <= 1e-12 * full[0]

    def test_four_point_value(self):
        c = _pass(X4, Y4, IDENTITY)[2]
        assert np.array_equal(c.T @ c, [[1.0]])

    def test_far_shift_of_y_keeps_the_identity_estimate(self):
        # the identity kernel's h = x - y: a shift of y moves only the mean,
        # which the centred factor removes before any product is formed
        rng = np.random.default_rng(47)
        x = rng.standard_normal((40, 30))
        y = rng.standard_normal((50, 30))
        est = estimate_plain(x, y, IDENTITY)
        far = estimate_plain(x, y + 1e6, IDENTITY)
        assert np.max(np.abs(far - est)) <= 1e-9 * np.max(np.abs(est))


class TestTaper:
    def test_derived_bandwidth(self):
        assert _taper_bandwidth(0.25, 90, 10) == 90.0 ** (1.0 / 2.5)
        assert _taper_bandwidth(0.25, 90, 2) == 2.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="beta must be positive, got -1.0"):
            _taper_bandwidth(-1.0, 90, 10)
        with pytest.raises(ValueError, match="beta must be positive"):
            _taper_bandwidth(0.0, 90, 10)
        with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
            _taper_bandwidth(float("inf"), 90, 10)
        with pytest.raises(ValueError, match="^beta must be positive, got -inf$"):
            _taper_bandwidth(float("-inf"), 90, 10)
        with pytest.raises(ValueError, match="^beta must be finite, got nan$"):
            _taper_bandwidth(float("nan"), 90, 10)
        with pytest.raises(ValueError):
            taper_weight(0, 1, 0.0)

    def test_weight_branches(self):
        assert taper_weight(0, 1, 4.0) == 1.0
        assert taper_weight(0, 2, 4.0) == 1.0  # inner boundary d = k/2
        assert taper_weight(0, 3, 4.0) == 0.25
        assert taper_weight(0, 4, 4.0) == 0.0  # outer boundary d = k
        assert taper_weight(9, 2, 4.0) == 0.0
        assert taper_weight(0.0, 2.5, 4.0) == 0.375

    def test_numpy_bandwidths_are_the_numbers_they_equal(self):
        # a float32 k would otherwise ramp in float32: 1 - 2/3 read 0.33333334
        for k in (np.float32(3.0), np.int64(3), 3):
            weight = taper_weight(0, 2, k)
            assert type(weight) is float and weight == 1.0 - 2 / 3.0

    @pytest.mark.parametrize(
        "i, j, d",
        [
            (np.int64(0), np.int64(2), 2),
            (np.uint8(5), np.uint8(3), 2),
            (2**70, 2**70 + 1, 1),
            (2**70 + 2, 2**70, 2),
            (0, 2**70, 3),
            (0, np.int64(2**62), 3),
            (2**2000, 0, 3),  # an offset beyond the float range
            (np.uint8(0), np.uint8(2), 2),  # 0 - 2 in an unsigned type would wrap
            (np.uint64(0), np.uint64(2), 2),
            (0.5, 2.5, 2),  # a finite float index is taken as it is
            (np.float32(4.5), np.float32(1.5), 3),
        ],
    )
    def test_integer_offsets_weigh_as_small_ones(self, i, j, d):
        weight = taper_weight(i, j, 3.0)
        assert type(weight) is float and weight == taper_weight(0, d, 3.0)

    @pytest.mark.parametrize(
        "index, message",
        [
            (True, "must be a number, got True"),
            (np.bool_(False), "must be a number, got "),
            ("1", "must be a number, got '1'"),
            (float("nan"), "must be finite, got nan"),
            (np.float64("-inf"), "must be finite, got -inf"),
        ],
    )
    def test_an_index_that_is_not_a_finite_number_raises(self, index, message):
        with pytest.raises(ValueError, match=f"^index i {re.escape(message)}"):
            taper_weight(index, 0, 3.0)
        with pytest.raises(ValueError, match=f"^index j {re.escape(message)}"):
            taper_weight(0, index, 3.0)

    @pytest.mark.parametrize("k", [True, np.bool_(True), "4", None])
    def test_a_bandwidth_that_is_not_a_number_raises(self, k):
        with pytest.raises(ValueError, match=r"^bandwidth k must be a number, got "):
            taper_weight(0, 1, k)

    def test_small_p_taper_equals_plain(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((50, 2))
        k = _taper_bandwidth(0.25, 90, 2)  # k = 2, so d = 1 sits at the inner boundary
        plain = estimate_plain(x, y, SIGN)
        assert np.array_equal(_apply_taper(plain.copy(), k), plain)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 37, 100, 300, 1000])
    @pytest.mark.parametrize("k", [0.3, 1, 2.5, 6.05, "p", "p + 3"])
    def test_cellwise_weights_match_scalar_op(self, p, k):
        k = {"p": p, "p + 3": p + 3}.get(k, k)
        rng = np.random.default_rng(23)
        x = rng.standard_normal((40, p))
        y = rng.standard_normal((50, p))
        plain = estimate_plain(x, y, IDENTITY)
        tapered = _apply_taper(plain.copy(), k)  # it writes over its argument
        # diagonal d holds the entries (i, i + d), all weighed by taper_weight(i, i + d, k);
        # the signs of the zeros beyond the bandwidth must match too
        for d in range(1 - p, p):
            want = taper_weight(0, d, k) * np.diagonal(plain, d)
            got = np.diagonal(tapered, d)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

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
        assert np.array_equal(_apply_taper(plain.copy(), 2.0 * (6 - 1)), plain)


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

    def test_reads_the_lower_triangle_only(self):
        # the upper entry 100 is ignored: the spectrum is that of [[2, 1], [1, 2]]
        lam = eigenvalues_sym([[2.0, 100.0], [1.0, 2.0]])
        assert np.allclose(lam, [3.0, 1.0], rtol=0, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eigenvalues_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            eigenvalues_sym(np.zeros((2, 3)))
