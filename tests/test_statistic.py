import numpy as np
import pytest

from twosample import (
    IDENTITY,
    SIGN,
    compute_statistic,
    compute_statistic_centered,
    compute_statistic_oracle,
    pair_aggregates,
)

# four-point instance used across modules; every kernel value is an exact float
X4 = np.array([[0.0], [2.0]])
Y4 = np.array([[1.0], [3.0]])


def _kernel(kernel, x, y):
    # with one row per sample the grand sum g is the single value h(x, y)
    return pair_aggregates([x], [y], kernel)[0]


class TestKernelEval:
    """Kernel values through the production pair pass, on one-row samples."""

    def test_identity_is_difference(self):
        out = _kernel(IDENTITY, [1.0, 2.0], [0.0, 1.0])
        assert np.array_equal(out, [1.0, 1.0])

    def test_sign_is_unit_vector(self):
        out = _kernel(SIGN, [3.0, 0.0], [0.0, 0.0])
        assert np.array_equal(out, [1.0, 0.0])

    def test_sign_at_coincident_points_is_zero(self):
        out = _kernel(SIGN, [2.0, 2.0], [2.0, 2.0])
        assert np.array_equal(out, [0.0, 0.0])

    def test_sign_norm_is_one_or_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            assert abs(np.linalg.norm(_kernel(SIGN, x, y)) - 1.0) < 1e-12
        assert np.linalg.norm(_kernel(SIGN, x, x)) == 0.0

    def test_sign_survives_tiny_and_huge_magnitudes(self):
        # squared norms of these underflow/overflow without prescaling
        for scale in (1e-200, 1e160):
            g, sx, sy, sumsq = pair_aggregates([[scale, 0.0]], [[0.0, scale]], SIGN)
            for out in (g, sx[0], sy[0]):
                assert np.isfinite(out).all()
                assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            assert abs(sumsq - 1.0) < 1e-12

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            _kernel(IDENTITY, [1.0, 2.0], [1.0])

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            _kernel(IDENTITY, [np.inf], [0.0])

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError):
            _kernel("rbf", [1.0], [0.0])


class TestComputeStatistic:
    def test_four_point_value(self):
        # hand enumeration of the quadruple sum gives -4/16
        assert compute_statistic(X4, Y4, IDENTITY) == -0.25

    def test_single_row_gives_zero(self):
        assert compute_statistic(np.zeros((1, 3)), np.ones((4, 3)), IDENTITY) == 0.0
        assert compute_statistic(np.zeros((4, 3)), np.ones((1, 3)), SIGN) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_statistic(np.zeros((3, 2)), np.zeros((3, 3)), IDENTITY)

    def test_translation_invariance_is_exact(self):
        # integer-valued data keeps (x + c) - (y + c) == x - y exact in floats
        rng = np.random.default_rng(11)
        x = rng.integers(-5, 6, size=(5, 3)).astype(float)
        y = rng.integers(-5, 6, size=(6, 3)).astype(float)
        c = np.array([7.0, -3.0, 11.0])
        for kernel in (IDENTITY, SIGN):
            assert compute_statistic(x + c, y + c, kernel) == compute_statistic(x, y, kernel)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(24):
            n1, n2 = rng.integers(2, 7, size=2)
            p = int(rng.integers(1, 5))
            x = rng.standard_normal((n1, p))
            y = rng.standard_normal((n2, p))
            for kernel in (IDENTITY, SIGN):
                fast = compute_statistic(x, y, kernel)
                slow = compute_statistic_oracle(x, y, kernel)
                assert abs(fast - slow) <= 1e-10 * (1.0 + abs(slow))

    def test_oracle_with_coincident_rows(self):
        # a shared row exercises the sign kernel's zero-vector branch
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((5, 3))
        y[2] = x[1]
        fast = compute_statistic(x, y, SIGN)
        slow = compute_statistic_oracle(x, y, SIGN)
        assert abs(fast - slow) <= 1e-10 * (1.0 + abs(slow))

    def test_oracle_single_row_is_zero(self):
        assert compute_statistic_oracle(X4, Y4[:1], IDENTITY) == 0.0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((7, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        for kernel in (IDENTITY, SIGN):
            base = compute_statistic(x, y, kernel)
            rotated = compute_statistic(x @ q.T, y @ q.T, kernel)
            assert abs(rotated - base) <= 1e-8 * (1.0 + abs(base))

    def test_identity_scale_law(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((6, 3))
        c = 3.7
        base = compute_statistic(x, y, IDENTITY)
        scaled = compute_statistic(c * x, c * y, IDENTITY)
        assert abs(scaled - c * c * base) <= 1e-10 * (1.0 + abs(c * c * base))

    def test_sign_scale_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((6, 3))
        base = compute_statistic(x, y, SIGN)
        scaled = compute_statistic(0.002 * x, 0.002 * y, SIGN)
        assert abs(scaled - base) <= 1e-12 * (1.0 + abs(base))


def _centered_enumeration(x, y, kernel, delta):
    # independent route: enumerate (h - delta) pairs literally
    n1, n2 = x.shape[0], y.shape[0]
    n = n1 + n2

    def kern(d):
        return d if kernel == IDENTITY else d / np.linalg.norm(d)

    h = np.array([[kern(x[i] - y[j]) - delta for j in range(n2)] for i in range(n1)])
    total = 0.0
    for i1 in range(n1):
        for i2 in range(n1):
            for j1 in range(n2):
                for j2 in range(n2):
                    if i1 != i2 and j1 != j2:
                        total += float(h[i1, j1] @ h[i2, j2])
    return total / (n * n1 * n2)


class TestComputeStatisticCentered:
    def test_zero_delta_equals_plain(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((5, 3))
        for kernel in (IDENTITY, SIGN):
            assert compute_statistic_centered(x, y, kernel, np.zeros(3)) == compute_statistic(
                x, y, kernel
            )

    def test_four_point_with_unit_recentering(self):
        # delta = -1 turns every h into h + 1; enumeration gives -8/16
        assert compute_statistic_centered(X4, Y4, IDENTITY, [-1.0]) == -0.5

    def test_matches_enumeration(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal((4, 2))
        delta = rng.standard_normal(2)
        for kernel in (IDENTITY, SIGN):
            got = compute_statistic_centered(x, y, kernel, delta)
            want = _centered_enumeration(x, y, kernel, delta)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_single_row_gives_zero(self):
        assert compute_statistic_centered(X4[:1], Y4, IDENTITY, [0.5]) == 0.0

    def test_wrong_delta_length_raises(self):
        with pytest.raises(ValueError):
            compute_statistic_centered(X4, Y4, IDENTITY, [1.0, 2.0])

    def test_non_finite_delta_raises(self):
        with pytest.raises(ValueError):
            compute_statistic_centered(X4, Y4, IDENTITY, [np.nan])
