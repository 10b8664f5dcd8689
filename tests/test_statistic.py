import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import twosample
from twosample import (
    IDENTITY,
    SIGN,
    compute_statistic,
    eigenvalues_sym,
    hotelling_t2,
    pair_aggregates,
)
from twosample.covariance import ESTIMATORS, _matrix, _taper_bandwidth
from twosample.statistic import _pass, _recentred_statistic

from oracle import (
    centred_factor_out_of_place,
    compute_statistic_oracle,
    estimate_out_of_place,
    pair_aggregates_out_of_place,
    unit,
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

    @pytest.mark.parametrize("x", [np.ones(3), np.ones((0, 3)), np.ones((3, 0))])
    def test_sample_must_be_a_nonempty_matrix(self, x):
        with pytest.raises(ValueError) as err:
            pair_aggregates(x, np.ones((4, 3)), SIGN)
        assert str(err.value) == "x must be a 2-d array with at least one row and one column"

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError):
            _kernel("rbf", [1.0], [0.0])


_KERNEL_MESSAGE = "unknown kernel 'rbf'; expected one of ('identity', 'sign')"
_ESTIMATOR_MESSAGE = "unknown estimator 'ridge'; expected one of ('plain', 'taper')"
_FORM_MESSAGE = "unknown covariance form 'wishart'; expected one of ('equicorr', 'identity', 'ar')"


def _scenario(**overrides):
    base = dict(scenario_id="s", family="gaussian", cov_form="identity", p=3, n1=5, n2=5)
    return twosample.ScenarioConfig(**{**base, **overrides})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda x, y: pair_aggregates(x, y, "rbf"), _KERNEL_MESSAGE, id="kernel-pass"),
        pytest.param(
            lambda x, y: twosample.run_test(x, y, "rbf"), _KERNEL_MESSAGE, id="kernel-test"
        ),
        pytest.param(lambda x, y: _scenario(kernel="rbf"), _KERNEL_MESSAGE, id="kernel-scenario"),
        pytest.param(
            lambda x, y: twosample.run_test(x, y, SIGN, "ridge"),
            _ESTIMATOR_MESSAGE,
            id="estimator-test",
        ),
        pytest.param(
            lambda x, y: _scenario(estimator="ridge"),
            "unknown estimator 'ridge'; expected one of ('plain', 'taper', 'hotelling')",
            id="estimator-scenario",
        ),
        pytest.param(lambda x, y: _scenario(cov_form="wishart"), _FORM_MESSAGE, id="form-scenario"),
        # a choice is a str: an array holding one would pass an `in` test
        pytest.param(
            lambda x, y: twosample.run_test(x, y, np.array(["identity"])),
            f"unknown kernel {np.array(['identity'])!r}; expected one of ('identity', 'sign')",
            id="kernel-test-array",
        ),
        pytest.param(
            lambda x, y: _scenario(kernel=np.array(["identity"])),
            f"unknown kernel {np.array(['identity'])!r}; expected one of ('identity', 'sign')",
            id="kernel-scenario-array",
        ),
        pytest.param(
            lambda x, y: twosample.run_test(x, y, np.array(["identity", "sign"])),
            f"unknown kernel {np.array(['identity', 'sign'])!r}; expected one of ('identity', 'sign')",
            id="kernel-test-two-array",
        ),
        pytest.param(
            lambda x, y: twosample.run_test(x, y, SIGN, np.array(["plain"])),
            f"unknown estimator {np.array(['plain'])!r}; expected one of ('plain', 'taper')",
            id="estimator-test-array",
        ),
        pytest.param(
            lambda x, y: _scenario(cov_form=np.array(["ar"])),
            f"unknown covariance form {np.array(['ar'])!r}; "
            "expected one of ('equicorr', 'identity', 'ar')",
            id="form-scenario-array",
        ),
    ],
)
def test_unknown_choice_names_it_and_the_choices(call, message):
    # one check, `statistic._check_choice`, words every refusal of a kernel,
    # an estimator or a covariance form
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError) as err:
        call(rng.standard_normal((6, 3)), rng.standard_normal((7, 3)))
    assert str(err.value) == message


# each call takes one bad array a, in the place its name says
_INTAKES = [
    pytest.param(lambda a, b: twosample.run_test(a, b, SIGN), "x", id="run_test"),
    pytest.param(lambda a, b: compute_statistic(b, a, IDENTITY), "y", id="compute_statistic"),
    pytest.param(lambda a, b: pair_aggregates(a, b, SIGN), "x", id="pair_aggregates"),
    pytest.param(lambda a, b: hotelling_t2(b, a), "y", id="hotelling_t2"),
    pytest.param(lambda a, b: twosample.run_realdata_blocks(a, b, 1), "x", id="blocks"),
    pytest.param(lambda a, b: eigenvalues_sym(a[:3]), "m", id="eigenvalues_sym"),
    pytest.param(
        lambda a, b: twosample.simulate_null_draws(
            a[0], twosample.NullDrawConfig(draws=5), np.random.default_rng(0)
        ),
        "spectrum",
        id="simulate_null_draws",
    ),
    pytest.param(lambda a, b: twosample.empirical_quantile(a[0], 0.5), "values", id="quantile"),
]


def _object_holding(a, value):
    """a as an object array with value in place of its first entry."""
    out = a.astype(object)
    out[0, 0] = value
    return out


# each would be cast: complex to its real part, text parsed as numbers, and
# in an object array a complex number fails with a TypeError and None is NaN
_UNREAL = [
    pytest.param(lambda a: a + 0.5j, "complex128", id="complex"),
    pytest.param(lambda a: a.astype(str), "<U32", id="str"),
    pytest.param(lambda a: a.astype(bytes), "|S32", id="bytes"),
    pytest.param(lambda a: [[*row[:-1], str(row[-1])] for row in a.tolist()], "<U32", id="mixed"),
    pytest.param(lambda a: a.astype(str).astype(object), "object", id="object-text"),
    pytest.param(lambda a: _object_holding(a, 1 + 1j), "object", id="object-complex"),
    pytest.param(lambda a: _object_holding(a, None), "object", id="object-none"),
]


@pytest.mark.parametrize("convert, dtype", _UNREAL)
@pytest.mark.parametrize("call, name", _INTAKES)
def test_data_that_are_not_real_numbers_raise_naming_the_input(call, name, convert, dtype):
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((6, 3)), rng.standard_normal((7, 3))
    call(a, b)  # the real data are taken
    with pytest.raises(ValueError) as err:
        call(convert(a), b)
    assert str(err.value) == f"{name} must hold real numbers, got {dtype} data"


@pytest.mark.parametrize("call, name", _INTAKES)
def test_bool_int_and_object_arrays_of_real_numbers_are_taken(call, name):
    rng = np.random.default_rng(9)
    a, b = rng.integers(-3, 4, (6, 3)), rng.standard_normal((7, 3))
    want = repr(call(a.astype(float), b))
    for same in (a, a.astype(object), a.tolist()):
        assert repr(call(same, b)) == want
    signs = a > 0
    for same in (signs, signs.astype(object)):
        assert repr(call(same, b)) == repr(call(signs.astype(float), b))


def _sign_rows(h):
    """Normalize the rows of h to unit length; exactly-zero rows stay zero."""
    nsq = np.einsum("ij,ij->i", h, h)
    ok = np.isfinite(nsq) & (nsq > 0.0)
    out = h / np.sqrt(np.where(ok, nsq, 1.0))[:, None]
    if not ok.all():
        zero = ~h.any(axis=1)
        # rows whose squared norm over- or underflowed get the prescaled path
        for r in np.flatnonzero(~ok & ~zero):
            out[r] = unit(h[r])
        out[zero] = 0.0
    return out


def _loop_aggregates(x, y, kernel):
    """Reference pair sums: the kernel block of one x-row at a time."""
    n1, p = x.shape
    sx = np.empty((n1, p))
    sy = np.zeros((y.shape[0], p))
    sumsq = 0.0
    for i in range(n1):
        h = x[i] - y
        if kernel == SIGN:
            h = _sign_rows(h)
        sx[i] = h.sum(axis=0)
        sy += h
        sumsq += float(np.einsum("ij,ij->", h, h))
    return sx.sum(axis=0), sx, sy, sumsq


ACCURACY_CASES = ("plain", "near", "ties", "offset", "tiny", "huge", "clusters")


def _accuracy_sample(case, p):
    rng = np.random.default_rng([p, ACCURACY_CASES.index(case)])
    x = rng.standard_normal((20, p))
    y = rng.standard_normal((25, p)) + 0.3
    if case == "near":
        # y_k sits at distance 1e-(k+2) from an x row, for 1e-2 down to 1e-14
        for k in range(13):
            u = rng.standard_normal(p)
            y[k] = x[k] + 10.0 ** -(k + 2) * u / np.linalg.norm(u)
    elif case == "ties":
        y[3] = x[7]
        y[9] = x[7]
        y[11] = x[2]
    elif case == "offset":
        x, y = x + 1e6, y + 1e6
    elif case == "tiny":
        x, y = x * 1e-200, y * 1e-200
    elif case == "huge":
        x, y = x * 1e150, y * 1e150
    elif case == "clusters":
        # rows around 0 or 100 * (1, ..., 1), spread 1e-3: the centre sits in
        # one cluster, so every pair inside the other is summed directly
        x = 1e-3 * x + 100.0 * rng.integers(0, 2, (20, 1))
        y = 1e-3 * y + 100.0 * rng.integers(0, 2, (25, 1))
    return x, y


class TestPairAggregatesAccuracy:
    """The matrix-product pair pass against the row loop it replaced."""

    @pytest.mark.parametrize("kernel", [IDENTITY, SIGN])
    @pytest.mark.parametrize("case", ACCURACY_CASES)
    @pytest.mark.parametrize("p", [1, 5, 100, 1000])
    def test_matches_row_loop(self, p, case, kernel):
        x, y = _accuracy_sample(case, p)
        if case == "tiny" and kernel == IDENTITY:
            # its sum of squares, near 1e-400, would flush to 0 in both passes
            with pytest.raises(ValueError, match="too small in magnitude for the identity kernel"):
                pair_aggregates(x, y, kernel)
            return
        _assert_matches_row_loop(pair_aggregates(x, y, kernel), x, y, kernel)

    def test_near_pairs_take_bounded_memory(self):
        # two unit-variance clusters 1e6 apart: the 100 * 150 pairs inside the
        # cluster away from the centre are all near, and summed directly
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 1000))
        y = rng.standard_normal((300, 1000))
        peaks = []
        for shift in (0.0, 1e6):
            xs, ys = x.copy(), y.copy()
            xs[100:] += shift
            ys[150:] += shift
            tracemalloc.start()
            got = pair_aggregates(xs, ys, SIGN)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]
        _assert_matches_row_loop(got, xs, ys, SIGN)


def _overflowing_sample(kernel):
    if kernel == IDENTITY:
        # the differences are finite, their sum of squares is not
        rng = np.random.default_rng(0)
        return rng.standard_normal((40, 5)) * 1e300, rng.standard_normal((50, 5)) * 1e300
    # x_i - y_j itself overflows: the unit vectors are NaN, their count is finite
    x = np.array([[1.7e308, 0.0], [-1.7e308, 1.0], [0.0, 2.0]])
    y = np.array([[-1.7e308, 0.0], [1.7e308, 1.0], [0.0, 3.0]])
    return x, y


@pytest.mark.parametrize("kernel", [IDENTITY, SIGN])
def test_overflowing_pair_sums_name_the_input(kernel):
    # the public pass raises the statistic's error, with no numpy warning
    # (a warning fails the test)
    x, y = _overflowing_sample(kernel)
    message = (
        f"x and y are too large in magnitude for the {kernel} kernel: "
        "its pair sums overflow; rescale the data"
    )
    for entry in (pair_aggregates, compute_statistic):
        with pytest.raises(ValueError) as err:
            entry(x, y, kernel)
        assert str(err.value) == message


def _assert_matches_row_loop(got, x, y, kernel):
    want = _loop_aggregates(x, y, kernel)
    for name, a, b in zip(("g", "sx", "sy", "sumsq"), got, want):
        err = np.max(np.abs(np.subtract(a, b)))
        assert np.isfinite(a).all()
        assert err <= 1e-12 * np.max(np.abs(b)), name


IN_PLACE_CASES = ("plain", "near", "ties", "zeros", "tiny", "huge")


def _in_place_sample(case, n1, n2, p):
    rng = np.random.default_rng([n1, n2, p, IN_PLACE_CASES.index(case)])
    x = rng.standard_normal((n1, p))
    y = rng.standard_normal((n2, p)) + 0.3
    if case == "near":
        # y_k at distance 1e-(k+2) from x_k, down to 1e-14
        for k in range(min(n1, n2, 13)):
            u = rng.standard_normal(p)
            y[k] = x[k] + 10.0 ** -(k + 2) * u / np.linalg.norm(u)
    elif case == "ties":
        y[0] = y[-1] = x[-1]
    elif case == "zeros":
        # signed zeros throughout, the centre row and a column of mixed signs included
        x[rng.random(x.shape) < 0.3] = -0.0
        y[rng.random(y.shape) < 0.3] = 0.0
        y[rng.random(y.shape) < 0.15] = -0.0
        x[:, 0], y[::2, 0], y[1::2, 0] = -0.0, 0.0, -0.0
    elif case == "tiny":
        # just above the smallest normal float; the identity kernel raises
        x, y = x * 1e-305, y * 1e-305
    elif case == "huge":
        # differences stay below the largest float; the identity sums overflow
        x, y = x * 1e300, y * 1e300
    return x, y


def _outcome(f, *args):
    """The shapes and bytes of f's arrays, or the message of its ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = f(*args)
        except ValueError as err:
            return str(err)
    return [(np.shape(a), np.asarray(a).tobytes()) for a in out]


class TestInPlacePass:
    """The in-place pair pass, C and estimates against the out-of-place ones of `oracle`, bit for bit."""

    @pytest.mark.parametrize("kernel", [IDENTITY, SIGN])
    @pytest.mark.parametrize("case", IN_PLACE_CASES)
    @pytest.mark.parametrize("n1, n2", [(2, 2), (40, 50), (200, 300)])
    @pytest.mark.parametrize("p", [1, 5, 300, 1000])
    def test_equals_the_out_of_place_pass(self, p, n1, n2, case, kernel):
        x, y = _in_place_sample(case, n1, n2, p)
        got = _outcome(pair_aggregates, x, y, kernel)
        assert got == _outcome(pair_aggregates_out_of_place, x, y, kernel)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                c = _pass(x, y, kernel)[2]
            except ValueError as err:  # T over- or underflows: the identity kernel raises
                assert kernel == IDENTITY and case in ("tiny", "huge"), err
                return
        want = centred_factor_out_of_place(*pair_aggregates_out_of_place(x, y, kernel)[:3])
        assert _outcome(lambda: [c]) == _outcome(lambda: [want])
        k = _taper_bandwidth(0.25, n1 + n2, p)
        for estimator in ESTIMATORS:
            est = _outcome(lambda: [_matrix(c, estimator, k)])
            assert est == _outcome(lambda: [estimate_out_of_place(x, y, kernel, estimator, k)])

    def test_peak_memory_of_the_pass(self):
        # n1 = n2 = 1000 at p = 50: the 2000^2 Gram matrix is 30.5 MiB and each
        # n1 x n2 array 7.6 MiB; through temporaries the pass peaked at 63 MiB
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1000, 50))
        y = rng.standard_normal((1000, 50))
        tracemalloc.start()
        try:
            pair_aggregates(x, y, SIGN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


_THREAD_PROBE = """
import hashlib
import numpy as np
from twosample import NullDrawConfig, pair_aggregates, run_test
for p in (100, 1000):
    rng = np.random.default_rng(p)
    x = rng.standard_normal((40, p))
    y = rng.standard_normal((50, p)) + 0.05
    for kernel in ("identity", "sign"):
        g, sx, sy, sumsq = pair_aggregates(x, y, kernel)
        digest = hashlib.sha256(g.tobytes() + sx.tobytes() + sy.tobytes()).hexdigest()
        print(p, kernel, digest, repr(sumsq))
        print(repr(run_test(x, y, kernel, config=NullDrawConfig(draws=2000, seed=5))))
"""


def test_results_do_not_depend_on_blas_thread_count():
    src = pathlib.Path(twosample.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("TestReport") == 4
    assert outputs[0] == outputs[1]


def _eigenvalues(p):
    c = np.random.default_rng(p).standard_normal((90, p))
    m = c.T @ c
    return lambda: eigenvalues_sym(m).tobytes()


def _hotelling(p, n1, n2):
    rng = np.random.default_rng([1, p])
    x, y = rng.standard_normal((n1, p)), rng.standard_normal((n2, p))
    return lambda: repr(hotelling_t2(x, y))


def _statistic(p, n1, n2):
    rng = np.random.default_rng(p)
    x, y = rng.standard_normal((n1, p)), rng.standard_normal((n2, p))
    return lambda: repr(compute_statistic(x, y, IDENTITY))


@pytest.mark.parametrize(
    "make, args",
    [
        (_eigenvalues, (300,)),
        (_hotelling, (300, 200, 250)),
        (_hotelling, (400, 250, 300)),
        (_statistic, (100_000, 4, 5)),
    ],
    ids=[
        "eigenvalues_sym-p300",
        "hotelling_t2-p300",
        "hotelling_t2-p400",
        "compute_statistic-p100000",
    ],
)
def test_direct_calls_do_not_depend_on_blas_thread_count(blas_threads, make, args):
    # at these sizes OpenBLAS splits eigvalsh, the pooled covariance's products
    # and the statistic's g @ g over two threads, and the last bits then
    # differ from one thread's
    call = make(*args)
    setter, getter = blas_threads
    outputs = []
    for threads in (1, 2):
        setter(threads)
        outputs.append(call())
        assert getter() == threads  # the caller's count is restored
    assert outputs[0] == outputs[1]


class TestComputeStatistic:
    def test_four_point_value(self):
        # hand enumeration of the quadruple sum gives -4/16
        assert compute_statistic(X4, Y4, IDENTITY) == -0.25

    def test_single_row_raises(self):
        # the off-diagonal index sets are empty: T is undefined, not 0
        with pytest.raises(ValueError, match="^x and y need .* x has 1, y has 4$"):
            compute_statistic(np.zeros((1, 3)), np.ones((4, 3)), IDENTITY)
        with pytest.raises(ValueError, match="^x and y need .* x has 4, y has 1$"):
            compute_statistic(np.zeros((4, 3)), np.ones((1, 3)), SIGN)

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


def _recentred(x, y, kernel, delta):
    """T(delta) in closed form from one pair pass, as the replication path takes it."""
    g, stat, _ = _pass(x, y, kernel)
    return _recentred_statistic(stat, g, len(x), len(y), np.asarray(delta, dtype=float))


class TestRecentredStatistic:
    def test_zero_delta_equals_plain(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((5, 3))
        for kernel in (IDENTITY, SIGN):
            assert _recentred(x, y, kernel, np.zeros(3)) == compute_statistic(x, y, kernel)

    def test_four_point_with_unit_recentering(self):
        # delta = -1 turns every h into h + 1; enumeration gives -8/16
        assert _recentred(X4, Y4, IDENTITY, [-1.0]) == -0.5

    def test_matches_enumeration(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal((4, 2))
        delta = rng.standard_normal(2)
        for kernel in (IDENTITY, SIGN):
            got = _recentred(x, y, kernel, delta)
            want = _centered_enumeration(x, y, kernel, delta)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_single_row_raises(self):
        with pytest.raises(ValueError, match="^x and y need .* x has 1, y has 2$"):
            _recentred(X4[:1], Y4, IDENTITY, [0.5])
