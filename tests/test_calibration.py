import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from twosample import (
    NullDrawConfig,
    ScenarioConfig,
    _blas,
    calibration,
    compute_statistic,
    covariance,
    eigenvalues_sym,
    empirical_quantile,
    experiments,
    generate_scenario,
    pair_aggregates,
    run_power_curve,
    run_test,
    shift_vector,
    simulate_null_draws,
    statistic,
)
from twosample.covariance import _apply_taper, _taper_bandwidth

from oracle import estimate_plain, null_draws_one_matrix


class TestNullDrawConfig:
    def test_defaults(self):
        config = NullDrawConfig()
        assert config.draws == 10000
        assert config.alpha == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            NullDrawConfig(draws=0)
        with pytest.raises(ValueError):
            NullDrawConfig(alpha=0.0)
        with pytest.raises(ValueError):
            NullDrawConfig(alpha=1.0)

    @pytest.mark.parametrize("draws", [10.5, True, np.bool_(True), "100"])
    def test_draws_must_be_an_integer(self, draws):
        with pytest.raises(ValueError, match=f"^draws must be an integer, got {draws!r}$"):
            NullDrawConfig(draws=draws)

    @pytest.mark.parametrize("seed", [1.7, True, np.bool_(True), "7"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            NullDrawConfig(seed=seed)

    def test_numpy_scalars_are_kept_as_python_numbers(self):
        # so a config repr, a manifest and the quantile's Fraction see plain numbers
        config = NullDrawConfig(np.int64(100), np.float32(0.25), np.uint32(7))
        assert config == NullDrawConfig(100, 0.25, 7)
        assert repr(config) == repr(NullDrawConfig(100, 0.25, 7))
        assert [type(v) for v in (config.draws, config.alpha, config.seed)] == [int, float, int]

    def test_numpy_alpha_range_is_checked_in_float64(self):
        # in float32, 1 - 1e-10 rounds to 1; its float64 value does not
        assert NullDrawConfig(alpha=np.float32(1e-10)).alpha == float(np.float32(1e-10))

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            NullDrawConfig(seed=-1)
        assert NullDrawConfig(seed=0).seed == 0

    @pytest.mark.parametrize(
        "alpha", ["0.5", True, np.bool_(True), pytest.param(10**400, id="beyond-float")]
    )
    def test_alpha_must_be_a_number(self, alpha):
        with pytest.raises(ValueError, match=f"^alpha must be a number, got {alpha!r}$"):
            NullDrawConfig(alpha=alpha)

    def test_alpha_out_of_range_names_the_value(self):
        with pytest.raises(ValueError, match="^alpha must be strictly between 0 and 1, got 2.0$"):
            NullDrawConfig(alpha=2.0)

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54])
    def test_alpha_whose_level_rounds_to_1_is_rejected(self, alpha):
        # 1.0 - alpha == 1.0, which empirical_quantile would reject mid-run
        message = f"alpha must be above 2**-54, or 1 - alpha rounds to 1, got {alpha}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NullDrawConfig(alpha=alpha)

    def test_smallest_alpha_runs_a_test(self):
        alpha = math.nextafter(2.0**-54, 1.0)
        # its level 1 - 2**-53 is below 1, and the cutoff is the largest draw
        assert empirical_quantile(np.arange(50.0), 1.0 - alpha) == 49.0
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((6, 2)), rng.standard_normal((7, 2))
        report = run_test(x, y, "sign", config=NullDrawConfig(draws=50, alpha=alpha, seed=1))
        assert math.isfinite(report.cutoff)


class TestSimulateNullDraws:
    def test_zero_spectrum_gives_zero_draws(self):
        config = NullDrawConfig(draws=50, seed=1)
        draws = simulate_null_draws(np.zeros(4), config, np.random.default_rng(1))
        assert np.array_equal(draws, np.zeros(50))

    def test_single_weight_moments(self):
        # V = Z^2 - 1 has mean 0 and variance 2
        config = NullDrawConfig(draws=1_000_000, seed=2)
        draws = simulate_null_draws(np.ones(1), config, np.random.default_rng(2))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 2.0) < 0.05

    def test_two_weight_variance_adds(self):
        config = NullDrawConfig(draws=1_000_000, seed=3)
        draws = simulate_null_draws(np.ones(2), config, np.random.default_rng(3))
        assert abs(draws.var() - 4.0) < 0.1

    def test_deterministic_given_seed(self):
        config = NullDrawConfig(draws=100, seed=9)
        a = simulate_null_draws([1.0, -0.5], config, np.random.default_rng(9))
        b = simulate_null_draws([1.0, -0.5], config, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_draw_order_is_row_major(self):
        # the contract: all p normals of draw j are consumed before draw j+1
        lam = np.array([2.0, -1.0, 0.5])
        config = NullDrawConfig(draws=7, seed=21)
        got = simulate_null_draws(lam, config, np.random.default_rng(21))
        z = np.random.default_rng(21).standard_normal((7, 3))
        want = np.einsum("ij,j->i", z * z - 1.0, lam)
        assert np.array_equal(got, want)

    def test_empty_spectrum_raises(self):
        with pytest.raises(ValueError):
            simulate_null_draws([], NullDrawConfig(draws=5), np.random.default_rng(0))

    @pytest.mark.parametrize("k, columns", [(1, 1), (3, 4), (90, 5)])
    def test_columns_equal_the_one_spectrum_call(self, k, columns):
        # the shared normals: column j is the 1-d call on column j, bit for bit
        spectra = np.random.default_rng(k).standard_normal((k, columns))
        config = NullDrawConfig(draws=300, seed=17)
        got = simulate_null_draws(spectra, config, np.random.default_rng(17))
        assert got.shape == (300, columns)
        for j in range(columns):
            want = simulate_null_draws(spectra[:, j].copy(), config, np.random.default_rng(17))
            assert np.array_equal(got[:, j], want)

    @pytest.mark.parametrize("shape", [(2, 3, 1), (3, 0), (0, 2)])
    def test_bad_spectrum_matrix_raises(self, shape):
        # a 3-d input, a matrix with no columns and one with empty spectra
        with pytest.raises(ValueError, match="spectrum must be"):
            simulate_null_draws(np.ones(shape), NullDrawConfig(draws=5), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum_raises(self, bad):
        # a NaN or infinite weight would make every draw, and so the cutoff, NaN or infinite
        for spectrum in ([bad, 1.0], [[1.0, 2.0], [3.0, bad]]):
            with pytest.raises(ValueError, match="^spectrum contains non-finite entries$"):
                simulate_null_draws(spectrum, NullDrawConfig(draws=5), np.random.default_rng(0))

    @pytest.mark.parametrize("columns", [None, 1, 5])
    @pytest.mark.parametrize("k", [1, 5, 90, 1000, 20000])
    def test_blocks_equal_one_matrix(self, k, columns):
        # every draw count around the block height B. B + 1 and 2 B + 1 end in a
        # lone row, which joins the block before it: above 8192 weights, as at
        # k = 20000, einsum would round a one-row block otherwise
        b = calibration._block_rows(k)
        shape = (k,) if columns is None else (k, columns)
        spectrum = np.random.default_rng(k).standard_normal(shape)
        for m in sorted({1, 7, b - 1, b, b + 1, 2 * b + 1, 10**4 + 1}):
            if m * k > 2 * 10**7:
                continue  # the one matrix of 10^4 + 1 rows at k = 20000 would take 1.6 GB
            config = NullDrawConfig(draws=m, seed=m)
            got = simulate_null_draws(spectrum, config, np.random.default_rng(m))
            want = null_draws_one_matrix(spectrum, config, np.random.default_rng(m))
            assert got.shape == want.shape
            assert np.array_equal(got, want), f"draws={m}"

    @pytest.mark.parametrize("columns", [None, 5])
    @pytest.mark.parametrize("k", [1, 5, 90, 1000, 20000])
    def test_draws_do_not_depend_on_the_block_height(self, monkeypatch, k, columns):
        # from blocks of 2 rows (at 1 and 97 doubles) up to the default height,
        # which takes all M draws in one block at small k
        shape = (k,) if columns is None else (k, columns)
        spectrum = np.random.default_rng(k).standard_normal(shape)
        config = NullDrawConfig(draws=23, seed=3)
        runs = []
        for doubles in (1, 97, 2**10, 2**17):
            monkeypatch.setattr(calibration, "_BLOCK_DOUBLES", doubles)
            runs.append(simulate_null_draws(spectrum, config, np.random.default_rng(3)))
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])

    @pytest.mark.parametrize("k", [1, 5, 90, 1000, 20000])
    def test_each_draw_is_accurate(self, k):
        # against the exactly rounded sum of the products lam_j (z_j^2 - 1); a
        # recursive sum's error bound would be (k - 1) eps sum |lam_j (z_j^2 - 1)|
        lam = np.random.default_rng(k).standard_normal(k)
        m = 40
        got = simulate_null_draws(lam, NullDrawConfig(draws=m), np.random.default_rng(8))
        z = np.random.default_rng(8).standard_normal((m, k))
        z *= z
        z -= 1.0
        eps = np.finfo(float).eps
        for draw, row in zip(got, z):
            terms = lam * row
            assert abs(draw - math.fsum(terms)) <= 4 * eps * math.fsum(np.abs(terms))

    def test_draws_make_no_blas_thread_call(self, monkeypatch):
        # an OpenBLAS at two threads, whose setter records each call
        sets = []
        monkeypatch.setattr(_blas, "_openblas_threads", lambda: (sets.append, lambda: 2))
        spectrum = np.random.default_rng(0).standard_normal((90, 5))
        simulate_null_draws(spectrum, NullDrawConfig(draws=500), np.random.default_rng(0))
        assert sets == []

    @pytest.mark.parametrize("k", [5, 90, 1000])
    def test_draws_do_not_depend_on_the_blas_thread_count(self, blas_threads, k):
        # at two threads OpenBLAS splits a matrix-vector product of rows x k >= 460800
        # in halves, which rounds some rows otherwise when a half is not a multiple of 4
        setter, _ = blas_threads
        spectrum = np.random.default_rng(k).standard_normal((k, 5))
        b = calibration._block_rows(k)
        for m in [7, 13, b + 1, b + 2, 2 * b + 5, 10**4 + 1, 10**4 + 3]:
            config = NullDrawConfig(draws=m, seed=m)
            runs = []
            for threads in (1, 2):
                setter(threads)
                runs.append(simulate_null_draws(spectrum, config, np.random.default_rng(m)))
            assert np.array_equal(*runs), f"draws={m}"

    @pytest.mark.parametrize("m, k", [(1, 20000), (9, 60000)])
    def test_large_spectra_draws_do_not_depend_on_the_blas_thread_count(self, blas_threads, m, k):
        # one draw over more than 10000 weights is a dot product, and 9 draws over
        # 60000 are a product of 9 x 60000 >= 460800: OpenBLAS splits both over threads
        setter, _ = blas_threads
        spectrum = np.random.default_rng(k).standard_normal(k)
        config = NullDrawConfig(draws=m)
        for seed in range(5):
            runs = []
            for threads in (1, 2):
                setter(threads)
                runs.append(simulate_null_draws(spectrum, config, np.random.default_rng(seed)))
            assert np.array_equal(*runs), f"seed={seed}"

    def test_working_memory_is_one_block(self):
        # one M x k matrix of normals at M = 10^4 and k = 1000 would take 80 MB
        spectrum = np.linspace(1.0, 0.0, 1000)
        config = NullDrawConfig(draws=10**4, seed=5)
        tracemalloc.start()
        try:
            simulate_null_draws(spectrum, config, np.random.default_rng(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestEmpiricalQuantile:
    def test_inf_form_examples(self):
        values = np.arange(1.0, 101.0)
        assert empirical_quantile(values, 0.95) == 95.0
        assert empirical_quantile([7.25], 0.31) == 7.25
        assert empirical_quantile([1.0, 2.0], 0.5) == 1.0

    def test_literal_and_computed_levels_agree(self):
        # 0.95 and 1 - 0.05 differ in the last float bit; both must pick rank 95
        values = np.arange(1.0, 101.0)
        assert empirical_quantile(values, 1.0 - 0.05) == 95.0
        big = np.arange(1.0, 10001.0)
        assert empirical_quantile(big, 0.95) == 9500.0
        assert empirical_quantile(big, 1.0 - 0.05) == 9500.0

    def test_order_insensitive(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(317)
        assert empirical_quantile(values, 0.9) == empirical_quantile(
            rng.permutation(values), 0.9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.0)

    def test_numpy_levels_are_the_numbers_they_equal(self):
        values = np.arange(1.0, 101.0)
        assert empirical_quantile(values, np.float32(0.75)) == 75.0
        assert empirical_quantile(values, np.float64(0.95)) == 95.0

    @pytest.mark.parametrize("level", ["0.5", None, True, np.bool_(True), [0.5]])
    def test_a_level_that_is_not_a_number_raises(self, level):
        with pytest.raises(ValueError, match=r"^level must be a number, got "):
            empirical_quantile([1.0, 2.0], level)


class TestRunTest:
    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    @pytest.mark.parametrize("kernel", ["identity", "sign"])
    @pytest.mark.parametrize("y_row", [[1.5, -2.0, 0.0], [2.0, 2.0, 2.0]])
    def test_degenerate_constant_samples(self, pair_passes, kernel, estimator, y_row):
        # C = 0 for both kernels: the cutoff came out 0 or rounding noise, so
        # equal constants gave p = 1 and unequal ones a rejection
        x = np.tile([1.5, -2.0, 0.0], (20, 1))
        y = np.tile(y_row, (25, 1))
        message = (
            "^x and y are each constant: every row of x equals x\\[0\\] and every row of y "
            "equals y\\[0\\], so the covariance estimate is 0 and the test has no null law$"
        )
        with pytest.raises(ValueError, match=message):
            run_test(x, y, kernel, estimator, NullDrawConfig(draws=100, seed=4))
        assert pair_passes == []

    def test_deterministic_reports(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((10, 4))
        y = rng.standard_normal((12, 4))
        config = NullDrawConfig(draws=500, seed=77)
        assert run_test(x, y, "sign", "plain", config) == run_test(x, y, "sign", "plain", config)

    def test_reject_flag_matches_strict_cutoff_rule(self):
        rng = np.random.default_rng(25)
        for trial in range(5):
            x = rng.standard_normal((8, 3))
            y = rng.standard_normal((9, 3)) + 0.3 * trial
            config = NullDrawConfig(draws=400, seed=trial)
            for estimator in ("plain", "taper"):
                report = run_test(x, y, "identity", estimator, config)
                assert report.reject == (report.statistic > report.cutoff)
                assert 1.0 / 401.0 <= report.p_value <= 1.0

    @pytest.mark.parametrize("m, p_value", [(1000, 51 / 1001), (10**4, 501 / 10001)])
    def test_reject_and_p_value_disagree_in_one_count_band(self, m, p_value):
        # with c = #{V >= T} and k = ceil((1 - alpha) M), reject holds when c <= M - k
        # and p_value <= alpha when c <= alpha (M + 1) - 1; a T between V_(k) and
        # V_(k+1) has c = M - k, which at alpha = 0.05 lies in the band between them
        spectrum = np.array([3.0, 1.0, 0.5])
        config = NullDrawConfig(draws=m, seed=9)
        # the draws that _calibrate makes, from the generator seeded with config.seed
        v = np.sort(simulate_null_draws(spectrum, config, np.random.default_rng(config.seed)))
        k = 19 * m // 20
        [report] = calibration._calibrate([(spectrum, [(v[k - 1] + v[k]) / 2])], config)
        assert report.cutoff == v[k - 1]
        assert report.reject is True
        assert report.p_value == p_value > config.alpha

    def test_taper_changes_the_reference(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((20, 12))
        y = rng.standard_normal((25, 12))
        config = NullDrawConfig(draws=400, seed=6)
        plain = run_test(x, y, "identity", "plain", config)
        tapered = run_test(x, y, "identity", "taper", config, beta=0.25)
        assert plain.statistic == tapered.statistic
        assert plain.cutoff != tapered.cutoff

    # beta is checked for either estimator, before the first pair pass
    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    @pytest.mark.parametrize("beta", ["x", True])
    def test_taper_beta_must_be_a_number(self, pair_passes, beta, estimator):
        rng = np.random.default_rng(36)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((9, 4))
        with pytest.raises(ValueError, match=f"^beta must be a number, got {beta!r}$"):
            run_test(x, y, "sign", estimator, NullDrawConfig(draws=50), beta=beta)
        assert pair_passes == []

    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_taper_beta_must_be_finite(self, pair_passes, estimator):
        # n^(1/(2 beta + 2)) = 1 at beta = inf would taper to the diagonal alone
        rng = np.random.default_rng(36)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((9, 4))
        with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
            run_test(x, y, "sign", estimator, NullDrawConfig(draws=50), beta=float("inf"))
        assert pair_passes == []

    @pytest.mark.parametrize("kernel", ["identity", "sign"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_taper_equals_plain_up_to_p_two(self, kernel, p):
        # every taper weight is 1 at p <= 2, and both estimates are one C^T C
        for seed in range(5):
            rng = np.random.default_rng([p, seed])
            x = rng.standard_normal((40, p))
            y = rng.standard_t(3, size=(50, p)) + 0.3
            config = NullDrawConfig(draws=200, seed=seed)
            taper = run_test(x, y, kernel, "taper", config)
            assert taper == run_test(x, y, kernel, "plain", config)

    def test_far_shift_of_y_keeps_the_identity_taper_spectrum(self):
        # h = x - y: shifting y by 10^6 moves only the mean that C removes
        rng = np.random.default_rng(57)
        x = rng.standard_normal((40, 30))
        y = rng.standard_normal((50, 30))
        config = NullDrawConfig(draws=100, seed=5)
        near = run_test(x, y, "identity", "taper", config)
        far = run_test(x, y + 1e6, "identity", "taper", config)
        assert far.trace == pytest.approx(near.trace, rel=1e-9, abs=0)
        assert far.top_eigenvalue == pytest.approx(near.top_eigenvalue, rel=1e-9, abs=0)

    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_one_pair_pass_per_test(self, monkeypatch, pair_passes, estimator):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((9, 6))
        y = rng.standard_normal((11, 6)) + 0.2
        report = run_test(x, y, "sign", estimator, NullDrawConfig(draws=300, seed=8))
        assert len(pair_passes) == 1
        monkeypatch.undo()
        # the one pass gives what the public helpers get from passes of their own
        assert report.statistic == compute_statistic(x, y, "sign")
        if estimator == "plain":
            # the plain spectrum comes from the Gram form, equal up to rounding
            lam = eigenvalues_sym(estimate_plain(x, y, "sign"))
            assert report.trace == pytest.approx(float(lam.sum()), rel=1e-12)
            assert report.top_eigenvalue == pytest.approx(float(lam[0]), rel=1e-12)
        else:
            k = _taper_bandwidth(0.25, 20, 6)
            lam = eigenvalues_sym(_apply_taper(estimate_plain(x, y, "sign"), k))
            assert report.trace == float(lam.sum())
            assert report.top_eigenvalue == float(lam[0])

    @pytest.mark.parametrize(
        "estimator, p, length",
        [("plain", 6, 6), ("plain", 20, 20), ("plain", 35, 20), ("taper", 35, 35)],
    )
    def test_null_draws_use_min_p_n_weights(self, monkeypatch, estimator, p, length):
        # n1 + n2 = 20: the plain spectrum stops growing there, the tapered one does not
        rng = np.random.default_rng(p)
        x = rng.standard_normal((9, p))
        y = rng.standard_normal((11, p))
        sizes = []
        original = calibration.simulate_null_draws

        def recording(spectrum, config, rng):
            sizes.append(len(spectrum))
            return original(spectrum, config, rng)

        monkeypatch.setattr(calibration, "simulate_null_draws", recording)
        run_test(x, y, "sign", estimator, NullDrawConfig(draws=100, seed=2))
        assert sizes == [length]

    @pytest.mark.parametrize("n1, n2, p", [(40, 50, 1000), (12, 15, 40)])
    @pytest.mark.parametrize("kernel", ["identity", "sign"])
    def test_plain_spectrum_has_no_negative_eigenvalues(self, kernel, n1, n2, p):
        # the plain estimate is positive semidefinite; rounding noise is not counted
        rng = np.random.default_rng(p)
        x = rng.standard_normal((n1, p))
        y = rng.standard_t(3, size=(n2, p))
        report = run_test(x, y, kernel, "plain", NullDrawConfig(draws=100, seed=3))
        assert report.negative_eigenvalues == 0

    def test_overflowing_identity_kernel_names_the_input(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((8, 4)) * 1e160
        y = rng.standard_normal((9, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x and y .* identity kernel"):
                run_test(x, y, "identity", "plain", NullDrawConfig(draws=100))
            with pytest.raises(ValueError, match="x and y .* identity kernel"):
                run_test(x, y, "identity", "taper", NullDrawConfig(draws=100))
            # the public functions of the same pair pass name the input too
            with pytest.raises(ValueError, match="x and y .* identity kernel"):
                compute_statistic(x, y, "identity")
            with pytest.raises(ValueError, match="x and y .* identity kernel"):
                pair_aggregates(x, y, "identity")
            # the sign kernel is bounded, so the same data are fine there
            assert run_test(x, y, "sign", "plain", NullDrawConfig(draws=100)).trace > 0.0
            # but x_i - y_j itself overflows at +-1.7e308, and the error names the sign kernel
            x = np.array([[1.7e308, 0.0], [-1.7e308, 1.0], [0.0, 2.0]])
            y = np.array([[-1.7e308, 0.0], [1.7e308, 1.0], [0.0, 3.0]])
            with pytest.raises(ValueError, match="x and y .* sign kernel"):
                compute_statistic(x, y, "sign")
            with pytest.raises(ValueError, match="x and y .* sign kernel"):
                run_test(x, y, "sign", "plain", NullDrawConfig(draws=100))

    def test_underflowing_identity_kernel_names_the_input(self):
        # at 1e-165 the pair sums of squares flush to 0, and the test read
        # statistic 0, cutoff 0, p-value 1
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 4))
        y = rng.standard_normal((25, 4)) + 0.8
        for entry in (run_test, compute_statistic):
            with pytest.raises(ValueError, match="x and y .* small .* identity kernel"):
                entry(x * 1e-165, y * 1e-165, "identity")
        # the sign kernel is scale-free
        base = compute_statistic(x, y, "sign")
        assert abs(compute_statistic(x * 1e-165, y * 1e-165, "sign") - base) <= 1e-12 * base

    @pytest.mark.parametrize("n1, n2, p", [(8, 9, 4), (5, 6, 40)])
    def test_identity_data_either_overflow_by_name_or_stay_finite(self, n1, n2, p):
        # a finite T bounds C, C^T C and C C^T, so no estimate check is needed
        # beyond T's: scale the data by 2^k across the threshold, where T
        # overflows, with p below and above n1 + n2
        rng = np.random.default_rng(p)
        x0 = rng.standard_normal((n1, p))
        y0 = rng.standard_normal((n2, p)) + 0.5
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in np.arange(490.0, 515.0, 0.25):
                x, y = x0 * 2.0**k, y0 * 2.0**k
                try:
                    est = estimate_plain(x, y, "identity")
                except ValueError as err:
                    assert "too large in magnitude for the identity kernel" in str(err)
                    outcomes.add("raised")
                else:
                    assert np.isfinite(est).all()
                    outcomes.add("finite")
                for estimator in ("plain", "taper"):
                    try:
                        report = run_test(x, y, "identity", estimator, NullDrawConfig(draws=50))
                    except ValueError as err:
                        assert "too large in magnitude for the identity kernel" in str(err)
                        continue
                    fields = [report.statistic, report.cutoff, report.trace, report.top_eigenvalue]
                    assert np.isfinite(fields).all()
        assert outcomes == {"raised", "finite"}  # the scan crosses the threshold
        # at the low end, where the pair sums of squares would underflow, the
        # data either raise by name or give 2^2k times the unit-scale report
        config = NullDrawConfig(draws=50)
        unit = {e: run_test(x0, y0, "identity", e, config) for e in ("plain", "taper")}
        outcomes = set()
        for k in range(-560, -479):
            for estimator, want in unit.items():
                try:
                    report = run_test(x0 * 2.0**k, y0 * 2.0**k, "identity", estimator, config)
                except ValueError as err:
                    assert "too small in magnitude for the identity kernel" in str(err)
                    outcomes.add("raised")
                    continue
                for name in ("statistic", "cutoff", "trace", "top_eigenvalue"):
                    got = np.ldexp(getattr(report, name), -2 * k)
                    assert abs(got - getattr(want, name)) <= 1e-12 * abs(getattr(want, name))
                outcomes.add("scaled")
        assert outcomes == {"raised", "scaled"}

    @pytest.mark.parametrize("entry", [run_test, compute_statistic])
    def test_one_row_sample_names_the_input(self, entry):
        # every function that computes T applies the one rule of its pair pass
        with pytest.raises(ValueError) as err:
            entry(np.zeros((1, 3)), np.ones((4, 3)), "identity")
        assert str(err.value) == "x and y need at least two rows each: x has 1, y has 4"

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            run_test(np.zeros((1, 3)), np.zeros((5, 3)), "identity")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            run_test(np.zeros((3, 2)), np.zeros((3, 2)), "identity", "shrinkage")

    @pytest.mark.parametrize("kernel", ["identity", "sign"])
    def test_pair_pass_gets_y_as_given(self, pair_passes, kernel):
        # no shifted copy y + 0 for the one test, which would also turn -0.0 into 0.0
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal((6, 3)), rng.standard_normal((7, 3))
        run_test(x, y, kernel, config=NullDrawConfig(draws=100))
        [(_, passed, _)] = pair_passes
        assert passed is y

    def test_working_memory_of_a_test_at_large_p(self):
        # n1 = 40, n2 = 50, p = 1000: the centred rows are 0.69 MiB, written over
        # by sx and sy, and the two matrix products of the sign pass as much
        # again; the normals take one 1 MiB block after the pass has ended.
        # Through full-size temporaries the sign, plain test peaked at 2.62 MiB.
        # The other bounds are the peaks measured before the factor C was kept
        # alive through its spectrum (8.594, 8.748 and 1.453 MiB, rounded up to
        # 0.01 MiB) plus one C, 90 x 1000 doubles or 0.69 MiB
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 1000))
        y = rng.standard_normal((50, 1000))
        for kernel, estimator, bound in [
            ("sign", "plain", 1.75),
            ("sign", "taper", 8.60 + 0.69),
            ("identity", "taper", 8.75 + 0.69),
            ("identity", "plain", 1.46 + 0.69),
        ]:
            run_test(x, y, kernel, estimator)  # untraced: a first call may set up numpy's caches
            tracemalloc.start()
            try:
                run_test(x, y, kernel, estimator)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, (kernel, estimator, peak)

    def test_no_centred_factor_is_held_through_the_null_draws(self):
        # identity, plain, n1 = 40, n2 = 50, p = 3000: one (n1+n2) x p array is
        # 2.06 MiB. Holding C through the null draws adds the 1 MiB block of
        # normals on top of it (3.19 MiB); dropped after its spectrum, the peak
        # is the pass's (2.34 MiB), under 1.25 such arrays
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 3000))
        y = rng.standard_normal((50, 3000))
        run_test(x, y, "identity")  # untraced: a first call may set up numpy's caches
        tracemalloc.start()
        try:
            run_test(x, y, "identity")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 90 * 3000 * 8, peak


POWER_GRID = (0.0, 1.0, 2.0, 3.0, 4.0)  # the grid of configs/power_p100.json


def _scenario(family, p, seed, **fields):
    """A one-replication scenario, n 40 + 50, equicorrelated covariance."""
    settings = dict(
        scenario_id="shift",
        family=family,
        cov_form="equicorr",
        p=p,
        n1=40,
        n2=50,
        deltas=(0.0,),
        alpha=0.05,
        draws=500,
        replications=1,
        seed=seed,
    )
    return ScenarioConfig(**(settings | fields))


def _replication(family, p, seed):
    """x, y0 and the shifts of one power-curve replication, n 40 + 50."""
    x, y0 = generate_scenario(_scenario(family, p, seed), np.random.default_rng(seed))
    return x, y0, [shift_vector(p, d) for d in POWER_GRID]


class TestShiftTests:
    """The replication path against run_test at y0 + s, shift by shift."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p", [5, 100])
    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_sign_kernel_equals_run_test_bit_for_bit(self, estimator, p, seed):
        x, y0, shifts = _replication("t3", p, seed)
        config = NullDrawConfig(draws=500, seed=seed + 10)
        reports = calibration._shift_tests(x, y0, shifts, "sign", estimator, config, 0.25)
        assert len(reports) == len(shifts)
        # every field of every shift's report, the p-value and cutoff included
        for j, s in enumerate(shifts):
            assert reports[j] == run_test(x, y0 + s, "sign", estimator, config)

    @pytest.mark.parametrize("family", ["gaussian", "t3", "cauchy"])
    @pytest.mark.parametrize("p", [5, 100])
    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_identity_kernel_matches_run_test(self, estimator, p, family):
        x, y0, shifts = _replication(family, p, 4)
        config = NullDrawConfig(draws=500, seed=14)
        reports = calibration._shift_tests(x, y0, shifts, "identity", estimator, config, 0.25)
        assert len(reports) == len(shifts)
        # one calibration serves every shift
        calibrations = {(r.cutoff, r.trace, r.top_eigenvalue) for r in reports}
        assert len(calibrations) == 1
        for s, shifted in zip(shifts, reports):
            report = run_test(x, y0 + s, "identity", estimator, config)
            assert shifted.statistic == pytest.approx(report.statistic, rel=1e-12, abs=0.0)
            assert shifted.cutoff == pytest.approx(report.cutoff, rel=1e-12, abs=0.0)
        # at delta 0 the closed form adds exactly nothing
        assert reports[0] == run_test(x, y0, "identity", estimator, config)

    @pytest.mark.parametrize("kernel, passes", [("identity", 1), ("sign", len(POWER_GRID))])
    def test_one_calibration_per_replication(self, monkeypatch, kernel, passes):
        config = _scenario(
            "gaussian", 20, 5, deltas=POWER_GRID, draws=200, kernel=kernel, estimator="taper"
        )
        calls = dict.fromkeys(
            ["pair_aggregates", "eigenvalues_sym", "simulate_null_draws", "empirical_quantile"], 0
        )
        for module, name in (
            (statistic, "pair_aggregates"),
            (calibration, "eigenvalues_sym"),
            (calibration, "simulate_null_draws"),
            (calibration, "empirical_quantile"),
        ):

            def counting(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        assert len(experiments._replicate(config, 0)) == len(POWER_GRID)
        assert calls == {
            "pair_aggregates": passes,
            "eigenvalues_sym": passes,
            "simulate_null_draws": 1,
            "empirical_quantile": passes,
        }

    def test_overflowing_identity_shift_names_the_input(self):
        # the pair sums at delta 0 are finite; T at the far shift is not
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y0 = np.array([[1.0, 1.0], [0.0, 0.5], [0.5, 0.0]])
        shifts = [np.zeros(2), np.full(2, 1e300)]
        config = NullDrawConfig(draws=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^a shift of y of norm delta = 1.41421e\\+300 "):
                calibration._shift_tests(x, y0, shifts, "identity", "plain", config, 0.25)


def test_every_layer_site_is_entered(monkeypatch):
    # each layer's site is a module global looked up at call time, so a wrapper
    # set on it, as a tracer sets one, sees every call; a refactor that binds a
    # layer early, or stops calling it, leaves its spy at 0
    sites = [
        (statistic, "pair_aggregates"),
        (calibration, "eigenvalues_sym"),
        (calibration, "_matrix"),
        (calibration, "simulate_null_draws"),
        (calibration, "empirical_quantile"),
        (covariance, "_apply_taper"),
        (experiments, "generate_scenario"),
    ]
    calls = dict.fromkeys((f"{module.__name__}.{name}" for module, name in sites), 0)
    for module, name in sites:

        def counting(*args, _site=f"{module.__name__}.{name}", _original=getattr(module, name)):
            calls[_site] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((9, 6)), rng.standard_normal((11, 6))
    config = NullDrawConfig(draws=100, seed=3)
    run_test(x, y, "sign", "plain", config)
    run_test(x, y, "identity", "taper", config)
    experiments._replicate(_scenario("gaussian", 5, 5, draws=100), 0)
    assert [site for site, count in calls.items() if count == 0] == []


def test_null_size_gaussian_identity_p5():
    # 1000 Gaussian null replications, identity covariance, sign kernel with
    # the plain estimator: the rejection fraction should sit near the level
    config = ScenarioConfig(
        scenario_id="null-p5-identity",
        family="gaussian",
        cov_form="identity",
        p=5,
        n1=40,
        n2=50,
        deltas=(0.0,),
        kernel="sign",
        estimator="plain",
        alpha=0.05,
        draws=1000,
        replications=1000,
        seed=20250819,
    )
    [row] = run_power_curve(config)
    assert 0.03 <= row.reject_frac <= 0.07
