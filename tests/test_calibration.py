import warnings

import numpy as np
import pytest

from twosample import (
    NullDrawConfig,
    ScenarioConfig,
    calibration,
    compute_statistic,
    eigenvalues_sym,
    empirical_quantile,
    estimate_plain,
    generate_scenario,
    run_power_curve,
    run_test,
    shift_vector,
    simulate_null_draws,
    statistic,
)
from twosample.covariance import _apply_taper, _taper_bandwidth


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

    @pytest.mark.parametrize("draws", [10.5, True, "100"])
    def test_draws_must_be_an_integer(self, draws):
        with pytest.raises(ValueError, match=f"^draws must be an integer, got {draws!r}$"):
            NullDrawConfig(draws=draws)


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
        want = (z * z - 1.0) @ lam
        assert np.array_equal(got, want)

    def test_empty_spectrum_raises(self):
        with pytest.raises(ValueError):
            simulate_null_draws([], NullDrawConfig(draws=5), np.random.default_rng(0))


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


class TestRunTest:
    def test_degenerate_constant_samples(self):
        x = np.tile([1.5, -2.0, 0.0], (3, 1))
        y = np.tile([1.5, -2.0, 0.0], (4, 1))
        report = run_test(x, y, "identity", "plain", NullDrawConfig(draws=100, seed=4))
        assert report.statistic == 0.0
        assert report.cutoff == 0.0
        assert report.reject is False
        assert report.p_value == 1.0
        assert report.trace == 0.0

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

    def test_taper_changes_the_reference(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((20, 12))
        y = rng.standard_normal((25, 12))
        config = NullDrawConfig(draws=400, seed=6)
        plain = run_test(x, y, "identity", "plain", config)
        tapered = run_test(x, y, "identity", "taper", config, beta=0.25)
        assert plain.statistic == tapered.statistic
        assert plain.cutoff != tapered.cutoff

    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_one_pair_pass_per_test(self, monkeypatch, estimator):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((9, 6))
        y = rng.standard_normal((11, 6)) + 0.2
        calls = []
        original = statistic.pair_aggregates

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(statistic, "pair_aggregates", counting)
        report = run_test(x, y, "sign", estimator, NullDrawConfig(draws=300, seed=8))
        assert len(calls) == 1
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
            # the sign kernel is bounded, so the same data are fine there
            assert run_test(x, y, "sign", "plain", NullDrawConfig(draws=100)).trace > 0.0

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            run_test(np.zeros((1, 3)), np.zeros((5, 3)), "identity")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            run_test(np.zeros((3, 2)), np.zeros((3, 2)), "identity", "shrinkage")


POWER_GRID = (0.0, 1.0, 2.0, 3.0, 4.0)  # the grid of configs/power_p100.json


def _replication(family, p, seed):
    """x, y0 and the shifts of one power-curve replication, n 40 + 50."""
    config = ScenarioConfig(
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
    x, y0 = generate_scenario(config, np.random.default_rng(seed))
    return x, y0, [shift_vector(p, d) for d in POWER_GRID]


class TestShiftTests:
    """The replication path against run_test at y0 + s, shift by shift."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("p", [5, 100])
    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_sign_kernel_equals_run_test_bit_for_bit(self, estimator, p, seed):
        x, y0, shifts = _replication("t3", p, seed)
        config = NullDrawConfig(draws=500, seed=seed + 10)
        got = calibration._shift_tests(x, y0, shifts, "sign", estimator, config, 0.25)
        for s, (stat, cutoff) in zip(shifts, got):
            report = run_test(x, y0 + s, "sign", estimator, config)
            assert (stat, cutoff) == (report.statistic, report.cutoff)

    @pytest.mark.parametrize("family", ["gaussian", "t3", "cauchy"])
    @pytest.mark.parametrize("p", [5, 100])
    @pytest.mark.parametrize("estimator", ["plain", "taper"])
    def test_identity_kernel_matches_run_test(self, estimator, p, family):
        x, y0, shifts = _replication(family, p, 4)
        config = NullDrawConfig(draws=500, seed=14)
        got = calibration._shift_tests(x, y0, shifts, "identity", estimator, config, 0.25)
        for s, (stat, cutoff) in zip(shifts, got):
            report = run_test(x, y0 + s, "identity", estimator, config)
            assert stat == pytest.approx(report.statistic, rel=1e-12, abs=0.0)
            assert cutoff == pytest.approx(report.cutoff, rel=1e-12, abs=0.0)
        # at delta 0 the closed form adds exactly nothing
        assert got[0][0] == run_test(x, y0, "identity", estimator, config).statistic

    @pytest.mark.parametrize("kernel, passes", [("identity", 1), ("sign", len(POWER_GRID))])
    def test_one_calibration_per_replication(self, monkeypatch, kernel, passes):
        x, y0, shifts = _replication("gaussian", 20, 5)
        calls = {"pair_aggregates": 0, "eigenvalues_sym": 0, "_squared_normals": 0}
        for module, name in (
            (statistic, "pair_aggregates"),
            (calibration, "eigenvalues_sym"),
            (calibration, "_squared_normals"),
        ):

            def counting(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        config = NullDrawConfig(draws=200, seed=3)
        calibration._shift_tests(x, y0, shifts, kernel, "taper", config, 0.25)
        assert calls == {
            "pair_aggregates": passes,
            "eigenvalues_sym": passes,
            "_squared_normals": 1,
        }

    def test_overflowing_identity_shift_names_the_input(self):
        # the pair sums at delta 0 are finite; T at the far shift is not
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y0 = np.array([[1.0, 1.0], [0.0, 0.5], [0.5, 0.0]])
        shifts = [np.zeros(2), np.full(2, 1e300)]
        config = NullDrawConfig(draws=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x and y .* identity kernel"):
                calibration._shift_tests(x, y0, shifts, "identity", "plain", config, 0.25)


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
