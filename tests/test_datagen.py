import dataclasses

import numpy as np
import pytest

from twosample import (
    COV_FORMS,
    ScenarioConfig,
    generate_scenario,
    parse_family,
    scenario_sigma,
    shift_vector,
)
from twosample import _blas, datagen
from twosample.datagen import _sample


class TestScenarioSigma:
    def test_equicorrelated(self):
        assert np.array_equal(scenario_sigma("equicorr", 2), [[1.0, 0.5], [0.5, 1.0]])

    def test_identity(self):
        assert np.array_equal(scenario_sigma("identity", 3), np.eye(3))

    def test_ar_decay(self):
        sigma = scenario_sigma("ar", 3)
        assert sigma[0, 1] == 0.75
        assert sigma[0, 2] == 0.5625
        assert np.array_equal(sigma, sigma.T)

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="toeplitz"):
            scenario_sigma("toeplitz", 3)

    def test_all_forms_factor_at_large_p(self):
        # every named design must admit a Cholesky factorization up to p=2000
        for form in COV_FORMS:
            np.linalg.cholesky(scenario_sigma(form, 2000))


class TestFactor:
    """One read-only factor per (cov_form, p, BLAS thread count) at a time."""

    def test_read_only_and_equal_to_a_fresh_factor(self):
        chol = datagen._factor("ar", 50, _blas._blas_threads())
        assert not chol.flags.writeable
        with pytest.raises(ValueError):
            chol[0, 0] = 2.0
        assert np.array_equal(chol, np.linalg.cholesky(scenario_sigma("ar", 50)))

    def test_thread_count_is_part_of_the_key(self, blas_at_two_threads):
        # at p=300 OpenBLAS's factor can differ in its last bits between 1
        # and 2 threads, so a factor taken at one count must not be reused
        # at the other
        config = _scenario(cov_form="equicorr", p=300, n1=3, n2=2)
        setter, _ = _blas._openblas_threads()
        datagen._factor.cache_clear()
        for threads in (2, 1):
            setter(threads)
            x, _ = generate_scenario(config, np.random.default_rng(31))
            fresh = np.linalg.cholesky(scenario_sigma("equicorr", 300))
            z = np.random.default_rng(31).standard_normal((3, 300))
            assert np.array_equal(x, z @ fresh.T)


class TestShiftVector:
    def test_exact_small_case(self):
        v = shift_vector(2, np.sqrt(5.0))
        assert np.allclose(v, [1.0, 2.0], rtol=0, atol=1e-12)

    def test_zero_delta(self):
        assert np.array_equal(shift_vector(7, 0.0), np.zeros(7))

    def test_norm_equals_delta(self):
        for p in (1, 3, 10, 400):
            for delta in (0.1, 1.0, 17.5):
                assert abs(np.linalg.norm(shift_vector(p, delta)) - delta) <= 1e-12 * delta

    def test_validation(self):
        with pytest.raises(ValueError):
            shift_vector(0, 1.0)
        with pytest.raises(ValueError):
            shift_vector(3, -0.5)
        for delta in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                shift_vector(3, delta)


class TestSample:
    def test_same_seed_same_sample(self):
        a = _sample(np.zeros(3), np.eye(3), None, 8, np.random.default_rng(42))
        b = _sample(np.zeros(3), np.eye(3), None, 8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_gaussian_mean_concentrates(self):
        loc = np.array([0.5, -1.0])
        sample = _sample(loc, np.eye(2), None, 100_000, np.random.default_rng(7))
        assert np.abs(sample.mean(axis=0) - loc).max() < 0.02


class TestParseFamily:
    def test_named_families(self):
        assert parse_family("gaussian") == ("gaussian", None)
        assert parse_family("cauchy") == ("t", 1)
        assert parse_family("t4") == ("t", 4)
        assert parse_family("t1") == ("t", 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_family("laplace")
        with pytest.raises(ValueError):
            parse_family("t0")


def _scenario(**overrides):
    base = dict(
        scenario_id="s",
        family="gaussian",
        cov_form="identity",
        p=5,
        n1=6,
        n2=7,
        deltas=(0.0,),
        draws=100,
        replications=1,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGenerateScenario:
    def test_shapes(self):
        x, y = generate_scenario(_scenario(), np.random.default_rng(1))
        assert x.shape == (6, 5)
        assert y.shape == (7, 5)

    def test_deterministic(self):
        a = generate_scenario(_scenario(family="t4", cov_form="ar"), np.random.default_rng(2))
        b = generate_scenario(_scenario(family="t4", cov_form="ar"), np.random.default_rng(2))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_null_scenario_shares_the_distribution(self):
        # under delta=0 both samples run through the identical sampling path
        x, y = generate_scenario(_scenario(n1=4, n2=4), np.random.default_rng(8))
        swapped_x, _ = generate_scenario(_scenario(n1=4, n2=4), np.random.default_rng(8))
        assert np.array_equal(x, swapped_x)

    def test_shifted_means_track_the_shift_vector(self):
        config = _scenario(p=5, n1=2, n2=100_000, deltas=(1.0,))
        _, y = generate_scenario(config, np.random.default_rng(19))
        band = 3.0 / np.sqrt(100_000.0)
        assert (np.abs(y.mean(axis=0) - shift_vector(5, 1.0)) <= band).all()

    def test_gaussian_covariance_concentrates(self):
        config = _scenario(cov_form="ar", p=4, n1=100_000, n2=1)
        x, _ = generate_scenario(config, np.random.default_rng(11))
        sigma = scenario_sigma("ar", 4)
        emp = np.cov(x, rowvar=False)
        tol = 5.0 * np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / 100_000)
        assert (np.abs(emp - sigma) <= tol).all()

    def test_cauchy_median_concentrates(self):
        config = _scenario(family="cauchy", p=1, n1=100_000, n2=1)
        x, _ = generate_scenario(config, np.random.default_rng(13))
        assert abs(np.median(x)) < 0.02

    def test_student_rows_mix_one_chi_square_each(self):
        # x is drawn first, so regenerating the raw normals must reproduce it
        # after factoring out the per-row chi-square weights
        config = _scenario(family="t4", cov_form="equicorr", p=3, n1=6, n2=2)
        x, _ = generate_scenario(config, np.random.default_rng(17))
        raw = np.random.default_rng(17).standard_normal((6, 3 + 4))
        w = (raw[:, 3:] ** 2).sum(axis=1)
        gaussian_part = raw[:, :3] @ np.linalg.cholesky(scenario_sigma("equicorr", 3)).T
        assert np.allclose(x, gaussian_part / np.sqrt(w / 4.0)[:, None], rtol=1e-12, atol=0)

    def test_sigma_is_factored_once(self, cholesky_calls):
        # the factor depends on the design alone, not on the family or shift
        generate_scenario(_scenario(family="t4", cov_form="ar"), np.random.default_rng(5))
        generate_scenario(_scenario(cov_form="ar", deltas=(2.0,)), np.random.default_rng(6))
        assert cholesky_calls == [(5, 5)]
        generate_scenario(_scenario(cov_form="ar", p=6), np.random.default_rng(7))
        assert cholesky_calls == [(5, 5), (6, 6)]

    def test_warm_factor_draws_the_cold_bits(self):
        config = _scenario(family="t5", cov_form="equicorr", p=40)
        datagen._factor.cache_clear()
        cold = generate_scenario(config, np.random.default_rng(29))
        warm = generate_scenario(config, np.random.default_rng(29))
        assert np.array_equal(cold[0], warm[0]) and np.array_equal(cold[1], warm[1])

    def test_multi_delta_grid_rejected(self):
        with pytest.raises(ValueError):
            generate_scenario(_scenario(deltas=(0.0, 1.0)), np.random.default_rng(0))

    @pytest.mark.parametrize("delta", [0.0, 0.7, 3.0])
    @pytest.mark.parametrize("cov_form", COV_FORMS)
    @pytest.mark.parametrize("family", ["gaussian", "t5", "cauchy"])
    def test_shift_adds_to_the_null_draw_bit_for_bit(self, family, cov_form, delta):
        # run_power_curve draws (x, y0) once per replication and tests
        # y0 + shift_vector(p, delta) at each delta; that holds only while the
        # sampler forms y as location + noise
        config = _scenario(family=family, cov_form=cov_form, p=7, deltas=(delta,))
        x, y = generate_scenario(config, np.random.default_rng(23))
        null = dataclasses.replace(config, deltas=(0.0,))
        x0, y0 = generate_scenario(null, np.random.default_rng(23))
        assert np.array_equal(x, x0)
        assert np.array_equal(y, y0 + shift_vector(config.p, delta))
