import dataclasses

import numpy as np
import pytest

from twosample import (
    COV_FORMS,
    CovarianceSpec,
    ModelSpec,
    ScenarioConfig,
    build_sigma,
    generate_scenario,
    parse_family,
    sample_elliptical,
    scenario_sigma,
    shift_vector,
)


class TestBuildSigma:
    def test_equicorrelated(self):
        sigma = build_sigma(CovarianceSpec(form="equicorr", p=2, rho=0.5))
        assert np.array_equal(sigma, [[1.0, 0.5], [0.5, 1.0]])

    def test_identity(self):
        assert np.array_equal(build_sigma(CovarianceSpec(form="identity", p=3)), np.eye(3))

    def test_ar_decay(self):
        sigma = build_sigma(CovarianceSpec(form="ar", p=3, rho=0.75))
        assert sigma[0, 1] == 0.75
        assert sigma[0, 2] == 0.5625
        assert np.array_equal(sigma, sigma.T)

    def test_negative_rho_keeps_sign(self):
        sigma = build_sigma(CovarianceSpec(form="ar", p=3, rho=-0.5))
        assert sigma[0, 1] == -0.5
        assert sigma[0, 2] == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec(form="toeplitz", p=3)
        with pytest.raises(ValueError):
            CovarianceSpec(form="ar", p=3, rho=1.0)
        with pytest.raises(ValueError):
            CovarianceSpec(form="identity", p=0)

    def test_all_forms_factor_at_large_p(self):
        # every named design must admit a Cholesky factorization up to p=2000
        for form in ("equicorr", "identity", "ar"):
            np.linalg.cholesky(scenario_sigma(form, 2000))


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


class TestSampleElliptical:
    def test_same_seed_same_sample(self):
        model = ModelSpec("gaussian", np.zeros(3), np.eye(3))
        a = sample_elliptical(model, 8, np.random.default_rng(42))
        b = sample_elliptical(model, 8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_gaussian_mean_concentrates(self):
        loc = np.array([0.5, -1.0])
        model = ModelSpec("gaussian", loc, np.eye(2))
        sample = sample_elliptical(model, 100_000, np.random.default_rng(7))
        assert np.abs(sample.mean(axis=0) - loc).max() < 0.02

    def test_gaussian_covariance_concentrates(self):
        sigma = build_sigma(CovarianceSpec(form="ar", p=4, rho=0.75))
        model = ModelSpec("gaussian", np.zeros(4), sigma)
        sample = sample_elliptical(model, 100_000, np.random.default_rng(11))
        emp = np.cov(sample, rowvar=False)
        tol = 5.0 * np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / 100_000)
        assert (np.abs(emp - sigma) <= tol).all()

    def test_cauchy_median_concentrates(self):
        model = ModelSpec("t", np.zeros(1), np.eye(1), nu=1)
        sample = sample_elliptical(model, 100_000, np.random.default_rng(13))
        assert abs(np.median(sample)) < 0.02

    def test_student_rows_mix_one_chi_square_each(self):
        # regenerating the raw normals must reproduce the sample after
        # factoring out the per-row chi-square weights
        sigma = build_sigma(CovarianceSpec(form="equicorr", p=3, rho=0.5))
        model = ModelSpec("t", np.array([1.0, 2.0, 3.0]), sigma, nu=4)
        sample = sample_elliptical(model, 6, np.random.default_rng(17))
        raw = np.random.default_rng(17).standard_normal((6, 3 + 4))
        w = (raw[:, 3:] ** 2).sum(axis=1)
        gaussian_part = raw[:, :3] @ np.linalg.cholesky(sigma).T
        want = model.location + gaussian_part / np.sqrt(w / 4.0)[:, None]
        assert np.allclose(sample, want, rtol=1e-12, atol=0)

    def test_non_positive_definite_sigma_raises(self):
        model = ModelSpec("gaussian", np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            sample_elliptical(model, 5, np.random.default_rng(0))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("uniform", np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            ModelSpec("t", np.zeros(2), np.eye(2))  # missing nu
        with pytest.raises(ValueError):
            ModelSpec("gaussian", np.zeros(2), np.eye(3))


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
