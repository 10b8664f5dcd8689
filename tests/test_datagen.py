import dataclasses
import tracemalloc

import numpy as np
import pytest

from twosample import (
    COV_FORMS,
    ScenarioConfig,
    generate_scenario,
    parse_family,
    shift_vector,
)
from twosample._blas import _one_blas_thread

from oracle import scenario_out_of_place, scenario_sigma


class TestScenarioSigma:
    """The dense covariance of the oracle, which the closed-form factors are checked against."""

    def test_equicorrelated(self):
        assert np.array_equal(scenario_sigma("equicorr", 2), [[1.0, 0.5], [0.5, 1.0]])

    def test_identity(self):
        assert np.array_equal(scenario_sigma("identity", 3), np.eye(3))

    def test_ar_decay(self):
        sigma = scenario_sigma("ar", 3)
        assert sigma[0, 1] == 0.75
        assert sigma[0, 2] == 0.5625
        assert np.array_equal(sigma, sigma.T)

    def test_all_forms_factor_at_large_p(self):
        # every named design must admit a Cholesky factorization up to p=2000
        for form in COV_FORMS:
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

    def test_numpy_scalars_are_numbers(self):
        assert np.array_equal(shift_vector(3, np.float32(0.5)), shift_vector(3, 0.5))
        assert np.array_equal(shift_vector(np.int64(3), 0.5), shift_vector(3, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            shift_vector(0, 1.0)
        with pytest.raises(ValueError):
            shift_vector(3, -0.5)
        for delta in (float("nan"), float("inf"), float("-inf"), True, np.bool_(True), "x"):
            with pytest.raises(ValueError) as err:
                shift_vector(3, delta)
            assert str(err.value) == f"deltas must be finite and nonnegative, got {delta!r}"


class TestSample:
    def test_same_seed_same_sample(self):
        config = _scenario(p=3, n1=8, n2=8)
        a = generate_scenario(config, np.random.default_rng(42))
        b = generate_scenario(config, np.random.default_rng(42))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_gaussian_mean_concentrates(self):
        config = _scenario(cov_form="ar", p=2, n1=100_000, n2=100_000, deltas=(1.0,))
        x, y = generate_scenario(config, np.random.default_rng(7))
        assert np.abs(x.mean(axis=0)).max() < 0.02
        assert np.abs(y.mean(axis=0) - shift_vector(2, 1.0)).max() < 0.02


class TestParseFamily:
    def test_named_families(self):
        assert parse_family("gaussian") is None
        assert parse_family("cauchy") == 1
        assert parse_family("t4") == 4
        assert parse_family("t1") == 1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_family("laplace")
        with pytest.raises(ValueError):
            parse_family("t0")

    @pytest.mark.parametrize(
        "family",
        # == on an array compares elementwise; "²" and "٣" pass str.isdigit
        [np.array(["gaussian"]), np.array(["gaussian", "t4"]), "t²", "t٣"],
        ids=["one-array", "two-array", "superscript", "arabic-indic"],
    )
    def test_only_a_plain_name_is_a_family(self, family):
        with pytest.raises(ValueError) as err:
            parse_family(family)
        assert str(err.value) == f"unknown family {family!r}; expected gaussian, cauchy, or t<k>"
        with pytest.raises(ValueError, match="^unknown family"):
            _scenario(family=family)


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
        config = _scenario(cov_form="ar", p=4, n1=100_000, n2=2)
        x, _ = generate_scenario(config, np.random.default_rng(11))
        sigma = scenario_sigma("ar", 4)
        emp = np.cov(x, rowvar=False)
        tol = 5.0 * np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / 100_000)
        assert (np.abs(emp - sigma) <= tol).all()

    def test_cauchy_median_concentrates(self):
        config = _scenario(family="cauchy", p=1, n1=100_000, n2=2)
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

    @pytest.mark.parametrize("cov_form", ["equicorr", "ar"])
    def test_draws_do_not_depend_on_the_callers_blas_threads(self, blas_at_two_threads, cov_form):
        # the draw takes no BLAS call; were one added, OpenBLAS could split it
        # over the caller's two threads and change the data in their last bits
        config = _scenario(cov_form=cov_form, p=300, n1=20, n2=20, deltas=(0.5,))
        drawn = generate_scenario(config, np.random.default_rng(8))
        assert blas_at_two_threads() == 2
        with _one_blas_thread():
            one_thread = generate_scenario(config, np.random.default_rng(8))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(drawn, one_thread))

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


class TestClosedFormFactor:
    """generate_scenario against loc + z Lᵀ with the dense Cholesky factor L."""

    @pytest.mark.parametrize("p", [1, 2, 5, 100, 1000])
    @pytest.mark.parametrize("cov_form", COV_FORMS)
    @pytest.mark.parametrize("family", ["gaussian", "t5"])
    def test_equals_the_dense_factor(self, family, cov_form, p):
        # the closed forms sum in another order than a matrix product, so
        # they agree to rounding; the identity form multiplies nothing
        config = _scenario(family=family, cov_form=cov_form, p=p, n1=20, n2=30, deltas=(0.5,))
        drawn = generate_scenario(config, np.random.default_rng(p))
        nu = parse_family(family)
        chol = np.linalg.cholesky(scenario_sigma(cov_form, p))
        rng = np.random.default_rng(p)
        for x, loc in zip(drawn, (np.zeros(p), shift_vector(p, 0.5))):
            n = x.shape[0]
            if nu is None:
                z, scale = rng.standard_normal((n, p)), 1.0
            else:
                draw = rng.standard_normal((n, p + nu))
                z, chi = draw[:, :p], draw[:, p:]
                scale = np.sqrt(np.einsum("ij,ij->i", chi, chi) / nu)[:, None]
            if cov_form == "identity":
                assert x.tobytes() == (loc + z / scale).tobytes()
            want = loc + (z @ chol.T) / scale
            assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(x))

    @pytest.mark.parametrize("cov_form", COV_FORMS)
    def test_peak_memory_is_linear_in_p(self, cov_form):
        # a p x p factor alone is 72 MB at p=3000; the data are 2.2 MB
        config = _scenario(cov_form=cov_form, p=3000, n1=40, n2=50, deltas=(0.5,))
        tracemalloc.start()
        try:
            generate_scenario(config, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("cov_form", COV_FORMS)
    def test_sample_is_built_in_the_buffer_of_its_normals(self, cov_form):
        # beyond x and y (2.2 MB) the draw holds O(p) vectors, one block of
        # _AR_BLOCK + 1 columns and a t family's nu chi-square columns; a
        # full-size temporary would add 0.96 MB, a second sample 2.2 MB
        for family in ("gaussian", "t5", "cauchy"):
            config = _scenario(
                family=family, cov_form=cov_form, p=3000, n1=40, n2=50, deltas=(0.5,)
            )
            rng = np.random.default_rng(3)  # made untraced: its first call may import numpy.random
            tracemalloc.start()
            try:
                x, y = generate_scenario(config, rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - (x.nbytes + y.nbytes) < 256 * 2**10, family


class TestInPlaceSampler:
    """generate_scenario against the out-of-place maps of `oracle`, bit for bit."""

    # the equicorr blocks start at columns 0, 64, 128, ... and the ar blocks
    # at 1, 65, 129, ...; these p end on, just before and just after each
    @pytest.mark.parametrize("p", [1, 2, 63, 64, 65, 129, 1000])
    @pytest.mark.parametrize("cov_form", COV_FORMS)
    @pytest.mark.parametrize("family", ["gaussian", "t5"])
    def test_equals_the_out_of_place_maps(self, family, cov_form, p):
        # the carried cumulative sum makes the same additions in the same
        # order as one np.add.accumulate over all columns
        config = _scenario(family=family, cov_form=cov_form, p=p, n1=20, n2=30, deltas=(0.5,))
        drawn = generate_scenario(config, np.random.default_rng(p))
        want = scenario_out_of_place(config, np.random.default_rng(p))
        for a, b in zip(drawn, want):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()
