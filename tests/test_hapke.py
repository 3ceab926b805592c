import math

import numpy as np
import pytest

from specmix.core import AlbedoSpectrum, Geometry, PhotometricParams, WavelengthAxis, cos_deg
from specmix.hapke import (
    MODELS,
    angle_divisor,
    cell_factor,
    ModelDomainError,
    endmember_variant,
    multiple_scattering,
    opposition_effect,
    phase_function,
    reflectance,
    scaling_factor,
)

# Frozen reference values, computed independently at 50-digit precision by
# direct evaluation of the published closed forms (tools/oracle_values.py).
PHASE_B05_C05_G90 = 0.17888543819998318
OPPO_B01_H01_G60 = 0.14763410387308013
H_W05_MU1 = 1.2426406871192851
FULL_W05_45_45 = 0.16587310084463018
LAMB_W05_MU45 = 0.12879126073623883
REL_W05_MU1 = 0.085786437626904951
LIN_W05_MU45 = 0.085786437626904951
SCALE_3060_4545 = 0.93749162478817117
VARIANT_LAMBPARAMS_45 = {0.1: 0.018790391705641451, 0.5: 0.12879126073623883, 0.9: 0.44274495732564084}

LAMBERTIAN_PARAMS = PhotometricParams(b=0.0, c=0.5, B0=0.0, h=0.1)
MU45 = float(cos_deg(45.0))


class TestPhaseFunction:
    def test_isotropic_for_zero_asymmetry(self):
        params = PhotometricParams(b=0.0, c=0.5, B0=0.0, h=0.1)
        for g in (0.0, 37.0, 90.0, 179.0):
            assert phase_function(g, params) == pytest.approx(1.0, abs=1e-15)

    def test_isotropic_regardless_of_backscatter_fraction(self):
        params = PhotometricParams(b=0.0, c=0.0, B0=0.0, h=0.1)
        assert phase_function(123.0, params) == pytest.approx(1.0, abs=1e-15)

    def test_reference_value(self):
        params = PhotometricParams(b=0.5, c=0.5, B0=0.0, h=0.1)
        assert phase_function(90.0, params) == pytest.approx(PHASE_B05_C05_G90, rel=1e-14)

    def test_positive_on_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            params = PhotometricParams(b=rng.uniform(0, 0.999), c=rng.uniform(0, 1), B0=0.0, h=0.1)
            assert phase_function(rng.uniform(0, 180), params) > 0.0

    def test_specular_singularity_rejected(self):
        params = PhotometricParams(b=1.0, c=0.5, B0=0.0, h=0.1)
        with pytest.raises(ModelDomainError, match="singular"):
            phase_function(0.0, params)
        with pytest.raises(ModelDomainError, match="singular"):
            phase_function(180.0, params)
        # b = 1 away from the lobes is fine
        assert np.isfinite(phase_function(90.0, params))


class TestOppositionEffect:
    def test_full_surge_at_zero_phase(self):
        params = PhotometricParams(b=0.2, c=0.5, B0=0.7, h=0.05)
        assert opposition_effect(0.0, params) == 0.7

    def test_disabled_when_strength_zero(self):
        params = PhotometricParams(b=0.2, c=0.5, B0=0.0, h=0.05)
        for g in (0.0, 30.0, 120.0):
            assert opposition_effect(g, params) == 0.0

    def test_reference_value(self):
        params = PhotometricParams(b=0.0, c=0.5, B0=1.0, h=0.1)
        assert opposition_effect(60.0, params) == pytest.approx(OPPO_B01_H01_G60, rel=1e-14)

    def test_decreasing_in_phase_angle(self):
        params = PhotometricParams(b=0.0, c=0.5, B0=1.0, h=0.1)
        grid = np.linspace(0.0, 179.0, 300)
        values = opposition_effect(grid, params)
        assert np.all(np.diff(values) < 0)
        assert np.all(values >= 0.0)

    def test_straight_back_phase_rejected(self):
        params = PhotometricParams(b=0.0, c=0.5, B0=1.0, h=0.1)
        with pytest.raises(ModelDomainError):
            opposition_effect(180.0, params)


class TestMultipleScattering:
    def test_black_surface(self):
        for mu in (0.0, 0.3, 1.0):
            assert multiple_scattering(0.0, mu) == 1.0

    def test_fully_scattering_at_nadir(self):
        assert multiple_scattering(1.0, 1.0) == 3.0

    def test_reference_value(self):
        assert multiple_scattering(0.5, 1.0) == pytest.approx(H_W05_MU1, rel=1e-14)

    def test_at_least_one_on_domain(self):
        omega, mu = np.meshgrid(np.linspace(0, 1, 21), np.linspace(0, 1, 21))
        assert np.all(multiple_scattering(omega, mu) >= 1.0)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            multiple_scattering(1.0001, 0.5)
        with pytest.raises(ValueError):
            multiple_scattering(0.5, -0.1)


class TestFullReflectance:
    def test_black_surface_reflects_nothing(self):
        geom = Geometry(theta0=30.0, theta=50.0, phi=120.0)
        params = PhotometricParams(b=0.4, c=0.3, B0=0.9, h=0.07)
        assert reflectance("full", 0.0, geom.mu, geom.mu0, geom.g, params) == 0.0

    def test_reference_value(self):
        geom = Geometry(theta0=45.0, theta=45.0, phi=0.0)
        params = PhotometricParams(b=0.3, c=0.6, B0=0.5, h=0.1)
        assert reflectance("full", 0.5, geom.mu, geom.mu0, geom.g, params) == pytest.approx(FULL_W05_45_45, rel=1e-13)

    def test_doubly_grazing_rejected(self):
        geom = Geometry(theta0=90.0, theta=90.0, phi=0.0)
        with pytest.raises(ModelDomainError, match="mu \\+ mu0"):
            reflectance("full", 0.5, geom.mu, geom.mu0, geom.g, LAMBERTIAN_PARAMS)

    def test_collapses_to_lambertian_model(self):
        # isotropic scattering and no surge: identical to the reduced model
        omegas = np.linspace(0.0, 1.0, 20)
        angles = np.linspace(0.0, 90.0, 20)
        worst = 0.0
        for theta0 in angles:
            for theta in angles:
                if theta0 == 90.0 and theta == 90.0:
                    continue
                geom = Geometry(theta0=theta0, theta=theta, phi=numpy_phi(theta0, theta))
                full = reflectance("full", omegas, geom.mu, geom.mu0, geom.g, LAMBERTIAN_PARAMS)
                reduced = reflectance("lambertian", omegas, geom.mu, geom.mu0)
                worst = max(worst, float(np.max(np.abs(full - reduced))))
        assert worst < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            geom = Geometry(theta0=rng.uniform(0, 90), theta=rng.uniform(0, 89), phi=rng.uniform(0, 180))
            params = PhotometricParams(
                b=rng.uniform(0, 0.95), c=rng.uniform(0, 1), B0=rng.uniform(0, 1), h=rng.uniform(0.01, 0.5)
            )
            assert reflectance("full", rng.uniform(0, 1), geom.mu, geom.mu0, geom.g, params) >= 0.0


def expression_form(model, omega, mu, mu0, g, params):
    """reflectance's formulas as plain numpy expressions, one fresh temporary per operation."""
    if model == "full":
        root = np.sqrt(1.0 - omega)
        h_mu, h_mu0 = ((1.0 + 2.0 * m) / (1.0 + 2.0 * m * root) for m in (mu, mu0))
        surge, p = opposition_effect(g, params), phase_function(g, params)
        return omega / (4.0 * (mu + mu0)) * ((1.0 + surge) * p + h_mu * h_mu0 - 1.0)
    shape = omega / (angle_divisor(model, omega, mu) * angle_divisor(model, omega, mu0))
    return shape / cell_factor(model, mu, mu0)


def numpy_phi(theta0, theta):
    # deterministic azimuth pattern for grid tests
    return float((theta0 * 1.7 + theta * 0.9) % 180.0)


class TestLambertianReflectance:
    def test_bright_surface_at_nadir(self):
        assert reflectance("lambertian", 1.0, 1.0, 1.0) == pytest.approx(9.0 / 8.0, rel=1e-15)

    def test_black_surface(self):
        assert reflectance("lambertian", 0.0, 0.7, 0.4) == 0.0

    def test_reference_value(self):
        assert reflectance("lambertian", 0.5, MU45, MU45) == pytest.approx(LAMB_W05_MU45, rel=1e-14)

    def test_doubly_grazing_rejected(self):
        with pytest.raises(ModelDomainError):
            reflectance("lambertian", 0.5, 0.0, 0.0)


class TestRelativeReflectance:
    def test_grazing_identity(self):
        rng = np.random.default_rng(5)
        omegas = rng.uniform(0.0, 1.0, 1000)
        np.testing.assert_array_equal(reflectance("relative", omegas, 0.0, 0.0), omegas)

    def test_unit_albedo_normalized_to_one(self):
        for mu, mu0 in ((0.0, 0.0), (0.3, 0.8), (1.0, 1.0)):
            assert reflectance("relative", 1.0, mu, mu0) == 1.0

    def test_reference_value(self):
        assert reflectance("relative", 0.5, 1.0, 1.0) == pytest.approx(REL_W05_MU1, rel=1e-14)

    def test_normalization_identity(self):
        # relative * (brightness of omega=1) = absolute, away from grazing
        rng = np.random.default_rng(6)
        for _ in range(300):
            omega = rng.uniform(0, 1)
            mu, mu0 = rng.uniform(0.05, 1.0, 2)
            normalizer = reflectance("lambertian", 1.0, mu, mu0)
            left = reflectance("relative", omega, mu, mu0) * normalizer
            right = reflectance("lambertian", omega, mu, mu0)
            assert left == pytest.approx(right, abs=1e-12)

    def test_symmetric_in_mu_and_mu0(self):
        rng = np.random.default_rng(8)
        omega = rng.uniform(0, 1, 50)
        mu = rng.uniform(0, 1, 50)
        mu0 = rng.uniform(0, 1, 50)
        np.testing.assert_allclose(
            reflectance("relative", omega, mu, mu0), reflectance("relative", omega, mu0, mu), rtol=1e-15
        )

    def test_strictly_increasing_in_albedo(self):
        omegas = np.linspace(0.001, 0.999, 400)
        for mu, mu0 in ((0.0, 0.0), (0.2, 0.9), (1.0, 1.0)):
            values = reflectance("relative", omegas, mu, mu0)
            assert np.all(np.diff(values) > 0)


class TestLinearReflectance:
    def test_grazing_identity(self):
        rng = np.random.default_rng(9)
        omegas = rng.uniform(0.0, 1.0, 1000)
        np.testing.assert_array_equal(reflectance("linear", omegas, 0.0, 0.0), omegas)

    def test_nadir_slope_one_ninth(self):
        assert reflectance("linear", 0.9, 1.0, 1.0) == pytest.approx(0.1, rel=1e-15)

    def test_reference_value(self):
        assert reflectance("linear", 0.5, MU45, MU45) == pytest.approx(LIN_W05_MU45, rel=1e-14)

    def test_strictly_increasing_in_albedo(self):
        omegas = np.linspace(0.001, 0.999, 400)
        values = reflectance("linear", omegas, 0.3, 0.6)
        assert np.all(np.diff(values) > 0)

    def test_grazing_agreement_with_relative_is_exact(self):
        omegas = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(
            reflectance("linear", omegas, 0.0, 0.0), reflectance("relative", omegas, 0.0, 0.0)
        )


class TestTaylorOrder:
    @pytest.mark.parametrize("theta0,theta", [(0.0, 0.0), (45.0, 45.0), (90.0, 45.0)])
    def test_error_is_second_order_in_albedo(self, theta0, theta):
        mu = float(cos_deg(theta))
        mu0 = float(cos_deg(theta0))
        omegas = np.logspace(-4, -2, 15)
        err = np.abs(reflectance("relative", omegas, mu, mu0) - reflectance("linear", omegas, mu, mu0))
        slope = np.polyfit(np.log(omegas), np.log(err), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestScalingFactor:
    def test_identity_for_equal_geometries(self):
        geom = Geometry(theta0=33.0, theta=12.0, phi=45.0)
        assert scaling_factor(geom, geom) == 1.0

    def test_grazing_versus_nadir(self):
        grazing = Geometry(theta0=90.0, theta=90.0, phi=0.0)
        nadir = Geometry(theta0=0.0, theta=0.0, phi=0.0)
        assert scaling_factor(grazing, nadir) == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_reference_value(self):
        local = Geometry(theta0=30.0, theta=60.0, phi=0.0)
        reference = Geometry(theta0=45.0, theta=45.0, phi=0.0)
        assert scaling_factor(local, reference) == pytest.approx(SCALE_3060_4545, rel=1e-14)

    def test_strictly_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a = Geometry(theta0=rng.uniform(0, 90), theta=rng.uniform(0, 90), phi=0.0)
            b = Geometry(theta0=rng.uniform(0, 90), theta=rng.uniform(0, 90), phi=0.0)
            assert scaling_factor(a, b) > 0.0

    def test_transitive_chain(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b, c = (
                Geometry(theta0=rng.uniform(0, 90), theta=rng.uniform(0, 90), phi=0.0)
                for _ in range(3)
            )
            chained = scaling_factor(a, b) * scaling_factor(b, c)
            assert chained == pytest.approx(scaling_factor(a, c), abs=1e-12)

    def test_per_pixel_geometries_match_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(13)
        angles = rng.uniform(0.0, 90.0, (3, 500))
        angles[:, :2] = [[0.0, 90.0], [90.0, 0.0], [0.0, 180.0]]
        geometries = Geometry(theta0=angles[0], theta=angles[1], phi=angles[2])
        reference = Geometry(theta0=30.0, theta=0.0, phi=0.0)
        forward, backward = scaling_factor(reference, geometries), scaling_factor(geometries, reference)
        assert forward.shape == backward.shape == (500,)
        for n in range(500):
            local = Geometry(theta0=angles[0, n], theta=angles[1, n], phi=angles[2, n])
            assert forward[n] == scaling_factor(reference, local)
            assert backward[n] == scaling_factor(local, reference)


class TestEndmemberVariant:
    def make_albedo(self, omega):
        omega = np.asarray(omega, dtype=float)
        axis = WavelengthAxis(np.linspace(0.5, 2.0, omega.size))
        return AlbedoSpectrum(material="sample", omega=omega, axis=axis)

    def test_relative_model_grazing_identity_per_band(self):
        albedo = self.make_albedo([0.5, 0.5])
        geom = Geometry(theta0=90.0, theta=90.0, phi=0.0)
        np.testing.assert_array_equal(
            endmember_variant(albedo, geom, "relative"), [0.5, 0.5]
        )

    def test_linear_model_variants_share_one_scale(self):
        albedo = self.make_albedo([0.12, 0.4, 0.77, 0.05])
        g1 = Geometry(theta0=10.0, theta=70.0, phi=30.0)
        g2 = Geometry(theta0=60.0, theta=20.0, phi=90.0)
        v1 = endmember_variant(albedo, g1, "linear")
        v2 = endmember_variant(albedo, g2, "linear")
        np.testing.assert_allclose(v2, scaling_factor(g1, g2) * v1, rtol=1e-13)

    def test_full_model_with_isotropic_params_per_band(self):
        albedo = self.make_albedo([0.1, 0.5, 0.9])
        geom = Geometry(theta0=45.0, theta=45.0, phi=0.0)
        variant = endmember_variant(albedo, geom, "full", LAMBERTIAN_PARAMS)
        expected = [VARIANT_LAMBPARAMS_45[w] for w in (0.1, 0.5, 0.9)]
        np.testing.assert_allclose(variant, expected, rtol=1e-13)

    def test_full_model_requires_photometry(self):
        albedo = self.make_albedo([0.1])
        with pytest.raises(ValueError, match="photometric"):
            endmember_variant(albedo, Geometry(theta0=0.0, theta=0.0), "full")

    def test_unknown_model_rejected(self):
        albedo = self.make_albedo([0.1])
        with pytest.raises(ValueError, match="unknown model"):
            endmember_variant(albedo, Geometry(theta0=0.0, theta=0.0), "nonsense")


def restated(model, omega, mu, mu0, g, params):
    """One pixel's spectrum, written out from the model's docstring formula."""
    root = np.sqrt(1.0 - omega)
    if model == "linear":
        return omega / ((1.0 + 2.0 * mu) * (1.0 + 2.0 * mu0))
    if model == "relative":
        return omega / ((1.0 + 2.0 * mu * root) * (1.0 + 2.0 * mu0 * root))
    if model == "lambertian":
        return omega / ((1.0 + 2.0 * mu * root) * (1.0 + 2.0 * mu0 * root)) / (
            4.0 * (mu + mu0) / ((1.0 + 2.0 * mu) * (1.0 + 2.0 * mu0))
        )
    b, c = params.b, params.c
    cos_g = math.cos(math.radians(g))
    phase = c * (1.0 - b) ** 2 / (1.0 - 2.0 * b * cos_g + b * b) ** 1.5 + (1.0 - c) * (
        1.0 - b
    ) ** 2 / (1.0 + 2.0 * b * cos_g + b * b) ** 1.5
    surge = params.B0 / (1.0 + math.tan(math.radians(g) / 2.0) / params.h)
    h_mu = (1.0 + 2.0 * mu) / (1.0 + 2.0 * mu * root)
    h_mu0 = (1.0 + 2.0 * mu0) / (1.0 + 2.0 * mu0 * root)
    return omega / (4.0 * (mu + mu0)) * ((1.0 + surge) * phase + h_mu * h_mu0 - 1.0)


class TestReflectanceKernel:
    PARAMS = PhotometricParams(b=0.35, c=0.7, B0=0.8, h=0.06)

    @staticmethod
    def grid(with_double_grazing):
        rng = np.random.default_rng(14)
        omega = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 22)])
        angles = [(0.0, 90.0, 0.0), (90.0, 0.0, 0.0), (37.0, 37.0, 0.0), (50.0, 50.001, 0.0),
                  (20.0, 20.0, 0.002), (0.0, 0.0, 0.0), (89.9, 89.9, 1.0)]
        angles += [tuple(row) for row in rng.uniform([0, 0, 0], [90, 90, 180], (12, 3))]
        if with_double_grazing:
            angles.append((90.0, 90.0, 0.0))
        return omega, [Geometry(theta0=t0, theta=t, phi=p) for t0, t, p in angles]

    @pytest.mark.parametrize("model", ["full", "lambertian", "relative", "linear"])
    def test_grid_matches_per_pixel_formula(self, model):
        omega, geoms = self.grid(with_double_grazing=model in ("relative", "linear"))
        assert min(geom.g for geom in geoms) < 0.01  # the surge's steep end is on the grid
        mu, mu0, g = (np.array([getattr(geom, name) for geom in geoms]) for name in ("mu", "mu0", "g"))
        rho = reflectance(model, omega[:, None], mu[None, :], mu0[None, :], g[None, :], self.PARAMS)
        assert rho.shape == (omega.size, len(geoms))
        expected = np.column_stack(
            [restated(model, omega, geom.mu, geom.mu0, geom.g, self.PARAMS) for geom in geoms]
        )
        if model == "full":
            assert np.max(np.abs(rho - expected)) <= 2.2e-16 * np.max(np.abs(expected))
        else:
            np.testing.assert_array_equal(rho, expected)

    @staticmethod
    def layouts():
        """(name, omega, mu, mu0, g) of the argument layouts callers use."""
        rng = np.random.default_rng(16)
        omega = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 30)])
        mu, mu0, g = rng.uniform(0.01, 1.0, 40), rng.uniform(0.01, 1.0, 40), rng.uniform(0.0, 150.0, 40)
        angles = rng.uniform(0.01, 1.0, 6)
        return [
            ("pixels x bands", omega, mu[:, None], mu0[:, None], g[:, None]),
            ("float geometry x bands", omega, float(mu[0]), float(mu0[0]), float(g[0])),
            ("numpy scalar geometry x bands", omega, mu[1], mu0[1], g[1]),
            ("angle grid x bands", omega, angles[None, :, None], angles[:, None, None], rng.uniform(0.0, 150.0, (6, 6, 1))),
            ("bands x pixels", omega[:, None], mu, mu0, g),
            ("albedo only", omega, 0.5, 0.25, 30.0),
            ("phase angles only the full model reads", omega, 0.5, 0.25, rng.uniform(0.0, 150.0, (3, 1))),
            ("all floats", 0.4, 0.5, 0.25, 30.0),
            ("numpy scalars", np.float64(0.4), mu[2], mu0[2], g[2]),
            ("0-d arrays", np.array(0.4), np.array(0.5), np.array(0.25), np.array(30.0)),
        ]

    @pytest.mark.parametrize("model", MODELS)
    def test_buffered_kernel_matches_the_expression_form_bit_for_bit(self, model):
        for name, omega, mu, mu0, g in self.layouts():
            rho = reflectance(model, omega, mu, mu0, g, self.PARAMS)
            expected = expression_form(model, omega, mu, mu0, g, self.PARAMS)
            assert type(rho) is type(expected), name
            assert np.shape(rho) == np.shape(expected) and np.asarray(rho).dtype == np.float64, name
            assert np.asarray(rho).tobytes() == np.asarray(expected).tobytes(), name

    @pytest.mark.parametrize("model", MODELS)
    def test_reciprocal_bit_for_bit(self, model):
        # swapping mu and mu0 swaps the operands of sums and products only
        omega, geoms = self.grid(with_double_grazing=model in ("relative", "linear"))
        rng = np.random.default_rng(15)
        mu, mu0, g = (np.concatenate([[getattr(geom, name) for geom in geoms], rng.uniform(0.0, high, 300)])
                      for name, high in (("mu", 1.0), ("mu0", 1.0), ("g", 179.0)))
        forward = reflectance(model, omega[:, None], mu, mu0, g, self.PARAMS)
        np.testing.assert_array_equal(forward, reflectance(model, omega[:, None], mu0, mu, g, self.PARAMS))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
    @pytest.mark.parametrize("model", ["lambertian", "relative", "linear"])
    def test_reduced_forms_match_long_double_oracle(self, model):
        rng = np.random.default_rng(16)
        omega, mu, mu0 = rng.uniform(0.0, 1.0, (3, 200_000))
        rho = reflectance(model, omega, mu, mu0)
        w, m, m0 = (x.astype(np.longdouble) for x in (omega, mu, mu0))
        root = np.sqrt(1 - w)
        exact = {"linear": w / (4 * m * m0 + 2 * m + 2 * m0 + 1),
                 "relative": w / ((1 + 2 * m * root) * (1 + 2 * m0 * root)),
                 "lambertian": (1 + 2 * m) * (1 + 2 * m0) * w
                 / (4 * (m + m0) * (1 + 2 * m * root) * (1 + 2 * m0 * root))}[model]
        assert np.all(np.abs(rho - exact) <= 4 * np.finfo(float).eps * exact)

    @pytest.mark.parametrize("model", ["full", "lambertian"])
    def test_double_grazing_column_rejected(self, model):
        omega, geoms = self.grid(with_double_grazing=True)
        mu = np.array([geom.mu for geom in geoms])
        with pytest.raises(ModelDomainError, match="mu \\+ mu0"):
            reflectance(model, omega[:, None], mu, mu, np.zeros_like(mu), self.PARAMS)

    def test_unknown_model_and_missing_params_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            reflectance("hapke", 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="photometric"):
            reflectance("full", 0.5, 1.0, 1.0, g=0.0)
        with pytest.raises(ValueError, match="photometric"):  # one column of two without params
            reflectance("full", np.full((3, 2), 0.5), 1.0, 1.0, 0.0, [self.PARAMS, None])

    @pytest.mark.parametrize("model", MODELS)
    def test_one_call_block_of_materials_equals_per_material_calls_bit_for_bit(self, model):
        # the materials as the columns of omega, each with its own params, and the pixels on a leading axis
        rng = np.random.default_rng(18)
        omega = rng.uniform(0.0, 1.0, (30, 4))
        omega[0, 0], omega[1, 1] = 0.0, 1.0
        params = [PhotometricParams(b=rng.uniform(0.0, 0.6), c=rng.uniform(0.2, 0.8), B0=rng.uniform(0.0, 1.0),
                                    h=rng.uniform(0.03, 0.2)) for _ in range(4)]
        mu, mu0, g = rng.uniform(0.01, 1.0, 40), rng.uniform(0.01, 1.0, 40), rng.uniform(0.0, 150.0, 40)
        block = reflectance(model, omega, mu[:, None, None], mu0[:, None, None], g[:, None, None], params)
        assert block.shape == (40, 30, 4)
        # one geometry: the (bands, materials) endmember matrix
        matrix = reflectance(model, omega, mu[0], mu0[0], g[0], params)
        assert matrix.shape == (30, 4)
        for k in range(4):
            column = reflectance(model, omega[:, k], mu[:, None], mu0[:, None], g[:, None], params[k])
            assert block[:, :, k].tobytes() == column.tobytes(), k
            assert matrix[:, k].tobytes() == reflectance(model, omega[:, k], mu[0], mu0[0], g[0], params[k]).tobytes()


class TestSeparableSplit:
    @pytest.mark.parametrize("model", ["lambertian", "relative", "linear"])
    def test_split_is_wavelength_free_factor_times_shape(self, model):
        # the reflectance is the shape omega / (A(mu) A(mu0)) over Q, bit for bit, at every albedo
        omega, geoms = TestReflectanceKernel.grid(with_double_grazing=model != "lambertian")
        mu, mu0 = (np.array([getattr(geom, name) for geom in geoms]) for name in ("mu", "mu0"))
        rho = reflectance(model, omega[:, None], mu, mu0)
        shape = omega[:, None] / (angle_divisor(model, omega[:, None], mu) * angle_divisor(model, omega[:, None], mu0))
        np.testing.assert_array_equal(rho, shape / cell_factor(model, mu, mu0))

    def test_lambertian_and_relative_share_the_angle_divisor(self):
        omega = np.array([0.0, 0.19, 0.75, 1.0])
        np.testing.assert_array_equal(angle_divisor("lambertian", omega, 0.5), angle_divisor("relative", omega, 0.5))
        np.testing.assert_array_equal(angle_divisor("relative", omega, 0.5), [2.0, 1.9, 1.5, 1.0])
        assert angle_divisor("linear", omega, 0.5) == 1.0
        assert cell_factor("relative", 0.3, 0.6) == 1.0
        assert cell_factor("linear", 1.0, 1.0) == 9.0 and cell_factor("lambertian", 1.0, 1.0) == 8.0 / 9.0

    @pytest.mark.parametrize("split", [lambda model: cell_factor(model, 0.5, 0.5),
                                       lambda model: angle_divisor(model, 0.5, 0.5)])
    @pytest.mark.parametrize("model", ["full", "hapke"])
    def test_only_the_three_reduced_forms_split(self, split, model):
        with pytest.raises(ValueError, match=f"'{model}' model does not split"):
            split(model)
