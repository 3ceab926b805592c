import itertools
import json
import re
import warnings

import numpy as np
import pytest

from specmix.core import AlbedoSpectrum, Geometry, PhotometricParams, WavelengthAxis, cos_deg, sum_of_squares
from specmix.hapke import ModelDomainError, reflectance
from specmix import metrics
from specmix.metrics import (SWEEP_MODELS, AlbedoCurve, SweepGrid, SweepResult, angle_sweep, angle_sweeps, rmse,
                             spectral_angle)

RMSE_OFFSET_CASE = 2.8284271247461901  # sqrt(16/2), hand-checkable
CURVE_REL_45 = {  # relative model at theta0 = theta = 45, frozen oracle values
    0.1: 0.018237254218789432,
    0.2: 0.038987706591831408,
    0.3: 0.062940162675287968,
    0.4: 0.091097699793355462,
    0.5: 0.125,
    0.6: 0.16718427000252364,
    0.7: 0.22227914413702045,
    0.8: 0.30019763540588504,
    0.9: 0.4297117626563683,
}


def make_albedo(omega, name="sample"):
    omega = np.asarray(omega, dtype=float)
    axis = WavelengthAxis(np.linspace(0.4, 2.5, omega.size))
    return AlbedoSpectrum(material=name, omega=omega, axis=axis)


class TestSpectralAngle:
    def test_identical_spectra_give_exact_zero(self):
        u = np.array([0.3, 0.1, 0.9, 0.2])
        assert spectral_angle(u, u) == 0.0

    def test_scaled_copy_gives_exact_zero(self):
        u = np.array([0.3, 0.1, 0.9, 0.2])
        assert spectral_angle(2.0 * u, u) == 0.0

    def test_orthogonal_vectors(self):
        assert spectral_angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_opposite_vectors(self):
        assert spectral_angle([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(np.pi, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero spectrum"):
            spectral_angle([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            spectral_angle([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = rng.uniform(0.01, 1.0, 20)
            v = rng.uniform(0.01, 1.0, 20)
            base = spectral_angle(u, v)
            assert spectral_angle(3.7 * u, v) == pytest.approx(base, abs=1e-12)
            assert spectral_angle(u, 0.002 * v) == pytest.approx(base, abs=1e-12)

    def test_matches_arccos_form_away_from_ends(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.normal(0, 1, 30)
            v = rng.normal(0, 1, 30)
            naive = np.arccos(
                np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0)
            )
            assert spectral_angle(u, v) == pytest.approx(naive, abs=1e-9)

    def test_stacked_reduction(self):
        u = np.array([[1.0, 0.0], [1.0, 1.0]])
        v = np.array([[0.0, 1.0], [2.0, 2.0]])
        angles = spectral_angle(u, v)
        assert angles.shape == (2,)
        assert angles[0] == pytest.approx(np.pi / 2)
        assert angles[1] == 0.0


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        u = np.array([0.1, 0.4, 0.9])
        assert rmse(u + 0.25, u) == pytest.approx(0.25, rel=1e-15)

    def test_reference_case(self):
        assert rmse([0.0, 3.0], [4.0, 3.0]) == pytest.approx(RMSE_OFFSET_CASE, rel=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


class TestSumOfSquares:
    def test_row_bits_do_not_depend_on_block_offset_or_stride(self):
        rng = np.random.default_rng(21)
        rows = rng.uniform(-1.0, 1.0, (37, 203))
        s, scale = sum_of_squares(rows)
        np.testing.assert_array_equal(scale, 1.0)
        for n in range(rows.shape[0]):
            assert sum_of_squares(rows[n])[0] == s[n]
        for size in (2, 3, 5, 8, 16, 36):
            for lo in range(0, rows.shape[0], size):
                np.testing.assert_array_equal(sum_of_squares(rows[lo:lo + size])[0], s[lo:lo + size])
        buffer = np.empty(rows.size + 8)
        for offset in range(8):
            shifted = buffer[offset:offset + rows.size].reshape(rows.shape)
            shifted[...] = rows
            np.testing.assert_array_equal(sum_of_squares(shifted)[0], s)
        strided = np.empty((rows.shape[0], 2 * rows.shape[1]))
        strided[:, ::2] = rows
        np.testing.assert_array_equal(sum_of_squares(strided[:, ::2])[0], s)
        np.testing.assert_array_equal(sum_of_squares(rows[::3])[0], s[::3])  # contiguous rows, every third one
        np.testing.assert_array_equal(sum_of_squares(np.asfortranarray(rows))[0], s)
        np.testing.assert_array_equal(sum_of_squares(rows.reshape(37, 1, 203))[0], s[:, None])

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e-160, 1e-310, 1e300])
    def test_rows_whose_sum_under_or_overflows_are_rescaled(self, magnitude):
        rng = np.random.default_rng(22)
        unit = rng.uniform(0.5, 1.0, (4, 50))
        rows = magnitude * unit
        with np.errstate(over="ignore"):  # the first sum of 1e200 entries overflows
            s, scale = sum_of_squares(rows)
        exact = np.sum(rows.astype(np.longdouble) ** 2, axis=1) if magnitude > 1e-300 else None
        assert np.all(scale == np.max(rows, axis=1)) and np.all((s >= 1.0) & (s <= 50.0))
        if exact is not None and np.finfo(np.longdouble).maxexp > 1024:
            np.testing.assert_allclose(s * scale.astype(np.longdouble) ** 2, exact, rtol=1e-14)
        np.testing.assert_allclose(np.sqrt(s) * scale, np.sqrt(np.sum(unit ** 2, axis=1)) * magnitude, rtol=1e-14)

    def test_zero_and_non_finite_rows_are_not_rescaled(self):
        rows = np.array([[0.0, 0.0, 0.0], [np.inf, 1.0, 0.0], [np.nan, 1.0, 0.0], [1e-200, 0.0, 0.0]])
        s, scale = sum_of_squares(rows)
        assert s[0] == 0.0 and s[1] == np.inf and np.isnan(s[2])
        np.testing.assert_array_equal(scale, [1.0, 1.0, 1.0, 1e-200])
        assert s[3] == 1.0


class TestExtremeMagnitudes:
    U = np.array([0.3, 0.1, 0.9, 0.2, 0.55])
    V = np.array([0.1, 0.4, 0.7, 0.3, 0.05])

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e300, 1e-300, 1e-315])
    def test_spectral_angle_does_not_depend_on_magnitude(self, magnitude):
        u = magnitude * self.U
        assert spectral_angle(u, 2.0 * u) == 0.0
        tol = 4 * np.finfo(float).eps if magnitude > 1e-300 else 1e-7  # subnormal entries hold fewer digits
        assert spectral_angle(magnitude * self.U, magnitude * self.V) == pytest.approx(
            spectral_angle(self.U, self.V), rel=tol)
        assert spectral_angle(magnitude * self.U, self.V) == pytest.approx(spectral_angle(self.U, self.V), rel=tol)

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200, 1e300, 1e-300])
    def test_rmse_does_not_depend_on_magnitude(self, magnitude):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow on the way is not reported
            assert rmse(magnitude * self.U, 2.0 * magnitude * self.U) == pytest.approx(
                magnitude * rmse(self.U, 2.0 * self.U), rel=4 * np.finfo(float).eps, abs=0.0)

    def test_zero_spectrum_still_refused_among_tiny_ones(self):
        with pytest.raises(ValueError, match="zero spectrum"):
            spectral_angle([[1e-300, 0.0], [0.0, 0.0]], [1.0, 1.0])

    @pytest.mark.parametrize("metric", [rmse, spectral_angle])
    def test_empty_spectra_refused_by_name(self, metric):
        with pytest.raises(ValueError, match="spectra are empty"):
            metric([], [])

    def test_sweep_of_a_tiny_albedo_is_computed(self):
        # sqrt(1 - omega) is 1 here: the relative model is the linear one, to rounding
        albedo = make_albedo(1e-200 * np.linspace(0.2, 0.9, 30))
        angles = np.arange(0.0, 91.0, 15.0)
        result = angle_sweep(albedo, SweepGrid(theta0_values=angles, theta_values=angles))
        assert np.all(result.sam <= 4 * np.finfo(float).eps)
        assert np.all(np.isfinite(result.rmse)) and np.all(result.rmse <= 1e-215)


def long_double_angle(u, v):
    """2 atan2(|u' - v'|, |u' + v'|) of the unit vectors, in long double."""
    unit_u, unit_v = (np.asarray(x, np.longdouble) / np.sqrt(np.sum(np.asarray(x, np.longdouble) ** 2, axis=-1,
                                                                      keepdims=True)) for x in (u, v))
    across = np.sqrt(np.sum((unit_u - unit_v) ** 2, axis=-1))
    along = np.sqrt(np.sum((unit_u + unit_v) ** 2, axis=-1))
    return 2 * np.arctan2(across, along)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
class TestSpectralAngleAccuracy:
    @pytest.mark.parametrize("gap", [1e-2, 1e-5, 1e-8, 1e-11, 1e-14])
    def test_near_pi_within_one_eps_of_long_double_unit_vector_oracle(self, gap):
        rng = np.random.default_rng(23)
        u = rng.normal(0.0, 1.0, (200, 40))
        v = -u * rng.uniform(0.5, 2.0, (200, 1)) + gap * rng.normal(0.0, 1.0, (200, 40))
        angle = spectral_angle(u, v)
        assert np.all(angle > np.pi / 2)  # every pair sums |u' + v'|^2 directly
        oracle = long_double_angle(u, v)
        # relative: half an ulp of pi, the rounding of the result alone, is already 1 eps absolute
        assert np.max(np.abs(angle - oracle) / oracle) <= np.finfo(float).eps

    @pytest.mark.parametrize("gap", [1.0, 1e-3, 1e-8])
    def test_other_angles_within_rounding_of_the_oracle(self, gap):
        # rounding each entry of a unit vector alone moves the angle by up to about 2 eps
        rng = np.random.default_rng(24)
        u = rng.uniform(0.0, 1.0, (200, 40))
        v = u + gap * rng.normal(0.0, 1.0, (200, 40))
        assert np.max(np.abs(spectral_angle(u, v) - long_double_angle(u, v))) <= 2.5 * np.finfo(float).eps
        w = u + rng.uniform(0.0, 4.0, (200, 1)) * rng.normal(0.0, 1.0, (200, 40))  # angles on both branches
        angle = spectral_angle(u, w)
        assert np.any(angle < np.pi / 3) and np.any(angle > np.pi / 3)
        assert np.max(np.abs(angle - long_double_angle(u, w))) <= 2.5 * np.finfo(float).eps


def curve(model, theta0, theta, omega):
    return AlbedoCurve(model, Geometry(theta0=theta0, theta=theta), omega)


class TestAlbedoCurve:
    def test_relative_model_identity_line_at_double_grazing(self):
        omega = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(curve("relative", 90.0, 90.0, omega).reflectance(), omega)

    def test_linear_model_slope_one_ninth_at_nadir(self):
        omega = np.linspace(0.0, 0.9, 10)
        np.testing.assert_allclose(curve("linear", 0.0, 0.0, omega).reflectance(), omega / 9.0, rtol=1e-15)

    def test_relative_model_frozen_values(self):
        omegas = np.array(sorted(CURVE_REL_45))
        expected = np.array([CURVE_REL_45[w] for w in sorted(CURVE_REL_45)])
        np.testing.assert_allclose(curve("relative", 45.0, 45.0, omegas).reflectance(), expected, rtol=1e-13)

    def test_model_domain_error_propagates(self):
        with pytest.raises(ModelDomainError):
            curve("lambertian", 90.0, 90.0, [0.5]).reflectance()

    def test_raw_albedo_validated(self):
        with pytest.raises(ValueError, match="albedo must be finite and in \\[0, 1\\], got 1.5"):
            curve("linear", 0.0, 0.0, [0.2, 1.5])
        with pytest.raises(ValueError, match="albedo"):
            curve("relative", 0.0, 0.0, [np.nan])

    def test_full_model_needs_params(self):
        with pytest.raises(ValueError, match="photometric"):
            curve("full", 0.0, 0.0, [0.5]).reflectance()
        params = PhotometricParams(b=0.0, c=0.5, B0=0.0, h=0.1)
        assert curve("full", 0.0, 0.0, [0.5]).reflectance(params).shape == (1,)


class TestSweepGrid:
    def test_empty_angles_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepGrid(theta0_values=[], theta_values=[0.0])

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 90\\]"):
            SweepGrid(theta0_values=[95.0], theta_values=[0.0])

    @pytest.mark.parametrize("name", ["theta0_values", "theta_values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angles_rejected_by_name(self, name, bad):
        values = {"theta0_values": [0.0, 10.0], "theta_values": [0.0, 10.0]}
        values[name] = [bad, 10.0]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SweepGrid(**values)

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError, match="not supported"):
            SweepGrid(model_pair=("full", "linear"))

    def test_default_grid_is_91_by_91(self):
        grid = SweepGrid()
        assert grid.theta0_values.size == 91
        assert grid.theta_values.size == 91
        assert grid.model_pair == ("relative", "linear")

    def test_absent_keys_take_the_field_defaults(self):
        assert SweepGrid.from_dict({}).to_dict() == SweepGrid().to_dict()

    def test_grid_built_directly_over_the_cell_bound_refused_like_from_dict(self):
        axis = np.linspace(0.0, 90.0, 2000)
        message = ("theta0_values (2000 angles) x theta_values (2000 angles) make 4000000 sweep cells; "
                   "at most 1000000 are allowed")
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepGrid(theta0_values=axis, theta_values=axis)
        step = {"start": 0.0, "stop": 90.0, "step": 90.0 / 1999}
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepGrid.from_dict({"theta0_values": step, "theta_values": step})
        assert SweepGrid(theta0_values=axis[:500], theta_values=axis).theta0_values.size == 500  # 10^6 cells


class TestSweepResult:
    @pytest.mark.parametrize("name", ["sam", "rmse", "valid"])
    @pytest.mark.parametrize("grid_shape, shape", [((3, 3), (2, 2)), ((3, 2), (2, 3))])
    def test_array_not_shaped_like_grid_rejected_by_name(self, name, grid_shape, shape):
        # a 2x2 result on a 3x3 grid used to write 4 CSV rows without an error
        grid = SweepGrid(theta0_values=np.arange(grid_shape[0], dtype=float),
                         theta_values=np.arange(grid_shape[1], dtype=float))
        arrays = {"sam": np.zeros(grid_shape), "rmse": np.zeros(grid_shape), "valid": np.ones(grid_shape, dtype=bool)}
        arrays[name] = np.zeros(shape, dtype=arrays[name].dtype)
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape {shape}; the grid's is {grid_shape}")):
            SweepResult(grid=grid, **arrays)


class TestAngleSweep:
    def test_perfect_agreement_at_double_grazing_cell(self):
        rng = np.random.default_rng(2)
        albedo = make_albedo(rng.uniform(0.0, 1.0, 40))
        grid = SweepGrid(theta0_values=[90.0], theta_values=[90.0])
        result = angle_sweep(albedo, grid)
        assert result.sam[0, 0] == 0.0
        assert result.rmse[0, 0] == 0.0
        assert result.valid[0, 0]

    def test_constant_albedo_parallel_everywhere(self):
        albedo = make_albedo(np.full(25, 0.4))
        grid = SweepGrid(theta0_values=np.arange(0.0, 91.0, 10.0), theta_values=np.arange(0.0, 91.0, 10.0))
        result = angle_sweep(albedo, grid)
        assert float(np.max(result.sam)) <= 1e-15

    def test_higher_albedo_spectrum_has_larger_rmse(self):
        shape = 1.0 + 0.25 * np.sin(np.linspace(0.0, 6.0, 30))
        low = make_albedo(0.18 * shape / shape.max())
        high = make_albedo(np.clip(0.75 * shape / shape.mean(), None, 0.99))
        assert low.omega.max() <= 0.2 and high.omega.min() >= 0.5
        grid = SweepGrid(theta0_values=np.arange(0.0, 91.0, 5.0), theta_values=np.arange(0.0, 91.0, 5.0))
        low_result = angle_sweep(low, grid)
        high_result = angle_sweep(high, grid)
        assert float(np.mean(high_result.rmse)) > float(np.mean(low_result.rmse))

    def test_diagonal_sam_grows_as_angles_shrink(self):
        rng = np.random.default_rng(3)
        albedo = make_albedo(np.clip(rng.uniform(0.1, 0.95, 30), None, 0.99))
        angles = np.arange(0.0, 91.0, 1.0)
        grid = SweepGrid(theta0_values=angles, theta_values=angles)
        result = angle_sweep(albedo, grid)
        diagonal = np.diagonal(result.sam)  # indexed 0..90 degrees
        walking_down = diagonal[::-1]  # from 90 degrees toward 0
        assert np.all(np.diff(walking_down) >= -1e-12)

    def test_nested_scaling_raises_mean_sam(self):
        shape = 1.0 + 0.3 * np.cos(np.linspace(0.0, 5.0, 30))
        base = 0.3 * shape / shape.max()
        grid = SweepGrid(theta0_values=np.arange(0.0, 91.0, 15.0), theta_values=np.arange(0.0, 91.0, 15.0))
        means = []
        for scale in (1.0, 2.0, 3.0):
            result = angle_sweep(make_albedo(np.clip(scale * base, None, 0.99)), grid)
            means.append(float(np.mean(result.sam)))
        assert means[0] < means[1] < means[2]

    def test_lambertian_pair_skips_double_grazing_cell(self):
        rng = np.random.default_rng(4)
        albedo = make_albedo(rng.uniform(0.1, 0.9, 20))
        grid = SweepGrid(
            theta0_values=[0.0, 90.0], theta_values=[0.0, 90.0], model_pair=("lambertian", "linear")
        )
        result = angle_sweep(albedo, grid)
        assert not result.valid[1, 1]
        assert np.isnan(result.sam[1, 1]) and np.isnan(result.rmse[1, 1])
        assert result.valid[0, 0] and result.valid[0, 1] and result.valid[1, 0]
        assert result.n_skipped == 1

    def test_zero_spectrum_rejected(self):
        albedo = make_albedo(np.zeros(5))
        with pytest.raises(ValueError, match="zero"):
            angle_sweep(albedo, SweepGrid(theta0_values=[10.0], theta_values=[10.0]))

    def test_grid_shape_and_orientation(self):
        rng = np.random.default_rng(5)
        albedo = make_albedo(rng.uniform(0.2, 0.8, 10))
        grid = SweepGrid(theta0_values=[0.0, 45.0, 90.0], theta_values=[30.0, 60.0])
        result = angle_sweep(albedo, grid)
        assert result.sam.shape == (3, 2)
        # spot-check one cell against the scalar path
        mu = float(cos_deg(60.0))
        mu0 = float(cos_deg(45.0))
        expected = spectral_angle(
            reflectance("relative", albedo.omega, mu, mu0),
            albedo.omega / (4.0 * mu * mu0 + 2.0 * mu + 2.0 * mu0 + 1.0),
        )
        assert result.sam[1, 1] == pytest.approx(float(expected), rel=1e-12, abs=1e-15)

    def test_lambertian_pair_matches_public_functions_per_cell(self):
        rng = np.random.default_rng(6)
        albedo = make_albedo(rng.uniform(0.05, 0.95, 24))
        angles = np.array([0.0, 20.0, 45.0, 70.0, 90.0])
        grid = SweepGrid(theta0_values=angles, theta_values=angles, model_pair=("lambertian", "linear"))
        result = angle_sweep(albedo, grid)
        cosines = cos_deg(angles)
        for i, mu0 in enumerate(cosines):
            for j, mu in enumerate(cosines):
                if i == j == angles.size - 1:
                    continue
                ref = reflectance("lambertian", albedo.omega, mu, mu0)[None, :]
                approx = reflectance("linear", albedo.omega, mu, mu0)[None, :]
                # the angle is taken between the shape spectra: relative (the
                # lambertian one without its wavelength-free factor) and the albedo
                shape = reflectance("relative", albedo.omega, mu, mu0)[None, :]
                assert result.sam[i, j] == spectral_angle(shape, albedo.omega[None, :])[0]
                assert result.rmse[i, j] == rmse(ref, approx)[0]
        assert not result.valid[-1, -1] and result.n_skipped == 1
        assert np.isnan(result.sam[-1, -1]) and np.isnan(result.rmse[-1, -1])

    @pytest.mark.parametrize("pair", [("relative", "linear"), ("lambertian", "linear"), ("lambertian", "relative")])
    def test_angle_of_shapes_is_angle_of_reflectances_to_rounding(self, pair):
        rng = np.random.default_rng(16)
        albedo = make_albedo(rng.uniform(0.05, 0.95, 24))
        angles = np.array([0.0, 20.0, 45.0, 70.0, 89.0])
        result = angle_sweep(albedo, SweepGrid(theta0_values=angles, theta_values=angles, model_pair=pair))
        mu = cos_deg(angles)
        ref, approx = (reflectance(m, albedo.omega, mu[None, :, None], mu[:, None, None]) for m in pair)
        assert np.max(np.abs(result.sam - spectral_angle(ref, approx))) <= 2 * np.finfo(float).eps
        np.testing.assert_array_equal(result.rmse, rmse(ref, approx))

    @pytest.mark.parametrize("pair", [("relative", "linear"), ("lambertian", "linear")])
    @pytest.mark.parametrize(
        "theta0_values, theta_values",
        [
            ([90.0, 0.0, 5.0, 20.0, 45.0, 60.0, 75.0, 89.0], [90.0, 0.0, 30.0, 60.0, 85.0, 90.0]),
            ([90.0, 0.0, 30.0, 60.0, 85.0, 90.0], [90.0, 0.0, 30.0, 60.0, 85.0, 90.0]),  # square: SAM and RMSE mirrored
        ],
    )
    def test_row_blocks_and_mirror_do_not_change_values(self, pair, theta0_values, theta_values):
        # each theta0 row swept alone is a 1 x n grid: one block, nothing mirrored
        rng = np.random.default_rng(7)
        albedo = make_albedo(rng.uniform(0.05, 0.95, 33))
        whole = angle_sweep(albedo, SweepGrid(theta0_values=theta0_values, theta_values=theta_values, model_pair=pair))
        for i, theta0 in enumerate(theta0_values):
            row = angle_sweep(albedo, SweepGrid(theta0_values=[theta0], theta_values=theta_values, model_pair=pair))
            np.testing.assert_array_equal(row.valid[0], whole.valid[i])
            np.testing.assert_array_equal(row.sam[0], whole.sam[i])
            np.testing.assert_array_equal(row.rmse[0], whole.rmse[i])
        grazing = theta0_values.count(90.0) * theta_values.count(90.0)
        assert whole.n_skipped == (grazing if pair[0] == "lambertian" else 0)

    @pytest.mark.parametrize("pair", [("relative", "linear"), ("lambertian", "linear"), ("lambertian", "relative"),
                                      ("linear", "relative"), ("linear", "lambertian"), ("relative", "lambertian")])
    def test_square_grid_sam_and_rmse_are_symmetric_and_equal_the_unmirrored_grid(self, pair):
        rng = np.random.default_rng(17)
        albedo = make_albedo(rng.uniform(0.05, 0.95, 29))
        angles = [0.0, 90.0, 12.5, 37.0, 60.0, 88.0, 1e-300]
        square = angle_sweep(albedo, SweepGrid(theta0_values=angles, theta_values=angles, model_pair=pair))
        np.testing.assert_array_equal(square.sam, square.sam.T)
        np.testing.assert_array_equal(square.rmse, square.rmse.T)
        # one more theta angle makes the grid non-square, so nothing is mirrored
        wider = angle_sweep(albedo, SweepGrid(theta0_values=angles, theta_values=[*angles, 45.0], model_pair=pair))
        assert np.array_equal(wider.sam[:, :-1], square.sam, equal_nan=True)
        assert np.array_equal(wider.rmse[:, :-1], square.rmse, equal_nan=True)
        nan = np.zeros(square.sam.shape, dtype=bool)
        nan[1, 1] = "lambertian" in pair  # (90, 90), the doubly grazing cell
        np.testing.assert_array_equal(np.isnan(square.sam), nan)
        np.testing.assert_array_equal(np.isnan(square.rmse), nan)


#: (theta0_values, theta_values) of a square grid (mirrored), a non-square one and one of grazing angles
SWEEP_GRIDS = {
    "square": ([0.0, 90.0, 12.5, 37.0, 60.0, 88.0, 1e-300], [0.0, 90.0, 12.5, 37.0, 60.0, 88.0, 1e-300]),
    "non-square": ([90.0, 0.0, 5.0, 20.0, 45.0, 75.0], [0.0, 30.0, 60.0, 85.0, 90.0]),
    "grazing": ([85.0, 88.0, 89.9, 90.0], [80.0, 89.0, 89.99, 90.0]),
}


class TestAngleSweeps:
    N_BANDS = 31

    @classmethod
    def albedos(cls):
        rng = np.random.default_rng(23)
        spectra = [rng.uniform(0.05, 0.95, cls.N_BANDS) for _ in range(4)]
        # a flat albedo, and a tiny one whose reflectance differences are summed again, rescaled
        spectra += [np.full(cls.N_BANDS, 0.5), 1e-200 * rng.uniform(0.2, 0.9, cls.N_BANDS)]
        return [make_albedo(omega, f"m{k}") for k, omega in enumerate(spectra)]

    @staticmethod
    def assert_each_equals_its_one_albedo_sweep(albedos, grid):
        results = list(angle_sweeps(albedos, grid))
        assert len(results) == len(albedos)
        for albedo, result in zip(albedos, results):
            alone = angle_sweep(albedo, grid)
            assert result.grid is grid
            for name in ("sam", "rmse", "valid"):
                assert getattr(result, name).tobytes() == getattr(alone, name).tobytes(), (albedo.material, name)

    @pytest.mark.parametrize("pair", [("relative", "linear"), ("lambertian", "linear"), ("lambertian", "relative")])
    @pytest.mark.parametrize("axes", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS)
    @pytest.mark.parametrize("cells_per_step", [1, 3, None], ids=["one", "prime", "whole"])
    def test_cell_steps_do_not_change_values(self, pair, axes, cells_per_step, monkeypatch):
        # a small grid is one step by default; a smaller _SWEEP_STEP_FLOATS makes steps of one cell, of three
        # (a prime: on each grid some step starts or ends mid-row), or of the whole cell list
        albedos = self.albedos()[:2]
        grid = SweepGrid(theta0_values=axes[0], theta_values=axes[1], model_pair=pair)
        whole = list(angle_sweeps(albedos, grid))
        # a step holds F // (6 L) cells
        n_cells = len(axes[0]) * len(axes[1])
        monkeypatch.setattr(metrics, "_SWEEP_STEP_FLOATS", 6 * self.N_BANDS * (cells_per_step or n_cells))
        for one, stepped in zip(whole, angle_sweeps(albedos, grid), strict=True):
            for name in ("sam", "rmse", "valid"):
                assert getattr(stepped, name).tobytes() == getattr(one, name).tobytes(), name

    @pytest.mark.parametrize("pair", list(itertools.permutations(SWEEP_MODELS, 2)))
    @pytest.mark.parametrize("axes", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS)
    @pytest.mark.parametrize("order", [1, -1], ids=["given", "reversed"])
    def test_each_result_equals_the_one_albedo_sweep_bit_for_bit(self, pair, axes, order):
        # reversed, the tiny albedo (rescaled sums, past _ACROSS_SQ_MAX) is swept first: the work buffers that
        # the albedos of one call share carry nothing from one albedo to the next
        grid = SweepGrid(theta0_values=axes[0], theta_values=axes[1], model_pair=pair)
        self.assert_each_equals_its_one_albedo_sweep(self.albedos()[::order], grid)

    def test_a_zero_albedo_is_refused_by_name_before_any_sweep(self):
        albedos = [*self.albedos()[:2], make_albedo(np.zeros(self.N_BANDS), "void")]
        # refused by the call itself, before a result is asked for
        with pytest.raises(ValueError, match="albedo 'void' is identically zero"):
            angle_sweeps(albedos, SweepGrid())

    def test_albedos_of_two_band_counts_refused(self):
        with pytest.raises(ValueError, match=r"share one band count, got \[5, 31\]"):
            angle_sweeps([*self.albedos()[:1], make_albedo(np.full(5, 0.5))], SweepGrid())

    def test_no_albedos_give_no_results(self):
        assert list(angle_sweeps([], SweepGrid())) == []


def long_double_sweep(pair, omega, angles):
    """SAM (2 atan2 form) and RMSE of the reflectance docstring formulas in long double."""
    w = np.asarray(omega, dtype=np.longdouble)
    mu = cos_deg(angles).astype(np.longdouble)
    mu, mu0 = mu[None, :, None], mu[:, None, None]

    def model(name):
        if name == "linear":
            return w / (4 * mu * mu0 + 2 * mu + 2 * mu0 + 1)
        root = np.sqrt(1 - w)
        relative = w / ((1 + 2 * mu * root) * (1 + 2 * mu0 * root))
        if name == "relative":
            return relative
        return (1 + 2 * mu) * (1 + 2 * mu0) * relative / (4 * (mu + mu0))

    with np.errstate(divide="ignore", invalid="ignore"):  # the lambertian doubly grazing cell
        a, b = model(pair[0]), model(pair[1])
        unit_a = a / np.sqrt(np.sum(a * a, axis=-1, keepdims=True))
        unit_b = b / np.sqrt(np.sum(b * b, axis=-1, keepdims=True))
        across = np.sqrt(np.sum((unit_a - unit_b) ** 2, axis=-1))
        along = np.sqrt(np.sum((unit_a + unit_b) ** 2, axis=-1))
        scale = np.sqrt(np.mean(a * a, axis=-1))
        return 2 * np.arctan2(across, along), np.sqrt(np.mean((a - b) ** 2, axis=-1)), scale


class TestFactoredSweepAccuracy:
    ANGLES = np.append(np.arange(0.0, 90.0, 2.5), 90.0)

    @staticmethod
    def smooth_albedos(count=3, bands=120):
        rng = np.random.default_rng(8)
        x = np.linspace(0.0, 1.0, bands)
        return [
            make_albedo(np.clip(rng.uniform(0.2, 0.7) + rng.uniform(-0.3, 0.3) * x
                                + 0.1 * np.sin(rng.uniform(2.0, 9.0) * x), 0.01, 0.99))
            for _ in range(count)
        ]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double")
    @pytest.mark.parametrize("pair", [("relative", "linear"), ("lambertian", "linear")])
    def test_matches_long_double_oracle(self, pair):
        eps = np.finfo(float).eps
        grid = SweepGrid(theta0_values=self.ANGLES, theta_values=self.ANGLES, model_pair=pair)
        for albedo in self.smooth_albedos():
            result = angle_sweep(albedo, grid)
            sam, err, scale = long_double_sweep(pair, albedo.omega, self.ANGLES)
            valid = result.valid
            assert np.max(np.abs(result.sam[valid] - sam[valid])) <= eps
            assert np.all(np.abs(result.rmse[valid] - err[valid]) <= 4 * eps * scale[valid])

    def test_same_factor_pair_has_exactly_zero_angle(self):
        grid = SweepGrid(theta0_values=self.ANGLES, theta_values=self.ANGLES, model_pair=("lambertian", "relative"))
        for albedo in self.smooth_albedos():
            result = angle_sweep(albedo, grid)
            assert result.n_skipped == 1
            assert np.all(result.sam[result.valid] == 0.0)

    def test_doubly_grazing_cell_is_exactly_zero_inside_a_block(self):
        grid = SweepGrid(theta0_values=self.ANGLES, theta_values=self.ANGLES)
        for albedo in self.smooth_albedos():
            result = angle_sweep(albedo, grid)
            assert result.sam[-1, -1] == 0.0 and result.rmse[-1, -1] == 0.0
            assert np.all(result.sam[:-1, :] > 0.0)


class TestSweepConfigs:
    @pytest.mark.parametrize(
        "grid",
        [
            SweepGrid(),
            SweepGrid(theta0_values=[90.0, 0.0, 1e-300], theta_values=np.arange(0.0, 90.0, 0.7),
                      model_pair=("lambertian", "linear")),
        ],
    )
    def test_sweep_grid_round_trip(self, grid):
        again = SweepGrid.from_dict(grid.to_dict())
        assert again.model_pair == grid.model_pair
        assert np.array_equal(again.theta0_values, grid.theta0_values)
        assert np.array_equal(again.theta_values, grid.theta_values)

    @pytest.mark.parametrize(
        "omega, form",
        [
            (np.linspace(0.0, 1.0, 7) ** 2, list),
            (np.linspace(0.05, 0.95, 37), dict),
            (np.linspace(0.0, 1.0, 5) * np.array([-1.0, 1.0, 1.0, 1.0, 1.0]), list),  # -0.0 first, 0.0 rebuilt
            (np.linspace(1.0, 0.0, 3), dict),
            (np.array([0.3]), dict),
        ],
    )
    def test_albedo_curve_round_trip(self, omega, form):
        original = AlbedoCurve("full", Geometry(theta0=9.0, theta=21.0, phi=30.0), omega)
        echo = original.to_dict()
        assert isinstance(echo["omega"], form)
        again = AlbedoCurve.from_dict(json.loads(json.dumps(echo)))
        assert again.model == original.model and again.geometry == original.geometry
        assert again.omega.shape == omega.shape
        assert np.array_equal(again.omega.view(np.int64), original.omega.view(np.int64))

    def test_albedo_curve_echoes_a_linspace_grid_as_its_range(self):
        curve = AlbedoCurve.from_dict({"kind": "curve", "omega": {"start": 0.0, "stop": 1.0, "num": 10**5}})
        echo = curve.to_dict()
        assert echo["omega"] == {"start": 0.0, "stop": 1.0, "num": 10**5}
        assert len(json.dumps(echo)) < 200

    def test_defaults(self):
        grid, default = SweepGrid.from_dict({}), SweepGrid()
        assert grid.model_pair == default.model_pair
        assert np.array_equal(grid.theta0_values, default.theta0_values)
        assert np.array_equal(grid.theta_values, default.theta_values)
        defaults = AlbedoCurve.from_dict({"kind": "curve"})
        assert defaults.model == "relative" and defaults.geometry == Geometry(theta0=0.0, theta=0.0, phi=0.0)
        assert np.array_equal(defaults.omega, np.linspace(0.0, 1.0, 101))

    def test_curve_type_checks_its_inputs(self):
        geom = Geometry(theta0=0.0, theta=0.0)
        with pytest.raises(ValueError, match="unknown model 'hapke'"):
            AlbedoCurve("hapke", geom, [0.5])
        with pytest.raises(ValueError, match="omega must be 1-D"):
            AlbedoCurve("linear", geom, [[0.5]])
        with pytest.raises(ValueError, match="omega must hold at least one albedo"):
            AlbedoCurve("linear", geom, [])
        assert not AlbedoCurve("linear", geom, [0.5]).omega.flags.writeable

    @pytest.mark.parametrize("cls, kind", [(SweepGrid, "curve"), (AlbedoCurve, "angle")])
    def test_other_kind_refused(self, cls, kind):
        with pytest.raises(ValueError, match=f"has kind .*, got '{kind}'"):
            cls.from_dict({"kind": kind})
