import json
import warnings

import numpy as np
import pytest

from bruteforce import elmm_full_oracle_two_materials, kkt_violation, support_oracle
from specmix import solver
from specmix.core import AlbedoSpectrum, Geometry, HyperCube, WavelengthAxis
from specmix.simulate import AbundanceSampler, GeometrySampler, SceneConfig, simulate_cube
from specmix.solver import SolverConfig, fcls, unmix_cube


def random_endmembers(n_bands, n_materials, rng, low=0.05, high=1.0):
    return rng.uniform(low, high, (n_bands, n_materials))


class TestSolverConfig:
    def test_psi_bounds_must_bracket_one(self):
        with pytest.raises(ValueError, match="psi_bounds"):
            SolverConfig(psi_bounds=(1.5, 2.0))
        with pytest.raises(ValueError, match="psi_bounds"):
            SolverConfig(psi_bounds=(0.0, 2.0))
        # JSON reads 1e400 as infinity, which unmix.json could only write back as the non-standard Infinity
        with pytest.raises(ValueError, match="psi_bounds"):
            SolverConfig.from_dict(json.loads('{"psi_bounds": [0.5, 1e400]}'))

    def test_scaled_models_require_sum_to_one(self):
        with pytest.raises(ValueError, match="sum_to_one"):
            SolverConfig(model="elmm-full", sum_to_one=False)
        SolverConfig(model="lmm", sum_to_one=False)  # allowed

    def test_dict_round_trip(self):
        config = SolverConfig(model="elmm-global", psi_bounds=(0.5, 3.0))
        assert SolverConfig.from_dict(config.to_dict()) == config

    def test_absent_keys_take_the_field_defaults(self):
        assert SolverConfig.from_dict({}).to_dict() == SolverConfig().to_dict()

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown solver config keys: psi_bound, sed"):
            SolverConfig.from_dict({"model": "lmm", "sed": 1, "psi_bound": [1, 2]})

    def test_removed_iteration_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown solver config keys: max_iters, tol"):
            SolverConfig.from_dict({"model": "elmm-full", "max_iters": 500, "tol": 1e-8})


class TestFcls:
    def test_pure_pixel_recovers_indicator(self):
        rng = np.random.default_rng(0)
        S = random_endmembers(12, 4, rng)
        for p in range(4):
            a = fcls(S[:, p], S)
            expected = np.zeros(4)
            expected[p] = 1.0
            np.testing.assert_allclose(a, expected, atol=1e-8)

    def test_midpoint_mixture_recovered(self):
        rng = np.random.default_rng(1)
        S = random_endmembers(10, 2, rng)
        x = 0.5 * S[:, 0] + 0.5 * S[:, 1]
        np.testing.assert_allclose(fcls(x, S), [0.5, 0.5], atol=1e-8)

    def test_objective_matches_exact_oracle(self):
        rng = np.random.default_rng(2)
        S = random_endmembers(4, 2, rng)
        x = rng.uniform(0.0, 1.0, 4)
        a = fcls(x, S)
        best = support_oracle(S, x[:, None], 1.0, 1.0)[:, 0]
        np.testing.assert_allclose(a, best, rtol=0.0, atol=1e-12)
        assert np.sum((x - S @ a) ** 2) <= np.sum((x - S @ best) ** 2) * (1 + 1e-12)

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(3)
        for sum_to_one in (True, False):
            for _ in range(50):
                S = random_endmembers(8, 4, rng)
                x = rng.uniform(-0.2, 1.2, 8)
                a = fcls(x, S, sum_to_one=sum_to_one)
                violation, stationarity = kkt_violation(S, x, a, sum_to_one)
                assert violation >= -1e-8
                assert stationarity <= 1e-8
                assert np.all(a >= 0.0)
                if sum_to_one:
                    assert np.sum(a) == pytest.approx(1.0, abs=1e-9)

    def test_rank_deficient_matrix_rejected(self):
        S = np.ones((5, 2))
        with pytest.raises(ValueError, match="rank"):
            fcls(np.ones(5), S)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        S = random_endmembers(6, 2, rng)
        with pytest.raises(ValueError, match="length"):
            fcls(np.ones(5), S)

    def test_more_materials_than_bands_rejected(self):
        rng = np.random.default_rng(5)
        S = random_endmembers(2, 3, rng)
        with pytest.raises(ValueError, match="bands"):
            fcls(np.ones(2), S)

    def test_unconstrained_sum_mode(self):
        rng = np.random.default_rng(6)
        S = random_endmembers(10, 3, rng)
        z_true = np.array([0.3, 0.0, 1.9])
        a = fcls(S @ z_true, S, sum_to_one=False)
        np.testing.assert_allclose(a, z_true, atol=1e-8)


class TestGlobalScaling:
    def fit(self, x, S, **kw):
        """One pixel unmixed as a one-column cube under elmm-global."""
        return unmix_cube(x[:, None], S, SolverConfig(model="elmm-global", **kw))

    def test_doubled_mixture_recovers_scale_two(self):
        rng = np.random.default_rng(7)
        S = random_endmembers(20, 3, rng)
        a_true = np.array([0.2, 0.5, 0.3])
        fit = self.fit(2.0 * (S @ a_true), S)
        assert fit.scales[0, 0] == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(fit.abundances[:, 0], a_true, atol=1e-8)
        assert not fit.degenerate[0]

    def test_unit_scale_matches_fcls(self):
        rng = np.random.default_rng(8)
        S = random_endmembers(15, 3, rng)
        x = S @ np.array([0.6, 0.1, 0.3])
        fit = self.fit(x, S)
        np.testing.assert_allclose(fit.abundances[:, 0], fcls(x, S), atol=1e-8)
        assert fit.scales[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_generate_and_recover(self):
        rng = np.random.default_rng(9)
        S = random_endmembers(50, 3, rng)
        a_true = rng.dirichlet(np.ones(3))
        psi_true = 0.7
        fit = self.fit(psi_true * (S @ a_true), S)
        assert fit.scales[0, 0] == pytest.approx(psi_true, abs=1e-6)
        np.testing.assert_allclose(fit.abundances[:, 0], a_true, atol=1e-6)

    def test_noise_free_sparse_scene_keeps_every_present_material(self):
        # a material present at 1e-9 is as much part of the optimum as one at 0.5: none may be dropped
        cube = linear_scene(n_pixels=1000, seed=0, n_materials=8, abundances=AbundanceSampler(kind="dirichlet", alpha=0.3))
        result = unmix_cube(cube, cube.ground_truth.endmembers, SolverConfig(model="elmm-global"))
        truth = cube.ground_truth.abundances
        assert np.all(result.abundances[truth > 1e-10] > 0.0)
        assert float(np.max(np.abs(result.abundances - truth))) < 1e-10

    def test_scale_equivariance(self):
        rng = np.random.default_rng(10)
        S = random_endmembers(25, 3, rng)
        x = S @ rng.dirichlet(np.ones(3)) + rng.normal(0, 0.01, 25)
        first = self.fit(x, S)
        second = self.fit(1.7 * x, S)
        np.testing.assert_allclose(second.abundances[:, 0], first.abundances[:, 0], atol=1e-8)
        assert second.scales[0, 0] == pytest.approx(1.7 * first.scales[0, 0], rel=1e-8)

    def test_degenerate_pixel_flagged(self):
        # the non-negative fit is 0, so the optimum lies on sum(z) = lo
        rng = np.random.default_rng(11)
        S = random_endmembers(10, 3, rng)
        x = -np.ones(10)
        fit = self.fit(x, S, psi_bounds=(0.05, 20.0))
        full = unmix_cube(x[:, None], S, SolverConfig(model="elmm-full", psi_bounds=(0.05, 20.0)))
        assert fit.degenerate[0] and full.degenerate[0]
        np.testing.assert_allclose(fit.scales[:, 0], 0.05, rtol=0.0, atol=1e-12)
        assert np.array_equal(fit.abundances, full.abundances)
        z = fit.scales[:, 0] * fit.abundances[:, 0]
        assert z.sum() == pytest.approx(0.05, rel=1e-12)
        violation, stationarity = kkt_violation(S, x, z, sum_to_one=True)
        scale = float(np.max(np.abs(S.T @ x)))
        assert violation >= -1e-8 * scale and stationarity <= 1e-8 * scale

    def test_scale_outside_bounds_lands_on_bound(self):
        rng = np.random.default_rng(12)
        S = random_endmembers(20, 2, rng)
        x = 9.0 * (S @ np.array([0.5, 0.5]))
        fit = self.fit(x, S, psi_bounds=(0.5, 2.0))
        assert fit.scales[0, 0] == 2.0
        assert np.sum(fit.abundances[:, 0]) == pytest.approx(1.0, abs=1e-9)


def linear_scene(n_pixels, seed, theta_hi=69.0, n_bands=30, n_materials=3, abundances=AbundanceSampler()):
    rng = np.random.default_rng(seed)
    axis = WavelengthAxis(np.linspace(0.4, 2.5, n_bands))
    albedos = [
        AlbedoSpectrum(material=f"m{k}", omega=rng.uniform(0.1, 0.9, n_bands), axis=axis)
        for k in range(n_materials)
    ]
    config = SceneConfig(
        n_materials=n_materials,
        n_pixels=n_pixels,
        model="linear",
        abundances=abundances,
        geometry=GeometrySampler(
            kind="uniform", theta0_range=(0.0, theta_hi), theta_range=(0.0, theta_hi)
        ),
        reference=Geometry(theta0=45.0, theta=45.0, phi=0.0),
        seed=seed,
    )
    return simulate_cube(albedos, [None] * n_materials, config)


class TestElmmFull:
    def test_linear_scene_reconstructed_to_machine_level(self):
        cube = linear_scene(n_pixels=150, seed=13)
        result = unmix_cube(cube, cube.ground_truth.endmembers, SolverConfig(model="elmm-full"))
        assert float(np.max(result.residual_rmse)) < 1e-8

    def test_linear_scene_parameters_recovered(self):
        cube = linear_scene(n_pixels=150, seed=14)
        result = unmix_cube(cube, cube.ground_truth.endmembers, SolverConfig(model="elmm-full"))
        gt = cube.ground_truth
        assert float(np.sqrt(np.mean((result.abundances - gt.abundances) ** 2))) < 1e-7
        assert float(np.sqrt(np.mean((result.scales - gt.scales) ** 2))) < 1e-7

    def test_single_material_identifies_product(self):
        rng = np.random.default_rng(15)
        S = rng.uniform(0.1, 0.9, (12, 1))
        axis = WavelengthAxis(np.linspace(0.4, 2.5, 12))
        cube = HyperCube(values=1.3 * S, axis=axis)
        result = unmix_cube(cube, S, SolverConfig(model="elmm-full"))
        assert result.abundances[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert result.scales[0, 0] == pytest.approx(1.3, abs=1e-8)

    def test_objective_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(16)
        from specmix.core import HyperCube

        axis = WavelengthAxis(np.linspace(0.4, 2.5, 4))
        config = SolverConfig(model="elmm-full", psi_bounds=(0.5, 2.0))
        worst = -np.inf
        for _ in range(25):
            S = random_endmembers(4, 2, rng)
            x = rng.uniform(0.0, 1.0, 4)
            cube = HyperCube(values=x[:, None], axis=axis)
            result = unmix_cube(cube, S, config)
            achieved = float(np.sum((x - S @ (result.scales[:, 0] * result.abundances[:, 0])) ** 2))
            oracle = elmm_full_oracle_two_materials(S, x, 0.5, 2.0)
            worst = max(worst, achieved - oracle)
        assert worst <= 1e-6

    def test_unit_psi_bounds_reduce_to_fcls(self):
        cube = linear_scene(n_pixels=40, seed=17)
        S = cube.ground_truth.endmembers
        pinned = unmix_cube(cube, S, SolverConfig(model="elmm-full", psi_bounds=(1.0, 1.0)))
        np.testing.assert_array_equal(pinned.scales, np.ones_like(pinned.scales))
        for n in range(cube.n_pixels):
            np.testing.assert_allclose(
                pinned.abundances[:, n], fcls(cube.values[:, n], S), atol=1e-8
            )

    def test_deterministic(self):
        cube = linear_scene(n_pixels=30, seed=18)
        S = cube.ground_truth.endmembers
        config = SolverConfig(model="elmm-full")
        first = unmix_cube(cube, S, config)
        second = unmix_cube(cube, S, config)
        np.testing.assert_array_equal(first.abundances, second.abundances)
        np.testing.assert_array_equal(first.scales, second.scales)

    def test_result_feasible(self):
        cube = linear_scene(n_pixels=60, seed=19)
        config = SolverConfig(model="elmm-full", psi_bounds=(0.5, 2.0))
        result = unmix_cube(cube, cube.ground_truth.endmembers, config)
        assert np.all(result.abundances >= 0.0)
        np.testing.assert_allclose(result.abundances.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(result.scales >= 0.5) and np.all(result.scales <= 2.0)

    def test_equals_global_scaling_with_unit_psi_off_support(self):
        # columns: a mixture, a zero pixel and a negative pixel (both degenerate)
        rng = np.random.default_rng(33)
        n_bands = 20
        axis = WavelengthAxis(np.linspace(0.4, 2.5, n_bands))
        clamped = 0
        for trial in range(240):
            n_materials = (2, 3, 4)[trial % 3]
            lo, hi = ((1e-2, 1e2), (0.5, 2.0))[trial % 2]
            S = random_endmembers(n_bands, n_materials, rng)
            z_true = rng.uniform(0.2, 5.0, n_materials) * rng.dirichlet(np.full(n_materials, 0.5))
            x = np.abs(S @ z_true + rng.normal(0.0, 0.01, n_bands))
            cube = HyperCube(values=np.column_stack([x, np.zeros(n_bands), -x]), axis=axis)
            full = unmix_cube(cube, S, SolverConfig(model="elmm-full", psi_bounds=(lo, hi)))
            shared = unmix_cube(cube, S, SolverConfig(model="elmm-global", psi_bounds=(lo, hi)))
            assert shared.degenerate.tolist() == full.degenerate.tolist() == [False, True, True]
            assert np.array_equal(full.abundances, shared.abundances)
            support = full.abundances > 0.0
            assert np.array_equal(full.scales[support], shared.scales[support])
            assert np.all(full.scales[~support] == 1.0)
            assert np.all(shared.scales == shared.scales[0])
            assert np.all((shared.scales >= lo) & (shared.scales <= hi))
            clamped += shared.scales[0, 0] in (lo, hi)
        assert clamped > 0


def relative_scene(n_pixels, seed):
    rng = np.random.default_rng(seed)
    n_bands = 30
    axis = WavelengthAxis(np.linspace(0.4, 2.5, n_bands))
    albedos = [
        AlbedoSpectrum(material=f"m{k}", omega=rng.uniform(0.2, 0.95, n_bands), axis=axis)
        for k in range(3)
    ]
    config = SceneConfig(
        n_materials=3,
        n_pixels=n_pixels,
        model="relative",
        geometry=GeometrySampler(kind="uniform", theta0_range=(0.0, 90.0), theta_range=(45.0, 45.0)),
        reference=Geometry(theta0=45.0, theta=45.0, phi=0.0),
        seed=seed,
    )
    return simulate_cube(albedos, [None] * 3, config)


class TestModelComparison:
    def test_scaling_freedom_dominates_plain_fcls_on_curved_data(self):
        for seed in range(3):
            cube = relative_scene(n_pixels=120, seed=20 + seed)
            S = cube.ground_truth.endmembers
            plain = unmix_cube(cube, S, SolverConfig(model="lmm"))
            scaled = unmix_cube(cube, S, SolverConfig(model="elmm-full"))
            assert float(np.mean(scaled.residual_rmse)) < float(np.mean(plain.residual_rmse))

    def test_global_scaling_shared_scale_and_degenerate_counts(self):
        cube = relative_scene(n_pixels=50, seed=31)
        S = cube.ground_truth.endmembers
        result = unmix_cube(cube, S, SolverConfig(model="elmm-global"))
        assert not result.degenerate.any()
        assert np.all(result.scales == result.scales[0])

    def test_lmm_without_sum_constraint(self):
        cube = relative_scene(n_pixels=20, seed=32)
        S = cube.ground_truth.endmembers
        result = unmix_cube(cube, S, SolverConfig(model="lmm", sum_to_one=False))
        assert np.all(result.abundances >= 0.0)
        sums = result.abundances.sum(axis=0)
        assert not np.allclose(sums, 1.0, atol=1e-6)  # scaled data pulls sums off 1

    def test_degenerate_pixel_has_a_non_negative_fit_of_exactly_zero(self):
        # c = S'x = (-1, -0.5, 5e-11): its one positive entry is inside the entering test's tolerance at z = 0
        rng = np.random.default_rng(1)
        S = random_endmembers(20, 3, rng)
        x = np.linalg.lstsq(S.T, np.array([-1.0, -0.5, 5e-11]), rcond=None)[0]
        result = unmix_cube(x[:, None], S, SolverConfig(model="lmm", sum_to_one=False))
        assert result.degenerate[0] and np.all(result.abundances == 0.0)


class TestCubeInput:
    def test_non_finite_value_named_before_solving(self):
        cube = linear_scene(n_pixels=10, seed=34)
        values = np.array(cube.values)
        values[5, 7] = np.nan
        bad = HyperCube(values=values, axis=cube.axis)
        for model in ("lmm", "elmm-global", "elmm-full"):
            with pytest.raises(ValueError, match="non-finite cube value nan at band 5, pixel 7"):
                unmix_cube(bad, cube.ground_truth.endmembers, SolverConfig(model=model))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_named_by_band_in_single_pixel_entry_points(self, value):
        rng = np.random.default_rng(35)
        S = random_endmembers(12, 3, rng)
        x = S @ np.array([0.2, 0.5, 0.3])
        x[4] = value
        message = f"non-finite cube value {value} at band 4"
        for sum_to_one in (True, False):
            with pytest.raises(ValueError, match=message):
                fcls(x, S, sum_to_one=sum_to_one)
        with pytest.raises(ValueError, match=message):
            unmix_cube(x[:, None], S, SolverConfig(model="elmm-global"))

    # a non-finite x makes every c = S'x non-finite, so the cube is scanned only then; the scan names the value
    # without a floating-point warning
    @pytest.mark.parametrize("model", ["lmm", "elmm-global", "elmm-full"])
    def test_inf_at_a_band_where_every_endmember_is_zero_is_named(self, model):
        rng = np.random.default_rng(36)
        S = random_endmembers(12, 3, rng)
        S[6] = 0.0  # inf * 0 = nan in every c
        X = S @ rng.dirichlet(np.ones(3), 4).T
        X[6, 2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite cube value inf at band 6, pixel 2"):
                unmix_cube(X, S, SolverConfig(model=model))

    @pytest.mark.parametrize("model", ["lmm", "elmm-global", "elmm-full"])
    def test_opposite_infinities_in_one_pixel_are_named(self, model):
        rng = np.random.default_rng(37)
        S = random_endmembers(12, 3, rng)
        X = S @ rng.dirichlet(np.ones(3), 4).T
        X[3, 1], X[8, 1] = np.inf, -np.inf  # inf - inf = nan in every c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite cube value inf at band 3, pixel 1"):
                unmix_cube(X, S, SolverConfig(model=model))

    def test_nan_in_the_last_batch_refused_before_any_solve(self, monkeypatch):
        cube = linear_scene(n_pixels=40, seed=38)
        values = np.array(cube.values)
        values[11, 38] = np.nan
        # 9-pixel lockstep batches at P = 3: pixel 38 is in the fifth and last
        monkeypatch.setattr(solver, "_BATCH_FLOATS", 9 * 3 ** 2)
        calls = []
        active_set = solver._active_set
        monkeypatch.setattr(solver, "_active_set", lambda *args: calls.append(len(args[1])) or active_set(*args))
        unmix_cube(cube, cube.ground_truth.endmembers, SolverConfig(model="lmm"))
        assert calls == [9, 9, 9, 9, 4]
        calls.clear()
        for model in ("lmm", "elmm-global", "elmm-full"):
            with pytest.raises(ValueError, match="non-finite cube value nan at band 11, pixel 38"):
                unmix_cube(HyperCube(values=values, axis=cube.axis), cube.ground_truth.endmembers, SolverConfig(model=model))
        assert calls == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("model", ["lmm", "elmm-global", "elmm-full"])
    def test_finite_cube_whose_products_overflow_is_solved_as_given(self, model):
        rng = np.random.default_rng(39)
        S = random_endmembers(12, 3, rng)
        X = np.full((12, 4), 1.7e308)
        assert np.all(np.isfinite(X)) and not np.any(np.isfinite(S.T @ X))
        # not refused as a non-finite cube: the solve runs, and its non-finite result is refused
        with pytest.raises(ValueError, match="abundances must be finite; pixel 0 is not"):
            unmix_cube(X, S, SolverConfig(model=model))
