import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from specmix.core import AlbedoSpectrum, Geometry, HyperCube, PhotometricParams, WavelengthAxis
from specmix.hapke import MODELS, endmember_variant, reflectance, scaling_factor
from specmix import simulate
from specmix.simulate import (
    AbundanceSampler,
    GeometrySampler,
    SceneConfig,
    inject_noise,
    sample_abundances,
    sample_geometries,
    simulate_cube,
)


def make_albedos(n_materials=3, n_bands=12, seed=1):
    rng = np.random.default_rng(seed)
    axis = WavelengthAxis(np.linspace(0.4, 2.5, n_bands))
    return [
        AlbedoSpectrum(material=f"m{k}", omega=rng.uniform(0.05, 0.95, n_bands), axis=axis)
        for k in range(n_materials)
    ]


def pixel_geometry(geometries, n):
    """Pixel n of an N-pixel Geometry as the per-pixel Geometry oracle, built from its angles."""
    return Geometry(theta0=geometries.theta0[n], theta=geometries.theta[n], phi=geometries.phi[n])


def assert_same_geometries(actual, expected):
    for name in ("theta0", "theta", "phi", "mu0", "mu", "g"):
        np.testing.assert_array_equal(getattr(actual, name), getattr(expected, name), err_msg=name)


def base_config(**overrides):
    defaults = dict(
        n_materials=3,
        n_pixels=64,
        model="linear",
        abundances=AbundanceSampler(kind="uniform"),
        geometry=GeometrySampler(
            kind="uniform", theta0_range=(0.0, 69.0), theta_range=(0.0, 69.0), phi_range=(0.0, 180.0)
        ),
        reference=Geometry(theta0=45.0, theta=45.0, phi=0.0),
        seed=7,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


class TestSceneConfig:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            base_config(n_pixels=0)
        with pytest.raises(ValueError):
            base_config(n_materials=0)
        with pytest.raises(ValueError, match="n_pixels must be at most 10000000"):
            base_config(n_pixels=10**7 + 1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SceneConfig.from_dict({**base_config().to_dict(), "seed": -1})
        for missing in ("n_materials", "n_pixels"):
            raw = {key: value for key, value in base_config().to_dict().items() if key != missing}
            message = rf"^scene config: missing keys {missing}; expected keys n_materials, n_pixels$"
            with pytest.raises(ValueError, match=message):
                SceneConfig.from_dict(raw)

    def test_snr_must_be_positive(self):
        with pytest.raises(ValueError):
            base_config(snr_db=-3.0)

    def test_infinite_snr_is_stored_as_no_noise(self):
        config = base_config(snr_db=math.inf)
        assert config == base_config(snr_db=None)
        assert json.dumps(config.to_dict()) == json.dumps(base_config().to_dict())

    def test_dict_round_trip(self):
        config = base_config(snr_db=25.0, seed=123)
        assert SceneConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "path, key, message",
        [
            ((), "sed", "unknown scene config keys: sed;"),
            (("abundances",), "alpah", "unknown abundances keys: alpah;"),
            (("geometry",), "theta_rnage", "unknown geometry keys: theta_rnage;"),
            (("reference",), "phi0", "unknown reference keys: phi0;"),
        ],
    )
    def test_unknown_keys_rejected_by_name(self, path, key, message):
        raw = base_config().to_dict()
        node = raw
        for name in path:
            node = node[name]
        node[key] = 5
        with pytest.raises(ValueError, match=message):
            SceneConfig.from_dict(raw)

    def test_unknown_fixed_angle_key_rejected(self):
        config = base_config(geometry=GeometrySampler(kind="fixed"))
        raw = config.to_dict()
        raw["geometry"]["angles"]["thta"] = 10.0
        with pytest.raises(ValueError, match="unknown geometry.angles keys: thta;"):
            SceneConfig.from_dict(raw)

    def test_keys_of_the_other_geometry_kind_rejected(self):
        raw = base_config().to_dict()  # uniform geometry
        raw["geometry"]["angles"] = {"theta0": 10.0}
        with pytest.raises(ValueError, match="unknown geometry keys: angles;"):
            SceneConfig.from_dict(raw)

    def test_misspelled_geometry_kind_rejected(self):
        raw = base_config().to_dict()
        raw["geometry"]["kind"] = "unifrom"
        with pytest.raises(ValueError, match="unknown geometry sampler kind 'unifrom'"):
            SceneConfig.from_dict(raw)

    def test_nested_value_must_be_an_object(self):
        raw = base_config().to_dict()
        raw["reference"] = [45.0, 45.0, 0.0]
        with pytest.raises(ValueError, match="reference must be a JSON object"):
            SceneConfig.from_dict(raw)

    def test_fixed_geometry_dict_round_trip(self):
        config = base_config(
            geometry=GeometrySampler(kind="fixed", fixed=Geometry(theta0=30.0, theta=20.0, phi=10.0))
        )
        assert SceneConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "config, text",
        [
            (
                SceneConfig(
                    n_materials=3, n_pixels=10, model="full", abundances=AbundanceSampler(kind="dirichlet", alpha=0.3),
                    geometry=GeometrySampler(kind="fixed", fixed=Geometry(theta0=30.0, theta=12.5, phi=100.0)),
                    reference=Geometry(theta0=45.0, theta=45.0), snr_db=40.0, seed=7,
                ),
                '{"n_materials": 3, "n_pixels": 10, "model": "full", "abundances": {"kind": "dirichlet", '
                '"alpha": 0.3}, "reference": {"theta0": 45.0, "theta": 45.0, "phi": 0.0}, "snr_db": 40.0, '
                '"seed": 7, "geometry": {"kind": "fixed", "angles": {"theta0": 30.0, "theta": 12.5, "phi": 100.0}}}',
            ),
            (
                SceneConfig(
                    n_materials=4, n_pixels=1024,
                    geometry=GeometrySampler(kind="uniform", theta0_range=(0.0, 70.0), theta_range=(0, 70)),
                    reference=Geometry(theta0=np.float64(45), theta=45, phi=0), seed=3,
                ),
                '{"n_materials": 4, "n_pixels": 1024, "model": "linear", "abundances": {"kind": "uniform", '
                '"alpha": 1.0}, "reference": {"theta0": 45.0, "theta": 45.0, "phi": 0.0}, "snr_db": null, '
                '"seed": 3, "geometry": {"kind": "uniform", "theta0_range": [0.0, 70.0], '
                '"theta_range": [0.0, 70.0], "phi_range": [0.0, 180.0]}}',
            ),
        ],
        ids=["fixed", "uniform"],
    )
    def test_dict_json_text_is_stable(self, config, text):
        assert json.dumps(config.to_dict()) == text


class TestAbundanceSampler:
    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.0])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            AbundanceSampler(kind="dirichlet", alpha=alpha)


class TestSampleAbundances:
    def test_single_material_is_all_ones(self):
        config = base_config(n_materials=1, n_pixels=10)
        np.testing.assert_array_equal(sample_abundances(config), np.ones((1, 10)))

    def test_columns_on_simplex(self):
        config = base_config(n_pixels=1000)
        A = sample_abundances(config)
        assert np.all(A >= 0.0)
        np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-12)

    def test_uniform_simplex_mean_matches_one_over_p(self):
        # symmetric law: every material's mean abundance is 1/P
        config = base_config(n_pixels=1000)
        A = sample_abundances(config)
        np.testing.assert_allclose(A.mean(axis=1), 1.0 / 3.0, atol=0.02)

    def test_deterministic_given_seed(self):
        config = base_config(n_pixels=50)
        np.testing.assert_array_equal(sample_abundances(config), sample_abundances(config))

    def test_seed_changes_draws(self):
        a = sample_abundances(base_config(seed=1))
        b = sample_abundances(base_config(seed=2))
        assert not np.array_equal(a, b)

    def test_dirichlet_sparse_columns(self):
        config = base_config(
            n_pixels=500, abundances=AbundanceSampler(kind="dirichlet", alpha=0.08)
        )
        A = sample_abundances(config)
        np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-12)
        # low concentration piles mass on few materials
        assert np.mean(A.max(axis=0)) > 0.85


class TestSampleGeometries:
    def test_fixed_kind_repeats_its_geometry(self):
        fixed = Geometry(theta0=30.0, theta=20.0, phi=10.0)
        geoms = sample_geometries(base_config(n_pixels=5, geometry=GeometrySampler(kind="fixed", fixed=fixed)))
        assert isinstance(geoms, Geometry) and len(geoms) == 5
        for name in ("theta0", "theta", "phi", "mu0", "mu", "g"):
            np.testing.assert_array_equal(getattr(geoms, name), np.full(5, getattr(fixed, name)), err_msg=name)

    def test_uniform_angles_in_range_and_equal_to_per_pixel_geometry(self):
        config = base_config(n_pixels=300)
        geoms = sample_geometries(config)
        for name, (low, high) in (("theta0", (0.0, 69.0)), ("theta", (0.0, 69.0)), ("phi", (0.0, 180.0))):
            values = getattr(geoms, name)
            assert values.shape == (300,) and np.all((values >= low) & (values <= high))
        for n in range(config.n_pixels):
            oracle = pixel_geometry(geoms, n)
            for name in ("mu0", "mu", "g"):
                assert getattr(geoms, name)[n] == getattr(oracle, name), (n, name)


class TestSimulateCube:
    def test_reference_pixel_reproduces_reference_mixture(self):
        albedos = make_albedos()
        config = base_config(
            n_pixels=4,
            geometry=GeometrySampler(kind="fixed", fixed=Geometry(theta0=45.0, theta=45.0, phi=0.0)),
        )
        cube = simulate_cube(albedos, [None] * 3, config)
        S0 = cube.ground_truth.endmembers.values
        for n in range(cube.n_pixels):
            np.testing.assert_array_equal(
                cube.values[:, n], S0 @ cube.ground_truth.abundances[:, n]
            )
        np.testing.assert_array_equal(cube.ground_truth.scales, np.ones((3, 4)))

    def test_single_material_pixel_is_scaled_reference(self):
        albedos = make_albedos(n_materials=1)
        local = Geometry(theta0=10.0, theta=62.0, phi=45.0)
        config = base_config(
            n_materials=1,
            n_pixels=3,
            geometry=GeometrySampler(kind="fixed", fixed=local),
        )
        cube = simulate_cube(albedos, [None], config)
        psi = scaling_factor(config.reference, local)
        s0 = cube.ground_truth.endmembers.values[:, 0]
        for n in range(3):
            np.testing.assert_allclose(cube.values[:, n], psi * s0, rtol=1e-13)

    @pytest.mark.parametrize("model", ["linear", "relative", "lambertian"])
    def test_every_pixel_matches_bruteforce_recomputation(self, model):
        albedos = make_albedos()
        config = base_config(n_pixels=48, model=model)
        cube = simulate_cube(albedos, [None] * 3, config)
        A = cube.ground_truth.abundances
        for n in range(cube.n_pixels):
            geom = pixel_geometry(cube.geometries, n)
            variants = np.column_stack(
                [endmember_variant(albedo, geom, model) for albedo in albedos]
            )
            np.testing.assert_array_equal(cube.values[:, n], variants @ A[:, n])

    def test_full_model_cube_and_recomputation(self):
        albedos = make_albedos()
        params = [
            PhotometricParams(b=0.21, c=0.7, B0=0.9, h=0.08),
            PhotometricParams(b=0.4, c=0.4, B0=0.2, h=0.11),
            PhotometricParams(b=0.05, c=0.55, B0=0.0, h=0.2),
        ]
        config = base_config(n_pixels=16, model="full")
        cube = simulate_cube(albedos, params, config)
        assert cube.ground_truth.scales is None  # no exact scale ground truth
        A = cube.ground_truth.abundances
        for n in range(cube.n_pixels):
            geom = pixel_geometry(cube.geometries, n)
            variants = np.column_stack(
                [endmember_variant(a, geom, "full", p) for a, p in zip(albedos, params)]
            )
            np.testing.assert_allclose(cube.values[:, n], variants @ A[:, n], atol=1e-12)

    PARAMS = [PhotometricParams(b=0.3, c=0.6, B0=0.5, h=0.1), PhotometricParams(b=0.1, c=0.4, B0=0.0, h=0.2),
              PhotometricParams(b=0.5, c=0.7, B0=1.0, h=0.05)]

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("floats", [1, 7 * 12 * 3 + 5])  # blocks of one pixel, and of 7 (12 bands, 3 materials)
    def test_pixel_blocks_do_not_change_values(self, model, floats, monkeypatch):
        albedos = make_albedos()
        config = base_config(n_pixels=40, model=model, snr_db=30.0)
        whole = simulate_cube(albedos, self.PARAMS, config)
        monkeypatch.setattr(simulate, "_BLOCK_FLOATS", floats)
        chunked = simulate_cube(albedos, self.PARAMS, config)
        np.testing.assert_array_equal(chunked.values, whole.values)
        assert whole.values.flags.f_contiguous and chunked.values.flags.f_contiguous
        if model == "linear":
            np.testing.assert_array_equal(chunked.ground_truth.scales, whole.ground_truth.scales)

    def test_peak_memory_is_the_outputs_and_one_block_budget(self):
        # the kernel buffers are allocated once per call within _BLOCK_FLOATS, the spectra are written into the
        # cube's own values, and the cube keeps those values rather than a copy
        n_pixels, n_materials = 4096, 4
        albedos = make_albedos(n_materials=n_materials, n_bands=200)
        config = base_config(n_materials=n_materials, n_pixels=n_pixels, model="full")
        tracemalloc.start()
        try:
            cube = simulate_cube(albedos, [*self.PARAMS, self.PARAMS[0]], config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        truth, geometries = cube.ground_truth, cube.geometries
        outputs = sum(a.nbytes for a in (cube.values, truth.abundances, truth.endmembers.values)) + sum(
            getattr(geometries, name).nbytes for name in ("theta0", "theta", "phi", "mu0", "mu", "g"))
        # besides: one float per pixel and material twice, the sampler's draws behind the abundances (which the
        # ground truth keeps as they are) and the full model's phase-angle lobes
        assert peak <= outputs + 8 * (simulate._BLOCK_FLOATS + 2 * n_pixels * n_materials)

    @pytest.mark.parametrize("model", MODELS)
    def test_values_are_the_mix_of_per_material_kernel_calls_bit_for_bit(self, model):
        # each material's variants from its own reflectance call, stacked into the pixels' S_n and mixed
        albedos = make_albedos()
        cube = simulate_cube(albedos, self.PARAMS, base_config(n_pixels=40, model=model))
        geometries, A = cube.geometries, cube.ground_truth.abundances
        mu, mu0, g = geometries.mu[:, None], geometries.mu0[:, None], geometries.g[:, None]
        block = np.empty((40, 12, 3))
        for k, (albedo, params) in enumerate(zip(albedos, self.PARAMS)):
            block[:, :, k] = reflectance(model, albedo.omega, mu, mu0, g, params)
        expected = np.matmul(block, A.T[:, :, None])[:, :, 0].T
        assert cube.values.tobytes(order="F") == np.asfortranarray(expected).tobytes(order="F")

    @pytest.mark.parametrize(
        "sampler", [AbundanceSampler(kind="uniform"), AbundanceSampler(kind="dirichlet", alpha=0.3)]
    )
    def test_smaller_scene_is_prefix_of_larger(self, sampler):
        albedos = make_albedos()
        small, large = (
            simulate_cube(albedos, [None] * 3, base_config(n_pixels=n, abundances=sampler))
            for n in (17, 40)
        )
        np.testing.assert_array_equal(
            small.ground_truth.abundances, large.ground_truth.abundances[:, :17]
        )
        large_prefix = large.geometries
        assert_same_geometries(
            small.geometries,
            Geometry(large_prefix.theta0[:17], large_prefix.theta[:17], large_prefix.phi[:17]),
        )
        np.testing.assert_array_equal(small.values, large.values[:, :17])
        # the noise's standard normal draws are a prefix too; sigma follows
        # each cube's own signal power
        noisy_small, noisy_large = (inject_noise(cube, 20.0, seed=3) for cube in (small, large))
        standardized = [
            (noisy.values - cube.values) / math.sqrt(np.mean(cube.values**2) / 100.0)
            for noisy, cube in ((noisy_small, small), (noisy_large, large))
        ]
        np.testing.assert_allclose(standardized[0], standardized[1][:, :17], rtol=0, atol=1e-12)

    def test_linear_conservation_identity(self):
        albedos = make_albedos()
        config = base_config(n_pixels=200)
        cube = simulate_cube(albedos, [None] * 3, config)
        gt = cube.ground_truth
        reconstructed = gt.endmembers.values @ (gt.scales * gt.abundances)
        assert float(np.max(np.abs(cube.values - reconstructed))) < 1e-12

    def test_noiseless_pixels_lie_in_endmember_cone(self):
        # independent check: non-negative least squares feasibility via scipy
        albedos = make_albedos()
        config = base_config(n_pixels=40)
        cube = simulate_cube(albedos, [None] * 3, config)
        S0 = cube.ground_truth.endmembers.values
        for n in range(cube.n_pixels):
            _, residual = scipy.optimize.nnls(S0, cube.values[:, n])
            assert residual < 1e-9

    def test_bit_identical_for_same_seed(self):
        albedos = make_albedos()
        config = base_config(n_pixels=32, snr_db=20.0)
        first = simulate_cube(albedos, [None] * 3, config)
        second = simulate_cube(albedos, [None] * 3, config)
        np.testing.assert_array_equal(first.values, second.values)
        assert_same_geometries(first.geometries, second.geometries)

    def test_doubly_grazing_full_model_propagates(self):
        albedos = make_albedos()
        params = [PhotometricParams(b=0.2, c=0.5, B0=0.3, h=0.1)] * 3
        config = base_config(
            model="full",
            n_pixels=2,
            geometry=GeometrySampler(kind="fixed", fixed=Geometry(theta0=90.0, theta=90.0, phi=0.0)),
            reference=Geometry(theta0=0.0, theta=0.0, phi=0.0),
        )
        from specmix.hapke import ModelDomainError

        with pytest.raises(ModelDomainError):
            simulate_cube(albedos, params, config)

    def test_axis_mismatch_rejected(self):
        albedos = make_albedos()
        other_axis = WavelengthAxis(np.linspace(0.5, 2.6, 12))
        albedos[1] = AlbedoSpectrum(material="odd", omega=albedos[1].omega, axis=other_axis)
        with pytest.raises(ValueError, match="axis"):
            simulate_cube(albedos, [None] * 3, base_config(n_pixels=2))

    @pytest.mark.parametrize("n_albedos, n_params", [(3, 2), (3, 4), (2, 2)])
    def test_material_counts_checked_against_config(self, n_albedos, n_params):
        message = f"expected 3 albedos and photometric parameter sets, got {n_albedos} and {n_params}"
        with pytest.raises(ValueError, match=message):
            simulate_cube(make_albedos(n_albedos), [None] * n_params, base_config(n_pixels=2))


class TestInjectNoise:
    def make_cube(self, n_bands=200, n_pixels=10_000):
        albedos = make_albedos(n_materials=2, n_bands=n_bands)
        config = base_config(n_materials=2, n_pixels=n_pixels)
        return simulate_cube(albedos, [None] * 2, config)

    def test_realized_snr_within_half_decibel(self):
        cube = self.make_cube()
        noisy = inject_noise(cube, 30.0, seed=5)
        noise = noisy.values - cube.values
        realized = 10.0 * math.log10(
            float(np.sum(cube.values**2)) / float(np.sum(noise**2))
        )
        assert 29.5 <= realized <= 30.5

    def test_infinite_snr_disables_noise(self):
        cube = self.make_cube(n_bands=8, n_pixels=16)
        assert inject_noise(cube, math.inf, seed=5) is cube

    def test_same_seed_same_noise(self):
        cube = self.make_cube(n_bands=8, n_pixels=64)
        a = inject_noise(cube, 25.0, seed=11)
        b = inject_noise(cube, 25.0, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        c = inject_noise(cube, 25.0, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_noise_of_smaller_cube_is_prefix_of_larger(self):
        # a constant cube has the same signal power, so the same sigma, at any size
        axis = WavelengthAxis(np.linspace(0.4, 2.5, 9))
        small, large = (
            inject_noise(HyperCube(values=np.full((9, n), 0.5), axis=axis), 25.0, seed=4)
            for n in (17, 40)
        )
        np.testing.assert_array_equal(small.values, large.values[:, :17])

    def test_invalid_snr_rejected(self):
        cube = self.make_cube(n_bands=4, n_pixels=4)
        with pytest.raises(ValueError):
            inject_noise(cube, 0.0, seed=1)
