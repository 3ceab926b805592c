from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from specmix.core import (
    AlbedoSpectrum,
    EndmemberMatrix,
    Geometry,
    GroundTruth,
    HyperCube,
    PhotometricParams,
    UnmixResult,
    WavelengthAxis,
    _Unshared,
    check_config_keys,
    config_value,
    cos_deg,
    phase_angle_deg,
    pixel_major,
    validate_cube,
)
from specmix.metrics import AlbedoCurve, SweepGrid, SweepResult


def make_axis(n=3):
    return WavelengthAxis(np.linspace(0.4, 2.5, n))


@pytest.mark.parametrize("call, message", [
    (lambda: config_value([0.5, 1.0, 2.0], "psi_bounds", "pair"),
     "psi_bounds must be a list of two numbers, got a JSON array of 3 entries"),
    (lambda: config_value({"start": 0.4}, "wavelengths_um", "numbers"),
     "wavelengths_um must be a list of numbers, got a JSON object"),
    (lambda: config_value("true", "sum_to_one", "flag"), "sum_to_one must be true or false, got a JSON string"),
    (lambda: config_value([1.0] * 100_000, "alpha"), "alpha must be a number, got a JSON array of 100000 entries"),
    (lambda: config_value("", "data", "name"), "data must be a non-empty file name, got an empty string"),
    (lambda: check_config_keys([1.0] * 100_000, ["kind"], "geometry"),
     "geometry must be a JSON object, got a JSON array of 100000 entries"),
])
def test_value_of_the_wrong_json_type_is_described_not_echoed(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestWavelengthAxis:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            WavelengthAxis([0.4, 0.4, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WavelengthAxis([])

    def test_single_band_allowed(self):
        assert len(WavelengthAxis([1.0])) == 1

    def test_values_read_only(self):
        axis = make_axis()
        with pytest.raises(ValueError):
            axis.values[0] = 99.0


class TestAlbedoSpectrum:
    def test_range_enforced_not_clamped(self):
        with pytest.raises(ValueError, match="outside"):
            AlbedoSpectrum(material="m", omega=[0.1, 1.2, 0.3], axis=make_axis())
        with pytest.raises(ValueError, match="outside"):
            AlbedoSpectrum(material="m", omega=[-0.01, 0.2, 0.3], axis=make_axis())

    def test_length_must_match_axis(self):
        with pytest.raises(ValueError, match="does not match"):
            AlbedoSpectrum(material="m", omega=[0.1, 0.2], axis=make_axis())

    def test_boundary_values_allowed(self):
        spectrum = AlbedoSpectrum(material="m", omega=[0.0, 1.0, 0.5], axis=make_axis())
        assert spectrum.omega[1] == 1.0


class TestPhotometricParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(b=-0.1, c=0.5, B0=0.0, h=0.1),
            dict(b=1.1, c=0.5, B0=0.0, h=0.1),
            dict(b=0.5, c=1.5, B0=0.0, h=0.1),
            dict(b=0.5, c=0.5, B0=-1.0, h=0.1),
            dict(b=0.5, c=0.5, B0=0.0, h=0.0),
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            PhotometricParams(**kwargs)

    def test_specular_corner_allowed(self):
        params = PhotometricParams(b=1.0, c=1.0, B0=0.0, h=0.1)
        assert params.b == 1.0


class TestGeometry:
    def test_angle_ranges(self):
        with pytest.raises(ValueError):
            Geometry(theta0=-1.0, theta=0.0)
        with pytest.raises(ValueError):
            Geometry(theta0=0.0, theta=90.5)
        with pytest.raises(ValueError):
            Geometry(theta0=0.0, theta=0.0, phi=181.0)

    def test_raking_light_gives_exact_zero_cosine(self):
        geom = Geometry(theta0=90.0, theta=45.0)
        assert geom.mu0 == 0.0
        assert Geometry(theta0=0.0, theta=0.0).mu0 == 1.0

    def test_phase_angle_known_values(self):
        # coincident directions
        assert Geometry(theta0=45.0, theta=45.0, phi=0.0).g == pytest.approx(0.0, abs=1e-12)
        # opposed at the horizon
        assert Geometry(theta0=90.0, theta=90.0, phi=180.0).g == pytest.approx(180.0)
        # orthogonal: one at zenith-sun nadir view
        assert Geometry(theta0=90.0, theta=0.0, phi=0.0).g == pytest.approx(90.0)

    def test_phase_angle_always_in_range(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            theta0, theta = rng.uniform(0, 90, 2)
            phi = rng.uniform(0, 180)
            g = phase_angle_deg(theta0, theta, phi)
            assert 0.0 <= g <= 180.0

    def test_cos_deg_matches_cosine(self):
        angles = np.linspace(0.0, 90.0, 91)
        np.testing.assert_allclose(cos_deg(angles), np.cos(np.radians(angles)), atol=1e-15)

    def test_one_pixel_angles_and_derivations_are_floats(self):
        geom = Geometry(theta0=np.float64(30.0), theta=np.array(20.0), phi=10)
        for name in ("theta0", "theta", "phi", "mu0", "mu", "g"):
            assert type(getattr(geom, name)) is float, name
        assert len(geom) == 1

    def test_equal_geometries_compare_and_hash_equal(self):
        a = Geometry(theta0=30.0, theta=20.0, phi=10.0)
        b = Geometry(theta0=np.float64(30.0), theta=20, phi=np.array(10.0))
        assert a == b and hash(a) == hash(b)
        assert a != Geometry(theta0=30.0, theta=20.0, phi=11.0)

    def test_config_form_round_trips(self):
        geom = Geometry(theta0=30.0, theta=20.5, phi=10.0)
        assert geom.to_dict() == {"theta0": 30.0, "theta": 20.5, "phi": 10.0}
        assert Geometry.from_dict(geom.to_dict(), "reference") == geom
        assert Geometry.from_dict({"theta": 20.5}) == Geometry(theta0=0.0, theta=20.5, phi=0.0)

    @pytest.mark.parametrize("raw, where, message", [
        ({"theta": "5"}, "reference", "reference.theta must be a number, got a JSON string"),
        ({"theta": "5"}, "", "theta must be a number, got a JSON string"),
        ({"psi": 1.0}, "reference", "unknown reference keys: psi; expected theta0, theta, phi"),
        ([30.0], "geometry.angles", "geometry.angles must be a JSON object"),
        ({"phi": 200.0}, "reference", "phi must be in [0, 180] degrees, got 200.0"),
    ])
    def test_config_form_refused_by_key_path(self, raw, where, message):
        with pytest.raises(ValueError) as err:
            Geometry.from_dict(raw, where)
        assert str(err.value).startswith(message)


class TestGeometryArrays:
    def random_angles(self, n=2000, seed=5):
        rng = np.random.default_rng(seed)
        angles = rng.uniform([0.0, 0.0, 0.0], [90.0, 90.0, 180.0], (n, 3))
        # the range ends, where the cosines and the phase angle are exact
        ends = np.array([[0.0, 0.0, 0.0], [90.0, 90.0, 180.0], [90.0, 0.0, 0.0], [45.0, 45.0, 0.0]])
        return np.vstack([ends, angles])

    def test_every_pixel_equals_its_geometry(self):
        angles = self.random_angles()
        geoms = Geometry(theta0=angles[:, 0], theta=angles[:, 1], phi=angles[:, 2])
        assert len(geoms) == angles.shape[0]
        for n, (theta0, theta, phi) in enumerate(angles.tolist()):
            oracle = Geometry(theta0=theta0, theta=theta, phi=phi)
            # one formula for both, so g too is bit-identical, not merely within one ulp
            for name in ("theta0", "theta", "phi", "mu0", "mu", "g"):
                assert getattr(geoms, name)[n] == getattr(oracle, name), (n, name)

    def test_phase_angle_broadcasts_as_its_scalar_form(self):
        theta0, theta, phi = self.random_angles(n=500, seed=9).T
        g = phase_angle_deg(theta0, theta, phi)
        assert g.shape == theta0.shape
        expected = [float(phase_angle_deg(*cell)) for cell in zip(theta0.tolist(), theta.tolist(), phi.tolist())]
        np.testing.assert_array_equal(g, expected)
        assert phase_angle_deg(theta0[:, None], theta[None, :3], 0.0).shape == (504, 3)

    def test_arrays_are_read_only(self):
        geoms = Geometry(theta0=[10.0, 20.0], theta=[5.0, 6.0], phi=[0.0, 1.0])
        for name in ("theta0", "theta", "phi", "mu0", "mu", "g"):
            with pytest.raises(ValueError):
                getattr(geoms, name)[0] = 1.0

    @pytest.mark.parametrize(
        "name, bad, message",
        [
            ("theta0", np.nan, r"theta0 must be in \[0, 90\] degrees, got nan at pixel 2"),
            ("theta", 90.5, r"theta must be in \[0, 90\] degrees, got 90.5 at pixel 2"),
            ("phi", -1.0, r"phi must be in \[0, 180\] degrees, got -1.0 at pixel 2"),
            ("phi", np.inf, r"phi must be in \[0, 180\] degrees, got inf at pixel 2"),
        ],
    )
    def test_bad_angle_named_with_first_bad_pixel(self, name, bad, message):
        angles = {key: np.full(4, 10.0) for key in ("theta0", "theta", "phi")}
        angles[name][2:] = bad
        with pytest.raises(ValueError, match=message):
            Geometry(**angles)

    def test_shapes_validated(self):
        with pytest.raises(ValueError, match="lengths differ: 3, 2, 3"):
            Geometry(theta0=[1.0, 2.0, 3.0], theta=[1.0, 2.0], phi=[0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="theta must be 1-D"):
            Geometry(theta0=[1.0], theta=[[1.0]], phi=[0.0])


class TestHyperCube:
    # 517 pixels: two whole copy blocks of pixel_major and a partial one
    VALUES = np.random.default_rng(9).uniform(0.0, 0.8, (5, 517))

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(VALUES, id="c-order"),
            pytest.param(np.asfortranarray(VALUES), id="f-order"),
            pytest.param(VALUES.astype(np.float32), id="float32"),
            pytest.param(VALUES.tolist(), id="list"),
            pytest.param(np.repeat(VALUES, 2, axis=1)[:, ::2], id="strided"),
        ],
    )
    def test_values_stored_pixel_major_and_bit_equal(self, source):
        cube = HyperCube(values=source, axis=make_axis(5))
        assert cube.values.flags.f_contiguous and not cube.values.flags.writeable
        assert cube.values.dtype == np.float64
        expected = np.asarray(source, dtype=np.float64)
        assert cube.values.tobytes(order="C") == expected.tobytes(order="C")
        assert not np.shares_memory(cube.values, source)

    def test_pixel_major_input_kept_without_copy(self):
        values = np.asfortranarray(self.VALUES)
        assert pixel_major(values, copy=False) is values
        assert pixel_major(self.VALUES, copy=False).flags.f_contiguous

    def test_pixel_major_array_over_bytes_kept_only_as_unshared(self):
        data = self.VALUES.tobytes(order="F")
        over_bytes = np.frombuffer(data).reshape(self.VALUES.shape, order="F")
        cube = HyperCube(values=over_bytes.view(_Unshared), axis=make_axis(5))
        assert np.shares_memory(cube.values, over_bytes) and not cube.values.flags.writeable
        # a plain array is copied, even a read-only pixel-major float64 one over immutable bytes; so are
        # writable, band-major or float32 arrays
        for source in (
            over_bytes,
            np.frombuffer(bytearray(data)).reshape(self.VALUES.shape, order="F"),
            np.frombuffer(self.VALUES.tobytes()).reshape(self.VALUES.shape),
            np.frombuffer(self.VALUES.astype(np.float32).tobytes(order="F"), dtype=np.float32).reshape(
                self.VALUES.shape, order="F"),
        ):
            cube = HyperCube(values=source, axis=make_axis(5))
            assert not np.shares_memory(cube.values, source)
            assert np.array_equal(cube.values, source) and cube.values.flags.f_contiguous

    def test_values_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="cube values must be 2-D"):
            HyperCube(values=np.zeros(3), axis=make_axis(3))


class TestValidateCube:
    def make_cube(self, values, n_geoms=None):
        axis = make_axis(values.shape[0])
        geometries = None
        if n_geoms is not None:
            k = np.arange(n_geoms)
            geometries = Geometry(theta0=10.0 * k % 90, theta=np.full(n_geoms, 5.0), phi=np.zeros(n_geoms))
        return HyperCube(values=values, axis=axis, geometries=geometries)

    def test_well_formed_cube_is_clean(self):
        cube = self.make_cube(np.full((3, 2), 0.25), n_geoms=2)
        assert validate_cube(cube) == []

    def test_negative_reflectance_reported_with_location(self):
        values = np.full((3, 2), 0.25)
        values[2, 1] = -0.5
        report = validate_cube(self.make_cube(values))
        assert len(report) == 1
        assert "band 2" in report[0] and "pixel 1" in report[0]

    def test_geometry_count_mismatch_refused_at_construction(self):
        with pytest.raises(ValueError, match=r"^geometry count 5 does not match pixel count 4$"):
            self.make_cube(np.full((3, 4), 0.25), n_geoms=5)

    def test_ground_truth_shape_mismatch_refused_at_construction(self):
        gt = GroundTruth(abundances=np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match=r"^ground-truth abundances have 3 pixels, cube has 4$"):
            HyperCube(values=np.full((3, 4), 0.2), axis=make_axis(3), ground_truth=gt)
        with pytest.raises(ValueError, match=r"^ground-truth scales shape \(2, 4\) does not match abundances"):
            GroundTruth(abundances=np.full((2, 3), 0.5), scales=np.ones((2, 4)))
        three = EndmemberMatrix(values=np.full((3, 3), 0.5), materials=("a", "b", "c"))
        with pytest.raises(ValueError, match=r"^ground-truth endmembers have 3 materials, abundances have 2$"):
            GroundTruth(abundances=np.full((2, 4), 0.5), endmembers=three)
        gt = GroundTruth(abundances=np.full((3, 4), 1 / 3), endmembers=three)
        with pytest.raises(ValueError, match=r"^ground-truth endmembers have 3 bands, cube has 5$"):
            HyperCube(values=np.full((5, 4), 0.2), axis=make_axis(5), ground_truth=gt)

    def test_band_count_mismatch_refused_at_construction(self):
        with pytest.raises(ValueError, match=r"^band count 3 does not match wavelength axis length 4$"):
            HyperCube(values=np.full((3, 2), 0.2), axis=make_axis(4))


class TestEndmemberMatrix:
    def test_labels_must_match_columns(self):
        with pytest.raises(ValueError):
            EndmemberMatrix(values=np.ones((4, 2)), materials=("a",))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EndmemberMatrix(values=-np.ones((4, 2)), materials=("a", "b"))


class TestUnmixResult:
    def make(self, A, psi, sum_to_one=True):
        n = A.shape[1]
        return UnmixResult(
            abundances=A,
            scales=psi,
            residual_rmse=np.zeros(n),
            degenerate=np.zeros(n, dtype=bool),
            sum_to_one=sum_to_one,
        )

    def test_column_sums_checked_when_sum_to_one(self):
        A = np.array([[0.6, 0.3], [0.5, 0.7]])
        with pytest.raises(ValueError, match="sum to 1"):
            self.make(A, np.ones_like(A))

    def test_negative_abundance_rejected(self):
        A = np.array([[1.2], [-0.2]])
        with pytest.raises(ValueError, match="non-negative"):
            self.make(A, np.ones_like(A))

    def test_nonpositive_scale_rejected(self):
        A = np.array([[0.5], [0.5]])
        with pytest.raises(ValueError, match="positive"):
            self.make(A, np.zeros_like(A))

    @pytest.mark.parametrize("field", ["abundances", "scales", "residual_rmse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_by_field_and_first_pixel(self, field, bad):
        # NaN passes the sign and sum checks, so only a finiteness check stops it
        outputs = {"abundances": np.full((2, 4), 0.5), "scales": np.ones((2, 4)), "residual_rmse": np.zeros(4)}
        outputs[field][..., 2] = bad
        outputs[field][..., 3] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite; pixel 2 is not"):
            UnmixResult(**outputs, degenerate=np.zeros(4, dtype=bool))

    def test_unshared_arrays_kept_read_only_and_plain_arrays_copied(self):
        sources = {"abundances": np.full((2, 3), 0.5), "scales": np.ones((2, 3)), "residual_rmse": np.zeros(3),
                   "degenerate": np.zeros(3, dtype=bool)}
        kept = UnmixResult(**{name: values.view(_Unshared) for name, values in sources.items()})
        copied = UnmixResult(**sources)
        for name, values in sources.items():
            for result in (kept, copied):
                assert type(getattr(result, name)) is np.ndarray and not getattr(result, name).flags.writeable
            assert np.shares_memory(getattr(kept, name), values)
            assert not np.shares_memory(getattr(copied, name), values)
        # the caller keeps writing to its plain arrays; the copies do not move
        for values in sources.values():
            values[...] = 7
        assert np.all(copied.abundances == 0.5) and np.all(copied.scales == 1.0)
        assert np.all(copied.residual_rmse == 0.0) and not copied.degenerate.any()

    def test_unshared_arrays_are_still_validated(self):
        A = np.array([[1.2], [-0.2]]).view(_Unshared)
        with pytest.raises(ValueError, match="non-negative"):
            self.make(A, np.ones((2, 1)).view(_Unshared))
        with pytest.raises(ValueError, match="abundances must be 2-D"):
            self.make(np.full((1, 1, 1), 1.0).view(_Unshared), np.ones((1, 1, 1)))

    def test_sum_free_mode_skips_sum_check(self):
        A = np.array([[0.6], [0.9]])
        result = self.make(A, np.ones_like(A), sum_to_one=False)
        assert result.n_materials == 2


#: Every type that stores arrays, as (build, its array fields' values): build(**values) makes an instance.
#: Each 2-D value is pixel-major float64, so HyperCube too may keep it as handed over.
_GRID = SweepGrid(theta0_values=np.arange(3.0), theta_values=np.arange(4.0))
_ARRAY_TYPES = {
    "WavelengthAxis": (WavelengthAxis, {"values": np.linspace(0.4, 2.5, 5)}),
    "AlbedoSpectrum": (partial(AlbedoSpectrum, "basalt", axis=make_axis(5)), {"omega": np.linspace(0.1, 0.5, 5)}),
    "Geometry": (Geometry, {"theta0": np.full(4, 30.0), "theta": np.arange(4.0), "phi": np.zeros(4)}),
    "EndmemberMatrix": (partial(EndmemberMatrix, materials=("a", "b")),
                        {"values": np.asfortranarray(np.linspace(0.1, 0.8, 10).reshape(5, 2))}),
    "GroundTruth": (GroundTruth, {"abundances": np.full((2, 4), 0.5, order="F"), "scales": np.ones((2, 4), order="F")}),
    "HyperCube": (partial(HyperCube, axis=make_axis(5)), {"values": np.full((5, 4), 0.2, order="F")}),
    "UnmixResult": (UnmixResult, {"abundances": np.full((2, 4), 0.5, order="F"), "scales": np.ones((2, 4), order="F"),
                                  "residual_rmse": np.zeros(4), "degenerate": np.zeros(4, dtype=bool)}),
    "SweepGrid": (SweepGrid, {"theta0_values": np.arange(3.0), "theta_values": np.arange(4.0)}),
    "SweepResult": (partial(SweepResult, _GRID), {"sam": np.zeros((3, 4), order="F"), "rmse": np.ones((3, 4), order="F"),
                                                  "valid": np.ones((3, 4), dtype=bool, order="F")}),
    "AlbedoCurve": (partial(AlbedoCurve, "relative", Geometry(30.0, 20.0)), {"omega": np.linspace(0.0, 1.0, 5)}),
}


@pytest.mark.parametrize("kind", _ARRAY_TYPES)
def test_every_type_keeps_an_array_only_when_handed_over_as_unshared(kind):
    build, sources = _ARRAY_TYPES[kind]
    # the same values over an immutable bytes object, as np.frombuffer reads a file
    over_bytes = {name: np.frombuffer(values.tobytes(order="F"), dtype=values.dtype).reshape(values.shape, order="F")
                  for name, values in sources.items()}
    handed = {"plain": sources, "over bytes": over_bytes, "unshared": {
        name: values.view(_Unshared) for name, values in over_bytes.items()}}
    for how, given in handed.items():
        instance = build(**given)
        for name, values in given.items():
            assert np.array_equal(getattr(instance, name), values)
            assert np.shares_memory(getattr(instance, name), values) == (how == "unshared"), (how, name)
        arrays = [getattr(instance, f.name) for f in fields(instance)]
        arrays = [arr for arr in arrays if isinstance(arr, np.ndarray)]
        assert len(arrays) >= len(sources)
        for arr in arrays:
            assert type(arr) is np.ndarray and not arr.flags.writeable, how
