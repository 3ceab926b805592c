import csv
import json
import re
import tracemalloc

import numpy as np
import pytest

from specmix import io
from specmix.core import (
    AlbedoSpectrum,
    EndmemberMatrix,
    Geometry,
    GroundTruth,
    HyperCube,
    PhotometricParams,
    WavelengthAxis,
)
from specmix.metrics import SweepGrid, SweepResult, angle_sweep


@pytest.fixture
def axis():
    return WavelengthAxis(np.linspace(0.43, 2.41, 7))


@pytest.fixture
def albedos(axis):
    rng = np.random.default_rng(42)
    return [
        AlbedoSpectrum(material=name, omega=rng.uniform(0.0, 1.0, len(axis)), axis=axis)
        for name in ("basalt", "palagonite", "tephra")
    ]


class TestSpectraCsv:
    def test_albedo_round_trip_is_exact(self, tmp_path, albedos):
        path = tmp_path / "albedos.csv"
        io.write_albedos(path, albedos)
        loaded = io.read_albedos(path)
        assert [a.material for a in loaded] == [a.material for a in albedos]
        for before, after in zip(albedos, loaded):
            np.testing.assert_array_equal(after.omega, before.omega)
            np.testing.assert_array_equal(after.axis.values, before.axis.values)

    def test_endmember_round_trip_preserves_values_above_one(self, tmp_path, axis):
        # reflectances may exceed 1 (the omega=1 normalizer reaches 9/8)
        matrix = EndmemberMatrix(
            values=np.array([[1.125, 0.2]] * len(axis)), materials=("bright", "dark")
        )
        path = tmp_path / "endmembers.csv"
        io.write_endmembers(path, axis, matrix)
        loaded_axis, loaded = io.read_endmembers(path)
        np.testing.assert_array_equal(loaded.values, matrix.values)
        np.testing.assert_array_equal(loaded_axis.values, axis.values)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,m\n0.4,0.1\n")
        with pytest.raises(ValueError, match="header"):
            io.read_albedos(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength,m\n0.4,0.1,0.9\n")
        with pytest.raises(ValueError, match="columns"):
            io.read_albedos(path)

    @pytest.mark.parametrize(
        "reader, rows, message",
        [
            ("albedos", ["0.4,0.1,0.2", "0.5,abc,0.2"], ":3: column 2 (basalt): could not convert string to float: 'abc'"),
            ("endmembers", ["0.4,0.1,", "0.5,0.1,0.2"], ":2: column 3 (tephra): could not convert string to float: ''"),
            ("albedos", ["0.4,0.1,0.2", "x,0.1,0.2"], ":3: column 1 (wavelength): could not convert string to float: 'x'"),
            ("albedos", ["0.4,0.1,0.2", "0.5,0.1,nan"], ": albedo of 'tephra' outside [0, 1] at band 1 (value=nan)"),
            ("endmembers", ["0.4,0.1,0.2", "0.5,0.1,-0.3"], ": endmember 'tephra' is negative at band 1 (value=-0.3)"),
            ("endmembers", ["0.4,0.1,0.2", "0.5,inf,0.2"], ": endmember 'basalt' is not finite at band 1 (value=inf)"),
            ("endmembers", ["0.5,0.1,0.2", "0.4,0.1,0.2"], ": wavelengths must be strictly increasing"),
        ],
        ids=["text-cell", "empty-cell", "text-wavelength", "nan-albedo", "negative-endmember", "inf-endmember",
             "decreasing-wavelengths"],
    )
    def test_bad_cell_refused_by_file_and_place(self, tmp_path, reader, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["wavelength,basalt,tephra", *rows, ""]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}$"):
            getattr(io, f"read_{reader}")(path)


class TestPhotometryJson:
    def test_single_object_round_trip(self, tmp_path):
        params = PhotometricParams(b=0.23456789012345678, c=0.5, B0=1.75, h=0.061)
        path = tmp_path / "photo.json"
        io.write_photometry(path, params)
        loaded = io.read_photometry(path, ["basalt"])
        assert isinstance(loaded[0], PhotometricParams)
        assert loaded == [params]

    def test_mapping_round_trip(self, tmp_path):
        mapping = {
            "basalt": PhotometricParams(b=0.21, c=0.7, B0=0.9, h=0.08),
            "tephra": PhotometricParams(b=0.35, c=0.4, B0=0.3, h=0.05),
        }
        path = tmp_path / "photo.json"
        io.write_photometry(path, mapping)
        loaded = io.read_photometry(path, list(mapping))
        assert loaded == list(mapping.values())

    def test_resolves_one_params_per_material_in_material_order(self, tmp_path):
        single, other = PhotometricParams(b=0.1, c=0.5, B0=0.0, h=0.1), PhotometricParams(b=0.3, c=0.6, B0=0.5, h=0.2)
        path = tmp_path / "photo.json"
        io.write_photometry(path, single)
        assert io.read_photometry(path, ["x", "y"]) == [single, single]
        io.write_photometry(path, {"x": single, "y": other, "unused": other})
        assert io.read_photometry(path, ["y", "x"]) == [other, single]
        with pytest.raises(ValueError, match=r"photo.json: photometry missing for materials: z$"):
            io.read_photometry(path, ["x", "z"])

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("b", "0.1", r"photo.json\[basalt\]: b must be a number, got a JSON string"),
            ("h", None, r"photo.json\[basalt\]: h must be a number, got a JSON null"),
            ("c", 10**400, r"photo.json\[basalt\]: photometric parameter c must be finite"),
        ],
        ids=["string", "null", "int-1e400"],
    )
    def test_value_of_wrong_json_type_named(self, tmp_path, key, value, message):
        path = tmp_path / "photo.json"
        path.write_text(json.dumps({"basalt": {"b": 0.1, "c": 0.5, "B0": 0.0, "h": 0.1, key: value}}))
        with pytest.raises(ValueError, match=message):
            io.read_photometry(path, ["basalt"])

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "photo.json"
        path.write_text(json.dumps({"b": 0.1, "c": 0.5, "B0": 0.0}))
        with pytest.raises(ValueError, match="expected keys"):
            io.read_photometry(path, ["basalt"])

    def test_unknown_key_of_a_material_named_with_its_material(self, tmp_path):
        path = tmp_path / "photo.json"
        path.write_text(json.dumps({"basalt": {"b": 0.1, "c": 0.5, "B0": 0.0, "h": 0.1, "hh": 0.2}}))
        with pytest.raises(ValueError, match=r"unknown .*photo.json\[basalt\] keys: hh; expected b, c, B0, h"):
            io.read_photometry(path, ["basalt"])

    def test_typo_in_a_shared_object_names_the_key_not_a_material(self, tmp_path):
        path = tmp_path / "photo.json"
        path.write_text(json.dumps({"b": 0.1, "c": 0.5, "B0": 0.0, "hh": 0.1}))
        with pytest.raises(ValueError, match=r"unknown .*photo.json keys: hh; expected b, c, B0, h") as raised:
            io.read_photometry(path, ["basalt"])
        assert "[" not in str(raised.value)


class TestCubeFiles:
    def make_cube(self, axis, with_gt=True):
        rng = np.random.default_rng(3)
        n_pixels = 5
        values = rng.uniform(0.0, 0.8, (len(axis), n_pixels))
        angles = np.array(
            [[rng.uniform(0, 90), rng.uniform(0, 90), rng.uniform(0, 180)] for _ in range(n_pixels)]
        )
        geometries = Geometry(theta0=angles[:, 0], theta=angles[:, 1], phi=angles[:, 2])
        ground_truth = None
        if with_gt:
            abundances = rng.dirichlet(np.ones(2), n_pixels).T
            scales = rng.uniform(0.5, 2.0, (2, n_pixels))
            endmembers = EndmemberMatrix(
                values=rng.uniform(0.0, 1.0, (len(axis), 2)), materials=("a", "b")
            )
            ground_truth = GroundTruth(abundances=abundances, scales=scales, endmembers=endmembers)
        return HyperCube(values=values, axis=axis, geometries=geometries, ground_truth=ground_truth)

    def test_round_trip_bit_exact(self, tmp_path, axis):
        cube = self.make_cube(axis)
        sidecar = io.write_cube(tmp_path / "scene", cube, meta={"model": "linear", "seed": 9})
        loaded = io.read_cube(sidecar)
        np.testing.assert_array_equal(loaded.values, cube.values)
        np.testing.assert_array_equal(loaded.axis.values, cube.axis.values)
        for n in range(cube.n_pixels):
            # the per-pixel Geometry oracle, built from each side's angles
            written, read = (
                Geometry(theta0=geoms.theta0[n], theta=geoms.theta[n], phi=geoms.phi[n])
                for geoms in (cube.geometries, loaded.geometries)
            )
            assert read == written
        for name in ("theta0", "theta", "phi", "mu0", "mu", "g"):
            np.testing.assert_array_equal(getattr(loaded.geometries, name), getattr(cube.geometries, name))
        np.testing.assert_array_equal(loaded.ground_truth.abundances, cube.ground_truth.abundances)
        np.testing.assert_array_equal(loaded.ground_truth.scales, cube.ground_truth.scales)
        np.testing.assert_array_equal(
            loaded.ground_truth.endmembers.values, cube.ground_truth.endmembers.values
        )
        assert io.read_json(sidecar)["model"] == "linear"

    def test_round_trip_without_optionals(self, tmp_path, axis):
        cube = HyperCube(values=np.full((len(axis), 2), 0.1), axis=axis)
        sidecar = io.write_cube(tmp_path / "bare", cube)
        loaded = io.read_cube(sidecar)
        assert loaded.geometries is None
        assert loaded.ground_truth is None
        np.testing.assert_array_equal(loaded.values, cube.values)

    @pytest.mark.parametrize("bands, materials, message", [
        (2, 2, "ground-truth endmembers have 2 bands, cube has 7"),
        (None, 3, "ground-truth endmembers have 3 materials, abundances have 2"),
    ])
    def test_endmembers_of_another_size_refused_naming_the_sidecar(self, tmp_path, axis, bands, materials, message):
        sidecar = io.write_cube(tmp_path / "cube", self.make_cube(axis))
        short = WavelengthAxis(axis.values[:bands])
        io.write_spectra_table(tmp_path / "cube.endmembers.csv", short, list("abc"[:materials]),
                               np.full((len(short), materials), 0.5))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(sidecar))}: {message}$"):
            io.read_cube(sidecar)

    def test_column_major_layout_on_disk(self, tmp_path, axis):
        cube = self.make_cube(axis, with_gt=False)
        io.write_cube(tmp_path / "order", cube)
        raw = np.frombuffer((tmp_path / "order.bin").read_bytes(), dtype="<f8")
        # first pixel's spectrum is contiguous
        np.testing.assert_array_equal(raw[: len(axis)], cube.values[:, 0])
        # a cube built band-major (C order) is written column-major all the same
        values = np.random.default_rng(4).uniform(0.0, 0.8, (len(axis), 300))
        io.write_cube(tmp_path / "band_major", HyperCube(values=values, axis=axis))
        assert (tmp_path / "band_major.bin").read_bytes() == values.tobytes(order="F")

    def test_geometries_side_file_is_column_major_angles(self, tmp_path, axis):
        cube = self.make_cube(axis, with_gt=False)
        sidecar = io.write_cube(tmp_path / "scene", cube)
        assert json.loads(sidecar.read_text())["geometries"] == "scene.geom.bin"
        raw = np.frombuffer((tmp_path / "scene.geom.bin").read_bytes(), dtype="<f8")
        geoms = cube.geometries
        np.testing.assert_array_equal(raw, np.concatenate([geoms.theta0, geoms.theta, geoms.phi]))

    def test_sidecar_holds_no_pixel_list(self, tmp_path, axis):
        n_pixels = 1024
        rng = np.random.default_rng(8)
        angles = rng.uniform(0.0, [90.0, 90.0, 180.0], (n_pixels, 3))
        cube = HyperCube(
            values=rng.uniform(0.0, 0.8, (len(axis), n_pixels)),
            axis=axis,
            geometries=Geometry(theta0=angles[:, 0], theta=angles[:, 1], phi=angles[:, 2]),
            ground_truth=GroundTruth(abundances=rng.dirichlet(np.ones(2), n_pixels).T),
        )
        sidecar = json.loads(io.write_cube(tmp_path / "big", cube).read_text())

        def has_pixel_list(node):
            if isinstance(node, dict):
                return any(has_pixel_list(v) for v in node.values())
            if isinstance(node, list):
                return len(node) == n_pixels or any(has_pixel_list(v) for v in node)
            return False

        assert not has_pixel_list(sidecar)

    def test_per_pixel_geometry_list_rejected_by_name(self, tmp_path, axis):
        cube = self.make_cube(axis, with_gt=False)
        sidecar = io.write_cube(tmp_path / "old", cube)
        meta = json.loads(sidecar.read_text())
        meta["geometries"] = [
            {"theta0": t0, "theta": t, "phi": p}
            for t0, t, p in zip(cube.geometries.theta0, cube.geometries.theta, cube.geometries.phi)
        ]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="geometries must be a non-empty file name, got a JSON array"):
            io.read_cube(sidecar)

    def test_geometries_file_of_wrong_size_named(self, tmp_path, axis):
        cube = self.make_cube(axis, with_gt=False)
        sidecar = io.write_cube(tmp_path / "short", cube)
        path = tmp_path / "short.geom.bin"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match=r"short\.geom\.bin: expected 15 values, found 14"):
            io.read_cube(sidecar)

    @pytest.mark.parametrize("column, name, value", [(1, "theta", np.nan), (2, "phi", 270.0)])
    def test_bad_angle_in_geometries_file_named_with_pixel(self, tmp_path, axis, column, name, value):
        cube = self.make_cube(axis, with_gt=False)
        sidecar = io.write_cube(tmp_path / "bad", cube)
        path = tmp_path / "bad.geom.bin"
        angles = np.frombuffer(path.read_bytes(), dtype="<f8").reshape((5, 3), order="F").copy()
        angles[3, column] = value
        path.write_bytes(angles.tobytes(order="F"))
        with pytest.raises(ValueError, match=rf"bad\.geom\.bin: {name} must be in .* got {value} at pixel 3"):
            io.read_cube(sidecar)

    def test_read_cube_holds_the_values_once(self, tmp_path):
        bands, pixels = 200, 50_000  # 80 MB of values
        cube = HyperCube(values=np.random.default_rng(5).uniform(0.0, 0.8, (bands, pixels)),
                         axis=WavelengthAxis(np.linspace(0.4, 2.5, bands)))
        sidecar = io.write_cube(tmp_path / "big", cube)
        tracemalloc.start()
        try:
            loaded = io.read_cube(sidecar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * cube.values.nbytes  # the file's bytes are the cube's memory, not copied again
        assert np.array_equal(loaded.values, cube.values) and not loaded.values.flags.writeable

    def test_read_cube_holds_ground_truth_and_angles_once(self, tmp_path):
        rng = np.random.default_rng(7)
        materials, pixels, bands = 8, 50_000, 10
        angles = (rng.uniform(0.0, 80.0, pixels), rng.uniform(0.0, 80.0, pixels), rng.uniform(0.0, 180.0, pixels))
        cube = HyperCube(values=rng.uniform(0.0, 0.8, (bands, pixels)),
                         axis=WavelengthAxis(np.linspace(0.4, 2.5, bands)),
                         geometries=Geometry(*angles),
                         ground_truth=GroundTruth(abundances=rng.dirichlet(np.ones(materials), pixels).T,
                                                  scales=rng.uniform(0.5, 2.0, (materials, pixels))))
        sidecar = io.write_cube(tmp_path / "big", cube)
        file_bytes = sum(path.stat().st_size for path in io.cube_files(sidecar))
        tracemalloc.start()
        try:
            loaded = io.read_cube(sidecar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        derived = 3 * 8 * pixels  # mu0, mu and g, computed from the angles
        assert peak < 1.05 * (file_bytes + derived)  # each file's bytes held once, none copied again
        gt, geoms = loaded.ground_truth, loaded.geometries
        for got, want in ((gt.abundances, cube.ground_truth.abundances), (gt.scales, cube.ground_truth.scales),
                          *zip((geoms.theta0, geoms.theta, geoms.phi), angles)):
            assert np.array_equal(got, want) and not got.flags.writeable

    def test_size_mismatch_detected(self, tmp_path, axis):
        cube = self.make_cube(axis, with_gt=False)
        sidecar = io.write_cube(tmp_path / "broken", cube)
        meta = json.loads(sidecar.read_text())
        meta["pixels"] = 99
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="expected"):
            io.read_cube(sidecar)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"dtype": "<f4"}, r"dtype must be '<f8', got '<f4'"),
            ({"order": "row-major"}, r"order must be 'column-major', got 'row-major'"),
            ({"bands": None}, r": missing keys bands; expected keys bands, pixels,"),
            ({"bands": -1}, r": bands must be >= 0, got -1$"),
            ({"pixels": -3}, r": pixels must be >= 0, got -3$"),
            ({"pixels": 2.5}, r": pixels must be a whole number, got 2.5$"),
            ({"pixels": 0}, r": pixels must be >= 1, got 0$"),
            ({"ground_truth": {"abundances": "x.gt_a.bin"}}, r": ground_truth: missing keys materials; expected keys materials, abundances$"),
            ({"ground_truth": {"materials": -2, "abundances": "x.gt_a.bin"}},
             r": ground_truth.materials must be >= 0, got -2$"),
            ({"data": 5}, r": data must be a non-empty file name, got a JSON number$"),
            ({"geometries": 5}, r": geometries must be a non-empty file name, got a JSON number$"),
            ({"ground_truth": {"materials": 2, "abundances": 3, "scales": "cube.gt_psi.bin"}},
             r": ground_truth.abundances must be a non-empty file name, got a JSON number$"),
            ({"ground_truth": {"materials": -2, "abundances": None, "scales": "x.bin"}},
             r": ground_truth.abundances must be a non-empty file name, got a JSON null$"),
            ({"ground_truth": {"materials": 2, "abundances": "cube.gt_a.bin", "scales": 3}},
             r": ground_truth.scales must be a non-empty file name, got a JSON number$"),
            ({"endmembers": 7}, r": endmembers must be a non-empty file name, got a JSON number$"),
            ({"wavelengths_um": "abc"}, r": wavelengths_um must be a list of numbers, got a JSON string$"),
            ({"wavelengths_um": np.linspace(0.43, 2.41, 7).tolist()[:-1]},
             r": wavelengths_um holds 6 values, bands is 7$"),
            ({"ground_truth": [0.5] * 100_000},
             r": ground_truth must be a JSON object, got a JSON array of 100000 entries$"),
        ],
        ids=["dtype", "order", "no-bands", "negative-bands", "negative-pixels", "fractional-pixels", "zero-pixels",
             "no-materials", "negative-materials", "numeric-data", "numeric-geometries", "numeric-abundances",
             "null-abundances", "numeric-scales", "numeric-endmembers", "text-wavelengths", "short-wavelengths",
             "listed-ground-truth"],
    )
    def test_unreadable_sidecar_refused_by_key_before_any_data_is_read(self, tmp_path, axis, edit, message):
        sidecar = io.write_cube(tmp_path / "cube", self.make_cube(axis))
        for path in io.cube_files(sidecar):
            path.unlink()  # a read of any data file would fail by its path
        meta = {**json.loads(sidecar.read_text()), **edit}
        sidecar.write_text(json.dumps({key: value for key, value in meta.items() if value is not None}))
        with pytest.raises(ValueError, match=message):
            io.read_cube(sidecar)


def reference_csv(path, header, rows):
    """The per-cell csv.writer + repr writer the text outputs must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(value)) for value in row])
    return path.read_bytes()


def assert_sweep_csv_matches_reference(tmp_path, result):
    io.write_sweep_csv(tmp_path / "sweep.csv", result)
    grid = result.grid
    rows = [(t0, t, result.sam[i, j], result.rmse[i, j])
            for i, t0 in enumerate(grid.theta0_values) for j, t in enumerate(grid.theta_values)]
    expected = reference_csv(tmp_path / "ref.csv", ["theta0", "theta", "sam_rad", "rmse"], rows)
    assert (tmp_path / "sweep.csv").read_bytes() == expected


def bit_symmetric(values):
    return np.array_equal(values.view(np.int64), values.view(np.int64).T)


class TestNumericCsvBytes:
    @pytest.mark.parametrize("step", [0.5, 1.0 / 3.0])
    def test_sweep_csv_matches_reference(self, tmp_path, albedos, step):
        angles = np.arange(0.0, 90.0 + step / 2, step)
        angles = np.append(angles[:40:3], angles[-2:])  # 90 is last: a skipped, NaN cell
        grid = SweepGrid(theta0_values=angles, theta_values=angles[::-1], model_pair=("lambertian", "linear"))
        result = angle_sweep(albedos[0], grid)
        assert result.n_skipped == 1 and np.isnan(result.sam[-1, 0])
        assert_sweep_csv_matches_reference(tmp_path, result)

    def test_sweep_csv_of_hand_built_result(self, tmp_path):
        grid = SweepGrid(theta0_values=[0.1, 89.99999999999999], theta_values=[1e-300, 45.0, 90.0])
        sam = np.array([[0.0, 5e-324, np.nan], [1.5707963267948966, 1e-17, 0.30000000000000004]])
        err = np.array([[2.0, np.nan, 1e300], [0.1, 123456.789, 7e-310]])
        assert_sweep_csv_matches_reference(tmp_path, SweepResult(grid=grid, sam=sam, rmse=err, valid=~np.isnan(sam)))

    def test_sweep_csv_of_default_square_grid(self, tmp_path, albedos):
        result = angle_sweep(albedos[0], SweepGrid())
        assert result.sam.shape == (91, 91) and bit_symmetric(result.sam) and bit_symmetric(result.rmse)
        assert_sweep_csv_matches_reference(tmp_path, result)

    def test_sweep_csv_of_square_lambertian_grid_with_grazing_cell(self, tmp_path, albedos):
        angles = np.arange(0.0, 90.25, 7.5)  # ends at 90: the doubly grazing diagonal cell is NaN
        grid = SweepGrid(theta0_values=angles, theta_values=angles, model_pair=("lambertian", "linear"))
        result = angle_sweep(albedos[1], grid)
        assert result.n_skipped == 1 and np.isnan(result.sam[-1, -1]) and np.isnan(result.rmse[-1, -1])
        assert bit_symmetric(result.sam) and bit_symmetric(result.rmse)
        assert_sweep_csv_matches_reference(tmp_path, result)

    def test_sweep_csv_of_asymmetric_square_result(self, tmp_path):
        rng = np.random.default_rng(16)
        sam, err = rng.uniform(0.0, 0.1, (6, 6)), rng.uniform(0.0, 0.01, (6, 6))
        result = SweepResult(grid=SweepGrid(theta0_values=np.arange(6.0), theta_values=np.arange(6.0)),
                             sam=sam, rmse=err, valid=np.ones((6, 6), dtype=bool))
        assert not bit_symmetric(sam) and not bit_symmetric(err)
        assert_sweep_csv_matches_reference(tmp_path, result)

    @pytest.mark.parametrize(
        "array, upper, lower",
        [
            ("sam", 0.0, -0.0),
            ("rmse", -0.0, 0.0),
            ("sam", np.nan, 0.25),
            ("rmse", 0.125, np.nan),
            ("sam", -0.0, -0.0),  # mirrored: the text of the upper cell is reused
            ("rmse", np.nan, np.nan),
        ],
    )
    def test_sweep_csv_of_square_result_whose_mirror_differs_only_in_text(self, tmp_path, array, upper, lower):
        base = np.array([[0.0, 0.5, 1e-17], [0.5, -0.0, 3.0], [1e-17, 3.0, np.nan]])
        arrays = {"sam": base.copy(), "rmse": 2.0 * base}
        arrays[array][0, 2], arrays[array][2, 0] = upper, lower
        grid = SweepGrid(theta0_values=[0.0, 30.0, 60.0], theta_values=[0.0, 30.0, 60.0])
        result = SweepResult(grid=grid, sam=arrays["sam"], rmse=arrays["rmse"], valid=~np.isnan(arrays["sam"]))
        assert bit_symmetric(arrays[array]) == (np.array(upper).view(np.int64) == np.array(lower).view(np.int64))
        assert_sweep_csv_matches_reference(tmp_path, result)

    @pytest.mark.parametrize("points", [1, 21])
    def test_curve_csv_matches_reference(self, tmp_path, points):
        omega = np.linspace(0.0, 1.0, points) if points > 1 else np.array([0.3])
        rho = omega / (1.0 + 2.0 * np.sqrt(1.0 - omega)) ** 2
        io.write_curve_csv([tmp_path / "curve.csv"], omega, rho)
        expected = reference_csv(tmp_path / "ref.csv", ["omega", "reflectance"], zip(omega, rho))
        assert (tmp_path / "curve.csv").read_bytes() == expected

    def test_spectra_table_matches_reference(self, tmp_path, axis):
        matrix = np.column_stack([np.linspace(0.0, 1.125, len(axis)), np.full(len(axis), 1.0 / 3.0)])
        io.write_spectra_table(tmp_path / "table.csv", axis, ["bright", "dark"], matrix)
        rows = np.column_stack([axis.values, matrix])
        expected = reference_csv(tmp_path / "ref.csv", ["wavelength", "bright", "dark"], rows)
        assert (tmp_path / "table.csv").read_bytes() == expected
