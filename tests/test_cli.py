import csv
import json
from pathlib import Path

import numpy as np
import pytest

from specmix import io
from specmix.cli import main
from specmix.core import AlbedoSpectrum, HyperCube, PhotometricParams, WavelengthAxis
from specmix.metrics import AlbedoCurve


@pytest.fixture
def albedo_csv(tmp_path):
    rng = np.random.default_rng(21)
    axis = WavelengthAxis(np.linspace(0.4, 2.5, 16))
    albedos = [
        AlbedoSpectrum(material=name, omega=rng.uniform(0.05, 0.9, 16), axis=axis)
        for name in ("basalt", "palagonite", "tephra")
    ]
    path = tmp_path / "albedos.csv"
    io.write_albedos(path, albedos)
    return path


@pytest.fixture
def photometry_json(tmp_path):
    path = tmp_path / "photometry.json"
    io.write_photometry(path, PhotometricParams(b=0.3, c=0.6, B0=0.5, h=0.1))
    return path


def scene_config(tmp_path, **overrides):
    config = {
        "n_materials": 3,
        "n_pixels": 40,
        "model": "linear",
        "abundances": {"kind": "uniform"},
        "geometry": {"kind": "uniform", "theta0_range": [0.0, 69.0], "theta_range": [0.0, 69.0]},
        "reference": {"theta0": 45.0, "theta": 45.0, "phi": 0.0},
        "seed": 5,
    }
    config.update(overrides)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(config))
    return path


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(cell) for cell in row] for row in rows[1:]])
    return header, data


class TestForward:
    def test_relative_model_at_double_grazing_returns_albedo(self, tmp_path, albedo_csv):
        out = tmp_path / "refl.csv"
        code = main([
            "forward", "--albedo", str(albedo_csv), "--model", "relative",
            "--theta0", "90", "--theta", "90", "--out", str(out),
        ])
        assert code == 0
        header_in, data_in = read_csv_columns(albedo_csv)
        header_out, data_out = read_csv_columns(out)
        assert header_out == header_in
        np.testing.assert_array_equal(data_out, data_in)

    def test_linear_model_at_nadir_divides_by_nine(self, tmp_path, albedo_csv):
        out = tmp_path / "refl.csv"
        assert main([
            "forward", "--albedo", str(albedo_csv), "--model", "linear",
            "--theta0", "0", "--theta", "0", "--out", str(out),
        ]) == 0
        _, data_in = read_csv_columns(albedo_csv)
        _, data_out = read_csv_columns(out)
        np.testing.assert_allclose(data_out[:, 1:], data_in[:, 1:] / 9.0, rtol=1e-15)

    def test_full_model_singular_geometry_exits_2(self, tmp_path, albedo_csv, photometry_json, capsys):
        code = main([
            "forward", "--albedo", str(albedo_csv), "--photometry", str(photometry_json),
            "--model", "full", "--theta0", "90", "--theta", "90",
            "--out", str(tmp_path / "refl.csv"),
        ])
        assert code == 2
        assert "mu + mu0" in capsys.readouterr().err

    def test_missing_albedo_file_exits_1(self, tmp_path):
        code = main([
            "forward", "--albedo", str(tmp_path / "nope.csv"), "--model", "relative",
            "--theta0", "0", "--theta", "0", "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1

    def test_manifest_written(self, tmp_path, albedo_csv):
        out = tmp_path / "refl.csv"
        main([
            "forward", "--albedo", str(albedo_csv), "--model", "relative",
            "--theta0", "45", "--theta", "45", "--out", str(out),
        ])
        manifest = json.loads((tmp_path / "refl.manifest.json").read_text())
        assert manifest["command"] == "forward"
        assert manifest["config"]["model"] == "relative"
        assert (tmp_path / manifest["outputs"][0]).exists()

    @pytest.mark.parametrize("model", ["full", "lambertian", "relative", "linear"])
    def test_csv_equals_the_simulated_reference_endmembers_byte_for_byte(self, tmp_path, albedo_csv, model):
        shared, own = PhotometricParams(b=0.3, c=0.6, B0=0.5, h=0.1), PhotometricParams(b=0.2, c=0.7, B0=1.0, h=0.05)
        photometry = tmp_path / "p.json"
        io.write_photometry(photometry, {"basalt": shared, "palagonite": own, "tephra": shared})
        reference = {"theta0": 30.0, "theta": 20.0, "phi": 40.0}
        config = scene_config(tmp_path, model=model, n_pixels=4, reference=reference)
        assert main(["simulate", "--config", str(config), "--albedo", str(albedo_csv), "--photometry", str(photometry),
                     "--out", str(tmp_path / "cube")]) == 0
        assert main(["forward", "--albedo", str(albedo_csv), "--photometry", str(photometry), "--model", model,
                     *(arg for key, value in reference.items() for arg in (f"--{key}", str(value))),
                     "--out", str(tmp_path / "refl.csv")]) == 0
        assert (tmp_path / "refl.csv").read_bytes() == (tmp_path / "cube.endmembers.csv").read_bytes()


class TestSimulateAndVerify:
    def test_pipeline_roundtrip_and_verify(self, tmp_path, albedo_csv):
        config = scene_config(tmp_path)
        out = tmp_path / "cube"
        assert main([
            "simulate", "--config", str(config), "--albedo", str(albedo_csv),
            "--out", str(out),
        ]) == 0
        assert main(["verify", "--cube", str(tmp_path / "cube.json")]) == 0

    def test_zero_pixels_rejected(self, tmp_path, albedo_csv):
        config = scene_config(tmp_path, n_pixels=0)
        code = main([
            "simulate", "--config", str(config), "--albedo", str(albedo_csv),
            "--out", str(tmp_path / "cube"),
        ])
        assert code == 1

    def test_oversized_scene_exits_1_naming_key(self, tmp_path, albedo_csv, capsys):
        config = scene_config(tmp_path, n_pixels=10**13)
        assert main(["simulate", "--config", str(config), "--albedo", str(albedo_csv),
                     "--out", str(tmp_path / "out" / "cube")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_pixels must be at most 10000000, got 10000000000000")
        assert not (tmp_path / "out").exists()

    def test_material_count_mismatch_exits_1_naming_both_counts(self, tmp_path, capsys):
        axis = WavelengthAxis(np.linspace(0.4, 2.5, 16))
        albedo_csv = tmp_path / "two.csv"
        io.write_albedos(albedo_csv, [AlbedoSpectrum(material=name, omega=np.full(16, 0.5), axis=axis)
                                      for name in ("basalt", "tephra")])
        assert main(["simulate", "--config", str(scene_config(tmp_path)), "--albedo", str(albedo_csv),
                     "--out", str(tmp_path / "out" / "cube")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expected 3 albedos") and "got 2 and 2" in err
        assert not (tmp_path / "out").exists()

    def test_typoed_config_key_exits_1_naming_it(self, tmp_path, albedo_csv, capsys):
        config = scene_config(
            tmp_path, geometry={"kind": "uniform", "theta_rnage": [0.0, 10.0]}
        )
        code = main([
            "simulate", "--config", str(config), "--albedo", str(albedo_csv),
            "--out", str(tmp_path / "cube"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown geometry keys: theta_rnage")
        assert "Traceback" not in err
        assert not (tmp_path / "cube.bin").exists()

    def test_infinite_dirichlet_alpha_exits_1_naming_it(self, tmp_path, albedo_csv, capsys):
        path = tmp_path / "scene.json"
        # Python's json reads and writes the non-standard Infinity literal
        path.write_text(json.dumps({
            "n_materials": 3, "n_pixels": 4, "abundances": {"kind": "dirichlet", "alpha": float("inf")},
        }))
        assert "Infinity" in path.read_text()
        code = main([
            "simulate", "--config", str(path), "--albedo", str(albedo_csv),
            "--out", str(tmp_path / "cube"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "alpha" in err
        assert not (tmp_path / "cube.bin").exists()

    def test_tampered_cube_fails_verify(self, tmp_path, albedo_csv, capsys):
        config = scene_config(tmp_path, n_pixels=6)
        out = tmp_path / "cube"
        main(["simulate", "--config", str(config), "--albedo", str(albedo_csv), "--out", str(out)])
        data = bytearray((tmp_path / "cube.bin").read_bytes())
        data[:8] = np.array([-0.5]).tobytes()
        (tmp_path / "cube.bin").write_bytes(bytes(data))
        assert main(["verify", "--cube", str(tmp_path / "cube.json")]) == 1
        assert "negative reflectance" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", ["abc", False, 0, -3.0, [20.0] * 5])
    def test_snr_db_other_than_null_or_a_positive_number_exits_1_naming_the_sidecar(self, tmp_path, albedo_csv,
                                                                                     capsys, snr_db):
        # a non-null snr_db turns off the negative-value and conservation checks, so only a real one may
        main(["simulate", "--config", str(scene_config(tmp_path, n_pixels=64)), "--albedo", str(albedo_csv),
              "--out", str(tmp_path / "cube")])
        data = bytearray((tmp_path / "cube.bin").read_bytes())
        data[:8] = np.array([-0.5]).tobytes()
        (tmp_path / "cube.bin").write_bytes(bytes(data))
        sidecar = tmp_path / "cube.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "snr_db": snr_db}))
        capsys.readouterr()
        assert main(["verify", "--cube", str(sidecar)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {sidecar}: snr_db must be ") and not captured.out

    def test_noisy_cube_passes_verify_unless_a_value_is_not_finite(self, tmp_path, capsys):
        # the installed-package smoke albedos at 20 dB up to grazing angles: noise makes some reflectances negative
        albedo_csv = tmp_path / "albedos.csv"
        albedo_csv.write_text("wavelength,basalt,palagonite,tephra\n0.45,0.12,0.31,0.55\n0.65,0.15,0.36,0.61\n"
                              "0.85,0.19,0.42,0.66\n1.25,0.22,0.47,0.70\n1.65,0.26,0.50,0.73\n2.2,0.30,0.52,0.75\n")
        grazing = {"kind": "uniform", "theta0_range": [0.0, 89.0], "theta_range": [0.0, 89.0]}
        config = scene_config(tmp_path, n_pixels=1000, snr_db=20, geometry=grazing)
        assert main(["simulate", "--config", str(config), "--albedo", str(albedo_csv),
                     "--out", str(tmp_path / "cube")]) == 0
        assert np.any(io.read_cube(tmp_path / "cube.json").values < 0.0)
        assert main(["verify", "--cube", str(tmp_path / "cube.json")]) == 0
        data = bytearray((tmp_path / "cube.bin").read_bytes())
        data[8:16] = np.array([np.nan]).tobytes()
        (tmp_path / "cube.bin").write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["verify", "--cube", str(tmp_path / "cube.json")]) == 1
        assert capsys.readouterr().err == "violation: non-finite reflectance at band 1, pixel 0\n"

    def test_endmembers_of_another_band_count_exit_1_naming_the_sidecar(self, tmp_path, albedo_csv, capsys):
        main(["simulate", "--config", str(scene_config(tmp_path, n_pixels=6)), "--albedo", str(albedo_csv),
              "--out", str(tmp_path / "cube")])
        axis, full = io.read_endmembers(tmp_path / "cube.endmembers.csv")
        io.write_spectra_table(tmp_path / "cube.endmembers.csv", WavelengthAxis(axis.values[:2]),
                               list(full.materials), full.values[:2])
        assert main(["verify", "--cube", str(tmp_path / "cube.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cube.json'}: ground-truth endmembers have 2 bands, cube has 16\n")

    def test_per_pixel_list_in_the_sidecar_exits_1_with_a_short_message(self, tmp_path, albedo_csv, capsys,
                                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["simulate", "--config", str(scene_config(tmp_path, n_pixels=6)), "--albedo", str(albedo_csv),
              "--out", "cube"])
        meta = json.loads(Path("cube.json").read_text())
        meta["ground_truth"] = [0.5] * 100_000
        Path("cube.json").write_text(json.dumps(meta))
        assert main(["verify", "--cube", "cube.json"]) == 1
        err = capsys.readouterr().err
        assert err == "error: cube.json: ground_truth must be a JSON object, got a JSON array of 100000 entries\n"
        assert len(err) < 200

    def test_infinite_snr_writes_null_and_verify_checks_the_identity(self, tmp_path, albedo_csv, capsys):
        for name, snr in (("inf", float("inf")), ("null", None)):  # json writes inf as the non-standard Infinity
            (tmp_path / name).mkdir()
            config = scene_config(tmp_path / name, snr_db=snr)
            assert main(["simulate", "--config", str(config), "--albedo", str(albedo_csv),
                         "--out", str(tmp_path / name / "cube")]) == 0
        sidecar = (tmp_path / "inf" / "cube.json").read_text()
        assert '"snr_db": null' in sidecar and "Infinity" not in sidecar
        for name in ("cube.json", "cube.bin", "cube.gt_a.bin", "cube.gt_psi.bin", "cube.endmembers.csv"):
            assert (tmp_path / "inf" / name).read_bytes() == (tmp_path / "null" / name).read_bytes()
        data = bytearray((tmp_path / "inf" / "cube.bin").read_bytes())
        data[:8] = (np.frombuffer(data[:8], "<f8") + 0.01).tobytes()  # a positive reflectance, still plausible
        (tmp_path / "inf" / "cube.bin").write_bytes(bytes(data))
        assert main(["verify", "--cube", str(tmp_path / "inf" / "cube.json")]) == 1
        assert "conservation violated" in capsys.readouterr().err

    def test_same_seed_is_byte_identical(self, tmp_path, albedo_csv):
        config = scene_config(tmp_path, n_pixels=20)
        for name in ("one", "two"):
            main([
                "simulate", "--config", str(config), "--albedo", str(albedo_csv),
                "--out", str(tmp_path / name), "--seed", "77",
            ])
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()
        assert (tmp_path / "one.gt_a.bin").read_bytes() == (tmp_path / "two.gt_a.bin").read_bytes()

    def test_seed_override_recorded_in_manifest(self, tmp_path, albedo_csv):
        config = scene_config(tmp_path, n_pixels=4)
        main([
            "simulate", "--config", str(config), "--albedo", str(albedo_csv),
            "--out", str(tmp_path / "cube"), "--seed", "99",
        ])
        manifest = json.loads((tmp_path / "cube.manifest.json").read_text())
        assert manifest["seed"] == 99
        assert json.loads((tmp_path / "cube.json").read_text())["seed"] == 99

    def test_manifest_lists_exactly_the_written_files_in_sidecar_order(self, tmp_path, albedo_csv):
        (tmp_path / "cube_old.txt").write_text("unrelated")
        (tmp_path / "cubes.json").write_text("{}")
        assert main([
            "simulate", "--config", str(scene_config(tmp_path, n_pixels=4)), "--albedo", str(albedo_csv),
            "--out", str(tmp_path / "cube"),
        ]) == 0
        manifest = json.loads((tmp_path / "cube.manifest.json").read_text())
        assert manifest["outputs"] == [
            "cube.json", "cube.bin", "cube.geom.bin", "cube.gt_a.bin", "cube.gt_psi.bin", "cube.endmembers.csv",
        ]
        assert all((tmp_path / name).exists() for name in manifest["outputs"])

    def test_dotted_stem_keeps_its_dot_in_every_file_name(self, tmp_path, albedo_csv):
        out = tmp_path / "out"
        simulate = ["simulate", "--config", str(scene_config(tmp_path, n_pixels=4)), "--albedo", str(albedo_csv)]
        assert main([*simulate, "--out", str(out / "scene")]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert main([*simulate, "--out", str(out / "scene.v2"), "--seed", "6"]) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir() if path.name in before} == before
        manifest = json.loads((out / "scene.v2.manifest.json").read_text())
        assert manifest["outputs"] == [
            "scene.v2.json", "scene.v2.bin", "scene.v2.geom.bin", "scene.v2.gt_a.bin", "scene.v2.gt_psi.bin",
            "scene.v2.endmembers.csv",
        ]
        written = sorted([*before, *manifest["outputs"], "scene.v2.manifest.json"])
        assert sorted(path.name for path in out.iterdir()) == written

    @pytest.mark.parametrize("out", ["cube.json", "cube.csv"])
    def test_json_out_is_the_sidecar_and_names_the_stem(self, tmp_path, albedo_csv, out):
        assert main([
            "simulate", "--config", str(scene_config(tmp_path, n_pixels=4)), "--albedo", str(albedo_csv),
            "--out", str(tmp_path / "o" / out),
        ]) == 0
        manifest = json.loads((tmp_path / "o" / "cube.manifest.json").read_text())
        assert manifest["outputs"] == [
            "cube.json", "cube.bin", "cube.geom.bin", "cube.gt_a.bin", "cube.gt_psi.bin", "cube.endmembers.csv",
        ]
        assert sorted(path.name for path in (tmp_path / "o").iterdir()) == sorted([*manifest["outputs"], "cube.manifest.json"])
        assert main(["verify", "--cube", str(tmp_path / "o" / "cube.json")]) == 0


class TestUnmix:
    def simulate(self, tmp_path, albedo_csv, **overrides):
        config = scene_config(tmp_path, **overrides)
        out = tmp_path / "cube"
        assert main([
            "simulate", "--config", str(config), "--albedo", str(albedo_csv), "--out", str(out),
        ]) == 0
        return tmp_path / "cube.json", tmp_path / "cube.endmembers.csv"

    def test_generate_and_recover_summary(self, tmp_path, albedo_csv):
        cube, endmembers = self.simulate(tmp_path, albedo_csv)
        out = tmp_path / "fit"
        assert main([
            "unmix", "--cube", str(cube), "--endmembers", str(endmembers),
            "--model", "elmm-full", "--out", str(out),
        ]) == 0
        summary = json.loads((tmp_path / "fit.json").read_text())
        assert summary["abundance_rmse"] < 1e-6
        assert summary["psi_rmse"] < 1e-6
        assert summary["residual_stats"]["max"] < 1e-8

        def has_pixel_list(node):
            if isinstance(node, dict):
                return any(has_pixel_list(v) for v in node.values())
            if isinstance(node, list):
                return len(node) == summary["pixels"] or any(has_pixel_list(v) for v in node)
            return False

        assert not has_pixel_list(summary)

    @pytest.mark.parametrize("out, stem", [("fit.v2", "fit.v2"), ("fit.json", "fit"), ("fit.csv", "fit")])
    def test_every_result_file_is_named_by_the_whole_stem(self, tmp_path, albedo_csv, out, stem):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=4)
        assert main(["unmix", "--cube", str(cube), "--endmembers", str(endmembers), "--out", str(tmp_path / out)]) == 0
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        assert manifest["outputs"] == [f"{stem}{suffix}" for suffix in (".json", ".a.bin", ".psi.bin", ".rmse.bin")]
        written = sorted([*manifest["outputs"], f"{stem}.manifest.json"])
        assert sorted(path.name for path in tmp_path.glob("fit*")) == written
        assert json.loads((tmp_path / f"{stem}.json").read_text())["abundances"] == f"{stem}.a.bin"

    def test_scaled_model_beats_plain_on_scaled_data(self, tmp_path, albedo_csv):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, model="relative", n_pixels=60)
        results = {}
        for model in ("lmm", "elmm-full"):
            out = tmp_path / f"fit_{model}"
            assert main([
                "unmix", "--cube", str(cube), "--endmembers", str(endmembers),
                "--model", model, "--out", str(out),
            ]) == 0
            results[model] = json.loads(out.with_suffix(".json").read_text())
        assert (
            results["elmm-full"]["residual_stats"]["mean"]
            <= results["lmm"]["residual_stats"]["mean"]
        )

    def test_pinned_scale_bounds_match_plain_model(self, tmp_path, albedo_csv):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=12)
        solver_cfg = tmp_path / "solver.json"
        solver_cfg.write_text(json.dumps({"model": "elmm-full", "psi_bounds": [1.0, 1.0]}))
        main([
            "unmix", "--cube", str(cube), "--endmembers", str(endmembers),
            "--config", str(solver_cfg), "--out", str(tmp_path / "pinned"),
        ])
        main([
            "unmix", "--cube", str(cube), "--endmembers", str(endmembers),
            "--model", "lmm", "--out", str(tmp_path / "plain"),
        ])
        a_pinned = np.frombuffer((tmp_path / "pinned.a.bin").read_bytes(), dtype="<f8")
        a_plain = np.frombuffer((tmp_path / "plain.a.bin").read_bytes(), dtype="<f8")
        np.testing.assert_allclose(a_pinned, a_plain, atol=1e-8)

    def test_removed_iteration_keys_exit_1(self, tmp_path, albedo_csv, capsys):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=4)
        solver_cfg = tmp_path / "solver.json"
        solver_cfg.write_text(json.dumps({"model": "elmm-full", "max_iters": 500, "tol": 1e-8}))
        assert main([
            "unmix", "--cube", str(cube), "--endmembers", str(endmembers),
            "--config", str(solver_cfg), "--out", str(tmp_path / "fit"),
        ]) == 1
        assert "unknown solver config keys: max_iters, tol" in capsys.readouterr().err

    def test_non_finite_cube_exits_1_naming_pixel(self, tmp_path, albedo_csv, capsys):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=6)
        clean = io.read_cube(cube)
        values = np.array(clean.values)
        values[3, 4] = np.nan
        io.write_cube(tmp_path / "nan", HyperCube(values=values, axis=clean.axis))
        assert main([
            "unmix", "--cube", str(tmp_path / "nan.json"), "--endmembers", str(endmembers),
            "--model", "elmm-full", "--out", str(tmp_path / "fit"),
        ]) == 1
        assert "at band 3, pixel 4" in capsys.readouterr().err

    def test_zero_pixel_cube_exits_1_naming_pixels_and_writes_nothing(self, tmp_path, albedo_csv, capsys):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=6)
        # every data file the sidecar names is empty, the size its 0 pixels take
        meta = json.loads(cube.read_text())
        meta.update(pixels=0, data="empty.bin", geometries="empty.bin")
        meta["ground_truth"].update(abundances="empty.bin", scales="empty.bin")
        (tmp_path / "empty.bin").write_bytes(b"")
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["unmix", "--cube", str(zero), "--endmembers", str(endmembers), "--out", str(tmp_path / "fit")]) == 1
        assert capsys.readouterr().err == f"error: {zero}: pixels must be >= 1, got 0\n"
        assert not list(tmp_path.glob("fit*"))
        assert main(["verify", "--cube", str(zero)]) == 1
        assert "pixels must be >= 1" in capsys.readouterr().err

    def test_solver_failure_exits_1_without_traceback(self, tmp_path, albedo_csv, capsys, monkeypatch):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=4)

        def fail(*args, **kwargs):
            raise RuntimeError("non-negative least squares did not converge")

        monkeypatch.setattr("specmix.cli.unmix_cube", fail)
        assert main([
            "unmix", "--cube", str(cube), "--endmembers", str(endmembers),
            "--model", "lmm", "--out", str(tmp_path / "fit"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-negative least squares did not converge")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["unmix", "verify"])
    def test_per_pixel_geometry_list_exits_1_naming_it(self, tmp_path, albedo_csv, capsys, command):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=4)
        meta = json.loads(cube.read_text())
        meta["geometries"] = [{"theta0": 10.0, "theta": 20.0, "phi": 0.0}] * 4  # the older sidecar format
        cube.write_text(json.dumps(meta))
        argv = {
            "unmix": ["unmix", "--cube", str(cube), "--endmembers", str(endmembers), "--out", str(tmp_path / "fit")],
            "verify": ["verify", "--cube", str(cube), "--out", str(tmp_path / "report.json")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "geometries must be a non-empty file name, got a JSON array" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("fit*")) and not (tmp_path / "report.json").exists()

    def test_band_count_mismatch_exits_1_naming_both_counts(self, tmp_path, albedo_csv, capsys):
        cube, endmembers = self.simulate(tmp_path, albedo_csv, n_pixels=4)
        axis, full = io.read_endmembers(endmembers)
        short = tmp_path / "short_endmembers.csv"
        io.write_spectra_table(short, WavelengthAxis(axis.values[:12]), list(full.materials), full.values[:12])
        assert main([
            "unmix", "--cube", str(cube), "--endmembers", str(short), "--model", "lmm", "--out", str(tmp_path / "fit"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {short} has 12 bands, cube {cube} has 16")
        assert "broadcast" not in err
        assert not list(tmp_path.glob("fit*"))

    def test_axis_mismatch_exits_1(self, tmp_path, albedo_csv):
        cube, _ = self.simulate(tmp_path, albedo_csv, n_pixels=4)
        other_axis = WavelengthAxis(np.linspace(0.5, 2.6, 16))
        bad = tmp_path / "bad_endmembers.csv"
        rng = np.random.default_rng(0)
        io.write_albedos(
            bad,
            [AlbedoSpectrum(material="m", omega=rng.uniform(0, 1, 16), axis=other_axis)],
        )
        assert main([
            "unmix", "--cube", str(cube), "--endmembers", str(bad),
            "--model", "lmm", "--out", str(tmp_path / "fit"),
        ]) == 1


class TestSweep:
    def test_single_cell_perfect_agreement_row(self, tmp_path, albedo_csv):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "kind": "angle", "theta0_values": [90.0], "theta_values": [90.0],
            "model_pair": ["relative", "linear"],
        }))
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(config), "--out", str(out),
        ]) == 0
        for material in ("basalt", "palagonite", "tephra"):
            header, data = read_csv_columns(tmp_path / f"sweep.{material}.csv")
            assert header == ["theta0", "theta", "sam_rad", "rmse"]
            assert data.shape == (1, 4)
            assert data[0, 2] == 0.0 and data[0, 3] == 0.0

    def test_grid_order_and_row_count(self, tmp_path, albedo_csv):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "kind": "angle", "theta0_values": [0.0, 45.0], "theta_values": [30.0, 60.0],
        }))
        main(["sweep", "--albedo", str(albedo_csv), "--config", str(config), "--out", str(tmp_path / "s")])
        _, data = read_csv_columns(tmp_path / "s.basalt.csv")
        assert data.shape == (4, 4)
        np.testing.assert_array_equal(data[:, 0], [0.0, 0.0, 45.0, 45.0])
        np.testing.assert_array_equal(data[:, 1], [30.0, 60.0, 30.0, 60.0])

    def test_manifest_records_model_pair_and_source(self, tmp_path, albedo_csv):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"kind": "angle", "theta0_values": [10.0], "theta_values": [10.0]}))
        main(["sweep", "--albedo", str(albedo_csv), "--config", str(config), "--out", str(tmp_path / "s")])
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert manifest["config"]["model_pair"] == ["relative", "linear"]
        assert manifest["inputs"]["albedo"] == str(albedo_csv)
        assert len(manifest["outputs"]) == 3

    def test_an_all_zero_albedo_exits_1_naming_it_before_any_output(self, tmp_path, capsys):
        albedo = tmp_path / "albedos.csv"
        albedo.write_text("wavelength,basalt,void\n" + "".join(f"{0.4 + 0.1 * k},0.3,0\n" for k in range(4)))
        assert main(["sweep", "--albedo", str(albedo), "--out", str(tmp_path / "out" / "sw")]) == 1
        assert "error: albedo 'void' is identically zero" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_each_csv_equals_its_material_swept_alone_byte_for_byte(self, tmp_path, albedo_csv):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"theta0_values": {"step": 15}, "theta_values": {"step": 10}}))
        assert main(sweep_argv(albedo_csv, config, tmp_path / "all" / "s")) == 0
        for albedo in io.read_albedos(albedo_csv):
            alone = tmp_path / f"{albedo.material}.csv"
            io.write_albedos(alone, [albedo])
            assert main(sweep_argv(alone, config, tmp_path / "one" / "s")) == 0
            name = f"s.{albedo.material}.csv"
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_curve_kind_identity_at_double_grazing(self, tmp_path, albedo_csv):
        config = tmp_path / "curve.json"
        config.write_text(json.dumps({
            "kind": "curve", "model": "relative", "theta0": 90.0, "theta": 90.0,
            "omega": {"start": 0.0, "stop": 1.0, "num": 21},
        }))
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(config), "--out", str(tmp_path / "c"),
        ]) == 0
        header, data = read_csv_columns(tmp_path / "c.basalt.csv")
        assert header == ["omega", "reflectance"]
        np.testing.assert_array_equal(data[:, 0], data[:, 1])

    def test_unknown_kind_exits_1(self, tmp_path, albedo_csv):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"kind": "spiral"}))
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(config), "--out", str(tmp_path / "s"),
        ]) == 1

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"theta0_values": {"start": 0, "stop": 90, "step": 0}}, "theta0_values.step must be > 0"),
            ({"theta_values": {"start": 0, "stop": 90, "step": -5}}, "theta_values.step must be > 0"),
            ({"kind": "curve", "omega": {"start": 0.0, "stop": 1.0, "num": 0}}, "omega.num must be >= 1"),
            ({"kind": "curve", "omega": []}, "omega must hold at least one albedo"),
        ],
    )
    def test_empty_or_endless_range_exits_1_naming_key(self, tmp_path, albedo_csv, capsys, config, named):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "s"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not list(tmp_path.glob("s.*"))

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"kind": "angle", "thta_values": [1, 2]}, "unknown angle sweep config keys: thta_values;"),
            ({"theta": 45.0}, "unknown angle sweep config keys: theta;"),
            ({"kind": "curve", "theta0_values": [1.0]}, "unknown curve sweep config keys: theta0_values;"),
            ({"theta_values": {"start": 0, "stop": 10, "stpe": 1}}, "unknown theta_values keys: stpe;"),
            ({"kind": "curve", "omega": {"start": 0, "stop": 1, "n": 5}}, "unknown omega keys: n;"),
        ],
    )
    def test_unknown_config_key_exits_1_naming_it(self, tmp_path, albedo_csv, capsys, config, named):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "s"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("key", ["theta0_values", "theta_values"])
    def test_nan_angle_exits_1_naming_key(self, tmp_path, albedo_csv, capsys, key):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({key: [float("nan"), 10.0]}))
        assert "NaN" in path.read_text()
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "s"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must be finite" in err
        assert not list(tmp_path.glob("s.*"))

    def test_curve_angle_out_of_range_exits_1_naming_value(self, tmp_path, albedo_csv, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"kind": "curve", "model": "linear", "theta0": 120}))
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "c"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "theta0" in err and "120" in err


class TestAngleSweepFlags:
    @pytest.mark.parametrize(
        "flag, value",
        [("--model", "full"), ("--theta0", "10"), ("--theta", "20"), ("--phi", "30"), ("--photometry", None)],
    )
    def test_curve_only_flag_on_angle_sweep_exits_1_naming_it(
        self, tmp_path, albedo_csv, photometry_json, capsys, flag, value
    ):
        argv = ["sweep", "--albedo", str(albedo_csv), "--out", str(tmp_path / "out" / "s"),
                flag, value or str(photometry_json)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} applies to curve sweeps only")
        assert not (tmp_path / "out").exists()


class TestSweepRangeBounds:
    @pytest.mark.parametrize("key", ["theta0_values", "theta_values"])
    @pytest.mark.parametrize("end", ["start", "stop"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1e9])
    def test_bad_range_end_exits_1_naming_key_before_arange(
        self, tmp_path, albedo_csv, capsys, monkeypatch, key, end, value
    ):
        other = "theta_values" if key == "theta0_values" else "theta0_values"
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({key: {end: value}, other: [0.0, 10.0]}))

        def arange_reached(*args, **kwargs):
            raise AssertionError(f"np.arange reached with {args}")

        monkeypatch.setattr(np, "arange", arange_reached)
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "s"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}.{end} must be finite and in [0, 90] degrees" in err
        assert not list(tmp_path.glob("s.*"))

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"theta0_values": {"step": 1e-4}}, "theta0_values (900001 angles) x theta_values (91 angles)"),
            # a list-valued axis counts its angles
            (
                {"theta_values": {"step": 0.01}, "theta0_values": [0.45 * k for k in range(200)]},
                "theta0_values (200 angles) x theta_values (9001 angles) make 1800200 sweep cells",
            ),
        ],
    )
    def test_oversized_grid_exits_1_naming_keys_before_arange(
        self, tmp_path, albedo_csv, capsys, monkeypatch, config, named
    ):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))

        def arange_reached(*args, **kwargs):
            raise AssertionError(f"np.arange reached with {args}")

        monkeypatch.setattr(np, "arange", arange_reached)
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "s"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "at most 1000000" in err
        assert not list(tmp_path.glob("s.*"))

    def test_overlong_axis_exits_1_naming_key(self, tmp_path, capsys):
        axis = WavelengthAxis([0.5, 1.0, 1.5])
        albedo = tmp_path / "albedo3.csv"
        io.write_albedos(albedo, [AlbedoSpectrum(material="m", omega=[0.2, 0.4, 0.6], axis=axis)])
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"theta0_values": [0], "theta_values": {"step": 1e-4}}))
        assert main(["sweep", "--albedo", str(albedo), "--config", str(path), "--out", str(tmp_path / "out" / "s")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: theta_values has 900001 angles; at most 9001 are allowed")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["theta0_values", "theta_values"])
    @pytest.mark.parametrize("step", [5e-324, 1e-310])
    def test_subnormal_step_exits_1_naming_key(self, tmp_path, albedo_csv, capsys, key, step):
        # (stop - start) / step overflows to inf: refused by the key, not by math.ceil's OverflowError
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({key: {"step": step}}))
        argv = ["sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "out" / "s")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}.step ") and "too small" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("num", [1e10, 10**6 + 1, float("inf"), pytest.param(10**400, id="int-1e400")])
    def test_oversized_curve_exits_1_naming_key_before_linspace(
        self, tmp_path, albedo_csv, capsys, monkeypatch, num
    ):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"kind": "curve", "omega": {"num": num}}))

        def linspace_reached(*args, **kwargs):
            raise AssertionError(f"np.linspace reached with {args}")

        monkeypatch.setattr(np, "linspace", linspace_reached)
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "c"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "omega.num must be at most 1000000" in err
        assert not list(tmp_path.glob("c.*"))

    @pytest.mark.parametrize("num", ["5", True, None])
    def test_non_numeric_curve_num_exits_1_naming_key(self, tmp_path, albedo_csv, capsys, num):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"kind": "curve", "omega": {"num": num}}))
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "c"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "omega.num must be a number" in err
        assert not list(tmp_path.glob("c.*"))

    @pytest.mark.parametrize("step", [float("inf"), float("nan")])
    def test_non_finite_step_exits_1_naming_key(self, tmp_path, albedo_csv, capsys, step):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"theta_values": {"step": step}}))
        assert main([
            "sweep", "--albedo", str(albedo_csv), "--config", str(path), "--out", str(tmp_path / "s"),
        ]) == 1
        assert "theta_values.step must be > 0 and finite" in capsys.readouterr().err


class TestManifestStages:
    def run(self, tmp_path, albedo_csv, command):
        out = tmp_path / "out"
        if command == "forward":
            argv = ["forward", "--albedo", str(albedo_csv), "--model", "relative",
                    "--theta0", "30", "--theta", "10", "--out", str(out / "refl.csv")]
            base = out / "refl"
        elif command in ("simulate", "unmix"):
            argv = ["simulate", "--config", str(scene_config(tmp_path)), "--albedo", str(albedo_csv),
                    "--out", str(out / "cube")]
            base = out / "cube"
            if command == "unmix":
                assert main(argv) == 0
                argv = ["unmix", "--cube", str(out / "cube.json"), "--endmembers",
                        str(out / "cube.endmembers.csv"), "--model", "elmm-full", "--out", str(out / "fit")]
                base = out / "fit"
        else:
            config = tmp_path / "sweep.json"
            config.write_text(json.dumps(
                {"kind": "curve", "theta0": 10.0} if command == "curve" else {"theta0_values": [0.0, 45.0]}
            ))
            argv = ["sweep", "--albedo", str(albedo_csv), "--config", str(config), "--out", str(out / "s")]
            base = out / "s"
        assert main(argv) == 0
        return json.loads((base.parent / (base.name + ".manifest.json")).read_text())

    @pytest.mark.parametrize(
        "command, stages",
        [
            ("forward", ["read", "model", "write"]),
            ("simulate", ["read", "model", "write"]),
            ("unmix", ["read", "solve", "write"]),
            ("sweep", ["read", "model", "write"]),
            ("curve", ["read", "model", "write"]),
        ],
    )
    def test_stages_named_per_command_and_within_duration(self, tmp_path, albedo_csv, command, stages):
        manifest = self.run(tmp_path, albedo_csv, command)
        assert list(manifest["stages"]) == stages
        assert all(seconds >= 0.0 for seconds in manifest["stages"].values())
        # each entry and the duration are rounded to the microsecond
        rounding = 0.5e-6 * (len(stages) + 1)
        assert sum(manifest["stages"].values()) <= manifest["duration_s"] + rounding


class TestConfigValueTypes:
    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("unmix", {"psi_bounds": None}, "psi_bounds"),
            ("unmix", {"psi_bounds": "ab"}, "psi_bounds"),
            ("unmix", {"psi_bounds": [0.5, "2"]}, "psi_bounds[1]"),
            ("unmix", {"model": "lmm", "sum_to_one": "false"}, "sum_to_one"),
            ("simulate", {"geometry": {"kind": "uniform", "theta0_range": 5}}, "geometry.theta0_range"),
            ("simulate", {"geometry": {"kind": "uniform", "phi_range": [0, 90, 180]}}, "geometry.phi_range"),
            ("simulate", {"abundances": {"kind": "dirichlet", "alpha": 10**400}}, "abundances.alpha"),
            ("simulate", {"n_pixels": 5.7}, "n_pixels"),
            ("simulate", {"n_pixels": "50"}, "n_pixels"),
            ("simulate", {"seed": True}, "seed"),
            ("simulate", {"reference": {"theta0": "45"}}, "reference.theta0"),
            ("sweep", {"kind": "curve", "theta0": 10**400}, "theta0"),
            ("sweep", {"kind": "curve", "omega": {"start": "0"}}, "omega.start"),
            ("sweep", {"kind": "curve", "omega": [0.1, None]}, "omega[1]"),
            ("sweep", {"theta0_values": {"step": 10**400}}, "theta0_values.step"),
            ("sweep", {"theta_values": ["10"]}, "theta_values[0]"),
            ("sweep", {"kind": "curve", "theta0": "5"}, "theta0"),
            ("sweep", {"kind": "curve", "omega": {"num": 5.7}}, "omega.num"),
        ],
    )
    def test_wrong_json_type_exits_1_naming_key(self, tmp_path, albedo_csv, capsys, command, config, key):
        if command == "simulate":
            path = scene_config(tmp_path, **config)
            argv = ["simulate", "--config", str(path), "--albedo", str(albedo_csv)]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [command, "--config", str(path)]
            if command == "unmix":
                assert main(["simulate", "--config", str(scene_config(tmp_path, n_pixels=4)),
                             "--albedo", str(albedo_csv), "--out", str(tmp_path / "cube")]) == 0
                argv += ["--cube", str(tmp_path / "cube.json"), "--endmembers", str(tmp_path / "cube.endmembers.csv")]
            else:
                argv += ["--albedo", str(albedo_csv)]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out" / "res")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key",
        [("unmix", "model"), ("simulate", "model"), ("simulate", "abundances"), ("simulate", "geometry"),
         ("sweep", "kind"), ("sweep", "model_pair"), ("sweep", "curve"), ("verify", "dtype"), ("verify", "order")],
    )
    def test_name_of_the_wrong_json_type_is_described_not_echoed(self, tmp_path, albedo_csv, capsys, command, key):
        long = [0] * 100_000
        assert main(["simulate", "--config", str(scene_config(tmp_path, n_pixels=4)), "--albedo", str(albedo_csv),
                     "--out", str(tmp_path / "cube")]) == 0
        config = tmp_path / "config.json"
        if command == "simulate":
            config = scene_config(tmp_path, **{key: long if key == "model" else {"kind": long}})
            argv = ["simulate", "--config", str(config), "--albedo", str(albedo_csv)]
        elif command == "unmix":
            config.write_text(json.dumps({"model": long}))
            argv = ["unmix", "--config", str(config), "--cube", str(tmp_path / "cube.json"),
                    "--endmembers", str(tmp_path / "cube.endmembers.csv")]
        elif command == "sweep":
            config.write_text(json.dumps({"kind": long} if key == "kind" else
                                         {"kind": "angle", "model_pair": long} if key == "model_pair" else
                                         {"kind": "curve", "model": long}))
            argv = sweep_argv(albedo_csv, config, tmp_path / "out" / "res")[:-2]
        else:
            sidecar = tmp_path / "cube.json"
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: long}))
            argv = ["verify", "--cube", str(sidecar)]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out" / "res")]) == 1
        err = capsys.readouterr().err
        assert len(err) < 300 and "a JSON array of 100000 entries" in err and "Traceback" not in err
        assert ("kind" if key in ("abundances", "geometry") else "model" if key == "curve" else key) in err
        assert not (tmp_path / "out").exists()


class TestMalformedJson:
    @pytest.mark.parametrize("command", ["simulate", "unmix", "sweep", "verify"])
    def test_malformed_json_exits_1_naming_the_file(self, tmp_path, albedo_csv, capsys, command):
        assert main(["simulate", "--config", str(scene_config(tmp_path, n_pixels=4)), "--albedo", str(albedo_csv),
                     "--out", str(tmp_path / "cube")]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_pixels": 4,}')
        curve = tmp_path / "curve.json"
        curve.write_text('{"kind": "curve"}')
        out = str(tmp_path / "out" / "res")
        argv = {
            "simulate": ["simulate", "--config", str(bad), "--albedo", str(albedo_csv), "--out", out],
            "unmix": ["unmix", "--config", str(bad), "--cube", str(tmp_path / "cube.json"),
                      "--endmembers", str(tmp_path / "cube.endmembers.csv"), "--out", out],
            "sweep": ["sweep", "--config", str(curve), "--photometry", str(bad), "--albedo", str(albedo_csv),
                      "--out", out],
            "verify": ["verify", "--cube", str(bad), "--out", out],
        }[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: Expecting property name") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestMaterialNames:
    @pytest.mark.parametrize(
        "header, column, name",
        [("wavelength,a,a", 3, "'a'"), ("wavelength,../x", 2, "'../x'"), ("wavelength,a\\b", 2, "'a\\\\b'"),
         ("wavelength,a,", 3, "''")],
    )
    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_unusable_name_exits_1_naming_column_before_any_output(
        self, tmp_path, capsys, command, header, column, name
    ):
        albedo = tmp_path / "albedos.csv"
        n_columns = header.count(",")
        albedo.write_text(header + "\n" + "".join(f"{0.4 + 0.1 * k}" + ",0.5" * n_columns + "\n" for k in range(3)))
        argv = [command, "--albedo", str(albedo), "--out", str(tmp_path / "out" / "s")]
        if command == "simulate":
            argv += ["--config", str(scene_config(tmp_path, n_materials=n_columns))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {albedo}: column {column}: material name {name} is empty, repeated")
        assert not (tmp_path / "out").exists()


def sweep_argv(albedo_csv, config, out, *flags):
    return ["sweep", "--albedo", str(albedo_csv), "--config", str(config), "--out", str(out), *flags]


class TestCurveEvaluatedOncePerParams:
    @pytest.fixture
    def calls(self, monkeypatch):
        made, reflectance = [], AlbedoCurve.reflectance

        def counted(curve, params=None):
            made.append(params)
            return reflectance(curve, params)

        monkeypatch.setattr(AlbedoCurve, "reflectance", counted)
        return made

    @staticmethod
    def reference_bytes(tmp_path, config, params=None):
        """A curve CSV written alone for one material, by the same writer."""
        curve = AlbedoCurve.from_dict(config)
        io.write_curve_csv([tmp_path / "ref.csv"], curve.omega, curve.reflectance(params))
        return (tmp_path / "ref.csv").read_bytes()

    def test_one_curve_for_every_material(self, tmp_path, albedo_csv, calls):
        config = {"kind": "curve", "model": "lambertian", "theta0": 30.0, "theta": 60.0, "omega": {"num": 33}}
        (tmp_path / "curve.json").write_text(json.dumps(config))
        assert main(sweep_argv(albedo_csv, tmp_path / "curve.json", tmp_path / "c")) == 0
        assert calls == [None]
        expected = self.reference_bytes(tmp_path, config)
        for name in ("basalt", "palagonite", "tephra"):
            assert (tmp_path / f"c.{name}.csv").read_bytes() == expected

    def test_one_curve_per_distinct_params(self, tmp_path, albedo_csv, calls):
        shared, own = PhotometricParams(b=0.3, c=0.6, B0=0.5, h=0.1), PhotometricParams(b=0.1, c=0.4, B0=0.0, h=0.2)
        io.write_photometry(tmp_path / "p.json", {"basalt": shared, "palagonite": own, "tephra": shared})
        config = {"kind": "curve", "model": "full", "theta0": 9.0, "theta": 21.0, "phi": 30.0}
        (tmp_path / "curve.json").write_text(json.dumps(config))
        argv = sweep_argv(albedo_csv, tmp_path / "curve.json", tmp_path / "c", "--photometry", str(tmp_path / "p.json"))
        assert main(argv) == 0
        assert calls == [shared, own]
        for name, params in (("basalt", shared), ("palagonite", own), ("tephra", shared)):
            assert (tmp_path / f"c.{name}.csv").read_bytes() == self.reference_bytes(tmp_path, config, params)


class TestSweepConfigRoundTrip:
    def test_full_model_curve_equals_forward_bit_for_bit(self, tmp_path, albedo_csv, photometry_json):
        header, data = read_csv_columns(albedo_csv)
        config = tmp_path / "curve.json"
        config.write_text(json.dumps({"kind": "curve", "model": "full", "theta0": 9.0, "theta": 21.0,
                                      "phi": 30.0, "omega": data[:, 1].tolist()}))
        assert main(sweep_argv(albedo_csv, config, tmp_path / "c", "--photometry", str(photometry_json))) == 0
        assert main([
            "forward", "--albedo", str(albedo_csv), "--photometry", str(photometry_json), "--model", "full",
            "--theta0", "9", "--theta", "21", "--phi", "30", "--out", str(tmp_path / "f.csv"),
        ]) == 0
        with open(tmp_path / "f.csv", newline="") as fh:
            forward = [row[1] for row in csv.reader(fh)][1:]
        with open(tmp_path / f"c.{header[1]}.csv", newline="") as fh:
            curve = [row[1] for row in csv.reader(fh)][1:]
        assert curve == forward

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"kind": "angle", "model_pair": ["lambertian", "relative"],
              "theta0_values": {"start": 0.5, "stop": 90, "step": 7.3}, "theta_values": [90.0, 0.0, 33.3]}, []),
            ({"kind": "curve", "model": "full", "theta": 12.5, "omega": {"start": 0.05, "stop": 0.95, "num": 37}},
             ["--theta0", "21.7", "--phi", "33.3"]),
        ],
    )
    def test_manifest_config_reproduces_the_csvs(self, tmp_path, albedo_csv, photometry_json, config, flags):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        if config["kind"] == "curve":
            flags = [*flags, "--photometry", str(photometry_json)]
        assert main(sweep_argv(albedo_csv, path, tmp_path / "a" / "s", *flags)) == 0
        echo = json.loads((tmp_path / "a" / "s.manifest.json").read_text())["config"]
        if flags:
            assert (echo["theta0"], echo["theta"], echo["phi"]) == (21.7, 12.5, 33.3)
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(echo))
        photometry = ["--photometry", str(photometry_json)] if config["kind"] == "curve" else []
        assert main(sweep_argv(albedo_csv, replay, tmp_path / "b" / "s", *photometry)) == 0
        for material in ("basalt", "palagonite", "tephra"):
            first = (tmp_path / "a" / f"s.{material}.csv").read_bytes()
            assert first == (tmp_path / "b" / f"s.{material}.csv").read_bytes()
        assert json.loads((tmp_path / "b" / "s.manifest.json").read_text())["config"] == echo
