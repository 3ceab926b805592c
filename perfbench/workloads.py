"""The benchmark's three workloads: inputs, one op each, and its checks.

Every input is generated here from the workload seed; specmix receives only
the generated objects and files.  The synthetic spectral library is fixed
(as a real library would be): eight smooth albedo spectra, a sloped
continuum times two to four Gaussian absorption bands, clipped to
[0.02, 0.98].  At 200 bands its first four spectra have cond(S0) ~ 29 and
all eight ~ 198, the conditioning an active-set solver meets on real
libraries.  The seed draws the scenes: abundances, angles, noise.

Each workload exposes run_op(i), the timed call into specmix, and
check(i, out), which judges that op's outputs with checker (independent of
specmix) and returns per-op statistics for the traced run's metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import statistics
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

from specmix import cli, core, hapke, metrics, simulate, solver
from specmix import io as specmix_io

import checker

LIBRARY_SEED = 3
SNR_DB = 40.0
UNMIX_MODELS = ("lmm", "elmm-global", "elmm-full")
SWEEP_PAIRS = (("relative", "linear"), ("lambertian", "linear"))
#: The CLI's default angle sweep: 0..90 degrees in 1 degree steps, both axes.
CLI_SWEEP_CELLS = 91 * 91


@dataclass(frozen=True)
class Sizes:
    bands: int
    tiles: int
    tile_px: int
    forward_px: int
    sweep_step_deg: float
    cli_px: int


FULL = Sizes(bands=200, tiles=8, tile_px=4096, forward_px=1024, sweep_step_deg=0.5, cli_px=1024)
#: Seconds-scale sizes for the benchmark's own tests.
TINY = Sizes(bands=16, tiles=2, tile_px=48, forward_px=24, sweep_step_deg=15.0, cli_px=24)


def library(bands: int) -> tuple[np.ndarray, np.ndarray]:
    """Wavelengths (micrometers) and the bands x 8 albedo matrix."""
    wl = np.linspace(0.4, 2.5, bands)
    x = (wl - wl[0]) / (wl[-1] - wl[0])
    rng = np.random.default_rng(LIBRARY_SEED)
    columns = []
    for _ in range(8):
        spectrum = rng.uniform(0.35, 0.75) + rng.uniform(-0.25, 0.25) * (x - 0.5)
        for _ in range(rng.integers(2, 5)):
            centre, width, depth = rng.uniform(0.5, 2.4), rng.uniform(0.04, 0.25), rng.uniform(0.1, 0.5)
            spectrum = spectrum * (1.0 - depth * np.exp(-0.5 * ((wl - centre) / width) ** 2))
        columns.append(np.clip(spectrum, 0.02, 0.98))
    return wl, np.column_stack(columns)


def library_photometry(count: int) -> list[core.PhotometricParams]:
    rng = np.random.default_rng([LIBRARY_SEED, 1])
    return [
        core.PhotometricParams(
            b=rng.uniform(0.1, 0.5), c=rng.uniform(0.3, 0.8), B0=rng.uniform(0.2, 1.0), h=rng.uniform(0.05, 0.3)
        )
        for _ in range(count)
    ]


def derive(*keys: int) -> int:
    """A scene seed derived from the workload seed and an op's coordinates."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def linear_gain(mu, mu0):
    """Denominator of the linear reflectance model, 4 mu mu0 + 2 mu + 2 mu0 + 1."""
    return 4.0 * mu * mu0 + 2.0 * mu + 2.0 * mu0 + 1.0


def _cos_deg(angle):
    return np.cos(np.radians(angle))


class Workload:
    """Shared bookkeeping: per-phase call times of measured ops (i > 0)."""

    name = ""
    #: phase -> (reported name, work units per call, unit) for the printed rates
    rates: dict[str, tuple[str, int, str]] = {}

    def __init__(self) -> None:
        self.phase_times: dict[str, list[float]] = {}
        self.outputs_sha256: str | None = None

    def _timed(self, phase: str, i: int, fn, *args):
        start = perf_counter()
        result = fn(*args)
        if i > 0:
            self.phase_times.setdefault(phase, []).append(perf_counter() - start)
        return result

    def probe(self) -> None:
        """Stage-by-stage calls that only the traced run makes."""

    def finish(self) -> dict[str, float]:
        """Per-layer values computed once, after the traced run's ops."""
        return {}

    def close(self) -> None:
        pass


class UnmixP4(Workload):
    """Eight 64 x 64 linear-model tiles, P = 4, unmixed by each model in turn."""

    name = "unmix-p4"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        super().__init__()
        wl, omega = library(sizes.bands)
        self.axis = core.WavelengthAxis(wl)
        cos45 = _cos_deg(45.0)
        reference_gain = linear_gain(cos45, cos45)
        self.endmembers = core.EndmemberMatrix(values=omega[:, :4] / reference_gain, materials=("m0", "m1", "m2", "m3"))
        S0 = self.endmembers.values
        self.tiles: list[core.HyperCube] = []
        self.truth: list[np.ndarray] = []
        for tile in range(sizes.tiles):
            rng = np.random.default_rng([seed, 1, tile])
            A = rng.dirichlet(np.ones(4), size=sizes.tile_px).T
            # the linear gain does not depend on azimuth, so none is drawn
            mu0 = _cos_deg(rng.uniform(0.0, 70.0, sizes.tile_px))
            mu = _cos_deg(rng.uniform(0.0, 70.0, sizes.tile_px))
            X = S0 @ ((reference_gain / linear_gain(mu, mu0)) * A)
            sigma = np.sqrt(np.mean(X * X) / 10.0 ** (SNR_DB / 10.0))
            X += rng.normal(0.0, sigma, X.shape)
            self.tiles.append(core.HyperCube(values=X, axis=self.axis))
            self.truth.append(A)
        self.configs = {model: solver.SolverConfig(model=model) for model in UNMIX_MODELS}
        self.psi_bounds = self.configs["elmm-full"].psi_bounds
        self.rates = {model: (f"{model.replace('-', '_')}_px_per_s", sizes.tile_px, "px/s") for model in UNMIX_MODELS}
        self.sq_err: dict[int, tuple[float, int]] = {}

    def inputs_sha256(self) -> str:
        return digest(self.endmembers.values, *(t.values for t in self.tiles), *self.truth)

    def run_op(self, i: int):
        tile = i % len(self.tiles)
        cube = self.tiles[tile]
        results = {
            model: self._timed(model, i, solver.unmix_cube, cube, self.endmembers, self.configs[model])
            for model in UNMIX_MODELS
        }
        return tile, results

    def check(self, i: int, out) -> dict[str, float]:
        tile, results = out
        X = self.tiles[tile].values
        S0 = self.endmembers.values
        objective, kkt = {}, 0.0
        for model, result in results.items():
            verdict = checker.check_unmix(S0, X, np.asarray(result.abundances), np.asarray(result.scales), model, self.psi_bounds)
            objective[model] = verdict["objective"]
            kkt = max(kkt, verdict["kkt_max_rel"])
        checker.check_objective_order(objective["elmm-full"], objective["elmm-global"], X)
        error = np.asarray(results["elmm-global"].abundances) - self.truth[tile]
        self.sq_err[tile] = (float(np.sum(error * error)), error.size)
        flags = [getattr(r, "degenerate", None) for r in results.values()]
        degenerate = [0 if d is None else np.count_nonzero(d) for d in flags]
        return _solver_stats(
            results["elmm-full"].abundances,
            [r.scales for model, r in results.items() if model != "lmm"],
            float(np.mean(degenerate)),
            getattr(results["elmm-full"], "iterations", None),
            self.psi_bounds,
            kkt,
        )

    def probe(self) -> None:
        _probe_solver(self.tiles[0].values, self.endmembers, self.axis)

    def finish(self) -> dict[str, float]:
        """Abundance RMSE of elmm-global against the truth over every tile."""
        for tile, cube in enumerate(self.tiles):
            if tile not in self.sq_err:
                result = solver.unmix_cube(cube, self.endmembers, self.configs["elmm-global"])
                error = np.asarray(result.abundances) - self.truth[tile]
                self.sq_err[tile] = (float(np.sum(error * error)), error.size)
        total = sum(s for s, _ in self.sq_err.values())
        count = sum(n for _, n in self.sq_err.values())
        return {"solver.abundance_rmse": float(np.sqrt(total / count))}


def _probe_solver(X: np.ndarray, endmembers: core.EndmemberMatrix, axis: core.WavelengthAxis) -> None:
    """Single-pixel fcls calls and 1-px unmix_cube calls on the workload's own pixels."""
    for n in range(min(100, X.shape[1])):
        solver.fcls(X[:, n], endmembers)
    one_pixel = core.HyperCube(values=X[:, :1], axis=axis)
    lmm = solver.SolverConfig(model="lmm")
    for _ in range(30):
        solver.unmix_cube(one_pixel, endmembers, lmm)


def _solver_stats(A, scaled_psi, degenerate_px, iterations, psi_bounds, kkt) -> dict[str, float]:
    """Counts that explain solver time, from one op's outputs.

    A is the elmm-full abundance matrix, scaled_psi the scale matrices of
    the scaled models, degenerate_px the degenerate pixels per unmix call.
    """
    lo, hi = psi_bounds
    stats = {
        "solver.kkt_max_rel": kkt,
        "solver.support_mean": float(np.mean(np.count_nonzero(np.asarray(A) > 0.0, axis=0))),
        "solver.psi_at_bound_px": float(np.mean([np.count_nonzero(((psi == lo) | (psi == hi)).any(axis=0)) for psi in scaled_psi])),
        "solver.degenerate_px": degenerate_px,
    }
    if iterations is not None:
        stats["solver.elmm_full_iterations_mean"] = float(np.mean(iterations))
    return stats


class Forward(Workload):
    """Reflectance-model work: full and linear scene simulation, angle sweeps."""

    name = "forward"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        super().__init__()
        wl, omega = library(sizes.bands)
        axis = core.WavelengthAxis(wl)
        self.albedos = [core.AlbedoSpectrum(material=f"m{k}", omega=omega[:, k], axis=axis) for k in range(4)]
        self.photometry = library_photometry(4)
        self.geometry = simulate.GeometrySampler(kind="uniform", theta0_range=(0.0, 70.0), theta_range=(0.0, 70.0))
        self.reference = core.Geometry(theta0=45.0, theta=45.0, phi=0.0)
        grid = np.arange(0.0, 90.0 + sizes.sweep_step_deg / 2, sizes.sweep_step_deg)
        self.grids = [metrics.SweepGrid(theta0_values=grid, theta_values=grid, model_pair=pair) for pair in SWEEP_PAIRS]
        rng = np.random.default_rng([seed, 2])
        self.probe_geometries = [
            core.Geometry(theta0=t0, theta=t, phi=p)
            for t0, t, p in zip(rng.uniform(0, 70, 64), rng.uniform(0, 70, 64), rng.uniform(0, 180, 64))
        ]
        self.seed, self.sizes = seed, sizes
        cells = sum(g.theta0_values.size * g.theta_values.size for g in self.grids)
        self.rates = {
            "simulate-full": ("simulate_full_px_per_s", sizes.forward_px, "px/s"),
            "simulate-linear": ("simulate_linear_px_per_s", sizes.forward_px, "px/s"),
            "sweep": ("sweep_cells_per_s", cells, "cells/s"),
        }

    def scene(self, i: int, model: str) -> simulate.SceneConfig:
        return simulate.SceneConfig(
            n_materials=len(self.albedos),
            n_pixels=self.sizes.forward_px,
            model=model,
            geometry=self.geometry,
            reference=self.reference,
            snr_db=SNR_DB if model == "full" else None,
            seed=derive(self.seed, 2, i, ("full", "linear").index(model)),
        )

    def inputs_sha256(self) -> str:
        scenes = [self.scene(i, model).to_dict() for i in range(8) for model in ("full", "linear")]
        photometry = [[p.b, p.c, p.B0, p.h] for p in self.photometry]
        return digest(
            *(a.omega for a in self.albedos),
            json.dumps([scenes, photometry, [g.theta0_values.tolist() for g in self.grids]]).encode(),
            *(np.array([g.theta0, g.theta, g.phi]) for g in self.probe_geometries),
        )

    def run_op(self, i: int):
        full = self._timed("simulate-full", i, simulate.simulate_cube, self.albedos, self.photometry, self.scene(i, "full"))
        linear = self._timed("simulate-linear", i, simulate.simulate_cube, self.albedos, self.photometry, self.scene(i, "linear"))
        albedo = self.albedos[i % len(self.albedos)]
        sweeps = self._timed("sweep", i, lambda: [metrics.angle_sweep(albedo, grid) for grid in self.grids])
        return full, linear, sweeps

    def check(self, i: int, out) -> dict[str, float]:
        full, linear, sweeps = out
        shape = (self.sizes.bands, self.sizes.forward_px)
        for model, cube in (("full", full), ("linear", linear)):
            X = np.asarray(cube.values)
            if X.shape != shape or not np.all(np.isfinite(X)):
                raise checker.CheckFailed(f"{model} cube: shape {X.shape} (expected {shape}) or non-finite values")
            checker.check_simplex(np.asarray(cube.ground_truth.abundances), f"{model} ground truth")
        truth = linear.ground_truth
        checker.check_linear_identity(
            np.asarray(linear.values), np.asarray(truth.endmembers.values), np.asarray(truth.scales), np.asarray(truth.abundances)
        )
        for grid, sweep in zip(self.grids, sweeps):
            checker.check_sweep(grid.theta0_values, grid.theta_values, grid.model_pair, sweep.valid, sweep.sam, sweep.rmse)
        if i == 0:
            self.outputs_sha256 = digest(full.values, linear.values, *(s.sam for s in sweeps), *(s.rmse for s in sweeps))
        return {}

    def probe(self) -> None:
        # no op evaluates these two models per spectrum; time them on the same albedos
        for model in ("lambertian", "relative"):
            for geom in self.probe_geometries:
                for albedo in self.albedos:
                    hapke.endmember_variant(albedo, geom, model)


class CliPipeline(Workload):
    """simulate -> unmix -> verify -> sweep through specmix.cli.main, in process."""

    name = "cli-pipeline"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        super().__init__()
        self.workdir = workdir
        inputs, self.out = workdir / "inputs", workdir / "outputs"
        inputs.mkdir(parents=True)
        self.out.mkdir()
        wl, omega = library(sizes.bands)
        self.axis = core.WavelengthAxis(wl)
        self.albedo_csv = inputs / "albedos.csv"
        specmix_io.write_albedos(
            self.albedo_csv,
            [core.AlbedoSpectrum(material=f"m{k}", omega=omega[:, k], axis=self.axis) for k in range(8)],
        )
        self.scene_json = inputs / "scene.json"
        self.scene_json.write_text(json.dumps({
            "n_materials": 8,
            "n_pixels": sizes.cli_px,
            "model": "linear",
            "abundances": {"kind": "dirichlet", "alpha": 0.3},
            "geometry": {"kind": "uniform", "theta0_range": [0.0, 80.0], "theta_range": [0.0, 80.0]},
            "reference": {"theta0": 30.0, "theta": 0.0, "phi": 0.0},
            "snr_db": None,
            "seed": derive(seed, 3),
        }))
        o = self.out
        self.commands = [
            ["simulate", "--config", str(self.scene_json), "--albedo", str(self.albedo_csv), "--out", str(o / "cube")],
            ["unmix", "--cube", str(o / "cube.json"), "--endmembers", str(o / "cube.endmembers.csv"), "--out", str(o / "unmix")],
            ["verify", "--cube", str(o / "cube.json"), "--out", str(o / "verify.json")],
            ["sweep", "--albedo", str(self.albedo_csv), "--out", str(o / "sweep")],
        ]
        self.psi_bounds = solver.SolverConfig().psi_bounds
        self.shape = (sizes.bands, 8, sizes.cli_px)
        self.reference_digests: dict[str, str] | None = None

    def inputs_sha256(self) -> str:
        return digest(self.albedo_csv.read_bytes(), self.scene_json.read_bytes())

    def run_op(self, i: int):
        log = StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = [self._timed(argv[0], i, cli.main, list(argv)) for argv in self.commands]
        return codes, log.getvalue()

    def _read(self):
        bands, materials, pixels = self.shape
        X = checker.read_f64(self.out / "cube.bin", bands, pixels)
        S0 = checker.read_spectra_csv(self.out / "cube.endmembers.csv")
        A = checker.read_f64(self.out / "unmix.a.bin", materials, pixels)
        psi = checker.read_f64(self.out / "unmix.psi.bin", materials, pixels)
        return X, S0, A, psi

    def check(self, i: int, out) -> dict[str, float]:
        codes, log = out
        if codes != [0] * len(self.commands):
            raise checker.CheckFailed(f"exit codes {codes}: {log.strip()[-500:]}")
        if json.loads((self.out / "verify.json").read_text()).get("ok") is not True:
            raise checker.CheckFailed("verify reported violations")
        X, S0, A, psi = self._read()
        verdict = checker.check_unmix(S0, X, A, psi, "elmm-full", self.psi_bounds)
        sweeps = sorted(self.out.glob("sweep.*.csv"))
        if len(sweeps) != self.shape[1]:
            raise checker.CheckFailed(f"{len(sweeps)} sweep CSVs for {self.shape[1]} materials")
        for path in sweeps:
            checker.check_sweep_csv(path, CLI_SWEEP_CELLS)
        digests = checker.file_digests(p for p in self.out.iterdir() if p.suffix in (".bin", ".csv"))
        if self.reference_digests is None:
            self.reference_digests = digests
            self.outputs_sha256 = digest(json.dumps(digests, sort_keys=True).encode())
        else:
            checker.check_same_bytes(digests, self.reference_digests)
        summary = json.loads((self.out / "unmix.json").read_text())
        stats = _solver_stats(
            A, [psi], float(summary.get("degenerate_pixels", 0)), summary.get("iterations"), self.psi_bounds, verdict["kkt_max_rel"]
        )
        stats.update({
            "io.cube_sidecar_bytes": float((self.out / "cube.json").stat().st_size),
            "io.unmix_json_bytes": float((self.out / "unmix.json").stat().st_size),
            "io.sweep_csv_bytes": float(sum(p.stat().st_size for p in sweeps)),
            "io.bytes_written": float(sum(p.stat().st_size for p in self.out.iterdir())),
        })
        return stats

    def probe(self) -> None:
        X, S0, _, _ = self._read()
        _probe_solver(X, core.EndmemberMatrix(values=S0, materials=tuple(f"m{k}" for k in range(S0.shape[1]))), self.axis)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (UnmixP4, Forward, CliPipeline)}


def phase_summary(workload: Workload) -> dict[str, dict[str, float]]:
    """Median rate (or time) of each phase of the measured ops."""
    out = {}
    for phase, times in workload.phase_times.items():
        name, work, unit = workload.rates.get(phase, (f"{phase}_s", 0, "s"))
        median = statistics.median(times)
        out[name] = {"value": work / median if work else median, "unit": unit, "n": len(times), "max_s": max(times)}
    return out
