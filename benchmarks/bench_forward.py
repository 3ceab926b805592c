"""Time the forward model (scene simulation and angle sweeps) of two specmix source trees.

Run from the repository root, with a checkout of the commit to compare
against (for example `git archive <commit> | tar -x -C /tmp/parent`):

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_forward.py --parent /tmp/parent --out BENCH_<n>.json

Cases, L = 200 bands: simulate_cube under the full and the linear model for
P in {4, 8} materials and N in {1e3, 1e4} pixels (uniform angles up to 70
degrees, no noise); its random draws sample_abundances and
sample_geometries (P = 4) and inject_noise (30 dB on a linear P = 4 cube)
at N in {1e3, 1e4}; write_cube and read_cube of that linear P = 4 cube
(with geometries and ground truth) at N in {1e3, 1e4}; and angle_sweep
over a 181 x 181 grid for the
relative/linear and lambertian/linear pairs and over the default 91 x 91
relative/linear grid; write_sweep_csv of one random, asymmetric 91 x 91
SweepResult (what its symmetry check costs) and of the mirrored default
91 x 91 angle_sweep result; and the CLI's default sweep command (8 albedos,
91 x 91 relative/linear, compute plus CSV files).  Each round times every
case once in a fresh process per tree, alternating which tree runs first.
The record holds, per case and tree, the median and IQR of the wall times
in seconds, plus the largest difference between the two trees' outputs: for
write_sweep_csv and the CLI sweep, between the CSV file bytes (0 means
byte-identical, inf that the files differ in length); for write_cube,
between the cube's .bin files; for read_cube, between the cube, angles and ground truth read back
(the sidecar formats may differ).  A case that draws random
numbers records that difference only where both trees drew the same
numbers (same abundances, angles and noise); where the random stream
differs, it is null and a note says why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N_BANDS = 200
SIM_CASES = [(model, p, n) for model in ("full", "linear") for p in (4, 8) for n in (1000, 10_000)]
DRAW_CASES = [(stage, n) for stage in ("sample_abundances", "sample_geometries", "inject_noise")
              for n in (1000, 10_000)]
IO_CASES = [(stage, n) for n in (1000, 10_000) for stage in ("write_cube", "read_cube")]
SWEEP_PAIRS = [("relative", "linear"), ("lambertian", "linear")]
SWEEP_GRID = np.arange(0.0, 90.25, 0.5)
DEFAULT_SWEEP = "angle_sweep/relative/linear/91x91"
WRITE_SWEEPS = ["write_sweep_csv/asymmetric/91x91", "write_sweep_csv/mirrored/91x91"]
CLI_SWEEP = "cli_sweep/relative/linear/8x91x91"


def case_params() -> dict[str, dict]:
    """Case name -> its parameters, in run order."""
    cases = {f"simulate_cube/{model}/P={p}/N={n}": {"model": model, "P": p, "N": n, "L": N_BANDS}
             for model, p, n in SIM_CASES}
    for stage, n in DRAW_CASES + IO_CASES:
        cases[f"{stage}/P=4/N={n}"] = {"P": 4, "N": n, "L": N_BANDS}
    for pair in SWEEP_PAIRS:
        cases[f"angle_sweep/{'/'.join(pair)}"] = {"pair": "/".join(pair), "cells": SWEEP_GRID.size ** 2,
                                                  "L": N_BANDS}
    cases[DEFAULT_SWEEP] = {"pair": "relative/linear", "cells": 91 ** 2, "L": N_BANDS}
    for key in WRITE_SWEEPS:
        cases[key] = {"cells": 91 ** 2}
    cases[CLI_SWEEP] = {"pair": "relative/linear", "albedos": 8, "cells": 91 ** 2, "L": N_BANDS}
    return cases


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def run_cases(dump: Path | None) -> dict[str, float]:
    """Time every case once with the specmix on sys.path; optionally save the outputs.

    The dump holds each case's output under its name and, for cases that
    draw random numbers, the draws under "draws|" + name.
    """
    from specmix import cli, core, io, metrics, simulate

    rng = np.random.default_rng(4)
    axis = core.WavelengthAxis(np.linspace(0.4, 2.5, N_BANDS))
    albedos = [
        core.AlbedoSpectrum(material=f"m{k}", omega=rng.uniform(0.05, 0.95, N_BANDS), axis=axis)
        for k in range(8)
    ]
    photometry = [
        core.PhotometricParams(b=rng.uniform(0.0, 0.6), c=rng.uniform(0.2, 0.8),
                               B0=rng.uniform(0.0, 1.0), h=rng.uniform(0.03, 0.2))
        for _ in range(8)
    ]

    def scene(model: str, p: int, n: int) -> simulate.SceneConfig:
        return simulate.SceneConfig(
            n_materials=p, n_pixels=n, model=model, seed=11,
            geometry=simulate.GeometrySampler(kind="uniform", theta0_range=(0.0, 70.0), theta_range=(0.0, 70.0)),
            reference=core.Geometry(theta0=45.0, theta=45.0, phi=0.0),
        )

    def angles(geometries) -> np.ndarray:
        """Pixels x (theta0, theta, phi) of a cube's geometries."""
        return np.column_stack([geometries.theta0, geometries.theta, geometries.phi])

    times, outputs = {}, {}
    for model, p, n in SIM_CASES:
        key = f"simulate_cube/{model}/P={p}/N={n}"
        cube, times[key] = timed(simulate.simulate_cube, albedos[:p], photometry[:p], scene(model, p, n))
        outputs[key] = cube.values
        outputs["draws|" + key] = np.concatenate([cube.ground_truth.abundances.ravel(),
                                                  angles(cube.geometries).ravel()])
    for stage, n in DRAW_CASES:
        key = f"{stage}/P=4/N={n}"
        if stage == "sample_abundances":
            out, times[key] = timed(simulate.sample_abundances, scene("linear", 4, n))
        elif stage == "sample_geometries":
            geometries, times[key] = timed(simulate.sample_geometries, scene("linear", 4, n))
            out = angles(geometries)
        else:
            cube = simulate.simulate_cube(albedos[:4], photometry[:4], scene("linear", 4, n))
            noisy, times[key] = timed(simulate.inject_noise, cube, 30.0, 11)
            out = noisy.values - cube.values
        outputs[key] = outputs["draws|" + key] = out
    with tempfile.TemporaryDirectory() as workdir:
        for n in sorted({n for _, n in IO_CASES}):
            cube = simulate.simulate_cube(albedos[:4], photometry[:4], scene("linear", 4, n))
            draws = np.concatenate([cube.ground_truth.abundances.ravel(), angles(cube.geometries).ravel()])
            stem = Path(workdir) / f"cube{n}"
            write_key, read_key = f"write_cube/P=4/N={n}", f"read_cube/P=4/N={n}"
            sidecar, times[write_key] = timed(io.write_cube, stem, cube)
            loaded, times[read_key] = timed(io.read_cube, sidecar)
            outputs[write_key] = np.frombuffer(stem.with_suffix(".bin").read_bytes(), dtype="<f8")
            truth = loaded.ground_truth
            outputs[read_key] = np.concatenate([loaded.values.ravel(), angles(loaded.geometries).ravel(),
                                                truth.abundances.ravel(), truth.scales.ravel()])
            outputs["draws|" + write_key] = outputs["draws|" + read_key] = draws
    sweeps = [(f"angle_sweep/{'/'.join(pair)}",
               metrics.SweepGrid(theta0_values=SWEEP_GRID, theta_values=SWEEP_GRID, model_pair=pair))
              for pair in SWEEP_PAIRS]
    results = {}
    for key, sweep_grid in sweeps + [(DEFAULT_SWEEP, metrics.SweepGrid())]:
        results[key], times[key] = timed(metrics.angle_sweep, albedos[0], sweep_grid)
        outputs[key] = np.stack([results[key].sam, results[key].rmse, results[key].valid])
    asymmetric = metrics.SweepResult(grid=metrics.SweepGrid(), sam=rng.uniform(0.0, 0.1, (91, 91)),
                                     rmse=rng.uniform(0.0, 0.01, (91, 91)), valid=np.ones((91, 91), dtype=bool))
    with tempfile.TemporaryDirectory() as workdir:
        csv_path = Path(workdir) / "sweep.csv"
        for key, written in zip(WRITE_SWEEPS, (asymmetric, results[DEFAULT_SWEEP])):
            _, times[key] = timed(io.write_sweep_csv, csv_path, written)
            outputs[key] = file_bytes(csv_path)
        io.write_albedos(Path(workdir) / "albedos.csv", albedos)
        argv = ["sweep", "--albedo", str(Path(workdir) / "albedos.csv"), "--out", str(Path(workdir) / "cli")]
        code, times[CLI_SWEEP] = timed(cli.main, argv)
        assert code == 0, f"sweep command exited {code}"
        outputs[CLI_SWEEP] = np.concatenate([file_bytes(Path(workdir) / f"cli.m{k}.csv") for k in range(8)])
    if dump is not None:
        np.savez(dump, **{key.replace("/", "|"): value for key, value in outputs.items()})
    return times


def file_bytes(path: Path) -> np.ndarray:
    """A file's bytes as floats, so that two trees' files diff like any other output."""
    return np.frombuffer(path.read_bytes(), dtype=np.uint8).astype(float)


def max_abs_diff(parent: np.ndarray, change: np.ndarray) -> float:
    """Largest absolute difference; inf when the shapes differ, such as files of different length."""
    if parent.shape != change.shape:
        return float("inf")
    return float(np.nanmax(np.abs(parent - change)))


def worker(src: Path, dump: Path | None) -> dict[str, float]:
    """Run one round in a fresh process that imports specmix from src."""
    command = [sys.executable, __file__, "--worker", str(src)] + (["--dump", str(dump)] if dump else [])
    proc = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(times: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(median), "iqr_s": float(q3 - q1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="root of the source tree to compare against")
    parser.add_argument("--out", help="record path, BENCH_<n>.json (required with --parent)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        sys.path.insert(0, str(args.worker))
        print(json.dumps(run_cases(args.dump)))
        return 0
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required")

    trees = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    times: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    with tempfile.TemporaryDirectory() as scratch:
        dumps = {side: Path(scratch) / f"{side}.npz" for side in trees}
        for r in range(args.rounds):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for side in order:
                for key, seconds in worker(trees[side], dumps[side] if r == 0 else None).items():
                    times[side].setdefault(key, []).append(seconds)
            print(f"round {r + 1}/{args.rounds} done", flush=True)
        parent_out, change_out = (np.load(dumps[side]) for side in trees)
        diffs: dict[str, float | None] = {}
        for key in parent_out.files:
            draws = "draws|" + key
            if draws in parent_out.files and not np.array_equal(parent_out[draws], change_out[draws]):
                diffs[key.replace("|", "/")] = None
            elif not key.startswith("draws|"):
                diffs[key.replace("|", "/")] = max_abs_diff(parent_out[key], change_out[key])

    cases = []
    for key, params in case_params().items():
        params["rounds"] = args.rounds
        for side in trees:
            cases.append({"case": f"{key}/{side}", "params": params, **summary(times[side][key])})
        cases[-1]["max_abs_diff_vs_parent"] = diffs[key]
        if diffs[key] is None:
            cases[-1]["diff_note"] = ("not comparable: the two trees draw different random numbers "
                                      "(abundances, angles or noise), so their outputs differ by design")
        diff = "n/c" if diffs[key] is None else f"{diffs[key]:.1e}"
        print(f"{key:36s} parent {cases[-2]['median_s']:7.3f} s  change {cases[-1]['median_s']:7.3f} s"
              f"  x{cases[-2]['median_s'] / cases[-1]['median_s']:4.1f}  diff {diff}")
    record = {
        "schema": 1,
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
