"""Time the forward model (simulate_cube and angle_sweep) of two specmix source trees.

Run from the repository root, with a checkout of the commit to compare
against (for example `git archive <commit> | tar -x -C /tmp/parent`):

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_forward.py --parent /tmp/parent --out BENCH_4.json

Cases, L = 200 bands: simulate_cube under the full and the linear model for
P in {4, 8} materials and N in {1e3, 1e4} pixels (uniform angles up to 70
degrees, no noise), and angle_sweep over a 181 x 181 grid for the
relative/linear and lambertian/linear pairs.  Each round times every case
once in a fresh process per tree, alternating which tree runs first.  The
record holds, per case and tree, the median and IQR of the wall times in
seconds, plus the largest difference between the two trees' outputs.
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
SWEEP_PAIRS = [("relative", "linear"), ("lambertian", "linear")]
SWEEP_GRID = np.arange(0.0, 90.25, 0.5)


def case_params() -> dict[str, dict]:
    """Case name -> its parameters, in run order."""
    cases = {f"simulate_cube/{model}/P={p}/N={n}": {"model": model, "P": p, "N": n, "L": N_BANDS}
             for model, p, n in SIM_CASES}
    for pair in SWEEP_PAIRS:
        cases[f"angle_sweep/{'/'.join(pair)}"] = {"pair": "/".join(pair), "cells": SWEEP_GRID.size ** 2,
                                                  "L": N_BANDS}
    return cases


def run_cases(dump: Path | None) -> dict[str, float]:
    """Time every case once with the specmix on sys.path; optionally save the outputs."""
    from specmix import core, metrics, simulate

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
    times, outputs = {}, {}
    for model, p, n in SIM_CASES:
        config = simulate.SceneConfig(
            n_materials=p, n_pixels=n, model=model, seed=11,
            geometry=simulate.GeometrySampler(kind="uniform", theta0_range=(0.0, 70.0), theta_range=(0.0, 70.0)),
            reference=core.Geometry(theta0=45.0, theta=45.0, phi=0.0),
        )
        start = time.perf_counter()
        cube = simulate.simulate_cube(albedos[:p], photometry[:p], config)
        key = f"simulate_cube/{model}/P={p}/N={n}"
        times[key] = time.perf_counter() - start
        outputs[key] = cube.values
    for pair in SWEEP_PAIRS:
        sweep_grid = metrics.SweepGrid(theta0_values=SWEEP_GRID, theta_values=SWEEP_GRID, model_pair=pair)
        start = time.perf_counter()
        result = metrics.angle_sweep(albedos[0], sweep_grid)
        key = f"angle_sweep/{'/'.join(pair)}"
        times[key] = time.perf_counter() - start
        outputs[key] = np.stack([result.sam, result.rmse])
    if dump is not None:
        np.savez(dump, **{key.replace("/", "|"): value for key, value in outputs.items()})
    return times


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
    parser.add_argument("--out", default="BENCH_4.json")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        sys.path.insert(0, str(args.worker))
        print(json.dumps(run_cases(args.dump)))
        return 0
    if args.parent is None:
        parser.error("--parent is required")

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
        diffs = {key.replace("|", "/"): float(np.nanmax(np.abs(parent_out[key] - change_out[key])))
                 for key in parent_out.files}

    cases = []
    for key, params in case_params().items():
        params["rounds"] = args.rounds
        for side in trees:
            cases.append({"case": f"{key}/{side}", "params": params, **summary(times[side][key])})
        cases[-1]["max_abs_diff_vs_parent"] = diffs[key]
        print(f"{key:36s} parent {cases[-2]['median_s']:7.3f} s  change {cases[-1]['median_s']:7.3f} s"
              f"  x{cases[-2]['median_s'] / cases[-1]['median_s']:4.1f}  diff {diffs[key]:.1e}")
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
