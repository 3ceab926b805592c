"""Time unmix_cube's lockstep solver against the serial per-pixel loop it replaced.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_lockstep.py --out BENCH_3.json

For every model at P in {4, 8} materials and N in {1e3, 1e4, 1e5} pixels
(L = 200 bands, seeded linear mixtures with a per-pixel scale and noise) it
times the serial loop of tests/serial_reference.py and specmix.unmix_cube,
and writes one JSON record per case: case, params, median and IQR of the
wall times in seconds, plus the largest difference between the two outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import serial_reference  # noqa: E402
from specmix.core import HyperCube, WavelengthAxis  # noqa: E402
from specmix.solver import SOLVER_MODELS, SolverConfig, unmix_cube  # noqa: E402

N_BANDS = 200


def problem(n_materials: int, n_pixels: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.05, 1.0, (N_BANDS, n_materials))
    Z = rng.dirichlet(np.full(n_materials, 0.5), n_pixels).T * rng.uniform(0.7, 1.3, n_pixels)
    X = S @ Z
    X += rng.normal(0.0, 0.005, X.shape)
    return S, X


def timed(fn, repeats: int):
    """The last output of fn and the wall times of `repeats` calls."""
    times, out = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return out, times


def summary(times: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(median), "iqr_s": float(q3 - q1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_3.json")
    parser.add_argument("--pixels", type=int, nargs="+", default=[1000, 10_000, 100_000])
    parser.add_argument("--materials", type=int, nargs="+", default=[4, 8])
    parser.add_argument("--repeats", type=int, default=5, help="lockstep runs per case")
    parser.add_argument("--serial-repeats", type=int, default=3, help="serial runs per case")
    args = parser.parse_args(argv)

    cases = []
    for n_materials in args.materials:
        for n_pixels in args.pixels:
            S, X = problem(n_materials, n_pixels)
            cube = HyperCube(values=X, axis=WavelengthAxis(np.linspace(0.4, 2.5, N_BANDS)))
            for model in SOLVER_MODELS:
                config = SolverConfig(model=model)
                params = {"model": model, "P": n_materials, "N": n_pixels, "L": N_BANDS}
                batched, times = timed(lambda: unmix_cube(cube, S, config), args.repeats)
                serial, serial_times = timed(lambda: serial_reference.unmix_cube(X, S, model),
                                             args.serial_repeats)
                diff = max(float(np.max(np.abs(batched.abundances - serial[0]))),
                           float(np.max(np.abs(batched.scales - serial[1]))))
                cases.append({"case": "unmix_cube/serial", "params": {**params, "repeats": args.serial_repeats},
                              **summary(serial_times)})
                cases.append({"case": "unmix_cube/lockstep", "params": {**params, "repeats": args.repeats},
                              **summary(times), "max_abs_diff_vs_serial": diff})
                speedup = cases[-2]["median_s"] / cases[-1]["median_s"]
                print(f"{model:12s} P={n_materials} N={n_pixels:>6d}  serial {cases[-2]['median_s']:8.3f} s"
                      f"  lockstep {cases[-1]['median_s']:7.4f} s  x{speedup:5.1f}  diff {diff:.1e}",
                      flush=True)
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
