"""Time unmix_cube's lockstep solver against the serial loop it replaced, or against another source tree.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_lockstep.py --out BENCH_3.json

For every model at P in {4, 8} materials and N in {1e3, 1e4, 1e5} pixels
(L = 200 bands, seeded linear mixtures with a per-pixel scale and noise) it
times the serial loop of tests/serial_reference.py and specmix.unmix_cube,
and writes one JSON record per case: case, params, median and IQR of the
wall times in seconds, plus the largest difference between the two outputs.

With a checkout of the commit to compare against (for example
`git archive <commit> | tar -x -C /tmp/parent`) it compares two trees instead:

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_lockstep.py --parent /tmp/parent --out BENCH_<n>.json

`--parent .` compares the tree with itself, which shows the timing noise.

Cases: unmix_cube under lmm, lmm without sum-to-one, elmm-global and
elmm-full, and the single-pixel entry point fcls (both modes) per call,
averaged over 200 pixels.  Both trees are imported into one process under
different module names.  Each case runs once per tree untimed, and those outputs (abundances, scales, residual RMSE
and degenerate flags) are compared; it then runs ROUNDS times per tree,
alternating which tree goes first, so both see the same machine state.  The
record holds, per case and tree, the median and IQR of those times, and on
the change's record the change/parent ratio of the medians, the number of
rounds the change was faster, and the largest difference between the two
trees' outputs (0 means identical).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N_BANDS = 200
#: unmix_cube cases: (case label, model, sum_to_one)
TREE_MODELS = (("lmm", "lmm", True), ("lmm-nnls", "lmm", False),
               ("elmm-global", "elmm-global", True), ("elmm-full", "elmm-full", True))
#: single-pixel cases: fcls with and without sum-to-one
SINGLE_PIXEL_LABELS = ("fcls", "fcls-nnls")
SINGLE_PIXEL_CALLS = 200
#: alternating calls per tree and case in the two-tree comparison
ROUNDS = 40


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


def machine_record(cases: list[dict]) -> dict:
    return {
        "schema": 1,
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cases": cases,
    }


def serial_cases(pixels: list[int], materials: list[int], repeats: int, serial_repeats: int) -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import serial_reference
    from specmix.core import HyperCube, WavelengthAxis
    from specmix.solver import SOLVER_MODELS, SolverConfig, unmix_cube

    cases = []
    for n_materials in materials:
        for n_pixels in pixels:
            S, X = problem(n_materials, n_pixels)
            cube = HyperCube(values=X, axis=WavelengthAxis(np.linspace(0.4, 2.5, N_BANDS)))
            for model in SOLVER_MODELS:
                config = SolverConfig(model=model)
                params = {"model": model, "P": n_materials, "N": n_pixels, "L": N_BANDS}
                batched, times = timed(lambda: unmix_cube(cube, S, config), repeats)
                serial, serial_times = timed(lambda: serial_reference.unmix_cube(X, S, model), serial_repeats)
                diff = max(float(np.max(np.abs(batched.abundances - serial[0]))),
                           float(np.max(np.abs(batched.scales - serial[1]))))
                cases.append({"case": "unmix_cube/serial", "params": {**params, "repeats": serial_repeats},
                              **summary(serial_times)})
                cases.append({"case": "unmix_cube/lockstep", "params": {**params, "repeats": repeats},
                              **summary(times), "max_abs_diff_vs_serial": diff})
                speedup = cases[-2]["median_s"] / cases[-1]["median_s"]
                print(f"{model:12s} P={n_materials} N={n_pixels:>6d}  serial {cases[-2]['median_s']:8.3f} s"
                      f"  lockstep {cases[-1]['median_s']:7.4f} s  x{speedup:5.1f}  diff {diff:.1e}",
                      flush=True)
    return cases


def load_tree(src: Path, name: str):
    """Import the specmix package under src as the module `name`, so two trees share one process."""
    spec = importlib.util.spec_from_file_location(name, src / "specmix" / "__init__.py",
                                                  submodule_search_locations=[str(src / "specmix")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def cube_outputs(solver, S, X, model: str, sum_to_one: bool) -> np.ndarray:
    result = solver.unmix_cube(X, S, solver.SolverConfig(model=model, sum_to_one=sum_to_one))
    return np.concatenate([result.abundances.ravel(), result.scales.ravel(), result.residual_rmse,
                           result.degenerate])


def pixel_outputs(solver, S, X, label: str) -> np.ndarray:
    """The single-pixel case `label` called on every column of X, its outputs concatenated."""
    return np.concatenate([solver.fcls(x, S, sum_to_one=label == "fcls") for x in X.T])


def tree_calls(solvers: dict, pixels: list[int], materials: list[int]):
    """(case name, params, {tree: call returning the case's outputs}) for every two-tree case, in run order."""
    for n_materials in materials:
        for n_pixels in pixels:
            S, X = problem(n_materials, n_pixels)
            for label, model, sum_to_one in TREE_MODELS:
                params = {"model": model, "sum_to_one": sum_to_one, "P": n_materials, "N": n_pixels, "L": N_BANDS}
                calls = {side: partial(cube_outputs, solver, S, X, model, sum_to_one)
                         for side, solver in solvers.items()}
                yield f"unmix_cube/{label}/P={n_materials}/N={n_pixels}", params, calls
        S, X = problem(n_materials, SINGLE_PIXEL_CALLS)
        for label in SINGLE_PIXEL_LABELS:
            params = {"P": n_materials, "L": N_BANDS, "calls": SINGLE_PIXEL_CALLS, "per": "call"}
            yield (f"{label}/P={n_materials}", params,
                   {side: partial(pixel_outputs, solver, S, X, label) for side, solver in solvers.items()})


def tree_cases(parent: Path, pixels: list[int], materials: list[int]) -> list[dict]:
    solvers = {"parent": load_tree(parent.resolve() / "src", "specmix_parent").solver,
               "change": load_tree(ROOT / "src", "specmix_change").solver}
    cases = []
    for key, params, calls in tree_calls(solvers, pixels, materials):
        outputs = {side: call() for side, call in calls.items()}  # untimed first call of each tree
        diff = float(np.max(np.abs(outputs["parent"] - outputs["change"])))
        times: dict[str, list[float]] = {side: [] for side in calls}
        for r in range(ROUNDS):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                start = time.perf_counter()
                calls[side]()
                times[side].append((time.perf_counter() - start) / params.get("calls", 1))
        params = {**params, "rounds": ROUNDS}
        for side in calls:
            cases.append({"case": f"{key}/{side}", "params": params, **summary(times[side])})
        ratio = cases[-1]["median_s"] / cases[-2]["median_s"]
        faster = int(np.sum(np.array(times["change"]) < np.array(times["parent"])))
        cases[-1].update(max_abs_diff_vs_parent=diff, median_ratio_vs_parent=ratio, faster_rounds=faster)
        print(f"{key:36s} parent {cases[-2]['median_s']:9.5f} s  change {cases[-1]['median_s']:9.5f} s"
              f"  change/parent {ratio:5.3f}  faster in {faster:2d}/{ROUNDS}  diff {diff:.1e}", flush=True)
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_3.json")
    parser.add_argument("--pixels", type=int, nargs="+", default=[1000, 10_000, 100_000])
    parser.add_argument("--materials", type=int, nargs="+", default=[4, 8])
    parser.add_argument("--repeats", type=int, default=5, help="lockstep runs per case")
    parser.add_argument("--serial-repeats", type=int, default=3, help="serial runs per case")
    parser.add_argument("--parent", type=Path, help="root of a source tree to compare against")
    args = parser.parse_args(argv)

    if args.parent is not None:
        cases = tree_cases(args.parent, args.pixels, args.materials)
    else:
        cases = serial_cases(args.pixels, args.materials, args.repeats, args.serial_repeats)
    Path(args.out).write_text(json.dumps(machine_record(cases), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
