"""Time the forward model (scene simulation and angle sweeps) of two specmix source trees.

Run from the repository root, with a checkout of the commit to compare
against (for example `git archive <commit> | tar -x -C /tmp/parent`) and
glibc's mmap threshold pinned, whose dynamic value alone moves these
timings by up to about 17%:

    OPENBLAS_NUM_THREADS=1 MALLOC_MMAP_THRESHOLD_=131072 python benchmarks/bench_forward.py --parent /tmp/parent --out BENCH_<n>.json

Cases, L = 200 bands: simulate_cube under the full and the linear model for
P in {4, 8} materials and N in {1e3, 1e4} pixels (uniform angles up to 70
degrees, no noise); its random draws sample_abundances and
sample_geometries (P = 4) and inject_noise (30 dB on a linear P = 4 cube)
at N in {1e3, 1e4}; write_cube and read_cube of that linear P = 4 cube
(with geometries and ground truth) at N in {1e3, 1e4}; and angle_sweep
over a 181 x 181 grid for the relative/linear and lambertian/linear pairs,
over the default 91 x 91 relative/linear grid and over a non-square
46 x 181 lambertian/linear grid (theta0 in 2-degree steps, theta in
0.5-degree ones); write_sweep_csv of one random, asymmetric 91 x 91
SweepResult (what its symmetry check costs) and of the mirrored default
91 x 91 angle_sweep result; and the CLI's default sweep command (8
albedos, 91 x 91 relative/linear, compute plus CSV files).
Their named outputs are in OUTPUTS.  A case that draws random numbers is
diffed only where both trees drew the same abundances, angles and noise.

Record, schema 2: the machine (numpy, cores, OPENBLAS_NUM_THREADS,
MALLOC_MMAP_THRESHOLD_, machine, python, min_round_s) and, per case and
tree, the median and IQR in seconds of its round times.  The change's entry
adds the change/parent ratio of the medians, the median over rounds of the
round's change/parent ratio (paired_ratio_p50), the rounds it was faster,
and diff_vs_parent: per named output max_abs and max_rel (max_abs over the
parent output's largest finite |value|; a NaN against a number is inf).
File bytes give max_abs alone, inf for another length; 0 is byte-identical.
"""

from __future__ import annotations

import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402
from harness import DRAWS, N_BANDS, Case  # noqa: E402

SIM_CASES = [(model, p, n) for model in ("full", "linear") for p in (4, 8) for n in (1000, 10_000)]
DRAW_CASES = [(stage, n) for stage in ("sample_abundances", "sample_geometries", "inject_noise")
              for n in (1000, 10_000)]
IO_CASES = [(stage, n) for n in (1000, 10_000) for stage in ("write_cube", "read_cube")]
SWEEP_PAIRS = [("relative", "linear"), ("lambertian", "linear")]
SWEEP_GRID = np.arange(0.0, 90.25, 0.5)
SWEEP_THETA0 = np.arange(0.0, 90.5, 2.0)  # the non-square grid's theta0 axis; its theta axis is SWEEP_GRID
CLI_ALBEDOS = 8


def library(tree):
    """Eight random albedo spectra and photometric parameter sets, as the tree's own types."""
    rng = np.random.default_rng(4)
    axis = tree.core.WavelengthAxis(np.linspace(0.4, 2.5, N_BANDS))
    albedos = [tree.core.AlbedoSpectrum(material=f"m{k}", omega=rng.uniform(0.05, 0.95, N_BANDS), axis=axis)
               for k in range(8)]
    photometry = [tree.core.PhotometricParams(b=rng.uniform(0.0, 0.6), c=rng.uniform(0.2, 0.8),
                                              B0=rng.uniform(0.0, 1.0), h=rng.uniform(0.03, 0.2))
                  for _ in range(8)]
    return albedos, photometry


def scene(tree, model: str, p: int, n: int):
    return tree.simulate.SceneConfig(
        n_materials=p, n_pixels=n, model=model, seed=11,
        geometry=tree.simulate.GeometrySampler(kind="uniform", theta0_range=(0.0, 70.0), theta_range=(0.0, 70.0)),
        reference=tree.core.Geometry(theta0=45.0, theta=45.0, phi=0.0),
    )


def inject_noise(tree, cube):
    return cube, tree.simulate.inject_noise(cube, 30.0, 11)


def write_cube(tree, stem: Path, cube):
    return tree.io.write_cube(stem, cube), cube


def write_sweep_csv(tree, path: Path, result) -> Path:
    tree.io.write_sweep_csv(path, result)
    return path


def cli_sweep(tree, albedo_csv: Path, stem: Path) -> Path:
    code = tree.cli.main(["sweep", "--albedo", str(albedo_csv), "--out", str(stem)])
    if code != 0:
        raise RuntimeError(f"sweep command exited {code}")
    return stem


def tree_calls(tree, out: Path) -> dict[str, tuple[dict, Callable]]:
    """Case name -> its params and the call timed in this tree, in run order; files go under out."""
    albedos, photometry = library(tree)
    calls = {}
    for model, p, n in SIM_CASES:
        calls[f"simulate_cube/{model}/P={p}/N={n}"] = ({"model": model, "P": p, "N": n, "L": N_BANDS}, partial(
            tree.simulate.simulate_cube, albedos[:p], photometry[:p], scene(tree, model, p, n)))
    for stage, n in DRAW_CASES + IO_CASES:
        config, stem = scene(tree, "linear", 4, n), out / f"{stage}{n}"
        if stage.startswith("sample"):
            call = partial(getattr(tree.simulate, stage), config)
        else:
            cube = tree.simulate.simulate_cube(albedos[:4], photometry[:4], config)
            if stage == "inject_noise":
                call = partial(inject_noise, tree, cube)
            elif stage == "write_cube":
                call = partial(write_cube, tree, stem, cube)
            else:
                call = partial(tree.io.read_cube, tree.io.write_cube(stem, cube))
        calls[f"{stage}/P=4/N={n}"] = {"P": 4, "N": n, "L": N_BANDS}, call
    grids = {f"angle_sweep/{'/'.join(pair)}": tree.metrics.SweepGrid(theta0_values=SWEEP_GRID, theta_values=SWEEP_GRID,
                                                                     model_pair=pair) for pair in SWEEP_PAIRS}
    grids["angle_sweep/relative/linear/91x91"] = tree.metrics.SweepGrid()
    grids["angle_sweep/lambertian/linear/46x181"] = tree.metrics.SweepGrid(
        theta0_values=SWEEP_THETA0, theta_values=SWEEP_GRID, model_pair=("lambertian", "linear"))
    for key, grid in grids.items():
        params = {"pair": "/".join(grid.model_pair), "cells": grid.theta0_values.size * grid.theta_values.size,
                  "L": N_BANDS}
        calls[key] = params, partial(tree.metrics.angle_sweep, albedos[0], grid)
    rng = np.random.default_rng(5)
    asymmetric = tree.metrics.SweepResult(grid=tree.metrics.SweepGrid(), sam=rng.uniform(0.0, 0.1, (91, 91)),
                                          rmse=rng.uniform(0.0, 0.01, (91, 91)), valid=np.ones((91, 91), dtype=bool))
    for name, result in [("asymmetric", asymmetric), ("mirrored", calls["angle_sweep/relative/linear/91x91"][1]())]:
        calls[f"write_sweep_csv/{name}/91x91"] = {"cells": 91 ** 2}, partial(write_sweep_csv, tree, out / "sweep.csv",
                                                                             result)
    tree.io.write_albedos(out / "albedos.csv", albedos[:CLI_ALBEDOS])
    calls[f"cli_sweep/relative/linear/{CLI_ALBEDOS}x91x91"] = (
        {"pair": "relative/linear", "albedos": CLI_ALBEDOS, "cells": 91 ** 2, "L": N_BANDS},
        partial(cli_sweep, tree, out / "albedos.csv", out / "cli"))
    return calls


def angles(geometries) -> dict[str, np.ndarray]:
    return {"theta0": geometries.theta0, "theta": geometries.theta, "phi": geometries.phi}


def draws(cube) -> np.ndarray:
    """A cube's random draws: its abundances and angles."""
    return np.concatenate([cube.ground_truth.abundances.ravel(), *angles(cube.geometries).values()])


#: first part of a case name -> the named outputs of a call's result
OUTPUTS = {
    "simulate_cube": lambda cube: {"values": cube.values, DRAWS: draws(cube)},
    "sample_abundances": lambda a: {"abundances": a, DRAWS: a},
    "sample_geometries": lambda g: {**angles(g), DRAWS: np.concatenate(list(angles(g).values()))},
    "inject_noise": lambda r: {"noise": r[1].values - r[0].values, DRAWS: r[1].values - r[0].values},
    "write_cube": lambda r: {"bin": r[0].with_suffix(".bin").read_bytes(), DRAWS: draws(r[1])},
    "read_cube": lambda cube: {"values": cube.values, **angles(cube.geometries), DRAWS: draws(cube),
                               "abundances": cube.ground_truth.abundances, "scales": cube.ground_truth.scales},
    "angle_sweep": lambda r: {"sam": r.sam, "rmse": r.rmse, "valid": r.valid},
    "write_sweep_csv": lambda path: {"csv": path.read_bytes()},
    "cli_sweep": lambda stem: {f"m{k}.csv": Path(f"{stem}.m{k}.csv").read_bytes() for k in range(CLI_ALBEDOS)},
}


def cases(trees: dict, workdir: Path):
    """Every case, in run order; each tree writes its files under workdir/<side>."""
    calls = {}
    for side, tree in trees.items():
        (workdir / side).mkdir()
        calls[side] = tree_calls(tree, workdir / side)
    for key, (params, _) in calls["change"].items():
        yield Case(key, params, {side: calls[side][key][1] for side in calls}, OUTPUTS[key.split("/")[0]])


def main(argv: list[str] | None = None) -> int:
    args = harness.parser(__doc__.splitlines()[0]).parse_args(argv)
    trees = harness.load_trees(args.parent)
    with tempfile.TemporaryDirectory() as workdir:
        harness.write_record(args.out, harness.compare(cases(trees, Path(workdir))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
