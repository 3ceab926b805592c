"""Time unmix_cube's lockstep solver, and fcls, in two specmix source trees.

Run from the repository root, with a checkout of the commit to compare
against (for example `git archive <commit> | tar -x -C /tmp/parent`):

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_lockstep.py --parent /tmp/parent --out BENCH_<n>.json

`--parent .` compares the tree with itself: the timing noise, and every diff 0.

Cases, L = 200 bands, seeded linear mixtures with noise:
- unmix_cube under lmm, lmm without sum-to-one (lmm-nnls), elmm-global and
  elmm-full, for P in --materials and N in --pixels, per-pixel scales in
  [0.7, 1.3];
- the same four on an edge problem of 1000 pixels that reaches every solver
  path: per-pixel scales log-uniform in [1e-3, 1e3], so about a third of the
  ELMM pixels land on a psi bound, and 10 all-zero and 10 negated pixels,
  which are degenerate; and that problem times 1e9, a radiance scale, under
  all four;
- fcls, with and without sum-to-one, per call, over 200 pixels.
An unmix_cube case's named outputs are its abundances, scales,
residual_rmse and degenerate flags; fcls's, its abundances.

Record, schema 2: the machine (numpy, cores, OPENBLAS_NUM_THREADS,
MALLOC_MMAP_THRESHOLD_, machine, python, min_round_s) and, per case and
tree, the median and IQR in seconds of its round times.  The change's entry
adds the change/parent ratio of the medians, the median over rounds of the
round's change/parent ratio (paired_ratio_p50), the rounds it was faster,
and diff_vs_parent: per named output max_abs and max_rel (max_abs over the
parent output's largest finite |value|; a NaN against a number is inf).
A case that one tree refuses records that tree's error and is not timed.
"""

from __future__ import annotations

import sys
from functools import partial
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402
from harness import N_BANDS, Case  # noqa: E402

#: unmix_cube cases: (case label, model, sum_to_one)
TREE_MODELS = (("lmm", "lmm", True), ("lmm-nnls", "lmm", False),
               ("elmm-global", "elmm-global", True), ("elmm-full", "elmm-full", True))
#: the radiance-scale edge cases
RADIANCE_MODELS = TREE_MODELS
RADIANCE = 1e9
EDGE_PIXELS = 1000
#: single-pixel cases: fcls with and without sum-to-one
SINGLE_PIXEL_LABELS = ("fcls", "fcls-nnls")
SINGLE_PIXEL_CALLS = 200


def problem(n_materials: int, n_pixels: int, seed: int = 3, edge: bool = False):
    """Endmembers S and cube X (bands x pixels); `edge` gives the edge problem described above."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.05, 1.0, (N_BANDS, n_materials))
    Z = rng.dirichlet(np.full(n_materials, 0.5), n_pixels).T
    Z *= 10.0 ** rng.uniform(-3.0, 3.0, n_pixels) if edge else rng.uniform(0.7, 1.3, n_pixels)
    X = S @ Z
    X += rng.normal(0.0, 0.005, X.shape)
    if edge:
        X[:, :10] = 0.0
        X[:, 10:20] *= -1.0
    return S, X


def cube_outputs(result) -> dict[str, np.ndarray]:
    return {name: getattr(result, name) for name in ("abundances", "scales", "residual_rmse", "degenerate")}


def fcls_calls(solver, S, X, label: str) -> list[np.ndarray]:
    """The single-pixel case `label` called on every column of X."""
    return [solver.fcls(x, S, sum_to_one=label == "fcls") for x in X.T]


def cube_cases(trees: dict, S, X, models, suffix: str, params: dict):
    for label, model, sum_to_one in models:
        calls = {side: partial(tree.solver.unmix_cube, X, S,
                               tree.solver.SolverConfig(model=model, sum_to_one=sum_to_one))
                 for side, tree in trees.items()}
        yield Case(f"unmix_cube/{label}/{suffix}", {"model": model, "sum_to_one": sum_to_one, **params},
                   calls, cube_outputs)


def cases(trees: dict, pixels: list[int], materials: list[int]):
    """Every case, in run order."""
    for p in materials:
        for n in pixels:
            yield from cube_cases(trees, *problem(p, n), TREE_MODELS, f"P={p}/N={n}", {"P": p, "N": n, "L": N_BANDS})
        S, X = problem(p, EDGE_PIXELS, edge=True)
        params = {"P": p, "N": EDGE_PIXELS, "L": N_BANDS, "edge": True}
        yield from cube_cases(trees, S, X, TREE_MODELS, f"edge/P={p}/N={EDGE_PIXELS}", params)
        yield from cube_cases(trees, S, X * RADIANCE, RADIANCE_MODELS, f"edge-x1e9/P={p}/N={EDGE_PIXELS}",
                              {**params, "radiance": RADIANCE})
        S, X = problem(p, SINGLE_PIXEL_CALLS)
        for label in SINGLE_PIXEL_LABELS:
            params = {"P": p, "L": N_BANDS, "calls": SINGLE_PIXEL_CALLS, "per": "call"}
            yield Case(f"{label}/P={p}", params,
                       {side: partial(fcls_calls, tree.solver, S, X, label) for side, tree in trees.items()},
                       lambda result: {"abundances": np.stack(result)})


def main(argv: list[str] | None = None) -> int:
    parser = harness.parser(__doc__.splitlines()[0])
    parser.add_argument("--pixels", type=int, nargs="+", default=[1000, 10_000, 100_000])
    parser.add_argument("--materials", type=int, nargs="+", default=[4, 8])
    args = parser.parse_args(argv)
    trees = harness.load_trees(args.parent)
    harness.write_record(args.out, harness.compare(cases(trees, args.pixels, args.materials)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
