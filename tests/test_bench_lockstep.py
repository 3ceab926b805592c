"""Self-comparison of benchmarks/bench_lockstep.py: with this tree as both parent and change, every case is
timed and every named output reads as identical; its edge problem reaches every solver path."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import specmix
from specmix import solver

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "benchmarks" / "bench_lockstep.py"
CUBE_OUTPUTS = {"abundances", "scales", "residual_rmse", "degenerate"}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_lockstep", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_comparison_times_every_case_and_reads_no_diff(bench, monkeypatch, tmp_path):
    # every case at P = 4 and N = 3 (the edge problem keeps its size), over two short rounds
    monkeypatch.setattr(bench.harness, "ROUNDS", 2)
    monkeypatch.setattr(bench.harness, "MIN_ROUND_S", 0.002)
    out = tmp_path / "self.json"
    assert bench.main(["--parent", str(ROOT), "--pixels", "3", "--materials", "4", "--out", str(out)]) == 0

    record = json.loads(out.read_text())
    assert record["schema"] == 2
    entries = {entry["case"]: entry for entry in record["cases"]}
    labels = [label for label, _, _ in bench.TREE_MODELS]
    edge = f"P=4/N={bench.EDGE_PIXELS}"
    outputs = {
        **{f"unmix_cube/{label}/P=4/N=3": CUBE_OUTPUTS for label in labels},
        **{f"unmix_cube/{label}/edge/{edge}": CUBE_OUTPUTS for label in labels},
        **{f"unmix_cube/{label}/edge-x1e9/{edge}": CUBE_OUTPUTS for label, _, _ in bench.RADIANCE_MODELS},
        **{f"{label}/P=4": {"abundances"} for label in bench.SINGLE_PIXEL_LABELS},
    }
    assert set(entries) == {f"{key}/{side}" for key in outputs for side in ("parent", "change")}
    for key, names in outputs.items():
        for side in ("parent", "change"):
            entry = entries[f"{key}/{side}"]
            assert math.isfinite(entry["median_s"]) and entry["median_s"] > 0.0, entry
            assert entry["params"]["rounds"] == 2
        diffs = entries[f"{key}/change"]["diff_vs_parent"]
        assert set(diffs) == names, key
        assert all(gap == 0.0 for diff in diffs.values() for gap in diff.values()), (key, diffs)


def test_self_comparison_pairs_its_rounds_and_runs_lmm_at_radiance_scale(bench, monkeypatch, tmp_path):
    monkeypatch.setattr(bench.harness, "ROUNDS", 2)
    monkeypatch.setattr(bench.harness, "MIN_ROUND_S", 0.002)
    out = tmp_path / "self.json"
    assert bench.main(["--parent", str(ROOT), "--pixels", "3", "--materials", "4", "--out", str(out)]) == 0

    changes = [entry for entry in json.loads(out.read_text())["cases"] if entry["case"].endswith("/change")]
    assert changes and all("error" not in entry for entry in changes)
    for entry in changes:
        assert math.isfinite(entry["paired_ratio_p50"]) and entry["paired_ratio_p50"] > 0.0, entry["case"]
    lmm = {entry["case"]: entry for entry in changes}[f"unmix_cube/lmm/edge-x1e9/P=4/N={bench.EDGE_PIXELS}/change"]
    assert set(lmm["diff_vs_parent"]) == CUBE_OUTPUTS
    assert all(gap == 0.0 for diff in lmm["diff_vs_parent"].values() for gap in diff.values())


def test_every_case_output_is_finite_and_fcls_equals_unmix_cube(bench):
    S, X = bench.problem(4, bench.SINGLE_PIXEL_CALLS)
    for case in bench.cases({"change": specmix}, [3], [4]):
        outputs = case.outputs(case.calls["change"]())
        assert all(np.all(np.isfinite(value)) for value in outputs.values()), case.key
        label = case.key.split("/")[0]
        if label in bench.SINGLE_PIXEL_LABELS:
            cube = solver.unmix_cube(X, S, solver.SolverConfig(model="lmm", sum_to_one=label == "fcls"))
            assert np.array_equal(outputs["abundances"], cube.abundances.T), label


def test_edge_problem_reaches_degenerate_pixels_and_psi_bounds(bench):
    S, X = bench.problem(4, bench.EDGE_PIXELS, edge=True)
    runs = [(case, 1.0) for case in bench.TREE_MODELS] + [(case, bench.RADIANCE) for case in bench.RADIANCE_MODELS]
    for (label, model, sum_to_one), scale in runs:
        config = solver.SolverConfig(model=model, sum_to_one=sum_to_one)
        result = solver.unmix_cube(X * scale, S, config)
        assert result.degenerate.any(), (label, scale)
        if model != "lmm":
            on_bound = np.isclose(result.scales, config.psi_bounds[0], rtol=1e-6, atol=0.0)
            on_bound |= np.isclose(result.scales, config.psi_bounds[1], rtol=1e-6, atol=0.0)
            assert on_bound.any(), (label, scale)


@pytest.mark.parametrize("n_materials", [4, 8])
def test_edge_problem_at_1e12_gives_finite_outputs_under_every_model(bench, n_materials):
    # a sum-constrained re-solve that emptied its support once gave NaN abundances here, unrefused
    S, X = bench.problem(n_materials, bench.EDGE_PIXELS, edge=True)
    for _, model, sum_to_one in bench.TREE_MODELS:
        result = solver.unmix_cube(X * 1e12, S, solver.SolverConfig(model=model, sum_to_one=sum_to_one))
        for name, values in bench.cube_outputs(result).items():
            assert np.all(np.isfinite(values)), (model, sum_to_one, name)
