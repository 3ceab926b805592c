"""Self-comparison of benchmarks/bench_forward.py: with this tree as both parent and change, every case is
timed and every named output reads as identical."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import specmix
import specmix.cli

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "benchmarks" / "bench_forward.py"
#: first part of a case name -> the named outputs its record must report
OUTPUTS = {
    "simulate_cube": {"values"},
    "sample_abundances": {"abundances"},
    "sample_geometries": {"theta0", "theta", "phi"},
    "inject_noise": {"noise"},
    "write_cube": {"bin"},
    "read_cube": {"values", "theta0", "theta", "phi", "abundances", "scales"},
    "angle_sweep": {"sam", "rmse", "valid"},
    "write_sweep_csv": {"csv"},
    "cli_sweep": {f"m{k}.csv" for k in range(8)},
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_forward", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_self_comparison_times_every_case_and_reads_no_diff(bench, monkeypatch, tmp_path):
    # the script's cases at a few bands and pixels and a 15-degree sweep grid, over two short rounds
    monkeypatch.setattr(bench, "N_BANDS", 6)
    monkeypatch.setattr(bench, "SIM_CASES", [(model, p, 40) for model, p, _ in bench.SIM_CASES[::2]])
    monkeypatch.setattr(bench, "DRAW_CASES", [(stage, 40) for stage, _ in bench.DRAW_CASES[::2]])
    monkeypatch.setattr(bench, "IO_CASES", [(stage, 40) for stage, _ in bench.IO_CASES[:2]])
    monkeypatch.setattr(bench, "SWEEP_GRID", np.arange(0.0, 90.25, 15.0))
    monkeypatch.setattr(bench, "SWEEP_THETA0", np.arange(0.0, 90.5, 30.0))
    monkeypatch.setattr(bench.harness, "ROUNDS", 2)
    monkeypatch.setattr(bench.harness, "MIN_ROUND_S", 0.002)
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    out = tmp_path / "self.json"
    assert bench.main(["--parent", str(ROOT), "--out", str(out)]) == 0

    record = json.loads(out.read_text())
    assert record["schema"] == 2 and record["malloc_mmap_threshold"] == "131072"
    entries = {entry["case"]: entry for entry in record["cases"]}
    (tmp_path / "tree").mkdir()
    keys = bench.tree_calls(specmix, tmp_path / "tree")
    assert {key.split("/")[0] for key in keys} == set(OUTPUTS)
    assert entries["angle_sweep/lambertian/linear/46x181/change"]["params"]["cells"] == 4 * 7  # the non-square grid
    assert set(entries) == {f"{key}/{side}" for key in keys for side in ("parent", "change")}
    for key in keys:
        for side in ("parent", "change"):
            entry = entries[f"{key}/{side}"]
            assert math.isfinite(entry["median_s"]) and entry["median_s"] > 0.0, entry
            assert entry["params"]["rounds"] == 2
        diffs = entries[f"{key}/change"]["diff_vs_parent"]
        assert set(diffs) == OUTPUTS[key.split("/")[0]], key
        assert all(gap == 0.0 for diff in diffs.values() for gap in diff.values()), (key, diffs)
