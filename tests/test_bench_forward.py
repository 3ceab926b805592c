"""Smoke test of benchmarks/bench_forward.py: every case it times still runs against this tree."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

BENCH_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_forward.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_forward", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_runs_and_is_timed(bench, monkeypatch, tmp_path):
    # the script's cases at a few bands and pixels and a 15-degree sweep grid
    monkeypatch.setattr(bench, "N_BANDS", 6)
    monkeypatch.setattr(bench, "SIM_CASES", [(model, p, 40) for model, p, _ in bench.SIM_CASES[::2]])
    monkeypatch.setattr(bench, "DRAW_CASES", [(stage, 40) for stage, _ in bench.DRAW_CASES[::2]])
    monkeypatch.setattr(bench, "IO_CASES", [(stage, 40) for stage, _ in bench.IO_CASES[:2]])
    monkeypatch.setattr(bench, "SWEEP_GRID", np.arange(0.0, 90.25, 15.0))
    dump = tmp_path / "outputs.npz"
    times = bench.run_cases(dump)
    assert sorted(times) == sorted(bench.case_params())
    assert all(math.isfinite(seconds) and seconds >= 0.0 for seconds in times.values()), times
    with np.load(dump) as outputs:
        assert {key.replace("|", "/") for key in outputs.files if not key.startswith("draws|")} == set(times)
