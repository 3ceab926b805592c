"""Smoke test of benchmarks/bench_lockstep.py: every case it times still runs against this tree."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from specmix import solver

BENCH_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_lockstep.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_lockstep", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_single_pixel_case_runs(bench):
    S, X = bench.problem(4, 3)
    for label in bench.SINGLE_PIXEL_LABELS:
        sum_to_one = label == "fcls"
        cube = solver.unmix_cube(X, S, solver.SolverConfig(model="lmm", sum_to_one=sum_to_one))
        assert np.array_equal(bench.pixel_outputs(solver, S, X, label), cube.abundances.T.ravel()), label


def test_every_tree_call_runs(bench):
    # every unmix_cube case at P = 4, N = 3; the single-pixel cases on their own 200-pixel problem
    keys = []
    for key, _, calls in bench.tree_calls({"change": solver}, [3], [4]):
        assert np.all(np.isfinite(calls["change"]())), key
        keys.append(key)
    assert len(keys) == len(bench.TREE_MODELS) + len(bench.SINGLE_PIXEL_LABELS)
