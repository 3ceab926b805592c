"""The output diff of benchmarks/harness.py, which both benchmark scripts report per named output."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

HARNESS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "harness.py"
INF = math.inf


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("harness", HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([1.0, -4.0, np.nan, np.inf], [1.0, -4.0, np.nan, np.inf], {"max_abs": 0.0, "max_rel": 0.0}),
        ([1.0, -4.0, 2.0], [1.0, -3.0, 2.0], {"max_abs": 1.0, "max_rel": 0.25}),
        ([1.0, np.nan], [1.0, 0.5], {"max_abs": INF, "max_rel": INF}),
        ([1.0, 0.5], [1.0, np.nan], {"max_abs": INF, "max_rel": INF}),
        ([0.0, 0.0], [0.0, 1e-300], {"max_abs": 1e-300, "max_rel": INF}),
        ([1.0, 2.0], [1.0, 2.0, 3.0], {"max_abs": INF, "max_rel": INF}),
        ([True, False], [True, True], {"max_abs": 1.0, "max_rel": 1.0}),
        (b"1.5,2\n", b"1.5,2\n", {"max_abs": 0.0}),
        (b"1.5,2\n", b"1.5,3\n", {"max_abs": 1.0}),
        (b"1.5,2\n", b"1.5,20\n", {"max_abs": INF}),
    ],
)
def test_diff_per_output(harness, parent, change, expected):
    assert harness.diff(parent, change) == expected


def test_outputs_of_other_draws_are_not_diffed(harness):
    same = harness.diff_outputs({"a": np.ones(2), "draws": np.zeros(3)}, {"a": np.ones(2), "draws": np.zeros(3)})
    assert same == {"a": {"max_abs": 0.0, "max_rel": 0.0}}
    assert harness.diff_outputs({"a": np.ones(2), "draws": np.zeros(3)}, {"a": np.ones(2), "draws": np.ones(3)}) is None
    assert harness.diff_outputs({"a": np.ones(2)}, {"b": np.ones(2)}) == {"a": {"max_abs": INF}, "b": {"max_abs": INF}}


def test_compare_reports_the_median_of_per_round_ratios(harness, monkeypatch):
    # the change takes 0.9 of the parent's time in every round, but load slows the parent's last three rounds
    rounds = {"parent": iter([1.0, 10.0, 10.0, 10.0]), "change": iter([0.9, 0.9, 9.0, 9.0])}
    monkeypatch.setattr(harness, "ROUNDS", 4)
    monkeypatch.setattr(harness, "time_round", lambda call: next(rounds[call()]))
    case = harness.Case("case", {}, {side: (lambda side=side: side) for side in harness.SIDES},
                        lambda result: {"out": np.zeros(1)})
    parent, change = harness.compare([case])
    assert parent["median_s"] == 10.0 and change["median_s"] == 4.95
    assert change["median_ratio_vs_parent"] == 0.495
    assert change["paired_ratio_p50"] == pytest.approx(0.9, rel=1e-15)
    assert change["faster_rounds"] == 4


def test_compare_records_a_tree_that_refuses_a_case_and_times_neither(harness, monkeypatch):
    def refuse():
        raise ValueError("abundance columns must sum to 1")

    monkeypatch.setattr(harness, "time_round", lambda call: pytest.fail("a refused case was timed"))
    case = harness.Case("case", {"P": 4}, {"parent": refuse, "change": lambda: 1.0}, lambda result: {"out": result})
    parent, change = harness.compare([case])
    assert parent == {"case": "case/parent", "params": {"P": 4}, "error": "ValueError: abundance columns must sum to 1"}
    assert change == {"case": "case/change", "params": {"P": 4}, "error": None}


def test_compare_prints_the_worst_relative_gap_and_records_both(harness, monkeypatch, capsys):
    # radiance-scale outputs of order 1e11 that differ in their last bits, and an identical file
    parent = np.array([1e11, 3e10])
    change = parent * (1.0 + np.array([1e-15, 0.0]))
    monkeypatch.setattr(harness, "ROUNDS", 2)
    monkeypatch.setattr(harness, "time_round", lambda call: 1.0)
    outputs = {"parent": {"values": parent, "csv": b"1.5,2\n"}, "change": {"values": change, "csv": b"1.5,2\n"}}
    case = harness.Case("case", {}, {side: (lambda side=side: side) for side in harness.SIDES},
                        lambda side: outputs[side])
    _, entry = harness.compare([case])
    printed = float(capsys.readouterr().out.split("diff ")[-1])
    gap = entry["diff_vs_parent"]["values"]
    assert printed == float(f"{gap['max_rel']:.1e}") and 1e-16 < printed < 2e-15
    assert gap["max_abs"] > 1e-5 and entry["diff_vs_parent"]["csv"] == {"max_abs": 0.0}
