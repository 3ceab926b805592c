"""Compare two specmix source trees in one process: the harness of the benchmarks/ scripts.

A script gives its cases as `Case`s.  `compare` makes one untimed call per
tree and diffs the named outputs, then times ROUNDS rounds, alternating which
tree goes first.  Within a round a case repeats until it has run for
MIN_ROUND_S, so millisecond cases are resolved; a round's time is per call.
Besides the ratio of the two trees' medians, each case reports
paired_ratio_p50, the median over rounds of that round's change/parent
ratio, which cancels load that both trees see within one round.  A case
whose untimed call raises ValueError or RuntimeError in either tree is not
timed; both its entries hold "error", the message or null.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N_BANDS = 200
#: timed rounds per tree and case
ROUNDS = 20
#: a case repeats within a round until the round has run this long, in seconds
MIN_ROUND_S = 0.05
#: output name of a case's random draws: compared for equality, not reported
DRAWS = "draws"
SIDES = ("parent", "change")


class Case(NamedTuple):
    key: str
    params: dict
    #: tree side -> the timed call
    calls: dict[str, Callable[[], Any]]
    #: a call's result -> its named outputs (arrays, or bytes of a file); applied right after the untimed call
    outputs: Callable[[Any], dict[str, Any]]


def load_tree(src: Path, name: str):
    """Import the specmix package under src and its submodules as `name`, replacing any earlier one."""
    for loaded in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(name, src / "specmix" / "__init__.py",
                                                  submodule_search_locations=[str(src / "specmix")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted((src / "specmix").glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


def load_trees(parent: Path) -> dict:
    """Side -> specmix package: the parent's under parent/src, the change's in this checkout."""
    return {"parent": load_tree(parent.resolve() / "src", "specmix_parent"),
            "change": load_tree(ROOT / "src", "specmix_change")}


def parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the source tree to compare against ('.' compares this tree with itself)")
    parser.add_argument("--out", type=Path, required=True, help="record path, BENCH_<n>.json")
    return parser


def diff(parent, change) -> dict[str, float]:
    """max_abs and max_rel between two outputs; max_abs alone, over bytes, for file contents.

    max_rel is max_abs over the parent's largest finite |value|.  A NaN against
    a number, or outputs of different shape or length, differ by inf.
    """
    if isinstance(parent, bytes):
        if len(parent) != len(change):
            return {"max_abs": float("inf")}
        gap = np.abs(np.frombuffer(parent, np.uint8).astype(int) - np.frombuffer(change, np.uint8))
        return {"max_abs": float(np.max(gap, initial=0))}
    a, b = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    if a.shape != b.shape:
        return {"max_abs": float("inf"), "max_rel": float("inf")}
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    with np.errstate(invalid="ignore"):
        gap = np.where(a == b, 0.0, np.abs(a - b))  # equal infinities are no gap
    gap = np.where(nan_a | nan_b, np.where(nan_a & nan_b, 0.0, np.inf), gap)
    max_abs = float(np.max(gap, initial=0.0))
    scale = float(np.max(np.abs(a[np.isfinite(a)]), initial=0.0))
    return {"max_abs": max_abs, "max_rel": max_abs / scale if scale else (0.0 if max_abs == 0.0 else np.inf)}


def diff_outputs(parent: dict[str, Any], change: dict[str, Any]) -> dict[str, dict[str, float]] | None:
    """Output name -> diff (inf where one tree lacks it); None when the trees drew other random numbers."""
    drawn = [outputs.pop(DRAWS, None) for outputs in (parent, change)]
    if drawn[0] is not None and not np.array_equal(*drawn):
        return None
    missing = {"max_abs": float("inf")}
    return {name: diff(parent[name], change[name]) if name in parent and name in change else missing
            for name in {**parent, **change}}


def time_round(call: Callable[[], Any]) -> float:
    """Wall seconds per call, the call repeated until the round has run MIN_ROUND_S."""
    calls, start = 0, time.perf_counter()
    while True:
        call()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_ROUND_S:
            return elapsed / calls


def summary(times: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(median), "iqr_s": float(q3 - q1)}


def compare(cases: Iterable[Case]) -> list[dict]:
    """Record entries of every case, parent then change, and one printed line per case.

    The printed diff is the worst max_rel over the case's outputs, so outputs of any magnitude read
    alike; file bytes, which have max_abs alone, count with it.  Records keep both numbers.

    A case whose params hold "calls" makes that many calls per timed call; its times are per one of them.
    """
    entries = []
    for case in cases:
        outputs, errors = {}, {}
        for side in SIDES:
            try:
                outputs[side] = case.outputs(case.calls[side]())
            except (ValueError, RuntimeError) as error:  # a tree that refuses the input or does not converge
                errors[side] = f"{type(error).__name__}: {error}"
        if errors:
            entries += [{"case": f"{case.key}/{side}", "params": case.params, "error": errors.get(side)}
                        for side in SIDES]
            print(f"{case.key:40s} not timed: " + "; ".join(f"{side} raised {error}" for side, error in errors.items()),
                  flush=True)
            continue
        diffs = diff_outputs(outputs["parent"], outputs["change"])
        times: dict[str, list[float]] = {side: [] for side in SIDES}
        for r in range(ROUNDS):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                times[side].append(time_round(case.calls[side]) / case.params.get("calls", 1))
        params = {**case.params, "rounds": ROUNDS}
        parent, change = ({"case": f"{case.key}/{side}", "params": params, **summary(times[side])}
                          for side in SIDES)
        ratio = change["median_s"] / parent["median_s"]
        change_s, parent_s = np.array(times["change"]), np.array(times["parent"])
        # the median of per-round ratios: load that both trees see within a round cancels
        paired = float(np.median(change_s / parent_s))
        faster = int(np.sum(change_s < parent_s))
        change.update(median_ratio_vs_parent=ratio, paired_ratio_p50=paired, faster_rounds=faster,
                      diff_vs_parent=diffs)
        if diffs is None:
            change["diff_note"] = "not comparable: the two trees draw different random numbers"
        worst = "n/c" if diffs is None else f"{max(d.get('max_rel', d['max_abs']) for d in diffs.values()):.1e}"
        entries += [parent, change]
        print(f"{case.key:40s} parent {parent['median_s']:9.5f} s  change {change['median_s']:9.5f} s"
              f"  change/parent {ratio:5.3f} (paired {paired:5.3f})  faster in {faster:2d}/{ROUNDS}  diff {worst}",
              flush=True)
    return entries


def write_record(path: Path, cases: list[dict]) -> None:
    record = {
        "schema": 2,
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "min_round_s": MIN_ROUND_S,
        "cases": cases,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")
