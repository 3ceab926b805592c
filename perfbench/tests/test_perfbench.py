"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_completes_and_emits_every_listed_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(item["value"] > 0 for item in result["metrics"].values())


def test_every_per_layer_metric_names_what_it_should_move():
    layers = json.loads((BENCH / "layers.json").read_text())["metrics"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == workload_names
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layers.values():
        for move in entry["moves"]:
            assert move["workload"] in workload_names and move["metric"] in end_to_end


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "forward", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_input_fingerprint(tmp_path, name):
    def fingerprint(seed, where):
        workload = workloads.WORKLOADS[name](seed, workloads.TINY, tmp_path / where)
        try:
            return workload.inputs_sha256()
        finally:
            workload.close()

    assert fingerprint(7, "a") == fingerprint(7, "b")
    assert fingerprint(7, "c") != fingerprint(8, "d")


@pytest.fixture(scope="module")
def unmixed(tmp_path_factory):
    workload = workloads.UnmixP4(5, workloads.TINY, tmp_path_factory.mktemp("unmix"))
    out = workload.run_op(0)
    workload.check(0, out)  # the solver's own output passes
    return workload, out


@pytest.mark.parametrize("model", workloads.UNMIX_MODELS)
def test_checker_flags_abundance_moved_off_optimum(unmixed, model):
    workload, (tile, results) = unmixed
    A = np.array(results[model].abundances)
    j = int(np.argmax(A[:, 0]))
    k = (j + 1) % A.shape[0]
    A[j, 0] -= 1e-3
    A[k, 0] += 1e-3
    with pytest.raises(checker.CheckFailed, match="KKT"):
        checker.check_unmix(
            workload.endmembers.values, workload.tiles[tile].values, A, np.array(results[model].scales),
            model, workload.psi_bounds,
        )


def test_checker_flags_psi_outside_bounds(unmixed):
    workload, (tile, results) = unmixed
    psi = np.array(results["elmm-full"].scales)
    psi[0, 0] = workload.psi_bounds[1] * 1.01
    with pytest.raises(checker.CheckFailed, match="outside"):
        checker.check_unmix(
            workload.endmembers.values, workload.tiles[tile].values, np.array(results["elmm-full"].abundances), psi,
            "elmm-full", workload.psi_bounds,
        )


def test_checker_flags_flipped_byte_in_cli_output(tmp_path):
    workload = workloads.CliPipeline(5, workloads.TINY, tmp_path / "cli")
    try:
        workload.check(0, workload.run_op(0))
        out = workload.run_op(1)
        path = workload.out / "sweep.m0.csv"
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x01  # last digit of the last RMSE value; still a number
        path.write_bytes(bytes(data))
        with pytest.raises(checker.CheckFailed, match="byte for byte: sweep.m0.csv"):
            workload.check(1, out)
    finally:
        workload.close()


def test_recorder_marks_missing_names_absent_and_restores_patches(monkeypatch):
    from specmix import solver

    monkeypatch.setattr(tracing, "TRACED", (*tracing.TRACED, ("solver", "no_such_function", None)))
    original = solver.unmix_cube
    recorder = tracing.Recorder()
    with recorder.tracing(0):
        assert solver.unmix_cube is not original
    assert solver.unmix_cube is original
    assert recorder.absent == ["solver.no_such_function"]
