"""specmix benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root, for example

    python3 perfbench/run.py --workload unmix-p4 --seed 1 --seconds 30 --trace 0

The program under test is imported from ./src.  One process runs one
workload with one closed-loop client and BLAS on one thread: the next op
starts when the previous one has returned and been checked.  After set-up
and one discarded warm-up op, ops run until --seconds have passed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, measured with no tracing: the median and
90th percentile of the op times, the set-up time (median over this process
and fresh ones) in reference seconds (see calibrate.py), and the peak
resident memory.  With --trace 1 they are the per_layer list: each op then
runs twice, untraced and traced (alternating which goes first), the traced
copy records spans around calls into specmix, and the ratio of the two is
trace.overhead_pct.  A per-layer metric is 0 on a workload that makes no
such call.  The full record of a run (environment, fingerprints, raw times,
sample counts, failures) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("unmix-p4", "forward", "cli-pipeline")
#: Fresh processes that repeat set-up, besides the run's own, for setup_s.
SETUP_PROBES = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="seconds-scale inputs, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program() -> None:
    """Put ./src first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "specmix" / "__init__.py").is_file():
        raise SystemExit("perfbench: src/specmix not found; run from a specmix checkout")
    sys.path.insert(0, str(src))
    import specmix

    if Path(specmix.__file__).resolve().parent != (src / "specmix").resolve():
        raise SystemExit(f"perfbench: imported specmix from {specmix.__file__}, not from src/")


def set_up(args):
    """Import specmix and build the workload's inputs (the span setup_s measures)."""
    import_program()
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    return workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0", *(["--tiny"] if args.tiny else []),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail(samples: list[float]) -> float:
    """90th percentile of the op times, interpolated between order statistics.

    A run makes eight to twenty ops, too few for the usual rule (the highest
    percentile with ten samples beyond it), which would fall below the
    median; p90 with its sample count is the tail such a run can estimate.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, workload, recorder) -> None:
        self.workload = workload
        self.recorder = recorder
        self.attempted = 0
        self.failures: list[dict] = []
        self.stats: list[dict[str, float]] = []

    def attempt(self, i: int, traced: bool) -> float | None:
        """Run op i and check it; its wall time, or None if it failed."""
        import checker

        self.attempted += 1
        try:
            if traced:
                with self.recorder.tracing(i), self.recorder.span("bench.op", self.workload.name):
                    start = time.perf_counter()
                    out = self.workload.run_op(i)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                out = self.workload.run_op(i)
                elapsed = time.perf_counter() - start
            self.stats.append(self.workload.check(i, out))
        except checker.CheckFailed as exc:
            self.failures.append({"op": i, "traced": traced, "error": str(exc)})
            return None
        except Exception:  # an op that raises is a failed op; the run goes on
            self.failures.append({"op": i, "traced": traced, "error": traceback.format_exc()})
            return None
        return elapsed


#: Per-op statistics reported as their maximum over the run; the rest as means.
MAX_STATS = {"solver.kkt_max_rel"}


def aggregate(stats: list[dict[str, float]]) -> dict[str, float]:
    out = {}
    for key in set().union(*stats):
        values = [s[key] for s in stats if key in s]
        out[key] = max(values) if key in MAX_STATS else statistics.fmean(values)
    return out


def run(args, spec: dict, workload, setup_s: float) -> dict:
    import calibrate
    import tracing
    import workloads

    recorder = tracing.Recorder() if args.trace else None
    runner = Runner(workload, recorder)
    untraced, traced = [], []
    # untraced-run times in reference seconds, each bracketed by calibrations
    calibration: list[float] = []
    setup_ref: list[float] = []
    op_ref: list[float] = []

    def calibrated(seconds: float | None, target: list[float]) -> None:
        calibration.append(calibrate.calibrate())
        if seconds is not None:
            target.append(calibrate.to_reference(seconds, calibration[-2], calibration[-1]))

    if args.trace:
        runner.attempt(0, traced=False)  # warm-up: checked, not timed
        deadline = time.perf_counter() + args.seconds
        i = 1
        while i == 1 or time.perf_counter() < deadline:
            for with_trace in ((False, True) if i % 2 else (True, False)):
                elapsed = runner.attempt(i, with_trace)
                if elapsed is not None:
                    (traced if with_trace else untraced).append(elapsed)
            i += 1
    else:
        calibration.append(calibrate.calibrate())
        setup_ref.append(calibrate.to_reference(setup_s, calibration[0], calibration[0]))
        for _ in range(SETUP_PROBES):
            calibrated(probe_setup(args), setup_ref)
        runner.attempt(0, traced=False)  # warm-up: checked, not timed
        calibration.append(calibrate.calibrate())
        deadline = time.perf_counter() + args.seconds
        i = 1
        while i == 1 or time.perf_counter() < deadline:
            elapsed = runner.attempt(i, traced=False)
            if elapsed is not None:
                untraced.append(elapsed)
            calibrated(elapsed, op_ref)
            i += 1

    computed: dict[str, float] = {}
    if args.trace:
        try:
            with recorder.tracing(-1):
                workload.probe()
        except AttributeError as exc:  # a probed public name is gone
            recorder.absent.append(f"probe: {exc}")
        computed.update(tracing.layer_metrics(recorder, len(traced)))
        computed.update(aggregate(runner.stats))
        computed.update(workload.finish())
        if traced and untraced:
            computed["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        computed["checks.fail_rate"] = len(runner.failures) / runner.attempted
        recorder.save(OUT / "traces" / f"{workload.name}-seed{args.seed}.npz")
        listed = spec["per_layer"]
    else:
        if op_ref:
            computed["op_p50_s"] = statistics.median(op_ref)
            computed["op_tail_s"] = tail(op_ref)
        computed["setup_s"] = statistics.median(setup_ref)
        computed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        listed = spec["end_to_end"]

    metrics = {}
    not_measured = []
    for entry in listed:
        value = computed.get(entry["name"])
        if value is None:
            not_measured.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": vars(workloads.TINY if args.tiny else workloads.FULL),
        "environment": environment(),
        "inputs_sha256": workload.inputs_sha256(),
        "outputs_sha256": workload.outputs_sha256,
        "ops": {"untraced_s": untraced, "traced_s": traced},
        "setup_reference_s": setup_ref,
        "ops_reference_s": op_ref,
        "calibration_s": calibration,
        "phases": workloads.phase_summary(workload),
        "absent_names": recorder.absent if recorder else [],
        "not_measured": not_measured,
        "failures": runner.failures,
        "metrics": metrics,
    }
    path = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload.name} seed {args.seed}: {runner.attempted} ops attempted "
          f"({len(untraced)} untraced, {len(traced)} traced timed), {len(runner.failures)} failed")
    for failure in runner.failures[:5]:
        print(f"  failed op {failure['op']}: {failure['error'].strip().splitlines()[-1]}")
    for name, item in record["phases"].items():
        print(f"  {name} = {item['value']:.6g} {item['unit']} (median of {item['n']} calls, slowest {item['max_s']:.4g} s)")
    if not args.trace:
        print(f"  op times: n = {len(untraced)}; op_p50_s is their median, op_tail_s their p90")
    print(f"  inputs sha256 {record['inputs_sha256']}")
    if record["outputs_sha256"]:
        print(f"  outputs sha256 {record['outputs_sha256']}")
    if record["absent_names"]:
        print(f"  absent traced names: {', '.join(record['absent_names'])}")
    for name, item in metrics.items():
        print(f"{name} = {item['value']:.6g} {item['unit']}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # one client in one process: keep BLAS (imported with specmix) from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    started = time.perf_counter()
    workload = set_up(args)
    setup_s = time.perf_counter() - started
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(args, spec, workload, setup_s)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
