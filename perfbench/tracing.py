"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of specmix from outside the package:
while installed, every module attribute that is one of the traced
functions is replaced by a wrapper that records a span (name, start, end,
parent span, op id, label, size).  Spans stay in memory and are written
out once, when the run ends.  A traced name that the package no longer
defines is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

Tag = Callable[[tuple, dict], tuple[str, int]]


def _arg(index: int, name: str):
    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(name)
    return get


def _model_tag(args, kwargs):
    return str(_arg(2, "model")(args, kwargs)), 0


def _config_model_tag(args, kwargs):
    return str(getattr(_arg(2, "config")(args, kwargs), "model", "")), 0


def _unmix_tag(args, kwargs):
    cube = _arg(0, "cube")(args, kwargs)
    pixels = int(np.shape(getattr(cube, "values", cube))[1])
    return _config_model_tag(args, kwargs)[0], pixels


def _sweep_tag(args, kwargs):
    grid = _arg(1, "grid")(args, kwargs)
    return "/".join(grid.model_pair), int(grid.theta0_values.size * grid.theta_values.size)


def _command_tag(args, kwargs):
    argv = _arg(0, "argv")(args, kwargs)
    return (str(argv[0]) if argv else ""), 0


#: (module, attribute, tag): the layer boundaries the benchmark records.
#: "Class.__init__" entries time object construction.
TRACED: tuple[tuple[str, str, Tag | None], ...] = (
    ("hapke", "endmember_variant", _model_tag),
    ("hapke", "scaling_factor", None),
    ("core", "Geometry.__init__", None),
    ("core", "validate_cube", None),
    ("simulate", "simulate_cube", _config_model_tag),
    ("simulate", "sample_abundances", None),
    ("simulate", "sample_geometries", None),
    ("simulate", "reference_endmembers", None),
    ("simulate", "inject_noise", None),
    ("solver", "unmix_cube", _unmix_tag),
    ("solver", "fcls", None),
    ("metrics", "angle_sweep", _sweep_tag),
    ("io", "read_albedos", None),
    ("io", "write_cube", None),
    ("io", "read_cube", None),
    ("io", "read_endmembers", None),
    ("io", "write_unmix_result", None),
    ("io", "write_sweep_csv", None),
    ("cli", "main", _command_tag),
)

LAYERS = ("hapke", "core", "simulate", "solver", "metrics", "io", "cli")


class Recorder:
    """Span store plus the patches that feed it.

    ``op`` is the id stamped on new spans: the benchmark sets it to the op
    index before each traced op and to -1 for stage-by-stage probes.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, tag: Tag | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label, size = tag(args, kwargs) if tag else ("", 0)
                spans[index] = (name, start, end, parent, self.op, label, size)

        return traced

    @contextmanager
    def span(self, name: str, label: str = "", size: int = 0):
        """Record a span around benchmark-side code, such as one whole op."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, label, size)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "specmix" or key.startswith("specmix.")]
        absent = []
        for module_name, attr, tag in TRACED:
            head, _, method = attr.partition(".")
            name = f"{module_name}.{head}"
            module = sys.modules.get(f"specmix.{module_name}")
            if method:
                owner = getattr(module, head, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if original is None:
                    absent.append(name)
                    continue
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original, tag))
                continue
            original = getattr(module, attr, None)
            if original is None:
                absent.append(name)
                continue
            wrapper = self._wrap(name, original, tag)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        self.absent = absent

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextmanager
    def tracing(self, op: int):
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def save(self, path: Path) -> None:
        """Write the spans as columns; names and labels index the tables 'names' and 'labels'."""
        columns = list(zip(*self.spans)) if self.spans else [()] * 7
        names, name_index = np.unique(np.asarray(columns[0], dtype=str), return_inverse=True)
        labels, label_index = np.unique(np.asarray(columns[5], dtype=str), return_inverse=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=names,
            name=name_index.astype(np.int32),
            start=np.asarray(columns[1], dtype=float),
            end=np.asarray(columns[2], dtype=float),
            parent=np.asarray(columns[3], dtype=np.int64),
            op=np.asarray(columns[4], dtype=np.int64),
            labels=labels,
            label=label_index.astype(np.int32),
            size=np.asarray(columns[6], dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _child_time(spans: list[tuple], names: set[str] | None = None) -> list[float]:
    """Per span, the time its direct children (of the given names, or all) cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0 and (names is None or name in names):
            covered[parent] += end - start
    return covered


def layer_metrics(recorder: Recorder, traced_ops: int) -> dict[str, float]:
    """Per-layer timings; a metric whose spans never occurred is left out."""
    spans = recorder.spans
    out: dict[str, float] = {}

    def durations(name: str, label: str | None = None, probe: bool | None = None) -> list[float]:
        return [
            end - start
            for span_name, start, end, _, op, span_label, _ in spans
            if span_name == name and label in (None, span_label) and probe in (None, op < 0)
        ]

    def put(metric: str, values: list[float], scale: float, average=statistics.median) -> None:
        if values:
            out[metric] = average(values) * scale

    def put_per_unit(metric: str, name: str, label: str) -> None:
        """Total time over total size (pixels, cells) of the op spans with this label."""
        calls = [(end - start, size) for n, start, end, _, op, lab, size in spans if n == name and lab == label and op >= 0]
        if calls:
            out[metric] = 1e6 * sum(t for t, _ in calls) / sum(size for _, size in calls)

    for model in ("full", "linear", "lambertian", "relative"):
        put(f"hapke.{model}_us", durations("hapke.endmember_variant", model), 1e6)
    put("hapke.scaling_factor_us", durations("hapke.scaling_factor"), 1e6)
    put("core.geometry_us", durations("core.Geometry"), 1e6)
    put("core.validate_cube_ms", durations("core.validate_cube"), 1e3, statistics.fmean)

    stages = ("sample_abundances", "sample_geometries", "reference_endmembers", "inject_noise")
    for stage in (*stages, "simulate_cube"):
        put(f"simulate.{stage}_ms", durations(f"simulate.{stage}"), 1e3, statistics.fmean)
    # what simulate_cube spends outside its sampling, reference and noise stages
    staged = _child_time(spans, {f"simulate.{stage}" for stage in stages})
    mixing = [end - start - staged[i] for i, (name, start, end, *_) in enumerate(spans) if name == "simulate.simulate_cube"]
    put("simulate.variants_mix_ms", mixing, 1e3, statistics.fmean)

    for model in ("lmm", "elmm-global", "elmm-full"):
        put_per_unit(f"solver.{model.replace('-', '_')}_us_per_px", "solver.unmix_cube", model)
    put("solver.call_overhead_us", durations("solver.unmix_cube", probe=True), 1e6)
    put("solver.fcls_us", durations("solver.fcls"), 1e6)
    for pair in ("relative/linear", "lambertian/linear"):
        put_per_unit(f"metrics.sweep_{pair.replace('/', '_')}_us_per_cell", "metrics.angle_sweep", pair)

    for fn in ("read_albedos", "write_cube", "read_cube", "read_endmembers", "write_unmix_result", "write_sweep_csv"):
        put(f"io.{fn}_ms", durations(f"io.{fn}"), 1e3, statistics.fmean)
    for command in ("simulate", "unmix", "verify", "sweep"):
        put(f"cli.{command}_ms", durations("cli.main", command), 1e3, statistics.fmean)

    if traced_ops:
        own = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, op, *_), covered in zip(spans, _child_time(spans)):
            layer = name.split(".")[0]
            if op >= 0 and layer in own:
                own[layer] += end - start - covered
        for layer, total in own.items():
            out[f"{layer}.self_ms"] = 1e3 * total / traced_ops
    return out
