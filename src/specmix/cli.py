"""Command-line pipeline: forward model evaluation, scene simulation,
unmixing, metric sweeps and cube verification.

Exit codes are a stable scripting contract: 0 success, 1 invalid input or
failed validation, 2 model-domain error (the message names the violated
precondition).  Every file-producing run writes a JSON manifest next to its
outputs recording the command, configuration, paths, seed, tool version,
wall-clock duration and the wall seconds of its read, model, solve and write
stages; outputs are byte-deterministic given the same inputs and seed.  For
simulate, unmix and sweep the manifest's "config" is the config type's
to_dict(): fed back as --config with the same inputs, it reproduces the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, io
from .core import AlbedoSpectrum, Geometry, HyperCube, PhotometricParams, config_value, json_name, validate_cube
from .hapke import MODELS, ModelDomainError
from .metrics import AlbedoCurve, SweepGrid, angle_sweeps
from .simulate import SceneConfig, reference_endmembers, simulate_cube
from .solver import SOLVER_MODELS, SolverConfig, unmix_cube

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MODEL = 2


class _StageClock:
    """Wall seconds of one command and of its read, model, solve and write stages."""

    def __init__(self) -> None:
        self.started, self.stages = time.perf_counter(), {}

    def timed(self, stage: str, fn, *args, **kwargs):
        """Return fn(*args, **kwargs), adding its wall time to stage."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - start
        return result


def _manifest(
    out_base: Path,
    command: str,
    config: dict[str, Any],
    inputs: dict[str, str],
    outputs: list[Path],
    seed: int | None,
    clock: _StageClock,
) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": [p.name for p in outputs],
        "seed": seed,
        "duration_s": round(time.perf_counter() - clock.started, 6),
        "stages": {stage: round(seconds, 6) for stage, seconds in clock.stages.items()},
    }
    path = out_base.parent / (out_base.name + ".manifest.json")
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _read_materials(
    args: argparse.Namespace, clock: _StageClock
) -> tuple[list[AlbedoSpectrum], list[PhotometricParams | None]]:
    """The --albedo spectra and one photometric parameter set per material: all None without --photometry."""
    albedos = clock.timed("read", io.read_albedos, args.albedo)
    if not args.photometry:
        return albedos, [None] * len(albedos)
    return albedos, clock.timed("read", io.read_photometry, args.photometry, [a.material for a in albedos])


def _out_base(out: str) -> Path:
    path = io._output_path(out, "")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _cmd_forward(args: argparse.Namespace) -> int:
    clock = _StageClock()
    albedos, photometry = _read_materials(args, clock)
    geom = Geometry(theta0=args.theta0, theta=args.theta, phi=args.phi)
    endmembers = clock.timed("model", reference_endmembers, albedos, photometry, args.model, geom)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    clock.timed("write", io.write_endmembers, out, albedos[0].axis, endmembers)
    config = {"model": args.model, **geom.to_dict()}
    inputs = {"albedo": args.albedo, "photometry": args.photometry or ""}
    _manifest(_out_base(args.out), "forward", config, inputs, [out], None, clock)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    clock = _StageClock()
    raw = clock.timed("read", io.read_json, args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.model is not None:
        raw["model"] = args.model
    config = SceneConfig.from_dict(raw)
    albedos, photometry = _read_materials(args, clock)
    cube = clock.timed("model", simulate_cube, albedos, photometry, config)
    echo = config.to_dict()
    meta = {"model": config.model, "seed": config.seed, "snr_db": config.snr_db, "reference_geometry": echo["reference"]}
    sidecar = clock.timed("write", io.write_cube, args.out, cube, meta=meta)
    inputs = {"config": args.config, "albedo": args.albedo, "photometry": args.photometry or ""}
    _manifest(_out_base(args.out), "simulate", echo, inputs, [sidecar, *io.cube_files(sidecar)], config.seed, clock)
    return EXIT_OK


# ---------------------------------------------------------------------------
# unmix
# ---------------------------------------------------------------------------

def _cmd_unmix(args: argparse.Namespace) -> int:
    clock = _StageClock()
    raw = clock.timed("read", io.read_json, args.config) if args.config else {}
    if args.model is not None:
        raw["model"] = args.model
    config = SolverConfig.from_dict(raw)
    cube = clock.timed("read", io.read_cube, args.cube)
    axis, endmembers = clock.timed("read", io.read_endmembers, args.endmembers)
    if len(axis) != len(cube.axis):
        raise ValueError(f"{args.endmembers} has {len(axis)} bands, cube {args.cube} has {len(cube.axis)}")
    if not np.allclose(axis.values, cube.axis.values, rtol=0.0, atol=1e-12):
        raise ValueError("endmember wavelength axis does not match the cube")
    result = clock.timed("solve", unmix_cube, cube, endmembers, config)
    summary: dict[str, Any] = {"solver": config.to_dict(), "cube": str(args.cube)}
    gt = cube.ground_truth
    if gt is not None and gt.abundances.shape == result.abundances.shape:
        summary["abundance_rmse"] = float(
            np.sqrt(np.mean((result.abundances - gt.abundances) ** 2))
        )
        if gt.scales is not None:
            summary["psi_rmse"] = float(np.sqrt(np.mean((result.scales - gt.scales) ** 2)))
    out_json = clock.timed("write", io.write_unmix_result, args.out, result, summary=summary)
    inputs = {"cube": args.cube, "endmembers": args.endmembers, "config": args.config or ""}
    _manifest(_out_base(args.out), "unmix", config.to_dict(), inputs, [out_json, *io.unmix_files(args.out)], None, clock)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    clock = _StageClock()
    raw = clock.timed("read", io.read_json, args.config) if args.config else {}
    kind = raw.get("kind", "angle")
    if kind not in ("angle", "curve"):
        raise ValueError(f"unknown sweep kind {json_name(kind)}; expected 'angle' or 'curve'")
    flags = {flag: getattr(args, flag) for flag in ("model", "theta0", "theta", "phi")}
    overrides = {flag: value for flag, value in flags.items() if value is not None}
    if kind == "angle" and (overrides or args.photometry):
        raise ValueError(f"--{next(iter(overrides), 'photometry')} applies to curve sweeps only, not to an angle sweep")
    config = (SweepGrid if kind == "angle" else AlbedoCurve).from_dict({**raw, **overrides})
    albedos, photometry = _read_materials(args, clock)
    if kind == "curve":
        # a curve reads no albedo, only its material's params: one curve per distinct params
        curves = {params: clock.timed("model", config.reflectance, params) for params in dict.fromkeys(photometry)}
    else:  # every albedo is checked here; each sweep is computed as it is written
        sweeps = clock.timed("model", angle_sweeps, albedos, config)
    # the output directory is made only once the whole config and every input has been read and checked
    out_base = _out_base(args.out)
    outputs = [out_base.parent / f"{out_base.name}.{albedo.material}.csv" for albedo in albedos]
    if kind == "curve":
        for params, rho in curves.items():
            paths = [path for path, own in zip(outputs, photometry) if own == params]
            clock.timed("write", io.write_curve_csv, paths, config.omega, rho)
    else:
        for path in outputs:
            clock.timed("write", io.write_sweep_csv, path, clock.timed("model", next, sweeps))
    inputs = {"albedo": args.albedo, "config": args.config or ""}
    _manifest(out_base, "sweep", config.to_dict(), inputs, outputs, None, clock)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _conservation_violations(cube: HyperCube) -> list[str]:
    gt = cube.ground_truth
    if gt is None or gt.scales is None or gt.endmembers is None:
        return []
    expected = gt.endmembers.values @ (gt.scales * gt.abundances)
    worst = float(np.max(np.abs(expected - cube.values)))
    if worst > 1e-12:
        return [f"scaled-mixture conservation violated: max |X - S0 (psi * A)| = {worst:.3e}"]
    return []


def _cmd_verify(args: argparse.Namespace) -> int:
    # a finite snr_db: additive noise, which can make a reflectance negative and breaks the generative identity
    snr_db = io.read_json(args.cube).get("snr_db")
    if snr_db is not None and not 0.0 < config_value(snr_db, f"{args.cube}: snr_db") < np.inf:
        raise ValueError(f"{args.cube}: snr_db must be null or a finite number > 0, got {snr_db!r}")
    noisy = snr_db is not None
    cube = io.read_cube(args.cube)
    violations = validate_cube(cube, noisy=noisy)
    if not noisy:
        violations.extend(_conservation_violations(cube))
    report = {"cube": str(args.cube), "violations": violations, "ok": not violations}
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n")
    if violations:
        for line in violations:
            print(f"violation: {line}", file=sys.stderr)
        return EXIT_INPUT
    print(f"ok: {args.cube}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_SWEEP_CONFIG_HELP = """sweep configuration JSON (default: an angle sweep with every default).
An angle sweep, {"kind": "angle"}, writes SAM and RMSE per (theta0, theta)
cell: "model_pair" (two of lambertian, relative, linear; default
["relative", "linear"]), "theta0_values" and "theta_values" (each a list of
degrees in [0, 90] or {"start": 0, "stop": 90, "step": 1}, those defaults).
A curve, {"kind": "curve"}, writes reflectance against albedo: "model"
(default "relative"), "theta0", "theta", "phi" (degrees, default 0) and
"omega" (a list of albedos in [0, 1] or {"start": 0, "stop": 1, "num": 101},
those defaults).  A grid may have at most 10^6 cells, a curve 10^6 points."""

_PHOTOMETRY_HELP = """photometric parameters JSON, which the full model needs: one
{"b": ..., "c": ..., "B0": ..., "h": ...} object shared by every material, or
a mapping from material name to such an object, which must name every
material of --albedo (other names are ignored)."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmix",
        description="Reflectance models, scene simulation, unmixing and metric sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    forward = sub.add_parser("forward", help="evaluate a reflectance model on albedo spectra")
    forward.add_argument("--albedo", required=True, help="spectra CSV of albedos")
    forward.add_argument("--photometry", help=_PHOTOMETRY_HELP)
    forward.add_argument("--model", required=True, choices=MODELS)
    forward.add_argument("--theta0", type=float, required=True, help="incidence angle, degrees")
    forward.add_argument("--theta", type=float, required=True, help="emergence angle, degrees")
    forward.add_argument("--phi", type=float, default=0.0, help="azimuth angle, degrees")
    forward.add_argument("--out", required=True, help="output reflectance CSV")
    forward.set_defaults(func=_cmd_forward)

    simulate = sub.add_parser("simulate", help="generate a synthetic scene cube")
    simulate.add_argument("--config", required=True, help="scene configuration JSON")
    simulate.add_argument("--albedo", required=True, help="spectra CSV of albedos")
    simulate.add_argument("--photometry", help=_PHOTOMETRY_HELP)
    simulate.add_argument("--model", choices=MODELS, help="override the configured model")
    simulate.add_argument("--seed", type=int, help="override the configured seed")
    simulate.add_argument("--out", required=True, help="output cube stem (writes .bin/.json)")
    simulate.set_defaults(func=_cmd_simulate)

    unmix = sub.add_parser("unmix", help="estimate abundances and scaling factors")
    unmix.add_argument("--cube", required=True, help="cube sidecar JSON")
    unmix.add_argument("--endmembers", required=True, help="reference endmember CSV")
    unmix.add_argument("--config", help="solver configuration JSON")
    unmix.add_argument("--model", choices=SOLVER_MODELS, help="override the configured model; elmm-global and "
                       "elmm-full solve one convex program, and elmm-full reports psi = 1 on absent materials")
    unmix.add_argument("--out", required=True, help="output stem (writes .a.bin/.psi.bin/.json)")
    unmix.set_defaults(func=_cmd_unmix)

    sweep = sub.add_parser("sweep", help="angle sweeps and albedo curves")
    sweep.add_argument("--albedo", required=True, help="spectra CSV of albedos")
    sweep.add_argument("--photometry", help=_PHOTOMETRY_HELP + "  Curve sweeps only.")
    sweep.add_argument("--config", help=_SWEEP_CONFIG_HELP)
    sweep.add_argument("--model", choices=MODELS, help="curve model override")
    sweep.add_argument("--theta0", type=float, help="curve incidence angle override")
    sweep.add_argument("--theta", type=float, help="curve emergence angle override")
    sweep.add_argument("--phi", type=float, help="curve azimuth override (matters for the full model only)")
    sweep.add_argument("--out", required=True, help="output stem (one CSV per material)")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="check cube invariants and generative identity")
    verify.add_argument("--cube", required=True, help="cube sidecar JSON")
    verify.add_argument("--out", help="optional report JSON path")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ModelDomainError as exc:
        print(f"model-domain error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
