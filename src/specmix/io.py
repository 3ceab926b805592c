"""File formats: spectra CSV, photometry JSON, cube binary + JSON sidecar,
unmixing result files, and sweep/curve CSV outputs.

Reals are written at full round-trip precision (shortest decimal form that
recovers the 64-bit value), so write/read cycles are bit-exact for binary
matrices and within one representation of exact for text formats.  A sweep
CSV formats each distinct source cell once (write_sweep_csv): a mirrored
cell of a square grid reuses the text of its bit-identical twin, so the
bytes equal those of a per-cell repr writer.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from itertools import product
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .core import (
    AlbedoSpectrum,
    EndmemberMatrix,
    FloatArray,
    Geometry,
    GroundTruth,
    HyperCube,
    PhotometricParams,
    UnmixResult,
    WavelengthAxis,
    check_config_keys,
    config_value,
)
from .metrics import SweepResult

# ---------------------------------------------------------------------------
# spectra CSV: header "wavelength,<material>...", one row per band
# ---------------------------------------------------------------------------

def _read_spectra_table(path: str | Path) -> tuple[WavelengthAxis, list[str], FloatArray]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty spectra file") from None
        if len(header) < 2 or header[0].strip().lower() != "wavelength":
            raise ValueError(f"{path}: expected header 'wavelength,<material>...'")
        materials = [name.strip() for name in header[1:]]
        for column, name in enumerate(materials, start=2):  # each name becomes part of an output file name
            if not name or "/" in name or "\\" in name or name in materials[: column - 2]:
                raise ValueError(f"{path}: column {column}: material name {name!r} is empty, repeated or holds / or \\")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            rows.append([float(cell) for cell in row])
    if not rows:
        raise ValueError(f"{path}: no spectral bands")
    table = np.asarray(rows, dtype=float)
    axis = WavelengthAxis(table[:, 0])
    return axis, materials, table[:, 1:]


def read_albedos(path: str | Path) -> list[AlbedoSpectrum]:
    """Read a spectra CSV as albedo spectra (values validated to [0, 1])."""
    axis, materials, columns = _read_spectra_table(path)
    return [
        AlbedoSpectrum(material=name, omega=columns[:, k], axis=axis)
        for k, name in enumerate(materials)
    ]


def write_albedos(path: str | Path, albedos: list[AlbedoSpectrum]) -> None:
    axis = albedos[0].axis
    matrix = np.column_stack([albedo.omega for albedo in albedos])
    write_spectra_table(path, axis, [a.material for a in albedos], matrix)


def read_endmembers(path: str | Path) -> tuple[WavelengthAxis, EndmemberMatrix]:
    """Read a spectra CSV as reference endmember reflectances (>= 0)."""
    axis, materials, columns = _read_spectra_table(path)
    return axis, EndmemberMatrix(values=columns, materials=tuple(materials))


def write_endmembers(path: str | Path, axis: WavelengthAxis, endmembers: EndmemberMatrix) -> None:
    write_spectra_table(path, axis, list(endmembers.materials), endmembers.values)


def write_spectra_table(
    path: str | Path, axis: WavelengthAxis, materials: list[str], matrix: np.ndarray
) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength", *materials])
        writer.writerows(np.column_stack([axis.values, matrix]).tolist())  # csv writes a float as its repr


# ---------------------------------------------------------------------------
# photometry JSON: one {"b","c","B0","h"} object shared by all materials, or
# a mapping material -> such object (when every value is an object), read as
# one PhotometricParams per material: a material the mapping lacks is refused
# by name, other names are ignored
# ---------------------------------------------------------------------------

def read_photometry(path: str | Path, materials: list[str]) -> list[PhotometricParams]:
    """Read photometric parameters as one PhotometricParams per material, in materials' order.

    An unknown, missing or non-numeric key is refused by its key path,
    "<path>: <key>" or "<path>[<material>]: <key>".
    """
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if not all(isinstance(entry, dict) for entry in raw.values()):
        return [_params_from(raw, str(path))] * len(materials)
    missing = [name for name in materials if name not in raw]
    if missing:
        raise ValueError(f"{path}: photometry missing for materials: {', '.join(missing)}")
    return [_params_from(raw[name], f"{path}[{name}]") for name in materials]


def _required_keys(raw: Any, keys: list[str], where: str) -> dict[str, Any]:
    """raw, when it is a JSON object that holds every key; else refused by where and the missing keys."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {raw!r}")
    missing = [key for key in keys if key not in raw]
    if missing:
        raise ValueError(f"{where}: missing keys {', '.join(missing)}; expected keys {', '.join(keys)}")
    return raw


def _params_from(raw: dict[str, Any], where: str) -> PhotometricParams:
    keys = [f.name for f in fields(PhotometricParams)]
    _required_keys(check_config_keys(raw, keys, where), keys, where)
    values = {key: config_value(raw[key], f"{where}: {key}") for key in keys}
    try:
        return PhotometricParams(**values)
    except ValueError as exc:  # a value out of its range
        raise ValueError(f"{where}: {exc}") from None


def write_photometry(path: str | Path, photometry: PhotometricParams | dict[str, PhotometricParams]) -> None:
    """Write one shared parameter object, or a mapping material -> parameters."""
    if isinstance(photometry, PhotometricParams):
        payload: Any = asdict(photometry)
    else:
        payload = {name: asdict(params) for name, params in photometry.items()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# cube: flat little-endian float64 binary (column-major bands x pixels, so
# each pixel's spectrum is contiguous: HyperCube's own pixel-major layout,
# written and read with no transposed copy) plus a JSON sidecar with
# dimensions, axis and the names of sibling files:
# <stem>.geom.bin, the pixels x 3 angles (theta0, theta, phi columns, in
# degrees) of the cube's Geometry, laid out like the cube; ground truth;
# reference endmembers.  Every file is named <stem><suffix>.
# ---------------------------------------------------------------------------

def _output_path(stem: str | Path, suffix: str) -> Path:
    """<stem><suffix>, where one trailing .json or .csv is removed from stem and any other dot kept.

    Cube and unmixing-result files and the CLI's manifests are all named
    this way, so an output stem such as "scene.v2" keeps its dotted part in
    every file name, and "scene.csv" names them all "scene.*".
    """
    stem = Path(stem)
    if stem.suffix in (".json", ".csv"):
        stem = stem.with_suffix("")
    return stem.parent / (stem.name + suffix)


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    # a column-major matrix's transpose is C-contiguous: its buffer is written with no copy
    path.write_bytes(np.asfortranarray(matrix, dtype="<f8").T.data)


def _read_matrix(path: Path, rows: int, cols: int) -> np.ndarray:
    data = np.frombuffer(path.read_bytes(), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {data.size}")
    return data.reshape((rows, cols), order="F")


def write_cube(stem: str | Path, cube: HyperCube, meta: dict[str, Any] | None = None) -> Path:
    """Write <stem>.bin plus the <stem>.json sidecar; returns the sidecar path.

    Per-pixel geometries (<stem>.geom.bin), ground-truth matrices and the
    reference endmember matrix, when present, go to sibling files
    referenced from the sidecar by relative path.
    """
    Path(stem).parent.mkdir(parents=True, exist_ok=True)
    data_path = _output_path(stem, ".bin")
    _write_matrix(data_path, cube.values)
    sidecar: dict[str, Any] = {
        "bands": cube.n_bands,
        "pixels": cube.n_pixels,
        "dtype": "<f8",
        "order": "column-major",
        "data": data_path.name,
        "wavelengths_um": [float(v) for v in cube.axis.values],
        "geometries": None,
        "ground_truth": None,
        "endmembers": None,
    }
    if meta:
        sidecar.update(meta)
    geoms = cube.geometries
    if geoms is not None:
        geom_path = _output_path(stem, ".geom.bin")
        _write_matrix(geom_path, np.column_stack((geoms.theta0, geoms.theta, geoms.phi)))
        sidecar["geometries"] = geom_path.name
    gt = cube.ground_truth
    if gt is not None:
        a_path = _output_path(stem, ".gt_a.bin")
        _write_matrix(a_path, gt.abundances)
        gt_entry: dict[str, Any] = {
            "materials": int(gt.abundances.shape[0]),
            "abundances": a_path.name,
            "scales": None,
        }
        if gt.scales is not None:
            psi_path = _output_path(stem, ".gt_psi.bin")
            _write_matrix(psi_path, gt.scales)
            gt_entry["scales"] = psi_path.name
        sidecar["ground_truth"] = gt_entry
        if gt.endmembers is not None:
            em_path = _output_path(stem, ".endmembers.csv")
            write_endmembers(em_path, cube.axis, gt.endmembers)
            sidecar["endmembers"] = em_path.name
    sidecar_path = _output_path(stem, ".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return sidecar_path


def _sidecar_count(value: Any, where: str) -> int:
    count = config_value(value, where, "count")
    if count < 0:
        raise ValueError(f"{where} must be >= 0, got {count}")
    return count


def read_cube(sidecar_path: str | Path) -> HyperCube:
    """Read a cube from its JSON sidecar (paths resolved relative to it).

    Before any data is read, the sidecar is refused by key when a required
    key is missing, a size is not a whole number >= 0, or dtype and order
    differ from the "<f8" and "column-major" that write_cube writes.  A
    sidecar whose "geometries" is not a file name (such as the per-pixel
    list of an older format) is rejected by that key, as are a .geom.bin of
    the wrong size (by its path) and an angle outside its range (by angle
    name and first bad pixel).
    """
    sidecar_path = Path(sidecar_path)
    raw = _required_keys(json.loads(sidecar_path.read_text()),
                         ["bands", "pixels", "dtype", "order", "data", "wavelengths_um"], str(sidecar_path))
    for key, written in (("dtype", "<f8"), ("order", "column-major")):
        if raw[key] != written:
            raise ValueError(f"{sidecar_path}: {key} must be {written!r}, got {raw[key]!r}")
    bands, pixels = (_sidecar_count(raw[key], f"{sidecar_path}: {key}") for key in ("bands", "pixels"))
    gt_raw = raw.get("ground_truth")
    if gt_raw is not None:
        _required_keys(gt_raw, ["materials", "abundances"], f"{sidecar_path}: ground_truth")
        n_materials = _sidecar_count(gt_raw["materials"], f"{sidecar_path}: ground_truth.materials")
    base = sidecar_path.parent
    values = _read_matrix(base / raw["data"], bands, pixels)
    axis = WavelengthAxis(np.asarray(raw["wavelengths_um"], dtype=float))
    geometries = None
    geom_name = raw.get("geometries")
    if geom_name is not None:
        if not isinstance(geom_name, str):
            raise ValueError(
                f"{sidecar_path}: geometries must name a .geom.bin file, got a {type(geom_name).__name__} "
                "(per-pixel geometry lists are an older cube format)"
            )
        geom_path = base / geom_name
        angles = _read_matrix(geom_path, pixels, 3)
        try:
            geometries = Geometry(theta0=angles[:, 0], theta=angles[:, 1], phi=angles[:, 2])
        except ValueError as exc:
            raise ValueError(f"{geom_path}: {exc}") from None
    ground_truth = None
    if gt_raw is not None:
        abundances = _read_matrix(base / gt_raw["abundances"], n_materials, pixels)
        scales = None
        if gt_raw.get("scales") is not None:
            scales = _read_matrix(base / gt_raw["scales"], n_materials, pixels)
        endmembers = None
        if raw.get("endmembers") is not None:
            _, endmembers = read_endmembers(base / raw["endmembers"])
        ground_truth = GroundTruth(abundances=abundances, scales=scales, endmembers=endmembers)
    return HyperCube(values=values, axis=axis, geometries=geometries, ground_truth=ground_truth)


def cube_meta(sidecar_path: str | Path) -> dict[str, Any]:
    """Raw sidecar dictionary (generation metadata such as model and seed)."""
    return json.loads(Path(sidecar_path).read_text())


def cube_files(sidecar_path: str | Path) -> list[Path]:
    """The files a cube sidecar names, in its order: data, geometries, ground truth, endmembers."""
    sidecar_path = Path(sidecar_path)
    raw = cube_meta(sidecar_path)
    gt = raw.get("ground_truth") or {}
    names = (raw["data"], raw.get("geometries"), gt.get("abundances"), gt.get("scales"), raw.get("endmembers"))
    return [sidecar_path.parent / name for name in names if name is not None]


# ---------------------------------------------------------------------------
# unmixing result: binary matrices + JSON summary
# ---------------------------------------------------------------------------

def unmix_files(stem: str | Path) -> list[Path]:
    """The binary files of the unmixing result written for stem: abundances, scales, RMSE."""
    return [_output_path(stem, suffix) for suffix in (".a.bin", ".psi.bin", ".rmse.bin")]


def write_unmix_result(
    stem: str | Path, result: UnmixResult, summary: dict[str, Any] | None = None
) -> Path:
    """Write <stem>.a.bin, .psi.bin, .rmse.bin and the <stem>.json summary.

    The summary holds the matrix sizes, the three binary file names, the
    sum_to_one flag, residual_stats (mean, median and max of the per-pixel
    RMSE) and degenerate_pixels (the count of pixels whose non-negative fit
    is 0, by one rule for every model), plus any extra summary keys.  It
    holds no per-pixel list: each pixel's final objective is L * rmse^2,
    read from .rmse.bin.
    """
    Path(stem).parent.mkdir(parents=True, exist_ok=True)
    a_path, psi_path, rmse_path = unmix_files(stem)
    _write_matrix(a_path, result.abundances)
    _write_matrix(psi_path, result.scales)
    _write_matrix(rmse_path, result.residual_rmse.reshape(-1, 1))
    payload: dict[str, Any] = {
        "materials": result.n_materials,
        "pixels": result.n_pixels,
        "abundances": a_path.name,
        "scales": psi_path.name,
        "residual_rmse": rmse_path.name,
        "sum_to_one": bool(result.sum_to_one),
        "residual_stats": {
            "mean": float(np.mean(result.residual_rmse)),
            "median": float(np.median(result.residual_rmse)),
            "max": float(np.max(result.residual_rmse)),
        },
        "degenerate_pixels": int(np.count_nonzero(result.degenerate)),
    }
    if summary:
        payload.update(summary)
    out = _output_path(stem, ".json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


# ---------------------------------------------------------------------------
# sweep and curve CSV outputs
# ---------------------------------------------------------------------------

def _write_rows(paths: list[str | Path], header: str, rows: Iterable[str]) -> None:
    """Header and rows formatted once, each line ended in CRLF as csv.writer ends it, and written to each path."""
    text = "\r\n".join([header, *rows, ""])
    for path in paths:
        Path(path).write_text(text, newline="")


def write_sweep_csv(path: str | Path, result: SweepResult) -> None:
    """Long-form rows 'theta0,theta,sam_rad,rmse' in grid order.

    Each cell's 'sam_rad,rmse' text is formatted once per distinct source
    cell: when the grid is square and sam and rmse both equal their
    transposes bit for bit, cell (j, i) takes the text of cell (i, j), else
    every cell is its own source.  Equal bits have equal repr, so the bytes
    equal those of a per-cell repr writer.  The check is on bits, not
    values: 0.0 == -0.0 although their text differs, and a mirrored NaN is
    not equal to itself.
    """
    grid = result.grid
    sam, err = (np.asarray(values, dtype=float) for values in (result.sam, result.rmse))
    source = np.arange(sam.size).reshape(sam.shape)
    if all(np.array_equal(bits, bits.T) for bits in (sam.view(np.int64), err.view(np.int64))):  # False unless square
        source = np.minimum(source, source.T)  # (j, i) below the diagonal reads (i, j) above it
    source = source.ravel()
    own = source == np.arange(source.size)
    text = np.empty(source.size, dtype=object)
    text[own] = [f"{s!r},{e!r}" for s, e in zip(sam.ravel()[own].tolist(), err.ravel()[own].tolist())]
    # product keeps the text of each grid angle, formatted once
    angles = product(map(repr, grid.theta0_values.tolist()), map(repr, grid.theta_values.tolist()))
    rows = (f"{theta0},{theta},{cell}" for (theta0, theta), cell in zip(angles, text[source].tolist()))
    _write_rows([path], "theta0,theta,sam_rad,rmse", rows)


def write_curve_csv(paths: list[str | Path], omega_grid, reflectance) -> None:
    """Albedo-to-reflectance curve rows 'omega,reflectance'; every path gets the same text, formatted once."""
    omega, rho = (np.asarray(values, dtype=float).ravel().tolist() for values in (omega_grid, reflectance))
    rows = (f"{w!r},{r!r}" for w, r in zip(omega, rho))
    _write_rows(paths, "omega,reflectance", rows)
