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
from contextlib import contextmanager
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
    _Unshared,
    check_config_keys,
    config_value,
    json_name,
    require_config_keys,
)
from .metrics import SweepResult


def read_json(path: str | Path) -> dict[str, Any]:
    """The JSON object in path, the one parser of every input JSON file; anything else is refused as "<path>: ..."."""
    with _refused_as(path):  # json's decode error, or text that is not UTF-8
        raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return raw


@contextmanager
def _refused_as(where: Any):
    """Prefix where to the message of a ValueError raised in the block: a type's refusal, named by its input."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                for column, (name, cell) in enumerate(zip(["wavelength", *materials], row), start=1):
                    with _refused_as(f"{path}:{lineno}: column {column} ({name})"):
                        float(cell)  # refused again, now named by its place
    if not rows:
        raise ValueError(f"{path}: no spectral bands")
    table = np.asarray(rows, dtype=float)
    with _refused_as(path):
        axis = WavelengthAxis(table[:, 0])
    return axis, materials, table[:, 1:]


def read_albedos(path: str | Path) -> list[AlbedoSpectrum]:
    """Read a spectra CSV as albedo spectra (values validated to [0, 1]); a refusal is named "<path>: ..."."""
    axis, materials, columns = _read_spectra_table(path)
    with _refused_as(path):
        return [
            AlbedoSpectrum(material=name, omega=columns[:, k], axis=axis)
            for k, name in enumerate(materials)
        ]


def write_albedos(path: str | Path, albedos: list[AlbedoSpectrum]) -> None:
    axis = albedos[0].axis
    matrix = np.column_stack([albedo.omega for albedo in albedos])
    write_spectra_table(path, axis, [a.material for a in albedos], matrix)


def read_endmembers(path: str | Path) -> tuple[WavelengthAxis, EndmemberMatrix]:
    """Read a spectra CSV as reference endmember reflectances (>= 0); a refusal is named "<path>: ..."."""
    axis, materials, columns = _read_spectra_table(path)
    with _refused_as(path):
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
    raw = read_json(path)
    if not all(isinstance(entry, dict) for entry in raw.values()):
        return [_params_from(raw, str(path))] * len(materials)
    missing = [name for name in materials if name not in raw]
    if missing:
        raise ValueError(f"{path}: photometry missing for materials: {', '.join(missing)}")
    return [_params_from(raw[name], f"{path}[{name}]") for name in materials]


def _params_from(raw: dict[str, Any], where: str) -> PhotometricParams:
    keys = [f.name for f in fields(PhotometricParams)]
    require_config_keys(check_config_keys(raw, keys, where), keys, where)
    values = {key: config_value(raw[key], f"{where}: {key}") for key in keys}
    with _refused_as(where):  # a value out of its range
        return PhotometricParams(**values)


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
    return data.reshape((rows, cols), order="F").view(_Unshared)  # over immutable bytes: kept, not copied


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


def _read_sidecar(sidecar_path: Path) -> tuple[dict[str, Any], dict[str, Path]]:
    """A sidecar's JSON object and its file entries by key, in file order, resolved beside it.

    data, and ground_truth.abundances when ground_truth is given, must name a
    file; the other entries may be null or absent, and are then left out.
    """
    where = str(sidecar_path)
    keys = ["bands", "pixels", "dtype", "order", "data", "wavelengths_um"]
    raw = require_config_keys(read_json(sidecar_path), keys, where)
    required = ["data"]
    gt = raw.get("ground_truth")
    if gt is not None:
        require_config_keys(gt, ["materials", "abundances"], f"{where}: ground_truth")
        required.append("ground_truth.abundances")
    gt = gt or {}
    names = {
        "data": raw["data"],
        "geometries": raw.get("geometries"),
        "ground_truth.abundances": gt.get("abundances"),
        "ground_truth.scales": gt.get("scales"),
        "endmembers": raw.get("endmembers"),
    }
    return raw, {
        key: sidecar_path.parent / config_value(name, f"{where}: {key}", "name")
        for key, name in names.items()
        if name is not None or key in required
    }


def read_cube(sidecar_path: str | Path) -> HyperCube:
    """Read a cube from its JSON sidecar (paths resolved relative to it).

    The sidecar is read like a config, through config_value, and refused by
    key before any data file is read: a missing key, a size that is not a
    whole number >= 0, a pixel count of 0, a dtype or order other than
    write_cube's, a file entry that is not a file name (such as an older
    format's per-pixel geometry list), wavelengths_um that are not bands
    numbers.  A data file of the wrong size is refused by its path, a bad
    angle by its .geom.bin.
    """
    raw, files = _read_sidecar(Path(sidecar_path))
    where = str(sidecar_path)
    for key, written in (("dtype", "<f8"), ("order", "column-major")):
        if raw[key] != written:
            raise ValueError(f"{where}: {key} must be {written!r}, got {json_name(raw[key])}")
    bands, pixels = (config_value(raw[key], f"{where}: {key}", "count") for key in ("bands", "pixels"))
    if pixels < 1:
        raise ValueError(f"{where}: pixels must be >= 1, got {pixels}")
    wavelengths = config_value(raw["wavelengths_um"], f"{where}: wavelengths_um", "numbers")
    if len(wavelengths) != bands:
        raise ValueError(f"{where}: wavelengths_um holds {len(wavelengths)} values, bands is {bands}")
    with _refused_as(f"{where}: wavelengths_um"):
        axis = WavelengthAxis(np.array(wavelengths))
    gt = raw.get("ground_truth")
    if gt is not None:
        n_materials = config_value(gt["materials"], f"{where}: ground_truth.materials", "count")
    values = _read_matrix(files["data"], bands, pixels)
    geometries = None
    if "geometries" in files:
        angles = _read_matrix(files["geometries"], pixels, 3)
        with _refused_as(files["geometries"]):
            geometries = Geometry(theta0=angles[:, 0], theta=angles[:, 1], phi=angles[:, 2])
    ground_truth = None
    if gt is not None:
        abundances = _read_matrix(files["ground_truth.abundances"], n_materials, pixels)
        scales = None
        if "ground_truth.scales" in files:
            scales = _read_matrix(files["ground_truth.scales"], n_materials, pixels)
        endmembers = None
        if "endmembers" in files:
            _, endmembers = read_endmembers(files["endmembers"])
    with _refused_as(where):  # ground-truth endmembers of another band or material count
        if gt is not None:
            ground_truth = GroundTruth(abundances=abundances, scales=scales, endmembers=endmembers)
        return HyperCube(values=values, axis=axis, geometries=geometries, ground_truth=ground_truth)


def cube_files(sidecar_path: str | Path) -> list[Path]:
    """The files a cube sidecar names, in its order: data, geometries, ground truth, endmembers."""
    return list(_read_sidecar(Path(sidecar_path))[1].values())


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
