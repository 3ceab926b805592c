"""Spectral error metrics and angle/albedo sweep experiments.

The angle sweep compares a reference reflectance model against its
approximation over a grid of incidence/emergence angles and reports the
spectral angle and RMSE per grid cell.  Each model is split as
N omega / (D(mu, mu0) A(omega, mu) A(omega, mu0)) (hapke.cell_factors); A is tabled
per grid angle and gathered by the valid cells, in grid order and consecutive
blocks.  RMSE is rmse of the reflectances, bit for bit those of hapke.reflectance.
SAM is spectral_angle of the shape spectra omega / (A(mu) A(mu0)), free of N / D:
within 2 eps of that of the reflectances, and exactly 0 between lambertian and
relative.  No value depends on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AlbedoSpectrum, FloatArray, Geometry, PhotometricParams, cos_deg
from .hapke import _check_mu, _check_omega, angle_divisor, cell_factors, defined_at, reflectance

#: Models an angle sweep may pair: the ones fully determined by (mu, mu0).
SWEEP_MODELS = ("lambertian", "relative", "linear")

#: Valid cells per (cells, bands) block of an angle sweep: cache-sized at L ~ 200.
_CHUNK_CELLS = 128


def spectral_angle(u, v):
    """Angle in radians between two spectra (or stacks of spectra).

    arccos(<u, v> / (|u| |v|)) in [0, pi]; invariant to positive rescaling
    of either argument.  Reduction is over the last axis.  Evaluated in the
    2 atan2 form, which stays fully accurate near 0 and pi where the
    arccosine loses half its digits; identical spectra give exactly zero.

    Raises ValueError on zero vectors or mismatched lengths.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if u_arr.shape[-1] != v_arr.shape[-1]:
        raise ValueError(f"spectra lengths differ: {u_arr.shape[-1]} vs {v_arr.shape[-1]}")
    norm_u = np.sqrt(_sum_sq(u_arr))[..., None]
    norm_v = np.sqrt(_sum_sq(v_arr))[..., None]
    if np.any(norm_u == 0.0) or np.any(norm_v == 0.0):
        raise ValueError("spectral angle undefined for a zero spectrum")
    scaled_u, scaled_v = u_arr * norm_v, v_arr * norm_u  # both of the broadcast shape
    across = np.sqrt(_sum_sq(scaled_u - scaled_v))
    along = np.sqrt(_sum_sq(np.add(scaled_u, scaled_v, out=scaled_u)))
    return 2.0 * np.arctan2(across, along)


def rmse(u, v):
    """Root mean squared difference between two equal-length spectra.

    Reduction is over the last axis, so stacks of spectra broadcast.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if u_arr.shape[-1] != v_arr.shape[-1]:
        raise ValueError(f"spectra lengths differ: {u_arr.shape[-1]} vs {v_arr.shape[-1]}")
    return np.sqrt(_sum_sq(u_arr - v_arr) / u_arr.shape[-1])


def _sum_sq(rows):
    return np.einsum("...i,...i->...", rows, rows)  # one pass over the last axis, no temporary


def albedo_curve(
    mu: float,
    mu0: float,
    model: str,
    omega_grid,
    params: PhotometricParams | None = None,
    phi: float = 0.0,
) -> FloatArray:
    """Reflectance of the selected model sampled over an albedo grid.

    Geometry is fixed through the cosines mu and mu0 (phi only matters for
    the full model, which also needs photometric parameters).  Returns the
    reflectance for each omega in the grid; model-domain errors propagate.
    """
    omega = _check_omega(omega_grid)
    mu, mu0 = float(_check_mu(mu, "mu")), float(_check_mu(mu0, "mu0"))
    g = Geometry(
        theta0=float(np.degrees(np.arccos(mu0))), theta=float(np.degrees(np.arccos(mu))), phi=phi
    ).g
    return reflectance(model, omega, mu, mu0, g, params)


def _default_grid() -> FloatArray:
    return np.arange(91, dtype=float)


@dataclass(frozen=True)
class SweepGrid:
    """Angle grid and model pair for one sweep experiment."""

    theta0_values: FloatArray = field(default_factory=_default_grid)
    theta_values: FloatArray = field(default_factory=_default_grid)
    model_pair: tuple[str, str] = ("relative", "linear")

    def __post_init__(self) -> None:
        for name in ("theta0_values", "theta_values"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D list of degrees")
            if not np.all((arr >= 0.0) & (arr <= 90.0)):
                raise ValueError(f"{name} must be finite and lie in [0, 90] degrees")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        pair = self.model_pair
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(m in SWEEP_MODELS for m in pair)):
            raise ValueError(f"model pair {pair!r} not supported; expected two of {SWEEP_MODELS}")
        object.__setattr__(self, "model_pair", (str(pair[0]), str(pair[1])))


@dataclass(frozen=True)
class SweepResult:
    """Per-cell spectral angle and RMSE between the two swept models.

    sam and rmse are indexed [theta0, theta] following the grid order.
    valid is False where either model is undefined (the doubly grazing
    cell when the Lambertian model takes part); those cells hold NaN.
    """

    grid: SweepGrid
    sam: FloatArray
    rmse: FloatArray
    valid: np.ndarray

    @property
    def n_skipped(self) -> int:
        return int(np.size(self.valid) - np.count_nonzero(self.valid))


def angle_sweep(albedo: AlbedoSpectrum, grid: SweepGrid) -> SweepResult:
    """Compare the grid's model pair on one albedo across all angle cells.

    For each (theta0, theta) cell both models' reflectance spectra are
    built from the albedo and compared by spectral angle and RMSE.  Cells
    where either model is undefined are skipped and flagged.  The angle is
    that of the shape spectra (see the module docstring).
    """
    omega = albedo.omega
    if np.all(omega == 0.0):
        raise ValueError("albedo spectrum is identically zero; spectral angle undefined")
    mu0, mu = cos_deg(grid.theta0_values), cos_deg(grid.theta_values)
    valid = np.logical_and(*(defined_at(m, mu[None, :], mu0[:, None]) for m in grid.model_pair))
    cells = np.flatnonzero(valid)  # valid cells in grid order
    tables = {m: (angle_divisor(m, omega, mu0[:, None]), angle_divisor(m, omega, mu[:, None]))
              for m in grid.model_pair if m != "linear"}
    sam, err = np.full(valid.shape, np.nan), np.full(valid.shape, np.nan)
    for start in range(0, cells.size, _CHUNK_CELLS):
        i, j = np.divmod(cells[start:start + _CHUNK_CELLS], mu.size)
        shapes = [omega if m == "linear" else omega / (tables[m][1][j] * tables[m][0][i]) for m in grid.model_pair]
        sam[i, j] = spectral_angle(*shapes)
        rhos = []  # rounded as in hapke.reflectance; relative's is its shape (N = D = 1), linear's omega / D
        for m, shape in zip(grid.model_pair, shapes):
            numerator, divisor = cell_factors(m, mu[j, None], mu0[i, None])
            if m == "lambertian":
                shape = numerator * omega / (divisor * tables[m][1][j] * tables[m][0][i])
            rhos.append(omega / divisor if m == "linear" else shape)
        err[i, j] = rmse(*rhos)
    return SweepResult(grid=grid, sam=sam, rmse=err, valid=valid)
