"""Output checks for the benchmark, written independently of specmix.

Nothing here imports specmix: the optimality test restates the KKT
conditions of each unmixing problem from scratch, and the CLI outputs are
read with plain numpy, so a defect in the solver or in the file writers
cannot also hide in the check that judges it.

Every unmixing model solves, for z = psi * a per pixel,

    min |x - S z|^2   subject to   z >= 0,  lo <= sum(z) <= hi

with lo = hi = 1 for the plain mixing model and the solver's psi_bounds for
the scaled models (for elmm-full the per-material scales only
reparameterize the same feasible set of z).  The data must be
reflectance-scale: the relative tolerances below assume entries of order
0.01 to 1, which is the domain of every specmix type.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

#: Relative KKT residual a returned optimum may have.  The solver stops at
#: 1e-10; the slack covers rounding in the check itself.
KKT_TOL = 1e-8
#: Absolute slack on abundance column sums (the UnmixResult contract).
SUM_TOL = 1e-9
#: Relative slack for deciding that sum(z) sits on a psi bound.
BOUND_RTOL = 1e-9
#: Absolute slack on the noiseless identity X = S0 (psi * A).
IDENTITY_TOL = 1e-12
#: elmm-full may beat elmm-global but not lose to it by more than this
#: share of the pixel's energy |x|^2.
OBJECTIVE_RTOL = 1e-9


class CheckFailed(Exception):
    """An output broke one of the benchmark's correctness checks."""


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def check_simplex(A: np.ndarray, what: str) -> None:
    """Columns of A are non-negative and sum to one."""
    if not np.all(np.isfinite(A)):
        raise CheckFailed(f"{what}: non-finite abundances at pixel {_first(~np.isfinite(A).all(axis=0))}")
    if np.any(A < 0.0):
        raise CheckFailed(f"{what}: negative abundance at pixel {_first((A < 0.0).any(axis=0))}")
    deviation = np.abs(A.sum(axis=0) - 1.0)
    if np.any(deviation > SUM_TOL):
        n = _first(deviation > SUM_TOL)
        raise CheckFailed(f"{what}: abundances of pixel {n} sum to 1 off by {deviation[n]:.3e}")


def kkt_residual(S: np.ndarray, X: np.ndarray, Z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Relative KKT residual of each pixel of min |x - S z|^2, z >= 0, lo <= sum(z) <= hi.

    With g = S'(S z - x), optimality means: g equals one multiplier m on
    the support of z, g >= m off it, and m >= 0 when sum(z) = lo, m <= 0
    when sum(z) = hi, m = 0 in between.  The residual is the worst breach
    of these, divided by the size of the pixel's cross terms S'x.
    """
    G = S.T @ S
    C = S.T @ X
    GZ = G @ Z
    g = GZ - C
    support = Z > 0.0
    count = support.sum(axis=0)
    m = np.where(support, g, 0.0).sum(axis=0) / np.maximum(count, 1)
    stationarity = np.where(support, np.abs(g - m), 0.0).max(axis=0)
    dual = np.where(support, 0.0, np.maximum(m - g, 0.0)).max(axis=0)
    total = Z.sum(axis=0)
    at_lo = np.abs(total - lo) <= BOUND_RTOL * lo
    at_hi = np.abs(total - hi) <= BOUND_RTOL * hi
    sign = np.where(
        at_lo & at_hi, 0.0, np.where(at_lo, np.maximum(-m, 0.0), np.where(at_hi, np.maximum(m, 0.0), np.abs(m)))
    )
    scale = np.maximum(np.abs(C).max(axis=0), np.abs(GZ).max(axis=0))
    scale = np.maximum(scale, np.finfo(float).tiny)
    return np.maximum(np.maximum(stationarity, dual), sign) / scale


def check_unmix(
    S: np.ndarray,
    X: np.ndarray,
    A: np.ndarray,
    psi: np.ndarray,
    model: str,
    psi_bounds: tuple[float, float],
) -> dict[str, object]:
    """Check one unmixing result; returns the worst KKT residual and objectives.

    Raises CheckFailed when abundances leave the simplex, a scale leaves
    psi_bounds, or any pixel is not the exact constrained optimum.
    """
    what = f"{model} result"
    if A.shape != psi.shape or A.shape != (S.shape[1], X.shape[1]):
        raise CheckFailed(f"{what}: shapes {A.shape}/{psi.shape} for {S.shape[1]} materials, {X.shape[1]} pixels")
    check_simplex(A, what)
    lo, hi = psi_bounds
    outside = (psi < lo) | (psi > hi) | ~np.isfinite(psi)
    if np.any(outside):
        n = _first(outside.any(axis=0))
        raise CheckFailed(f"{what}: scale outside [{lo:g}, {hi:g}] at pixel {n}: {psi[:, n]}")
    Z = psi * A
    box = (1.0, 1.0) if model == "lmm" else (lo, hi)
    total = Z.sum(axis=0)
    infeasible = (total < box[0] * (1.0 - BOUND_RTOL)) | (total > box[1] * (1.0 + BOUND_RTOL))
    if np.any(infeasible):
        n = _first(infeasible)
        raise CheckFailed(f"{what}: sum(psi * a) = {total[n]} outside {box} at pixel {n}")
    residual = kkt_residual(S, X, Z, *box)
    bad = residual > KKT_TOL
    if np.any(bad):
        n = int(np.argmax(residual))
        raise CheckFailed(
            f"{what}: {int(bad.sum())} pixels miss the KKT conditions; worst pixel {n} "
            f"has relative residual {residual[n]:.3e} > {KKT_TOL:g}"
        )
    R = X - S @ Z
    return {"kkt_max_rel": float(residual.max(initial=0.0)), "objective": np.einsum("ln,ln->n", R, R)}


def check_objective_order(full: np.ndarray, global_: np.ndarray, X: np.ndarray) -> None:
    """elmm-full (more freedom) must fit every pixel at least as well as elmm-global."""
    excess = full - global_ - OBJECTIVE_RTOL * np.einsum("ln,ln->n", X, X)
    if np.any(excess > 0.0):
        n = int(np.argmax(excess))
        raise CheckFailed(
            f"elmm-full objective {full[n]:.6e} exceeds elmm-global {global_[n]:.6e} at pixel {n}"
        )


def check_linear_identity(X: np.ndarray, S0: np.ndarray, psi: np.ndarray, A: np.ndarray) -> None:
    """A noiseless linear-model cube equals S0 (psi * A) to IDENTITY_TOL."""
    worst = float(np.max(np.abs(X - S0 @ (psi * A))))
    if not worst <= IDENTITY_TOL:
        raise CheckFailed(f"linear cube: max |X - S0 (psi * A)| = {worst:.3e} > {IDENTITY_TOL:g}")


def check_sweep(
    theta0: np.ndarray, theta: np.ndarray, pair: tuple[str, str], valid: np.ndarray, sam: np.ndarray, rmse: np.ndarray
) -> None:
    """Only the doubly grazing cell of a Lambertian sweep is skipped; SAM lies in [0, pi]."""
    expected = np.ones((theta0.size, theta.size), dtype=bool)
    if "lambertian" in pair:
        expected &= ~((theta0[:, None] == 90.0) & (theta[None, :] == 90.0))
    what = f"{pair[0]}/{pair[1]} sweep"
    if valid.shape != expected.shape or not np.array_equal(valid, expected):
        raise CheckFailed(f"{what}: {int(np.sum(~valid))} skipped cells, expected {int(np.sum(~expected))}")
    s, r = sam[valid], rmse[valid]
    if not (np.all(np.isfinite(s)) and np.all(s >= 0.0) and np.all(s <= np.pi)):
        raise CheckFailed(f"{what}: spectral angle outside [0, pi]")
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)):
        raise CheckFailed(f"{what}: RMSE negative or non-finite")
    if not (np.all(np.isnan(sam[~valid])) and np.all(np.isnan(rmse[~valid]))):
        raise CheckFailed(f"{what}: skipped cells must hold NaN")


# ---------------------------------------------------------------------------
# CLI outputs, read without specmix.io
# ---------------------------------------------------------------------------

def read_f64(path: Path, rows: int, cols: int) -> np.ndarray:
    """Column-major little-endian float64 matrix file."""
    data = np.fromfile(path, dtype="<f8")
    if data.size != rows * cols:
        raise CheckFailed(f"{path.name}: {data.size} values, expected {rows} x {cols}")
    return data.reshape((rows, cols), order="F")


def read_spectra_csv(path: Path) -> np.ndarray:
    """Spectra table 'wavelength,<material>...' as a bands x materials matrix."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def check_sweep_csv(path: Path, cells: int) -> None:
    """Sweep CSV rows 'theta0,theta,sam_rad,rmse': one per cell, SAM in [0, pi]."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (cells, 4):
        raise CheckFailed(f"{path.name}: {table.shape[0]} rows, expected {cells}")
    sam = table[:, 2]
    if not (np.all(np.isfinite(sam)) and np.all(sam >= 0.0) and np.all(sam <= np.pi)):
        raise CheckFailed(f"{path.name}: spectral angle outside [0, pi]")


def file_digests(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def check_same_bytes(digests: dict[str, str], reference: dict[str, str]) -> None:
    """Outputs of a repeated deterministic command match the first run byte for byte."""
    if digests.keys() != reference.keys():
        raise CheckFailed(f"output files {sorted(digests)} differ from op 0's {sorted(reference)}")
    changed = [name for name in digests if digests[name] != reference[name]]
    if changed:
        raise CheckFailed(f"outputs differ from op 0 byte for byte: {', '.join(changed)}")
