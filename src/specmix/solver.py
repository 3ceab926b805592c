"""Constrained least-squares unmixing against a fixed endmember matrix.

Three models share one deterministic active-set core, run in Gram space so
per-pixel work costs O(P^3) regardless of band count:

- "lmm": classic (fully) constrained least squares per pixel.
- "elmm-global": one positive scale per pixel on top of the simplex.
- "elmm-full": per-material scales psi, x ~ S0 (psi * a).  Per pixel the
  data pin down only the product z = psi * a, and the scaled simplex maps
  onto exactly {z >= 0, lo <= sum(z) <= hi}.  That set is convex, so one
  exact active-set solve gives the optimum; no iteration is needed.  The
  optimum is split as a = z / sum(z) with psi = sum(z) on present materials
  and psi = 1 on absent ones.  Telling per-material scales apart needs a
  spatial prior, such as the regularized ADMM of Drumetz et al. (IEEE TIP
  2016), which would also need an image shape on HyperCube.

Per-pixel problems are independent and touch no shared mutable state, so
pixels may be solved concurrently with results identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .core import EndmemberMatrix, FloatArray, HyperCube, UnmixResult

SOLVER_MODELS = ("lmm", "elmm-global", "elmm-full")

#: Reduced-gradient slack at the active-set exit; well inside the 1e-8
#: feasibility the result contract promises for data of order unity.
_KKT_RTOL = 1e-10
_DROP_TOL = 1e-12
_MAX_OUTER_FACTOR = 30


@dataclass(frozen=True)
class SolverConfig:
    """Model choice and constraints for unmixing.

    Scaled models keep sum-to-one on: without it the product of scale and
    abundance is unidentifiable.  psi_bounds must bracket 1 so the plain
    mixing model stays inside the feasible set.  Every model is one exact
    solve per pixel, so there is no iteration budget.  For elmm-full, psi
    is the pixel's shared scale on every present material and exactly 1 on
    every absent one.
    """

    model: str = "elmm-full"
    sum_to_one: bool = True
    psi_bounds: tuple[float, float] = (1e-2, 1e2)

    def __post_init__(self) -> None:
        if self.model not in SOLVER_MODELS:
            raise ValueError(f"unknown solver model {self.model!r}; expected one of {SOLVER_MODELS}")
        lo, hi = self.psi_bounds
        if not (0.0 < lo <= 1.0 <= hi):
            raise ValueError(f"psi_bounds must satisfy 0 < low <= 1 <= high, got {self.psi_bounds}")
        object.__setattr__(self, "psi_bounds", (float(lo), float(hi)))
        if self.model != "lmm" and not self.sum_to_one:
            raise ValueError(f"{self.model} requires sum_to_one: the scale/abundance split is "
                             "unidentifiable without the simplex constraint")

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "sum_to_one": self.sum_to_one,
            "psi_bounds": list(self.psi_bounds),
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SolverConfig":
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ValueError(
                f"unknown solver config keys: {', '.join(unknown)}; expected {', '.join(known)}"
            )
        return cls(
            model=raw.get("model", "elmm-full"),
            sum_to_one=bool(raw.get("sum_to_one", True)),
            psi_bounds=tuple(raw.get("psi_bounds", (1e-2, 1e2))),
        )


# ---------------------------------------------------------------------------
# active-set core (Gram space)
# ---------------------------------------------------------------------------

def _nnls_gram(G: FloatArray, c: FloatArray) -> FloatArray:
    """min 0.5 a'Ga - c'a over a >= 0 (Lawson-Hanson on the Gram system).

    Entering variable: most negative multiplier, lowest index on ties.
    Exit guarantees every active multiplier >= -kkt_tol, kkt_tol scaled to the data.
    """
    n = c.size
    kkt_tol = _KKT_RTOL * max(1.0, float(np.max(np.abs(c))) if n else 1.0)
    a = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(_MAX_OUTER_FACTOR * n + 30):
        w = c - G @ a  # negative gradient; actives want w <= kkt_tol
        w[free] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= kkt_tol:
            return a
        free[j] = True
        for _ in range(_MAX_OUTER_FACTOR * n + 30):
            idx = np.flatnonzero(free)
            target = np.linalg.solve(G[np.ix_(idx, idx)], c[idx])
            if np.all(target > _DROP_TOL):
                a = np.zeros(n)
                a[idx] = target
                break
            current = a[idx]
            sink = target <= _DROP_TOL
            steps = current[sink] / (current[sink] - target[sink])
            alpha = float(np.min(steps))
            a[idx] = current + alpha * (target - current)
            drop = idx[a[idx] <= _DROP_TOL]
            a[drop] = 0.0
            free[drop] = False
            if not free.any():
                a = np.zeros(n)
                break
        else:
            raise RuntimeError("non-negative least squares inner loop did not converge")
    raise RuntimeError("non-negative least squares did not converge")


def _sum_constrained_gram(G: FloatArray, c: FloatArray, total: float) -> FloatArray:
    """min 0.5 a'Ga - c'a over a >= 0, sum(a) = total (> 0).

    Primal active set started from the uniform feasible point.  The KKT
    system carries the equality row; the entering variable is the active
    index with the most negative multiplier (lowest index on ties).
    """
    n = c.size
    kkt_tol = _KKT_RTOL * max(1.0, float(np.max(np.abs(c))) if n else 1.0)
    drop_tol = _DROP_TOL * max(1.0, total)
    a = np.full(n, total / n)
    free = np.ones(n, dtype=bool)
    lam = 0.0
    for _ in range(_MAX_OUTER_FACTOR * n + 30):
        for _ in range(_MAX_OUTER_FACTOR * n + 30):
            idx = np.flatnonzero(free)
            k = idx.size
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = G[np.ix_(idx, idx)]
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.append(c[idx], total)
            solution = np.linalg.solve(kkt, rhs)
            target, lam = solution[:k], -solution[k]
            if np.all(target >= -drop_tol):
                a = np.zeros(n)
                a[idx] = np.maximum(target, 0.0)
                break
            current = a[idx]
            sink = target < -drop_tol
            steps = current[sink] / (current[sink] - target[sink])
            alpha = min(1.0, float(np.min(steps)))
            a[idx] = current + alpha * (target - current)
            drop = idx[a[idx] <= drop_tol]
            if drop.size == idx.size:
                # keep the largest entry so the sum constraint stays satisfiable
                drop = np.delete(drop, int(np.argmax(a[drop])))
            a[drop] = 0.0
            free[drop] = False
        active = ~free
        if not active.any():
            return a
        grad = G @ a - c
        multipliers = np.where(active, grad - lam, np.inf)
        j = int(np.argmin(multipliers))
        if multipliers[j] >= -kkt_tol:
            return a
        free[j] = True
    raise RuntimeError("sum-constrained least squares did not converge")


def _constrained_lstsq_gram(G: FloatArray, c: FloatArray, total: float | None) -> FloatArray:
    if total is None:
        return _nnls_gram(G, c)
    return _sum_constrained_gram(G, c, total)


def _best_mixture(G: FloatArray, c: FloatArray, lo: float, hi: float) -> FloatArray:
    """Exact minimizer of the mixture fit over {z >= 0, lo <= sum(z) <= hi}.

    This box on the coefficient sum is precisely the image of the
    per-material scaled simplex {psi * a}, so its minimizer is the elmm-full
    optimum and bounds every scaled model from below.
    """
    z = _nnls_gram(G, c)
    s = float(z.sum())
    if s < lo:
        return _sum_constrained_gram(G, c, lo)
    if s > hi:
        return _sum_constrained_gram(G, c, hi)
    return z


# ---------------------------------------------------------------------------
# public per-pixel operations
# ---------------------------------------------------------------------------

def _endmember_array(S0) -> FloatArray:
    arr = S0.values if isinstance(S0, EndmemberMatrix) else np.asarray(S0, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"endmember matrix must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("endmember matrix must be finite")
    return arr


def _check_endmembers(S: FloatArray) -> None:
    n_bands, n_materials = S.shape
    if n_bands < n_materials:
        raise ValueError(
            f"need at least as many bands as materials, got {n_bands} bands for {n_materials}"
        )
    if np.linalg.matrix_rank(S) < n_materials:
        raise ValueError("endmember matrix is rank deficient; materials are not independent")


def fcls(x, S0, sum_to_one: bool = True) -> FloatArray:
    """Least-squares abundances of one pixel under non-negativity.

    Minimizes |x - S0 a| subject to a >= 0 and, when sum_to_one is set,
    sum(a) = 1.  The active-set exit verifies the reduced gradient of every
    zeroed material is > -1e-8, i.e. the KKT conditions hold.
    """
    S = _endmember_array(S0)
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim != 1 or x_arr.size != S.shape[0]:
        raise ValueError(f"pixel spectrum length {x_arr.shape} does not match {S.shape[0]} bands")
    _check_endmembers(S)
    return _constrained_lstsq_gram(S.T @ S, S.T @ x_arr, 1.0 if sum_to_one else None)


@dataclass(frozen=True)
class GlobalScalingFit:
    """Per-pixel result of the globally scaled mixing model."""

    abundances: FloatArray
    scale: float
    degenerate: bool = False


def _global_pixel(
    G: FloatArray, c: FloatArray, lo: float, hi: float
) -> tuple[FloatArray, float, bool]:
    z = _nnls_gram(G, c)
    s = float(z.sum())
    if s <= 0.0:
        # x has no component in the cone: scale is arbitrary, report floor
        n = c.size
        return np.full(n, 1.0 / n), lo, True
    if lo <= s <= hi:
        return z / s, s, False
    bound = lo if s < lo else hi
    v = _sum_constrained_gram(G, c, bound)
    return v / bound, bound, False


def unmix_elmm_global(x, S0, config: SolverConfig) -> GlobalScalingFit:
    """Fit one pixel as a single positive scale times a simplex mixture.

    Solves non-negative least squares for the scaled abundances z, then
    splits z into scale = sum(z) and abundances z / sum(z).  When the sum
    falls outside psi_bounds the fit is re-solved on that bound, which is
    the exact constrained optimum.  A pixel with no component in the
    endmember cone (z = 0) is degenerate: uniform abundances are returned
    with the scale clamped to the lower bound and the flag set.
    """
    S = _endmember_array(S0)
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim != 1 or x_arr.size != S.shape[0]:
        raise ValueError(f"pixel spectrum length {x_arr.shape} does not match {S.shape[0]} bands")
    _check_endmembers(S)
    lo, hi = config.psi_bounds
    a, scale, degenerate = _global_pixel(S.T @ S, S.T @ x_arr, lo, hi)
    return GlobalScalingFit(abundances=a, scale=scale, degenerate=degenerate)


def unmix_cube(cube: HyperCube, S0, config: SolverConfig) -> UnmixResult:
    """Unmix every pixel of a cube under the configured model.

    Returns abundances, scaling factors (all ones for the plain mixing
    model), per-pixel reconstruction RMSE and the degenerate-pixel flags.
    Each pixel is one exact solve.  elmm-full solves the convex program in
    z = psi * a and reports psi = sum(z) on present materials, 1 on absent
    ones.  A non-finite cube value is rejected before any solve, naming its
    band and pixel.
    """
    X = cube.values if isinstance(cube, HyperCube) else np.asarray(cube, dtype=float)
    S = _endmember_array(S0)
    if X.ndim != 2 or X.shape[0] != S.shape[0]:
        raise ValueError(
            f"cube has {X.shape[0] if X.ndim == 2 else '?'} bands, endmembers have {S.shape[0]}"
        )
    if not np.all(np.isfinite(X)):
        band, pixel = np.unravel_index(int(np.argmax(~np.isfinite(X))), X.shape)
        raise ValueError(f"non-finite cube value {X[band, pixel]} at band {band}, pixel {pixel}")
    _check_endmembers(S)
    n_pixels = X.shape[1]
    n_materials = S.shape[1]
    lo, hi = config.psi_bounds

    G = S.T @ S
    C = S.T @ X  # P x N cross terms: the only O(L) work per pixel

    A = np.empty((n_materials, n_pixels))
    psi = np.ones((n_materials, n_pixels))
    degenerate = np.zeros(n_pixels, dtype=bool)

    if config.model == "lmm":
        total = 1.0 if config.sum_to_one else None
        for n in range(n_pixels):
            A[:, n] = _constrained_lstsq_gram(G, C[:, n], total)
    elif config.model == "elmm-global":
        for n in range(n_pixels):
            a, scale, is_degenerate = _global_pixel(G, C[:, n], lo, hi)
            A[:, n] = a
            psi[:, n] = scale
            degenerate[n] = is_degenerate
    else:
        for n in range(n_pixels):
            z = _best_mixture(G, C[:, n], lo, hi)
            total = float(z.sum())  # >= lo > 0
            a = z / total
            A[:, n] = a
            # a sum-constrained solve meets its bound only to rounding
            psi[:, n] = np.where(a > 0.0, min(max(total, lo), hi), 1.0)

    residual = X - S @ (psi * A)
    residual_rmse = np.sqrt(np.mean(residual * residual, axis=0))
    return UnmixResult(
        abundances=A,
        scales=psi,
        residual_rmse=residual_rmse,
        sum_to_one=config.sum_to_one,
        degenerate=degenerate,
    )
