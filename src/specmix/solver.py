"""Constrained least-squares unmixing against a fixed endmember matrix.

Three models share one deterministic active-set core, ``_active_set``,
run in Gram space so per-pixel work costs O(P^3) regardless of band count.
It is a primal active set for non-negative least squares (Lawson & Hanson
1974), or with the equality row sum(z) = total for the fully constrained
least squares of Heinz & Chang (IEEE TGRS 2001).  Both problems start
alike: on the full support at a uniform interior point, from which ratio
steps drop materials and the multiplier check adds back any that should
enter.  A dense pixel thus finishes in one solve, not one per material.

- "lmm": classic (fully) constrained least squares per pixel.
- "elmm-global" (one scale per pixel) and "elmm-full" (per-material scales
  psi, x ~ S0 (psi * a)): per pixel the data pin down only z = psi * a, and
  either scaled simplex maps onto exactly {z >= 0, lo <= sum(z) <= hi}.
  That set is convex, so both are one program, one exact active-set solve
  split as a = z / sum(z) and psi = sum(z); elmm-full alone reports psi = 1
  on absent materials.  Telling per-material scales apart needs a spatial
  prior, such as the regularized ADMM of Drumetz et al. (IEEE TIP 2016),
  which would also need an image shape on HyperCube.

A pixel is degenerate, under every model, when no entry of c = S'x passes
the entering test at z = 0: its non-negative fit is 0.

The core runs every pixel of a batch in lockstep: each step takes one
action per unfinished pixel (pick an entering material, or solve its
system on the free materials and take the ratio step).  All pixels share
G = S'S, so a pixel's system depends only on its free set, an integer
support mask.  A step builds the system of each distinct mask once, keeping
the rows and columns of the free materials and replacing the others by the
identity, inverts them in one stacked ``np.linalg.inv`` and gives every
pixel its mask's inverse by a gather and one batched ``np.matmul``; with a
sum constraint the lowest free material then takes exactly what the others
leave of the total.  Each final result takes one step of iterative
refinement, so its KKT residual is a solve's, not rounding times cond(G).
A pixel's arithmetic thus never depends on which other pixels share the
batch.  Every product whose length varies with the
batch is computed one pixel at a time (``_rowwise``).  A pixel's result is
therefore bit-identical whether it is solved alone, in a batch of any size
or in the whole cube.

unmix_cube sizes its two kinds of work apart.  A lockstep batch pays a
fixed cost per step, so it is as large as its biggest per-pixel temporary
allows: the gathered (P+1) x (P+1) inverses, _BATCH_FLOATS floats per batch
(2 MB, about 10^4 pixels at P = 4).  The residual, the one temporary of band
length, is computed _RESIDUAL_ROWS pixels at a time, so peak memory stays a
small fraction of the cube's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from typing import Any

import numpy as np

from .core import (EndmemberMatrix, FloatArray, HyperCube, UnmixResult, check_config_keys, config_value, json_name, pixel_major,
                   root_mean_square, sum_of_squares)

SOLVER_MODELS = ("lmm", "elmm-global", "elmm-full")

#: Reduced-gradient slack at the active-set exit, relative to the scale of
#: the pixel's gradient: well inside the 1e-8 feasibility the result
#: contract promises, at any data magnitude.
_KKT_RTOL = 1e-10
#: Coefficients at or below this fraction of the solution scale are zero.
_DROP_TOL = 1e-12
_MAX_OUTER_FACTOR = 30
#: Floats of the gathered (P+1) x (P+1) inverses, the largest per-pixel temporary, in one lockstep batch.
_BATCH_FLOATS = 2**18
#: Pixels per block of the (pixels x bands) residual in unmix_cube.
_RESIDUAL_ROWS = 1024


@dataclass(frozen=True)
class SolverConfig:
    """Model choice and constraints for unmixing.

    Scaled models keep sum-to-one on: without it the product of scale and
    abundance is unidentifiable.  psi_bounds must bracket 1 so the plain
    mixing model stays inside the feasible set.  Every model is one exact
    solve per pixel, so there is no iteration budget.  elmm-global and
    elmm-full solve one program; elmm-global reports the pixel's scale on
    every material, elmm-full on every present one and exactly 1 on every
    absent one.
    """

    model: str = "elmm-full"
    sum_to_one: bool = True
    psi_bounds: tuple[float, float] = (1e-2, 1e2)

    def __post_init__(self) -> None:
        if self.model not in SOLVER_MODELS:
            raise ValueError(f"unknown solver model {json_name(self.model)}; expected one of {SOLVER_MODELS}")
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
        check_config_keys(raw, (f.name for f in fields(cls)), "solver config")
        return cls(
            model=raw.get("model", "elmm-full"),
            sum_to_one=config_value(raw.get("sum_to_one", True), "sum_to_one", "flag"),
            psi_bounds=config_value(raw.get("psi_bounds", (1e-2, 1e2)), "psi_bounds", "pair"),
        )


# ---------------------------------------------------------------------------
# lockstep active-set core (Gram space, one pixel per row)
# ---------------------------------------------------------------------------

def _rowwise(M: FloatArray, B: FloatArray) -> FloatArray:
    """Row n of the result is M[n] @ B, as its own vector-matrix product.

    With contiguous rows, BLAS computes a row the same way however many rows
    are stacked, which a single matrix-matrix product does not promise.
    """
    return np.matmul(np.ascontiguousarray(M)[:, None, :], B)[:, 0, :]


def _solve_free(K: FloatArray, rhs: FloatArray, mask: np.ndarray, free: np.ndarray,
                start: FloatArray | None = None) -> FloatArray:
    """Solve K restricted to each row's free indices, from one inverse per distinct free set.

    Row n's free set is free[n], or its integer support mask mask[n]; the
    indices past free's width (the sum border) are always free.  Rows and
    columns outside a free set become the identity, whose inverse keeps the
    free block exactly apart: the kept block is solved as if alone, and
    entries outside it are never read.  Each distinct mask's system is built
    and inverted once (one stacked ``np.linalg.inv``), then every row takes
    its inverse by a gather and one batched ``np.matmul``.  Given start, a
    point that is 0 outside the free sets, the result is start plus the
    solution for the residual rhs - K start: one step of iterative
    refinement.  With the border, whose row is sum(z) = rhs[:, -1], the
    lowest free index takes what the other free entries leave of that
    total, so the sum holds to their rounding: the inverse alone would leak
    rounding times |c|, which at radiance scale or on a bound far below the
    fit can empty a support.
    """
    n, p = free.shape
    _, first, which = np.unique(mask, return_index=True, return_inverse=True)
    kept = np.ones((first.size, K.shape[0]), dtype=bool)
    kept[:, :p] = free[first]
    inverse = np.linalg.inv(np.where(kept[:, :, None] & kept[:, None, :], K, np.eye(K.shape[0])))
    residual = rhs if start is None else rhs - _rowwise(start, K)
    solution = np.matmul(inverse[which], residual[:, :, None])[:, :, 0]
    if start is not None:
        solution += start
    if K.shape[0] > p:
        rows, lowest = np.arange(n), np.argmax(kept[:, :p], axis=1)[which]
        others = np.where(free, solution[:, :p], 0.0)
        others[rows, lowest] = 0.0
        solution[rows, lowest] = rhs[:, p] - reduce(np.add, others.T)
    return solution


def _ratio_step(current: FloatArray, target: FloatArray, free: np.ndarray, sink: np.ndarray) -> FloatArray:
    """Move free entries from current toward target until the first sink hits 0, at most to target."""
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(sink, current / (current - target), np.inf)
    alpha = np.minimum(1.0, steps.min(axis=1))[:, None]
    return np.where(free, current + alpha * (target - current), 0.0)


def _active_set(G: FloatArray, C: FloatArray, scale: FloatArray, total: FloatArray | None = None) -> FloatArray:
    """min 0.5 z'Gz - c'z over z >= 0 for every row c of C, and sum(z) = total if given.

    scale holds max|c| per row, which the caller already has from its
    column-wise reductions.  total holds one positive sum per row.  Every
    pixel starts on the full support at the uniform point whose entries sum
    to its level: total, or scale / max(diag G) without one.  Without a
    total, a pixel that no material would enter at z = 0 (c = 0 among them)
    has level 0 and starts at z = 0, in the multiplier check, so its fit
    stays exactly 0.  With total the systems carry the equality row as a
    border whose multiplier the check subtracts.
    Each pixel's free set is an integer support mask, bit k for material k
    (Python integers past 63 materials, so any P fits); a step solves its
    pixels from one inverse per distinct mask (``_solve_free``), at most
    min(2^P, pixels in the step) of them, and the result takes one
    refinement step on its final free set.
    The entering variable is the active index with the most negative
    multiplier (lowest index on ties).  A free entry whose target is at or
    below the floor, +drop_tol without a total and -drop_tol with one, is a
    sink; the ratio step moves toward the target until the first sink hits
    0, at most all the way.  Tolerances are relative: kkt_tol to the
    gradient's scale, max|c| (with a total also total * max(diag G), so a
    dark pixel keeps a tolerance above the rounding of G z), and drop_tol to
    the solution's.  A pixel fails past either cap: 1 plus its entering
    steps, or its solves since the last one.
    """
    n, p = C.shape
    cap = _MAX_OUTER_FACTOR * p + 30
    g_max = np.max(np.diag(G))
    bits = np.array([1 << k for k in range(p)], dtype=np.int64 if p < 64 else object)
    if total is None:
        name = "non-negative least squares"
        K, rhs = G, C
        kkt_tol = _KKT_RTOL * scale
        level = np.where(reduce(np.maximum, C.T) > kkt_tol, scale / g_max, 0.0)
    else:
        name = "sum-constrained least squares"
        K = np.ones((p + 1, p + 1))
        K[:p, :p], K[p, p] = G, 0.0
        rhs = np.column_stack([C, total])
        level = total
        kkt_tol = _KKT_RTOL * np.maximum(scale, total * g_max)
        lam = np.zeros(n)
    drop_tol = (_DROP_TOL * level)[:, None]
    floor = drop_tol if total is None else -drop_tol
    # the uniform point on the full support; a pixel of level 0 starts at z = 0, in the multiplier check
    Z = np.repeat((level / p)[:, None], p, axis=1)
    starts = level > 0
    mask = starts.astype(bits.dtype) * ((1 << p) - 1)
    checking, solving = np.flatnonzero(~starts), np.flatnonzero(starts)
    outer = np.ones(n, dtype=int)
    inner = np.zeros(n, dtype=int)
    failed = np.zeros(n, dtype=bool)
    while checking.size or solving.size:
        inner[solving] += 1
        failed[solving[inner[solving] > cap]] = True
        s = solving[inner[solving] <= cap]
        f = (mask[s, None] & bits) != 0
        solution = _solve_free(K, rhs[s], mask[s], f)
        target = solution[:, :p]
        if total is not None:
            lam[s] = -solution[:, p]
        sink = f & (target <= floor[s])
        done = (sink @ bits) == 0
        Z[s[done]] = np.where(f[done], np.maximum(target[done], 0.0), 0.0)

        stepping = ~done
        b, f = s[stepping], f[stepping]
        step = _ratio_step(Z[b], target[stepping], f, sink[stepping])
        f &= step > drop_tol[b]
        Z[b] = np.where(f, step, 0.0)
        mask[b] = f @ bits
        emptied = mask[b] == 0
        # multiplier check: pixels of level 0, finished solves and emptied supports
        m = np.concatenate([checking, s[done], b[emptied]])

        multipliers = _rowwise(Z[m], G) - C[m]
        if total is not None:
            multipliers -= lam[m, None]
        multipliers[(mask[m, None] & bits) != 0] = np.inf
        j = np.argmin(multipliers, axis=1)
        go = multipliers[np.arange(m.size), j] < -kkt_tol[m]
        e, j = m[go], j[go]
        mask[e] |= bits[j]
        inner[e] = 0
        outer[e] += 1
        failed[e[outer[e] > cap]] = True
        checking, solving = np.arange(0), np.concatenate([b[~emptied], e[outer[e] <= cap]])
    if failed.any():
        raise RuntimeError(f"{name} did not converge on {int(failed.sum())} of {n} pixels")
    # An inverse gives a solve's forward error, but leaves a residual of rounding times cond(G) where a
    # solve leaves rounding: one refinement step from each result brings the KKT residual back to rounding.
    free = (mask[:, None] & bits) != 0
    solution = _solve_free(K, rhs, mask, free, Z if total is None else np.column_stack([Z, -lam]))
    return np.where(free, np.maximum(solution[:, :p], 0.0), 0.0)


def _unmix_rows(config: SolverConfig, G: FloatArray, C: FloatArray):
    """Abundances, scales and degenerate flags for the pixels c in the rows of C.

    Degenerate: no entry of c passes the non-negative active set's entering
    test at z = 0, so the non-negative fit is 0.  The ELMM models start from
    that fit z and re-solve the pixels whose sum(z) leaves psi_bounds, a
    degenerate one included, on the nearer bound: the exact optimum over
    {z >= 0, lo <= sum(z) <= hi}, the image of the scaled simplex.
    """
    n, p = C.shape
    # max(c) and max|c| column by column: a row-wise max over the short material axis is several times slower
    c_max = reduce(np.maximum, C.T)
    scale = np.maximum(c_max, -reduce(np.minimum, C.T))
    degenerate = ~(c_max > _KKT_RTOL * scale)
    if config.model == "lmm":
        return _active_set(G, C, scale, np.ones(n) if config.sum_to_one else None), np.ones((n, p)), degenerate
    lo, hi = config.psi_bounds
    Z = _active_set(G, C, scale)
    s = Z.sum(axis=1)
    bound = np.minimum(np.maximum(s, lo), hi)
    resolve = bound != s
    if resolve.any():
        Z[resolve] = _active_set(G, C[resolve], scale[resolve], bound[resolve])
    total = Z.sum(axis=1)  # >= lo > 0
    A = Z / total[:, None]
    # a sum-constrained solve meets its bound only to rounding
    clamped = np.minimum(np.maximum(total, lo), hi)[:, None]
    return A, np.where((A > 0.0) | (config.model == "elmm-global"), clamped, 1.0), degenerate


# ---------------------------------------------------------------------------
# public operations
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
    zeroed material is > -1e-8, i.e. the KKT conditions hold.  The result
    equals unmix_cube's lmm abundances for the same pixel, bit for bit:
    the pixel is unmixed as a one-column cube, with the same input checks.
    """
    x_arr = np.asarray(x, dtype=float)
    n_bands = _endmember_array(S0).shape[0]
    if x_arr.ndim != 1 or x_arr.size != n_bands:
        raise ValueError(f"pixel spectrum length {x_arr.shape} does not match {n_bands} bands")
    config = SolverConfig(model="lmm", sum_to_one=sum_to_one)
    return unmix_cube(x_arr[:, None], S0, config).abundances[:, 0]


def unmix_cube(cube: HyperCube, S0, config: SolverConfig) -> UnmixResult:
    """Unmix every pixel of a cube under the configured model.

    Returns abundances, scaling factors (all ones for the plain mixing
    model), per-pixel reconstruction RMSE and the degenerate-pixel flags
    (non-negative fit 0, under every model).  Each pixel is one exact solve.
    Both ELMM models solve the convex program in z = psi * a and report
    psi = sum(z); elmm-full reports 1 on absent materials.  A non-finite
    cube value is rejected before any solve, naming its band and pixel.

    Pixels are solved in lockstep batches of _BATCH_FLOATS // (P+1)^2
    pixels, which bounds the gathered inverses, with no loop over pixels;
    the reconstruction residual is then formed _RESIDUAL_ROWS pixels at a
    time, which bounds the one (pixels x bands) temporary.  A pixel's
    residual_rmse is metrics.rmse of its reconstruction S0 (psi * a), one
    vector-matrix product, and its spectrum, bit for bit.  Every output of
    a pixel is bit-identical to unmixing that pixel alone, or in any other
    batch.  A batch's rows are views of the pixel-major cube values; a cube
    given as a plain (bands, pixels) array is brought to that layout once
    per call, by core.pixel_major.
    """
    X = cube.values if isinstance(cube, HyperCube) else pixel_major(cube, copy=False)
    S = _endmember_array(S0)
    if X.shape[0] != S.shape[0]:
        raise ValueError(f"cube has {X.shape[0]} bands, endmembers have {S.shape[0]}")
    if not np.all(np.isfinite(X)):
        band, pixel = np.unravel_index(int(np.argmax(~np.isfinite(X))), X.shape)
        raise ValueError(f"non-finite cube value {X[band, pixel]} at band {band}, pixel {pixel}")
    _check_endmembers(S)
    n_bands, n_pixels = X.shape
    n_materials = S.shape[1]
    G = S.T @ S
    # each product reads its right operand along contiguous memory: S by columns, S' by rows
    S_cols, S_rows = np.asfortranarray(S), np.ascontiguousarray(S.T)

    A = np.empty((n_materials, n_pixels))
    psi = np.empty((n_materials, n_pixels))
    degenerate = np.empty(n_pixels, dtype=bool)
    residual_rmse = np.empty(n_pixels)
    batch = max(1, _BATCH_FLOATS // (n_materials + 1) ** 2)
    for start in range(0, n_pixels, batch):
        px = slice(start, start + batch)
        # one pixel per row: X[:, px].T is a C-contiguous view of the pixel-major cube
        a, scales, degenerate[px] = _unmix_rows(config, G, _rowwise(X[:, px].T, S_cols))
        A[:, px], psi[:, px] = a.T, scales.T
    with np.errstate(over="ignore"):  # a sum of squares that overflows is summed again, scaled
        for start in range(0, n_pixels, _RESIDUAL_ROWS):
            px = slice(start, start + _RESIDUAL_ROWS)
            residual = _rowwise((psi[:, px] * A[:, px]).T, S_rows)
            residual -= X[:, px].T
            residual_rmse[px] = root_mean_square(*sum_of_squares(residual), n_bands)
    return UnmixResult(
        abundances=A,
        scales=psi,
        residual_rmse=residual_rmse,
        sum_to_one=config.sum_to_one,
        degenerate=degenerate,
    )
