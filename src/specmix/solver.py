"""Constrained least-squares unmixing against a fixed endmember matrix.

Every model solves one convex program per pixel in Gram space,

    min 0.5 z'Gz - c'z  over  {z >= 0, lo <= sum(z) <= hi},  G = S'S, c = S'x,

so per-pixel work costs O(P^3) regardless of band count.  One deterministic
primal active-set core, ``_active_set``, takes the sum bounds per pixel:
(0, inf) is non-negative least squares (Lawson & Hanson 1974), (1, 1) the
fully constrained least squares of Heinz & Chang (IEEE TGRS 2001).  Every
pixel starts on the full support at a uniform point, from which ratio
steps drop materials and the multiplier check adds back any that should
enter.  A dense pixel thus finishes in one solve, not one per material.

- "lmm": classic (fully) constrained least squares per pixel.
- "elmm-global" (one scale per pixel) and "elmm-full" (per-material scales
  psi, x ~ S0 (psi * a)): per pixel the data pin down only z = psi * a, and
  either scaled simplex maps onto exactly the program with (lo, hi) =
  psi_bounds.  That set is convex, so both are one exact active-set pass
  split as a = z / sum(z) and psi = sum(z); elmm-full alone reports psi = 1
  on absent materials.  Telling per-material scales apart needs a spatial
  prior, such as the regularized ADMM of Drumetz et al. (IEEE TIP 2016),
  which would also need an image shape on HyperCube.

A pixel is degenerate, under every model, when no entry of c = S'x passes
the entering test at z = 0: its non-negative fit is 0.

The core runs every pixel of a batch in lockstep: each step takes one
action per unfinished pixel (pick an entering material, or solve its
program on the free materials and take the ratio step).  All pixels share
G, so a pixel's solve depends only on its free set, an integer support
mask: a step finds the distinct masks in a table of all 2^P masks when
P <= 8, else by ``np.unique``, inverts each one's P x P system once, in
one stacked ``np.linalg.inv``, and a pixel whose free solve leaves
[lo, hi] moves onto the bound it crosses by the Schur complement of the
sum row (``_solve_free``).  So one pass moves a pixel between in-bound
solves and solves on a bound as its free set changes.  Each final result
takes one step of iterative refinement, so its KKT residual is a solve's,
not rounding times cond(G); its right-hand side reuses the residual
c - G z that the pixel's last multiplier check formed.  A pixel that
finishes on the full support skips that check, as no material can enter,
and only its residual is formed again.  Every product whose length varies
with the batch is computed one pixel at a time (``_rowwise``), and every
per-pixel sum column by column, so a pixel's arithmetic never depends on
which other pixels share the batch: its result is bit-identical whether
it is solved alone, in a batch of any size or in the whole cube.

unmix_cube forms C = X'S once per call and judges the cube's finiteness
on C, scanning X only when some c is not finite.  It sizes its two kinds
of work apart.  A lockstep batch pays a fixed cost per step, so it is as
large as its biggest per-pixel temporary allows: the gathered P x P
inverses, _BATCH_FLOATS floats per batch (2 MB, 16 384 pixels at P = 4).
The residual, the one temporary of band length, is computed
_RESIDUAL_ROWS pixels at a time, so peak memory stays a small fraction
of the cube's.
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
#: Floats of the gathered P x P inverses, the largest per-pixel temporary, in one lockstep batch.
_BATCH_FLOATS = 2**18
#: Pixels per block of the (pixels x bands) residual in unmix_cube: at 200 bands the block and the cube
#: rows it subtracts, 1.6 MB together, fit a 2 MB L2 cache (1024 rows, 3.2 MB, do not).
_RESIDUAL_ROWS = 512
#: Entries of a table of all 2^P support masks that always costs less than sorting a step's masks: on numpy
#: 2.4, 5-10 us at P <= 8 against 8-15 us for np.unique of 1 to 100 masks (23 against 12 us at P = 12).
_MASK_TABLE = 2**8


@dataclass(frozen=True)
class SolverConfig:
    """Model choice and constraints for unmixing.

    Scaled models keep sum-to-one on: without it the product of scale and
    abundance is unidentifiable.  psi_bounds must be finite and bracket 1
    so the plain mixing model stays inside the feasible set.  Every model
    is one exact solve per pixel, so there is no iteration budget.
    elmm-global and elmm-full solve one program; elmm-global reports the
    pixel's scale on every material, elmm-full on every present one and
    exactly 1 on every absent one.
    """

    model: str = "elmm-full"
    sum_to_one: bool = True
    psi_bounds: tuple[float, float] = (1e-2, 1e2)

    def __post_init__(self) -> None:
        if self.model not in SOLVER_MODELS:
            raise ValueError(f"unknown solver model {json_name(self.model)}; expected one of {SOLVER_MODELS}")
        lo, hi = self.psi_bounds
        if not (0.0 < lo <= 1.0 <= hi < np.inf):
            raise ValueError(f"psi_bounds must satisfy 0 < low <= 1 <= high < inf, got {self.psi_bounds}")
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
        # only the keys present: an absent one takes its field default
        kinds = {"sum_to_one": "flag", "psi_bounds": "pair"}
        return cls(**{key: config_value(value, key, kinds[key]) if key in kinds else value for key, value in raw.items()})


# ---------------------------------------------------------------------------
# lockstep active-set core (Gram space, one pixel per row)
# ---------------------------------------------------------------------------

def _rowwise(M: FloatArray, B: FloatArray) -> FloatArray:
    """Row n of the result is M[n] @ B, as its own vector-matrix product.

    With contiguous rows, BLAS computes a row the same way however many rows
    are stacked, which a single matrix-matrix product does not promise.
    """
    return np.matmul(np.ascontiguousarray(M)[:, None, :], B)[:, 0, :]


def _solve_free(G: FloatArray, B: FloatArray, mask: np.ndarray, bits: np.ndarray, lo: FloatArray, hi: FloatArray,
                start: FloatArray | None = None,
                mu: FloatArray | None = None) -> tuple[FloatArray, FloatArray, np.ndarray]:
    """Each row's program on its free indices, the multiplier mu of its sum and its free set, from one inverse per mask.

    Row n's free set F is its integer support mask mask[n], bit bits[k]
    for material k.  At P <= 8 (2^P <= _MASK_TABLE) a step finds the
    distinct masks in a table of all 2^P of them, with no sort; at larger
    P, P >= 64 among them, by ``np.unique``.  Each mask's
    G_F is built with the identity outside F, inverted once (one stacked
    ``np.linalg.inv``) and zeroed outside F; every row takes its inverse by
    a gather and one batched ``np.matmul``, so u = G_F^-1 b and u is 0
    outside F.  A row whose sum sigma of u lies in [lo, hi] keeps u, with
    mu = 0.  Any other row moves onto the bound t it crosses by the Schur
    complement of the sum row: with v = G_F^-1 1_F, one per mask,
    mu = (sigma - t) / sum(v) and z = u - mu v, so that G_F z + mu 1 = b_F.
    The lowest free index then takes what the other free entries leave of
    t, so the sum holds to their rounding: u - mu v alone leaks rounding
    times |c| into it, which at radiance scale or on a bound far below the
    fit can empty a support.  This is the exact optimum over
    {lo <= sum(z) <= hi} on F, the oracle's support_solve.

    B holds the right-hand sides: the rows c of C for a solve.  Given
    start, a point that is 0 outside the free sets, its multiplier mu and
    B = c - G start - mu 1, the result is one step of iterative
    refinement: u = start + G_F^-1 B, on the bound that the sign of mu
    names (hi above 0, lo below, none at 0), and the multiplier returned
    is mu plus the step's.
    """
    p = len(bits)
    if 1 << p <= _MASK_TABLE:  # mark each mask in a table; its cumsum numbers them as np.unique does
        present = np.zeros(1 << p, dtype=bool)
        present[mask] = True
        masks, which = np.flatnonzero(present), (np.cumsum(present) - 1).take(mask)
    else:
        masks, which = np.unique(mask, return_inverse=True)
    kept = (masks[:, None] & bits) != 0
    block = kept[:, :, None] & kept[:, None, :]
    inverse = np.where(block, np.linalg.inv(np.where(block, G, np.eye(p))), 0.0)
    # v = G_F^-1 1_F and sum(v), per mask
    v = inverse.sum(axis=2)
    v_sum = v.sum(axis=1)
    z = np.matmul(inverse.take(which, axis=0), B[:, :, None])[:, :, 0]
    if start is None:
        sigma = reduce(np.add, z.T)
        t = np.minimum(np.maximum(sigma, lo), hi)
        mu = np.zeros(len(B))
    else:
        z += start
        sigma = reduce(np.add, z.T)
        t = np.where(mu > 0.0, hi, np.where(mu < 0.0, lo, sigma))
        mu = mu.copy()
    rows = np.flatnonzero(t != sigma)
    if rows.size:  # take, not fancy indexing, gathers the rows on a bound
        m = which.take(rows)
        step = (sigma.take(rows) - t.take(rows)) / v_sum.take(m)
        on_bound = z.take(rows, axis=0) - step[:, None] * v.take(m, axis=0)
        first = np.argmax(kept, axis=1).take(m)[:, None] == np.arange(p)  # the lowest free index, one-hot
        rest = reduce(np.add, np.where(first, 0.0, on_bound).T)
        mu[rows] += step
        z[rows] = np.where(first, (t.take(rows) - rest)[:, None], on_bound)
    return z, mu, kept.take(which, axis=0)


def _ratio_step(current: FloatArray, target: FloatArray, free: np.ndarray, sink: np.ndarray) -> FloatArray:
    """Move free entries from current toward target until the first sink hits 0, at most to target."""
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.where(sink, current / (current - target), np.inf)
    alpha = np.minimum(1.0, reduce(np.minimum, steps.T))[:, None]
    return np.where(free, current + alpha * (target - current), 0.0)


def _active_set(G: FloatArray, C: FloatArray, scale: FloatArray, lo: FloatArray, hi: FloatArray) -> FloatArray:
    """min 0.5 z'Gz - c'z over {z >= 0, lo <= sum(z) <= hi} for every row c of C.

    scale holds max|c| per row, which the caller already has from its
    column-wise reductions; lo and hi hold each row's sum bounds, with
    0 <= lo <= hi and hi > 0.  Every pixel starts on the full support at the
    uniform point whose entries sum to its level: scale / max(diag G), or 0
    for a pixel that no material would enter at z = 0 (c = 0 among them),
    clipped to [lo, hi].  A pixel of level 0 starts at z = 0, in the
    multiplier check, so its fit stays exactly 0; with lo > 0 such a pixel
    starts at lo instead.
    Each pixel's free set is an integer support mask, bit k for material k
    (Python integers past 63 materials, so any P fits).  A step solves its
    pixels' free sets within their sum bounds from one inverse per distinct
    mask (``_solve_free``), at most min(2^P, pixels in the step) of them,
    which also returns each pixel's free set as a boolean row.  The result
    takes one refinement step on its final free set, on the side of the
    bound its final multiplier names, from the residual c - G z that the
    pixel's last multiplier check formed; a pixel that finishes on the full
    support skips the check, since no material can enter, and its residual
    is formed for the refinement alone.  The multiplier of an active
    material is its reduced gradient plus the sum's multiplier mu, which is
    0 off a bound; the entering variable is the active index with the most
    negative one (lowest index on ties).  A free entry whose target is at or
    below -drop_tol is a sink; the ratio step moves toward the target until
    the first sink hits 0, at most all the way.  Tolerances are relative:
    kkt_tol to the gradient's scale, max(max|c|, level * max(diag G)), so a
    dark pixel on a bound keeps a tolerance above the rounding of G z; and
    drop_tol to the level.  A pixel fails past either cap: 1 plus its
    entering steps, or its solves since the last one.
    """
    n, p = C.shape
    cap = _MAX_OUTER_FACTOR * p + 30
    g_max = np.max(np.diag(G))
    bits = np.array([1 << k for k in range(p)], dtype=np.int64 if p < 64 else object)
    full = (1 << p) - 1
    name = "non-negative" if np.all(hi == np.inf) else "sum-constrained"
    level = np.where(reduce(np.maximum, C.T) > _KKT_RTOL * scale, scale / g_max, 0.0)
    level = np.minimum(np.maximum(level, lo), hi)
    kkt_tol = _KKT_RTOL * np.maximum(scale, level * g_max)
    drop_tol = (_DROP_TOL * level)[:, None]
    # the uniform point on the full support; a pixel of level 0 starts at z = 0, in the multiplier check
    Z = np.repeat((level / p)[:, None], p, axis=1)
    mu = np.zeros(n)
    starts = level > 0
    mask = starts.astype(bits.dtype) * full
    checking, solving = np.flatnonzero(~starts), np.flatnonzero(starts)
    outer = np.ones(n, dtype=int)
    inner = np.zeros(n, dtype=int)
    failed = np.zeros(n, dtype=bool)
    # c - G z of each row that leaves through the multiplier check: the right-hand side of its refinement step
    residual = np.empty((n, p))
    while checking.size or solving.size:
        inner[solving] += 1
        failed[solving.compress(inner.take(solving) > cap)] = True
        s = solving.compress(inner.take(solving) <= cap)
        mask_s = mask.take(s)
        target, mu[s], free = _solve_free(G, C.take(s, axis=0), mask_s, bits, lo.take(s), hi.take(s))
        sink = free & (target <= -drop_tol.take(s, axis=0))
        done = (sink @ bits) == 0
        Z[s.compress(done)] = np.maximum(target.compress(done, axis=0), 0.0)

        stepping = ~done
        b, f = s.compress(stepping), free.compress(stepping, axis=0)
        step = _ratio_step(Z.take(b, axis=0), target.compress(stepping, axis=0), f, sink.compress(stepping, axis=0))
        f &= step > drop_tol.take(b, axis=0)
        Z[b] = np.where(f, step, 0.0)
        mask_b = f @ bits
        mask[b] = mask_b
        emptied = b.compress(mask_b == 0)
        # an emptied support sits at z = 0, where the multiplier of the target it did not reach does not hold
        mu[emptied] = 0.0
        # multiplier check: pixels of level 0, finished solves and emptied supports; a solve finished on the
        # full support skips it, since no material can enter
        done &= mask_s != full
        m = np.concatenate([checking, s.compress(done), emptied])
        blocked = np.zeros((m.size, p), dtype=bool)
        blocked[checking.size:m.size - emptied.size] = free.compress(done, axis=0)

        # a free material cannot enter; the sum's multiplier mu shifts a row's multipliers, mu - (c - G z), alike,
        # so it enters after the argmax
        r = C.take(m, axis=0) - _rowwise(Z.take(m, axis=0), G)
        ranked = np.where(blocked, -np.inf, r)
        j = np.argmax(ranked, axis=1)
        go = ranked.take(np.arange(0, m.size * p, p) + j) - mu.take(m) > kkt_tol.take(m)
        residual[m] = r  # a row that enters overwrites its row again at a later check or after the loop
        e, j = m.compress(go), j.compress(go)
        mask[e] = mask.take(e) | bits.take(j)
        inner[e] = 0
        outer[e] += 1
        failed[e.compress(outer.take(e) > cap)] = True
        checking, solving = np.arange(0), np.concatenate([b.compress(mask_b != 0), e.compress(outer.take(e) <= cap)])
    if failed.any():
        raise RuntimeError(f"{name} least squares did not converge on {int(failed.sum())} of {n} pixels")
    # An inverse gives a solve's forward error, but leaves a residual of rounding times cond(G) where a
    # solve leaves rounding: one refinement step from each result brings the KKT residual back to rounding.
    # A row that finished on the full support had no multiplier check: its c - G z is formed here.
    unchecked = np.flatnonzero(mask == full)
    residual[unchecked] = C.take(unchecked, axis=0) - _rowwise(Z.take(unchecked, axis=0), G)
    return np.maximum(_solve_free(G, residual - mu[:, None], mask, bits, lo, hi, Z, mu)[0], 0.0)


def _unmix_rows(config: SolverConfig, G: FloatArray, C: FloatArray):
    """Abundances, scales and degenerate flags for the pixels c in the rows of C.

    Degenerate: no entry of c passes the non-negative active set's entering
    test at z = 0, so the non-negative fit is 0.  Every model is one
    _active_set pass with its sum bounds: (0, inf) for NNLS, (1, 1) for lmm
    with sum-to-one, and psi_bounds for the ELMM models, whose program over
    {z >= 0, lo <= sum(z) <= hi} is the image of the scaled simplex.
    """
    n, p = C.shape
    # max(c) and max|c| column by column: a row-wise max over the short material axis is several times slower
    c_max = reduce(np.maximum, C.T)
    scale = np.maximum(c_max, -reduce(np.minimum, C.T))
    degenerate = ~(c_max > _KKT_RTOL * scale)
    if config.model != "lmm":
        lo, hi = config.psi_bounds
    else:
        lo, hi = (1.0, 1.0) if config.sum_to_one else (0.0, np.inf)
    Z = _active_set(G, C, scale, np.full(n, lo), np.full(n, hi))
    if config.model == "lmm":
        return Z, np.ones((n, p)), degenerate
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
    C = X'S is formed once per call, and finiteness is judged on it: a
    non-finite x_b makes every c_k non-finite (inf * 0 is NaN), so X is
    scanned only when some c is; a finite cube whose C overflows is solved
    as given.

    Pixels are solved in lockstep batches of _BATCH_FLOATS // P^2
    pixels, which bounds the gathered inverses, with no loop over pixels;
    the reconstruction residual is then formed _RESIDUAL_ROWS pixels at a
    time, which bounds the one (pixels x bands) temporary.  A pixel's
    residual_rmse is metrics.rmse of its reconstruction S0 (psi * a), one
    vector-matrix product, and its spectrum, bit for bit.  Every output of
    a pixel is bit-identical to unmixing that pixel alone, or in any other
    batch.  A batch's rows are a slice of C, whose rows are products of the
    pixel-major cube values; a cube given as a plain (bands, pixels) array
    is brought to that layout once per call, by core.pixel_major.
    """
    X = cube.values if isinstance(cube, HyperCube) else pixel_major(cube, copy=False)
    S = _endmember_array(S0)
    if X.shape[0] != S.shape[0]:
        raise ValueError(f"cube has {X.shape[0]} bands, endmembers have {S.shape[0]}")
    # one pixel per row: X.T is a C-contiguous view of the pixel-major cube, and S is read by columns
    with np.errstate(invalid="ignore"):  # a non-finite x makes every c non-finite, and is named below
        C = _rowwise(X.T, np.asfortranarray(S))
    if not np.all(np.isfinite(C)) and not np.all(np.isfinite(X)):
        band, pixel = np.unravel_index(int(np.argmax(~np.isfinite(X))), X.shape)
        raise ValueError(f"non-finite cube value {X[band, pixel]} at band {band}, pixel {pixel}")
    _check_endmembers(S)
    n_bands, n_pixels = X.shape
    n_materials = S.shape[1]
    G = S.T @ S
    S_rows = np.ascontiguousarray(S.T)

    A = np.empty((n_materials, n_pixels))
    psi = np.empty((n_materials, n_pixels))
    degenerate = np.empty(n_pixels, dtype=bool)
    residual_rmse = np.empty(n_pixels)
    batch = max(1, _BATCH_FLOATS // n_materials ** 2)
    for start in range(0, n_pixels, batch):
        px = slice(start, start + batch)
        a, scales, degenerate[px] = _unmix_rows(config, G, C[px])
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
