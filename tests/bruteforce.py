"""Independent oracles for cross-checking solver optima.

support_oracle gives the exact optimum of every model's convex program by
enumerating supports.  support_solve gives the optimum on one support:
where the 2^P supports are out of reach, it re-solves a result on its own
support, which with the signs of the multipliers off it certifies the
optimum.  elmm_full_oracle_two_materials searches the per-material
(a, psi1, psi2) form on zoomed grids, so it checks the convex
reformulation itself.  None shares a code path with the active-set solver
they check.
"""

import numpy as np


def _fixed_sum(G, C, total):
    """argmin 0.5 z'Gz - c'z over sum(z) = total for each column c of C, by null-space elimination.

    z = (total / k) 1 + N y, N an orthonormal basis of the sum row's null
    space: sum(z) is total to rounding however large c is, where a bordered
    solve leaks rounding times |c| into it.
    """
    k = G.shape[0]
    null = np.linalg.svd(np.ones((1, k)))[2][1:].T
    start = total / k
    y = np.linalg.solve(null.T @ G @ null, null.T @ (C - G.sum(axis=1)[:, None] * start))
    return start + null @ y


def support_solve(G, C, lo=0.0, hi=np.inf):
    """argmin 0.5 z'Gz - c'z over lo <= sum(z) <= hi, no sign constraint, for each column c of C; and its objective.

    The program is strictly convex and its minimum over sum(z) = t is convex
    in t, least at the free solve's sum: the optimum is the free solve where
    its sum lies in [lo, hi], else the fixed-sum solve on the bound it
    crosses.
    """
    Z = np.linalg.solve(G, C)
    total = Z.sum(axis=0)
    for t, beyond in ((lo, total < lo), (hi, total > hi)):
        if beyond.any():
            Z[:, beyond] = _fixed_sum(G, C[:, beyond], t)
    return Z, 0.5 * np.sum(Z * (G @ Z), axis=0) - np.sum(C * Z, axis=0)


def support_oracle(S, X, lo=0.0, hi=np.inf):
    """argmin 0.5 z'Gz - c'z over {z >= 0, lo <= sum(z) <= hi} for each column x of X; G = S'S, c = S'x.

    (lo, hi) is (0, inf) for NNLS, (1, 1) for lmm with sum-to-one and
    psi_bounds for the ELMM program.  S has full column rank, so the
    program is strictly convex, and its optimum, restricted to its own
    support F, is support_solve on G_F with every entry > 0.  So the
    optimum is the best such candidate over the 2^P supports; the empty
    support (z = 0) counts only when lo is 0.  Candidates are ranked by the
    program's own objective, not |x - Sz|^2, whose |x|^2 term would hide
    the differences of a re-solve far below the fit.
    """
    G, C = S.T @ S, S.T @ X
    p, n = C.shape
    Z = np.zeros((p, n))
    best = np.full(n, 0.0 if lo <= 0.0 else np.inf)
    for mask in range(1, 2**p):
        F = np.flatnonzero([(mask >> k) & 1 for k in range(p)])
        z, objective = support_solve(G[np.ix_(F, F)], C[F], lo, hi)
        better = np.all(z > 0.0, axis=0) & (objective < best)
        best[better] = objective[better]
        Z[:, better] = 0.0
        Z[np.ix_(F, better)] = z[:, better]
    return Z


def elmm_full_oracle_two_materials(S, x, psi_lo, psi_hi, points=41, zooms=7):
    """Minimum of |x - S (psi * a)|^2 over a1 in [0,1], psi in bounds^2.

    Dense 3-D grid over (a1, psi1, psi2), repeatedly zoomed around the
    incumbent cell.
    """
    G = S.T @ S
    c = S.T @ x
    xx = float(x @ x)
    a_lo, a_hi = 0.0, 1.0
    p1_lo, p1_hi = psi_lo, psi_hi
    p2_lo, p2_hi = psi_lo, psi_hi
    best = np.inf
    for _ in range(zooms):
        a1 = np.linspace(a_lo, a_hi, points)
        p1 = np.linspace(p1_lo, p1_hi, points)
        p2 = np.linspace(p2_lo, p2_hi, points)
        A1, P1, P2 = np.meshgrid(a1, p1, p2, indexing="ij")
        v1 = A1 * P1
        v2 = (1.0 - A1) * P2
        obj = (
            xx
            - 2.0 * (c[0] * v1 + c[1] * v2)
            + G[0, 0] * v1 * v1
            + 2.0 * G[0, 1] * v1 * v2
            + G[1, 1] * v2 * v2
        )
        k = np.unravel_index(int(np.argmin(obj)), obj.shape)
        best = min(best, float(obj[k]))
        da = (a_hi - a_lo) / (points - 1)
        dp1 = (p1_hi - p1_lo) / (points - 1)
        dp2 = (p2_hi - p2_lo) / (points - 1)
        a_lo, a_hi = max(0.0, A1[k] - da), min(1.0, A1[k] + da)
        p1_lo, p1_hi = max(psi_lo, P1[k] - dp1), min(psi_hi, P1[k] + dp1)
        p2_lo, p2_hi = max(psi_lo, P2[k] - dp2), min(psi_hi, P2[k] + dp2)
    return best


def kkt_violation(S, x, a, sum_to_one):
    """Worst reduced-gradient violation of the nonnegativity multipliers.

    Returns (active_violation, free_stationarity): the most negative
    multiplier on zeroed materials and the largest stationarity residual on
    free ones; both should be ~0 at an exact optimum.
    """
    grad = S.T @ (S @ a - x)
    free = a > 1e-11
    if sum_to_one:
        lam = float(np.mean(grad[free]))
    else:
        lam = 0.0
    stationarity = float(np.max(np.abs(grad[free] - lam))) if free.any() else 0.0
    active = ~free
    violation = float(np.min(grad[active] - lam)) if active.any() else 0.0
    return violation, stationarity
