"""Independent brute-force oracles for cross-checking solver optima.

These evaluate the fit objective directly from the endmember matrix and
pixel spectrum on dense grids with local refinement; they share no code
path with the active-set solvers they check.
"""

import numpy as np


def fcls_oracle_two_materials(S, x, step=1e-6):
    """Minimum of |x - S a|^2 over the 1-simplex by grid search + refinement."""
    direction = S[:, 0] - S[:, 1]
    base = x - S[:, 1]
    bb = float(base @ base)
    bd = float(base @ direction)
    dd = float(direction @ direction)

    def objective(a1):
        return bb - 2.0 * a1 * bd + a1 * a1 * dd

    coarse = np.arange(0.0, 1.0 + step / 2.0, step)
    values = objective(coarse)
    k = int(np.argmin(values))
    lo = max(0.0, coarse[k] - step)
    hi = min(1.0, coarse[k] + step)
    fine = np.linspace(lo, hi, 2001)
    return float(min(values[k], objective(fine).min()))


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
