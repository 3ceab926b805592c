"""Serial per-pixel active-set solvers: the reference the lockstep solver is checked against.

_nnls_gram and _sum_constrained_gram are the one-pixel-at-a-time solvers
specmix used before its solver ran all pixels in lockstep, kept unchanged,
including their KKT tolerance floor of max(1, max|c|) and their absolute
drop tolerance, with two changes that give them the step and failure
counts of the algorithm the lockstep core runs: _nnls_gram starts on the
full support, as _sum_constrained_gram and the lockstep core do, where it
once started at a = 0 (Lawson-Hanson); and _sum_constrained_gram fails when
its solves since the last entering step pass the cap, where it once went on
to the multiplier check.  unmix_gram composes them per model as
unmix_cube's per-pixel tail does; unmix_cube runs it one pixel at a time.
"""

import numpy as np

FloatArray = np.ndarray

_KKT_RTOL = 1e-10
_DROP_TOL = 1e-12
_MAX_OUTER_FACTOR = 30


def _nnls_gram(G: FloatArray, c: FloatArray) -> FloatArray:
    """min 0.5 a'Ga - c'a over a >= 0 (primal active set on the Gram system).

    Started, as the sum-constrained solve is, on the full support at the
    uniform point max|c| / (max(diag G) * n) per entry, or at a = 0 when
    no entry would enter there.  Entering variable: most negative
    multiplier, lowest index on ties.  Exit guarantees every active
    multiplier >= -kkt_tol, kkt_tol scaled to the data.
    """
    n = c.size
    scale = float(np.max(np.abs(c))) if n else 0.0
    kkt_tol = _KKT_RTOL * max(1.0, scale)
    a = np.full(n, scale / (float(np.max(np.diag(G))) * n) if n and np.max(c) > kkt_tol else 0.0)
    free = a > 0.0
    for _ in range(_MAX_OUTER_FACTOR * n + 30):
        for _ in range(_MAX_OUTER_FACTOR * n + 30 if free.any() else 0):
            idx = np.flatnonzero(free)
            target = np.linalg.solve(G[np.ix_(idx, idx)], c[idx])
            if np.all(target > _DROP_TOL):
                a = np.zeros(n)
                a[idx] = target
                break
            current = a[idx]
            sink = target <= _DROP_TOL
            steps = current[sink] / (current[sink] - target[sink])
            alpha = min(1.0, float(np.min(steps)))
            a[idx] = current + alpha * (target - current)
            drop = idx[a[idx] <= _DROP_TOL]
            a[drop] = 0.0
            free[drop] = False
            if not free.any():
                break
        else:
            if free.any():
                raise RuntimeError("non-negative least squares inner loop did not converge")
        w = c - G @ a  # negative gradient; actives want w <= kkt_tol
        w[free] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= kkt_tol:
            return a
        free[j] = True
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
        else:
            raise RuntimeError("sum-constrained least squares inner loop did not converge")
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


def unmix_pixel(S, x, model, sum_to_one=True, psi_bounds=(1e-2, 1e2)):
    """(abundances, scales, degenerate) of one pixel, as the serial unmix_cube computed them."""
    return unmix_gram(S.T @ S, S.T @ x, model, sum_to_one, psi_bounds)


def unmix_gram(G, c, model, sum_to_one=True, psi_bounds=(1e-2, 1e2)):
    """unmix_pixel from the Gram matrix G = S'S and the pixel's cross terms c = S'x.

    Both ELMM models take one tail: the non-negative fit z, re-solved at the
    nearer psi bound when sum(z) leaves psi_bounds, split as a = z / sum(z).
    They differ only in psi on absent materials (elmm-full reports 1 there).
    Every model flags the pixel degenerate when no entry of c passes the
    entering test at z = 0, i.e. its non-negative fit is 0.
    """
    n = c.size
    lo, hi = psi_bounds
    degenerate = not np.any(c > _KKT_RTOL * np.max(np.abs(c)))
    if model == "lmm":
        if sum_to_one:
            return _sum_constrained_gram(G, c, 1.0), np.ones(n), degenerate
        return _nnls_gram(G, c), np.ones(n), degenerate
    z = _nnls_gram(G, c)
    s = float(z.sum())
    if s < lo:
        z = _sum_constrained_gram(G, c, lo)
    elif s > hi:
        z = _sum_constrained_gram(G, c, hi)
    total = float(z.sum())
    a = z / total
    return a, np.where((a > 0.0) | (model == "elmm-global"), min(max(total, lo), hi), 1.0), degenerate


def unmix_cube(X, S, model, sum_to_one=True, psi_bounds=(1e-2, 1e2)):
    """(A, psi, degenerate, residual_rmse) of a bands x pixels cube, one pixel at a time."""
    G = S.T @ S
    C = S.T @ X
    A = np.empty(C.shape)
    psi = np.empty(C.shape)
    degenerate = np.zeros(C.shape[1], dtype=bool)
    for n in range(C.shape[1]):
        A[:, n], psi[:, n], degenerate[n] = unmix_gram(G, C[:, n], model, sum_to_one, psi_bounds)
    residual = X - S @ (psi * A)
    return A, psi, degenerate, np.sqrt(np.mean(residual * residual, axis=0))
