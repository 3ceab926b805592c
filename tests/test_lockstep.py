"""The lockstep solver against the exact support-enumeration oracle and its KKT conditions, and its batch invariance."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bruteforce import kkt_violation, support_oracle, support_solve
from specmix import solver
from specmix.core import HyperCube, WavelengthAxis
from specmix.metrics import rmse
from specmix.solver import SolverConfig, fcls, unmix_cube

MODELS = (
    ("lmm", True),
    ("lmm", False),
    ("elmm-global", True),
    ("elmm-full", True),
)
BOUNDS = ((1e-2, 1e2), (0.5, 2.0), (1.0, 1.0))
#: psi_bounds 30 orders from 1: a pixel re-solved on a bound sits far below its fit
WIDE_BOUNDS = (1e-30, 1e30)


def cube_of(X):
    return HyperCube(values=X, axis=WavelengthAxis(np.linspace(0.4, 2.5, X.shape[0])))


def problem(seed, n_materials, n_pixels=24):
    """Endmembers and a cube mixing every kind of pixel the solver must handle.

    Columns: dense and sparse mixtures at scales that land inside, below and
    above the psi bounds in BOUNDS, pure pixels, a zero pixel, a negative
    pixel, a very dark mixture and a noise-only pixel.
    """
    rng = np.random.default_rng(seed)
    n_bands = 3 * n_materials + 6
    S = rng.uniform(0.05, 1.0, (n_bands, n_materials))
    alpha = np.full(n_materials, 0.4)
    A = rng.dirichlet(alpha, n_pixels).T
    scale = rng.choice([0.1, 0.3, 0.8, 1.0, 1.5, 3.0, 8.0], n_pixels)
    X = S @ (A * scale) + rng.normal(0.0, 0.01, (n_bands, n_pixels))
    X[:, 0] = 0.0
    X[:, 1] = -np.abs(X[:, 1])
    X[:, 2] *= 1e-6
    X[:, 3] = S[:, rng.integers(n_materials)]
    X[:, 4] = rng.normal(0.0, 0.05, n_bands)
    return S, X


def assert_kkt(S, x, a, psi, model, sum_to_one, bounds):
    """The result meets the KKT conditions of its own optimization problem."""
    z = psi * a
    if model == "lmm":
        constrained = sum_to_one
    else:
        total = float(z.sum())
        constrained = (np.isclose(total, bounds[0], rtol=1e-12, atol=0.0)
                       or np.isclose(total, bounds[1], rtol=1e-12, atol=0.0))
    scale = max(1.0, float(np.max(np.abs(S.T @ x))))
    violation, stationarity = kkt_violation(S, x, z, constrained)
    assert violation >= -1e-8 * scale
    assert stationarity <= 1e-8 * scale


def sum_range(model, bounds):
    """(lo, hi) of sum(z) in the model's program: NNLS, lmm with sum-to-one, or the ELMM program on bounds."""
    name, sum_to_one = model
    if name != "lmm":
        return bounds
    return (1.0, 1.0) if sum_to_one else (0.0, np.inf)


def degenerate(S, X):
    """The degenerate flag by its definition: no entry of c = S'x above 1e-10 max|c|."""
    C = S.T @ X
    return ~np.any(C > 1e-10 * np.max(np.abs(C), axis=0), axis=0)


def assert_matches_oracle(S, X, result, model, bounds, rtol=1e-12, Z=None):
    """Every pixel against z, support_oracle's by default: the degenerate flag, support, a and psi to rtol, and KKT.

    lmm: a = z, psi = 1.  ELMM: a = z / sum(z), psi = clamp(sum(z), bounds),
    and elmm-full reports 1 on absent materials, those at or below the
    support test's tolerance, rtol max(a).
    """
    name, sum_to_one = model
    np.testing.assert_array_equal(result.degenerate, degenerate(S, X))
    if Z is None:
        Z = support_oracle(S, X, *sum_range(model, bounds))
    for n in range(X.shape[1]):
        z, a, psi = Z[:, n], result.abundances[:, n], result.scales[:, n]
        a_ref = z if name == "lmm" else z / z.sum()
        # support: entries above rounding (a pure pixel's other entries are +-1e-16)
        tol = rtol * np.max(np.abs(a_ref))
        np.testing.assert_array_equal(a > tol, a_ref > tol)
        np.testing.assert_allclose(a, a_ref, rtol=0.0, atol=tol)
        present = (a_ref > tol) | (name == "elmm-global")
        psi_ref = np.ones_like(z) if name == "lmm" else np.where(present, np.clip(z.sum(), *bounds), 1.0)
        np.testing.assert_allclose(psi, psi_ref, rtol=rtol, atol=0.0)
        assert_kkt(S, X[:, n], a, psi, name, sum_to_one, bounds)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_materials=st.integers(1, 8),
    model=st.sampled_from(MODELS),
    bounds=st.sampled_from(BOUNDS),
)
def test_matches_the_exact_oracle(seed, n_materials, model, bounds):
    name, sum_to_one = model
    S, X = problem(seed, n_materials)
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=bounds)
    assert_matches_oracle(S, X, unmix_cube(cube_of(X), S, config), model, bounds)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m[0]}-{m[1]}")
def test_matches_the_exact_oracle_where_materials_re_enter(model):
    # From the full-support start problem()'s pixels drop materials but, on seeds 0-59, never take one back.  Two
    # pairs of nearly equal endmembers make sparse noisy mixtures do so (9-22 entering steps per model), which
    # judges the entering rule.
    name, sum_to_one = model
    rng = np.random.default_rng(0)
    S = rng.uniform(0.05, 1.0, (30, 6))
    for k in (0, 2):
        S[:, k + 1] = S[:, k] + rng.uniform(-1.0, 1.0, 30) * 0.01
    X = S @ (rng.dirichlet(np.full(6, 0.1), 200).T * rng.uniform(0.5, 1.5, 200)) + rng.normal(0.0, 0.02, (30, 200))
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))
    # cond(G) is about 1e5: either solve may be off by rounding times cond(G)
    rtol = 10 * np.finfo(float).eps * np.linalg.cond(S.T @ S)
    assert_matches_oracle(S, X, unmix_cube(cube_of(X), S, config), model, (0.5, 2.0), rtol)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m[0]}-{m[1]}")
def test_matches_the_exact_oracle_where_paths_switch_sides(model):
    # One pass moves a pixel between in-bound solves and solves on a sum bound as its free set changes.  Mixtures
    # with negative coefficients do so: here 4 ELMM paths leave a psi bound for the interior and 3 reach a bound
    # after in-bound solves (test_matches_the_exact_oracle's draws: 3 and 0), and 8 non-negative paths pass
    # through a solve on the sum's floor at 0.
    name, sum_to_one = model
    rng = np.random.default_rng(0)
    S = rng.uniform(0.05, 1.0, (30, 4))
    X = S @ (rng.normal(0.4, 0.5, (4, 200)) * rng.uniform(0.5, 3.0, 200)) + rng.normal(0.0, 0.01, (30, 200))
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))
    assert_matches_oracle(S, X, unmix_cube(cube_of(X), S, config), model, (0.5, 2.0))


def all_outputs(result):
    return (result.abundances, result.scales, result.residual_rmse, result.degenerate)


def assert_identical(result, parts):
    for whole, pieces in zip(all_outputs(result), zip(*map(all_outputs, parts))):
        assert np.array_equal(whole, np.concatenate(pieces, axis=-1))


def scaled_mixtures(n_materials, n_pixels, seed):
    """Endmembers and a cube of Dirichlet mixtures at per-pixel scales in [0.4, 2], with noise.

    Under lmm most of these pixels drop materials over several steps, so
    the same support masks recur across drop steps and in the refinement.
    """
    rng = np.random.default_rng(seed)
    n_bands = 3 * n_materials + 6
    S = rng.uniform(0.05, 1.0, (n_bands, n_materials))
    Z = rng.dirichlet(np.ones(n_materials), n_pixels).T * rng.uniform(0.4, 2.0, n_pixels)
    return S, S @ Z + rng.normal(0.0, 0.01, (n_bands, n_pixels))


#: (model, (S, X)): every model on the mixed problem, and lmm on scaled mixtures at P = 4 and 8, whose masks
#: recur across drop steps and in the refinement
BATCH_CASES = [pytest.param(model, problem(41, 5, n_pixels=37), id=f"{model[0]}-{model[1]}") for model in MODELS]
BATCH_CASES += [pytest.param(("lmm", True), scaled_mixtures(p, 400, 53), id=f"lmm-scaled-P={p}") for p in (4, 8)]


@pytest.mark.parametrize("model, data", BATCH_CASES)
def test_bit_identical_across_batches(model, data, monkeypatch):
    name, sum_to_one = model
    S, X = data
    n_materials, n_pixels = S.shape[1], X.shape[1]
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))
    whole = unmix_cube(cube_of(X), S, config)
    assert X.flags.c_contiguous
    for plain in (X, np.asfortranarray(X)):
        assert_identical(whole, [unmix_cube(plain, S, config)])
    singles = [unmix_cube(cube_of(X[:, n:n + 1]), S, config) for n in range(n_pixels)]
    assert_identical(whole, singles)
    edges = (0, 5, 6, 20, n_pixels)
    chunks = [unmix_cube(cube_of(X[:, lo:hi]), S, config) for lo, hi in zip(edges, edges[1:])]
    assert_identical(whole, chunks)
    # 7-pixel lockstep batches over 3-pixel residual blocks: a batch spans several blocks
    monkeypatch.setattr(solver, "_BATCH_FLOATS", 7 * n_materials ** 2)
    monkeypatch.setattr(solver, "_RESIDUAL_ROWS", 3)
    assert_identical(whole, [unmix_cube(cube_of(X), S, config)])


@pytest.mark.parametrize("n_materials", [1, 4, 12], ids=lambda p: f"P={p}")
def test_a_cube_with_no_live_pixel(n_materials):
    # every pixel zero or a negated mixture, so no material enters at z = 0 and every pixel starts at level 0: in
    # NNLS on the empty support, where its first solve keeps z = 0; under a sum bound at lo on the full support.
    # P = 1, 4 and 12 find their masks by np.unique among 2, 16 and 4096 possible ones.
    rng = np.random.default_rng(59 + n_materials)
    n_bands, n_pixels = 3 * n_materials + 6, 9
    S = rng.uniform(0.05, 1.0, (n_bands, n_materials))
    X = -np.abs(S @ rng.dirichlet(np.ones(n_materials), n_pixels).T + rng.normal(0.0, 0.01, (n_bands, n_pixels)))
    X[:, ::2] = 0.0
    for model in MODELS:
        name, sum_to_one = model
        config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))
        result = unmix_cube(cube_of(X), S, config)
        assert result.degenerate.all()
        assert_identical(result, [unmix_cube(cube_of(X[:, n:n + 1]), S, config) for n in range(n_pixels)])
        for n in range(n_pixels):
            assert_kkt(S, X[:, n], result.abundances[:, n], result.scales[:, n], name, sum_to_one, (0.5, 2.0))
        if model == ("lmm", False):
            # the non-negative fit is exactly 0: +0.0 in every byte, and the residual is the pixel itself
            assert result.abundances.tobytes() == bytes(result.abundances.nbytes)
            for n in range(n_pixels):
                assert result.residual_rmse[n] == rmse(np.zeros(n_bands), X[:, n])
        else:
            # the sum sits on its lower bound: 1 under lmm, psi's 0.5 under the ELMM models
            z = result.scales * result.abundances
            np.testing.assert_allclose(z.sum(axis=0), 1.0 if name == "lmm" else 0.5, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(result.abundances.sum(axis=0), 1.0, rtol=1e-12, atol=0.0)


#: (model, (S, X)): every model on the mixed problem, and lmm on scaled mixtures at P = 4 and 8
MASK_CASES = [pytest.param(model, problem(47, 5, n_pixels=37), id=f"{model[0]}-{model[1]}") for model in MODELS]
MASK_CASES += [pytest.param(("lmm", True), scaled_mixtures(p, 400, 53), id=f"lmm-scaled-P={p}") for p in (4, 8)]


@pytest.mark.parametrize("model, data", MASK_CASES)
def test_each_step_inverts_each_distinct_mask_once(model, data, monkeypatch):
    # a step finds its rows' distinct masks by np.unique and inverts each of them once, at most min(2^P, rows) of
    # them; each row's free set is the bits of its own mask, and watching the steps changes no output bit
    name, sum_to_one = model
    S, X = data
    n_materials = S.shape[1]
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))
    plain = unmix_cube(cube_of(X), S, config)
    steps = []
    solve_free, inverses = solver._solve_free, solver._inverses

    def watched_inverses(G, masks, bits):
        steps[-1]["inverted"].append(masks.copy())
        return inverses(G, masks, bits)

    def watched_solve_free(G, B, mask, bits, *args):
        steps.append({"rows": mask.copy(), "inverted": []})
        result = solve_free(G, B, mask, bits, *args)
        steps[-1]["free"] = result[2]
        return result

    monkeypatch.setattr(solver, "_inverses", watched_inverses)
    monkeypatch.setattr(solver, "_solve_free", watched_solve_free)
    assert_identical(plain, [unmix_cube(cube_of(X), S, config)])
    assert steps
    bits = np.array([1 << k for k in range(n_materials)])
    for step in steps:
        rows = step["rows"].astype(np.int64)
        [inverted] = step["inverted"]
        assert np.array_equal(inverted, np.unique(rows))
        assert len(inverted) <= min(2 ** n_materials, len(rows))
        assert np.array_equal(step["free"], (rows[:, None] & bits) != 0)
    # rows share masks within a step, so a call inverts fewer masks than it solves rows
    assert sum(len(step["inverted"][0]) for step in steps) < sum(len(step["rows"]) for step in steps)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m[0]}-{m[1]}")
def test_unmix_cube_outputs_are_read_only_and_share_no_memory_with_the_inputs(model):
    name, sum_to_one = model
    S, X = problem(41, 5, n_pixels=37)
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))
    cube, fortran = cube_of(X), np.asfortranarray(X)
    for source in (cube, X, fortran):
        for values in all_outputs(unmix_cube(source, S, config)):
            assert type(values) is np.ndarray and not values.flags.writeable
            assert not any(np.shares_memory(values, given) for given in (S, X, cube.values, fortran))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m[0]}-{m[1]}")
def test_residual_rmse_is_metrics_rmse_of_the_reconstruction(model, monkeypatch):
    name, sum_to_one = model
    S, X = problem(43, 5, n_pixels=37)
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))

    def check(result):
        # the reconstruction S0 (psi * a) as unmix_cube forms it, one pixel per row
        recon = solver._rowwise((result.scales * result.abundances).T, np.ascontiguousarray(S.T))
        for n in range(X.shape[1]):  # X[:, n] is a strided view
            assert rmse(recon[n], X[:, n]) == result.residual_rmse[n]
        np.testing.assert_array_equal(rmse(recon, X.T), result.residual_rmse)

    check(unmix_cube(cube_of(X), S, config))
    # 7-pixel lockstep batches over 3-pixel residual blocks
    monkeypatch.setattr(solver, "_BATCH_FLOATS", 7 * 5 ** 2)
    monkeypatch.setattr(solver, "_RESIDUAL_ROWS", 3)
    check(unmix_cube(cube_of(X), S, config))


def test_unmix_cube_peak_memory_is_a_fraction_of_the_cube():
    # the lockstep batch at P = 4 holds over 10^4 pixels; only the 512-row residual blocks are band-length
    rng = np.random.default_rng(17)
    n_bands, n_materials, n_pixels = 200, 4, 20_000
    S = rng.uniform(0.05, 1.0, (n_bands, n_materials))
    X = S @ rng.dirichlet(np.ones(n_materials), n_pixels).T + rng.normal(0.0, 0.01, (n_bands, n_pixels))
    cube = cube_of(X)
    tracemalloc.start()
    try:
        unmix_cube(cube, S, SolverConfig(model="elmm-full"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * cube.values.nbytes


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m[0]}-{m[1]}")
def test_support_masks_of_any_width(model):
    # 64 materials: support masks past 63 bits are Python integers, on the same code path.  The oracle's 2^64
    # supports are out of reach, so each result is re-solved on its own support F.  Matching that re-solve, with
    # non-negative multipliers off F, certifies the optimum of the convex program.
    name, sum_to_one = model
    bounds = (0.5, 2.0)
    S, X = problem(5, 64, n_pixels=8)
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=bounds)
    result = unmix_cube(cube_of(X), S, config)
    G, C = S.T @ S, S.T @ X
    Z = np.zeros_like(result.abundances)
    for n in range(X.shape[1]):
        a = result.abundances[:, n]
        F = np.flatnonzero(a > 1e-12 * np.max(np.abs(a)))
        Z[F, n] = support_solve(G[np.ix_(F, F)], C[F, n:n + 1], *sum_range(model, bounds))[0][:, 0]
        assert relative_kkt(S, X[:, n], Z[:, n], model, bounds)[0] >= 0.0
    assert_matches_oracle(S, X, result, model, bounds, Z=Z)
    assert_identical(result, [unmix_cube(cube_of(X[:, n:n + 1]), S, config) for n in range(X.shape[1])])


def test_single_pixel_entry_points_equal_cube_columns():
    S, X = problem(43, 4)
    lmm = unmix_cube(cube_of(X), S, SolverConfig(model="lmm"))
    nnls = unmix_cube(cube_of(X), S, SolverConfig(model="lmm", sum_to_one=False))
    shared = unmix_cube(cube_of(X), S, SolverConfig(model="elmm-global"))
    for n in range(X.shape[1]):
        assert np.array_equal(fcls(X[:, n], S), lmm.abundances[:, n])
        assert np.array_equal(fcls(X[:, n], S, sum_to_one=False), nnls.abundances[:, n])
        fit = unmix_cube(X[:, n][:, None], S, SolverConfig(model="elmm-global",
                                                           psi_bounds=SolverConfig(model="elmm-full").psi_bounds))
        assert np.array_equal(fit.abundances[:, 0], shared.abundances[:, n])
        assert fit.scales[0, 0] == shared.scales[0, n]
        assert fit.degenerate[0] == shared.degenerate[n]


def test_global_scaling_is_magnitude_free():
    rng = np.random.default_rng(44)
    S = rng.uniform(0.05, 1.0, (30, 4))
    X = S @ (rng.dirichlet(np.ones(4), 200).T * rng.uniform(0.5, 2.0, 200))
    X += rng.normal(0.0, 0.005, X.shape)
    config = SolverConfig(model="elmm-global", psi_bounds=(1e-14, 1e2))
    unit = unmix_cube(cube_of(X), S, config)
    assert not unit.degenerate.any()
    for k in (1e-12, 1e-6):
        scaled = unmix_cube(cube_of(k * X), S, config)
        assert not scaled.degenerate.any()
        np.testing.assert_allclose(scaled.abundances, unit.abundances, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.scales, k * unit.scales, rtol=1e-9)


@pytest.mark.parametrize("k", [1e-12, 1e9, 1e12])
def test_elmm_models_share_abundances_and_keep_psi_in_bounds_at_any_magnitude(k):
    # with the default psi_bounds every pixel here is re-solved on a bound
    rng = np.random.default_rng(46)
    S = rng.uniform(0.05, 1.0, (50, 4))
    X = k * (S @ (rng.dirichlet(np.ones(4), 200).T * rng.uniform(0.5, 2.0, 200)) + rng.normal(0.0, 0.005, (50, 200)))
    full = unmix_cube(cube_of(X), S, SolverConfig(model="elmm-full"))
    shared = unmix_cube(cube_of(X), S, SolverConfig(model="elmm-global"))
    assert np.array_equal(shared.abundances, full.abundances)
    assert not shared.degenerate.any() and not full.degenerate.any()
    assert np.all((shared.scales >= 1e-2) & (shared.scales <= 1e2))
    assert np.all((full.scales >= 1e-2) & (full.scales <= 1e2))


@pytest.mark.parametrize("k", [1e6, 1e9, 1e12])
def test_single_pixel_entry_points_meet_the_simplex_at_radiance_scale(k):
    # At radiance scale (cube x k, endmembers at reflectance scale) the
    # sum-constrained solve meets sum(a) = 1 to rounding and its KKT
    # conditions, and the single-pixel entry points return unmix_cube's column.
    S, X = problem(0, 2)
    x = k * X[:, 1]
    a = unmix_cube(cube_of(x[:, None]), S, SolverConfig(model="lmm")).abundances[:, 0]
    assert abs(a.sum() - 1.0) <= 4 * np.finfo(float).eps
    scale = float(np.max(np.abs(S.T @ x)))
    violation, stationarity = kkt_violation(S, x, a, True)
    assert violation >= -1e-8 * scale and stationarity <= 1e-8 * scale
    assert np.array_equal(fcls(x, S), a)
    # The ELMM models divide z by its own sum, so a pure pixel far above the
    # psi bound keeps its exact indicator abundances, and its scale is the bound.
    j = int(np.flatnonzero(np.all(S == X[:, [3]], axis=0))[0])
    fit = unmix_cube((k * X[:, 3])[:, None], S, SolverConfig(model="elmm-global"))
    assert np.array_equal(fit.abundances[:, 0], np.eye(2)[j])
    assert np.all(fit.scales == 1e2)
    assert np.array_equal(fcls(x, S, sum_to_one=False),
                          unmix_cube(cube_of(x[:, None]), S, SolverConfig(model="lmm", sum_to_one=False))
                          .abundances[:, 0])


def relative_kkt(S, x, z, model, bounds):
    """kkt_violation of z = psi * a in its own units, relative to max|S'x| (max|S'Sz| for a zero pixel).

    kkt_violation's free threshold is absolute, so z is scaled to a unit maximum first.
    """
    name, sum_to_one = model
    lo, hi = bounds
    total = float(z.sum())
    constrained = sum_to_one if name == "lmm" else not lo * (1 + 1e-12) < total < hi * (1 - 1e-12)
    unit = float(np.max(z)) or 1.0
    violation, stationarity = kkt_violation(S, x / unit, z / unit, constrained)
    scale = max(float(np.max(np.abs(S.T @ x))), float(np.max(np.abs(S.T @ (S @ z))))) / unit or 1.0
    return violation / scale, stationarity / scale


def scaling_law(z_ref, k, model, bounds, with_endmembers):
    """The z = psi * a that the unit-scale z_ref implies for the cube times k, or None where no law holds."""
    if with_endmembers:
        return z_ref
    name, sum_to_one = model
    lo, hi = bounds
    s = float(z_ref.sum())
    inside = lo * (1 + 1e-6) < min(s, k * s) and max(s, k * s) < hi * (1 - 1e-6)
    return k * z_ref if (name == "lmm" and not sum_to_one) or (name != "lmm" and inside) else None


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_materials=st.integers(1, 8),
    model=st.sampled_from(MODELS),
    bounds=st.sampled_from(BOUNDS + (WIDE_BOUNDS,)),
    exponent=st.floats(-12.0, 12.0),
    with_endmembers=st.booleans(),
)
def test_any_magnitude_keeps_each_models_scaling_law_psi_bounds_and_kkt(seed, n_materials, model, bounds, exponent,
                                                                       with_endmembers):
    """The cube times k in [1e-12, 1e12], alone or with the endmembers, against the exact oracle at k = 1.

    Scaling both leaves every model's z = psi * a unchanged.  Scaling the
    cube alone scales z by k under plain NNLS, and under the ELMM models for
    a pixel whose sum(z) stays strictly inside psi_bounds at both scales;
    sum-constrained lmm has no law there.  The laws are checked at every
    bound drawn, WIDE_BOUNDS included, whose re-solves sit 30 orders below
    the fit.  The degenerate flag meets its definition on the scaled inputs.
    Every result keeps psi inside psi_bounds and meets its KKT conditions
    relative to max|S'x| (max|S'Sz| for a zero pixel).
    """
    name, sum_to_one = model
    lo, hi = bounds
    k = 10.0 ** exponent
    S, X = problem(seed, n_materials)
    S_k = k * S if with_endmembers else S
    result = unmix_cube(cube_of(k * X), S_k, SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=bounds))
    if name != "lmm":
        assert np.all((result.scales >= lo) & (result.scales <= hi))
    np.testing.assert_array_equal(result.degenerate, degenerate(S_k, k * X))
    Z_ref = support_oracle(S, X, *sum_range(model, bounds))
    for n in range(X.shape[1]):
        z = result.scales[:, n] * result.abundances[:, n]
        law = scaling_law(Z_ref[:, n], k, model, bounds, with_endmembers)
        if law is not None:
            np.testing.assert_allclose(z, law, rtol=0.0, atol=1e-9 * np.max(np.abs(law)))
        violation, stationarity = relative_kkt(S_k, k * X[:, n], z, model, bounds)
        assert violation >= -1e-8 and stationarity <= 1e-8


def test_remainder_rule_gives_one_material_exactly_its_sum_on_wide_bounds():
    """A one-material free set: its entry is the lowest, so the remainder rule sets it to the whole total.

    An inverse alone leaks rounding times |c| into it: on WIDE_BOUNDS that
    is 15 orders above a pixel pinned at 1e-30, and a negative pixel's entry
    turns negative.  P = 1: both ELMM models meet each bound exactly, and
    lmm with sum-to-one gives a = 1 exactly at 1e40 times reflectance scale.
    P = 2: negative pixels and noise at 1e12 pinned at 1e-30 end on one
    material, reached from two-material solves on the bound whose rounding
    is 14 orders above it.
    """
    rng = np.random.default_rng(0)
    S = rng.uniform(0.05, 1.0, (9, 1))
    # a pixel inside WIDE_BOUNDS, one below, one above, a negative and a zero pixel
    X = S * np.array([0.7, 1e-40, 1e40, -1.0, 0.0])
    for name in ("elmm-global", "elmm-full"):
        result = unmix_cube(cube_of(X), S, SolverConfig(model=name, psi_bounds=WIDE_BOUNDS))
        np.testing.assert_array_equal(result.abundances, np.ones((1, 5)))
        np.testing.assert_array_equal(result.scales[0, 1:], [1e-30, 1e30, 1e-30, 1e-30])
        assert result.scales[0, 0] == pytest.approx(0.7, rel=1e-14, abs=0.0)
    result = unmix_cube(cube_of(1e40 * S), S, SolverConfig(model="lmm", sum_to_one=True))
    np.testing.assert_array_equal(result.abundances, [[1.0]])
    rng = np.random.default_rng(0)
    S = rng.uniform(0.05, 1.0, (9, 2))
    X = np.column_stack([-np.abs(rng.normal(0.0, 1.0, (20, 9))).T, 1e12 * rng.normal(0.0, 1.0, (20, 9)).T])
    Z = support_oracle(S, X, *WIDE_BOUNDS)
    pinned = Z.sum(axis=0) == 1e-30
    one = Z[:, pinned] > 0.0
    assert pinned.sum() == 29 and np.all(one.sum(axis=0) == 1)
    for name in ("elmm-global", "elmm-full"):
        result = unmix_cube(cube_of(X), S, SolverConfig(model=name, psi_bounds=WIDE_BOUNDS))
        np.testing.assert_array_equal(result.abundances[:, pinned], one)
        np.testing.assert_array_equal(result.scales[:, pinned][one], 1e-30)


def test_kkt_residual_stays_at_rounding_on_ill_conditioned_endmembers():
    # two nearly equal endmembers: cond(S) ~ 3e3, so cond(G) ~ 1e7 (an inverse alone leaves ~1e-9 here)
    rng = np.random.default_rng(1)
    S = rng.uniform(0.05, 1.0, (100, 6))
    S[:, 1] = S[:, 0] + rng.uniform(-1.0, 1.0, 100) * 1e-3
    X = S @ (rng.dirichlet(np.full(6, 0.5), 200).T * rng.uniform(0.5, 1.5, 200)) + rng.normal(0.0, 0.002, (100, 200))
    for model in MODELS:
        name, sum_to_one = model
        result = unmix_cube(cube_of(X), S, SolverConfig(model=name, sum_to_one=sum_to_one))
        for n in range(X.shape[1]):
            z = result.scales[:, n] * result.abundances[:, n]
            violation, stationarity = relative_kkt(S, X[:, n], z, model, SolverConfig().psi_bounds)
            assert violation >= -1e-10 and stationarity <= 1e-12, (model, n)


def failures_alone(S, X, config):
    failures = 0
    for n in range(X.shape[1]):
        try:
            unmix_cube(cube_of(X[:, n:n + 1]), S, config)
        except RuntimeError:
            failures += 1
    return failures


def test_iteration_cap_fails_the_pixels_that_fail_alone_and_names_their_count(monkeypatch):
    rng = np.random.default_rng(45)
    S = rng.uniform(0.05, 1.0, (20, 4))
    # noisy sparse mixtures drop materials one at a time from the full-support start: paths past 2 solves
    X = np.column_stack([S[:, :3], S @ rng.dirichlet(np.ones(4), 5).T,
                         S @ rng.dirichlet(np.full(4, 0.1), 4).T + rng.normal(0.0, 0.02, (20, 4))])
    # cap = factor * P + 30: 6, 2 and -2 steps; the pixels each cap fails without and with the sum constraint
    for factor, failing in ((-6, (0, 0)), (-7, (2, 3)), (-8, (12, 12))):
        monkeypatch.setattr(solver, "_MAX_OUTER_FACTOR", factor)
        for sum_to_one, name, expected in zip((False, True), ("non-negative", "sum-constrained"), failing):
            config = SolverConfig(model="lmm", sum_to_one=sum_to_one)
            # batch invariance: a pixel fails in the cube exactly when it fails alone
            assert failures_alone(S, X, config) == expected
            if expected == 0:
                unmix_cube(cube_of(X), S, config)
                continue
            message = f"{name} least squares did not converge on {expected} of 12 pixels"
            with pytest.raises(RuntimeError, match=message):
                unmix_cube(cube_of(X), S, config)
