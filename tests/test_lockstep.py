"""The lockstep solver against the serial reference, and its batch invariance."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bruteforce import kkt_violation
import serial_reference
from specmix import solver
from specmix.core import HyperCube, WavelengthAxis
from specmix.solver import SolverConfig, fcls, unmix_cube

MODELS = (
    ("lmm", True),
    ("lmm", False),
    ("elmm-global", True),
    ("elmm-full", True),
)
BOUNDS = ((1e-2, 1e2), (0.5, 2.0), (1.0, 1.0))


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


def reference(S, x, model, sum_to_one, bounds):
    """The serial result, with the NNLS of a dark pixel taken at unit scale.

    The serial NNLS floors its KKT tolerance at 1e-10 absolute, so on a
    pixel with max|S'x| < 1 it may stop before the optimum.  Plain NNLS is
    scale-equivariant, so there the reference solves x / max|S'x| and
    scales the answer back.
    """
    k = float(np.max(np.abs(S.T @ x)))
    if model != "lmm" or sum_to_one or not 0.0 < k < 1.0:
        return serial_reference.unmix_pixel(S, x, model, sum_to_one, bounds)
    a, psi, degenerate = serial_reference.unmix_pixel(S, x / k, model, sum_to_one, bounds)
    return a * k, psi, degenerate


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_materials=st.integers(1, 8),
    model=st.sampled_from(MODELS),
    bounds=st.sampled_from(BOUNDS),
)
def test_matches_serial_reference(seed, n_materials, model, bounds):
    name, sum_to_one = model
    S, X = problem(seed, n_materials)
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=bounds)
    result = unmix_cube(cube_of(X), S, config)
    for n in range(X.shape[1]):
        a_ref, psi_ref, degenerate_ref = reference(S, X[:, n], name, sum_to_one, bounds)
        a, psi = result.abundances[:, n], result.scales[:, n]
        assert result.degenerate[n] == degenerate_ref
        # support: entries above rounding (a pure pixel's other entries are +-1e-16)
        tol = 1e-12 * np.max(np.abs(a_ref))
        np.testing.assert_array_equal(a > tol, a_ref > tol)
        np.testing.assert_allclose(a, a_ref, rtol=0.0, atol=tol)
        np.testing.assert_allclose(psi, psi_ref, rtol=1e-12, atol=0.0)
        assert_kkt(S, X[:, n], a, psi, name, sum_to_one, bounds)


def all_outputs(result):
    return (result.abundances, result.scales, result.residual_rmse, result.degenerate)


def assert_identical(result, parts):
    for whole, pieces in zip(all_outputs(result), zip(*map(all_outputs, parts))):
        assert np.array_equal(whole, np.concatenate(pieces, axis=-1))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m[0]}-{m[1]}")
def test_bit_identical_across_batches(model, monkeypatch):
    name, sum_to_one = model
    S, X = problem(41, 5, n_pixels=37)
    config = SolverConfig(model=name, sum_to_one=sum_to_one, psi_bounds=(0.5, 2.0))
    whole = unmix_cube(cube_of(X), S, config)
    assert X.flags.c_contiguous
    for plain in (X, np.asfortranarray(X)):
        assert_identical(whole, [unmix_cube(plain, S, config)])
    singles = [unmix_cube(cube_of(X[:, n:n + 1]), S, config) for n in range(X.shape[1])]
    assert_identical(whole, singles)
    edges = (0, 5, 6, 20, 37)
    chunks = [unmix_cube(cube_of(X[:, lo:hi]), S, config) for lo, hi in zip(edges, edges[1:])]
    assert_identical(whole, chunks)
    monkeypatch.setattr(solver, "_CHUNK_PIXELS", 7)
    assert_identical(whole, [unmix_cube(cube_of(X), S, config)])


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


def test_single_pixel_entry_points_refuse_what_unmix_cube_refuses():
    # At radiance scale (cube x1e12, endmembers at reflectance scale) the
    # sum-constrained solve misses the simplex by up to 3e-4 here.  The
    # single-pixel entry points raise like unmix_cube rather than return it.
    S, X = problem(0, 2)
    x = 1e12 * X[:, 1]
    with pytest.raises(ValueError, match="abundance columns must sum to 1"):
        unmix_cube(cube_of(x[:, None]), S, SolverConfig(model="lmm"))
    with pytest.raises(ValueError, match="abundance columns must sum to 1"):
        fcls(x, S)
    # The ELMM models divide z by its own sum, so a pure pixel far above the
    # psi bound keeps its exact indicator abundances; its scale stays inside
    # psi_bounds, off the bound only by that sum's rounding.
    j = int(np.flatnonzero(np.all(S == X[:, [3]], axis=0))[0])
    fit = unmix_cube((1e12 * X[:, 3])[:, None], S, SolverConfig(model="elmm-global"))
    assert np.array_equal(fit.abundances[:, 0], np.eye(2)[j])
    assert np.all(fit.scales == fit.scales[0, 0]) and 1e2 * (1.0 - 1e-6) <= fit.scales[0, 0] <= 1e2
    assert np.array_equal(fcls(x, S, sum_to_one=False),
                          unmix_cube(cube_of(x[:, None]), S, SolverConfig(model="lmm", sum_to_one=False))
                          .abundances[:, 0])


def serial_failures(S, X, sum_to_one):
    failures = 0
    for n in range(X.shape[1]):
        try:
            serial_reference.unmix_pixel(S, X[:, n], "lmm", sum_to_one)
        except RuntimeError:
            failures += 1
    return failures


def test_iteration_cap_fails_the_serial_pixels_and_names_their_count(monkeypatch):
    rng = np.random.default_rng(45)
    S = rng.uniform(0.05, 1.0, (20, 4))
    X = np.column_stack([S[:, :3], S @ rng.dirichlet(np.ones(4), 5).T,
                         S @ rng.dirichlet(np.full(4, 0.3), 4).T])
    counts = set()
    for factor in (-6, -7, -8):  # cap = factor * P + 30: 6, 2 and -2 steps
        monkeypatch.setattr(solver, "_MAX_OUTER_FACTOR", factor)
        monkeypatch.setattr(serial_reference, "_MAX_OUTER_FACTOR", factor)
        for sum_to_one, name in ((False, "non-negative"), (True, "sum-constrained")):
            config = SolverConfig(model="lmm", sum_to_one=sum_to_one)
            expected = serial_failures(S, X, sum_to_one)
            counts.add(expected)
            if expected == 0:
                unmix_cube(cube_of(X), S, config)
                continue
            message = f"{name} least squares did not converge on {expected} of 12 pixels"
            with pytest.raises(RuntimeError, match=message):
                unmix_cube(cube_of(X), S, config)
    assert len(counts - {0, 12}) > 0  # some cap stops some pixels but not all
