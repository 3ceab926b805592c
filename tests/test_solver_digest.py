"""The solver's output bits on small seeded solves, pinned by sha256 against a committed digest file.

Every other bit-identity test compares the solver with itself (batches,
chunks, single pixels), so a change that moves every result by one ulp
passes them all.  This one compares with bits recorded from an earlier
tree.  The digests are only defined for one floating-point stack, so the
file is keyed by the numpy version and a digest of the BLAS and LAPACK
products the solver is built on; on any other key the test skips.  It
guards changes made on a machine whose key is recorded; a CI runner,
whose CPU and BLAS build differ, is expected to skip it.

A change that is meant to move the solver's bits records new digests, on
a tree whose outputs are checked by other means:

    PYTHONPATH=src python tests/test_solver_digest.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from specmix.solver import SolverConfig, unmix_cube

DIGESTS = Path(__file__).with_name("solver_digests.json")
#: (label, model, sum_to_one); the ELMM models run at psi_bounds (0.5, 2), where many pixels sit on a bound
MODELS = (("lmm", "lmm", True), ("lmm-nnls", "lmm", False),
          ("elmm-global", "elmm-global", True), ("elmm-full", "elmm-full", True))
PSI_BOUNDS = (0.5, 2.0)
#: 1 to 12 materials: every P finds its masks by np.unique, among 2 to 4096 possible ones
MATERIALS = (1, 2, 4, 8, 12)
RADIANCE = 1e9


def platform_key() -> str:
    """The numpy version and a digest of a stacked dot, a gemv row product, a gram product and a stacked inverse."""
    rng = np.random.default_rng(2)
    rows, S = rng.uniform(-1.0, 1.0, (16, 200)), rng.uniform(0.05, 1.0, (200, 8))
    G = S.T @ S
    products = (
        np.matmul(rows[:, None, :], rows[:, :, None]),
        np.matmul(rng.uniform(-1.0, 1.0, (16, 1, 8)), np.ascontiguousarray(G)),
        G,
        np.linalg.inv(G + rng.uniform(0.0, 1.0, (16, 8, 8))),
    )
    blas = hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in products)).hexdigest()
    return f"numpy {np.__version__} / blas {blas[:16]}"


def problem(n_materials: int, n_pixels: int = 48, seed: int = 11):
    """Endmembers and a (bands, pixels) cube: Dirichlet mixtures at per-pixel scales in [0.4, 2], with noise.

    Columns 0-2 are a zero, a negated and a pure pixel.
    """
    rng = np.random.default_rng(seed + n_materials)
    n_bands = 3 * n_materials + 6
    S = rng.uniform(0.05, 1.0, (n_bands, n_materials))
    Z = rng.dirichlet(np.full(n_materials, 0.4), n_pixels).T * rng.uniform(0.4, 2.0, n_pixels)
    X = S @ Z + rng.normal(0.0, 0.01, (n_bands, n_pixels))
    X[:, 0] = 0.0
    X[:, 1] = -X[:, 1]
    X[:, 2] = S[:, -1]
    return S, X


def cases():
    """(name, S, X, config) of every pinned solve."""
    for p in MATERIALS:
        S, X = problem(p)
        for label, model, sum_to_one in MODELS:
            yield f"{label}/P={p}", S, X, SolverConfig(model=model, sum_to_one=sum_to_one, psi_bounds=PSI_BOUNDS)
    S, X = problem(4)
    for label, model, sum_to_one in MODELS:
        yield (f"{label}/P=4/x1e9", S, X * RADIANCE,
               SolverConfig(model=model, sum_to_one=sum_to_one, psi_bounds=PSI_BOUNDS))


def digest(result) -> str:
    """sha256 over the bytes of the abundances, scales, residual_rmse and degenerate flags."""
    h = hashlib.sha256()
    for name in ("abundances", "scales", "residual_rmse", "degenerate"):
        h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
    return h.hexdigest()


def current() -> dict[str, str]:
    return {name: digest(unmix_cube(X, S, config)) for name, S, X, config in cases()}


def test_solver_bits_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text()).get(platform_key())
    if recorded is None:
        pytest.skip(f"no digests recorded for {platform_key()}")
    got = current()
    assert set(got) == set(recorded)
    assert [name for name in recorded if got[name] != recorded[name]] == []


if __name__ == "__main__":
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[platform_key()] = current()
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table[platform_key()])} digests under {platform_key()}", file=sys.stderr)
