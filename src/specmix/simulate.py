"""Synthetic hyperspectral scene generation.

Each pixel draws a geometry and an abundance column.  The reflectance
kernel then evaluates every material at every pixel's geometry, one block
of pixels at a time and one kernel call per block: with the materials'
albedos as the columns of one omega and the pixels on a leading axis, the
call writes the block of the pixels' endmember matrices into two buffers
allocated once per scene (hapke's buffered entry behind reflectance), and
the block fits an L2 cache.  Each pixel mixes its variants linearly,
straight into the cube's values, and white Gaussian noise scaled to a
target SNR is added last.  The cube, its ground truth and the reference
endmembers keep the arrays made for them (_Unshared views), not copies.
Each random purpose draws all pixels from one (seed, purpose) stream in
one pixel-major call, so a pixel's draws do not depend on the pixel count,
and its value does not depend on the block it falls in: a smaller scene
is a prefix of a larger one, and chunked and whole evaluation give
bit-identical scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .core import (
    AlbedoSpectrum,
    EndmemberMatrix,
    FloatArray,
    Geometry,
    GroundTruth,
    HyperCube,
    PhotometricParams,
    _Unshared,
    check_config_keys,
    config_value,
    json_name,
    require_config_keys,
)
from .hapke import MODELS, _evaluate, _lobes, endmember_variant, scaling_factor

#: Floats of one block of pixels: its two (pixels, bands, materials) kernel buffers and its (pixels, bands)
#: mixed spectra, as many pixels as fit (at least one).  At P = 4 and 200 bands a pixel takes
#: 200 x (2 x 4 + 1) floats, so a block holds 72 pixels: two 461 KB buffers and 115 KB of spectra, 1 MB, half
#: of a 2 MB L2 cache, beside the block's geometry, the albedos and the cube rows it writes (2 MB blocks ran
#: 4-6% slower).  The two buffers are allocated once per call and reused by every block.  With fresh 2 MB
#: kernel arrays per block, each mapped and page-faulted anew, and the cube copied once more into its
#: HyperCube, a full-model, noise-free 1024-pixel scene took about 2000 minor faults and 12 ms; it now
#: takes none and 8 ms.
_BLOCK_FLOATS = 2**17

# stream tags: independent streams per random purpose, keyed [seed, tag]
_ABUNDANCE_STREAM = 1
_GEOMETRY_STREAM = 2
_NOISE_STREAM = 3

#: Most pixels a scene may have, checked before anything is allocated: a
#: 3162 x 3162 image, whose cube alone takes 16 GB at 200 bands.
_MAX_PIXELS = 10**7


@dataclass(frozen=True)
class AbundanceSampler:
    """Abundance column sampler: uniform on the simplex, or Dirichlet.

    kind "uniform" uses the exponential-spacings construction (equivalently
    a flat Dirichlet); kind "dirichlet" uses concentration alpha, with
    alpha < 1 producing sparse columns.
    """

    kind: str = "uniform"
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "dirichlet"):
            raise ValueError(f"unknown abundance sampler kind {json_name(self.kind)}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"abundances.alpha must be finite and > 0, got {self.alpha}")


@dataclass(frozen=True)
class GeometrySampler:
    """Per-pixel geometry: one fixed geometry, or uniform angle ranges."""

    kind: str = "fixed"
    fixed: Geometry = Geometry(theta0=0.0, theta=0.0, phi=0.0)
    theta0_range: tuple[float, float] = (0.0, 90.0)
    theta_range: tuple[float, float] = (0.0, 90.0)
    phi_range: tuple[float, float] = (0.0, 180.0)

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ValueError(f"unknown geometry sampler kind {json_name(self.kind)}")
        for name, hi in (("theta0_range", 90.0), ("theta_range", 90.0), ("phi_range", 180.0)):
            lo, up = getattr(self, name)
            if not (0.0 <= lo <= up <= hi):
                raise ValueError(f"{name} must satisfy 0 <= low <= high <= {hi:g}")
            object.__setattr__(self, name, (float(lo), float(up)))


@dataclass(frozen=True)
class SceneConfig:
    """Everything that determines a simulated scene besides the spectra."""

    n_materials: int
    n_pixels: int
    model: str = "linear"
    abundances: AbundanceSampler = AbundanceSampler()
    geometry: GeometrySampler = GeometrySampler()
    reference: Geometry = Geometry(theta0=0.0, theta=0.0, phi=0.0)
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_materials < 1:
            raise ValueError(f"material count must be >= 1, got {self.n_materials}")
        if self.n_pixels < 1:
            raise ValueError(f"pixel count must be >= 1, got {self.n_pixels}")
        if self.n_pixels > _MAX_PIXELS:
            raise ValueError(f"n_pixels must be at most {_MAX_PIXELS}, got {self.n_pixels}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {json_name(self.model)}; expected one of {MODELS}")
        if self.snr_db is not None and not self.snr_db > 0.0:
            raise ValueError(f"snr_db must be > 0 when given, got {self.snr_db}")
        if self.snr_db == math.inf:  # no noise has one value, None, so the sidecar holds JSON null
            object.__setattr__(self, "snr_db", None)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict[str, Any]:
        cfg: dict[str, Any] = {
            "n_materials": self.n_materials,
            "n_pixels": self.n_pixels,
            "model": self.model,
            "abundances": {"kind": self.abundances.kind, "alpha": self.abundances.alpha},
            "reference": self.reference.to_dict(),
            "snr_db": self.snr_db,
            "seed": self.seed,
        }
        if self.geometry.kind == "fixed":
            cfg["geometry"] = {"kind": "fixed", "angles": self.geometry.fixed.to_dict()}
        else:
            cfg["geometry"] = {
                "kind": "uniform",
                "theta0_range": list(self.geometry.theta0_range),
                "theta_range": list(self.geometry.theta_range),
                "phi_range": list(self.geometry.phi_range),
            }
        return cfg

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SceneConfig":
        """Inverse of to_dict; any unknown key, at any level, is rejected by name."""
        check_config_keys(raw, (f.name for f in fields(cls)), "scene config")
        require_config_keys(raw, ("n_materials", "n_pixels"), "scene config")
        abund_raw = check_config_keys(
            raw.get("abundances", {"kind": "uniform"}), ("kind", "alpha"), "abundances"
        )
        sampler = AbundanceSampler(
            kind=abund_raw.get("kind", "uniform"),
            alpha=config_value(abund_raw.get("alpha", 1.0), "abundances.alpha"),
        )
        geom_raw = raw.get("geometry", {"kind": "fixed"})
        kind = geom_raw.get("kind", "fixed") if isinstance(geom_raw, dict) else None
        if kind == "fixed":
            check_config_keys(geom_raw, ("kind", "angles"), "geometry")
            fixed = Geometry.from_dict(geom_raw.get("angles", {}), "geometry.angles")
            geometry = GeometrySampler(kind="fixed", fixed=fixed)
        else:
            ranges = ("theta0_range", "theta_range", "phi_range")
            check_config_keys(geom_raw, ("kind", *ranges), "geometry")
            geometry = GeometrySampler(
                kind=kind,
                **{key: config_value(geom_raw[key], f"geometry.{key}", "pair") for key in ranges if key in geom_raw},
            )
        snr = raw.get("snr_db")
        return cls(
            n_materials=config_value(raw["n_materials"], "n_materials", "count"),
            n_pixels=config_value(raw["n_pixels"], "n_pixels", "count"),
            model=raw.get("model", "linear"),
            abundances=sampler,
            geometry=geometry,
            reference=Geometry.from_dict(raw.get("reference", {}), "reference"),
            snr_db=None if snr is None else config_value(snr, "snr_db"),
            seed=config_value(raw.get("seed", 0), "seed", "count"),
        )


def sample_abundances(config: SceneConfig) -> FloatArray:
    """Draw the materials x pixels abundance matrix for a scene.

    Columns are non-negative and sum to one.  They come from the (seed,
    abundance) stream in one pixel-major call, so a smaller scene's columns
    are a prefix of a larger one's.
    """
    shape = (config.n_pixels, config.n_materials)
    if config.n_materials == 1:
        return np.ones((1, config.n_pixels))
    rng = np.random.default_rng([int(config.seed), _ABUNDANCE_STREAM])
    if config.abundances.kind == "uniform":
        gaps = rng.exponential(1.0, shape)
        return (gaps / gaps.sum(axis=1, keepdims=True)).T
    return rng.dirichlet(np.full(shape[1], config.abundances.alpha), size=shape[0]).T


def sample_geometries(config: SceneConfig) -> Geometry:
    """Draw one acquisition geometry per pixel, as one Geometry of n_pixels angles.

    The fixed kind repeats its geometry.  Uniform angles come from the
    (seed, geometry) stream in one pixel-major call, so a smaller scene's
    geometries are a prefix of a larger one's.
    """
    sampler = config.geometry
    if sampler.kind == "fixed":
        fixed = sampler.fixed
        angles = np.tile([fixed.theta0, fixed.theta, fixed.phi], (config.n_pixels, 1))
    else:
        rng = np.random.default_rng([int(config.seed), _GEOMETRY_STREAM])
        low, high = np.array([sampler.theta0_range, sampler.theta_range, sampler.phi_range]).T
        angles = rng.uniform(low, high, (config.n_pixels, 3))
    return Geometry(theta0=angles[:, 0], theta=angles[:, 1], phi=angles[:, 2])


def reference_endmembers(
    albedos: list[AlbedoSpectrum],
    photometry: list[PhotometricParams | None],
    model: str,
    geometry: Geometry,
) -> EndmemberMatrix:
    """Endmember matrix of model at one geometry: each material's reflectance, one per column."""
    columns = [endmember_variant(albedo, geometry, model, params) for albedo, params in zip(albedos, photometry)]
    return EndmemberMatrix(
        values=np.column_stack(columns).view(_Unshared),
        materials=tuple(albedo.material for albedo in albedos),
    )


def simulate_cube(
    albedos: list[AlbedoSpectrum],
    photometry: list[PhotometricParams | None],
    config: SceneConfig,
) -> HyperCube:
    """Generate a scene cube with its ground truth attached.

    Each pixel mixes that pixel's endmember variants: x_n = S_n a_n, where
    S_n holds the per-material reflectances at the pixel's geometry.  Every
    material in a pixel shares the pixel's single geometry (topography is a
    per-pixel tangent plane); the cube's geometries are the Geometry of
    sample_geometries, whose mu, mu0 and g arrays feed the kernel directly,
    sliced per block of pixels.  Ground-truth scaling factors are stored only
    for the linear model, where variant = psi * reference holds exactly;
    for the other models the scales field is None.
    """
    if len(albedos) != config.n_materials or len(photometry) != config.n_materials:
        raise ValueError(
            f"expected {config.n_materials} albedos and photometric parameter sets, "
            f"got {len(albedos)} and {len(photometry)}"
        )
    axis = albedos[0].axis
    for albedo in albedos[1:]:
        if not np.array_equal(albedo.axis.values, axis.values):
            raise ValueError(f"albedo {albedo.material!r} uses a different wavelength axis")

    abundances = sample_abundances(config)
    geometries = sample_geometries(config)
    endmembers = reference_endmembers(albedos, photometry, config.model, config.reference)

    # the materials as columns, and each pixel's geometry on a leading axis: the layout of the variant blocks
    omega = np.column_stack([albedo.omega for albedo in albedos])
    mu, mu0, g = (angle[:, None, None] for angle in (geometries.mu, geometries.mu0, geometries.g))
    lobes = _lobes(config.model, mu, mu0, g, photometry)  # checks every pixel's geometry before any block
    n_pixels, block = config.n_pixels, max(1, _BLOCK_FLOATS // (len(axis) * (2 * config.n_materials + 1)))
    buffers = [np.empty((min(block, n_pixels), *omega.shape)) for _ in range(2)]
    values = np.empty((len(axis), n_pixels), order="F")  # pixel-major, the layout HyperCube keeps
    # pixel n's spectrum, a contiguous row of values.T, is written as the (bands, 1) product S_n @ a_n
    spectra, columns = values.T[:, :, None], abundances.T[:, :, None]
    for start in range(0, n_pixels, block):
        px = slice(start, min(start + block, n_pixels))
        # pixel n's S_n, C-contiguous like a column-stacked matrix, is the prefix buffers' row n - start
        first, second = (buffer[:px.stop - start] for buffer in buffers)
        variants = _evaluate(config.model, omega, mu[px], mu0[px], None if lobes is None else lobes[px], first, second)
        np.matmul(variants, columns[px], out=spectra[px])
    scales: FloatArray | None = None
    if config.model == "linear":
        pixel_psi = scaling_factor(config.reference, geometries)
        scales = np.repeat(pixel_psi[None, :], config.n_materials, axis=0).view(_Unshared)

    cube = HyperCube(
        values=values.view(_Unshared),
        axis=axis,
        geometries=geometries,
        ground_truth=GroundTruth(abundances=abundances.view(_Unshared), scales=scales, endmembers=endmembers),
    )
    if config.snr_db is not None:
        cube = inject_noise(cube, config.snr_db, config.seed)
    return cube


def inject_noise(cube: HyperCube, snr_db: float, seed: int) -> HyperCube:
    """Add white Gaussian noise scaled to the target SNR in decibels.

    Noise is i.i.d. across bands and pixels, drawn from the (seed, noise)
    stream in one pixel-major call: a pixel's standard normal draws do not
    depend on the pixel count (sigma does, through the signal power).
    An infinite snr_db disables noise and returns the cube unchanged.  The
    realized SNR concentrates around the target as the cube grows (within
    +/-0.5 dB from roughly 10^4 samples on).
    """
    if not snr_db > 0.0:
        raise ValueError(f"snr_db must be > 0, got {snr_db}")
    if math.isinf(snr_db):
        return cube
    # np.mean sums in memory order: the squares are laid out band-major, the order that fixes sigma's bits
    signal_power = float(np.mean(np.square(cube.values, order="C")))
    sigma = math.sqrt(signal_power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng([int(seed), _NOISE_STREAM])
    # the pixel-major draws, transposed, have the cube's pixel-major layout: the cube is added into them
    noisy = rng.normal(0.0, sigma, (cube.n_pixels, cube.n_bands)).T
    noisy += cube.values
    return HyperCube(
        values=noisy.view(_Unshared),
        axis=cube.axis,
        geometries=cube.geometries,
        ground_truth=cube.ground_truth,
    )
