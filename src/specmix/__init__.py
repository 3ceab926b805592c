"""Bidirectional reflectance model chain, synthetic scene simulation, and
scaled-mixing (ELMM) unmixing for hyperspectral data at desk scale."""

from .core import (
    AlbedoSpectrum,
    EndmemberMatrix,
    Geometry,
    GroundTruth,
    HyperCube,
    PhotometricParams,
    UnmixResult,
    WavelengthAxis,
    validate_cube,
)
from .hapke import (
    MODELS,
    ModelDomainError,
    endmember_variant,
    full_reflectance,
    lambertian_reflectance,
    linear_reflectance,
    multiple_scattering,
    opposition_effect,
    phase_function,
    relative_reflectance,
    scaling_factor,
)
from .metrics import SweepGrid, SweepResult, albedo_curve, angle_sweep, rmse, spectral_angle
from .simulate import (
    AbundanceSampler,
    GeometrySampler,
    SceneConfig,
    inject_noise,
    sample_abundances,
    simulate_cube,
)
from .solver import (
    SOLVER_MODELS,
    GlobalScalingFit,
    SolverConfig,
    fcls,
    unmix_cube,
    unmix_elmm_global,
)

__version__ = "0.1.0"

__all__ = [
    "AlbedoSpectrum",
    "AbundanceSampler",
    "EndmemberMatrix",
    "Geometry",
    "GeometrySampler",
    "GlobalScalingFit",
    "GroundTruth",
    "HyperCube",
    "MODELS",
    "ModelDomainError",
    "PhotometricParams",
    "SceneConfig",
    "SolverConfig",
    "SOLVER_MODELS",
    "SweepGrid",
    "SweepResult",
    "UnmixResult",
    "WavelengthAxis",
    "albedo_curve",
    "angle_sweep",
    "endmember_variant",
    "fcls",
    "full_reflectance",
    "inject_noise",
    "lambertian_reflectance",
    "linear_reflectance",
    "multiple_scattering",
    "opposition_effect",
    "phase_function",
    "relative_reflectance",
    "rmse",
    "sample_abundances",
    "scaling_factor",
    "simulate_cube",
    "spectral_angle",
    "unmix_cube",
    "unmix_elmm_global",
    "validate_cube",
    "__version__",
]
