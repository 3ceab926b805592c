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
    multiple_scattering,
    opposition_effect,
    phase_function,
    reflectance,
    scaling_factor,
)
from .metrics import AlbedoCurve, SweepGrid, SweepResult, angle_sweep, angle_sweeps, rmse, spectral_angle
from .simulate import (
    AbundanceSampler,
    GeometrySampler,
    SceneConfig,
    inject_noise,
    sample_abundances,
    simulate_cube,
)
from .solver import SOLVER_MODELS, SolverConfig, fcls, unmix_cube

__version__ = "0.1.0"

__all__ = [
    "AlbedoCurve",
    "AlbedoSpectrum",
    "AbundanceSampler",
    "EndmemberMatrix",
    "Geometry",
    "GeometrySampler",
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
    "angle_sweep",
    "angle_sweeps",
    "endmember_variant",
    "fcls",
    "inject_noise",
    "multiple_scattering",
    "opposition_effect",
    "phase_function",
    "reflectance",
    "rmse",
    "sample_abundances",
    "scaling_factor",
    "simulate_cube",
    "spectral_angle",
    "unmix_cube",
    "validate_cube",
    "__version__",
]
