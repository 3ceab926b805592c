"""Closed-form bidirectional reflectance models.

The chain runs from the full photometric model down to its Lambertian
reduction, the relative (albedo-normalized) form, the first-order linear
form, and the geometry scaling factor that links linear-model variants of
one endmember.  Every closed form and the choice between them live in one
kernel, reflectance(), whose arguments combine by numpy broadcasting: the
caller picks the layout, so one call evaluates a spectrum, an albedo
curve, a grid of angle cells or a whole block of pixels.  A block of pixels
of several materials is one call: the albedos as the columns of omega, the
geometry on a leading pixel axis and, for the full model, one photometric
parameter set per column, whose (1 + B(g)) P(g) is stacked on the last
axis.  The kernel trusts its albedos and cosines; they are validated once,
where they enter the program (AlbedoSpectrum, Geometry).  It writes every
full-size intermediate into one of two buffers per call (out=), with the
formulas' operations in their order, so a block of pixels costs two
allocations, not one per operation, and the same bits.  reflectance() is
the checks (_lobes) and those two buffers around the arithmetic
(_evaluate); a caller that evaluates many blocks of one layout, such as
simulate.simulate_cube, checks all of them once and passes the same two
buffers to every block, so it allocates nothing per block.
The three reduced forms share one split, shape / Q: the shape
omega / (A(omega, mu) A(omega, mu0)) carries the albedo (angle_divisor), the
factor Q(mu, mu0) the geometry alone (cell_factor).  Every model is
reciprocal bit for bit: swapping mu and mu0 only swaps the operands of
sums and products, which round the same either way.
All arithmetic is in 64-bit floats; all angles are degrees.

Pure functions of immutable inputs: safe to call concurrently.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .core import AlbedoSpectrum, FloatArray, Geometry, PhotometricParams

#: Valid model selectors, ordered from the full model to its simplest form.
MODELS = ("full", "lambertian", "relative", "linear")


class ModelDomainError(ValueError):
    """Inputs fall outside the mathematical domain of a reflectance model."""


def _check_omega(omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    bad = ~((w >= 0.0) & (w <= 1.0))
    if np.any(bad):
        raise ValueError(f"albedo must be finite and in [0, 1], got {w[bad].flat[0]}")
    return w


def _check_mu(mu, name: str) -> np.ndarray:
    m = np.asarray(mu, dtype=float)
    bad = ~((m >= 0.0) & (m <= 1.0))
    if np.any(bad):
        raise ValueError(f"{name} must be a cosine in [0, 1], got {m[bad].flat[0]}")
    return m


def phase_function(g, params: PhotometricParams):
    """Angular single-scattering distribution P(g), two-lobed form.

    P(g) = c (1-b)^2 / (1 - 2b cos g + b^2)^(3/2)
         + (1-c) (1-b)^2 / (1 + 2b cos g + b^2)^(3/2)

    g is the phase angle in degrees.  With b = 0 both lobes collapse and
    P = 1 for any c (isotropic scattering).
    """
    cos_g = np.cos(np.radians(np.asarray(g, dtype=float)))
    b, c = params.b, params.c
    back = 1.0 - 2.0 * b * cos_g + b * b
    fore = 1.0 + 2.0 * b * cos_g + b * b
    if np.any(back <= 0.0) or np.any(fore <= 0.0):
        raise ModelDomainError(
            "phase function singular: b = 1 with cos g = +/-1 makes a lobe denominator vanish"
        )
    lobe = (1.0 - b) ** 2
    return c * lobe / back**1.5 + (1.0 - c) * lobe / fore**1.5


def opposition_effect(g, params: PhotometricParams):
    """Opposition surge B(g) = B0 / (1 + tan(g/2) / h).

    Brightening when the source sits behind the sensor (small g);
    non-negative and decreasing in g.  Requires 0 <= g < 180 degrees: the
    half-angle tangent diverges at g = 180.
    """
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr < 0.0) or np.any(g_arr >= 180.0):
        raise ModelDomainError("opposition effect requires phase angle in [0, 180) degrees")
    return params.B0 / (1.0 + np.tan(np.radians(g_arr) / 2.0) / params.h)


def _h(mu, root, out=None):
    return np.divide(1.0 + 2.0 * mu, _chandrasekhar_divisor(mu, root, out), out=out)


def _chandrasekhar_divisor(mu, root, out=None):
    return np.add(1.0, np.multiply(2.0 * mu, root, out=out), out=out)


def _buffers(*operands) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Two arrays of the operands' broadcast shape, or no buffers (fresh scalars) when that shape is ().

    A smaller intermediate written into one is broadcast to its shape: the same values, where the next
    operation would broadcast it anyway.
    """
    shape = np.broadcast(*operands).shape
    return (np.empty(shape), np.empty(shape)) if shape else (None, None)


def _linear_gain(mu, mu0):
    return (1.0 + 2.0 * mu) * (1.0 + 2.0 * mu0)


def defined_at(model: str, mu, mu0) -> np.ndarray:
    """Mask of the geometries (mu, mu0 broadcast) where the model is defined.

    The full and Lambertian models divide by mu + mu0 and are singular at
    the doubly grazing geometry; the relative and linear forms are defined
    for every geometry.
    """
    mu_sum = np.add(mu, mu0)
    if model in ("full", "lambertian"):
        return mu_sum > 0.0
    return np.ones(np.shape(mu_sum), dtype=bool)


def reflectance(model: str, omega, mu, mu0, g=None,
                params: PhotometricParams | Sequence[PhotometricParams | None] | None = None):
    """Bidirectional reflectance of the selected model, broadcast over its inputs.

    omega is the single-scattering albedo, mu and mu0 the cosines of the
    emergence and incidence angles, g the phase angle in degrees; g and
    params are used, and required, by the full model only.  params is one
    set for every albedo, or a sequence of one set per column (the last
    axis) of omega; g then has a last axis of length 1, or is a scalar.
    For N pixels of L bands, omega of shape (L,) with (N, 1) geometry
    columns gives an (N, L) block, and P materials as the columns of an
    (L, P) omega with (N, 1, 1) geometry give the (N, L, P) block of the
    pixels' endmember matrices.  From the full model to its simplest form:

    full        omega / (4 (mu + mu0)) ((1 + B(g)) P(g) + H(omega, mu) H(omega, mu0) - 1)
    lambertian  omega / ((1 + 2 mu sqrt(1-omega)) (1 + 2 mu0 sqrt(1-omega))) /
                (4 (mu + mu0) / ((1 + 2 mu)(1 + 2 mu0)))
    relative    omega / ((1 + 2 mu sqrt(1-omega)) (1 + 2 mu0 sqrt(1-omega)))
    linear      omega / ((1 + 2 mu)(1 + 2 mu0))
    (the last three evaluated, with these roundings, as shape / cell_factor; relative as shape)

    The full model is taken in its smooth-surface regime (no shadowing
    term, unmodified angles); with isotropic scattering and no surge it
    reduces to the Lambertian one.  The relative form is the Lambertian one
    normalized by its omega = 1 value and equals the albedo at mu = mu0 = 0;
    the linear form is its first-order expansion around omega = 0: its
    denominator is >= 1 and its coefficient does not depend on wavelength.

    Albedos and cosines in [0, 1] are the caller's guarantee and are not
    checked.  Raises ValueError for an unknown model or a full model without
    g and params, and ModelDomainError, judged on the geometry alone, where
    the model is undefined (defined_at, phase_function, opposition_effect).
    """
    lobes = _lobes(model, mu, mu0, g, params)
    if model == "linear":  # its one operation writes a fresh result
        return _evaluate(model, omega, mu, mu0, None, None, None)
    operands = (omega, mu, mu0) if lobes is None else (omega, mu, mu0, lobes)
    return _evaluate(model, omega, mu, mu0, lobes, *_buffers(*operands))


def _lobes(model: str, mu, mu0, g, params):
    """reflectance's checks on the model and the geometry, and the full model's (1 + B(g)) P(g) (else None).

    One column's params give it in g's shape; params per column stack it on the last axis.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    per_column = isinstance(params, (list, tuple))
    columns = params if per_column else [params]
    if model == "full" and (g is None or any(p is None for p in columns)):
        raise ValueError("full model requires photometric parameters and a phase angle")
    if not np.all(defined_at(model, mu, mu0)):
        raise ModelDomainError(
            f"{model} reflectance requires mu + mu0 > 0; "
            "theta0 = theta = 90 degrees (doubly grazing) is singular"
        )
    if model != "full":
        return None
    lobes = [(1.0 + opposition_effect(g, p)) * phase_function(g, p) for p in columns]
    return np.concatenate([np.atleast_1d(lobe) for lobe in lobes], axis=-1) if per_column else lobes[0]


def _evaluate(model: str, omega, mu, mu0, lobes, first, second):
    """reflectance of checked inputs (lobes from _lobes), written into the buffers and returned in first.

    The buffers have the broadcast shape of omega, mu, mu0 and lobes (the linear model uses first alone), or
    are None for a fresh result.  A caller that evaluates many blocks of one layout passes the same buffers,
    or prefixes of them, to every block.
    """
    if model == "linear":  # omega / (1 * 1): the linear divisors are 1
        q = cell_factor(model, mu, mu0)
        return omega / q if first is None else np.divide(omega, q, out=first)
    root = np.sqrt(1.0 - omega)
    if model != "full":
        divisors = np.multiply(_chandrasekhar_divisor(mu, root, first), _chandrasekhar_divisor(mu0, root, second),
                               out=first)
        shape = np.divide(omega, divisors, out=first)
        return shape if model == "relative" else np.divide(shape, cell_factor(model, mu, mu0), out=first)
    # the bracket (1 + B) P + H(mu) H(mu0) - 1 in first, then omega / (4 (mu + mu0)) in second times it
    h = np.multiply(_h(mu, root, first), _h(mu0, root, second), out=first)
    bracket = np.subtract(np.add(lobes, h, out=first), 1.0, out=first)
    return np.multiply(np.divide(omega, 4.0 * (mu + mu0), out=second), bracket, out=first)


def cell_factor(model: str, mu, mu0):
    """Wavelength-free Q of the split shape / Q, shape = omega / (A(omega, mu) A(omega, mu0)), A = angle_divisor.

    Lambertian Q = 4 (mu + mu0) / ((1 + 2 mu)(1 + 2 mu0)); relative Q = 1;
    linear Q = (1 + 2 mu)(1 + 2 mu0).  Symmetric in (mu, mu0) bit for bit.
    """
    if model not in MODELS[1:]:
        raise ValueError(f"the {model!r} model does not split per angle")
    if model == "linear":
        return _linear_gain(mu, mu0)
    if model == "relative":
        return 1.0
    return 4.0 * (mu + mu0) / _linear_gain(mu, mu0)


def angle_divisor(model: str, omega, mu):
    """A(omega, mu) of cell_factor's split: H's denominator 1 + 2 mu sqrt(1-omega), or 1 for linear."""
    if model not in MODELS[1:]:
        raise ValueError(f"the {model!r} model does not split per angle")
    return 1.0 if model == "linear" else _chandrasekhar_divisor(mu, np.sqrt(1.0 - omega))


def multiple_scattering(omega, mu):
    """Isotropic multiple-scattering approximation H(omega, mu).

    H = (1 + 2 mu) / (1 + 2 mu sqrt(1 - omega)); always >= 1 on the domain
    omega, mu in [0, 1].
    """
    w = _check_omega(omega)
    return _h(_check_mu(mu, "mu"), np.sqrt(1.0 - w))


def scaling_factor(local: Geometry, reference: Geometry) -> float | FloatArray:
    """Geometry ratio linking linear-model reflectances at two geometries.

    psi = (1 + 2 mu_l)(1 + 2 mu0_l) / ((1 + 2 mu_r)(1 + 2 mu0_r))

    Either side may hold one pixel or N pixels: the factor is a float for
    two one-pixel geometries and one value per pixel, an (N,) array,
    otherwise.
    Strictly positive, 1 when both geometries coincide, and transitive:
    scaling_factor(a, b) * scaling_factor(b, c) = scaling_factor(a, c).
    Note the orientation: because the linear model divides the albedo by
    this denominator, the factor that maps the reference endmember onto the
    local variant is scaling_factor(reference, local).
    """
    return _linear_gain(local.mu, local.mu0) / _linear_gain(reference.mu, reference.mu0)


def endmember_variant(
    albedo: AlbedoSpectrum,
    geom: Geometry,
    model: str,
    params: PhotometricParams | None = None,
) -> FloatArray:
    """Reflectance spectrum of one material at one geometry.

    The full model needs photometric parameters; the others ignore them.
    """
    return reflectance(model, albedo.omega, geom.mu, geom.mu0, geom.g, params)
