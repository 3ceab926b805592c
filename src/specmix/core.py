"""Shared domain types: wavelength grids, albedo spectra, photometry,
acquisition geometry, endmember matrices, image cubes and unmixing results.

All types are immutable after construction (arrays are stored read-only), so
instances can be shared freely across threads.  Angles are degrees at every
public boundary and converted to radians only inside the trigonometric
helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

#: Absolute slack allowed on abundance column sums when sum-to-one is enforced.
SUM_TO_ONE_TOL = 1e-9
#: Pixels per block of the band-major to pixel-major copy in pixel_major.
_COPY_BLOCK_PIXELS = 256
#: Smallest normal float64: a sum of squares below it has lost digits to underflow.
_TINY = np.finfo(np.float64).tiny


def _readonly(values, dtype=np.float64, ndim: int | None = None, name: str = "array") -> np.ndarray:
    """values as a read-only array of dtype that no one else can write.

    An array over an immutable bytes object (_views_bytes), such as a file
    read by io.read_cube, is kept as is when it already has dtype; anything
    else is copied, so the result never shares memory a caller can change.
    """
    arr = np.asarray(values, dtype=dtype) if _views_bytes(values) else np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def pixel_major(values, copy: bool = True) -> FloatArray:
    """values as a float64 (bands, pixels) matrix stored pixel-major (Fortran order).

    A pixel-major float64 input is returned as is unless copy is set.  Any
    other input is copied exactly, once, a block of pixels at a time through
    a staging block whose rows are padded by one cache line: a plain strided
    transpose is several times slower at a power-of-two pixel count (a
    64 x 64 tile), where every band's row maps to the same cache sets.
    """
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"cube values must be 2-D, got shape {arr.shape}")
    if arr.flags.f_contiguous:
        return np.array(arr, dtype=np.float64, order="F") if copy else arr.astype(np.float64, copy=False)
    n_bands, n_pixels = arr.shape
    out = np.empty(arr.shape, order="F")
    staging = np.empty((n_bands, min(n_pixels, _COPY_BLOCK_PIXELS) + 8))
    for start in range(0, n_pixels, _COPY_BLOCK_PIXELS):
        px = slice(start, min(start + _COPY_BLOCK_PIXELS, n_pixels))
        block = staging[:, : px.stop - px.start]
        block[...] = arr[:, px]
        out[:, px] = block
    return out


def sum_of_squares(rows) -> tuple[FloatArray, FloatArray | float]:
    """Sum of squares of each row (the last axis) as (s, scale): the row's sum is scale**2 * s.

    s is one BLAS dot per row, np.matmul(r[..., None, :], r[..., :, None])
    on rows of contiguous entries (a row of strided entries is copied first),
    the bits of np.vecdot on any numpy from 1.23 on: a row's value does not
    depend on the rows stacked with it, its offset in memory or the stride
    of the view it came from.  Each row keeps scale 1 except one whose s is
    0, subnormal or infinite while its largest |value| is finite and
    nonzero: that row is summed again divided by that value, which becomes
    its scale, so its s lies in [1, L] and no square under- or overflows.
    An all-zero row keeps s = 0.  scale is the float 1.0 when every row has
    scale 1 (the common case, free to multiply by), else an array like s.
    """
    r = np.asarray(rows, dtype=np.float64)
    if r.strides[-1] != r.itemsize:
        r = np.ascontiguousarray(r)
    s = np.matmul(r[..., None, :], r[..., :, None])[..., 0, 0]
    if not s.size or (_TINY <= s.min() and s.max() < np.inf):  # a NaN row fails this test too, and is kept as it is
        return s, 1.0
    scale = np.ones(s.shape)
    flat, s_rows, scale_rows = r.reshape(-1, r.shape[-1]), s.reshape(-1), scale.reshape(-1)  # s and scale by view
    lost = np.flatnonzero((s_rows < _TINY) | (s_rows == np.inf))
    peak = np.max(np.abs(flat[lost]), axis=1, initial=0.0)
    keep = (peak > 0.0) & (peak < np.inf)
    lost, peak = lost[keep], peak[keep]
    scaled = flat[lost] / peak[:, None]
    s_rows[lost], scale_rows[lost] = np.matmul(scaled[:, None, :], scaled[:, :, None])[:, 0, 0], peak
    return s, scale


def root_mean_square(s, scale, n: int) -> FloatArray:
    """Root mean square of rows of n entries from their sum_of_squares (s, scale): finite for any finite row."""
    return scale * np.sqrt(s / n)


class _Unshared(np.ndarray):
    """View type of a new array that its maker hands to one HyperCube, keeping no reference: kept, not copied."""


def _views_bytes(values) -> bool:
    """Whether values is an array whose chain of bases ends in an immutable bytes object."""
    base = values
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


def _json_type(value: Any) -> str:
    """value described by its JSON type, and a list by its length: a refusal never echoes a value that can be long."""
    if isinstance(value, (list, tuple)):
        return f"a JSON array of {len(value)} entries"
    types = {bool: "boolean", int: "number", float: "number", str: "string", dict: "object"}
    return f"a JSON {types.get(type(value), 'null')}"


def json_name(value: Any) -> str:
    """A refused name as a message shows it: a string of at most 40 characters by its repr, else by _json_type."""
    return repr(value) if isinstance(value, str) and len(value) <= 40 else _json_type(value)


def check_config_keys(raw: Any, known: Iterable[str], what: str) -> dict[str, Any]:
    """Return raw if it is a dict holding only known keys; else name what is wrong."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {_json_type(raw)}")
    known = list(known)
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}; expected {', '.join(known)}")
    return raw


def require_config_keys(raw: Any, keys: Sequence[str], where: str) -> dict[str, Any]:
    """Return raw if it is a dict holding every key; else refused by where and the missing keys."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {_json_type(raw)}")
    missing = [key for key in keys if key not in raw]
    if missing:
        raise ValueError(f"{where}: missing keys {', '.join(missing)}; expected keys {', '.join(keys)}")
    return raw


def config_value(value: Any, where: str, kind: str = "number") -> Any:
    """A config value read as a JSON value of kind; else refused by its key path where.

    "number": an int or float, not a bool, as a float (an integer beyond
    float range as infinity, as json reads the literal 1e400); "count": a
    whole number >= 0, as an int; "flag": true or false; "pair" and
    "numbers": a list of two numbers or of any count, as a tuple of floats;
    "name": a non-empty string, such as a file name.  A value of the wrong
    JSON type is refused by that type (_json_type), not echoed: a per-pixel
    list can be long.
    """
    if kind == "name":
        if isinstance(value, str) and value:
            return value
        got = "an empty string" if value == "" else _json_type(value)
        raise ValueError(f"{where} must be a non-empty file name, got {got}")
    if kind == "flag":
        if not isinstance(value, bool):
            raise ValueError(f"{where} must be true or false, got {_json_type(value)}")
        return value
    if kind in ("pair", "numbers"):
        if not isinstance(value, (list, tuple)) or (kind == "pair" and len(value) != 2):
            count = "two " if kind == "pair" else ""
            raise ValueError(f"{where} must be a list of {count}numbers, got {_json_type(value)}")
        return tuple(config_value(item, f"{where}[{i}]") for i, item in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {_json_type(value)}")
    if kind == "count":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{where} must be a whole number, got {value!r}")
        if value < 0:
            raise ValueError(f"{where} must be >= 0, got {int(value)}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def cos_deg(angle_deg):
    """Cosine of an angle given in degrees.

    Evaluated as sin(90 - x) so that the endpoints are exact: cos_deg(90.0)
    is 0.0 and cos_deg(0.0) is 1.0, which grazing-geometry identities rely on.
    """
    return np.sin(np.radians(90.0 - np.asarray(angle_deg, dtype=float)))


def sin_deg(angle_deg):
    """Sine of an angle given in degrees (exact at 0)."""
    return np.sin(np.radians(np.asarray(angle_deg, dtype=float)))


def phase_angle_deg(theta0, theta, phi):
    """Phase angle from incidence, emergence and azimuth angles (degrees).

    Spherical law of cosines,
    cos g = cos(theta0) cos(theta) + sin(theta0) sin(theta) cos(phi),
    evaluated in its half-angle (haversine) rearrangement: the arccosine
    form loses eight digits near g = 0, where the opposition surge makes
    the phase angle matter most.  Always lands in [0, 180].  Broadcasts
    over its arguments; squares are np.square, so a scalar and an array
    element of the same angles give the same bits.
    """
    half_chord_sq = np.square(sin_deg((theta0 - theta) / 2.0)) + sin_deg(theta0) * sin_deg(theta) * np.square(
        sin_deg(phi / 2.0)
    )
    half_chord = np.sqrt(np.clip(half_chord_sq, 0.0, 1.0))
    return 2.0 * np.degrees(np.arcsin(half_chord))


#: Each acquisition angle's name and upper bound in degrees (all start at 0);
#: the names are the keys of Geometry's config form.
_ANGLE_LIMITS = {"theta0": 90.0, "theta": 90.0, "phi": 180.0}


@dataclass(frozen=True)
class WavelengthAxis:
    """Strictly increasing wavelength grid in micrometers."""

    values: FloatArray

    def __post_init__(self) -> None:
        arr = _readonly(self.values, ndim=1, name="wavelengths")
        if arr.size < 1:
            raise ValueError("wavelength axis must contain at least one band")
        if not np.all(np.isfinite(arr)):
            raise ValueError("wavelengths must be finite")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("wavelengths must be strictly increasing")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class AlbedoSpectrum:
    """Per-wavelength single-scattering albedo of one material.

    Albedo is intrinsic to the material (independent of geometry and
    photometry); values must lie in [0, 1].  Out-of-range values are an
    error, never clamped: silent clamping hides bad input data.
    """

    material: str
    omega: FloatArray
    axis: WavelengthAxis

    def __post_init__(self) -> None:
        arr = _readonly(self.omega, ndim=1, name="omega")
        if arr.size != len(self.axis):
            raise ValueError(
                f"albedo length {arr.size} does not match wavelength axis length {len(self.axis)}"
            )
        in_range = (arr >= 0.0) & (arr <= 1.0)  # False at NaN too
        if not in_range.all():
            bad = int(np.argmin(in_range))
            raise ValueError(
                f"albedo of {self.material!r} outside [0, 1] at band {bad} (value={arr[bad]})"
            )
        object.__setattr__(self, "omega", arr)

    def __len__(self) -> int:
        return int(self.omega.size)


@dataclass(frozen=True)
class PhotometricParams:
    """Scattering and opposition-effect parameters of one material.

    b: asymmetry of the scattering lobes, in [0, 1] (1 = narrow/specular).
    c: backward-scattering fraction, in [0, 1] (0.5 with b=0 is Lambertian).
    B0: opposition-surge strength, non-negative.
    h: angular width of the opposition surge, strictly positive.
    """

    b: float
    c: float
    B0: float
    h: float

    def __post_init__(self) -> None:
        for name in ("b", "c", "B0", "h"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"photometric parameter {name} must be finite")
            object.__setattr__(self, name, float(value))
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"asymmetry b must be in [0, 1], got {self.b}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"backscatter fraction c must be in [0, 1], got {self.c}")
        if self.B0 < 0.0:
            raise ValueError(f"opposition strength B0 must be >= 0, got {self.B0}")
        if self.h <= 0.0:
            raise ValueError(f"opposition width h must be > 0, got {self.h}")


@dataclass(frozen=True)
class Geometry:
    """Acquisition angles of one pixel (floats) or N pixels (read-only (N,) arrays), in degrees.

    theta0 is the incidence (sun zenith) angle, theta the emergence (sensor)
    angle, phi the azimuth between the projected sun and sensor directions.
    The cosines mu0 and mu and the phase angle g are derived once, by the
    same formulas for both forms, so pixel n equals Geometry(theta0[n],
    theta[n], phi[n]) bit for bit.  theta0 = 90 (raking light) is valid and
    gives mu0 exactly 0.
    """

    theta0: float | FloatArray
    theta: float | FloatArray
    phi: float | FloatArray = 0.0
    mu0: float | FloatArray = field(init=False)
    mu: float | FloatArray = field(init=False)
    g: float | FloatArray = field(init=False)

    def __post_init__(self) -> None:
        one_pixel = all(np.ndim(getattr(self, name)) == 0 for name in _ANGLE_LIMITS)
        angles = [_readonly(getattr(self, name), ndim=0 if one_pixel else 1, name=name) for name in _ANGLE_LIMITS]
        for (name, hi), arr in zip(_ANGLE_LIMITS.items(), angles):
            in_range = (arr >= 0.0) & (arr <= hi)  # False at NaN too
            if not in_range.all():
                pixel = int(np.argmin(in_range))
                got = float(arr) if one_pixel else f"{arr[pixel]} at pixel {pixel}"
                raise ValueError(f"{name} must be in [0, {hi:g}] degrees, got {got}")
        theta0, theta, phi = angles
        if not theta0.size == theta.size == phi.size:
            raise ValueError(f"theta0, theta and phi lengths differ: {theta0.size}, {theta.size}, {phi.size}")
        derived = (cos_deg(theta0), cos_deg(theta), phase_angle_deg(theta0, theta, phi))
        for name, value in zip(("theta0", "theta", "phi", "mu0", "mu", "g"), (*angles, *derived)):
            if not one_pixel:
                value.setflags(write=False)
            object.__setattr__(self, name, float(value) if one_pixel else value)

    def __len__(self) -> int:
        """Pixel count: 1 for scalar angles."""
        return int(np.size(self.theta0))

    def to_dict(self) -> dict[str, float]:
        """One pixel's config form {"theta0": ..., "theta": ..., "phi": ...}, in degrees."""
        return {name: getattr(self, name) for name in _ANGLE_LIMITS}

    @classmethod
    def from_dict(cls, raw: Any, where: str = "") -> "Geometry":
        """Inverse of to_dict, an absent angle read as 0.

        An unknown key, or a value of the wrong JSON type, is refused by its
        key path: "<where>.<key>", or the bare key when where is empty.
        """
        check_config_keys(raw, _ANGLE_LIMITS, where)
        prefix = f"{where}." if where else ""
        return cls(**{name: config_value(raw.get(name, 0.0), prefix + name) for name in _ANGLE_LIMITS})


@dataclass(frozen=True)
class EndmemberMatrix:
    """Reference reflectance spectra of the pure materials, one per column."""

    values: FloatArray  # bands x materials
    materials: tuple[str, ...]

    def __post_init__(self) -> None:
        arr = _readonly(self.values, ndim=2, name="endmember matrix")
        if arr.shape[1] != len(self.materials):
            raise ValueError(
                f"{len(self.materials)} material labels for {arr.shape[1]} columns"
            )
        materials = tuple(str(m) for m in self.materials)
        for what, bad in (("is not finite", ~np.isfinite(arr)), ("is negative", arr < 0.0)):  # NaN is not negative
            if bad.any():
                band, k = np.unravel_index(int(np.argmax(bad)), arr.shape)
                raise ValueError(f"endmember {materials[k]!r} {what} at band {band} (value={arr[band, k]})")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "materials", materials)

    @property
    def n_bands(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_materials(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class GroundTruth:
    """Generative parameters stored with a simulated cube.

    scales is None when the generating model admits no exact per-pixel
    scaling factor (anything but the linear model), else of abundances' shape.
    endmembers, when given, holds one column per abundance row; HyperCube
    checks its band count.
    """

    abundances: FloatArray  # materials x pixels
    scales: FloatArray | None = None
    endmembers: EndmemberMatrix | None = None

    def __post_init__(self) -> None:
        A = _readonly(self.abundances, ndim=2, name="abundances")
        object.__setattr__(self, "abundances", A)
        if self.scales is not None:
            psi = _readonly(self.scales, ndim=2, name="scales")
            if psi.shape != A.shape:
                raise ValueError(f"ground-truth scales shape {psi.shape} does not match abundances {A.shape}")
            object.__setattr__(self, "scales", psi)
        if self.endmembers is not None and self.endmembers.n_materials != A.shape[0]:
            raise ValueError(f"ground-truth endmembers have {self.endmembers.n_materials} materials, "
                             f"abundances have {A.shape[0]}")


@dataclass(frozen=True)
class HyperCube:
    """Reflectance image: bands x pixels matrix plus its wavelength axis.

    values is always stored pixel-major (Fortran order), so each pixel's
    spectrum is contiguous, as in the .bin file and the solver's rows; any
    other input layout or dtype is converted once, here, by pixel_major.
    A pixel-major float64 array over an immutable bytes object is kept as is,
    and so is one handed over as an _Unshared view (simulate's new cubes);
    any other array is copied, by _readonly's rule.
    geometries, when known, holds every pixel's acquisition angles as one
    Geometry of (N,) arrays (pixel n at index n).  Construction refuses a
    wavelength axis, geometry count, ground-truth column count or
    ground-truth endmember band count that does not match the bands or
    pixels; the values themselves (finite, non-negative) are checked by
    validate_cube, so a cube file holding bad values can still be loaded
    and diagnosed.
    """

    values: FloatArray  # bands x pixels
    axis: WavelengthAxis
    geometries: Geometry | None = None
    ground_truth: GroundTruth | None = None

    def __post_init__(self) -> None:
        arr = pixel_major(self.values, copy=not (_views_bytes(self.values) or type(self.values) is _Unshared))
        n_bands, n_pixels = arr.shape
        if n_bands != len(self.axis):
            raise ValueError(f"band count {n_bands} does not match wavelength axis length {len(self.axis)}")
        if self.geometries is not None and len(self.geometries) != n_pixels:
            raise ValueError(f"geometry count {len(self.geometries)} does not match pixel count {n_pixels}")
        gt = self.ground_truth
        if gt is not None and gt.abundances.shape[1] != n_pixels:
            raise ValueError(f"ground-truth abundances have {gt.abundances.shape[1]} pixels, cube has {n_pixels}")
        if gt is not None and gt.endmembers is not None and gt.endmembers.n_bands != n_bands:
            raise ValueError(f"ground-truth endmembers have {gt.endmembers.n_bands} bands, cube has {n_bands}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_bands(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_pixels(self) -> int:
        return int(self.values.shape[1])


def validate_cube(cube: HyperCube, noisy: bool = False) -> list[str]:
    """Check a cube's reflectance values and return human-readable violations.

    The first non-finite value, else the first negative one, is reported by
    band and pixel; HyperCube itself refuses a mismatched axis, geometry or
    ground truth.  A noisy cube (additive noise, such as a simulated scene
    at finite SNR) can hold negative values, so only non-finite ones are
    violations there.
    """
    violations: list[str] = []
    X = cube.values
    if not np.all(np.isfinite(X)):
        band, pixel = np.unravel_index(int(np.argmax(~np.isfinite(X))), X.shape)
        violations.append(f"non-finite reflectance at band {band}, pixel {pixel}")
    elif not noisy and np.any(X < 0.0):
        band, pixel = np.unravel_index(int(np.argmax(X < 0.0)), X.shape)
        violations.append(
            f"negative reflectance at band {band}, pixel {pixel} (value={X[band, pixel]})"
        )
    return violations


@dataclass(frozen=True)
class UnmixResult:
    """Abundances, scaling factors and diagnostics of one unmixing run.

    degenerate flags, under every model, the pixels whose non-negative fit
    is 0: no component in the endmember cone.  Abundances, scales and
    residuals must be finite; a refusal names the field and its first pixel.
    """

    abundances: FloatArray  # materials x pixels
    scales: FloatArray  # materials x pixels
    residual_rmse: FloatArray  # per pixel
    degenerate: NDArray[np.bool_]  # per pixel
    sum_to_one: bool = True

    def __post_init__(self) -> None:
        A = _readonly(self.abundances, ndim=2, name="abundances")
        psi = _readonly(self.scales, ndim=2, name="scales")
        if psi.shape != A.shape:
            raise ValueError(f"scales shape {psi.shape} does not match abundances {A.shape}")
        rmse = _readonly(self.residual_rmse, ndim=1, name="residual_rmse")
        # NaN passes every comparison below, so non-finite values are refused first
        for name, values in (("abundances", A), ("scales", psi), ("residual_rmse", rmse)):
            bad = np.atleast_2d(~np.isfinite(values)).any(axis=0)
            if bad.any():
                raise ValueError(f"{name} must be finite; pixel {int(np.argmax(bad))} is not")
        if np.any(A < 0.0):
            raise ValueError("abundances must be non-negative")
        if self.sum_to_one:
            sums = A.sum(axis=0)
            worst = float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0
            if worst > SUM_TO_ONE_TOL:
                raise ValueError(f"abundance columns must sum to 1 (worst deviation {worst:.3e})")
        if np.any(psi <= 0.0):
            raise ValueError("scaling factors must be strictly positive")
        object.__setattr__(self, "abundances", A)
        object.__setattr__(self, "scales", psi)
        object.__setattr__(self, "residual_rmse", rmse)
        object.__setattr__(self, "degenerate", _readonly(self.degenerate, dtype=bool, ndim=1, name="degenerate"))

    @property
    def n_pixels(self) -> int:
        return int(self.abundances.shape[1])

    @property
    def n_materials(self) -> int:
        return int(self.abundances.shape[0])
