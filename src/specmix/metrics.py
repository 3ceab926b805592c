"""Spectral error metrics and angle/albedo sweep experiments.

The angle sweep compares a reference reflectance model against its
approximation over a grid of incidence/emergence angles and reports the
spectral angle and RMSE per grid cell.  Each model is split as shape / Q
(hapke.cell_factor): the shape omega / (A(omega, mu) A(omega, mu0)) from A
tabled per grid angle, Q tabled per cell.  The swept cells are one flat list
of (theta0, theta) index pairs, built once per call, and the list is swept
in steps of a fixed number of consecutive cells, which may start and end
mid-row.  In a step each cell is one row of bands: its divisors A(omega,
mu_j) and A(omega, mu0_i) are gathered from the tables per cell and
multiplied, the albedo is divided by them into the shapes, and the shapes
by the cells' Q into the reflectances.  The albedo is itself a block,
repeated once per cell of a step, as are its unit vectors (the linear
shape's): both are built once per albedo, so no operation of a step
broadcasts a row of bands.  Every other block of a step is in four work
buffers, allocated once per angle_sweeps call and shared by its albedos,
swept one at a time.  A step keeps two sums of squares per cell, both from
one call of core.sum_of_squares (one BLAS dot per cell): of the
reflectances' difference, and of the difference of the shapes' unit
vectors.  RMSE and SAM are formed from them over every swept cell after the
sweep, and placed on the grid.  RMSE is rmse of the reflectances, bit for
bit those of hapke.reflectance.  SAM is spectral_angle of the shapes, bit
for bit: the identity |u' + v'|^2 = 4 - |u' - v'|^2 of unit vectors u', v'
gives it up to 60 degrees, and a step with a wider cell also sums
|u' + v'|^2.  Free of Q, it is within 2 eps of the angle of the
reflectances, and exactly 0 between lambertian and relative.  A cell where
a model is undefined (the lambertian doubly grazing one) is computed with
Q = NaN and then set to NaN.

On a square grid (the same angles on both axes) the two A tables are one,
a product or sum of two of its entries is the same in either order, and so
shape[i, j] == shape[j, i] and Q[i, j] == Q[j, i] bit for bit: only the
cells j >= i are swept, and their SAM and RMSE, each a function of its
cell's sums alone, are mirrored to the others.  Any other grid sweeps every
cell.  No value depends on the steps or the mirror.  The mirror is bit for
bit, so io.write_sweep_csv formats each mirrored pair of cells once; it
checks the bits itself and assumes no mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .core import _ANGLE_LIMITS, AlbedoSpectrum, FloatArray, Geometry, PhotometricParams, _readonly, _Unshared, check_config_keys, config_value, cos_deg, json_name, root_mean_square, sum_of_squares
from .hapke import MODELS, _check_omega, angle_divisor, cell_factor, defined_at, reflectance

#: Models an angle sweep may pair: the ones fully determined by (mu, mu0).
SWEEP_MODELS = ("lambertian", "relative", "linear")
#: |u' - v'|^2 of two unit vectors up to which |u' + v'|^2 is taken as 4 - |u' - v'|^2 (angles up to 60
#: degrees).  Past it that difference loses digits (all of them at pi), and the rounding of |u'| and |v'|
#: costs the identity up to 1 eps more than summing |u' + v'|^2 directly, as spectral_angle then does.
_ACROSS_SQ_MAX = 1.0


@np.errstate(over="ignore")  # a sum of squares that overflows is summed again, scaled
def spectral_angle(u, v):
    """Angle in radians between two spectra (or stacks of spectra).

    arccos(<u, v> / (|u| |v|)) in [0, pi]; invariant to positive rescaling
    of either argument.  Reduction is over the last axis.  Evaluated from
    the unit vectors u' = u / |u| and v' = v / |v| as 2 atan2(|u' - v'|,
    |u' + v'|), which stays fully accurate near 0 and pi where the
    arccosine loses half its digits; identical spectra, or one a power-of-two
    multiple of the other, give exactly zero.  Up to 60 degrees
    (|u' - v'|^2 <= 1) |u' + v'|^2 is taken as 4 - |u' - v'|^2, the identity
    of two unit vectors; past it, where that difference loses digits, it is
    summed directly.  Every sum of squares is one dot per row
    (core.sum_of_squares), so spectra of any finite magnitude give the same
    angle.

    Raises ValueError on zero or empty spectra or mismatched lengths.
    """
    u_arr, v_arr = _spectra(u, v)
    shape = np.broadcast_shapes(u_arr.shape, v_arr.shape)
    u_rows, v_rows = (_unit(np.broadcast_to(a, shape).reshape(-1, shape[-1])) for a in (u_arr, v_arr))
    angle = _angle(sum_of_squares(u_rows - v_rows), sum_of_squares(u_rows + v_rows))
    return angle.reshape(shape[:-1])[()]


@np.errstate(over="ignore")  # a sum of squares that overflows is summed again, scaled
def rmse(u, v):
    """Root mean squared difference between two equal-length spectra.

    Reduction is over the last axis, so stacks of spectra broadcast.  Its
    sum of squares is core.sum_of_squares, which neither overflows nor
    underflows for finite spectra.  Raises ValueError on empty spectra or
    mismatched lengths.
    """
    u_arr, v_arr = _spectra(u, v)
    return root_mean_square(*sum_of_squares(np.subtract(u_arr, v_arr)), u_arr.shape[-1])


def _spectra(u, v) -> tuple[np.ndarray, np.ndarray]:
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if u_arr.shape[-1] != v_arr.shape[-1]:
        raise ValueError(f"spectra lengths differ: {u_arr.shape[-1]} vs {v_arr.shape[-1]}")
    if u_arr.shape[-1] == 0:
        raise ValueError("spectra are empty: there are no bands to compare")
    return u_arr, v_arr


def _unit(rows, out=None):
    """Each row of the 2-D rows divided by its norm, into out (which may be rows); a zero row is refused."""
    s, scale = sum_of_squares(rows)
    norm = np.sqrt(s)[:, None]
    if isinstance(scale, float):  # every row has its plain sum: none is zero
        return np.divide(rows, norm, out=out)
    if not s.all():
        raise ValueError("spectral angle undefined for a zero spectrum")
    # a rescaled row is divided by its scale first (into a new array, as out may be rows): subnormal entries
    # keep their digits; a row of scale 1 gets the bits of the plain division
    return np.divide(rows / scale[:, None], norm, out=out)


def _angle(across, plus):
    """Angle between unit rows u and v from the sum_of_squares (s, scale) of u - v and of u + v.

    plus is read only where |u - v|^2 > _ACROSS_SQ_MAX; elsewhere |u + v| is sqrt(4 - |u - v|^2).
    """
    s, scale = across
    across_sq = s * (scale * scale)
    along = np.where(across_sq > _ACROSS_SQ_MAX, plus[1] * np.sqrt(plus[0]), np.sqrt(np.maximum(4.0 - across_sq, 0.0)))
    return 2.0 * np.arctan2(scale * np.sqrt(s), along)


#: Most cells an angle sweep grid, or points an albedo curve, may have: room
#: for the whole 0.1-degree grid (901 x 901), 120 times the default one.
_MAX_SWEEP_CELLS = 10**6
#: Most angles on one sweep axis, a 0.01-degree axis: it bounds the axes
#: SweepGrid builds and echoes, through to_dict, into the run manifest.
_MAX_AXIS_ANGLES = 9001
#: Floats that one step of the sweep may take in its six (cells, bands) arrays, the four work buffers and the
#: albedo's two repeated blocks: 2 MB, one L2 cache.  A step sweeps F // (6 L) cells (at least one), 218 at
#: 200 bands.  On the two 181 x 181 sweeps of 200 bands (2 cores, numpy 2.4.6) 2^17 was 2% slower, and 2^19
#: and 2^20 12% and 27% slower.
_SWEEP_STEP_FLOATS = 2**18


def _sweep_keys(raw: Any, kind: str, keys: tuple[str, ...]) -> None:
    check_config_keys(raw, ("kind", *keys), f"{kind} sweep config")
    if raw.get("kind", kind) != kind:
        raise ValueError(f"a {kind} sweep config has kind {kind!r}, got {json_name(raw['kind'])}")


def _check_cells(n_theta0: int, n_theta: int) -> None:
    """Refuse a grid of more than _MAX_SWEEP_CELLS cells, by its axes' angle counts."""
    if n_theta0 * n_theta > _MAX_SWEEP_CELLS:
        raise ValueError(f"theta0_values ({n_theta0} angles) x theta_values ({n_theta} angles) make "
                         f"{n_theta0 * n_theta} sweep cells; at most {_MAX_SWEEP_CELLS} are allowed")


def _angle_axis(raw: dict[str, Any], key: str) -> tuple[int, Callable[[], np.ndarray]]:
    """One sweep axis as (angle count, builder of its angles), validated, with nothing built yet."""
    spec = raw.get(key, {})
    if isinstance(spec, dict):
        check_config_keys(spec, ("start", "stop", "step"), key)
        start, stop, step = (
            config_value(spec.get(name, default), f"{key}.{name}")
            for name, default in (("start", 0.0), ("stop", 90.0), ("step", 1.0))
        )
        for name, value in (("start", start), ("stop", stop)):
            if not 0.0 <= value <= 90.0:
                raise ValueError(f"{key}.{name} must be finite and in [0, 90] degrees, got {value:g}")
        if not 0.0 < step < np.inf:
            raise ValueError(f"{key}.step must be > 0 and finite, got {step:g}")
        if start > stop:
            raise ValueError(f"{key}.start {start:g} must not exceed {key}.stop {stop:g}")
        if start == stop:  # stop + step / 2 rounds back to stop for a step under about 2e-16 * stop
            return 1, partial(np.array, [start])
        stop += 0.5 * step
        count = (stop - start) / step
        if not math.isfinite(count):  # a step under about 5e-307 degrees: the count overflows
            raise ValueError(f"{key}.step {step:g} is too small: the range holds more angles than a float can count")
        return math.ceil(count), partial(np.arange, start, stop, step)
    values = np.array(config_value(spec, key, "numbers"))
    return values.size, partial(np.asarray, values)


@dataclass(frozen=True)
class SweepGrid:
    """Angle grid and model pair for one sweep experiment: at most 10^6 cells, each axis at most 9001 angles."""

    theta0_values: FloatArray = field(default_factory=partial(np.arange, 91.0))
    theta_values: FloatArray = field(default_factory=partial(np.arange, 91.0))
    model_pair: tuple[str, str] = ("relative", "linear")

    def __post_init__(self) -> None:
        for name in ("theta0_values", "theta_values"):
            arr = _readonly(getattr(self, name))
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D list of degrees")
            if arr.size > _MAX_AXIS_ANGLES:
                raise ValueError(f"{name} has {arr.size} angles; at most {_MAX_AXIS_ANGLES} are allowed")
            if not np.all((arr >= 0.0) & (arr <= 90.0)):
                raise ValueError(f"{name} must be finite and lie in [0, 90] degrees")
            object.__setattr__(self, name, arr)
        _check_cells(self.theta0_values.size, self.theta_values.size)
        pair = self.model_pair
        two = isinstance(pair, (list, tuple)) and len(pair) == 2
        if not (two and all(m in SWEEP_MODELS for m in pair)):
            got = f"({', '.join(map(json_name, pair))})" if two else json_name(pair)
            raise ValueError(f"model_pair {got} not supported; expected two of {SWEEP_MODELS}")
        object.__setattr__(self, "model_pair", (str(pair[0]), str(pair[1])))

    def to_dict(self) -> dict[str, Any]:
        axes = {name: getattr(self, name).tolist() for name in ("theta0_values", "theta_values")}
        return {"kind": "angle", "model_pair": list(self.model_pair), **axes}

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SweepGrid":
        """Inverse of to_dict; an unknown key is rejected by name.

        Keys: "kind" ("angle"); "model_pair" (two of SWEEP_MODELS, default
        ["relative", "linear"]); "theta0_values" and "theta_values", each a
        list of degrees in [0, 90] or a range {"start": 0, "stop": 90,
        "step": 1} (those defaults; start must not exceed stop, and stop is
        included when it lies on the step, so start == stop is that one
        angle), 0..90 in 1-degree steps when absent.  The grid may have at
        most 10^6 cells, which is checked before any axis is built, and
        each axis at most 9001 angles.
        """
        _sweep_keys(raw, "angle", ("model_pair", "theta0_values", "theta_values"))
        (n_theta0, theta0), (n_theta, theta) = (_angle_axis(raw, key) for key in ("theta0_values", "theta_values"))
        _check_cells(n_theta0, n_theta)
        pair = {"model_pair": raw["model_pair"]} if "model_pair" in raw else {}
        return cls(theta0_values=theta0(), theta_values=theta(), **pair)


@dataclass(frozen=True)
class AlbedoCurve:
    """One reflectance model sampled over a 1-D grid of albedos omega at one geometry."""

    model: str
    geometry: Geometry
    omega: FloatArray

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {json_name(self.model)}; expected one of {MODELS}")
        omega = _readonly(self.omega, ndim=1, name="omega")
        if omega.size == 0:
            raise ValueError("omega must hold at least one albedo")
        object.__setattr__(self, "omega", _check_omega(omega))

    def reflectance(self, params: PhotometricParams | None = None) -> FloatArray:
        """hapke.reflectance at each omega (the full model needs params); model-domain errors propagate."""
        geom = self.geometry
        return reflectance(self.model, self.omega, geom.mu, geom.mu0, geom.g, params)

    def to_dict(self) -> dict[str, Any]:
        """The config from_dict reads back: omega as a {"start", "stop", "num"} range when
        np.linspace rebuilds it bit for bit, else as the list of its values."""
        w = self.omega
        if np.array_equal(np.linspace(w[0], w[-1], w.size).view(np.int64), w.view(np.int64)):
            omega: Any = {"start": float(w[0]), "stop": float(w[-1]), "num": w.size}
        else:
            omega = w.tolist()
        return {"kind": "curve", "model": self.model, **self.geometry.to_dict(), "omega": omega}

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "AlbedoCurve":
        """Inverse of to_dict; an unknown key is rejected by name.

        Keys: "kind" ("curve"); "model" (one of hapke.MODELS, default
        "relative"); "theta0", "theta" and "phi" (degrees, default 0; phi
        matters for the full model only); "omega", a non-empty list of albedos
        in [0, 1] or a range {"start": 0, "stop": 1, "num": 101} (those
        defaults, both ends included), that range when absent.  num may be
        at most 10^6, which is checked before the grid is built.
        """
        _sweep_keys(raw, "curve", ("model", *_ANGLE_LIMITS, "omega"))
        geometry = Geometry.from_dict({key: raw[key] for key in _ANGLE_LIMITS if key in raw})
        omega = raw.get("omega", {})
        if isinstance(omega, dict):
            check_config_keys(omega, ("start", "stop", "num"), "omega")
            num = config_value(omega.get("num", 101), "omega.num")
            if not num >= 1:
                raise ValueError(f"omega.num must be >= 1, got {num}")
            if num > _MAX_SWEEP_CELLS:
                raise ValueError(f"omega.num must be at most {_MAX_SWEEP_CELLS}, got {num}")
            start, stop = (
                config_value(omega.get(end, default), f"omega.{end}") for end, default in (("start", 0.0), ("stop", 1.0))
            )
            omega = np.linspace(start, stop, config_value(num, "omega.num", "count"))
        else:
            omega = config_value(omega, "omega", "numbers")
        return cls(model=raw.get("model", "relative"), geometry=geometry, omega=omega)


@dataclass(frozen=True)
class SweepResult:
    """Per-cell spectral angle and RMSE between the two swept models, in read-only arrays.

    sam and rmse are indexed [theta0, theta] following the grid order.
    valid is False where either model is undefined (the doubly grazing
    cell when the Lambertian model takes part); those cells hold NaN.
    """

    grid: SweepGrid
    sam: FloatArray
    rmse: FloatArray
    valid: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.grid.theta0_values.size, self.grid.theta_values.size)
        for name, dtype in (("sam", np.float64), ("rmse", np.float64), ("valid", bool)):
            arr = _readonly(getattr(self, name), dtype=dtype)
            if arr.shape != expected:
                raise ValueError(f"{name} has shape {arr.shape}; the grid's is {expected} (theta0 x theta)")
            object.__setattr__(self, name, arr)

    @property
    def n_skipped(self) -> int:
        return int(self.valid.size - np.count_nonzero(self.valid))


def angle_sweep(albedo: AlbedoSpectrum, grid: SweepGrid) -> SweepResult:
    """Compare the grid's model pair on one albedo across all angle cells.

    For each (theta0, theta) cell both models' reflectance spectra are
    built from the albedo and compared by spectral angle and RMSE.  Cells
    where either model is undefined are flagged and hold NaN.  The angle is
    that of the shape spectra.  This is angle_sweeps of the one albedo.
    """
    return next(angle_sweeps([albedo], grid))


def angle_sweeps(albedos: Iterable[AlbedoSpectrum], grid: SweepGrid) -> Iterator[SweepResult]:
    """angle_sweep of each albedo, in order, bit for bit: one SweepResult per albedo as it is swept.

    Every albedo is checked before anything is computed: one that is
    identically zero (its spectral angle is undefined) is refused by name,
    and all must have one band count.  The grid's swept cells, their Q and
    the sweep's work buffers are built once per call; the albedos are swept
    one at a time through them.
    """
    albedos = list(albedos)
    for albedo in albedos:
        if not np.any(albedo.omega):
            raise ValueError(f"albedo {albedo.material!r} is identically zero; spectral angle undefined")
    bands = {albedo.omega.size for albedo in albedos}
    if len(bands) > 1:
        raise ValueError(f"albedos of one angle sweep share one band count, got {sorted(bands)}")
    return _sweep(albedos, grid)


def _sweep(albedos: list[AlbedoSpectrum], grid: SweepGrid) -> Iterator[SweepResult]:
    if not albedos:
        return
    pair = grid.model_pair
    mu0, mu = cos_deg(grid.theta0_values), cos_deg(grid.theta_values)
    valid = np.logical_and(*(defined_at(m, mu[None, :], mu0[:, None]) for m in pair))
    square = np.array_equal(mu0, mu)
    # the swept cells as one flat list: on a square grid the upper triangle j >= i, else every cell
    rows, cols = np.triu_indices(mu.size) if square else np.divmod(np.arange(valid.size), mu.size)
    factors = {m: np.where(valid, cell_factor(m, mu[None, :], mu0[:, None]), np.nan)[rows, cols, None]
               for m in pair if m != "relative"}  # relative's Q is 1: its reflectance is its shape
    n_bands = albedos[0].omega.size
    step = min(max(1, _SWEEP_STEP_FLOATS // (6 * n_bands)), rows.size)  # cells a step sweeps
    work = np.empty((4, step, n_bands))  # the two shapes, then the two differences: shared by the albedos
    for albedo in albedos:
        sums = _albedo_sums(albedo.omega, pair, mu0, mu, factors, rows, cols, work)
        sam, err = np.empty(valid.shape), np.empty(valid.shape)
        for values, swept in ((err, root_mean_square(*sums[0], n_bands)), (sam, _angle(sums[1], sums[2]))):
            values[rows, cols] = swept
            if square:  # the lower cells are the upper cells, mirrored
                values[cols, rows] = swept
        sam[~valid] = np.nan  # err is NaN there already, through Q
        yield SweepResult(grid=grid, sam=sam.view(_Unshared), rmse=err.view(_Unshared), valid=valid)


@np.errstate(over="ignore")  # a sum of squares that overflows is summed again, scaled
def _albedo_sums(omega, pair, mu0, mu, factors, rows, cols, work):
    """The (3, 2, cells) sum_of_squares (s, scale) of one albedo omega, through the (4, step, bands) work.

    Per swept cell (rows[k], cols[k]): of the reflectances' difference, of the unit shapes' difference and
    of their sum.  factors holds each model's Q of the cells in that order, and each step sweeps the next
    work.shape[1] cells of the list.
    """
    tables = {m: (angle_divisor(m, omega, mu0[:, None]), angle_divisor(m, omega, mu[:, None]))
              for m in pair if m != "linear"}
    step = work.shape[1]
    # the albedo (the linear shape) and its unit vectors, the same in every cell, repeated to step blocks: an
    # operation on two blocks is several times faster than one that broadcasts a single row
    omega = omega.reshape(1, -1)
    omega_rows, omega_unit = (np.repeat(spectrum, step, axis=0) for spectrum in (omega, _unit(omega)))
    sums = np.zeros((3, 2, rows.size))
    for first in range(0, rows.size, step):
        cells = slice(first, first + step)
        width = min(step, rows.size - first)
        block = work[:, :width]
        for m, out in zip(pair, block):  # a shape's divisors A(omega, mu_j) A(omega, mu0_i), gathered per cell
            if m != "linear":
                # mode="clip" lets take write into out directly, where "raise" buffers it
                np.take(tables[m][1], cols[cells], axis=0, out=out, mode="clip")
                out *= np.take(tables[m][0], rows[cells], axis=0, out=block[3], mode="clip")
        shapes = [omega_rows[:width] if m == "linear" else np.divide(omega_rows[:width], out, out=out)
                  for m, out in zip(pair, block)]
        outs = iter(block[2:])  # a reflectance not its shape goes to block[2] first: the difference goes there
        rhos = [shape if m == "relative" else np.divide(shape, factors[m][cells], out=next(outs))
                for m, shape in zip(pair, shapes)]
        np.subtract(*rhos, out=block[2])
        # a shape in a work buffer becomes its unit vectors, in place
        units = [omega_unit[:width] if m == "linear" else _unit(shape, out=shape) for m, shape in zip(pair, shapes)]
        np.subtract(*units, out=block[3])
        s, scale = sum_of_squares(block[2:4])  # both differences in one call, one dot per cell
        sums[:2, 0, cells], sums[:2, 1, cells] = s, scale
        if s[1].max() > _ACROSS_SQ_MAX:  # past 60 degrees (or a rescaled row): rare between model spectra
            sums[2, 0, cells], sums[2, 1, cells] = sum_of_squares(np.add(*units))
    return sums
