"""Explicit conservative finite-difference integrator for anisotropic fast diffusion.

The update is the flux form

    u_new = u + dt * sum_i (F_i^+ - F_i^-) / h_i,
    F_i   = (g^2 + eps^2)^((p_i-2)/2) * g,

with g the one-sided difference quotient across each cell face.  The eps > 0
regularization caps the singular diffusivity |g|^(p_i-2) at eps^(p_i-2).
Boundary handling: homogeneous Dirichlet uses a zero ghost layer; periodic
wraps, in which case the flux sum telescopes and the discrete mass is
conserved to machine precision.  Time stepping is explicit Euler with an
adaptive step from `stable_dt`, clipped so snapshot times are hit exactly.
One kernel (`_FluxKernel`) lays out each step's ufunc calls once, as flat
tables; `run` keeps the run record in its loop's locals and nowhere else.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import BlowupError, ConfigError, DomainError, IngestionError
from .geometry import (
    _COUNT, _FINITE, _NONNEGATIVE, ExponentProfile, _not_a_number, _real, _violation,
    derive_exponents,
)

BOUNDARIES = ("dirichlet_zero", "periodic")

PROFILE_KINDS = ("sine_product", "bump", "plateau", "from_file")

SNAPSHOT_DTYPE = "<f8"  # little-endian float64, row-major
DEFAULT_SNAPSHOTS = 101  # the snapshot count of the default schedule, t = 0 included

_TIME_RTOL = 1e-12

#: relative tolerance of `Trajectory.window` on its end points
WINDOW_RTOL = 1e-9


def _past_horizon(t: float, end_time: float) -> bool:
    return t > end_time * (1.0 + WINDOW_RTOL)  # a check's horizon, and a config's (`cli`)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the box prod_i (-half_domain[i], half_domain[i]); each
    axis's centres h (k - (n-1)/2) are odd bit for bit, as fl(h m) = -fl(h (-m))."""

    half_domain: tuple[float, ...]
    resolution: tuple[int, ...]
    boundary: str

    @property
    def N(self) -> int:
        return len(self.resolution)

    # computed once per grid: the instance is frozen, so its fields never change
    @functools.cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * H / n for H, n in zip(self.half_domain, self.resolution))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.resolution))

    @functools.cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)  # no overflow warning: build_grid rejects inf

    def axis_centers(self, i: int) -> np.ndarray:
        n = self.resolution[i]
        return self.spacings[i] * (np.arange(n) - (n - 1) / 2)


def _count(n) -> Optional[int]:
    """n as an int when it is an integral number (32, 32.0); None when it is not (32.7,
    nan, inf, "32", or True: `geometry._not_a_number`)."""
    return None if _not_a_number("n", n) or not float(n).is_integer() else int(n)


def _integer(value, name: str) -> int:
    """value as an int when it is integral (32 and 32.0, not 3.9, nan or inf)."""
    with contextlib.suppress(TypeError):  # not a number at all
        if (n := _count(_real(value, name))) is not None:
            return n
    raise TypeError(f"{name} must be an integer, got {value!r}")


def build_grid(
    half_domain: Sequence[float],
    resolution: Sequence[int],
    boundary: str = "dirichlet_zero",
) -> Grid:
    violations = []
    half = tuple(half_domain)
    res = tuple(_count(n) for n in resolution)
    if len(half) != len(res):
        violations.append(
            f"half_domain has {len(half)} entries but resolution has {len(res)}"
        )
    violations += filter(None, (_violation("half_domain entry", x) for x in half))
    for n, given in zip(res, resolution):
        if n is None:
            violations.append(f"resolution must be an integer per axis, got {given!r}")
        elif n < 4:
            violations.append(f"resolution must be >= 4 per axis, got {n}")
    if boundary not in BOUNDARIES:
        violations.append(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if violations:
        raise ConfigError(violations)
    grid = Grid(half_domain=tuple(map(float, half)), resolution=res, boundary=boundary)
    if not all(0.0 < x < math.inf for x in (*grid.spacings, grid.cell_volume)):
        raise ConfigError([
            f"grid spacings {grid.spacings} and cell volume {grid.cell_volume!r} "
            "must be positive and finite"
        ])
    return grid


@dataclass
class Field:
    """Solution values on a grid at one time level, stored flat in row-major order."""

    grid: Grid
    values: np.ndarray
    time: float

    def __post_init__(self):
        if fault := _violation("time", self.time, _FINITE):
            raise IngestionError(fault)
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.size != self.grid.n_cells:
            raise IngestionError(
                f"field has {self.values.size} values for a grid of "
                f"{self.grid.n_cells} cells"
            )

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def sup(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class InitialProfile:
    """Initial-datum recipe: sine_product | bump | plateau | from_file."""

    kind: str
    amplitude: float = 1.0
    radius: float = 0.25
    path: Optional[str] = None

    def __post_init__(self):
        violations = []
        if self.kind not in PROFILE_KINDS:
            violations.append(f"unknown initial profile {self.kind!r}")
        radial, radius = self.kind in ("bump", "plateau"), self.radius  # else radius is unused
        violations += filter(None, [
            _violation("amplitude", self.amplitude, _NONNEGATIVE),
            _violation("radius", radius) if radial else _not_a_number("radius", radius),
        ])
        if self.kind == "from_file" and not isinstance(self.path or None, (str, os.PathLike)):
            violations.append(f"from_file profile requires a path, got {self.path!r}")
        if violations:
            raise ConfigError(violations)


def init_field(grid: Grid, profile: InitialProfile) -> Field:
    """Evaluate the initial datum at the cell centers; always nonnegative."""
    axes = [grid.axis_centers(i) for i in range(grid.N)]
    mesh = np.meshgrid(*axes, indexing="ij")
    if profile.kind == "sine_product":
        u = np.full(grid.shape, profile.amplitude, dtype=np.float64)
        for i, x in enumerate(mesh):
            u = u * np.cos(np.pi * x / (2.0 * grid.half_domain[i]))
    elif profile.kind == "bump":
        s2 = np.zeros(grid.shape)
        for x in mesh:
            s2 = s2 + (x / profile.radius) ** 2
        u = np.zeros(grid.shape)
        inside = s2 < 1.0
        u[inside] = profile.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    elif profile.kind == "plateau":
        inside = np.ones(grid.shape, dtype=bool)
        for x in mesh:
            inside &= np.abs(x) <= profile.radius
        u = np.where(inside, profile.amplitude, 0.0)
    else:  # from_file
        raw = np.fromfile(profile.path, dtype=SNAPSHOT_DTYPE)
        if raw.size != grid.n_cells:
            raise IngestionError(
                f"file {profile.path!r} holds {raw.size} values, grid needs "
                f"{grid.n_cells}"
            )
        u = raw.astype(np.float64)
        if not np.isfinite(u).all() or (u < 0.0).any():
            raise IngestionError(f"file {profile.path!r} must hold finite nonnegative values")
    return Field(grid=grid, values=u.ravel(), time=0.0)


def _along(axis: int, s: slice) -> tuple[slice, ...]:
    """Index taking `s` along `axis` and everything along the other axes."""
    return (slice(None),) * axis + (s,)


_FIRST, _LAST = slice(None, 1), slice(-1, None)


def _split(buf: np.ndarray, shape: tuple, i: int, periodic: bool) -> tuple:
    """(faces before the first cell, faces after each cell) of an axis-i face buffer of
    a `shape` field; the first has `shape` with 1 along axis i, the second `shape`."""
    after = buf[buf.size - math.prod(shape) :].reshape(shape)
    if periodic:
        return after[_along(i, _LAST)], after
    return buf[: buf.size - after.size].reshape(shape[:i] + (1,) + shape[i + 1 :]), after


def _face_differences(u: np.ndarray, i: int, faces: np.ndarray, periodic: bool, mirror=False):
    """The (minuend, subtrahend, out) subtractions, in order, that write G = u[k+1] - u[k]
    of axis i into `faces`: its last u.size entries are the faces after each cell in cell
    order (a periodic axis wraps), and a zero ghost layer's start with the faces before
    the first cell (`_split`).  One flat subtraction at u's axis-i stride, then the
    boundary hyperplane; the face on a `mirror` plane after the last cell is last - last."""
    flat, s, zero = u.reshape(-1), math.prod(u.shape[i + 1 :]), np.array(0.0)
    before, after = _split(faces, u.shape, i, periodic)
    first, last = u[_along(i, _FIRST)], u[_along(i, _LAST)]
    wall = last if mirror else first if periodic else zero
    ops = [(flat[s:], flat[:-s], after.reshape(-1)[:-s]), (wall, last, after[_along(i, _LAST)])]
    return ops if periodic else ops + [(first, zero, before)]


#: bytes between the offsets, mod 4096, at which the step buffers start
_STAGGER = 384


def _buffer(size: int, slot: int) -> np.ndarray:
    """Zeroed float64 buffer of `size` whose data starts at slot * _STAGGER mod 4096.

    Left to malloc, equal whole-field buffers start at one offset mod 4096
    (each is its own chunk, a whole number of pages apart), so the streams
    of one ufunc call fall on the same 4K-aliasing addresses and L1 sets.
    The kernel gives u slot 0, the faces of axis i slot 1 + i, the
    divergence and its scratch N + 1 and N + 2, and the flux of axis i
    N + 3 + i.
    """
    raw = np.zeros(size + 4096 // 8)
    skip = (slot * _STAGGER - raw.ctypes.data) % 4096 // 8
    return raw[skip : skip + size]


class _FluxKernel:
    """The one flux-form operator behind `stable_dt`, `advance` and `run`.

    Per axis it works on the raw face differences G = u[k+1] - u[k] with the
    grid constants folded in: the flux is Phi_i = G (G^2 + (h_i eps)^2)^e_i,
    e_i = (p_i-2)/2, with the power taken as exp(e_i log S) (S >= (h_i eps)^2
    > 0), and the update is u += sum_i (dt h_i^-p_i)(Phi_i[k] - Phi_i[k-1]).
    Since F_i = h_i^(1-p_i) Phi_i, that is dt * sum_i (F_i^+ - F_i^-) / h_i;
    the axis terms are summed in axis order before they are added to u.  A
    heat axis (p_i = 2) has Phi_i = G, so it skips the power and differences
    G itself, and its step-bound term is the constant 2 h_i^-2; which axes
    do is fixed when the kernel is built.  The kernel owns every buffer a
    step needs and works in them with `out` ufunc calls on flat contiguous
    arrays, plus one boundary hyperplane per axis, so `rate()` and `step()`
    allocate no arrays.

    `rate()` first writes G of axis i into `_faces[i]` (`_face_differences`),
    but the zero-ghost `u` is the interior of an array padded along axis 0,
    whose faces are one subtraction.

    A small grid's step costs call overhead, so every call is laid out once
    in flat tables that `rate()` and `step()` each run as one loop: (ufunc,
    operands) pairs in `_rate_calls` and `_step_calls`, `out` positional and
    every operand an array; per axis, (2 (p_i-1) h_i^-p_i, argmin, flux,
    (h_i eps)^2, e_i) in `_bounds` (argmin None on a term that is constant:
    heat or mirrored) and the `fill` of the 0-d array for dt h_i^-p_i in
    `_scales`, run only for a new dt.  If every term is constant, `rate()`
    is summed once and G is written at the head of `_step_calls`.

    With `mirror` axes (`run`'s: see there when and why), u is the lower half
    of each; the face on the mirror plane after its last cell holds G = 0, the
    full grid's u[m] - u[m-1] of equal values, and is a periodic axis's wrap
    face too (min G^2 = +0.0, so the rate term is c (0.0 + (h_i eps)^2)^e_i),
    while a Dirichlet axis keeps its outer zero ghost.  So each op is the
    full grid's, if numpy's ufuncs give an element the same result wherever
    it sits in an array.  `unfold()` writes u mirrored into `full`.
    """

    def __init__(self, grid: Grid, prof: ExponentProfile, eps: float, mirror: tuple = ()):
        shape = tuple(m // 2 if i in mirror else m for i, m in enumerate(grid.shape))
        n = math.prod(shape)
        self._periodic = periodic = grid.boundary == "periodic"
        strides = [n // math.prod(shape[: i + 1]) for i in range(grid.N)]
        if periodic:
            self.u = u = _buffer(n, 0).reshape(shape)
        else:
            padded = _buffer(n + 2 * strides[0], 0)
            self.u = u = padded[strides[0] : -strides[0]].reshape(shape)
        self._flat = flat = u.reshape(-1)
        self._div, scratch = _buffer(n, grid.N + 1), _buffer(n, grid.N + 2)
        add, sub, mul, div = np.add, np.subtract, np.multiply, self._div
        self._faces, differences, squares, bounds, scales, calls = [], [], [], [], [], []
        for i, (pi, h, s) in enumerate(zip(prof.p, grid.spacings, strides)):
            faces = _buffer(n if periodic else n + n // shape[i], 1 + i)
            if not periodic and i == 0:  # on a mirrored axis the mirror plane's faces stay 0
                m = faces.size - s * (i in mirror)
                differences.append((sub, (padded[s : s + m], padded[:m], faces[:m])))
            else:
                ops = _face_differences(u, i, faces, periodic, i in mirror)
                differences += [(sub, operands) for operands in ops]
            self._faces.append(faces)
            kappa, expo, scale = (h * eps) ** 2, (pi - 2.0) / 2.0, h**-pi
            factor, c = np.array(scale), 2.0 * (pi - 1.0) * scale
            scales.append((factor.fill, scale))
            if pi == 2.0:  # a heat axis: exp(0 log S) = 1, so Phi = G and its rate is 2 h^-2
                flux = faces
                bounds.append((c, None, None, None, None))
            else:
                flux = _buffer(faces.size, grid.N + 3 + i)
                squares.append((mul, (faces, faces, flux)))
                floor = (c * (0.0 + kappa) ** expo, None, None, None, None)  # at min G^2 = +0.0
                bounds.append(floor if i in mirror else (c, flux.argmin, flux, kappa, expo))
                calls += [
                    (add, (flux, np.array(kappa), flux)),
                    (np.log, (flux, flux)),
                    (mul, (flux, np.array(expo), flux)),
                    (np.exp, (flux, flux)),
                    (mul, (flux, faces, flux)),
                ]
            d = div if i == 0 else scratch
            if not periodic and i == 0:  # flux = [faces before cell 0, faces after each cell]
                calls.append((sub, (flux[s:], flux[:-s], d)))
            else:  # d[k] = Phi[k] - Phi[k-1], fixed up on the hyperplane k = 0
                before, after = _split(flux, shape, i, periodic)
                cells = flux[flux.size - n :]
                first = d.reshape(shape)[_along(i, _FIRST)]
                calls += [
                    (sub, (cells[s:], cells[:-s], d[s:])),
                    (sub, (after[_along(i, _FIRST)], before, first)),
                ]
            calls.append((mul, (d, factor, d)))
            if d is not div:
                calls.append((add, (div, d, div)))
        calls.append((add, (flat, div, flat)))
        self._bounds, self._scales, self._dt, self._rate = tuple(bounds), tuple(scales), None, None
        if all(argmin is None for _, argmin, *_ in bounds):  # a constant rate: only `step` needs G
            differences, squares, calls = [], [], differences + squares + calls
        self._rate_calls, self._step_calls = tuple(differences + squares), tuple(calls)
        self._rate = None if self._rate_calls else self.rate()
        self.full = np.empty(grid.shape) if mirror else u
        self._unfold_calls = [(self.full[tuple(map(slice, shape))], u)] if mirror else []
        for i in reversed(mirror):  # from the last axis: the filled part, flipped, fills the rest
            part = self.full[tuple(slice(m if j < i else None) for j, m in enumerate(shape))]
            upper = _along(i, slice(shape[i], None))
            self._unfold_calls.append((part[upper], np.flip(part, i)[upper]))

    def unfold(self) -> np.ndarray:
        """`full`: u, mirrored across each mirrored axis into the full grid's shape."""
        for destination, source in self._unfold_calls:
            np.copyto(destination, source)
        return self.full

    def rate(self) -> float:
        """sum_i 2 a_i_max / h_i^2 at `u`; `stable_dt` divides its clamped safety by it.

        a_i_max = (p_i - 1)(min g^2 + eps^2)^e_i, as in `stable_dt`; with
        g = G / h_i the sum is sum_i 2 (p_i - 1) h_i^-p_i (min G^2 + (h_i eps)^2)^e_i,
        whose heat-axis (e_i = 0: 2 h_i^-2) and mirrored-axis terms are
        constants.  Leaves G and G*G in place for `step`, unless every term
        is constant: then it returns their sum, taken when the kernel was built.
        """
        if self._rate is not None:
            return self._rate
        for ufunc, operands in self._rate_calls:
            ufunc(*operands)
        denom = 0.0
        for c, argmin, flux, kappa, expo in self._bounds:
            if argmin is not None:  # a heat axis's term is c
                c *= (flux.item(argmin()) + kappa) ** expo
            denom += c
        return denom

    def step(self, dt: float) -> None:
        """u += sum_i (dt h_i^-p_i)(Phi_i[k] - Phi_i[k-1]) from the last `rate()`'s G (its
        own, if the rate is constant); dt h_i^-p_i is refilled only for a new dt."""
        if dt != self._dt:  # a NaN differs from itself, so it refills too
            self._dt = dt
            for fill, scale in self._scales:
                fill(dt * scale)
        for ufunc, operands in self._step_calls:
            ufunc(*operands)


def _kernel_at(field: Field, prof: ExponentProfile, eps: float, mirror: tuple = ()) -> _FluxKernel:
    """The kernel holding `field`, halved along `mirror`, after the public steps' checks."""
    if fault := _violation("eps", eps):
        raise DomainError(fault)
    eps, grid = float(eps), field.grid
    if prof.N != grid.N:
        raise DomainError(f"profile dimension {prof.N} != grid dimension {grid.N}")
    if problems := _scheme_violations(grid, prof, eps):
        raise DomainError("; ".join(problems))
    kernel = _FluxKernel(grid, prof, eps, mirror)
    kernel.u[...] = field.reshaped()[tuple(map(slice, kernel.u.shape))]
    return kernel


def _mirror_axes(u: np.ndarray) -> tuple:
    """The axes of even length along which the bytes of u equal those of its flip."""
    bits, even = u.view(np.uint64), [i for i, m in enumerate(u.shape) if m % 2 == 0]
    return tuple(i for i in even if np.array_equal(bits, np.flip(bits, i)))


def stable_dt(
    field: Field, prof: ExponentProfile, eps: float, safety: float = 0.5
) -> float:
    """Adaptive explicit step: min(safety, p_1 - 1) / sum_i (2 * a_i_max / h_i^2).

    a_i_max = max over faces of (p_i - 1)(g^2 + eps^2)^((p_i-2)/2).  Since the
    exponent is nonpositive for p_i <= 2, the face maximum is attained at the
    smallest g^2, so only min(g^2) is needed per axis.  The face flux's
    derivative exceeds a_i_max by at most 1/(p_i - 1), so safety is clamped
    at p_1 - 1 (p_1 the smallest exponent): every step is monotone.
    """
    if problems := _range_violations(safety=safety):
        raise DomainError("; ".join(problems))
    return min(safety, prof.p[0] - 1.0) / _kernel_at(field, prof, eps).rate()


def advance(field: Field, prof: ExponentProfile, eps: float, dt: float) -> Field:
    """One conservative explicit Euler step of size dt; `BlowupError` unless it is finite."""
    if fault := _violation("dt", dt):
        raise DomainError(fault)
    dt = float(dt)
    t_new = field.time + dt
    with np.errstate(over="ignore", invalid="ignore"):  # reported as BlowupError
        kernel = _kernel_at(field, prof, eps)
        kernel.rate()
        kernel.step(dt)
    if not np.isfinite(kernel.u).all():
        raise BlowupError(t_new)
    return Field(grid=field.grid, values=kernel.u.copy(), time=t_new)


def uniform_snapshots(t_end: float, count: int) -> tuple[float, ...]:
    """Uniform snapshot schedule over [0, t_end] with `count` snapshots incl. t=0."""
    n = _count(count)  # None: named below, not as a count below 1
    violations = _range_violations(t_end=t_end, snapshots=1 if n is None else n)
    if n is None:
        violations.append(f"snapshot count must be an integer, got {count!r}")
    if violations:
        raise ConfigError(violations)
    if t_end == 0.0 or n == 1:
        return (0.0,)
    return tuple(np.linspace(0.0, t_end, n))


def _range_violations(t_end=0.0, eps=1.0, safety=0.5, snapshots=1) -> list[str]:
    """The violations of SimConfig's scalar ranges and a snapshot count's; defaults obey them."""
    return list(filter(None, [
        _violation("t_end", t_end, _NONNEGATIVE),
        _violation("eps", eps),
        _violation("safety", safety, ("lie in (0, 1]", lambda x: 0.0 < x <= 1.0)),
        _violation("snapshot count", snapshots, _COUNT),
    ]))


def _power(x: float, a: float) -> float:
    """x ** a, or inf where the float ** raises: past 1e308, or 0 to a negative power."""
    try:
        return x**a
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _scheme_violations(grid: Grid, prof: ExponentProfile, eps: float) -> list[str]:
    """Why `_FluxKernel` on this grid leaves float64: each h_i^-p_i and (h_i eps)^2 must be
    positive and finite, and so must the largest rate() can return (at G = 0),
    sum_i 2 (p_i - 1) h_i^-p_i (h_i eps)^(p_i - 2), each computed as the kernel does."""
    found, top = [], 0.0
    for i, (pi, h) in enumerate(zip(prof.p, grid.spacings)):
        scale, kappa = _power(h, -pi), _power(h * eps, 2)
        if not (0.0 < scale < math.inf and 0.0 < kappa < math.inf):
            found.append(
                f"axis {i}: h^-p = {scale!r} and (h eps)^2 = {kappa!r} must be positive and "
                f"finite floats (h = {h!r}, p = {pi!r}, eps = {eps!r})"
            )
        top += 2.0 * (pi - 1.0) * scale * _power(kappa, (pi - 2.0) / 2.0)
    if not found and not 0.0 < top < math.inf:
        found.append(f"the largest step rate, {top!r}, must be positive and finite (eps = {eps!r})")
    return found


@dataclass(frozen=True)
class SimConfig:
    """Everything `run` needs: grid, datum, exponents, regularization, schedule."""

    grid: Grid
    profile: InitialProfile
    exponents: ExponentProfile
    eps: float
    t_end: float
    safety: float = 0.5
    snapshot_times: tuple[float, ...] = field(default=None)

    def __post_init__(self):
        violations = _range_violations(self.t_end, self.eps, self.safety)
        if self.exponents.N != self.grid.N:
            violations.append(
                f"{self.exponents.N} exponents for a {self.grid.N}-dimensional grid"
            )
        elif not _range_violations(eps=self.eps):  # the kernel's constants, once eps is in range
            violations += _scheme_violations(self.grid, self.exponents, self.eps)
        if self.snapshot_times is None:  # the default schedule, once t_end is known to be valid
            times = (0.0,) if violations else uniform_snapshots(self.t_end, DEFAULT_SNAPSHOTS)
        else:
            try:
                times = tuple(self.snapshot_times)
            except TypeError:  # no sequence at all, so no sequence of numbers
                times = (None,)
            if any(_not_a_number("snapshot time", t) for t in times):  # float("0") is 0.0
                violations.append(f"snapshot times must be numbers, got {self.snapshot_times!r}")
                times = (0.0,)  # a schedule that passes the checks below
            times = tuple(map(float, times))
        if faults := [fault for t in times if (fault := _violation("snapshot time", t, _FINITE))]:
            violations.append(faults[0])
        elif not times or times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            violations.append("snapshot times must start at 0 and increase strictly")
        elif not _range_violations(self.t_end) and times[-1] > self.t_end * (1 + _TIME_RTOL):
            violations.append("snapshot times must not exceed t_end")
        if violations:
            raise ConfigError(violations)
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as `measured` assumes
class Trajectory:
    """Snapshots of one run as one read-only (S, n_cells) array, plus the run's step count.

    Row k of `values` is the flattened field at `times[k]`; times never
    decrease.  `snapshots`, `initial` and `sup_series` (reduced once, read-only)
    are views or reductions of that one array, never copies.  Fields cannot be
    reassigned and `values` is the trajectory's own read-only array (one
    passed in is copied unless read-only and owning its data), so what
    `measured` keeps stays true.
    """

    grid: Grid
    exponents: ExponentProfile
    eps: float
    values: np.ndarray
    times: tuple[float, ...]
    steps: int = 0
    mass_drift: Optional[float] = None
    min_value: float = 0.0
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for t in self.times:  # a bool is no number, though float(True) is 1.0
            if fault := _violation("snapshot time", t, _FINITE):
                raise IngestionError(fault)
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        v = self.values
        owned = isinstance(v, np.ndarray) and v.flags.owndata and not v.flags.writeable
        if not (owned and v.dtype == np.float64 and v.flags.c_contiguous):
            v = np.array(v, np.float64, order="C")  # a copy: the caller keeps its array
            v.flags.writeable = False
            object.__setattr__(self, "values", v)
        if not self.times:
            raise IngestionError("trajectory has no snapshots")
        if fault := _violation("eps", self.eps):
            raise IngestionError(fault)
        if self.exponents.N != self.grid.N:
            raise IngestionError(
                f"{self.exponents.N} exponents for a {self.grid.N}-dimensional grid"
            )
        if self.values.shape != (len(self.times), self.grid.n_cells):
            raise IngestionError(
                f"snapshot array of shape {self.values.shape} for {len(self.times)} "
                f"times on a grid of {self.grid.n_cells} cells"
            )
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise IngestionError("snapshot times must not decrease")
        if _not_a_number("steps", self.steps) or self.steps % 1 or self.steps < 0:  # nan % 1 is nan
            raise IngestionError(f"steps must be a nonnegative integer, got {self.steps!r}")
        object.__setattr__(self, "steps", int(self.steps))
        drift = self.mass_drift  # None where no mass is conserved
        fault = _violation("min_value", self.min_value, _FINITE)
        if fault := fault or drift is not None and _violation("mass_drift", drift, _FINITE):
            raise IngestionError(fault)
        object.__setattr__(self, "min_value", float(self.min_value))
        object.__setattr__(self, "mass_drift", None if drift is None else float(drift))

    def measured(self, key: tuple, measure: Callable[[], Any]) -> Any:
        """measure(), computed once per key on this trajectory; the key names every
        input, so a hit gives the bits a fresh call would.  Concurrent checks stay
        safe: each store is one dict write of a value that is bit-identical
        whoever computes it."""
        if key not in self._memo:
            self._memo[key] = measure()
        return self._memo[key]

    @property
    def snapshots(self) -> list[Field]:
        """One `Field` per row, sharing memory with `values`."""
        return [Field(self.grid, row, t) for row, t in zip(self.values, self.times)]

    @property
    def end_time(self) -> float:
        return self.times[-1]

    @property
    def initial(self) -> Field:
        return Field(self.grid, self.values[0], self.times[0])

    def sup_series(self) -> np.ndarray:
        sups = self.measured(("sup_series",), lambda: self.values.max(axis=1))
        sups.flags.writeable = False
        return sups

    def window(self, t_a: float, t_b: float) -> slice:
        """Rows with t_a - tol <= time <= t_b + tol, tol = 1e-9 max(1, |t_b|); finite t_a <= t_b."""
        fault = _violation("window start", t_a, _FINITE)  # an inf end would make tol inf
        if fault := fault or _violation("window end", t_b, _FINITE):
            raise DomainError(fault)
        t_a, t_b = float(t_a), float(t_b)
        if t_b < t_a:
            raise DomainError(f"empty window [{t_a}, {t_b}]")
        tol = WINDOW_RTOL * max(1.0, abs(t_b))
        return slice(
            bisect.bisect_left(self.times, t_a - tol),
            bisect.bisect_right(self.times, t_b + tol),
        )


@np.errstate(over="ignore", invalid="ignore")  # reported as BlowupError, as in `advance`
def run(config: SimConfig) -> Trajectory:
    """Integrate to the last snapshot time, hitting every snapshot time exactly;
    deterministic.  `SimConfig` bounds that time only from above, by t_end, so a
    schedule that ends before t_end ends the run there (`Trajectory.end_time`).

    `stable_dt`, `advance` and `run` build their kernel through `_kernel_at`
    and step it with `rate()` and `step(dt)`.  `run` adds the step choice,
    `stable_dt`'s clamped safety / `rate()` clipped to the next snapshot
    time, the snapshot rows and the run record, kept in this loop's locals:
    the step count, the running min, the proof that u is finite (else
    `BlowupError` at the step's end time) and, periodic, the drift
    |mass - mass0| / |mass0| (|mass| if mass0 is 0), so every bit matches
    composing `stable_dt` and `advance`.  argmin and argmax return the first
    NaN, and a min or max of +-inf shows the infinity, so two index reads
    prove u finite; a periodic run's finite mass sum already proves it and
    skips the argmax.  A periodic datum whose sum overflows, so that no drift
    could be measured, is a `DomainError` before the first step.

    `run` integrates on the lower half of each even axis along which the
    datum's bytes equal its flip's (`_mirror_axes`; a built-in datum's are, as
    `Grid`'s centres are odd, but not a datum one ulp off); each such axis's
    rate term is a constant (`_FluxKernel`).  A step maps a mirrored u to the
    mirrored result exactly (fl(a - b) = -fl(b - a), elementwise powers, a
    fixed axis order), so u stays even bit for bit, as every row of the
    seed-0 bench runs is.  Rows and periodic mass sums read `kernel.unfold()`:
    the full grid's bits, if numpy's ufuncs give an element the same result
    wherever it sits in an array (the test composing `stable_dt` and
    `advance` checks it).
    """
    grid = config.grid
    initial = init_field(grid, config.profile)
    kernel = _kernel_at(initial, config.exponents, config.eps, _mirror_axes(initial.reshaped()))
    values = np.empty((len(config.snapshot_times), grid.n_cells))
    values[0] = initial.values
    times = [initial.time]
    u, rate, step, unfold = kernel._flat, kernel.rate, kernel.step, kernel.unfold
    safety = min(config.safety, config.exponents.p[0] - 1.0)  # as in `stable_dt`
    argmin, argmax, total, isfinite = u.argmin, u.argmax, np.add.reduce, math.isfinite
    steps, min_value, t_now = 0, float(initial.values.min()), 0.0
    mass0 = float(initial.values.sum()) if kernel._periodic else None
    if mass0 is not None and not isfinite(mass0):
        raise DomainError(f"the periodic datum's mass overflows float64 (its sum is {mass0})")
    drift = None if mass0 is None else 0.0
    for k, target in enumerate(config.snapshot_times[1:], start=1):
        stop = target * (1.0 - _TIME_RTOL)
        while t_now < stop:
            dt = safety / rate()
            remaining = target - t_now
            clipped = dt >= remaining
            if clipped:
                dt = remaining
            t_now = target if clipped else t_now + dt
            step(dt)
            mass = math.inf if mass0 is None else float(total(unfold(), None))
            low = u.item(argmin())
            if not (isfinite(mass) or isfinite(low) and isfinite(u.item(argmax()))):
                raise BlowupError(t_now)
            if mass0 is not None:
                drift = max(drift, abs(mass - mass0) / abs(mass0) if mass0 != 0.0 else abs(mass))
            steps += 1
            if low < min_value:
                min_value = low
        values[k] = unfold().ravel()
        times.append(t_now)

    values.flags.writeable = False
    return Trajectory(
        grid=grid,
        exponents=config.exponents,
        eps=config.eps,
        values=values,
        times=tuple(times),
        steps=steps,
        mass_drift=drift,
        min_value=min_value,
    )


# --- persistence: one file of all snapshots plus one JSON manifest ----------

TRAJECTORY_FORMAT = 2
SNAPSHOTS_FILE = "snapshots.f64"


def save_trajectory(traj: Trajectory, path: str) -> str:
    """Write `traj.values` to snapshots.f64 and its description to manifest.json.

    snapshots.f64 holds one row per snapshot, little-endian float64,
    row-major, in one write; the manifest gives the times and the grid.  The
    old manifest goes first and the new one comes last, through a temp file
    and a rename, so a write that dies part way leaves no manifest that would
    pass old rows off with new ones.  Opening the data file truncates it, so
    a shorter rerun leaves no rows of a longer one.
    """
    os.makedirs(path, exist_ok=True)
    mpath = os.path.join(path, "manifest.json")
    if os.path.exists(mpath):
        os.remove(mpath)
    with open(os.path.join(path, SNAPSHOTS_FILE), "wb") as fh:
        fh.write(np.ascontiguousarray(traj.values, dtype=SNAPSHOT_DTYPE))
    manifest = {
        "format": TRAJECTORY_FORMAT,
        "dimension": traj.grid.N,
        "resolution": list(traj.grid.resolution),
        "half_domain": list(traj.grid.half_domain),
        "spacings": list(traj.grid.spacings),
        "boundary": traj.grid.boundary,
        "p": list(traj.exponents.p),
        "eps": traj.eps,
        "times": list(traj.times),
        "steps": traj.steps,
        "mass_drift": traj.mass_drift,
        "min_value": traj.min_value,
        "initial_sup": traj.initial.sup(),
    }
    with open(mpath + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(mpath + ".tmp", mpath)
    return path


def load_trajectory(path: str) -> Trajectory:
    """Read back a trajectory directory; snapshot values round-trip bit-exactly.

    snapshots.f64 is read with one `readinto` into a preallocated (len(times), n_cells)
    array that the trajectory keeps, so loading holds the snapshots in memory once.  Every
    fault of the directory raises `IngestionError`: a missing or undecodable manifest, a
    format other than 2, a missing key, a true or false for a number, a value the grid, the
    exponents or the trajectory reject, spacings that are not the grid's, exponents whose
    count is not the grid's dimension, a data file that does not hold exactly len(times) x
    n_cells values, and an initial_sup that is not the max of the first snapshot.
    """
    mpath = os.path.join(path, "manifest.json")
    if not os.path.exists(mpath):
        raise IngestionError(f"no manifest.json in {path!r}")
    try:
        with open(mpath, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != TRAJECTORY_FORMAT:
            raise IngestionError(
                f"trajectory format {manifest.get('format')!r} in {path!r} is not "
                f"{TRAJECTORY_FORMAT}; rerun `anisofast run` to rewrite it"
            )
        grid = build_grid(
            [_real(x, "half_domain") for x in manifest["half_domain"]],
            [_integer(n, "resolution") for n in manifest["resolution"]],
            manifest["boundary"],
        )
        if [_real(h, "spacings") for h in manifest["spacings"]] != list(grid.spacings):
            raise ValueError(f"spacings {manifest['spacings']} are not the grid's {grid.spacings}")
        p = [_real(x, "p") for x in manifest["p"]]
        prof = derive_exponents(p, _integer(manifest["dimension"], "dimension"))
        times = tuple(_real(t, "times") for t in manifest["times"])
        eps, initial_sup = (_real(manifest[k], k) for k in ("eps", "initial_sup"))
        steps, mass_drift, min_value = (manifest[k] for k in ("steps", "mass_drift", "min_value"))
    except IngestionError:
        raise
    except KeyError as missing:
        raise IngestionError(f"manifest.json in {path!r} lacks key {missing}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:  # bad JSON or values
        raise IngestionError(f"invalid manifest.json in {path!r}: {exc}") from exc
    dpath = os.path.join(path, SNAPSHOTS_FILE)
    if not os.path.exists(dpath):
        raise IngestionError(f"no {SNAPSHOTS_FILE} in {path!r}")
    values = np.empty((len(times), grid.n_cells), dtype=SNAPSHOT_DTYPE)
    with open(dpath, "rb") as fh:
        complete = fh.readinto(values) == values.nbytes and not fh.read(1)
    if not complete:
        raise IngestionError(
            f"{SNAPSHOTS_FILE} in {path!r} does not hold {len(times)} x {grid.n_cells} values"
        )
    values.flags.writeable = False
    try:
        traj = Trajectory(grid, prof, eps, values, times, steps, mass_drift, min_value)
    except IngestionError as exc:  # times, eps, steps, mass_drift or min_value
        raise IngestionError(f"invalid manifest.json in {path!r}: {exc}") from None
    if initial_sup != traj.initial.sup():
        raise IngestionError(f"initial_sup in {path!r} is not the max of the first snapshot")
    return traj
