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
"""

from __future__ import annotations

import bisect
import json
import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BlowupError, ConfigError, DomainError, IngestionError
from .geometry import ExponentProfile, derive_exponents

BOUNDARIES = ("dirichlet_zero", "periodic")

PROFILE_KINDS = ("sine_product", "bump", "plateau", "from_file")

SNAPSHOT_DTYPE = "<f8"  # little-endian float64, row-major

_TIME_RTOL = 1e-12

#: relative tolerance of `Trajectory.window` on its end points
WINDOW_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the box prod_i (-half_domain[i], half_domain[i])."""

    half_domain: tuple[float, ...]
    resolution: tuple[int, ...]
    boundary: str

    @property
    def N(self) -> int:
        return len(self.resolution)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * H / n for H, n in zip(self.half_domain, self.resolution))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axis_centers(self, i: int) -> np.ndarray:
        h = self.spacings[i]
        return -self.half_domain[i] + h * (np.arange(self.resolution[i]) + 0.5)


def build_grid(
    half_domain: Sequence[float],
    resolution: Sequence[int],
    boundary: str = "dirichlet_zero",
) -> Grid:
    violations = []
    half = tuple(float(x) for x in half_domain)
    res = tuple(int(n) for n in resolution)
    if len(half) != len(res):
        violations.append(
            f"half_domain has {len(half)} entries but resolution has {len(res)}"
        )
    for x in half:
        if not (x > 0.0) or not math.isfinite(x):
            violations.append(f"half_domain entry must be positive, got {x!r}")
    for n in res:
        if n < 4:
            violations.append(f"resolution must be >= 4 per axis, got {n}")
    if boundary not in BOUNDARIES:
        violations.append(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if violations:
        raise ConfigError(violations)
    return Grid(half_domain=half, resolution=res, boundary=boundary)


@dataclass
class Field:
    """Solution values on a grid at one time level, stored flat in row-major order."""

    grid: Grid
    values: np.ndarray
    time: float

    def __post_init__(self):
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
        if self.kind not in PROFILE_KINDS:
            raise ConfigError([f"unknown initial profile {self.kind!r}"])
        if self.amplitude < 0.0:
            raise ConfigError([f"amplitude must be nonnegative, got {self.amplitude}"])
        if self.kind in ("bump", "plateau") and not self.radius > 0.0:
            raise ConfigError([f"radius must be positive, got {self.radius}"])
        if self.kind == "from_file" and not self.path:
            raise ConfigError(["from_file profile requires a path"])


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


def _face_gradients(U: np.ndarray, axis: int, h: float, boundary: str) -> np.ndarray:
    """One-sided difference quotients across faces along one axis.

    Dirichlet returns n+1 faces (ghost value 0 beyond both ends); periodic
    returns n faces, face k sitting between cells k and k+1 (mod n).
    """
    if boundary == "dirichlet_zero":
        pad = [(0, 0)] * U.ndim
        pad[axis] = (1, 1)
        Up = np.pad(U, pad)
        return np.diff(Up, axis=axis) / h
    return (np.roll(U, -1, axis=axis) - U) / h


def stable_dt(
    field: Field, prof: ExponentProfile, eps: float, safety: float = 0.5
) -> float:
    """Adaptive explicit step: safety / sum_i (2 * a_i_max / h_i^2).

    a_i_max = max over faces of (p_i - 1)(g^2 + eps^2)^((p_i-2)/2).  Since the
    exponent is nonpositive for p_i <= 2, the face maximum is attained at the
    smallest g^2, so only min(g^2) is needed per axis.
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    if not 0.0 < safety <= 1.0:
        raise DomainError(f"safety must lie in (0, 1], got {safety!r}")
    grid = field.grid
    if prof.N != grid.N:
        raise DomainError(f"profile dimension {prof.N} != grid dimension {grid.N}")
    U = field.reshaped()
    denom = 0.0
    for i, pi in enumerate(prof.p):
        h = grid.spacings[i]
        g = _face_gradients(U, i, h, grid.boundary)
        g2_min = float((g * g).min())
        a_max = (pi - 1.0) * (g2_min + eps * eps) ** ((pi - 2.0) / 2.0)
        denom += 2.0 * a_max / (h * h)
    return safety / denom


def advance(field: Field, prof: ExponentProfile, eps: float, dt: float) -> Field:
    """One conservative explicit Euler step of size dt."""
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    grid = field.grid
    U = field.reshaped()
    eps2 = eps * eps
    div = None
    for i, pi in enumerate(prof.p):
        h = grid.spacings[i]
        g = _face_gradients(U, i, h, grid.boundary)
        F = (g * g + eps2) ** ((pi - 2.0) / 2.0) * g
        if grid.boundary == "dirichlet_zero":
            d = np.diff(F, axis=i) / h
        else:
            d = (F - np.roll(F, 1, axis=i)) / h
        div = d if div is None else div + d
    new = U + dt * div
    t_new = field.time + dt
    if not np.isfinite(new).all():
        raise BlowupError(t_new)
    return Field(grid=grid, values=new.ravel(), time=t_new)


def uniform_snapshots(t_end: float, count: int) -> tuple[float, ...]:
    """Uniform snapshot schedule over [0, t_end] with `count` snapshots incl. t=0."""
    if count < 1:
        raise ConfigError([f"snapshot count must be >= 1, got {count}"])
    if t_end == 0.0 or count == 1:
        return (0.0,)
    return tuple(np.linspace(0.0, t_end, count))


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
        violations = []
        if self.t_end < 0.0:
            violations.append(f"t_end must be nonnegative, got {self.t_end}")
        if not self.eps > 0.0:
            violations.append(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.safety <= 1.0:
            violations.append(f"safety must lie in (0, 1], got {self.safety}")
        if self.exponents.N != self.grid.N:
            violations.append(
                f"{self.exponents.N} exponents for a {self.grid.N}-dimensional grid"
            )
        if violations:
            raise ConfigError(violations)
        if self.snapshot_times is None:
            object.__setattr__(self, "snapshot_times", uniform_snapshots(self.t_end, 101))
        times = tuple(float(t) for t in self.snapshot_times)
        if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(["snapshot times must start at 0 and increase strictly"])
        if times[-1] > self.t_end * (1.0 + _TIME_RTOL):
            raise ConfigError(["snapshot times must not exceed t_end"])
        object.__setattr__(self, "snapshot_times", times)


@dataclass
class Trajectory:
    """Snapshots of one run as one (S, n_cells) array, plus the (time, dt) step log.

    Row k of `values` is the flattened field at `times[k]`; times never
    decrease.  `snapshots`, `initial` and `sup_series` are views or
    reductions of that one array, never copies of it.
    """

    grid: Grid
    exponents: ExponentProfile
    eps: float
    values: np.ndarray
    times: tuple[float, ...]
    step_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_dts: np.ndarray = field(default_factory=lambda: np.empty(0))
    mass_drift: Optional[float] = None
    min_value: float = 0.0

    def __post_init__(self):
        self.times = tuple(float(t) for t in self.times)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if not self.times:
            raise IngestionError("trajectory has no snapshots")
        if self.values.shape != (len(self.times), self.grid.n_cells):
            raise IngestionError(
                f"snapshot array of shape {self.values.shape} for {len(self.times)} "
                f"times on a grid of {self.grid.n_cells} cells"
            )
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise IngestionError("snapshot times must not decrease")

    @classmethod
    def from_fields(
        cls, grid: Grid, exponents: ExponentProfile, eps: float, fields: Sequence[Field]
    ) -> "Trajectory":
        """Stack time-ordered fields on `grid` into one trajectory."""
        values = np.empty((len(fields), grid.n_cells))
        for k, f in enumerate(fields):
            if f.grid != grid:
                raise IngestionError(f"snapshot {k} lives on a different grid")
            values[k] = f.values
        return cls(grid, exponents, eps, values, tuple(f.time for f in fields))

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
        return self.values.max(axis=1)

    def window(self, t_a: float, t_b: float) -> slice:
        """Rows with t_a - tol <= time <= t_b + tol, tol = 1e-9 max(1, |t_b|)."""
        tol = WINDOW_RTOL * max(1.0, abs(t_b))
        return slice(
            bisect.bisect_left(self.times, t_a - tol),
            bisect.bisect_right(self.times, t_b + tol),
        )


def run(config: SimConfig) -> Trajectory:
    """Integrate to t_end, hitting every snapshot time exactly; deterministic.

    The loop fuses the `stable_dt` and `advance` contracts into one kernel so
    each axis gradient is computed once per step; the arithmetic (and hence
    every bit of the result) matches composing the two public operations.
    """
    grid = config.grid
    prof = config.exponents
    initial = init_field(grid, config.profile)
    values = np.empty((len(config.snapshot_times), grid.n_cells))
    values[0] = initial.values
    times = [initial.time]
    times_log = array("d")
    dts_log = array("d")
    periodic = grid.boundary == "periodic"
    mass0 = float(initial.values.sum()) if periodic else 0.0
    drift = 0.0
    min_value = float(initial.values.min())

    eps = config.eps
    eps2 = eps * eps
    spacings = grid.spacings
    ghosts = []
    if not periodic:
        for i in range(grid.N):
            shape = list(grid.shape)
            shape[i] += 2
            sl = [slice(None)] * grid.N
            sl[i] = slice(1, -1)
            ghosts.append((np.zeros(shape), tuple(sl)))

    U = initial.reshaped().copy()
    t_now = 0.0
    for k, target in enumerate(config.snapshot_times[1:], start=1):
        while t_now < target * (1.0 - _TIME_RTOL):
            gradients = []
            denom = 0.0
            for i, pi in enumerate(prof.p):
                h = spacings[i]
                if periodic:
                    g = (np.roll(U, -1, axis=i) - U) / h
                else:
                    buf, interior = ghosts[i]
                    buf[interior] = U
                    g = np.diff(buf, axis=i) / h
                g2 = g * g
                a_max = (pi - 1.0) * (float(g2.min()) + eps2) ** ((pi - 2.0) / 2.0)
                denom += 2.0 * a_max / (h * h)
                gradients.append((g, g2))
            dt_cfl = config.safety / denom
            remaining = target - t_now
            clipped = dt_cfl >= remaining
            dt = remaining if clipped else dt_cfl

            div = None
            for i, pi in enumerate(prof.p):
                g, g2 = gradients[i]
                flux = g2
                flux += eps2
                np.power(flux, (pi - 2.0) / 2.0, out=flux)
                flux *= g
                if periodic:
                    d = (flux - np.roll(flux, 1, axis=i)) / spacings[i]
                else:
                    d = np.diff(flux, axis=i) / spacings[i]
                div = d if div is None else div + d
            div *= dt
            U += div
            t_now = target if clipped else t_now + dt
            if not np.isfinite(U).all():
                raise BlowupError(t_now)
            times_log.append(t_now)
            dts_log.append(dt)
            min_value = min(min_value, float(U.min()))
            if periodic:
                mass = float(U.sum())
                if mass0 != 0.0:
                    drift = max(drift, abs(mass - mass0) / abs(mass0))
                else:
                    drift = max(drift, abs(mass))
        values[k] = U.ravel()
        times.append(t_now)

    return Trajectory(
        grid=grid,
        exponents=prof,
        eps=config.eps,
        values=values,
        times=tuple(times),
        step_times=np.array(times_log, dtype=np.float64),
        step_dts=np.array(dts_log, dtype=np.float64),
        mass_drift=drift if periodic else None,
        min_value=min_value,
    )


# --- persistence: directory of raw snapshots plus one JSON manifest ---------


def save_trajectory(traj: Trajectory, path: str) -> str:
    """Write snapshots as little-endian float64 files plus manifest.json."""
    os.makedirs(path, exist_ok=True)
    entries = []
    for k, (row, t) in enumerate(zip(traj.values, traj.times)):
        name = f"snap_{k:06d}.f64"
        with open(os.path.join(path, name), "wb") as fh:
            fh.write(np.ascontiguousarray(row, dtype=SNAPSHOT_DTYPE))
        entries.append({"time": t, "file": name})
    manifest = {
        "format": 1,
        "dimension": traj.grid.N,
        "resolution": list(traj.grid.resolution),
        "half_domain": list(traj.grid.half_domain),
        "spacings": list(traj.grid.spacings),
        "boundary": traj.grid.boundary,
        "p": list(traj.exponents.p),
        "eps": traj.eps,
        "snapshots": entries,
        "steps": int(traj.step_dts.size),
        "mass_drift": traj.mass_drift,
        "min_value": traj.min_value,
        "initial_sup": traj.initial.sup(),
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_trajectory(path: str) -> Trajectory:
    """Read back a trajectory directory; snapshot values round-trip bit-exactly.

    Each snapshot file is read straight into its row of one preallocated
    array, so loading holds the snapshots in memory once.
    """
    mpath = os.path.join(path, "manifest.json")
    if not os.path.exists(mpath):
        raise IngestionError(f"no manifest.json in {path!r}")
    with open(mpath, encoding="utf-8") as fh:
        manifest = json.load(fh)
    grid = build_grid(
        manifest["half_domain"], manifest["resolution"], manifest["boundary"]
    )
    prof = derive_exponents(manifest["p"], manifest["dimension"])
    entries = manifest["snapshots"]
    if not entries:
        raise IngestionError(f"trajectory at {path!r} has no snapshots")
    values = np.empty((len(entries), grid.n_cells), dtype=SNAPSHOT_DTYPE)
    for row, entry in zip(values, entries):
        fpath = os.path.join(path, entry["file"])
        if not os.path.exists(fpath):
            raise IngestionError(f"missing snapshot file {entry['file']!r} in {path!r}")
        with open(fpath, "rb") as fh:
            complete = fh.readinto(row) == row.nbytes and not fh.read(1)
        if not complete:
            raise IngestionError(
                f"snapshot file {entry['file']!r} does not hold {grid.n_cells} values"
            )
    return Trajectory(
        grid=grid,
        exponents=prof,
        eps=float(manifest["eps"]),
        values=values.astype(np.float64, copy=False),
        times=tuple(float(entry["time"]) for entry in entries),
        mass_drift=manifest.get("mass_drift"),
        min_value=float(manifest.get("min_value", 0.0)),
    )
