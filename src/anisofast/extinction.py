"""Numerical extinction detection and fitting of the predicted decay exponents.

With eps > 0 the regularized equation decays exponentially below the
eps-dominated scale instead of hitting exact zero, so "extinction" here means
the global sup crossing a small threshold, and the log-log fits exclude the
contaminated tail below 10x that threshold.  Decay samples are taken in both
geometries at once: the intrinsic cube K_rho(t_star - tau) follows each
sample, the standard cube is fixed.  Each row's intrinsic half-widths are
plain floats; one cube is built per run of rows on one footprint, and the run
is reduced in one call, so an isotropic profile, whose every K_rho(t) is the
standard cube, has intrinsic samples equal to its standard ones.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .geometry import (
    _FINITE, GEOMETRIES, ExponentProfile, _intrinsic_widths, _not_a_number, _violation,
    intrinsic_cube, scale_cube, standard_cube,
)
from .harnack import _cube_integrals, _cube_sups, cube_contained
from .solver import Trajectory

#: sup values below FLOOR_FACTOR * threshold are excluded from fit windows
FLOOR_FACTOR = 10.0

#: least-squares fits need at least this many samples
MIN_FIT_POINTS = 8


@dataclass(frozen=True)
class PowerLawFit:
    """Least squares on (log x, log y): y ~ exp(intercept) * x^slope."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    slope_stderr: float


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares on logs; exact on synthetic pure power laws."""
    floats = isinstance(points, np.ndarray) and points.dtype == np.float64  # `_fit_or_none`'s
    arr = np.asarray(points, dtype=np.float64 if floats else object)  # a ragged list is 1-D
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise DomainError("fit_power_law needs at least 3 (x, y) pairs")
    for value in () if floats else arr.flat:  # float(True) and float("1") are 1.0, no numbers
        if fault := _not_a_number("points", value):
            raise DomainError(fault)
    arr = arr.astype(np.float64, copy=False)
    if (arr <= 0.0).any() or not np.isfinite(arr).all():
        raise DomainError("fit_power_law needs strictly positive finite points")
    lx = np.log(arr[:, 0])
    ly = np.log(arr[:, 1])
    n = lx.size
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DomainError("fit_power_law needs at least two distinct x values")
    slope = float(dx @ (ly - ly.mean())) / sxx
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    ss_res = float(resid @ resid)
    ss_tot = float((ly - ly.mean()) @ (ly - ly.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    return PowerLawFit(
        slope=slope, intercept=intercept, r_squared=r2, n_points=n, slope_stderr=stderr
    )


def detect_extinction(traj: Trajectory, threshold: float) -> Optional[float]:
    """Earliest time the global sup drops below the threshold, or None.

    The crossing is interpolated linearly in log(sup u) between the two
    bracketing snapshots; if the first sub-threshold snapshot holds an exact
    zero (or the trajectory starts below the threshold) its own time is
    returned.
    """
    if fault := _violation("threshold", threshold):
        raise DomainError(fault)
    threshold = float(threshold)
    sups = traj.sup_series()
    times = np.asarray(traj.times)
    below = sups < threshold
    if not below.any():
        return None
    k = int(np.argmax(below))
    if k == 0 or sups[k] <= 0.0:
        return float(times[k])
    s_prev, s_next = sups[k - 1], sups[k]
    frac = (math.log(s_prev) - math.log(threshold)) / (math.log(s_prev) - math.log(s_next))
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


@dataclass(frozen=True)
class DecaySamples:
    """Per-snapshot decay observables before t_star, in both geometries."""

    tau: np.ndarray
    remaining: np.ndarray  # t_star - tau
    mass_intrinsic: np.ndarray
    sup_intrinsic: np.ndarray
    mass_standard: np.ndarray
    sup_standard: np.ndarray
    contained_4rho: np.ndarray  # whether K_{4 rho}(t_star - tau) fits in the domain
    in_window: np.ndarray  # sup >= FLOOR_FACTOR * threshold


def decay_samples(traj: Trajectory, rho: float, t_star: float, threshold: float) -> DecaySamples:
    """Evaluate mass and sup over K_rho(t_star - tau) and the fixed standard cube.

    Consecutive rows with equal intrinsic half-widths share a footprint (each K_rho(t) is
    origin-centered).  Each such run builds, validates and containment-tests one cube at
    its first t_star - tau and is one reduction, so isotropic intrinsic samples are standard.
    """
    std = standard_cube(rho, traj.exponents)  # rejects a rho not positive and finite
    if fault := _violation("t_star", t_star, _FINITE) or _violation("threshold", threshold):
        raise DomainError(fault)
    threshold = float(threshold)
    # t_star - tau > 0 exactly when tau < t_star, and times never decrease
    before = bisect.bisect_left(traj.times, t_star)
    if before == 0:
        raise DomainError("no snapshots strictly before t_star")
    rows, prof = traj.values[:before], traj.exponents
    tau = np.array(traj.times[:before])
    remaining = t_star - tau
    mass_int, sup_int = np.full((2, before), math.nan)
    contained = np.zeros(before, dtype=bool)
    if prof.strict_fast:
        widths = [_intrinsic_widths(std.rho, s, prof) for s in remaining.tolist()]
        stop = 0
        for _, run in itertools.groupby(widths):
            start, stop = stop, stop + sum(1 for _ in run)
            cube = intrinsic_cube(std.rho, remaining.item(start), prof)
            mass_int[start:stop] = _cube_integrals(traj.grid, rows[start:stop], cube, 1.0)
            sup_int[start:stop] = _cube_sups(traj.grid, rows[start:stop], cube)
            contained[start:stop] = cube_contained(scale_cube(cube, 4.0), traj.grid)
    return DecaySamples(
        tau=tau,
        remaining=remaining,
        mass_intrinsic=mass_int,
        sup_intrinsic=sup_int,
        mass_standard=_cube_integrals(traj.grid, rows, std, 1.0),
        sup_standard=_cube_sups(traj.grid, rows, std),
        contained_4rho=contained,
        in_window=traj.sup_series()[:before] >= FLOOR_FACTOR * threshold,
    )


@dataclass(frozen=True)
class DecayReport:
    """Fitted decay slopes against (t_star - tau) vs the predicted exponents."""

    geometry: str
    t_star: float
    threshold: float
    n_points: int
    mass_slope: float
    mass_stderr: float
    mass_r_squared: float
    mass_theory: float
    mass_applicable: bool
    sup_slope: float
    sup_stderr: float
    sup_r_squared: float
    sup_theory: float
    sup_applicable: bool
    containment_fraction: float
    reason: str = ""


def _intrinsic_rates(prof: ExponentProfile) -> tuple[float, float, str]:
    """Mass and sup over K_rho(t_star - tau) both decay like (t_star - tau)^(1/(2 - p_bar))."""
    if not prof.strict_fast:
        return math.nan, math.nan, "intrinsic geometry needs all p_i < 2"
    rate = 1.0 / (2.0 - prof.p_bar)
    if not prof.lam > 0.0:
        return rate, math.nan, f"lam={prof.lam:.6g} <= 0"
    return rate, rate, ""


def _standard_rates(prof: ExponentProfile) -> tuple[float, float, str]:
    """Over the fixed cube near extinction the largest exponent p_N governs.

    The mass decays like (t_star - tau)^(1/(2 - p_N)), the sup like
    (t_star - tau)^(lam_1 / ((2 - p_N) lam)).
    """
    if not prof.strict_fast:
        return math.nan, math.nan, "decay exponents need all p_i < 2"
    mass = 1.0 / (2.0 - prof.p[-1])
    if not (prof.lam > 0.0 and min(prof.lam_i) > 0.0):
        return mass, math.nan, (
            f"needs lam > 0 and all lam_i > 0; lam={prof.lam:.6g}, "
            f"min lam_i={min(prof.lam_i):.6g}"
        )
    return mass, prof.lam_i[0] / ((2.0 - prof.p[-1]) * prof.lam), ""


#: the predicted decay exponents of each geometry: profile -> (mass rate, sup
#: rate, not-applicable reason); a rate is applicable exactly when it is finite
DECAY_THEORY = {"intrinsic": _intrinsic_rates, "standard": _standard_rates}


def _fit_or_none(x: np.ndarray, y: np.ndarray) -> Optional[PowerLawFit]:
    keep = y > 0.0
    if int(keep.sum()) < MIN_FIT_POINTS:
        return None
    return fit_power_law(np.column_stack([x[keep], y[keep]]))


def decay_reports(
    traj: Trajectory, rho: float, threshold: float
) -> tuple[DecaySamples, tuple[DecayReport, ...]]:
    """Detect t_star, take the decay samples once and fit both geometries.

    The reports come in GEOMETRIES order.  The fit window keeps snapshots
    with tau >= t_star/2 (widened to all pre-extinction snapshots when that
    leaves fewer than MIN_FIT_POINTS) and always drops the
    regularization-contaminated tail sup < 10 * threshold.  Arithmetic out of
    float range in the cubes of rho (an ArithmeticError) is a DomainError.
    """
    t_star = detect_extinction(traj, threshold)
    if t_star is None:
        raise DomainError(f"trajectory never crosses the extinction threshold {threshold!r}")
    try:
        samples = decay_samples(traj, rho, t_star, threshold)
    except ArithmeticError as exc:  # a float ** or / past float64, in any cube formula
        raise DomainError(f"decay_rho={rho!r}: arithmetic out of float range: {exc!r}") from exc
    window = samples.in_window & (samples.tau >= 0.5 * t_star)
    if int(window.sum()) < MIN_FIT_POINTS:
        window = samples.in_window
    x = samples.remaining[window]
    n_points = int(window.sum())
    contained = float(samples.contained_4rho[window].mean()) if n_points else math.nan
    reports = []
    for geometry in GEOMETRIES:
        *rates, reason = DECAY_THEORY[geometry](traj.exponents)
        fits = {}
        for quantity, rate in zip(("mass", "sup"), rates):
            y = getattr(samples, f"{quantity}_{geometry}")[window]
            fit = _fit_or_none(x, y) if math.isfinite(rate) else None
            if math.isfinite(rate) and fit is None:
                reason = (reason + "; " if reason else "") + f"insufficient {quantity} samples"
            fits.update({
                f"{quantity}_slope": fit.slope if fit else math.nan,
                f"{quantity}_stderr": fit.slope_stderr if fit else math.nan,
                f"{quantity}_r_squared": fit.r_squared if fit else math.nan,
                f"{quantity}_theory": rate,
                f"{quantity}_applicable": fit is not None,
            })
        reports.append(DecayReport(
            geometry=geometry, t_star=t_star, threshold=threshold, n_points=n_points,
            containment_fraction=contained, reason=reason, **fits,
        ))
    return samples, tuple(reports)

