"""Evaluate both sides of the integral Harnack-type inequalities on a trajectory.

Each checker measures the left side and every named right-side term of one
inequality at user-supplied (rho, t, r, C), and reports gamma_min = lhs / sum
of right-side terms: the smallest constant that makes this instance of the
inequality hold.  Nothing is asserted against a fixed threshold here; the
structural constants of the inequalities are not numeric, so stability of
gamma_min across parameter/refinement families is what the test suites check.

Cube quadrature is a midpoint rule with tensor-product clipping: each cell
contributes the product of its per-axis overlap fractions with the cube, so
constant integrands are integrated exactly and the face error is O(h).  It
runs on a whole window of snapshot rows at once: only the support box of the
cube's weights is read, and it is contracted one axis at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import (
    CubeSpec,
    GEOMETRIES,
    intrinsic_cube,
    scale_cube,
    smallness_violated,
    standard_cube,
)
from .solver import WINDOW_RTOL, Field, Grid, Trajectory

THEOREMS = (
    "L1L1_intrinsic",
    "L1L1_standard",
    "L1Linf_intrinsic",
    "L1Linf_standard",
    "LrLinf_sup",
    "LrLinf_sup_standard",
    "Lr_backward_intrinsic",
    "Lr_backward_standard",
    "Backwards_composite_intrinsic",
    "Backwards_composite_standard",
    "Caccioppoli",
)

GAMMA_INFINITE = float("inf")


@dataclass(frozen=True)
class InequalityReport:
    """Measured sides of one inequality instance plus its minimal constant."""

    theorem: str
    lhs: float
    rhs_terms: dict[str, float]
    gamma_min: float
    smallness_triggered: bool
    smallness_index: Optional[int]
    params: dict[str, float]
    applicable: bool = True
    reason: str = ""
    hypothesis_ok: bool = True
    snapshots_in_window: int = 0

    @property
    def rhs_total(self) -> float:
        return float(sum(self.rhs_terms.values()))


def gamma_min(lhs: float, rhs_terms) -> float:
    """lhs / sum(rhs_terms); 0 when lhs = 0; +inf when lhs > 0 but the sum is 0."""
    lhs = float(lhs)
    terms = [float(x) for x in rhs_terms]
    for value in [lhs, *terms]:
        if value < 0.0 or not math.isfinite(value):
            raise DomainError(f"gamma_min needs nonnegative finite inputs, got {value!r}")
    if lhs == 0.0:
        return 0.0
    total = sum(terms)
    if total == 0.0:
        return GAMMA_INFINITE
    return lhs / total


# --- cube quadrature ---------------------------------------------------------


def _axis_weights(grid: Grid, cube: CubeSpec) -> list[np.ndarray]:
    """Per-axis overlap fraction of each cell with the cube (0..1)."""
    if cube.N != grid.N:
        raise DomainError(f"cube dimension {cube.N} != grid dimension {grid.N}")
    weights = []
    for i in range(grid.N):
        h = grid.spacings[i]
        centers = grid.axis_centers(i)
        lo = cube.center[i] - cube.half_widths[i]
        hi = cube.center[i] + cube.half_widths[i]
        overlap = np.minimum(centers + 0.5 * h, hi) - np.maximum(centers - 0.5 * h, lo)
        weights.append(np.clip(overlap, 0.0, h) / h)
    return weights


def _tensor(factors: list[np.ndarray]) -> np.ndarray:
    """Outer product of per-axis factors on the grid they span."""
    out = np.ones(tuple(f.size for f in factors))
    for i, f in enumerate(factors):
        shape = [1] * len(factors)
        shape[i] = -1
        out = out * f.reshape(shape)
    return out


def _span(mask: np.ndarray) -> Optional[slice]:
    """Slice from the first to the last marked cell of one axis; None if none is."""
    idx = np.flatnonzero(mask)
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else None


def _cube_integrals(grid: Grid, rows: np.ndarray, cube: CubeSpec, r: float) -> np.ndarray:
    """Midpoint quadrature of max(u, 0)^r (u itself at r = 1) over the cube,
    for every row of an (S, n_cells) snapshot array.

    Only the support box (the cells of nonzero weight) is read; it is
    contracted one axis at a time against that axis's weights, innermost
    axis first.
    """
    if r < 1.0:
        raise DomainError(f"integral order r must be >= 1, got {r!r}")
    weights = _axis_weights(grid, cube)
    spans = [_span(w > 0.0) for w in weights]
    if None in spans:
        warnings.warn("cube does not intersect the grid domain; integral is 0", stacklevel=3)
        return np.zeros(len(rows))
    block = rows.reshape(-1, *grid.shape)[(slice(None), *spans)]
    if r != 1.0:
        block = np.maximum(block, 0.0)
        block **= r
    for w, span in zip(reversed(weights), reversed(spans)):
        block = block @ w[span]
    return block * grid.cell_volume


def _cube_sups(grid: Grid, rows: np.ndarray, cube: CubeSpec) -> np.ndarray:
    """Maximum over the cells whose centers lie in the (open) cube, per row."""
    if cube.N != grid.N:
        raise DomainError(f"cube dimension {cube.N} != grid dimension {grid.N}")
    spans = [
        _span(np.abs(grid.axis_centers(i) - cube.center[i]) < cube.half_widths[i])
        for i in range(grid.N)
    ]
    if None in spans:
        warnings.warn("no cell centers inside the cube; sup is 0", stacklevel=3)
        return np.zeros(len(rows))
    block = rows.reshape(-1, *grid.shape)[(slice(None), *spans)]
    return block.max(axis=tuple(range(1, grid.N + 1)))


def cube_integral(field: Field, cube: CubeSpec, r: float = 1.0) -> float:
    """Midpoint quadrature of u^r over the cube clipped to the grid domain.

    For r > 1 the integrand is max(u, 0)^r; the solver monitors but does not
    clamp round-off negatives, and fractional powers must not see them.
    """
    return float(_cube_integrals(field.grid, field.values[None], cube, r)[0])


def cube_sup(field: Field, cube: CubeSpec) -> float:
    """Maximum of u over cells whose centers lie in the (open) cube."""
    return float(_cube_sups(field.grid, field.values[None], cube)[0])


def cube_contained(cube: CubeSpec, grid: Grid) -> bool:
    """Whether the cube sits inside the computational box (theorem hypothesis)."""
    tol = 1e-12
    return all(
        abs(cube.center[i]) + cube.half_widths[i]
        <= grid.half_domain[i] * (1.0 + tol) + tol
        for i in range(grid.N)
    )


# --- time-window reductions --------------------------------------------------

_EXTREMA = {"sup_l1": np.max, "inf_l1": np.min, "sup_lr": np.max, "sup_linf": np.max}


def time_extremal(
    traj: Trajectory,
    cube: CubeSpec,
    window: tuple[float, float],
    kind: str,
    r: float = 1.0,
) -> float:
    """Extremum over snapshots in the window of a per-snapshot cube reduction.

    The cube is fixed; it is not re-evaluated per snapshot time.  kind is one
    of sup_l1 | inf_l1 | sup_lr | sup_linf (sup_lr uses the order r).  All
    snapshots of the window are reduced at once.
    """
    t_a, t_b = float(window[0]), float(window[1])
    if t_b < t_a:
        raise DomainError(f"empty window [{t_a}, {t_b}]")
    rows = traj.values[traj.window(t_a, t_b)]
    if not len(rows):
        raise DomainError(f"no snapshots in window [{t_a}, {t_b}]")
    if kind not in _EXTREMA:
        raise DomainError(f"unknown reduction kind {kind!r}")
    if kind == "sup_linf":
        per_snapshot = _cube_sups(traj.grid, rows, cube)
    else:
        per_snapshot = _cube_integrals(traj.grid, rows, cube, r if kind == "sup_lr" else 1.0)
    return float(_EXTREMA[kind](per_snapshot))


# --- the checkers ------------------------------------------------------------


def _validate_window(traj: Trajectory, t: float) -> None:
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t!r}")
    if t > traj.end_time * (1.0 + WINDOW_RTOL):
        raise DomainError(
            f"window [0, {t}] exceeds the trajectory horizon {traj.end_time}"
        )


def _snapshots_until(traj: Trajectory, t: float) -> int:
    window = traj.window(0.0, t)
    return window.stop - window.start


def _base_cubes(traj: Trajectory, rho: float, t: float, geometry: str):
    """(K_rho, K_{2rho}, K_{rho/2}) for the requested geometry at time level t."""
    prof = traj.exponents
    if geometry == "intrinsic":
        base = intrinsic_cube(rho, t, prof)
        return base, scale_cube(base, 2.0), scale_cube(base, 0.5)
    return (
        standard_cube(rho, prof),
        standard_cube(2.0 * rho, prof),
        standard_cube(0.5 * rho, prof),
    )


def _check_geometry(geometry: str) -> None:
    if geometry not in GEOMETRIES:
        raise DomainError(f"geometry must be one of {GEOMETRIES}, got {geometry!r}")


def _params(rho: float, t: float, C: float, geometry: str, r: float | None = None):
    params = {"rho": float(rho), "t": float(t), "C": float(C), "geometry": geometry}
    if r is not None:
        params["r"] = float(r)
    return params


def _not_applicable(theorem, params, reason) -> InequalityReport:
    return InequalityReport(
        theorem=theorem,
        lhs=float("nan"),
        rhs_terms={},
        gamma_min=float("nan"),
        smallness_triggered=False,
        smallness_index=None,
        params=params,
        applicable=False,
        reason=reason,
    )


def check_l1l1(
    traj: Trajectory, rho: float, t: float, geometry: str = "intrinsic", C: float = 0.0
) -> InequalityReport:
    """sup_{0<=tau<=t} int_{K_rho} u  vs  inf over the doubled cube + scaling term."""
    _check_geometry(geometry)
    _validate_window(traj, t)
    prof = traj.exponents
    cube, cube2, _ = _base_cubes(traj, rho, t, geometry)
    lhs = time_extremal(traj, cube, (0.0, t), "sup_l1")
    inf_doubled = time_extremal(traj, cube2, (0.0, t), "inf_l1")
    if geometry == "intrinsic":
        scaling = (t / rho**prof.lam) ** (1.0 / (2.0 - prof.p_bar))
        terms = {"inf_doubled": inf_doubled, "scaling": scaling}
        theorem = "L1L1_intrinsic"
    else:
        scaling = sum(
            (t / rho**li) ** (1.0 / (2.0 - pi)) for li, pi in zip(prof.lam_i, prof.p)
        )
        terms = {"inf_doubled": inf_doubled, "scaling_sum": scaling}
        theorem = "L1L1_standard"
    violated, index = smallness_violated(C, rho, t, prof, geometry)
    return InequalityReport(
        theorem=theorem,
        lhs=lhs,
        rhs_terms=terms,
        gamma_min=gamma_min(lhs, terms.values()),
        smallness_triggered=violated,
        smallness_index=index,
        params=_params(rho, t, C, geometry),
        hypothesis_ok=cube_contained(cube2, traj.grid),
        snapshots_in_window=_snapshots_until(traj, t),
    )


def check_l1linf(
    traj: Trajectory, rho: float, t: float, geometry: str = "intrinsic", C: float = 0.0
) -> InequalityReport:
    """sup over K_{rho/2} x [t/2, t]  vs  t^(-N/lam) (inf mass)^(p_bar/lam) + scaling.

    Requires the supercritical range lam > 0; otherwise a not-applicable
    report is returned (no exception).
    """
    _check_geometry(geometry)
    _validate_window(traj, t)
    prof = traj.exponents
    theorem = "L1Linf_intrinsic" if geometry == "intrinsic" else "L1Linf_standard"
    params = _params(rho, t, C, geometry)
    if prof.lam <= 0.0:
        return _not_applicable(
            theorem, params, f"lam={prof.lam:.6g} <= 0 (subcritical range)"
        )
    cube, cube2, half = _base_cubes(traj, rho, t, geometry)
    lhs = time_extremal(traj, half, (0.5 * t, t), "sup_linf")
    inf_doubled = time_extremal(traj, cube2, (0.0, t), "inf_l1")
    base = t / rho**prof.p_bar
    harnack_term = t ** (-prof.N / prof.lam) * inf_doubled ** (prof.p_bar / prof.lam)
    if geometry == "intrinsic":
        terms = {
            "harnack": harnack_term,
            "scaling": base ** (1.0 / (2.0 - prof.p_bar)),
        }
    else:
        terms = {
            "harnack": harnack_term,
            "scaling_weighted_sum": sum(
                base ** (li / ((2.0 - pi) * prof.lam))
                for li, pi in zip(prof.lam_i, prof.p)
            ),
            "scaling_sum": sum(base ** (1.0 / (2.0 - pi)) for pi in prof.p),
        }
    violated, index = smallness_violated(C, rho, t, prof, geometry)
    return InequalityReport(
        theorem=theorem,
        lhs=lhs,
        rhs_terms=terms,
        gamma_min=gamma_min(lhs, terms.values()),
        smallness_triggered=violated,
        smallness_index=index,
        params=params,
        hypothesis_ok=cube_contained(cube2, traj.grid),
        snapshots_in_window=_snapshots_until(traj, t),
    )


def check_lr_sup(
    traj: Trajectory,
    rho: float,
    t: float,
    r: float,
    geometry: str = "intrinsic",
    C: float = 0.0,
) -> InequalityReport:
    """sup over K_{rho/2} x [t/2, t]  vs  the time-sup of the mean of u^r.

    Requires lam_r = N(p_bar-2) + r*p_bar > 0; otherwise not-applicable.
    """
    _check_geometry(geometry)
    _validate_window(traj, t)
    if r < 1.0:
        raise DomainError(f"r must be >= 1, got {r!r}")
    prof = traj.exponents
    lam_r = prof.lam_r(r)
    theorem = "LrLinf_sup" if geometry == "intrinsic" else "LrLinf_sup_standard"
    params = _params(rho, t, C, geometry, r)
    if lam_r <= 0.0:
        return _not_applicable(theorem, params, f"lam_r={lam_r:.6g} <= 0")
    cube, cube2, half = _base_cubes(traj, rho, t, geometry)
    lhs = time_extremal(traj, half, (0.5 * t, t), "sup_linf")
    volume = (2.0 * rho) ** prof.N
    sup_mean = time_extremal(traj, cube, (0.0, t), "sup_lr", r) / volume
    base = t / rho**prof.p_bar
    mean_term = base ** (-prof.N / lam_r) * sup_mean ** (prof.p_bar / lam_r)
    if geometry == "intrinsic":
        terms = {"mean_term": mean_term, "scaling": base ** (1.0 / (2.0 - prof.p_bar))}
        # theorem hypothesis asks for the 4*rho cube inside the domain
        hyp = cube_contained(scale_cube(cube, 4.0), traj.grid)
    else:
        terms = {
            "mean_term": mean_term,
            "scaling_sum": sum(base ** (1.0 / (2.0 - pi)) for pi in prof.p),
        }
        hyp = cube_contained(cube, traj.grid)
    violated, index = smallness_violated(C, rho, t, prof, geometry)
    return InequalityReport(
        theorem=theorem,
        lhs=lhs,
        rhs_terms=terms,
        gamma_min=gamma_min(lhs, terms.values()),
        smallness_triggered=violated,
        smallness_index=index,
        params=params,
        hypothesis_ok=hyp,
        snapshots_in_window=_snapshots_until(traj, t),
    )


def check_lr_backward(
    traj: Trajectory,
    rho: float,
    t: float,
    r: float,
    geometry: str = "intrinsic",
    C: float = 0.0,
) -> InequalityReport:
    """sup_{0<=tau<=t} int_{K_rho} u^r  vs  the initial-datum integral + scaling."""
    _check_geometry(geometry)
    _validate_window(traj, t)
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r!r}")
    prof = traj.exponents
    cube, cube2, _ = _base_cubes(traj, rho, t, geometry)
    lhs = time_extremal(traj, cube, (0.0, t), "sup_lr", r)
    initial = cube_integral(traj.initial, cube2, r)
    if geometry == "intrinsic":
        scaling = (t**r / rho ** prof.lam_r(r)) ** (1.0 / (2.0 - prof.p_bar))
        terms = {"initial_doubled": initial, "scaling": scaling}
        theorem = "Lr_backward_intrinsic"
    else:
        scaling = sum(
            (t**r / rho**lir) ** (1.0 / (2.0 - pi))
            for lir, pi in zip(prof.lam_ir(r), prof.p)
        )
        terms = {"initial_doubled": initial, "scaling_sum": scaling}
        theorem = "Lr_backward_standard"
    violated, index = smallness_violated(C, rho, t, prof, geometry)
    return InequalityReport(
        theorem=theorem,
        lhs=lhs,
        rhs_terms=terms,
        gamma_min=gamma_min(lhs, terms.values()),
        smallness_triggered=violated,
        smallness_index=index,
        params=_params(rho, t, C, geometry, r),
        hypothesis_ok=cube_contained(cube2, traj.grid),
        snapshots_in_window=_snapshots_until(traj, t),
    )


def check_backwards_composite(
    traj: Trajectory,
    rho: float,
    t: float,
    r: float,
    geometry: str = "intrinsic",
    C: float = 0.0,
) -> InequalityReport:
    """sup over K_{rho/2} x [t/2, t]  vs  t^(-N/lam_r) (initial u^r mass)^(p_bar/lam_r)."""
    _check_geometry(geometry)
    _validate_window(traj, t)
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r!r}")
    prof = traj.exponents
    lam_r = prof.lam_r(r)
    theorem = (
        "Backwards_composite_intrinsic"
        if geometry == "intrinsic"
        else "Backwards_composite_standard"
    )
    params = _params(rho, t, C, geometry, r)
    if lam_r <= 0.0:
        return _not_applicable(theorem, params, f"lam_r={lam_r:.6g} <= 0")
    cube, cube2, half = _base_cubes(traj, rho, t, geometry)
    lhs = time_extremal(traj, half, (0.5 * t, t), "sup_linf")
    initial = cube_integral(traj.initial, cube2, r)
    initial_term = t ** (-prof.N / lam_r) * initial ** (prof.p_bar / lam_r)
    base = t / rho**prof.p_bar
    if geometry == "intrinsic":
        terms = {
            "initial_term": initial_term,
            "scaling": base ** (1.0 / (2.0 - prof.p_bar)),
        }
    else:
        terms = {
            "initial_term": initial_term,
            "scaling_weighted_sum": sum(
                base ** (lir / ((2.0 - pi) * lam_r))
                for lir, pi in zip(prof.lam_ir(r), prof.p)
            ),
            "scaling_sum": sum(base ** (1.0 / (2.0 - pi)) for pi in prof.p),
        }
    violated, index = smallness_violated(C, rho, t, prof, geometry)
    return InequalityReport(
        theorem=theorem,
        lhs=lhs,
        rhs_terms=terms,
        gamma_min=gamma_min(lhs, terms.values()),
        smallness_triggered=violated,
        smallness_index=index,
        params=params,
        hypothesis_ok=cube_contained(cube2, traj.grid),
        snapshots_in_window=_snapshots_until(traj, t),
    )
