"""Evaluate both sides of the integral Harnack-type inequalities on a trajectory.

Each row of CHECKS states one inequality in both geometries.  One evaluator
measures its left side and every named right-side term at user-supplied
(rho, t, r, C), and reports gamma_min = lhs / sum of right-side terms: the
smallest constant that makes this instance of the inequality hold.  Nothing is
asserted against a fixed threshold here; the structural constants of the
inequalities are not numeric, so stability of gamma_min across
parameter/refinement families is what the test suites check.

The five rows share two families.  l1l1 is the r = 1 row of lr_backward and
l1linf the r = 1 row of composite (lam_r(1) is lam, lam_ir(1) is lam_i and
t^1 is t, bit for bit); lr_sup is composite with the cube mean of u^r as its
data term, t/rho^p_bar as that term's base and no weighted sum.

Cube quadrature is a midpoint rule with tensor-product clipping: each cell
contributes the product of its per-axis overlap fractions with the cube, so
constant integrands are integrated exactly and the face error is O(h).  It
runs on a whole window of snapshot rows at once: only the support box of the
cube's weights is read (`_box`) and contracted one axis at a time
(`_contract`), here and in the Caccioppoli report.  A cube's footprint on
a grid (its per-axis weights and spans, and the cells of the open cube)
depends only on its center and half-widths; it is computed once per (grid,
center, half-widths) per process and kept read-only in one bounded cache.
Each distinct reduction of one trajectory, and each cube its checks build,
is computed once and kept by the trajectory (`Trajectory.measured`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .geometry import (
    CubeSpec,
    ExponentProfile,
    GEOMETRIES,
    _BOOL_TYPES,
    _BOOLS,
    _refuse_bools,
    intrinsic_cube,
    nu,
    nu_sigma,
    scale_cube,
    smallness_violated,
    standard_cube,
)
from .solver import WINDOW_RTOL, Field, Grid, Trajectory


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
        """The sum of rhs_terms; NaN for a not-applicable report, which measured nothing."""
        return float(sum(self.rhs_terms.values())) if self.applicable else math.nan


def gamma_min(lhs: float, rhs_terms) -> float:
    """lhs / sum(rhs_terms); 0 when lhs = 0; +inf when lhs > 0 but the sum is 0."""
    values = [lhs, *rhs_terms]
    if not _BOOL_TYPES.isdisjoint(map(type, values)):  # one set test: each check calls this
        _refuse_bools(lhs=lhs, **{f"rhs term {k}": x for k, x in enumerate(values[1:])})
    lhs, *terms = [float(x) for x in values]
    for value in [lhs, *terms]:
        if value < 0.0 or not math.isfinite(value):
            raise DomainError(f"gamma_min needs nonnegative finite inputs, got {value!r}")
    if lhs == 0.0:
        return 0.0
    total = sum(terms)
    if total == 0.0:
        return math.inf
    return lhs / total


# --- cube quadrature ---------------------------------------------------------


@functools.lru_cache(maxsize=1024)  # footprints; a bench analyze reads 2 to 36 distinct ones
def _footprint(grid: Grid, center: tuple, half_widths: tuple) -> tuple[tuple, tuple, tuple]:
    """The footprint on the grid of every cube with this center and these half-widths (any
    kind, rho, t), per axis: the read-only overlap fraction of each cell with the cube
    (0..1), the span of nonzero weight, and the span of the cells whose centers lie in
    the open cube (a span is None if empty)."""
    if len(half_widths) != grid.N:
        raise DomainError(f"cube dimension {len(half_widths)} != grid dimension {grid.N}")
    weights, open_spans = [], []
    for i in range(grid.N):
        h, centers = grid.spacings[i], grid.axis_centers(i)
        lo, hi = center[i] - half_widths[i], center[i] + half_widths[i]
        overlap = np.minimum(centers + 0.5 * h, hi) - np.maximum(centers - 0.5 * h, lo)
        w = np.clip(overlap, 0.0, h) / h
        w.flags.writeable = False  # every caller shares it
        weights.append(w)
        open_spans.append(_span(np.abs(centers - center[i]) < half_widths[i]))
    return tuple(weights), tuple(_span(w > 0.0) for w in weights), tuple(open_spans)


def _span(mask: np.ndarray) -> Optional[slice]:
    """Slice from the first to the last marked cell of one axis; None if none is."""
    idx = np.flatnonzero(mask)
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else None


def _box(grid: Grid, rows: np.ndarray, spans: tuple) -> np.ndarray:
    """The (S, *box) view of an (S, n_cells) row array cut to one span per axis."""
    return rows.reshape(-1, *grid.shape)[(slice(None), *spans)]


def _contract(block: np.ndarray, weights: list) -> np.ndarray:
    """Contract a block's trailing axes with one weight vector each, innermost first."""
    for w in reversed(weights):
        block = block @ w
    return block


def _cube_integrals(grid: Grid, rows: np.ndarray, cube: CubeSpec, r: float) -> np.ndarray:
    """Midpoint quadrature of max(u, 0)^r (u itself at r = 1) over the cube,
    for every row of an (S, n_cells) snapshot array.

    Only the support box (the cells of nonzero weight) is read; it is
    contracted one axis at a time against that axis's weights, innermost
    axis first.  Row k of the result depends on the number of rows, not only
    on row k: the matmul's blocking follows the row count, so the first n
    entries of a run over more rows can differ in the last bits from a run
    over those n rows.  A cached reduction is therefore keyed on its exact
    window, never sliced out of a longer one.
    """
    if r < 1.0:
        raise DomainError(f"integral order r must be >= 1, got {r!r}")
    weights, spans, _ = _footprint(grid, cube.center, cube.half_widths)
    if None in spans:
        warnings.warn("cube does not intersect the grid domain; integral is 0", stacklevel=3)
        return np.zeros(len(rows))
    block = _box(grid, rows, spans)
    if r != 1.0:
        block = np.maximum(block, 0.0)
        block **= r
    return _contract(block, [w[span] for w, span in zip(weights, spans)]) * grid.cell_volume


def _cube_sups(grid: Grid, rows: np.ndarray, cube: CubeSpec) -> np.ndarray:
    """Maximum over the cells whose centers lie in the (open) cube, per row."""
    spans = _footprint(grid, cube.center, cube.half_widths)[2]
    if None in spans:
        warnings.warn("no cell centers inside the cube; sup is 0", stacklevel=3)
        return np.zeros(len(rows))
    return _box(grid, rows, spans).max(axis=tuple(range(1, grid.N + 1)))


def cube_integral(field: Field, cube: CubeSpec, r: float = 1.0) -> float:
    """Midpoint quadrature of u^r over the cube clipped to the grid domain.

    For r > 1 the integrand is max(u, 0)^r; the solver monitors but does not
    clamp round-off negatives, and fractional powers must not see them.
    """
    _refuse_bools(r=r)
    return float(_cube_integrals(field.grid, field.values[None], cube, r)[0])


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
    if not _BOOL_TYPES.isdisjoint(map(type, (*window, r))):  # one set test: checks call this
        _refuse_bools(**{"window start": window[0], "window end": window[1]}, r=r)
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


@dataclass
class _Instance:
    """One (rho, t, r, geometry) point of a trajectory, with K_rho, K_{2rho}
    and K_{rho/2}, and the measurements the inequalities are built from."""

    traj: Trajectory
    prof: ExponentProfile
    rho: float
    t: float
    r: float  # 1 for the inequalities stated without an order
    geometry: str
    cube: CubeSpec
    doubled: CubeSpec
    half: CubeSpec

    @classmethod
    def at(cls, traj: Trajectory, rho: float, t: float, r: float, geometry: str):
        """The point with its cubes built for the geometry at time level t, kept
        by the trajectory under (rho, t, geometry), t left out for the standard cubes."""
        prof = traj.exponents

        def build() -> tuple[CubeSpec, CubeSpec, CubeSpec]:
            if geometry == "intrinsic":
                base = intrinsic_cube(rho, t, prof)
                return base, scale_cube(base, 2.0), scale_cube(base, 0.5)
            return tuple(standard_cube(a * rho, prof) for a in (1.0, 2.0, 0.5))

        key = ("cubes", rho, t if geometry == "intrinsic" else None, geometry)
        return cls(traj, prof, rho, t, r, geometry, *traj.measured(key, build))

    def _extremal(self, cube: CubeSpec, window: tuple, kind: str, r: float = 1.0) -> float:
        return self.traj.measured(
            (kind, cube, window, r), lambda: time_extremal(self.traj, cube, window, kind, r)
        )

    @property
    def base(self) -> float:
        """t / rho^p_bar, the ratio the sup family's scaling terms are powers of."""
        return self.t / self.rho**self.prof.p_bar

    def sup_mass(self) -> float:
        """sup over 0 <= tau <= t of int_{K_rho} u^r."""
        return self._extremal(self.cube, (0.0, self.t), "sup_lr", self.r)

    def sup_half(self) -> float:
        """sup of u over K_{rho/2} x [t/2, t]."""
        return self._extremal(self.half, (0.5 * self.t, self.t), "sup_linf")

    def inf_doubled(self) -> float:
        """inf over 0 <= tau <= t of int_{K_{2rho}} u."""
        return self._extremal(self.doubled, (0.0, self.t), "inf_l1")

    def initial_doubled(self) -> float:
        """int_{K_{2rho}} u_0^r."""
        return self.traj.measured(
            ("initial", self.doubled, 0, self.r),
            lambda: cube_integral(self.traj.initial, self.doubled, self.r),
        )

    def four_rho_intrinsic(self) -> CubeSpec:
        """K_{4rho} (intrinsic) or K_rho (standard): the cube lr_sup needs in the box."""
        return scale_cube(self.cube, 4.0) if self.geometry == "intrinsic" else self.cube

    def power_term(self, base: float, data: float) -> float:
        """base^(-N/lam_r) data^(p_bar/lam_r), the data term of the sup family."""
        lam_r = self.prof.lam_r(self.r)
        return base ** (-self.prof.N / lam_r) * data ** (self.prof.p_bar / lam_r)

    def backward_scaling(self) -> dict[str, float]:
        """(t^r / rho^lam_r)^(1/(2-p_bar)), or in the standard geometry the sum
        over axes of (t^r / rho^lam_ir)^(1/(2-p_i))."""
        prof, tr = self.prof, self.t**self.r
        if self.geometry == "intrinsic":
            ratio = tr / self.rho ** prof.lam_r(self.r)
            return {"scaling": ratio ** (1.0 / (2.0 - prof.p_bar))}
        pairs = zip(prof.lam_ir(self.r), prof.p)
        scaling_sum = sum((tr / self.rho**lir) ** (1.0 / (2.0 - pi)) for lir, pi in pairs)
        return {"scaling_sum": scaling_sum}

    def sup_scaling(self, weighted: bool = True) -> dict[str, float]:
        """base^(1/(2-p_bar)), or in the standard geometry the sums over axes of
        base^(lam_ir/((2-p_i) lam_r)) (if weighted) and of base^(1/(2-p_i))."""
        prof = self.prof
        if self.geometry == "intrinsic":
            return {"scaling": nu(self.t, self.rho, prof)}
        terms = {}
        if weighted:
            lam_r, pairs = prof.lam_r(self.r), zip(prof.lam_ir(self.r), prof.p)
            terms["scaling_weighted_sum"] = sum(
                self.base ** (lir / ((2.0 - pi) * lam_r)) for lir, pi in pairs
            )
        terms["scaling_sum"] = nu_sigma(self.t, self.rho, prof)
        return terms


def _needs_fast(prof: ExponentProfile) -> str:
    return "" if prof.strict_fast else "Harnack inequalities need all p_i < 2"


def _needs_lam_positive(prof: ExponentProfile, r: float) -> str:
    return f"lam={prof.lam:.6g} <= 0 (subcritical range)" if prof.lam <= 0.0 else ""


def _needs_lam_r_positive(prof: ExponentProfile, r: float) -> str:
    lam_r = prof.lam_r(r)
    return f"lam_r={lam_r:.6g} <= 0" if lam_r <= 0.0 else ""


@dataclass(frozen=True)
class Inequality:
    """One row of CHECKS: a Harnack-type inequality stated in both geometries."""

    theorems: tuple[str, str]  # ids in the intrinsic and the standard geometry
    lhs: Callable[[_Instance], float]
    rhs: Callable[[_Instance], dict[str, float]]  # the named right-side terms
    applicable: Callable[[ExponentProfile, float], str] = lambda prof, r: ""  # or why not
    hypothesis: Callable[[_Instance], CubeSpec] = lambda x: x.doubled  # inside the box
    r_min: Optional[float] = None  # None: stated for r = 1 only, r is not an option
    r_strict: bool = True  # r must exceed r_min, not only reach it

    def r_violation(self, r: Optional[float]) -> str:
        """Why r cannot be the order of this inequality; "" when it can."""
        if self.r_min is None:
            return "" if r is None else f"r is not an option (r = 1 is implied), got {r!r}"
        if r is None:
            return "r is required"
        if not math.isfinite(r):
            return f"r must be finite, got {r!r}"
        if self.r_strict:
            return "" if r > self.r_min else f"r must exceed {self.r_min:g}, got {r!r}"
        return "" if r >= self.r_min else f"r must be >= {self.r_min:g}, got {r!r}"


CHECKS = {
    "l1l1": Inequality(
        theorems=("L1L1_intrinsic", "L1L1_standard"),
        lhs=_Instance.sup_mass,
        rhs=lambda x: {"inf_doubled": x.inf_doubled(), **x.backward_scaling()},
    ),
    "l1linf": Inequality(
        theorems=("L1Linf_intrinsic", "L1Linf_standard"),
        lhs=_Instance.sup_half,
        rhs=lambda x: {"harnack": x.power_term(x.t, x.inf_doubled()), **x.sup_scaling()},
        applicable=_needs_lam_positive,
    ),
    "lr_sup": Inequality(
        theorems=("LrLinf_sup", "LrLinf_sup_standard"),
        lhs=_Instance.sup_half,
        rhs=lambda x: {
            "mean_term": x.power_term(x.base, x.sup_mass() / (2.0 * x.rho) ** x.prof.N),
            **x.sup_scaling(weighted=False),
        },
        applicable=_needs_lam_r_positive,
        hypothesis=_Instance.four_rho_intrinsic,
        r_min=1.0,
        r_strict=False,
    ),
    "lr_backward": Inequality(
        theorems=("Lr_backward_intrinsic", "Lr_backward_standard"),
        lhs=_Instance.sup_mass,
        rhs=lambda x: {"initial_doubled": x.initial_doubled(), **x.backward_scaling()},
        r_min=1.0,
    ),
    "composite": Inequality(
        theorems=("Backwards_composite_intrinsic", "Backwards_composite_standard"),
        lhs=_Instance.sup_half,
        rhs=lambda x: {
            "initial_term": x.power_term(x.t, x.initial_doubled()),
            **x.sup_scaling(),
        },
        applicable=_needs_lam_r_positive,
        r_min=1.0,
    ),
}

_REQUIRED = object()  # marks an option that must be given

#: the options of every check and their defaults; r, absent by default, is
#: required or refused by the row (`Inequality.r_violation`)
CHECK_OPTIONS = {"geometry": "intrinsic", "rho": _REQUIRED, "t": _REQUIRED, "r": None, "C": 0.0}


def option_violations(kind: str, options: dict) -> list[str]:
    """Every rule that the options of a CHECKS[kind] instance break, in
    CHECK_OPTIONS order; an option left out of `options` is not judged."""
    found = []
    if "geometry" in options and options["geometry"] not in GEOMETRIES:
        found.append(f"geometry must be one of {GEOMETRIES}, got {options['geometry']!r}")
    for name, x in ((name, options[name]) for name in ("rho", "t", "r", "C") if name in options):
        if isinstance(x, _BOOLS):
            found.append(f"{name} must be a number, got {x!r}")
        elif name == "r":
            found.append(CHECKS[kind].r_violation(x))
        elif name == "C" and not 0.0 <= x < math.inf:
            found.append(f"C must be nonnegative and finite, got {float(x)!r}")
        elif name in ("rho", "t") and not 0.0 < x < math.inf:  # NaN fails every comparison
            found.append(f"{name} must be positive and finite, got {float(x)!r}")
    return [problem for problem in found if problem]


def _evaluate(kind, traj, rho, t, r, geometry, C) -> InequalityReport:
    """Measure the CHECKS[kind] inequality at (rho, t, r, C) in one geometry.

    r is None for the inequalities stated without an order.  Options that
    break a rule of `option_violations` raise one DomainError naming every
    rule, on any trajectory.  Every row needs all p_i < 2 before its own
    applicability predicate; when either fails the report is not-applicable
    (no exception).  The trajectory keeps each measured side
    (`Trajectory.measured`) for all the checks made on it.  Arithmetic out of
    float range (an ArithmeticError) is a DomainError naming the check.
    """
    row, options = CHECKS[kind], {"geometry": geometry, "rho": rho, "t": t, "r": r, "C": C}
    problems = option_violations(kind, options)
    if problems:
        raise DomainError("; ".join(problems))
    if t > traj.end_time * (1.0 + WINDOW_RTOL):
        raise DomainError(f"window [0, {t}] exceeds the trajectory horizon {traj.end_time}")
    theorem = row.theorems[GEOMETRIES.index(geometry)]
    params = {k: v if k == "geometry" else float(v) for k, v in options.items() if v is not None}
    order = 1.0 if r is None else r
    reason = _needs_fast(traj.exponents) or row.applicable(traj.exponents, order)
    if reason:
        nan = math.nan
        return InequalityReport(
            theorem, nan, {}, nan, False, None, params, applicable=False, reason=reason
        )
    try:
        x = _Instance.at(traj, rho, t, order, geometry)
        lhs = row.lhs(x)
        terms = row.rhs(x)
        violated, index = smallness_violated(C, rho, t, x.prof, geometry)
        hypothesis_ok = cube_contained(row.hypothesis(x), traj.grid)
    except ArithmeticError as exc:  # a float ** or / past float64, in any formula
        spec = " ".join(f"{k}={v}" for k, v in params.items())
        raise DomainError(f"check {kind} {spec}: arithmetic out of float range: {exc!r}") from exc
    window = traj.window(0.0, t)
    return InequalityReport(
        theorem=theorem,
        lhs=lhs,
        rhs_terms=terms,
        gamma_min=gamma_min(lhs, terms.values()),
        smallness_triggered=violated,
        smallness_index=index,
        params=params,
        hypothesis_ok=hypothesis_ok,
        snapshots_in_window=window.stop - window.start,
    )


#: the defaults of the options every check takes
_GEOMETRY, _C = CHECK_OPTIONS["geometry"], CHECK_OPTIONS["C"]


def check_l1l1(
    traj: Trajectory, rho: float, t: float, geometry: str = _GEOMETRY, C: float = _C
) -> InequalityReport:
    """sup_{0<=tau<=t} int_{K_rho} u  vs  inf over the doubled cube + scaling term."""
    return _evaluate("l1l1", traj, rho, t, None, geometry, C)


def check_l1linf(
    traj: Trajectory, rho: float, t: float, geometry: str = _GEOMETRY, C: float = _C
) -> InequalityReport:
    """sup over K_{rho/2} x [t/2, t]  vs  t^(-N/lam) (inf mass)^(p_bar/lam) + scaling."""
    return _evaluate("l1linf", traj, rho, t, None, geometry, C)


def check_lr_sup(
    traj: Trajectory, rho: float, t: float, r: float, geometry: str = _GEOMETRY, C: float = _C
) -> InequalityReport:
    """sup over K_{rho/2} x [t/2, t]  vs  the time-sup of the mean of u^r."""
    return _evaluate("lr_sup", traj, rho, t, r, geometry, C)


def check_lr_backward(
    traj: Trajectory, rho: float, t: float, r: float, geometry: str = _GEOMETRY, C: float = _C
) -> InequalityReport:
    """sup_{0<=tau<=t} int_{K_rho} u^r  vs  the initial-datum integral + scaling."""
    return _evaluate("lr_backward", traj, rho, t, r, geometry, C)


def check_backwards_composite(
    traj: Trajectory, rho: float, t: float, r: float, geometry: str = _GEOMETRY, C: float = _C
) -> InequalityReport:
    """sup over K_{rho/2} x [t/2, t]  vs  t^(-N/lam_r) (initial u^r mass)^(p_bar/lam_r)."""
    return _evaluate("composite", traj, rho, t, r, geometry, C)
