"""Numerical verifiers for the algebraic lemmas and the energy estimate.

Covers: the Young-inequality constant gamma(eps) and its sharpness, the fast
geometric convergence recursion Y_{n+1} = C b^n Y_n^(1+alpha), the unrolled
iteration bound Y_0 <= I/(1 - eps*b), the anisotropic embedding ratio, and the
truncation energy (Caccioppoli) estimate evaluated term by term on a
trajectory with separate-variables cutoffs zeta(x) = prod_i zeta_i(x_i)^{p_i}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import (
    _ABOVE_ONE, _COUNT, _NONNEGATIVE, CubeSpec, ExponentProfile, _not_a_number, _violation
)
from .harnack import InequalityReport, _box, _contract, _footprint, cube_contained, gamma_min
from .solver import Field, Trajectory, _count, _face_differences


def young_gamma(eps: float, q: float) -> float:
    """Sharp companion constant in a*b <= eps*a^q + gamma(eps)*b^q'.

    gamma(eps) = ((q-1) / (q^(1/(q-1)) * q)) * (1/eps)^(1/(q-1)), with the
    conjugate exponent q' = (1 - 1/q)^(-1).  Equality is attained at the
    optimal coupling a = (b/(eps*q))^(1/(q-1)).
    """
    if fault := _violation("eps", eps) or _violation("q", q, _ABOVE_ONE):
        raise DomainError(fault)
    return ((q - 1.0) / (q ** (1.0 / (q - 1.0)) * q)) * (1.0 / eps) ** (1.0 / (q - 1.0))


def young_conjugate(q: float) -> float:
    """q' = (1 - 1/q)^(-1)."""
    if fault := _violation("q", q, _ABOVE_ONE):
        raise DomainError(fault)
    return 1.0 / (1.0 - 1.0 / q)


@dataclass(frozen=True)
class SequenceLemmaResult:
    """Outcome of simulating one of the sequence lemmas."""

    values: tuple[float, ...]
    converged: bool
    bound: float


def fast_convergence(
    C: float, b: float, alpha: float, Y0: float, n_max: int
) -> SequenceLemmaResult:
    """Run the saturated recursion Y_{n+1} = C b^n Y_n^(1+alpha) for n_max steps.

    The lemma's smallness threshold is C^(-1/alpha) * b^(-1/alpha^2): any Y0
    at or below it must drive the sequence to zero.  converged is True when
    the final value underflows 1e-300 (or hits exact zero), or when the
    sequence is strictly decreasing with final ratio below 1/2.
    """
    fault = _violation("C", C) or _violation("b", b, _ABOVE_ONE) or _violation("alpha", alpha)
    if fault := fault or _violation("Y0", Y0, _NONNEGATIVE) or _not_a_number("n_max", n_max):
        raise DomainError(fault)
    if (n_steps := _count(n_max)) is None:  # read as a snapshot count is: 3.0, not 2.5
        raise DomainError(f"n_max must be an integer, got {n_max!r}")
    if fault := _violation("n_max", n_steps, _COUNT):
        raise DomainError(fault)
    bound = C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
    expo = 1.0 + alpha
    y = float(Y0)
    values, decreasing = [y], True
    for n in range(n_steps):
        if y == 0.0:
            break
        try:
            nxt = C * b**n * y**expo
        except OverflowError:  # float ** raises where numpy would give inf
            nxt = math.inf
        decreasing = decreasing and nxt < y
        if not nxt <= 1e100:  # above 1e100, inf or nan
            values.append(float(nxt) if math.isfinite(nxt) else math.inf)
            break
        values.append(nxt)
        y = nxt
    prev = values[-2] if len(values) > 1 else math.inf  # Y0 = 0 converged at once
    converged = _converged(values[-1], prev, decreasing)
    return SequenceLemmaResult(values=tuple(values), converged=converged, bound=bound)


def _converged(last, prev, decreasing):
    """The verdict on runs that stopped at `last` after `prev` > 0, as floats or lanes:
    below 1e-300, or decreasing with a final ratio below 1/2 (never so for inf or nan)."""
    return (last < 1e-300) | (decreasing & (last / prev < 0.5))


@np.errstate(over="ignore", invalid="ignore")  # a lane past 1e100 may overflow to inf or nan
def _fast_convergence_lanes(C, b, alpha, Y0, n_max: int) -> np.ndarray:
    """fast_convergence(...).converged of each lane of the arrays, in lock step: a lane
    retires at its first step to 0, above 1e100 or at n_max, found once per 16 steps.
    numpy's ** may differ from Python's in the last bit; the tests check no verdict does."""
    last = np.array(Y0, dtype=np.float64)
    prev, decreasing = np.ones_like(last), np.ones(last.shape, bool)
    live = np.flatnonzero(last)  # a lane from 0 has converged
    c, base, expo, y, dec = C[live], b[live], 1.0 + alpha[live], last[live], decreasing[live]
    for n0 in range(0, n_max, 16):
        if not live.size:
            break
        h = np.empty((min(16, n_max - n0) + 1, live.size))  # h[k + 1] = y after step n0 + k
        h[0] = y
        for k in range(len(h) - 1):
            np.multiply(base ** (n0 + k) * c, h[k] ** expo, out=h[k + 1])
        fell = np.logical_and.accumulate(h[1:] < h[:-1]) & dec
        out = (h[1:] == 0.0) | ~(h[1:] <= 1e100)
        out[-1] |= n0 + len(h) - 1 == n_max
        lane = np.arange(live.size)
        first = out.argmax(0)  # each lane's first retiring step, if out[first, lane]
        done = out[first, lane]
        first, at, ln, keep = first[done], live[done], lane[done], ~done
        last[at], prev[at], decreasing[at] = h[first + 1, ln], h[first, ln], fell[first, ln]
        live, c, base, expo, y, dec = (a[keep] for a in (live, c, base, expo, h[-1], fell[-1]))
    return _converged(last, prev, decreasing)


def iteration_bound(eps: float, b: float, I: float, M: float) -> Optional[float]:
    """Explicit bound Y_0 <= I/(1 - eps*b) for Y_n <= eps*Y_{n+1} + I*b^n, Y_n <= M.

    Requires eps in (0,1) and eps*b < 1, where the geometric series closes;
    returns None (not applicable) when eps*b >= 1, since this constructive
    bound does not exist there even though equiboundedness still gives one.
    """
    fault = _violation("eps", eps, ("lie in (0, 1)", lambda e: 0.0 < e < 1.0))
    fault = fault or _violation("b", b, _ABOVE_ONE) or _violation("I", I, _NONNEGATIVE)
    if fault := fault or _violation("M", M, _NONNEGATIVE):
        raise DomainError(fault)
    if eps * b >= 1.0:
        return None
    return I / (1.0 - eps * b)


# --- anisotropic embedding ratio ----------------------------------------------


def sobolev_critical(prof: ExponentProfile) -> float:
    """p* = N p_bar / (N - p_bar); requires p_bar < N."""
    if prof.p_bar >= prof.N:
        raise DomainError(
            f"harmonic-mean exponent p_bar={prof.p_bar:.6g} is not below the "
            f"dimension N={prof.N}; the embedding needs p_bar < N"
        )
    return prof.N * prof.p_bar / (prof.N - prof.p_bar)


def sobolev_ratio(
    field: Field,
    prof: ExponentProfile,
    theta: float,
    sigma: float,
    t_extent: float,
) -> float:
    """LHS/RHS of the space-time embedding with the constant omitted.

    The field (zero boundary trace, so not periodic) is extended constantly in
    time over [0, t_extent].  With q = theta*p* + sigma*(1-theta):

        LHS = iint |phi|^q dx dt
        RHS = T^(1-theta p*/p_bar) (sup_t int |phi|^sigma dx)^(1-theta)
              * prod_i (iint |d_i phi|^{p_i} dx dt)^(theta p* / (N p_i))

    Axis derivatives are one-sided differences with a zero ghost layer:
    sum_i |G|^{p_i} is taken on the raw differences G = u[k+1] - u[k]
    (`_face_power_sum`) and scaled by h_i^-p_i afterwards.  Each power |x|^a of a cell value or a
    difference is exp(a log|x|), 0 where x = 0.  The ratio is invariant
    under phi -> c*phi, and defined as 0 for phi == 0.
    """
    p_star = sobolev_critical(prof)
    theta_max = prof.p_bar / p_star  # each upper bound is met up to one rounding
    thetas = f"lie in [0, p_bar/p*] = [0, {theta_max:.6g}]", lambda x: 0 <= x <= theta_max + 1e-15
    sigmas = f"lie in [1, p*] = [1, {p_star:.6g}]", lambda x: 1.0 <= x <= p_star + 1e-15
    fault = _violation("theta", theta, thetas) or _violation("sigma", sigma, sigmas)
    if fault := fault or _violation("t_extent", t_extent):
        raise DomainError(fault)
    T, grid = float(t_extent), field.grid
    if prof.N != grid.N:
        raise DomainError(f"profile dimension {prof.N} != grid dimension {grid.N}")
    if grid.boundary == "periodic":
        raise DomainError("the embedding needs a zero boundary trace; a periodic field has none")
    q = theta * p_star + sigma * (1.0 - theta)
    u = field.reshaped()
    vol = grid.cell_volume
    with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(a * -inf) = 0
        log_phi = np.log(np.abs(u))
        lhs = T * _exp_sum(q, log_phi) * vol
        if lhs == 0.0:
            return 0.0
        sup_sigma = _exp_sum(sigma, log_phi) * vol
        rhs = T ** (1.0 - theta * p_star / prof.p_bar) * sup_sigma ** (1.0 - theta)
        for i, (pi, h) in enumerate(zip(prof.p, grid.spacings)):
            grad_int = T * _face_power_sum(u, i, pi) * h**-pi * vol
            rhs *= grad_int ** (theta * p_star / (prof.N * pi))
    return lhs / rhs


def _exp_sum(a: float, log_x: np.ndarray) -> float:
    """sum x^a given log x, as sum exp(a log x)."""
    terms = a * log_x
    return float(np.exp(terms, out=terms).sum())


def _face_power_sum(u: np.ndarray, i: int, p: float) -> float:
    """sum |G|^p = sum exp(p log|G|) over the faces of axis i, G = u[k+1] - u[k] with
    a zero ghost layer (`_face_differences`); the caller ignores divide warnings."""
    log_g = np.empty(u.size + u.size // u.shape[i])  # G then log |G| in place
    for minuend, subtrahend, out in _face_differences(u, i, log_g, periodic=False):
        np.subtract(minuend, subtrahend, out=out)
    return _exp_sum(p, np.log(np.abs(log_g, out=log_g), out=log_g))


# --- cutoff functions and the truncation energy estimate ----------------------


@dataclass(frozen=True)
class CutoffSpec:
    """Separate-variables cutoff between two concentric cubes.

    zeta(x) = prod_i zeta_i(x_i)^{p_i} with zeta_i piecewise linear: 1 on the
    inner slab, 0 outside the outer slab.  The per-axis derivative bound is
    1/(outer_i - inner_i).
    """

    inner: CubeSpec
    outer: CubeSpec
    exponents: tuple[float, ...]

    def __post_init__(self):
        if self.inner.N != self.outer.N or len(self.exponents) != self.inner.N:
            raise DomainError("cutoff cubes and exponents must share one dimension")
        for p in self.exponents:
            if fault := _not_a_number("exponent", p):
                raise DomainError(fault)
        if any(abs(a - b) > 1e-12 for a, b in zip(self.inner.center, self.outer.center)):
            raise DomainError("cutoff cubes must be concentric")
        if any(not wo > wi for wi, wo in zip(self.inner.half_widths, self.outer.half_widths)):
            raise DomainError("outer cube must strictly contain the inner cube per axis")

    def derivative_bound(self, i: int) -> float:
        """sup |d zeta_i / dx_i| = 1/(outer_i - inner_i)."""
        return 1.0 / (self.outer.half_widths[i] - self.inner.half_widths[i])

    def axis_ramp(self, i: int, coords: np.ndarray) -> np.ndarray:
        """zeta_i along one axis, before raising to the power p_i."""
        dist = np.abs(np.asarray(coords, dtype=np.float64) - self.inner.center[i])
        ramp = (self.outer.half_widths[i] - dist) / (
            self.outer.half_widths[i] - self.inner.half_widths[i]
        )
        return np.clip(ramp, 0.0, 1.0)

    def values(self, grid) -> np.ndarray:
        """zeta = prod_i zeta_i^{p_i} at every cell center of the grid."""
        return functools.reduce(
            np.multiply.outer,
            [self.axis_ramp(i, grid.axis_centers(i)) ** pi for i, pi in enumerate(self.exponents)],
        )


def caccioppoli_report(
    traj: Trajectory,
    prof: ExponentProfile,
    cutoff: CutoffSpec,
    k: float,
    window: tuple[float, float],
    C: float = 0.0,
) -> InequalityReport:
    """Evaluate the truncation energy estimate term by term over a time window.

    The time cutoff xi ramps linearly 0 -> 1 over the first quarter of the
    window (the estimate requires xi = 0 at the window start).  Right-side
    terms are evaluated exactly as the estimate states them:

        T_grad = sum_i ||d_i zeta_i||^{p_i} [1 + (C/||d_i zeta_i||)^{p_i}]
                 * iint (u-k)_+^{p_i}
        T_time = ||d_tau zeta|| * iint dx dtau        (the bare measure of Q)
        T_inhom = sum_i C^{p_i} * iint chi_{[u>k]}

    and the left side is sup_tau int (u-k)_+^2 zeta + sum_i iint
    |d_i[(u-k)_+ zeta]|^{p_i}.  Time integrals use the trapezoid rule over
    the snapshots inside the window.  Only the support box of the outer
    cube's weights is read: zeta vanishes outside it, so the zero-ghost
    `_face_power_sum` on the box gives the face sums of the whole grid.  Its
    cube integrals go through the checks' contraction (`harnack._contract`),
    and the measure of Q is the product of the per-axis box weights' sums.
    `prof.p` and `cutoff.exponents` must be the trajectory's exponents.
    """
    if fault := _violation("k", k, _NONNEGATIVE) or _violation("C", C, _NONNEGATIVE):
        raise DomainError(fault)
    if not prof.p == tuple(cutoff.exponents) == traj.exponents.p:
        want, got = traj.exponents.p, (prof.p, tuple(cutoff.exponents))
        raise DomainError(f"prof and cutoff exponents must be the trajectory's {want}, got {got}")
    in_window = traj.window(*window)  # finite ends, the start no later than the end
    t1, t2 = float(window[0]), float(window[1])
    if not t2 > t1:
        raise DomainError(f"empty time window [{t1}, {t2}]")
    grid = traj.grid
    if not cube_contained(cutoff.outer, grid):
        raise DomainError("cutoff outer cube must lie inside the grid domain")
    times = traj.times[in_window]
    if len(times) < 2:
        raise DomainError(f"need at least 2 snapshots in window [{t1}, {t2}]")

    ramp_len = 0.25 * (t2 - t1)
    xi = np.clip((np.asarray(times) - t1) / ramp_len, 0.0, 1.0)
    weights, box, _ = _footprint(grid, cutoff.outer.center, cutoff.outer.half_widths)
    w_box = [w[span] for w, span in zip(weights, box)]
    zeta = cutoff.values(grid)[box]
    blocks = _box(grid, traj.values[in_window], box)
    vol = grid.cell_volume

    n = prof.N
    # rows: the gradient integrands per axis, (u-k)_+^{p_i} per axis, chi_{[u>k]}
    series = np.empty((2 * n + 1, len(times)))
    sup_term = 0.0
    try:
        with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(a * -inf) = 0
            for j, (u, x) in enumerate(zip(blocks, xi)):
                trunc = np.maximum(u - k, 0.0)
                sup_term = max(sup_term, float((trunc**2 * zeta).sum()) * vol * x)
                v = trunc * zeta * x
                for i, (pi, h) in enumerate(zip(prof.p, grid.spacings)):
                    series[i, j] = _face_power_sum(v, i, pi) * h**-pi * vol
                    series[n + i, j] = _contract(trunc**pi, w_box) * vol
                series[2 * n, j] = _contract(u > k, w_box) * vol
        integrals = np.trapezoid(series, times).tolist()

        lhs = sup_term + sum(integrals[:n])
        t_grad = 0.0
        for i, pi in enumerate(prof.p):
            dzi = cutoff.derivative_bound(i)
            t_grad += dzi**pi * (1.0 + (C / dzi) ** pi) * integrals[n + i]
        q_measure = math.prod(float(w.sum()) for w in w_box) * vol * (t2 - t1)
        t_time = (1.0 / ramp_len) * q_measure
        t_inhom = sum(C**pi for pi in prof.p) * integrals[2 * n]
    except ArithmeticError as exc:  # a float ** or / past float64, as in `harnack._evaluate`
        where = f"caccioppoli k={k!r} window=[{t1}, {t2}]"
        raise DomainError(f"{where}: arithmetic out of float range: {exc!r}") from exc

    terms = {"gradient": t_grad, "time": t_time, "inhomogeneity": t_inhom}
    return InequalityReport(
        theorem="Caccioppoli",
        lhs=lhs,
        rhs_terms=terms,
        gamma_min=gamma_min(lhs, terms.values()),
        smallness_triggered=False,
        smallness_index=None,
        params={
            "k": float(k),
            "t1": t1,
            "t2": t2,
            "C": float(C),
        },
        hypothesis_ok=True,
        snapshots_in_window=len(times),
    )
