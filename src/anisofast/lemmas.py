"""Numerical verifiers for the algebraic lemmas and the energy estimate.

Covers: the Young-inequality constant gamma(eps) and its sharpness, the fast
geometric convergence recursion Y_{n+1} = C b^n Y_n^(1+alpha), the unrolled
iteration bound Y_0 <= I/(1 - eps*b), the anisotropic embedding ratio, and the
truncation energy (Caccioppoli) estimate evaluated term by term on a
trajectory with separate-variables cutoffs zeta(x) = prod_i zeta_i(x_i)^{p_i}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .geometry import CubeSpec, ExponentProfile
from .harnack import InequalityReport, _axis_weights, _tensor, cube_contained, gamma_min
from .solver import Field, Trajectory


def young_gamma(eps: float, q: float) -> float:
    """Sharp companion constant in a*b <= eps*a^q + gamma(eps)*b^q'.

    gamma(eps) = ((q-1) / (q^(1/(q-1)) * q)) * (1/eps)^(1/(q-1)), with the
    conjugate exponent q' = (1 - 1/q)^(-1).  Equality is attained at the
    optimal coupling a = (b/(eps*q))^(1/(q-1)).
    """
    if not eps > 0.0 or not math.isfinite(eps):
        raise DomainError(f"eps must be positive, got {eps!r}")
    if not q > 1.0 or not math.isfinite(q):
        raise DomainError(f"q must exceed 1, got {q!r}")
    return ((q - 1.0) / (q ** (1.0 / (q - 1.0)) * q)) * (1.0 / eps) ** (1.0 / (q - 1.0))


def young_conjugate(q: float) -> float:
    """q' = (1 - 1/q)^(-1)."""
    if not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q!r}")
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
    if not (C > 0.0 and b > 1.0 and alpha > 0.0 and Y0 >= 0.0 and n_max >= 1):
        raise DomainError(
            f"need C>0, b>1, alpha>0, Y0>=0, n_max>=1; got "
            f"C={C!r}, b={b!r}, alpha={alpha!r}, Y0={Y0!r}, n_max={n_max!r}"
        )
    bound = C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
    values = [float(Y0)]
    for n in range(n_max):
        y = values[-1]
        if y == 0.0:
            break
        nxt = C * b**n * y ** (1.0 + alpha)
        if not math.isfinite(nxt) or nxt > 1e100:
            values.append(float(nxt) if math.isfinite(nxt) else math.inf)
            break
        values.append(nxt)
    ys = values
    if ys[-1] == 0.0 or ys[-1] < 1e-300:
        converged = True
    elif not math.isfinite(ys[-1]):
        converged = False
    else:
        decreasing = all(b2 < b1 for b1, b2 in zip(ys, ys[1:]))
        converged = (
            len(ys) > 1 and decreasing and ys[-1] / ys[-2] < 0.5
        )
    return SequenceLemmaResult(values=tuple(ys), converged=converged, bound=bound)


def iteration_bound(eps: float, b: float, I: float, M: float) -> Optional[float]:
    """Explicit bound Y_0 <= I/(1 - eps*b) for Y_n <= eps*Y_{n+1} + I*b^n, Y_n <= M.

    Requires eps in (0,1) and eps*b < 1, where the geometric series closes;
    returns None (not applicable) when eps*b >= 1, since this constructive
    bound does not exist there even though equiboundedness still gives one.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
    if not b > 1.0:
        raise DomainError(f"b must exceed 1, got {b!r}")
    if I < 0.0 or not math.isfinite(I):
        raise DomainError(f"I must be nonnegative and finite, got {I!r}")
    if M < 0.0 or not math.isfinite(M):
        raise DomainError(f"M must be nonnegative and finite, got {M!r}")
    if eps * b >= 1.0:
        return None
    return I / (1.0 - eps * b)


# --- anisotropic embedding ratio ----------------------------------------------


def sobolev_critical(prof: ExponentProfile) -> float:
    """p* = N p_bar / (N - p_bar); requires p_bar < N."""
    if prof.p_bar >= prof.N:
        raise DomainError(
            f"embedding needs p_bar < N; got p_bar={prof.p_bar:.6g}, N={prof.N}"
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

    The field (zero boundary trace) is extended constantly in time over
    [0, t_extent].  With q = theta*p* + sigma*(1-theta):

        LHS = iint |phi|^q dx dt
        RHS = T^(1-theta p*/p_bar) (sup_t int |phi|^sigma dx)^(1-theta)
              * prod_i (iint |d_i phi|^{p_i} dx dt)^(theta p* / (N p_i))

    Axis derivatives are one-sided differences with a zero ghost layer.  The
    ratio is invariant under phi -> c*phi, and defined as 0 for phi == 0.
    """
    p_star = sobolev_critical(prof)
    if not 0.0 <= theta <= prof.p_bar / p_star + 1e-15:
        raise DomainError(
            f"theta must lie in [0, p_bar/p*] = [0, {prof.p_bar / p_star:.6g}]"
        )
    if not 1.0 <= sigma <= p_star + 1e-15:
        raise DomainError(f"sigma must lie in [1, p*] = [1, {p_star:.6g}]")
    if not t_extent > 0.0:
        raise DomainError(f"t_extent must be positive, got {t_extent!r}")
    grid = field.grid
    if prof.N != grid.N:
        raise DomainError(f"profile dimension {prof.N} != grid dimension {grid.N}")
    T = float(t_extent)
    q = theta * p_star + sigma * (1.0 - theta)
    phi = np.abs(field.reshaped())
    vol = grid.cell_volume
    lhs = T * float((phi**q).sum()) * vol
    if lhs == 0.0:
        return 0.0
    sup_sigma = float((phi**sigma).sum()) * vol
    rhs = T ** (1.0 - theta * p_star / prof.p_bar) * sup_sigma ** (1.0 - theta)
    for i, pi in enumerate(prof.p):
        h = grid.spacings[i]
        pad = [(0, 0)] * grid.N
        pad[i] = (1, 1)
        g = np.diff(np.pad(field.reshaped(), pad), axis=i) / h
        grad_int = T * float((np.abs(g) ** pi).sum()) * vol
        rhs *= grad_int ** (theta * p_star / (prof.N * pi))
    return lhs / rhs


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
        if any(
            abs(a - b) > 1e-12 for a, b in zip(self.inner.center, self.outer.center)
        ):
            raise DomainError("cutoff cubes must be concentric")
        for wi, wo in zip(self.inner.half_widths, self.outer.half_widths):
            if not wo > wi:
                raise DomainError(
                    "outer cube must strictly contain the inner cube per axis"
                )

    @property
    def N(self) -> int:
        return self.inner.N

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
        return _tensor(
            [
                self.axis_ramp(i, grid.axis_centers(i)) ** pi
                for i, pi in enumerate(self.exponents)
            ]
        )


def _trapezoid(values: Sequence[float], times: Sequence[float]) -> float:
    return float(np.trapezoid(np.asarray(values), np.asarray(times)))


def caccioppoli_report(
    traj: Trajectory,
    prof: ExponentProfile,
    cutoff: CutoffSpec,
    k: float,
    window: tuple[float, float],
    C: float = 0.0,
    C_o: float = 1.0,
    C_1: float = 1.0,
) -> InequalityReport:
    """Evaluate the truncation energy estimate term by term over a time window.

    The time cutoff xi ramps linearly 0 -> 1 over the first quarter of the
    window (the estimate requires xi = 0 at the window start).  Right-side
    terms are evaluated exactly as the estimate states them:

        T_grad = sum_i ||d_i zeta_i||^{p_i} [1 + (C/||d_i zeta_i||)^{p_i}]
                 * iint (u-k)_+^{p_i}
        T_time = ||d_tau zeta|| * iint dx dtau        (the bare measure of Q)
        T_inhom = sum_i C^{p_i} * iint chi_{[u>k]}

    and the left side is sup_tau int (u-k)_+^2 zeta + C_o sum_i iint
    |d_i[(u-k)_+ zeta]|^{p_i}.  Time integrals use the trapezoid rule over
    the snapshots inside the window.
    """
    if k < 0.0 or not math.isfinite(k):
        raise DomainError(f"truncation level k must be nonnegative, got {k!r}")
    if C < 0.0 or C_o <= 0.0 or C_1 <= 0.0:
        raise DomainError("need C >= 0, C_o > 0, C_1 > 0")
    t1, t2 = float(window[0]), float(window[1])
    if not t2 > t1:
        raise DomainError(f"empty time window [{t1}, {t2}]")
    grid = traj.grid
    if not cube_contained(cutoff.outer, grid):
        raise DomainError("cutoff outer cube must lie inside the grid domain")
    window = traj.window(t1, t2)
    rows = traj.values[window]
    times = traj.times[window]
    if len(times) < 2:
        raise DomainError(f"need at least 2 snapshots in window [{t1}, {t2}]")

    ramp_len = 0.25 * (t2 - t1)
    xi = np.clip((np.asarray(times) - t1) / ramp_len, 0.0, 1.0)
    zeta = cutoff.values(grid)
    w_outer = _tensor(_axis_weights(grid, cutoff.outer))
    vol = grid.cell_volume

    sup_term = 0.0
    grad_series = [[] for _ in prof.p]
    trunc_series = [[] for _ in prof.p]
    chi_series = []
    for row, x in zip(rows, xi):
        u = row.reshape(grid.shape)
        trunc = np.maximum(u - k, 0.0)
        sup_term = max(sup_term, float((trunc**2 * zeta).sum()) * vol * x)
        w = trunc * zeta * x
        for i, pi in enumerate(prof.p):
            pad = [(0, 0)] * grid.N
            pad[i] = (1, 1)
            g = np.diff(np.pad(w, pad), axis=i) / grid.spacings[i]
            grad_series[i].append(float((np.abs(g) ** pi).sum()) * vol)
            trunc_series[i].append(float((trunc**pi * w_outer).sum()) * vol)
        chi_series.append(float(((u > k) * w_outer).sum()) * vol)

    lhs = sup_term + C_o * sum(_trapezoid(s, times) for s in grad_series)

    t_grad = 0.0
    for i, pi in enumerate(prof.p):
        dzi = cutoff.derivative_bound(i)
        t_grad += dzi**pi * (1.0 + (C / dzi) ** pi) * _trapezoid(trunc_series[i], times)
    q_measure = float(w_outer.sum()) * vol * (t2 - t1)
    t_time = (1.0 / ramp_len) * q_measure
    t_inhom = sum(C**pi for pi in prof.p) * _trapezoid(chi_series, times)

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
            "C_o": float(C_o),
            "C_1": float(C_1),
        },
        hypothesis_ok=True,
        snapshots_in_window=len(times),
    )
