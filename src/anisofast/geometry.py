"""Exponent arithmetic and the two anisotropic cube families.

Everything here is exact double-precision algebra on the growth exponents
(p_1, ..., p_N): the harmonic mean p_bar, the scaling exponents
lam = N(p_bar-2)+p_bar and lam_i = N(p_i-2)+p_bar, the time-scaling factor
nu = (t/rho^p_bar)^(1/(2-p_bar)), and the axis-aligned cubes built from them.
The "intrinsic" cube couples its half-widths to a time level through nu; the
"standard" cube is time-independent.  Both have volume (2*rho)^N regardless
of anisotropy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

GEOMETRIES = ("intrinsic", "standard")
_BOOLS = (bool, np.bool_)  # float(True) is 1.0, but a bool is no number (`_not_a_number`)
_NUMBER_RULE = "{name} must be a number, got {value!r}"  # `_not_a_number`'s words, and `_real`'s

#: the common range rules of `_violation`, as (words, predicate); NaN fails each comparison
_POSITIVE = ("be positive and finite", lambda x: 0.0 < x < math.inf)
_NONNEGATIVE = ("be nonnegative and finite", lambda x: 0.0 <= x < math.inf)
_FINITE = ("be finite", math.isfinite)
_ABOVE_ONE = ("exceed 1 and be finite", lambda x: 1.0 < x < math.inf)
_COUNT = ("be >= 1", lambda n: n >= 1)  # of an int

#: relative tolerance for the (2*rho)^N volume identity of every cube
VOLUME_RTOL = 1e-12


@dataclass(frozen=True)
class ExponentProfile:
    """Sorted growth exponents together with all derived scaling quantities.

    Exponents are stored ascending (p[0] <= ... <= p[-1]); any axis index
    used elsewhere in the package refers to this sorted order.
    """

    p: tuple[float, ...]
    N: int
    p_bar: float
    lam: float
    lam_i: tuple[float, ...]
    strict_fast: bool

    def lam_r(self, r: float) -> float:
        """N(p_bar - 2) + r*p_bar, the r-dependent scaling exponent."""
        if fault := _not_a_number("r", r):
            raise DomainError(fault)
        return self.N * (self.p_bar - 2.0) + r * self.p_bar

    def lam_ir(self, r: float) -> tuple[float, ...]:
        """Per-axis exponents N(p_i - 2) + r*p_bar."""
        if fault := _not_a_number("r", r):
            raise DomainError(fault)
        return tuple(self.N * (pi - 2.0) + r * self.p_bar for pi in self.p)


def derive_exponents(p_list: Sequence[float], N: int) -> ExponentProfile:
    """Build an ExponentProfile from N exponents, each in (1, 2].

    Entries need not be pre-sorted.  p_i = 2 is admitted (heat-equation
    validation mode) but flags strict_fast = False, and the intrinsic-geometry
    operations below reject such profiles.  p_bar >= N (every 1D profile) is
    admitted too; only the embedding (`lemmas.sobolev_critical`) needs
    p_bar < N, and it rejects such profiles.
    """
    if (fault := _not_a_number("dimension", N)) or N % 1 or N < 1:  # nan % 1 is nan
        raise DomainError(fault or f"dimension must be a positive integer, got {N!r}")
    N = int(N)
    entries = list(p_list)
    if len(entries) != N:
        raise DomainError(f"expected {N} exponents, got {len(entries)}")
    for x in entries:
        if (fault := _not_a_number("exponent", x)) or not 1.0 < x <= 2.0:  # NaN fails it too
            raise DomainError(fault or f"exponent out of (1, 2]: {float(x)!r}")
    p = tuple(sorted(map(float, entries)))
    p_bar = N / sum(1.0 / x for x in p)
    lam = N * (p_bar - 2.0) + p_bar
    lam_i = tuple(N * (x - 2.0) + p_bar for x in p)
    return ExponentProfile(
        p=p, N=N, p_bar=p_bar, lam=lam, lam_i=lam_i, strict_fast=p[-1] < 2.0
    )


def _require_fast(prof: ExponentProfile, what: str) -> None:
    if not prof.strict_fast:
        raise DomainError(
            f"{what} requires strictly fast-diffusion exponents (all p_i < 2); "
            f"got p={prof.p}"
        )


def _not_a_number(name: str, value, *more) -> str:
    """The number rule of every entry point: why `value`, then each value of the `more`
    name, value pairs, is no real number, else "".  A bool or numpy bool is none, though
    float(True) is 1.0, nor is a string, None, a complex or an int past 1e308.  Each
    caller raises the reason as its own exception type; `_violation` judges the range."""
    if not isinstance(value, float):  # a float (np.float64 too) first: the ABC test costs ~0.4 us
        if not isinstance(value, Real) or isinstance(value, _BOOLS):
            return _NUMBER_RULE.format(name=name, value=value)
        try:
            float(value)
        except OverflowError as exc:  # an int that no float holds, in float()'s words
            return f"{_NUMBER_RULE.format(name=name, value=value)}: {exc}"
    return _not_a_number(*more) if more else ""


def _real(value, name: str) -> float:
    """float(value) for a number or the text of one, as a config or a manifest holds it;
    else a TypeError in the number rule's words (`_not_a_number`)."""
    with contextlib.suppress(ValueError):  # text that is no number breaks the rule
        if isinstance(value, str) or not _not_a_number(name, value):
            return float(value)
    raise TypeError(_not_a_number(name, value))


def _violation(name: str, value, rule: tuple = _POSITIVE) -> str:
    """The range rule of every entry point: why `value` is no number (`_not_a_number`), or
    "{name} must {words}, got {value}" unless the rule's predicate holds, else "".  A numpy
    scalar is shown as the equal Python number.  Each caller raises it as its own type."""
    if not isinstance(value, float) and (fault := _not_a_number(name, value)):  # as it does
        return fault  # a float at once: no second call on the hot path
    words, holds = rule
    if holds(value):
        return ""
    shown = value.item() if isinstance(value, np.generic) else value  # np.float64(2.0) as 2.0
    return f"{name} must {words}, got {shown!r}"


def nu(t: float, rho: float, prof: ExponentProfile) -> float:
    """Time-scaling factor (t/rho^p_bar)^(1/(2-p_bar)) of the intrinsic geometry."""
    if fault := _violation("t", t) or _violation("rho", rho):
        raise DomainError(fault)
    _require_fast(prof, "nu")
    t, rho = float(t), float(rho)
    return float((t / rho**prof.p_bar) ** (1.0 / (2.0 - prof.p_bar)))


def nu_sigma(t: float, rho: float, prof: ExponentProfile) -> float:
    """Per-axis scaling sum of the standard geometry: sum_k (t/rho^p_bar)^(1/(2-p_k))."""
    if fault := _violation("t", t) or _violation("rho", rho):
        raise DomainError(fault)
    _require_fast(prof, "nu_sigma")
    t, rho = float(t), float(rho)
    base = t / rho**prof.p_bar
    return float(sum(base ** (1.0 / (2.0 - pk)) for pk in prof.p))


@dataclass(frozen=True)
class CubeSpec:
    """Axis-aligned anisotropic cube: center plus per-axis half-widths.

    Invariant: prod_i(2*half_widths[i]) = (2*rho)^N to within VOLUME_RTOL.
    Intrinsic cubes carry the time level they were built at; standard cubes
    do not.
    """

    center: tuple[float, ...]
    half_widths: tuple[float, ...]
    kind: str
    rho: float
    t: Optional[float] = None

    def __post_init__(self):
        if self.kind not in GEOMETRIES:
            raise DomainError(f"unknown cube kind {self.kind!r}")
        if len(self.center) != len(self.half_widths):
            raise DomainError("center and half_widths must have equal length")
        if self.kind == "intrinsic" and self.t is None:
            raise DomainError("intrinsic cube requires a time level t")
        fault = _violation("rho", self.rho)
        for c, w in zip(self.center, self.half_widths):
            fault = fault or _violation("half_width", w) or _violation("center", c, _FINITE)
        if fault := fault or self.kind == "intrinsic" and _violation("t", self.t):
            raise DomainError(fault)
        volume, reference = self.volume(), (2.0 * self.rho) ** self.N
        if abs(volume - reference) > VOLUME_RTOL * reference:
            raise DomainError(
                f"cube volume {volume!r} deviates from (2*rho)^N = {reference!r}"
            )

    @property
    def N(self) -> int:
        return len(self.half_widths)

    def volume(self) -> float:
        return math.prod(2.0 * w for w in self.half_widths)


def intrinsic_cube(rho: float, t: float, prof: ExponentProfile) -> CubeSpec:
    """Origin-centered cube with half-widths rho^(p_bar/p_i) * nu^((p_i-p_bar)/p_i).

    Along axes with p_i > p_bar the cube shrinks as t decreases; along axes
    with p_i < p_bar it stretches.  The volume stays (2*rho)^N.
    """
    if fault := _violation("rho", rho) or _violation("t", t):
        raise DomainError(fault)
    _require_fast(prof, "intrinsic_cube")
    rho, t = float(rho), float(t)
    widths = _intrinsic_widths(rho, t, prof)
    return CubeSpec(center=(0.0,) * prof.N, half_widths=widths, kind="intrinsic", rho=rho, t=t)


def _intrinsic_widths(rho: float, t: float, prof: ExponentProfile) -> tuple[float, ...]:
    """The half-widths of `intrinsic_cube`, unchecked: rho and t positive floats, prof fast."""
    v = (t / rho**prof.p_bar) ** (1.0 / (2.0 - prof.p_bar))  # nu(t, rho, prof)
    return tuple(rho ** (prof.p_bar / pi) * v ** ((pi - prof.p_bar) / pi) for pi in prof.p)


def standard_cube(rho: float, prof: ExponentProfile) -> CubeSpec:
    """Time-independent origin-centered cube with half-widths rho^(p_bar/p_i)."""
    if fault := _violation("rho", rho):
        raise DomainError(fault)
    rho = float(rho)
    widths = tuple(rho ** (prof.p_bar / pi) for pi in prof.p)
    return CubeSpec(center=(0.0,) * prof.N, half_widths=widths, kind="standard", rho=rho)


def scale_cube(cube: CubeSpec, a: float) -> CubeSpec:
    """Scale every half-width by a (the doubled intrinsic cube is scale_cube(K, 2)).

    Note the asymmetry between the two families: the doubled intrinsic cube
    scales its half-widths linearly, while the doubled standard cube is
    standard_cube(2*rho, ...) whose half-widths scale like (2*rho)^(p_bar/p_i).
    """
    if fault := _violation("scale factor", a):
        raise DomainError(fault)
    a = float(a)
    return replace(
        cube,
        half_widths=tuple(a * w for w in cube.half_widths),
        rho=a * cube.rho,
    )


def smallness_violated(
    C: float,
    rho: float,
    t: float,
    prof: ExponentProfile,
    mode: str,
) -> tuple[bool, Optional[int]]:
    """Check the inhomogeneity-smallness alternative; returns (violated, index).

    Intrinsic mode: violated iff C^{p_i} rho^p_bar > min(1, nu^(p_bar-p_i), nu^p_bar)
    for some axis i.  Standard mode: violated iff C^{p_i} rho^p_bar >
    min(1, nu_sigma^{p_i}).  Ties are not violations (strict inequality).
    For C = 0 the answer is (False, None) once rho and t are judged, and no scaling
    factor is evaluated, so the heat-equation validation mode is accepted.
    """
    if mode not in GEOMETRIES:
        raise DomainError(f"unknown smallness mode {mode!r}")
    if fault := _violation("C", C, _NONNEGATIVE) or _violation("rho", rho) or _violation("t", t):
        raise DomainError(fault)  # rho and t for C = 0 too
    C, rho, t = float(C), float(rho), float(t)
    if C == 0.0:
        return False, None
    rp = rho**prof.p_bar
    if mode == "intrinsic":
        v = nu(t, rho, prof)
        bounds = (min(1.0, v ** (prof.p_bar - pi), v**prof.p_bar) for pi in prof.p)
    else:
        vs = nu_sigma(t, rho, prof)
        bounds = (min(1.0, vs**pi) for pi in prof.p)
    for i, (pi, bound) in enumerate(zip(prof.p, bounds)):
        if C**pi * rp > bound:
            return True, i
    return False, None
