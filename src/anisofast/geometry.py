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

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

GEOMETRIES = ("intrinsic", "standard")
_BOOLS = (bool, np.bool_)  # float(True) is 1.0, but no guard takes a bool for a number
_BOOL_TYPES = frozenset(_BOOLS)  # neither can be subclassed: type(x) in it is isinstance

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
        return self.N * (self.p_bar - 2.0) + r * self.p_bar

    def lam_ir(self, r: float) -> tuple[float, ...]:
        """Per-axis exponents N(p_i - 2) + r*p_bar."""
        return tuple(self.N * (pi - 2.0) + r * self.p_bar for pi in self.p)


def derive_exponents(p_list: Sequence[float], N: int) -> ExponentProfile:
    """Build an ExponentProfile from N exponents, each in (1, 2].

    Entries need not be pre-sorted.  p_i = 2 is admitted (heat-equation
    validation mode) but flags strict_fast = False, and the intrinsic-geometry
    operations below reject such profiles.  p_bar >= N (every 1D profile) is
    admitted too; only the embedding (`lemmas.sobolev_critical`) needs
    p_bar < N, and it rejects such profiles.
    """
    if int(N) != N or N < 1:
        raise DomainError(f"dimension must be a positive integer, got {N!r}")
    N = int(N)
    entries = [float(x) for x in p_list]
    if len(entries) != N:
        raise DomainError(f"expected {N} exponents, got {len(entries)}")
    for x in entries:
        if not (1.0 < x <= 2.0) or not math.isfinite(x):
            raise DomainError(f"exponent out of (1, 2]: {x!r}")
    p = tuple(sorted(entries))
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


def _refuse_bools(**values) -> None:
    """`DomainError` naming the first of `values` that is a bool, though float(True) is 1.0."""
    for name, value in values.items():
        if isinstance(value, _BOOLS):
            raise DomainError(f"{name} must be a number, got {value!r}")


def _is_real(value) -> bool:  # a JSON true or false is not a number, as for `_real`
    # a float first: the numbers.Real check costs ~1 us, once per snapshot time and check
    return type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, _BOOLS)


def _require_positive(name: str, value: float) -> float:
    """float(value) if it is positive and finite; a string is a TypeError, not a number,
    and a bool is no number either, though float(True) is 1.0."""
    if isinstance(value, _BOOLS):
        raise DomainError(f"{name} must be a number, got {value!r}")
    if not 0.0 < value < math.inf:  # NaN fails every comparison
        raise DomainError(f"{name} must be positive and finite, got {float(value)!r}")
    return float(value)


def nu(t: float, rho: float, prof: ExponentProfile) -> float:
    """Time-scaling factor (t/rho^p_bar)^(1/(2-p_bar)) of the intrinsic geometry."""
    t = _require_positive("t", t)
    rho = _require_positive("rho", rho)
    _require_fast(prof, "nu")
    return float((t / rho**prof.p_bar) ** (1.0 / (2.0 - prof.p_bar)))


def nu_sigma(t: float, rho: float, prof: ExponentProfile) -> float:
    """Per-axis scaling sum of the standard geometry: sum_k (t/rho^p_bar)^(1/(2-p_k))."""
    t = _require_positive("t", t)
    rho = _require_positive("rho", rho)
    _require_fast(prof, "nu_sigma")
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
        _require_positive("rho", self.rho)
        for w in self.half_widths:
            _require_positive("half_width", w)
        if self.kind == "intrinsic":
            if self.t is None:
                raise DomainError("intrinsic cube requires a time level t")
            _require_positive("t", self.t)
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
    rho, t = _require_positive("rho", rho), _require_positive("t", t)
    _require_fast(prof, "intrinsic_cube")
    widths = _intrinsic_widths(rho, t, prof)
    return CubeSpec(center=(0.0,) * prof.N, half_widths=widths, kind="intrinsic", rho=rho, t=t)


def _intrinsic_widths(rho: float, t: float, prof: ExponentProfile) -> tuple[float, ...]:
    """The half-widths of `intrinsic_cube`, unchecked: rho and t positive floats, prof fast."""
    v = (t / rho**prof.p_bar) ** (1.0 / (2.0 - prof.p_bar))  # nu(t, rho, prof)
    return tuple(rho ** (prof.p_bar / pi) * v ** ((pi - prof.p_bar) / pi) for pi in prof.p)


def standard_cube(rho: float, prof: ExponentProfile) -> CubeSpec:
    """Time-independent origin-centered cube with half-widths rho^(p_bar/p_i)."""
    rho = _require_positive("rho", rho)
    widths = tuple(rho ** (prof.p_bar / pi) for pi in prof.p)
    return CubeSpec(center=(0.0,) * prof.N, half_widths=widths, kind="standard", rho=rho)


def scale_cube(cube: CubeSpec, a: float) -> CubeSpec:
    """Scale every half-width by a (the doubled intrinsic cube is scale_cube(K, 2)).

    Note the asymmetry between the two families: the doubled intrinsic cube
    scales its half-widths linearly, while the doubled standard cube is
    standard_cube(2*rho, ...) whose half-widths scale like (2*rho)^(p_bar/p_i).
    """
    a = _require_positive("scale factor", a)
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
    For C = 0 the answer is always (False, None) and no scaling factor is
    evaluated, so the heat-equation validation mode is accepted.
    """
    if mode not in GEOMETRIES:
        raise DomainError(f"unknown smallness mode {mode!r}")
    if not _is_real(C):  # float('0.5') is 0.5
        raise DomainError(f"C must be a number, got {C!r}")
    C = float(C)
    if C < 0.0 or not math.isfinite(C):
        raise DomainError(f"C must be nonnegative and finite, got {C!r}")
    if C == 0.0:
        return False, None
    rho = _require_positive("rho", rho)
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
