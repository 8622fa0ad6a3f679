"""Exponent arithmetic, cube constructions, and their exact identities."""

import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisofast as af
from anisofast.errors import DomainError
from anisofast.lemmas import sobolev_critical

# draws shared by the invariance properties: dimension, exponents, radius, time
dims = st.integers(min_value=1, max_value=4)
exponents = st.floats(min_value=1.01, max_value=1.99)
radii = st.floats(min_value=0.1, max_value=3.0)
times = st.floats(min_value=0.01, max_value=5.0)


def profile_strategy():
    return dims.flatmap(
        lambda n: st.tuples(st.lists(exponents, min_size=n, max_size=n), st.just(n))
    )


# --- derive_exponents --------------------------------------------------------


def test_isotropic_profile():
    prof = af.derive_exponents([1.5, 1.5], 2)
    assert prof.p_bar == pytest.approx(1.5, abs=1e-15)
    assert prof.lam == pytest.approx(0.5, abs=1e-12)
    assert prof.strict_fast


def test_sorting_and_derived_values():
    prof = af.derive_exponents([1.8, 1.2], 2)
    assert prof.p == (1.2, 1.8)
    assert prof.p_bar == pytest.approx(1.44, abs=1e-12)
    assert prof.lam == pytest.approx(0.32, abs=1e-12)
    assert prof.lam_i[0] == pytest.approx(-0.16, abs=1e-12)
    assert prof.lam_i[1] == pytest.approx(1.04, abs=1e-12)


@given(q=exponents, n=dims)
@settings(max_examples=50, deadline=None)
def test_isotropic_lambda_collapse(q, n):
    prof = af.derive_exponents([q] * n, n)
    assert prof.p_bar == pytest.approx(q, rel=1e-12)
    for li in prof.lam_i:
        assert li == pytest.approx(prof.lam, rel=1e-10, abs=1e-12)


def test_exponent_range_errors():
    with pytest.raises(DomainError):
        af.derive_exponents([1.0, 1.5], 2)
    with pytest.raises(DomainError):
        af.derive_exponents([2.5, 1.5], 2)
    with pytest.raises(DomainError):
        af.derive_exponents([1.5, 1.5, 1.5], 2)


def test_heat_mode_allowed_but_not_strict():
    prof = af.derive_exponents([2.0], 1)
    assert not prof.strict_fast
    with pytest.raises(DomainError):
        af.intrinsic_cube(1.0, 0.5, prof)
    with pytest.raises(DomainError):
        af.nu(0.5, 1.0, prof)


def test_pbar_above_dimension_rejected_only_by_embedding():
    # every 1D profile has p_bar >= N; building it is silent, and only the
    # embedding, which needs p_bar < N, rejects it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = af.derive_exponents([1.5], 1)
    with pytest.raises(DomainError, match="harmonic-mean exponent p_bar=1.5"):
        sobolev_critical(prof)


# --- nu and nu_sigma ---------------------------------------------------------


def test_nu_identity_base():
    prof = af.derive_exponents([1.5, 1.5], 2)
    assert af.nu(1.0, 1.0, prof) == pytest.approx(1.0, abs=1e-15)


def test_nu_hand_value():
    prof = af.derive_exponents([1.2, 1.8], 2)
    assert af.nu(0.5, 1.0, prof) == pytest.approx(0.2900, abs=5e-5)


@given(q=exponents, rho=radii)
@settings(max_examples=50, deadline=None)
def test_nu_scaling_fixed_point(q, rho):
    prof = af.derive_exponents([q, q], 2)
    assert af.nu(rho**prof.p_bar, rho, prof) == pytest.approx(1.0, rel=1e-10)


def test_nu_sigma_values():
    prof = af.derive_exponents([1.2, 1.8], 2)
    assert af.nu_sigma(0.5, 1.0, prof) == pytest.approx(0.4517, abs=5e-5)
    # t = rho^p_bar makes every summand one
    assert af.nu_sigma(1.0, 1.0, prof) == pytest.approx(2.0, abs=1e-14)


@given(q=exponents, t=times, rho=radii)
@settings(max_examples=50, deadline=None)
def test_nu_sigma_isotropic_collapses(q, t, rho):
    prof = af.derive_exponents([q, q, q], 3)
    assert af.nu_sigma(t, rho, prof) == pytest.approx(
        3.0 * af.nu(t, rho, prof), rel=1e-10
    )


# --- cubes ---------------------------------------------------------------------


def test_intrinsic_cube_hand_values():
    prof = af.derive_exponents([1.2, 1.8], 2)
    cube = af.intrinsic_cube(1.0, 0.5, prof)
    assert cube.half_widths[0] == pytest.approx(1.281, abs=1e-3)
    assert cube.half_widths[1] == pytest.approx(0.7807, abs=1e-3)
    assert cube.volume() == pytest.approx(4.0, rel=1e-12)


def test_standard_cube_hand_values():
    prof = af.derive_exponents([1.2, 1.8], 2)
    cube = af.standard_cube(2.0, prof)
    assert cube.half_widths[0] == pytest.approx(2.0**1.2, rel=1e-12)
    assert cube.half_widths[1] == pytest.approx(2.0**0.8, rel=1e-12)
    assert cube.volume() == pytest.approx(16.0, rel=1e-12)


def test_standard_cube_unit_radius():
    prof = af.derive_exponents([1.3, 1.9], 2)
    cube = af.standard_cube(1.0, prof)
    assert cube.half_widths == (1.0, 1.0)


@given(data=profile_strategy(), rho=radii, t=times)
@settings(max_examples=300, deadline=None)
def test_volume_invariance(data, rho, t):
    p_list, n = data
    prof = af.derive_exponents(p_list, n)
    for cube in (af.intrinsic_cube(rho, t, prof), af.standard_cube(rho, prof)):
        assert abs(cube.volume() - (2 * rho) ** n) <= 1e-12 * (2 * rho) ** n


@given(q=exponents, n=dims, rho=radii, t=times)
@settings(max_examples=100, deadline=None)
def test_isotropic_reduction(q, n, rho, t):
    prof = af.derive_exponents([q] * n, n)
    ki = af.intrinsic_cube(rho, t, prof)
    ks = af.standard_cube(rho, prof)
    for w1, w2 in zip(ki.half_widths, ks.half_widths):
        assert w1 == pytest.approx(rho, rel=1e-12)
        assert w2 == pytest.approx(rho, rel=1e-12)


def test_monotone_degeneration():
    # along axes with p_k > p_bar the intrinsic half-width shrinks as t decreases
    prof = af.derive_exponents([1.2, 1.8], 2)
    widths = [
        af.intrinsic_cube(0.5, t, prof).half_widths[1] for t in (0.01, 0.05, 0.2, 1.0)
    ]
    assert all(a <= b for a, b in zip(widths, widths[1:]))


@given(data=profile_strategy(), rho=radii, t=times, a=st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=100, deadline=None)
def test_scale_cube_keeps_volume_identity(data, rho, t, a):
    p_list, n = data
    prof = af.derive_exponents(p_list, n)
    scaled = af.scale_cube(af.intrinsic_cube(rho, t, prof), a)
    assert scaled.rho == pytest.approx(a * rho, rel=1e-12)
    assert abs(scaled.volume() - (2 * scaled.rho) ** n) <= 1e-11 * (2 * scaled.rho) ** n


@given(data=profile_strategy(), rho=radii, t=times)
@settings(max_examples=200, deadline=None)
def test_lambda_identities(data, rho, t):
    p_list, n = data
    prof = af.derive_exponents(p_list, n)
    # definitional: lam_i - lam = N (p_i - p_bar)
    for pi, li in zip(prof.p, prof.lam_i):
        assert li - prof.lam == pytest.approx(n * (pi - prof.p_bar), rel=1e-10, abs=1e-12)
    # scaling coherence: (t / rho^lam)^(1/(2-p_bar)) = nu * rho^N
    lhs = (t / rho**prof.lam) ** (1.0 / (2.0 - prof.p_bar))
    rhs = af.nu(t, rho, prof) * rho**n
    assert lhs == pytest.approx(rhs, rel=1e-10)


# --- smallness alternative -----------------------------------------------------


def test_smallness_cases():
    prof = af.derive_exponents([1.5, 1.5], 2)
    assert af.smallness_violated(0.0, 1.0, 1.0, prof, "intrinsic") == (False, None)
    violated, index = af.smallness_violated(10.0, 1.0, 1.0, prof, "intrinsic")
    assert violated and index == 0
    # boundary case: C^{p_i} rho^p_bar exactly equal to the min -> not violated
    # (nu = 1 at t = rho^p_bar = 1, so the bound is exactly 1 and C = 1 hits it)
    assert af.smallness_violated(1.0, 1.0, 1.0, prof, "intrinsic") == (False, None)
    assert af.smallness_violated(10.0, 1.0, 1.0, prof, "standard")[0]


def test_smallness_zero_c_skips_heat_mode():
    prof = af.derive_exponents([2.0, 2.0], 2)
    assert af.smallness_violated(0.0, 1.0, 1.0, prof, "intrinsic") == (False, None)


@pytest.mark.parametrize(
    "C", ["0.5", "0", None, [0.5]], ids=["string", "zero-string", "none", "list"]
)
def test_smallness_refuses_a_C_that_is_no_number(C):
    # float('0.5') is 0.5, so a string passed as C used to read as a number
    with pytest.raises(DomainError, match=f"^{re.escape(f'C must be a number, got {C!r}')}$"):
        af.smallness_violated(C, 0.1, 0.1, _PROF, "intrinsic")


def test_cube_spec_volume_validation():
    with pytest.raises(DomainError):
        af.CubeSpec(center=(0.0,), half_widths=(2.0,), kind="standard", rho=1.0)


# --- guards ------------------------------------------------------------------------


_PROF = af.derive_exponents([1.4, 1.6], 2)

#: each guard of the geometry's arguments that no other test reaches: (call, message)
GEOMETRY_GUARDS = {
    "dimension 0": (
        lambda: af.derive_exponents([1.5], 0), "dimension must be a positive integer, got 0"
    ),
    "dimension 1.5": (
        lambda: af.derive_exponents([1.5], 1.5), "dimension must be a positive integer, got 1.5"
    ),
    "cube kind": (lambda: af.CubeSpec((0.0,), (0.1,), "round", 0.1), "unknown cube kind 'round'"),
    "cube lengths": (
        lambda: af.CubeSpec((0.0, 0.0), (0.1,), "standard", 0.1),
        "center and half_widths must have equal length",
    ),
    "intrinsic time": (
        lambda: af.CubeSpec((0.0,), (0.1,), "intrinsic", 0.1),
        "intrinsic cube requires a time level t",
    ),
    "smallness mode": (
        lambda: af.smallness_violated(1.0, 0.1, 0.1, _PROF, "round"),
        "unknown smallness mode 'round'",
    ),
    "smallness C negative": (
        lambda: af.smallness_violated(-1.0, 0.1, 0.1, _PROF, "standard"),
        "C must be nonnegative and finite, got -1.0",
    ),
}


@pytest.mark.parametrize("case", sorted(GEOMETRY_GUARDS))
def test_geometry_guards(case):
    call, message = GEOMETRY_GUARDS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
