"""Cube quadrature, time-window reductions, and the inequality checkers."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisofast as af
from anisofast.errors import DomainError
from anisofast.harnack import _cube_sups


def _field_2d(values, half=0.5, boundary="dirichlet_zero"):
    n = values.shape[0]
    grid = af.build_grid([half, half], [n, values.shape[1]], boundary)
    return af.Field(grid, values.ravel(), 0.0)


def _iso_cube(rho, n=2):
    prof = af.derive_exponents([1.5] * n, n)
    return af.standard_cube(rho, prof)


# --- gamma_min ----------------------------------------------------------------


def test_gamma_min_basic():
    assert af.gamma_min(1.0, (0.5, 0.5)) == pytest.approx(1.0)
    assert af.gamma_min(0.0, (3.0, 4.0)) == 0.0
    assert af.gamma_min(2.0, (0.0,)) == math.inf
    assert af.gamma_min(0.0, ()) == 0.0
    with pytest.raises(DomainError):
        af.gamma_min(-1.0, (1.0,))
    with pytest.raises(DomainError):
        af.gamma_min(1.0, (-0.1,))


@given(
    lhs=st.floats(min_value=0.0, max_value=1e6),
    terms=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_gamma_min_is_minimal_admissible(lhs, terms):
    g = af.gamma_min(lhs, terms)
    total = sum(terms)
    if math.isfinite(g):
        assert lhs <= g * total * (1.0 + 1e-12) + 1e-300
        # any smaller constant fails whenever lhs is meaningfully positive
        if lhs > 1e-30 and total > 0.0:
            assert lhs > 0.999 * g * total * (1.0 - 1e-9)


# --- cube quadrature -----------------------------------------------------------


def test_cube_integral_constant_exact():
    u = np.ones((60, 60))
    field = _field_2d(u, half=1.5)
    cube = _iso_cube(1.0)
    assert af.cube_integral(field, cube, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_cube_integral_zero_field():
    field = _field_2d(np.zeros((20, 20)))
    assert af.cube_integral(field, _iso_cube(0.25), 2.0) == 0.0


def test_cube_integral_plateau_half_cube():
    # plateau of height 2 covering exactly the x < 0 half of the cube, r = 2:
    # integral = 2^2 * (volume / 2); faces align with the 40-cell grid
    grid = af.build_grid([0.5, 0.5], [40, 40], "dirichlet_zero")
    X, _ = np.meshgrid(grid.axis_centers(0), grid.axis_centers(1), indexing="ij")
    u = np.where(X < 0.0, 2.0, 0.0)
    field = af.Field(grid, u.ravel(), 0.0)
    cube = _iso_cube(0.25)
    expected = 4.0 * (0.5**2) / 2.0
    assert af.cube_integral(field, cube, 2.0) == pytest.approx(expected, rel=1e-12)


def test_cube_integral_matches_bruteforce_with_partial_cells():
    rng = np.random.default_rng(11)
    grid = af.build_grid([0.5, 0.5], [30, 30], "dirichlet_zero")
    u = rng.uniform(0.0, 1.0, (30, 30))
    field = af.Field(grid, u.ravel(), 0.0)
    cube = af.CubeSpec((0.05, -0.1), (0.23, 0.17), "standard", math.sqrt(0.23 * 0.17))
    # brute force: loop cells, per-axis clipped overlap fractions
    h = grid.spacings
    total = 0.0
    for i, x in enumerate(grid.axis_centers(0)):
        wx = max(
            0.0,
            min(x + h[0] / 2, cube.center[0] + cube.half_widths[0])
            - max(x - h[0] / 2, cube.center[0] - cube.half_widths[0]),
        )
        for j, y in enumerate(grid.axis_centers(1)):
            wy = max(
                0.0,
                min(y + h[1] / 2, cube.center[1] + cube.half_widths[1])
                - max(y - h[1] / 2, cube.center[1] - cube.half_widths[1]),
            )
            total += u[i, j] * wx * wy
    assert af.cube_integral(field, cube, 1.0) == pytest.approx(total, rel=1e-12)


def test_cube_integral_empty_intersection_warns():
    field = _field_2d(np.ones((16, 16)))
    far = af.CubeSpec((5.0, 5.0), (0.1, 0.1), "standard", 0.1)
    with pytest.warns(UserWarning):
        assert af.cube_integral(field, far, 1.0) == 0.0
    with pytest.warns(UserWarning):
        assert _cube_sups(field.grid, field.values[None], far)[0] == 0.0


def test_cube_sup_matches_bruteforce():
    rng = np.random.default_rng(5)
    grid = af.build_grid([0.5, 0.5], [25, 25], "dirichlet_zero")
    u = rng.uniform(0.0, 2.0, (25, 25))
    field = af.Field(grid, u.ravel(), 0.0)
    cube = af.CubeSpec((0.0, 0.1), (0.3, 0.2), "standard", math.sqrt(0.3 * 0.2))
    xs, ys = grid.axis_centers(0), grid.axis_centers(1)
    best = max(
        u[i, j]
        for i in range(25)
        for j in range(25)
        if abs(xs[i] - 0.0) < 0.3 and abs(ys[j] - 0.1) < 0.2
    )
    assert _cube_sups(grid, field.values[None], cube)[0] == best
    flat = _field_2d(np.full((16, 16), 0.7))
    assert _cube_sups(flat.grid, flat.values[None], _iso_cube(0.25))[0] == 0.7


# --- time_extremal --------------------------------------------------------------


def test_time_extremal_single_snapshot(zero_traj_1d):
    cube = af.standard_cube(0.2, zero_traj_1d.exponents)
    value = af.time_extremal(zero_traj_1d, cube, (0.05, 0.05), "sup_lr")
    assert value == 0.0


def test_time_extremal_monotone_sequence(run_1d_fast):
    cube = af.standard_cube(0.2, run_1d_fast.exponents)
    sup = af.time_extremal(run_1d_fast, cube, (0.0, 0.1), "sup_lr")
    first = af.cube_integral(run_1d_fast.snapshots[0], cube, 1.0)
    assert sup == pytest.approx(first, rel=1e-12)
    inf = af.time_extremal(run_1d_fast, cube, (0.0, 0.1), "inf_l1")
    assert inf < sup


def test_time_extremal_errors(run_1d_fast):
    cube = af.standard_cube(0.2, run_1d_fast.exponents)
    with pytest.raises(DomainError):
        af.time_extremal(run_1d_fast, cube, (0.05, 0.01), "sup_lr")
    with pytest.raises(DomainError):
        af.time_extremal(run_1d_fast, cube, (0.0, 0.1), "median_l1")


# --- checkers -------------------------------------------------------------------


def test_l1l1_zero_trajectory(zero_traj_1d):
    rep = af.check_l1l1(zero_traj_1d, 0.1, 0.1, "intrinsic")
    assert rep.lhs == 0.0 and rep.gamma_min == 0.0
    rep = af.check_l1l1(zero_traj_1d, 0.1, 0.1, "standard")
    assert rep.gamma_min == 0.0


def test_l1l1_constant_periodic_trajectory():
    prof = af.derive_exponents([1.5, 1.5], 2)
    grid = af.build_grid([0.5, 0.5], [16, 16], "periodic")
    traj = af.Trajectory(grid, prof, 1e-3, np.full((3, 256), 0.8), (0.0, 0.05, 0.1))
    rep = af.check_l1l1(traj, 0.1, 0.1, "intrinsic")
    assert rep.lhs == pytest.approx(0.8 * 0.2**2, rel=1e-12)
    assert rep.gamma_min <= 1.0


def test_l1l1_gamma_stable_under_refinement():
    prof_args = ([1.5], 1)
    gammas = []
    for cells in (100, 200):
        prof = af.derive_exponents(*prof_args)
        grid = af.build_grid([0.5], [cells], "dirichlet_zero")
        cfg = af.SimConfig(
            grid=grid,
            profile=af.InitialProfile("bump", 1.0, 0.25),
            exponents=prof,
            eps=1e-2,
            t_end=0.1,
            safety=0.45,
            snapshot_times=af.uniform_snapshots(0.1, 101),
        )
        traj = af.run(cfg)
        gammas.append(af.check_l1l1(traj, 0.1, 0.08, "intrinsic").gamma_min)
    ratio = max(gammas) / min(gammas)
    assert ratio <= 2.0


def test_l1linf_not_applicable_subcritical(zero_traj_1d):
    prof = af.derive_exponents([1.1, 1.1], 2)
    assert prof.lam == pytest.approx(-0.7, abs=1e-12)
    grid = af.build_grid([0.5, 0.5], [8, 8], "dirichlet_zero")
    traj = af.Trajectory(grid, prof, 1e-3, np.zeros((2, 64)), (0.0, 0.1))
    rep = af.check_l1linf(traj, 0.1, 0.1, "intrinsic")
    assert not rep.applicable
    assert "lam" in rep.reason
    rep = af.check_l1linf(traj, 0.1, 0.1, "standard")
    assert not rep.applicable


def test_l1linf_applicable_supercritical(run_2d_aniso):
    rep = af.check_l1linf(run_2d_aniso, 0.13, 0.06, "intrinsic")
    assert rep.applicable
    assert math.isfinite(rep.gamma_min) and rep.gamma_min > 0.0
    assert set(rep.rhs_terms) == {"harnack", "scaling"}
    rep_std = af.check_l1linf(run_2d_aniso, 0.13, 0.06, "standard")
    assert set(rep_std.rhs_terms) == {"harnack", "scaling_weighted_sum", "scaling_sum"}


def test_lr_sup_applicability(run_2d_aniso, zero_traj_1d):
    prof = af.derive_exponents([1.2, 1.8], 2)
    assert prof.lam_r(2.0) == pytest.approx(1.76, abs=1e-12)
    rep = af.check_lr_sup(run_2d_aniso, 0.13, 0.06, 2.0, "intrinsic")
    assert rep.applicable and math.isfinite(rep.gamma_min)
    zrep = af.check_lr_sup(zero_traj_1d, 0.1, 0.1, 2.0, "intrinsic")
    assert zrep.gamma_min == 0.0


def test_lr_backward_monotone_decay_gamma_below_one(run_1d_fast):
    # sup in time of the u^r mass sits at tau = 0 for a decaying run, and the
    # initial integral over the doubled cube dominates it by inclusion
    rep = af.check_lr_backward(run_1d_fast, 0.1, 0.1, 2.0, "intrinsic")
    assert rep.gamma_min <= 1.0 + 1e-12
    rep = af.check_lr_backward(run_1d_fast, 0.1, 0.1, 2.0, "standard")
    assert rep.gamma_min <= 1.0 + 1e-12


def test_lr_backward_requires_r_above_one(run_1d_fast):
    with pytest.raises(DomainError):
        af.check_lr_backward(run_1d_fast, 0.1, 0.1, 1.0, "intrinsic")


def test_lr_backward_lambda_values():
    prof = af.derive_exponents([1.2, 1.8], 2)
    lam_ir = prof.lam_ir(2.0)
    assert lam_ir[0] == pytest.approx(1.28, abs=1e-12)
    assert lam_ir[1] == pytest.approx(2.48, abs=1e-12)


def test_composite_ordering_property(run_2d_aniso):
    # composing the sup estimate with the backward estimate dominates the
    # composite bound, so the minimal constants are ordered accordingly
    prof = run_2d_aniso.exponents
    expo = prof.p_bar / prof.lam_r(2.0)
    for geometry in ("intrinsic", "standard"):
        for rho in (0.12, 0.14):
            for t in (0.05, 0.07):
                gc = af.check_backwards_composite(run_2d_aniso, rho, t, 2.0, geometry)
                gs = af.check_lr_sup(run_2d_aniso, rho, t, 2.0, geometry)
                gb = af.check_lr_backward(run_2d_aniso, rho, t, 2.0, geometry)
                bound = gs.gamma_min * max(1.0, gb.gamma_min) ** expo
                assert gc.gamma_min <= bound * (1.0 + 1e-9)


def test_composite_zero_trajectory(zero_traj_1d):
    rep = af.check_backwards_composite(zero_traj_1d, 0.1, 0.1, 2.0, "intrinsic")
    assert rep.gamma_min == 0.0


def test_checkers_are_pure(run_2d_aniso):
    a = af.check_l1l1(run_2d_aniso, 0.13, 0.06, "intrinsic", C=0.5)
    b = af.check_l1l1(run_2d_aniso, 0.13, 0.06, "intrinsic", C=0.5)
    assert a == b


def test_smallness_echoed_and_false_for_zero_c(run_2d_aniso):
    rep = af.check_l1l1(run_2d_aniso, 0.13, 0.06, "intrinsic", C=0.0)
    assert not rep.smallness_triggered and rep.smallness_index is None
    rep_hot = af.check_l1l1(run_2d_aniso, 0.13, 0.06, "intrinsic", C=50.0)
    assert rep_hot.smallness_triggered and rep_hot.smallness_index is not None


def test_out_of_domain_flag(run_1d_fast):
    rep = af.check_l1l1(run_1d_fast, 0.4, 0.1, "standard")
    assert not rep.hypothesis_ok  # doubled cube of rho=0.4 exceeds the unit box
    rep_ok = af.check_l1l1(run_1d_fast, 0.1, 0.1, "standard")
    assert rep_ok.hypothesis_ok


def test_window_validation(run_1d_fast):
    with pytest.raises(DomainError):
        af.check_l1l1(run_1d_fast, 0.1, 5.0, "intrinsic")
    with pytest.raises(DomainError):
        af.check_l1l1(run_1d_fast, 0.1, -0.1, "intrinsic")


def test_report_row_consistency(run_2d_aniso):
    rep = af.check_l1linf(run_2d_aniso, 0.13, 0.06, "standard")
    assert rep.lhs <= rep.gamma_min * rep.rhs_total * (1.0 + 1e-12)
    assert rep.snapshots_in_window > 0
    assert rep.params["rho"] == 0.13 and rep.params["t"] == 0.06


# --- guards ------------------------------------------------------------------------


def _two_snapshots():
    grid, prof = af.build_grid([0.5], [8]), af.derive_exponents([1.5], 1)
    return af.Trajectory(grid, prof, 1e-3, np.ones((2, 8)), (0.0, 0.05))


#: each guard of the quadrature's arguments that no other test reaches: (call, message)
QUADRATURE_GUARDS = {
    "cube dimension": (
        lambda: af.cube_integral(_field_2d(np.ones((8, 8))), _iso_cube(0.1, 1)),
        "cube dimension 1 != grid dimension 2",
    ),
    "integral order": (
        lambda: af.cube_integral(_field_2d(np.ones((8, 8))), _iso_cube(0.1), r=0.5),
        "r must be >= 1 and finite, got 0.5",
    ),
    "empty window": (
        lambda: af.time_extremal(_two_snapshots(), _iso_cube(0.1, 1), (0.01, 0.02), "sup_lr"),
        "no snapshots in window [0.01, 0.02]",
    ),
}


@pytest.mark.parametrize("case", sorted(QUADRATURE_GUARDS))
def test_quadrature_guards(case):
    call, message = QUADRATURE_GUARDS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
