"""Acceptance criteria: oracle- and property-based checks at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines.  The heavy solver runs are shared through module-scoped
fixtures; each criterion asserts its own tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

import anisofast as af
from anisofast.lemmas import (
    fast_convergence,
    iteration_bound,
    sobolev_critical,
    sobolev_ratio,
    young_conjugate,
    young_gamma,
)
from conftest import synthetic_power_trajectory


def _verdict(criterion, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert condition, f"criterion {criterion}: {detail}"


def _random_profile(rng):
    n = int(rng.integers(1, 5))
    if rng.uniform() < 0.3:
        p = [float(rng.uniform(1.01, 1.99))] * n
    else:
        p = list(rng.uniform(1.01, 1.99, size=n))
    return af.derive_exponents(p, n)


# --- shared runs -------------------------------------------------------------------


@pytest.fixture(scope="module")
def extinction_runs():
    """1D p=1.5 bump runs at the eps-refinement pair (1e-3, 1e-4)."""
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [200], "dirichlet_zero")
    out = {}
    for eps in (1e-3, 1e-4):
        cfg = af.SimConfig(
            grid=grid,
            profile=af.InitialProfile("bump", 1.0, 0.25),
            exponents=prof,
            eps=eps,
            t_end=0.45,
            safety=0.45,
            snapshot_times=af.uniform_snapshots(0.45, 601),
        )
        start = time.perf_counter()
        traj = af.run(cfg)
        out[eps] = (traj, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def aniso_runs():
    """2D p=(1.4, 1.6) runs at two resolutions for the gamma-stability family."""
    prof = af.derive_exponents([1.4, 1.6], 2)
    out = {}
    for res in (48, 96):
        grid = af.build_grid([0.5, 0.5], [res, res], "dirichlet_zero")
        cfg = af.SimConfig(
            grid=grid,
            profile=af.InitialProfile("bump", 1.0, 0.3),
            exponents=prof,
            eps=0.02,
            t_end=0.08,
            safety=0.35,
            snapshot_times=af.uniform_snapshots(0.08, 161),
        )
        start = time.perf_counter()
        traj = af.run(cfg)
        out[res] = (traj, time.perf_counter() - start)
    return out


# --- criteria ----------------------------------------------------------------------


def test_criterion_01_geometry_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_volume = 0.0
    worst_iso = 0.0
    for _ in range(1000):
        prof = _random_profile(rng)
        rho = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.01, 5.0))
        for cube in (af.intrinsic_cube(rho, t, prof), af.standard_cube(rho, prof)):
            ref = (2.0 * rho) ** prof.N
            worst_volume = max(worst_volume, abs(cube.volume() - ref) / ref)
            if prof.p[0] == prof.p[-1]:  # isotropic
                worst_iso = max(
                    worst_iso, max(abs(w - rho) / rho for w in cube.half_widths)
                )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst_volume <= 1e-12 and worst_iso <= 1e-12 and elapsed < 1.0,
        f"volume dev {worst_volume:.2e} <= 1e-12, isotropic dev {worst_iso:.2e}, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_02_algebraic_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst_nu = 0.0
    worst_lam = 0.0
    for _ in range(1000):
        prof = _random_profile(rng)
        rho = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.01, 5.0))
        lhs = (t / rho**prof.lam) ** (1.0 / (2.0 - prof.p_bar))
        rhs = af.nu(t, rho, prof) * rho**prof.N
        worst_nu = max(worst_nu, abs(lhs - rhs) / rhs)
        for pi, li in zip(prof.p, prof.lam_i):
            target = prof.N * (pi - prof.p_bar)
            scale = max(1.0, abs(li), abs(prof.lam))
            worst_lam = max(worst_lam, abs((li - prof.lam) - target) / scale)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst_nu <= 1e-10 and worst_lam <= 1e-10 and elapsed < 1.0,
        f"scaling identity dev {worst_nu:.2e}, lambda identity dev {worst_lam:.2e}, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_03_heat_oracle():
    start = time.perf_counter()
    grid = af.build_grid([0.5], [200], "dirichlet_zero")
    prof = af.derive_exponents([2.0], 1)
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("sine_product", 1.0),
        exponents=prof,
        eps=1e-6,
        t_end=0.1,
        safety=0.5,
        snapshot_times=(0.0, 0.1),
    )
    traj = af.run(cfg)
    x = grid.axis_centers(0)
    exact = math.exp(-math.pi**2 * 0.1) * np.cos(math.pi * x)
    err = float(np.abs(traj.snapshots[-1].values - exact).max())
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        err <= 0.01 and elapsed < 10.0,
        f"max error {err:.2e} <= 1e-2 vs exact heat decay, {elapsed:.1f}s < 10s",
    )


def test_criterion_04_conservation():
    start = time.perf_counter()
    prof = af.derive_exponents([1.4, 1.6], 2)
    grid = af.build_grid([0.5, 0.5], [64, 64], "periodic")
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.3),
        exponents=prof,
        eps=0.05,
        t_end=0.105,
        safety=0.35,
        snapshot_times=(0.0, 0.105),
    )
    traj = af.run(cfg)
    elapsed = time.perf_counter() - start
    steps = traj.steps
    _verdict(
        4,
        steps >= 10_000 and traj.mass_drift <= 1e-12 and elapsed < 60.0,
        f"{steps} steps, relative mass drift {traj.mass_drift:.2e} <= 1e-12, "
        f"{elapsed:.1f}s < 60s",
    )


@pytest.mark.slow
def test_criterion_05_extinction_sup_exponent(extinction_runs):
    start = time.perf_counter()
    slopes = {}
    for eps, (traj, _) in extinction_runs.items():
        threshold = 1e-5 * traj.initial.sup()
        _, (rep, _) = af.decay_reports(traj, 0.1, threshold)
        slopes[eps] = rep.sup_slope
    run_time = sum(elapsed for _, elapsed in extinction_runs.values())
    total = run_time + (time.perf_counter() - start)
    fine, coarse = slopes[1e-4], slopes[1e-3]
    within = abs(fine - 2.0) <= 0.2
    improving = abs(fine - 2.0) < abs(coarse - 2.0)
    _verdict(
        5,
        within and improving and total <= 600.0,
        f"sup slope {fine:.4f} (eps 1e-4) within 10% of 2.0, "
        f"eps 1e-3 gave {coarse:.4f} (moving toward 2.0), {total:.0f}s <= 600s",
    )


@pytest.mark.slow
def test_criterion_06_extinction_mass_exponent(extinction_runs):
    traj, _ = extinction_runs[1e-4]
    threshold = 1e-5 * traj.initial.sup()
    _, (rep, _) = af.decay_reports(traj, 0.1, threshold)
    _verdict(
        6,
        abs(rep.mass_slope - 2.0) <= 0.2,
        f"intrinsic mass slope {rep.mass_slope:.4f} within 10% of 2.0 "
        f"(r^2 = {rep.mass_r_squared:.5f})",
    )


def test_criterion_07_harnack_gamma_stability(aniso_runs):
    start = time.perf_counter()
    rhos = (0.12, 0.13, 0.14)
    ts = (0.05, 0.06, 0.07)
    checkers = {"l1l1": af.check_l1l1, "l1linf": af.check_l1linf}
    gammas = {}
    for res, (traj, _) in aniso_runs.items():
        for name, fn in checkers.items():
            for geometry in ("intrinsic", "standard"):
                values = np.array(
                    [fn(traj, rho, t, geometry).gamma_min for rho in rhos for t in ts]
                )
                gammas[(res, name, geometry)] = values
    finite = all(np.isfinite(v).all() and (v > 0).all() for v in gammas.values())
    family_ratio = max(
        float(v.max() / v.min()) for (res, _, _), v in gammas.items() if res == 48
    )
    drift = max(
        float(np.max(np.maximum(a, b) / np.minimum(a, b)))
        for (a, b) in (
            (gammas[(48, n, g)], gammas[(96, n, g)])
            for n in checkers
            for g in ("intrinsic", "standard")
        )
    )
    run_time = sum(elapsed for _, elapsed in aniso_runs.values())
    total = run_time + (time.perf_counter() - start)
    _verdict(
        7,
        finite and family_ratio <= 10.0 and drift <= 2.0 and total <= 900.0,
        f"all gamma_min finite, family max/min ratio {family_ratio:.2f} <= 10, "
        f"refinement drift {drift:.3f}x <= 2x, {total:.0f}s <= 900s",
    )


def test_criterion_08_backwards_estimates(aniso_runs, zero_traj_1d):
    start = time.perf_counter()
    traj, _ = aniso_runs[48]
    values = []
    for geometry in ("intrinsic", "standard"):
        for rho in (0.12, 0.13, 0.14):
            for t in (0.05, 0.06, 0.07):
                values.append(
                    af.check_lr_backward(traj, rho, t, 2.0, geometry).gamma_min
                )
                values.append(
                    af.check_backwards_composite(traj, rho, t, 2.0, geometry).gamma_min
                )
    zero_back = af.check_lr_backward(zero_traj_1d, 0.1, 0.1, 2.0, "intrinsic").gamma_min
    zero_comp = af.check_backwards_composite(
        zero_traj_1d, 0.1, 0.1, 2.0, "standard"
    ).gamma_min
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        np.isfinite(values).all() and zero_back == 0.0 and zero_comp == 0.0
        and elapsed <= 300.0,
        f"{len(values)} gamma_min values finite, zero trajectory gives exactly 0, "
        f"{elapsed:.1f}s <= 300s",
    )


def test_criterion_09_lemma_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(31415)

    # Young inequality on 1e5 random samples across several (eps, q)
    young_ok = True
    for q, eps in ((1.3, 0.1), (1.7, 0.05), (2.0, 0.5), (3.0, 1.0)):
        gamma = young_gamma(eps, q)
        qp = young_conjugate(q)
        a = rng.uniform(1e-12, 10.0, size=25000)
        b = rng.uniform(1e-12, 10.0, size=25000)
        margin = eps * a**q + gamma * b**qp - a * b
        young_ok &= bool((margin >= -1e-12 * np.maximum(a * b, 1.0)).all())

    # fast-convergence lemma at 0.99x the threshold, 1e3 draws
    conv_ok = True
    for _ in range(1000):
        C = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(1.1, 8.0))
        alpha = float(rng.uniform(0.1, 2.0))
        y0 = 0.99 * C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
        conv_ok &= fast_convergence(C, b, alpha, y0, n_max=200).converged

    # iteration bound on 1e4 synthetic admissible sequences
    iter_ok = True
    for _ in range(100):
        eps = float(rng.uniform(0.05, 0.9))
        b = float(rng.uniform(1.01, min(8.0, 0.95 / eps)))
        inhom = float(rng.uniform(0.5, 10.0))
        bound = iteration_bound(eps, b, inhom, M=1.0)
        horizon = max(8, int(np.ceil(np.log(1e-14) / np.log(eps))))
        m_cap = 100.0 * bound
        y = rng.uniform(0.0, m_cap, size=100)
        for n in range(horizon - 1, -1, -1):
            cap = np.minimum(m_cap, eps * y + inhom * b**n)
            y = rng.uniform(0.0, 1.0, size=y.size) * cap
        iter_ok &= bool((y <= bound + eps**horizon * m_cap + 1e-12).all())

    # embedding homogeneity under phi -> c phi, exact to 1e-12
    prof = af.derive_exponents([1.2, 1.8], 2)
    grid = af.build_grid([0.5, 0.5], [64, 64], "dirichlet_zero")
    field = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.3))
    theta = prof.p_bar / sobolev_critical(prof)
    base = sobolev_ratio(field, prof, theta, 2.0, 1.0)
    homo_dev = max(
        abs(
            sobolev_ratio(af.Field(grid, c * field.values, 0.0), prof, theta, 2.0, 1.0)
            - base
        )
        / base
        for c in (0.5, 2.0, 13.7)
    )
    elapsed = time.perf_counter() - start
    _verdict(
        9,
        young_ok and conv_ok and iter_ok and homo_dev <= 1e-12 and elapsed < 30.0,
        f"young 1e5 ok={young_ok}, fast-convergence 1e3 ok={conv_ok}, "
        f"iteration 1e4 ok={iter_ok}, homogeneity dev {homo_dev:.2e} <= 1e-12, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_10_caccioppoli(run_1d_fast):
    from anisofast.lemmas import CutoffSpec, caccioppoli_report

    start = time.perf_counter()
    gammas = []
    for cells in (100, 200):
        prof = af.derive_exponents([1.5], 1)
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
        cutoff = CutoffSpec(
            inner=af.CubeSpec((0.0,), (0.2,), "standard", 0.2),
            outer=af.CubeSpec((0.0,), (0.4,), "standard", 0.4),
            exponents=prof.p,
        )
        k = 0.5 * traj.initial.sup()
        gammas.append(
            caccioppoli_report(traj, prof, cutoff, k, (0.01, 0.09)).gamma_min
        )
        if cells == 100:
            above = caccioppoli_report(
                traj, prof, cutoff, 1.01 * traj.initial.sup(), (0.01, 0.09)
            )
            zero_gamma = above.gamma_min
    ratio = max(gammas) / min(gammas)
    elapsed = time.perf_counter() - start
    _verdict(
        10,
        zero_gamma == 0.0 and all(math.isfinite(g) and g > 0 for g in gammas)
        and ratio <= 2.0 and elapsed <= 300.0,
        f"k >= sup gives gamma_min = {zero_gamma}, refinement ratio {ratio:.3f} <= 2, "
        f"{elapsed:.1f}s <= 300s",
    )


def test_criterion_11_not_applicable_routing():
    start = time.perf_counter()
    # lam = 2(1.1 - 2) + 1.1 = -0.7 < 0: every L1-Linf report is not applicable
    prof_sub = af.derive_exponents([1.1, 1.1], 2)
    grid = af.build_grid([0.5, 0.5], [8, 8], "dirichlet_zero")
    traj = af.Trajectory(grid, prof_sub, 1e-3, np.full((2, 64), 0.5), (0.0, 0.1))
    na_intrinsic = af.check_l1linf(traj, 0.1, 0.1, "intrinsic")
    na_standard = af.check_l1linf(traj, 0.1, 0.1, "standard")

    # p = (1.2, 1.8): lam_1 = -0.16 < 0 rules out the standard sup-decay fit
    prof_mix = af.derive_exponents([1.2, 1.8], 2)
    grid2 = af.build_grid([0.5, 0.5], [24, 24], "dirichlet_zero")
    shape = af.init_field(grid2, af.InitialProfile("bump", 1.0, 0.3)).values
    traj2 = synthetic_power_trajectory(prof_mix, grid2, shape, t_star=0.5, n_snap=41)
    _, (_, decay) = af.decay_reports(traj2, 0.1, 1e-9)
    elapsed = time.perf_counter() - start
    routed = (
        not na_intrinsic.applicable
        and not na_standard.applicable
        and prof_sub.lam == pytest.approx(-0.7, abs=1e-12)
        and not decay.sup_applicable
        and decay.mass_applicable
    )
    _verdict(
        11,
        routed and elapsed < 1.0,
        f"lam={prof_sub.lam:.2f} routes L1-Linf to not-applicable in both "
        f"geometries; standard sup fit not applicable for p=(1.2,1.8) "
        f"(lam_1={prof_mix.lam_i[0]:.2f}); {elapsed:.2f}s < 1s",
    )
