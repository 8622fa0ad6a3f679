"""The equation's exact scalings as oracles: they pin no numbers, only invariances.

(S2) x_i -> T^(1/p_i) x_i, t -> T t, rho -> T^(1/p_bar) rho with u unchanged
     maps the cubes of both geometries onto each other and every side of every
     inequality to T^(N/p_bar) times itself, so no gamma_min moves.
(S1) u -> L u(x/L, t/L^2), rho -> L rho keeps the regularized equation with
     the same eps; the intrinsic cubes follow it, the standard cubes do not.
"""

import numpy as np
import pytest

import anisofast as af
from anisofast import harnack
from anisofast.geometry import GEOMETRIES

CHECK_FUNCTIONS = {
    "l1l1": af.check_l1l1,
    "l1linf": af.check_l1linf,
    "lr_sup": af.check_lr_sup,
    "lr_backward": af.check_lr_backward,
    "composite": af.check_backwards_composite,
}

P = (1.4, 1.6)
POINTS = [(0.1, 0.02), (0.15, 0.03), (0.08, 0.04)]  # (rho, t)


def _gamma(traj, kind, geometry, rho, t):
    order = () if harnack.CHECKS[kind].r_min is None else (2.0,)
    report = CHECK_FUNCTIONS[kind](traj, rho, t, *order, geometry)
    assert report.applicable and 0.0 < report.gamma_min < np.inf, report
    return report.gamma_min


def _synthetic_trajectory(prof):
    """A 2D 30x26 off-center bump decaying over 21 snapshots, with seeded noise per row."""
    grid = af.build_grid([0.5, 0.45], [30, 26], "dirichlet_zero")
    X, Y = np.meshgrid(grid.axis_centers(0), grid.axis_centers(1), indexing="ij")
    bump = np.maximum(0.09 - (X - 0.03) ** 2 - (Y + 0.02) ** 2, 0.0).ravel()
    times = np.linspace(0.0, 0.05, 21)
    noise = np.random.default_rng(3).random((len(times), grid.n_cells))
    values = (1.0 - 12.0 * times[:, None]) * bump + 1e-3 * noise
    return af.Trajectory(grid, prof, 0.02, values, tuple(times))


@pytest.mark.parametrize("T", [1.7, 0.6])
def test_s2_anisotropic_scaling_keeps_every_gamma_min(T):
    prof = af.derive_exponents(list(P), 2)
    traj = _synthetic_trajectory(prof)
    grid = traj.grid
    stretched = af.build_grid(
        [H * T ** (1.0 / p) for H, p in zip(grid.half_domain, prof.p)],
        grid.resolution,
        grid.boundary,
    )
    scaled = af.Trajectory(
        stretched, prof, traj.eps, traj.values, tuple(T * t for t in traj.times)
    )
    for kind in CHECK_FUNCTIONS:
        for geometry in GEOMETRIES:
            for rho, t in POINTS:
                want = _gamma(traj, kind, geometry, rho, t)
                got = _gamma(scaled, kind, geometry, T ** (1.0 / prof.p_bar) * rho, T * t)
                assert got == pytest.approx(want, rel=1e-12), (kind, geometry, rho, t)


def _run_2d(L):
    """The 48^2 anisotropic bump run, scaled by L as S1 scales it."""
    t_end = 0.04 * L**2
    cfg = af.SimConfig(
        grid=af.build_grid([0.5 * L] * 2, [48, 48], "dirichlet_zero"),
        profile=af.InitialProfile("bump", amplitude=L, radius=0.3 * L),
        exponents=af.derive_exponents(list(P), 2),
        eps=0.02,
        t_end=t_end,
        safety=0.35,
        snapshot_times=af.uniform_snapshots(t_end, 21),
    )
    return af.run(cfg)


def test_s1_amplitude_scaling_keeps_the_run_and_the_intrinsic_gamma_min():
    L = 2.0
    small, large = _run_2d(1.0), _run_2d(L)
    assert large.steps == small.steps
    assert large.times == tuple(L**2 * t for t in small.times)
    sup = L * small.values.max()
    assert np.abs(large.values - L * small.values).max() <= 1e-12 * sup
    for kind in CHECK_FUNCTIONS:
        for rho, t in POINTS[:2]:
            want = _gamma(small, kind, "intrinsic", rho, t)
            got = _gamma(large, kind, "intrinsic", L * rho, L**2 * t)
            assert got == pytest.approx(want, rel=1e-12), (kind, rho, t)
            # the standard cubes do not follow S1: far beyond the tolerance, they move
            want = _gamma(small, kind, "standard", rho, t)
            got = _gamma(large, kind, "standard", L * rho, L**2 * t)
            assert got != pytest.approx(want, rel=1e-9), (kind, rho, t)
