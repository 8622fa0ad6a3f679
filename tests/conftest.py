"""Shared solver runs reused across test modules (session scoped: runs are slow)."""

import numpy as np
import pytest

import anisofast as af


@pytest.fixture(scope="session")
def run_1d_fast():
    """1D fast-diffusion bump run, coarse regularization; decays toward extinction."""
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [100], "dirichlet_zero")
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.25),
        exponents=prof,
        eps=1e-2,
        t_end=0.4,
        safety=0.45,
        snapshot_times=af.uniform_snapshots(0.4, 201),
    )
    return af.run(cfg)


@pytest.fixture(scope="session")
def run_2d_aniso():
    """2D anisotropic run used by the Harnack checker tests."""
    prof = af.derive_exponents([1.4, 1.6], 2)
    grid = af.build_grid([0.5, 0.5], [48, 48], "dirichlet_zero")
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.3),
        exponents=prof,
        eps=0.02,
        t_end=0.08,
        safety=0.35,
        snapshot_times=af.uniform_snapshots(0.08, 161),
    )
    return af.run(cfg)


@pytest.fixture(scope="session")
def zero_traj_1d():
    """Hand-built all-zero trajectory (no solver run needed)."""
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [64], "dirichlet_zero")
    snaps = [af.Field(grid, np.zeros(64), t) for t in (0.0, 0.05, 0.1)]
    return af.Trajectory.from_fields(grid, prof, 1e-3, snaps)


def synthetic_power_trajectory(prof, grid, shape_field, t_star=1.0, n_snap=51):
    """u(x, tau) = (t_star - tau)^(1/(2 - p_bar)) * phi(x), final snapshot exactly zero."""
    exponent = 1.0 / (2.0 - prof.p_bar)
    times = np.linspace(0.0, t_star, n_snap)
    snaps = [
        af.Field(grid, (t_star - t) ** exponent * shape_field, t) for t in times
    ]
    return af.Trajectory.from_fields(grid, prof, 1e-9, snaps)
