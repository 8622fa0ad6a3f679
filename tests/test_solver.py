"""Grid construction, initial data, time stepping, and persistence."""

import ast
import dataclasses
import functools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisofast as af
from anisofast.errors import BlowupError, ConfigError, DomainError, IngestionError
from anisofast.solver import (
    _FluxKernel, _kernel_at, _mirror_axes, _real, _split, advance, stable_dt
)
from conftest import FLOAT_RANGE_CASES


def test_build_grid_1d():
    grid = af.build_grid([0.5], [100], "dirichlet_zero")
    assert grid.spacings == (0.01,)
    assert grid.n_cells == 100
    centers = grid.axis_centers(0)
    assert centers[0] == pytest.approx(-0.495)
    assert np.allclose(centers, -centers[::-1])


@pytest.mark.parametrize("H", [0.5, 0.3, 0.7, 1.0, 2.0])
def test_cell_centres_are_odd_bit_for_bit_on_any_grid(H):
    # x_k = -x_(n-1-k) in every bit (0.0 - x turns the odd grid's middle 0.0 into
    # 0.0, not -0.0), so a datum even in x is even in its bytes
    for n in range(4, 258):
        x = af.build_grid([H], [n]).axis_centers(0)
        assert x.tobytes() == (0.0 - x[::-1]).tobytes(), n
        if n % 2:
            assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])


@pytest.mark.parametrize("H", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [4, 16, 32, 64, 128, 256])
def test_cell_centres_on_dyadic_grids_keep_the_bits_of_minus_H_plus_h_k_half(H, n):
    # dyadic grids keep the centres of the former formula -H + h (k + 1/2), and so
    # the bench's 32-cell and 32^3 runs keep every output byte
    x = af.build_grid([H], [n]).axis_centers(0)
    assert x.tobytes() == (-H + 2.0 * H / n * (np.arange(n) + 0.5)).tobytes()


def test_build_grid_2d_and_errors():
    grid = af.build_grid([1.0, 1.0], [64, 64], "periodic")
    assert grid.n_cells == 4096
    with pytest.raises(ConfigError):
        af.build_grid([0.5], [2])
    with pytest.raises(ConfigError):
        af.build_grid([-1.0], [16])
    with pytest.raises(ConfigError):
        af.build_grid([0.5], [16], "reflecting")


def test_init_field_profiles():
    grid = af.build_grid([0.5], [100], "dirichlet_zero")
    sine = af.init_field(grid, af.InitialProfile("sine_product", 1.0))
    assert sine.sup() == pytest.approx(1.0, abs=2e-4)  # max at the innermost centers
    assert (sine.values >= 0.0).all()
    bump = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.25))
    assert bump.sup() == pytest.approx(1.0, abs=1e-3)
    assert bump.values[0] == 0.0 and bump.values[-1] == 0.0
    plateau = af.init_field(grid, af.InitialProfile("plateau", 2.0, 0.2))
    assert set(np.unique(plateau.values)) == {0.0, 2.0}


def test_init_field_from_file(tmp_path):
    grid = af.build_grid([0.5], [32], "dirichlet_zero")
    data = np.linspace(0.0, 1.0, 32)
    path = tmp_path / "u0.f64"
    data.astype("<f8").tofile(path)
    field = af.init_field(grid, af.InitialProfile("from_file", path=str(path)))
    assert np.array_equal(field.values, data)
    bad = tmp_path / "bad.f64"
    np.zeros(31).astype("<f8").tofile(bad)
    with pytest.raises(IngestionError):
        af.init_field(grid, af.InitialProfile("from_file", path=str(bad)))


def test_stable_dt_hand_value():
    # zero field, p=1.5, eps=1e-2, h=0.01, safety=0.5:
    # a_max = 0.5 * (1e-4)^(-1/4) = 5, dt = 0.5 * h^2 / (2*5) = 5e-6
    grid = af.build_grid([0.5], [100], "dirichlet_zero")
    prof = af.derive_exponents([1.5], 1)
    zero = af.Field(grid, np.zeros(100), 0.0)
    assert stable_dt(zero, prof, 1e-2, 0.5) == pytest.approx(5.0e-6, rel=1e-12)


def test_stable_dt_monotone_in_eps():
    grid = af.build_grid([0.5], [64], "dirichlet_zero")
    prof = af.derive_exponents([1.5], 1)
    field = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.25))
    dts = [stable_dt(field, prof, eps, 0.5) for eps in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(a <= b for a, b in zip(dts, dts[1:]))


def test_stable_dt_heat_mode_ignores_field():
    grid = af.build_grid([0.5], [50], "dirichlet_zero")
    prof = af.derive_exponents([2.0], 1)
    rng = np.random.default_rng(0)
    f1 = af.Field(grid, rng.uniform(0, 1, 50), 0.0)
    f2 = af.Field(grid, np.zeros(50), 0.0)
    h = grid.spacings[0]
    expected = 0.5 / (2.0 / h**2)
    assert stable_dt(f1, prof, 1e-3, 0.5) == pytest.approx(expected, rel=1e-12)
    assert stable_dt(f2, prof, 1e-3, 0.5) == pytest.approx(expected, rel=1e-12)


def test_advance_constant_periodic_unchanged():
    grid = af.build_grid([0.5, 0.5], [16, 16], "periodic")
    prof = af.derive_exponents([1.4, 1.6], 2)
    field = af.Field(grid, np.full(256, 0.7), 0.0)
    out = advance(field, prof, 1e-2, 1e-6)
    assert np.array_equal(out.values, field.values)
    assert out.time == pytest.approx(1e-6)


def test_advance_zero_dirichlet_stays_zero():
    grid = af.build_grid([0.5], [32], "dirichlet_zero")
    prof = af.derive_exponents([1.5], 1)
    field = af.Field(grid, np.zeros(32), 0.0)
    out = advance(field, prof, 1e-2, 1e-6)
    assert np.array_equal(out.values, np.zeros(32))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
def test_advance_blowup_raises_with_time(boundary):
    grid = af.build_grid([0.5], [32], boundary)
    prof = af.derive_exponents([1.5], 1)
    field = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.25))
    with pytest.raises(BlowupError) as excinfo:
        advance(field, prof, 1e-2, 1e308)  # overflow-sized step
    assert excinfo.value.time > 0.0


# (public step, the argument a valid call changes, its bad value, the DomainError's words)
_BAD_STEP_INPUTS = [
    *(
        (step, "eps", eps, f"eps must be positive and finite, got {eps!r}")
        for step in ("stable_dt", "advance")
        for eps in (0.0, -1e-3, np.nan, np.inf)
    ),
    *(
        ("stable_dt", "safety", s, f"safety must lie in (0, 1], got {s!r}")
        for s in (0.0, 1.5, np.nan)
    ),
    *(
        (step, "prof", af.derive_exponents([1.5] * 2, 2), "profile dimension 2 != grid dimension 1")
        for step in ("stable_dt", "advance")
    ),
    *(
        ("advance", "dt", dt, f"dt must be positive and finite, got {dt!r}")
        for dt in (-1e-6, 0.0, np.nan, np.inf)
    ),
]


@pytest.mark.parametrize(
    "step, name, value, message",
    _BAD_STEP_INPUTS,
    ids=[
        f"{step}-{name}" + ("" if name == "prof" else f"={v!r}")
        for step, name, v, _ in _BAD_STEP_INPUTS
    ],
)
def test_public_steps_reject_bad_inputs(step, name, value, message):
    grid = af.build_grid([0.5], [32], "dirichlet_zero")
    field = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.25))
    args = {"field": field, "prof": af.derive_exponents([1.5], 1), "eps": 1e-2}
    args |= {"safety": 0.5} if step == "stable_dt" else {"dt": 1e-6}
    args[name] = value
    with pytest.raises(DomainError) as excinfo:
        {"stable_dt": stable_dt, "advance": advance}[step](**args)
    assert str(excinfo.value) == message


def _probe_config(boundary):
    grid = af.build_grid([0.5], [32], boundary)
    return af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.3),
        exponents=af.derive_exponents([1.5], 1),
        eps=1e-2,
        t_end=1e-3,
        snapshot_times=af.uniform_snapshots(1e-3, 4),
    )


def _clock_after(cfg, steps):
    """The time run(cfg) reaches after `steps` steps, from stable_dt + advance."""
    field = af.init_field(cfg.grid, cfg.profile)
    for target in cfg.snapshot_times[1:]:
        while field.time < target * (1.0 - 1e-12):
            dt = stable_dt(field, cfg.exponents, cfg.eps, cfg.safety)
            clipped = dt >= target - field.time
            field = advance(field, cfg.exponents, cfg.eps, target - field.time if clipped else dt)
            if clipped:
                field.time = target
            steps -= 1
            if steps == 0:
                return field.time
    raise AssertionError("the run takes fewer steps")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
def test_run_blowup_names_the_step_that_wrote_a_non_finite_value(monkeypatch, boundary, bad):
    # one non-finite cell written by step k stops the run at step k's end time
    cfg, k = _probe_config(boundary), 7
    expected = _clock_after(cfg, k)
    calls = []
    step = _FluxKernel.step

    def faulty(kernel, dt):
        step(kernel, dt)
        calls.append(dt)
        if len(calls) == k:
            kernel.u[11] = bad

    monkeypatch.setattr(_FluxKernel, "step", faulty)
    with pytest.raises(BlowupError) as excinfo:
        af.run(cfg)
    assert excinfo.value.time == expected
    assert len(calls) == k


@pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
def test_rate_is_nan_on_a_field_holding_a_nan(boundary):
    grid = af.build_grid([0.5, 0.5], [9, 7], boundary)
    kernel = _FluxKernel(grid, af.derive_exponents([1.5, 2.0], 2), 3e-2)
    kernel.u[...] = np.random.default_rng(4).uniform(0.0, 1.0, grid.shape)
    assert np.isfinite(kernel.rate())
    kernel.u[4, 3] = np.nan
    assert np.isnan(kernel.rate())


def test_comparison_monotonicity_under_strict_cfl():
    # u0_a >= u0_b pointwise stays ordered after one step at the strict
    # zero-gradient CFL bound dt <= h^2 / (2 eps^(p-2))
    grid = af.build_grid([0.5], [50], "dirichlet_zero")
    prof = af.derive_exponents([1.5], 1)
    eps = 1e-2
    h = grid.spacings[0]
    dt = 0.9 / (2.0 * eps ** (prof.p[0] - 2.0) / h**2)
    rng = np.random.default_rng(42)
    for _ in range(20):
        b = rng.uniform(0.0, 1.0, 50)
        a = b + rng.uniform(0.0, 1.0, 50)
        out_a = advance(af.Field(grid, a, 0.0), prof, eps, dt)
        out_b = advance(af.Field(grid, b, 0.0), prof, eps, dt)
        assert (out_a.values >= out_b.values - 1e-12).all()


def test_run_t_end_zero_returns_initial_only():
    grid = af.build_grid([0.5], [32], "dirichlet_zero")
    prof = af.derive_exponents([1.5], 1)
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.25),
        exponents=prof,
        eps=1e-2,
        t_end=0.0,
    )
    traj = af.run(cfg)
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].time == 0.0


@pytest.mark.parametrize(
    "times, violation",
    [
        ((), "snapshot times must start at 0 and increase strictly"),
        ((0.0, np.nan), "snapshot times must be finite, got nan"),
        ((0.0, 0.05, np.nan), "snapshot times must be finite, got nan"),
        ((0.0, np.inf), "snapshot times must be finite, got inf"),
        ((0.0, 0.2), "snapshot times must not exceed t_end"),
        ((0.0, "x"), "snapshot times must be numbers, got (0.0, 'x')"),
        ((0.0, None), "snapshot times must be numbers, got (0.0, None)"),
        (0.1, "snapshot times must be numbers, got 0.1"),
    ],
)
def test_sim_config_collects_a_bad_snapshot_schedule(times, violation):
    # a NaN time used to pass the order test, and run stamped its row with the
    # time before it; each fault is one violation, reported with the others
    args = dict(
        grid=af.build_grid([0.5], [32]),
        profile=af.InitialProfile("bump", 1.0, 0.25),
        exponents=af.derive_exponents([1.5], 1),
        t_end=0.1,
        snapshot_times=times,
    )
    for eps, others in ((1e-2, []), (-1.0, ["eps must be positive and finite, got -1.0"])):
        with pytest.raises(ConfigError) as excinfo:
            af.SimConfig(eps=eps, **args)
        assert excinfo.value.violations == [*others, violation]


@pytest.mark.parametrize(
    "count, violation",
    [
        (2.5, "snapshot count must be an integer, got 2.5"),
        (np.nan, "snapshot count must be an integer, got nan"),
        ("3", "snapshot count must be an integer, got '3'"),
        (0, "snapshot count must be >= 1, got 0"),
    ],
)
def test_uniform_snapshots_rejects_a_bad_count(count, violation):
    with pytest.raises(ConfigError) as excinfo:
        af.uniform_snapshots(0.1, count)
    assert excinfo.value.violations == [violation]
    assert af.uniform_snapshots(0.1, 3.0) == af.uniform_snapshots(0.1, 3) == (0.0, 0.05, 0.1)


@pytest.mark.parametrize(
    "build, violation",
    [
        (lambda: af.build_grid([True], [64]), "half_domain entry must be a number, got True"),
        (lambda: af.build_grid([0.5], [True]), "resolution must be an integer per axis, got True"),
        (lambda: af.uniform_snapshots(0.1, True), "snapshot count must be an integer, got True"),
    ],
    ids=["half_domain", "resolution", "snapshot_count"],
)
def test_python_api_rejects_a_boolean_number(build, violation):
    # float(True) is 1.0, but a bool is not a number, as in a config or a manifest
    with pytest.raises(ConfigError) as excinfo:
        build()
    assert excinfo.value.violations == [violation]


@pytest.mark.parametrize(
    "eps, times, message",
    [(True, (0.0, 0.1), "eps must be a number, got True"),
     (1e-3, (False, 0.1), "snapshot time must be a number, got False"),
     (np.True_, (0.0, 0.1), "eps must be a number, got np.True_"),
     (1e-3, (np.False_, 0.1), "snapshot time must be a number, got np.False_"),
     ("0.1", (0.0, 0.1), "eps must be a number, got '0.1'"),
     (1e-3, (0.0, "0.1"), "snapshot time must be a number, got '0.1'")],
    ids=["eps", "time", "eps-numpy_bool", "time-numpy_bool", "eps-string", "time-string"],
)
def test_trajectory_rejects_a_boolean_number(eps, times, message):
    grid = af.build_grid([0.5], [64])
    with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
        af.Trajectory(grid, af.derive_exponents([1.5], 1), eps, np.ones((2, 64)), times)


def _calls_with_a_boolean(b):
    """{entry point and argument: (the name of the number, its error, the call with b for
    it)} for each public scalar guard of the package."""
    grid, prof = af.build_grid([0.5], [32]), af.derive_exponents([1.5], 1)
    bump, bump_with = af.InitialProfile("bump"), functools.partial(af.InitialProfile, "bump")
    field, cube = af.init_field(grid, bump), af.standard_cube(0.1, prof)
    traj = af.Trajectory(grid, prof, 1e-2, np.zeros((2, 32)), (0.0, 0.1))
    plane = af.init_field(af.build_grid([0.5, 0.5], [8, 8]), bump)
    simulate = functools.partial(af.SimConfig, grid, bump, prof, eps=1e-2, t_end=0.1)
    return {
        "nu-t": ("t", DomainError, lambda: af.nu(b, 0.1, prof)),
        "intrinsic_cube-rho": ("rho", DomainError, lambda: af.intrinsic_cube(b, 0.1, prof)),
        "standard_cube-rho": ("rho", DomainError, lambda: af.standard_cube(b, prof)),
        "scale_cube-factor": ("scale factor", DomainError, lambda: af.scale_cube(cube, b)),
        "advance-dt": ("dt", DomainError, lambda: advance(field, prof, 1e-2, b)),
        "stable_dt-eps": ("eps", DomainError, lambda: stable_dt(field, prof, b)),
        "stable_dt-safety": ("safety", DomainError, lambda: stable_dt(field, prof, 1e-2, b)),
        "detect_extinction-threshold": (
            "threshold", DomainError, lambda: af.detect_extinction(traj, b)
        ),
        "sobolev_ratio-t_extent": (
            "t_extent",
            DomainError,
            lambda: af.sobolev_ratio(plane, af.derive_exponents([1.5, 1.5], 2), 0.2, 1.0, b),
        ),
        **{
            f"SimConfig-{key}": (key, ConfigError, functools.partial(simulate, **{key: b}))
            for key in ("t_end", "eps", "safety")
        },
        **{
            f"InitialProfile-{key}": (key, ConfigError, functools.partial(bump_with, **{key: b}))
            for key in ("amplitude", "radius")
        },
        "smallness_violated-C": (
            "C", DomainError, lambda: af.smallness_violated(b, 0.1, 0.1, prof, "intrinsic")
        ),
        "check_l1l1-rho": ("rho", DomainError, lambda: af.check_l1l1(traj, b, 0.1)),
        "check_l1l1-C": ("C", DomainError, lambda: af.check_l1l1(traj, 0.1, 0.1, C=b)),
    }


@pytest.mark.parametrize("b", [True, False])
@pytest.mark.parametrize("case", sorted(_calls_with_a_boolean(True)))
def test_python_api_rejects_a_boolean_for_any_number(case, b):
    # float(True) is 1.0, but a bool is not a number, in the config's words
    name, error, call = _calls_with_a_boolean(b)[case]
    message = f"{name} must be a number, got {b!r}"
    with pytest.raises(error) as excinfo:
        call()
    assert (excinfo.value.violations if error is ConfigError else [str(excinfo.value)]) == [message]


def _calls_with_a_numpy_boolean():
    """{entry point: (its error, the call with np.True_, the violation)} for every guard
    above that rejects True, and the config and manifest numbers' `_real`."""
    b = np.True_
    calls = {
        case: (error, call, f"{name} must be a number")
        for case, (name, error, call) in _calls_with_a_boolean(b).items()
    }
    return calls | {
        "build_grid-half_domain": (
            ConfigError, lambda: af.build_grid([b], [64]), "half_domain entry must be a number"
        ),
        "build_grid-resolution": (
            ConfigError, lambda: af.build_grid([0.5], [b]), "resolution must be an integer per axis"
        ),
        "uniform_snapshots-count": (
            ConfigError, lambda: af.uniform_snapshots(0.1, b), "snapshot count must be an integer"
        ),
        "config_number": (TypeError, lambda: _real(b, "eps"), "eps must be a number"),
    }


@pytest.mark.parametrize("case", sorted(_calls_with_a_numpy_boolean()))
def test_python_api_rejects_a_numpy_boolean_for_any_number(case):
    # np.True_ is no bool subclass, so a guard of `isinstance(x, bool)` let it through
    # as 1.0; every guard tests one (bool, np.bool_) name
    error, call, message = _calls_with_a_numpy_boolean()[case]
    with pytest.raises(error) as excinfo:
        call()
    found = excinfo.value.violations if error is ConfigError else [str(excinfo.value)]
    assert found == [f"{message}, got np.True_"]


def _lemma_and_check_calls_with_a_boolean(b):
    """{entry point and argument: (the name of the number, the call with b for it)} for
    the public entry points of the lemmas, the quadrature and the decay samples."""
    grid, prof = af.build_grid([0.5], [32]), af.derive_exponents([1.5], 1)
    field, cube = af.init_field(grid, af.InitialProfile("bump")), af.standard_cube(0.1, prof)
    traj = af.Trajectory(grid, prof, 1e-2, np.zeros((2, 32)), (0.0, 0.1))
    cutoff = af.CutoffSpec(af.standard_cube(0.05, prof), cube, prof.p)
    converge = (1.0, 2.0, 0.5, 0.1, 10)  # C, b, alpha, Y0, n_max
    return {
        "young_gamma-eps": ("eps", lambda: af.young_gamma(b, 2.0)),
        "young_gamma-q": ("q", lambda: af.young_gamma(0.5, b)),
        **{
            f"iteration_bound-{name}": (name, functools.partial(af.iteration_bound, **args))
            for name, args in [
                ("eps", dict(eps=b, b=1.5, I=1.0, M=1.0)),
                ("b", dict(eps=0.5, b=b, I=1.0, M=1.0)),
                ("I", dict(eps=0.5, b=1.5, I=b, M=1.0)),
                ("M", dict(eps=0.5, b=1.5, I=1.0, M=b)),
            ]
        },
        "gamma_min-lhs": ("lhs", lambda: af.gamma_min(b, [1.0])),
        "gamma_min-rhs_term": ("rhs term 1", lambda: af.gamma_min(1.0, [1.0, b])),
        **{
            f"fast_convergence-{name}": (
                name, lambda k=k: af.fast_convergence(*converge[:k], b, *converge[k + 1 :])
            )
            for k, name in enumerate(["C", "b", "alpha", "Y0", "n_max"])
        },
        "caccioppoli_report-k": (
            "k", lambda: af.caccioppoli_report(traj, prof, cutoff, b, (0.0, 0.1))
        ),
        "caccioppoli_report-C": (
            "C", lambda: af.caccioppoli_report(traj, prof, cutoff, 0.1, (0.0, 0.1), C=b)
        ),
        "cube_integral-r": ("r", lambda: af.cube_integral(field, cube, b)),
        "time_extremal-window_start": (
            "window start", lambda: af.time_extremal(traj, cube, (b, 0.1), "sup_l1")
        ),
        "time_extremal-window_end": (
            "window end", lambda: af.time_extremal(traj, cube, (0.0, b), "sup_l1")
        ),
        "time_extremal-r": ("r", lambda: af.time_extremal(traj, cube, (0.0, 0.1), "sup_lr", b)),
        "decay_samples-t_star": ("t_star", lambda: af.decay_samples(traj, 0.1, b, 1e-5)),
    }


@pytest.mark.parametrize("b", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("case", sorted(_lemma_and_check_calls_with_a_boolean(True)))
def test_lemma_and_check_entry_points_reject_a_boolean_for_any_number(case, b):
    # young_gamma(True, 2.0) gave 0.25 and gamma_min(True, [1.0]) 1.0: True read as 1.0
    name, call = _lemma_and_check_calls_with_a_boolean(b)[case]
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == f"{name} must be a number, got {b!r}"


@pytest.mark.filterwarnings("error")
def test_run_rejects_a_periodic_datum_whose_mass_overflows(tmp_path):
    # the 32 cells of 1e307 sum to inf, so no drift |mass - inf| / inf could
    # be measured: a nan drift would read as a perfect 0.0 under max()
    path = tmp_path / "u0.f64"
    np.full(32, 1e307).astype("<f8").tofile(path)
    cfg = af.SimConfig(
        grid=af.build_grid([0.5], [32], "periodic"),
        profile=af.InitialProfile("from_file", path=str(path)),
        exponents=af.derive_exponents([1.5], 1),
        eps=1e-2,
        t_end=1e-4,
    )
    with pytest.raises(DomainError, match="mass overflows float64"):
        af.run(cfg)


@pytest.mark.filterwarnings("error")
def test_stable_dt_of_a_huge_periodic_field_sums_nothing():
    # the bound reads face differences only; the sum of these 32 cells is
    # 3.2e308, beyond the float range, and no run record is started
    grid = af.build_grid([0.5], [32], "periodic")
    prof = af.derive_exponents([1.5], 1)
    huge, one = (af.Field(grid, np.full(32, v), 0.0) for v in (1e307, 1.0))
    assert stable_dt(huge, prof, 1e-2) == stable_dt(one, prof, 1e-2)


def test_run_hits_snapshot_times_exactly(run_1d_fast):
    times = np.array(run_1d_fast.times)
    assert np.array_equal(times, np.linspace(0.0, 0.4, 201))


def test_run_ends_at_the_last_snapshot_time_not_at_t_end():
    # SimConfig bounds the schedule only from above, so one that ends early ends the run
    cfg = af.SimConfig(
        af.build_grid([0.5], [32]), af.InitialProfile("bump"), af.derive_exponents([1.5], 1),
        eps=1e-2, t_end=0.1, snapshot_times=(0.0, 0.01, 0.02),
    )
    traj = af.run(cfg)
    assert traj.times == cfg.snapshot_times
    assert traj.end_time == cfg.snapshot_times[-1] == 0.02 < cfg.t_end


def test_run_sup_strictly_decreasing(run_1d_fast):
    sups = run_1d_fast.sup_series()
    positive = sups > 1e-300
    assert (np.diff(sups[positive]) < 0.0).all()


def test_run_nonnegativity_monitor(run_1d_fast):
    assert run_1d_fast.min_value >= -1e-12 * run_1d_fast.initial.sup()


def test_run_symmetry_preserved(run_1d_fast):
    for f in run_1d_fast.snapshots[:: len(run_1d_fast.snapshots) // 5]:
        assert np.abs(f.values - f.values[::-1]).max() <= 1e-12


def test_periodic_mass_conservation():
    grid = af.build_grid([0.5], [64], "periodic")
    prof = af.derive_exponents([1.5], 1)
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.25),
        exponents=prof,
        eps=1e-2,
        t_end=0.01,
        safety=0.45,
        snapshot_times=(0.0, 0.01),
    )
    traj = af.run(cfg)
    assert traj.mass_drift <= 1e-12


def test_isotropy_axis_permutation():
    # permuting axes of the initial datum permutes the solution identically
    prof = af.derive_exponents([1.5, 1.5], 2)
    grid = af.build_grid([0.5, 0.5], [24, 24], "dirichlet_zero")
    rng = np.random.default_rng(3)
    u0 = rng.uniform(0.0, 1.0, (24, 24))
    u0[0, :] = u0[-1, :] = u0[:, 0] = u0[:, -1] = 0.0
    eps, dt = 1e-2, 1e-6
    out = advance(af.Field(grid, u0.ravel(), 0.0), prof, eps, dt)
    out_t = advance(af.Field(grid, u0.T.copy().ravel(), 0.0), prof, eps, dt)
    assert np.array_equal(out.reshaped().T, out_t.reshaped())


def test_run_determinism_bitwise():
    prof = af.derive_exponents([1.4, 1.6], 2)
    grid = af.build_grid([0.5, 0.5], [16, 16], "dirichlet_zero")
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.3),
        exponents=prof,
        eps=2e-2,
        t_end=0.002,
        safety=0.35,
        snapshot_times=(0.0, 0.001, 0.002),
    )
    t1, t2 = af.run(cfg), af.run(cfg)
    for f1, f2 in zip(t1.snapshots, t2.snapshots):
        assert np.array_equal(f1.values, f2.values)


def test_trajectory_roundtrip_bit_exact(tmp_path, run_1d_fast):
    path = str(tmp_path / "traj")
    af.save_trajectory(run_1d_fast, path)
    loaded = af.load_trajectory(path)
    assert loaded.times == run_1d_fast.times
    assert loaded.eps == run_1d_fast.eps
    for f1, f2 in zip(loaded.snapshots, run_1d_fast.snapshots):
        assert np.array_equal(f1.values, f2.values)


def test_step_count_survives_load_and_save(tmp_path, run_1d_fast):
    # a trajectory read back and saved again keeps the step count of its run
    first, second = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_1d_fast.steps > 100
    af.save_trajectory(af.load_trajectory(af.save_trajectory(run_1d_fast, first)), second)
    loaded = af.load_trajectory(second)
    assert loaded.steps == run_1d_fast.steps
    manifests = [(Path(d) / "manifest.json").read_bytes() for d in (first, second)]
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[1])["steps"] == run_1d_fast.steps


def _scaled(traj, factor, count):
    """The first `count` snapshots of traj times factor, on the same grid."""
    rows = factor * traj.values[:count]
    return af.Trajectory(traj.grid, traj.exponents, traj.eps, rows, traj.times[:count])


class _DyingFile:
    """A binary file whose write stores the first half of its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raw = memoryview(data).cast("B")
        self.fh.write(raw[: raw.nbytes // 2])
        raise OSError("no space left on device")


def test_rerun_that_dies_midway_does_not_load(tmp_path, monkeypatch, run_1d_fast):
    path = str(tmp_path / "traj")
    af.save_trajectory(run_1d_fast, path)
    rerun = _scaled(run_1d_fast, 2.3, 5)
    opened = []

    def dying_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if str(file).endswith(".f64"):
            opened.append(file)
            return _DyingFile(fh)
        return fh

    with monkeypatch.context() as m:
        m.setattr(af.solver, "open", dying_open, raising=False)
        with pytest.raises(OSError):
            af.save_trajectory(rerun, path)
    assert len(opened) == 1
    # half the new rows sit in the data file, and no manifest vouches for them
    assert (tmp_path / "traj" / "snapshots.f64").stat().st_size == rerun.values.nbytes // 2
    with pytest.raises(IngestionError, match="no manifest.json"):
        af.load_trajectory(path)
    af.save_trajectory(rerun, path)
    loaded = af.load_trajectory(path)
    assert loaded.values.tobytes() == rerun.values.tobytes()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("initial_sup", 1.5, "initial_sup"),
        ("format", 1, "format"),
        ("format", None, "format"),
        ("steps", -1, "steps must be a nonnegative integer, got -1"),
        ("steps", 2.5, "steps must be a nonnegative integer, got 2.5"),
    ],
)
def test_load_rejects_an_inconsistent_manifest(tmp_path, run_1d_fast, key, value, message):
    path = tmp_path / "traj"
    af.save_trajectory(run_1d_fast, str(path))
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest[key] = manifest[key] * value if key == "initial_sup" else value
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(IngestionError, match=message):
        af.load_trajectory(str(path))


# a JSON true or false where the manifest holds a number; float() reads them as 1 and 0
@pytest.mark.parametrize(
    "key, value",
    [
        ("steps", True),
        ("eps", True),
        ("times", [False, 0.1]),
        ("half_domain", [True]),
        ("initial_sup", True),
        ("dimension", True),
        ("mass_drift", True),
        ("min_value", False),
    ],
)
def test_load_rejects_a_boolean_for_a_manifest_number(tmp_path, key, value):
    # all ones: the initial sup and the first time equal float(True) and float(False)
    grid = af.build_grid([0.5], [64])
    traj = af.Trajectory(grid, af.derive_exponents([1.5], 1), 1.0, np.ones((2, 64)), (0.0, 0.1))
    path = tmp_path / "traj"
    af.save_trajectory(traj, str(path))
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest[key] = value
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(IngestionError, match=f"invalid manifest.json in .*: {key} must be "):
        af.load_trajectory(str(path))


def test_trajectory_keeps_its_run_record_as_plain_numbers():
    grid = af.build_grid([0.5], [64])
    traj = af.Trajectory(
        grid, af.derive_exponents([1.5], 1), 1.0, np.ones((2, 64)), (0.0, 0.1),
        steps=3.0, mass_drift=0, min_value=np.float32(0.5),
    )
    assert (type(traj.steps), type(traj.mass_drift), type(traj.min_value)) == (int, float, float)


@pytest.mark.parametrize("key", ["eps", "times", "min_value", "mass_drift"])
def test_load_rejects_a_manifest_number_beyond_the_float_range(tmp_path, run_1d_fast, key):
    # a JSON integer of 401 digits, which float() and math.isfinite() cannot convert
    path = tmp_path / "traj"
    af.save_trajectory(run_1d_fast, str(path))
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    if key == "times":
        manifest["times"][1] = "HUGE"
    else:
        manifest[key] = "HUGE"
    text = json.dumps(manifest).replace('"HUGE"', "1" + "0" * 400)
    (path / "manifest.json").write_text(text, encoding="utf-8")
    with pytest.raises(IngestionError, match="invalid manifest.json .* int too large"):
        af.load_trajectory(str(path))


@pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
@pytest.mark.parametrize("p", [[1.5], [1.4, 1.6], [1.3, 1.5, 1.7]])
def test_save_load_round_trip_is_bit_exact(tmp_path, p, boundary):
    N = len(p)
    grid = af.build_grid([0.5] * N, [8, 6, 5][:N], boundary)
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("bump", 1.0, 0.3),
        exponents=af.derive_exponents(p, N),
        eps=5e-2,
        t_end=2e-3,
        safety=0.3,
        snapshot_times=(0.0, 1e-3, 2e-3),
    )
    traj = af.run(cfg)
    path = tmp_path / "traj"
    loaded = af.load_trajectory(af.save_trajectory(traj, str(path)))
    assert sorted(f.name for f in path.iterdir()) == ["manifest.json", "snapshots.f64"]
    assert (path / "snapshots.f64").read_bytes() == traj.values.astype("<f8").tobytes()
    assert loaded.values.tobytes() == traj.values.tobytes()
    assert loaded.times == traj.times
    assert (loaded.grid, loaded.exponents, loaded.eps) == (traj.grid, traj.exponents, traj.eps)
    assert (loaded.mass_drift, loaded.min_value) == (traj.mass_drift, traj.min_value)
    assert (traj.mass_drift is None) == (boundary == "dirichlet_zero")


@pytest.mark.parametrize(
    "extra_bytes, message",
    [
        (-8, "does not hold 3 x 64 values"),
        (8, "does not hold 3 x 64 values"),
        (None, "no snapshots.f64"),
    ],
)
def test_load_rejects_a_data_file_of_the_wrong_size(tmp_path, zero_traj_1d, extra_bytes, message):
    path = af.save_trajectory(zero_traj_1d, str(tmp_path / "traj"))
    data = tmp_path / "traj" / "snapshots.f64"
    if extra_bytes is None:
        data.unlink()
    else:
        with open(data, "r+b") as fh:
            fh.truncate(zero_traj_1d.values.nbytes + extra_bytes)  # one value short or long
    with pytest.raises(IngestionError, match=message):
        af.load_trajectory(path)


def test_load_rejects_a_format_1_directory(tmp_path, zero_traj_1d):
    # the earlier layout: one file per snapshot, named in the manifest's entries
    path = tmp_path / "traj"
    af.save_trajectory(zero_traj_1d, str(path))
    (path / "snapshots.f64").unlink()
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    manifest["format"] = 1
    manifest["snapshots"] = []
    for k, (row, t) in enumerate(zip(zero_traj_1d.values, manifest.pop("times"))):
        (path / f"snap_{k:06d}.f64").write_bytes(row.astype("<f8").tobytes())
        manifest["snapshots"].append({"time": t, "file": f"snap_{k:06d}.f64"})
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(IngestionError, match="format 1 in .* rerun `anisofast run`"):
        af.load_trajectory(str(path))


def test_trajectory_values_and_fields_are_read_only(tmp_path, run_1d_fast):
    # a trajectory keeps its measurements (`Trajectory.measured`), so nothing
    # may change what they were measured on
    loaded = af.load_trajectory(af.save_trajectory(run_1d_fast, str(tmp_path / "traj")))
    grid = af.build_grid([0.5], [64])
    built = af.Trajectory(grid, run_1d_fast.exponents, 1e-3, np.ones((2, 64)), (0.0, 0.1))
    for traj in (run_1d_fast, loaded, built):
        for array in (traj.values, traj.initial.values, *(f.values for f in traj.snapshots)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        for name, value in (("values", np.zeros_like(traj.values)), ("times", traj.times)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(traj, name, value)


def test_trajectory_owns_its_rows(tmp_path, run_1d_fast, zero_traj_1d):
    # a caller's writable array is copied, so writing into it later changes
    # neither the rows nor what the trajectory measured on them
    grid, prof, times = af.build_grid([0.5], [32]), run_1d_fast.exponents, (0.0, 0.01, 0.02)
    bump = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.25)).values
    vals = np.tile(bump, (3, 1))
    traj = af.Trajectory(grid, prof, 1e-3, vals, times)
    before = af.check_l1l1(traj, 0.1, 0.02)
    vals *= 2.0
    assert traj.values.tobytes() == np.tile(bump, (3, 1)).tobytes()
    assert af.check_l1l1(traj, 0.1, 0.02) == before
    fresh = af.Trajectory(grid, prof, 1e-3, vals, times)
    assert af.check_l1l1(fresh, 0.1, 0.02).lhs == 2.0 * before.lhs
    # a read-only array that owns its data is kept as it is, and the producers
    # hand over such arrays, so none of them copies
    frozen = np.ones((3, 32))
    frozen.flags.writeable = False
    assert af.Trajectory(grid, prof, 1e-3, frozen, times).values is frozen
    loaded = af.load_trajectory(af.save_trajectory(run_1d_fast, str(tmp_path / "traj")))
    for produced in (run_1d_fast, loaded, zero_traj_1d):
        assert produced.values.base is None and not produced.values.flags.writeable


def test_trajectories_compare_and_hash_by_identity():
    # what a trajectory keeps (`measured`) belongs to that one object, so two
    # trajectories over equal arrays are two keys, not one
    grid, prof = af.build_grid([0.5], [8]), af.derive_exponents([1.5], 1)
    a, b = (af.Trajectory(grid, prof, 1e-3, np.ones((2, 8)), (0.0, 0.1)) for _ in range(2))
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1 and len({a, b, a}) == 2


def test_heat_oracle_quick():
    # p = 2 validation mode against the exact separation-of-variables decay
    grid = af.build_grid([0.5], [100], "dirichlet_zero")
    prof = af.derive_exponents([2.0], 1)
    cfg = af.SimConfig(
        grid=grid,
        profile=af.InitialProfile("sine_product", 1.0),
        exponents=prof,
        eps=1e-6,
        t_end=0.05,
        safety=0.5,
        snapshot_times=(0.0, 0.05),
    )
    traj = af.run(cfg)
    x = grid.axis_centers(0)
    exact = np.exp(-np.pi**2 * 0.05) * np.cos(np.pi * x)
    assert np.abs(traj.snapshots[-1].values - exact).max() <= 0.01


# --- the shared flux kernel ---------------------------------------------------

COMPOSITION_CASES = {
    "1d_dirichlet": ([1.5], [32], "dirichlet_zero", "bump", 1e-3, 0.004),
    "1d_periodic": ([1.3], [24], "periodic", "plateau", 1e-2, 0.004),
    "2d_dirichlet_aniso": ([1.4, 1.7], [12, 10], "dirichlet_zero", "sine_product", 2e-2, 0.002),
    "2d_periodic_aniso": ([1.2, 1.8], [10, 12], "periodic", "bump", 2e-2, 0.01),
    "3d_dirichlet_heat_axis": (
        [1.3, 1.6, 2.0], [6, 8, 5], "dirichlet_zero", "sine_product", 5e-2, 0.01
    ),
    "3d_periodic_aniso": ([1.3, 1.5, 1.7], [8, 6, 7], "periodic", "bump", 5e-2, 0.01),
    # run integrates these on the lower half of each mirror axis (see the next test)
    "2d_dirichlet_mirrored_heat_axis": ([1.5, 2.0], [8, 8], "dirichlet_zero", "bump", 2e-2, 0.01),
    "3d_periodic_mirrored": ([1.3, 1.5, 1.7], [8, 8, 8], "periodic", "bump", 5e-2, 0.01),
    "2d_periodic_two_cell_half": ([1.4, 1.6], [10, 4], "periodic", "sine_product", 2e-2, 0.01),
    # grids whose centres the cell-centre formula makes exact mirrors (a half_domain last)
    "2d_dirichlet_mirrored_96": ([1.4, 1.6], [96, 96], "dirichlet_zero", "bump", 2e-2, 1e-4),
    "2d_periodic_mirrored_48x200": (
        [1.4, 1.6], [48, 200], "periodic", "bump", 2e-2, 1e-4, [0.3, 0.7]
    ),
}


def _composition_config(case):
    p, res, boundary, kind, eps, t_end, *rest = COMPOSITION_CASES[case]
    grid = af.build_grid(rest[0] if rest else [0.5] * len(p), res, boundary)
    return af.SimConfig(
        grid=grid,
        profile=af.InitialProfile(kind, 1.0, 0.3),
        exponents=af.derive_exponents(p, len(p)),
        eps=eps,
        t_end=t_end,
        safety=0.4,
        snapshot_times=af.uniform_snapshots(t_end, 5),
    )


@pytest.mark.parametrize("case", sorted(COMPOSITION_CASES))
def test_run_equals_composed_stable_dt_and_advance(case):
    # run() must be stable_dt + advance, the step clipped to the next snapshot
    # time and the clock set to that time, bit for bit
    cfg = _composition_config(case)
    prof, eps = cfg.exponents, cfg.eps
    field = af.init_field(cfg.grid, cfg.profile)
    rows, steps = [field.values.copy()], 0
    min_value = float(field.values.min())
    mass0 = float(field.values.sum())
    drift = 0.0
    for target in cfg.snapshot_times[1:]:
        while field.time < target * (1.0 - 1e-12):
            dt = stable_dt(field, prof, eps, cfg.safety)
            clipped = dt >= target - field.time
            if clipped:
                dt = target - field.time
            field = advance(field, prof, eps, dt)
            if clipped:
                field.time = target
            steps += 1
            min_value = min(min_value, float(field.values.min()))
            drift = max(drift, abs(float(field.values.sum()) - mass0) / abs(mass0))
        rows.append(field.values.copy())

    traj = af.run(cfg)
    assert steps > 10
    assert traj.values.tobytes() == np.array(rows).tobytes()
    assert traj.steps == steps
    assert traj.min_value == min_value
    if cfg.grid.boundary == "periodic":
        assert traj.mass_drift == drift
    else:
        assert traj.mass_drift is None


@pytest.mark.parametrize("case", ["2d_dirichlet_mirrored_96", "2d_periodic_mirrored_48x200"])
def test_the_non_dyadic_composition_cases_take_the_mirror_path(case):
    # so the composition test above checks the mirrored run on 96, 48 and 200 cells
    cfg = _composition_config(case)
    assert _mirror_axes(af.init_field(cfg.grid, cfg.profile).reshaped()) == (0, 1)


def _mirrored_composition_cases():
    """The COMPOSITION_CASES that run integrates on a half of some axis."""
    cases = []
    for case in sorted(COMPOSITION_CASES):
        cfg = _composition_config(case)
        if _mirror_axes(af.init_field(cfg.grid, cfg.profile).reshaped()):
            cases.append(case)
    return cases


@pytest.mark.parametrize("case", _mirrored_composition_cases())
def test_mirrored_kernel_rate_equals_the_full_grid_rate_bit_for_bit(case):
    # a mirrored axis's term is the constant eps floor c (0.0 + kappa)^e: the full
    # grid's min G^2 there is the +0.0 of the mirror plane's face
    cfg = _composition_config(case)
    prof, eps, field = cfg.exponents, cfg.eps, af.init_field(cfg.grid, cfg.profile)
    mirror = _mirror_axes(field.reshaped())
    kernel = _kernel_at(field, prof, eps, mirror)
    for _ in range(6):  # at the datum and after each of 5 steps
        full = _kernel_at(af.Field(cfg.grid, kernel.unfold().ravel(), 0.0), prof, eps)
        rate = kernel.rate()
        assert rate.hex() == full.rate().hex()
        kernel.step(cfg.safety / rate)


def _argmin_counting_run(monkeypatch, cfg):
    """(run(cfg), the argmin calls `rate()` made on face buffers during it)."""
    calls, init = [], _FluxKernel.__init__

    def counted(argmin):
        def call():
            calls.append(1)
            return argmin()

        return call

    def spy(kernel, *args):
        init(kernel, *args)
        kernel._bounds = tuple(
            row if row[1] is None else (row[0], counted(row[1]), *row[2:])
            for row in kernel._bounds
        )

    monkeypatch.setattr(_FluxKernel, "__init__", spy)
    return af.run(cfg), len(calls)


@pytest.mark.parametrize("res, p", [([32], [1.5]), ([12, 8], [1.4, 1.6])])
def test_a_fully_mirrored_run_reduces_no_face_buffer(monkeypatch, tmp_path, res, p):
    # every rate term of a run mirrored on every axis is its eps floor, so no step
    # reduces a face buffer; a datum broken by one ulp mirrors nowhere, and each of
    # its steps reduces every axis once
    grid, prof = af.build_grid([0.5] * len(p), res), af.derive_exponents(p, len(p))
    bump = af.InitialProfile("bump", 1.0, 0.3)
    cfg = af.SimConfig(grid, bump, prof, 2e-2, 1e-2, 0.4, (0.0, 5e-3, 1e-2))
    traj, reductions = _argmin_counting_run(monkeypatch, cfg)
    assert traj.steps > 10 and reductions == 0
    datum = af.init_field(grid, bump).values
    datum[1] = np.nextafter(datum[1], 2.0)
    datum.astype("<f8").tofile(tmp_path / "u0.f64")
    broken = af.InitialProfile("from_file", path=str(tmp_path / "u0.f64"))
    traj, reductions = _argmin_counting_run(monkeypatch, dataclasses.replace(cfg, profile=broken))
    assert reductions == len(p) * traj.steps > 10 * len(p)


@pytest.mark.parametrize("mirrored", [True, False])
def test_step_refills_its_scales_only_for_a_new_dt(mirrored):
    # dt0, dt0, a clipped dt, dt0: each step gives the bits of a fresh kernel
    # stepped once with the same dt from the same u
    grid, prof = af.build_grid([0.5, 0.5], [8, 12]), af.derive_exponents([1.4, 1.6], 2)
    field = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.3))
    mirror = _mirror_axes(field.reshaped()) if mirrored else ()
    assert mirror == ((0, 1) if mirrored else ())
    kernel = _kernel_at(field, prof, 2e-2, mirror)
    dt0 = 0.4 / kernel.rate()
    for dt in (dt0, dt0, 0.3 * dt0, dt0):
        fresh = _kernel_at(af.Field(grid, kernel.unfold().ravel(), 0.0), prof, 2e-2, mirror)
        assert kernel.rate() == fresh.rate()
        kernel.step(dt)
        fresh.step(dt)
        assert kernel.u.tobytes() == fresh.u.tobytes()


def test_run_mirrors_each_even_axis_along_which_the_datum_is_bitwise_even(monkeypatch, tmp_path):
    # run integrates on the lower half of every even axis along which the datum's
    # bytes equal those of its flip (a plateau's are on 6 and 7 cells; 7 is odd).
    # The centres are exact negatives of each other on any number of cells, so a
    # bump on 96 is even; a datum one ulp off is not, and must still match
    # stable_dt + advance
    shapes, init = [], _FluxKernel.__init__

    def spy(kernel, *args):
        init(kernel, *args)
        shapes.append(kernel.u.shape)

    monkeypatch.setattr(_FluxKernel, "__init__", spy)
    cases = [
        ([32] * 3, "bump", (16,) * 3),
        ([96, 96], "bump", (48, 48)),
        ([8, 6, 7], "bump", (4, 3, 7)),
        ([6, 7], "plateau", (3, 7)),
    ]
    for res, kind, half in cases:
        grid = af.build_grid([0.5] * len(res), res, "periodic")
        prof = af.derive_exponents([1.3, 1.5, 1.7][: len(res)], len(res))
        af.run(af.SimConfig(grid, af.InitialProfile(kind, 1.0, 0.3), prof, 5e-2, 0.0))
        assert shapes.pop() == half
    grid, prof = af.build_grid([0.5], [16]), af.derive_exponents([1.5], 1)
    datum = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.3)).values
    assert datum[5] == datum[10] > 0.0
    datum[5] = np.nextafter(datum[5], 2.0)
    datum.astype("<f8").tofile(tmp_path / "u0.f64")
    profile = af.InitialProfile("from_file", path=str(tmp_path / "u0.f64"))
    traj = af.run(af.SimConfig(grid, profile, prof, 1e-2, 0.004, 0.4, (0.0, 0.004)))
    assert shapes.pop() == (16,)
    field, steps = af.init_field(grid, profile), 0
    while field.time < 0.004 * (1.0 - 1e-12):
        dt = min(stable_dt(field, prof, 1e-2, 0.4), 0.004 - field.time)
        field, steps = advance(field, prof, 1e-2, dt), steps + 1
    assert traj.values[-1].tobytes() == field.values.tobytes()
    assert traj.steps == steps > 10


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_run_memory_is_snapshots_plus_fixed_workspace():
    # the step loop works in the kernel's preallocated buffers: the peak is the
    # snapshot array plus a fixed workspace, whatever the step count.  On 16^3
    # that is a fixed number of fields.  On 32 cells, where a step costs call
    # overhead and the record lives in run's locals, it is the kernel's own
    # buffers (each padded to its cache-line slot) plus a few fields
    cases = [
        ("periodic", [16] * 3, [1.3, 1.5, 1.7], 0.05, 0.3),
        ("dirichlet_zero", [32], [1.5], 1e-3, 0.45),
    ]
    for boundary, res, p, eps, safety in cases:
        grid = af.build_grid([0.5] * len(res), res, boundary)
        prof = af.derive_exponents(p, len(p))
        field_bytes = grid.n_cells * 8
        steps, excess = [], []
        configs = [
            af.SimConfig(
                grid=grid,
                profile=af.InitialProfile("bump", 1.0, 0.3),
                exponents=prof,
                eps=eps,
                t_end=t_end,
                safety=safety,
                snapshot_times=(0.0, t_end / 2, t_end),
            )
            for t_end in (2e-4, 1e-2)
        ]
        if grid.N == 1:
            af.run(configs[0])  # numpy's first calls on these operands fill its caches
        for cfg in configs:
            traj, peak = _traced_peak(lambda: af.run(cfg))
            steps.append(traj.steps)
            excess.append(peak - traj.values.nbytes)
        assert steps[1] >= 10 * steps[0]
        if grid.N == 1:
            workspace = _traced_peak(lambda: _FluxKernel(grid, prof, eps))[1]
            assert max(excess) <= workspace + 4 * field_bytes
            assert abs(excess[1] - excess[0]) <= field_bytes
        else:
            assert max(excess) <= 14 * field_bytes
            assert abs(excess[1] - excess[0]) <= field_bytes // 4


def test_flux_kernel_steps_allocate_nothing():
    grid = af.build_grid([0.5], [4096], "dirichlet_zero")
    prof = af.derive_exponents([1.5], 1)
    kernel = _FluxKernel(grid, prof, 1e-3)
    kernel.u[...] = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.25)).reshaped()
    dt = 0.4 / kernel.rate()
    kernel.step(dt)

    def steps():
        for _ in range(20):
            kernel.step(0.4 / kernel.rate())
        return tracemalloc.get_traced_memory()[0]

    current, peak = _traced_peak(steps)
    assert peak - current <= 4096  # scalars only; one field is 32 KiB


def test_face_gradients_match_padded_differences():
    rng = np.random.default_rng(7)
    shape = (5, 4, 6)
    u = rng.uniform(-1.0, 1.0, shape)
    u[0, 0, 0] = -0.0
    prof = af.derive_exponents([1.3, 1.6, 2.0], 3)
    for periodic in (False, True):
        grid = af.build_grid([0.5] * 3, shape, "periodic" if periodic else "dirichlet_zero")
        kernel = _FluxKernel(grid, prof, 3e-2)
        kernel.u[...] = u
        kernel.rate()  # fills the face buffers first
        for i, faces in enumerate(kernel._faces):
            before, after = _split(faces, kernel.u.shape, i, periodic)
            if periodic:
                g = after
                expected = np.roll(u, -1, axis=i) - u
            else:
                g = np.concatenate([before, after], axis=i)
                pad = [(0, 0)] * 3
                pad[i] = (1, 1)
                expected = np.diff(np.pad(u, pad), axis=i)
            assert g.shape == expected.shape
            assert g.tobytes() == expected.tobytes()


@pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
def test_advance_matches_reference_flux_arithmetic(boundary):
    # the kernel's order of operations, written out with whole-array temporaries:
    # g = diff / h, (g*g + eps^2) ** ((p-2)/2) * g, diff / h, axis sum in order
    grid = af.build_grid([0.37, 0.41, 0.53], [6, 5, 7], boundary)
    prof = af.derive_exponents([1.3, 1.6, 1.9], 3)
    eps, dt = 3e-2, 2e-5
    u = np.random.default_rng(11).uniform(0.0, 1.0, grid.shape)
    div = None
    for i, (pi, h) in enumerate(zip(prof.p, grid.spacings)):
        if boundary == "periodic":
            g = (np.roll(u, -1, axis=i) - u) / h
        else:
            pad = [(0, 0)] * 3
            pad[i] = (1, 1)
            g = np.diff(np.pad(u, pad), axis=i) / h
        flux = np.power(g * g + eps * eps, (pi - 2.0) / 2.0) * g
        if boundary == "periodic":
            d = (flux - np.roll(flux, 1, axis=i)) / h
        else:
            d = np.diff(flux, axis=i) / h
        div = d if div is None else div + d
    expected = u + dt * div
    out = advance(af.Field(grid, u.ravel(), 0.0), prof, eps, dt)
    assert out.values.tobytes() == expected.ravel().tobytes()


@pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
@pytest.mark.parametrize("amplitude", [1.0, 1e160])
def test_heat_axis_flux_is_the_face_difference(boundary, amplitude):
    # p_i = 2 makes Phi_i = G (G^2 + kappa)^0 = G, so a step with p = (2, 2)
    # is the five-point update from the raw face differences, bit for bit,
    # also where G^2 overflows (the power pipeline gave nan for |G| > 1.3e154)
    grid = af.build_grid([0.37, 0.41], [7, 5], boundary)
    prof = af.derive_exponents([2.0, 2.0], 2)
    dt = 1e-4
    u = amplitude * np.random.default_rng(5).uniform(0.0, 1.0, grid.shape)
    kernel = _FluxKernel(grid, prof, 3e-2)
    kernel.u[...] = u
    assert kernel.rate() == 2.0 * sum(h**-2.0 for h in grid.spacings)  # no G^2 to overflow
    kernel.step(dt)
    div = None
    for i, h in enumerate(grid.spacings):
        if boundary == "periodic":
            g = np.roll(u, -1, axis=i) - u
            d = g - np.roll(g, 1, axis=i)
        else:
            pad = [(0, 0), (0, 0)]
            pad[i] = (1, 1)
            d = np.diff(np.diff(np.pad(u, pad), axis=i), axis=i)
        d = d * (dt * h**-2.0)
        div = d if div is None else div + d
    expected = u + div
    assert np.isfinite(expected).all()
    assert kernel.u.tobytes() == expected.tobytes()


# _FluxKernel.rate() of a seeded random field, recorded when heat axes still
# squared and min-reduced their differences; their term is exactly 2 h^-2
HEAT_AXIS_RATES = {
    ("dirichlet_zero", (1.5, 2.0)): "0x1.7434dd93eefaap+9",
    ("dirichlet_zero", (2.0, 1.5, 2.0)): "0x1.0cf8b40da4ed0p+10",
    ("periodic", (1.5, 2.0)): "0x1.83d57046d2e44p+9",
    ("periodic", (2.0, 1.5, 2.0)): "0x1.0cf8b40da4ed0p+10",
}


@pytest.mark.parametrize("boundary, p", sorted(HEAT_AXIS_RATES))
def test_heat_axis_rate_is_bit_identical(boundary, p):
    n = len(p)
    grid = af.build_grid([0.37, 0.41, 0.29][:n], [9, 7, 5][:n], boundary)
    kernel = _FluxKernel(grid, af.derive_exponents(list(p), n), 3e-2)
    kernel.u[...] = np.random.default_rng(4).uniform(0.0, 1.0, grid.shape)
    assert kernel.rate().hex() == HEAT_AXIS_RATES[boundary, p]


@pytest.mark.parametrize(
    "res, boundary",
    [([48, 48], "dirichlet_zero"), ([16] * 3, "dirichlet_zero"), ([16] * 3, "periodic")],
)
def test_flux_kernel_nd_steps_allocate_under_a_quarter_field(res, boundary):
    # every whole-field operand is flat and contiguous; only the boundary
    # hyperplane fix-ups are strided, and numpy buffers those at hyperplane size
    grid = af.build_grid([0.5] * len(res), res, boundary)
    prof = af.derive_exponents([1.3, 1.5, 1.7][: len(res)], len(res))
    kernel = _FluxKernel(grid, prof, 2e-2)
    kernel.u[...] = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.3)).reshaped()
    kernel.step(0.4 / kernel.rate())

    def steps():
        for _ in range(20):
            kernel.step(0.4 / kernel.rate())
        return tracemalloc.get_traced_memory()[0]

    current, peak = _traced_peak(steps)
    assert peak - current <= grid.n_cells * 8 // 4


def test_flux_kernel_buffers_start_at_distinct_cache_line_slots():
    # equal whole-field buffers at one offset mod 4096 collide in 4K aliasing
    grid = af.build_grid([0.5] * 3, [16] * 3, "periodic")
    kernel = _FluxKernel(grid, af.derive_exponents([1.3, 1.5, 1.7], 3), 2e-2)
    fluxes = [flux for _, argmin, flux, *_ in kernel._bounds if argmin is not None]
    buffers = [kernel._flat, *kernel._faces, kernel._div, *fluxes]
    offsets = [b.ctypes.data % 4096 for b in buffers]
    assert len(set(offsets)) == len(buffers), offsets
    assert all(o % 64 == 0 for o in offsets), offsets


# exp(e log S) in place of np.power(S, e): the largest error in units in the
# last place of np.power over the kernel's range, measured at 22 (p = 1.05)
# with numpy 2.4.6 on x86-64 with AVX-512; it grows with |e log S|
EXP_LOG_MAX_ULP = 24


def test_exp_log_power_within_recorded_ulp_of_np_power():
    rng = np.random.default_rng(5)
    s = np.concatenate([np.geomspace(1e-14, 1e4, 100001), rng.uniform(1e-14, 1e4, 50000)])
    for p in np.linspace(1.05, 2.0, 20):
        expo = (p - 2.0) / 2.0
        folded = np.exp(np.multiply(np.log(s), np.array(expo)))
        exact = np.power(s, expo)
        ulps = np.abs(folded - exact) / np.spacing(exact)
        assert ulps.max() <= (0 if p == 2.0 else EXP_LOG_MAX_ULP), p


def _reference_rate_and_divergence(u, grid, prof, eps):
    """sum_i 2 a_i_max / h_i^2 and sum_i (F_i^+ - F_i^-) / h_i with padded/rolled
    whole-array differences and np.power, as the scheme is written."""
    rate, div = 0.0, np.zeros(u.shape)
    for i, (pi, h) in enumerate(zip(prof.p, grid.spacings)):
        if grid.boundary == "periodic":
            g = (np.roll(u, -1, axis=i) - u) / h
        else:
            pad = [(0, 0)] * u.ndim
            pad[i] = (1, 1)
            g = np.diff(np.pad(u, pad), axis=i) / h
        expo = (pi - 2.0) / 2.0
        rate += 2.0 * (pi - 1.0) * np.power((g * g).min() + eps * eps, expo) / h**2
        flux = np.power(g * g + eps * eps, expo) * g
        if grid.boundary == "periodic":
            div += (flux - np.roll(flux, 1, axis=i)) / h
        else:
            div += np.diff(flux, axis=i) / h
    return rate, div


@pytest.mark.parametrize("boundary", ["dirichlet_zero", "periodic"])
@pytest.mark.parametrize(
    "p, res", [([1.25], [40]), ([1.5, 2.0], [14, 11]), ([1.3, 2.0, 1.7], [7, 9, 6])]
)
def test_advance_at_unit_safety_is_the_reference_step_to_round_off(p, res, boundary):
    grid = af.build_grid([0.45, 0.5, 0.55][: len(p)], res, boundary)
    prof = af.derive_exponents(p, len(p))
    eps = 1e-2
    rng = np.random.default_rng(len(p))
    u = rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(0.0, 1.0, grid.shape) > 0.3)
    field = af.Field(grid, u.ravel(), 0.0)
    rate, div = _reference_rate_and_divergence(u, grid, prof, eps)
    dt = stable_dt(field, prof, eps, 1.0)
    # safety 1 is clamped at p_1 - 1, the factor that makes the step monotone
    assert dt == pytest.approx(min(1.0, prof.p[0] - 1.0) / rate, rel=1e-14)
    out = advance(field, prof, eps, dt)
    assert np.abs(out.values - (u + dt * div).ravel()).max() <= 1e-14 * np.abs(u).max()


# 2D 48² Dirichlet, eps 0.02, safety 0.5, t_end 0.01: (p, steps); before the
# step was clamped at safety p_1 - 1 these runs took 850 / 860 / 720 steps and
# reached min_value -6.5e-4 / -3.8e-4 / -1.3e-4
CLAMPED_STEPS = {1.2: 2110, 1.3: 1430, 1.45: 800}


@pytest.mark.parametrize("kind", ["plateau", "bump"])
@pytest.mark.parametrize("p", sorted(CLAMPED_STEPS))
def test_clamped_step_keeps_a_fast_run_nonnegative(p, kind):
    cfg = af.SimConfig(
        grid=af.build_grid([0.5, 0.5], [48, 48], "dirichlet_zero"),
        profile=af.InitialProfile(kind, 1.0, 0.25),
        exponents=af.derive_exponents([p, p], 2),
        eps=0.02,
        t_end=0.01,
        safety=0.5,
        snapshot_times=af.uniform_snapshots(0.01, 11),
    )
    traj = af.run(cfg)
    assert traj.min_value == 0.0
    assert traj.steps == CLAMPED_STEPS[p]
    assert traj.values.max() == traj.values[0].max()


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    safety=st.floats(1e-6, 1.0),  # a smaller safety can round the step to 0
    boundary=st.sampled_from(["dirichlet_zero", "periodic"]),
)
def test_clamped_steps_keep_the_discrete_max_principle(p, seed, safety, boundary):
    n = len(p)
    grid = af.build_grid([0.5] * n, [12] * n, boundary)
    prof = af.derive_exponents(p, n)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, grid.n_cells) * (rng.uniform(0.0, 1.0, grid.n_cells) > 0.3)
    field, sup = af.Field(grid, u, 0.0), u.max()
    for _ in range(5):
        new = advance(field, prof, 1e-2, stable_dt(field, prof, 1e-2, safety))
        assert new.values.min() >= -1e-14 * sup
        if boundary == "dirichlet_zero":
            assert new.values.max() <= field.values.max()
        field = new


def test_shorter_rerun_leaves_only_its_own_snapshot_files(tmp_path, run_1d_fast):
    path = tmp_path / "traj"
    af.save_trajectory(run_1d_fast, str(path))
    (path / "notes.txt").write_text("kept", encoding="utf-8")
    files = ["manifest.json", "notes.txt", "snapshots.f64"]
    assert sorted(f.name for f in path.iterdir()) == files
    assert (path / "snapshots.f64").read_bytes() == run_1d_fast.values.tobytes()
    rerun = _scaled(run_1d_fast, 2.3, 5)
    af.save_trajectory(rerun, str(path))
    assert sorted(f.name for f in path.iterdir()) == files
    assert (path / "snapshots.f64").read_bytes() == rerun.values.tobytes()
    assert (path / "notes.txt").read_text(encoding="utf-8") == "kept"
    assert af.load_trajectory(str(path)).values.tobytes() == rerun.values.tobytes()


# --- the scheme's float range -------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(FLOAT_RANGE_CASES))
def test_a_scheme_out_of_float_range_is_a_config_error(case):
    # before: an OverflowError or ZeroDivisionError in the kernel, a blowup at t=nan,
    # or a run that never returned (stable_dt 0.0); now SimConfig or build_grid says why
    p, half, res, eps, phrase = FLOAT_RANGE_CASES[case]
    prof = af.derive_exponents(p, len(p))
    with pytest.raises(ConfigError, match=re.escape(phrase)):
        grid = af.build_grid(half, res)
        eps = min(grid.spacings) if eps is None else eps
        af.SimConfig(grid, af.InitialProfile("bump"), prof, eps, 0.01)


@pytest.mark.parametrize(  # build_grid rejects the "grid" cases; the others reach the kernel
    "case", sorted(c for c, v in FLOAT_RANGE_CASES.items() if not v[-1].startswith("grid"))
)
def test_stable_dt_and_advance_reject_a_scheme_out_of_float_range(case):
    p, half, res, eps, phrase = FLOAT_RANGE_CASES[case]
    grid, prof = af.build_grid(half, res), af.derive_exponents(p, len(p))
    field = af.Field(grid, np.ones(grid.n_cells), 0.0)
    eps = min(grid.spacings) if eps is None else eps
    with pytest.raises(DomainError, match=re.escape(phrase)):
        stable_dt(field, prof, eps)
    with pytest.raises(DomainError, match=re.escape(phrase)):
        advance(field, prof, eps, 1e-6)


def test_only_the_solver_names_the_face_layout():
    # the zero-ghost/periodic face layout lives in solver; other modules build their
    # face differences with `_face_differences`
    layout = {"_along", "_FIRST", "_LAST", "_split"}
    for path in sorted(Path(af.__file__).parent.glob("*.py")):
        if path.name != "solver.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            nodes = list(ast.walk(tree))
            imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
            used = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            assert not (imported | used) & layout, path.name


# --- guards -----------------------------------------------------------------------------


#: each guard of the solver's inputs that no other test reaches: (call, error, message)
SOLVER_GUARDS = {
    "grid lengths differ": (
        lambda: af.build_grid([0.5, 0.5], [8]),
        ConfigError,
        "half_domain has 2 entries but resolution has 1",
    ),
    "field size": (
        lambda: af.Field(af.build_grid([0.5], [8]), np.zeros(5), 0.0),
        IngestionError,
        "field has 5 values",
    ),
    "config dimension": (
        lambda: af.SimConfig(
            af.build_grid([0.5], [8]), af.InitialProfile("bump"),
            af.derive_exponents([1.4, 1.6], 2), 0.1, 0.1,
        ),
        ConfigError,
        "2 exponents for a 1-dimensional grid",
    ),
}


@pytest.mark.parametrize("case", sorted(SOLVER_GUARDS))
def test_solver_guards(case):
    call, error, message = SOLVER_GUARDS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_a_config_error_from_one_string_holds_it_as_its_one_violation():
    error = ConfigError("t_end must be nonnegative and finite, got -1.0")
    assert error.violations == ["t_end must be nonnegative and finite, got -1.0"]
    assert str(error) == "t_end must be nonnegative and finite, got -1.0"
