"""Extinction detection and power-law slope recovery."""

import math
import re

import numpy as np
import pytest

import anisofast as af
from anisofast.errors import DomainError
from conftest import synthetic_power_trajectory


def _bump_values(grid, radius=0.3):
    return af.init_field(grid, af.InitialProfile("bump", 1.0, radius)).values


# --- detect_extinction ----------------------------------------------------------


def test_detect_zero_initial_datum(zero_traj_1d):
    assert af.detect_extinction(zero_traj_1d, 1e-6) == 0.0


def test_detect_never_below_threshold(run_1d_fast):
    assert af.detect_extinction(run_1d_fast, 1e-30) is None


def test_detect_monotone_in_threshold(run_1d_fast):
    thresholds = (1e-2, 1e-3, 1e-4, 1e-5)
    stars = [af.detect_extinction(run_1d_fast, th) for th in thresholds]
    assert all(s is not None for s in stars)
    assert all(a <= b for a, b in zip(stars, stars[1:]))


def test_detect_log_interpolation_accuracy():
    # sup decays exactly like e^(-10 t); crossing time is recovered closely
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [16], "dirichlet_zero")
    base = np.ones(16)
    times = np.linspace(0.0, 1.0, 21)
    rows = [math.exp(-10.0 * t) * base for t in times]
    traj = af.Trajectory(grid, prof, 1e-9, rows, tuple(times))
    threshold = 1e-3
    expected = -math.log(threshold) / 10.0
    assert af.detect_extinction(traj, threshold) == pytest.approx(expected, abs=1e-9)


def test_detect_t_star_shrinks_with_initial_mass():
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [64], "dirichlet_zero")
    stars = []
    for amplitude in (1.0, 0.7, 0.5):
        cfg = af.SimConfig(
            grid=grid,
            profile=af.InitialProfile("bump", amplitude, 0.25),
            exponents=prof,
            eps=2e-2,
            t_end=0.45,
            safety=0.45,
            snapshot_times=af.uniform_snapshots(0.45, 151),
        )
        traj = af.run(cfg)
        stars.append(af.detect_extinction(traj, 1e-5 * amplitude))
    assert all(s is not None for s in stars)
    assert stars[0] > stars[1] > stars[2]


# --- fit_power_law ----------------------------------------------------------------


def test_fit_exact_power_law():
    x = np.linspace(0.5, 9.0, 40)
    fit = af.fit_power_law(np.column_stack([x, 3.0 * x**2]))
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)


def test_fit_constant_has_zero_slope():
    x = np.linspace(1.0, 5.0, 10)
    fit = af.fit_power_law(np.column_stack([x, np.full(10, 4.0)]))
    assert fit.slope == pytest.approx(0.0, abs=1e-13)


def test_fit_perturbed_power_law():
    x = np.logspace(0.1, 2.0, 60)
    y = x**2 * (1.0 + 0.01 * np.sin(np.log(x)))
    fit = af.fit_power_law(np.column_stack([x, y]))
    assert abs(fit.slope - 2.0) <= 0.02


def test_fit_errors():
    with pytest.raises(DomainError):
        af.fit_power_law([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(DomainError):
        af.fit_power_law([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


# --- decay_report -------------------------------------------------------------------


def test_synthetic_recovery_isotropic():
    # manufactured u = (T* - tau)^(1/(2-p)) phi: slopes recovered to 1e-6,
    # t_star within one snapshot interval of the true extinction time
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [200], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=1.0, n_snap=51)
    threshold = 1e-9
    t_star = af.detect_extinction(traj, threshold)
    assert abs(t_star - 1.0) <= 1.0 / 50.0
    for rep in af.decay_reports(traj, 0.1, threshold)[1]:
        assert abs(rep.mass_slope - 2.0) <= 1e-6
        assert abs(rep.sup_slope - 2.0) <= 1e-6
        assert rep.mass_theory == pytest.approx(2.0)
        assert rep.n_points >= 8


def test_synthetic_recovery_anisotropic_standard():
    # fixed standard cube of a separable decay: pure power law in (T* - tau)
    prof = af.derive_exponents([1.3, 1.7], 2)
    grid = af.build_grid([0.5, 0.5], [48, 48], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=1.0, n_snap=41)
    _, (_, rep) = af.decay_reports(traj, 0.1, 1e-9)
    expected = 1.0 / (2.0 - prof.p_bar)
    assert abs(rep.mass_slope - expected) <= 1e-6
    assert rep.mass_theory == pytest.approx(1.0 / (2.0 - 1.7))


def test_standard_sup_fit_not_applicable():
    # p = (1.2, 1.8): lam_1 < 0, so the standard sup rate hypothesis fails
    prof = af.derive_exponents([1.2, 1.8], 2)
    grid = af.build_grid([0.5, 0.5], [32, 32], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=41)
    _, (_, rep) = af.decay_reports(traj, 0.1, 1e-9)
    assert not rep.sup_applicable
    assert math.isnan(rep.sup_slope)
    assert "lam_i" in rep.reason
    assert rep.mass_applicable  # the mass fit still runs


def test_decay_fit_with_too_few_rows_is_not_applicable():
    # seven snapshots of (1 - tau)^2 phi: six before t_star, under MIN_FIT_POINTS
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [64], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=1.0, n_snap=7)
    _, reports = af.decay_reports(traj, 0.1, 1e-9)
    for rep in reports:
        assert rep.n_points < af.extinction.MIN_FIT_POINTS
        assert not rep.mass_applicable and not rep.sup_applicable
        assert math.isnan(rep.mass_slope) and math.isnan(rep.sup_slope)
        assert rep.reason == "insufficient mass samples; insufficient sup samples"


def test_intrinsic_sup_fit_not_applicable_when_lam_is_not_positive():
    # p = (1.2, 1.3): lam = 2 (p_bar - 2) + p_bar < 0, so only the mass rate is predicted
    prof = af.derive_exponents([1.2, 1.3], 2)
    assert prof.lam == pytest.approx(-0.256, abs=1e-3)
    grid = af.build_grid([0.5, 0.5], [32, 32], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=41)
    _, (rep, _) = af.decay_reports(traj, 0.1, 1e-9)
    assert math.isnan(rep.sup_theory) and not rep.sup_applicable
    assert rep.reason == "lam=-0.256 <= 0"
    assert rep.mass_applicable and rep.mass_theory == pytest.approx(1.0 / (2.0 - prof.p_bar))


def test_decay_reports_fit_both_geometries_on_one_sample_set():
    # decay_reports fits both geometries on one sample set, decay_samples at
    # the detected t_star; a rate the theory table leaves
    # not finite is reported not-applicable
    prof = af.derive_exponents([1.2, 1.8], 2)
    grid = af.build_grid([0.5, 0.5], [32, 32], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=41)
    samples, reports = af.decay_reports(traj, 0.1, 1e-9)
    expected = af.decay_samples(traj, 0.1, af.detect_extinction(traj, 1e-9), 1e-9)
    for name, values in vars(expected).items():
        np.testing.assert_array_equal(getattr(samples, name), values)  # NaN equals NaN
    assert [rep.geometry for rep in reports] == ["intrinsic", "standard"]
    for rep in reports:
        for quantity in ("mass", "sup"):
            finite = math.isfinite(getattr(rep, f"{quantity}_theory"))
            assert getattr(rep, f"{quantity}_applicable") == finite
    assert reports[0].sup_applicable and not reports[1].sup_applicable


def test_intrinsic_cube_volume_constant_across_samples():
    prof = af.derive_exponents([1.3, 1.7], 2)
    grid = af.build_grid([0.5, 0.5], [32, 32], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=21)
    samples = af.decay_samples(traj, 0.1, 0.5, 1e-9)
    for remaining in samples.remaining:
        cube = af.intrinsic_cube(0.1, remaining, prof)
        assert cube.volume() == pytest.approx(0.2**2, rel=1e-12)


def test_containment_flag_matches_geometry():
    # the 4*rho intrinsic cube can exceed the domain along the large-p axis
    # for large time parameter and along the small-p axis near extinction;
    # each sample's flag must agree with a direct geometric recomputation
    from anisofast.harnack import cube_contained

    prof = af.derive_exponents([1.2, 1.8], 2)
    grid = af.build_grid([0.5, 0.5], [32, 32], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=1.0, n_snap=201)
    # at a large time parameter the K_rho cube is narrower than a cell along the small-p axis
    with pytest.warns(UserWarning, match="no cell centers inside the cube"):
        samples = af.decay_samples(traj, 0.05, 1.0, 1e-12)
    for remaining, flag in zip(samples.remaining, samples.contained_4rho):
        quad = af.scale_cube(af.intrinsic_cube(0.05, remaining, prof), 4.0)
        assert flag == cube_contained(quad, grid)
    assert samples.contained_4rho.any()
    assert not samples.contained_4rho.all()


def _counting(monkeypatch, module, name, log):
    """Replace module.name by a wrapper that logs (cube kind, rows) of each call;
    the cube is the one passed in, or else the one returned."""
    original = getattr(module, name)

    def wrapper(*args):
        result = original(*args)
        cube = next(a for a in (*args, result) if isinstance(a, af.CubeSpec))
        rows = next((a for a in args if isinstance(a, np.ndarray)), None)
        log.append((cube.kind, None if rows is None else len(rows)))
        return result

    monkeypatch.setattr(module, name, wrapper)


def test_decay_samples_tests_each_distinct_cube_once(monkeypatch):
    # one cube built, one integral, one sup and one K_{4 rho} containment test
    # per run of rows on one footprint: in 1D every K_rho(t_star - tau) has
    # half-width rho, so the intrinsic rows are one run; an anisotropic cube
    # changes every row
    from anisofast import extinction

    names = ("intrinsic_cube", "_cube_integrals", "_cube_sups", "cube_contained")
    logs = {name: [] for name in names}
    for name, log in logs.items():
        _counting(monkeypatch, extinction, name, log)
    for p, resolution, runs in (([1.5], [32], [40]), ([1.4, 1.6], [24, 24], [1] * 40)):
        prof = af.derive_exponents(p, len(p))
        grid = af.build_grid([0.5] * len(p), resolution, "dirichlet_zero")
        traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=41)
        for log in logs.values():
            log.clear()
        samples = af.decay_samples(traj, 0.2, 0.5, 1e-9)
        assert len(samples.tau) == sum(runs) == 40
        for name in ("_cube_integrals", "_cube_sups"):
            assert logs[name] == [("intrinsic", n) for n in runs] + [("standard", 40)], name
        for name in ("intrinsic_cube", "cube_contained"):
            assert logs[name] == [("intrinsic", None)] * len(runs), name


def _per_row_samples(traj, rho, t_star, threshold):
    """Decay samples with one single-row reduction per intrinsic cube (the
    standard rows in one call), each row's containment tested on its own."""
    from anisofast.harnack import _cube_integrals, _cube_sups, cube_contained

    grid, prof = traj.grid, traj.exponents
    before = int(np.sum(np.asarray(traj.times) < t_star))
    rows = traj.values[:before]
    tau = np.array(traj.times[:before])
    cubes = [af.intrinsic_cube(rho, float(t_star - t), prof) for t in tau]
    std = af.standard_cube(rho, prof)
    return {
        "tau": tau,
        "remaining": t_star - tau,
        "mass_intrinsic": [_cube_integrals(grid, u[None], c, 1.0)[0] for u, c in zip(rows, cubes)],
        "sup_intrinsic": [_cube_sups(grid, u[None], c)[0] for u, c in zip(rows, cubes)],
        "mass_standard": _cube_integrals(grid, rows, std, 1.0),
        "sup_standard": _cube_sups(grid, rows, std),
        "contained_4rho": [cube_contained(af.scale_cube(c, 4.0), grid) for c in cubes],
        "in_window": rows.max(axis=1) >= 10.0 * threshold,
    }


@pytest.mark.parametrize(
    "p, resolution, rho",
    [([1.4, 1.6], [32, 32], 0.15), ([1.3, 1.5, 1.7], [12, 12, 12], 0.2)],
)
def test_anisotropic_decay_samples_are_the_per_row_reductions(p, resolution, rho):
    # every row of an anisotropic profile is its own footprint run, so each
    # array is bit for bit the per-row evaluation
    prof = af.derive_exponents(p, len(p))
    grid = af.build_grid([0.5] * len(p), resolution, "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=31)
    samples = af.decay_samples(traj, rho, 0.5, 1e-9)
    expected = _per_row_samples(traj, rho, 0.5, 1e-9)
    assert set(expected) == set(vars(samples))
    for name, values in expected.items():
        got = getattr(samples, name)
        assert got.tobytes() == np.asarray(values, dtype=got.dtype).tobytes(), name


@pytest.mark.parametrize("p", [[1.5], [1.5, 1.5]])
def test_isotropic_intrinsic_samples_are_the_standard_ones(p):
    # every K_rho(t) of an isotropic profile is the standard cube, and its
    # rows are reduced by the very call the standard rows are
    prof = af.derive_exponents(p, len(p))
    grid = af.build_grid([0.5] * len(p), [64] if len(p) == 1 else [24, 24], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=61)
    samples, (intrinsic, standard) = af.decay_reports(traj, 0.1, 1e-9)
    for quantity in ("mass", "sup"):
        got, std = (getattr(samples, f"{quantity}_{g}") for g in ("intrinsic", "standard"))
        assert got.tobytes() == std.tobytes(), quantity
        for field in ("slope", "stderr", "r_squared"):
            name = f"{quantity}_{field}"
            assert getattr(intrinsic, name) == getattr(standard, name), name


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0, 0.0])
def test_threshold_must_be_positive_and_finite(threshold):
    prof = af.derive_exponents([1.5], 1)
    grid = af.build_grid([0.5], [16], "dirichlet_zero")
    traj = synthetic_power_trajectory(prof, grid, _bump_values(grid), t_star=0.5, n_snap=11)
    for measure in (
        lambda: af.detect_extinction(traj, threshold),
        lambda: af.decay_samples(traj, 0.1, 0.5, threshold),
        lambda: af.decay_reports(traj, 0.1, threshold),
    ):
        with pytest.raises(DomainError, match="threshold must be positive and finite"):
            measure()


def test_decay_report_requires_crossing(run_1d_fast):
    with pytest.raises(DomainError):
        af.decay_reports(run_1d_fast, 0.1, 1e-30)


def test_decay_report_solver_run_isotropic(run_1d_fast):
    # coarse-regularization run still lands near the predicted exponent 2.0
    threshold = 1e-4 * run_1d_fast.initial.sup()
    _, (rep, _) = af.decay_reports(run_1d_fast, 0.1, threshold)
    assert rep.sup_applicable
    assert rep.sup_theory == pytest.approx(2.0)
    assert abs(rep.sup_slope - 2.0) <= 0.8  # coarse eps biases the tail
    assert rep.n_points >= 8


# --- guards -------------------------------------------------------------------------


def _zero_ended_1d():
    grid, prof = af.build_grid([0.5], [16]), af.derive_exponents([1.5], 1)
    return synthetic_power_trajectory(prof, grid, np.ones(16), t_star=0.5, n_snap=11)


#: each guard of the decay fits' arguments that no other test reaches: (call, message)
DECAY_GUARDS = {
    "one x value": (
        lambda: af.fit_power_law([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]),
        "fit_power_law needs at least two distinct x values",
    ),
    "t_star at the first snapshot": (
        lambda: af.decay_samples(_zero_ended_1d(), 0.1, 0.0, 1e-3),
        "no snapshots strictly before t_star",
    ),
}


@pytest.mark.parametrize("case", sorted(DECAY_GUARDS))
def test_decay_guards(case):
    call, message = DECAY_GUARDS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
