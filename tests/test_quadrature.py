"""The batched cube quadrature against a per-snapshot loop, and the snapshot array."""

import math
import warnings

import numpy as np
import pytest

import anisofast as af
from anisofast import harnack
from anisofast.harnack import _cube_integrals, _cube_sups, _footprint

# (half_domain, resolution, boundary) in one, two and three dimensions
GRIDS = [
    ((0.5,), (40,), "dirichlet_zero"),
    ((0.5,), (33,), "periodic"),
    ((0.5, 0.4), (24, 18), "dirichlet_zero"),
    ((0.5, 0.4), (20, 16), "periodic"),
    ((0.5, 0.5, 0.3), (10, 12, 8), "dirichlet_zero"),
    ((0.5, 0.5, 0.3), (9, 8, 10), "periodic"),
]

# cube centers as fractions of the half domain, and half widths as fractions
# of it: inside, crossing the boundary, and beyond it
PLACEMENTS = {
    "inside": (0.1, 0.37),
    "partly_outside": (0.8, 0.45),
    "outside": (3.0, 0.2),
}


def _cube(half_domain, placement):
    center_frac, width_frac = PLACEMENTS[placement]
    n = len(half_domain)
    center = tuple(center_frac * H * (-1) ** i for i, H in enumerate(half_domain))
    widths = tuple(width_frac * H * (1.0 + 0.1 * i) for i, H in enumerate(half_domain))
    return af.CubeSpec(center, widths, "standard", math.prod(widths) ** (1.0 / n))


def _trajectory(half_domain, resolution, boundary, n_snap=7, seed=3):
    """Random nonnegative snapshots with scattered round-off negatives."""
    grid = af.build_grid(half_domain, resolution, boundary)
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0, (n_snap, grid.n_cells))
    values[rng.uniform(size=values.shape) < 0.1] = -1e-15
    times = np.linspace(0.0, 0.3, n_snap)
    prof = af.derive_exponents([1.5] * grid.N, grid.N)
    return af.Trajectory(grid, prof, 1e-3, values, times)


def _loop_integral(grid, u, cube, r):
    """Full-grid tensor weights times the integrand, one snapshot at a time."""
    weight = np.ones(grid.shape)
    for i in range(grid.N):
        h = grid.spacings[i]
        x = grid.axis_centers(i)
        lo = cube.center[i] - cube.half_widths[i]
        hi = cube.center[i] + cube.half_widths[i]
        w = np.clip(np.minimum(x + h / 2, hi) - np.maximum(x - h / 2, lo), 0.0, h) / h
        shape = [1] * grid.N
        shape[i] = -1
        weight = weight * w.reshape(shape)
    integrand = u if r == 1.0 else np.maximum(u, 0.0) ** r
    return float((integrand.reshape(grid.shape) * weight).sum() * grid.cell_volume)


def _loop_sup(grid, u, cube):
    inside = np.ones(grid.shape, dtype=bool)
    for i in range(grid.N):
        shape = [1] * grid.N
        shape[i] = -1
        near = np.abs(grid.axis_centers(i) - cube.center[i]) < cube.half_widths[i]
        inside &= near.reshape(shape)
    return float(u.reshape(grid.shape)[inside].max()) if inside.any() else 0.0


@pytest.mark.parametrize("spec", GRIDS, ids=lambda s: f"{len(s[1])}d-{s[2]}")
@pytest.mark.parametrize("placement", ["inside", "partly_outside"])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
def test_batched_integrals_match_snapshot_loop(spec, placement, r):
    traj = _trajectory(*spec)
    cube = _cube(spec[0], placement)
    batched = _cube_integrals(traj.grid, traj.values, cube, r)
    assert batched.shape == (len(traj.times),)
    for row, value in zip(traj.values, batched):
        assert value == pytest.approx(_loop_integral(traj.grid, row, cube, r), rel=1e-12)
    # the single-snapshot entry point is the one-row case of the same operator
    for k, f in enumerate(traj.snapshots):
        assert af.cube_integral(f, cube, r) == pytest.approx(batched[k], rel=1e-12)


@pytest.mark.parametrize("spec", GRIDS, ids=lambda s: f"{len(s[1])}d-{s[2]}")
@pytest.mark.parametrize("placement", ["inside", "partly_outside"])
def test_batched_sups_match_snapshot_loop(spec, placement):
    traj = _trajectory(*spec)
    cube = _cube(spec[0], placement)
    batched = _cube_sups(traj.grid, traj.values, cube)
    expected = [_loop_sup(traj.grid, row, cube) for row in traj.values]
    assert batched.tolist() == expected
    assert [_cube_sups(f.grid, f.values[None], cube)[0] for f in traj.snapshots] == expected


@pytest.mark.parametrize("spec", GRIDS, ids=lambda s: f"{len(s[1])}d-{s[2]}")
def test_window_reductions_match_snapshot_loop(spec):
    traj = _trajectory(*spec)
    cube = _cube(spec[0], "partly_outside")
    window = (0.04, 0.21)
    rows = [f.values for f in traj.snapshots if 0.04 <= f.time <= 0.21]
    assert len(rows) == 4
    l1 = [_loop_integral(traj.grid, u, cube, 1.0) for u in rows]
    l2 = [_loop_integral(traj.grid, u, cube, 2.0) for u in rows]
    sups = [_loop_sup(traj.grid, u, cube) for u in rows]
    assert af.time_extremal(traj, cube, window, "sup_lr") == pytest.approx(max(l1), rel=1e-12)
    assert af.time_extremal(traj, cube, window, "inf_l1") == pytest.approx(min(l1), rel=1e-12)
    assert af.time_extremal(traj, cube, window, "sup_lr", 2.0) == pytest.approx(
        max(l2), rel=1e-12
    )
    assert af.time_extremal(traj, cube, window, "sup_linf") == max(sups)


@pytest.mark.parametrize("spec", GRIDS, ids=lambda s: f"{len(s[1])}d-{s[2]}")
def test_cube_outside_grid_warns_and_gives_zero(spec):
    traj = _trajectory(*spec)
    cube = _cube(spec[0], "outside")
    assert _loop_integral(traj.grid, traj.values[0], cube, 1.0) == 0.0
    with pytest.warns(UserWarning, match="does not intersect"):
        assert _cube_integrals(traj.grid, traj.values, cube, 2.0).tolist() == [0.0] * 7
    with pytest.warns(UserWarning, match="no cell centers"):
        assert _cube_sups(traj.grid, traj.values, cube).tolist() == [0.0] * 7
    with pytest.warns(UserWarning, match="does not intersect"):
        assert af.time_extremal(traj, cube, (0.0, 0.3), "sup_lr") == 0.0
    with pytest.warns(UserWarning, match="does not intersect"):
        assert af.cube_integral(traj.initial, cube, 1.0) == 0.0


def test_round_off_negatives_are_clamped_only_above_order_one():
    traj = _trajectory((0.5,), (40,), "dirichlet_zero")
    grid = traj.grid
    values = np.full((2, grid.n_cells), -1e-15)
    cube = _cube((0.5,), "inside")
    assert (_cube_integrals(grid, values, cube, 1.0) < 0.0).all()
    assert _cube_integrals(grid, values, cube, 2.0).tolist() == [0.0, 0.0]


# --- the cached footprint ------------------------------------------------------------

# per placement: (lowest, highest) |center| and half width, as fractions of the half domain
RANDOM_PLACEMENTS = {
    "inside": ((0.0, 0.3), (0.1, 0.3)),
    "straddling": ((0.8, 0.95), (0.25, 0.4)),
    "outside": ((2.0, 3.0), (0.1, 0.5)),
}


def _random_cubes(half_domain, placement, count=4, seed=11):
    (c_lo, c_hi), (w_lo, w_hi) = RANDOM_PLACEMENTS[placement]
    rng = np.random.default_rng(seed)
    H, n = np.asarray(half_domain), len(half_domain)
    for _ in range(count):
        center = rng.uniform(c_lo, c_hi, n) * H * rng.choice([-1.0, 1.0], n)
        widths = tuple(rng.uniform(w_lo, w_hi, n) * H)
        rho = math.prod(widths) ** (1.0 / n)
        yield af.CubeSpec(tuple(center), widths, "standard", rho)


def _reductions(traj, cube):
    """The bytes of every private reduction of the cube, and the warnings they raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a repeated warning is recorded again
        values = [
            _cube_integrals(traj.grid, traj.values, cube, 1.0).tobytes(),
            _cube_integrals(traj.grid, traj.values, cube, 2.0).tobytes(),
            _cube_sups(traj.grid, traj.values, cube).tobytes(),
        ]
    return values, [str(w.message) for w in caught]


@pytest.mark.parametrize("spec", GRIDS, ids=lambda s: f"{len(s[1])}d-{s[2]}")
@pytest.mark.parametrize("placement", sorted(RANDOM_PLACEMENTS))
def test_cached_footprint_gives_the_bits_and_warnings_of_a_cold_one(spec, placement):
    traj = _trajectory(*spec)
    for cube in _random_cubes(spec[0], placement):
        harnack._footprint.cache_clear()
        cold = _reductions(traj, cube)
        assert harnack._footprint.cache_info().misses == 1
        warm = _reductions(traj, cube)
        assert harnack._footprint.cache_info().misses == 1
        assert warm == cold
        if placement == "outside":
            assert cold[1] == [
                "cube does not intersect the grid domain; integral is 0",
                "cube does not intersect the grid domain; integral is 0",
                "no cell centers inside the cube; sup is 0",
            ]
        else:
            assert cold[1] == []


def test_cached_weights_are_read_only_and_shared_by_equal_footprints():
    grid = af.build_grid([0.5, 0.4], [24, 18], "dirichlet_zero")
    prof = af.derive_exponents([1.5, 1.5], 2)  # isotropic: every intrinsic K_rho has width rho
    cubes = [af.intrinsic_cube(0.1, t, prof) for t in (0.01, 0.02)] + [af.standard_cube(0.1, prof)]
    footprints = [_footprint(grid, cube.center, cube.half_widths) for cube in cubes]
    assert all(f is footprints[0] for f in footprints)
    weights, spans, open_spans = footprints[0]
    assert spans == (slice(9, 15), slice(6, 12))  # the cells that meet [-0.1, 0.1]^2
    assert open_spans == (slice(10, 14), slice(7, 11))  # the cells centered in (-0.1, 0.1)^2
    for w in weights:
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0


# --- the snapshot array ------------------------------------------------------------


def test_run_fills_one_contiguous_array(run_1d_fast):
    values = run_1d_fast.values
    assert values.flags.c_contiguous and values.dtype == np.float64
    assert values.shape == (len(run_1d_fast.times), run_1d_fast.grid.n_cells)
    assert np.shares_memory(run_1d_fast.initial.values, values)
    assert run_1d_fast.sup_series().tolist() == [f.sup() for f in run_1d_fast.snapshots]


def test_sup_series_is_one_read_only_array(run_1d_fast):
    # detect_extinction and decay_samples read one reduction of the rows
    sups = run_1d_fast.sup_series()
    assert run_1d_fast.sup_series() is sups and not sups.flags.writeable
    with pytest.raises(ValueError):
        sups[0] = 0.0


def test_load_trajectory_reads_one_contiguous_array(tmp_path, run_1d_fast):
    path = af.save_trajectory(run_1d_fast, str(tmp_path / "traj"))
    loaded = af.load_trajectory(path)
    assert loaded.values.flags.c_contiguous and loaded.values.dtype == np.float64
    assert loaded.values.shape == run_1d_fast.values.shape
    for k in (0, 7, len(loaded.times) - 1):
        assert np.shares_memory(loaded.snapshots[k].values, loaded.values)
    assert loaded.values.tobytes() == run_1d_fast.values.tobytes()
    assert loaded.times == run_1d_fast.times


def test_load_trajectory_rejects_short_snapshot_file(tmp_path, zero_traj_1d):
    path = af.save_trajectory(zero_traj_1d, str(tmp_path / "traj"))
    with open(tmp_path / "traj" / "snapshots.f64", "r+b") as fh:
        fh.truncate(8 * (64 + 63))  # snapshot 1 one value short, snapshot 2 gone
    with pytest.raises(af.IngestionError, match="3 x 64 values"):
        af.load_trajectory(path)


def test_trajectory_rejects_inconsistent_arrays(zero_traj_1d):
    grid, prof = zero_traj_1d.grid, zero_traj_1d.exponents
    with pytest.raises(af.IngestionError):
        af.Trajectory(grid, prof, 1e-3, np.zeros((2, 63)), (0.0, 0.1))
    with pytest.raises(af.IngestionError):
        af.Trajectory(grid, prof, 1e-3, np.zeros((2, 64)), (0.1, 0.0))
    with pytest.raises(af.IngestionError):
        af.Trajectory(grid, prof, 1e-3, np.zeros((0, 64)), ())
    with pytest.raises(af.IngestionError, match="2 exponents for a 1-dimensional grid"):
        af.Trajectory(grid, af.derive_exponents([1.4, 1.6], 2), 1e-3, np.zeros((2, 64)), (0.0, 0.1))
    for t in (np.nan, np.inf):
        with pytest.raises(af.IngestionError, match="snapshot time must be finite"):
            af.Trajectory(grid, prof, 1e-3, np.zeros((2, 64)), (0.0, t))
    for eps in (np.nan, -1e-3, 0.0, np.inf):
        with pytest.raises(af.IngestionError, match="eps must be positive and finite"):
            af.Trajectory(grid, prof, eps, np.zeros((2, 64)), (0.0, 0.1))
    # the run record: what `load_trajectory` rejects in a manifest
    for field, value, message in (
        ("steps", -1, "steps must be a nonnegative integer, got -1"),
        ("steps", 2.5, "steps must be a nonnegative integer, got 2.5"),
        ("steps", "3", "steps must be a nonnegative integer, got '3'"),
        ("min_value", np.nan, "min_value must be finite, got nan"),
        ("min_value", -np.inf, "min_value must be finite, got -inf"),
        ("mass_drift", np.inf, "mass_drift must be finite, got inf"),
        ("mass_drift", "x", "mass_drift must be a number, got 'x'"),
    ):
        with pytest.raises(af.IngestionError, match=message):
            af.Trajectory(grid, prof, 1e-3, np.ones((2, 64)), (0.0, 0.1), **{field: value})
