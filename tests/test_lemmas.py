"""Young constant, sequence lemmas, embedding ratio, and the energy estimate."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisofast as af
from anisofast.errors import DomainError
from anisofast.lemmas import (
    _fast_convergence_lanes,
    CutoffSpec,
    caccioppoli_report,
    fast_convergence,
    iteration_bound,
    sobolev_critical,
    sobolev_ratio,
    young_conjugate,
    young_gamma,
)


# --- Young's inequality ---------------------------------------------------------


def test_young_gamma_classical_case():
    # q = 2, eps = 1/2 recovers ab <= a^2/2 + b^2/2
    assert young_gamma(0.5, 2.0) == pytest.approx(0.5, abs=1e-15)


@given(
    eps=st.floats(min_value=0.01, max_value=10.0),
    q=st.floats(min_value=1.05, max_value=6.0),
)
@settings(max_examples=100, deadline=None)
def test_young_inequality_random_pairs(eps, q):
    gamma = young_gamma(eps, q)
    qp = young_conjugate(q)
    rng = np.random.default_rng(1234)
    a = rng.uniform(1e-12, 10.0, size=500)
    b = rng.uniform(1e-12, 10.0, size=500)
    margin = eps * a**q + gamma * b**qp - a * b
    assert (margin >= -1e-12 * np.maximum(a * b, 1.0)).all()


def test_young_zero_side_is_trivial():
    # a = 0 makes the left side vanish while the right side stays nonnegative
    gamma = young_gamma(0.3, 1.7)
    assert 0.0 <= gamma * 5.0 ** young_conjugate(1.7)


@given(
    eps=st.floats(min_value=0.05, max_value=5.0),
    q=st.floats(min_value=1.1, max_value=5.0),
    b=st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_young_equality_at_optimal_coupling(eps, q, b):
    # the minimum over a of eps a^q + gamma b^q' - a b is zero: gamma is sharp
    gamma = young_gamma(eps, q)
    qp = young_conjugate(q)
    a_star = (b / (eps * q)) ** (1.0 / (q - 1.0))
    values = []
    for a in np.linspace(0.2 * a_star, 3.0 * a_star, 200):
        values.append(eps * a**q + gamma * b**qp - a * b)
    assert min(values) >= -1e-12 * max(1.0, b * a_star)
    at_star = eps * a_star**q + gamma * b**qp - a_star * b
    assert abs(at_star) <= 1e-10 * max(1.0, b * a_star)


def test_young_domain_errors():
    with pytest.raises(DomainError):
        young_gamma(0.0, 2.0)
    with pytest.raises(DomainError):
        young_gamma(0.5, 1.0)


# --- fast geometric convergence ---------------------------------------------------


def test_fast_convergence_spec_sequence():
    result = fast_convergence(2.0, 4.0, 1.0, 0.125, n_max=20)
    assert result.bound == pytest.approx(0.125, abs=1e-15)
    assert result.values[1] == pytest.approx(0.03125, abs=1e-15)
    assert result.values[2] == pytest.approx(0.0078125, abs=1e-15)
    assert result.converged


def test_fast_convergence_zero_start():
    result = fast_convergence(2.0, 4.0, 1.0, 0.0, n_max=10)
    assert result.values == (0.0,)
    assert result.converged


def test_fast_convergence_divergent_above_threshold():
    result = fast_convergence(2.0, 4.0, 1.0, 10.0, n_max=50)
    assert not result.converged


def test_fast_convergence_overflowing_power_is_divergence():
    # 1e90 ** 4 is out of float range: reported as a diverged sequence, not raised
    result = fast_convergence(1.0, 1.5, 3.0, 1e90, n_max=5)
    assert result.values == (1e90, math.inf)
    assert not result.converged


@given(
    C=st.floats(min_value=0.1, max_value=10.0),
    b=st.floats(min_value=1.1, max_value=8.0),
    alpha=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_fast_convergence_below_threshold_always_converges(C, b, alpha):
    y0 = 0.99 * C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
    assert fast_convergence(C, b, alpha, y0, n_max=200).converged


@pytest.mark.parametrize("factor", [0.99, 2.0])
def test_fast_convergence_lanes_give_the_reference_verdicts(factor):
    # the lemma campaign's draws at a factor of the smallness threshold; numpy's **
    # differs from Python's in the last bit on about 5% of these calls, so the lanes'
    # values may differ from the reference's, but no verdict may
    diverged = 0
    for seed in range(300):
        draws = np.random.default_rng(seed).uniform((0.1, 1.1, 0.1), (10.0, 8.0, 2.0), (1000, 3))
        C, b, alpha = draws.T
        y0 = factor * C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
        lanes = _fast_convergence_lanes(C, b, alpha, y0, 200).tolist()
        runs = [fast_convergence(*d, y, 200) for d, y in zip(draws.tolist(), y0.tolist())]
        assert lanes == [run.converged for run in runs], seed
        diverged += sum(run.values[-1] > 1e100 for run in runs)
    assert (diverged > 0) == (factor > 1.0)  # above the threshold some lanes pass 1e100


def test_fast_convergence_lanes_retire_as_the_reference_stops():
    # from 0; to 0 in one step, where a later b^n would overflow; through inf at once
    # (1e150 ** 3); three steps with ratios below 1/2 and above it; past 1e100 but finite
    C, b = [1.0, 1.0, 1.0, 0.5, 0.9, 1.0], [2.0, 1e300, 2.0, 1.01, 1.01, 2.0]
    alpha, y0 = [1.0, 1.0, 2.0, 1.0, 1e-3, 1.0], [0.0, 1e-200, 1e150, 0.9, 0.5, 1e60]
    runs = [fast_convergence(*args, 3) for args in zip(C, b, alpha, y0)]
    assert [run.values[-1] for run in runs][:3] == [0.0, 0.0, math.inf]
    assert [run.converged for run in runs] == [True, True, False, True, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the lane through inf warns nothing
        lanes = _fast_convergence_lanes(*map(np.array, (C, b, alpha, y0)), 3)
    assert lanes.tolist() == [run.converged for run in runs]


# --- iteration bound ----------------------------------------------------------------


def test_iteration_bound_geometric_series():
    assert iteration_bound(0.25, 2.0, 1.0, 10.0) == pytest.approx(2.0, abs=1e-15)


def test_iteration_bound_not_applicable():
    assert iteration_bound(0.5, 2.0, 1.0, 10.0) is None


def test_iteration_bound_zero_sequence_satisfies():
    bound = iteration_bound(0.3, 2.0, 1.0, 0.0)
    assert 0.0 <= bound


def test_iteration_bound_random_admissible_sequences():
    # backward-generated sequences satisfying the recursion and the cap M
    # never exceed the bound (up to the explicitly accounted tail term)
    rng = np.random.default_rng(99)
    for _ in range(50):
        eps = float(rng.uniform(0.05, 0.9))
        b = float(rng.uniform(1.01, min(8.0, 0.95 / eps)))
        inhom = float(rng.uniform(0.5, 10.0))
        bound = iteration_bound(eps, b, inhom, M=1.0)
        horizon = max(8, int(np.ceil(np.log(1e-14) / np.log(eps))))
        m_cap = 100.0 * bound
        y = rng.uniform(0.0, m_cap, size=200)
        for n in range(horizon - 1, -1, -1):
            cap = np.minimum(m_cap, eps * y + inhom * b**n)
            y = rng.uniform(0.0, 1.0, size=y.size) * cap
        assert (y <= bound + eps**horizon * m_cap + 1e-12).all()


# --- embedding ratio ------------------------------------------------------------------


def _bump_field(n=64, center=(0.0, 0.0), radius=0.3, amplitude=1.0):
    grid = af.build_grid([0.5, 0.5], [n, n], "dirichlet_zero")
    X, Y = np.meshgrid(grid.axis_centers(0), grid.axis_centers(1), indexing="ij")
    s2 = ((X - center[0]) / radius) ** 2 + ((Y - center[1]) / radius) ** 2
    u = np.where(s2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - s2, 1e-300)), 0.0)
    return af.Field(grid, (amplitude * u).ravel(), 0.0)


def test_sobolev_exponent_bookkeeping():
    prof = af.derive_exponents([1.2, 1.8], 2)
    p_star = sobolev_critical(prof)
    assert p_star == pytest.approx(2.0 * 1.44 / 0.56, rel=1e-12)
    theta = prof.p_bar / p_star
    q = theta * p_star + 2.0 * (1.0 - theta)
    assert q == pytest.approx(2.88, abs=1e-12)
    assert q == pytest.approx(prof.p_bar * (prof.N + 2) / prof.N, abs=1e-12)


def test_sobolev_homogeneity_exact():
    prof = af.derive_exponents([1.2, 1.8], 2)
    theta = prof.p_bar / sobolev_critical(prof)
    field = _bump_field()
    base = sobolev_ratio(field, prof, theta, 2.0, 1.0)
    for c in (2.0, 0.5, 7.3):
        scaled = af.Field(field.grid, c * field.values, 0.0)
        assert sobolev_ratio(scaled, prof, theta, 2.0, 1.0) == pytest.approx(
            base, rel=1e-12
        )


def test_sobolev_zero_field_is_zero():
    prof = af.derive_exponents([1.2, 1.8], 2)
    grid = af.build_grid([0.5, 0.5], [16, 16], "dirichlet_zero")
    zero = af.Field(grid, np.zeros(256), 0.0)
    assert sobolev_ratio(zero, prof, 0.2, 2.0, 1.0) == 0.0


def test_sobolev_domain_errors():
    prof1 = af.derive_exponents([1.5], 1)  # p_bar >= N in one dimension
    grid = af.build_grid([0.5], [16], "dirichlet_zero")
    field = af.Field(grid, np.zeros(16), 0.0)
    with pytest.raises(DomainError):
        sobolev_ratio(field, prof1, 0.1, 1.5, 1.0)
    prof = af.derive_exponents([1.2, 1.8], 2)
    field2 = _bump_field(16)
    with pytest.raises(DomainError):
        sobolev_ratio(field2, prof, 0.9, 2.0, 1.0)  # theta beyond p_bar/p*
    with pytest.raises(DomainError):
        sobolev_ratio(field2, prof, 0.1, 0.5, 1.0)  # sigma below 1


@pytest.mark.parametrize("t_extent", [math.inf, math.nan, 0.0, -1.0])
def test_sobolev_rejects_a_t_extent_that_is_not_positive_and_finite(t_extent):
    # an infinite extent once passed and made the ratio nan
    prof = af.derive_exponents([1.2, 1.8], 2)
    with pytest.raises(DomainError, match="t_extent must be positive and finite"):
        sobolev_ratio(_bump_field(16), prof, 0.1, 2.0, t_extent)


def test_sobolev_ratio_stable_under_refinement():
    prof = af.derive_exponents([1.2, 1.8], 2)
    theta = prof.p_bar / sobolev_critical(prof)
    rng = np.random.default_rng(7)
    cases = [
        (rng.uniform(-0.2, 0.2, 2), rng.uniform(0.15, 0.35), rng.uniform(0.5, 2.0))
        for _ in range(100)
    ]
    maxima = []
    for n in (64, 128):
        maxima.append(
            max(
                sobolev_ratio(_bump_field(n, tuple(c), r, a), prof, theta, 2.0, 1.0)
                for c, r, a in cases
            )
        )
    assert math.isfinite(maxima[1])
    assert abs(maxima[1] - maxima[0]) <= 0.2 * maxima[0]


def _sobolev_reference(field, prof, theta, sigma, t_extent):
    """The ratio as it was first computed: quotients (difference / h) on faces
    padded with a zero ghost layer, and every power taken by `**`."""
    p_star = sobolev_critical(prof)
    q = theta * p_star + sigma * (1.0 - theta)
    u = field.reshaped()
    phi, vol, T = np.abs(u), field.grid.cell_volume, t_extent
    lhs = T * float((phi**q).sum()) * vol
    rhs = T ** (1.0 - theta * p_star / prof.p_bar) * (float((phi**sigma).sum()) * vol) ** (
        1.0 - theta
    )
    for i, (pi, h) in enumerate(zip(prof.p, field.grid.spacings)):
        pad = [(0, 0)] * u.ndim
        pad[i] = (1, 1)
        g = np.diff(np.pad(u, pad), axis=i) / h
        rhs *= (T * float((np.abs(g) ** pi).sum()) * vol) ** (theta * p_star / (prof.N * pi))
    return lhs / rhs


# dimension -> (exponents, resolution) of the fields compared with the reference
SOBOLEV_CASES = {
    2: ((1.4, 1.6), (48, 40)),
    3: ((1.3, 1.5, 1.7), (12, 10, 8)),
}


@pytest.mark.parametrize("n_dim", sorted(SOBOLEV_CASES))
def test_sobolev_ratio_matches_the_quotient_formula(n_dim):
    p, res = SOBOLEV_CASES[n_dim]
    prof = af.derive_exponents(p, n_dim)
    grid = af.build_grid([0.5] * n_dim, res, "dirichlet_zero")
    rng = np.random.default_rng(n_dim)
    random = rng.uniform(-1.0, 1.0, grid.n_cells)
    flat = random.copy()
    flat[: grid.n_cells // 2] = 0.25  # a block of zero face differences
    holes = np.where(rng.random(grid.n_cells) < 0.3, 0.0, random)  # zero cells
    theta = 0.5 * prof.p_bar / sobolev_critical(prof)
    for values in (random, flat, holes):
        field = af.Field(grid, values, 0.0)
        for sigma in (1.0, 2.0):
            want = _sobolev_reference(field, prof, theta, sigma, 0.08)
            assert sobolev_ratio(field, prof, theta, sigma, 0.08) == pytest.approx(
                want, rel=1e-12, abs=0.0
            )


def test_sobolev_ratio_rejects_every_1d_field():
    # p_bar >= 1 = N for every 1D profile: there is no 1D ratio to compare
    grid = af.build_grid([0.5], [32], "dirichlet_zero")
    field = af.Field(grid, np.random.default_rng(1).random(32), 0.0)
    for p in (1.1, 1.5, 1.9):
        with pytest.raises(DomainError, match="p_bar"):
            sobolev_ratio(field, af.derive_exponents([p], 1), 0.1, 1.0, 1.0)


def test_sobolev_ratio_rejects_a_periodic_field():
    # the embedding needs a zero boundary trace.  Zero-ghost faces once read the
    # ones of a periodic grid, whose gradient is 0, as the Dirichlet grid's ratio
    prof = af.derive_exponents([1.5, 1.6], 2)
    ones = {
        b: af.Field(af.build_grid([0.5, 0.5], [32, 32], b), np.ones(1024), 0.0)
        for b in ("dirichlet_zero", "periodic")
    }
    assert sobolev_ratio(ones["dirichlet_zero"], prof, 0.2, 1.0, 1.0) == 0.10053113500393605
    with pytest.raises(DomainError, match="zero boundary trace"):
        sobolev_ratio(ones["periodic"], prof, 0.2, 1.0, 1.0)


# tracemalloc peak of one 96x96 call, in field sizes: 8.1 with the face
# quotients, 4.8 measured on raw differences
SOBOLEV_PEAK_FIELDS = 6


def test_sobolev_ratio_peak_memory():
    prof = af.derive_exponents([1.4, 1.6], 2)
    field = _bump_field(96)
    sobolev_ratio(field, prof, 0.2, 2.0, 0.08)  # warm-up
    tracemalloc.start()
    try:
        sobolev_ratio(field, prof, 0.2, 2.0, 0.08)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SOBOLEV_PEAK_FIELDS * field.values.nbytes


# --- cutoff functions ------------------------------------------------------------------


def _cutoff_1d(inner=0.2, outer=0.4):
    prof = af.derive_exponents([1.5], 1)
    return (
        CutoffSpec(
            inner=af.CubeSpec((0.0,), (inner,), "standard", inner),
            outer=af.CubeSpec((0.0,), (outer,), "standard", outer),
            exponents=prof.p,
        ),
        prof,
    )


def test_cutoff_shape_and_bounds():
    cut, _ = _cutoff_1d()
    grid = af.build_grid([0.5], [200], "dirichlet_zero")
    z = cut.values(grid)
    x = grid.axis_centers(0)
    assert ((z >= 0.0) & (z <= 1.0)).all()
    assert (z[np.abs(x) <= 0.19] == 1.0).all()
    assert (z[np.abs(x) >= 0.41] == 0.0).all()
    assert cut.derivative_bound(0) == pytest.approx(5.0, rel=1e-12)


def test_cutoff_chain_rule_discretely_order_h():
    # discrete derivative of zeta_i^{p} tracks p zeta^{p-1} zeta' to O(h)
    cut, prof = _cutoff_1d()
    p = prof.p[0]
    errors = []
    for n in (100, 200, 400):
        grid = af.build_grid([0.5], [n], "dirichlet_zero")
        x = grid.axis_centers(0)
        z = cut.axis_ramp(0, x)
        zp = z**p
        num = np.gradient(zp, x)
        ramp = (np.abs(x) > 0.2) & (np.abs(x) < 0.4)
        exact = p * z ** (p - 1.0) * np.where(ramp, -np.sign(x) * 5.0, 0.0)
        errors.append(np.abs(num - exact).mean())
    assert errors[0] <= 10.0 * (1.0 / 100)
    assert errors[2] <= 0.6 * errors[0]


def test_cutoff_validation():
    prof = af.derive_exponents([1.5], 1)
    inner = af.CubeSpec((0.0,), (0.3,), "standard", 0.3)
    with pytest.raises(DomainError):
        CutoffSpec(inner=inner, outer=inner, exponents=prof.p)


# --- Caccioppoli report -----------------------------------------------------------------


def test_caccioppoli_truncation_above_sup_gives_zero(run_1d_fast):
    cut, prof = _cutoff_1d()
    k = 2.0 * run_1d_fast.initial.sup()
    rep = caccioppoli_report(run_1d_fast, prof, cut, k, (0.02, 0.2))
    assert rep.lhs == 0.0
    assert rep.gamma_min == 0.0


def test_caccioppoli_prototype_run_finite(run_1d_fast):
    cut, prof = _cutoff_1d()
    k = 0.5 * run_1d_fast.initial.sup()
    rep = caccioppoli_report(run_1d_fast, prof, cut, k, (0.02, 0.2))
    assert math.isfinite(rep.gamma_min) and rep.gamma_min > 0.0
    assert set(rep.rhs_terms) == {"gradient", "time", "inhomogeneity"}
    assert rep.rhs_terms["inhomogeneity"] == 0.0  # C = 0 prototype


def test_caccioppoli_flat_interior_cutoff(run_1d_fast):
    # ramps parked outside the domain: zeta is 1 at every cell, the report
    # stays well defined and the time term carries the bound
    prof = run_1d_fast.exponents
    cut = CutoffSpec(
        inner=af.CubeSpec((0.0,), (0.496,), "standard", 0.496),
        outer=af.CubeSpec((0.0,), (0.4999,), "standard", 0.4999),
        exponents=prof.p,
    )
    rep = caccioppoli_report(run_1d_fast, prof, cut, 0.0, (0.02, 0.2))
    assert math.isfinite(rep.lhs) and rep.lhs > 0.0
    assert math.isfinite(rep.gamma_min)
    assert rep.rhs_terms["time"] > 0.0


def test_caccioppoli_nonzero_inhomogeneity_terms(run_1d_fast):
    cut, prof = _cutoff_1d()
    k = 0.25 * run_1d_fast.initial.sup()
    rep = caccioppoli_report(run_1d_fast, prof, cut, k, (0.02, 0.2), C=0.5)
    assert rep.rhs_terms["inhomogeneity"] > 0.0


@pytest.mark.parametrize("C", [math.nan, math.inf, -0.5])
def test_caccioppoli_rejects_a_negative_or_non_finite_C(run_1d_fast, C):
    cut, prof = _cutoff_1d()
    with pytest.raises(DomainError, match=f"C must be nonnegative and finite, got {C!r}"):
        caccioppoli_report(run_1d_fast, prof, cut, 0.1, (0.02, 0.2), C=C)


def test_caccioppoli_rejects_exponents_other_than_the_trajectorys(run_1d_fast):
    # the run's p is 1.5; a report once mixed another p into its terms silently
    cut, prof = _cutoff_1d()
    other = af.derive_exponents([1.6], 1)
    other_cut = dataclasses.replace(cut, exponents=other.p)
    for given_prof, given_cut in ((other, cut), (prof, other_cut), (other, other_cut)):
        with pytest.raises(DomainError, match="must be the trajectory's"):
            caccioppoli_report(run_1d_fast, given_prof, given_cut, 0.1, (0.02, 0.2))
    listed = dataclasses.replace(cut, exponents=[1.5])  # the same exponents as a list
    assert caccioppoli_report(run_1d_fast, prof, listed, 0.1, (0.02, 0.2)).applicable


def test_caccioppoli_geometry_errors(run_1d_fast):
    prof = run_1d_fast.exponents
    too_big = CutoffSpec(
        inner=af.CubeSpec((0.0,), (0.5,), "standard", 0.5),
        outer=af.CubeSpec((0.0,), (0.7,), "standard", 0.7),
        exponents=prof.p,
    )
    with pytest.raises(DomainError):
        caccioppoli_report(run_1d_fast, prof, too_big, 0.1, (0.02, 0.2))
    cut, _ = _cutoff_1d()
    with pytest.raises(DomainError):
        caccioppoli_report(run_1d_fast, prof, cut, 0.1, (0.2, 0.02))


# --- guards ---------------------------------------------------------------------------


def _cube(center, half_widths):
    rho = half_widths[0]
    return af.CubeSpec(center, half_widths, "standard", rho)


def _caccioppoli_on_a_tiny_grid():
    """h = 2.5e-301, so h^-p passes 1e308: once a bare OverflowError."""
    grid, prof = af.build_grid([1e-300], [8]), af.derive_exponents([1.5], 1)
    traj = af.Trajectory(grid, prof, 1e-3, np.ones((3, 8)), (0.0, 0.05, 0.1))
    cut = CutoffSpec(af.standard_cube(2e-301, prof), af.standard_cube(5e-301, prof), prof.p)
    return caccioppoli_report(traj, prof, cut, 0.0, (0.0, 0.1))


#: each guard of the lemmas' arguments that no other test reaches: (call, message)
LEMMA_GUARDS = {
    "young conjugate q": (lambda: young_conjugate(1.0), "q must exceed 1, got 1.0"),
    "fast convergence constants": (
        lambda: fast_convergence(0.0, 2.0, 0.5, 0.1, 10), "need C>0, b>1, alpha>0, Y0>=0, n_max>=1"
    ),
    "iteration eps": (
        lambda: iteration_bound(1.0, 1.5, 1.0, 1.0), "eps must lie in (0, 1), got 1.0"
    ),
    "iteration b": (lambda: iteration_bound(0.5, 1.0, 1.0, 1.0), "b must exceed 1, got 1.0"),
    "iteration I": (
        lambda: iteration_bound(0.5, 1.5, -1.0, 1.0), "I must be nonnegative and finite, got -1.0"
    ),
    "iteration M": (
        lambda: iteration_bound(0.5, 1.5, 1.0, math.inf),
        "M must be nonnegative and finite, got inf",
    ),
    "sobolev dimension": (
        lambda: sobolev_ratio(
            af.Field(af.build_grid([0.5] * 3, [4] * 3), np.ones(64), 0.0),
            af.derive_exponents([1.4, 1.6], 2), 0.1, 1.0, 1.0,
        ),
        "profile dimension 2 != grid dimension 3",
    ),
    "cutoff dimension": (
        lambda: CutoffSpec(_cube((0.0,), (0.1,)), _cube((0.0, 0.0), (0.2, 0.2)), (1.5,)),
        "cutoff cubes and exponents must share one dimension",
    ),
    "cutoff centers": (
        lambda: CutoffSpec(_cube((0.1,), (0.1,)), _cube((0.0,), (0.3,)), (1.5,)),
        "cutoff cubes must be concentric",
    ),
    "caccioppoli float range": (
        _caccioppoli_on_a_tiny_grid,
        "caccioppoli k=0.0 window=[0.0, 0.1]: arithmetic out of float range: OverflowError(",
    ),
}


@pytest.mark.parametrize("case", sorted(LEMMA_GUARDS))
def test_lemma_guards(case):
    call, message = LEMMA_GUARDS[case]
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "k, window, message",
    [
        (-0.1, (0.0, 0.1), "truncation level k must be nonnegative, got -0.1"),
        (math.nan, (0.0, 0.1), "truncation level k must be nonnegative, got nan"),
        (0.1, (0.0, 0.04), "need at least 2 snapshots in window [0.0, 0.04]"),
    ],
)
def test_caccioppoli_level_and_window_guards(zero_traj_1d, k, window, message):
    cut, prof = _cutoff_1d()
    with pytest.raises(DomainError, match=re.escape(message)):
        caccioppoli_report(zero_traj_1d, prof, cut, k, window)
