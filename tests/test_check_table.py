"""The table of Harnack-type checks: pinned values, the order rule of each row,
and the checker names the benchmark traces."""

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import anisofast as af
from anisofast import cli, harnack
from anisofast.errors import DomainError

GEOMETRIES = ("intrinsic", "standard")

# the public checker of each kind; r is passed only to those that take one
CHECKERS = {
    "l1l1": lambda traj, rho, t, r, g: af.check_l1l1(traj, rho, t, g),
    "l1linf": lambda traj, rho, t, r, g: af.check_l1linf(traj, rho, t, g),
    "lr_sup": lambda traj, rho, t, r, g: af.check_lr_sup(traj, rho, t, r, g),
    "lr_backward": lambda traj, rho, t, r, g: af.check_lr_backward(traj, rho, t, r, g),
    "composite": lambda traj, rho, t, r, g: af.check_backwards_composite(traj, rho, t, r, g),
}

# Recorded with the five hand-written checkers that preceded the table, C = 0:
# fixture -> ((rho, t, r), one (theorem, lhs, rhs terms in order, gamma_min)
# per kind of CHECKERS and geometry, in that order).
PINNED = {
    "run_2d_aniso": (
        (0.13, 0.06, 2.0),
        [
            (
                "L1L1_intrinsic",
                0.057639174244884565,
                {"inf_doubled": 0.013299221056956516, "scaling": 0.02678418910106853},
                1.4379808009759545,
            ),
            (
                "L1L1_standard",
                0.057869474629363635,
                {"inf_doubled": 0.013503384524390013, "scaling_sum": 0.05521641276113902},
                0.8421077610127023,
            ),
            (
                "L1Linf_intrinsic",
                0.25275165201884514,
                {"harnack": 0.17949457050123005, "scaling": 1.584863260418257},
                0.14325419004552198,
            ),
            (
                "L1Linf_standard",
                0.25275165201884514,
                {
                    "harnack": 0.18820699699649832,
                    "scaling_weighted_sum": 3.5905126710531174,
                    "scaling_sum": 3.2672433586472795,
                },
                0.03587183910292722,
            ),
            (
                "LrLinf_sup",
                0.25275165201884514,
                {"mean_term": 0.6273770986343616, "scaling": 1.584863260418257},
                0.11425144242784036,
            ),
            (
                "LrLinf_sup_standard",
                0.25275165201884514,
                {"mean_term": 0.6304862332327322, "scaling_sum": 3.2672433586472795},
                0.06484586630775845,
            ),
            (
                "Lr_backward_intrinsic",
                0.04990039739896514,
                {"initial_doubled": 0.07797020965393857, "scaling": 0.04244927726637862},
                0.4143880585704932,
            ),
            (
                "Lr_backward_standard",
                0.05022743970329596,
                {"initial_doubled": 0.07831996310692016, "scaling_sum": 0.09104989252485521},
                0.29655477662149476,
            ),
            (
                "Backwards_composite_intrinsic",
                0.25275165201884514,
                {"initial_term": 2.510844270896125, "scaling": 1.584863260418257},
                0.06171135269947678,
            ),
            (
                "Backwards_composite_standard",
                0.25275165201884514,
                {
                    "initial_term": 2.519362961281056,
                    "scaling_weighted_sum": 3.330597969872907,
                    "scaling_sum": 3.2672433586472795,
                },
                0.02772249518436042,
            ),
        ],
    ),
    "zero_traj_1d": (
        (0.1, 0.05, 1.5),
        [
            ("L1L1_intrinsic", 0.0, {"inf_doubled": 0.0, "scaling": 0.25}, 0.0),
            ("L1L1_standard", 0.0, {"inf_doubled": 0.0, "scaling_sum": 0.25}, 0.0),
            ("L1Linf_intrinsic", 0.0, {"harnack": 0.0, "scaling": 2.4999999999999996}, 0.0),
            (
                "L1Linf_standard",
                0.0,
                {
                    "harnack": 0.0,
                    "scaling_weighted_sum": 2.4999999999999996,
                    "scaling_sum": 2.4999999999999996,
                },
                0.0,
            ),
            ("LrLinf_sup", 0.0, {"mean_term": 0.0, "scaling": 2.4999999999999996}, 0.0),
            (
                "LrLinf_sup_standard",
                0.0,
                {"mean_term": 0.0, "scaling_sum": 2.4999999999999996},
                0.0,
            ),
            (
                "Lr_backward_intrinsic",
                0.0,
                {"initial_doubled": 0.0, "scaling": 0.39528470752104744},
                0.0,
            ),
            (
                "Lr_backward_standard",
                0.0,
                {"initial_doubled": 0.0, "scaling_sum": 0.39528470752104744},
                0.0,
            ),
            (
                "Backwards_composite_intrinsic",
                0.0,
                {"initial_term": 0.0, "scaling": 2.4999999999999996},
                0.0,
            ),
            (
                "Backwards_composite_standard",
                0.0,
                {
                    "initial_term": 0.0,
                    "scaling_weighted_sum": 2.4999999999999996,
                    "scaling_sum": 2.4999999999999996,
                },
                0.0,
            ),
        ],
    ),
}


def _close(value, expected):
    return value == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("fixture", sorted(PINNED))
def test_checker_values_pinned(fixture, request):
    traj = request.getfixturevalue(fixture)
    (rho, t, r), expected = PINNED[fixture]
    reports = [CHECKERS[kind](traj, rho, t, r, g) for kind in CHECKERS for g in GEOMETRIES]
    for rep, (theorem, lhs, terms, gamma) in zip(reports, expected, strict=True):
        assert rep.applicable and rep.theorem == theorem
        assert list(rep.rhs_terms) == list(terms), theorem
        assert _close(rep.lhs, lhs), theorem
        for name, value in terms.items():
            assert _close(rep.rhs_terms[name], value), (theorem, name)
        assert _close(rep.gamma_min, gamma), theorem


def test_not_applicable_rows_pinned():
    # lam = 2(1.1 - 2) + 1.1 = -0.7 and lam_r(1.5) = -1.8 + 1.65 = -0.15
    prof = af.derive_exponents([1.1, 1.1], 2)
    grid = af.build_grid([0.5, 0.5], [8, 8], "dirichlet_zero")
    traj = af.Trajectory(grid, prof, 1e-3, np.zeros((2, 64)), (0.0, 0.1))
    expected = [
        ("l1linf", ("L1Linf_intrinsic", "L1Linf_standard"), "lam=-0.7 <= 0 (subcritical range)"),
        ("lr_sup", ("LrLinf_sup", "LrLinf_sup_standard"), "lam_r=-0.15 <= 0"),
        (
            "composite",
            ("Backwards_composite_intrinsic", "Backwards_composite_standard"),
            "lam_r=-0.15 <= 0",
        ),
    ]
    for kind, theorems, reason in expected:
        for g, theorem in zip(GEOMETRIES, theorems):
            rep = CHECKERS[kind](traj, 0.1, 0.1, 1.5, g)
            assert rep.theorem == theorem and not rep.applicable
            assert rep.reason == reason
            assert math.isnan(rep.lhs) and math.isnan(rep.gamma_min)
            assert rep.rhs_terms == {}
            assert rep.params.get("r") == (None if kind == "l1linf" else 1.5)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("kind", sorted(CHECKERS))
def test_any_p_equal_to_2_is_not_applicable(kind, geometry):
    # p = (1.5, 2): lam and lam_r(2) are positive, so only the p_i < 2 condition fails
    prof = af.derive_exponents([1.5, 2.0], 2)
    grid = af.build_grid([0.5, 0.5], [16, 16], "dirichlet_zero")
    bump = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.3)).values
    times = (0.0, 0.05, 0.1)
    traj = af.Trajectory(grid, prof, 1e-3, [(1.0 - t) * bump for t in times], times)
    rep = CHECKERS[kind](traj, 0.1, 0.1, 2.0, geometry)
    theorems = harnack.CHECKS[kind].theorems
    assert rep.theorem == theorems[GEOMETRIES.index(geometry)] and not rep.applicable
    assert rep.reason == "Harnack inequalities need all p_i < 2"
    assert math.isnan(rep.lhs) and math.isnan(rep.gamma_min)
    assert rep.rhs_terms == {}


@pytest.mark.parametrize(
    "kind, r, message",
    [
        ("lr_sup", 0.5, "r must be >= 1, got 0.5"),
        ("lr_backward", 1.0, "r must exceed 1, got 1.0"),
        ("composite", 1.0, "r must exceed 1, got 1.0"),
        ("lr_sup", math.inf, "r must be finite, got inf"),
        ("lr_backward", math.inf, "r must be finite, got inf"),
        ("composite", math.nan, "r must be finite, got nan"),
    ],
)
def test_order_rule_is_the_checkers_error(zero_traj_1d, kind, r, message):
    assert harnack.CHECKS[kind].r_violation(r) == message
    with pytest.raises(DomainError, match=re.escape(message)):
        CHECKERS[kind](zero_traj_1d, 0.1, 0.05, r, "intrinsic")


def test_check_kinds_come_from_the_table():
    assert cli.CHECK_KINDS == tuple(harnack.CHECKS) == tuple(CHECKERS)


# --- the names the benchmark traces ---------------------------------------------

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _bench_check_functions() -> dict:
    """bench/run.py's CHECK_KINDS (traced function name -> kind), read with ast."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "CHECK_KINDS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{BENCH_RUN} assigns no CHECK_KINDS")


def test_bench_traced_names_are_public_harnack_functions():
    functions = _bench_check_functions()
    for name in functions:
        fn = getattr(harnack, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), name
        assert fn.__module__ == harnack.__name__, name
    assert sorted(functions.values()) == sorted(cli.CHECK_KINDS)


def test_analyze_calls_by_name_the_functions_the_bench_traces():
    functions = _bench_check_functions()
    assert cli._CHECK_FUNCTIONS == {kind: name for name, kind in functions.items()}
    assert list(cli._CHECK_FUNCTIONS) == list(harnack.CHECKS)


def test_analyze_reaches_each_check_through_the_harnack_module(tmp_path, monkeypatch):
    functions = _bench_check_functions()
    calls = dict.fromkeys(functions, 0)
    checks = []
    for name, kind in functions.items():
        original = getattr(harnack, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harnack, name, counting)
        order = " r=2" if "r" in inspect.signature(original).parameters else ""
        checks.append(f"check = {kind} rho=0.1 t=0.02{order}")
    out = tmp_path / "traced"
    text = "\n".join(
        [
            "[simulation]",
            "p = 1.5",
            "half_domain = 0.5",
            "resolution = 32",
            "t_end = 0.02",
            "snapshots = 5",
            "[analysis]",
            *checks,
            "[output]",
            f"directory = {out}",
        ]
    )
    cfg = cli.parse_config(text)
    cli.cmd_analyze(cli.cmd_run(cfg, str(out)), cfg)
    assert calls == dict.fromkeys(functions, 1)


# --- one analyze call measures each cube reduction once --------------------------

CHECK_FUNCTIONS = {
    "l1l1": af.check_l1l1,
    "l1linf": af.check_l1linf,
    "lr_sup": af.check_lr_sup,
    "lr_backward": af.check_lr_backward,
    "composite": af.check_backwards_composite,
}

# (kind, geometry, rho, t): every kind at one (rho, t) in both geometries, then
# the standard geometry again at a second t
ONE_POINT = [(kind, g, 0.1, 0.05) for kind in CHECK_FUNCTIONS for g in GEOMETRIES]
SECOND_T = [(kind, "standard", 0.1, 0.07) for kind in CHECK_FUNCTIONS]


def _small_trajectory(scale=1.0):
    """A 2D 24x20 bump decaying over 21 snapshots, with seeded noise per row."""
    prof = af.derive_exponents([1.4, 1.6], 2)
    grid = af.build_grid([0.5, 0.5], [24, 20], "dirichlet_zero")
    X, Y = np.meshgrid(grid.axis_centers(0), grid.axis_centers(1), indexing="ij")
    bump = np.maximum(0.09 - X**2 - Y**2, 0.0).ravel()
    times = np.linspace(0.0, 0.1, 21)
    noise = np.random.default_rng(5).random((len(times), grid.n_cells))
    values = scale * ((1.0 - 5.0 * times[:, None]) * bump + 1e-3 * noise)
    return af.Trajectory(grid, prof, 0.02, values, tuple(times))


def _check(traj, kind, geometry, rho, t):
    order = () if harnack.CHECKS[kind].r_min is None else (2.0,)
    return CHECK_FUNCTIONS[kind](traj, rho, t, *order, geometry)


def _fresh(traj):
    """A new trajectory over the same array: the same rows, no kept measurements."""
    return af.Trajectory(traj.grid, traj.exponents, traj.eps, traj.values, traj.times)


def _assert_same_report(got, want):
    """Field by field, bit for bit; repr makes NaN equal to NaN."""
    for name in vars(want):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), (want.theorem, name)


def _count_reductions(monkeypatch) -> list:
    """Record every private cube reduction as (function, cube, first row, rows, r)."""
    calls = []
    for name in ("_cube_integrals", "_cube_sups"):
        original = getattr(harnack, name)

        def counting(grid, rows, cube, *r, _name=name, _original=original):
            calls.append((_name, cube, rows.__array_interface__["data"][0], len(rows), *r))
            return _original(grid, rows, cube, *r)

        monkeypatch.setattr(harnack, name, counting)
    return calls


def test_shared_cache_measures_each_reduction_once(monkeypatch):
    traj = _small_trajectory()
    calls = _count_reductions(monkeypatch)
    counts = {}
    for label, checked in (("fresh", _fresh), ("shared", lambda t: t)):
        calls.clear()
        reports = [_check(checked(traj), *point) for point in ONE_POINT]
        at_one_point = len(calls)
        reports += [_check(checked(traj), *point) for point in SECOND_T]
        counts[label] = (at_one_point, len(calls), set(calls), reports)
    fresh, shared = counts["fresh"], counts["shared"]
    for got, want in zip(shared[3], fresh[3], strict=True):
        assert got.applicable
        _assert_same_report(got, want)
    # the standard K_2rho does not depend on t: its u_0^r integral is shared too
    assert fresh[:2] == (20, 30) and shared[:2] == (10, 14)
    assert shared[2] == fresh[2] and len(shared[2]) == shared[1]


def test_cache_never_serves_another_trajectory():
    first, second = _small_trajectory(), _small_trajectory(scale=2.0)
    for traj, other in ((first, second), (second, first), (first, second)):
        for point in ONE_POINT + SECOND_T:
            got = _check(traj, *point)
            _assert_same_report(got, _check(_fresh(traj), *point))
            assert got.lhs != _check(_fresh(other), *point).lhs


# --- one statement of the options' rules, for the parser and the checkers --------

# (option, value as a config writes it, the rule that value breaks)
BAD_OPTIONS = [
    *[
        (name, value, f"{name} must be positive and finite, got {float(value)!r}")
        for name in ("rho", "t")
        for value in ("0", "-1", "nan", "inf")
    ],
    *[
        ("C", value, f"C must be nonnegative and finite, got {float(value)!r}")
        for value in ("-1", "nan", "inf")
    ],
    ("geometry", "bogus", "geometry must be one of ('intrinsic', 'standard'), got 'bogus'"),
]

# each kind's bad orders r, and the rule each breaks
BAD_ORDERS = {
    "l1l1": [("2", "r is not an option (r = 1 is implied), got 2.0")],
    "l1linf": [("1", "r is not an option (r = 1 is implied), got 1.0")],
    "lr_sup": [("0.5", "r must be >= 1, got 0.5"), ("inf", "r must be finite, got inf")],
    "lr_backward": [("1", "r must exceed 1, got 1.0"), ("nan", "r must be finite, got nan")],
    "composite": [("0.9", "r must exceed 1, got 0.9"), ("inf", "r must be finite, got inf")],
}


def _bump_trajectory_1d(p: float):
    """A 1D bump on 16 cells that decays linearly over t = 0, 0.05 and 0.1."""
    grid = af.build_grid([0.5], [16], "dirichlet_zero")
    bump = af.init_field(grid, af.InitialProfile("bump", 1.0, 0.3)).values
    times = (0.0, 0.05, 0.1)
    rows = [(1.0 - t) * bump for t in times]
    return af.Trajectory(grid, af.derive_exponents([p], 1), 1e-3, rows, times)


def _parse_violations(p: float, kind: str, options: dict) -> list:
    text = "\n".join([
        "[simulation]", f"p = {p}", "half_domain = 0.5", "resolution = 16", "t_end = 0.1",
        "[analysis]", f"check = {kind} " + " ".join(f"{k}={v}" for k, v in options.items()),
    ])
    with pytest.raises(cli.ConfigError) as excinfo:
        cli.parse_config(text)
    return excinfo.value.violations


@pytest.mark.parametrize("kind", sorted(CHECKERS))
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_parser_and_checkers_reject_the_same_values_with_the_same_rule(p, kind):
    # the rules hold on every trajectory, also where p = 2 makes the check
    # not applicable, and parse_config states each as the checker does
    traj = _bump_trajectory_1d(p)
    valid = {"geometry": "intrinsic", "rho": "0.1", "t": "0.05", "C": "0"}
    if harnack.CHECKS[kind].r_min is not None:
        valid["r"] = "2"

    def call(options):
        args = {k: v if k == "geometry" else float(v) for k, v in options.items()}
        return CHECK_FUNCTIONS[kind](traj, **args)

    report = call(valid)
    assert report.applicable == (p < 2.0)
    assert report.reason == ("" if p < 2.0 else "Harnack inequalities need all p_i < 2")
    cases = list(BAD_OPTIONS)
    cases += [("r", value, rule) for value, rule in BAD_ORDERS[kind]]
    for name, value, rule in cases:
        options = valid | {name: value}
        assert _parse_violations(p, kind, options) == [f"check {kind!r}: {rule}"], (name, value)
        if name in valid:  # l1l1 and l1linf take no r: only a config can give one
            with pytest.raises(DomainError) as excinfo:
                call(options)
            assert str(excinfo.value) == rule, (name, value)
    # every broken rule at once, in the table's order, in one error
    worst = {"geometry": "bogus", "rho": "-1", "t": "nan", "r": "0.5", "C": "inf"}
    rules = [
        "geometry must be one of ('intrinsic', 'standard'), got 'bogus'",
        "rho must be positive and finite, got -1.0",
        "t must be positive and finite, got nan",
        harnack.CHECKS[kind].r_violation(0.5),
        "C must be nonnegative and finite, got inf",
    ]
    assert _parse_violations(p, kind, worst) == [f"check {kind!r}: {rule}" for rule in rules]
    if "r" not in valid:
        del worst["r"], rules[3]
    with pytest.raises(DomainError) as excinfo:
        call(worst)
    assert str(excinfo.value) == "; ".join(rules)
