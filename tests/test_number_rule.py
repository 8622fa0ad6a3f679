"""The number rule: a bool, a numpy bool or a string is no number at any entry point.

`geometry._not_a_number` states the rule once; every public function and method
that takes a `float` or an `int` reaches it and raises the reason as its own
exception.  The walker below finds those parameters in the source, so a new
entry point fails here until it is given a base call.
"""

import ast
import functools
import inspect
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import anisofast as af
from anisofast import cli, harnack, lemmas
from anisofast.errors import ConfigError, DomainError
from test_public_api import _public_definitions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "anisofast"

#: the annotations of a parameter that takes one number
SCALAR = {"float", "int", "Optional[float]", "Optional[int]", "float | None", "int | None"}

#: numbers that no entry point takes: float(True) is 1.0 and float("0.5") is 0.5
NOT_NUMBERS = [True, np.True_, "0.5"]

#: (entry point, parameter) annotated as a number that is no number of the estimates
NOT_CHECKED = {
    ("solver.Grid.axis_centers", "i"): "an axis index, which the tuple indexing judges",
    ("lemmas.CutoffSpec.derivative_bound", "i"): "an axis index, as above",
    ("lemmas.CutoffSpec.axis_ramp", "i"): "an axis index, as above",
    ("cli.cmd_lemmas", "seed"): "seeds numpy's generator, which judges it; argparse reads an int",
}


def _scalar_parameters() -> list[tuple[str, str]]:
    """(module.qualified name, parameter) of each parameter annotated as one number of every
    public function and method, as `test_public_api` finds them."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for qualified, fn in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue  # a class: its constructor's numbers are `test_solver`'s
            for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]:
                if a.annotation and ast.unparse(a.annotation) in SCALAR:
                    found.append((f"{path.stem}.{qualified}", a.arg))
    return found


@functools.cache
def _setting() -> SimpleNamespace:
    """The profile, fields, trajectory and cubes the calls below share."""
    grid, prof = af.build_grid([0.5], [32]), af.derive_exponents([1.5], 1)
    field = af.init_field(grid, af.InitialProfile("bump"))
    rows = field.values * np.array([[1.0], [0.5], [0.0]])  # extinct at t = 0.2
    traj, cube = af.Trajectory(grid, prof, 1e-2, rows, (0.0, 0.1, 0.2)), af.standard_cube(0.1, prof)
    return SimpleNamespace(
        prof=prof, field=field, traj=traj, cube=cube,
        cutoff=af.CutoffSpec(af.standard_cube(0.05, prof), cube, prof.p),
        plane=af.init_field(af.build_grid([0.5, 0.5], [8, 8]), af.InitialProfile("bump")),
    )


def _entry(function, *args, error=DomainError, **words):
    """A base call: the function, its valid arguments, the type it raises (str: it returns
    the reason), and the words of each parameter whose fault is not "<name> must be a
    number"."""
    return function, args, error, words


@functools.cache
def _base_calls() -> dict:
    """{entry point: _entry(...)}, one valid call per entry point."""
    s = _setting()
    prof, field, traj, cube = s.prof, s.field, s.traj, s.cube
    check = (traj, 0.1, 0.1)
    return {
        "extinction.detect_extinction": _entry(af.detect_extinction, traj, 1e-3),
        "extinction.decay_samples": _entry(af.decay_samples, traj, 0.1, 0.2, 1e-3),
        "extinction.decay_reports": _entry(af.decay_reports, traj, 0.1, 1e-3),
        "geometry.ExponentProfile.lam_r": _entry(prof.lam_r, 2.0),
        "geometry.ExponentProfile.lam_ir": _entry(prof.lam_ir, 2.0),
        "geometry.derive_exponents": _entry(
            af.derive_exponents, [1.5], 1, N="dimension must be a number"
        ),
        "geometry.nu": _entry(af.nu, 0.1, 0.1, prof),
        "geometry.nu_sigma": _entry(af.nu_sigma, 0.1, 0.1, prof),
        "geometry.intrinsic_cube": _entry(af.intrinsic_cube, 0.1, 0.1, prof),
        "geometry.standard_cube": _entry(af.standard_cube, 0.1, prof),
        "geometry.scale_cube": _entry(af.scale_cube, cube, 2.0, a="scale factor must be a number"),
        "geometry.smallness_violated": _entry(
            af.smallness_violated, 0.5, 0.1, 0.1, prof, "intrinsic"
        ),
        "harnack.gamma_min": _entry(af.gamma_min, 1.0, [1.0]),
        "harnack.cube_integral": _entry(af.cube_integral, field, cube, 2.0),
        "harnack.time_extremal": _entry(af.time_extremal, traj, cube, (0.0, 0.1), "sup_lr", 2.0),
        "harnack.Inequality.r_violation": _entry(
            harnack.CHECKS["lr_sup"].r_violation, 2.0, error=str
        ),
        "harnack.check_l1l1": _entry(af.check_l1l1, *check),
        "harnack.check_l1linf": _entry(af.check_l1linf, *check),
        "harnack.check_lr_sup": _entry(af.check_lr_sup, *check, 2.0),
        "harnack.check_lr_backward": _entry(af.check_lr_backward, *check, 2.0),
        "harnack.check_backwards_composite": _entry(af.check_backwards_composite, *check, 2.0),
        "lemmas.young_gamma": _entry(af.young_gamma, 0.5, 2.0),
        "lemmas.young_conjugate": _entry(lemmas.young_conjugate, 2.0),
        "lemmas.fast_convergence": _entry(af.fast_convergence, 1.0, 2.0, 0.5, 0.1, 10),
        "lemmas.iteration_bound": _entry(af.iteration_bound, 0.5, 1.5, 1.0, 1.0),
        "lemmas.sobolev_ratio": _entry(
            af.sobolev_ratio, s.plane, af.derive_exponents([1.5, 1.5], 2), 0.2, 1.0, 1.0
        ),
        "lemmas.caccioppoli_report": _entry(
            af.caccioppoli_report, traj, prof, s.cutoff, 0.1, (0.0, 0.2)
        ),
        "solver.stable_dt": _entry(af.stable_dt, field, prof, 1e-2),
        "solver.advance": _entry(af.advance, field, prof, 1e-2, 1e-6),
        "solver.uniform_snapshots": _entry(  # a count is an integer, in its own words
            af.uniform_snapshots, 0.1, 3, error=ConfigError,
            count="snapshot count must be an integer",
        ),
        "solver.Trajectory.window": _entry(traj.window, 0.0, 0.1),
    }


def _cases():
    return [
        pytest.param(entry, parameter, bad, id=f"{entry}-{parameter}-{bad!r}")
        for entry, parameter in _scalar_parameters()
        if (entry, parameter) not in NOT_CHECKED
        for bad in NOT_NUMBERS
    ]


def test_every_entry_point_that_takes_a_number_has_a_base_call():
    # a new public function or method with a float or int parameter fails here
    scalars = set(_scalar_parameters())
    checked = {entry for entry, _ in scalars - set(NOT_CHECKED)}
    assert sorted(checked - set(_base_calls())) == []
    assert sorted(set(_base_calls()) - checked) == []  # no call for what is gone
    assert sorted(set(NOT_CHECKED) - scalars) == []


@pytest.mark.parametrize("entry", sorted(_base_calls()))
def test_every_base_call_is_valid(entry):
    function, args, error, _ = _base_calls()[entry]
    result = function(*args)  # raises nothing
    if error is str:
        assert result == ""


@pytest.mark.parametrize("entry, parameter, bad", _cases())
def test_entry_point_refuses_what_is_no_number(entry, parameter, bad):
    function, args, error, words = _base_calls()[entry]
    bound = inspect.signature(function).bind(*args)
    bound.apply_defaults()
    bound.arguments[parameter] = bad
    message = f"{words.get(parameter, f'{parameter} must be a number')}, got {bad!r}"
    if error is str:
        assert function(*bound.args, **bound.kwargs) == message
        return
    with pytest.raises(error) as excinfo:
        function(*bound.args, **bound.kwargs)
    found = excinfo.value.violations if error is ConfigError else [str(excinfo.value)]
    assert found == [message]


def test_the_number_rule_is_stated_once():
    # one sentence in src/, and one name for the bools that only the rule and the CSV
    # formatter read: no hand-written guard can come back unseen
    texts = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert sum(text.count("must be a number") for text in texts.values()) == 1
    readers = set()  # where a read of the name sits: a top-level function or class, or
    for stem, text in texts.items():  # <module> for the other top-level statements
        for node in ast.parse(text).body:
            if any(
                isinstance(n, ast.Name) and n.id == "_BOOLS" and isinstance(n.ctx, ast.Load)
                for n in ast.walk(node)
            ):
                readers.add(f"{stem}.{getattr(node, 'name', '<module>')}")
    assert readers == {"geometry._not_a_number", "cli._fmt"}
    assert not re.search(r"_BOOL_TYPES|_refuse_bools|_is_real", "".join(texts.values()))


@pytest.mark.parametrize(
    "call, error, words",
    [
        (lambda s: af.gamma_min("0.5", [1.0]), DomainError, "lhs must be a number, got '0.5'"),
        (
            lambda s: af.gamma_min(1.0, ["0.5"]),
            DomainError,
            "rhs term 0 must be a number, got '0.5'",
        ),
        (
            lambda s: af.time_extremal(s.traj, s.cube, (0.0, "0.5"), "sup_l1"),
            DomainError,
            "window end must be a number, got '0.5'",
        ),
        (
            lambda s: af.caccioppoli_report(s.traj, s.prof, s.cutoff, 0.1, ("0", 0.2)),
            DomainError,
            "window start must be a number, got '0'",
        ),
        (
            lambda s: af.build_grid([0.5], ["32"]),
            ConfigError,
            "resolution must be an integer per axis, got '32'",
        ),
        (
            lambda s: af.build_grid(["abc"], [32]),
            ConfigError,
            "half_domain entry must be a number, got 'abc'",
        ),
        (
            lambda s: af.build_grid([None], [32]),
            ConfigError,
            "half_domain entry must be a number, got None",
        ),
        (
            lambda s: af.derive_exponents(["1.5", 1.5], 2),
            DomainError,
            "exponent must be a number, got '1.5'",
        ),
        (
            lambda s: af.derive_exponents([True, 1.5], 2),
            DomainError,
            "exponent must be a number, got True",
        ),
        (
            lambda s: af.derive_exponents([1.5], True),
            DomainError,
            "dimension must be a number, got True",
        ),
        (lambda s: lemmas.young_conjugate(True), DomainError, "q must be a number, got True"),
        (
            lambda s: af.smallness_violated(0.0, "0.1", 0.1, s.prof, "intrinsic"),
            DomainError,
            "rho must be a number, got '0.1'",
        ),
        (
            lambda s: af.SimConfig(
                af.build_grid([0.5], [32]), af.InitialProfile("bump"), s.prof, eps=0.01,
                t_end=0.1, snapshot_times=("0", 0.1),
            ),
            ConfigError,
            "snapshot times must be numbers, got ('0', 0.1)",
        ),
        (
            lambda s: af.SimConfig(
                af.build_grid([0.5], [32]), af.InitialProfile("bump"), s.prof, eps="0.01",
                t_end=0.1,
            ),
            ConfigError,
            "eps must be a number, got '0.01'",
        ),
        (
            lambda s: af.InitialProfile("bump", amplitude="1"),
            ConfigError,
            "amplitude must be a number, got '1'",
        ),
        (
            lambda s: af.uniform_snapshots("1.0", 3),
            ConfigError,
            "t_end must be a number, got '1.0'",
        ),
    ],
    ids=[
        "gamma_min-lhs", "gamma_min-rhs_term", "time_extremal-window", "caccioppoli-window",
        "build_grid-text_resolution", "build_grid-text_half_domain", "build_grid-none",
        "derive_exponents-text", "derive_exponents-bool", "derive_exponents-dimension",
        "young_conjugate", "smallness_violated-zero_C", "SimConfig-snapshot_times",
        "SimConfig-eps", "InitialProfile-amplitude", "uniform_snapshots-t_end",
    ],
)
def test_former_leaks_follow_the_rule(call, error, words):
    # each read text as a number, let a raw Python error out or took True for 1
    with pytest.raises(error) as excinfo:
        call(_setting())
    found = excinfo.value.violations if error is ConfigError else [str(excinfo.value)]
    assert found == [words]


def test_a_check_option_of_text_is_a_violation():
    # float("0.5") is 0.5, and the r rule compared text with a float
    assert harnack.option_violations("lr_sup", {"r": "0.5"}) == ["r must be a number, got '0.5'"]
    assert harnack.option_violations("l1l1", {"rho": "0.1", "C": None}) == [
        "rho must be a number, got '0.1'",
        "C must be a number, got None",
    ]


def test_config_text_still_reads_as_numbers():
    # the config and the manifest hold text: parsing it is `_real`'s job
    config = cli.parse_config(
        "[simulation]\np = 1.5\nhalf_domain = 0.5\nresolution = 32\nt_end = 0.01\n"
        "[analysis]\ncheck = lr_sup rho=0.1 t=0.01 r=2\n"
    )
    assert config.sim.grid.resolution == (32,) and config.checks[0].r == 2.0


@pytest.mark.parametrize("n_max", [2.5, np.nan, np.inf])
def test_fast_convergence_refuses_a_count_that_is_no_integer(n_max):
    # range(2.5) raised "'float' object cannot be interpreted as an integer"
    with pytest.raises(DomainError, match=f"^n_max must be an integer, got {n_max!r}$"):
        af.fast_convergence(1.0, 2.0, 0.5, 0.1, n_max)


def test_fast_convergence_reads_an_integral_float_as_a_count():
    # as uniform_snapshots reads 3.0 as 3 snapshots
    converge = (1.0, 2.0, 0.5, 0.1)  # C, b, alpha, Y0
    assert af.fast_convergence(*converge, 3.0) == af.fast_convergence(*converge, 3)
