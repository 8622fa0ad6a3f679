"""The number rule: a bool, a numpy bool, a string or an int past 1e308 is no number at any
entry point; and the range rule: NaN and +-inf are out of the range of every number of the
estimates.

`geometry._not_a_number` states the number rule once, and `geometry._violation` the range
rule, in one form ("<name> must <rule>, got <value>", a numpy value shown as the equal Python
number); every public function, method and dataclass constructor that takes a number, or a
sequence of numbers, reaches them and raises the reason as its own exception.  The walker
below finds those parameters and fields in the source, so a new entry point fails here until
it is given a base call, and a new float parameter until it is guarded or listed in
NOT_RANGED; the second, over the text readers, finds each number of a config, of its checks
and of a manifest in the program itself.
"""

import ast
import functools
import importlib
import inspect
import itertools
import json
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import anisofast as af
from anisofast import cli, geometry, harnack, lemmas
from anisofast.errors import ConfigError, DomainError, IngestionError
from anisofast.geometry import _real
from test_public_api import _public_definitions

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "anisofast"

#: the annotations of a parameter that takes one number
SCALAR = {"float", "int", "Optional[float]", "Optional[int]", "float | None", "int | None"}

#: the annotations of a parameter that takes numbers: each entry is judged as one
SEQUENCE = {"Sequence[float]", "Sequence[int]", "Iterable[float]", "tuple[float, float]",
            "tuple[float, ...]", "tuple[int, ...]"}
PAIRS = {"Sequence[tuple[float, float]]"}  # of pairs of numbers: each coordinate is judged
NUMBERS = SCALAR | SEQUENCE | PAIRS

HUGE = 10**400  # float() cannot convert it, so no float parameter takes it

#: numbers that no entry point takes: float(True) is 1.0 and float("0.5") is 0.5
NOT_NUMBERS = [True, False, np.True_, np.False_, "0.5"]

#: entry points, or (entry point, parameter), whose numbers are no numbers of the estimates
NOT_CHECKED = {
    ("solver.Grid.axis_centers", "i"): "an axis index, which the tuple indexing judges",
    ("lemmas.CutoffSpec.derivative_bound", "i"): "an axis index, as above",
    ("lemmas.CutoffSpec.axis_ramp", "i"): "an axis index, as above",
    ("cli.cmd_lemmas", "seed"): "seeds numpy's generator, which judges it; argparse reads an int",
    # the records the package builds itself, of numbers it has judged or computed
    "geometry.ExponentProfile": "derive_exponents builds it",
    "solver.Grid": "build_grid builds it",
    "extinction.PowerLawFit": "fit_power_law's result",
    "extinction.DecayReport": "decay_reports' result",
    "harnack.InequalityReport": "a check's result",
    "lemmas.SequenceLemmaResult": "fast_convergence's result",
    "cli.CampaignConfig": "parse_config builds it from the config it has judged",
}

#: what no number of the estimates is; `np.float64(nan)` must be named as `nan` is, and the
#: case compares it word for word with the float's
NOT_FINITE = [np.inf, -np.inf, np.float64(np.nan)]

#: (entry point, float parameter) that takes or judges a value the range rule would refuse
NOT_RANGED = {
    ("geometry.ExponentProfile.lam_r", "r"): "a formula input, not a number of the estimates",
    ("geometry.ExponentProfile.lam_ir", "r"): "a formula input, as above",
    ("geometry.derive_exponents", "p_list"): "keeps its own words: exponent out of (1, 2]",
    ("lemmas.CutoffSpec", "exponents"): "the trajectory's; caccioppoli_report takes no others",
    ("extinction.fit_power_law", "points"): "judged as one array: strictly positive finite points",
}

#: the name the range rule gives a parameter whose number fault has words of its own
RANGE_NAMES = {("solver.SimConfig", "snapshot_times"): "snapshot time"}

#: the words of each range rule, with the (entry point, parameter) pairs it judges, or a
#: parameter name for every entry point (a pair comes first); any other must "be positive
#: and finite"
RANGE_WORDS = {
    "be nonnegative and finite": {
        "C", "Y0", "I", "M", "k", "lhs", "rhs_terms", "amplitude", "t_end",
    },
    "be finite": {
        "center", "time", "times", "snapshot_times", "mass_drift", "min_value", "t_star",
        "window", "t_a", "t_b",
    },
    "exceed 1 and be finite": {"q", "b", "r"},
    "be >= 1 and finite": {
        ("harnack.cube_integral", "r"), ("harnack.time_extremal", "r"),
        ("harnack.check_lr_sup", "r"), ("harnack.Inequality.r_violation", "r"),  # lr_sup's row
    },
    "be positive and finite": {("lemmas.fast_convergence", "C")},
    "lie in (0, 1]": {"safety"},
    "lie in (0, 1)": {("lemmas.iteration_bound", "eps")},
    "lie in [0, p_bar/p*] = [0, 0.25]": {"theta"},  # of the walker's 2D profile
    "lie in [1, p*] = [1, 6]": {"sigma"},
}
_WORDS = {at: words for words, pairs in RANGE_WORDS.items() for at in pairs}


def _range_words(entry: str, parameter: str) -> str:
    return _WORDS.get((entry, parameter), _WORDS.get(parameter, "be positive and finite"))


def _number_parameters():
    """(module.qualified name, parameter, annotation) of each parameter annotated as one
    number or a sequence of numbers, of every public function and method and of every
    public dataclass's constructor (its public fields), as `test_public_api` finds them."""
    for path in sorted(SRC.glob("*.py")):
        for qualified, node in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = ast.walk(node.args)
                named = [(a.arg, a.annotation) for a in args if isinstance(a, ast.arg)]
            elif any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                named = [(f.target.id, f.annotation) for f in node.body
                         if isinstance(f, ast.AnnAssign) and not f.target.id.startswith("_")]
            else:
                named = []
            yield from ((f"{path.stem}.{qualified}", name, text) for name, annotation in named
                        if annotation and (text := ast.unparse(annotation)) in NUMBERS)


@functools.cache
def _setting() -> SimpleNamespace:
    """The profile, fields, trajectory and cubes the calls below share."""
    grid, prof = af.build_grid([0.5], [32]), af.derive_exponents([1.5], 1)
    field = af.init_field(grid, af.InitialProfile("bump"))
    rows = field.values * np.array([[1.0], [0.5], [0.0]])  # extinct at t = 0.2
    traj, cube = af.Trajectory(grid, prof, 1e-2, rows, (0.0, 0.1, 0.2)), af.standard_cube(0.1, prof)
    return SimpleNamespace(
        grid=grid, prof=prof, field=field, rows=rows, traj=traj, cube=cube,
        cutoff=af.CutoffSpec(af.standard_cube(0.05, prof), cube, prof.p),
        plane=af.init_field(af.build_grid([0.5, 0.5], [8, 8]), af.InitialProfile("bump")),
    )


def _entry(function, *args, error=DomainError, **words):
    """(entry point, base call): the function, its valid arguments, the type it raises (str:
    it returns the reason), and the words of each parameter whose fault is not "<name> must
    be a number": the rule's name for it, or the fault of {bad} in {seq}, its sequence."""
    name = f"{function.__module__.rpartition('.')[2]}.{function.__qualname__}"
    return name, (function, args, error, words)


@functools.cache
def _base_calls() -> dict:
    """{entry point: base call}, one valid call per entry point."""
    s = _setting()
    prof, field, traj, cube = s.prof, s.field, s.traj, s.cube
    check, window = (traj, 0.1, 0.1), ("window start", "window end")
    return dict([
        _entry(af.detect_extinction, traj, 1e-3),
        _entry(af.decay_samples, traj, 0.1, 0.2, 1e-3),
        _entry(af.decay_reports, traj, 0.1, 1e-3),
        _entry(prof.lam_r, 2.0),
        _entry(prof.lam_ir, 2.0),
        _entry(af.derive_exponents, [1.5], 1, p_list="exponent", N="dimension"),
        _entry(af.nu, 0.1, 0.1, prof),
        _entry(af.nu_sigma, 0.1, 0.1, prof),
        _entry(af.CubeSpec, (0.0,), (0.1,), "intrinsic", 0.1, 0.1, half_widths="half_width"),
        _entry(af.intrinsic_cube, 0.1, 0.1, prof),
        _entry(af.standard_cube, 0.1, prof),
        _entry(af.scale_cube, cube, 2.0, a="scale factor"),
        _entry(af.smallness_violated, 0.5, 0.1, 0.1, prof, "intrinsic"),
        _entry(af.gamma_min, 1.0, [1.0, 1.0], rhs_terms=("rhs term 0", "rhs term 1")),
        _entry(af.cube_integral, field, cube, 2.0),
        _entry(af.time_extremal, traj, cube, (0.0, 0.1), "sup_lr", 2.0, window=window),
        _entry(harnack.CHECKS["lr_sup"].r_violation, 2.0, error=str),
        _entry(af.check_l1l1, *check),
        _entry(af.check_l1linf, *check),
        _entry(af.check_lr_sup, *check, 2.0),
        _entry(af.check_lr_backward, *check, 2.0),
        _entry(af.check_backwards_composite, *check, 2.0),
        _entry(af.young_gamma, 0.5, 2.0),
        _entry(lemmas.young_conjugate, 2.0),
        _entry(af.fast_convergence, 1.0, 2.0, 0.5, 0.1, 10),
        _entry(af.iteration_bound, 0.5, 1.5, 1.0, 1.0),
        _entry(af.sobolev_ratio, s.plane, af.derive_exponents([1.5, 1.5], 2), 0.2, 1.0, 1.0),
        _entry(af.CutoffSpec, af.standard_cube(0.05, prof), cube, prof.p, exponents="exponent"),
        _entry(af.caccioppoli_report, traj, prof, s.cutoff, 0.1, (0.0, 0.2), window=window),
        _entry(af.Field, s.grid, field.values, 0.0, error=IngestionError),
        _entry(af.InitialProfile, "bump", error=ConfigError),
        _entry(af.stable_dt, field, prof, 1e-2),
        _entry(af.advance, field, prof, 1e-2, 1e-6),
        _entry(traj.window, 0.0, 0.1, t_a="window start", t_b="window end"),
        _entry(af.fit_power_law, [(1.0, 1.0), (2.0, 3.0), (3.0, 4.5)]),
        # counts, the schedule and the run record, in the words of their own rules
        _entry(af.build_grid, [0.5], [32], error=ConfigError, half_domain="half_domain entry",
               resolution="resolution must be an integer per axis, got {bad!r}"),
        _entry(af.uniform_snapshots, 0.1, 3, error=ConfigError,
               count="snapshot count must be an integer, got {bad!r}"),
        _entry(af.SimConfig, s.grid, af.InitialProfile("bump"), prof, 1e-2, 0.1, 0.5, (0.0, 0.1),
               error=ConfigError, snapshot_times="snapshot times must be numbers, got {seq!r}"),
        _entry(af.Trajectory, s.grid, prof, 1e-2, s.rows, (0.0, 0.1, 0.2), 3, 0.0, 0.0,
               error=IngestionError, times="snapshot time",
               steps="steps must be a nonnegative integer, got {bad!r}"),
    ])


def _expected(words: str, bad, seq=None) -> str:
    """The fault of `bad` in `words` (`_entry`), as the rule words an int past 1e308 too."""
    tail = ": int too large to convert to float" if bad is HUGE else ""
    rule = words if " must " in words else words + " must be a number, got {bad!r}" + tail
    return rule.format(bad=bad, seq=seq)


def _shown(bad) -> str:
    if isinstance(bad, list):
        return f"[{', '.join(map(_shown, bad))}]"
    return "10**400" if bad is HUGE else repr(bad)


def _replaced(value, path: tuple, bad):
    """value, of its own type, with bad at `path` (indices, outermost first; () is value)."""
    if not path:
        return bad
    i, *rest = path
    return type(value)([*value[:i], _replaced(value[i], rest, bad), *value[i + 1 :]])


def _cases(ranged=False):
    """(entry point, parameter, path of the entry replaced, bad value) of every checked number,
    or, `ranged`, of every float number the range rule judges, with each value of NOT_FINITE."""
    cases = []
    for entry, parameter, annotation in _number_parameters():
        if entry not in _base_calls() or (entry, parameter) in NOT_CHECKED:
            continue  # a checked entry point without a base call fails the test below
        if ranged and ("float" not in annotation or (entry, parameter) in NOT_RANGED):
            continue
        function, args, _, _ = _base_calls()[entry]
        given = inspect.signature(function).bind(*args).arguments.get(parameter)
        paths = [()] if annotation in SCALAR else [(i,) for i in range(len(given))]
        if annotation in PAIRS:  # one coordinate of one pair
            paths = [(i, j) for i, pair in enumerate(given) for j in range(len(pair))]
        bads = NOT_FINITE if ranged else NOT_NUMBERS + [HUGE] * ("float" in annotation)
        for path, bad in itertools.product(paths, bads):
            at = f"{entry}-{parameter}" + "".join(f"[{i}]" for i in path)
            cases.append(pytest.param(entry, parameter, path, bad, id=f"{at}-{_shown(bad)}"))
    return cases


def test_every_entry_point_that_takes_a_number_has_a_base_call():
    # a new public function, method or dataclass field taking a number fails here
    found = {(entry, parameter) for entry, parameter, _ in _number_parameters()}
    checked = {e for e, p in found if e not in NOT_CHECKED and (e, p) not in NOT_CHECKED}
    assert sorted(checked - set(_base_calls())) == []
    assert sorted(set(_base_calls()) - checked) == []  # no call for what is gone
    assert sorted(set(NOT_CHECKED) - found - {entry for entry, _ in found}) == []
    assert sorted(set(NOT_RANGED) - found) == []
    assert sorted(set(_WORDS) - found - {parameter for _, parameter in found}, key=str) == []


@pytest.mark.parametrize("entry", sorted(_base_calls()))
def test_every_base_call_is_valid(entry):
    function, args, error, words = _base_calls()[entry]
    assert set(words) <= set(inspect.signature(function).parameters)
    result = function(*args)  # raises nothing
    if error is str:
        assert result == ""


def _refusal(entry, parameter, path, bad) -> tuple:
    """(the words of the parameter's entry, its value with bad at path, and what the base
    call with that value says: the violations of a ConfigError, else the one message)."""
    function, args, error, words = _base_calls()[entry]
    bound = inspect.signature(function).bind(*args)
    bound.apply_defaults()
    said = words.get(parameter, parameter)
    said = said[path[0]] if isinstance(said, tuple) else said  # the words of one entry
    seq = bound.arguments[parameter] = _replaced(bound.arguments[parameter], path, bad)
    if error is str:
        return said, seq, [function(*bound.args, **bound.kwargs)]
    with pytest.raises(error) as excinfo:
        function(*bound.args, **bound.kwargs)
    return said, seq, excinfo.value.violations if error is ConfigError else [str(excinfo.value)]


@pytest.mark.parametrize("entry, parameter, path, bad", _cases())
def test_entry_point_refuses_what_is_no_number(entry, parameter, path, bad):
    said, seq, found = _refusal(entry, parameter, path, bad)
    assert found == [_expected(said, bad, seq)]


@pytest.mark.parametrize("entry, parameter, path, bad", _cases(ranged=True))
def test_entry_point_refuses_what_is_out_of_range(entry, parameter, path, bad):
    # in `geometry._violation`'s one form, the value shown as the equal Python number
    said, _, found = _refusal(entry, parameter, path, bad)
    said = RANGE_NAMES.get((entry, parameter), said)
    assert found == [f"{said} must {_range_words(entry, parameter)}, got {float(bad)!r}"]
    if isinstance(bad, np.generic):  # word for word what the float says
        assert found == _refusal(entry, parameter, path, bad.item())[2]


#: (entry point, parameter) that reads its number as a float once it is judged, so a numpy
#: float32, which NEP 50 keeps through arithmetic with a float, goes no further
AS_FLOAT = [
    ("geometry.nu", "t"), ("geometry.nu", "rho"), ("geometry.nu_sigma", "t"),
    ("geometry.nu_sigma", "rho"), ("geometry.intrinsic_cube", "rho"),
    ("geometry.intrinsic_cube", "t"), ("geometry.standard_cube", "rho"),
    ("geometry.scale_cube", "a"), ("lemmas.sobolev_ratio", "t_extent"),
    ("solver.stable_dt", "eps"), ("solver.advance", "eps"), ("solver.advance", "dt"),
]


@pytest.mark.parametrize("entry, parameter", AS_FLOAT, ids=[f"{e}-{p}" for e, p in AS_FLOAT])
def test_a_float32_is_read_as_the_equal_float(entry, parameter):
    function, args, _, _ = _base_calls()[entry]
    bound = inspect.signature(function).bind(*args)
    value, results = np.float32(bound.arguments[parameter]), []
    for given in (value, value.item()):
        bound.arguments[parameter] = given
        results.append(repr(function(*bound.args, **bound.kwargs)))
    assert results[0] == results[1]


@pytest.mark.parametrize("bad", [*NOT_NUMBERS[:4], HUGE], ids=_shown)
def test_a_config_number_follows_the_rule(bad):
    # `_real` reads text as a number (test_config_text_still_reads_as_numbers): all but "0.5"
    with pytest.raises(TypeError, match=f"^{re.escape(_expected('eps', bad))}$"):
        _real(bad, "eps")


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


def test_the_range_rule_is_stated_once():
    # each named rule, a (words, predicate) pair at the top of a module, is one string of
    # src/, no message restates one as "must <words>, got", and geometry alone defines the
    # helper that words them (it was solver._violation, beside geometry._require_positive)
    texts = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    values = [v for stem in texts for v in vars(importlib.import_module(f"anisofast.{stem}"))
              .values() if type(v) is tuple and len(v) == 2]
    rules = {words for words, holds in values if isinstance(words, str) and callable(holds)}
    assert {"be positive and finite", "be nonnegative and finite", "be finite"} <= rules
    strings = Counter(
        node.value for text in texts.values() for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    for words in rules:
        assert strings[words] == 1, words
        assert [s for s in strings if f"must {words}, got" in s] == [], words
    helpers = {
        f"{stem}.{node.name}" for stem, text in texts.items() for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef) and node.name in ("_violation", "_require_positive")
    }
    assert helpers == {"geometry._violation"}
    assert geometry._violation("x", np.float64(-1.0)) == "x must be positive and finite, got -1.0"


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
            lambda s: af.time_extremal(s.traj, s.cube, (0.0, "0.5"), "sup_lr"),
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


@pytest.mark.parametrize("n_max", [2.5, np.nan, np.inf])
def test_fast_convergence_refuses_a_count_that_is_no_integer(n_max):
    # range(2.5) raised "'float' object cannot be interpreted as an integer"
    with pytest.raises(DomainError, match=f"^n_max must be an integer, got {n_max!r}$"):
        af.fast_convergence(1.0, 2.0, 0.5, 0.1, n_max)


def test_fast_convergence_reads_an_integral_float_as_a_count():
    # as uniform_snapshots reads 3.0 as 3 snapshots
    converge = (1.0, 2.0, 0.5, 0.1)  # C, b, alpha, Y0
    assert af.fast_convergence(*converge, 3.0) == af.fast_convergence(*converge, 3)


@pytest.mark.parametrize("window, words", [
    ((np.nan, np.nan), "window start must be finite, got nan"),
    ((0.2, 0.1), "empty window [0.2, 0.1]"),
])
def test_a_window_has_finite_ends_in_order(window, words):
    # (0.15, inf) measured the t = 0 row (tol was inf), a NaN end every row, each unnamed;
    # one non-finite end at each of these entry points is the range walker's
    s = _setting()
    for call in (s.traj.window, lambda *w: af.time_extremal(s.traj, s.cube, w, "sup_lr"),
                 lambda *w: af.caccioppoli_report(s.traj, s.prof, s.cutoff, 0.1, w)):
        with pytest.raises(DomainError, match=f"^{re.escape(words)}$"):
            call(*window)


def test_fit_power_law_refuses_ragged_or_complex_points():
    # numpy raised its own ValueError and TypeError
    with pytest.raises(DomainError, match=r"^fit_power_law needs at least 3 \(x, y\) pairs$"):
        af.fit_power_law([(1.0, 1.0), (2.0,), (3.0, 4.5)])
    with pytest.raises(DomainError, match=r"^points must be a number, got 1j$"):
        af.fit_power_law([(1.0, 1.0), (2.0, 1j), (3.0, 4.5)])


# --- the text readers: each number of a config, of its checks and of a manifest -----------

#: what no text reader takes as a number, as (form, value): a JSON value, alone or in a list,
#: or text ("abc": a text config reads the 401 digits of 10**400 as inf, a range fault)
FORMS = [("text", "abc")]
FORMS += [("json", v) for bad in (True, False, None, HUGE, "abc", {"a": 1}) for v in (bad, [bad])]
CONFIG = {"simulation": {"p": 1.5, "half_domain": 0.5, "resolution": 16, "t_end": 0.02}}


def _violations(config: dict, form: str) -> list[str]:
    """What `cli.parse_config` names in config, written as JSON or as text."""
    sections = [f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                for name, keys in config.items()]
    with pytest.raises(ConfigError) as excinfo:
        cli.parse_config("".join(sections) if form == "text" else json.dumps(config))
    return excinfo.value.violations


@pytest.mark.parametrize("form, bad", FORMS, ids=[f"{f}-{_shown(bad)}" for f, bad in FORMS])
def test_config_reader_refuses_what_is_no_number(form, bad):
    # each key `cli._NUMBERS` reads, and each check option it reads as a number, alone
    sections, found, said = {key: s for s, keys in cli._CONFIG.items() for key in keys}, {}, {}
    for key, read in cli._NUMBERS.items():
        section = sections[key]
        found[key] = _violations(CONFIG | {section: CONFIG.get(section, {}) | {key: bad}}, form)
        said[key] = [_expected(key, bad)]  # `_real`'s
        if read is cli._integer:
            said[key] = [f"{key} must be an integer, got {bad!r}"]
        elif read is cli._floats:  # text is its split, any other value a list of one entry
            got = bad.split() if isinstance(bad, str) else bad
            got = got if isinstance(got, list) else [got]
            said[key] = ["p: " * (key == "p") + f"{key} entries must be numbers, got {got!r}"]
    options = [name for name, d in harnack.CHECK_OPTIONS.items() if not isinstance(d, str)]
    for kind, option in itertools.product(cli.CHECK_KINDS, options):
        order = {"r": 2.0} if harnack.CHECKS[kind].r_rule else {}  # where the kind takes one
        given = {"rho": 0.1, "t": 0.01} | order | {option: bad}
        line = " ".join([kind, *(f"{k}={v}" for k, v in given.items())])  # a `check =` line
        check = line if form == "text" else [{"kind": kind} | given]
        found[kind, option] = _violations(CONFIG | {"analysis": {"check": check}}, form)
        said[kind, option] = [f"check {kind!r}: {_expected(option, bad)}"]
    assert found == said


@pytest.mark.parametrize("bad", [bad for form, bad in FORMS if form == "json"], ids=_shown)
def test_manifest_reader_refuses_what_is_no_number(tmp_path, bad):
    # each number or list entry of the API walker's `Trajectory` as saved, alone, but the format
    # (`test_load_rejects_an_inconsistent_manifest`) and a null drift (a Dirichlet run's value)
    function, args, _, words = _base_calls()["solver.Trajectory"]
    manifest_path = Path(af.save_trajectory(function(*args), str(tmp_path)), "manifest.json")
    manifest, found, said = json.loads(manifest_path.read_text(encoding="utf-8")), {}, {}
    for key, value in manifest.items():
        for path in [(i,) for i in range(len(value))] if isinstance(value, list) else [()]:
            skipped = key == "format" or (key, bad) == ("mass_drift", None)
            if skipped or type(value[path[0]] if path else value) not in (int, float):
                continue  # or the boundary's name
            manifest_path.write_text(json.dumps(manifest | {key: _replaced(value, path, bad)}))
            with pytest.raises(IngestionError) as excinfo:
                af.load_trajectory(str(tmp_path))
            found[key, path], rule = str(excinfo.value), _expected(key, bad)  # `_real`'s
            if key in ("dimension", "resolution"):
                rule = f"{key} must be an integer, got {bad!r}"  # `_integer`'s
            elif key == "steps":
                rule = words[key].format(bad=bad)  # passed on as is: `Trajectory`'s words
            said[key, path] = f"invalid manifest.json in {str(tmp_path)!r}: {rule}"
    assert found == said
