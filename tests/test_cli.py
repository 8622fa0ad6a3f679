"""Config parsing, the command pipeline, and output determinism."""

import csv
import hashlib
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisofast as af
from anisofast import cli, harnack
from anisofast.cli import (
    cmd_analyze,
    cmd_lemmas,
    cmd_run,
    main,
    parse_config,
)
from anisofast.errors import ConfigError, DomainError
from anisofast.lemmas import fast_convergence, iteration_bound, young_conjugate, young_gamma
from conftest import FLOAT_RANGE_CASES

MINIMAL = """
[simulation]
p = 1.5
half_domain = 0.5
resolution = 64
t_end = 0.02
"""

FULL = """
# fast-diffusion campaign
[simulation]
p = 1.5
half_domain = 0.5
resolution = 64
boundary = dirichlet_zero
t_end = 0.05
eps = 1e-2
safety = 0.45
snapshots = 26
profile = bump
amplitude = 1.0
radius = 0.25

[analysis]
extinction_threshold = 1e-6
check = l1l1 geometry=intrinsic rho=0.1 t=0.04 C=0
check = l1l1 geometry=standard rho=0.1 t=0.04
check = lr_backward geometry=intrinsic rho=0.1 t=0.04 r=2

[output]
directory = {out}
"""


def test_parse_minimal_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.sim.eps == pytest.approx(2 * 0.5 / 64)  # eps defaults to the spacing
    assert cfg.sim.safety == 0.5
    assert cfg.threshold_rel == 1e-6
    assert cfg.sim.profile.kind == "bump"
    assert cfg.checks == ()
    assert cfg.outdir == "out"


def test_numeric_readers_cover_the_numeric_config_keys():
    keys = {key for section in cli._CONFIG.values() for key in section}
    assert set(cli._NUMBERS) <= keys
    # every other key is read as text, or as a list of checks
    assert keys - set(cli._NUMBERS) == {"boundary", "profile", "path", "check", "directory"}


def test_parse_unknown_key_is_named():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "\nwobble = 3\n")
    assert any("wobble" in v for v in excinfo.value.violations)
    # the exponents fix the dimension; there is no separate key for it
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "\ndimension = 1\n")
    assert "unknown key 'dimension' in [simulation]" in excinfo.value.violations


def test_parse_exponent_out_of_range():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL.replace("p = 1.5", "p = 2.5"))
    assert any("(1, 2]" in v for v in excinfo.value.violations)


def test_parse_missing_t_end_named():
    text = "\n".join(
        line for line in MINIMAL.splitlines() if not line.startswith("t_end")
    )
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert any("t_end" in v for v in excinfo.value.violations)


# a config with keys missing: the exact violations it gives, each missing key named once
_MISSING = "missing required key {!r} in [simulation]".format
MISSING_KEYS = {
    "check_without_t_end": (
        MINIMAL.replace("t_end = 0.02\n", "") + "[analysis]\ncheck = l1l1 rho=0.1 t=0.01\n",
        [_MISSING("t_end")],
    ),
    "only_t_end": (
        "[simulation]\nt_end = 0.1\n",
        [_MISSING("p"), _MISSING("half_domain"), _MISSING("resolution")],
    ),
    "no_grid": (
        "[simulation]\np = 1.5\nt_end = 0.1\n",
        [_MISSING("half_domain"), _MISSING("resolution")],
    ),
}


@pytest.mark.parametrize("case", sorted(MISSING_KEYS))
def test_parse_names_every_missing_key(case):
    text, want = MISSING_KEYS[case]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.violations == want


def _documented_keys():
    """{section: {key: (value, comment)}} as the cli module docstring lists them;
    the check options are listed as the section 'check options'."""
    documented, section = {}, None
    for line in cli.__doc__.splitlines():
        header = re.fullmatch(r"\s+\[(\w+)\]|\s+(check options)", line)
        entry = re.fullmatch(r"\s+(\w+)\s*=\s*(\S+)[^#]*(.*)", line)
        if header:
            section = documented.setdefault(header[1] or header[2], {})
        elif entry and section is not None:
            section.setdefault(entry[1], (entry[2], entry[3]))
    return documented


def _assert_documented(documented: dict, table: dict) -> None:
    """Each key of the table is documented with its default, and no other key is."""
    assert set(documented) == set(table)
    for key, default in table.items():
        value, comment = documented[key]
        assert (default is cli._REQUIRED) == comment.startswith("# required"), key
        if default is None:
            assert value == "<none>", key
        elif isinstance(default, (str, int, float)):  # the value shown is the default
            assert type(default)(value) == default, key


def test_docstring_lists_the_parsed_keys_and_defaults():
    # the documented schema cannot drift from the table the parser reads
    documented = _documented_keys()
    assert set(documented) == set(cli._CONFIG) | {"check options"}
    for name, keys in cli._CONFIG.items():
        _assert_documented(documented[name], keys)


def test_docstring_lists_the_check_options_and_defaults():
    # the documented check options cannot drift from the table harnack and the parser read
    _assert_documented(_documented_keys()["check options"], harnack.CHECK_OPTIONS)


def test_parse_collects_all_violations():
    bad = MINIMAL.replace("p = 1.5", "p = 2.5") + "mystery = 1\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert len(excinfo.value.violations) >= 2


def _with_value(key, value):
    """MINIMAL with `key = value` added to [simulation], its one section."""
    return MINIMAL + f"{key} = {value}\n"


def test_parse_non_numeric_values_all_reported():
    text = _with_value("safety", "fast").replace("t_end = 0.02", "t_end = soon")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text + "[analysis]\ndecay_rho = wide\n")
    violations = excinfo.value.violations
    for key, value in (("t_end", "soon"), ("safety", "fast"), ("decay_rho", "wide")):
        assert any(key in v and repr(value) in v for v in violations), violations


def test_parse_json_equivalent():
    doc = {
        "simulation": {
            "p": [1.5],
            "half_domain": [0.5],
            "resolution": [64],
            "t_end": 0.02,
        }
    }
    cfg_json = parse_config(json.dumps(doc))
    cfg_text = parse_config(MINIMAL)
    assert cfg_json.sim == cfg_text.sim


def test_parse_check_specs():
    cfg = parse_config(FULL.format(out="somewhere"))
    assert len(cfg.checks) == 3
    assert cfg.checks[0].kind == "l1l1" and cfg.checks[0].geometry == "intrinsic"
    assert cfg.checks[2].r == 2.0
    with pytest.raises(ConfigError):
        parse_config(FULL.format(out="x") + "\n[analysis]\ncheck = lr_sup rho=0.1 t=0.04\n")


@pytest.mark.parametrize(
    "check, violation",
    [
        ("lr_backward rho=0.1 t=0.01 r=1", "check 'lr_backward': r must exceed 1 and be finite, got 1.0"),
        ("composite rho=0.1 t=0.01 r=0.9", "check 'composite': r must exceed 1 and be finite, got 0.9"),
        ("lr_sup rho=0.1 t=0.01 r=0.5", "check 'lr_sup': r must be >= 1 and finite, got 0.5"),
        ("l1l1 rho=0.1 t=0.01 r=2", "check 'l1l1': r is not an option (r = 1 is implied), got 2.0"),
        ("l1linf rho=0.1 t=0.01 r=1", "check 'l1linf': r is not an option (r = 1 is implied), got 1.0"),
        ("composite rho=0.1 t=0.01", "check 'composite': r is required"),
        ("lr_sup rho=0.1 t=0.01 r=inf", "check 'lr_sup': r must be >= 1 and finite, got inf"),
        ("lr_backward rho=0.1 t=0.01 r=inf", "check 'lr_backward': r must exceed 1 and be finite, got inf"),
        ("composite rho=0.1 t=0.01 r=nan", "check 'composite': r must exceed 1 and be finite, got nan"),
        ("l1l1", "check 'l1l1' is missing required option 'rho'"),
        ("l1l1", "check 'l1l1' is missing required option 't'"),
    ],
)
def test_parse_check_order_follows_the_table(check, violation):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + f"[analysis]\ncheck = {check}\n")
    assert violation in excinfo.value.violations


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["rho", "t", "C"])
def test_parse_check_non_finite_value_is_a_violation(key, value):
    options = {"rho": "0.1", "t": "0.01", "C": "0"}
    options[key] = value
    check = "l1l1 " + " ".join(f"{k}={v}" for k, v in options.items())
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + f"[analysis]\ncheck = {check}\n")
    assert any(
        f"check 'l1l1': {key} must be" in v and f"got {float(value)!r}" in v
        for v in excinfo.value.violations
    ), excinfo.value.violations


def test_parse_check_names_every_bad_value():
    # one bad option does not hide the next: each is named, in option order
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "[analysis]\ncheck = l1l1 rho=abc t=xyz\n")
    assert excinfo.value.violations == [
        "check 'l1l1': rho must be a number, got 'abc'",
        "check 'l1l1': t must be a number, got 'xyz'",
    ]
    text = json.dumps({
        "simulation": {"p": 1.5, "half_domain": 0.5, "resolution": 64, "t_end": 0.02},
        "analysis": {"check": [{"kind": "lr_sup", "rho": None, "t": "x", "r": "y", "C": "z"}]},
    })
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.violations == [
        "check 'lr_sup': rho must be a number, got None",
        "check 'lr_sup': t must be a number, got 'x'",
        "check 'lr_sup': r must be a number, got 'y'",
        "check 'lr_sup': C must be a number, got 'z'",
    ]


def test_parse_check_duplicate_option_is_a_violation():
    # as a repeated section key is; option names are read case-blind
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "[analysis]\ncheck = l1l1 rho=0.1 rho=0.2 t=0.01 T=0.015\n")
    assert excinfo.value.violations == [
        "check 'l1l1': duplicate option 'rho'",
        "check 'l1l1': duplicate option 't'",
    ]


def test_parse_check_t_beyond_t_end_is_named_with_other_faults():
    # MINIMAL's t_end is 0.02; a bad rho does not hide it
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "[analysis]\ncheck = l1l1 rho=abc t=0.5 geometry=bogus\n")
    assert excinfo.value.violations == [
        "check 'l1l1': rho must be a number, got 'abc'",
        "check 'l1l1': geometry must be one of ('intrinsic', 'standard'), got 'bogus'",
        "check 'l1l1': t=0.5 exceeds t_end=0.02",
    ]


@pytest.mark.parametrize("excess, accepted", [(5e-10, True), (2e-9, False)])
def test_config_and_check_share_one_horizon(excess, accepted):
    # a t past t_end by a relative 5e-10 reads the run's last snapshot, so the config
    # accepts it as the check does; past 1e-9 both refuse it, each in its own words
    t_end, t = 0.01, 0.01 * (1.0 + excess)
    config = MINIMAL.replace("0.02", str(t_end)) + f"[analysis]\ncheck = l1l1 rho=0.1 t={t}\n"
    traj = af.run(parse_config(MINIMAL.replace("0.02", str(t_end))).sim)
    if accepted:
        assert parse_config(config).checks[0].t == t and af.check_l1l1(traj, 0.1, t).gamma_min > 0
        return
    with pytest.raises(ConfigError) as excinfo:
        parse_config(config)
    assert excinfo.value.violations == [f"check 'l1l1': t={t} exceeds t_end={t_end}"]
    with pytest.raises(DomainError, match=re.escape(f"window [0, {t}] exceeds the trajectory")):
        af.check_l1l1(traj, 0.1, t)


def test_parse_reports_profile_and_run_scalar_violations_together():
    # the datum's faults are all named, and the run's scalar ranges are
    # checked alongside them, not only once everything else is valid
    text = MINIMAL + "amplitude = -1\nradius = -1\nsafety = 2\neps = -1\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.violations == [
        "amplitude must be nonnegative and finite, got -1.0",
        "radius must be positive and finite, got -1.0",
        "eps must be positive and finite, got -1.0",
        "safety must lie in (0, 1], got 2.0",
    ]


def test_parse_reports_snapshot_count_with_other_violations():
    # the count is range-checked with the other scalars, not only once the
    # rest of the config is valid, and it is named once
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "snapshots = 0\namplitude = -1\n")
    assert excinfo.value.violations == [
        "amplitude must be nonnegative and finite, got -1.0",
        "snapshot count must be >= 1, got 0",
    ]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "snapshots = 0\n")
    assert excinfo.value.violations == ["snapshot count must be >= 1, got 0"]


# key: (its section, the words of its violation)
NON_FINITE_NUMBERS = {
    "eps": ("simulation", "eps must be positive and finite"),
    "t_end": ("simulation", "t_end must be nonnegative and finite"),
    "amplitude": ("simulation", "amplitude must be nonnegative and finite"),
    "extinction_threshold": ("analysis", "extinction_threshold must be positive and finite"),
    "decay_rho": ("analysis", "decay_rho must be positive and finite"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(NON_FINITE_NUMBERS))
def test_parse_non_finite_number_is_a_violation(tmp_path, capsys, key, value):
    # rejected when the config is parsed, so `run` exits 2 and writes nothing
    section, words = NON_FINITE_NUMBERS[key]
    if key == "t_end":
        text = MINIMAL.replace("t_end = 0.02", f"t_end = {value}")
    else:  # MINIMAL ends inside [simulation]
        text = MINIMAL + ("" if section == "simulation" else "[analysis]\n")
        text += f"{key} = {value}\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert any(words in v and f"got {value}" in v for v in excinfo.value.violations), (
        excinfo.value.violations
    )
    out = tmp_path / "out"
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(text + f"[output]\ndirectory = {out}\n", encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# (key, value): the start of its violation; such values were once truncated or overflowed
NON_INTEGRAL_COUNTS = {
    ("resolution", "32.7"): "resolution must be an integer per axis, got 32.7",
    ("resolution", "inf"): "resolution must be an integer per axis, got inf",
    ("resolution", "1e400"): "resolution must be an integer per axis, got inf",
    ("resolution", "nan"): "resolution must be an integer per axis, got nan",
    ("snapshots", "3.9"): "snapshots must be an integer, got ",
    ("snapshots", "inf"): "snapshots must be an integer, got ",
    ("snapshots", "nan"): "snapshots must be an integer, got ",
    ("snapshots", "1" + "0" * 400): "snapshots must be an integer, got ",
}


@pytest.mark.parametrize("form", ["text", "json"])
@pytest.mark.parametrize(
    "key, value", sorted(NON_INTEGRAL_COUNTS), ids=lambda v: v if len(v) < 20 else "10**400"
)
def test_parse_non_integral_count_is_a_violation(tmp_path, capsys, form, key, value):
    # rejected when the config is parsed, in both forms, so `run` exits 2 with no traceback
    out = tmp_path / "out"
    if form == "text":
        text = MINIMAL.replace("resolution = 64", f"resolution = {value}")
        text += "" if key == "resolution" else f"{key} = {value}\n"
        text += f"[output]\ndirectory = {out}\n"
    else:  # the value as a JSON literal: 1e400 reads as inf, 10^400 as an int
        sim = {"p": 1.5, "half_domain": 0.5, "resolution": 64, "t_end": 0.02, key: "VALUE"}
        text = json.dumps({"simulation": sim, "output": {"directory": str(out)}})
        text = text.replace('"VALUE"', {"inf": "Infinity", "nan": "NaN"}.get(value, value))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    words = NON_INTEGRAL_COUNTS[key, value]
    assert any(v.startswith(words) for v in excinfo.value.violations), excinfo.value.violations
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: " + words in err and "Traceback" not in err, err
    assert not out.exists()
    if key == "resolution":  # the Python API checks it too
        with pytest.raises(ConfigError, match="must be an integer"):
            af.build_grid([0.5], [float(value)])


# JSON literals written over a valid document, {(section, key or None): literal},
# and the start of the one violation they give; each once raised a traceback or
# was accepted (a value that is no number: tests/test_number_rule.py)
MALFORMED_JSON = {
    "simulation_number": ({("simulation", None): "5"}, "[simulation] must hold key = value"),
    "analysis_null": ({("analysis", None): "null"}, "[analysis] must hold key = value"),
    "nested_p": ({("simulation", "p"): "[[1.5]]"}, "p: p entries must be numbers"),
    "overlong_int": ({("simulation", "t_end"): "1" + "0" * 5000}, "invalid JSON: "),
    "number_path": (
        {("simulation", "profile"): '"from_file"', ("simulation", "path"): "7"},
        "from_file profile requires a path, got 7",
    ),
    "check_string": (
        {("analysis", "check"): '"l1l1 rho=0.1 t=0.01"'},
        "check must be a list of checks",
    ),
    "directory_list": ({("output", "directory"): '["a"]'}, "directory must be a path"),
    "directory_empty": ({("output", "directory"): '""'}, "directory must be a path, got ''"),
}
@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_json_config_is_one_violation(tmp_path, capsys, monkeypatch, case):
    changes, words = MALFORMED_JSON[case]
    doc = {
        "simulation": {"p": 1.5, "half_domain": 0.5, "resolution": 16, "t_end": 0.02},
        "analysis": {"check": ["l1l1 rho=0.1 t=0.01"]},
        "output": {"directory": "out"},
    }
    for k, (section, key) in enumerate(changes):
        if key is None:
            doc[section] = f"LITERAL{k}"
        else:
            doc[section][key] = f"LITERAL{k}"
    text = json.dumps(doc)
    for k, literal in enumerate(changes.values()):
        text = text.replace(f'"LITERAL{k}"', literal)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    violations = excinfo.value.violations
    assert len(violations) == 1 and violations[0].startswith(words), violations
    (tmp_path / "bad.cfg").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "bad.cfg"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + words) and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["bad.cfg"]


def test_parse_integral_float_counts_are_accepted():
    text = MINIMAL.replace("resolution = 64", "resolution = 32.0") + "snapshots = 5.0\n"
    sim = {"p": 1.5, "half_domain": 0.5, "resolution": 32.0, "t_end": 0.02, "snapshots": 5.0}
    for cfg in (parse_config(text), parse_config(json.dumps({"simulation": sim}))):
        assert cfg.sim.grid.resolution == (32,) and type(cfg.sim.grid.resolution[0]) is int
        assert len(cfg.sim.snapshot_times) == 5


def test_main_builds_its_parser_once():
    assert cli._build_parser() is cli._build_parser()


def test_run_t_end_zero_initial_snapshot_only(tmp_path):
    cfg = parse_config(MINIMAL.replace("t_end = 0.02", "t_end = 0"))
    run_dir = cmd_run(cfg, str(tmp_path / "run0"))
    traj = af.load_trajectory(os.path.join(run_dir, "trajectory"))
    assert len(traj.snapshots) == 1


def test_run_rerun_bit_identical(tmp_path):
    cfg = parse_config(MINIMAL)
    dir1 = cmd_run(cfg, str(tmp_path / "a"))
    dir2 = cmd_run(cfg, str(tmp_path / "b"))
    for name in sorted(os.listdir(os.path.join(dir1, "trajectory"))):
        with open(os.path.join(dir1, "trajectory", name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(dir2, "trajectory", name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_analyze_empty_check_list_header_only(tmp_path):
    cfg = parse_config(MINIMAL)
    run_dir = cmd_run(cfg, str(tmp_path / "run"))
    outputs = cmd_analyze(run_dir, cfg)
    with open(outputs["checks"], encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1  # header only


def test_analyze_zero_datum_gamma_zero(tmp_path):
    text = FULL.format(out=str(tmp_path / "zero")).replace(
        "amplitude = 1.0", "amplitude = 0.0"
    )
    cfg = parse_config(text)
    run_dir = cmd_run(cfg, str(tmp_path / "zero"))
    outputs = cmd_analyze(run_dir, cfg)
    with open(outputs["checks"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        assert float(row["gamma_min"]) == 0.0


def test_end_to_end_determinism(tmp_path):
    results = []
    for sub in ("r1", "r2"):
        out = str(tmp_path / sub)
        cfg = parse_config(FULL.format(out=out))
        run_dir = cmd_run(cfg, out)
        outputs = cmd_analyze(run_dir, cfg)
        blobs = {}
        for name, path in outputs.items():
            with open(path, "rb") as fh:
                blobs[name] = fh.read()
        results.append(blobs)
    assert results[0] == results[1]


def test_checks_csv_echoes_parameters(tmp_path):
    out = str(tmp_path / "echo")
    cfg = parse_config(FULL.format(out=out))
    run_dir = cmd_run(cfg, out)
    outputs = cmd_analyze(run_dir, cfg)
    with open(outputs["checks"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert row["p"] and row["eps"] and row["resolution"] and row["boundary"]
        assert float(row["rho"]) == 0.1
    with open(outputs["checks_manifest"], encoding="utf-8") as fh:
        manifests = json.load(fh)
    assert len(manifests) == 3
    assert all("rhs_terms" in m for m in manifests)


def test_checks_json_is_strict_json(tmp_path):
    # lam = 2(1.1 - 2) + 1.1 < 0: the L1-Linf rows are not applicable
    out = str(tmp_path / "strict")
    text = """
[simulation]
p = 1.1 1.1
half_domain = 0.5 0.5
resolution = 8 8
t_end = 0.01
eps = 0.05
snapshots = 5

[analysis]
check = l1linf geometry=intrinsic rho=0.1 t=0.01
check = l1l1 geometry=standard rho=0.1 t=0.01

[output]
directory = {out}
""".format(out=out)
    cfg = parse_config(text)
    outputs = cmd_analyze(cmd_run(cfg, out), cfg)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    with open(outputs["checks_manifest"], encoding="utf-8") as fh:
        manifests = json.load(fh, parse_constant=reject)
    assert [m["applicable"] for m in manifests] == [False, True]
    assert manifests[0]["lhs"] is None and manifests[0]["gamma_min"] is None
    assert manifests[1]["gamma_min"] > 0.0


def test_analyze_p_equal_to_2_writes_not_applicable_rows(tmp_path):
    out = tmp_path / "heat_axis"
    config_path = tmp_path / "heat_axis.cfg"
    config_path.write_text(
        f"""
[simulation]
p = 1.5 2
half_domain = 0.5 0.5
resolution = 8 8
t_end = 0.01
eps = 0.05
snapshots = 5

[analysis]
check = l1l1 geometry=standard rho=0.1 t=0.01
check = l1linf geometry=intrinsic rho=0.1 t=0.01
check = lr_sup geometry=standard rho=0.1 t=0.01 r=2
check = lr_backward geometry=intrinsic rho=0.1 t=0.01 r=2
check = composite geometry=standard rho=0.1 t=0.01 r=2

[output]
directory = {out}
""",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["analyze", "--config", str(config_path)]) == 0
    with open(out / "checks.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(row["applicable"] == "false" for row in rows)
    assert {row["reason"] for row in rows} == {"Harnack inequalities need all p_i < 2"}


def test_analyze_decay_outputs(tmp_path):
    out = str(tmp_path / "decay")
    text = """
[simulation]
p = 1.5
half_domain = 0.5
resolution = 64
t_end = 0.45
eps = 2e-2
safety = 0.45
snapshots = 151
profile = bump
radius = 0.25

[analysis]
extinction_threshold = 1e-5
decay_rho = 0.1

[output]
directory = {out}
""".format(out=out)
    cfg = parse_config(text)
    run_dir = cmd_run(cfg, out)
    outputs = cmd_analyze(run_dir, cfg)
    with open(outputs["decay_samples"], encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header[:6] == [
        "tau",
        "remaining",
        "mass_intrinsic",
        "sup_intrinsic",
        "mass_standard",
        "sup_standard",
    ]
    with open(outputs["decay_report"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["geometry"] for row in rows} == {"intrinsic", "standard"}
    for row in rows:
        assert float(row["t_star"]) > 0.0
        assert row["mass_theory"]
    with open(outputs["summary"], encoding="utf-8") as fh:
        summary = fh.read()
    assert "decay:intrinsic:mass" in summary


# a 1D run that crosses an extinction threshold of 1e-5 before t_end
DECAY = """
[simulation]
p = 1.5
half_domain = 0.5
resolution = 32
t_end = 0.45
eps = 2e-2
safety = 0.45
snapshots = 46

[analysis]
{analysis}
check = l1l1 rho=0.1 t={t}

[output]
directory = {out}
"""


def _decay_config(tmp_path, analysis: str, t: float = 0.1) -> list[str]:
    """Write DECAY with these [analysis] lines to tmp_path; returns ["--config", path]."""
    path = tmp_path / "campaign.cfg"
    path.write_text(DECAY.format(analysis=analysis, t=t, out=tmp_path / "run"), encoding="utf-8")
    return ["--config", str(path)]


def _analysis_outputs(run_dir: Path) -> dict:
    """Every file that `analyze` wrote to run_dir, by name: its bytes."""
    return {f.name: f.read_bytes() for f in sorted(run_dir.iterdir()) if f.is_file()}


def test_failed_analyze_leaves_the_last_set_of_outputs(tmp_path, capsys):
    config = _decay_config(tmp_path, "extinction_threshold = 1e-5\ndecay_rho = 0.1")
    assert main(["run", *config]) == 0
    assert main(["analyze", *config]) == 0
    first = _analysis_outputs(tmp_path / "run")
    assert len(first) == 5
    # another check, and a threshold the run never crosses, so the decay fit fails
    config = _decay_config(tmp_path, "extinction_threshold = 1e-30\ndecay_rho = 0.1", t=0.2)
    capsys.readouterr()
    assert main(["analyze", *config]) == 1
    assert "never crosses the extinction threshold" in capsys.readouterr().err
    assert _analysis_outputs(tmp_path / "run") == first


def test_analyze_without_decay_rho_removes_earlier_decay_csvs(tmp_path):
    out = tmp_path / "run"
    config = _decay_config(tmp_path, "decay_rho = 0.1")
    assert main(["run", *config]) == 0
    assert main(["analyze", *config]) == 0
    assert {"decay_samples.csv", "decay_report.csv"} <= set(_analysis_outputs(out))
    outputs = cmd_analyze(str(out), cli.load_config(_decay_config(tmp_path, "")[1]))
    assert list(outputs) == ["checks", "checks_manifest", "summary"]
    assert sorted(_analysis_outputs(out)) == ["checks.csv", "checks.json", "summary.csv"]
    assert "decay:" not in (out / "summary.csv").read_text(encoding="utf-8")


def test_verbose_prints_what_each_command_wrote(tmp_path, capsys):
    out, lemma_dir = tmp_path / "run", tmp_path / "lem"
    config = _decay_config(tmp_path, "decay_rho = 0.1")
    names = ["checks.csv", "checks.json", "decay_samples.csv", "decay_report.csv", "summary.csv"]
    keys = ["checks", "checks_manifest", "decay_samples", "decay_report", "summary"]
    commands = {
        ("run", *config): [f"run complete: {out}"],
        ("analyze", *config): [f"{key}: {out / name}" for key, name in zip(keys, names)],
        ("lemmas", "--out", str(lemma_dir)): [f"lemma campaign: {lemma_dir / 'lemmas.csv'}"],
    }
    for argv, lines in commands.items():
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == "", argv
        assert main([*argv, "--verbose"]) == 0
        assert capsys.readouterr().out.splitlines() == lines, argv


def test_decay_samples_cells_are_plain_numbers(tmp_path):
    # numpy scalars must be written as numbers, not as "np.float64(...)"
    out = str(tmp_path / "decay")
    sim = "t_end = 0.45\neps = 2e-2\nsafety = 0.45\nsnapshots = 76"
    text = MINIMAL.replace("t_end = 0.02", sim)
    cfg = parse_config(text + "[analysis]\nextinction_threshold = 1e-5\ndecay_rho = 0.1\n")
    outputs = cmd_analyze(cmd_run(cfg, out), cfg)
    with open(outputs["decay_samples"], encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 10
    for row in rows[1:]:
        for cell in row[:6]:
            float(cell)
        assert set(row[6:]) <= {"true", "false"}


_ALL_KINDS_2D = "".join(
    f"check = {kind} geometry={g} rho=0.12 t=0.05{order}{' C=0.5' if kind == 'l1l1' else ''}\n"
    for kind, order in (
        ("l1l1", ""),
        ("l1linf", ""),
        ("lr_sup", " r=2"),
        ("lr_backward", " r=2"),
        ("composite", " r=2"),
    )
    for g in ("intrinsic", "standard")
)

# sha256 of every analyze output, recorded before `analyze` was routed through
# extinction.decay_reports and the dataclass-declared CSV columns; decay_1d's
# decay files since its intrinsic samples are reduced as its standard ones are;
# decay_1d and checks_2d since mirrored runs step at the half grid's bound
ANALYZE_PINS = {
    "decay_1d": (
        "[simulation]\np = 1.5\nhalf_domain = 0.5\nresolution = 64\nt_end = 0.45\n"
        "eps = 2e-2\nsafety = 0.45\nsnapshots = 91\nradius = 0.25\n"
        "[analysis]\nextinction_threshold = 1e-5\ndecay_rho = 0.1\n"
        "check = l1l1 geometry=intrinsic rho=0.1 t=0.2\n"
        "check = l1linf geometry=standard rho=0.1 t=0.2\n",
        {
            "checks.csv": "565d98984cf23239fe362d0013f60915e91f0b7544f78e1b9247a251f5bc52c9",
            "checks.json": "b5d67262eb3084e9b5fae786822060f7de407d388a6594100242b8245a99a30b",
            "decay_samples.csv": "24d21706f42e53847a38d388f49582fca0978eea78bcccf9e8d29db7a2216e08",
            "decay_report.csv": "cce929f701db9e4212c9f0b8c1ab4a170eeabe73a4618e76561a3a61e4a7ab84",
            "summary.csv": "5055187edf478d05e481c57c7fb588e1f9152e747a33006dd8320309e3253bd7",
        },
    ),
    "checks_2d": (
        "[simulation]\np = 1.4 1.6\nhalf_domain = 0.5 0.5\nresolution = 32 32\n"
        "t_end = 0.2\neps = 0.05\nsafety = 0.35\nsnapshots = 81\nradius = 0.3\n"
        "[analysis]\nextinction_threshold = 1e-3\ndecay_rho = 0.1\n" + _ALL_KINDS_2D,
        {
            "checks.csv": "04eda515f3ae96fc0ed4a353dda8f42983e79b4784d0005db4dab49124919f22",
            "checks.json": "e19879dcba93a7198f7d140ed83a46588b3932d0a00e8716c972d3493c1610dd",
            "decay_samples.csv": "a8e436ece82b8fe6ff7d26f7c099b933661fab7712206b9116700d36e82a55c4",
            "decay_report.csv": "3b89d45e6f64692b6c55cc4bd46b4c6f899d13d290619d2fc1101025f088bc7b",
            "summary.csv": "c78350debfe8e1d1c4e0903e3c345c3063ba335218e30327196c8ee4a8f6b764",
        },
    ),
    "heat_1d": (  # p = 2: every check and decay row is not-applicable
        "[simulation]\np = 2\nhalf_domain = 0.5\nresolution = 16\nt_end = 0.6\n"
        "eps = 0.05\nsnapshots = 31\n"
        "[analysis]\nextinction_threshold = 1e-2\ndecay_rho = 0.1\n"
        "check = l1l1 geometry=intrinsic rho=0.1 t=0.1\n"
        "check = lr_backward geometry=standard rho=0.1 t=0.1 r=2\n",
        {
            "checks.csv": "c5ab50200c571b499ea023202cb56c4d77cf5ea5bfb7aae8c10ce3e96d27d20f",
            "checks.json": "c5446f78afd89229a06141cc143b6d93f5d5e1795b1375d24db54591dd402b33",
            "decay_samples.csv": "e4975953cbd72bfbc0e93348439b4ce6461f02fb3b9320cc34fc601580cb83cc",
            "decay_report.csv": "a8659bd501ac33b0427822691f5226d6de0569513315e0d9ddc8c7d31647fe27",
            "summary.csv": "1b0a3b937572dd5ed31f75b403e8e2304595597726b13251f84d40f6217f327f",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_PINS))
def test_analyze_bytes_are_pinned(tmp_path, case):
    text, digests = ANALYZE_PINS[case]
    out = tmp_path / case
    config_path = tmp_path / f"{case}.cfg"
    config_path.write_text(f"{text}[output]\ndirectory = {out}\n", encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["analyze", "--config", str(config_path)]) == 0
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
    assert actual == digests


# text with what JSON must escape: quotes, backslashes, control characters, non-ASCII
_ESCAPED = st.sampled_from('"\\\n\t\x00\x1f\x7fe\u00e9\u2028\U0001f600')
_TEXT = st.text(_ESCAPED | st.characters(), max_size=6)
_SCALARS = (
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310])
    | st.floats().map(np.float64) | st.integers() | st.booleans() | st.none() | _TEXT
)
# a report's fields: scalars and flat dicts of scalars (rhs_terms, params), empty ones too
_FIELDS = _SCALARS | st.dictionaries(_TEXT, _SCALARS, max_size=4)
_MANIFESTS = st.lists(st.dictionaries(_TEXT, _FIELDS, max_size=8), max_size=3)


def _null_non_finite(value):
    if isinstance(value, dict):
        return {k: _null_non_finite(v) for k, v in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


@given(_MANIFESTS)
@settings(max_examples=200, deadline=None)
def test_checks_json_text_is_what_json_dumps_writes(manifests):
    nulled = [_null_non_finite(m) for m in manifests]
    expected = json.dumps(nulled, indent=2, sort_keys=True, allow_nan=False)
    assert cli._json_text(manifests) == expected


@pytest.mark.parametrize(
    "manifest",
    [{"lhs": [1.0]}, {"params": {"r": (2.0,)}}, {"lhs": np.float32(1.0)}, {"steps": np.int64(3)},
     {"applicable": np.True_}, {"params": {1: 0.0}}],
    ids=["list", "nested_tuple", "float32", "int64", "numpy_bool", "int_key"],
)
def test_checks_json_text_rejects_a_type_it_does_not_hold(manifest):
    with pytest.raises(TypeError):
        cli._json_text([manifest])


def test_cmd_lemmas_deterministic(tmp_path):
    p1 = cmd_lemmas(7, str(tmp_path / "la"))
    p2 = cmd_lemmas(7, str(tmp_path / "lb"))
    with open(p1, "rb") as fh:
        b1 = fh.read()
    with open(p2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    with open(p1, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["campaign"] for row in rows} == {
        "young_inequality",
        "fast_convergence_threshold",
        "iteration_bound",
    }
    assert all(int(row["failures"]) == 0 for row in rows)


# the iteration-bound extremes of lemmas.csv as the per-sequence loop wrote them
LEMMAS_EXTREME = {0: "0.9518742751352376", 3: "0.9380037157675006", 7: "0.9618514709339816"}


@pytest.mark.parametrize("seed", sorted(LEMMAS_EXTREME))
def test_cmd_lemmas_bytes_are_pinned(tmp_path, seed):
    expected = (
        "campaign,trials,failures,extreme\n"
        "young_inequality,100000,0,0.0\n"
        "fast_convergence_threshold,1000,0,0.0\n"
        f"iteration_bound,10000,0,{LEMMAS_EXTREME[seed]}\n"
    )
    with open(cmd_lemmas(seed, str(tmp_path)), "rb") as fh:
        assert fh.read() == expected.encode("ascii")


def _lemma_rows_by_loops(seed):
    """The three campaigns as loops over draws, sequences and steps; the reference."""
    rng = np.random.default_rng(seed)
    trials, failures, worst = 0, 0, 0.0
    for q, eps in ((1.3, 0.1), (1.7, 0.05), (2.0, 0.5), (3.0, 1.0)):
        gamma, qp = young_gamma(eps, q), young_conjugate(q)
        a = rng.uniform(0.0, 10.0, size=25000) + 1e-12
        b = rng.uniform(0.0, 10.0, size=25000) + 1e-12
        margin = eps * a**q + gamma * b**qp - a * b
        scale = np.maximum(a * b, 1.0)
        trials += a.size
        failures += int((margin < -1e-12 * scale).sum())
        worst = min(worst, float((margin / scale).min()))
    rows = [["young_inequality", trials, failures, worst]]
    failures = 0
    for _ in range(1000):
        C = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(1.1, 8.0))
        alpha = float(rng.uniform(0.1, 2.0))
        y0 = 0.99 * C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
        failures += 0 if fast_convergence(C, b, alpha, y0, n_max=200).converged else 1
    rows.append(["fast_convergence_threshold", 1000, failures, 0.0])
    trials, failures, worst = 0, 0, 0.0
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
        slack = bound + eps**horizon * m_cap
        trials += y.size
        failures += int((y > slack).sum())
        worst = max(worst, float((y / bound).max()))
    rows.append(["iteration_bound", trials, failures, worst])
    return rows


# chunk sizes: a few sequences per chunk, the default, the whole campaign in one chunk
@pytest.mark.parametrize("chunk_rows", [307, 1152, 10**4])
def test_cmd_lemmas_matches_the_loops_for_any_chunking(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    header = ["campaign", "trials", "failures", "extreme"]
    for seed in (1, 11, 99):
        expected = str(tmp_path / f"loops{seed}.csv")
        cli._write_csv(expected, header, _lemma_rows_by_loops(seed))
        with open(cmd_lemmas(seed, str(tmp_path / str(seed))), "rb") as fh, open(expected, "rb") as ref:
            assert fh.read() == ref.read(), seed


def test_cmd_lemmas_memory_peak(tmp_path):
    # the per-sequence loops peaked at 1,401,800 bytes here (in the Young
    # campaign); drawing the iteration-bound sequences in chunks must not add to it
    cmd_lemmas(7, str(tmp_path))  # first-call allocations are not the campaign's
    tracemalloc.start()
    try:
        cmd_lemmas(7, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_401_800


def test_main_cli_roundtrip(tmp_path):
    out = str(tmp_path / "cli_run")
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(FULL.format(out=out), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["analyze", "--config", str(config_path)]) == 0
    assert os.path.exists(os.path.join(out, "checks.csv"))
    assert main(["lemmas", "--out", str(tmp_path / "lem"), "--seed", "3"]) == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_demo_config_runs(tmp_path):
    # the ini block of the README, as written, with its output redirected
    text = README.read_text(encoding="utf-8")
    config = text.split("```ini\n", 1)[1].split("```", 1)[0]
    assert "directory = out/demo" in config
    out = tmp_path / "demo"
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(config.replace("out/demo", str(out)), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["analyze", "--config", str(config_path)]) == 0
    assert (out / "summary.csv").is_file()


# a config and the exact violations it gives: the document's own faults, a
# list of the wrong length and check entries that cannot be read
_KINDS = "('l1l1', 'l1linf', 'lr_sup', 'lr_backward', 'composite')"
PARSER_VIOLATIONS = {
    "not_key_value": (MINIMAL + "wobble\n", ["line 7: expected 'key = value', got 'wobble'"]),
    "outside_section": ("p = 1.5\n[simulation]\n", ["line 1: key outside any [section]"]),
    "duplicate_key": (MINIMAL + "p = 1.6\n", ["line 7: duplicate key 'p' in [simulation]"]),
    "entry_count": (
        MINIMAL.replace("p = 1.5", "p = 1.5 1.6"),
        ["half_domain must have 2 entries, got 1", "resolution must have 2 entries, got 1"],
    ),
    "entry_count_1d": (
        MINIMAL.replace("resolution = 64", "resolution = 64 64 64"),
        ["resolution must have 1 entry, got 3"],
    ),
    "entry_count_each_list": (
        MINIMAL.replace("p = 1.5", "p = 1.5 1.6").replace("= 0.5", "= 0.5 0.5 0.5"),
        ["half_domain must have 2 entries, got 3", "resolution must have 2 entries, got 1"],
    ),
    "check_token": (
        MINIMAL + "[analysis]\ncheck = l1l1 rho=0.1 t\n",
        ["check option 't' is not key=value"],
    ),
    "check_empty": (MINIMAL + "[analysis]\ncheck =\n", ["empty check entry"]),
    "check_kind": (
        MINIMAL + "[analysis]\ncheck = bogus rho=0.1\n",
        [f"unknown check kind 'bogus'; expected one of {_KINDS}"],
    ),
    "check_options": (
        MINIMAL + "[analysis]\ncheck = l1l1 rho=0.1 t=0.01 s=1 q=2\n",
        ["check 'l1l1' has unknown options ['q', 's']"],
    ),
}


@pytest.mark.parametrize("case", sorted(PARSER_VIOLATIONS))
def test_parse_names_each_unreadable_entry(case):
    text, want = PARSER_VIOLATIONS[case]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.violations == want


def test_run_prints_one_config_error_per_unreadable_check(tmp_path, capsys):
    # every check entry is judged, and `run` exits 2 before it writes anything
    out = tmp_path / "out"
    checks = ["l1l1 rho=0.1 t", "", "bogus rho=0.1", "l1l1 rho=0.1 t=0.01 s=1 q=2"]
    config = tmp_path / "bad.cfg"
    config.write_text(
        MINIMAL + "[analysis]\n" + "".join(f"check = {c}\n" for c in checks)
        + f"[output]\ndirectory = {out}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 2
    cases = ("check_token", "check_empty", "check_kind", "check_options")
    want = [PARSER_VIOLATIONS[case][1][0] for case in cases]
    assert capsys.readouterr().err.splitlines() == [f"config error: {v}" for v in want]
    assert not out.exists()


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("p = 1.5", "p = 3.0"), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def _rewrite_manifest(change):
    def damage(traj_dir):
        path = traj_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        change(manifest)
        path.write_text(json.dumps(manifest), encoding="utf-8")

    return damage


# what goes wrong with a stored trajectory, and the words the error names it by
TRAJECTORY_FAULTS = {
    "no_manifest": (lambda d: (d / "manifest.json").unlink(), "no manifest.json"),
    "not_json": (
        lambda d: (d / "manifest.json").write_text("{not json", encoding="utf-8"),
        "invalid manifest.json",
    ),
    "missing_key": (_rewrite_manifest(lambda m: m.pop("eps")), "lacks key 'eps'"),
    "bad_boundary": (
        _rewrite_manifest(lambda m: m.update(boundary="sideways")),
        "boundary must be one of",
    ),
    "bad_exponent": (_rewrite_manifest(lambda m: m.update(p=[3.0])), "exponent out of (1, 2]"),
    "nan_time": (
        _rewrite_manifest(lambda m: m["times"].__setitem__(1, math.nan)),
        "snapshot time must be finite, got nan",
    ),
    "inf_time": (
        _rewrite_manifest(lambda m: m["times"].__setitem__(2, math.inf)),
        "snapshot time must be finite, got inf",
    ),
    "nan_eps": (_rewrite_manifest(lambda m: m.update(eps=math.nan)), "eps must be positive"),
    "negative_eps": (_rewrite_manifest(lambda m: m.update(eps=-1e-3)), "eps must be positive"),
    "nan_min_value": (
        _rewrite_manifest(lambda m: m.update(min_value=math.nan)),
        "min_value must be finite",
    ),
    "text_mass_drift": (
        _rewrite_manifest(lambda m: m.update(mass_drift="x")),
        "mass_drift must be a number, got 'x'",
    ),
}


@pytest.mark.parametrize("fault", sorted(TRAJECTORY_FAULTS))
def test_main_reports_a_bad_trajectory_as_an_error(tmp_path, capsys, fault):
    damage, message = TRAJECTORY_FAULTS[fault]
    out = tmp_path / "run"
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        MINIMAL + f"snapshots = 3\n[output]\ndirectory = {out}\n", encoding="utf-8"
    )
    assert main(["run", "--config", str(config_path)]) == 0
    damage(out / "trajectory")
    capsys.readouterr()
    assert main(["analyze", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json" in err and message in err, err


def test_main_rejects_a_manifest_whose_exponents_miss_the_grid(tmp_path, capsys):
    out = tmp_path / "run"
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        MINIMAL
        + "snapshots = 3\n[analysis]\ncheck = l1l1 rho=0.1 t=0.01\n"
        + f"[output]\ndirectory = {out}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path)]) == 0
    _rewrite_manifest(lambda m: m.update(p=[1.4, 1.6], dimension=2))(out / "trajectory")
    capsys.readouterr()
    assert main(["analyze", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid manifest.json in "), err
    assert "2 exponents for a 1-dimensional grid" in err, err
    assert not (out / "checks.csv").exists()  # stopped at load, before the check


def test_main_reports_a_boolean_manifest_number_as_one_error(tmp_path, capsys):
    out = tmp_path / "run"
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        MINIMAL
        + "snapshots = 3\n[analysis]\ncheck = l1l1 rho=0.1 t=0.01\n"
        + f"[output]\ndirectory = {out}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path)]) == 0
    _rewrite_manifest(lambda m: m.update(steps=True))(out / "trajectory")
    capsys.readouterr()
    assert main(["analyze", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid manifest.json in ") and err.count("\n") == 1, err
    assert err.endswith(": steps must be a nonnegative integer, got True\n"), err
    assert not (out / "checks.csv").exists()


@pytest.mark.filterwarnings("error")
def test_main_reports_an_overflowing_periodic_mass_as_an_error(tmp_path, capsys):
    datum = tmp_path / "u0.f64"
    np.full(32, 1e307).astype("<f8").tofile(datum)
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        "[simulation]\np = 1.5\nhalf_domain = 0.5\nresolution = 32\nboundary = periodic\n"
        f"eps = 1e-2\nt_end = 1e-4\nprofile = from_file\npath = {datum}\n"
        f"[output]\ndirectory = {tmp_path}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "mass overflows float64" in err, err
    assert not (tmp_path / "trajectory").exists()


def test_main_reports_a_wrong_size_datum_as_an_error(tmp_path, capsys):
    datum = tmp_path / "u0.f64"
    datum.write_bytes(bytes(8 * 63))
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        MINIMAL + f"profile = from_file\npath = {datum}\n[output]\ndirectory = {tmp_path}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "holds 63 values, grid needs 64" in err, err


@pytest.mark.filterwarnings("error")
def test_main_reports_a_run_overflow_as_one_blowup_line(tmp_path, capsys):
    # a heat datum alternating 0 and 1.7e308: the first flux difference overflows
    datum = tmp_path / "u0.f64"
    np.tile([0.0, 1.7e308], 8).astype("<f8").tofile(datum)
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        "[simulation]\np = 2.0\nhalf_domain = 0.5\nresolution = 16\nt_end = 1e-4\n"
        f"snapshots = 2\nprofile = from_file\npath = {datum}\n[output]\ndirectory = {tmp_path}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("blowup: ") and err.count("\n") == 1, err
    assert not (tmp_path / "trajectory").exists()


def test_main_reports_an_unknown_profile_as_a_config_error(tmp_path, capsys):
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        MINIMAL + f"profile = blob\n[output]\ndirectory = {tmp_path}\n", encoding="utf-8"
    )
    assert main(["run", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "config error: unknown initial profile 'blob'\n"


@pytest.mark.parametrize("bad", [-1.0, math.nan], ids=["negative", "nan"])
def test_main_reports_a_negative_or_nan_datum_as_an_error(tmp_path, capsys, bad):
    datum = tmp_path / "u0.f64"
    values = np.ones(64)
    values[5] = bad
    values.astype("<f8").tofile(datum)
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(
        MINIMAL + f"profile = from_file\npath = {datum}\n[output]\ndirectory = {tmp_path}\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: file {str(datum)!r} must hold finite nonnegative values\n", err
    assert not (tmp_path / "trajectory").exists()


# --- arithmetic out of float range ---------------------------------------------------


@pytest.mark.parametrize("case", sorted(FLOAT_RANGE_CASES))
def test_run_reports_a_scheme_out_of_float_range_as_config_errors(tmp_path, capsys, case):
    # each once a traceback, a blowup at t=nan or a run that never returned
    p, half, res, eps, phrase = FLOAT_RANGE_CASES[case]
    keys = {"p": p, "half_domain": half, "resolution": res, "t_end": [0.01]}
    keys |= {} if eps is None else {"eps": [eps]}
    text = "[simulation]\n" + "".join(f"{k} = {' '.join(map(str, v))}\n" for k, v in keys.items())
    text += f"[output]\ndirectory = {tmp_path / 'out'}\n"
    with pytest.raises(ConfigError):  # at parsing, so that no run can start below
        parse_config(text)
    path = tmp_path / "campaign.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert all(line.startswith("config error: ") for line in err), err
    assert any(phrase in line for line in err), err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def decay_run(tmp_path_factory):
    """A directory holding the stored DECAY run and its config."""
    directory = tmp_path_factory.mktemp("decay")
    assert main(["run", *_decay_config(directory, "")]) == 0
    return directory


#: [analysis] lines whose arithmetic leaves float64, and what the one error line names
ANALYZE_OUT_OF_RANGE = {
    "l1l1 huge rho": (
        "check = l1l1 rho=1e308 t=0.005", "check l1l1 geometry=intrinsic rho=1e+308 t=0.005 C=0.0"
    ),
    "l1l1 tiny rho": (
        "check = l1l1 rho=1e-300 t=0.005", "check l1l1 geometry=intrinsic rho=1e-300 t=0.005 C=0.0"
    ),
    "l1l1 standard tiny rho": (
        "check = l1l1 geometry=standard rho=1e-300 t=0.005",
        "check l1l1 geometry=standard rho=1e-300 t=0.005 C=0.0",
    ),
    "l1linf tiny t huge C": (
        "check = l1linf geometry=standard rho=0.1 t=1e-300 C=1e300",
        "check l1linf geometry=standard rho=0.1 t=1e-300 C=1e+300",
    ),
    "huge decay_rho": ("decay_rho = 1e308", "decay_rho=1e+308"),
    "tiny decay_rho": ("decay_rho = 1e-300", "decay_rho=1e-300"),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_OUT_OF_RANGE))
def test_analyze_reports_arithmetic_out_of_range_as_one_error(decay_run, capsys, case):
    # each once an OverflowError or ZeroDivisionError traceback
    analysis, names = ANALYZE_OUT_OF_RANGE[case]
    capsys.readouterr()
    assert main(["analyze", *_decay_config(decay_run, analysis)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {names}"), err
    assert "arithmetic out of float range" in err[0]
    assert [f.name for f in (decay_run / "run").iterdir()] == ["trajectory"]
