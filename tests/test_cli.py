"""Config parsing, the command pipeline, and output determinism."""

import csv
import json
import os
from pathlib import Path

import pytest

import anisofast as af
from anisofast.cli import (
    cmd_analyze,
    cmd_lemmas,
    cmd_run,
    main,
    parse_config,
)
from anisofast.errors import ConfigError

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


def test_parse_collects_all_violations():
    bad = MINIMAL.replace("p = 1.5", "p = 2.5") + "mystery = 1\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(bad)
    assert len(excinfo.value.violations) >= 2


NUMERIC_KEYS = {
    "t_end": "simulation",
    "eps": "simulation",
    "safety": "simulation",
    "snapshots": "simulation",
    "amplitude": "simulation",
    "radius": "simulation",
    "extinction_threshold": "analysis",
    "decay_rho": "analysis",
}


def _with_value(key, value):
    """MINIMAL with `key = value` set in its section (replacing t_end if that is the key)."""
    lines = [ln for ln in MINIMAL.splitlines() if not ln.startswith(f"{key} ")]
    text = "\n".join(lines) + "\n"
    if NUMERIC_KEYS[key] == "simulation":
        return text.replace("[simulation]\n", f"[simulation]\n{key} = {value}\n")
    return text + f"[analysis]\n{key} = {value}\n"


@pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
def test_parse_non_numeric_value_is_a_violation(key):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_with_value(key, "abc"))
    assert any(key in v and "'abc'" in v for v in excinfo.value.violations)


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
        ("lr_backward rho=0.1 t=0.01 r=1", "check 'lr_backward': r must exceed 1, got 1.0"),
        ("composite rho=0.1 t=0.01 r=0.9", "check 'composite': r must exceed 1, got 0.9"),
        ("lr_sup rho=0.1 t=0.01 r=0.5", "check 'lr_sup': r must be >= 1, got 0.5"),
        ("l1l1 rho=0.1 t=0.01 r=2", "check 'l1l1': r is not an option (r = 1 is implied), got 2.0"),
        ("l1linf rho=0.1 t=0.01 r=1", "check 'l1linf': r is not an option (r = 1 is implied), got 1.0"),
        ("composite rho=0.1 t=0.01", "check 'composite': r is required"),
        ("lr_sup rho=0.1 t=0.01 r=inf", "check 'lr_sup': r must be finite, got inf"),
        ("lr_backward rho=0.1 t=0.01 r=inf", "check 'lr_backward': r must be finite, got inf"),
        ("composite rho=0.1 t=0.01 r=nan", "check 'composite': r must be finite, got nan"),
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
