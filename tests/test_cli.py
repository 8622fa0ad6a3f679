"""Config parsing, the command pipeline, and output determinism."""

import csv
import json
import os

import pytest

import anisofast as af
from anisofast.cli import (
    cmd_analyze,
    cmd_lemmas,
    cmd_report,
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


def test_cmd_report_merges(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("x,y\n1,2\n", encoding="utf-8")
    b.write_text("x,y\n3,4\n", encoding="utf-8")
    out = tmp_path / "merged.csv"
    cmd_report([str(a), str(b)], str(out))
    assert out.read_text(encoding="utf-8") == "x,y\n1,2\n3,4\n"
    c = tmp_path / "c.csv"
    c.write_text("z\n5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cmd_report([str(a), str(c)], str(out))


def test_main_cli_roundtrip(tmp_path):
    out = str(tmp_path / "cli_run")
    config_path = tmp_path / "campaign.cfg"
    config_path.write_text(FULL.format(out=out), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["analyze", "--config", str(config_path)]) == 0
    assert os.path.exists(os.path.join(out, "checks.csv"))
    assert main(["lemmas", "--out", str(tmp_path / "lem"), "--seed", "3"]) == 0
    merged = str(tmp_path / "merged.csv")
    assert (
        main(["report", os.path.join(out, "checks.csv"), "--out", merged]) == 0
    )
    assert os.path.exists(merged)


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("p = 1.5", "p = 3.0"), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
