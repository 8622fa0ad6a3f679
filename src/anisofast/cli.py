"""Configuration-driven campaigns: run simulations, execute checks, emit reports.

Config files are flat key=value text with [section] headers ('#' starts a
comment); a JSON document with the same schema is accepted interchangeably.
Sections and keys:

    [simulation]
      p            = 1.5            # N exponents in (1, 2], space separated
      half_domain  = 0.5            # N positive extents
      resolution   = 200            # N cell counts (>= 4)
      boundary     = dirichlet_zero # or periodic
      t_end        = 0.5            # required
      eps          = 1e-3           # default: smallest grid spacing
      safety       = 0.5            # CFL safety factor in (0, 1]
      snapshots    = 101            # snapshot count including t=0
      profile      = bump           # sine_product | bump | plateau | from_file
      amplitude    = 1.0
      radius       = 0.25
      path         = u0.f64         # from_file only

    [analysis]
      extinction_threshold = 1e-6   # relative to the initial sup
      decay_rho            = 0.1    # enables the decay reports
      check = l1l1 geometry=intrinsic rho=0.1 t=0.3 C=0      # repeatable
      check = lr_backward geometry=standard rho=0.1 t=0.3 r=2

    [output]
      directory = out

CSV output is RFC-4180 style with '.' decimal separator and LF line endings;
reruns of the same config produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import extinction, harnack, lemmas, solver
from .errors import BlowupError, ConfigError, DomainError, IngestionError
from .geometry import GEOMETRIES, derive_exponents
from .solver import InitialProfile, SimConfig, build_grid, uniform_snapshots

CHECK_KINDS = tuple(harnack.CHECKS)

_SIM_KEYS = {
    "p",
    "half_domain",
    "resolution",
    "boundary",
    "t_end",
    "eps",
    "safety",
    "snapshots",
    "profile",
    "amplitude",
    "radius",
    "path",
}
_ANALYSIS_KEYS = {"extinction_threshold", "decay_rho", "check"}
_OUTPUT_KEYS = {"directory"}


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    geometry: str
    rho: float
    t: float
    r: float | None = None
    C: float = 0.0


@dataclass(frozen=True)
class CampaignConfig:
    sim: SimConfig
    checks: tuple[CheckSpec, ...]
    threshold_rel: float
    decay_rho: float | None
    outdir: str


# --- parsing -------------------------------------------------------------------


def _parse_kv_document(text: str) -> dict:
    """Flat key=value lines under [section] headers -> nested dict."""
    doc: dict = {}
    section = None
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            doc.setdefault(section, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key == "check":
            doc[section].setdefault("check", [])
            doc[section]["check"].append(value)
        elif key in doc[section]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{section}]")
        else:
            doc[section][key] = value
    if errors:
        raise ConfigError(errors)
    return doc


def _floats(value, n=None, name=""):
    if isinstance(value, (int, float)):
        out = [float(value)]
    elif isinstance(value, (list, tuple)):
        out = [float(v) for v in value]
    else:
        out = [float(tok) for tok in str(value).split()]
    if n is not None and len(out) != n:
        raise ValueError(f"{name} must have {n} entries, got {len(out)}")
    return out


def _parse_check(value, violations) -> CheckSpec | None:
    if isinstance(value, dict):
        fields = {str(k).lower(): v for k, v in value.items()}
        kind = str(fields.pop("kind", "")).lower()
    else:
        tokens = str(value).split()
        if not tokens:
            violations.append("empty check entry")
            return None
        kind = tokens[0].lower()
        fields = {}
        for tok in tokens[1:]:
            if "=" not in tok:
                violations.append(f"check option {tok!r} is not key=value")
                return None
            k, v = tok.split("=", 1)
            fields[k.lower()] = v
    if kind not in CHECK_KINDS:
        violations.append(f"unknown check kind {kind!r}; expected one of {CHECK_KINDS}")
        return None
    try:
        geometry = str(fields.pop("geometry", "intrinsic")).lower()
        rho = float(fields.pop("rho"))
        t = float(fields.pop("t"))
        r = float(fields.pop("r")) if "r" in fields else None
        C = float(fields.pop("c", 0.0))
    except KeyError as missing:
        violations.append(f"check {kind!r} is missing required option {missing}")
        return None
    except (TypeError, ValueError) as exc:
        violations.append(f"check {kind!r}: {exc}")
        return None
    if fields:
        violations.append(f"check {kind!r} has unknown options {sorted(fields)}")
        return None
    if geometry not in GEOMETRIES:
        violations.append(f"check {kind!r}: geometry must be one of {GEOMETRIES}")
        return None
    if not 0.0 < rho < math.inf:  # NaN fails every comparison
        violations.append(f"check {kind!r}: rho must be positive and finite, got {rho!r}")
    if not 0.0 < t < math.inf:
        violations.append(f"check {kind!r}: t must be positive and finite, got {t!r}")
    r_problem = harnack.CHECKS[kind].r_violation(r)
    if r_problem:
        violations.append(f"check {kind!r}: {r_problem}")
    if not 0.0 <= C < math.inf:
        violations.append(f"check {kind!r}: C must be nonnegative and finite, got {C!r}")
    return CheckSpec(kind=kind, geometry=geometry, rho=rho, t=t, r=r, C=C)


def parse_config(text: str) -> CampaignConfig:
    """Parse and validate a campaign config; collects every violation found."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"invalid JSON: {exc}"]) from exc
    else:
        doc = _parse_kv_document(text)

    violations: list[str] = []

    def number(values: dict, key: str, default, kind=float):
        """values[key] converted by `kind`, or `default` when absent; None if invalid."""
        if key not in values:
            return default
        try:
            return kind(values[key])
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a number"
            violations.append(f"{key} must be {what}, got {values[key]!r}")
            return None

    for section in doc:
        if section not in ("simulation", "analysis", "output"):
            violations.append(f"unknown section [{section}]")
    sim = dict(doc.get("simulation", {}))
    ana = dict(doc.get("analysis", {}))
    out = dict(doc.get("output", {}))
    for key in sim:
        if key not in _SIM_KEYS:
            violations.append(f"unknown key {key!r} in [simulation]")
    for key in ana:
        if key not in _ANALYSIS_KEYS:
            violations.append(f"unknown key {key!r} in [analysis]")
    for key in out:
        if key not in _OUTPUT_KEYS:
            violations.append(f"unknown key {key!r} in [output]")

    # exponents determine the dimension
    prof = None
    try:
        p_list = _floats(sim["p"], name="p")
        prof = derive_exponents(p_list, len(p_list))
    except KeyError:
        violations.append("missing required key 'p' in [simulation]")
    except (DomainError, ValueError) as exc:
        violations.append(f"p: {exc}")

    grid = None
    if prof is not None:
        try:
            half = _floats(sim["half_domain"], prof.N, "half_domain")
            res = [int(v) for v in _floats(sim["resolution"], prof.N, "resolution")]
            grid = build_grid(half, res, str(sim.get("boundary", "dirichlet_zero")))
        except KeyError as missing:
            violations.append(f"missing required key {missing} in [simulation]")
        except ConfigError as exc:
            violations.extend(exc.violations)
        except ValueError as exc:
            violations.append(str(exc))

    if "t_end" not in sim:
        violations.append("missing required key 't_end' in [simulation]")
    t_end = number(sim, "t_end", 0.0)
    if t_end is not None and t_end < 0.0:
        violations.append(f"t_end must be nonnegative, got {t_end}")

    profile = None
    amplitude = number(sim, "amplitude", 1.0)
    radius = number(sim, "radius", 0.25)
    if amplitude is not None and radius is not None:
        try:
            profile = InitialProfile(
                kind=str(sim.get("profile", "bump")),
                amplitude=amplitude,
                radius=radius,
                path=sim.get("path"),
            )
        except ConfigError as exc:
            violations.extend(exc.violations)

    eps = number(sim, "eps", min(grid.spacings) if grid else 0.0)
    safety = number(sim, "safety", 0.5)
    snapshots = number(sim, "snapshots", 101, int)

    threshold_rel = number(ana, "extinction_threshold", 1e-6)
    if threshold_rel is not None and threshold_rel <= 0.0:
        violations.append("extinction_threshold must be positive")
    decay_rho = number(ana, "decay_rho", None)
    if decay_rho is not None and decay_rho <= 0.0:
        violations.append("decay_rho must be positive")

    checks = []
    for entry in ana.get("check", []) or []:
        spec = _parse_check(entry, violations)
        if spec is not None:
            checks.append(spec)
            if t_end is not None and spec.t > t_end:
                violations.append(
                    f"check {spec.kind!r}: t={spec.t} exceeds t_end={t_end}"
                )

    sim_config = None
    if grid is not None and prof is not None and profile is not None and not violations:
        try:
            sim_config = SimConfig(
                grid=grid,
                profile=profile,
                exponents=prof,
                eps=eps,
                t_end=t_end,
                safety=safety,
                snapshot_times=uniform_snapshots(t_end, snapshots),
            )
        except ConfigError as exc:
            violations.extend(exc.violations)

    if violations or sim_config is None:
        raise ConfigError(violations or ["incomplete configuration"])
    return CampaignConfig(
        sim=sim_config,
        checks=tuple(checks),
        threshold_rel=threshold_rel,
        decay_rho=decay_rho,
        outdir=str(out.get("directory", "out")),
    )


def load_config(path: str) -> CampaignConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# --- CSV helpers ----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 too, whose repr is "np.float64(...)"
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# --- commands --------------------------------------------------------------------


def cmd_run(config: CampaignConfig, outdir: str | None = None) -> str:
    """Run the simulation and persist the trajectory; returns the run directory."""
    run_dir = outdir or config.outdir
    os.makedirs(run_dir, exist_ok=True)
    traj = solver.run(config.sim)
    solver.save_trajectory(traj, os.path.join(run_dir, "trajectory"))
    return run_dir


_CHECK_DISPATCH = {
    "l1l1": lambda traj, s: harnack.check_l1l1(traj, s.rho, s.t, s.geometry, s.C),
    "l1linf": lambda traj, s: harnack.check_l1linf(traj, s.rho, s.t, s.geometry, s.C),
    "lr_sup": lambda traj, s: harnack.check_lr_sup(traj, s.rho, s.t, s.r, s.geometry, s.C),
    "lr_backward": lambda traj, s: harnack.check_lr_backward(
        traj, s.rho, s.t, s.r, s.geometry, s.C
    ),
    "composite": lambda traj, s: harnack.check_backwards_composite(
        traj, s.rho, s.t, s.r, s.geometry, s.C
    ),
}

_CHECK_HEADER = [
    "theorem",
    "geometry",
    "rho",
    "t",
    "r",
    "C",
    "applicable",
    "lhs",
    "rhs_total",
    "gamma_min",
    "smallness_triggered",
    "smallness_index",
    "hypothesis_ok",
    "snapshots_in_window",
    "p",
    "eps",
    "resolution",
    "boundary",
    "reason",
]

# the columns of decay_report.csv, each an attribute of extinction.DecayReport
_DECAY_HEADER = [
    "geometry",
    "t_star",
    "threshold",
    "n_points",
    "mass_slope",
    "mass_stderr",
    "mass_r_squared",
    "mass_theory",
    "mass_applicable",
    "sup_slope",
    "sup_stderr",
    "sup_r_squared",
    "sup_theory",
    "sup_applicable",
    "containment_fraction",
    "reason",
]


def _check_row(report: harnack.InequalityReport, traj) -> list:
    params = report.params
    return [
        report.theorem,
        params.get("geometry", ""),
        params.get("rho", ""),
        params.get("t", ""),
        params.get("r", ""),
        params.get("C", ""),
        report.applicable,
        report.lhs,
        report.rhs_total if report.applicable else float("nan"),
        report.gamma_min,
        report.smallness_triggered,
        report.smallness_index,
        report.hypothesis_ok,
        report.snapshots_in_window,
        " ".join(repr(x) for x in traj.exponents.p),
        traj.eps,
        " ".join(str(n) for n in traj.grid.resolution),
        traj.grid.boundary,
        report.reason,
    ]


def _finite_or_null(value):
    """Replace every non-finite float in nested lists and dicts by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


def cmd_analyze(run_dir: str, config: CampaignConfig) -> dict:
    """Execute the configured checks on a persisted run; returns output paths."""
    traj_dir = os.path.join(run_dir, "trajectory")
    traj = solver.load_trajectory(traj_dir)
    outputs = {}

    rows = []
    manifests = []
    for spec in config.checks:
        report = _CHECK_DISPATCH[spec.kind](traj, spec)
        rows.append(_check_row(report, traj))
        manifests.append(dict(vars(report)))  # every field of the report
    checks_csv = os.path.join(run_dir, "checks.csv")
    _write_csv(checks_csv, _CHECK_HEADER, rows)
    outputs["checks"] = checks_csv
    manifest_path = os.path.join(run_dir, "checks.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(manifests), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    outputs["checks_manifest"] = manifest_path

    summary_rows = [["check:" + row[0], _fmt(row[9])] for row in rows]
    if config.decay_rho is not None:
        prof = traj.exponents
        threshold = config.threshold_rel * traj.initial.sup()
        t_star = extinction.detect_extinction(traj, threshold)
        if t_star is None:
            raise DomainError(
                "decay analysis requested but the run never crosses the "
                f"extinction threshold {threshold!r}"
            )
        samples = extinction.decay_samples(traj, prof, config.decay_rho, t_star, threshold)
        sample_rows = [
            [
                samples.tau[i],
                samples.remaining[i],
                samples.mass_intrinsic[i],
                samples.sup_intrinsic[i],
                samples.mass_standard[i],
                samples.sup_standard[i],
                bool(samples.contained[i]),
                bool(samples.in_window[i]),
            ]
            for i in range(samples.tau.size)
        ]
        samples_csv = os.path.join(run_dir, "decay_samples.csv")
        _write_csv(
            samples_csv,
            [
                "tau",
                "remaining",
                "mass_intrinsic",
                "sup_intrinsic",
                "mass_standard",
                "sup_standard",
                "contained_4rho",
                "in_window",
            ],
            sample_rows,
        )
        outputs["decay_samples"] = samples_csv

        decay_rows = []
        for geometry in GEOMETRIES:
            report = extinction._fit_decay(samples, prof, t_star, threshold, geometry)
            decay_rows.append([getattr(report, name) for name in _DECAY_HEADER])
            for quantity in ("mass", "sup"):
                slope = getattr(report, f"{quantity}_slope")
                theory = getattr(report, f"{quantity}_theory")
                item = f"decay:{geometry}:{quantity}"
                summary_rows.append([item, _fmt(slope) + " vs " + _fmt(theory)])
        decay_csv = os.path.join(run_dir, "decay_report.csv")
        _write_csv(decay_csv, _DECAY_HEADER, decay_rows)
        outputs["decay_report"] = decay_csv

    summary_csv = os.path.join(run_dir, "summary.csv")
    _write_csv(summary_csv, ["item", "value"], summary_rows)
    outputs["summary"] = summary_csv
    return outputs


def cmd_lemmas(seed: int, outdir: str) -> str:
    """Randomized lemma campaigns; deterministic for a fixed seed."""
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []

    # Young inequality over random (a, b) pairs and several (eps, q) choices
    trials, failures, worst = 0, 0, 0.0
    for q, eps in ((1.3, 0.1), (1.7, 0.05), (2.0, 0.5), (3.0, 1.0)):
        gamma = lemmas.young_gamma(eps, q)
        qp = lemmas.young_conjugate(q)
        a = rng.uniform(0.0, 10.0, size=25000) + 1e-12
        b = rng.uniform(0.0, 10.0, size=25000) + 1e-12
        margin = eps * a**q + gamma * b**qp - a * b
        scale = np.maximum(a * b, 1.0)
        trials += a.size
        failures += int((margin < -1e-12 * scale).sum())
        worst = min(worst, float((margin / scale).min()))
    rows.append(["young_inequality", trials, failures, worst])

    # fast geometric convergence at 0.99x the smallness threshold
    trials, failures = 0, 0
    for _ in range(1000):
        C = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(1.1, 8.0))
        alpha = float(rng.uniform(0.1, 2.0))
        y0 = 0.99 * C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
        result = lemmas.fast_convergence(C, b, alpha, y0, n_max=200)
        trials += 1
        failures += 0 if result.converged else 1
    rows.append(["fast_convergence_threshold", trials, failures, 0.0])

    # iteration bound on synthetic admissible sequences
    trials, failures, worst = 0, 0, 0.0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 0.9))
        b = float(rng.uniform(1.01, min(8.0, 0.95 / eps)))
        inhom = float(rng.uniform(0.5, 10.0))
        bound = lemmas.iteration_bound(eps, b, inhom, M=1.0)
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

    path = os.path.join(outdir, "lemmas.csv")
    _write_csv(path, ["campaign", "trials", "failures", "extreme"], rows)
    return path


# --- argparse entry point ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisofast",
        description="anisotropic fast-diffusion runs and inequality campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation and persist the trajectory")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--verbose", action="store_true")

    p_an = sub.add_parser("analyze", help="evaluate checks on a persisted run")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--out", default=None, help="run directory (default: config output)")
    p_an.add_argument("--verbose", action="store_true")

    p_lm = sub.add_parser("lemmas", help="randomized lemma campaigns")
    p_lm.add_argument("--out", default="out")
    p_lm.add_argument("--seed", type=int, default=0)
    p_lm.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            run_dir = cmd_run(config, args.out)
            if args.verbose:
                print(f"run complete: {run_dir}")
        elif args.command == "analyze":
            config = load_config(args.config)
            outputs = cmd_analyze(args.out or config.outdir, config)
            if args.verbose:
                for name, path in outputs.items():
                    print(f"{name}: {path}")
        elif args.command == "lemmas":
            path = cmd_lemmas(args.seed, args.out)
            if args.verbose:
                print(f"lemma campaign: {path}")
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except BlowupError as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        return 1
    except (DomainError, IngestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
