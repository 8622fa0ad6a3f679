"""Configuration-driven campaigns: run simulations, execute checks, emit reports.

Config files are flat key=value text with [section] headers ('#' starts a
comment); a JSON document with the same schema is accepted interchangeably.
Sections and keys; a key marked "required" must be given, and any other key
takes the value shown here when it is absent (<none>: no value):

    [simulation]
      p            = 1.5            # required: N exponents in (1, 2], space separated
      half_domain  = 0.5            # required: N positive extents
      resolution   = 200            # required: N cell counts (>= 4)
      boundary     = dirichlet_zero # or periodic
      t_end        = 0.5            # required
      eps          = <none>         # then the smallest grid spacing
      safety       = 0.5            # CFL safety factor in (0, 1]
      snapshots    = 101            # snapshot count including t=0
      profile      = bump           # sine_product | bump | plateau | from_file
      amplitude    = 1.0
      radius       = 0.25
      path         = <none>         # the datum file of from_file

    [analysis]
      extinction_threshold = 1e-6   # relative to the initial sup
      decay_rho            = <none> # enables the decay reports
      check = lr_backward geometry=standard rho=0.1 t=0.3 r=2 # repeatable; none by default

    [output]
      directory = out

A check is its kind (l1l1, l1linf, lr_sup, lr_backward or composite) and
key=value options (harnack.CHECK_OPTIONS), each at most once; json.loads keeps
only the last of a repeated key in a JSON check.  l1l1 and l1linf take no r:

    check options
      geometry = intrinsic          # or standard
      rho      = 0.1                # required: positive and finite
      t        = 0.3                # required: positive and finite, <= t_end
      r        = <none>             # lr_sup: r >= 1; lr_backward, composite: r > 1
      C        = 0                  # nonnegative and finite

CSV output is RFC-4180 style with '.' decimal separator and LF line endings;
reruns of the same config produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, make_dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import extinction, harnack, lemmas, solver
from .errors import BlowupError, ConfigError, DomainError, IngestionError
from .geometry import _BOOLS, _real, _violation, derive_exponents
from .solver import (
    InitialProfile, SimConfig, _integer, _range_violations, build_grid, uniform_snapshots
)

CHECK_KINDS = tuple(harnack.CHECKS)

_REQUIRED = harnack._REQUIRED  # one mark for a required key and a required check option

#: each config section's keys and their defaults, as the docstring lists them;
#: _REQUIRED marks a key that must be given, None one without a default, and a
#: tuple a key that may repeat
_CONFIG = {
    "simulation": {
        "p": _REQUIRED,
        "half_domain": _REQUIRED,
        "resolution": _REQUIRED,
        "boundary": "dirichlet_zero",
        "t_end": _REQUIRED,
        "eps": None,
        "safety": SimConfig.safety,
        "snapshots": solver.DEFAULT_SNAPSHOTS,
        "profile": "bump",
        "amplitude": InitialProfile.amplitude,
        "radius": InitialProfile.radius,
        "path": None,
    },
    "analysis": {"extinction_threshold": 1e-6, "decay_rho": None, "check": ()},
    "output": {"directory": "out"},
}
_REPEATED = {key for keys in _CONFIG.values() for key, d in keys.items() if isinstance(d, tuple)}
_OPTION_NAMES = {name.lower(): name for name in harnack.CHECK_OPTIONS}  # options read case-blind


CheckSpec = make_dataclass(  # one configured check: its kind and each harnack.CHECK_OPTIONS value
    "CheckSpec", ["kind", *harnack.CHECK_OPTIONS], frozen=True, namespace={"__module__": __name__}
)


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
        if key in _REPEATED:
            doc[section].setdefault(key, []).append(value)
        elif key in doc[section]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{section}]")
        else:
            doc[section][key] = value
    if errors:
        raise ConfigError(errors)
    return doc


def _floats(value, name: str) -> list[float]:
    """One float per axis: a number, a list of numbers or space-separated text."""
    if isinstance(value, str):
        value = value.split()
    elif not isinstance(value, (list, tuple)):
        value = [value]  # one number, or a value the rule names
    try:
        return [_real(v, name) for v in value]
    except TypeError:  # [[1.5]], 'abc'; a JSON int past 1e308
        raise TypeError(f"{name} entries must be numbers, got {value!r}") from None


#: each numeric config key and its reader, in the order their violations are named
_NUMBERS = dict.fromkeys(["p", "half_domain", "resolution"], _floats)  # build_grid rejects 32.7
_NUMBERS |= dict.fromkeys(["t_end", "amplitude", "radius", "eps", "safety"], _real)
_NUMBERS |= {"snapshots": _integer, "extinction_threshold": _real, "decay_rho": _real}


def _parse_check(value, violations, t_end) -> CheckSpec | None:
    """One check entry as a CheckSpec, or None once its violations are added; the
    options, their defaults and their rules are harnack's (CHECK_OPTIONS)."""
    if isinstance(value, dict):  # json.loads kept the last of a repeated key
        pairs = [(str(k).lower(), v) for k, v in value.items()]
        kind = str(dict(pairs).get("kind", "")).lower()
        pairs = [(k, v) for k, v in pairs if k != "kind"]
    else:
        tokens = str(value).split()
        bad = [f"check option {tok!r} is not key=value" for tok in tokens[1:] if "=" not in tok]
        if bad or not tokens:
            violations += bad or ["empty check entry"]
            return None
        kind = tokens[0].lower()
        pairs = [(k.lower(), v) for k, v in (tok.split("=", 1) for tok in tokens[1:])]
    if kind not in CHECK_KINDS:
        violations.append(f"unknown check kind {kind!r}; expected one of {CHECK_KINDS}")
        return None
    where, given, found = f"check {kind!r}", {}, []
    for key, v in pairs:
        name = _OPTION_NAMES.get(key, key)
        if name in given:
            found.append(f"{where}: duplicate option {name!r}")
        given[name] = v
    values = {}  # the options to judge: one that is missing or did not parse is not
    for name, default in harnack.CHECK_OPTIONS.items():
        if name in given:
            raw = given.pop(name)
            try:
                values[name] = str(raw).lower() if isinstance(default, str) else _real(raw, name)
            except TypeError as exc:
                found.append(f"{where}: {exc}")
        elif default is _REQUIRED:
            found.append(f"{where} is missing required option {name!r}")
        else:
            values[name] = default
    if given:
        found.append(f"{where} has unknown options {sorted(given)}")
    found += [f"{where}: {rule}" for rule in harnack.option_violations(kind, values)]
    t = values.get("t", math.nan)  # a NaN or an inf t breaks its own rule, named above
    if t_end is not None and t < math.inf and solver._past_horizon(t, t_end):
        found.append(f"{where}: t={t} exceeds t_end={t_end}")
    violations += found
    return None if found else CheckSpec(kind, **values)


def parse_config(text: str) -> CampaignConfig:
    """Parse and validate a campaign config; collects every violation found."""
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int literal of over 4300 digits
            raise ConfigError([f"invalid JSON: {exc}"]) from exc
    else:
        doc = _parse_kv_document(text)

    violations = [f"unknown section [{name}]" for name in doc if name not in _CONFIG]
    sections = []
    for name, keys in _CONFIG.items():
        given = doc.get(name, {})
        if not isinstance(given, dict):  # JSON: none of its keys can be read
            raise ConfigError([f"[{name}] must hold key = value entries, got {given!r}"])
        violations += [f"unknown key {key!r} in [{name}]" for key in given if key not in keys]
        for key, default in keys.items():
            if default is _REQUIRED and key not in given:
                violations.append(f"missing required key {key!r} in [{name}]")
        defaults = {key: d for key, d in keys.items() if d not in (None, _REQUIRED)}
        sections.append(defaults | given)  # a key without a default stays absent
    sim, ana, out = sections

    values, num = sim | ana, {}  # num: each numeric key that is given and reads
    for key, read in _NUMBERS.items():
        if key in values:
            try:
                num[key] = read(values[key], key)
            except TypeError as exc:
                violations.append(f"p: {exc}" if key == "p" else str(exc))

    prof = grid = None
    if "p" in num:  # the exponents determine the dimension
        try:
            prof = derive_exponents(num["p"], len(num["p"]))
        except DomainError as exc:
            violations.append(f"p: {exc}")
    if prof is not None:  # each list is judged on its own
        n, noun = prof.N, "entry" if prof.N == 1 else "entries"
        wrong = [key for key in ("half_domain", "resolution") if len(num.get(key, ())) != n]
        violations += [f"{k} must have {n} {noun}, got {len(num[k])}" for k in wrong if k in num]
        if not wrong:
            try:
                grid = build_grid(num["half_domain"], num["resolution"], str(sim["boundary"]))
            except ConfigError as exc:
                violations.extend(exc.violations)

    profile = None
    if "amplitude" in num and "radius" in num:
        try:
            profile = InitialProfile(
                str(sim["profile"]), num["amplitude"], num["radius"], sim.get("path")
            )
        except ConfigError as exc:
            violations.extend(exc.violations)

    scalars = ("t_end", "eps", "safety", "snapshots")  # before uniform_snapshots sees them
    violations += _range_violations(**{k: num[k] for k in scalars if k in num})
    ranged = [_violation(k, num[k]) for k in ("extinction_threshold", "decay_rho") if k in num]
    violations += filter(None, ranged)

    checks, entries = [], ana["check"] or ()
    if not isinstance(entries, (list, tuple)):  # a JSON string would be read per character
        violations.append(f"check must be a list of checks, got {entries!r}")
        entries = ()
    for entry in entries:
        spec = _parse_check(entry, violations, num.get("t_end"))
        if spec is not None:
            checks.append(spec)

    sim_config = None
    if grid is not None and profile is not None and not violations:
        try:
            sim_config = SimConfig(
                grid=grid,
                profile=profile,
                exponents=prof,
                eps=num.get("eps", min(grid.spacings)),
                t_end=num["t_end"],
                safety=num["safety"],
                snapshot_times=uniform_snapshots(num["t_end"], num["snapshots"]),
            )
        except ConfigError as exc:
            violations.extend(exc.violations)

    outdir = out["directory"]
    if not isinstance(outdir, str) or not outdir:
        violations.append(f"directory must be a path, got {outdir!r}")
    if violations:
        raise ConfigError(violations)
    threshold_rel, decay_rho = num["extinction_threshold"], num.get("decay_rho")
    return CampaignConfig(sim_config, tuple(checks), threshold_rel, decay_rho, outdir)


def load_config(path: str) -> CampaignConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# --- CSV helpers ----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, _BOOLS):
        return "true" if value else "false"
    if isinstance(value, float):  # np.float64 too, whose repr is "np.float64(...)"
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _fmt_column(column: np.ndarray) -> list[str]:
    """_fmt of each value of a float or boolean column, chosen once by its dtype."""
    fmt = ("false", "true").__getitem__ if column.dtype == bool else repr
    return list(map(fmt, column.tolist()))


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence], formatted=False) -> None:
    """Write the header and the rows, each value through _fmt unless already `formatted`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows if formatted else ([_fmt(v) for v in row] for row in rows))


# --- commands --------------------------------------------------------------------


def cmd_run(config: CampaignConfig, outdir: str | None = None) -> str:
    """Run the simulation and persist the trajectory; returns the run directory."""
    run_dir = outdir or config.outdir
    traj = solver.run(config.sim)
    solver.save_trajectory(traj, os.path.join(run_dir, "trajectory"))
    return run_dir


#: the public harnack function of each check kind, looked up at each call
_CHECK_FUNCTIONS = {
    "l1l1": "check_l1l1",
    "l1linf": "check_l1linf",
    "lr_sup": "check_lr_sup",
    "lr_backward": "check_lr_backward",
    "composite": "check_backwards_composite",
}


def _check(traj: solver.Trajectory, spec: CheckSpec) -> harnack.InequalityReport:
    """Run one check; its options go by keyword, r only when the kind takes one."""
    options = {k: getattr(spec, k) for k in harnack.CHECK_OPTIONS if k != "r" or spec.r is not None}
    return getattr(harnack, _CHECK_FUNCTIONS[spec.kind])(traj, **options)


#: the fields of a report that a row of checks.csv gives after the check's options
_MEASURED = (
    "applicable lhs rhs_total gamma_min smallness_triggered smallness_index "
    "hypothesis_ok snapshots_in_window"
).split()
_RUN = ["p", "eps", "resolution", "boundary"]  # the run each row echoes
_CHECK_HEADER = ["theorem", *harnack.CHECK_OPTIONS, *_MEASURED, *_RUN, "reason"]


def _check_row(report: harnack.InequalityReport, run: list) -> list:
    """One row of checks.csv; `run` holds the values of _RUN, and an unset option is blank."""
    options = [report.params.get(name, "") for name in harnack.CHECK_OPTIONS]
    measured = [getattr(report, name) for name in _MEASURED]
    return [report.theorem, *options, *measured, *run, report.reason]


def _json_value(value, pad: str) -> str:
    """value as json.dumps(..., indent=2, sort_keys=True) writes it at the indentation
    `pad` (a newline, two spaces a level), with null for a non-finite float.  A type
    checks.json does not hold, such as a list, is a TypeError instead of wrong JSON."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not isinstance(value, dict):
        raise TypeError(f"checks.json holds no {type(value).__name__}, got {value!r}")
    inner, items = pad + "  ", sorted(value.items())
    lines = [f"{inner}{encode_basestring_ascii(k)}: {_json_value(v, inner)}" for k, v in items]
    return "{" + ",".join(lines) + pad + "}" if lines else "{}"


def _json_text(manifests: list[dict]) -> str:
    """json.dumps(manifests, indent=2, sort_keys=True, allow_nan=False) once each non-finite
    float is None, in one pass: with an indent, json runs its pure-Python encoder."""
    items = [_json_value(m, "\n  ") for m in manifests]
    return "[\n  " + ",\n  ".join(items) + "\n]" if items else "[]"


def cmd_analyze(run_dir: str, config: CampaignConfig) -> dict:
    """Execute the configured checks on a persisted run; returns output paths.  Every
    report and fit is computed before the first write, so the outputs form one set."""
    traj = solver.load_trajectory(os.path.join(run_dir, "trajectory"))
    reports = [_check(traj, spec) for spec in config.checks]
    if config.decay_rho is not None:
        threshold = config.threshold_rel * traj.initial.sup()
        samples, decay = extinction.decay_reports(traj, config.decay_rho, threshold)
    decay_csvs = {k: os.path.join(run_dir, f"{k}.csv") for k in ("decay_samples", "decay_report")}
    for path in decay_csvs.values():  # an earlier analysis's, unless written again below
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)

    p = " ".join(map(repr, traj.exponents.p))
    run = [p, traj.eps, " ".join(map(str, traj.grid.resolution)), traj.grid.boundary]  # _RUN
    outputs = {"checks": os.path.join(run_dir, "checks.csv")}
    _write_csv(outputs["checks"], _CHECK_HEADER, [_check_row(report, run) for report in reports])
    outputs["checks_manifest"] = os.path.join(run_dir, "checks.json")
    text = _json_text([vars(report) for report in reports])  # every field of each report
    with open(outputs["checks_manifest"], "w", encoding="utf-8") as fh:
        fh.write(text + "\n")

    summary_rows = [["check:" + report.theorem, report.gamma_min] for report in reports]
    if config.decay_rho is not None:
        outputs |= decay_csvs
        # the header of each decay CSV is the field list of the dataclass it reports
        columns = [f.name for f in fields(samples)]
        text = zip(*(_fmt_column(getattr(samples, name)) for name in columns))
        _write_csv(outputs["decay_samples"], columns, text, formatted=True)
        columns = [f.name for f in fields(extinction.DecayReport)]
        _write_csv(outputs["decay_report"], columns, [astuple(r) for r in decay])
        for report in decay:
            for quantity in ("mass", "sup"):
                slope = getattr(report, f"{quantity}_slope")
                theory = getattr(report, f"{quantity}_theory")
                item = f"decay:{report.geometry}:{quantity}"
                summary_rows.append([item, _fmt(slope) + " vs " + _fmt(theory)])

    outputs["summary"] = os.path.join(run_dir, "summary.csv")
    _write_csv(outputs["summary"], ["item", "value"], summary_rows)
    return outputs


def cmd_lemmas(seed: int, outdir: str) -> str:
    """Randomized lemma campaigns; deterministic for a fixed seed."""
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = [_young_campaign(rng), _fast_convergence_campaign(rng), _iteration_bound_campaign(rng)]
    path = os.path.join(outdir, "lemmas.csv")
    _write_csv(path, ["campaign", "trials", "failures", "extreme"], rows)
    return path


def _young_campaign(rng: np.random.Generator) -> list:
    """Young's inequality over random (a, b) pairs and several (eps, q) choices."""
    trials, failures, worst = 0, 0, 0.0
    for q, eps in ((1.3, 0.1), (1.7, 0.05), (2.0, 0.5), (3.0, 1.0)):
        gamma = lemmas.young_gamma(eps, q)
        qp = lemmas.young_conjugate(q)
        a = rng.uniform(0.0, 10.0, size=25000)
        a += 1e-12
        b = rng.uniform(0.0, 10.0, size=25000)
        b += 1e-12
        # margin = eps a^q + gamma b^q' - a b, left to right, in place
        margin = a**q
        margin *= eps
        scale = b**qp
        scale *= gamma
        margin += scale
        np.multiply(a, b, out=scale)
        margin -= scale
        np.maximum(scale, 1.0, out=scale)
        trials += a.size
        failures += int((margin < -1e-12 * scale).sum())
        margin /= scale
        worst = min(worst, float(margin.min()))
    return ["young_inequality", trials, failures, worst]


def _fast_convergence_campaign(rng: np.random.Generator) -> list:
    """Fast geometric convergence at 0.99x the smallness threshold, the draws in lock step."""
    C, b, alpha = rng.uniform((0.1, 1.1, 0.1), (10.0, 8.0, 2.0), size=(1000, 3)).T
    y0 = 0.99 * C ** (-1.0 / alpha) * b ** (-1.0 / alpha**2)
    converged = lemmas._fast_convergence_lanes(C, b, alpha, y0, n_max=200)
    return ["fast_convergence_threshold", C.size, C.size - int(converged.sum()), 0.0]


class _Sequence(NamedTuple):
    """One synthetic admissible sequence: its constants, its first row of draws, y_horizon."""

    horizon: int
    row: int
    eps: float
    b: float
    inhom: float
    bound: float
    m_cap: float
    y: np.ndarray


#: rows of 100 uniforms one chunk of sequences may draw (900 KiB; no sequence
#: needs more than log(1e-14) / log(0.9) < 307)
_CHUNK_ROWS = 1152


def _iteration_bound_campaign(rng: np.random.Generator) -> list:
    """The iteration bound on 100 synthetic admissible sequences of 100 paths each.

    A sequence starts from y uniform on [0, m_cap) and runs
    y <- U min(m_cap, eps y + I b^n) for n = horizon-1 .. 0, U uniform on
    [0, 1).  Consecutive sequences draw, in stream order, into one buffer
    until the next would not fit; then that chunk runs at once.
    """
    draws = np.empty((_CHUNK_ROWS, 100))
    outcomes, chunk, used = [], [], 0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 0.9))
        b = float(rng.uniform(1.01, min(8.0, 0.95 / eps)))
        inhom = float(rng.uniform(0.5, 10.0))
        bound = lemmas.iteration_bound(eps, b, inhom, M=1.0)
        horizon = max(8, int(np.ceil(np.log(1e-14) / np.log(eps))))
        if used + horizon > _CHUNK_ROWS:
            outcomes.append(_run_chunk(chunk, draws))
            chunk, used = [], 0
        m_cap = 100.0 * bound
        y = rng.uniform(0.0, m_cap, size=100)
        rng.random(out=draws[used : used + horizon])
        chunk.append(_Sequence(horizon, used, eps, b, inhom, bound, m_cap, y))
        used += horizon
    outcomes.append(_run_chunk(chunk, draws))
    paths, failures, worst = zip(*outcomes)
    return ["iteration_bound", sum(paths), sum(failures), max(0.0, *worst)]


def _run_chunk(chunk: list[_Sequence], draws: np.ndarray) -> tuple[int, int, float]:
    """Run a chunk of sequences to n = 0; (paths, paths above the slack, max y/bound).

    The sequences are aligned at their first step and sorted by horizon, so
    those still running are a prefix.  `rows` (each sequence's row of `draws`)
    and `terms` (its I b^n) are laid out by (step, sequence), so a step is
    five numpy calls on views made before the loop.
    """
    chunk = sorted(chunk, key=lambda s: -s.horizon)  # stable: ties keep stream order
    h = np.array([s.horizon for s in chunk])
    running = np.searchsorted(-h, -np.arange(h[0])).tolist()  # sequences with horizon > k
    rows = np.array([s.row for s in chunk]) + np.arange(h[0])[:, None]
    terms = np.empty((h[0], len(chunk), 1))  # a sequence's entries past its horizon stay unread
    for j, s in enumerate(chunk):
        terms[: s.horizon, j, 0] = [s.inhom * s.b**n for n in range(s.horizon - 1, -1, -1)]
    y = np.array([s.y for s in chunk])
    eps = np.repeat([[s.eps] for s in chunk], 100, axis=1)  # full rows: no broadcasting
    m_cap = np.repeat([[s.m_cap] for s in chunk], 100, axis=1)
    cap, u = np.empty_like(y), np.empty_like(y)
    lead = {n: (y[:n], eps[:n], cap[:n], m_cap[:n], u[:n]) for n in set(running)}
    steps = [lead[n] + (terms[k, :n], rows[k, :n]) for k, n in enumerate(running)]
    for ys, e, c, m, v, t, r in steps:
        np.multiply(ys, e, out=c)
        np.add(c, t, out=c)
        np.minimum(c, m, out=c)
        draws.take(r, 0, v, "clip")  # every row is in range; "clip" is the cheaper mode
        np.multiply(v, c, out=ys)
    bound = np.array([s.bound for s in chunk])[:, None]
    slack = np.array([s.bound + s.eps**s.horizon * s.m_cap for s in chunk])[:, None]
    return y.size, int((y > slack).sum()), float((y / bound).max())


# --- argparse entry point ---------------------------------------------------------


@functools.cache  # one parser per process: building it costs ten times a parse
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
            lines = [f"run complete: {cmd_run(load_config(args.config), args.out)}"]
        elif args.command == "analyze":
            config = load_config(args.config)
            outputs = cmd_analyze(args.out or config.outdir, config)
            lines = [f"{name}: {path}" for name, path in outputs.items()]
        else:
            lines = [f"lemma campaign: {cmd_lemmas(args.seed, args.out)}"]
        if args.verbose:
            print(*lines, sep="\n")
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
