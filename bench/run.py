#!/usr/bin/env python3
"""Campaign benchmark for anisofast: run -> analyze campaigns, timed end to end.

    python3 bench/run.py --workload extinction_1d --seed 0 --seconds 20 --trace 0

One process, one client, closed loop: campaigns run back to back until
--seconds have passed (at least one; two with --trace 1).  Each campaign is
gated by its workload's correctness checks, including byte-identical outputs
across the campaigns of one run; a campaign that exits non-zero, raises or
fails a check counts as failed.

--trace 0 prints the end-to-end metrics, corrected for host speed (see
HostSampler).  Set-up (process start, imports, input generation, config
parse, and for harnack_2d the solver run that stores the analysed
trajectory) is repeated in fresh child processes and reported as a median.  --trace 1 sets up once in process and alternates
untraced and traced campaigns; it prints the per-layer metrics from the
spans (see tracer.py) and the tracing overhead.

Every metric is printed as "<name> <value> <unit>"; the last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.  The run's
environment, every metric and the host reference loop go to
bench/_work/<workload>-seed<seed>-trace<k>.json; traced runs also write their
spans next to it.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the campaign is single-threaded and the host has 2 cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, "_work")

END_TO_END = {
    "campaign_s": "s",
    "run_s": "s",
    "analyze_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

CHECK_KINDS = {
    "check_l1l1": "l1l1",
    "check_l1linf": "l1linf",
    "check_lr_sup": "lr_sup",
    "check_lr_backward": "lr_backward",
    "check_backwards_composite": "composite",
}

# a layer's self time: the time its spans cover minus the time their child
# spans cover.  `cli.self_s` keeps the name the layer table in README.md gives it.
BUSY = {
    "solver": "solver.busy_s",
    "harnack": "harnack.busy_s",
    "extinction": "extinction.busy_s",
    "lemmas": "lemmas.busy_s",
    "geometry": "geometry.busy_s",
    "cli": "cli.self_s",
}

PER_LAYER = {
    "solver.busy_s": "s",
    "solver.run_s": "s",
    "solver.steps": "count",
    "solver.us_per_step": "us",
    "solver.ns_per_cell_step": "ns",
    "solver.save_s": "s",
    "solver.save_bytes": "bytes",
    "solver.save_files": "count",
    "solver.load_s": "s",
    "solver.load_bytes": "bytes",
    "solver.min_value_rel": "fraction",
    "solver.mass_drift": "fraction",
    "harnack.busy_s": "s",
    "harnack.checks": "count",
    "harnack.not_applicable": "count",
    **{f"harnack.check_ms.{kind}": "ms" for kind in CHECK_KINDS.values()},
    "harnack.cube_integral_calls": "count",
    "harnack.cube_sup_calls": "count",
    "harnack.cube_integral_us": "us",
    "extinction.busy_s": "s",
    "extinction.decay_samples_calls": "count",
    "extinction.fit_points": "count",
    "extinction.sup_slope_err": "fraction",
    "lemmas.busy_s": "s",
    "lemmas.caccioppoli_s": "s",
    "lemmas.sobolev_s": "s",
    "lemmas.campaign_s": "s",
    "geometry.busy_s": "s",
    "geometry.cubes_built": "count",
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh process, timed by the parent
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


# Timings are corrected for host speed.  The host's speed moves by up to 2x
# within a second and in phases of minutes, which no run length averages out.
# While a campaign or a set-up runs, a timer signal runs the workload's probe
# (PROBES) every PROBE_EVERY_S (HostSampler).  Each timing leaves out the
# probes' own time and is scaled by REF_PROBE_S / (the mean time of the probes
# that ran within one PROBE_EVERY_S of it), so the figures read as seconds on
# a host that runs the probe in REF_PROBE_S.  The medians without the scaling
# are printed as `<name>.wall`.
REF_PROBE_S = 0.002
PROBE_EVERY_S = 0.05
PROBES_PER_CHECK = 14


def probe_calls() -> float:
    """Per-call overhead, timed: numpy calls on a 32-element array, as in a
    1D solver step, and small Python objects, as in the analysis."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 32)
    for _ in range(430):
        y = np.sqrt(x * x + 1.0)
        x = y - np.floor(y)
    d = {}
    for i in range(2000):
        d[str(i)] = (i, float(i))
        min(i, 3)
    return time.perf_counter() - t0


def probe_arrays() -> float:
    """Per-element arithmetic, timed: numpy on 4096- and 96x96-element
    arrays and a plain Python loop."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(70):
        y = np.sqrt(x * x + 1.0)
        x = y - np.floor(y)
    u = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
    w = np.linspace(0.5, 1.0, 96)
    for _ in range(15):
        float((np.maximum(u, 0.0) ** 2.0 * w[:, None] * w[None, :]).sum())
    k = 0
    for i in range(5_350):
        k += i * i % 7
    return time.perf_counter() - t0


# Which probe tracks a workload's speed: over one run of campaigns on a 2-core VM
# drifting host, log(campaign time) against log(probe time) has a slope near 1
# for these pairings (0.93-0.96 on extinction_1d, 0.85-0.91 on harnack_2d,
# 0.85-1.14 on periodic_3d) and correlation 0.95-0.98.
PROBES = {"calls": probe_calls, "arrays": probe_arrays}


def host_check(probe) -> float:
    """The reference loop `host.ref_loop_s`: the mean of PROBES_PER_CHECK
    probes in a row."""
    return statistics.fmean(probe() for _ in range(PROBES_PER_CHECK))


class HostSampler:
    """While entered, runs `probe` every PROBE_EVERY_S from a timer signal
    and keeps each probe's (start, end) on the perf_counter clock."""

    def __init__(self, probe):
        self.probe = probe
        self.probes: list[tuple[float, float]] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.probe()
        self.probes.append((t0, time.perf_counter()))

    def __enter__(self):
        self.probes = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def probe_time(self, start: float, end: float) -> float:
        """The time probes took inside [start, end]."""
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.probes)

    def host_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """The mean time of the probes within one PROBE_EVERY_S of [start, end],
        else of all probes; one probe now if the timer never fired."""
        near = [
            b - a for a, b in self.probes if a >= start - PROBE_EVERY_S and b <= end + PROBE_EVERY_S
        ]
        return statistics.fmean(near or [b - a for a, b in self.probes] or [self.probe()])

    def measure(self, marks: dict) -> tuple[dict, dict]:
        """(start, end) marks as durations without the probes' time, and the
        host speed (mean probe time) during each."""
        timings = {k: b - a - self.probe_time(a, b) for k, (a, b) in marks.items()}
        return timings, {k: self.host_s(a, b) for k, (a, b) in marks.items()}


def host_scaled(timings: dict, host: dict) -> dict:
    """Timings scaled to the reference host speed (see REF_PROBE_S)."""
    return {k: v * REF_PROBE_S / host[k] for k, v in timings.items()}


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def setup_child(args) -> int:
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, args.setup_only)
    with HostSampler(PROBES[w.setup_probe]) as sampler:
        marks = w.setup()
    timings, host = sampler.measure(marks)
    # setup_s runs from the parent's start of this process to here
    host["setup_s"] = sampler.host_s()
    info = {
        "timings": timings,
        "host": host,
        "setup_end": time.monotonic(),
        "probes_s": sampler.probe_time(-math.inf, math.inf),
    }
    print(json.dumps(info))
    return 0


def measure_setup(args, workdir: str, reps: int) -> list[dict]:
    """Set up `reps` times, each in a fresh interpreter; setup_s from its start
    to the end of set-up, less the probes' time.  Each sample carries the
    host speed (mean probe time) in the child."""
    samples = []
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only", workdir,
    ]
    for _ in range(reps):
        start = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        info["timings"]["setup_s"] = info["setup_end"] - start - info["probes_s"]
        samples.append(info)
    return samples


def run_campaign(w, index: int, tracer, sampler, reference: list) -> dict:
    """One gated campaign; reference[0] holds the first campaign's output digest.
    A traced campaign runs inside `tracer`, an untraced one inside `sampler`
    unless that is None (the traced run leaves its untraced campaigns as they
    are, so that the tracing overhead compares like with like)."""
    w.prepare()
    record = {"index": index, "traced": tracer is not None, "timings": {}}
    problems = []
    try:
        with tracer.campaign(index) if tracer else sampler or contextlib.nullcontext():
            marks, problems = w.campaign()
        if tracer is None and sampler is not None:
            record["timings"], record["host"] = sampler.measure(marks)
        else:
            record["timings"] = {k: b - a for k, (a, b) in marks.items()}
        digest, more = w.check()
        problems += more
        if not reference:
            reference.append(digest)
        elif digest != reference[0]:
            problems.append("outputs differ from the first campaign of this run")
    except Exception as exc:  # the loop keeps running; the campaign counts as failed
        traceback.print_exc()
        problems.append(f"raised {exc!r}")
    for problem in problems:
        print(f"campaign {index}: {problem}", file=sys.stderr)
    record["problems"] = problems
    return record


def tail_percentile(values):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def end_to_end_metrics(records, setups, scale) -> dict:
    """The end-to-end metrics; `scale` maps (timings, host) to the timings to
    report, so that the same code gives the corrected and the wall figures."""
    timed = [scale(r["timings"], r["host"]) for r in records if "host" in r]
    setup = [scale(r["timings"], r["host"]) for r in setups]

    def series(key, rows):
        return [r[key] for r in rows if key in r]

    run_s = series("run_s", timed) or series("run_s", setup)
    return {
        "campaign_s": median(series("campaign_s", timed)),
        "run_s": median(run_s),
        "analyze_s": median(series("analyze_s", timed)),
        "setup_s": median(series("setup_s", setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(w, spans, records) -> tuple[dict, dict]:
    """Per-layer metrics of the traced campaigns, and each layer's share of
    campaign time (its self time over the campaign span)."""
    from tracer import CAMPAIGN, END, LAYER, LAYERS, NAME, PARENT, READ, START, self_times
    from workloads import read_csv, tree_size

    own = self_times(spans)
    traced = {r["index"] for r in records if r["traced"]}
    per = {c: {} for c in traced}  # campaign -> metric -> summed value
    calls: dict[str, list[float]] = {}  # span name -> inclusive durations, all campaigns
    for s, self_s in zip(spans, own):
        dur = s[END] - s[START]
        calls.setdefault(s[NAME], []).append(dur)
        acc = per.get(s[CAMPAIGN])
        if acc is None:
            continue
        for key, value in (
            (f"self:{s[LAYER]}", self_s),
            (f"n:{s[NAME]}", 1),
            (f"t:{s[NAME]}", dur),
            ("trace.spans", 1),
        ):
            acc[key] = acc.get(key, 0) + value
        if s[PARENT] < 0:
            acc["campaign"] = dur

    def med(fn):
        return median([fn(acc) for acc in per.values()])

    m, shares = {}, {}
    for layer in LAYERS:
        m[BUSY[layer]] = med(lambda a: a.get(f"self:{layer}", 0.0))
        shares[f"{layer}.self_share"] = med(lambda a: a.get(f"self:{layer}", 0.0) / a["campaign"])

    manifest = w.manifest()
    steps = manifest["steps"]
    cells = math.prod(manifest["resolution"])
    files, size = tree_size(w.trajectory_dir())
    m["solver.run_s"] = median(calls.get("solver.run", []))
    m["solver.steps"] = steps
    m["solver.us_per_step"] = m["solver.run_s"] / steps * 1e6
    m["solver.ns_per_cell_step"] = m["solver.run_s"] / (steps * cells) * 1e9
    m["solver.save_s"] = median(calls.get("solver.save_trajectory", []))
    m["solver.save_bytes"] = size
    m["solver.save_files"] = files
    m["solver.load_s"] = median(calls.get("solver.load_trajectory", []))
    m["solver.load_bytes"] = median(
        [s[READ] for s in spans if s[NAME] == "solver.load_trajectory"]
    )
    m["solver.min_value_rel"] = manifest["min_value"] / manifest["initial_sup"]
    m["solver.mass_drift"] = manifest["mass_drift"] or 0.0

    checks = read_csv(os.path.join(w.rundir, "checks.csv"))
    m["harnack.checks"] = med(lambda a: sum(a.get(f"n:harnack.{f}", 0) for f in CHECK_KINDS))
    m["harnack.not_applicable"] = sum(row["applicable"] == "false" for row in checks)
    for fn, kind in CHECK_KINDS.items():
        m[f"harnack.check_ms.{kind}"] = median(calls.get(f"harnack.{fn}", [])) * 1e3
    m["harnack.cube_integral_calls"] = med(lambda a: a.get("n:harnack.cube_integral", 0))
    m["harnack.cube_sup_calls"] = med(lambda a: a.get("n:harnack.cube_sup", 0))
    m["harnack.cube_integral_us"] = med(
        lambda a: a.get("t:harnack.cube_integral", 0.0) / a.get("n:harnack.cube_integral", 1) * 1e6
    )

    m["extinction.decay_samples_calls"] = med(lambda a: a.get("n:extinction.decay_samples", 0))
    m["extinction.fit_points"], m["extinction.sup_slope_err"] = w.slope_error()

    m["lemmas.caccioppoli_s"] = med(lambda a: a.get("t:lemmas.caccioppoli_report", 0.0))
    m["lemmas.sobolev_s"] = med(lambda a: a.get("t:lemmas.sobolev_ratio", 0.0))
    m["lemmas.campaign_s"] = med(lambda a: a.get("t:cli.cmd_lemmas", 0.0))

    builders = ("intrinsic_cube", "standard_cube", "scale_cube")
    m["geometry.cubes_built"] = med(
        lambda a: sum(a.get(f"n:geometry.{f}", 0) for f in builders)
    )
    m["cli.parse_s"] = med(lambda a: a.get("t:cli.load_config", 0.0))
    m["cli.output_bytes"] = w.output_bytes()

    traced_s = [r["timings"]["campaign_s"] for r in records if r["traced"] and r["timings"]]
    plain_s = [r["timings"]["campaign_s"] for r in records if not r["traced"] and r["timings"]]
    m["trace.overhead_s"] = median(traced_s) - median(plain_s)
    m["trace.spans"] = med(lambda a: a["trace.spans"])
    return m, shares


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "anisofast", "__init__.py")):
        print(f"bench: no anisofast sources in {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        return setup_child(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = environment()
    w = WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            with tracer.campaign("setup"):
                setups = [w.setup()]
        else:
            setups = measure_setup(args, workdir, w.setup_reps)

        records, reference = [], []
        min_campaigns = 2 if args.trace else 1
        sampler = None if args.trace else HostSampler(PROBES[w.probe])
        host = [host_check(PROBES[w.probe])]
        deadline = time.perf_counter() + args.seconds
        while len(records) < min_campaigns or time.perf_counter() < deadline:
            traced = args.trace and len(records) % 2 == 1
            records.append(
                run_campaign(w, len(records), tracer if traced else None, sampler, reference)
            )
        host.append(host_check(PROBES[w.probe]))

        if args.trace:
            metrics, shares = per_layer_metrics(w, tracer.spans, records)
            tracer.dump(stem + "-spans.json")
            units = PER_LAYER
            extra = {name: (value, "fraction") for name, value in shares.items()}
        else:
            metrics = end_to_end_metrics(records, setups, host_scaled)
            wall = end_to_end_metrics(records, setups, lambda timings, _: timings)
            units = END_TO_END
            extra = {
                f"{k}.wall": (wall[k], "s") for k in ("campaign_s", "run_s", "analyze_s", "setup_s")
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    extra.update({
        "error_rate": (failed / attempted, "fraction"),
        "campaigns": (attempted, "count"),
        "host.ref_loop_s.before": (host[0], "s"),
        "host.ref_loop_s.after": (host[-1], "s"),
    })
    sampled = [r for r in records if "host" in r]
    if sampled:
        extra["host.probe_s.median"] = (median([r["host"]["campaign_s"] for r in sampled]), "s")
    tail = tail_percentile([host_scaled(r["timings"], r["host"])["campaign_s"] for r in sampled])
    if tail:
        extra[f"campaign_s.p{tail[0]}"] = (tail[1], "s")

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value!r} {unit}")

    named = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "environment": env, "metrics": named,
                "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                "setups": setups, "campaigns": records,
            },
            fh, indent=1,
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": named,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
