"""The three campaign workloads: seeded inputs, the timed campaign, the gate.

Every workload derives its inputs from the seed alone and hands the program
nothing but generated config files (and, for `harnack_2d`, the trajectory
its own setup stored).  Seed 0 reproduces the reference configs exactly;
any other seed perturbs them inside ranges where the run still crosses the
extinction threshold before t_end and every check stays applicable.

A campaign calls the program only through its public entry points
(`anisofast.cli.main` and the `lemmas` functions), always as attributes of
the module, so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import time

from anisofast import cli, lemmas, solver
from anisofast.geometry import CubeSpec

REFERENCE_SEED = 0


def _config_text(sim: dict, analysis: dict, checks: list[str], outdir: str) -> str:
    lines = ["[simulation]"]
    lines += [f"{k} = {v}" for k, v in sim.items()]
    lines.append("[analysis]")
    lines += [f"{k} = {v}" for k, v in analysis.items()]
    lines += [f"check = {c}" for c in checks]
    lines += ["[output]", f"directory = {outdir}"]
    return "\n".join(lines) + "\n"


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _tree_digest(root: str) -> str:
    """sha256 over every file under root: relative name and bytes, sorted."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def tree_size(root: str) -> tuple[int, int]:
    """(files, bytes) under root."""
    files = size = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def _finite_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


class Workload:
    """A `run` + `analyze` campaign on one generated config.

    Subclasses set `name` and define `config_text` and `check_outputs`;
    `harnack_2d` also replaces the set-up, the campaign and the digest.
    """

    name = ""
    setup_reps = 11
    # the host-speed probes (run.PROBES) that track the campaign and the set-up
    probe = "calls"
    setup_probe = "calls"

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.reference = seed == REFERENCE_SEED
        self.config = os.path.join(workdir, "campaign.cfg")
        self.rundir = os.path.join(workdir, "run")

    def draw(self, default: float, lo: float, hi: float) -> float:
        """The reference value for seed 0, else a uniform draw in [lo, hi]."""
        value = self.rng.uniform(lo, hi)
        return default if self.reference else value

    def write_inputs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.config_text())
        cli.load_config(self.config)  # a setup that cannot parse fails here

    def setup(self) -> dict:
        """Generate and parse the inputs; returns the (start, end) of any
        timing inside the set-up."""
        self.write_inputs()
        return {}

    def trajectory_dir(self) -> str:
        return os.path.join(self.rundir, "trajectory")

    def manifest(self) -> dict:
        with open(os.path.join(self.trajectory_dir(), "manifest.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def prepare(self) -> None:
        """Untimed: clear the previous campaign's outputs."""
        shutil.rmtree(self.rundir, ignore_errors=True)

    def campaign(self) -> tuple[dict, list[str]]:
        """Timed `run` + `analyze`; returns each timing's (start, end) on the
        perf_counter clock, and problems."""
        t0 = time.perf_counter()
        rc_run = cli.main(["run", "--config", self.config])
        t1 = time.perf_counter()
        rc_an = cli.main(["analyze", "--config", self.config])
        t2 = time.perf_counter()
        problems = [
            f"{cmd} exited {rc}" for cmd, rc in (("run", rc_run), ("analyze", rc_an)) if rc
        ]
        return {"campaign_s": (t0, t2), "run_s": (t0, t1), "analyze_s": (t1, t2)}, problems

    def check(self) -> tuple[str, list[str]]:
        """Digest of the outputs that must repeat byte for byte, and problems."""
        return _tree_digest(self.rundir), self.check_outputs()

    def min_value_problems(self) -> list[str]:
        m = self.manifest()
        if m["min_value"] < -1e-12 * m["initial_sup"]:
            return [f"min_value {m['min_value']!r} below -1e-12 * initial sup"]
        return []

    def output_bytes(self) -> int:
        """Bytes of the analysis outputs (CSV/JSON next to the trajectory)."""
        return sum(
            os.path.getsize(os.path.join(self.rundir, name))
            for name in os.listdir(self.rundir)
            if os.path.isfile(os.path.join(self.rundir, name))
        )

    def slope_error(self) -> tuple[int, float]:
        """(fit points, |sup slope / theory - 1|) of the intrinsic decay fit, if any."""
        return 0, 0.0


class Extinction1D(Workload):
    """1D p=1.5 bump run to near extinction, then decay fits (time to accuracy)."""

    name = "extinction_1d"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amplitude = self.draw(1.0, 0.95, 1.05)
        self.radius = self.draw(0.25, 0.245, 0.255)
        self.rho = self.draw(0.1, 0.095, 0.105)
        self.t = self.draw(0.1, 0.095, 0.105)

    def config_text(self) -> str:
        sim = {
            "p": 1.5, "half_domain": 0.5, "resolution": 32, "boundary": "dirichlet_zero",
            "t_end": 0.3, "eps": 1e-4, "safety": 0.45, "snapshots": 301,
            "profile": "bump", "amplitude": repr(self.amplitude), "radius": repr(self.radius),
        }
        analysis = {"extinction_threshold": 1e-5, "decay_rho": 0.1}
        checks = [
            f"l1l1 geometry={g} rho={self.rho!r} t={self.t!r}" for g in ("intrinsic", "standard")
        ]
        return _config_text(sim, analysis, checks, self.rundir)

    def decay_row(self) -> dict:
        rows = read_csv(os.path.join(self.rundir, "decay_report.csv"))
        return next(r for r in rows if r["geometry"] == "intrinsic")

    def check_outputs(self) -> list[str]:
        problems = self.min_value_problems()
        row = self.decay_row()
        if not math.isfinite(float(row["t_star"] or "nan")):
            problems.append("t_star not found")
        for kind in ("sup", "mass"):
            slope, theory = float(row[f"{kind}_slope"] or "nan"), float(row[f"{kind}_theory"])
            if not abs(slope / theory - 1.0) <= 0.1:
                problems.append(f"intrinsic {kind} slope {slope!r} not within 10% of {theory!r}")
        return problems

    def slope_error(self):
        row = self.decay_row()
        return int(row["n_points"]), abs(float(row["sup_slope"]) / float(row["sup_theory"]) - 1.0)


class Periodic3D(Workload):
    """3D anisotropic periodic run: per-cell arithmetic, np.roll branch, write-heavy."""

    name = "periodic_3d"
    probe = "arrays"
    setup_probe = "arrays"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amplitude = self.draw(1.0, 0.9, 1.1)
        self.radius = self.draw(0.3, 0.29, 0.31)
        self.rho = self.draw(0.1, 0.095, 0.105)
        self.t = self.draw(0.02, 0.019, 0.021)

    def config_text(self) -> str:
        sim = {
            "p": "1.3 1.5 1.7", "half_domain": "0.5 0.5 0.5", "resolution": "32 32 32",
            "boundary": "periodic", "t_end": 0.03, "eps": 0.05, "safety": 0.3,
            "snapshots": 101, "profile": "bump",
            "amplitude": repr(self.amplitude), "radius": repr(self.radius),
        }
        checks = [
            f"{kind} geometry={g} rho={self.rho!r} t={self.t!r}"
            for kind in ("l1l1", "l1linf")
            for g in ("intrinsic", "standard")
        ]
        return _config_text(sim, {}, checks, self.rundir)

    def check_outputs(self) -> list[str]:
        problems = self.min_value_problems()
        drift = self.manifest()["mass_drift"]
        if not drift <= 1e-12:
            problems.append(f"mass drift {drift!r} above 1e-12")
        for row in read_csv(os.path.join(self.rundir, "checks.csv")):
            if row["theorem"].startswith("L1Linf"):
                if row["applicable"] != "false":
                    problems.append(f"{row['theorem']} should route to not-applicable")
            elif not _finite_positive(float(row["gamma_min"])):
                problems.append(f"{row['theorem']} gamma_min {row['gamma_min']}")
        return problems


class Harnack2D(Workload):
    """Re-analysis of one stored 2D trajectory: 90 checks plus the lemma battery."""

    name = "harnack_2d"
    setup_reps = 3
    setup_probe = "arrays"  # the set-up runs the 96x96 solver
    KINDS = ("l1l1", "l1linf", "lr_sup", "lr_backward", "composite")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.amplitude = self.draw(1.0, 0.9, 1.1)
        self.radius = self.draw(0.3, 0.29, 0.31)
        rho0 = self.draw(0.12, 0.118, 0.122)
        t0 = self.draw(0.05, 0.049, 0.051)
        self.rhos = [rho0 + 0.01 * i for i in range(3)]
        self.ts = [t0 + 0.01 * i for i in range(3)]
        self.levels = sorted(self.draw(d, d - 0.02, d + 0.02) for d in (0.1, 0.2, 0.3))
        self.lemma_seed = 7 if self.reference else self.rng.randrange(1, 10**6)
        self.lemma_dir = os.path.join(workdir, "lemmas")
        self.results: list[float] = []

    def config_text(self) -> str:
        sim = {
            "p": "1.4 1.6", "half_domain": "0.5 0.5", "resolution": "96 96",
            "boundary": "dirichlet_zero", "t_end": 0.08, "eps": 0.02, "safety": 0.35,
            "snapshots": 161, "profile": "bump",
            "amplitude": repr(self.amplitude), "radius": repr(self.radius),
        }
        checks = [
            f"{kind} geometry={g} rho={rho!r} t={t!r}"
            + ("" if kind in ("l1l1", "l1linf") else " r=2")
            for kind in self.KINDS
            for g in ("intrinsic", "standard")
            for rho in self.rhos
            for t in self.ts
        ]
        return _config_text(sim, {}, checks, self.rundir)

    def setup(self) -> dict:
        """Inputs plus the one solver run that stores the analysed trajectory."""
        self.write_inputs()
        shutil.rmtree(self.rundir, ignore_errors=True)
        t0 = time.perf_counter()
        rc = cli.main(["run", "--config", self.config])
        t1 = time.perf_counter()
        if rc:
            raise RuntimeError(f"setup run exited {rc}")
        return {"run_s": (t0, t1)}

    def prepare(self) -> None:
        for name in os.listdir(self.rundir):
            if name != "trajectory":
                os.remove(os.path.join(self.rundir, name))
        shutil.rmtree(self.lemma_dir, ignore_errors=True)

    def campaign(self):
        t0 = time.perf_counter()
        rc_an = cli.main(["analyze", "--config", self.config])
        t1 = time.perf_counter()
        traj = solver.load_trajectory(self.trajectory_dir())
        prof = traj.exponents
        cutoff = lemmas.CutoffSpec(
            inner=CubeSpec((0.0, 0.0), (0.15, 0.15), "standard", 0.15),
            outer=CubeSpec((0.0, 0.0), (0.3, 0.3), "standard", 0.3),
            exponents=prof.p,
        )
        sup0 = traj.initial.sup()
        results = [
            lemmas.caccioppoli_report(traj, prof, cutoff, f * sup0, (0.01, 0.02)).gamma_min
            for f in self.levels
        ]
        results += [lemmas.sobolev_ratio(f, prof, 0.2, 2.0, 0.08) for f in traj.snapshots]
        rc_lm = cli.main(["lemmas", "--out", self.lemma_dir, "--seed", str(self.lemma_seed)])
        t2 = time.perf_counter()
        self.results = results
        problems = [
            f"{cmd} exited {rc}" for cmd, rc in (("analyze", rc_an), ("lemmas", rc_lm)) if rc
        ]
        return {"campaign_s": (t0, t2), "analyze_s": (t0, t1)}, problems

    def check(self):
        h = hashlib.sha256()
        for path in (
            os.path.join(self.rundir, "checks.csv"),
            os.path.join(self.rundir, "checks.json"),
            os.path.join(self.lemma_dir, "lemmas.csv"),
        ):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(repr(self.results).encode())
        return h.hexdigest(), self.check_outputs()

    def check_outputs(self) -> list[str]:
        problems = []
        families: dict[str, list[float]] = {}
        rows = read_csv(os.path.join(self.rundir, "checks.csv"))
        if len(rows) != 90:
            problems.append(f"{len(rows)} check rows, expected 90")
        for row in rows:
            gamma = float(row["gamma_min"])
            if not _finite_positive(gamma):
                problems.append(f"{row['theorem']} gamma_min {row['gamma_min']}")
            families.setdefault(row["theorem"], []).append(gamma)
        for theorem, gammas in families.items():
            if not all(map(_finite_positive, gammas)):
                continue
            ratio = max(gammas) / min(gammas)
            if ratio > 10.0:
                problems.append(f"{theorem} gamma family ratio {ratio:.3g} > 10")
        if not all(map(_finite_positive, self.results)):
            problems.append("a Caccioppoli gamma or Sobolev ratio is not finite and positive")
        for row in read_csv(os.path.join(self.lemma_dir, "lemmas.csv")):
            if int(row["failures"]):
                problems.append(f"lemma campaign {row['campaign']} has {row['failures']} failures")
        return problems

    def output_bytes(self) -> int:
        return super().output_bytes() + os.path.getsize(os.path.join(self.lemma_dir, "lemmas.csv"))


WORKLOADS = {w.name: w for w in (Extinction1D, Harnack2D, Periodic3D)}
