"""recoilsim benchmark: three seeded workloads, timed from outside.

Usage::

    python3 bench/run.py --workload {cli-default,density-large,oracle-ode,all}
                         [--seed N] [--seconds S] [--trace 0|1]
                         [--tiny] [--pin]

A run repeats whole iterations of one workload, each in fresh processes
(``bench/child.py``), until ``--seconds`` would be exceeded, and checks every
iteration's outputs: against the pinned references in ``golden.json`` for
seed 0, against physical invariants for every seed.  It prints each metric
with its unit and sample count, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A full report
with every sample and the machine's provenance goes to
``bench/out/<workload>-seed<N>-trace<T>.json``.

``--tiny`` shrinks every workload to a seconds-long smoke size (invariant
checks only).  ``--pin`` rewrites the workload's seed-0 references from one
iteration; a deliberate output change is re-pinned this way and explained.

Exit codes: 0 run complete (``correct`` says whether outputs passed);
2 the checkout has no ``src/recoilsim``; 3 the traced run could not trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from child import WRAP_FAILED, clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("cli-default", "density-large", "oracle-ode")
SETUP_SAMPLES = 5        # set-up samples per gated run, topped up if needed
CHILD_TIMEOUT = 120.0    # seconds before a hung process is killed
GOLDEN_REL = 1e-12       # summaries and observables against the pins
ORACLE_ABS = 1e-9        # oracle_amplitudes.csv against its pin
TRACE_TOL = 1e-12        # |trace - 1|
PURITY_TOL = 1e-9        # |purity - 1| with emission off
DIAG_REL = 1e-12         # emission on vs off diagonal, relative to its peak
NORM_DRIFT_TOL = 1e-9    # the oracle's own allowance: 10 * tol
DECAY_TOL = 0.05         # the oracle's |A|^2 decay tolerance
BLAS_PROBE_GAMMA_T = 1.0  # span of the BLAS-thread probe integration
POOL_PROBE_REPS = 2

CLI_COMMANDS = {
    "cli-default": [["decoherence-factor"], ["evolve"],
                    ["oracle", "--which", "quadrature"],
                    ["oracle", "--which", "rate"]],
    "oracle-ode": [["oracle", "--which", "amplitudes"]],
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SUBCOMMANDS = ("decoherence-factor", "evolve", "oracle-quadrature",
               "oracle-rate", "oracle-amplitudes")
PER_LAYER = {
    "setup.import_s": "s",
    **{f"cli.{sub}.main_s": "s" for sub in SUBCOMMANDS},
    "cli.evolve.self_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "cli.csv_rows_per_s": "1/s",
    "density.scenario_sweep.s": "s",
    "density.scenario_sweep.calls": "count",
    "density.purity.s": "s",
    "density.observables.s": "s",
    "density.matrix_bytes": "bytes",
    "density.workers": "count",
    "density.pool_speedup": "ratio",
    "specfun.bessel_j0.calls": "count",
    "specfun.bessel_j0.points": "count",
    "specfun.bessel_j0.s": "s",
    "oracle.integrate_amplitudes.s": "s",
    "oracle.rhs.calls": "count",
    "oracle.rhs.s": "s",
    "oracle.rhs.ms_per_call": "ms",
    "oracle.solver_self.s": "s",
    "oracle.blas_speedup": "ratio",
    "oracle.post.s": "s",
    "oracle.state_bytes": "bytes",
    "oracle.decay_err": "rel",
    "oracle.norm_drift": "abs",
    "oracle.density_quadrature.calls": "count",
    "oracle.density_quadrature.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.setup_s": "s",
    "trace.main_s": "s",
    "trace.unaccounted_s": "s",
}

# Spans a traced iteration must contain; none of them may read zero calls.
EXPECTED_SPANS = {
    "cli-default": ("density.scenario_sweep", "density.purity",
                    "specfun.bessel_j0", "oracle.density_quadrature",
                    "oracle.ww_rate_check"),
    "density-large": ("density.scenario_sweep", "density.purity",
                      "density.worker_count", "specfun.bessel_j0"),
    "oracle-ode": ("oracle.integrate_amplitudes", "oracle.solve_ivp",
                   "oracle.rhs", "oracle.max_decay_error"),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ----------------------------------------------------------------------
# inputs


def make_config(workload: str, seed: int, tiny: bool) -> dict:
    """The workload's inputs.  Seed 0 is the documented config; any other
    seed moves only continuous physics inputs, never a size."""
    rng = random.Random(seed)
    varied = seed != 0
    if workload == "cli-default":
        cfg = {"scenario": {
            "kind": "single",
            "width_over_lambda": rng.uniform(0.45, 0.55) if varied else 0.5,
            "center_over_lambda": rng.uniform(-0.25, 0.25) if varied else 0.0}}
        if tiny:
            cfg.update(grid={"min_over_lambda": -2.0, "max_over_lambda": 2.0,
                             "points": 81},
                       times=[1.0, 1.5],
                       decoherence={"max_dx_over_lambda": 3.0, "points": 50})
        return cfg
    if workload == "oracle-ode":
        cfg = {"params": {"gamma": rng.uniform(0.009, 0.011) if varied else 0.01}}
        if tiny:
            cfg["modes"] = {"n_k": 80}
        return cfg
    cfg = {"mu": 800.0, "gamma": 0.01,
           "width_over_lambda": rng.uniform(0.46, 0.54) if varied else 0.5,
           "offset_over_lambda": rng.uniform(1.8, 2.2) if varied else 2.0,
           "min_over_lambda": -12.0, "max_over_lambda": 12.0, "points": 3201,
           "times": [100.0, 200.0, 1000.0]}
    if tiny:
        cfg.update(min_over_lambda=-6.0, max_over_lambda=6.0, points=241,
                   times=[100.0, 200.0, 300.0])
    return cfg


def make_jobs(workload: str, config: dict, work: Path, it_dir: Path,
              trace: bool, setup_only: bool) -> list[dict]:
    base = {"src": str(SRC), "trace": trace, "setup_only": setup_only,
            "out": str(it_dir)}
    if workload == "density-large":
        return [dict(base, kind="density", config=config,
                     report=str(work / "report-0.json"))]
    config_path = work / "config.json"
    return [dict(base, kind="cli",
                 argv=cmd + ["--config", str(config_path), "--out", str(it_dir)],
                 report=str(work / f"report-{i}.json"))
            for i, cmd in enumerate(CLI_COMMANDS[workload])]


# ----------------------------------------------------------------------
# processes


def spawn(job: dict, env: dict | None = None) -> dict:
    """Run one child to completion; its times, CPU, peak RSS and report."""
    report_path = Path(job["report"])
    report_path.unlink(missing_ok=True)
    log_path = report_path.with_suffix(".log")
    with open(log_path, "wb") as log:
        launch = clock()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = clock()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    if rc == WRAP_FAILED:
        raise BenchError(log_path.read_text().strip())
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    return {"job": job, "rc": rc, "launch": launch, "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "report": report,
            "log": str(log_path)}


def setup_round(workload: str, config: dict, work: Path) -> float | None:
    """The workload's processes, each stopping once set up; summed set-up."""
    procs = execute_processes(make_jobs(workload, config, work, work / "setup",
                                        False, True))
    if any(p["rc"] != 0 or "setup_end" not in p["report"] for p in procs):
        return None
    return sum(p["report"]["setup_end"] - p["launch"] for p in procs)


def execute_processes(jobs: list[dict]) -> list[dict]:
    return [spawn(job) for job in jobs]


def run_iteration(workload: str, config: dict, work: Path, golden,
                  trace: bool) -> dict:
    """One iteration in fresh processes: timings, checks and, when traced,
    per-layer metrics.  The outputs are deleted afterwards."""
    it_dir = work / "iter"
    shutil.rmtree(it_dir, ignore_errors=True)
    it_dir.mkdir(parents=True)
    procs = execute_processes(make_jobs(workload, config, work, it_dir,
                                        trace, False))
    it = {"wall_s": procs[-1]["end"] - procs[0]["launch"],
          "cpu_s": sum(p["cpu_s"] for p in procs),
          "peak_rss_mb": max(p["rss_mb"] for p in procs),
          "problems": []}
    for p in procs:
        if p["rc"] != 0 or "setup_end" not in p["report"]:
            tail = Path(p["log"]).read_text(errors="replace").strip()[-400:]
            it["problems"].append(
                f"{' '.join(p['job'].get('argv', ['density'])[:3])} "
                f"exited {p['rc']}: {tail}")
    if not it["problems"]:
        it["setup_s"] = sum(p["report"]["setup_end"] - p["launch"] for p in procs)
        it["problems"] = CHECKS[workload](it_dir, golden)
    if trace and not it["problems"]:
        it["layers"] = layer_metrics(workload, procs, it_dir)
    it["ok"] = not it["problems"]
    shutil.rmtree(it_dir, ignore_errors=True)
    return it


# ----------------------------------------------------------------------
# output checks


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def compare(got, want, rel: float, where: str = "") -> list[str]:
    """Field-by-field comparison: numbers within ``rel``, the rest exact."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in compare(got[k], want[k], rel, f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, rel, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        if abs(got - want) <= rel * abs(want):
            return []
    elif got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def csv_diagonal(path: Path) -> list[float]:
    """re_rho on the diagonal of a density CSV (rows are x-major, n*n)."""
    rows = read_csv(path)
    n = math.isqrt(len(rows))
    if n * n != len(rows):
        raise ValueError(f"{path.name}: {len(rows)} rows is not a square grid")
    return [float(rows[i * (n + 1)][2]) for i in range(n)]


def diagonal_problems(on: list[float], off: list[float], where: str) -> list[str]:
    scale = max(abs(v) for v in off) if off else 0.0
    if len(on) != len(off) or any(abs(a - b) > DIAG_REL * scale
                                  for a, b in zip(on, off)):
        return [f"{where}: emission-on diagonal differs from emission-off"]
    return []


def observable_problems(runs: list[dict], where: str) -> list[str]:
    problems = []
    for r in runs:
        if not abs(r["trace"] - 1.0) <= TRACE_TOL:
            problems.append(f"{where} gamma_t={r['gamma_t']}: trace {r['trace']!r}")
        if not r["emission"] and not abs(r["purity"] - 1.0) <= PURITY_TOL:
            problems.append(f"{where} gamma_t={r['gamma_t']}: "
                            f"emission-off purity {r['purity']!r}")
    return problems


def summary_fields(out: Path) -> dict:
    summary = json.loads((out / "evolve_summary.json").read_text())
    summary.pop("generated")
    return summary


def check_cli_default(out: Path, golden) -> list[str]:
    summary = summary_fields(out)
    problems = observable_problems(summary["runs"], "evolve_summary.json")
    files = {(r["gamma_t"], r["emission"]): r["file"] for r in summary["runs"]}
    for (gt, emission), name in sorted(files.items()):
        if emission and (gt, False) in files:
            problems += diagonal_problems(csv_diagonal(out / name),
                                          csv_diagonal(out / files[gt, False]),
                                          name)
    if golden is not None:
        for name, digest in sorted(golden["sha256"].items()):
            if sha256(out / name) != digest:
                problems.append(f"{name}: SHA-256 differs from the pinned digest")
        problems += compare(summary, golden["evolve_summary"], GOLDEN_REL,
                            "evolve_summary.json")
    return problems


def check_density_large(out: Path, golden) -> list[str]:
    observables = json.loads((out / "observables.json").read_text())
    diagonals = json.loads((out / "diagonals.json").read_text())
    problems = observable_problems(observables, "observables")
    half = len(diagonals) // 2
    for i in range(half):
        problems += diagonal_problems(diagonals[i], diagonals[half + i],
                                      f"gamma_t={observables[i]['gamma_t']}")
    if golden is not None:
        problems += compare(observables, golden["observables"], GOLDEN_REL,
                            "observables")
    return problems


def amplitude_rows(out: Path) -> list[list[float]]:
    return [[float(v) for v in row] for row in read_csv(out / "oracle_amplitudes.csv")]


def norm_drift(rows: list[list[float]]) -> float:
    return max(abs(row[3] - rows[0][3]) for row in rows)


def check_oracle_ode(out: Path, golden) -> list[str]:
    rows = amplitude_rows(out)
    problems = []
    drift = norm_drift(rows)
    if not drift <= NORM_DRIFT_TOL:
        problems.append(f"oracle_amplitudes.csv: norm drift {drift:.3e} "
                        f"> {NORM_DRIFT_TOL}")
    if golden is not None:
        want = golden["oracle_amplitudes"]
        if len(rows) != len(want) or any(len(r) != len(w) for r, w in zip(rows, want)):
            problems.append("oracle_amplitudes.csv: shape differs from the pin")
        else:
            worst = max(abs(a - b) for r, w in zip(rows, want) for a, b in zip(r, w))
            if not worst <= ORACLE_ABS:
                problems.append(f"oracle_amplitudes.csv: {worst:.3e} from the "
                                f"pin (allowed {ORACLE_ABS})")
    return problems


def _guarded(check):
    """An unreadable or malformed output is a failed check, not a crash."""
    def guarded(out: Path, golden) -> list[str]:
        try:
            return check(out, golden)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return guarded


CHECKS = {"cli-default": _guarded(check_cli_default),
          "density-large": _guarded(check_density_large),
          "oracle-ode": _guarded(check_oracle_ode)}


def make_golden(workload: str, out: Path) -> dict:
    """The references ``--pin`` stores for seed 0."""
    if workload == "cli-default":
        return {"sha256": {p.name: sha256(p) for p in sorted(out.glob("*.csv"))},
                "evolve_summary": summary_fields(out)}
    if workload == "density-large":
        return {"observables": json.loads((out / "observables.json").read_text())}
    return {"oracle_amplitudes": amplitude_rows(out)}


# ----------------------------------------------------------------------
# per-layer metrics


def _subcommand(job: dict) -> str:
    argv = job["argv"]
    return "-".join(a for a in argv[:argv.index("--config")] if a != "--which")


def layer_metrics(workload: str, procs: list[dict], out: Path) -> dict:
    """Per-layer numbers of one traced iteration, from the children's spans
    and the files they wrote.  A layer the workload never enters reads 0."""
    layers: dict[str, dict] = {}
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    for p in procs:
        report = p["report"]
        for name, entry in report["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "s": 0.0})
            total["calls"] += entry["calls"]
            total["s"] += entry["s"]
        for name, value in report["values"].items():
            values[name] = max(values.get(name, value), value)
        for name, value in report["counts"].items():
            counts[name] = counts.get(name, 0) + value
    missing = [name for name in EXPECTED_SPANS[workload]
               if layers.get(name, {}).get("calls", 0) == 0]
    if missing:
        raise BenchError(f"traced {workload} saw no calls to {', '.join(missing)}:"
                         " a wrapped name is no longer on the call path")

    def busy(name):
        return layers.get(name, {}).get("s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    m = dict.fromkeys(PER_LAYER, 0.0)
    m["setup.import_s"] = sum(p["report"]["import_s"] for p in procs)
    cli_self = 0.0
    for p in procs:
        if p["job"]["kind"] == "cli":
            sub = _subcommand(p["job"])
            m[f"cli.{sub}.main_s"] = p["report"]["main_end"] - p["report"]["main_start"]
            cli_self += p["report"]["self_s"]
            if sub == "evolve":
                m["cli.evolve.self_s"] = p["report"]["self_s"]
    csvs = sorted(out.glob("*.csv"))
    m["cli.csv_rows"] = sum(p.read_bytes().count(b"\n") - 1 for p in csvs)
    m["cli.csv_bytes"] = sum(p.stat().st_size for p in csvs)
    if cli_self > 0:
        m["cli.csv_rows_per_s"] = m["cli.csv_rows"] / cli_self
    m["density.scenario_sweep.s"] = busy("density.scenario_sweep")
    m["density.scenario_sweep.calls"] = calls("density.scenario_sweep")
    m["density.purity.s"] = busy("density.purity")
    m["density.observables.s"] = sum(busy(f"density.{n}") for n in
                                     ("trace", "diag_width", "coherence_length"))
    m["density.matrix_bytes"] = values.get("matrix_bytes", 0)
    m["density.workers"] = values.get("workers", 0)
    m["specfun.bessel_j0.calls"] = calls("specfun.bessel_j0")
    m["specfun.bessel_j0.points"] = counts.get("bessel_points", 0)
    m["specfun.bessel_j0.s"] = busy("specfun.bessel_j0")
    m["oracle.integrate_amplitudes.s"] = busy("oracle.integrate_amplitudes")
    m["oracle.rhs.calls"] = calls("oracle.rhs")
    m["oracle.rhs.s"] = busy("oracle.rhs")
    if calls("oracle.rhs"):
        m["oracle.rhs.ms_per_call"] = 1e3 * busy("oracle.rhs") / calls("oracle.rhs")
    m["oracle.solver_self.s"] = busy("oracle.solve_ivp") - busy("oracle.rhs")
    m["oracle.post.s"] = busy("oracle.integrate_amplitudes") - busy("oracle.solve_ivp")
    m["oracle.state_bytes"] = values.get("state_bytes", 0)
    m["oracle.decay_err"] = values.get("decay_err", 0.0)
    if (out / "oracle_amplitudes.csv").exists():
        m["oracle.norm_drift"] = norm_drift(amplitude_rows(out))
    m["oracle.density_quadrature.calls"] = calls("oracle.density_quadrature")
    m["oracle.density_quadrature.s"] = busy("oracle.density_quadrature")
    m["trace.setup_s"] = sum(p["report"]["setup_end"] - p["launch"] for p in procs)
    m["trace.main_s"] = sum(p["report"]["main_end"] - p["report"]["main_start"]
                            for p in procs)
    m["trace.unaccounted_s"] = (procs[-1]["end"] - procs[0]["launch"]
                                - m["trace.setup_s"] - m["trace.main_s"])
    return m


def probe_metrics(workload: str, config: dict, work: Path) -> dict:
    """Thread-pool and BLAS-thread speed-ups, from separate processes."""
    base = {"src": str(SRC), "trace": False, "setup_only": False}
    if workload == "density-large":
        p = spawn(dict(base, kind="pool", config=config, reps=POOL_PROBE_REPS,
                       report=str(work / "pool.json")))
        pool = p["report"].get("pool") if p["rc"] == 0 else None
        if pool is None:
            raise BenchError(f"pool probe failed: see {p['log']}")
        return {"density.pool_speedup": pool["single_s"] / pool["default_s"]}
    if workload == "oracle-ode":
        seconds = {}
        for label, threads in (("default", None), ("single", "1")):
            env = dict(os.environ)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            p = spawn(dict(base, kind="blas", config_path=str(work / "config.json"),
                           gamma_t=BLAS_PROBE_GAMMA_T,
                           report=str(work / f"blas-{label}.json")), env)
            if p["rc"] != 0 or "blas" not in p["report"]:
                raise BenchError(f"BLAS probe failed: see {p['log']}")
            seconds[label] = p["report"]["blas"]["s"]
        return {"oracle.blas_speedup": seconds["single"] / seconds["default"]}
    return {}


# ----------------------------------------------------------------------
# a run


def provenance(seed: int, child_info: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "recoilsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), **child_info,
            "SIM_THREADS": os.environ.get("SIM_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": commit, "source_sha256": source.hexdigest()}


def median_of(samples: list[float]) -> float:
    return statistics.median(samples) if samples else float("nan")


def prepare(workload: str, config: dict) -> Path:
    """A fresh work directory holding the config the processes read."""
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(config, indent=2))
    return work


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, golden) -> dict:
    config = make_config(workload, seed, tiny)
    work = prepare(workload, config)

    # One set-up-only process first: it warms the file cache and reports the
    # library versions.  It is not a sample.
    first = make_jobs(workload, config, work, work / "setup", False, True)[0]
    child_info = spawn(dict(first, provenance=True))["report"].get("provenance", {})
    untraced, traced, rounds = [], [], []
    start = clock()
    while True:  # stop before a further round would overrun the seconds
        t0 = clock()
        untraced.append(run_iteration(workload, config, work, golden, False))
        if trace:
            traced.append(run_iteration(workload, config, work, golden, True))
        rounds.append(clock() - t0)
        if clock() - start + median_of(rounds) > seconds:
            break
    iterations = untraced + traced
    good = [it for it in untraced if it["ok"]] or untraced
    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "tiny": tiny, "attempted": len(iterations),
              "failed": sum(not it["ok"] for it in iterations),
              "problems": [p for it in iterations for p in it["problems"]]}
    if trace:
        samples = {}
        for it in traced:
            for name, value in it.get("layers", {}).items():
                samples.setdefault(name, []).append(value)
        if not samples:
            raise BenchError("no traced iteration passed its checks: "
                             + "; ".join(result["problems"][:3]))
        for name, value in probe_metrics(workload, config, work).items():
            samples[name] = [value]
        walls = [it["wall_s"] for it in traced]
        base_walls = [it["wall_s"] for it in good]
        samples["trace.wall_s"] = walls
        samples["trace.untraced_wall_s"] = base_walls
        samples["trace.overhead_s"] = [median_of(walls) - median_of(base_walls)]
        units = PER_LAYER
    else:
        samples = {name: [it[name] for it in good] for name in
                   ("wall_s", "cpu_s", "peak_rss_mb")}
        samples["setup_s"] = [it["setup_s"] for it in good if "setup_s" in it]
        want = 1 if tiny else SETUP_SAMPLES
        while len(samples["setup_s"]) < want:
            setup = setup_round(workload, config, work)
            if setup is None:
                break
            samples["setup_s"].append(setup)
        units = END_TO_END
    result["metrics"] = {name: {"value": median_of(samples[name]), "unit": unit,
                                "samples": len(samples[name])}
                         for name, unit in units.items()}
    result["samples"] = samples
    result["tolerances"] = {"oracle.decay_err": DECAY_TOL,
                            "oracle.norm_drift": NORM_DRIFT_TOL}
    result["provenance"] = provenance(seed, child_info)
    return result


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  "
          f"fail_frac {result['failed'] / result['attempted']:.4g}")
    for problem in result["problems"][:10]:
        print(f"  FAILED CHECK: {problem}")
    for name, metric in result["metrics"].items():
        tol = result["tolerances"].get(name) if result["trace"] else None
        extra = f"  tolerance {tol:g}" if tol is not None else ""
        print(f"  {name:34s} {metric['value']:>16.8g} {metric['unit']:6s} "
              f"(median of {metric['samples']}){extra}")
    print("  provenance: " + json.dumps(result["provenance"], sort_keys=True))


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()}})


def pin(workload: str) -> None:
    """Rewrite the workload's seed-0 references from one fresh iteration."""
    config = make_config(workload, 0, False)
    work = prepare(workload, config)
    it_dir = work / "iter"
    it_dir.mkdir()
    procs = execute_processes(make_jobs(workload, config, work, it_dir, False, False))
    if any(p["rc"] != 0 for p in procs):
        raise BenchError(f"pin run failed: see {procs[-1]['log']}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[workload] = make_golden(workload, it_dir)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(it_dir)
    print(f"pinned {workload} in {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long smoke size; invariant checks only")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the seed-0 references and exit")
    args = parser.parse_args(argv)
    if not (SRC / "recoilsim" / "__init__.py").is_file():
        print(f"no recoilsim sources under {SRC}", file=sys.stderr)
        return 2
    # The build: byte-compile the sources so no timed import compiles them.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, timeout=600)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.pin:
            for workload in workloads:
                pin(workload)
            return 0
        for workload in workloads:
            golden = None
            if args.seed == 0 and not args.tiny:
                golden = json.loads(GOLDEN.read_text())[workload]
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace), args.tiny, golden)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            (OUT / name).write_text(json.dumps(result, indent=1))
            print_result(result)
            print(final_line(result), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
