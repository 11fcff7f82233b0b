"""One benchmark process: import recoilsim, set up, run one job, report.

Usage (from ``run.py``; not meant to be typed)::

    python3 bench/child.py '<job JSON>'

The job says which entry point to call (``cli`` runs ``recoilsim.cli.main``
with an argv, ``density`` runs the library sweep of the density-large
workload, ``pool`` and ``blas`` are the traced run's thread probes), whether
to stop right after set-up, whether to trace, and where to write the report.

Set-up ends when the package is imported and the config (``cli``: the
return of ``load_config``; ``density``: the params, scenario and grid) is
built.  Timestamps are CLOCK_MONOTONIC, which is system-wide on Linux, so the
parent can subtract its own launch time from them.

Tracing wraps, from here, the public names each recoilsim module calls in
the next (``recoilsim.cli.scenario_sweep``, ``recoilsim.oracle.solve_ivp``,
``recoilsim.density.bessel_j0``, ...).  A name that is missing stops the
process with exit code ``WRAP_FAILED``: a later change to an import must
not silently turn a layer's numbers into zeros.
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref

WRAP_FAILED = 97


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans kept in memory, summarised when the process ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.values: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._live_bytes = 0

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, value), value)

    @staticmethod
    def lookup(owner, attr: str):
        try:
            return getattr(owner, attr)
        except AttributeError:
            where = getattr(owner, "__name__", repr(owner))
            print(f"trace: cannot wrap {where}.{attr}: it no longer exists",
                  file=sys.stderr)
            sys.exit(WRAP_FAILED)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = self.lookup(owner, attr)
        spans = self.spans

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            spans.append((name, t0, clock()))
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    def track_matrices(self, _args, runs) -> None:
        """Bytes of density matrices alive at once, from the arrays' sizes."""
        for dg in runs:
            self._live_bytes += dg.rho.nbytes
            weakref.finalize(dg.rho, self._release, dg.rho.nbytes)
        self.maximum("matrix_bytes", self._live_bytes)

    def _release(self, nbytes: int) -> None:
        self._live_bytes -= nbytes

    def traced_solve_ivp(self, solve_ivp):
        """solve_ivp whose right-hand side is timed call by call."""
        spans = self.spans

        def wrapper(fun, t_span, y0, *args, **kwargs):
            def rhs(t, y):
                t0 = clock()
                out = fun(t, y)
                spans.append(("oracle.rhs", t0, clock()))
                return out

            self.maximum("state_bytes", y0.size * 16)
            t0 = clock()
            sol = solve_ivp(rhs, t_span, y0, *args, **kwargs)
            spans.append(("oracle.solve_ivp", t0, clock()))
            return sol

        return wrapper

    def install(self, recoilsim, cli=None) -> None:
        """Wrap the names the benchmark (density), ``cli`` (when the process
        runs it), ``density`` and ``oracle`` call in the next layer."""
        density, oracle = recoilsim.density, recoilsim.oracle
        points = lambda args, _r: self.count("bessel_points", _size(args[0]))
        for owner in (density,) if cli is None else (cli, density):
            self.wrap(owner, "scenario_sweep", "density.scenario_sweep",
                      self.track_matrices)
            self.wrap(owner, "coherence_length", "density.coherence_length")
        if cli is not None:
            for name in ("psi_free", "decoherence_factor"):
                self.wrap(cli, name, f"density.{name}")
            self.wrap(cli, "bessel_j0", "specfun.bessel_j0", points)
            for name in ("integrate_amplitudes", "density_quadrature",
                         "ww_rate_check"):
                self.wrap(cli, name, f"oracle.{name}")
            self.wrap(cli, "max_decay_error", "oracle.max_decay_error",
                      lambda _a, err: self.maximum("decay_err", err))
        self.wrap(density, "bessel_j0", "specfun.bessel_j0", points)
        self.wrap(density, "worker_count", "density.worker_count",
                  lambda _a, n: self.maximum("workers", n))
        for name in ("trace", "purity", "diag_width"):
            self.wrap(density.DensityGrid, name, f"density.{name}")
        self.wrap(oracle, "psi_free", "density.psi_free")
        oracle.solve_ivp = self.traced_solve_ivp(self.lookup(oracle, "solve_ivp"))

    def summary(self, start: float, end: float) -> dict:
        """Per-name call counts and busy time, and the time inside
        [start, end] that no span covers (the caller's self time)."""
        layers: dict[str, dict] = {}
        for name, t0, t1 in self.spans:
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0})
            entry["calls"] += 1
            entry["s"] += t1 - t0
        covered, reach = 0.0, start
        for _name, t0, t1 in sorted(self.spans, key=lambda s: s[1]):
            t0, t1 = max(t0, reach), min(t1, end)
            if t1 > t0:
                covered += t1 - t0
                reach = t1
        return {"layers": layers, "self_s": (end - start) - covered,
                "values": self.values, "counts": self.counts}


# numpy and scipy are imported inside functions: a module-level import here
# would move their cost out of the timed import of recoilsim.


def _size(x) -> int:
    import numpy as np
    return int(np.size(x))


def _density_setup(recoilsim, cfg: dict):
    params = recoilsim.ModelParams(omega0=1.0, mu=cfg["mu"], gamma=cfg["gamma"])
    lam = params.wavelength
    scenario = recoilsim.Scenario.superposition(
        center_offset=cfg["offset_over_lambda"] * lam,
        width=cfg["width_over_lambda"] * lam)
    grid = recoilsim.SpatialGrid.linspace(cfg["min_over_lambda"] * lam,
                                          cfg["max_over_lambda"] * lam,
                                          cfg["points"])
    times = [gt / params.gamma for gt in cfg["times"]]
    return params, scenario, grid, times


def _density_run(recoilsim, setup, out_dir: str) -> None:
    """Both emission flags: sweep, then the observables of each matrix.

    Only one sweep's matrices are alive at a time.  Observables go to
    ``observables.json``; the diagonals to ``diagonals.json`` for the
    emission-on/off invariant.
    """
    density = recoilsim.density
    params, scenario, grid, times = setup
    lam = params.wavelength
    observables, diagonals = [], []
    for emission in (True, False):
        runs = density.scenario_sweep(scenario, times, emission, grid, params)
        for t, dg in zip(times, runs):
            length = density.coherence_length(dg)
            observables.append({
                "gamma_t": t * params.gamma, "emission": emission,
                "trace": dg.trace(), "purity": dg.purity(),
                "coherence_length_over_lambda": float(length.length) / lam,
                "coherence_crossed": bool(length.crossed),
                "diag_width_over_lambda": dg.diag_width() / lam})
            diagonals.append(dg.diagonal.tolist())
        del runs, dg
    with open(os.path.join(out_dir, "observables.json"), "w") as fh:
        json.dump(observables, fh)
    with open(os.path.join(out_dir, "diagonals.json"), "w") as fh:
        json.dump(diagonals, fh)


def _pool_probe(recoilsim, setup, reps: int) -> dict:
    """Best-of-``reps`` emission-on sweep time at SIM_THREADS=1 and at the
    default thread count."""
    params, scenario, grid, times = setup
    best = {}
    for label, threads in (("default_s", None), ("single_s", "1")):
        if threads is not None:
            os.environ["SIM_THREADS"] = threads
        elapsed = []
        for _ in range(reps):
            t0 = clock()
            runs = recoilsim.scenario_sweep(scenario, times, True, grid, params)
            elapsed.append(clock() - t0)
            del runs
        best[label] = min(elapsed)
    return best


def _blas_probe(recoilsim, config_path: str, gamma_t: float) -> dict:
    """Time of one amplitudes integration of the configured mode grid over
    gamma*t in [0, ``gamma_t``]."""
    import numpy as np
    cfg = recoilsim.cli.load_config(config_path)
    p, m = cfg["params"], cfg["modes"]
    params = recoilsim.ModelParams(omega0=p["omega0"], mu=p["mu"],
                                   gamma=p["gamma"])
    grid = recoilsim.ModeGrid.build(params, n_k=m["n_k"],
                                    bandwidth_gammas=m["bandwidth_gammas"],
                                    n_phi=m["n_phi"],
                                    flat_coupling=m["flat_coupling"])
    t_final = gamma_t / params.gamma
    run = recoilsim.OdeRun(params=params, grid=grid, t_span=(0.0, t_final),
                           sample_times=np.linspace(0.0, t_final, 11), tol=1e-10)
    t0 = clock()
    recoilsim.integrate_amplitudes(run)
    return {"s": clock() - t0}


def _provenance() -> dict:
    """Library versions and the BLAS numpy calls into, with its threads."""
    import ctypes
    import glob
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    report: dict = {}
    t0 = clock()
    import recoilsim
    if job["kind"] in ("cli", "blas"):
        import recoilsim.cli
    report["import_s"] = clock() - t0

    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install(recoilsim, recoilsim.cli if job["kind"] == "cli" else None)

    if job["kind"] == "cli":
        cli = recoilsim.cli
        load_config = cli.load_config

        def timed_load_config(path):
            cfg = load_config(path)
            report.setdefault("setup_end", clock())
            return cfg

        cli.load_config = timed_load_config
        if job["setup_only"]:
            cli.load_config(job["argv"][job["argv"].index("--config") + 1])
        else:
            report["main_start"] = clock()
            report["rc"] = cli.main(job["argv"])
            report["main_end"] = clock()
    elif job["kind"] == "density":
        setup = _density_setup(recoilsim, job["config"])
        report["setup_end"] = clock()
        if not job["setup_only"]:
            report["main_start"] = clock()
            _density_run(recoilsim, setup, job["out"])
            report["main_end"] = clock()
    elif job["kind"] == "pool":
        report["pool"] = _pool_probe(
            recoilsim, _density_setup(recoilsim, job["config"]), job["reps"])
    else:
        report["blas"] = _blas_probe(recoilsim, job["config_path"],
                                     job["gamma_t"])

    if tracer is not None and "main_end" in report:
        report.update(tracer.summary(report["main_start"], report["main_end"]))
    if job.get("provenance"):
        report["provenance"] = _provenance()
    with open(job["report"], "w") as fh:
        json.dump(report, fh)
    sys.exit(report.get("rc", 0))


if __name__ == "__main__":
    main()
