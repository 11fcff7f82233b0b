"""Command-line front end: every dataset and oracle run from one binary.

Three subcommands cover the package's outputs:

* ``recoilsim decoherence-factor`` -- tabulate the Bessel-squared coherence
  suppression F against separation.
* ``recoilsim evolve`` -- reduced density matrices for a packet scenario at a
  list of times, with and/or without emission, plus a JSON summary.
* ``recoilsim oracle --which {amplitudes,quadrature,rate}`` -- run one of the
  brute-force validators and fail loudly if its tolerance is breached.

Configuration is a JSON document overlaid onto built-in defaults (the
single-packet narrowing scenario).  A run whose writing fails replaces no
file; floats have 17 significant digits, so reruns are byte-identical.

Exit codes: 0 success; 1 configuration or I/O error; 2 model-validity gate;
3 oracle tolerance breach.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import itertools
import json
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from .core import ConfigurationError, ModelParams, ModeGrid
from .density import (
    ModelValidityError,
    Scenario,
    SpatialGrid,
    coherence_length,
    decoherence_factor,
    psi_free,
    scenario_sweep,
    worker_count,
)
from .oracle import (
    SAMPLE_COUNT,
    NormDriftFailure,
    OdeRun,
    density_quadrature,
    integrate_amplitudes,
    max_decay_error,
    memory_estimate,
    ww_rate_check,
)
from .specfun import bessel_j0

__all__ = ["DEFAULTS", "OracleToleranceError", "load_config", "main"]

# Tolerances the oracle subcommand enforces (breach -> exit 3).
DECAY_TOLERANCE = 0.05        # |A|^2 vs e^{-2 gamma t}, relative
RATE_TOLERANCE = 0.05         # pole-sum rate vs gamma/2, relative
QUADRATURE_TOLERANCE = 1e-8   # angle quadrature vs factorized form, relative

# Fixed probe grid for the quadrature oracle (in wavelengths); the full
# configured grid would be prohibitively slow under a double angle sum.
QUADRATURE_POINTS = 16
QUADRATURE_SPAN = 2.0

DENSITY_HEADER = "x_over_lambda,xp_over_lambda,re_rho,im_rho,abs_rho"

DEFAULTS = {
    "params": {"omega0": 1.0, "gamma": 0.01, "mu": 10.0},
    "scenario": {"kind": "single", "width_over_lambda": 0.5,
                 "center_over_lambda": 0.0},
    "grid": {"min_over_lambda": -8.0, "max_over_lambda": 8.0, "points": 321},
    "modes": {"n_k": 400, "bandwidth_gammas": 50.0, "n_phi": 1,
              "flat_coupling": False},
    "times": [2.0, 3.0, 5.0],
    "decoherence": {"max_dx_over_lambda": 3.0, "points": 600},
}

# DEFAULTS is the schema: a key's type is that of its default.  What it
# cannot show: each scenario kind has its own keys, all required but
# ``center_over_lambda``.
_SCENARIOS = {
    "single": DEFAULTS["scenario"],
    "superposition": {"kind": "superposition", "width_over_lambda": 0.5,
                      "center_offset_over_lambda": 1.0},
}
_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list", dict: "a JSON object"}


class OracleToleranceError(RuntimeError):
    """An oracle comparison exceeded its documented tolerance."""


# ----------------------------------------------------------------------
# configuration


def _typed(value, like, where: str):
    """``value`` checked against ``like``, its value in the schema: a float
    admits any finite number, returned as a float, an int any integer but a
    bool up to the most complex values one array can hold, and anything else
    only its own type."""
    if isinstance(like, float) and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:  # false for NaN, ±Inf, huge ints
            return float(value)
        raise ConfigurationError(f"{where} must be a finite number")
    if type(value) is not type(like):
        raise ConfigurationError(f"{where} must be {_TYPE_NAMES[type(like)]}")
    if type(value) is int and value > sys.maxsize // 16:  # 16 bytes per element
        raise ConfigurationError(f"{where} must be at most {sys.maxsize // 16}")
    return value


def _section(value, schema: dict, where: str) -> dict:
    """``value`` checked as a JSON object whose keys all appear in
    ``schema``, each holding a value of its schema type."""
    unknown = sorted(set(_typed(value, schema, where)) - set(schema))
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(unknown)}")
    return {key: _typed(item, schema[key], f"{where}.{key}")
            for key, item in value.items()}


def load_config(path: str | None) -> dict:
    """Parse a JSON config file and overlay it onto the built-in defaults.

    Sections merge key-by-key except ``scenario`` and ``times``, which are
    replaced wholesale (a scenario's keys depend on its kind).  Unknown keys
    anywhere are rejected.  Returns the fully validated config dict.
    """
    merged = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except ValueError as exc:  # also bad UTF-8 and overlong integers
                raise ConfigurationError(f"{path} is not valid JSON: {exc}")
        for key, value in _section(user, DEFAULTS, "config").items():
            if key == "times":
                # + 0.0 makes -0.0 the 0.0 that file names and the summary
                # print as "0".
                times = [_typed(v, 0.0, "times entry") + 0.0 for v in value]
                if any(t < 0 for t in times):
                    raise ConfigurationError(f"times must be >= 0, got {min(times):g}")
                merged["times"] = times
            elif key == "scenario":
                merged["scenario"] = value
            else:
                merged[key].update(_section(value, DEFAULTS[key], key))

    kind = merged["scenario"].get("kind")
    if kind not in tuple(_SCENARIOS):  # compared, not hashed: kind may be a list
        raise ConfigurationError(
            "scenario.kind must be 'single' or 'superposition'")
    s = merged["scenario"] = _section(merged["scenario"], _SCENARIOS[kind], "scenario")
    if kind == "single":
        s.setdefault("center_over_lambda", 0.0)
    missing = sorted(set(_SCENARIOS[kind]) - set(s))
    if missing:
        raise ConfigurationError(f"a {kind} scenario needs {', '.join(missing)}")
    if s["width_over_lambda"] <= 0:
        raise ConfigurationError("scenario.width_over_lambda must be positive")

    d = merged["decoherence"]
    if d["points"] < 2 or d["max_dx_over_lambda"] <= 0:
        raise ConfigurationError("decoherence range must be positive with >= 2 points")
    return merged


def _model_params(cfg: dict) -> ModelParams:
    p = cfg["params"]
    return ModelParams(omega0=p["omega0"], mu=p["mu"], gamma=p["gamma"])


def _scenario(cfg: dict, params: ModelParams) -> Scenario:
    s = cfg["scenario"]
    lam = params.wavelength
    width = s["width_over_lambda"] * lam
    if s["kind"] == "single":
        return Scenario.single(width=width, center=s["center_over_lambda"] * lam)
    return Scenario.superposition(
        center_offset=s["center_offset_over_lambda"] * lam, width=width)


def _spatial_grid(cfg: dict, params: ModelParams) -> SpatialGrid:
    g = cfg["grid"]
    lam = params.wavelength
    return SpatialGrid.linspace(g["min_over_lambda"] * lam,
                                g["max_over_lambda"] * lam, g["points"])


def _mode_grid(cfg: dict, params: ModelParams) -> ModeGrid:
    m = cfg["modes"]
    with np.errstate(all="ignore"):  # ModeGrid refuses a value out of range
        return ModeGrid.build(params, n_k=m["n_k"],
                              bandwidth_gammas=m["bandwidth_gammas"],
                              n_phi=m["n_phi"], flat_coupling=m["flat_coupling"])


# ----------------------------------------------------------------------
# output plumbing


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def _publish(paths: list[str]):
    """Yield one temp file name beside each of ``paths``, for the block to
    write.  If the block ends without error, rename each temp onto its path,
    in order; whatever fails, no temp file is left behind."""
    temps = []
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-recoilsim-")
            os.close(fd)
            temps.append(tmp)
        yield list(temps)
        # mkstemp creates the file 0600; give it the mode open() would have.
        umask = os.umask(0o077)
        os.umask(umask)
        for path in paths:
            os.chmod(temps[0], 0o666 & ~umask)
            os.replace(temps.pop(0), path)
    finally:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header`` and then each item of ``rows`` (one CSV line, or a
    block of lines) to ``path``, each ending in a newline, as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for text in itertools.chain([header], rows):
            fh.write(text + "\n")


# ----------------------------------------------------------------------
# subcommands


def cmd_decoherence_factor(cfg: dict, out_dir: str) -> int:
    """Tabulate F(dx) = J0^2(pi dx / lambda) on a half-open separation grid."""
    dec = cfg["decoherence"]
    n = dec["points"]
    # Half-open grid [0, max): n evenly spaced rows starting exactly at zero.
    with np.errstate(all="ignore"):  # an overflow is refused below
        dx = dec["max_dx_over_lambda"] * np.arange(n) / n
        z = np.pi * dx
    if not np.isfinite(z).all():
        raise ConfigurationError("decoherence: max_dx_over_lambda times points "
                                 "leaves the float range")
    f_values = bessel_j0(z) ** 2
    path = os.path.join(out_dir, "decoherence_factor.csv")
    with _publish([path]) as [tmp]:
        _write_csv(tmp, "dx_over_lambda,F",
                   (f"{_fmt(a)},{_fmt(b)}" for a, b in zip(dx, f_values)))
    print(f"wrote {path} ({n} rows)")
    return 0


def _density_rows(dg, x_strings: list[str]):
    """One block of CSV lines per matrix row, built from the factors as it
    is written; ``x_strings`` are the grid's formatted x values.

    Each block is one ``%`` of a per-file template with the x columns baked
    in; ``%.17g`` is ``_fmt``'s format.  ``abs`` is Python's, on the values
    of ``tolist()``: the vectorized ``np.abs`` can differ in the last bit.
    """
    tails = [f",{xj},%.17g,%.17g,%.17g" for xj in x_strings]
    for i, xi in enumerate(x_strings):
        template = xi + ("\n" + xi).join(tails)
        yield template % tuple([part for v in dg.row(i).tolist()
                                for part in (v.real, v.imag, abs(v))])


def _write_density(job) -> None:
    """Write one density CSV; ``job`` is ``(path, dg, x_strings)``."""
    path, dg, x_strings = job
    _write_csv(path, DENSITY_HEADER, _density_rows(dg, x_strings))


def cmd_evolve(cfg: dict, out_dir: str, emission: str | None) -> int:
    """Density matrices for the configured scenario at each (time, emission)."""
    params = _model_params(cfg)
    lam = params.wavelength
    scenario = _scenario(cfg, params)
    grid = _spatial_grid(cfg, params)
    gamma_times = cfg["times"]
    flags = [True, False] if emission is None else [emission == "on"]
    stems = [f"density_gt{gt:g}" for gt in gamma_times]
    repeated = sorted({stem for stem in stems if stems.count(stem) > 1})
    if repeated:
        raise ConfigurationError(
            f"times {gamma_times} would write {', '.join(repeated)}_*.csv "
            "more than once")
    x_strings = [_fmt(v) for v in grid.x_values / lam]
    # A lower bound on the CSV bytes: the x columns exactly, then four commas,
    # a newline and three values of at least one character each per row.
    need = len(flags) * len(stems) * (len(DENSITY_HEADER) + 1 + grid.n * (
        2 * sum(map(len, x_strings)) + 8 * grid.n))
    free = shutil.disk_usage(out_dir).free
    if need > free:
        raise ConfigurationError(
            f"grid.points = {grid.n} needs at least {need / 2**30:.3g} GiB for "
            f"{len(flags) * len(stems)} density files, more than the "
            f"{free / 2**30:.3g} GiB free in {out_dir}")

    # Compute everything up front: a validity-gate failure on any requested
    # time must leave the output directory untouched.
    sweeps = [(flag, scenario_sweep(scenario,
                                    [gt / params.gamma for gt in gamma_times],
                                    flag, grid, params))
              for flag in flags]

    entries = []
    for flag, runs in sweeps:
        tag = "on" if flag else "off"
        for gt, stem, dg in zip(gamma_times, stems, runs):
            length = coherence_length(dg)
            entries.append({
                "gamma_t": gt,
                "time": gt / params.gamma,
                "emission": flag,
                "file": f"{stem}_{tag}.csv",
                "trace": dg.trace(),
                "purity": dg.purity(),
                "coherence_length_over_lambda": length.length / lam,
                "coherence_crossed": length.crossed,
                "diag_width_over_lambda": dg.diag_width() / lam,
            })

    # Formatting bounds the run, so each file gets its own process, as
    # worker_count allows.  Forked workers inherit the loaded modules, where
    # spawned ones would import numpy again (about 0.2 s each); the sweep's
    # threads have ended by now.  Imported here, the pool costs the other
    # subcommands nothing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    densities = [dg for _, runs in sweeps for dg in runs]
    paths = [os.path.join(out_dir, entry["file"]) for entry in entries]
    path = os.path.join(out_dir, "evolve_summary.json")
    # The summary is renamed last: it never names a file left unpublished.
    with _publish([*paths, path]) as temps:
        pool = ProcessPoolExecutor(worker_count(len(densities)),
                                   multiprocessing.get_context("fork"))
        try:
            for future in [pool.submit(_write_density, (tmp, dg, x_strings))
                           for tmp, dg in zip(temps, densities)]:
                future.result()
        except BrokenProcessPool:
            raise OSError("a density writer process ended without finishing "
                          "its file") from None
        finally:
            # After a failure, the writes no worker has taken yet never
            # start, and the running ones end before their temps go.
            pool.shutdown(cancel_futures=True)
        summary = {"generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                   "runs": entries}
        with open(temps[-1], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} density files + {path}")
    return 0


def _resident_bytes() -> int:
    """The process's resident size now (0 where ``/proc`` does not say)."""
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def _available_bytes() -> int:
    """Memory available now: ``MemAvailable`` from ``/proc/meminfo``, or the
    machine's physical memory where that file does not say."""
    try:
        with open("/proc/meminfo") as meminfo:
            return 1024 * next(int(line.split()[1]) for line in meminfo
                               if line.startswith("MemAvailable:"))
    except (OSError, StopIteration, ValueError):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _oracle_amplitudes(cfg: dict, out_dir: str) -> int:
    params = _model_params(cfg)
    m = cfg["modes"]
    # Counted from the config, before the grid exists, on top of what the
    # process already holds; a count below the grid's minimum is left to
    # ModeGrid's own refusal.
    need = (memory_estimate(max(m["n_k"], 0) * max(m["n_phi"], 0), SAMPLE_COUNT)
            + _resident_bytes())
    have = _available_bytes()
    if need > have:
        # Decimal, not float: the exact count can pass the float range.  Imported
        # here, as it is needed only to refuse.
        from decimal import Decimal
        gib = Decimal(need) / 2**30
        raise ConfigurationError(f"modes.n_k = {m['n_k']} needs about {gib:.3g} GiB for "
                                 "the amplitudes oracle and what the process holds, "
                                 f"more than the {have / 2**30:.3g} GiB of available memory")
    run = OdeRun(params=params, grid=_mode_grid(cfg, params),
                 t_span=(0.0, 5.0 / params.gamma), tol=1e-10)
    with np.errstate(all="ignore"):  # the decay check below fails a NaN
        trajectory = integrate_amplitudes(run)
        norms = trajectory.norms
        populations = trajectory.sector_populations
        decay = max_decay_error(trajectory)
        drift = float(np.abs(norms - norms[0]).max())
    rows = (
        f"{_fmt(t)},{_fmt(a.real)},{_fmt(a.imag)},{_fmt(n)},"
        f"{_fmt(pa)},{_fmt(pb)},{_fmt(pd)}"
        for t, a, n, (pa, pb, pd)
        in zip(trajectory.times, trajectory.a, norms, populations)
    )
    path = os.path.join(out_dir, "oracle_amplitudes.csv")
    with _publish([path]) as [tmp]:
        _write_csv(tmp, "t,re_a,im_a,norm,pop_a,pop_b,pop_d", rows)
    print(f"wrote {path}")
    print(f"max |A|^2 decay deviation (within recurrence window): {decay:.3e}")
    print(f"max sector-norm drift: {drift:.3e}")
    _require_within("|A|^2 decay deviation", decay, DECAY_TOLERANCE)
    return 0


def _oracle_quadrature(cfg: dict, out_dir: str) -> int:
    params = _model_params(cfg)
    scenario = _scenario(cfg, params)
    lam = params.wavelength
    t = (max(cfg["times"]) if cfg["times"] else 5.0) / params.gamma
    with np.errstate(all="ignore"):  # a value out of range is refused below
        xs = np.linspace(-QUADRATURE_SPAN * lam, QUADRATURE_SPAN * lam,
                         QUADRATURE_POINTS)
        if not np.isfinite(xs).all():
            raise ConfigurationError("the quadrature oracle's probe grid |x| <= "
                                     f"{QUADRATURE_SPAN} lambda leaves the float range")
        psi = np.asarray(psi_free(xs, t, scenario, params), dtype=complex)
        factorized = np.multiply.outer(psi, psi.conj()) * decoherence_factor(
            xs[:, None], xs[None, :], params)
        scale = float(np.abs(factorized).max())
    if not 0.0 < scale < np.inf:  # also NaN, from model arithmetic out of range
        raise ConfigurationError("the packet has no finite density on the quadrature "
                                 f"oracle's probe grid |x| <= {QUADRATURE_SPAN} lambda")
    quad = np.empty_like(factorized)
    for i, x in enumerate(xs):
        for j, x2 in enumerate(xs):
            quad[i, j] = density_quadrature(x, x2, t, scenario, params,
                                            n_phi=256, include_offset=False)
    rows = (
        f"{_fmt(xs[i] / lam)},{_fmt(xs[j] / lam)},"
        f"{_fmt(quad[i, j].real)},{_fmt(quad[i, j].imag)},"
        f"{_fmt(factorized[i, j].real)},{_fmt(factorized[i, j].imag)},"
        f"{_fmt(abs(quad[i, j] - factorized[i, j]))}"
        for i in range(xs.size) for j in range(xs.size)
    )
    path = os.path.join(out_dir, "oracle_quadrature.csv")
    with _publish([path]) as [tmp]:
        _write_csv(tmp, "x_over_lambda,xp_over_lambda,re_quad,im_quad,"
                        "re_fact,im_fact,abs_diff", rows)
    relative = float(np.abs(quad - factorized).max()) / scale
    print(f"wrote {path}")
    print(f"max |quadrature - factorized| / max|factorized|: {relative:.3e}")
    _require_within("quadrature deviation", relative, QUADRATURE_TOLERANCE)
    return 0


def _oracle_rate(cfg: dict, out_dir: str) -> int:
    params = _model_params(cfg)
    grid = _mode_grid(cfg, params)
    with np.errstate(all="ignore"):  # a value out of range is refused below
        check = ww_rate_check(grid, params)
    if not np.isfinite(check.rate) or check.expected == 0.0:  # under- or overflow
        raise ConfigurationError("the mode grid's pole sum or gamma/2 is not a "
                                 "finite positive number")
    relative = abs(check.rate / check.expected - 1.0)
    path = os.path.join(out_dir, "oracle_rate.csv")
    with _publish([path]) as [tmp]:
        _write_csv(tmp, "rate,expected,relative_error,flagged",
                   [f"{_fmt(check.rate)},{_fmt(check.expected)},"
                    f"{_fmt(relative)},{str(check.flagged).lower()}"])
    print(f"wrote {path}")
    print(f"pole-sum rate relative error: {relative:.3e}")
    # Flagged means a deficit over 10 %, always beyond this tolerance.
    _require_within("rate_deficit", relative, RATE_TOLERANCE, " (grid bandwidth too small)")
    return 0


def _require_within(what: str, value: float, tolerance: float, hint: str = "") -> None:
    """Pass only when ``value <= tolerance``: a NaN comparison fails."""
    if not value <= tolerance:
        raise OracleToleranceError(f"{what} {value:.3e} > {tolerance}{hint}")


# ----------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recoilsim",
        description="Spontaneous-emission decoherence of two-atom relative motion")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config overlaid on the defaults")
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p_dec = sub.add_parser("decoherence-factor",
                           help="tabulate F(dx) = J0^2(pi dx/lambda)")
    add_common(p_dec)

    p_evo = sub.add_parser("evolve",
                           help="density matrices over the configured times")
    add_common(p_evo)
    p_evo.add_argument("--emission", choices=["on", "off"],
                       help="restrict to one emission flag (default: both)")

    p_orc = sub.add_parser("oracle", help="run a brute-force validator")
    add_common(p_orc)
    p_orc.add_argument("--which", required=True,
                       choices=["amplitudes", "quadrature", "rate"])
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  Each warning it raises
    shows on stderr as one ``warning: <message>`` line, not Python's two,
    whose second is a line of source; the format is restored on return."""
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return _main(argv)
    finally:
        warnings.formatwarning = formatwarning


def _main(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, else usage error
        return 0 if exc.code == 0 else 1

    try:
        cfg = load_config(ns.config)
        os.makedirs(ns.out, exist_ok=True)
        if ns.command == "decoherence-factor":
            return cmd_decoherence_factor(cfg, ns.out)
        if ns.command == "evolve":
            return cmd_evolve(cfg, ns.out, ns.emission)
        oracle = {"amplitudes": _oracle_amplitudes, "quadrature": _oracle_quadrature,
                  "rate": _oracle_rate}[ns.which]
        return oracle(cfg, ns.out)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'the run does not fit'}", file=sys.stderr)
        return 1
    except OverflowError:
        print("number out of range: a config value is too large or too small "
              "for the model's float arithmetic", file=sys.stderr)
        return 1
    except ModelValidityError as exc:
        print(f"validity gate: {exc}", file=sys.stderr)
        return 2
    except (OracleToleranceError, NormDriftFailure) as exc:
        print(f"oracle tolerance breach: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
