"""Command-line front end: every dataset and oracle run from one binary.

Three subcommands cover the package's outputs:

* ``recoilsim decoherence-factor`` -- tabulate the Bessel-squared coherence
  suppression F against separation.
* ``recoilsim evolve`` -- reduced density matrices for a packet scenario at a
  list of times, with and/or without emission, plus a JSON summary.
* ``recoilsim oracle --which {amplitudes,quadrature,rate}`` -- run one of the
  brute-force validators: it reports each of its checks as one line, value
  against tolerance, and the first check breached fails the run.

Configuration is a JSON document overlaid onto built-in defaults (the
single-packet narrowing scenario).  A run whose writing fails replaces no
file.  Every CSV prints its floats in ``%.17g``, 17 significant digits,
through one vectorized kernel (``_g17``), so reruns are byte-identical.

Exit codes: 0 success; 1 configuration or I/O error; 2 model-validity gate;
3 oracle tolerance breach.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import shutil
import sys
import tempfile
import warnings
from typing import NamedTuple

# No CLI run gains from a second OpenBLAS thread: the oracle's block sums
# stay within 2**18 multiply-adds, which run on one, its products are mostly
# gathers and elementwise, and the rest is elementwise or short.  Starting
# the idle worker threads still costs each process about 0.1 s of CPU, and
# evolve would fork with them alive.  So numpy starts on one thread, unless
# it is already loaded or the caller chose a thread count.
if "numpy" not in sys.modules and not any(
        var in os.environ
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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

# What the amplitudes oracle's first run adds to the process whatever the
# grid's size, beside memory_estimate: pages of the solver's and the CSV
# kernel's code and BLAS's buffers, about 2-3 MB from 4 to 200 modes.
FIRST_RUN_BYTES = 4 * 2**20

# Fixed probe grid for the quadrature oracle (in wavelengths); the full
# configured grid would be prohibitively slow under a double angle sum.
QUADRATURE_POINTS = 16
QUADRATURE_SPAN = 2.0

DENSITY_HEADER = "x_over_lambda,xp_over_lambda,re_rho,im_rho,abs_rho"
# About how many CSV lines evolve lays out and formats at once.
BATCH_LINES = 1 << 15

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


class Check(NamedTuple):
    """One oracle comparison, passed only when ``value <= tolerance``: a NaN fails."""
    name: str
    value: float
    tolerance: float


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
            except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
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


def _slots(columns) -> np.ndarray:
    """The CSV lines of ``columns``, one array per field, as rows of
    ``_g17.WIDTH``-byte zero-padded slots, each followed by its ``,`` or, the
    last, by the newline: a line's text is its row without the zero bytes.
    One call of the ``%.17g`` kernel ``_g17.slots`` formats the float
    columns; a bytes column (numpy ``S`` dtype, at most ``_g17.WIDTH`` bytes
    an item) is copied as given."""
    from . import _g17  # imported here, it costs importing the cli nothing
    columns = [np.asarray(column).ravel() for column in columns]
    text = [column.dtype.kind == "S" for column in columns]
    values = np.column_stack([np.zeros(c.size) if t else c for c, t in zip(columns, text)])
    rows = np.empty((*values.shape, _g17.WIDTH + 1), np.uint8)
    _g17.slots(values, rows[:, :, :-1].reshape(-1, _g17.WIDTH))
    for i in np.flatnonzero(text):
        rows[:, i, :-1] = columns[i].astype(f"S{_g17.WIDTH}")[:, None].view(np.uint8)
    rows[:, :, -1] = ord(",")
    rows[:, -1, -1] = ord("\n")
    return rows.reshape(len(rows), -1)


def _publish_csv(path: str, header: str, columns) -> None:
    """Publish at ``path`` the CSV of ``header`` and ``_slots(columns)``."""
    text = _slots(columns).tobytes().translate(None, b"\0")
    with _publish([path]) as [tmp], open(tmp, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n" + text)


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
    _publish_csv(path, "dx_over_lambda,F", [dx, f_values])
    print(f"wrote {path} ({n} rows)")
    return 0


def _cell_slots(values: np.ndarray) -> np.ndarray:
    """``re,im,abs\\n`` of each complex value, as ``_slots`` rows.

    ``abs`` is ``np.hypot``, which is Python's ``abs`` of a complex to the
    bit (``np.abs`` can differ in the last bit), and as there, a modulus that
    overflows from finite parts raises ``OverflowError``.
    """
    with np.errstate(over="ignore"):
        modulus = np.hypot(values.real, values.imag)
    if (np.isinf(modulus) & np.isfinite(values)).any():
        raise OverflowError("absolute value too large")
    return _slots([values.real, values.imag, modulus])


def _density_rows(dg, xs: np.ndarray):
    """One block of CSV lines per matrix row, as ASCII bytes with every line
    ending in a newline, built from the factors as it is written; ``xs`` are
    the grid's x values as ``_slots`` rows.

    Rows go in batches of about ``BATCH_LINES`` lines.  A batch stacks its
    rows from ``DensityGrid.row``, formats every entry with one
    ``_cell_slots`` call, lays each line out as its x, x' and entry slots,
    and drops the zero bytes of the slots no character uses.  So a writer
    holds ``BATCH_LINES`` slotted lines, and with the kernel's temporaries
    its allocations peak near 17 MB, at any grid size.  Each entry below the
    diagonal prints as the conjugate of its mirror, signed zeros included,
    because ``DensityGrid.row`` builds it so.  The factors of the densities
    the CLI writes are finite, so no entry is NaN and no ``nan`` field turns
    into ``-nan``.
    """
    xs = xs[:, xs.any(axis=0)]  # the places some x uses, then its separator
    xs[:, -1] = ord(",")
    n, wx = xs.shape
    step = max(BATCH_LINES // n, 1)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        cells = _cell_slots(np.array([dg.row(k) for k in range(r0, r1)]))
        lines = np.empty((r1 - r0, n, 2 * wx + cells.shape[1]), np.uint8)
        lines[:, :, :wx] = xs[r0:r1, None]
        lines[:, :, wx:2 * wx] = xs
        lines[:, :, 2 * wx:] = cells.reshape(r1 - r0, n, -1)
        for block in lines:
            yield block.tobytes().translate(None, b"\0")


def _write_density(job) -> None:
    """Write one density CSV; ``job`` is ``(path, dg, xs)``."""
    path, dg, xs = job
    with open(path, "wb") as fh:
        fh.write(DENSITY_HEADER.encode("ascii") + b"\n")
        fh.writelines(_density_rows(dg, xs))


def cmd_evolve(cfg: dict, out_dir: str, emission: str | None) -> int:
    """Density matrices for the configured scenario at each (time, emission).

    Only the disk pre-flight bounds the run's time: a writer process formats
    0.9 to 1.3 M lines per second, of the default 321-point files as of
    1601-point ones (2 vCPUs)."""
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
    xs = _slots([grid.x_values / lam])
    # A lower bound on the CSV bytes: each x and its separator exactly, then
    # two commas, a newline and three values of at least one character per row.
    need = len(flags) * len(stems) * (len(DENSITY_HEADER) + 1 + grid.n * (
        2 * np.count_nonzero(xs) + 6 * grid.n))
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
        jobs = [(tmp, dg, xs) for tmp, dg in zip(temps, densities)]
        # After a failure, map cancels the writes no worker has taken yet,
        # and leaving the pool waits for the running ones before their temps go.
        try:
            with ProcessPoolExecutor(worker_count(len(densities)),
                                     multiprocessing.get_context("fork")) as pool:
                list(pool.map(_write_density, jobs))
        except BrokenProcessPool:
            raise OSError("a density writer process ended without finishing "
                          "its file") from None
        summary = {"generated": datetime.datetime.now(datetime.timezone.utc),
                   "runs": entries}
        with open(temps[-1], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True,
                                default=datetime.datetime.isoformat) + "\n")
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


def _oracle_amplitudes(cfg: dict) -> tuple:
    params = _model_params(cfg)
    m = cfg["modes"]
    # Counted from the config, before the grid exists, on top of what the
    # process already holds and what any first run adds; a count below the
    # grid's minimum is left to ModeGrid's own refusal.
    need = (memory_estimate(max(m["n_k"], 0) * max(m["n_phi"], 0), SAMPLE_COUNT)
            + _resident_bytes() + FIRST_RUN_BYTES)
    have = _available_bytes()
    if need > have:
        # _typed caps n_k and n_phi at sys.maxsize // 16: need / 2**30 is a float.
        raise ConfigurationError(f"modes.n_k = {m['n_k']} needs about "
                                 f"{need / 2**30:.3g} GiB for "
                                 "the amplitudes oracle and what the process holds, "
                                 f"more than the {have / 2**30:.3g} GiB of available memory")
    run = OdeRun(params=params, grid=_mode_grid(cfg, params),
                 t_span=(0.0, 5.0 / params.gamma), tol=1e-10)
    with np.errstate(all="ignore"):  # the checks fail a NaN
        trajectory = integrate_amplitudes(run)
        return ("oracle_amplitudes.csv", "t,re_a,im_a,norm,pop_a,pop_b,pop_d",
                [trajectory.times, trajectory.a.real, trajectory.a.imag,
                 trajectory.norms, *trajectory.sector_populations.T],
                [Check("max |A|^2 decay deviation (within recurrence window)",
                       max_decay_error(trajectory), 0.05),
                 Check("max sector-norm drift", trajectory.norm_drift, 10.0 * run.tol)])


def _oracle_quadrature(cfg: dict) -> tuple:
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
    quad = density_quadrature(xs[:, None], xs[None, :], t, scenario, params,
                              n_phi=256, include_offset=False)
    diff = quad - factorized
    abs_diff = np.hypot(diff.real, diff.imag)  # Python's abs of each, to the bit
    return ("oracle_quadrature.csv",
            "x_over_lambda,xp_over_lambda,re_quad,im_quad,re_fact,im_fact,abs_diff",
            [np.repeat(xs / lam, xs.size), np.tile(xs / lam, xs.size),
             quad.real, quad.imag, factorized.real, factorized.imag, abs_diff],
            [Check("max |quadrature - factorized| / max|factorized|",
                   float(abs_diff.max()) / scale, 1e-8)])


def _oracle_rate(cfg: dict) -> tuple:
    params = _model_params(cfg)
    grid = _mode_grid(cfg, params)
    with np.errstate(all="ignore"):  # a value out of range is refused below
        pole_sum = ww_rate_check(grid, params)
    if not np.isfinite(pole_sum.rate) or pole_sum.expected == 0.0:  # under- or overflow
        raise ConfigurationError("the mode grid's pole sum or gamma/2 is not a "
                                 "finite positive number")
    relative = abs(pole_sum.rate / pole_sum.expected - 1.0)
    # Flagged means a deficit over 10 %, always beyond the tolerance.
    return ("oracle_rate.csv", "rate,expected,relative_error,flagged",
            [[pole_sum.rate], [pole_sum.expected], [relative],
             [b"true" if pole_sum.flagged else b"false"]],
            [Check("pole-sum rate relative error", relative, 0.05)])


def cmd_oracle(cfg: dict, out_dir: str, which: str) -> int:
    """Publish a validator's table, print each of its checks, value against
    tolerance, then raise :class:`OracleToleranceError` on the first failed."""
    validator = {"amplitudes": _oracle_amplitudes, "quadrature": _oracle_quadrature,
                 "rate": _oracle_rate}[which]
    name, header, columns, checks = validator(cfg)
    path = os.path.join(out_dir, name)
    _publish_csv(path, header, columns)
    print(f"wrote {path}")
    # Each value as its shortest round-trip repr, so that a breach just past
    # its tolerance does not read as equal to it.
    for check in checks:
        print(f"{check.name}: {float(check.value)!r} (tolerance {check.tolerance:g})")
    for check in checks:
        if not check.value <= check.tolerance:
            raise OracleToleranceError(
                f"{check.name} {float(check.value)!r} > {check.tolerance:g}")
    return 0


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
        return cmd_oracle(cfg, ns.out, ns.which)
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
