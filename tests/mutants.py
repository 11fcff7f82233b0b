"""Mutation pass: every listed one-line mutant must fail its tests.

Each mutant is ``(file, old line, new line, test modules)``: in a fresh copy
of ``src/``, ``tests/`` and ``pyproject.toml``, the one line of ``file`` that
reads ``old line`` (indentation aside) becomes ``new line``, at the same
indentation, and the test modules (or pytest node ids, such as one class of
a module) run with ``pytest -x`` against the copy.
A mutant is killed when pytest reports a failure (exit code 1).

Run from anywhere::

    python tests/mutants.py

It exits 1 if any mutant survives, or if one cannot be applied or tested
(its line is missing or not unique, or pytest exits with another code), and
0 when every mutant is killed.  Standard library and pytest only; the file
is not named ``test_*`` so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    # The density quadrature's recoil shift, a percent too long.
    ("src/recoilsim/oracle.py",
     "s_off = params.hbar * params.omega0 * t / (2.0 * params.mu * params.c)",
     "s_off = 1.01 * params.hbar * params.omega0 * t / (2.0 * params.mu * params.c)",
     ["tests/test_oracle.py"]),
    # The coherence length's 1/e threshold, a tenth of a permille high.
    ("src/recoilsim/density.py",
     "threshold = float(np.exp(-1.0))",
     "threshold = 1.001 * float(np.exp(-1.0))",
     ["tests/test_density.py"]),
    # Miller's normalisation J0 + 2 sum J_2k = 1 without its 2.
    ("src/recoilsim/oracle.py",
     "return ratio[:order + 1] / (1.0 + 2.0 * np.add.reduce(ratio[2::2], axis=0))",
     "return ratio[:order + 1] / (1.0 + np.add.reduce(ratio[2::2], axis=0))",
     ["tests/test_oracle.py"]),
    # The signs of the odd Chebyshev terms flipped.
    ("src/recoilsim/oracle.py",
     "coef = np.where(k > 0, 2.0, 1.0) * np.array([1.0, -1.0, -1.0, 1.0])[k % 4] * bessel",
     "coef = np.where(k > 0, 2.0, 1.0) * np.array([1.0, 1.0, -1.0, -1.0])[k % 4] * bessel",
     ["tests/test_oracle.py"]),
    # The block sums chunked for the default sample count, not the run's:
    # with many more samples each GEMM is big enough for a second thread.
    ("src/recoilsim/oracle.py",
     "chunk = max(1, 2**18 // ((BLOCK // 2) * dt.size))",
     "chunk = max(1, 2**18 // ((BLOCK // 2) * SAMPLE_COUNT))",
     ["tests/test_oracle.py"]),
    # The odd terms summed into the even plane, the real part, not the odd one.
    ("src/recoilsim/oracle.py",
     "odd[first:, piece] += c[1::2].T @ done[1::2, piece]",
     "even[first:, piece] += c[1::2].T @ done[1::2, piece]",
     ["tests/test_oracle.py"]),
    # The planes interleaved swapped: E as the imaginary part, O as the real.
    ("src/recoilsim/oracle.py",
     "sample.real, sample.imag = planes[:dim], planes[dim:]",
     "sample.real, sample.imag = planes[dim:], planes[:dim]",
     ["tests/test_oracle.py"]),
    # The planes left side by side, never interleaved.
    ("src/recoilsim/oracle.py",
     "sample.real, sample.imag = planes[:dim], planes[dim:]",
     "pass",
     ["tests/test_oracle.py"]),
    # The Weyl bound's B-D block scaled by sqrt(1 / w), not sqrt(2 / w): the
    # interval still encloses the spectrum, but the product count falls.
    ("src/recoilsim/oracle.py",
     "b = np.sqrt(2.0 * squares) + np.sqrt(squares + g.max() * np.add.reduce(g))",
     "b = np.sqrt(2.0 * squares) + np.sqrt(0.5 * (squares + g.max() * np.add.reduce(g)))",
     ["tests/test_oracle.py"]),
    # The Weyl bound's B-D block at its smallest row sum, not its largest.
    ("src/recoilsim/oracle.py",
     "b = np.sqrt(2.0 * squares) + np.sqrt(squares + g.max() * np.add.reduce(g))",
     "b = np.sqrt(2.0 * squares) + np.sqrt(squares + g.min() * np.add.reduce(g))",
     ["tests/test_oracle.py"]),
    # The radius from the diagonal's largest entry, not its largest
    # magnitude: a diagonal whose range lies mostly below 0 escapes [-R, R].
    ("src/recoilsim/oracle.py",
     "return float(np.abs(h.diagonal).max() + b)",
     "return float(h.diagonal.max() + b)",
     ["tests/test_oracle.py"]),
    # The two-photon pairs fed by B_k only, without the exchange route.
    ("src/recoilsim/oracle.py",
     "own=g[cols] * (1 + (rows == cols)), exchange=g[rows] * (rows != cols))",
     "own=g[cols] * (1 + (rows == cols)), exchange=0.0 * g[rows])",
     ["tests/test_oracle.py"]),
    # The one-photon amplitude's dressed width a percent narrow in its
    # denominator.
    ("src/recoilsim/amplitudes.py",
     "denom = 1j * (alpha - beta) + g / 2.0",
     "denom = 1j * (alpha - beta) + g / 2.02",
     ["tests/test_amplitudes.py"]),
    # The two-photon form's source pole a percent narrow.
    ("src/recoilsim/amplitudes.py",
     "b_ = 1j * (alpha - beta) + gamma / 2.0",
     "b_ = 1j * (alpha - beta) + gamma / 2.02",
     ["tests/test_amplitudes.py"]),
    # The long-time two-photon limit's first factor a percent narrow.
    ("src/recoilsim/amplitudes.py",
     "(1j * (beta1 - delta) + g / 2.0)",
     "(1j * (beta1 - delta) + g / 2.02)",
     ["tests/test_amplitudes.py"]),
    # The sweep's spacing gate at lambda/10, not lambda/20.
    ("src/recoilsim/density.py",
     "if grid.spacing > lam / 20.0 * (1.0 + 1e-9):",
     "if grid.spacing > lam / 10.0 * (1.0 + 1e-9):",
     ["tests/test_density.py"]),
    # The sweep's extent gate at 5 packet spreads, not 6.
    ("src/recoilsim/density.py",
     "needed = 6.0 * scenario.max_sigma(times[-1], params)",
     "needed = 5.0 * scenario.max_sigma(times[-1], params)",
     ["tests/test_density.py"]),
    # Emission refused below gamma*t = 1.5, not 1.
    ("src/recoilsim/density.py",
     "if gt < HARD_TIME_GATE:",
     "if gt < 1.5:",
     ["tests/test_density.py"]),
    # Emission warned of below gamma*t = 4, not 5.
    ("src/recoilsim/density.py",
     "if gt < SOFT_TIME_GATE:",
     "if gt < 4.0:",
     ["tests/test_density.py"]),
    # The free packet spreading a percent fast.
    ("src/recoilsim/density.py",
     "d_t = d**2 + 1j * params.hbar * t / (2.0 * params.mu)",
     "d_t = d**2 + 1.01j * params.hbar * t / (2.0 * params.mu)",
     ["tests/test_density.py"]),
    # The free packet's prefactor with the conjugate complex width: a
    # global phase that no density matrix sees, only the momentum-integral
    # reference in tests/references.py.
    ("src/recoilsim/density.py",
     "pref = (2.0 * np.pi) ** (-0.25) * np.sqrt(d / d_t)",
     "pref = (2.0 * np.pi) ** (-0.25) * np.sqrt(d / np.conj(d_t))",
     ["tests/test_density.py"]),
    # The decoherence factor's Bessel argument a percent short.
    ("src/recoilsim/density.py",
     "arg = (params.omega0 / (2.0 * params.c)) * (np.asarray(x, dtype=float)",
     "arg = (params.omega0 / (2.02 * params.c)) * (np.asarray(x, dtype=float)",
     ["tests/test_density.py"]),
    # The pole sum flagged only below 80 % of gamma/2, not 90 %.
    ("src/recoilsim/oracle.py",
     "return RateCheck(rate=rate, expected=half, flagged=rate < 0.9 * half)",
     "return RateCheck(rate=rate, expected=half, flagged=rate < 0.8 * half)",
     ["tests/test_oracle.py"]),
    # J0's switch to the Hankel asymptotics at |z| = 10, where they are
    # less accurate.
    ("src/recoilsim/specfun.py",
     "CROSSOVER = 12.0",
     "CROSSOVER = 10.0",
     ["tests/test_specfun.py"]),
    # The Hankel expansion's phase shift pi/4 a quarter-percent small.
    ("src/recoilsim/specfun.py",
     "chi = z - np.pi / 4.0",
     "chi = z - np.pi / 4.01",
     ["tests/test_specfun.py"]),
    # The Chebyshev recurrence fed phi_{j-2} where it needs phi_{j-1}.
    ("src/recoilsim/oracle.py",
     "phi, row = block[(j - 1) % BLOCK], block[j % BLOCK]",
     "phi, row = block[(j - 2) % BLOCK], block[j % BLOCK]",
     ["tests/test_oracle.py"]),
    # A block sum one term short.
    ("src/recoilsim/oracle.py",
     "done = block[:j + 1 - start]",
     "done = block[:j - start]",
     ["tests/test_oracle.py"]),
    # The dispersion: the closed forms and the oracles call the same
    # functions, so only a check on the dispersion itself can fail these.
    # The relative coordinate's share of the one-photon kick a percent small.
    ("src/recoilsim/core.py",
     "+ (np.asarray(p, dtype=float) - q / 2.0) ** 2 / (2.0 * params.mu)",
     "+ (np.asarray(p, dtype=float) - q / 2.02) ** 2 / (2.0 * params.mu)",
     ["tests/test_core.py"]),
    # The one-photon centre-of-mass energy with a mass a percent heavy.
    ("src/recoilsim/core.py",
     "kin = q**2 / (2.0 * params.cap_m) \\",
     "kin = q**2 / (2.02 * params.cap_m) \\",
     ["tests/test_core.py"]),
    # Every photon's kick a percent strong.
    ("src/recoilsim/core.py",
     "return params.hbar * np.asarray(k) * np.sin(phi)",
     "return 1.01 * params.hbar * np.asarray(k) * np.sin(phi)",
     ["tests/test_core.py"]),
    # The total mass a percent heavy.
    ("src/recoilsim/core.py",
     "return 4.0 * self.mu",
     "return 4.04 * self.mu",
     ["tests/test_core.py"]),
    # The two-photon form's second intermediate state back at p - q2/2, where
    # the second atom's emission leaves p + q2/2.
    ("src/recoilsim/amplitudes.py",
     "beta2 = omega_one_photon(k2, phi2, -np.asarray(p, dtype=float), params) - params.omega0",
     "beta2 = omega_one_photon(k2, phi2, p, params) - params.omega0",
     ["tests/test_amplitudes.py"]),
    # The %.17g kernel printing 1e16 to 1e17 in exponent notation.
    ("src/recoilsim/_g17.py",
     "fixed = (x >= -4) & (x < 17)",
     "fixed = (x >= -4) & (x < 16)",
     ["tests/test_g17.py"]),
    # The %.17g kernel printing the exponent 100 with two digits.
    ("src/recoilsim/_g17.py",
     "out[:, _EXPONENT + 2] = (expo & (mag >= 100)) * (ord(\"0\") + mag // 100)",
     "out[:, _EXPONENT + 2] = (expo & (mag > 100)) * (ord(\"0\") + mag // 100)",
     ["tests/test_g17.py"]),
    # The density's entries below the diagonal computed as products of
    # their own, not as conjugates of their mirrors: their signed zeros and
    # last bits need not be the mirror's conjugate's.
    ("src/recoilsim/density.py",
     "row[:i] = np.conj(psi[:i] * psi[i].conj() * self.factor[i:0:-1] * norm)",
     "row[:i] = row[:i]",
     ["tests/test_cli.py"]),
    # Every CSV's fields run together, without the comma between them.
    ("src/recoilsim/cli.py",
     'rows[:, :, -1] = ord(",")',
     "rows[:, :, -1] = 0",
     ["tests/test_cli.py"]),
    # The rate file's flagged column left empty, not copied.
    ("src/recoilsim/cli.py",
     'rows[:, i, :-1] = columns[i].astype(f"S{_g17.WIDTH}")[:, None].view(np.uint8)',
     "rows[:, i, :-1] = 0",
     ["tests/test_cli.py"]),
    # Every CSV line ends in a comma, not a newline.
    ("src/recoilsim/cli.py",
     'rows[:, -1, -1] = ord("\\n")',
     'rows[:, -1, -1] = ord(",")',
     ["tests/test_cli.py"]),
    # The oracle verdict comparing the other way round, so a NaN passes.
    ("src/recoilsim/cli.py",
     "if not check.value <= check.tolerance:",
     "if check.value > check.tolerance:",
     ["tests/test_cli.py::TestToleranceCheck"]),
    # The package loading numpy when ``from recoilsim import cli`` asks it
    # for ``cli``, before the CLI can choose the thread count.
    ("src/recoilsim/__init__.py",
     'if name.startswith("_") and name != "__all__" or name == "cli":',
     'if name.startswith("_") and name != "__all__":',
     ["tests/test_startup.py"]),
    # The CLI starting numpy on two threads, not one.
    ("src/recoilsim/cli.py",
     'os.environ["OPENBLAS_NUM_THREADS"] = "1"',
     'os.environ["OPENBLAS_NUM_THREADS"] = "2"',
     ["tests/test_startup.py"]),
    # The CLI overriding a caller's OMP_NUM_THREADS.
    ("src/recoilsim/cli.py",
     'for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):',
     'for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS")):',
     ["tests/test_startup.py"]),
    # The CLI setting the variable after numpy has started.
    ("src/recoilsim/cli.py",
     'if "numpy" not in sys.modules and not any(',
     "if not any(",
     ["tests/test_startup.py"]),
]


def mutate(text: str, old: str, new: str) -> str:
    """``text`` with its one line reading ``old`` replaced by ``new``."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old.strip()]
    if len(hits) != 1:
        raise ValueError(f"{len(hits)} lines read {old!r}")
    line = lines[hits[0]]
    indent = line[:len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + new.strip() + "\n"
    return "".join(lines)


def run(path: str, old: str, new: str, modules: list[str]) -> str:
    """``killed``, ``SURVIVED`` or ``ERROR: ...`` for one mutant."""
    with tempfile.TemporaryDirectory(prefix="recoilsim-mutant-") as tmp:
        copy = Path(tmp).resolve()
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / path
        try:
            target.write_text(mutate(target.read_text(), old, new))
        except ValueError as err:
            return f"ERROR: {path}: {err}"
        # The copy's package comes first on the path, ahead of any installed
        # one, and no bytecode is cached between mutants.
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import recoilsim; print(recoilsim.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            return f"ERROR: recoilsim imports from {where.stdout.strip() or where.stderr}"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *modules],
            cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exit {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}"


def main() -> int:
    failed = 0
    for path, old, new, modules in MUTANTS:
        start = time.perf_counter()
        verdict = run(path, old, new, modules)
        failed += verdict != "killed"
        seconds = time.perf_counter() - start
        print(f"{verdict:8s} {seconds:5.1f} s  {path}: {new.strip()}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
