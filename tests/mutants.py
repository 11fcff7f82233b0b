"""Mutation pass: every listed one-line mutant must fail its tests.

Each mutant is ``(file, old line, new line, test modules)``: in a fresh copy
of ``src/``, ``tests/`` and ``pyproject.toml``, the one line of ``file`` that
reads ``old line`` (indentation aside) becomes ``new line``, at the same
indentation, and the test modules run with ``pytest -x`` against the copy.
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
    # The centre's phase turning the wrong way.
    ("src/recoilsim/oracle.py",
     "phase = np.exp(-1j * center * dt)",
     "phase = np.exp(+1j * center * dt)",
     ["tests/test_oracle.py"]),
    # The Weyl bound's B-D block scaled by sqrt(1 / w), not sqrt(2 / w): the
    # interval still encloses the spectrum, but the product count falls.
    ("src/recoilsim/oracle.py",
     "m.data *= np.sqrt(2.0 / (2.0 - (rows == cols)))[m.indices]",
     "m.data *= np.sqrt(1.0 / (2.0 - (rows == cols)))[m.indices]",
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
    # The free packet spreading a percent fast.
    ("src/recoilsim/density.py",
     "d_t = d**2 + 0.5j * params.hbar * t / params.mu",
     "d_t = d**2 + 0.505j * params.hbar * t / params.mu",
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
    # The total mass a percent heavy.
    ("src/recoilsim/core.py",
     "return 4.0 * self.mu",
     "return 4.04 * self.mu",
     ["tests/test_core.py"]),
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
