"""Fuzz the ``%.17g`` kernel: ``_g17.slots`` against ``format(v, ".17g")``.

Every CSV the CLI writes prints its floats through ``_g17.slots``, so this
compares the kernel's text with Python's own on ``--count`` seeded random
float64 bit patterns (every exponent as likely as any other), random
subnormals, every power of two and of ten with its neighbouring floats, and
the edges: ±0, the ends of the subnormal range, the largest float, ±inf and
NaN.  Run from the repository root::

    PYTHONPATH=src python tests/fuzz_g17.py [--count N] [--seed S]

It prints how many values matched and exits 0, or prints the first few that
did not and exits 1.  Standard library and numpy only; the file is not named
``test_*`` so the test suite does not collect it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from recoilsim import _g17

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
         2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]


def values(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    patterns = np.frombuffer(rng.bytes(8 * count), np.float64)
    # Exponent bits cleared: a subnormal, or zero, of either sign.
    subnormals = (np.frombuffer(rng.bytes(8 * (count // 100)), np.uint64)
                  & np.uint64(0x800F_FFFF_FFFF_FFFF)).view(np.float64)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]])
    neighbours = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
    edges = np.array(EDGES)
    return np.concatenate([patterns, subnormals, *neighbours, edges, -edges])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**6,
                        help="random bit patterns to compare (default: 10**6)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    v = values(args.count, args.seed)
    rows = np.zeros((v.size, _g17.WIDTH + 1), np.uint8)
    _g17.slots(v, rows[:, :-1])
    rows[:, -1] = ord("\n")
    got = rows.tobytes().translate(None, b"\0").decode("ascii").splitlines()
    want = [format(x, ".17g") for x in v.tolist()]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if len(got) != len(want):
        bad.append(min(len(got), len(want)))
    seconds = time.perf_counter() - start
    for i in bad[:10]:
        print(f"MISMATCH {v[i].view(np.uint64):#018x}: kernel "
              f"{got[i] if i < len(got) else None!r}, format() {want[i]!r}")
    print(f"{v.size - len(bad)} of {v.size} values match format(v, '.17g') "
          f"(seed {args.seed}, {seconds:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
