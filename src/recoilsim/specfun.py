"""Bessel function J0, implemented from scratch, plus an independent
quadrature route used to cross-check it.

The decoherence factor of the reduced spatial density matrix is ``J0**2`` of
the separation in recoil units, so J0 sits on the package's critical path.
It is deliberately written out here rather than imported: a power series in
extended precision below the crossover and a Hankel asymptotic expansion
above it, with the truncation of the asymptotic series chosen adaptively at
its smallest term.

``j0_quadrature_oracle`` evaluates the same function by its integral
representation (the angular average of ``cos(a*sin(theta))``), sharing no
code with the series/asymptotic route.  The two agree to ~1e-12 over the
domain the package uses, and the tests hold them to that.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j0", "j0_quadrature_oracle"]

# Branch crossover |z| for the series vs. asymptotic evaluation.  At 12 the
# power series still converges cleanly in extended precision and the
# asymptotic error has dropped to ~1e-12.
CROSSOVER = 12.0

# Power-series length: term m of J0 is (-u)^m/(m!)^2 with u = z^2/4 <= 36 at
# the crossover; by m = 50 the term magnitude is below 1e-42.
_SERIES_TERMS = 50

# Hard cap on asymptotic terms; the smallest-term truncation always triggers
# well before this for |z| >= CROSSOVER.
_ASYMPT_MAX_TERMS = 30


def _j0_series(z: np.ndarray) -> np.ndarray:
    """Ascending power series in extended precision.

    J0(z) = sum_m (-1)^m u^m / (m!)^2, u = z^2/4, evaluated by Horner's
    scheme.  Individual terms reach ~1.9e4 at z = 12 while the sum is O(1),
    so float64 alone would lose ~4 digits to cancellation; np.longdouble
    keeps the result within ~1e-15 of the true value.
    """
    u = np.asarray(z, dtype=np.longdouble) ** 2 / 4.0
    acc = np.ones_like(u)
    for m in range(_SERIES_TERMS, 0, -1):
        acc = 1.0 - acc * u / np.longdouble(m * m)
    return np.asarray(acc, dtype=float)


def _j0_asymptotic(z: np.ndarray) -> np.ndarray:
    """Hankel expansion for large argument.

    J0(z) = sqrt(2/(pi z)) [P(z) cos(z - pi/4) + Q(z) sin(z - pi/4)] with the
    modulus series summed to its smallest term.  Successive terms obey
    t_m = t_{m-1} * (2m-1)^2 / (8 m z); the even-indexed terms build P and
    the odd-indexed ones build Q, with alternating signs inside each.
    """
    z = np.asarray(z, dtype=float)
    t = np.ones_like(z)          # t_0
    p_sum = np.ones_like(z)      # P starts at +t_0
    q_sum = np.zeros_like(z)
    active = np.ones(z.shape, dtype=bool)
    for m in range(1, _ASYMPT_MAX_TERMS + 1):
        t_next = t * (2 * m - 1) ** 2 / (8.0 * m * z)
        # Optimal truncation: stop a lane once its terms grow again.
        active &= np.abs(t_next) < np.abs(t)
        t = np.where(active, t_next, 0.0)
        sign = -1.0 if (m // 2) % 2 else 1.0
        if m % 2:   # odd m contributes to Q: t1 - t3 + t5 - ...
            q_sum = q_sum + sign * t
        else:       # even m contributes to P: t0 - t2 + t4 - ...
            p_sum = p_sum + sign * t
        if not active.any():
            break
    chi = z - np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * z)) * (p_sum * np.cos(chi) + q_sum * np.sin(chi))


def bessel_j0(z):
    """Bessel function of the first kind, order zero, for real argument.

    Accepts scalars or arrays; even in its argument.  Power series below
    ``|z| = CROSSOVER``, Hankel asymptotics above.  Absolute error is below
    ~2e-12 everywhere (the worst point is just above the crossover).
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_abs = np.abs(np.atleast_1d(z_arr))
    if not np.all(np.isfinite(z_abs)):
        raise ValueError("bessel_j0 requires finite arguments")
    out = np.empty_like(z_abs)
    small = z_abs <= CROSSOVER
    if small.any():
        out[small] = _j0_series(z_abs[small])
    if (~small).any():
        out[~small] = _j0_asymptotic(z_abs[~small])
    return float(out[0]) if scalar else out.reshape(z_arr.shape)


def j0_quadrature_oracle(a, n: int = 256):
    """J0 by its integral form: the mean of ``cos(a*sin(theta))`` over a period.

    Uses the uniform-grid (rectangle) rule on [0, 2*pi) with ``n`` panels,
    which for periodic integrands is spectrally accurate: the quadrature
    error is set by the Bessel coefficient J_n(a), astronomically small once
    ``n >= 2*|a|``.  This shares no code with :func:`bessel_j0` and is the
    package's independent check on it.
    """
    if n < 64:
        raise ValueError("n must be at least 64 for a trustworthy check")
    a_arr = np.asarray(a, dtype=float)
    theta = 2.0 * np.pi * np.arange(n) / n
    vals = np.cos(np.multiply.outer(a_arr, np.sin(theta))).mean(axis=-1)
    return float(vals) if a_arr.ndim == 0 else vals
