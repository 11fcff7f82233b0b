"""Chebyshev propagator for ``y' = -i H y``, ``H`` with a real spectrum, as a
``solve_ivp`` method (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967).

With the spectrum inside ``[c - r, c + r]``,

    exp(-i H t) y0 = e^{-i c t} sum_k (2 - delta_k0) J_k(r t) psi_k,
    psi_k = (-i)^k T_k((H - c) / r) y0.

One three-term recurrence gives every ``psi_k``, each for one call of the
right-hand side ``fun(t, y) = -i H y``, and the states at all sample times
are summed from the same terms.  Only ``fun`` and the interval are used:
nothing here knows what ``H`` is.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import DenseOutput, OdeSolver
from scipy.special import jv

BLOCK = 64          # terms summed per update, coef[:, block] @ terms[block]
CHUNK = 2048        # columns per piece of an update
NEGLIGIBLE = 1e-20  # |J_k| below which a sample's remaining terms are skipped


def term_count(spectrum: tuple[float, float], span: float) -> int:
    """Products with ``H`` that reach ``span``: ``R + 10 R^(1/3) + 30``
    rounded up, ``R`` the interval's half-width times ``span``."""
    reach = 0.5 * (spectrum[1] - spectrum[0]) * abs(span)
    return int(np.ceil(reach + 10.0 * np.cbrt(reach) + 30.0))


def propagate(fun, t0: float, y0: np.ndarray, times: np.ndarray,
              spectrum: tuple[float, float]) -> np.ndarray:
    """The states at ``times``, as the rows of an ``(n_t, dim)`` array.

    Terms are summed ``BLOCK`` at a time and ``CHUNK`` columns at a time, so
    the order of every sum is fixed; a sample whose remaining ``|J_k|`` are
    all below ``NEGLIGIBLE`` takes no further part.
    """
    lo, hi = spectrum
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # Zero width: H = c, and the terms of T_k(0) y0 that scale 0 gives are exact.
    scale = 1.0 / half if half > 0 else 0.0
    dt = np.asarray(times, dtype=float) - t0
    terms = term_count(spectrum, np.abs(dt).max())
    k = np.arange(terms + 1)
    bessel = jv(k, half * dt[:, None])
    coef = np.where(k > 0, 2.0, 1.0) * bessel * np.exp(-1j * center * dt)[:, None]
    live = np.abs(bessel) > NEGLIGIBLE
    last = terms - np.argmax(live[:, ::-1], axis=1)  # a sample's last live term

    dim = y0.size
    out = np.zeros((dt.size, dim), dtype=complex)
    block = np.empty((min(BLOCK, terms + 1), dim), dtype=complex)
    shift = np.empty(dim, dtype=complex)
    block[0] = y0
    for j in range(terms + 1):
        if j > 0:  # psi_j = a (fun(psi_{j-1}) + i c psi_{j-1}) + psi_{j-2}
            a = scale if j == 1 else 2.0 * scale
            psi, row = block[(j - 1) % BLOCK], block[j % BLOCK]
            np.multiply(fun(t0, psi), a, out=row)
            if center:
                np.multiply(psi, 1j * a * center, out=shift)
                row += shift
            if j > 1:
                row += block[(j - 2) % BLOCK]
        if j % BLOCK == BLOCK - 1 or j == terms:
            start = j - j % BLOCK
            rows = last >= start
            if rows.any():
                first = int(np.argmax(rows))
                c, terms_in = coef[first:, start:j + 1], block[:j + 1 - start]
                for col in range(0, dim, CHUNK):
                    out[first:, col:col + CHUNK] += c @ terms_in[:, col:col + CHUNK]
    return out


class Chebyshev(OdeSolver):
    """One step over the whole span.

    ``spectrum`` is an interval ``(lo, hi)`` that holds the spectrum of ``H``
    where ``fun(t, y) = -i H y``; ``samples`` are the times whose states the
    step stores, besides ``t_bound``.  ``nfev`` counts the products: exactly
    ``term_count(spectrum, t_bound - t0)`` for the step.
    """

    def __init__(self, fun, t0, y0, t_bound, vectorized, spectrum, samples):
        super().__init__(fun, t0, y0, t_bound, vectorized, support_complex=True)
        self.spectrum = spectrum
        self.samples = np.asarray(samples, dtype=float)
        self.y0 = self.y

    def _step_impl(self):
        times = self.samples
        if times[-1] != self.t_bound:
            times = np.append(times, self.t_bound)
        self.states = propagate(self.fun, self.t, self.y, times, self.spectrum)
        self.t, self.y = self.t_bound, self.states[-1]
        return True, None

    def _dense_output_impl(self):
        return _Samples(self)


class _Samples(DenseOutput):
    """The stored states at the step's sample times, seen ``(dim, n_t)``
    without a copy; any other times are propagated again from ``y0``."""

    def __init__(self, solver: Chebyshev):
        super().__init__(solver.t_old, solver.t)
        self.solver = solver

    def _call_impl(self, t):
        s = self.solver
        if np.array_equal(t, s.samples):
            return s.states[:t.size].T
        states = propagate(s.fun, self.t_old, s.y0, np.atleast_1d(t), s.spectrum).T
        return states if t.ndim else states[:, 0]
