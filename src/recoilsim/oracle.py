"""Brute-force validators for the closed-form theory.

Two independent routes live here:

* :func:`integrate_amplitudes` -- direct adaptive Runge-Kutta integration of
  the coupled three-sector amplitude equations on a discrete mode grid, with
  no Markovian dressing anywhere.  Its trajectories are what the closed
  forms get compared against.
* :func:`density_quadrature` -- direct two-angle quadrature of the traced
  density-matrix integrand before the Bessel-function reduction, used to
  bound the error of the J0^2 factorization.

Both are deliberately dumb: accuracy comes from tolerances and grid
resolution, never from reusing the closed-form algebra they are meant to
check.  A discrete bath refeeds the atoms after the recurrence time
``2 pi / (c dk)``; comparisons are only meaningful before ~0.8 of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .core import (
    ConfigurationError,
    ModelParams,
    ModeGrid,
    omega_no_photon,
    omega_one_photon,
    omega_two_photon,
    recoil_momentum,
)
from .amplitudes import AmplitudeState
from .density import psi_free

__all__ = [
    "NormDriftFailure",
    "OdeRun",
    "RateCheck",
    "StiffnessFailure",
    "Trajectory",
    "amplitude_generator",
    "density_quadrature",
    "integrate_amplitudes",
    "max_decay_error",
    "memory_estimate",
    "ww_rate_check",
]

MIN_BANDWIDTH_GAMMAS = 10.0
COMPARISON_WINDOW_FRACTION = 0.8


class StiffnessFailure(RuntimeError):
    """The adaptive integrator underflowed its step size."""


class NormDriftFailure(RuntimeError):
    """Sector norm drifted beyond what the tolerance permits."""


@dataclass(frozen=True)
class OdeRun:
    """Frozen configuration of one brute-force integration.

    ``keep_cross_term`` controls the feedback of the two-photon sector on the
    one-photon sector.  Physically a photon pair {k, j} can refeed B_k by
    reabsorbing photon j along two routes: the pair may have been created
    from B_k itself (emit j, reabsorb j) or from B_j (emit k, reabsorb j,
    exchanging which photon belongs to which decay).  With the flag on, both
    routes are kept and the sector norm is conserved exactly.  With it off,
    the exchange route -- second order in the coupling -- is dropped, which
    is precisely the approximation the closed forms are built on.
    """

    params: ModelParams
    grid: ModeGrid
    p: float = 0.0
    total_momentum: float = 0.0
    c_p: complex = 1.0 + 0.0j
    t_span: tuple[float, float] = (0.0, 1.0)
    sample_times: np.ndarray | None = None
    tol: float = 1e-10
    keep_cross_term: bool = True

    def __post_init__(self):
        if not (1e-12 <= self.tol <= 1e-6):
            raise ConfigurationError("tol must lie in [1e-12, 1e-6]")
        t0, t1 = self.t_span
        if t0 != 0.0 or not 0.0 < t1 < np.inf:
            raise ConfigurationError("t_span must be (0, T) with T > 0 finite")
        k0 = self.params.k0
        min_w = MIN_BANDWIDTH_GAMMAS * self.params.gamma / self.params.c
        low = k0 - float(self.grid.k_values[0])
        high = float(self.grid.k_values[-1]) - k0
        if min(low, high) < min_w * (1.0 - 1e-9):
            raise ConfigurationError(
                f"grid bandwidth ({low:.4g}, {high:.4g}) around k0 is below the "
                f"required {MIN_BANDWIDTH_GAMMAS} gamma/c on each side")
        if self.sample_times is not None:
            st = np.array(self.sample_times, dtype=float, copy=True)
            if st.ndim != 1 or st.size < 2 or np.any(np.diff(st) <= 0):
                raise ConfigurationError("sample_times must be ascending, length >= 2")
            if st[0] < t0 or st[-1] > t1 * (1.0 + 1e-12):
                raise ConfigurationError("sample_times must lie within t_span")
            st.setflags(write=False)
            object.__setattr__(self, "sample_times", st)
        if self.keep_cross_term:
            q = recoil_momentum(self.grid.mode_k, self.grid.mode_phi, self.params)
            if self.p != 0.0 and np.ptp(q) != 0.0:
                raise ConfigurationError(
                    "the packed symmetric two-photon storage requires the "
                    "two-photon frequencies to be exchange-symmetric: use "
                    "p = 0, or a grid whose modes all carry the same recoil "
                    "kick (e.g. a single angle at phi = 0)")

    @property
    def times(self) -> np.ndarray:
        if self.sample_times is not None:
            return self.sample_times
        return np.linspace(self.t_span[0], self.t_span[1], 51)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one :class:`OdeRun`.

    ``y`` holds the state [A, B_k, D] once per sample; ``a``, ``b`` and
    ``d_data`` are views of it.  ``d_data`` is packed upper-triangle for
    norm-conserving runs, or the ordered (first-emission-labeled) full
    matrix when the exchange feedback was dropped; :meth:`state_at` expands
    either into the observable ordered matrix.
    """

    run: OdeRun
    times: np.ndarray
    y: np.ndarray        # (n_t, 1 + n_modes + pairs) complex
    nfev: int            # right-hand-side evaluations the integrator made

    def __post_init__(self):
        for name in ("times", "y"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self) -> int:
        return self.run.grid.n_modes

    @property
    def a(self) -> np.ndarray:  # (n_t,)
        return self.y[:, 0]

    @property
    def b(self) -> np.ndarray:  # (n_t, n_modes)
        return self.y[:, 1:1 + self.n_modes]

    @property
    def d_data(self) -> np.ndarray:  # (n_t, pairs), in storage order
        return self.y[:, 1 + self.n_modes:]

    @property
    def recurrence_time(self) -> float:
        """Time at which the discrete bath refeeds the atoms."""
        return 2.0 * np.pi / (self.run.params.c * self.run.grid.spacing)

    @property
    def comparison_window(self) -> float:
        """Largest time to which this trajectory should be trusted as an oracle."""
        return COMPARISON_WINDOW_FRACTION * self.recurrence_time

    def state_at(self, i: int) -> AmplitudeState:
        d = self.d_data[i][_pairs(self.n_modes, self.run.keep_cross_term)[2]]
        return AmplitudeState(p=self.run.p, t=float(self.times[i]),
                              a_val=complex(self.a[i]), b_vals=self.b[i],
                              d_vals=d if self.run.keep_cross_term else d + d.T)

    @cached_property
    def sector_populations(self) -> np.ndarray:
        """(n_t, 3) array of (|A|^2, 2 sum|B|^2, sum|D|^2) per sample
        (computed once, read-only)."""
        pop_a = np.abs(self.a) ** 2
        pop_b = 2.0 * np.add.reduce(np.abs(self.b) ** 2, axis=1)
        rows, cols, index = _pairs(self.n_modes, self.run.keep_cross_term)
        if self.run.keep_cross_term:
            sq = np.abs(self.d_data) ** 2
            pop_d = 2.0 * np.add.reduce(sq, axis=1) \
                - np.add.reduce(sq[:, rows == cols], axis=1)
        else:
            pop_d = np.array([np.add.reduce(np.abs(e + e.T).ravel() ** 2)
                              for e in self.d_data[:, index]])
        pops = np.column_stack([pop_a, pop_b, pop_d])
        pops.setflags(write=False)
        return pops

    @property
    def norms(self) -> np.ndarray:
        return np.add.reduce(self.sector_populations, axis=1)


def _pairs(n: int, packed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-photon storage: modes ``(rows, cols)`` of the stored amplitudes
    in order (the row-major upper triangle if packed, else all n x n pairs
    row-major), and the (n, n) map from modes (k, j) to the stored index."""
    rows, cols = np.triu_indices(n) if packed else np.divmod(np.arange(n * n), n)
    index = np.empty((n, n), dtype=int)  # ordered: the row-major store wins
    index[cols, rows] = index[rows, cols] = np.arange(rows.size)
    return rows, cols, index


def _state_size(run: OdeRun) -> tuple[int, int]:
    """``dim`` and generator ``nnz`` of the run's layout, counted, not built."""
    n, packed = run.grid.n_modes, run.keep_cross_term
    pairs = n * (n + 1) // 2 if packed else n * n
    # Pair rows hold D, B_r and B_c, but no B_c on the packed diagonal or ordered.
    return 1 + n + pairs, (1 + n) + n * (n + 2) + 3 * pairs - (n if packed else pairs)


def memory_estimate(run: OdeRun) -> int:
    """Bytes :func:`integrate_amplitudes` needs, roughly, found without
    building anything: the generator's CSR arrays, ~30 state vectors of
    scipy's DOP853 (stages, interpolant, work) and the stored samples."""
    dim, nnz = _state_size(run)
    index = 4 if nnz < 2**31 else 8
    return (16 + index) * nnz + index * (dim + 1) + 16 * dim * (30 + run.times.size)


def amplitude_generator(run: OdeRun) -> sparse.csr_array:
    """The amplitude equations ``y' = L y`` as one CSR matrix ``L``.

    ``y`` is [A, B_k, D] in the rotating frame, D packed (row-major upper
    triangle) or ordered (row-major n x n) per ``run.keep_cross_term``.  Rows
    are written directly: A couples to A and every B_k; B_k to A, B_k and
    the n pairs D_kj; pair {r, c} to itself, B_r and, by the exchange route,
    B_c (merged into B_r on the packed diagonal, absent when ordered).
    """
    params, grid, packed = run.params, run.grid, run.keep_cross_term
    n, g, mk, mphi = grid.n_modes, grid.mode_coupling, grid.mode_k, grid.mode_phi
    alpha = omega_no_photon(run.p, run.total_momentum, params) - params.omega0
    beta = omega_one_photon(mk, mphi, run.p, run.total_momentum, params) - params.omega0
    rows, cols, pair = _pairs(n, packed)
    delta = omega_two_photon(mk[rows], mphi[rows], mk[cols], mphi[cols],
                             run.p, run.total_momentum, params) - params.omega0
    off, dim = 1 + n, 1 + n + rows.size
    b_idx = np.column_stack([np.zeros(n, dtype=int), 1 + np.arange(n), off + pair])
    b_val = np.column_stack([g, beta, np.broadcast_to(g, (n, n))])
    d_idx = np.column_stack([1 + rows, 1 + cols, np.arange(off, dim)])
    d_val = np.column_stack([g[cols] * (1 + (packed & (rows == cols))), g[rows], delta])
    d_keep = np.ones(d_idx.shape, dtype=bool)
    d_keep[:, 1] = packed & (rows != cols)
    indptr = np.concatenate(([0], off + (n + 2) * np.arange(n + 1),
                             off + (n + 2) * n + np.cumsum(d_keep.sum(axis=1))))
    indices = np.concatenate([np.arange(off), b_idx.ravel(), d_idx[d_keep]])
    data = -1j * np.concatenate([[alpha], 2.0 * g, b_val.ravel(), d_val[d_keep]])
    itype = np.int32 if indptr[-1] < 2**31 else np.int64
    return sparse.csr_array((data, indices.astype(itype), indptr.astype(itype)),
                            shape=(dim, dim))


def integrate_amplitudes(run: OdeRun) -> Trajectory:
    """Integrate the coupled amplitude equations on the discrete grid.

    Explicit adaptive Runge-Kutta (8th order, relative tolerance ``run.tol``)
    on the complex state [A, B_k, D-sector] in the rotating frame.  Initial
    condition A = C_p, everything else zero.  For norm-conserving runs the
    conserved quantity |A|^2 + 2 sum|B|^2 + sum|D|^2 is monitored and a drift
    beyond ``10 * tol`` raises :class:`NormDriftFailure`.  Deterministic:
    each right-hand side is one sparse product, summed in a fixed order.
    """
    gen = amplitude_generator(run)
    y0 = np.zeros(gen.shape[0], dtype=complex)
    y0[0] = run.c_p
    sol = solve_ivp(lambda t, y: gen @ y, run.t_span, y0, method="DOP853",
                    t_eval=run.times, rtol=run.tol, atol=run.tol * 1e-3)
    if sol.status == -1:  # solve_ivp's only failing status
        reached = sol.t[-1] if sol.t.size else run.t_span[0]
        raise StiffnessFailure(
            f"integrator step size underflowed near t = {reached:.6g}: {sol.message}")

    traj = Trajectory(run=run, times=sol.t, y=sol.y.T.copy(), nfev=sol.nfev)
    del sol  # its (dim, n_t) samples: keep only traj's copy through the checks
    if run.keep_cross_term:
        drift = float(np.max(np.abs(traj.norms - abs(run.c_p) ** 2)))
        if drift > 10.0 * run.tol:
            raise NormDriftFailure(
                f"sector norm drifted by {drift:.3e} (allowed {10.0 * run.tol:.3e}); "
                "tighten tol or shorten the run")
    return traj


def max_decay_error(traj: Trajectory) -> float:
    """Worst relative deviation of |A(t)|^2 from pure exponential decay.

    Compares against ``|C_p|^2 e^{-2 gamma t}`` at every sample inside the
    grid's comparison window.
    """
    gamma = traj.run.params.gamma
    mask = traj.times <= traj.comparison_window
    if not mask.any():
        raise ConfigurationError("no samples inside the comparison window")
    expected = abs(traj.run.c_p) ** 2 * np.exp(-2.0 * gamma * traj.times[mask])
    actual = np.abs(traj.a[mask]) ** 2
    return float(np.max(np.abs(actual - expected) / expected))


class RateCheck(NamedTuple):
    """Discrete golden-rule sum vs the configured rate.

    ``rate`` should match ``expected = gamma/2`` (the per-atom width) when
    the grid is dense and wide; ``flagged`` marks a gross deficit from too
    narrow a bandwidth.
    """

    rate: float
    expected: float
    flagged: bool


def ww_rate_check(grid: ModeGrid, params: ModelParams) -> RateCheck:
    """Evaluate the on-shell pole sum implied by the discrete modes.

    Sums ``g(k)^2 (gamma/2) / ((omega_k - omega0)^2 + (gamma/2)^2)`` over all
    modes -- the discrete stand-in for the resolvent's imaginary part whose
    continuum value is exactly ``gamma/2``.  Accurate to ~2% only when the
    bandwidth clears ~20 gamma/c on each side; narrower grids underestimate
    the rate (the Lorentzian wings are cut off) and a result below
    ``0.9 * gamma/2`` is flagged.
    """
    gamma = params.gamma
    detuning = params.c * grid.mode_k - params.omega0
    half = gamma / 2.0
    rate = float(np.add.reduce(
        grid.mode_coupling**2 * half / (detuning**2 + half**2)))
    return RateCheck(rate=rate, expected=half, flagged=rate < 0.9 * half)


def density_quadrature(x, x2, t, packet_spec, params: ModelParams,
                       n_phi: int = 256, *, include_offset: bool = True) -> complex:
    """Directly integrate the traced density-matrix element over both photon
    emission angles, before any Bessel-function reduction.

    The integrand carries the photon which-path phases
    ``e^{-i (omega0/2c)(x - x2) sin(phi)} e^{+i (omega0/2c)(x - x2) sin(phi')}``
    and the recoil-shifted packets evaluated at
    ``x + s (sin(phi) + sin(phi'))`` with ``s = hbar omega0 t / (2 mu c)``.
    ``include_offset=False`` forces s = 0, isolating the pure phase average
    whose exact value is the J0^2 factorization.

    Uniform (rectangle-rule) sampling of both angles: spectrally accurate for
    these periodic integrands once ``n_phi`` comfortably exceeds the phase
    argument, hence the n_phi >= 128 floor.
    """
    if n_phi < 128:
        raise ConfigurationError("n_phi must be at least 128")
    x, x2, t = float(x), float(x2), float(t)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sphi = np.sin(phi)
    dphase = (params.omega0 / (2.0 * params.c)) * (x - x2)
    w1 = np.exp(-1j * dphase * sphi)
    w2 = np.exp(+1j * dphase * sphi)
    shift = 0.0
    if include_offset:
        s_off = params.hbar * params.omega0 * t / (2.0 * params.mu * params.c)
        shift = s_off * (sphi[:, None] + sphi[None, :])
    psi1 = psi_free(x + shift, t, packet_spec, params)
    psi2 = psi_free(x2 + shift, t, packet_spec, params)
    integrand = (w1[:, None] * w2[None, :]) * (psi1 * np.conj(psi2))
    return complex(np.add.reduce(np.asarray(integrand).ravel()) / n_phi**2)
