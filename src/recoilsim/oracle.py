"""Brute-force validators for the closed-form theory.

Two independent routes live here:

* :func:`integrate_amplitudes` -- direct Chebyshev propagation of the
  coupled three-sector amplitude equations on a discrete mode grid, with no
  Markovian dressing anywhere.  Its trajectories are what the closed forms
  get compared against.
* :func:`density_quadrature` -- direct two-angle quadrature of the traced
  density-matrix integrand before the Bessel-function reduction, used to
  bound the error of the J0^2 factorization.

Both are deliberately dumb: accuracy comes from series length and grid
resolution, never from reusing the closed-form algebra they are meant to
check.  A discrete bath refeeds the atoms after the recurrence time
``2 pi / (c dk)``; comparisons are only meaningful before ~0.8 of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

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

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "NormDriftFailure",
    "OdeRun",
    "RateCheck",
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
SAMPLE_COUNT = 51  # sample times of a run that gives none
# Largest max|frequency| * T, in radians, a run may ask of the oracle: its
# products number about the half-width of H's weighted Weyl interval times T,
# at most max|frequency| * T plus a coupling term that does not grow with n_k.
MAX_REACH = 1e4
BLOCK = 64          # terms per block sum, its even and its odd half apart
# Columns per piece of an update.  OpenBLAS runs a GEMM of m n k <= 2**18
# multiply-adds on one thread (interface/gemm.c: SMP_THRESHOLD_MIN 65536 times
# GEMM_MULTITHREAD_THRESHOLD 4).  A block sum of CHUNK columns, BLOCK / 2
# terms and SAMPLE_COUNT samples stays within it, so no second thread wakes
# to spin through the sparse products that follow.
CHUNK = 2**18 // ((BLOCK // 2) * SAMPLE_COUNT)  # 160
NEGLIGIBLE = 1e-20  # |J_k| below which a sample's remaining terms are skipped


class NormDriftFailure(RuntimeError):
    """Sector norm drifted beyond what the tolerance permits."""


@dataclass(frozen=True)
class OdeRun:
    """Frozen configuration of one brute-force integration.

    The pair is at rest as a whole; ``p`` is its relative momentum.  The
    two-photon sector holds one amplitude per unordered mode pair {k, j}, so
    both routes by which the pair refeeds B_k are kept: the pair may have
    been created from B_k itself (emit j, reabsorb j) or from B_j (emit k,
    reabsorb j, exchanging which photon belongs to which decay).  The sector
    norm is then conserved exactly, and ``tol`` bounds its drift at
    ``10 * tol``.
    """

    params: ModelParams
    grid: ModeGrid
    p: float = 0.0
    t_span: tuple[float, float] = (0.0, 1.0)
    sample_times: np.ndarray | None = None
    tol: float = 1e-10

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
        return np.linspace(self.t_span[0], self.t_span[1], SAMPLE_COUNT)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one :class:`OdeRun`.

    ``y`` holds the state [A, B_k, D] once per sample: it is the array that
    :func:`solve_ivp` returns, never copied, and ``a``, ``b`` and ``d_data``
    are views of it.  ``d_data`` is the packed upper triangle;
    :meth:`state_at` expands it into the observable symmetric matrix.
    """

    run: OdeRun
    times: np.ndarray
    y: np.ndarray        # (n_t, 1 + n_modes + pairs) complex, solve_ivp's own

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
        return AmplitudeState(p=self.run.p, t=float(self.times[i]),
                              a_val=complex(self.a[i]), b_vals=self.b[i],
                              d_vals=self.d_data[i][_pairs(self.n_modes)[2]])

    @cached_property
    def sector_populations(self) -> np.ndarray:
        """(n_t, 3) array of (|A|^2, 2 sum|B|^2, sum|D|^2) per sample
        (computed once, read-only), one sample at a time: |y|^2 of all
        samples at once would be a second array half the size of ``y``."""
        n = self.n_modes
        rows, cols, _ = _pairs(n)
        # D_kk is stored once but counted twice below.  Its (n_t, n) gather is
        # small, and numpy sums its rows in sequence, as the pinned CSV expects.
        diag = np.add.reduce(np.abs(self.d_data[:, rows == cols]) ** 2, axis=1)
        pops = np.empty((self.times.size, 3))
        for i, sample in enumerate(self.y):
            sq = np.abs(sample) ** 2
            pops[i] = (sq[0], 2.0 * np.add.reduce(sq[1:1 + n]),
                       2.0 * np.add.reduce(sq[1 + n:]) - diag[i])
        pops.setflags(write=False)
        return pops

    @property
    def norms(self) -> np.ndarray:
        return np.add.reduce(self.sector_populations, axis=1)


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-photon storage: modes ``(rows, cols)`` of the stored amplitudes
    in order (the row-major upper triangle), and the symmetric (n, n) map
    from modes (k, j) to the stored index."""
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=int)
    index[cols, rows] = index[rows, cols] = np.arange(rows.size)
    return rows, cols, index


def _state_size(n: int) -> tuple[int, int]:
    """``dim`` and generator ``nnz`` for ``n`` modes, counted, not built."""
    pairs = n * (n + 1) // 2
    # Pair rows hold D, B_r and B_c, but no B_c on the diagonal.
    return 1 + n + pairs, (1 + n) + n * (n + 2) + 3 * pairs - n


def memory_estimate(n_modes: int, samples: int) -> int:
    """Bytes by which :func:`integrate_amplitudes` grows the process at its
    peak, for ``n_modes`` modes and ``samples`` sample times, counted without
    building anything.  The peak is in :func:`solve_ivp`: ``H``'s CSR arrays,
    the float64 block of ``BLOCK`` terms, the complex samples once (the real
    block sums add into them), one ``CHUNK``-column piece of them (the copy
    that interleaves the even and odd sums, twice a block sum's piece: 130 kB
    at ``SAMPLE_COUNT`` samples), and 24 vectors for the recurrence and what
    the allocator keeps from building ``H``."""
    dim, nnz = _state_size(n_modes)
    index = 4 if nnz < 2**31 else 8
    return ((8 + index) * nnz + index * (dim + 1) + 8 * dim * (BLOCK + 24 + 2 * samples)
            + 16 * samples * min(CHUNK, dim))


def amplitude_generator(run: OdeRun) -> sparse.csr_array:
    """The amplitude equations ``i y' = H y`` as one real CSR matrix ``H``.

    ``y`` is [A, B_k, D] in the rotating frame, D packed (row-major upper
    triangle).  Rows are written directly: A couples to A and every B_k; B_k
    to A, B_k and the n pairs D_kj; pair {r, c} to itself, B_r and, by the
    exchange route, B_c (merged into B_r on the diagonal).
    """
    params, grid = run.params, run.grid
    n, g, mk, mphi = grid.n_modes, grid.mode_coupling, grid.mode_k, grid.mode_phi
    alpha = omega_no_photon(run.p, params) - params.omega0
    beta = omega_one_photon(mk, mphi, run.p, params) - params.omega0
    rows, cols, pair = _pairs(n)
    delta = omega_two_photon(mk[rows], mphi[rows], mk[cols], mphi[cols],
                             run.p, params) - params.omega0
    off, dim = 1 + n, 1 + n + rows.size
    b_idx = np.column_stack([np.zeros(n, dtype=int), 1 + np.arange(n), off + pair])
    b_val = np.column_stack([g, beta, np.broadcast_to(g, (n, n))])
    d_idx = np.column_stack([1 + rows, 1 + cols, np.arange(off, dim)])
    d_val = np.column_stack([g[cols] * (1 + (rows == cols)), g[rows], delta])
    d_keep = np.ones(d_idx.shape, dtype=bool)
    d_keep[:, 1] = rows != cols
    indptr = np.concatenate(([0], off + (n + 2) * np.arange(n + 1),
                             off + (n + 2) * n + np.cumsum(d_keep.sum(axis=1))))
    indices = np.concatenate([np.arange(off), b_idx.ravel(), d_idx[d_keep]])
    data = np.concatenate([[alpha], 2.0 * g, b_val.ravel(), d_val[d_keep]])
    itype = np.int32 if indptr[-1] < 2**31 else np.int64
    from scipy import sparse  # here, not at the top: only this oracle needs scipy
    return sparse.csr_array((data, indices.astype(itype), indptr.astype(itype)),
                            shape=(dim, dim))


def term_count(spectrum: tuple[float, float], span: float) -> int:
    """Products with ``H`` that reach ``span``: ``R + 10 R^(1/3) + 30``
    rounded up, ``R`` the interval's half-width times ``span``."""
    reach = 0.5 * (spectrum[1] - spectrum[0]) * abs(span)
    return int(np.ceil(reach + 10.0 * np.cbrt(reach) + 30.0))


def _bessel(x: np.ndarray, order: int) -> np.ndarray:
    """``J_k(x)`` for ``k = 0..order``, one column per argument, by Miller's
    backward recurrence (Gautschi, SIAM Rev. 9 (1967) 24).

    ``J_{k-1} = (2k / x) J_k - J_{k+1}`` runs down from ``J_{n+1} = 0`` at an
    ``n`` past both ``order`` and the largest ``|x|``, where ``J_n`` is far
    below rounding.  It is carried as the ratios ``J_k / J_{k-1} = x / (2k - x
    J_{k+1} / J_k)``, which rescale each sample at every step, so nothing
    overflows or divides by ``x``; ``x = 0`` gives exactly ``delta_k0``, and a
    negative ``x`` negates every ratio, so ``J_k(-x) = (-1)^k J_k(x)`` bit for
    bit.  Their running products ``J_k / J_0`` are normalised by ``J_0 + 2 sum
    J_2k = 1``."""
    x = np.asarray(x, dtype=float)
    # n exceeds max(order, |x|) by the margin term_count adds to a reach.
    n = term_count((-1.0, 1.0), max(order, float(np.abs(x).max())))
    ratio = np.empty((n + 1, x.size))
    ratio[0] = 1.0
    below = np.zeros(x.size)
    for k in range(n, 0, -1):
        below = ratio[k] = x / (2.0 * k - x * below)
    np.cumprod(ratio, axis=0, out=ratio)
    return ratio[:order + 1] / (1.0 + 2.0 * np.add.reduce(ratio[2::2], axis=0))


def solve_ivp(fun, t_span, y0, *, t_eval, spectrum):
    """``exp(-iH (t - t0)) y0`` at each ``t`` of ``t_eval``, as the
    rows of an ``(n_t, dim)`` complex array, for a real ``H`` with its
    spectrum in ``spectrum = (c - r, c + r)``, a real ``y0`` and ``t0 =
    t_span[0]`` (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967):

        exp(-iHt) = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k((H - c) / r).

    One real three-term recurrence gives every ``phi_k = T_k((H - c) / r) y0``,
    each for one call of ``fun(t, x) = H x``: ``term_count(spectrum, max|t -
    t0|)`` calls, so any sample, before ``t0`` or even a rounding past
    ``t_span[1]``, is reached.  ``(-i)^k`` is real for even ``k`` and
    imaginary for odd ``k``, so a sample is ``e^{-ict} (E + iO)``, with
    ``E`` and ``O`` real sums of the even and the odd terms, their
    coefficients ``(2 - delta_k0) J_k`` (:func:`_bessel`) times ``+-1``.  The
    even and odd terms of a block of ``BLOCK`` fill its two halves, and each
    half is summed into its own plane of each ``CHUNK`` rows of the samples
    by one real product, so the order of every sum is fixed; a sample whose
    remaining ``|J_k|`` are all below ``NEGLIGIBLE`` takes no further part.
    Up to ``SAMPLE_COUNT`` samples, each such product is small enough for
    OpenBLAS to run on one thread; with many more it may use more again.
    The samples are the columns of one ``(dim, n_t)`` complex array, returned
    transposed: at the end each chunk's two planes are interleaved into ``E +
    iO`` through one chunk-sized copy and multiplied by their phases.
    """
    t0, (lo, hi) = t_span[0], spectrum
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # Zero width: H = c, and the terms of T_k(0) y0 that scale 0 gives are exact.
    scale = 1.0 / half if half > 0 else 0.0
    dt = np.asarray(t_eval, dtype=float) - t0
    terms = term_count(spectrum, np.abs(dt).max())
    k = np.arange(terms + 1)[:, None]
    bessel = _bessel(half * dt, terms)
    # (2 - delta_k0) (-i)^k J_k is i^(k % 2) times this real coefficient.
    coef = np.where(k > 0, 2.0, 1.0) * np.array([1.0, -1.0, -1.0, 1.0])[k % 4] * bessel
    last = terms - np.argmax(np.abs(bessel[::-1]) > NEGLIGIBLE, axis=0)

    dim, n_t = y0.size, dt.size
    out = np.zeros((dim, n_t), dtype=complex)
    flat = out.view(float).reshape(-1)
    chunks = [(col, flat[2 * n_t * col:2 * n_t * min(col + CHUNK, dim)].reshape(2, -1, n_t))
              for col in range(0, dim, CHUNK)]  # each chunk's E and O planes
    rows = min(BLOCK, terms + 1)
    first_odd = (rows + 1) // 2
    block = np.empty((rows, dim))
    shift = np.empty(dim)

    def at(j):  # phi_j's row of the block
        return (j % BLOCK) // 2 + (j % 2) * first_odd

    block[0] = y0
    for j in range(terms + 1):
        if j > 0:  # phi_j = a (fun(phi_{j-1}) - c phi_{j-1}) - phi_{j-2}
            a = scale if j == 1 else 2.0 * scale
            phi, row = block[at(j - 1)], block[at(j)]
            np.multiply(fun(t0, phi), a, out=row)
            if center:
                np.multiply(phi, a * center, out=shift)
                row -= shift
            if j > 1:
                row -= block[at(j - 2)]
        if j % BLOCK == BLOCK - 1 or j == terms:
            start = j - j % BLOCK
            live = last >= start
            if live.any():
                first = int(np.argmax(live))
                evens, odds = coef[start:j + 1:2, first:], coef[start + 1:j + 1:2, first:]
                halves = ((block[:len(evens)], evens),
                          (block[first_odd:first_odd + len(odds)], odds))
                for col, planes in chunks:
                    for plane, (terms_in, c) in zip(planes, halves):
                        plane[:, first:] += terms_in[:, col:col + CHUNK].T @ c
    phase = np.exp(-1j * center * dt)
    copy = np.empty((2, min(CHUNK, dim), n_t))
    for col, planes in chunks:
        even_odd = copy[:, :planes.shape[1]]
        np.copyto(even_odd, planes)
        samples = out[col:col + CHUNK]
        samples.real, samples.imag = even_odd
        samples *= phase
    return out.T


def _spectrum(h: sparse.csr_array) -> tuple[float, float]:
    """Weyl interval of the real ``H`` (Horn & Johnson, Matrix Analysis, 4.3).

    ``S = W^(1/2) H W^(-1/2)``, ``W`` the weights of
    :attr:`Trajectory.sector_populations`, is symmetric, so ``H``'s spectrum
    lies within ``b`` of its diagonal's range: the norm of the A-B star, the
    root of its squares, plus that of the B-D block ``M``, at most the root of
    the largest row sum of ``|M| |M|^T``.  At a fixed bandwidth ``b`` does not
    grow with the mode count."""
    n = int(h.indptr[1]) - 1  # the A row holds A, then every B_k
    rows, cols, _ = _pairs(n)
    # S's A-B entries are H's A row over sqrt 2, its B-D entries H's times
    # sqrt(2 / w), the pair's weight w being 2, or 1 on the diagonal.
    m = abs(h[1:1 + n, 1 + n:])
    m.data *= np.sqrt(2.0 / (2.0 - (rows == cols)))[m.indices]
    b = (np.sqrt(0.5 * np.add.reduce(h.data[1:1 + n] ** 2))
         + np.sqrt((m @ (m.T @ np.ones(n))).max()))
    centre = h.diagonal()
    return float(centre.min() - b), float(centre.max() + b)


def integrate_amplitudes(run: OdeRun) -> Trajectory:
    """Propagate the coupled amplitude equations on the discrete grid.

    The generator ``H`` (:func:`amplitude_generator`) is real, so ``y(t) =
    exp(-iHt) y0``: one real Chebyshev recurrence from ``e_0`` over the
    weighted Weyl interval of ``H`` (:func:`_spectrum`) gives every sample time
    (:func:`solve_ivp`, which sees only the products with ``H`` and the
    interval).  Its product count, :func:`term_count`, is fixed before the
    first product; at a fixed bandwidth and ``T`` it does not grow with the
    mode count.  Initial condition A = 1, everything else zero: the equations
    are linear, so a start from A = C_p is this run times C_p.  A drift of
    |A|^2 + 2 sum|B|^2 + sum|D|^2 from 1 not within ``10 * tol`` (NaN
    included) raises :class:`NormDriftFailure`.  Reruns are bit-identical:
    each product is one sparse product in a fixed order, and the terms are
    summed through BLAS in blocks of a fixed size, each block sum on one
    OpenBLAS thread whatever the thread count when there are at most
    ``SAMPLE_COUNT`` samples.

    A run whose fastest frequency times ``T`` exceeds ``MAX_REACH`` radians
    (or is not a number) raises :class:`ConfigurationError` before any product.
    """
    h = amplitude_generator(run)
    reach = float(np.abs(h.diagonal()).max()) * run.t_span[1]
    if not reach <= MAX_REACH:
        raise ConfigurationError(
            f"the fastest frequency times t_span reaches {reach:.3g} rad, beyond "
            f"the propagator's {MAX_REACH:g}: shorten the run, narrow the band "
            "or lessen the recoil")
    spectrum, times, e0 = _spectrum(h), run.times, np.zeros(h.shape[0])
    e0[0] = 1.0
    y = solve_ivp(lambda t, x: h @ x, run.t_span, e0, t_eval=times,
                  spectrum=spectrum)
    traj = Trajectory(run=run, times=times, y=y)
    drift = float(np.max(np.abs(traj.norms - 1.0)))
    if not drift <= 10.0 * run.tol:
        raise NormDriftFailure(
            f"sector norm drifted by {drift:.3e} (allowed {10.0 * run.tol:.3e}); "
            "shorten the run")
    return traj


def max_decay_error(traj: Trajectory) -> float:
    """Worst relative deviation of |A(t)|^2 from pure exponential decay.

    Compares against ``e^{-2 gamma t}`` at every sample inside the
    grid's comparison window.
    """
    gamma = traj.run.params.gamma
    mask = traj.times <= traj.comparison_window
    if not mask.any():
        raise ConfigurationError("no samples inside the comparison window")
    expected = np.exp(-2.0 * gamma * traj.times[mask])
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
