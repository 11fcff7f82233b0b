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
from typing import NamedTuple

import numpy as np

from .core import (
    ConfigurationError,
    ModelParams,
    ModeGrid,
    _finite,
    _frozen_array,
    omega_no_photon,
    omega_one_photon,
    omega_two_photon,
)
from .density import psi_free

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
# products number about the radius R of the interval [-R, R] that holds H's
# spectrum times T, and R is max|frequency| plus a coupling term that does not
# grow with n_k.
MAX_REACH = 1e4
BLOCK = 32          # terms per block sum, phi_j in row j % BLOCK: even, so a
                    # row's parity is its term's
NEGLIGIBLE = 1e-20  # |J_k| below which a sample's remaining terms are skipped


class NormDriftFailure(RuntimeError):
    """Sector norm drifted beyond what the tolerance permits."""


@dataclass(frozen=True)
class OdeRun:
    """Frozen configuration of one brute-force integration.

    The pair is at rest as a whole, and at relative momentum 0: on modes
    that give no kick (phi = 0), a relative momentum ``p`` only adds
    ``p^2 / 2 mu`` to every frequency, so its run is this one times
    ``e^{-i p^2 t / 2 mu}``.  The two-photon sector holds one amplitude per
    unordered mode pair {k, j}, so both routes by which the pair refeeds B_k
    are kept: the pair may have been created from B_k itself (emit j,
    reabsorb j) or from B_j (emit k, reabsorb j, exchanging which photon
    belongs to which decay).  The sector norm is then conserved exactly, and
    ``tol`` bounds its drift at ``10 * tol``.
    """

    params: ModelParams
    grid: ModeGrid
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
            st = _frozen_array(self.sample_times)
            if st.ndim != 1 or st.size < 2 or not _finite(st) or np.any(np.diff(st) <= 0):
                raise ConfigurationError(
                    "sample_times must be finite and ascending, length >= 2")
            if st[0] < t0 or st[-1] > t1 * (1.0 + 1e-12):
                raise ConfigurationError("sample_times must lie within t_span")
            object.__setattr__(self, "sample_times", st)

    @property
    def times(self) -> np.ndarray:
        if self.sample_times is not None:
            return self.sample_times
        return np.linspace(self.t_span[0], self.t_span[1], SAMPLE_COUNT)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one :class:`OdeRun`.

    ``y`` holds the state [A, B_k, D] once per sample: it is the array that
    :func:`solve_ivp` returns, never copied but taken over and made
    read-only, and ``a``, ``b`` and ``d_data`` are views of it.  ``d_data``
    is the packed upper triangle, D_kj for k <= j in row-major order: with
    ``index[k, j] = index[j, k]`` the position of (k, j) in
    ``np.triu_indices(n_modes)``, ``d_data[i][index]`` is sample ``i``'s
    symmetric matrix.  ``times`` is a read-only copy.
    """

    run: OdeRun
    times: np.ndarray
    y: np.ndarray        # (n_t, 1 + n_modes + pairs) complex, C order, solve_ivp's own

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(self.times))
        self.y.setflags(write=False)

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

    @cached_property
    def sector_populations(self) -> np.ndarray:
        """(n_t, 3) array of (|A|^2, 2 sum|B|^2, sum|D|^2) per sample
        (computed once, read-only), one sample at a time: |y|^2 of all
        samples at once would be a second array half the size of ``y``.
        B counts twice because the run is at relative momentum 0, where
        either atom's one-photon amplitude is the other's."""
        n = self.n_modes
        k = np.arange(n)
        # D_kk is stored once but counted twice below, first in row k of the
        # packed triangle, which starts at k n - k (k - 1) / 2.  Its (n_t, n)
        # gather is small, and numpy sums its rows in sequence, as the pinned
        # CSV expects.
        diag = np.add.reduce(np.abs(self.d_data[:, k * n - k * (k - 1) // 2]) ** 2,
                             axis=1)
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

    @property
    def norm_drift(self) -> float:
        """How far the conserved norm strays: ``max |norms - 1|``, NaN if a norm is."""
        return float(np.max(np.abs(self.norms - 1.0)))


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-photon storage: modes ``(rows, cols)`` of the stored amplitudes
    in order (the row-major upper triangle), and the symmetric (n, n) map
    from modes (k, j) to the stored index."""
    rows, cols = np.triu_indices(n)
    index = np.empty((n, n), dtype=int)
    index[cols, rows] = index[rows, cols] = np.arange(rows.size)
    return rows, cols, index


def memory_estimate(n_modes: int, samples: int) -> int:
    """Bytes by which :func:`integrate_amplitudes` grows the process at its
    peak, for ``n_modes`` modes and ``samples`` sample times, counted without
    building anything.  The peak is in :func:`solve_ivp`'s recurrence:
    ``H``'s three pair-sized arrays and ``(n, n)`` pair index, a product's
    ``(n, n)`` gather of D, the float64 block of ``BLOCK`` terms, the complex
    samples once (the block sums add into real planes in their memory), one
    block sum's float64 product over a chunk of columns (at most ``2**18 /
    (BLOCK / 2)`` floats, or one column), and three vectors, ``H``'s
    diagonal, the start and a product's result, plus a margin of five.  At
    400 modes a ``tracemalloc`` peak of the default run sits 3.7 vectors above
    the arrays named before them, 0.85 of them the two uncounted coefficient
    tables of ``term_count`` by ``samples`` floats.  The interleave that
    follows needs one row of samples, and the block is freed by then."""
    pairs = n_modes * (n_modes + 1) // 2
    dim = 1 + n_modes + pairs
    margin = 5  # vectors: a product's temporaries and what the allocator keeps
    return (8 * (3 * pairs + 2 * n_modes**2) + 8 * dim * (BLOCK + 2 * samples + 3 + margin)
            + 8 * min(max(2**18 // (BLOCK // 2), samples), samples * dim))


class Generator(NamedTuple):
    """The real ``H`` of ``i y' = H y``, applied by ``h @ y`` (``y`` real or
    complex): ``y`` is [A, B_k, D] in the rotating frame, D the pairs {r, c},
    r <= c, in the row-major order of the upper triangle (:func:`_pairs`):
    row r holds the ``n - r`` pairs {r, r} to {r, n - 1}, and ``cols`` is
    each pair's c.  ``diagonal`` is [alpha, beta_k, delta_kj].  Off it, A
    couples to every B_k by ``2 g_k``, B_k to A by ``g_k`` and to each D_kj
    by ``g_j``, and pair {r, c} to B_r by ``own = g_c`` and, by the exchange
    route, to B_c by ``exchange = g_r``, merged into ``own`` on the diagonal
    r = c."""

    diagonal: np.ndarray  # (1 + n + pairs,)
    g: np.ndarray         # (n,)
    cols: np.ndarray      # (pairs,)
    pair: np.ndarray      # (n, n), the index of D_kj = D_jk in D
    own: np.ndarray       # (pairs,)
    exchange: np.ndarray  # (pairs,)

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        n = self.g.size
        b, d = y[1:1 + n], y[1 + n:]
        out = self.diagonal * y
        out[0] += 2.0 * (self.g @ b)
        out[1:1 + n] += self.g * y[0] + d.take(self.pair) @ self.g
        # Row r of the triangle, n - r pairs long, reads B_r.
        out[1 + n:] += (self.own * np.repeat(b, np.arange(n, 0, -1))
                        + self.exchange * b.take(self.cols))
        return out


def amplitude_generator(run: OdeRun) -> Generator:
    """The amplitude equations of ``run``'s grid, at relative momentum 0."""
    params, grid = run.params, run.grid
    g, mk, mphi = grid.mode_coupling, grid.mode_k, grid.mode_phi
    alpha = omega_no_photon(0.0, params) - params.omega0
    beta = omega_one_photon(mk, mphi, 0.0, params) - params.omega0
    rows, cols, pair = _pairs(grid.n_modes)
    delta = omega_two_photon(mk[rows], mphi[rows], mk[cols], mphi[cols],
                             0.0, params) - params.omega0
    return Generator(np.concatenate([[alpha], beta, delta]), g, cols, pair,
                     own=g[cols] * (1 + (rows == cols)), exchange=g[rows] * (rows != cols))


def term_count(radius: float, span: float) -> int:
    """Products with ``H`` that reach ``span``: ``R + 10 R^(1/3) + 30``
    rounded up, ``R`` the spectrum's radius times ``span``."""
    reach = radius * abs(span)
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
    n = term_count(1.0, max(order, float(np.abs(x).max())))
    ratio = np.empty((n + 1, x.size))
    ratio[0] = 1.0
    below = np.zeros(x.size)
    for k in range(n, 0, -1):
        below = ratio[k] = x / (2.0 * k - x * below)
    np.cumprod(ratio, axis=0, out=ratio)
    return ratio[:order + 1] / (1.0 + 2.0 * np.add.reduce(ratio[2::2], axis=0))


def solve_ivp(fun, t_span, y0, *, t_eval, radius):
    """``exp(-iH (t - t0)) y0`` at each ``t`` of ``t_eval``, as the
    rows of an ``(n_t, dim)`` complex array, for a real ``H`` with its
    spectrum in ``[-radius, radius]``, a real ``y0`` and ``t0 = t_span[0]``
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967):

        exp(-iHt) = sum_k (2 - delta_k0) (-i)^k J_k(Rt) T_k(H / R),  R = radius.

    One real three-term recurrence gives every ``phi_k = T_k(H / R) y0``,
    each for one call of ``fun(t, x) = H x``: ``term_count(radius, max|t -
    t0|)`` calls, so any sample, before ``t0`` or even a rounding past
    ``t_span[1]``, is reached.  ``(-i)^k`` is real for even ``k`` and
    imaginary for odd ``k``, so a sample is ``E + iO``, with ``E`` and ``O``
    real sums of the even and the odd terms, their coefficients ``(2 -
    delta_k0) J_k`` (:func:`_bessel`) times ``+-1``.  A block of ``BLOCK``
    rows holds ``phi_j`` in row ``j % BLOCK``; once it is full, its even and
    its odd rows, strided views that BLAS reads in place, are summed by one
    real product each into ``E`` and ``O`` over each chunk of columns, so the
    order of every sum is fixed, and each such product runs on one OpenBLAS
    thread up to ``2**14`` samples; a sample whose remaining ``|J_k|`` are all
    below ``NEGLIGIBLE`` takes no further part.  ``E`` and ``O`` are
    contiguous real planes in the samples' own memory: until the last block
    sum, row ``i`` of the complex array holds ``E_i`` and then ``O_i``.  Once
    the block is freed, each row is interleaved into ``E + iO`` in place, one
    row at a time; the C-contiguous array of samples itself is returned.
    """
    t0 = t_span[0]
    # Zero radius: H = 0, and the terms of T_k(0) y0 that scale 0 gives are exact.
    scale = 1.0 / radius if radius > 0 else 0.0
    dt = np.asarray(t_eval, dtype=float) - t0
    terms = term_count(radius, np.abs(dt).max())
    k = np.arange(terms + 1)[:, None]
    bessel = _bessel(radius * dt, terms)
    # (2 - delta_k0) (-i)^k J_k is i^(k % 2) times this real coefficient.
    coef = np.where(k > 0, 2.0, 1.0) * np.array([1.0, -1.0, -1.0, 1.0])[k % 4] * bessel
    last = terms - np.argmax(np.abs(bessel[::-1]) > NEGLIGIBLE, axis=0)

    dim = y0.size
    # Columns per piece of a block sum.  OpenBLAS runs a GEMM of m n k <= 2**18
    # multiply-adds on one thread (interface/gemm.c: SMP_THRESHOLD_MIN 65536
    # times GEMM_MULTITHREAD_THRESHOLD 4), so no second thread wakes to spin
    # through the products that follow.
    chunk = max(1, 2**18 // ((BLOCK // 2) * dt.size))
    out = np.zeros((dt.size, dim), dtype=complex)
    # Until the interleave below, row i's floats hold E_i and then O_i.
    even, odd = out.view(float).reshape(dt.size, 2, dim).transpose(1, 0, 2)
    block = np.empty((min(BLOCK, terms + 1), dim))
    block[0] = y0
    for j in range(terms + 1):
        if j > 0:  # phi_j = a fun(phi_{j-1}) - phi_{j-2}
            phi, row = block[(j - 1) % BLOCK], block[j % BLOCK]
            np.multiply(fun(t0, phi), scale if j == 1 else 2.0 * scale, out=row)
            if j > 1:
                row -= block[(j - 2) % BLOCK]
        if j % BLOCK == BLOCK - 1 or j == terms:
            start = j - j % BLOCK
            live = last >= start
            if live.any():
                first = int(np.argmax(live))
                done = block[:j + 1 - start]
                c = coef[start:j + 1, first:]
                for col in range(0, dim, chunk):
                    piece = slice(col, col + chunk)
                    even[first:, piece] += c[0::2].T @ done[0::2, piece]
                    odd[first:, piece] += c[1::2].T @ done[1::2, piece]
    del block, phi, row, done  # the block, its views included
    for sample in out:
        planes = sample.view(float).copy()
        sample.real, sample.imag = planes[:dim], planes[dim:]
    return out


def _radius(h: Generator) -> float:
    """Radius ``R`` of an interval ``[-R, R]`` that holds the spectrum of the
    real ``H``, by Weyl's inequality (Horn & Johnson, Matrix Analysis, 4.3).

    ``S = W^(1/2) H W^(-1/2)``, ``W`` the weights of
    :attr:`Trajectory.sector_populations`, is symmetric, so ``H``'s spectrum
    lies within ``b`` of its diagonal's range, and ``R = max|diagonal| + b``:
    ``b`` the norm of the A-B star, whose entries are ``H``'s A row over
    sqrt 2, so ``sqrt(2 sum g^2)``, plus that of the B-D block ``M``, ``H``'s
    B rows times ``sqrt(2 / w)`` for a pair of weight ``w`` (2, or 1 on the
    diagonal): ``g_j`` at (k, {k, j}) and ``sqrt 2 g_k`` at (k, {k, k}).
    Column {k, j} of ``|M|`` sums to ``g_k + g_j`` and {k, k} to ``sqrt 2
    g_k``, so row k of ``|M| |M|^T`` sums to ``sum g^2 + g_k sum g``, largest
    at ``max(g)``, and ``M``'s norm is at most its root.  At a fixed
    bandwidth ``b`` does not grow with the mode count.  The interval is the
    diagonal's range widened by ``b`` when that range is centred on 0, as on
    a grid without kicks (``n_phi = 1``) up to rounding; a kicked grid's
    recoil energies move the range off 0, and ``[-R, R]`` is wider by twice
    that offset."""
    g = h.g
    squares = np.add.reduce(g ** 2)
    b = np.sqrt(2.0 * squares) + np.sqrt(squares + g.max() * np.add.reduce(g))
    return float(np.abs(h.diagonal).max() + b)


def integrate_amplitudes(run: OdeRun) -> Trajectory:
    """Propagate the coupled amplitude equations on the discrete grid.

    The generator ``H`` (:func:`amplitude_generator`) is real, so ``y(t) =
    exp(-iHt) y0``: one real Chebyshev recurrence from ``e_0`` over an
    interval ``[-R, R]`` that holds ``H``'s spectrum (:func:`_radius`) gives
    every sample time (:func:`solve_ivp`, which sees only the products with
    ``H`` and ``R``).  Its product count, :func:`term_count`, is fixed before
    the first product; at a fixed bandwidth and ``T`` it does not grow with
    the mode count.  Initial condition A = 1, everything else zero: the
    equations are linear, so a start from A = C_p is this run times C_p.  A
    :attr:`Trajectory.norm_drift` not within ``10 * tol`` (NaN included) raises
    :class:`NormDriftFailure`.  Reruns are bit-identical, whatever the
    OpenBLAS thread count and the number of samples: each product
    (:meth:`Generator.__matmul__`) sums in a fixed order, and the terms are
    summed through BLAS in blocks of a fixed size, each block sum in chunks
    small enough for one OpenBLAS thread.

    A run whose fastest frequency times ``T`` exceeds ``MAX_REACH`` radians
    (or is infinite) raises :class:`ConfigurationError` before any product.
    """
    h = amplitude_generator(run)
    reach = float(np.abs(h.diagonal).max()) * run.t_span[1]
    if not reach <= MAX_REACH:
        raise ConfigurationError(
            f"the fastest frequency times t_span reaches {reach:.3g} rad, beyond "
            f"the propagator's {MAX_REACH:g}: shorten the run, narrow the band "
            "or lessen the recoil")
    times, e0 = run.times, np.zeros(h.diagonal.size)
    e0[0] = 1.0
    y = solve_ivp(lambda t, x: h @ x, run.t_span, e0, t_eval=times, radius=_radius(h))
    traj = Trajectory(run=run, times=times, y=y)
    if not traj.norm_drift <= 10.0 * run.tol:
        raise NormDriftFailure(f"sector norm drifted by {traj.norm_drift:.3e} (allowed "
                               f"{10.0 * run.tol:.3e}); shorten the run")
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
