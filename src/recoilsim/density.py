"""The observable layer: free wave packets, the Bessel-squared decoherence
factor, and reduced density matrices of the relative coordinate.

After both atoms have emitted (times well past ``1/gamma``), tracing the
photons, the internal states, and the center of mass out of the two-atom
state leaves the relative coordinate in

    rho(x, x', t) = N' psi(x, t) psi*(x', t) F(x, x')

where psi is the freely evolved relative wave function and
``F = J0^2(pi (x - x') / lambda)`` suppresses coherences between points
separated on the scale of the emitted wavelength.  F never touches the
diagonal (F(x, x) = 1), so in this form emission changes coherences only,
never the position distribution itself.  That holds of the physics only
while each photon's recoil drift ``s = hbar omega0 t / (2 mu c)`` is small
against the wavelength: the drift spreads the diagonal too (its second
moment grows by ``s**2``), and this form drops it.  At ``mu = 10``, the
CLI's default, ``s`` is already 0.8 wavelengths at ``gamma t = 1``;
``oracle.density_quadrature`` keeps the drift.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (ConfigurationError, ModelParams, _check_time, _finite,
                   _frozen_array, _uniform)
from .specfun import bessel_j0

__all__ = [
    "CoherenceLength",
    "DensityGrid",
    "GaussianPacket",
    "ModelValidityError",
    "Scenario",
    "SpatialGrid",
    "ValidityWarning",
    "coherence_length",
    "decoherence_factor",
    "psi_free",
    "scenario_sweep",
    "worker_count",
]

# Emission-on density matrices presume both atoms have decayed.
HARD_TIME_GATE = 1.0   # gamma*t below this: hard error
SOFT_TIME_GATE = 5.0   # gamma*t below this: warning
MIN_GRID_MASS = 0.99   # share of the packet the density grid must hold


def worker_count(n_jobs: int) -> int:
    """Workers for ``n_jobs`` independent jobs: one per job, up to the CPUs
    this process may run on, and never fewer than one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # not every platform can restrict a process to some CPUs
        cpus = os.cpu_count() or 1
    return max(1, min(n_jobs, cpus))


class ModelValidityError(ValueError):
    """The requested evaluation lies outside the model's validity window."""


class ValidityWarning(UserWarning):
    """The requested evaluation is marginal but not outright invalid."""


@dataclass(frozen=True)
class GaussianPacket:
    """Normalized Gaussian wave packet: |G|^2 has standard deviation ``width``."""

    center: float
    width: float

    def __post_init__(self):
        if not np.isfinite(self.width) or self.width <= 0:
            raise ConfigurationError(f"packet width must be positive, got {self.width!r}")
        if not np.isfinite(self.center):
            raise ConfigurationError("packet center must be finite")

    def evolved(self, x, t, params: ModelParams):
        """Free evolution under the relative-motion Hamiltonian p^2 / (2 mu).

        The Gaussian stays Gaussian with the complex width
        ``D_t = d^2 + i hbar t / (2 mu)``; |psi|^2 keeps unit norm with
        variance ``d^2 + (hbar t / (2 mu d))^2``.
        """
        d = self.width
        d_t = d**2 + 1j * params.hbar * t / (2.0 * params.mu)
        pref = (2.0 * np.pi) ** (-0.25) * np.sqrt(d / d_t)
        return pref * np.exp(-((np.asarray(x, dtype=float) - self.center) ** 2)
                             / (4.0 * d_t))

    def sigma(self, t, params: ModelParams) -> float:
        """Position spread of |psi(.,t)|^2."""
        d = self.width
        return float(np.hypot(d, params.hbar * t / (2.0 * params.mu * d)))


@dataclass(frozen=True)
class Scenario:
    """A weighted superposition of Gaussian packets as the initial relative state."""

    packets: tuple[GaussianPacket, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.packets) != len(self.weights) or not self.packets:
            raise ConfigurationError("packets and weights must match and be nonempty")

    @classmethod
    def single(cls, width: float, center: float = 0.0) -> "Scenario":
        return cls(packets=(GaussianPacket(center, width),), weights=(1.0,))

    @classmethod
    def superposition(cls, center_offset: float, width: float) -> "Scenario":
        """Symmetric cat state: packets at +-center_offset, equal weights.

        The normalization carries the packet overlap
        ``S = exp(-center_offset^2 / (2 width^2))``: each weight is
        ``1/sqrt(2(1+S))`` so the summed state has exactly unit norm.
        """
        if center_offset <= 0:
            raise ConfigurationError("center_offset must be positive")
        # The packets validate the width before the overlap divides by it.
        packets = (GaussianPacket(center_offset, width),
                   GaussianPacket(-center_offset, width))
        # Through the ratio: the squares alone leave the float range at
        # lengths far short of where the ratio does.
        ratio = center_offset / width
        s = float(np.exp(-0.5 * ratio * ratio))
        w = 1.0 / np.sqrt(2.0 * (1.0 + s))
        return cls(packets=packets, weights=(w, w))

    def max_sigma(self, t, params: ModelParams) -> float:
        return max(pk.sigma(t, params) for pk in self.packets)


def psi_free(x, t, c_p_spec, params: ModelParams):
    """Freely evolved relative wave function at position(s) ``x``.

    ``c_p_spec`` must be a :class:`Scenario`; each of its packets evolves in
    closed form.
    """
    if not isinstance(c_p_spec, Scenario):
        raise ConfigurationError(
            f"unsupported wave-packet specification: {type(c_p_spec).__name__}")
    parts = [w * pk.evolved(x, t, params)
             for pk, w in zip(c_p_spec.packets, c_p_spec.weights)]
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def decoherence_factor(x, x2, params: ModelParams):
    """Coherence suppression between ``x`` and ``x2``:
    ``F = J0^2(pi (x - x2) / lambda)``.

    Depends only on the separation; F(x, x) = 1; 0 <= F <= 1.
    """
    arg = (params.omega0 / (2.0 * params.c)) * (np.asarray(x, dtype=float)
                                                - np.asarray(x2, dtype=float))
    return bessel_j0(arg) ** 2


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform position grid for density matrices."""

    x_values: np.ndarray

    def __post_init__(self):
        x = _frozen_array(self.x_values)
        if x.ndim != 1 or x.size < 2:
            raise ConfigurationError("need at least two grid points")
        if not _finite(x):
            raise ConfigurationError("grid points must be finite")
        if not _uniform(x):
            raise ConfigurationError("x_values must be uniform and increasing")
        object.__setattr__(self, "x_values", x)

    @classmethod
    def linspace(cls, x_min: float, x_max: float, points: int) -> "SpatialGrid":
        if points < 2 or not 0.0 < x_max - x_min < np.inf:
            raise ConfigurationError("need x_max > x_min, a finite span "
                                     "and at least 2 points")
        return cls(x_values=np.linspace(x_min, x_max, points))

    @property
    def spacing(self) -> float:
        return float(self.x_values[1] - self.x_values[0])

    @property
    def extent(self) -> float:
        return float(self.x_values[-1] - self.x_values[0])

    @property
    def n(self) -> int:
        return self.x_values.size


@dataclass(frozen=True)
class DensityGrid:
    """Reduced density matrix of the relative coordinate on a grid, kept as
    its factors: ``rho[i, j] = norm_factor psi[i] psi*[j] factor[|i - j|]``,
    ``factor`` being the decoherence-factor column (ones without emission).

    ``rho`` is built only on request: Hermitian exactly, not to rounding,
    with a real non-negative diagonal and trace normalized to one.
    """

    grid: SpatialGrid
    psi: np.ndarray
    factor: np.ndarray
    t: float
    emission: bool
    norm_factor: float
    params: ModelParams

    def __post_init__(self):
        for name, dtype in (("psi", complex), ("factor", float)):
            v = _frozen_array(getattr(self, name), dtype=dtype)
            if v.shape != (self.grid.n,):
                raise ConfigurationError(f"{name} needs one value per grid point")
            object.__setattr__(self, name, v)

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` of rho.  Entries below the diagonal are the conjugates
        of their mirror images, computed as those are: a fused multiply-add
        in the complex product would leave last-bit asymmetries in
        ``psi[i] psi*[j]``, and scaling after conjugating would leave
        ``+0`` where the mirror's ``conj`` gives ``-0``."""
        psi, norm = self.psi, self.norm_factor
        row = psi[i] * psi.conj()
        row[i] = row[i].real
        row = row * self.factor[np.abs(np.arange(psi.size) - i)] * norm
        row[:i] = np.conj(psi[:i] * psi[i].conj() * self.factor[i:0:-1] * norm)
        return row

    @property
    def rho(self) -> np.ndarray:
        """The dense matrix, built anew on each access (read-only)."""
        out = np.array([self.row(i) for i in range(self.grid.n)])
        out.setflags(write=False)
        return out

    @property
    def diagonal(self) -> np.ndarray:
        return (self.psi * self.psi.conj()).real * self.norm_factor

    def trace(self) -> float:
        return float(np.add.reduce(self.diagonal) * self.grid.spacing)

    def purity(self) -> float:
        """trace(rho^2) by the grid quadrature; 1 for a pure state."""
        return float(np.dot(self.factor**2, _offset_sums(self.diagonal))
                     * self.grid.spacing**2)

    def diag_width(self) -> float:
        """Standard deviation of the position distribution (the diagonal)."""
        x = self.grid.x_values
        w = self.diagonal * self.grid.spacing
        total = np.add.reduce(w)
        mean = np.add.reduce(x * w) / total
        var = np.add.reduce((x - mean) ** 2 * w) / total
        return float(np.sqrt(var))

    def off_band_mass(self, width: float) -> float:
        """Sum of |rho| over pairs separated by more than ``width/2``."""
        band = np.arange(self.grid.n) * self.grid.spacing > width / 2.0
        sums = self.factor * _offset_sums(np.abs(self.psi))
        return float(self.norm_factor * np.add.reduce(sums[band]))


def _offset_sums(a: np.ndarray) -> np.ndarray:
    """Sum of ``a_i a_j`` over the pairs with ``|i - j| = m``, for each m:
    ``|rho_ij|`` depends on ``i`` and ``j`` only through such products and m."""
    sums = np.correlate(a, a, "full")[a.size - 1:]
    sums[1:] *= 2.0
    return sums


def _assemble_density(grid: SpatialGrid, t: float, scenario, emission: bool,
                      params: ModelParams) -> DensityGrid:
    psi = np.asarray(psi_free(grid.x_values, t, scenario, params), dtype=complex)
    offsets = np.arange(grid.n) * grid.spacing
    factor = decoherence_factor(offsets, 0.0, params) if emission else np.ones(grid.n)
    # F(0) = 1 exactly, so emission leaves the diagonal and the norm as they are.
    mass = float(np.add.reduce((psi * psi.conj()).real)) * grid.spacing
    if not MIN_GRID_MASS <= mass < np.inf:  # also NaN
        lam = params.wavelength
        where = (f"the density grid {grid.x_values[0] / lam:g} <= x <= "
                 f"{grid.x_values[-1] / lam:g} lambda")
        when = f"at gamma*t = {params.gamma * t:.3g}"
        if 0.0 < mass < MIN_GRID_MASS and 1.0 / mass < np.inf:
            raise ConfigurationError(f"{where} holds only {mass:.3g} of the packet "
                                     f"{when} (at least {MIN_GRID_MASS:g} is needed)")
        raise ConfigurationError(f"the packet has no finite density on {where} {when}")
    norm = 1.0 / mass
    return DensityGrid(grid=grid, psi=psi, factor=factor, t=float(t),
                       emission=bool(emission), norm_factor=norm, params=params)


class CoherenceLength(NamedTuple):
    """First e^{-1} crossing of the center-normalized coherence profile.

    ``crossed`` is False when no crossing exists within the grid (or the grid
    is too coarse to resolve one); ``length`` then holds the grid extent as a
    sentinel.
    """

    length: float
    crossed: bool


def coherence_length(dg: DensityGrid) -> CoherenceLength:
    """Separation at which coherence through the densest point falls to e^{-1}.

    Scans |rho(x0 + dx/2, x0 - dx/2)| / rho(x0, x0) outward from the peak x0
    of the position distribution and linearly interpolates the first crossing
    below e^{-1}.  Normalizing by the central diagonal value (not by the
    geometric mean of the endpoints' diagonals) keeps the profile sensitive
    to both the packet envelope and the emission damping: for a pure packet
    it tracks the growing width, with emission it saturates at the separation
    where the Bessel-squared factor alone reaches e^{-1}.
    """
    lam = dg.params.wavelength
    sentinel = CoherenceLength(length=dg.grid.extent, crossed=False)
    if dg.grid.spacing > lam / 4.0:
        return sentinel
    diag = dg.diagonal
    i0 = int(np.argmax(diag))
    center = diag[i0]
    if center <= 0:
        return sentinel
    m_max = min(i0, dg.grid.n - 1 - i0)
    # rho[i0 - m, i0 + m] for m = 1..m_max, whose abs is its mirror's.
    ms = np.arange(1, m_max + 1)
    anti = dg.psi[i0 - ms] * dg.psi[i0 + ms].conj() * dg.factor[2 * ms] * dg.norm_factor
    threshold = float(np.exp(-1.0))
    prev = 1.0
    for m in range(1, m_max + 1):
        cur = abs(anti[m - 1]) / center
        if cur < threshold:
            dx_prev = 2.0 * (m - 1) * dg.grid.spacing
            dx_cur = 2.0 * m * dg.grid.spacing
            frac = (prev - threshold) / (prev - cur)
            return CoherenceLength(length=dx_prev + frac * (dx_cur - dx_prev),
                                   crossed=True)
        prev = cur
    return sentinel


def scenario_sweep(scenario, times, emission: bool, grid: SpatialGrid,
                   params: ModelParams) -> list[DensityGrid]:
    """rho(x, x', t) = N' psi psi* F on the grid at each of ``times``, in order.

    With ``emission`` the Bessel-squared factor multiplies every coherence;
    without it F is identically one and the state stays pure.  Refused, in
    this order and all before any matrix is assembled: a ``scenario`` that is
    not a :class:`Scenario`; a time that is not finite and non-negative;
    times that do not ascend; a spacing above lambda/20, which leaves the
    Bessel oscillations unresolved; an extent below 6x the largest packet
    spread at the final time; a line outside the scenario regime; emission
    at ``gamma t < 1``, before both atoms have decayed (below ``gamma t = 5``
    a warning is issued, after every refusal above).  Then each matrix
    refuses a grid that holds less than ``MIN_GRID_MASS`` of the packet (by
    the grid's quadrature) rather than renormalising it.
    """
    if not isinstance(scenario, Scenario):
        raise ConfigurationError(
            f"unsupported wave-packet specification: {type(scenario).__name__}")
    times = [float(t) for t in times]
    _check_time(times)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigurationError("times must be strictly ascending")
    if not times:
        return []
    lam = params.wavelength
    # Relative slack so a grid built to land exactly on lambda/20 is not
    # rejected over the last bit of the spacing division.
    if grid.spacing > lam / 20.0 * (1.0 + 1e-9):
        raise ConfigurationError(
            f"grid spacing {grid.spacing:.4g} exceeds lambda/20 = {lam / 20.0:.4g}; "
            "the decoherence factor would be under-resolved")
    needed = 6.0 * scenario.max_sigma(times[-1], params)
    if grid.extent < needed:
        raise ConfigurationError(
            f"grid extent {grid.extent:.4g} is below 6x the largest packet "
            f"spread {needed:.4g} at the final time")
    params.require_scenario_regime()
    for t in times if emission else []:
        gt = params.gamma * t
        if gt < HARD_TIME_GATE:
            raise ModelValidityError(
                f"emission density matrix requested at gamma*t = {gt:.3g}; "
                f"the traced-out form requires gamma*t >= {HARD_TIME_GATE} "
                "(both atoms must have decayed)")
        if gt < SOFT_TIME_GATE:
            warnings.warn(
                f"gamma*t = {gt:.3g} is marginal for the emission-traced "
                f"density matrix (recommended gamma*t >= {SOFT_TIME_GATE})",
                ValidityWarning, stacklevel=2)
    # All inputs are immutable and every run is independent, so the sweep can
    # fan out over times (gates above already ran, in this thread, for all of
    # them); results come back in time order regardless.  Imported here, the
    # pool costs the CLI runs that never sweep nothing.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=worker_count(len(times))) as pool:
        return list(pool.map(
            lambda t: _assemble_density(grid, t, scenario, emission, params),
            times))
