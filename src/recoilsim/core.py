"""Physical parameters, discretized grids, and the kinematic frequency formulas.

The model: two identical two-level atoms confined to a line, radiating into
the planar vacuum.  A photon of wavenumber ``k`` leaving at angle ``phi``
(measured from the axis transverse to the atoms' line) kicks the pair with
momentum ``hbar*k*sin(phi)``.  Center-of-mass and relative coordinates carry
total mass ``M = 4*mu`` and reduced mass ``mu``.  Every downstream module --
the closed-form emission amplitudes, the brute-force ODE integration, and the
reduced spatial density matrix -- pulls its constants and mode frequencies
from here.

Units are natural, ``hbar = c = 1``, fixed as class constants of
:class:`ModelParams`, with the atomic transition frequency ``omega0`` setting
the inverse-time scale.  The radiated wavelength is then ``2*pi/omega0``, and
times are naturally reported in units of the inverse decay rate ``1/gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "ModelParams",
    "ModeGrid",
    "MomentumAmplitude",
    "recoil_momentum",
    "omega_no_photon",
    "omega_one_photon",
    "omega_two_photon",
]


class ConfigurationError(ValueError):
    """Raised when parameters or grids are unphysical or inconsistent."""


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _uniform(x: np.ndarray) -> bool:
    """Whether the finite ``x`` increases in equal steps.  Rounding of ``x``
    alone leaves steps a few ulp of ``max |x|`` apart, so 4 are allowed."""
    dx = np.diff(x)
    tol = 4.0 * np.spacing(np.abs(x).max())
    return bool(np.all(dx > 0) and np.abs(dx - dx[0]).max() <= tol)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelParams:
    """Immutable physical parameter set.

    The atoms' coupling to the field enters every observable only through
    ``gamma``, the single-atom spontaneous decay rate, so ``gamma`` is the
    one way it is given.
    """

    omega0: float  # atomic transition frequency
    mu: float      # reduced mass of the atom pair
    gamma: float   # spontaneous decay rate of one excited atom

    # Natural units: constants of the class, not fields.
    hbar = 1.0
    c = 1.0

    def __post_init__(self):
        for name in ("omega0", "mu", "gamma"):
            v = getattr(self, name)
            if not _finite(v) or v <= 0:
                raise ConfigurationError(f"{name} must be positive and finite, got {v!r}")

    @property
    def cap_m(self) -> float:
        """Total mass of the pair (twice the single-atom mass, 4x the reduced mass)."""
        return 4.0 * self.mu

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi * self.c / self.omega0

    @property
    def k0(self) -> float:
        """Resonant wavenumber omega0/c."""
        return self.omega0 / self.c

    def scenario_regime_ok(self) -> bool:
        """Wavelength-scale localization arguments need omega0 >> gamma."""
        return self.omega0 / self.gamma >= 10.0

    def require_scenario_regime(self) -> None:
        if not self.scenario_regime_ok():
            raise ConfigurationError(
                f"omega0/gamma = {self.omega0 / self.gamma:.3g} is below 10; "
                "localization scenarios require a sharply resonant line"
            )


def recoil_momentum(k, phi, params: ModelParams):
    """Momentum kick ``hbar*k*sin(phi)`` along the atoms' line for one photon."""
    return params.hbar * np.asarray(k) * np.sin(phi)


def omega_no_photon(p, params: ModelParams):
    """Frequency of the doubly-excited, zero-photon configuration.

    The pair is at rest as a whole, so the kinetic term is the relative
    motion's (``p``) alone, plus the shared excitation energy ``omega0``.
    """
    p = np.asarray(p, dtype=float)
    return p**2 / (2.0 * params.mu) / params.hbar + params.omega0


def omega_one_photon(k, phi, p, params: ModelParams):
    """Frequency of the one-photon configuration (one atom decayed).

    The emitted photon carries ``c*k`` and has kicked the center of mass by
    the full recoil and the relative coordinate by half of it.
    """
    q = recoil_momentum(k, phi, params)
    kin = q**2 / (2.0 * params.cap_m) \
        + (np.asarray(p, dtype=float) - q / 2.0) ** 2 / (2.0 * params.mu)
    return kin / params.hbar + params.c * np.asarray(k)


def omega_two_photon(k, phi, k2, phi2, p, params: ModelParams):
    """Frequency of the two-photon configuration (both atoms decayed).

    The two kicks push the center of mass together but enter the relative
    coordinate with opposite signs; the shared excitation energy has been
    paid back once (hence the ``- omega0``).
    """
    q1 = recoil_momentum(k, phi, params)
    q2 = recoil_momentum(k2, phi2, params)
    kin = (q1 + q2) ** 2 / (2.0 * params.cap_m) \
        + (np.asarray(p, dtype=float) - q1 / 2.0 + q2 / 2.0) ** 2 / (2.0 * params.mu)
    return kin / params.hbar + params.c * (np.asarray(k) + np.asarray(k2)) - params.omega0


@dataclass(frozen=True)
class ModeGrid:
    """Discretized field modes: a uniform wavenumber window around resonance
    crossed with a set of emission angles.

    ``coupling_ref`` (the per-mode coupling at resonance) is fixed by the
    requirement that the discrete golden-rule sum over the grid reproduces the
    configured decay rate: ``g0**2 = gamma * c * dk / (2*pi * n_phi)``.  The
    quantization volume and permittivity cancel out of this calibration, which
    is why they never need numeric values.
    """

    k_values: np.ndarray     # uniform increasing wavenumbers, all > 0
    phi_values: np.ndarray   # emission angles in [0, 2*pi)
    coupling_ref: float      # per-mode coupling at k = k0
    reference_k: float       # resonant wavenumber the couplings are anchored to
    flat_coupling: bool = False  # True: g(k) = g0; False: g(k) = g0*sqrt(k/k0)

    def __post_init__(self):
        k = _frozen_array(self.k_values)
        phi = _frozen_array(self.phi_values)
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "phi_values", phi)
        if k.ndim != 1 or k.size < 2:
            raise ConfigurationError("need at least two wavenumbers")
        # spacing, and with it the recurrence time, reads the first step only.
        if not _finite(k) or np.any(k <= 0) or not _uniform(k):
            raise ConfigurationError(
                "k_values must be finite, positive, uniform and increasing")
        if phi.ndim != 1 or phi.size < 1 or np.any(phi < 0) or np.any(phi >= 2 * np.pi):
            raise ConfigurationError("phi_values must lie in [0, 2*pi)")
        if not _finite(self.coupling_ref) or self.coupling_ref < 0:
            raise ConfigurationError("coupling_ref must be non-negative")
        if not _finite(self.reference_k) or self.reference_k <= 0:
            raise ConfigurationError("reference_k must be positive and finite")

    @classmethod
    def build(cls, params: ModelParams, n_k: int, bandwidth_gammas: float = 25.0,
              n_phi: int = 1, flat_coupling: bool = False) -> "ModeGrid":
        """Uniform grid of ``n_k`` wavenumbers spanning ``k0 +- W`` with
        ``W = bandwidth_gammas * gamma / c``, crossed with ``n_phi`` angles
        uniform on [0, 2*pi).  A single angle sits at phi = 0, i.e. photons
        leave transverse to the atoms' line and impart no kick; that is the
        recoil-free effective grid used for decay-rate checks.

        ``flat_coupling=True`` drops the physical sqrt(k/k0) frequency scaling
        of the per-mode coupling in favor of a constant g0.  A flat profile is
        symmetric about resonance, so the discrete bath produces no net line
        pull; useful for calibration checks that isolate the golden-rule rate.
        """
        if n_k < 2:
            raise ConfigurationError("n_k must be at least 2")
        if n_phi < 1:
            raise ConfigurationError("n_phi must be at least 1")
        if bandwidth_gammas <= 0:
            raise ConfigurationError("bandwidth_gammas must be positive")
        half_width = bandwidth_gammas * params.gamma / params.c
        k0 = params.k0
        if half_width >= k0:
            raise ConfigurationError(
                f"bandwidth {bandwidth_gammas} gamma/c reaches k <= 0; "
                "reduce it or raise omega0/gamma"
            )
        k = np.linspace(k0 - half_width, k0 + half_width, n_k)
        dk = k[1] - k[0]
        phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        g0 = np.sqrt(params.gamma * params.c * dk / (2.0 * np.pi * n_phi))
        return cls(k_values=k, phi_values=phi, coupling_ref=g0, reference_k=k0,
                   flat_coupling=flat_coupling)

    @property
    def n_modes(self) -> int:
        return self.k_values.size * self.phi_values.size

    @property
    def spacing(self) -> float:
        return float(self.k_values[1] - self.k_values[0])

    @property
    def mode_k(self) -> np.ndarray:
        """Wavenumber of every (k, phi) mode, flattened k-major."""
        return np.repeat(self.k_values, self.phi_values.size)

    @property
    def mode_phi(self) -> np.ndarray:
        """Angle of every (k, phi) mode, flattened k-major."""
        return np.tile(self.phi_values, self.k_values.size)

    @property
    def mode_coupling(self) -> np.ndarray:
        if self.flat_coupling:
            return np.full(self.n_modes, self.coupling_ref)
        return self.coupling_ref * np.sqrt(self.mode_k / self.reference_k)


@dataclass(frozen=True)
class MomentumAmplitude:
    """Initial weight over relative momenta, sampled on a uniform grid.

    The sampled profile must be unit-normalized: ``sum |c_p|^2 * dp = 1``
    (trapezoid rule) to within 1e-10.
    """

    p_values: np.ndarray
    c_p: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.p_values)
        c = _frozen_array(self.c_p, dtype=complex)
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "c_p", c)
        if p.ndim != 1 or p.size < 2 or c.shape != p.shape:
            raise ConfigurationError("p_values and c_p must be matching 1-d arrays")
        dp = np.diff(p)
        if np.any(dp <= 0) or not np.allclose(dp, dp[0], rtol=1e-12, atol=0.0):
            raise ConfigurationError("p_values must be uniform and increasing")
        norm = float(np.trapezoid(np.abs(c) ** 2, p))
        if abs(norm - 1.0) > 1e-10:
            raise ConfigurationError(
                f"momentum profile is not normalized: sum |c_p|^2 dp = {norm!r}")

    @property
    def spacing(self) -> float:
        return float(self.p_values[1] - self.p_values[0])
