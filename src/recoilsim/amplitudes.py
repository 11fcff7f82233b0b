"""Closed-form emission amplitudes for the three photon sectors.

Both atoms start excited with no photons present, from the initial
amplitude ``C_p = 1``: every amplitude is linear in ``C_p``, so any other
start is these forms scaled by it.  Within the rotating-wave,
two-photon-truncated model the state has three sectors -- no photon (A), one
photon (B, one atom decayed), two photons (D, both decayed) -- and after the
Markovian dressing of the mode continuum each amplitude has an exact
inverse-Laplace closed form built from simple poles.  All phases here are in
the frame rotating at the transition frequency, i.e. every frequency enters
only through its offset from ``omega0``:

    alpha = omega_no_photon  - omega0
    beta  = omega_one_photon - omega0
    delta = omega_two_photon - omega0

A decays at the full rate ``gamma`` (either atom can emit), B at ``gamma/2``
(one atom left), D not at all.  The brute-force discrete-mode integration in
:mod:`recoilsim.oracle` validates these forms without sharing any algebra
with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    ModelParams,
    ModeGrid,
    _check_time,
    _frozen_array,
    omega_no_photon,
    omega_one_photon,
    omega_two_photon,
    recoil_momentum,
)

__all__ = [
    "AmplitudeState",
    "TwoPhotonLimit",
    "amplitude_a",
    "amplitude_b",
    "amplitude_d",
    "amplitude_d_infinity",
    "closed_form_state",
]


def amplitude_a(p, t, params: ModelParams):
    """No-photon amplitude: ``e^{-gamma t} e^{-i alpha t}``.

    Pure exponential decay at the full two-atom rate with the free kinetic
    phase on top.  Broadcasts over ``p`` and ``t``.
    """
    t = _check_time(t)
    alpha = omega_no_photon(p, params) - params.omega0
    out = np.exp(-(1j * alpha + params.gamma) * t)
    return complex(out) if out.ndim == 0 else out


def amplitude_b(k, phi, p, t, params: ModelParams, *, coupling):
    """One-photon amplitude for the mode (k, phi).

    Two poles: the decaying source (A's pole, width ``gamma``) and the dressed
    one-photon state (width ``gamma/2``)::

        B(t) = -i g (e^{-(i beta + gamma/2) t} - e^{-(i alpha + gamma) t})
               / (i (alpha - beta) + gamma/2)

    ``coupling`` is the per-mode coupling g(k) of the discretization being
    compared against (see :meth:`recoilsim.core.ModeGrid.build`).  B(0) = 0
    and B vanishes again at long times; the denominator never vanishes since
    ``gamma > 0``.  On resonance (beta = alpha) the expression is the finite
    limit ``-i g e^{-(i alpha + gamma/2) t}(1 - e^{-gamma t/2})/(gamma/2)``
    and is evaluated by the same formula without special-casing.
    """
    t = _check_time(t)
    g = params.gamma
    alpha = omega_no_photon(p, params) - params.omega0
    beta = omega_one_photon(k, phi, p, params) - params.omega0
    denom = 1j * (alpha - beta) + g / 2.0
    out = -1j * coupling * (
        np.exp(-(1j * beta + g / 2.0) * t) - np.exp(-(1j * alpha + g) * t)
    ) / denom
    return complex(out) if np.ndim(out) == 0 else out


def _pole_triple(alpha, beta, delta, gamma, t):
    """One of the two symmetric halves of the two-photon closed form.

    With ``a = i(delta-beta) - gamma/2`` (dressed one-photon pole relative to
    the final state) and ``b = i(alpha-beta) + gamma/2`` (source pole), the
    residues combine so that the triple vanishes identically at t = 0:
    ``-1/(R a) + 1/(R b) + 1/(a b) = 0`` with ``R = b - a`` exactly.
    """
    b_ = 1j * (alpha - beta) + gamma / 2.0
    a_ = 1j * (delta - beta) - gamma / 2.0
    big_r = b_ - a_   # equals i(alpha - delta) + gamma, exactly, by construction
    return (
        -np.exp(-1j * delta * t) / (big_r * a_)
        + np.exp(-(1j * alpha + gamma) * t) / (big_r * b_)
        + np.exp(-(1j * beta + gamma / 2.0) * t) / (a_ * b_)
    )


def amplitude_d(k, phi, k2, phi2, p, t, params: ModelParams, *,
                coupling, coupling2):
    """Two-photon amplitude for the ordered mode pair (k, phi), (k2, phi2).

    Six simple-pole terms, grouped as two triples (one per intermediate
    one-photon state).  D(0) = 0 by exact residue cancellation; as t grows
    only the two undamped terms survive, leaving a pure phase at the
    two-photon frequency offset (see :func:`amplitude_d_infinity`).

    The pair is ordered: the first photon label rides with the first atom's
    emission.  For nonzero relative momentum the two orderings are distinct
    final states (they differ in the final relative momentum) and generally
    carry different values.
    """
    t = _check_time(t)
    g = params.gamma
    alpha = omega_no_photon(p, params) - params.omega0
    beta1 = omega_one_photon(k, phi, p, params) - params.omega0
    beta2 = omega_one_photon(k2, phi2, p, params) - params.omega0
    delta = omega_two_photon(k, phi, k2, phi2, p, params) - params.omega0
    out = -coupling * coupling2 * (
        _pole_triple(alpha, beta1, delta, g, t)
        + _pole_triple(alpha, beta2, delta, g, t)
    )
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class TwoPhotonLimit:
    """Long-time limit of a two-photon amplitude.

    The modulus is time independent; the time dependence is a pure phase at
    ``detuning`` (the two-photon frequency offset from the rotating frame),
    kept separate so callers can compare moduli without picking a time.
    """

    amplitude: complex
    detuning: float

    def at_time(self, t):
        """Full limiting value ``amplitude * e^{-i detuning t}``; broadcasts
        over ``t``."""
        out = self.amplitude * np.exp(-1j * self.detuning * np.asarray(t, dtype=float))
        return complex(out) if out.ndim == 0 else out


def amplitude_d_infinity(k, phi, k2, phi2, p, params: ModelParams, *,
                         coupling, coupling2,
                         neglect_recoil: bool = False) -> TwoPhotonLimit:
    """Two-factor Lorentzian product form of the long-time two-photon amplitude.

    ::

        D_inf = -g g' / ((i(beta1-delta) + gamma/2)(i(beta2-delta) + gamma/2))

    With ``neglect_recoil`` the exact detunings ``beta - delta`` are replaced
    by their recoil-linearized (Doppler) forms
    ``omega0 - c k' - p p_phi' / (2 mu hbar)``; the two forms agree
    exactly whenever the recoil kicks vanish (transverse emission).

    For emission with nonzero kicks the product form differs from the true
    t -> infinity limit of :func:`amplitude_d` by a factor
    ``1 + i eps_r / R`` with ``eps_r = beta1 + beta2 - alpha - delta``
    (quadratic in the recoil momenta) and ``R = i(alpha - delta) + gamma`` --
    negligible in the regimes this model addresses and identically zero for
    transverse emission.
    """
    g = params.gamma
    delta = omega_two_photon(k, phi, k2, phi2, p, params) - params.omega0
    if neglect_recoil:
        doppler = p / (2.0 * params.mu)
        q1 = recoil_momentum(k, phi, params)
        q2 = recoil_momentum(k2, phi2, params)
        det1 = params.omega0 - params.c * np.asarray(k2) - doppler * q2 / params.hbar
        det2 = params.omega0 - params.c * np.asarray(k) - doppler * q1 / params.hbar
    else:
        beta1 = omega_one_photon(k, phi, p, params) - params.omega0
        beta2 = omega_one_photon(k2, phi2, p, params) - params.omega0
        det1 = beta1 - delta
        det2 = beta2 - delta
    amp = -coupling * coupling2 / (
        (1j * det1 + g / 2.0) * (1j * det2 + g / 2.0)
    )
    return TwoPhotonLimit(amplitude=complex(amp), detuning=float(delta))


@dataclass(frozen=True)
class AmplitudeState:
    """All three sector coefficients for one relative momentum at one time.

    ``b_vals`` runs over the modes of a grid (k-major flattening);
    ``d_vals`` over ordered mode pairs as a full matrix.  Both are read-only
    copies of the arrays given.
    """

    p: float
    t: float
    a_val: complex
    b_vals: np.ndarray
    d_vals: np.ndarray

    def __post_init__(self):
        b = _frozen_array(self.b_vals, dtype=complex)
        d = _frozen_array(self.d_vals, dtype=complex)
        if d.shape != (b.size, b.size):
            raise ConfigurationError("d_vals must be n_modes x n_modes")
        object.__setattr__(self, "b_vals", b)
        object.__setattr__(self, "d_vals", d)

    @property
    def sector_norms(self) -> tuple[float, float, float]:
        """(|A|^2, 2 sum|B|^2, sum|D|^2) with the ordered double sum on D."""
        return (float(abs(self.a_val) ** 2),
                2.0 * float(np.add.reduce(np.abs(self.b_vals) ** 2)),
                float(np.add.reduce(np.abs(self.d_vals).ravel() ** 2)))


def closed_form_state(grid: ModeGrid, p, t, params: ModelParams) -> AmplitudeState:
    """Evaluate every closed-form amplitude on a mode grid at one time.

    The two-photon matrix costs O(n_modes^2) time and memory; for A and B
    alone call :func:`amplitude_a` and :func:`amplitude_b`.
    """
    t = float(_check_time(t))
    mk, mphi = grid.mode_k, grid.mode_phi
    g = grid.mode_coupling
    a_val = amplitude_a(p, t, params)
    b_vals = amplitude_b(mk, mphi, p, t, params, coupling=g)
    d_vals = amplitude_d(
        mk[:, None], mphi[:, None], mk[None, :], mphi[None, :],
        p, t, params, coupling=g[:, None], coupling2=g[None, :],
    )
    return AmplitudeState(p=float(np.asarray(p, dtype=float)), t=t,
                          a_val=complex(a_val), b_vals=b_vals, d_vals=d_vals)
