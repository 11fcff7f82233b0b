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

import numpy as np

from .core import (
    ModelParams,
    _check_time,
    omega_no_photon,
    omega_one_photon,
    omega_two_photon,
)

__all__ = [
    "amplitude_a",
    "amplitude_b",
    "amplitude_d",
    "amplitude_d_infinity",
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


def _offsets(k, phi, k2, phi2, p, params: ModelParams):
    """``alpha, beta1, beta2, delta`` for the ordered pair in which the first
    atom emits photon (k, phi) and the second atom photon (k2, phi2).

    The first atom alone having emitted leaves relative momentum ``p - q1/2``,
    the second alone ``p + q2/2``; ``omega_one_photon`` reads ``p`` through
    ``(p - q/2)^2`` only, so the second is its value at ``-p``.  Each atom's
    energy then adds: ``beta1 + beta2 = alpha + delta`` exactly.
    """
    alpha = omega_no_photon(p, params) - params.omega0
    beta1 = omega_one_photon(k, phi, p, params) - params.omega0
    beta2 = omega_one_photon(k2, phi2, -np.asarray(p, dtype=float), params) - params.omega0
    delta = omega_two_photon(k, phi, k2, phi2, p, params) - params.omega0
    return alpha, beta1, beta2, delta


def amplitude_d(k, phi, k2, phi2, p, t, params: ModelParams, *,
                coupling, coupling2):
    """Two-photon amplitude for the ordered mode pair (k, phi), (k2, phi2).

    The first atom emits photon (k, phi) and the second atom photon
    (k2, phi2), in either order.  Six simple-pole terms, grouped as two
    triples, one per emission order, that is one per intermediate
    one-photon state: the first atom decayed (``beta1``) or the second
    (``beta2``).  D(0) = 0 by exact residue cancellation; as t grows only
    the two undamped terms survive, leaving a pure phase at the two-photon
    frequency offset, exactly :func:`amplitude_d_infinity` times
    ``e^{-i delta t}``.

    Exchanging the atoms maps ``(k, phi, k2, phi2, p)`` to
    ``(k2, phi2, k, phi, -p)`` and leaves D as it is.  For nonzero relative
    momentum the two orderings of one photon pair are distinct final states
    (they differ in the final relative momentum) and generally carry
    different values.  Broadcasts over every argument: on a grid, the first
    photon's mode arrays take ``[:, None]`` and the second's ``[None, :]``.
    """
    t = _check_time(t)
    alpha, beta1, beta2, delta = _offsets(k, phi, k2, phi2, p, params)
    g = params.gamma
    out = -coupling * coupling2 * (
        _pole_triple(alpha, beta1, delta, g, t)
        + _pole_triple(alpha, beta2, delta, g, t)
    )
    return complex(out) if np.ndim(out) == 0 else out


def amplitude_d_infinity(k, phi, k2, phi2, p, params: ModelParams, *,
                         coupling, coupling2):
    """Two-factor Lorentzian product form of the long-time two-photon amplitude.

    ::

        D_inf = -g g' / ((i(beta1-delta) + gamma/2)(i(beta2-delta) + gamma/2))

    This is the modulus-carrying value; the full limit at time ``t`` is
    ``D_inf e^{-i delta t}``, a pure phase at the two-photon frequency offset
    ``delta = omega_two_photon - omega0``.  The photons and atoms pair as in
    :func:`amplitude_d`.  Because ``beta1 + beta2 = alpha + delta``, the two
    undamped terms of :func:`amplitude_d` sum to exactly this product: it
    is the exact t -> infinity limit, kicks and relative momentum included.
    Broadcasts over every argument.
    """
    _, beta1, beta2, delta = _offsets(k, phi, k2, phi2, p, params)
    g = params.gamma
    out = -coupling * coupling2 / (
        (1j * (beta1 - delta) + g / 2.0)
        * (1j * (beta2 - delta) + g / 2.0)
    )
    return complex(out) if np.ndim(out) == 0 else out
