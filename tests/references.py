"""Independent references that the tests hold the package's closed forms to.

Each computes by a second route what the package computes in closed form,
and shares no code with it:

* :func:`j0_by_angular_average` against ``specfun.bessel_j0``'s power series
  and Hankel expansion;
* :func:`psi_by_momentum_quadrature` against ``density.GaussianPacket``'s
  closed-form free evolution;
* :func:`density_by_kicked_momenta` against ``oracle.density_quadrature``'s
  recoil-shifted packets.
"""

import numpy as np


def j0_by_angular_average(a, n=256):
    """J0 by its integral form: the mean of ``cos(a*sin(theta))`` over a period.

    Uses the uniform-grid (rectangle) rule on [0, 2*pi) with ``n`` panels,
    which for periodic integrands is spectrally accurate: the quadrature
    error is set by the Bessel coefficient J_n(a), astronomically small once
    ``n >= 2*|a|``.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.cos(np.multiply.outer(np.asarray(a, dtype=float),
                                    np.sin(theta))).mean(axis=-1)


def psi_by_momentum_quadrature(x, t, p, c_p, params):
    """The relative wave function at positions ``x`` and time ``t`` from its
    momentum weights ``c_p``, sampled on the uniform grid ``p``:
    ``(2 pi hbar)^(-1/2) int C_p exp(i (p x - p^2 t / (2 mu)) / hbar) dp``
    by the trapezoid rule.  ``c_p`` may hold one set of weights per row."""
    dp = np.full(p.size, p[1] - p[0])
    dp[0] = dp[-1] = (p[1] - p[0]) / 2.0
    hbar, mu = params.hbar, params.mu
    phase = np.exp(1j * (np.multiply.outer(np.asarray(x, dtype=float), p)
                         - p**2 * t / (2.0 * mu)) / hbar)
    return (c_p * dp) @ phase.T / np.sqrt(2.0 * np.pi * hbar)


def density_by_kicked_momenta(x, x2, t, p, c_of_p, params, n_phi):
    """``rho(x, x2)`` at time ``t`` with each photon's recoil kept, from
    momentum integrals alone: for each pair of angles ``(phi, phi')`` on the
    uniform ``n_phi`` grid the photons move ``p`` to ``p - q1/2 + q2/2``, as
    in ``core``'s dispersions, so the weights are ``c_of_p(p - kick)``, ``kick
    = (hbar k0 / 2)(sin phi' - sin phi)``.  ``psi(x) psi*(x2)`` of each pair's
    packet (:func:`psi_by_momentum_quadrature`) is averaged over the pairs."""
    s = np.sin(2.0 * np.pi * np.arange(n_phi) / n_phi)
    rho = 0j
    for kicks in (params.hbar * params.k0 / 2.0) * np.subtract.outer(s, s):  # one phi'
        psi = psi_by_momentum_quadrature([x, x2], t, p, c_of_p(p - kicks[:, None]), params)
        rho += np.add.reduce(psi[:, 0] * np.conj(psi[:, 1]))
    return rho / n_phi**2
