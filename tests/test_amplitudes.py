"""Closed-form sector amplitudes: exact identities, golden limits, and a
brute-force lineshape comparison on a narrow line."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
from recoilsim.amplitudes import (
    amplitude_a,
    amplitude_b,
    amplitude_d,
    amplitude_d_infinity,
)
from recoilsim import amplitudes
from recoilsim.amplitudes import _pole_triple
from recoilsim.core import (
    ConfigurationError,
    ModeGrid,
    ModelParams,
    omega_no_photon,
    omega_one_photon,
    omega_two_photon,
)
from recoilsim.oracle import OdeRun, integrate_amplitudes


@pytest.fixture(scope="module")
def detuned_pair(params):
    """Two transverse modes detuned symmetrically by +-2 gamma, with the
    couplings a standard 401-mode grid would assign them."""
    grid = ModeGrid.build(params, n_k=401, bandwidth_gammas=50.0)
    k1 = params.k0 + 2.0 * params.gamma / params.c
    k2 = params.k0 - 2.0 * params.gamma / params.c
    c2, c1 = dataclasses.replace(grid, k_values=[k2, k1]).mode_coupling
    return grid, k1, k2, float(c1), float(c2)


class TestNoPhotonAmplitude:
    def test_initial_condition_is_c_p_exactly(self, params):
        assert amplitude_a(0.7, 0.0, params) == 1.0

    def test_modulus_decays_at_the_full_rate(self, params):
        t = 1.0 / params.gamma
        a = amplitude_a(2.0, t, params)
        assert abs(a) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_kinetic_phase_by_substitution(self):
        # hbar = mu = 1, p = 2  ->  alpha = p^2/2 = 2 exactly.
        unit = ModelParams(omega0=1.0, mu=1.0, gamma=1e-3)
        t = 0.7
        expected = np.exp(-(2.0j + 1e-3) * t)
        assert amplitude_a(2.0, t, unit) == pytest.approx(expected, rel=1e-14)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ConfigurationError):
            amplitude_a(0.0, -0.1, params)

    def test_broadcasts_over_time(self, params):
        t = np.linspace(0.0, 5.0 / params.gamma, 7)
        a = amplitude_a(1.0, t, params)
        assert a.shape == (7,)
        assert a[0] == 1.0 + 0.0j

    @given(st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=examples(100), deadline=None)
    def test_modulus_is_monotone_nonincreasing(self, params, t1, t2):
        lo, hi = sorted((t1, t2))
        a_lo = amplitude_a(0.3, lo, params)
        a_hi = amplitude_a(0.3, hi, params)
        assert abs(a_hi) <= abs(a_lo) <= 1.0


class TestOnePhotonAmplitude:
    def test_starts_at_zero_exactly(self, params):
        b = amplitude_b(params.k0, 0.3, 0.5, 0.0, params, coupling=0.01)
        assert b == 0.0 + 0.0j

    def test_random_arguments_all_start_at_zero(self, params):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            k = params.k0 * (1.0 + 0.1 * (rng.random() - 0.5))
            phi = 2.0 * np.pi * rng.random()
            p = rng.standard_normal()
            b = amplitude_b(k, phi, p, 0.0, params, coupling=0.02)
            assert b == 0.0 + 0.0j

    def test_resonant_closed_form_modulus(self, params):
        # k = k0, phi = 0, p = 0: alpha = beta = 0, so
        # |B| = |g| e^{-gamma t/2} (1 - e^{-gamma t/2}) * 2/gamma.
        g = 3e-4
        t = 2.0 * np.log(2.0) / params.gamma
        b = amplitude_b(params.k0, 0.0, 0.0, t, params, coupling=g)
        half = np.exp(-params.gamma * t / 2.0)    # = 1/2 at this t
        expected = g * half * (1.0 - half) * 2.0 / params.gamma
        assert abs(b) == pytest.approx(expected, rel=1e-12)

    def test_late_time_bound_off_resonance(self, params):
        # At gamma*t = 20 only e^{-gamma t/2} = e^{-10} survives against the
        # e^{-gamma t} source term, so |B| is bounded by the single-pole tail.
        g = 3e-4
        k = params.k0 + 5.0 * params.gamma / params.c
        t = 20.0 / params.gamma
        beta = 5.0 * params.gamma
        denom = abs(1j * (0.0 - beta) + params.gamma / 2.0)
        b = amplitude_b(k, 0.0, 0.0, t, params, coupling=g)
        assert abs(b) <= g * np.exp(-10.0) * (1.0 + 1e-4) / denom

    def test_vanishes_at_very_long_times(self, params):
        b = amplitude_b(params.k0, 0.0, 0.0, 100.0 / params.gamma, params,
                        coupling=3e-4)
        assert abs(b) < 1e-20

    def test_negative_time_rejected(self, params):
        with pytest.raises(ConfigurationError):
            amplitude_b(params.k0, 0.0, 0.0, -1.0, params, coupling=0.01)


class TestPoleTripleIdentity:
    def test_residues_cancel_at_t_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            alpha, beta, delta = 0.1 * rng.standard_normal(3)
            gamma = 10.0 ** rng.uniform(-4, -1)
            triple = _pole_triple(alpha, beta, delta, gamma, 0.0)
            # Scale by the largest residue so the check is meaningful for
            # narrow lines where each term is O(1/gamma^2).
            b_ = 1j * (alpha - beta) + gamma / 2.0
            a_ = 1j * (delta - beta) - gamma / 2.0
            scale = max(1.0 / abs((b_ - a_) * a_), 1.0 / abs(a_ * b_))
            assert abs(triple) <= 1e-13 * scale

    def test_identical_modes_give_twice_one_triple(self, params):
        # At p = 0 both emission orders pass through one one-photon frequency;
        # elsewhere the second atom's is the first's at -p.
        k = params.k0 + 1.5 * params.gamma / params.c
        phi, p, t = 0.9, 0.0, 2.0 / params.gamma
        g = 2e-4
        alpha = omega_no_photon(p, params) - params.omega0
        beta = omega_one_photon(k, phi, p, params) - params.omega0
        delta = omega_two_photon(k, phi, k, phi, p, params) - params.omega0
        expected = -g * g * 2.0 * _pole_triple(alpha, beta, delta, params.gamma, t)
        got = amplitude_d(k, phi, k, phi, p, t, params, coupling=g, coupling2=g)
        assert got == pytest.approx(expected, rel=1e-14)


class TestTwoPhotonAmplitude:
    def test_starts_near_zero_at_machine_scale(self, params, detuned_pair):
        _, k1, k2, c1, c2 = detuned_pair
        d0 = amplitude_d(k1, 0.0, k2, 0.7, 0.4, 0.0, params,
                         coupling=c1, coupling2=c2)
        scale = c1 * c2 * (2.0 / params.gamma) ** 2
        assert abs(d0) <= 1e-12 * scale

    def test_settles_onto_the_product_limit(self, params, detuned_pair):
        """The damped poles die off by gamma*t = 30, leaving the two-factor
        Lorentzian product (phase included via the limit's detuning)."""
        _, k1, k2, c1, c2 = detuned_pair
        t = 30.0 / params.gamma
        d_t = amplitude_d(k1, 0.0, k2, 0.0, 0.0, t, params,
                          coupling=c1, coupling2=c2)
        lim = amplitude_d_infinity(k1, 0.0, k2, 0.0, 0.0, params,
                                   coupling=c1, coupling2=c2)
        delta = omega_two_photon(k1, 0.0, k2, 0.0, 0.0, params) - params.omega0
        rel = abs(d_t - lim * np.exp(-1j * delta * t)) / abs(lim)
        assert rel <= 1e-6

    def test_mode_order_irrelevant_at_zero_relative_momentum(self, params, detuned_pair):
        _, k1, k2, c1, c2 = detuned_pair
        t = 3.0 / params.gamma
        fwd = amplitude_d(k1, 0.4, k2, 1.1, 0.0, t, params,
                          coupling=c1, coupling2=c2)
        rev = amplitude_d(k2, 1.1, k1, 0.4, 0.0, t, params,
                          coupling=c2, coupling2=c1)
        assert fwd == pytest.approx(rev, rel=1e-13)

    def test_broadcasts_over_time(self, params, detuned_pair):
        _, k1, k2, c1, c2 = detuned_pair
        t = np.linspace(0.0, 10.0 / params.gamma, 5)
        d = amplitude_d(k1, 0.0, k2, 0.0, 0.0, t, params,
                        coupling=c1, coupling2=c2)
        assert d.shape == (5,)


class TestLongTimeLimit:
    def test_on_resonance_modulus(self, params):
        g1, g2 = 2e-4, 3e-4
        lim = amplitude_d_infinity(params.k0, 0.0, params.k0, 0.0, 0.0, params,
                                   coupling=g1, coupling2=g2)
        expected = g1 * g2 * (2.0 / params.gamma) ** 2
        assert type(lim) is complex
        assert abs(lim) == pytest.approx(expected, rel=1e-12)
        # Both detunings vanish, so the amplitude is negative real.
        assert lim.real == pytest.approx(-expected, rel=1e-12)
        assert lim.imag == 0.0

    def test_broadcasts_like_its_scalar_calls(self, params, detuned_pair):
        # Kicks on (phi != 0) and a relative momentum, over a (2, 3) mode
        # grid of first photons against a (3,) row of second photons.
        _, k1, k2, c1, c2 = detuned_pair
        k = np.array([[k1], [k2]])
        phi = np.array([0.0, 0.7, 2.0])
        k_2 = np.array([k2, params.k0, k1])
        lim = amplitude_d_infinity(k, phi, k_2, 0.4, 0.3, params,
                                   coupling=c1, coupling2=c2)
        assert lim.shape == (2, 3)
        scalars = np.array([[amplitude_d_infinity(float(k[i, 0]), float(phi[j]),
                                                  float(k_2[j]), 0.4, 0.3, params,
                                                  coupling=c1, coupling2=c2)
                             for j in range(3)] for i in range(2)])
        assert lim == pytest.approx(scalars, rel=1e-14)

    def test_lorentzian_linewidth(self, params):
        """Sweeping one photon across resonance with the other held at k0
        traces |D_inf|^2 through a Lorentzian of FWHM gamma (in ck units)."""
        det = np.linspace(-3.0, 3.0, 1201) * params.gamma
        k = (params.omega0 + det) / params.c
        mods = np.abs(amplitude_d_infinity(k, 0.0, params.k0, 0.0, 0.0, params,
                                           coupling=1.0, coupling2=1.0)) ** 2
        half = mods.max() / 2.0
        above = mods >= half
        lo, hi = np.flatnonzero(above)[0], np.flatnonzero(above)[-1]

        def crossing(i, j):
            # linear interpolation between samples straddling the half-max
            f = (half - mods[i]) / (mods[j] - mods[i])
            return det[i] + f * (det[j] - det[i])

        fwhm = crossing(hi + 1, hi) - crossing(lo - 1, lo)
        assert fwhm == pytest.approx(params.gamma, rel=1e-2)


@st.composite
def _kicked_pairs(draw):
    """An ordered photon pair with both kicks on, a relative momentum away
    from 0, a mass, and couplings: ``(k, phi, k2, phi2, p, params, g, g2)``.
    The kicks and the momentum are large enough that putting the second
    atom's intermediate state at ``p - q2/2`` moves its frequency by
    ``p q2 / mu``, at least 3e-3, far beyond rounding."""
    params = ModelParams(omega0=1.0, gamma=0.01, mu=draw(st.floats(1.0, 20.0)))
    k, k2 = (params.k0 + draw(st.floats(-20.0, 20.0)) * params.gamma / params.c
             for _ in range(2))
    # |sin phi| >= 0.3, kicks of either sign.
    phi, phi2 = (draw(st.floats(0.31, np.pi - 0.31)) + draw(st.sampled_from([0.0, np.pi]))
                 for _ in range(2))
    p = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 2.0))
    g, g2 = (draw(st.floats(1e-4, 1e-2)) for _ in range(2))
    return k, phi, k2, phi2, p, params, g, g2


class TestAtomExchange:
    """With each atom's energy summed, the two atoms are interchangeable:
    the first atom emits the first photon, the second atom the second."""

    # The closed forms divide frequency differences, each rounded to an ulp
    # of omega0, by gamma / 2, and carry phases delta t of up to about 5e3
    # rad.  Over 20 000 draws the worst exchange miss was 4.7e-13 of the
    # bound |g g2| (4 / gamma)^2 on |D| (4.3e-14 for the limit), and no
    # late-time miss passed the damped terms' bound.  With the second atom's
    # intermediate at p - q2/2, the misses were 0.12 to 0.25 of that bound.
    TOL = 1e-10

    @given(_kicked_pairs())
    @settings(max_examples=examples(100), deadline=None)
    def test_energy_closes_over_the_frequencies_amplitude_d_reads(self, pair):
        k, phi, k2, phi2, p, params, g, g2 = pair
        with mock.patch.object(amplitudes, "omega_one_photon",
                               wraps=omega_one_photon) as one_photon:
            amplitude_d(k, phi, k2, phi2, p, 1.0 / params.gamma, params,
                        coupling=g, coupling2=g2)
        beta1, beta2 = (omega_one_photon(*call.args, **call.kwargs) - params.omega0
                        for call in one_photon.call_args_list)
        alpha = omega_no_photon(p, params) - params.omega0
        delta = omega_two_photon(k, phi, k2, phi2, p, params) - params.omega0
        # Each frequency is rounded to an ulp of about omega0.
        assert abs((beta1 + beta2) - (alpha + delta)) <= 1e-14 * 4.0 * params.omega0

    @given(_kicked_pairs(), st.floats(0.0, 50.0))
    @settings(max_examples=examples(100), deadline=None)
    def test_exchanging_the_atoms_changes_nothing(self, pair, gt):
        k, phi, k2, phi2, p, params, g, g2 = pair
        t = gt / params.gamma
        bound = abs(g * g2) * (4.0 / params.gamma) ** 2
        d = amplitude_d(k, phi, k2, phi2, p, t, params, coupling=g, coupling2=g2)
        swapped = amplitude_d(k2, phi2, k, phi, -p, t, params, coupling=g2, coupling2=g)
        assert abs(d - swapped) <= self.TOL * bound
        limit = amplitude_d_infinity(k, phi, k2, phi2, p, params,
                                     coupling=g, coupling2=g2)
        swapped = amplitude_d_infinity(k2, phi2, k, phi, -p, params,
                                       coupling=g2, coupling2=g)
        assert abs(limit - swapped) <= self.TOL * bound

    @given(_kicked_pairs(), st.floats(20.0, 60.0))
    @settings(max_examples=examples(100), deadline=None)
    def test_late_times_reach_the_product_limit(self, pair, gt):
        # D(t) e^{i delta t} - D_inf is the four damped terms of the two
        # triples.  With |a|, |b| >= gamma / 2 and |R| >= gamma they are at
        # most |g g2| (4 e^{-gamma t} + 8 e^{-gamma t / 2}) / gamma^2.
        k, phi, k2, phi2, p, params, g, g2 = pair
        t = gt / params.gamma
        delta = omega_two_photon(k, phi, k2, phi2, p, params) - params.omega0
        d = amplitude_d(k, phi, k2, phi2, p, t, params, coupling=g, coupling2=g2)
        limit = amplitude_d_infinity(k, phi, k2, phi2, p, params,
                                     coupling=g, coupling2=g2)
        damped = abs(g * g2) * (4.0 * np.exp(-gt) + 8.0 * np.exp(-gt / 2.0)) \
            / params.gamma ** 2
        bound = abs(g * g2) * (4.0 / params.gamma) ** 2
        assert abs(d * np.exp(1j * delta * t) - limit) <= damped + self.TOL * bound


def _on_grid(grid, t, params):
    """Every closed-form amplitude on a mode grid at time ``t``: A, the B of
    each mode, and the D of each ordered mode pair."""
    mk, mphi, g = grid.mode_k, grid.mode_phi, grid.mode_coupling
    a = amplitude_a(0.0, t, params)
    b = amplitude_b(mk, mphi, 0.0, t, params, coupling=g)
    d = amplitude_d(mk[:, None], mphi[:, None], mk[None, :], mphi[None, :],
                    0.0, t, params, coupling=g[:, None], coupling2=g[None, :])
    return a, b, d


class TestOnAModeGrid:
    def test_initial_state(self, params):
        grid = ModeGrid.build(params, n_k=25, bandwidth_gammas=25.0)
        a, b, d = _on_grid(grid, 0.0, params)
        assert a == 1.0
        assert np.all(b == 0.0)
        assert d.shape == (grid.n_modes, grid.n_modes)
        scale = float(np.max(grid.mode_coupling)) ** 2 * (2.0 / params.gamma) ** 2
        assert np.max(np.abs(d)) <= 1e-12 * scale

    def test_norm_lands_in_the_two_photon_sector(self, params):
        # Ten lifetimes in, essentially everything that the finite band
        # captures sits in the two-photon sector.  B counts twice, as either
        # atom may have emitted and at p = 0 their B are equal; D is summed
        # over ordered pairs.
        grid = ModeGrid.build(params, n_k=401, bandwidth_gammas=50.0)
        a, b, d = _on_grid(grid, 10.0 / params.gamma, params)
        na = abs(a) ** 2
        nb = 2.0 * float(np.add.reduce(np.abs(b) ** 2))
        nd = float(np.add.reduce(np.abs(d).ravel() ** 2))
        assert nd / (na + nb + nd) >= 0.999


class TestRelativeMomentum:
    """On modes that give no kick (phi = 0), a relative momentum ``p`` only
    adds ``p^2 / 2 mu`` to every frequency: each amplitude at ``p`` is its
    value at 0 times ``e^{-i p^2 t / 2 mu}``, the long-time limit's full
    value ``D_inf e^{-i delta t}`` included."""

    # Each frequency is rounded to an ulp of omega0, and its differences are
    # divided by gamma / 2.  Over 20 000 draws the worst miss was 1.2e-13 (the
    # limit with its phase) and 7.5e-15 for the others: over a thousandfold margin.
    TOL = 1e-10

    @given(p=st.floats(-2.0, 2.0), t=st.floats(0.0, 500.0),
           k=st.floats(-20.0, 20.0), k2=st.floats(-20.0, 20.0))
    @settings(max_examples=examples(100), deadline=None)
    def test_momentum_is_a_phase(self, params, p, t, k, k2):
        k, k2 = (params.k0 + x * params.gamma / params.c for x in (k, k2))
        g = 1e-3
        phase = np.exp(-1j * p * p / (2.0 * params.mu * params.hbar) * t)
        # Each amplitude relative to its own bound: |A| <= 1, |B| <= 4 g /
        # gamma and |D| <= (4 g / gamma)^2.
        pairs = [
            (1.0, amplitude_a(p, t, params), amplitude_a(0.0, t, params)),
            (4.0 * g / params.gamma,
             amplitude_b(k, 0.0, p, t, params, coupling=g),
             amplitude_b(k, 0.0, 0.0, t, params, coupling=g)),
            ((4.0 * g / params.gamma) ** 2,
             amplitude_d(k, 0.0, k2, 0.0, p, t, params, coupling=g, coupling2=g),
             amplitude_d(k, 0.0, k2, 0.0, 0.0, t, params, coupling=g, coupling2=g)),
        ]
        for scale, at_p, at_zero in pairs:
            assert abs(at_p - at_zero * phase) <= self.TOL * scale
        moved, rest = (
            amplitude_d_infinity(k, 0.0, k2, 0.0, q, params, coupling=g, coupling2=g)
            * np.exp(-1j * (omega_two_photon(k, 0.0, k2, 0.0, q, params)
                            - params.omega0) * t)
            for q in (p, 0.0))
        assert abs(moved - rest * phase) <= self.TOL * abs(rest)


class TestAgainstBruteForce:
    def test_no_photon_amplitude_matches_integration(self):
        """Half a lifetime on a narrow line (gamma/omega0 = 1e-6): closed-form
        A(t) vs the propagated one, amplitude and phase together.  The oracle
        runs at relative momentum 0; on its kick-free modes any other momentum
        multiplies both by the same phase (:class:`TestRelativeMomentum`).

        The sqrt(k/k0) coupling slope pulls the discrete line by an amount
        proportional to bandwidth * gamma / omega0; the narrow line keeps
        that deep below the 1e-3 budget while the 800-gamma window keeps the
        band-truncation error small too.  Runs ~15 s.
        """
        params = ModelParams(omega0=1.0, mu=10.0, gamma=1e-6)
        grid = ModeGrid.build(params, n_k=401, bandwidth_gammas=800.0)
        t_final = 0.5 / params.gamma
        run = OdeRun(params=params, grid=grid, t_span=(0.0, t_final),
                     sample_times=np.linspace(0.0, t_final, 11), tol=1e-8)
        traj = integrate_amplitudes(run)
        closed = amplitude_a(0.0, t_final, params)
        rel = abs(closed - traj.a[-1]) / abs(traj.a[-1])
        assert rel <= 1e-3
