"""Closed-form sector amplitudes: exact identities, golden limits, and a
brute-force lineshape comparison on a narrow line."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recoilsim.amplitudes import (
    AmplitudeState,
    amplitude_a,
    amplitude_b,
    amplitude_d,
    amplitude_d_infinity,
    closed_form_state,
)
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
    @settings(max_examples=100, deadline=None)
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
    def test_residues_cancel_at_time_zero(self):
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
        k = params.k0 + 1.5 * params.gamma / params.c
        phi, p, t = 0.9, 0.3, 2.0 / params.gamma
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
        rel = abs(d_t - lim.at_time(t)) / abs(lim.amplitude)
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


class TestTwoPhotonLimit:
    def test_on_resonance_modulus(self, params):
        g1, g2 = 2e-4, 3e-4
        lim = amplitude_d_infinity(params.k0, 0.0, params.k0, 0.0, 0.0, params,
                                   coupling=g1, coupling2=g2)
        expected = g1 * g2 * (2.0 / params.gamma) ** 2
        assert abs(lim.amplitude) == pytest.approx(expected, rel=1e-12)
        # Both detunings vanish, so the amplitude is negative real.
        assert lim.amplitude.real == pytest.approx(-expected, rel=1e-12)
        assert lim.amplitude.imag == 0.0

    def test_phase_carrier(self, params, detuned_pair):
        _, k1, k2, c1, c2 = detuned_pair
        lim = amplitude_d_infinity(k1, 0.0, k2, 0.3, 0.2, params,
                                   coupling=c1, coupling2=c2)
        assert lim.at_time(0.0) == lim.amplitude
        assert type(lim.at_time(0.0)) is complex
        t = 7.0 / params.gamma
        assert abs(lim.at_time(t)) == pytest.approx(abs(lim.amplitude), rel=1e-13)
        expected = lim.amplitude * np.exp(-1j * lim.detuning * t)
        assert lim.at_time(t) == pytest.approx(expected, rel=1e-13)
        # Broadcasts over t, as every amplitude function does.
        times = np.array([[0.0, t], [2.0 * t, 3.0 * t]])
        scalars = np.array([[lim.at_time(s) for s in row] for row in times])
        assert lim.at_time(times) == pytest.approx(scalars, rel=1e-14)

    def test_recoil_free_kicks_make_both_forms_identical(self, params, detuned_pair):
        # phi = 0 means transverse emission: zero momentum kick, so the
        # Doppler linearization drops nothing.
        _, k1, k2, c1, c2 = detuned_pair
        exact = amplitude_d_infinity(k1, 0.0, k2, 0.0, 0.0, params,
                                     coupling=c1, coupling2=c2)
        doppler = amplitude_d_infinity(k1, 0.0, k2, 0.0, 0.0, params,
                                       coupling=c1, coupling2=c2,
                                       neglect_recoil=True)
        assert exact.amplitude == pytest.approx(doppler.amplitude, rel=1e-14)
        assert exact.detuning == doppler.detuning

    def test_doppler_form_differs_once_kicks_are_on(self, params, detuned_pair):
        _, k1, k2, c1, c2 = detuned_pair
        exact = amplitude_d_infinity(k1, 1.0, k2, 0.5, 0.5, params,
                                     coupling=c1, coupling2=c2)
        doppler = amplitude_d_infinity(k1, 1.0, k2, 0.5, 0.5, params,
                                       coupling=c1, coupling2=c2,
                                       neglect_recoil=True)
        assert exact.amplitude != doppler.amplitude

    def test_lorentzian_linewidth(self, params):
        """Sweeping one photon across resonance with the other held at k0
        traces |D_inf|^2 through a Lorentzian of FWHM gamma (in ck units)."""
        det = np.linspace(-3.0, 3.0, 1201) * params.gamma
        k = (params.omega0 + det) / params.c
        mods = np.array([
            abs(amplitude_d_infinity(kk, 0.0, params.k0, 0.0, 0.0, params,
                                     coupling=1.0, coupling2=1.0).amplitude) ** 2
            for kk in k
        ])
        half = mods.max() / 2.0
        above = mods >= half
        lo, hi = np.flatnonzero(above)[0], np.flatnonzero(above)[-1]

        def crossing(i, j):
            # linear interpolation between samples straddling the half-max
            f = (half - mods[i]) / (mods[j] - mods[i])
            return det[i] + f * (det[j] - det[i])

        fwhm = crossing(hi + 1, hi) - crossing(lo - 1, lo)
        assert fwhm == pytest.approx(params.gamma, rel=1e-2)


class TestClosedFormState:
    def test_initial_state(self, params):
        grid = ModeGrid.build(params, n_k=25, bandwidth_gammas=25.0)
        state = closed_form_state(grid, 0.0, 0.0, params)
        assert state.a_val == 1.0
        assert np.all(state.b_vals == 0.0)
        scale = float(np.max(grid.mode_coupling)) ** 2 * (2.0 / params.gamma) ** 2
        assert np.max(np.abs(state.d_vals)) <= 1e-12 * scale

    def test_norm_lands_in_the_two_photon_sector(self, params):
        # Ten lifetimes in, essentially everything that the finite band
        # captures sits in the two-photon sector.
        grid = ModeGrid.build(params, n_k=401, bandwidth_gammas=50.0)
        state = closed_form_state(grid, 0.0, 10.0 / params.gamma, params)
        na, nb, nd = state.sector_norms
        assert nd / (na + nb + nd) >= 0.999

    def test_mismatched_two_photon_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            AmplitudeState(p=0.0, t=0.0, a_val=1.0 + 0j,
                           b_vals=np.zeros(3, dtype=complex),
                           d_vals=np.zeros((2, 2), dtype=complex))

    def test_sampled_sectors_are_frozen(self, params):
        grid = ModeGrid.build(params, n_k=25, bandwidth_gammas=25.0)
        state = closed_form_state(grid, 0.0, 1.0, params)
        with pytest.raises(ValueError):
            state.b_vals[0] = 1.0
        with pytest.raises(ValueError):
            state.d_vals[0, 0] = 1.0


class TestRelativeMomentum:
    """On modes that give no kick (phi = 0), a relative momentum ``p`` only
    adds ``p^2 / 2 mu`` to every frequency: each amplitude at ``p`` is its
    value at 0 times ``e^{-i p^2 t / 2 mu}``, and the long-time limit keeps
    its amplitude and moves its detuning by ``p^2 / 2 mu``."""

    # Each frequency is rounded to an ulp of omega0, and its differences are
    # divided by gamma / 2.  Over 20 000 draws the worst miss was 8e-14 (the
    # limit's amplitude) and 7.5e-15 for the others: over a thousandfold margin.
    TOL = 1e-10

    @given(p=st.floats(-2.0, 2.0), t=st.floats(0.0, 500.0),
           k=st.floats(-20.0, 20.0), k2=st.floats(-20.0, 20.0))
    @settings(max_examples=100, deadline=None)
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
        moved, rest = (amplitude_d_infinity(k, 0.0, k2, 0.0, q, params,
                                            coupling=g, coupling2=g) for q in (p, 0.0))
        assert abs(moved.amplitude - rest.amplitude) <= self.TOL * abs(rest.amplitude)
        assert moved.detuning - rest.detuning == pytest.approx(
            p * p / (2.0 * params.mu * params.hbar), abs=self.TOL * params.gamma)


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
