"""Parameter plumbing: unit closure, frequency formulas, grids, and the
package's public names."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import recoilsim
from recoilsim import amplitudes, core, density, oracle, specfun
from recoilsim.core import (
    ConfigurationError,
    ModeGrid,
    ModelParams,
    omega_no_photon,
    omega_one_photon,
    omega_two_photon,
    recoil_momentum,
)

UNIT = ModelParams(omega0=1.0, mu=1.0, gamma=1e-3)  # hbar = c = 1, M = 4


class TestModelParams:
    def test_total_mass_is_four_reduced_masses_exactly(self):
        p = ModelParams(omega0=2.0, mu=0.3, gamma=0.01)
        assert p.cap_m == 4.0 * p.mu

    def test_natural_unit_closure_round_trips_bit_exactly(self):
        p = ModelParams(omega0=3.0, mu=1.5, gamma=0.01)
        assert p.wavelength * p.omega0 == 2.0 * np.pi * p.c
        assert p.k0 == p.omega0 / p.c

    @pytest.mark.parametrize("field,value", [
        ("omega0", 0.0), ("omega0", -1.0), ("mu", 0.0), ("gamma", -0.1),
    ])
    def test_nonpositive_physical_scales_rejected(self, field, value):
        kwargs = {"omega0": 1.0, "mu": 1.0, "gamma": 0.01}
        kwargs[field] = value
        with pytest.raises(ConfigurationError):
            ModelParams(**kwargs)

    def test_only_the_physics_are_fields(self):
        fields = dataclasses.fields(ModelParams)
        assert [f.name for f in fields] == ["omega0", "mu", "gamma"]
        assert all(f.default is dataclasses.MISSING for f in fields)

    @pytest.mark.parametrize("unit", ["hbar", "c"])
    def test_units_are_fixed_constants(self, unit):
        assert getattr(UNIT, unit) == 1.0
        with pytest.raises(TypeError):
            ModelParams(omega0=1.0, mu=1.0, gamma=0.01, **{unit: 2.0})

    def test_scenario_regime_gate_at_ten_linewidths(self):
        ModelParams(omega0=1.0, mu=1.0, gamma=0.1).require_scenario_regime()
        marginal = ModelParams(omega0=1.0, mu=1.0, gamma=0.2)
        with pytest.raises(ConfigurationError, match="below 10"):
            marginal.require_scenario_regime()


class TestCoupling:
    def test_square_root_frequency_scaling(self):
        grid = ModeGrid(k_values=np.array([1.0, 4.0]), phi_values=np.array([0.0]),
                        coupling_ref=0.05, reference_k=UNIT.k0)
        g1, g4 = grid.mode_coupling
        assert g4 / g1 == pytest.approx(2.0, rel=1e-14)

    def test_resonant_value_is_the_stored_reference(self, params):
        grid = ModeGrid.build(params, n_k=11, bandwidth_gammas=25.0)
        i_res = int(np.argmin(np.abs(grid.k_values - params.k0)))
        assert grid.mode_coupling[i_res] == pytest.approx(
            grid.coupling_ref, rel=1e-14)

    def test_nonpositive_wavenumber_rejected(self):
        for k in ([0.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(ConfigurationError):
                ModeGrid(k_values=np.array(k), phi_values=np.array([0.0]),
                         coupling_ref=0.05, reference_k=UNIT.k0)


class TestFrequencies:
    """Substitution oracles at hbar = mu = c = 1 (so M = 4)."""

    def test_no_photon_at_rest_is_resonance(self):
        assert omega_no_photon(0.0, UNIT) == UNIT.omega0

    def test_no_photon_substitution(self):
        # p^2/2mu + omega0 = 1/2 + 1 = 1.5
        assert omega_no_photon(1.0, UNIT) == pytest.approx(1.5, rel=1e-15)

    def test_no_photon_even_in_relative_momentum(self):
        assert omega_no_photon(0.7, UNIT) == omega_no_photon(-0.7, UNIT)

    def test_one_photon_no_kick_at_zero_angle(self):
        assert recoil_momentum(2.0, 0.0, UNIT) == 0.0
        assert omega_one_photon(2.0, 0.0, 0.3, UNIT) == pytest.approx(
            0.3**2 / 2.0 + 2.0, rel=1e-15)

    def test_one_photon_substitution(self):
        # k=1, phi=pi/2: kick = 1; (0-1)^2/8 + (0-1/2)^2/2 + 1 = 1.25
        assert omega_one_photon(1.0, np.pi / 2.0, 0.0, UNIT) == \
            pytest.approx(1.25, rel=1e-15)

    def test_one_photon_supplementary_angles_agree(self):
        phi = 0.4
        assert omega_one_photon(1.3, phi, 0.2, UNIT) == pytest.approx(
            omega_one_photon(1.3, np.pi - phi, 0.2, UNIT), rel=1e-15)

    def test_two_photon_no_recoil_is_sum_of_detunings(self):
        assert omega_two_photon(1.2, 0.0, 1.3, 0.0, 0.0, UNIT) == \
            pytest.approx(1.2 + 1.3 - 1.0, rel=1e-15)

    def test_two_photon_substitution(self):
        # k=k'=1, phi=pi/2, phi'=-pi/2: kicks +1, -1
        # (0-1+1)^2/8 + (0-1/2-1/2)^2/2 + 1+1-1 = 0.5 + 1 = 1.5
        assert omega_two_photon(1.0, np.pi / 2.0, 1.0, -np.pi / 2.0,
                                0.0, UNIT) == pytest.approx(1.5, rel=1e-15)

    def test_two_photon_swap_with_momentum_flip_invariant(self):
        a = omega_two_photon(1.1, 0.3, 0.9, 1.7, 0.25, UNIT)
        b = omega_two_photon(0.9, 1.7, 1.1, 0.3, -0.25, UNIT)
        assert a == pytest.approx(b, rel=1e-14)

    @given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.0, 6.28))
    def test_one_photon_matches_explicit_recoil_polynomial(self, p, k, phi):
        q = recoil_momentum(k, phi, UNIT)
        recoil = q**2 / (2.0 * UNIT.cap_m) + (-p * q + q**2 / 4.0) / (2.0 * UNIT.mu)
        base = p**2 / (2.0 * UNIT.mu) + UNIT.c * k
        assert omega_one_photon(k, phi, p, UNIT) == \
            pytest.approx(base + recoil, rel=1e-12, abs=1e-12)

    @given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.0, 6.28),
           st.floats(0.1, 3.0), st.floats(0.0, 6.28), st.floats(0.1, 10.0))
    def test_kinetic_energy_summed_atom_by_atom(self, p, k, phi, k2, phi2, mu):
        # Each atom, of mass 2 mu (half of M), moves on its own: atom 1 starts
        # at +p and takes the first photon's kick, atom 2 starts at -p and
        # takes the second's.  This route shares nothing with the centre of
        # mass plus relative form of core.py.
        params = ModelParams(omega0=1.0, mu=mu, gamma=1e-3)
        kick = -params.hbar * k * np.sin(phi)
        kick2 = -params.hbar * k2 * np.sin(phi2)

        def kinetic(p1, p2):
            return (p1**2 + p2**2) / (2.0 * (2.0 * params.mu)) / params.hbar

        cases = (
            (omega_no_photon(p, params), kinetic(p, -p), params.omega0),
            (omega_one_photon(k, phi, p, params), kinetic(p + kick, -p), params.c * k),
            (omega_two_photon(k, phi, k2, phi2, p, params), kinetic(p + kick, -p + kick2),
             params.c * (k + k2) - params.omega0))
        for got, kin, rest in cases:
            # Relative to the largest terms, as the sum may cancel to near 0.
            bound = 1e-12 * (kin + params.c * (k + k2) + params.omega0)
            assert abs(got - (kin + rest)) <= bound

    def test_pure_functions_repeat_identically(self):
        args = (1.3, 0.7, 0.2, UNIT)
        assert omega_one_photon(*args) == omega_one_photon(*args)


class TestModeGrid:
    def test_band_covers_requested_width(self, params):
        grid = ModeGrid.build(params, n_k=41, bandwidth_gammas=25.0)
        w = 25.0 * params.gamma / params.c
        assert grid.k_values[0] == pytest.approx(params.k0 - w, rel=1e-14)
        assert grid.k_values[-1] == pytest.approx(params.k0 + w, rel=1e-14)
        assert np.all(np.diff(grid.k_values) > 0)
        assert np.all(grid.k_values > 0)
        with pytest.raises(TypeError):  # the band has no default width
            ModeGrid.build(params, n_k=41)

    def test_band_reaching_nonpositive_k_rejected(self):
        p = ModelParams(omega0=1.0, mu=1.0, gamma=0.1)
        with pytest.raises(ConfigurationError):
            ModeGrid.build(p, n_k=11, bandwidth_gammas=11.0)

    def test_steps_below_the_ulp_floor_rejected(self):
        # Three wavenumbers over k0 +- gamma are gamma apart, and an ulp of
        # k0 + gamma, just above k0 = 1, is 2^-52.
        for ulps, accepted in ((1024, True), (1023, False)):
            p = ModelParams(omega0=1.0, mu=1.0, gamma=ulps * 2.0**-52)
            if accepted:
                assert ModeGrid.build(p, n_k=3, bandwidth_gammas=1.0).spacing == p.gamma
            else:
                with pytest.raises(ConfigurationError, match=(
                        r"^n_k = 3 wavenumbers over bandwidth_gammas = 1 at gamma = "
                        r"2\.27152e-13 lie 1023 ulp apart, below the 1024 ")):
                    ModeGrid.build(p, n_k=3, bandwidth_gammas=1.0)
        assert core.MIN_STEP_ULPS == 1024

    def test_unsorted_wavenumbers_rejected(self, params):
        for k in ([1.0, 0.5], [1.0, np.inf], [1.0, np.nan]):
            with pytest.raises(ConfigurationError):
                ModeGrid(k_values=np.array(k),
                         phi_values=np.array([0.0]),
                         coupling_ref=0.1, reference_k=1.0)

    @pytest.mark.parametrize("reference_k", [-1.0, 0.0, np.nan, np.inf])
    def test_reference_wavenumber_must_be_positive_and_finite(self, reference_k):
        with pytest.raises(ConfigurationError, match="reference_k"):
            ModeGrid(k_values=np.array([0.9, 1.1]), phi_values=np.array([0.0]),
                     coupling_ref=0.1, reference_k=reference_k)

    @pytest.mark.parametrize("phi", [-0.1, 2.0 * np.pi, np.nan, np.inf])
    def test_angles_outside_one_turn_rejected(self, phi):
        with pytest.raises(ConfigurationError, match=r"^phi_values must lie in \[0, 2\*pi\)$"):
            ModeGrid(k_values=np.array([0.9, 1.1]), phi_values=np.array([phi]),
                     coupling_ref=0.1, reference_k=1.0)

    def test_flat_coupling_profile_is_constant(self, params):
        grid = ModeGrid.build(params, n_k=15, bandwidth_gammas=25.0,
                              flat_coupling=True)
        assert np.all(grid.mode_coupling == grid.coupling_ref)

    def test_mode_flattening_is_k_major(self, params):
        grid = ModeGrid.build(params, n_k=3, bandwidth_gammas=25.0, n_phi=2)
        assert grid.n_modes == 6
        assert np.array_equal(grid.mode_k[:2], [grid.k_values[0]] * 2)
        assert np.array_equal(grid.mode_phi[:2], grid.phi_values)

    def test_arrays_are_immutable(self, params):
        grid = ModeGrid.build(params, n_k=5, bandwidth_gammas=25.0)
        with pytest.raises(ValueError):
            grid.k_values[0] = 0.0


def _mode_grid(k):
    return ModeGrid(k_values=k, phi_values=np.array([0.0]), coupling_ref=0.1,
                    reference_k=1.0)


# Each grid record with its uniformity rule, built from one array of points.
GRIDS = {
    "ModeGrid": _mode_grid,
    "SpatialGrid": lambda x: density.SpatialGrid(x_values=x),
}


@pytest.mark.parametrize("build", GRIDS.values(), ids=GRIDS.keys())
def test_nonuniform_steps_rejected(build):
    # spacing reads the first step, 0.1; the last is 0.8.
    with pytest.raises(ConfigurationError, match="uniform"):
        build(np.array([0.4, 0.5, 1.0, 1.8]))


@pytest.mark.parametrize("build", GRIDS.values(), ids=GRIDS.keys())
def test_steps_a_rounding_off_uniform_accepted(build):
    x = np.linspace(0.5, 1.5, 401)
    x[200] = np.nextafter(x[200], 2.0)
    assert build(x).spacing == x[1] - x[0]


def test_package_reexports_each_module_api():
    modules = [core, specfun, amplitudes, density, oracle]
    assert recoilsim.__all__ == [*(name for m in modules for name in m.__all__),
                                 "__version__"]
    for m in modules:
        for name in m.__all__:
            assert getattr(recoilsim, name) is getattr(m, name)
