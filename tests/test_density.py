"""Wave packets, the decoherence factor, density assembly, and sweeps."""

import itertools
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from recoilsim.core import ConfigurationError, ModelParams, MomentumAmplitude
from recoilsim.density import (
    CoherenceLength,
    DensityGrid,
    GaussianPacket,
    ModelValidityError,
    Scenario,
    SpatialGrid,
    ValidityWarning,
    coherence_length,
    decoherence_factor,
    psi_free,
    reduced_density,
    scenario_sweep,
    worker_count,
)

# Separation at which J0^2 of pi*dx/lambda first reaches e^{-1}, in units of
# the wavelength; the saturation value of the emission coherence length.
EINV_SEPARATION = 0.42202459528465086
J0_AT_1 = 0.7651976865579666
J0_AT_4PI = 0.1575073924818334


def _norm_by_trapezoid(f_abs2, x):
    return float(np.trapezoid(f_abs2, x))


class TestGaussianPacket:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            GaussianPacket(center=0.0, width=0.0)
        with pytest.raises(ConfigurationError):
            GaussianPacket(center=0.0, width=-1.0)
        with pytest.raises(ConfigurationError):
            GaussianPacket(center=np.inf, width=1.0)

    def test_initial_norm(self):
        pk = GaussianPacket(center=0.7, width=1.3)
        x = np.linspace(-15.0, 16.0, 4001)
        assert _norm_by_trapezoid(np.abs(pk.value(x)) ** 2, x) == pytest.approx(
            1.0, abs=1e-10)

    def test_evolution_starts_from_the_static_profile(self, params):
        pk = GaussianPacket(center=-0.4, width=0.8)
        x = np.linspace(-5.0, 5.0, 101)
        assert np.allclose(pk.evolved(x, 0.0, params), pk.value(x), rtol=1e-14)

    def test_spread_follows_the_free_gaussian_law(self, params):
        pk = GaussianPacket(center=0.0, width=2.0)
        assert pk.sigma(0.0, params) == 2.0
        t = 700.0
        drift = params.hbar * t / (2.0 * params.mu * pk.width)
        assert pk.sigma(t, params) == pytest.approx(np.hypot(2.0, drift), rel=1e-15)

    def test_norm_is_conserved_under_evolution(self, params):
        pk = GaussianPacket(center=0.0, width=np.pi)  # lambda/2 for omega0 = 1
        t = 3.0 / params.gamma
        sigma = pk.sigma(t, params)
        x = np.linspace(-8.0 * sigma, 8.0 * sigma, 4001)
        norm = _norm_by_trapezoid(np.abs(pk.evolved(x, t, params)) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_variance_matches_the_closed_form(self, params):
        pk = GaussianPacket(center=0.0, width=np.pi)
        t = 3.0 / params.gamma
        sigma = pk.sigma(t, params)
        x = np.linspace(-8.0 * sigma, 8.0 * sigma, 4001)
        prob = np.abs(pk.evolved(x, t, params)) ** 2
        var = np.trapezoid(x**2 * prob, x) / np.trapezoid(prob, x)
        assert var == pytest.approx(sigma**2, rel=1e-6)

    def test_momentum_profile_round_trips_through_quadrature(self, params):
        """The closed-form evolution and the explicit momentum integral are
        two routes to the same state."""
        pk = GaussianPacket(center=0.3 * params.wavelength, width=np.pi)
        sigma_p = params.hbar / (2.0 * pk.width)
        p = np.linspace(-12.0 * sigma_p, 12.0 * sigma_p, 1601)
        spec = MomentumAmplitude(p_values=p, c_p=pk.momentum_amplitude(p, params))
        t = 2.0 / params.gamma
        x = np.linspace(-2.0, 2.0, 9) * params.wavelength
        via_quadrature = psi_free(x, t, spec, params)
        closed = pk.evolved(x, t, params)
        assert np.max(np.abs(via_quadrature - closed)) <= 1e-10


class TestScenario:
    def test_single(self):
        sc = Scenario.single(width=1.0, center=0.5)
        assert len(sc.packets) == 1
        assert sc.weights == (1.0,)
        assert sc.packets[0].center == 0.5

    def test_superposition_weights_carry_the_overlap(self):
        a, d = 1.0, 2.0
        sc = Scenario.superposition(center_offset=a, width=d)
        s = np.exp(-(a**2) / (2.0 * d**2))
        assert sc.weights[0] == sc.weights[1]
        assert sc.weights[0] == pytest.approx(1.0 / np.sqrt(2.0 * (1.0 + s)), rel=1e-15)
        assert sc.packets[0].center == a
        assert sc.packets[1].center == -a

    @pytest.mark.parametrize("a, d, s", [(1e200, 1.0, 0.0), (1.0, 1e-200, 0.0),
                                         (1e-200, 1e-200, np.exp(-0.5))])
    def test_superposition_overlap_where_the_squares_leave_the_float_range(
            self, a, d, s):
        sc = Scenario.superposition(center_offset=a, width=d)
        assert sc.weights[0] == pytest.approx(1.0 / np.sqrt(2.0 * (1.0 + s)), rel=1e-15)

    def test_superposition_is_unit_normalized_even_when_packets_overlap(self, params):
        lam = params.wavelength
        sc = Scenario.superposition(center_offset=lam / 4.0, width=lam / 2.0)
        x = np.linspace(-8.0 * lam, 8.0 * lam, 8001)
        norm = _norm_by_trapezoid(np.abs(psi_free(x, 0.0, sc, params)) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario.superposition(center_offset=0.0, width=1.0)
        with pytest.raises(ConfigurationError):
            Scenario.superposition(center_offset=1.0, width=0.0)
        with pytest.raises(ConfigurationError):
            Scenario(packets=(GaussianPacket(0.0, 1.0),), weights=(0.5, 0.5))
        with pytest.raises(ConfigurationError):
            Scenario(packets=(), weights=())

    def test_max_sigma(self, params):
        sc = Scenario(packets=(GaussianPacket(0.0, 1.0), GaussianPacket(0.0, 3.0)),
                      weights=(0.5, 0.5))
        t = 100.0
        assert sc.max_sigma(t, params) == max(
            pk.sigma(t, params) for pk in sc.packets)

    def test_psi_free_rejects_unknown_specs(self, params):
        # A bare packet reaches psi_free only inside a Scenario; the sweep,
        # which needs a Scenario's spread, refuses a momentum profile too,
        # and before it looks at the times.
        packet = GaussianPacket(0.0, 1.0)
        profile = MomentumAmplitude(p_values=np.array([-1.0, 0.0, 1.0]),
                                    c_p=np.array([0.0, 1.0, 0.0]))
        grid = SpatialGrid.linspace(-10.0, 10.0, 201)
        for spec in ("not a packet", packet, profile):
            message = f"unsupported wave-packet specification: {type(spec).__name__}$"
            if spec is not profile:
                with pytest.raises(ConfigurationError, match=message):
                    psi_free(0.0, 0.0, spec, params)
            with pytest.raises(ConfigurationError, match=message):
                scenario_sweep(spec, [np.inf], False, grid, params)


class TestDecoherenceFactor:
    def test_diagonal_is_exactly_one(self, params):
        for x in (0.0, 1.3, -20.0):
            assert decoherence_factor(x, x, params) == 1.0

    def test_depends_only_on_separation_and_is_symmetric(self, params):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, x2, shift = 10.0 * rng.standard_normal(3)
            f = decoherence_factor(x, x2, params)
            assert decoherence_factor(x2, x, params) == f
            assert decoherence_factor(x + shift, x2 + shift, params) == \
                pytest.approx(f, rel=1e-12)

    def test_bounded_between_zero_and_one(self, params):
        dx = np.linspace(-40.0, 40.0, 2001)
        f = decoherence_factor(dx, 0.0, params)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)

    def test_golden_value_at_arg_one(self, params):
        # Separation lambda/pi makes the Bessel argument exactly 1.
        dx = params.wavelength / np.pi
        assert decoherence_factor(dx, 0.0, params) == pytest.approx(
            J0_AT_1**2, rel=1e-12)

    def test_first_null(self, params):
        dx = 2.4048255576957727686 * params.wavelength / np.pi
        assert decoherence_factor(dx, 0.0, params) < 1e-15

    def test_e_inverse_separation_constant(self, params):
        dx = EINV_SEPARATION * params.wavelength
        assert decoherence_factor(dx, 0.0, params) == pytest.approx(
            np.exp(-1.0), rel=1e-10)

    def test_broadcasts_to_matrices(self, params):
        x = np.linspace(-1.0, 1.0, 5)
        f = decoherence_factor(x[:, None], x[None, :], params)
        assert f.shape == (5, 5)
        assert np.allclose(f, f.T, rtol=0, atol=0)


class TestSpatialGrid:
    def test_linspace_and_properties(self):
        g = SpatialGrid.linspace(-2.0, 2.0, 11)
        assert g.n == 11
        assert g.spacing == pytest.approx(0.4, rel=1e-15)
        assert g.extent == pytest.approx(4.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpatialGrid.linspace(1.0, 1.0, 11)
        with pytest.raises(ConfigurationError):
            SpatialGrid.linspace(0.0, 1.0, 1)
        with pytest.raises(ConfigurationError):
            SpatialGrid(x_values=np.array([0.0, 0.5, 2.0]))
        with pytest.raises(ConfigurationError):
            SpatialGrid(x_values=np.array([1.0, 0.0]))

    def test_non_finite_points_rejected(self):
        with pytest.raises(ConfigurationError):
            SpatialGrid(x_values=np.array([0.0, 1.0, np.nan]))
        with pytest.raises(ConfigurationError):  # the step overflows
            SpatialGrid.linspace(-1e308, 1e308, 3)

    @pytest.mark.parametrize("points", [10_001, 100_001])
    def test_fine_linspace_grids_are_uniform(self, points):
        x = np.linspace(-12.0 * np.pi, 8.0 * np.pi, points)
        assert SpatialGrid(x_values=x).n == points
        x[points // 3] += 1e-6 * (x[1] - x[0])
        with pytest.raises(ConfigurationError):
            SpatialGrid(x_values=x)


@pytest.fixture(scope="module")
def grid(params):
    lam = params.wavelength
    return SpatialGrid.linspace(-8.0 * lam, 8.0 * lam, 321)


@pytest.fixture(scope="module")
def pair(params, grid):
    """Emission on/off at gamma*t = 5 for a half-wavelength packet."""
    sc = Scenario.single(width=params.wavelength / 2.0)
    t = 5.0 / params.gamma
    on = reduced_density(grid, t, sc, True, params)
    off = reduced_density(grid, t, sc, False, params)
    return on, off


class TestReducedDensity:
    def test_hermitian_to_the_bit(self, pair):
        on, off = pair
        assert np.array_equal(on.rho, on.rho.conj().T)
        assert np.array_equal(off.rho, off.rho.conj().T)

    def test_unit_trace(self, pair):
        on, off = pair
        assert on.trace() == pytest.approx(1.0, abs=1e-12)
        assert off.trace() == pytest.approx(1.0, abs=1e-12)

    def test_emission_never_touches_the_diagonal(self, pair):
        on, off = pair
        assert np.allclose(on.diagonal, off.diagonal, rtol=1e-14, atol=0.0)
        assert on.diag_width() == pytest.approx(off.diag_width(), rel=1e-14)

    def test_purity_pure_without_emission_mixed_with(self, pair):
        on, off = pair
        assert off.purity() == pytest.approx(1.0, abs=1e-6)
        assert on.purity() < 0.5

    def test_normalized_coherence_equals_the_decoherence_factor(self, pair, params):
        on, _ = pair
        n = on.grid.n
        sl = slice(n // 4, 3 * n // 4)          # central block, diagonal well away from underflow
        x = on.grid.x_values[sl]
        diag = on.diagonal[sl]
        coh = np.abs(on.rho[sl, sl]) / np.sqrt(np.outer(diag, diag))
        f = decoherence_factor(x[:, None], x[None, :], params)
        assert np.max(np.abs(coh - f)) <= 1e-12

    def test_pure_state_coherence_is_the_geometric_mean(self, params):
        lam = params.wavelength
        sc = Scenario.superposition(center_offset=2.0 * lam, width=lam / 4.0)
        grid = SpatialGrid.linspace(-4.0 * lam, 4.0 * lam, 161)
        dg = reduced_density(grid, 0.0, sc, False, params)
        i = int(np.argmin(np.abs(grid.x_values - 2.0 * lam)))
        j = int(np.argmin(np.abs(grid.x_values + 2.0 * lam)))
        lhs = abs(dg.rho[i, j])
        rhs = np.sqrt(dg.diagonal[i] * dg.diagonal[j])
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_golden_far_coherence(self):
        """At four wavelengths of separation the Bessel argument is 4*pi;
        heavy atoms keep the packets from spreading over a long wait."""
        heavy = ModelParams(omega0=1.0, mu=800.0, gamma=0.01)
        lam = heavy.wavelength
        sc = Scenario.superposition(center_offset=2.0 * lam, width=lam / 2.0)
        grid = SpatialGrid.linspace(-4.0 * lam, 4.0 * lam, 161)
        dg = reduced_density(grid, 100.0 / heavy.gamma, sc, True, heavy)
        i = int(np.argmin(np.abs(grid.x_values - 2.0 * lam)))
        j = int(np.argmin(np.abs(grid.x_values + 2.0 * lam)))
        coh = abs(dg.rho[i, j]) / np.sqrt(dg.diagonal[i] * dg.diagonal[j])
        assert coh == pytest.approx(J0_AT_4PI**2, rel=1e-10)

    def test_time_gates(self, params, grid):
        sc = Scenario.single(width=params.wavelength / 2.0)
        with pytest.raises(ModelValidityError):
            reduced_density(grid, 0.5 / params.gamma, sc, True, params)
        with pytest.warns(ValidityWarning):
            reduced_density(grid, 2.0 / params.gamma, sc, True, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any warning
            for t, emission in itertools.product((-1.0, np.nan, np.inf),
                                                 (True, False)):
                with pytest.raises(ConfigurationError):
                    reduced_density(grid, t, sc, emission, params)

    def test_no_gates_without_emission(self, params, grid):
        sc = Scenario.single(width=params.wavelength / 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dg = reduced_density(grid, 0.0, sc, False, params)
        assert dg.trace() == pytest.approx(1.0, abs=1e-12)

    def test_scenario_regime_required(self, grid):
        broad = ModelParams(omega0=1.0, mu=10.0, gamma=0.2)
        sc = Scenario.single(width=broad.wavelength / 2.0)
        with pytest.raises(ConfigurationError):
            reduced_density(grid, 10.0 / broad.gamma, sc, False, broad)

    def test_density_grid_validation_and_freezing(self, params, pair):
        on, _ = pair
        n = on.grid.n
        with pytest.raises(ConfigurationError):
            DensityGrid(grid=on.grid, psi=np.ones(3), factor=np.ones(n), t=1.0,
                        emission=False, norm_factor=1.0, params=params)
        with pytest.raises(ConfigurationError):
            DensityGrid(grid=on.grid, psi=np.ones(n), factor=np.ones((n, n)),
                        t=1.0, emission=True, norm_factor=1.0, params=params)
        assert on.rho.shape == (n, n)
        with pytest.raises(ValueError):
            on.rho[0, 0] = 1.0
        with pytest.raises(ValueError):
            on.psi[0] = 1.0
        with pytest.raises(ValueError):
            on.factor[0] = 1.0

    def test_off_band_mass_by_hand(self, params):
        grid = SpatialGrid(x_values=np.array([0.0, 1.0, 2.0]))
        psi = np.array([1.0, 2.0j, -3.0 + 1.0j])
        factor = np.array([1.0, 0.5, 0.25])
        dg = DensityGrid(grid=grid, psi=psi, factor=factor, t=0.0, emission=True,
                         norm_factor=2.0, params=params)
        i, j = np.indices((3, 3))
        rho = 2.0 * np.outer(psi, psi.conj()) * factor[np.abs(i - j)]
        assert np.array_equal(dg.rho, rho)
        # Separations: only (0, 2) and (2, 0) exceed width/2 = 1.
        assert dg.off_band_mass(2.0) == pytest.approx(
            abs(rho[0, 2]) + abs(rho[2, 0]), rel=1e-15)

    @pytest.mark.parametrize("points, span, emission", [
        (9, 2.0, True), (64, 3.0, False), (201, 5.0, True)])
    def test_purity_matches_the_dense_sum(self, points, span, emission):
        # A heavy pair, so that at gamma*t = 5 even the 2-lambda grid holds
        # the packets (the standard pair spreads them to 1.6 lambda).
        params = ModelParams(omega0=1.0, mu=800.0, gamma=0.01)
        lam = params.wavelength
        grid = SpatialGrid.linspace(-span * lam, span * lam, points)
        sc = Scenario.superposition(center_offset=0.7 * lam, width=0.4 * lam)
        dg = reduced_density(grid, 5.0 / params.gamma, sc, emission, params)
        x = grid.x_values
        f = decoherence_factor(x[:, None], x[None, :], params) if emission else 1.0
        rho = dg.norm_factor * np.outer(dg.psi, dg.psi.conj()) * f
        dense = np.sum(np.abs(rho) ** 2) * grid.spacing**2
        assert dg.purity() == pytest.approx(dense, rel=1e-13)

    def test_observables_never_hold_a_dense_matrix(self, params):
        lam = params.wavelength
        n = 10_001
        grid = SpatialGrid.linspace(-12.0 * lam, 12.0 * lam, n)
        sc = Scenario.superposition(center_offset=2.0 * lam, width=lam / 2.0)
        tracemalloc.start()
        try:
            dg = reduced_density(grid, 5.0 / params.gamma, sc, True, params)
            dg.trace(), dg.purity(), dg.diag_width(), dg.off_band_mass(lam)
            coherence_length(dg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One dense complex matrix would take n * n * 16 bytes, 1.6 GB.
        assert peak < 0.01 * n * n * 16


class TestCoherenceLength:
    def test_pure_packet_gives_the_gaussian_coherence_width(self, params):
        # Without emission the center-normalized profile f is exp(-dx^2/8 sigma^2),
        # crossing e^{-1} at sqrt(8) sigma.  Interpolating linearly between
        # samples h = 2 * spacing apart in dx moves the crossing by at most
        # (h^2 / 8) |f''| / |f'| = sqrt(2) h^2 / (32 sigma) to leading order,
        # h^2 / (64 sigma^2) = 2.5e-5 of it at h = sigma / 25 here; a threshold
        # 1e-3 off would move it by 5e-4.
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        grid = SpatialGrid.linspace(-4.0 * lam, 4.0 * lam, 801)
        res = coherence_length(reduced_density(grid, 0.0, sc, False, params))
        assert res.crossed
        assert res.length == pytest.approx(np.sqrt(8.0) * lam / 2.0, rel=1e-4)

    def test_pure_packet_coherence_grows_with_time(self, params):
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        grid = SpatialGrid.linspace(-12.0 * lam, 12.0 * lam, 961)
        early = coherence_length(reduced_density(grid, 0.0, sc, False, params))
        late = coherence_length(
            reduced_density(grid, 2.0 / params.gamma, sc, False, params))
        assert early.crossed and late.crossed
        assert late.length > early.length

    def test_emission_saturates_at_the_bessel_scale(self, params):
        # Once the packet is much wider than the emission scale, the envelope
        # is flat where the Bessel factor crosses e^{-1}.
        lam = params.wavelength
        sc = Scenario.single(width=2.0 * lam)
        grid = SpatialGrid.linspace(-6.0 * lam, 6.0 * lam, 481)
        res = coherence_length(
            reduced_density(grid, 5.0 / params.gamma, sc, True, params))
        assert res.crossed
        assert res.length == pytest.approx(EINV_SEPARATION * lam, rel=0.02)

    def test_coarse_grid_returns_the_sentinel(self, params):
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        coarse = SpatialGrid.linspace(-4.0 * lam, 4.0 * lam, 9)
        res = coherence_length(reduced_density(coarse, 0.0, sc, False, params))
        assert res == CoherenceLength(length=coarse.extent, crossed=False)

    def test_unreached_crossing_returns_the_sentinel(self, params):
        # Built from its factors: reduced_density refuses a grid this narrow,
        # which holds 71 % of the packet.
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        narrow = SpatialGrid.linspace(-0.5 * lam, 0.5 * lam, 21)
        dg = DensityGrid(grid=narrow, psi=psi_free(narrow.x_values, 0.0, sc, params),
                         factor=np.ones(narrow.n), t=0.0, emission=False,
                         norm_factor=1.0, params=params)
        res = coherence_length(dg)
        assert not res.crossed
        assert res.length == narrow.extent


@pytest.fixture(scope="module")
def lam(params):
    return params.wavelength


@pytest.fixture(scope="module")
def sweep_grid(lam):
    # Spacing is exactly lambda/20 (up to one last-place bit).
    return SpatialGrid.linspace(-8.0 * lam, 8.0 * lam, 321)


@pytest.fixture(scope="module")
def sc(lam):
    return Scenario.single(width=lam / 2.0)


class TestScenarioSweep:
    def test_empty_times_yield_no_work(self, sc, sweep_grid, params):
        assert scenario_sweep(sc, [], True, sweep_grid, params) == []

    def test_times_must_ascend(self, sc, sweep_grid, params):
        g = params.gamma
        with pytest.raises(ConfigurationError):
            scenario_sweep(sc, [5.0 / g, 2.0 / g], True, sweep_grid, params)

    def test_boundary_spacing_is_accepted(self, sc, sweep_grid, params):
        # 16 lambda / 320 points is the spec'd default; one bit of float
        # excess over lambda/20 must not reject it.
        out = scenario_sweep(sc, [5.0 / params.gamma], True, sweep_grid, params)
        assert len(out) == 1

    def test_undersampled_grid_rejected(self, sc, lam, params):
        coarse = SpatialGrid.linspace(-8.0 * lam, 8.0 * lam, 81)
        with pytest.raises(ConfigurationError):
            scenario_sweep(sc, [5.0 / params.gamma], True, coarse, params)

    def test_grid_must_contain_the_spread_packets(self, sc, lam, params):
        small = SpatialGrid.linspace(-lam, lam, 41)
        with pytest.raises(ConfigurationError):
            scenario_sweep(sc, [100.0 / params.gamma], False, small, params)

    def test_a_packet_off_the_grid_is_refused(self, lam, sweep_grid, params):
        # The grid spans the packet's spread, but not where it sits: 60 lambda
        # out its density underflows to a few subnormals (the norm overflows),
        # 100 lambda out to none.  Each gave NaN or a ZeroDivisionError.
        t = 5.0 / params.gamma
        for center, emission in itertools.product((60.0, 100.0), (True, False)):
            off = Scenario.single(width=lam / 2.0, center=center * lam)
            for call in (lambda: scenario_sweep(off, [t], emission, sweep_grid, params),
                         lambda: reduced_density(sweep_grid, t, off, emission, params)):
                with pytest.raises(ConfigurationError, match="no finite density"):
                    call()

    @pytest.mark.parametrize("center, held", [(5.0, "0.987"), (40.0, "2.97e-122")])
    def test_a_packet_partly_off_the_grid_is_refused(self, lam, sweep_grid, params,
                                                     center, held):
        # Once renormalised to trace 1 over what was left of it: at 40 lambda
        # a 0.056-lambda sliver of a packet 1.36 lambda wide.
        t = 5.0 / params.gamma
        off = Scenario.single(width=lam / 2.0, center=center * lam)
        message = (rf"the density grid -8 <= x <= 8 lambda holds only {held} of "
                   r"the packet at gamma\*t = 5 \(at least 0.99 is needed\)")
        for emission in (True, False):
            with pytest.raises(ConfigurationError, match=message):
                scenario_sweep(off, [t], emission, sweep_grid, params)
            with pytest.raises(ConfigurationError, match=message):
                reduced_density(sweep_grid, t, off, emission, params)

    def test_a_packet_the_grid_holds_is_accepted(self, lam, sweep_grid, params):
        # 4.5 lambda out, the grid still holds 99.5 % of the packet.
        off = Scenario.single(width=lam / 2.0, center=4.5 * lam)
        dg = reduced_density(sweep_grid, 5.0 / params.gamma, off, False, params)
        assert dg.trace() == pytest.approx(1.0, rel=1e-14)

    def test_gates_run_before_any_assembly(self, sc, sweep_grid, params):
        g = params.gamma
        with pytest.raises(ModelValidityError):
            scenario_sweep(sc, [0.5 / g, 5.0 / g], True, sweep_grid, params)
        with pytest.raises(ConfigurationError):
            scenario_sweep(sc, [-1.0, 5.0 / g], False, sweep_grid, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any warning
            for bad, emission in itertools.product(
                    ([np.nan], [5.0 / g, np.nan], [np.inf], [5.0 / g, np.inf]),
                    (True, False)):
                with pytest.raises(ConfigurationError):
                    scenario_sweep(sc, bad, emission, sweep_grid, params)

    def test_bad_times_are_refused_as_reduced_density_refuses_them(
            self, sc, sweep_grid, lam, params):
        # The time check runs before the grid gates, so an infinite time is
        # not refused as a packet spread the grid cannot hold.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t, emission in itertools.product((np.nan, np.inf, -np.inf, -1.0),
                                                 (True, False)):
                messages = []
                for call in (lambda: scenario_sweep(sc, [t], emission, sweep_grid, params),
                             lambda: reduced_density(sweep_grid, t, sc, emission, params)):
                    with pytest.raises(ConfigurationError) as refused:
                        call()
                    messages.append(str(refused.value))
                assert messages == ["t must be finite and non-negative"] * 2
            # A marginal gamma*t still warns only after the grid gates pass.
            coarse = SpatialGrid.linspace(-8.0 * lam, 8.0 * lam, 81)
            with pytest.raises(ConfigurationError, match="spacing"):
                scenario_sweep(sc, [2.0 / params.gamma], True, coarse, params)

    def test_marginal_times_warn_deterministically(self, sc, sweep_grid, params):
        g = params.gamma
        with pytest.warns(ValidityWarning):
            scenario_sweep(sc, [2.0 / g, 3.0 / g], True, sweep_grid, params)

    def test_validity_warnings_point_at_the_callers_line(self, sc, sweep_grid, params):
        g = params.gamma
        calls = [lambda: scenario_sweep(sc, [2.0 / g, 3.0 / g], True, sweep_grid, params),
                 lambda: reduced_density(sweep_grid, 2.0 / g, sc, True, params)]
        for call in calls:
            with pytest.warns(ValidityWarning) as record:
                call()
            assert {w.filename for w in record} == {__file__}

    def test_emission_factorizes_against_the_paired_sweep(self, sc, sweep_grid, params):
        g = params.gamma
        times = [5.0 / g, 6.5 / g, 8.0 / g]
        on = scenario_sweep(sc, times, True, sweep_grid, params)
        off = scenario_sweep(sc, times, False, sweep_grid, params)
        x = sweep_grid.x_values
        f = decoherence_factor(x[:, None], x[None, :], params)
        for dg_on, dg_off, t in zip(on, off, times):
            assert dg_on.t == t and dg_off.t == t
            assert dg_on.emission and not dg_off.emission
            scale = np.abs(dg_off.rho).max()
            assert np.max(np.abs(dg_on.rho - dg_off.rho * f)) <= 1e-12 * scale

    def test_thread_count_does_not_change_the_numbers(
            self, sc, sweep_grid, params, monkeypatch):
        g = params.gamma
        times = [5.0 / g, 7.0 / g, 9.0 / g]
        threaded = scenario_sweep(sc, times, True, sweep_grid, params)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
        serial = scenario_sweep(sc, times, True, sweep_grid, params)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.rho, b.rho)

    def test_one_time_equals_reduced_density(self, sc, sweep_grid, params):
        t = 5.0 / params.gamma
        [swept] = scenario_sweep(sc, [t], True, sweep_grid, params)
        single = reduced_density(sweep_grid, t, sc, True, params)
        for name in ("psi", "factor"):
            assert np.array_equal(getattr(swept, name), getattr(single, name))
        assert (swept.t, swept.norm_factor) == (single.t, single.norm_factor)
        assert np.array_equal(swept.rho, single.rho)


class TestWorkerCount:
    """One worker per job, up to the CPUs the process may run on."""

    def test_one_cpu_gives_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
        assert [worker_count(n) for n in (0, 1, 2, 8)] == [1, 1, 1, 1]

    def test_three_cpus_cap_the_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 2, 5})
        assert [worker_count(n) for n in (1, 2, 3, 4, 8)] == [1, 2, 3, 3, 3]

    def test_default_is_at_least_one(self):
        assert 1 <= worker_count(4) <= 4
        assert worker_count(1) == 1
