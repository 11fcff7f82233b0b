"""Brute-force integration and quadrature oracles: their own invariants.

The oracles earn their role by being dumb and conservative.  These tests pin
the properties that make them trustworthy -- conserved norm, determinism,
correct free limits, golden-rule calibration -- and the documented effect of
the one modeling switch they expose (the two-photon exchange feedback).
"""

import numpy as np
import pytest

from recoilsim.core import (
    ConfigurationError,
    ModeGrid,
    ModelParams,
    omega_no_photon,
    omega_one_photon,
    omega_two_photon,
)
from recoilsim.density import GaussianPacket, Scenario, decoherence_factor, psi_free
from recoilsim import oracle
from recoilsim.oracle import (
    OdeRun,
    amplitude_generator,
    density_quadrature,
    integrate_amplitudes,
    max_decay_error,
    ww_rate_check,
)


@pytest.fixture(scope="module")
def small_grid(params):
    return ModeGrid.build(params, n_k=24, bandwidth_gammas=12.0)


@pytest.fixture(scope="module")
def small_traj(params, small_grid):
    run = OdeRun(params=params, grid=small_grid, t_span=(0.0, 2.0 / params.gamma),
                 tol=1e-10)
    return integrate_amplitudes(run)


class TestRunValidation:
    def test_tolerance_window(self, params, small_grid):
        for bad in (1e-5, 1e-13, 0.0):
            with pytest.raises(ConfigurationError):
                OdeRun(params=params, grid=small_grid, t_span=(0.0, 1.0), tol=bad)

    def test_span_must_start_at_zero(self, params, small_grid):
        with pytest.raises(ConfigurationError):
            OdeRun(params=params, grid=small_grid, t_span=(0.5, 1.0))
        for end in (0.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError):
                OdeRun(params=params, grid=small_grid, t_span=(0.0, end))

    def test_minimum_bandwidth_enforced(self, params):
        narrow = ModeGrid.build(params, n_k=16, bandwidth_gammas=8.0)
        with pytest.raises(ConfigurationError):
            OdeRun(params=params, grid=narrow, t_span=(0.0, 1.0))

    def test_sample_times_validated(self, params, small_grid):
        for bad in ([0.5, 0.2], [0.1], [0.0, 2.0]):
            with pytest.raises(ConfigurationError):
                OdeRun(params=params, grid=small_grid, t_span=(0.0, 1.0),
                       sample_times=np.asarray(bad))

    def test_default_sampling_is_51_points(self, params, small_grid):
        run = OdeRun(params=params, grid=small_grid, t_span=(0.0, 2.0))
        assert np.array_equal(run.times, np.linspace(0.0, 2.0, 51))

    def test_unequal_kicks_block_packed_storage(self, params):
        # Four angles produce kicks of different magnitude; with nonzero
        # relative momentum the exchange-symmetric packing is unsound and
        # must be refused.
        grid = ModeGrid.build(params, n_k=16, bandwidth_gammas=12.0, n_phi=4)
        with pytest.raises(ConfigurationError):
            OdeRun(params=params, grid=grid, p=0.1, t_span=(0.0, 1.0))
        # Either remedy works: p = 0, or kick-free transverse emission.
        OdeRun(params=params, grid=grid, p=0.0, t_span=(0.0, 1.0))
        transverse = ModeGrid.build(params, n_k=16, bandwidth_gammas=12.0)
        OdeRun(params=params, grid=transverse, p=0.1, t_span=(0.0, 1.0))


class TestFreeLimit:
    def test_zero_coupling_evolves_as_pure_phase(self, params, small_grid):
        # Kept short: the norm-drift gate allows only 10*tol of integrator
        # accumulation, which a multi-lifetime free run would exceed.
        free = small_grid.with_coupling_scaled(0.0)
        p = 0.4
        t_final = 0.2 / params.gamma
        run = OdeRun(params=params, grid=free, p=p, t_span=(0.0, t_final),
                     c_p=0.8 + 0.1j, tol=1e-10)
        traj = integrate_amplitudes(run)
        alpha = p * p / (2.0 * params.mu * params.hbar)
        expected = (0.8 + 0.1j) * np.exp(-1j * alpha * traj.times)
        assert np.max(np.abs(traj.a - expected)) <= 1e-8
        # Nothing sources the photon sectors, so they stay exactly zero.
        assert np.all(traj.b == 0.0)
        assert np.all(traj.d_data == 0.0)


class TestConservationAndDeterminism:
    def test_norm_is_conserved(self, small_traj):
        drift = np.max(np.abs(small_traj.norms - 1.0))
        assert drift <= 1e-9

    def test_reruns_are_bit_identical(self, params, small_grid, small_traj):
        run = OdeRun(params=params, grid=small_grid,
                     t_span=(0.0, 2.0 / params.gamma), tol=1e-10)
        again = integrate_amplitudes(run)
        assert np.array_equal(again.a, small_traj.a)
        assert np.array_equal(again.b, small_traj.b)
        assert np.array_equal(again.d_data, small_traj.d_data)
        assert again.nfev == small_traj.nfev > 0

    def test_samples_are_stored_once(self, small_traj):
        # a, b and d_data are read-only views of the one sampled state array,
        # and the populations are computed on first use only.
        y = small_traj.y
        assert y.shape == (small_traj.times.size, 1 + 24 + 24 * 25 // 2)
        for view in (small_traj.a, small_traj.b, small_traj.d_data):
            assert view.base is y and not view.flags.writeable
        assert np.array_equal(small_traj.d_data[:, -1], y[:, -1])
        pops = small_traj.sector_populations
        assert small_traj.sector_populations is pops
        assert not pops.flags.writeable

    def test_packed_and_expanded_sector_norms_agree(self, small_traj):
        # sector_populations works on the packed storage; state_at expands to
        # the full ordered matrix.  Two summation orders, same numbers.
        pops = small_traj.sector_populations
        for i in (0, len(small_traj.times) // 2, -1):
            state = small_traj.state_at(i)
            assert np.allclose(pops[i], state.sector_norms, rtol=1e-10, atol=0.0)
            assert state.d_vals is not None
            assert np.array_equal(state.d_vals, state.d_vals.T)

    def test_recurrence_bookkeeping(self, params, small_traj, small_grid):
        expected = 2.0 * np.pi / (params.c * small_grid.spacing)
        assert small_traj.recurrence_time == pytest.approx(expected, rel=1e-15)
        assert small_traj.comparison_window == pytest.approx(0.8 * expected, rel=1e-15)

    def test_decay_error_is_modest_on_a_narrow_band(self, small_traj):
        # A 12-gamma window truncates the Lorentzian wings, so the sampled
        # decay is a few percent off pure-exponential; the acceptance suite
        # holds the wide production grid to 5%.
        err = max_decay_error(small_traj)
        assert 0.0 < err < 0.2

    def test_decay_error_requires_samples_in_window(self, params):
        # Two modes spanning 24 gamma leave a recurrence time of ~0.26/gamma;
        # samples beyond 80% of it are refused as oracle evidence.
        grid = ModeGrid.build(params, n_k=2, bandwidth_gammas=12.0)
        g = params.gamma
        run = OdeRun(params=params, grid=grid, t_span=(0.0, 1.0 / g),
                     sample_times=np.array([0.3 / g, 0.6 / g]), tol=1e-10)
        traj = integrate_amplitudes(run)
        with pytest.raises(ConfigurationError):
            max_decay_error(traj)


def reference_rhs(run, y):
    """The amplitude equations written out term by term, one mode at a time."""
    params, grid = run.params, run.grid
    n, g = grid.n_modes, grid.mode_coupling
    mk, mphi = grid.mode_k, grid.mode_phi
    p, big_p, w0 = run.p, run.total_momentum, params.omega0
    a, b, d = y[0], y[1:1 + n], y[1 + n:]
    if run.keep_cross_term:
        slot, index = {}, 0
        for r in range(n):
            for c in range(r, n):
                slot[r, c] = slot[c, r] = index
                index += 1
    else:
        slot = {(k, j): k * n + j for k in range(n) for j in range(n)}
    out = np.zeros_like(y)
    out[0] = -1j * (omega_no_photon(p, big_p, params) - w0) * a
    for k in range(n):
        out[0] += -2j * g[k] * b[k]
    for k in range(n):
        beta = omega_one_photon(mk[k], mphi[k], p, big_p, params) - w0
        out[1 + k] = -1j * beta * b[k] - 1j * g[k] * a
        for j in range(n):
            out[1 + k] += -1j * g[j] * d[slot[k, j]]
    for k in range(n):
        for j in range(n):
            if run.keep_cross_term and j < k:
                continue
            m = slot[k, j]
            delta = omega_two_photon(mk[k], mphi[k], mk[j], mphi[j], p, big_p,
                                     params) - w0
            feed = g[j] * b[k]
            if run.keep_cross_term:
                feed += g[k] * b[j]     # the exchange route
            out[1 + n + m] = -1j * delta * d[m] - 1j * feed
    return out


class TestAmplitudeGenerator:
    @pytest.mark.parametrize("n_k, n_phi, p, big_p, packed", [
        (6, 1, 0.0, 0.0, True),
        (2, 3, 0.0, 0.05, True),
        (2, 3, 0.3, 0.0, False),
        (7, 1, 0.2, 0.05, False),
        (3, 2, -0.4, 0.0, False),
    ])
    def test_matches_term_by_term_equations(self, params, n_k, n_phi, p, big_p,
                                            packed):
        grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=12.0, n_phi=n_phi)
        run = OdeRun(params=params, grid=grid, p=p, total_momentum=big_p,
                     t_span=(0.0, 1.0), keep_cross_term=packed)
        gen = amplitude_generator(run)
        n = grid.n_modes
        pairs = n * (n + 1) // 2 if packed else n * n
        assert gen.shape == (1 + n + pairs,) * 2
        d_entries = 3 * pairs - n if packed else 2 * pairs
        assert gen.nnz == (1 + n) + n * (n + 2) + d_entries
        assert gen.indices.dtype == np.int32
        assert gen.indptr.dtype == np.int32
        # The pre-flight memory estimate counts the same layout unbuilt.
        assert oracle._state_size(run) == (gen.shape[0], gen.nnz)
        rng = np.random.default_rng(7)
        for _ in range(3):
            y = np.array([1.0, 1j]) @ rng.standard_normal((2, 1 + n + pairs))
            ref = reference_rhs(run, y)
            assert np.max(np.abs(gen @ y - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestMemoryEstimate:
    def test_counts_the_generator_solver_and_samples(self, params, small_grid):
        run = OdeRun(params=params, grid=small_grid, t_span=(0.0, 1.0))
        gen = amplitude_generator(run)
        dim = gen.shape[0]
        csr = gen.data.nbytes + gen.indices.nbytes + gen.indptr.nbytes
        assert oracle.memory_estimate(run) == csr + 16 * dim * (30 + 51)
        fewer = OdeRun(params=params, grid=small_grid, t_span=(0.0, 1.0),
                       sample_times=np.linspace(0.0, 1.0, 11))
        assert oracle.memory_estimate(run) - oracle.memory_estimate(fewer) \
            == 16 * dim * 40

    def test_huge_grids_are_counted_without_building(self, params):
        grid = ModeGrid.build(params, n_k=10**6, bandwidth_gammas=12.0)
        run = OdeRun(params=params, grid=grid, t_span=(0.0, 1.0))
        pairs = 10**6 * (10**6 + 1) // 2
        assert oracle._state_size(run)[0] == 1 + 10**6 + pairs
        assert oracle.memory_estimate(run) > 16 * 81 * pairs


class TestExchangeFeedback:
    def test_dropped_route_scales_as_coupling_squared(self, params):
        """The cross-term switch removes a second-order-in-g feedback path;
        halving g must shrink the on/off difference fourfold (exponent 2).
        Four integrations at tight tolerance; runs ~20 s."""
        grid = ModeGrid.build(params, n_k=48, bandwidth_gammas=12.0)
        t_final = 4.0 / params.gamma
        samples = np.linspace(0.0, t_final, 41)

        def b_difference(scale):
            g = grid.with_coupling_scaled(scale)
            kw = dict(params=params, grid=g, t_span=(0.0, t_final),
                      sample_times=samples, tol=1e-11)
            on = integrate_amplitudes(OdeRun(keep_cross_term=True, **kw))
            off = integrate_amplitudes(OdeRun(keep_cross_term=False, **kw))
            return (np.linalg.norm((on.b - off.b).ravel())
                    / np.linalg.norm(on.b.ravel()))

        d_full = b_difference(1.0)
        d_half = b_difference(0.5)
        exponent = np.log(d_full / d_half) / np.log(2.0)
        assert exponent == pytest.approx(2.0, abs=0.3)

    def test_ordered_storage_shapes(self, params, small_grid):
        run = OdeRun(params=params, grid=small_grid, t_span=(0.0, 1.0),
                     sample_times=np.array([0.0, 1.0]), tol=1e-10,
                     keep_cross_term=False)
        traj = integrate_amplitudes(run)
        n = small_grid.n_modes
        assert traj.d_data.shape == (2, n * n)
        state = traj.state_at(1)
        assert state.d_vals.shape == (n, n)
        assert np.array_equal(state.d_vals, state.d_vals.T)
        assert np.allclose(traj.sector_populations[1], state.sector_norms,
                           rtol=1e-12, atol=0.0)


class TestGoldenRuleRate:
    def test_flat_dense_grid_reproduces_the_rate(self, params):
        grid = ModeGrid.build(params, n_k=2001, bandwidth_gammas=50.0,
                              flat_coupling=True)
        check = ww_rate_check(grid, params)
        assert check.expected == params.gamma / 2.0
        assert abs(check.rate / check.expected - 1.0) <= 0.02
        assert not check.flagged

    def test_production_grid_not_flagged(self, params):
        grid = ModeGrid.build(params, n_k=400, bandwidth_gammas=50.0)
        check = ww_rate_check(grid, params)
        assert not check.flagged
        assert abs(check.rate / check.expected - 1.0) <= 0.05

    def test_truncated_wings_are_flagged(self, params):
        # +-2 gamma captures only ~84% of the Lorentzian.
        grid = ModeGrid.build(params, n_k=101, bandwidth_gammas=2.0)
        assert ww_rate_check(grid, params).flagged

    def test_rate_tracks_mode_density(self, params):
        """Dropping every other mode at fixed per-mode coupling halves the
        pole sum -- the discrete sum really is counting modes."""
        full = ModeGrid.build(params, n_k=501, bandwidth_gammas=25.0)
        half = ModeGrid(k_values=full.k_values[::2], phi_values=full.phi_values,
                        coupling_ref=full.coupling_ref,
                        reference_k=full.reference_k)
        ratio = ww_rate_check(half, params).rate / ww_rate_check(full, params).rate
        assert ratio == pytest.approx(0.5, rel=1e-2)

    def test_zero_coupling_rate_is_zero_and_flagged(self, params):
        grid = ModeGrid.build(params, n_k=101, bandwidth_gammas=25.0)
        check = ww_rate_check(grid.with_coupling_scaled(0.0), params)
        assert check.rate == 0.0
        assert check.flagged


class TestDensityQuadrature:
    def test_angle_resolution_floor(self, params):
        sc = Scenario.single(width=params.wavelength / 2.0)
        with pytest.raises(ConfigurationError):
            density_quadrature(0.0, 0.0, 1.0, sc, params, n_phi=64)

    def test_diagonal_reduces_to_probability_density(self, params):
        # On the diagonal the two which-path phases cancel mode by mode.
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        t = 2.0 / params.gamma
        x = 0.3 * lam
        quad = density_quadrature(x, x, t, sc, params, include_offset=False)
        direct = abs(psi_free(x, t, sc, params)) ** 2
        assert quad.imag == pytest.approx(0.0, abs=1e-16)
        assert quad.real == pytest.approx(direct, abs=1e-13 * direct)

    def test_matches_factorized_form_off_diagonal(self, params):
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        t = 2.0 / params.gamma
        x, x2 = 0.5 * lam, -0.3 * lam
        quad = density_quadrature(x, x2, t, sc, params, include_offset=False)
        fact = (psi_free(x, t, sc, params)
                * np.conj(psi_free(x2, t, sc, params))
                * decoherence_factor(x, x2, params))
        assert abs(quad - fact) <= 1e-8 * abs(fact)

    def test_angle_grid_is_spectrally_converged(self, params):
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        t = 2.0 / params.gamma
        a = density_quadrature(0.7 * lam, -0.4 * lam, t, sc, params, n_phi=256)
        b = density_quadrature(0.7 * lam, -0.4 * lam, t, sc, params, n_phi=512)
        assert abs(a - b) <= 1e-12 * abs(b)

    def test_recoil_drift_term_is_small_at_matched_time(self, params):
        """With the drift scale s = 1% of the packet width, switching the
        recoil offset on moves matrix elements by well under 2%."""
        lam = params.wavelength
        width = lam / 2.0
        sc = Scenario.single(width=width)
        t = 0.01 * width * 2.0 * params.mu * params.c / (params.hbar * params.omega0)
        xs = np.linspace(-2.0 * lam, 2.0 * lam, 16)[4:12:2]
        worst = 0.0
        for x in xs:
            for xp in xs:
                on = density_quadrature(x, xp, t, sc, params)
                off = density_quadrature(x, xp, t, sc, params, include_offset=False)
                if abs(off) > 1e-8:
                    worst = max(worst, abs(on - off) / abs(off))
        assert worst <= 0.02
