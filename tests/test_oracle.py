"""Brute-force integration and quadrature oracles: their own invariants.

The oracles earn their role by being dumb and conservative.  These tests pin
the properties that make them trustworthy -- conserved norm, determinism,
correct free limits, golden-rule calibration.
"""

import dataclasses
import subprocess
import sys

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
        free = dataclasses.replace(small_grid, coupling_ref=0.0)
        p = 0.4
        t_final = 0.2 / params.gamma
        run = OdeRun(params=params, grid=free, p=p, t_span=(0.0, t_final),
                     tol=1e-10)
        traj = integrate_amplitudes(run)
        alpha = p * p / (2.0 * params.mu * params.hbar)
        expected = np.exp(-1j * alpha * traj.times)
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

    def test_samples_are_stored_once(self, small_traj, monkeypatch):
        # y is the propagator's own sample array, not a copy; a, b and d_data
        # are read-only views of that memory, and the populations are
        # computed on first use only.
        solve, solved = oracle.solve_ivp, []

        def spy(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]
        monkeypatch.setattr(oracle, "solve_ivp", spy)
        traj = integrate_amplitudes(small_traj.run)
        y = traj.y
        assert y.shape == (traj.times.size, 1 + 24 + 24 * 25 // 2)
        assert y is solved[0] and not y.flags.writeable
        for view in (traj.a, traj.b, traj.d_data):
            assert view.base is y.base and not view.flags.writeable
        assert np.array_equal(traj.d_data[:, -1], y[:, -1])
        pops = traj.sector_populations
        assert traj.sector_populations is pops
        assert not pops.flags.writeable

    def test_populations_match_the_whole_array_sums(self, small_traj):
        # Summed one sample at a time, bit for bit as over all samples at once
        # (the diagonal pairs in sequence, as a fancy index lays them out).
        n = small_traj.n_modes
        rows, cols, _ = oracle._pairs(n)
        sq = np.abs(np.ascontiguousarray(small_traj.y)) ** 2
        d = sq[:, 1 + n:]
        expected = np.column_stack([
            sq[:, 0], 2.0 * np.add.reduce(sq[:, 1:1 + n], axis=1),
            2.0 * np.add.reduce(d, axis=1) - np.add.reduce(d[:, rows == cols], axis=1)])
        assert np.array_equal(small_traj.sector_populations, expected)

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
    p, w0 = run.p, params.omega0
    a, b, d = y[0], y[1:1 + n], y[1 + n:]
    slot, index = {}, 0
    for r in range(n):
        for c in range(r, n):
            slot[r, c] = slot[c, r] = index
            index += 1
    out = np.zeros_like(y)
    out[0] = -1j * (omega_no_photon(p, params) - w0) * a
    for k in range(n):
        out[0] += -2j * g[k] * b[k]
    for k in range(n):
        beta = omega_one_photon(mk[k], mphi[k], p, params) - w0
        out[1 + k] = -1j * beta * b[k] - 1j * g[k] * a
        for j in range(n):
            out[1 + k] += -1j * g[j] * d[slot[k, j]]
    for k in range(n):
        for j in range(k, n):
            m = slot[k, j]
            delta = omega_two_photon(mk[k], mphi[k], mk[j], mphi[j], p, params) - w0
            feed = g[j] * b[k] + g[k] * b[j]     # the second term: the exchange route
            out[1 + n + m] = -1j * delta * d[m] - 1j * feed
    return out


class TestAmplitudeGenerator:
    @pytest.mark.parametrize("n_k, n_phi, p", [
        (6, 1, 0.0),
        (2, 3, 0.0),
        (7, 1, 0.2),
        (3, 1, -0.4),
    ])
    def test_matches_term_by_term_equations(self, params, n_k, n_phi, p):
        grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=12.0, n_phi=n_phi)
        run = OdeRun(params=params, grid=grid, p=p, t_span=(0.0, 1.0))
        h = amplitude_generator(run)
        n = grid.n_modes
        pairs = n * (n + 1) // 2
        # Real and contiguous: a strided view would be copied on every product.
        assert h.dtype == np.float64 and h.data.flags.c_contiguous
        assert h.shape == (1 + n + pairs,) * 2
        assert h.nnz == (1 + n) + n * (n + 2) + 3 * pairs - n
        assert h.indices.dtype == np.int32
        assert h.indptr.dtype == np.int32
        # The pre-flight memory estimate counts the same layout unbuilt.
        assert oracle._state_size(n) == (h.shape[0], h.nnz)
        rng = np.random.default_rng(7)
        for _ in range(3):
            y = np.array([1.0, 1j]) @ rng.standard_normal((2, 1 + n + pairs))
            ref = reference_rhs(run, y)
            assert np.max(np.abs(-1j * (h @ y) - ref)) <= 1e-14 * np.max(np.abs(ref))


def count_products(run, monkeypatch):
    """``run``'s trajectory and the number of products with ``H`` it took:
    the calls of the ``fun`` that the propagator is given."""
    solve, calls = oracle.solve_ivp, []

    def counted(fun, *args, **kwargs):
        def product(t, x):
            calls.append(t)
            return fun(t, x)
        return solve(product, *args, **kwargs)
    monkeypatch.setattr(oracle, "solve_ivp", counted)
    return integrate_amplitudes(run), len(calls)


class TestChebyshevPropagator:
    """The propagator against the dense matrix exponential on tiny problems."""

    @pytest.mark.parametrize("p", [0.0, 0.6])
    def test_matches_the_dense_exponential(self, params, p):
        # Uneven sample times, the first above 0; p = 0.6 moves the interval's
        # centre by p^2 / 2 mu, off the middle of the spectrum.
        from scipy.linalg import expm
        grid = ModeGrid.build(params, n_k=6, bandwidth_gammas=12.0)
        g = params.gamma
        times = np.array([0.3, 0.35, 1.1, 1.9, 2.0]) / g
        run = OdeRun(params=params, grid=grid, p=p,
                     t_span=(0.0, 2.0 / g), sample_times=times)
        h = amplitude_generator(run)
        lo, hi = oracle._spectrum(h)
        if p:
            assert (lo + hi) / (hi - lo) > 0.05
        traj = integrate_amplitudes(run)
        y0 = np.zeros(h.shape[0])
        y0[0] = 1.0
        exact = np.array([expm(-1j * h.toarray() * t) @ y0 for t in times])
        assert np.max(np.abs(traj.y - exact)) <= 1e-12

    def test_a_small_real_matrix_at_any_sample(self):
        # Samples before t_span's start, past its end and from a start other
        # than 0 are summed like any other.
        from scipy.linalg import expm
        h = np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.2], [0.0, 0.2, 2.0]])
        spectrum = (-1.0, 2.2)  # Gershgorin's: -0.5 - 0.5 and 2.0 + 0.2
        y0 = np.array([1.0, 0.5, -0.25])
        times = np.array([-1.5, 1.0, 2.5, 4.0, 6.0])
        y = oracle.solve_ivp(lambda t, x: h @ x, (0.5, 5.0), y0, t_eval=times,
                             spectrum=spectrum)
        assert y.shape == (5, 3) and y.dtype == complex
        for t, state in zip(times, y):
            exact = expm(-1j * h * (t - 0.5)) @ y0
            assert np.max(np.abs(state - exact)) <= 1e-12

    def test_zero_width_interval_is_exact_without_warnings(self):
        # H = 2: the interval has no width, so the series is its first term.
        # pytest turns any RuntimeWarning (a division by the width) into an error.
        times, calls = np.array([0.5, 3.0]), []

        def fun(t, x):
            calls.append(t)
            return 2.0 * x
        y = oracle.solve_ivp(fun, (0.0, 3.0), np.array([1.0]), t_eval=times,
                             spectrum=(2.0, 2.0))
        assert np.allclose(y[:, 0], np.exp(-2j * times),
                           rtol=1e-15, atol=0.0)
        assert len(calls) == oracle.term_count((2.0, 2.0), 3.0) == 30

    def test_product_count_is_known_before_the_first_product(self, small_traj,
                                                               monkeypatch):
        run = small_traj.run
        count = oracle.term_count(oracle._spectrum(amplitude_generator(run)),
                                  run.times[-1])
        assert count_products(run, monkeypatch)[1] == count > 0

    @pytest.mark.parametrize("n_k, n_phi, p, bandwidth", [
        (6, 1, 0.0, 12.0),
        (3, 3, 0.0, 12.0),
        (7, 1, 0.3, 12.0),  # one angle at phi = 0: every mode carries one kick
        (5, 2, 0.0, oracle.MIN_BANDWIDTH_GAMMAS),
    ])
    def test_interval_encloses_the_spectrum(self, params, n_k, n_phi, p, bandwidth):
        # H is similar to a symmetric matrix, so its spectrum is real.
        grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=bandwidth, n_phi=n_phi)
        h = amplitude_generator(OdeRun(params=params, grid=grid, p=p, t_span=(0.0, 1.0)))
        lo, hi = oracle._spectrum(h)
        eig = np.linalg.eigvals(h.toarray())
        assert np.abs(eig.imag).max() <= 1e-12
        assert lo <= eig.real.min() and eig.real.max() <= hi

    def test_product_count_does_not_grow_with_the_mode_count(self, params):
        # At the default band and span, twice the modes carry couplings 1/sqrt(2)
        # as strong, and the interval, so the product count, stays put.
        def count(n_k):
            grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=50.0)
            run = OdeRun(params=params, grid=grid, t_span=(0.0, 5.0 / params.gamma))
            return oracle.term_count(oracle._spectrum(amplitude_generator(run)),
                                     run.t_span[1])
        # 671 is the default run's product count, as the docs cite it.
        assert count(800) == count(400) == 671

    def test_a_sample_a_rounding_past_the_span_is_reached(self, params, small_grid,
                                                          monkeypatch):
        # OdeRun admits sample times up to T (1 + 1e-12); the product count
        # follows the last sample, and the norm-drift check still holds.
        t1 = 2.0 / params.gamma
        run = OdeRun(params=params, grid=small_grid, t_span=(0.0, t1),
                     sample_times=np.array([0.0, t1 * (1.0 + 1e-13)]), tol=1e-10)
        traj, products = count_products(run, monkeypatch)
        assert traj.times[-1] > t1
        assert np.max(np.abs(traj.norms - 1.0)) <= 10.0 * run.tol
        spectrum = oracle._spectrum(amplitude_generator(run))
        assert products == oracle.term_count(spectrum, traj.times[-1])

    def test_block_sums_stay_on_one_blas_thread(self):
        # OpenBLAS runs a GEMM of m n k <= 65536 * 4 = 2**18 on one thread
        # (interface/gemm.c); a block sum is CHUNK by BLOCK / 2 by the samples.
        assert oracle.CHUNK * (oracle.BLOCK // 2) * oracle.SAMPLE_COUNT <= 2**18
        assert (oracle.CHUNK + 1) * (oracle.BLOCK // 2) * oracle.SAMPLE_COUNT > 2**18

    def test_a_ragged_last_chunk_sums_like_the_rest(self, small_traj, monkeypatch):
        # 7 does not divide dim = 325, so the last piece of every update is
        # partial, as the default's is at 400 modes (80 601 = 503 * 160 + 121).
        dim = small_traj.y.shape[1]
        assert dim % 7 and dim > 7
        monkeypatch.setattr(oracle, "CHUNK", 7)
        again = integrate_amplitudes(small_traj.run)
        assert np.allclose(again.y, small_traj.y, rtol=0.0, atol=1e-15)

    def test_loads_no_scipy_integrate(self):
        # scipy.integrate and scipy.special would cost their import time on
        # every oracle run: of scipy's public subpackages, only sparse loads.
        script = "\n".join([
            "import sys",
            "from recoilsim.core import ModelParams, ModeGrid",
            "from recoilsim.oracle import OdeRun, integrate_amplitudes",
            "params = ModelParams(omega0=1.0, mu=10.0, gamma=0.01)",
            "grid = ModeGrid.build(params, n_k=6, bandwidth_gammas=12.0)",
            "integrate_amplitudes(OdeRun(params=params, grid=grid, t_span=(0.0, 1.0)))",
            "print(sorted(m for m in sys.modules if m.startswith('scipy.')"
            " and m.split('.')[1] == 'integrate'))",
            "print(sorted(m for m, module in sys.modules.items()",
            "             if m.startswith('scipy.') and m.count('.') == 1",
            "             and not m.split('.')[1].startswith('_')",
            "             and hasattr(module, '__path__')))",
        ])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "['scipy.sparse']"]


class TestBesselCoefficients:
    """The propagator's ``J_k`` table against scipy's ``jv``, which only this
    test imports, at the orders the longest run allowed asks for."""

    # 558 is about the default run's reach, its half-width 1.116 times 5 / gamma.
    ARGUMENTS = np.array([0.0, 1e-3, 1.0, 37.5, 558.0, oracle.MAX_REACH])
    ORDER = oracle.term_count((-1.0, 1.0), oracle.MAX_REACH)

    @pytest.fixture(scope="class")
    def table(self):
        return oracle._bessel(self.ARGUMENTS, self.ORDER)

    def test_matches_scipy(self, table):
        # Against 40-digit mpmath the table is within 1.6e-16 at each of these
        # arguments, so the difference is jv's own error: 1.4e-14 up to 558 and
        # 9e-14 at 1e4.  The bounds are about twice those.
        from scipy.special import jv
        k = np.arange(self.ORDER + 1)[:, None]
        assert table.shape == (self.ORDER + 1, self.ARGUMENTS.size)
        diff = np.abs(table - jv(k, self.ARGUMENTS)).max(axis=0)
        assert np.all(diff <= np.where(self.ARGUMENTS <= 558.0, 3e-14, 2e-13))

    def test_squares_sum_to_one(self, table):
        # sum (2 - delta_k0) J_k^2 = 1, to a random walk of rounding over the
        # terms, sqrt(K) eps = 2.3e-14.  jv misses it by 5.8e-14 at 558.
        weights = np.where(np.arange(self.ORDER + 1) > 0, 2.0, 1.0)[:, None]
        miss = np.abs(np.add.reduce(weights * table**2, axis=0) - 1.0)
        assert np.all(miss <= np.sqrt(self.ORDER) * np.finfo(float).eps)

    def test_negative_arguments_by_parity(self, table):
        flipped = oracle._bessel(-self.ARGUMENTS, self.ORDER)
        signs = np.where(np.arange(self.ORDER + 1) % 2, -1.0, 1.0)[:, None]
        assert np.array_equal(flipped, signs * table)

    def test_zero_is_exactly_the_first_order(self, table):
        # pytest turns any RuntimeWarning (a division by x) into an error.
        expected = np.zeros(self.ORDER + 1)
        expected[0] = 1.0
        assert np.array_equal(table[:, 0], expected)
        assert np.array_equal(oracle._bessel(np.zeros(1), 30)[:, 0], expected[:31])


class TestMemoryEstimate:
    def test_counts_the_generator_solver_and_samples(self, params, small_grid):
        run = OdeRun(params=params, grid=small_grid, t_span=(0.0, 1.0))
        h = amplitude_generator(run)
        dim, n = h.shape[0], small_grid.n_modes
        csr = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        piece = min(oracle.CHUNK, dim)
        assert run.times.size == oracle.SAMPLE_COUNT == 51
        # The real H, the float64 block, 24 recurrence and slack vectors, the
        # complex samples once and one piece of them.
        assert oracle.memory_estimate(n, 51) == \
            csr + 8 * dim * (oracle.BLOCK + 24 + 2 * 51) + 16 * 51 * piece
        assert oracle.memory_estimate(n, 51) - oracle.memory_estimate(n, 11) \
            == 40 * 16 * (dim + piece)
    def test_bounds_the_measured_peak(self):
        # The process's peak-RSS growth over a run, in a fresh interpreter.
        # The baseline follows the imports and a tiny run, which load the
        # solver's modules and BLAS's buffers: those do not grow with the grid.
        # The peak is VmHWM, not ru_maxrss: a child's ru_maxrss keeps its
        # parent's peak across exec, and this test's parent may be larger.
        script = "\n".join([
            "from recoilsim.core import ModelParams, ModeGrid",
            "from recoilsim.oracle import OdeRun, integrate_amplitudes, memory_estimate",
            "params = ModelParams(omega0=1.0, mu=10.0, gamma=0.01)",
            "def run(n_k):",
            "    grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=50.0)",
            "    return OdeRun(params=params, grid=grid,",
            "                  t_span=(0.0, 0.3 / params.gamma), tol=1e-10)",
            "integrate_amplitudes(run(4)).norms",
            "big = run(200)",
            "def peak():",
            "    with open('/proc/self/status') as status:",
            "        return 1024 * next(int(line.split()[1]) for line in status",
            "                           if line.startswith('VmHWM:'))",
            "base = peak()",
            "integrate_amplitudes(big).norms",
            "print(peak() - base, memory_estimate(200, big.times.size))",
        ])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        growth, estimate = map(int, proc.stdout.split())
        assert growth <= estimate <= 1.5 * growth

    def test_huge_grids_are_counted_without_building(self):
        for n in (10**6, 10**12):
            pairs = n * (n + 1) // 2
            assert oracle._state_size(n)[0] == 1 + n + pairs
            assert oracle.memory_estimate(n, 51) > 16 * 81 * pairs


class TestReach:
    """The propagator's product count follows the half-width of the weighted
    Weyl interval times T, at most the fastest frequency times T plus a
    coupling term that does not grow with the mode count, so a run beyond
    ``MAX_REACH`` radians of the former is refused before the first product."""

    @pytest.fixture
    def no_steps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp reached")
        monkeypatch.setattr(oracle, "solve_ivp", refuse)

    def test_bound_is_on_the_fastest_frequency_times_t(self, params, small_grid,
                                                       no_steps):
        fastest = np.abs(amplitude_generator(
            OdeRun(params=params, grid=small_grid)).diagonal()).max()
        t_edge = oracle.MAX_REACH / fastest
        with pytest.raises(AssertionError, match="solve_ivp reached"):
            integrate_amplitudes(OdeRun(params=params, grid=small_grid,
                                        t_span=(0.0, 0.999 * t_edge)))
        with pytest.raises(ConfigurationError, match="rad"):
            integrate_amplitudes(OdeRun(params=params, grid=small_grid,
                                        t_span=(0.0, 1.001 * t_edge)))

    def test_nan_frequency_is_refused(self, params, small_grid, no_steps):
        run = OdeRun(params=params, grid=small_grid, p=np.nan, t_span=(0.0, 1.0))
        with pytest.raises(ConfigurationError, match="nan rad"):
            integrate_amplitudes(run)


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
        check = ww_rate_check(dataclasses.replace(grid, coupling_ref=0.0), params)
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

    def test_recoil_offset_adds_its_square_to_the_second_moment(self, params):
        """On the diagonal the phase weights are 1, so the quadrature is the
        density averaged over shifts s (sin phi + sin phi'): its second moment
        in x grows by s^2 E[(sin phi + sin phi')^2] = s^2 exactly, as the
        rectangle rule is exact for that average at n_phi >= 3."""
        lam = params.wavelength
        width = lam / 2.0
        sc = Scenario.single(width=width)
        # Each photon changes the relative momentum by half of its own
        # hbar omega0 / c along sin(phi), and x moves at p / mu: s = width here.
        kick = params.hbar * params.omega0 / params.c
        t = 2.0 * params.mu * width / kick
        s = kick / 2.0 * t / params.mu
        # The densities are sums of Gaussians of spread 1.05 width, which the
        # rectangle rule integrates to rounding at this step (0.53 width).
        xs = np.linspace(-8.0 * lam, 8.0 * lam, 61)

        def second_moment(offset):
            rho = [density_quadrature(x, x, t, sc, params, n_phi=128,
                                      include_offset=offset).real for x in xs]
            return np.add.reduce(xs**2 * np.array(rho)) * (xs[1] - xs[0])
        assert second_moment(True) - second_moment(False) == pytest.approx(
            s * s, rel=1e-10)
