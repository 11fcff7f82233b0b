"""Brute-force integration and quadrature oracles: their own invariants.

The oracles earn their role by being dumb and conservative.  These tests pin
the properties that make them trustworthy -- conserved norm, determinism,
correct free limits, golden-rule calibration.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import examples
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
        for bad in ([0.5, 0.2], [0.1], [0.0, 2.0], [0.0, np.nan, 0.5], [np.nan, 0.5]):
            with pytest.raises(ConfigurationError):
                OdeRun(params=params, grid=small_grid, t_span=(0.0, 1.0),
                       sample_times=np.asarray(bad))

    def test_default_sampling_is_51_points(self, params, small_grid):
        run = OdeRun(params=params, grid=small_grid, t_span=(0.0, 2.0))
        assert np.array_equal(run.times, np.linspace(0.0, 2.0, 51))


class TestFreeLimit:
    def test_zero_coupling_leaves_the_atoms_excited(self, params, small_grid):
        # Kept short: the norm-drift gate allows only 10*tol of integrator
        # accumulation, which a multi-lifetime free run would exceed.  In the
        # rotating frame A's frequency is 0.
        free = dataclasses.replace(small_grid, coupling_ref=0.0)
        t_final = 0.2 / params.gamma
        run = OdeRun(params=params, grid=free, t_span=(0.0, t_final), tol=1e-10)
        traj = integrate_amplitudes(run)
        assert np.max(np.abs(traj.a - 1.0)) <= 1e-8
        # Nothing sources the photon sectors, so they stay exactly zero.
        assert np.all(traj.b == 0.0)
        assert np.all(traj.d_data == 0.0)


def _digests_at_one_and_two_threads(*lines):
    """Run ``lines``, which define ``run`` and ``checked``, in two fresh
    interpreters at one and two OpenBLAS threads: each one's ``checked`` and
    the SHA-256 of its trajectory's ``y``, every byte of it."""
    script = "\n".join([
        "import hashlib",
        "import numpy as np",
        "from recoilsim.core import ModelParams, ModeGrid",
        "from recoilsim import oracle",
        "params = ModelParams(omega0=1.0, mu=10.0, gamma=0.01)",
        *lines,
        "y = oracle.integrate_amplitudes(run).y",
        "print(checked, hashlib.sha256(y.tobytes()).hexdigest())",
    ])
    checked, digests = [], []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        value, digest = proc.stdout.split()
        checked.append(value)
        digests.append(digest)
    return checked, digests


class TestConservationAndDeterminism:
    def test_norm_is_conserved(self, small_traj):
        drift = np.max(np.abs(small_traj.norms - 1.0))
        assert drift <= 1e-9
        assert small_traj.norm_drift == drift

    def test_a_drifting_norm_raises(self, params, small_grid, monkeypatch):
        # Every amplitude 1e-6 too large: the norm drifts by about 2e-6, far
        # beyond 10 * tol.
        solve = oracle.solve_ivp
        monkeypatch.setattr(oracle, "solve_ivp",
                            lambda *args, **kwargs: solve(*args, **kwargs) * (1.0 + 1e-6))
        run = OdeRun(params=params, grid=small_grid,
                     t_span=(0.0, 2.0 / params.gamma), tol=1e-10)
        with pytest.raises(oracle.NormDriftFailure, match=r"drifted by 2\.0\d\de-06"):
            integrate_amplitudes(run)

    def test_reruns_are_bit_identical(self, params, small_grid, small_traj):
        run = OdeRun(params=params, grid=small_grid,
                     t_span=(0.0, 2.0 / params.gamma), tol=1e-10)
        again = integrate_amplitudes(run)
        assert np.array_equal(again.a, small_traj.a)
        assert np.array_equal(again.b, small_traj.b)
        assert np.array_equal(again.d_data, small_traj.d_data)

    def test_samples_are_stored_once(self, small_traj, monkeypatch):
        # y is the propagator's own C-contiguous sample array, not a copy; a,
        # b and d_data are read-only views of it, and the populations are
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
        assert y.flags.c_contiguous
        for view in (traj.a, traj.b, traj.d_data):
            assert view.base is y and not view.flags.writeable
        assert np.array_equal(traj.d_data[:, -1], y[:, -1])
        pops = traj.sector_populations
        assert traj.sector_populations is pops
        assert not pops.flags.writeable

    def test_kicked_samples_are_bit_identical_on_two_threads(self):
        # A kicked grid, whose diagonal's range is not centred on 0, so [-R, R]
        # is wider than that range plus the coupling bound.
        checked, digests = _digests_at_one_and_two_threads(
            "grid = ModeGrid.build(params, n_k=40, bandwidth_gammas=20.0, n_phi=4)",
            "run = oracle.OdeRun(params=params, grid=grid,",
            "                    t_span=(0.0, 5.0 / params.gamma), tol=1e-10)",
            "d = oracle.amplitude_generator(run).diagonal",
            "checked = d.min() + d.max() != 0.0")
        assert checked == ["True", "True"]
        assert digests[0] == digests[1]

    def test_many_samples_are_bit_identical_on_two_threads(self):
        # 400 samples, where a chunk sized for the default 51 samples would
        # make each block sum a GEMM that OpenBLAS spreads over two threads.
        checked, digests = _digests_at_one_and_two_threads(
            "grid = ModeGrid.build(params, n_k=40, bandwidth_gammas=50.0)",
            "t1 = 5.0 / params.gamma",
            "run = oracle.OdeRun(params=params, grid=grid, t_span=(0.0, t1),",
            "                    sample_times=np.linspace(0.0, t1, 400), tol=1e-10)",
            "checked = run.times.size")
        assert checked == ["400", "400"]
        assert digests[0] == digests[1]

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

    def test_records_copy_the_callers_arrays(self, small_traj):
        # A record freezes its own copy of the times; the array it was given
        # stays the caller's to write.  Trajectory.y alone is taken over (see
        # above).
        st = np.array(small_traj.times)
        traj = oracle.Trajectory(run=small_traj.run, times=st, y=small_traj.y)
        assert st.flags.writeable and not traj.times.flags.writeable
        assert not np.shares_memory(st, traj.times)

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
    p, w0 = 0.0, params.omega0
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


def dense(h):
    """The generator as a dense matrix, column ``i`` its product with ``e_i``."""
    return np.column_stack([h @ e for e in np.eye(h.diagonal.size)])


class TestAmplitudeGenerator:
    @pytest.mark.parametrize("n_k, n_phi", [(6, 1), (2, 3), (7, 1), (3, 4)])
    def test_matches_term_by_term_equations(self, params, n_k, n_phi):
        grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=12.0, n_phi=n_phi)
        run = OdeRun(params=params, grid=grid, t_span=(0.0, 1.0))
        h = amplitude_generator(run)
        n = grid.n_modes
        pairs = n * (n + 1) // 2
        # Real and contiguous: a strided view would be copied on every product.
        assert h.diagonal.shape == (1 + n + pairs,)
        assert h.pair.shape == (n, n)
        # A product gathers B_r for pair {r, c} by repeating B_r n - r times,
        # which is the packed triangle's row order.
        rows, cols, _ = oracle._pairs(n)
        assert np.array_equal(np.repeat(np.arange(n), np.arange(n, 0, -1)), rows)
        assert np.array_equal(h.cols, cols)
        for name, array in h._asdict().items():
            assert array.flags.c_contiguous, name
            if name not in ("cols", "pair"):
                assert array.dtype == np.float64, name
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

    @pytest.fixture(scope="class")
    def tiny(self, params):
        """A 6-mode run with uneven sample times, the first above 0, its
        generator and the start ``e_0``."""
        grid = ModeGrid.build(params, n_k=6, bandwidth_gammas=12.0)
        g = params.gamma
        times = np.array([0.3, 0.35, 1.1, 1.9, 2.0]) / g
        run = OdeRun(params=params, grid=grid, t_span=(0.0, 2.0 / g), sample_times=times)
        h = amplitude_generator(run)
        y0 = np.zeros(h.diagonal.size)
        y0[0] = 1.0
        return run, h, y0

    def test_matches_the_dense_exponential(self, tiny):
        from scipy.linalg import expm
        run, h, y0 = tiny
        traj = integrate_amplitudes(run)
        exact = np.array([expm(-1j * dense(h) * t) @ y0 for t in run.times])
        assert np.max(np.abs(traj.y - exact)) <= 1e-12

    def test_a_moved_diagonal_matches_the_dense_exponential(self, tiny):
        # H + s I moves the diagonal's range off 0, as a relative momentum p
        # moves it by p^2 / 2 mu; [-R, R] still encloses the spectrum, and
        # its terms sum to the phase e^{-ist} that s adds.
        from scipy.linalg import expm
        run, h, y0 = tiny
        shift = 0.6**2 / (2.0 * run.params.mu)
        moved = h._replace(diagonal=h.diagonal + shift)
        d = moved.diagonal
        assert d.min() + d.max() > 0.05 * (d.max() - d.min())
        y = oracle.solve_ivp(lambda t, x: moved @ x, run.t_span, y0, t_eval=run.times,
                             radius=oracle._radius(moved))
        exact = np.array([expm(-1j * dense(moved) * t) @ y0 for t in run.times])
        assert np.max(np.abs(y - exact)) <= 1e-12

    def test_a_small_real_matrix_at_any_sample(self):
        # Samples before t_span's start, past its end and from a start other
        # than 0 are summed like any other.
        from scipy.linalg import expm
        h = np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.2], [0.0, 0.2, 2.0]])
        y0 = np.array([1.0, 0.5, -0.25])
        times = np.array([-1.5, 1.0, 2.5, 4.0, 6.0])
        # Gershgorin's: the spectrum lies in [-0.5 - 0.5, 2.0 + 0.2].
        y = oracle.solve_ivp(lambda t, x: h @ x, (0.5, 5.0), y0, t_eval=times,
                             radius=2.2)
        assert y.shape == (5, 3) and y.dtype == complex
        for t, state in zip(times, y):
            exact = expm(-1j * h * (t - 0.5)) @ y0
            assert np.max(np.abs(state - exact)) <= 1e-12

    def test_zero_width_interval_is_exact_without_warnings(self):
        # H = 0: the interval has no width, so the series is its first term.
        # pytest turns any RuntimeWarning (a division by the radius) into an error.
        times, calls = np.array([0.5, 3.0]), []

        def fun(t, x):
            calls.append(t)
            return 0.0 * x
        y = oracle.solve_ivp(fun, (0.0, 3.0), np.array([1.0]), t_eval=times,
                             radius=0.0)
        assert np.array_equal(y, np.ones((2, 1)))
        assert len(calls) == oracle.term_count(0.0, 3.0) == 30

    def test_product_count_is_known_before_the_first_product(self, small_traj,
                                                               monkeypatch):
        run = small_traj.run
        count = oracle.term_count(oracle._radius(amplitude_generator(run)),
                                  run.times[-1])
        assert count_products(run, monkeypatch)[1] == count > 0

    @pytest.mark.parametrize("n_k, n_phi, bandwidth", [
        (6, 1, 12.0),
        (3, 3, 12.0),
        (7, 4, 12.0),
        (5, 2, oracle.MIN_BANDWIDTH_GAMMAS),
    ])
    def test_interval_encloses_the_spectrum(self, params, n_k, n_phi, bandwidth):
        # H is similar to a symmetric matrix, so its spectrum is real.
        grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=bandwidth, n_phi=n_phi)
        h = amplitude_generator(OdeRun(params=params, grid=grid, t_span=(0.0, 1.0)))
        radius = oracle._radius(h)
        eig = np.linalg.eigvals(dense(h))
        assert np.abs(eig.imag).max() <= 1e-12
        assert -radius <= eig.real.min() and eig.real.max() <= radius

    def test_interval_encloses_a_diagonal_largest_below_zero(self):
        # A kicked grid's recoil energies move its diagonal up, at mu = 1 by
        # more than the coupling bound b; negated, the diagonal's largest
        # magnitude is its most negative entry, and the spectrum reaches
        # below -(max(diagonal) + b).
        params = ModelParams(omega0=1.0, mu=1.0, gamma=0.01)
        grid = ModeGrid.build(params, n_k=5, bandwidth_gammas=12.0, n_phi=3)
        h = amplitude_generator(OdeRun(params=params, grid=grid, t_span=(0.0, 1.0)))
        flipped = h._replace(diagonal=-h.diagonal)
        d = flipped.diagonal
        radius = oracle._radius(flipped)
        eig = np.linalg.eigvals(dense(flipped))
        assert np.abs(eig.imag).max() <= 1e-12
        assert eig.real.min() < -(d.max() + radius - np.abs(d).max())
        assert -radius <= eig.real.min() and eig.real.max() <= radius

    def test_product_count_does_not_grow_with_the_mode_count(self, params):
        # At the default band and span, twice the modes carry couplings 1/sqrt(2)
        # as strong, and the interval, so the product count, stays put.
        def count(n_k):
            grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=50.0)
            run = OdeRun(params=params, grid=grid, t_span=(0.0, 5.0 / params.gamma))
            return oracle.term_count(oracle._radius(amplitude_generator(run)),
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
        radius = oracle._radius(amplitude_generator(run))
        assert products == oracle.term_count(radius, traj.times[-1])

    def test_block_sums_stay_on_one_blas_thread(self, monkeypatch):
        # OpenBLAS runs a GEMM of m n k <= 65536 * 4 = 2**18 on one thread
        # (interface/gemm.c); a block sum is a chunk of columns, the step of
        # solve_ivp's range over them, by BLOCK / 2 terms by the samples.
        steps = []

        def spy(*args):
            if len(args) == 3 and args[2] > 0:
                steps.append(args[2])
            return range(*args)
        monkeypatch.setattr(oracle, "range", spy, raising=False)
        half = oracle.BLOCK // 2
        for samples in (2, 51, 400, 2000, 2**14):
            steps.clear()
            oracle.solve_ivp(lambda t, x: 0.5 * x, (0.0, 1.0), np.ones(3),
                             t_eval=np.linspace(0.0, 1.0, samples), radius=0.5)
            chunk, = set(steps)
            assert chunk * half * samples <= 2**18 < (chunk + 1) * half * samples

    def test_a_ragged_last_chunk_sums_like_the_rest(self, small_traj):
        # Each of the 51 samples 20 times over: 1020 samples make chunks of
        # 2**18 // (16 * 1020) = 16 columns, which do not divide dim = 325, so
        # the last piece of every update is partial, as the default's is at
        # 400 modes (80 601 = 251 * 321 + 30).
        run = small_traj.run
        h = amplitude_generator(run)
        e0 = np.zeros(h.diagonal.size)
        e0[0] = 1.0
        assert e0.size % 16 and 2**18 // ((oracle.BLOCK // 2) * 1020) == 16
        y = oracle.solve_ivp(lambda t, x: h @ x, run.t_span, e0,
                             t_eval=np.repeat(run.times, 20), radius=oracle._radius(h))
        assert np.allclose(y[::20], small_traj.y, rtol=0.0, atol=1e-15)

    def test_a_ragged_block_sums_like_the_rest(self, small_traj, monkeypatch):
        # 6, even as BLOCK must be, divides neither the 129 products, nor the
        # 130 terms, nor dim = 325: the last block holds 4 of its 6 rows (the
        # default's 672 terms fill 21 blocks of 32).
        run = small_traj.run
        products = oracle.term_count(oracle._radius(amplitude_generator(run)),
                                     run.times[-1])
        dim = small_traj.y.shape[1]
        assert products % 6 and (products + 1) % 6 and dim % 6
        monkeypatch.setattr(oracle, "BLOCK", 6)
        again = integrate_amplitudes(run)
        assert np.allclose(again.y, small_traj.y, rtol=0.0, atol=1e-15)


class TestLinearity:
    """The amplitude equations are linear, and so is ``solve_ivp``: the run
    from a sum of two starts is the sum of their runs, and the run from a
    start scaled by a power of two is its run scaled alike, bit for bit, as
    such a scaling changes the rounding of no product or sum."""

    @given(n_k=st.integers(8, 16), n_phi=st.integers(1, 4),
           bandwidth=st.floats(oracle.MIN_BANDWIDTH_GAMMAS, 50.0),
           gamma_t=st.floats(0.5, 5.0), seed=st.integers(0, 2**32 - 1),
           s=st.integers(-30, 40))
    @settings(max_examples=examples(20), deadline=None)
    def test_solve_ivp_is_linear(self, params, n_k, n_phi, bandwidth, gamma_t, seed, s):
        grid = ModeGrid.build(params, n_k=n_k, bandwidth_gammas=bandwidth, n_phi=n_phi)
        t1 = gamma_t / params.gamma
        run = OdeRun(params=params, grid=grid, t_span=(0.0, t1),
                     sample_times=np.linspace(0.0, t1, 6))
        h = amplitude_generator(run)
        radius = oracle._radius(h)

        def solve(y0):
            return oracle.solve_ivp(lambda t, x: h @ x, run.t_span, y0,
                                    t_eval=run.times, radius=radius)

        rng = np.random.default_rng(seed)
        y0, z0 = rng.standard_normal((2, h.diagonal.size))
        y = solve(y0)
        assert np.array_equal(solve(2.0**s * y0), 2.0**s * y)
        both = solve(y0 + z0)
        assert np.abs(both - (y + solve(z0))).max() <= 1e-13 * np.abs(both).max()


class TestBesselCoefficients:
    """The propagator's ``J_k`` table against scipy's ``jv``, which only this
    test imports, at the orders the longest run allowed asks for."""

    # 558 is about the default run's reach, its half-width 1.116 times 5 / gamma.
    ARGUMENTS = np.array([0.0, 1e-3, 1.0, 37.5, 558.0, oracle.MAX_REACH])
    ORDER = oracle.term_count(1.0, oracle.MAX_REACH)

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
        dim, n = h.diagonal.size, small_grid.n_modes
        # The pair-sized arrays, and the pair index with one product's gather of
        # D through it: n^2 floats, as many bytes as the index.
        arrays = (sum(a.nbytes for a in (h.cols, h.own, h.exchange))
                  + 2 * h.pair.nbytes)
        # A block sum's product covers at most 2**18 / (BLOCK / 2) entries of
        # the samples, all of them at 11 samples of 325 columns.
        piece = 2**18 // (oracle.BLOCK // 2)
        assert 11 * dim < piece < 51 * dim
        assert run.times.size == oracle.SAMPLE_COUNT == 51
        # The generator, the float64 block, eight vectors (the diagonal, the
        # start and a product's result, and a margin of five), the complex
        # samples once and one block sum's float64 product over a chunk.
        assert oracle.memory_estimate(n, 51) == \
            arrays + 8 * dim * (oracle.BLOCK + 8 + 2 * 51) + 8 * piece
        assert oracle.memory_estimate(n, 51) - oracle.memory_estimate(n, 11) \
            == 8 * (40 * 2 * dim + piece - 11 * dim)
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
        assert growth <= estimate <= 1.25 * growth

    def test_huge_grids_are_counted_without_building(self):
        for n in (10**6, 10**12):
            pairs = n * (n + 1) // 2
            # At least the 51 complex samples and the float64 block.
            assert oracle.memory_estimate(n, 51) > 16 * (51 + oracle.BLOCK // 2) * pairs


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
            OdeRun(params=params, grid=small_grid)).diagonal).max()
        t_edge = oracle.MAX_REACH / fastest
        with pytest.raises(AssertionError, match="solve_ivp reached"):
            integrate_amplitudes(OdeRun(params=params, grid=small_grid,
                                        t_span=(0.0, 0.999 * t_edge)))
        with pytest.raises(ConfigurationError, match="rad"):
            integrate_amplitudes(OdeRun(params=params, grid=small_grid,
                                        t_span=(0.0, 1.001 * t_edge)))

    def test_infinite_reach_is_refused(self, params, no_steps):
        # The two-photon offsets reach about 2 omega0, so a span of 1e308
        # takes the reach past the float range.
        grid = ModeGrid.build(params, n_k=4, bandwidth_gammas=99.0)
        run = OdeRun(params=params, grid=grid, t_span=(0.0, 1e308))
        with pytest.raises(ConfigurationError, match="inf rad"):
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
        recoil offset on moves matrix elements by well under 2%.  At the
        fixture's mu = 10 that t is gamma t = 0.0063, a time the emission
        gate refuses; test_recoil_drift_at_admitted_times covers those."""
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

    @pytest.mark.parametrize("mu, gamma_t, small", [(1e5, 5.0, True), (10.0, 1.0, False)])
    def test_recoil_drift_at_admitted_times(self, mu, gamma_t, small):
        """The drift s = hbar omega0 t / (2 mu c) that psi psi* J0^2 drops,
        at times the emission gate admits: at mu = 1e5, gamma t = 5, s is
        4e-4 lambda and moves rho(lambda/4, -lambda/4) by about 1e-6; at the
        CLI's default mu = 10, gamma t = 1, s is 0.8 lambda and moves it by
        more than itself, so the closed form does not hold there."""
        params = ModelParams(omega0=1.0, mu=mu, gamma=0.01)
        lam = params.wavelength
        sc = Scenario.single(width=lam / 2.0)
        t = gamma_t / params.gamma
        on, off = (density_quadrature(lam / 4.0, -lam / 4.0, t, sc, params, n_phi=128,
                                      include_offset=offset) for offset in (True, False))
        change = abs(on - off) / abs(off)
        assert change < 1e-5 if small else change > 1.0

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


def test_oracle_imports_nothing_from_the_closed_forms():
    # An oracle shares no algebra with the closed forms it checks: no import
    # in oracle.py may name the amplitudes module.
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not [name for name in names if "amplitudes" in name.split(".")]
