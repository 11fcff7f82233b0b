"""Acceptance criteria.

One test per shipped guarantee, each at its stated tolerance and runtime
budget.  Every test prints a single summary line with the measured margins
(visible in captured output), then asserts; the pytest verdict line is the
pass/fail record.
"""

import json
import time
import warnings

import numpy as np
import pytest

from conftest import run_cli
from recoilsim.amplitudes import (amplitude_d, amplitude_d_infinity,
                                  closed_form_state)
from recoilsim.core import ModelParams, ModeGrid
from recoilsim.density import (GaussianPacket, Scenario, SpatialGrid,
                               ValidityWarning, coherence_length,
                               decoherence_factor, psi_free, reduced_density,
                               scenario_sweep)
from recoilsim.oracle import (OdeRun, density_quadrature, integrate_amplitudes,
                              max_decay_error)
from recoilsim.specfun import j0_quadrature_oracle

EINV_SEPARATION = 0.42202459528465086   # F = 1/e at this many wavelengths


def test_criterion_1_decoherence_factor_curve(params):
    """F(0) = 1 exactly, F vanishes at the first Bessel null, and the
    golden point F(lambda/pi) = J0(1)^2 agrees with the quadrature oracle."""
    start = time.perf_counter()
    lam = params.wavelength

    for x in (0.0, 0.37, -2.5 * lam):
        assert decoherence_factor(x, x, params) == 1.0

    f_null = decoherence_factor(2.404825558 * lam / np.pi, 0.0, params)
    f_golden = decoherence_factor(lam / np.pi, 0.0, params)
    oracle = j0_quadrature_oracle(1.0, n=1024) ** 2
    golden_dev = abs(f_golden - oracle)
    elapsed = time.perf_counter() - start

    ok = f_null < 1e-12 and golden_dev <= 1e-10 and elapsed < 1.0
    print(f"criterion 1 [{'PASS' if ok else 'FAIL'}]: F(null) = {f_null:.2e}"
          f" < 1e-12; |F(lam/pi) - oracle| = {golden_dev:.2e} <= 1e-10;"
          f" runtime {elapsed:.3f}s < 1s")
    assert f_null < 1e-12
    assert golden_dev <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_quadrature_matches_factorization(params):
    """The angle-resolved double quadrature for the traced density (recoil
    offset zeroed) factorizes into psi psi* J0^2 on a 16 x 16 grid."""
    start = time.perf_counter()
    lam = params.wavelength
    sc = Scenario.single(width=lam / 2.0)
    t = 2.0 / params.gamma

    xs = np.linspace(-2.0 * lam, 2.0 * lam, 16)
    quad = np.empty((16, 16), dtype=complex)
    for i, x in enumerate(xs):
        for j, xp in enumerate(xs):
            quad[i, j] = density_quadrature(x, xp, t, sc, params, n_phi=128,
                                            include_offset=False)
    psi = psi_free(xs, t, sc, params)
    fact = np.multiply.outer(psi, psi.conj()) * decoherence_factor(
        xs[:, None], xs[None, :], params)
    rel = np.abs(quad - fact).max() / np.abs(fact).max()
    elapsed = time.perf_counter() - start

    ok = rel <= 1e-8 and elapsed < 10.0
    print(f"criterion 2 [{'PASS' if ok else 'FAIL'}]: max rel deviation"
          f" {rel:.2e} <= 1e-8; runtime {elapsed:.2f}s < 10s")
    assert rel <= 1e-8
    assert elapsed < 10.0


def test_criterion_3_discrete_mode_decay(big_trajectory):
    """A 401-mode, 50-linewidth bath integration reproduces exponential
    decay of the excited population and conserves the sector norm."""
    traj = big_trajectory["trajectory"]
    elapsed = big_trajectory["elapsed"]

    decay_err = max_decay_error(traj)
    drift = np.abs(traj.norms - 1.0).max()

    ok = decay_err <= 0.05 and drift <= 1e-8 and elapsed < 60.0
    print(f"criterion 3 [{'PASS' if ok else 'FAIL'}]: decay error"
          f" {decay_err:.3%} <= 5%; norm drift {drift:.2e} <= 1e-8;"
          f" oracle runtime {elapsed:.1f}s < 60s")
    assert decay_err <= 0.05
    assert drift <= 1e-8
    assert elapsed < 60.0


def test_criterion_4_closed_forms_vs_oracle(big_trajectory, params):
    """Closed-form amplitudes track the ODE oracle: A and B on the 401-mode
    run, D on an 8-mode grid within its recurrence window, and the two-photon
    limit at 30 lifetimes."""
    start = time.perf_counter()

    # A and B over gamma*t in [0, 5] on the shared 401-mode trajectory.
    traj = big_trajectory["trajectory"]
    grid = big_trajectory["grid"]
    p_big = big_trajectory["params"]
    a_cl = np.empty(len(traj.times), dtype=complex)
    b_cl = np.empty((len(traj.times), grid.n_modes), dtype=complex)
    for i, t in enumerate(traj.times):
        st = closed_form_state(grid, 0.0, t, p_big,
                               include_two_photon=False)
        a_cl[i] = st.a_val
        b_cl[i] = st.b_vals
    ref = np.concatenate([traj.a, traj.b.ravel()])
    dev = np.concatenate([a_cl, b_cl.ravel()]) - ref
    l2_ab = np.linalg.norm(dev) / np.linalg.norm(ref)

    # D on 8 modes, integrated only inside the grid's recurrence window,
    # where the error is pure discretization.
    p_d = ModelParams(omega0=1.0, mu=10.0, gamma=1e-4)
    grid8 = ModeGrid.build(p_d, n_k=8, bandwidth_gammas=10.0, n_phi=1)
    t_rec = 2.0 * np.pi / (p_d.c * grid8.spacing)
    t_final = 0.8 * t_rec
    run = OdeRun(params=p_d, grid=grid8, p=0.0, t_span=(0.0, t_final),
                 sample_times=np.linspace(0.0, t_final, 25), tol=1e-11)
    traj8 = integrate_amplitudes(run)
    d_cl, d_od = [], []
    for i, t in enumerate(traj8.times):
        st = closed_form_state(grid8, 0.0, t, p_d)
        d_cl.append(st.d_vals.ravel())
        d_od.append(traj8.state_at(i).d_vals.ravel())
    d_cl = np.concatenate(d_cl)
    d_od = np.concatenate(d_od)
    l2_d = np.linalg.norm(d_cl - d_od) / np.linalg.norm(d_od)

    # Long-time limit: D(30/gamma) against the closed stationary value.
    k0 = params.k0
    g_per_c = params.gamma / params.c
    k1 = k0 + 2.0 * g_per_c
    k2 = k0 - 2.0 * g_per_c
    g0 = ModeGrid.build(params, n_k=401, bandwidth_gammas=50.0).coupling_ref
    c1 = g0 * np.sqrt(k1 / k0)
    c2 = g0 * np.sqrt(k2 / k0)
    t_late = 30.0 / params.gamma
    d_late = amplitude_d(k1, 0.0, k2, 0.0, 0.0, t_late, params,
                         coupling=c1, coupling2=c2)
    lim = complex(amplitude_d_infinity(k1, 0.0, k2, 0.0, 0.0, params,
                                       coupling=c1, coupling2=c2))
    rel_inf = abs(d_late - lim) / abs(lim)
    elapsed = time.perf_counter() - start + big_trajectory["elapsed"]

    ok = l2_ab <= 0.05 and l2_d <= 0.05 and rel_inf <= 1e-6 and elapsed < 60.0
    print(f"criterion 4 [{'PASS' if ok else 'FAIL'}]: L2(A,B) ="
          f" {l2_ab:.3%} <= 5%; L2(D) = {l2_d:.3%} <= 5%; |D(30/g)| vs limit"
          f" {rel_inf:.2e} <= 1e-6; runtime {elapsed:.1f}s < 60s")
    assert l2_ab <= 0.05
    assert l2_d <= 0.05
    assert rel_inf <= 1e-6
    assert elapsed < 60.0


def test_criterion_5_free_schrodinger_evolution(params):
    """The evolved Gaussian satisfies the free-particle equation to a
    finite-difference oracle, keeps unit norm, and matches the closed-form
    width at the three default sample times."""
    start = time.perf_counter()
    lam = params.wavelength
    sc = Scenario.single(width=lam / 2.0)
    packet = GaussianPacket(0.0, lam / 2.0)
    hbar, mu = params.hbar, params.mu
    delta = 0.25

    worst_resid = worst_norm = worst_width = 0.0
    for gamma_t in (2.0, 3.0, 5.0):
        t = gamma_t / params.gamma

        # i hbar psi_t = -(hbar^2 / 2 mu) psi_xx, five-point second
        # derivative against a central time difference.
        x = np.linspace(-30.0, 30.0, 401)
        h = x[1] - x[0]
        psi0 = psi_free(x, t, sc, params)
        lhs = 1j * hbar * (psi_free(x, t + delta, sc, params)
                           - psi_free(x, t - delta, sc, params)) / (2 * delta)
        psi_xx = (-psi0[:-4] + 16 * psi0[1:-3] - 30 * psi0[2:-2]
                  + 16 * psi0[3:-1] - psi0[4:]) / (12 * h * h)
        rhs = -(hbar * hbar) / (2 * mu) * psi_xx
        resid = np.abs(lhs[2:-2] - rhs).max() / np.abs(psi0).max()
        worst_resid = max(worst_resid, resid)

        # Norm and width on a grid wide enough that the tails are exhausted.
        sigma = packet.sigma(t, params)
        xw = np.linspace(-12.0 * sigma, 12.0 * sigma, 8001)
        prob = np.abs(psi_free(xw, t, sc, params)) ** 2
        norm = np.trapezoid(prob, xw)
        width = np.sqrt(np.trapezoid(xw * xw * prob, xw) / norm)
        worst_norm = max(worst_norm, abs(norm - 1.0))
        worst_width = max(worst_width, abs(width - sigma) / sigma)
    elapsed = time.perf_counter() - start

    ok = (worst_resid <= 1e-4 and worst_norm <= 1e-8
          and worst_width <= 1e-6 and elapsed < 5.0)
    print(f"criterion 5 [{'PASS' if ok else 'FAIL'}]: residual"
          f" {worst_resid:.2e} <= 1e-4 of max|psi|; norm error"
          f" {worst_norm:.2e} <= 1e-8; width error {worst_width:.2e} <= 1e-6;"
          f" runtime {elapsed:.2f}s < 5s")
    assert worst_resid <= 1e-4
    assert worst_norm <= 1e-8
    assert worst_width <= 1e-6
    assert elapsed < 5.0


def test_criterion_6_localization(params):
    """Emission localizes the relative coordinate: normalized coherence
    equals the decoherence factor identically, the far off-diagonal mass is
    suppressed for a wide superposition, and the coherence length saturates
    at the factor's 1/e separation regardless of the initial width."""
    start = time.perf_counter()
    lam = params.wavelength
    grid = SpatialGrid.linspace(-8.0 * lam, 8.0 * lam, 321)

    # (a) normalized coherence == F wherever the diagonal has support.
    # gamma*t = 2 sits in the soft-gate band, which warns by design.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        dg = reduced_density(grid, 2.0 / params.gamma,
                             Scenario.single(width=lam / 2.0), True, params)
    diag = dg.diagonal
    scale = np.sqrt(np.multiply.outer(diag, diag))
    mask = scale > 1e-9 * diag.max()
    x = grid.x_values
    f_mat = decoherence_factor(x[:, None], x[None, :], params)
    coh_dev = np.abs(np.abs(dg.rho) / scale - f_mat)[mask].max()

    # (b) superposition with a = 2 lambda, heavy atoms, t = 1000/gamma:
    # almost all coherence beyond one wavelength of separation is gone.
    p_heavy = ModelParams(omega0=1.0, mu=800.0, gamma=0.01)
    g_wide = SpatialGrid.linspace(-12.0 * lam, 12.0 * lam, 481)
    sc_sup = Scenario.superposition(center_offset=2.0 * lam, width=lam / 2.0)
    t_long = 1000.0 / p_heavy.gamma
    on = reduced_density(g_wide, t_long, sc_sup, True, p_heavy)
    off = reduced_density(g_wide, t_long, sc_sup, False, p_heavy)
    band_ratio = on.off_band_mass(lam) / off.off_band_mass(lam)

    # (c) coherence-length saturation, independent of initial width.
    times = np.array([2.0, 3.0, 5.0]) / params.gamma
    saturation = EINV_SEPARATION * lam
    worst_sat = 0.0
    monotone = True
    for d in (lam / 4.0, lam / 2.0, lam):
        scd = Scenario.single(width=d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            runs_on = scenario_sweep(scd, times, True, grid, params)
            runs_off = scenario_sweep(scd, times, False, grid, params)
        final = coherence_length(runs_on[-1])
        assert final.crossed
        worst_sat = max(worst_sat, abs(final.length - saturation) / saturation)
        lengths_off = [coherence_length(r).length for r in runs_off]
        monotone = monotone and all(b > a for a, b in
                                    zip(lengths_off, lengths_off[1:]))
    elapsed = time.perf_counter() - start

    ok = (coh_dev <= 1e-12 and band_ratio < 0.05 and worst_sat <= 0.10
          and monotone and elapsed < 120.0)
    print(f"criterion 6 [{'PASS' if ok else 'FAIL'}]: |coherence - F|"
          f" {coh_dev:.2e} <= 1e-12; off-band ratio {band_ratio:.4f} < 0.05;"
          f" saturation deviation {worst_sat:.2%} <= 10%;"
          f" free growth monotone = {monotone}; runtime {elapsed:.1f}s < 120s")
    assert coh_dev <= 1e-12
    assert band_ratio < 0.05
    assert worst_sat <= 0.10
    assert monotone
    assert elapsed < 120.0


def test_criterion_7_cli_contract(default_evolve_runs, small_modes_config,
                                  tmp_path_factory, tmp_path):
    """The three subcommands are byte-reproducible on default configs, and
    the engineered failure paths exit with the documented codes."""
    first, second = default_evolve_runs
    for gamma_t in (2, 3, 5):
        for tag in ("on", "off"):
            name = f"density_gt{gamma_t:g}_{tag}.csv"
            assert (first / name).read_bytes() == (second / name).read_bytes()
    summaries = []
    for where in (first, second):
        payload = json.loads((where / "evolve_summary.json").read_text())
        payload.pop("generated")
        summaries.append(payload)
    assert summaries[0] == summaries[1]

    def rerun_identical(argv, filename):
        dirs = [tmp_path_factory.mktemp(f"rep-{filename}-{i}") for i in (0, 1)]
        for where in dirs:
            assert run_cli(argv, where) == 0
        assert ((dirs[0] / filename).read_bytes()
                == (dirs[1] / filename).read_bytes())

    rerun_identical(["decoherence-factor"], "decoherence_factor.csv")
    rerun_identical(["oracle", "--which", "quadrature"],
                    "oracle_quadrature.csv")
    rerun_identical(["oracle", "--which", "rate"], "oracle_rate.csv")
    rerun_identical(["oracle", "--which", "amplitudes",
                     "--config", str(small_modes_config)],
                    "oracle_amplitudes.csv")

    # Engineered failures: the hard validity gate (exit 2, nothing written)
    # and an oracle tolerance breach from a truncated bandwidth (exit 3).
    gate_dir = tmp_path / "gate"
    early = tmp_path / "early.json"
    early.write_text(json.dumps({"times": [0.5]}))
    assert run_cli(["evolve", "--config", str(early)], gate_dir) == 2
    assert list(gate_dir.iterdir()) == []

    narrow = tmp_path / "narrow.json"
    narrow.write_text(json.dumps({"modes": {"n_k": 101,
                                            "bandwidth_gammas": 4.0}}))
    assert run_cli(["oracle", "--which", "rate", "--config", str(narrow)],
                   tmp_path / "breach") == 3

    print("criterion 7 [PASS]: evolve/decoherence-factor/oracle outputs"
          " byte-identical across reruns; validity gate exits 2 with no"
          " partial files; truncated-band oracle exits 3")
