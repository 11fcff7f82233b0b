"""Command-line interface: config handling, files, formats, exit codes."""

import contextlib
import filecmp
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import examples, run_cli
from recoilsim import cli, oracle
from recoilsim.cli import DEFAULTS, load_config, main
from recoilsim.core import ConfigurationError, ModelParams
from recoilsim.density import (DensityGrid, Scenario, SpatialGrid, ValidityWarning,
                               decoherence_factor, psi_free, scenario_sweep)
from recoilsim.specfun import bessel_j0

EVOLVE_HEADER = "x_over_lambda,xp_over_lambda,re_rho,im_rho,abs_rho"


def _g(value) -> str:
    """``value`` as the CSV files print it, formatted one value at a time."""
    return format(float(value), ".17g")


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_no_file_returns_fresh_defaults(self):
        cfg = load_config(None)
        assert cfg == DEFAULTS
        cfg["params"]["gamma"] = 99.0
        assert DEFAULTS["params"]["gamma"] == 0.01

    def test_sections_merge_per_key(self, tmp_path):
        path = write_config(tmp_path, {"params": {"mu": 800.0},
                                       "grid": {"points": 481}})
        cfg = load_config(path)
        assert cfg["params"]["mu"] == 800.0
        assert cfg["params"]["gamma"] == 0.01       # untouched default
        assert cfg["grid"]["points"] == 481
        assert cfg["grid"]["min_over_lambda"] == -8.0

    def test_scenario_is_replaced_wholesale(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {
            "kind": "superposition", "width_over_lambda": 0.5,
            "center_offset_over_lambda": 2.0}})
        cfg = load_config(path)
        assert cfg["scenario"]["kind"] == "superposition"
        assert "center_over_lambda" not in cfg["scenario"]

    def test_numbers_come_back_as_floats_and_integers_as_integers(self, tmp_path):
        path = write_config(tmp_path, {"params": {"mu": 800}, "times": [5],
                                       "grid": {"points": 481}})
        cfg = load_config(path)
        assert type(cfg["params"]["mu"]) is float and cfg["times"] == [5.0]
        assert type(cfg["times"][0]) is float and type(cfg["grid"]["points"]) is int

    def test_single_scenario_center_defaults_to_zero(self, tmp_path):
        path = write_config(tmp_path, {"scenario": {"kind": "single",
                                                    "width_over_lambda": 0.25}})
        assert load_config(path)["scenario"] == {
            "kind": "single", "width_over_lambda": 0.25, "center_over_lambda": 0.0}

    @pytest.mark.parametrize("payload", [
        {"unknown_section": {}},
        {"grid": {"n_points": 5}},
        {"scenario": {"kind": "single", "width_over_lambda": 0.5,
                      "center_offset_over_lambda": 1.0}},
        {"scenario": {"kind": "triple", "width_over_lambda": 0.5}},
        {"times": "3,5"},
        {"times": [2.0, "x"]},
        {"modes": {"flat_coupling": "yes"}},
        {"modes": {"n_k": 400.5}},
        {"modes": {"n_k": True}},
        {"decoherence": {"points": 1}},
        {"decoherence": {"max_dx_over_lambda": -1.0}},
        {"output": {"dir": 7}},
        {"params": {"mu": 10**400}},     # an integer no float can hold
        {"scenario": {"kind": "superposition", "width_over_lambda": 0,
                      "center_offset_over_lambda": 1}},
        {"times": [-5]},
        {"scenario": {"kind": "single"}},
        {"scenario": {"kind": "superposition", "width_over_lambda": 0.5}},
        {"scenario": {"kind": ["single"], "width_over_lambda": 0.5}},
    ])
    def test_rejects_malformed_configs(self, tmp_path, payload):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("payload, line", [
        ({"params": {"dipole": 0.2}}, "unknown params key(s): dipole"),
        ({"output": {"dir": "."}}, "unknown config key(s): output"),
    ], ids=["dipole", "output"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, payload, line):
        cfg = write_config(tmp_path, payload)
        assert run_cli(["decoherence-factor", "--config", cfg], tmp_path / "out") == 1
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_rejects_broken_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(str(path))


class TestDecoherenceFactorCommand:
    def test_default_table(self, tmp_path):
        assert run_cli(["decoherence-factor"], tmp_path) == 0
        lines = (tmp_path / "decoherence_factor.csv").read_text().splitlines()
        assert lines[0] == "dx_over_lambda,F"
        assert len(lines) == 1 + DEFAULTS["decoherence"]["points"]
        assert lines[1] == "0,1"

    def test_rows_round_trip_bit_exactly(self, tmp_path):
        assert run_cli(["decoherence-factor"], tmp_path) == 0
        lines = (tmp_path / "decoherence_factor.csv").read_text().splitlines()
        for line in lines[1:100:7]:
            dx_s, f_s = line.split(",")
            dx = float(dx_s)
            assert float(f_s) == bessel_j0(np.pi * dx) ** 2

    def test_table_reaches_a_bessel_null(self, tmp_path):
        # 600 points over 3 wavelengths lands within 1e-6 of the first null.
        assert run_cli(["decoherence-factor"], tmp_path) == 0
        lines = (tmp_path / "decoherence_factor.csv").read_text().splitlines()
        f = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert f.min() < 1e-6

    def test_custom_range(self, tmp_path):
        cfg = write_config(tmp_path, {"decoherence": {
            "points": 100, "max_dx_over_lambda": 1.5}})
        assert run_cli(["decoherence-factor", "--config", cfg], tmp_path) == 0
        lines = (tmp_path / "decoherence_factor.csv").read_text().splitlines()
        assert len(lines) == 101
        last_dx = float(lines[-1].split(",")[0])
        assert last_dx == pytest.approx(1.5 * 99 / 100, rel=1e-15)


class TestEvolveCommand:
    def test_default_run_file_census(self, default_evolve_runs):
        first, _ = default_evolve_runs
        names = sorted(p.name for p in first.iterdir())
        expected = sorted(
            [f"density_gt{gt:g}_{tag}.csv"
             for gt in (2, 3, 5) for tag in ("on", "off")]
            + ["evolve_summary.json"])
        assert names == expected

    def test_density_file_shape(self, default_evolve_runs):
        first, _ = default_evolve_runs
        lines = (first / "density_gt5_on.csv").read_text().splitlines()
        assert lines[0] == EVOLVE_HEADER
        n = DEFAULTS["grid"]["points"]
        assert len(lines) == 1 + n * n

    def test_summary_contents(self, default_evolve_runs):
        first, _ = default_evolve_runs
        summary = json.loads((first / "evolve_summary.json").read_text())
        assert set(summary) == {"generated", "runs"}
        runs = summary["runs"]
        assert len(runs) == 6
        by_key = {(r["gamma_t"], r["emission"]): r for r in runs}
        assert set(by_key) == {(gt, em) for gt in (2, 3, 5) for em in (True, False)}
        for r in runs:
            assert r["trace"] == pytest.approx(1.0, abs=1e-10)
            assert r["file"].startswith("density_gt")
            assert isinstance(r["coherence_crossed"], bool)
        # Emission kills coherence beyond the Bessel scale and purity with it.
        on5 = by_key[(5, True)]
        off5 = by_key[(5, False)]
        assert on5["purity"] < 0.5 < off5["purity"]
        assert on5["coherence_length_over_lambda"] < off5["coherence_length_over_lambda"]

    def test_times_and_emission_flags(self, tmp_path):
        cfg = write_config(tmp_path, {"times": [5]})
        out = tmp_path / "out"
        assert run_cli(["evolve", "--config", cfg, "--emission", "on"], out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["density_gt5_on.csv", "evolve_summary.json"]

    def test_negative_zero_time_is_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"times": [-0.0]})
        out = tmp_path / "out"
        assert run_cli(["evolve", "--emission", "off", "--config", cfg], out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["density_gt0_off.csv", "evolve_summary.json"]
        [run] = json.loads((out / "evolve_summary.json").read_text())["runs"]
        assert run["gamma_t"] == 0.0 and not np.signbit(run["gamma_t"])

    def test_each_warning_is_one_stderr_line_from_a_shell(self, tmp_path):
        # Python's own format adds a second line, a line of cli.py's source.
        proc = subprocess.run([sys.executable, "-m", "recoilsim", "evolve",
                               "--out", str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"warning: gamma*t = {gt} is marginal for the emission-traced density "
            "matrix (recommended gamma*t >= 5.0)" for gt in (2, 3)]

    def test_main_restores_the_warning_format(self, tmp_path):
        before = warnings.formatwarning
        cfg = write_config(tmp_path, {"times": [2]})
        with pytest.warns(ValidityWarning):
            assert run_cli(["evolve", "--config", cfg, "--emission", "on"],
                           tmp_path / "out") == 0
        assert warnings.formatwarning is before

    def test_empty_times_writes_only_the_summary(self, tmp_path):
        cfg = write_config(tmp_path, {"times": []})
        out = tmp_path / "out"
        assert run_cli(["evolve", "--config", cfg], out) == 0
        names = [p.name for p in out.iterdir()]
        assert names == ["evolve_summary.json"]
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["runs"] == []

    def test_validity_gate_leaves_no_partial_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"times": [0.5, 5]})
        out = tmp_path / "out"
        assert run_cli(["evolve", "--config", cfg], out) == 2
        assert "validity gate" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_gate_does_not_apply_without_emission(self, tmp_path):
        cfg = write_config(tmp_path, {"times": [0.5]})
        assert run_cli(["evolve", "--config", cfg, "--emission", "off"],
                       tmp_path / "out") == 0

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grids": {}})
        assert run_cli(["evolve", "--config", cfg], tmp_path) == 1
        assert "config error" in capsys.readouterr().err

    def test_out_colliding_with_a_file_exits_one(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.write_text("")
        cfg = write_config(tmp_path, {"times": []})
        assert main(["evolve", "--config", cfg, "--out", str(target)]) == 1
        assert "i/o error" in capsys.readouterr().err


class TestDiskPreflight:
    """``evolve`` refuses, before computing, CSVs that cannot fit on disk."""

    CONFIG = {"params": {"mu": 800.0}, "times": [5.0],
              "grid": {"min_over_lambda": -2.0, "max_over_lambda": 2.0, "points": 81}}

    def _free(self, monkeypatch, free):
        monkeypatch.setattr(cli.shutil, "disk_usage",
                            lambda path: SimpleNamespace(free=free))

    def test_refused_run_computes_and_writes_nothing(self, tmp_path, capsys,
                                                     monkeypatch):
        self._free(monkeypatch, 0)
        monkeypatch.setattr(cli, "scenario_sweep", None)  # calling it would raise
        out = tmp_path / "out"
        assert run_cli(["evolve", "--config", write_config(tmp_path, self.CONFIG)],
                       out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: grid.points = 81") and err.count("\n") == 1
        assert not any(out.iterdir())

    def test_run_that_fits_still_runs(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, self.CONFIG)
        assert run_cli(["evolve", "--config", cfg], tmp_path / "first") == 0
        csvs = sorted((tmp_path / "first").glob("*.csv"))
        assert len(csvs) == 2
        # The estimate never exceeds the true size: exactly that much room
        # is enough.
        self._free(monkeypatch, sum(path.stat().st_size for path in csvs))
        assert run_cli(["evolve", "--config", cfg], tmp_path / "second") == 0
        assert all((tmp_path / "second" / path.name).read_bytes() == path.read_bytes()
                   for path in csvs)


def _reference_rows(dg, x):
    """The density CSV lines formatted one value at a time; ``x`` are the
    grid's x values."""
    for i, xi in enumerate(x):
        yield "\n".join(f"{_g(xi)},{_g(xj)},{_g(v.real)},{_g(v.imag)},{_g(abs(v))}"
                         for xj, v in zip(x, dg.row(i)))


def _writer_dies(_job):
    os._exit(1)


_DENSITY_ROWS = cli._density_rows


def _dies_mid_file(dg, xs):
    """The density rows, but the gamma*t = 5 emission-on writer ends its
    process after five of them."""
    rows = _DENSITY_ROWS(dg, xs)
    if dg.emission and dg.t == 5.0 / DEFAULTS["params"]["gamma"]:
        yield from itertools.islice(rows, 5)
        os._exit(1)
    yield from rows


class TestDensityWriter:
    """``evolve``'s CSV bytes, whatever the template and the worker count."""

    PARAMS = ModelParams(omega0=1.0, mu=800.0, gamma=0.01)
    # Wide enough to hold 99 % of the superposition (a 2-lambda grid held 98 %).
    GRID = SpatialGrid.linspace(-3.0 * PARAMS.wavelength, 3.0 * PARAMS.wavelength, 121)
    X = GRID.x_values / PARAMS.wavelength

    def _assert_matches_reference(self, dg):
        rows = list(cli._density_rows(dg, cli._slots([self.X])))
        reference = [row + "\n" for row in _reference_rows(dg, self.X)]
        assert [row.decode("ascii") for row in rows] == reference
        return "".join(reference)

    def _assert_sweep_matches_reference(self, scenario, emission):
        times = [0.0, 5.0 / self.PARAMS.gamma]
        if emission:
            times = times[1:]  # the emission gate refuses t = 0
        for dg in scenario_sweep(scenario, times, emission, self.GRID, self.PARAMS):
            if not emission:
                assert (dg.factor == 1.0).all()
            self._assert_matches_reference(dg)

    SCENARIOS = [Scenario.single(width=PARAMS.wavelength / 2),
                 Scenario.superposition(center_offset=PARAMS.wavelength,
                                        width=PARAMS.wavelength / 2)]

    @pytest.mark.parametrize("emission", [True, False])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_rows_match_per_value_formatting(self, scenario, emission):
        self._assert_sweep_matches_reference(scenario, emission)

    @pytest.mark.parametrize("rows", [1, 5, 50, 200])
    @pytest.mark.parametrize("emission", [True, False])
    def test_rows_across_batches_match_per_value_formatting(
            self, rows, emission, monkeypatch):
        # Batches of one row, of a few, of a share that leaves a short last
        # batch, and of more rows than the 121-point grid has.
        monkeypatch.setattr(cli, "BATCH_LINES", rows * self.GRID.n)
        self._assert_sweep_matches_reference(self.SCENARIOS[1], emission)

    def test_an_overflowing_modulus_is_an_overflow_error(self):
        # |rho_01| = 1.9e308 from finite parts of 1.34e308: Python's abs
        # raises there, so the writer does, before it writes an inf field.
        # (The diagonal, 1.9e308, overflows in the product itself.)
        grid = SpatialGrid.linspace(-1.0, 1.0, 2)
        psi = 1e154 * np.array([1.0, np.exp(0.25j * np.pi)])
        dg = DensityGrid(grid=grid, psi=psi, factor=np.ones(2), t=0.0,
                         emission=False, norm_factor=1.9, params=self.PARAMS)
        with np.errstate(over="ignore"):
            entry = complex(dg.row(0)[1])
            assert np.isfinite(entry)
            with pytest.raises(OverflowError):
                abs(entry)
            with pytest.raises(OverflowError):
                list(cli._density_rows(dg, cli._slots([[-1.0, 1.0]])))

    @given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
           st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
    @settings(max_examples=examples(300), deadline=None)
    @example(3.0, 4.0)
    @example(1.3e308, 1.3e308)
    @example(5e-324, -5e-324)
    def test_hypot_is_pythons_complex_abs(self, re, im):
        # The writer's abs field is np.hypot; Python's abs(complex) is the
        # reference the text must match, bit for bit.
        with np.errstate(over="ignore"):
            modulus = float(np.hypot(re, im))
        try:
            assert modulus.hex() == abs(complex(re, im)).hex()
        except OverflowError:
            assert modulus == np.inf

    def test_hypot_is_pythons_abs_on_a_default_density(self):
        params = cli._model_params(DEFAULTS)
        grid = cli._spatial_grid(DEFAULTS, params)
        [dg] = scenario_sweep(cli._scenario(DEFAULTS, params), [5.0 / params.gamma],
                              True, grid, params)
        rho = np.array([dg.row(i) for i in range(grid.n)]).ravel()
        assert np.hypot(rho.real, rho.imag).tolist() == list(map(abs, rho.tolist()))

    def test_real_diagonal_and_mirrored_negative_zeros(self):
        self._assert_real_psi_zeros()

    @pytest.mark.parametrize("rows", [1, 5, 50, 200])
    def test_mirrored_negative_zeros_across_batches(self, rows, monkeypatch):
        # Each batch stacks its own rows, so a lower entry whose mirror lies
        # in an earlier batch gets its signed zero from DensityGrid.row alone.
        monkeypatch.setattr(cli, "BATCH_LINES", rows * self.GRID.n)
        self._assert_real_psi_zeros()

    def _assert_real_psi_zeros(self):
        psi = np.linspace(-1.0, 2.0, self.GRID.n).astype(complex)
        dg = DensityGrid(grid=self.GRID, psi=psi, factor=np.ones(self.GRID.n),
                         t=0.0, emission=False, norm_factor=0.5, params=self.PARAMS)
        text = self._assert_matches_reference(dg)
        n = self.GRID.n
        imag = [line.split(",")[3] for line in text.splitlines()]
        # A real psi: every imaginary part is a zero, +0 on the diagonal.
        # Below it, DensityGrid.row conjugates the mirror entry above it, so
        # each prints that entry's zero with the other sign.
        assert all(imag[i * n + i] == "0" for i in range(n))
        flipped = {"0": "-0", "-0": "0"}
        assert all(imag[i * n + j] == flipped[imag[j * n + i]]
                   for i in range(n) for j in range(i))
        assert "-0" in {imag[i * n + j] for i in range(n) for j in range(i)}

    def test_one_writer_and_the_default_pool_write_the_same_bytes(
            self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {**TestDiskPreflight.CONFIG,
                                      "times": [2.0, 3.0, 5.0]})
        with pytest.warns(ValidityWarning):  # gamma*t = 2 and 3 are marginal
            assert run_cli(["evolve", "--config", cfg], tmp_path / "pool") == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
        with pytest.warns(ValidityWarning):
            assert run_cli(["evolve", "--config", cfg], tmp_path / "one") == 0
        csvs = sorted(path.name for path in (tmp_path / "pool").glob("*.csv"))
        assert len(csvs) == 6
        assert all((tmp_path / "one" / name).read_bytes()
                   == (tmp_path / "pool" / name).read_bytes() for name in csvs)

    def test_a_writer_that_dies_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_write_density", _writer_dies)
        cfg = write_config(tmp_path, TestDiskPreflight.CONFIG)
        out = tmp_path / "out"
        assert run_cli(["evolve", "--config", cfg], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert not (out / "evolve_summary.json").exists()

    def test_a_writer_that_dies_mid_file_leaves_no_temp_file(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_density_rows", _dies_mid_file)
        cfg = write_config(tmp_path, {**TestDiskPreflight.CONFIG, "times": [5.0, 6.0]})
        out = tmp_path / "out"
        out.mkdir()
        (out / ".tmp-recoilsim-other").write_text("another run's\n")
        assert run_cli(["evolve", "--config", cfg], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert [path.name for path in out.glob(".tmp-recoilsim-*")] == [
            ".tmp-recoilsim-other"]
        assert (out / ".tmp-recoilsim-other").read_text() == "another run's\n"

    def test_a_failed_rerun_replaces_no_earlier_file(self, tmp_path, monkeypatch,
                                                      default_evolve_runs):
        earlier = default_evolve_runs[0]
        out = tmp_path / "out"
        shutil.copytree(earlier, out)
        names = sorted(path.name for path in out.iterdir())
        assert len(names) == 7
        cfg = write_config(tmp_path, {"scenario": {"kind": "single",
                                                   "width_over_lambda": 0.6}})
        for name, fault in [("_write_density", _writer_dies),
                            ("_density_rows", _dies_mid_file)]:
            with monkeypatch.context() as patch:
                patch.setattr(cli, name, fault)
                with pytest.warns(ValidityWarning):
                    assert run_cli(["evolve", "--config", cfg], out) == 1
            # The same names, so no temp file either, and the same bytes.
            assert sorted(path.name for path in out.iterdir()) == names
            assert all(filecmp.cmp(out / name, earlier / name, shallow=False)
                       for name in names)

    def test_a_failed_write_exits_one_without_a_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TestDiskPreflight.CONFIG)
        out = tmp_path / "out"
        (out / "density_gt5_on.csv").mkdir(parents=True)
        assert run_cli(["evolve", "--config", cfg], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert not (out / "evolve_summary.json").exists()


class TestRejectedInputs:
    """Inputs that must end in exit 1 with a one-line message and no files."""

    @pytest.mark.parametrize("argv, payload", [
        (["oracle", "--which", "quadrature"],
         {"scenario": {"kind": "single", "width_over_lambda": 0.5,
                       "center_over_lambda": -1e300}}),
        (["decoherence-factor"], {"decoherence": {"max_dx_over_lambda": 1e308}}),
        (["evolve"], {"params": {"gamma": 0.2}, "times": [2], "grid": {"points": 401}}),
        # Beyond the ODE's reach: each ran without end.
        (["oracle", "--which", "amplitudes"],
         {"params": {"mu": 1e-300}, "modes": {"n_k": 4, "n_phi": 2}}),
        (["oracle", "--which", "amplitudes"],
         {"params": {"gamma": 1e-300}, "modes": {"n_k": 4, "bandwidth_gammas": 1e290}}),
        (["evolve"], {"grid": {"points": 2**62}}),
        # A packet off the grid: NaN files with exit 0, or a ZeroDivisionError.
        (["evolve", "--emission", "off"],
         {"scenario": {"kind": "single", "width_over_lambda": 0.5,
                       "center_over_lambda": 60.0}, "times": [5]}),
        (["evolve", "--emission", "off"],
         {"scenario": {"kind": "single", "width_over_lambda": 0.5,
                       "center_over_lambda": 100.0}, "times": [5]}),
        # A packet mostly off the grid: renormalised to trace 1, with exit 0.
        (["evolve", "--emission", "off"],
         {"scenario": {"kind": "single", "width_over_lambda": 0.5,
                       "center_over_lambda": 40.0}, "times": [5]}),
    ], ids=["quadrature-runtime-warning", "decoherence-overflow", "regime-after-warning",
            "amplitudes-recoil-reach", "amplitudes-band-reach", "evolve-grid-points-2**62",
            "evolve-packet-off-grid-60", "evolve-packet-off-grid-100",
            "evolve-packet-off-grid-40"])
    def test_refusal_is_one_stderr_line_from_a_shell(self, tmp_path, argv, payload):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "recoilsim", *argv, "--config",
             write_config(tmp_path, payload), "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error") and proc.stderr.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    def test_deeply_nested_config_is_one_stderr_line(self, tmp_path):
        # json.load gives up on 100 000 nested arrays with a RecursionError.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "recoilsim", "decoherence-factor", "--config",
             str(path), "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: {path} is not valid JSON")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, payload", [
        (["evolve"], {"times": [float("nan")]}),
        (["decoherence-factor"], {"decoherence": {"max_dx_over_lambda": float("inf")}}),
        (["evolve"], {"times": [5.000001, 5.000002]}),
        (["evolve"], {"times": [-1]}),
        (["oracle", "--which", "quadrature"],
         {"scenario": {"kind": "single", "width_over_lambda": 0.5,
                       "center_over_lambda": 100.0}}),
        # Model arithmetic out of range: each of these wrote nan and exited 0.
        (["oracle", "--which", "quadrature"],
         {"params": {"mu": 5e-324}, "grid": {"points": 41}}),
        (["oracle", "--which", "quadrature"],
         {"params": {"gamma": 5e-324}, "grid": {"points": 41}}),
        (["oracle", "--which", "rate"], {"params": {"omega0": 1e-300, "gamma": 1e-305}}),
        # Out of range with a warning, a traceback or a hang before.
        (["oracle", "--which", "quadrature"], {"params": {"omega0": 6.3e-308}}),
        (["oracle", "--which", "quadrature"],
         {"params": {"omega0": 6.3e-308},
          "scenario": {"kind": "single", "width_over_lambda": 1e-200}}),
        (["oracle", "--which", "rate"], {"params": {"omega0": 1.7e308, "gamma": 1e300}}),
        (["oracle", "--which", "amplitudes"],
         {"params": {"omega0": 1.7e308, "gamma": 1e306}, "modes": {"n_k": 4}}),
        (["oracle", "--which", "rate"],
         {"params": {"gamma": 5e-324}, "modes": {"n_k": 4, "bandwidth_gammas": 1.7e308}}),
        (["oracle", "--which", "amplitudes"],
         {"params": {"omega0": 6.3e-308, "gamma": 5e-324}, "modes": {"n_k": 4}}),
        # Beyond numpy's array size: a ValueError traceback from np.linspace.
        (["oracle", "--which", "amplitudes"], {"modes": {"n_k": 10**19}}),
        # Counts no complex array can hold: each ended in a ValueError traceback.
        (["evolve"], {"grid": {"points": 2**62}}),
        (["decoherence-factor"], {"decoherence": {"points": 10**19}}),
        (["oracle", "--which", "rate"], {"modes": {"n_k": 2**60}}),
        (["oracle", "--which", "rate"], {"modes": {"n_phi": sys.maxsize // 16 + 1}}),
    ], ids=["times-config-nan", "decoherence-inf", "name-collision",
            "times-config-negative", "quadrature-packet-off-the-probe-grid",
            "quadrature-nan-tiny-mu", "quadrature-nan-tiny-gamma", "rate-nan-pole-sum",
            "quadrature-probe-grid-overflow", "quadrature-probe-grid-nan",
            "rate-coupling-overflow", "amplitudes-wavenumber-overflow",
            "rate-half-gamma-underflow", "amplitudes-infinite-t-span",
            "amplitudes-grid-beyond-array-size", "evolve-grid-points-2**62",
            "decoherence-points-10**19", "rate-n_k-2**60", "rate-n_phi-past-the-bound"])
    def test_exits_one_without_output(self, tmp_path, capsys, argv, payload):
        out = tmp_path / "out"
        assert run_cli([*argv, "--config", write_config(tmp_path, payload)], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv", [["evolve"],
                                      ["oracle", "--which", "quadrature"]])
    @pytest.mark.parametrize("scenario, key", [
        ({"kind": "single"}, "width_over_lambda"),
        ({"kind": "superposition", "width_over_lambda": 0.5},
         "center_offset_over_lambda"),
    ])
    def test_scenario_missing_a_key_exits_one(self, tmp_path, capsys, argv,
                                              scenario, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"scenario": scenario})
        assert run_cli([*argv, "--config", cfg], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err and err.count("\n") == 1
        assert not out.exists()

    def test_overflow_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"scenario": {"kind": "single",
                                                   "width_over_lambda": 1e300}})
        assert run_cli(["oracle", "--which", "quadrature", "--config", cfg], out) == 1
        err = capsys.readouterr().err
        assert err.startswith("number out of range") and err.count("\n") == 1
        assert not any(out.iterdir())

    def test_oversized_mode_grid_is_refused_before_allocating(self, tmp_path, capsys,
                                                              monkeypatch):
        def unbuilt(*args, **kwargs):
            raise AssertionError("the mode grid was built")

        monkeypatch.setattr(cli.ModeGrid, "build", unbuilt)
        # 10**160 modes need more GiB than a float holds.
        for n_k in (10**12, 10**160):
            cfg = write_config(tmp_path, {"modes": {"n_k": n_k}})
            start = time.perf_counter()
            code = run_cli(["oracle", "--which", "amplitudes", "--config", cfg],
                           tmp_path / "out")
            assert time.perf_counter() - start < 0.5
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: modes.n_k") and err.count("\n") == 1
            assert not any((tmp_path / "out").iterdir())

    def test_refusal_counts_what_the_process_holds(self, tmp_path, capsys, monkeypatch):
        # The run fits exactly when the estimate, the first run's allowance and
        # the resident size add up to the available memory, and is refused one
        # byte above.
        def unbuilt(*args, **kwargs):
            raise AssertionError("the mode grid was built")

        monkeypatch.setattr(cli.ModeGrid, "build", unbuilt)
        have = 3 * 2**30
        monkeypatch.setattr(cli, "_available_bytes", lambda: have)
        cfg = write_config(tmp_path, {"modes": {"n_k": 40}})
        held = have - cli.memory_estimate(40, cli.SAMPLE_COUNT) - cli.FIRST_RUN_BYTES
        argv = ["oracle", "--which", "amplitudes", "--config", cfg]
        monkeypatch.setattr(cli, "_resident_bytes", lambda: held)
        with pytest.raises(AssertionError, match="the mode grid was built"):
            run_cli(argv, tmp_path / "out")
        monkeypatch.setattr(cli, "_resident_bytes", lambda: held + 1)
        assert run_cli(argv, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: modes.n_k = 40") and err.count("\n") == 1
        assert "than the 3 GiB of available memory" in err

    def test_resident_size_is_read_from_the_process(self):
        resident = cli._resident_bytes()
        assert 10 * 2**20 < resident < 2**40

    @pytest.mark.parametrize("n_k", [40, 200])
    def test_admitted_run_peaks_within_what_the_refusal_counted(self, tmp_path, n_k):
        # In a fresh CLI process: the resident size the pre-flight read, plus
        # the estimate and the allowance, against the process's peak (VmHWM).
        script = "\n".join([
            "import sys",
            "import recoilsim.cli as cli",
            "read, held = cli._resident_bytes, []",
            "cli._resident_bytes = lambda: held.append(read()) or held[-1]",
            "code = cli.main(['oracle', '--which', 'amplitudes', '--config', sys.argv[1],",
            "                 '--out', sys.argv[2]])",
            "with open('/proc/self/status') as status:",
            "    peak = 1024 * next(int(line.split()[1]) for line in status",
            "                       if line.startswith('VmHWM:'))",
            f"need = cli.memory_estimate({n_k}, cli.SAMPLE_COUNT) + held[0] + cli.FIRST_RUN_BYTES",
            "print(code, need, peak)",
        ])
        cfg = write_config(tmp_path, {"modes": {"n_k": n_k}})
        proc = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, need, peak = map(int, proc.stdout.split()[-3:])
        assert code in (0, 3) and need >= peak

    def test_available_memory_is_read_from_meminfo(self, monkeypatch):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert 0 < cli._available_bytes() <= physical

        def meminfo(text):
            def fake_open(path):
                assert path == "/proc/meminfo"
                if text is None:
                    raise FileNotFoundError(path)
                return io.StringIO(text)
            monkeypatch.setattr(cli, "open", fake_open, raising=False)
        meminfo("MemTotal:       8000000 kB\nMemAvailable:    1234567 kB\n")
        assert cli._available_bytes() == 1234567 * 1024
        # Without the file, or without the line, physical memory is the bound.
        for text in (None, "MemTotal:       8000000 kB\n"):
            meminfo(text)
            assert cli._available_bytes() == physical

    @pytest.mark.parametrize("modes, message", [
        ({"n_k": 1}, "n_k must be at least 2"),
        ({"n_k": -10**6, "n_phi": -10**6}, "n_k must be at least 2"),
        ({"n_k": 10**6, "n_phi": 0}, "n_phi must be at least 1"),
    ])
    def test_counts_below_the_minimum_get_the_grid_refusal(self, tmp_path, capsys,
                                                          modes, message):
        cfg = write_config(tmp_path, {"modes": modes})
        assert run_cli(["oracle", "--which", "amplitudes", "--config", cfg],
                       tmp_path / "out") == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("which", ["rate", "amplitudes"])
    def test_modes_finer_than_float_resolution_are_refused(self, tmp_path, capsys, which):
        # At gamma = 1e-15 the default 400 wavenumbers lie about one ulp apart.
        # The oracles failed their checks on that rounding alone, with exit 3.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"params": {"gamma": 1e-15}})
        assert run_cli(["oracle", "--which", which, "--config", cfg], out) == 1
        assert capsys.readouterr().err == (
            "config error: n_k = 400 wavenumbers over bandwidth_gammas = 50 at "
            "gamma = 1e-15 lie 1.129 ulp apart, below the 1024 that float "
            "resolution needs: lower n_k or widen the band\n")
        assert not out.exists() or not any(out.iterdir())

    def test_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        # Patched rather than allocated: whether a huge allocation fails at
        # once depends on the machine's overcommit policy.
        def exhausted(_x):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr("recoilsim.cli.bessel_j0", exhausted)
        out = tmp_path / "out"
        assert run_cli(["decoherence-factor"], out) == 1
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 74.5 GiB\n"
        assert not any(out.iterdir())


# Wrong types and non-finite numbers for most keys.
_ODD = st.sampled_from([None, True, "x", [], {}, float("nan"), float("inf"),
                        -float("inf"), 10**400, -10**400])


# Finite magnitudes whose squares, or whose products with the wavelength,
# leave the float range.
_EXTREMES = [5e-324, 1e-200, 1e200, sys.float_info.max, 10**300]


def _mostly(valid, odd=_ODD):
    """Values from ``valid``, one time in eight from ``odd`` instead."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else odd)


# Counts past the bound load_config refuses before anything is allocated.
_HUGE_COUNTS = st.sampled_from([sys.maxsize // 16 + 1, 2**62, 10**19, 10**300])


def _like(default):
    """Values of the type of ``default``; counts stay small, so no run of the
    builders allocates much, or pass the bound ``load_config`` refuses."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return _mostly(st.integers(-3, 40), _HUGE_COUNTS)
    if isinstance(default, float):
        return (st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-9, 9) | st.sampled_from(_EXTREMES))
    return st.text(max_size=3)


def _fields(schema):
    """Objects with any subset of the keys of ``schema``, sometimes with an
    unknown key as well."""
    keys = st.fixed_dictionaries({}, optional={
        key: _mostly(_like(value)) for key, value in schema.items()})
    extra = _mostly(st.just({}), st.just({"unknown": 1}))
    return st.builds(lambda section, more: {**section, **more}, keys, extra)


_KINDS = {"single": {"width_over_lambda": 0.5, "center_over_lambda": 0.0},
          "superposition": {"width_over_lambda": 0.5,
                            "center_offset_over_lambda": 1.0}}
_SCENARIO = st.sampled_from([*_KINDS, "triple"]).flatmap(
    lambda kind: _fields(_KINDS.get(kind, _KINDS["single"])).map(
        lambda section: {**section, "kind": kind}))
_CONFIGS = st.fixed_dictionaries({}, optional={
    **{key: _mostly(_fields(value)) for key, value in DEFAULTS.items()
       if isinstance(value, dict)},
    # Two inputs that once had a second way in, now unknown keys.
    "params": _mostly(_fields({**DEFAULTS["params"], "dipole": 0.1})),
    "output": _mostly(_fields({"dir": "."})),
    "scenario": _mostly(_SCENARIO),
    "times": _mostly(st.lists(_mostly(_like(0.0)), max_size=3)),
})


@settings(max_examples=examples(300), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_CONFIGS)
@example(payload={"params": {"omega0": 1e200, "dipole": 1e200}})
@example(payload={"params": {"mu": 10**300}})
@example(payload={"scenario": {"kind": "superposition", "width_over_lambda": 1e-200,
                               "center_offset_over_lambda": 1.0}})
@example(payload={"grid": {"min_over_lambda": -1e308, "max_over_lambda": 1e308}})
@example(payload={"grid": {"points": 2**62}})
def test_config_fuzz_ends_in_configuration_error_or_buildable(tmp_path, payload):
    """Every config is refused with a ConfigurationError or builds the
    objects the subcommands need, each either finite or refused with a
    ConfigurationError."""
    path = write_config(tmp_path, payload)
    try:
        cfg = load_config(path)
        params = cli._model_params(cfg)
    except ConfigurationError:
        return
    for build, arrays in [(cli._scenario, lambda sc: sc.weights),
                          (cli._spatial_grid, lambda grid: grid.x_values),
                          (cli._mode_grid, lambda grid: grid.k_values)]:
        try:
            built = build(cfg, params)
        except ConfigurationError:
            continue
        assert np.isfinite(arrays(built)).all()


# Caps on the sizes that set a run's cost, the mode count n_k * n_phi among
# them.  Recoil and bandwidth stay free: the amplitudes ODE refuses a run
# beyond its reach.
_MODES = 8
_SMALL = {"grid": {"points": 41}, "decoherence": {"points": 40}, "modes": {"n_k": _MODES}}


def _small(payload):
    """``payload`` with each size in ``_SMALL`` set to its cap when absent
    and held at most at it when a number, and an integer ``n_phi`` held so
    that ``n_k * n_phi`` is at most ``_MODES``."""
    for key, caps in _SMALL.items():
        section = payload.setdefault(key, {})
        if isinstance(section, dict):
            for name, cap in caps.items():
                value = section.get(name, cap)
                numeric = type(value) in (int, float) and abs(value) <= sys.float_info.max
                section[name] = min(value, type(value)(cap)) if numeric else value
    modes = payload["modes"]
    if isinstance(modes, dict) and type(modes.get("n_phi")) is type(modes["n_k"]) is int:
        modes["n_phi"] = min(modes["n_phi"], _MODES // max(modes["n_k"], 1))
    return payload


_FORMS = [["decoherence-factor"], ["evolve"], ["evolve", "--emission", "on"],
          ["evolve", "--emission", "off"], ["oracle", "--which", "amplitudes"],
          ["oracle", "--which", "quadrature"], ["oracle", "--which", "rate"]]


@settings(max_examples=examples(300), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.sampled_from(_FORMS), payload=_CONFIGS.map(_small))
@example(argv=["oracle", "--which", "quadrature"],
         payload={"scenario": {"kind": "single", "width_over_lambda": 0.5,
                               "center_over_lambda": -1e300}})
@example(argv=["decoherence-factor"],
         payload={"decoherence": {"max_dx_over_lambda": 1e308}})
@example(argv=["evolve"],
         payload={"params": {"gamma": 0.2}, "times": [2], "grid": {"points": 401}})
@example(argv=["oracle", "--which", "amplitudes"],  # the step size overflows
         payload={"params": {"omega0": 3e-300, "gamma": 6.3e-308}, "modes": {"n_k": 4}})
@example(argv=["oracle", "--which", "amplitudes"],  # recoil within reach
         payload={"modes": {"n_k": 4, "n_phi": 2}})
@example(argv=["oracle", "--which", "amplitudes"],  # beyond the ODE's reach
         payload={"params": {"mu": 1e-300}, "modes": {"n_k": 4, "n_phi": 2}})
@example(argv=["oracle", "--which", "amplitudes"],
         payload={"params": {"gamma": 1e-300}, "modes": {"n_k": 4, "bandwidth_gammas": 1e290}})
def test_main_fuzz_exits_with_a_code_and_one_line(tmp_path, argv, payload):
    """``main`` returns 0, 1, 2 or 3 and never raises.  A refusal is one
    stderr line with no warning before it; a success writes no NaN or inf."""
    run = tmp_path / f"run-{len(list(tmp_path.iterdir()))}"
    run.mkdir()
    config = write_config(run, payload)
    out = run / "out"
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*argv, "--config", config, "--out", str(out)])
    assert code in (0, 1, 2, 3)
    # Two removed inputs: the top level's keys are checked first, then the
    # types of its values, then each section's keys in file order.
    params = payload.get("params")
    if "output" in payload:
        assert code == 1
        assert stderr.getvalue().startswith("config error: unknown config key(s): ")
    elif isinstance(params, dict) and "dipole" in params:
        assert code == 1
        if next(iter(payload)) == "params" and all(
                type(value) is type(DEFAULTS[key]) for key, value in payload.items()):
            assert stderr.getvalue().startswith("config error: unknown params key(s): ")
    if code:
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
        assert not caught, [str(w.message) for w in caught]
    else:
        for path in out.iterdir():
            assert not re.search("nan|inf", path.read_text(), re.I), path.name


@pytest.mark.parametrize("argv, umask", [
    (["decoherence-factor"], 0o022), (["decoherence-factor"], 0o027),
    (["evolve"], 0o022), (["evolve"], 0o027),
], ids=["18", "23", "evolve-18", "evolve-23"])
def test_output_files_follow_the_umask(tmp_path, argv, umask):
    cfg = write_config(tmp_path, TestDiskPreflight.CONFIG)
    out = tmp_path / "out"
    previous = os.umask(umask)
    try:
        assert run_cli([*argv, "--config", cfg], out) == 0
    finally:
        os.umask(previous)
    # evolve's density files come from its forked writers.
    modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
    assert len(modes) == (1 if argv == ["decoherence-factor"] else 3)
    assert set(modes.values()) == {0o666 & ~umask}


class TestOracleCommand:
    def test_quadrature_default_passes(self, tmp_path):
        assert run_cli(["oracle", "--which", "quadrature"], tmp_path) == 0
        lines = (tmp_path / "oracle_quadrature.csv").read_text().splitlines()
        assert lines[0] == ("x_over_lambda,xp_over_lambda,re_quad,im_quad,"
                            "re_fact,im_fact,abs_diff")
        assert len(lines) == 1 + 16 * 16

    def test_rate_default_passes(self, tmp_path):
        assert run_cli(["oracle", "--which", "rate"], tmp_path) == 0
        lines = (tmp_path / "oracle_rate.csv").read_text().splitlines()
        assert lines[0] == "rate,expected,relative_error,flagged"
        rate, expected, rel_err, flagged = lines[1].split(",")
        assert flagged == "false"
        assert float(rel_err) <= 0.05
        assert float(expected) == 0.005

    def test_rate_with_truncated_band_breaches(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"modes": {"n_k": 101,
                                                "bandwidth_gammas": 4.0}})
        assert run_cli(["oracle", "--which", "rate", "--config", cfg],
                       tmp_path) == 3
        assert "oracle tolerance breach" in capsys.readouterr().err
        # The table is still written for inspection.
        assert (tmp_path / "oracle_rate.csv").exists()

    def test_amplitudes_small_grid_passes(self, tmp_path, small_modes_config):
        """Thinned 120-mode run (~3 s): full bandwidth, so the decay check
        clears its 5% tolerance."""
        assert run_cli(["oracle", "--which", "amplitudes",
                        "--config", str(small_modes_config)], tmp_path) == 0
        lines = (tmp_path / "oracle_amplitudes.csv").read_text().splitlines()
        assert lines[0] == "t,re_a,im_a,norm,pop_a,pop_b,pop_d"
        assert len(lines) == 52
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0          # A(0) = C_p = 1
        assert float(first[3]) == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_narrow_band_breaches(self, tmp_path, capsys):
        # 12 gammas of bandwidth truncates the Lorentzian wings hard enough
        # that |A|^2 visibly outlives e^{-2 gamma t}: tolerance breach.
        cfg = write_config(tmp_path, {"modes": {"n_k": 48,
                                                "bandwidth_gammas": 12.0}})
        assert run_cli(["oracle", "--which", "amplitudes", "--config", cfg],
                       tmp_path) == 3
        err = capsys.readouterr().err
        assert "oracle tolerance breach" in err
        assert "|A|^2 decay deviation" in err

    def test_amplitudes_norm_drift_exits_three_before_writing(self, tmp_path, capsys,
                                                              monkeypatch):
        # Every amplitude 1e-6 too large: the library's own drift check
        # refuses the trajectory, so no table is written.
        solve = oracle.solve_ivp
        monkeypatch.setattr(oracle, "solve_ivp",
                            lambda *args, **kwargs: solve(*args, **kwargs) * (1.0 + 1e-6))
        cfg = write_config(tmp_path, {"modes": {"n_k": 40, "bandwidth_gammas": 20.0}})
        out = tmp_path / "out"
        assert run_cli(["oracle", "--which", "amplitudes", "--config", cfg], out) == 3
        err = capsys.readouterr().err
        assert err.startswith("oracle tolerance breach: sector norm drifted by ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("which, tolerances", [
        ("amplitudes", {"max |A|^2 decay deviation (within recurrence window)": "0.05",
                        "max sector-norm drift": "1e-09"}),
        ("quadrature", {"max |quadrature - factorized| / max|factorized|": "1e-08"}),
        ("rate", {"pole-sum rate relative error": "0.05"}),
    ])
    def test_default_run_reports_each_check_once(self, tmp_path, capsys, which,
                                                 tolerances):
        assert run_cli(["oracle", "--which", which], tmp_path) == 0
        wrote, *lines = capsys.readouterr().out.splitlines()
        assert wrote == f"wrote {tmp_path / f'oracle_{which}.csv'}"
        report = [re.fullmatch(r"(.+): (\S+) \(tolerance (\S+)\)", line).groups()
                  for line in lines]
        assert len(report) == len(tolerances)
        assert {name: tolerance for name, _, tolerance in report} == tolerances
        assert all(float(value) <= float(tolerance) for _, value, tolerance in report)
        assert all(repr(float(value)) == value for _, value, _ in report)


def _recorded(monkeypatch, name, edit=lambda args, value: value):
    """Make ``cli.<name>`` return ``edit(args, value)`` for each ``value`` it
    returns, and return the list of what it then returns."""
    original, returned = getattr(cli, name), []

    def wrapper(*args, **kwargs):
        returned.append(edit(args, original(*args, **kwargs)))
        return returned[-1]

    monkeypatch.setattr(cli, name, wrapper)
    return returned


class TestSmallTables:
    """The four small CSV kinds, byte for byte, against text built one value
    at a time with ``format(v, ".17g")`` from what the library returns."""

    def _assert_file(self, path, header, rows):
        expected = "".join(f"{line}\n" for line in [header, *rows])
        assert path.read_bytes() == expected.encode("ascii")

    def test_decoherence_factor(self, tmp_path):
        dec = {"points": 37, "max_dx_over_lambda": 2.5}
        cfg = write_config(tmp_path, {"decoherence": dec})
        assert run_cli(["decoherence-factor", "--config", cfg], tmp_path) == 0
        dx = dec["max_dx_over_lambda"] * np.arange(dec["points"]) / dec["points"]
        f = bessel_j0(np.pi * dx) ** 2
        self._assert_file(tmp_path / "decoherence_factor.csv", "dx_over_lambda,F",
                          (f"{_g(a)},{_g(b)}" for a, b in zip(dx, f)))

    @pytest.mark.parametrize("bandwidth, code, flagged", [
        (10.0, 0, "false"), (2.0, 3, "true")])
    def test_rate(self, tmp_path, monkeypatch, bandwidth, code, flagged):
        # Two gammas of band lose 15 % of the rate: the file is written and
        # flagged, then the run breaches its tolerance.
        checks = _recorded(monkeypatch, "ww_rate_check")
        cfg = write_config(tmp_path, {"modes": {"n_k": 40,
                                                "bandwidth_gammas": bandwidth}})
        assert run_cli(["oracle", "--which", "rate", "--config", cfg], tmp_path) == code
        [check] = checks
        relative = abs(check.rate / check.expected - 1.0)
        self._assert_file(tmp_path / "oracle_rate.csv",
                          "rate,expected,relative_error,flagged",
                          [f"{_g(check.rate)},{_g(check.expected)},{_g(relative)},"
                           f"{flagged}"])

    def test_quadrature_with_negative_zeros(self, tmp_path, monkeypatch):
        # The quadrature's imaginary parts on the diagonal are +0; negated
        # here, they must print as "-0".
        quads = _recorded(monkeypatch, "density_quadrature", lambda args, v:
                          complex(v.real, -v.imag) if args[0] == args[1] else v)
        assert run_cli(["oracle", "--which", "quadrature"], tmp_path) == 0
        params = cli._model_params(DEFAULTS)
        lam = params.wavelength
        t = max(DEFAULTS["times"]) / params.gamma
        xs = np.linspace(-2.0 * lam, 2.0 * lam, 16)
        psi = np.asarray(psi_free(xs, t, cli._scenario(DEFAULTS, params), params),
                         dtype=complex)
        fact = np.multiply.outer(psi, psi.conj()) * decoherence_factor(
            xs[:, None], xs[None, :], params)
        pairs = [(i, j) for i in range(16) for j in range(16)]
        assert len(quads) == len(pairs)
        rows = [f"{_g(xs[i] / lam)},{_g(xs[j] / lam)},{_g(q.real)},{_g(q.imag)},"
                f"{_g(fact[i, j].real)},{_g(fact[i, j].imag)},"
                f"{_g(abs(complex(q) - complex(fact[i, j])))}"
                for (i, j), q in zip(pairs, quads)]
        self._assert_file(tmp_path / "oracle_quadrature.csv",
                          "x_over_lambda,xp_over_lambda,re_quad,im_quad,"
                          "re_fact,im_fact,abs_diff", rows)
        diagonal = [row.split(",")[3] for (i, j), row in zip(pairs, rows) if i == j]
        assert diagonal == ["-0"] * 16

    def test_amplitudes(self, tmp_path, monkeypatch):
        # 40 modes over 20 linewidths miss the decay tolerance: the file is
        # written, then the run exits 3.
        runs = _recorded(monkeypatch, "integrate_amplitudes")
        cfg = write_config(tmp_path, {"modes": {"n_k": 40, "bandwidth_gammas": 20.0}})
        assert run_cli(["oracle", "--which", "amplitudes", "--config", cfg],
                       tmp_path) == 3
        [trajectory] = runs
        rows = [",".join(map(_g, (t, a.real, a.imag, n, *pops)))
                for t, a, n, pops in zip(trajectory.times, trajectory.a,
                                         trajectory.norms,
                                         trajectory.sector_populations)]
        self._assert_file(tmp_path / "oracle_amplitudes.csv",
                          "t,re_a,im_a,norm,pop_a,pop_b,pop_d", rows)


class TestToleranceCheck:
    """``cmd_oracle``'s verdict on a stand-in rate validator's checks: every
    check is printed, the table is written, and the first failed check, a NaN
    included, exits 3."""

    def _run(self, tmp_path, monkeypatch, checks):
        monkeypatch.setattr(cli, "_oracle_rate", lambda cfg: (
            "oracle_rate.csv", "v", [[1.0]], checks))
        return run_cli(["oracle", "--which", "rate"], tmp_path)

    @pytest.mark.parametrize("text", ["0.0", "0.05"])
    def test_values_up_to_the_tolerance_pass(self, tmp_path, capsys, monkeypatch, text):
        checks = [cli.Check("deviation", float(text), 0.05)]
        assert self._run(tmp_path, monkeypatch, checks) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"deviation: {text} (tolerance 0.05)"]

    # Each value prints in full: a breach 2e-8 relative past 0.05 reads as
    # more than 0.05.
    @pytest.mark.parametrize("text", ["0.050000001", "nan", "inf"])
    def test_a_breach_or_nan_fails(self, tmp_path, capsys, monkeypatch, text):
        checks = [cli.Check("first", 0.0, 0.05), cli.Check("deviation", float(text), 0.05),
                  cli.Check("last", 1.0, 1e-8)]
        assert self._run(tmp_path, monkeypatch, checks) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == [
            "first: 0.0 (tolerance 0.05)",
            f"deviation: {text} (tolerance 0.05)",
            "last: 1.0 (tolerance 1e-08)"]
        assert err == f"oracle tolerance breach: deviation {text} > 0.05\n"
        assert (tmp_path / "oracle_rate.csv").read_text() == "v\n1\n"


class TestEntryPoint:
    def test_module_help_runs(self):
        out = subprocess.run([sys.executable, "-m", "recoilsim", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        for word in ("decoherence-factor", "evolve", "oracle"):
            assert word in out.stdout

    def test_help_exit_is_zero_in_process(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        # The package needs numpy only; scipy is the tests' reference.  With
        # scipy unimportable, all five subcommands run: evolve and the
        # quadrature oracle on a small grid.  evolve's format kernel is not
        # loaded by the import either.
        small = write_config(tmp_path, TestDiskPreflight.CONFIG)
        script = "\n".join([
            "import json, sys",
            "sys.modules['scipy'] = None",
            "import recoilsim, recoilsim.cli",
            "seen = {'kernel': 'recoilsim._g17' in sys.modules}",
            "small = ['--config', sys.argv[2]]",
            "for argv, config in ((['decoherence-factor'], []),",
            "                     (['oracle', '--which', 'rate'], []), (['evolve'], small),",
            "                     (['oracle', '--which', 'quadrature'], small),",
            "                     (['oracle', '--which', 'amplitudes'], [])):",
            "    code = recoilsim.cli.main([*argv, *config, '--out', sys.argv[1]])",
            "    seen[' '.join(argv)] = code",
            "print(json.dumps(seen))",
        ])
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out"), small],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "kernel": False, "decoherence-factor": 0, "oracle --which rate": 0,
            "evolve": 0, "oracle --which quadrature": 0, "oracle --which amplitudes": 0}
