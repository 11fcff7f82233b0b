"""Shared fixtures.

The expensive runs (the 400-mode oracle trajectory, the default CLI evolve)
are session-scoped so the acceptance criteria and the module tests share one
computation each.

Hypothesis draws the same examples on every run under the ``tier1`` profile,
loaded unless ``HYPOTHESIS_PROFILE`` names another: two Tier-1 runs of one
commit, or two mutation passes, test the same inputs, and a failure replays
without the example database.  ``HYPOTHESIS_PROFILE=explore`` draws new
examples each run, ``EXPLORE_SCALE`` times as many per test, to look for
inputs the fixed draw misses; each it finds becomes an ``@example``.  A test
that sets its own count passes it through :func:`examples`.
"""

import json
import os
import time

import numpy as np
import pytest
from hypothesis import settings

from recoilsim.cli import main
from recoilsim.core import ModelParams, ModeGrid
from recoilsim.density import ValidityWarning
from recoilsim.oracle import OdeRun, integrate_amplitudes

PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
EXPLORE_SCALE = 10


def examples(n: int) -> int:
    """``max_examples`` for a test that draws ``n`` examples under tier1:
    ``n`` there, ``EXPLORE_SCALE`` times as many under explore."""
    return n * EXPLORE_SCALE if PROFILE == "explore" else n


settings.register_profile("tier1", derandomize=True, database=None)
# Hypothesis draws 100 examples where a test sets no count.
settings.register_profile("explore", derandomize=False, max_examples=examples(100))
settings.load_profile(PROFILE)


@pytest.fixture(scope="session")
def params():
    """Standard scenario-regime parameters: omega0/gamma = 100."""
    return ModelParams(omega0=1.0, mu=10.0, gamma=0.01)


@pytest.fixture(scope="session")
def big_trajectory():
    """The 400-mode Weisskopf-Wigner oracle run over gamma*t in [0, 5].

    Shared by acceptance criteria 3 and 4.  The line is kept narrow
    (omega0/gamma = 1e4) so the sqrt(k/k0) coupling slope is flat across the
    50-linewidth band; a broad line pulls the resonance and the closed-form
    phases drift away from the integrated ones.  The returned dict carries
    the trajectory, its parameters, and the wall time of the integration so
    each criterion can account for it in its runtime budget.
    """
    narrow = ModelParams(omega0=1.0, mu=10.0, gamma=1e-4)
    grid = ModeGrid.build(narrow, n_k=401, bandwidth_gammas=50.0, n_phi=1)
    t_final = 5.0 / narrow.gamma
    run = OdeRun(params=narrow, grid=grid, t_span=(0.0, t_final),
                 sample_times=np.linspace(0.0, t_final, 51), tol=1e-10)
    start = time.perf_counter()
    trajectory = integrate_amplitudes(run)
    elapsed = time.perf_counter() - start
    return {"trajectory": trajectory, "grid": grid, "params": narrow,
            "elapsed": elapsed}


def run_cli(argv, tmp):
    """Invoke the CLI in-process with --out pointed at ``tmp``."""
    return main([*argv, "--out", str(tmp)])


@pytest.fixture(scope="session")
def default_evolve_runs(tmp_path_factory):
    """The default-config evolve subcommand, run twice into separate dirs.

    Used by the CLI file-census tests and by acceptance criterion 7
    (byte-reproducibility) without paying for extra runs.  The default times
    gamma*t = 2 and 3 are marginal by design: each run must warn of both.
    """
    runs = tuple(tmp_path_factory.mktemp(f"evolve-default-{i}") for i in (1, 2))
    for out in runs:
        with pytest.warns(ValidityWarning) as record:
            assert run_cli(["evolve"], out) == 0
        messages = [str(w.message) for w in record]
        for gt in (2, 3):
            assert any(m.startswith(f"gamma*t = {gt} is marginal") for m in messages)
    return runs


@pytest.fixture(scope="session")
def small_modes_config(tmp_path_factory):
    """Config with a thinned 120-mode grid: a cheap amplitudes-oracle run
    that still keeps the full 50-gamma bandwidth (and so passes the decay
    tolerance; narrower windows truncate the Lorentzian wings and breach it).
    """
    path = tmp_path_factory.mktemp("cfg") / "small_modes.json"
    path.write_text(json.dumps(
        {"modes": {"n_k": 120, "bandwidth_gammas": 50.0}}))
    return path
