"""What a fresh process loads, and how many threads it starts, before any run.

``import recoilsim`` loads the layers, and numpy with them, on the first use
of a public name.  ``import recoilsim.cli`` starts numpy's OpenBLAS on one
thread unless numpy is already loaded or the caller set a thread count.
Each test runs its own interpreter, since both depend on what was imported
first.
"""

import json
import os
import subprocess
import sys

import pytest

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# The OS threads of the running process, as Linux counts them.
THREADS = ("int(next(line.split()[1] for line in open('/proc/self/status')"
           " if line.startswith('Threads:')))")
# recoilsim.__all__, sorted: a name added to or removed from the public API
# shows in this list's diff.
PUBLIC = [
    "CoherenceLength", "ConfigurationError", "DensityGrid", "GaussianPacket",
    "ModeGrid", "ModelParams", "ModelValidityError", "NormDriftFailure", "OdeRun",
    "RateCheck", "Scenario", "SpatialGrid", "Trajectory", "ValidityWarning",
    "__version__", "amplitude_a", "amplitude_b", "amplitude_d",
    "amplitude_d_infinity", "amplitude_generator", "bessel_j0", "coherence_length",
    "decoherence_factor", "density_quadrature", "integrate_amplitudes",
    "max_decay_error", "memory_estimate", "omega_no_photon", "omega_one_photon",
    "omega_two_photon", "psi_free", "recoil_momentum", "scenario_sweep",
    "worker_count", "ww_rate_check",
]


def fresh(script: str, *args: str, **env: str):
    """The JSON last printed by ``script`` in a fresh interpreter, with none of
    the thread variables set but those in ``env``."""
    base = {key: value for key, value in os.environ.items()
            if key not in THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env={**base, **env}, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["ModelParams", "oracle", "__all__"])
def test_package_loads_numpy_only_when_a_name_is_used(name):
    # A library user keeps OpenBLAS's own default thread count.
    assert fresh("\n".join([
        "import json, os, sys",
        "import recoilsim",
        "before = 'numpy' in sys.modules",
        f"recoilsim.{name}",
        "print(json.dumps([before, 'numpy' in sys.modules,",
        "                  os.environ.get('OPENBLAS_NUM_THREADS')]))",
    ])) == [False, True, None]


def test_star_import_gives_every_public_name():
    names, public = fresh("\n".join([
        "import json",
        "names = {}",
        "exec('from recoilsim import *', names)",
        "import recoilsim",
        "print(json.dumps([sorted(set(names) - {'__builtins__'}),",
        "                  sorted(recoilsim.__all__)]))",
    ]))
    assert names == public == PUBLIC


def test_dir_lists_every_public_name():
    assert fresh("import json, recoilsim; listed = dir(recoilsim); "
                 "print(json.dumps(sorted(set(recoilsim.__all__) - set(listed))))") == []


@pytest.mark.parametrize("statement", ["import recoilsim.cli", "from recoilsim import cli"])
def test_cli_starts_numpy_on_one_thread(statement):
    assert fresh("\n".join([
        "import json, os, sys",
        statement,
        f"print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), {THREADS},",
        "                  'concurrent.futures' in sys.modules]))",
    ])) == ["1", 1, False]


@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_a_callers_thread_count_wins(variable):
    assert fresh("\n".join([
        "import json, os",
        "import recoilsim.cli",
        f"print(json.dumps({{key: os.environ.get(key) for key in {THREAD_VARIABLES}}}))",
    ]), **{variable: "2"}) == {key: "2" if key == variable else None
                               for key in THREAD_VARIABLES}


def test_cli_imported_after_numpy_leaves_the_environment_alone():
    assert fresh("\n".join([
        "import json, os",
        "import numpy",
        "before = dict(os.environ)",
        "import recoilsim.cli",
        "print(json.dumps(dict(os.environ) == before))",
    ])) is True


def test_evolve_forks_its_writers_from_one_thread(tmp_path):
    # Python 3.12 and later warn when a process with threads forks.
    config = tmp_path / "small.json"
    config.write_text(json.dumps({
        "params": {"mu": 800.0}, "times": [5.0],
        "grid": {"min_over_lambda": -2.0, "max_over_lambda": 2.0, "points": 81}}))
    seen = fresh("\n".join([
        "import concurrent.futures, json, sys",
        "import recoilsim.cli",
        "seen = []",
        "class Pool(concurrent.futures.ProcessPoolExecutor):",
        "    def __init__(self, *args, **kwargs):",
        f"        seen.append({THREADS})",
        "        super().__init__(*args, **kwargs)",
        "concurrent.futures.ProcessPoolExecutor = Pool",
        "code = recoilsim.cli.main(['evolve', '--config', sys.argv[1],",
        "                           '--out', sys.argv[2]])",
        "print(json.dumps([code, seen]))",
    ]), str(config), str(tmp_path / "out"))
    assert seen == [0, [1]]
