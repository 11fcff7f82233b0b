"""README.md's examples run as documented, and its defaults are the code's."""

import contextlib
import io
import json
import pathlib
import re

from recoilsim.cli import DEFAULTS, load_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _json_after(lead: str) -> str:
    """The first JSON block after the README's line that starts with ``lead``."""
    [block] = re.findall(rf"^{re.escape(lead)}.*?```json\n(.*?)```", README.read_text(),
                         re.S | re.M)
    return block


def test_library_example_runs_and_prints_what_it_claims():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    purity, length = (float(line) for line in out.getvalue().split())
    assert purity < 0.5                      # "well below 1: the state is mixed"
    assert abs(length - 0.422) < 0.01        # "~0.422, the Bessel 1/e point"


def test_defaults_block_is_the_code_defaults():
    assert json.loads(_json_after("`--config` takes a JSON file")) == DEFAULTS


def test_superposition_example_loads(tmp_path):
    path = tmp_path / "superposition.json"
    path.write_text(_json_after("A heavier-atom superposition"))
    cfg = load_config(str(path))
    assert cfg["params"]["mu"] == 800.0
    assert cfg["scenario"]["kind"] == "superposition"
