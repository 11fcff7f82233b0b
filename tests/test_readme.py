"""The library example in README.md runs as documented."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_what_it_claims():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    purity, length = (float(line) for line in out.getvalue().split())
    assert purity < 0.5                      # "well below 1: the state is mixed"
    assert abs(length - 0.422) < 0.01        # "~0.422, the Bessel 1/e point"
