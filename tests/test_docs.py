"""The README's library example runs as written and says what it returns."""

import contextlib
import io
import re
from pathlib import Path

from hyperfields import build_W, find_isomorphism

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    ns: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for code in blocks:
            exec(compile(code, str(README), "exec"), ns)
    # the outcomes the example's comments state
    assert find_isomorphism(ns["Q"], build_W()) is not None
    assert ns["rep"].ok
    assert "KVH2" in out.getvalue()
