"""The README's examples run as written and do what their comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from hyperfields import build_W, find_isomorphism
from hyperfields.cli import main

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


def test_readme_cli_lines_exit_as_stated(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for code in blocks for line in code.splitlines()
             if line.startswith("hyperval ")]
    assert lines
    monkeypatch.chdir(tmp_path)  # `quotient --output q7.json` feeds `iso`
    for line in lines:
        command, _, comment = line.partition("#")
        want = 1 if "exits 1" in comment else 0
        assert main(shlex.split(command)[1:]) == want, line
    capsys.readouterr()
