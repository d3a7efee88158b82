"""The developer tools under ``tools/`` that tier-1 can run without a
repository copy or a pytest subprocess."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", ["window.FiniteBackend.sum_sets",  # no site
                                    "window.no_such_function", "no_such_module.f"])
def test_mutate_refuses_a_target_without_mutation_sites(target, monkeypatch, capsys):
    mutate = _load("mutate")

    def refuse(*args, **kwargs):
        raise AssertionError("no copy or test run may start")

    monkeypatch.setattr(mutate.shutil, "copytree", refuse)
    monkeypatch.setattr(mutate.subprocess, "run", refuse)
    assert mutate.main([target, "--", "tests/test_check_axioms.py"]) == 2
    assert capsys.readouterr().out == f"{target}: no mutation sites\n"
    # a target with sites is counted from the same source the mutants come from
    assert mutate._site_count("window.check_axioms") > 0


def test_mutate_caps_the_memory_of_each_test_run():
    mutate = _load("mutate")
    # read back in a child: the cap never touches this process
    out = subprocess.run([sys.executable, "-c", "import resource; "
                          "print(*resource.getrlimit(resource.RLIMIT_AS))"],
                         capture_output=True, text=True, check=True, timeout=60,
                         preexec_fn=mutate._cap_memory).stdout
    assert out == f"{2 << 30} {2 << 30}\n"


def test_linecov_leaves_out_blocks_that_never_run_by_design():
    linecov = _load("linecov")
    source = "\n".join([
        "import typing",                      # 1
        "from typing import TYPE_CHECKING",   # 2
        "if TYPE_CHECKING:",                  # 3
        "    import os",                      # 4
        "if typing.TYPE_CHECKING:",           # 5
        "    import sys",                     # 6
        "def f(x):",                          # 7
        "    if x:",                          # 8
        "        raise ValueError(x)",        # 9
        "    return x",                       # 10
        'if __name__ == "__main__":',         # 11
        "    f(",                             # 12
        "        0)",                         # 13
        "if __name__ == 'other':",            # 14
        "    f(1)",                           # 15
    ]) + "\n"
    ran = {1, 2, 3, 5, 7, 8, 10, 11, 14}
    assert linecov.missed(source, "m.py", ran) == [9, 15]
    # only those blocks: every other unrun line is listed
    assert linecov.missed(source, "m.py", set()) == [1, 2, 3, 5, 7, 8, 9, 10, 11, 14, 15]
