"""The developer tools under ``tools/`` that tier-1 can run without a
repository copy or a pytest subprocess."""

import importlib.util
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
