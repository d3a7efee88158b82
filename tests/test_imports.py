"""What a process imports: the package's public surface resolves lazily,
a bare CLI import loads no other module of the package, the CLI's finite
verbs never load the symbolic layer, and its symbolic verbs load the
finite-table layer only to build a table.  Of the CLI, a process loads the
front end and its verb's family, and compiles ``cli.py`` once."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import hyperfields
from hyperfields import finite

SRC = Path(__file__).resolve().parent.parent / "src"

# The modules the layering test watches: the symbolic layer and the
# compiled window.
TRACKED = ("hyperfields.hypersets", "hyperfields.leading_terms",
           "hyperfields.tropical", "hyperfields.valuation", "hyperfields.window")
# The module the other direction watches: the finite-table layer.
FINITE = ("hyperfields.finite",)

# The package's exports: 48 names and 8 submodules.
PUBLIC = [
    "AxiomCheck", "CollapsedConstantsContext", "CompositeContext",
    "ConvexSubgroup", "Cut", "FiniteBackend", "FiniteHyperfield", "LTContext",
    "LTElement", "MalformedTableError", "Morphism", "TropicalHyperfield",
    "ValidationReport", "Valuation", "build_K", "build_S", "build_W",
    "build_finite_field", "check_coarsening_theorem", "check_krasner",
    "check_superiorly_canonical", "classify", "coarsening", "compare_rings",
    "enumerate_hyperfields", "find_isomorphism", "finite", "galois",
    "hypersets", "induced_ring", "intrinsic_valuation", "invariance_group",
    "is_field", "is_homomorphism", "is_isomorphism",
    "is_valuation", "is_valuation_hyperring", "leading_terms",
    "list_hyperideals", "maximal_ideal", "non_quotient_certificate",
    "ordgroup", "quotient_hyperfield", "quotient_search", "report",
    "residue_embedding_check", "residue_hyperfield", "squares_subgroup",
    "trivial_valuation", "tropical", "tropical_axiom_suite",
    "ultrametric_report", "unit_group", "validate", "valuation",
    "valuation_ring"]


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run python with args in a new interpreter that imports from src."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc


LAYERS = """
import contextlib, io, json, sys

def loaded():
    return [m for m in json.loads(sys.argv[2]) if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return [main(list(argv)), loaded()]
        except SystemExit as e:  # argparse rejects bad arguments
            return [e.code, loaded()]

STEPS = {
    "classify": ("classify", "builtin:K"),
    "classify F7": ("classify", "builtin:F7"),
    "axioms": ("axioms", "builtin:W"),
    "iso": ("iso", "builtin:S", "builtin:W"),
    "quotient": ("quotient", "--field", "7", "--subgroup", "squares"),
    "enumerate": ("enumerate", "--order", "3"),
    "hyperideals": ("hyperideals", "builtin:S"),
    "bad-q": ("krasner", "kgamma", "--q", "6"),
    "axioms tropical:1": ("axioms", "tropical:1", "--window-bound", "2"),
    "krasner": ("krasner", "kgamma"),
    "version": ("--version",),
    "krasner composite": ("krasner", "composite", "--window-bound", "1"),
    "krasner collapsed": ("krasner", "collapsed", "--window-bound", "1"),
    "krasner tropical:1": ("krasner", "tropical:1", "--window-bound", "1"),
    "coarsen": ("coarsen", "--window-bound", "1"),
    "scenario tropical-not-krasner": ("scenario", "tropical-not-krasner",
                                      "--window-bound", "1"),
    "residue kgamma": ("residue", "kgamma", "--window-bound", "1"),
    "scenario kgamma": ("scenario", "kgamma", "--window-bound", "1"),
    "scenario no-kraval": ("scenario", "no-kraval", "--window-bound", "1"),
    "krasner builtin:K": ("krasner", "builtin:K", "--window-bound", "1"),
}

import hyperfields.cli
from hyperfields.cli import main
steps = {"import": [None, loaded()]}
for name in json.loads(sys.argv[1]):
    steps[name] = run(*STEPS[name])
print(json.dumps(steps))
"""


def _layers(*names: str, watch=TRACKED) -> dict:
    """Run the named steps, in order, in one fresh interpreter: each step's
    exit code and the watched modules loaded after it."""
    return json.loads(_fresh("-c", LAYERS, json.dumps(names), json.dumps(watch)).stdout)


def test_finite_verbs_leave_the_symbolic_layer_unloaded():
    steps = _layers("axioms", "iso", "quotient", "enumerate", "hyperideals", "bad-q",
                    "classify")
    # classify reads superior canonicity from is_field: no hypersets, no window
    assert steps == {"import": [None, []], "axioms": [0, []], "iso": [1, []],
                     "quotient": [0, []], "enumerate": [0, []],
                     "hyperideals": [0, []], "bad-q": [2, []], "classify": [0, []]}
    steps = _layers("axioms tropical:1", "krasner")
    # the tropical suite needs neither valuation nor leading_terms
    assert steps["axioms tropical:1"] == [
        0, ["hyperfields.hypersets", "hyperfields.tropical", "hyperfields.window"]]
    assert steps["krasner"] == [0, list(TRACKED)]


def test_symbolic_verbs_leave_the_finite_layer_unloaded():
    steps = _layers("version", "axioms tropical:1", "krasner", "krasner composite",
                    "krasner collapsed", "krasner tropical:1", "coarsen",
                    "scenario tropical-not-krasner", "residue kgamma", watch=FINITE)
    # a residue is a finite table: building one loads the layer
    assert steps.pop("residue kgamma") == [0, list(FINITE)]
    # neither carrier is Krasner with its norm: exit 1
    assert steps == {"import": [None, []], "version": [0, []],
                     "axioms tropical:1": [0, []], "krasner": [0, []],
                     "krasner composite": [0, []], "krasner collapsed": [1, []],
                     "krasner tropical:1": [1, []], "coarsen": [0, []],
                     "scenario tropical-not-krasner": [0, []]}
    assert _layers("scenario kgamma", watch=FINITE)["scenario kgamma"] == [0, list(FINITE)]


def _modules(*names: str) -> list:
    return sorted(f"hyperfields.{name}" for name in names)


def test_each_verb_compiles_galois_and_ordgroup_only_when_it_runs_them():
    watch = _modules(*SUBMODULES)
    bare = _modules("cli")
    assert _layers("version", "bad-q", watch=watch) == {
        "import": [None, bare], "version": [0, bare],
        "bad-q": [2, _modules("cli", "galois")]}  # refused by the --q type
    tables = _modules("cli", "cli_tables", "bitmask", "finite", "report")
    assert _layers("axioms", "iso", "classify", "classify F7", watch=watch) == {
        "import": [None, bare], "axioms": [0, tables], "iso": [1, tables],
        "classify": [0, tables], "classify F7": [0, sorted(tables + ["hyperfields.galois"])]}
    assert _layers("quotient", watch=watch)["quotient"] == [
        0, sorted(tables + ["hyperfields.galois"])]
    tropical = _modules("cli", "cli_tables", "bitmask", "hypersets", "ordgroup", "report",
                        "tropical", "window")
    assert _layers("axioms tropical:1", watch=watch)["axioms tropical:1"] == [0, tropical]
    valued = _modules("cli", "cli_carriers", "bitmask", "hypersets", "ordgroup", "report",
                      "tropical", "valuation", "window")
    assert _layers("krasner tropical:1", "scenario tropical-not-krasner", watch=watch) == {
        "import": [None, bare], "krasner tropical:1": [1, valued],
        "scenario tropical-not-krasner": [0, sorted(valued + ["hyperfields.cli_scenarios"])]}
    # leading_terms imports galois (for kgamma) whatever its carrier
    carriers = [m for m in watch if m not in _modules("cli_scenarios", "cli_tables", "finite")]
    for step, code in (("krasner", 0), ("krasner composite", 0), ("krasner collapsed", 1)):
        assert _layers(step, watch=watch)[step] == [code, carriers], step


# The front end and its three verb modules.
FRONT = _modules("cli", "cli_carriers", "cli_scenarios", "cli_tables")


def test_each_verb_loads_its_own_family_of_the_front_end():
    # a finite verb, on a table or on a tropical carrier, never loads the
    # carrier or scenario verbs
    finite_verbs = ("axioms", "iso", "quotient", "enumerate", "hyperideals", "classify",
                    "axioms tropical:1")
    steps = _layers(*finite_verbs, watch=FRONT)
    assert steps.pop("import") == [None, _modules("cli")]
    assert {step: mods for step, (_, mods) in steps.items()} == {
        step: _modules("cli", "cli_tables") for step in finite_verbs}
    # a verb on a carrier loads the table verbs only to read a table
    carrier_verbs = ("krasner", "krasner composite", "krasner collapsed",
                     "krasner tropical:1", "coarsen", "residue kgamma")
    steps = _layers(*carrier_verbs, "krasner builtin:K", watch=FRONT)
    assert {step: steps[step][1] for step in carrier_verbs} == {
        step: _modules("cli", "cli_carriers") for step in carrier_verbs}
    assert steps["krasner builtin:K"] == [1, _modules("cli", "cli_carriers", "cli_tables")]
    scenarios = ("scenario tropical-not-krasner", "scenario kgamma", "scenario no-kraval")
    steps = _layers(*scenarios, watch=FRONT)
    assert {step: steps[step] for step in scenarios} == {
        step: [0, _modules("cli", "cli_carriers", "cli_scenarios")] for step in scenarios}


# Run hyperval as ``python -m hyperfields.cli`` does, counting the calls of
# compile() per package file; the last stderr line is the count.
COMPILES = """
import builtins, collections, json, os, runpy, sys
package = os.path.join(sys.argv[1], "hyperfields")
counts = collections.Counter()
real = builtins.compile

def counting(source, filename, *args, **kwargs):
    if os.path.dirname(str(filename)) == package:
        counts[os.path.basename(filename)] += 1
    return real(source, filename, *args, **kwargs)

builtins.compile = counting
sys.argv = sys.argv[1:]
try:
    runpy._run_module_as_main("hyperfields.cli")
except SystemExit as e:
    code = e.code
print(json.dumps([code, counts]), file=sys.stderr)
"""


def _compiles(tmp_path, *argv) -> tuple:
    """(exit code, compile() calls per package file, stderr) of one fresh
    hyperval process with no usable bytecode cache."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", COMPILES, str(SRC), *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    *err, last = proc.stderr.splitlines()
    code, counts = json.loads(last)
    return code, counts, "\n".join(err)


def test_a_hyperval_process_compiles_cli_once(tmp_path):
    verb_modules = {"cli_carriers.py", "cli_scenarios.py", "cli_tables.py"}
    for argv, family in ((("--version",), set()),
                         (("axioms", "builtin:F7"), {"cli_tables.py"}),
                         (("coarsen", "--window-bound", "1"), {"cli_carriers.py"}),
                         (("scenario", "tropical-not-krasner", "--window-bound", "1"),
                          {"cli_carriers.py", "cli_scenarios.py"})):
        code, counts, _ = _compiles(tmp_path, *argv)
        assert code == 0, argv
        assert counts["__init__.py"] == counts["cli.py"] == 1, argv
        assert max(counts.values()) == 1, argv  # no file twice
        assert verb_modules & set(counts) == family, argv
    # a verb module raises the front end's one ParseFailure: exit 2
    code, counts, err = _compiles(tmp_path, "krasner", "tropical:1", "--q", "3")
    assert code == 2 and counts["cli.py"] == counts["cli_carriers.py"] == 1
    assert err == "hyperval: --q does not apply to backend 'tropical:1'"


def test_public_surface_is_unchanged():
    assert hyperfields.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(hyperfields))
    for name in PUBLIC:
        obj = getattr(hyperfields, name)
        if isinstance(obj, ModuleType):
            assert obj is sys.modules[f"hyperfields.{name}"], name
        else:
            assert obj is getattr(sys.modules[obj.__module__], name), name
    ns: dict = {}
    exec("from hyperfields import *", ns)
    assert set(ns) - {"__builtins__"} == set(PUBLIC)
    assert sum(isinstance(ns[name], ModuleType) for name in PUBLIC) == 8


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperfields.no_such_name  # noqa: B018


def test_exports_are_read_through_not_stored(monkeypatch):
    # A wrapper put on a submodule attribute shows through the package and
    # is gone with its removal: nothing is cached at package level.
    original = finite.validate
    monkeypatch.setattr(finite, "validate", "wrapped")
    assert hyperfields.validate == "wrapped"
    monkeypatch.undo()
    assert hyperfields.validate is original
    assert "validate" not in vars(hyperfields)


def test_cli_reads_validate_through(monkeypatch):
    from hyperfields import cli
    assert cli.validate is finite.validate
    assert hyperfields.MalformedTableError is finite.MalformedTableError
    monkeypatch.setattr(finite, "validate", "wrapped")
    assert cli.validate == "wrapped"
    assert "validate" not in vars(cli)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_fresh_interpreters_start():
    out = _fresh("-m", "hyperfields.cli", "--version").stdout
    assert out == f"hyperval {hyperfields.__version__}\n"
    out = _fresh("-c", "import hyperfields.valuation as v; print(v.is_valuation.__name__)")
    assert out.stdout == "is_valuation\n"


def test_hypersets_loads_no_finite_table_code():
    out = _fresh("-c", "import sys, hyperfields.hypersets; "
                       "print('hyperfields.finite' in sys.modules)")
    assert out.stdout == "False\n"


# dataclasses and the modules it pulls in: no process of the package needs them.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
LOADED_HEAVY = f"import sys; print(sorted(m for m in {HEAVY!r} if m in sys.modules))"
SUBMODULES = sorted(p.stem for p in (SRC / "hyperfields").glob("*.py")
                    if p.stem != "__init__")


def test_no_process_loads_dataclasses():
    bare = _fresh("-c", LOADED_HEAVY).stdout
    script = f"""
import contextlib, importlib, io
import hyperfields.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert hyperfields.cli.main(["krasner", "kgamma"]) == 0
for name in {SUBMODULES!r}:
    importlib.import_module("hyperfields." + name)
{LOADED_HEAVY}
"""
    assert _fresh("-c", script).stdout == bare
