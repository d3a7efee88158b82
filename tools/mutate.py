"""List the small changes to named functions that a set of tests misses.

    python3 tools/mutate.py MODULE.FUNC [MODULE.CLASS.METHOD ...] -- TEST_FILE [...]

for instance ``python3 tools/mutate.py valuation.check_krasner
window._Window.members -- tests/test_valuation.py``.  Copies the repository
to a temporary directory, then makes one mutant at a time inside each named
top-level function or method of a top-level class of
``src/hyperfields/MODULE.py``, its nested functions and lambdas included:
a comparison swapped (``==``/``!=``, ``<``/``<=``, ``>``/``>=``,
``in``/``not in``, ``is``/``is not``), ``and``/``or`` swapped, an
``isinstance(...)`` call negated, or an int constant moved by one.  Each
mutant is written over the copy's module (through ``ast.unparse``, so
first the unmutated module is run the same way), and the test files run
on it with ``pytest -x``, one mutant after another.  A mutant the tests
pass survives.  Prints each survivor and each function's score; exits 1 if
a mutant survives.  Stdlib only.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
        ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And}


def _negate(owner, field, i) -> None:
    """Put ``not`` before owner.field, or before item i of it."""
    if i is None:
        setattr(owner, field, ast.UnaryOp(ast.Not(), getattr(owner, field)))
    else:
        items = getattr(owner, field)
        items[i] = ast.UnaryOp(ast.Not(), items[i])


def mutants(tree, name) -> list:
    """(line, label, apply) of each mutant of function name in tree, FUNC or
    CLASS.METHOD; apply() makes it in place."""
    *classes, name = name.split(".")
    body = tree.body
    for cls in classes:
        body = next(node.body for node in body
                    if isinstance(node, ast.ClassDef) and node.name == cls)
    func = next(node for node in body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAP:
                    out.append((node.lineno, f"{type(op).__name__} -> {SWAP[type(op)].__name__}",
                                lambda ops=node.ops, i=i: ops.__setitem__(i, SWAP[type(ops[i])]())))
        elif isinstance(node, ast.BoolOp):
            out.append((node.lineno, f"{type(node.op).__name__} -> {SWAP[type(node.op)].__name__}",
                        lambda node=node: setattr(node, "op", SWAP[type(node.op)]())))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            new = node.value - 1 if node.value > 0 else node.value + 1
            out.append((node.lineno, f"{node.value} -> {new}",
                        lambda node=node, new=new: setattr(node, "value", new)))
        for field, value in ast.iter_fields(node):
            slots = enumerate(value) if isinstance(value, list) else [(None, value)]
            for i, child in slots:
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                        and child.func.id == "isinstance"):
                    out.append((child.lineno, "isinstance -> not isinstance",
                                lambda node=node, field=field, i=i: _negate(node, field, i)))
    return out


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    targets, tests = argv[:argv.index("--")], argv[argv.index("--") + 1:]
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")

        def passes(path, tree) -> bool:
            path.write_text(ast.unparse(tree))
            try:
                return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                       "no:cacheprovider", *tests], cwd=copy, env=env,
                                      capture_output=True, timeout=900).returncode == 0
            except subprocess.TimeoutExpired:
                return False  # a mutant that hangs is caught

        for target in targets:
            module, name = target.split(".", 1)
            path = copy / "src" / "hyperfields" / f"{module}.py"
            source = path.read_text()
            if not passes(path, ast.parse(source)):
                print(f"{target}: the tests fail on the unmutated module")
                return 2
            alive = 0
            for j in range(len(mutants(ast.parse(source), name))):
                tree = ast.parse(source)
                line, label, apply = mutants(tree, name)[j]
                apply()
                if passes(path, tree):
                    alive += 1
                    print(f"  survivor: {module}.py:{line} in {name}: {label}", flush=True)
            path.write_text(source)
            total = len(mutants(ast.parse(source), name))
            print(f"{target}: {total - alive} of {total} mutants killed", flush=True)
            survived += alive
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
