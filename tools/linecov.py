"""List the lines of src/hyperfields that a pytest run never executes.

    python3 tools/linecov.py [pytest args]

Runs pytest in this process under ``sys.settrace``, tracing only the frames
of ``src/hyperfields``, then prints each module's executable lines (those of
its compiled code's ``co_lines()``) that never ran in this process (the
suite's ``hyperval`` subprocesses are not traced).  The bodies of a
module's ``if TYPE_CHECKING:`` and ``if __name__ == "__main__":`` blocks
never run under pytest by design, and are not listed.  Stdlib only.  Tracing
slows every call, so the suite's timing budgets fail under it; the listing
is printed whatever the outcome, and the exit code is pytest's.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperfields"
ran: set = set()  # (file name, line number)


def trace(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace if frame.f_code.co_filename.startswith(str(SRC)) else None


def executable(code) -> set:
    """The lines of code and its nested code, less a function's header line
    (entering a function is a call event, not a line event)."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


# The tests of the top-level blocks whose bodies never run under pytest.
NEVER_RUN = {"TYPE_CHECKING", "typing.TYPE_CHECKING", "__name__ == '__main__'"}


def missed(source: str, filename: str, ran: set) -> list:
    """The executable lines of source not in ran, less the bodies of its
    top-level blocks that never run by design."""
    skip = {line for node in ast.parse(source).body
            if isinstance(node, ast.If) and ast.unparse(node.test) in NEVER_RUN
            for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1)}
    return sorted(executable(compile(source, filename, "exec")) - ran - skip)


def main(args) -> int:
    import pytest
    sys.path.insert(0, str(ROOT / "src"))  # and for the suite's subprocesses:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    print("(timing budgets fail under tracing; the listing holds either way)")
    for path in sorted(SRC.glob("*.py")):
        lines = missed(path.read_text(), str(path),
                       {line for name, line in ran if name == str(path)})
        print(f"{path.relative_to(ROOT)}: {len(lines)} lines never ran", *lines)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
