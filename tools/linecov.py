"""List the lines of src/hyperfields that a pytest run never executes.

    python3 tools/linecov.py [pytest args]

Runs pytest in this process under ``sys.settrace``, tracing only the frames
of ``src/hyperfields``, then prints each module's executable lines (those of
its compiled code's ``co_lines()``) that never ran in this process (the
suite's ``hyperval`` subprocesses are not traced).  Stdlib only.  Tracing
slows every call, so the suite's timing budgets fail under it; the listing
is printed whatever the outcome, and the exit code is pytest's.
"""

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
        missed = sorted(executable(compile(path.read_text(), str(path), "exec"))
                        - {line for name, line in ran if name == str(path)})
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines never ran",
              *missed)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
