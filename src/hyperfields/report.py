"""Structured pass/fail reports for axiom checkers.

Every checker in this package returns a ValidationReport rather than a bare
boolean, so a failing run always carries a witness that can be re-checked by
hand.  The one exception is ``valuation.check_coarsening_theorem``, which
returns the ``.ok`` of its ring comparison: the benchmark's known-answer
check reads ``result is True``.  A report has no truth value; read ``.ok``.
Reports distinguish two certification modes: "proof by exhaustion" (finite
carrier, every tuple visited) and "bounded verification" (infinite carrier,
all tuples inside a stated window visited).
"""

from __future__ import annotations

from typing import NamedTuple


class AxiomCheck(NamedTuple):
    """Verdict for a single axiom, with a re-checkable witness on failure."""

    axiom: str
    passed: bool
    witness: object = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"axiom": self.axiom, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


class ValidationReport:
    def __init__(self, subject: str, mode: str, window: dict | None = None):
        self.subject = subject
        self.mode = mode  # "proof by exhaustion" | "bounded verification"
        self.checks: list[AxiomCheck] = []
        # Observations are recorded predicates (classification flags and the
        # like); they never affect the overall verdict.
        self.observations: list[AxiomCheck] = []
        self.window = window
        self.skipped: list[str] = []

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self):
        # A report in a boolean context is a caller still on a bool contract.
        raise TypeError("a ValidationReport has no truth value; read .ok")

    def failed(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks + self.observations:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def add(self, axiom: str, passed: bool, witness=None, note: str = "") -> None:
        self.checks.append(AxiomCheck(axiom, passed, witness, note))

    def observe(self, axiom: str, passed: bool, witness=None, note: str = "") -> None:
        self.observations.append(AxiomCheck(axiom, passed, witness, note))

    def to_json(self) -> dict:
        out = {
            "subject": self.subject,
            "mode": self.mode,
            "passed": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.observations:
            out["observations"] = [c.to_json() for c in self.observations]
        if self.window is not None:
            out["window"] = self.window
        if self.skipped:
            out["skipped"] = self.skipped
        return out

    def render_table(self) -> str:
        """Plain text table, one line per axiom."""
        lines = [f"{self.subject}  [{self.mode}]"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            extra = ""
            if not c.passed and c.witness is not None:
                extra = f"  witness={c.witness!r}"
            if c.note:
                extra += f"  ({c.note})"
            lines.append(f"  {mark:4s}  {c.axiom:10s}{extra}")
        for c in self.observations:
            val = "yes" if c.passed else "no"
            lines.append(f"  obs   {c.axiom:10s}= {val}")
        for s in self.skipped:
            lines.append(f"  skip  {s}")
        return "\n".join(lines)
