"""Spans and counters recorded from outside the library.

``Tracer.install()`` replaces the module functions and class methods named
in TARGETS with timing wrappers.  A function that other modules imported by
name (``value_gt_cut`` in ``hypersets`` and ``valuation``, ``validate`` in
``cli``, ...) is replaced in every ``hyperfields`` module that holds it, so
the copies are traced too.  ``uninstall()`` puts every original back.

Checker-level names keep one span each (name, start, end, parent span, job);
primitive-level names, called up to millions of times per job, only add to
their counters.  Self time is a call's duration minus the time of the traced
calls made inside it.

Which end-to-end metric each layer should move, and where:

* ``finite.validate/sumset/mul_mask``: wall_s and verdict_ms_p90 on
  finite-tables, nothing on windowed-valuation;
* ``finite.find_isomorphism``, ``finite.enumerate*``: wall_s and
  verdict_ms_p50 on finite-tables;
* ``finite.build_finite_field``, ``finite.quotient_hyperfield``: setup_s and
  verdict_ms_p50 on finite-tables;
* ``leading_terms.*``, ``hypersets.*``, ``ordgroup.cut``, ``valuation.*``,
  ``tropical.*``: wall_s and verdict_ms_p90 on windowed-valuation, and the
  p90 of cli-scenarios (scenarios example-last and kgamma);
* ``cli.import_s``, ``cli.main.self_s``: setup_s and verdict_ms_p50 on
  cli-scenarios;
* ``trace.overhead_ratio`` (traced over untraced round time): none.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

LT_CLASSES = ("LTContext", "CompositeContext", "CollapsedConstantsContext")
CHECKERS = ("is_valuation", "check_krasner", "check_superiorly_canonical",
            "ultrametric_report", "residue_hyperfield", "check_coarsening_theorem")

# (module, attribute or Class.method, metric name, keeps spans)
TARGETS = [
    ("finite", "validate", "finite.validate", True),
    ("finite", "FiniteHyperfield.sumset", "finite.sumset", False),
    ("finite", "FiniteHyperfield.mul_mask", "finite.mul_mask", False),
    ("finite", "find_isomorphism", "finite.find_isomorphism", True),
    ("finite", "enumerate_hyperfields", "finite.enumerate_hyperfields", True),
    ("finite", "build_finite_field", "finite.build_finite_field", True),
    ("finite", "quotient_hyperfield", "finite.quotient_hyperfield", True),
    *[("leading_terms", f"{c}.{m}", f"leading_terms.{c}.{m}", False)
      for c in LT_CLASSES for m in ("add", "neg", "mul")],
    ("tropical", "TropicalHyperfield.add", "tropical.TropicalHyperfield.add", False),
    ("tropical", "t_add", "tropical.t_add", False),
    ("tropical", "tropical_axiom_suite", "tropical.tropical_axiom_suite", True),
    ("hypersets", "contains", "hypersets.contains", False),
    ("hypersets", "members", "hypersets.members", False),
    ("hypersets", "values_of", "hypersets.values_of", False),
    *[("hypersets", f, "hypersets.setops", False) for f in ("equal", "subset", "intersects")],
    *[("ordgroup", f"Cut.{m}", "ordgroup.cut", False)
      for m in ("shift", "subseteq", "all_below_in")],
    ("ordgroup", "value_gt_cut", "ordgroup.cut", False),
    *[("valuation", c, f"valuation.{c}", True) for c in CHECKERS],
    ("cli", "main", "cli.main", True),
]

# Counts of calls made while another traced call is on the stack.
ENUMERATE = "finite.enumerate_hyperfields"
KRASNER = "valuation.check_krasner"
CARRIER_ADDS = {f"leading_terms.{c}.add" for c in LT_CLASSES} | {
    "tropical.TropicalHyperfield.add"}
NESTED = {"finite.validate": [(ENUMERATE, "validate_in_enumerate")],
          **{name: [(KRASNER, "adds_in_krasner")] for name in CARRIER_ADDS}}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self.nested: Counter = Counter()
        self.returned: Counter = Counter()  # tables returned by enumeration
        self.spans: list[tuple] = []
        self.stack: list[list] = []         # frames: [child seconds, span id]
        self.active: Counter = Counter()
        self.job = None
        self._next_span = 0
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------------

    def _wrap(self, name, fn, keep_span):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        nested = NESTED.get(name, [])
        ancestor = name in (ENUMERATE, KRASNER)
        counts_result = name == ENUMERATE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for anc, key in nested:
                if tracer.active[anc]:
                    tracer.nested[key] += 1
            if ancestor:
                tracer.active[name] += 1
            stack = tracer.stack
            outer = stack[-1][1] if stack else None
            if keep_span:
                sid = tracer._next_span
                tracer._next_span += 1
            else:
                sid = outer
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if ancestor:
                    tracer.active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep_span:
                    tracer.spans.append((sid, name, t0, t1, outer, tracer.job))
            if counts_result:
                tracer.returned[name] += len(result)
            return result

        return wrapper

    def run_job(self, job_id, kind, thunk):
        """Run one job under a root span named after its kind."""
        self.job = job_id
        try:
            return self._wrap(f"job.{kind}", thunk, True)()
        finally:
            self.job = None

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for sub in ("finite", "leading_terms", "tropical", "hypersets",
                    "ordgroup", "valuation", "cli"):
            importlib.import_module(f"hyperfields.{sub}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hyperfields" or n.startswith("hyperfields.")]
        for modname, attr, name, keep in TARGETS:
            mod = sys.modules[f"hyperfields.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(name, original, keep))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, keep)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple]:
        """(owner, attribute, original) for every replacement in place."""
        return list(self._patches)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit); zero where the workload
        never reached the layer."""
        def st(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        out = {}

        def calls(metric):
            out[metric] = (st(metric.rsplit(".", 1)[0])[0], "count")

        def secs(metric, name, index):
            out[metric] = (st(name)[index], "s")

        for short in ("validate", "sumset", "mul_mask", "find_isomorphism"):
            calls(f"finite.{short}.calls")
        secs("finite.validate.self_s", "finite.validate", 2)
        secs("finite.sumset.s", "finite.sumset", 1)
        secs("finite.mul_mask.s", "finite.mul_mask", 1)
        secs("finite.find_isomorphism.self_s", "finite.find_isomorphism", 2)
        secs("finite.enumerate_hyperfields.self_s", ENUMERATE, 2)
        base = self.nested["validate_in_enumerate"]
        out["finite.enumerate.kept_ratio"] = (
            self.returned[ENUMERATE] / base if base else 0.0, "ratio")
        secs("finite.build_finite_field.s", "finite.build_finite_field", 1)
        secs("finite.quotient_hyperfield.self_s", "finite.quotient_hyperfield", 2)
        for c in LT_CLASSES:
            p = f"leading_terms.{c}"
            calls(f"{p}.add.calls")
            secs(f"{p}.add.s", f"{p}.add", 1)
            calls(f"{p}.neg.calls")
            calls(f"{p}.mul.calls")
        calls("tropical.TropicalHyperfield.add.calls")
        calls("tropical.t_add.calls")
        secs("tropical.tropical_axiom_suite.self_s", "tropical.tropical_axiom_suite", 2)
        for short in ("contains", "members"):
            calls(f"hypersets.{short}.calls")
            secs(f"hypersets.{short}.s", f"hypersets.{short}", 1)
        calls("hypersets.values_of.calls")
        calls("hypersets.setops.calls")
        calls("ordgroup.cut.calls")
        secs("ordgroup.cut.s", "ordgroup.cut", 1)
        for c in CHECKERS:
            calls(f"valuation.{c}.calls")
            secs(f"valuation.{c}.self_s", f"valuation.{c}", 2)
        k = st(KRASNER)[0]
        out["valuation.check_krasner.adds_per_call"] = (
            self.nested["adds_in_krasner"] / k if k else 0.0, "adds/call")
        secs("cli.main.self_s", "cli.main", 2)
        return out

    def write_spans(self, path) -> None:
        fields = ("span", "name", "start", "end", "parent", "job")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
