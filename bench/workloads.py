"""Seeded job lists, the size guard and the known answers.

A job is plain data: ``{"id", "kind", "args", "est", "expect", "pin"}``.
``make_jobs(workload, seed)`` builds the list from the seed and
``pinned.json`` alone, without importing the library, so the same seed
always gives the same list.  ``prepare(job, inputs)`` turns a job into a
zero-argument callable on inputs built ahead of time; ``check(job, result,
digests, inputs)`` compares a result with the job's known answer and pinned
witness digest.

Known answers come from theorems the test suite already states, never from
the library's own output.  Digests are sha256 over the ordered
(axiom, passed, witness) triples of each report; they are pinned in
``pinned.json`` (regenerate with ``python3 bench/pin.py``), so a changed first
witness is a failure while new report fields are not.

Draws are stratified by cost: the eligible candidates of a kind are sorted
by their calibrated seconds (``pinned.json``), the heaviest few are always
taken, and the rest are cut into strata with one draw from each.  The seed
changes which inputs are checked, while each list keeps the same spread of
job sizes, so percentiles compare across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

WORKLOADS = ("finite-tables", "windowed-valuation", "cli-scenarios")

# The size guard.  A job's size is the number of tuples its innermost loop
# nest visits, estimated from the window or table order before it runs.
# 64,000 tuples is at most about one second per job on a desk machine
# (validate(F37), check_krasner on LT(3,3) at bound 0); beyond it lie jobs
# such as tropical_axiom_suite(3, 2) at 25 s or composite check_krasner at
# bound 2 at 14 s, which would break the run length.
CAP = 64_000

FIELD_QS = (16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49)
W_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
SMALL_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37)

# Pinned at seed, not yet checked against Baker-Jin.  Orders 2 and 3 are
# also stated by the test suite.
ENUM_COUNTS = {2: 2, 3: 5, 4: 7, 5: 27, 6: 16}

# Inputs the CLI contract says are malformed (exit 2) but that exit with
# another code at the seed (ROADMAP item 4).  They run in every
# cli-scenarios list; an exit with the code pinned here is reported under
# the count ``cli.exit2_contract_misses`` instead of as a failed job, and
# any other code than 2 or this one is a failure.
KNOWN_EXIT_DEFECTS = {
    ("krasner", "kgamma", "--q", "6"): 3,
    ("krasner", "kgamma", "--gamma", "-1"): 3,
    ("krasner", "composite", "--p", "1"): 3,
    ("krasner", "collapsed", "--window-bound", "-1"): 0,
}

MALFORMED = (
    ("axioms", "builtin:nope"),
    ("axioms", "tropical:x"),
    ("axioms", "tropical:0"),
    ("classify", "builtin:F6"),
    ("enumerate", "--order", "x"),
    ("enumerate", "--order", "9"),
    ("quotient", "--field", "6", "--subgroup", "squares"),
    ("quotient", "--field", "7", "--subgroup", "0"),
    ("hyperideals", "builtin:Fx"),
    ("iso", "builtin:K", "bench-no-such-table.json"),
    ("residue", "kgamma", "--q", "abc"),
    ("krasner",),
)

SCENARIOS = ("coarsening-theorem", "example-last", "kgamma", "no-kraval",
             "tropical-not-krasner")


class OversizedJob(ValueError):
    """A job whose estimated size is above CAP; it is refused unrun."""


# -- arithmetic the generator needs (no library import) ------------------------

def prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    return None


def _poly_rem(f, g, p):
    f = list(f)
    inv = pow(g[-1], p - 2, p)
    while len(f) >= len(g) and any(f):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
        while f and f[-1] == 0:
            f.pop()
    return f


def _monic(p, deg):
    def rec(prefix):
        if len(prefix) == deg:
            yield tuple(prefix) + (1,)
            return
        for c in range(p):
            yield from rec(prefix + [c])
    return rec([])


def irreducible_moduli(q: int) -> list[tuple[int, ...]]:
    """Monic irreducible polynomials of degree k over F_p, q = p^k, in
    ascending-coefficient form (the library's modulus format)."""
    p, k = prime_power(q)
    out = []
    for f in _monic(p, k):
        if all(_poly_rem(f, g, p) for d in range(1, k // 2 + 1)
               for g in _monic(p, d)):
            out.append(f)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- size estimates and the guard -----------------------------------------------

def window_size(carrier: str, bound: int) -> int:
    """Elements in carrier.elements(bound), zero included."""
    name, _, rest = carrier.partition(":")
    if name == "lt":
        q, gamma = (int(s) for s in rest.split(":"))
        return (2 * bound + 1) * (q - 1) * q ** gamma + 1
    if name == "composite":
        return 22 * (2 * bound + 1) + 1  # 22 signed fractions a/b, a, b <= 4
    if name == "collapsed":
        return 2 * bound + 2
    if name in ("tropical", "tropical-strict"):
        return (2 * bound + 1) ** int(rest) + 1
    raise ValueError(f"unknown carrier {carrier!r}")


# Depth of each checker's loop nest over the window.
WINDOW_DEPTH = {"is_valuation": 3, "check_krasner": 3,
                "check_superiorly_canonical": 3, "ultrametric_report": 3,
                "tropical_axiom_suite": 3, "residue_hyperfield": 2,
                "check_coarsening_theorem": 1}


def estimate(kind: str, args: dict) -> int:
    """Estimated tuples the job visits, computed from its parameters only."""
    if kind in WINDOW_DEPTH:
        return window_size(args["carrier"], args["bound"]) ** WINDOW_DEPTH[kind]
    if kind in ("validate", "classify_field"):
        return args["q"] ** 3
    if kind in ("quotient", "iso_pair"):
        n = args["d"] + 1
        return n ** 3 + n * n * ((args["q"] - 1) // args["d"])
    if kind == "iso_K":
        return 8 + 4 * (args["q"] - 1)
    if kind == "iso_W":
        return 27 + 9 * ((args["p"] - 1) // 2)
    if kind == "ideals":
        n = args["d"] + 1
        return 2 ** (n - 1) * n * n
    if kind == "enumerate":
        return 2 ** (3 * (args["order"] - 1))  # candidate rows grow ~8x per order
    if kind == "cli":
        return args["est"]
    raise ValueError(f"unknown job kind {kind!r}")


def guard(job: dict) -> None:
    """Refuse a job whose estimated size is above CAP, before running it."""
    est = estimate(job["kind"], job["args"])
    if est > CAP:
        raise OversizedJob(f"{job['kind']} {job['args']}: about {est} tuples, "
                           f"cap {CAP}")


def _cand(kind, args, expect, pin=None):
    return {"kind": kind, "args": args, "est": estimate(kind, args),
            "expect": expect, "pin": pin}


def _eligible(cands):
    return [c for c in cands if c["est"] <= CAP]


# Seeded inputs that leave a job's size alone (see finite_variant).
VARIANT_ARGS = ("modulus", "k", "perm")


def cost_key(job: dict) -> str:
    """Key of a candidate in the calibrated costs (seeded variants excluded)."""
    core = {k: v for k, v in job["args"].items() if k not in VARIANT_ARGS}
    return job["kind"] + ":" + json.dumps(core, sort_keys=True)


# The heaviest candidates of each kind are in every list: they set the round
# time and the upper percentiles, which then do not move with the seed.
HEAVIEST_ALWAYS = 2


def stratified(rng: random.Random, cands: list, n: int, costs: dict) -> list:
    """The HEAVIEST_ALWAYS costliest candidates, then one draw from each of
    the remaining strata of the candidates sorted by calibrated cost in
    seconds (by estimated size where none is recorded)."""
    cands = sorted(cands, key=lambda c: (costs.get(cost_key(c), c["est"] * 1e-5),
                                         cost_key(c)))
    if not 0 < n <= len(cands):
        raise ValueError(f"cannot draw {n} jobs from {len(cands)} candidates")
    fixed = min(HEAVIEST_ALWAYS, n - 1)
    rest, m = cands[:len(cands) - fixed], n - fixed
    return cands[len(cands) - fixed:] + [
        rng.choice(rest[i * len(rest) // m:(i + 1) * len(rest) // m]) for i in range(m)]


def _finalize(rng, picked):
    jobs = []
    for c in picked:
        guard(c)
        jobs.append(dict(c))
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


# -- finite-tables --------------------------------------------------------------

def finite_candidates() -> dict[str, list]:
    """Candidate jobs by kind, with their known answers."""
    c = {}
    c["validate"] = [_cand("validate", {"q": q}, {"ok": True}, f"validate:F{q}")
                     for q in FIELD_QS]
    c["quotient"] = [_cand("quotient", {"q": q, "d": d}, {"size": d + 1})
                     for q in FIELD_QS for d in divisors(q - 1) if 1 < d <= 10]
    c["iso_K"] = [_cand("iso_K", {"q": q}, {"iso": True}) for q in FIELD_QS]
    # F_p / squares is W exactly when p = 3 mod 4 (and p >= 7).
    c["iso_W"] = [_cand("iso_W", {"p": p}, {"iso": p % 4 == 3 and p >= 7})
                  for p in W_PRIMES]
    c["iso_pair"] = [_cand("iso_pair", {"q": q, "d": d}, {"iso": True})
                     for q in FIELD_QS for d in divisors(q - 1) if 5 <= d <= 12]
    c["classify_field"] = [_cand("classify_field", {"q": q},
                                 {"is_field": True, "superiorly_canonical": True})
                           for q in FIELD_QS]
    # Hyperfields have only the trivial hyperideals; a proper quotient is
    # not a field and so not superiorly canonical.
    c["ideals"] = [_cand("ideals", {"q": q, "d": d},
                         {"is_field": False, "superiorly_canonical": False,
                          "ideals": [[0], list(range(d + 1))]})
                   for q in FIELD_QS for d in divisors(q - 1) if 3 <= d <= 11]
    c["enumerate"] = [_cand("enumerate", {"order": n}, {"count": ENUM_COUNTS[n]},
                            f"enumerate:{n}") for n in (4, 5, 6)]
    return {kind: _eligible(cands) for kind, cands in c.items()}


# Jobs per kind in one finite-tables list.
FINITE_COUNTS = {"validate": 10, "quotient": 30, "iso_K": 10, "iso_W": 12,
                 "iso_pair": 16, "classify_field": 10, "ideals": 16, "enumerate": 3}


def finite_variant(rng, job: dict) -> dict:
    """Seeded inputs that leave the job's size alone: the modulus of F_q,
    the generator of the subgroup, the relabelling of a table.  Without an
    rng, the fixed variant used to calibrate costs."""
    a = dict(job["args"])
    kind, q = job["kind"], a.get("q")
    if kind in ("validate", "classify_field"):
        a["modulus"] = None if rng is None or prime_power(q)[1] == 1 else \
            list(rng.choice(irreducible_moduli(q)))
    if kind in ("quotient", "iso_pair", "ideals"):
        # The subgroup of index d in the cyclic group F_q^x is generated by
        # g^(d*k) for the least primitive element g and any k prime to its order.
        m = (q - 1) // a["d"]
        a["k"] = 1 if rng is None else rng.choice([k for k in range(1, m + 1)
                                                   if gcd(k, m) == 1])
    if kind == "iso_pair":
        perm = list(range(2, a["d"] + 1))
        if rng is None:
            perm.reverse()
        else:
            rng.shuffle(perm)
        a["perm"] = perm
    return {**job, "args": a}


def finite_jobs(seed: int, costs: dict) -> list[dict]:
    rng = random.Random(f"finite-tables:{seed}")
    cands = finite_candidates()
    picked = [finite_variant(rng, c) for kind, n in FINITE_COUNTS.items()
              for c in stratified(rng, cands[kind], n, costs)]
    return _finalize(rng, picked)


# -- windowed-valuation -------------------------------------------------------------

LT_CARRIERS = [f"lt:{q}:{g}" for q in (2, 3, 4, 5) for g in (0, 1, 2, 3)]
COMPOSITE = ["composite:2", "composite:3"]
TROPICAL = [f"{t}:{r}" for t in ("tropical", "tropical-strict") for r in (1, 2, 3)]


def _windowed_expect(kind, carrier):
    """Known answers (criteria 6-8 and the valuation tests), or None where
    the test suite states none."""
    name = carrier.split(":")[0]
    rank1 = carrier.endswith(":1")
    ok = {"ok": True}
    if kind == "is_valuation":
        return ok  # every intrinsic valuation is a valuation
    if kind == "check_coarsening_theorem":
        return ok if name in ("lt", "composite") else None
    if kind == "tropical_axiom_suite":
        return ok if name.startswith("tropical") else None
    if kind == "check_krasner":
        if name in ("lt", "composite"):
            return ok
        if name == "collapsed":
            return {"ok": False, "fail": ["KVH2"], "pass": ["KVH1"]}
        if rank1:  # norm {m <= 0}
            return ok if name == "tropical-strict" else {"ok": False, "fail": ["KVH2"]}
        return None
    if kind == "check_superiorly_canonical":
        if name in ("lt", "composite"):
            return ok
        if rank1 and name == "tropical-strict":
            return ok
        if rank1 and name == "tropical":
            return {"ok": False, "fail": ["SCH1"]}
        return None
    if kind == "ultrametric_report":
        if name in ("lt", "composite"):
            return ok
        if name == "collapsed":
            return {"ok": False, "fail": ["BALL"]}
        return None
    if kind == "residue_hyperfield":
        if name in ("lt", "composite"):  # the field of order q, or F_p
            return {"size": int(carrier.split(":")[1]), "field": True}
        if name == "collapsed" or carrier == "tropical:1":
            return {"size": 2, "field": False}  # K
        if carrier == "tropical-strict:1":
            return {"size": 2, "field": True}
        return None
    raise ValueError(kind)


# Kinds whose result is a report, with a pinned digest of its triples.
REPORT_KINDS = ("validate", "tropical_axiom_suite", "is_valuation", "check_krasner",
                "check_superiorly_canonical", "ultrametric_report")

# Jobs per checker in one windowed-valuation list.
WINDOWED_COUNTS = {"is_valuation": 40, "check_krasner": 40,
                   "check_superiorly_canonical": 40, "ultrametric_report": 30,
                   "residue_hyperfield": 30, "check_coarsening_theorem": 24,
                   "tropical_axiom_suite": 14}

# Window sizes per checker: the smallest keeps timer noise from setting the
# median; the largest, well below the guard's cap, keeps each job short so
# that a list holds enough jobs for stable percentiles.
WINDOW_RANGE = {"is_valuation": (8, 32), "check_krasner": (10, 30),
                "check_superiorly_canonical": (10, 32), "ultrametric_report": (8, 28),
                "tropical_axiom_suite": (10, 22), "residue_hyperfield": (20, 200),
                "check_coarsening_theorem": (200, 3000)}


def windowed_candidates() -> list[dict]:
    out = []
    for kind in WINDOWED_COUNTS:
        for carrier in LT_CARRIERS + COMPOSITE + ["collapsed"] + TROPICAL:
            expect = _windowed_expect(kind, carrier)
            if expect is None:
                continue
            lo, hi = WINDOW_RANGE[kind]
            for bound in range(0, 40):
                n = window_size(carrier, bound)
                if n > hi:
                    break
                if n < lo:
                    continue
                pin = f"{kind}:{carrier}:{bound}" if kind in REPORT_KINDS else None
                out.append(_cand(kind, {"carrier": carrier, "bound": bound}, expect, pin))
    return out


def windowed_jobs(seed: int, costs: dict) -> list[dict]:
    rng = random.Random(f"windowed-valuation:{seed}")
    cands = windowed_candidates()
    picked = []
    for kind, n in WINDOWED_COUNTS.items():
        picked.extend(stratified(rng, [c for c in cands if c["kind"] == kind], n, costs))
    return _finalize(rng, picked)


# -- cli-scenarios ---------------------------------------------------------------------

def _cli(argv, est, code, verdict=None, pin=True, category="verb"):
    args = {"argv": list(argv), "est": est, "category": category}
    expect = {"code": code, "verdict": verdict}
    return _cand("cli", args, expect, " ".join(argv) if pin else None)


# The CLI workload checks small inputs: per-process cost, not kernel cost.
CLI_QS = tuple(q for q in SMALL_QS if q <= 16)
CLI_WINDOW_CAP = 8000


def cli_candidates() -> dict[str, list]:
    """Candidate invocations by category, with their known answers."""
    c = {k: [] for k in ("axioms", "classify", "quotient", "iso", "enumerate",
                         "hyperideals", "krasner", "residue", "coarsen")}
    for name in ("K", "S", "W"):
        c["axioms"].append(_cli(["axioms", f"builtin:{name}"], 27, 0, {"passed": True}))
    for q in CLI_QS:
        c["axioms"].append(_cli(["axioms", f"builtin:F{q}"], q ** 3, 0, {"passed": True}))
    for t in ("tropical", "tropical-strict"):
        for r in (1, 2, 3):
            for b in range(0, 8):
                est = window_size(f"{t}:{r}", b) ** 3
                if est <= CLI_WINDOW_CAP:
                    c["axioms"].append(_cli(["axioms", f"{t}:{r}", "--window-bound", str(b)],
                                            est, 0, {"passed": True}))
    flags_K = {"is_field": False, "char2": True, "cchar1": True, "stringent": True,
               "superiorly_canonical": False}
    c["classify"].append(_cli(["classify", "builtin:K"], 8, 0, {"classification": flags_K}))
    for name in ("S", "W"):
        c["classify"].append(_cli(["classify", f"builtin:{name}"], 27, 0,
                                  {"is_field": False, "superiorly_canonical": False}))
    for q in CLI_QS:
        c["classify"].append(_cli(["classify", f"builtin:F{q}"], q ** 3, 0,
                                  {"is_field": True, "superiorly_canonical": True}))
    for q in SMALL_QS + (41, 43, 47, 49):
        for sub in ("squares", "units"):
            order = 2 if sub == "units" or q % 2 == 0 else 3
            c["quotient"].append(_cli(["quotient", "--field", str(q), "--subgroup", sub],
                                      order ** 3 + order * order * q, 0, {"order": order}))
    for name in ("K", "S", "W"):
        c["iso"].append(_cli(["iso", f"builtin:{name}", f"builtin:{name}"], 27, 0,
                             {"isomorphic": True}))
    # 1+1 = {1} in S but {1, -1} in W.
    c["iso"].append(_cli(["iso", "builtin:S", "builtin:W"], 27, 1, {"isomorphic": False}))
    for q in SMALL_QS:
        if q <= 16:
            c["iso"].append(_cli(["iso", f"builtin:F{q}", f"builtin:F{q}"], q ** 3, 0,
                                 {"isomorphic": True}))
    for order in (2, 3, 4):
        c["enumerate"].append(_cli(["enumerate", "--order", str(order)],
                                   2 ** (3 * (order - 1)), 0, {"count": ENUM_COUNTS[order]}))
    for name in ("K", "S", "W"):
        c["hyperideals"].append(_cli(["hyperideals", f"builtin:{name}"], 27, 0,
                                     {"only_trivial_and_whole": True}))
    for q in SMALL_QS:
        if q <= 11:
            c["hyperideals"].append(_cli(["hyperideals", f"builtin:F{q}"],
                                         2 ** (q - 1) * q * q, 0,
                                         {"only_trivial_and_whole": True}))
    for carrier in LT_CARRIERS:
        q, g = carrier.split(":")[1:]
        for b in range(0, 3):
            n = window_size(carrier, b)
            if n ** 3 > CLI_WINDOW_CAP:
                break
            base = ["kgamma", "--q", q, "--gamma", g, "--window-bound", str(b)]
            c["krasner"].append(_cli(["krasner"] + base, n ** 3, 0, {"passed": True}))
            c["residue"].append(_cli(["residue"] + base, n ** 2, 0,
                                     {"order": int(q), "is_field": True}))
    for p in ("2", "3"):
        n = window_size(f"composite:{p}", 0)
        c["krasner"].append(_cli(["krasner", "composite", "--p", p, "--window-bound", "0"],
                                 n ** 3, 0, {"passed": True}))
        c["residue"].append(_cli(["residue", "composite", "--p", p, "--window-bound", "1"],
                                 window_size(f"composite:{p}", 1) ** 2, 0,
                                 {"order": int(p), "is_field": True}))
        for b in range(1, 5):
            c["coarsen"].append(_cli(["coarsen", "--p", p, "--window-bound", str(b)],
                                     window_size(f"composite:{p}", b), 0,
                                     {"coarsening_matches_induced_ring": True}))
    for b in range(1, 6):
        n = window_size("collapsed", b)
        c["krasner"].append(_cli(["krasner", "collapsed", "--window-bound", str(b)],
                                 n ** 3, 1, {"passed": False}))
        c["residue"].append(_cli(["residue", "collapsed", "--window-bound", str(b)],
                                 n ** 2, 0, {"order": 2, "is_field": False}))
        for t, code in (("tropical-strict:1", 0), ("tropical:1", 1)):
            n = window_size(t, b)
            c["krasner"].append(_cli(["krasner", t, "--norm-bound", "0", "--window-bound",
                                      str(b)], n ** 3, code, {"passed": code == 0}))
            c["residue"].append(_cli(["residue", t, "--window-bound", str(b)], n ** 2, 0,
                                     {"order": 2, "is_field": t == "tropical-strict:1"}))
    return {cat: _eligible(cands) for cat, cands in c.items()}


# Jobs per category in one cli-scenarios list (plus the five scenarios and
# the malformed share).
CLI_COUNTS = {"axioms": 22, "classify": 12, "quotient": 10, "iso": 8,
              "enumerate": 3, "hyperideals": 6, "krasner": 14, "residue": 8,
              "coarsen": 6}
MALFORMED_DRAWS = 6


def cli_jobs(seed: int, costs: dict) -> list[dict]:
    rng = random.Random(f"cli-scenarios:{seed}")
    picked = [_cli(["scenario", name], 1000, 0, None, pin=False, category="scenario")
              for name in SCENARIOS]
    cands = cli_candidates()
    for cat, n in CLI_COUNTS.items():
        picked.extend(stratified(rng, cands[cat], n, costs))
    for argv, code in KNOWN_EXIT_DEFECTS.items():
        picked.append(_cli(list(argv), 1, 2, None, pin=False, category="malformed"))
    for argv in rng.sample(MALFORMED, MALFORMED_DRAWS):
        picked.append(_cli(list(argv), 1, 2, None, pin=False, category="malformed"))
    return _finalize(rng, picked)


def make_jobs(workload: str, seed: int) -> list[dict]:
    costs = load_pinned()["seconds"]
    if workload == "finite-tables":
        return finite_jobs(seed, costs)
    if workload == "windowed-valuation":
        return windowed_jobs(seed, costs)
    if workload == "cli-scenarios":
        return cli_jobs(seed, costs)
    raise ValueError(f"unknown workload {workload!r}")


def candidates(workload: str) -> list[dict]:
    """Every job a seed can draw, in its calibration variant."""
    if workload == "finite-tables":
        return [finite_variant(None, c) for cs in finite_candidates().values() for c in cs]
    if workload == "windowed-valuation":
        return windowed_candidates()
    return [c for cs in cli_candidates().values() for c in cs]


# -- digests ----------------------------------------------------------------------------

def triples_digest(reports) -> str:
    """sha256 over the ordered (axiom, passed, witness) triples of report
    JSON objects (checks, then observations)."""
    triples = []
    for rep in reports:
        for c in rep.get("checks", []) + rep.get("observations", []):
            triples.append([c["axiom"], c["passed"], c.get("witness")])
    text = json.dumps(triples, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# -- preparing inputs ----------------------------------------------------------------------

class Inputs:
    """Library objects built before any job runs (part of set-up time)."""

    def __init__(self, root: Path):
        import hyperfields
        from hyperfields import finite, leading_terms, tropical, valuation
        from hyperfields.ordgroup import Cut
        self.root = root
        self.hf, self.finite, self.valuation = hyperfields, finite, valuation
        self.tropical, self.lt, self.Cut = tropical, leading_terms, Cut
        self.fields: dict = {}
        self.K, self.W = finite.build_K(), finite.build_W()

    def field(self, q, modulus=None):
        key = (q, None if modulus is None else tuple(modulus))
        if key not in self.fields:
            self.fields[key] = self.finite.build_finite_field(q, key[1])
        return self.fields[key]

    def subgroup_generator(self, args):
        F = self.field(args["q"])
        q, d, k = args["q"], args["d"], args["k"]
        g = next(x for x in F.units if _mult_order(F, x) == q - 1)
        return _power(F, g, d * k)

    def quotient(self, args):
        F = self.field(args["q"])
        return self.finite.quotient_hyperfield(F, [self.subgroup_generator(args)])

    def carrier(self, spec):
        name, _, rest = spec.partition(":")
        if name == "lt":
            q, g = (int(s) for s in rest.split(":"))
            ctx = self.lt.LTContext(q, g)
        elif name == "composite":
            ctx = self.lt.CompositeContext(int(rest))
        elif name == "collapsed":
            ctx = self.lt.CollapsedConstantsContext()
        else:
            ctx = self.tropical.TropicalHyperfield(int(rest), strict=name == "tropical-strict")
        if name.startswith("tropical"):
            rho = self.Cut.le(ctx.rank, (0,) * ctx.rank)
        else:
            rho = ctx.norm_cut()
        return ctx, self.valuation.intrinsic_valuation(ctx), rho


def _mult_order(F, x):
    y, k = x, 1
    while y != 1:
        y = F.mul[y][x]
        k += 1
    return k


def _power(F, x, e):
    y = 1
    for _ in range(e):
        y = F.mul[y][x]
    return y


def relabel(F, perm, hf):
    """The table F with unit labels 2.. permuted by perm; isomorphic to F
    by construction."""
    n = F.size
    sigma = [0, 1] + list(perm)          # old index -> new index
    inv = [0] * n
    for old, new in enumerate(sigma):
        inv[new] = old
    mul = [[sigma[F.mul[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    add = [[[sigma[z] for z in F.add_cell(inv[a], inv[b])] for b in range(n)]
           for a in range(n)]
    names = [F.names[inv[a]] for a in range(n)]
    return hf.FiniteHyperfield(names, mul, add, {"label": "relabelled"})


def prepare(job: dict, inp: Inputs, in_process_cli=False):
    """A zero-argument callable running the job on prebuilt inputs."""
    guard(job)
    kind, a = job["kind"], job["args"]
    fin, vn = inp.finite, inp.valuation
    if kind in ("validate", "classify_field"):
        F = inp.field(a["q"], a.get("modulus"))
        return (lambda: fin.validate(F)) if kind == "validate" else (lambda: fin.classify(F))
    if kind == "quotient":
        F, gen = inp.field(a["q"]), inp.subgroup_generator(a)
        return lambda: fin.quotient_hyperfield(F, [gen])
    if kind == "iso_K":
        F = inp.field(a["q"])
        return lambda: fin.find_isomorphism(fin.quotient_hyperfield(F, F.units), inp.K)
    if kind == "iso_W":
        F = inp.field(a["p"])
        return lambda: fin.find_isomorphism(
            fin.quotient_hyperfield(F, fin.squares_subgroup(F)), inp.W)
    if kind == "iso_pair":
        Q = inp.quotient(a)
        R = relabel(Q, a["perm"], inp.hf)
        return lambda: (Q, R, fin.find_isomorphism(Q, R))
    if kind == "ideals":
        Q = inp.quotient(a)
        return lambda: (Q, fin.classify(Q), fin.list_hyperideals(Q))
    if kind == "enumerate":
        return lambda: fin.enumerate_hyperfields(a["order"])
    if kind in WINDOW_DEPTH:
        B = a["bound"]
        if kind == "tropical_axiom_suite":
            name, r = a["carrier"].split(":")
            return lambda: inp.tropical.tropical_axiom_suite(int(r), B, name == "tropical-strict")
        ctx, v, rho = inp.carrier(a["carrier"])
        if kind == "is_valuation":
            return lambda: vn.is_valuation(ctx, v, B)
        if kind == "check_krasner":
            return lambda: vn.check_krasner(ctx, v, rho, B)
        if kind == "check_superiorly_canonical":
            return lambda: vn.check_superiorly_canonical(ctx, B)
        if kind == "ultrametric_report":
            return lambda: vn.ultrametric_report(ctx, v, rho, B)
        if kind == "residue_hyperfield":
            return lambda: vn.residue_hyperfield(ctx, v, B)
        return lambda: vn.check_coarsening_theorem(ctx, v, rho, B)
    if kind == "cli":
        argv = a["argv"]
        if in_process_cli:
            return lambda: run_cli_in_process(argv)
        return lambda: run_cli_subprocess(argv, inp.root)
    raise ValueError(f"unknown job kind {kind!r}")


def run_cli_subprocess(argv, root: Path):
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "hyperfields.cli", *argv],
                          cwd=root, env=env, capture_output=True, timeout=120,
                          check=False)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv):
    from hyperfields import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue().encode()


# -- checking results ---------------------------------------------------------------------

def _iso_errors(F, G, m):
    """Independent check that m is an isomorphism F -> G."""
    if m is None:
        return ["no isomorphism returned"]
    s = m.map
    n = F.size
    if sorted(s) != list(range(G.size)) or G.size != n or s[0] != 0 or s[1] != 1:
        return ["map is not a bijection fixing 0 and 1"]
    for x in range(n):
        for y in range(n):
            if s[F.mul[x][y]] != G.mul[s[x]][s[y]]:
                return [f"map breaks multiplication at {(x, y)}"]
            if sorted(s[z] for z in F.add_cell(x, y)) != list(G.add_cell(s[x], s[y])):
                return [f"map breaks addition at {(x, y)}"]
    return []


def _field_like(R):
    """Every addition cell a singleton: a finite field, unique per order."""
    return all(R.add_mask(x, y).bit_count() == 1
               for x in range(R.size) for y in range(R.size))


def _report_errors(rep_json, expect):
    errors = []
    verdicts = {}
    for c in rep_json.get("checks", []):
        verdicts.setdefault(c["axiom"], c["passed"])
    if "ok" in expect and rep_json.get("passed", all(verdicts.values())) != expect["ok"]:
        errors.append(f"verdict {not expect['ok']} where {expect['ok']} is known")
    for ax in expect.get("fail", []):
        if verdicts.get(ax) is not False:
            errors.append(f"{ax} should fail")
    for ax in expect.get("pass", []):
        if verdicts.get(ax) is not True:
            errors.append(f"{ax} should pass")
    return errors


def check(job: dict, result, pinned: dict, inp: Inputs) -> tuple[list, str | None]:
    """Errors against the known answer, and the exit-contract miss if any
    (the pinned code of a KNOWN_EXIT_DEFECTS input)."""
    kind, a, exp = job["kind"], job["args"], job["expect"]
    errors: list[str] = []
    digest = None
    if kind in REPORT_KINDS:
        rep = result.to_json()
        errors += _report_errors(rep, exp)
        digest = triples_digest([rep])
    elif kind == "residue_hyperfield":
        if result.size != exp["size"] or _field_like(result) != exp["field"]:
            errors.append(f"residue of order {result.size}, field={_field_like(result)}")
        if not exp["field"] and result.size == 2 and result.add_cell(1, 1) != (0, 1):
            errors.append("order-2 residue is not K")
    elif kind == "check_coarsening_theorem":
        if result is not True:
            errors.append("coarsening theorem verdict False")
    elif kind == "quotient":
        if result.size != exp["size"]:
            errors.append(f"quotient of order {result.size}, want {exp['size']}")
    elif kind in ("iso_K", "iso_W"):
        if (result is not None) != exp["iso"]:
            errors.append(f"isomorphic={result is not None}, known {exp['iso']}")
        elif result is not None:
            errors += _iso_errors(result.source, result.target, result)
    elif kind == "iso_pair":
        Q, R, m = result
        errors += _iso_errors(Q, R, m) if exp["iso"] else []
    elif kind == "classify_field":
        got = {k: result.to_json()[k] for k in exp}
        if got != exp:
            errors.append(f"classification {got}, known {exp}")
    elif kind == "ideals":
        Q, cls, ideals = result
        got = {"is_field": cls.is_field,
               "superiorly_canonical": cls.superiorly_canonical,
               "ideals": [sorted(s) for s in ideals]}
        if got != exp:
            errors.append(f"got {got}, known {exp}")
    elif kind == "enumerate":
        if len(result) != exp["count"]:
            errors.append(f"{len(result)} tables, pinned {exp['count']}")
        digest = payload_digest([F.to_json() for F in result])
    elif kind == "cli":
        return _check_cli(job, result, pinned, inp)
    if job["pin"] is not None and digest is not None and pinned.get(job["pin"]) != digest:
        errors.append(f"witness digest {digest[:12]} differs from pinned "
                      f"{str(pinned.get(job['pin']))[:12]}")
    return errors, None


def cli_verdict(out: dict) -> dict:
    """The verdict-bearing part of a report, for known answers and digests."""
    verb = out.get("verb")
    reports = []
    if verb == "axioms":
        reports = [out["report"]]
    elif verb == "krasner":
        reports = [out["valuation"], out["krasner"]]
    keep = {"passed", "classification", "axioms_pass", "order", "is_field",
            "isomorphic", "map", "count", "fields", "hyperideals",
            "only_trivial_and_whole", "coarsening_matches_induced_ring"}
    payload = {k: v for k, v in out.items() if k in keep}
    return {"payload": payload, "triples": triples_digest(reports)}


def _check_cli(job, result, pinned, inp):
    a, exp = job["args"], job["expect"]
    code, stdout = result
    argv = tuple(a["argv"])
    if a["category"] == "malformed":
        if code == exp["code"]:
            return [], None
        if KNOWN_EXIT_DEFECTS.get(argv) == code:
            return [], " ".join(argv)
        return [f"exit {code}, contract says {exp['code']}"], None
    errors = []
    if code != exp["code"]:
        errors.append(f"exit {code}, known {exp['code']}")
    if a["category"] == "scenario":
        golden = (inp.root / "tests" / "golden" / f"{argv[1]}.json").read_bytes()
        if stdout != golden:
            errors.append("stdout differs from the golden report")
        return errors, None
    try:
        out = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not JSON"], None
    got = cli_verdict(out)
    for k, v in (exp["verdict"] or {}).items():
        have = out.get(k, out.get("classification", {}).get(k))
        if have != v:
            errors.append(f"{k}={have!r}, known {v!r}")
    if job["pin"] is not None and pinned.get(job["pin"]) != payload_digest(got):
        errors.append("verdict digest differs from pinned")
    return errors, None


def pin_value(job: dict, result) -> str | None:
    """The digest ``check`` compares for this job, for pin.py."""
    kind = job["kind"]
    if kind == "cli":
        return payload_digest(cli_verdict(json.loads(result[1])))
    if kind == "enumerate":
        return payload_digest([F.to_json() for F in result])
    if hasattr(result, "to_json") and hasattr(result, "checks"):
        return triples_digest([result.to_json()])
    return None


PINNED = Path(__file__).resolve().parent / "pinned.json"


def load_pinned() -> dict:
    """{"digests": pin -> sha256, "seconds": cost_key -> calibrated cost}."""
    with open(PINNED) as fh:
        return json.load(fh)
