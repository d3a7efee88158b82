"""hyperval: command-line front end.

Construct, validate, classify, quotient, compare and enumerate hyperfields,
run the valuation checkers, and replay the named end-to-end scenarios.  All
structured I/O is JSON; reports are deterministic (sorted keys, no
timestamps) and carry the tool version plus the window parameters used.

Exit codes: 0 every requested check passed, 1 a check failed (the report
holds witnesses), 2 malformed input, 3 internal error.  A table failing its
axioms fails ``axioms`` and ``classify`` and is malformed input elsewhere.

No module of the package is imported here but ``__version__``.  Each verb
imports the layer it runs when it runs: the finite verbs the finite-table
layer, the verbs on symbolic carriers (``krasner``, ``residue``, ``coarsen``,
``scenario`` and ``axioms tropical...``) the valuation, leading-term and
tropical modules, ``--q`` and ``--p`` the prime tests of ``galois``, and a
verb building a norm cut ``ordgroup``.  So ``--version`` compiles no other
module, a finite verb never compiles the symbolic layer (nor ``galois``
unless it builds a field), and a symbolic verb compiles ``finite`` only to
build or read a table (a residue, ``no-kraval``'s K, a table backend).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .finite import FiniteHyperfield


def __getattr__(name: str):
    # ``cli.validate`` still names ``finite.validate`` (the benchmark's
    # tracer test reads it), looked up on every access and never stored
    # here (PEP 562), so importing cli compiles no finite.
    if name == "validate":
        from .finite import validate
        return validate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ParseFailure(Exception):
    """Bad input: wrong URI, unreadable file, malformed table."""


def _report(verb: str, params: dict, payload: dict, passed: bool) -> dict:
    out = {"report_version": 1, "verb": verb, "params": params, "passed": passed,
           "tool": {"name": "hyperval", "version": __version__}}
    out.update(payload)
    return out


def _emit(obj: dict, output: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseFailure(f"cannot write {output!r}: {e}")
    else:
        sys.stdout.write(text)


# -- input loading -------------------------------------------------------------

def load_finite(spec: str) -> FiniteHyperfield:
    """builtin:K | builtin:S | builtin:W | builtin:F<q> | path to a table."""
    from .finite import (FiniteHyperfield, MalformedTableError, build_K, build_S,
                         build_W, build_finite_field)
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        small = {"K": build_K, "S": build_S, "W": build_W}
        if name in small:
            return small[name]()
        if name.startswith("F"):
            try:
                q = int(name[1:])
            except ValueError:
                raise ParseFailure(f"bad field size in {spec!r}")
            try:
                return build_finite_field(q)
            except ValueError as e:
                raise ParseFailure(str(e))
        raise ParseFailure(f"unknown builtin {name!r} (use K, S, W or F<q>)")
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseFailure(f"cannot read {spec!r}: {e}")
    except json.JSONDecodeError as e:
        raise ParseFailure(f"{spec!r} is not JSON: {e}")
    if isinstance(data, dict) and "table" in data and "names" not in data:
        data = data["table"]  # a quotient/enumerate report wrapping a table
    try:
        return FiniteHyperfield.from_json(data)
    except (MalformedTableError, KeyError, TypeError, ValueError) as e:
        raise ParseFailure(f"{spec!r} is not a hyperfield table: {e}")


def load_hyperfield(spec: str) -> FiniteHyperfield:
    """load_finite, refused unless the table passes validate: the input of
    iso, hyperideals, krasner and residue.  The builtins are hyperfields by
    construction (the tests validate each), so only tables read from files
    are validated."""
    from .finite import validate
    F = load_finite(spec)
    if spec.startswith("builtin:"):
        return F
    failed = validate(F).failed()
    if failed:
        raise ParseFailure(f"{spec!r} is not a hyperfield: it fails "
                           + ", ".join(c.axiom for c in failed))
    return F


def _tropical_spec(spec: str):
    """The TropicalHyperfield a tropical:<rank> / tropical-strict:<rank> spec
    names, or None for any other spec."""
    for prefix, strict in (("tropical-strict:", True), ("tropical:", False)):
        if spec.startswith(prefix):
            try:
                rank = int(spec[len(prefix):])
            except ValueError:
                raise ParseFailure(f"bad rank in {spec!r}")
            if rank < 1:
                raise ParseFailure("tropical rank must be >= 1")
            from .tropical import TropicalHyperfield
            return TropicalHyperfield(rank, strict=strict)
    return None


def _subgroup(F: FiniteHyperfield, spec: str) -> frozenset:
    from .finite import squares_subgroup, subgroup_closure
    if spec == "squares":
        return squares_subgroup(F)
    if spec == "units":
        return frozenset(F.units)
    try:
        gens = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ParseFailure(f"bad subgroup {spec!r}: use 'squares', 'units' or "
                           "comma-separated element indices")
    if not gens:
        raise ParseFailure("empty generator list")
    try:
        return subgroup_closure(F, gens)
    except ValueError as e:
        raise ParseFailure(str(e))


# The carrier flags, and the defaults of those each kind of backend reads.
CARRIER_FLAGS = ("q", "gamma", "p", "norm_bound")
BACKEND_FLAGS = {"kgamma": {"q": 3, "gamma": 1}, "composite": {"p": 2},
                 "tropical": {"norm_bound": 0}, "tropical-strict": {"norm_bound": 0}}


def _resolve_flags(args, reads: dict, subject: str) -> None:
    """Default the flags in ``reads``; refuse a carrier flag subject never reads."""
    for key in CARRIER_FLAGS:
        if key not in reads and getattr(args, key, None) is not None:
            raise ParseFailure(f"--{key.replace('_', '-')} does not apply to {subject}")
    for key, value in reads.items():
        if getattr(args, key, value) is None:  # residue has no --norm-bound
            setattr(args, key, value)


def _carrier(name: str, args):
    """The leading-term carrier 'kgamma' (read from --q/--gamma),
    'composite' (--p) or 'collapsed', with its intrinsic valuation and its
    norm."""
    from . import leading_terms as lt
    from . import valuation as vn
    ctx = (lt.LTContext(args.q, args.gamma) if name == "kgamma"
           else lt.CompositeContext(args.p) if name == "composite"
           else lt.CollapsedConstantsContext())
    return ctx, vn.intrinsic_valuation(ctx), ctx.norm_cut()


def _load_backend(args):
    """Shared backend resolution for krasner/residue: a hyperfield table
    (load_hyperfield), 'kgamma' (--q/--gamma), 'composite' (--p), 'collapsed',
    or tropical:<rank> / tropical-strict:<rank> (krasner reads --norm-bound)."""
    from . import valuation as vn
    from .ordgroup import Cut
    spec = args.backend
    _resolve_flags(args, BACKEND_FLAGS.get(spec.partition(":")[0], {}), f"backend {spec!r}")
    if spec in ("kgamma", "composite", "collapsed"):
        return _carrier(spec, args)
    trop = _tropical_spec(spec)
    if trop is not None:
        b = getattr(args, "norm_bound", 0)
        rho = Cut.le(trop.rank, (b,) + (0,) * (trop.rank - 1))
        return trop, vn.intrinsic_valuation(trop), rho
    backend = vn.FiniteBackend(load_hyperfield(spec))
    return backend, vn.trivial_valuation(backend), Cut.whole(0)


# -- verbs ---------------------------------------------------------------------

def cmd_axioms(args) -> dict:
    trop = _tropical_spec(args.input)
    if trop is not None:
        from .tropical import tropical_axiom_suite
        rep = tropical_axiom_suite(trop.rank, bound=args.window_bound,
                                   strict=trop.strict)
        params = {"input": args.input, "window_bound": args.window_bound}
    else:
        from .finite import validate
        rep = validate(load_finite(args.input))
        params = {"input": args.input}
    return _report("axioms", params, {"report": rep.to_json()}, rep.ok)


def cmd_classify(args) -> dict:
    from .finite import classify, validate
    F = load_finite(args.input)
    rep = validate(F)
    # the flags' cross-checks assume a hyperfield: none for a table failing
    payload = {"classification": classify(F).to_json() if rep.ok else None,
               "axioms_pass": rep.ok, "size": F.size}
    return _report("classify", {"input": args.input}, payload, rep.ok)


def cmd_quotient(args) -> dict:
    from .finite import quotient_hyperfield
    F = load_finite(f"builtin:F{args.field}")
    T = _subgroup(F, args.subgroup)
    H = quotient_hyperfield(F, T)  # F is a field and T a unit subgroup: no ValueError
    payload = {"table": H.to_json(),
               "subgroup": sorted(T), "order": H.size}
    return _report("quotient", {"field": args.field, "subgroup": args.subgroup},
                   payload, True)


def cmd_iso(args) -> dict:
    from .finite import find_isomorphism
    m = find_isomorphism(load_hyperfield(args.left), load_hyperfield(args.right))
    payload = {"isomorphic": m is not None,
               "map": None if m is None else list(m.map)}
    return _report("iso", {"left": args.left, "right": args.right},
                   payload, m is not None)


def cmd_enumerate(args) -> dict:
    from .finite import enumerate_hyperfields, is_field
    try:
        found = enumerate_hyperfields(args.order)
    except ValueError as e:
        raise ParseFailure(str(e))
    tables = [F.to_json() for F in found]
    fields = sum(1 for F in found if is_field(F))
    payload = {"order": args.order, "count": len(found), "fields": fields,
               "tables": tables}
    return _report("enumerate", {"order": args.order}, payload, True)


def cmd_hyperideals(args) -> dict:
    from .finite import list_hyperideals
    F = load_hyperfield(args.input)
    ideals = list_hyperideals(F)
    dichotomy = ideals == [frozenset({0}), frozenset(range(F.size))]  # sorted by size
    payload = {"hyperideals": [sorted(s) for s in ideals],
               "only_trivial_and_whole": dichotomy}
    return _report("hyperideals", {"input": args.input}, payload, dichotomy)


def cmd_krasner(args) -> dict:
    from . import valuation as vn
    backend, v, rho = _load_backend(args)
    vrep = vn.is_valuation(backend, v, args.window_bound)
    krep = vn.check_krasner(backend, v, rho, args.window_bound)
    ok = vrep.ok and krep.ok
    payload = {"valuation": vrep.to_json(), "krasner": krep.to_json(),
               "norm": rho.to_json()}
    return _report("krasner", _backend_params(args), payload, ok)


def cmd_residue(args) -> dict:
    from . import valuation as vn
    from .finite import is_field
    backend, v, _ = _load_backend(args)
    R = vn.residue_hyperfield(backend, v, args.window_bound)
    payload = {"residue": R.to_json(), "order": R.size,
               "is_field": is_field(R)}
    return _report("residue", _backend_params(args), payload, True)


def cmd_coarsen(args) -> dict:
    from . import valuation as vn
    from .ordgroup import invariance_group
    ctx, v, rho = _carrier("composite", args)
    delta = invariance_group(rho)
    verdict = vn.check_coarsening_theorem(ctx, v, rho, args.window_bound)
    payload = {"norm": rho.to_json(), "invariance_group": delta.to_json(),
               "coarsening_matches_induced_ring": verdict}
    return _report("coarsen", {"p": args.p, "window_bound": args.window_bound},
                   payload, verdict)


def _backend_params(args) -> dict:
    # once _load_backend has run, the set carrier flags are those it read
    params = {"backend": args.backend, "window_bound": args.window_bound}
    params.update((key, getattr(args, key)) for key in CARRIER_FLAGS
                  if getattr(args, key, None) is not None)
    return params


# -- scenarios -----------------------------------------------------------------

def _claim(claims: list, text: str, passed: bool, witness=None) -> None:
    c = {"claim": text, "passed": bool(passed)}
    if witness is not None:
        c["witness"] = witness
    claims.append(c)


def scenario_example_last(args) -> list:
    from . import valuation as vn
    from .ordgroup import invariance_group
    ctx, w, rho = _carrier("composite", args)
    u = vn.coarsening(w, invariance_group(rho))
    B = args.window_bound
    claims = []
    _claim(claims, "the fine map w is a valuation",
           vn.is_valuation(ctx, w, B).ok)
    _claim(claims, "the X-adic coarsening u is a valuation",
           vn.is_valuation(ctx, u, B).ok)
    # 1/p: a unit for u, of p-adic order -1 for w
    witness = ctx.elem(0, f"1/{args.p}")
    _claim(claims, f"witness (0, 1/{args.p}) lies in O_u", u.ge_zero(witness),
           ctx.elem_json(witness))
    _claim(claims, f"witness (0, 1/{args.p}) lies outside O_w",
           not w.ge_zero(witness), ctx.elem_json(witness))
    U = ctx.elements(B)
    _claim(claims, "O_w is contained in O_u on the window",
           all(u.ge_zero(x) for x in U if w.ge_zero(x)))
    _claim(claims, "w and u are inequivalent",
           not vn.compare_rings(ctx, vn.valuation_ring(ctx, w),
                                vn.valuation_ring(ctx, u), B).ok)
    return claims


def scenario_kgamma(args) -> list:
    from . import valuation as vn
    from .finite import is_field
    ctx, v, rho = _carrier("kgamma", args)
    B = args.window_bound
    R = vn.residue_hyperfield(ctx, v, B)  # refuses too many classes before any checker
    claims = []
    _claim(claims, "the leading-term map is a valuation",
           vn.is_valuation(ctx, v, B).ok)
    _claim(claims, "the Krasner conditions hold (KVH1, KVH2)",
           vn.check_krasner(ctx, v, rho, B).ok)
    _claim(claims, "the carrier is superiorly canonical on the window",
           vn.check_superiorly_canonical(ctx, B).ok)
    _claim(claims, f"the residue hyperfield is the field of order {args.q}",
           is_field(R) and R.size == args.q)
    _claim(claims, "ultrametric axioms and the ball identity hold",
           vn.ultrametric_report(ctx, v, rho, B).ok)
    _claim(claims, "the induced ring equals the valuation ring",
           vn.compare_rings(ctx, vn.valuation_ring(ctx, v), vn.induced_ring(ctx), B).ok)
    return claims


def scenario_no_kraval(args) -> list:
    from . import valuation as vn
    from .finite import build_K, find_isomorphism, is_field
    ctx, v, rho = _carrier("collapsed", args)
    B = args.window_bound
    claims = []
    _claim(claims, "the collapsed-constants map is a valuation",
           vn.is_valuation(ctx, v, B).ok)
    R = vn.residue_hyperfield(ctx, v, B)
    iso = find_isomorphism(R, build_K())
    _claim(claims, "the residue hyperfield is isomorphic to K",
           iso is not None)
    _claim(claims, "the residue hyperfield is not a field", not is_field(R))
    # 1 lies in 1 - 1, so KVH2 fails for every norm holding 0 (induced_norm_cut)
    no_norm = not vn.induced_norm_cut(ctx).contains((0,))
    _claim(claims, "the natural candidate norm fails the Krasner conditions",
           rho.contains((0,)) and no_norm)
    _claim(claims, f"every initial-segment norm with bound in [0, {B}] fails", no_norm)
    return claims


def scenario_tropical_not_krasner(args) -> list:
    from . import valuation as vn
    from .tropical import TropicalHyperfield
    B = args.window_bound
    incl = TropicalHyperfield(1, strict=False)
    strict = TropicalHyperfield(1, strict=True)
    claims = []
    screp = vn.check_superiorly_canonical(incl, B)
    _claim(claims, "inclusive T(Z) fails superior canonicity at SCH1",
           not screp.check("SCH1").passed, screp.check("SCH1").witness)
    # 1 lies in 1 - 1, so KVH2 fails for every norm holding 0 (induced_norm_cut)
    _claim(claims,
           f"no initial-segment norm with bound in [0, {B}] makes the "
           "identity on T(Z) a Krasner valuation",
           not vn.induced_norm_cut(incl).contains((0,)))
    _claim(claims, "strict T'(Z) is superiorly canonical on the window",
           vn.check_superiorly_canonical(strict, B).ok)
    _claim(claims, "the identity on strict T'(Z) is a Krasner valuation "
           "with norm {m <= 0}",
           vn.check_krasner(strict, vn.intrinsic_valuation(strict),
                            vn.induced_norm_cut(strict), B).ok)
    return claims


def scenario_coarsening_theorem(args) -> list:
    from . import valuation as vn
    from .ordgroup import invariance_group
    ctx, v, rho = _carrier("composite", args)
    delta = invariance_group(rho)
    B = args.window_bound
    claims = []
    _claim(claims, "the norm's invariance group is {0} x Z",
           delta.rank == 2 and delta.zeros == 1, delta.to_json())
    _claim(claims,
           "coarsening by the invariance group yields the induced ring",
           vn.check_coarsening_theorem(ctx, v, rho, B))
    ir = vn.induced_ring(ctx)
    w = ctx.elem(0, f"1/{args.p}")
    _claim(claims, "the induced ring strictly contains O_v",
           ir.contains(w) and not v.ge_zero(w), ctx.elem_json(w))
    return claims


SCENARIOS = {
    "example-last": (scenario_example_last, {"p": 2, "window_bound": 3}),
    "kgamma": (scenario_kgamma, {"q": 3, "gamma": 1, "window_bound": 2}),
    "no-kraval": (scenario_no_kraval, {"window_bound": 3}),
    "tropical-not-krasner": (scenario_tropical_not_krasner,
                             {"window_bound": 3}),
    "coarsening-theorem": (scenario_coarsening_theorem,
                           {"p": 2, "window_bound": 3}),
}


def cmd_scenario(args) -> dict:
    if args.name not in SCENARIOS:
        raise ParseFailure(f"unknown scenario {args.name!r}; available: "
                           + ", ".join(sorted(SCENARIOS)))
    func, defaults = SCENARIOS[args.name]
    _resolve_flags(args, defaults, f"scenario {args.name!r}")
    claims = func(args)
    params = {key: getattr(args, key) for key in defaults}
    return _report("scenario", params, {"scenario": args.name, "claims": claims},
                   all(c["passed"] for c in claims))


# -- argument parsing ------------------------------------------------------------

def _int_arg(ok, what: str):
    """argparse type: an int passing ``ok``; anything else exits 2."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if not ok(n):
            raise argparse.ArgumentTypeError(f"{n} is not {what}")
        return n

    return parse


def _is_prime(n: int) -> bool:
    from .galois import is_prime
    return is_prime(n)


def _is_prime_power(n: int) -> bool:
    from .galois import prime_power
    return prime_power(n) is not None


NONNEGATIVE = _int_arg(lambda n: n >= 0, "non-negative")
PRIME = _int_arg(_is_prime, "a prime")
PRIME_POWER = _int_arg(_is_prime_power, "a prime power")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperval",
        description="validate, classify, quotient, enumerate and compare "
                    "hyperfields; run valuation and Krasner checks")
    p.add_argument("--version", action="version",
                   version=f"hyperval {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def out(sp):
        sp.add_argument("--output", help="write the JSON report here "
                        "instead of stdout")

    sp = sub.add_parser("axioms", help="run the axiom suite on a table or "
                        "a tropical carrier")
    sp.add_argument("input", help="builtin:K|S|W|F<q>, tropical:<rank>, "
                    "tropical-strict:<rank>, or a JSON table path")
    sp.add_argument("--window-bound", type=NONNEGATIVE, default=3)
    out(sp)
    sp.set_defaults(func=cmd_axioms)

    sp = sub.add_parser("classify", help="classification flags for a table")
    sp.add_argument("input")
    out(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("quotient", help="factor a finite field by a "
                        "subgroup of its units")
    sp.add_argument("--field", type=int, required=True,
                    help="prime power size q")
    sp.add_argument("--subgroup", required=True,
                    help="'squares', 'units', or comma-separated generators")
    out(sp)
    sp.set_defaults(func=cmd_quotient)

    sp = sub.add_parser("iso", help="search for an isomorphism between two "
                        "tables")
    sp.add_argument("left")
    sp.add_argument("right")
    out(sp)
    sp.set_defaults(func=cmd_iso)

    sp = sub.add_parser("enumerate", help="all hyperfields of a given order "
                        "up to isomorphism")
    sp.add_argument("--order", type=int, required=True)
    out(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("hyperideals", help="list hyperideals of a table")
    sp.add_argument("input")
    out(sp)
    sp.set_defaults(func=cmd_hyperideals)

    def carrier(sp, bound_default):
        sp.add_argument("--q", type=PRIME_POWER,
                        help="residue field size for kgamma (default 3)")
        sp.add_argument("--gamma", type=NONNEGATIVE,
                        help="unit level for kgamma (default 1)")
        sp.add_argument("--p", type=PRIME,
                        help="prime for the composite carrier (default 2)")
        sp.add_argument("--window-bound", type=NONNEGATIVE, default=bound_default)
        out(sp)

    def backend(sp):
        sp.add_argument("backend", help="kgamma | composite | collapsed | tropical:<rank> | "
                        "tropical-strict:<rank> | builtin:... | table path")
        carrier(sp, 3)

    sp = sub.add_parser("krasner", help="valuation axioms plus the Krasner "
                        "conditions KVH1/KVH2")
    backend(sp)
    sp.add_argument("--norm-bound", type=NONNEGATIVE,
                    help="norm cut bound for tropical backends (default 0)")
    sp.set_defaults(func=cmd_krasner)

    sp = sub.add_parser("residue", help="residue hyperfield of a backend")
    backend(sp)
    sp.set_defaults(func=cmd_residue)

    sp = sub.add_parser("coarsen", help="invariance group of the composite "
                        "backend's norm and the coarsening theorem verdict")
    sp.add_argument("--p", type=PRIME, default=2)
    sp.add_argument("--window-bound", type=NONNEGATIVE, default=3)
    out(sp)
    sp.set_defaults(func=cmd_coarsen)

    sp = sub.add_parser("scenario", help="replay a named end-to-end scenario")
    sp.add_argument("name", help=", ".join(sorted(SCENARIOS)))
    carrier(sp, None)
    sp.set_defaults(func=cmd_scenario)

    return p


# The layers' own bad-input errors, and the stderr prefix of each.  Only a
# layer's code raises its error, so the layer is loaded when one is caught:
# looked up, never imported here.  ResidueOutOfReach is a WindowTooLarge.
_BAD_INPUT = (("bitmask", "WindowTooLarge", ""),
              ("finite", "MalformedTableError", "malformed table: "))


def _bad_input(e: Exception) -> str | None:
    """The stderr prefix of a bad-input error, or None for any other."""
    for module, name, prefix in _BAD_INPUT:
        layer = sys.modules.get(f"{__package__}.{module}")
        if layer is not None and isinstance(e, getattr(layer, name)):
            return prefix
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        _emit(report, args.output)
        return 0 if report["passed"] else 1
    except ParseFailure as e:
        print(f"hyperval: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001  -- contract: internal errors exit 3
        prefix = _bad_input(e)
        if prefix is not None:
            print(f"hyperval: {prefix}{e}", file=sys.stderr)
            return 2
        print(f"hyperval: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
