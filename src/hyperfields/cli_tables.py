"""hyperval's finite-table verbs: ``axioms``, ``classify``, ``quotient``,
``iso``, ``enumerate`` and ``hyperideals``, and the table readers
``load_finite`` and ``load_hyperfield`` (which ``krasner`` and ``residue``
call on a table backend).

``cli`` loads this module only when one of these verbs runs or a table is
read, so no other verb compiles it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .cli import ParseFailure, _report, _tropical_spec

if TYPE_CHECKING:
    from .finite import FiniteHyperfield


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
