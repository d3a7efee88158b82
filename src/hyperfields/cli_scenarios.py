"""hyperval's ``scenario`` verb: the five named end-to-end scenarios, each
a list of claims replayed on one carrier.

``cli`` loads this module only for ``scenario``, and names the scenarios to
its parser from its own list (``_SCENARIO_NAMES``, the sorted keys of
SCENARIOS), so no other verb compiles the scenarios.  A scenario on a
leading-term carrier builds it through ``cli_carriers``.
"""

from __future__ import annotations

from .cli import ParseFailure, _report
from .cli_carriers import _carrier, _resolve_flags


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
