"""hyperval's verbs on a carrier: ``krasner``, ``residue`` and ``coarsen``,
with the carrier flags' defaults and refusals and the backend each verb
reads.  The scenarios build their carriers here too.

``cli`` loads this module only when one of these verbs or a scenario runs.
A table backend (``builtin:...`` or a file) reads its table through
``cli_tables``, loaded for that backend alone.
"""

from __future__ import annotations

from .cli import ParseFailure, _report, _tropical_spec

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
    from .cli_tables import load_hyperfield
    backend = vn.FiniteBackend(load_hyperfield(spec))
    return backend, vn.trivial_valuation(backend), Cut.whole(0)


def _backend_params(args) -> dict:
    # once _load_backend has run, the set carrier flags are those it read
    params = {"backend": args.backend, "window_bound": args.window_bound}
    params.update((key, getattr(args, key)) for key in CARRIER_FLAGS
                  if getattr(args, key, None) is not None)
    return params


# -- verbs ---------------------------------------------------------------------

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
