"""hyperval: command-line front end.

Construct, validate, classify, quotient, compare and enumerate hyperfields,
run the valuation checkers, and replay the named end-to-end scenarios.  All
structured I/O is JSON; reports are deterministic (sorted keys, no
timestamps) and carry the tool version plus the window parameters used.

Exit codes: 0 every requested check passed, 1 a check failed (the report
holds witnesses), 2 malformed input, 3 internal error.  A table failing its
axioms fails ``axioms`` and ``classify`` and is malformed input elsewhere.

This module holds what every process runs: the parser and its argument
types, the report envelope, the exit-code contract in ``main``, and the one
``ParseFailure``.  The verb bodies live in three modules, and ``main``
imports the one its verb names, so a process compiles one family:

* ``cli_tables``: ``axioms``, ``classify``, ``quotient``, ``iso``,
  ``enumerate``, ``hyperideals``, and the table readers;
* ``cli_carriers``: ``krasner``, ``residue``, ``coarsen``, and the carrier
  flags and backends (a table backend adds ``cli_tables``);
* ``cli_scenarios``: ``scenario`` (it builds its carriers through
  ``cli_carriers``).  The parser names the scenarios from
  ``_SCENARIO_NAMES``, so no other verb compiles them.

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
from importlib import import_module

from . import __version__


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


# -- read by two verb families --------------------------------------------------
# ``axioms`` (cli_tables) takes a tropical carrier and ``krasner``/``residue``
# (cli_carriers) a tropical backend: here, neither family loads the other.

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


# -- argument parsing ------------------------------------------------------------

def _int_arg(ok, what: str):
    """argparse type: an int passing ``ok``; anything else exits 2, with
    the message of a ValueError ``ok`` raises for an int it cannot decide."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        try:
            passed = ok(n)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e))
        if not passed:
            raise argparse.ArgumentTypeError(f"{n} is not {what}")
        return n

    return parse


def _is_prime(n: int) -> bool:
    from .galois import is_prime
    return is_prime(n)


# The largest q whose q x q field tables fit the window limit:
# isqrt(bitmask.WINDOW_LIMIT), written out so that checking it compiles no
# module.
_Q_MAX = 447


def _is_field_size(n: int) -> bool:
    """A prime power of at most _Q_MAX, refusing a larger n before any
    prime test."""
    if n > _Q_MAX:
        raise ValueError(f"{n} is above {_Q_MAX}, the largest q whose q x q "
                         "field table fits the window limit")
    from .galois import prime_power
    return prime_power(n) is not None


NONNEGATIVE = _int_arg(lambda n: n >= 0, "non-negative")
PRIME = _int_arg(_is_prime, "a prime")
PRIME_POWER = _int_arg(_is_field_size, "a prime power")


# The sorted keys of cli_scenarios.SCENARIOS (a test keeps the two equal):
# naming them here spares every other verb compiling the scenarios.
_SCENARIO_NAMES = ("coarsening-theorem", "example-last", "kgamma", "no-kraval",
                   "tropical-not-krasner")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperval",
        description="validate, classify, quotient, enumerate and compare "
                    "hyperfields; run valuation and Krasner checks")
    p.add_argument("--version", action="version",
                   version=f"hyperval {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, family, help):
        # main runs cmd_<name> of the module family, imported then
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(family=family)
        return sp

    def out(sp):
        sp.add_argument("--output", help="write the JSON report here "
                        "instead of stdout")

    sp = verb("axioms", "cli_tables",
              "run the axiom suite on a table or a tropical carrier")
    sp.add_argument("input", help="builtin:K|S|W|F<q>, tropical:<rank>, "
                    "tropical-strict:<rank>, or a JSON table path")
    sp.add_argument("--window-bound", type=NONNEGATIVE, default=3)
    out(sp)

    sp = verb("classify", "cli_tables", "classification flags for a table")
    sp.add_argument("input")
    out(sp)

    sp = verb("quotient", "cli_tables",
              "factor a finite field by a subgroup of its units")
    sp.add_argument("--field", type=int, required=True,
                    help="prime power size q")
    sp.add_argument("--subgroup", required=True,
                    help="'squares', 'units', or comma-separated generators")
    out(sp)

    sp = verb("iso", "cli_tables", "search for an isomorphism between two tables")
    sp.add_argument("left")
    sp.add_argument("right")
    out(sp)

    sp = verb("enumerate", "cli_tables",
              "all hyperfields of a given order up to isomorphism")
    sp.add_argument("--order", type=int, required=True)
    out(sp)

    sp = verb("hyperideals", "cli_tables", "list hyperideals of a table")
    sp.add_argument("input")
    out(sp)

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

    sp = verb("krasner", "cli_carriers",
              "valuation axioms plus the Krasner conditions KVH1/KVH2")
    backend(sp)
    sp.add_argument("--norm-bound", type=NONNEGATIVE,
                    help="norm cut bound for tropical backends (default 0)")

    sp = verb("residue", "cli_carriers", "residue hyperfield of a backend")
    backend(sp)

    sp = verb("coarsen", "cli_carriers", "invariance group of the composite "
              "backend's norm and the coarsening theorem verdict")
    sp.add_argument("--p", type=PRIME, default=2)
    sp.add_argument("--window-bound", type=NONNEGATIVE, default=3)
    out(sp)

    sp = verb("scenario", "cli_scenarios", "replay a named end-to-end scenario")
    sp.add_argument("name", help=", ".join(_SCENARIO_NAMES))
    carrier(sp, None)

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
        family = import_module(f".{args.family}", __package__)
        report = getattr(family, f"cmd_{args.verb}")(args)
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
    # Under ``python -m hyperfields.cli`` this module runs as __main__.  The
    # verb modules import from ``hyperfields.cli``: find this module there,
    # or they would compile a second one, whose ParseFailure main does not
    # catch.
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(main())
