"""Hyperfields: finite and symbolic Krasner hyperfields with their
valuation theory.

The stable entry points re-exported here cover the common workflows:
validating axiom tables, quotient constructions, isomorphism search,
enumeration of small hyperfields, tropical and leading-term carriers, and
the valuation / Krasner / residue machinery.  Everything else stays in its
submodule.

Names resolve on first use (PEP 562): importing the package compiles no
submodule, so a caller pays only for the submodules it reaches.  A name is
read from its submodule on every access and never stored here, so a
replaced submodule attribute (a test double, a timing wrapper) shows through
and goes away with its replacement.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "finite": ("FiniteHyperfield", "MalformedTableError", "Morphism", "build_K",
               "build_S", "build_W", "build_finite_field", "classify",
               "enumerate_hyperfields", "find_isomorphism", "is_field",
               "is_homomorphism", "is_isomorphism",
               "list_hyperideals", "non_quotient_certificate",
               "quotient_hyperfield", "quotient_search", "squares_subgroup",
               "validate"),
    "galois": (),
    "hypersets": (),
    "leading_terms": ("CollapsedConstantsContext", "CompositeContext",
                      "LTContext", "LTElement"),
    "ordgroup": ("ConvexSubgroup", "Cut", "invariance_group"),
    "report": ("AxiomCheck", "ValidationReport"),
    "tropical": ("TropicalHyperfield", "tropical_axiom_suite"),
    "valuation": ("FiniteBackend", "Valuation", "check_coarsening_theorem",
                  "check_krasner", "check_superiorly_canonical", "coarsening",
                  "compare_rings", "induced_ring", "intrinsic_valuation",
                  "is_valuation", "is_valuation_hyperring", "maximal_ideal",
                  "residue_embedding_check", "residue_hyperfield",
                  "trivial_valuation", "ultrametric_report", "unit_group",
                  "valuation_ring"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
