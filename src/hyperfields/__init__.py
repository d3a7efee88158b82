"""Hyperfields: finite and symbolic Krasner hyperfields with their
valuation theory.

The stable entry points re-exported here cover the common workflows:
validating axiom tables, quotient constructions, isomorphism search,
enumeration of small hyperfields, tropical and leading-term carriers, and
the valuation / Krasner / residue machinery.  Everything else stays in its
submodule.
"""

__version__ = "0.1.0"

from .finite import (FiniteHyperfield, MalformedTableError, Morphism,
                     build_K, build_S, build_W, build_finite_field, classify,
                     enumerate_hyperfields, find_isomorphism, is_embedding,
                     is_field, is_homomorphism, is_hyperideal, is_isomorphism,
                     list_hyperideals, non_quotient_certificate,
                     quotient_hyperfield, quotient_search, scalar_hyperideal,
                     squares_subgroup, validate)
from .leading_terms import (CollapsedConstantsContext, CompositeContext,
                            LTContext, LTElement)
from .ordgroup import ConvexSubgroup, Cut, invariance_group
from .report import AxiomCheck, ValidationReport
from .tropical import (TropicalHyperfield, tropical_axiom_suite,
                       two_element_subhyperfield)
from .valuation import (FiniteBackend, Valuation, check_coarsening_theorem,
                        check_krasner, check_superiorly_canonical, coarsening,
                        compare_rings, induced_ring, intrinsic_valuation,
                        is_valuation, is_valuation_hyperring, maximal_ideal,
                        residue_embedding_check, residue_hyperfield,
                        trivial_valuation, ultrametric, ultrametric_report,
                        unit_group, valuation_ring)

__all__ = [name for name in dir() if not name.startswith("_")]
