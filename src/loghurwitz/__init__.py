"""Exact arithmetic for degree-p covers in characteristic p.

Subpackages: finite fields (ffield), rational functions and divisors on
the line (ratfunc), the twisted Cartier operator (cartier), Artin-Schreier
covers (ascover), enhanced level graphs with stratum dimension ledgers
(strata), exact and quasi-exact marked loci (loci), and a CLI (cli).

The arithmetic layers load on import.  ascover, loci, mobius and strata,
and the names they export, load on first use (PEP 562), so a command
that does not use them does not compile them.
"""

from .cartier import (
    BivariantForm, Differential, PPowerDecomposition, TcMatrix, cartier, differential_of,
    global_tc_matrix, integrate, is_exact, is_quasi_exact, ppower_decompose, twisted_cartier,
)
from .expr import ExprError, parse_element, parse_expression
from .ffield import FieldElement, FieldSpec, field, parse_field
from .ratfunc import INFINITY, NEG_INF, Divisor, Place, Polynomial, RationalFunction, partial_fractions

# Each lazily loaded name and the submodule that defines it; a submodule maps to itself.
_LAZY = {
    name: module
    for module, names in {
        "ascover": "ArtinSchreierCover CoverError TraceForm isomorphic moduli_dimension",
        "loci": "MarkingConfig ZeroPolePattern dimension_formula locus_membership locus_search "
                "tangent_dimension tangent_report",
        "mobius": "Mobius",
        "strata": "GraphError HurwitzData LevelGraph Marking SourceEdge SourceVertex StratumLedger "
                  "TargetEdge TargetVertex ValidationReport canonical_form enumerate_components "
                  "generic_dimension monoid_rank stratum_dimension validate",
    }.items()
    for name in [module, *names.split()]
}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())

__version__ = "1.0.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
