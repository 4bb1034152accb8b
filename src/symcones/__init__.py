"""Exact lattice-point solver for linear Diophantine systems.

Represents the set of non-negative integer solutions of ``A x >= b``
(equality rows allowed) as a signed combination of symbolic simplicial
cones, and converts that combination into multivariate rational-function
expressions and exact lattice-point counts. All arithmetic is exact.
"""

from .barvinok import barvinok_decompose, decompose_combination, index
from .cones import (
    ConeCombination,
    SymbolicCone,
    canonicalize,
    cone,
    contains,
    enum_fundpar,
    eval_combination,
)
from .elimination import (
    LDSystem,
    Relation,
    eliminate,
    eliminate_last_coordinate,
    macmahon_lift,
    solve,
    system,
)
from .exactmath import (
    SmithDecomposition,
    det,
    lll_reduce,
    prim,
    snf,
)
from .ratfun import (
    RatFunExpr,
    RatFunTerm,
    combination_to_ratfun,
    count_lattice_points,
    ratfun_from_json,
    render,
)

__all__ = [
    "ConeCombination",
    "LDSystem",
    "RatFunExpr",
    "RatFunTerm",
    "Relation",
    "SmithDecomposition",
    "SymbolicCone",
    "barvinok_decompose",
    "canonicalize",
    "combination_to_ratfun",
    "cone",
    "contains",
    "count_lattice_points",
    "decompose_combination",
    "det",
    "eliminate",
    "eliminate_last_coordinate",
    "enum_fundpar",
    "eval_combination",
    "index",
    "lll_reduce",
    "macmahon_lift",
    "prim",
    "ratfun_from_json",
    "render",
    "snf",
    "solve",
    "system",
]

__version__ = "0.1.0"
