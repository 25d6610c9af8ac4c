"""fiberlab: exact homological invariants of monomial ideals and fiber products."""

from .config import Caps, DEFAULT_CAPS, DEFAULT_PRIME
from .core import Monomial, Ring, parse_monomial, parse_ring, tensor_ring
from .errors import (
    CapError,
    DomainError,
    FiberlabError,
    GrammarError,
    InternalError,
    RingMismatchError,
)
from .ideals import (
    MonomialIdeal,
    component_ideal,
    finite_length_reg,
    maxideal_power,
    star_derivative,
    tensor_embed,
)
from .betti import BettiTable, betti_table, tor_vanishing
from .invariants import (
    Invariants,
    has_linear_resolution,
    invariants_of,
    is_componentwise_linear,
    reg_of,
)
from .fiber import (
    FiberSetup,
    Filtration,
    check_componentwise,
    check_depth_formula,
    check_reg_formula,
    check_reg_formula_equigenerated,
    check_reg_increasing,
    fiber_product,
    filtration,
    verify_betti_splitting,
    verify_tor_vanishing_lemma,
)
from .graphs import Graph, detect_bipartite_join, edge_ideal, join_fiber_setup
from .reports import Report

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "CapError", "Caps", "DEFAULT_CAPS", "DEFAULT_PRIME", "DomainError",
    "FiberSetup", "FiberlabError", "Filtration", "GrammarError", "Graph",
    "InternalError", "Invariants", "Monomial", "MonomialIdeal", "Report", "Ring",
    "RingMismatchError", "betti_table", "check_componentwise",
    "check_depth_formula", "check_reg_formula", "check_reg_formula_equigenerated",
    "check_reg_increasing", "component_ideal", "detect_bipartite_join", "edge_ideal",
    "fiber_product", "filtration", "finite_length_reg", "has_linear_resolution",
    "invariants_of", "is_componentwise_linear", "join_fiber_setup",
    "maxideal_power", "parse_monomial", "parse_ring",
    "reg_of", "star_derivative",
    "tensor_embed", "tensor_ring", "tor_vanishing",
    "verify_betti_splitting", "verify_tor_vanishing_lemma",
]
