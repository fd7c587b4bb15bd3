"""Flow-generated functions over commutative semirings on planar networks.

The package evaluates the functions, decides which quadratic relations
between them are stable via the balancedness of nested-matching multisets,
constructs separating gadget networks for the unbalanced pairs, generates the
known balanced families, and realizes the interval basis on the half-grid
with its Laurent expansion.
"""

from .counterexample import (
    AugmentedMatching,
    GadgetNetwork,
    InequalityReport,
    augment_matching,
    build_gadget_network,
    evaluate_inequality,
    verify_P1_P2,
)
from .doubleflow import (
    Decomposition,
    DoubleFlow,
    count_decompositions,
    decompose,
    exchange_flows,
    superpose,
)
from .flows import (
    Flow,
    FlowFunction,
    enumerate_flag_flows,
    enumerate_flows,
    evaluate_fgf,
    flag_table,
    flow_weight,
    lindstrom_matrix,
    minor,
)
from .laurent import (
    LaurentExpression,
    interval_flow,
    intervals_of,
    laurent_expand,
    reconstruct_from_intervals,
    weights_from_intervals,
)
from .matchings import (
    Collection,
    NestedMatching,
    collection,
    enumerate_feasible_matchings,
    enumerate_nested_matchings,
    exchange,
    is_balanced,
    is_feasible,
    matching_multiset,
)
from .network import (
    PlanarNetwork,
    build_half_grid,
    parse_network,
    random_grid_network,
    validate,
    vertex_split,
    write_network,
)
from .relations import (
    Instantiation,
    QuadraticRelation,
    evaluate_sides,
    family_groebner,
    family_interval_exchange,
    family_quadruple,
    family_quintuple,
    family_tail_fixed,
    family_triple,
    grassmann_summands,
    instantiate,
    symbolic_check,
    verify_stable,
)
from .semiring import (
    CARRIERS,
    COUNTING_NAT,
    EXACT_INT,
    POLY_INT,
    POLY_NAT,
    POSITIVE_RATIONAL,
    STAR,
    TROPICAL_INT,
    TROPICAL_RATIONAL,
    Carrier,
    Poly,
    Starred,
)

__all__ = [name for name in dir() if not name.startswith("_")]
