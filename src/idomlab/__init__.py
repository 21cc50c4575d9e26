"""Exact independent domination in direct products of graphs.

A desk-scale toolkit: bitset graphs and products, exact solvers for
domination-type invariants (branch-and-bound, and a frontier dynamic program
on long narrow graphs), the weak-partition labelling route to ``i(G x K_n)``,
counterexample families with packaged witnesses, the closed-form bounds, and
bit-exact interchange formats with re-checkable certificates.
"""

from .graph import (
    Graph,
    VertexSet,
    build_graph,
    closed_neighborhood,
    distance,
    induced_subgraph,
    is_bipartite,
    is_claw_free,
    is_connected,
    max_degree,
    min_degree,
    square_graph,
)
from .invariants import (
    BudgetExhausted,
    CapExceeded,
    InvariantResult,
    SolverLimits,
    UndefinedInvariant,
    domination_number,
    enumerate_maximal_independent_sets,
    independence_number,
    independent_domination_number,
    invariant,
    is_2_packing,
    is_dominating,
    is_independent,
    is_maximal_independent,
    is_total_dominating,
    total_domination_number,
    two_packing_number,
)
from .labelling import (
    IllegalLabelling,
    Labelling,
    LegalityReport,
    check_legal,
    formula_value,
    from_independent_set,
    minimize_weight,
    pattern_labelling,
    to_independent_set,
    weight,
)
from .products import ProductGraph, direct_product, layer, project
from .families import (
    FamilySpec,
    build_family,
    build_family_with_witness,
    counterexample_product,
    extreme_product,
    make_cocktail,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_Gn,
    make_Hn,
    make_path,
    make_X,
    parse_family,
)
from .bounds import (
    BoundReport,
    alpha_lower_bound,
    bipartite_bound,
    clawfree_bound,
    conjecture_scan,
    degree_ratio_bound,
    k2_sandwich,
    packing_total_bound,
    product_upper_bound,
)
from .formats import (
    Certificate,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
    parse_pattern,
    print_pattern,
    read_certificate,
    read_certificates,
    read_graph,
    read_graphs,
    verify_certificate,
    write_certificate,
)

__version__ = "0.1.0"
