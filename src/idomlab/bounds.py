"""Closed-form product bounds, evaluated and cross-checked against exact values.

Every report carries the hypothesis check that gates it ("applicable"),
both sides of the inequality, and the verdict.  Inapplicable reports carry
no verdict.  Ratio-form bounds round their right side up, since the bounded
quantity is an integer; the raw rational stays in the detail map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .graph import (
    Graph,
    VertexSet,
    find_claw,
    is_bipartite,
    is_connected,
    max_degree,
    min_degree,
)
from .invariants import (
    DEFAULT_LIMITS,
    CapExceeded,
    SolverLimits,
    domination_number,
    independence_number,
    independent_domination_number,
    is_maximal_independent,
    total_domination_number,
    two_packing_number,
)
from .products import direct_product


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    applicable: bool
    reason: str
    lhs: Optional[int]
    rhs: Optional[int]
    holds: Optional[bool]
    detail: dict[str, str] = field(default_factory=dict)

    def verdict(self) -> str:
        if not self.applicable:
            return "inapplicable"
        if "verdict" in self.detail:
            return self.detail["verdict"]
        if self.holds is None:
            return "unchecked"
        return "holds" if self.holds else "fails"


def _inapplicable(bound_id: str, reason: str) -> BoundReport:
    return BoundReport(bound_id, False, reason, None, None, None)


def _no_isolates(graph: Graph) -> bool:
    return graph.n > 0 and min_degree(graph) >= 1


def product_upper_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) <= min(i(G) n(H), i(H) n(G))`` for isolate-free factors."""
    bound_id = "i-product-upper"
    if not (_no_isolates(left) and _no_isolates(right)):
        return _inapplicable(bound_id, "a factor has an isolated vertex")
    i_left = independent_domination_number(left, limits).value
    i_right = independent_domination_number(right, limits).value
    rhs = min(i_left * right.n, i_right * left.n)
    lhs = independent_domination_number(direct_product(left, right).graph, limits).value
    return BoundReport(
        bound_id,
        True,
        "both factors isolate-free",
        lhs,
        rhs,
        lhs <= rhs,
        {"i_left": str(i_left), "i_right": str(i_right)},
    )


def alpha_lower_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``alpha(G x H) >= max(alpha(G) n(H), alpha(H) n(G))`` for isolate-free factors."""
    bound_id = "alpha-product-lower"
    if not (_no_isolates(left) and _no_isolates(right)):
        return _inapplicable(bound_id, "a factor has an isolated vertex")
    a_left = independence_number(left, limits).value
    a_right = independence_number(right, limits).value
    rhs = max(a_left * right.n, a_right * left.n)
    lhs = independence_number(direct_product(left, right).graph, limits).value
    return BoundReport(
        bound_id,
        True,
        "both factors isolate-free",
        lhs,
        rhs,
        lhs >= rhs,
        {"alpha_left": str(a_left), "alpha_right": str(a_right)},
    )


def k2_sandwich(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> BoundReport:
    """``gamma_t(G) <= i(G x K_2) <= min(2 i(G), n(G))`` for isolate-free ``G``.

    ``lhs`` is the lower end, ``rhs`` the upper end; the middle value sits
    in the detail map.
    """
    bound_id = "k2-sandwich"
    if not _no_isolates(graph):
        return _inapplicable(bound_id, "the graph has an isolated vertex")
    from .families import make_complete

    lower = total_domination_number(graph, limits).value
    i_graph = independent_domination_number(graph, limits).value
    middle = independent_domination_number(
        direct_product(graph, make_complete(2)).graph, limits
    ).value
    upper = min(2 * i_graph, graph.n)
    return BoundReport(
        bound_id,
        True,
        "isolate-free",
        lower,
        upper,
        lower <= middle <= upper,
        {"i_product_k2": str(middle), "i_graph": str(i_graph)},
    )


def packing_total_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= max(rho(G) gamma_t(H), rho(H) gamma_t(G))``, min degree >= 1."""
    bound_id = "packing-total-lower"
    if not (_no_isolates(left) and _no_isolates(right)):
        return _inapplicable(bound_id, "a factor has an isolated vertex")
    rho_left = two_packing_number(left, limits).value
    rho_right = two_packing_number(right, limits).value
    gt_left = total_domination_number(left, limits).value
    gt_right = total_domination_number(right, limits).value
    rhs = max(rho_left * gt_right, rho_right * gt_left)
    lhs = independent_domination_number(direct_product(left, right).graph, limits).value
    return BoundReport(
        bound_id,
        True,
        "both factors isolate-free",
        lhs,
        rhs,
        lhs >= rhs,
        {
            "rho_left": str(rho_left),
            "rho_right": str(rho_right),
            "gamma_t_left": str(gt_left),
            "gamma_t_right": str(gt_right),
        },
    )


def clawfree_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= max(i(G), i(H))`` when both factors are claw-free and isolate-free."""
    bound_id = "clawfree-factor-lower"
    if not (_no_isolates(left) and _no_isolates(right)):
        return _inapplicable(bound_id, "a factor has an isolated vertex")
    for name, graph in (("left", left), ("right", right)):
        claw = find_claw(graph)
        if claw is not None:
            return _inapplicable(
                bound_id, f"{name} factor has an induced claw at {list(claw)}"
            )
    i_left = independent_domination_number(left, limits).value
    i_right = independent_domination_number(right, limits).value
    rhs = max(i_left, i_right)
    lhs = independent_domination_number(direct_product(left, right).graph, limits).value
    return BoundReport(
        bound_id,
        True,
        "both factors claw-free and isolate-free",
        lhs,
        rhs,
        lhs >= rhs,
        {"i_left": str(i_left), "i_right": str(i_right)},
    )


def degree_ratio_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= max(n(H) gamma(G) / (Delta(H)+1), n(G) gamma(H) / (Delta(G)+1))``.

    Needs both factors connected.  The right side is reported rounded up.
    """
    bound_id = "degree-ratio-lower"
    if not (is_connected(left) and is_connected(right)) or left.n == 0 or right.n == 0:
        return _inapplicable(bound_id, "a factor is disconnected")
    g_left = domination_number(left, limits).value
    g_right = domination_number(right, limits).value
    raw = max(
        Fraction(right.n * g_left, max_degree(right) + 1),
        Fraction(left.n * g_right, max_degree(left) + 1),
    )
    rhs = -(-raw.numerator // raw.denominator)
    lhs = independent_domination_number(direct_product(left, right).graph, limits).value
    return BoundReport(
        bound_id,
        True,
        "both factors connected",
        lhs,
        rhs,
        lhs >= rhs,
        {"raw_rhs": str(raw), "gamma_left": str(g_left), "gamma_right": str(g_right)},
    )


def bipartite_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= 2 max(gamma(G), gamma(H))`` for connected bipartite factors."""
    bound_id = "bipartite-domination-lower"
    if not (is_connected(left) and is_connected(right)) or left.n == 0 or right.n == 0:
        return _inapplicable(bound_id, "a factor is disconnected")
    if is_bipartite(left) is None or is_bipartite(right) is None:
        return _inapplicable(bound_id, "a factor contains an odd cycle")
    g_left = domination_number(left, limits).value
    g_right = domination_number(right, limits).value
    rhs = 2 * max(g_left, g_right)
    lhs = independent_domination_number(direct_product(left, right).graph, limits).value
    return BoundReport(
        bound_id,
        True,
        "both factors connected and bipartite",
        lhs,
        rhs,
        lhs >= rhs,
        {"gamma_left": str(g_left), "gamma_right": str(g_right)},
    )


def conjecture_scan(
    left: Graph,
    right: Graph,
    limits: SolverLimits = DEFAULT_LIMITS,
    product_witness: Optional[VertexSet] = None,
) -> tuple[BoundReport, BoundReport]:
    """Evaluate ``i(G x H) >= i(G) i(H)`` and ``i(G x H) >= min(i(G), i(H))``.

    When the product is too large to solve exactly but a maximal independent
    witness is supplied, the scan degrades to witness-based verdicts: a
    relation whose right side exceeds the witness size "fails via
    upper-bound witness", and one the witness cannot decide is "unchecked".
    """
    try:
        i_left = independent_domination_number(left, limits).value
        i_right = independent_domination_number(right, limits).value
    except CapExceeded:
        report = BoundReport(
            "factor-product-lower",
            True,
            "a factor is above the exact-solve cap",
            None,
            None,
            None,
            {"verdict": "unchecked"},
        )
        return report, BoundReport(
            "factor-min-lower",
            True,
            report.reason,
            None,
            None,
            None,
            {"verdict": "unchecked"},
        )
    rhs_product = i_left * i_right
    rhs_min = min(i_left, i_right)
    detail_base = {"i_left": str(i_left), "i_right": str(i_right)}

    product = direct_product(left, right)
    exact: Optional[int] = None
    witness_size: Optional[int] = None
    try:
        exact = independent_domination_number(product.graph, limits).value
    except CapExceeded:
        if product_witness is not None:
            if not is_maximal_independent(product.graph, product_witness):
                raise ValueError("supplied product witness is not maximal independent")
            witness_size = len(product_witness)

    def evaluate(bound_id: str, rhs: int) -> BoundReport:
        detail = dict(detail_base)
        if exact is not None:
            return BoundReport(
                bound_id, True, "exact product value", exact, rhs, exact >= rhs, detail
            )
        if witness_size is not None and witness_size < rhs:
            detail["verdict"] = "fails via upper-bound witness"
            detail["witness_size"] = str(witness_size)
            return BoundReport(
                bound_id,
                True,
                "product above cap; witness-based verdict",
                witness_size,
                rhs,
                False,
                detail,
            )
        detail["verdict"] = "unchecked"
        if witness_size is not None:
            detail["witness_size"] = str(witness_size)
        return BoundReport(
            bound_id,
            True,
            "product above cap; witness cannot decide the relation",
            witness_size,
            rhs,
            None,
            detail,
        )

    return (
        evaluate("factor-product-lower", rhs_product),
        evaluate("factor-min-lower", rhs_min),
    )


PAIR_BOUNDS = {
    "i-product-upper": product_upper_bound,
    "alpha-product-lower": alpha_lower_bound,
    "packing-total-lower": packing_total_bound,
    "clawfree-factor-lower": clawfree_bound,
    "degree-ratio-lower": degree_ratio_bound,
    "bipartite-domination-lower": bipartite_bound,
}


def evaluate_pair_bound(
    bound_id: str, left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> list[BoundReport]:
    """Evaluate one named bound (or the conjecture pair) on a factor pair."""
    if bound_id in PAIR_BOUNDS:
        return [PAIR_BOUNDS[bound_id](left, right, limits)]
    if bound_id == "factor-product-lower":
        return [conjecture_scan(left, right, limits)[0]]
    if bound_id == "factor-min-lower":
        return [conjecture_scan(left, right, limits)[1]]
    raise ValueError(
        f"unknown bound id {bound_id!r}; choose from "
        f"{sorted(PAIR_BOUNDS) + ['factor-product-lower', 'factor-min-lower']}"
    )


def parse_pair_manifest(text: str) -> list[tuple[str, str]]:
    """Parse a manifest with one whitespace-separated family-spec pair per line."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two family specs, got {raw!r}")
        pairs.append((parts[0], parts[1]))
    return pairs
