"""Closed-form product bounds, evaluated and cross-checked against exact values.

Every report carries the hypothesis check that gates it ("applicable"),
both sides of the inequality, and the verdict.  Inapplicable reports carry
no verdict.  Ratio-form bounds round their right side up, since the bounded
quantity is an integer; the raw rational stays in the detail map.

The bounds are data: one table entry per bound, evaluated on a profile of
the factor pair that solves each invariant of each factor, and of their
product, at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .families import make_complete
from .graph import Graph, VertexSet, find_claw, is_bipartite, is_connected, max_degree, min_degree
from .invariants import DEFAULT_LIMITS, CapExceeded, SolverLimits, invariant, is_maximal_independent
from .products import ProductGraph, direct_product

K_2 = make_complete(2)


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


class _Profile:
    """A factor pair; ``value(name, side)`` solves ``name`` on the ``"left"`` or
    ``"right"`` factor or on the ``"product"`` once, when first asked for."""

    def __init__(self, left: Graph, right: Graph, limits: SolverLimits) -> None:
        self.left = left
        self.right = right
        self.limits = limits
        self._values: dict[tuple[str, str], int] = {}

    @cached_property
    def product(self) -> ProductGraph:
        return direct_product(self.left, self.right)

    def value(self, name: str, side: str) -> int:
        key = (name, side)
        if key not in self._values:
            graph = self.product.graph if side == "product" else getattr(self, side)
            self._values[key] = invariant(graph, name, self.limits).value
        return self._values[key]

    def sides(self, name: str) -> tuple[int, int]:
        return self.value(name, "left"), self.value(name, "right")


class _PairBound(NamedTuple):
    """``product(G x H) relation rhs(profile)`` where ``gate`` returns ``None``, not a
    reason it does not apply.  ``factors`` are the factor invariants the detail
    shows as ``{name}_{side}``.  A ``Fraction`` right side is rounded up."""

    bound_id: str
    gate: Callable[[Graph, Graph], Optional[str]]
    reason: str
    factors: tuple[str, ...]
    product: str
    relation: str
    rhs: Callable[[_Profile], Union[int, Fraction]]


def _isolate_free(left: Graph, right: Graph) -> Optional[str]:
    if all(graph.n > 0 and min_degree(graph) >= 1 for graph in (left, right)):
        return None
    return "a factor has an isolated vertex"


def _claw_free(left: Graph, right: Graph) -> Optional[str]:
    if reason := _isolate_free(left, right):
        return reason
    for name, graph in (("left", left), ("right", right)):
        if (claw := find_claw(graph)) is not None:
            return f"{name} factor has an induced claw at {list(claw)}"
    return None


def _connected(left: Graph, right: Graph) -> Optional[str]:
    if not (is_connected(left) and is_connected(right)) or left.n == 0 or right.n == 0:
        return "a factor is disconnected"
    return None


def _connected_bipartite(left: Graph, right: Graph) -> Optional[str]:
    # a connected factor has an isolated vertex only when it is K_1, for which
    # i(G x H) >= 2 max(gamma(G), gamma(H)) fails
    reason = _connected(left, right) or _isolate_free(left, right)
    if reason is None and (is_bipartite(left) is None or is_bipartite(right) is None):
        return "a factor contains an odd cycle"
    return reason


def _right_side(bound: _PairBound, profile: _Profile) -> tuple[int, dict[str, str]]:
    """The bound's right side and the detail map behind it; solves factors only."""
    sides = ("left", "right")
    detail = {f"{n}_{s}": str(profile.value(n, s)) for n in bound.factors for s in sides}
    rhs = bound.rhs(profile)
    if isinstance(rhs, Fraction):
        return ceil(rhs), {"raw_rhs": str(rhs), **detail}
    return rhs, detail


def _report(bound: _PairBound, profile: _Profile) -> BoundReport:
    reason = bound.gate(profile.left, profile.right)
    if reason is not None:
        return _inapplicable(bound.bound_id, reason)
    rhs, detail = _right_side(bound, profile)
    lhs = profile.value(bound.product, "product")
    holds = lhs <= rhs if bound.relation == "<=" else lhs >= rhs
    return BoundReport(bound.bound_id, True, bound.reason, lhs, rhs, holds, detail)


PAIR_BOUNDS = {
    bound.bound_id: bound
    for bound in (
        _PairBound(
            "i-product-upper", _isolate_free, "both factors isolate-free", ("i",), "i", "<=",
            lambda p: min(p.value("i", "left") * p.right.n, p.value("i", "right") * p.left.n),
        ),
        _PairBound(
            "alpha-product-lower", _isolate_free, "both factors isolate-free", ("alpha",),
            "alpha", ">=",
            lambda p: max(p.value("alpha", "left") * p.right.n, p.value("alpha", "right") * p.left.n),
        ),
        _PairBound(
            "packing-total-lower", _isolate_free, "both factors isolate-free", ("rho", "gamma_t"),
            "i", ">=",
            lambda p: max(
                p.value("rho", "left") * p.value("gamma_t", "right"),
                p.value("rho", "right") * p.value("gamma_t", "left"),
            ),
        ),
        _PairBound(
            "clawfree-factor-lower", _claw_free, "both factors claw-free and isolate-free",
            ("i",), "i", ">=", lambda p: max(p.sides("i")),
        ),
        _PairBound(
            "degree-ratio-lower", _connected, "both factors connected", ("gamma",), "i", ">=",
            lambda p: max(
                Fraction(p.right.n * p.value("gamma", "left"), max_degree(p.right) + 1),
                Fraction(p.left.n * p.value("gamma", "right"), max_degree(p.left) + 1),
            ),
        ),
        _PairBound(
            "bipartite-domination-lower", _connected_bipartite,
            "both factors connected and bipartite", ("gamma",), "i", ">=",
            lambda p: 2 * max(p.sides("gamma")),
        ),
    )
}

# The Nowakowski-Rall relations; conjecture_scan adds their fallbacks.
_CONJECTURES = (
    _PairBound(
        "factor-product-lower", lambda left, right: None, "exact product value", ("i",), "i",
        ">=", lambda p: p.value("i", "left") * p.value("i", "right"),
    ),
    _PairBound(
        "factor-min-lower", lambda left, right: None, "exact product value", ("i",), "i", ">=",
        lambda p: min(p.sides("i")),
    ),
)

BOUND_IDS = tuple(sorted(PAIR_BOUNDS)) + tuple(bound.bound_id for bound in _CONJECTURES)
_BY_ID = {**PAIR_BOUNDS, **{bound.bound_id: bound for bound in _CONJECTURES}}


def product_upper_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) <= min(i(G) n(H), i(H) n(G))`` for isolate-free factors."""
    return _report(PAIR_BOUNDS["i-product-upper"], _Profile(left, right, limits))


def alpha_lower_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``alpha(G x H) >= max(alpha(G) n(H), alpha(H) n(G))`` for isolate-free factors."""
    return _report(PAIR_BOUNDS["alpha-product-lower"], _Profile(left, right, limits))


def k2_sandwich(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> BoundReport:
    """``gamma_t(G) <= i(G x K_2) <= min(2 i(G), n(G))`` for isolate-free ``G``.

    ``lhs`` is the lower end, ``rhs`` the upper end; the middle value sits
    in the detail map.
    """
    bound_id = "k2-sandwich"
    if _isolate_free(graph, K_2):
        return _inapplicable(bound_id, "the graph has an isolated vertex")
    profile = _Profile(graph, K_2, limits)
    lower = profile.value("gamma_t", "left")
    i_graph = profile.value("i", "left")
    middle = profile.value("i", "product")
    upper = min(2 * i_graph, graph.n)
    detail = {"i_product_k2": str(middle), "i_graph": str(i_graph)}
    return BoundReport(bound_id, True, "isolate-free", lower, upper, lower <= middle <= upper, detail)


def packing_total_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= max(rho(G) gamma_t(H), rho(H) gamma_t(G))``, min degree >= 1."""
    return _report(PAIR_BOUNDS["packing-total-lower"], _Profile(left, right, limits))


def clawfree_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= max(i(G), i(H))`` when both factors are claw-free and isolate-free."""
    return _report(PAIR_BOUNDS["clawfree-factor-lower"], _Profile(left, right, limits))


def degree_ratio_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= max(n(H) gamma(G) / (Delta(H)+1), n(G) gamma(H) / (Delta(G)+1))``.

    Needs both factors connected.  The right side is reported rounded up.
    """
    return _report(PAIR_BOUNDS["degree-ratio-lower"], _Profile(left, right, limits))


def bipartite_bound(
    left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> BoundReport:
    """``i(G x H) >= 2 max(gamma(G), gamma(H))`` for connected bipartite factors."""
    return _report(PAIR_BOUNDS["bipartite-domination-lower"], _Profile(left, right, limits))


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
    return _conjecture_reports(_Profile(left, right, limits), product_witness)


def _conjecture_reports(
    profile: _Profile, product_witness: Optional[VertexSet] = None
) -> tuple[BoundReport, BoundReport]:
    try:
        right_sides = [_right_side(bound, profile) for bound in _CONJECTURES]
    except CapExceeded:
        reason = "a factor is above the exact-solve cap"
        return tuple(
            BoundReport(bound.bound_id, True, reason, None, None, None, {"verdict": "unchecked"})
            for bound in _CONJECTURES
        )
    try:
        profile.value("i", "product")
    except CapExceeded:
        witness_size = None
        if product_witness is not None:
            if not is_maximal_independent(profile.product.graph, product_witness):
                raise ValueError("supplied product witness is not maximal independent")
            witness_size = len(product_witness)
        return tuple(
            _witness_report(bound.bound_id, rhs, detail, witness_size)
            for bound, (rhs, detail) in zip(_CONJECTURES, right_sides)
        )
    return tuple(_report(bound, profile) for bound in _CONJECTURES)


def _witness_report(
    bound_id: str, rhs: int, detail: dict[str, str], witness_size: Optional[int]
) -> BoundReport:
    """A conjecture relation judged by a product witness, ``i(G x H)`` being above the cap."""
    decided = witness_size is not None and witness_size < rhs
    detail["verdict"] = "fails via upper-bound witness" if decided else "unchecked"
    if witness_size is not None:
        detail["witness_size"] = str(witness_size)
    reason = "witness-based verdict" if decided else "witness cannot decide the relation"
    return BoundReport(
        bound_id, True, f"product above cap; {reason}", witness_size, rhs,
        False if decided else None, detail,
    )


def _lookup(bound_id: str) -> _PairBound:
    try:
        return _BY_ID[bound_id]
    except KeyError:
        raise ValueError(f"unknown bound id {bound_id!r}; choose from {list(BOUND_IDS)}") from None


def evaluate_pair_bounds(
    bound_ids: Iterable[str], left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> list[BoundReport]:
    """Evaluate named bounds on one factor pair, solving each invariant at most once."""
    bounds = [_lookup(bound_id) for bound_id in bound_ids]
    profile = _Profile(left, right, limits)
    return [
        _conjecture_reports(profile)[_CONJECTURES.index(bound)]
        if bound in _CONJECTURES
        else _report(bound, profile)
        for bound in bounds
    ]


def bound_rhs(
    bound_id: str, left: Graph, right: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> Optional[int]:
    """The right side of a bound, or ``None`` where its gate fails; builds no product."""
    bound = _lookup(bound_id)
    if bound.gate(left, right) is not None:
        return None
    return _right_side(bound, _Profile(left, right, limits))[0]
