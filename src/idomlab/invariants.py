"""Exact computation of domination-type invariants with verifiable witnesses.

All solvers are exact branch-and-bound searches on bitset adjacency rows,
meant for desk-scale graphs (the default cap is 40 vertices).  Every result
carries a witness set that re-verifies under the matching predicate, and the
reported witness is always the lexicographically smallest optimum, so
results do not depend on traversal or worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Optional

from .graph import Graph, VertexSet, square_graph, _bits_of


class CapExceeded(RuntimeError):
    """An exact solver was asked for a graph above its vertex cap."""


class BudgetExhausted(RuntimeError):
    """A solver ran out of its wall-clock budget before finishing."""


class UndefinedInvariant(ValueError):
    """The requested invariant does not exist on this graph."""


@dataclass(frozen=True)
class SolverLimits:
    """Caps and budgets for the exact searches.

    ``vertex_cap`` bounds exponential searches; witness verification is
    polynomial and intentionally not capped.  ``budget_secs`` aborts a
    search with :class:`BudgetExhausted` rather than returning a guess.
    """

    vertex_cap: int = 40
    budget_secs: Optional[float] = None


DEFAULT_LIMITS = SolverLimits()


class _Deadline:
    """Cooperative deadline, read at every search node."""

    __slots__ = ("t_end",)

    def __init__(self, budget_secs: Optional[float]):
        self.t_end = None if budget_secs is None else perf_counter() + budget_secs

    def tick(self) -> None:
        if self.t_end is not None and perf_counter() > self.t_end:
            raise BudgetExhausted("solver budget exhausted")


def _require_cap(graph: Graph, limits: SolverLimits, what: str) -> None:
    if graph.n > limits.vertex_cap:
        raise CapExceeded(
            f"{what} on {graph.n} vertices exceeds the cap of {limits.vertex_cap}; "
            "raise the cap to force the search"
        )


@dataclass(frozen=True)
class InvariantResult:
    """An exact invariant value with its verifying witness."""

    name: str
    value: int
    witness: VertexSet
    method: str
    elapsed: float


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def _check_subset(graph: Graph, subset: VertexSet) -> None:
    if subset.n != graph.n:
        raise ValueError("vertex set does not live in this graph")


def is_independent(graph: Graph, subset: VertexSet) -> bool:
    _check_subset(graph, subset)
    bits = subset.bits
    for v in _bits_of(bits):
        if graph.adj[v] & bits:
            return False
    return True


def is_dominating(graph: Graph, subset: VertexSet) -> bool:
    _check_subset(graph, subset)
    covered = subset.bits
    for v in _bits_of(subset.bits):
        covered |= graph.adj[v]
    return covered == graph.full_bits


def is_maximal_independent(graph: Graph, subset: VertexSet) -> bool:
    """Independent and dominating, i.e. inclusion-maximal independent."""
    return is_independent(graph, subset) and is_dominating(graph, subset)


def is_total_dominating(graph: Graph, subset: VertexSet) -> bool:
    _check_subset(graph, subset)
    covered = 0
    for v in _bits_of(subset.bits):
        covered |= graph.adj[v]
    return covered == graph.full_bits


def is_2_packing(graph: Graph, subset: VertexSet) -> bool:
    """True when members are pairwise at distance at least 3."""
    _check_subset(graph, subset)
    square = square_graph(graph)
    bits = subset.bits
    for v in _bits_of(bits):
        if square.adj[v] & bits:
            return False
    return True


PREDICATES = {
    "i": is_maximal_independent,
    "alpha": is_independent,
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "rho": is_2_packing,
}


# ---------------------------------------------------------------------------
# The cover kernel: independent domination, domination, total domination
# ---------------------------------------------------------------------------
#
# Picking vertex ``v`` covers ``coverage[v]`` and rejects ``conflict[v]``; an
# uncovered vertex ``u`` can only be covered by members of ``chooser[u]``.
# Propagation forces the single remaining option of any uncovered vertex, and
# a forced vertex that conflicts with the chosen set ends the branch.  Dead
# branches are also cut by the bound |chosen| + ceil(uncovered / largest
# coverage).  For i the rows are (closed, closed, adj); for gamma (closed,
# closed, none); for gamma_t (adj, adj, none).
#
# One pass yields both the optimum and its lexicographically least witness,
# and the maximum independent set search and labelling.minimize_weight rely
# on the same four conditions:
#   1. the search branches on the lowest-index undecided vertex;
#   2. it pushes "out" before "in", so "in" comes off the stack first and
#      optima of equal size are reached in lexicographic order of their
#      sorted members;
#   3. it prunes strictly (bound >= best) and reads ``best`` when an entry is
#      popped, so no subtree holding an optimum is cut before the first
#      optimum is reached;
#   4. ``best`` starts at a known feasible size + 1, so an optimum of exactly
#      that size is still reached in order.
# Every leaf that improves ``best`` is recorded; the first optimum reached is
# the least one, and no later leaf improves on it.


def _greedy_maximal_independent(adj: tuple[int, ...], n: int) -> int:
    chosen = 0
    banned = 0
    for v in range(n):
        if not (banned >> v) & 1:
            chosen |= 1 << v
            banned |= adj[v] | (1 << v)
    return chosen


def _propagate(
    coverage: tuple[int, ...],
    chooser: tuple[int, ...],
    conflict: tuple[int, ...],
    full: int,
    chosen: int,
    rejected: int,
    covered: int,
) -> Optional[tuple[int, int, int]]:
    """Force unique options; return ``None`` on a dead branch."""
    while True:
        undecided = full & ~chosen & ~rejected
        forced = 0
        scan = full & ~covered
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            scan ^= low
            options = chooser[u] & undecided
            if options == 0:
                return None
            if options & (options - 1) == 0:
                forced |= options
        if not forced:
            return chosen, rejected, covered
        while forced:
            low = forced & -forced
            w = low.bit_length() - 1
            forced ^= low
            if conflict[w] & chosen:
                return None
            chosen |= low
            rejected |= conflict[w]
            covered |= coverage[w]


def _cover_leaves(
    full: int,
    deadline: _Deadline,
    coverage: tuple[int, ...],
    chooser: tuple[int, ...],
    conflict: tuple[int, ...],
    bound: list[int],
) -> Iterator[int]:
    """Yield the chosen set of every leaf the cover search reaches, in order.

    A node is cut when its size bound reaches ``bound[0]``, which is read at
    every node, so the caller may lower it between leaves.
    """
    denom = max((row.bit_count() for row in coverage), default=1)
    stack = [(0, 0, 0)]
    while stack:
        deadline.tick()
        chosen, rejected, covered = stack.pop()
        state = _propagate(coverage, chooser, conflict, full, chosen, rejected, covered)
        if state is None:
            continue
        chosen, rejected, covered = state
        k = chosen.bit_count()
        uncovered = full & ~covered
        if k + (uncovered.bit_count() + denom - 1) // denom >= bound[0]:
            continue
        if uncovered == 0:
            yield chosen
            continue
        # propagation leaves every uncovered vertex an undecided option
        undecided = full & ~chosen & ~rejected
        v_bit = undecided & -undecided
        v = v_bit.bit_length() - 1
        stack.append((chosen, rejected | v_bit, covered))
        stack.append((chosen | v_bit, rejected | conflict[v], covered | coverage[v]))


def _solve_min_cover(
    graph: Graph,
    deadline: _Deadline,
    coverage: tuple[int, ...],
    chooser: tuple[int, ...],
    conflict: tuple[int, ...],
    upper: int,
) -> tuple[int, int]:
    """Return ``(size, bits)`` of the lexicographically least minimum cover.

    ``upper`` is one more than the size of some feasible cover.
    """
    bound = [upper]
    witness = 0
    for witness in _cover_leaves(graph.full_bits, deadline, coverage, chooser, conflict, bound):
        bound[0] = witness.bit_count()
    return bound[0], witness


def independent_domination_number(
    graph: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> InvariantResult:
    """Exact minimum size of a maximal independent set, with witness."""
    _require_cap(graph, limits, "exact independent domination")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    closed = tuple(graph.adj[v] | (1 << v) for v in range(graph.n))
    upper = _greedy_maximal_independent(graph.adj, graph.n).bit_count() + 1
    value, bits = _solve_min_cover(graph, deadline, closed, closed, graph.adj, upper)
    return InvariantResult(
        "i", value, VertexSet(graph.n, bits), "branch-and-bound", perf_counter() - started
    )


def domination_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact minimum size of a dominating set, with witness."""
    _require_cap(graph, limits, "exact domination")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    closed = tuple(graph.adj[v] | (1 << v) for v in range(graph.n))
    value, bits = _solve_min_cover(graph, deadline, closed, closed, (0,) * graph.n, graph.n + 1)
    return InvariantResult(
        "gamma", value, VertexSet(graph.n, bits), "branch-and-bound", perf_counter() - started
    )


def total_domination_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact minimum size of a total dominating set, with witness.

    Undefined (raises :class:`UndefinedInvariant`) when the graph has an
    isolated vertex, since such a vertex can never acquire a neighbour.
    """
    _require_cap(graph, limits, "exact total domination")
    if graph.n == 0 or any(row == 0 for row in graph.adj):
        raise UndefinedInvariant("total domination is undefined with isolated vertices")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    value, bits = _solve_min_cover(
        graph, deadline, graph.adj, graph.adj, (0,) * graph.n, graph.n + 1
    )
    return InvariantResult(
        "gamma_t", value, VertexSet(graph.n, bits), "branch-and-bound", perf_counter() - started
    )


# ---------------------------------------------------------------------------
# Maximum independent set (independence and 2-packing numbers)
# ---------------------------------------------------------------------------


def _clique_cover_bound(adj: tuple[int, ...], candidates: int) -> int:
    """Number of cliques in a greedy cover of ``candidates``; bounds alpha."""
    cliques: list[int] = []
    scan = candidates
    while scan:
        low = scan & -scan
        v = low.bit_length() - 1
        scan ^= low
        row = adj[v]
        for idx, members in enumerate(cliques):
            if members & ~row == 0:
                cliques[idx] = members | low
                break
        else:
            cliques.append(low)
    return len(cliques)


def _solve_max_independent(graph: Graph, deadline: _Deadline) -> tuple[int, int]:
    """Return ``(alpha(G), bits)`` with the lexicographically least witness.

    One pass, under the conditions stated for the cover kernel with the
    bound mirrored: prune at ``upper <= best``, start ``best`` at -1.
    """
    adj = graph.adj
    closed = tuple(adj[v] | (1 << v) for v in range(graph.n))
    best = -1
    witness = 0
    stack = [(0, graph.full_bits)]
    while stack:
        deadline.tick()
        chosen, candidates = stack.pop()
        # vertices with no candidate neighbours always join
        while True:
            free = 0
            scan = candidates
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                scan ^= low
                if adj[v] & candidates == 0:
                    free |= low
            if not free:
                break
            chosen |= free
            candidates &= ~free
        k = chosen.bit_count()
        if k + _clique_cover_bound(adj, candidates) <= best:
            continue
        if candidates == 0:
            best, witness = k, chosen
            continue
        v_bit = candidates & -candidates
        v = v_bit.bit_length() - 1
        stack.append((chosen, candidates & ~v_bit))
        stack.append((chosen | v_bit, candidates & ~closed[v]))
    return best, witness


def independence_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact maximum size of an independent set, with witness."""
    _require_cap(graph, limits, "exact independence number")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    value, bits = _solve_max_independent(graph, deadline)
    return InvariantResult(
        "alpha", value, VertexSet(graph.n, bits), "branch-and-bound", perf_counter() - started
    )


def two_packing_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact maximum size of a set with pairwise distances at least 3.

    Computed as a maximum independent set of the square graph.
    """
    _require_cap(graph, limits, "exact 2-packing")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    value, bits = _solve_max_independent(square_graph(graph), deadline)
    return InvariantResult(
        "rho", value, VertexSet(graph.n, bits), "square+branch-and-bound", perf_counter() - started
    )


SOLVERS = {
    "i": independent_domination_number,
    "alpha": independence_number,
    "gamma": domination_number,
    "gamma_t": total_domination_number,
    "rho": two_packing_number,
}


def invariant(graph: Graph, name: str, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Dispatch an invariant computation by name."""
    try:
        solver = SOLVERS[name]
    except KeyError:
        raise ValueError(f"unknown invariant {name!r}; choose from {sorted(SOLVERS)}") from None
    return solver(graph, limits)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of maximal independent sets
# ---------------------------------------------------------------------------


def enumerate_maximal_independent_sets(
    graph: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> Iterator[VertexSet]:
    """Yield every maximal independent set exactly once, in a fixed order.

    The order is lexicographic in the membership indicator read from vertex
    0 upward with "in" before "out", so runs are reproducible.
    """
    _require_cap(graph, limits, "maximal independent set enumeration")
    n = graph.n
    closed = tuple(graph.adj[v] | (1 << v) for v in range(n))
    deadline = _Deadline(limits.budget_secs)
    # chosen and uncovered vertices are disjoint, so a bound of n + 1 cuts nothing
    for bits in _cover_leaves(graph.full_bits, deadline, closed, closed, graph.adj, [n + 1]):
        yield VertexSet(n, bits)
