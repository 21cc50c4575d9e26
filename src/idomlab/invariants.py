"""Exact computation of domination-type invariants with verifiable witnesses.

All solvers are exact searches on bitset adjacency rows, meant for
desk-scale graphs (the default cap is 40 vertices).  They are
branch-and-bound searches, except that ``i``, ``gamma`` and ``gamma_t`` on
graphs of at least 24 vertices and frontier width at most 6 (paths, cycles,
``P_m x K_n`` for n <= 4) take a dynamic program over the vertex order,
whose cost is linear in the order for a fixed width.  Every
result carries a witness set that re-verifies under the matching predicate,
and the reported witness is always the lexicographically smallest optimum,
so results do not depend on traversal or worker scheduling.
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
# and the maximum independent set search and the labelling branch-and-bound
# (labelling._search_min_weight) rely on the same four conditions:
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


# ---------------------------------------------------------------------------
# The frontier plan, and the frontier DP: the same covers, one vertex at a time
# ---------------------------------------------------------------------------
#
# Both frontier DPs, this module's and labelling._frontier_min_weight, read
# one frontier plan.  Vertices are decided in index order.  The frontier is
# the set of decided vertices that still have an undecided neighbour; a vertex
# leaves it once its last neighbour is decided.  Each frontier vertex holds a
# slot below the frontier width, and a DP state keeps a fixed-width field per
# slot, so the work per vertex follows the width, not the order.  A vertex
# takes the slot of a neighbour that leaves as it is decided, if there is one,
# or else the lowest free slot, so long runs of vertices see the same slots; a
# vertex with no later neighbour takes none.  ``_frontier_plan`` works the
# slots out once per solve, and neither DP assigns a slot itself.
#
# In the cover DP a state is the (chosen, covered) pair of the frontier, kept
# as bits over frontier slots, and a vertex must be covered by the time it
# leaves.  Each state keeps the best score of the prefixes reaching it.
# Prefixes reaching the same state have the same completions, so keeping one
# per state is exact.
#
# The score is ``size << n`` plus bit ``n - 1 - u`` for every decided vertex
# ``u`` left out, so the least score has the fewest members and, among those,
# the least sorted members: of two sets of one size, the lexicographically
# smaller holds the smallest vertex of their symmetric difference, which the
# other leaves out at a higher bit.  A state's best prefix therefore extends
# to the best cover through it, and the final score is the least optimum the
# branch-and-bound reaches first.

# Route to the DP from this order and at most this natural-order width.
# Both routes timed on every cover solve of one pass of the paper's
# reproduce targets and verify and one of the kn-route benchmark: from 24
# vertices the DP took width 4 from 37 to 13 ms (27 solves) and width 6 from
# 35 to 5.4 ms (12), but width 7 from 21 to 29 ms (17); from 12 to 23
# vertices it was slower at widths 4 to 7 (width 6: 7.0 -> 10.8 ms, 74
# solves).
_DP_MIN_ORDER = 24
_DP_MAX_WIDTH = 6


def _last_neighbours(rows: tuple[int, ...]) -> list[int]:
    """For each vertex, the highest-index vertex its row reaches, or itself."""
    return [max(u, row.bit_length() - 1) for u, row in enumerate(rows)]


def _frontier_width(last: list[int]) -> int:
    """Most decided vertices that still have an undecided neighbour."""
    leaving = [0] * len(last)
    for end in last:
        leaving[end] += 1
    width = size = 0
    for gone in leaving:
        size += 1 - gone
        width = max(width, size)
    return width


def _frontier_plan(rows: tuple[int, ...], last: list[int]) -> Iterator[tuple]:
    """Yield the frontier's slots, one step per vertex in index order.

    ``rows`` are symmetric adjacency rows and ``last`` their
    ``_last_neighbours``.  Step ``v`` is ``(near, leaving, own)``: ``near``
    pairs each frontier neighbour of ``v`` with its slot, ``leaving`` holds
    the slots of the frontier vertices whose last neighbour is ``v``, both in
    index order, and ``own`` is the slot ``v`` takes, or -1 when no later
    vertex neighbours it.  Every slot is below ``_frontier_width(last)``.
    The steps are made as the DP reads them, so a long graph's plan is never
    held whole; held whole, that of ``path:3000`` takes about 0.8 MB.
    """
    slot = [0] * len(rows)
    taken = 0  # a bit for each slot held by a frontier vertex
    frontier: list[int] = []
    for v, row in enumerate(rows):
        near = []
        leaving = []
        stay = []
        for u in frontier:
            if (row >> u) & 1:
                near.append((u, slot[u]))
                if last[u] == v:  # a leaving vertex is a neighbour of v
                    leaving.append(slot[u])
                    taken ^= 1 << slot[u]
                    continue
            stay.append(u)
        frontier = stay
        own = -1
        if last[v] != v:
            own = leaving[0] if leaving else (~taken & (taken + 1)).bit_length() - 1
            slot[v] = own
            taken |= 1 << own
            frontier.append(v)
        yield tuple(near), tuple(leaving), own


def _frontier_min_cover(
    deadline: _Deadline,
    coverage: tuple[int, ...],
    chooser: tuple[int, ...],
    conflict: tuple[int, ...],
    plan: Iterator[tuple],
    width: int,
) -> tuple[int, int]:
    """Return ``(size, bits)`` of the lexicographically least minimum cover.

    Takes the cover kernel's rows, which must be symmetric and admit a
    cover, and the ``_frontier_plan`` of the rows' union, whose slots are
    below ``width``; for ``i``, ``gamma`` and ``gamma_t`` that union reaches
    exactly as far as the graph's adjacency rows, so the plan of those rows
    serves.
    """
    n = len(coverage)
    low = (1 << width) - 1
    unit = 1 << n
    states = {0: 0}  # chosen | covered << width -> best score
    for v, (near, leaving, own) in enumerate(plan):
        deadline.tick()
        cover = by = clash = done = 0
        for u, s in near:
            if (coverage[v] >> u) & 1:
                cover |= 1 << s
            if (chooser[v] >> u) & 1:
                by |= 1 << s
            if (conflict[v] >> u) & 1:
                clash |= 1 << s
        for s in leaving:
            done |= 1 << s
        need = done << width
        keep = ~(done | need)
        pick = cover << width
        stays = own >= 0  # else v leaves at once and must be covered now
        own_chosen = 1 << own if stays else 0
        own_covered = own_chosen << width
        by_self = (chooser[v] >> v) & 1
        out_mark = 1 << (n - 1 - v)
        after: dict[int, int] = {}
        for state, score in states.items():
            chosen = state & low
            met = by & chosen
            if state & need == need and (met or stays):
                nxt = state & keep | (own_covered if met else 0)
                old = after.get(nxt)
                if old is None or score | out_mark < old:
                    after[nxt] = score | out_mark
            if clash & chosen == 0 and (met or by_self or stays):
                nxt = state | pick
                if nxt & need == need:
                    nxt = nxt & keep | own_chosen | (own_covered if met or by_self else 0)
                    old = after.get(nxt)
                    if old is None or score + unit < old:
                        after[nxt] = score + unit
        states = after
    score = states[0]
    members = 0
    for u in range(n):
        if not (score >> (n - 1 - u)) & 1:  # u was not left out
            members |= 1 << u
    return score >> n, members


def _solve_min_cover(
    graph: Graph,
    deadline: _Deadline,
    coverage: tuple[int, ...],
    chooser: tuple[int, ...],
    conflict: tuple[int, ...],
    upper: int,
) -> tuple[int, int, str]:
    """Return ``(size, bits, method)`` of the lexicographically least minimum cover.

    ``upper`` is one more than the size of some feasible cover.  Graphs of
    at least ``_DP_MIN_ORDER`` vertices whose frontier width in natural
    order is at most ``_DP_MAX_WIDTH`` take the frontier DP; every other
    graph takes the branch-and-bound, which is as fast below 24 vertices
    and faster above width 6, where the DP's states multiply (the
    measured crossover is in the comment on ``_DP_MIN_ORDER``).
    """
    if graph.n >= _DP_MIN_ORDER:
        last = _last_neighbours(graph.adj)
        width = _frontier_width(last)
        if width <= _DP_MAX_WIDTH:
            plan = _frontier_plan(graph.adj, last)
            size, bits = _frontier_min_cover(deadline, coverage, chooser, conflict, plan, width)
            return size, bits, "frontier-dp"
    bound = [upper]
    witness = 0
    for witness in _cover_leaves(graph.full_bits, deadline, coverage, chooser, conflict, bound):
        bound[0] = witness.bit_count()
    return bound[0], witness, "branch-and-bound"


def independent_domination_number(
    graph: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> InvariantResult:
    """Exact minimum size of a maximal independent set, with witness."""
    _require_cap(graph, limits, "exact independent domination")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    closed = tuple(graph.adj[v] | (1 << v) for v in range(graph.n))
    upper = _greedy_maximal_independent(graph.adj, graph.n).bit_count() + 1
    value, bits, method = _solve_min_cover(graph, deadline, closed, closed, graph.adj, upper)
    return InvariantResult("i", value, VertexSet(graph.n, bits), method, perf_counter() - started)


def domination_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact minimum size of a dominating set, with witness."""
    _require_cap(graph, limits, "exact domination")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    closed = tuple(graph.adj[v] | (1 << v) for v in range(graph.n))
    value, bits, method = _solve_min_cover(
        graph, deadline, closed, closed, (0,) * graph.n, graph.n + 1
    )
    return InvariantResult(
        "gamma", value, VertexSet(graph.n, bits), method, perf_counter() - started
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
    value, bits, method = _solve_min_cover(
        graph, deadline, graph.adj, graph.adj, (0,) * graph.n, graph.n + 1
    )
    return InvariantResult(
        "gamma_t", value, VertexSet(graph.n, bits), method, perf_counter() - started
    )


# ---------------------------------------------------------------------------
# Maximum independent set (independence and 2-packing numbers)
# ---------------------------------------------------------------------------


def _clique_cover_bound(adj: tuple[int, ...], candidates: int) -> int:
    """Number of cliques in a greedy cover of ``candidates``; bounds alpha.

    Each vertex joins the lowest-index clique it is adjacent to throughout,
    or opens a new one.  Only a clique holding a placed neighbour can
    qualify, and cliques are indexed in order of their least members, each
    of which is a placed neighbour when its clique qualifies; so the first
    qualifying clique met among the placed neighbours, in index order, is
    the lowest-index one.
    """
    cliques: list[int] = []
    home = [0] * len(adj)  # clique index of each placed vertex
    placed = 0
    scan = candidates
    while scan:
        low = scan & -scan
        v = low.bit_length() - 1
        scan ^= low
        row = adj[v]
        near = row & placed
        while near:
            bit = near & -near
            near ^= bit
            idx = home[bit.bit_length() - 1]
            if cliques[idx] & ~row == 0:
                cliques[idx] |= low
                break
        else:
            idx = len(cliques)
            cliques.append(low)
        home[v] = idx
        placed |= low
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
