"""Exact computation of domination-type invariants with verifiable witnesses.

All solvers are exact searches on bitset adjacency rows, meant for
desk-scale graphs (the default cap is 40 vertices).  One branch-and-bound,
the cover search, serves all five invariants and the enumeration of maximal
independent sets: its leaves are the sets that cover every vertex, and
``alpha`` and ``rho`` search its maximal independent sets, of the graph and
of its square, under a clique-cover bound.  Only ``i``, ``gamma`` and
``gamma_t`` on graphs of at least 24 vertices and frontier width at most 6
(paths, cycles, ``P_m x K_n`` for n <= 4) take a dynamic program over the
vertex order instead, which works out each distinct transition between its
layers of states once per solve, so that where layers recur, as on those
families, its cost follows the number of distinct layers, not the order.
Every result carries a witness set that re-verifies under the matching
predicate, and the reported witness is always the lexicographically
smallest optimum, so results do not depend on traversal or worker
scheduling.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator, Optional

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
# The cover kernel: one search for all five invariants
# ---------------------------------------------------------------------------
#
# Picking vertex ``v`` covers ``coverage[v]`` and rejects ``conflict[v]``; an
# uncovered vertex ``u`` can only be covered by members of ``chooser[u]``.
# Propagation forces the single remaining option of any uncovered vertex, and
# a forced vertex that conflicts with the chosen set ends the branch.  A leaf
# is a chosen set that covers every vertex.  For i the rows are (closed,
# closed, adj) and the leaves are the maximal independent sets; for gamma
# (closed, closed, none); for gamma_t (adj, adj, none).  alpha and rho search
# the i rows of the graph and of its square: every maximum independent set is
# maximal, so it is a leaf.  On those rows an undecided vertex has no chosen
# neighbour, so it is uncovered, and one whose neighbours are all decided is
# its own last option and is forced in.
#
# Each caller passes its own cut, asked once per node after propagation: a
# minimum cover cuts at |chosen| + ceil(uncovered / largest coverage) >= best,
# a maximum independent set at |chosen| + (cliques in a greedy cover of the
# undecided vertices) <= best, and the enumeration cuts nothing.  One pass
# yields both the optimum and its lexicographically least witness, for either
# objective, under four conditions, which the labelling branch-and-bound
# (labelling._search_min_weight) keeps too:
#   1. the search branches on the lowest-index undecided vertex;
#   2. it pushes "out" before "in", so "in" comes off the stack first and
#      optima of equal size are reached in lexicographic order of their
#      sorted members;
#   3. the cut is strict, bound >= best for a minimum and bound <= best for a
#      maximum, and reads ``best`` when an entry is popped, so no subtree
#      holding an optimum is cut before the first optimum is reached;
#   4. ``best`` starts where the cut spares every optimum: for a minimum at
#      a known feasible size + 1, so an optimum of exactly that size is
#      still reached in order, and for a maximum at -1, below every size.
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
    cut: Callable[[int, int, int], bool],
) -> Iterator[int]:
    """Yield the chosen set of every leaf the cover search reaches, in order.

    ``cut(k, uncovered, rejected)`` is asked at every node after
    propagation, with the node's member count and its uncovered and
    rejected vertices, and drops the node when it answers true; it may read
    a best size that the caller changes between leaves.
    """
    stack = [(0, 0, 0)]
    while stack:
        deadline.tick()
        chosen, rejected, covered = stack.pop()
        state = _propagate(coverage, chooser, conflict, full, chosen, rejected, covered)
        if state is None:
            continue
        chosen, rejected, covered = state
        uncovered = full & ~covered
        if cut(chosen.bit_count(), uncovered, rejected):
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
# leaves.  Each state keeps the best prefix reaching it.  Prefixes reaching
# the same state have the same completions, so keeping one per state is
# exact.
#
# Of two prefixes the better has fewer members or, at equal size, the lesser
# sequence of in/out bits (0 = in) read from vertex 0.  Among sets of one
# size that is the order of their sorted members, so a state's best prefix
# extends to the best cover through it, and the best final prefix is the
# least optimum the branch-and-bound reaches first.  A layer, the states
# after one vertex, keeps for each state its best prefix's size and its rank
# among the layer's best prefixes in bit order.  A candidate from the source
# of rank ``r`` taking bit ``b`` then compares by ``(size, r, b)``, as the
# whole prefixes compare.  Sources are visited in rank order, "in" before
# "out", so candidates arrive in ``(r, b)`` order and a state's winner only
# changes to a strictly smaller size; a state whose winner changes moves to
# the end of the layer, so the layer's order is its winners' ``(r, b)``
# order, which is the next rank order.
#
# A candidate is one int, ``size << field | (2 * r + b) << keyed | state``,
# and a layer is held as its winners' ints in rank order, packed into bytes.
# The sizes count from the source layer's first entry, so the first entries'
# sizes add up to the optimum, and the ``2 * r + b`` fields are the
# back-pointers that one backtrack reads the witness from.  Equal bytes get
# one layer id, and the next layer depends only on a layer's bytes and the
# plan step, so each ``(plan step, layer id)`` is worked out once per solve
# and looked up after that: on a path or a cycle a handful of layers recur
# and every later vertex is a lookup.  Layers that differ only in their
# back-pointers or in the offset of their sizes get two ids but have equal
# successors, so a repeat is found one vertex later.  Memory: a vertex that
# is looked up stores one layer id; one that is worked out stores one memo
# entry and, for a new layer, 8 bytes per state.

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
    holds the slots of the frontier neighbours of ``v``, ``leaving`` the
    slots of the frontier vertices whose last neighbour is ``v``, both in
    index order of their vertices, and ``own`` is the slot ``v`` takes, or
    -1 when no later vertex neighbours it.  Every slot is below
    ``_frontier_width(last)``.  The steps are made as the DP reads them, so
    a long graph's plan is never held whole; held whole, that of
    ``path:3000`` takes about 0.5 MB.
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
                near.append(slot[u])
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
    deadline: _Deadline, plan: Iterator[tuple], width: int, independent: bool, covers_self: bool
) -> tuple[int, int]:
    """Return ``(size, bits)`` of the lexicographically least minimum cover.

    ``plan`` is the ``_frontier_plan`` of a graph's adjacency rows, whose
    slots are below ``width``, and the graph must admit a cover.  A chosen
    vertex covers its neighbours, rejects them when ``independent`` (``i``),
    and covers itself when ``covers_self`` (``i`` and ``gamma``).
    """
    keyed = 2 * width  # a state: chosen | covered << width
    key_mask = (1 << keyed) - 1
    out = 1 << keyed  # b = 1, v left out
    next_rank = out << 1
    field = 4 * width + 1  # above a state and 2 * r + b, r below 4 ** width
    unit = 1 << field
    sizes = -unit
    back = (1 << (2 * width + 1)) - 1
    start = bytes(8)  # the empty state, packed
    layers = {start: 0}  # a layer's bytes -> its id
    held = [start]  # each layer id's bytes
    memo: dict[tuple, int] = {}  # (plan step, layer id) -> next layer id
    trail = []  # the layer id after each vertex
    layer = 0
    fresh = True  # nothing is known yet of the current layer's successors
    first = 0  # the current layer's first entry
    entries = {0: 0}.items()  # its (state, entry) pairs, when at hand
    for step in plan:
        deadline.tick()
        key = (step, layer)
        nxt_layer = None if fresh else memo.get(key)
        if nxt_layer is not None:
            entries = None
        else:
            near, leaving, own = step
            nearby = done = 0
            for s in near:
                nearby |= 1 << s
            for s in leaving:
                done |= 1 << s
            clash = nearby if independent else 0
            need = done << width
            keep = ~(done | need)
            pick = nearby << width
            stays = own >= 0  # else v leaves at once and must be covered now
            free = covers_self or stays
            own_covered = (1 << own if stays else 0) << width
            own_in = own_covered >> width | (own_covered if covers_self else 0)  # v picked
            if entries is None:
                view = memoryview(held[layer]).cast("q")
                entries = zip([entry & key_mask for entry in view], view)
                first = view[0]
            after: dict[int, int] = {}  # state -> its winner, in rank order
            rank = -(first & sizes)  # sizes count from the first entry's
            for state, entry in entries:
                base = (entry & sizes) + rank
                rank += next_rank
                met = state & nearby
                if state & clash == 0 and (met or free):
                    nxt = state | pick
                    if nxt & need == need:
                        nxt = nxt & keep | own_in | (own_covered if met else 0)
                        new = base + unit | nxt
                        old = after.setdefault(nxt, new)
                        if new < old:
                            del after[nxt]
                            after[nxt] = new
                if state & need == need and (met or stays):
                    nxt = state & keep | (own_covered if met else 0)
                    new = base + out | nxt
                    old = after.setdefault(nxt, new)
                    if new < old:
                        del after[nxt]
                        after[nxt] = new
            won = list(after.values())
            entries = after.items()
            first = won[0]
            packed = array("q", won).tobytes()
            nxt_layer = memo[key] = layers.setdefault(packed, len(held))
            fresh = nxt_layer == len(held)
            if fresh:
                held.append(packed)
        trail.append(nxt_layer)
        layer = nxt_layer
    views = [memoryview(packed).cast("q") for packed in held]
    size = members = rank = 0
    for v in range(len(trail) - 1, -1, -1):
        entries = views[trail[v]]
        size += entries[0] >> field
        rank = entries[rank] >> keyed & back
        if not rank & 1:
            members |= 1 << v
        rank >>= 1
    return size, members


def _solve_min_cover(
    graph: Graph, deadline: _Deadline, independent: bool, covers_self: bool
) -> tuple[int, int, str]:
    """Return ``(size, bits, method)`` of the lexicographically least minimum cover.

    A chosen vertex covers its neighbours, rejects them when
    ``independent``, and covers itself when ``covers_self``.  Graphs of at
    least ``_DP_MIN_ORDER`` vertices whose frontier width in natural order
    is at most ``_DP_MAX_WIDTH`` take the frontier DP; every other graph
    takes the branch-and-bound, which is as fast below 24 vertices and
    faster above width 6, where the DP's states multiply (the measured
    crossover is in the comment on ``_DP_MIN_ORDER``).
    """
    adj = graph.adj
    if graph.n >= _DP_MIN_ORDER:
        last = _last_neighbours(adj)
        width = _frontier_width(last)
        if width <= _DP_MAX_WIDTH:
            plan = _frontier_plan(adj, last)
            size, bits = _frontier_min_cover(deadline, plan, width, independent, covers_self)
            return size, bits, "frontier-dp"
    coverage = tuple(row | (1 << v) for v, row in enumerate(adj)) if covers_self else adj
    conflict = adj if independent else (0,) * graph.n
    feasible = _greedy_maximal_independent(adj, graph.n) if independent else graph.full_bits
    denom = max((row.bit_count() for row in coverage), default=1)
    best = feasible.bit_count() + 1

    def cut(k: int, uncovered: int, rejected: int) -> bool:
        return k + (uncovered.bit_count() + denom - 1) // denom >= best

    witness = 0
    for witness in _cover_leaves(graph.full_bits, deadline, coverage, coverage, conflict, cut):
        best = witness.bit_count()
    return best, witness, "branch-and-bound"


def independent_domination_number(
    graph: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> InvariantResult:
    """Exact minimum size of a maximal independent set, with witness."""
    _require_cap(graph, limits, "exact independent domination")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    value, bits, method = _solve_min_cover(graph, deadline, True, True)
    return InvariantResult("i", value, VertexSet(graph.n, bits), method, perf_counter() - started)


def domination_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact minimum size of a dominating set, with witness."""
    _require_cap(graph, limits, "exact domination")
    started = perf_counter()
    deadline = _Deadline(limits.budget_secs)
    value, bits, method = _solve_min_cover(graph, deadline, False, True)
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
    value, bits, method = _solve_min_cover(graph, deadline, False, False)
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

    Runs the cover kernel on the ``i`` rows, whose leaves are the maximal
    independent sets, under a cut that mirrors the minimum covers': a node
    goes when its members plus a greedy clique cover of its undecided
    vertices reach no more than ``best``, which starts at -1.
    """
    adj = graph.adj
    closed = tuple(row | (1 << v) for v, row in enumerate(adj))
    best = -1

    def cut(k: int, uncovered: int, rejected: int) -> bool:
        # on these rows the undecided vertices are the uncovered ones not rejected
        return k + _clique_cover_bound(adj, uncovered & ~rejected) <= best

    witness = 0
    for witness in _cover_leaves(graph.full_bits, deadline, closed, closed, adj, cut):
        best = witness.bit_count()
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
    # every leaf is a maximal independent set, so nothing is cut
    leaves = _cover_leaves(
        graph.full_bits, deadline, closed, closed, graph.adj, lambda k, uncovered, rejected: False
    )
    for bits in leaves:
        yield VertexSet(n, bits)
