"""Independent brute-force oracles the solver tests are checked against.

Everything here enumerates subsets or assignments directly and never calls
the branch-and-bound code paths it is used to check, except the score-carrying
frontier DP, which reads the solver's frontier plan (checked on its own by
``TestFrontierPlan``), and the reference maximum independent set search,
which reads the solver's clique-cover bound (checked on its own by
``test_clique_cover_bound_is_the_plain_greedy_cover``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product as iproduct
from typing import Iterator

from idomlab.graph import Graph, VertexSet
from idomlab.invariants import _Deadline, _clique_cover_bound


def subsets(n: int):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def is_independent_subset(graph: Graph, members: tuple[int, ...]) -> bool:
    member_set = set(members)
    return all(
        not graph.has_edge(u, v) for u, v in combinations(members, 2)
    ) and member_set <= set(range(graph.n))


def is_dominating_subset(graph: Graph, members: tuple[int, ...]) -> bool:
    covered = set(members)
    for v in members:
        covered.update(graph.neighbors(v))
    return len(covered) == graph.n


def is_maximal_independent_subset(graph: Graph, members: tuple[int, ...]) -> bool:
    return is_independent_subset(graph, members) and is_dominating_subset(graph, members)


def is_total_dominating_subset(graph: Graph, members: tuple[int, ...]) -> bool:
    covered = set()
    for v in members:
        covered.update(graph.neighbors(v))
    return len(covered) == graph.n


def is_two_packing_subset(graph: Graph, members: tuple[int, ...]) -> bool:
    from idomlab.graph import distance

    return all(distance(graph, u, v) >= 3 for u, v in combinations(members, 2))


SUBSET_PREDICATES = {
    "i": is_maximal_independent_subset,
    "alpha": is_independent_subset,
    "gamma": is_dominating_subset,
    "gamma_t": is_total_dominating_subset,
    "rho": is_two_packing_subset,
}


def brute_least_optimum(graph: Graph, name: str) -> tuple[int, ...] | None:
    """The lexicographically least optimum set for an invariant, or ``None``.

    ``combinations`` yields each size in lexicographic order, so the first
    feasible set of the optimal size is the least one.
    """
    sizes = range(graph.n, -1, -1) if name in ("alpha", "rho") else range(graph.n + 1)
    predicate = SUBSET_PREDICATES[name]
    for size in sizes:
        for s in combinations(range(graph.n), size):
            if predicate(graph, s):
                return s
    return None


def brute_alpha(graph: Graph) -> int:
    return max(
        len(s) for s in subsets(graph.n) if is_independent_subset(graph, s)
    )


def brute_i(graph: Graph) -> int:
    for size in range(graph.n + 1):
        for s in combinations(range(graph.n), size):
            if is_maximal_independent_subset(graph, s):
                return size
    raise AssertionError("every graph has a maximal independent set")


def brute_maximal_independent_sets(graph: Graph) -> set[tuple[int, ...]]:
    return {
        s for s in subsets(graph.n) if is_maximal_independent_subset(graph, s)
    }


def brute_gamma(graph: Graph) -> int:
    for size in range(graph.n + 1):
        for s in combinations(range(graph.n), size):
            if is_dominating_subset(graph, s):
                return size
    raise AssertionError("the full vertex set always dominates")


def brute_gamma_t(graph: Graph) -> int | None:
    for size in range(graph.n + 1):
        for s in combinations(range(graph.n), size):
            if is_total_dominating_subset(graph, s):
                return size
    return None


def brute_rho(graph: Graph) -> int:
    best = 0
    for s in subsets(graph.n):
        if is_two_packing_subset(graph, s):
            best = max(best, len(s))
    return best


def brute_direct_product_neighbours(left: Graph, right: Graph) -> list[set[int]]:
    """Neighbour sets of the direct product ``left x right``, by its definition.

    ``(g, h) ~ (g2, h2)`` exactly when ``g ~ g2`` and ``h ~ h2``; the pair
    ``(g, h)`` is vertex ``g * n(right) + h``.  Every pair of pairs is tested.
    """
    pairs = [(g, h) for g in range(left.n) for h in range(right.n)]
    return [
        {
            g2 * right.n + h2
            for g2, h2 in pairs
            if left.has_edge(g, g2) and right.has_edge(h, h2)
        }
        for g, h in pairs
    ]


def brute_two_coloring(graph: Graph) -> bool:
    """Whether any red/blue assignment avoids monochromatic edges."""
    for colours in iproduct((0, 1), repeat=graph.n):
        if all(colours[u] != colours[v] for u, v in graph.edges()):
            return True
    return graph.n == 0


def brute_claw_free(graph: Graph) -> bool:
    for quad in combinations(range(graph.n), 4):
        for centre in quad:
            leaves = [v for v in quad if v != centre]
            if all(graph.has_edge(centre, leaf) for leaf in leaves) and all(
                not graph.has_edge(a, b) for a, b in combinations(leaves, 2)
            ):
                return False
    return True


def brute_min_weight_labelling(graph: Graph, n: int) -> int:
    """Minimum weight over all legal labellings, by full enumeration."""
    from idomlab.labelling import Labelling, check_legal, weight

    best = None
    tags = range(n + 2)  # 0, classes 1..n, and the layer-filling tag n+1
    for assignment in iproduct(tags, repeat=graph.n):
        labelling = Labelling(n, assignment)
        if not check_legal(graph, labelling).legal:
            continue
        w = weight(labelling)
        if best is None or w < best:
            best = w
    assert best is not None, "the all-ones labelling is always legal on isolate-free graphs"
    return best


def _first_occurrence(tags: tuple[int, ...], n: int) -> bool:
    """Whether classes ``1..n`` first appear in increasing order."""
    used = 0
    for tag in tags:
        if 1 <= tag <= n:
            if tag > used + 1:
                return False
            used = max(used, tag)
    return True


@lru_cache(maxsize=None)
def _labellings_by_weight(m: int, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    from idomlab.labelling import Labelling, weight

    return tuple(
        sorted(
            (weight(Labelling(n, tags)), tags)
            for tags in iproduct(range(n + 2), repeat=m)
            if _first_occurrence(tags, n)
        )
    )


def brute_least_labelling(graph: Graph, n: int) -> tuple[int, tuple[int, ...]]:
    """The least ``(weight, tags)`` over legal first-occurrence labellings."""
    from idomlab.labelling import Labelling, check_legal

    for w, tags in _labellings_by_weight(graph.n, n):
        if check_legal(graph, Labelling(n, tags)).legal:
            return w, tags
    raise AssertionError("with the [n] label allowed, every graph has a legal labelling")


def vertex_set(graph: Graph, members: tuple[int, ...]) -> VertexSet:
    return VertexSet.from_vertices(graph.n, members)


def bfs_all_pairs(graph: Graph) -> list[list[float]]:
    """Plain queue-based all-pairs BFS over adjacency lists (no bitsets)."""
    from collections import deque

    table: list[list[float]] = []
    for source in range(graph.n):
        dist = [float("inf")] * graph.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if dist[v] == float("inf"):
                    dist[v] = dist[u] + 1
                    queue.append(v)
        table.append(dist)
    return table


def paired_plan(plan: Iterator[tuple]) -> Iterator[tuple]:
    """The steps of a ``_frontier_plan`` with each near slot paired with its vertex."""
    holder: dict[int, int] = {}  # slot -> the frontier vertex in it
    for v, (near, leaving, own) in enumerate(plan):
        yield tuple((holder[s], s) for s in near), leaving, own
        if own >= 0:
            holder[own] = v


# A frontier DP whose every state carries its best prefix's whole witness in
# its score, ``size << n`` plus an out-bit per decided vertex, so it needs no
# ranks, no memo and no backtrack.  It is the exact witness reference on
# graphs far above the branch-and-bound's reach.  It takes the cover kernel's
# rows and the ``paired_plan`` of the graph's frontier plan.


def scored_frontier_min_cover(
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


# The maximum independent set search as it stood before alpha and rho moved
# onto the cover kernel: a branch-and-bound of its own over candidate sets,
# with the clique-cover bound.  It is the witness reference for alpha, and
# for rho on the square graph.


def reference_max_independent(graph: Graph, deadline: _Deadline) -> tuple[int, int]:
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
