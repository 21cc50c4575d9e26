"""Independent brute-force oracles the solver tests are checked against.

Everything here enumerates subsets or assignments directly and never calls
the branch-and-bound code paths it is used to check, except the reference
maximum independent set search, which reads the solver's clique-cover bound
(checked on its own by ``test_clique_cover_bound_is_the_plain_greedy_cover``),
and the reference labelling search, the solver's own branch-and-bound in an
earlier form, kept to compare node counts as well as results.  The frontier
references are the solver's earlier forms too: the two-pass frontier shape
(``reference_last_neighbours`` and ``reference_frontier_width``), the
frontier plan generator (``reference_frontier_plan``), which the solver's
one-pass ``_frontier_steps`` replaced, that one-pass plan as it stood before
it learned to copy repeated blocks (``reference_frontier_steps``), and the
cover DP that works out or looks up every vertex
(``reference_frontier_min_cover``).  The score-carrying frontier DP reads
the reference plan.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations, product as iproduct
from typing import Iterator, Optional

from idomlab.graph import Graph, VertexSet, _bits_of
from idomlab.invariants import _Deadline, _clique_cover_bound
from idomlab.labelling import Labelling, special_tag, weight


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


def reference_last_neighbours(rows: tuple[int, ...]) -> list[int]:
    """For each vertex, the highest-index vertex its row reaches, or itself."""
    return [max(u, row.bit_length() - 1) for u, row in enumerate(rows)]


def reference_frontier_width(last: list[int]) -> int:
    """Most decided vertices that still have an undecided neighbour."""
    leaving = [0] * len(last)
    for end in last:
        leaving[end] += 1
    width = size = 0
    for gone in leaving:
        size += 1 - gone
        width = max(width, size)
    return width


# The frontier plan and the memoized cover DP as they stood before the plan
# was built in one pass with slot bitmasks and the DP learned to copy
# repeated blocks: the plan is a generator of ``(near, leaving, own)`` steps
# with slot tuples, and the DP works out or looks up every vertex and
# backtracks one vertex at a time.  They are the exact references for
# ``_frontier_steps`` and ``_frontier_min_cover``.


def reference_frontier_plan(rows: tuple[int, ...], last: list[int]) -> Iterator[tuple]:
    """Yield the frontier's slots, one step per vertex in index order.

    ``rows`` are symmetric adjacency rows and ``last`` is their
    ``reference_last_neighbours``, with ``width`` their
    ``reference_frontier_width``.  Step ``v`` is
    ``(near, leaving, own)``: ``near`` holds the slots of the frontier
    neighbours of ``v``, ``leaving`` the slots of the frontier vertices
    whose last neighbour is ``v``, both in index order of their vertices,
    and ``own`` is the slot ``v`` takes, or -1 when no later vertex
    neighbours it.  Every slot is below ``width``.
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


def reference_frontier_min_cover(
    deadline: _Deadline, plan: Iterator[tuple], width: int, independent: bool, covers_self: bool
) -> tuple[int, int]:
    """Return ``(size, bits)`` of the lexicographically least minimum cover.

    ``plan`` is the ``reference_frontier_plan`` of a graph's adjacency rows,
    whose slots are below ``width``, and the graph must admit a cover.  A chosen
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


# The one-pass plan before it copied repeated blocks: it works out every
# vertex.  It is the exact reference for ``_frontier_steps``, object for
# object.


def reference_frontier_steps(
    rows: tuple[int, ...], cap: int, deadline: _Deadline
) -> tuple[int, Optional[list[tuple[int, int, int]]]]:
    """Return ``(width, steps)``: the frontier plan of symmetric adjacency rows.

    ``width`` is the most decided vertices that still have an undecided
    neighbour, and ``steps`` holds one step per vertex in index order.  Step
    ``v`` is ``(near, leaving, own)``: ``near`` has the bit of the slot of
    each frontier neighbour of ``v``, ``leaving`` that of each frontier
    vertex whose last neighbour is ``v``, and ``own`` is the slot ``v``
    takes, or -1 when no later vertex neighbours it.  Every slot is below
    ``width``.  Equal steps are one tuple.  The pass stops as soon as the
    width passes ``cap``, and then returns ``(cap + 1, None)``.  It reads the
    budget every 1024 vertices.
    """
    n = len(rows)
    near_at = [0] * n  # slot bits of the frontier neighbours of v
    leave_at = [0] * n  # those of the frontier vertices whose last neighbour is v
    first_at = [0] * n  # the slot of the lowest-index of the latter
    interned: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    steps = []
    taken = width = 0  # a bit for each slot held by a frontier vertex
    for v, row in enumerate(rows):
        if not v & 1023:
            deadline.tick()
        leaving = leave_at[v]  # every leaving vertex is a neighbour of v
        taken ^= leaving
        own = -1
        later = row >> (v + 1)  # bit k for neighbour v + 1 + k
        if later:
            own = first_at[v] if leaving else (~taken & (taken + 1)).bit_length() - 1
            bit = 1 << own
            taken |= bit
            end = v + later.bit_length()
            if not leave_at[end]:
                first_at[end] = own
            leave_at[end] |= bit
            while later:
                low = later & -later
                later ^= low
                near_at[v + low.bit_length()] |= bit
            if taken.bit_count() > width:
                width += 1
                if width > cap:
                    return width, None
        step = (near_at[v], leaving, own)
        steps.append(interned.setdefault(step, step))
    return width, steps


def paired_plan(plan: Iterator[tuple]) -> Iterator[tuple]:
    """The steps of a ``reference_frontier_plan`` with each near slot paired with its vertex."""
    holder: dict[int, int] = {}  # slot -> the frontier vertex in it
    for v, (near, leaving, own) in enumerate(plan):
        yield tuple((holder[s], s) for s in near), leaving, own
        if own >= 0:
            holder[own] = v


# A frontier DP whose every state carries its best prefix's whole witness in
# its score, ``size << n`` plus an out-bit per decided vertex, so it needs no
# ranks, no memo and no backtrack.  It is the exact witness reference on
# graphs far above the branch-and-bound's reach.  It takes the cover kernel's
# rows and the ``paired_plan`` of the graph's reference frontier plan.


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
    cover, and the ``reference_frontier_plan`` of the rows' union, whose
    slots are below ``width``; for ``i``, ``gamma`` and ``gamma_t`` that
    union reaches exactly as far as the graph's adjacency rows, so the plan
    of those rows serves.
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


# The labelling branch-and-bound as it stood when conditions 2 and 4 had
# two checks: ``neighbourhood_ok`` once a vertex's closed neighbourhood is
# tagged, and the look-ahead ``stuck`` before that.  It is the reference for
# the search's labellings and node counts.


def reference_search_min_weight(
    deadline: _Deadline, adj: tuple[int, ...], n: int, allow_layer_label: bool, last: list[int]
) -> tuple[tuple[int, ...], int]:
    """Return ``(tags, weight)`` of the least canonical optimum, by branch-and-bound.

    ``last`` is ``reference_last_neighbours(adj)``.
    """
    m = len(adj)
    special = special_tag(n)
    below = tuple(adj[v] & ((1 << v) - 1) for v in range(m))
    # vertices whose closed neighbourhood completes when v receives its tag
    finished_at: list[list[int]] = [[] for _ in range(m)]
    ending = [0] * (m + 1)
    for u, end in enumerate(last):
        finished_at[end].append(u)
        ending[end] |= 1 << u
    # The look-ahead checks, once v is tagged, the vertices whose need or
    # whose helpers v's tag can change and whose closed neighbourhood stays
    # open past v + 1: ``quiet[v]`` after tag 0 (v and its tagged
    # neighbours), ``loud[v]`` after a nonzero tag (also the tagged
    # neighbours of v's untagged neighbours, whose options it narrows).
    quiet = [0] * m
    loud = [0] * m
    late = 0  # vertices up to v whose closed neighbourhood is open past v + 1
    for v in range(m):
        late = (late | 1 << v) & ~(ending[v] | ending[v + 1])
        if late:
            done = (2 << v) - 1
            near = (1 << v) | below[v]
            quiet[v] = near & late
            for w in _bits_of(adj[v] & ~done):
                near |= adj[w] & done
            loud[v] = near & late

    # start above a labelling that always exists: every non-isolated vertex
    # in class 1, isolated vertices labelled [n]
    start_tags = tuple(1 if adj[v] else special for v in range(m))
    best_weight = weight(Labelling(n, start_tags)) + 1
    best_tags: tuple[int, ...] = ()

    tags = [0] * m

    def neighbourhood_ok(u: int) -> bool:
        """Conditions 2 and 4 for ``u`` once its closed neighbourhood is labelled."""
        tag = tags[u]
        if 1 <= tag <= n:
            for w in _bits_of(adj[u]):
                if tags[w] == tag:
                    return True
            return False
        if tag == 0:
            first_class = 0
            for w in _bits_of(adj[u]):
                t = tags[w]
                if t == special:
                    return True
                if 1 <= t <= n and t != first_class:
                    if first_class:
                        return True
                    first_class = t
            return False
        return True

    def stuck(u: int, done: int, by_tag: list[int]) -> bool:
        """True when no tags of ``u``'s untagged neighbours can meet its condition 2 or 4.

        ``done`` holds the tagged vertices and ``by_tag[t]`` those tagged
        ``t``.  An untagged ``w`` can take only 0 beside an [n] or two
        classes, 0 or ``c`` beside one class ``c``, and any class (or [n], if
        allowed) beside no nonzero tag.
        """
        tag = tags[u]
        if tag == special:
            return False
        nonzero = done & ~by_tag[0]
        layered = by_tag[special]
        row = adj[u]
        later = row & ~done
        if tag:
            mine = by_tag[tag]
            if row & mine & done:
                return False
            barred = nonzero & ~mine  # beside these, w cannot take class tag
            for w in _bits_of(later):
                if not adj[w] & barred:
                    return False
            return True
        seen = row & nonzero
        if seen & layered:
            return False
        if seen:
            c = tags[(seen & -seen).bit_length() - 1]
            if seen & ~by_tag[c]:
                return False
            # w must take [n] or a class other than c
            for w in _bits_of(later):
                beside = adj[w] & nonzero
                if not beside:
                    return False
                if beside & layered:
                    continue
                d = tags[(beside & -beside).bit_length() - 1]
                if d != c and not beside & ~by_tag[d]:
                    return False
            return True
        # one w must take [n], or two must take a class
        free = 0
        for w in _bits_of(later):
            beside = adj[w] & nonzero
            if not beside:
                if allow_layer_label:
                    return False
            elif beside & layered or beside & ~by_tag[tags[(beside & -beside).bit_length() - 1]]:
                continue
            free += 1
            if free == 2:
                return False
        return True

    # An entry (v, tag, partial, used) gives vertex v its tag.  It reads only
    # tags of vertices up to v, which still hold those of the path that pushed
    # it, so the one ``tags`` list is shared and never reset.
    stack = [(-1, 0, 0, 0)]  # the root: no vertex tagged yet
    while stack:
        deadline.tick()
        v, tag, partial, used = stack.pop()
        if partial >= best_weight:
            continue
        if v >= 0:
            tags[v] = tag
            # closed neighbourhoods completed at v
            ok = True
            for u in finished_at[v]:
                if not neighbourhood_ok(u):
                    ok = False
                    break
            if not ok:
                continue
            check = loud[v] if tag else quiet[v]
            if check:
                by_tag = [0] * (special + 1)
                for u in range(v + 1):
                    by_tag[tags[u]] |= 1 << u
                done = (2 << v) - 1
                for u in _bits_of(check):
                    if stuck(u, done, by_tag):
                        ok = False
                        break
                if not ok:
                    continue
        v += 1
        if v == m:
            best_weight, best_tags = partial, tuple(tags)
            continue
        # monotone legality against already-labelled neighbours: ``seen`` is
        # their one nonzero tag, 0 if there is none, -1 if there are several
        seen = 0
        for w in _bits_of(below[v]):
            t = tags[w]
            if t and t != seen:
                if seen:
                    seen = -1
                    break
                seen = t
        # pushed in reverse, so tags come off in the order 0 < classes < [n]
        if allow_layer_label and seen == 0 and partial + n < best_weight:
            stack.append((v, special, partial + n, used))
        if partial + 1 < best_weight:
            for c in range(min(used + 1, n), 0, -1):
                if seen == 0 or seen == c:
                    stack.append((v, c, partial + 1, max(used, c)))
        stack.append((v, 0, partial, used))
    return best_tags, best_weight
