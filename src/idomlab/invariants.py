"""Exact computation of domination-type invariants with verifiable witnesses.

All solvers are exact searches on bitset adjacency rows, meant for
desk-scale graphs (the default cap is 40 vertices).  One branch-and-bound,
the cover search, serves all five invariants and the enumeration of maximal
independent sets: its leaves are the sets that cover every vertex, and
``alpha`` and ``rho`` search its maximal independent sets, of the graph and
of its square, under a clique-cover bound.  Only ``i``, ``gamma`` and
``gamma_t`` on graphs of at least 24 vertices and frontier width at most 6
(paths, cycles, ``P_m x K_n`` for n <= 4) take a dynamic program over the
vertex order instead.  It runs on one layer engine with the labelling route's
DP (``labelling._frontier_min_weight``): the engine copies the runs of layers
of states that repeat, over a plan of the vertex order that copies the runs
of a path, both in blocks that double while the repeat lasts, so that where
layers recur, as on those families, a DP's cost follows their period, not
the order.
Every result carries a witness set that re-verifies under the matching
predicate, and the reported witness is always the lexicographically
smallest optimum, so results do not depend on traversal or worker
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional

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
#      n + 1, above every size, and for a maximum at -1, below every size.
# Every leaf that improves ``best`` is recorded; the first optimum reached is
# the least one, and no later leaf improves on it.


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
# The frontier plan, and the frontier DPs: one vertex at a time
# ---------------------------------------------------------------------------
#
# Both frontier DPs, this module's cover DP and labelling._frontier_min_weight,
# read one frontier plan and run on one layer engine.  Vertices are decided in
# index order.  The frontier is the set of decided vertices that still have an
# undecided neighbour; a vertex leaves it once its last neighbour is decided.
# Each frontier vertex holds a slot below the frontier width, and a DP state
# keeps a fixed-width field per slot, so the work per vertex follows the
# width, not the order.  A vertex
# takes the slot of a neighbour that leaves as it is decided, if there is one,
# or else the lowest free slot, so long runs of vertices see the same slots; a
# vertex with no later neighbour takes none.  ``_frontier_steps`` builds the
# whole plan in one pass per solve, copying the runs of steps that repeat, and
# neither DP assigns a slot itself.  On a path or a cycle nearly every step is
# the same, and equal steps are one tuple.
#
# The layer engine, ``_frontier_layers``, walks the plan for a DP whose state
# is fixed-width fields over the frontier slots.  A layer is the states after
# one vertex, and each keeps the best prefix reaching it: prefixes reaching
# one state have the same completions, so keeping one per state is exact.  A
# prefix makes one choice per vertex, a digit, and of two prefixes the better
# costs less or, at equal cost, has the lesser digits read from vertex 0.  A
# state's best prefix then extends to the best completion through it, and the
# least entry of the last layer is the least optimum.  In the cover DP the
# digit is 0 for "in" and 1 for "out", and among sets of one size the lesser
# digits are those of the set whose sorted members come first, the optimum
# the branch-and-bound reaches first.  In the labelling DP the digit is the
# tag, in the order 0 < classes < [n] that labelling._search_min_weight tries
# them in, so the two routes return the same labelling.
#
# A layer keeps for each state its best prefix's cost and its rank among the
# layer's best prefixes in digit order.  The prefixes of one layer are equally
# long, so a candidate from the source of rank ``r`` taking digit ``d``
# compares by ``(cost, r, d)``, as the whole prefixes compare.  A DP's step
# visits the sources in rank order and each source's digits in increasing
# order, so candidates arrive in ``(r, d)`` order and a state's winner only
# changes to a strictly smaller cost; a state whose winner changes moves to the
# end of the layer, so the layer's order is its winners' ``(r, d)`` order,
# which is the next rank order.
#
# A candidate is one int, ``cost << field | r << digit_bits | d``, where each
# DP bounds its layers' sizes so that the back-pointer ``r << digit_bits | d``
# fits below ``field``, and a layer is held as the tuples of its states and of
# their winners' ints, in rank order.  Costs count from the source layer's
# first entry, so the first entries' costs add up to the cost of the last
# layer's first entry, and one backtrack reads the digits from the
# back-pointers, from the last layer's least entry down.  Equal tuples get one
# layer id, and the next layer depends only on a layer's tuples and the plan
# step.  Layers that differ only in their back-pointers or in the offset of
# their costs get two ids but have equal successors, so a repeat is found one
# vertex later.  Memory: a vertex stores one layer id, and a new layer two
# ints per state.
#
# Once the layer before ``v`` is the layer before an earlier ``v'`` and the
# ``p = v - v'`` steps from ``v`` are those from ``v'``, the next ``p``
# layers are those after ``v'``: the engine copies them as one block of layer
# ids, and goes on copying while the steps keep repeating, in the blocks of
# ``_blocks``, which the plan pass copies its runs in too.  Every vertex not
# copied is worked out, by one call to the DP's step.  On a path or a cycle
# every vertex between the first few and the last few is copied, and on
# ``P_m x K_n`` and ``C_m x K_n`` all but the first few periods.  The
# backtrack does the same in reverse: within a copied stretch, once the rank
# at a block boundary recurs, the blocks below repeat the digits and costs of
# the blocks between, and are filled in at once.

# Route to the DP from this order and at most this natural-order width.
# Both routes timed on every cover solve of one pass of the paper's
# reproduce targets and verify and one of the kn-route benchmark: from 24
# vertices the DP took width 4 from 37 to 13 ms (27 solves) and width 6 from
# 35 to 5.4 ms (12), but width 7 from 21 to 29 ms (17); from 12 to 23
# vertices it was slower at widths 4 to 7 (width 6: 7.0 -> 10.8 ms, 74
# solves).
_DP_MIN_ORDER = 24
_DP_MAX_WIDTH = 6

# The longest period the layer engine looks for repeated blocks at, so that a
# repeat that does not pay off costs at most this many step comparisons.
# Measured periods of i and gamma: 3 vertices on paths and cycles, 12 rows of
# the product on P_m x K_n and C_m x K_n, so 48 vertices at n = 4.  The plan
# pass looks for the run of a path once every this many vertices, and starts
# none with fewer than this many left; it reads the clock at every 1024th
# vertex within those looks, so this must be a power of two no larger than
# 1024.
_REPEAT_MAX_PERIOD = 64


def _blocks(
    v: int, end: int, p: int, fits: Callable[[int, int], bool]
) -> Iterator[tuple[int, int]]:
    """Yield ``(at, block)`` for each block to copy of a repeat of period ``p`` found at ``v``.

    The stretch from ``v - p`` to ``v`` is known to repeat.  Blocks start
    ``p`` long and follow one another from ``v``, up to ``end``.  While
    ``fits(at, block)`` holds, each block is as long as the stretch behind
    it, so the blocks double; once it fails, they halve, in whole periods,
    until none is left.  The caller reads its clock and copies each block
    before asking for the next.
    """
    origin = v - p
    block = p
    grow = True
    while block:
        if v + block <= end and fits(v, block):
            yield v, block
            v += block
            if grow:
                block = v - origin
        else:
            grow = False
            block = block // (2 * p) * p


# The plan copies the runs of a path, as the layer engine copies layers.  A
# vertex ``w`` whose one later neighbour is ``w + 1``, and whose only
# frontier neighbour is ``w - 1``, which leaves at ``w``, takes the slot of
# ``w - 1`` and hands it on to ``w + 1``: its step is that slot's bit as
# ``near`` and as ``leaving``, and the slot as ``own``, and the slots taken
# stay as they were.  The pass looks for a vertex ``v`` where ``v - 1`` made
# such a step and handed its slot to ``v``, and ``v`` sees nothing else;
# then ``v`` and each later vertex whose one later neighbour is the next and
# that no earlier frontier vertex (an old holder) neighbours make that step
# too.  The old holders have registered their near entries for every later
# vertex, and one that leaves at a vertex neighbours it, so a run goes on
# while the entries at its vertices are empty: a far neighbour, like a
# cycle's closing edge to vertex 0, only keeps its holder's slot, and the run
# stops just before it.  The pass tests the run block by block, in the
# blocks of ``_blocks`` at period 1, with a clock read per block, and
# copies the tuple of ``v - 1`` itself, so equal steps stay one object,
# which the DP's repeat test reads.  After a run its last vertex holds the
# slot and leaves at the next vertex, where it is registered last, after the
# old holders, so the lowest-index leaving holder stays first.
#
# The pass looks for a run only at every ``_REPEAT_MAX_PERIOD``-th vertex, in
# the test that reads the clock, so a vertex worked out costs what it did
# before copies.  An attempt that copies fewer vertices than were worked out
# since the one before doubles the distance to the next, so where short runs
# are everywhere and few last, as on sparse random graphs, the pass makes a
# handful of attempts in all.


def _frontier_steps(
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
    width passes ``cap``, and then returns ``(cap + 1, None)``.

    Vertices are worked out one by one, but where a look every
    ``_REPEAT_MAX_PERIOD`` vertices finds the run of a path, one step repeats
    along it, and the pass copies that step in the blocks of ``_blocks``,
    as the layer engine copies layers.  It reads the budget every 1024 vertices
    and before each copied block.
    """
    n = len(rows)
    near_at = [0] * n  # slot bits of the frontier neighbours of v
    leave_at = [0] * n  # those of the frontier vertices whose last neighbour is v
    first_at = [0] * n  # the slot of the lowest-index of the latter
    interned: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    steps = []
    taken = width = 0  # a bit for each slot held by a frontier vertex
    room = n - _REPEAT_MAX_PERIOD
    look = _REPEAT_MAX_PERIOD - 1  # a run may start where v & look is 0,
    retry = gap = _REPEAT_MAX_PERIOD  # from vertex retry on, gap after the last attempt

    def in_run(at: int, block: int) -> bool:
        # each vertex of the block has one later neighbour, the next, and no old holder
        end = at + block
        lasts = list(map(int.bit_length, rows[at:end]))
        return lasts == list(range(at + 2, end + 2)) and not any(near_at[at:end])

    it = enumerate(rows)
    for v, row in it:
        if not v & look:
            if not v & 1023:
                deadline.tick()
            if (
                retry <= v < room
                and rows[v - 1].bit_length() == v + 1
                and row.bit_length() == v + 2
                and near_at[v] == steps[v - 1][0] == steps[v - 1][1]
            ):  # v - 1 and v have one later neighbour, the next, and v sees only v - 1
                step = steps[v - 1]  # and the step of v
                leaving, own = step[1], step[2]
                start = v
                steps.append(step)
                v += 1
                for at, block in _blocks(v, n, 1, in_run):
                    deadline.tick()
                    steps += [step] * block
                    v = at + block
                copied = v - start
                if copied < start - retry + gap:  # fewer than were worked out since the last attempt
                    gap *= 2
                retry = v + gap
                next(islice(it, copied - 1, copied - 1), None)  # skip the copied vertices
                if not leave_at[v]:  # the run's last vertex neighbours v, and leaves there
                    first_at[v] = own
                leave_at[v] |= leaving
                near_at[v] |= leaving
                continue
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


def _frontier_layers(
    deadline: _Deadline,
    steps: list[tuple[int, int, int]],
    rank_bits: int,
    digit_bits: int,
    step_layer: Callable[[tuple[int, int, int], Iterable[tuple[int, int]], int], dict[int, int]],
) -> tuple[int, int]:
    """Return ``(cost, digits)`` of the least entry of a frontier DP's last layer.

    A layer holds at most ``2 ** rank_bits`` states, and a choice is a
    digit below ``2 ** digit_bits``; an entry is ``cost << field | rank <<
    digit_bits | digit``, with ``field = rank_bits + digit_bits``.  The DP
    starts from the one state 0 at cost 0.  ``step_layer(step, sources,
    rank)`` works out the layer after one vertex.  ``sources`` yields
    ``(state, entry)`` for each state of the layer before it, in rank order,
    and the base of the ``k``-th is ``(entry & -1 << field) + rank + (k <<
    digit_bits)``: its cost, counted from the first source's, and its rank.
    For each successor of each source, in increasing digit order, the step
    puts the base plus ``added cost << field | digit`` into the dict it
    returns, keyed by the successor, unless a lesser entry is there; a state
    whose entry falls moves to the end.  ``digits`` holds the least
    optimum's digit for vertex ``v`` at bit ``v * digit_bits``.
    """
    field = rank_bits + digit_bits  # above a back-pointer
    sizes = -1 << field
    next_rank = 1 << digit_bits
    held = [((0,), (0,))]  # each layer id's states and entries, from the empty state's
    layers = {held[0]: 0}  # a layer's states and entries -> its id
    trail: list[int] = []  # the layer id after each vertex
    before: dict[int, int] = {}  # layer id -> the last vertex found with it as the layer before
    stretches = []  # (lo, hi, p): trail[x] == trail[x - p] for lo <= x < hi
    m = len(steps)
    v = layer = 0
    after = {0: 0}  # the current layer: each state's entry, in rank order

    def repeats(at: int, block: int) -> bool:
        return steps[at : at + block] == steps[at - block : at]

    while v < m:
        deadline.tick()
        step = steps[v]
        seen = before.get(layer)
        before[layer] = v
        if seen is not None and steps[seen] is step and v - seen <= _REPEAT_MAX_PERIOD:
            lo, p = v, v - seen  # the stretch from seen to v repeats, and so does each block copied
            for at, block in _blocks(v, m, p, repeats):
                deadline.tick()
                trail += trail[at - block : at]
                v = at + block
            if v > lo:
                stretches.append((lo, v, p))
                layer = trail[-1]
                if v == m:
                    break
                before[layer] = v
                step = steps[v]
                after = dict(zip(*held[layer]))
        after = step_layer(step, after.items(), -(held[layer][1][0] & sizes))
        packed = tuple(after), tuple(after.values())
        layer = layers.setdefault(packed, len(held))
        if layer == len(held):
            held.append(packed)
        trail.append(layer)
        v += 1

    won = held[layer][1]
    least = min(won)
    rank = won.index(least)
    size = (least & sizes) - (won[0] & sizes)  # the walk adds the first entries' costs
    digits = 0

    def walk(top: int, stop: int) -> None:
        """Backtrack the vertices from ``top - 1`` down to ``stop``."""
        nonlocal size, digits, rank
        for x in range(top - 1, stop - 1, -1):
            won = held[trail[x]][1]
            size += won[0] & sizes
            back = won[rank]
            digits |= (back & next_rank - 1) << x * digit_bits
            rank = (back & ~sizes) >> digit_bits

    v = m
    for lo, hi, p in reversed(stretches):
        walk(v, hi)
        v = min(v, hi)  # the stretch below may have been walked into already
        marks = {}  # the rank at each block boundary from hi down -> (boundary, size)
        while v >= lo:  # blocks down to lo - p, where the trail's period starts
            if rank in marks:
                top, top_size = marks[rank]
                q = top - v
                k = (v - lo + p) // q
                block = q * digit_bits
                pattern = digits >> v * digit_bits & ((1 << block) - 1)
                digits |= pattern * (((1 << k * block) - 1) // ((1 << block) - 1)) << (v - k * q) * digit_bits
                size += k * (size - top_size)
                v -= k * q
                break
            marks[rank] = v, size
            walk(v, v - p)
            v -= p
    walk(v, 0)
    return size >> field, digits


def _frontier_min_cover(
    deadline: _Deadline,
    steps: list[tuple[int, int, int]],
    width: int,
    independent: bool,
    covers_self: bool,
) -> tuple[int, int]:
    """Return ``(size, bits)`` of the lexicographically least minimum cover.

    ``(width, steps)`` is the ``_frontier_steps`` of a graph's adjacency
    rows, and the graph must admit a cover.  A chosen vertex covers its
    neighbours, rejects them when ``independent`` (``i``), and covers itself
    when ``covers_self`` (``i`` and ``gamma``).  A state is the (chosen,
    covered) pair of the frontier, as bits over its slots, and a vertex must
    be covered by the time it leaves; the digit is 0 for "in", 1 for "out".
    """
    unit = 1 << (2 * width + 1)  # one member, at the engine's cost field; digit 0, v picked
    sizes = -unit

    def step_layer(step: tuple[int, int, int], sources: Iterable[tuple[int, int]], rank: int) -> dict[int, int]:
        nearby, done, own = step
        clash = nearby if independent else 0
        need = done << width
        keep = ~(done | need)
        pick = nearby << width
        stays = own >= 0  # else v leaves at once and must be covered now
        free = covers_self or stays
        own_covered = (1 << own if stays else 0) << width
        own_in = own_covered >> width | (own_covered if covers_self else 0)  # v picked
        after: dict[int, int] = {}  # state -> its winner, in rank order
        for state, entry in sources:
            base = (entry & sizes) + rank
            rank += 2  # the next source's rank, above the one digit bit
            met = state & nearby
            if state & clash == 0 and (met or free):
                nxt = state | pick
                if nxt & need == need:
                    nxt = nxt & keep | own_in | (own_covered if met else 0)
                    new = base + unit
                    old = after.setdefault(nxt, new)
                    if new < old:
                        del after[nxt]
                        after[nxt] = new
            if state & need == need and (met or stays):
                nxt = state & keep | (own_covered if met else 0)
                new = base + 1  # digit 1, v left out
                old = after.setdefault(nxt, new)
                if new < old:
                    del after[nxt]
                    after[nxt] = new
        return after

    # a state is chosen | covered << width, so a layer holds at most 4 ** width
    size, outs = _frontier_layers(deadline, steps, 2 * width, 1, step_layer)
    return size, outs ^ (1 << len(steps)) - 1


def _solve_min_cover(
    graph: Graph, deadline: _Deadline, independent: bool, covers_self: bool
) -> tuple[int, int, str]:
    """Return ``(size, bits, method)`` of the lexicographically least minimum cover.

    A chosen vertex covers its neighbours, rejects them when
    ``independent``, and covers itself when ``covers_self``.  Graphs of at
    least ``_DP_MIN_ORDER`` vertices whose frontier width in natural order is
    at most ``_DP_MAX_WIDTH`` take the frontier DP over the plan that
    ``_frontier_steps`` builds, a pass that stops as soon as the width passes
    that cap; every other graph takes the branch-and-bound, which is as fast
    below 24 vertices and faster above width 6, where the DP's states
    multiply (the measured crossover is in the comment on ``_DP_MIN_ORDER``).
    The branch-and-bound starts at ``best = n + 1`` with no feasible set in
    hand: for ``i`` its first leaf is the greedy maximal independent set in
    index order, so a greedy start would cut nothing more.
    """
    adj = graph.adj
    if graph.n >= _DP_MIN_ORDER:
        width, steps = _frontier_steps(adj, _DP_MAX_WIDTH, deadline)
        if steps is not None:
            size, bits = _frontier_min_cover(deadline, steps, width, independent, covers_self)
            return size, bits, "frontier-dp"
    coverage = tuple(row | (1 << v) for v, row in enumerate(adj)) if covers_self else adj
    conflict = adj if independent else (0,) * graph.n
    denom = max((row.bit_count() for row in coverage), default=1)
    best = graph.n + 1

    def cut(k: int, uncovered: int, rejected: int) -> bool:
        return k + (uncovered.bit_count() + denom - 1) // denom >= best

    witness = 0
    for witness in _cover_leaves(graph.full_bits, deadline, coverage, coverage, conflict, cut):
        best = witness.bit_count()
    return best, witness, "branch-and-bound"


def _exact(
    name: str,
    what: str,
    graph: Graph,
    limits: SolverLimits,
    solve: Callable[[_Deadline], tuple[int, int, str]],
) -> InvariantResult:
    """Check ``graph`` against the cap, then run ``solve`` under the budget, timed.

    ``solve`` takes the solve's ``_Deadline`` and returns ``(value, bits, method)``.
    """
    _require_cap(graph, limits, what)
    started = perf_counter()
    value, bits, method = solve(_Deadline(limits.budget_secs))
    return InvariantResult(name, value, VertexSet(graph.n, bits), method, perf_counter() - started)


def independent_domination_number(
    graph: Graph, limits: SolverLimits = DEFAULT_LIMITS
) -> InvariantResult:
    """Exact minimum size of a maximal independent set, with witness."""
    solve = partial(_solve_min_cover, graph, independent=True, covers_self=True)
    return _exact("i", "exact independent domination", graph, limits, solve)


def domination_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact minimum size of a dominating set, with witness."""
    solve = partial(_solve_min_cover, graph, independent=False, covers_self=True)
    return _exact("gamma", "exact domination", graph, limits, solve)


def total_domination_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact minimum size of a total dominating set, with witness.

    Undefined (raises :class:`UndefinedInvariant`) when the graph has an
    isolated vertex, since such a vertex can never acquire a neighbour.
    """

    def solve(deadline: _Deadline) -> tuple[int, int, str]:
        if graph.n == 0 or any(row == 0 for row in graph.adj):
            raise UndefinedInvariant("total domination is undefined with isolated vertices")
        return _solve_min_cover(graph, deadline, independent=False, covers_self=False)

    return _exact("gamma_t", "exact total domination", graph, limits, solve)


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


def _solve_max_independent(graph: Graph, deadline: _Deadline) -> tuple[int, int, str]:
    """Return ``(alpha(G), bits, method)`` with the lexicographically least witness.

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
    return best, witness, "branch-and-bound"


def independence_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact maximum size of an independent set, with witness."""
    solve = partial(_solve_max_independent, graph)
    return _exact("alpha", "exact independence number", graph, limits, solve)


def two_packing_number(graph: Graph, limits: SolverLimits = DEFAULT_LIMITS) -> InvariantResult:
    """Exact maximum size of a set with pairwise distances at least 3.

    Computed as a maximum independent set of the square graph.
    """

    def solve(deadline: _Deadline) -> tuple[int, int, str]:
        value, bits, method = _solve_max_independent(square_graph(graph), deadline)
        return value, bits, "square+" + method

    return _exact("rho", "exact 2-packing", graph, limits, solve)


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
