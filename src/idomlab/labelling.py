"""Weak-partition labellings encoding maximal independent sets of G x K_n.

A labelling assigns each vertex of ``G`` one of the symbols
``0, 1, ..., n, [n]`` (internally ``[n]`` is the tag ``n + 1``).  The classes
``V_0, V_1, ..., V_n, V_[n]`` form a weak partition of ``V(G)``, and the
legal ones are exactly those that construct a maximal independent set of
``G x K_n``:

1. a vertex in class ``k >= 1`` may only neighbour vertices of ``V_0`` or
   its own class;
2. no vertex of a class ``k >= 1`` is isolated inside that class;
3. the ``[n]``-labelled vertices form an independent set;
4. every ``V_0`` vertex has an ``[n]``-labelled neighbour or neighbours in
   at least two distinct classes.

The weight ``n * |V_[n]| + sum_k |V_k|`` of a legal labelling is the size of
the constructed set, and its minimum over legal labellings equals
``i(G x K_n)``; :func:`minimize_weight` computes that minimum exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .graph import Graph, VertexSet, _bits_of
from .invariants import (
    DEFAULT_LIMITS,
    SolverLimits,
    _Deadline,
    _frontier_layers,
    _frontier_steps,
    _require_cap,
)
from .products import ProductGraph

SPECIAL_TEXT = "[n]"


def special_tag(n: int) -> int:
    """Internal tag for the layer-filling label, rendered ``[n]``."""
    return n + 1


@dataclass(frozen=True)
class Labelling:
    """A weak partition of the vertices of some graph, as per-vertex tags.

    ``tags[v]`` is ``0``, a class ``1..n``, or ``n + 1`` for the label that
    puts the whole layer over ``v`` into the constructed set.
    """

    n: int
    tags: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("the complete factor must have order at least 2")
        for v, tag in enumerate(self.tags):
            if not 0 <= tag <= self.n + 1:
                raise ValueError(
                    f"malformed labelling: tag {tag} at vertex {v} exceeds the class range"
                )

    @property
    def size(self) -> int:
        return len(self.tags)

    def label_strings(self) -> tuple[str, ...]:
        special = special_tag(self.n)
        return tuple(SPECIAL_TEXT if t == special else str(t) for t in self.tags)

    @classmethod
    def from_strings(cls, n: int, labels: Sequence[str]) -> "Labelling":
        """Read the tokens :meth:`label_strings` prints: ``"0"`` to ``str(n)`` and ``"[n]"``."""
        if isinstance(labels, str):
            raise ValueError("labels must be a sequence of label strings, not one string")
        tags = []
        for text in labels:
            if not isinstance(text, str):
                raise ValueError(f"label {text!r} is not a string")
            if text == SPECIAL_TEXT:
                tags.append(special_tag(n))
                continue
            # int() alone would also read "+1", " 1", "01" and non-ASCII digits
            short = text.isascii() and text.isdigit() and len(text) <= len(str(n))
            tag = int(text) if short else -1
            if not (0 <= tag <= n and str(tag) == text):
                raise ValueError(f"unknown label token {text!r}")
            tags.append(tag)
        return cls(n, tuple(tags))

    def class_members(self, tag: int) -> tuple[int, ...]:
        return tuple(v for v, t in enumerate(self.tags) if t == tag)

    def __repr__(self) -> str:
        return f"Labelling(n={self.n}, {','.join(self.label_strings())})"


def weight(labelling: Labelling) -> int:
    """``n * |V_[n]| + sum of the nonzero class sizes``."""
    special = special_tag(labelling.n)
    total = 0
    for tag in labelling.tags:
        if tag == special:
            total += labelling.n
        elif tag > 0:
            total += 1
    return total


@dataclass(frozen=True)
class LegalityReport:
    """Outcome of the four legality conditions, with offending vertices."""

    legal: bool
    violations: tuple[tuple[int, tuple[int, ...]], ...]

    def describe(self) -> str:
        if self.legal:
            return "legal"
        parts = [
            f"condition {cond} violated at {list(vertices)}"
            for cond, vertices in self.violations
        ]
        return "; ".join(parts)


class IllegalLabelling(ValueError):
    """Raised when a construction requires a legal labelling."""

    def __init__(self, report: LegalityReport):
        super().__init__(report.describe())
        self.report = report


def check_legal(graph: Graph, labelling: Labelling) -> LegalityReport:
    """Evaluate the four legality conditions, reporting every violation."""
    if labelling.size != graph.n:
        raise ValueError("labelling does not cover the vertex set")
    n = labelling.n
    special = special_tag(n)
    tags = labelling.tags
    violations: list[tuple[int, tuple[int, ...]]] = []

    class_bits: dict[int, int] = {}
    for v, tag in enumerate(tags):
        class_bits[tag] = class_bits.get(tag, 0) | (1 << v)
    special_bits = class_bits.get(special, 0)
    zero_bits = class_bits.get(0, 0)

    # 1: class vertices may only neighbour their own class or V_0
    for v, tag in enumerate(tags):
        if 1 <= tag <= n:
            outside = graph.adj[v] & ~(zero_bits | class_bits[tag])
            for u in _bits_of(outside):
                if u > v and 1 <= tags[u] <= n:
                    violations.append((1, (v, u)))
                elif tags[u] == special:
                    violations.append((1, (v, u)))
    # 2: no vertex isolated inside its own class
    for v, tag in enumerate(tags):
        if 1 <= tag <= n and graph.adj[v] & class_bits[tag] == 0:
            violations.append((2, (v,)))
    # 3: the [n]-labelled vertices are independent
    for v in _bits_of(special_bits):
        conflict = graph.adj[v] & special_bits
        for u in _bits_of(conflict):
            if u > v:
                violations.append((3, (v, u)))
    # 4: V_0 vertices see [n] or two distinct classes
    for v in _bits_of(zero_bits):
        if graph.adj[v] & special_bits:
            continue
        seen_class = 0
        distinct = 0
        for u in _bits_of(graph.adj[v]):
            tag = tags[u]
            if 1 <= tag <= n and tag != seen_class:
                distinct += 1
                if distinct >= 2:
                    break
                seen_class = tag
        if distinct < 2:
            violations.append((4, (v,)))

    violations.sort()
    return LegalityReport(not violations, tuple(violations))


def to_independent_set(graph: Graph, labelling: Labelling) -> VertexSet:
    """Construct the maximal independent set of ``G x K_n`` a legal labelling encodes.

    Class ``k`` puts ``(v, k)`` in the set; the ``[n]`` label puts the whole
    layer ``(v, 1..n)`` in.  Product vertices use the fixed row-major
    encoding with ``K_n`` vertex ``k - 1`` for class ``k``.
    """
    report = check_legal(graph, labelling)
    if not report.legal:
        raise IllegalLabelling(report)
    n = labelling.n
    special = special_tag(n)
    bits = 0
    for v, tag in enumerate(labelling.tags):
        base = v * n
        if tag == special:
            bits |= ((1 << n) - 1) << base
        elif tag >= 1:
            bits |= 1 << (base + tag - 1)
    return VertexSet(graph.n * n, bits)


def from_independent_set(product: ProductGraph, independent: VertexSet) -> Labelling:
    """Recover the labelling generated by a maximal independent set of ``G x K_n``.

    Requires the right factor to be a complete graph of order at least 2.
    Any layer intersection of size outside ``{0, 1, n}`` is rejected: such a
    set cannot be maximal independent in a product with a complete factor.
    """
    right = product.right
    n = right.n
    if n < 2:
        raise ValueError("the complete factor must have order at least 2")
    if any(row != (product.right.full_bits ^ (1 << v)) for v, row in enumerate(right.adj)):
        raise ValueError("the right factor is not a complete graph")
    if independent.n != product.graph.n:
        raise ValueError("vertex set does not live in this product")

    layer_mask = (1 << n) - 1
    tags = []
    for g in range(product.left.n):
        chunk = (independent.bits >> (g * n)) & layer_mask
        count = chunk.bit_count()
        if count == 0:
            tags.append(0)
        elif count == 1:
            tags.append(chunk.bit_length())  # K_n vertex h gives class h + 1
        elif count == n:
            tags.append(special_tag(n))
        else:
            raise ValueError(
                f"layer over vertex {g} meets the set in {count} vertices; "
                f"only 0, 1 or {n} are possible for a maximal independent set"
            )

    from .invariants import is_maximal_independent

    if not is_maximal_independent(product.graph, independent):
        raise ValueError("the given set is not maximal independent in the product")
    return Labelling(n, tuple(tags))


# ---------------------------------------------------------------------------
# Exact weight minimization
# ---------------------------------------------------------------------------
#
# Two routes tag the vertices in index order and return the same optimum: the
# least weight and, among labellings of that weight, the lexicographically
# least tags under 0 < classes < [n].  Classes are interchangeable, so both
# keep to first-occurrence canonical form, where class ``c + 1`` first
# appears after class ``c``; this collapses the n! label symmetry.
# Conditions 1 and 3 are monotone and checked as each edge completes;
# conditions 2 and 4 are only decided once a vertex's closed neighbourhood
# is fully labelled.
#
# The branch-and-bound (``_search_min_weight``) tries tags in that order and
# cuts a branch once its weight reaches the best found, so one pass finds the
# least optimum under the conditions stated for the cover kernel in
# invariants.py.  Its time grows exponentially with the order.
#
# It also looks ahead (forward checking, Haralick and Elliott, Artificial
# Intelligence 1980).  By conditions 1 and 3, an untagged vertex beside an
# [n] or two classes can take only 0, beside one class ``c`` only 0 or ``c``,
# and beside no nonzero tag any class, or [n] where allowed.  A tagged vertex
# whose condition 2 or 4 is still unmet needs, among its untagged
# neighbours, one that can take its class ``c``; or, for a 0 vertex that has
# seen one class ``c``, one that can take [n] or another class; or, for a 0
# vertex that has seen none, one that can take [n] or two that can take a
# class.  After a vertex ``v`` is tagged, the branch is cut when such a need
# has no candidate.  This one predicate is the search's only test of
# conditions 2 and 4: it checks each vertex once its closed neighbourhood is
# tagged, when no untagged neighbour is left and the predicate is the
# condition itself, and keeps checking it while the neighbourhood stays
# open.  Only ``v``, its tagged neighbours and, after a nonzero tag, the
# tagged neighbours of its untagged neighbours can have lost a candidate;
# of those, the ones whose closed neighbourhood completes at ``v + 1`` wait
# for that step, so on a path each step checks just the vertex whose
# neighbourhood it completes.  The options only shrink as more vertices are
# tagged, so a cut branch holds no legal labelling: the search reaches the
# legal leaves in order and returns the least optimum.  On dense graphs,
# where a vertex's neighbourhood completes only near the last vertex, this
# is what bounds the search: without the false-twin rule below,
# ``cocktail:8`` x K_4 takes 106 nodes instead of 49,475.
#
# Two vertices ``u`` and ``v`` with equal adjacency rows (false twins) are not
# adjacent, and for each ``k`` the product vertices ``(u, k)`` and ``(v, k)``
# are false twins in G x K_n: a maximal independent set that holds one holds
# the other, or the other's neighbour in the set would neighbour the first.
# So every legal labelling gives false twins one tag, and the search gives a
# vertex whose row equals an earlier vertex's the tag of the first vertex
# with that row, and tries no other.  Blow-ups, graphs made of false-twin
# classes (the structure behind neighbourhood diversity, Lampis, Algorithmica
# 2012), then branch once per class, not once per vertex: on the paper's
# ``X:m`` and kn-route's ``kbip:a,a`` and ``cocktail:r``, ``cocktail:8`` x K_4
# takes 56 nodes and ``kbip:6,6`` x K_3 31, against 106 and 404.
#
# The frontier DP (``_frontier_min_weight``) is the [sigma, rho]
# vertex-partitioning DP of Telle and Proskurowski (SIAM J. Discrete Math.
# 1997) on a linear order.  It reads the frontier plan that the cover kernel's
# DP reads (``invariants._frontier_steps``), and runs on the same layer engine
# (``invariants._frontier_layers``): the frontier is the tagged vertices that
# still have an untagged neighbour, each in a slot the plan assigns, and each
# step holds the slot bits of the vertex's tagged neighbours and of those that
# leave, and the vertex's own slot.  A state is each frontier vertex's tag
# and pending need: a class vertex waits for a same-class neighbour
# (condition 2); a 0 vertex has seen no class yet, or one class ``c``
# (condition 4); an [n] vertex needs nothing.  A vertex must need nothing
# when it leaves the frontier.  The engine keeps for each state the prefix of
# least weight and, among those, of least tags, with the tag as the choice
# digit, and backtracks the least optimum's tags from the last layer, whose
# one state is the empty frontier.
#
# The state keeps no count of the classes used so far.  Call a class held
# when a frontier vertex has it as its tag, or a frontier 0 vertex has seen
# it as its one class.  A vertex none of whose tagged neighbours has a class
# may take 0, [n], a held class, or the least class not held if that is at
# most n.  This loses no least optimum.  Suppose the least canonical optimum
# gives a vertex ``v`` a class ``c`` that is not held, and a lesser class
# ``c'`` is not held either.  Swap ``c`` and ``c'`` on ``v`` and every later
# vertex.  An edge between an earlier and a later vertex has a frontier
# vertex at its earlier end, whose tag and seen class are neither ``c`` nor
# ``c'``, so the four conditions hold as before, and the weight is the same.
# As ``c`` is at most one more than the classes used before ``v``, ``c'`` is
# one of them, so the swapped labelling is first-occurrence up to ``v``, and
# putting its later classes in first-occurrence order gives a lesser
# canonical optimum, a contradiction.  The held classes are among those used
# so far, so the least class not held is at most one more than their count,
# and every labelling the DP reaches is in first-occurrence form.  The
# choices depend on the state alone, so the DP returns the least canonical
# optimum, with the actual class numbers in its states.  Each frontier
# vertex holds at most one class, so no class exceeds the width plus one:
# the number of states follows the width, not ``n`` or the order, and the
# layers of paths and cycles recur at every n, where the engine copies them.
#
# A state is packed into one int of fixed-width fields of ``b`` bits, ``b``
# the bit length of the [n] tag ``n + 1``: for each frontier slot ``s`` its
# vertex's tag at bit ``2bs`` and its need plus one at bit ``b * (2s + 1)``,
# so a met need and a free slot read 0.  A vertex's moves depend only on the
# fields of its tagged neighbours' slots and on the held classes, so each
# distinct such key is worked out once (``tag_moves``) into the tags the
# vertex may take, each with the new fields to OR into the rest of the state
# and the tag's weight and digit as the engine adds them.  Each step keeps a
# table from a state to its moves, shared by the vertices that see the same
# slots, which on a path or a cycle is nearly all of them.
#
# ``minimize_weight`` builds a graph's frontier plan with
# ``invariants._frontier_steps``, which stops once the natural-order width
# passes ``_DP_MAX_WIDTH``, and takes the DP on every graph whose width is at
# most that (paths, cycles, stars), whatever its order, and the
# branch-and-bound on every other graph, where the DP's states multiply.
# Small narrow graphs need no order floor: on the 48 paths and cycles of 3 to 10
# vertices with n = 2, 3, 4, the DP took 5.5 to 7.4 ms in all against the
# branch-and-bound's 6.0 to 9.7 ms (medians of 21 calls per graph, two runs).

_DP_MAX_WIDTH = 2


def _frontier_min_weight(
    deadline: _Deadline, steps: list[tuple[int, int, int]], width: int, n: int, allow_layer_label: bool
) -> tuple[tuple[int, ...], int]:
    """Return ``(tags, weight)`` of the least canonical optimum, by frontier DP.

    ``(width, steps)`` is the ``_frontier_steps`` plan of the graph's
    adjacency rows, and without the [n] label no vertex may be isolated.
    """
    special = special_tag(n)
    bits = special.bit_length()  # a tag and a need each fit
    field = (1 << bits) - 1
    both = (1 << (2 * bits)) - 1  # a slot's tag and need
    # a state holds for each slot a tag and its need: 0 and one of n + 2
    # needs, a class and one of 2, or [n]; so a layer holds at most 2 ** ranks
    # states
    ranks = ((3 * n + 3) ** width).bit_length()
    sizes = -1 << (ranks + bits)
    next_rank = 1 << bits
    # each tag's weight and digit, as the layer engine adds them
    adds = [tag | cost << (ranks + bits) for tag, cost in enumerate([0] + [1] * n + [n])]
    # (near, leaving, own) -> (the fields it reads, those it keeps, {state -> moves})
    tables: dict[tuple[int, int, int], tuple[int, int, dict[int, tuple[tuple[int, int], ...]]]] = {}

    def held_of(state: int) -> int:
        """The classes a state holds, as bits: its vertices' classes and its 0 vertices' seen classes."""
        held = 0
        while state:
            t, need = state & field, state >> bits & field
            if 0 < t <= n or (not t and need > 1):
                held |= 1 << (t or need - 1)
            state >>= 2 * bits
        return held

    @cache
    def tag_moves(key: int, held: int, near: int, leaving: int, own: int) -> tuple[tuple[int, int], ...]:
        """The tags a vertex may take from one packed state, each with the fields it leaves.

        ``key`` holds the fields of the slots whose bits are in ``near``,
        those of the vertex's tagged neighbours, and ``held`` the classes
        the frontier holds.  The neighbours in the slots of ``leaving``
        leave the frontier, and the vertex takes slot ``own``, or leaves at
        once if ``own`` is -1.  Each move is ``(adds[tag], fields)``, in tag
        order: ``fields`` holds the new fields of ``near`` and ``own``, with
        the leaving ones cleared.  A tag that leaves a vertex with an unmet
        need has no move.
        """
        # ``seen``: the one nonzero tag among tagged neighbours, 0 if there is
        # none, -1 if there are several
        seen = 0
        neighbours = []  # (shift, tag, need, leaves) for each slot in ``near``
        scan = near
        while scan:
            low = scan & -scan
            scan ^= low
            shift = 2 * bits * (low.bit_length() - 1)
            t = (key >> shift) & field
            neighbours.append((shift, t, (key >> (shift + bits)) & field, leaving & low))
            if t and t != seen:
                seen = -1 if seen else t
        if seen == 0:
            held |= ~held & (held + 2)  # and the least class not held
            choices = [c for c in range(n + 1) if held >> c & 1 or not c] + [special] * allow_layer_label
        elif 0 < seen <= n:
            choices = [0, seen]
        else:
            choices = [0]
        own_shift = 2 * bits * own
        moves = []
        for tag in choices:
            if tag == 0:
                mine = seen + 1 if 0 <= seen <= n else 0
            else:
                mine = 0 if tag == seen or tag == special else 1
            if own < 0 and mine:
                continue
            fields = 0
            for shift, t, need, leaves in neighbours:
                if need and tag:
                    # a class neighbour has tag's class; a 0 neighbour has now
                    # seen [n], a second class, or its first
                    met = t or tag == special or (need > 1 and need != tag + 1)
                    need = 0 if met else tag + 1
                if leaves:
                    if need:
                        break
                else:
                    fields |= t << shift | need << (shift + bits)
            else:
                if own >= 0:
                    fields |= tag << own_shift | mine << (own_shift + bits)
                moves.append((adds[tag], fields))
        return tuple(moves)

    def step_layer(step: tuple[int, int, int], sources: Iterable[tuple[int, int]], rank: int) -> dict[int, int]:
        near, leaving, own = step
        plan = tables.get(step)
        if plan is None:
            local = sum(both << 2 * bits * s for s in range(near.bit_length()) if near >> s & 1)
            keep = ~(local | both << (2 * bits * own)) if own >= 0 else ~local
            plan = tables[step] = local, keep, {}
        local, keep, table = plan
        after: dict[int, int] = {}  # state -> its winner, in rank order
        for state, entry in sources:
            base = (entry & sizes) + rank
            rank += next_rank
            moves = table.get(state)
            if moves is None:
                moves = table[state] = tag_moves(state & local, held_of(state), near, leaving, own)
            rest = state & keep
            for add, fields in moves:
                nxt = rest | fields
                new = base + add
                old = after.setdefault(nxt, new)
                if new < old:
                    del after[nxt]
                    after[nxt] = new
        return after

    value, tags = _frontier_layers(deadline, steps, ranks, bits, step_layer)
    return tuple(tags), value


def _search_min_weight(
    deadline: _Deadline, adj: tuple[int, ...], n: int, allow_layer_label: bool
) -> tuple[tuple[int, ...], int]:
    """Return ``(tags, weight)`` of the least canonical optimum, by branch-and-bound."""
    m = len(adj)
    special = special_tag(n)
    below = tuple(adj[v] & ((1 << v) - 1) for v in range(m))
    # vertices whose closed neighbourhood completes when v receives its tag:
    # at u's highest-index neighbour, or at u itself
    ending = [0] * (m + 1)
    for u, row in enumerate(adj):
        ending[max(u, row.bit_length() - 1)] |= 1 << u
    # Once v is tagged, the look-ahead checks the vertices whose closed
    # neighbourhood completes at v, and those whose need or whose helpers v's
    # tag can change and whose closed neighbourhood stays open past v + 1:
    # ``quiet[v]`` after tag 0 (v and its tagged neighbours), ``loud[v]``
    # after a nonzero tag (also the tagged neighbours of v's untagged
    # neighbours, whose options it narrows).
    quiet = [0] * m
    loud = [0] * m
    late = 0  # vertices up to v whose closed neighbourhood is open past v + 1
    for v in range(m):
        late = (late | 1 << v) & ~(ending[v] | ending[v + 1])
        checked = late | ending[v]
        done = (2 << v) - 1
        near = (1 << v) | below[v]
        quiet[v] = near & checked
        for w in _bits_of(adj[v] & ~done):
            near |= adj[w] & done
        loud[v] = near & checked

    # ``twin[v]``: the first vertex whose row is v's, whose tag v's must equal
    twin = [adj.index(row) for row in adj]

    # start above a labelling that always exists: every non-isolated vertex
    # in class 1, isolated vertices labelled [n]
    start_tags = tuple(1 if adj[v] else special for v in range(m))
    best_weight = weight(Labelling(n, start_tags)) + 1
    best_tags: tuple[int, ...] = ()

    # ``by_tag[t]`` holds the vertices tagged ``t``.  Its bits above the
    # vertex last tagged may be left from an abandoned branch, so every read
    # is intersected with the tagged vertices (``done``) or with ``below``.
    tags = [0] * m
    by_tag = [0] * (special + 1)

    def stuck(u: int, done: int) -> bool:
        """True when no tags of ``u``'s untagged neighbours can meet its condition 2 or 4.

        ``done`` holds the tagged vertices.  An untagged ``w`` can take only
        0 beside an [n] or two classes, 0 or ``c`` beside one class ``c``,
        and any class (or [n], if allowed) beside no nonzero tag.  With no
        untagged neighbour left, this is the plain test of condition 2 or 4.
        """
        tag = tags[u]
        if tag == special:
            return False
        row = adj[u]
        nonzero = done & ~by_tag[0]
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
        layered = by_tag[special] & done
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
            bit = 1 << v
            by_tag[tags[v]] &= ~bit
            by_tag[tag] |= bit
            tags[v] = tag
            done = (bit << 1) - 1
            # cut the branch at the first stuck vertex of the check set
            check = loud[v] if tag else quiet[v]
            while check and not stuck((check & -check).bit_length() - 1, done):
                check &= check - 1
            if check:
                continue
        v += 1
        if v == m:
            best_weight, best_tags = partial, tuple(tags)
            continue
        if twin[v] < v:
            tag = tags[twin[v]]
            stack.append((v, tag, partial + (n if tag == special else min(tag, 1)), used))
            continue
        # monotone legality against already-labelled neighbours: ``seen`` is
        # their one nonzero tag, 0 if there is none, -1 if there are several
        beside = below[v] & ~by_tag[0]
        seen = tags[(beside & -beside).bit_length() - 1] if beside else 0
        if beside & ~by_tag[seen]:
            seen = -1
        # pushed in reverse, so tags come off in the order 0 < classes < [n]
        if allow_layer_label and seen == 0 and partial + n < best_weight:
            stack.append((v, special, partial + n, used))
        if partial + 1 < best_weight:
            for c in range(min(used + 1, n), 0, -1):
                if seen == 0 or seen == c:
                    stack.append((v, c, partial + 1, max(used, c)))
        stack.append((v, 0, partial, used))
    return best_tags, best_weight


def minimize_weight(
    graph: Graph,
    n: int,
    limits: SolverLimits = DEFAULT_LIMITS,
    allow_layer_label: bool = True,
) -> tuple[Labelling, int]:
    """Exact minimum weight over legal labellings, with an optimum labelling.

    The returned value equals ``i(G x K_n)``.  The labelling is the
    lexicographically least optimum in canonical (first-occurrence) class
    numbering.  ``allow_layer_label=False`` restricts the search to
    labellings avoiding the ``[n]`` label, and raises :class:`ValueError`
    on a graph with an isolated vertex, where no such labelling is legal.

    Graphs whose frontier width in natural vertex order is at most 2
    (paths, cycles, stars), of any order, take a frontier dynamic program
    over the plan that ``invariants._frontier_steps`` builds in one pass
    (which stops once the width passes 2), on the layer engine the cover
    DP runs on; its states are packed into ints and keep no count of the
    classes used, so their number follows the width, not ``n`` or the
    order, and on paths and cycles its layers recur and are copied.  Every
    other graph takes the branch-and-bound, whose time is exponential in
    the number of vertices with distinct adjacency rows: a vertex whose row
    equals an earlier vertex's (a false twin) takes that vertex's tag, as in
    every legal labelling.  Once a vertex is tagged, the
    branch-and-bound cuts the branch when some tagged vertex can no longer
    meet condition 2 or 4 from the tags its untagged neighbours may still
    take, or, once it has none left, does not meet it; that one test checks
    both conditions, and a branch it cuts holds no legal labelling.  The DP
    reads the budget at every vertex it works out and every block it
    copies, the branch-and-bound at every node, and both routes return the
    same labelling.
    """
    if n < 2:
        raise ValueError("the complete factor must have order at least 2")
    _require_cap(graph, limits, "exact labelling-weight minimization")
    adj = graph.adj
    if graph.n == 0:
        return Labelling(n, ()), 0
    if not allow_layer_label:
        for v in range(graph.n):
            if adj[v] == 0:
                raise ValueError(
                    f"vertex {v} is isolated: without the {SPECIAL_TEXT} label "
                    "no labelling is legal"
                )
    deadline = _Deadline(limits.budget_secs)
    width, steps = _frontier_steps(adj, _DP_MAX_WIDTH, deadline)
    if steps is not None:
        tags, value = _frontier_min_weight(deadline, steps, width, n, allow_layer_label)
    else:
        tags, value = _search_min_weight(deadline, adj, n, allow_layer_label)
    return Labelling(n, tags), value


# ---------------------------------------------------------------------------
# Closed forms and constructions for paths and cycles
# ---------------------------------------------------------------------------

_CYCLE_BLOCK = (1, 1, 0, 2, 2, 0)


def formula_value(family: str, m: int, n: int) -> int:
    """Closed-form ``i(P_m x K_n)`` or ``i(C_m x K_n)``.

    For ``n = 2`` the value comes from the product's decomposition:
    ``P_m x K_2`` is two disjoint copies of ``P_m``, and ``C_m x K_2`` is
    ``C_{2m}`` for odd ``m`` but two copies of ``C_m`` for even ``m``.
    """
    if m < 3:
        raise ValueError(f"order {m} below the stated range (m >= 3)")
    if n < 2:
        raise ValueError("the complete factor must have order at least 2")
    if family == "path":
        if n == 2:
            return 2 * -(-m // 3)
        return -(-(2 * m + 2) // 3)
    if family == "cycle":
        if n == 2:
            if m % 2 == 1:
                return -(-(2 * m) // 3)
            return 2 * -(-m // 3)
        if m <= 5:
            return m
        return -(-(2 * m) // 3)
    raise ValueError(f"unknown family {family!r}; use 'path' or 'cycle'")


def _cycle_pattern(m: int) -> tuple[int, ...]:
    if 3 <= m <= 5:
        return (1,) * m
    r, p = divmod(m, 6)
    if p == 0:
        return _CYCLE_BLOCK * r
    if p == 1:
        return _CYCLE_BLOCK * (r - 1) + (1, 1, 0, 2, 2, 2, 0)
    if p == 2:
        return _CYCLE_BLOCK * (r - 1) + (1, 1, 0, 2, 2, 2, 2, 0)
    if p == 3:
        return _CYCLE_BLOCK * r + (3, 3, 0)
    if p == 4:
        return _CYCLE_BLOCK * r + (3, 3, 3, 0)
    return _CYCLE_BLOCK * r + (3, 3, 3, 3, 0)


def _path_pattern(m: int) -> tuple[int, ...]:
    r, p = divmod(m, 6)
    if p == 0:
        return _CYCLE_BLOCK * (r - 1) + (1, 1, 0, 2, 2, 2)
    if p == 1:
        return _CYCLE_BLOCK * (r - 1) + (1, 1, 1, 0, 2, 2, 2)
    if p == 2:
        return _CYCLE_BLOCK * r + (1, 1)
    if p == 3:
        return _CYCLE_BLOCK * r + (1, 1, 1)
    if p == 4:
        return _CYCLE_BLOCK * r + (1, 1, 1, 1)
    return _CYCLE_BLOCK * r + (1, 1, 0, 2, 2)


def pattern_labelling(family: str, m: int, n: int = 3) -> Labelling:
    """The periodic optimum labelling for a path or cycle of order ``m``.

    Legal for every ``n >= 3`` (only classes 1..3 appear) with weight equal
    to :func:`formula_value`.
    """
    if n < 3:
        raise ValueError("pattern constructions need a complete factor of order >= 3")
    if family == "cycle":
        if m < 3:
            raise ValueError("cycles need m >= 3")
        return Labelling(n, _cycle_pattern(m))
    if family == "path":
        if m < 3:
            raise ValueError("paths need m >= 3 here")
        return Labelling(n, _path_pattern(m))
    raise ValueError(f"unknown family {family!r}; use 'path' or 'cycle'")
