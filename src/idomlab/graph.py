"""Immutable simple graphs over dense vertex indices, with bitset adjacency rows.

Vertices are the integers ``0..n-1``.  Each adjacency row is a Python int
used as a bitset, which keeps neighbourhood algebra (unions, intersections,
complements) down to single integer operations.  Graphs and vertex sets are
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional

INFINITY = float("inf")


def _bits_of(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices ``0..n-1`` of some graph, stored as a bitset."""

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex universe size must be nonnegative")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("vertex set contains indices outside 0..n-1")

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            bits |= 1 << v
        return cls(n, bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(_bits_of(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return _bits_of(self.bits)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def _check_same_universe(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets live in different universes")

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.n, self.bits | other.bits)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.n, self.bits & other.bits)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._check_same_universe(other)
        return VertexSet(self.n, self.bits & ~other.bits)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same_universe(other)
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, {{{', '.join(map(str, self.members()))}}})"


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: symmetric, loop-free bitset adjacency rows.

    ``labels`` optionally carries display names (family generators attach
    them so witnesses can be reported in the source notation); labels never
    take part in equality.

    The public constructor checks every row: range, loops and symmetry, the
    last edge by edge.  Bare rows use it: direct ``Graph(n, adj)`` calls and
    the rows the CLI sends to its worker processes.  Every parsed input
    (family specs, graph6, edge lists, random graphs, certificate subjects)
    reaches a ``Graph`` through :func:`build_graph`, which checks each edge
    as it sets it in both rows and passes ``_rows_checked=True``: the
    constructor then checks the row and label counts but not the rows.
    ``families.make_path`` and ``make_cycle`` build their rows directly,
    valid by construction, and pass ``_rows_checked=True`` the same way.
    Graphs derived from checked graphs (``products.direct_product``,
    :func:`square_graph` and :func:`induced_subgraph`) are valid by
    construction too, and pass ``_rows_checked=True`` as well.
    """

    n: int
    adj: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)
    _rows_checked: InitVar[bool] = False

    def __post_init__(self, _rows_checked: bool = False) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count differs from vertex count")
        if not _rows_checked:
            for v, row in enumerate(self.adj):
                if row < 0 or row >> self.n:
                    raise ValueError(f"adjacency row of {v} has bits outside 0..{self.n - 1}")
                if (row >> v) & 1:
                    raise ValueError(f"loop at vertex {v}")
                for u in _bits_of(row):
                    if not (self.adj[u] >> v) & 1:
                        raise ValueError(f"asymmetric adjacency between {u} and {v}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count differs from vertex count")

    # -- basic queries -----------------------------------------------------

    @property
    def full_bits(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits_of(self.adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits_of(self.adj[u] >> (u + 1)):
                yield (u, v + u + 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def label_of(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Optional[Iterable[str]] = None,
) -> Graph:
    """Build a simple graph from an edge list.

    Duplicate edges collapse silently; loops, out-of-range endpoints and a
    label count other than ``n`` are rejected with a diagnostic.  Each edge
    is checked as it is set in both rows, so the rows are symmetric,
    loop-free and in range, and ``Graph`` skips its row check on them.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) is not allowed in a simple graph")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    label_tuple = tuple(labels) if labels is not None else None
    return Graph(n, tuple(rows), label_tuple, _rows_checked=True)


def closed_neighborhood(graph: Graph, v: int) -> VertexSet:
    """Return ``N[v]``, the neighbours of ``v`` together with ``v`` itself."""
    if not 0 <= v < graph.n:
        raise ValueError(f"vertex {v} out of range 0..{graph.n - 1}")
    return VertexSet(graph.n, graph.adj[v] | (1 << v))


def distance(graph: Graph, u: int, v: int) -> int | float:
    """BFS hop count between ``u`` and ``v``; ``inf`` when disconnected."""
    if not (0 <= u < graph.n and 0 <= v < graph.n):
        raise ValueError("distance endpoints out of range")
    if u == v:
        return 0
    seen = 1 << u
    frontier = seen
    hops = 0
    while frontier:
        hops += 1
        reached = 0
        for w in _bits_of(frontier):
            reached |= graph.adj[w]
        frontier = reached & ~seen
        if (frontier >> v) & 1:
            return hops
        seen |= frontier
    return INFINITY


def connected_components(graph: Graph) -> list[VertexSet]:
    """Connected components in ascending order of their smallest vertex."""
    remaining = graph.full_bits
    components = []
    while remaining:
        root = (remaining & -remaining).bit_length() - 1
        comp = 1 << root
        frontier = comp
        while frontier:
            reached = 0
            for w in _bits_of(frontier):
                reached |= graph.adj[w]
            frontier = reached & ~comp
            comp |= frontier
        components.append(VertexSet(graph.n, comp))
        remaining &= ~comp
    return components


def is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return True
    return len(connected_components(graph)) == 1


def is_bipartite(graph: Graph) -> Optional[tuple[VertexSet, VertexSet]]:
    """Return a 2-colouring ``(A, B)`` when one exists, else ``None``.

    Components are coloured independently with their smallest vertex on
    side ``A``, so the returned bipartition is deterministic.
    """
    side_a = 0
    side_b = 0
    for component in connected_components(graph):
        root = (component.bits & -component.bits).bit_length() - 1
        level = 1 << root
        seen = level
        even = True
        while level:
            if even:
                side_a |= level
            else:
                side_b |= level
            reached = 0
            for w in _bits_of(level):
                reached |= graph.adj[w]
            level = reached & ~seen
            seen |= level
            even = not even
    for v in _bits_of(side_a):
        if graph.adj[v] & side_a:
            return None
    for v in _bits_of(side_b):
        if graph.adj[v] & side_b:
            return None
    return VertexSet(graph.n, side_a), VertexSet(graph.n, side_b)


def find_claw(graph: Graph) -> Optional[tuple[int, int, int, int]]:
    """Return an induced claw as ``(centre, leaf, leaf, leaf)``, or ``None``."""
    for v in range(graph.n):
        row = graph.adj[v]
        if row.bit_count() < 3:
            continue
        neighbours = tuple(_bits_of(row))
        for a, b, c in combinations(neighbours, 3):
            if not (graph.has_edge(a, b) or graph.has_edge(a, c) or graph.has_edge(b, c)):
                return (v, a, b, c)
    return None


def is_claw_free(graph: Graph) -> bool:
    return find_claw(graph) is None


def min_degree(graph: Graph) -> int:
    if graph.n == 0:
        return 0
    return min(row.bit_count() for row in graph.adj)


def max_degree(graph: Graph) -> int:
    if graph.n == 0:
        return 0
    return max(row.bit_count() for row in graph.adj)


def square_graph(graph: Graph) -> Graph:
    """The graph joining vertices at distance 1 or 2 in ``graph``."""
    rows = []
    for v in range(graph.n):
        row = graph.adj[v]
        for u in _bits_of(graph.adj[v]):
            row |= graph.adj[u]
        rows.append(row & ~(1 << v))
    return Graph(graph.n, tuple(rows), _rows_checked=True)


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on ``vertices``, reindexed in ascending order."""
    ordered = sorted(set(vertices))
    for v in ordered:
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range 0..{graph.n - 1}")
    position = {v: i for i, v in enumerate(ordered)}
    rows = [0] * len(ordered)
    for v in ordered:
        for u in _bits_of(graph.adj[v]):
            if u in position:
                rows[position[v]] |= 1 << position[u]
    labels = None
    if graph.labels is not None:
        labels = tuple(graph.labels[v] for v in ordered)
    return Graph(len(ordered), tuple(rows), labels, _rows_checked=True)
