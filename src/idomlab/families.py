"""Generators for the named graph families, packaged with their witness sets.

Vertex layouts are fixed and documented per family so witnesses are
reproducible integers everywhere:

* cocktail ``H_r``: partite pairs ``{2i, 2i+1}`` labelled ``u{i+1}, v{i+1}``;
* ``X_m``: ``x1..x4`` at indices 0..3, then the blocks ``A, B, C, D`` of
  ``m`` vertices each;
* ``G_n``: the pairs ``u1,v1 .. u6,v6`` at indices 0..11, then one block of
  ``n`` vertices per index set in :data:`GN_BLOCK_SETS`, in listed order;
* ``H_n``: ``y1..y6`` at indices 0..5, then one block per index set in
  :data:`HN_BLOCK_SETS`.

Each witness is a maximal independent set of its graph; re-checking that is
the executable content of the constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graph import Graph, VertexSet, build_graph
from .products import MAX_PRODUCT_VERTICES, ProductGraph, check_row_bytes, direct_product

# index sets (1-based) attached to the counterexample constructions
GN_BLOCK_SETS: tuple[tuple[int, ...], ...] = (
    (3, 4, 5, 6),
    (2, 5, 6),
    (1, 2, 3, 4),
    (1, 3, 4, 6),
    (1, 2, 5),
)
GN_CLIQUE_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 5),
    (1, 6),
    (2, 3),
    (2, 4),
    (2, 6),
    (3, 5),
    (4, 5),
)
HN_BLOCK_SETS: tuple[tuple[int, ...], ...] = (
    (2, 3, 4, 6),
    (2, 3, 4, 5),
    (1, 3, 5, 6),
    (1, 2, 4, 6),
    (1, 3, 4, 5),
    (1, 2, 3, 6),
    (1, 4, 5, 6),
)
HN_BASE_EDGES: tuple[tuple[int, int], ...] = (
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 5),
    (3, 6),
    (3, 4),
    (4, 6),
    (5, 6),
)


def _path_rows(m: int) -> list[int]:
    """Rows of the path ``0 - 1 - ... - (m - 1)``, symmetric and loop-free as built.

    ``make_path`` and ``make_cycle`` pass them to ``Graph`` with
    ``_rows_checked=True``, as ``build_graph`` passes its rows.
    """
    rows = [5 << (v - 1) for v in range(1, m - 1)]  # bits v - 1 and v + 1
    return [2] + rows + [1 << (m - 2)] if m > 1 else [0]


def make_path(m: int) -> Graph:
    if m < 1:
        raise ValueError("paths need at least one vertex")
    return Graph(m, tuple(_path_rows(m)), _rows_checked=True)


def make_cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycles need at least three vertices")
    rows = _path_rows(m)
    rows[0] |= 1 << (m - 1)
    rows[-1] |= 1
    return Graph(m, tuple(rows), _rows_checked=True)


def make_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graphs need at least one vertex")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graphs need both sides nonempty")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def make_cocktail(r: int) -> tuple[Graph, VertexSet]:
    """Complete multipartite graph with ``r`` partite pairs; witness exhibits i = 2."""
    if r < 2:
        raise ValueError("cocktail-party graphs need at least two partite pairs")
    n = 2 * r
    edges = []
    for i in range(r):
        for j in range(i + 1, r):
            for a in (2 * i, 2 * i + 1):
                for b in (2 * j, 2 * j + 1):
                    edges.append((a, b))
    labels = []
    for i in range(r):
        labels += [f"u{i + 1}", f"v{i + 1}"]
    graph = build_graph(n, edges, labels)
    return graph, VertexSet.from_vertices(n, (0, 1))


def make_X(m: int) -> tuple[Graph, VertexSet]:
    """The hub-and-blocks counterexample factor; witness of size ``m + 2``."""
    if m < 3:
        raise ValueError("the X family needs block size at least 3")
    n = 4 + 4 * m
    block_a = range(4, 4 + m)
    block_b = range(4 + m, 4 + 2 * m)
    block_c = range(4 + 2 * m, 4 + 3 * m)
    block_d = range(4 + 3 * m, 4 + 4 * m)
    edges = [(0, 1), (2, 3)]
    edges += [(0, w) for w in block_a] + [(0, w) for w in block_c]
    edges += [(1, w) for w in block_b] + [(1, w) for w in block_d]
    edges += [(2, w) for w in block_a] + [(2, w) for w in block_b]
    edges += [(3, w) for w in block_c] + [(3, w) for w in block_d]
    labels = ["x1", "x2", "x3", "x4"]
    for name, block in (("a", block_a), ("b", block_b), ("c", block_c), ("d", block_d)):
        labels += [f"{name}{k + 1}" for k in range(len(block))]
    graph = build_graph(n, edges, labels)
    witness = VertexSet.from_vertices(n, [0, 2] + list(block_d))
    return graph, witness


def _block_label(prefix: str, index_set: tuple[int, ...], k: int) -> str:
    inner = ",".join(str(s) for s in index_set)
    return f"{prefix}{{{inner}}}#{k + 1}"


def make_Gn(n: int) -> tuple[Graph, VertexSet]:
    """First factor of the extreme counterexample pair; witness of size ``n + 2``."""
    if n < 1:
        raise ValueError("block size must be positive")
    total = 12 + 5 * n
    edges = [(2 * (s - 1), 2 * s - 1) for s in range(1, 7)]
    labels = []
    for s in range(1, 7):
        labels += [f"u{s}", f"v{s}"]
    base = 12
    first_block: list[int] = []
    for index_set in GN_BLOCK_SETS:
        block = list(range(base, base + n))
        base += n
        if index_set == (3, 4, 5, 6):
            first_block = block
        for s in index_set:
            for w in block:
                edges += [(w, 2 * (s - 1)), (w, 2 * s - 1)]
        labels += [_block_label("A", index_set, k) for k in range(n)]
    for s, t in GN_CLIQUE_PAIRS:
        quad = (2 * (s - 1), 2 * s - 1, 2 * (t - 1), 2 * t - 1)
        edges += [(a, b) for i, a in enumerate(quad) for b in quad[i + 1 :]]
    graph = build_graph(total, edges, labels)
    witness = VertexSet.from_vertices(total, [0, 2] + first_block)
    return graph, witness


def make_Hn(n: int) -> tuple[Graph, VertexSet]:
    """Second factor of the extreme counterexample pair; witness of size ``n + 2``."""
    if n < 1:
        raise ValueError("block size must be positive")
    total = 6 + 7 * n
    edges = [(a - 1, b - 1) for a, b in HN_BASE_EDGES]
    labels = [f"y{k}" for k in range(1, 7)]
    base = 6
    first_block: list[int] = []
    for index_set in HN_BLOCK_SETS:
        block = list(range(base, base + n))
        base += n
        if index_set == (2, 3, 4, 6):
            first_block = block
        for k in index_set:
            edges += [(w, k - 1) for w in block]
        labels += [_block_label("B", index_set, k) for k in range(n)]
    graph = build_graph(total, edges, labels)
    witness = VertexSet.from_vertices(total, [0, 4] + first_block)
    return graph, witness


def counterexample_product(m: int, r: int) -> tuple[ProductGraph, VertexSet]:
    """``X_m x H_r`` with its 8-vertex independent dominating witness.

    The witness is ``{x1,x2} x {u1,v1}`` together with ``{x3,x4} x {u2,v2}``
    under the fixed row-major encoding.
    """
    left, _ = make_X(m)
    right, _ = make_cocktail(r)
    product = direct_product(left, right)
    members = [product.encode(g, h) for g in (0, 1) for h in (0, 1)]
    members += [product.encode(g, h) for g in (2, 3) for h in (2, 3)]
    return product, VertexSet.from_vertices(product.graph.n, members)


def extreme_product(n: int) -> tuple[ProductGraph, VertexSet]:
    """``G_n x H_n`` with its 12-vertex independent dominating witness.

    The witness pairs each ``u_s, v_s`` with ``y_s``.
    """
    left, _ = make_Gn(n)
    right, _ = make_Hn(n)
    product = direct_product(left, right)
    members = []
    for s in range(1, 7):
        members.append(product.encode(2 * (s - 1), s - 1))
        members.append(product.encode(2 * s - 1, s - 1))
    return product, VertexSet.from_vertices(product.graph.n, members)


# ---------------------------------------------------------------------------
# Family-spec strings ("cycle:16", "kbip:3,3", "X:3", ...)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def _no_witness(make: Callable[..., Graph]) -> Callable[..., tuple[Graph, None]]:
    return lambda *params: (make(*params), None)


# kind -> (parameter count, vertex and edge counts worked out from the
# parameters, generator returning the graph and its packaged witness or None)
_FAMILIES = {
    "path": (1, lambda m: (m, max(m - 1, 0)), _no_witness(make_path)),
    "cycle": (1, lambda m: (m, m), _no_witness(make_cycle)),
    "complete": (1, lambda n: (n, n * (n - 1) // 2), _no_witness(make_complete)),
    "kbip": (2, lambda a, b: (a + b, a * b), _no_witness(make_complete_bipartite)),
    "cocktail": (1, lambda r: (2 * r, 2 * r * (r - 1)), make_cocktail),
    "X": (1, lambda m: (4 + 4 * m, 2 + 8 * m), make_X),
    # six pair edges, each block joined to both ends of its pairs, and the
    # four cross edges of each clique pair
    "Gn": (
        1,
        lambda n: (
            12 + 5 * n,
            6 + 2 * sum(len(s) for s in GN_BLOCK_SETS) * n + 4 * len(GN_CLIQUE_PAIRS),
        ),
        make_Gn,
    ),
    "Hn": (
        1,
        lambda n: (6 + 7 * n, len(HN_BASE_EDGES) + sum(len(s) for s in HN_BLOCK_SETS) * n),
        make_Hn,
    ),
}


def parse_family(text: str) -> FamilySpec:
    """Parse a family-spec string like ``"cycle:16"`` or ``"kbip:3,3"``."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"family spec {text!r} must look like 'kind:params'")
    kind = head.strip()
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}; choose from {sorted(_FAMILIES)}")
    fields = tail.split(",")
    try:
        params = tuple(map(int, fields))
    except ValueError:
        params = ()
    # int() alone would also read "+4", " 4", "04" and non-ASCII digits; a minus
    # sign is read, so that a parameter below a family's floor gets its message
    if list(map(str, params)) != fields:
        raise ValueError(f"family spec {text!r} has non-integer parameters")
    arity = _FAMILIES[kind][0]
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    return FamilySpec(kind, params)


def _family(spec: FamilySpec) -> tuple:
    try:
        return _FAMILIES[spec.kind]
    except KeyError:
        raise ValueError(f"unknown family kind {spec.kind!r}") from None


def family_size(spec: FamilySpec) -> tuple[int, int]:
    """Vertex and edge counts of a family spec, worked out without building it.

    Negative parameters count as 0, so the generators themselves report
    a parameter below their floor.
    """
    _, size, _ = _family(spec)
    return size(*(max(p, 0) for p in spec.params))


def build_family(spec: FamilySpec | str) -> Graph:
    """Materialize a family spec as a graph (witness dropped)."""
    graph, _ = build_family_with_witness(spec)
    return graph


def build_family_with_witness(spec: FamilySpec | str) -> tuple[Graph, VertexSet | None]:
    """Materialize a family spec, returning its packaged witness when it has one."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    # Refuse before allocating: the generators materialise every edge, and
    # every row costs about n / 8 bytes.
    size = family_size(spec)
    for count, what in zip(size, ("vertices", "edges")):
        if count > MAX_PRODUCT_VERTICES:
            raise ValueError(
                f"family {spec} would have {count} {what}, "
                f"above the limit of {MAX_PRODUCT_VERTICES}"
            )
    check_row_bytes(size[0], f"family {spec}")
    _, _, build = _family(spec)
    return build(*spec.params)
