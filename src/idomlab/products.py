"""Direct (tensor) products of graphs with layer and projection structure.

The product of ``G`` and ``H`` lives on ``V(G) x V(H)`` with
``(g1,h1)(g2,h2)`` an edge exactly when ``g1g2`` and ``h1h2`` are edges of
the factors.  Product vertices are encoded row-major as ``g * n(H) + h``;
that encoding is fixed so witness sets decode identically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, VertexSet, _bits_of

MAX_PRODUCT_VERTICES = 100_000

# A bitset row costs about n / 8 bytes however sparse the graph, so the rows
# of an n-vertex graph take up to n * n / 8 bytes; graphs above this ceiling
# are refused before they are built (about 23000 vertices).
MAX_ROW_BYTES = 64 << 20


@dataclass(frozen=True)
class ProductGraph:
    """A direct product together with its factor metadata.

    The flattened product is the ``graph`` attribute; ``left`` and ``right``
    are retained so layer and projection queries keep their coordinates.
    """

    graph: Graph
    left: Graph
    right: Graph

    @property
    def nG(self) -> int:
        return self.left.n

    @property
    def nH(self) -> int:
        return self.right.n

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.left.n and 0 <= h < self.right.n):
            raise ValueError(f"coordinate ({g},{h}) outside the factor ranges")
        return g * self.right.n + h

    def decode(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.graph.n:
            raise ValueError(f"product vertex {v} out of range")
        return divmod(v, self.right.n)

    def __repr__(self) -> str:
        return f"ProductGraph({self.left!r} x {self.right!r})"


def check_row_bytes(n: int, what: str) -> None:
    """Refuse a graph of ``n`` vertices whose rows could exceed ``MAX_ROW_BYTES``."""
    need = n * n // 8
    if need > MAX_ROW_BYTES:
        raise ValueError(
            f"{what} would have {n} vertices, whose rows take up to {need} bytes, "
            f"above the limit of {MAX_ROW_BYTES} bytes"
        )


def check_product_order(left_n: int, right_n: int, max_vertices: int = MAX_PRODUCT_VERTICES) -> int:
    """The order of a product of factors of these orders.

    Refused above ``max_vertices``, or when its rows could exceed
    ``MAX_ROW_BYTES``.
    """
    total = left_n * right_n
    if total > max_vertices:
        raise ValueError(
            f"product would have {total} vertices, above the limit of {max_vertices}"
        )
    check_row_bytes(total, "product")
    return total


def direct_product(left: Graph, right: Graph, max_vertices: int = MAX_PRODUCT_VERTICES) -> ProductGraph:
    """Construct the direct product of two graphs.

    Rejects products whose vertex count would exceed ``max_vertices``, or
    whose rows could exceed ``MAX_ROW_BYTES``.
    """
    total = check_product_order(left.n, right.n, max_vertices)
    nh = right.n
    # Row of (g, h) is the union over g' ~ g of N_H(h) shifted into the block
    # of g'.  spread[g] holds bit g' * nh for each g' ~ g, and N_H(h) is below
    # 1 << nh, so spread[g] * N_H(h) lays one copy of N_H(h) in each such
    # block: the blocks are disjoint, no carry crosses them, and the product
    # is that union.
    spread = [sum(1 << (g2 * nh) for g2 in _bits_of(row)) for row in left.adj]
    rows = [s * nb for s in spread for nb in right.adj]
    labels = None
    if left.labels is not None and right.labels is not None:
        labels = tuple(
            f"({left.labels[g]},{right.labels[h]})"
            for g in range(left.n)
            for h in range(nh)
        )
    # Symmetric and loop-free because both factors are: no re-check.
    return ProductGraph(Graph(total, tuple(rows), labels, _rows_checked=True), left, right)


def layer(product: ProductGraph, side: str, index: int) -> VertexSet:
    """A fibre of the product over one fixed coordinate.

    ``side="H"`` gives the H-layer over a vertex ``index`` of the left
    factor (all ``(index, h)``); ``side="G"`` gives the G-layer over a
    vertex ``index`` of the right factor (all ``(g, index)``).
    """
    nh = product.right.n
    if side == "H":
        if not 0 <= index < product.left.n:
            raise ValueError(f"no left-factor vertex {index}")
        bits = ((1 << nh) - 1) << (index * nh)
    elif side == "G":
        if not 0 <= index < nh:
            raise ValueError(f"no right-factor vertex {index}")
        bits = 0
        for g in range(product.left.n):
            bits |= 1 << (g * nh + index)
    else:
        raise ValueError('side must be "G" or "H"')
    return VertexSet(product.graph.n, bits)


def project(product: ProductGraph, side: str, subset: VertexSet) -> VertexSet:
    """Coordinate image of a product vertex subset in the chosen factor."""
    if subset.n != product.graph.n:
        raise ValueError("subset does not live in this product")
    nh = product.right.n
    bits = 0
    if side == "G":
        for v in subset:
            bits |= 1 << (v // nh)
        return VertexSet(product.left.n, bits)
    if side == "H":
        for v in subset:
            bits |= 1 << (v % nh)
        return VertexSet(product.right.n, bits)
    raise ValueError('side must be "G" or "H"')
