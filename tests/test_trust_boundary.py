"""Builders whose rows are valid by construction skip ``Graph``'s check; these tests run it.

``build_graph``, which every parser uses, checks each edge as it sets it in
both rows, and ``direct_product``, ``square_graph`` and ``induced_subgraph``
derive their rows from checked graphs, so the runtime checks none of their
rows again.  Each test rebuilds a builder's output through the public
constructor, which checks every row, and requires the same graph back.
"""

import re
from random import Random

import pytest

from idomlab import cli
from idomlab.families import build_family, counterexample_product, make_X
from idomlab.formats import format_edge_list, graph6_decode, graph6_encode, parse_edge_list
from idomlab.graph import Graph, build_graph, induced_subgraph, square_graph
from idomlab.invariants import DEFAULT_LIMITS
from idomlab.products import direct_product
from idomlab.smallgraphs import all_graphs, random_graph

SMALL_SPECS = (
    [f"path:{m}" for m in range(1, 8)]
    + [f"cycle:{m}" for m in range(3, 9)]
    + [f"complete:{n}" for n in range(1, 8)]
    + [f"kbip:{a},{b}" for a in range(1, 5) for b in range(1, 5)]
    + [f"cocktail:{r}" for r in range(2, 6)]
    + [f"X:{m}" for m in range(3, 6)]
    + [f"Gn:{n}" for n in range(1, 5)]
    + [f"Hn:{n}" for n in range(1, 5)]
)


def assert_passes_full_check(graph: Graph) -> None:
    assert Graph(graph.n, graph.adj, graph.labels) == graph


def test_edge_lists_with_duplicate_and_reversed_pairs():
    rng = Random(17)
    for _ in range(300):
        n = rng.randint(0, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random()]
        edges = pairs + rng.sample(pairs, len(pairs) // 3)  # duplicates
        edges += [(v, u) for u, v in pairs if rng.random() < 0.3]  # reversed duplicates
        rng.shuffle(edges)
        labels = [f"v{v}" for v in range(n)] if rng.random() < 0.5 else None
        graph = build_graph(n, edges, labels)
        assert_passes_full_check(graph)
        expected = [0] * n
        for u, v in pairs:
            expected[u] |= 1 << v
            expected[v] |= 1 << u
        assert graph.adj == tuple(expected)
        assert graph.labels == (tuple(labels) if labels is not None else None)
    for spec in ("path:3000", "cycle:3000"):
        assert_passes_full_check(build_family(spec))


@pytest.mark.parametrize(
    "n, edges, labels, message",
    [
        (3, [(0, 1), (1, 1)], None, "loop edge (1,1) is not allowed in a simple graph"),
        (3, [(0, 1), (0, 3)], None, "edge (0,3) has an endpoint outside 0..2"),
        (3, [(-1, 2)], None, "edge (-1,2) has an endpoint outside 0..2"),
        (3, [(0, 1)], ["a", "b"], "label count differs from vertex count"),
        (2, [], ["a", "b", "c"], "label count differs from vertex count"),
        (-1, [], None, "vertex count must be nonnegative"),
    ],
)
def test_build_graph_rejections_keep_their_text(n, edges, labels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_graph(n, edges, labels)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_family_graphs(spec):
    assert_passes_full_check(build_family(spec))


def test_direct_products():
    rng = Random(7)
    for _ in range(200):
        left = random_graph(rng, rng.randint(0, 7), rng.random())
        right = random_graph(rng, rng.randint(0, 7), rng.random())
        assert_passes_full_check(direct_product(left, right).graph)
    product, _ = counterexample_product(3, 3)
    assert product.graph.labels is not None
    assert_passes_full_check(product.graph)


def test_squares_and_induced_subgraphs():
    rng = Random(11)
    for _ in range(100):
        graph = random_graph(rng, rng.randint(0, 12), rng.random())
        assert_passes_full_check(square_graph(graph))
        kept = [v for v in range(graph.n) if rng.random() < 0.6]
        assert_passes_full_check(induced_subgraph(graph, kept))
    x3, _ = make_X(3)
    assert_passes_full_check(induced_subgraph(x3, range(0, x3.n, 2)))


def test_parsed_graphs():
    rng = Random(13)
    for _ in range(100):
        graph = random_graph(rng, rng.randint(0, 12), rng.random())
        assert_passes_full_check(graph6_decode(graph6_encode(graph)))
        assert_passes_full_check(parse_edge_list(format_edge_list(graph)))
    for graph in all_graphs(5):
        assert_passes_full_check(graph)


@pytest.mark.parametrize(
    "rows", [(0b10, 0b00), (0b01, 0b00), (0b100, 0b000)], ids=["asymmetric", "loop", "range"]
)
def test_worker_rows_keep_the_full_check(rows):
    # the CLI's workers rebuild factors from bare rows, so they check them
    with pytest.raises(ValueError):
        cli._pair_reports((("degree-ratio-lower",), DEFAULT_LIMITS, rows, (0b10, 0b01)))
    with pytest.raises(ValueError):
        cli._pair_reports((("degree-ratio-lower",), DEFAULT_LIMITS, (0b10, 0b01), rows))
