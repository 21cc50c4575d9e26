"""Graphs derived from checked graphs skip ``Graph``'s check; these tests run it on them.

``direct_product``, ``square_graph`` and ``induced_subgraph`` construct rows
that are symmetric, loop-free and in range by construction, so the runtime
does not check them again; ``build_graph``, which every parser uses, does.
Each test rebuilds a builder's output through the public constructor, which
checks every row, and requires the same graph back.
"""

from random import Random

import pytest

from idomlab import cli
from idomlab.families import build_family, counterexample_product, make_X
from idomlab.formats import format_edge_list, graph6_decode, graph6_encode, parse_edge_list
from idomlab.graph import Graph, induced_subgraph, square_graph
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
