import random

import pytest
from hypothesis import given, settings, strategies as st

from idomlab.graph import VertexSet, build_graph, is_connected, max_degree, min_degree
from idomlab.families import make_complete, make_cycle, make_path
from idomlab.invariants import is_independent, is_maximal_independent
from idomlab.products import direct_product, layer, project
from idomlab.smallgraphs import random_graph

from oracles import brute_direct_product_neighbours, brute_maximal_independent_sets, vertex_set


def test_k2_times_k2_is_two_disjoint_edges():
    p = direct_product(make_complete(2), make_complete(2))
    assert p.graph.n == 4
    assert sorted(p.graph.edges()) == [(0, 3), (1, 2)]


def test_p3_times_k2_is_two_paths():
    p = direct_product(make_path(3), make_complete(2))
    assert p.graph.n == 6 and p.graph.edge_count() == 4
    degrees = sorted(p.graph.degree(v) for v in range(6))
    assert degrees == [1, 1, 1, 1, 2, 2]
    assert not is_connected(p.graph)


def test_c5_times_k2_is_c10():
    p = direct_product(make_cycle(5), make_complete(2))
    assert p.graph.n == 10
    assert min_degree(p.graph) == max_degree(p.graph) == 2
    assert is_connected(p.graph)  # a connected 2-regular graph on 10 vertices


def test_encode_decode_round_trip():
    p = direct_product(make_path(3), make_complete(4))
    for g in range(3):
        for h in range(4):
            assert p.decode(p.encode(g, h)) == (g, h)
    with pytest.raises(ValueError):
        p.encode(3, 0)
    with pytest.raises(ValueError):
        p.decode(12)


def test_product_size_guard():
    with pytest.raises(ValueError, match="vertices"):
        direct_product(make_path(10), make_path(11), max_vertices=100)


def test_product_memory_guard():
    # 40000 vertices are within the vertex limit, but their rows are not
    with pytest.raises(ValueError, match="product would have 40000 vertices, whose rows take up to"):
        direct_product(make_path(200), make_complete(200))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
)
def test_edge_count_and_commutativity(nl, nr, rnd):
    left = random_graph(rnd, nl, 0.5)
    right = random_graph(rnd, nr, 0.5)
    p = direct_product(left, right)
    assert p.graph.edge_count() == 2 * left.edge_count() * right.edge_count()
    q = direct_product(right, left)
    # coordinate swap is an isomorphism
    for g in range(left.n):
        for h in range(right.n):
            for g2 in range(left.n):
                for h2 in range(right.n):
                    assert p.graph.has_edge(p.encode(g, h), p.encode(g2, h2)) == q.graph.has_edge(
                        q.encode(h, g), q.encode(h2, g2)
                    )


def _labelled_random_factor(rng, tag):
    """A random factor of order 1..7, edgeless at p = 0 and often disconnected."""
    n = rng.randint(1, 7)
    p = rng.choice((0.0, 0.2, 0.5, 0.9))
    edges = random_graph(rng, n, p).edges()
    return build_graph(n, list(edges), labels=tuple(f"{tag}{v}" for v in range(n)))


def test_rows_match_the_definition():
    rng = random.Random(1231)
    fixed = [  # order 1, edgeless and disconnected factors, unlabelled
        (build_graph(1, []), build_graph(1, [])),
        (build_graph(1, []), make_path(3)),
        (build_graph(3, []), make_cycle(4)),
        (build_graph(4, [(0, 1), (2, 3)]), make_complete(3)),
    ]
    pairs = fixed + [
        (_labelled_random_factor(rng, "a"), _labelled_random_factor(rng, "b")) for _ in range(200)
    ]
    for left, right in pairs:
        p = direct_product(left, right)
        members = [set(VertexSet(p.graph.n, row)) for row in p.graph.adj]
        assert members == brute_direct_product_neighbours(left, right)
        if left.labels is not None and right.labels is not None:
            assert p.graph.labels == tuple(
                f"({a},{b})" for a in left.labels for b in right.labels
            )
        else:
            assert p.graph.labels is None


def test_layers_are_independent_and_correct():
    p = direct_product(make_path(3), make_complete(2))
    fibre = layer(p, "H", 1)
    assert fibre.members() == (p.encode(1, 0), p.encode(1, 1))
    rng = random.Random(5)
    for _ in range(20):
        left = random_graph(rng, rng.randint(1, 5), 0.6)
        right = random_graph(rng, rng.randint(1, 5), 0.6)
        prod = direct_product(left, right)
        for g in range(left.n):
            assert is_independent(prod.graph, layer(prod, "H", g))
        for h in range(right.n):
            assert is_independent(prod.graph, layer(prod, "G", h))


def test_g_layer_of_c3_times_k3():
    p = direct_product(make_cycle(3), make_complete(3))
    fibre = layer(p, "G", 2)
    assert len(fibre) == 3
    assert is_independent(p.graph, fibre)


def test_projection():
    p = direct_product(make_path(3), make_complete(2))
    s = vertex_set(p.graph, (p.encode(0, 1), p.encode(2, 1)))
    assert project(p, "G", s).members() == (0, 2)
    assert project(p, "H", s).members() == (1,)
    empty = vertex_set(p.graph, ())
    assert project(p, "G", empty).members() == ()
    assert project(p, "G", layer(p, "H", 1)).members() == (1,)


def test_inherited_maximal_independence():
    """A maximal independent set of G, crossed with V(H), stays maximal."""
    rng = random.Random(17)
    for _ in range(25):
        left = random_graph(rng, rng.randint(1, 8), 0.45)
        nh = rng.randint(2, 5)
        while True:
            right = random_graph(rng, nh, 0.6)
            if right.n and min_degree(right) >= 1:
                break
        prod = direct_product(left, right)
        for members in brute_maximal_independent_sets(left):
            lifted = vertex_set(
                prod.graph, [prod.encode(g, h) for g in members for h in range(right.n)]
            )
            assert is_maximal_independent(prod.graph, lifted)


def test_product_labels_compose():
    left = build_graph(2, [(0, 1)], labels=("a", "b"))
    right = build_graph(2, [(0, 1)], labels=("x", "y"))
    p = direct_product(left, right)
    assert p.graph.labels == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")
