import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from idomlab.graph import (
    INFINITY,
    Graph,
    VertexSet,
    build_graph,
    closed_neighborhood,
    distance,
    induced_subgraph,
    is_bipartite,
    is_claw_free,
    is_connected,
    max_degree,
    min_degree,
    square_graph,
)
from idomlab.families import make_complete_bipartite, make_cycle, make_path

from oracles import bfs_all_pairs, brute_claw_free, brute_two_coloring


def random_edges(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1 if pairs else 0))
    edges = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
    return build_graph(n, edges)


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.edge_count() == 1

    def test_k3_degrees(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert [g.degree(v) for v in range(3)] == [2, 2, 2]

    def test_duplicate_edges_collapse(self):
        g = build_graph(4, [(0, 1), (0, 1)])
        assert g.edge_count() == 1

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside"):
            build_graph(3, [(0, 3)])

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            build_graph(3, [(1, 1)])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            build_graph(3, [(0, 1)], ["a", "b"])

    @pytest.mark.parametrize(
        "n, adj, labels, message",
        [
            (2, (0b10, 0b00), None, "asymmetric"),
            (2, (0b01, 0b00), None, "loop"),
            (2, (0b100, 0b000), None, "outside"),
            (2, (-1, 0), None, "outside"),
            (3, (0b10, 0b01), None, "row count"),
            (2, (0b10, 0b01), ("a",), "label count"),
        ],
    )
    def test_public_constructor_checks_every_row(self, n, adj, labels, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, adj, labels)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_adjacency_symmetric_and_loopless(self, g):
        for v in range(g.n):
            assert not (g.adj[v] >> v) & 1
            for u in g.neighbors(v):
                assert g.has_edge(u, v) and g.has_edge(v, u)


class TestNeighborhoodsAndDistance:
    def test_closed_neighborhood_p3_centre(self):
        g = make_path(3)
        assert closed_neighborhood(g, 1).members() == (0, 1, 2)

    def test_closed_neighborhood_isolated(self):
        g = build_graph(1, [])
        assert closed_neighborhood(g, 0).members() == (0,)

    def test_closed_neighborhood_cycle(self):
        g = make_cycle(5)
        assert closed_neighborhood(g, 0).members() == (0, 1, 4)

    def test_path_endpoints(self):
        assert distance(make_path(4), 0, 3) == 3

    def test_disconnected_infinite(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert distance(g, 0, 2) == INFINITY

    def test_even_cycle_antipodal(self):
        assert distance(make_cycle(6), 0, 3) == 3

    def test_metric_against_all_pairs_bfs(self):
        rng = random.Random(314)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = build_graph(n, random_edges(rng, n, 0.35))
            d = [[distance(g, u, v) for v in range(n)] for u in range(n)]
            assert d == bfs_all_pairs(g)
            for u in range(n):
                assert d[u][u] == 0
                for v in range(n):
                    assert d[u][v] == d[v][u]
                    for w in range(n):
                        assert d[u][w] <= d[u][v] + d[v][w]


class TestBipartite:
    def test_even_cycle(self):
        sides = is_bipartite(make_cycle(6))
        assert sides is not None
        assert sides[0].members() == (0, 2, 4)
        assert sides[1].members() == (1, 3, 5)

    def test_odd_cycle(self):
        assert is_bipartite(make_cycle(5)) is None

    def test_k2(self):
        sides = is_bipartite(build_graph(2, [(0, 1)]))
        assert sides[0].members() == (0,) and sides[1].members() == (1,)

    def test_disconnected_gets_some_bipartition(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        sides = is_bipartite(g)
        assert sides is not None
        a, b = sides
        assert a.bits | b.bits == g.full_bits and a.bits & b.bits == 0

    def test_against_bruteforce_two_coloring(self):
        rng = random.Random(2718)
        for _ in range(60):
            n = rng.randint(0, 8)
            g = build_graph(n, random_edges(rng, n, 0.4))
            assert (is_bipartite(g) is not None) == brute_two_coloring(g)


class TestClawFree:
    def test_claw_itself(self):
        assert not is_claw_free(make_complete_bipartite(1, 3))

    def test_cycle(self):
        assert is_claw_free(make_cycle(7))

    def test_path(self):
        assert is_claw_free(make_path(5))

    def test_against_bruteforce(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(0, 9)
            g = build_graph(n, random_edges(rng, n, 0.35))
            assert is_claw_free(g) == brute_claw_free(g)


class TestDegreesAndHelpers:
    def test_cycle_degrees(self):
        g = make_cycle(6)
        assert (min_degree(g), max_degree(g)) == (2, 2)

    def test_star_degrees(self):
        g = make_complete_bipartite(1, 3)
        assert (min_degree(g), max_degree(g)) == (1, 3)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert (min_degree(g), max_degree(g)) == (0, 0)

    def test_square_of_path(self):
        sq = square_graph(make_path(4))
        assert sorted(sq.edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]

    def test_induced_subgraph(self):
        g = make_cycle(5)
        sub = induced_subgraph(g, [0, 1, 3])
        assert sub.n == 3 and sorted(sub.edges()) == [(0, 1)]

    def test_connectivity(self):
        assert is_connected(make_path(4))
        assert not is_connected(build_graph(3, [(0, 1)]))


class TestVertexSet:
    def test_membership_and_algebra(self):
        a = VertexSet.from_vertices(6, [0, 2, 4])
        b = VertexSet.from_vertices(6, [2, 3])
        assert 2 in a and 1 not in a
        assert a.union(b).members() == (0, 2, 3, 4)
        assert a.intersection(b).members() == (2,)
        assert a.difference(b).members() == (0, 4)
        assert len(a) == a.size == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.from_vertices(3, [3])

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            VertexSet.from_vertices(3, [0]).union(VertexSet.from_vertices(4, [0]))
