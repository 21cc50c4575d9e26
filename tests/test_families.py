import pytest

from idomlab.families import (
    GN_BLOCK_SETS,
    HN_BLOCK_SETS,
    FamilySpec,
    build_family,
    build_family_with_witness,
    counterexample_product,
    extreme_product,
    family_size,
    make_cocktail,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_Gn,
    make_Hn,
    make_path,
    make_X,
    parse_family,
)
from idomlab.graph import Graph, build_graph, induced_subgraph, is_connected, max_degree, min_degree
from idomlab.invariants import (
    enumerate_maximal_independent_sets,
    independent_domination_number,
    is_maximal_independent,
    is_total_dominating,
)
from idomlab.graph import VertexSet
from idomlab.products import MAX_PRODUCT_VERTICES, MAX_ROW_BYTES, direct_product


class TestPlainFamilies:
    def test_cycle3_is_complete(self):
        assert make_cycle(3) == make_complete(3)

    def test_kbip33(self):
        g = make_complete_bipartite(3, 3)
        assert g.n == 6 and g.edge_count() == 9

    def test_path1_is_single_vertex(self):
        g = make_path(1)
        assert g.n == 1 and g.edge_count() == 0

    def test_paths_and_cycles_have_the_edge_list_rows(self):
        """The directly built rows equal ``build_graph``'s, and pass the full row check."""
        for m in (*range(1, 65), 3000):
            path = make_path(m)
            assert path.adj == build_graph(m, [(i, i + 1) for i in range(m - 1)]).adj
            assert Graph(m, path.adj) == path
            if m >= 3:
                cycle = make_cycle(m)
                assert cycle.adj == build_graph(m, [(i, (i + 1) % m) for i in range(m)]).adj
                assert Graph(m, cycle.adj) == cycle

    def test_parameter_floors(self):
        with pytest.raises(ValueError):
            make_path(0)
        with pytest.raises(ValueError):
            make_cycle(2)
        with pytest.raises(ValueError):
            make_complete_bipartite(0, 3)


class TestCocktail:
    def test_r3(self):
        g, witness = make_cocktail(3)
        assert g.n == 6 and g.edge_count() == 12
        assert is_maximal_independent(g, witness)
        assert independent_domination_number(g).value == 2

    def test_r2_is_a_four_cycle(self):
        g, _ = make_cocktail(2)
        assert g.n == 4 and min_degree(g) == max_degree(g) == 2 and is_connected(g)

    def test_r4_is_complement_of_perfect_matching(self):
        g, _ = make_cocktail(4)
        complement_edges = [
            (u, v)
            for u in range(8)
            for v in range(u + 1, 8)
            if not g.has_edge(u, v)
        ]
        assert sorted(complement_edges) == [(0, 1), (2, 3), (4, 5), (6, 7)]

    def test_r_floor(self):
        with pytest.raises(ValueError):
            make_cocktail(1)


class TestXFamily:
    def test_x3_order_and_witness(self):
        g, witness = make_X(3)
        assert g.n == 16
        assert is_maximal_independent(g, witness)
        assert len(witness) == 5

    def test_exact_values(self):
        for m in (3, 4):
            g, _ = make_X(m)
            assert independent_domination_number(g).value == m + 2

    def test_m_floor(self):
        with pytest.raises(ValueError):
            make_X(2)

    def test_labels(self):
        g, _ = make_X(3)
        assert g.labels[:4] == ("x1", "x2", "x3", "x4")
        assert g.labels[4] == "a1" and g.labels[-1] == "d3"


class TestExtremePairFactors:
    def test_orders(self):
        for n in (1, 3, 7):
            assert make_Gn(n)[0].n == 12 + 5 * n
            assert make_Hn(n)[0].n == 6 + 7 * n

    def test_witnesses_verify(self):
        for n in (1, 3, 11):
            for factory in (make_Gn, make_Hn):
                g, witness = factory(n)
                assert len(witness) == n + 2
                assert is_maximal_independent(g, witness)

    def test_exact_values_small(self):
        for factory in (make_Gn, make_Hn):
            g, _ = factory(3)
            assert independent_domination_number(g).value == 5

    def test_gn_pair_part_maximal_independent_shapes(self):
        """The twelve paired vertices admit exactly the five listed shapes."""
        g, _ = make_Gn(2)
        core = induced_subgraph(g, range(12))
        pair_of = lambda v: v // 2 + 1
        shapes = set()
        count = 0
        for mis in enumerate_maximal_independent_sets(core):
            members = mis.members()
            assert len({pair_of(v) for v in members}) == len(members)
            shapes.add(tuple(sorted(pair_of(v) for v in members)))
            count += 1
        assert shapes == {(1, 2), (1, 3, 4), (2, 5), (3, 4, 6), (5, 6)}
        assert count == 4 + 8 + 4 + 8 + 4

    def test_hn_base_part_maximal_independent_sets(self):
        g, _ = make_Hn(2)
        core = induced_subgraph(g, range(6))
        found = {
            tuple(v + 1 for v in mis.members())
            for mis in enumerate_maximal_independent_sets(core)
        }
        assert found == {
            (1, 5),
            (1, 6),
            (2, 4),
            (3, 5),
            (2, 6),
            (2, 3),
            (4, 5),
        }

    def test_block_index_sets_totally_dominate_the_other_factor(self):
        n = 3
        gn, _ = make_Gn(n)
        hn, _ = make_Hn(n)
        for index_set in GN_BLOCK_SETS:
            members = VertexSet.from_vertices(hn.n, [j - 1 for j in index_set])
            assert is_total_dominating(hn, members)
        for index_set in HN_BLOCK_SETS:
            pair_vertices = [
                v for k in index_set for v in (2 * (k - 1), 2 * k - 1)
            ]
            assert is_total_dominating(gn, VertexSet.from_vertices(gn.n, pair_vertices))


class TestProductWitnesses:
    def test_x3_cocktail3(self):
        product, witness = counterexample_product(3, 3)
        assert product.graph.n == 96 and len(witness) == 8
        assert is_maximal_independent(product.graph, witness)

    def test_g3_h3(self):
        product, witness = extreme_product(3)
        assert product.graph.n == 27 * 27 and len(witness) == 12
        assert is_maximal_independent(product.graph, witness)

    def test_g11_h11(self):
        product, witness = extreme_product(11)
        assert product.graph.n == 67 * 83 and len(witness) == 12
        assert is_maximal_independent(product.graph, witness)


class TestFamilySpecs:
    def test_parse_and_build(self):
        spec = parse_family("kbip:3,3")
        assert spec == FamilySpec("kbip", (3, 3))
        assert str(spec) == "kbip:3,3"
        assert build_family(spec).edge_count() == 9

    def test_witness_passthrough(self):
        graph, witness = build_family_with_witness("X:3")
        assert witness is not None and is_maximal_independent(graph, witness)
        graph, witness = build_family_with_witness("path:5")
        assert witness is None

    def test_parse_errors(self):
        for bad in ("nosuch:3", "cycle", "cycle:x", "kbip:3", "path:\u0663", "path: +4"):
            with pytest.raises(ValueError):
                parse_family(bad)

    def test_size_matches_the_built_graph(self):
        specs = [FamilySpec(kind, (k,)) for kind in ("path", "cycle", "complete", "cocktail",
                                                      "X", "Gn", "Hn") for k in range(1, 8)]
        specs += [FamilySpec("kbip", (a, b)) for a in range(1, 5) for b in range(1, 5)]
        built = 0
        for spec in specs:
            try:
                graph = build_family(spec)
            except ValueError:
                continue  # a parameter below the family's floor
            assert family_size(spec) == (graph.n, graph.edge_count()), spec
            built += 1
        assert built == len(specs) - 5  # cycle:1,2, cocktail:1, X:1,2

    @pytest.mark.parametrize(
        "spec, what",
        [("kbip:1,100000", "vertices"), ("complete:448", "edges"), ("complete:100000", "edges")],
    )
    def test_oversized_spec_refused_before_building(self, spec, what):
        with pytest.raises(ValueError, match=f"{what}, above the limit of {MAX_PRODUCT_VERTICES}"):
            build_family(spec)

    def test_specs_within_the_limit_build(self):
        assert build_family("complete:447").edge_count() == 447 * 446 // 2
        assert build_family("kbip:1,299").n == 300

    def test_rows_above_the_memory_ceiling_refused_before_building(self):
        # within the vertex and edge limits, but 100000 rows of up to 12500 bytes
        with pytest.raises(
            ValueError, match=f"rows take up to 1250000000 bytes, above the limit of {MAX_ROW_BYTES} bytes"
        ):
            build_family("path:100000")

    def test_large_graphs_within_the_memory_ceiling_build(self):
        long_path = build_family("path:3000")
        assert direct_product(long_path, build_family("complete:3")).graph.n == 9000
        assert direct_product(build_family("Gn:11"), build_family("Hn:11")).graph.n == 5561

    def test_below_floor_parameters_keep_their_message(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            build_family("complete:-100000")
