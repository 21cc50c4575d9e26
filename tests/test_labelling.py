import random

import pytest

from idomlab import labelling
from idomlab.families import build_family, make_complete, make_cycle, make_path
from idomlab.graph import build_graph
from idomlab.invariants import (
    SolverLimits,
    enumerate_maximal_independent_sets,
    independent_domination_number,
    is_dominating,
    is_independent,
    is_maximal_independent,
)
from idomlab.labelling import (
    IllegalLabelling,
    Labelling,
    check_legal,
    formula_value,
    from_independent_set,
    minimize_weight,
    pattern_labelling,
    to_independent_set,
    weight,
)
from idomlab.products import direct_product
from idomlab.smallgraphs import all_graphs, random_graph

from oracles import brute_least_labelling, brute_min_weight_labelling

FIGURE_PATTERN = (1, 1, 0, 2, 2, 0, 1, 1, 0, 2, 2, 0, 3, 3, 3, 0)


class TestLegality:
    def test_figure_pattern_on_c16(self):
        report = check_legal(make_cycle(16), Labelling(3, FIGURE_PATTERN))
        assert report.legal and report.violations == ()

    def test_all_zero_violates_condition_4(self):
        report = check_legal(make_path(3), Labelling(3, (0, 0, 0)))
        assert not report.legal
        assert {cond for cond, _ in report.violations} == {4}

    def test_adjacent_distinct_classes_violate_condition_1(self):
        report = check_legal(make_complete(2), Labelling(2, (1, 2)))
        assert not report.legal
        assert 1 in {cond for cond, _ in report.violations}

    def test_adjacent_layer_labels_violate_condition_3(self):
        report = check_legal(make_complete(2), Labelling(2, (3, 3)))
        assert {cond for cond, _ in report.violations} == {3}

    def test_lone_class_vertex_violates_condition_2(self):
        report = check_legal(make_path(2), Labelling(2, (1, 0)))
        assert 2 in {cond for cond, _ in report.violations}

    def test_malformed_tag_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            Labelling(3, (0, 5))

    def test_wrong_cover_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            check_legal(make_path(3), Labelling(3, (0, 0)))


class TestWeight:
    def test_figure_weight(self):
        assert weight(Labelling(3, FIGURE_PATTERN)) == 11

    def test_all_zero(self):
        assert weight(Labelling(3, (0, 0, 0))) == 0

    def test_single_layer_label(self):
        assert weight(Labelling(4, (5, 0, 0))) == 4

    def test_string_round_trip(self):
        lab = Labelling(4, (0, 1, 5, 4))
        assert lab.label_strings() == ("0", "1", "[n]", "4")
        assert Labelling.from_strings(4, lab.label_strings()) == lab

    @pytest.mark.parametrize("labels", ["0145", ("0", 1), ("0", 2.0), (True, "1")])
    def test_from_strings_takes_strings_only(self, labels):
        with pytest.raises(ValueError, match="string"):
            Labelling.from_strings(4, labels)

    def test_from_strings_reads_the_printed_tokens(self):
        lab = Labelling.from_strings(3, ["0", "1", "2", "3", "[n]"])
        assert lab.tags == (0, 1, 2, 3, 4)
        assert Labelling.from_strings(12, ["10", "12", "0"]).tags == (10, 12, 0)

    @pytest.mark.parametrize(
        "token", ["+1", " 1", "1 ", "01", "00", "-0", "", "\u0661", "\u00b2", "4", "10", "[3]"]
    )
    def test_from_strings_refuses_other_tokens(self, token):
        # int() reads the first six as class 1 or 0, and "4" as [n]'s tag for n = 3
        with pytest.raises(ValueError, match="unknown label token"):
            Labelling.from_strings(3, ["1", token])


class TestConstructedSets:
    def test_c16_figure_gives_maximal_independent_set_of_size_11(self):
        g = make_cycle(16)
        chosen = to_independent_set(g, Labelling(3, FIGURE_PATTERN))
        assert len(chosen) == 11
        prod = direct_product(g, make_complete(3))
        assert is_maximal_independent(prod.graph, chosen)

    def test_p2_all_class_one(self):
        g = make_path(2)
        chosen = to_independent_set(g, Labelling(3, (1, 1)))
        assert chosen.members() == (0, 3)  # (0, class 1) and (1, class 1)
        prod = direct_product(g, make_complete(3))
        assert is_maximal_independent(prod.graph, chosen)

    def test_illegal_labelling_refused_with_report(self):
        with pytest.raises(IllegalLabelling) as err:
            to_independent_set(make_path(3), Labelling(3, (0, 0, 0)))
        assert not err.value.report.legal

    def test_legal_labellings_always_verify(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(300):
            n_left = rng.randint(1, 5)
            g = random_graph(rng, n_left, 0.5)
            n = rng.randint(2, 4)
            # low tags dominate: uniform tags are almost never legal
            tags = tuple(
                rng.choice((0, 1, 1, 1, 2, n + 1)) for _ in range(n_left)
            )
            lab = Labelling(n, tags)
            if not check_legal(g, lab).legal:
                continue
            checked += 1
            chosen = to_independent_set(g, lab)
            assert len(chosen) == weight(lab)
            prod = direct_product(g, make_complete(n))
            assert is_independent(prod.graph, chosen)
            assert is_dominating(prod.graph, chosen)
        assert checked >= 10


class TestRoundTrips:
    def test_exhaustive_p4_k3(self):
        g = make_path(4)
        prod = direct_product(g, make_complete(3))
        count = 0
        for mis in enumerate_maximal_independent_sets(prod.graph):
            lab = from_independent_set(prod, mis)
            assert check_legal(g, lab).legal
            assert weight(lab) == len(mis)
            assert to_independent_set(g, lab) == mis
            count += 1
        assert count > 0

    def test_labelling_to_set_and_back(self):
        g = make_cycle(16)
        lab = Labelling(3, FIGURE_PATTERN)
        prod = direct_product(g, make_complete(3))
        assert from_independent_set(prod, to_independent_set(g, lab)) == lab

    def test_non_maximal_set_rejected(self):
        g = make_path(2)
        prod = direct_product(g, make_complete(3))
        from idomlab.graph import VertexSet

        with pytest.raises(ValueError, match="maximal"):
            from_independent_set(prod, VertexSet(prod.graph.n, 1))

    def test_non_complete_factor_rejected(self):
        prod = direct_product(make_path(2), make_path(3))
        from idomlab.graph import VertexSet

        with pytest.raises(ValueError, match="complete"):
            from_independent_set(prod, VertexSet(prod.graph.n, 0))


class TestMinimizeWeight:
    def test_named_values(self):
        assert minimize_weight(make_path(5), 3)[1] == 4
        assert minimize_weight(make_cycle(6), 3)[1] == 4
        assert minimize_weight(make_cycle(4), 5)[1] == 4

    def test_returns_legal_optimum(self):
        lab, value = minimize_weight(make_cycle(9), 3)
        assert check_legal(make_cycle(9), lab).legal
        assert weight(lab) == value

    def test_agrees_with_bruteforce_enumeration(self):
        for g in all_graphs(4):
            for n in (2, 3):
                assert minimize_weight(g, n)[1] == brute_min_weight_labelling(g, n)

    def test_least_canonical_labelling_on_all_small_graphs(self):
        """The branch-and-bound, forced; the DP has its own brute-force test."""
        for order in range(7):
            for g in all_graphs(order):
                for n in (2, 3, 4) if order <= 5 else (2, 3):
                    lab, value = routed("search", g, n)
                    assert (value, lab.tags) == brute_least_labelling(g, n)

    def test_agrees_with_product_solver(self):
        rng = random.Random(888)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.8))
            for n in (2, 3, 4):
                via_product = independent_domination_number(
                    direct_product(g, make_complete(n)).graph
                ).value
                assert minimize_weight(g, n)[1] == via_product

    def test_layer_label_needed_with_isolated_vertices(self):
        g = build_graph(1, [])
        lab, value = minimize_weight(g, 3)
        assert value == 3 and lab.tags == (4,)

    def test_layer_free_search_rejects_isolated_vertices(self):
        g = build_graph(3, [(0, 2)])
        with pytest.raises(ValueError, match="vertex 1 is isolated"):
            minimize_weight(g, 3, allow_layer_label=False)

    def test_layer_free_optimum_matches_on_cycles(self):
        """Cycles never need the layer-filling label at the optimum."""
        for m in range(6, 13):
            g = make_cycle(m)
            unrestricted = minimize_weight(g, 3)[1]
            restricted = minimize_weight(g, 3, allow_layer_label=False)[1]
            assert restricted == unrestricted

    def test_value_independent_of_clique_order_on_paths(self):
        for m in range(3, 10):
            g = make_path(m)
            assert minimize_weight(g, 3)[1] == minimize_weight(g, 4)[1]

    def test_path_zero_class_budget(self):
        """Layer-free legal labellings of P_m use at most floor((m-2)/3) zeros."""
        n = 3
        for m in range(3, 10):
            g = make_path(m)
            cap = (m - 2) // 3
            # Every tag tuple over 0..n (no layer label, so condition 3 holds)
            # whose prefixes meet condition 1 on their edges: no two
            # neighbours in distinct classes.  Every legal labelling is one.
            prefixes = [()]
            for v in range(m):
                earlier = [u for u in range(v) if (g.adj[v] >> u) & 1]
                prefixes = [
                    tags + (t,)
                    for tags in prefixes
                    for t in range(n + 1)
                    if not any(t and tags[u] and t != tags[u] for u in earlier)
                ]
            for tags in prefixes:
                if check_legal(g, Labelling(n, tags)).legal:
                    assert tags.count(0) <= cap

    def test_deterministic_canonical_labelling(self):
        g = make_cycle(12)
        first = minimize_weight(g, 3)
        second = minimize_weight(g, 3)
        assert first == second


def routed(route, g, n, allow_layer_label=True):
    """``minimize_weight`` forced onto one route, or the ``ValueError`` it raises.

    ``route`` is ``"dp"`` for the frontier DP or ``"search"`` for the
    branch-and-bound, whatever the graph's order and width.
    """
    with pytest.MonkeyPatch.context() as patch:
        if route == "dp":
            patch.setattr(labelling, "_DP_MIN_ORDER", 0)
            patch.setattr(labelling, "_DP_MAX_WIDTH", g.n)
        else:
            patch.setattr(labelling, "_DP_MIN_ORDER", g.n + 1)
        try:
            return minimize_weight(g, n, SolverLimits(vertex_cap=max(g.n, 40)), allow_layer_label)
        except ValueError as exc:
            return str(exc)


class TestFrontierDP:
    """The DP and the branch-and-bound return the same least canonical optimum."""

    @pytest.mark.parametrize("allow_layer_label", [True, False])
    def test_matches_branch_and_bound_up_to_order_six(self, allow_layer_label):
        refused = 0
        for order in range(7):
            for g in all_graphs(order):
                for n in (2, 3, 4):
                    dp = routed("dp", g, n, allow_layer_label)
                    assert dp == routed("search", g, n, allow_layer_label)
                    refused += isinstance(dp, str)
        # without [n], every graph with an isolated vertex is refused
        assert (refused > 0) == (not allow_layer_label)

    def test_matches_branch_and_bound_on_paths_cycles_and_stars(self):
        for m in range(3, 23):
            for g in (make_path(m), make_cycle(m)):
                for n in (2, 3, 4):
                    assert routed("dp", g, n) == routed("search", g, n)
                assert routed("dp", g, 3, False) == routed("search", g, 3, False)
        for k in range(1, 31):
            star = build_family(f"kbip:1,{k}")
            for n in (2, 3, 4):
                assert routed("dp", star, n) == routed("search", star, n)

    def test_matches_brute_force_least_labelling(self):
        for order in range(6):
            for g in all_graphs(order):
                for n in (2, 3, 4):
                    lab, value = routed("dp", g, n)
                    assert (value, lab.tags) == brute_least_labelling(g, n)

    def test_long_paths_and_cycles_match_the_closed_form(self):
        # beyond the branch-and-bound's reach: its time doubles every vertex or two
        limits = SolverLimits(vertex_cap=60)
        for m in range(23, 61):
            for family, g in (("path", make_path(m)), ("cycle", make_cycle(m))):
                for n in (2, 3, 4):
                    lab, value = minimize_weight(g, n, limits)
                    assert check_legal(g, lab).legal
                    assert value == weight(lab) == formula_value(family, m, n)

    @pytest.mark.parametrize("family, m", [("path", 1000), ("cycle", 999)])
    def test_long_path_and_cycle_at_scale(self, family, m):
        g = build_family(f"{family}:{m}")
        lab, value = minimize_weight(g, 3, SolverLimits(vertex_cap=m))
        assert check_legal(g, lab).legal
        assert value == weight(lab) == formula_value(family, m, 3)

    def test_many_classes_give_the_three_class_value(self):
        # i(C_m x K_n) is the same for every n >= 3; a larger n only adds states
        g, limits = make_cycle(60), SolverLimits(vertex_cap=60)
        assert minimize_weight(g, 20, limits)[1] == minimize_weight(g, 3, limits)[1]

    def test_route_follows_order_and_frontier_width(self, monkeypatch):
        routes = []
        for name in ("_frontier_min_weight", "_search_min_weight"):
            solve = getattr(labelling, name)
            monkeypatch.setattr(
                labelling, name, lambda *args, name=name, solve=solve: routes.append(name) or solve(*args)
            )
        narrow = [make_path(13), make_cycle(13), make_path(300), build_family("kbip:1,40")]
        wide = [
            make_path(labelling._DP_MIN_ORDER - 1),  # narrow, but below the order floor
            make_cycle(labelling._DP_MIN_ORDER - 1),
            build_family("cocktail:8"),  # the widest kn-route factors
            build_family("kbip:6,6"),
            build_family("X:6"),
        ]
        limits = SolverLimits(vertex_cap=300)
        for g in narrow + wide:
            routes.clear()
            lab, value = minimize_weight(g, 3, limits)
            assert check_legal(g, lab).legal and weight(lab) == value
            assert routes == ["_frontier_min_weight" if g in narrow else "_search_min_weight"]


# the dense factors of the benchmark's kn-route workload, beyond the CLI's
# cap of 40 once multiplied by K_n, so ``compute`` never cross-checks them
KN_DENSE_FACTORS = (
    [f"cocktail:{r}" for r in range(4, 9)]
    + [f"kbip:{a},{a}" for a in range(3, 7)]
    + [f"X:{m}" for m in range(3, 7)]
)


class TestSearch:
    """The branch-and-bound with its look-ahead, on dense factors."""

    @pytest.mark.parametrize("spec", KN_DENSE_FACTORS)
    def test_dense_factors_match_the_product(self, spec):
        g = build_family(spec)
        for n in (3, 4):
            lab, value = minimize_weight(g, n)
            product = direct_product(g, make_complete(n)).graph
            assert value == independent_domination_number(product, SolverLimits(product.n)).value
            assert check_legal(g, lab).legal
            assert weight(lab) == value

    @pytest.mark.parametrize("spec, n, most", [("cocktail:8", 4, 1000), ("kbip:6,6", 3, 2000)])
    def test_look_ahead_cuts_dense_factors_short(self, monkeypatch, spec, n, most):
        """Without the look-ahead these take 49,475 and 20,877 nodes."""
        ticks = []

        class Counting(labelling._Deadline):
            def tick(self):
                ticks.append(None)

        monkeypatch.setattr(labelling, "_Deadline", Counting)
        minimize_weight(build_family(spec), n)
        assert 0 < len(ticks) <= most


class TestFormulas:
    def test_examples(self):
        assert formula_value("path", 7, 3) == 6
        assert formula_value("cycle", 5, 4) == 5
        assert formula_value("cycle", 9, 2) == 6

    def test_k2_cycle_parity_from_decomposition(self):
        # odd m: the product is one double-length cycle; even m: two copies
        assert formula_value("cycle", 9, 2) == independent_domination_number(
            direct_product(make_cycle(9), make_complete(2)).graph
        ).value
        assert formula_value("cycle", 8, 2) == independent_domination_number(
            direct_product(make_cycle(8), make_complete(2)).graph
        ).value

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            formula_value("path", 2, 3)
        with pytest.raises(ValueError):
            formula_value("tree", 5, 3)
        with pytest.raises(ValueError):
            formula_value("path", 5, 1)


class TestPatternLabellings:
    def test_c16(self):
        assert pattern_labelling("cycle", 16, 3).tags == FIGURE_PATTERN

    def test_p8(self):
        lab = pattern_labelling("path", 8, 3)
        assert lab.tags == (1, 1, 0, 2, 2, 0, 1, 1)
        assert weight(lab) == 6

    def test_c6(self):
        lab = pattern_labelling("cycle", 6, 3)
        assert lab.tags == (1, 1, 0, 2, 2, 0)
        assert weight(lab) == 4

    def test_small_cycles_all_ones(self):
        for m in (3, 4, 5):
            assert pattern_labelling("cycle", m, 4).tags == (1,) * m

    def test_legal_and_optimal_for_every_order(self):
        for family, build in (("path", make_path), ("cycle", make_cycle)):
            for m in range(3, 41):
                lab = pattern_labelling(family, m, 3)
                assert check_legal(build(m), lab).legal
                assert weight(lab) == formula_value(family, m, 3)

    def test_matches_minimizer_at_small_orders(self):
        for family, build in (("path", make_path), ("cycle", make_cycle)):
            for m in range(3, 13):
                assert weight(pattern_labelling(family, m, 3)) == minimize_weight(
                    build(m), 3
                )[1]


def test_full_layer_recovered_as_layer_label():
    """A vertex whose entire layer lies in the set gets the layer-filling label."""
    from idomlab.graph import VertexSet

    g = make_path(2)
    for n in (2, 3, 4):
        prod = direct_product(g, make_complete(n))
        full_layer = VertexSet.from_vertices(prod.graph.n, [prod.encode(0, h) for h in range(n)])
        assert is_maximal_independent(prod.graph, full_layer)
        lab = from_independent_set(prod, full_layer)
        assert lab.tags == (n + 1, 0)
        assert lab.label_strings() == ("[n]", "0")


def test_layer_count_outside_trichotomy_reported():
    from idomlab.graph import VertexSet

    g = make_path(2)
    prod = direct_product(g, make_complete(3))
    two_of_three = VertexSet.from_vertices(prod.graph.n, [prod.encode(0, 0), prod.encode(0, 1)])
    with pytest.raises(ValueError, match="0, 1 or 3"):
        from_independent_set(prod, two_of_three)
