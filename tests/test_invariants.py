import random
import sys
import tracemalloc
from functools import lru_cache
from itertools import accumulate, combinations

import pytest

from idomlab import invariants
from idomlab.graph import Graph, build_graph, square_graph
from idomlab.families import (
    build_family,
    make_cocktail,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_X,
)
from idomlab.invariants import (
    BudgetExhausted,
    CapExceeded,
    PREDICATES,
    SolverLimits,
    UndefinedInvariant,
    domination_number,
    enumerate_maximal_independent_sets,
    independence_number,
    independent_domination_number,
    invariant,
    is_2_packing,
    is_dominating,
    is_independent,
    is_maximal_independent,
    is_total_dominating,
    total_domination_number,
    two_packing_number,
    _Deadline,
    _clique_cover_bound,
    _frontier_min_cover,
    _frontier_plan,
    _frontier_width,
    _last_neighbours,
)
from idomlab.labelling import minimize_weight
from idomlab.products import direct_product
from idomlab.smallgraphs import all_graphs, random_connected_graph, random_graph

from oracles import (
    brute_alpha,
    brute_gamma,
    brute_gamma_t,
    brute_i,
    brute_least_optimum,
    brute_maximal_independent_sets,
    brute_rho,
    paired_plan,
    reference_max_independent,
    scored_frontier_min_cover,
    vertex_set,
)


class TestPredicates:
    def test_c5_maximal_independent(self):
        g = make_cycle(5)
        assert is_maximal_independent(g, vertex_set(g, (0, 2)))
        assert not is_maximal_independent(g, vertex_set(g, (0,)))
        assert not is_maximal_independent(g, vertex_set(g, (0, 1)))

    def test_p4_total_dominating(self):
        g = make_path(4)
        assert is_total_dominating(g, vertex_set(g, (1, 2)))
        assert not is_total_dominating(g, vertex_set(g, (1,)))

    def test_p7_two_packing(self):
        g = make_path(7)
        assert is_2_packing(g, vertex_set(g, (0, 3, 6)))
        assert not is_2_packing(g, vertex_set(g, (0, 2)))

    def test_dominating_vs_independent(self):
        g = make_cycle(4)
        assert is_dominating(g, vertex_set(g, (0, 1)))
        assert not is_independent(g, vertex_set(g, (0, 1)))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            is_independent(make_path(3), vertex_set(make_path(4), (0,)))


class TestExactSolvers:
    def test_alpha_examples(self):
        assert independence_number(make_cycle(5)).value == 2
        assert independence_number(make_complete_bipartite(3, 3)).value == 3
        assert independence_number(make_path(6)).value == brute_alpha(make_path(6)) == 3

    def test_i_examples(self):
        assert independent_domination_number(make_cycle(7)).value == 3  # ceil(7/3)
        x3, _ = make_X(3)
        assert independent_domination_number(x3).value == 5
        h4, _ = make_cocktail(4)
        assert independent_domination_number(h4).value == 2

    def test_gamma_family(self):
        c6 = make_cycle(6)
        assert domination_number(c6).value == brute_gamma(c6) == 2
        assert total_domination_number(c6).value == brute_gamma_t(c6) == 4
        assert two_packing_number(c6).value == brute_rho(c6) == 2

    def test_gamma_t_undefined_with_isolates(self):
        with pytest.raises(UndefinedInvariant):
            total_domination_number(build_graph(3, [(0, 1)]))

    def test_dispatcher(self):
        assert invariant(make_cycle(6), "gamma").value == 2
        with pytest.raises(ValueError):
            invariant(make_cycle(6), "chromatic")

    def test_against_bruteforce_random(self):
        rng = random.Random(424)
        for _ in range(60):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.uniform(0.15, 0.8))
            assert independence_number(g).value == brute_alpha(g)
            assert independent_domination_number(g).value == brute_i(g)
            assert domination_number(g).value == brute_gamma(g)
            assert two_packing_number(g).value == brute_rho(g)
            expected_gt = brute_gamma_t(g)
            if expected_gt is None:
                with pytest.raises(UndefinedInvariant):
                    total_domination_number(g)
            else:
                assert total_domination_number(g).value == expected_gt

    def test_witnesses_reverify_and_match_value(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, 0.4)
            for name in ("i", "alpha", "gamma", "rho"):
                result = invariant(g, name)
                assert PREDICATES[name](g, result.witness)
                assert len(result.witness) == result.value

    def test_clique_cover_bound_is_the_plain_greedy_cover(self):
        # each vertex joins the first clique it is adjacent to throughout
        def plain_greedy(adj, candidates):
            cliques = []
            for v in range(len(adj)):
                if (candidates >> v) & 1:
                    for idx, members in enumerate(cliques):
                        if members & ~adj[v] == 0:
                            cliques[idx] |= 1 << v
                            break
                    else:
                        cliques.append(1 << v)
            return len(cliques)

        rng = random.Random(321)
        for _ in range(300):
            n = rng.randint(0, 24)
            g = random_graph(rng, n, rng.uniform(0.05, 0.9))
            candidates = rng.getrandbits(n) if n else 0
            assert _clique_cover_bound(g.adj, candidates) == plain_greedy(g.adj, candidates)

    def test_invariant_chain(self):
        rng = random.Random(5150)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, 0.35)
            alpha = independence_number(g).value
            i_val = independent_domination_number(g).value
            gamma = domination_number(g).value
            rho = two_packing_number(g).value
            assert rho <= gamma <= i_val <= alpha


class TestCanonicalWitnesses:
    def test_i_witness_is_lexicographically_least(self):
        rng = random.Random(808)
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, 0.4)
            result = independent_domination_number(g)
            optima = sorted(
                s
                for s in brute_maximal_independent_sets(g)
                if len(s) == result.value
            )
            assert result.witness.members() == optima[0]

    @pytest.mark.parametrize("name", ["gamma", "gamma_t", "alpha", "rho"])
    def test_witness_is_lexicographically_least(self, name):
        rng = random.Random(809)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.15, 0.7))
            expected = brute_least_optimum(g, name)
            if expected is None:
                with pytest.raises(UndefinedInvariant):
                    invariant(g, name)
                continue
            result = invariant(g, name)
            assert (result.value, result.witness.members()) == (len(expected), expected)

    def test_deterministic_across_runs(self):
        g = random_graph(random.Random(1234), 12, 0.3)
        first = independent_domination_number(g)
        second = independent_domination_number(g)
        assert first.witness == second.witness and first.value == second.value


COVER_INVARIANTS = ("i", "gamma", "gamma_t")


def cover_rows(g, name):
    """The cover kernel's (coverage, chooser, conflict) rows, as the solvers build them."""
    closed = tuple(g.adj[v] | (1 << v) for v in range(g.n))
    none = (0,) * g.n
    return {
        "i": (closed, closed, g.adj),
        "gamma": (closed, closed, none),
        "gamma_t": (g.adj, g.adj, none),
    }[name]


# whether a chosen vertex rejects its neighbours, and whether it covers itself
COVER_FACTS = {"i": (True, True), "gamma": (False, True), "gamma_t": (False, False)}


def frontier_dp(g, name):
    """The frontier DP for one invariant, over the plan the router builds."""
    last = _last_neighbours(g.adj)
    plan = _frontier_plan(g.adj, last)
    return _frontier_min_cover(_Deadline(None), plan, _frontier_width(last), *COVER_FACTS[name])


def scored_dp(g, name):
    """The score-carrying reference DP on the cover kernel's rows, over the same plan."""
    last = _last_neighbours(g.adj)
    plan = paired_plan(_frontier_plan(g.adj, last))
    rows = cover_rows(g, name)
    return scored_frontier_min_cover(_Deadline(None), *rows, plan, _frontier_width(last))


def defined(g, name):
    return name != "gamma_t" or (g.n > 0 and all(g.adj))


def forced_search(g, name):
    """``(value, witness bits)`` from the branch-and-bound, whatever the graph's order and width."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "_DP_MIN_ORDER", g.n + 1)
        result = invariant(g, name, SolverLimits(vertex_cap=max(g.n, 40)))
    assert result.method == "branch-and-bound"
    return result.value, result.witness.bits


def two_paths(a, b):
    """Disjoint paths on vertices ``0..a-1`` and ``a..a+b-1``."""
    edges = [(u, u + 1) for u in range(a - 1)] + [(a + u, a + u + 1) for u in range(b - 1)]
    return build_graph(a + b, edges)


def narrow_covers(name):
    """Graphs of 24 to 60 vertices within the DP's width cap.

    ``P_m x K_3`` and ``P_m x K_4`` stop lower for gamma and gamma_t, where
    the branch-and-bound they are checked against takes seconds (gamma_t on
    ``P_9 x K_3`` about 0.6 s, gamma on ``P_13 x K_4`` about 2 s).
    """
    top = {"i": 60, "gamma": 36, "gamma_t": 26}[name]
    graphs = [
        direct_product(make_path(m), make_complete(n)).graph
        for n in (3, 4)
        for m in range(-(-24 // n), top // n + 1)
    ]
    graphs += [direct_product(make_path(m), make_complete(2)).graph for m in range(12, 31, 3)]
    graphs += [direct_product(make_cycle(m), make_complete(2)).graph for m in range(12, 30, 4)]
    graphs += [two_paths(t // 2, t - t // 2) for t in range(24, 61, 6)]
    return graphs


@lru_cache(maxsize=None)
def graphs_up_to_order_seven():
    """Every graph of order at most 7 up to isomorphism, order 7 with repeats.

    A graph of order 7 is a graph of order 6 plus a vertex of minimum degree,
    so extending the catalogue's order-6 graphs reaches every class; the
    catalogue's own order-7 enumeration takes tens of seconds.
    """
    graphs = [g for n in range(7) for g in all_graphs(n)]
    for g in [g for g in graphs if g.n == 6]:
        for nb in range(1 << 6):
            adj = tuple(row | ((nb >> u) & 1) << 6 for u, row in enumerate(g.adj)) + (nb,)
            if nb.bit_count() <= min(row.bit_count() for row in adj):
                graphs.append(Graph(7, adj))
    return tuple(graphs)


def max_references(g):
    """``(value, witness bits)`` of alpha and rho from the reference search."""
    return tuple(reference_max_independent(h, _Deadline(None)) for h in (g, square_graph(g)))


def max_solves(g):
    """``(value, witness bits)`` of alpha and rho from the solvers."""
    limits = SolverLimits(vertex_cap=max(g.n, 40))
    results = (independence_number(g, limits), two_packing_number(g, limits))
    return tuple((result.value, result.witness.bits) for result in results)


class TestMaxIndependentReference:
    """alpha and rho on the cover kernel against the reference search, value and witness bits."""

    def test_graphs_up_to_order_seven(self):
        for g in graphs_up_to_order_seven():
            assert max_solves(g) == max_references(g)

    def test_paths_and_cycles(self):
        graphs = [make_path(m) for m in (*range(1, 61), 300)]
        graphs += [make_cycle(m) for m in (*range(3, 61), 300)]
        for g in graphs:
            assert max_solves(g) == max_references(g)

    def test_path_products_and_families(self):
        graphs = [
            direct_product(make_path(m), make_complete(n)).graph
            for n in (1, 2, 3, 4)
            for m in range(1, 13)
        ]
        specs = [f"X:{m}" for m in range(3, 7)] + [f"cocktail:{r}" for r in range(2, 9)]
        specs += [f"kbip:{a},{b}" for a in range(1, 7) for b in range(1, 7)]
        specs += ["Gn:1", "Gn:2", "Hn:1", "Hn:2", "Hn:3"]
        graphs += [build_family(spec) for spec in specs]
        for g in graphs:
            assert max_solves(g) == max_references(g)

    def test_dense_factor_draws(self):
        # the dense-factors benchmark's distribution: connected G(n, 0.15), n = 24..28
        rng = random.Random(1717)
        for _ in range(500):
            g = random_connected_graph(rng, rng.randint(24, 28), 0.15)
            assert max_solves(g) == max_references(g)

    def test_random_graphs(self):
        rng = random.Random(1718)
        isolated = 0
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 20), rng.uniform(0.05, 0.9))
            isolated += not all(g.adj)
            assert max_solves(g) == max_references(g)
        assert isolated > 100


class TestFrontierPlan:
    def test_slots_hold_the_frontier(self):
        """At every step the plan names the frontier's neighbours, in slots below the width."""
        graphs = list(graphs_up_to_order_seven())
        graphs += [
            direct_product(make_path(m), make_complete(n)).graph
            for m in range(1, 13)
            for n in (1, 2, 3, 4)
        ]
        graphs += [make_cycle(m) for m in range(3, 40)]
        for g in graphs:
            last = _last_neighbours(g.adj)
            width = _frontier_width(last)
            plan = list(_frontier_plan(g.adj, last))
            assert len(plan) == g.n
            slot = {}
            for v, (near, leaving, own) in enumerate(plan):
                frontier = [u for u in range(v) if g.adj[u] >> v]  # a neighbour from v on
                assert near == tuple(slot[u] for u in frontier if (g.adj[v] >> u) & 1)
                assert leaving == tuple(slot[u] for u in frontier if not g.adj[u] >> (v + 1))
                assert (own == -1) == (not g.adj[v] >> (v + 1))
                if own >= 0:
                    slot[v] = own
                held = [slot[u] for u in range(v + 1) if g.adj[u] >> (v + 1)]
                assert len(set(held)) == len(held)
                assert all(0 <= s < width for s in held)
                assert all(0 <= s < width for s in near)


class TestFrontierDP:
    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_router_frontier_is_the_rows_frontier(self, name):
        """The kernel's rows reach as far as the graph's, whose plan the reference DP reads."""
        graphs = list(graphs_up_to_order_seven()) + [make_path(100), make_cycle(100)]
        for g in graphs:
            rows = cover_rows(g, name)
            union = tuple(a | b | c for a, b, c in zip(*rows))
            assert _last_neighbours(union) == _last_neighbours(g.adj)

    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_matches_branch_and_bound_up_to_order_seven(self, name):
        for g in graphs_up_to_order_seven():
            if defined(g, name):
                result = invariant(g, name)
                assert result.method == "branch-and-bound"
                assert frontier_dp(g, name) == (result.value, result.witness.bits)

    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_matches_branch_and_bound_on_paths_and_cycles(self, name):
        for m in range(3, 31):
            for g in (make_path(m), make_cycle(m)):
                assert frontier_dp(g, name) == forced_search(g, name)

    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_routed_narrow_covers_match_branch_and_bound(self, name):
        limits = SolverLimits(vertex_cap=60)
        for g in narrow_covers(name):
            result = invariant(g, name, limits)
            assert result.method == "frontier-dp"
            assert (result.value, result.witness.bits) == forced_search(g, name)

    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_frontiers_of_width_zero_one_and_two(self, name):
        # no slot at all, one slot for a star's hub, two for kbip:2,28's hubs
        for g in (build_graph(30, []), build_family("kbip:1,29"), build_family("kbip:2,28")):
            if defined(g, name):
                result = invariant(g, name)
                assert result.method == "frontier-dp"
                assert (result.value, result.witness.bits) == forced_search(g, name)

    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_matches_brute_force_least_optimum(self, name):
        rng = random.Random(606)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.7))
            expected = brute_least_optimum(g, name)
            if expected is not None:
                assert frontier_dp(g, name) == (len(expected), vertex_set(g, expected).bits)

    def test_route_follows_order_and_frontier_width(self):
        limits = SolverLimits(vertex_cap=100)
        narrow = make_path(100)
        for name in COVER_INVARIANTS:
            result = invariant(narrow, name, limits)
            assert result.method == "frontier-dp"
            assert PREDICATES[name](narrow, result.witness)
        for g in (
            make_path(invariants._DP_MIN_ORDER),
            direct_product(make_path(20), make_complete(4)).graph,  # width 6
        ):
            assert invariant(g, "i", limits).method == "frontier-dp"
        wide = [
            make_path(invariants._DP_MIN_ORDER - 1),  # narrow, but below the order floor
            direct_product(make_cycle(10), make_complete(3)).graph,  # width 7
            random_connected_graph(random.Random(1), 26, 0.15),  # a dense-factors draw
        ]
        for g in wide:
            for name in ("i", "gamma"):  # the route depends on the graph alone
                assert invariant(g, name, limits).method == "branch-and-bound"


def narrow_graph(rng, n, band, p):
    """A random graph whose edges join vertices at most ``band`` apart: width at most ``band``."""
    edges = [(u, v) for v in range(n) for u in range(max(0, v - band), v) if rng.random() < p]
    return build_graph(n, edges)


class TestLayerMemo:
    """The memoized DP against the score-carrying reference DP, value and witness bits."""

    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_matches_reference_on_paths_and_cycles(self, name):
        for m in (*range(3, 61), 900, 3000):
            for g in (make_path(m), make_cycle(m)):
                assert frontier_dp(g, name) == scored_dp(g, name)

    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_matches_reference_on_narrow_products(self, name):
        graphs = [
            direct_product(make_path(m), make_complete(n)).graph
            for n in (1, 2, 3, 4)
            for m in (*range(1, 25), 50, 101, 300)
        ]
        graphs += [direct_product(make_cycle(m), make_complete(2)).graph for m in range(3, 101)]
        for g in graphs:
            if defined(g, name):
                assert frontier_dp(g, name) == scored_dp(g, name)

    def test_matches_reference_on_random_narrow_graphs(self):
        rng = random.Random(1616)
        disconnected = isolated = 0
        for _ in range(500):
            band = rng.randint(0, 6)
            g = narrow_graph(rng, rng.randint(1, 60), band, rng.uniform(0.05, 0.9))
            last = _last_neighbours(g.adj)
            assert _frontier_width(last) <= band
            # no edge joins vertices up to v with those after v
            reach = list(accumulate(last, max))
            disconnected += any(reach[v] == v for v in range(g.n - 1))
            isolated += not all(g.adj)
            for name in COVER_INVARIANTS:
                if defined(g, name):
                    assert frontier_dp(g, name) == scored_dp(g, name)
        assert disconnected > 100 and isolated > 100

    def test_memory_where_layers_never_repeat(self):
        # on this graph no (plan step, layer id) recurs (measured), so every
        # vertex is worked out and its layer stored
        g = narrow_graph(random.Random(5), 3000, 5, 0.5)
        assert _frontier_width(_last_neighbours(g.adj)) == 5
        tracemalloc.start()
        try:
            result = frontier_dp(g, "i")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == scored_dp(g, "i")
        assert peak < 16 * 2**20


class TestEnumeration:
    def test_p3(self):
        sets = [s.members() for s in enumerate_maximal_independent_sets(make_path(3))]
        assert sets == [(0, 2), (1,)]

    def test_k3(self):
        sets = [s.members() for s in enumerate_maximal_independent_sets(make_complete(3))]
        assert sets == [(0,), (1,), (2,)]

    def test_c5(self):
        sets = [s.members() for s in enumerate_maximal_independent_sets(make_cycle(5))]
        assert len(sets) == 5 and all(len(s) == 2 for s in sets)

    def test_matches_bruteforce_and_is_deterministic(self):
        rng = random.Random(3141)
        graphs = [build_graph(0, [])]  # the empty graph has one maximal set, the empty one
        for _ in range(40):
            graphs.append(random_graph(rng, rng.randint(1, 9), 0.4))
        for g in graphs:
            once = [s.members() for s in enumerate_maximal_independent_sets(g)]
            again = [s.members() for s in enumerate_maximal_independent_sets(g)]
            assert once == again
            assert len(set(once)) == len(once)
            assert set(once) == brute_maximal_independent_sets(g)

    def test_solver_equals_enumeration_minimum(self):
        rng = random.Random(2020)
        for _ in range(25):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.uniform(0.2, 0.6))
            best = min(len(s) for s in enumerate_maximal_independent_sets(g))
            assert independent_domination_number(g).value == best


class TestLayerSizes:
    def test_layer_trichotomy_small_exhaustive(self):
        """Maximal independent sets meet each complete-factor layer in 0, 1, or n."""
        rng = random.Random(404)
        for _ in range(15):
            ng = rng.randint(1, 4)
            left = random_graph(rng, ng, 0.5)
            for n in (2, 3):
                prod = direct_product(left, make_complete(n))
                mask = (1 << n) - 1
                for mis in enumerate_maximal_independent_sets(prod.graph):
                    for g in range(ng):
                        chunk = (mis.bits >> (g * n)) & mask
                        assert chunk.bit_count() in (0, 1, n)


class TestLimits:
    def test_cap(self):
        g = make_path(12)
        with pytest.raises(CapExceeded):
            independent_domination_number(g, SolverLimits(vertex_cap=10))

    def test_budget(self):
        # a sparse 55-vertex instance takes well over the granted budget
        g = random_graph(random.Random(13), 55, 0.08)
        with pytest.raises(BudgetExhausted):
            independent_domination_number(
                g, SolverLimits(vertex_cap=64, budget_secs=0.01)
            )
        # alpha and rho each take over 3 s on this sparse 120-vertex instance
        g = random_graph(random.Random(13), 120, 0.025)
        for solver in (independence_number, two_packing_number):
            with pytest.raises(BudgetExhausted):
                solver(g, SolverLimits(vertex_cap=120, budget_secs=0.01))

    def test_searches_do_not_recurse(self):
        # each search keeps its own stack: 600 vertices deep under a limit of 200
        matching = build_graph(600, [(2 * k, 2 * k + 1) for k in range(300)])
        evens = tuple(range(0, 600, 2))
        limits = SolverLimits(vertex_cap=600)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            solvers = (independent_domination_number, independence_number, two_packing_number)
            results = [solve(matching, limits) for solve in solvers]
            first = next(enumerate_maximal_independent_sets(matching, limits))
            _, labelled = minimize_weight(build_family("kbip:1,299"), 3, limits)
        finally:
            sys.setrecursionlimit(limit)
        # a matching is its own square, so rho's answer is alpha's
        for result in results:
            assert result.value == 300 and result.witness.members() == evens
        assert first.members() == evens
        assert labelled == 3

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded):
            list(
                enumerate_maximal_independent_sets(
                    make_path(12), SolverLimits(vertex_cap=10)
                )
            )
