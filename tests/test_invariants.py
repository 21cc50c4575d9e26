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
    _cover_leaves,
    _frontier_min_cover,
    _frontier_steps,
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
    reference_frontier_min_cover,
    reference_frontier_plan,
    reference_frontier_steps,
    reference_frontier_width,
    reference_last_neighbours,
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

    def test_first_i_leaf_is_the_greedy_maximal_independent_set(self):
        # why a minimum cover's search starts at n + 1: for i a greedy start
        # would cut nothing on the way to this leaf, and leave best the same after it
        rng = random.Random(810)
        for _ in range(500):
            g = random_graph(rng, rng.randint(0, 30), rng.uniform(0.05, 0.6))
            greedy = taken = 0
            for v in range(g.n):
                if not taken >> v & 1:
                    greedy |= 1 << v
                    taken |= g.adj[v] | 1 << v
            rows = cover_rows(g, "i")
            leaves = _cover_leaves(g.full_bits, _Deadline(None), *rows, lambda *node: False)
            assert next(leaves) == greedy

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


def frontier_steps(rows):
    """``(width, steps)`` of the one-pass plan, under no width cap and no budget."""
    return _frontier_steps(rows, len(rows), _Deadline(None))


def frontier_dp(g, name):
    """The frontier DP for one invariant, over the plan the router builds."""
    width, steps = frontier_steps(g.adj)
    return _frontier_min_cover(_Deadline(None), steps, width, *COVER_FACTS[name])


def reference_plan(rows):
    """``(width, plan)`` of the reference plan generator, its steps in a list."""
    last = reference_last_neighbours(rows)
    return reference_frontier_width(last), list(reference_frontier_plan(rows, last))


def scored_dp(g, name):
    """The score-carrying reference DP on the cover kernel's rows, over the reference plan."""
    width, plan = reference_plan(g.adj)
    rows = cover_rows(g, name)
    return scored_frontier_min_cover(_Deadline(None), *rows, paired_plan(plan), width)


def as_masks(plan):
    """A reference plan's steps with their slot tuples turned into slot bitmasks."""
    return [
        (sum(1 << s for s in near), sum(1 << s for s in leaving), own)
        for near, leaving, own in plan
    ]


def last_of_steps(steps):
    """For each vertex, the vertex at which it leaves the frontier, read back from the plan."""
    last = list(range(len(steps)))
    holder = {}  # slot -> the frontier vertex in it
    for v, (near, leaving, own) in enumerate(steps):
        for s in range(leaving.bit_length()):
            if (leaving >> s) & 1:
                last[holder.pop(s)] = v
        if own >= 0:
            holder[own] = v
    return last


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


def labelled_rows(top):
    """The adjacency rows of every labelled graph of order at most ``top``."""
    for n in range(top + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for k, (u, v) in enumerate(pairs):
                if (mask >> k) & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            yield tuple(rows)


class TestFrontierShape:
    """The one-pass plan against the two-pass shape and the plan generator it replaced."""

    @staticmethod
    def assert_matches_reference(rows):
        last = reference_last_neighbours(rows)
        width, steps = frontier_steps(rows)
        assert (last_of_steps(steps), width) == (last, reference_frontier_width(last))
        assert steps == as_masks(reference_plan(rows)[1])
        # under a cap the pass stops as soon as the width passes it
        assert _frontier_steps(rows, width, _Deadline(None)) == (width, steps)
        if width:
            assert _frontier_steps(rows, width - 1, _Deadline(None)) == (width, None)

    def test_every_labelled_graph_up_to_order_six(self):
        for rows in labelled_rows(6):
            self.assert_matches_reference(rows)

    def test_paths_cycles_and_their_products_with_complete_graphs(self):
        for m in (*range(1, 101), 900, 2999, 3000):
            self.assert_matches_reference(build_family(f"path:{m}").adj)
            if m >= 3:
                self.assert_matches_reference(build_family(f"cycle:{m}").adj)
        for n in (1, 2, 3, 4):
            for m in (*range(1, 31), 100, 301):
                factors = [make_path(m)] + ([make_cycle(m)] if m >= 3 else [])
                for g in factors:
                    self.assert_matches_reference(direct_product(g, make_complete(n)).graph.adj)

    def test_random_graphs(self):
        rng = random.Random(2121)
        for _ in range(250):
            self.assert_matches_reference(random_graph(rng, rng.randint(0, 40), rng.random()).adj)
            band = rng.randint(0, 8)
            g = narrow_graph(rng, rng.randint(0, 200), band, rng.uniform(0.05, 0.9))
            self.assert_matches_reference(g.adj)


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
            width, plan = frontier_steps(g.adj)
            assert len(plan) == g.n
            slot = {}
            for v, (near, leaving, own) in enumerate(plan):
                frontier = [u for u in range(v) if g.adj[u] >> v]  # a neighbour from v on
                assert near == sum(1 << slot[u] for u in frontier if (g.adj[v] >> u) & 1)
                assert leaving == sum(1 << slot[u] for u in frontier if not g.adj[u] >> (v + 1))
                assert (own == -1) == (not g.adj[v] >> (v + 1))
                if own >= 0:
                    slot[v] = own
                held = [slot[u] for u in range(v + 1) if g.adj[u] >> (v + 1)]
                assert len(set(held)) == len(held)
                assert all(0 <= s < width for s in held)
                assert near >> width == 0

    def test_equal_steps_are_one_tuple(self):
        product = direct_product(make_path(50), make_complete(3)).graph
        for g in (make_path(300), make_cycle(300), product):
            steps = frontier_steps(g.adj)[1]
            assert len({id(step) for step in steps}) == len(set(steps))


class TestFrontierDP:
    @pytest.mark.parametrize("name", COVER_INVARIANTS)
    def test_router_frontier_is_the_rows_frontier(self, name):
        """The kernel's rows reach as far as the graph's, whose plan the reference DP reads."""
        graphs = list(graphs_up_to_order_seven()) + [make_path(100), make_cycle(100)]
        for g in graphs:
            rows = cover_rows(g, name)
            union = tuple(a | b | c for a, b, c in zip(*rows))
            assert frontier_steps(union) == frontier_steps(g.adj)

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


class TestScoredReference:
    """The frontier DP against the score-carrying reference DP, value and witness bits."""

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
            last, width = reference_last_neighbours(g.adj), frontier_steps(g.adj)[0]
            assert width <= band
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
        assert frontier_steps(g.adj)[0] == 5
        tracemalloc.start()
        try:
            result = frontier_dp(g, "i")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == scored_dp(g, "i")
        assert peak < 16 * 2**20


def with_edges(g, edges):
    """``g`` with ``edges`` added."""
    return build_graph(g.n, list(g.edges()) + edges)


class TestRepeatedBlocks:
    """The DP that copies repeated blocks against the old one, value and witness bits.

    The old DP (``reference_frontier_min_cover``) works out or looks up every
    vertex over the old plan generator's steps.
    """

    @staticmethod
    def assert_matches_reference(g, names=COVER_INVARIANTS):
        width, steps = frontier_steps(g.adj)
        reference_width, plan = reference_plan(g.adj)
        for name in names:
            if defined(g, name):
                facts = COVER_FACTS[name]
                found = _frontier_min_cover(_Deadline(None), steps, width, *facts)
                expected = reference_frontier_min_cover(
                    _Deadline(None), iter(plan), reference_width, *facts
                )
                assert found == expected, (name, g.adj)

    def test_every_labelled_graph_up_to_order_six(self):
        for rows in labelled_rows(6):
            self.assert_matches_reference(Graph(len(rows), rows, _rows_checked=True))

    def test_paths_and_cycles(self):
        for m in (*range(1, 101), 299, 300, 301, 899, 900, 2999, 3000):
            self.assert_matches_reference(make_path(m))
            if m >= 3:
                self.assert_matches_reference(make_cycle(m))

    def test_products_with_complete_graphs(self):
        """``P_m x K_n`` and ``C_m x K_n`` for n <= 4 up to m = 300.

        ``C_m x K_4`` has width 10, where one gamma or gamma_t solve takes
        about 1 s in either DP whatever m, so it is checked on i alone.
        """
        for n in (1, 2, 3, 4):
            for m in (*range(1, 25), 100, 299, 300):
                self.assert_matches_reference(direct_product(make_path(m), make_complete(n)).graph)
            names = COVER_INVARIANTS if n < 4 else ("i",)
            for m in (*range(3, 13), 100, 300):
                cycle = direct_product(make_cycle(m), make_complete(n)).graph
                self.assert_matches_reference(cycle, names)

    def test_seeded_banded_graphs(self):
        rng = random.Random(2222)
        for _ in range(500):
            band = rng.randint(0, 6)
            g = narrow_graph(rng, rng.randint(1, 120), band, rng.choice((0.2, 0.5, 0.9, 0.98, 1.0)))
            self.assert_matches_reference(g)

    def test_last_blocks_that_differ(self):
        """Periodic graphs whose end breaks the period: a chord or a pendant near the end."""
        for m in (30, 31, 32, 100, 299, 300):
            path, cycle = make_path(m), make_cycle(m)
            for extra in ([(m - 5, m - 2)], [(m - 3, m - 1)], [(m - 10, m - 1)], [(0, m - 4)]):
                self.assert_matches_reference(with_edges(path, extra))
                self.assert_matches_reference(with_edges(cycle, extra))
            pendant = build_graph(m + 1, list(path.edges()) + [(m - 2, m)])
            self.assert_matches_reference(pendant)
            product = direct_product(make_path(m // 3), make_complete(3)).graph
            self.assert_matches_reference(with_edges(product, [(product.n - 7, product.n - 1)]))

    def test_repeated_blocks_are_copied(self):
        """The DP reads the clock once for each vertex it works out and each block it copies."""
        for g in (make_path(3000), make_cycle(3000)):
            width, steps = frontier_steps(g.adj)
            for name in COVER_INVARIANTS:
                deadline = CountingDeadline()
                _frontier_min_cover(deadline, steps, width, *COVER_FACTS[name])
                assert deadline.ticks < 50, (g.n, name)

    def test_long_products_are_copied(self):
        """``P_1000 x K_n`` for n = 2, 3, 4 and ``C_999 x K_2``: the DP copies their blocks.

        Each solve of their 2000 to 4000 vertices reads the clock fewer than
        200 times, so all but a few periods are copied, and matches the old DP.
        """
        graphs = [direct_product(make_path(1000), make_complete(n)).graph for n in (2, 3, 4)]
        graphs.append(direct_product(make_cycle(999), make_complete(2)).graph)
        for g in graphs:
            self.assert_matches_reference(g)
            width, steps = frontier_steps(g.adj)
            for name in COVER_INVARIANTS:
                deadline = CountingDeadline()
                _frontier_min_cover(deadline, steps, width, *COVER_FACTS[name])
                assert deadline.ticks < 200, (g.n, name, deadline.ticks)


def band_rows(n, band):
    """Rows of the graph on ``n`` vertices joining every two at most ``band`` apart."""
    return build_graph(n, [(u, v) for v in range(n) for u in range(max(0, v - band), v)]).adj


def broken(m, kind):
    """Paths and cycles of order ``m`` broken in the middle and near either end.

    Each gets a chord, a pendant vertex (added as vertex ``m``) or a missing
    edge at one of three places.
    """
    base = make_path(m) if kind == "path" else make_cycle(m)
    edges = list(base.edges())
    graphs = []
    for at in (1, m // 2, m - 4):
        graphs.append(build_graph(m, edges + [(at - 1, at + 2)]))  # a chord
        graphs.append(build_graph(m + 1, edges + [(at, m)]))  # a pendant
        graphs.append(build_graph(m, [e for e in edges if e != (at, at + 1)]))  # a missing edge
    return graphs


class CountingDeadline(_Deadline):
    """Counts its clock reads, and raises on the ``stop``-th one when ``stop`` is set.

    When ``at`` is given, each read also records how many steps
    ``_frontier_steps`` has made so far.  The pass has no other way to show
    that, so this reads the reading frame's local ``steps``, the list the
    pass returns: it depends on that name.
    """

    def __init__(self, stop=None, at=None):
        super().__init__(None)
        self.ticks = 0
        self.stop = stop
        self.at = at

    def tick(self):
        self.ticks += 1
        if self.at is not None:
            reader = sys._getframe(1)
            assert reader.f_code is _frontier_steps.__code__, "only the plan pass records steps"
            assert "steps" in reader.f_locals, "_frontier_steps no longer keeps its plan in `steps`"
            self.at.append(len(reader.f_locals["steps"]))
        if self.ticks == self.stop:
            raise BudgetExhausted("solver budget exhausted")


class TestPlanCopy:
    """The plan pass that copies repeated blocks against the one that works out every vertex.

    Both return the same width and an equal list of steps, equal steps one
    object, and the same ``(cap + 1, None)`` under a cap the width passes.
    """

    @staticmethod
    def assert_matches_reference(rows):
        for cap in (len(rows), 0, 2, 6):
            width, steps = _frontier_steps(rows, cap, _Deadline(None))
            expected = reference_frontier_steps(rows, cap, _Deadline(None))
            assert (width, steps) == expected, (cap, rows[:8])
            if steps is not None:
                assert len({id(step) for step in steps}) == len(set(steps))

    def test_every_labelled_graph_up_to_order_six(self):
        for rows in labelled_rows(6):
            self.assert_matches_reference(rows)

    def test_paths_and_cycles(self):
        for m in (*range(1, 101), 299, 300, 301, 899, 900, 2999, 3000, 20000):
            self.assert_matches_reference(make_path(m).adj)
            if m >= 3:
                self.assert_matches_reference(make_cycle(m).adj)

    def test_products_with_complete_graphs(self):
        for n in (1, 2, 3, 4):
            for m in (*range(1, 31), 100, 301):
                factors = [make_path(m)] + ([make_cycle(m)] if m >= 3 else [])
                for g in factors:
                    self.assert_matches_reference(direct_product(g, make_complete(n)).graph.adj)

    def test_seeded_narrow_graphs(self):
        rng = random.Random(2323)
        for _ in range(500):
            band = rng.randint(0, 8)
            p = rng.choice((0.2, 0.5, 0.9, 0.98, 1.0))
            self.assert_matches_reference(narrow_graph(rng, rng.randint(0, 200), band, p).adj)

    def test_periods_broken_in_the_middle_and_near_either_end(self):
        for m in (12, 100, 301, 900):
            for kind in ("path", "cycle"):
                for g in broken(m, kind):
                    self.assert_matches_reference(g.adj)
        for m in (30, 101):
            product = direct_product(make_path(m), make_complete(3)).graph
            for at in (4, product.n // 2, product.n - 9):
                self.assert_matches_reference(with_edges(product, [(at, at + 5)]).adj)

    def test_far_edges_held_across_copied_stretches(self):
        # vertex 0 or 1 keeps its slot until the middle, where it must land exactly
        for m in (40, 301, 3000):
            path = make_path(m)
            for edges in (
                [(0, m // 2)],
                [(1, m // 2)],
                [(0, m // 3), (1, 2 * m // 3)],
                [(0, m // 2), (0, m - 1)],
                [(1, m // 2 + 1), (m // 2, m - 1)],
            ):
                self.assert_matches_reference(with_edges(path, edges).adj)
        cycle = direct_product(make_cycle(200), make_complete(3)).graph
        self.assert_matches_reference(with_edges(cycle, [(1, 300)]).adj)

    def test_changes_at_every_offset_from_a_look(self):
        """Paths that change at every vertex around the first looks for a run.

        The pass looks for the run of a path every ``_REPEAT_MAX_PERIOD``
        vertices, so each change is placed at each offset from a look: a far
        edge from vertex 0, vertex 0 joined to a stretch of vertices that
        starts or stops there (with or without a neighbour beyond), a second
        band that starts or stops there, and an edgeless tail.
        """
        m = 400
        path = list(make_path(m).edges())
        for x in range(invariants._REPEAT_MAX_PERIOD - 4, 3 * invariants._REPEAT_MAX_PERIOD + 4):
            for edges in (
                path + [(0, x)],
                path + [(0, k) for k in range(x, x + 70)],
                path + [(0, k) for k in range(2, x)],
                path + [(0, k) for k in range(2, x)] + [(0, m - 1)],
                path + [(u, u + 2) for u in range(x, m - 2)],
                path + [(u, u + 2) for u in range(x - 40, x)],
                path[:x],
                path[:x] + [(0, m - 1)],
            ):
                self.assert_matches_reference(build_graph(m, edges).adj)

    def test_every_short_periodic_pattern(self):
        """Every pattern of edges from u to u + d (d <= 3) repeating with period q <= 6, up to 9 edges.

        Rotating a pattern gives another, so each meets a look at each phase.
        Some hold runs of one repeated step that are not runs of a path.
        """
        m = 200
        for q in range(1, 7):
            for band in (1, 2, 3):
                cells = [(i, d) for i in range(q) for d in range(1, band + 1)]
                if len(cells) > 9:
                    continue
                for chosen in range(1, 1 << len(cells)):
                    pattern = [cell for k, cell in enumerate(cells) if chosen >> k & 1]
                    edges = {(u, u + d) for u in range(m - 3) for i, d in pattern if u % q == i}
                    self.assert_matches_reference(build_graph(m, sorted(edges)).adj)

    def test_seeded_periodic_patterns_with_far_edges(self):
        """Edges repeating with period q <= 5, plus far edges from the first vertices.

        The far edges give the frontier old holders whose neighbours land
        inside a period, so two periods of equal later-neighbour masks can
        still hold unequal steps.
        """
        rng = random.Random(2626)
        for _ in range(400):
            q, band, m = rng.randint(1, 5), rng.randint(1, 3), rng.randint(80, 200)
            pattern = [(i, d) for i in range(q) for d in range(1, band + 1) if rng.random() < 0.6]
            edges = {(u, u + d) for u in range(m) for i, d in pattern if u % q == i and u + d < m}
            edges |= {(rng.randint(0, 3), rng.randint(10, m - 1)) for _ in range(rng.randint(1, 3))}
            self.assert_matches_reference(build_graph(m, sorted(edges)).adj)

    def test_periods_that_start_late_or_change_once(self):
        rng = random.Random(2424)
        for m in (60, 500, 2000):
            head = narrow_graph(rng, m // 5, 3, 0.5)
            tail = [(u, u + 1) for u in range(m // 5 - 1, m - 1)]  # a path after a random head
            self.assert_matches_reference(build_graph(m, list(head.edges()) + tail).adj)
            half = [(u, u + 1) for u in range(m - 1)] + [(u, u + 2) for u in range(m // 2, m - 2)]
            self.assert_matches_reference(build_graph(m, half).adj)  # period 1, then band 2
            self.assert_matches_reference(band_rows(m, 3)[: m // 2] + make_path(m).adj[m // 2 :])

    def test_clock_reads(self):
        """The pass reads the clock once per copied block and once per 1024 worked vertices.

        Between two reads it either works out at most 1024 vertices or
        copies one block, which is never longer than the steps before it.
        """
        rng = random.Random(2525)
        graphs = [make_path(20000), make_cycle(3000), narrow_graph(rng, 3000, 4, 0.5)]
        graphs.append(with_edges(make_path(3000), [(0, 1500)]))
        for g in graphs:
            at = []
            assert _frontier_steps(g.adj, 6, CountingDeadline(at=at))[1] is not None
            assert at[0] == 0
            for before, after in zip(at, at[1:] + [g.n]):
                assert before <= after <= before + max(1024, before), (g.n, at)
        # where no look finds the run of a path, every vertex is worked out
        at = []
        _frontier_steps(narrow_graph(rng, 3000, 6, 0.5).adj, 6, CountingDeadline(at=at))
        assert at == [0, 1024, 2048]
        # short runs everywhere: attempts that copy little space the next ones out
        at = []
        _frontier_steps(narrow_graph(rng, 3000, 1, 0.5).adj, 6, CountingDeadline(at=at))
        assert len(at) < 16, at
        # the looks for a copy fall on every 1024th vertex, where the clock is read
        period = invariants._REPEAT_MAX_PERIOD
        assert period & (period - 1) == 0 and period <= 1024
        # pass and DP together, on a long path and a long cycle
        for g in (make_path(3000), make_cycle(3000)):
            for name in COVER_INVARIANTS:
                deadline = CountingDeadline()
                width, steps = _frontier_steps(g.adj, 6, deadline)
                _frontier_min_cover(deadline, steps, width, *COVER_FACTS[name])
                assert deadline.ticks < 50, (g.n, name, deadline.ticks)

    def test_packed_candidates_fit_up_to_width_fourteen(self):
        """The DP packs each candidate into a signed 64-bit entry, which holds up to width 14.

        Bits below a candidate's size: 4 * 14 + 1 = 57, leaving sizes in
        -64..63; at width 15 (61 bits) gamma overflows on this band graph.
        """
        assert invariants._DP_MAX_WIDTH <= 14
        g = build_graph(60, [(u, v) for v in range(60) for u in range(max(0, v - 14), v)])
        width, steps = _frontier_steps(g.adj, 14, _Deadline(None))
        assert width == 14
        for name in ("i", "gamma"):
            found = _frontier_min_cover(_Deadline(None), steps, width, *COVER_FACTS[name])
            assert found == forced_search(g, name)


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

    def test_budget_on_a_long_path(self):
        # i and gamma on path:20000 take the frontier plan and DP, which read
        # the clock too; the plan's checks of the copied rows alone take over
        # a millisecond there
        g = make_path(20000)
        limits = SolverLimits(vertex_cap=20000, budget_secs=1e-4)
        for solver in (independent_domination_number, domination_number):
            with pytest.raises(BudgetExhausted):
                solver(g, limits)
            # whatever the host's speed: a clock that runs out on its k-th read
            for stop in (2, 5, 10):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(invariants, "_Deadline", lambda budget: CountingDeadline(stop))
                    with pytest.raises(BudgetExhausted):
                        solver(g, limits)

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
