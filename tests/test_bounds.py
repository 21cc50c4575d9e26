import random
from fractions import Fraction

import pytest

from idomlab import bounds
from idomlab.bounds import (
    BOUND_IDS,
    PAIR_BOUNDS,
    alpha_lower_bound,
    bipartite_bound,
    clawfree_bound,
    conjecture_scan,
    degree_ratio_bound,
    evaluate_pair_bounds,
    k2_sandwich,
    packing_total_bound,
    product_upper_bound,
)
from idomlab.families import (
    counterexample_product,
    extreme_product,
    make_cocktail,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_X,
    make_Gn,
    make_Hn,
)
from idomlab.graph import build_graph
from idomlab.invariants import SolverLimits
from idomlab.smallgraphs import random_connected_graph, random_graph

WIDE = SolverLimits(vertex_cap=64)


class TestProductUpperBound:
    def test_p5_k3(self):
        report = product_upper_bound(make_path(5), make_complete(3), WIDE)
        assert report.rhs == 5 and report.lhs == 4 and report.holds

    def test_k2_k2(self):
        report = product_upper_bound(make_complete(2), make_complete(2), WIDE)
        assert report.rhs == 2 and report.lhs == 2 and report.holds

    def test_tight_on_kbip(self):
        report = product_upper_bound(make_complete_bipartite(3, 3), make_complete(2), WIDE)
        assert report.lhs == report.rhs == 6

    def test_isolated_vertex_gate(self):
        report = product_upper_bound(build_graph(2, []), make_complete(2), WIDE)
        assert not report.applicable and report.holds is None


class TestAlphaLowerBound:
    def test_c5_k2_tight(self):
        report = alpha_lower_bound(make_cycle(5), make_complete(2), WIDE)
        assert report.rhs == 5 and report.lhs == 5 and report.holds

    def test_k2_k2(self):
        report = alpha_lower_bound(make_complete(2), make_complete(2), WIDE)
        assert report.lhs == 2 and report.rhs == 2 and report.holds

    def test_p4_k3(self):
        report = alpha_lower_bound(make_path(4), make_complete(3), WIDE)
        assert report.rhs == 6 and report.lhs >= 6 and report.holds


class TestK2Sandwich:
    def test_star_lower_tight(self):
        report = k2_sandwich(make_complete_bipartite(1, 4), WIDE)
        assert report.lhs == 2 and int(report.detail["i_product_k2"]) == 2
        assert report.holds

    def test_kbip_upper_tight(self):
        report = k2_sandwich(make_complete_bipartite(3, 3), WIDE)
        assert int(report.detail["i_product_k2"]) == report.rhs == 6
        assert report.holds

    def test_p6(self):
        report = k2_sandwich(make_path(6), WIDE)
        assert report.lhs == 4
        assert int(report.detail["i_product_k2"]) == 4
        assert report.rhs == 4 and report.holds

    def test_isolated_gate(self):
        report = k2_sandwich(build_graph(1, []), WIDE)
        assert not report.applicable


class TestPackingTotalBound:
    def test_p7_c6(self):
        report = packing_total_bound(make_path(7), make_cycle(6), WIDE)
        assert report.rhs == 12 and report.lhs == 12 and report.holds

    def test_k2_k2(self):
        report = packing_total_bound(make_complete(2), make_complete(2), WIDE)
        assert report.rhs == 2 and report.lhs == 2 and report.holds

    def test_c9_k3_tight(self):
        report = packing_total_bound(make_cycle(9), make_complete(3), WIDE)
        assert report.rhs == 6 and report.lhs == 6 and report.holds


class TestClawfreeBound:
    def test_c5_c7(self):
        report = clawfree_bound(make_cycle(5), make_cycle(7), WIDE)
        assert report.rhs == 3 and report.lhs >= 3 and report.holds

    def test_k3_k3(self):
        report = clawfree_bound(make_complete(3), make_complete(3), WIDE)
        assert report.rhs == 1 and report.lhs == 3 and report.holds

    def test_claw_gate_carries_witness(self):
        report = clawfree_bound(make_complete_bipartite(1, 3), make_cycle(4), WIDE)
        assert not report.applicable and "claw" in report.reason


class TestDegreeRatioBound:
    def test_c6_c6(self):
        report = degree_ratio_bound(make_cycle(6), make_cycle(6), WIDE)
        assert report.rhs == 4 and report.lhs >= 4 and report.holds

    def test_k2_k2(self):
        report = degree_ratio_bound(make_complete(2), make_complete(2), WIDE)
        assert report.rhs == 1 and report.lhs == 2 and report.holds

    def test_p5_k3_keeps_raw_ratio(self):
        report = degree_ratio_bound(make_path(5), make_complete(3), WIDE)
        assert report.rhs == 2 and report.lhs == 4 and report.holds
        assert Fraction(report.detail["raw_rhs"]) == 2

    def test_rounding_up(self):
        report = degree_ratio_bound(make_cycle(7), make_complete(3), WIDE)
        raw = Fraction(report.detail["raw_rhs"])
        assert report.rhs == -(-raw.numerator // raw.denominator)

    def test_disconnected_gate(self):
        report = degree_ratio_bound(build_graph(3, [(0, 1)]), make_complete(2), WIDE)
        assert not report.applicable


class TestBipartiteBound:
    def test_c6_c6(self):
        report = bipartite_bound(make_cycle(6), make_cycle(6), WIDE)
        assert report.rhs == 4 and report.lhs >= 4 and report.holds

    def test_k2_k2(self):
        report = bipartite_bound(make_complete(2), make_complete(2), WIDE)
        assert report.rhs == 2 and report.lhs == 2 and report.holds

    def test_p4_p4(self):
        report = bipartite_bound(make_path(4), make_path(4), WIDE)
        assert report.rhs == 4 and report.lhs >= 4 and report.holds

    def test_odd_cycle_gate(self):
        report = bipartite_bound(make_cycle(5), make_path(4), WIDE)
        assert not report.applicable and "odd cycle" in report.reason


class TestConjectureScan:
    def test_both_hold_on_k2_k2(self):
        first, second = conjecture_scan(make_complete(2), make_complete(2), WIDE)
        assert first.holds and first.lhs == 2 and first.rhs == 1
        assert second.holds and second.rhs == 1

    def test_x3_cocktail3_refutes_product_relation(self):
        x3, _ = make_X(3)
        h3, _ = make_cocktail(3)
        _, witness = counterexample_product(3, 3)
        first, second = conjecture_scan(x3, h3, WIDE, product_witness=witness)
        assert first.verdict() == "fails via upper-bound witness"
        assert first.lhs == 8 and first.rhs == 10
        assert second.verdict() == "unchecked"

    def test_exact_refutation_with_big_cap(self):
        x3, _ = make_X(3)
        h3, _ = make_cocktail(3)
        first, _ = conjecture_scan(x3, h3, SolverLimits(vertex_cap=96))
        assert first.verdict() == "fails" and first.lhs == 8

    def test_factors_above_cap_go_unchecked(self):
        g11, _ = make_Gn(11)
        h11, _ = make_Hn(11)
        _, witness = extreme_product(11)
        first, second = conjecture_scan(g11, h11, SolverLimits(vertex_cap=40), product_witness=witness)
        assert first.verdict() == "unchecked" and second.verdict() == "unchecked"

    def test_min_relation_refuted_with_exact_factors(self):
        g11, _ = make_Gn(11)
        h11, _ = make_Hn(11)
        _, witness = extreme_product(11)
        first, second = conjecture_scan(
            g11, h11, SolverLimits(vertex_cap=90), product_witness=witness
        )
        assert second.verdict() == "fails via upper-bound witness"
        assert second.lhs == 12 and second.rhs == 13


class TestRandomApplicablePairs:
    def test_proved_bounds_hold(self):
        rng = random.Random(7777)
        for _ in range(60):
            left = random_connected_graph(rng, rng.randint(2, 5), rng.uniform(0.3, 0.9))
            right = random_connected_graph(rng, rng.randint(2, 5), rng.uniform(0.3, 0.9))
            if left.n * right.n > 25:
                continue
            for bound_id in (
                "packing-total-lower",
                "degree-ratio-lower",
                "bipartite-domination-lower",
                "clawfree-factor-lower",
                "i-product-upper",
            ):
                report = evaluate_pair_bounds((bound_id,), left, right, WIDE)[0]
                if report.applicable:
                    assert report.holds, (bound_id, left.edges(), right.edges())

    def test_unknown_bound_id(self):
        with pytest.raises(ValueError):
            evaluate_pair_bounds(("no-such-bound",), make_path(2), make_path(2), WIDE)


PUBLIC_BOUNDS = {
    "i-product-upper": product_upper_bound,
    "alpha-product-lower": alpha_lower_bound,
    "packing-total-lower": packing_total_bound,
    "clawfree-factor-lower": clawfree_bound,
    "degree-ratio-lower": degree_ratio_bound,
    "bipartite-domination-lower": bipartite_bound,
}


class TestSharedProfile:
    def test_each_invariant_solved_once(self, monkeypatch):
        left, right = make_cycle(6), make_path(4)  # every gate passes
        solve = bounds.invariant
        calls = []

        def counting(graph, name, limits):
            side = {id(left): "left", id(right): "right"}.get(id(graph), "product")
            calls.append((name, side))
            return solve(graph, name, limits)

        monkeypatch.setattr(bounds, "invariant", counting)
        reports = evaluate_pair_bounds(BOUND_IDS, left, right, WIDE)
        assert all(report.applicable for report in reports)
        factor_solves = {(name, side) for name in ("i", "alpha", "rho", "gamma_t", "gamma")
                         for side in ("left", "right")}
        assert sorted(calls) == sorted(factor_solves | {("i", "product"), ("alpha", "product")})

    def test_public_functions_match_shared_profile(self):
        assert set(PUBLIC_BOUNDS) == set(PAIR_BOUNDS)
        rng = random.Random(3131)
        for _ in range(100):
            left, right = (
                (random_connected_graph if rng.random() < 0.7 else random_graph)(
                    rng, rng.randint(1, 5), rng.uniform(0.2, 0.9)
                )
                for _ in range(2)
            )
            scan = dict(zip(("factor-product-lower", "factor-min-lower"),
                            conjecture_scan(left, right, WIDE)))
            alone = [
                PUBLIC_BOUNDS[bound_id](left, right, WIDE) if bound_id in PUBLIC_BOUNDS
                else scan[bound_id]
                for bound_id in BOUND_IDS
            ]
            assert evaluate_pair_bounds(BOUND_IDS, left, right, WIDE) == alone


class TestCounterexampleFamilyBrackets:
    def test_lower_bound_and_witness_bracket_the_product_value(self):
        """On the X/cocktail pairs the packing-total bound sits below the witness size."""
        from idomlab.invariants import (
            independent_domination_number,
            total_domination_number,
            two_packing_number,
        )
        from idomlab.products import direct_product

        for m in (3, 4, 5):
            for r in (2, 3, 4):
                left, _ = make_X(m)
                right, _ = make_cocktail(r)
                lower = max(
                    two_packing_number(left, WIDE).value
                    * total_domination_number(right, WIDE).value,
                    two_packing_number(right, WIDE).value
                    * total_domination_number(left, WIDE).value,
                )
                product, witness = counterexample_product(m, r)
                assert lower <= len(witness) == 8
                if product.graph.n <= 64:
                    exact = independent_domination_number(product.graph, WIDE).value
                    assert lower <= exact <= len(witness)


class TestManifestScan:
    def test_manifest_pairs(self):
        from idomlab.formats import parse_pair_manifest

        pairs = parse_pair_manifest("path:7 cycle:6\ncomplete:2 complete:2  # tiny\n")
        assert pairs == [("path:7", "cycle:6"), ("complete:2", "complete:2")]

    def test_manifest_errors(self):
        from idomlab.formats import parse_pair_manifest

        with pytest.raises(ValueError, match="line 1"):
            parse_pair_manifest("path:7 cycle:6 extra")
