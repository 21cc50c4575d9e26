import csv
import json
import os
import subprocess
import sys
from random import Random
from time import perf_counter
from types import SimpleNamespace

import pytest

from idomlab import cli
from idomlab.cli import main
from idomlab.families import build_family
from idomlab.formats import graph6_encode, read_certificate, write_certificate, Certificate
from idomlab.graph import VertexSet
from idomlab.invariants import PREDICATES
from idomlab.labelling import check_legal, formula_value, from_independent_set
from idomlab.products import direct_product
from idomlab.smallgraphs import random_connected_graph

ROOT = os.path.join(os.path.dirname(__file__), "..")
BUNDLE = os.path.join(ROOT, "data", "thm12_n11_witnesses.jsonl")
PAPER_FIXTURES = os.path.join(ROOT, "bench", "fixtures", "paper")
# G(60, 0.1) has frontier width 39, so i and gamma take the branch-and-bound;
# i takes about a second and gamma far longer
WIDE_GRAPH6 = graph6_encode(random_connected_graph(Random(1), 60, 0.1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_cycle16_times_k3(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--graph", "cycle:16", "--product", "complete:3", "--invariant", "i"
        )
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["value"] == 11 and payload["verdict"] == "verified"

    def test_x3(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--graph", "X:3", "--invariant", "i")
        assert code == 0
        assert json.loads(out.strip())["value"] == 5

    def test_alpha_of_trivial_path(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--graph", "path:1", "--invariant", "alpha")
        assert code == 0
        assert json.loads(out.strip())["value"] == 1

    def test_decision_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute",
            "--graph", "cycle:9",
            "--product", "complete:3",
            "--invariant", "i",
            "--k", "6",
        )
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["query"] == {"k": 6, "satisfied": True}

    def test_graph_file_input(self, capsys, tmp_path):
        path = tmp_path / "triangle.edges"
        path.write_text("3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run_cli(
            capsys, "compute", "--graph-file", str(path), "--invariant", "alpha"
        )
        assert code == 0
        assert json.loads(out.strip())["value"] == 1

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--graph", "tree:5")
        assert code == 2

    def test_cap_exceeded_gives_budget_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--graph", "Gn:11", "--invariant", "i", "--cap", "20"
        )
        assert code == 3
        assert json.loads(out.strip())["verdict"] == "unchecked"

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("IDOMLAB_CAP", "10")
        code, out, _ = run_cli(capsys, "compute", "--graph", "X:3", "--invariant", "i")
        assert code == 3
        monkeypatch.setenv("IDOMLAB_CAP", "not-a-number")
        code, _, _ = run_cli(capsys, "compute", "--graph", "X:3", "--invariant", "i")
        assert code == 2

    @pytest.mark.parametrize(
        "subject, query",
        [
            ("wide", ("--invariant", "i")),
            ("wide", ("--invariant", "gamma")),
            ("wide", ("--invariant", "i", "--product", "complete:3")),
            ("path", ("--invariant", "alpha")),
            ("path", ("--invariant", "rho")),
        ],
        ids=["i", "gamma", "labelling", "alpha", "rho"],
    )
    def test_long_path_stops_within_budget(self, capsys, tmp_path, subject, query):
        # the searches keep their own stack and read the clock at every node;
        # i, gamma and the labelling route solve paths by a frontier DP, so
        # they run on a wide graph
        if subject == "wide":
            path = tmp_path / "wide.g6"
            path.write_text(WIDE_GRAPH6 + "\n")
            source = ("--graph-file", str(path), "--format", "graph6")
        else:
            source = ("--graph", "path:3000")
        started = perf_counter()
        code, out, err = run_cli(
            capsys, "compute", *source, *query, "--cap", "5000", "--budget-secs", "0.2",
        )
        assert perf_counter() - started < 0.2 + 2.0
        assert code == 3 and err.startswith("aborted: solver budget exhausted")
        assert json.loads(out.strip())["verdict"] == "unchecked"

    @pytest.mark.parametrize("graph", ["path:3000", "cycle:900"])
    @pytest.mark.parametrize("name", ["i", "gamma"])
    def test_long_narrow_graph_is_solved(self, capsys, graph, name):
        code, out, _ = run_cli(
            capsys, "compute", "--graph", graph, "--invariant", name,
            "--cap", "5000", "--budget-secs", "1",
        )
        payload = json.loads(out.strip())
        g = build_family(graph)
        assert code == 0 and payload["value"] == -(-g.n // 3)
        assert PREDICATES[name](g, VertexSet.from_vertices(g.n, payload["witness"]))
        assert len(payload["witness"]) == payload["value"]

    def test_labelling_dp_stops_within_budget(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "--graph", "path:3000", "--product", "complete:3",
            "--invariant", "i", "--cap", "5000", "--budget-secs", "0.001",
        )
        assert code == 3 and err.startswith("aborted: solver budget exhausted")
        assert "Traceback" not in err
        assert json.loads(out.strip())["verdict"] == "unchecked"

    def test_long_path_times_k3_is_solved_without_building_the_product(self, capsys, monkeypatch):
        # 1800 product vertices are above the cap, so no cross-check runs
        monkeypatch.setattr(cli, "direct_product", None)
        code, out, _ = run_cli(
            capsys, "compute", "--graph", "path:600", "--product", "complete:3",
            "--invariant", "i", "--cap", "1000",
        )
        payload = json.loads(out.strip())
        assert code == 0 and payload["value"] == formula_value("path", 600, 3)
        g = build_family("path:600")
        product = direct_product(g, build_family("complete:3"))
        witness = VertexSet.from_vertices(product.graph.n, payload["witness"])
        assert check_legal(g, from_independent_set(product, witness)).legal

    def test_narrow_product_cross_check_answers_at_scale(self, capsys):
        # 3000 product vertices are under the cap, so the cover DP on the
        # product (width 4) cross-checks the labelling DP within the budget
        code, out, err = run_cli(
            capsys, "compute", "--graph", "path:1000", "--product", "complete:3",
            "--invariant", "i", "--cap", "3000", "--budget-secs", "1",
        )
        payload = json.loads(out.strip())
        assert code == 0 and payload["value"] == formula_value("path", 1000, 3) == 668
        assert payload["verdict"] == "verified"
        assert "cross-check against the product solver agreed: 668" in err

    def test_oversized_product_refused_before_solving(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "minimize_weight", None)
        code, out, err = run_cli(
            capsys, "compute", "--graph", "path:300", "--product", "complete:400",
            "--invariant", "i", "--cap", "5000",
        )
        assert code == 2 and out == ""
        assert err.strip() == "error: product would have 120000 vertices, above the limit of 100000"


class TestVerify:
    def test_shipped_bundle_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "verify", BUNDLE, "--cap", "64")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["verdict"] for row in rows] == ["verified"] * 3

    def test_tampered_witness_fails(self, capsys, tmp_path):
        cert = read_certificate(open(BUNDLE).read().splitlines()[0])
        tampered = Certificate(
            claim=cert.claim,
            subject=cert.subject,
            value=cert.value - 1,
            invariant=cert.invariant,
            witness=cert.witness[:-1],
        )
        bad = tmp_path / "bad.jsonl"
        bad.write_text(write_certificate(tampered) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(bad), "--cap", "64")
        assert code == 1
        assert json.loads(out.strip())["verdict"] == "refuted"

    @pytest.mark.parametrize("value, code, verdict", [(15, 0, "verified"), (14, 1, "refuted")])
    def test_formula_claim_ignores_product_order(self, capsys, tmp_path, value, code, verdict):
        # rho(C9) gamma_t(C9) = 3 * 5; the 81-vertex product is above the cap
        cert = Certificate(
            claim="lower_bound_formula",
            bound_id="packing-total-lower",
            subject={"product": [{"family": "cycle:9"}, {"family": "cycle:9"}]},
            value=value,
        )
        bundle = tmp_path / "formula.jsonl"
        bundle.write_text(write_certificate(cert) + "\n")
        got, out, _ = run_cli(capsys, "verify", str(bundle), "--cap", "40")
        assert got == code
        assert json.loads(out.strip())["verdict"] == verdict

    def test_empty_bundle(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "verify", str(empty))
        assert code == 0 and out == ""

    def test_json_array_bundle(self, capsys, tmp_path):
        lines = open(BUNDLE).read().splitlines()
        array = tmp_path / "bundle.json"
        array.write_text("[" + ",".join(lines) + "]")
        code, _, _ = run_cli(capsys, "verify", str(array), "--cap", "64")
        assert code == 0

    @pytest.mark.parametrize(
        "subject",
        [{"graph6": "D!!"}, {"graph6": "D?{?"}, {"edge_list": "2 1\n1 1"}, {"edge_list": "2 1\n0 2"}],
        ids=["graph6-byte", "graph6-length", "edge-list-loop", "edge-list-range"],
    )
    def test_malformed_parsed_subject_is_usage_error(self, capsys, tmp_path, subject):
        cert = Certificate(
            claim="upper_bound_witness", invariant="i", subject=subject, value=1, witness=(0,)
        )
        bundle = tmp_path / "malformed.jsonl"
        bundle.write_text(write_certificate(cert) + "\n")
        code, out, err = run_cli(capsys, "verify", str(bundle))
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "fields",
        [
            {"witness": ["a"]},
            {"witness": 5},
            {"witness": [1.5]},
            {"invariant": ["i"]},
            {"subject": {"family": 5}},
            {"subject": {"product": [{"family": "path:2"}, {"graph6": 7}]}},
        ],
        ids=["witness-text", "witness-int", "witness-float", "invariant-list", "family-int",
             "product-graph6-int"],
    )
    def test_mistyped_field_is_usage_error(self, capsys, tmp_path, fields):
        payload = {"claim": "invariant_value", "invariant": "i", "subject": {"family": "path:4"},
                   "value": 2, "witness": [0, 3]}
        bundle = tmp_path / "mistyped.jsonl"
        bundle.write_text(json.dumps({**payload, **fields}) + "\n")
        code, out, err = run_cli(capsys, "verify", str(bundle))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_deeply_nested_bundle_is_usage_error(self, capsys, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, "verify", str(nested))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nests too deeply" in err


class TestReproduce:
    def test_table1(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "table1")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 20 and all(row["status"] == "ok" for row in rows)

    def test_conj_refutation(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "conj-refutation")
        assert code == 0

    def test_csv_keeps_every_rows_columns(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "conj-refutation")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        code, out, _ = run_cli(capsys, "reproduce", "conj-refutation", "--out", "csv")
        assert code == 0
        table = list(csv.DictReader(out.splitlines()))
        # the second row has a key the first lacks
        assert set(rows[1]) - set(rows[0]) == {"product_bound_below_left_factor"}
        assert set(table[0]) == set(rows[0]) | set(rows[1])
        assert table[1]["product_bound_below_left_factor"] == "True"
        assert table[0]["product_bound_below_left_factor"] == ""

    def test_thm12_small(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "thm12", "--n", "3")
        assert code == 0
        row = json.loads(out.strip())
        assert row["left_exact_i"] == 5 and row["right_exact_i"] == 5

    def test_unknown_target_usage(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "everything"])

    def test_thm12_factor_mismatch_counts_once(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "independent_domination_number", lambda graph, limits: SimpleNamespace(value=6)
        )
        code, out, err = run_cli(capsys, "reproduce", "thm12", "--n", "3")
        assert code == 1 and json.loads(out)["status"] == "MISMATCH"
        assert err.startswith("thm12: 0/1 rows ok")

    def test_bounds4_passes_budget_to_solver(self, capsys, monkeypatch):
        from idomlab import bounds

        seen = set()

        def recording(graph, name, limits):
            seen.add(limits)
            return solve(graph, name, limits)

        solve = bounds.invariant
        monkeypatch.setattr(bounds, "invariant", recording)
        code, _, _ = run_cli(capsys, "reproduce", "bounds4", "--budget-secs", "5")
        assert code == 0
        assert {limits.budget_secs for limits in seen} == {5.0}


class TestSearch:
    def test_clawfree_pairs_have_no_violations(self, capsys, tmp_path):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("cycle:5 cycle:7\ncomplete:3 complete:3\npath:2 path:2\n")
        code, out, _ = run_cli(
            capsys, "search", "--pairs-file", str(manifest), "--bound", "clawfree-factor-lower"
        )
        assert code == 0 and out == ""

    def test_counterexample_pair_detected(self, capsys, tmp_path):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("X:3 cocktail:3\n")
        code, out, _ = run_cli(
            capsys,
            "search",
            "--pairs-file", str(manifest),
            "--bound", "factor-product-lower",
            "--cap", "96",
        )
        assert code == 1
        row = json.loads(out.strip())
        assert row["lhs"] == 8 and row["rhs"] == 10

    def test_graph6_corpus_pairs(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("A_\nBw\n")  # K_2 and K_3
        code, out, _ = run_cli(
            capsys,
            "search",
            "--graph-file", str(corpus),
            "--format", "graph6",
            "--bound", "factor-min-lower",
        )
        assert code == 0 and out == ""

    def test_unknown_bound_usage(self, capsys):
        code, _, _ = run_cli(capsys, "search", "--pairs-file", "x", "--bound", "nonsense")
        assert code == 2

    def test_bipartite_gate_rejects_one_vertex_factor(self, capsys, tmp_path):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("complete:1 complete:1\n")
        code, out, _ = run_cli(
            capsys, "search", "--pairs-file", str(manifest),
            "--bound", "bipartite-domination-lower", "--report-all",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "inapplicable"


class TestExportAndProduct:
    def test_export_graph6_with_sidecar(self, capsys, tmp_path):
        base = tmp_path / "x3"
        code, _, _ = run_cli(
            capsys,
            "export",
            "--graph", "X:3",
            "--write-format", "graph6",
            "--out-file", str(base),
        )
        assert code == 0
        from idomlab.formats import graph6_decode

        g = graph6_decode((tmp_path / "x3.g6").read_text())
        assert g.n == 16
        meta = json.loads((tmp_path / "x3.meta.json").read_text())
        assert meta["labels"][:2] == ["x1", "x2"]

    def test_product_sidecar(self, capsys, tmp_path):
        base = tmp_path / "p3k2"
        code, _, _ = run_cli(
            capsys,
            "product",
            "--graph", "path:3",
            "--product", "complete:2",
            "--out-file", str(base),
        )
        assert code == 0
        meta = json.loads((tmp_path / "p3k2.meta.json").read_text())
        assert meta == {"encoding": "row-major", "nG": 3, "nH": 2}
        from idomlab.formats import parse_edge_list

        g = parse_edge_list((tmp_path / "p3k2.edges").read_text())
        assert g.n == 6 and g.edge_count() == 4

    def test_stdout_mode(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--graph", "path:3", "--write-format", "graph6")
        assert code == 0 and out.strip() == "Bg"


@pytest.mark.parametrize(
    "label, argv",
    [
        (f"reproduce.{target}", ("reproduce", target, "--cap", "40"))
        for target in ("table1", "prop34", "thm32", "bounds4", "conj-refutation", "thm12")
    ]
    + [("verify", ("verify", BUNDLE, "--cap", "64"))],
)
def test_paper_output_matches_recorded_fixture(capsys, label, argv):
    with open(os.path.join(PAPER_FIXTURES, f"{label}.out"), encoding="utf-8") as handle:
        expected = handle.read()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == expected


class TestDeterminism:
    def test_byte_identical_output_across_runs_and_workers(self, capsys):
        outputs = []
        for workers in ("1", "1", "2"):
            code, out, _ = run_cli(
                capsys, "reproduce", "bounds4", "--workers", workers
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_csv_and_human_modes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "table1", "--out", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.split(",")[:3] == ["target", "family", "m"]
        code, out, _ = run_cli(capsys, "reproduce", "table1", "--out", "human")
        assert code == 0 and "status=ok" in out


class TestMalformedBundles:
    # each file holds one certificate that the reader or its subject refuses
    @pytest.mark.parametrize(
        "name",
        [
            "deep_product",
            "bool_value",
            "edge_list_header",
            "labelling_float_order",
            "labelling_signed_label",
        ],
    )
    def test_bundle_is_usage_error(self, capsys, name):
        path = os.path.join(ROOT, "tests", "bundles", f"{name}.jsonl")
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_shallow_product_still_verifies(self, capsys, tmp_path):
        subject = {"product": [{"family": "path:1"}, {"product": [{"family": "path:1"}] * 2}]}
        cert = Certificate(
            claim="upper_bound_witness", invariant="i", subject=subject, value=1, witness=(0,)
        )
        bundle = tmp_path / "shallow.jsonl"
        bundle.write_text(write_certificate(cert) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(bundle))
        assert code == 0 and json.loads(out)["verdict"] == "verified"


class TestSearchEdgePaths:
    def test_worker_pool_stops_with_the_budget(self, capsys, tmp_path):
        corpus = tmp_path / "cycles.g6"
        corpus.write_text(
            "".join(graph6_encode(build_family(f"cycle:{m}")) + "\n" for m in range(11, 19))
        )
        outputs = []
        for workers in ("1", "2"):
            started = perf_counter()
            code, out, _ = run_cli(
                capsys,
                "search",
                "--graph-file", str(corpus),
                "--format", "graph6",
                "--bound", "factor-product-lower",
                "--cap", "400",
                "--budget-secs", "0.3",
                "--workers", workers,
            )
            # the 36 pairs' solves would take seconds: the pool must not wait for them
            assert perf_counter() - started < 2
            assert code == 3
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_worker_pool_matches_single_worker(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        lines = ["A_", "Bw", "BW", "Cr", "C~"]
        corpus.write_text("\n".join(lines) + "\n")
        outputs = []
        for workers in ("1", "3"):
            code, out, _ = run_cli(
                capsys,
                "search",
                "--graph-file", str(corpus),
                "--format", "graph6",
                "--bound", "i-product-upper",
                "--report-all",
                "--workers", workers,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 15  # all pairs reported

    def test_total_budget_marks_partial_scan(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("\n".join(["Dhc"] * 40) + "\n")
        code, out, _ = run_cli(
            capsys,
            "search",
            "--graph-file", str(corpus),
            "--format", "graph6",
            "--bound", "factor-min-lower",
            "--budget-secs", "0.000001",
        )
        assert code == 3
        marker = json.loads(out.strip().splitlines()[-1])
        assert marker["partial_scan"] is True
        assert marker["pairs_done"] < marker["pairs_total"]


    @pytest.mark.parametrize(
        "bound, lines, done",
        [
            # the conjecture relation reports a product above the cap as unchecked
            ("factor-product-lower", ["path:3 path:3", "X:4 cocktail:5"], 1),
            ("factor-product-lower", ["X:4 cocktail:5", "path:3 path:3"], 0),
            # a table bound raises on it
            ("clawfree-factor-lower", ["path:3 path:3", "cycle:7 cycle:9"], 1),
        ],
        ids=["conjecture-last", "conjecture-first", "table-last"],
    )
    def test_pair_above_the_cap_is_not_done(self, capsys, tmp_path, bound, lines, done):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "search", "--pairs-file", str(manifest), "--bound", bound)
        assert code == 3
        marker = json.loads(out.strip().splitlines()[-1])
        assert marker == {"pairs_done": done, "pairs_total": 2, "partial_scan": True}
        assert f"scanned {done}/2 pairs" in err

    def test_budget_bounds_each_solve(self, capsys, tmp_path):
        manifest = tmp_path / "pairs.txt"
        manifest.write_text("cycle:11 cycle:13\n")  # 143 vertices: no answer within seconds
        started = perf_counter()
        code, out, _ = run_cli(
            capsys,
            "search",
            "--pairs-file", str(manifest),
            "--bound", "factor-product-lower",
            "--cap", "300",
            "--budget-secs", "0.2",
        )
        assert perf_counter() - started < 5
        assert code == 3
        assert json.loads(out.strip()) == {"pairs_done": 0, "pairs_total": 1, "partial_scan": True}


class TestInputEdgePaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--graph", "complete:100000"),
            ("compute", "--graph", "path:3", "--product", "kbip:60000,60000"),
            ("verify", "{family}"),
            ("verify", "{product}"),
        ],
        ids=["compute", "compute-product", "verify-family", "verify-product"],
    )
    def test_oversized_family_is_refused_at_once(self, capsys, tmp_path, argv):
        # refused from the spec's parameters, before any edge is built
        hostile = {"family": "complete:100000"}
        paths = {}
        for name, subject in (("family", hostile), ("product", {"product": [hostile, hostile]})):
            cert = Certificate(
                claim="upper_bound_witness", invariant="i", subject=subject, value=1, witness=(0,)
            )
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(write_certificate(cert) + "\n")
        started = perf_counter()
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: family") and "above the limit" in err

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (("compute", "--graph", "path:100000", "--invariant", "i"), "family"),
            (("compute", "--graph", "path:3", "--product", "path:100000"), "family"),
            (("verify", "{family}"), "family"),
            (("verify", "{product}"), "family"),
            (("compute", "--graph", "path:200", "--product", "complete:200"), "product"),
            (("compute", "--graph", "path:10000", "--product", "complete:3", "--invariant", "i"), "product"),
        ],
        ids=["compute", "compute-product", "verify-family", "verify-product", "product", "labelling"],
    )
    def test_graph_whose_rows_exceed_the_memory_ceiling_is_refused_at_once(
        self, capsys, tmp_path, argv, refused
    ):
        # within the vertex and edge limits, but its rows would take over 64 MiB
        long_path = {"family": "path:100000"}
        paths = {}
        for name, subject in (("family", long_path), ("product", {"product": [long_path, long_path]})):
            cert = Certificate(
                claim="upper_bound_witness", invariant="i", subject=subject, value=1, witness=(0,)
            )
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text(write_certificate(cert) + "\n")
        started = perf_counter()
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert err.startswith(f"error: {refused}") and "bytes, above the limit of 67108864 bytes" in err

    def test_multi_graph_file_rejected_for_compute(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("A_\nBw\n")
        code, _, err = run_cli(
            capsys, "compute", "--graph-file", str(corpus), "--format", "graph6"
        )
        assert code == 2 and "exactly one" in err

    def test_graph_and_file_conflict(self, capsys, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("2 1\n0 1\n")
        code, _, err = run_cli(
            capsys, "compute", "--graph", "path:2", "--graph-file", str(path)
        )
        assert code == 2 and "not both" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "{missing}"),
            ("compute", "--graph-file", "{missing}"),
            ("search", "--bound", "clawfree-factor-lower", "--pairs-file", "{missing}"),
        ],
        ids=["verify", "compute", "search"],
    )
    def test_missing_input_file_is_usage_error(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "absent")
        code, out, err = run_cli(capsys, *(arg.format(missing=missing) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error:") and missing in err

    def test_verify_unchecked_gives_budget_exit(self, capsys, tmp_path):
        # an exact-value claim on a subject above the verification cap
        cert = read_certificate(open(BUNDLE).read().splitlines()[0])
        unchecked = Certificate(
            claim="invariant_value",
            subject=cert.subject,
            value=12,
            invariant="i",
            witness=cert.witness,
        )
        bundle = tmp_path / "unchecked.jsonl"
        bundle.write_text(write_certificate(unchecked) + "\n")
        code, out, _ = run_cli(capsys, "verify", str(bundle), "--cap", "40")
        assert code == 3
        assert json.loads(out.strip())["verdict"] == "unchecked"

    def test_verify_out_of_budget_gives_budget_exit(self, capsys, tmp_path):
        # a true claim whose exact re-solve cannot finish in the budget
        claim = Certificate(
            claim="invariant_value",
            subject={"graph6": WIDE_GRAPH6},
            value=11,
            invariant="i",
            witness=(0, 10, 11, 19, 23, 26, 35, 48, 55, 56, 57),
        )
        bundle = tmp_path / "slow.jsonl"
        bundle.write_text(write_certificate(claim) + "\n")
        code, out, _ = run_cli(
            capsys, "verify", str(bundle), "--cap", "1000", "--budget-secs", "0.05"
        )
        assert code == 3
        assert json.loads(out.strip().splitlines()[0])["verdict"] == "unchecked"


def test_compute_product_with_non_complete_factor(capsys):
    code = main(["compute", "--graph", "path:3", "--product", "cycle:4", "--invariant", "i"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out.strip())
    from idomlab.families import make_cycle, make_path
    from idomlab.invariants import independent_domination_number

    expected = independent_domination_number(
        direct_product(make_path(3), make_cycle(4)).graph
    ).value
    assert payload["value"] == expected
    assert payload["subject"] == {
        "product": [{"family": "path:3"}, {"family": "cycle:4"}]
    }


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    ARGV = ["compute", "--graph", "cycle:16", "--product", "complete:3", "--invariant", "i"]

    def test_usage_error_leaves_no_trace(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--invariant", "nope"])
        assert exc.value.code == 2
        assert run_cli(capsys, "compute", "--graph", "tree:5")[0] == 2
        code, out, _ = run_cli(capsys, *self.ARGV)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        env.pop("IDOMLAB_CAP", None)
        fresh = subprocess.run(
            [sys.executable, "-m", "idomlab.cli", *self.ARGV],
            capture_output=True, text=True, env=env, check=False,
        )
        assert code == fresh.returncode == 0 and out == fresh.stdout

    def test_env_cap_read_on_every_call(self, capsys, monkeypatch):
        argv = ["compute", "--graph", "X:3", "--invariant", "i"]
        monkeypatch.delenv("IDOMLAB_CAP", raising=False)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setenv("IDOMLAB_CAP", "10")
        assert run_cli(capsys, *argv)[0] == 3
        monkeypatch.delenv("IDOMLAB_CAP")
        assert run_cli(capsys, *argv)[0] == 0

    def test_parser_built_once(self):
        # the parser is built when idomlab.cli is imported, and no main call builds another
        script = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(None)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from idomlab import cli\n"
            "on_import = len(built)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['compute', '--graph', 'path:4']) for _ in range(5)]\n"
            "print(on_import, len(built), codes)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        env.pop("IDOMLAB_CAP", None)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        on_import, after_calls, codes = done.stdout.split(" ", 2)
        assert int(on_import) > 0
        assert int(after_calls) == int(on_import)
        assert codes.strip() == "[0, 0, 0, 0, 0]"
