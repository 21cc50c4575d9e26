import json
import random

import networkx as nx
import pytest

from idomlab.families import make_cycle, make_path
from idomlab.formats import (
    Certificate,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
    format_edge_list,
    parse_pattern,
    print_pattern,
    read_certificate,
    read_certificates,
    read_graph,
    read_graphs,
    resolve_subject,
    verify_certificate,
    write_certificate,
)
from idomlab.graph import Graph, build_graph
from idomlab.invariants import SolverLimits, independent_domination_number
from idomlab.labelling import Labelling, pattern_labelling
from idomlab.products import direct_product
from idomlab.smallgraphs import random_graph

WIDE = SolverLimits(vertex_cap=64)

# a pinned corpus of graph6 strings that must survive decode+encode untouched
PINNED_GRAPH6 = [
    "?",          # empty graph
    "@",          # K_1
    "A_",         # K_2
    "Bw",         # K_3
    "D?{",        # 5 vertices
    "DQc",
    "Dhc",        # C_5
    "E?bo",
    "EhCG",       # P_6
    "EFz_",       # K_{3,3}
    "FwCWw",
    "F|eMG",      # wheel on 7 vertices
    "Gl_XIS",     # cube graph
    "H?qa`e_",
    "IheA@GUAo",  # Petersen graph
]


class TestEdgeList:
    def test_k2(self):
        g = parse_edge_list("2 1\n0 1")
        assert g.n == 2 and g.edge_count() == 1

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a triangle\n3 3\n\n0 1\n1 2 # chord\n0 2\n")
        assert g.edge_count() == 3

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 12), 0.4)
            assert parse_edge_list(format_edge_list(g)) == g

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            parse_edge_list("3 1\n0 3")

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="announced"):
            parse_edge_list("3 2\n0 1")

    def test_garbage_line_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("3 1\nzero one")


class TestGraph6:
    def test_pinned_corpus_identity(self):
        for text in PINNED_GRAPH6:
            assert graph6_encode(graph6_decode(text)) == text

    def test_decode_pinned_example(self):
        g = graph6_decode("D?{")
        assert g.n == 5

    def test_encode_decode_random_against_networkx(self):
        rng = random.Random(5005)
        for _ in range(80):
            n = rng.randint(0, 20)
            g = random_graph(rng, n, rng.random())
            mine = graph6_encode(g)
            reference = nx.Graph()
            reference.add_nodes_from(range(n))
            reference.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(reference, header=False).decode().strip()
            assert mine == theirs
            assert graph6_decode(mine) == g

    def test_decode_networkx_output(self):
        rng = random.Random(606)
        for _ in range(40):
            n = rng.randint(1, 15)
            reference = nx.gnp_random_graph(n, 0.5, seed=rng.randint(0, 10**6))
            text = nx.to_graph6_bytes(reference, header=False).decode().strip()
            g = graph6_decode(text)
            assert g.n == n
            assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in reference.edges())

    def test_large_order_header(self):
        g = build_graph(80, [(0, 79), (1, 2)])
        assert graph6_decode(graph6_encode(g)) == g

    def test_header_prefix_allowed(self):
        assert graph6_decode(">>graph6<<A_").n == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            graph6_decode("D?{?")

    def test_bad_byte(self):
        with pytest.raises(ValueError, match="not a graph6"):
            graph6_decode("D!!")

    def test_read_graph_dispatch(self):
        assert read_graph("2 1\n0 1", "edge-list").edge_count() == 1
        assert read_graph("A_", "graph6").edge_count() == 1
        with pytest.raises(ValueError):
            read_graph("A_", "sparse6")
        assert read_graph("# K_3\n\nBw\n", "graph6").edge_count() == 3
        with pytest.raises(ValueError):
            read_graph("A_\nBw\n", "graph6")
        pair = read_graphs("A_\nBw\n", "graph6")
        assert [(g.n, subject) for g, subject in pair] == [
            (2, {"graph6": "A_"}),
            (3, {"graph6": "Bw"}),
        ]
        certs = [
            Certificate(claim="invariant_value", subject={"family": f"path:{m}"}, value=m)
            for m in (2, 3)
        ]
        lines = [write_certificate(cert) for cert in certs]
        assert read_certificates("\n".join(lines) + "\n\n") == certs
        assert read_certificates(" [" + ",".join(lines) + "]") == certs


class TestPatternSyntax:
    def test_figure_text(self):
        lab = parse_pattern("(1,1,0,2,2,0)^2(3,3,3,0)", 3, 16)
        assert lab == pattern_labelling("cycle", 16, 3)

    def test_all_ones(self):
        assert parse_pattern("(1,1,1)", 3, 3).tags == (1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expands to 6"):
            parse_pattern("(1,1)^3", 3, 5)

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown pattern token"):
            parse_pattern("(1,q)", 3)

    def test_class_above_clique_order(self):
        with pytest.raises(ValueError, match="exceeds"):
            parse_pattern("(4)", 3)

    def test_layer_label_token(self):
        lab = parse_pattern("([n],0,1,1)", 4, 4)
        assert lab.tags == (5, 0, 1, 1)

    def test_print_parse_identity_on_constructions(self):
        for family in ("path", "cycle"):
            for m in range(3, 41):
                lab = pattern_labelling(family, m, 3)
                assert parse_pattern(print_pattern(lab), 3, m) == lab

    def test_print_folds_repeats(self):
        lab = pattern_labelling("cycle", 16, 3)
        assert print_pattern(lab) == "(1,1,0,2,2,0)^2(3,3,3,0)"
        assert print_pattern(pattern_labelling("cycle", 12, 3)) == "(1,1,0,2,2,0)^2"

    def test_print_parse_identity_random(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 4)
            tags = tuple(rng.randint(0, n + 1) for _ in range(rng.randint(1, 20)))
            lab = Labelling(n, tags)
            assert parse_pattern(print_pattern(lab), n, len(tags)) == lab


class TestCertificates:
    def test_write_is_canonical(self):
        cert = Certificate(
            claim="upper_bound_witness",
            invariant="i",
            subject={"family": "path:3"},
            value=1,
            witness=(1,),
        )
        text = write_certificate(cert)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert read_certificate(text) == cert

    def test_invariant_value_round_trip(self):
        result = independent_domination_number(
            direct_product(make_path(5), build_graph(3, [(0, 1), (1, 2), (0, 2)])).graph,
            WIDE,
        )
        cert = Certificate(
            claim="invariant_value",
            invariant="i",
            subject={"product": [{"family": "path:5"}, {"family": "complete:3"}]},
            value=result.value,
            witness=result.witness.members(),
        )
        assert verify_certificate(write_certificate(cert), WIDE) == "verified"

    def test_witness_with_adjacent_pair_refuted(self):
        cert = Certificate(
            claim="invariant_value",
            invariant="i",
            subject={"family": "path:2"},
            value=2,
            witness=(0, 1),
        )
        assert verify_certificate(cert, WIDE) == "refuted"

    def test_tampered_witness_refuted(self):
        product, witness = _thm12_subject()
        good = Certificate(
            claim="upper_bound_witness",
            invariant="i",
            subject={"product": [{"family": "Gn:11"}, {"family": "Hn:11"}]},
            value=12,
            witness=witness,
        )
        assert verify_certificate(good, WIDE) == "verified"
        tampered = Certificate(
            claim="upper_bound_witness",
            invariant="i",
            subject=good.subject,
            value=11,
            witness=witness[:-1],
        )
        assert verify_certificate(tampered, WIDE) == "refuted"

    @pytest.mark.parametrize("kind", ["graph6", "edge_list"])
    @pytest.mark.parametrize(
        "witness", [(0, 1), (0,), (9,)], ids=["adjacent", "not-dominating", "out-of-range"]
    )
    def test_witness_failing_on_parsed_subject_refuted(self, kind, witness):
        path = make_path(4)
        text = graph6_encode(path) if kind == "graph6" else format_edge_list(path)
        cert = Certificate(
            claim="upper_bound_witness",
            invariant="i",
            subject={kind: text},
            value=len(witness),
            witness=witness,
        )
        assert verify_certificate(cert, WIDE) == "refuted"
        good = Certificate(
            claim="upper_bound_witness", invariant="i", subject={kind: text}, value=2, witness=(0, 3)
        )
        assert verify_certificate(good, WIDE) == "verified"

    def test_wrong_value_refuted_when_solvable(self):
        cert = Certificate(
            claim="invariant_value",
            invariant="i",
            subject={"family": "cycle:7"},
            value=4,
            witness=(0, 2, 4, 6),
        )
        # the witness is not even independent here; and the true value is 3
        assert verify_certificate(cert, WIDE) == "refuted"

    def test_value_above_cap_unchecked(self):
        product, witness = _thm12_subject()
        cert = Certificate(
            claim="invariant_value",
            invariant="i",
            subject={"product": [{"family": "Gn:11"}, {"family": "Hn:11"}]},
            value=12,
            witness=witness,
        )
        assert verify_certificate(cert, SolverLimits(vertex_cap=40)) == "unchecked"

    def test_legality_claim(self):
        lab = pattern_labelling("cycle", 16, 3)
        cert = Certificate(
            claim="legality",
            subject={"family": "cycle:16"},
            value=11,
            labelling={"n": 3, "labels": list(lab.label_strings())},
        )
        assert verify_certificate(cert, WIDE) == "verified"
        wrong = Certificate(
            claim="legality", subject={"family": "cycle:16"}, value=12, labelling=cert.labelling
        )
        assert verify_certificate(wrong, WIDE) == "refuted"

    def test_refutation_claim(self):
        from idomlab.families import counterexample_product

        _, witness = counterexample_product(3, 3)
        cert = Certificate(
            claim="refutation",
            relation="product_of_factors",
            subject={"product": [{"family": "X:3"}, {"family": "cocktail:3"}]},
            value=8,
            witness=witness.members(),
            threshold=10,
        )
        assert verify_certificate(cert, WIDE) == "verified"

    def test_lower_bound_formula_claim(self):
        cert = Certificate(
            claim="lower_bound_formula",
            bound_id="packing-total-lower",
            subject={"product": [{"family": "cycle:9"}, {"family": "complete:3"}]},
            value=6,
        )
        assert verify_certificate(cert, WIDE) == "verified"

    def test_schema_violations(self):
        with pytest.raises(ValueError):
            read_certificate("not json")
        with pytest.raises(ValueError):
            read_certificate('{"claim":"nonsense","subject":{},"value":1}')
        with pytest.raises(ValueError):
            read_certificate('{"claim":"legality","subject":{}}')

    def test_resolve_subject_kinds(self):
        assert resolve_subject({"family": "path:3"}).n == 3
        assert resolve_subject({"graph6": "A_"}).n == 2
        assert resolve_subject({"edge_list": "2 1\n0 1"}).n == 2
        product = resolve_subject({"product": [{"family": "path:2"}, {"family": "complete:3"}]})
        assert product.graph.n == 6
        with pytest.raises(ValueError):
            resolve_subject({"mystery": 1})


def _thm12_subject():
    from idomlab.families import extreme_product

    product, witness = extreme_product(11)
    return product, witness.members()


def test_empty_pattern_round_trip():
    lab = Labelling(3, ())
    assert parse_pattern(print_pattern(lab), 3, 0) == lab
