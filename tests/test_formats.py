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

    @pytest.mark.parametrize("text", ["(\u0661,\u0661)", "(\u00b2,1)", "(\uff11)"])
    def test_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="unknown pattern token"):
            parse_pattern(text, 3)

    def test_ascii_exponent_only(self):
        with pytest.raises(ValueError, match="syntax error"):
            parse_pattern("(1,1)^\u0662", 3)

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



# Every outcome each claim kind can reach: a verdict, or the ValueError (by
# message) that a malformed claim raises.  Each case changes one kind's good
# claim; a field set to None is left out.  Where a claim is wrong in two ways,
# some cases pin which check comes first.
TIGHT = SolverLimits(vertex_cap=2)
_PATH3 = {"family": "path:3"}
_GOOD_CLAIMS = {
    "invariant_value": dict(invariant="i", subject=_PATH3, value=1, witness=(1,)),
    "upper_bound_witness": dict(invariant="i", subject=_PATH3, value=1, witness=(1,)),
    "lower_bound_formula": dict(
        bound_id="packing-total-lower",
        subject={"product": [{"family": "cycle:9"}, {"family": "complete:3"}]},
        value=6,
    ),
    "legality": dict(
        subject={"family": "cycle:16"},
        value=11,
        labelling={"n": 3, "labels": ["1", "1", "0", "2", "2", "0"] * 2 + ["3", "3", "3", "0"]},
    ),
    "refutation": dict(
        relation="product_of_factors",
        subject={"product": [{"family": "X:3"}, {"family": "cocktail:3"}]},
        value=8,
        witness=(0, 1, 6, 7, 14, 15, 20, 21),
        threshold=10,
    ),
}
VERIFY_CASES = [
    # invariant_value: the witness check, then an exact re-solve under the cap
    ("value-verified", "invariant_value", {}, WIDE, "verified"),
    ("value-witness-out-of-range", "invariant_value", {"witness": (9,)}, WIDE, "refuted"),
    ("value-witness-not-maximal", "invariant_value", {"witness": (0,)}, WIDE, "refuted"),
    ("value-witness-wrong-size", "invariant_value", {"value": 2}, WIDE, "refuted"),
    ("value-not-minimum", "invariant_value", {"value": 2, "witness": (0, 2)}, WIDE, "refuted"),
    ("value-no-witness", "invariant_value", {"witness": None}, WIDE, "unchecked"),
    ("value-above-cap", "invariant_value", {}, TIGHT, "unchecked"),
    ("value-unknown-invariant", "invariant_value", {"invariant": "nope"}, WIDE, "unknown invariant"),
    ("value-no-invariant", "invariant_value", {"invariant": None}, WIDE, "unknown invariant"),
    (
        "value-bad-subject-before-no-witness",
        "invariant_value",
        {"subject": {"mystery": 1}, "witness": None},
        WIDE,
        "unknown certificate subject",
    ),
    # upper_bound_witness: the witness check alone, at any size
    ("upper-verified", "upper_bound_witness", {}, WIDE, "verified"),
    ("upper-verified-above-cap", "upper_bound_witness", {"invariant": "gamma"}, TIGHT, "verified"),
    ("upper-witness-adjacent", "upper_bound_witness", {"value": 2, "witness": (0, 1)}, WIDE, "refuted"),
    ("upper-witness-wrong-size", "upper_bound_witness", {"value": 2}, WIDE, "refuted"),
    ("upper-no-witness", "upper_bound_witness", {"witness": None}, WIDE, "unchecked"),
    ("upper-unknown-invariant", "upper_bound_witness", {"invariant": "nope"}, WIDE, "unknown invariant"),
    # lower_bound_formula: the bound's right side on the product's factors
    ("formula-verified", "lower_bound_formula", {}, WIDE, "verified"),
    ("formula-wrong-value", "lower_bound_formula", {"value": 5}, WIDE, "refuted"),
    ("formula-no-bound-id", "lower_bound_formula", {"bound_id": None}, WIDE, "refuted"),
    (
        "formula-no-bound-id-before-subject",
        "lower_bound_formula",
        {"bound_id": None, "subject": _PATH3},
        WIDE,
        "refuted",
    ),
    ("formula-above-cap", "lower_bound_formula", {}, TIGHT, "unchecked"),
    ("formula-non-product", "lower_bound_formula", {"subject": _PATH3}, WIDE, "need a product subject"),
    ("formula-unknown-bound", "lower_bound_formula", {"bound_id": "nope"}, WIDE, "unknown bound id"),
    (
        "formula-one-factor",
        "lower_bound_formula",
        {"subject": {"product": [_PATH3]}},
        WIDE,
        "exactly two factor",
    ),
    # legality: a labelling's legality and weight; it never needs a solve
    ("legality-verified", "legality", {}, WIDE, "verified"),
    ("legality-wrong-weight", "legality", {"value": 12}, WIDE, "refuted"),
    ("legality-no-labelling", "legality", {"labelling": None}, WIDE, "refuted"),
    ("legality-wrong-size", "legality", {"subject": {"family": "cycle:15"}}, WIDE, "refuted"),
    (
        "legality-illegal",
        "legality",
        {"subject": {"family": "path:2"}, "value": 0, "labelling": {"n": 3, "labels": ["0", "0"]}},
        WIDE,
        "refuted",
    ),
    ("legality-malformed", "legality", {"labelling": {"n": 3}}, WIDE, "malformed labelling"),
    (
        "legality-bad-subject-before-no-labelling",
        "legality",
        {"subject": {"mystery": 1}, "labelling": None},
        WIDE,
        "unknown certificate subject",
    ),
    # refutation: a product witness below the threshold the relation gives
    ("refutation-verified", "refutation", {}, WIDE, "verified"),
    ("refutation-wrong-threshold", "refutation", {"threshold": 9}, WIDE, "refuted"),
    ("refutation-not-below", "refutation", {"threshold": 8}, WIDE, "refuted"),
    ("refutation-witness-wrong-size", "refutation", {"value": 7}, WIDE, "refuted"),
    (
        "refutation-witness-not-maximal",
        "refutation",
        {"value": 7, "witness": (0, 1, 6, 7, 14, 15, 20)},
        WIDE,
        "refuted",
    ),
    ("refutation-witness-out-of-range", "refutation", {"value": 1, "witness": (99,)}, WIDE, "refuted"),
    ("refutation-no-witness", "refutation", {"witness": None}, WIDE, "refuted"),
    ("refutation-no-threshold", "refutation", {"threshold": None}, WIDE, "refuted"),
    ("refutation-no-relation", "refutation", {"relation": None}, WIDE, "refuted"),
    (
        "refutation-missing-field-before-subject",
        "refutation",
        {"witness": None, "subject": _PATH3},
        WIDE,
        "refuted",
    ),
    ("refutation-above-cap", "refutation", {}, TIGHT, "unchecked"),
    ("refutation-min-relation", "refutation", {"relation": "min_of_factors"}, WIDE, "refuted"),
    (
        "refutation-non-product",
        "refutation",
        {"subject": _PATH3, "value": 1, "witness": (1,)},
        WIDE,
        "need a product subject",
    ),
    ("refutation-unknown-relation", "refutation", {"relation": "nope"}, WIDE, "unknown refutation relation"),
    (
        "refutation-bad-witness-before-relation",
        "refutation",
        {"relation": "nope", "witness": (99,)},
        WIDE,
        "refuted",
    ),
]


@pytest.mark.parametrize(
    "claim, changes, limits, outcome",
    [pytest.param(*case[1:], id=case[0]) for case in VERIFY_CASES],
)
def test_verify_outcome_per_claim_kind(claim, changes, limits, outcome):
    cert = Certificate(claim=claim, **{**_GOOD_CLAIMS[claim], **changes})
    if outcome in ("verified", "refuted", "unchecked"):
        assert verify_certificate(cert, limits) == outcome
        # the same verdict from the certificate's own text
        assert verify_certificate(write_certificate(cert), limits) == outcome
    else:
        with pytest.raises(ValueError, match=outcome):
            verify_certificate(cert, limits)


def test_verify_unknown_claim_kind():
    # a Certificate built directly can name a kind the reader would refuse
    cert = Certificate(claim="nonsense", subject=_PATH3, value=1)
    with pytest.raises(ValueError, match="unknown certificate claim"):
        verify_certificate(cert, WIDE)


def _nested_product(depth):
    subject = {"family": "path:2"}
    for _ in range(depth):
        subject = {"product": [{"family": "path:1"}, subject]}
    return subject


def test_product_nesting_limit():
    from idomlab.formats import MAX_SUBJECT_DEPTH

    assert resolve_subject(_nested_product(MAX_SUBJECT_DEPTH)).graph.n == 2
    for depth in (MAX_SUBJECT_DEPTH + 1, 450):
        with pytest.raises(ValueError, match="nest more than"):
            resolve_subject(_nested_product(depth))
    # the limit also holds below the top of a subject, and for formula claims
    inner = {"product": [_nested_product(MAX_SUBJECT_DEPTH), {"family": "path:1"}]}
    with pytest.raises(ValueError, match="nest more than"):
        resolve_subject(inner)
    cert = Certificate(
        claim="lower_bound_formula", bound_id="factor-product-lower", subject=inner, value=1
    )
    with pytest.raises(ValueError, match="nest more than"):
        verify_certificate(cert, WIDE)


@pytest.mark.parametrize(
    "fields",
    [{"value": True}, {"value": None}, {"witness": [True]}, {"threshold": False}],
    ids=["value-bool", "value-null", "witness-bool", "threshold-bool"],
)
def test_booleans_and_null_value_refused(fields):
    payload = {"claim": "upper_bound_witness", "invariant": "i", "subject": {"family": "path:3"},
               "value": 1, "witness": [1]}
    assert verify_certificate(json.dumps(payload), WIDE) == "verified"
    with pytest.raises(ValueError, match="must be"):
        read_certificate(json.dumps({**payload, **fields}))


def test_unset_optional_fields_are_left_out():
    cert = Certificate(claim="legality", subject={"family": "path:3"}, value=1)
    assert cert.to_dict() == {
        "claim": "legality",
        "subject": {"family": "path:3"},
        "value": 1,
        "verdict": "unchecked",
        "paper_anchor": "",
    }
    assert read_certificate(write_certificate(cert)) == cert


@pytest.mark.parametrize("claim", ["lower_bound_formula", "refutation"])
def test_product_claim_subject_takes_no_other_key(claim):
    # a subject names one graph, so a product beside another key is refused
    good = Certificate(claim=claim, **_GOOD_CLAIMS[claim])
    assert verify_certificate(good, WIDE) == "verified"
    extra = Certificate(
        claim=claim, **{**_GOOD_CLAIMS[claim], "subject": {**good.subject, "family": "path:3"}}
    )
    with pytest.raises(ValueError, match="need a product subject"):
        verify_certificate(extra, WIDE)


def test_infinite_labelling_order_is_malformed():
    # JSON reads 1e999 as an infinite float
    text = json.dumps({"claim": "legality", "subject": {"family": "path:2"}, "value": 1,
                       "labelling": {"n": 1e999, "labels": ["1", "0"]}})
    with pytest.raises(ValueError, match="malformed labelling"):
        verify_certificate(text, WIDE)


@pytest.mark.parametrize(
    "labelling",
    [
        {"n": 3.9, "labels": ["1", "1"]},
        {"n": 3.0, "labels": ["1", "1"]},
        {"n": "3", "labels": ["1", "1"]},
        {"n": True, "labels": ["1", "1"]},
        {"n": None, "labels": ["1", "1"]},
        {"n": 3, "labels": "11"},
        {"n": 3, "labels": ["1", 1]},
        {"n": 3, "labels": ["1", 1.0]},
        {"n": 3, "labels": [True, "1"]},
        {"n": 3, "labels": {"0": "1", "1": "1"}},
        ["n", 3],
    ],
    ids=["n-float", "n-whole-float", "n-string", "n-bool", "n-null", "labels-string",
         "label-int", "label-float", "label-bool", "labels-object", "payload-list"],
)
def test_labelling_payload_types_are_checked(labelling):
    # the legal labelling 1, 1 of P_2 with n = 3, one field's type broken in each case
    good = {"claim": "legality", "subject": {"family": "path:2"}, "value": 2,
            "labelling": {"n": 3, "labels": ["1", "1"]}}
    assert verify_certificate(json.dumps(good), WIDE) == "verified"
    with pytest.raises(ValueError, match="malformed labelling"):
        verify_certificate(json.dumps({**good, "labelling": labelling}), WIDE)


def test_parsed_graph_orders_are_sized_before_building():
    # an 8-byte header announces 30000 vertices, whose rows could take 112 MB
    with pytest.raises(ValueError, match="edge list would have 30000 vertices"):
        parse_edge_list("30000 0\n")
    order = "~" + "".join(chr(((30000 >> shift) & 63) + 63) for shift in (12, 6, 0))
    with pytest.raises(ValueError, match="graph6 graph would have 30000 vertices"):
        graph6_decode(order)
    assert parse_edge_list("23000 0\n").n == 23000
