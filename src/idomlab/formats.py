"""Bit-exact serialization: graph formats, pattern syntax, certificates.

Formats are documented with examples in ``docs/formats.md``.  Certificates
are canonical JSON (UTF-8, sorted keys, integers only) so identical claims
diff cleanly across runs; every verified certificate re-verifies from its
own contents.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from typing import Any, Iterator, Optional

from .bounds import bound_rhs
from .families import build_family
from .graph import Graph, VertexSet, build_graph
from .invariants import (
    DEFAULT_LIMITS,
    PREDICATES,
    BudgetExhausted,
    CapExceeded,
    SolverLimits,
    invariant,
    is_maximal_independent,
)
from .labelling import Labelling, check_legal, weight
from .products import check_row_bytes, direct_product

# ---------------------------------------------------------------------------
# Edge-list text: first line "n m", then m lines "u v"; '#' starts a comment
# ---------------------------------------------------------------------------


def _records(text: str, expected: str) -> Iterator[tuple[int, str, list[str]]]:
    """Yield ``(line number, line, fields)`` for each record of two-field text.

    ``#`` starts a comment and blank lines are skipped; a line without
    exactly two whitespace-separated fields is an error naming ``expected``.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected {expected}, got {raw!r}")
        yield lineno, raw, parts


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; parse errors carry the offending line number."""
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    for lineno, raw, parts in _records(text, "two integers"):
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise ValueError(f"line {lineno}: header counts must be nonnegative")
            check_row_bytes(a, "edge list")
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise ValueError("empty edge-list input")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"header announced {m} edges but {len(edges)} were given")
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"bad edge list: {exc}") from None


def parse_pair_manifest(text: str) -> list[tuple[str, str]]:
    """Parse a manifest with one whitespace-separated family-spec pair per line."""
    return [(left, right) for _, _, (left, right) in _records(text, "two family specs")]


def format_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.edge_count()}"]
    lines += [f"{u} {v}" for u, v in graph.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6: standard 63+x byte encoding, upper-triangle column-major bit order
# ---------------------------------------------------------------------------


def graph6_encode(graph: Graph) -> str:
    n = graph.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise ValueError(f"graph6 encoding for n={n} is outside the supported range")
    bits: list[int] = []
    for j in range(1, n):
        column = graph.adj[j]
        for i in range(j):
            bits.append((column >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    return head + "".join(chars)


def graph6_decode(text: str) -> Graph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    if not data:
        raise ValueError("empty graph6 string")
    values = []
    for pos, ch in enumerate(data):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise ValueError(f"byte {pos}: {ch!r} is not a graph6 character")
        values.append(code - 63)
    if values[0] <= 62:
        n = values[0]
        body = values[1:]
    else:
        if len(values) < 4:
            raise ValueError("truncated graph6 order field")
        if values[1] > 62:
            raise ValueError("graph6 orders above 258047 are not supported")
        n = (values[1] << 12) | (values[2] << 6) | values[3]
        body = values[4:]
    check_row_bytes(n, "graph6 graph")
    pair_count = n * (n - 1) // 2
    expected = (pair_count + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 length mismatch: order {n} needs {expected} data bytes, got {len(body)}"
        )
    bits = []
    for value in body:
        for shift in range(5, -1, -1):
            bits.append((value >> shift) & 1)
    if any(bits[pair_count:]):
        raise ValueError("graph6 padding bits must be zero")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges)


def read_graphs(text: str, fmt: str) -> list[tuple[Graph, dict[str, str]]]:
    """Every graph in a file's text, each with the certificate subject naming it.

    An edge-list text holds one graph, named ``{"edge_list": text}``.  A graph6
    text holds one graph a line, named ``{"graph6": line}``; blank lines and
    lines starting with ``#`` are skipped, so the list may be empty.
    """
    if fmt == "edge-list":
        return [(parse_edge_list(text), {"edge_list": text})]
    if fmt == "graph6":
        lines = (line.strip() for line in text.splitlines())
        return [
            (graph6_decode(line), {"graph6": line})
            for line in lines
            if line and not line.startswith("#")
        ]
    raise ValueError(f"unknown graph format {fmt!r}; use 'edge-list' or 'graph6'")


def read_graph(text: str, fmt: str) -> Graph:
    """Parse the one graph in a text in the named format."""
    graphs = read_graphs(text, fmt)
    if len(graphs) != 1:
        raise ValueError(f"expected one graph, the text holds {len(graphs)}")
    return graphs[0][0]


def write_graph(graph: Graph, fmt: str) -> str:
    if fmt == "edge-list":
        return format_edge_list(graph)
    if fmt == "graph6":
        return graph6_encode(graph) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}; use 'edge-list' or 'graph6'")


# ---------------------------------------------------------------------------
# Compact pattern syntax: "(1,1,0,2,2,0)^2(3,3,3,0)"
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(r"\(([^()]*)\)(?:\^([0-9]+))?")


def parse_pattern(text: str, n: int, expect_length: Optional[int] = None) -> Labelling:
    """Expand pattern groups into a labelling over the clique order ``n``.

    Each group ``(c_1,...,c_k)^r`` contributes ``r`` copies of its labels;
    the exponent defaults to 1.  Tokens are class numbers in ASCII digits
    or ``[n]``.
    """
    stripped = text.strip()
    groups: list[tuple[list[int], int]] = []
    length = 0
    pos = 0
    while pos < len(stripped):
        match = _GROUP_RE.match(stripped, pos)
        if match is None:
            raise ValueError(f"pattern syntax error at position {pos} in {text!r}")
        body, exponent = match.group(1), match.group(2)
        repeat = int(exponent) if exponent else 1
        if repeat < 1:
            raise ValueError("pattern exponents must be at least 1")
        group_tags = []
        tokens = [] if not body.strip() else body.split(",")
        for token in tokens:
            token = token.strip()
            if token == "[n]":
                group_tags.append(n + 1)
                continue
            if not (token.isascii() and token.isdigit()):
                raise ValueError(f"unknown pattern token {token!r}")
            value = int(token)
            if value > n:
                raise ValueError(f"class {value} exceeds the clique order {n}")
            group_tags.append(value)
        groups.append((group_tags, repeat))
        length += len(group_tags) * repeat
        pos = match.end()
    # checked before expanding, so a large exponent cannot allocate first
    if expect_length is not None and length != expect_length:
        raise ValueError(f"pattern expands to {length} labels but {expect_length} were expected")
    tags: list[int] = []
    for group_tags, repeat in groups:
        tags.extend(group_tags * repeat)
    return Labelling(n, tuple(tags))


def print_pattern(labelling: Labelling) -> str:
    """Compact pattern text for a labelling; parsing it back is the identity.

    The longest run of repeats of the leading six labels is folded into one
    exponent group, matching the periodic constructions for paths and
    cycles; the remainder is printed as a single group.
    """
    symbols = labelling.label_strings()
    m = len(symbols)
    if m == 0:
        return "()"
    block = symbols[:6]
    repeats = 0
    if m >= 6:
        while (repeats + 1) * 6 <= m and symbols[repeats * 6 : (repeats + 1) * 6] == block:
            repeats += 1
    if repeats >= 1 and (repeats > 1 or m > 6):
        head = f"({','.join(block)})"
        if repeats > 1:
            head += f"^{repeats}"
        rest = symbols[repeats * 6 :]
        if rest:
            head += f"({','.join(rest)})"
        return head
    return f"({','.join(symbols)})"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

# The conjecture relation a refutation names, as its id in the bounds table.
_REFUTED_BOUNDS = {
    "product_of_factors": "factor-product-lower",
    "min_of_factors": "factor-min-lower",
}

# The type a certificate field must have where the reader finds it set; only
# ``value`` may not be null.  Booleans are refused where ints are asked for.
_FIELD_TYPES = {"value": int, "invariant": str, "bound_id": str, "relation": str, "threshold": int}

# Product subjects nest at most this deep.  A product of factors of two or
# more vertices each passes the product size guard within 17 levels.
MAX_SUBJECT_DEPTH = 32


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable claim about a graph or a product of graphs.

    The fields that default to ``None`` are optional; they are left out of
    the certificate's JSON while unset, and every other field is written.
    """

    claim: str
    subject: dict[str, Any]
    value: int
    verdict: str = "unchecked"
    invariant: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None
    bound_id: Optional[str] = None
    relation: Optional[str] = None
    threshold: Optional[int] = None
    labelling: Optional[dict[str, Any]] = None
    query: Optional[dict[str, Any]] = None
    paper_anchor: str = ""

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None or field.default is not None:
                payload[field.name] = list(value) if field.name == "witness" else value
        return payload


def write_certificate(certificate: Certificate) -> str:
    """Canonical one-line JSON: sorted keys, no floats, UTF-8."""
    return json.dumps(certificate.to_dict(), sort_keys=True, separators=(",", ":"))


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("certificate JSON nests too deeply") from None


def read_certificate(text: str) -> Certificate:
    return _certificate_from_payload(_load_json(text))


def read_certificates(text: str) -> list[Certificate]:
    """Parse a bundle: a JSON array of certificates, or one certificate a line.

    Blank lines are skipped; an empty bundle gives an empty list.
    """
    if text.lstrip().startswith("["):
        return [_certificate_from_payload(item) for item in _load_json(text)]
    return [read_certificate(line) for line in text.splitlines() if line.strip()]


def _certificate_from_payload(payload: Any) -> Certificate:
    if not isinstance(payload, dict):
        raise ValueError("certificate JSON must be an object")
    claim = payload.get("claim")
    if claim not in _CLAIM_CHECKS:
        raise ValueError(f"unknown certificate claim {claim!r}")
    if "subject" not in payload or "value" not in payload:
        raise ValueError("certificate must carry 'subject' and 'value'")
    for key, kind in _FIELD_TYPES.items():
        item = payload.get(key)
        if type(item) is not kind and (item is not None or key == "value"):
            raise ValueError(f"certificate field {key!r} must be of type {kind.__name__}")
    given = {f.name: payload[f.name] for f in fields(Certificate) if f.name in payload}
    witness = given.get("witness")
    if witness is not None:
        if not (isinstance(witness, list) and all(type(u) is int for u in witness)):
            raise ValueError("a certificate witness must be a list of vertex integers")
        given["witness"] = tuple(witness)
    return Certificate(**given)


_SUBJECT_PARSERS = {"family": build_family, "graph6": graph6_decode, "edge_list": parse_edge_list}


def resolve_subject(subject: dict[str, Any] | str):
    """Rebuild the graph (or product) a certificate subject describes.

    Subjects are ``{"family": spec}``, ``{"graph6": text}``,
    ``{"edge_list": text}``, or ``{"product": [subject, subject]}``; a bare
    string is shorthand for a family spec.  Products resolve to
    :class:`~idomlab.products.ProductGraph`, and may nest at most
    ``MAX_SUBJECT_DEPTH`` deep.
    """
    if isinstance(subject, str):
        return build_family(subject)
    if not isinstance(subject, dict) or len(subject) != 1:
        raise ValueError(f"malformed certificate subject: {subject!r}")
    key, value = next(iter(subject.items()))
    if key == "product":
        return direct_product(*_factor_graphs(value))
    if key not in _SUBJECT_PARSERS:
        raise ValueError(f"unknown certificate subject kind {key!r}")
    if not isinstance(value, str):
        raise ValueError(f"a {key!r} subject must be a string, not {value!r}")
    return _SUBJECT_PARSERS[key](value)


def _subject_graph(subject) -> Graph:
    resolved = resolve_subject(subject)
    return resolved.graph if hasattr(resolved, "graph") else resolved


def _factor_graphs(value: Any) -> tuple[Graph, Graph]:
    """The two factor graphs a product subject's list describes."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("product subjects take exactly two factor subjects")
    # Walk the nesting before resolving anything, so a deep subject is
    # refused here rather than by the interpreter's recursion limit.
    level = value
    for _ in range(MAX_SUBJECT_DEPTH):
        level = [
            factor
            for item in level
            if isinstance(item, dict) and isinstance(item.get("product"), list)
            for factor in item["product"]
        ]
    if level:
        raise ValueError(f"product subjects nest more than {MAX_SUBJECT_DEPTH} deep")
    return _subject_graph(value[0]), _subject_graph(value[1])


def _product_factors(cert: Certificate) -> tuple[Graph, Graph]:
    """The factors of a claim's subject, which must be a product and nothing else."""
    subject = cert.subject
    if not (isinstance(subject, dict) and subject.keys() == {"product"}):
        # "formula" or "refutation"
        raise ValueError(f"{cert.claim.rpartition('_')[2]} certificates need a product subject")
    return _factor_graphs(subject["product"])


def _witness_holds(graph: Graph, witness: tuple[int, ...], predicate, value: int) -> bool:
    """Whether ``witness`` names ``value`` vertices of ``graph`` that pass ``predicate``."""
    try:
        members = VertexSet.from_vertices(graph.n, witness)
    except ValueError:
        return False
    return predicate(graph, members) and len(members) == value


# Each check below returns True (the claim holds), False (it does not) or
# None (undecided); a solve above the cap or past the budget is undecided too.


def _check_witness_claim(cert: Certificate, limits: SolverLimits) -> Optional[bool]:
    if cert.invariant not in PREDICATES:
        raise ValueError(f"certificate names unknown invariant {cert.invariant!r}")
    graph = _subject_graph(cert.subject)
    if cert.witness is None:
        return None
    if not _witness_holds(graph, cert.witness, PREDICATES[cert.invariant], cert.value):
        return False
    if cert.claim == "upper_bound_witness":
        return True
    # exact-value claims additionally re-solve when the cap allows
    return invariant(graph, cert.invariant, limits).value == cert.value


def _check_legality(cert: Certificate, limits: SolverLimits) -> bool:
    graph = _subject_graph(cert.subject)
    if cert.labelling is None:
        return False
    try:
        n, labels = cert.labelling["n"], cert.labelling["labels"]
        if type(n) is not int:
            raise ValueError(f"n must be an integer, not {n!r}")
        if type(labels) is not list:
            raise ValueError("labels must be a list of label strings")
        lab = Labelling.from_strings(n, labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed labelling payload: {exc}") from None
    return lab.size == graph.n and check_legal(graph, lab).legal and weight(lab) == cert.value


def _check_formula(cert: Certificate, limits: SolverLimits) -> bool:
    if cert.bound_id is None:
        return False
    return bound_rhs(cert.bound_id, *_product_factors(cert), limits) == cert.value


def _check_refutation(cert: Certificate, limits: SolverLimits) -> bool:
    if cert.witness is None or cert.threshold is None or cert.relation is None:
        return False
    left, right = _product_factors(cert)
    graph = direct_product(left, right).graph
    if cert.value >= cert.threshold or not _witness_holds(
        graph, cert.witness, is_maximal_independent, cert.value
    ):
        return False
    if cert.relation not in _REFUTED_BOUNDS:
        raise ValueError(f"unknown refutation relation {cert.relation!r}")
    return bound_rhs(_REFUTED_BOUNDS[cert.relation], left, right, limits) == cert.threshold


# The claim kinds a certificate may make, each with its check.
_CLAIM_CHECKS = {
    "invariant_value": _check_witness_claim,
    "upper_bound_witness": _check_witness_claim,
    "lower_bound_formula": _check_formula,
    "legality": _check_legality,
    "refutation": _check_refutation,
}
_VERDICTS = {True: "verified", False: "refuted", None: "unchecked"}


def verify_certificate(
    certificate: Certificate | str, limits: SolverLimits = DEFAULT_LIMITS
) -> str:
    """Re-check a claim from the certificate contents alone.

    Returns ``"verified"``, ``"refuted"``, or ``"unchecked"``.  By claim kind:

    - ``invariant_value`` and ``upper_bound_witness``: the witness must be
      vertices of the subject that pass the invariant's predicate, ``value``
      of them; without a witness the claim is unchecked.  An exact-value claim
      is then re-solved, and is unchecked where that solve would exceed the
      cap or run out of its budget.  Witness checks are polynomial and run at
      any size.
    - ``legality``: the labelling must be legal on the subject, of its order,
      and of weight ``value``.
    - ``lower_bound_formula``: the bound's right side on the product's factors
      must equal ``value``; unchecked where it needs a solve above the cap.
    - ``refutation``: the witness must be a maximal independent set of the
      product of ``value`` vertices, below ``threshold``, and ``threshold``
      must be the relation's right side on the factors (unchecked where that
      needs a solve above the cap).

    A required field left unset refutes the claim.  Raises ``ValueError`` for
    an unknown claim kind, invariant, bound id or relation, a malformed
    labelling or subject, and a formula or refutation whose subject is not a
    product.
    """
    if isinstance(certificate, str):
        certificate = read_certificate(certificate)
    check = _CLAIM_CHECKS.get(certificate.claim)
    if check is None:
        raise ValueError(f"unknown certificate claim {certificate.claim!r}")
    try:
        return _VERDICTS[check(certificate, limits)]
    except (CapExceeded, BudgetExhausted):
        return "unchecked"
