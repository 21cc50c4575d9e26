"""The four benchmark workloads: their answers, their inputs and their checks.

An answer is one ``idomlab.cli.main(argv)`` call.  A workload builds a
``Plan`` from its seed: the answers of one pass, in order.  Every
answer carries a check that parses the answer's stdout and raises
``Mismatch`` when it is wrong; answers that share a ``group`` are also
checked together once their pass is done.  Checks use the benchmark's own
predicates on adjacency rows, not the program's.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from random import Random
from types import ModuleType
from typing import Any, Callable, Optional

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DEFAULT_SEED = 1

INVARIANTS = ("i", "alpha", "gamma", "gamma_t", "rho")


class Mismatch(Exception):
    """An answer was delivered but its output is wrong."""


@dataclass
class Answer:
    label: str
    argv: list[str]
    check: Callable[[str], Any]
    group: Any = None


@dataclass
class Plan:
    answers: list[Answer]
    # checks a group of (answer, checked value) pairs; raises Mismatch
    check_group: Optional[Callable[[list[tuple[Answer, Any]]], None]] = None


# ---------------------------------------------------------------------------
# Predicates on bitset adjacency rows, independent of idomlab.invariants
# ---------------------------------------------------------------------------


def _members(bits: int) -> list[int]:
    return [v for v in range(bits.bit_length()) if bits >> v & 1]


def _independent(adj: tuple[int, ...], bits: int) -> bool:
    return all(adj[v] & bits == 0 for v in _members(bits))


def _dominating(adj: tuple[int, ...], bits: int) -> bool:
    covered = bits
    for v in _members(bits):
        covered |= adj[v]
    return covered == (1 << len(adj)) - 1


def _total_dominating(adj: tuple[int, ...], bits: int) -> bool:
    covered = 0
    for v in _members(bits):
        covered |= adj[v]
    return covered == (1 << len(adj)) - 1


def _two_packing(adj: tuple[int, ...], bits: int) -> bool:
    closed = [adj[v] | 1 << v for v in range(len(adj))]
    chosen = _members(bits)
    return all(
        closed[u] & closed[v] == 0 for k, u in enumerate(chosen) for v in chosen[k + 1 :]
    )


PREDICATES = {
    "i": lambda adj, bits: _independent(adj, bits) and _dominating(adj, bits),
    "alpha": _independent,
    "gamma": _dominating,
    "gamma_t": _total_dominating,
    "rho": _two_packing,
}


def _witness_value(stdout: str, adj: tuple[int, ...], invariant: str) -> int:
    """The certificate's value, after checking its witness against ``adj``."""
    try:
        lines = stdout.splitlines()
        if len(lines) != 1:
            raise ValueError(f"expected one certificate line, got {len(lines)}")
        cert = json.loads(lines[0])
        value, witness = cert["value"], cert["witness"]
    except (ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"unreadable certificate: {exc}") from None
    if cert.get("verdict") != "verified" or cert.get("invariant") != invariant:
        raise Mismatch(f"certificate is not a verified {invariant} value")
    if sorted(set(witness)) != witness or not all(0 <= v < len(adj) for v in witness):
        raise Mismatch("witness is not a sorted list of distinct vertices")
    if len(witness) != value:
        raise Mismatch(f"witness has {len(witness)} vertices, value is {value}")
    if not PREDICATES[invariant](adj, sum(1 << v for v in witness)):
        raise Mismatch(f"witness fails the {invariant} predicate")
    return value


def _expect(value: int, expected: int, what: str) -> int:
    if value != expected:
        raise Mismatch(f"{what}: got {value}, expected {expected}")
    return value


def _load_fixture(name: str) -> Any:
    with open(FIXTURES / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# paper: the six reproduce targets and the thm12 bundle, byte for byte
# ---------------------------------------------------------------------------

PAPER_COMMANDS = [
    (f"reproduce.{target}", ["reproduce", target, "--cap", "40"])
    for target in ("table1", "prop34", "thm32", "bounds4", "conj-refutation", "thm12")
] + [("verify", ["verify", "data/thm12_n11_witnesses.jsonl", "--cap", "64"])]


def paper_plan(seed: int, lab: dict[str, ModuleType], workdir: Path) -> Plan:
    def same_bytes(expected: str) -> Callable[[str], int]:
        def check(stdout: str) -> int:
            if stdout != expected:
                raise Mismatch("stdout differs from the recorded seed output")
            return len(stdout)

        return check

    answers = []
    for label, argv in PAPER_COMMANDS:
        with open(FIXTURES / "paper" / f"{label}.out", "r", encoding="utf-8") as handle:
            answers.append(Answer(label, argv, same_bytes(handle.read())))
    Random(seed).shuffle(answers)
    return Plan(answers)


# ---------------------------------------------------------------------------
# kn-route: i(G x K_n) through compute, the labelling route
# ---------------------------------------------------------------------------

# m = 23 and 24 are left out: they alone took more than half of a pass.
KN_ORDERS = range(3, 23)
KN_DENSE_FACTORS = (
    [f"cocktail:{r}" for r in range(4, 9)]
    + [f"kbip:{a},{a}" for a in range(3, 7)]
    + [f"X:{m}" for m in range(3, 7)]
)


def kn_route_commands() -> list[tuple[str, int, list[str]]]:
    """(factor spec, n, argv) for every kn-route answer, path/cycle group first."""
    specs = [(f"{kind}:{m}", n) for kind in ("path", "cycle") for n in (2, 3, 4) for m in KN_ORDERS]
    specs += [(spec, n) for spec in KN_DENSE_FACTORS for n in (3, 4)]
    return [
        (spec, n, ["compute", "--graph", spec, "--product", f"complete:{n}", "--invariant", "i", "--cap", "40"])
        for spec, n in specs
    ]


def kn_route_plan(seed: int, lab: dict[str, ModuleType], workdir: Path) -> Plan:
    recorded = _load_fixture("kn_route_dense.json")
    families, products, labelling = lab["families"], lab["products"], lab["labelling"]
    answers = []
    for spec, n, argv in kn_route_commands():
        kind, _, param = spec.partition(":")
        if kind in ("path", "cycle"):
            expected = labelling.formula_value(kind, int(param), n)
        else:
            expected = recorded[f"{spec} x K{n}"]

        def check(stdout: str, spec=spec, n=n, expected=expected) -> int:
            product = products.direct_product(families.build_family(spec), families.make_complete(n))
            value = _witness_value(stdout, product.graph.adj, "i")
            return _expect(value, expected, f"i({spec} x K{n})")

        answers.append(Answer("compute", argv, check))
    Random(seed).shuffle(answers)
    return Plan(answers)


# ---------------------------------------------------------------------------
# dense-factors: five invariants of seeded random G(n, 0.15), from graph6 files
# ---------------------------------------------------------------------------

DENSE_ORDERS = tuple(range(24, 29))
DENSE_DRAWS = 100
DENSE_EDGE_PROBABILITY = 0.15
DENSE_BUDGET_SECS = "60"


def dense_graphs(seed: int, lab: dict[str, ModuleType]) -> list[list[Any]]:
    """``DENSE_DRAWS`` draws of connected random graphs, one per order in each."""
    rng = Random(seed)
    random_connected_graph = lab["smallgraphs"].random_connected_graph
    return [
        [random_connected_graph(rng, n, DENSE_EDGE_PROBABILITY) for n in DENSE_ORDERS]
        for _ in range(DENSE_DRAWS)
    ]


def dense_factors_plan(seed: int, lab: dict[str, ModuleType], workdir: Path) -> Plan:
    graph6_encode = lab["formats"].graph6_encode
    recorded = _load_fixture(f"dense_factors_seed{DEFAULT_SEED}.json") if seed == DEFAULT_SEED else None
    answers = []
    for p, graphs in enumerate(dense_graphs(seed, lab)):
        for g, graph in enumerate(graphs):
            text = graph6_encode(graph)
            path = workdir / f"dense-{p}-{g}.g6"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            for invariant in INVARIANTS:
                expected = recorded[text][invariant] if recorded is not None else None

                def check(stdout: str, adj=graph.adj, invariant=invariant, expected=expected) -> int:
                    value = _witness_value(stdout, adj, invariant)
                    if expected is not None:
                        _expect(value, expected, f"{invariant} at the default seed")
                    return value

                argv = [
                    "compute", "--graph-file", str(path), "--format", "graph6",
                    "--invariant", invariant, "--cap", "40", "--budget-secs", DENSE_BUDGET_SECS,
                ]
                answers.append(Answer(f"compute.{invariant}", argv, check, group=(p, g)))
    return Plan(answers, check_group=_dense_chain)


def _dense_chain(group: list[tuple[Answer, Any]]) -> None:
    values = {answer.label.partition(".")[2]: value for answer, value in group}
    if set(values) != set(INVARIANTS):
        return  # a missing answer is already counted as failed
    i, alpha, gamma, gamma_t, rho = (values[name] for name in INVARIANTS)
    if not (gamma <= i <= alpha and rho <= gamma and gamma <= gamma_t):
        raise Mismatch(f"invariant chain violated: {values}")


# ---------------------------------------------------------------------------
# long-sparse: i and gamma on long paths and cycles under a short budget
# ---------------------------------------------------------------------------

# At the seed every outcome here is independent of machine speed.  The
# successes finish before the solver's first clock check (4096 search nodes),
# so the budget never applies to them.  At 900 the search is nowhere near done
# at that check, which comes after more than twice the budget, so it exhausts
# the budget (exit 3).  At 3000 it raises RecursionError out of main before any
# clock check.  Alpha is left out: at the seed it overruns any budget on long
# paths.
LONG_BUDGET_SECS = "0.1"
LONG_CASES = [
    (kind, invariant, m)
    for kind in ("path", "cycle")
    for invariant, m in (("i", 100), ("i", 150), ("gamma", 50), ("gamma", 70), ("i", 900), ("gamma", 900))
] + [("path", "i", 3000), ("path", "gamma", 3000)]


def long_sparse_plan(seed: int, lab: dict[str, ModuleType], workdir: Path) -> Plan:
    answers = []
    for kind, invariant, m in LONG_CASES:
        adj = _path_or_cycle(kind, m)

        def check(stdout: str, adj=adj, kind=kind, invariant=invariant, m=m) -> int:
            value = _witness_value(stdout, adj, invariant)
            return _expect(value, -(-m // 3), f"{invariant}({kind}:{m})")

        argv = [
            "compute", "--graph", f"{kind}:{m}", "--invariant", invariant,
            "--cap", "5000", "--budget-secs", LONG_BUDGET_SECS,
        ]
        answers.append(Answer(f"compute.{invariant}", argv, check))
    Random(seed).shuffle(answers)
    return Plan(answers)


def _path_or_cycle(kind: str, m: int) -> tuple[int, ...]:
    rows = [0] * m
    edges = [(v, v + 1) for v in range(m - 1)]
    if kind == "cycle":
        edges.append((m - 1, 0))
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


WORKLOADS: dict[str, Callable[[int, dict[str, ModuleType], Path], Plan]] = {
    "paper": paper_plan,
    "kn-route": kn_route_plan,
    "dense-factors": dense_factors_plan,
    "long-sparse": long_sparse_plan,
}


def build(name: str, seed: int, lab: dict[str, ModuleType], workdir: Path) -> Plan:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, lab, workdir)
