"""Command-line surface: compute, product, verify, reproduce, search, export.

Exit codes are a stable contract: 0 success/verified, 1 refutation or
mismatch, 2 usage error, 3 budget or cap exceeded.  Diagnostics go to
stderr; stdout carries only the requested payload, and identical
configurations produce byte-identical JSON output regardless of worker
count (results are emitted in input order, never completion order).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from random import Random
from time import perf_counter
from typing import Any, Callable, Iterable, Optional, Sequence

# SOLVERS is read through its module: bench/tracer.py wraps the solvers in
# every dict a module binds, so a second binding would wrap them twice
from . import invariants
from .bounds import BOUND_IDS, BoundReport, evaluate_pair_bounds, k2_sandwich
from .families import (
    build_family,
    build_family_with_witness,
    counterexample_product,
    extreme_product,
    family_size,
    make_complete,
    make_complete_bipartite,
    parse_family,
)
from .formats import (
    Certificate,
    parse_pair_manifest,
    read_certificates,
    read_graphs,
    verify_certificate,
    write_certificate,
    write_graph,
)
from .graph import Graph
from .invariants import (
    BudgetExhausted,
    CapExceeded,
    SolverLimits,
    independent_domination_number,
    invariant as solve_invariant,
    is_maximal_independent,
)
from .labelling import (
    check_legal,
    formula_value,
    minimize_weight,
    pattern_labelling,
    to_independent_set,
    weight,
)
from .products import check_product_order, direct_product
from .smallgraphs import random_connected_graph, random_isolate_free_graph

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

ENV_CAP = "IDOMLAB_CAP"

# What a solve can run out of: the vertex cap or the time budget.
_RESOURCE_FAILURES = (CapExceeded, BudgetExhausted)


def _default_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return 40
    try:
        value = int(raw)
    except ValueError:
        raise SystemExit(f"{ENV_CAP} must be an integer, got {raw!r}")
    if value <= 0:
        raise SystemExit(f"{ENV_CAP} must be positive")
    return value


def _limits(args: argparse.Namespace, floor: int = 0) -> SolverLimits:
    """The run's solver limits, with the vertex cap raised to at least ``floor``."""
    return SolverLimits(vertex_cap=max(args.cap, floor), budget_secs=args.budget_secs)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _emit_rows(rows: list[dict[str, Any]], out: str) -> None:
    if out == "json":
        for row in rows:
            sys.stdout.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
        return
    if out == "csv":
        if not rows:
            return
        # the union of the rows' keys, in first-seen order
        columns = list(dict.fromkeys(key for row in rows for key in row))
        sys.stdout.write(",".join(columns) + "\n")
        for row in rows:
            sys.stdout.write(
                ",".join(_csv_cell(row.get(col, "")) for col in columns) + "\n"
            )
        return
    if out == "human":
        for row in rows:
            sys.stdout.write(
                "  ".join(f"{key}={_human_cell(value)}" for key, value in row.items()) + "\n"
            )
        return
    raise SystemExit(f"unknown output mode {out!r}")


def _csv_cell(value: Any) -> str:
    text = _human_cell(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _human_cell(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _emit_certificates(certs: list[Certificate], out: str) -> None:
    if out == "json":
        for cert in certs:
            sys.stdout.write(write_certificate(cert) + "\n")
        return
    rows = []
    for cert in certs:
        row: dict[str, Any] = {
            "claim": cert.claim,
            "subject": cert.subject,
            "invariant": cert.invariant or "",
            "value": cert.value,
            "verdict": cert.verdict,
        }
        if cert.witness is not None:
            row["witness"] = list(cert.witness)
        if cert.query is not None:
            row["query"] = cert.query
        rows.append(row)
    _emit_rows(rows, out)


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


# ---------------------------------------------------------------------------
# Graph loading
# ---------------------------------------------------------------------------


def _read_graph_file(args: argparse.Namespace) -> list[tuple[Graph, dict[str, Any]]]:
    with open(args.graph_file, "r", encoding="utf-8") as handle:
        graphs = read_graphs(handle.read(), args.format)
    if not graphs:
        raise ValueError(f"no graph6 lines in {args.graph_file}")
    return graphs


def _load_input_graph(args: argparse.Namespace) -> tuple[Graph, dict[str, Any]]:
    if args.graph is not None and args.graph_file is not None:
        raise SystemExit("give either --graph or --graph-file, not both")
    if args.graph is not None:
        spec = parse_family(args.graph)  # validates at parse time
        return build_family(spec), {"family": str(spec)}
    if args.graph_file is not None:
        loaded = _read_graph_file(args)
        if len(loaded) != 1:
            raise SystemExit(
                "the input file holds several graphs; this subcommand takes exactly one"
            )
        return loaded[0]
    raise SystemExit("an input graph is required (--graph or --graph-file)")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    graph, subject = _load_input_graph(args)
    limits = _limits(args)
    try:
        if args.product is None:
            result = solve_invariant(graph, args.invariant, limits)
            value, witness = result.value, result.witness
        else:
            product_spec = parse_family(args.product)
            right = build_family(product_spec)
            subject = {"product": [subject, {"family": str(product_spec)}]}
            order = product_spec.params[0] if product_spec.kind == "complete" else 0
            # G x K_1 is edgeless, so i of it is the order of G: the product route below
            if args.invariant == "i" and order >= 2:
                total = check_product_order(graph.n, order)
                labelling, value = minimize_weight(graph, order, limits)
                witness = to_independent_set(graph, labelling)
                # the product is built only for the cross-check, under the cap
                if total <= limits.vertex_cap:
                    cross = independent_domination_number(direct_product(graph, right).graph, limits)
                    if cross.value != value:
                        _note(
                            f"weight minimizer ({value}) and product solver "
                            f"({cross.value}) disagree"
                        )
                        return EXIT_MISMATCH
                    _note(f"cross-check against the product solver agreed: {value}")
            else:
                product = direct_product(graph, right)
                result = solve_invariant(product.graph, args.invariant, limits)
                value, witness = result.value, result.witness
    except _RESOURCE_FAILURES as exc:
        _note(f"aborted: {exc}")
        status = EXIT_BUDGET
        cert = Certificate(
            claim="invariant_value",
            invariant=args.invariant,
            subject=subject,
            value=-1,
            verdict="unchecked",
        )
    else:
        status = EXIT_OK
        cert = Certificate(
            claim="invariant_value",
            invariant=args.invariant,
            subject=subject,
            value=value,
            witness=witness.members(),
            verdict="verified",
        )
        if args.k is not None:
            answer = value <= args.k
            _note(f"decision: value {value} <= {args.k} is {str(answer).lower()}")
            cert = replace(cert, query={"k": args.k, "satisfied": answer})
    _emit_certificates([cert], args.out)
    return status


# ---------------------------------------------------------------------------
# product / export
# ---------------------------------------------------------------------------


def _cmd_export(args: argparse.Namespace) -> int:
    graph, subject = _load_input_graph(args)
    meta: dict[str, Any] = dict(subject) if "family" in subject else {}
    if args.product is not None:
        right = build_family(args.product)
        product = direct_product(graph, right)
        meta = {
            "nG": product.left.n,
            "nH": product.right.n,
            "encoding": "row-major",
        }
        graph = product.graph
    if graph.labels is not None:
        meta["labels"] = list(graph.labels)
    payload = write_graph(graph, args.write_format)
    if args.out_file is None:
        sys.stdout.write(payload)
        if meta:
            _note("metadata sidecar omitted on stdout; use --out-file to write it")
        return EXIT_OK
    extension = "g6" if args.write_format == "graph6" else "edges"
    graph_path = f"{args.out_file}.{extension}"
    with open(graph_path, "w", encoding="utf-8") as handle:
        handle.write(payload)
    sidecar_path = f"{args.out_file}.meta.json"
    with open(sidecar_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    _note(f"wrote {graph_path} and {sidecar_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.certificates, "r", encoding="utf-8") as handle:
        certificates = read_certificates(handle.read())
    if not certificates:
        _note("empty bundle: zero claims")
        return EXIT_OK

    limits = _limits(args)
    rows = []
    refuted = 0
    unchecked = 0
    for index, cert in enumerate(certificates):
        verdict = verify_certificate(cert, limits)
        if verdict == "refuted":
            refuted += 1
        elif verdict != "verified":
            unchecked += 1
        rows.append(
            {
                "index": index,
                "claim": cert.claim,
                "subject": cert.subject,
                "value": cert.value,
                "verdict": verdict,
            }
        )
    _emit_rows(rows, args.out)
    _note(
        f"{len(certificates)} claims: {len(certificates) - refuted - unchecked} verified, "
        f"{refuted} refuted, {unchecked} unchecked"
    )
    if refuted:
        return EXIT_MISMATCH
    if unchecked:
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

TABLE1_EXPECTED = {
    "path": (3, 4, 4, 5, 6, 6, 7, 8, 8, 9),
    "cycle": (3, 4, 5, 4, 5, 6, 6, 7, 8, 8),
}


def _reproduce_table1(args: argparse.Namespace) -> list[dict[str, Any]]:
    limits = _limits(args, 36)
    rows = []
    k3 = make_complete(3)
    for kind in ("path", "cycle"):
        for offset, m in enumerate(range(3, 13)):
            expected = TABLE1_EXPECTED[kind][offset]
            graph = build_family(f"{kind}:{m}")
            via_product = independent_domination_number(
                direct_product(graph, k3).graph, limits
            ).value
            via_weight = minimize_weight(graph, 3, limits)[1]
            ok = via_product == expected and via_weight == expected
            rows.append(
                {
                    "target": "table1",
                    "family": kind,
                    "m": m,
                    "expected": expected,
                    "product_solver": via_product,
                    "weight_minimizer": via_weight,
                    "status": "ok" if ok else "MISMATCH",
                }
            )
    return rows


def _reproduce_prop34(args: argparse.Namespace) -> list[dict[str, Any]]:
    limits = _limits(args, 48)
    rows = []
    for kind in ("path", "cycle"):
        for n in (2, 3, 4):
            kn = make_complete(n)
            for m in range(3, 13):
                graph = build_family(f"{kind}:{m}")
                formula = formula_value(kind, m, n)
                exact = independent_domination_number(
                    direct_product(graph, kn).graph, limits
                ).value
                ok = formula == exact
                rows.append(
                    {
                        "target": "prop34",
                        "check": "formula-vs-exact",
                        "family": kind,
                        "m": m,
                        "n": n,
                        "formula": formula,
                        "exact": exact,
                        "status": "ok" if ok else "MISMATCH",
                    }
                )
    for kind in ("path", "cycle"):
        for m in range(3, 41):
            graph = build_family(f"{kind}:{m}")
            labelling = pattern_labelling(kind, m, 3)
            legal = check_legal(graph, labelling).legal
            expected = formula_value(kind, m, 3)
            got = weight(labelling)
            ok = legal and got == expected
            rows.append(
                {
                    "target": "prop34",
                    "check": "pattern-construction",
                    "family": kind,
                    "m": m,
                    "n": 3,
                    "formula": expected,
                    "pattern_weight": got,
                    "legal": legal,
                    "status": "ok" if ok else "MISMATCH",
                }
            )
    return rows


def _reproduce_thm32(args: argparse.Namespace) -> list[dict[str, Any]]:
    limits = _limits(args, 20)
    rng = Random(320)
    checked = 0
    violations = 0
    for _ in range(500):
        n = rng.randint(2, 10)
        p = rng.uniform(0.15, 0.9)
        graph = random_isolate_free_graph(rng, n, p)
        checked += 1
        if not k2_sandwich(graph, limits).holds:
            violations += 1
    star = k2_sandwich(make_complete_bipartite(1, 4), limits)
    star_tight = star.lhs == int(star.detail["i_product_k2"]) == 2
    kbip = k2_sandwich(make_complete_bipartite(3, 3), limits)
    kbip_tight = int(kbip.detail["i_product_k2"]) == kbip.rhs == 6
    return [
        {
            "target": "thm32",
            "check": "sandwich-random",
            "graphs": checked,
            "violations": violations,
            "status": "ok" if violations == 0 else "MISMATCH",
        },
        {
            "target": "thm32",
            "check": "lower-tight-star",
            "status": "ok" if star_tight else "MISMATCH",
        },
        {
            "target": "thm32",
            "check": "upper-tight-kbip",
            "status": "ok" if kbip_tight else "MISMATCH",
        },
    ]


def _sample_bound_pair(rng: Random) -> tuple[Graph, Graph]:
    """A random pair with connected factors and product order at most 36."""
    while True:
        structured = rng.random() < 0.3
        graphs = []
        for _ in range(2):
            if structured and rng.random() < 0.5:
                kind = rng.choice(("path", "cycle", "complete"))
                low = 3 if kind == "cycle" else 2
                graphs.append(build_family(f"{kind}:{rng.randint(low, 6)}"))
            else:
                graphs.append(random_connected_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 0.9)))
        left, right = graphs
        if left.n * right.n <= 36:
            return left, right


_BOUNDS4 = (
    "packing-total-lower",
    "degree-ratio-lower",
    "bipartite-domination-lower",
    "clawfree-factor-lower",
)


def _reproduce_bounds4(args: argparse.Namespace) -> list[dict[str, Any]]:
    limits = _limits(args, 36)
    rng = Random(44)
    payloads = []
    for _ in range(500):
        left, right = _sample_bound_pair(rng)
        payloads.append((_BOUNDS4, limits, left.adj, right.adj))
    applicable = [
        report
        for reports in _imap_tasks(_pair_reports, payloads, args.workers)
        for report in reports
        if report.applicable
    ]
    violations = sum(not report.holds for report in applicable)
    return [
        {
            "target": "bounds4",
            "pairs": len(payloads),
            "applicable_evaluations": len(applicable),
            "violations": violations,
            "status": "ok" if violations == 0 else "MISMATCH",
        }
    ]


def _reproduce_conj_refutation(args: argparse.Namespace) -> list[dict[str, Any]]:
    limits = _limits(args, 40)
    rows = []

    x3 = build_family("X:3")
    h3 = build_family("cocktail:3")
    i_x3 = independent_domination_number(x3, limits).value
    i_h3 = independent_domination_number(h3, limits).value
    product3, witness3 = counterexample_product(3, 3)
    witness_ok = is_maximal_independent(product3.graph, witness3)
    strict = len(witness3) < i_x3 * i_h3
    ok = i_x3 == 5 and i_h3 == 2 and witness_ok and strict
    rows.append(
        {
            "target": "conj-refutation",
            "pair": "X:3 x cocktail:3",
            "i_left": i_x3,
            "i_right": i_h3,
            "witness_size": len(witness3),
            "witness_verified": witness_ok,
            "product_bound_below_factor_product": strict,
            "status": "ok" if ok else "MISMATCH",
        }
    )

    x7 = build_family("X:7")
    i_x7 = independent_domination_number(x7, limits).value
    product7, witness7 = counterexample_product(7, 3)
    witness_ok7 = is_maximal_independent(product7.graph, witness7)
    below_factor = len(witness7) < i_x7
    ok7 = i_x7 == 9 and witness_ok7 and below_factor
    rows.append(
        {
            "target": "conj-refutation",
            "pair": "X:7 x cocktail:3",
            "i_left": i_x7,
            "witness_size": len(witness7),
            "witness_verified": witness_ok7,
            "product_bound_below_left_factor": below_factor,
            "status": "ok" if ok7 else "MISMATCH",
        }
    )
    return rows


def _reproduce_thm12(args: argparse.Namespace) -> list[dict[str, Any]]:
    n = args.n if args.n is not None else 11
    if n < 1:
        raise SystemExit("--n must be positive")
    limits = _limits(args, 34)
    specs = (f"Gn:{n}", f"Hn:{n}")
    # refuse an oversized product before building either factor
    check_product_order(*(family_size(parse_family(spec))[0] for spec in specs))

    product, witness = extreme_product(n)
    witness_ok = is_maximal_independent(product.graph, witness)
    row: dict[str, Any] = {
        "target": "thm12",
        "n": n,
        "product_order": product.graph.n,
        "witness_size": len(witness),
        "witness_verified": witness_ok,
    }
    exact_ok = True
    for side, spec in zip(("left", "right"), specs):
        graph, factor_witness = build_family_with_witness(spec)
        factor_ok = factor_witness is not None and is_maximal_independent(graph, factor_witness)
        row[f"{side}_witness_size"] = len(factor_witness) if factor_witness else None
        row[f"{side}_witness_verified"] = factor_ok
        witness_ok = witness_ok and factor_ok
        if n <= 4:
            exact = independent_domination_number(graph, limits).value
            row[f"{side}_exact_i"] = exact
            exact_ok = exact_ok and exact == n + 2
    separation = len(witness) < n + 2
    row["product_bound_below_factor_bound"] = separation
    ok = witness_ok and exact_ok and (separation or n <= 10)
    row["status"] = "ok" if ok else "MISMATCH"
    return [row]


_REPRODUCERS = {
    "table1": _reproduce_table1,
    "prop34": _reproduce_prop34,
    "thm32": _reproduce_thm32,
    "bounds4": _reproduce_bounds4,
    "conj-refutation": _reproduce_conj_refutation,
    "thm12": _reproduce_thm12,
}


def _reproduce(args: argparse.Namespace) -> int:
    started = perf_counter()
    try:
        rows = _REPRODUCERS[args.target](args)
    except _RESOURCE_FAILURES as exc:
        _note(f"aborted: {exc}")
        return EXIT_BUDGET
    _emit_rows(rows, args.out)
    failures = sum(row["status"] != "ok" for row in rows)
    _note(
        f"{args.target}: {len(rows) - failures}/{len(rows)} rows ok "
        f"in {perf_counter() - started:.1f}s"
    )
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _cmd_search(args: argparse.Namespace) -> int:
    bound_id = args.bound
    if bound_id not in BOUND_IDS:
        raise SystemExit(f"unknown bound id {bound_id!r}; choose from {', '.join(BOUND_IDS)}")
    if (args.pairs_file is None) == (args.graph_file is None):
        raise SystemExit("search takes one of --graph-file and --pairs-file")
    pairs: list[tuple[str, str, Graph, Graph]] = []
    if args.pairs_file is not None:
        with open(args.pairs_file, "r", encoding="utf-8") as handle:
            manifest = parse_pair_manifest(handle.read())
        pairs = [
            (left, right, build_family(left), build_family(right)) for left, right in manifest
        ]
    else:
        corpus = _read_graph_file(args)
        for i, (left, left_subject) in enumerate(corpus):
            for j in range(i, len(corpus)):
                right = corpus[j][0]
                name_left = left_subject.get("graph6", f"#{i}")
                name_right = corpus[j][1].get("graph6", f"#{j}")
                pairs.append((name_left, name_right, left, right))

    # each solve gets the whole budget, and the scan stops at the first pair
    # after the budget has run out
    deadline = invariants._Deadline(args.budget_secs)
    payloads = [((bound_id,), _limits(args), left.adj, right.adj) for _, _, left, right in pairs]
    rows: list[dict[str, Any]] = []
    violations = 0
    done = 0  # pairs evaluated; a pair whose solve fails on the cap or the budget is not

    try:
        for (name_left, name_right, _, _), (report,) in zip(
            pairs, _imap_tasks(_pair_reports, payloads, args.workers)
        ):
            if report.applicable and report.holds is None:
                # a conjecture relation reports a solve above the cap as unchecked
                break
            done += 1
            violation = report.applicable and report.holds is False
            violations += violation
            if violation or args.report_all:
                rows.append(
                    {
                        "bound_id": bound_id,
                        "pair": f"{name_left} x {name_right}",
                        "lhs": "" if report.lhs is None else report.lhs,
                        "rhs": "" if report.rhs is None else report.rhs,
                        "verdict": report.verdict(),
                    }
                )
            deadline.tick()
    except _RESOURCE_FAILURES:
        pass  # the scan ends here; a pair whose solve failed is not counted

    partial = done < len(pairs)
    if partial:
        rows.append({"partial_scan": True, "pairs_done": done, "pairs_total": len(pairs)})
    _emit_rows(rows, args.out)
    _note(
        f"scanned {done}/{len(pairs)} pairs against {bound_id}: {violations} violation(s)"
    )
    if partial:
        return EXIT_BUDGET
    return EXIT_MISMATCH if violations else EXIT_OK


# ---------------------------------------------------------------------------
# worker plumbing
# ---------------------------------------------------------------------------


def _pair_reports(
    payload: tuple[Sequence[str], SolverLimits, tuple[int, ...], tuple[int, ...]]
) -> list[BoundReport]:
    """The named bounds' reports on a factor pair sent as bare adjacency rows.

    The rows cross a process boundary, so the factors are rebuilt through the
    checked ``Graph`` constructor.  A solve that runs out of cap or budget
    raises, and the pool re-raises it at the pair's index.
    """
    bound_ids, limits, left_rows, right_rows = payload
    left = Graph(len(left_rows), left_rows)
    right = Graph(len(right_rows), right_rows)
    return evaluate_pair_bounds(bound_ids, left, right, limits)


def _imap_tasks(task, payloads: list, workers: int) -> Iterable:
    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            yield task(payload)
        return
    # imported here so that single-worker runs never load multiprocessing
    from multiprocessing import get_context

    # Leaving the block terminates the workers, so a consumer that stops early
    # (a search past its budget) does not wait for the pairs still queued.
    with get_context("spawn").Pool(workers) as pool:
        yield from pool.imap(task, payloads)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idomlab",
        description=(
            "Exact independent domination in direct products: solvers, witnesses, "
            "certificates, and reproduction targets."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name: str, summary: str, run: Callable) -> argparse.ArgumentParser:
        # no abbreviations: an option a subcommand lacks (--out, --graph) must
        # not pass for a longer one it has (--out-file, --graph-file)
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(run=run, command=p)  # ``command`` prints its usage on a refusal
        return p

    def add_inputs(p: argparse.ArgumentParser, graph: bool) -> None:
        if graph:
            p.add_argument("--graph", help="family spec such as cycle:16 or X:3")
        p.add_argument("--graph-file", help="path to a graph file")
        p.add_argument(
            "--format",
            choices=("edge-list", "graph6"),
            default="edge-list",
            help="format of --graph-file",
        )

    def add_solve_options(p: argparse.ArgumentParser, workers: bool) -> None:
        if workers:
            p.add_argument("--workers", type=int, help="parallel workers (default 1)")
        p.add_argument(
            "--budget-secs", type=float, default=None, help="wall-clock budget"
        )
        p.add_argument(
            "--cap",
            type=int,
            default=None,
            help=f"exact-solver vertex cap (default 40, or ${ENV_CAP})",
        )
        p.add_argument(
            "--out",
            choices=("json", "csv", "human"),
            default="json",
            help="output format on stdout",
        )

    def add_writer(name: str, summary: str, product_required: bool, written: str) -> None:
        p = add_command(name, summary, _cmd_export)
        add_inputs(p, graph=True)
        p.add_argument("--product", required=product_required, help="second factor family spec")
        p.add_argument("--out-file", help="basename for graph + sidecar files")
        p.add_argument(
            "--write-format",
            choices=("edge-list", "graph6"),
            default="edge-list",
            help=f"serialization for {written}",
        )

    p_compute = add_command("compute", "compute an invariant with a witness", _cmd_compute)
    add_inputs(p_compute, graph=True)
    add_solve_options(p_compute, workers=False)
    p_compute.add_argument("--product", help="second factor family spec")
    p_compute.add_argument(
        "--invariant",
        choices=tuple(invariants.SOLVERS),
        default="i",
    )
    p_compute.add_argument("--k", type=int, help="answer: is the value at most k?")

    add_writer("product", "build a direct product and write it out", True, "the product graph")

    p_verify = add_command("verify", "re-check a certificate bundle", _cmd_verify)
    add_solve_options(p_verify, workers=False)
    p_verify.add_argument("certificates", help="path to a JSON/JSONL certificate bundle")

    p_repro = add_command("reproduce", "re-derive a published result table", _reproduce)
    add_solve_options(p_repro, workers=True)
    p_repro.add_argument("target", choices=tuple(_REPRODUCERS))
    p_repro.add_argument("--n", type=int, help="size parameter for thm12")

    p_search = add_command("search", "scan graph pairs for bound violations", _cmd_search)
    add_inputs(p_search, graph=False)
    add_solve_options(p_search, workers=True)
    p_search.add_argument("--bound", required=True, help="bound id to test")
    p_search.add_argument(
        "--pairs-file", help="manifest with one 'leftspec rightspec' pair per line"
    )
    p_search.add_argument(
        "--report-all",
        action="store_true",
        help="emit a row for every pair, not only violations",
    )

    add_writer("export", "write a family graph with its sidecar", False, "the graph")

    return parser


# Built once, on import, and reused by every ``main`` call: building it costs
# more than most small answers, and built on import its cost falls on no answer,
# whichever comes first.
_parser = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, unread = _parser.parse_known_args(argv)
    try:
        if unread:  # an option the subcommand does not read: its usage on stderr, exit 2
            args.command.error(f"unrecognized arguments: {' '.join(unread)}")
        # of the reproduce targets, only thm12 reads --n and only bounds4 --workers
        for name, target in (("n", "thm12"), ("workers", "bounds4")):
            if "target" in args and args.target != target and getattr(args, name) is not None:
                args.command.error(f"{args.target} does not read --{name}")
        if "cap" in args:
            if args.cap is None:
                args.cap = _default_cap()
            if args.cap <= 0:
                raise SystemExit("--cap must be positive")
        if "workers" in args:
            args.workers = args.workers or 1  # --workers 0 means one worker
            if args.workers < 1:
                raise SystemExit("--workers must be at least 1")
        if getattr(args, "budget_secs", None) is not None and not 0 < args.budget_secs < math.inf:
            raise SystemExit(f"--budget-secs must be {'finite' if args.budget_secs > 0 else 'positive'}")
        return args.run(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            _note(exc.code)
            return EXIT_USAGE
        return exc.code if exc.code is not None else EXIT_OK
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
