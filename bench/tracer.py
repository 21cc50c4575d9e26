"""Spans around the calls into each layer of idomlab, recorded from outside.

The tracer replaces the public functions of every idomlab module with
wrappers, under each name a module imported them by (``idomlab.cli.
independent_domination_number``, ``idomlab.bounds.direct_product``, ...),
inside the dispatch tables that hold them (``SOLVERS``, ``PREDICATES``,
``PAIR_BOUNDS``, ``cli._BOUNDS4``), and around ``Graph.__post_init__``.
Nothing under ``src/`` is edited, and the wrappers are installed only for
the traced part of a run.

A span is ``(name, start, end, parent, answer, error, size)``.  Spans are
recorded only while an answer (or the traced set-up) is active, so the
correctness checks the runner makes between answers leave no spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from types import FunctionType, ModuleType
from typing import Any, Callable, Optional

LAYERS = (
    "cli",
    "families",
    "products",
    "graph",
    "invariants",
    "labelling",
    "bounds",
    "formats",
    "smallgraphs",
)

SOLVER_METRICS = {
    "invariants.independent_domination_number": "i",
    "invariants.independence_number": "alpha",
    "invariants.domination_number": "gamma",
    "invariants.total_domination_number": "gamma_t",
    "invariants.two_packing_number": "rho",
}
PREDICATE_SPANS = frozenset(
    f"invariants.{name}"
    for name in (
        "is_independent",
        "is_dominating",
        "is_maximal_independent",
        "is_total_dominating",
        "is_2_packing",
    )
)
BOUND_METRICS = {
    "bounds.packing_total_bound": "packing-total-lower",
    "bounds.degree_ratio_bound": "degree-ratio-lower",
    "bounds.bipartite_bound": "bipartite-domination-lower",
    "bounds.clawfree_bound": "clawfree-factor-lower",
    "bounds.k2_sandwich": "k2-sandwich",
}
FAILURE_METRICS = {
    "BudgetExhausted": "budget",
    "RecursionError": "recursion",
    "CapExceeded": "cap",
}
LABELLING_METRICS = ("minimize_weight", "to_independent_set", "check_legal")
FORMATS_METRICS = (
    "read_certificate",
    "write_certificate",
    "verify_certificate",
    "resolve_subject",
    "graph6_decode",
)
REPRODUCE_TARGETS = ("table1", "prop34", "thm32", "bounds4", "conj-refutation", "thm12")


def _graph_key(args: tuple) -> int:
    graph = args[0]
    return hash((graph.n, graph.adj))


# What a span records as its size: vertices built, or the identity of the
# graph a solver ran on (for the distinct-solve ratio).
_SIZE_OF: dict[str, Callable[[tuple], int]] = {
    "graph.validate": lambda args: args[0].n,
    "products.direct_product": lambda args: args[0].n * args[1].n,
    **{name: _graph_key for name in SOLVER_METRICS},
}


class Tracer:
    """Records spans in memory; ``answer`` names the answer being produced."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.labels: dict[int, str] = {}
        self.answer: Any = None
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def start_answer(self, label: str) -> None:
        self.answer = len(self.labels)
        self.labels[self.answer] = label

    def wrap(self, name: str, func: Callable) -> Callable:
        size_of = _SIZE_OF.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            answer = self.answer
            if answer is None:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                size = size_of(args) if size_of is not None else 0
                spans[index] = (name, start, end, parent, answer, error, size)

        return traced

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every public idomlab function wherever a module binds it."""
        wrapped: dict[int, Callable] = {}

        def wrapper_for(func: Callable) -> Optional[Callable]:
            module = getattr(func, "__module__", "") or ""
            layer = module.rpartition(".")[2]
            if not module.startswith("idomlab.") or layer not in LAYERS:
                return None
            if func.__name__.startswith("_"):
                return None
            if id(func) not in wrapped:
                wrapped[id(func)] = self.wrap(f"{layer}.{func.__name__}", func)
            return wrapped[id(func)]

        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and not attr.startswith("__"):
                    replacement = wrapper_for(value)
                    if replacement is not None:
                        self._set(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, FunctionType):
                            replacement = wrapper_for(item)
                            if replacement is not None:
                                self._set_item(value, key, replacement)
                elif isinstance(value, tuple) and value and all(
                    isinstance(item, FunctionType) for item in value
                ):
                    replacements = tuple(wrapper_for(item) or item for item in value)
                    self._set(module, attr, replacements)

        graph_class = modules["graph"].Graph
        self._set(graph_class, "__post_init__", self.wrap("graph.validate", graph_class.__post_init__))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _set_item(self, mapping: dict, key: Any, value: Any) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span.

        Each line is ``[name, start, end, parent, answer, error, size]``; a
        span's id is its line number from 0, and ``parent`` is -1 at a root.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, answer, error, size in self.spans:
                record = [name, round(start - origin, 7), round(end - origin, 7), parent, answer, error, size]
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def rollup(
    spans: list[tuple],
    answer_labels: dict[Any, str],
    passes: int,
    traced_wall: float,
    overhead: float,
) -> dict[str, float]:
    """Per-layer metrics for one pass, from the spans of ``passes`` traced passes.

    ``answer_labels`` maps each traced answer id to its command label.  Spans
    with the answer id ``"setup"`` come from one traced set-up; only
    ``smallgraphs.random_s`` counts them.  ``traced_wall`` is the per-pass
    answer time with tracing, and ``overhead`` what tracing added to it.
    """
    durations = [end - start for (_, start, end, *_rest) in spans]
    child_time = [0.0] * len(spans)
    failed_children = set()
    for index, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += durations[index]
            if span[5] is not None:
                failed_children.add((span[3], span[5]))

    def outermost(index: int, matches: Callable[[str], bool]) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if matches(spans[parent][0]):
                return False
            parent = spans[parent][3]
        return True

    totals = dict.fromkeys(per_layer_metric_names(), 0.0)
    setup_random = 0.0
    solves: dict[Any, set] = {}
    for index, span in enumerate(spans):
        name, _, _, _, answer, error, size = span
        layer, _, short = name.partition(".")
        duration = durations[index]
        if answer == "setup":
            if layer == "smallgraphs" and outermost(index, lambda n: n.startswith("smallgraphs.")):
                setup_random += duration
            continue
        totals[f"{layer}.self_s"] += duration - child_time[index]
        is_outermost = outermost(index, lambda n: n == name)
        if name in SOLVER_METRICS:
            metric = f"invariants.{SOLVER_METRICS[name]}"
            totals[f"{metric}.calls"] += 1
            totals[f"{metric}_s"] += duration if is_outermost else 0.0
            solves.setdefault(answer, []).append((name, size))
        elif name in BOUND_METRICS:
            metric = f"bounds.{BOUND_METRICS[name]}"
            totals[f"{metric}.calls"] += 1
            totals[f"{metric}_s"] += duration if is_outermost else 0.0
        elif name in PREDICATE_SPANS:
            if outermost(index, lambda n: n in PREDICATE_SPANS):
                totals["invariants.witness_check_s"] += duration
        elif name == "graph.validate":
            totals["graph.validate.calls"] += 1
            totals["graph.validate.vertices"] += size
            totals["graph.validate_s"] += duration
        elif name == "products.direct_product":
            totals["products.calls"] += 1
            totals["products.vertices"] += size
            totals["products.direct_product_s"] += duration if is_outermost else 0.0
        elif layer in ("families", "smallgraphs"):
            if outermost(index, lambda n: n.startswith(layer + ".")):
                if layer == "families":
                    totals["families.calls"] += 1
                    totals["families.build_s"] += duration
                else:
                    totals["smallgraphs.random_s"] += duration
        elif short in LABELLING_METRICS + FORMATS_METRICS and is_outermost:
            totals[f"{name}_s"] += duration
            if name == "labelling.minimize_weight":
                totals["labelling.minimize_weight.calls"] += 1
        elif name == "cli.main":
            label = answer_labels[answer]
            if label.startswith("reproduce.") or label == "verify":
                totals[f"cli.{label}_s"] += duration
        if error in FAILURE_METRICS and layer == "invariants":
            if (index, error) not in failed_children:  # count it where it was raised
                totals[f"invariants.failed.{FAILURE_METRICS[error]}"] += 1

    metrics = {name: value / passes for name, value in totals.items()}
    metrics["smallgraphs.random_s"] += setup_random
    solver_calls = sum(len(calls) for calls in solves.values())
    distinct = sum(len(set(calls)) for calls in solves.values())
    metrics["invariants.distinct_solve_ratio"] = distinct / solver_calls if solver_calls else 1.0
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.accounted_ratio"] = self_total / traced_wall if traced_wall else 0.0
    return metrics


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"cli.reproduce.{target}_s" for target in REPRODUCE_TARGETS]
    names += ["cli.verify_s"]
    names += ["families.build_s", "families.calls"]
    names += ["products.direct_product_s", "products.calls", "products.vertices"]
    names += ["graph.validate_s", "graph.validate.calls", "graph.validate.vertices"]
    for short in SOLVER_METRICS.values():
        names += [f"invariants.{short}_s", f"invariants.{short}.calls"]
    names += ["invariants.distinct_solve_ratio", "invariants.witness_check_s"]
    names += [f"invariants.failed.{kind}" for kind in FAILURE_METRICS.values()]
    names += [f"labelling.{short}_s" for short in LABELLING_METRICS]
    names += ["labelling.minimize_weight.calls"]
    for bound_id in BOUND_METRICS.values():
        names += [f"bounds.{bound_id}_s", f"bounds.{bound_id}.calls"]
    names += [f"formats.{short}_s" for short in FORMATS_METRICS]
    names += ["smallgraphs.random_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.wall_s", "trace.overhead_s", "trace.accounted_ratio"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".vertices"):
        return "vertices"
    return "count"


def modules_of(package: str = "idomlab") -> dict[str, ModuleType]:
    """The loaded idomlab layer modules, keyed by layer name."""
    return {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
