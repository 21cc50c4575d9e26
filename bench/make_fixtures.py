"""Record the correctness fixtures from the program as it is now.

    python3 bench/make_fixtures.py

Writes, under ``bench/fixtures/``: the stdout of every ``paper`` command,
the value of each dense factor in ``kn-route``, and the five values of
every ``dense-factors`` graph at the default seed.  The committed fixtures
were recorded at the commit that added the benchmark; regenerate them only
when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def answer(cli, argv: list[str]) -> str:
    _, code, stdout, error = run.call(cli, argv)
    if error is not None or code != 0:
        raise SystemExit(f"{argv} failed: exit {code}, exception {error}")
    return stdout


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    lab = run.import_idomlab()
    cli = lab["cli"]
    fixtures = workloads.FIXTURES
    (fixtures / "paper").mkdir(parents=True, exist_ok=True)

    for label, argv in workloads.PAPER_COMMANDS:
        with open(fixtures / "paper" / f"{label}.out", "w", encoding="utf-8") as handle:
            handle.write(answer(cli, argv))

    dense_factors = {}
    for spec, n, argv in workloads.kn_route_commands():
        if not spec.startswith(("path:", "cycle:")):
            dense_factors[f"{spec} x K{n}"] = json.loads(answer(cli, argv))["value"]
    with open(fixtures / "kn_route_dense.json", "w", encoding="utf-8") as handle:
        json.dump(dense_factors, handle, indent=1, sort_keys=True)
        handle.write("\n")

    workdir = run.OUT / "work-fixtures"
    workdir.mkdir(parents=True, exist_ok=True)
    values: dict[str, dict[str, int]] = {}
    graph6_encode = lab["formats"].graph6_encode
    try:
        for p, graphs in enumerate(workloads.dense_graphs(workloads.DEFAULT_SEED, lab)):
            for g, graph in enumerate(graphs):
                text = graph6_encode(graph)
                path = workdir / f"dense-{p}-{g}.g6"
                path.write_text(text + "\n", encoding="utf-8")
                values[text] = {}
                for invariant in workloads.INVARIANTS:
                    argv = ["compute", "--graph-file", str(path), "--format", "graph6",
                            "--invariant", invariant, "--cap", "40"]
                    values[text][invariant] = json.loads(answer(cli, argv))["value"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(fixtures / f"dense_factors_seed{workloads.DEFAULT_SEED}.json", "w", encoding="utf-8") as handle:
        json.dump(values, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
