"""Write ``reference.json``: exact counts for every input a run can draw.

Run from the repository root (it takes a few minutes, serially):

    python3 perfbench/make_reference.py

Sweep and farm cells are run through ``runner.run_cell``; queries are
solved in-process exactly as a solver child solves them.  Every output
is verified here with an independent check before it is written, and
each sweep cell that ``BENCH_engine.json`` also holds must match it by
its scalar key (the columnar engine has the scalar engine's counts).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import workloads as wl  # noqa: E402


def proper_coloring(graph, colors) -> bool:
    return (all(c is not None for c in colors)
            and all(colors[u] != colors[v] for u, v in graph.edges())
            and max(colors) <= graph.max_degree())


def maximal_independent(graph, in_mis) -> bool:
    if any(in_mis[u] and in_mis[v] for u, v in graph.edges()):
        return False
    return all(in_mis[v] or any(in_mis[u] for u in graph.neighbors(v))
               for v in range(graph.n))


def cell_entry(rec: dict) -> dict:
    if rec.get("status") != "ok" or rec.get("valid") is not True:
        raise SystemExit(f"reference cell failed: {rec}")
    entry = {f: rec[f] for f in ("n", "m", "messages", "rounds")}
    for f in ("colors", "mis_size"):
        if f in rec:
            entry[f] = rec[f]
    return entry


def query_entry(method: str, n: int, graph_seed: int) -> dict:
    from repro import api
    from repro.graphs.generators import family_graph

    graph = family_graph("gnp", n, p=wl.SERVE_P, seed=graph_seed)
    if wl.PROBLEM[method] == "coloring":
        result = api.color_graph(graph, method=method, seed=graph_seed,
                                 epsilon=0.5, collect_utilization=False)
        vector = result.colors
        ok = proper_coloring(graph, vector)
    else:
        result = api.find_mis(graph, method=method, seed=graph_seed,
                              collect_utilization=False)
        vector = result.in_mis
        ok = maximal_independent(graph, vector)
    if not (ok and result.valid):
        raise SystemExit(f"reference query invalid: {method} n{n} "
                         f"g{graph_seed}")
    return {"n": graph.n, "m": graph.m,
            "messages": result.report.messages,
            "rounds": result.report.rounds,
            "digest": harness.output_digest(vector)}


def engine_reference() -> dict:
    path = os.path.join(ROOT, "BENCH_engine.json")
    with open(path) as fh:
        return {c["key"]: c for c in json.load(fh)["cells"]}


def main() -> int:
    from repro.experiments.runner import run_cell

    cells = {}
    pools = [wl.cell_pool(wl.DENSE_STRATA, wl.DENSE_GRAPH_SEEDS,
                          wl.sweep_cell),
             wl.cell_pool(wl.SPARSE_STRATA, wl.SPARSE_GRAPH_SEEDS,
                          wl.sweep_cell),
             wl.cell_pool(wl.FARM_STRATA, wl.FARM_GRAPH_SEEDS,
                          wl.farm_cell)]
    engine = engine_reference()
    matched = 0
    for pool in pools:
        for members in pool.values():
            for cell in members:
                entry = cell_entry(run_cell(cell))
                key = cell.key()
                cells[key] = entry
                scalar = engine.get(key.replace("/columnar/", "/sync/"))
                if scalar is not None:
                    if (scalar["messages"], scalar["rounds"]) != (
                            entry["messages"], entry["rounds"]):
                        raise SystemExit(
                            f"{key} disagrees with BENCH_engine.json")
                    matched += 1
        print(f"cells: {len(cells)}", flush=True)
    hot, cold, warm = wl.query_pools()
    queries = {}
    for group in (hot, cold):
        for members in group.values():
            for item in members:
                queries[wl.query_key(*item)] = query_entry(*item)
        print(f"queries: {len(queries)}", flush=True)
    for item in warm:
        queries[wl.query_key(*item)] = query_entry(*item)
    payload = {"schema": "perfbench-reference/1",
               "bench_engine_matches": matched,
               "cells": cells, "queries": queries}
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}: {len(cells)} cells "
          f"({matched} matched BENCH_engine.json), {len(queries)} queries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
