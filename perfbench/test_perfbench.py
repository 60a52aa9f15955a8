"""Self-tests of the benchmark helpers and data.

Run from the repository root (a few seconds; no workload is run):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


# -- percentile ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    value, beyond = harness.percentile(samples, 0.9)
    assert (value, beyond) == (90, 10)
    with pytest.raises(ValueError, match="9 beyond"):
        harness.percentile(list(range(1, 100)), 0.9)


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 6
    random.Random(1).shuffle(samples)
    assert harness.percentile(samples, 0.5)[0] == 3.0
    assert harness.percentile(samples, 0.5, min_beyond=0)[1] == 15


# -- stratified draws ---------------------------------------------------------


def test_round_orders_are_whole_permutations():
    items = list("abcdefgh")
    rounds = harness.round_orders(items, seed=7, tag="t", rounds=5)
    assert all(sorted(r) == items for r in rounds)
    assert rounds == harness.round_orders(items, seed=7, tag="t", rounds=5)
    assert rounds != harness.round_orders(items, seed=8, tag="t", rounds=5)


def test_deal_uses_each_input_once_and_one_per_stratum():
    strata = ["s1", "s2", "s3"]
    pool = {s: [f"{s}-{i}" for i in range(6)] for s in strata}
    rounds = harness.deal_without_replacement(strata, pool, 3, "t", 6)
    for r in rounds:
        assert sorted(x.split("-")[0] for x in r) == strata
    drawn = [x for r in rounds for x in r]
    assert len(drawn) == len(set(drawn)) == 18
    with pytest.raises(ValueError):
        harness.deal_without_replacement(strata, pool, 3, "t", 7)


def test_serve_plan_is_stratified_and_seeded():
    serve = wl.ServeWorkload()
    hot, plan = serve.plan(seed=4, seconds=20)
    rounds = round(20 * wl.SERVE_RATE / 20)
    assert len(plan) == rounds
    cold_seen = set()
    for queries in plan:
        items = [item for item, _ in queries]
        assert len(items) == 20
        hot_items = [i for i in items if i[1] == wl.HOT_N
                     and i[2] in wl.HOT_GRAPH_SEEDS]
        assert sorted(hot_items) == sorted(hot.values())
        cold = [i for i in items if i not in hot_items]
        assert sorted((m, n) for m, n, _ in cold) == sorted(wl.COLD_STRATA)
        cold_seen.update(cold)
        offsets = [o for _, o in queries]
        assert offsets == sorted(offsets)
        assert 0 <= offsets[0] and offsets[-1] < 20 / wl.SERVE_RATE
    assert len(cold_seen) == rounds * len(wl.COLD_STRATA)
    assert serve.plan(seed=4, seconds=20) == (hot, plan)
    other = serve.plan(seed=5, seconds=20)[1]
    assert other != plan

    def slots(plan):
        return [[(g in wl.HOT_GRAPH_SEEDS, m, n, offset)
                 for (m, n, g), offset in queries] for queries in plan]

    assert slots(other) == slots(plan)


def test_sweep_rounds_hold_the_whole_pool():
    sweep = wl.WORKLOADS["sweep-dense"]()
    rounds = sweep.rounds(seed=2, count=3)
    keys = sorted(c.key() for c in rounds[0])
    assert len(keys) == len(wl.DENSE_STRATA) * len(wl.DENSE_GRAPH_SEEDS)
    assert all(sorted(c.key() for c in r) == keys for r in rounds)
    assert rounds[0] != rounds[1]


# -- probe normalisation ------------------------------------------------------


def test_probe_normalisation_removes_a_uniform_slowdown():
    ref = harness.PROBE_REF_MS
    assert harness.speed_factor([ref, ref]) == pytest.approx(1.0)
    # A host twice as slow doubles both the probe and, to the measured
    # elasticity, the work; normalising takes the slowdown back out.
    work = 0.5
    slow = work * 2 ** harness.ELASTICITY
    assert slow * harness.speed_factor([2 * ref]) == pytest.approx(work)
    assert harness.speed_factor([ref / 2]) > 1 > harness.speed_factor(
        [ref * 2])


def test_probes_are_timed():
    assert harness.probe_ms() > 0
    assert harness.probe_both_cores_ms() > 0


# -- checker ------------------------------------------------------------------


def _cell_record(ref: dict, **changes) -> dict:
    rec = {"status": "ok", "valid": True, **ref}
    rec.update(changes)
    return rec


def test_checker_counts_a_planted_wrong_count_as_a_failure():
    ref = {"n": 10, "m": 20, "messages": 100, "rounds": 4, "colors": 3}
    check = harness.Checker()
    assert check.record("good", _cell_record(ref), ref)
    assert not check.record("bad", _cell_record(ref, messages=101), ref)
    assert not check.record("invalid", _cell_record(ref, valid=False), ref)
    assert check.attempted == 3 and check.verified == 1
    assert len(check.wrong) == 2 and "messages=101" in check.wrong[0]
    assert check.msgs_per_edge == 5.0


def test_checker_counts_non_ok_records_and_replies_as_failed():
    ref = {"n": 10, "m": 20, "messages": 100, "rounds": 4,
           "digest": harness.output_digest([0, 1])}
    check = harness.Checker()
    check.record("lost", {"status": "error", "error": "worker exited with "
                          "code 0 without a result"}, ref)
    check.reply("shed", {"type": "overloaded"}, ref)
    check.reply("late", {"type": "result", "degraded": True}, ref)
    good = {"type": "result", "degraded": False, "valid": True, "n": 10,
            "m": 20, "messages": 100, "rounds": 4, "colors": [0, 1]}
    assert check.reply("ok", good, ref)
    assert not check.reply("other", {**good, "colors": [1, 0]}, ref)
    assert (check.attempted, check.failed, len(check.wrong)) == (5, 3, 1)
    assert check.ok_frac == pytest.approx(1 / 5)


# -- reference and metric table -----------------------------------------------


def test_reference_covers_every_input_a_run_can_draw():
    ref = wl.load_reference()
    for strata, seeds, make in (
            (wl.DENSE_STRATA, wl.DENSE_GRAPH_SEEDS, wl.sweep_cell),
            (wl.SPARSE_STRATA, wl.SPARSE_GRAPH_SEEDS, wl.sweep_cell),
            (wl.FARM_STRATA, wl.FARM_GRAPH_SEEDS, wl.farm_cell)):
        for members in wl.cell_pool(strata, seeds, make).values():
            for cell in members:
                assert cell.key() in ref["cells"]
    hot, cold, warm = wl.query_pools()
    for group in (*hot.values(), *cold.values(), warm):
        for item in group:
            assert wl.query_key(*item) in ref["queries"]


def test_reference_agrees_with_bench_engine_by_scalar_key():
    with open(os.path.join(ROOT, "BENCH_engine.json")) as fh:
        engine = {c["key"]: c for c in json.load(fh)["cells"]}
    ref = wl.load_reference()["cells"]
    matched = 0
    for key, entry in ref.items():
        scalar = engine.get(key.replace("/columnar/", "/sync/"))
        if scalar is not None:
            assert (scalar["messages"], scalar["rounds"]) == (
                entry["messages"], entry["rounds"]), key
            matched += 1
    assert matched == len(wl.DENSE_STRATA) * len(wl.DENSE_GRAPH_SEEDS)


def test_metric_table_matches_benchmark_json_and_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        table = json.load(fh)
    for section in ("end_to_end", "per_layer"):
        ours = [(m["name"], m["unit"], m["better"]) for m in table[section]
                if m.get("gated", True)]
        theirs = [(m["name"], m["unit"], m["better"])
                  for m in bench[section]]
        assert ours == theirs, section
    assert [w["name"] for w in bench["workloads"]] == list(wl.GATED)
    assert [w["name"] for w in table["workloads"]] == list(wl.WORKLOADS)
    assert [w["name"] for w in table["workloads"]
            if w.get("gated", True)] == list(wl.GATED)
    assert all("why_not_gated" in w for w in table["workloads"]
               if not w.get("gated", True))
    assert all("normalised" in m for m in table["end_to_end"])


def test_per_layer_reports_every_metric_of_the_table():
    with open(os.path.join(HERE, "metrics.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    out = wl.PassResult(harness.Checker())
    out.probes = [harness.PROBE_REF_MS]
    out.windows = [(0.0, 1.0, 1.0)]
    out.wall_s = out.work_s = 1.0
    for name in wl.WORKLOADS:
        assert list(layers.per_layer(name, spans.Tracer(), out)) == names
