"""The benchmark workloads and the inputs each can draw.

Each workload has a *set-up* (imports, server or coordinator start,
warm-up), which ``run.py`` times in fresh processes for ``setup_s``, and
a *pass*, which runs whole stratified rounds for about ``seconds`` and
returns the samples the end-to-end and per-layer metrics are made of.

Every input a pass can draw is listed here and has exact counts in
``reference.json``; the seed only chooses among them and their order.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import queue
import random
import statistics
import threading
import time

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

METHODS = ("kt1-delta-plus-one", "baseline-trial", "kt2-sampled-greedy",
           "luby")
PROBLEM = {"kt1-delta-plus-one": "coloring", "baseline-trial": "coloring",
           "kt2-sampled-greedy": "mis", "luby": "mis"}

#: Graph seeds of the dense sweep: those ``BENCH_engine.json`` holds.
DENSE_GRAPH_SEEDS = (0, 1, 2)
#: Graph seeds of the sparse sweep: four, so its round of cells takes
#: about as long as the dense one.
SPARSE_GRAPH_SEEDS = (0, 1, 2, 3)
#: (family, n, p, method) strata of the two sweeps.
DENSE_STRATA = [(family, 320, p, method)
                for family, p in (("gnp", 0.45), ("regular", 0.25))
                for method in METHODS]
SPARSE_STRATA = [("gnp", 2000, 0.01, method) for method in METHODS]

#: Farm cells: four methods at four small sizes, three graphs each.  A
#: round is every cell, in a seeded order.
FARM_SIZES = (40, 50, 60, 80)
FARM_P = 0.3
FARM_GRAPH_SEEDS = (0, 1, 2)
FARM_STRATA = [("gnp", n, FARM_P, method)
               for n in FARM_SIZES for method in METHODS]
#: Keep a round queued ahead of the worker, so it never idles.
FARM_AHEAD = len(FARM_STRATA) * len(FARM_GRAPH_SEEDS)
#: A farm latency sample is the worker's time per cell over this many
#: consecutive cells.  Single gaps are bimodal (a cell ends on the first
#: or the second 20 ms supervisor poll), and their median flipped
#: between the modes from run to run: IQR over median 0.57 in 10 runs.
FARM_BLOCK = 4

#: Serve queries.  A round is 20 queries: each hot query once (1 in 5
#: reads the cache) and one cold query per (method, size) stratum.
#: About a third of cold capacity on the reference host (the one of
#: ``harness.PROBE_REF_MS``): two solver slots over a mean
#: cold solve of about 75 ms make roughly 27 q/s.
SERVE_RATE = 10.0
SERVE_P = 0.3
SERVE_SIZES = (60, 80, 100, 120)
COLD_STRATA = [(method, n) for n in SERVE_SIZES for method in METHODS]
#: Cold graph seeds per stratum: enough for a 60 s run without reuse.
COLD_GRAPH_SEEDS = tuple(range(48))
HOT_N = 80
HOT_GRAPH_SEEDS = (1000, 1001, 1002)
WARM_N = 60
WARM_GRAPH_SEED = 2000
#: Server deadline; an unanswered query counts as taking at least this.
SERVE_DEADLINE_S = 30.0
SERVE_CONNECTIONS = 2

#: Per workload: the percentile reported as ``latency_ms_tail``.  It is
#: the highest of p90 and p50 that keeps ten samples beyond it at the
#: workload's smallest run.
TAIL_Q = {"sweep-dense": 0.5, "sweep-sparse": 0.5, "serve-open": 0.9,
          "farm-small": 0.9}
#: Whether the workload's timings are normalised to reference speed.
#: Serve latencies use the probe on both cores, because a query's time
#: is a solver child on either core: over 10 seeds the one-core probe
#: widened their spread (p50 0.13 to 0.20), the two-core probe narrowed
#: the p90's (0.32 to 0.20).  The farm is bound by its 20 ms supervisor
#: poll and by fork, not by CPU speed.
NORMALISED = {"sweep-dense": True, "sweep-sparse": True,
              "serve-open": True, "farm-small": False}


def sweep_cell(stratum, graph_seed):
    from repro.experiments.spec import Cell

    family, n, p, method = stratum
    return Cell(family, n, graph_seed, method, engine="columnar",
                density=p)


def farm_cell(stratum, graph_seed):
    from repro.experiments.spec import Cell

    family, n, p, method = stratum
    return Cell(family, n, graph_seed, method, density=p)


def query_key(method, n, graph_seed) -> str:
    return f"{method}/gnp/n{n}/p{SERVE_P:g}/g{graph_seed}"


def query_msg(method, n, graph_seed) -> dict:
    from repro.serving import build_query

    return build_query(PROBLEM[method], method=method, family="gnp", n=n,
                       p=SERVE_P, graph_seed=graph_seed, seed=graph_seed)


def cell_pool(strata, seeds, make) -> dict:
    return {s: [make(s, g) for g in seeds] for s in strata}


def query_pools() -> tuple[dict, dict, list]:
    """(hot pool per method, cold pool per stratum, warm queries)."""
    hot = {m: [(m, HOT_N, g) for g in HOT_GRAPH_SEEDS] for m in METHODS}
    cold = {(m, n): [(m, n, g) for g in COLD_GRAPH_SEEDS]
            for (m, n) in COLD_STRATA}
    warm = [(m, WARM_N, WARM_GRAPH_SEED) for m in METHODS]
    return hot, cold, warm


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class PassResult:
    """Samples of one timed pass."""

    def __init__(self, checker: harness.Checker):
        self.checker = checker
        #: latency of each attempted output, ms (normalised if the
        #: workload is); failures count as at least the deadline.
        self.latencies_ms: list[float] = []
        #: seconds of timed work (normalised on the sweeps).
        self.work_s = 0.0
        #: raw wall of the pass, seconds.
        self.wall_s = 0.0
        #: raw latencies and raw seconds of timed work, printed beside
        #: the normalised ones and not gated.
        self.raw_latencies_ms: list[float] = []
        self.raw_work_s = 0.0
        self.probes: list[float] = []
        #: (start, end, factor) windows mapping a moment of the pass to
        #: its speed factor; spans are normalised by their window.
        self.windows: list[tuple[float, float, float]] = []
        #: (start, end) of each sweep cell, or of each query's round trip.
        self.units: list[tuple[float, float]] = []
        self.notes: list[str] = []
        self.counts: dict[str, float] = {}


def _idle_probe(probe=harness.probe_ms) -> float:
    """Collect garbage, then probe: both while the program is idle, so
    one unit's garbage is not charged to the next (whose order the seed
    picks) and the probe never competes with the program."""
    gc.collect()
    return probe()


def _window_factor(probes: list[float], before: int,
                   ref_ms: float = harness.PROBE_REF_MS) -> float:
    """Speed factor for work between probes ``before`` and ``before+1``,
    from the six probes around it."""
    lo = max(0, before - 2)
    hi = min(len(probes), before + 4)
    return harness.speed_factor(probes[lo:hi], ref_ms)


# -- sweeps -----------------------------------------------------------------


class SweepWorkload:
    def __init__(self, name: str, strata: list, graph_seeds: tuple):
        self.name = name
        self.strata = strata
        self.graph_seeds = graph_seeds

    def setup(self) -> None:
        """Imports and a warm-up cell per method (pays lazy imports)."""
        from repro.experiments.runner import run_cell

        for method in METHODS:
            run_cell(sweep_cell(("gnp", 40, 0.3, method), 0))

    def teardown(self) -> None:
        pass

    def rounds(self, seed: int, count: int) -> list:
        """``count`` rounds, each every graph of every stratum in a
        seeded order.  A run that drew one graph per stratum moved its
        cell rate by about 10% with the seed, so a round holds them all."""
        pool = cell_pool(self.strata, self.graph_seeds, sweep_cell)
        cells = [c for s in self.strata for c in pool[s]]
        return harness.round_orders(cells, seed, self.name, count)

    def run_pass(self, seed: int, seconds: float, ref: dict) -> PassResult:
        from repro.experiments.runner import run_cell

        check = harness.Checker()
        out = PassResult(check)
        timed = []      # (cell, record, wall, index of the probe before)
        out.probes.append(_idle_probe())
        start = time.perf_counter()
        rounds = 0
        # Whole rounds, at least one; another only if it fits in
        # ``seconds`` at the pace so far.
        for order in self.rounds(seed, 100):
            for cell in order:
                t0 = time.perf_counter()
                try:
                    rec = run_cell(cell)
                except Exception as exc:        # counted, not raised
                    rec = {"status": "error", "error": repr(exc)}
                t1 = time.perf_counter()
                timed.append((cell, rec, t1 - t0, len(out.probes) - 1))
                out.units.append((t0, t1))
                out.probes.append(_idle_probe())
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                break
        out.wall_s = time.perf_counter() - start
        blocks: dict = {}   # (round, graph seed) -> [(raw, normalised) ms]
        for i, ((cell, rec, wall, before), (t0, t1)) in enumerate(
                zip(timed, out.units)):
            factor = _window_factor(out.probes, before)
            out.windows.append((t0, t1, factor))
            out.work_s += wall * factor
            out.raw_work_s += wall
            key = cell.key()
            ok = check.record(key, rec, ref["cells"][key])
            latency = wall * factor * 1000
            blocks.setdefault((i // len(order), cell.seed), []).append(
                (wall * 1000, latency if ok
                 else max(latency, SERVE_DEADLINE_S * 1000)))
        # A latency sample is the mean cell latency over one graph seed's
        # cells of every stratum.  Single cells split into a fast gnp half
        # and a slow regular half on sweep-dense, so their median fell in
        # the gap and followed the two cells beside it: IQR over median
        # 0.093 in 10 runs, against 0.063 for throughput; as block means,
        # 0.040.
        for block in blocks.values():
            out.raw_latencies_ms.append(statistics.mean(b[0] for b in block))
            out.latencies_ms.append(statistics.mean(b[1] for b in block))
        out.notes.append(f"{rounds} round(s) of {len(order)} cells")
        return out


# -- serve ------------------------------------------------------------------


class ServeWorkload:
    name = "serve-open"

    def __init__(self, spawn=None):
        self.spawn = spawn
        self.server = None
        self.clients = []

    def setup(self) -> None:
        """Start the server, connect, solve the warm queries."""
        from repro.serving import QueryServer, ServeClient

        kwargs = {"deadline_s": SERVE_DEADLINE_S}
        if self.spawn is not None:
            kwargs["spawn"] = self.spawn
        self.server = QueryServer(**kwargs)
        host, port = self.server.start()
        self.clients = [ServeClient(host, port)
                        for _ in range(SERVE_CONNECTIONS)]
        _, _, warm = query_pools()
        for item in warm:
            self.clients[0].query(query_msg(*item))

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()

    def plan(self, seed: int, seconds: float):
        """Whole rounds of (query item, offset) at ``SERVE_RATE``."""
        per_round = len(METHODS) + len(COLD_STRATA)
        rounds = max(1, round(seconds * SERVE_RATE / per_round))
        hot_pool, cold_pool, _ = query_pools()
        hot = harness.pick_per_stratum(list(METHODS), hot_pool, seed,
                                       "serve-hot")
        cold = harness.deal_without_replacement(
            COLD_STRATA, cold_pool, seed, "serve-cold", rounds)
        # The arrival times are one fixed Poisson draw, and so is the
        # stratum that arrives at each of them; the seed only decides
        # which graph of a stratum fills a slot.  With seeded arrival
        # times the p90 spread across seeds was twice that of one seed;
        # with a seeded stratum order, one seed's median p50 over four
        # runs sat 18% above another's over three, as heavy queries met
        # in the queue at different times.
        order = random.Random("serve/order")
        arrivals = random.Random("serve/arrivals")
        span = per_round / SERVE_RATE
        rank = {stratum: i for i, stratum in enumerate(COLD_STRATA)}
        plan = []
        for r in range(rounds):
            items = [hot[m] for m in METHODS] + sorted(
                cold[r], key=lambda item: rank[item[:2]])
            order.shuffle(items)
            offsets = harness.poisson_offsets(len(items), span, arrivals)
            plan.append(list(zip(items, offsets)))
        return hot, plan

    def run_pass(self, seed: int, seconds: float, ref: dict) -> PassResult:
        hot, plan = self.plan(seed, seconds)
        # The hot set must be cached before the pass: prime it.
        for item in hot.values():
            self.clients[0].query(query_msg(*item))
        check = harness.Checker()
        out = PassResult(check)
        work: queue.Queue = queue.Queue()
        done: list = []
        progress = threading.Condition()

        def connection(client):
            while True:
                job = work.get()
                if job is None:
                    return
                item, due, released = job
                picked = time.perf_counter()
                try:
                    payload = client.query(query_msg(*item)).payload
                except Exception as exc:        # counted, not raised
                    payload = {"type": "error", "error": repr(exc)}
                replied = time.perf_counter()
                with progress:
                    done.append((item, due, released, picked, replied,
                                 payload))
                    progress.notify_all()

        threads = [threading.Thread(target=connection, args=(c,),
                                    daemon=True) for c in self.clients]
        for t in threads:
            t.start()
        out.probes.append(_idle_probe(harness.probe_both_cores_ms))
        round_spans = []
        round_ends = []
        expected = 0
        try:
            for queries in plan:
                base = time.perf_counter()
                for item, offset in queries:
                    due = base + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    work.put((item, due, time.perf_counter()))
                expected += len(queries)
                with progress:
                    while len(done) < expected:
                        progress.wait(60.0)
                round_spans.append((base, done[-1][4]))
                round_ends.append(expected)
                out.probes.append(_idle_probe(harness.probe_both_cores_ms))
        finally:
            for _ in threads:
                work.put(None)
            for t in threads:
                t.join(60.0)
        for r, (t0, t1) in enumerate(round_spans):
            factor = _window_factor(out.probes, r, harness.PROBE_BOTH_REF_MS)
            out.windows.append((t0, t1, factor))
            out.work_s += t1 - t0
            out.raw_work_s += t1 - t0
        out.wall_s = round_spans[-1][1] - round_spans[0][0]
        hot_keys = {query_key(*item) for item in hot.values()}
        late = wait = 0.0
        cached = 0
        for i, (item, due, released, picked, replied, payload) in enumerate(
                done):
            factor = out.windows[bisect.bisect_right(round_ends, i)][2]
            key = query_key(*item)
            ok = check.reply(key, payload, ref["queries"][key])
            out.raw_latencies_ms.append((replied - due) * 1000)
            latency = (replied - due) * factor * 1000
            out.latencies_ms.append(
                latency if ok else max(latency, SERVE_DEADLINE_S * 1000))
            out.units.append((picked, replied))
            late += released - due
            wait += picked - released
            cached += bool(payload.get("cached"))
            if (key in hot_keys) != bool(payload.get("cached")):
                surprise = "miss" if key in hot_keys else "hit"
                out.notes.append(f"cache {surprise} on {key}")
        n = len(done)
        out.counts["serve.hit_frac"] = cached / n
        out.counts["serve.gen_late_ms"] = late / n * 1000
        out.counts["serve.client_wait_ms"] = wait / n * 1000
        out.notes.append(f"{len(plan)} rounds of {len(plan[0])} queries "
                         f"at {SERVE_RATE:g}/s from {len(threads)} "
                         f"connections")
        return out


# -- farm -------------------------------------------------------------------


class FarmWorkload:
    name = "farm-small"

    def __init__(self, on_worker_start=None):
        self.on_worker_start = on_worker_start
        self.coord = None
        self.worker = None
        self.completions: list = []
        #: one coordinator tenant per submitted round
        self.states: list = []
        self._lock = threading.Lock()
        self._rounds = 0

    def setup(self) -> None:
        """Start the coordinator and a worker; run one warm round."""
        from repro.experiments.distributed import Coordinator, run_worker

        self.coord = Coordinator(persistent=True)
        host, port = self.coord.start()

        def on_record(record, completed):
            with self._lock:
                self.completions.append((time.perf_counter(), record))

        def work():
            if self.on_worker_start is not None:
                self.on_worker_start()
            run_worker(host, port, worker_id="bench-worker",
                       progress=on_record)

        self.worker = threading.Thread(target=work, daemon=True)
        self.worker.start()
        warm = [farm_cell(("gnp", 40, FARM_P, m), 0) for m in METHODS]
        self._submit(warm)
        self._wait_for(len(warm), 120.0)

    def teardown(self) -> None:
        if self.coord is None:
            return
        self.coord.drain(grace_s=5.0)
        if self.worker is not None:
            self.worker.join(30.0)
        self.coord.wait(timeout=30.0)
        self.coord.stop()

    def _submit(self, cells) -> None:
        state, _ = self.coord.add_sweep(f"round-{self._rounds}",
                                        cells=cells)
        self.states.append(state)
        self._rounds += 1

    def _wait_for(self, count: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while len(self.completions) < count:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"farm stalled: {len(self.completions)} of {count} "
                    "cells back")
            time.sleep(0.005)

    def run_pass(self, seed: int, seconds: float, ref: dict) -> PassResult:
        pool = cell_pool(FARM_STRATA, FARM_GRAPH_SEEDS, farm_cell)
        cells = [c for s in FARM_STRATA for c in pool[s]]
        orders = harness.round_orders(cells, seed, self.name, 1000)
        check = harness.Checker()
        out = PassResult(check)
        out.probes.append(harness.probe_ms())
        first = len(self.completions)
        first_round = self._rounds
        submitted = first
        start = time.perf_counter()
        rounds = 0
        while time.perf_counter() - start < seconds:
            if submitted - len(self.completions) < FARM_AHEAD:
                self._submit(orders[rounds])
                submitted += len(cells)
                rounds += 1
            else:
                time.sleep(0.01)
        self._wait_for(submitted, 120.0)
        out.probes.append(harness.probe_ms())
        done = self.completions[first:submitted]
        out.wall_s = done[-1][0] - start
        out.work_s = out.wall_s
        out.windows.append((start, done[-1][0], 1.0))
        block_start = start
        block, block_ok, race = 0, True, 0
        for i, (moment, rec) in enumerate(done, 1):
            key = rec["key"]
            block_ok &= check.record(key, rec, ref["cells"][key])
            block += 1
            if block == FARM_BLOCK or i == len(done):
                per_cell_ms = (moment - block_start) * 1000 / block
                out.latencies_ms.append(
                    per_cell_ms if block_ok
                    else max(per_cell_ms, SERVE_DEADLINE_S * 1000))
                block_start, block, block_ok = moment, 0, True
            if "exited with code 0 without a result" in rec.get("error", ""):
                race += 1
        requeues = sum(state.queue.requeues(c.key())
                       for state in self.states[first_round:]
                       for c in cells)
        out.counts["farm.requeues"] = requeues
        out.counts["runner.exit0_no_result"] = race
        out.notes.append(f"{rounds} round(s) of {len(cells)} cells, "
                         f"{race} cells lost to the exit-0 race")
        return out


#: The workloads BENCHMARK.json lists.  farm-small runs but is not
#: gated: the exit-0 race in runner._run_cells_with_timeout loses a few
#: cells in a few thousand at random, so its failure count differs from
#: run to run of the same code.
GATED = ("sweep-dense", "sweep-sparse", "serve-open")

WORKLOADS = {
    "sweep-dense": lambda **kw: SweepWorkload(
        "sweep-dense", DENSE_STRATA, DENSE_GRAPH_SEEDS),
    "sweep-sparse": lambda **kw: SweepWorkload(
        "sweep-sparse", SPARSE_STRATA, SPARSE_GRAPH_SEEDS),
    "serve-open": lambda **kw: ServeWorkload(**kw),
    "farm-small": lambda **kw: FarmWorkload(**kw),
}
