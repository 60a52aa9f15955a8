"""Serial benchmark for reproduction sweeps, the sweep farm and the
query server.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-dense --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --list        # the metric table

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` a traced pass reports the per-layer ones.  Metrics the
table marks as not gated are printed above the result line only.  The exit
code is 0 when every output matched the exact-count reference.
"""

from __future__ import annotations

import time

#: Set before any other import: a set-up child times itself from here.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
METRICS_PATH = os.path.join(HERE, "metrics.json")

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it.

    Exits with code 2, printing no result, when the program is absent.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no program at {SRC}; run from the "
                         "root of a checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported repro from "
                         f"{repro.__file__}, not {SRC}\n")
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print the metric table and exit")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def metric_table() -> dict:
    """The metric table: every metric's name, unit and documentation."""
    with open(METRICS_PATH) as fh:
        return json.load(fh)


def gated(entry: dict) -> bool:
    """Whether a workload or metric of the table is in BENCHMARK.json."""
    return entry.get("gated", True)


def print_table() -> None:
    table = metric_table()
    for w in table["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
        if not gated(w):
            print(f"    not gated: {w['why_not_gated']}")
    for section in ("end_to_end", "per_layer"):
        print(f"\n{section}:")
        for m in table[section]:
            print(f"  {m['name']} [{m['unit']}] ({m['layer']}"
                  f"{'' if gated(m) else ', not gated'}) {m['definition']}")
            print(f"      moves: {m['moves']}")
            if "normalised" in m:
                print(f"      normalised: {m['normalised']}")


def setup_child(name: str) -> None:
    """Time one set-up in this fresh process and report it."""
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.setup()
    elapsed = time.perf_counter() - _STARTED
    print(json.dumps({"setup_s": elapsed}), flush=True)
    workload.teardown()


def setup_samples(name: str, normalised: bool) -> list[float]:
    """Set up ``SETUP_SAMPLES`` times in fresh processes, each scaled to
    reference speed by probes taken just before and after it while this
    process waits idle."""
    import harness

    values = []
    for _ in range(SETUP_SAMPLES):
        before = harness.probe_ms()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-child"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        after = harness.probe_ms()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        factor = harness.speed_factor([before, after]) if normalised else 1.0
        values.append(raw * factor)
    return values


def end_to_end(name: str, out, setups: list[float], rss: float) -> dict:
    import harness
    import workloads

    check = out.checker
    q = workloads.TAIL_Q[name]
    p50 = statistics.median(out.latencies_ms)
    beyond = sum(1 for v in out.latencies_ms if v > p50)
    tail = p50
    if q > 0.5:
        try:
            tail, beyond = harness.percentile(out.latencies_ms, q)
        except ValueError as exc:
            print(f"warning: {exc}; run longer for a trustworthy tail")
            tail, beyond = harness.percentile(out.latencies_ms, q,
                                              min_beyond=0)
    if workloads.NORMALISED[name]:
        raw_tail, _ = harness.percentile(out.raw_latencies_ms, q,
                                         min_beyond=0)
        print(f"raw (not gated): {check.verified / out.raw_work_s:.4f} "
              f"outputs/s, p50 "
              f"{statistics.median(out.raw_latencies_ms):.2f} ms, tail "
              f"{raw_tail:.2f} ms, probe median "
              f"{statistics.median(out.probes):.3f} ms")
    print(f"latency: p50 {p50:.2f} ms, "
          f"tail p{q * 100:g} {tail:.2f} ms with {beyond} of "
          f"{len(out.latencies_ms)} samples beyond it")
    return {
        "throughput_per_s": check.verified / out.work_s,
        "latency_ms_p50": p50,
        "latency_ms_tail": tail,
        "msgs_per_edge": check.msgs_per_edge,
        "ok_frac": check.ok_frac,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list:
        print_table()
        return 0
    import_program()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}\n")
        return 2
    if args.setup_child:
        setup_child(args.workload)
        return 0
    ref = workloads.load_reference()
    tracer = None
    kwargs = {}
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        kwargs = layers.workload_hooks(args.workload, tracer)
    workload = workloads.WORKLOADS[args.workload](**kwargs)
    try:
        workload.setup()
        if tracer is not None:
            tracer.clear()
        out = workload.run_pass(args.seed, args.seconds, ref)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()
    rss = harness.peak_rss_mb()
    check = out.checker
    for note in out.notes:
        print(f"{args.workload}: {note}")
    print(f"outputs: {check.attempted} attempted, {check.verified} verified, "
          f"{check.failed} failed, {len(check.wrong)} wrong")
    for reason, count in sorted(check.failures.items()):
        print(f"failure x{count}: {reason}")
    for line in check.wrong[:20]:
        print(f"WRONG: {line}")
    if args.trace:
        import layers

        values = layers.per_layer(args.workload, tracer, out)
    else:
        normalised = workloads.NORMALISED[args.workload]
        setups = setup_samples(args.workload, normalised)
        print("setup: " + ", ".join(f"{s:.4f}" for s in setups) + " s"
              + (" at reference speed" if normalised else " raw"))
        values = end_to_end(args.workload, out, setups, rss)
    section = metric_table()["per_layer" if args.trace else "end_to_end"]
    for m in section:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}"
              + ("" if gated(m) else " (not gated)"))
    correct = not check.wrong and check.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed + len(check.wrong),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in section if gated(m)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
