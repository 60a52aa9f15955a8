"""Per-layer metrics of a traced pass.

Times are per output (per cell or per query) so that a unit's layers
add up to its wall; on normalised workloads each span is scaled by the
speed factor of the moment it ended, like the end-to-end timings.
A layer a workload never enters reads 0.
"""

from __future__ import annotations

import bisect
import statistics
import types

import spans

def workload_hooks(name: str, tracer: spans.Tracer) -> dict:
    """Constructor arguments that let the tracer reach a workload's
    seams: the server's solver-spawn seam, the farm worker's thread."""
    if name == "serve-open":
        from repro import serving

        seam = types.SimpleNamespace(spawn=serving._spawn_solver_process)
        tracer.wrap(seam, "spawn", "serve.spawn")
        return {"spawn": seam.spawn}
    if name == "farm-small":
        import threading

        return {"on_worker_start": lambda: spans.install_wire(
            tracer, threading.get_ident())}
    return {}


class _Clock:
    """Maps a moment of the pass to its speed factor."""

    def __init__(self, windows):
        self.windows = sorted(windows)
        self.starts = [w[0] for w in self.windows]

    def factor(self, moment: float):
        """The factor of the window holding ``moment``; None outside the
        pass (set-up and priming spans are not counted)."""
        i = bisect.bisect_right(self.starts, moment) - 1
        if i < 0:
            return None
        t0, t1, factor = self.windows[i]
        return factor if moment <= t1 + 1e-6 else None


def per_layer(name: str, tracer: spans.Tracer, out) -> dict:
    """Every per-layer metric of ``metrics.json``, by name."""
    clock = _Clock(out.windows)
    units = max(1, out.checker.attempted)

    def inside(kind):
        return [s for s in tracer.by_name(kind)
                if clock.factor(s[2]) is not None]

    def total(kind) -> float:
        """Normalised seconds spent in spans ``kind`` during the pass."""
        return sum((s[2] - s[1]) * clock.factor(s[2]) for s in inside(kind))

    def values(kind) -> list:
        """(factor, value) of the values ``kind`` recorded in the pass."""
        pairs = ((clock.factor(t), v) for t, v in tracer.values.get(kind, ()))
        return [(f, v) for f, v in pairs if f is not None]

    def value_total(kind) -> float:
        return sum(f * v for f, v in values(kind))

    def per_unit_ms(seconds: float) -> float:
        return seconds / units * 1000

    stage_s = total("congest.stage")
    # The driver's own time: its run (RunReport.wall) minus the stages
    # it ran, timed here around SyncNetwork.run.
    drivers_s = value_total("api.drive_s") - stage_s if stage_s else 0.0
    stage_msgs = sum(v for _, v in values("congest.stage_msgs"))
    lease_sizes = [v for _, v in values("farm.cells_per_lease")]
    calls = len(inside("congest.columnar_call"))
    kernels = len(inside("congest.columnar_kernel"))

    handles = inside("serve.handle")
    supervised = inside("serve.supervised")
    slot_wait = sum((s[1] - tracer.parent(s)[1]) * clock.factor(s[2])
                    for s in supervised if tracer.parent(s) is not None)
    spawn_s = total("serve.spawn")
    solve_s = total("serve.supervised") - spawn_s
    admit_s = total("serve.handle") - total("serve.solve_path")
    rtt_s = sum((t1 - t0) * clock.factor(t1) for t0, t1 in out.units)
    wire_s = rtt_s - total("serve.handle") if handles else 0.0
    farm_cells = len(inside("runner.cell"))

    metrics = {
        "graphs.build_ms": per_unit_ms(total("graphs.build")),
        "congest.net_setup_ms": per_unit_ms(total("congest.net_setup")),
        "congest.stage_ms": per_unit_ms(stage_s),
        "congest.msgs_per_stage_s": stage_msgs / stage_s if stage_s else 0.0,
        "congest.columnar_frac": kernels / calls if calls else 0.0,
        "drivers.self_ms": per_unit_ms(drivers_s),
        "api.verify_ms": per_unit_ms(total("api.verify")),
        "runner.spawn_ms": per_unit_ms(total("runner.spawn")),
        "runner.overhead_ms": per_unit_ms(value_total("runner.overhead_s")),
        "runner.exit0_no_result": out.counts.get("runner.exit0_no_result", 0),
        "farm.lease_ms": per_unit_ms(total("farm.lease")),
        "farm.submit_ms": per_unit_ms(total("farm.result")),
        "farm.cells_per_lease": (statistics.mean(lease_sizes)
                                 if lease_sizes else 0.0),
        "farm.heartbeats_per_cell": (len(inside("farm.heartbeat"))
                                     / farm_cells if farm_cells else 0.0),
        "farm.requeues": out.counts.get("farm.requeues", 0),
        "serve.hit_frac": out.counts.get("serve.hit_frac", 0.0),
        "serve.admit_ms": per_unit_ms(admit_s),
        "serve.spawn_ms": per_unit_ms(spawn_s),
        "serve.fingerprint_ms": per_unit_ms(total("serve.fingerprint")),
        "serve.solve_ms": per_unit_ms(solve_s),
        "serve.wire_ms": per_unit_ms(wire_s),
        "serve.slot_wait_ms": per_unit_ms(slot_wait),
        "serve.gen_late_ms": out.counts.get("serve.gen_late_ms", 0.0),
        "serve.client_wait_ms": out.counts.get("serve.client_wait_ms", 0.0),
        "bench.probe_ms": statistics.median(out.probes),
    }
    recorded = sum(1 for s in tracer.spans if s[2] is not None
                   and clock.factor(s[2]) is not None)
    metrics["bench.trace_overhead_frac"] = (
        recorded * spans.span_cost_s() / out.wall_s)
    if name.startswith("sweep"):
        covered = (total("graphs.build") + total("congest.net_setup")
                   + stage_s + drivers_s + total("api.verify"))
        unit_s = out.work_s
    elif name == "serve-open":
        covered = (total("graphs.build") + total("serve.fingerprint")
                   + slot_wait + spawn_s + solve_s)
        unit_s = rtt_s
    else:
        covered = (total("farm.lease") + total("farm.result")
                   + total("farm.heartbeat") + total("runner.cell"))
        unit_s = out.wall_s
    metrics["bench.trace_coverage_frac"] = covered / unit_s if unit_s else 0.0
    return metrics
