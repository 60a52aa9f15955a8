"""Span recording for the traced run.

The spans are recorded from the benchmark's side: :func:`install`
replaces public functions and methods of the program's modules with
wrappers that time each call, and :meth:`Tracer.uninstall` puts the
originals back.  No file of the program changes.  Spans are kept in
memory; each records its name, start, end and the span that caused it
(the enclosing span on the same thread).
"""

from __future__ import annotations

import functools
import threading
import time

perf = time.perf_counter


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or None]
        self.spans: list[list] = []
        #: name -> [(moment, value)] recorded at a boundary: counts, or
        #: durations the program itself measured.
        self.values: dict[str, list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.values.setdefault(name, []).append((perf(), value))

    def record(self, name: str, start: float, end: float) -> None:
        """Append a span timed by the caller (no parent)."""
        with self._lock:
            self.spans.append([name, start, end, None])

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.values.clear()

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``on_exit(args, kwargs, result, span)`` runs after a call that
        returned, with the finished span, to record counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                span = [name, perf(), None, stack[-1] if stack else None]
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf()
            if on_exit is not None:
                on_exit(args, kwargs, result, span)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def by_name(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[2] is not None]

    def parent(self, span: list) -> list | None:
        return self.spans[span[3]] if span[3] is not None else None


def span_cost_s(rounds: int = 20000) -> float:
    """Measured cost of one span: a traced no-op call minus a bare one."""

    class Box:
        @staticmethod
        def noop():
            return None

    bare = Box.noop
    t0 = perf()
    for _ in range(rounds):
        bare()
    base = perf() - t0
    tracer = Tracer()
    tracer.wrap(Box, "noop", "noop")
    traced = Box.noop
    t0 = perf()
    for _ in range(rounds):
        traced()
    cost = perf() - t0
    tracer.uninstall()
    return max(0.0, cost - base) / rounds


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries every workload crosses.

    Module attributes are replaced where the caller looks them up (for
    example ``runner.family_graph``, which the runner imported by name),
    so the wrapper sits exactly at the call between two layers.
    """
    from repro import api, serving
    from repro.congest.network import SyncNetwork
    from repro.congest.runtime import ColumnarRoundScheduler
    from repro.experiments import distributed, runner

    tracer.wrap(runner, "family_graph", "graphs.build")
    tracer.wrap(serving, "family_graph", "graphs.build")
    tracer.wrap(SyncNetwork, "__init__", "congest.net_setup")

    def stage_messages(args, kwargs, result, span):
        tracer.add("congest.stage_msgs", result.stats.messages)

    tracer.wrap(SyncNetwork, "run", "congest.stage",
                on_exit=stage_messages)
    tracer.wrap(ColumnarRoundScheduler, "run_stage", "congest.columnar_call")
    tracer.wrap(ColumnarRoundScheduler, "_run_columnar",
                "congest.columnar_kernel")

    def drive_wall(args, kwargs, result, span):
        if result.report.wall is not None:
            tracer.add("api.drive_s", result.report.wall)

    tracer.wrap(api, "color_graph", "api.call", on_exit=drive_wall)
    tracer.wrap(api, "find_mis", "api.call", on_exit=drive_wall)
    tracer.wrap(api, "coloring_violations", "api.verify")
    tracer.wrap(api, "mis_violations", "api.verify")

    tracer.wrap(runner, "_spawn_cell_process", "runner.spawn")
    original_farm = distributed._run_cells_with_timeout

    @functools.wraps(original_farm)
    def farm_cells(cells, workers, record, *args, **kwargs):
        t0 = perf()

        def timed_record(rec):
            tracer.record("runner.cell", t0, perf())
            tracer.add("runner.overhead_s", perf() - t0 - rec["wall_s"])
            record(rec)

        return original_farm(cells, workers, timed_record, *args, **kwargs)

    distributed._run_cells_with_timeout = farm_cells
    tracer._restore.append(
        (distributed, "_run_cells_with_timeout", original_farm))

    tracer.wrap(serving.QueryServer, "handle_query", "serve.handle")
    tracer.wrap(serving.QueryServer, "_solve", "serve.solve_path")
    tracer.wrap(serving, "supervised_solve", "serve.supervised")
    tracer.wrap(serving, "request_fingerprint", "serve.fingerprint")


def install_wire(tracer: Tracer, thread_ident: int) -> None:
    """Time the farm worker's request/reply exchanges on its own thread.

    The worker's send and the next receive on ``thread_ident`` bracket
    one round trip; the coordinator's handler threads use the same
    functions and are ignored.
    """
    from repro.experiments import distributed

    send, recv = distributed._send_msg, distributed._recv_msg
    outstanding: dict = {}

    def traced_send(wfile, msg):
        if threading.get_ident() == thread_ident:
            outstanding["msg"] = (msg.get("type"), perf())
        return send(wfile, msg)

    def traced_recv(rfile):
        reply = recv(rfile)
        sent = (outstanding.pop("msg", None)
                if threading.get_ident() == thread_ident else None)
        if sent is not None:
            kind, t0 = sent
            tracer.record(f"farm.{kind}", t0, perf())
            if kind == "lease" and reply and reply.get("type") == "cells":
                tracer.add("farm.cells_per_lease", len(reply["cells"]))
        return reply

    distributed._send_msg = traced_send
    distributed._recv_msg = traced_recv
    tracer._restore.append((distributed, "_send_msg", send))
    tracer._restore.append((distributed, "_recv_msg", recv))
