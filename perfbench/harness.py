"""Helpers shared by the benchmark workloads: the host-speed probe,
tail percentiles, stratified draws, output checks and memory figures.

Nothing here imports ``repro``; the self-tests exercise these helpers
without the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import random
import resource
import statistics
import time

#: Median probe time on the reference host (a 2-core x86-64 container).
PROBE_REF_MS = 4.0
#: The same for :func:`probe_both_cores_ms`.  It reads slower than one
#: core's probe: the host's two cores slow each other down when both
#: are busy.
PROBE_BOTH_REF_MS = 6.9

#: How strongly a timing follows the probe: a timing is normalised to
#: reference speed by ``(PROBE_REF_MS / probe) ** ELASTICITY``.  Part of
#: the program's time (memory traffic, numpy kernels, waiting on a
#: child) does not slow down with the host the way the probe does, so
#: dividing by the probe outright over-corrects.  0.8 is the measured
#: log-log slope of sweep-cell wall on probe time on the reference host,
#: where it minimised the spread of 8- and 40-cell windows.
ELASTICITY = 0.8


def _probe_chunk() -> int:
    """A fixed pure-Python chunk: an interpreter loop over integers, a
    dict and a list, then allocation and sorting of small objects.  It
    shares no code with the program, so a change to the program cannot
    move it; only the host's speed can."""
    acc = 7
    table: dict = {}
    items: list = []
    for i in range(4000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        items.append(acc >> 7)
        if len(items) > 64:
            items.pop(0)
    rng = random.Random(5)
    objects = {(rng.randrange(1 << 30), i): [i, str(i)] for i in range(1500)}
    ordered = sorted(objects, key=lambda k: k[0])
    return acc + sum(len(objects[k][1]) for k in ordered[::7])


def probe_ms() -> float:
    """Time the probe: the median of three chunks, in milliseconds.

    Call it only while the program is idle, so the probe and the
    program never compete for the core the probe measures.
    """
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_chunk()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1000.0


def _send_probe(conn) -> None:
    conn.send(probe_ms())
    conn.close()


def probe_both_cores_ms() -> float:
    """The probe on both cores at once: here and in a forked child.

    Work spread over both cores (a server and its solver children)
    follows the mean of the two; one core's probe misses the other.
    Forked, not spawned, so the child starts within milliseconds.
    """
    ctx = multiprocessing.get_context("fork")
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_probe, args=(send_conn,), daemon=True)
    child.start()
    send_conn.close()
    try:
        mine = probe_ms()
        theirs = recv_conn.recv()
    finally:
        recv_conn.close()
        child.join()
    return (mine + theirs) / 2


def speed_factor(probes: list[float], ref_ms: float = PROBE_REF_MS) -> float:
    """Factor that converts a timing taken between ``probes`` (the mean
    of the neighbouring probes) to reference host speed, where the probe
    reads ``ref_ms``."""
    return (ref_ms / (sum(probes) / len(probes))) ** ELASTICITY


def percentile(samples: list[float], q: float,
               min_beyond: int = 10) -> tuple[float, int]:
    """Nearest-rank ``q`` percentile and the number of samples above it.

    Raises ``ValueError`` when fewer than ``min_beyond`` samples lie
    beyond the percentile: a tail read off fewer points is noise.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond "
            f"it; need at least {min_beyond}")
    return ordered[rank - 1], beyond


def pick_per_stratum(strata: list, pool: dict, seed: int,
                     tag: str) -> dict:
    """Pick one pool member per stratum, reproducibly from ``seed``.

    ``pool[stratum]`` lists the inputs the reference holds for that
    stratum; every run gets exactly one input from every stratum.
    """
    rng = random.Random(f"{tag}/{seed}/pick")
    return {s: rng.choice(pool[s]) for s in strata}


def round_orders(items: list, seed: int, tag: str, rounds: int) -> list:
    """``rounds`` whole rounds of ``items``, each in its own seeded order.

    Every round holds every item once, so a run has the same share of
    each stratum however many rounds it completes.
    """
    rng = random.Random(f"{tag}/{seed}/order")
    out = []
    for _ in range(rounds):
        order = list(items)
        rng.shuffle(order)
        out.append(order)
    return out


def deal_without_replacement(strata: list, pool: dict, seed: int,
                             tag: str, rounds: int) -> list:
    """``rounds`` whole rounds, each holding one input per stratum, and
    no input used twice in the run (a cold query must miss the cache).

    Each stratum deals its first ``rounds`` inputs in a seeded order, so
    runs of one length draw the same inputs and the seed moves only
    their order: drawing a seeded subset instead moved the serve p50 by
    0.28 (IQR over median) across seeds, against 0.085 for one seed.
    Raises ``ValueError`` when a stratum's pool is too small.
    """
    rng = random.Random(f"{tag}/{seed}/deal")
    decks = {}
    for s in strata:
        if len(pool[s]) < rounds:
            raise ValueError(
                f"stratum {s!r} holds {len(pool[s])} inputs; "
                f"{rounds} rounds need one each")
        decks[s] = list(pool[s][:rounds])
        rng.shuffle(decks[s])
    out = []
    for r in range(rounds):
        order = [decks[s][r] for s in strata]
        rng.shuffle(order)
        out.append(order)
    return out


def poisson_offsets(count: int, span_s: float,
                    rng: random.Random) -> list[float]:
    """Arrival offsets of a Poisson stream conditioned on ``count``
    arrivals in ``[0, span_s)``: sorted independent uniforms."""
    return sorted(rng.uniform(0.0, span_s) for _ in range(count))


def output_digest(values) -> str:
    """Short digest of an output vector (colors or MIS membership)."""
    text = json.dumps([None if v is None else int(v) for v in values],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Record fields that must equal the reference exactly.
CHECKED_FIELDS = ("n", "m", "messages", "rounds", "colors", "mis_size")


class Checker:
    """Tallies outputs against the exact-count reference.

    ``failed`` counts outputs that produced no verified answer (shed,
    degraded, error, non-ok records); ``wrong`` counts outputs that
    answered but disagree with the reference or were invalid, which
    makes the whole run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: dict[str, int] = {}
        self.messages = 0
        self.edges = 0

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def record(self, key: str, rec: dict, ref: dict) -> bool:
        """Check one sweep or farm record; True if verified."""
        if rec.get("status", "ok") != "ok":
            self.fail(f"{rec.get('status')}: {rec.get('error', '')}")
            return False
        self.attempted += 1
        bad = [f for f in CHECKED_FIELDS
               if f in ref and rec.get(f) != ref[f]]
        if bad or rec.get("valid") is not True:
            self.wrong.append(
                f"{key}: " + (", ".join(
                    f"{f}={rec.get(f)!r} (reference {ref[f]!r})"
                    for f in bad) or "output invalid"))
            return False
        self.messages += rec["messages"]
        self.edges += rec["m"]
        return True

    def reply(self, key: str, payload: dict, ref: dict) -> bool:
        """Check one query reply; True if verified."""
        if payload.get("type") != "result":
            self.fail(payload.get("type") or "no reply")
            return False
        if payload.get("degraded"):
            self.fail("degraded")
            return False
        self.attempted += 1
        vector = payload.get("colors")
        if vector is None:
            vector = payload.get("in_mis")
        got = {"n": payload.get("n"), "m": payload.get("m"),
               "messages": payload.get("messages"),
               "rounds": payload.get("rounds"),
               "digest": (output_digest(vector)
                          if vector is not None else None)}
        bad = [f for f in got if got[f] != ref.get(f)]
        if bad or payload.get("valid") is not True:
            self.wrong.append(
                f"{key}: " + (", ".join(
                    f"{f}={got[f]!r} (reference {ref.get(f)!r})"
                    for f in bad) or "output invalid"))
            return False
        self.messages += payload["messages"]
        self.edges += payload["m"]
        return True

    @property
    def verified(self) -> int:
        return self.attempted - self.failed - len(self.wrong)

    @property
    def ok_frac(self) -> float:
        return self.verified / self.attempted if self.attempted else 0.0

    @property
    def msgs_per_edge(self) -> float:
        return self.messages / self.edges if self.edges else 0.0


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest waited-for
    child's, in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0
