"""Graph generators for the experiments and benchmarks.

Every generator takes an explicit ``seed`` (or ``rng``) so benchmark runs
are reproducible.  The families here are the ones the paper's bounds are
exercised on:

* Gnp / random-regular / power-law — generic workloads for the upper bounds
  (dense Gnp gives m >> n^1.5, the regime where o(m) matters).
* complete bipartite + the tiered bipartite X-Y-Z gadget — the lower-bound
  construction of Section 2.2 (Figure 2).
* disjoint k-cycles — the KT-rho lower bound of Theorem 2.17.
* barbell — a high-diameter stress test for the danner.
"""

from __future__ import annotations

import random
import struct
from typing import Iterator, Sequence

from repro.errors import ReproError
from repro.graphs.core import Graph


def _rng_from(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def gnp_random_graph(n: int, p: float, seed=0) -> Graph:
    """Erdos-Renyi G(n, p) via geometric edge skipping (O(n + m) time)."""
    if not 0.0 <= p <= 1.0:
        raise ReproError("p must be in [0, 1]")
    rng = _rng_from(seed)
    edges: list[tuple[int, int]] = []
    if p == 0.0 or n < 2:
        return Graph(n, edges)
    if p == 1.0:
        return complete_graph(n)
    import math

    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((v, w))
    return Graph(n, edges)


def connected_gnp_graph(n: int, p: float, seed=0, max_tries: int = 60) -> Graph:
    """G(n, p) conditioned on connectivity (resamples; then patches)."""
    rng = _rng_from(seed)
    from repro.graphs.analysis import connected_components

    for _ in range(max_tries):
        g = gnp_random_graph(n, p, rng)
        comps = connected_components(g)
        if len(comps) == 1:
            return g
    # Patch: link consecutive components with one random edge each.
    g = gnp_random_graph(n, p, rng)
    comps = connected_components(g)
    extra = []
    for a, b in zip(comps, comps[1:]):
        extra.append((rng.choice(sorted(a)), rng.choice(sorted(b))))
    return g.with_edges(added=extra)


def random_regular_graph(n: int, d: int, seed=0, max_tries: int = 60) -> Graph:
    """A random d-regular simple graph.

    Tries the configuration model first; for dense degrees (where simple
    outcomes are exponentially rare) falls back to a circulant graph
    randomized by double edge swaps, which is guaranteed simple and
    d-regular.
    """
    if (n * d) % 2 != 0:
        raise ReproError("n * d must be even for a d-regular graph")
    if d >= n:
        raise ReproError("degree must be below n")
    rng = _rng_from(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(max_tries):
        edges = _shuffled_stub_pairs(rng, stubs.copy())
        if edges is not None:
            return Graph(n, edges)
    return _circulant_with_swaps(n, d, rng)


# Bulk reads of the Mersenne Twister.  The edge sets built from these
# draws fix every message count the benchmarks gate, so the readers below
# must hand out exactly what the stdlib calls they replace would: the same
# values, with ``rng`` left in the same state.  ``rng.randrange(b)`` and
# ``rng.shuffle`` both draw through ``_randbelow``: take the top
# ``b.bit_length()`` bits of the next 32-bit output, retry while >= b.
# Every caller asks for no more words than it is sure to use (each
# pending draw takes at least one), so no state ever needs rewinding.

#: Words per ``getrandbits`` call; bounds the readers' memory.
_CHUNK = 4096


def _mt_words(rng: random.Random, limit: int) -> tuple[int, ...]:
    """The next ``min(limit, _CHUNK)`` 32-bit outputs of ``rng``, in order.

    ``getrandbits(32 * k)`` packs k successive outputs little-endian: the
    first one drawn is the lowest word.
    """
    k = min(limit, _CHUNK)
    return struct.unpack(
        f"<{k}I", rng.getrandbits(32 * k).to_bytes(4 * k, "little")
    )


def _randbelow_stream(rng: random.Random, bound: int,
                      count: int) -> Iterator[int]:
    """``count`` successive ``rng.randrange(bound)`` values, read in bulk.

    Needs ``bound < 2**32`` (larger bounds take several words per draw).
    ``rng`` reaches the state those calls leave once the last chunk is
    drawn; nothing else may draw from it meanwhile.
    """
    shift = 32 - bound.bit_length()
    while count > 0:
        values = [r for w in _mt_words(rng, count)
                  if (r := w >> shift) < bound]
        count -= len(values)
        yield from values


def _shuffled_stub_pairs(rng: random.Random,
                         stubs: list[int]) -> set[tuple[int, int]] | None:
    """One configuration-model attempt: ``rng.shuffle(stubs)``, then pair
    stubs 2t and 2t+1.  Returns the edge set, or None when a pair is a
    self-loop or repeats an edge.

    Replays the shuffle from bulk words.  Fisher–Yates step i draws
    ``randbelow(i + 1)`` and fixes slot i for good, so each pair is checked
    as soon as its two slots are final; after the first bad pair the
    remaining steps only consume their words (see :func:`_skip_shuffle`).
    """
    edges: set[tuple[int, int]] = set()
    i = len(stubs) - 1
    shift = 32 - len(stubs).bit_length()
    while i > 0:
        words = _mt_words(rng, i)
        for used, w in enumerate(words, 1):
            j = w >> shift
            if j > i:
                continue
            stubs[i], stubs[j] = stubs[j], stubs[i]
            if i % 2 == 0 or i == 1:
                k = i - i % 2
                u, v = stubs[k], stubs[k + 1]
                e = (u, v) if u < v else (v, u)
                if u == v or e in edges:
                    _skip_shuffle(rng, words[used:], i - 1)
                    return None
                edges.add(e)
            i -= 1
            if (i + 1) << shift < 1 << 31:   # the bound i + 1 lost a bit
                shift += 1
    return edges


def _skip_shuffle(rng: random.Random, words: Sequence[int],
                  steps: int) -> None:
    """Consume the words Fisher–Yates steps ``steps .. 1`` draw.

    ``words`` were already drawn for those steps.  Step i keeps a word w
    iff ``w >> shift <= i``, i.e. ``w < (i + 1) << shift``; that limit
    stays in [2**31, 2**32) and doubles, with the step, whenever
    ``i + 1`` loses a bit.
    """
    shift = 32 - (steps + 1).bit_length()
    limit, step = (steps + 1) << shift, 1 << shift
    while True:
        for w in words:
            if w < limit:
                limit -= step
                if limit < 1 << 31:
                    limit <<= 1
                    step <<= 1
        steps = limit // step - 1
        if steps <= 0:
            return
        words = _mt_words(rng, steps)


def _circulant_with_swaps(n: int, d: int, rng: random.Random) -> Graph:
    """Deterministic circulant base + random double edge swaps."""
    edges: set[tuple[int, int]] = set()
    for offset in range(1, d // 2 + 1):
        for v in range(n):
            u = (v + offset) % n
            edges.add((min(u, v), max(u, v)))
    if d % 2 == 1:
        # odd degree needs even n: add the antipodal perfect matching
        for v in range(n // 2):
            u = v + n // 2
            edges.add((v, u))
    edge_list = list(edges)
    # Randomize with double edge swaps: {a,b},{c,d} -> {a,c},{b,d}.
    # Ten attempts per edge, each drawing i then j.
    draws = _randbelow_stream(rng, len(edge_list), 20 * len(edge_list))
    for i, j in zip(draws, draws):
        if i == j:
            continue
        a, b = old1 = edge_list[i]
        c, e = old2 = edge_list[j]
        if a == c or a == e or b == c or b == e:
            continue
        new1 = (a, c) if a < c else (c, a)
        new2 = (b, e) if b < e else (e, b)
        if new1 in edges or new2 in edges:
            continue
        edges.discard(old1)
        edges.discard(old2)
        edges.add(new1)
        edges.add(new2)
        edge_list[i], edge_list[j] = new1, new2
    return Graph(n, edges)


def power_law_graph(n: int, attachment: int = 3, seed=0) -> Graph:
    """Barabasi-Albert preferential attachment (power-law degrees)."""
    if attachment < 1 or attachment >= n:
        raise ReproError("attachment must be in [1, n)")
    rng = _rng_from(seed)
    edges: list[tuple[int, int]] = []
    targets = list(range(attachment))
    repeated: list[int] = list(range(attachment))
    for v in range(attachment, n):
        chosen = set()
        while len(chosen) < attachment:
            chosen.add(rng.choice(repeated) if repeated else rng.randrange(v))
        for u in chosen:
            edges.append((u, v))
            repeated.append(u)
            repeated.append(v)
        targets.append(v)
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with left part 0..a-1 and right part a..a+b-1."""
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ReproError("a cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def disjoint_cycles(num_cycles: int, k: int) -> Graph:
    """The Theorem 2.17 family: ``num_cycles`` disjoint k-cycles."""
    edges = []
    for c in range(num_cycles):
        base = c * k
        edges.extend((base + i, base + (i + 1) % k) for i in range(k))
    return Graph(num_cycles * k, edges)


def barbell_graph(clique: int, path: int) -> Graph:
    """Two ``clique``-cliques joined by a ``path``-vertex path (big D)."""
    if clique < 2:
        raise ReproError("cliques need at least 2 vertices")
    edges = []
    # Left clique: 0..clique-1, right clique: clique+path..2*clique+path-1
    for u in range(clique):
        for v in range(u + 1, clique):
            edges.append((u, v))
    offset = clique + path
    for u in range(clique):
        for v in range(u + 1, clique):
            edges.append((offset + u, offset + v))
    chain = [clique - 1] + [clique + i for i in range(path)] + [offset]
    edges.extend(zip(chain, chain[1:]))
    return Graph(2 * clique + path, edges)


def grid_graph(n: int) -> Graph:
    """A near-square 2D lattice on exactly ``n`` vertices.

    Vertex v sits at (v // cols, v % cols) with cols = ceil(sqrt(n));
    the last row may be partial.  Every vertex links left and up, so the
    lattice is connected for any n >= 1.  Bounded degree (<= 4) and
    Theta(sqrt n) diameter — the opposite regime from dense gnp, where
    m ~ n and the o(m) message bounds are vacuous but round behavior and
    synchronizer overhead per edge are cleanly visible.
    """
    if n < 1:
        raise ReproError("grid needs at least one vertex")
    import math

    cols = max(1, math.isqrt(n - 1) + 1)
    edges = []
    for v in range(n):
        if (v % cols) != cols - 1 and v + 1 < n:
            edges.append((v, v + 1))
        if v + cols < n:
            edges.append((v, v + cols))
    return Graph(n, edges)


def torus_graph(n: int) -> Graph:
    """A 2D torus (wraparound grid) on approximately ``n`` vertices.

    cols = max(3, isqrt(n)) and rows = max(3, round(n / cols)), so the
    built vertex count rows*cols quantizes the request (like the
    expander lift does).  Every vertex has degree exactly 4 and the
    diameter is Theta(sqrt n) with no boundary effects — the clean
    bounded-degree workload for fault sweeps, where a crash's blast
    radius is a fixed 4-neighborhood regardless of n.
    """
    if n < 9:
        raise ReproError("torus needs at least 9 vertices (3x3)")
    import math

    cols = max(3, math.isqrt(n))
    rows = max(3, round(n / cols))
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    # wraparound can duplicate edges only for rows/cols < 3, excluded above
    return Graph(rows * cols, edges)


def hypercube_graph(n: int) -> Graph:
    """The d-dimensional hypercube nearest ``n`` vertices (2^d built).

    d = max(1, round(log2 n)); vertices are bitstrings 0..2^d-1 and
    u ~ v iff they differ in one bit.  Degree = diameter = d = Theta(log
    n): the logarithmic-degree middle ground between the constant-degree
    torus and dense gnp.
    """
    if n < 2:
        raise ReproError("hypercube needs at least 2 vertices")
    import math

    d = max(1, round(math.log2(n)))
    size = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(d)
             if v < v ^ (1 << b)]
    return Graph(size, edges)


def random_regular_lift(n: int, d: int = 4, seed=0) -> Graph:
    """A random degree-``d`` lift of K_{d+1} — an expander whp.

    The base graph K_{d+1} is d-regular; an L-lift replaces each base
    vertex u with a fiber {(u, 0), ..., (u, L-1)} and each base edge
    {u, v} with a random perfect matching between the fibers (a uniform
    permutation pi: (u, i) ~ (v, pi(i))).  Random lifts of expanders are
    expanders whp (Bilu–Linial), the result is exactly d-regular and
    simple by construction, and L = round(n / (d+1)) fibers put the
    vertex count within a fiber of ``n``.  Rarely the lift is
    disconnected; consecutive components are then patched with one
    random edge each (as :func:`connected_gnp_graph` does).
    """
    if d < 3:
        raise ReproError("expander lift needs degree >= 3")
    rng = _rng_from(seed)
    base = d + 1
    lift = max(1, round(n / base))
    edges: list[tuple[int, int]] = []
    for u in range(base):
        for v in range(u + 1, base):
            perm = list(range(lift))
            rng.shuffle(perm)
            edges.extend(
                (u * lift + i, v * lift + perm[i]) for i in range(lift)
            )
    g = Graph(base * lift, edges)
    from repro.graphs.analysis import connected_components

    comps = connected_components(g)
    if len(comps) == 1:
        return g
    extra = []
    for a, b in zip(comps, comps[1:]):
        extra.append((rng.choice(sorted(a)), rng.choice(sorted(b))))
    return g.with_edges(added=extra)


def planted_partition_graph(n: int, p_in: float, p_out: float,
                            blocks: int = 4, seed=0) -> Graph:
    """A planted-partition (stochastic block model) graph.

    ``blocks`` contiguous communities of near-equal size; each
    within-community pair is an edge with probability ``p_in``, each
    cross pair with ``p_out`` (p_out << p_in plants the partition).
    Communities whose internal density is high while the cut is sparse
    are the natural stress case for the partition-based coloring
    (Algorithm 1's B_i parts vs. the planted ones) and for synchronizer
    locality.  Connectivity is patched the same way as
    :func:`connected_gnp_graph`: components get linked by one random
    edge each.
    """
    if not 0.0 <= p_out <= p_in <= 1.0:
        raise ReproError("planted partition needs 0 <= p_out <= p_in <= 1")
    if blocks < 1 or blocks > n:
        raise ReproError("blocks must be in [1, n]")
    rng = _rng_from(seed)
    block_of = [min(v * blocks // n, blocks - 1) for v in range(n)]
    edges = []
    for u in range(n):
        bu = block_of[u]
        for v in range(u + 1, n):
            prob = p_in if block_of[v] == bu else p_out
            if rng.random() < prob:
                edges.append((u, v))
    g = Graph(n, edges)
    from repro.graphs.analysis import connected_components

    comps = connected_components(g)
    if len(comps) == 1:
        return g
    extra = []
    for a, b in zip(comps, comps[1:]):
        extra.append((rng.choice(sorted(a)), rng.choice(sorted(b))))
    return g.with_edges(added=extra)


def regular_degree_for(n: int, p: float) -> int:
    """Feasible regular degree for density knob ``p``: d <= n-1, d*n even.

    Without the clamp a large ``p`` requests degree >= n, which no simple
    graph supports; the parity bump must also respect the cap.
    """
    d = max(2, int(p * n))
    d = min(d, n - 1)
    if (d * n) % 2:
        d += 1 if d < n - 1 else -1
    return max(d, 0)


def family_built_n(family: str, n: int, p: float = 0.2) -> int:
    """The vertex count :func:`family_graph` will actually build.

    Families that quantize the requested size — expander lifts round to
    a whole number of fibers, barbell to clique/path arithmetic — build
    a graph whose ``n`` differs from the request.  Records must carry
    the *built* n (a wrong x-coordinate biases exponent fits), and
    failure records have no graph to read it from, so this computes it
    without constructing any edges.  Kept in lockstep with
    :func:`family_graph`'s dispatch below.
    """
    if family == "barbell":
        return 2 * (n // 2) + max(1, n // 10)
    if family == "expander":
        d = max(3, min(8, int(round(p * 16))))
        return max(1, round(n / (d + 1))) * (d + 1)
    if family == "torus":
        import math

        cols = max(3, math.isqrt(n))
        return cols * max(3, round(n / cols))
    if family == "hypercube":
        import math

        return 1 << max(1, round(math.log2(n)))
    return n


def family_graph(family: str, n: int, p: float = 0.2, seed=0) -> Graph:
    """Build a graph from a ``(family, n, density-knob, seed)`` spec.

    The shared workload vocabulary of the CLI and the experiment sweeps:
    ``gnp`` (edge probability p), ``regular`` (degree ~ p*n, clamped
    feasible), ``powerlaw`` (attachment ~ 10p), ``barbell`` (p ignored),
    ``grid`` (2D lattice, p ignored), ``torus`` (wraparound grid,
    p ignored), ``hypercube`` (2^round(log2 n) vertices, p ignored),
    ``expander`` (random d-regular lift of K_{d+1} with d ~ 16p clamped
    to [3, 8]), and ``planted`` (planted partition with p_in = p,
    p_out = p/8, 4 blocks).  Size quantization here must stay in
    lockstep with :func:`family_built_n`.
    """
    if family == "gnp":
        return connected_gnp_graph(n, p, seed=seed)
    if family == "regular":
        return random_regular_graph(n, regular_degree_for(n, p), seed=seed)
    if family == "powerlaw":
        return power_law_graph(n, attachment=max(2, int(p * 10)), seed=seed)
    if family == "barbell":
        return barbell_graph(n // 2, max(1, n // 10))
    if family == "grid":
        return grid_graph(n)
    if family == "torus":
        return torus_graph(n)
    if family == "hypercube":
        return hypercube_graph(n)
    if family == "expander":
        d = max(3, min(8, int(round(p * 16))))
        return random_regular_lift(n, d, seed=seed)
    if family == "planted":
        return planted_partition_graph(
            n, p_in=p, p_out=p / 8, blocks=min(4, max(1, n // 8)),
            seed=seed,
        )
    raise ReproError(f"unknown graph family {family!r}")


def tiered_bipartite(t: int) -> tuple[Graph, dict[str, list[int]]]:
    """The lower-bound gadget G(X, Y, Z, E) of Section 2.2.

    |X| = |Y| = |Z| = t; G[X u Y] and G[Y u Z] are both K_{t,t}, so
    |E| = 2 t^2.  Returns the graph and the parts, with vertices numbered
    X = 0..t-1, Y = t..2t-1, Z = 2t..3t-1.
    """
    if t < 1:
        raise ReproError("t must be >= 1")
    xs = list(range(t))
    ys = list(range(t, 2 * t))
    zs = list(range(2 * t, 3 * t))
    edges = [(x, y) for x in xs for y in ys]
    edges.extend((y, z) for y in ys for z in zs)
    return Graph(3 * t, edges), {"X": xs, "Y": ys, "Z": zs}


def graph_from_networkx(g) -> Graph:
    """Convert a networkx graph with integer-convertible nodes."""
    mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Graph(
        g.number_of_nodes(),
        [(mapping[u], mapping[v]) for u, v in g.edges()],
    )


def random_spanning_subgraph(g: Graph, keep: float, seed=0) -> Graph:
    """Keep each edge independently with probability ``keep`` (tests)."""
    rng = _rng_from(seed)
    return Graph(g.n, [e for e in g.edges() if rng.random() < keep])


def relabelled(g: Graph, permutation: Sequence[int]) -> Graph:
    """Apply a vertex permutation (tests of isomorphism invariance)."""
    if sorted(permutation) != list(range(g.n)):
        raise ReproError("not a permutation of the vertex set")
    return Graph(g.n, [(permutation[u], permutation[v]) for u, v in g.edges()])
