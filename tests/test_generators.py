"""Unit + property tests for the graph generators."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.graphs.analysis import connected_components, is_connected
from repro.graphs.generators import (
    barbell_graph,
    complete_bipartite,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    disjoint_cycles,
    family_graph,
    gnp_random_graph,
    power_law_graph,
    random_regular_graph,
    random_spanning_subgraph,
    relabelled,
    tiered_bipartite,
)


def test_gnp_determinism():
    a = gnp_random_graph(50, 0.2, seed=5)
    b = gnp_random_graph(50, 0.2, seed=5)
    assert a == b


def test_gnp_seed_sensitivity():
    a = gnp_random_graph(50, 0.2, seed=5)
    b = gnp_random_graph(50, 0.2, seed=6)
    assert a != b


def test_gnp_extremes():
    assert gnp_random_graph(20, 0.0, seed=1).m == 0
    assert gnp_random_graph(20, 1.0, seed=1).m == 190


def test_gnp_bad_p():
    with pytest.raises(ReproError):
        gnp_random_graph(10, 1.5)


def test_gnp_density_plausible():
    g = gnp_random_graph(200, 0.1, seed=3)
    expected = 0.1 * 199 * 100
    assert 0.7 * expected < g.m < 1.3 * expected


def test_connected_gnp_is_connected():
    for seed in range(5):
        g = connected_gnp_graph(60, 0.05, seed=seed)
        assert is_connected(g)


def test_regular_graph_degrees():
    g = random_regular_graph(30, 4, seed=2)
    assert all(g.degree(v) == 4 for v in range(30))


def test_regular_graph_parity_rejected():
    with pytest.raises(ReproError):
        random_regular_graph(5, 3)


def test_regular_graph_too_dense_rejected():
    with pytest.raises(ReproError):
        random_regular_graph(4, 4)


def test_power_law_connected_and_skewed():
    g = power_law_graph(150, attachment=2, seed=4)
    assert is_connected(g)
    degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    assert degrees[0] > 3 * degrees[len(degrees) // 2]


def test_complete_graph():
    g = complete_graph(6)
    assert g.m == 15
    assert g.max_degree() == 5


def test_complete_bipartite_structure():
    g = complete_bipartite(3, 4)
    assert g.n == 7
    assert g.m == 12
    for u in range(3):
        for v in range(3):
            if u != v:
                assert not g.has_edge(u, v)


def test_cycle_graph():
    g = cycle_graph(8)
    assert g.m == 8
    assert all(g.degree(v) == 2 for v in range(8))


def test_cycle_too_short():
    with pytest.raises(ReproError):
        cycle_graph(2)


def test_disjoint_cycles_components():
    g = disjoint_cycles(4, 5)
    comps = connected_components(g)
    assert len(comps) == 4
    assert all(len(c) == 5 for c in comps)


def test_barbell_structure():
    g = barbell_graph(5, 3)
    assert g.n == 13
    assert is_connected(g)
    # bridge path endpoints have degree clique-1 + 1
    assert g.degree(4) == 5


def test_tiered_bipartite_matches_paper():
    g, parts = tiered_bipartite(4)
    t = 4
    assert g.n == 3 * t
    assert g.m == 2 * t * t
    for x in parts["X"]:
        for z in parts["Z"]:
            assert not g.has_edge(x, z)
    for y in parts["Y"]:
        assert g.degree(y) == 2 * t


def test_random_spanning_subgraph_keeps_subset():
    g = complete_graph(12)
    h = random_spanning_subgraph(g, 0.5, seed=9)
    assert h.n == g.n
    assert set(h.edges()) <= set(g.edges())


def test_relabelled_preserves_structure():
    g = cycle_graph(6)
    perm = [3, 4, 5, 0, 1, 2]
    h = relabelled(g, perm)
    assert h.m == g.m
    assert all(h.degree(v) == 2 for v in range(6))


def test_relabelled_bad_permutation():
    with pytest.raises(ReproError):
        relabelled(cycle_graph(4), [0, 0, 1, 2])


@given(st.integers(2, 40), st.floats(0.05, 0.9))
@settings(max_examples=25, deadline=None)
def test_gnp_simple_graph_property(n, p):
    g = gnp_random_graph(n, p, seed=11)
    assert all(v not in g.neighbors(v) for v in range(n))
    assert g.m <= n * (n - 1) // 2


@given(st.integers(1, 8), st.integers(3, 10))
@settings(max_examples=20, deadline=None)
def test_disjoint_cycles_edge_count(c, k):
    g = disjoint_cycles(c, k)
    assert g.n == c * k
    assert g.m == c * k


# -- grid / expander / planted partition (sweep families) ---------------------


def test_grid_structure_and_determinism():
    from repro.graphs.generators import grid_graph

    g = grid_graph(30)
    assert g.n == 30
    assert g == grid_graph(30)                    # deterministic
    assert is_connected(g)
    assert all(g.degree(v) <= 4 for v in range(g.n))
    # full 5x6 lattice: m = 5*(6-1) + 6*(5-1) = 49
    assert grid_graph(30).m == 49
    # partial last row stays connected
    assert is_connected(grid_graph(23))
    with pytest.raises(ReproError):
        grid_graph(0)


def test_expander_lift_regular_and_seeded():
    from repro.graphs.generators import random_regular_lift

    a = random_regular_lift(60, 4, seed=9)
    b = random_regular_lift(60, 4, seed=9)
    c = random_regular_lift(60, 4, seed=10)
    assert a == b
    assert a != c                                 # seed-sensitive
    assert is_connected(a)
    # exact d-regularity (up to the rare connectivity patch)
    degs = [a.degree(v) for v in range(a.n)]
    assert max(degs) <= 6 and min(degs) >= 4
    assert sum(1 for d in degs if d == 4) >= a.n - 4
    with pytest.raises(ReproError):
        random_regular_lift(30, 2)


def test_planted_partition_density_contrast():
    from repro.graphs.generators import planted_partition_graph

    a = planted_partition_graph(80, p_in=0.5, p_out=0.02, blocks=4, seed=1)
    assert a == planted_partition_graph(80, p_in=0.5, p_out=0.02,
                                        blocks=4, seed=1)
    assert a != planted_partition_graph(80, p_in=0.5, p_out=0.02,
                                        blocks=4, seed=2)
    assert is_connected(a)
    # the planted structure is visible: within-block edges dominate
    block = lambda v: min(v * 4 // 80, 3)
    within = sum(1 for u, v in a.edges() if block(u) == block(v))
    across = a.m - within
    assert within > 3 * across
    with pytest.raises(ReproError):
        planted_partition_graph(40, p_in=0.1, p_out=0.5)


def test_new_families_via_family_graph():
    from repro.graphs.generators import family_graph

    for family in ("grid", "expander", "planted"):
        g1 = family_graph(family, 48, p=0.25, seed=5)
        g2 = family_graph(family, 48, p=0.25, seed=5)
        assert g1 == g2, family
        assert is_connected(g1), family
        assert abs(g1.n - 48) <= 4, family        # lift rounds to fibers


def test_torus_graph_structure():
    from repro.graphs.generators import family_built_n, torus_graph

    g = torus_graph(49)
    assert g == torus_graph(49)                   # deterministic
    assert is_connected(g)
    assert g.n == family_built_n("torus", 49)
    # exact 4-regularity, no boundary
    assert all(g.degree(v) == 4 for v in range(g.n))
    assert g.m == 2 * g.n
    with pytest.raises(ReproError):
        torus_graph(5)


def test_torus_quantizes_like_family_built_n():
    from repro.graphs.generators import family_built_n, torus_graph

    for n in (9, 20, 49, 100, 137):
        assert torus_graph(n).n == family_built_n("torus", n)


def test_hypercube_graph_structure():
    from repro.graphs.generators import family_built_n, hypercube_graph

    g = hypercube_graph(32)
    assert g == hypercube_graph(32)               # deterministic
    assert is_connected(g)
    assert g.n == 32 == family_built_n("hypercube", 32)
    # d-regular with d = log2 n, diameter d
    assert all(g.degree(v) == 5 for v in range(g.n))
    from repro.graphs.analysis import diameter
    assert diameter(g) == 5
    with pytest.raises(ReproError):
        hypercube_graph(1)


def test_hypercube_rounds_to_power_of_two():
    from repro.graphs.generators import family_built_n, hypercube_graph

    for n, built in ((2, 2), (3, 4), (48, 64), (100, 128)):
        g = hypercube_graph(n)
        assert g.n == built == family_built_n("hypercube", n)


def test_torus_hypercube_via_family_graph():
    from repro.graphs.generators import family_built_n, family_graph

    for family, n in (("torus", 60), ("hypercube", 60)):
        g1 = family_graph(family, n, p=0.25, seed=5)
        g2 = family_graph(family, n, p=0.25, seed=6)
        assert g1 == g2, family                   # seed-independent
        assert is_connected(g1), family
        assert g1.n == family_built_n(family, n), family


# -- generator output is part of the count contract ---------------------------
#
# Every gated message count is a function of the graph, so these digests
# pin the edge sets the benchmarks were recorded on.  They must not move.

#: sha256 of ``repr(edges())`` for ``family_graph("regular", n, 0.25, seed)``
#: on the ``BENCH_engine.json`` grid, keyed ``(n, seed)``.
REGULAR_FAMILY_DIGESTS = {
    (80, 0): "1f71c9624e4051c790728d676c0ca40290caf15ed99851410e496b159884d03e",
    (80, 1): "48e0c4a5d4bfd61d677b6200a0a452fe6c03eed08a9d96b0c82cb236adef0400",
    (80, 2): "94e84f6e3bba034ba7b69555d891e1887206939a3111a23f4ac1c480ee6f62db",
    (140, 0): "6ecbf191be6f0f6a178d3b35bab7ed29b6a7dbad82070886ecf012a063e4cdd3",
    (140, 1): "75cec1dce92dcc3dc91b854a9e9614da256b1140e73d673bf6c1c0884e9acb2f",
    (140, 2): "b03d9a701e2b505ee5413a11fdb4bcb6d928ac3c9a5b3c930102f535ff18bdab",
    (220, 0): "5c79122ee9d08c51e0bffa8f0736c2f27ec196e4629623e87ba0cd7a20a9c7ab",
    (220, 1): "a06d42f8c09d64339f4513f26a91a5b32928938a33347ad2cba52bf0b16c3513",
    (220, 2): "cca448152ec602cada98be30f28f4814e8afe8087b1220846ee26ea0ba6c0958",
    (320, 0): "e72cd5b26bd7377f3516c6922e1d14a0547575170de962bd73d55ba595e85f6e",
    (320, 1): "16d5702a70266e89a07db189de7a0ba4cd4a817d1a077b96544be772d311de7d",
    (320, 2): "dffa0b9e0539d7d9e4325f5a791f3d73db77c6efd395541cc98aa82296142f69",
}
#: The same for ``random_regular_graph(n, d, seed)``, keyed ``(n, d, seed)``:
#: d=4 and d=3 succeed in the configuration model, d=25 (odd) falls
#: back to the circulant with the antipodal matching.
SMALL_REGULAR_DIGESTS = {
    (30, 3, 0): "60f265f73f6b88ff6ef05eb501c855491392945889b1eeac2a7dcf02509c1bde",
    (30, 3, 1): "a7782e9ac5b4d9f1934bbaae7fe59925a42ba6d88fcc9ee3d519392cbfb56f2c",
    (30, 3, 2): "d6cb86f55b3875aa60a59ea065e4640235158fd2c630198a4882aa4374aa7856",
    (40, 4, 0): "e0caa0d39e22cdd1b2bd0406fc432fb06c9a3d94d64da3736c21bcd965855446",
    (40, 4, 1): "d259200d84fe9c4939a7e2b7087461dfeb8aef68dcb0493431e68e0263e2014b",
    (40, 4, 2): "123b82f450a13304766645d46356af2d7aa858bfd282b7e29612e348e7b63bfd",
    (50, 25, 0): "5303909e06481b2dfe018bbe92ae50219f363a0433c50db8e2ebb19cd0a00bf9",
    (50, 25, 1): "c0d60c9445655b2be4dcde5315e9b0a1d3696a90d1646bb3c1044766950691fc",
    (50, 25, 2): "389c63d333a318a6d04899413b57a1bc2f95a04feabf9b4c6a7f0005526fc530",
}


def _edge_digest(g):
    return hashlib.sha256(repr(g.edges()).encode()).hexdigest()


@pytest.mark.parametrize("n,seed", sorted(REGULAR_FAMILY_DIGESTS))
def test_regular_family_edges_pinned(n, seed):
    g = family_graph("regular", n, 0.25, seed)
    assert _edge_digest(g) == REGULAR_FAMILY_DIGESTS[n, seed]


@pytest.mark.parametrize("n,d,seed", sorted(SMALL_REGULAR_DIGESTS))
def test_small_regular_edges_pinned(monkeypatch, n, d, seed):
    from repro.graphs import generators

    fallbacks = []
    circulant = generators._circulant_with_swaps
    monkeypatch.setattr(
        generators, "_circulant_with_swaps",
        lambda *a: fallbacks.append(a) or circulant(*a),
    )
    g = random_regular_graph(n, d, seed)
    assert _edge_digest(g) == SMALL_REGULAR_DIGESTS[n, d, seed]
    assert bool(fallbacks) == (d == 25)      # the path the table names
    assert all(g.degree(v) == d for v in g)


class _CountingRandom(random.Random):
    """A Mersenne Twister that counts the 32-bit words it hands out."""

    words = 0

    def getrandbits(self, k):
        self.words += (k + 31) // 32
        return super().getrandbits(k)


def _stdlib_attempt(n, d, rng):
    """One configuration-model attempt, one stdlib call per draw."""
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs), 2):
        e = (min(stubs[i:i + 2]), max(stubs[i:i + 2]))
        if e[0] == e[1] or e in edges:
            return None
        edges.add(e)
    return edges


@given(st.integers(1, 60), st.integers(0, 59), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stub_pairs_replay_shuffle(n, d, seed):
    """One configuration-model attempt draws what ``rng.shuffle`` draws."""
    from repro.graphs.generators import _shuffled_stub_pairs

    d = min(d, n - 1)
    if n * d % 2:
        d -= 1
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(3):
        expected = _stdlib_attempt(n, d, a)
        got = _shuffled_stub_pairs(b, [v for v in range(n) for _ in range(d)])
        assert got == expected
        assert b.getstate() == a.getstate()


@pytest.mark.parametrize("n,d", [(100, 50), (128, 64), (90, 3)])
def test_stub_pairs_replay_shuffle_across_chunks(n, d):
    """Stub lists longer than a chunk, through both the swap and the skip
    loop (d=50, 64 fail; d=3 usually succeeds)."""
    from repro.graphs.generators import _CHUNK, _shuffled_stub_pairs

    assert n * d > _CHUNK or d == 3
    for seed in range(3):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(4):
            expected = _stdlib_attempt(n, d, a)
            got = _shuffled_stub_pairs(
                b, [v for v in range(n) for _ in range(d)])
            assert got == expected
            assert b.getstate() == a.getstate()


def _randbelow_reference(seed, bound, count):
    rng = _CountingRandom(seed)
    values = [rng.randrange(bound) for _ in range(count)]
    return values, rng.getstate(), rng.words


@given(
    st.one_of(st.integers(1, 2**32 - 1),
              st.sampled_from([1, 2, 3, 4, 2**13, 12800, 2**31, 2**32 - 1])),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_randbelow_stream_matches_randrange(bound, count, seed):
    from repro.graphs.generators import _randbelow_stream

    values, state, _ = _randbelow_reference(seed, bound, count)
    rng = random.Random(seed)
    assert list(_randbelow_stream(rng, bound, count)) == values
    assert rng.getstate() == state


@pytest.mark.parametrize("bound", [3, 2**13, 12800, 2**32 - 1])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_randbelow_stream_chunk_edges(bound, extra):
    """Draws that end exactly one word before, at and after a chunk edge,
    for bounds that are (2**13) and are not powers of two."""
    from repro.graphs.generators import _CHUNK, _randbelow_stream

    target = _CHUNK + extra
    for seed in range(50):
        # the most values whose draws fit in ``target`` words
        rng = _CountingRandom(seed)
        count = 0
        while True:
            rng.randrange(bound)
            if rng.words > target:
                break
            count += 1
        values, state, words = _randbelow_reference(seed, bound, count)
        if words == target:
            break
    assert words == target
    rng = random.Random(seed)
    assert list(_randbelow_stream(rng, bound, count)) == values
    assert rng.getstate() == state
