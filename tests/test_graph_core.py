"""Unit tests for the Graph substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.graphs.core import Graph


def test_empty_graph():
    g = Graph(0, [])
    assert g.n == 0
    assert g.m == 0
    assert list(g.vertices()) == []


def test_single_vertex():
    g = Graph(1, [])
    assert g.degree(0) == 0
    assert g.neighbors(0) == ()


def test_basic_edges(path4):
    assert path4.m == 3
    assert path4.neighbors(1) == (0, 2)
    assert path4.degree(0) == 1
    assert path4.degree(1) == 2


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_self_loop_rejected():
    with pytest.raises(ReproError):
        Graph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(ReproError):
        Graph(3, [(0, 3)])


def test_negative_n_rejected():
    with pytest.raises(ReproError):
        Graph(-1, [])


def test_has_edge(path4):
    assert path4.has_edge(0, 1)
    assert path4.has_edge(1, 0)
    assert not path4.has_edge(0, 2)
    assert (1, 2) in path4
    assert (0, 3) not in path4


def test_edges_canonical_sorted(triangle):
    assert triangle.edges() == ((0, 1), (0, 2), (1, 2))


def test_max_degree(star6):
    assert star6.max_degree() == 5


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    c = Graph(3, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_subgraph_relabels(path4):
    sub = path4.subgraph([1, 2, 3])
    assert sub.n == 3
    assert sub.edges() == ((0, 1), (1, 2))


def test_subgraph_with_mapping(path4):
    sub, mapping = path4.subgraph_with_mapping([0, 2, 3])
    assert mapping == {0: 0, 2: 1, 3: 2}
    assert sub.edges() == ((1, 2),)


def test_induced_edge_count(k5):
    assert k5.induced_edge_count([0, 1, 2]) == 3
    assert k5.induced_edge_count([0]) == 0
    assert k5.induced_edge_count(range(5)) == 10


def test_union_disjoint(triangle, path4):
    u = triangle.union_disjoint(path4)
    assert u.n == 7
    assert u.m == triangle.m + path4.m
    assert u.has_edge(3, 4)
    assert not u.has_edge(2, 3)


def test_with_edges_add_remove(path4):
    g = path4.with_edges(added=[(0, 3)], removed=[(1, 2)])
    assert g.has_edge(0, 3)
    assert not g.has_edge(1, 2)
    assert g.m == 3


def test_with_edges_remove_absent_raises(path4):
    with pytest.raises(ReproError):
        path4.with_edges(removed=[(0, 2)])


def test_to_networkx_roundtrip(gnp_small):
    nxg = gnp_small.to_networkx()
    assert nxg.number_of_nodes() == gnp_small.n
    assert nxg.number_of_edges() == gnp_small.m


@given(st.integers(2, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_degree_sum_equals_twice_edges(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    ))
    edges = [(u, v) for u, v in pairs if u != v]
    g = Graph(n, edges)
    assert sum(g.degree(v) for v in range(n)) == 2 * g.m


@given(st.integers(2, 20), st.data())
@settings(max_examples=30, deadline=None)
def test_neighbors_symmetric(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n,
    ))
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    for u in range(n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


@given(st.integers(1, 25), st.data())
@settings(max_examples=40, deadline=None)
def test_adjacency_is_sorted_neighbor_sets(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    ))
    edges = [(u, v) for u, v in pairs if u != v]
    g = Graph(n, edges)
    for v in range(n):
        expected = {b for a, b in edges if a == v} | {a for a, b in edges
                                                       if b == v}
        assert g.neighbors(v) == tuple(sorted(expected))
    assert g.edges() == tuple(sorted({(min(e), max(e)) for e in edges}))
