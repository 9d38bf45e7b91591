import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaperc import expansion as X
from dynaperc.errors import CapabilityError, InputError
from dynaperc.torus import TorusGraph, edge_boundary, iso_profile

from helpers import (coords, edge_endpoints, edge_id, rebuild_iso_profile, shift,
                     vertex_index)


def test_counts():
    g = TorusGraph(d=2, n=4)
    assert g.n_vertices == 16
    assert g.n_edges == 32
    g1 = TorusGraph(d=1, n=5)
    assert g1.n_edges == 5


def test_invalid_params():
    with pytest.raises(InputError):
        TorusGraph(d=0, n=4)
    with pytest.raises(InputError):
        TorusGraph(d=1, n=2)
    with pytest.raises(InputError):  # built a graph of 4.5 vertices
        TorusGraph(d=1, n=4.5)
    with pytest.raises(InputError):  # a TypeError at the first neighbour lookup
        TorusGraph(d=2.0, n=4)


def test_vertex_coords_roundtrip():
    g = TorusGraph(d=3, n=3)
    for v in range(g.n_vertices):
        assert vertex_index(g, coords(g, v)) == v


def test_shift_wraps():
    g = TorusGraph(d=2, n=4)
    v = vertex_index(g, (3, 0))
    assert coords(g, shift(g, v, 0, +1)) == (0, 0)
    assert coords(g, shift(g, v, 1, -1)) == (3, 3)


def test_edge_endpoints_consistent():
    g = TorusGraph(d=2, n=4)
    for e in range(g.n_edges):
        u, v = edge_endpoints(g, e)
        assert edge_id(g, u, e % g.d) == e
        assert v == shift(g, u, e % g.d, +1)


def test_neighbors_symmetric():
    # u is v's neighbour across edge e in direction k iff v is u's across e in
    # the opposite direction k ^ 1
    g = TorusGraph(d=2, n=4)
    nbr, inc = g.neighbor_vertices, g.incident_edges
    assert nbr.shape == inc.shape == (g.n_vertices, 2 * g.d)
    for v in range(g.n_vertices):
        for k in range(2 * g.d):
            u, e = nbr[v, k], inc[v, k]
            assert nbr[u, k ^ 1] == v and inc[u, k ^ 1] == e


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_geometry_tables_match_scalar_helpers(d, n):
    g = TorusGraph(d=d, n=n)
    for e in range(g.n_edges):
        assert tuple(g.edge_uv[e]) == edge_endpoints(g, e)
    for v in range(g.n_vertices):
        for axis in range(d):
            up, down = shift(g, v, axis, +1), shift(g, v, axis, -1)
            assert g.neighbor_vertices[v, 2 * axis] == up
            assert g.neighbor_vertices[v, 2 * axis + 1] == down
            assert g.incident_edges[v, 2 * axis] == edge_id(g, v, axis)
            assert g.incident_edges[v, 2 * axis + 1] == edge_id(g, down, axis)
    for table in (g.edge_uv, g.incident_edges, g.neighbor_vertices):
        assert table.dtype == np.int64 and not table.flags.writeable


@given(d=st.integers(1, 2), n=st.integers(3, 5))
@settings(max_examples=20, deadline=None)
def test_degree_regular(d, n):
    g = TorusGraph(d=d, n=n)
    counts = np.zeros(g.n_vertices, dtype=int)
    for e in range(g.n_edges):
        u, v = edge_endpoints(g, e)
        counts[u] += 1
        counts[v] += 1
    assert (counts == 2 * d).all()


def test_edge_boundary_self_dual():
    g = TorusGraph(d=2, n=4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.random(g.n_vertices) < 0.5
        b1 = edge_boundary(g, s)
        b2 = edge_boundary(g, ~s)
        assert np.array_equal(b1, b2)


def test_edge_boundary_interval():
    # contiguous arc of a cycle has exactly two boundary edges
    g = TorusGraph(d=1, n=8)
    s = np.isin(np.arange(8), [2, 3, 4])
    assert len(edge_boundary(g, s)) == 2


def test_iso_profile_cycle():
    # on a cycle the minimizer is any half arc: |boundary| = 2, exponent 0
    g = TorusGraph(d=1, n=6)
    r = iso_profile(g)
    assert r.value == 2.0
    assert r.minimizer.dtype == bool and r.minimizer.shape == (6,)
    assert len(edge_boundary(g, r.minimizer)) == 2


def test_iso_profile_square_torus():
    # a full row of Z_4^2 has 8 boundary edges and |S|^(1/2) = 2
    g = TorusGraph(d=2, n=4)
    r = iso_profile(g)
    row = np.isin(np.arange(16), [vertex_index(g, (0, j)) for j in range(4)])
    row_ratio = len(edge_boundary(g, row)) / row.sum() ** 0.5
    assert r.value <= row_ratio + 1e-12
    assert r.value > 0


ISO_CASES = [(1, n) for n in range(3, 17)] + [(2, 3), (2, 4)]


@pytest.mark.parametrize("chunk_bits", [None, 2])
@pytest.mark.parametrize("d, n", ISO_CASES)
def test_iso_profile_matches_bool_table_reference(d, n, chunk_bits, monkeypatch):
    if chunk_bits is not None:
        monkeypatch.setattr(X, "SUBSET_CHUNK_BITS", chunk_bits)
    g = TorusGraph(d=d, n=n)
    r = iso_profile(g)
    value, minimizer = rebuild_iso_profile(g)
    assert r.value == value
    assert r.minimizer.dtype == bool and np.array_equal(r.minimizer, minimizer)


def test_iso_profile_cap():
    with pytest.raises(CapabilityError):
        iso_profile(TorusGraph(d=2, n=5))


@pytest.mark.parametrize("S", [np.array([1, 0, 1, 0, 0, 0, 0, 0]),  # int 0/1 vector
                               [0, 2],                              # index list
                               np.zeros(7, dtype=bool)])            # wrong length
def test_edge_boundary_rejects_malformed_sets(S):
    with pytest.raises(InputError):
        edge_boundary(TorusGraph(d=1, n=8), S)
