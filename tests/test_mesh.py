import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interface_facets
from fsisplit.mesh import FLUID, SOLID, ChannelGeometry, build_two_layer_mesh
from fsisplit.spaces import SCALAR_P1, build_space, mesh_edges


def cell_areas(mesh):
    """Signed cell areas: positive for counter-clockwise cells."""
    a, b, c = (mesh.vertices[mesh.cells[:, k]] for k in range(3))
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def test_smallest_mesh_counts():
    mesh = build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), 1, 1, 1)
    assert mesh.cells_of(FLUID).size == 2
    assert mesh.cells_of(SOLID).size == 2
    iface = interface_facets(mesh)
    assert iface.shape[0] == 1
    v0, v1 = iface[0]
    assert np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0]) == pytest.approx(1.0)


def test_total_area_exact():
    mesh = build_two_layer_mesh(ChannelGeometry(2.0, 1.0, 0.5), 4, 2, 1)
    assert cell_areas(mesh).sum() == pytest.approx(3.0, abs=1e-14)


def test_interface_length_sums_to_L():
    geom = ChannelGeometry(3.0, 1.0, 2.0)
    mesh = build_two_layer_mesh(geom, 5, 2, 3)
    # direct summation oracle over the interface facets
    total = sum(np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
                for v0, v1 in interface_facets(mesh))
    assert total == pytest.approx(geom.length, rel=1e-14)


def test_interface_normals_and_count():
    mesh = build_two_layer_mesh(ChannelGeometry(2.0, 0.5, 0.5), 6, 2, 2)
    facets = interface_facets(mesh)
    assert facets.shape[0] == 6
    # a flat interface at y = H_f: unit normal (0, 1) out of the fluid below
    ends = mesh.vertices[facets]
    assert np.all(ends[..., 1] == 0.5)
    tangent = ends[:, 1] - ends[:, 0]
    assert np.allclose(np.abs(tangent[:, 0]), 2.0 / 6) and np.all(tangent[:, 1] == 0.0)
    # both spaces list the facets left to right, each from left to right
    for domain in (FLUID, SOLID):
        space = build_space(mesh, domain, SCALAR_P1, edges=mesh_edges(mesh))
        xs = space.node_coords[space.interface_facets, 0]
        assert np.all(xs[:, 0] < xs[:, 1]) and np.all(np.diff(xs[:, 0]) > 0)


def test_interface_matches_bitwise():
    mesh = build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), 4, 3, 2)
    iface_verts = np.unique(interface_facets(mesh))
    fluid_verts = np.unique(mesh.cells[mesh.cells_of(FLUID)])
    solid_verts = np.unique(mesh.cells[mesh.cells_of(SOLID)])
    from_fluid = np.intersect1d(iface_verts, fluid_verts)
    from_solid = np.intersect1d(iface_verts, solid_verts)
    assert np.array_equal(from_fluid, from_solid)
    # same vertex ids means bitwise equal coordinates by construction
    assert np.array_equal(mesh.vertices[from_fluid], mesh.vertices[from_solid])


@settings(max_examples=30, deadline=None)
@given(L=st.floats(0.1, 10.0), hf=st.floats(0.1, 5.0), hs=st.floats(0.1, 5.0),
       nx=st.integers(1, 6), nyf=st.integers(1, 4), nys=st.integers(1, 4))
def test_mesh_properties_hold_for_any_geometry(L, hf, hs, nx, nyf, nys):
    geom = ChannelGeometry(L, hf, hs)
    mesh = build_two_layer_mesh(geom, nx, nyf, nys)
    areas = cell_areas(mesh)
    h2 = (L / nx) * (min(hf / nyf, hs / nys))
    assert np.all(areas > 1e-14 * h2)  # positive orientation, no slivers
    assert areas.sum() == pytest.approx(L * (hf + hs), rel=1e-12)
    assert interface_facets(mesh).shape[0] == nx
    total = sum(np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
                for v0, v1 in interface_facets(mesh))
    assert total == pytest.approx(L, rel=1e-12)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        ChannelGeometry(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChannelGeometry(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), 0, 1, 1)

