"""Finite element spaces on one subdomain of a two-layer mesh.

Supported elements: vector Lagrange P2 and scalar Lagrange P1 on triangles.
Nodes are numbered vertices-first in ascending vertex id, then edge midpoints
(P2 only) in the order each edge first appears over the mesh cells, which
makes the numbering deterministic and the interface node ordering identical
for the fluid and solid spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import FLUID, INTERFACE, SIGMA_F, SIGMA_S, Mesh

VECTOR_P2 = "vector_p2"
SCALAR_P1 = "scalar_p1"

_KINDS = {VECTOR_P2: (2, 2), SCALAR_P1: (1, 1)}


def _local_edges(cells: np.ndarray) -> np.ndarray:
    """(n_cells, 3, 2) sorted vertex pairs of the local edges (0,1), (1,2), (2,0)."""
    pairs = np.stack([cells, np.roll(cells, -1, axis=1)], axis=2)
    return np.sort(pairs, axis=2)


def _edge_keys(pairs: np.ndarray, num_vertices: int) -> np.ndarray:
    """One integer per sorted vertex pair, ordered like the pairs."""
    return pairs[..., 0] * num_vertices + pairs[..., 1]


def mesh_edges(mesh: Mesh):
    """Global edge numbering, in order of first appearance over the cells'
    local edges (0,1), (1,2), (2,0).

    Returns the (n_edges, 2) sorted vertex pairs by edge id and the
    (n_cells, 3) edge id of each local edge.
    """
    pairs = _local_edges(mesh.cells)
    keys, first, inverse = np.unique(_edge_keys(pairs, mesh.num_vertices),
                                     return_index=True, return_inverse=True)
    by_id = np.argsort(first)
    edge_id = np.empty_like(by_id)
    edge_id[by_id] = np.arange(by_id.size)
    return (pairs.reshape(-1, 2)[first[by_id]],
            edge_id[inverse].reshape(mesh.cells.shape))


@dataclass
class Space:
    """Scalar-node based FE space; vector dofs interleave components.

    node of index k carries dofs ncomp*k + c for component c.
    """

    mesh: Mesh
    domain: int
    degree: int
    ncomp: int
    node_coords: np.ndarray          # (n_nodes, 2)
    cell_nodes: np.ndarray           # (n_subcells, 3 or 6) global node ids
    cells: np.ndarray                # mesh cell ids of this subdomain
    dirichlet_nodes: np.ndarray      # sorted SIGMA_F (fluid) or SIGMA_S
                                     # (solid) node ids
    interface_nodes: np.ndarray      # canonical order (by x), corners excluded
    interface_facets: np.ndarray     # (n_if, 2 or 3) endpoint0, endpoint1
                                     # [, midpoint] nodes, left to right

    @property
    def num_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def ndof(self) -> int:
        return self.ncomp * self.num_nodes

    def expand(self, nodes) -> np.ndarray:
        """Vector dofs of the given scalar nodes, components interleaved;
        nodes of shape (..., k) give dofs of shape (..., ncomp * k)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        dofs = self.ncomp * nodes[..., None] + np.arange(self.ncomp)
        return dofs.reshape(nodes.shape[:-1] + (-1,))

    @property
    def dof_coords(self) -> np.ndarray:
        """(ndof, 2) coordinates of each dof's node."""
        return np.repeat(self.node_coords, self.ncomp, axis=0)

    @property
    def interface_dofs(self) -> np.ndarray:
        return self.expand(self.interface_nodes)

    @property
    def dirichlet_dofs(self) -> np.ndarray:
        return self.expand(self.dirichlet_nodes)


def build_space(mesh: Mesh, domain: int, kind: str) -> Space:
    if kind not in _KINDS:
        raise ValueError(f"unknown space kind: {kind}")
    degree, ncomp = _KINDS[kind]

    sub = mesh.cells_of(domain)
    cells = mesh.cells[sub]
    vids = np.unique(cells)
    node_coords = mesh.vertices[vids]
    cell_nodes = np.searchsorted(vids, cells)
    # the subdomain's edges as sorted keys and, per key, the nodes an edge
    # holds besides its two vertices: its midpoint for P2, none for P1
    keys, inverse = np.unique(_edge_keys(_local_edges(cells), mesh.num_vertices),
                              return_inverse=True)
    key_nodes = np.empty((keys.size, 0), dtype=np.int64)
    if degree == 2:
        # midpoints in ascending global edge id, i.e. order of first appearance
        edges, cell_edges = mesh_edges(mesh)
        used, slot = np.unique(cell_edges[sub], return_inverse=True)
        mid = vids.size + slot.reshape(cells.shape)
        key_nodes = np.empty((keys.size, 1), dtype=np.int64)
        key_nodes[inverse.ravel(), 0] = mid.ravel()
        node_coords = np.vstack([node_coords, 0.5 * (mesh.vertices[edges[used, 0]]
                                                     + mesh.vertices[edges[used, 1]])])
        # local node order: v0 v1 v2 m12 m20 m01 (midpoint opposite each vertex)
        cell_nodes = np.hstack([cell_nodes, mid[:, [1, 2, 0]]])

    # tagged facets that are edges of this subdomain, with their nodes
    fkeys = _edge_keys(np.sort(mesh.facets, axis=1), mesh.num_vertices)
    pos = np.minimum(np.searchsorted(keys, fkeys), keys.size - 1)
    inside = keys[pos] == fkeys
    fnodes = np.hstack([np.searchsorted(vids, mesh.facets), key_nodes[pos]])
    tags = np.asarray(mesh.facet_tags)
    dir_tag = SIGMA_F if domain == FLUID else SIGMA_S
    dir_nodes = np.unique(fnodes[inside & (tags == dir_tag)])
    facets = fnodes[inside & (tags == INTERFACE)]
    iface = np.unique(facets)
    iface = iface[~np.isin(iface, dir_nodes)]
    iface = iface[np.argsort(node_coords[iface, 0], kind="stable")]

    flip = node_coords[facets[:, 1], 0] < node_coords[facets[:, 0], 0]
    facets[flip, :2] = facets[flip, 1::-1]
    facets = facets[np.argsort(node_coords[facets[:, 0], 0], kind="stable")]

    return Space(mesh=mesh, domain=domain, degree=degree, ncomp=ncomp,
                 node_coords=node_coords, cell_nodes=cell_nodes, cells=sub,
                 dirichlet_nodes=dir_nodes, interface_nodes=iface,
                 interface_facets=facets)
