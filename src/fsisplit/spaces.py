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

from .mesh import Mesh

VECTOR_P2 = "vector_p2"
SCALAR_P1 = "scalar_p1"

_KINDS = {VECTOR_P2: (2, 2), SCALAR_P1: (1, 1)}


def mesh_edges(mesh: Mesh):
    """Global edge numbering, in order of first appearance over the cells'
    local edges (0,1), (1,2), (2,0).

    Returns the (n_edges, 2) sorted vertex pairs by edge id and the
    (n_cells, 3) edge id of each local edge.
    """
    pairs = np.sort(np.stack([mesh.cells, np.roll(mesh.cells, -1, axis=1)], axis=2), axis=2)
    _, first, inverse = np.unique(pairs[..., 0] * len(mesh.vertices) + pairs[..., 1],
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
    dirichlet_nodes: np.ndarray      # sorted node ids of the clamped
                                     # outer boundary
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


def build_space(mesh: Mesh, domain: int, kind: str) -> Space:
    if kind not in _KINDS:
        raise ValueError(f"unknown space kind: {kind}")
    degree, ncomp = _KINDS[kind]

    sub = mesh.cells_of(domain)
    cells = mesh.cells[sub]
    vids = np.unique(cells)
    node_coords = mesh.vertices[vids]
    cell_nodes = np.searchsorted(vids, cells)
    # the subdomain's edges in ascending global edge id, i.e. order of first
    # appearance, with their nodes: two vertices and, for P2, the midpoint
    edges, cell_edges = mesh_edges(mesh)
    used, slot = np.unique(cell_edges[sub], return_inverse=True)
    slot = slot.reshape(cells.shape)
    edge_nodes = np.searchsorted(vids, edges[used])
    if degree == 2:
        edge_nodes = np.column_stack([edge_nodes, vids.size + np.arange(used.size)])
        node_coords = np.vstack([node_coords, 0.5 * (mesh.vertices[edges[used, 0]]
                                                     + mesh.vertices[edges[used, 1]])])
        # local node order: v0 v1 v2 m12 m20 m01 (midpoint opposite each vertex)
        cell_nodes = np.hstack([cell_nodes, vids.size + slot[:, [1, 2, 0]]])

    # an edge of one subdomain cell is on the subdomain's boundary: on the
    # interface if a cell of the other subdomain holds it too, else clamped
    boundary = np.bincount(slot.ravel()) == 1
    shared = np.bincount(cell_edges.ravel())[used] == 2
    dir_nodes = np.unique(edge_nodes[boundary & ~shared])
    facets = edge_nodes[boundary & shared]
    iface = np.setdiff1d(facets, dir_nodes)
    iface = iface[np.argsort(node_coords[iface, 0], kind="stable")]

    flip = node_coords[facets[:, 1], 0] < node_coords[facets[:, 0], 0]
    facets[flip, :2] = facets[flip, 1::-1]
    facets = facets[np.argsort(node_coords[facets[:, 0], 0], kind="stable")]

    return Space(mesh=mesh, domain=domain, degree=degree, ncomp=ncomp,
                 node_coords=node_coords, cell_nodes=cell_nodes, cells=sub,
                 dirichlet_nodes=dir_nodes, interface_nodes=iface,
                 interface_facets=facets)
