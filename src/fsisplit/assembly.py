"""Bilinear form assembly, boundary conditions and the sparse direct solve.

Quadrature: 6-point degree-4 rule on triangles, 3-point Gauss on interface
edges — exact for every product of P2 basis functions appearing here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .spaces import Space

__all__ = [
    "assemble_vector_mass", "assemble_symgrad", "assemble_divdiv",
    "assemble_elasticity", "assemble_divergence", "assemble_interface_mass",
    "apply_dirichlet", "SingularSystemError",
]

# Dunavant degree-4 rule, weights scaled to reference-triangle area 1/2.
_A1, _A2 = 0.445948490915965, 0.091576213509771
_W1, _W2 = 0.223381589678011 / 2.0, 0.109951743655322 / 2.0
TRI_POINTS = np.array([
    [_A1, _A1], [1.0 - 2.0 * _A1, _A1], [_A1, 1.0 - 2.0 * _A1],
    [_A2, _A2], [1.0 - 2.0 * _A2, _A2], [_A2, 1.0 - 2.0 * _A2],
])
TRI_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

# 3-point Gauss on [0, 1].
_G = np.sqrt(3.0 / 5.0)
EDGE_POINTS = 0.5 * (1.0 + np.array([-_G, 0.0, _G]))
EDGE_WEIGHTS = 0.5 * np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def p1_basis(x, y):
    """P1 values (..., 3) and reference gradients (..., 3, 2) at points x, y
    of any (common) shape."""
    n = np.stack(np.broadcast_arrays(1.0 - x - y, x, y), axis=-1)
    dn = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return n, np.broadcast_to(dn, n.shape + (2,))


def p2_basis(x, y):
    """P2 values (..., 6) and reference gradients (..., 6, 2) at points x, y
    of any (common) shape; node order v0 v1 v2 m12 m20 m01."""
    l0, l1, l2 = 1.0 - x - y, x, y
    n = np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                  4 * l1 * l2, 4 * l0 * l2, 4 * l0 * l1], axis=-1)
    d0 = np.array([-1.0, -1.0])
    d1 = np.array([1.0, 0.0])
    d2 = np.array([0.0, 1.0])
    l0, l1, l2 = (np.asarray(lk)[..., None] for lk in (l0, l1, l2))
    dn = np.stack([
        (4 * l0 - 1) * d0, (4 * l1 - 1) * d1, (4 * l2 - 1) * d2,
        4 * (l2 * d1 + l1 * d2), 4 * (l2 * d0 + l0 * d2), 4 * (l1 * d0 + l0 * d1),
    ], axis=-2)
    return n, dn


def edge_basis(degree, s):
    """1D P1/P2 values (..., 2 or 3) on [0,1]; node order: endpoint0,
    endpoint1[, midpoint]."""
    if degree == 1:
        return np.stack([1 - s, s], axis=-1)
    return np.stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)], axis=-1)


def _geometry(mesh: Mesh, cells: np.ndarray):
    """Jacobian determinants (c,) and inverse Jacobians (c, 2, 2), C-ordered,
    of the affine maps of the given mesh cells."""
    v = mesh.vertices[mesh.cells[cells]]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]  # the Jacobian's columns
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    adj = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=1)
    return det, adj.reshape(-1, 2, 2) / det[:, None, None]


def _tabulate(space: Space):
    """Basis values (nq, nl) and reference gradients (nq, nl, 2) at the
    triangle quadrature points."""
    basis = p1_basis if space.degree == 1 else p2_basis
    return basis(TRI_POINTS[:, 0], TRI_POINTS[:, 1])


def _quadrature(space: Space):
    """Basis values (nq, nl), physical gradients (c, nq, nl, 2) and weights
    (c, nq) on every cell of the space."""
    vals, grads = _tabulate(space)
    det, inv = _geometry(space.mesh, space.cells)
    # A batched matmul runs the BLAS product a per-cell `grads @ inv` ran, so
    # the gradients keep their bits; einsum rounds these 2-term sums differently.
    return vals, grads @ inv[:, None], np.abs(det)[:, None] * TRI_WEIGHTS


def _scatter(shape, row_dofs, col_dofs, blocks):
    """Sum (c, i, j) local blocks into a CSR matrix at rows row_dofs[c, i]
    and columns col_dofs[c, j]; entries go in cell-major order.  Exact zeros
    (the x-y couplings of the mass forms) are not stored, so that no matvec
    multiplies them."""
    rows = np.broadcast_to(row_dofs[:, :, None], blocks.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], blocks.shape)
    mat = sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                        shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _on_diagonal(m, ncomp):
    """(c, nl, nl) scalar blocks -> (c, ncomp, ncomp, nl, nl) component blocks
    acting on each component alone."""
    out = np.zeros((m.shape[0], ncomp, ncomp) + m.shape[1:])
    for c in range(ncomp):
        out[:, c, c] = m
    return out


def _interleave(blocks):
    """(c, ncomp, ncomp, nl, nl) component blocks -> (c, ncomp*nl, ncomp*nl)
    with vector dofs interleaved like Space.expand."""
    c, n, _, nl, _ = blocks.shape
    return blocks.transpose(0, 3, 1, 4, 2).reshape(c, n * nl, n * nl)


def _assemble_cellwise(space: Space, local_blocks):
    """Generic symmetric assembly over all cells; local_blocks(gphys, vals, w)
    returns the (c, ncomp, ncomp, nl, nl) component blocks of every cell."""
    vals, gphys, w = _quadrature(space)
    blocks = _interleave(local_blocks(gphys, vals, w))
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))  # all forms here are symmetric; make it exact
    dofs = space.expand(space.cell_nodes)
    return _scatter((space.ndof, space.ndof), dofs, dofs, blocks)


def assemble_vector_mass(space: Space, density: float) -> sp.csr_matrix:
    """density * integral of phi_i . phi_j over the space's subdomain."""
    if density <= 0:
        raise ValueError("density must be positive")
    if space.ncomp != 2:
        raise ValueError("vector mass requires a vector-valued space")

    def blocks(gphys, vals, w):
        return density * _on_diagonal(np.einsum("cq,qi,qj->cij", w, vals, vals), 2)

    return _assemble_cellwise(space, blocks)


def _gradient_pairs(gphys, w):
    """(c, 2, 2, nl, nl) blocks of the integrals of d_a phi_i d_b phi_j: the
    one contraction every strain form is built from."""
    return np.einsum("cq,cqia,cqjb->cabij", w, gphys, gphys)


def _symgrad_blocks(pairs):
    """Component blocks of 2 eps(u):eps(v) from the gradient pairs: their
    (a, b)-transpose plus the Laplacian on the diagonal."""
    out = pairs.transpose(0, 2, 1, 3, 4).copy()
    lap = pairs[:, 0, 0] + pairs[:, 1, 1]
    out[:, 0, 0] += lap
    out[:, 1, 1] += lap
    return out


def assemble_symgrad(space: Space, coeff: float) -> sp.csr_matrix:
    """coeff * integral of 2 eps(u):eps(v); with coeff = mu this is the
    viscous stiffness 2 mu (eps(u), eps(v))."""
    if space.ncomp != 2:
        raise ValueError("symmetric-gradient form requires a vector space")
    if coeff <= 0:
        raise ValueError("coefficient must be positive")

    def blocks(gphys, vals, w):
        return coeff * _symgrad_blocks(_gradient_pairs(gphys, w))

    return _assemble_cellwise(space, blocks)


def assemble_divdiv(space: Space, coeff: float) -> sp.csr_matrix:
    """coeff * integral of div(u) div(v)."""
    if space.ncomp != 2:
        raise ValueError("div-div form requires a vector space")

    def blocks(gphys, vals, w):
        return coeff * _gradient_pairs(gphys, w)

    return _assemble_cellwise(space, blocks)


def assemble_elasticity(space: Space, l1: float, l2: float) -> sp.csr_matrix:
    """2 L1 (eps(w), eps(v)) + L2 (div w, div v); induces the solid energy
    norm used throughout the diagnostics."""
    if space.ncomp != 2:
        raise ValueError("elasticity form requires a vector space")
    if l1 <= 0:
        raise ValueError("l1 must be positive")
    if l2 < 0:
        raise ValueError("l2 must be non-negative")

    def blocks(gphys, vals, w):
        pairs = _gradient_pairs(gphys, w)
        return l1 * _symgrad_blocks(pairs) + l2 * pairs

    return _assemble_cellwise(space, blocks)


def assemble_divergence(vel: Space, pres: Space) -> sp.csr_matrix:
    """Rectangular B with B[q, v] = integral of q div(v)."""
    if vel.ncomp != 2 or pres.ncomp != 1:
        raise ValueError("expected a vector velocity and scalar pressure space")
    if vel.domain != pres.domain or not np.array_equal(vel.cells, pres.cells):
        raise ValueError("velocity and pressure spaces live on different subdomains")
    _, gphys, w = _quadrature(vel)
    pvals, _ = _tabulate(pres)
    blocks = np.einsum("cq,qi,cqjb->cijb", w, pvals, gphys)
    blocks = blocks.reshape(blocks.shape[:2] + (-1,))
    return _scatter((pres.ndof, vel.ndof), pres.cell_nodes,
                    vel.expand(vel.cell_nodes), blocks)


def assemble_interface_mass(space: Space) -> sp.csr_matrix:
    """Interface mass: integral over the interface of phi_i . phi_j."""
    facets = space.interface_facets
    if facets.size == 0:
        raise ValueError("space has no interface facets")
    ends = space.node_coords[facets[:, :2]]
    length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    m = np.zeros((facets.shape[0],) + 2 * facets.shape[1:])
    for vals, w in zip(edge_basis(space.degree, EDGE_POINTS), EDGE_WEIGHTS):
        m += (w * length)[:, None, None] * np.outer(vals, vals)
    dofs = space.expand(facets)
    return _scatter((space.ndof, space.ndof), dofs, dofs,
                    _interleave(_on_diagonal(m, space.ncomp)))


def apply_dirichlet(A: sp.spmatrix, b: np.ndarray, dofs, values=None):
    """Symmetric elimination of the given dofs.

    Rows and columns are zeroed and replaced by the identity; for homogeneous
    conditions (the default) the RHS entries are simply zeroed, otherwise the
    lifting of the prescribed values is subtracted from the RHS first.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    A = A.tocsr()
    b = np.array(b, dtype=float)
    if dofs.size == 0:
        return A, b
    n = A.shape[0]
    keep = np.ones(n)
    keep[dofs] = 0.0
    lift = np.zeros(n)
    if values is not None:
        lift[dofs] = values
        b = b - A @ lift
    D = sp.diags(keep)
    fixed = np.zeros(n)
    fixed[dofs] = 1.0
    A2 = (D @ A @ D + sp.diags(fixed)).tocsr()
    A2.sort_indices()
    b2 = keep * b + lift
    return A2, b2


class SingularSystemError(RuntimeError):
    """A singular pivot, or a first solve that fails its backward-error check."""


class Factorization:
    """LU factorization ordered to the matrix; safe for repeated solves.

    The column ordering follows from symmetry alone: minimum degree on
    A + A^T for an exactly symmetric matrix (the solid operators and the
    divergence-free projection), COLAMD otherwise (the fluid saddle points
    and the monolithic matrix).
    Threshold pivoting keeps more of that ordering than partial pivoting
    does; the normwise backward error of the first solve with b != 0 is
    checked to make it safe.
    """

    def __init__(self, A: sp.spmatrix):
        A = A.tocsc()
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        order = "MMD_AT_PLUS_A" if abs(A - A.T).max() == 0 else "COLAMD"
        try:
            self._lu = spla.splu(A, permc_spec=order, diag_pivot_thresh=0.01)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
        self._unchecked = A  # dropped once the first solve is checked

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        if self._unchecked is not None and b.any():
            A, self._unchecked = self._unchecked, None
            scale = abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
            eta = np.abs(b - A @ x).max() / scale
            if not eta <= 1e-10:
                raise SingularSystemError(f"solve backward error {eta:.3e} > 1e-10")
        return x

