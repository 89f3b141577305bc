"""Bilinear form assembly, boundary conditions and the sparse direct solve.

Quadrature: 6-point degree-4 rule on triangles, 3-point Gauss on interface
edges — exact for every product of P2 basis functions appearing here.  The
triangle rule runs once, at import, on the reference cell.
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
    "stack_saddle", "apply_dirichlet", "SingularSystemError",
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


def _tables(basis):
    """Basis values (nq, nl) and reference gradients (nq, 2 nl), the latter
    as [q, (A, i)] for d_A phi_i, at the triangle quadrature points."""
    vals, grads = basis(TRI_POINTS[:, 0], TRI_POINTS[:, 1])
    return vals, grads.transpose(0, 2, 1).reshape(len(vals), -1)


def _integrate(a, b):
    """Reference-cell integrals (m, n) of a[:, k] b[:, l], from tables (nq, m)
    and (nq, n) at the triangle quadrature points."""
    # A BLAS product, not einsum: einsum sums two mirror-image entries of
    # DIV_REF to equal bits, which then cancel exactly on right-angled cells;
    # the divergence matrix loses those round-off entries, and the
    # projection's minimum-degree fill grows by 15% at n = 16.
    return (TRI_WEIGHTS[:, None] * a).T @ b


# Tensor representation of the forms on affine cells (Kirby & Logg, ACM TOMS
# 2006): each cell matrix is the cell's geometry contracted with a constant
# reference-cell integral, so no form runs quadrature per cell.  The rule is
# exact for these products, so the tables hold the exact integrals, up to
# rounding.  Keyed by degree.
_TABLES = {1: _tables(p1_basis), 2: _tables(p2_basis)}
# [i, j]: integral of phi_i phi_j
MASS_REF = {deg: _integrate(v, v) for deg, (v, _) in _TABLES.items()}
# [(A, B), (i, j)]: integral of d_A phi_i d_B phi_j
GRAD_REF = {deg: _integrate(g, g).reshape(2, v.shape[1], 2, -1)
            .transpose(0, 2, 1, 3).reshape(4, -1)
            for deg, (v, g) in _TABLES.items()}
# [(deg_q, deg_v)][A, (i, j)]: integral of psi_i d_A phi_j
DIV_REF = {(dq, dv): _integrate(vq, gv).reshape(vq.shape[1], 2, -1)
           .transpose(1, 0, 2).reshape(2, -1)
           for dq, (vq, _) in _TABLES.items() for dv, (_, gv) in _TABLES.items()}


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


def _assemble_cellwise(space: Space, blocks):
    """Symmetric assembly of (c, ncomp, ncomp, nl, nl) component blocks, one
    per cell of the space."""
    blocks = _interleave(blocks)
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))  # all forms here are symmetric; make it exact
    dofs = space.expand(space.cell_nodes)
    return _scatter((space.ndof, space.ndof), dofs, dofs, blocks)


def assemble_vector_mass(space: Space, density: float) -> sp.csr_matrix:
    """density * integral of phi_i . phi_j over the space's subdomain."""
    if density <= 0:
        raise ValueError("density must be positive")
    if space.ncomp != 2:
        raise ValueError("vector mass requires a vector-valued space")
    det, _ = _geometry(space.mesh, space.cells)
    mass = np.abs(det)[:, None, None] * MASS_REF[space.degree]
    return _assemble_cellwise(space, density * _on_diagonal(mass, 2))


def _gradient_pairs(space: Space):
    """(c, 2, 2, nl, nl) blocks of the integrals of d_a phi_i d_b phi_j, the
    one contraction every strain form is built from: |det J| (J^-1 x J^-1)
    : GRAD_REF as one (c, 4, 4) @ (4, nl^2) product."""
    det, inv = _geometry(space.mesh, space.cells)
    inv_t = inv.transpose(0, 2, 1)  # [c, a, A] = d xi_A / d x_a
    geo = (np.abs(det)[:, None, None, None, None]
           * inv_t[:, :, None, :, None] * inv_t[:, None, :, None, :])
    nl = space.cell_nodes.shape[1]
    return (geo.reshape(-1, 4, 4) @ GRAD_REF[space.degree]).reshape(-1, 2, 2, nl, nl)


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
    return _assemble_cellwise(space, coeff * _symgrad_blocks(_gradient_pairs(space)))


def assemble_divdiv(space: Space, coeff: float) -> sp.csr_matrix:
    """coeff * integral of div(u) div(v)."""
    if space.ncomp != 2:
        raise ValueError("div-div form requires a vector space")
    return _assemble_cellwise(space, coeff * _gradient_pairs(space))


def assemble_elasticity(space: Space, l1: float, l2: float) -> sp.csr_matrix:
    """2 L1 (eps(w), eps(v)) + L2 (div w, div v); induces the solid energy
    norm used throughout the diagnostics."""
    if space.ncomp != 2:
        raise ValueError("elasticity form requires a vector space")
    if l1 <= 0:
        raise ValueError("l1 must be positive")
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    pairs = _gradient_pairs(space)
    return _assemble_cellwise(space, l1 * _symgrad_blocks(pairs) + l2 * pairs)


def assemble_divergence(vel: Space, pres: Space) -> sp.csr_matrix:
    """Rectangular B with B[q, v] = integral of q div(v): per cell,
    |det J| J^-1 : DIV_REF."""
    if vel.ncomp != 2 or pres.ncomp != 1:
        raise ValueError("expected a vector velocity and scalar pressure space")
    if vel.domain != pres.domain or not np.array_equal(vel.cells, pres.cells):
        raise ValueError("velocity and pressure spaces live on different subdomains")
    det, inv = _geometry(vel.mesh, vel.cells)
    geo = np.abs(det)[:, None, None] * inv.transpose(0, 2, 1)  # [c, b, A]
    npl, nl = pres.cell_nodes.shape[1], vel.cell_nodes.shape[1]
    blocks = (geo @ DIV_REF[(pres.degree, vel.degree)]).reshape(-1, 2, npl, nl)
    blocks = blocks.transpose(0, 2, 3, 1).reshape(-1, npl, 2 * nl)  # [c, i, (j, b)]
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


def stack_saddle(A: sp.csr_matrix, Bt: sp.csr_matrix, B: sp.csr_matrix) -> sp.csr_matrix:
    """The saddle point [[A, Bt], [B, 0]] of CSR blocks, stacked as CSR with
    no COO round trip."""
    zero = sp.csr_matrix((B.shape[0], Bt.shape[1]))
    return sp.vstack([sp.hstack([A, Bt], format="csr"),
                      sp.hstack([B, zero], format="csr")], format="csr")


def apply_dirichlet(A: sp.spmatrix, b: np.ndarray, dofs, values=None):
    """Symmetric elimination of the given dofs.

    Rows and columns are zeroed and replaced by the identity; for homogeneous
    conditions (the default) the RHS entries are simply zeroed, otherwise the
    lifting of the prescribed values is subtracted from the RHS first.  The
    result is D A D + I_fixed, D the identity on the free dofs, built from
    masked CSR arrays with no stored zeros.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    A = A.tocsr()
    b = np.array(b, dtype=float)
    if dofs.size == 0:
        return A, b
    n = A.shape[0]
    free = np.ones(n, dtype=bool)
    free[dofs] = False
    lift = np.zeros(n)
    if values is not None:
        lift[dofs] = values
        b = b - A @ lift
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    kept = np.repeat(free, np.diff(A.indptr)) & free[A.indices] & (A.data != 0)
    before = np.concatenate(([0], np.cumsum(kept)))[A.indptr]  # kept entries before each row
    fixed = np.flatnonzero(~free)  # ascending, as the rows their ones go in
    indices = np.insert(A.indices[kept], before[fixed], fixed)
    data = np.insert(A.data[kept], before[fixed], 1.0)
    indptr = before + np.concatenate(([0], np.cumsum(~free)))
    return sp.csr_matrix((data, indices, indptr), shape=A.shape), free * b + lift


class SingularSystemError(RuntimeError):
    """A singular pivot, or a first solve that fails its backward-error check."""


def _is_symmetric(A: sp.csc_matrix) -> bool:
    """Whether a canonical CSC matrix equals its transpose, stored zeros
    included: the CSR arrays of A are the CSC arrays of A^T.  A NaN equals
    nothing, so a matrix holding one reads as unsymmetric."""
    T = A.tocsr()
    return (np.array_equal(A.indptr, T.indptr) and np.array_equal(A.indices, T.indices)
            and np.array_equal(A.data, T.data))


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
        if not A.has_canonical_format:
            A = A.copy()
            A.sum_duplicates()
        order = "MMD_AT_PLUS_A" if _is_symmetric(A) else "COLAMD"
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

