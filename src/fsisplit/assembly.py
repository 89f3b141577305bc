"""Bilinear form assembly, boundary conditions and the sparse direct solve.

Quadrature: 6-point degree-4 rule on triangles, 3-point Gauss on interface
edges — exact for every product of P2 basis functions appearing here.  The
triangle rule runs once, at import, on the reference cell.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .spaces import Space

__all__ = [
    "assemble_vector_mass", "assemble_symgrad", "assemble_divdiv",
    "assemble_elasticity", "assemble_divergence", "assemble_interface_mass",
    "stack_saddle", "apply_dirichlet", "grid_dissection", "SingularSystemError",
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
    """P1 values (..., 3) at points x, y of any (common) shape."""
    return np.stack(np.broadcast_arrays(1.0 - x - y, x, y), axis=-1)


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


def edge_basis(s):
    """1D P2 values (..., 3) on [0,1]; node order: endpoint0, endpoint1,
    midpoint."""
    return np.stack([(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)], axis=-1)


def _geometry(mesh: Mesh, cells: np.ndarray):
    """Jacobian determinants (c,) and inverse Jacobians (c, 2, 2), C-ordered,
    of the affine maps of the given mesh cells."""
    v = mesh.vertices[mesh.cells[cells]]
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]  # the Jacobian's columns
    det = e1[:, 0] * e2[:, 1] - e2[:, 0] * e1[:, 1]
    adj = np.stack([e2[:, 1], -e2[:, 0], -e1[:, 1], e1[:, 0]], axis=1)
    return det, adj.reshape(-1, 2, 2) / det[:, None, None]


def _integrate(a, b):
    """Reference-cell integrals (m, n) of a[:, k] b[:, l], from tables (nq, m)
    and (nq, n) at the triangle quadrature points, rounded to their exact
    values.  Each is an integer combination of the monomial integrals
    a! b! / (a + b + 2)! with a + b <= 4, so a multiple of 1/720; an exact
    zero then stays zero in every cell matrix."""
    quad = (TRI_WEIGHTS[:, None] * a).T @ b
    exact = np.round(720.0 * quad) / 720.0
    if not np.abs(exact - quad).max() <= 1e-13:
        raise ArithmeticError("a reference integral is not a multiple of 1/720")
    return exact


# Tensor representation of the forms on affine cells (Kirby & Logg, ACM TOMS
# 2006): each cell matrix is the cell's geometry contracted with a constant
# reference-cell integral, so no form runs quadrature per cell.  The rule is
# exact for these products, and `_integrate` rounds away its error.  Only
# the Taylor-Hood pair's tables: P2 phi for the vector forms, P1 psi for the
# pressure.  _DPHI is [q, (A, i)] for d_A phi_i at the quadrature points.
_PSI = p1_basis(TRI_POINTS[:, 0], TRI_POINTS[:, 1])
_PHI, _DPHI = p2_basis(TRI_POINTS[:, 0], TRI_POINTS[:, 1])
_DPHI = _DPHI.transpose(0, 2, 1).reshape(len(_PHI), -1)
# [i, j]: integral of phi_i phi_j
MASS_REF = _integrate(_PHI, _PHI)
# [(A, B), (i, j)]: integral of d_A phi_i d_B phi_j
GRAD_REF = (_integrate(_DPHI, _DPHI).reshape(2, 6, 2, 6)
            .transpose(0, 2, 1, 3).reshape(4, -1))
# [A, (i, j)]: integral of psi_i d_A phi_j
DIV_REF = _integrate(_PSI, _DPHI).reshape(3, 2, 6).transpose(1, 0, 2).reshape(2, -1)
# [i, j]: integral over [0, 1] of the edge basis products by the 3-point
# rule, not rounded; a facet's block is its length times this table
EDGE_MASS_REF = sum(w * np.outer(v, v)
                    for v, w in zip(edge_basis(EDGE_POINTS), EDGE_WEIGHTS))


def _scatter(shape, row_dofs, col_dofs, blocks):
    """Sum (c, i, j) local blocks into a CSR matrix at rows row_dofs[c, i]
    and columns col_dofs[c, j]; entries go in cell-major order.  Exact zeros
    are not stored, so that no matvec multiplies them."""
    rows = np.broadcast_to(row_dofs[:, :, None], blocks.shape)
    cols = np.broadcast_to(col_dofs[:, None, :], blocks.shape)
    mat = sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                        shape=shape).tocsr()  # sums duplicates
    mat.eliminate_zeros()
    return mat


def _scatter_per_component(space: Space, nodes, blocks):
    """Assembly of a form that couples each component only with itself:
    (c, k, k) scalar blocks on (c, k) nodes, each scattered once per
    component at that component's dofs.  This is the scalar node matrix x
    I_ncomp in the interleaved dof order, with none of the x-y zeros a
    per-cell vector block would carry."""
    k = nodes.shape[1]
    dofs = space.expand(nodes).reshape(-1, k, space.ncomp)
    dofs = dofs.transpose(0, 2, 1).reshape(-1, k)  # [(block, component), node]
    blocks = np.repeat(blocks, space.ncomp, axis=0)
    return _scatter((space.ndof, space.ndof), dofs, dofs, blocks)


def _assemble_cellwise(space: Space, blocks):
    """Symmetric assembly of (c, ncomp, ncomp, nl, nl) component blocks, one
    per cell of the space, with vector dofs interleaved like Space.expand."""
    c, n, _, nl, _ = blocks.shape
    blocks = blocks.transpose(0, 3, 1, 4, 2).reshape(c, n * nl, n * nl)
    blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))  # all forms here are symmetric; make it exact
    dofs = space.expand(space.cell_nodes)
    return _scatter((space.ndof, space.ndof), dofs, dofs, blocks)


def assemble_vector_mass(space: Space) -> sp.csr_matrix:
    """Integral of phi_i . phi_j over the space's subdomain."""
    if space.ncomp != 2:
        raise ValueError("vector mass requires a vector-valued space")
    det, _ = _geometry(space.mesh, space.cells)
    mass = np.abs(det)[:, None, None] * MASS_REF
    return _scatter_per_component(space, space.cell_nodes, mass)


def _gradient_pairs(space: Space):
    """(c, 2, 2, nl, nl) blocks of the integrals of d_a phi_i d_b phi_j, the
    one contraction every strain form is built from: |det J| (J^-1 x J^-1)
    : GRAD_REF as one (c, 4, 4) @ (4, nl^2) product."""
    det, inv = _geometry(space.mesh, space.cells)
    inv_t = inv.transpose(0, 2, 1)  # [c, a, A] = d xi_A / d x_a
    geo = (np.abs(det)[:, None, None, None, None]
           * inv_t[:, :, None, :, None] * inv_t[:, None, :, None, :])
    nl = space.cell_nodes.shape[1]
    return (geo.reshape(-1, 4, 4) @ GRAD_REF).reshape(-1, 2, 2, nl, nl)


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
    blocks = (geo @ DIV_REF).reshape(-1, 2, npl, nl)
    blocks = blocks.transpose(0, 2, 3, 1).reshape(-1, npl, 2 * nl)  # [c, i, (j, b)]
    return _scatter((pres.ndof, vel.ndof), pres.cell_nodes,
                    vel.expand(vel.cell_nodes), blocks)


def assemble_interface_mass(space: Space) -> sp.csr_matrix:
    """Interface mass: integral over the interface of phi_i . phi_j, for a
    P2 space."""
    facets = space.interface_facets
    if space.degree != 2 or facets.size == 0:
        raise ValueError("space has no P2 interface facets")
    ends = space.node_coords[facets[:, :2]]
    length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    return _scatter_per_component(space, facets, length[:, None, None] * EDGE_MASS_REF)


def stack_saddle(A: sp.csr_matrix, Bt: sp.csr_matrix, B: sp.csr_matrix) -> sp.csr_matrix:
    """The saddle point [[A, Bt], [B, 0]] of CSR blocks, stacked as CSR with
    no COO round trip."""
    zero = sp.csr_matrix((B.shape[0], Bt.shape[1]))
    return sp.vstack([sp.hstack([A, Bt], format="csr"),
                      sp.hstack([B, zero], format="csr")], format="csr")


def apply_dirichlet(A: sp.spmatrix, dofs) -> sp.csr_matrix:
    """Symmetric elimination of the given dofs: D A D + I_fixed, D the
    identity on the free dofs, built from masked CSR arrays with no stored
    zeros, in canonical CSR.  `Factorization` calls it and zeroes the
    right-hand side at those rows itself."""
    dofs = np.asarray(dofs, dtype=np.int64)
    A = A.tocsr()
    free = np.ones(A.shape[0], dtype=bool)
    free[dofs] = False
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    kept = np.repeat(free, np.diff(A.indptr)) & free[A.indices] & (A.data != 0)
    before = np.concatenate(([0], np.cumsum(kept)))[A.indptr]  # kept entries before each row
    fixed = np.flatnonzero(~free)  # ascending, as the rows their ones go in
    indices = np.insert(A.indices[kept], before[fixed], fixed)
    data = np.insert(A.data[kept], before[fixed], 1.0)
    indptr = before + np.concatenate(([0], np.cumsum(~free)))
    return sp.csr_matrix((data, indices, indptr), shape=A.shape)


class SingularSystemError(RuntimeError):
    """A singular pivot, or a first solve that fails its backward-error check."""


_LEAF = 16  # unknowns in a block that is not dissected further


def grid_dissection(coords: np.ndarray) -> np.ndarray:
    """Nested-dissection order of unknowns at coords (n, 2) on a structured
    grid (George, SIAM J. Numer. Anal. 10, 1973).

    The distinct x (y) values of coords, ascending, number the grid's
    columns (rows): vertex lines at even positions, edge midpoints between
    them at odd ones.  Each separator is a vertex line with every unknown on
    it; no cell straddles one, so it cuts the block in two.  A block is split
    across the side with more lines (lines, not length, so a stretched grid
    splits alike), until it holds at most _LEAF unknowns or no line is left
    inside.  Both halves come before their separator; within each block and
    separator the unknowns keep ascending index, so velocity before pressure.
    """
    col, row = (np.unique(c, return_inverse=True)[1].ravel() for c in coords.T)
    nx, ny = int(col.max()) + 1, int(row.max()) + 1
    held = np.zeros((nx + 1, ny + 1), dtype=np.int64)  # summed-area table
    held[1:, 1:] = np.bincount(col * ny + row, minlength=nx * ny).reshape(
        nx, ny).cumsum(axis=0).cumsum(axis=1)
    held = held.tolist()
    block = np.empty((nx, ny), dtype=np.int64)
    serial = itertools.count()

    def dissect(x0, x1, y0, y1):
        """Order the unknowns of lattice box [x0, x1) x [y0, y1)."""
        nlx, nly = (x1 - 2) // 2 - x0 // 2, (y1 - 2) // 2 - y0 // 2  # lines inside
        n = held[x1][y1] - held[x0][y1] - held[x1][y0] + held[x0][y0]
        if n <= _LEAF or max(nlx, nly) <= 0:
            block[x0:x1, y0:y1] = next(serial)
        elif nlx > nly:
            s = 2 * (x0 // 2 + 1 + nlx // 2)  # the middle line
            dissect(x0, s, y0, y1)
            dissect(s + 1, x1, y0, y1)
            block[s, y0:y1] = next(serial)
        else:
            s = 2 * (y0 // 2 + 1 + nly // 2)
            dissect(x0, x1, y0, s)
            dissect(x0, x1, s + 1, y1)
            block[x0:x1, s] = next(serial)

    dissect(0, nx, 0, ny)
    return np.argsort(block[col, row], kind="stable")


class Factorization:
    """LU factorization, safe for repeated solves, of A with the dofs
    `fixed` eliminated (`apply_dirichlet`), ordered A[order][:, order].
    Each solve zeroes b at `fixed` on its own copy: x[fixed] == 0, and the
    free entries of x do not depend on b[fixed].  With prescribed values g
    at `fixed`, x = g + solve(b - A @ g).

    Every caller passes the grid dissection (`grid_dissection`) of its
    unknowns, and SuperLU keeps it as it is.  Rows and columns are permuted
    alike, because threshold pivoting prefers the diagonal of the matrix it
    factors.  Threshold pivoting keeps more of the order than partial
    pivoting does; the normwise backward error of the first solve with
    b != 0 is checked to make it safe.

    SuperLU factors A^T, the CSR arrays of A read as CSC with no copy, and
    each solve is its transposed solve, (A^T)^T x = A x = b: on one factor
    of these matrices, at n = 16 and 32, that solve is 12-28% faster than
    the plain one.  A symmetric A keeps its factor.
    """

    def __init__(self, A: sp.spmatrix, order: np.ndarray, fixed: np.ndarray):
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        A = apply_dirichlet(A, fixed)
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        A = sp.csr_matrix((A.data, position[A.indices], A.indptr),
                          shape=A.shape)[order]
        A.sort_indices()
        At = sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
        try:
            self._lu = spla.splu(At, permc_spec="NATURAL", diag_pivot_thresh=0.01)
        except RuntimeError as exc:
            raise SingularSystemError(str(exc)) from exc
        self._order, self._position = order, position
        self._fixed = position[np.asarray(fixed, dtype=np.int64)]  # in the solved order
        self._unchecked = A  # as solved; dropped once the first solve is checked

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)[self._order]  # a copy: the caller's b is kept
        b[self._fixed] = 0.0
        x = self._lu.solve(b, trans="T")
        if self._unchecked is not None and b.any():
            A, self._unchecked = self._unchecked, None
            # Python floats: a scale past the largest double is a silent inf
            scale = (float(abs(A).sum(axis=1).max()) * float(np.abs(x).max())
                     + float(np.abs(b).max()))
            eta = float(np.abs(b - A @ x).max()) / scale
            if not eta <= 1e-10:
                raise SingularSystemError(f"solve backward error {eta:.3e} > 1e-10")
        return x[self._position]  # back to the caller's numbering
