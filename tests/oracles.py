"""Independent dense oracles for the assembly and solve tests.

Basis functions are reconstructed from monomial Vandermonde systems at the
element nodes and integrated with a high-order Gauss rule mapped to the
triangle by the Duffy transform, so nothing here shares code or quadrature
with the package's assembly path.  `reference_numbering` is the original
dict-based node numbering of the spaces, kept to pin the array-built one,
with the boundary found from coordinates, where the package finds it from
the cells' shared edges;
`dissection_blocks` splits index sets by coordinate masks, where the package
splits a grid of lattice positions.  `cellwise_vector_mass` and
`cellwise_interface_mass` are the mass forms' former per-cell vector
construction, one interleaved block of vector dofs per cell or facet: they
share the package's geometry, reference mass table and edge rule, so that
they pin its scalar-node assembly bit for bit on the unit channel.
`window_map` is the dense matrix of one Robin-Robin window, applied column
by column through the package's own `advance`; `dn_map` is that of one
explicit Dirichlet-Neumann step, through `run_dirichlet_neumann`.
`interpolate` and `decades` are helpers shared by several test modules.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from fsisplit.monolithic import _fluid_flux, run_dirichlet_neumann
from fsisplit.splitting import SplitState

# package-local node order: v0 v1 v2 m12 m20 m01
P2_NODES = np.array([[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0, 0.5], [0.5, 0]],
                    dtype=float)
P1_NODES = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)


def interpolate(space, f):
    """Nodal interpolation of a callable (x, y) -> vector/scalar."""
    out = np.zeros(space.ndof)
    for n, (x, y) in enumerate(space.node_coords):
        val = np.atleast_1d(np.asarray(f(x, y), dtype=float))
        for c in range(space.ncomp):
            out[space.ncomp * n + c] = val[c]
    return out


def decades(lo, hi):
    """Hypothesis floats 10^e with e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def window_map(solver):
    """Dense matrix of one window of `solver` (a RobinRobinSolver) on the
    free state: u, eta and etad off their Dirichlet dofs, then u_avg and
    traction_avg.  The map is linear, and it keeps the Dirichlet entries at
    zero; the pressure is an output of the fluid solve, not state."""
    d = solver.disc
    free_f = np.setdiff1d(np.arange(d.V_f.ndof), d.dir_f)
    free_s = np.setdiff1d(np.arange(d.V_s.ndof), d.dir_s)
    sizes = [free_f.size, free_s.size, free_s.size, d.ifd_f.size, d.ifd_f.size]
    columns = []
    for x in np.eye(sum(sizes)):
        u, eta, etad = (np.zeros(d.V_f.ndof), np.zeros(d.V_s.ndof),
                        np.zeros(d.V_s.ndof))
        u[free_f], eta[free_s], etad[free_s], u_avg, traction_avg = np.split(
            x, np.cumsum(sizes)[:-1])
        new = solver.advance(SplitState(
            t=0.0, u=u, p=np.zeros(d.Q.ndof), eta=eta, etad=etad, u_avg=u_avg,
            traction_avg=traction_avg))
        columns.append(np.concatenate([new.u[free_f], new.eta[free_s],
                                       new.etad[free_s], new.u_avg,
                                       new.traction_avg]))
    return np.array(columns).T


def dn_map(disc, params, dt):
    """Dense matrix of one explicit Dirichlet-Neumann step of size dt on the
    free state: u, eta and etad off their Dirichlet dofs, then the interface
    traction the solid reads.  Each column is the first state of its own
    `run_dirichlet_neumann` from a unit vector, with the step's fluid flux
    as the new traction; the pressure is an output, not state."""
    d = disc
    free_f = np.setdiff1d(np.arange(d.V_f.ndof), d.dir_f)
    free_s = np.setdiff1d(np.arange(d.V_s.ndof), d.dir_s)
    sizes = [free_f.size, free_s.size, free_s.size, d.ifd_f.size]
    columns = []
    for x in np.eye(sum(sizes)):
        u, eta, etad = (np.zeros(d.V_f.ndof), np.zeros(d.V_s.ndof),
                        np.zeros(d.V_s.ndof))
        u[free_f], eta[free_s], etad[free_s], traction = np.split(
            x, np.cumsum(sizes)[:-1])
        new = next(run_dirichlet_neumann(d, params, dt, SplitState(
            t=0.0, u=u, p=np.zeros(d.Q.ndof), eta=eta, etad=etad,
            u_avg=np.zeros(d.ifd_f.size), traction_avg=traction)))
        columns.append(np.concatenate([
            new.u[free_f], new.eta[free_s], new.etad[free_s],
            _fluid_flux(d, params, dt, new.u, u, new.p)]))
    return np.array(columns).T


def _mono_p2(x, y):
    return np.array([1.0, x, y, x * x, x * y, y * y])


def _mono_p2_grad(x, y):
    return np.array([[0, 0], [1, 0], [0, 1], [2 * x, 0], [y, x], [0, 2 * y]],
                    dtype=float)


def _mono_p1(x, y):
    return np.array([1.0, x, y])


def _mono_p1_grad(x, y):
    return np.array([[0, 0], [1, 0], [0, 1]], dtype=float)


def _coeffs(nodes, mono):
    V = np.array([mono(x, y) for x, y in nodes])
    return np.linalg.inv(V)  # column i: monomial coefficients of basis i


def duffy_points(n=8):
    """Gauss tensor rule on the unit square collapsed onto the reference
    triangle x + y <= 1."""
    g, w = np.polynomial.legendre.leggauss(n)
    g = 0.5 * (g + 1.0)
    w = 0.5 * w
    pts, wts = [], []
    for gu, wu in zip(g, w):
        for gv, wv in zip(g, w):
            pts.append((gu, gv * (1.0 - gu)))
            wts.append(wu * wv * (1.0 - gu))
    return np.array(pts), np.array(wts)


class ElementOracle:
    def __init__(self, degree):
        if degree == 2:
            self.C = _coeffs(P2_NODES, _mono_p2)
            self.mono, self.mono_grad = _mono_p2, _mono_p2_grad
        else:
            self.C = _coeffs(P1_NODES, _mono_p1)
            self.mono, self.mono_grad = _mono_p1, _mono_p1_grad

    def values(self, x, y):
        return self.mono(x, y) @ self.C

    def grads(self, x, y):
        return (self.mono_grad(x, y).T @ self.C).T  # (nl, 2)


def _cell_map(mesh, cell_id):
    v = mesh.vertices[mesh.cells[cell_id]]
    J = np.column_stack([v[1] - v[0], v[2] - v[0]])
    return v[0], J, abs(np.linalg.det(J)), np.linalg.inv(J)


def dense_form(space, integrand, pres_space=None, n_gauss=8):
    """Assemble a dense matrix by looping quadrature points and calling
    integrand(phi_i data, phi_j data) entry by entry.

    integrand(i, ci, j, cj, val_i, grad_i, val_j, grad_j) -> contribution,
    where i/j are local scalar basis indices and ci/cj vector components.
    """
    el = ElementOracle(space.degree)
    elr = ElementOracle(pres_space.degree) if pres_space is not None else el
    row_space = pres_space if pres_space is not None else space
    pts, wts = duffy_points(n_gauss)
    A = np.zeros((row_space.ndof, space.ndof))
    for k in range(space.cells.size):
        cell_id = space.cells[k]
        _, J, det, Jinv = _cell_map(space.mesh, cell_id)
        cn = space.cell_nodes[k]
        rn = row_space.cell_nodes[k]
        for (x, y), w in zip(pts, wts):
            vals = el.values(x, y)
            grads = el.grads(x, y) @ Jinv
            rvals = elr.values(x, y)
            rgrads = elr.grads(x, y) @ Jinv
            wq = w * det
            for i in range(rn.size):
                for ci in range(row_space.ncomp):
                    gi = row_space.ncomp * rn[i] + ci
                    for j in range(cn.size):
                        for cj in range(space.ncomp):
                            gj = space.ncomp * cn[j] + cj
                            A[gi, gj] += wq * integrand(
                                ci, cj, rvals[i], rgrads[i], vals[j], grads[j])
    return A


def eps_tensor(comp, grad):
    """Symmetric gradient of the vector basis function val * e_comp."""
    g = np.zeros((2, 2))
    g[comp] = grad
    return 0.5 * (g + g.T)


def dense_vector_mass(space, density):
    return dense_form(space, lambda ci, cj, vi, gi, vj, gj:
                      density * vi * vj if ci == cj else 0.0)


def dense_symgrad(space, coeff):
    def f(ci, cj, vi, gi, vj, gj):
        return coeff * 2.0 * np.tensordot(eps_tensor(ci, gi), eps_tensor(cj, gj))
    return dense_form(space, f)


def dense_divdiv(space, coeff):
    return dense_form(space, lambda ci, cj, vi, gi, vj, gj:
                      coeff * gi[ci] * gj[cj])


def dense_elasticity(space, l1, l2):
    return dense_symgrad(space, l1) + dense_divdiv(space, l2)


def dense_divergence(vel, pres):
    return dense_form(vel, lambda ci, cj, vi, gi, vj, gj: vi * gj[cj],
                      pres_space=pres)


def on_outer_boundary(mesh, points):
    """Whether each of the (..., 2) points lies on the box that bounds the
    mesh vertices: x at its min or max, or y at its min or max."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    return np.any((points == lo) | (points == hi), axis=-1)


def interface_facets(mesh):
    """The (k, 2) vertex pairs of the interface, left to right: consecutive
    vertices at the height of the top of the fluid cells."""
    top = mesh.vertices[mesh.cells[mesh.cell_domain == 0], 1].max()
    verts = np.flatnonzero(mesh.vertices[:, 1] == top)
    verts = verts[np.argsort(mesh.vertices[verts, 0])]
    return np.column_stack([verts[:-1], verts[1:]])


def dense_interface_mass(space):
    """1D oracle over interface facets with an 8-point Gauss rule and a
    Vandermonde-reconstructed quadratic line basis."""
    mesh = space.mesh
    node_of = {tuple(np.round(space.node_coords[n], 12)): n
               for n in range(space.num_nodes)}
    V = np.array([[1, s, s * s] for s in (0.0, 1.0, 0.5)], dtype=float)
    C = np.linalg.inv(V)
    g, w = np.polynomial.legendre.leggauss(8)
    g, w = 0.5 * (g + 1.0), 0.5 * w
    A = np.zeros((space.ndof, space.ndof))
    for v0, v1 in interface_facets(mesh):
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        length = np.linalg.norm(p1 - p0)
        nodes = [node_of[tuple(np.round(p0, 12))],
                 node_of[tuple(np.round(p1, 12))]]
        if space.degree == 2:
            nodes.append(node_of[tuple(np.round(0.5 * (p0 + p1), 12))])
        for s, ws in zip(g, w):
            vals = np.array([1.0, s, s * s]) @ C
            vals = vals[:len(nodes)]
            for i, ni in enumerate(nodes):
                for j, nj in enumerate(nodes):
                    for c in range(space.ncomp):
                        A[space.ncomp * ni + c, space.ncomp * nj + c] += \
                            ws * length * vals[i] * vals[j]
    return A


_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


def _sorted_pair(cell, a, b):
    return (min(cell[a], cell[b]), max(cell[a], cell[b]))


def reference_numbering(mesh, domain, degree):
    """Node numbering of a space, built cell by cell with dicts and sets:
    vertices first in ascending id, then edge midpoints in the order each
    edge first appears over all mesh cells.

    Returns (node_coords, cell_nodes, dirichlet_nodes, interface_nodes,
    interface_facets): the sorted nodes on the outer boundary, the interface
    nodes off it by x, and the interface facets as (endpoint0, endpoint1[,
    midpoint]) node rows, found by rounded coordinates, left to right.
    """
    edge_ids = {}
    for cell in mesh.cells:
        for a, b in _LOCAL_EDGES:
            edge_ids.setdefault(_sorted_pair(cell, a, b), len(edge_ids))

    cells = mesh.cells[mesh.cells_of(domain)]
    vids = np.unique(cells)
    vmap = {int(v): i for i, v in enumerate(vids)}
    sub_edges = {_sorted_pair(cell, a, b) for cell in cells for a, b in _LOCAL_EDGES}
    emap = {}
    coords = [mesh.vertices[vids]]
    if degree == 2:
        ordered = sorted(sub_edges, key=lambda k: edge_ids[k])
        emap = {k: len(vids) + i for i, k in enumerate(ordered)}
        coords.append(np.array([0.5 * (mesh.vertices[a] + mesh.vertices[b])
                                for a, b in ordered]).reshape(-1, 2))
    node_coords = np.vstack(coords)

    rows = []
    for cell in cells:
        loc = [vmap[int(v)] for v in cell]
        if degree == 2:
            loc += [emap[_sorted_pair(cell, a, b)] for a, b in ((1, 2), (2, 0), (0, 1))]
        rows.append(loc)
    cell_nodes = np.asarray(rows, dtype=np.int64)

    dirichlet = np.flatnonzero(on_outer_boundary(mesh, node_coords))
    node_of = {tuple(np.round(p, 12)): n for n, p in enumerate(node_coords)}
    facets = []
    for v0, v1 in interface_facets(mesh):
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        points = [p0, p1] + ([0.5 * (p0 + p1)] if degree == 2 else [])
        facets.append([node_of[tuple(np.round(p, 12))] for p in points])
    iface = sorted(set(np.ravel(facets)) - set(dirichlet),
                   key=lambda n: node_coords[n, 0])

    return (node_coords, cell_nodes, dirichlet.astype(np.int64),
            np.asarray(iface, dtype=np.int64),
            np.asarray(facets, dtype=np.int64).reshape(-1, degree + 1))


def dense_dirichlet(A, dofs):
    """Symmetric elimination on a dense copy: D A D + I on the fixed dofs,
    D the identity on the free ones."""
    A = np.asarray(A.todense())
    keep = np.ones(A.shape[0])
    keep[dofs] = 0.0
    D = np.diag(keep)
    return D @ A @ D + np.diag(1.0 - keep)


def dense_reduced_solve(A, b, dofs):
    """Solve with the constrained dofs eliminated from a dense copy."""
    A = np.asarray(A.todense()) if hasattr(A, "todense") else np.array(A)
    n = A.shape[0]
    free = np.setdiff1d(np.arange(n), dofs)
    x = np.zeros(n)
    x[free] = np.linalg.solve(A[np.ix_(free, free)], np.asarray(b)[free])
    return x


def dissection_blocks(coords, xs, ys, leaf=16):
    """Nested dissection by masks on the coordinates themselves: the blocks
    of unknown indices in order, each with None for a leaf or, for a
    separator, the index sets of the two halves it separates.

    xs and ys are the grid's vertex lines; a separator is the middle one of
    the lines strictly inside the box, on the side with more of them.
    """
    blocks = []

    def dissect(idx, box):
        inner = [lines[1:-1][(lines[1:-1] > box[2 * a]) & (lines[1:-1] < box[2 * a + 1])]
                 for a, lines in enumerate((xs, ys))]
        if idx.size <= leaf or not (inner[0].size or inner[1].size):
            blocks.append((idx, None))
            return
        a = 0 if inner[0].size > inner[1].size else 1
        s = inner[a][inner[a].size // 2]
        c = coords[idx, a]
        low, high = list(box), list(box)
        low[2 * a + 1] = high[2 * a] = s
        dissect(idx[c < s], low)
        dissect(idx[c > s], high)
        blocks.append((idx[c == s], (idx[c < s], idx[c > s])))

    dissect(np.arange(len(coords)), [-np.inf, np.inf, -np.inf, np.inf])
    return blocks


def _cellwise(space, nodes, blocks):
    """Scatter (c, k, k) scalar blocks as (c, 2k, 2k) vector blocks at the
    interleaved dofs of nodes (c, k), with zero x-y couplings; exact zeros
    are dropped again after summing."""
    c, k, _ = blocks.shape
    vec = np.zeros((c, k, 2, k, 2))
    for comp in range(2):
        vec[:, :, comp, :, comp] = blocks
    vec = vec.reshape(c, 2 * k, 2 * k)
    dofs = (2 * nodes[:, :, None] + np.arange(2)).reshape(c, 2 * k)
    rows = np.broadcast_to(dofs[:, :, None], vec.shape)
    cols = np.broadcast_to(dofs[:, None, :], vec.shape)
    mat = sp.coo_matrix((vec.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(space.ndof, space.ndof)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def cellwise_vector_mass(space, density):
    from fsisplit.assembly import MASS_REF, _geometry

    det, _ = _geometry(space.mesh, space.cells)
    mass = np.abs(det)[:, None, None] * MASS_REF
    return _cellwise(space, space.cell_nodes, density * mass)


def cellwise_interface_mass(space):
    from fsisplit.assembly import EDGE_POINTS, EDGE_WEIGHTS, edge_basis

    facets = space.interface_facets
    ends = space.node_coords[facets[:, :2]]
    length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    m = np.zeros((facets.shape[0], 3, 3))
    for vals, w in zip(edge_basis(EDGE_POINTS), EDGE_WEIGHTS):
        m += (w * length)[:, None, None] * np.outer(vals, vals)
    return _cellwise(space, facets, m)
