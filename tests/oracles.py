"""Independent dense oracles for the assembly and solve tests.

Basis functions are reconstructed from monomial Vandermonde systems at the
element nodes and integrated with a high-order Gauss rule mapped to the
triangle by the Duffy transform, so nothing here shares code or quadrature
with the package's assembly path.  Each dense form tabulates its basis once
at the rule's points and is one `np.einsum` per cell on the mapped weights
w |det J| and gradients g J^-1, summed into a dense matrix at the
interleaved dofs; the symmetric gradient is the explicit tensor
0.5 (delta_ax g_y + delta_ay g_x), not the package's identity.
`reference_numbering` is the original
dict-based node numbering of the spaces, kept to pin the array-built one,
with the boundary found from coordinates, where the package finds it from
the cells' shared edges;
`dissection_blocks` splits index sets by coordinate masks, where the package
splits a grid of lattice positions.  `cellwise_vector_mass` and
`cellwise_interface_mass` are the mass forms' former per-cell vector
construction, one interleaved block of vector dofs per cell or facet: they
share the package's geometry, reference mass table and edge rule, so that
they pin its scalar-node assembly bit for bit on the unit channel.
`ledger_forms` is the dense matrix of one Robin-Robin window, column by
column through the package's own `advance`, and its energy ledger as forms on
its state; `dn_map` is that of one explicit Dirichlet-Neumann step.
`window_defects` is the splitting's consistency defect window by window:
one `advance` from the reference's state, measured in the norm `h_norm`
of the ledger's E + S0.
`interpolate` and `decades` are helpers shared by several test modules.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.linalg import block_diag

from fsisplit.diagnostics import energy_E, initial_S0
from fsisplit.monolithic import _fluid_flux, run_dirichlet_neumann
from fsisplit.splitting import SplitState

# package-local node order: v0 v1 v2 m12 m20 m01; P1 has the first three
_NODES = np.array([[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0, 0.5], [0.5, 0]],
                  dtype=float)
# exponents (a, b) of the monomials x^a y^b: P1 spans the first three
_EXPONENTS = np.array([[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]])


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


def zero_state(disc):
    """The SplitState of `disc` with every field zero."""
    d = disc
    sizes = (d.V_f.ndof, d.Q.ndof, d.V_s.ndof, d.V_s.ndof, d.ifd_f.size, d.ifd_f.size)
    return SplitState(0.0, *map(np.zeros, sizes))


def free_dofs(disc):
    """The fluid and the solid velocity dofs off their Dirichlet dofs."""
    return (np.delete(np.arange(disc.V_f.ndof), disc.dir_f),
            np.delete(np.arange(disc.V_s.ndof), disc.dir_s))


def free_state(disc, state, *interface):
    """u, eta and etad of `state` off their Dirichlet dofs, then `interface`."""
    free_f, free_s = free_dofs(disc)
    return np.concatenate([state.u[free_f], state.eta[free_s],
                           state.etad[free_s], *interface])


def _unit_states(disc, names):
    """A zero_state per unit vector x of the free state, set to x: u, eta
    and etad off their Dirichlet dofs, then the interface fields `names`."""
    free_f, free_s = free_dofs(disc)
    sizes = [free_f.size, free_s.size, free_s.size] + [disc.ifd_f.size] * len(names)
    for x in np.eye(sum(sizes)):
        state = zero_state(disc)
        parts = np.split(x, np.cumsum(sizes)[:-1])
        state.u[free_f], state.eta[free_s], state.etad[free_s] = parts[:3]
        for name, part in zip(names, parts[3:]):
            setattr(state, name, part)
        yield state


def ledger_forms(solver):
    """One window of `solver` (a RobinRobinSolver) on the free state x: u,
    eta and etad off their Dirichlet dofs, then u_avg and traction_avg.
    Returns its matrix G, one `advance` per unit vector, and the ledger's
    terms as forms in x on the package's matrices: the energy E, the stock
    S0 = dt iS of x's u_avg and traction_avg, and the window's T and S."""
    d, p, grid = solver.disc, solver.params, solver.grid
    lam, k = p.lambda_robin, d.ifd_f.size
    columns, samples = [], []
    for state in _unit_states(d, ("u_avg", "traction_avg")):
        new = solver.advance(state)
        columns.append(free_state(d, new, new.u_avg, new.traction_avg))
        samples.append([(s.u, s.etad[d.ifd_s], s.traction) for s in new.samples])
    G = np.array(columns).T
    u_avg, traction_avg = np.split(np.eye(len(G))[-2 * k:], 2)

    def form(M, X):
        return X.T @ (M @ X)

    def stock(trace, traction):
        return 0.5 * lam * form(d.M_c, trace) + form(d._M_c_inv, traction) / (2 * lam)

    free_f, free_s = free_dofs(d)
    E = 0.5 * block_diag(p.rho_f * d.M_f[free_f][:, free_f].toarray(),
                         d.stiffness_solid(p.l1, p.l2)[free_s][:, free_s].toarray(),
                         p.rho_s * d.M_s[free_s][:, free_s].toarray(),
                         np.zeros((2 * k, 2 * k)))
    T = S = 0.0
    for step in zip(*samples):  # one substep of every column
        u, etad, traction = (np.array(f).T for f in zip(*step))
        T = T + grid.ddt * (form(d.stiffness_fluid(p.mu), u)
                            + 0.5 * lam * form(d.M_c, etad - u_avg))
        S = S + grid.ddt * stock(u[d.ifd_f], traction)
    return G, E, grid.dt * stock(u_avg, traction_avg), T, S


def dn_map(disc, params, dt):
    """Dense matrix of one explicit Dirichlet-Neumann step of size dt on the
    free state: u, eta and etad off their Dirichlet dofs, then the interface
    traction the solid reads.  Each column is the first state of its own
    `run_dirichlet_neumann` from a unit vector, with the step's fluid flux
    as the new traction; the pressure is an output, not state."""
    columns = []
    for state in _unit_states(disc, ("traction_avg",)):
        new = next(run_dirichlet_neumann(disc, params, dt, state))
        columns.append(free_state(
            disc, new, _fluid_flux(disc, params, dt, new.u, state.u, new.p)))
    return np.array(columns).T


def reference_split_state(reference, grid, n):
    """R(t_n): the reference's fields at the n-th window boundary of `grid`,
    with, as interface data, its trace and flux averaged over window n - 1's
    substep times (at m = 1 the values at t_n; at t_0 the initial trace and
    flux[0])."""
    per, m = reference.steps_per(grid.ddt), grid.substeps
    steps = [k * per for k in range(max(n * m - m + 1, 0), n * m + 1)]
    state, _ = reference.step(n * m * per)
    return SplitState(state.t, state.u, state.p, state.eta, state.etad,
                      np.mean([reference.traces[k] for k in steps], axis=0),
                      np.mean([reference.flux[k] for k in steps], axis=0))


def h_norm(solver, a, b):
    """||a - b||_H of two SplitStates: the square root of the energy E of
    their fields' difference plus the stock S0 = dt iS of their interface
    data's difference, on `solver`'s discretization, parameters and grid."""
    u, eta, etad, u_avg, traction_avg = (
        getattr(a, f) - getattr(b, f)
        for f in ("u", "eta", "etad", "u_avg", "traction_avg"))
    d, p = solver.disc, solver.params
    return np.sqrt(energy_E(d, p, u, etad, eta)
                   + initial_S0(d, p, solver.grid, u_avg, traction_avg))


def window_defects(solver, reference):
    """||c_n||_H of every window of `solver` (a RobinRobinSolver), with
    c_n = R(t_{n+1}) - advance(R(t_n)) and R as in `reference_split_state`:
    the splitting's error from R(t_0) obeys e_{n+1} = G e_n + c_n."""
    R = [reference_split_state(reference, solver.grid, n)
         for n in range(solver.grid.num_windows + 1)]
    return [h_norm(solver, after, solver.advance(before))
            for before, after in zip(R, R[1:])]


def _monomials(k, points):
    """The first k monomials at the (n, 2) points, (n, k), and their
    gradients, (n, k, 2)."""
    a, b = _EXPONENTS[:k].T
    x, y = points[:, :1], points[:, 1:]
    dx = a * x ** np.maximum(a - 1, 0) * y ** b
    dy = b * x ** a * y ** np.maximum(b - 1, 0)
    return x ** a * y ** b, np.stack([dx, dy], axis=-1)


def duffy_points(n=8):
    """Gauss tensor rule on the unit square collapsed onto the reference
    triangle x + y <= 1."""
    g, w = np.polynomial.legendre.leggauss(n)
    g = 0.5 * (g + 1.0)
    w = 0.5 * w
    gu, gv = np.repeat(g, n), np.tile(g, n)
    return (np.column_stack([gu, gv * (1.0 - gu)]),
            np.repeat(w, n) * np.tile(w, n) * (1.0 - gu))


class ElementOracle:
    """The Lagrange basis of one degree, reconstructed from its monomial
    Vandermonde system at the element nodes and tabulated once at the Duffy
    points: values (nq, nl) and reference gradients (nq, nl, 2)."""

    def __init__(self, degree):
        k = (degree + 1) * (degree + 2) // 2
        C = np.linalg.inv(_monomials(k, _NODES[:k])[0])
        points, self.weights = duffy_points()
        mono, mono_grad = _monomials(k, points)
        self.values = mono @ C
        self.grads = np.einsum("qka,kl->qla", mono_grad, C)


def _tabulate(space):
    """The basis of `space` on each of its c cells: the mapped weights
    w |det J|, (c, nq), the values, (nq, nl), and the physical gradients
    g J^-1, (c, nq, nl, 2)."""
    el = ElementOracle(space.degree)
    v = space.mesh.vertices[space.mesh.cells[space.cells]]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)  # edges as columns
    weights = el.weights * np.abs(np.linalg.det(J))[:, None]
    return weights, el.values, el.grads @ np.linalg.inv(J)[:, None]


def _vector_blocks(blocks, ncomp):
    """(c, k, k) scalar blocks as (c, k, ncomp, k, ncomp) blocks of the
    vector basis, with zero couplings between components."""
    return np.einsum("cij,ab->ciajb", blocks, np.eye(ncomp))


def _dofs(nodes, ncomp):
    """Interleaved dofs ncomp * node + component of the (c, k) nodes."""
    return (ncomp * nodes[..., None] + np.arange(ncomp)).reshape(len(nodes), -1)


def _scatter(blocks, rows, cols, shape):
    """Dense sum of the (c, nr, rc, nc, cc) blocks at the interleaved dofs
    of the (c, nr) row nodes and the (c, nc) column nodes."""
    c, nr, rc, nc, cc = blocks.shape
    A = np.zeros(shape)
    np.add.at(A, (_dofs(rows, rc)[:, :, None], _dofs(cols, cc)[:, None, :]),
              blocks.reshape(c, nr * rc, nc * cc))
    return A


def _on_cells(blocks, space, row_space=None):
    """`_scatter` of per-cell blocks: columns in `space`, rows in
    `row_space` (default `space`)."""
    row = space if row_space is None else row_space
    return _scatter(blocks, row.cell_nodes, space.cell_nodes, (row.ndof, space.ndof))


def dense_vector_mass(space, density):
    w, v, _ = _tabulate(space)
    return _on_cells(density * _vector_blocks(
        np.einsum("cq,qi,qj->cij", w, v, v), space.ncomp), space)


def dense_symgrad(space, coeff):
    """2 coeff (eps(phi_i e_a), eps(phi_j e_b)), with the symmetric gradient
    as the explicit tensor eps_xy = 0.5 (delta_ax g_y + delta_ay g_x)."""
    w, _, g = _tabulate(space)
    dg = np.einsum("ax,cqiy->cqiaxy", np.eye(2), g)
    eps = 0.5 * (dg + dg.swapaxes(-1, -2))
    return _on_cells(2.0 * coeff * np.einsum("cq,cqiaxy,cqjbxy->ciajb", w, eps, eps),
                     space)


def dense_divdiv(space, coeff):
    w, _, g = _tabulate(space)
    return _on_cells(coeff * np.einsum("cq,cqia,cqjb->ciajb", w, g, g), space)


def dense_elasticity(space, l1, l2):
    return dense_symgrad(space, l1) + dense_divdiv(space, l2)


def dense_divergence(vel, pres):
    w, _, g = _tabulate(vel)
    q = ElementOracle(pres.degree).values
    return _on_cells(np.einsum("cq,qi,cqjb->cijb", w, q, g)[:, :, None], vel, pres)


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
    Vandermonde-reconstructed line basis on the nodes s = 0, 1 (, 1/2)."""
    mesh = space.mesh
    node_of = {tuple(np.round(p, 12)): n for n, p in enumerate(space.node_coords)}
    powers = np.arange(space.degree + 1)
    s = np.array([0.0, 1.0, 0.5])[powers]
    g, w = np.polynomial.legendre.leggauss(8)
    g, w = 0.5 * (g + 1.0), 0.5 * w
    vals = g[:, None] ** powers @ np.linalg.inv(s[:, None] ** powers)  # (nq, k)
    p0, p1 = (mesh.vertices[v] for v in interface_facets(mesh).T)
    points = [p0, p1, 0.5 * (p0 + p1)][:powers.size]
    nodes = np.array([[node_of[tuple(np.round(p, 12))] for p in facet]
                      for facet in zip(*points)])
    m = np.einsum("f,q,qi,qj->fij", np.linalg.norm(p1 - p0, axis=1), w, vals, vals)
    return _scatter(_vector_blocks(m, space.ncomp), nodes, nodes, (space.ndof,) * 2)


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
    vec = _vector_blocks(blocks, 2).reshape(c, 2 * k, 2 * k)
    dofs = _dofs(nodes, 2)
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
