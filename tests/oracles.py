"""Independent dense oracles for the assembly and solve tests.

Basis functions are reconstructed from monomial Vandermonde systems at the
element nodes and integrated with a high-order Gauss rule mapped to the
triangle by the Duffy transform, so nothing here shares code or quadrature
with the package's assembly path.  `reference_numbering` is the original
dict-based node numbering of the spaces, kept to pin the array-built one.
"""

import numpy as np

# package-local node order: v0 v1 v2 m12 m20 m01
P2_NODES = np.array([[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0, 0.5], [0.5, 0]],
                    dtype=float)
P1_NODES = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)


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


def dense_interface_mass(space):
    """1D oracle over interface facets with an 8-point Gauss rule and a
    Vandermonde-reconstructed quadratic line basis."""
    from fsisplit.mesh import INTERFACE

    mesh = space.mesh
    node_of = {tuple(np.round(space.node_coords[n], 12)): n
               for n in range(space.num_nodes)}
    V = np.array([[1, s, s * s] for s in (0.0, 1.0, 0.5)], dtype=float)
    C = np.linalg.inv(V)
    g, w = np.polynomial.legendre.leggauss(8)
    g, w = 0.5 * (g + 1.0), 0.5 * w
    A = np.zeros((space.ndof, space.ndof))
    for v0, v1 in mesh.facets_of(INTERFACE):
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

    Returns (node_coords, cell_nodes, boundary_nodes, interface_nodes,
    interface_facets), the last as (endpoint0, endpoint1[, midpoint]) node
    rows found by rounded coordinates and ordered by x.
    """
    from fsisplit.mesh import INTERFACE, SIGMA_F, SIGMA_S

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

    boundary_nodes = {}
    for tag in (SIGMA_F, SIGMA_S, INTERFACE):
        nodes = set()
        for v0, v1 in mesh.facets_of(tag):
            key = (min(v0, v1), max(v0, v1))
            if key in sub_edges:
                nodes |= {vmap[int(v0)], vmap[int(v1)]}
                if degree == 2:
                    nodes.add(emap[key])
        if nodes:
            boundary_nodes[tag] = np.array(sorted(nodes), dtype=np.int64)

    dirichlet = set(boundary_nodes.get(SIGMA_F if domain == 0 else SIGMA_S,
                                       np.empty(0, np.int64)).tolist())
    iface = [n for n in boundary_nodes.get(INTERFACE, np.empty(0, np.int64)).tolist()
             if n not in dirichlet]
    iface.sort(key=lambda n: node_coords[n, 0])

    node_of = {tuple(np.round(p, 12)): n for n, p in enumerate(node_coords)}
    facets = []
    for v0, v1 in mesh.facets_of(INTERFACE):
        p0, p1 = mesh.vertices[v0], mesh.vertices[v1]
        if p1[0] < p0[0]:
            p0, p1 = p1, p0
        points = [p0, p1] + ([0.5 * (p0 + p1)] if degree == 2 else [])
        facets.append([node_of[tuple(np.round(p, 12))] for p in points])
    facets.sort(key=lambda f: node_coords[f[0], 0])

    return (node_coords, cell_nodes, boundary_nodes,
            np.asarray(iface, dtype=np.int64),
            np.asarray(facets, dtype=np.int64).reshape(-1, degree + 1))


def dense_dirichlet(A, b, dofs, values=None):
    """Symmetric elimination on a dense copy: D A D + I on the fixed dofs,
    D the identity on the free ones, and keep * (b - A lift) + lift."""
    A = np.asarray(A.todense())
    n = A.shape[0]
    keep = np.ones(n)
    keep[dofs] = 0.0
    lift = np.zeros(n)
    if values is not None:
        lift[dofs] = values
    D = np.diag(keep)
    return D @ A @ D + np.diag(1.0 - keep), keep * (np.asarray(b) - A @ lift) + lift


def dense_reduced_solve(A, b, dofs):
    """Solve with the constrained dofs eliminated from a dense copy."""
    A = np.asarray(A.todense()) if hasattr(A, "todense") else np.array(A)
    n = A.shape[0]
    free = np.setdiff1d(np.arange(n), dofs)
    x = np.zeros(n)
    x[free] = np.linalg.solve(A[np.ix_(free, free)], np.asarray(b)[free])
    return x
