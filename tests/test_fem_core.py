from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from fsisplit import (ChannelGeometry, Discretization, RobinRobinSolver,
                      TimeGrid, initial_data, splitting)
from fsisplit.assembly import (Factorization, SingularSystemError,
                               apply_dirichlet, assemble_divdiv,
                               assemble_divergence, assemble_elasticity,
                               assemble_interface_mass, assemble_symgrad,
                               assemble_vector_mass)
from fsisplit.mesh import (FLUID, SOLID, ChannelGeometry, Mesh,
                           build_two_layer_mesh)
from fsisplit.spaces import SCALAR_P1, VECTOR_P2, build_space


def interpolate(space, f):
    """Nodal interpolation of a callable (x, y) -> vector/scalar."""
    out = np.zeros(space.ndof)
    for n, (x, y) in enumerate(space.node_coords):
        val = np.atleast_1d(np.asarray(f(x, y), dtype=float))
        for c in range(space.ncomp):
            out[space.ncomp * n + c] = val[c]
    return out


# -- analytic quadratic-form examples ------------------------------------


def test_vector_mass_constant_field(tiny_disc):
    M = assemble_vector_mass(tiny_disc.V_f, 3.0)
    v = np.ones(tiny_disc.V_f.ndof)
    # two components, each integrating 1 over the unit square
    assert v @ (M @ v) == pytest.approx(3.0 * 2.0, rel=1e-13)
    assert abs(M - M.T).max() == 0.0


def test_symgrad_rigid_motions(small_disc):
    K = assemble_symgrad(small_disc.V_f, 1.0)
    for f in (lambda x, y: (1.0, -2.0), lambda x, y: (-y, x)):
        v = interpolate(small_disc.V_f, f)
        assert np.abs(K @ v).max() < 1e-12


def test_symgrad_linear_shear(tiny_disc):
    mu = 0.7
    K = assemble_symgrad(tiny_disc.V_f, mu)
    v = interpolate(tiny_disc.V_f, lambda x, y: (x, 0.0))
    assert v @ (K @ v) == pytest.approx(2.0 * mu, rel=1e-13)


def test_elasticity_examples(tiny_disc):
    l1, l2 = 1.3, 0.4
    A = assemble_elasticity(tiny_disc.V_s, l1, l2)
    w = interpolate(tiny_disc.V_s, lambda x, y: (2.0, 5.0))
    assert abs(w @ (A @ w)) < 1e-12
    w = interpolate(tiny_disc.V_s, lambda x, y: (x, y))
    assert w @ (A @ w) == pytest.approx(4.0 * l1 + 4.0 * l2, rel=1e-13)
    # form additivity, entrywise
    parts = assemble_symgrad(tiny_disc.V_s, l1) + assemble_divdiv(tiny_disc.V_s, l2)
    assert abs(A - parts).max() < 1e-14


def test_divergence_examples(tiny_disc):
    B = tiny_disc.B
    v = interpolate(tiny_disc.V_f, lambda x, y: (0.4, -1.1))
    assert np.abs(B @ v).max() < 1e-13
    v = interpolate(tiny_disc.V_f, lambda x, y: (x, -y))
    assert np.abs(B @ v).max() < 1e-13
    v = interpolate(tiny_disc.V_f, lambda x, y: (x, 0.0))
    q = np.ones(tiny_disc.Q.ndof)
    assert q @ (B @ v) == pytest.approx(1.0, rel=1e-13)


def test_interface_mass_examples(small_disc):
    space = small_disc.V_f
    M = small_disc.M_if
    v = interpolate(space, lambda x, y: (1.0, 0.0))  # unit tangential field
    assert v @ (M @ v) == pytest.approx(small_disc.geom.length, rel=1e-13)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.ndof)
    on_iface = np.isclose(space.node_coords[:, 1], small_disc.geom.fluid_height)
    v[space.expand(np.flatnonzero(on_iface))] = 0.0
    assert abs(v @ (M @ v)) < 1e-13


# -- dense high-order quadrature oracle ----------------------------------


def _general_affine_spaces():
    """The spaces of a stretched 2 x (2 + 2) channel (L = 3, H_f = 0.2,
    H_s = 0.5) whose inner vertices are moved off the grid, and its interface
    vertices along it: cells that are neither right-angled nor of unit size."""
    geom = ChannelGeometry(3.0, 0.2, 0.5)
    mesh = build_two_layer_mesh(geom, 2, 2, 2)
    x, y = mesh.vertices.T
    top = geom.fluid_height + geom.solid_height
    inner_x = (x > 0.0) & (x < geom.length)
    inner_y = inner_x & (y > 0.0) & (y < top) & (y != geom.fluid_height)
    step_y = np.where(y < geom.fluid_height, 0.1, 0.25)
    shift = np.random.default_rng(11).uniform(-0.3, 0.3, mesh.vertices.shape)
    mesh.vertices = mesh.vertices + shift * np.column_stack(
        [1.5 * inner_x, step_y * inner_y])
    a, b, c = (mesh.vertices[mesh.cells[:, k]] for k in range(3))
    e1, e2 = b - a, c - a
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert det.min() > 0 and np.unique(np.round(np.abs(det), 12)).size > 4
    return SimpleNamespace(V_f=build_space(mesh, FLUID, VECTOR_P2),
                           Q=build_space(mesh, FLUID, SCALAR_P1),
                           V_s=build_space(mesh, SOLID, VECTOR_P2))


@pytest.fixture(scope="module", params=["one_cell", "two_by_two", "general_affine"])
def oracle_disc(request, tiny_disc, small_disc):
    if request.param == "general_affine":
        return _general_affine_spaces()
    return tiny_disc if request.param == "one_cell" else small_disc


def _max_err(sparse_mat, dense_mat):
    return np.abs(np.asarray(sparse_mat.todense()) - dense_mat).max()


def test_oracle_vector_mass(oracle_disc):
    got = assemble_vector_mass(oracle_disc.V_f, 2.5)
    want = oracles.dense_vector_mass(oracle_disc.V_f, 2.5)
    assert _max_err(got, want) < 1e-12


def test_oracle_symgrad(oracle_disc):
    got = assemble_symgrad(oracle_disc.V_f, 0.9)
    assert _max_err(got, oracles.dense_symgrad(oracle_disc.V_f, 0.9)) < 1e-12


def test_oracle_divdiv(oracle_disc):
    got = assemble_divdiv(oracle_disc.V_s, 1.7)
    assert _max_err(got, oracles.dense_divdiv(oracle_disc.V_s, 1.7)) < 1e-12


def test_oracle_elasticity(oracle_disc):
    got = assemble_elasticity(oracle_disc.V_s, 1.2, 0.8)
    assert _max_err(got, oracles.dense_elasticity(oracle_disc.V_s, 1.2, 0.8)) < 1e-12


def test_oracle_divergence(oracle_disc):
    got = assemble_divergence(oracle_disc.V_f, oracle_disc.Q)
    assert _max_err(got, oracles.dense_divergence(oracle_disc.V_f, oracle_disc.Q)) < 1e-12


def test_oracle_interface_mass(oracle_disc):
    got = assemble_interface_mass(oracle_disc.V_f)
    assert _max_err(got, oracles.dense_interface_mass(oracle_disc.V_f)) < 1e-13


# -- assembly invariances and error handling -----------------------------


def _canonical_perm(space):
    """Dof permutation sorting nodes lexicographically by coordinates."""
    order = np.lexsort((space.node_coords[:, 1], space.node_coords[:, 0]))
    return space.expand(order)


def _shuffled(mesh, seed=3):
    """The same mesh with its cells in a random order."""
    perm = np.random.default_rng(seed).permutation(len(mesh.cells))
    return Mesh(vertices=mesh.vertices, cells=mesh.cells[perm],
                cell_domain=mesh.cell_domain[perm], facets=mesh.facets,
                facet_tags=mesh.facet_tags)


def _reoriented(mesh, seed=4):
    """The same mesh with its facets reversed and in a random order."""
    perm = np.random.default_rng(seed).permutation(len(mesh.facet_tags))
    return Mesh(vertices=mesh.vertices, cells=mesh.cells,
                cell_domain=mesh.cell_domain, facets=mesh.facets[perm, ::-1],
                facet_tags=[mesh.facet_tags[i] for i in perm])


def test_assembly_invariant_under_cell_reordering():
    geom = ChannelGeometry(1.0, 1.0, 1.0)
    mesh = build_two_layer_mesh(geom, 2, 2, 2)
    shuffled = _shuffled(mesh)
    for domain in (FLUID, SOLID):
        s1 = build_space(mesh, domain, VECTOR_P2)
        s2 = build_space(shuffled, domain, VECTOR_P2)
        a1 = np.asarray(assemble_symgrad(s1, 1.0).todense())
        a2 = np.asarray(assemble_symgrad(s2, 1.0).todense())
        p1, p2 = _canonical_perm(s1), _canonical_perm(s2)
        assert np.abs(a1[np.ix_(p1, p1)] - a2[np.ix_(p2, p2)]).max() < 1e-14


_NUMBERING_MESHES = {
    **{f"n{n}": build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), n, n, n)
       for n in (1, 2, 5)},
    "shuffled": _shuffled(build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), 2, 2, 2)),
    "reoriented": _reoriented(build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), 5, 2, 3)),
}


@pytest.mark.parametrize("kind", [VECTOR_P2, SCALAR_P1])
@pytest.mark.parametrize("domain", [FLUID, SOLID])
@pytest.mark.parametrize("mesh_name", list(_NUMBERING_MESHES))
def test_numbering_matches_reference(mesh_name, domain, kind):
    """The array-built numbering is the cell-by-cell dict-built one, exactly."""
    mesh = _NUMBERING_MESHES[mesh_name]
    space = build_space(mesh, domain, kind)
    coords, cell_nodes, boundary, iface, facets = oracles.reference_numbering(
        mesh, domain, space.degree)
    assert np.array_equal(space.node_coords, coords)
    assert np.array_equal(space.cell_nodes, cell_nodes)
    assert space.boundary_nodes.keys() == boundary.keys()
    for tag, nodes in boundary.items():
        assert np.array_equal(space.boundary_nodes[tag], nodes)
    assert np.array_equal(space.interface_nodes, iface)
    assert np.array_equal(space.interface_facets, facets)


def test_assembly_rejections(tiny_disc):
    with pytest.raises(ValueError):
        assemble_vector_mass(tiny_disc.V_f, 0.0)
    with pytest.raises(ValueError):
        assemble_symgrad(tiny_disc.Q, 1.0)
    with pytest.raises(ValueError):
        assemble_elasticity(tiny_disc.V_s, 0.0, 1.0)
    with pytest.raises(ValueError):
        assemble_elasticity(tiny_disc.V_s, 1.0, -1.0)
    solid_q = build_space(tiny_disc.mesh, SOLID, SCALAR_P1)
    with pytest.raises(ValueError):
        assemble_divergence(tiny_disc.V_f, solid_q)


# -- boundary conditions and solves --------------------------------------


def test_apply_dirichlet_empty_is_identity(tiny_disc, rng):
    A = tiny_disc.M_f
    b = rng.standard_normal(A.shape[0])
    A2, b2 = apply_dirichlet(A, b, np.array([], dtype=np.int64))
    assert abs(A - A2).max() == 0.0
    assert np.array_equal(b, b2)


def test_apply_dirichlet_all_dofs(tiny_disc, rng):
    A = tiny_disc.M_f
    b = rng.standard_normal(A.shape[0])
    A2, b2 = apply_dirichlet(A, b, np.arange(A.shape[0]))
    assert np.abs(Factorization(A2).solve(b2)).max() == 0.0


def test_apply_dirichlet_matches_reduced_dense(small_disc, rng):
    A = (small_disc.M_f + assemble_symgrad(small_disc.V_f, 1.0)).tocsr()
    b = rng.standard_normal(A.shape[0])
    dofs = small_disc.dir_f
    A2, b2 = apply_dirichlet(A, b, dofs)
    assert abs(A2 - A2.T).max() < 1e-14  # symmetric elimination
    x = Factorization(A2).solve(b2)
    want = oracles.dense_reduced_solve(A, b, dofs)
    assert np.abs(x - want).max() < 1e-12


def test_apply_dirichlet_nonhomogeneous(small_disc, rng):
    A = (small_disc.M_f + assemble_symgrad(small_disc.V_f, 1.0)).tocsr()
    b = rng.standard_normal(A.shape[0])
    dofs = small_disc.dir_f
    vals = rng.standard_normal(dofs.size)
    A2, b2 = apply_dirichlet(A, b, dofs, vals)
    x = Factorization(A2).solve(b2)
    assert np.abs(x[dofs] - vals).max() < 1e-14
    # free part solves the lifted reduced system
    lift = np.zeros(A.shape[0])
    lift[dofs] = vals
    want = oracles.dense_reduced_solve(A, b - A @ lift, dofs) + lift
    assert np.abs(x - want).max() < 1e-12


def _unsorted(A, fmt="csr"):
    """A copy of A in the given compressed format with the entries of every
    row (column) in reverse order: valid, but not canonical."""
    A = A.asformat(fmt, copy=True)
    for k in range(A.shape[0] if fmt == "csr" else A.shape[1]):
        seg = slice(A.indptr[k], A.indptr[k + 1])
        A.indices[seg], A.data[seg] = A.indices[seg][::-1].copy(), A.data[seg][::-1].copy()
    A.has_sorted_indices = False
    return A


@pytest.mark.parametrize("case", ["unsorted_dofs", "duplicate_dofs", "values",
                                  "unsorted_indices_stored_zero"])
def test_apply_dirichlet_matches_dense_oracle(small_disc, rng, case):
    """D A D + I entry for entry, and the lifted right-hand side, on the
    inputs a masked elimination can get wrong: fixed dofs out of order (the
    solid extension passes its outer and interface dofs concatenated) or
    repeated, prescribed values, and a matrix that is not canonical."""
    d = small_disc
    A = (d.M_s + d.stiffness_solid(1.0, 0.0)).tocsr()
    b = rng.standard_normal(A.shape[0])
    dofs = np.concatenate([d.dir_s, d.ifd_s])
    assert not np.all(np.diff(dofs) > 0)
    values = None
    if case == "duplicate_dofs":
        dofs = np.concatenate([dofs, dofs[::3]])
    elif case == "values":
        dofs = rng.permutation(dofs)
        values = rng.standard_normal(dofs.size)
    elif case == "unsorted_indices_stored_zero":
        A = _unsorted(A)
        free = np.setdiff1d(np.arange(A.shape[0]), dofs)
        row = free[0]
        k = A.indptr[row] + np.flatnonzero(np.isin(A.indices[A.indptr[row]:A.indptr[row + 1]],
                                                   free[1:]))[0]
        A.data[k] = 0.0  # a stored zero in a free row and column
    before = (A.indptr.copy(), A.indices.copy(), A.data.copy())
    A2, b2 = apply_dirichlet(A, b, dofs, values)
    want_A, want_b = oracles.dense_dirichlet(A, b, dofs, values)
    assert np.array_equal(A2.toarray(), want_A)
    assert np.abs(b2 - want_b).max() <= 1e-13 * np.abs(want_b).max()
    assert A2.format == "csr" and A2.has_canonical_format and np.all(A2.data != 0)
    assert all(np.array_equal(x, y) for x, y in zip(before, (A.indptr, A.indices, A.data)))


def test_solve_identity_and_diagonal():
    b = np.array([3.0, -1.0])
    assert np.array_equal(Factorization(sp.identity(2, format="csr")).solve(b), b)
    A = sp.csr_matrix(np.diag([2.0, 4.0]))
    assert np.allclose(Factorization(A).solve(np.array([2.0, 8.0])), [1.0, 2.0])


def test_solve_random_spd_vs_dense(rng):
    G = rng.standard_normal((50, 50))
    dense = G @ G.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = Factorization(sp.csr_matrix(dense)).solve(b)
    want = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - want) < 1e-10 * np.linalg.norm(want)
    resid = np.linalg.norm(dense @ x - b)
    bound = 1e-10 * (np.abs(dense).sum(axis=1).max() * np.linalg.norm(x)
                     + np.linalg.norm(b))
    assert resid <= bound


def test_solve_deterministic(small_disc, rng):
    A = (small_disc.M_f + assemble_symgrad(small_disc.V_f, 1.0)).tocsr()
    b = rng.standard_normal(A.shape[0])
    lu = Factorization(A)
    x1 = lu.solve(b)
    assert np.array_equal(lu.solve(b), x1)
    assert np.array_equal(Factorization(A).solve(b), x1)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_operators_store_no_zeros(small_disc, params):
    d = small_disc
    for A in (d.M_f, d.M_s, d.B, d.M_if, d.M_is, d.stiffness_fluid(params.mu),
              d.stiffness_solid(params.l1, params.l2)):
        assert A.nnz > 0 and np.all(A.data != 0)
    # the mass forms couple no x component with a y component
    assert d.M_f[0::2, 1::2].nnz == 0


def test_factorization_orders_to_structure(params, monkeypatch):
    """The symmetric operators (solid, extension, projection) have less fill
    than COLAMD gives them, the fluid saddle less than partially pivoted
    COLAMD."""
    made = []

    class Recording(Factorization):
        def __init__(self, A):
            super().__init__(A)
            made.append((A.tocsc(), self))

    monkeypatch.setattr(splitting, "Factorization", Recording)
    monkeypatch.setattr(initial_data, "Factorization", Recording)
    d = Discretization(ChannelGeometry(1.0, 1.0, 1.0), 16, 16, 16)
    RobinRobinSolver(d, params, TimeGrid(0.5, 64, 2))
    initial_data.solid_extension(d, np.ones(d.ifd_s.size))
    initial_data.project_divergence_free(d, np.ones(d.V_f.ndof))
    (S, solid), (F, fluid), (E, extension), (P, projection) = made
    assert abs(S - S.T).max() == 0 and abs(F - F.T).max() > 0
    assert abs(P - P.T).max() == 0
    for A, fac in ((S, solid), (E, extension)):
        assert _fill(fac._lu) < _fill(spla.splu(A, permc_spec="COLAMD"))
    assert _fill(fluid._lu) < _fill(spla.splu(F, permc_spec="COLAMD"))
    # the zero block of the projection's saddle point does not send it to
    # COLAMD: minimum degree beats it under the same pivoting
    assert _fill(projection._lu) < _fill(
        spla.splu(P, permc_spec="COLAMD", diag_pivot_thresh=0.01))


def test_symmetric_path_pivots_tiny_diagonal(monkeypatch):
    # a zero pivot threshold would keep the 1e-17 pivot and return [2, 0];
    # 1e-17 lies below the 0.01 threshold, so the row swap still happens
    used = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: used.append(kw) or splu(A, **kw))
    A = sp.csr_matrix(np.array([[1e-17, 1.0], [1.0, 1e-17]]))
    b = np.array([1.0, 2.0])
    x = Factorization(A).solve(b)
    assert used == [{"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.01}]
    assert np.array_equal(x, [2.0, 1.0])
    assert np.abs(b - A @ x).max() == 0.0


def _one_ulp_off(A):
    A = A.tocsr(copy=True)
    k = A.indptr[3] + np.flatnonzero(A.indices[A.indptr[3]:A.indptr[4]] != 3)[0]
    A.data[k] = np.nextafter(A.data[k], np.inf)
    return A


def _nan_on_diagonal(A):
    A = A.tocsr(copy=True)
    A[2, 2] = np.nan
    return A


@pytest.mark.parametrize("perturb,order", [
    (lambda A: _unsorted(A, "csc"), "MMD_AT_PLUS_A"),
    (lambda A: _unsorted(A, "csr"), "MMD_AT_PLUS_A"),
    (_one_ulp_off, "COLAMD"),
    (_nan_on_diagonal, "COLAMD"),
], ids=["unsorted_csc", "unsorted_csr", "one_ulp", "nan"])
def test_ordering_follows_exact_symmetry(small_disc, params, monkeypatch, perturb, order):
    used = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: used.append(kw) or splu(A, **kw))
    S, _ = apply_dirichlet(small_disc.solid_operator(params, 0.1),
                           np.zeros(small_disc.V_s.ndof), small_disc.dir_s)
    A = perturb(S)
    indices, data = A.indices.copy(), A.data.copy()
    if np.isnan(A.data).any():
        with pytest.raises(SingularSystemError):  # SuperLU reads the NaN pivot as singular
            Factorization(A)
    else:
        Factorization(A)
    assert used == [{"permc_spec": order, "diag_pivot_thresh": 0.01}]
    assert np.array_equal(A.indices, indices)  # the caller's matrix is not sorted in place
    assert np.array_equal(A.data, data, equal_nan=True)


@pytest.mark.parametrize("perturb", [lambda x: 1.001 * x, lambda x: np.nan * x],
                         ids=["scaled", "nan"])
def test_first_solve_checks_backward_error(small_disc, rng, perturb):
    A = (small_disc.M_f + assemble_symgrad(small_disc.V_f, 1.0)).tocsr()
    fac = Factorization(A)
    lu = fac._lu

    class Perturbed:
        def solve(self, b):
            return perturb(lu.solve(b))

    fac._lu = Perturbed()
    fac.solve(np.zeros(A.shape[0]))  # a zero right-hand side is not checked
    with pytest.raises(SingularSystemError, match="backward error"):
        fac.solve(rng.standard_normal(A.shape[0]))


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        Factorization(A)
