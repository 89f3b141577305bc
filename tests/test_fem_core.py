import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from fsisplit import (ChannelGeometry, Discretization, RobinRobinSolver,
                      TimeGrid, initial_data, monolithic, splitting)
from fsisplit.assembly import (Factorization, SingularSystemError,
                               apply_dirichlet, assemble_divdiv,
                               assemble_divergence, assemble_elasticity,
                               assemble_symgrad, assemble_vector_mass,
                               grid_dissection, stack_saddle)
from fsisplit.mesh import FLUID, SOLID, Mesh, build_two_layer_mesh
from fsisplit.monolithic import MonolithicSolver, run_dirichlet_neumann
from fsisplit.spaces import SCALAR_P1, VECTOR_P2, build_space


# -- analytic quadratic-form examples ------------------------------------


def test_vector_mass_constant_field(tiny_disc):
    M = assemble_vector_mass(tiny_disc.V_f)
    v = np.ones(tiny_disc.V_f.ndof)
    # two components, each integrating 1 over the unit square
    assert v @ (M @ v) == pytest.approx(2.0, rel=1e-13)
    assert abs(M - M.T).max() == 0.0


def test_symgrad_rigid_motions(small_disc):
    K = assemble_symgrad(small_disc.V_f, 1.0)
    for f in (lambda x, y: (1.0, -2.0), lambda x, y: (-y, x)):
        v = oracles.interpolate(small_disc.V_f, f)
        assert np.abs(K @ v).max() < 1e-12


def test_symgrad_linear_shear(tiny_disc):
    mu = 0.7
    K = assemble_symgrad(tiny_disc.V_f, mu)
    v = oracles.interpolate(tiny_disc.V_f, lambda x, y: (x, 0.0))
    assert v @ (K @ v) == pytest.approx(2.0 * mu, rel=1e-13)


def test_elasticity_examples(tiny_disc):
    l1, l2 = 1.3, 0.4
    A = assemble_elasticity(tiny_disc.V_s, l1, l2)
    w = oracles.interpolate(tiny_disc.V_s, lambda x, y: (2.0, 5.0))
    assert abs(w @ (A @ w)) < 1e-12
    w = oracles.interpolate(tiny_disc.V_s, lambda x, y: (x, y))
    assert w @ (A @ w) == pytest.approx(4.0 * l1 + 4.0 * l2, rel=1e-13)
    # form additivity, entrywise
    parts = assemble_symgrad(tiny_disc.V_s, l1) + assemble_divdiv(tiny_disc.V_s, l2)
    assert abs(A - parts).max() < 1e-14


def test_divergence_examples(tiny_disc):
    B = tiny_disc.B
    v = oracles.interpolate(tiny_disc.V_f, lambda x, y: (0.4, -1.1))
    assert np.abs(B @ v).max() < 1e-13
    v = oracles.interpolate(tiny_disc.V_f, lambda x, y: (x, -y))
    assert np.abs(B @ v).max() < 1e-13
    v = oracles.interpolate(tiny_disc.V_f, lambda x, y: (x, 0.0))
    q = np.ones(tiny_disc.Q.ndof)
    assert q @ (B @ v) == pytest.approx(1.0, rel=1e-13)


def test_interface_mass_examples(small_disc):
    space = small_disc.V_f
    M = small_disc.M_if
    v = oracles.interpolate(space, lambda x, y: (1.0, 0.0))  # unit tangential field
    assert v @ (M @ v) == pytest.approx(small_disc.geom.length, rel=1e-13)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(space.ndof)
    on_iface = np.isclose(space.node_coords[:, 1], small_disc.geom.fluid_height)
    v[space.expand(np.flatnonzero(on_iface))] = 0.0
    assert abs(v @ (M @ v)) < 1e-13


# the unit channel of the shipped configs (None: the session fixture), the
# timeloop benchmark's, and the CI variants' strip and stretched channel
_TRACTION_SHAPES = {"16x16x16": None,
                    "32x32x32": ((1.0, 1.0, 1.0), 32, 32, 32),
                    "2x32x32": ((1.0, 1.0, 1.0), 2, 32, 32),
                    "stretched": ((3.0, 0.2, 0.5), 16, 16, 16)}


@pytest.mark.parametrize("name", list(_TRACTION_SHAPES))
def test_traction_dual_norm_on_shipped_shapes(request, name):
    shape = _TRACTION_SHAPES[name]
    d = (request.getfixturevalue("shipped_disc") if shape is None
         else Discretization(ChannelGeometry(*shape[0]), *shape[1:]))
    rng = np.random.default_rng(17)
    for _ in range(3):
        f = rng.standard_normal(d.ifd_f.size)
        assert d.traction_norm_sq(f) == pytest.approx(
            f @ np.linalg.solve(d.M_c, f), rel=1e-13)


# edge lengths whose squares underflow to 0, or overflow to inf
@pytest.mark.parametrize("length", [1e-200, 1e200])
def test_degenerate_interface_mass_is_singular(length):
    with np.errstate(over="ignore"), pytest.raises(
            SingularSystemError, match="interface mass is singular"):
        Discretization(ChannelGeometry(length, 1.0, 1.0), 1, 1, 2)


def test_setup_runs_no_dense_factorization(params, monkeypatch):
    """A dense factorization runs BLAS's threaded kernels, which can stall
    for a tenth of a second per call; the set-up uses sparse and banded
    factors only."""
    def dense(*args, **kwargs):
        raise AssertionError("dense factorization in the set-up")

    for module, names in ((np.linalg, ("inv", "solve")),
                          (scipy.linalg, ("inv", "solve", "cho_factor",
                                          "lu_factor"))):
        for name in names:
            monkeypatch.setattr(module, name, dense)
    d = Discretization(ChannelGeometry(1.0, 1.0, 1.0), 8, 8, 8)
    RobinRobinSolver(d, params, TimeGrid(0.5, 16, 2))
    MonolithicSolver(d, params, 1.0 / 32)


# -- cellwise assembly oracle --------------------------------------------


_MASS_MESHES = {"16x16x16": ((1.0, 1.0, 1.0), 16, 16, 16),
                "2x32x32": ((1.0, 1.0, 1.0), 2, 32, 32),
                "stretched": ((3.0, 0.2, 0.5), 16, 16, 16)}


@pytest.mark.parametrize("name", list(_MASS_MESHES))
def test_mass_forms_match_cellwise_vector_assembly(name):
    """The mass forms scattered once per component are the per-cell vector
    construction: bit for bit on the unit channel, where every cell has the
    same |det J| and every edge a power-of-two length, and to round-off
    elsewhere."""
    geom, *cells = _MASS_MESHES[name]
    d = Discretization(ChannelGeometry(*geom), *cells)
    for got, want in ((d.M_f, oracles.cellwise_vector_mass(d.V_f, 1.0)),
                      (d.M_s, oracles.cellwise_vector_mass(d.V_s, 1.0)),
                      (d.M_if, oracles.cellwise_interface_mass(d.V_f)),
                      (d.M_is, oracles.cellwise_interface_mass(d.V_s))):
        assert got.has_canonical_format and np.all(got.data != 0)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        if name == "stretched":
            scale = np.abs(want.data).max()
            assert np.abs(got.data - want.data).max() <= 1e-15 * scale
        else:
            assert np.array_equal(got.data, want.data)


# -- assembly invariances and error handling -----------------------------


def _canonical_perm(space):
    """Dof permutation sorting nodes lexicographically by coordinates."""
    order = np.lexsort((space.node_coords[:, 1], space.node_coords[:, 0]))
    return space.expand(order)


def _shuffled(mesh, seed=3):
    """The same mesh with its cells in a random order."""
    perm = np.random.default_rng(seed).permutation(len(mesh.cells))
    return Mesh(vertices=mesh.vertices, cells=mesh.cells[perm],
                cell_domain=mesh.cell_domain[perm])


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
    "5x2x3": build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), 5, 2, 3),
    "stretched": build_two_layer_mesh(ChannelGeometry(3.0, 0.2, 0.5), 6, 3, 4),
    "strip": build_two_layer_mesh(ChannelGeometry(1.0, 1.0, 1.0), 2, 8, 8),
}


@pytest.mark.parametrize("kind", [VECTOR_P2, SCALAR_P1])
@pytest.mark.parametrize("domain", [FLUID, SOLID])
@pytest.mark.parametrize("mesh_name", list(_NUMBERING_MESHES))
def test_numbering_matches_reference(mesh_name, domain, kind):
    """The array-built numbering is the cell-by-cell dict-built one, exactly."""
    mesh = _NUMBERING_MESHES[mesh_name]
    space = build_space(mesh, domain, kind)
    coords, cell_nodes, dirichlet, iface, facets = oracles.reference_numbering(
        mesh, domain, space.degree)
    assert np.array_equal(space.node_coords, coords)
    assert np.array_equal(space.cell_nodes, cell_nodes)
    assert dirichlet.size and np.array_equal(space.dirichlet_nodes, dirichlet)
    assert np.array_equal(space.interface_nodes, iface)
    assert np.array_equal(space.interface_facets, facets)


def test_assembly_rejections(tiny_disc):
    with pytest.raises(ValueError):
        assemble_symgrad(tiny_disc.Q, 1.0)
    solid_q = build_space(tiny_disc.mesh, SOLID, SCALAR_P1)
    with pytest.raises(ValueError):
        assemble_divergence(tiny_disc.V_f, solid_q)


# -- boundary conditions and solves --------------------------------------


def test_apply_dirichlet_empty_is_identity(tiny_disc):
    A = tiny_disc.M_f
    A2 = apply_dirichlet(A, np.array([], dtype=np.int64))
    assert abs(A - A2).max() == 0.0


def test_apply_dirichlet_all_dofs(tiny_disc):
    A = tiny_disc.M_f
    A2 = apply_dirichlet(A, np.arange(A.shape[0]))
    assert abs(A2 - sp.identity(A.shape[0])).max() == 0.0
    fac = Factorization(A, _natural(A), np.arange(A.shape[0]))
    assert np.abs(fac.solve(np.zeros(A.shape[0]))).max() == 0.0


def test_apply_dirichlet_matches_reduced_dense(small_disc, rng):
    A = (small_disc.M_f + assemble_symgrad(small_disc.V_f, 1.0)).tocsr()
    b = rng.standard_normal(A.shape[0])
    dofs = small_disc.dir_f
    A2 = apply_dirichlet(A, dofs)
    assert abs(A2 - A2.T).max() < 1e-14  # symmetric elimination
    b[dofs] = 0.0
    x = Factorization(A, _natural(A), dofs).solve(b)
    want = oracles.dense_reduced_solve(A, b, dofs)
    assert np.abs(x - want).max() < 1e-12


def test_solve_zeroes_fixed_rows(small_disc, rng):
    """The fixed rows of b are zeroed on the solve's own copy, in the
    factored order: x is exactly 0 there, its free entries are those of the
    solve of b zeroed by the caller, and the caller's b is left as it was."""
    d = small_disc
    A = (d.M_f + assemble_symgrad(d.V_f, 1.0)).tocsr()
    order = grid_dissection(d.V_f.dof_coords)
    assert not np.array_equal(order, _natural(A))
    fac = Factorization(A, order, d.dir_f)
    b = rng.standard_normal(A.shape[0])
    kept = b.copy()
    x = fac.solve(b)
    assert np.array_equal(b, kept)
    assert np.all(b[d.dir_f] != 0.0) and np.all(x[d.dir_f] == 0.0)
    kept[d.dir_f] = 0.0
    assert np.array_equal(fac.solve(kept), x)


def test_lifting_carries_prescribed_values(small_disc, rng):
    """x = g + solve(b - A @ g) holds g bit for bit at the fixed dofs, and
    its free entries solve the reduced system with g moved to the right."""
    d = small_disc
    A = d.M_s + d.stiffness_solid(1.0, 0.0)
    fixed = np.concatenate([d.dir_s, d.ifd_s])
    g = np.zeros(A.shape[0])
    g[fixed] = rng.standard_normal(fixed.size)
    b = rng.standard_normal(A.shape[0])
    x = g + Factorization(A, d.solid_order, fixed).solve(b - A @ g)
    assert np.array_equal(x[fixed], g[fixed])
    want = oracles.dense_reduced_solve(A, b - A @ g, fixed) + g
    assert np.abs(x - want).max() < 1e-12


def _natural(A):
    """The natural order of A's unknowns, for a matrix that no
    `Discretization` order covers."""
    return np.arange(A.shape[0])


# no fixed dofs: for a matrix a test builds or perturbs itself, which an
# elimination must leave as it is
_NONE = np.array([], dtype=np.int64)


def _unsorted(A, fmt="csr"):
    """A copy of A in the given compressed format with the entries of every
    row (column) in reverse order: valid, but not canonical."""
    A = A.asformat(fmt, copy=True)
    for k in range(A.shape[0] if fmt == "csr" else A.shape[1]):
        seg = slice(A.indptr[k], A.indptr[k + 1])
        A.indices[seg], A.data[seg] = A.indices[seg][::-1].copy(), A.data[seg][::-1].copy()
    A.has_sorted_indices = False
    return A


@pytest.mark.parametrize("case", ["unsorted_dofs", "duplicate_dofs", "permuted_dofs",
                                  "unsorted_indices_stored_zero"])
def test_apply_dirichlet_matches_dense_oracle(small_disc, rng, case):
    """D A D + I entry for entry on the inputs a masked elimination can get
    wrong: fixed dofs out of order (the solid extension passes its outer and
    interface dofs concatenated), shuffled or repeated, and a matrix that is
    not canonical."""
    d = small_disc
    A = (d.M_s + d.stiffness_solid(1.0, 0.0)).tocsr()
    dofs = np.concatenate([d.dir_s, d.ifd_s])
    assert not np.all(np.diff(dofs) > 0)
    if case == "duplicate_dofs":
        dofs = np.concatenate([dofs, dofs[::3]])
    elif case == "permuted_dofs":
        dofs = rng.permutation(dofs)
    elif case == "unsorted_indices_stored_zero":
        A = _unsorted(A)
        free = np.setdiff1d(np.arange(A.shape[0]), dofs)
        row = free[0]
        k = A.indptr[row] + np.flatnonzero(np.isin(A.indices[A.indptr[row]:A.indptr[row + 1]],
                                                   free[1:]))[0]
        A.data[k] = 0.0  # a stored zero in a free row and column
    before = (A.indptr.copy(), A.indices.copy(), A.data.copy())
    A2 = apply_dirichlet(A, dofs)
    assert np.array_equal(A2.toarray(), oracles.dense_dirichlet(A, dofs))
    assert A2.format == "csr" and A2.has_canonical_format and np.all(A2.data != 0)
    assert all(np.array_equal(x, y) for x, y in zip(before, (A.indptr, A.indices, A.data)))


def test_solve_identity_and_diagonal():
    b = np.array([3.0, -1.0])
    identity = sp.identity(2, format="csr")
    assert np.array_equal(Factorization(identity, _natural(identity), _NONE).solve(b), b)
    A = sp.csr_matrix(np.diag([2.0, 4.0]))
    assert np.allclose(Factorization(A, _natural(A), _NONE).solve(np.array([2.0, 8.0])),
                       [1.0, 2.0])


def test_solve_random_spd_vs_dense(rng):
    G = rng.standard_normal((50, 50))
    dense = G @ G.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = Factorization(sp.csr_matrix(dense), np.arange(50), _NONE).solve(b)
    want = np.linalg.solve(dense, b)
    assert np.linalg.norm(x - want) < 1e-10 * np.linalg.norm(want)
    resid = np.linalg.norm(dense @ x - b)
    bound = 1e-10 * (np.abs(dense).sum(axis=1).max() * np.linalg.norm(x)
                     + np.linalg.norm(b))
    assert resid <= bound


def test_solve_deterministic(small_disc, rng):
    A = (small_disc.M_f + assemble_symgrad(small_disc.V_f, 1.0)).tocsr()
    b = rng.standard_normal(A.shape[0])
    lu = Factorization(A, _natural(A), _NONE)
    x1 = lu.solve(b)
    assert np.array_equal(lu.solve(b), x1)
    assert np.array_equal(Factorization(A, _natural(A), _NONE).solve(b), x1)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_operators_store_no_zeros(small_disc, shipped_disc, params):
    d = small_disc
    for A in (d.M_f, d.M_s, d.B, d.M_if, d.M_is, d.stiffness_fluid(params.mu),
              d.stiffness_solid(params.l1, params.l2)):
        assert A.has_canonical_format and A.nnz > 0 and np.all(A.data != 0)
    # the mass forms couple no x component with a y component
    for M in (d.M_f, d.M_s, d.M_if, d.M_is):
        assert M[0::2, 1::2].nnz == 0 and M[1::2, 0::2].nnz == 0
    # nor round-off where the exact integral is 0
    d = shipped_disc
    for A in (d.M_f, d.M_s, d.B, d.stiffness_fluid(params.mu),
              d.stiffness_solid(params.l1, params.l2)):
        assert A.has_canonical_format
        assert np.abs(A.data).min() > 1e-12 * np.abs(A.data).max()
    # the Robin operators add lam M_iface at every lam: at lam = 0 the sum
    # must store no zero and keep the bits of the operator without that term
    for d in (small_disc, shipped_disc):
        for ddt in (1.0 / 128, 1e-3, 10.0):
            for lam in (0.0, params.lambda_robin):
                for A in (d.fluid_saddle(params, ddt, lam),
                          d.solid_operator(params, ddt, lam)):
                    assert A.has_canonical_format
                    assert A.nnz > 0 and np.all(A.data != 0)
            plain = (stack_saddle((params.rho_f / ddt) * d.M_f
                                  + d.stiffness_fluid(params.mu), -d.BT, d.B),
                     (params.rho_s / ddt) * d.M_s
                     + ddt * d.stiffness_solid(params.l1, params.l2))
            for A, want in zip((d.fluid_saddle(params, ddt, 0.0),
                                d.solid_operator(params, ddt, 0.0)), plain):
                for got, ref in ((A.indptr, want.indptr),
                                 (A.indices, want.indices), (A.data, want.data)):
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_factorization_orders_to_structure(shipped_disc, params, monkeypatch):
    """Every factorization the program makes keeps its grid dissection, and
    has less fill under it than under minimum degree on A + A^T or COLAMD
    with the same threshold pivoting."""
    made = []

    class Recording(Factorization):
        def __init__(self, A, order, fixed):
            super().__init__(A, order, fixed)
            made.append((apply_dirichlet(A, fixed).tocsc(), self))

    for module in (splitting, initial_data, monolithic):
        monkeypatch.setattr(module, "Factorization", Recording)
    d = shipped_disc
    RobinRobinSolver(d, params, TimeGrid(0.5, 64, 2))
    initial_data.solid_extension(d, np.ones(d.ifd_s.size))
    initial_data.project_divergence_free(d, np.ones(d.V_f.ndof))
    MonolithicSolver(d, params, 1.0 / 256)
    next(run_dirichlet_neumann(d, params, 1.0 / 128,
                               initial_data.pressure_pulse(d)))
    orders = [d.solid_order, d.fluid_order, d.solid_order, d.fluid_order, None,
              d.solid_order, d.fluid_order]
    assert len(made) == len(orders)
    for (M, fac), order in zip(made, orders):
        if order is not None:  # the monolithic matrix orders its own unknowns
            assert fac._order is order
        for spec in ("MMD_AT_PLUS_A", "COLAMD"):
            assert _fill(fac._lu) < _fill(
                spla.splu(M, permc_spec=spec, diag_pivot_thresh=0.01))


_DISSECTED = {"1x1x1": ((1.0, 1.0, 1.0), 1, 1, 1),
              "2x32x32": ((1.0, 1.0, 1.0), 2, 32, 32),
              "32x4x4": ((1.0, 1.0, 1.0), 32, 4, 4),
              "stretched": ((3.0, 0.2, 0.5), 16, 16, 16)}


@pytest.mark.parametrize("name", list(_DISSECTED))
def test_grid_dissection(params, name):
    """The fluid order, the solid order and the order of all of a mesh's
    unknowns are a deterministic nested dissection: the mask oracle's blocks,
    in which every separator is a vertex line that decouples its two halves,
    and every block keeps ascending index (so velocity before pressure)."""
    geom, *cells = _DISSECTED[name]
    d = Discretization(ChannelGeometry(*geom), *cells)
    F = d.fluid_saddle(params, 0.1, 1.0)
    S = d.solid_operator(params, 0.1, 1.0)
    nf = F.shape[0]
    every = np.vstack([d.V_f.dof_coords, d.Q.dof_coords, d.V_s.dof_coords])
    xs, all_ys = (np.unique(d.mesh.vertices[:, a]) for a in (0, 1))
    for coords, order, matrix in ((every[:nf], d.fluid_order, F),
                                  (d.V_s.dof_coords, d.solid_order, S),
                                  (every, grid_dissection(every), None)):
        assert np.array_equal(np.sort(order), np.arange(len(coords)))
        assert np.array_equal(grid_dissection(coords.copy()), order)
        ys = all_ys[(all_ys >= coords[:, 1].min()) & (all_ys <= coords[:, 1].max())]
        blocks = oracles.dissection_blocks(coords, xs, ys)
        assert np.array_equal(np.concatenate([b for b, _ in blocks]), order)
        for block, halves in blocks:
            assert np.all(np.diff(block) > 0)
            if halves is None:
                continue
            on_x = np.isin(coords[block, 0], xs).all() and np.ptp(coords[block, 0]) == 0
            on_y = np.isin(coords[block, 1], ys).all() and np.ptp(coords[block, 1]) == 0
            assert on_x or on_y
            if matrix is not None:  # no entry couples the halves
                assert matrix[halves[0]][:, halves[1]].nnz == 0


def _robin_fluid_saddle(d, params):
    return apply_dirichlet(d.fluid_saddle(params, 0.1, 1.0), d.dir_f)


def test_ordered_solve_matches_dense(run_disc, params, rng):
    d = run_disc
    F = _robin_fluid_saddle(d, params)
    b = rng.standard_normal(F.shape[0])
    b[d.dir_f] = 0.0
    fac = Factorization(F, d.fluid_order, _NONE)
    assert not np.array_equal(d.fluid_order, np.arange(F.shape[0]))
    x = fac.solve(b)
    want = np.linalg.solve(F.toarray(), b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    assert fac._unchecked is None  # checked once, in the factored order


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_unordered_nonsymmetric_solve_matches_dense(rng, fmt):
    """Solves A x = b, not A^T x = b, for a matrix far from symmetric."""
    n = 80
    A = (sp.diags([-1.0, 4.0, -2.5], [-1, 0, 1], shape=(n, n))
         + sp.random(n, n, density=0.05, random_state=rng)).asformat(fmt)
    assert abs(A - A.T).max() >= 1.0
    b = rng.standard_normal(n)
    x = Factorization(A, _natural(A), _NONE).solve(b)
    want = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_ordered_nan_raises(run_disc, params):
    F = _robin_fluid_saddle(run_disc, params)
    with pytest.raises(SingularSystemError):  # SuperLU reads the NaN pivot as singular
        Factorization(_nan_on_diagonal(F), run_disc.fluid_order, _NONE)


def test_symmetric_path_pivots_tiny_diagonal(monkeypatch):
    # a zero pivot threshold would keep the 1e-17 pivot and return [2, 0];
    # 1e-17 lies below the 0.01 threshold, so the row swap still happens
    used = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: used.append(kw) or splu(A, **kw))
    A = sp.csr_matrix(np.array([[1e-17, 1.0], [1.0, 1e-17]]))
    b = np.array([1.0, 2.0])
    x = Factorization(A, _natural(A), _NONE).solve(b)
    assert used == [{"permc_spec": "NATURAL", "diag_pivot_thresh": 0.01}]
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


@pytest.mark.parametrize("perturb", [
    lambda A: _unsorted(A, "csc"), lambda A: _unsorted(A, "csr"),
    _one_ulp_off, _nan_on_diagonal,
], ids=["unsorted_csc", "unsorted_csr", "one_ulp", "nan"])
def test_ordering_follows_exact_symmetry(small_disc, params, monkeypatch, rng, perturb):
    """Every matrix keeps the order it is given, whether it is exactly
    symmetric or not; the solve of a matrix one ulp off symmetric still
    passes the backward-error check."""
    used = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: used.append(kw) or splu(A, **kw))
    S = apply_dirichlet(small_disc.solid_operator(params, 0.1), small_disc.dir_s)
    A = perturb(S)
    indices, data = A.indices.copy(), A.data.copy()
    if np.isnan(A.data).any():
        with pytest.raises(SingularSystemError):  # SuperLU reads the NaN pivot as singular
            Factorization(A, small_disc.solid_order, _NONE)
    else:
        fac = Factorization(A, small_disc.solid_order, _NONE)
        b = rng.standard_normal(A.shape[0])
        b[small_disc.dir_s] = 0.0
        fac.solve(b)
        assert fac._unchecked is None
    assert used == [{"permc_spec": "NATURAL", "diag_pivot_thresh": 0.01}]
    assert np.array_equal(A.indices, indices)  # the caller's matrix is not sorted in place
    assert np.array_equal(A.data, data, equal_nan=True)


@pytest.mark.parametrize("perturb", [lambda x: 1.001 * x, lambda x: np.nan * x],
                         ids=["scaled", "nan"])
def test_first_solve_checks_backward_error(small_disc, rng, perturb):
    A = (small_disc.M_f + assemble_symgrad(small_disc.V_f, 1.0)).tocsr()
    fac = Factorization(A, _natural(A), _NONE)
    lu = fac._lu

    class Perturbed:
        def solve(self, b, trans="N"):
            return perturb(lu.solve(b, trans))

    fac._lu = Perturbed()
    fac.solve(np.zeros(A.shape[0]))  # a zero right-hand side is not checked
    with pytest.raises(SingularSystemError, match="backward error"):
        fac.solve(rng.standard_normal(A.shape[0]))


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError):
        Factorization(A, _natural(A), _NONE)
