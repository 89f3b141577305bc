import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsisplit import (ChannelGeometry, Discretization, PhysicalParams,
                      RobinRobinSolver, SplitState, TimeGrid)
from fsisplit.experiments import robin_robin
from fsisplit.initial_data import random_state
from fsisplit.splitting import WindowSample


def zero_trace(disc):
    return np.zeros(disc.ifd_f.size)


def zero_state(disc):
    return SplitState(t=0.0, u=np.zeros(disc.V_f.ndof), p=np.zeros(disc.Q.ndof),
                      eta=np.zeros(disc.V_s.ndof), etad=np.zeros(disc.V_s.ndof),
                      u_avg=zero_trace(disc), traction_avg=zero_trace(disc))


def dual_norm(disc, load):
    return np.sqrt(max(disc.traction_norm_sq(load), 0.0))


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 1.0, 1.0, 1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        PhysicalParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    # l2 = 0 is a legal Lame regime
    PhysicalParams(1.0, 1.0, 1.0, 1.0, 0.0, 1.0)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 4, 0)
    grid = TimeGrid(1.0, 4, 2)
    assert grid.dt == 0.25 and grid.ddt == 0.125


def test_zero_state_is_fixed_point(run_disc, params):
    grid = TimeGrid(0.1, 2)
    *_, state = RobinRobinSolver(run_disc, params, grid).run(zero_state(run_disc))
    for field in (state.u, state.p, state.eta, state.etad,
                  state.u_avg, state.traction_avg):
        assert np.abs(field).max() == 0.0
    ledger = robin_robin(run_disc, params, grid, zero_state(run_disc))
    assert ledger.residuals().max() == 0.0


def test_solid_energy_decay_with_zero_interface_data(run_disc, params, rng):
    solver = RobinRobinSolver(run_disc, params, TimeGrid(0.2, 4, 2))
    d = run_disc
    eta = rng.standard_normal(d.V_s.ndof)
    etad = rng.standard_normal(d.V_s.ndof)
    eta[d.dir_s] = etad[d.dir_s] = 0.0

    def energy(eta, etad):
        return (0.5 * params.rho_s * etad @ (d.M_s @ etad)
                + 0.5 * eta @ (d.stiffness_solid(params.l1, params.l2) @ eta))

    e_prev = energy(eta, etad)
    for _ in range(4 * solver.grid.substeps):
        eta, etad = solver.solid_step(eta, etad, zero_trace(d), zero_trace(d))
        e = energy(eta, etad)
        assert e <= e_prev * (1.0 + 1e-12)
        e_prev = e


def test_solid_robin_residual(run_disc, params, rng):
    grid = TimeGrid(0.1, 2)
    solver = RobinRobinSolver(run_disc, params, grid)
    d = run_disc
    state = random_state(d, rng)
    lam = params.lambda_robin
    eta, etad = state.eta, state.etad
    for _ in range(grid.substeps):
        etad_prev = etad
        eta, etad = solver.solid_step(eta, etad, state.u_avg, state.traction_avg)
        # interior residual at interface rows recovers <sigma_s n_s, w>
        r = ((params.rho_s / grid.ddt) * (d.M_s @ (etad - etad_prev))
             + d.stiffness_solid(params.l1, params.l2) @ eta)[d.ifd_s]
        robin = (r + lam * (d.M_c @ (etad[d.ifd_s] - state.u_avg))
                 + state.traction_avg)
        scale = max(1.0, dual_norm(d, state.traction_avg))
        assert dual_norm(d, robin) <= 1e-10 * scale


def test_fluid_steady_robin_limit(run_disc, params, rng):
    # enormous step: the Robin condition lambda (u - c) = -sigma_f n dominates
    grid = TimeGrid(1e6, 1)
    solver = RobinRobinSolver(run_disc, params, grid)
    d = run_disc
    c = rng.standard_normal(d.ifd_f.size)
    etad = np.zeros(d.V_s.ndof)
    etad[d.ifd_s] = c
    u, p = solver.fluid_step(np.zeros(d.V_f.ndof), etad, zero_trace(d))
    flux = ((params.rho_f / grid.ddt) * (d.M_f @ u)
            + d.stiffness_fluid(params.mu) @ u - d.B.T @ p)[d.ifd_f]
    resid = flux + params.lambda_robin * (d.M_c @ (u[d.ifd_f] - c))
    assert dual_norm(d, resid) <= 1e-10 * max(1.0, dual_norm(d, flux))


def test_window_matches_solid_then_fluid_dense_oracle(run_disc, params, rng):
    """The paper's order on dense Dirichlet-eliminated matrices: all the
    solid substeps of a window, then all the fluid substeps.  advance
    interleaves them, which is exact because the solid reads only the
    interface data of the window's start."""
    d, p = run_disc, params
    grid = TimeGrid(0.1, 1, 2)
    ddt, lam, nu = grid.ddt, p.lambda_robin, d.V_f.ndof
    S = oracles.dense_dirichlet(d.solid_operator(p, ddt, lam), d.dir_s)
    F = oracles.dense_dirichlet(d.fluid_saddle(p, ddt, lam), d.dir_f)
    A_s = d.stiffness_solid(p.l1, p.l2)
    state = random_state(d, rng)

    eta, etad, solid = state.eta, state.etad, []
    for _ in range(grid.substeps):
        rhs = (p.rho_s / ddt) * (d.M_s @ etad) - A_s @ eta
        rhs[d.ifd_s] += lam * (d.M_c @ state.u_avg) - state.traction_avg
        rhs[d.dir_s] = 0.0
        etad = np.linalg.solve(S, rhs)
        eta = eta + ddt * etad
        solid.append((eta, etad))
    u, want = state.u, []
    for eta, etad in solid:
        rhs = np.zeros(F.shape[0])
        rhs[:nu] = (p.rho_f / ddt) * (d.M_f @ u)
        rhs[d.ifd_f] += lam * (d.M_c @ etad[d.ifd_s]) + state.traction_avg
        rhs[d.dir_f] = 0.0
        x = np.linalg.solve(F, rhs)
        u = x[:nu]
        traction = lam * (d.M_c @ (etad[d.ifd_s] - u[d.ifd_f])) + state.traction_avg
        want.append((eta, etad, u, x[nu:], traction))

    got = RobinRobinSolver(d, p, grid).advance(state).samples
    assert len(got) == grid.substeps
    for s, fields in zip(got, want):
        for g, w in zip((s.eta, s.etad, s.u, s.p, s.traction), fields):
            assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


def test_divergence_constraint_every_substep(run_disc, params, rng):
    solver = RobinRobinSolver(run_disc, params, TimeGrid(0.2, 3, 2))
    for state in solver.run(random_state(run_disc, rng)):
        for s in state.samples:
            assert np.linalg.norm(run_disc.B @ s.u) <= 1e-9 * np.linalg.norm(s.u)


def test_dirichlet_dofs_exactly_zero(run_disc, params, rng):
    solver = RobinRobinSolver(run_disc, params, TimeGrid(0.2, 3))
    *_, state = solver.run(random_state(run_disc, rng))
    assert np.abs(state.u[run_disc.dir_f]).max() == 0.0
    assert np.abs(state.eta[run_disc.dir_s]).max() == 0.0
    assert np.abs(state.etad[run_disc.dir_s]).max() == 0.0


def test_traction_extraction_passthroughs(run_disc, params, rng):
    solver = RobinRobinSolver(run_disc, params, TimeGrid(0.1, 1))
    d = run_disc
    u = rng.standard_normal(d.V_f.ndof)
    etad = np.zeros(d.V_s.ndof)
    etad[d.ifd_s] = u[d.ifd_f]
    assert np.abs(solver.extract_fluid_traction(u, etad, zero_trace(d))).max() < 1e-14
    sig = rng.standard_normal(d.ifd_f.size)
    got = solver.extract_fluid_traction(np.zeros(d.V_f.ndof),
                                        np.zeros(d.V_s.ndof), sig)
    assert np.array_equal(got, sig)


def test_traction_equals_interior_residual(run_disc, params, rng):
    """The Robin-implied flux must coincide with the fluid momentum residual
    at interface rows; this is what keeps the energy ledger exact."""
    grid = TimeGrid(0.2, 2, 2)
    solver = RobinRobinSolver(run_disc, params, grid)
    d = run_disc
    state = random_state(d, rng)
    u_prev = state.u
    new = solver.advance(state)
    for s in new.samples:
        r = ((params.rho_f / grid.ddt) * (d.M_f @ (s.u - u_prev))
             + d.stiffness_fluid(params.mu) @ s.u - d.B.T @ s.p)[d.ifd_f]
        assert dual_norm(d, r - s.traction) <= 1e-10 * max(1.0, dual_norm(d, r))
        u_prev = s.u


def test_interface_algebra_identity(run_disc, params, rng):
    # <sigma_f n, v> + lambda <u, v> = lambda <etad, v> + <traction_avg, v>
    solver = RobinRobinSolver(run_disc, params, TimeGrid(0.2, 2, 2))
    d = run_disc
    lam = params.lambda_robin
    state = random_state(d, rng)
    new = solver.advance(state)
    for s in new.samples:
        lhs = s.traction + lam * (d.M_c @ s.u[d.ifd_f])
        rhs = lam * (d.M_c @ s.etad[d.ifd_s]) + state.traction_avg
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())


def test_window_averages(run_disc):
    d = run_disc

    def sample(u, t):
        return WindowSample(t=t, u=np.full(d.V_f.ndof, float(u)), p=None,
                            eta=None, etad=None,
                            traction=np.full(d.ifd_f.size, 2.0 * u))

    u_avg, traction_avg = RobinRobinSolver.update_interface_average(
        d, [sample(5.0, 1.0)])
    assert np.all(u_avg == 5.0) and np.all(traction_avg == 10.0)
    u_avg, _ = RobinRobinSolver.update_interface_average(
        d, [sample(1.0, 0.5), sample(3.0, 1.0)])
    assert np.all(u_avg == 2.0)
    # linear-in-time trace, m = 4: mean of right-endpoint samples equals the
    # exact integral of the piecewise-constant backward-Euler interpolant
    ts = [0.25, 0.5, 0.75, 1.0]
    u_avg, _ = RobinRobinSolver.update_interface_average(
        d, [sample(2.0 * t, t) for t in ts])
    assert np.allclose(u_avg, np.mean([2.0 * t for t in ts]))


def test_per_window_stability_inequality(run_disc, params, rng):
    state0 = random_state(run_disc, rng)
    ledger = robin_robin(run_disc, params, TimeGrid(0.3, 6, 2), state0)
    scale = ledger.E[0] + ledger.S0
    prev = scale
    for k in range(1, len(ledger.T) + 1):
        # E_k + T_k + S_k <= E_{k-1} + S_{k-1}, window by window
        now = ledger.E[k] + ledger.T[k - 1] + ledger.S[k - 1]
        assert now <= prev + 1e-10 * scale
        prev = ledger.E[k] + ledger.S[k - 1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lam=oracles.decades(-4, 4), rho_f=oracles.decades(-2, 2),
       ratio=oracles.decades(-4, 4), t_final=oracles.decades(-5, 3),
       m=st.integers(1, 4),
       L=st.floats(0.3, 3.0), H_f=st.floats(0.3, 3.0), H_s=st.floats(0.3, 3.0),
       nx=st.integers(1, 4), ny_f=st.integers(1, 3), ny_s=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16))
def test_stability_bound_property(lam, rho_f, ratio, t_final, m, L, H_f, H_s,
                                  nx, ny_f, ny_s, seed):
    """The energy bound holds for any Robin weight, density ratio, step size
    and substep count, on channels other than the unit square."""
    disc = Discretization(ChannelGeometry(L, H_f, H_s), nx, ny_f, ny_s)
    params = PhysicalParams(rho_f=rho_f, rho_s=ratio * rho_f, mu=0.1, l1=1.0,
                            l2=1.0, lambda_robin=lam)
    state0 = random_state(disc, np.random.default_rng(seed))
    ledger = robin_robin(disc, params, TimeGrid(t_final, 4, m), state0)
    assert ledger.residuals().max() <= 1e-8 * (ledger.E[0] + ledger.S0)


# (rho_s, lambda, N, m) at T = 0.5: a sample of the box rho_s, lambda in
# {1e-3, 1, 1e3}, N in {2, 16, 1000}, m in {1, 3}
_SPECTRAL_POINTS = [(1e-3, 1e-3, 2, 1), (1e-3, 1e3, 1000, 3), (1.0, 1.0, 16, 1),
                    (1.0, 1e-3, 1000, 1), (1.0, 1e3, 2, 3), (1e3, 1e-3, 16, 3),
                    (1e3, 1e3, 1000, 1), (1e3, 1.0, 2, 1)]


@pytest.mark.parametrize("rho_s,lam,N,m", _SPECTRAL_POINTS)
def test_window_map_spectral_radius(run_disc, params, rho_s, lam, N, m):
    """The stability claim without initial data: one window is a linear map
    on the free state, and its spectral radius is at most 1 (1 + 1e-12).
    It is 1, not below: a fluid at rest under a constant pressure that holds
    the solid displaced is an equilibrium that keeps its energy."""
    p = replace(params, rho_s=rho_s, lambda_robin=lam)
    A = oracles.window_map(RobinRobinSolver(run_disc, p, TimeGrid(0.5, N, m)))
    assert np.abs(np.linalg.eigvals(A)).max() <= 1.0 + 1e-12


def test_robin_robin_holds_one_window(run_disc, params, rng, monkeypatch):
    """The ledger run streams its states: once a state is built, only it
    and the one before it are alive."""
    refs = []
    advance = RobinRobinSolver.advance

    def tracked(self, state):
        new = advance(self, state)
        refs.append(weakref.ref(new))
        gc.collect()
        assert all(ref() is None for ref in refs[:-2]), len(refs)
        return new

    monkeypatch.setattr(RobinRobinSolver, "advance", tracked)
    ledger = robin_robin(run_disc, params, TimeGrid(0.3, 6, 2),
                         random_state(run_disc, rng))
    assert len(refs) == len(ledger.T) == 6


def test_advance_deterministic(run_disc, params):
    grid = TimeGrid(0.2, 3)
    state0 = random_state(run_disc, np.random.default_rng(7))
    runs = []
    for _ in range(2):
        solver = RobinRobinSolver(run_disc, params, grid)
        *_, state = solver.run(state0)
        runs.append(state)
    assert np.array_equal(runs[0].u, runs[1].u)
    assert np.array_equal(runs[0].eta, runs[1].eta)
    assert np.array_equal(runs[0].traction_avg, runs[1].traction_avg)


def test_substep_refinement_consistency(run_disc, params):
    """Doubling m at fixed dt changes the final state by a stable factor.

    The interface data jump at each window start limits the substep
    convergence order below 1, so the observed halving ratio sits near
    sqrt(2) rather than 2; the band reflects that.
    """
    from fsisplit.initial_data import smooth_coupled_mode

    grid_T, N = 0.5, 8
    state0 = smooth_coupled_mode(run_disc, params)
    finals = []
    for m in (1, 2, 4):
        solver = RobinRobinSolver(run_disc, params, TimeGrid(grid_T, N, m))
        *_, state = solver.run(state0)
        finals.append(np.concatenate([state.u, state.etad, state.eta]))
    d12 = np.linalg.norm(finals[0] - finals[1])
    d24 = np.linalg.norm(finals[1] - finals[2])
    assert 1.3 <= d12 / d24 <= 2.4
