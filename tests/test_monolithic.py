from dataclasses import replace

import numpy as np
import pytest

import oracles
from fsisplit import (ChannelGeometry, Discretization, PhysicalParams,
                      RobinRobinSolver, TimeGrid)
from fsisplit.experiments import dirichlet_neumann, initial_state
from fsisplit.assembly import Factorization
from fsisplit.initial_data import random_state, smooth_coupled_mode
from fsisplit.monolithic import (CoupledState, MonolithicSolver, _fluid_flux,
                                 run_dirichlet_neumann, run_reference)
from fsisplit.splitting import SplitState


def zero_coupled(disc):
    return CoupledState(0.0, np.zeros(disc.V_f.ndof), np.zeros(disc.Q.ndof),
                        np.zeros(disc.V_s.ndof), np.zeros(disc.V_s.ndof))


def test_zero_state_fixed_point(run_disc, params):
    solver = MonolithicSolver(run_disc, params, 0.05)
    new = solver.step(zero_coupled(run_disc))
    for f in (new.u, new.p, new.eta, new.etad):
        assert np.abs(f).max() == 0.0


def test_interface_velocities_shared_bitwise(run_disc, params, rng):
    solver = MonolithicSolver(run_disc, params, 0.05)
    state = random_state(run_disc, rng)
    for _ in range(3):
        state = solver.step(state)
        assert np.array_equal(state.u[run_disc.ifd_f], state.etad[run_disc.ifd_s])


def test_coupled_matrix_matches_dense_hand_assembly(tiny_disc, params, rng):
    """Rebuild the coupled block system densely from the component matrices
    and the shared-dof identification, on the smallest mesh, and check one
    step against a dense solve of it."""
    dt = 0.1
    d, p = tiny_disc, params
    solver = MonolithicSolver(d, p, dt)

    nu, npr, ns = d.V_f.ndof, d.Q.ndof, d.V_s.ndof
    smap = np.full(ns, -1, dtype=np.int64)
    smap[d.ifd_s] = d.ifd_f
    extra = np.flatnonzero(smap < 0)
    smap[extra] = nu + npr + np.arange(extra.size)
    n = nu + npr + extra.size

    dense = np.zeros((n, n))
    Af = ((p.rho_f / dt) * d.M_f + d.stiffness_fluid(p.mu)).toarray()
    As = ((p.rho_s / dt) * d.M_s + dt * d.stiffness_solid(p.l1, p.l2)).toarray()
    B = d.B.toarray()
    dense[:nu, :nu] += Af
    dense[:nu, nu:nu + npr] -= B.T
    dense[nu:nu + npr, :nu] += B
    dense[np.ix_(smap, smap)] += As

    fixed = np.unique(np.concatenate([d.dir_f, smap[d.dir_s]]))
    keep = np.ones(n)
    keep[fixed] = 0.0
    dense = keep[:, None] * dense * keep[None, :]
    dense[fixed, fixed] = 1.0

    state = CoupledState(0.0, rng.standard_normal(nu), np.zeros(npr),
                         rng.standard_normal(ns), rng.standard_normal(ns))
    rhs = np.zeros(n)
    rhs[:nu] += (p.rho_f / dt) * (d.M_f @ state.u)
    np.add.at(rhs, smap, (p.rho_s / dt) * (d.M_s @ state.etad)
              - d.stiffness_solid(p.l1, p.l2) @ state.eta)
    rhs[fixed] = 0.0
    x = np.linalg.solve(dense, rhs)
    new = solver.step(state)
    got = np.concatenate([new.u, new.p, new.etad[extra]])
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()
    assert np.array_equal(new.etad, got[smap])
    assert np.array_equal(new.eta, state.eta + dt * new.etad)


def test_interface_flux_balance(run_disc, params, rng):
    dt = 0.05
    d = run_disc
    solver = MonolithicSolver(d, params, dt)
    A_s = d.stiffness_solid(params.l1, params.l2)
    state = random_state(d, rng)
    for _ in range(3):
        new = solver.step(state)
        tf = solver.fluid_flux(new.u, state.u, new.p)
        # solid momentum residual at the interface rows: <sigma_s n_s, w>
        ts = ((params.rho_s / dt) * (d.M_s @ (new.etad - state.etad))
              + A_s @ new.eta)[d.ifd_s]
        imbalance = tf + ts
        scale = max(1.0, np.sqrt(run_disc.traction_norm_sq(tf)))
        assert np.sqrt(run_disc.traction_norm_sq(imbalance)) <= 1e-10 * scale
        state = new


def test_fluid_flux_matches_full_residual_bitwise(rng):
    """The flux from the memoised interface rows has the bits of the full
    fluid momentum residual restricted to the interface, for two viscosities
    on one Discretization."""
    d = Discretization(ChannelGeometry(2.0, 0.7, 1.3), 5, 3, 4)
    ddt = 0.013
    for mu in (0.1, 0.37):
        params = PhysicalParams(rho_f=1.3, rho_s=1.0, mu=mu, l1=1.0, l2=1.0,
                                lambda_robin=1.0)
        for _ in range(3):
            u, u_old = rng.standard_normal((2, d.V_f.ndof))
            p = rng.standard_normal(d.Q.ndof)
            full = ((params.rho_f / ddt) * (d.M_f @ (u - u_old))
                    + d.stiffness_fluid(mu) @ u - d.B.T @ p)[d.ifd_f]
            got = _fluid_flux(d, params, ddt, u, u_old, p)
            assert np.array_equal(got.view(np.int64), full.view(np.int64))


def test_reference_trajectory_structure(run_disc, params):
    state0 = smooth_coupled_mode(run_disc, params)
    full = run_reference(run_disc, params, state0, 0.1, 8, 1)
    traj = run_reference(run_disc, params, state0, 0.1, 8, stride=4)
    assert len(full.u) == 9 and len(full.flux) == 9
    fields = (traj.u, traj.p, traj.eta, traj.etad)
    assert all(len(f) == 8 // 4 + 1 for f in fields)
    assert len(traj.flux) == len(traj.traces) == 9
    # each stored step owns its arrays, not a view of the solve vector
    assert all(a.base is None for a in traj.u + traj.p)
    one_step = sum(f[0].nbytes for f in fields)
    assert sum(a.nbytes for f in fields for a in f) <= (8 // 4 + 1) * one_step
    assert np.array_equal(traj.flux[0], traj.flux[1])
    # the kept steps and every step's trace and flux are those of the
    # unstrided run, bit for bit
    for t in traj.times[::4]:
        (got, got_flux), (want, want_flux) = traj.at(t), full.at(t)
        for a, b in zip((got.u, got.p, got.eta, got.etad, got_flux),
                        (want.u, want.p, want.eta, want.etad, want_flux)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
    for t, trace, flux in zip(traj.times, traj.traces, traj.flux):
        state, want_flux = full.at(t)
        assert np.array_equal(trace, state.u[run_disc.ifd_f])
        assert np.array_equal(flux, want_flux)
    assert full.at(0.1)[0].t == traj.at(0.1)[0].t == traj.times[-1]
    # off the grid, and on the grid but not stored: never a neighbouring step
    # before 0 and past T, even at a multiple of the stride
    for t in (0.013, traj.times[1], traj.times[3], -traj.times[4], 0.15):
        with pytest.raises(ValueError):
            traj.at(t)
    # zero data gives the zero trajectory
    ztraj = run_reference(run_disc, params, zero_coupled(run_disc), 0.1, 4, 1)
    assert max(np.abs(u).max() for u in ztraj.u) == 0.0


def test_reference_self_convergence(run_disc, params):
    state0 = smooth_coupled_mode(run_disc, params)
    finals = []
    for steps in (16, 32, 64):
        traj = run_reference(run_disc, params, state0, 0.2, steps, 1)
        finals.append(np.concatenate([traj.u[-1], traj.etad[-1], traj.eta[-1]]))
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    # first order in time; the initial pressure layer drags the coarse-level
    # ratio slightly below the asymptotic 2
    assert 1.4 <= d1 / d2 <= 2.4


def test_dirichlet_neumann_zero_fixed_point(run_disc, params):
    d = run_disc
    zero = SplitState(0.0, np.zeros(d.V_f.ndof), np.zeros(d.Q.ndof),
                      np.zeros(d.V_s.ndof), np.zeros(d.V_s.ndof),
                      np.zeros(d.ifd_f.size), np.zeros(d.ifd_f.size))
    steps = list(zip(range(2), run_dirichlet_neumann(d, params, 0.05, zero)))
    for k, state in steps:
        assert state.t == (k + 1) * 0.05
        for f in (state.u, state.p, state.eta, state.etad):
            assert np.abs(f).max() == 0.0


def test_dirichlet_neumann_half_steps(run_disc, params, rng):
    """The solid takes the previous step's fluid traction as its interface
    load; the fluid takes the new solid velocity as Dirichlet data, with the
    first pressure dof pinned and its divergence row dropped."""
    d, p, dt = run_disc, params, 0.01
    state = random_state(d, rng)
    traction = state.traction_avg
    A_s = d.stiffness_solid(p.l1, p.l2)
    for _, new in zip(range(2), run_dirichlet_neumann(d, p, dt, state)):
        assert np.array_equal(new.u[d.ifd_f], new.etad[d.ifd_s])
        for fixed in (new.u[d.dir_f], new.etad[d.dir_s], new.p[:1]):
            assert np.all(fixed == 0.0)
        assert np.abs(d.B @ new.u)[1:].max() <= 1e-12 * np.abs(new.u).max()
        resid = (p.rho_s / dt) * (d.M_s @ (new.etad - state.etad)) + A_s @ new.eta
        assert (np.abs(resid[d.ifd_s] + traction).max()
                <= 1e-12 * np.abs(traction).max())
        traction = _fluid_flux(d, p, dt, new.u, state.u, new.p)
        state = new


def test_dirichlet_neumann_two_solves_per_energy(run_disc, monkeypatch):
    """One solid and one fluid solve per energy returned, whether the run
    stops at blow-up or after num_steps: no step past the last is solved."""
    solves = []
    solve = Factorization.solve

    def counting(self, b):
        solves.append(b)
        return solve(self, b)

    for rho_s, num_steps, stops_early in ((1.0, 200, True), (1000.0, 5, False)):
        params = PhysicalParams(1.0, rho_s, 0.1, 1.0, 1.0, 1.0)
        state0 = initial_state(run_disc, 5)
        with monkeypatch.context() as patch:
            patch.setattr(Factorization, "solve", counting)
            solves.clear()
            energies, _ = dirichlet_neumann(run_disc, params, 0.01, num_steps, state0)
        assert (len(energies) < num_steps) == stops_early
        assert len(solves) == 2 * len(energies)


@pytest.mark.parametrize("rho_s", [0.01, 1.0, 1000.0])
def test_dn_spectral_radius_contrast(run_disc, params, rho_s):
    """The added-mass contrast with no run and no growth threshold, at
    n = 4, T = 0.5, N = 50: one explicit Dirichlet-Neumann step is a linear
    map on the free state, whose spectral radius is at least 10 for a light
    or matched solid and at most 1 (1 + 1e-12) for a solid 1000 times the
    fluid's density; one Robin-Robin window stays at most 1 at all three.
    The map's fluid velocity on the free interface dofs is its new solid
    velocity there, bit for bit: the Dirichlet data of the fluid solve."""
    d, p = run_disc, replace(params, rho_s=rho_s)
    A = oracles.dn_map(d, p, 0.5 / 50)
    free_f = np.setdiff1d(np.arange(d.V_f.ndof), d.dir_f)
    free_s = np.setdiff1d(np.arange(d.V_s.ndof), d.dir_s)
    inner = ~np.isin(d.ifd_f, d.dir_f)
    assert np.array_equal(inner, ~np.isin(d.ifd_s, d.dir_s)) and inner.any()
    etad_rows = free_f.size + free_s.size + np.searchsorted(free_s, d.ifd_s[inner])
    assert np.array_equal(A[np.searchsorted(free_f, d.ifd_f[inner])], A[etad_rows])
    dn = np.abs(np.linalg.eigvals(A)).max()
    rr = np.abs(np.linalg.eigvals(oracles.window_map(
        RobinRobinSolver(d, p, TimeGrid(0.5, 50, 1))))).max()
    if rho_s < 1000.0:
        assert dn >= 10.0
    else:
        assert dn <= 1.0 + 1e-12
    assert rr <= 1.0 + 1e-12
