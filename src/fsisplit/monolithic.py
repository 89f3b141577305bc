"""Implicit monolithic reference solver and the explicit Dirichlet-Neumann
comparator.

The monolithic solver enforces velocity continuity at the interface by dof
identification (fluid and solid interface velocities share one unknown) and
traction balance weakly by summing the two weak forms.  It serves as the
error oracle for the convergence study.  The Dirichlet-Neumann generator is
the classical loosely coupled comparator that exhibits the added-mass
instability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import Factorization, grid_dissection
from .splitting import CoupledState, Discretization, PhysicalParams, SplitState


@dataclass
class ReferenceTrajectory:
    """Fine backward-Euler trajectory: the fields every `stride` steps, the
    interface trace and flux at every step."""

    ddt: float
    stride: int
    times: np.ndarray    # every step
    u: list              # u, p, eta, etad at times[::stride]
    p: list
    eta: list
    etad: list
    traces: list         # u[ifd_f], traces[k] at times[k]
    flux: list           # canonical interface load, flux[k] for step ending at times[k]

    def steps_per(self, dt: float) -> int:
        """How many steps one step of size dt spans, if a whole number tiling the run."""
        per = round(dt / self.ddt)
        if per < 1 or abs(per * self.ddt - dt) > 1e-9 * dt or (len(self.times) - 1) % per:
            raise ValueError(f"steps of size {dt} do not tile the reference steps")
        return per

    def step(self, k: int):
        """(CoupledState, flux) at stored step k."""
        if not 0 <= k < len(self.times) or k % self.stride:
            raise ValueError(f"step {k} is not a stored reference step")
        j = k // self.stride
        return (CoupledState(self.times[k], self.u[j], self.p[j], self.eta[j],
                             self.etad[j]), self.flux[k])


def _remap(mat: sp.spmatrix, row_map: np.ndarray, col_map: np.ndarray, shape):
    coo = mat.tocoo()
    return sp.coo_matrix((coo.data, (row_map[coo.row], col_map[coo.col])),
                         shape=shape)


def _fluid_flux(disc: Discretization, params: PhysicalParams, ddt: float,
                u, u_old, p) -> np.ndarray:
    """Variational fluid traction <sigma_f n, v> at the interface dofs,
    recovered from the interior residual of the backward-Euler fluid
    momentum equation.  Private, so that a trace of the public caller
    times this work as its own."""
    M_rows, K_rows, Bt_rows = disc._interface_rows(params.mu)
    return ((params.rho_f / ddt) * (M_rows @ (u - u_old))
            + K_rows @ u - Bt_rows @ p)


class MonolithicSolver:
    """Backward-Euler solver for the fully coupled system at step size ddt."""

    def __init__(self, disc: Discretization, params: PhysicalParams, ddt: float):
        self.disc = disc
        self.params = params
        self.ddt = ddt
        d, p = disc, params

        nu, npr, ns = d.V_f.ndof, d.Q.ndof, d.V_s.ndof
        solid_map = np.full(ns, -1, dtype=np.int64)
        solid_map[d.ifd_s] = d.ifd_f
        extra = np.flatnonzero(solid_map < 0)
        solid_map[extra] = nu + npr + np.arange(extra.size)
        self.solid_map = solid_map
        self.ncomb = nu + npr + extra.size

        shape = (self.ncomb, self.ncomb)
        fluid_map = np.arange(nu + npr)
        A = (_remap(d.fluid_saddle(p, ddt), fluid_map, fluid_map, shape)
             + _remap(d.solid_operator(p, ddt), solid_map, solid_map, shape)).tocsr()

        coords = np.empty((self.ncomb, 2))
        coords[:nu + npr] = np.vstack([d.V_f.dof_coords, d.Q.dof_coords])
        coords[solid_map] = d.V_s.dof_coords  # the interface dofs: the same points
        self._lu = Factorization(A, grid_dissection(coords),
                                 np.concatenate([d.dir_f, solid_map[d.dir_s]]))

    def step(self, state: CoupledState) -> CoupledState:
        """One backward-Euler step of the coupled system."""
        d, p = self.disc, self.params
        nu = d.V_f.ndof
        rhs = np.zeros(self.ncomb)
        rhs[:nu] += (p.rho_f / self.ddt) * (d.M_f @ state.u)
        # solid_map is injective: each solid row is added once
        rhs[self.solid_map] += ((p.rho_s / self.ddt) * (d.M_s @ state.etad)
                                - d.stiffness_solid(p.l1, p.l2) @ state.eta)
        x = self._lu.solve(rhs)
        u, pres = x[:nu], x[nu:nu + d.Q.ndof]
        etad = x[self.solid_map]
        eta = state.eta + self.ddt * etad
        return CoupledState(t=state.t + self.ddt, u=u, p=pres, eta=eta, etad=etad)

    def fluid_flux(self, u_new, u_old, p_new) -> np.ndarray:
        """Variational fluid traction at the interface dofs after one step."""
        return _fluid_flux(self.disc, self.params, self.ddt, u_new, u_old, p_new)


def run_reference(disc: Discretization, params: PhysicalParams,
                  state0: CoupledState, t_final: float,
                  num_steps: int, stride: int) -> ReferenceTrajectory:
    """Run the monolithic solver on a fine grid, keeping the fields every
    `stride` steps and the interface trace and flux at every step.

    The flux at t_0 is taken from the first step (the best available
    approximation of the initial fluid traction on this grid).
    """
    ddt = t_final / num_steps
    solver = MonolithicSolver(disc, params, ddt)
    traj = ReferenceTrajectory(
        ddt=ddt, stride=stride, times=np.linspace(0.0, t_final, num_steps + 1),
        u=[state0.u], p=[state0.p], eta=[state0.eta], etad=[state0.etad],
        traces=[state0.u[disc.ifd_f]], flux=[None])
    state = state0
    for k in range(1, num_steps + 1):
        new = solver.step(state)
        if k % stride == 0:
            # copies: a stored step must not keep all of the solve vector
            traj.u.append(new.u.copy())
            traj.p.append(new.p.copy())
            traj.eta.append(new.eta)
            traj.etad.append(new.etad)
        traj.traces.append(new.u[disc.ifd_f])
        traj.flux.append(solver.fluid_flux(new.u, state.u, new.p))
        state = new
    traj.flux[0] = traj.flux[1]
    return traj


def run_dirichlet_neumann(disc: Discretization, params: PhysicalParams,
                          dt: float, state0: SplitState):
    """Explicit Dirichlet-Neumann staggering from state0, yielding each new
    state without end: the caller solves only the steps it reads.

    The solid receives the previous fluid traction as a Neumann load (the
    first step state0's traction_avg); the fluid then takes the new solid
    velocity as Dirichlet data on the interface.  With the interface velocity
    prescribed the fluid boundary is all-Dirichlet, so one pressure dof is
    pinned to fix the gauge (this also drops one divergence row, absorbing
    the incompatibility of the data).  Instability at comparable densities is
    the expected outcome.
    """
    d, p = disc, params
    solid_lu = Factorization(d.solid_operator(p, dt), d.solid_order, d.dir_s)
    nu = d.V_f.ndof
    F = d.fluid_saddle(p, dt)
    # the Dirichlet and interface velocity dofs, and one pressure dof (the gauge)
    fluid_lu = Factorization(F, d.fluid_order, np.concatenate([d.dir_f, d.ifd_f, [nu]]))
    state, traction = state0, state0.traction_avg
    while True:
        eta, etad = d._solid_substep(solid_lu, p, dt, state.eta, state.etad,
                                     -traction)
        lift = np.zeros(F.shape[0])
        lift[d.ifd_f] = etad[d.ifd_s]
        inertia = (p.rho_f / dt) * (d.M_f @ state.u)
        x = lift + fluid_lu.solve(np.concatenate([inertia, np.zeros(d.Q.ndof)])
                                  - F @ lift)
        u, pres = x[:nu], x[nu:]
        traction = _fluid_flux(d, p, dt, u, state.u, pres)
        state = CoupledState(state.t + dt, u, pres, eta, etad)
        yield state
