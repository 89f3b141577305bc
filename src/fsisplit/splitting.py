"""Robin-Robin loosely coupled time stepping.

Per window [t_n, t_{n+1}] the solid subproblem is solved first with the Robin
condition lambda*etad + sigma_s*n_s = lambda*u_avg - traction_avg, then the
fluid subproblem with lambda*u + sigma_f*n = lambda*etad + traction_avg, and
finally the interface window averages are updated for the next window.  Each
window is discretized with m backward-Euler substeps (m = 1 recovers the
standard fully discrete scheme where the averages collapse to endpoint values).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded

from . import mesh as msh
from .assembly import (Factorization, SingularSystemError, assemble_divergence,
                       assemble_elasticity, assemble_interface_mass,
                       assemble_symgrad, assemble_vector_mass, grid_dissection,
                       stack_saddle)
from .mesh import ChannelGeometry, build_two_layer_mesh
from .spaces import SCALAR_P1, VECTOR_P2, build_space, mesh_edges


@dataclass(frozen=True)
class PhysicalParams:
    rho_f: float
    rho_s: float
    mu: float
    l1: float
    l2: float
    lambda_robin: float

    def __post_init__(self):
        for name in ("rho_f", "rho_s", "mu", "l1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.lambda_robin <= 0:
            raise ValueError("lambda must be > 0")


@dataclass(frozen=True)
class TimeGrid:
    t_final: float
    num_windows: int
    substeps: int = 1

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be > 0")
        if self.num_windows < 1:
            raise ValueError("need at least one window (T >= dt)")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")

    @property
    def dt(self) -> float:
        return self.t_final / self.num_windows

    @property
    def ddt(self) -> float:
        return self.dt / self.substeps


@dataclass
class CoupledState:
    """The fields every scheme advances, at time t."""

    t: float
    u: np.ndarray        # fluid velocity (fluid-space numbering)
    p: np.ndarray
    eta: np.ndarray      # solid displacement (solid-space numbering)
    etad: np.ndarray     # solid velocity (solid-space numbering)


@dataclass
class WindowSample(CoupledState):
    """State of one backward-Euler substep (right endpoint values) and the
    fluid traction extracted there."""

    traction: np.ndarray


@dataclass
class SplitState(CoupledState):
    """The fields plus the interface data for the next window, in the
    canonical interface ordering, and the substep samples of the window that
    produced them (none for initial data); the fields are those of the last
    sample.  u_avg is the window-averaged velocity trace and traction_avg the
    load vector of the averaged variational fluid traction
    (v -> <sigma_f n, v> on the interface test dofs)."""

    u_avg: np.ndarray
    traction_avg: np.ndarray
    samples: list = field(default_factory=list)


class Discretization:
    """Spaces and matrices shared by the splitting and monolithic solvers."""

    def __init__(self, geom: ChannelGeometry, nx: int, ny_f: int, ny_s: int):
        self.geom = geom
        self.mesh = build_two_layer_mesh(geom, nx, ny_f, ny_s)
        edges = mesh_edges(self.mesh)
        self.V_f = build_space(self.mesh, msh.FLUID, VECTOR_P2, edges=edges)
        self.Q = build_space(self.mesh, msh.FLUID, SCALAR_P1, edges=edges)
        self.V_s = build_space(self.mesh, msh.SOLID, VECTOR_P2, edges=edges)
        if not np.allclose(self.V_f.node_coords[self.V_f.interface_nodes],
                           self.V_s.node_coords[self.V_s.interface_nodes]):
            raise RuntimeError("interface dof orderings of the two spaces differ")

        self.M_f = assemble_vector_mass(self.V_f)
        self.M_s = assemble_vector_mass(self.V_s)
        self.B = assemble_divergence(self.V_f, self.Q)
        self.BT = self.B.T.tocsr()
        self.M_if = assemble_interface_mass(self.V_f)
        self.M_is = assemble_interface_mass(self.V_s)
        self.dir_f = self.V_f.expand(self.V_f.dirichlet_nodes)
        self.dir_s = self.V_s.expand(self.V_s.dirichlet_nodes)
        self.ifd_f = self.V_f.expand(self.V_f.interface_nodes)
        self.ifd_s = self.V_s.expand(self.V_s.interface_nodes)
        # canonical interface mass (small and dense); identical from either side
        self.M_c = self.M_if[self.ifd_f][:, self.ifd_f].toarray()
        # inverted by its banded Cholesky factor (dpbsv), bandwidth kd from the
        # nonzeros: a dense inverse's threaded level-3 BLAS calls can stall
        rows, cols = np.nonzero(self.M_c)
        kd = int(np.abs(rows - cols).max(initial=0))
        band = [np.pad(np.diagonal(self.M_c, -k), (0, k)) for k in range(kd + 1)]
        try:
            self._M_c_inv = solveh_banded(np.array(band), np.eye(len(self.M_c)),
                                          lower=True)
        except (np.linalg.LinAlgError, ValueError):  # zero edges, or not finite
            raise SingularSystemError("the interface mass is singular") from None
        # fill-reducing orders of the fluid saddle points' unknowns (V_f, then
        # Q) and of the solid operators' (V_s)
        self.fluid_order = grid_dissection(np.vstack([self.V_f.dof_coords,
                                                      self.Q.dof_coords]))
        self.solid_order = grid_dissection(self.V_s.dof_coords)
        # matrices by coefficients; held per instance, not by a functools
        # cache, so that a Discretization can be freed
        self._memo = {}

    def stiffness_fluid(self, mu: float) -> sp.csr_matrix:
        """Viscous stiffness 2 mu (eps(u), eps(v)), assembled once per mu.
        The matrix is shared: callers must not modify it."""
        key = ("fluid", mu)
        if key not in self._memo:
            self._memo[key] = assemble_symgrad(self.V_f, mu)
        return self._memo[key]

    def stiffness_solid(self, l1: float, l2: float) -> sp.csr_matrix:
        """Elastic stiffness 2 l1 (eps, eps) + l2 (div, div), assembled once
        per (l1, l2).  The matrix is shared: callers must not modify it."""
        key = ("solid", l1, l2)
        if key not in self._memo:
            self._memo[key] = assemble_elasticity(self.V_s, l1, l2)
        return self._memo[key]

    def _interface_rows(self, mu: float):
        """The interface rows ifd_f of M_f, of the fluid stiffness for mu and
        of B^T, as CSR, built once per mu for the fluid interface flux.  Each
        row of B^T sums in column order, as the full product B.T @ p does."""
        key = ("interface rows", mu)
        if key not in self._memo:
            rows = self.ifd_f
            self._memo[key] = (self.M_f[rows], self.stiffness_fluid(mu)[rows],
                               self.BT[rows])
        return self._memo[key]

    def fluid_saddle(self, params: PhysicalParams, ddt: float,
                     lam: float = 0.0) -> sp.csr_matrix:
        """[[rho_f/ddt M + K + lam M_iface, -B^T], [B, 0]], without
        Dirichlet rows.  At lam = 0 the sum stores no zero and has the bits
        of the operator without the Robin term."""
        Auu = ((params.rho_f / ddt) * self.M_f + self.stiffness_fluid(params.mu)
               + lam * self.M_if)
        return stack_saddle(Auu, -self.BT, self.B)

    def solid_operator(self, params: PhysicalParams, ddt: float,
                       lam: float = 0.0) -> sp.csr_matrix:
        """rho_s/ddt M + ddt A + lam M_iface, without Dirichlet rows."""
        return ((params.rho_s / ddt) * self.M_s
                + ddt * self.stiffness_solid(params.l1, params.l2) + lam * self.M_is)

    def _solid_substep(self, lu: Factorization, params: PhysicalParams,
                       ddt: float, eta, etad, load):
        """One backward-Euler solid substep under the interface load `load`,
        solved by `lu`; returns (eta, etad).  Private: traced as the caller's."""
        rhs = ((params.rho_s / ddt) * (self.M_s @ etad)
               - self.stiffness_solid(params.l1, params.l2) @ eta)
        rhs[self.ifd_s] += load
        etad = lu.solve(rhs)
        return eta + ddt * etad, etad

    def trace_norm_sq(self, trace: np.ndarray) -> float:
        """Squared interface L2 norm of a canonical trace vector."""
        return float(trace @ self.M_c @ trace)

    def traction_norm_sq(self, load: np.ndarray) -> float:
        """Squared dual norm of a canonical interface load vector; past the
        largest double it is a silent inf, which the verdicts fail."""
        with np.errstate(over="ignore"):
            return float(load @ self._M_c_inv @ load)


class RobinRobinSolver:
    """Factorizes the two subproblem systems once and advances windows."""

    def __init__(self, disc: Discretization, params: PhysicalParams, grid: TimeGrid):
        self.disc = disc
        self.params = params
        self.grid = grid
        d, p = disc, params
        ddt = grid.ddt
        lam = p.lambda_robin
        self._solid_lu = Factorization(d.solid_operator(p, ddt, lam),
                                       d.solid_order, d.dir_s)
        self._fluid_lu = Factorization(d.fluid_saddle(p, ddt, lam),
                                       d.fluid_order, d.dir_f)

    # -- subproblem solves ------------------------------------------------

    def solid_step(self, eta: np.ndarray, etad: np.ndarray, u_avg: np.ndarray,
                   traction_avg: np.ndarray):
        """One backward-Euler substep of the solid Robin subproblem; returns
        (eta, etad)."""
        d, p = self.disc, self.params
        return d._solid_substep(self._solid_lu, p, self.grid.ddt, eta, etad,
                                p.lambda_robin * (d.M_c @ u_avg) - traction_avg)

    def fluid_step(self, u: np.ndarray, etad: np.ndarray, traction_avg: np.ndarray):
        """One backward-Euler substep of the fluid Robin subproblem, with the
        solid velocity etad of the same substep; returns (u, p)."""
        d, p = self.disc, self.params
        rhs_u = (p.rho_f / self.grid.ddt) * (d.M_f @ u)
        rhs_u[d.ifd_f] += p.lambda_robin * (d.M_c @ etad[d.ifd_s]) + traction_avg
        sol = self._fluid_lu.solve(np.concatenate([rhs_u, np.zeros(d.Q.ndof)]))
        return sol[:d.V_f.ndof], sol[d.V_f.ndof:]

    def extract_fluid_traction(self, u: np.ndarray, etad: np.ndarray,
                               traction_avg: np.ndarray) -> np.ndarray:
        """Variational fluid traction implied by the discrete Robin condition:
        <sigma_f n, v> = lambda <etad - u, v> + <traction_avg, v>."""
        d = self.disc
        diff = etad[d.ifd_s] - u[d.ifd_f]
        return self.params.lambda_robin * (d.M_c @ diff) + traction_avg

    @staticmethod
    def update_interface_average(disc: Discretization, samples):
        """Rectangle-rule averages (u_avg, traction_avg) of the substep
        traces and tractions."""
        return (np.mean([s.u[disc.ifd_f] for s in samples], axis=0),
                np.mean([s.traction for s in samples], axis=0))

    # -- orchestration -----------------------------------------------------

    def advance(self, state: SplitState) -> SplitState:
        """One window of m substeps, each a solid solve, a fluid solve and a
        traction extraction; then the average update.  Records the substep
        samples needed by the diagnostics.

        The paper solves the solid over the whole window before the fluid.
        Interleaving the substeps gives the same arrays bitwise: the solid
        substeps read only the interface data of the window's start, never
        the fluid, so every solve gets the same inputs and runs the same
        array operations as in that order."""
        eta, etad, u = state.eta, state.etad, state.u
        samples = []
        for k in range(1, self.grid.substeps + 1):
            eta, etad = self.solid_step(eta, etad, state.u_avg, state.traction_avg)
            u, pres = self.fluid_step(u, etad, state.traction_avg)
            samples.append(WindowSample(
                t=state.t + k * self.grid.ddt, u=u, p=pres, eta=eta, etad=etad,
                traction=self.extract_fluid_traction(u, etad, state.traction_avg)))
        u_avg, traction_avg = self.update_interface_average(self.disc, samples)
        return SplitState(t=samples[-1].t, u=u, p=pres, eta=eta, etad=etad,
                          u_avg=u_avg, traction_avg=traction_avg, samples=samples)

    def run(self, state0: SplitState):
        """Advance all windows, yielding each new state with its samples; no
        state is kept here."""
        state = state0
        for _ in range(self.grid.num_windows):
            state = self.advance(state)
            yield state

