"""Robin-Robin loosely coupled time stepping.

Per window [t_n, t_{n+1}] the solid subproblem is solved first with the Robin
condition lambda*etad + sigma_s*n_s = lambda*u_avg - traction_avg, then the
fluid subproblem with lambda*u + sigma_f*n = lambda*etad + traction_avg, and
finally the interface window averages are updated for the next window.  Each
window is discretized with m backward-Euler substeps (m = 1 recovers the
standard fully discrete scheme where the averages collapse to endpoint values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import mesh as msh
from .assembly import (Factorization, apply_dirichlet, assemble_divergence,
                       assemble_elasticity, assemble_interface_mass,
                       assemble_symgrad, assemble_vector_mass, stack_saddle)
from .mesh import ChannelGeometry, build_two_layer_mesh
from .spaces import SCALAR_P1, VECTOR_P2, build_space


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
class InterfaceData:
    """Window-averaged interface data in the canonical interface ordering.

    u_avg holds velocity trace coefficients; traction_avg is the load vector
    of the averaged variational fluid traction (v -> <sigma_f n, v> on the
    interface test dofs).
    """

    u_avg: np.ndarray
    traction_avg: np.ndarray


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
class WindowRecord:
    """Per-window trajectory samples plus the interface data driving them."""

    samples: list
    iface_used: InterfaceData


@dataclass
class SplitState(CoupledState):
    """The fields plus the interface data for the next window and the
    record of the window that produced them (None for initial data)."""

    iface: InterfaceData
    window: WindowRecord | None = None


class Discretization:
    """Spaces and matrices shared by the splitting and monolithic solvers."""

    def __init__(self, geom: ChannelGeometry, nx: int, ny_f: int, ny_s: int):
        self.geom = geom
        self.mesh = build_two_layer_mesh(geom, nx, ny_f, ny_s)
        self.V_f = build_space(self.mesh, msh.FLUID, VECTOR_P2)
        self.Q = build_space(self.mesh, msh.FLUID, SCALAR_P1)
        self.V_s = build_space(self.mesh, msh.SOLID, VECTOR_P2)
        if not np.allclose(self.V_f.node_coords[self.V_f.interface_nodes],
                           self.V_s.node_coords[self.V_s.interface_nodes]):
            raise RuntimeError("interface dof orderings of the two spaces differ")

        self.M_f = assemble_vector_mass(self.V_f, 1.0)
        self.M_s = assemble_vector_mass(self.V_s, 1.0)
        self.B = assemble_divergence(self.V_f, self.Q)
        self.BT = self.B.T.tocsr()
        self.M_if = assemble_interface_mass(self.V_f)
        self.M_is = assemble_interface_mass(self.V_s)
        self.dir_f = self.V_f.dirichlet_dofs(msh.SIGMA_F)
        self.dir_s = self.V_s.dirichlet_dofs(msh.SIGMA_S)
        self.ifd_f = self.V_f.interface_dofs
        self.ifd_s = self.V_s.interface_dofs
        # canonical interface mass (small and dense); identical from either side
        self.M_c = self.M_if[self.ifd_f][:, self.ifd_f].toarray()
        self._M_c_inv = np.linalg.inv(self.M_c)
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
        """[[rho_f/ddt M + K (+ lam M_iface), -B^T], [B, 0]], without
        Dirichlet rows."""
        Auu = (params.rho_f / ddt) * self.M_f + self.stiffness_fluid(params.mu)
        if lam:
            Auu = Auu + lam * self.M_if
        return stack_saddle(Auu, -self.BT, self.B)

    def solid_operator(self, params: PhysicalParams, ddt: float,
                       lam: float = 0.0) -> sp.csr_matrix:
        """rho_s/ddt M + ddt A (+ lam M_iface), without Dirichlet rows."""
        S = ((params.rho_s / ddt) * self.M_s
             + ddt * self.stiffness_solid(params.l1, params.l2))
        if lam:
            S = S + lam * self.M_is
        return S

    def trace_norm_sq(self, trace: np.ndarray) -> float:
        """Squared interface L2 norm of a canonical trace vector."""
        return float(trace @ self.M_c @ trace)

    def traction_norm_sq(self, load: np.ndarray) -> float:
        """Squared dual norm of a canonical interface load vector."""
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

        self.A_s = d.stiffness_solid(p.l1, p.l2)

        S, _ = apply_dirichlet(d.solid_operator(p, ddt, lam),
                               np.zeros(d.V_s.ndof), d.dir_s)
        self._solid_lu = Factorization(S)

        nu, npr = d.V_f.ndof, d.Q.ndof
        F, _ = apply_dirichlet(d.fluid_saddle(p, ddt, lam), np.zeros(nu + npr),
                               d.dir_f)
        self._fluid_lu = Factorization(F)
        self._nu, self._np = nu, npr

    # -- subproblem solves ------------------------------------------------

    def solid_step(self, eta: np.ndarray, etad: np.ndarray, iface: InterfaceData):
        """Backward-Euler substeps of the solid Robin subproblem over one
        window; returns per-substep (eta, etad) samples."""
        d, p = self.disc, self.params
        ddt = self.grid.ddt
        lam = p.lambda_robin

        u_embed = np.zeros(d.V_s.ndof)
        u_embed[d.ifd_s] = iface.u_avg
        robin_rhs = lam * (d.M_is @ u_embed)
        robin_rhs[d.ifd_s] -= iface.traction_avg

        samples = []
        for _ in range(self.grid.substeps):
            rhs = (p.rho_s / ddt) * (d.M_s @ etad) - self.A_s @ eta + robin_rhs
            rhs[d.dir_s] = 0.0
            etad = self._solid_lu.solve(rhs)
            eta = eta + ddt * etad
            samples.append((eta, etad))
        return samples

    def fluid_step(self, u: np.ndarray, solid_samples, iface: InterfaceData):
        """Backward-Euler substeps of the fluid Robin subproblem, using the
        new solid velocity at the matching substep times."""
        d, p = self.disc, self.params
        ddt = self.grid.ddt
        lam = p.lambda_robin

        samples = []
        for _, etad in solid_samples:
            etad_embed = np.zeros(d.V_f.ndof)
            etad_embed[d.ifd_f] = etad[d.ifd_s]
            rhs_u = (p.rho_f / ddt) * (d.M_f @ u) + lam * (d.M_if @ etad_embed)
            rhs_u[d.ifd_f] += iface.traction_avg
            rhs_u[d.dir_f] = 0.0
            sol = self._fluid_lu.solve(np.concatenate([rhs_u, np.zeros(self._np)]))
            u, pres = sol[:self._nu], sol[self._nu:]
            samples.append((u, pres))
        return samples

    def extract_fluid_traction(self, u: np.ndarray, etad: np.ndarray,
                               iface: InterfaceData) -> np.ndarray:
        """Variational fluid traction implied by the discrete Robin condition:
        <sigma_f n, v> = lambda <etad - u, v> + <traction_avg, v>."""
        d = self.disc
        diff = etad[d.ifd_s] - u[d.ifd_f]
        return self.params.lambda_robin * (d.M_c @ diff) + iface.traction_avg

    @staticmethod
    def update_interface_average(disc: Discretization, samples) -> InterfaceData:
        """Rectangle-rule average of the substep traces and tractions."""
        u_avg = np.mean([s.u[disc.ifd_f] for s in samples], axis=0)
        t_avg = np.mean([s.traction for s in samples], axis=0)
        return InterfaceData(u_avg, t_avg)

    # -- orchestration -----------------------------------------------------

    def advance(self, state: SplitState) -> SplitState:
        """One window: solid solve, fluid solve, traction extraction, average
        update.  Records the substep samples needed by the diagnostics."""
        grid = self.grid
        iface = state.iface

        solid = self.solid_step(state.eta, state.etad, iface)
        fluid = self.fluid_step(state.u, solid, iface)

        samples = []
        for k, ((eta, etad), (u, pres)) in enumerate(zip(solid, fluid)):
            traction = self.extract_fluid_traction(u, etad, iface)
            samples.append(WindowSample(
                t=state.t + (k + 1) * grid.ddt, u=u, p=pres, eta=eta, etad=etad,
                traction=traction))
        last = samples[-1]
        return SplitState(
            t=last.t, u=last.u, p=last.p, eta=last.eta, etad=last.etad,
            iface=self.update_interface_average(self.disc, samples),
            window=WindowRecord(samples=samples, iface_used=iface))

    def run(self, state0: SplitState):
        """Advance all windows, yielding each new state with its window; no
        window is kept here."""
        state = state0
        for _ in range(self.grid.num_windows):
            state = self.advance(state)
            yield state

