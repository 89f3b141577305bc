"""Initial states for stability and convergence experiments.

All constructors return a SplitState at t = 0 whose fields satisfy the
homogeneous Dirichlet conditions exactly and whose fluid velocity is
discretely divergence-free.
"""

from __future__ import annotations

import numpy as np

from .assembly import (EDGE_POINTS, EDGE_WEIGHTS, Factorization,
                       apply_dirichlet, edge_basis, stack_saddle)
from .splitting import Discretization, PhysicalParams, SplitState


def project_divergence_free(disc: Discretization, u_raw: np.ndarray) -> np.ndarray:
    """L2-closest velocity to u_raw satisfying B u = 0 and u = 0 on the outer
    fluid boundary (one constrained saddle-point solve)."""
    d = disc
    nu, npr = d.V_f.ndof, d.Q.ndof
    u_raw = u_raw.copy()
    u_raw[d.dir_f] = 0.0
    A = apply_dirichlet(stack_saddle(d.M_f, d.BT, d.B), d.dir_f)
    b = np.concatenate([d.M_f @ u_raw, np.zeros(npr)])
    b[d.dir_f] = 0.0
    u = Factorization(A, d.fluid_order).solve(b)[:nu].copy()  # not a view of the solve vector
    res = np.linalg.norm(d.B @ u)
    if not res <= 1e-8 * max(1.0, np.linalg.norm(u)):  # NaN fails too
        raise RuntimeError(f"divergence-free projection failed, |Bu| = {res:.3e}")
    return u


def solid_extension(disc: Discretization, trace: np.ndarray) -> np.ndarray:
    """Extend canonical interface trace values into the solid domain, zero on
    the outer solid boundary; interface dofs carry the trace bitwise."""
    d = disc
    A = (d.M_s + d.stiffness_solid(1.0, 0.0)).tocsr()
    lift = np.zeros(d.V_s.ndof)
    lift[d.ifd_s] = trace
    b = np.zeros(d.V_s.ndof) - A @ lift
    b[d.dir_s] = 0.0
    b[d.ifd_s] = trace
    A = apply_dirichlet(A, np.concatenate([d.dir_s, d.ifd_s]))
    out = Factorization(A, d.solid_order).solve(b)
    out[d.ifd_s] = trace  # exact, not up to solver tolerance
    out[d.dir_s] = 0.0
    return out


def pressure_traction_load(disc: Discretization, pressure) -> np.ndarray:
    """Interface quadrature of the pressure traction -p n against the
    interface test functions; pressure is a callable of (x, y), evaluated on
    arrays of points.  Seeds the n = 0 interface data from an analytic
    initial pressure at rest, where the viscous traction vanishes."""
    space = disc.V_f
    facets = space.interface_facets  # (f, 3): endpoint0, endpoint1, midpoint
    p0, p1 = space.node_coords[facets[:, 0]], space.node_coords[facets[:, 1]]
    length = np.linalg.norm(p1 - p0, axis=1)

    xq = p0[:, None] + EDGE_POINTS[:, None] * (p1 - p0)[:, None]  # (f, q, 2)
    pres = np.broadcast_to(pressure(xq[..., 0], xq[..., 1]), xq.shape[:2])
    tn = np.zeros(xq.shape)
    tn[..., 1] = -pres  # the outward fluid normal of the flat interface is (0, 1)

    wl = EDGE_WEIGHTS * length[:, None]
    contrib = (wl[..., None] * edge_basis(EDGE_POINTS))[..., None] * tn[:, :, None]
    load = np.zeros((space.num_nodes, 2))
    # accumulate facet by facet, point by point, node by node
    np.add.at(load, np.broadcast_to(facets[:, None], contrib.shape[:3]), contrib)
    return load.ravel()[disc.ifd_f]


def pressure_pulse(disc: Discretization) -> SplitState:
    """Zero velocity and displacement; a Gaussian pressure bump of amplitude
    1 and width L/4, centred on the channel, seeds the initial interface
    traction."""
    d = disc
    L = d.geom.length

    def p0(x, y):
        return np.exp(-((x - L / 2.0) ** 2) / (L / 4.0) ** 2)

    return SplitState(t=0.0, u=np.zeros(d.V_f.ndof), p=p0(*d.Q.node_coords.T),
                      eta=np.zeros(d.V_s.ndof), etad=np.zeros(d.V_s.ndof),
                      u_avg=np.zeros(d.ifd_f.size),
                      traction_avg=pressure_traction_load(d, p0))


def stream_function_velocity(disc: Discretization) -> np.ndarray:
    """The curl of the stream function psi = x^2 (L-x)^2 y^2 at the fluid
    velocity nodes: the smooth mode's velocity before its projection."""
    L = disc.geom.length
    x, y = disc.V_f.node_coords.T
    ux = x ** 2 * (L - x) ** 2 * 2.0 * y
    uy = -(2 * x * (L - x) ** 2 - 2 * x ** 2 * (L - x)) * y ** 2
    return np.column_stack([ux, uy]).ravel()


def smooth_coupled_mode(disc: Discretization, params: PhysicalParams) -> SplitState:
    """Smooth, kinematically compatible initial data for convergence runs.

    The fluid velocity derives from the stream function
    psi = x^2 (L-x)^2 y^2, which vanishes along with its normal
    derivative on the outer fluid boundary, and is projected onto the
    discretely divergence-free subspace.  The solid velocity extends the
    fluid trace (shared interface values bitwise); displacement starts at
    zero.  The initial traction is zero here: the caller sets
    traction_avg (e.g. to the monolithic-consistent flux).
    """
    d = disc
    u = project_divergence_free(d, stream_function_velocity(d))

    etad = solid_extension(d, u[d.ifd_f])
    return SplitState(t=0.0, u=u, p=np.zeros(d.Q.ndof),
                      eta=np.zeros(d.V_s.ndof), etad=etad,
                      u_avg=u[d.ifd_f].copy(), traction_avg=np.zeros(d.ifd_f.size))


def random_state(disc: Discretization, rng: np.random.Generator) -> SplitState:
    """Random nonzero initial data for the stability sweep: random nodal
    fields (divergence-free fluid velocity, solid displacement and velocity)
    and a random initial interface traction."""
    d = disc
    u = project_divergence_free(d, rng.standard_normal(d.V_f.ndof))
    eta = rng.standard_normal(d.V_s.ndof)
    etad = rng.standard_normal(d.V_s.ndof)
    eta[d.dir_s] = 0.0
    etad[d.dir_s] = 0.0
    traction = d.M_c @ rng.standard_normal(d.ifd_f.size)
    return SplitState(t=0.0, u=u, p=np.zeros(d.Q.ndof), eta=eta, etad=etad,
                      u_avg=u[d.ifd_f].copy(), traction_avg=traction)
