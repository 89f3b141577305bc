"""Energy-stability ledger, splitting-error quantities and rate fitting.

Each ledger term (E, T, S) is a function of one state or one window; the
splitting-error quantities are the same terms on the error trajectory.

All time integrals use the rectangle rule at substep right endpoints, the
quadrature matching the backward-Euler substepping: with that pairing the
per-window stability inequality closes to solver precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .splitting import (Discretization, PhysicalParams, RobinRobinSolver,
                        TimeGrid, WindowSample)


@dataclass
class EnergyLedger:
    """Per-window stability bookkeeping.

    residuals()[n - 1] = E_n + sum_{k<=n} T_k + S_n - (E_0 + S_0); the
    scheme is stable when every entry is <= tolerance.
    """

    E: list = field(default_factory=list)        # E[n], window boundaries, E[0] initial
    T: list = field(default_factory=list)        # T[n] for n >= 1
    S: list = field(default_factory=list)        # S[n] for n >= 1; S0 held separately
    S0: float = 0.0

    def stability_residual(self) -> float:
        """The worst residual over the windows."""
        return float(self.residuals().max())

    def residuals(self) -> np.ndarray:
        """The residual of each window n = 1 .. N, from one running sum of T;
        inf - inf is a silent NaN, which the verdicts fail."""
        n = len(self.T)
        with np.errstate(invalid="ignore"):
            return (np.asarray(self.E[1:n + 1]) + np.cumsum(self.T)
                    + np.asarray(self.S[:n]) - (self.E[0] + self.S0))


@dataclass
class ErrorReport:
    E_final: float
    T_sum: float
    S_final: float

    @property
    def total(self) -> float:
        return self.E_final + self.T_sum + self.S_final


def energy_E(disc: Discretization, params: PhysicalParams, u, etad, eta) -> float:
    """rho_f/2 ||u||^2 + rho_s/2 ||etad||^2 + 1/2 ||eta||_S^2."""
    A_s = disc.stiffness_solid(params.l1, params.l2)
    return float(0.5 * params.rho_f * u @ (disc.M_f @ u)
                 + 0.5 * params.rho_s * etad @ (disc.M_s @ etad)
                 + 0.5 * eta @ (A_s @ eta))


def window_T(disc: Discretization, params: PhysicalParams, grid: TimeGrid,
             samples, u_avg_prev, iface_weight: float = 0.5) -> float:
    """2 mu int ||eps(u)||^2 + (weight * lambda) int ||etad - u_avg_prev||^2
    over the window of `samples` (rectangle rule over substeps).

    The interface weight is 1/2 for the stability ledger and 1/4 for the
    error quantities.
    """
    K_f = disc.stiffness_fluid(params.mu)
    lam = params.lambda_robin
    ddt = grid.ddt
    total = 0.0
    for s in samples:
        visc = float(s.u @ (K_f @ s.u))  # K_f already carries the factor 2 mu
        diff = s.etad[disc.ifd_s] - u_avg_prev
        total += ddt * (visc + iface_weight * lam * disc.trace_norm_sq(diff))
    return total


def _interface_S(disc: Discretization, lam: float, traction, u_trace) -> float:
    """1/(2 lambda) ||sigma_f n||^2 + lambda/2 ||u||^2 on the interface;
    traction in the interface-mass dual norm."""
    return (disc.traction_norm_sq(traction) / (2 * lam)
            + 0.5 * lam * disc.trace_norm_sq(u_trace))


def window_S(disc: Discretization, params: PhysicalParams, grid: TimeGrid,
             samples) -> float:
    """The interface stock _interface_S integrated over the window's samples."""
    total = 0.0
    for s in samples:
        total += grid.ddt * _interface_S(disc, params.lambda_robin, s.traction,
                                         s.u[disc.ifd_f])
    return total


def initial_S0(disc: Discretization, params: PhysicalParams, grid: TimeGrid,
               u0_trace: np.ndarray, traction0: np.ndarray) -> float:
    """dt times the interface stock of the initial trace and traction."""
    return grid.dt * _interface_S(disc, params.lambda_robin, traction0, u0_trace)


def build_ledger(disc: Discretization, params: PhysicalParams, grid: TimeGrid,
                 states, state0) -> EnergyLedger:
    """Assemble the full stability ledger from the SplitStates of a
    splitting run that starts from the SplitState state0."""
    ledger = EnergyLedger(
        S0=initial_S0(disc, params, grid, state0.u_avg, state0.traction_avg))
    ledger.E.append(energy_E(disc, params, state0.u, state0.etad, state0.eta))
    prev = state0
    for state in states:
        ledger.E.append(energy_E(disc, params, state.u, state.etad, state.eta))
        ledger.T.append(window_T(disc, params, grid, state.samples, prev.u_avg))
        ledger.S.append(window_S(disc, params, grid, state.samples))
        prev = state
    return ledger


def error_norms(disc: Discretization, params: PhysicalParams, grid: TimeGrid,
                states, reference, state0) -> ErrorReport:
    """The ledger terms of the error trajectory, reference minus splitting at
    every substep time: final E and S, and T summed with interface weight
    1/4 against the previous window's error average.

    Both trajectories must start from the same state, interface data
    included (so the initial error and interface-error stock vanish), and
    sample j = 1 .. m of window n = 0, 1, ... is compared with the
    reference's step (n m + j) steps_per(ddt), which it must store.
    """
    ref0, flux0 = reference.step(0)
    if not all(map(np.array_equal, (ref0.u, ref0.eta, ref0.etad, reference.traces[0], flux0),
                   (state0.u, state0.eta, state0.etad, state0.u_avg, state0.traction_avg))):
        raise ValueError("reference and splitting runs start from different states")

    per = reference.steps_per(grid.ddt)
    # the first window's interface data are exact, so their error vanishes
    u_avg = np.zeros(disc.ifd_f.size)
    T_windows = []
    for n, state in enumerate(states):
        samples = []
        for k, s in enumerate(state.samples, n * grid.substeps + 1):
            ref, flux = reference.step(k * per)
            samples.append(WindowSample(  # pressure enters no ledger term
                t=s.t, u=ref.u - s.u, p=None, eta=ref.eta - s.eta,
                etad=ref.etad - s.etad, traction=flux - s.traction))
        T_windows.append(window_T(disc, params, grid, samples, u_avg,
                                  iface_weight=0.25))
        u_avg, _ = RobinRobinSolver.update_interface_average(disc, samples)

    last = samples[-1]
    return ErrorReport(E_final=energy_E(disc, params, last.u, last.etad, last.eta),
                       T_sum=float(np.sum(T_windows)),
                       S_final=window_S(disc, params, grid, samples))


def consistency_terms(disc: Discretization, reference, dt: float, lam: float):
    """Per-window squared interface norms of the averaging consistency terms.

    g3 = lambda (U - window-average of previous U); g2 is the analogous
    difference of fluid traction loads (dual norm).  Returns (g3, g2) arrays,
    one entry per window of size dt, the windows tiling the reference's
    steps; the sums scale like dt for smooth reference trajectories.
    """
    per, ref_dt = reference.steps_per(dt), reference.ddt
    g3 = np.zeros((len(reference.times) - 1) // per)
    g2 = np.zeros_like(g3)
    u_tr, flux = reference.traces, reference.flux
    u_avg, f_avg = u_tr[0], flux[0]  # the first window's interface data
    for n in range(g3.size):
        lo, hi = n * per + 1, (n + 1) * per + 1
        for k in range(lo, hi):
            g3[n] += ref_dt * lam * lam * disc.trace_norm_sq(u_tr[k] - u_avg)
            g2[n] += ref_dt * disc.traction_norm_sq(flux[k] - f_avg)
        u_avg = np.mean(u_tr[lo:hi], axis=0)  # rolled as `advance` rolls them
        f_avg = np.mean(flux[lo:hi], axis=0)
    return g3, g2


def fit_rate(dts, totals) -> float:
    """Least-squares slope of log(sqrt(total error)) against log(dt).

    A non-monotone error sequence is flagged with a warning but still fitted.
    """
    dts = np.asarray(dts, dtype=float)
    totals = np.asarray(totals, dtype=float)
    if dts.size < 2:
        raise ValueError("need at least two levels to fit a rate")
    # a zero or infinite total fits a silent NaN rate, which the verdicts fail
    with np.errstate(divide="ignore", invalid="ignore"):
        rising = np.any(np.diff(totals) >= 0)
        log_errors = 0.5 * np.log(totals)
    if rising:
        warnings.warn("error sequence is not strictly decreasing",
                      RuntimeWarning, stacklevel=2)
    return float(np.polyfit(np.log(dts), log_errors, 1)[0])
