"""The testbed's studies, each defined once for the CLI and the tests; each
returns its numbers and leaves thresholds and output formats to the caller."""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import build_ledger, energy_E, error_norms
from .initial_data import pressure_pulse, random_state, smooth_coupled_mode
from .monolithic import run_dirichlet_neumann, run_reference
from .splitting import Discretization, PhysicalParams, RobinRobinSolver, TimeGrid


def initial_state(disc: Discretization, seed: int):
    """Random data drawn from `seed`, or the pressure pulse for seed 0."""
    if seed != 0:
        return random_state(disc, np.random.default_rng(seed))
    return pressure_pulse(disc)


def robin_robin(disc: Discretization, params: PhysicalParams, grid: TimeGrid, state0):
    """The EnergyLedger of a Robin-Robin splitting run from state0."""
    states = RobinRobinSolver(disc, params, grid).run(state0)
    return build_ledger(disc, params, grid, states, state0)


def reference_steps(num_windows: int, dt_levels: int, substeps: int) -> int:
    """Steps of the convergence study's monolithic reference: lcm(8, m) per
    window of the finest of dt_levels halved levels, at least 8 per finest
    window and a whole number per substep, so that every substep time lies
    on the reference grid."""
    return num_windows * 2 ** (dt_levels - 1) * math.lcm(8, substeps)


def convergence(disc: Discretization, params: PhysicalParams, t_final: float,
                num_windows: int, dt_levels: int, substeps: int):
    """Splitting runs with num_windows * 2^i windows (i < dt_levels) against
    one monolithic reference, all from the smooth coupled mode.  Returns
    (dts, ErrorReports, per level (worst stability residual, E0 + S0),
    reference)."""
    n_levels = [num_windows * 2 ** i for i in range(dt_levels)]
    s0 = smooth_coupled_mode(disc, params)
    # the error report reads the fields only at the finest substep times
    ref = run_reference(disc, params, s0, t_final,
                        reference_steps(num_windows, dt_levels, substeps),
                        math.lcm(8, substeps) // substeps)
    dts, reports, residuals = [], [], []
    for n_win in n_levels:
        grid = TimeGrid(t_final, n_win, substeps)
        s0 = smooth_coupled_mode(disc, params)
        s0.traction_avg = ref.flux[0]
        # kept, since the error report and the ledger both read them
        states = list(RobinRobinSolver(disc, params, grid).run(s0))
        reports.append(error_norms(disc, params, grid, states, ref, s0))
        ledger = build_ledger(disc, params, grid, states, s0)
        residuals.append((ledger.stability_residual(), ledger.E[0] + ledger.S0))
        dts.append(grid.dt)
    return dts, reports, residuals, ref


def dirichlet_neumann(disc: Discretization, params: PhysicalParams, dt: float,
                      num_steps: int, state0):
    """(energy after each explicit Dirichlet-Neumann step from state0, growth);
    the first step loads the solid with state0's interface traction.

    Growth is measured from the first non-zero energy, since a run may start
    from zero velocity and displacement (the pressure pulse): 0 for a history
    that never leaves zero, infinite for a non-finite energy.  The run stops
    at a non-finite energy or a 1e9-fold growth."""
    e0, energies = 0.0, []
    steps = run_dirichlet_neumann(disc, params, dt, state0)
    for _, state in zip(range(num_steps), steps):
        e = energy_E(disc, params, state.u, state.etad, state.eta)
        energies.append(e)
        e0 = e0 or e
        if not np.isfinite(e) or e > 1e9 * e0:
            break
    if not np.all(np.isfinite(energies)):
        return energies, math.inf
    return energies, max(energies) / e0 if e0 else 0.0
