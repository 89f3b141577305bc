"""Experiment orchestration: `fsi-robin <command> --config <path> [--out <dir>]`.

Commands: stability, converge, lambda-sweep, dn-compare, dump-config.
Exit codes: 0 success, 2 config error, 3 solver failure, 4 acceptance
threshold not met.  All CSV floats carry 17 significant digits so reruns can
be diffed bitwise.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .assembly import SingularSystemError
from .config import ConfigError, RunConfig, dump_config, parse_config
from .diagnostics import (build_ledger, consistency_terms, energy_E,
                          error_norms, fit_rate)
from .initial_data import pressure_pulse, random_state, smooth_coupled_mode
from .monolithic import (CoupledState, DirichletNeumannExplicit,
                         run_reference)
from .splitting import (Discretization, RobinRobinSolver, TimeGrid,
                        initial_interface_data)

STABILITY_TOL = 1e-8
RATE_THRESHOLD = 0.4
DN_BLOWUP_FACTOR = 1e6
LAMBDA_SWEEP = (0.1, 1.0, 10.0)


class ThresholdError(RuntimeError):
    """An acceptance threshold of the experiment was not met."""


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _discretize(cfg: RunConfig) -> Discretization:
    return Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)


def _initial_state(cfg: RunConfig, disc: Discretization):
    if cfg.seed != 0:
        return random_state(disc, cfg.params, np.random.default_rng(cfg.seed))
    return pressure_pulse(disc, cfg.params, amplitude=1.0,
                          width=cfg.geometry.length / 4.0)


def cmd_stability(cfg: RunConfig, out_dir: str) -> None:
    disc = _discretize(cfg)
    grid = TimeGrid(cfg.t_final, cfg.num_windows, cfg.substeps)
    solver = RobinRobinSolver(disc, cfg.params, grid)
    state0 = _initial_state(cfg, disc)
    _, windows = solver.run(state0)
    ledger = build_ledger(disc, cfg.params, grid, windows, state0, state0.iface)
    residuals = ledger.residuals()
    rows = [(0, 0.0, ledger.E[0], 0.0, ledger.S0, 0.0)]
    for n in range(1, len(ledger.T) + 1):
        rows.append((n, n * grid.dt, ledger.E[n], ledger.T[n - 1],
                     ledger.S[n - 1], residuals[n - 1]))
    _write_csv(os.path.join(out_dir, "stability.csv"),
               ("step", "t", "E", "T", "S", "stability_residual"), rows)
    scale = ledger.E[0] + ledger.S0
    worst = float(residuals.max())
    print(f"stability residual max = {worst:.3e} (scale {scale:.3e})")
    if worst > STABILITY_TOL * scale:
        raise ThresholdError("stability residual exceeds tolerance")


def _convergence_levels(cfg: RunConfig, disc: Discretization, params):
    """Shared by converge and lambda-sweep: one reference, dt_levels splitting
    runs at halved window sizes; returns (dts, reports, residual_scales)."""
    T = cfg.t_final
    n_levels = [cfg.num_windows * 2 ** i for i in range(cfg.dt_levels)]
    # at least 8 reference steps per finest window, and a whole number per
    # substep so that every substep time lies on the reference grid
    ref_steps = n_levels[-1] * math.lcm(8, cfg.substeps)
    state0 = smooth_coupled_mode(disc, params)
    ref = run_reference(disc, params,
                        CoupledState(0.0, state0.u, state0.p, state0.eta,
                                     state0.etad), T, ref_steps)
    dts, reports, residuals = [], [], []
    for n_win in n_levels:
        grid = TimeGrid(T, n_win, cfg.substeps)
        solver = RobinRobinSolver(disc, params, grid)
        st0 = smooth_coupled_mode(disc, params)
        st0.iface = initial_interface_data(disc, st0.u, traction0=ref.flux[0])
        _, windows = solver.run(st0)
        reports.append(error_norms(disc, params, grid, windows, ref, st0))
        ledger = build_ledger(disc, params, grid, windows, st0, st0.iface)
        residuals.append((float(ledger.residuals().max()),
                          ledger.E[0] + ledger.S0))
        dts.append(grid.dt)
    return dts, reports, residuals, ref


def cmd_converge(cfg: RunConfig, out_dir: str) -> None:
    disc = _discretize(cfg)
    dts, reports, _, ref = _convergence_levels(cfg, disc, cfg.params)
    totals = [r.total for r in reports]
    rows = []
    for i, (dt, rep) in enumerate(zip(dts, reports)):
        pairwise = (0.5 * np.log2(totals[i - 1] / totals[i])
                    if i > 0 else float("nan"))
        rows.append((dt, rep.E_final, rep.T_sum, rep.S_final, rep.total,
                     float(pairwise)))
    _write_csv(os.path.join(out_dir, "converge.csv"),
               ("dt", "err_E", "err_T_sum", "err_S", "total", "rate_pairwise"),
               rows)

    crows = []
    for dt in dts:
        g3, g2 = consistency_terms(disc, ref, dt, cfg.params.lambda_robin,
                                   cfg.t_final)
        for n, (a, b) in enumerate(zip(g3, g2)):
            crows.append((dt, n, float(a), float(b)))
    _write_csv(os.path.join(out_dir, "consistency.csv"),
               ("dt", "window", "g3_sq", "g2_sq"), crows)

    slope = fit_rate(dts, totals)
    print(f"fitted energy-norm rate = {slope:.3f}")
    if slope < RATE_THRESHOLD:
        raise ThresholdError(f"convergence rate {slope:.3f} below {RATE_THRESHOLD}")


def cmd_lambda_sweep(cfg: RunConfig, out_dir: str) -> None:
    from dataclasses import replace

    disc = _discretize(cfg)
    rows = []
    failed = []
    for lam in LAMBDA_SWEEP:
        params = replace(cfg.params, lambda_robin=lam)
        dts, reports, residuals, _ = _convergence_levels(cfg, disc, params)
        totals = [r.total for r in reports]
        slope = fit_rate(dts, totals)
        for dt, rep, (resid, scale) in zip(dts, reports, residuals):
            rows.append((lam, dt, rep.total, resid, slope))
            if resid > STABILITY_TOL * scale:
                failed.append(f"lambda={lam}: residual {resid:.3e}")
        print(f"lambda = {lam}: rate = {slope:.3f}")
        if slope < RATE_THRESHOLD:
            failed.append(f"lambda={lam}: rate {slope:.3f}")
    _write_csv(os.path.join(out_dir, "lambda_sweep.csv"),
               ("lambda", "dt", "err_total", "stability_residual", "rate"),
               rows)
    if failed:
        raise ThresholdError("; ".join(failed))


def cmd_dn_compare(cfg: RunConfig, out_dir: str) -> None:
    disc = _discretize(cfg)
    grid = TimeGrid(cfg.t_final, cfg.num_windows, 1)
    state0 = _initial_state(cfg, disc)

    solver = RobinRobinSolver(disc, cfg.params, grid)
    _, windows = solver.run(state0)
    ledger = build_ledger(disc, cfg.params, grid, windows, state0, state0.iface)
    residuals = ledger.residuals()

    dn = DirichletNeumannExplicit(disc, cfg.params, grid.dt)
    st = CoupledState(0.0, state0.u, state0.p, state0.eta, state0.etad)
    traction = state0.iface.traction_avg.copy()
    # growth is measured against the first non-zero energy: a run may start
    # from zero velocity and displacement (the pressure pulse)
    e0 = 0.0
    energies = []
    for _ in range(cfg.num_windows):
        st, traction = dn.step(st, traction)
        e = energy_E(disc, cfg.params, st.u, st.etad, st.eta)
        energies.append(e)
        e0 = e0 or e
        if not np.isfinite(e) or e > 1e9 * e0:
            break

    rows = []
    for n in range(len(energies)):
        rr_e = ledger.E[n + 1] if n + 1 < len(ledger.E) else float("nan")
        rows.append((n + 1, (n + 1) * grid.dt, energies[n], rr_e,
                     residuals[n]))
    _write_csv(os.path.join(out_dir, "dn_compare.csv"),
               ("step", "t", "energy_dn", "energy_rr", "residual_rr"), rows)

    scale = ledger.E[0] + ledger.S0
    worst = float(residuals.max())
    # a non-finite energy is a blow-up (Python's max would skip a NaN); a
    # history that never leaves zero did not grow
    if not np.all(np.isfinite(energies)):
        growth = math.inf
    else:
        growth = max(energies) / e0 if e0 else 0.0
    print(f"dn energy growth = {growth:.3e}, "
          f"robin-robin residual max = {worst:.3e}")
    if growth < DN_BLOWUP_FACTOR:
        raise ThresholdError("Dirichlet-Neumann run did not exhibit blow-up")
    if worst > STABILITY_TOL * scale:
        raise ThresholdError("Robin-Robin residual exceeds tolerance")


COMMANDS = {
    "stability": cmd_stability,
    "converge": cmd_converge,
    "lambda-sweep": cmd_lambda_sweep,
    "dn-compare": cmd_dn_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fsi-robin")
    parser.add_argument("command", choices=list(COMMANDS) + ["dump-config"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "dump-config":
        sys.stdout.write(dump_config(cfg))
        return 0

    os.makedirs(args.out, exist_ok=True)
    try:
        COMMANDS[args.command](cfg, args.out)
    except ThresholdError as exc:
        print(f"threshold failure: {exc}", file=sys.stderr)
        return 4
    except (SingularSystemError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
