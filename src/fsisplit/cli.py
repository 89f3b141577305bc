"""Command line: `fsi-robin <command> --config <path> [--out <dir>]`.

Commands: stability, converge, lambda-sweep, dn-compare, dump-config.  Each
runs one study of `experiments`, writes its CSVs and checks its thresholds.
Exit codes: 0 success, 2 config error, 3 solver failure, 4 acceptance threshold
not met.  CSV floats carry 17 significant digits so reruns diff bitwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments
from .assembly import SingularSystemError
from .config import ConfigError, RunConfig, dump_config, parse_config
from .diagnostics import consistency_terms, energy_E, fit_rate
from .initial_data import stream_function_velocity
from .splitting import Discretization, PhysicalParams, TimeGrid

# Every verdict is written as `not (value <= bound)` or `not (value >= bound)`
# so that a NaN fails it.
STABILITY_TOL = 1e-8
RATE_THRESHOLD = 0.4
DN_BLOWUP_FACTOR = 1e6
LAMBDA_SWEEP = (0.1, 1.0, 10.0)
# A smooth mode whose initial energy scale is below this share of the
# stream-function field it was projected from is round-off: the mesh holds no
# divergence-free velocity of that shape, and no rate fits its errors.
ROUNDOFF_SHARE = 1e-20


class ThresholdError(RuntimeError):
    """An acceptance threshold of the experiment was not met."""


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        for row in (header, *rows):
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _roundoff_floor(disc: Discretization, params: PhysicalParams) -> float:
    """The initial energy scale E0 + S0 below which the convergence study's
    smooth mode is round-off; it takes matvecs, no solve."""
    zero = np.zeros(disc.V_s.ndof)
    u = stream_function_velocity(disc)
    return ROUNDOFF_SHARE * energy_E(disc, params, u, zero, zero)


def cmd_stability(cfg: RunConfig, out_dir: str) -> None:
    disc = Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)
    grid = TimeGrid(cfg.t_final, cfg.num_windows, cfg.substeps)
    state0 = experiments.initial_state(disc, cfg.params, cfg.seed)
    ledger = experiments.robin_robin(disc, cfg.params, grid, state0)
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
    if not (worst <= STABILITY_TOL * scale):
        raise ThresholdError("stability residual exceeds tolerance")


def cmd_converge(cfg: RunConfig, out_dir: str) -> None:
    disc = Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)
    dts, reports, residuals, ref = experiments.convergence(
        disc, cfg.params, cfg.t_final, cfg.num_windows, cfg.dt_levels, cfg.substeps)
    totals = [r.total for r in reports]
    # np.divide: a level with zero error gives a NaN or infinite rate, not
    # a ZeroDivisionError
    pairwise = [float("nan")] + [float(0.5 * np.log2(np.divide(a, b)))
                                 for a, b in zip(totals, totals[1:])]
    rows = [(dt, r.E_final, r.T_sum, r.S_final, r.total, q)
            for dt, r, q in zip(dts, reports, pairwise)]
    _write_csv(os.path.join(out_dir, "converge.csv"),
               ("dt", "err_E", "err_T_sum", "err_S", "total", "rate_pairwise"),
               rows)

    crows = []
    for dt in dts:
        g3, g2 = consistency_terms(disc, ref, dt, cfg.params.lambda_robin, cfg.t_final)
        for n, (a, b) in enumerate(zip(g3, g2)):
            crows.append((dt, n, float(a), float(b)))
    _write_csv(os.path.join(out_dir, "consistency.csv"),
               ("dt", "window", "g3_sq", "g2_sq"), crows)

    slope = fit_rate(dts, totals)
    print(f"fitted energy-norm rate = {slope:.3f}")
    scale, floor = residuals[0][1], _roundoff_floor(disc, cfg.params)
    if not (scale >= floor):
        raise ThresholdError(f"initial energy {scale:.3e} is round-off "
                             f"(below {floor:.3e}); no rate is measured")
    if not (slope >= RATE_THRESHOLD):
        raise ThresholdError(f"convergence rate {slope:.3f} below {RATE_THRESHOLD}")


def cmd_lambda_sweep(cfg: RunConfig, out_dir: str) -> None:
    disc = Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)
    rows = []
    failed = []
    floor = _roundoff_floor(disc, cfg.params)
    for lam in LAMBDA_SWEEP:
        params = replace(cfg.params, lambda_robin=lam)
        # [:3] frees this lambda's reference before the next one is built
        dts, reports, residuals = experiments.convergence(
            disc, params, cfg.t_final, cfg.num_windows, cfg.dt_levels, cfg.substeps)[:3]
        slope = fit_rate(dts, [r.total for r in reports])
        for dt, rep, (resid, scale) in zip(dts, reports, residuals):
            rows.append((lam, dt, rep.total, resid, slope))
            if not (resid <= STABILITY_TOL * scale):
                failed.append(f"lambda={lam}: residual {resid:.3e}")
        print(f"lambda = {lam}: rate = {slope:.3f}")
        if not (residuals[0][1] >= floor):
            failed.append(f"lambda={lam}: initial energy at round-off")
        if not (slope >= RATE_THRESHOLD):
            failed.append(f"lambda={lam}: rate {slope:.3f}")
    _write_csv(os.path.join(out_dir, "lambda_sweep.csv"),
               ("lambda", "dt", "err_total", "stability_residual", "rate"),
               rows)
    if failed:
        raise ThresholdError("; ".join(failed))


def cmd_dn_compare(cfg: RunConfig, out_dir: str) -> None:
    disc = Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)
    grid = TimeGrid(cfg.t_final, cfg.num_windows, 1)
    state0 = experiments.initial_state(disc, cfg.params, cfg.seed)
    ledger = experiments.robin_robin(disc, cfg.params, grid, state0)
    residuals = ledger.residuals()
    energies, growth = experiments.dirichlet_neumann(
        disc, cfg.params, grid.dt, cfg.num_windows, state0)

    rows = [(n, n * grid.dt, e, ledger.E[n], residuals[n - 1])
            for n, e in enumerate(energies, 1)]
    _write_csv(os.path.join(out_dir, "dn_compare.csv"),
               ("step", "t", "energy_dn", "energy_rr", "residual_rr"), rows)

    scale = ledger.E[0] + ledger.S0
    worst = float(residuals.max())
    print(f"dn energy growth = {growth:.3e}, "
          f"robin-robin residual max = {worst:.3e}")
    if not (growth >= DN_BLOWUP_FACTOR):
        raise ThresholdError("Dirichlet-Neumann run did not exhibit blow-up")
    if not (worst <= STABILITY_TOL * scale):
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
    except (SingularSystemError, RuntimeError, MemoryError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
