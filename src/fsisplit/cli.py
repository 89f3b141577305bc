"""Command line: `fsi-robin <command> --config <path> [--out <dir>]`.

Commands: stability, converge, lambda-sweep, dn-compare, dump-config.  Each
runs one study of `experiments`, writes its CSVs and returns its failed checks.
Exit codes: 0 success, 2 config or output error, 3 solver failure, 4 acceptance
threshold not met.  CSV floats carry 17 significant digits so reruns diff bitwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import experiments
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


def _stability_failures(resid: float, scale: float) -> list:
    """The stability claim: a residual at most STABILITY_TOL (E0 + S0)."""
    bound = STABILITY_TOL * scale
    if not (resid <= bound):
        return [f"stability residual {resid:.3e} above {bound:.3e}"]
    return []


def _convergence_verdict(dts, reports, residuals, floor: float):
    """(fitted rate, failure messages) of one convergence study: every level
    stable, an initial energy above the round-off floor, and the rate."""
    rate = fit_rate(dts, [r.total for r in reports])
    failures = [f for resid, scale in residuals
                for f in _stability_failures(resid, scale)]
    scale = residuals[0][1]
    if not (scale >= floor):
        failures.append(f"initial energy {scale:.3e} is round-off "
                        f"(below {floor:.3e}); no rate is measured")
    if not (rate >= RATE_THRESHOLD):
        failures.append(f"convergence rate {rate:.3f} below {RATE_THRESHOLD}")
    return rate, failures


def cmd_stability(cfg: RunConfig, disc: Discretization, out_dir: str) -> list:
    grid = TimeGrid(cfg.t_final, cfg.num_windows, cfg.substeps)
    state0 = experiments.initial_state(disc, cfg.seed)
    ledger = experiments.robin_robin(disc, cfg.params, grid, state0)
    residuals = ledger.residuals()
    rows = [(0, 0.0, ledger.E[0], 0.0, ledger.S0, 0.0)]
    for n in range(1, len(ledger.T) + 1):
        rows.append((n, n * grid.dt, ledger.E[n], ledger.T[n - 1],
                     ledger.S[n - 1], residuals[n - 1]))
    _write_csv(os.path.join(out_dir, "stability.csv"),
               ("step", "t", "E", "T", "S", "stability_residual"), rows)
    scale, worst = ledger.E[0] + ledger.S0, ledger.stability_residual()
    print(f"stability residual max = {worst:.3e} (scale {scale:.3e})")
    return _stability_failures(worst, scale)


def cmd_converge(cfg: RunConfig, disc: Discretization, out_dir: str) -> list:
    dts, reports, residuals, ref = experiments.convergence(
        disc, cfg.params, cfg.t_final, cfg.num_windows, cfg.dt_levels, cfg.substeps)
    totals = [r.total for r in reports]
    # np.divide: a level with zero or infinite error gives a silent NaN or
    # infinite rate, not a ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        pairwise = [float("nan")] + [float(0.5 * np.log2(np.divide(a, b)))
                                     for a, b in zip(totals, totals[1:])]
    rows = [(dt, r.E_final, r.T_sum, r.S_final, r.total, q)
            for dt, r, q in zip(dts, reports, pairwise)]
    _write_csv(os.path.join(out_dir, "converge.csv"),
               ("dt", "err_E", "err_T_sum", "err_S", "total", "rate_pairwise"),
               rows)

    crows = []
    for dt in dts:
        g3, g2 = consistency_terms(disc, ref, dt, cfg.params.lambda_robin)
        for n, (a, b) in enumerate(zip(g3, g2)):
            crows.append((dt, n, float(a), float(b)))
    _write_csv(os.path.join(out_dir, "consistency.csv"),
               ("dt", "window", "g3_sq", "g2_sq"), crows)

    rate, failures = _convergence_verdict(dts, reports, residuals,
                                          _roundoff_floor(disc, cfg.params))
    print(f"fitted energy-norm rate = {rate:.3f}")
    return failures


def cmd_lambda_sweep(cfg: RunConfig, disc: Discretization, out_dir: str) -> list:
    rows, failures = [], []
    floor = _roundoff_floor(disc, cfg.params)
    for lam in LAMBDA_SWEEP:
        params = replace(cfg.params, lambda_robin=lam)
        # [:3] frees this lambda's reference before the next one is built
        dts, reports, residuals = experiments.convergence(
            disc, params, cfg.t_final, cfg.num_windows, cfg.dt_levels, cfg.substeps)[:3]
        rate, failed = _convergence_verdict(dts, reports, residuals, floor)
        rows += [(lam, dt, rep.total, resid, rate)
                 for dt, rep, (resid, _) in zip(dts, reports, residuals)]
        failures += [f"lambda={lam}: {f}" for f in failed]
        print(f"lambda = {lam}: rate = {rate:.3f}")
    _write_csv(os.path.join(out_dir, "lambda_sweep.csv"),
               ("lambda", "dt", "err_total", "stability_residual", "rate"),
               rows)
    return failures


def cmd_dn_compare(cfg: RunConfig, disc: Discretization, out_dir: str) -> list:
    grid = TimeGrid(cfg.t_final, cfg.num_windows, 1)
    state0 = experiments.initial_state(disc, cfg.seed)
    ledger = experiments.robin_robin(disc, cfg.params, grid, state0)
    residuals = ledger.residuals()
    energies, growth = experiments.dirichlet_neumann(
        disc, cfg.params, grid.dt, cfg.num_windows, state0)

    rows = [(n, n * grid.dt, e, ledger.E[n], residuals[n - 1])
            for n, e in enumerate(energies, 1)]
    _write_csv(os.path.join(out_dir, "dn_compare.csv"),
               ("step", "t", "energy_dn", "energy_rr", "residual_rr"), rows)

    worst = ledger.stability_residual()
    print(f"dn energy growth = {growth:.3e}, "
          f"robin-robin residual max = {worst:.3e}")
    failures = [] if growth >= DN_BLOWUP_FACTOR else [
        f"Dirichlet-Neumann energy growth {growth:.3e} below {DN_BLOWUP_FACTOR:.0e}"]
    return failures + _stability_failures(worst, ledger.E[0] + ledger.S0)


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

    try:
        os.makedirs(args.out, exist_ok=True)
        disc = Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)
        failures = COMMANDS[args.command](cfg, disc, args.out)
    except OSError as exc:  # an unusable --out, or a CSV write that failed
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:  # SingularSystemError too
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    if failures:
        print("threshold failure: " + "; ".join(failures), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
