"""Seeded inputs of the benchmark workloads.

A workload is a list of cases; each case is one `fsi-robin <command>` run on
one generated config file.  The program sees only those files: the workload
seed never reaches it except through the values drawn here.

- sweep: 12 small `stability` cases whose physical parameters span decades.
  Every case is the same size, so the draws change no amount of work.  Each
  case rebuilds mesh, spaces and operators, factorizes twice and projects
  once, and its time loop is short: the workload is bound by set-up
  (assembly and factorization).
- timeloop: one `stability` case at n = 32 with 128 windows of 2 substeps:
  few factorizations, many triangular solves.
- lambda-sweep: the shipped `configs/lambda_sweep.cfg`, unchanged.  It is the
  only workload with monolithic reference runs and error diagnostics.  Its
  initial mode is deterministic, so the seed has no effect on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep", "timeloop", "lambda-sweep")

# Values of the shipped configs/stability.cfg, in its key order.
BASE = {
    "L": 1.0, "H_f": 1.0, "H_s": 1.0, "nx": 16, "ny_f": 16, "ny_s": 16,
    "rho_f": 1.0, "rho_s": 1.0, "mu": 0.1, "l1": 1.0, "l2": 1.0,
    "lambda": 1.0, "T": 0.5, "N": 64, "m": 1, "mode": "stability",
    "dt_levels": 4, "seed": 7,
}
SWEEP_CASES = 12
LAMBDA_SWEEP_CONFIG = Path("configs") / "lambda_sweep.cfg"


@dataclass(frozen=True)
class Case:
    command: str
    text: str        # config file contents


def config_text(values: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in values.items())


def parse_values(text: str) -> dict:
    """`key = value` pairs of a config text, values left as strings."""
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _config_seed(rng: random.Random) -> int:
    # config seed 0 selects the pressure-pulse initial state, not random data
    return rng.randint(1, 2**31 - 1)


def _stability(**overrides) -> Case:
    return Case("stability", config_text({**BASE, **overrides}))


def cases(workload: str, seed: int, root: Path) -> list[Case]:
    """The workload's cases; the same seed gives the same cases."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return [_stability(**{"lambda": _log_uniform(rng, 1e-3, 1e3),
                              "rho_s": _log_uniform(rng, 1e-2, 1e2),
                              "T": _log_uniform(rng, 4e-3, 50.0),
                              "N": 8, "m": 1 + i % 2, "seed": _config_seed(rng)})
                for i in range(SWEEP_CASES)]
    if workload == "timeloop":
        return [_stability(nx=32, ny_f=32, ny_s=32, T=0.5, N=128, m=2,
                           seed=_config_seed(rng))]
    if workload == "lambda-sweep":
        return [Case("lambda-sweep", (root / LAMBDA_SWEEP_CONFIG).read_text())]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_case(case: Case) -> Case:
    """The same command on a 4x4x4 mesh with few windows, to load lazy
    imports and first-call set-up before timing."""
    values = {**parse_values(case.text), "nx": "4", "ny_f": "4", "ny_s": "4",
              "N": "2", "dt_levels": "2"}
    return Case(case.command, config_text(values))


def reference_steps(N: int, dt_levels: int) -> int:
    """Monolithic reference steps of `lambda-sweep`: 8 per finest window."""
    return 8 * N * 2 ** (dt_levels - 1)


def expected_calls(command: str, N: int, m: int, dt_levels: int,
                   n_lambda: int) -> dict:
    """Calls of traced callables that one case must make, from its config.

    For `stability` the config seed is non-zero (random initial data, one
    divergence-free projection).  For `lambda-sweep` each of the n_lambda
    Robin weights runs one reference with 8 N 2^(dt_levels-1) steps and
    dt_levels splitting runs with N, 2N, ... windows.
    """
    common = {"cli.main": 1, "config.parse_config": 1,
              "mesh.build_two_layer_mesh": 1, "spaces.build_space": 3,
              "splitting.Discretization": 1}
    if command == "stability":
        return {**common,
                "splitting.RobinRobinSolver": 1,
                "splitting.RobinRobinSolver.advance": N,
                "splitting.RobinRobinSolver.extract_fluid_traction": N * m,
                "assembly.Factorization": 3,
                "assembly.Factorization.solve": 2 * N * m + 1,
                "initial_data.random_state": 1,
                "initial_data.project_divergence_free": 1,
                "diagnostics.build_ledger": 1,
                "monolithic.MonolithicSolver.step": 0}
    if command == "lambda-sweep":
        levels = dt_levels
        ref_steps = reference_steps(N, levels)
        windows = N * (2 ** levels - 1)
        states = 1 + levels  # smooth mode for the reference and each level
        return {**common,
                "monolithic.run_reference": n_lambda,
                "monolithic.MonolithicSolver": n_lambda,
                "monolithic.MonolithicSolver.step": n_lambda * ref_steps,
                "monolithic.MonolithicSolver.fluid_flux": n_lambda * ref_steps,
                "splitting.RobinRobinSolver": n_lambda * levels,
                "splitting.RobinRobinSolver.advance": n_lambda * windows,
                "splitting.RobinRobinSolver.extract_fluid_traction":
                    n_lambda * windows * m,
                "initial_data.smooth_coupled_mode": n_lambda * states,
                "initial_data.project_divergence_free": n_lambda * states,
                "initial_data.solid_extension": n_lambda * states,
                "assembly.Factorization": n_lambda * (1 + 2 * levels + 2 * states),
                "assembly.Factorization.solve":
                    n_lambda * (ref_steps + 2 * m * windows + 2 * states),
                "diagnostics.error_norms": n_lambda * levels,
                "diagnostics.build_ledger": n_lambda * levels}
    raise ValueError(f"no expected calls for command {command!r}")
