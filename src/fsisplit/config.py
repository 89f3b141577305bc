"""Plain-text `key = value` run configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .experiments import reference_steps
from .mesh import ChannelGeometry
from .splitting import PhysicalParams, TimeGrid

MODES = ("stability", "converge", "lambda-sweep", "dn-compare")

_FLOAT_KEYS = ("L", "H_f", "H_s", "rho_f", "rho_s", "mu", "l1", "l2",
               "lambda", "T")
_INT_KEYS = ("nx", "ny_f", "ny_s", "N", "m", "dt_levels", "seed")
_STR_KEYS = ("mode",)
KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS
# Size bounds, so that no config reaches an allocation that cannot succeed:
# mesh triangles (a 128 x (128 + 128) channel has 65,536; the benchmark's
# largest has 4,096) and the convergence reference's time steps, which bound
# every run's steps (the shipped configs take at most 12,800).
MAX_CELLS = 2 ** 17
MAX_STEPS = 2 ** 20


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the key."""


@dataclass(frozen=True)
class RunConfig:
    geometry: ChannelGeometry
    nx: int
    ny_f: int
    ny_s: int
    params: PhysicalParams
    t_final: float
    num_windows: int
    substeps: int
    mode: str
    dt_levels: int
    seed: int


def parse_config(path) -> RunConfig:
    """Parse a `key = value` file; unknown keys and violated invariants are
    rejected with a message naming the offending key."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in KEYS:
                raise ConfigError(f"unknown key '{key}'")
            if key in values:
                raise ConfigError(f"duplicate key '{key}'")
            values[key] = val

    missing = [k for k in KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing key '{missing[0]}'")

    parsed = {}
    for key in KEYS:
        raw = values[key]
        try:
            if key in _FLOAT_KEYS:
                parsed[key] = float(raw)
            elif key in _INT_KEYS:
                parsed[key] = int(raw)
            else:
                parsed[key] = raw
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse value '{raw}'") from None
        if key in _FLOAT_KEYS and not math.isfinite(parsed[key]):
            raise ConfigError(f"key '{key}': must be finite, got '{raw}'")

    if parsed["mode"] not in MODES:
        raise ConfigError(f"key 'mode': must be one of {', '.join(MODES)}")
    if parsed["dt_levels"] < 2:
        raise ConfigError("key 'dt_levels': must be >= 2 to fit a rate")
    if parsed["seed"] < 0:
        raise ConfigError("key 'seed': must be >= 0")
    try:
        geometry = ChannelGeometry(parsed["L"], parsed["H_f"], parsed["H_s"])
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None
    if min(parsed["nx"], parsed["ny_f"], parsed["ny_s"]) < 1:
        raise ConfigError("key 'nx'/'ny_f'/'ny_s': cell counts must be >= 1")
    cells = 2 * parsed["nx"] * (parsed["ny_f"] + parsed["ny_s"])
    if cells > MAX_CELLS:
        raise ConfigError(f"key 'nx'/'ny_f'/'ny_s': {cells} mesh cells exceed "
                          f"the bound of {MAX_CELLS}")
    try:
        params = PhysicalParams(parsed["rho_f"], parsed["rho_s"], parsed["mu"],
                                parsed["l1"], parsed["l2"], parsed["lambda"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        TimeGrid(parsed["T"], parsed["N"], parsed["m"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the first test keeps 2 ** (dt_levels - 1) from growing without bound
    if (parsed["dt_levels"] > MAX_STEPS.bit_length() or reference_steps(
            parsed["N"], parsed["dt_levels"], parsed["m"]) > MAX_STEPS):
        raise ConfigError(f"key 'N'/'m'/'dt_levels': the convergence reference "
                          f"would take more than {MAX_STEPS} steps")

    return RunConfig(geometry=geometry, nx=parsed["nx"], ny_f=parsed["ny_f"],
                     ny_s=parsed["ny_s"], params=params, t_final=parsed["T"],
                     num_windows=parsed["N"], substeps=parsed["m"],
                     mode=parsed["mode"], dt_levels=parsed["dt_levels"],
                     seed=parsed["seed"])


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(dump(cfg)) round-trips byte-identically."""
    g, p = cfg.geometry, cfg.params
    vals = {
        "L": g.length, "H_f": g.fluid_height, "H_s": g.solid_height,
        "nx": cfg.nx, "ny_f": cfg.ny_f, "ny_s": cfg.ny_s,
        "rho_f": p.rho_f, "rho_s": p.rho_s, "mu": p.mu,
        "l1": p.l1, "l2": p.l2, "lambda": p.lambda_robin,
        "T": cfg.t_final, "N": cfg.num_windows, "m": cfg.substeps,
        "mode": cfg.mode, "dt_levels": cfg.dt_levels, "seed": cfg.seed,
    }
    return "".join(f"{k} = {vals[k]!r}\n" if isinstance(vals[k], float)
                   else f"{k} = {vals[k]}\n" for k in KEYS)
