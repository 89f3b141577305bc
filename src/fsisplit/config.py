"""Plain-text `key = value` run configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .experiments import reference_steps
from .mesh import ChannelGeometry
from .splitting import PhysicalParams, TimeGrid

MODES = ("stability", "converge", "lambda-sweep", "dn-compare")

# Every key and the type of its value, in the canonical order of dump_config.
KEYS = {**dict.fromkeys(("L", "H_f", "H_s", "rho_f", "rho_s", "mu", "l1", "l2",
                         "lambda", "T"), float),
        **dict.fromkeys(("nx", "ny_f", "ny_s", "N", "m", "dt_levels", "seed"), int),
        "mode": str}
# Size bounds, so that no config reaches an allocation that cannot succeed:
# mesh triangles (a 128 x (128 + 128) channel has 65,536; the benchmark's
# largest has 4,096) and the convergence reference's time steps, which bound
# every run's steps (the shipped configs take at most 12,800).
MAX_CELLS = 2 ** 17
MAX_STEPS = 2 ** 20


def _shown(raw: str) -> str:
    """A rejected value as a message quotes it, cut to 20 characters."""
    return raw if len(raw) <= 20 else raw[:20] + "..."


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
    values: tuple  # the parsed (key, value) pairs, in the order of KEYS


def parse_config(path) -> RunConfig:
    """Parse a `key = value` file; unknown keys and violated invariants are
    rejected with a message naming the offending key."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading mark is dropped
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: byte {exc.start}: {exc.reason}") from None
    values = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
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
    for key, kind in KEYS.items():
        raw = values[key]
        try:
            parsed[key] = kind(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse value '{_shown(raw)}'") from None
        if kind is float and not math.isfinite(parsed[key]):
            raise ConfigError(f"key '{key}': must be finite, got '{_shown(raw)}'")

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
        shown = cells if cells < 10 ** 20 else "more than 1e20"  # str() refuses 4300 digits
        raise ConfigError(f"key 'nx'/'ny_f'/'ny_s': {shown} mesh cells exceed "
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
    if parsed["dt_levels"] > MAX_STEPS.bit_length() or (steps := reference_steps(
            parsed["N"], parsed["dt_levels"], parsed["m"])) > MAX_STEPS:
        raise ConfigError(f"key 'N'/'m'/'dt_levels': the convergence reference "
                          f"would take more than {MAX_STEPS} steps")
    # the reference's step is the smallest any command takes
    if parsed["T"] / steps == 0.0:
        raise ConfigError(f"key 'T': the reference step T / {steps} is zero")

    return RunConfig(geometry=geometry, nx=parsed["nx"], ny_f=parsed["ny_f"],
                     ny_s=parsed["ny_s"], params=params, t_final=parsed["T"],
                     num_windows=parsed["N"], substeps=parsed["m"],
                     mode=parsed["mode"], dt_levels=parsed["dt_levels"],
                     seed=parsed["seed"], values=tuple(parsed.items()))


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(dump(cfg)) round-trips byte-identically."""
    return "".join(f"{k} = {v}\n" for k, v in cfg.values)
