"""One measured run of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed S --seconds X \
        --setup-share Y --trace 0|1 --dir D

run.py starts this script once untraced and, for the per-layer numbers, once
more traced.  It writes the workload's configs under D, drives every case
through `fsisplit.cli.main`, checks each case's verdict from its CSV and
writes D/result.json (and D/spans.json when traced).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import weakref
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

from fsisplit import cli, mesh  # noqa: E402
from fsisplit.assembly import Factorization  # noqa: E402
from fsisplit.config import dump_config, parse_config  # noqa: E402
from fsisplit.diagnostics import energy_E, initial_S0  # noqa: E402
from fsisplit.initial_data import smooth_coupled_mode  # noqa: E402
from fsisplit.monolithic import CoupledState, MonolithicSolver  # noqa: E402
from fsisplit.spaces import Space  # noqa: E402
from fsisplit.splitting import (Discretization, RobinRobinSolver,  # noqa: E402
                                TimeGrid)

import spans  # noqa: E402
import workloads  # noqa: E402

# The acceptance thresholds of the source paper's claims, fixed here so that
# a change to the program's own constants cannot loosen the check.
STABILITY_TOL = 1e-8
RATE_THRESHOLD = 0.4
MIN_PASSES = 2

TRACED_MODULES = ("mesh", "spaces", "assembly", "splitting", "monolithic",
                  "diagnostics", "initial_data", "config", "cli")
# The CLI is traced at its entry only, so that cli.main's self time is its
# orchestration and CSV formatting.
ENTRY_ONLY = {"cli": "main"}
ASSEMBLY_FORMS = ("assemble_vector_mass", "assemble_symgrad", "assemble_divdiv",
                  "assemble_divergence", "assemble_interface_mass")
# Per-layer stats that are timings (as are the `p<percentile>_ms` ones); every
# other per-layer number is an exact count and must repeat between passes.
TIMING_STATS = ("self_s", "uncovered_frac", "probe_s")


# -- verdicts -------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _margin(value, limit):
    """value / limit, NaN when either is missing or not finite."""
    if not (math.isfinite(value) and math.isfinite(limit)) or limit <= 0:
        return math.nan
    return value / limit


def verify_stability(out_dir, cfg):
    """Worst stability residual over 1e-8 (E0 + S0); passes when <= 1."""
    rows = _read_csv(Path(out_dir) / "stability.csv")
    if len(rows) != cfg.num_windows + 1:
        return {"ok": False, "residual_margin": math.nan}
    resid = [r["stability_residual"] for r in rows[1:]]
    worst = max(resid) if all(map(math.isfinite, resid)) else math.nan
    margin = _margin(worst, STABILITY_TOL * (rows[0]["E"] + rows[0]["S"]))
    return {"ok": margin <= 1.0, "residual_margin": margin}


def lambda_sweep_scales(cfg, lambdas):
    """(lambda, dt, E0 + S0) of every run of `lambda-sweep`, in the row order
    of lambda_sweep.csv, recomputed through the public API."""
    disc = Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)
    levels = [cfg.num_windows * 2 ** i for i in range(cfg.dt_levels)]
    ref_ddt = cfg.t_final / workloads.reference_steps(cfg.num_windows, cfg.dt_levels)
    st0 = smooth_coupled_mode(disc, cfg.params)
    mono = MonolithicSolver(disc, cfg.params, ref_ddt)
    first = mono.step(CoupledState(0.0, st0.u, st0.p, st0.eta, st0.etad))
    flux0 = mono.fluid_flux(first.u, st0.u, first.p)
    e0 = energy_E(disc, cfg.params, st0.u, st0.etad, st0.eta)
    rows = []
    for lam in lambdas:
        params = replace(cfg.params, lambda_robin=lam)
        for n_win in levels:
            grid = TimeGrid(cfg.t_final, n_win, cfg.substeps)
            s0 = initial_S0(disc, params, grid, st0.u[disc.ifd_f], flux0)
            rows.append((lam, grid.dt, e0 + s0))
    return rows


def verify_lambda_sweep(out_dir, expected_rows):
    """Every row's residual within 1e-8 (E0 + S0) and every lambda's fitted
    rate >= 0.4."""
    rows = _read_csv(Path(out_dir) / "lambda_sweep.csv")
    if len(rows) != len(expected_rows):
        return {"ok": False, "residual_margin": math.nan, "rate_margin": math.nan}
    ok = True
    resid_margins, rate_margins = [], []
    for row, (lam, dt, scale) in zip(rows, expected_rows):
        ok &= row["lambda"] == lam and row["dt"] == dt
        resid_margins.append(_margin(row["stability_residual"], STABILITY_TOL * scale))
        rate_margins.append(row["rate"] - RATE_THRESHOLD
                            if math.isfinite(row["rate"]) else math.nan)
    ok &= all(m <= 1.0 for m in resid_margins) and all(m >= 0.0 for m in rate_margins)
    worst = max(resid_margins) if all(map(math.isfinite, resid_margins)) else math.nan
    least = min(rate_margins) if all(map(math.isfinite, rate_margins)) else math.nan
    return {"ok": ok, "residual_margin": worst, "rate_margin": least}


# -- probes: exact counts recorded at layer boundaries --------------------

class Probes:
    """Counters kept by the traced run; `end_pass` returns one pass's
    counts and starts the next."""

    COUNTS = ("assembly.Factorization.nnz", "assembly.Factorization.fill",
              "assembly.Factorization.solve.flops_computed",
              "monolithic.reference_bytes", "assembly.assemble_calls")

    def __init__(self):
        self._fill = weakref.WeakKeyDictionary()
        self._space_ids = {}
        self._serials = itertools.count()
        self._operators = set()

    def table(self):
        probes = {"assembly.Factorization": self.factorization,
                  "assembly.Factorization.solve": self.solve,
                  "monolithic.run_reference": self.reference,
                  "spaces.build_space": self.space}
        for form in ASSEMBLY_FORMS:
            probes[f"assembly.{form}"] = self.assembled(form)
        return probes

    def factorization(self, tracer, args, kwargs, result):
        fac, A = args[0], args[1]
        lu = fac._lu  # SuperLU object; the factor fill is not exposed otherwise
        fill = lu.L.nnz + lu.U.nnz
        self._fill[fac] = fill
        tracer.counters["assembly.Factorization.nnz"] += A.nnz
        tracer.counters["assembly.Factorization.fill"] += fill

    def solve(self, tracer, args, kwargs, result):
        tracer.counters["assembly.Factorization.solve.flops_computed"] += \
            2 * self._fill[args[0]]

    def reference(self, tracer, args, kwargs, result):
        arrays = {id(a): a for a in [result.times, *result.u, *result.p,
                                     *result.eta, *result.etad, *result.flux]}
        tracer.counters["monolithic.reference_bytes"] += \
            sum(a.nbytes for a in arrays.values())

    def space(self, tracer, args, kwargs, result):
        _, domain, kind = args
        side = "fluid" if domain == mesh.FLUID else "solid"
        key = f"spaces.{side}_{kind}.ndof"
        tracer.counters[key] = max(tracer.counters[key], result.ndof)

    def _space_id(self, space):
        ref, serial = self._space_ids.get(id(space), (None, None))
        if ref is None or ref() is not space:
            serial = next(self._serials)
            self._space_ids[id(space)] = (weakref.ref(space), serial)
        return ("space", serial)

    def assembled(self, form):
        def probe(tracer, args, kwargs, result):
            key = (form,) + tuple(self._space_id(a) if isinstance(a, Space) else a
                                  for a in args) + tuple(sorted(kwargs.items()))
            self._operators.add(key)
            tracer.counters["assembly.assemble_calls"] += 1
        return probe

    def end_pass(self, tracer):
        counts = {**dict.fromkeys(self.COUNTS, 0), **tracer.counters}
        counts["assembly.distinct_operators"] = len(self._operators)
        tracer.counters.clear()
        self._operators.clear()
        return counts


def layer_stats(tracer, passes):
    """Per-pass per-layer numbers: `<span>.self_s` and `.calls` for every
    installed span, the probe counts and the ratios derived from them.  Also,
    over the spans of all passes, `.p50_ms`, `.p90_ms`, ... up to the highest
    percentile with ten samples beyond it, where a span has enough calls."""
    selfs = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
    out = []
    durs = defaultdict(list)
    for (lo, hi, wall, counts) in passes:
        calls = Counter(tracer.names[lo:hi])
        self_s = defaultdict(float)
        covered = 0.0
        for i in range(lo, hi):
            name = tracer.names[i]
            self_s[name] += selfs[i]
            durs[name].append(tracer.ends[i] - tracer.starts[i])
            if tracer.parents[i] < 0:
                covered += tracer.ends[i] - tracer.starts[i]
        stats = {}
        for name in sorted(tracer.installed):
            stats[f"{name}.self_s"] = self_s.get(name, 0.0)
            stats[f"{name}.calls"] = calls.get(name, 0)
        stats["trace.probe_s"] = self_s.get(spans.PROBE, 0.0)
        stats["trace.uncovered_frac"] = (wall - covered) / wall
        stats.update(counts)
        calls_total = counts.get("assembly.assemble_calls", 0)
        stats["assembly.reuse_ratio"] = (
            counts["assembly.distinct_operators"] / calls_total if calls_total else 0.0)
        nnz = counts.get("assembly.Factorization.nnz", 0)
        stats["assembly.Factorization.fill_ratio"] = (
            counts.get("assembly.Factorization.fill", 0) / nnz if nnz else 0.0)
        out.append(stats)
    percentiles = {}
    for name in sorted(tracer.installed):
        tail = spans.highest_percentile(len(durs[name])) or 0
        for p in spans.PERCENTILES:
            if p <= tail:
                label = f"{p:g}".replace(".", "_")
                percentiles[f"{name}.p{label}_ms"] = 1e3 * spans.percentile(durs[name], p)
    return out, percentiles


def is_timing(metric):
    stat = metric.rsplit(".", 1)[-1]
    return stat in TIMING_STATS or stat.endswith("_ms")


def summarize_layers(per_pass):
    """Median over passes for timings; counts must repeat exactly."""
    summary, mismatched = {}, []
    for key in per_pass[0]:
        values = [p.get(key) for p in per_pass]
        if is_timing(key) and None not in values:
            summary[key] = statistics.median(values)
        else:
            summary[key] = values[0]
            if any(v != values[0] for v in values[1:]):
                mismatched.append(f"{key}: {values}")
    for p in per_pass[1:]:
        mismatched += [f"{key}: only in some passes" for key in p.keys() - per_pass[0].keys()]
    return summary, mismatched


# -- run metadata -----------------------------------------------------------

def _blas():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "thread_env": env}


def metadata(parsed):
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas": _blas(),
        "configs": [{"command": cmd, "dump_config": dump,
                     "sha256": hashlib.sha256(dump.encode()).hexdigest()}
                    for cmd, dump in ((c, dump_config(cfg)) for c, cfg in parsed)],
    }


# -- machine speed ------------------------------------------------------------

class SpeedProbe:
    """Scales timed calls to a fixed machine speed.

    On a shared host other tenants slow this one as a whole, by up to 1.7x
    and for tens of seconds at a time.  The probe times a fixed kernel that
    does not use the program, a sparse LU factorization and a few solves,
    before and after each timed call and, through `tick`, about every
    INTERVAL_S inside it.  Each piece of the call between two kernel runs is
    scaled by REFERENCE_KERNEL_S over the kernel's mean time around it; the
    kernel runs themselves are left out of the call's time.
    """

    # The kernel's time at full speed on the 2-vCPU host the baseline was
    # recorded on, so that scaled times read as seconds there.
    REFERENCE_KERNEL_S = 0.008
    INTERVAL_S = 1.0

    def __init__(self, n=50, solves=5, reps=3):
        lap = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = scipy.sparse.identity(n)
        self._matrix = (scipy.sparse.kron(lap, eye) + scipy.sparse.kron(eye, lap)
                        + scipy.sparse.identity(n * n)).tocsc()
        self._rhs = np.ones(n * n)
        self._solves, self._reps = solves, reps
        self.kernels = []
        self._last = self.kernel_s()
        self._start = None  # start of the current piece of a timed call

    def kernel_s(self):
        """Median time of `reps` runs of the kernel."""
        times = []
        for _ in range(self._reps):
            t0 = time.perf_counter()
            lu = scipy.sparse.linalg.splu(self._matrix)
            for _ in range(self._solves):
                lu.solve(self._rhs)
            times.append(time.perf_counter() - t0)
        self.kernels.append(statistics.median(times))
        return self.kernels[-1]

    def _close_piece(self):
        length = time.perf_counter() - self._start
        before, self._last = self._last, self.kernel_s()
        self._wall += length
        self._scaled += length * self.REFERENCE_KERNEL_S * 2 / (before + self._last)
        self._start = time.perf_counter()

    def tick(self):
        """Called from inside the program; probes when the piece is long."""
        if self._start is not None and time.perf_counter() - self._start >= self.INTERVAL_S:
            self._close_piece()

    def time(self, fn, *args):
        """(fn's result, its wall time, that time scaled), kernel runs left out."""
        self._wall = self._scaled = 0.0
        self._start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self._close_piece()
            self._start = None
        return result, self._wall, self._scaled

    def install(self, cls, method):
        """Tick before every call of cls.method."""
        original = getattr(cls, method)

        @functools.wraps(original)
        def ticked(*args, **kwargs):
            self.tick()
            return original(*args, **kwargs)

        setattr(cls, method, ticked)


# -- running the workload ---------------------------------------------------

def _run_case(case_cfg, out_dir):
    command, path = case_cfg
    try:
        return cli.main([command, "--config", str(path), "--out", str(out_dir)])
    except Exception:  # a crash is a failed case, reported with its traceback
        traceback.print_exc()
        return 1


def _write_cases(cases, directory):
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        path = directory / f"case-{i:02d}.cfg"
        path.write_text(case.text)
        paths.append((case.command, path))
    return paths


def _setup_once(cmd, path):
    """Config parse to a ready first solver, through the public constructors."""
    cfg = parse_config(path)
    disc = Discretization(cfg.geometry, cfg.nx, cfg.ny_f, cfg.ny_s)
    if cmd == "lambda-sweep":
        ref_ddt = cfg.t_final / workloads.reference_steps(cfg.num_windows, cfg.dt_levels)
        MonolithicSolver(disc, cfg.params, ref_ddt)
    else:
        RobinRobinSolver(disc, cfg.params,
                         TimeGrid(cfg.t_final, cfg.num_windows, cfg.substeps))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-share", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)

    work = Path(args.dir)
    cases = workloads.cases(args.workload, args.seed, ROOT)
    case_cfgs = _write_cases(cases, work)
    parsed = [(cmd, parse_config(path)) for cmd, path in case_cfgs]
    (warm,) = _write_cases([workloads.warmup_case(cases[0])], work / "warmup")
    if _run_case(warm, work / "warmup") != 0:
        raise SystemExit("warm-up case failed")

    expected = Counter()
    for cmd, cfg in parsed:
        expected.update(workloads.expected_calls(cmd, cfg.num_windows, cfg.substeps,
                                          cfg.dt_levels, len(cli.LAMBDA_SWEEP)))
    scales = {i: lambda_sweep_scales(cfg, cli.LAMBDA_SWEEP)
              for i, (cmd, cfg) in enumerate(parsed) if cmd == "lambda-sweep"}
    tracer = probes = None
    if args.trace:
        tracer, probes = spans.Tracer(), Probes()
        spans.install(tracer, "fsisplit", TRACED_MODULES, probes.table(), ENTRY_ONLY)

    probe = SpeedProbe()
    if not args.trace:
        # Every workload solves many times per second throughout: a place
        # to probe the machine's speed inside a long case.
        probe.install(Factorization, "solve")
    walls, case_walls, case_scaled, passes, verdicts = [], [], [], [], []
    setup, setup_scaled = [], []
    # Passes (and the set-ups after them) stop before one more would end past
    # --seconds, so that a run's length does not depend on the machine's speed.
    t_begin = t_next = time.perf_counter()  # t_next: when one more pass would end
    while len(walls) < MIN_PASSES or t_next <= t_begin + args.seconds:
        t_pass = time.perf_counter()
        lo = len(tracer) if tracer else 0
        codes, times, scaled = [], [], []
        for i, case_cfg in enumerate(case_cfgs):
            code, dt, dt_scaled = probe.time(_run_case, case_cfg, work / f"case-{i:02d}")
            codes.append(code)
            times.append(dt)
            scaled.append(dt_scaled)
        wall = sum(times)
        walls.append(wall)
        case_walls.append(times)
        case_scaled.append(scaled)
        if len(walls) == 1:
            # Peak memory of one run of the workload, as a user running the
            # experiment once sees it.  Later passes would raise it through
            # allocator growth in this long-lived process, not the program's
            # own needs.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            passes.append((lo, len(tracer), wall, probes.end_pass(tracer)))
        for i, ((cmd, cfg), code) in enumerate(zip(parsed, codes)):
            out = work / f"case-{i:02d}"
            try:
                v = (verify_lambda_sweep(out, scales[i]) if cmd == "lambda-sweep"
                     else verify_stability(out, cfg))
            except (OSError, KeyError, ValueError) as exc:
                v = {"ok": False, "error": repr(exc)}
            v["ok"] = bool(v["ok"]) and code == 0
            v["exit_code"] = code
            verdicts.append(v)
        # Set-ups are timed between passes, not in one block, so that they
        # sample the machine over the whole run as the passes do.
        t_setup = time.perf_counter()
        while args.setup_share > 0 and (
                len(setup) < len(walls)
                or time.perf_counter() - t_setup < args.setup_share * wall):
            _, dt, dt_scaled = probe.time(_setup_once,
                                          *case_cfgs[len(setup) % len(case_cfgs)])
            setup.append(dt)
            setup_scaled.append(dt_scaled)
        t_next = 2 * time.perf_counter() - t_pass

    result = {
        "walls": walls, "case_walls": case_walls, "case_scaled": case_scaled,
        "setup": setup, "setup_scaled": setup_scaled, "kernels": probe.kernels,
        "reference_kernel_s": probe.REFERENCE_KERNEL_S, "peak_rss_mb": peak_rss_mb,
        "attempted": len(verdicts),
        "failed": sum(not v["ok"] for v in verdicts),
        "verdicts": verdicts, "meta": metadata(parsed),
    }
    if tracer:
        per_pass, percentiles = layer_stats(tracer, passes)
        summary, mismatched = summarize_layers(per_pass)
        summary.update(percentiles)
        result["layers"] = summary
        result["count_mismatches"] = mismatched
        result["completeness"] = [
            f"{name}: traced {per_pass[0].get(name + '.calls')} per pass, expected {n}"
            for name, n in sorted(expected.items())
            if per_pass[0].get(name + ".calls") != n]
        names = sorted(set(tracer.names))
        index = {n: k for k, n in enumerate(names)}
        with open(work / "spans.json", "w") as fh:
            json.dump({"names": names, "passes": [p[:3] for p in passes],
                       "spans": [[index[n], s, e, p] for n, s, e, p in zip(
                           tracer.names, tracer.starts, tracer.ends, tracer.parents)]},
                      fh, separators=(",", ":"))
    with open(work / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
