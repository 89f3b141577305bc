"""Benchmark of the fsisplit experiments.

    python3 perfbench/run.py --workload sweep|timeloop|lambda-sweep|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh worker
processes (worker.py), so that peak memory belongs to that workload alone.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
  tracing off: wall_s, the time one pass over the workload's cases takes
  (passes repeat for --seconds, at least two); setup_s, the time from config
  parse to a ready first solver, timed between the passes; peak_rss_mb, the
  worker's peak RSS after its first pass.  Times are scaled to a fixed
  machine speed, measured by a kernel that does not use the program and
  runs between and inside the timed calls (worker.SpeedProbe), and are the
  median over passes of each case, summed, and the median of the set-ups.
  On a shared host other tenants slow the whole machine by up to 1.7x for
  tens of seconds; the scaling takes most of that out, where a longer run
  does not.  The raw pass and set-up times are printed beside the metrics.
--trace 1 runs the workload untraced and then traced, in two processes of
  --seconds / 2 each, and prints the per-layer metrics of BENCHMARK.json
  with the tracing overhead.  It fails the run when a traced call count
  differs from the count the configs imply or when an exact count differs
  between passes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Scratch files go to
`.perfbench_runs/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Set-up time spent after each pass, as a share of that pass's time.
SETUP_SHARE = 0.1
DEADLINE_S = 175.0
# Tracing adds a few per cent; a traced run twice as slow as the untraced
# one no longer shows where untraced time goes.  The limit is loose because
# the two runs are separate processes and machine speed drifts between them.
MAX_OVERHEAD = 1.0


def git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(workload, seed, seconds, trace, setup_share, directory, deadline):
    """Run worker.py to completion; return its result dict."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--setup-share", str(setup_share), "--dir", str(directory)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps it
        raise RuntimeError(f"{workload} worker did not finish in time") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    with open(directory / "result.json") as fh:
        return json.load(fh)


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def measure(workload, seed, seconds, trace, spec, deadline):
    """Run one workload; return (lines to print, result fields)."""
    base = RUNS / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(base, ignore_errors=True)
    if trace:  # the untraced and the traced worker share the run's time
        seconds /= 2
    plain = run_worker(workload, seed, seconds, 0, 0 if trace else SETUP_SHARE,
                       base / "plain", deadline)
    runs = [plain]
    lines = [f"== {workload} (seed {seed}, {len(plain['walls'])} passes)"]
    if trace:
        traced = run_worker(workload, seed, seconds, 1, 0, base / "traced", deadline)
        runs.append(traced)
        layers = dict(traced["layers"])
        overhead = _median(traced["walls"]) / _median(plain["walls"]) - 1.0
        layers["trace.overhead_frac"] = overhead
        values = {m["name"]: layers.get(m["name"]) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        missing = [k for k, v in values.items() if v is None]
        if missing:
            raise RuntimeError(f"traced run has no metric named {missing}")
        problems = traced["completeness"] + traced["count_mismatches"]
        if not overhead <= MAX_OVERHEAD:
            problems.append(f"tracing overhead {overhead:.3f} above {MAX_OVERHEAD}")
        lines += [f"  ! {p}" for p in problems]
        lines.append(f"  trace completeness: {'FAIL' if problems else 'ok'}; "
                     f"spans in {base / 'traced' / 'spans.json'}")
        lines.append("  pass walls (s), untraced: " + _fmt(plain["walls"])
                     + "; traced: " + _fmt(traced["walls"]))
        top = sorted((k for k in layers if k.endswith(".self_s")),
                     key=layers.get, reverse=True)[:12]
        lines.append("  largest self times: " + ", ".join(
            f"{k[:-7]} {layers[k]:.3f} s" for k in top))
        lines.append("  dofs per space (count): " + ", ".join(
            f"{k[7:-5]} {v}" for k, v in sorted(layers.items())
            if k.startswith("spaces.") and k.endswith(".ndof")))
    else:
        values = {"wall_s": sum(map(_median, zip(*plain["case_scaled"]))),
                  "setup_s": _median(plain["setup_scaled"]),
                  "peak_rss_mb": plain["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        problems = []
        lines.append("  raw pass walls (s): " + _fmt(plain["walls"]))
        lines.append(f"  raw median set-up {_median(plain['setup']):.4f} s of "
                     f"{len(plain['setup'])}; {len(plain['kernels'])} speed-probe "
                     f"kernels, median {1e3 * _median(plain['kernels']):.3f} ms "
                     f"(reference {1e3 * plain['reference_kernel_s']:g} ms)")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for name in units:
        lines.append(f"  {name:<52} {values[name]:.6g} {units[name]}")
    lines.append(f"  {'cases_attempted':<52} {attempted} count")
    lines.append(f"  {'cases_failed':<52} {failed} count")
    verdicts = [v for r in runs for v in r["verdicts"]]
    lines += [f"  ! failed case: {v}" for v in verdicts if not v["ok"]]
    resid = [v.get("residual_margin", math.nan) for v in verdicts]
    rates = [v["rate_margin"] for v in verdicts if "rate_margin" in v]
    lines.append(f"  worst residual / (1e-8 (E0+S0)) = {max(resid, key=_nan_first):.3e}"
                 + (f"; least rate - 0.4 = {min(rates, key=_nan_last):.4f}" if rates else ""))
    meta = {"workload": workload, "seed": seed, "git_sha": git_sha(ROOT),
            "seed_effect": "none: the initial mode is deterministic"
            if workload == "lambda-sweep" else "draws every config",
            **plain["meta"]}
    (base / "meta.json").write_text(json.dumps(meta, indent=1))
    blas = meta["blas"]
    lines.append(f"  git {meta['git_sha']}, python {meta['python']}, numpy {meta['numpy']}, "
                 f"scipy {meta['scipy']}, nproc {meta['nproc']}, {blas['name']} "
                 f"{blas['version']} with {blas['threads']} threads (library default); "
                 f"configs and their sha256 in {base / 'meta.json'}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    ok = failed == 0 and not problems and all(math.isfinite(v) for v in values.values())
    return lines, {"correct": ok, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def _fmt(xs):
    return ", ".join(f"{x:.4f}" for x in xs)


def _nan_first(x):
    return math.inf if math.isnan(x) else x


def _nan_last(x):
    return -math.inf if math.isnan(x) else x


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fsisplit" / "cli.py").is_file():
        print(f"fsisplit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            lines, results[name] = measure(name, args.seed, args.seconds,
                                           args.trace, spec, deadline)
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
