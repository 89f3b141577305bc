"""Self-tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)

from fsisplit.config import dump_config, parse_config  # noqa: E402


# -- self time ------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root  [0, 10]; a [1, 4] under root; g [2, 3] under a; b [5, 6] under root
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    # children cover [1, 7] and [9, 10] of the root
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_tracer_links_parents_and_keeps_probe_time_out_of_self_time():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def probe(t, args, kwargs, result):
        t.counters["inner.results"] += result

    inner = tracer.wrap("inner", lambda x: x + 1, probe)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.names == ["outer", "inner", spans.PROBE]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.counters["inner.results"] == 2
    # clock: outer 0..5, inner 1..2, probe 3..4
    selfs = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
    assert selfs == [3.0, 1.0, 1.0]


def test_install_rebinds_names_imported_by_other_modules(tmp_path, monkeypatch):
    pkg = tmp_path / "tracedpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(
        "def helper(x):\n    return x + 1\n\n"
        "class Box:\n    def __init__(self, v):\n        self.v = helper(v)\n"
        "    def get(self):\n        return self.v\n")
    (pkg / "high.py").write_text(
        "from .low import Box, helper\n\n"
        "def run():\n    return helper(Box(1).get())\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        import tracedpkg.high as high
        tracer = spans.Tracer()
        spans.install(tracer, "tracedpkg", ("low", "high"),
                      entry_only={"high": "run"})
        assert high.run() == 3
    finally:
        for name in [m for m in sys.modules if m.startswith("tracedpkg")]:
            del sys.modules[name]
    assert tracer.names == ["high.run", "low.Box", "low.helper", "low.Box.get",
                            "low.helper"]
    assert tracer.parents == [-1, 0, 1, 0, 0]


# -- percentiles ------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (9, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
    (9999, 99), (10000, 99.9)])
def test_highest_percentile_has_ten_samples_beyond_it(n, expected):
    assert spans.highest_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    assert spans.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert spans.percentile(range(11), 90) == 9.0
    assert math.isnan(spans.percentile([], 50))


# -- workload inputs ----------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_cases_are_a_function_of_the_seed(workload):
    assert wl.cases(workload, 5, ROOT) == wl.cases(workload, 5, ROOT)


def test_sweep_draws_change_values_not_work():
    a, b = wl.cases("sweep", 1, ROOT), wl.cases("sweep", 2, ROOT)
    assert len(a) == wl.SWEEP_CASES and a != b
    for i, case in enumerate(a):
        v = wl.parse_values(case.text)
        assert (v["nx"], v["ny_f"], v["ny_s"], v["N"]) == ("16", "16", "16", "8")
        assert v["m"] == str(1 + i % 2)
        assert 1e-3 <= float(v["lambda"]) <= 1e3
        assert 1e-2 <= float(v["rho_s"]) / float(v["rho_f"]) <= 1e2
        assert 4e-3 <= float(v["T"]) <= 50.0


@pytest.mark.parametrize("workload", ("sweep", "timeloop"))
def test_random_workloads_never_emit_config_seed_zero(workload):
    for seed in range(200):
        for case in wl.cases(workload, seed, ROOT):
            assert int(wl.parse_values(case.text)["seed"]) != 0


def test_lambda_sweep_is_the_shipped_config_for_any_seed():
    shipped = (ROOT / wl.LAMBDA_SWEEP_CONFIG).read_text()
    assert [c.text for c in wl.cases("lambda-sweep", 9, ROOT)] == [shipped]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generated_configs_parse_and_round_trip(tmp_path, workload):
    for i, case in enumerate(wl.cases(workload, 3, ROOT)
                             + [wl.warmup_case(wl.cases(workload, 3, ROOT)[0])]):
        path = tmp_path / f"{i}.cfg"
        path.write_text(case.text)
        cfg = parse_config(path)
        assert cfg.mode == case.command
        path.write_text(dump_config(cfg))
        assert parse_config(path) == cfg


def test_expected_calls_match_the_counts_the_configs_imply():
    timeloop = wl.expected_calls("stability", N=128, m=2, dt_levels=4, n_lambda=3)
    assert timeloop["assembly.Factorization.solve"] == 513
    sweep = wl.expected_calls("lambda-sweep", N=16, m=1, dt_levels=4, n_lambda=3)
    assert sweep["monolithic.MonolithicSolver.step"] == 3072
    assert sweep["splitting.RobinRobinSolver.advance"] == 720


# -- verdicts and exact counts ------------------------------------------------

def _stability_csv(path, residuals):
    rows = ["step,t,E,T,S,stability_residual", "0,0,1.0,0,0.5,0"]
    rows += [f"{n},{n},1.0,0,0.5,{r}" for n, r in enumerate(residuals, 1)]
    (path / "stability.csv").write_text("\n".join(rows) + "\n")


def test_a_nan_residual_anywhere_fails_the_case(tmp_path):
    cfg = SimpleNamespace(num_windows=3)
    _stability_csv(tmp_path, [-1e-12, float("nan"), -2e-12])
    assert not worker.verify_stability(tmp_path, cfg)["ok"]
    _stability_csv(tmp_path, [-1e-12, 1e-9, -2e-12])
    v = worker.verify_stability(tmp_path, cfg)
    assert v["ok"] and v["residual_margin"] == pytest.approx(1e-9 / 1.5e-8)
    _stability_csv(tmp_path, [-1e-12, 2e-8, -2e-12])
    assert not worker.verify_stability(tmp_path, cfg)["ok"]


def test_percentiles_pool_the_spans_of_all_passes():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    step = tracer.wrap("step", lambda: None)
    passes = []
    for _ in range(2):  # 550 calls a pass: too few for p99 alone, enough pooled
        lo = len(tracer)
        for _ in range(550):
            step()
        passes.append((lo, len(tracer), 1.0, {"assembly.distinct_operators": 0}))
    per_pass, percentiles = worker.layer_stats(tracer, passes)
    assert [p["step.calls"] for p in per_pass] == [550, 550]
    assert spans.highest_percentile(550) == 90
    # the lower percentiles stay when a higher one has enough samples
    assert percentiles == {"step.p50_ms": 1e3, "step.p90_ms": 1e3, "step.p99_ms": 1e3}


def test_speed_probe_scales_each_piece_by_the_kernel_around_it(monkeypatch):
    # call starts; tick; piece ends; kernel done; piece ends; kernel done
    ticks = iter([0.0, 1.0, 1.5, 1.75, 3.75, 4.0])
    monkeypatch.setattr(worker.time, "perf_counter", lambda: next(ticks))
    kernel_times = iter([2.0, 6.0, 4.0])
    monkeypatch.setattr(worker.SpeedProbe, "kernel_s", lambda self: next(kernel_times))
    monkeypatch.setattr(worker.SpeedProbe, "REFERENCE_KERNEL_S", 4.0)
    probe = worker.SpeedProbe()

    def call():
        probe.tick()
        return "done"

    result, wall, scaled = probe.time(call)
    # pieces 0..1.5 s (kernel 2 -> 6) and 1.75..3.75 s (kernel 6 -> 4)
    assert (result, wall) == ("done", 3.5)
    assert scaled == 1.5 * 4 / 4 + 2.0 * 4 / 5


def test_counts_must_repeat_between_passes_but_timings_need_not():
    passes = [{"a.calls": 3, "a.self_s": 1.0}, {"a.calls": 3, "a.self_s": 3.0},
              {"a.calls": 4, "a.self_s": 2.0}]
    summary, mismatched = worker.summarize_layers(passes)
    assert summary == {"a.calls": 3, "a.self_s": 2.0}
    assert mismatched == ["a.calls: [3, 3, 4]"]
