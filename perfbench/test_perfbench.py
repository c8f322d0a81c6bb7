"""Tests of the benchmark's own machinery: span arithmetic, wrapper lifetime, smoke runs.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import LAYERS, PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
START = [0.0, 1.0, 5.0, 6.0]
END = [10.0, 4.0, 9.0, 7.0]
PARENT = [-1, 0, 0, 2]


def test_self_time_is_parent_minus_children():
    dur, own = self_times(START, END, PARENT)
    assert dur == [10.0, 3.0, 4.0, 1.0]
    assert own == [3.0, 3.0, 3.0, 1.0]


def test_self_time_clipped_to_window_adds_up_to_window():
    dur, own = self_times(START, END, PARENT, window=(2.0, 8.0))
    assert dur == [6.0, 2.0, 3.0, 1.0]
    assert own == [1.0, 2.0, 2.0, 1.0]
    assert sum(own) == 6.0


def test_layer_self_times_plus_remainder_equal_wall():
    trace = {
        "names": ["cli.main", "oseledets.lyapunov_spectrum", "thermo.maximal_separated_set",
                  "rds.compose"],
        "span_name": [0, 1, 2, 3],
        "start": [1.0, 2.0, 5.0, 6.0],
        "end": [9.5, 4.0, 9.0, 7.0],
        "parent": [-1, 0, 0, 2],
        "op": [0, 0, 0, 0],
        "map_points": [0, 0, 0, 0],
        "map_calls": 0,
        "map_points_total": 0,
        "counters": {},
        "errors": dict.fromkeys(LAYERS, 0),
    }
    m = layer_metrics(trace, (0.5, 10.0), artifact_bytes=0)
    assert m["trace.wall_s"] == 9.5
    assert m["trace.remainder_s"] == pytest.approx(1.0)  # [0.5, 1] and [9.5, 10]
    assert m["oseledets.lyapunov_spectrum.self_s"] == 2.0
    assert m["thermo.maximal_separated_set.self_s"] == 3.0
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.remainder_s"]
    assert total == pytest.approx(m["trace.wall_s"])


def _snapshot():
    import uthermo
    from uthermo import rds, thermo

    modules = [uthermo] + [getattr(uthermo, layer) for layer in LAYERS]
    owners = modules + [rds.MapDescriptor, thermo.Potential]
    return {id(o): (o, dict(vars(o))) for o in owners}


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_install_then_uninstall_leaves_namespaces_identical():
    import numpy as np
    import uthermo
    from uthermo import cli, oseledets

    before = _snapshot()
    original = oseledets.lyapunov_spectrum
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = oseledets.lyapunov_spectrum
        assert wrapped is not original
        # one wrapper, bound in every namespace that imports the function
        for ns in (uthermo, uthermo.thermo, uthermo.measures, cli):
            assert ns.lyapunov_spectrum is wrapped
        system, cocycle = uthermo.parse_system_text("map.0.matrix = 2 1 1 1\n")
        path = uthermo.sample_path(system, 200, 1)
        uthermo.lyapunov_spectrum(cocycle, path, uthermo.TorusPoint((0.1, 0.2)), 100)
        cocycle.maps[0].apply(np.zeros((3, 2)))
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert all(_same(before[k][1], after[k][1]) for k in before)
    trace = tracer.to_json()
    names = {trace["names"][i] for i in trace["span_name"]}
    assert {"rds.parse_system_text", "rds.sample_path", "oseledets.lyapunov_spectrum",
            "rds.compose"} <= names
    assert trace["counters"]["oseledets.qr_steps"] == 100 + 2 * 100
    assert trace["map_points_total"] >= 3


def test_hook_time_is_in_no_span(monkeypatch):
    import time

    import spans
    import uthermo

    def slow_hook(tracer, arguments, _report):
        time.sleep(0.2)
        tracer.counters["slow"] += arguments["n"]

    monkeypatch.setitem(spans.HOOKS, "oseledets.lyapunov_spectrum", slow_hook)
    tracer = Tracer()
    tracer.install()
    try:
        system, cocycle = uthermo.parse_system_text("map.0.matrix = 2 1 1 1\n")
        path = uthermo.sample_path(system, 200, 1)
        uthermo.lyapunov_spectrum(cocycle, path, uthermo.TorusPoint((0.1, 0.2)), 100)
    finally:
        tracer.uninstall()
    trace = tracer.to_json()
    assert trace["counters"]["slow"] == 100
    assert tracer.hook_s >= 0.2
    (i,) = [i for i, k in enumerate(trace["span_name"])
            if trace["names"][k] == "oseledets.lyapunov_spectrum"]
    assert trace["end"][i] - trace["start"][i] < 0.2


def _pass(exits, traced=False):
    outcomes = [{"op": f"op{i}", "exit": code, "failed": code != 0, "wrong": False,
                 "checks": [], "digests": {}} for i, code in enumerate(exits)]
    return {"traced": traced, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 50.0,
            "threads": 1, "outcomes": outcomes}


def test_fail_ratio_is_per_pass_and_passes_must_agree():
    metrics, problems = run.summarize([_pass([0, 3]), _pass([0, 3], True), _pass([0, 3])], 2)
    assert metrics["fail_ratio"] == 0.5
    assert problems == []
    _, problems = run.summarize([_pass([0, 3]), _pass([0, 0])], 2)
    assert problems == ["exit codes, failures or artifact digests differ between passes"]


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    units = dict(run.END_TO_END)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_pass_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # the ops of one pass, however many passes ran
    assert result["attempted"] == len(WORKLOADS[workload](1))
    printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[1] for line in lines if " = " in line}
    for name, unit in run.END_TO_END:
        assert printed[name] == unit
    expected = [(n, u) for n, u, _ in PER_LAYER] if trace else [
        (n, dict(run.END_TO_END)[n]) for n in run.RESULT_METRICS]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for name, unit in expected:
        assert printed[name] == unit
