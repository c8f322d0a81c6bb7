"""uthermo benchmark: run one workload through the CLI and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload many_short_orbits --seed 1 --seconds 20 --trace 0

A run writes the workload's system files and configs (generated from
--seed) to a scratch directory, then runs passes until --seconds have gone
by, at least three.  Each pass is a fresh interpreter (child.py) that runs
every op of the workload through `uthermo.cli.main`, one after another.

--trace 0 reports the end-to-end metrics, as medians over the passes:
  wall_s       every op of the pass, from the first experiment call to the end
  setup_s      process start to the first experiment call: interpreter start,
               `import uthermo`, config parse and `load_system`
  peak_rss_mb  peak resident memory of the pass process
  fail_ratio   failed ops / attempted ops (non-zero exit or oracle outside tolerance)
  oracle_err   largest |estimate - exact| / tolerance over the oracle checks
wall_s and setup_s are corrected for the speed of the machine: each is the
measured time times PROBE_REF_S over the mean time of the speed probes that
ran in the same process during that interval (see child.SpeedProbe).  The
uncorrected medians and the speed factor are printed too.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (spans.PER_LAYER) of the traced pass with the median wall time,
plus the tracing overhead.

The last line of output is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.  attempted and failed count the ops of
one pass, so failed/attempted is fail_ratio whatever the number of passes.
`correct` is false when an op gives a wrong answer (an oracle outside
tolerance, an invariant failure, a crash, a config error) or when exit codes
or artifacts differ between passes; an op refused with the estimator-failure
exit code 3 only counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import PROBE_REF_S, THREAD_ENV
from spans import PER_LAYER, layer_metrics
from workloads import SYSTEMS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fail_ratio", "ratio"),
    ("oracle_err", "ratio"),
)
# the end-to-end metrics of the result line; fail_ratio is carried there as
# failed/attempted, and oracle_err depends on the seed by design
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
MIN_PASSES = 3
DEADLINE_S = 170.0  # a run must end within 180 s
ESTIMATOR_FAILURE = 3  # the CLI's exit code for a typed estimator refusal
ARTIFACT_SUFFIXES = (".csv", ".json", ".jsonl")


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _digests(out_dir: Path) -> tuple[dict, int]:
    """sha256 of every CSV/JSON/JSONL artifact in out_dir, and their total size."""
    digests, size = {}, 0
    for path in sorted(out_dir.glob("*")):
        if path.suffix in ARTIFACT_SUFFIXES:
            data = path.read_bytes()
            digests[path.name] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def _cause(stderr: str) -> str:
    lines = [line for line in stderr.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def judge_op(op, record: dict, out_dir: Path) -> dict:
    """The op's outcome: exit code, oracle checks, digests, and whether it failed."""
    code = record["exit"]
    checks, problem = [], None
    if code == 0:
        try:
            doc = json.loads((out_dir / op.artifact_json).read_text(encoding="utf-8"))
            checks = op.oracles(doc)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            problem = f"unreadable artifact: {exc!r}"
    digests, size = _digests(out_dir)
    wrong = problem is not None or any(not c.passed for c in checks) or code not in (
        0, ESTIMATOR_FAILURE)
    out = {
        "op": op.op_id,
        "exit": code,
        "failed": wrong or code != 0,
        "wrong": wrong,
        "checks": [c.to_json() for c in checks],
        "digests": digests,
        "artifact_bytes": size,
    }
    if out["failed"]:
        missed = [f"oracle {c.name}: {c.estimate!r} vs {c.exact!r}"
                  + (f" +- {c.tol:g}" if c.tol else "") for c in checks if not c.passed]
        out["config"] = op.config_text
        out["cause"] = problem or "; ".join(missed) or _cause(record["stderr"])
    return out


def _speed(probes, lo: float, hi: float) -> float:
    """Reference probe time over the mean time of the probes that started in [lo, hi)."""
    took = [d for t, d in probes if lo <= t < hi] or [d for _, d in probes]
    if not took:
        raise BenchError("no speed probe ran in the pass")
    return PROBE_REF_S / statistics.fmean(took)


def run_pass(ops, inputs: Path, index: int, traced: bool, env: dict, deadline: float) -> dict:
    """Run every op once in a fresh interpreter and judge the outcomes."""
    pass_dir = inputs.parent / f"pass{index}"
    plan = {
        "ops": [{"config": str(inputs / f"{op.op_id}.cfg"), "out": str(pass_dir / op.op_id)}
                for op in ops],
        "trace": traced,
        "result": str(pass_dir / "result.json"),
    }
    pass_dir.mkdir()
    plan_path = pass_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    spawned = time.perf_counter()
    timeout = deadline - spawned
    if timeout <= 0:
        raise BenchError("out of time before the pass started")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(plan_path)],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}: {_cause(proc.stderr)}")
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    outcomes = [judge_op(op, rec, pass_dir / op.op_id) for op, rec in zip(ops, result["ops"])]
    shutil.rmtree(pass_dir)
    first, end, probes = result["first_call"], result["end"], result["probes"]
    speed = _speed(probes, first, end)
    return {
        "traced": traced,
        "setup_s": (first - spawned) * _speed(probes, spawned, first),
        "wall_s": (end - first) * speed,
        "measured_setup_s": first - spawned,
        "measured_wall_s": end - first,
        "speed": speed,
        "window": (first, end),
        "peak_rss_mb": result["peak_rss_mb"],
        "threads": result["threads"],
        "environment": result["environment"],
        "outcomes": outcomes,
        "trace": result["trace"],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in THREAD_ENV:
        env[key] = "1"  # one process, one thread: nothing competes with the pass
    return env


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> list[dict]:
    """Generate the inputs, then run passes until `seconds` have gone by."""
    ops = WORKLOADS[name](seed, tiny=tiny)
    work = WORK_DIR / f"{name}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        for fname, text in SYSTEMS.items():
            (inputs / fname).write_text(text, encoding="utf-8")
        for op in ops:
            (inputs / f"{op.op_id}.cfg").write_text(op.config_text, encoding="utf-8")
        env = child_env()
        start = time.perf_counter()
        deadline = start + DEADLINE_S
        modes = (False, True) if traced else (False,)
        passes: list[dict] = []
        while True:
            for mode in modes:
                passes.append(run_pass(ops, inputs, len(passes), mode, env, deadline))
            plain = sum(1 for p in passes if not p["traced"])
            if time.perf_counter() - start >= seconds and (traced or plain >= MIN_PASSES):
                return passes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _verdicts(p: dict) -> list[tuple]:
    return [(o["op"], o["exit"], o["failed"], o["digests"]) for o in p["outcomes"]]


def summarize(passes: list[dict], nproc: int) -> tuple[dict, list[str]]:
    """End-to-end metrics over the untraced passes, plus the problems that make a run wrong.

    The ops are deterministic, so every pass, traced or not, must give the
    same exit codes, failures and artifact digests; fail_ratio and oracle_err
    are those of the first pass.
    """
    plain = [p for p in passes if not p["traced"]]
    outcomes = passes[0]["outcomes"]
    errs = [c["err"] for o in outcomes for c in o["checks"] if c["err"] is not None]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "fail_ratio": sum(o["failed"] for o in outcomes) / len(outcomes),
        "oracle_err": max(errs, default=0.0),
    }
    problems = [f"op {o['op']}: {o['cause']}" for p in passes for o in p["outcomes"]
                if o["wrong"]]
    if any(_verdicts(p) != _verdicts(passes[0]) for p in passes[1:]):
        problems.append("exit codes, failures or artifact digests differ between passes")
    if max(p["threads"] for p in passes) > nproc:
        problems.append("a pass ran more threads than nproc")
    return metrics, sorted(set(problems))


def traced_metrics(passes: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of the traced pass with the median traced wall time."""
    traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
    median = traced[(len(traced) - 1) // 2]
    artifact_bytes = sum(o["artifact_bytes"] for o in median["outcomes"])
    out = layer_metrics(median["trace"], median["window"], artifact_bytes)
    out["trace.overhead_ratio"] = median["wall_s"] / wall_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op, for smoke tests of the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uthermo" / "cli.py").is_file():
        print(f"perfbench: no uthermo source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # on SIGTERM, unwind: subprocess.run kills the running pass and the scratch dir goes
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    try:
        passes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size == "tiny")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics, problems = summarize(passes, nproc)
    env = dict(passes[0]["environment"], nproc=nproc,
               threads=max(p["threads"] for p in passes))
    print("environment " + json.dumps(env, sort_keys=True))
    for outcome in passes[0]["outcomes"]:
        print("op " + json.dumps(outcome, sort_keys=True))
    plain = sum(1 for p in passes if not p["traced"])
    print(f"passes: {plain} untraced, {len(passes) - plain} traced; timings are medians; "
          f"every pass is checked for the same exit codes and artifact digests")
    for name, unit in END_TO_END:
        print(f"{name} = {_fmt(metrics[name])} {unit}")
    def plain_median(key):
        return _fmt(statistics.median(p[key] for p in passes if not p["traced"]))

    print(f"measured_wall_s = {plain_median('measured_wall_s')} s (not speed-corrected)")
    print(f"measured_setup_s = {plain_median('measured_setup_s')} s (not speed-corrected)")
    print(f"speed = {plain_median('speed')} ratio (reference / measured probe time)")
    print("waiting: none; every op runs in one thread with no queues, so no layer waits")
    result_metrics = {}
    if args.trace:
        layers = traced_metrics(passes, metrics["wall_s"])
        for name, unit, _better in PER_LAYER:
            print(f"{name} = {_fmt(layers[name])} {unit}")
            result_metrics[name] = {"value": layers[name], "unit": unit}
    else:
        units = dict(END_TO_END)
        result_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in RESULT_METRICS}
    for problem in problems:
        print(f"wrong: {problem}")
    # one pass's ops: the count must not grow with the number of passes that fit
    outcomes = passes[0]["outcomes"]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
