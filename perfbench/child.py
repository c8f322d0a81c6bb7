"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py <plan.json>

The plan names the ops (config file and output directory of each), whether
to trace, and where to write the result.  Every op runs through
`uthermo.cli.main`, as the `uthermo` command would run it.  The result
holds the clock marks the parent turns into setup_s and wall_s, the speed
probe samples, each op's exit code and captured output, the peak RSS, the
environment, and, for a traced pass, the recorded spans.

All marks and spans use `SpeedProbe.clock`, which stops while a probe runs.
"""

import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import signal
import sys
import threading
import time
import traceback

import numpy as np

CRASHED = -1  # exit code recorded for an op that raised out of cli.main
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_INTERVAL_S = 0.05
PROBE_REPS = 75
# Probe duration at the reference speed: the median on the 2-vCPU VM that
# measured the baseline.  Corrected times are seconds at this speed.
PROBE_REF_S = 0.0021


class SpeedProbe:
    """Times a fixed small-numpy kernel every PROBE_INTERVAL_S, from a SIGALRM handler.

    The speed of a shared machine drifts (other tenants, CPU frequency) by up
    to 2x within a minute.  Probing inside the pass process, at the moments
    the pass runs, lets the parent scale pass times to the reference speed.
    The kernel (2x2 QR steps) is close to the mix of small numpy calls and
    interpreter work the workloads do.  `clock` excludes the probe time.
    Probes that only bracket each pass (before and after it) were tried and
    left a spread of 0.08-0.10 in wall_s over five seeds, against 0.01-0.03
    with this one: the speed changes within a pass.
    """

    def __init__(self):
        self.paused = 0.0
        self.samples: list[tuple[float, float]] = []  # (clock() at start, duration)
        self._mat = np.array([[2.0, 1.0], [1.0, 1.0]])
        self._kernel()  # the first call loads the LAPACK routines; keep it out of the samples

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _kernel(self):
        q = np.eye(2)
        for _ in range(PROBE_REPS):
            q, _r = np.linalg.qr(self._mat @ q)

    def _tick(self, _signum, _frame):
        # no collection of the program's garbage may land in the probe's time
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append((start - self.paused, took))
        self.paused += took

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run_ops(ops, cli, clock, tracer=None) -> tuple[list, list]:
    """Run each op through cli.main; return (op records, first-experiment-call marks)."""
    marks = []
    load_system = cli.load_system

    def marked_load_system(*args, **kwargs):
        # the experiment starts as soon as the system is loaded
        out = load_system(*args, **kwargs)
        marks.append(clock())
        return out

    records = []
    cli.load_system = marked_load_system
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(["--config", op["config"], "--out", op["out"]])
                except Exception:  # a crash is reported as a failed op, with its traceback
                    traceback.print_exc()
                    code = CRASHED
            records.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                            "start": start, "end": clock()})
    finally:
        cli.load_system = load_system
    return records, marks


def main(plan_path: str) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        with open(plan_path, encoding="utf-8") as fh:
            plan = json.load(fh)
        import uthermo.cli as cli

        tracer = None
        if plan["trace"]:
            from spans import Tracer

            tracer = Tracer(clock=probe.clock)
            tracer.install()
        clock = tracer.clock if tracer is not None else probe.clock
        try:
            records, marks = run_ops(plan["ops"], cli, clock, tracer)
            end = clock()
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        probe.stop()
    result = {
        "first_call": marks[0] if marks else records[0]["start"],
        "end": end,
        "probes": probe.samples,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _thread_count(),
        "environment": _environment(),
        "trace": tracer.to_json() if tracer is not None else None,
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
