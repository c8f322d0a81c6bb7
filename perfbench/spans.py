"""Outside-in tracing of uthermo for the benchmark's traced passes.

`Tracer.install` wraps every public function of the seven layers in every
uthermo module namespace that binds it, and wraps the `MapDescriptor` map
methods and `Potential.values` by class attribute.  The library itself is
not changed.  Each wrapped call records a span (name, start, end, parent
span, op id) in memory; map-method calls record only counts, because there
are hundreds of thousands of them in a pass.  Calls made from inside a map
method are not traced.  The hooks that count QR steps, cell paths and
points run inside the callee's span but off the tracer's clock, so their
cost lands in no span and in no parent's self time.  `uninstall` puts every
original back.

`layer_metrics` turns the recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = ("rds", "oseledets", "leafgeom", "thermo", "measures", "equilibria", "cli")
MAP_METHODS = ("apply", "apply_lift", "inverse_apply", "jacobian")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("cli.run.self_s", "s", "lower"),
    ("cli.emit_report.s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("rds.load_system.s", "s", "lower"),
    ("rds.sample_path.calls", "count", "lower"),
    ("rds.sample_path.s", "s", "lower"),
    ("rds.compose.calls", "count", "lower"),
    ("rds.derivative.calls", "count", "lower"),
    ("rds.map_calls", "count", "lower"),
    ("rds.map_points", "count", "lower"),
    ("rds.points_per_map_call", "points/call", "higher"),
    ("oseledets.lyapunov_spectrum.calls", "count", "lower"),
    ("oseledets.lyapunov_spectrum.self_s", "s", "lower"),
    ("oseledets.qr_steps", "count", "lower"),
    ("oseledets.qr_steps_per_s", "1/s", "higher"),
    ("oseledets.certify_partial_hyperbolicity.self_s", "s", "lower"),
    ("leafgeom.unstable_disk.calls", "count", "lower"),
    ("leafgeom.unstable_disk.self_s", "s", "lower"),
    ("leafgeom.unstable_disk.graph_transform_calls", "count", "lower"),
    ("leafgeom.unstable_disk.map_points", "count", "lower"),
    ("leafgeom.bowen_step_arcs.calls", "count", "lower"),
    ("leafgeom.bowen_step_arcs.self_s", "s", "lower"),
    ("leafgeom.leaf_growth_factors.self_s", "s", "lower"),
    ("thermo.pressure_estimate.calls", "count", "lower"),
    ("thermo.pressure_estimate.self_s", "s", "lower"),
    ("thermo.maximal_separated_set.calls", "count", "lower"),
    ("thermo.maximal_separated_set.self_s", "s", "lower"),
    ("thermo.cells_per_s", "1/s", "higher"),
    ("thermo.cells.lattice", "count", "higher"),
    ("thermo.cells.greedy", "count", "lower"),
    ("thermo.cells.profile", "count", "lower"),
    ("thermo.Potential.values.points", "count", "lower"),
    ("thermo.Potential.values.self_s", "s", "lower"),
    ("thermo.pressure_property_suite.self_s", "s", "lower"),
    ("measures.bowen_ball_entropy.calls", "count", "lower"),
    ("measures.bowen_ball_entropy.self_s", "s", "lower"),
    ("measures.partition_entropy_rate.self_s", "s", "lower"),
    ("measures.smb_trace.self_s", "s", "lower"),
    ("equilibria.geometric_potential.self_s", "s", "lower"),
    ("equilibria.gibbs_defect.self_s", "s", "lower"),
    ("equilibria.birkhoff_integral.self_s", "s", "lower"),
    *((f"{layer}.errors", "count", "lower") for layer in LAYERS),
    # self time of each whole layer inside the traced wall window; these
    # plus trace.remainder_s add up to trace.wall_s
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.remainder_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _count_qr_steps(tracer, a, _report):
    # n forward steps plus the forward and backward frame walks, with the
    # frame length clamped as lyapunov_spectrum clamps it
    n, frames, path = a["n"], a["frame_steps"], a["path"]
    if frames is None:
        frames = min(n, 512)
    frames = min(frames, path.backward_reach, path.forward_reach)
    tracer.counters["oseledets.qr_steps"] += n + 2 * frames


def _count_cell_path(tracer, a, _result):
    disk, potential = a["disk"], a["potential"]
    if disk.construction != "linear-exact":
        path = "profile"
    elif disk.leaf_dim == 1 and potential.x_independent:
        path = "lattice"
    else:
        path = "greedy"
    tracer.counters[f"thermo.cells.{path}"] += 1


def _count_graph_transform(tracer, _a, disk):
    if disk.construction == "graph-transform":
        tracer.counters["leafgeom.unstable_disk.graph_transform_calls"] += 1


def _count_potential_points(tracer, a, _values):
    tracer.counters["thermo.Potential.values.points"] += len(a["pts"])


# the per-layer metrics that the hooks count
HOOK_COUNTERS = (
    "oseledets.qr_steps",
    "leafgeom.unstable_disk.graph_transform_calls",
    "thermo.cells.lattice",
    "thermo.cells.greedy",
    "thermo.cells.profile",
    "thermo.Potential.values.points",
)

HOOKS = {
    "oseledets.lyapunov_spectrum": _count_qr_steps,
    "thermo.maximal_separated_set": _count_cell_path,
    "leafgeom.unstable_disk": _count_graph_transform,
    "thermo.Potential.values": _count_potential_points,
}


def _points(pts) -> int:
    shape = getattr(pts, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Tracer:
    """Spans and counters recorded by wrappers around uthermo's public functions.

    `clock` is the given clock minus the time spent in the counting hooks,
    so no span is charged for them.
    """

    def __init__(self, clock=time.perf_counter):
        self._base_clock = clock
        self.hook_s = 0.0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.map_points: list[int] = []  # map points pushed inside the span
        self.op_id = 0
        self.map_calls = 0
        self.map_points_total = 0
        self.counters: Counter = Counter()
        self._errors: dict[str, list] = {layer: [] for layer in LAYERS}
        self._stack: list[int] = []
        self._map_depth = 0
        self._saved: list[tuple] = []

    def clock(self) -> float:
        return self._base_clock() - self.hook_s

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and the traced methods."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("uthermo")
        modules = [importlib.import_module(f"uthermo.{layer}") for layer in LAYERS]
        rds, thermo = modules[0], modules[3]
        error_type = rds.EstimatorError
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    span = f"{layer}.{name}"
                    wrappers[id(fn)] = self._span_wrapper(
                        fn, span, layer, error_type, HOOKS.get(span))
        for namespace in (package, *modules):
            for name, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._replace(namespace, name, wrappers[id(value)])
        for meth in MAP_METHODS:
            self._replace(rds.MapDescriptor, meth,
                          self._map_wrapper(vars(rds.MapDescriptor)[meth]))
        values = vars(thermo.Potential)["values"]
        self._replace(thermo.Potential, "values", self._span_wrapper(
            values, "thermo.Potential.values", "thermo", error_type,
            HOOKS["thermo.Potential.values"]))

    def uninstall(self):
        """Put back every original that install replaced."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _replace(self, owner, name, new):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    # -- recording --------------------------------------------------------

    def _span_wrapper(self, fn, span, layer, error_type, hook):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            if self._map_depth:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            except error_type as exc:
                if not any(e is exc for e in self._errors[layer]):
                    self._errors[layer].append(exc)
                raise
            else:
                if hook is not None:
                    self._run_hook(hook, signature, args, kwargs, out)
            finally:
                self._close(i)
            return out

        return wrapper

    def _run_hook(self, hook, signature, args, kwargs, out):
        """Run a counting hook off the clock: its time is in no span."""
        t0 = self._base_clock()
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        hook(self, bound.arguments, out)
        self.hook_s += self._base_clock() - t0

    def _map_wrapper(self, fn):
        def wrapper(m, pts, *args, **kwargs):
            if self._map_depth:
                return fn(m, pts, *args, **kwargs)
            self._map_depth += 1
            try:
                return fn(m, pts, *args, **kwargs)
            finally:
                self._map_depth -= 1
                self.map_calls += 1
                self.map_points_total += _points(pts)

        return wrapper

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.map_points.append(self.map_points_total)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int):
        self.end[i] = self.clock()
        self._stack.pop()
        self.map_points[i] = self.map_points_total - self.map_points[i]

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "map_points": self.map_points,
            "map_calls": self.map_calls,
            "map_points_total": self.map_points_total,
            "counters": dict(self.counters),
            "errors": {layer: len(errs) for layer, errs in self._errors.items()},
        }


# -- analysis -------------------------------------------------------------


def self_times(start, end, parent, window=None) -> tuple[list[float], list[float]]:
    """(duration, self time) per span; self time is duration minus direct children.

    With window=(w0, w1) every span is first clipped to the window, so the
    self times of all spans add up to the clipped time of the root spans.
    """
    if window is None:
        dur = [e - s for s, e in zip(start, end)]
    else:
        w0, w1 = window
        dur = [max(0.0, min(e, w1) - max(s, w0)) for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def layer_metrics(trace: dict, window: tuple[float, float], artifact_bytes: int) -> dict:
    """Every PER_LAYER metric except trace.overhead_ratio, from one traced pass."""
    names = [trace["names"][k] for k in trace["span_name"]]
    parent = trace["parent"]
    dur, own = self_times(trace["start"], trace["end"], parent)
    _, own_in_window = self_times(trace["start"], trace["end"], parent, window)

    calls: Counter = Counter(names)
    self_s: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)  # outermost calls only, for recursion
    disk_points = 0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(names):
        self_s[name] += own[i]
        layer_self[name.split(".", 1)[0]] += own_in_window[i]
        p = parent[i]
        while p >= 0 and names[p] != name:
            p = parent[p]
        if p < 0:
            incl[name] += dur[i]
            if name == "leafgeom.unstable_disk":
                disk_points += trace["map_points"][i]

    counters = trace["counters"]
    wall = window[1] - window[0]

    def per(num, den):
        return num / den if den else 0.0

    special = {
        "cli.artifact_bytes": artifact_bytes,
        "rds.map_calls": trace["map_calls"],
        "rds.map_points": trace["map_points_total"],
        "rds.points_per_map_call": per(trace["map_points_total"], trace["map_calls"]),
        "oseledets.qr_steps_per_s": per(counters.get("oseledets.qr_steps", 0),
                                        incl["oseledets.lyapunov_spectrum"]),
        "leafgeom.unstable_disk.map_points": disk_points,
        "thermo.cells_per_s": per(calls["thermo.maximal_separated_set"],
                                  incl["thermo.maximal_separated_set"]),
        "trace.remainder_s": wall - sum(layer_self.values()),
        "trace.wall_s": wall,
    }
    for name in HOOK_COUNTERS:
        special[name] = counters.get(name, 0)
    for layer in LAYERS:
        special[f"{layer}.errors"] = trace["errors"][layer]
        special[f"{layer}.self_s"] = layer_self[layer]

    out = {}
    for name, _unit, _better in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        if name in special:
            out[name] = special[name]
        else:
            base, _, qty = name.rpartition(".")
            out[name] = {"calls": calls[base], "self_s": self_s[base], "s": incl[base]}[qty]
    return out
