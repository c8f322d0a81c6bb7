import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uthermo
from conftest import CONFIG_DIR, REPO_ROOT
from uthermo import rds

LAYERS = ("rds", "oseledets", "leafgeom", "thermo", "measures", "equilibria")


def test_every_exported_name_exists():
    # a name deleted from a layer must leave its __all__ and the package too
    modules = [importlib.import_module(f"uthermo.{layer}") for layer in LAYERS]
    for mod in modules:
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exported = set().union(*(mod.__all__ for mod in modules))
    public = {name for name in vars(uthermo) if not name.startswith("_")}
    assert public - exported <= {"cli", *LAYERS}  # the submodules themselves


ENGINE = ("_symbol_windows", "_map_step", "_walk", "_orbit", "_jacobians", "_tangent_images")


def test_one_orbit_engine():
    # the engine is defined in rds, and every layer that binds a name binds rds's object
    for name in ENGINE:
        assert getattr(rds, name).__module__ == "uthermo.rds"
    for layer in LAYERS:
        mod = importlib.import_module(f"uthermo.{layer}")
        for name in ENGINE:
            if hasattr(mod, name):
                assert getattr(mod, name) is getattr(rds, name), (layer, name)


MAP_METHODS = {"apply", "apply_lift", "inverse_apply", "inverse_apply_lift", "jacobian"}


def test_only_rds_calls_the_maps():
    # points move under a symbol's map only through rds's engine (_map_step), so
    # a map-call counter or a new kind of step has one place to go
    calls = [
        f"{path.name}:{node.lineno} {node.func.attr}"
        for path in sorted(Path(uthermo.__file__).parent.glob("*.py")) if path.name != "rds.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in MAP_METHODS
    ]
    assert calls == []


LATE = ("uthermo.measures", "uthermo.equilibria")


def _fresh_python(code: str):
    # a new interpreter: this one imported every layer long ago; the script prints JSON last
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path))
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_leaves_out_the_late_layers():
    code = ("import json, sys, uthermo.cli\n"
            f"print(json.dumps([m for m in {LATE!r} if m in sys.modules]))")
    assert _fresh_python(code) == []


def test_every_package_name_resolves_on_first_use():
    code = f"""
import json, sys, uthermo
late = [m for m in {LATE!r} if m in sys.modules]
public = sorted(n for n in vars(uthermo) if not n.startswith("_"))
missing = [n for n in uthermo.__all__ if not hasattr(uthermo, n)]
star = {{}}
exec("from uthermo import *", star)
unbound = sorted(set(uthermo.__all__) - star.keys())
print(json.dumps([late, public, uthermo.__all__, missing, unbound]))
"""
    late, public, exported, missing, unbound = _fresh_python(code)
    assert late == []
    assert set(public) <= set(exported)  # no helper name (importlib, ...) leaks into the package
    assert {"measures", "equilibria", "smb_trace", "gibbs_defect"} <= set(exported)
    assert missing == [] and unbound == []
    # each name is its layer's own object
    modules = [importlib.import_module(f"uthermo.{layer}") for layer in LAYERS]
    for name in set(exported) - set(LAYERS):
        owners = [mod for mod in modules if name in mod.__all__]
        assert len(owners) == 1 and getattr(uthermo, name) is getattr(owners[0], name), name


def _cli_runs(configs, out):
    """Exit codes, the late layers loaded at each load_system call, and those loaded at the end."""
    return _fresh_python(f"""
import json, sys
from uthermo import cli
seen = []
load_system = cli.load_system

def spy(*args, **kwargs):
    seen.append([m for m in {LATE!r} if m in sys.modules])
    return load_system(*args, **kwargs)

cli.load_system = spy
codes = [cli.main(["--config", cfg, "--out", {str(out)!r}])
         for cfg in {[str(c) for c in configs]!r}]
print(json.dumps([codes, seen, [m for m in {LATE!r} if m in sys.modules]]))
""")


@pytest.mark.parametrize("potential_run", [False, True])
def test_late_layers_load_before_load_system(potential_run, tmp_path):
    # their compile time is setup, never the experiment's
    config = CONFIG_DIR / "cat_gibbs.cfg"
    if potential_run:
        config = tmp_path / "phiu.cfg"
        config.write_text((CONFIG_DIR / "cat_trig_pressure.cfg").read_text()
                          .replace("cat.system", str(CONFIG_DIR / "cat.system"))
                          .replace("cos:0.8:1,1", "phiu"))
    codes, seen, _ = _cli_runs([config], tmp_path / "out")
    assert codes == [0]
    assert seen == [list(LATE)]


def test_core_runs_never_import_the_late_layers(tmp_path):
    names = ("cat_entropy", "cat_spectrum", "t3_certify", "cat_trig_pressure",
             "cat_property_suite")
    codes, seen, loaded = _cli_runs([CONFIG_DIR / f"{n}.cfg" for n in names], tmp_path)
    assert codes == [0] * len(names)
    assert seen == [[]] * len(names) and loaded == []


def test_no_layer_imports_dataclasses():
    # every type is a namedtuple or a plain class, so no import generates code
    code = ("import json, sys, uthermo.cli, uthermo.measures, uthermo.equilibria\n"
            "print(json.dumps('dataclasses' in sys.modules))")
    assert _fresh_python(code) is False


# each public class's constructor parameters, annotations left out, as of the
# change that made the dataclasses namedtuples and plain classes
SIGNATURES = {
    "DrivingSystem": "(kind, symbol_count, distribution, transition=None, seed=0)",
    "SymbolPath": "(symbols, half_window, origin_offset=0)",
    "TorusPoint": "(coords)",
    "ShearTerm": "(amplitude, wavevector, phase=0.0)",
    "MapDescriptor": "(matrix, shears=(), translation=None, c2_bound=AUTO, c2_bound_inverse=AUTO)",
    "Cocycle": "(maps)",
    "SkewState": "(path, point)",
    "OseledetsReport": "(exponents, multiplicities, unstable_index, eu_frame, orbit_length, "
                       "raw_exponents, log_det_sum=nan)",
    "HyperbolicityCertificate": "(domination_ratio_log, expansion_lower, constants, samples, "
                                "verdict, per_sample=())",
    "UnstableDisk": "(base, radius, frame, construction, params=None, points_lift=None)",
    "Potential": "(label, l1_bound, lipschitz, symbol_fn=None, vector_fn=None, terms=(), "
                 "coboundary=None, wave=None)",
    "SeparatedSetResult": "(points, count, n, epsilon, log_weighted_sum, log_upper, method, "
                          "potential_label='')",
    "GridSpec": "(delta=0.1, n_grid=(8, 9, 10, 11, 12, 13, 14), eps_grid=(0.02, 0.04), "
                "base_grid=5, omega_samples=1)",
    "CellRecord": "(omega_seed, x_index, delta, n, epsilon, log_lower, log_upper, potential_id)",
    "PressureEstimate": "(value, slope_ci, per_n_log, eps_grid, delta, n_grid, omega_samples, "
                        "spread, residual, omega_values, tables, potential_label, bracket_ok)",
    "PropertyCheck": "(name, passed, slack, detail)",
    "PropertySuiteReport": "(checks, estimates)",
    "FiniteSkewSpace": "(omega_probs, base_perm, fiber_counts, fiber_maps, weights)",
    "InfoTable": "(information, entropy)",
    "MeasureSampler": "(kind, label, system, dim, half_window, orbit=(), components=(), "
                      "weights=())",
    "PartitionPair": "(grid_k, dim, offsets, offset_seed)",
    "EntropyEstimate": "(value, method, n_grid, samples, ci, per_n, eps_values=None, "
                       "traces=None, trace_sd=None)",
    "GibbsDefect": "(pressure_at_phiu, pesin_gap, measure_id, pressure_ci, entropy, entropy_ci, "
                   "integral_minus_phiu, integral_ci)",
    "CandidateRecord": "(measure_id, h_estimate, h_ci, integral_estimate, integral_ci, defect, "
                       "combined_ci, equilibrium_within_ci)",
    "EquilibriumReport": "(potential_id, pressure, candidates, best)",
}


def test_public_classes_keep_their_constructors():
    found, plain = {}, set()
    for layer in LAYERS:
        mod = importlib.import_module(f"uthermo.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not inspect.isclass(obj) or issubclass(obj, BaseException):
                continue
            sig = inspect.signature(obj)
            found[name] = str(sig.replace(
                parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
                return_annotation=sig.empty))
            if not issubclass(obj, tuple):
                plain.add(name)
                continue
            # a record rejects assignment to its fields and to any other name
            record = tuple.__new__(obj, [None] * len(obj._fields))
            for attr in (*obj._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, attr, 0)
    assert found == SIGNATURES
    assert plain == {"ShearTerm", "MapDescriptor", "Cocycle", "FiniteSkewSpace"}
