import ast
import importlib
from pathlib import Path

import uthermo
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
