import importlib

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


ENGINE = ("_symbol_windows", "_map_step", "_orbit", "_jacobians", "_tangent_images")


def test_one_orbit_engine():
    # the engine is defined in rds, and every layer that binds a name binds rds's object
    for name in ENGINE:
        assert getattr(rds, name).__module__ == "uthermo.rds"
    for layer in LAYERS:
        mod = importlib.import_module(f"uthermo.{layer}")
        for name in ENGINE:
            if hasattr(mod, name):
                assert getattr(mod, name) is getattr(rds, name), (layer, name)
