import importlib

import uthermo

LAYERS = ("rds", "oseledets", "leafgeom", "thermo", "measures", "equilibria")


def test_every_exported_name_exists():
    # a name deleted from a layer must leave its __all__ and the package too
    modules = [importlib.import_module(f"uthermo.{layer}") for layer in LAYERS]
    for mod in modules:
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    exported = set().union(*(mod.__all__ for mod in modules))
    public = {name for name in vars(uthermo) if not name.startswith("_")}
    assert public - exported <= {"cli", *LAYERS}  # the submodules themselves
