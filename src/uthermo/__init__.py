"""uthermo: a computational laboratory for leafwise entropy and pressure
of random dynamics on tori.

Systems are seeded symbol processes driving unimodular toral maps with
optional exact shear perturbations.  The package estimates Lyapunov
spectra and expanding bundles, builds local leaf charts, packs separated
sets for pressure and entropy growth rates, verifies the conditional
information calculus on exact finite models, and scans candidate
measures against the variational inequality.

`import uthermo` loads the four layers that every experiment reads (rds,
oseledets, leafgeom, thermo).  The names of measures and equilibria are
resolved on first use (PEP 562), so a run that reads neither never
compiles them.
"""

from .rds import (
    Cocycle,
    DrivingSystem,
    EstimatorError,
    InvalidSystem,
    MapDescriptor,
    ShearTerm,
    SkewState,
    SymbolPath,
    TorusPoint,
    WindowExhausted,
    compose,
    derivative,
    load_system,
    parse_system_text,
    sample_path,
    torus_distance,
)
from .oseledets import (
    HyperbolicityCertificate,
    OseledetsReport,
    certify_partial_hyperbolicity,
    lyapunov_spectra,
)
from .leafgeom import (
    TrivialLeafError,
    UnstableDisk,
    unstable_disk,
)
from .thermo import (
    GridSpec,
    Potential,
    PressureEstimate,
    SeparatedSetResult,
    birkhoff_sum,
    coordinate_potential,
    combine_potentials,
    constant_potential,
    maximal_separated_sets,
    pressure_estimates,
    pressure_property_suite,
    topological_entropy,
    zero_potential,
)

# each late layer and the names it exports through the package
_LATE = {
    "measures": (
        "EntropyEstimate",
        "FiniteSkewSpace",
        "MeasureSampler",
        "PartitionPair",
        "bowen_ball_entropy",
        "build_partition_pair",
        "conditional_information",
        "convex_combo_sampler",
        "haar_sampler",
        "partition_entropy_rate",
        "periodic_atomic_sampler",
        "smb_trace",
    ),
    "equilibria": (
        "EquilibriumReport",
        "GibbsDefect",
        "dual_vp_check",
        "equilibrium_scan",
        "geometric_potential",
        "gibbs_defect",
    ),
}
_LATE_LAYER_OF = {name: layer for layer, names in _LATE.items() for name in names}

# the public names bound above (the four layer modules among them) and the late ones
__all__ = [name for name in globals() if not name.startswith("_")] + [*_LATE, *_LATE_LAYER_OF]


def __getattr__(name):
    layer = name if name in _LATE else _LATE_LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{layer}")
    return module if name == layer else getattr(module, name)


__version__ = "0.1.0"
