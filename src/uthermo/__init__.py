"""uthermo: a computational laboratory for leafwise entropy and pressure
of random dynamics on tori.

Systems are seeded symbol processes driving unimodular toral maps with
optional exact shear perturbations.  The package estimates Lyapunov
spectra and expanding bundles, builds local leaf charts, packs separated
sets for pressure and entropy growth rates, verifies the conditional
information calculus on exact finite models, and scans candidate
measures against the variational inequality.
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
    integrability_check,
    load_system,
    parse_system_text,
    sample_path,
    skew_step,
    torus_distance,
)
from .oseledets import (
    HyperbolicityCertificate,
    OseledetsReport,
    certify_partial_hyperbolicity,
    lyapunov_spectra,
)
from .leafgeom import (
    OffLeafError,
    TrivialLeafError,
    UnstableDisk,
    bowen_distance,
    leaf_distance,
    leaf_volume,
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
    per_symbol_potential,
    pressure_estimates,
    pressure_property_suite,
    topological_entropy,
    zero_potential,
)
from .measures import (
    EntropyEstimate,
    FiniteSkewSpace,
    MeasureSampler,
    PartitionPair,
    bowen_ball_entropy,
    build_partition_pair,
    conditional_information,
    convex_combo_sampler,
    haar_sampler,
    partition_entropy_rate,
    periodic_atomic_sampler,
    smb_trace,
    entropy_estimator_gap,
)
from .equilibria import (
    EquilibriumReport,
    GibbsDefect,
    cohomologous_transform,
    dual_vp_check,
    equilibrium_scan,
    geometric_potential,
    gibbs_defect,
    mixing_inequality_check,
)

__version__ = "0.1.0"
