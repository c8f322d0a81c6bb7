"""Potentials of dynamical origin and variational-principle diagnostics.

The geometric potential is minus the log volume growth of the one-step
derivative on the expanding bundle.  Scans report defects
pressure - entropy - integral per candidate measure; a candidate is
flagged as an equilibrium only up to the combined confidence width, never
as a boolean claim of exact equality.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rds import (
    Cocycle,
    DrivingSystem,
    SymbolPath,
    TorusPoint,
    _jacobians,
    _symbol_windows,
    reduce_mod1,
    sample_path,
)
from .oseledets import OseledetsReport, _frames_from_past, _random_orthonormal, lyapunov_spectra
from .leafgeom import TrivialLeafError
from .thermo import (
    GridSpec,
    Potential,
    PressureEstimate,
    birkhoff_sum,
    combine_potentials,
    pressure_estimates,
)
from .measures import MeasureSampler, _bowen_ball_entropy, bowen_ball_entropy

__all__ = [
    "geometric_potential",
    "birkhoff_integral",
    "GibbsDefect",
    "gibbs_defect",
    "CandidateRecord",
    "EquilibriumReport",
    "equilibrium_scan",
    "dual_vp_check",
]


# Steps behind phi-u's expanding frames: walked back from each point it evaluates,
# and forward in the report it is built from.
PHIU_FRAME_STEPS = 96
PHIU_REPORT_STEPS = 256


def geometric_potential(cocycle: Cocycle, report: OseledetsReport) -> Potential:
    """Minus the log expansion of the one-step derivative on the expanding bundle.

    When the estimated bundle is invariant under every map (constant
    Jacobians with a common splitting) the potential reduces to one exact
    constant per symbol.  Otherwise the evaluator re-estimates the frame at
    each point by a backward QR pass, which needs paths with history.
    """
    if report.unstable_index == 0:
        raise TrivialLeafError("no expanding directions: geometric potential undefined")
    frame = report.eu_frame
    u_dim = frame.shape[1]

    if cocycle.has_constant_jacobian:
        table = []
        invariant = True
        for m in cocycle.maps:
            w = m.matrix.astype(float) @ frame
            gram = w.T @ w
            table.append(-0.5 * math.log(abs(float(np.linalg.det(gram)))))
            proj = frame @ (frame.T @ w)
            if float(np.linalg.norm(w - proj)) > 1e-8 * float(np.linalg.norm(w)):
                invariant = False
        if invariant:
            tab = tuple(table)
            return Potential(
                label="phi-u",
                l1_bound=max(abs(v) for v in tab),
                lipschitz=0.0,
                symbol_fn=lambda s, tab=tab: tab[s],
            )

    def vec(path: SymbolPath, pts: np.ndarray, cocycle=cocycle, u_dim=u_dim):
        steps = min(PHIU_FRAME_STEPS, path.backward_reach)
        pts = np.asarray(pts, dtype=float)
        q0 = _random_orthonormal(cocycle.dim, 0)
        # with constant Jacobians the frame is the same at every point: walk one row
        shared = cocycle.has_constant_jacobian
        start = reduce_mod1(pts[:1] if shared else pts)
        q = _frames_from_past(cocycle, [path] * len(start), start,
                              np.repeat(q0[None], len(start), axis=0), steps)
        if shared:
            q = np.repeat(q, len(pts), axis=0)
        syms = np.repeat(_symbol_windows([path], 0, 1), len(pts), axis=0)
        table, index = _jacobians(cocycle, syms, pts)
        w = table[index[0]] @ q[:, :, :u_dim]
        dets = np.linalg.det(np.swapaxes(w, 1, 2) @ w)
        return np.array([-0.5 * math.log(abs(float(v))) for v in dets])

    lip_bound = 2.0 * max(m.lipschitz for m in cocycle.maps)
    sup_bound = max(math.log(max(m.lipschitz, math.e)) for m in cocycle.maps) + 1.0
    return Potential(
        label="phi-u",
        l1_bound=sup_bound,
        lipschitz=lip_bound,
        vector_fn=vec,
    )


def birkhoff_integral(
    cocycle: Cocycle,
    potential: Potential,
    sampler: MeasureSampler,
    n: int = 64,
    samples: int = 64,
    seed: int = 0,
    known: dict | None = None,
) -> tuple[float, float]:
    """Mean and standard error of orbit averages of the potential.

    A periodic-atomic measure on a trivial base is the uniform measure on
    its closed orbit, so its integral is the potential's mean over that
    orbit, exactly, with standard error 0: a float walk of n steps leaves
    an expanding orbit after a few dozen steps.  A convex combination's
    integral is its weights times its components' integrals, component i
    integrated at seed + 17 i as the entropy estimators do, with standard
    error sqrt(sum w_i^2 sem_i^2).  known, if given, holds this potential's
    integrals at the same n and samples, already made (_known_integral): a
    convex combination reads its components there and adds those it makes.
    """
    if sampler.kind == "convex-combo":
        known = {} if known is None else known
        parts = [_known_integral(known, cocycle, potential, comp, n, samples, seed + 17 * i)
                 for i, comp in enumerate(sampler.components)]
        return (sum(w * mean for w, (mean, _) in zip(sampler.weights, parts)),
                math.sqrt(sum((w * sem) ** 2 for w, (_, sem) in zip(sampler.weights, parts))))
    if _closed_orbit(sampler):
        path, _ = sampler.sample(seed)
        pts = np.stack([x.as_array() for x in sampler.orbit])
        return float(np.mean(potential.values(path, pts))), 0.0
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xB1F])
    vals = []
    for _ in range(samples):
        s_seed = int(rng.integers(0, 2**63 - 1))
        path, x = sampler.sample(s_seed)
        if path.forward_reach < n or path.backward_reach < 128:
            path = sample_path(sampler.system, n + 130, s_seed)
        vals.append(birkhoff_sum(cocycle, potential, path, x, n) / n)
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, sem


def _closed_orbit(sampler: MeasureSampler) -> bool:
    """Whether birkhoff_integral reads the sampler's integral off its closed
    orbit, exactly and whatever the seed."""
    return sampler.kind == "periodic-atomic" and sampler.system.kind == "deterministic-trivial"


def _known_integral(known, cocycle, potential, sampler, n, samples, seed):
    """birkhoff_integral through known, which maps (sampler, seed) to integrals
    of this potential at this n and samples already made, with seed None for a
    closed-orbit integral, which does not depend on it."""
    key = (sampler, None if _closed_orbit(sampler) else seed)
    if key not in known:
        known[key] = birkhoff_integral(cocycle, potential, sampler, n, samples, seed, known)
    return known[key]


class GibbsDefect(NamedTuple):
    """Distance of a measure from the geometric-potential equality cases."""

    pressure_at_phiu: float
    pesin_gap: float
    measure_id: str
    pressure_ci: float
    entropy: float
    entropy_ci: float
    integral_minus_phiu: float
    integral_ci: float

    def to_json_dict(self) -> dict:
        return self._asdict()


def _report_for(cocycle, system, seed):
    path = sample_path(system, max(300, PHIU_REPORT_STEPS) + 2, seed)
    x = TorusPoint(tuple(np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xF0]).random(cocycle.dim)))
    return lyapunov_spectra(cocycle, [path], [x], max(128, PHIU_REPORT_STEPS),
                            frame_steps=PHIU_REPORT_STEPS, frame_seeds=[seed])[0]


def gibbs_defect(
    cocycle: Cocycle,
    system: DrivingSystem,
    sampler: MeasureSampler,
    grid: GridSpec,
    seed: int,
    entropy_samples: int = 64,
    birkhoff_n: int = 64,
    birkhoff_samples: int = 64,
) -> GibbsDefect:
    """Pressure at the geometric potential and the entropy-versus-contraction gap."""
    report = _report_for(cocycle, system, seed)
    phiu = geometric_potential(cocycle, report)
    pressure = pressure_estimates(cocycle, system, [phiu], grid, seed)[0]
    entropy = bowen_ball_entropy(
        cocycle, sampler, grid.delta, grid.n_grid, grid.eps_grid, entropy_samples, seed
    )
    neg_phiu = combine_potentials([(-1.0, phiu)], label="-phi-u")
    integral, integral_sem = birkhoff_integral(
        cocycle, neg_phiu, sampler, birkhoff_n, birkhoff_samples, seed
    )
    return GibbsDefect(
        pressure_at_phiu=pressure.value,
        pesin_gap=integral - entropy.value,
        measure_id=sampler.label,
        pressure_ci=pressure.slope_ci,
        entropy=entropy.value,
        entropy_ci=entropy.ci,
        integral_minus_phiu=integral,
        integral_ci=2.0 * integral_sem,
    )


class CandidateRecord(NamedTuple):
    measure_id: str
    h_estimate: float
    h_ci: float
    integral_estimate: float
    integral_ci: float
    defect: float
    combined_ci: float
    equilibrium_within_ci: bool


class EquilibriumReport(NamedTuple):
    """Defect table of candidate measures against one potential's pressure."""

    potential_id: str
    pressure: PressureEstimate
    candidates: tuple[CandidateRecord, ...]
    best: str

    def to_json_dict(self) -> dict:
        return {
            "potential_id": self.potential_id,
            "pressure": self.pressure.to_json_dict(),
            "best": self.best,
            "candidates": [
                {
                    "measure_id": c.measure_id,
                    "h": c.h_estimate,
                    "h_ci": c.h_ci,
                    "integral": c.integral_estimate,
                    "integral_ci": c.integral_ci,
                    "defect": c.defect,
                    "combined_ci": c.combined_ci,
                    "equilibrium_within_ci": c.equilibrium_within_ci,
                }
                for c in self.candidates
            ],
        }

    def csv_rows(self):
        header = ["measure_id", "potential_id", "h", "integral", "pressure", "defect"]
        rows = [
            [c.measure_id, self.potential_id, c.h_estimate, c.integral_estimate,
             self.pressure.value, c.defect]
            for c in self.candidates
        ]
        return header, rows


def equilibrium_scan(
    cocycle: Cocycle,
    system: DrivingSystem,
    phi: Potential,
    measure_family,
    grid: GridSpec,
    seed: int,
    entropy_samples: int = 64,
    birkhoff_n: int = 64,
    birkhoff_samples: int = 64,
    pressure: PressureEstimate | None = None,
) -> EquilibriumReport:
    """Evaluate entropy + integral defects of candidate measures against P(phi).

    Convex-combination candidates get their entropy by affine combination
    of component estimates and their integrals by affine combination of
    component integrals; each distinct (measure, seed) entropy and integral,
    a component's included, is made once.  Candidates whose defect is
    within the combined confidence width are flagged as numerical
    equilibrium states.  pressure, if given, is phi's estimate on the same
    grid and seed, already made.
    """
    if len(measure_family) < 2:
        raise ValueError("need at least two candidate measures")
    if pressure is None:
        pressure = pressure_estimates(cocycle, system, [phi], grid, seed)[0]
    records = []
    known: dict = {}
    integrals: dict = {}
    for sampler in measure_family:
        if (sampler, seed) not in known:
            known[sampler, seed] = _bowen_ball_entropy(
                cocycle, sampler, grid.delta, grid.n_grid, grid.eps_grid, entropy_samples,
                seed, known,
            )
        h = known[sampler, seed]
        integral, integral_sem = _known_integral(
            integrals, cocycle, phi, sampler, birkhoff_n, birkhoff_samples, seed
        )
        defect = pressure.value - h.value - integral
        combined = pressure.slope_ci + h.ci + 2.0 * integral_sem
        records.append(
            CandidateRecord(
                measure_id=sampler.label,
                h_estimate=h.value,
                h_ci=h.ci,
                integral_estimate=integral,
                integral_ci=2.0 * integral_sem,
                defect=defect,
                combined_ci=combined,
                equilibrium_within_ci=abs(defect) <= combined,
            )
        )
    best = min(records, key=lambda r: r.defect).measure_id
    return EquilibriumReport(
        potential_id=phi.label,
        pressure=pressure,
        candidates=tuple(records),
        best=best,
    )


def dual_vp_check(
    cocycle: Cocycle,
    system: DrivingSystem,
    sampler: MeasureSampler,
    potential_family,
    grid: GridSpec,
    seed: int,
    entropy_samples: int = 64,
    birkhoff_n: int = 64,
    birkhoff_samples: int = 64,
    pressures: list[PressureEstimate] | None = None,
    entropy: float | None = None,
    integrals: dict[int, float] | None = None,
) -> float:
    """Min over the family of (pressure - integral) minus the measure's entropy.

    Nonnegative up to confidence width; approaches zero when the family
    contains a potential for which the measure is an equilibrium.
    pressures, if given, are the family's estimates on the same grid and
    seed, already made; entropy, if given, is the measure's Bowen-ball
    entropy on the same grid, seed and entropy_samples, already made;
    integrals, if given, maps family positions to the measure's Birkhoff
    integral of that potential at the same birkhoff_n, birkhoff_samples and
    seed, already made.
    """
    if len(potential_family) < 1:
        raise ValueError("need a nonempty potential family")
    if entropy is None:
        entropy = bowen_ball_entropy(
            cocycle, sampler, grid.delta, grid.n_grid, grid.eps_grid, entropy_samples, seed
        ).value
    if pressures is None:
        pressures = pressure_estimates(cocycle, system, potential_family, grid, seed)
    integrals = integrals or {}
    best = math.inf
    for k, (phi, pressure) in enumerate(zip(potential_family, pressures)):
        if k in integrals:
            integral = integrals[k]
        else:
            integral, _ = birkhoff_integral(
                cocycle, phi, sampler, birkhoff_n, birkhoff_samples, seed
            )
        best = min(best, pressure.value - integral - entropy)
    return float(best)
