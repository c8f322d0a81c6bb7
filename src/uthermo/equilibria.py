"""Potentials of dynamical origin and variational-principle diagnostics.

The geometric potential is minus the log volume growth of the one-step
derivative on the expanding bundle.  Scans report defects
pressure - entropy - integral per candidate measure; a candidate is
flagged as an equilibrium only up to the combined confidence width, never
as a boolean claim of exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rds import Cocycle, DrivingSystem, SymbolPath, TorusPoint, reduce_mod1, sample_path
from .oseledets import (
    OseledetsReport,
    _frames_from_past,
    _jacobians,
    _random_orthonormal,
    _symbol_windows,
    lyapunov_spectra,
)
from .leafgeom import TrivialLeafError
from .thermo import (
    GridSpec,
    Potential,
    PressureEstimate,
    _logsumexp,
    birkhoff_sum,
    combine_potentials,
    constant_potential,
    per_symbol_potential,
    pressure_estimate,
    pressure_estimates,
    theta_coboundary,
)
from .measures import MeasureSampler, _bowen_ball_entropy, bowen_ball_entropy

__all__ = [
    "geometric_potential",
    "cohomologous_transform",
    "birkhoff_integral",
    "GibbsDefect",
    "gibbs_defect",
    "CandidateRecord",
    "EquilibriumReport",
    "equilibrium_scan",
    "dual_vp_check",
    "mixing_inequality_check",
]


def geometric_potential(
    cocycle: Cocycle, report: OseledetsReport, frame_steps: int = 96
) -> Potential:
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
                kind="geometric-u",
                label="phi-u",
                l1_bound=max(abs(v) for v in tab),
                lipschitz=0.0,
                symbol_fn=lambda s, tab=tab: tab[s],
            )

    def vec(path: SymbolPath, pts: np.ndarray, cocycle=cocycle, u_dim=u_dim,
            frame_steps=frame_steps):
        steps = min(frame_steps, path.backward_reach)
        pts = np.asarray(pts, dtype=float)
        q0 = _random_orthonormal(cocycle.dim, 0)
        # with constant Jacobians the frame is the same at every point: walk one row
        shared = cocycle.has_constant_jacobian
        start = reduce_mod1(pts[:1] if shared else pts)
        q = _frames_from_past(cocycle, [path] * len(start), start,
                              np.repeat(q0[None], len(start), axis=0), steps)
        if shared:
            q = np.repeat(q, len(pts), axis=0)
        syms = _symbol_windows([path] * len(pts), 0, 1)
        w = _jacobians(cocycle, syms, pts)[0] @ q[:, :, :u_dim]
        dets = np.linalg.det(np.swapaxes(w, 1, 2) @ w)
        return np.array([-0.5 * math.log(abs(float(v))) for v in dets])

    lip_bound = 2.0 * max(m.lipschitz for m in cocycle.maps)
    sup_bound = max(math.log(max(m.lipschitz, math.e)) for m in cocycle.maps) + 1.0
    return Potential(
        kind="geometric-u",
        label="phi-u",
        l1_bound=sup_bound,
        lipschitz=lip_bound,
        vector_fn=vec,
    )


def cohomologous_transform(cocycle: Cocycle, phi: Potential, sigma: Potential, c) -> Potential:
    """phi + sigma o Theta - sigma - c, with bounds propagated.

    c may be a scalar or a per-symbol table; its mean shifts the pressure
    down by the base average of c while the coboundary leaves it unchanged.
    """
    if np.isscalar(c):
        c_pot = constant_potential(float(c), label=f"c:{float(c):g}")
    else:
        c_pot = per_symbol_potential(c, label="c-table")
    return combine_potentials(
        [(1.0, phi), (1.0, theta_coboundary(cocycle, sigma)), (-1.0, c_pot)],
        label=f"{phi.label}+cob({sigma.label})-c",
    )


def birkhoff_integral(
    cocycle: Cocycle,
    potential: Potential,
    sampler: MeasureSampler,
    n: int = 64,
    samples: int = 64,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean and standard error of orbit averages of the potential."""
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


@dataclass(frozen=True)
class GibbsDefect:
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
        return {
            "pressure_at_phiu": self.pressure_at_phiu,
            "pesin_gap": self.pesin_gap,
            "measure_id": self.measure_id,
            "pressure_ci": self.pressure_ci,
            "entropy": self.entropy,
            "entropy_ci": self.entropy_ci,
            "integral_minus_phiu": self.integral_minus_phiu,
            "integral_ci": self.integral_ci,
        }


def _report_for(cocycle, system, seed, frame_steps=256):
    path = sample_path(system, max(300, frame_steps) + 2, seed)
    x = TorusPoint(tuple(np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xF0]).random(cocycle.dim)))
    return lyapunov_spectra(cocycle, [path], [x], max(128, frame_steps),
                            frame_steps=frame_steps, frame_seeds=[seed])[0]


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
    pressure = pressure_estimate(cocycle, system, phiu, grid, seed, keep_cells=False)
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


@dataclass(frozen=True)
class CandidateRecord:
    measure_id: str
    h_estimate: float
    h_ci: float
    integral_estimate: float
    integral_ci: float
    defect: float
    combined_ci: float
    equilibrium_within_ci: bool


@dataclass(frozen=True)
class EquilibriumReport:
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
    of component estimates; each distinct (measure, seed) entropy, a
    component's included, is estimated once.  Candidates whose defect is
    within the combined confidence width are flagged as numerical
    equilibrium states.  pressure, if given, is phi's estimate on the same
    grid and seed, already made.
    """
    if len(measure_family) < 2:
        raise ValueError("need at least two candidate measures")
    if pressure is None:
        pressure = pressure_estimate(cocycle, system, phi, grid, seed, keep_cells=False)
    records = []
    known: dict = {}
    for sampler in measure_family:
        if (sampler, seed) not in known:
            known[sampler, seed] = _bowen_ball_entropy(
                cocycle, sampler, grid.delta, grid.n_grid, grid.eps_grid, entropy_samples,
                seed, known,
            )
        h = known[sampler, seed]
        integral, integral_sem = birkhoff_integral(
            cocycle, phi, sampler, birkhoff_n, birkhoff_samples, seed
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
) -> float:
    """Min over the family of (pressure - integral) minus the measure's entropy.

    Nonnegative up to confidence width; approaches zero when the family
    contains a potential for which the measure is an equilibrium.
    pressures, if given, are the family's estimates on the same grid and
    seed, already made; entropy, if given, is the measure's Bowen-ball
    entropy on the same grid, seed and entropy_samples, already made.
    """
    if len(potential_family) < 1:
        raise ValueError("need a nonempty potential family")
    if entropy is None:
        entropy = bowen_ball_entropy(
            cocycle, sampler, grid.delta, grid.n_grid, grid.eps_grid, entropy_samples, seed
        ).value
    if pressures is None:
        pressures = pressure_estimates(cocycle, system, potential_family, grid, seed,
                                       keep_cells=False)
    best = math.inf
    for phi, pressure in zip(potential_family, pressures):
        integral, _ = birkhoff_integral(
            cocycle, phi, sampler, birkhoff_n, birkhoff_samples, seed
        )
        best = min(best, pressure.value - integral - entropy)
    return float(best)


def mixing_inequality_check(p, a) -> tuple[bool, float]:
    """Weighted log-sum inequality: sum p_i (a_i - log p_i) <= s (log sum e^a - log s).

    p entries must lie in [0, 1] with positive total s (s > 1 allowed);
    0 log 0 reads as 0.  Returns (holds, slack) with slack = rhs - lhs.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    if p.shape != a.shape:
        raise ValueError("p and a must have the same shape")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p entries must lie in [0, 1]")
    s = float(p.sum())
    if s <= 0.0:
        raise ValueError("sum of p must be positive")
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    lhs = float(np.sum(p * a) - np.sum(plogp))
    rhs = s * (_logsumexp(a) - math.log(s))
    slack = rhs - lhs
    return bool(slack >= -1e-12), float(slack)
