"""Invariant-measure sampling, conditional information, leafwise entropies.

Two stages: an exact finite product-space model on which the conditional
information calculus is verified to machine precision, and Monte-Carlo
estimators (ball volume decay, refined-partition rates, per-orbit
information traces) for the toral systems.  Leaf conditionals are
normalized leaf volume for the uniform measure on our volume-preserving
map families and a point mass for periodic atomic measures (a closed
orbit has zero fiber entropy, so no other orbit point shares a local
leaf, and a trivial leaf is a point); other empirical measures are
rejected rather than approximated.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .rds import (
    Cocycle,
    DrivingSystem,
    EstimatorError,
    InvalidSystem,
    SkewState,
    SymbolPath,
    TorusPoint,
    _map_step,
    _orbit,
    _symbol_windows,
    _tangent_images,
    _walk,
    sample_path,
    torus_distance,
)
from .oseledets import lyapunov_spectra
from .leafgeom import UnstableDisk, leaf_growth_factors_batch, unstable_disk
from .thermo import CI_FLOOR, fit_slope, upper_half

__all__ = [
    "FiniteSkewSpace",
    "InfoTable",
    "random_finite_skew_space",
    "random_invariant_weights",
    "random_partition",
    "coarsen_partition",
    "conditional_information",
    "information_at",
    "information_identity_battery",
    "MeasureSampler",
    "haar_sampler",
    "periodic_atomic_sampler",
    "convex_combo_sampler",
    "PartitionPair",
    "build_partition_pair",
    "EntropyEstimate",
    "bowen_ball_entropy",
    "partition_entropy_rate",
    "smb_trace",
]

# Forward steps behind each entropy sample's expanding frame.
ENTROPY_FRAME_STEPS = 192


# ---------------------------------------------------------------------------
# Exact finite stage
# ---------------------------------------------------------------------------


class FiniteSkewSpace:
    """A finite product space with an invertible product map and invariant mass.

    Base atoms carry a permutation preserving their probabilities; each base
    atom carries finitely many fiber atoms with a bijection to the fibers of
    its image.  The flat weight vector over (base, fiber) pairs is exactly
    invariant under the product map, so information identities can be
    checked in exact arithmetic.
    """

    def __init__(self, omega_probs, base_perm, fiber_counts, fiber_maps, weights):
        self.omega_probs = np.asarray(omega_probs, dtype=float)
        self.base_perm = np.asarray(base_perm, dtype=np.int64)
        self.fiber_counts = tuple(int(c) for c in fiber_counts)
        self.fiber_maps = tuple(np.asarray(t, dtype=np.int64) for t in fiber_maps)
        self.offsets = np.concatenate([[0], np.cumsum(self.fiber_counts)])[:-1]
        self.n_atoms = int(sum(self.fiber_counts))
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (self.n_atoms,):
            raise InvalidSystem("weight vector length mismatch")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise InvalidSystem("weights must sum to 1")
        fwd = np.empty(self.n_atoms, dtype=np.int64)
        for i, cnt in enumerate(self.fiber_counts):
            tgt = int(self.base_perm[i])
            if self.fiber_counts[tgt] != cnt:
                raise InvalidSystem("fiber bijection requires equal fiber counts")
            for a in range(cnt):
                fwd[self.offsets[i] + a] = self.offsets[tgt] + self.fiber_maps[i][a]
        if len(np.unique(fwd)) != self.n_atoms:
            raise InvalidSystem("product map is not a bijection")
        self.forward = fwd
        self.backward = np.empty_like(fwd)
        self.backward[fwd] = np.arange(self.n_atoms)
        if np.max(np.abs(self.weights[fwd] - self.weights)) > 1e-12:
            raise InvalidSystem("weights are not invariant under the product map")

    def with_weights(self, weights) -> "FiniteSkewSpace":
        return FiniteSkewSpace(
            self.omega_probs, self.base_perm, self.fiber_counts, self.fiber_maps, weights
        )

    # partitions are integer label arrays over the flat atom index
    def theta_partition(self, labels: np.ndarray, power: int) -> np.ndarray:
        lab = np.asarray(labels)
        if power > 0:
            for _ in range(power):
                lab = lab[self.backward]
        else:
            for _ in range(-power):
                lab = lab[self.forward]
        return lab

    def join(self, label_list) -> np.ndarray:
        """Labels of the common refinement of partitions given by non-negative
        integer labels, numbered in the lexicographic order of the label tuples.

        The partitions fold in one at a time: the pair (key, l) orders as
        key * (l.max() + 1) + l, and each fold renumbers the key below n_atoms,
        so it cannot overflow.
        """
        key = np.zeros(self.n_atoms, dtype=np.int64)
        for labels in label_list:
            l = np.asarray(labels, dtype=np.int64)
            _, key = np.unique(key * (l.max() + 1) + l, return_inverse=True)
        return key

    def refined_history(self, labels: np.ndarray, n: int) -> np.ndarray:
        """The join of the pullbacks over steps 0..n-1."""
        return self.join([self.theta_partition(labels, -k) for k in range(n)])


class InfoTable(NamedTuple):
    """Pointwise conditional information (nan off support) and its mean."""

    information: np.ndarray
    entropy: float


def _class_masses(labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    masses = np.zeros(int(labels.max()) + 1)
    np.add.at(masses, labels, weights)
    return masses


def conditional_information(space: FiniteSkewSpace, alpha, eta) -> InfoTable:
    """Exact -log of the conditional mass of the alpha atom given the eta atom."""
    alpha = np.asarray(alpha)
    eta = np.asarray(eta)
    joint = space.join([alpha, eta])
    m_eta = _class_masses(eta, space.weights)
    m_joint = _class_masses(joint, space.weights)
    info = np.full(space.n_atoms, np.nan)
    support = space.weights > 0
    info[support] = -(np.log(m_joint[joint[support]]) - np.log(m_eta[eta[support]]))
    entropy = float(np.sum(space.weights[support] * info[support]))
    return InfoTable(information=info, entropy=entropy)


def information_at(space: FiniteSkewSpace, alpha, eta, atom: int) -> float:
    """Pointwise conditional information; errors on zero-mass conditioning."""
    eta = np.asarray(eta)
    m_eta = _class_masses(eta, space.weights)
    if m_eta[eta[atom]] <= 0.0:
        raise EstimatorError("zero-probability conditioning atom")
    table = conditional_information(space, alpha, eta)
    return float(table.information[atom])


def _perm_cycles(perm: np.ndarray):
    seen = np.zeros(len(perm), dtype=bool)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = int(perm[start])
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = int(perm[cur])
        cycles.append(cyc)
    return cycles


def _invariant_fiber_weights(rng, fiber_count, return_map):
    """Random positive vector invariant under the given return permutation."""
    q = np.zeros(fiber_count)
    orbits = _perm_cycles(return_map)
    w = rng.random(len(orbits)) + 0.1
    w /= w.sum()
    for orb, mass in zip(orbits, w):
        q[orb] = mass / len(orb)
    return q


def _draw_invariant_weights(rng, base_perm, fiber_counts, fiber_maps) -> np.ndarray:
    """Random product-map-invariant mass for the given skew structure."""
    m = len(fiber_counts)
    cycles = _perm_cycles(np.asarray(base_perm))
    cw = rng.random(len(cycles)) + 0.1
    cw /= cw.sum()
    p = np.zeros(m)
    q_per_atom = [None] * m
    for cyc, mass in zip(cycles, cw):
        p[cyc] = mass / len(cyc)
        fiber = fiber_counts[cyc[0]]
        ret = np.arange(fiber)
        for i in cyc:
            ret = fiber_maps[i][ret]
        q = _invariant_fiber_weights(rng, fiber, ret)
        cur_q = q
        for i in cyc:
            q_per_atom[i] = cur_q
            nxt = np.empty(fiber)
            nxt[fiber_maps[i]] = cur_q
            cur_q = nxt
    return np.concatenate([p[i] * q_per_atom[i] for i in range(m)])


def random_invariant_weights(rng: np.random.Generator, space: FiniteSkewSpace) -> np.ndarray:
    """An independent invariant mass vector on an existing space's structure."""
    return _draw_invariant_weights(rng, space.base_perm, space.fiber_counts, space.fiber_maps)


def random_finite_skew_space(
    rng: np.random.Generator, max_base: int = 3, max_total: int = 8
) -> FiniteSkewSpace:
    """Draw a random exactly-invariant finite product space (<= max_total atoms)."""
    m = int(rng.integers(1, max_base + 1))
    perm = rng.permutation(m)
    fiber = int(rng.integers(1, max(1, max_total // m) + 1))
    fiber_counts = [fiber] * m
    fiber_maps = [rng.permutation(fiber) for _ in range(m)]
    weights = _draw_invariant_weights(rng, perm, fiber_counts, fiber_maps)
    marginal = weights.reshape(m, fiber).sum(axis=1)
    return FiniteSkewSpace(marginal, perm, fiber_counts, fiber_maps, weights)


def random_partition(rng: np.random.Generator, space: FiniteSkewSpace, max_classes: int = 4):
    k = int(rng.integers(1, max_classes + 1))
    return rng.integers(0, k, space.n_atoms).astype(np.int64)


def information_identity_battery(
    n_spaces: int = 100, seed: int = 0, history_lengths=(2, 3, 4)
) -> dict[str, float]:
    """Worst-case deviations of the conditional information laws on random spaces.

    Checks, per space, with random partitions: refinement monotonicity of
    the pointwise information, the chain rule (pointwise and averaged),
    subadditivity, anti-monotonicity in the conditioning partition, the
    history telescoping identity, and concavity of the conditional entropy
    in the measure.  All are exact laws; deviations are pure roundoff.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x1DE])
    worst = {
        "refinement_monotone": 0.0,
        "chain_rule_pointwise": 0.0,
        "chain_rule_mean": 0.0,
        "subadditivity": 0.0,
        "conditioning_antimonotone": 0.0,
        "history_telescoping": 0.0,
        "concavity_in_measure": 0.0,
    }
    for _ in range(n_spaces):
        sp = random_finite_skew_space(rng)
        a = random_partition(rng, sp)
        b = random_partition(rng, sp)
        g = random_partition(rng, sp)
        sup = sp.weights > 0

        ab = sp.join([a, b])
        ag = sp.join([a, g])
        lhs = conditional_information(sp, ab, g)
        r1 = conditional_information(sp, a, g)
        r2 = conditional_information(sp, b, ag)
        worst["chain_rule_pointwise"] = max(
            worst["chain_rule_pointwise"],
            float(np.max(np.abs(lhs.information[sup] - r1.information[sup] - r2.information[sup]))),
        )
        worst["chain_rule_mean"] = max(
            worst["chain_rule_mean"], abs(lhs.entropy - r1.entropy - r2.entropy)
        )
        worst["subadditivity"] = max(
            worst["subadditivity"],
            lhs.entropy - r1.entropy - conditional_information(sp, b, g).entropy,
        )

        coarse = coarsen_partition(rng, b)
        worst["refinement_monotone"] = max(
            worst["refinement_monotone"],
            float(
                np.max(
                    (
                        conditional_information(sp, coarse, g).information
                        - conditional_information(sp, b, g).information
                    )[sup]
                )
            ),
        )

        coarse_g = coarsen_partition(rng, g)
        worst["conditioning_antimonotone"] = max(
            worst["conditioning_antimonotone"],
            conditional_information(sp, a, g).entropy
            - conditional_information(sp, a, coarse_g).entropy,
        )

        for nn in history_lengths:
            hist = sp.refined_history(b, nn)
            total = conditional_information(sp, hist, g).entropy
            acc = conditional_information(sp, b, g).entropy
            for i in range(1, nn):
                cond = sp.theta_partition(sp.join([sp.refined_history(b, i), g]), i)
                acc += conditional_information(sp, b, cond).entropy
            worst["history_telescoping"] = max(worst["history_telescoping"], abs(total - acc))

        w2 = random_invariant_weights(rng, sp)
        sp_b = sp.with_weights(w2)
        sp_mix = sp.with_weights(0.5 * sp.weights + 0.5 * w2)
        worst["concavity_in_measure"] = max(
            worst["concavity_in_measure"],
            0.5 * conditional_information(sp, a, g).entropy
            + 0.5 * conditional_information(sp_b, a, g).entropy
            - conditional_information(sp_mix, a, g).entropy,
        )
    return worst


def coarsen_partition(rng: np.random.Generator, labels: np.ndarray):
    """Merge classes at random, producing a partition refined by the input."""
    labels = np.asarray(labels)
    n_classes = int(labels.max()) + 1
    target = int(rng.integers(1, n_classes + 1))
    merge = rng.integers(0, target, n_classes)
    return merge[labels].astype(np.int64)


# ---------------------------------------------------------------------------
# Measure samplers
# ---------------------------------------------------------------------------


class MeasureSampler(NamedTuple):
    """Seeded sampler of (path, point) pairs from a supported invariant measure."""

    kind: str
    label: str
    system: DrivingSystem
    dim: int
    half_window: int
    orbit: tuple[TorusPoint, ...] = ()
    components: tuple["MeasureSampler", ...] = ()
    weights: tuple[float, ...] = ()

    @property
    def leaf_conditional(self) -> str:
        """The supported conditional family on leaf pieces, fixed by kind:
        "volume" (normalized leaf volume, the uniform measure on the torus for
        our volume-preserving maps) for haar, "atomic" (the point mass at the
        sampled point, for a measure on a closed orbit: its information is 0 at
        every n, so the estimators draw nothing for it) for periodic-atomic, and
        "mixed" for convex combinations."""
        return {"haar": "volume", "periodic-atomic": "atomic", "convex-combo": "mixed"}[self.kind]

    def sample(self, seed: int) -> tuple[SymbolPath, TorusPoint]:
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x5A3])
        path_seed = int(rng.integers(0, 2**63 - 1))
        if self.kind == "haar":
            path = sample_path(self.system, self.half_window, path_seed)
            return path, TorusPoint(tuple(rng.random(self.dim)))
        if self.kind == "periodic-atomic":
            path = sample_path(self.system, self.half_window, path_seed)
            idx = int(rng.integers(0, len(self.orbit)))
            return path, self.orbit[idx]
        if self.kind == "convex-combo":
            u = rng.random()
            acc = 0.0
            for comp, w in zip(self.components, self.weights):
                acc += w
                if u <= acc:
                    return comp.sample(int(rng.integers(0, 2**63 - 1)))
            return self.components[-1].sample(int(rng.integers(0, 2**63 - 1)))
        raise InvalidSystem(f"unknown sampler kind {self.kind!r}")


def haar_sampler(system: DrivingSystem, dim: int = 2, half_window: int = 600) -> MeasureSampler:
    return MeasureSampler(
        kind="haar",
        label="haar",
        system=system,
        dim=dim,
        half_window=half_window,
    )


def periodic_atomic_sampler(
    system: DrivingSystem,
    cocycle: Cocycle,
    point: TorusPoint,
    half_window: int = 600,
    max_period: int = 128,
    tol: float = 1e-10,
) -> MeasureSampler:
    """Uniform measure on a closed orbit: a common fixed point of every map,
    or a periodic orbit of the single map of a trivial base."""
    x = point.as_array()
    fixed_by_all = all(
        torus_distance(_map_step(cocycle, np.array(s), x, "apply"), x) <= tol
        for s in range(len(cocycle.maps))
    )
    if fixed_by_all:
        orbit = (point,)
    elif system.kind == "deterministic-trivial":
        walk = _orbit(cocycle, np.zeros((1, max_period), dtype=np.int64), x[None])
        period = next((j for j, y in enumerate(walk[1:, 0], start=1)
                       if torus_distance(y, point) <= tol), None)
        if period is None:
            raise InvalidSystem("orbit does not close within max_period")
        orbit = tuple(TorusPoint(tuple(y)) for y in walk[:period, 0])
    else:
        raise InvalidSystem(
            "periodic-atomic measures need a common fixed point or a trivial base"
        )
    return MeasureSampler(
        kind="periodic-atomic",
        label=f"atomic:{','.join(f'{c:g}' for c in point.coords)}",
        system=system,
        dim=point.dim,
        half_window=half_window,
        orbit=orbit,
    )


def convex_combo_sampler(components, weights, label: str | None = None) -> MeasureSampler:
    weights = tuple(float(w) for w in weights)
    if len(weights) != len(components):
        raise InvalidSystem("combo needs one weight per component")
    if not all(0.0 <= w <= 1.0 for w in weights):  # NaN fails too
        raise InvalidSystem("combo weights must lie in [0, 1]")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise InvalidSystem("combo weights must sum to 1")
    first = components[0]
    return MeasureSampler(
        kind="convex-combo",
        label=label or "combo(" + "+".join(f"{w:g}*{c.label}" for c, w in zip(components, weights)) + ")",
        system=first.system,
        dim=first.dim,
        half_window=first.half_window,
        components=tuple(components),
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Fiberwise partitions
# ---------------------------------------------------------------------------


class PartitionPair(NamedTuple):
    """Per-symbol offset grid partition of the torus plus its leaf sections.

    The fiber partition over a symbol is the grid_k^dim cube grid shifted by
    a seeded random offset (so the uniform measure gives no mass to cell
    boundaries); leaf sections are parameter intervals cut by cell walls.
    """

    grid_k: int
    dim: int
    offsets: np.ndarray  # (symbols, dim)
    offset_seed: int

    @property
    def cell_size(self) -> float:
        return 1.0 / self.grid_k

    def cardinality(self, symbol: int) -> int:
        return self.grid_k**self.dim

    def cardinality_table(self) -> dict[int, int]:
        return {s: self.cardinality(s) for s in range(self.offsets.shape[0])}

    def cell_ids(self, symbol: int, pts: np.ndarray) -> np.ndarray:
        rel = (np.asarray(pts) - self.offsets[symbol]) % 1.0
        ids = np.floor(rel * self.grid_k).astype(np.int64)
        ids = np.minimum(ids, self.grid_k - 1)
        return ids

    def cell_positions(self, symbol: int, pt: np.ndarray) -> np.ndarray:
        """Offsets of pt inside its cell, in [0, cell_size) per coordinate."""
        rel = (np.asarray(pt) - self.offsets[symbol]) % 1.0
        return rel % self.cell_size


def build_partition_pair(
    system: DrivingSystem, disks, grid_k: int, offset_seed: int, dim: int | None = None
) -> PartitionPair:
    """Seeded offset-grid partition compatible with the given leaf disks."""
    if grid_k < 2:
        raise InvalidSystem("grid_k must be >= 2")
    disk_list = [disks] if isinstance(disks, UnstableDisk) else disks
    if dim is None:
        dim = disk_list[0].dim if disk_list else 2
    for d in disk_list:
        if d.radius <= 1.0 / grid_k:
            raise InvalidSystem("disk too small relative to grid: radius must exceed cell size")
    rng = np.random.default_rng([offset_seed & 0xFFFFFFFFFFFFFFFF, 0x0FF5])
    offsets = rng.random((system.symbol_count, dim))
    return PartitionPair(grid_k=grid_k, dim=dim, offsets=offsets, offset_seed=offset_seed)


# ---------------------------------------------------------------------------
# Entropy estimators
# ---------------------------------------------------------------------------


class EntropyEstimate(NamedTuple):
    """A leafwise entropy estimate with its n-profile and confidence width."""

    value: float
    method: str
    n_grid: tuple[int, ...]
    samples: int
    ci: float
    per_n: dict[int, float]
    eps_values: dict[float, float] | None = None
    traces: np.ndarray | None = None
    trace_sd: tuple[float, ...] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "n_grid": list(self.n_grid),
            "samples": self.samples,
            "ci": self.ci,
            "per_n": {str(k): v for k, v in sorted(self.per_n.items())},
        }
        if self.eps_values is not None:
            out["eps_values"] = {f"{k:g}": v for k, v in sorted(self.eps_values.items())}
        if self.trace_sd is not None:
            out["trace_sd"] = list(self.trace_sd)
        return out


def _sample_seeds(seed: int, samples: int, salt: int):
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, salt])
    return [int(rng.integers(0, 2**63 - 1)) for _ in range(samples)]


def _sample_spectra(cocycle, sampler, seeds, half_window):
    """Draw (path, point) per seed, then estimate every sample's spectrum in one batch.

    A sampled path shorter than half_window is re-drawn from the same seed.
    """
    paths, xs = [], []
    for s_seed in seeds:
        path, x = sampler.sample(s_seed)
        if path.half_window < half_window:
            path = sample_path(sampler.system, half_window, s_seed)
        paths.append(path)
        xs.append(x)
    reports = lyapunov_spectra(
        cocycle, paths, xs, ENTROPY_FRAME_STEPS, frame_steps=ENTROPY_FRAME_STEPS,
        frame_seeds=seeds,
    )
    return zip(paths, xs, reports)


def _mixed_estimate(sampler, method, n_grid, samples, estimate, epsilons=None):
    """Weight the estimates of a mixed sampler's components; estimate(i, comp)
    returns component i's."""
    parts = [estimate(i, comp) for i, comp in enumerate(sampler.components)]

    def mix(get):
        return sum(w * get(p) for w, p in zip(sampler.weights, parts))

    return EntropyEstimate(
        value=mix(lambda p: p.value),
        method=method,
        n_grid=n_grid,
        samples=samples,
        ci=mix(lambda p: p.ci),
        per_n={n: mix(lambda p: p.per_n[n]) for n in n_grid},
        eps_values=None if epsilons is None
        else {e: mix(lambda p: p.eps_values[e]) for e in epsilons},
    )


def bowen_ball_entropy(
    cocycle: Cocycle,
    sampler: MeasureSampler,
    delta: float,
    n_grid,
    epsilons,
    samples: int,
    seed: int,
) -> EntropyEstimate:
    """Decay rate of conditional measure of dynamical leaf balls.

    For volume conditionals the ball mass is its leaf length normalized by
    the local leaf atom; the estimate is the fitted slope of the
    information in n at the smallest scale, averaged over samples.  Scale
    insensitivity is recorded by estimating at every given epsilon.  On a
    volume sample's leaf the (n, eps) ball has half-length
    min(delta, eps / g*_n), with g*_n the largest leaf growth over steps
    0..n-1; one running max of the sample's growth holds g*_n for every n.
    """
    return _bowen_ball_entropy(cocycle, sampler, delta, n_grid, epsilons, samples, seed, {})


def _bowen_ball_entropy(cocycle, sampler, delta, n_grid, epsilons, samples, seed, known):
    """bowen_ball_entropy, sharing component estimates through known.

    known maps (sampler, seed) to estimates already made with this cocycle,
    delta, grids and samples, and nothing else: a mixed sampler reads its
    components' estimates there and adds those it has to make.
    """
    n_grid = tuple(n_grid)
    epsilons = tuple(sorted(epsilons))
    uh = upper_half(n_grid)
    if sampler.leaf_conditional == "mixed":

        def component(i, comp):
            key = (comp, seed + 17 * i)
            if key not in known:
                known[key] = _bowen_ball_entropy(
                    cocycle, comp, delta, n_grid, epsilons, samples, key[1], known
                )
            return known[key]

        return _mixed_estimate(sampler, "bowen-ball", n_grid, samples, component, epsilons)
    if sampler.leaf_conditional not in ("volume", "atomic"):
        raise EstimatorError("unsupported conditional family for this sampler")

    seeds = _sample_seeds(seed, samples, 0xB0E)
    slopes_per_eps: dict[float, list[float]] = {e: [] for e in epsilons}
    fit_ses: list[float] = []
    per_n_acc: dict[int, list[float]] = {n: [] for n in n_grid}
    eps_min = epsilons[0]

    # a point mass (an atomic sample, or a trivial leaf) keeps peak None
    peaks = [None] * samples
    if sampler.leaf_conditional == "volume":
        half_window = max(max(n_grid), ENTROPY_FRAME_STEPS) + 2
        disks = {i: unstable_disk(cocycle, SkewState(path, x), delta, report)
                 for i, (path, x, report)
                 in enumerate(_sample_spectra(cocycle, sampler, seeds, half_window))
                 if report.unstable_index > 0}
        # peak[n - 1] is the largest growth over steps 0..n-1 (max is exact)
        growth = leaf_growth_factors_batch(cocycle, disks.values(), max(n_grid))
        for i, peak in zip(disks, np.maximum.accumulate(growth, axis=1).tolist()):
            peaks[i] = peak
    for peak in peaks:
        for eps in epsilons:
            if peak is None:
                info = dict.fromkeys(n_grid, 0.0)
            else:
                info = {}
                for n in n_grid:
                    half = min(delta, eps / peak[n - 1])
                    info[n] = math.log(2.0 * delta) - math.log(2.0 * half)
            ys = [info[n] for n in uh]
            slope, se, _ = fit_slope(uh, ys)
            slopes_per_eps[eps].append(slope)
            if eps == eps_min:
                fit_ses.append(se)
                for n in n_grid:
                    per_n_acc[n].append(info[n])

    values = {e: float(np.mean(v)) for e, v in slopes_per_eps.items()}
    value = values[eps_min]
    arr = np.asarray(slopes_per_eps[eps_min])
    sem = float(np.std(arr, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    ci = 2.0 * sem + 2.0 * float(np.mean(fit_ses)) + CI_FLOOR / 2.0
    return EntropyEstimate(
        value=value,
        method="bowen-ball",
        n_grid=n_grid,
        samples=samples,
        ci=ci,
        per_n={n: float(np.mean(v)) for n, v in per_n_acc.items()},
        eps_values=values,
    )


def _interval_lengths(cocycle, pair, paths, pts, frames, n_max, delta):
    """Exact leaf-interval lengths (S, n_max) for constant-Jacobian cocycles.

    Sample i's leaf is the line through pts[i] (S, d) along frames[i] (S, d);
    lengths[i, j] is the surviving parameter interval after matching grid
    cells over steps 0..j, starting from [-delta, delta], so lengths[:, 0]
    is the leaf atom (the cell section clipped to the disk radius).  Every
    step clips by each coordinate whose tangent image is at least 1e-14 in
    size.  The orbits and tangent images are walked once for all samples,
    and the clips are a running max and min over steps: max and min are
    exact, so this has the bits of clipping one step at a time.
    """
    g = pair.cell_size
    syms = _symbol_windows(paths, 0, n_max)
    r = (_orbit(cocycle, syms[:, :-1], pts) - pair.offsets[syms.T]) % 1.0 % g  # (n_max, S, d)
    w = _tangent_images(cocycle, paths, pts, frames[..., None], n_max - 1)[..., 0].swapaxes(0, 1)
    skip = np.abs(w) < 1e-14
    w = np.where(skip, 1.0, w)
    a, b = (0.0 - r) / w, (g - r) / w
    lo = np.where(skip, -np.inf, np.minimum(a, b)).max(axis=-1, initial=-delta)
    hi = np.where(skip, np.inf, np.maximum(a, b)).min(axis=-1, initial=delta)
    lengths = (np.minimum.accumulate(hi) - np.maximum.accumulate(lo)).T
    if np.any(lengths <= 1e-300):
        raise EstimatorError("empty refined atom (numerical tolerance breach)")
    return lengths


def _polyline_lengths(cocycle, pair, path, disk, n_max):
    """Grid-resolution fallback: track the same-cell run on a leaf polyline."""
    params = disk.params
    mid = len(params) // 2
    syms = _symbol_windows([path], 0, n_max)
    walk = _walk(cocycle, syms[:, :-1], disk.points_lift, "apply_lift")
    alive = np.ones(len(params), dtype=bool)
    lengths = np.empty(n_max)
    for j, (sym, pts) in enumerate(zip(syms[0], walk)):
        ids = pair.cell_ids(sym, pts % 1.0)
        same = np.all(ids == ids[mid], axis=1)
        alive &= same
        left = mid
        while left - 1 >= 0 and alive[left - 1]:
            left -= 1
        right = mid
        while right + 1 < len(params) and alive[right + 1]:
            right += 1
        if right - left < 4:
            raise EstimatorError("empty refined atom (resolution floor)")
        lengths[j] = params[right] - params[left]
    return lengths


def _information_profiles(cocycle, sampler, pair, seeds, delta, n_max):
    """Per-sample information of the n-fold refined partition given the leaf
    atom, n = 1..n_max: a (samples, n_max) array.

    A point mass (an atomic sampler, or a sample on a trivial leaf) gives
    its atom all the mass, so its row is 0; an atomic sampler draws nothing.
    Constant-Jacobian samples clip their leaf intervals together
    (_interval_lengths); sheared ones track a polyline chart each.
    """
    if pair.dim != cocycle.dim:
        raise InvalidSystem(
            f"partition pair has dim {pair.dim}, but the cocycle's fiber has dim {cocycle.dim}"
        )
    if delta <= pair.cell_size:
        raise InvalidSystem("disk too small relative to grid")
    info = np.zeros((len(seeds), n_max))
    if sampler.leaf_conditional == "atomic":
        return info
    half_window = max(n_max, ENTROPY_FRAME_STEPS) + 2
    drawn = list(_sample_spectra(cocycle, sampler, seeds, half_window))
    leafy = [i for i, (_, _, report) in enumerate(drawn) if report.unstable_index > 0]
    if not leafy:
        return info
    paths, xs, reports = zip(*(drawn[i] for i in leafy))
    if cocycle.has_constant_jacobian:
        lengths = _interval_lengths(
            cocycle, pair, paths, np.stack([x.as_array() for x in xs]),
            np.stack([report.eu_frame[:, 0] for report in reports]), n_max, delta,
        )
    else:
        lengths = np.stack([
            _polyline_lengths(cocycle, pair, path,
                              unstable_disk(cocycle, SkewState(path, x), delta, report), n_max)
            for path, x, report in zip(paths, xs, reports)
        ])
    info[leafy] = -np.log(lengths / lengths[:, :1])
    return info


def partition_entropy_rate(
    cocycle: Cocycle,
    sampler: MeasureSampler,
    pair: PartitionPair,
    n_grid,
    samples: int,
    seed: int,
    delta: float = 0.1,
) -> EntropyEstimate:
    """Growth rate of the conditional entropy of the n-fold refined partition.

    The conditional mass of a refined atom is the relative leaf volume of
    the surviving parameter interval inside the leaf section of the grid
    cell; the rate is the fitted slope of the Monte-Carlo mean over the
    upper half of n_grid.
    """
    n_grid = tuple(n_grid)
    uh = upper_half(n_grid)
    if sampler.leaf_conditional == "mixed":
        return _mixed_estimate(
            sampler, "partition-rate", n_grid, samples,
            lambda i, comp: partition_entropy_rate(
                cocycle, comp, pair, n_grid, samples, seed + 31 * i, delta
            ),
        )
    seeds = _sample_seeds(seed, samples, 0x9A7)
    info = _information_profiles(cocycle, sampler, pair, seeds, delta, max(n_grid))
    # np.take keeps the rows C-contiguous, so the mean sums in row order
    profiles = np.take(info, [n - 1 for n in n_grid], axis=1)
    mean_info = profiles.mean(axis=0)
    sel = [n_grid.index(n) for n in uh]
    slope, se, _ = fit_slope(uh, mean_info[sel])
    per_sample_slopes = [fit_slope(uh, row[sel])[0] for row in profiles]
    sem = (
        float(np.std(per_sample_slopes, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    )
    ci = 2.0 * sem + 2.0 * se + CI_FLOOR / 2.0
    return EntropyEstimate(
        value=float(slope),
        method="partition-rate",
        n_grid=n_grid,
        samples=samples,
        ci=ci,
        per_n={n: float(mean_info[i]) for i, n in enumerate(n_grid)},
    )


def smb_trace(
    cocycle: Cocycle,
    sampler: MeasureSampler,
    pair: PartitionPair,
    n_grid,
    samples: int,
    seed: int,
    delta: float = 0.1,
) -> EntropyEstimate:
    """Per-orbit information traces (1/n) I(refined partition | leaf atom).

    Convergence evidence: the cross-sample standard deviation of the trace
    shrinks with n, and the terminal mean matches the partition rate.  A
    trace follows one orbit's own leaf conditional, so a mixed sampler,
    whose samples come from components with different conditionals, is
    rejected.
    """
    if sampler.leaf_conditional not in ("volume", "atomic"):
        raise EstimatorError("unsupported conditional family for this sampler")
    n_grid = tuple(n_grid)
    seeds = _sample_seeds(seed, samples, 0x53B)
    info = _information_profiles(cocycle, sampler, pair, seeds, delta, max(n_grid))
    traces = np.take(info, [n - 1 for n in n_grid], axis=1) / np.asarray(n_grid)
    mean_trace = traces.mean(axis=0)
    sd_trace = traces.std(axis=0, ddof=1) if samples > 1 else np.zeros(len(n_grid))
    value = float(mean_trace[-1])
    sem = float(sd_trace[-1] / math.sqrt(samples)) if samples > 1 else 0.0
    return EntropyEstimate(
        value=value,
        method="smb-trace",
        n_grid=n_grid,
        samples=samples,
        ci=2.0 * sem + CI_FLOOR / 2.0,
        per_n={n: float(mean_trace[i]) for i, n in enumerate(n_grid)},
        traces=traces,
        trace_sd=tuple(float(v) for v in sd_trace),
    )
