"""Leafwise pressure: orbit sums, packed separated sets, and growth-rate fits.

The sup over separated subsets of a leaf disk is bracketed by a greedy
weighted packing (lower bound) and a spanning-set comparison (upper
bound).  Growth rates in n are extracted by a least-squares slope over the
upper half of the n grid at the smallest separation scale, which removes
additive constants and most of the disk-boundary transient.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple

import numpy as np

from .rds import (
    Cocycle,
    DrivingSystem,
    EstimatorError,
    SkewState,
    SymbolPath,
    TorusPoint,
    _Validated,
    _map_step,
    _one_map,
    _symbol_windows,
    _tangent_images,
    _walk,
    sample_path,
)
from .oseledets import lyapunov_spectra
from .leafgeom import (
    UnstableDisk,
    bowen_step_arcs,
    leaf_growth_factors_batch,
    unstable_disk,
)

__all__ = [
    "Potential",
    "zero_potential",
    "constant_potential",
    "coordinate_potential",
    "combine_potentials",
    "theta_coboundary",
    "potential_norm",
    "birkhoff_sum",
    "SeparatedSetResult",
    "maximal_separated_sets",
    "GridSpec",
    "CellRecord",
    "PressureEstimate",
    "pressure_estimates",
    "topological_entropy",
    "PropertyCheck",
    "PropertySuiteReport",
    "pressure_property_suite",
    "fit_slope",
    "upper_half",
]

# Estimator discreteness (packing staircases, grid quantization) is not
# captured by regression standard errors, so every confidence half-width
# carries this floor.
CI_FLOOR = 0.01

# The linear-exact packing grid has step epsilon / (GRID_FACTOR * leaf growth),
# so a pick blocks GRID_FACTOR candidates on each side; sheared arcs must be
# finer than epsilon / (2 * GRID_FACTOR).  A power of two, so the spanning
# cover's centres are candidates bit for bit and share their orbit walk.
GRID_FACTOR = 8

# Forward steps behind each pressure sample's expanding frame.
PRESSURE_FRAME_STEPS = 256

_MAX_MATERIALIZED = 2_000_000
_MAX_CANDIDATES = 6_000_000


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


class Potential(NamedTuple):
    """A potential on (symbol path, torus point), continuous in the point.

    x-independent potentials carry symbol_fn (value per current symbol) and
    admit closed-form orbit sums; x-dependent ones carry a vectorized
    evaluator.  l1_bound bounds the per-fiber sup of |phi|; lipschitz is a
    modulus for |phi(w,x)-phi(w,y)| <= lipschitz * d(x,y).  A weighted sum
    from combine_potentials records its (weight, Potential) terms, so an orbit
    walk weights its leaves' sums once; a coboundary from theta_coboundary
    records its (cocycle, sigma), so a walk over that cocycle sums it as
    sigma(x_n) - sigma(x_0).  A wave from coordinate_potential records its
    (k, phase, fn, amplitude), k integer, so a walk evaluates each distinct
    wave once per point set and its values are amplitude * fn(2 pi k.x + phase)
    from that shared evaluation; on an affine leaf its orbit sums have a closed
    form (_line_wave_sums), and no walk evaluates it.
    """

    label: str
    l1_bound: float
    lipschitz: float
    symbol_fn: Callable[[int], float] | None = None
    vector_fn: Callable[[SymbolPath, np.ndarray], np.ndarray] | None = None
    terms: tuple[tuple[float, Potential], ...] = ()
    coboundary: tuple[Cocycle, Potential] | None = None
    wave: tuple[tuple[float, ...], float, str, float] | None = None

    @property
    def x_independent(self) -> bool:
        return self.vector_fn is None

    def value(self, path: SymbolPath, point: TorusPoint) -> float:
        return float(self.values(path, point.as_array().reshape(1, -1))[0])

    __call__ = value

    def values(self, path: SymbolPath, pts: np.ndarray) -> np.ndarray:
        if self.x_independent:
            return np.full(pts.shape[0], float(self.symbol_fn(path.symbol(0))))
        return np.asarray(self.vector_fn(path, pts), dtype=float)


def zero_potential() -> Potential:
    return Potential(label="zero", l1_bound=0.0, lipschitz=0.0, symbol_fn=lambda s: 0.0)


def constant_potential(c: float, label: str | None = None) -> Potential:
    return Potential(
        label=label or f"const:{c:g}",
        l1_bound=abs(c),
        lipschitz=0.0,
        symbol_fn=lambda s, c=float(c): c,
    )


def coordinate_potential(
    amplitude: float,
    wavevector,
    phase: float = 0.0,
    fn: str = "cos",
    label: str | None = None,
) -> Potential:
    """a * cos(2 pi k.x + phase) (or sin), a smooth coordinate observable.

    k must be an integer vector: only then is the wave a function on the torus.
    """
    k = np.asarray(wavevector, dtype=float)
    if k.ndim != 1 or not np.array_equal(k, np.round(k)):
        raise ValueError(f"wavevector must be an integer vector, got {wavevector!r}")
    wave = (tuple(k.tolist()), float(phase), "cos" if fn == "cos" else "sin", float(amplitude))
    groups = _wave_groups([wave])

    def vec(path, pts, wave=wave, groups=groups):
        return wave[3] * _trig_values(pts, groups)[wave[:3]]

    return Potential(
        label=label or f"{fn}:{amplitude:g}@{'_'.join(str(int(v)) for v in k)}",
        l1_bound=abs(wave[3]),
        lipschitz=2.0 * math.pi * abs(wave[3]) * float(np.sum(np.abs(k))),
        vector_fn=vec,
        wave=wave,
    )


_TRIG = {"cos": np.cos, "sin": np.sin}


def _wave_groups(waves) -> dict:
    """{(k, phase): [fn, ...]} over the distinct (k, phase, fn) of the waves."""
    groups: dict[tuple, list[str]] = {}
    for k, phase, fn, _ in waves:
        fns = groups.setdefault((k, phase), [])
        if fn not in fns:
            fns.append(fn)
    return groups


def _wave_phases(pts: np.ndarray, k, phase: float) -> np.ndarray:
    """2 pi k.x + phase at each row of pts, made in place in one array."""
    arg = pts @ np.asarray(k)
    arg *= 2.0 * math.pi
    arg += phase
    return arg


def _trig_values(pts: np.ndarray, groups) -> dict:
    """{(k, phase, fn): fn(2 pi k.x + phase) at pts} over _wave_groups' groups: one
    phase array per (k, phase) and one cos or sin per fn."""
    out = {}
    for (k, phase), fns in groups.items():
        arg = _wave_phases(pts, k, phase)
        for fn in fns:  # the last one overwrites the phases
            out[k, phase, fn] = _TRIG[fn](arg, out=arg if fn == fns[-1] else None)
    return out


def combine_potentials(terms, label: str | None = None) -> Potential:
    """Weighted sum of potentials: terms is a list of (weight, Potential)."""
    terms = tuple((float(w), p) for w, p in terms)
    fields = dict(
        label=label or "+".join(f"{w:g}*{p.label}" for w, p in terms),
        l1_bound=sum(abs(w) * p.l1_bound for w, p in terms),
        lipschitz=sum(abs(w) * p.lipschitz for w, p in terms),
        terms=terms,
    )
    if all(p.x_independent for _, p in terms):
        def sym(s, terms=terms):
            return sum(w * p.symbol_fn(s) for w, p in terms)

        return Potential(symbol_fn=sym, **fields)

    def vec(path, pts, terms=terms):
        return _sum_terms(terms, lambda leaf: leaf.values(path, pts), np.empty(len(pts)))

    return Potential(vector_fn=vec, **fields)


def _expands(potential: Potential) -> bool:
    """True for an x-dependent weighted sum, which is evaluated through its terms."""
    return bool(potential.terms) and not potential.x_independent


def _leaves(potential: Potential) -> list[Potential]:
    """The potentials whose values make up this one's: its terms' leaves when it
    expands, else itself."""
    if not _expands(potential):
        return [potential]
    return [leaf for _, p in potential.terms for leaf in _leaves(p)]


def _sum_terms(terms, value, out: np.ndarray) -> np.ndarray:
    """The sum of w * value(p) over the (w, p) terms, added in order onto zeros,
    made in out.

    value(leaf) gives a leaf's values, or its orbit sum, as an array or a
    scalar that broadcasts to out; terms that expand are summed from their own
    terms first.  This is the one combiner of x-dependent sums, so a sum gives
    the same bits wherever its leaves' values come from.  The first term is
    added as w * v + 0.0 (addition commutes, signed zeros included), its
    product made in out and 0.0 added there in place; a weight of 1.0 adds v
    itself, whose product it is bit for bit.
    """
    for i, (w, p) in enumerate(terms):
        v = _sum_terms(p.terms, value, np.empty_like(out)) if _expands(p) else value(p)
        if i:
            out += v if w == 1.0 else np.multiply(w, v)
        else:  # a weighted first term is made in out
            np.add(v if w == 1.0 else np.multiply(w, v, out=out), 0.0, out=out)
    return out


def theta_coboundary(cocycle: Cocycle, sigma: Potential, label: str | None = None) -> Potential:
    """The coboundary sigma o Theta - sigma as a potential."""

    def vec(path, pts, cocycle=cocycle, sigma=sigma):
        moved = _map_step(cocycle, np.array(path.symbol(0)), pts, "apply")  # one step
        return sigma.values(path.shifted(1), moved) - sigma.values(path, pts)

    return Potential(
        label=label or f"cobdry({sigma.label})",
        l1_bound=2.0 * sigma.l1_bound,
        lipschitz=sigma.lipschitz * (1.0 + cocycle.lipschitz),
        vector_fn=vec,
        coboundary=(cocycle, sigma),
    )


def potential_norm(
    potential: Potential, system: DrivingSystem, grid: int = 64, dim: int = 2
) -> float:
    """Base-averaged fiber sup of |phi|, evaluated per symbol on a grid."""
    return float(sum(
        p * float(np.max(np.abs(v))) for p, v in _fiber_values(potential, system, dim, grid)
    ))


def _product_grid(axis: np.ndarray, dim: int) -> np.ndarray:
    """The dim-fold product of axis with itself as rows, in C order."""
    return np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)


def _fiber_values(potential: Potential, system: DrivingSystem, dim: int, grid: int):
    """(p, values on the torus lattice of cell corners i/grid) per symbol s of probability p.

    The potentials here do not read beyond symbol 0, so a one-symbol window
    per symbol value stands for every path with that current symbol.
    """
    pts = _product_grid(np.linspace(0.0, 1.0, grid, endpoint=False), dim)
    for s, p in enumerate(system.distribution_array):
        yield p, potential.values(SymbolPath(symbols=(s,) * 3, half_window=1), pts)


def _symbol_prefix(cocycle, potential: Potential, path: SymbolPath, n: int) -> np.ndarray:
    """Prefix table of an x-independent potential's orbit sums: out[m] = S_m phi, the
    sum over steps 0..m-1 added left to right onto 0.0, for m = 0..n (a step outside
    the sampled window raises WindowExhausted, through _symbol_windows, and a
    symbol with no map of the cocycle raises InvalidSystem, as a walk does).

    symbol_fn is called once per distinct symbol; the running sum is one
    np.add.accumulate, which adds in order.
    """
    syms, at = np.unique(_symbol_windows([path], 0, n)[0], return_inverse=True)
    _one_map(cocycle, syms)
    values = np.array([float(potential.symbol_fn(s)) for s in syms.tolist()])
    return np.add.accumulate(np.concatenate([[0.0], values[at]]))


def _symbol_sum(cocycle, potential: Potential, path: SymbolPath, n: int) -> float:
    """Orbit sum over steps 0..n-1 of an x-independent potential, read off _symbol_prefix."""
    return float(_symbol_prefix(cocycle, potential, path, n)[n])


def birkhoff_sum(
    cocycle: Cocycle, potential: Potential, path: SymbolPath, x: TorusPoint, n: int
) -> float:
    """Orbit sum of the potential over steps 0..n-1."""
    if n < 1:
        raise ValueError("need n >= 1")
    if potential.x_independent:
        return _symbol_sum(cocycle, potential, path, n)
    return float(_orbit_sums(cocycle, path, [potential], x.as_array()[None], n)[0, 0])


# ---------------------------------------------------------------------------
# Separated sets
# ---------------------------------------------------------------------------


def _logsumexp(a) -> float:
    """log(sum(exp(a))) over all entries, by the arithmetic of scipy.special.logsumexp:
    the (tied) maxima are split off the shifted sum, so results are bitwise equal to it.

    A finite maximum below 2**970, where no a - a_max can overflow, makes the
    shifts in one array, sets the maxima to -inf there, and exps and sums it in
    place.  A non-finite maximum, a larger one, and a non-finite result take the
    guarded form, whose warnings are silenced.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size == 0:
        return -math.inf
    a_max = np.max(a)
    if -math.inf < a_max < 2.0 ** 970:
        shifted = a - a_max
        at_max = a == a_max
        shifted[at_max] = -np.inf
        m = np.float64(np.count_nonzero(at_max))
        s = np.sum(np.exp(shifted, out=shifted))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if math.isfinite(out):
            return float(out)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        at_max = a == a_max
        m = np.sum(at_max, dtype=float)
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if np.isfinite(out):
            return float(out)
        # infinite or NaN results come from the direct formula, as in scipy
        return float(np.log(np.sum(np.exp(a))))


def _window_max(a: np.ndarray, k: int) -> np.ndarray:
    """m[j] = max(a[j : j + k]) for j in range(len(a) - k + 1), by doubling; NaN spreads."""
    m, span = a, 1
    while 2 * span <= k:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    if span == k:
        return m
    return np.maximum(m[: len(a) - k + 1], m[k - span :])


def _chains(seeds: np.ndarray, right: np.ndarray, left: np.ndarray, stride: int) -> np.ndarray:
    """The seeds and every i reached from one by steps of `stride` toward higher
    indices on which `right` holds, or toward lower ones on which `left` holds, by
    doubling the step length.  Both directions run in place on arrays in forward
    order, so all three arrays are overwritten: right and left become their
    direction's reach, and seeds the chains toward lower indices."""
    got, step = seeds.copy(), stride
    while step < len(got) and right[step:].any():
        got[step:] |= got[:-step] & right[step:]
        right[step:] &= right[:-step]
        step *= 2
    while stride < len(got) and left[:-stride].any():
        seeds[:-stride] |= seeds[stride:] & left[:-stride]
        left[:-stride] &= left[stride:]
        stride *= 2
    got |= seeds
    return got


def _greedy_kernel(weights: np.ndarray, width: int) -> np.ndarray:
    """Sorted indices of the candidates picked in np.argsort(-weights, kind="stable")
    order (larger weight first, ties by index, NaN last), each pick blocking the
    candidates within `width` grid steps of it (the linear-exact window).

    Array ops decide most picks from two facts.  A candidate that comes before its
    whole window (weight > its left window's maximum, >= its right one's) is a
    pick: no candidate that could block it comes first.  If p is a pick and
    c = p + width + 1 comes before its right window, c is a pick: its left window
    lies in p's, where no pick can be (mirrored for p - width - 1 and its left
    window), so picks chain along slopes.  NaN spreads through the window maxima,
    so no comparison with NaN decides a pick.  The windows of decided picks hold
    no other pick, and the rest lie farther than `width` from every decided pick,
    so whether those come before or after them changes nothing: the blocking loop
    over the rest alone, in its own order, adds the other picks.
    """
    n = len(weights)
    rim = np.full(width, -np.inf)
    near = _window_max(np.concatenate([rim, weights, rim]), width)
    right = weights >= near[width + 1 :]
    left = weights > near[:n]
    peaks = left & right
    picks = _chains(peaks, right, left, width + 1)
    span = 2 * width + 1
    rim = np.zeros(width, dtype=bool)
    covered = _window_max(np.concatenate([rim, picks, rim]), span)
    blocked = bytearray(n + span - 1)  # candidate i sits at i + width
    block = b"\x01" * span
    rest = np.flatnonzero(~covered)
    chosen = []
    for idx in rest[np.argsort(-weights[rest], kind="stable")].tolist():
        if not blocked[idx + width]:
            blocked[idx : idx + span] = block
            chosen.append(idx)
    picks[chosen] = True
    return np.flatnonzero(picks)


def _greedy_windows(order, lo, hi, n_candidates: int) -> np.ndarray:
    """Sorted indices of the candidates picked in `order`, each pick blocking
    its window lo..hi (the polyline-profile windows)."""
    blocked = np.zeros(n_candidates, dtype=bool)
    lo, hi = lo.tolist(), hi.tolist()
    selected = []
    for idx in order.tolist():
        if not blocked[idx]:
            selected.append(idx)
            blocked[lo[idx] : hi[idx] + 1] = True
    return np.sort(np.asarray(selected, dtype=np.int64))


def _index_order_picks(hi: np.ndarray) -> list[int]:
    """_greedy_windows in index order for windows i..hi[i] or wider to the left, hi
    nondecreasing: a pick blocks up to its hi, so the picks are 0, hi[0] + 1, ..."""
    hi = hi.tolist()
    picks = [0]
    while hi[picks[-1]] + 1 < len(hi):
        picks.append(hi[picks[-1]] + 1)
    return picks


class SeparatedSetResult(NamedTuple):
    """A packed separated subset of a leaf disk with its weighted orbit sum.

    log_weighted_sum is the packing lower bound for the sup; log_upper the
    spanning-set upper bound.  points holds the selected leaf parameters
    unless the analytic lattice is too large to materialize.
    """

    points: np.ndarray | None
    count: float
    n: int
    epsilon: float
    log_weighted_sum: float
    log_upper: float
    method: str
    potential_label: str = ""


def _orbit_sums(cocycle, path, potentials, pts, n: int, line=None) -> np.ndarray:
    """Orbit sums S_n(phi), n >= 1, over an array of starting points, one row per
    potential.

    One pass serves every potential, with one running sum per distinct leaf
    (_leaves).  An x-independent leaf's sum is _symbol_sum.  Every other leaf
    has one entry in a plan {leaf key: (leaf summed, steps, signs)}: a leaf is
    summed over steps 0..n-1 with sign +1, and a coboundary sigma o Theta -
    sigma over this cocycle sums sigma at steps (n, 0) with signs (+1, -1).
    When the points are a _LineGrid's (line given, pts None) and the maps are
    affine (a constant-Jacobian cocycle), each entry that sums a wave is made
    in closed form on the true orbit (_line_wave_sums), with no map call.  One
    streamed _walk sums the other entries, and every entry when line is None
    (graph-transform charts, 2-d leaves, birkhoff_sum), up to the last step
    any of them reads: at step j each entry with a step j adds its signed
    values there onto its sum; a wave leaf's values are amplitude * trig, from
    cos/sin made once per distinct (k, phase, fn) and step (_trig_values).  A
    sum's first term is v + 0.0 for sign +1 and -v for sign -1, so a
    coboundary's sum has the bits of sigma(x_n) - sigma(x_0).  Each weighted
    sum is then added up once from its leaves' sums in its own term order
    (_sum_terms), so a potential's row does not depend on the rest of the
    family, and a walked one-leaf potential's row is its values added step by
    step onto zeros.
    """
    if line is not None and not cocycle.has_constant_jacobian:  # sheared maps are not affine
        pts, line = line.points(), None
    total = np.empty((len(potentials), pts.shape[0] if line is None else line.size))
    rows = list(total)
    leaves = {id(leaf): leaf for p in potentials for leaf in _leaves(p)}
    plan = {}
    for key, leaf in leaves.items():
        if leaf.coboundary is not None and leaf.coboundary[0] is cocycle:
            plan[key] = leaf.coboundary[1], (n, 0), (1.0, -1.0)
        elif not leaf.x_independent:
            plan[key] = leaf, range(n), (1.0,) * n
    # a leaf's running sum is the row of a potential that is that leaf
    own = {id(p): row for row, p in zip(rows, potentials)}
    spare = iter(np.empty((sum(key not in own for key in plan), total.shape[1])))
    sums = {key: own[key] if key in own else next(spare) for key in plan}
    if line is not None:  # an affine leaf: its waves in closed form, the rest walked
        waves = {key: e for key, e in plan.items() if e[0].wave}
        orbit = line.orbit
        if waves and orbit is None:
            orbit = _line_orbit(cocycle, path, line.disk, max(max(e[1]) for e in waves.values()))
        for kind in dict.fromkeys(e[1:] for e in waves.values()):  # each (steps, signs)
            targets = {key: e[0].wave for key, e in waves.items() if e[1:] == kind}
            for group in _wave_groups(targets.values()):
                parts = _line_wave_sums(line, orbit, group, *kind)
                for key, wave in targets.items():
                    if wave[:2] == group:
                        _wave_part(wave, parts, sums[key])
                del parts  # one block at a time
        plan = {key: e for key, e in plan.items() if key not in waves}
        pts = line.points() if plan else None
    if plan:
        at_step = [[] for _ in range(max(max(steps) for _, steps, _ in plan.values()) + 1)]
        for key, (leaf, steps, signs) in plan.items():
            start = min(steps)  # the entry's first step in walk order
            for j, sign in zip(steps, signs):
                at_step[j].append((key, leaf, sign, j == start))
        product = np.empty(pts.shape[0])
        syms = _symbol_windows([path], 0, len(at_step) - 1)
        # streamed, not an _orbit: a stored walk of n x N x d floats would cost MiBs of peak RSS
        for j, (cur, terms) in enumerate(zip(_walk(cocycle, syms, pts), at_step)):
            trig = _trig_values(cur, _wave_groups(term[1].wave for term in terms if term[1].wave))
            at = path.shifted(j)
            for key, leaf, sign, first in terms:
                v, row = _leaf_values(leaf, at, cur, trig, product), sums[key]
                if first:
                    if sign > 0:
                        np.add(v, 0.0, out=row)
                    else:
                        np.negative(v, out=row)
                elif sign > 0:
                    row += v
                else:
                    row -= v
            trig = v = None  # step j's arrays go before step j + 1's are made
    sums.update((key, _symbol_sum(cocycle, leaf, path, n))
                for key, leaf in leaves.items() if leaf.x_independent)
    for row, p in zip(rows, potentials):
        if _expands(p):
            _sum_terms(p.terms, lambda leaf: sums[id(leaf)], row)
        elif sums[id(p)] is not row:
            row[...] = sums[id(p)]
    return total


class _LineGrid(NamedTuple):
    """The points of a linear-exact 1-d packing cell: chart(params), params the
    candidates -radius + step * i, then chart(extra), the cover points that are
    not candidates.

    The chart is affine, x(t) = b + t f, and every map is affine with an
    integer matrix, so x_j(t) = c_j + t w_j (mod 1), with c_j the orbit of b
    and w_j = D_j f its tangent images; orbit is their _line_orbit, or None.
    """

    disk: UnstableDisk
    params: np.ndarray
    step: float
    extra: np.ndarray
    orbit: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.params) + len(self.extra)

    def points(self) -> np.ndarray:
        return self.disk.chart(np.concatenate([self.params, self.extra]))


def _line_orbit(cocycle, path, disk: UnstableDisk, steps: int):
    """(c, scale, w) for j = 0..steps: the exact orbit of a linear-exact chart's base
    point, x_j = c[j] / scale (mod 1) as integer rows, and the tangent images w
    (steps + 1, d).

    The base point and the maps' translations are floats, so dyadic rationals
    with one power-of-two denominator scale; integer matrices keep the orbit
    on that lattice, and it is carried in exact integers mod scale.  A longer
    walk's step j holds the same rationals, so its prefix serves.
    """
    maps = [cocycle.map_for(s) for s in _symbol_windows([path], 0, steps)[0].tolist()]
    values = [*disk.base_lift.tolist(), *(float(v) for m in maps for v in m.translation)]
    scale = max(v.as_integer_ratio()[1] for v in values)

    def lattice(coords):
        return [num * (scale // den) for num, den in (float(v).as_integer_ratio() for v in coords)]

    c = [[v % scale for v in lattice(disk.base_lift.tolist())]]
    for m in maps:
        c.append([(sum(a * v for a, v in zip(row, c[-1])) + s) % scale
                  for row, s in zip(m.matrix.tolist(), lattice(m.translation))])
    w = _tangent_images(cocycle, [path], disk.base_lift[None], disk.frame[None], steps)[0, :, :, 0]
    return c, scale, w


def _line_wave_sums(line: _LineGrid, orbit, group, steps, signs) -> dict:
    """The sums over the given steps j of sign_j * fn(2 pi k.x_j + phase) for a wave
    group (k, phase) (_wave_groups) at a _LineGrid's points, in closed form:
    {fn: (at the candidates, at extra)} for fn cos and sin.

    On the true orbit the phase at step j is theta_j + t beta_j, with
    theta_j = 2 pi (k.c_j mod 1) + phase (k.c_j mod 1 exact, rounded once) and
    beta_j = 2 pi k.w_j; k is integer.  Candidate i = q * width + l, at
    t = -radius + step * i, gives e^{i(theta_j + t beta_j)} = head_q * tail_l, so
    each step costs about 2 sqrt(N) complex exponentials, and one real matrix
    product adds up the real and imaginary parts of heads^T tails over the steps
    into one (2 Q, width) block: its first Q rows hold the cos sums and the rest
    the sin sums, the candidates' first in C order.  The product's left factor
    is filled into one array, with np.block's bits.  The extra points are
    evaluated directly.
    """
    c, scale, w = orbit
    k, phase = group
    ints = [int(v) for v in k]
    steps = list(steps)
    theta = np.array([sum(a * v for a, v in zip(ints, c[j])) % scale / scale for j in steps])
    theta *= 2.0 * math.pi
    theta += phase
    beta = w[steps] @ np.asarray(k)
    beta *= 2.0 * math.pi
    count = len(line.params)
    width = math.isqrt(count - 1) + 1  # ceil(sqrt(count))
    start = theta - line.disk.radius * beta
    stride = line.step * beta
    heads = np.exp(1j * (start[:, None] + np.arange(0, count, width) * stride[:, None]))
    tails = np.exp(1j * (np.arange(width) * stride[:, None]))
    signs = np.asarray(signs)
    heads *= signs[:, None]
    extra = signs @ np.exp(1j * (theta[:, None] + line.extra * beta[:, None]))
    # Re(h t) = h.re t.re - h.im t.im and Im(h t) = h.im t.re + h.re t.im: the rows
    # [[re, im], [-im, re]] of heads
    rows, height = heads.shape
    left = np.empty((2 * rows, 2 * height))
    left[:rows, :height] = left[rows:, height:] = heads.real
    left[:rows, height:] = heads.imag
    np.negative(heads.imag, out=left[rows:, :height])
    block = left.T @ np.concatenate([tails.real, tails.imag])
    return {"cos": (block[:height].reshape(-1)[:count], extra.real),
            "sin": (block[height:].reshape(-1)[:count], extra.imag)}


def _wave_part(wave, parts: dict, out: np.ndarray) -> None:
    """amplitude * a wave's fn sums from its group's closed form (_line_wave_sums),
    at the candidates and then at extra, written into out."""
    sums, extra = parts[wave[2]]
    np.multiply(wave[3], sums, out=out[: len(sums)])
    np.multiply(wave[3], extra, out=out[len(sums) :])


def _leaf_values(leaf: Potential, path, pts: np.ndarray, trig: dict, out) -> np.ndarray:
    """A leaf's values at pts: amplitude * its trig array in trig (_trig_values)
    for a wave, made into out, else its evaluator's."""
    if leaf.wave:
        return np.multiply(leaf.wave[3], trig[leaf.wave[:3]], out=out)
    return leaf.values(path, pts)


def _pick_order(weights: np.ndarray) -> np.ndarray:
    """Candidate indices by decreasing weight, ties by index: np.argsort(-weights,
    kind="stable").  Without ties the order is unique, so the default sort gives
    it; the stable sort runs only when two sorted keys are not strictly apart.
    The sheared profile packer and _separated_sets_2d order their picks with it;
    linear-exact packing orders only its undecided rest, inside _greedy_kernel."""
    keys = -weights
    order = np.argsort(keys)
    ranked = keys[order]
    if np.all(ranked[1:] > ranked[:-1]):
        return order
    return np.argsort(keys, kind="stable")


def _profile_windows(arcs: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate index windows of <= epsilon dynamical distance."""
    n, m = arcs.shape
    lo = np.zeros(m, dtype=np.int64)
    hi = np.full(m, m - 1, dtype=np.int64)
    for j in range(n):
        row = arcs[j]
        lo = np.maximum(lo, np.searchsorted(row, row - epsilon, side="left"))
        hi = np.minimum(hi, np.searchsorted(row, row + epsilon, side="right") - 1)
    return lo, hi


def _count_logs(pack_count: int, cover_count: int, sums, n: int) -> list[tuple[float, float]]:
    """(log pack count + S_n phi, log cover count + S_n phi) per prefix table in sums
    (_symbol_prefix): the bracket of an x-independent potential, whose weights
    are all e^{S_n phi}."""
    lp, lc = math.log(pack_count), math.log(cover_count)
    return [(lp + float(s[n]), lc + float(s[n])) for s in sums]


def _lattice_cells(length: float, peak, sums, cells) -> list:
    """The analytic lattice of a linear-exact 1-d disk of the given length at each
    (n, epsilon) of cells: (spacing, pack count, _count_logs over sums).

    peak[n - 1] is the largest leaf growth over steps 0..n-1 (a running max),
    so picks epsilon/peak apart are (n, epsilon)-separated, and a cover by (n,
    epsilon/2)-balls takes ceil(length * peak / epsilon) centres.
    """
    out = []
    for n, epsilon in cells:
        gstar = float(peak[n - 1])
        spacing = epsilon * (1.0 + 1e-9) / gstar
        pack_count = math.floor(length / spacing) + 1
        cover_count = max(1, math.ceil(length * gstar / epsilon))
        out.append((spacing, pack_count, _count_logs(pack_count, cover_count, sums, n)))
    return out


def maximal_separated_sets(
    cocycle: Cocycle,
    disk: UnstableDisk,
    potentials,
    n: int,
    epsilon: float,
    max_candidates: int = _MAX_CANDIDATES,
    growth: np.ndarray | None = None,
) -> list[SeparatedSetResult]:
    """Greedy weighted packing of the disk at dynamical scale (n, epsilon), per potential.

    Candidates on a grid of dynamical step epsilon/GRID_FACTOR are selected
    in decreasing exp(S_n phi) order subject to pairwise separation > eps;
    for x-independent potentials the selection collapses to the analytic
    left-to-right lattice (identical outcome, no enumeration; on a
    linear-exact disk, _lattice_cells at this (n, epsilon), which reads only
    the max of growth[:n], so growth may be a running max; its points are
    made only when an x-independent potential is given).  The upper
    bound comes from an (n, epsilon/2) spanning set plus the orbit-sum
    modulus n * lipschitz * epsilon / 2.  The potentials share the candidate
    grid, the chart and one pass of orbit sums over the candidates, whose sums
    at the cover points (candidates themselves, but for a clipped last cover
    point, which joins the pass) give the upper bound, for a cover of any size.
    On a linear-exact 1-d disk the candidates are a _LineGrid: the waves' sums
    come from the closed form on the true orbit, with no map call, and only
    the other x-dependent leaves are summed along one streamed walk
    (rds._walk).  On a polyline chart every leaf is summed along that walk; a
    cover of two or more points gets the bits of a separate cover walk, and a
    one-point cover's sums can differ from a one-row walk's in their last bits
    where a product rounds (a map such as A^2, or a wave's k.x).  The pass
    keeps one running sum per leaf, from one plan of its steps and signs, and
    weights them once per potential (_orbit_sums), so each potential's sums,
    and so its packing, have the bits of packing it alone.  Rows of orbit sums
    with equal bits share one selection.
    """
    return _separated_sets(cocycle, disk, potentials, n, epsilon, max_candidates, growth, None)


def _separated_sets(cocycle, disk, potentials, n, epsilon, max_candidates, growth, orbit):
    """maximal_separated_sets, given a linear-exact 1-d disk's _line_orbit through at
    least n steps for its waves (or None)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    potentials = list(potentials)
    path = disk.base.path
    if disk.leaf_dim == 2:
        return _separated_sets_2d(cocycle, disk, potentials, n, epsilon, max_candidates)

    length = 2.0 * disk.radius
    varying = [k for k, p in enumerate(potentials) if not p.x_independent]
    fixed = [k for k, p in enumerate(potentials) if p.x_independent]
    sums = [_symbol_prefix(cocycle, potentials[k], path, n) for k in fixed]

    if disk.construction == "linear-exact":
        if growth is None or len(growth) < n:
            growth = leaf_growth_factors_batch(cocycle, [disk], n)[0]
        peak = np.maximum.accumulate(growth[:n])
        gstar = float(peak[-1])
        ((spacing, pack_count, logs),) = _lattice_cells(length, peak, sums, [(n, epsilon)])
        pack_pts = None  # read by the x-independent results only
        if fixed and pack_count <= _MAX_MATERIALIZED:
            pack_pts = -disk.radius + spacing * np.arange(pack_count)
        if varying:
            h = epsilon / (GRID_FACTOR * gstar)
            n_cand = math.floor(length / h) + 1
            if n_cand > max_candidates:
                raise EstimatorError(
                    f"separated-set grid needs {n_cand} candidates; raise epsilon or lower n"
                )
            params = -disk.radius + h * np.arange(n_cand)

            def select(w):
                return _greedy_kernel(w, GRID_FACTOR)

            cover_step = epsilon / gstar
            n_cover = max(1, math.ceil(length / cover_step))
            cover_params = -disk.radius + cover_step * (np.arange(n_cover) + 0.5)
            cover_params = np.clip(cover_params, -disk.radius, disk.radius)
            # GRID_FACTOR is a power of two, so h is cover_step / GRID_FACTOR exactly
            # and cover point j is candidate GRID_FACTOR * j + GRID_FACTOR // 2; a
            # cover point where that does not hold (the clipped last one) is
            # appended to the candidates' walk
            cover_idx = GRID_FACTOR * np.arange(n_cover) + GRID_FACTOR // 2
            on_grid = cover_idx < n_cand
            on_grid[on_grid] = params[cover_idx[on_grid]] == cover_params[on_grid]
            line = _LineGrid(disk, params, h, cover_params[~on_grid], orbit)
            cover_idx[~on_grid] = n_cand + np.arange(len(line.extra))
    else:
        params = disk.params
        m = len(params)
        arcs = bowen_step_arcs(cocycle, disk, n, params)
        if np.max(np.diff(arcs, axis=1)) > epsilon / (2.0 * GRID_FACTOR):
            raise EstimatorError("grid too coarse for requested epsilon; refine the disk")
        lo, hi = _profile_windows(arcs, epsilon)
        pack = _index_order_picks(hi)  # the left-to-right lattice
        # cover by (n, eps/2)-balls: the first uncovered index's farthest
        # neighbour within eps/2 is the centre, which reaches eps/2 past itself
        half_hi = _profile_windows(arcs, epsilon / 2.0)[1]
        cover_idx = half_hi[_index_order_picks(half_hi[half_hi])]
        pack_count, pack_pts = len(pack), params[pack]
        logs = _count_logs(pack_count, len(cover_idx), sums, n)

        def select(w):
            return _greedy_windows(_pick_order(w), lo, hi, m)

        line = None  # every cover point is a candidate

    results: list[SeparatedSetResult | None] = [None] * len(potentials)
    for k, (lower, upper) in zip(fixed, logs):
        results[k] = SeparatedSetResult(
            points=pack_pts,
            count=float(pack_count),
            n=n,
            epsilon=epsilon,
            log_weighted_sum=lower,
            log_upper=upper,
            method="grid-exhaustive",
            potential_label=potentials[k].label,
        )
    if varying:
        walked = [potentials[k] for k in varying]
        # one pass: the cover's orbit sums are read off the candidates' (and extra's)
        pts = disk.chart(params) if line is None else None
        sums = _orbit_sums(cocycle, path, walked, pts, n, line)
        # rows with equal bits share picks and sums; a strided sample of bits groups them
        bits = sums.view(np.int64)
        shared = {}  # sample -> [(row, (picks, log sum, cover log sum))]
        for i, (k, p) in enumerate(zip(varying, walked)):
            same = shared.setdefault(bits[i, ::257].tobytes(), [])
            got = next((got for j, got in same if np.array_equal(bits[j], bits[i])), None)
            if got is None:
                w = sums[i, : len(params)]
                selected = select(w)
                got = selected, _logsumexp(w[selected]), _logsumexp(sums[i, cover_idx])
                same.append((i, got))
            selected, log_sum, log_cover = got
            results[k] = SeparatedSetResult(
                points=params[selected],
                count=float(len(selected)),
                n=n,
                epsilon=epsilon,
                log_weighted_sum=log_sum,
                log_upper=log_cover + n * p.lipschitz * epsilon / 2.0,
                method="grid-exhaustive",
                potential_label=p.label,
            )
    return results


def _separated_sets_2d(cocycle, disk, potentials, n, epsilon, max_candidates):
    """Sampled greedy packing for 2-d leaves (no exhaustive guarantee), per potential."""
    path = disk.base.path
    # derivative images of the frame along the orbit, for pair distances
    mats = _tangent_images(cocycle, [path], disk.base_lift[None], disk.frame[None], n - 1)[0]
    smax = max(float(np.linalg.norm(m, 2)) for m in mats)
    side = max(2, int(min(200, math.sqrt(max_candidates))))
    tt = _product_grid(np.linspace(-disk.radius, disk.radius, side), 2)
    cover_step = epsilon / (math.sqrt(2.0) * smax)
    n_cover = max(1, math.ceil(2.0 * disk.radius / cover_step))
    results = []
    for p, weights in zip(potentials, _orbit_sums(cocycle, path, potentials, disk.chart(tt), n)):
        chosen: list[int] = []
        chosen_t: list[np.ndarray] = []
        for idx in _pick_order(weights):
            t = tt[idx]
            ok = True
            for s in chosen_t:
                diff = t - s
                dist = max(float(np.linalg.norm(m @ diff)) for m in mats)
                if dist <= epsilon:
                    ok = False
                    break
            if ok:
                chosen.append(int(idx))
                chosen_t.append(t)
        log_lower = _logsumexp(weights[chosen])
        log_upper = (
            math.log(n_cover**2)
            + float(np.max(weights))
            + n * p.lipschitz * epsilon / 2.0
        )
        results.append(SeparatedSetResult(
            points=tt[chosen],
            count=float(len(chosen)),
            n=n,
            epsilon=epsilon,
            log_weighted_sum=log_lower,
            log_upper=max(log_upper, log_lower),
            method="greedy-max",
            potential_label=p.label,
        ))
    return results


# ---------------------------------------------------------------------------
# Pressure pipeline
# ---------------------------------------------------------------------------


class GridSpec(_Validated, namedtuple("GridSpec", "delta n_grid eps_grid base_grid omega_samples")):
    """Shared estimator grids: leaf radius, time grid, scales, base points."""

    __slots__ = ()

    def __new__(
        cls,
        delta: float = 0.1,
        n_grid: tuple[int, ...] = (8, 9, 10, 11, 12, 13, 14),
        eps_grid: tuple[float, ...] = (0.02, 0.04),
        base_grid: int = 5,
        omega_samples: int = 1,
    ):
        if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if n_grid[0] < 1:
            raise ValueError("n_grid entries must be >= 1")
        if not eps_grid or any(b <= a for a, b in zip(eps_grid, eps_grid[1:])):
            raise ValueError("eps_grid must be strictly increasing")
        if not all(math.isfinite(e) and e > 0 for e in eps_grid):
            raise ValueError("eps_grid entries must be finite and positive")
        if base_grid < 1 or omega_samples < 1:
            raise ValueError("base_grid and omega_samples must be >= 1")
        return super().__new__(cls, delta, n_grid, eps_grid, base_grid, omega_samples)


class CellRecord(NamedTuple):
    omega_seed: int
    x_index: int
    delta: float
    n: int
    epsilon: float
    log_lower: float
    log_upper: float
    potential_id: str


def upper_half(n_grid) -> tuple[int, ...]:
    """The slope-fit window: the upper half of the time grid, or all of it when
    that half would hold fewer than two points."""
    if len(n_grid) < 2:
        raise ValueError("n_grid needs two or more entries for a slope fit")
    half = tuple(n_grid[len(n_grid) // 2 :])
    return half if len(half) >= 2 else tuple(n_grid)


def fit_slope(ns, ys) -> tuple[float, float, float]:
    """OLS slope of ys against ns: (slope, standard error, max residual)."""
    x = np.asarray(ns, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points for a slope")
    xm = x - x.mean()
    denom = float(xm @ xm)
    slope = float(xm @ y) / denom
    resid = y - (y.mean() + slope * xm)
    if len(x) > 2:
        se = math.sqrt(float(resid @ resid) / (len(x) - 2) / denom)
    else:
        se = 0.0
    return slope, se, float(np.max(np.abs(resid)))


class PressureEstimate(NamedTuple):
    """Fitted leafwise pressure with its bracket tables and spread diagnostics.

    value is the slope of log(weighted sum) against n over the upper half
    of the time grid at the smallest separation scale, sup'd over the base
    points and averaged over base samples.  tables holds (omega_seed, x_index,
    brackets) per path and base point with an unstable leaf, brackets being
    each (n, epsilon) cell's log lower and log upper in turn, n-major; a
    stand-in base point's brackets tuple is shared by its path's x_indices.
    """

    value: float
    slope_ci: float
    per_n_log: dict[int, float]
    eps_grid: tuple[float, ...]
    delta: float
    n_grid: tuple[int, ...]
    omega_samples: int
    spread: float
    residual: float
    omega_values: tuple[float, ...]
    tables: tuple[tuple[int, int, tuple[float, ...]], ...]
    potential_label: str
    bracket_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "slope_ci": self.slope_ci,
            "per_n_log": {str(k): v for k, v in sorted(self.per_n_log.items())},
            "eps_grid": list(self.eps_grid),
            "delta": self.delta,
            "n_grid": list(self.n_grid),
            "omega_samples": self.omega_samples,
            "spread": self.spread,
            "residual": self.residual,
            "potential": self.potential_label,
            "bracket_ok": self.bracket_ok,
        }

    @property
    def cells(self) -> tuple[CellRecord, ...]:
        """The cell table as CellRecords, one per row of csv_rows."""
        return tuple(CellRecord(*row) for row in self.csv_rows()[1])

    def csv_rows(self):
        """The cell table: one column per CellRecord field, in field order, and one
        row per table and (n, epsilon) cell."""
        grid = [(n, eps) for n in self.n_grid for eps in self.eps_grid]
        rows = [[seed, xi, self.delta, n, eps, lower, upper, self.potential_label]
                for seed, xi, brackets in self.tables
                for (n, eps), lower, upper in zip(grid, brackets[::2], brackets[1::2])]
        return list(CellRecord._fields), rows


def pressure_estimates(
    cocycle: Cocycle,
    system: DrivingSystem,
    potentials,
    grid: GridSpec,
    seed: int,
) -> list[PressureEstimate]:
    """Estimate the leafwise pressure of each potential on the given system.

    For each sampled base path and each base point: fill one bracket table,
    (log lower, log upper) per potential and (n, eps) cell, fit the growth
    slope at the smallest eps over the upper half of n_grid, take the
    largest slope over base points, then average over base samples.  The
    per-sample value spread at the largest n is recorded as a concentration
    diagnostic.  A bracket past float range raises EstimatorError.

    The potentials share the sample paths, the spectra, the disks, the leaf
    growth and, per cell, the packing's candidate grid and orbit walks
    (maximal_separated_sets), whose running sums per leaf give each
    potential the bits of its own walk, so each estimate equals the one made
    for its potential alone.  On a constant-Jacobian cocycle every base point of
    a path shares one frame and one leaf growth, so an x-independent
    potential's cell depends only on the path, the growth, n and eps.  On a
    linear-exact 1-d disk those rows of the table are reads (_lattice_cells):
    one running max of the leaf growth and one prefix table of S_n phi per
    x-independent potential (_symbol_prefix), made once per path, give
    every cell at every base point, and only the x-dependent members are
    packed.  When no member depends on x, the first base point stands for
    all: it is the only one estimated, and its table is recorded under each
    x_index.
    """
    potentials = list(potentials)
    uh = upper_half(grid.n_grid)
    sel = [grid.n_grid.index(n) for n in uh]
    n_max = grid.n_grid[-1]
    half_window = max(n_max, PRESSURE_FRAME_STEPS) + 2
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x9E55])
    path_seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(grid.omega_samples)]
    centres = (np.arange(grid.base_grid) + 0.5) / grid.base_grid
    base_pts = [TorusPoint(tuple(row)) for row in _product_grid(centres, cocycle.dim)]
    count = len(potentials)
    cell_grid = [(n, eps) for n in grid.n_grid for eps in grid.eps_grid]
    varying = [k for k, p in enumerate(potentials) if not p.x_independent]
    fixed = [k for k, p in enumerate(potentials) if p.x_independent]
    waves = any(leaf.wave or leaf.coboundary and leaf.coboundary[1].wave
                for k in varying for leaf in _leaves(potentials[k]))
    # a constant-Jacobian path gives every base point one spectrum, one frame
    # and one leaf growth
    shared_frame = cocycle.has_constant_jacobian
    # ...so a family with no x-dependent member has the same cells at every
    # base point, and the first stands for all
    stand_in = shared_frame and not varying

    tables: list[list[tuple]] = [[] for _ in potentials]
    omega_best: list[list[tuple]] = [[] for _ in potentials]
    bracket_ok = np.ones(count, dtype=bool)

    paths = [sample_path(system, half_window, pseed) for pseed in path_seeds]
    xs = base_pts[:1] if shared_frame else base_pts
    spectra = lyapunov_spectra(
        cocycle, [p for p in paths for _ in xs], xs * len(paths), PRESSURE_FRAME_STEPS,
        frame_steps=PRESSURE_FRAME_STEPS, frame_seeds=[s for s in path_seeds for _ in xs],
    )
    k = len(xs)

    for i, (pseed, path) in enumerate(zip(path_seeds, paths)):
        path_reports = spectra[i * k : (i + 1) * k] * (len(base_pts) // k)
        best = [None] * count  # per potential: (slope, se, resid, logs_at_emin, nmax_log)
        # a linear-exact leaf's growth depends on its path and frame only, and
        # so do the x-independent members' rows on a 1-d one
        peak = lattice = None  # a 2-d leaf packs every member and reads no growth
        for xi, (x, report) in enumerate(zip(base_pts[:1] if stand_in else base_pts,
                                             path_reports)):
            if report.unstable_index == 0:
                # trivial leaf: the only separated set is the point itself,
                # so every cell contributes log 1 = 0
                zeros = [0.0] * len(grid.n_grid)
                for j in range(count):
                    if best[j] is None or 0.0 > best[j][0]:
                        best[j] = (0.0, 0.0, 0.0, zeros, 0.0)
                continue
            disk = unstable_disk(cocycle, SkewState(path=path, point=x), grid.delta, report)
            if lattice is None and disk.construction == "linear-exact" and disk.leaf_dim == 1:
                peak = np.maximum.accumulate(leaf_growth_factors_batch(cocycle, [disk], n_max)[0])
                sums = [_symbol_prefix(cocycle, potentials[j], path, n_max) for j in fixed]
                cells = [logs for _, _, logs in _lattice_cells(2.0 * grid.delta, peak, sums,
                                                               cell_grid)]
                lattice = np.array(cells).reshape(len(cells), len(fixed), 2).swapaxes(0, 1)
            packed = varying if lattice is not None else list(range(count))
            brackets = np.empty((count, len(cell_grid), 2))  # (log lower, log upper)
            if lattice is not None:
                brackets[fixed] = lattice
            # a linear-exact 1-d disk's cells read one exact orbit for their waves
            orbit = _line_orbit(cocycle, path, disk, n_max) if lattice is not None and waves else None
            for c, (n, eps) in enumerate(cell_grid if packed else ()):
                results = _separated_sets(cocycle, disk, [potentials[j] for j in packed], n,
                                          eps, _MAX_CANDIDATES, peak, orbit)
                brackets[packed, c] = [(r.log_weighted_sum, r.log_upper) for r in results]
            bad = np.argwhere(~np.isfinite(brackets))
            if len(bad):
                j, c, _ = bad[0]
                raise EstimatorError(f"the cell bracket of {potentials[j].label} at "
                                     f"n = {cell_grid[c][0]} is past float range")
            bracket_ok &= ~np.any(brackets[..., 0] > brackets[..., 1] + 1e-9, axis=1)
            at = range(len(base_pts)) if stand_in else (xi,)  # the x_indices it stands for
            for table, row in zip(tables, brackets.reshape(count, 2 * len(cell_grid)).tolist()):
                row = tuple(row)
                table.extend((pseed, xj, row) for xj in at)
            # the smallest eps is each n's first cell
            for j, logs in enumerate(brackets[:, :: len(grid.eps_grid), 0].tolist()):
                slope, se, resid = fit_slope(uh, [logs[m] for m in sel])
                if best[j] is None or slope > best[j][0]:
                    best[j] = (slope, se, resid, logs, logs[-1] / grid.n_grid[-1])
        for j in range(count):
            omega_best[j].append(best[j])

    return [
        _summarize(grid, p.label, omega_best[j], tables[j], bool(bracket_ok[j]))
        for j, p in enumerate(potentials)
    ]


def _summarize(grid: GridSpec, label: str, omega_best, tables, bracket_ok) -> PressureEstimate:
    """A potential's estimate from its best base point per path:
    (slope, fit se, residual, logs at the smallest eps, per-step log at n max)."""
    omega_slopes = [b[0] for b in omega_best]
    value = float(np.mean(omega_slopes))
    s = grid.omega_samples
    sem = float(np.std(omega_slopes, ddof=1) / math.sqrt(s)) if s > 1 else 0.0
    slope_ci = 2.0 * sem + 2.0 * float(np.mean([b[1] for b in omega_best])) + CI_FLOOR
    omega_nmax_vals = [b[4] for b in omega_best]
    mean_nmax = float(np.mean(omega_nmax_vals))
    spread = (
        float(np.std(omega_nmax_vals, ddof=1)) / abs(mean_nmax)
        if s > 1 and mean_nmax != 0.0
        else 0.0
    )
    return PressureEstimate(
        value=value,
        slope_ci=slope_ci,
        per_n_log={
            n: float(np.mean([b[3][i] for b in omega_best])) for i, n in enumerate(grid.n_grid)
        },
        eps_grid=grid.eps_grid,
        delta=grid.delta,
        n_grid=grid.n_grid,
        omega_samples=grid.omega_samples,
        spread=spread,
        residual=float(np.max([b[2] for b in omega_best])),
        omega_values=tuple(omega_slopes),
        tables=tuple(tables),
        potential_label=label,
        bracket_ok=bracket_ok,
    )


def topological_entropy(
    cocycle: Cocycle, system: DrivingSystem, grid: GridSpec, seed: int
) -> PressureEstimate:
    """Leafwise growth rate of packing counts: pressure at the zero potential."""
    return pressure_estimates(cocycle, system, [zero_potential()], grid, seed)[0]


# ---------------------------------------------------------------------------
# Pressure property suite
# ---------------------------------------------------------------------------


class PropertyCheck(NamedTuple):
    name: str
    passed: bool
    slack: float
    detail: str


class PropertySuiteReport(NamedTuple):
    checks: tuple[PropertyCheck, ...]
    estimates: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "all_passed": bool(self.all_passed),
            "checks": [
                {"name": c.name, "passed": bool(c.passed), "slack": float(c.slack),
                 "detail": c.detail}
                for c in self.checks
            ],
            "estimates": {k: v.to_json_dict() for k, v in self.estimates.items()},
        }


def _fiber_extrema(potential: Potential, system: DrivingSystem, dim: int = 2, grid: int = 96):
    """Base-averaged fiber min and max of the potential."""
    lo = hi = 0.0
    for p, vals in _fiber_values(potential, system, dim, grid):
        lo += p * float(np.min(vals))
        hi += p * float(np.max(vals))
    return lo, hi


def pressure_property_suite(
    cocycle: Cocycle,
    system: DrivingSystem,
    potentials: list[Potential],
    grid: GridSpec,
    seed: int,
    sigma: Potential | None = None,
) -> PropertySuiteReport:
    """Check the structural laws of the pressure functional at estimator level.

    Exactness claims (constant shift, monotone orderings) use shared
    separated sets; inequality claims carry a 2x combined-confidence slack.
    """
    if len(potentials) < 2:
        raise ValueError("need at least two potentials")
    if sigma is None:
        sigma = coordinate_potential(0.3, [1] + [0] * (cocycle.dim - 1), label="sigma")

    # the whole family, in the order the checks below first use each label
    zero = zero_potential()
    c = 0.3
    base = potentials[0]
    shifted = combine_potentials([(1.0, base), (1.0, constant_potential(c))],
                                 label=f"{base.label}+{c:g}")
    # convexity along a five-point segment; prefer an x-dependent pair
    # so the check does not collapse to the exact constant case.
    nonconst = [p for p in potentials if not p.x_independent]
    if len(nonconst) >= 2:
        pa, pb = nonconst[0], nonconst[1]
    else:
        pa, pb = potentials[0], potentials[1]
    segment = [
        (t, combine_potentials(
            [(t, pa), (1.0 - t, pb)], label=f"seg:{t:g}*{pa.label}+{1 - t:g}*{pb.label}"
        ))
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    cob = combine_potentials(
        [(1.0, base), (1.0, theta_coboundary(cocycle, sigma))],
        label=f"{base.label}+cobdry",
    )
    both = combine_potentials([(1.0, pa), (1.0, pb)], label=f"{pa.label}+{pb.label}")
    family: dict[str, Potential] = {}
    for p in [zero, *potentials, shifted, *(combo for _, combo in segment), cob, both]:
        family.setdefault(p.label, p)
    est = dict(zip(family, pressure_estimates(cocycle, system, list(family.values()), grid, seed)))

    def estimate(p: Potential) -> PressureEstimate:
        return est[p.label]

    h_top = estimate(zero)

    checks: list[PropertyCheck] = []

    # (i) monotonicity: phi <= psi pointwise forces P(phi) <= P(psi).
    mono_slack = math.inf
    pairs = 0
    fibers = [[v for _, v in _fiber_values(p, system, cocycle.dim, 48)] for p in potentials]
    for a, fa in zip(potentials, fibers):
        for b, fb in zip(potentials, fibers):
            if a.label == b.label:
                continue
            if all(not np.any(x > y + 1e-12) for x, y in zip(fa, fb)):
                pairs += 1
                mono_slack = min(
                    mono_slack,
                    estimate(b).value
                    - estimate(a).value
                    + estimate(a).slope_ci
                    + estimate(b).slope_ci,
                )
    if pairs == 0:
        checks.append(PropertyCheck("monotonicity", True, math.inf, "no ordered pair in family"))
    else:
        checks.append(
            PropertyCheck(
                "monotonicity",
                mono_slack >= 0.0,
                mono_slack if math.isfinite(mono_slack) else 0.0,
                f"{pairs} ordered pairs",
            )
        )

    # (ii) constant shift exactness on shared sets.
    diff = estimate(shifted).value - estimate(base).value - c
    checks.append(
        PropertyCheck("constant-shift", abs(diff) <= 1e-9, -abs(diff), f"|diff|={abs(diff):.2e}")
    )

    # (iii) entropy bounds through fiber extrema.
    slack3 = math.inf
    for p in potentials:
        lo, hi = _fiber_extrema(p, system, dim=cocycle.dim)
        tol = 2.0 * (estimate(p).slope_ci + h_top.slope_ci)
        slack3 = min(slack3, estimate(p).value - (h_top.value + lo) + tol)
        slack3 = min(slack3, (h_top.value + hi) - estimate(p).value + tol)
    checks.append(PropertyCheck("entropy-bounds", slack3 >= 0.0, slack3, "all family members"))

    # (iv) Lipschitz bound in the averaged fiber sup norm.
    slack4 = math.inf
    for i, a in enumerate(potentials):
        for b in potentials[i + 1 :]:
            norm = potential_norm(
                combine_potentials([(1.0, a), (-1.0, b)], label="diff"),
                system,
                dim=cocycle.dim,
            )
            tol = 2.0 * (estimate(a).slope_ci + estimate(b).slope_ci)
            slack4 = min(
                slack4, norm + tol - abs(estimate(a).value - estimate(b).value)
            )
    checks.append(PropertyCheck("lipschitz", slack4 >= 0.0, slack4, "all pairs"))

    # (v) convexity along the five-point segment.
    slack5 = math.inf
    for t, combo in segment:
        tol = 2.0 * (
            t * estimate(pa).slope_ci + (1.0 - t) * estimate(pb).slope_ci
            + estimate(combo).slope_ci
        )
        slack5 = min(
            slack5,
            t * estimate(pa).value + (1.0 - t) * estimate(pb).value
            - estimate(combo).value + tol,
        )
    checks.append(PropertyCheck("convexity", slack5 >= 0.0, slack5, "5-point segment"))

    # (vi) coboundary invariance.
    tol6 = 2.0 * (estimate(base).slope_ci + estimate(cob).slope_ci)
    diff6 = abs(estimate(cob).value - estimate(base).value)
    checks.append(
        PropertyCheck("coboundary-invariance", diff6 <= tol6, tol6 - diff6, f"diff={diff6:.3g}")
    )

    # (vii) subadditivity.
    tol7 = 2.0 * (estimate(pa).slope_ci + estimate(pb).slope_ci + estimate(both).slope_ci)
    slack7 = estimate(pa).value + estimate(pb).value + tol7 - estimate(both).value
    checks.append(PropertyCheck("subadditivity", slack7 >= 0.0, slack7, ""))

    return PropertySuiteReport(checks=tuple(checks), estimates=est)
