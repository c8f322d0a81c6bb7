"""Random toral dynamics: driving symbol processes, fiber maps, skew product.

The base is a seeded finite-symbol process (iid, Markov, or a one-symbol
trivial process embedding a deterministic map).  Fiber maps act on the
d-torus (d = 2 or 3) as a unimodular integer matrix, optionally composed
with volume-preserving trigonometric shears and a translation, so that
derivatives, inverses, and smoothness bounds are exact closed forms.
Orbits and their Jacobians are walked by one batched engine (_walk, _orbit,
_jacobians), which every layer uses; no other module calls a map.  Jacobians
come in one form, (table, index): a constant-Jacobian cocycle's per-symbol
table read by symbol, or any other cocycle's stack read in walk order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

__all__ = [
    "WindowExhausted",
    "InvalidSystem",
    "EstimatorError",
    "DrivingSystem",
    "SymbolPath",
    "TorusPoint",
    "ShearTerm",
    "MapDescriptor",
    "Cocycle",
    "SkewState",
    "sample_path",
    "compose",
    "derivative",
    "torus_distance",
    "reduce_mod1",
    "load_system",
    "parse_system_text",
]

_PROB_TOL = 1e-12
_STATIONARY_TOL = 1e-10


class WindowExhausted(LookupError):
    """A symbol outside the sampled window was requested."""


class InvalidSystem(ValueError):
    """A driving system or map descriptor violates its construction rules."""


class EstimatorError(RuntimeError):
    """A numerical estimator could not produce a usable result."""


class _Validated:
    """Base of a namedtuple type whose __new__ checks its fields: _make, and so
    _replace, build through that __new__ too (namedtuple's own skip it)."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Driving system and symbol paths
# ---------------------------------------------------------------------------


class DrivingSystem(_Validated, namedtuple("DrivingSystem",
                                           "kind symbol_count distribution transition seed")):
    """Ergodic base process over a finite symbol alphabet.

    kind is one of "iid", "markov", "deterministic-trivial".  For iid the
    distribution is the symbol law; for markov it is the stationary vector
    of the supplied transition matrix.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        symbol_count: int,
        distribution: tuple[float, ...],
        transition: tuple[tuple[float, ...], ...] | None = None,
        seed: int = 0,
    ):
        if kind not in ("iid", "markov", "deterministic-trivial"):
            raise InvalidSystem(f"unknown base kind {kind!r}")
        if symbol_count < 1:
            raise InvalidSystem("symbol_count must be positive")
        dist = np.asarray(distribution, dtype=float)
        if dist.shape != (symbol_count,):
            raise InvalidSystem("distribution length must equal symbol_count")
        if np.any(dist < -_PROB_TOL):
            raise InvalidSystem("distribution entries must be nonnegative")
        if abs(dist.sum() - 1.0) > _PROB_TOL:
            raise InvalidSystem("distribution must sum to 1")
        if kind == "deterministic-trivial" and symbol_count != 1:
            raise InvalidSystem("deterministic-trivial base needs symbol_count = 1")
        if kind == "markov":
            if transition is None:
                raise InvalidSystem("markov base needs a transition matrix")
            q = np.asarray(transition, dtype=float)
            if q.shape != (symbol_count, symbol_count):
                raise InvalidSystem("transition matrix has wrong shape")
            if np.any(q < -_PROB_TOL):
                raise InvalidSystem("transition entries must be nonnegative")
            if np.any(np.abs(q.sum(axis=1) - 1.0) > _PROB_TOL):
                raise InvalidSystem("transition rows must sum to 1")
            if np.max(np.abs(dist @ q - dist)) > _STATIONARY_TOL:
                raise InvalidSystem("supplied vector is not stationary for the transition")
        elif transition is not None:
            raise InvalidSystem("transition matrix only makes sense for a markov base")
        return super().__new__(cls, kind, symbol_count, distribution, transition, seed)

    @property
    def distribution_array(self) -> np.ndarray:
        return np.asarray(self.distribution, dtype=float)


class SymbolPath(_Validated, namedtuple("SymbolPath", "symbols half_window origin_offset")):
    """A sampled two-sided symbol window with a movable time origin.

    Symbols are fixed at sampling time for absolute times in
    [-half_window, half_window]; the shift only moves origin_offset.
    Accessing a symbol beyond the window raises WindowExhausted.
    """

    __slots__ = ()

    def __new__(cls, symbols: tuple[int, ...], half_window: int, origin_offset: int = 0):
        if len(symbols) != 2 * half_window + 1:
            raise InvalidSystem("symbol window length must be 2*half_window + 1")
        return super().__new__(cls, symbols, half_window, origin_offset)

    def symbol(self, j: int) -> int:
        """Symbol at relative time j (absolute time origin_offset + j)."""
        t = self.origin_offset + j
        if abs(t) > self.half_window:
            raise WindowExhausted(
                f"time {t} outside sampled window [-{self.half_window}, {self.half_window}]"
            )
        return self.symbols[t + self.half_window]

    def shifted(self, k: int) -> "SymbolPath":
        """The path seen from time origin moved by k steps (the base shift)."""
        return SymbolPath(self.symbols, self.half_window, self.origin_offset + k)

    @property
    def backward_reach(self) -> int:
        """Steps of history available from the current origin."""
        return self.half_window + self.origin_offset

    @property
    def forward_reach(self) -> int:
        return self.half_window - self.origin_offset


def sample_path(system: DrivingSystem, half_window: int, seed: int) -> SymbolPath:
    """Draw a window of 2*half_window + 1 symbols from the driving law."""
    if half_window < 1:
        raise InvalidSystem("half_window must be >= 1")
    size = 2 * half_window + 1
    if system.kind == "deterministic-trivial":
        return SymbolPath(symbols=(0,) * size, half_window=half_window)
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x5EED])
    dist = system.distribution_array
    if system.kind == "iid":
        draws = rng.choice(system.symbol_count, size=size, p=dist)
        return SymbolPath(symbols=tuple(draws.tolist()), half_window=half_window)
    # markov: start at stationary law at the left edge, then run the chain
    q = np.asarray(system.transition, dtype=float)
    out = np.empty(size, dtype=np.int64)
    out[0] = rng.choice(system.symbol_count, p=dist)
    for i in range(1, size):
        out[i] = rng.choice(system.symbol_count, p=q[out[i - 1]])
    return SymbolPath(symbols=tuple(out.tolist()), half_window=half_window)


# ---------------------------------------------------------------------------
# Torus geometry
# ---------------------------------------------------------------------------


def reduce_mod1(values: np.ndarray) -> np.ndarray:
    """Reduce coordinates into [0, 1), sending 1.0 - eps rounding to 0.0.

    values - floor(values), reduced in one new float array (of values' dtype
    when that is floating); the input is not changed.
    """
    return _mod1(np.array(values, dtype=np.result_type(values, 0.0)))


def _mod1(out: np.ndarray) -> np.ndarray:
    """reduce_mod1 of a fresh float array out, made in place in it."""
    out -= np.floor(out)
    out[out >= 1.0] = 0.0
    return out


def _add_shift(out: np.ndarray, shift) -> np.ndarray:
    """out + shift for a fresh (..., d) float array out, added in place one column
    at a time: the bits of the broadcast (zero entries included, so signed zeros
    go as they would) without its inner loop that runs once per row."""
    for k in range(out.shape[-1]):
        out[..., k] += shift[k]
    return out


class TorusPoint(_Validated, namedtuple("TorusPoint", "coords")):
    """A point on the d-torus with coordinates reduced into [0, 1)."""

    __slots__ = ()

    def __new__(cls, coords: tuple[float, ...]):
        reduced = tuple(float(c) for c in reduce_mod1(np.asarray(coords, dtype=float)))
        return super().__new__(cls, reduced)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def torus_distance(x: TorusPoint | np.ndarray, y: TorusPoint | np.ndarray) -> float:
    """Max-over-coordinates circle distance on the torus."""
    xa = x.as_array() if isinstance(x, TorusPoint) else np.asarray(x, dtype=float)
    ya = y.as_array() if isinstance(y, TorusPoint) else np.asarray(y, dtype=float)
    diff = np.abs(reduce_mod1(xa) - reduce_mod1(ya))
    return float(np.max(np.minimum(diff, 1.0 - diff)))


# ---------------------------------------------------------------------------
# Fiber maps
# ---------------------------------------------------------------------------


class ShearTerm:
    """Volume-preserving shear x -> x + a*sin(2*pi*k.x + phase)*v with k.v = 0.

    The displacement direction v is perpendicular to the integer wavevector
    k, so k.x is invariant under the shear and the inverse is the same
    formula with a negated amplitude (an exact diffeomorphism for any a).
    """

    def __init__(self, amplitude: float, wavevector: tuple[int, ...], phase: float = 0.0):
        k = np.asarray(wavevector, dtype=float)
        if k.ndim != 1 or k.shape[0] not in (2, 3):
            raise InvalidSystem("shear wavevector must have dimension 2 or 3")
        if not np.any(k):
            raise InvalidSystem("shear wavevector must be nonzero")
        if not np.allclose(k, np.round(k)):
            raise InvalidSystem("shear wavevector must be integer")
        # the constants every apply/jacobian call reads, built once
        if k.shape[0] == 2:
            v = np.array([-k[1], k[0]])
        else:
            e = np.zeros(3)
            e[int(np.argmin(np.abs(k)))] = 1.0
            v = np.cross(k, e)
        v = v / np.linalg.norm(v)
        self.amplitude = amplitude
        self.wavevector = wavevector
        self.phase = phase
        self._k = k
        self._direction = v
        self._outer = np.einsum("i,j->ij", v, k)
        self._eye = np.eye(k.shape[0])
        # apply's constants as 0-d arrays, which numpy takes faster than floats
        self._two_pi, self._phase = np.array(2.0 * math.pi), np.array(float(phase))
        self._amps = np.array(float(amplitude)), np.array(-float(amplitude))  # [inverse]

    @property
    def direction(self) -> np.ndarray:
        """Unit displacement direction perpendicular to the wavevector."""
        return self._direction

    def _phase_values(self, pts: np.ndarray) -> np.ndarray:
        arg = pts @ self._k
        arg *= self._two_pi
        arg += self._phase
        return arg

    def apply(self, pts: np.ndarray, inverse: bool = False) -> np.ndarray:
        """The displacement is made in place in one new array, then pts added onto it."""
        disp = np.sin(self._phase_values(pts))
        disp *= self._amps[inverse]
        out = disp[..., None] * self._direction
        out += pts
        return out

    def jacobian(self, pts: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Jacobian I + 2*pi*a*cos(...)*v k^T at each point (..., d, d)."""
        amp = -self.amplitude if inverse else self.amplitude
        c = 2.0 * math.pi * amp * np.cos(self._phase_values(pts))
        return self._eye + c[..., None, None] * self._outer

    @property
    def derivative_factor(self) -> float:
        """Upper bound factor for the first derivative norm of the shear."""
        return 1.0 + 2.0 * math.pi * abs(self.amplitude) * float(np.linalg.norm(self._k))

    @property
    def second_derivative_bound(self) -> float:
        return (2.0 * math.pi * float(np.linalg.norm(self._k))) ** 2 * abs(self.amplitude)


class _AutoBound:
    """Sentinel: a smoothness bound computed in closed form when read."""

    def __repr__(self):  # pragma: no cover
        return "AUTO"


AUTO = _AutoBound()


def _unimodular_inverse(matrix: np.ndarray) -> np.ndarray:
    det = round(float(np.linalg.det(matrix)))
    if det not in (-1, 1):
        raise InvalidSystem("matrix must be unimodular (|det| = 1)")
    inv = np.round(np.linalg.inv(matrix)).astype(np.int64)
    if not np.array_equal(matrix @ inv, np.eye(matrix.shape[0], dtype=np.int64)):
        raise InvalidSystem("integer inverse check failed")
    return inv


class MapDescriptor:
    """One fiber map f(x) = A.(S_m o ... o S_1)(x) + b  (mod 1).

    A is a unimodular integer matrix, the S_i are shear terms, and b is a
    translation.  c2_bound / c2_bound_inverse are bounds on the C^2 size of
    the map and its inverse; left at AUTO they read as a conservative closed
    form, computed when read, while an explicit None marks them missing.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        shears: tuple[ShearTerm, ...] = (),
        translation: tuple[float, ...] | None = None,
        c2_bound: float | None = AUTO,
        c2_bound_inverse: float | None = AUTO,
    ):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise InvalidSystem("matrix must be square of dimension 2 or 3")
        if not np.allclose(m, np.round(m)):
            raise InvalidSystem("matrix must be integer")
        m = np.round(m).astype(np.int64)
        inv = _unimodular_inverse(m)
        for s in shears:
            if len(s.wavevector) != m.shape[0]:
                raise InvalidSystem("shear dimension does not match matrix")
        if translation is None:
            translation = (0.0,) * m.shape[0]
        elif len(translation) != m.shape[0]:
            raise InvalidSystem("translation dimension does not match matrix")
        self.matrix = m
        self.shears = shears
        self.translation = translation
        self._c2_bound = c2_bound
        self._c2_bound_inverse = c2_bound_inverse
        self._inverse_matrix = inv
        # float forms of the matrices and translation, built once for apply/jacobian
        self._matrix_float = m.astype(float)
        self._matrix_t = m.T.astype(float)
        self._inverse_t = inv.T.astype(float)
        self._shift = np.asarray(translation)
        self._moves = bool(self._shift.any() or np.signbit(self._shift).any())  # not all +0.0

    @property
    def c2_bound(self) -> float | None:
        bound = self._c2_bound
        return self._default_c2(self.matrix) if bound is AUTO else bound

    @property
    def c2_bound_inverse(self) -> float | None:
        bound = self._c2_bound_inverse
        return self._default_c2(self._inverse_matrix) if bound is AUTO else bound

    def _default_c2(self, mat: np.ndarray) -> float:
        base = float(np.linalg.norm(mat.astype(float), 2))
        factor = 1.0
        curvature = 0.0
        for s in self.shears:
            factor *= s.derivative_factor
            curvature += s.second_derivative_bound
        return max(base * factor, base * curvature, 1.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    # apply and inverse_apply reduce their lifts mod 1 in place (_mod1) and skip a
    # translation of +0.0 in every coordinate, bitwise: x - 0.0 is x, and x + 0.0
    # differs from x only at -0.0, which the reduction sends to +0.0 either way
    def _unshifted(self, pts: np.ndarray) -> np.ndarray:
        """A.(S_m o ... o S_1)(x) at points pts, in a new array."""
        out = np.asarray(pts, dtype=float)
        for s in self.shears:
            out = s.apply(out)
        return out @ self._matrix_t

    def apply_lift(self, pts: np.ndarray) -> np.ndarray:
        """Apply the map to lifted points in R^d (no mod 1)."""
        return _add_shift(self._unshifted(pts), self._shift)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        out = self._unshifted(pts)
        return _mod1(_add_shift(out, self._shift) if self._moves else out)

    def _inverse_unshifted(self, shifted: np.ndarray) -> np.ndarray:
        """(S_1^-1 o ... o S_m^-1)(A^-1 y) at points y = shifted, in a new array."""
        # column by column, so a row rounds alike alone and stacked (a pulled-back
        # orbit is where every frame from the past is read)
        out = shifted[..., 0, None] * self._inverse_t[0]
        for k in range(1, self.dim):
            out += shifted[..., k, None] * self._inverse_t[k]
        for s in reversed(self.shears):
            out = s.apply(out, inverse=True)
        return out

    def inverse_apply_lift(self, pts: np.ndarray) -> np.ndarray:
        return self._inverse_unshifted(np.asarray(pts, dtype=float) - self._shift)

    def inverse_apply(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return _mod1(self._inverse_unshifted(pts - self._shift if self._moves else pts))

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        """Derivative at each point, shape (..., d, d); exact chain rule."""
        cur = np.asarray(pts, dtype=float)
        if not self.shears:
            shape = cur.shape[:-1] + (self.dim, self.dim)
            return np.broadcast_to(self._matrix_float, shape).copy()
        jac = self.shears[0].jacobian(cur)
        for prev, s in zip(self.shears, self.shears[1:]):
            cur = prev.apply(cur)
            jac = s.jacobian(cur) @ jac
        return self._matrix_float @ jac

    @property
    def lipschitz(self) -> float:
        """Bound on the one-step derivative norm."""
        base = float(np.linalg.norm(self.matrix.astype(float), 2))
        for s in self.shears:
            base *= s.derivative_factor
        return base


class Cocycle:
    """The family of per-symbol fiber maps driven by a symbol path."""

    def __init__(self, maps: tuple[MapDescriptor, ...]):
        if not maps:
            raise InvalidSystem("cocycle needs at least one map")
        dims = {m.dim for m in maps}
        if len(dims) != 1:
            raise InvalidSystem("all maps must share the fiber dimension")
        self.maps = maps

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    def map_for(self, symbol: int) -> MapDescriptor:
        if 0 <= symbol < len(self.maps):
            return self.maps[symbol]
        raise InvalidSystem(f"no map for symbol {symbol}")

    @property
    def has_constant_jacobian(self) -> bool:
        return all(not m.shears for m in self.maps)

    @property
    def lipschitz(self) -> float:
        return max(m.lipschitz for m in self.maps)


class SkewState(NamedTuple):
    """A point of the product space: symbol path plus torus point."""

    path: SymbolPath
    point: TorusPoint


# ---------------------------------------------------------------------------
# Orbit engine: every walk of the fiber maps, batched over samples
# ---------------------------------------------------------------------------


def _symbol_windows(paths, start: int, steps: int, inverse: bool = False) -> np.ndarray:
    """Symbols of each path in walk order, shape (S, steps).

    Forward walks read relative times start .. start+steps-1; inverse walks
    read start-1 down to start-steps.  Any time outside a path's sampled
    window raises WindowExhausted, as SymbolPath.symbol does.
    """
    out = np.empty((len(paths), steps), dtype=np.int64)
    rows: dict[tuple, np.ndarray] = {}  # equal paths read their window once
    for i, path in enumerate(paths):
        key = (id(path.symbols), path.origin_offset)
        if key in rows:
            out[i] = rows[key]
            continue
        hw = path.half_window
        lo = start + path.origin_offset - (steps if inverse else 0)  # earliest time read
        hi = lo + steps - 1
        if steps and (lo < -hw or hi > hw):
            first = hi if inverse else lo  # the first outside time, in walk order
            bad = first if abs(first) > hw else (-hw - 1 if inverse else hw + 1)
            raise WindowExhausted(f"time {bad} outside sampled window [-{hw}, {hw}]")
        window = path.symbols[lo + hw : hi + hw + 1]  # only the window's slice is converted
        out[i] = window[::-1] if inverse else window
        rows[key] = out[i]
    return out


def _map_step(cocycle: Cocycle, syms: np.ndarray, pts: np.ndarray, method: str) -> np.ndarray:
    """Call one MapDescriptor method on points pts (..., d) with the maps syms (...) name.

    This is the one caller of the MapDescriptor methods.  A single symbol
    (syms.size == 1) names the map of every point.
    """
    if syms.size == 1:
        return getattr(cocycle.map_for(int(syms.flat[0])), method)(pts)
    if len(cocycle.maps) == 1 or not syms.size:
        return getattr(cocycle.maps[0], method)(pts)
    out = None
    for s in np.unique(syms):
        rows = syms == s
        val = getattr(cocycle.maps[s], method)(pts[rows])
        if out is None:
            out = np.empty(syms.shape + val.shape[1:])
        out[rows] = val
    return out


def _one_map(cocycle: Cocycle, syms: np.ndarray) -> MapDescriptor | None:
    """The map of every symbol in syms when they name one map, else None.  Raises
    InvalidSystem, as Cocycle.map_for does, for a symbol of syms with no map."""
    if not syms.size:
        return None
    lo, hi = int(syms.min()), int(syms.max())
    first, _ = cocycle.map_for(lo), cocycle.map_for(hi)
    return first if lo == hi else None


def _walk(cocycle: Cocycle, syms: np.ndarray, pts: np.ndarray, method: str = "apply"):
    """Yield points pts (S, d), then each step's points along syms (S, steps).

    Step j moves the last points by the map of column j through the
    MapDescriptor method named (apply, apply_lift or inverse_apply), one
    stacked call per step; a one-row syms moves every point by its symbol.
    When syms name one map (_one_map), its method is looked up once per walk.
    The one loop that steps orbits: _orbit stores it, and a walk that only
    reads each step once streams it.
    """
    only = _one_map(cocycle, syms)
    step = None if only is None else getattr(only, method)
    yield pts
    for col in syms.T:
        pts = _map_step(cocycle, col, pts, method) if step is None else step(pts)
        yield pts


def _orbit(
    cocycle: Cocycle, syms: np.ndarray, pts: np.ndarray, method: str = "apply"
) -> np.ndarray:
    """The orbit (steps + 1, S, d) of points pts (S, d) along syms (S, steps), walked
    once by _walk: row 0 is pts and row j + 1 is row j moved by column j's map."""
    out = np.empty((syms.shape[1] + 1,) + pts.shape)
    for j, row in enumerate(_walk(cocycle, syms, pts, method)):
        out[j] = row
    return out


def _jacobians(
    cocycle: Cocycle, syms: np.ndarray, pts: np.ndarray, backward: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The one-step Jacobians along syms (S, steps) as (table, index): step j of sample
    i, in walk order, is table[index[j, i]].

    The one place that chooses how Jacobians are made.  A constant-Jacobian
    cocycle gives its per-symbol table (maps, d, d), row s the derivative of
    map s, with index = syms.T.  Otherwise the orbit through pts (S, d) is
    walked first (_orbit) and all of its Jacobians are made in one jacobian
    call per symbol, at the point each map acts on: row j of the forward
    orbit, or row j + 1 of the orbit pulled back by inverse_apply; the
    (steps, S, d, d) stack is given flattened, index counting it in walk
    order.  Raises InvalidSystem, as Cocycle.map_for does, for a symbol of
    syms with no map.
    """
    _one_map(cocycle, syms)
    if cocycle.has_constant_jacobian:
        origin = np.zeros(cocycle.dim)
        return np.stack([m.jacobian(origin) for m in cocycle.maps]), syms.T
    if backward:
        orbit = _orbit(cocycle, syms, pts, "inverse_apply")[1:]
    else:  # the last column's map is differentiated, not applied
        orbit = _orbit(cocycle, syms[:, :-1], pts)[: syms.shape[1]]
    stack = _map_step(cocycle, syms.T, orbit, "jacobian")
    return stack.reshape((-1,) + stack.shape[2:]), np.arange(syms.size).reshape(syms.T.shape)


def _tangent_images(
    cocycle: Cocycle, paths, pts: np.ndarray, vecs: np.ndarray, steps: int
) -> np.ndarray:
    """Images of tangent vectors vecs (S, d, k) under the j-step derivatives, j = 0..steps.

    Sample i starts at pts[i] on paths[i] and is pushed by the Jacobians of
    its forward orbit.  Returns an (S, steps + 1, d, k) array whose j = 0
    slice is vecs.
    """
    out = np.empty((len(vecs), steps + 1) + vecs.shape[1:])
    out[:, 0] = vecs
    table, index = _jacobians(cocycle, _symbol_windows(paths, 0, steps), pts)
    for j, jac in enumerate(table[index]):
        out[:, j + 1] = jac @ out[:, j]
    return out


def compose(cocycle: Cocycle, path: SymbolPath, n: int, x: TorusPoint) -> TorusPoint:
    """n-fold composition of the fiber maps along the path applied to x.

    Positive n walks forward through symbols 0..n-1; negative n applies
    the inverses of the maps at times -1..n.
    """
    syms = _symbol_windows([path], 0, abs(n), inverse=n < 0)
    method = "inverse_apply" if n < 0 else "apply"
    return TorusPoint(tuple(_orbit(cocycle, syms, x.as_array()[None], method)[-1, 0]))


def derivative(cocycle: Cocycle, path: SymbolPath, n: int, x: TorusPoint) -> np.ndarray:
    """Derivative of the n-step composition at x as an ordered Jacobian product."""
    syms = _symbol_windows([path], 0, abs(n), inverse=n < 0)
    table, index = _jacobians(cocycle, syms, x.as_array()[None], backward=n < 0)
    steps = table[index[:, 0]]
    jac = np.eye(cocycle.dim)
    for step in np.linalg.inv(steps) if n < 0 else steps:
        jac = step @ jac
    return jac


# ---------------------------------------------------------------------------
# System definition files
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _cast(key: str, text: str, parse):
    """parse(text); a malformed number raises InvalidSystem naming the key."""
    try:
        return parse(text)
    except InvalidSystem:
        raise
    except ValueError:
        raise InvalidSystem(f"system key {key!r} has a malformed value {text!r}") from None


def _parse_shear_group(group: str) -> ShearTerm:
    parts = group.split(":")
    if len(parts) != 3:
        raise InvalidSystem(f"perturbation term {group!r} is not an amp:kvec:phase triple")
    amp = float(parts[0])
    kvec = tuple(int(tok) for tok in parts[1].split(","))
    phase = float(parts[2])
    return ShearTerm(amplitude=amp, wavevector=kvec, phase=phase)


def parse_system_text(text: str) -> tuple[DrivingSystem, Cocycle]:
    """Parse a plain key/value system definition (see bundled configs)."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSystem(f"malformed line {raw!r}")
        key, val = line.split("=", 1)
        entries[key.strip()] = val.strip()

    known_prefixes = ("map.",)
    known_keys = {
        "base.kind",
        "base.symbols",
        "base.dist",
        "base.transition",
        "fiber.dim",
        "seed",
    }
    for key in entries:
        if key in known_keys:
            continue
        if any(key.startswith(p) for p in known_prefixes):
            continue
        raise InvalidSystem(f"unknown system key {key!r}")

    kind = entries.get("base.kind", "deterministic-trivial")
    symbols = _cast("base.symbols", entries.get("base.symbols", "1"), int)
    dim = _cast("fiber.dim", entries.get("fiber.dim", "2"), int)
    seed = _cast("seed", entries.get("seed", "0"), int)
    if "base.dist" in entries:
        dist = tuple(_cast("base.dist", entries["base.dist"], _parse_floats))
    else:
        dist = tuple([1.0 / symbols] * symbols)
    transition = None
    if "base.transition" in entries:
        rows = entries["base.transition"].split(";")
        transition = tuple(tuple(_cast("base.transition", r, _parse_floats)) for r in rows)
    system = DrivingSystem(
        kind=kind, symbol_count=symbols, distribution=dist, transition=transition, seed=seed
    )

    maps = []
    for k in range(symbols):
        mat_key = f"map.{k}.matrix"
        if mat_key not in entries:
            raise InvalidSystem(f"missing {mat_key}")
        flat = _cast(mat_key, entries[mat_key], _parse_floats)
        if len(flat) != dim * dim:
            raise InvalidSystem(f"{mat_key} needs {dim * dim} entries")
        matrix = np.asarray(flat, dtype=float).reshape(dim, dim)
        shears: tuple[ShearTerm, ...] = ()
        pert_key = f"map.{k}.perturbation"
        if pert_key in entries and entries[pert_key]:
            shears = tuple(_cast(pert_key, g, _parse_shear_group)
                           for g in entries[pert_key].split())
        translation = None
        tr_key = f"map.{k}.translation"
        if tr_key in entries:
            vals = _cast(tr_key, entries[tr_key], _parse_floats)
            if len(vals) != dim:
                raise InvalidSystem(f"{tr_key} needs {dim} entries")
            translation = tuple(vals)
        # an absent bound stays AUTO, the closed form of the matrix and shears
        c2 = entries.get(f"map.{k}.c2")
        c2inv = entries.get(f"map.{k}.c2inv")
        maps.append(
            MapDescriptor(
                matrix=matrix,
                shears=shears,
                translation=translation,
                c2_bound=AUTO if c2 is None else _cast(f"map.{k}.c2", c2, float),
                c2_bound_inverse=AUTO if c2inv is None else _cast(f"map.{k}.c2inv", c2inv, float),
            )
        )
    # reject stray map keys beyond the declared alphabet
    for key in entries:
        if key.startswith("map."):
            idx = key.split(".")[1]
            if not idx.isdigit() or int(idx) >= symbols:
                raise InvalidSystem(f"map key {key!r} outside symbol range")
    return system, Cocycle(maps=tuple(maps))


def load_system(path) -> tuple[DrivingSystem, Cocycle]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_text(fh.read())
