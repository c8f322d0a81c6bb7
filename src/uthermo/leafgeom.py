"""Local expanding-leaf geometry: disks, leaf growth factors and Bowen step arcs.

Disks are charts over the expanding direction at a base state, arc-length
parametrized.  Constant-Jacobian cocycles get exact affine charts; sheared
maps get a polyline chart grown by pushing a flat seed forward from the
past (a graph-transform fixed point).  Everything is local at scale
radius <= 0.25 so charts are injective on the torus.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rds import (
    Cocycle,
    EstimatorError,
    SkewState,
    TorusPoint,
    _add_shift,
    _map_step,
    _symbol_windows,
    _tangent_images,
    _walk,
    reduce_mod1,
)
from .oseledets import OseledetsReport

__all__ = [
    "TrivialLeafError",
    "UnstableDisk",
    "unstable_disk",
    "leaf_growth_factors_batch",
    "bowen_step_arcs",
]

GRAPH_TOL = 1e-9
GRAPH_MAX_ITER = 200
# Polyline charts have 2 * CHART_HALF_POINTS + 1 vertices, spaced delta / CHART_HALF_POINTS.
CHART_HALF_POINTS = 512


class TrivialLeafError(EstimatorError, ValueError):
    """The expanding bundle is trivial; the leaf through the point is a point,
    and what needs a leaf direction (a chart, the geometric potential) is
    undefined there."""


class UnstableDisk(NamedTuple):
    """Local expanding-leaf chart of radius `radius` at `base`.

    Linear-exact charts map parameters t to base + frame @ t (mod 1) and
    are unit speed.  Polyline charts store a lifted, arc-length
    parametrized sample of the leaf.  chart(0) is the base point.
    """

    base: SkewState
    radius: float
    frame: np.ndarray
    construction: str
    params: np.ndarray | None = None
    points_lift: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def leaf_dim(self) -> int:
        return self.frame.shape[1]

    @property
    def base_lift(self) -> np.ndarray:
        return self.base.point.as_array()

    def chart_lift(self, t) -> np.ndarray:
        """Lifted chart: parameters (scalar, (k,), or (k,u)) to points in R^d."""
        if self.construction == "linear-exact":
            t_arr = np.asarray(t, dtype=float)
            if self.leaf_dim == 1 and (t_arr.ndim == 0 or t_arr.ndim == 1):
                t_arr = t_arr.reshape(-1, 1)
            return _add_shift(t_arr @ self.frame.T, self.base_lift)
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t_arr.shape[0], self.dim))
        for c in range(self.dim):
            out[:, c] = np.interp(t_arr, self.params, self.points_lift[:, c])
        return out

    def chart(self, t):
        """Chart into the torus; scalar t gives a TorusPoint, arrays give arrays."""
        pts = reduce_mod1(self.chart_lift(t))
        if np.asarray(t).ndim == 0:
            return TorusPoint(tuple(pts.reshape(-1)))
        return pts

def _arc_lengths(pts: np.ndarray) -> np.ndarray:
    """Arc length along a polyline (N, d) from its first vertex to each vertex.

    The bits of cumsum(norm(diff(pts), axis=1)) after a leading 0, in one pass:
    the squared coordinate steps are summed left to right, the order in which
    norm reduces a row, then rooted and summed into one preallocated array.
    """
    steps = pts[1:] - pts[:-1]
    steps *= steps
    seg = steps[:, 0]
    for c in range(1, pts.shape[1]):
        seg += steps[:, c]
    out = np.empty(len(pts))
    out[0] = 0.0
    np.cumsum(np.sqrt(seg, out=seg), out=out[1:])
    return out


def _centred_arcs(pts: np.ndarray) -> np.ndarray:
    """_arc_lengths measured from the middle vertex (signed)."""
    s = _arc_lengths(pts)
    s -= s[len(s) // 2]
    return s


def _push_and_trim(cocycle: Cocycle, sym, pts: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Push a lifted polyline through the map of symbol sym, recentre, and resample
    it at the arc positions grid, which run from -delta to delta."""
    out = _map_step(cocycle, sym, pts, "apply_lift")
    s = _centred_arcs(out)
    if s[-1] < grid[-1] or -s[0] < grid[-1]:
        raise EstimatorError("graph transform diverged: pushed leaf shorter than radius")
    resampled = np.empty((len(grid), out.shape[1]))
    for c in range(out.shape[1]):
        resampled[:, c] = np.interp(grid, s, out[:, c])
    return resampled


def unstable_disk(
    cocycle: Cocycle,
    state: SkewState,
    delta: float,
    report: OseledetsReport,
    construction: str | None = None,
) -> UnstableDisk:
    """Build the local expanding-leaf chart of radius delta at `state`.

    Constant-Jacobian cocycles get the exact affine leaf in the expanding
    directions.  Otherwise a flat seed is pushed forward from k steps in
    the past for growing k until the chart moves less than GRAPH_TOL in
    sup norm (or GRAPH_MAX_ITER is hit).  The depth adapts and each push is
    resampled, so this walk keeps its own loop, but the seed point's
    pull-back and every push step through the engine's rds._map_step.
    """
    if report.unstable_index == 0:
        raise TrivialLeafError("trivial leaf: no expanding directions at this state")
    if not 0.0 < delta <= 0.25:
        raise ValueError("radius must lie in (0, 0.25] for chart injectivity")
    u_dim = report.unstable_dim
    if u_dim not in (1, 2):
        raise EstimatorError("only leaf dimensions 1 and 2 are supported")
    if construction is None:
        construction = "linear-exact" if cocycle.has_constant_jacobian else "graph-transform"
    if construction == "linear-exact":
        return UnstableDisk(
            base=state, radius=delta, frame=report.eu_frame.copy(), construction="linear-exact"
        )
    if u_dim != 1:
        raise EstimatorError("graph-transform charts support leaf dimension 1 only")

    n_pts = 2 * CHART_HALF_POINTS + 1
    mid = n_pts // 2
    seed_radius = delta * 1.5  # slack so one trim always succeeds
    # the flat seed's offsets from its centre, and the chart's parameter grid
    seed = np.linspace(-seed_radius, seed_radius, n_pts)[:, None] * report.eu_frame[:, 0]
    params = np.linspace(-delta, delta, n_pts)
    x_lift = y0 = state.point.as_array()
    prev = None
    for k in range(1, GRAPH_MAX_ITER + 1):
        # the seed point x_-k, carried back one map from x_-(k-1)
        y0 = _map_step(cocycle, np.array(state.path.symbol(-k)), y0, "inverse_apply")
        pts = y0 + seed
        # not a _walk: the depth k adapts, and each push is resampled (_push_and_trim)
        for sym in _symbol_windows([state.path], -k, k)[0]:
            pts = _push_and_trim(cocycle, sym, pts, params)
        # recentre the lift so the middle vertex is the base representative
        pts -= pts[mid] - x_lift
        if prev is not None and float(np.max(np.abs(pts - prev))) < GRAPH_TOL:
            tangent = pts[mid + 1] - pts[mid - 1]
            frame = (tangent / np.linalg.norm(tangent)).reshape(-1, 1)
            return UnstableDisk(
                base=state,
                radius=delta,
                frame=frame,
                construction="graph-transform",
                params=params,
                points_lift=pts,
            )
        prev = pts
    raise EstimatorError("graph transform did not converge")


def _image_norms(cocycle: Cocycle, disks, vecs: np.ndarray, n: int) -> np.ndarray:
    """Norms (S, n) of tangent vectors vecs (S, d) at each disk's base under j-step
    derivatives along its path, j = 0..n-1."""
    pts = np.stack([disk.base_lift for disk in disks])
    paths = [disk.base.path for disk in disks]
    images = _tangent_images(cocycle, paths, pts, vecs[..., None], n - 1)[..., 0]
    return np.sqrt(np.vecdot(images, images))


def leaf_growth_factors_batch(cocycle: Cocycle, disks, n: int) -> np.ndarray:
    """Norm growth of each disk's leaf direction under j-step derivatives,
    j = 0..n-1, shape (S, n).

    Exact for constant-Jacobian cocycles (where the leaf is affine and the
    chart image under j steps is scaled by exactly this factor).  A growth
    beyond float range (the norms square the images) raises EstimatorError,
    naming the first n whose steps 0..n-1 reach it.
    """
    disks = list(disks)
    if not disks:
        return np.empty((0, n))
    with np.errstate(over="ignore"):  # an overflow raises below
        out = _image_norms(cocycle, disks, np.stack([disk.frame[:, 0] for disk in disks]), n)
    out[:, 0] = 1.0
    over = ~np.isfinite(out).all(axis=0)
    if over.any():
        raise EstimatorError(
            f"leaf growth overflows float range at n = {int(np.argmax(over)) + 1}; lower n"
        )
    return out


def bowen_step_arcs(cocycle: Cocycle, disk: UnstableDisk, n: int, params: np.ndarray) -> np.ndarray:
    """Signed arc positions of chart(params) in the step-j image leaves.

    Returns an (n, len(params)) array S with S[j, i] the arc length from the
    image of chart(0) to the image of chart(params[i]) after j steps
    (S[0] = params).  Each row is monotone; the dynamical leaf metric
    between two parameters is max_j |S[j, i1] - S[j, i2]|.
    """
    params = np.asarray(params, dtype=float)
    if disk.construction == "linear-exact":
        return leaf_growth_factors_batch(cocycle, [disk], n)[0][:, None] * params
    syms = _symbol_windows([disk.base.path], 0, n - 1)
    out = np.empty((n, params.shape[0]))
    out[0] = params
    walk = _walk(cocycle, syms, disk.points_lift, "apply_lift")
    next(walk)  # the chart itself, whose arcs are params
    for j, image in enumerate(walk, start=1):
        out[j] = np.interp(params, disk.params, _centred_arcs(image))
    return out
