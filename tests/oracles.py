"""Independent oracle implementations used to freeze expected test values.

Everything here is deliberately primitive (loops, dicts, finite
differences, brute-force enumeration) and shares no code with the package
paths it checks.  The last section is the exception: checkers and
transforms that only the tests call, built on the package's public API.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

CAT_MATRIX = np.array([[2, 1], [1, 1]], dtype=np.int64)

# larger eigenvalue of [[2,1],[1,1]] from the quadratic formula
CAT_EIGENVALUE = (3.0 + math.sqrt(5.0)) / 2.0
CAT_LOG = math.log(CAT_EIGENVALUE)
CAT_UNSTABLE_DIR = np.array([1.0, (math.sqrt(5.0) - 1.0) / 2.0])
CAT_UNSTABLE_DIR = CAT_UNSTABLE_DIR / np.linalg.norm(CAT_UNSTABLE_DIR)


def symbol_frequencies(symbols) -> dict[int, float]:
    counts = Counter(symbols)
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def finite_difference_jacobian(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a lifted map R^d -> R^d."""
    d = len(x)
    out = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[:, j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return out


def packing_count_1d(length: float, eps: float) -> int:
    """Largest m with points on [0, length] at pairwise distance > eps."""
    m = int(length / eps) + 2
    while (m - 1) * eps >= length:
        m -= 1
    return m


def max_step_growth(matrices, direction: np.ndarray, n: int) -> float:
    """max over j < n of |M_{j-1} ... M_0 direction| (j = 0 gives |direction|)."""
    v = np.asarray(direction, dtype=float)
    best = np.linalg.norm(v)
    for j in range(n - 1):
        v = matrices[j] @ v
        best = max(best, np.linalg.norm(v))
    return float(best)


def brute_conditional_information(weights, alpha, eta):
    """Dict-based conditional information values and their weighted mean."""
    weights = list(map(float, weights))
    mass_eta: dict[int, float] = {}
    mass_joint: dict[tuple[int, int], float] = {}
    for w, a, e in zip(weights, alpha, eta):
        mass_eta[e] = mass_eta.get(e, 0.0) + w
        mass_joint[(a, e)] = mass_joint.get((a, e), 0.0) + w
    info = []
    total = 0.0
    for w, a, e in zip(weights, alpha, eta):
        if w <= 0.0:
            info.append(float("nan"))
            continue
        val = -math.log(mass_joint[(a, e)] / mass_eta[e])
        info.append(val)
        total += w * val
    return info, total


def cat_orbit(x0, n: int):
    """Forward orbit of the planar hyperbolic matrix map, mod 1, by hand."""
    pts = [tuple(x0)]
    x, y = x0
    for _ in range(n):
        x, y = (2 * x + y) % 1.0, (x + y) % 1.0
        pts.append((x, y))
    return pts


def leaf_interval_by_scan(chart_fn, cell_of_fn, t_lo, t_hi, n_scan=200_001):
    """Maximal same-cell parameter run around t = 0, found by dense scan."""
    ts = np.linspace(t_lo, t_hi, n_scan)
    mid = n_scan // 2
    cells = [cell_of_fn(chart_fn(t)) for t in ts]
    left = mid
    while left - 1 >= 0 and cells[left - 1] == cells[mid]:
        left -= 1
    right = mid
    while right + 1 < n_scan and cells[right + 1] == cells[mid]:
        right += 1
    return ts[left], ts[right]


def _positive_qr(mat):
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs, r * signs[:, None]


def scalar_orbit(cocycle, path, x0, lo: int, hi: int) -> dict:
    """{t: x_t} for lo <= t <= hi on the orbit through x_0 = x0: applied forward one
    map at a time for t > 0, pulled back one map at a time for t < 0."""
    pts = {0: np.asarray(x0, dtype=float)}
    for t in range(hi):
        pts[t + 1] = cocycle.maps[path.symbol(t)].apply(pts[t])
    for t in range(-1, lo - 1, -1):
        pts[t] = cocycle.maps[path.symbol(t)].inverse_apply(pts[t + 1])
    return pts


def loop_compose(cocycle, path, n: int, x0):
    """f^n_omega(x0) as coordinates, one point and one map at a time: forward through
    the maps at times 0..n-1, or back through the inverses at times -1..n."""
    pt = np.asarray(x0, dtype=float)
    if n > 0:
        for j in range(n):
            pt = cocycle.map_for(path.symbol(j)).apply(pt)
    elif n < 0:
        for j in range(-1, n - 1, -1):
            pt = cocycle.map_for(path.symbol(j)).inverse_apply(pt)
    return pt


def loop_derivative(cocycle, path, n: int, x0):
    """D f^n_omega at x0 as the ordered product of one-point Jacobians."""
    jac = np.eye(cocycle.dim)
    pt = np.asarray(x0, dtype=float)
    if n > 0:
        for j in range(n):
            m = cocycle.map_for(path.symbol(j))
            jac = m.jacobian(pt) @ jac
            pt = m.apply(pt)
    elif n < 0:
        for j in range(-1, n - 1, -1):
            m = cocycle.map_for(path.symbol(j))
            pt = m.inverse_apply(pt)
            jac = np.linalg.inv(m.jacobian(pt)) @ jac
    return jac


def loop_periodic_orbit(cocycle, x0, max_period: int, tol: float):
    """The closed orbit of the one map of a trivial base through x0, as coordinate
    tuples, one point and one map call per step; None if it does not close within
    max_period steps (max-coordinate circle distance <= tol)."""
    start = np.asarray(x0, dtype=float)
    orbit, pt = [tuple(float(c) for c in start)], start
    for _ in range(max_period):
        pt = cocycle.maps[0].apply(pt)
        gap = np.abs(pt - start)
        if np.max(np.minimum(gap, 1.0 - gap)) <= tol:
            return tuple(orbit)
        orbit.append(tuple(float(c) for c in pt))
    return None


def loop_polyline_lengths(cocycle, pair, path, disk, n_max: int):
    """The same-cell run lengths on a polyline chart, pushed one map at a time."""
    pts = disk.points_lift.copy()
    params = disk.params
    mid = len(params) // 2
    alive = np.ones(len(params), dtype=bool)
    lengths = np.empty(n_max)
    for j in range(n_max):
        sym = path.symbol(j)
        ids = pair.cell_ids(sym, pts % 1.0)
        alive &= np.all(ids == ids[mid], axis=1)
        left = mid
        while left - 1 >= 0 and alive[left - 1]:
            left -= 1
        right = mid
        while right + 1 < len(params) and alive[right + 1]:
            right += 1
        lengths[j] = params[right] - params[left]
        pts = cocycle.map_for(sym).apply_lift(pts)
    return lengths


def stepwise_qr_walk(jacs, q0, logs0):
    """A QR walk one sample and one step at a time: frames q0 (S, d, k) pushed through
    the Jacobians jacs (steps, S or 1, d, d), with logs0 (S, k) the starting logs.

    Returns (final Q, summed logs, sign flips).  Each step is np.linalg.qr of
    J.Q, whose Q is carried with LAPACK's signs; flips marks the columns whose
    R diagonal was negative an odd number of times, and the final Q has those
    columns negated.  Each step's log |diag R| is added to the logs in turn.
    """
    qs, logs, flips = [], [], []
    for i in range(len(q0)):
        q, log, flip = q0[i], logs0[i].copy(), np.zeros(q0.shape[-1], dtype=bool)
        for jac in jacs[:, i if jacs.shape[1] > 1 else 0]:
            q, r = np.linalg.qr(jac @ q)
            flip ^= np.diag(r) < 0
            log += np.log(np.abs(np.diag(r)))
        qs.append(np.where(flip, -q, q))
        logs.append(log)
        flips.append(flip)
    return np.stack(qs), np.stack(logs), np.stack(flips)


def stepwise_covariant_frames(jacs, q0, keep: int):
    """A backward QR walk one sample and one step at a time: frames q0 (S, d, d) pulled
    back through the inverses of jacs (steps, S, d, d), last step first, each step
    np.linalg.qr of inv(J_t).Q with LAPACK's signs.  Returns the frames (keep, S, d, d)
    reached at steps 0 .. keep-1."""
    out = np.empty((keep,) + q0.shape)
    for i in range(len(q0)):
        q = q0[i]
        for t in range(len(jacs) - 1, -1, -1):
            q = np.linalg.qr(np.linalg.inv(jacs[t, i]) @ q)[0]
            if t < keep:
                out[t, i] = q
    return out


def scalar_qr_walk(cocycle, path, x0, start: int, steps: int, q0):
    """One sample, one step at a time: (final Q, summed log diag R, summed log|det J|).

    Walks times start .. start+steps-1 with Df(x_t), every Jacobian taken on
    the orbit through x0 (scalar_orbit).
    """
    times = range(start, start + steps)
    orbit = scalar_orbit(cocycle, path, x0, min(times), max(times))
    q, logs, log_det = q0.copy(), np.zeros(len(q0)), 0.0
    for t in times:
        jac = cocycle.maps[path.symbol(t)].jacobian(orbit[t])
        log_det += math.log(abs(np.linalg.det(jac)))
        q, r = _positive_qr(jac @ q)
        logs += np.log(np.abs(np.diag(r)))
    return q, logs, log_det


def seeded_frame(dim: int, seed: int):
    """The orthonormal starting frame a spectrum derives from its frame seed."""
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x0F])
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def scalar_spectrum(cocycle, path, x0, n: int, frame_steps=None, frame_seed: int = 0):
    """(sorted raw exponents, Q pushed from the past, log det sum).

    The exponent walk starts from the Q pushed from the past."""
    q0 = seeded_frame(cocycle.dim, frame_seed)
    fs = min(n, 512) if frame_steps is None else frame_steps
    fs = min(fs, path.backward_reach, path.forward_reach)
    q_fwd = scalar_qr_walk(cocycle, path, x0, -fs, fs, q0)[0]
    _, logs, log_det = scalar_qr_walk(cocycle, path, x0, 0, n, q_fwd)
    return np.sort(logs / n)[::-1], q_fwd, log_det


def scalar_tangent_images(cocycle, path, x0, w0, steps: int):
    """[w0, J_0 w0, J_1 J_0 w0, ...] (steps + 1 entries): a vector or a frame pushed
    along the path from x0 one point and one step at a time."""
    images = [np.array(w0, dtype=float)]
    pt = np.asarray(x0, dtype=float)
    for j in range(steps):
        m = cocycle.maps[path.symbol(j)]
        images.append(m.jacobian(pt) @ images[-1])
        pt = m.apply(pt)
    return images


def scalar_leaf_growth(cocycle, path, x0, v, n: int):
    """|Df^j v| at x0 for j = 0..n-1, with the j = 0 entry exactly 1.0."""
    out = np.empty(n)
    out[0] = 1.0
    for j, w in enumerate(scalar_tangent_images(cocycle, path, x0, v, n - 1)[1:], start=1):
        out[j] = float(np.linalg.norm(w))
    return out


def scalar_bowen_distance_2d(cocycle, path, x0, diff, n: int) -> float:
    """max over j < n of |Df^j diff| at x0."""
    return max(float(np.linalg.norm(w))
               for w in scalar_tangent_images(cocycle, path, x0, diff, n - 1))


def scalar_interval_information(cocycle, pair, path, x0, frame, n_max: int, delta: float):
    """(eta length, surviving interval lengths) of a linear leaf through x0, found by
    clipping the parameter interval against each step's grid cell, one step at a time."""
    g = pair.cell_size
    w = np.array(frame, dtype=float)
    y = np.asarray(x0, dtype=float)
    lo, hi = -delta, delta
    lengths = np.empty(n_max)
    for j in range(n_max):
        sym = path.symbol(j)
        r = pair.cell_positions(sym, y)
        for i in range(len(r)):
            if abs(w[i]) < 1e-14:
                continue
            a, b = sorted(((0.0 - r[i]) / w[i], (g - r[i]) / w[i]))
            lo, hi = max(lo, a), min(hi, b)
        lengths[j] = hi - lo
        m = cocycle.maps[sym]
        w = m.jacobian(y) @ w
        y = m.apply(y)
    return lengths[0], lengths


def norm_arc_lengths(pts):
    """Arc length along a polyline from its first vertex to each vertex, by norm."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def scalar_graph_transform(cocycle, state, delta: float, direction, half_points: int,
                           tol: float, max_iter: int):
    """(points_lift, frame, params) of a graph-transform chart, one depth at a time.

    Depth k carries the base point back k maps, lays a flat seed of radius
    1.5 delta along direction there and pushes it k steps forward; every push
    measures arcs twice by norm and makes its resampling grid afresh.  The
    first depth whose chart moves less than tol from the last one is kept.
    """
    n_pts = 2 * half_points + 1
    seed_radius = delta * 1.5
    x_lift = y0 = state.point.as_array()
    prev = None
    for k in range(1, max_iter + 1):
        y0 = cocycle.map_for(state.path.symbol(-k)).inverse_apply(y0)
        t = np.linspace(-seed_radius, seed_radius, n_pts)
        pts = y0 + t[:, None] * direction
        for j in range(-k, 0):
            out = cocycle.map_for(state.path.symbol(j)).apply_lift(pts)
            mid = len(out) // 2
            s = norm_arc_lengths(out) - norm_arc_lengths(out)[mid]
            if s[-1] < delta or -s[0] < delta:
                raise ValueError("pushed leaf shorter than radius")
            t_new = np.linspace(-delta, delta, n_pts)
            pts = np.empty((n_pts, out.shape[1]))
            for c in range(out.shape[1]):
                pts[:, c] = np.interp(t_new, s, out[:, c])
        pts = pts - (pts[n_pts // 2] - x_lift)
        if prev is not None and float(np.max(np.abs(pts - prev))) < tol:
            tangent = pts[n_pts // 2 + 1] - pts[n_pts // 2 - 1]
            frame = (tangent / np.linalg.norm(tangent)).reshape(-1, 1)
            return pts, frame, np.linspace(-delta, delta, n_pts)
        prev = pts
    raise ValueError("no convergence")


def norm_step_arcs(cocycle, disk, n: int, params):
    """bowen_step_arcs of a polyline chart with arcs measured by norm, step by step."""
    out = np.empty((n, len(params)))
    out[0] = params
    pts = disk.points_lift.copy()
    mid = len(pts) // 2
    for j in range(1, n):
        pts = cocycle.map_for(disk.base.path.symbol(j - 1)).apply_lift(pts)
        s = norm_arc_lengths(pts)
        out[j] = np.interp(params, disk.params, s - s[mid])
    return out


def scalar_certify_transport(cocycle, path, x0, frame, q0, gap: float, n: int, ahead: int):
    """(least co-norm, domination constant) of one sample's frames carried n steps.

    One backward walk keeps its frames: q0 at x_{n+ahead} is pulled back one
    inverse Jacobian at a time, and the frame it reaches at each x_j (j < n)
    spans E^cs there in its first d - u columns.  Then the expanding frame is
    pushed forward and re-orthonormalised each step, and the constant is the
    largest exp(sum of E^cs stretches - sum of expanding co-norms - gap (j + 1)),
    and at least 1.
    """
    d, u_dim = len(q0), frame.shape[1]
    orbit = scalar_orbit(cocycle, path, x0, 0, n + ahead)
    jacs = [cocycle.maps[path.symbol(t)].jacobian(orbit[t]) for t in range(n + ahead)]
    cs, q = {}, q0.copy()
    for t in range(n + ahead - 1, -1, -1):
        q = _positive_qr(np.linalg.inv(jacs[t]) @ q)[0]
        cs[t] = q[:, : d - u_dim]
    lam_min, log_cs, log_u, worst = math.inf, 0.0, 0.0, 0.0
    for j in range(n):
        img = jacs[j] @ frame
        lam_min = min(lam_min, float(np.linalg.svd(img, compute_uv=False)[-1]))
        frame = _positive_qr(img)[0]
        if u_dim < d:
            log_cs += float(np.max(np.log(np.linalg.norm(jacs[j] @ cs[j], axis=0))))
            log_u += float(np.min(np.log(np.linalg.norm(img, axis=0))))
            worst = max(worst, log_cs - log_u - gap * (j + 1))
    return lam_min, math.exp(worst)


def scalar_phiu(cocycle, path, x0, q, u_dim: int) -> float:
    """-log of the u-volume growth of the one-step derivative at x0 on frame q[:, :u_dim]."""
    w = cocycle.maps[path.symbol(0)].jacobian(np.asarray(x0, dtype=float)) @ q[:, :u_dim]
    return -0.5 * math.log(abs(float(np.linalg.det(w.T @ w))))


def greedy_kernel(order, lo, hi, n_candidates):
    """Candidates picked in `order`, each pick blocking its window lo..hi (unsorted)."""
    blocked = np.zeros(n_candidates, dtype=bool)
    selected = []
    for idx in order:
        if not blocked[idx]:
            selected.append(idx)
            blocked[lo[idx] : hi[idx] + 1] = True
    return np.asarray(selected, dtype=np.int64)


def line_wave_sums_by_block(line, orbit, group, steps, signs) -> dict:
    """thermo._line_wave_sums with its real (2n, 2Q) block assembled by np.block."""
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
    width = math.isqrt(count - 1) + 1
    start = theta - line.disk.radius * beta
    stride = line.step * beta
    heads = np.exp(1j * (start[:, None] + np.arange(0, count, width) * stride[:, None]))
    tails = np.exp(1j * (np.arange(width) * stride[:, None]))
    signs = np.asarray(signs)
    heads *= signs[:, None]
    extra = signs @ np.exp(1j * (theta[:, None] + line.extra * beta[:, None]))
    left = np.block([[heads.real, heads.imag], [-heads.imag, heads.real]])
    block = left.T @ np.concatenate([tails.real, tails.imag])
    height = heads.shape[1]
    return {"cos": (block[:height].reshape(-1)[:count], extra.real),
            "sin": (block[height:].reshape(-1)[:count], extra.imag)}


def sum_terms_two_step(terms, value, out):
    """thermo._sum_terms with each weighted term made as its own product first, then
    added onto out (the first as w * v + 0.0)."""
    from uthermo.thermo import _expands

    for i, (w, p) in enumerate(terms):
        v = sum_terms_two_step(p.terms, value, np.empty_like(out)) if _expands(p) else value(p)
        if w != 1.0:
            v = np.multiply(w, v)
        if i:
            out += v
        else:
            np.add(v, 0.0, out=out)
    return out


def chains_by_steps(seeds, right, left, stride):
    """thermo._chains one seed and one step at a time."""
    got = np.array(seeds, dtype=bool)
    for i in np.flatnonzero(seeds).tolist():
        for step, holds in ((stride, right), (-stride, left)):
            j = i + step
            while 0 <= j < len(got) and holds[j]:
                got[j] = True
                j += step
    return got


def scalar_values(potential, path, pts):
    """A potential's values at pts, a weighted sum's added term by term onto zeros."""
    return _scalar_terms(potential, lambda leaf: leaf.values(path, pts), pts.shape[0])


def _scalar_terms(potential, value, size: int):
    """value(potential), or for an x-dependent weighted sum its terms' w * value
    added in order onto zeros of the given size."""
    if potential.terms and not potential.x_independent:
        out = np.zeros(size)
        for w, p in potential.terms:
            out += w * _scalar_terms(p, value, size)
        return out
    return value(potential)


def scalar_orbit_sums(cocycle, path, potential, pts, n: int):
    """S_n(phi) at each row of pts, one potential walked on its own: each leaf's
    values added step by step onto zeros, a coboundary over the cocycle read as
    sigma(x_n) - sigma(x_0), and a weighted sum added up from its leaves' sums in
    scalar_values' term order."""
    orbit = [pts]
    for j in range(n):
        orbit.append(cocycle.maps[path.symbol(j)].apply(orbit[-1]))

    def leaf_sum(leaf):
        if leaf.coboundary is not None and leaf.coboundary[0] is cocycle:
            sigma = leaf.coboundary[1]
            return sigma.values(path.shifted(n), orbit[n]) - sigma.values(path, pts)
        total = np.zeros(pts.shape[0])
        for j in range(n):
            total += leaf.values(path.shifted(j), orbit[j])
        return total

    return _scalar_terms(potential, leaf_sum, pts.shape[0])


def stepwise_orbit_sums(cocycle, path, potential, pts, n: int):
    """S_n(phi) at each row of pts, the potential's values at each step (a weighted
    sum's added up per step, a coboundary's read off its evaluator) added onto
    zeros."""
    total = np.zeros(pts.shape[0])
    for j in range(n):
        total += scalar_values(potential, path.shifted(j), pts)
        pts = cocycle.maps[path.symbol(j)].apply(pts)
    return total


def scalar_linear_packing(cocycle, disk, potential, n: int, eps: float, growth,
                          grid_factor: int = 8, orbit_sums=None):
    """(log lower, log upper) of one potential's packing of a linear-exact 1-d disk:
    the analytic lattice for an x-independent potential, else the greedy pass over
    explicit lo/hi windows, with scipy's logsumexp.  orbit_sums(params) gives the
    potential's orbit sums at chart(params); by default they are scalar_orbit_sums'."""
    from scipy.special import logsumexp

    path = disk.base.path
    if orbit_sums is None:
        def orbit_sums(params):
            return scalar_orbit_sums(cocycle, path, potential, disk.chart(params), n)
    length = 2.0 * disk.radius
    gstar = float(np.max(growth[:n]))
    if potential.x_independent:
        sn = sum(float(potential.symbol_fn(path.symbol(j))) for j in range(n))
        count = math.floor(length / (eps * (1.0 + 1e-9) / gstar)) + 1
        cover = max(1, math.ceil(length * gstar / eps))
        return math.log(count) + sn, math.log(cover) + sn
    h = eps / (grid_factor * gstar)
    n_cand = math.floor(length / h) + 1
    params = -disk.radius + h * np.arange(n_cand)
    lo = np.maximum(np.arange(n_cand) - grid_factor, 0)
    hi = np.minimum(np.arange(n_cand) + grid_factor, n_cand - 1)
    weights = orbit_sums(params)
    selected = np.sort(greedy_kernel(np.argsort(-weights, kind="stable"), lo, hi, n_cand))
    cover_step = eps / gstar
    n_cover = max(1, math.ceil(length / cover_step))
    cover = np.clip(-disk.radius + cover_step * (np.arange(n_cover) + 0.5),
                    -disk.radius, disk.radius)
    cover_weights = orbit_sums(cover)
    return (float(logsumexp(weights[selected])),
            float(logsumexp(cover_weights)) + n * potential.lipschitz * eps / 2.0)


def scalar_pressure_cells(cocycle, system, potential, grid, seed: int, frame_steps: int = 256):
    """Cell rows (path seed, x index, n, eps, log lower, log upper) of one potential's
    pressure estimate on a constant-Jacobian cocycle: every path and base point
    packed on its own, with the paths, spectra and disks the estimator draws."""
    from uthermo import SkewState, TorusPoint, lyapunov_spectra, sample_path, unstable_disk
    from uthermo.leafgeom import leaf_growth_factors_batch

    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x9E55])
    seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(grid.omega_samples)]
    axis = (np.arange(grid.base_grid) + 0.5) / grid.base_grid
    base_pts = [TorusPoint((a, b)) for a in axis for b in axis]
    rows = []
    for pseed in seeds:
        path = sample_path(system, max(grid.n_grid[-1], frame_steps) + 2, pseed)
        report = lyapunov_spectra(cocycle, [path], base_pts[:1], max(128, frame_steps),
                                  frame_steps=frame_steps, frame_seeds=[pseed])[0]
        for xi, x in enumerate(base_pts):
            disk = unstable_disk(cocycle, SkewState(path=path, point=x), grid.delta, report)
            growth = leaf_growth_factors_batch(cocycle, [disk], grid.n_grid[-1])[0]
            for n in grid.n_grid:
                for eps in grid.eps_grid:
                    rows.append((pseed, xi, n, eps)
                                + scalar_linear_packing(cocycle, disk, potential, n, eps, growth))
    return rows


def packed_pressure_cells(cocycle, system, potentials, grid, seed: int):
    """Every potential's CellRecords, in pressure_estimates' order, with every cell
    packed by maximal_separated_sets: each path, base point and (n, eps) makes one
    call for the whole family, with the paths, spectra, disks and leaf growth the
    estimator draws (one spectrum and growth per path on a constant-Jacobian
    cocycle)."""
    from uthermo import SkewState, TorusPoint, lyapunov_spectra, sample_path, unstable_disk
    from uthermo.leafgeom import leaf_growth_factors_batch
    from uthermo.thermo import PRESSURE_FRAME_STEPS, CellRecord, maximal_separated_sets

    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x9E55])
    seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(grid.omega_samples)]
    axis = (np.arange(grid.base_grid) + 0.5) / grid.base_grid
    base_pts = [TorusPoint(tuple(float(v) for v in row))
                for row in itertools.product(axis, repeat=cocycle.dim)]
    n_max = grid.n_grid[-1]
    paths = [sample_path(system, max(n_max, PRESSURE_FRAME_STEPS) + 2, s) for s in seeds]
    xs = base_pts[:1] if cocycle.has_constant_jacobian else base_pts
    spectra = lyapunov_spectra(cocycle, [p for p in paths for _ in xs], xs * len(paths),
                               PRESSURE_FRAME_STEPS, frame_steps=PRESSURE_FRAME_STEPS,
                               frame_seeds=[s for s in seeds for _ in xs])
    cells = [[] for _ in potentials]
    for i, (pseed, path) in enumerate(zip(seeds, paths)):
        reports = spectra[i * len(xs) : (i + 1) * len(xs)] * (len(base_pts) // len(xs))
        growth = None
        for xi, (x, report) in enumerate(zip(base_pts, reports)):
            if report.unstable_index == 0:
                continue
            disk = unstable_disk(cocycle, SkewState(path=path, point=x), grid.delta, report)
            if growth is None and disk.construction == "linear-exact":
                growth = leaf_growth_factors_batch(cocycle, [disk], n_max)[0]
            for n in grid.n_grid:
                for eps in grid.eps_grid:
                    packed = maximal_separated_sets(cocycle, disk, potentials, n, eps,
                                                    growth=growth)
                    for out, p, res in zip(cells, potentials, packed):
                        out.append(CellRecord(
                            omega_seed=pseed, x_index=xi, delta=grid.delta, n=n, epsilon=eps,
                            log_lower=res.log_weighted_sum, log_upper=res.log_upper,
                            potential_id=p.label))
    return cells


def profile_pack_indices(arcs: np.ndarray, eps: float) -> np.ndarray:
    """Left-to-right walk over Bowen arcs selecting indices pairwise > eps apart,
    one scalar search per step and row."""
    n, m = arcs.shape
    out = [0]
    i = 0
    while True:
        nxt = m
        for j in range(n):
            nxt = min(nxt, int(np.searchsorted(arcs[j], arcs[j][i] + eps, side="right")))
        if nxt >= m:
            break
        out.append(nxt)
        i = nxt
    return np.asarray(out, dtype=np.int64)


def profile_cover_indices(arcs: np.ndarray, eps: float) -> np.ndarray:
    """Centres of a left-to-right cover of the Bowen arcs by dynamical balls of
    radius eps/2, one scalar search per step and row."""
    n, m = arcs.shape
    half = eps / 2.0
    centers = []
    edge = 0
    while edge < m:
        c = m - 1
        for j in range(n):
            c = min(c, int(np.searchsorted(arcs[j], arcs[j][edge] + half, side="right")) - 1)
        c = max(c, edge)
        centers.append(c)
        nxt = m
        for j in range(n):
            nxt = min(nxt, int(np.searchsorted(arcs[j], arcs[j][c] + half, side="right")))
        edge = max(nxt, edge + 1)
    return np.asarray(centers, dtype=np.int64)


def loop_birkhoff_sum(cocycle, potential, path, x, n: int) -> float:
    """S_n(phi)(x), one point and one step at a time: each leaf's values added onto
    0.0, a coboundary over the cocycle read as sigma(x_n) - sigma(x_0), and a
    weighted sum added up from its leaves' sums in term order."""
    orbit = [x.as_array().reshape(1, -1)]
    for j in range(n):
        orbit.append(cocycle.maps[path.symbol(j)].apply(orbit[-1]))

    def value(p, j):
        if p.x_independent:
            return float(p.symbol_fn(path.symbol(j)))
        return float(p.vector_fn(path.shifted(j), orbit[j])[0])

    def orbit_sum(p):
        if p.terms and not p.x_independent:
            total = 0.0
            for w, q in p.terms:
                total += w * orbit_sum(q)
            return total
        if p.coboundary is not None and p.coboundary[0] is cocycle:
            return value(p.coboundary[1], n) - value(p.coboundary[1], 0)
        total = 0.0
        for j in range(n):
            total += value(p, j)
        return total

    return orbit_sum(potential)


def _fiber_corners(dim: int, grid: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, grid, endpoint=False)
    return np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)


def _symbol_window(s: int):
    from uthermo import SymbolPath

    return SymbolPath(symbols=(s,) * 3, half_window=1)


def fiber_sup_norm(potential, system, grid: int = 64, dim: int = 2) -> float:
    """Base-averaged fiber sup of |phi| on the corner lattice, symbol by symbol."""
    dist = system.distribution_array
    if potential.x_independent:
        return float(sum(p * abs(potential.symbol_fn(s)) for s, p in enumerate(dist)))
    total = 0.0
    pts = _fiber_corners(dim, grid)
    for s, p in enumerate(dist):
        if p == 0.0:
            continue
        total += p * float(np.max(np.abs(potential.values(_symbol_window(s), pts))))
    return total


def fiber_extrema(potential, system, dim: int = 2, grid: int = 96):
    """Base-averaged fiber min and max of phi on the corner lattice."""
    lo = hi = 0.0
    pts = _fiber_corners(dim, grid)
    for s, p in enumerate(system.distribution_array):
        if p == 0.0:
            continue
        if potential.x_independent:
            v = potential.symbol_fn(s)
            lo += p * v
            hi += p * v
            continue
        vals = potential.values(_symbol_window(s), pts)
        lo += p * float(np.min(vals))
        hi += p * float(np.max(vals))
    return lo, hi


def pointwise_leq(phi, psi, system, dim: int = 2, grid: int = 48) -> bool:
    """phi <= psi (to 1e-12) at every corner-lattice point of every symbol's fiber."""
    pts = _fiber_corners(dim, grid)
    for s in range(system.symbol_count):
        path = _symbol_window(s)
        if np.any(phi.values(path, pts) > psi.values(path, pts) + 1e-12):
            return False
    return True


def bessel_i(m: int, a: float, terms: int = 60) -> float:
    """The modified Bessel function I_m(a) by its power series sum_j (a/2)^(2j+|m|) / (j! (j+|m|)!)."""
    m = abs(m)
    half = a / 2.0
    total, term = 0.0, half**m / math.factorial(m)
    for j in range(terms):
        total += term
        term *= half * half / ((j + 1) * (j + 1 + m))
    return total


def transfer_operator_pressure(matrix, amplitude: float, wavevector, phase: float = 0.0,
                               fn: str = "cos", radius: int = 6) -> float:
    """Exact pressure of a * cos(2 pi k.x + theta) (sin as theta - pi/2) for x -> A x.

    P = log lambda + log rho(L_phi).  On the Fourier modes with |xi|_inf <= radius,
    L_phi sends mode zeta to A^T zeta - m k with weight I_m(a) e^{i m theta}: the
    Fourier coefficients of e^phi times composition with the map.  The truncation
    converges to 1e-6 by radius 6 for the amplitudes tested here.
    """
    mat = np.asarray(matrix, dtype=np.int64)
    k = np.asarray(wavevector, dtype=np.int64)
    theta = phase - math.pi / 2.0 if fn == "sin" else phase
    side = 2 * radius + 1
    axis = np.arange(-radius, radius + 1)
    modes = np.stack(np.meshgrid(*([axis] * len(k)), indexing="ij"), axis=-1).reshape(-1, len(k))
    images = modes @ mat  # row i is A^T modes[i]
    cols = np.arange(len(modes))
    op = np.zeros((len(modes), len(modes)), dtype=complex)
    # A^T is invertible, so for one m no two columns share a row
    for m in range(-2 * side, 2 * side + 1):
        target = images - m * k
        inside = np.all(np.abs(target) <= radius, axis=1)
        rows = np.ravel_multi_index(tuple((target[inside] + radius).T), (side,) * len(k))
        op[rows, cols[inside]] += bessel_i(m, amplitude) * complex(math.cos(m * theta),
                                                                    math.sin(m * theta))
    lam = float(np.max(np.abs(np.linalg.eigvals(mat.astype(float)))))
    return math.log(lam) + math.log(float(np.max(np.abs(np.linalg.eigvals(op)))))


def per_row_geometric_values(cocycle, path, pts, u_dim: int, frame_steps: int = 96):
    """phi^u at pts on a constant-Jacobian cocycle whose bundle is not invariant, in
    the evaluator's old per-row form: the frame walked from the past at one row and
    repeated, and a one-symbol window built for every row by _symbol_windows."""
    from uthermo.oseledets import _frames_from_past, _random_orthonormal
    from uthermo.rds import _jacobians, _symbol_windows, reduce_mod1

    steps = min(frame_steps, path.backward_reach)
    pts = np.asarray(pts, dtype=float)
    q0 = _random_orthonormal(cocycle.dim, 0)
    q = _frames_from_past(cocycle, [path], reduce_mod1(pts[:1]), q0[None], steps)
    q = np.repeat(q, len(pts), axis=0)
    syms = _symbol_windows([path] * len(pts), 0, 1)
    table, index = _jacobians(cocycle, syms, pts)
    w = table[index[0]] @ q[:, :, :u_dim]
    dets = np.linalg.det(np.swapaxes(w, 1, 2) @ w)
    return np.array([-0.5 * math.log(abs(float(v))) for v in dets])


def exact_chart_points(disk, params) -> list[tuple]:
    """The points b + t f (mod 1) of a linear-exact 1-d chart at the float params t,
    as exact rationals (the float base point b and direction f taken exactly)."""
    from fractions import Fraction

    base = [Fraction(v) for v in disk.base_lift.tolist()]
    direction = [Fraction(v) for v in disk.frame[:, 0].tolist()]
    return [tuple((b + Fraction(t) * f) % 1 for b, f in zip(base, direction))
            for t in np.asarray(params, dtype=float).tolist()]


def exact_wave_orbit_sums(cocycle, path, potential, points, n: int) -> np.ndarray:
    """S_n(phi) at exact rational points on their exact orbits, for phi a wave, a
    coboundary over the cocycle whose sigma is a wave (sigma(x_n) - sigma(x_0)),
    an x-independent potential, or a weighted sum of these: each point is walked in
    rational arithmetic (integer matrices, translations taken exactly), each phase
    k.x_j is reduced exactly mod 1 and rounded once, and math.cos / math.sin give
    the values."""
    from fractions import Fraction

    orbits = []
    for x in points:
        orbit = [tuple(Fraction(v) for v in x)]
        for j in range(n):
            m = cocycle.maps[path.symbol(j)]
            shift = [Fraction(float(v)) for v in m.translation]
            orbit.append(tuple((sum(int(a) * v for a, v in zip(row, orbit[-1])) + s) % 1
                               for row, s in zip(m.matrix.tolist(), shift)))
        orbits.append(orbit)

    def wave_values(wave, j):
        k, phase, fn, amplitude = wave
        trig = math.cos if fn == "cos" else math.sin
        return np.array([amplitude * trig(
            2.0 * math.pi * float(sum(int(a) * v for a, v in zip(k, orbit[j])) % 1) + phase)
            for orbit in orbits])

    def leaf_sum(leaf):
        if leaf.coboundary is not None and leaf.coboundary[0] is cocycle:
            sigma = leaf.coboundary[1].wave
            return wave_values(sigma, n) - wave_values(sigma, 0)
        if leaf.x_independent:
            return np.full(len(points), sum(leaf.symbol_fn(path.symbol(j)) for j in range(n)))
        if leaf.wave is None:
            raise ValueError(f"{leaf.label} is not a wave")
        return sum(wave_values(leaf.wave, j) for j in range(n))

    return _scalar_terms(potential, leaf_sum, len(points))


def wave_phase_scale(cocycle, disk, potential, n: int, radius: float) -> float:
    """A scale for the rounding error of a wave potential's orbit sums on a linear-exact
    1-d disk: sum over its wave leaves of |weight| * amplitude * sum_j (radius * |beta_j|
    + 2 pi + |phase|), over the steps j each leaf reads (0..n-1, or 0 and n for a
    coboundary), where beta_j = 2 pi k.D_j f is the phase's rate along the leaf.

    A phase at step j is theta_j + t beta_j with |t| <= radius, so an error of a few
    units of the last place in the phases is a few EPS times this scale."""
    images = scalar_tangent_images(cocycle, disk.base.path, disk.base_lift,
                                   disk.frame[:, 0], n)

    def scale(p, weight):
        if p.terms and not p.x_independent:
            return sum(scale(q, weight * abs(w)) for w, q in p.terms)
        if p.x_independent:
            return 0.0
        if p.coboundary is not None and p.coboundary[0] is cocycle:
            wave, steps = p.coboundary[1].wave, (0, n)
        else:
            wave, steps = p.wave, range(n)
        k, phase, _, amplitude = wave
        return weight * abs(amplitude) * sum(
            radius * abs(2.0 * math.pi * float(np.dot(k, images[j]))) + 2.0 * math.pi
            + abs(phase) for j in steps)

    return scale(potential, 1.0)


# ---------------------------------------------------------------------------
# Checkers and transforms that only the tests call
# ---------------------------------------------------------------------------


def skew_step(cocycle, state, n: int = 1):
    """Apply the skew product (or its inverse) n times."""
    from uthermo import SkewState, compose

    pt = compose(cocycle, state.path, n, state.point)
    return SkewState(path=state.path.shifted(n), point=pt)


def integrability_check(system, cocycle, samples: int, seed: int = 0) -> float:
    """Monte-Carlo estimate of the mean positive-log smoothness of one step.

    Averages log+ of the stored forward and backward C^2 bounds over
    symbols drawn from the stationary law, and asserts the result finite.
    """
    from uthermo import EstimatorError, InvalidSystem

    if samples < 1:
        raise InvalidSystem("samples must be >= 1")
    for i, m in enumerate(cocycle.maps):
        if m.c2_bound is None or m.c2_bound_inverse is None:
            raise InvalidSystem(f"map {i} is missing a c2 bound")
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xC2])
    draws = rng.choice(system.symbol_count, size=samples, p=system.distribution_array)
    logplus = np.array(
        [
            max(math.log(m.c2_bound), 0.0) + max(math.log(m.c2_bound_inverse), 0.0)
            for m in cocycle.maps
        ]
    )
    estimate = float(np.mean(logplus[draws]))
    if not math.isfinite(estimate):
        raise EstimatorError("integrability estimate is not finite")
    return estimate


class OffLeafError(ValueError):
    """A queried point does not lie on the disk within tolerance."""


def param_of(disk, y, tol: float = 1e-8, radius_slack: float = 1.0):
    """Invert disk's chart at y; raises OffLeafError beyond tolerance."""
    ya = y.as_array()
    if disk.construction == "linear-exact":
        diff = ya - disk.base_lift
        diff -= np.round(diff)
        t = disk.frame.T @ diff
        residual = float(np.linalg.norm(diff - disk.frame @ t))
        if residual > tol:
            raise OffLeafError(f"point off leaf (residual {residual:.2e})")
        if np.any(np.abs(t) > disk.radius * radius_slack + tol):
            raise OffLeafError("point outside the chart domain")
        return float(t[0]) if disk.leaf_dim == 1 else t
    # polyline: nearest vertex, then projection on the adjacent segment
    diffs = disk.points_lift - ya
    diffs -= np.round(diffs)
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    i = int(np.argmin(d2))
    best_t, best_res = disk.params[i], math.sqrt(d2[i])
    for j in (i - 1, i):
        if 0 <= j < len(disk.params) - 1:
            a = disk.points_lift[j]
            b = disk.points_lift[j + 1]
            ya_loc = ya + np.round(a - ya)
            seg = b - a
            denom = float(seg @ seg)
            if denom == 0.0:
                continue
            lam = float(np.clip((ya_loc - a) @ seg / denom, 0.0, 1.0))
            proj = a + lam * seg
            res = float(np.linalg.norm(proj - ya_loc))
            if res < best_res:
                best_res = res
                best_t = disk.params[j] + lam * (disk.params[j + 1] - disk.params[j])
    if best_res > tol:
        raise OffLeafError(f"point off leaf (residual {best_res:.2e})")
    return float(best_t)


def leaf_distance(disk, y1, y2, tol: float = 1e-8) -> float:
    """Arc length along the leaf between two points of the disk."""
    t1 = param_of(disk, y1, tol=tol)
    t2 = param_of(disk, y2, tol=tol)
    if disk.leaf_dim == 1:
        return abs(float(t1) - float(t2))
    return float(np.linalg.norm(np.asarray(t1) - np.asarray(t2)))


def bowen_distance(cocycle, disk, n: int, y1, y2) -> float:
    """Dynamical leaf distance: max over steps 0..n-1 of image leaf distance."""
    from uthermo.leafgeom import _image_norms, bowen_step_arcs

    if n < 1:
        raise ValueError("need n >= 1")
    if disk.leaf_dim == 1:
        t1 = param_of(disk, y1, radius_slack=1.0 + 1e-9)
        t2 = param_of(disk, y2, radius_slack=1.0 + 1e-9)
        arcs = bowen_step_arcs(cocycle, disk, n, np.array([t1, t2]))
        return float(np.max(np.abs(arcs[:, 0] - arcs[:, 1])))
    t1 = np.asarray(param_of(disk, y1))
    t2 = np.asarray(param_of(disk, y2))
    diff = disk.frame @ (t1 - t2)
    return float(np.max(_image_norms(cocycle, [disk], diff[None], n)))


def leaf_volume(disk, region=None) -> float:
    """Leaf volume (length for 1-d leaves) of a parameter region of the disk."""
    if disk.leaf_dim == 1:
        if region is None:
            return 2.0 * disk.radius
        a, b = float(region[0]), float(region[1])
        lo = max(min(a, b), -disk.radius)
        hi = min(max(a, b), disk.radius)
        return max(0.0, hi - lo)
    if region is None:
        return (2.0 * disk.radius) ** 2
    (a1, b1), (a2, b2) = region
    lo1, hi1 = max(min(a1, b1), -disk.radius), min(max(a1, b1), disk.radius)
    lo2, hi2 = max(min(a2, b2), -disk.radius), min(max(a2, b2), disk.radius)
    return max(0.0, hi1 - lo1) * max(0.0, hi2 - lo2)


def verify_separation(result, cocycle, disk, tol: float = 0.0) -> bool:
    """Exact pairwise check that a SeparatedSetResult's points are (n, eps)-separated
    (quadratic; meant for small sets)."""
    from uthermo import EstimatorError

    if result.points is None:
        raise EstimatorError("points were not materialized for this set")
    pts = [disk.chart(float(t)) for t in np.atleast_1d(result.points)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if bowen_distance(cocycle, disk, result.n, pts[i], pts[j]) <= result.epsilon - tol:
                return False
    return True


def per_symbol_potential(table, label: str | None = None):
    """A potential that reads one constant per symbol from table."""
    from uthermo import Potential

    tab = tuple(float(v) for v in table)
    return Potential(
        label=label or "per-symbol",
        l1_bound=max(abs(v) for v in tab),
        lipschitz=0.0,
        symbol_fn=lambda s, tab=tab: tab[s],
    )


def cohomologous_transform(cocycle, phi, sigma, c):
    """phi + sigma o Theta - sigma - c, with bounds propagated.

    c may be a scalar or a per-symbol table; its mean shifts the pressure
    down by the base average of c while the coboundary leaves it unchanged.
    """
    from uthermo import combine_potentials, constant_potential
    from uthermo.thermo import theta_coboundary

    if np.isscalar(c):
        c_pot = constant_potential(float(c), label=f"c:{float(c):g}")
    else:
        c_pot = per_symbol_potential(c, label="c-table")
    return combine_potentials(
        [(1.0, phi), (1.0, theta_coboundary(cocycle, sigma)), (-1.0, c_pot)],
        label=f"{phi.label}+cob({sigma.label})-c",
    )


def mixing_inequality_check(p, a) -> tuple[bool, float]:
    """Weighted log-sum inequality: sum p_i (a_i - log p_i) <= s (log sum e^a - log s).

    p entries must lie in [0, 1] with positive total s (s > 1 allowed);
    0 log 0 reads as 0.  Returns (holds, slack) with slack = rhs - lhs.
    """
    from uthermo.thermo import _logsumexp

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


@dataclass(frozen=True)
class EntropyGapReport:
    gap: float
    combined_ci: float
    passed: bool


def entropy_estimator_gap(bowen, partition) -> EntropyGapReport:
    """Absolute disagreement of the two leafwise entropy estimators."""
    gap = abs(bowen.value - partition.value)
    ci = bowen.ci + partition.ci
    return EntropyGapReport(gap=gap, combined_ci=ci, passed=gap <= ci)
