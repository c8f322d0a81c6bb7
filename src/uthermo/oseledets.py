"""Lyapunov spectra, expanding bundles, and expansion certificates.

Exponents come from QR accumulation along a sampled orbit.  The expanding
bundle at the orbit's origin is recovered by pushing a frame forward from
the past; the certificate reads the complementary bundle at every orbit
point off one backward walk from the future.
Certificates are sampled statements ("no counterexample at this
resolution"), never proofs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .rds import (
    Cocycle,
    DrivingSystem,
    EstimatorError,
    TorusPoint,
    _jacobians,
    _symbol_windows,
    sample_path,
)

__all__ = [
    "OseledetsReport",
    "HyperbolicityCertificate",
    "lyapunov_spectra",
    "certify_partial_hyperbolicity",
]

# Exponents closer than this (nats/step) merge into one block; estimates at
# desk-scale orbit lengths cannot resolve finer gaps reliably.
CLUSTER_GAP = 0.02

# A cluster counts as expanding only if its exponent clears this margin, so
# an exactly-neutral direction estimated at +1e-15 is not misclassified.
POSITIVE_MARGIN = CLUSTER_GAP / 2.0

# A certificate is issued only if the least leaf co-norm exceeds 1 and the
# domination gap lies below 0, each by this much.
CERTIFY_MARGIN = 0.02


class OseledetsReport(NamedTuple):
    """Estimated Lyapunov data at one sampled state.

    exponents are cluster means in decreasing order, multiplicities the
    cluster sizes (summing to the fiber dimension).  unstable_index counts
    the expanding clusters; eu_frame is an orthonormal basis of the
    estimated expanding bundle.
    log_det_sum is the sum of log |det J| over the n one-step Jacobians.
    """

    exponents: tuple[float, ...]
    multiplicities: tuple[int, ...]
    unstable_index: int
    eu_frame: np.ndarray
    orbit_length: int
    raw_exponents: tuple[float, ...]
    log_det_sum: float = math.nan

    @property
    def unstable_dim(self) -> int:
        """Dimension of the expanding bundle (multiplicity-weighted)."""
        return int(sum(self.multiplicities[: self.unstable_index]))

    def to_json_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "multiplicities": list(self.multiplicities),
            "unstable_index": self.unstable_index,
            "orbit_length": self.orbit_length,
        }


class HyperbolicityCertificate(NamedTuple):
    """Sampled evidence for domination plus uniform leafwise expansion."""

    domination_ratio_log: float
    expansion_lower: float
    constants: float
    samples: int
    verdict: str
    per_sample: tuple[dict, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "domination_ratio_log": self.domination_ratio_log,
            "expansion_lower": self.expansion_lower,
            "constants": self.constants,
            "samples": self.samples,
            "verdict": self.verdict,
        }


def _random_orthonormal(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x0F])
    return _positive_q(rng.standard_normal((dim, dim)))


# Every QR in this module is these two LAPACK calls (geqrf, then orgqr), made
# through numpy's private gufuncs (qr_r_raw needs numpy >= 2.0; 1.x splits it
# into qr_r_raw_m and qr_r_raw_n).  np.linalg.qr makes the same two calls and
# so returns the same bits, but its Python wrapper (dtype checks, a copy, two
# errstate blocks, a triu) costs more than LAPACK on the small stacks of a walk.
def _householder_qr(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q and the diagonal of R, signs as LAPACK leaves them, for a (..., d, k) stack
    with k <= d.  mat must be a float64 array the caller no longer needs: it is
    overwritten with the factorisation, and the diagonal returned is a view of it."""
    tau = _umath_linalg.qr_r_raw(mat)
    return _umath_linalg.qr_reduced(mat, tau), mat.diagonal(0, -2, -1)


def _positive_q(mat: np.ndarray) -> np.ndarray:
    """Q of a QR with a nonnegative R diagonal; mat is overwritten (_householder_qr)."""
    q, diag = _householder_qr(mat)
    return np.negative(q, out=q, where=(diag < 0)[..., None, :])


def _log_abs_dets(det: np.ndarray) -> np.ndarray:
    """log |det J| from the dets of the Jacobians a walk visits; a degenerate one raises
    EstimatorError."""
    if np.any(np.abs(det) < 1e-12):
        raise EstimatorError("degenerate one-step Jacobian along the orbit")
    return np.log(np.abs(det))


# The first closure attempt of a table walk (_qr_walk): cat-map and A/A^2
# frames close within 23 steps, and as attempts double and need a walk eight
# times as long, one that never closes tries once in 192-383 steps, at the
# cost of one or two steps.
FIRST_CLOSURE = 24


def _closed_frames(table: np.ndarray, q: np.ndarray):
    """The frames reachable from the frames q (S, d, k) by the steps of table (m, d, d).

    Frames are compared bit for bit.  Starting from the distinct frames of q,
    each new frame is stepped by every symbol's Jacobian, breadth first, until
    no new frame appears: then returns (frames (u, d, k), the state each
    frame and symbol step to (u, m), their R diagonals (u, m, k), each
    sample's state (S,)).  Gives None as soon as more than min(8, 2 + S // 4)
    frames are found, so that a failed attempt costs about one or two walk
    steps and the state maps of _table_walk stay small.
    """
    index: dict[bytes, int] = {}
    frames: list[np.ndarray] = []

    def states(new: np.ndarray) -> list[int]:
        out = []
        for frame in new:
            out.append(index.setdefault(frame.tobytes(), len(frames)))
            if out[-1] == len(frames):
                frames.append(frame)
        return out

    state = np.array(states(q))
    nxt, diags, done = [], [], 0
    while done < len(frames):
        if len(frames) > min(8, 2 + len(q) // 4):
            return None
        stepped, diag = _householder_qr(table @ np.stack(frames[done:])[:, None])
        done = len(frames)
        nxt += states(stepped.reshape((-1,) + q.shape[1:]))
        diags.append(diag)
    return np.stack(frames), np.reshape(nxt, (-1, len(table))), np.concatenate(diags), state


def _table_walk(closed, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Walk closed frames (_closed_frames) along the table rows index (steps, S or 1) by
    table reads: the R diagonals go to out (steps, S, k), and the final frames (S, d, k)
    are returned.

    The states after each step are read off the prefix compositions of the
    per-step state maps, composed by doubling."""
    frames, nxt, diag, state = closed
    index = np.broadcast_to(index, out.shape[:2])
    maps = np.take(nxt.T.copy(), index, axis=0)  # maps[t, i, u]: after step t from u
    # at[t, i]: where maps[t0 + t, i] starts in maps[t0:] flattened, for any t0
    at = np.arange(0, maps.size, len(frames)).reshape(maps.shape[:2] + (1,))
    shift = 1
    while shift < len(maps):  # maps[t] becomes the composition of steps 0 .. t
        maps[shift:] = np.take(maps[shift:], maps[:-shift] + at[:-shift])
        shift *= 2
    after = np.take(maps.reshape(len(maps), -1), at[0, :, 0] + state, axis=1)
    out[0] = diag[state, index[0]]
    out[1:] = diag[after[:-1], index[1:]]
    return frames[after[-1]]


def _qr_walk(table: np.ndarray, index: np.ndarray, q: np.ndarray,
             logs: np.ndarray | None = None) -> np.ndarray:
    """Push stacked frames q (S, d, k) through the Jacobians (table, index) of
    rds._jacobians, step t's being table[index[t]] (index (steps, S or 1)), in order,
    re-orthonormalising by QR with a nonnegative R diagonal; returns the final Q.
    Given logs (S, k), each step's log |diag R| is added to it.

    A step is the product and the QR alone; the R diagonals are kept and their
    signs and logs are folded once, after the walk.  Householder QR is odd in
    each column, qr(A D) = (Q, R D) bitwise for D = diag(+-1), so the walk can
    carry LAPACK's Q and flip the columns whose R diagonal was negative an odd
    number of times.  This equals fixing the signs at every step unless some
    step's R diagonal is exactly 0, which only an exactly singular step can
    make.  The logs are summed by a running cumsum that starts from logs, so
    they get the bits of adding each step's logs to them in turn.

    A step is a function of the bits of a frame and its table row: matmul
    makes one product per matrix, and the LAPACK gufuncs factor one matrix at
    a time, so no frame's result depends on the others in its stack.  So once
    the distinct frames the walk has reached are closed under every row's
    step (_closed_frames), every later step is a table read of a (Q, diag R)
    already computed, and the rest of the walk is read off those tables
    (_table_walk) with the same bits.  Only a table with fewer rows than the
    walk has steps can repeat a step, so only such a walk (a constant-Jacobian
    cocycle's per-symbol table) tries closure: after 24, 48, 96, ... steps
    while the walk is at least eight times as long, given up once the frames
    outnumber min(8, 2 + S // 4).  Cat-map and A/A^2 frames close within 23
    steps, in 1-3 states; non-commuting switching (A/B) never closes, and the
    frames of configs/t3_rot.system only after some 775 steps, once their
    cross-block entries underflow.
    """
    steps = len(index)
    if not steps:
        return q
    diags = np.empty((steps,) + np.broadcast_shapes(index.shape[1:], q.shape[:-2])
                     + q.shape[-1:])
    t = 0
    while t < steps:
        stop = 2 * t or FIRST_CLOSURE
        if len(table) >= steps or 8 * stop > steps:
            stop = steps
        for jac, diag in zip(table[index[t:stop]], diags[t:stop]):
            q, diag[...] = _householder_qr(jac @ q)
        t = stop
        closed = t < steps and _closed_frames(table, q)
        if closed:
            q = _table_walk(closed, index[t:], diags[t:])
            break
    flip = np.logical_xor.reduce(diags < 0, axis=0)
    if logs is not None:
        # log |diag R| and its running sum, in place in the one buffer
        np.log(np.abs(diags, out=diags), out=diags)
        np.add(logs, diags[0], out=diags[0])
        np.cumsum(diags, axis=0, out=diags)
        logs[...] = diags[-1]
    return np.negative(q, out=q, where=flip[..., None, :])


def _frames_from_past(
    cocycle: Cocycle, paths, pts: np.ndarray, q0: np.ndarray, steps: int
) -> np.ndarray:
    """Push frames q0 (S, d, d) forward from `steps` in the past to each path's origin.

    The Jacobians are those of the orbit pulled back from the origin points
    pts (S, d), at x_-steps .. x_-1, walked in reverse of the pull-back's order.
    """
    syms = _symbol_windows(paths, 0, steps, inverse=True)
    table, index = _jacobians(cocycle, syms, pts, backward=True)
    return _qr_walk(table, index[::-1], q0)


def _covariant_frames(table: np.ndarray, index: np.ndarray, q: np.ndarray,
                      keep: int) -> np.ndarray:
    """The frames (keep, S, d, d) at steps 0 .. keep-1 of one walk pulling q (S, d, d)
    back through the inverses of the Jacobians (table, index) (rds._jacobians), last
    step first: their leading columns converge onto E^cs there (Ginelli et al. 2007).
    Signs are LAPACK's.  The table is inverted once; the steps before the kept frames
    go through _qr_walk on it (a table walk once their frames close), whose sign fold
    the next step's QR undoes, Householder QR being odd in each column."""
    invs = np.linalg.inv(table)
    q = _qr_walk(invs, index[keep:][::-1], q)
    out = np.empty((keep,) + q.shape)
    for t, inv in zip(range(keep - 1, -1, -1), invs[index[:keep][::-1]]):
        q = out[t] = _householder_qr(inv @ q)[0]
    return out


def _cluster(raw: np.ndarray) -> tuple[tuple[float, ...], tuple[int, ...]]:
    clusters: list[list[float]] = [[raw[0]]]
    for val in raw[1:]:
        if clusters[-1][-1] - val < CLUSTER_GAP:
            clusters[-1].append(val)
        else:
            clusters.append([val])
    return tuple(float(np.mean(c)) for c in clusters), tuple(len(c) for c in clusters)


def lyapunov_spectra(
    cocycle: Cocycle,
    paths,
    xs,
    n: int,
    frame_steps: int | None = None,
    frame_seeds=None,
) -> list[OseledetsReport]:
    """QR-accumulated Lyapunov exponents and the expanding frame at each (path, x).

    All samples walk together as stacked (S, d, d) frames, one numpy call
    per step, reading their Jacobians as (table, index) from the orbit
    engine's _jacobians (rds): a constant-Jacobian cocycle's per-symbol
    table by symbol, so that no (n, S, d, d) stack is built and the walks
    turn into table walks once their frames close (_qr_walk); any other
    cocycle's stack in walk order.  Each report is bitwise equal to walking
    its sample alone whenever the maps' stacked calls round as their
    one-point calls do: always for constant-Jacobian cocycles, which make no
    map calls, and for the sheared cat and 3-torus maps.  The expanding
    frame is the limit flag of a push from frame_steps in the past, along
    the orbit pulled back from x.  log_det_sum adds log |det J| over the n
    forward Jacobians in step order (the table's dets gathered along the
    walk).  Exponents are averaged log diagonal entries of the R factors
    over n forward steps, starting from the expanding frame, clustered by
    CLUSTER_GAP.  Each sample starts its frame push
    from its own frame_seeds entry (default 0) and clamps frame_steps to
    its own path window.
    """
    if n < 100:
        raise ValueError("need n >= 100 for a usable exponent estimate")
    paths = list(paths)
    points = [x.as_array() for x in xs]
    seeds = [0] * len(paths) if frame_seeds is None else list(frame_seeds)
    if not (len(paths) == len(points) == len(seeds)):
        raise ValueError("paths, xs and frame_seeds must have the same length")
    if not paths:
        return []
    pts = np.stack(points)
    q0 = np.stack([_random_orthonormal(cocycle.dim, seed) for seed in seeds])
    table, index = _jacobians(cocycle, _symbol_windows(paths, 0, n), pts)
    return _spectra(cocycle, paths, pts, q0, n, frame_steps, table, index)


def _spectra(
    cocycle: Cocycle, paths, pts: np.ndarray, q0: np.ndarray, n: int,
    frame_steps: int | None, table: np.ndarray, index: np.ndarray,
) -> list[OseledetsReport]:
    """lyapunov_spectra's reports, given the samples' starting frames q0 (S, d, d), over
    the first n steps of their orbits from pts (S, d), whose Jacobians are (table,
    index) (rds._jacobians)."""
    if frame_steps is None:
        frame_steps = min(n, 512)
    steps = [min(frame_steps, p.backward_reach, p.forward_reach) for p in paths]
    if min(steps) < 1:
        raise EstimatorError("path window too small for frame estimation")
    groups = [(fs, [i for i, s in enumerate(steps) if s == fs]) for fs in sorted(set(steps))]

    # the forward orbit's Jacobians give the exponents and log |det J|; det
    # factors one matrix at a time, so the table's dets are the stack's
    log_det = np.cumsum(_log_abs_dets(np.linalg.det(table)[index]), axis=0)[-1]

    # the exponent walk starts from the frame pushed from the past, which
    # already spans the Oseledets flag, so it carries no start-up transient
    q_fwd = np.empty_like(q0)
    for fs, idx in groups:
        q_fwd[idx] = _frames_from_past(cocycle, [paths[i] for i in idx], pts[idx], q0[idx], fs)
    logs = np.zeros(q0.shape[:2])
    _qr_walk(table, index, q_fwd, logs)
    raw = np.sort(logs / n, axis=1)[:, ::-1]

    reports = []
    for i in range(len(paths)):
        exponents, multiplicities = _cluster(raw[i])
        u = sum(1 for lam in exponents if lam > POSITIVE_MARGIN)
        u_dim = int(sum(multiplicities[:u]))
        reports.append(
            OseledetsReport(
                exponents=exponents,
                multiplicities=multiplicities,
                unstable_index=u,
                eu_frame=q_fwd[i, :, :u_dim].copy(),
                orbit_length=n,
                raw_exponents=tuple(float(v) for v in raw[i]),
                log_det_sum=float(log_det[i]),
            )
        )
    return reports


def certify_partial_hyperbolicity(
    cocycle: Cocycle,
    system: DrivingSystem,
    samples: int,
    n: int,
    seed: int = 0,
    spectrum_n: int | None = None,
) -> HyperbolicityCertificate:
    """Monte-Carlo certificate of domination and one-step leaf expansion.

    Per sampled (path, point): estimate the spectrum, read the domination
    gap as the rate difference between the first complementary block and
    the last expanding block, and track the co-norm of each one-step
    derivative restricted to the transported expanding frame.  One forward
    Jacobian stack of max(spectrum_n, n + K) steps, K = min(spectrum_n,
    512), serves the spectra (its first spectrum_n steps) and the transport.
    E^cs at x_0 .. x_{n-1} is read off one backward walk from x_{n+K}
    through its first n + K steps; a sample's
    constant is max(1, max_j exp(sum of E^cs stretches - sum of co-norms -
    gap (j + 1))) over steps 0..j, j < n.  The verdict is certified only
    when every sample expands (co-norm > 1) and is dominated (gap < 0)
    beyond CERTIFY_MARGIN; decisive counterevidence yields violated;
    anything in between is inconclusive.
    """
    if samples < 10:
        raise ValueError("need samples >= 10")
    if n < 1:
        raise ValueError("need n >= 1")
    if spectrum_n is None:
        spectrum_n = max(600, n)
    if spectrum_n < 100:
        raise ValueError("need spectrum_n >= 100 for a usable exponent estimate")
    ahead = min(spectrum_n, 512)
    half_window = max(spectrum_n, n + ahead) + 2
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xCE57])
    d = cocycle.dim

    path_seeds, paths, xs = [], [], []
    for _ in range(samples):
        path_seeds.append(int(rng.integers(0, 2**63 - 1)))
        paths.append(sample_path(system, half_window, path_seeds[-1]))
        xs.append(TorusPoint(tuple(rng.random(d))))
    pts = np.stack([x.as_array() for x in xs])
    q0 = np.stack([_random_orthonormal(d, s) for s in path_seeds])
    syms = _symbol_windows(paths, 0, max(spectrum_n, n + ahead))
    table, index = _jacobians(cocycle, syms, pts)
    reports = _spectra(cocycle, paths, pts, q0, spectrum_n, None, table, index[:spectrum_n])
    cs_frames = _covariant_frames(table, index[: n + ahead], q0, n)

    # domination gap per sample with a nontrivial leaf; samples that share
    # an expanding dimension transport together
    gaps: dict[int, float] = {}
    groups: dict[int, list[int]] = {}
    for i, report in enumerate(reports):
        u, exps = report.unstable_index, report.exponents
        if u == 0:
            continue
        gaps[i] = exps[u] - exps[u - 1] if u < len(exps) else float("-inf")
        groups.setdefault(report.unstable_dim, []).append(i)

    transported: dict[int, dict] = {}
    for u_dim, idx in groups.items():
        frame = np.stack([reports[i].eu_frame for i in idx])
        gap = np.array([gaps[i] for i in idx])
        lam_min = np.full(len(idx), math.inf)
        log_cs, log_u, worst = np.zeros((3, len(idx)))
        steps = zip(table[index[:n, idx]], cs_frames[:, idx, :, : d - u_dim])
        for j, (jac, cs) in enumerate(steps):
            img = jac @ frame
            lam_min = np.minimum(lam_min, np.linalg.svd(img, compute_uv=False)[:, -1])
            if u_dim < d:
                log_cs += np.max(np.log(np.linalg.norm(jac @ cs, axis=-2)), axis=-1)
                log_u += np.min(np.log(np.linalg.norm(img, axis=-2)), axis=-1)
                worst = np.maximum(worst, log_cs - log_u - gap * (j + 1))
            frame = _positive_q(img)  # last: the QR overwrites img
        for k, i in enumerate(idx):
            transported[i] = {"expansion": float(lam_min[k]), "constant": math.exp(worst[k])}

    records = [
        {"sample": i, "unstable_index": rep.unstable_index, "gap": gaps[i], **transported[i]}
        if i in gaps else {"sample": i, "unstable_index": 0}
        for i, rep in enumerate(reports)
    ]
    domination = max(gaps.values(), default=float("nan"))
    if len(gaps) < samples:  # some sample's leaf is a point
        expansion_lower, constants = 0.0, float("nan")
    else:
        expansion_lower = min(transported[i]["expansion"] for i in gaps)
        constants = max(transported[i]["constant"] for i in gaps)
    if expansion_lower > 1.0 + CERTIFY_MARGIN and domination < -CERTIFY_MARGIN:
        verdict = "certified"
    elif expansion_lower <= 1.0 or domination >= 0.0:
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return HyperbolicityCertificate(
        domination_ratio_log=domination,
        expansion_lower=expansion_lower,
        constants=constants,
        samples=samples,
        verdict=verdict,
        per_sample=tuple(records),
    )
