"""Lyapunov spectra, expanding bundles, and expansion certificates.

Exponents come from QR accumulation along a sampled orbit.  The expanding
bundle at the orbit's origin is recovered by pushing a frame forward from
the past; the certificate pulls the complementary bundle from the future.
Certificates are sampled statements ("no counterexample at this
resolution"), never proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .rds import (
    Cocycle,
    DrivingSystem,
    EstimatorError,
    SymbolPath,
    TorusPoint,
    WindowExhausted,
    sample_path,
)

__all__ = [
    "OseledetsReport",
    "HyperbolicityCertificate",
    "lyapunov_spectra",
    "lyapunov_spectrum",
    "unstable_dimension",
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


@dataclass(frozen=True)
class OseledetsReport:
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


@dataclass(frozen=True)
class HyperbolicityCertificate:
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
    return _umath_linalg.qr_reduced(mat, tau), np.diagonal(mat, axis1=-2, axis2=-1)


def _positive_q(mat: np.ndarray) -> np.ndarray:
    """Q of a QR with a nonnegative R diagonal; mat is overwritten (_householder_qr)."""
    q, diag = _householder_qr(mat)
    return np.negative(q, out=q, where=(diag < 0)[..., None, :])


def _symbol_windows(paths, start: int, steps: int, inverse: bool = False) -> np.ndarray:
    """Symbols of each path in walk order, shape (S, steps).

    Forward walks read relative times start .. start+steps-1; inverse walks
    read start-1 down to start-steps.  Any time outside a path's sampled
    window raises WindowExhausted, as SymbolPath.symbol does.
    """
    if inverse:
        times = np.arange(start - 1, start - steps - 1, -1)
    else:
        times = np.arange(start, start + steps)
    out = np.empty((len(paths), steps), dtype=np.int64)
    arrays: dict[int, np.ndarray] = {}  # shifted copies of a path share its tuple
    for i, path in enumerate(paths):
        t = times + path.origin_offset
        outside = np.abs(t) > path.half_window
        if outside.any():
            bad = int(t[np.argmax(outside)])
            raise WindowExhausted(
                f"time {bad} outside sampled window "
                f"[-{path.half_window}, {path.half_window}]"
            )
        key = id(path.symbols)
        if key not in arrays:
            arrays[key] = np.asarray(path.symbols, dtype=np.int64)
        out[i] = arrays[key][t + path.half_window]
    return out


def _map_step(cocycle: Cocycle, syms: np.ndarray, pts: np.ndarray, method: str) -> np.ndarray:
    """Call one MapDescriptor method on points pts (..., d) with the maps syms (...) name."""
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


def _orbit(
    cocycle: Cocycle, syms: np.ndarray, pts: np.ndarray, backward: bool = False
) -> np.ndarray:
    """The orbit (steps, S, d) of points pts (S, d) along syms (S, steps), walked once.

    Forward, row j is the point the map of column j acts on: row 0 is pts
    itself.  Backward, row j is pts pulled back through columns 0..j.  Only
    apply/inverse_apply are called, one stacked call per step.
    """
    out = np.empty((syms.shape[1],) + pts.shape)
    if backward:
        for j, col in enumerate(syms.T):
            pts = out[j] = _map_step(cocycle, col, pts, "inverse_apply")
    elif len(out):
        out[0] = pts
        for j in range(1, len(out)):
            out[j] = _map_step(cocycle, syms[:, j - 1], out[j - 1], "apply")
    return out


def _jacobians(
    cocycle: Cocycle, syms: np.ndarray, pts: np.ndarray, backward: bool = False
) -> np.ndarray:
    """The one-step Jacobians (steps, S, d, d) along syms (S, steps), in walk order.

    The one place that chooses how Jacobians are made: a constant-Jacobian
    cocycle gathers them from a per-symbol table; otherwise the orbit
    through pts (S, d) is walked first (_orbit) and all of its Jacobians
    are made in one jacobian call per symbol.  Row j is Df, by the map of
    column j, at row j of _orbit(syms, pts, backward).
    """
    if syms.size:  # InvalidSystem, as Cocycle.map_for raises, for a symbol with no map
        cocycle.map_for(int(syms.max()))
    if cocycle.has_constant_jacobian:
        origin = np.zeros(cocycle.dim)
        return np.stack([m.jacobian(origin) for m in cocycle.maps])[syms.T]
    return _map_step(cocycle, syms.T, _orbit(cocycle, syms, pts, backward), "jacobian")


def _log_abs_dets(jacs: np.ndarray) -> np.ndarray:
    """log |det J| of each Jacobian in a stack; a degenerate one raises EstimatorError."""
    det = np.linalg.det(jacs)
    if np.any(np.abs(det) < 1e-12):
        raise EstimatorError("degenerate one-step Jacobian along the orbit")
    return np.log(np.abs(det))


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
    for j, jac in enumerate(_jacobians(cocycle, _symbol_windows(paths, 0, steps), pts)):
        out[:, j + 1] = jac @ out[:, j]
    return out


def _qr_walk(jacs, q: np.ndarray, logs: np.ndarray | None = None) -> np.ndarray:
    """Push stacked frames q (S, d, d) through the Jacobians jacs, (S, d, d) each, in
    order, re-orthonormalising by QR with a nonnegative R diagonal; returns the
    final Q.  Given logs (S, d), each step's log |diag R| is added to it.

    The signs are fixed once, at the end.  Householder QR is odd in each
    column, qr(A D) = (Q, R D) bitwise for D = diag(+-1), so the walk can carry
    LAPACK's Q and flip the columns whose R diagonal was negative an odd number
    of times.  This equals fixing the signs at every step unless some step's R
    diagonal is exactly 0, which only an exactly singular step can make.
    """
    flip = np.zeros(q.shape[:-2] + q.shape[-1:], dtype=bool)
    for jac in jacs:
        q, diag = _householder_qr(jac @ q)
        flip ^= diag < 0
        if logs is not None:
            logs += np.log(np.abs(diag))
    return np.negative(q, out=q, where=flip[..., None, :])


def _frames_from_past(
    cocycle: Cocycle, paths, pts: np.ndarray, q0: np.ndarray, steps: int
) -> np.ndarray:
    """Push frames q0 (S, d, d) forward from `steps` in the past to each path's origin.

    The Jacobians are those of the orbit pulled back from the origin points
    pts (S, d), at x_-steps .. x_-1, taken in reverse walk order.
    """
    syms = _symbol_windows(paths, 0, steps, inverse=True)
    return _qr_walk(_jacobians(cocycle, syms, pts, backward=True)[::-1], q0)


def _frames_from_future(
    cocycle: Cocycle, paths, pts: np.ndarray, q0: np.ndarray, steps: int
) -> np.ndarray:
    """Pull frames q0 (S, d, d) back from `steps` ahead to each path's origin, through
    the inverse Jacobians of the forward orbit from pts (S, d), last step first."""
    syms = _symbol_windows(paths, 0, steps)
    return _qr_walk(np.linalg.inv(_jacobians(cocycle, syms, pts)[::-1]), q0)


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

    The orbit engine: all samples walk together as stacked (S, d, d)
    frames, one numpy call per step, through the Jacobian stacks of
    _jacobians.  Each report is bitwise equal to walking its sample alone
    whenever the maps' stacked calls round as their one-point calls do:
    always for constant-Jacobian cocycles, which make no map calls, and for
    the sheared cat and 3-torus maps.  The expanding frame is the limit
    flag of a push from frame_steps in the past, along the orbit pulled
    back from x.  log_det_sum adds log |det J| over the n forward
    Jacobians in step order.  Exponents are averaged log diagonal entries
    of the R factors over n forward steps, starting from the expanding
    frame, clustered by CLUSTER_GAP.  Each sample starts its frame push
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
    d = cocycle.dim
    pts = np.stack(points)
    q0 = np.stack([_random_orthonormal(d, seed) for seed in seeds])

    syms = _symbol_windows(paths, 0, n)
    if frame_steps is None:
        frame_steps = min(n, 512)
    steps = [min(frame_steps, p.backward_reach, p.forward_reach) for p in paths]
    if min(steps) < 1:
        raise EstimatorError("path window too small for frame estimation")
    groups = [(fs, [i for i, s in enumerate(steps) if s == fs]) for fs in sorted(set(steps))]

    # the forward orbit's Jacobians give the exponents and log |det J|
    forward = _jacobians(cocycle, syms, pts)
    log_det = np.cumsum(_log_abs_dets(forward), axis=0)[-1]

    # the exponent walk starts from the frame pushed from the past, which
    # already spans the Oseledets flag, so it carries no start-up transient
    q_fwd = np.empty_like(q0)
    for fs, idx in groups:
        q_fwd[idx] = _frames_from_past(cocycle, [paths[i] for i in idx], pts[idx], q0[idx], fs)
    logs = np.zeros((len(paths), d))
    _qr_walk(forward, q_fwd, logs)
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


def lyapunov_spectrum(
    cocycle: Cocycle,
    path: SymbolPath,
    x: TorusPoint,
    n: int,
    frame_steps: int | None = None,
    frame_seed: int = 0,
) -> OseledetsReport:
    """The spectrum at one (path, x): lyapunov_spectra for a single sample."""
    return lyapunov_spectra(
        cocycle, [path], [x], n, frame_steps=frame_steps, frame_seeds=[frame_seed]
    )[0]


def unstable_dimension(report: OseledetsReport) -> int:
    """Number of expanding Lyapunov blocks; 0 means the local leaf is a point."""
    return report.unstable_index


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
    the last expanding block (QR-stable; pushing individual complementary
    vectors forward amplifies rounding along the expanding direction), and
    track the co-norm of each one-step derivative restricted to the
    transported expanding frame; the complementary frame, pulled back from
    min(spectrum_n, 512) steps ahead, is transported with it.  The verdict
    is certified only when every sample expands (co-norm > 1) and is
    dominated (gap < 0) beyond CERTIFY_MARGIN; decisive counterevidence
    yields violated; anything in between is inconclusive.
    """
    if samples < 10:
        raise ValueError("need samples >= 10")
    if n < 1:
        raise ValueError("need n >= 1")
    if spectrum_n is None:
        spectrum_n = max(600, n)
    half_window = max(spectrum_n, n) + 2
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0xCE57])
    d = cocycle.dim

    path_seeds, paths, xs = [], [], []
    for _ in range(samples):
        path_seeds.append(int(rng.integers(0, 2**63 - 1)))
        paths.append(sample_path(system, half_window, path_seeds[-1]))
        xs.append(TorusPoint(tuple(rng.random(d))))
    reports = lyapunov_spectra(cocycle, paths, xs, spectrum_n, frame_seeds=path_seeds)
    pts = np.stack([x.as_array() for x in xs])
    q0 = np.stack([_random_orthonormal(d, s) for s in path_seeds])
    q_bwd = _frames_from_future(cocycle, paths, pts, q0, min(spectrum_n, 512))

    # domination gap per sample with a nontrivial leaf; samples that share
    # a frame shape and a tracked complement transport together
    gaps: dict[int, float] = {}
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, report in enumerate(reports):
        u, exps = report.unstable_index, report.exponents
        if u == 0:
            continue
        gaps[i] = exps[u] - exps[u - 1] if u < len(exps) else float("-inf")
        groups.setdefault((report.unstable_dim, report.unstable_dim < d), []).append(i)

    # transport frames and record per-step growth; the complementary span
    # drifts toward faster directions at the domination rate, so the ratio
    # diagnostic is windowed to stay below that horizon.
    transported: dict[int, tuple[float, float]] = {}  # (least co-norm, ratio bound)
    for (u_dim, track), idx in groups.items():
        frame = np.stack([reports[i].eu_frame for i in idx])
        fu = q_bwd[idx, :, : d - u_dim]
        gap = np.array([gaps[i] for i in idx])
        lam_min = np.full(len(idx), math.inf)
        log_f_fast, log_e_slow, ratio_logs = np.zeros(len(idx)), np.zeros(len(idx)), []
        syms = _symbol_windows([paths[i] for i in idx], 0, n)
        for j, jac in enumerate(_jacobians(cocycle, syms, pts[idx])):
            img = jac @ frame
            lam_min = np.minimum(lam_min, np.linalg.svd(img, compute_uv=False)[:, -1])
            if track and j < min(n, 30):
                fu_img = jac @ fu
                log_f_fast += np.max(np.log(np.linalg.norm(fu_img, axis=-2)), axis=-1)
                log_e_slow += np.min(np.log(np.linalg.norm(img, axis=-2)), axis=-1)
                fu = _positive_q(fu_img)
                ratio_logs.append(log_f_fast - log_e_slow - gap * (j + 1))
            frame = _positive_q(img)  # last: the QR overwrites img
        for k, i in enumerate(idx):
            ratio_max = max([1.0] + [math.exp(r[k]) for r in ratio_logs])
            transported[i] = (float(lam_min[k]), ratio_max)

    records = [
        {"sample": i, "unstable_index": rep.unstable_index, "gap": gaps[i],
         "expansion": transported[i][0]} if i in gaps else {"sample": i, "unstable_index": 0}
        for i, rep in enumerate(reports)
    ]
    if len(gaps) < samples:
        return HyperbolicityCertificate(
            domination_ratio_log=float("nan") if not gaps else max(gaps.values()),
            expansion_lower=0.0,
            constants=float("nan"),
            samples=samples,
            verdict="violated",
            per_sample=tuple(records),
        )

    expansion_lower = min(transported[i][0] for i in gaps)
    domination = max(gaps.values())
    constants = max(transported[i][1] for i in gaps)
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
