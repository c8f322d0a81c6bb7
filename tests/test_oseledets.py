import math

import numpy as np
import pytest

import oracles
from uthermo import (
    bowen_ball_entropy,
    compose,
    Cocycle,
    EstimatorError,
    MapDescriptor,
    OseledetsReport,
    TorusPoint,
    WindowExhausted,
    certify_partial_hyperbolicity,
    derivative,
    geometric_potential,
    GridSpec,
    haar_sampler,
    lyapunov_spectra,
    sample_path,
    topological_entropy,
)
from uthermo import oseledets
from uthermo.equilibria import PHIU_FRAME_STEPS
from uthermo.oseledets import (
    _covariant_frames, _householder_qr, _jacobians, _positive_q, _qr_walk, _symbol_windows,
)
from uthermo.rds import DrivingSystem, SkewState


def _stack(jacs: np.ndarray):
    """A Jacobian stack (steps, S, d, d) in rds._jacobians' form: (flattened, index)."""
    steps, samples = jacs.shape[:2]
    return jacs.reshape((-1,) + jacs.shape[2:]), np.arange(steps * samples).reshape(steps, samples)


class TestSpectrum:
    def test_cat_map_matches_eigenvalues(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 10_100, 1)
        rep = lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.3, 0.4))], 10_000)[0]
        eig = np.sort(np.abs(np.linalg.eigvals(oracles.CAT_MATRIX.astype(float))))[::-1]
        assert rep.exponents[0] == pytest.approx(math.log(eig[0]), abs=1e-3)
        assert rep.exponents[1] == pytest.approx(math.log(eig[1]), abs=1e-3)
        assert rep.unstable_index == 1
        assert rep.multiplicities == (1, 1)

    def test_random_switching_matches_path_exact_value(self, iid_cocycle, iid_system):
        n = 10_000
        path = sample_path(iid_system, n + 200, 3)
        rep = lyapunov_spectra(iid_cocycle, [path], [TorusPoint((0.2, 0.7))], n)[0]
        # closed form along this very path: symbol k contributes (k+1) log(lam+)
        steps = sum(path.symbol(j) + 1 for j in range(n))
        exact_top = steps / n * oracles.CAT_LOG
        assert rep.exponents[0] == pytest.approx(exact_top, abs=1e-3)
        assert rep.exponents[0] == pytest.approx(1.5 * oracles.CAT_LOG, abs=0.03)

    def test_t3_block_structure(self, t3_cocycle, t3_system):
        path = sample_path(t3_system, 4200, 5)
        rep = lyapunov_spectra(t3_cocycle, [path], [TorusPoint((0.3, 0.7, 0.1))], 4000)[0]
        assert rep.unstable_index == 1
        assert len(rep.exponents) == 3
        assert rep.exponents[0] == pytest.approx(oracles.CAT_LOG, abs=0.01)
        assert rep.exponents[1] == pytest.approx(0.0, abs=0.01)
        assert rep.exponents[2] == pytest.approx(-oracles.CAT_LOG, abs=0.01)

    def test_eu_frame_is_unstable_eigvector(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 1200, 1)
        rep = lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.0, 0.0))], 1000)[0]
        frame = rep.eu_frame[:, 0]
        assert abs(abs(frame @ oracles.CAT_UNSTABLE_DIR) - 1.0) < 1e-10
        assert np.linalg.norm(rep.eu_frame.T @ rep.eu_frame - np.eye(1)) < 1e-10

    def test_exponent_sum_matches_determinant_rate(self, iid_cocycle, iid_system):
        # chain rule for determinants, accumulated per step so nothing overflows
        n = 600
        path = sample_path(iid_system, n + 200, 9)
        x = TorusPoint((0.11, 0.83))
        rep = lyapunov_spectra(iid_cocycle, [path], [x], n)[0]
        total = sum(l * m for l, m in zip(rep.exponents, rep.multiplicities))
        log_det = 0.0
        pt = x
        for j in range(n):
            log_det += math.log(abs(np.linalg.det(
                derivative(iid_cocycle, path.shifted(j), 1, pt))))
            pt = compose(iid_cocycle, path.shifted(j), 1, pt)
        assert abs(total - log_det / n) < 1e-6

    def test_frame_seed_invariance(self, iid_cocycle, iid_system):
        path = sample_path(iid_system, 2200, 21)
        x = TorusPoint((0.5, 0.25))
        r1 = lyapunov_spectra(iid_cocycle, [path], [x], 2000, frame_seeds=[1])[0]
        r2 = lyapunov_spectra(iid_cocycle, [path], [x], 2000, frame_seeds=[999])[0]
        assert np.max(np.abs(np.array(r1.exponents) - np.array(r2.exponents))) < 2e-3

    def test_eu_frame_equivariance(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 1300, 2)
        x = TorusPoint((0.21, 0.86))
        rep = lyapunov_spectra(cat_cocycle, [path], [x], 1000)[0]
        state = SkewState(path=path, point=x)
        nxt = oracles.skew_step(cat_cocycle, state, 1)
        rep_next = lyapunov_spectra(cat_cocycle, [nxt.path], [nxt.point], 1000)[0]
        pushed = cat_cocycle.maps[0].matrix.astype(float) @ rep.eu_frame
        pushed = _positive_q(pushed)
        angle = math.acos(min(1.0, abs(float(pushed[:, 0] @ rep_next.eu_frame[:, 0]))))
        assert angle <= 1e-3

    def test_short_orbit_rejected(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 200, 1)
        with pytest.raises(ValueError):
            lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.1, 0.1))], 50)[0]


class _SingularMap(MapDescriptor):
    """A map whose one-step Jacobian is singular at every point."""

    def jacobian(self, pts):
        return 0.0 * super().jacobian(pts)


# (half_window, origin_offset) per sample: shifted origins, and windows short
# enough that the frame length is clamped differently from sample to sample
_BATCH_WINDOWS = ((260, 0), (230, 7), (260, -150), (205, -50), (500, 0))


class TestOrbitEngine:
    """The batched walk against the one-sample, one-step scalar reference."""

    @pytest.mark.parametrize(
        "name", ["cat_cocycle", "iid_cocycle", "t3_cocycle", "perturbed_cat_cocycle",
                 "sheared_plane_leaf_cocycle"]
    )
    def test_batch_bitwise_equals_scalar_walk(self, name, request, iid_system, trivial_system):
        cocycle = request.getfixturevalue(name)
        system = iid_system if len(cocycle.maps) > 1 else trivial_system
        rng = np.random.default_rng(4)
        n = 200
        paths = [sample_path(system, hw, 30 + i).shifted(off)
                 for i, (hw, off) in enumerate(_BATCH_WINDOWS)]
        xs = [TorusPoint(tuple(rng.random(cocycle.dim))) for _ in paths]
        seeds = [11, 12, 13, 14, 15]
        # the default frame length, and one beyond n that some samples reach
        for frame_steps, groups in ((None, 3), (250, 4)):
            reports = lyapunov_spectra(cocycle, paths, xs, n, frame_steps=frame_steps,
                                       frame_seeds=seeds)
            fs = frame_steps or n
            clamped = [min(fs, p.backward_reach, p.forward_reach) for p in paths]
            assert len(set(clamped)) == groups
            for path, x, seed, rep in zip(paths, xs, seeds, reports):
                raw, q_fwd, log_det = oracles.scalar_spectrum(
                    cocycle, path, x.as_array(), n, frame_steps=frame_steps, frame_seed=seed)
                u_dim = rep.eu_frame.shape[1]
                assert np.array_equal(np.array(rep.raw_exponents), raw)
                assert np.array_equal(rep.eu_frame, q_fwd[:, :u_dim])
                if cocycle.has_constant_jacobian:
                    # summed in step order, as the reference sums math.log
                    assert rep.log_det_sum == log_det
                else:
                    assert rep.log_det_sum == pytest.approx(log_det, abs=1e-9)
                single = lyapunov_spectra(cocycle, [path], [x], n, frame_steps=frame_steps,
                                          frame_seeds=[seed])[0]
                assert single.raw_exponents == rep.raw_exponents
                assert np.array_equal(single.eu_frame, rep.eu_frame)

    def test_one_short_window_raises(self, iid_cocycle, iid_system):
        paths = [sample_path(iid_system, 300, 1), sample_path(iid_system, 150, 2),
                 sample_path(iid_system, 300, 3)]
        xs = [TorusPoint((0.1, 0.2))] * 3
        with pytest.raises(WindowExhausted):
            lyapunov_spectra(iid_cocycle, paths, xs, 200)

    def test_shifted_origin_past_window_raises(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 250, 1).shifted(60)
        with pytest.raises(WindowExhausted):
            lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.1, 0.2))], 200)

    def test_times_before_window_do_not_wrap(self, trivial_system):
        # a negative array index would silently read the far end of the window
        path = sample_path(trivial_system, 50, 1)
        with pytest.raises(WindowExhausted, match="time -60"):
            _symbol_windows([path], -60, 20)
        with pytest.raises(WindowExhausted, match="time -51"):
            _symbol_windows([path], 0, 60, inverse=True)

    @pytest.mark.parametrize("sheared", [False, True])
    def test_degenerate_jacobian_raises(self, sheared, iid_system, perturbed_cat_cocycle):
        a = np.array([[2, 1], [1, 1]])
        shears = perturbed_cat_cocycle.maps[0].shears if sheared else ()
        cocycle = Cocycle(maps=(MapDescriptor(matrix=a, shears=shears),
                                _SingularMap(matrix=a, shears=shears)))
        paths = [sample_path(iid_system, 300, s) for s in (1, 2)]
        with pytest.raises(EstimatorError, match="degenerate"):
            lyapunov_spectra(cocycle, paths, [TorusPoint((0.1, 0.2))] * 2, 200)

    def test_geometric_potential_batch_matches_scalar_frames(
        self, perturbed_cat_cocycle, trivial_system
    ):
        cocycle = perturbed_cat_cocycle
        path = sample_path(trivial_system, 300, 2)
        rep = lyapunov_spectra(cocycle, [path], [TorusPoint((0.3, 0.6))], 200)[0]
        phiu = geometric_potential(cocycle, rep)
        pts = np.random.default_rng(5).random((7, 2))
        got = phiu.values(path, pts)
        q0 = oracles.seeded_frame(2, 0)
        steps = PHIU_FRAME_STEPS  # within the path's half-window of 300
        for row, val in zip(pts, got):
            q = oracles.scalar_qr_walk(cocycle, path, row, -steps, steps, q0)[0]
            assert val == oracles.scalar_phiu(cocycle, path, row, q, 1)

    def test_empty_batch(self, cat_cocycle):
        assert lyapunov_spectra(cat_cocycle, [], [], 200) == []


def _qr_stack(d: int, stacks: int, seed: int) -> np.ndarray:
    """Seeded (stacks, d, d) matrices with the cases a sign fix must get right:
    a zero subdiagonal column (LAPACK's tau = 0) under a negative or -0.0
    diagonal entry, and negative and -0.0 diagonal entries elsewhere."""
    rng = np.random.default_rng([seed, d, stacks])
    mats = rng.standard_normal((stacks, d, d))
    mats[0, 1:, 0] = 0.0
    mats[0, 0, 0] = -0.0
    mats[-1, 1:, 0] = 0.0
    mats[-1, 0, 0] = -abs(mats[-1, 0, 0])
    mats[:, -1, -1] = -0.0 if stacks == 1 else -np.abs(mats[:, -1, -1])
    return mats


class TestQRKernel:
    """The two-gufunc QR against np.linalg.qr with a sign fix per step."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("stacks", [1, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equals_positive_qr(self, d, stacks, seed):
        mats = _qr_stack(d, stacks, seed)
        flips = np.where(np.random.default_rng(seed).random((stacks, 1, d)) < 0.5, -1.0, 1.0)
        for mat in (mats, mats * flips, -mats):
            q = _positive_q(mat.copy())
            _, diag = _householder_qr(mat.copy())
            for k in range(stacks):
                ref_q, ref_r = oracles._positive_qr(mat[k])
                assert np.array_equal(q[k], ref_q)
                assert np.array_equal(np.signbit(q[k]), np.signbit(ref_q))
                assert np.array_equal(np.abs(diag[k]), np.diag(ref_r))
        # Householder QR is odd in each column: a negated column leaves Q
        # alone and negates that column of R, bit for bit
        raw_q, diag = _householder_qr(mats.copy())
        flip_q, flip_diag = _householder_qr(mats * flips)
        assert np.array_equal(flip_q, raw_q)
        assert np.array_equal(flip_diag, diag * flips[:, 0])

    def test_tall_frames_bitwise_equal_positive_qr(self):
        mats = np.random.default_rng(5).standard_normal((7, 3, 2))
        mats[0, 1:, 0] = 0.0
        q = _positive_q(mats.copy())
        for k in range(len(mats)):
            assert np.array_equal(q[k], oracles._positive_qr(mats[k])[0])

    def test_deferred_signs_walk_equals_stepwise_walk(self):
        # 300 cat-map steps, signs fixed once at the end against every step
        jac = np.array([[2.0, 1.0], [1.0, 1.0]])
        q0 = np.stack([oracles.seeded_frame(2, s) for s in range(7)])
        q0[3] = -q0[3]
        logs = np.zeros((7, 2))
        q = _qr_walk(*_stack(np.broadcast_to(jac, (300, 7, 2, 2))), q0.copy(), logs)
        for k in range(7):
            ref_q, ref_logs = q0[k], np.zeros(2)
            for _ in range(300):
                ref_q, ref_r = oracles._positive_qr(jac @ ref_q)
                ref_logs += np.log(np.abs(np.diag(ref_r)))
            assert np.array_equal(q[k], ref_q)
            assert np.array_equal(logs[k], ref_logs)

    @pytest.mark.parametrize("case", ["logs", "no-logs", "zero-steps", "tall", "shared-jacobian",
                                      "shared-frame"])
    def test_walk_bitwise_equals_stepwise_loop(self, case):
        # the walk folds signs and logs once, after the loop; the reference fixes
        # the signs and adds the logs at every step, one sample at a time
        rng = np.random.default_rng(17)
        samples, d, k = 5, 3, 2 if case == "tall" else 3
        steps = 0 if case == "zero-steps" else 150
        if case == "shared-jacobian":
            jacs = np.broadcast_to(rng.standard_normal((steps, 1, d, d)), (steps, samples, d, d))
        else:
            jacs = rng.standard_normal((steps, samples, d, d))
        q0 = rng.standard_normal((d, k) if case == "shared-frame" else (samples, d, k))
        logs0 = rng.standard_normal((samples, k))
        logs = None if case == "no-logs" else logs0.copy()
        q_in = q0.copy()
        q = _qr_walk(*_stack(jacs), q_in, logs)
        if case == "zero-steps":
            assert q is q_in
            assert np.array_equal(q.view(np.uint64), q0.view(np.uint64))
            assert np.array_equal(logs.view(np.uint64), logs0.view(np.uint64))
            return
        assert q.shape == (samples, d, k)
        for i in range(samples):
            ref_q = q0 if case == "shared-frame" else q0[i]
            ref_logs = logs0[i].copy()
            for jac in jacs[:, i]:
                ref_q, ref_r = oracles._positive_qr(jac @ ref_q)
                ref_logs += np.log(np.abs(np.diag(ref_r)))
            assert np.array_equal(q[i].view(np.uint64), ref_q.view(np.uint64))
            if logs is not None:
                assert np.array_equal(logs[i].view(np.uint64), ref_logs.view(np.uint64))


@pytest.fixture(scope="module")
def ab_cocycle():
    """iid switching between A and B, which do not commute: the frames never close."""
    return Cocycle(maps=(MapDescriptor(matrix=np.array([[2, 1], [1, 1]])),
                         MapDescriptor(matrix=np.array([[1, 1], [1, 2]]))))


class TestTableWalk:
    """A constant-Jacobian walk reads its Jacobians from the per-symbol table by symbol,
    and once its frames close under every symbol's step, reads the rest of the walk
    off the tables; against the plain loop of one QR per sample and step."""

    @pytest.mark.parametrize("name", ["cat_cocycle", "iid_cocycle", "ab_cocycle", "t3_cocycle"])
    # no step, one, too few for a closure attempt (the first is after 24 steps of a
    # walk of at least 192), one attempt, and four attempts
    @pytest.mark.parametrize("steps", [0, 1, 10, 200, 1000])
    # one sample; five, each with its own symbols; five sharing one row of symbols
    @pytest.mark.parametrize("shape", ["one", "many", "shared-symbols"])
    def test_bitwise_equals_stepwise_loop(self, name, steps, shape, request, monkeypatch):
        cocycle = request.getfixturevalue(name)
        calls = []
        real = oseledets._householder_qr
        monkeypatch.setattr(oseledets, "_householder_qr", lambda m: calls.append(1) or real(m))
        d, samples = cocycle.dim, 1 if shape == "one" else 5
        rng = np.random.default_rng([steps, samples, d])
        syms = rng.integers(0, len(cocycle.maps), (steps, 5 if shape == "many" else 1))
        table, index = _jacobians(cocycle, syms.T, np.zeros((syms.shape[1], d)))
        # start frames with negative and -0.0 entries; the first has a zero column, so
        # its first step's R diagonal holds an exact 0 (a log of -inf)
        q0 = _qr_stack(d, samples, steps)
        logs0 = rng.standard_normal((samples, d))
        logs = logs0.copy()
        with np.errstate(divide="ignore"):
            q = _qr_walk(table, index, q0.copy(), logs)
            ref_q, ref_logs, flips = oracles.stepwise_qr_walk(table[syms], q0, logs0)
        # the final Q carries the sign flips: its flipped columns are negated
        assert q.tobytes() == ref_q.tobytes()
        assert logs.tobytes() == ref_logs.tobytes()
        assert flips.shape == (samples, d)
        if name in ("cat_cocycle", "iid_cocycle") and steps >= 200:
            assert len(calls) < 30  # the frames closed at the first attempt

    def test_lapack_calls_engage_and_give_up(self, monkeypatch, cat_cocycle, ab_cocycle,
                                             trivial_system):
        calls = []
        real = oseledets._householder_qr

        def counting(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(oseledets, "_householder_qr", counting)
        # 1 + 512 + 1000 QR steps walked one by one; the frames close within 24
        path = sample_path(trivial_system, 1100, 1)
        rep = lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.3, 0.4))], 1000)[0]
        assert len(calls) <= 100
        assert rep.exponents[0] == pytest.approx(oracles.CAT_LOG, abs=1e-12)
        # A/B frames never close: a failed attempt costs one QR call
        calls.clear()
        syms = np.random.default_rng(3).integers(0, 2, (256, 1))
        q0 = oracles.seeded_frame(2, 1)[None]
        table, index = _jacobians(ab_cocycle, syms.T, np.zeros((1, 2)))
        q = _qr_walk(table, index, q0)
        assert 256 <= len(calls) <= 256 + 4
        assert q.tobytes() == oracles.stepwise_qr_walk(
            table[syms], q0, np.zeros((1, 2)))[0].tobytes()

    def test_only_a_short_table_tries_closure(self, monkeypatch, cat_cocycle,
                                              perturbed_cat_cocycle, trivial_system):
        # a point-dependent stack has a row per step and sample, so no step of its
        # walk can repeat and no closure is tried; a per-symbol table tries one
        calls = []
        real = oseledets._closed_frames
        monkeypatch.setattr(oseledets, "_closed_frames", lambda *a: calls.append(1) or real(*a))
        path = sample_path(trivial_system, 1100, 1)
        x = TorusPoint((0.3, 0.4))
        lyapunov_spectra(perturbed_cat_cocycle, [path], [x], 1000)
        certify_partial_hyperbolicity(perturbed_cat_cocycle, trivial_system, samples=10, n=40,
                                      seed=1)
        assert calls == []
        lyapunov_spectra(cat_cocycle, [path], [x], 1000)
        assert calls

    @pytest.mark.parametrize("name", ["cat_cocycle", "iid_cocycle", "t3_cocycle"])
    def test_covariant_frames_invert_the_table(self, name, request):
        cocycle = request.getfixturevalue(name)
        syms = np.random.default_rng(8).integers(0, len(cocycle.maps), (300, 4))
        table, index = _jacobians(cocycle, syms.T, np.zeros((4, cocycle.dim)))
        q0 = np.stack([oracles.seeded_frame(cocycle.dim, s) for s in range(4)])
        got = _covariant_frames(table, index, q0, 40)
        assert got.tobytes() == _covariant_frames(*_stack(table[syms]), q0, 40).tobytes()

    @pytest.mark.parametrize("name", ["cat_cocycle", "iid_cocycle", "t3_cocycle",
                                      "perturbed_cat_cocycle"])
    @pytest.mark.parametrize("keep", [0, 1, 40, 300])
    def test_covariant_frames_bitwise_equal_stepwise_walk(self, name, keep, request):
        # the steps before the kept frames are a _qr_walk (a table walk once its
        # frames close), and the kept frames still carry LAPACK's signs
        cocycle = request.getfixturevalue(name)
        rng = np.random.default_rng(9)
        syms = rng.integers(0, len(cocycle.maps), (300, 3))
        table, index = _jacobians(cocycle, syms.T, rng.random((3, cocycle.dim)))
        q0 = np.stack([oracles.seeded_frame(cocycle.dim, s) for s in range(3)])
        got = _covariant_frames(table, index, q0, keep)
        assert got.tobytes() == oracles.stepwise_covariant_frames(table[index], q0, keep).tobytes()

    @pytest.mark.parametrize("name", ["cat_cocycle", "t3_cocycle", "perturbed_cat_cocycle"])
    def test_certificate_equals_stepwise_backward_walk(self, name, request, monkeypatch,
                                                       trivial_system, t3_system):
        cocycle = request.getfixturevalue(name)
        system = t3_system if name == "t3_cocycle" else trivial_system
        calls = []
        real = oseledets._householder_qr
        monkeypatch.setattr(oseledets, "_householder_qr", lambda m: calls.append(1) or real(m))
        got = certify_partial_hyperbolicity(cocycle, system, samples=10, n=40, seed=4)
        with_table = len(calls)
        calls.clear()
        monkeypatch.setattr(oseledets, "_covariant_frames", lambda table, index, q, keep:
                            oracles.stepwise_covariant_frames(table[index], q, keep))
        want = certify_partial_hyperbolicity(cocycle, system, samples=10, n=40, seed=4)
        assert repr(got) == repr(want)
        if name == "cat_cocycle":
            # the backward walk made 40 + 512 QR calls, one per step; now the 512 steps
            # before its kept frames close into a table walk
            assert with_table - len(calls) < 40 + 60

    def test_degenerate_jacobian_off_the_path_is_not_read(self, cat_cocycle, trivial_system):
        # the singular map's symbol has probability 0, so no path visits it
        a = np.array([[2, 1], [1, 1]])
        cocycle = Cocycle(maps=(MapDescriptor(matrix=a), _SingularMap(matrix=a)))
        system = DrivingSystem(kind="iid", symbol_count=2, distribution=(1.0, 0.0))
        x = TorusPoint((0.1, 0.2))
        rep = lyapunov_spectra(cocycle, [sample_path(system, 300, 1)], [x], 200)[0]
        ref = lyapunov_spectra(cat_cocycle, [sample_path(trivial_system, 300, 1)], [x], 200)[0]
        assert rep.raw_exponents == ref.raw_exponents
        assert rep.log_det_sum == ref.log_det_sum
        assert rep.eu_frame.tobytes() == ref.eu_frame.tobytes()


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between the lines spanned by two planar vectors."""
    sine = abs(u[0] * v[1] - u[1] * v[0]) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.asin(min(1.0, sine))


class TestFrameEquivariance:
    """Both frames are read on the orbit through x, so Df(x) carries them onto
    the frames at f(x) (the past is pulled back from x, not re-walked forward).
    The expanding frame comes from the spectrum, the complementary frame from
    the certificate's backward walk (_covariant_frames), here walked from two
    different points ahead."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_df_carries_frames_to_image_point(self, seed, perturbed_cat_cocycle, trivial_system):
        cocycle = perturbed_cat_cocycle
        path = sample_path(trivial_system, 300, seed)
        x = TorusPoint(tuple(np.random.default_rng(seed).random(2)))
        fx = compose(cocycle, path, 1, x)
        here, there = lyapunov_spectra(cocycle, [path, path.shifted(1)], [x, fx], 256,
                                       frame_steps=256, frame_seeds=[seed, seed])
        q0 = oracles.seeded_frame(2, seed)[None]
        table, index = _jacobians(cocycle, _symbol_windows([path], 0, 257), x.as_array()[None])
        fu_here = _covariant_frames(table, index[:256], q0, 1)[0, 0, :, 0]
        fu_there = _covariant_frames(table, index[1:], q0, 1)[0, 0, :, 0]
        jac = derivative(cocycle, path, 1, x)
        assert here.unstable_dim == there.unstable_dim == 1
        assert _angle(jac @ here.eu_frame[:, 0], there.eu_frame[:, 0]) < 1e-8
        assert _angle(jac @ fu_here, fu_there) < 1e-8


class TestUnstableDimension:
    """report.unstable_index counts the exponent clusters above POSITIVE_MARGIN."""

    def test_positive_block(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 300, 1)
        rep = lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.3, 0.4))], 200)[0]
        assert rep.unstable_index == rep.unstable_dim == 1

    def test_no_expansion(self, trivial_system):
        shift = (0.41421356, 0.73205081)
        rotation = Cocycle(maps=(MapDescriptor(matrix=np.eye(2), translation=shift),))
        path = sample_path(trivial_system, 300, 1)
        rep = lyapunov_spectra(rotation, [path], [TorusPoint((0.3, 0.4))], 200)[0]
        assert rep.exponents == (0.0,)
        assert rep.unstable_index == rep.unstable_dim == 0

    def test_zero_exponent_excluded(self, t3_cocycle, t3_system):
        path = sample_path(t3_system, 300, 5)
        rep = lyapunov_spectra(t3_cocycle, [path], [TorusPoint((0.3, 0.7, 0.1))], 200)[0]
        assert rep.exponents[1] == pytest.approx(0.0, abs=1e-9)
        assert rep.unstable_index == rep.unstable_dim == 1


class TestCertificates:
    def test_cat_certified(self, cat_cocycle, trivial_system):
        cert = certify_partial_hyperbolicity(cat_cocycle, trivial_system, samples=10, n=40, seed=1)
        assert cert.verdict == "certified"
        assert cert.expansion_lower == pytest.approx(oracles.CAT_EIGENVALUE, abs=1e-9)
        assert cert.domination_ratio_log == pytest.approx(-2.0 * oracles.CAT_LOG, abs=0.01)
        # orthogonal eigenvectors: E^s shrinks against E^u by exactly exp(gap) a step
        assert cert.constants == pytest.approx(1.0, abs=1e-9)

    def test_identity_violated(self, trivial_system):
        ident = Cocycle(maps=(MapDescriptor(matrix=np.eye(2)),))
        cert = certify_partial_hyperbolicity(ident, trivial_system, samples=10, n=20, seed=1)
        assert cert.verdict == "violated"
        assert cert.expansion_lower == 0.0

    def test_t3_certified_with_central_gap(self, t3_cocycle, t3_system):
        cert = certify_partial_hyperbolicity(t3_cocycle, t3_system, samples=12, n=40, seed=9)
        assert cert.verdict == "certified"
        assert cert.expansion_lower == pytest.approx(oracles.CAT_EIGENVALUE, abs=1e-6)
        assert cert.domination_ratio_log == pytest.approx(-oracles.CAT_LOG, abs=0.05)
        # block-diagonal and symmetric: E^c, the faster part of E^cs, falls
        # behind E^u by exactly exp(gap) a step
        assert cert.constants == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "name", ["cat_cocycle", "perturbed_cat_cocycle", "t3_cocycle", "iid_cocycle",
                 "plane_leaf_cocycle"]
    )
    def test_transport_bitwise_equals_scalar_loop(self, name, request, iid_system, trivial_system):
        cocycle = request.getfixturevalue(name)
        system = iid_system if len(cocycle.maps) > 1 else trivial_system
        n, seed = 40, 6
        cert = certify_partial_hyperbolicity(cocycle, system, samples=10, n=n, seed=seed,
                                             spectrum_n=200)
        # the certificate's own draws (a window reaching x_{n+200}), then one
        # sample at a time
        rng = np.random.default_rng([seed, 0xCE57])
        constants = []
        for i, rec in enumerate(cert.per_sample):
            pseed = int(rng.integers(0, 2**63 - 1))
            path = sample_path(system, n + 200 + 2, pseed)
            x = TorusPoint(tuple(rng.random(cocycle.dim)))
            rep = lyapunov_spectra(cocycle, [path], [x], 200, frame_seeds=[pseed])[0]
            u = rep.unstable_index
            gap = rep.exponents[u] - rep.exponents[u - 1] if u < len(rep.exponents) else -math.inf
            lam, c = oracles.scalar_certify_transport(
                cocycle, path, x.as_array(), rep.eu_frame,
                oracles.seeded_frame(cocycle.dim, pseed), gap, n, 200)
            assert rec == {"sample": i, "unstable_index": u, "gap": gap, "expansion": lam,
                           "constant": c}
            constants.append(c)
        assert cert.constants == max(constants)
        # the verdict, from the separately built spectra and transports
        gap = max(rec["gap"] for rec in cert.per_sample)
        lam = min(rec["expansion"] for rec in cert.per_sample)
        margin = oseledets.CERTIFY_MARGIN
        if lam > 1.0 + margin and gap < -margin:
            assert cert.verdict == "certified"
        elif lam <= 1.0 or gap >= 0.0:
            assert cert.verdict == "violated"
        else:
            assert cert.verdict == "inconclusive"

    @pytest.mark.parametrize("name", ["cat_cocycle", "t3_cocycle", "perturbed_cat_cocycle"])
    @pytest.mark.parametrize("n, spectrum_n", [(40, 600), (40, 200), (700, 600)])
    def test_one_forward_stack_serves_spectra_and_transport(
        self, name, n, spectrum_n, monkeypatch, request, t3_system, trivial_system
    ):
        cocycle = request.getfixturevalue(name)
        system = t3_system if cocycle.dim == 3 else trivial_system
        # forward stacks only: the frames pushed from the past walk their own
        # backward orbits
        real, stacks = oseledets._jacobians, []

        def counting(*args, backward=False):
            out = real(*args, backward=backward)
            if not backward:
                stacks.append(out)
            return out

        monkeypatch.setattr(oseledets, "_jacobians", counting)
        cert = certify_partial_hyperbolicity(cocycle, system, samples=10, n=n, seed=2,
                                             spectrum_n=spectrum_n)
        ahead = min(spectrum_n, 512)
        assert [len(index) for _, index in stacks] == [max(spectrum_n, n + ahead)]
        # the certificate's draws, with the spectra and the transport's
        # Jacobians each built on their own
        rng = np.random.default_rng([2, 0xCE57])
        seeds, paths, xs = [], [], []
        for _ in range(10):
            seeds.append(int(rng.integers(0, 2**63 - 1)))
            paths.append(sample_path(system, max(spectrum_n, n + ahead) + 2, seeds[-1]))
            xs.append(TorusPoint(tuple(rng.random(cocycle.dim))))
        pts = np.stack([x.as_array() for x in xs])
        table, index = stacks[0]
        transport = real(cocycle, _symbol_windows(paths, 0, n + ahead), pts)
        assert np.array_equal(table[index[: n + ahead]], transport[0][transport[1]])
        reports = lyapunov_spectra(cocycle, paths, xs, spectrum_n, frame_seeds=seeds)
        for rec, rep in zip(cert.per_sample, reports):
            u, exps = rep.unstable_index, rep.exponents
            assert rec["unstable_index"] == u
            assert rec["gap"] == (exps[u] - exps[u - 1] if u < len(exps) else -math.inf)

    def test_iid_constant_equals_path_formula(self, iid_cocycle, iid_system):
        # covariant frames of A and A^2 are the shared eigenvectors, so each
        # step stretches E^s by lambda^-k and E^u by lambda^k, k = 1 for A and
        # 2 for A^2, and the constant is max_j exp(-2 log lambda sum_{i<=j} k_i
        # - gap (j + 1)), at least 1
        n, seed = 40, 3
        cert = certify_partial_hyperbolicity(iid_cocycle, iid_system, samples=12, n=n, seed=seed)
        rng = np.random.default_rng([seed, 0xCE57])
        expected = []
        for rec in cert.per_sample:
            path = sample_path(iid_system, 600 + 2, int(rng.integers(0, 2**63 - 1)))
            rng.random(2)  # the sample's point: the Jacobians do not depend on it
            steps = np.cumsum([path.symbol(j) + 1 for j in range(n)])
            logs = -2.0 * oracles.CAT_LOG * steps - rec["gap"] * np.arange(1, n + 1)
            expected.append(max(1.0, math.exp(logs.max())))
            assert rec["constant"] == pytest.approx(expected[-1], rel=1e-12, abs=0.0)
        assert cert.constants == pytest.approx(max(expected), rel=1e-12, abs=0.0)
        assert cert.constants == pytest.approx(639258.6983359, rel=1e-9)

    def test_too_few_samples_rejected(self, cat_cocycle, trivial_system):
        with pytest.raises(ValueError):
            certify_partial_hyperbolicity(cat_cocycle, trivial_system, samples=3, n=10)

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_transport_rejected(self, n, cat_cocycle, trivial_system):
        # with no transport step the least co-norm would stay inf and certify
        with pytest.raises(ValueError, match="need n >= 1"):
            certify_partial_hyperbolicity(cat_cocycle, trivial_system, samples=10, n=n)

    def test_only_certify_walks_the_future(self, monkeypatch, cat_cocycle, trivial_system):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked the frame from the future")

        monkeypatch.setattr(oseledets, "_covariant_frames", no_walk)
        path = sample_path(trivial_system, 300, 1)
        assert lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.3, 0.4))], 200)
        grid = GridSpec(n_grid=(8, 9, 10), eps_grid=(0.04,), base_grid=2)
        assert topological_entropy(cat_cocycle, trivial_system, grid, seed=1).value > 0
        est = bowen_ball_entropy(cat_cocycle, haar_sampler(trivial_system, dim=2), 0.1,
                                 (8, 9, 10), (0.04,), 4, seed=5)
        assert est.value > 0
        with pytest.raises(AssertionError, match="from the future"):
            certify_partial_hyperbolicity(cat_cocycle, trivial_system, samples=10, n=20)
