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
    lyapunov_spectrum,
    sample_path,
    skew_step,
    topological_entropy,
    unstable_dimension,
)
from uthermo import oseledets
from uthermo.oseledets import (
    _frames_from_future, _householder_qr, _positive_q, _qr_walk, _symbol_windows,
)
from uthermo.rds import SkewState


def _report_with(exponents, multiplicities=None):
    exps = tuple(float(v) for v in exponents)
    mult = tuple(multiplicities or (1,) * len(exps))
    d = sum(mult)
    u = sum(1 for v in exps if v > 0.01)
    udim = sum(m for v, m in zip(exps, mult) if v > 0.01)
    return OseledetsReport(
        exponents=exps,
        multiplicities=mult,
        unstable_index=u,
        eu_frame=np.eye(d)[:, :udim],
        orbit_length=1000,
        raw_exponents=exps,
    )


class TestSpectrum:
    def test_cat_map_matches_eigenvalues(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 10_100, 1)
        rep = lyapunov_spectrum(cat_cocycle, path, TorusPoint((0.3, 0.4)), 10_000)
        eig = np.sort(np.abs(np.linalg.eigvals(oracles.CAT_MATRIX.astype(float))))[::-1]
        assert rep.exponents[0] == pytest.approx(math.log(eig[0]), abs=1e-3)
        assert rep.exponents[1] == pytest.approx(math.log(eig[1]), abs=1e-3)
        assert rep.unstable_index == 1
        assert rep.multiplicities == (1, 1)

    def test_random_switching_matches_path_exact_value(self, iid_cocycle, iid_system):
        n = 10_000
        path = sample_path(iid_system, n + 200, 3)
        rep = lyapunov_spectrum(iid_cocycle, path, TorusPoint((0.2, 0.7)), n)
        # closed form along this very path: symbol k contributes (k+1) log(lam+)
        steps = sum(path.symbol(j) + 1 for j in range(n))
        exact_top = steps / n * oracles.CAT_LOG
        assert rep.exponents[0] == pytest.approx(exact_top, abs=1e-3)
        assert rep.exponents[0] == pytest.approx(1.5 * oracles.CAT_LOG, abs=0.03)

    def test_t3_block_structure(self, t3_cocycle, t3_system):
        path = sample_path(t3_system, 4200, 5)
        rep = lyapunov_spectrum(t3_cocycle, path, TorusPoint((0.3, 0.7, 0.1)), 4000)
        assert rep.unstable_index == 1
        assert len(rep.exponents) == 3
        assert rep.exponents[0] == pytest.approx(oracles.CAT_LOG, abs=0.01)
        assert rep.exponents[1] == pytest.approx(0.0, abs=0.01)
        assert rep.exponents[2] == pytest.approx(-oracles.CAT_LOG, abs=0.01)

    def test_eu_frame_is_unstable_eigvector(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 1200, 1)
        rep = lyapunov_spectrum(cat_cocycle, path, TorusPoint((0.0, 0.0)), 1000)
        frame = rep.eu_frame[:, 0]
        assert abs(abs(frame @ oracles.CAT_UNSTABLE_DIR) - 1.0) < 1e-10
        assert np.linalg.norm(rep.eu_frame.T @ rep.eu_frame - np.eye(1)) < 1e-10

    def test_exponent_sum_matches_determinant_rate(self, iid_cocycle, iid_system):
        # chain rule for determinants, accumulated per step so nothing overflows
        n = 600
        path = sample_path(iid_system, n + 200, 9)
        x = TorusPoint((0.11, 0.83))
        rep = lyapunov_spectrum(iid_cocycle, path, x, n)
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
        r1 = lyapunov_spectrum(iid_cocycle, path, x, 2000, frame_seed=1)
        r2 = lyapunov_spectrum(iid_cocycle, path, x, 2000, frame_seed=999)
        assert np.max(np.abs(np.array(r1.exponents) - np.array(r2.exponents))) < 2e-3

    def test_eu_frame_equivariance(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 1300, 2)
        x = TorusPoint((0.21, 0.86))
        rep = lyapunov_spectrum(cat_cocycle, path, x, 1000)
        state = SkewState(path=path, point=x)
        nxt = skew_step(cat_cocycle, state, 1)
        rep_next = lyapunov_spectrum(cat_cocycle, nxt.path, nxt.point, 1000)
        pushed = cat_cocycle.maps[0].matrix.astype(float) @ rep.eu_frame
        pushed = _positive_q(pushed)
        angle = math.acos(min(1.0, abs(float(pushed[:, 0] @ rep_next.eu_frame[:, 0]))))
        assert angle <= 1e-3

    def test_short_orbit_rejected(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 200, 1)
        with pytest.raises(ValueError):
            lyapunov_spectrum(cat_cocycle, path, TorusPoint((0.1, 0.1)), 50)


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
            # the frame from the future, walked in one batch per clamped length
            q_future = np.empty((len(paths), cocycle.dim, cocycle.dim))
            for steps in set(clamped):
                idx = [i for i, s in enumerate(clamped) if s == steps]
                q_future[idx] = _frames_from_future(
                    cocycle, [paths[i] for i in idx], np.stack([xs[i].as_array() for i in idx]),
                    np.stack([oracles.seeded_frame(cocycle.dim, seeds[i]) for i in idx]), steps)
            for path, x, seed, rep, q in zip(paths, xs, seeds, reports, q_future):
                raw, q_fwd, q_bwd, log_det = oracles.scalar_spectrum(
                    cocycle, path, x.as_array(), n, frame_steps=frame_steps, frame_seed=seed)
                u_dim = rep.eu_frame.shape[1]
                assert np.array_equal(np.array(rep.raw_exponents), raw)
                assert np.array_equal(rep.eu_frame, q_fwd[:, :u_dim])
                assert np.array_equal(q, q_bwd)
                if cocycle.has_constant_jacobian:
                    # summed in step order, as the reference sums math.log
                    assert rep.log_det_sum == log_det
                else:
                    assert rep.log_det_sum == pytest.approx(log_det, abs=1e-9)
                single = lyapunov_spectrum(cocycle, path, x, n, frame_steps=frame_steps,
                                           frame_seed=seed)
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
        rep = lyapunov_spectrum(cocycle, path, TorusPoint((0.3, 0.6)), 200)
        phiu = geometric_potential(cocycle, rep, frame_steps=60)
        pts = np.random.default_rng(5).random((7, 2))
        got = phiu.values(path, pts)
        q0 = oracles.seeded_frame(2, 0)
        for row, val in zip(pts, got):
            q = oracles.scalar_qr_walk(cocycle, path, row, -60, 60, q0)[0]
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
        q = _qr_walk(np.broadcast_to(jac, (300, 7, 2, 2)), q0.copy(), logs)
        for k in range(7):
            ref_q, ref_logs = q0[k], np.zeros(2)
            for _ in range(300):
                ref_q, ref_r = oracles._positive_qr(jac @ ref_q)
                ref_logs += np.log(np.abs(np.diag(ref_r)))
            assert np.array_equal(q[k], ref_q)
            assert np.array_equal(logs[k], ref_logs)


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in radians between the lines spanned by two planar vectors."""
    sine = abs(u[0] * v[1] - u[1] * v[0]) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.asin(min(1.0, sine))


class TestFrameEquivariance:
    """Both frames are read on the orbit through x, so Df(x) carries them onto
    the frames at f(x) (the past is pulled back from x, not re-walked forward).
    The expanding frame comes from the spectrum, the complementary frame from
    _frames_from_future."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_df_carries_frames_to_image_point(self, seed, perturbed_cat_cocycle, trivial_system):
        cocycle = perturbed_cat_cocycle
        path = sample_path(trivial_system, 300, seed)
        x = TorusPoint(tuple(np.random.default_rng(seed).random(2)))
        fx = compose(cocycle, path, 1, x)
        here, there = lyapunov_spectra(cocycle, [path, path.shifted(1)], [x, fx], 256,
                                       frame_steps=256, frame_seeds=[seed, seed])
        q0 = oracles.seeded_frame(2, seed)
        fu_here, fu_there = _frames_from_future(
            cocycle, [path, path.shifted(1)], np.stack([x.as_array(), fx.as_array()]),
            np.stack([q0, q0]), 256)[:, :, 0]
        jac = derivative(cocycle, path, 1, x)
        assert here.unstable_dim == there.unstable_dim == 1
        assert _angle(jac @ here.eu_frame[:, 0], there.eu_frame[:, 0]) < 1e-8
        assert _angle(jac @ fu_here, fu_there) < 1e-8


class TestUnstableDimension:
    def test_positive_block(self):
        assert unstable_dimension(_report_with((0.96, -0.96))) == 1

    def test_no_expansion(self):
        assert unstable_dimension(_report_with((-0.1, -0.5))) == 0

    def test_zero_exponent_excluded(self):
        assert unstable_dimension(_report_with((0.96, 0.0, -0.96))) == 1


class TestCertificates:
    def test_cat_certified(self, cat_cocycle, trivial_system):
        cert = certify_partial_hyperbolicity(cat_cocycle, trivial_system, samples=10, n=40, seed=1)
        assert cert.verdict == "certified"
        assert cert.expansion_lower == pytest.approx(oracles.CAT_EIGENVALUE, abs=1e-9)
        assert cert.domination_ratio_log == pytest.approx(-2.0 * oracles.CAT_LOG, abs=0.01)

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

    @pytest.mark.parametrize(
        "name", ["perturbed_cat_cocycle", "t3_cocycle", "iid_cocycle", "plane_leaf_cocycle"]
    )
    def test_transport_bitwise_equals_scalar_loop(self, name, request, iid_system, trivial_system):
        cocycle = request.getfixturevalue(name)
        system = iid_system if len(cocycle.maps) > 1 else trivial_system
        n, seed = 40, 6
        cert = certify_partial_hyperbolicity(cocycle, system, samples=10, n=n, seed=seed,
                                             spectrum_n=200)
        # the certificate's own draws, then one sample at a time
        rng = np.random.default_rng([seed, 0xCE57])
        constants = []
        for i, rec in enumerate(cert.per_sample):
            pseed = int(rng.integers(0, 2**63 - 1))
            path = sample_path(system, 202, pseed)
            x = TorusPoint(tuple(rng.random(cocycle.dim)))
            rep = lyapunov_spectrum(cocycle, path, x, 200, frame_seed=pseed)
            q_bwd = oracles.scalar_spectrum(cocycle, path, x.as_array(), 200,
                                            frame_seed=pseed)[2]
            u = rep.unstable_index
            gap = rep.exponents[u] - rep.exponents[u - 1] if u < len(rep.exponents) else -math.inf
            lam, c = oracles.scalar_certify_transport(
                cocycle, path, x.as_array(), rep.eu_frame,
                q_bwd[:, : cocycle.dim - rep.unstable_dim], gap, n)
            assert rec == {"sample": i, "unstable_index": u, "gap": gap, "expansion": lam}
            constants.append(c)
        assert cert.constants == max(constants)

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

        monkeypatch.setattr(oseledets, "_frames_from_future", no_walk)
        path = sample_path(trivial_system, 300, 1)
        assert lyapunov_spectra(cat_cocycle, [path], [TorusPoint((0.3, 0.4))], 200)
        grid = GridSpec(n_grid=(8, 9, 10), eps_grid=(0.04,), base_grid=2)
        assert topological_entropy(cat_cocycle, trivial_system, grid, seed=1).value > 0
        est = bowen_ball_entropy(cat_cocycle, haar_sampler(trivial_system, dim=2), 0.1,
                                 (8, 9, 10), (0.04,), 4, seed=5)
        assert est.value > 0
        with pytest.raises(AssertionError, match="from the future"):
            certify_partial_hyperbolicity(cat_cocycle, trivial_system, samples=10, n=20)
