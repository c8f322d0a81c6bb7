import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest

import oracles
from uthermo import (
    Cocycle,
    EstimatorError,
    FiniteSkewSpace,
    InvalidSystem,
    MapDescriptor,
    SkewState,
    TorusPoint,
    bowen_ball_entropy,
    build_partition_pair,
    conditional_information,
    convex_combo_sampler,
    haar_sampler,
    lyapunov_spectra,
    partition_entropy_rate,
    periodic_atomic_sampler,
    sample_path,
    smb_trace,
    unstable_disk,
)
from uthermo import measures
from uthermo.thermo import CI_FLOOR
from uthermo.measures import (
    _interval_lengths,
    information_at,
    information_identity_battery,
    random_finite_skew_space,
    random_partition,
)


def _two_point_doubling():
    """One base atom, two fiber atoms swapped by the map, equal mass."""
    return FiniteSkewSpace(
        omega_probs=[1.0],
        base_perm=[0],
        fiber_counts=[2],
        fiber_maps=[np.array([1, 0])],
        weights=[0.5, 0.5],
    )


class TestConditionalInformation:
    def test_conditioning_on_itself_is_zero(self):
        sp = _two_point_doubling()
        alpha = np.array([0, 1])
        table = conditional_information(sp, alpha, alpha)
        assert np.allclose(table.information, 0.0)
        assert table.entropy == 0.0

    def test_trivial_conditioning_gives_log2(self):
        sp = _two_point_doubling()
        alpha = np.array([0, 1])
        trivial = np.array([0, 0])
        table = conditional_information(sp, alpha, trivial)
        assert table.entropy == pytest.approx(math.log(2.0), abs=1e-15)

    def test_four_point_chain_rule_against_brute_force(self):
        rng = np.random.default_rng(7)
        w = rng.random(4)
        w /= w.sum()
        sp = FiniteSkewSpace(
            omega_probs=[1.0],
            base_perm=[0],
            fiber_counts=[4],
            fiber_maps=[np.arange(4)],
            weights=w,
        )
        alpha = np.array([0, 0, 1, 1])
        beta = np.array([0, 1, 0, 1])
        gamma = np.array([0, 1, 1, 0])
        joint = sp.join([alpha, beta])
        lhs = conditional_information(sp, joint, gamma)
        rhs1 = conditional_information(sp, alpha, gamma)
        rhs2 = conditional_information(sp, beta, sp.join([alpha, gamma]))
        assert np.max(np.abs(lhs.information - rhs1.information - rhs2.information)) < 1e-12
        _, brute_h = oracles.brute_conditional_information(w, joint, gamma)
        assert lhs.entropy == pytest.approx(brute_h, abs=1e-13)

    def test_matches_brute_force_on_random_spaces(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            sp = random_finite_skew_space(rng)
            alpha = random_partition(rng, sp)
            eta = random_partition(rng, sp)
            table = conditional_information(sp, alpha, eta)
            brute_i, brute_h = oracles.brute_conditional_information(sp.weights, alpha, eta)
            sup = sp.weights > 0
            assert np.max(np.abs(table.information[sup] - np.asarray(brute_i)[sup])) < 1e-12
            assert table.entropy == pytest.approx(brute_h, abs=1e-12)

    def test_zero_probability_conditioning_atom_rejected(self):
        sp = FiniteSkewSpace(
            omega_probs=[1.0],
            base_perm=[0],
            fiber_counts=[4],
            fiber_maps=[np.arange(4)],
            weights=[0.5, 0.5, 0.0, 0.0],
        )
        alpha = np.array([0, 1, 0, 1])
        eta = np.array([0, 0, 1, 1])
        with pytest.raises(EstimatorError):
            information_at(sp, alpha, eta, atom=2)

    def test_identity_battery_within_tolerance(self):
        worst = information_identity_battery(n_spaces=100, seed=3)
        assert max(worst.values()) <= 1e-12

    def test_invariance_required(self):
        with pytest.raises(InvalidSystem):
            FiniteSkewSpace(
                omega_probs=[1.0],
                base_perm=[0],
                fiber_counts=[2],
                fiber_maps=[np.array([1, 0])],
                weights=[0.7, 0.3],
            )


class TestJoin:
    @staticmethod
    def _row_unique(labels):
        # the reference numbering: the rank of each atom's label tuple among the distinct tuples
        _, inv = np.unique(np.stack(labels, axis=1), axis=0, return_inverse=True)
        return inv.reshape(-1)

    def test_fold_equals_row_unique_on_random_labels(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            sp = random_finite_skew_space(rng, max_total=40)
            labels = [random_partition(rng, sp, max_classes=int(rng.integers(1, 9)))
                      for _ in range(int(rng.integers(1, 6)))]
            got = sp.join(labels)
            assert got.dtype == np.int64
            assert np.array_equal(got, self._row_unique(labels))

    def test_single_and_constant_partitions(self):
        sp = FiniteSkewSpace(omega_probs=[1.0], base_perm=[0], fiber_counts=[8],
                             fiber_maps=[np.arange(8)], weights=np.full(8, 0.125))
        gappy = np.array([7, 0, 3, 7, 3, 0, 9, 9])
        constant = np.full(8, 5)
        for labels in ([gappy], [constant], [constant, gappy], [gappy, constant, gappy]):
            assert np.array_equal(sp.join(labels), self._row_unique(labels))
        assert np.array_equal(sp.join([gappy]), [2, 0, 1, 2, 1, 0, 3, 3])
        assert np.array_equal(sp.join([constant]), np.zeros(8))


class TestSamplers:
    def test_haar_marginals_uniform(self, trivial_system):
        sampler = haar_sampler(trivial_system, dim=2)
        pts = np.array([sampler.sample(seed)[1].coords for seed in range(10_000)])
        for c in range(2):
            assert kstest(pts[:, c], "uniform").pvalue > 0.001

    def test_periodic_orbit_closes(self, cat_cocycle, trivial_system):
        # (2/5, 1/5) is rational, so its orbit is periodic; confirm the exact
        # period with integer arithmetic before trusting the sampler
        x, y = Fraction(2, 5), Fraction(1, 5)
        seen = {(x, y)}
        cur = (x, y)
        for period in range(1, 60):
            cur = ((2 * cur[0] + cur[1]) % 1, (cur[0] + cur[1]) % 1)
            if cur == (x, y):
                break
        assert period == 10
        sampler = periodic_atomic_sampler(
            trivial_system, cat_cocycle, TorusPoint((0.4, 0.2))
        )
        assert len(sampler.orbit) == period
        assert sampler.leaf_conditional == "atomic"

    @pytest.mark.parametrize("point", [(0.2, 0.4), (1 / 3, 2 / 3)])
    def test_orbit_equals_point_loop(self, point, cat_cocycle, trivial_system):
        # one walk of max_period steps, read up to its first return
        sampler = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint(point))
        want = oracles.loop_periodic_orbit(cat_cocycle, point, 128, 1e-10)
        assert len(want) > 1
        assert tuple(p.coords for p in sampler.orbit) == want

    def test_fixed_point_orbit(self, iid_system, iid_cocycle):
        sampler = periodic_atomic_sampler(iid_system, iid_cocycle, TorusPoint((0.0, 0.0)))
        assert sampler.orbit == (TorusPoint((0.0, 0.0)),)

    def test_non_closing_orbit_rejected(self, cat_cocycle, trivial_system):
        with pytest.raises(InvalidSystem):
            periodic_atomic_sampler(
                trivial_system, cat_cocycle, TorusPoint((0.123456789, 0.987654321)),
                max_period=32,
            )

    def test_combo_weights_validated(self, trivial_system):
        h = haar_sampler(trivial_system, dim=2)
        with pytest.raises(InvalidSystem):
            convex_combo_sampler([h, h], [0.7, 0.6])

    @pytest.mark.parametrize("count", [1, 3])
    def test_combo_needs_one_weight_per_component(self, trivial_system, count):
        # the weights sum to 1, so only their count is wrong
        h = haar_sampler(trivial_system, dim=2)
        with pytest.raises(InvalidSystem, match="one weight per component"):
            convex_combo_sampler([h, h], [1.0 / count] * count)

    def test_combo_samples_components(self, cat_cocycle, trivial_system):
        h = haar_sampler(trivial_system, dim=2)
        a = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        combo = convex_combo_sampler([h, a], [0.5, 0.5])
        hits = sum(
            combo.sample(seed)[1].coords == (0.0, 0.0) for seed in range(400)
        )
        assert 120 <= hits <= 280


class TestPartitionPair:
    def test_cardinality_table(self, trivial_system):
        pair = build_partition_pair(trivial_system, 4, offset_seed=1, dim=2)
        assert pair.cardinality_table() == {0: 16}

    def test_grid_partitions_cover_disjointly(self, trivial_system):
        pair = build_partition_pair(trivial_system, 4, offset_seed=1, dim=2)
        pts = np.random.default_rng(0).random((4000, 2))
        ids = pair.cell_ids(0, pts)
        assert ids.min() >= 0 and ids.max() < 4
        # every cell of the 4x4 grid is hit
        assert len({tuple(row) for row in ids}) == 16

    def test_offset_changes_boundaries_not_count(self, trivial_system):
        p1 = build_partition_pair(trivial_system, 8, offset_seed=1, dim=2)
        p2 = build_partition_pair(trivial_system, 8, offset_seed=2, dim=2)
        assert p1.cardinality_table() == p2.cardinality_table()
        assert not np.allclose(p1.offsets, p2.offsets)

    def test_pair_of_another_dim_fails_before_sampling(self, monkeypatch, t3_cocycle,
                                                       t3_system):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before checking the pair's dim")

        monkeypatch.setattr(measures, "_sample_spectra", no_draw)
        pair = build_partition_pair(t3_system, 16, 3, dim=2)  # a 2-d pair on the 3-torus
        sampler = haar_sampler(t3_system, dim=3)
        with pytest.raises(InvalidSystem, match="dim 2"):
            partition_entropy_rate(t3_cocycle, sampler, pair, (8, 9, 10), 4, seed=7)
        with pytest.raises(InvalidSystem, match="dim 2"):
            smb_trace(t3_cocycle, sampler, pair, (8, 9, 10), 4, seed=7)

    def test_disk_must_exceed_cell_in_both_partition_estimators(self, cat_cocycle,
                                                                 trivial_system):
        # delta 0.1 is below the cell size 1/4: the smb trace read 0.84, not log lambda
        pair = build_partition_pair(trivial_system, 4, offset_seed=1, dim=2)
        sampler = haar_sampler(trivial_system, dim=2)
        for estimator in (partition_entropy_rate, smb_trace):
            with pytest.raises(InvalidSystem, match="disk too small relative to grid"):
                estimator(cat_cocycle, sampler, pair, (4, 5, 6, 7, 8), 16, seed=1, delta=0.1)

    def test_leaf_section_matches_scan_oracle(self, cat_cocycle, trivial_system):
        # the exact cell-crossing interval against a dense parameter scan
        pair = build_partition_pair(trivial_system, 16, offset_seed=5, dim=2)
        path = sample_path(trivial_system, 600, 1)
        x = TorusPoint((0.31, 0.77))
        rep = lyapunov_spectra(cat_cocycle, [path], [x], 500)[0]
        disk = unstable_disk(
            cat_cocycle, SkewState(path=path, point=x), 0.1, rep
        )
        eta_len = _interval_lengths(
            cat_cocycle, pair, [path], x.as_array()[None], rep.eu_frame[:, 0][None], 1, 0.1
        )[0, 0]
        lo, hi = oracles.leaf_interval_by_scan(
            lambda t: np.asarray(disk.chart_lift(t)).reshape(-1) % 1.0,
            lambda p: tuple(pair.cell_ids(0, p.reshape(1, -1))[0]),
            -0.1,
            0.1,
        )
        assert eta_len == pytest.approx(hi - lo, abs=1e-4)


class TestBowenBallEntropy:
    def test_cat_rate(self, cat_cocycle, trivial_system):
        sampler = haar_sampler(trivial_system, dim=2)
        est = bowen_ball_entropy(
            cat_cocycle, sampler, 0.1, tuple(range(6, 15)), (0.02, 0.04), 16, seed=5
        )
        assert est.value == pytest.approx(oracles.CAT_LOG, rel=0.05)
        assert abs(est.eps_values[0.02] - est.eps_values[0.04]) < 0.01
        assert est.value >= -est.ci

    def test_interval_against_bisection_oracle(self, cat_cocycle, trivial_system):
        # ball half-width solves max_j |A^j v| t = eps; bisect the oracle side
        sampler = haar_sampler(trivial_system, dim=2)
        est = bowen_ball_entropy(
            cat_cocycle, sampler, 0.1, (6, 7, 8), (0.02,), 4, seed=5
        )
        mats = [oracles.CAT_MATRIX.astype(float)] * 10
        for n in (6, 7, 8):
            lo, hi = 0.0, 0.1
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if oracles.max_step_growth(mats, oracles.CAT_UNSTABLE_DIR * mid, n) < 0.02:
                    lo = mid
                else:
                    hi = mid
            expected = math.log(2 * 0.1) - math.log(2 * lo)
            assert est.per_n[n] == pytest.approx(expected, abs=1e-6)

    def test_random_switching_rate(self, iid_cocycle, iid_system):
        sampler = haar_sampler(iid_system, dim=2)
        est = bowen_ball_entropy(
            iid_cocycle, sampler, 0.1, tuple(range(6, 17)), (0.02,), 64, seed=5
        )
        assert est.value == pytest.approx(1.5 * oracles.CAT_LOG, rel=0.07)

    def test_atomic_measure_rate_zero(self, cat_cocycle, trivial_system):
        sampler = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.4, 0.2)))
        est = bowen_ball_entropy(
            cat_cocycle, sampler, 0.1, tuple(range(4, 11)), (0.02,), 8, seed=5
        )
        assert est.value == 0.0

    def test_ball_lengths_contract_at_expansion_rate(self, cat_cocycle, trivial_system):
        # per-step ball-length ratio sits in [0.99/expansion, 1)
        sampler = haar_sampler(trivial_system, dim=2)
        est = bowen_ball_entropy(
            cat_cocycle, sampler, 0.1, tuple(range(4, 12)), (0.02,), 4, seed=5
        )
        lam = oracles.CAT_EIGENVALUE
        for n in range(5, 12):
            ratio = math.exp(est.per_n[n - 1] - est.per_n[n])  # length_n / length_{n-1}
            assert 0.99 / lam <= ratio < 1.0

    def test_combo_is_affine(self, cat_cocycle, trivial_system):
        h = haar_sampler(trivial_system, dim=2)
        a = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        combo = convex_combo_sampler([h, a], [0.5, 0.5])
        grid = tuple(range(6, 13))
        eh = bowen_ball_entropy(cat_cocycle, h, 0.1, grid, (0.02,), 12, seed=5)
        ea = bowen_ball_entropy(cat_cocycle, a, 0.1, grid, (0.02,), 12, seed=5)
        ec = bowen_ball_entropy(cat_cocycle, combo, 0.1, grid, (0.02,), 12, seed=5)
        assert ec.value == pytest.approx(0.5 * eh.value + 0.5 * ea.value, abs=1e-9)


class TestPartitionRate:
    def test_cat_rate(self, cat_cocycle, trivial_system):
        sampler = haar_sampler(trivial_system, dim=2)
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        est = partition_entropy_rate(
            cat_cocycle, sampler, pair, tuple(range(6, 19)), 48, seed=7, delta=0.1
        )
        assert est.value == pytest.approx(oracles.CAT_LOG, rel=0.05)

    def test_first_step_information_vanishes(self, cat_cocycle, trivial_system):
        sampler = haar_sampler(trivial_system, dim=2)
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        est = partition_entropy_rate(
            cat_cocycle, sampler, pair, (1, 2, 3, 4), 8, seed=7, delta=0.1
        )
        assert est.per_n[1] == pytest.approx(0.0, abs=1e-12)

    def test_t3_rate_ignores_rotation(self, t3_cocycle, t3_system):
        sampler = haar_sampler(t3_system, dim=3)
        pair = build_partition_pair(t3_system, 16, offset_seed=3, dim=3)
        est = partition_entropy_rate(
            t3_cocycle, sampler, pair, tuple(range(6, 15)), 48, seed=7, delta=0.1
        )
        assert est.value == pytest.approx(oracles.CAT_LOG, rel=0.05)


class TestSmbTraces:
    def test_cat_traces_converge(self, cat_cocycle, trivial_system):
        sampler = haar_sampler(trivial_system, dim=2)
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        est = smb_trace(
            cat_cocycle, sampler, pair, tuple(range(4, 21, 2)), 40, seed=11, delta=0.1
        )
        assert est.trace_sd[-1] <= est.trace_sd[0]
        assert est.value == pytest.approx(oracles.CAT_LOG, rel=0.05)

    def test_atomic_traces_zero(self, cat_cocycle, trivial_system):
        sampler = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.4, 0.2)))
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        est = smb_trace(cat_cocycle, sampler, pair, (4, 8, 12), 10, seed=11, delta=0.1)
        assert est.value == 0.0

    def test_seed_consistency(self, cat_cocycle, trivial_system):
        sampler = haar_sampler(trivial_system, dim=2)
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        grid = tuple(range(6, 17, 2))
        e1 = smb_trace(cat_cocycle, sampler, pair, grid, 24, seed=1, delta=0.1)
        e2 = smb_trace(cat_cocycle, sampler, pair, grid, 24, seed=2, delta=0.1)
        sd = e1.trace_sd[-1] / math.sqrt(24) + e2.trace_sd[-1] / math.sqrt(24)
        assert abs(e1.value - e2.value) <= 2.0 * sd + 1e-6

    def test_mixed_sampler_rejected(self, cat_cocycle, trivial_system):
        # a trace follows one orbit's leaf conditional; a mix has two
        mix = convex_combo_sampler(
            [haar_sampler(trivial_system, dim=2),
             periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))],
            [0.5, 0.5],
        )
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        with pytest.raises(EstimatorError, match="conditional family"):
            smb_trace(cat_cocycle, mix, pair, (4, 8), 4, seed=11, delta=0.1)


def _three_estimates(cocycle, system, sampler, grid=(4, 6, 8, 10)):
    pair = build_partition_pair(system, 16, offset_seed=3, dim=cocycle.dim)
    return [
        bowen_ball_entropy(cocycle, sampler, 0.1, grid, (0.02, 0.04), 8, seed=5),
        partition_entropy_rate(cocycle, sampler, pair, grid, 8, seed=7, delta=0.1),
        smb_trace(cocycle, sampler, pair, grid, 8, seed=11, delta=0.1),
    ]


class TestPointMass:
    """A closed orbit has zero fiber entropy, so its leaf conditional is a
    point mass; so is every conditional on a trivial leaf."""

    @pytest.mark.parametrize("point", [(0.4, 0.2), (0.0, 0.0)])
    def test_atomic_estimates_are_exactly_zero(self, point, cat_cocycle, trivial_system):
        sampler = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint(point))
        for est in _three_estimates(cat_cocycle, trivial_system, sampler):
            assert est.value == 0.0, est.method
            assert est.ci == CI_FLOOR / 2.0, est.method
            assert set(est.per_n.values()) == {0.0}, est.method

    def test_atomic_estimates_draw_nothing(self, monkeypatch, cat_cocycle, trivial_system):
        def no_draw(*args, **kwargs):
            raise AssertionError("an atomic estimate drew spectra")

        monkeypatch.setattr(measures, "_sample_spectra", no_draw)
        sampler = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.4, 0.2)))
        for est in _three_estimates(cat_cocycle, trivial_system, sampler):
            assert est.value == 0.0, est.method

    def test_trivial_leaf_samples_are_point_masses(self, trivial_system):
        rotation = Cocycle(maps=(MapDescriptor(matrix=np.eye(2, dtype=int),
                                               translation=(0.41421356, 0.73205081)),))
        sampler = haar_sampler(trivial_system, dim=2)
        for est in _three_estimates(rotation, trivial_system, sampler):
            assert est.value == 0.0, est.method
            assert est.ci == CI_FLOOR / 2.0, est.method

    @pytest.mark.parametrize("system_name, cocycle_name, point, period", [
        ("trivial_system", "cat_cocycle", (0.4, 0.2), 10),
        ("trivial_system", "cat_cocycle", (0.2, 0.4), 2),
        ("trivial_system", "cat_cocycle", (1 / 3, 2 / 3), 4),
        ("iid_system", "iid_cocycle", (0.0, 0.0), 1),
    ])
    def test_no_other_orbit_point_on_the_local_leaf(self, system_name, cocycle_name, point,
                                                    period, request):
        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)
        orbit = periodic_atomic_sampler(system, cocycle, TorusPoint(point)).orbit
        assert len(orbit) == period
        for k, x in enumerate(orbit):
            path = sample_path(system, 300, k)
            disk = unstable_disk(cocycle, SkewState(path, x), 0.1,
                                 lyapunov_spectra(cocycle, [path], [x], 200)[0])
            assert oracles.param_of(disk, x) == pytest.approx(0.0, abs=1e-12)
            for y in orbit[:k] + orbit[k + 1:]:
                with pytest.raises(oracles.OffLeafError):
                    oracles.param_of(disk, y, tol=1e-8)

    def test_one_entry_grid_fails_before_sampling(self, monkeypatch, cat_cocycle,
                                                  trivial_system):
        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before checking n_grid")

        monkeypatch.setattr(measures, "_sample_spectra", no_draw)
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        for sampler in (haar_sampler(trivial_system, dim=2),
                        periodic_atomic_sampler(trivial_system, cat_cocycle,
                                                TorusPoint((0.0, 0.0)))):
            with pytest.raises(ValueError, match="n_grid"):
                bowen_ball_entropy(cat_cocycle, sampler, 0.1, (8,), (0.02,), 4, seed=5)
            with pytest.raises(ValueError, match="n_grid"):
                partition_entropy_rate(cat_cocycle, sampler, pair, (8,), 4, seed=7)

    def test_smb_accepts_one_entry_grid(self, cat_cocycle, trivial_system):
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        est = smb_trace(cat_cocycle, haar_sampler(trivial_system, dim=2), pair, (8,), 4,
                        seed=11, delta=0.1)
        assert est.n_grid == (8,) and est.traces.shape == (4, 1)


class TestEntropyGapReport:
    def test_cat_gap_small(self, cat_cocycle, trivial_system):
        sampler = haar_sampler(trivial_system, dim=2)
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        grid = tuple(range(6, 19))
        bowen = bowen_ball_entropy(cat_cocycle, sampler, 0.1, grid, (0.02,), 24, seed=5)
        part = partition_entropy_rate(cat_cocycle, sampler, pair, grid, 48, seed=7, delta=0.1)
        gap = oracles.entropy_estimator_gap(bowen, part)
        assert gap.gap <= 0.05
        assert gap.passed

    def test_atomic_gap_tiny(self, cat_cocycle, trivial_system):
        sampler = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.4, 0.2)))
        pair = build_partition_pair(trivial_system, 16, offset_seed=3, dim=2)
        grid = (4, 6, 8, 10)
        bowen = bowen_ball_entropy(cat_cocycle, sampler, 0.1, grid, (0.02,), 8, seed=5)
        part = partition_entropy_rate(cat_cocycle, sampler, pair, grid, 8, seed=7, delta=0.1)
        assert oracles.entropy_estimator_gap(bowen, part).gap == 0.0


class TestPolylineLengths:
    def test_equal_point_loop(self, perturbed_cat_cocycle, trivial_system):
        # one apply_lift walk of the chart polyline against one push per step
        pair = build_partition_pair(trivial_system, 16, offset_seed=2, dim=2)
        for seed in (1, 2, 3):
            path = sample_path(trivial_system, 600, seed)
            x = TorusPoint(tuple(np.random.default_rng(seed).random(2)))
            rep = lyapunov_spectra(perturbed_cat_cocycle, [path], [x], 500)[0]
            disk = unstable_disk(perturbed_cat_cocycle, SkewState(path, x), 0.1, rep)
            want = oracles.loop_polyline_lengths(perturbed_cat_cocycle, pair, path, disk, 4)
            got = measures._polyline_lengths(perturbed_cat_cocycle, pair, path, disk, 4)
            assert np.array_equal(got, want)


class TestIntervalInformationPush:
    """The batched interval clip against one sample, one step and one coordinate
    at a time (oracles.scalar_interval_information)."""

    @pytest.mark.parametrize("trivial", [(), (1, 3), (0, 1, 2, 3, 4)],
                             ids=["no_point_leaf", "two_point_leaves", "all_point_leaves"])
    @pytest.mark.parametrize("name", ["cat_cocycle", "iid_cocycle", "t3_cocycle"])
    def test_profiles_equal_scalar_push(self, name, trivial, request, monkeypatch, iid_system,
                                        trivial_system):
        cocycle = request.getfixturevalue(name)
        system = iid_system if len(cocycle.maps) > 1 else trivial_system
        pair = build_partition_pair(system, 16, offset_seed=5, dim=cocycle.dim)
        real, drawn = measures._sample_spectra, []

        def flatten(*args):
            # the samples listed in trivial get a point for a leaf
            for i, (path, x, rep) in enumerate(real(*args)):
                drawn.append((path, x, rep._replace(unstable_index=0) if i in trivial else rep))
            return drawn

        monkeypatch.setattr(measures, "_sample_spectra", flatten)
        info = measures._information_profiles(
            cocycle, haar_sampler(system, dim=cocycle.dim), pair, [40, 41, 42, 43, 44], 0.1, 8)
        assert len(drawn) == len(info) == 5
        for row, (path, x, rep) in zip(info, drawn):
            if rep.unstable_index == 0:
                assert np.array_equal(row, np.zeros(8))
                continue
            eta, lengths = oracles.scalar_interval_information(
                cocycle, pair, path, x.as_array(), rep.eu_frame[:, 0], 8, 0.1)
            ref = -np.log(lengths / eta)
            if name == "iid_cocycle":
                # stacked A^2 rows round unlike one-row products, by about 1e-12
                assert np.allclose(row, ref, rtol=0.0, atol=1e-10)
            else:
                assert np.array_equal(row, ref)
