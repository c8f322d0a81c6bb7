import math

import numpy as np
import pytest

import oracles
from uthermo import (
    Cocycle,
    EstimatorError,
    MapDescriptor,
    WindowExhausted,
    GridSpec,
    SkewState,
    TorusPoint,
    birkhoff_sum,
    combine_potentials,
    constant_potential,
    coordinate_potential,
    lyapunov_spectra,
    maximal_separated_sets,
    pressure_estimates,
    pressure_property_suite,
    sample_path,
    topological_entropy,
    unstable_disk,
    zero_potential,
)
from uthermo import thermo
from uthermo.leafgeom import bowen_step_arcs
from uthermo.thermo import fit_slope, potential_norm, theta_coboundary


@pytest.fixture(scope="module")
def cat_setup(cat_cocycle, trivial_system):
    path = sample_path(trivial_system, 1200, 1)
    state = SkewState(path=path, point=TorusPoint((0.0, 0.0)))
    rep = lyapunov_spectra(cat_cocycle, [path], [state.point], 1000)[0]
    disk = unstable_disk(cat_cocycle, state, 0.1, rep)
    return path, state, disk


class TestPotentials:
    def test_zero_and_constant(self, cat_setup):
        path, _, _ = cat_setup
        assert zero_potential()(path, TorusPoint((0.4, 0.2))) == 0.0
        assert constant_potential(0.7)(path, TorusPoint((0.4, 0.2))) == 0.7

    def test_coordinate_observable_values(self, cat_setup):
        path, _, _ = cat_setup
        pot = coordinate_potential(0.5, [1, 0])
        x = TorusPoint((0.21, 0.9))
        assert pot(path, x) == pytest.approx(0.5 * math.cos(2 * math.pi * 0.21))

    def test_non_integer_wavevector_rejected(self):
        # a wave with k outside Z^d is not a function on the torus
        for k in ([0.5, 0], [1.5, 0], [1, np.nan], [[1, 0]]):
            with pytest.raises(ValueError, match="integer"):
                coordinate_potential(0.4, k)

    def test_integer_wavevector_label(self):
        assert coordinate_potential(0.4, [1, 0]).label == "cos:0.4@1_0"
        assert coordinate_potential(0.4, np.array([3.0, -1.0]), fn="sin").label == "sin:0.4@3_-1"

    def test_bounded_by_l1_on_grid(self, cat_setup):
        path, _, _ = cat_setup
        pot = coordinate_potential(0.5, [1, 2], phase=0.3)
        pts = np.random.default_rng(1).random((500, 2))
        assert np.max(np.abs(pot.values(path, pts))) <= pot.l1_bound + 1e-12

    def test_lipschitz_modulus_on_grid_pairs(self, cat_setup):
        path, _, _ = cat_setup
        pot = coordinate_potential(0.5, [1, 2], phase=0.3)
        rng = np.random.default_rng(5)
        from uthermo import torus_distance

        for _ in range(300):
            x, y = rng.random(2), rng.random(2)
            lhs = abs(
                pot(path, TorusPoint(tuple(x))) - pot(path, TorusPoint(tuple(y)))
            )
            assert lhs <= pot.lipschitz * torus_distance(x, y) + 1e-12

    def test_per_symbol_table(self, iid_system, iid_cocycle):
        path = sample_path(iid_system, 16, 2)
        pot = oracles.per_symbol_potential((0.5, -0.25))
        expected = 0.5 if path.symbol(0) == 0 else -0.25
        assert pot(path, TorusPoint((0.1, 0.1))) == expected

    def test_norm_averages_over_base(self, iid_system):
        pot = oracles.per_symbol_potential((1.0, -3.0))
        assert potential_norm(pot, iid_system) == pytest.approx(2.0)


class TestBirkhoffSum:
    def test_constant_sums_linearly(self, cat_cocycle, cat_setup):
        path, _, _ = cat_setup
        pot = constant_potential(0.3)
        assert birkhoff_sum(cat_cocycle, pot, path, TorusPoint((0.2, 0.2)), 7) == pytest.approx(
            2.1
        )

    def test_symbol_sum_reads_the_path_window(self, iid_cocycle, iid_system):
        pot = oracles.per_symbol_potential([0.25, -1.5])
        path = sample_path(iid_system, 10, 3).shifted(-4)
        x = TorusPoint((0.2, 0.2))
        expected = sum((0.25, -1.5)[path.symbol(j)] for j in range(15))
        assert birkhoff_sum(iid_cocycle, pot, path, x, 15) == expected
        with pytest.raises(WindowExhausted):
            birkhoff_sum(iid_cocycle, pot, path, x, 16)
        with pytest.raises(WindowExhausted):
            birkhoff_sum(iid_cocycle, pot, path.shifted(-7), x, 1)

    def test_symbol_prefix_is_the_left_to_right_sum(self):
        from uthermo import DrivingSystem
        from uthermo.rds import _symbol_windows

        rng = np.random.default_rng(22)
        system = DrivingSystem(kind="iid", symbol_count=3, distribution=(0.2, 0.3, 0.5))
        for seed in range(6):
            pot = oracles.per_symbol_potential(
                rng.normal(size=3) * 10.0 ** rng.integers(-3, 4, size=3))
            path = sample_path(system, 40, seed).shifted(int(rng.integers(-30, 30)))
            reach = path.forward_reach + 1  # steps 0..n-1 read times up to the window's edge
            table = thermo._symbol_prefix(pot, path, reach)
            acc = 0.0
            for n in range(1, reach + 1):
                acc += pot.symbol_fn(path.symbol(n - 1))
                assert table[n].hex() == acc.hex()
                assert thermo._symbol_sum(pot, path, n).hex() == acc.hex()
            for read in (thermo._symbol_prefix, thermo._symbol_sum):
                with pytest.raises(WindowExhausted):
                    read(pot, path, reach + 1)
            with pytest.raises(WindowExhausted):
                _symbol_windows([path], 0, reach + 1)

    def test_single_step_is_value(self, cat_cocycle, cat_setup):
        path, _, _ = cat_setup
        pot = coordinate_potential(1.0, [1, 0])
        x = TorusPoint((0.37, 0.11))
        assert birkhoff_sum(cat_cocycle, pot, path, x, 1) == pytest.approx(pot(path, x))

    def test_orbit_enumeration_oracle(self, cat_cocycle, cat_setup):
        path, _, _ = cat_setup
        pot = coordinate_potential(1.0, [1, 0])
        orbit = oracles.cat_orbit((0.1, 0.2), 3)
        expected = sum(math.cos(2 * math.pi * p[0]) for p in orbit[:3])
        got = birkhoff_sum(cat_cocycle, pot, path, TorusPoint((0.1, 0.2)), 3)
        assert got == pytest.approx(expected, abs=1e-12)


class TestSeparatedSets:
    def test_single_step_count_matches_packing_oracle(self, cat_cocycle, cat_setup):
        _, _, disk = cat_setup
        for eps in (0.011, 0.02, 0.033, 0.05):
            res = maximal_separated_sets(cat_cocycle, disk, [zero_potential()], 1, eps)[0]
            expected = oracles.packing_count_1d(0.2, eps)
            assert abs(res.count - expected) <= 1
            assert res.log_weighted_sum <= res.log_upper + 1e-12

    def test_selected_points_are_separated(self, cat_cocycle, cat_setup):
        _, _, disk = cat_setup
        res = maximal_separated_sets(cat_cocycle, disk, [zero_potential()], 3, 0.05)[0]
        assert res.count <= 80
        assert oracles.verify_separation(res, cat_cocycle, disk)

    def test_constant_weights_shift_sum_not_points(self, cat_cocycle, cat_setup):
        _, _, disk = cat_setup
        n, eps, c = 4, 0.03, 0.45
        base = maximal_separated_sets(cat_cocycle, disk, [zero_potential()], n, eps)[0]
        shifted = maximal_separated_sets(cat_cocycle, disk, [constant_potential(c)], n, eps)[0]
        assert np.array_equal(base.points, shifted.points)
        assert shifted.log_weighted_sum == pytest.approx(
            base.log_weighted_sum + n * c, abs=1e-12
        )

    def test_enumerated_lower_bound_consistent_with_analytic(self, cat_cocycle, cat_setup):
        # amplitude-zero observable forces the enumeration path; its packed
        # sum must stay within the greedy grid slack of the exact lattice
        _, _, disk = cat_setup
        n, eps = 4, 0.03
        exact = maximal_separated_sets(cat_cocycle, disk, [zero_potential()], n, eps)[0]
        enum = maximal_separated_sets(
            cat_cocycle, disk, [coordinate_potential(0.0, [1, 0])], n, eps
        )[0]
        assert enum.log_weighted_sum <= exact.log_upper + 1e-12
        assert enum.log_weighted_sum >= exact.log_weighted_sum - math.log(9.0 / 8.0) - 0.01
        assert oracles.verify_separation(enum, cat_cocycle, disk)

    def test_weighted_greedy_prefers_heavy_points(self, cat_cocycle, cat_setup):
        _, _, disk = cat_setup
        pot = coordinate_potential(0.8, [1, 0])
        res = maximal_separated_sets(cat_cocycle, disk, [pot], 3, 0.05)[0]
        assert oracles.verify_separation(res, cat_cocycle, disk)
        assert res.log_weighted_sum <= res.log_upper + 1e-12
        # greedy starts from the heaviest candidate, so the packed sum
        # dominates the best single orbit weight on the grid
        from uthermo.thermo import _orbit_sums

        fine = np.linspace(-0.1, 0.1, 2001)
        best_single = float(
            np.max(_orbit_sums(cat_cocycle, disk.base.path, [pot], disk.chart(fine), 3))
        )
        assert res.log_weighted_sum >= best_single - 1e-6

    def test_count_monotone_in_epsilon(self, cat_cocycle, cat_setup):
        _, _, disk = cat_setup
        counts = [
            maximal_separated_sets(cat_cocycle, disk, [zero_potential()], 5, eps)[0].count
            for eps in (0.01, 0.02, 0.04, 0.08)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_coarser_scale_sums_below_finer_upper_bound(self, cat_cocycle, cat_setup):
        # a set separated at the coarser scale is also separated at the finer
        # one, so its weighted sum sits under the finer-scale upper bound
        _, _, disk = cat_setup
        pot = coordinate_potential(0.6, [1, 0])
        fine = maximal_separated_sets(cat_cocycle, disk, [pot], 4, 0.02)[0]
        coarse = maximal_separated_sets(cat_cocycle, disk, [pot], 4, 0.04)[0]
        assert coarse.log_weighted_sum <= fine.log_upper + 1e-12

    def test_spec_scale_cell(self, cat_cocycle, cat_setup):
        # frozen from the packing oracle: at n=8, eps=0.02 the lattice pack of
        # the leaf piece carries log-count/n noticeably above the growth rate
        # (the additive log(2 delta/eps) transient); the slope fit removes it
        _, _, disk = cat_setup
        res = maximal_separated_sets(cat_cocycle, disk, [zero_potential()], 8, 0.02)[0]
        mats = [oracles.CAT_MATRIX.astype(float)] * 8
        gstar = oracles.max_step_growth(mats, oracles.CAT_UNSTABLE_DIR, 8)
        expected = oracles.packing_count_1d(0.2 * gstar, 0.02)
        assert abs(res.count - expected) <= 1
        assert res.log_weighted_sum / 8 == pytest.approx(
            math.log(expected) / 8, abs=1e-3
        )

    def test_perturbed_disk_resolution_guard(self, perturbed_cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 800, 3)
        state = SkewState(path=path, point=TorusPoint((0.2, 0.5)))
        rep = lyapunov_spectra(perturbed_cat_cocycle, [path], [state.point], 600)[0]
        disk = unstable_disk(perturbed_cat_cocycle, state, 0.1, rep)
        with pytest.raises(EstimatorError):
            maximal_separated_sets(
                perturbed_cat_cocycle, disk, [zero_potential()], 9, 0.02
            )[0]

    def test_perturbed_disk_small_n_works(self, perturbed_cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 800, 3)
        state = SkewState(path=path, point=TorusPoint((0.2, 0.5)))
        rep = lyapunov_spectra(perturbed_cat_cocycle, [path], [state.point], 600)[0]
        disk = unstable_disk(perturbed_cat_cocycle, state, 0.1, rep)
        res = maximal_separated_sets(perturbed_cat_cocycle, disk, [zero_potential()], 3, 0.04)[0]
        assert res.count >= 2
        assert res.log_weighted_sum <= res.log_upper + 1e-12
        assert oracles.verify_separation(res, perturbed_cat_cocycle, disk)


class TestPressurePipeline:
    def test_fit_slope_recovers_exact_line(self):
        ns = [3, 4, 5, 6]
        ys = [0.7 * n - 1.2 for n in ns]
        slope, se, resid = fit_slope(ns, ys)
        assert slope == pytest.approx(0.7, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_grid=(8, 8, 9))
        with pytest.raises(ValueError):
            GridSpec(eps_grid=(0.04, 0.02))
        with pytest.raises(ValueError):
            GridSpec(base_grid=0)
        with pytest.raises(ValueError, match="n_grid"):
            GridSpec(n_grid=(0, 1, 2))
        with pytest.raises(ValueError, match="eps_grid"):
            GridSpec()._replace(eps_grid=(0.04, 0.02))

    def test_one_entry_grid_fails_before_sampling(self, monkeypatch, cat_cocycle,
                                                  trivial_system):
        # a one-entry grid is a valid GridSpec (smb uses one) but has no slope
        with pytest.raises(ValueError, match="n_grid"):
            thermo.upper_half((8,))

        def no_draw(*args, **kwargs):
            raise AssertionError("sampled before checking n_grid")

        monkeypatch.setattr(thermo, "sample_path", no_draw)
        monkeypatch.setattr(thermo, "lyapunov_spectra", no_draw)
        with pytest.raises(ValueError, match="n_grid"):
            pressure_estimates(cat_cocycle, trivial_system, [zero_potential()],
                               GridSpec(n_grid=(8,)), seed=1)[0]

    def test_shared_frame_packs_nothing_empty(self, monkeypatch, iid_cocycle, iid_system):
        # on a shared frame the x-independent cells are table reads: a family of
        # such members makes no packing call, and otherwise every base point and
        # cell packs the x-dependent members only; a wave's exact orbit is made
        # once per base point, through the largest n, and every cell reads it
        grid = GridSpec(delta=0.05, n_grid=(3, 4, 5), eps_grid=(0.04, 0.08), base_grid=2,
                        omega_samples=2)
        points = grid.omega_samples * grid.base_grid ** 2
        cells = points * len(grid.n_grid) * len(grid.eps_grid)
        sizes, orbits = [], []
        pack, line_orbit = thermo._separated_sets, thermo._line_orbit

        def counted(cocycle, disk, potentials, *args):
            sizes.append(len(potentials))
            return pack(cocycle, disk, potentials, *args)

        def counted_orbit(cocycle, path, disk, steps):
            orbits.append(steps)
            return line_orbit(cocycle, path, disk, steps)

        monkeypatch.setattr(thermo, "_separated_sets", counted)
        monkeypatch.setattr(thermo, "_line_orbit", counted_orbit)
        fixed = [zero_potential(), constant_potential(0.3)]
        for family, packed in ((fixed, []), ([fixed[0], coordinate_potential(0.4, [1, 0]),
                                              fixed[1]], [1] * cells)):
            sizes.clear()
            orbits.clear()
            est = thermo.pressure_estimates(iid_cocycle, iid_system, family, grid, seed=3)
            assert sizes == packed
            assert orbits == [5] * (points if packed else 0)
            assert all(len(e.cells) == cells for e in est)

    def test_stand_in_table_is_shared_not_copied(self, iid_cocycle, iid_system):
        # with no x-dependent member the first base point's table is recorded under
        # every x_index of its path as one object
        grid = GridSpec(delta=0.05, n_grid=(3, 4, 5), eps_grid=(0.04, 0.08), base_grid=2,
                        omega_samples=2)
        est, = pressure_estimates(iid_cocycle, iid_system, [constant_potential(0.3)], grid, 3)
        seeds = list(dict.fromkeys(t[0] for t in est.tables))
        assert [t[:2] for t in est.tables] == [(s, xi) for s in seeds for xi in range(4)]
        for start in (0, 4):
            first = est.tables[start][2]
            assert len(first) == 2 * 3 * 2
            assert all(t[2] is first for t in est.tables[start : start + 4])

    @pytest.mark.parametrize("names", [("iid_cocycle", "iid_system"),
                                       ("cat_cocycle", "trivial_system")], ids=["iid", "cat"])
    def test_cells_match_packing_every_cell(self, request, names):
        # table reads and the first base point standing in give the records of
        # packing every base point and cell, bit for bit and in order
        cocycle, system = map(request.getfixturevalue, names)
        phiu = [-oracles.CAT_LOG * (s + 1) for s in range(system.symbol_count)]
        fixed = [zero_potential(), constant_potential(0.3),
                 oracles.per_symbol_potential(phiu, "phi-u")]
        grid = GridSpec(delta=0.05, n_grid=(3, 4, 6), eps_grid=(0.04, 0.08), base_grid=3,
                        omega_samples=2)

        def bits(records):
            return [(c.omega_seed, c.x_index, c.delta.hex(), c.n, c.epsilon.hex(),
                     c.log_lower.hex(), c.log_upper.hex(), c.potential_id) for c in records]

        for family in (fixed, [*fixed, coordinate_potential(0.4, [1, 0])]):
            est = pressure_estimates(cocycle, system, family, grid, seed=5)
            ref = oracles.packed_pressure_cells(cocycle, system, family, grid, seed=5)
            assert len(ref[0]) == grid.omega_samples * 9 * 6
            for e, cells in zip(est, ref):
                assert bits(e.cells) == bits(cells), e.potential_label

    def test_cat_entropy_hits_eigen_rate(self, cat_cocycle, trivial_system):
        grid = GridSpec(delta=0.1, n_grid=tuple(range(8, 13)), eps_grid=(0.02, 0.04),
                        base_grid=2, omega_samples=1)
        est = topological_entropy(cat_cocycle, trivial_system, grid, seed=1)
        assert est.value == pytest.approx(oracles.CAT_LOG, rel=0.05)
        assert est.bracket_ok

    def test_constant_shift_exact(self, cat_cocycle, trivial_system):
        grid = GridSpec(delta=0.1, n_grid=tuple(range(8, 13)), eps_grid=(0.02,),
                        base_grid=2, omega_samples=1)
        base = pressure_estimates(cat_cocycle, trivial_system, [zero_potential()], grid, 1)[0]
        shifted = pressure_estimates(
            cat_cocycle, trivial_system, [constant_potential(0.3)], grid, 1
        )[0]
        assert shifted.value - base.value == pytest.approx(0.3, abs=1e-9)

    def test_per_n_log_table_recorded(self, cat_cocycle, trivial_system):
        grid = GridSpec(delta=0.1, n_grid=(8, 9, 10), eps_grid=(0.04,), base_grid=2,
                        omega_samples=1)
        est = topological_entropy(cat_cocycle, trivial_system, grid, seed=1)
        assert set(est.per_n_log) == {8, 9, 10}
        assert est.per_n_log[9] > est.per_n_log[8]

    def test_markov_base_weighted_rate(self, iid_cocycle):
        from uthermo import DrivingSystem

        # rows (0.9, 0.1), (0.5, 0.5) have stationary vector (5/6, 1/6), so
        # the growth rate averages the per-symbol rates with those weights
        sysm = DrivingSystem(kind="markov", symbol_count=2, distribution=(5 / 6, 1 / 6),
                             transition=((0.9, 0.1), (0.5, 0.5)))
        grid = GridSpec(delta=0.1, n_grid=tuple(range(8, 17)), eps_grid=(0.02,),
                        base_grid=2, omega_samples=48)
        est = topological_entropy(iid_cocycle, sysm, grid, seed=6)
        target = (5 / 6 + 2 / 6) * oracles.CAT_LOG
        assert est.value == pytest.approx(target, rel=0.10)

    def test_delta_independence(self, cat_cocycle, trivial_system):
        g1 = GridSpec(delta=0.1, n_grid=tuple(range(8, 13)), eps_grid=(0.02,),
                      base_grid=2, omega_samples=1)
        g2 = GridSpec(delta=0.05, n_grid=tuple(range(8, 13)), eps_grid=(0.02,),
                      base_grid=2, omega_samples=1)
        e1 = topological_entropy(cat_cocycle, trivial_system, g1, seed=1)
        e2 = topological_entropy(cat_cocycle, trivial_system, g2, seed=1)
        assert abs(e1.value - e2.value) <= 2.0 * (e1.slope_ci + e2.slope_ci)

    def test_trivial_leaf_points_contribute_zero(self, trivial_system):
        from uthermo import Cocycle, MapDescriptor

        ident = Cocycle(maps=(MapDescriptor(matrix=np.eye(2)),))
        grid = GridSpec(delta=0.1, n_grid=(8, 9, 10), eps_grid=(0.04,), base_grid=2,
                        omega_samples=1)
        est = topological_entropy(ident, trivial_system, grid, seed=1)
        assert est.value == 0.0
        assert all(v == 0.0 for v in est.per_n_log.values())

    def test_cells_cover_full_grid(self, cat_cocycle, trivial_system):
        grid = GridSpec(delta=0.1, n_grid=(8, 9), eps_grid=(0.02, 0.04), base_grid=2,
                        omega_samples=1)
        est = topological_entropy(cat_cocycle, trivial_system, grid, seed=1)
        assert len(est.cells) == 2 * 2 * 4  # n x eps x base points
        assert all(c.log_lower <= c.log_upper + 1e-12 for c in est.cells)


class TestPropertySuite:
    def test_coboundary_telescopes(self, cat_cocycle, cat_setup):
        path, _, _ = cat_setup
        sigma = coordinate_potential(1.0, [1, 0])
        cob = theta_coboundary(cat_cocycle, sigma)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = TorusPoint(tuple(rng.random(2)))
            n = int(rng.integers(2, 30))
            total = birkhoff_sum(cat_cocycle, cob, path, x, n)
            assert abs(total) <= 2.0 + 1e-9

    def test_suite_passes_on_cat(self, cat_cocycle, trivial_system):
        grid = GridSpec(delta=0.05, n_grid=tuple(range(5, 10)), eps_grid=(0.04,),
                        base_grid=2, omega_samples=1)
        family = [
            zero_potential(),
            constant_potential(0.3),
            coordinate_potential(0.4, [1, 0], label="cosx1"),
            coordinate_potential(0.4, [1, 0], fn="sin", label="sinx1"),
            constant_potential(-0.2),
        ]
        report = pressure_property_suite(cat_cocycle, trivial_system, family, grid, 21)
        failing = [c.name for c in report.checks if not c.passed]
        assert not failing, failing
        by_name = {c.name: c for c in report.checks}
        assert by_name["constant-shift"].slack >= -1e-9
        ordered = sum(oracles.pointwise_leq(a, b, trivial_system)
                      for a in family for b in family if a.label != b.label)
        assert ordered == 3  # -0.2 <= zero <= 0.3
        assert by_name["monotonicity"].detail == f"{ordered} ordered pairs"

    def test_suite_estimates_carry_their_cell_tables(self, iid_cocycle, iid_system):
        # every family member's estimate holds a table per path and base point
        grid = GridSpec(delta=0.05, n_grid=(3, 4, 5), eps_grid=(0.04, 0.08), base_grid=2,
                        omega_samples=2)
        family = [zero_potential(), coordinate_potential(0.4, [1, 0], label="cosx1")]
        report = pressure_property_suite(iid_cocycle, iid_system, family, grid, 21)
        assert len(report.estimates) > len(family)
        for label, est in report.estimates.items():
            assert len(est.tables) == 2 * 4, label
            assert len(est.cells) == 2 * 4 * 3 * 2, label
            assert all(c.potential_id == label for c in est.cells)

    def test_needs_two_potentials(self, cat_cocycle, trivial_system):
        grid = GridSpec(delta=0.05, n_grid=(5, 6), eps_grid=(0.04,), base_grid=2,
                        omega_samples=1)
        with pytest.raises(ValueError):
            pressure_property_suite(cat_cocycle, trivial_system, [zero_potential()], grid, 1)

    def test_combined_potential_bounds(self):
        a = coordinate_potential(0.4, [1, 0])
        b = constant_potential(0.3)
        combo = combine_potentials([(2.0, a), (1.0, b)])
        assert combo.l1_bound == pytest.approx(1.1)
        assert combo.lipschitz == pytest.approx(2.0 * a.lipschitz)


class TestPlaneLeafPacking:
    @pytest.mark.parametrize("name", ["plane_leaf_cocycle", "sheared_plane_leaf_cocycle"])
    def test_frames_bitwise_equal_scalar_push(self, name, request, trivial_system, monkeypatch):
        # the packing run as it is, and again with its frame images taken from
        # the one-point scalar push: the two results must agree bit for bit
        cocycle = request.getfixturevalue(name)
        path = sample_path(trivial_system, 300, 2)
        state = SkewState(path=path, point=TorusPoint((0.21, 0.57, 0.83)))
        rep = lyapunov_spectra(cocycle, [path], [state.point], 200)[0]
        disk = unstable_disk(cocycle, state, 0.05, rep, construction="linear-exact")
        assert disk.leaf_dim == 2
        pot = coordinate_potential(0.3, [1, 0, 1])

        def run():
            return maximal_separated_sets(cocycle, disk, [pot], 4, 0.04, max_candidates=256)[0]

        got = run()

        def scalar_images(cocycle, paths, pts, vecs, steps):
            return np.array([oracles.scalar_tangent_images(cocycle, p, x, v, steps)
                             for p, x, v in zip(paths, pts, vecs)])

        monkeypatch.setattr(thermo, "_tangent_images", scalar_images)
        ref = run()
        assert got.method == ref.method == "greedy-max"
        assert np.array_equal(got.points, ref.points)
        assert (got.count, got.log_weighted_sum, got.log_upper) == (
            ref.count, ref.log_weighted_sum, ref.log_upper)


def _mixed_family(cocycle, symbols: int):
    cos = coordinate_potential(0.4, [1, 0], label="cos")
    sin = coordinate_potential(0.4, [1, 0], fn="sin", label="sin")
    seg = combine_potentials([(0.25, cos), (0.75, sin)], label="seg")
    family = [
        zero_potential(),
        constant_potential(0.3),
        cos,
        sin,
        combine_potentials([(0.0, cos), (1.0, sin)], label="seg0"),
        seg,
        combine_potentials([(1.0, cos), (1.0, theta_coboundary(
            cocycle, coordinate_potential(0.3, [1, 0], label="sigma"))
        )], label="cos+cobdry"),
        combine_potentials([(1.0, seg), (-0.5, constant_potential(0.2)), (2.0, cos)],
                           label="nested"),
        combine_potentials([(1.0, zero_potential()), (1.0, constant_potential(-0.2))],
                           label="const-sum"),
    ]
    if symbols > 1:
        family.append(oracles.per_symbol_potential([0.1, -0.4], label="table"))
        family.append(combine_potentials([(1.0, family[-1]), (1.0, sin)], label="table+sin"))
    return family


class TestPotentialFamily:
    @pytest.mark.parametrize("system_name, cocycle_name, grid", [
        ("trivial_system", "cat_cocycle",
         GridSpec(delta=0.05, n_grid=(5, 6, 7), eps_grid=(0.04, 0.08), base_grid=2,
                  omega_samples=1)),
        ("iid_system", "iid_cocycle",
         GridSpec(delta=0.05, n_grid=(3, 4, 5), eps_grid=(0.04, 0.08), base_grid=2,
                  omega_samples=2)),
    ])
    def test_family_bitwise_equal_scalar_packing(self, system_name, cocycle_name, grid, request):
        # one call for the whole family against each potential estimated on its own,
        # bit for bit, and against each potential packed on its own at every path and
        # base point with the explicit lo/hi greedy pass over float-walk sums: the same
        # cells, with log sums within the walk's rounding (the waves' sums here come
        # from the closed form on the true orbit, which the walk misses by < 1e-13)
        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)
        family = _mixed_family(cocycle, system.symbol_count)
        estimates = thermo.pressure_estimates(cocycle, system, family, grid, seed=7)
        assert [e.potential_label for e in estimates] == [p.label for p in family]
        uh = thermo.upper_half(grid.n_grid)
        for p, est in zip(family, estimates):
            assert pressure_estimates(cocycle, system, [p], grid, seed=7)[0] == est, p.label
            ref = oracles.scalar_pressure_cells(cocycle, system, p, grid, seed=7)
            rows = [(c.omega_seed, c.x_index, c.n, c.epsilon, c.log_lower, c.log_upper)
                    for c in est.cells]
            assert [r[:4] for r in rows] == [r[:4] for r in ref], p.label
            assert np.allclose([r[4:] for r in rows], [r[4:] for r in ref], rtol=0.0,
                               atol=1e-12), p.label
            if p.x_independent:
                assert rows == ref, p.label
            assert all(c.potential_id == p.label for c in est.cells)
            # the fit: the best base point's slope per path, averaged over paths
            slopes = []
            for seed in dict.fromkeys(r[0] for r in rows):
                fits = []
                for xi in range(grid.base_grid ** 2):
                    logs = {r[2]: r[4] for r in rows
                            if r[:2] == (seed, xi) and r[3] == grid.eps_grid[0]}
                    fits.append(fit_slope(uh, [logs[n] for n in uh])[0])
                slopes.append(max(fits))
            assert est.omega_values == tuple(slopes), p.label
            assert est.value == float(np.mean(slopes)), p.label

    def test_single_estimate_is_family_member(self, iid_cocycle, iid_system):
        grid = GridSpec(delta=0.05, n_grid=(3, 4, 5), eps_grid=(0.04,), base_grid=2,
                        omega_samples=2)
        family = _mixed_family(iid_cocycle, 2)
        together = thermo.pressure_estimates(iid_cocycle, iid_system, family, grid, seed=3)
        for p, est in zip(family, together):
            assert pressure_estimates(iid_cocycle, iid_system, [p], grid, seed=3)[0] == est

    @pytest.mark.parametrize("name, leaf_dim", [
        ("perturbed_cat_cocycle", 1), ("plane_leaf_cocycle", 2),
    ])
    def test_packing_family_matches_single_packings(self, name, leaf_dim, request,
                                                    trivial_system):
        # the polyline-profile and 2-d branches: a family call equals each
        # potential packed alone
        cocycle = request.getfixturevalue(name)
        dim = cocycle.dim
        path = sample_path(trivial_system, 300, 2)
        state = SkewState(path=path, point=TorusPoint((0.21, 0.57, 0.83)[:dim]))
        rep = lyapunov_spectra(cocycle, [path], [state.point], 200)[0]
        disk = unstable_disk(cocycle, state, 0.05, rep)
        assert disk.leaf_dim == leaf_dim
        cos = coordinate_potential(0.3, [1] + [0] * (dim - 1), label="cos")
        sin = coordinate_potential(0.2, [0] * (dim - 1) + [1], fn="sin", label="sin")
        family = [zero_potential(), cos, sin, constant_potential(0.1),
                  combine_potentials([(0.5, cos), (0.5, sin)], label="mix")]
        n, eps = (3, 0.04) if leaf_dim == 1 else (2, 0.06)
        together = thermo.maximal_separated_sets(cocycle, disk, family, n, eps,
                                                 max_candidates=400)
        for p, res in zip(family, together):
            alone = maximal_separated_sets(cocycle, disk, [p], n, eps, max_candidates=400)[0]
            assert np.array_equal(res.points, alone.points)
            assert (res.count, res.log_weighted_sum, res.log_upper, res.potential_label) == (
                alone.count, alone.log_weighted_sum, alone.log_upper, alone.potential_label)


class TestOneCodePath:
    """Sheared packs and covers, Birkhoff sums and the fiber-grid helpers against
    the separate loops they once had (kept in oracles as references)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_sheared_pack_and_cover_indices(self, seed, perturbed_cat_cocycle, trivial_system,
                                            monkeypatch):
        cocycle = perturbed_cat_cocycle
        walked = _spy_walks(monkeypatch)
        path = sample_path(trivial_system, 800, seed)
        x = TorusPoint(tuple(np.random.default_rng(seed).random(2)))
        rep = lyapunov_spectra(cocycle, [path], [x], 600)[0]
        cos = coordinate_potential(0.4, [1, 0])
        cells = 0
        for delta in (0.05, 0.1):
            disk = unstable_disk(cocycle, SkewState(path=path, point=x), delta, rep)
            for n in range(1, 5):
                arcs = bowen_step_arcs(cocycle, disk, n, disk.params)
                for eps in (0.03, 0.045, 0.06, 0.08, 0.11, 0.15, 0.3):
                    walked.clear()
                    try:
                        lattice, packed = thermo.maximal_separated_sets(
                            cocycle, disk, [zero_potential(), cos], n, eps)
                    except EstimatorError:  # the arcs are too coarse for eps
                        continue
                    pack = oracles.profile_pack_indices(arcs, eps)
                    cover = oracles.profile_cover_indices(arcs, eps)
                    assert np.array_equal(lattice.points, disk.params[pack])
                    assert lattice.count == len(pack)
                    assert lattice.log_upper == math.log(len(cover))
                    # one walk, the candidates', off which the cover centres' sums are
                    # read, for a cover of any size; on this map they have the bits of
                    # a separate walk over the cover centres
                    (pts, sums), = walked
                    assert np.array_equal(pts, disk.chart(disk.params))
                    cover_sums = sums[0, cover]
                    separate = thermo._orbit_sums(cocycle, path, [cos],
                                                  disk.chart(disk.params[cover]), n)
                    assert np.array_equal(cover_sums, separate[0])
                    assert packed.log_upper == (thermo._logsumexp(cover_sums)
                                                + n * cos.lipschitz * eps / 2.0)
                    cells += 1
        assert cells >= 40

    def test_birkhoff_sum_bitwise_equal_point_loop(self, request):
        from uthermo import geometric_potential

        for system_name, cocycle_name in (("trivial_system", "cat_cocycle"),
                                          ("iid_system", "iid_cocycle"),
                                          ("trivial_system", "perturbed_cat_cocycle")):
            system = request.getfixturevalue(system_name)
            cocycle = request.getfixturevalue(cocycle_name)
            path = sample_path(system, 400, 5)
            rng = np.random.default_rng(8)
            rep = lyapunov_spectra(cocycle, [path], [TorusPoint((0.3, 0.6))], 200)[0]
            cos = coordinate_potential(0.4, [1, 0])
            sin = coordinate_potential(0.3, [1, 2], phase=0.5, fn="sin")
            family = [
                cos, sin,
                combine_potentials([(0.5, cos), (-1.5, sin), (1.0, constant_potential(0.2))]),
                combine_potentials([(1.0, cos), (1.0, theta_coboundary(cocycle, sin))]),
                geometric_potential(cocycle, rep),
            ]
            assert family[-1].x_independent == cocycle.has_constant_jacobian
            for pot in family:
                for x in rng.random((3, 2)):
                    for n in (1, 6, 25):
                        got = birkhoff_sum(cocycle, pot, path, TorusPoint(tuple(x)), n)
                        want = oracles.loop_birkhoff_sum(cocycle, pot, path,
                                                         TorusPoint(tuple(x)), n)
                        assert got == want, (cocycle_name, pot.label, n)

    def test_fiber_helpers_bitwise_equal_symbol_loops(self, trivial_system, iid_system):
        cos = coordinate_potential(0.4, [1, 0])
        sin = coordinate_potential(0.3, [1, 2], phase=0.5, fn="sin")
        table = oracles.per_symbol_potential([0.1, -0.4])
        for system in (trivial_system, iid_system):
            family = [zero_potential(), constant_potential(0.3), constant_potential(-0.2),
                      cos, sin, combine_potentials([(1.0, cos), (-1.0, sin)]),
                      combine_potentials([(2.0, cos), (1.0, constant_potential(0.3))])]
            if system.symbol_count == 2:
                family += [table, combine_potentials([(1.0, table), (0.5, sin)])]
            for a in family:
                assert potential_norm(a, system) == oracles.fiber_sup_norm(a, system)
                assert thermo._fiber_extrema(a, system) == oracles.fiber_extrema(a, system)

    def test_equal_weight_rows_share_one_selection(self, cat_cocycle, cat_setup, monkeypatch):
        """Rows with equal bits share the selection and both log-sum-exps; rows equal
        as floats but not in bits (signed zeros, NaN payloads) each get their own."""
        _, _, disk = cat_setup
        cos = coordinate_potential(0.4, [1, 0], label="cos")
        sin = coordinate_potential(0.4, [1, 0], fn="sin", label="sin")
        family = [cos, sin, combine_potentials([(0.0, cos), (1.0, sin)], label="seg0"),
                  combine_potentials([(1.0, cos), (0.0, sin)], label="seg1")]

        def at_1(value):
            return lambda r: np.where(np.arange(len(r)) == 1, value, r)

        # rows set by label: +0.0 and -0.0 everywhere; a NaN at index 1 only, where the
        # strided sample of a row does not look, twice with one payload and once with another
        payload = np.array([0x7FF8000000000001]).view(np.float64)[0]
        crafted = {"zero+": lambda r: np.zeros_like(r), "zero-": lambda r: np.full_like(r, -0.0),
                   "nan": at_1(np.nan), "nan-copy": at_1(np.nan), "nan-payload": at_1(payload)}
        family += [coordinate_potential(0.4, [1, 0], label=label) for label in crafted]
        orbit_sums = thermo._orbit_sums

        def crafted_sums(cocycle, path, potentials, *args):
            sums = orbit_sums(cocycle, path, potentials, *args)
            for row, p in zip(sums, potentials):
                if p.label in crafted:
                    row[...] = crafted[p.label](row)
            return sums

        monkeypatch.setattr(thermo, "_orbit_sums", crafted_sums)
        alone = [maximal_separated_sets(cat_cocycle, disk, [p], 4, 0.04)[0] for p in family]
        calls = {"kernel": 0, "logsumexp": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(thermo, "_greedy_kernel", counted("kernel", thermo._greedy_kernel))
        monkeypatch.setattr(thermo, "_logsumexp", counted("logsumexp", thermo._logsumexp))
        together = thermo.maximal_separated_sets(cat_cocycle, disk, family, 4, 0.04)
        # distinct rows: cos, sin, zero+, zero-, nan, nan-payload
        assert calls == {"kernel": 6, "logsumexp": 12}
        for res, ref in zip(together, alone):
            assert np.array_equal(res.points, ref.points)
            assert (res.count, res.potential_label) == (ref.count, ref.potential_label)
            for got, want in ((res.log_weighted_sum, ref.log_weighted_sum),
                              (res.log_upper, ref.log_upper)):
                assert np.array_equal(np.float64(got), np.float64(want), equal_nan=True)


class TestKernels:
    def test_index_order_picks_equal_greedy_pass(self, perturbed_cat_cocycle, trivial_system):
        """A polyline packs in index order as a jump chain: on windows whose right
        ends never decrease, the picks of _greedy_windows in index order."""
        rng = np.random.default_rng(12)
        for m in (1, 2, 3, 17, 1025):
            for reach in (0, 1, 4, 40, 2000):
                at = np.arange(m)
                hi = np.minimum(np.maximum.accumulate(at + rng.integers(0, reach + 1, m)), m - 1)
                lo = np.maximum(at - rng.integers(0, reach + 1, m), 0)
                want = thermo._greedy_windows(at, lo, hi, m)
                assert thermo._index_order_picks(hi) == want.tolist(), (m, reach)
        # the windows of the sheared cat map's cells (perfbench's sheared workload)
        path = sample_path(trivial_system, 800, 5)
        for x in ((0.25, 0.25), (0.75, 0.25), (0.2, 0.5)):
            state = SkewState(path=path, point=TorusPoint(x))
            rep = lyapunov_spectra(perturbed_cat_cocycle, [path], [state.point], 600)[0]
            disk = unstable_disk(perturbed_cat_cocycle, state, 0.1, rep)
            m = len(disk.params)
            for n in (1, 2, 3, 8):
                arcs = bowen_step_arcs(perturbed_cat_cocycle, disk, n, disk.params)
                for eps in (0.02, 0.04):
                    lo, hi = thermo._profile_windows(arcs, eps)
                    want = thermo._greedy_windows(np.arange(m), lo, hi, m)
                    assert thermo._index_order_picks(hi) == want.tolist(), (x, n, eps)
                    if np.max(np.diff(arcs, axis=1)) <= eps / (2 * thermo.GRID_FACTOR):
                        res = maximal_separated_sets(perturbed_cat_cocycle, disk,
                                                     [zero_potential()], n, eps)[0]
                        assert res.points.tobytes() == disk.params[want].tobytes()

    @staticmethod
    def window_pass(w, width):
        """The greedy pass over explicit windows in the stable order of -w."""
        n = len(w)
        lo = np.maximum(np.arange(n) - width, 0)
        hi = np.minimum(np.arange(n) + width, n - 1)
        return np.sort(oracles.greedy_kernel(np.argsort(-w, kind="stable"), lo, hi, n))

    def test_greedy_kernel_matches_window_pass(self):
        """Slopes and valleys are decided by peaks and chains, ties, signed zeros,
        NaN and infinities by the rest; every row gives the window pass's picks."""
        rng = np.random.default_rng(4)
        rows = []
        for n, width in ((1, 8), (5, 8), (300, 1), (2000, 8), (2000, 3)):
            # coarse weights force ties, which the stable order breaks by index
            w = np.round(rng.standard_normal(n), 1)
            order = np.argsort(-w, kind="stable")
            lo = np.maximum(np.arange(n) - width, 0)
            hi = np.minimum(np.arange(n) + width, n - 1)
            assert np.array_equal(thermo._greedy_windows(order, lo, hi, n),
                                  self.window_pass(w, width))
            rows.append((w, width))
        for width in range(1, 10):
            x = np.arange(600)
            valley = np.cos(0.011 * x) + 0.3 * np.cos(0.05 * x + 1.0)
            rows += [(x * 0.5, width), (-x * 0.5, width), (valley, width),
                     (-valley, width), (np.round(valley, 2), width),
                     (np.where(x % 2 == 0, 0.0, -0.0), width)]
            for n in (0, 1, width, width + 1):
                for fill in ([0.0], [0.0, -0.0], [1.0, np.nan], [np.inf, -np.inf, 0.0]):
                    rows.append((rng.choice(fill, n), width))
            w = rng.standard_normal(400)
            w[rng.integers(0, 400, 40)] = np.nan
            w[rng.integers(0, 400, 20)] = np.inf
            w[rng.integers(0, 400, 20)] = -np.inf
            rows.append((w, width))
        for i in range(3000):
            width = int(rng.integers(1, 10))
            n = int(rng.integers(0, 160))
            x = np.arange(n)
            w = sum(rng.random() * np.cos(rng.random() * 0.3 * x + 6 * rng.random())
                    for _ in range(3)) + np.zeros(n)
            if i % 4 == 1:
                w = np.round(w, 1)
            elif i % 4 == 2:
                w = rng.choice([0.0, -0.0, 1.0, -1.0], n)
            elif i % 4 == 3 and n:
                w[rng.integers(0, n, n // 10 + 1)] = rng.choice([np.nan, np.inf, -np.inf])
            rows.append((w, width))
        for w, width in rows:
            got = thermo._greedy_kernel(w, width)
            assert got.dtype == np.int64
            assert np.array_equal(got, self.window_pass(w, width)), (w, width)

    def test_window_max_matches_direct_windows(self):
        """Every window length, powers of two included, gives max(a[j : j + k]);
        NaN spreads through each window that holds one."""
        rng = np.random.default_rng(6)
        rows = [rng.standard_normal(60), np.round(rng.standard_normal(45), 1),
                rng.random(33) < 0.2]
        for fill in ([np.nan], [np.inf], [-np.inf], [np.nan, np.inf, -np.inf]):
            w = rng.standard_normal(50)
            w[rng.integers(0, 50, 6)] = rng.choice(fill, 6)
            rows.append(w)
        rows.append(np.full(20, -np.inf))
        for a in rows:
            for k in range(1, 21):
                for row in (a, a[:k]):
                    want = np.array([np.max(row[j : j + k]) for j in range(len(row) - k + 1)])
                    got = thermo._window_max(row, k)
                    assert got.dtype == row.dtype, k
                    assert np.array_equal(got, want, equal_nan=True), (row, k)

    def test_logsumexp_bitwise_equal_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(11)
        cases = [np.array([]), np.array([np.inf]), np.array([-np.inf, -np.inf]),
                 np.array([np.nan, 1.0]), np.array([np.inf, -np.inf, 2.0]),
                 np.array([np.inf, np.inf]), np.array([800.0, 800.0, 1.0])]
        for i in range(600):
            a = rng.standard_normal(int(rng.integers(1, 500))) * rng.choice([1e-3, 1.0, 300.0])
            if i % 4 == 1:
                a = np.round(a, 1)  # ties at the max
            elif i % 4 == 2:
                a[rng.integers(0, len(a))] = rng.choice([np.inf, -np.inf, np.nan])
            elif i % 4 == 3:
                a = np.full(len(a), a[0])
            cases.append(a)
        for a in cases:
            got, want = thermo._logsumexp(a), float(logsumexp(a))
            assert np.array_equal(np.float64(got), np.float64(want), equal_nan=True), a
            assert math.copysign(1.0, got) == math.copysign(1.0, want) or math.isnan(got)

    def test_library_does_not_import_scipy(self):
        import os
        import subprocess
        import sys

        from conftest import REPO_ROOT

        code = "import sys, uthermo.cli; print('scipy' in sys.modules)"
        path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=path))
        assert out.stdout.strip() == "False"


class TestPackingWalk:
    """The packing walk maps the points once per step, reads each coboundary off it
    and orders the picks by the stable order without always paying for it."""

    @pytest.mark.parametrize("system_name, cocycle_name", [
        ("trivial_system", "cat_cocycle"),
        ("iid_system", "iid_cocycle"),
        ("trivial_system", "perturbed_cat_cocycle"),
    ])
    def test_orbit_sums_map_once_per_step(self, system_name, cocycle_name, request,
                                          monkeypatch):
        from uthermo import Cocycle, MapDescriptor

        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)
        path = sample_path(system, 200, 4)
        cos = coordinate_potential(0.4, [1, 0], label="cos")
        sin = coordinate_potential(0.3, [1, 2], phase=0.5, fn="sin", label="sin")
        cob = theta_coboundary(cocycle, sin)
        family = [
            cos, cob, zero_potential(),
            combine_potentials([(1.0, cos), (1.0, cob)]),
            combine_potentials([(0.5, sin), (-1.0, theta_coboundary(cocycle, cos)),
                                (1.0, constant_potential(0.2))]),
        ]
        # a coboundary over an equal but distinct cocycle is evaluated on its own
        foreign = theta_coboundary(Cocycle(maps=cocycle.maps), sin)
        pts = np.random.default_rng(6).random((300, 2))
        cases = [(n, fam) for n in (1, 5, 12) for fam in (family, [foreign])]
        want = [[oracles.scalar_orbit_sums(cocycle, path, p, pts, n) for p in fam]
                for n, fam in cases]
        calls = []
        apply = MapDescriptor.apply
        monkeypatch.setattr(MapDescriptor, "apply",
                            lambda self, x: calls.append(len(x)) or apply(self, x))
        for (n, fam), rows in zip(cases, want):
            calls.clear()
            got = thermo._orbit_sums(cocycle, path, fam, pts, n)
            # the walk maps on to x_n for the coboundary; a foreign one maps x_j itself
            assert calls == [len(pts)] * (n if fam is family else 2 * n - 1)
            for row, ref, p in zip(got, rows, fam):
                assert np.array_equal(row, ref), (p.label, n)

    def test_suite_family_packing_bitwise_equal_scalar_oracle(self, cat_cocycle, trivial_system,
                                                              cat_setup, monkeypatch):
        from uthermo.leafgeom import leaf_growth_factors_batch

        class Captured(Exception):
            pass

        def capture(cocycle, system, family, grid, seed):
            raise Captured(family)

        monkeypatch.setattr(thermo, "pressure_estimates", capture)
        grid = GridSpec(delta=0.05, n_grid=tuple(range(5, 10)), eps_grid=(0.04,),
                        base_grid=2, omega_samples=1)
        potentials = [
            zero_potential(),
            constant_potential(0.3),
            coordinate_potential(0.4, [1, 0], label="cosx1"),
            coordinate_potential(0.4, [1, 0], fn="sin", label="sinx1"),
            constant_potential(-0.2),
        ]
        with pytest.raises(Captured) as caught:
            pressure_property_suite(cat_cocycle, trivial_system, potentials, grid, seed=21)
        family = caught.value.args[0]
        assert any(leaf.coboundary for p in family for leaf in thermo._leaves(p))
        _, _, disk = cat_setup
        walks = _spy_walks(monkeypatch)
        varying = [p for p in family if not p.x_independent]
        for n, eps in ((3, 0.04), (5, 0.02), (6, 0.04), (7, 0.08)):
            growth = leaf_growth_factors_batch(cat_cocycle, [disk], n)[0]
            walks.clear()
            results = thermo.maximal_separated_sets(cat_cocycle, disk, family, n, eps,
                                                    growth=growth)
            # x-independent cells are the analytic lattice, bit for bit
            for p, res in zip(family, results):
                if p.x_independent:
                    want = oracles.scalar_linear_packing(cat_cocycle, disk, p, n, eps, growth)
                    assert (res.log_weighted_sum, res.log_upper) == want, (p.label, n, eps)
            # the others are packed bit for bit from their closed-form sums
            (_, sums), = walks
            _check_linear_cell(cat_cocycle, disk, varying, n, eps, growth,
                               [r for p, r in zip(family, results) if not p.x_independent],
                               sums)

    def test_linear_packing_needs_no_pick_order(self, cat_cocycle, cat_setup, monkeypatch):
        from uthermo.leafgeom import leaf_growth_factors_batch

        def refuse(weights):
            raise AssertionError("linear-exact packing ordered a whole row")

        monkeypatch.setattr(thermo, "_pick_order", refuse)
        _, _, disk = cat_setup
        family = [coordinate_potential(0.4, [1, 0], label="cos"),
                  coordinate_potential(0.3, [1, 2], phase=0.5, fn="sin", label="sin"),
                  coordinate_potential(0.4, [1, 0], fn="sin", label="sinx1")]
        walks = _spy_walks(monkeypatch)
        for n, eps in ((3, 0.04), (6, 0.02), (8, 0.08)):
            growth = leaf_growth_factors_batch(cat_cocycle, [disk], n)[0]
            walks.clear()
            results = thermo.maximal_separated_sets(cat_cocycle, disk, family, n, eps,
                                                    growth=growth)
            (_, sums), = walks
            _check_linear_cell(cat_cocycle, disk, family, n, eps, growth, results, sums)

    def test_pick_order_equals_stable_argsort(self):
        rng = np.random.default_rng(9)
        cases = [np.array([]), np.array([1.0]), np.array([0.0, -0.0, 0.0, -0.0]),
                 np.array([-0.0, 1.0, 0.0, 1.0, -0.0, -1.0]), np.array([2.0, np.nan, 2.0])]
        for size in (2, 17, 1000, 44_000):
            w = rng.standard_normal(size)
            cases.append(w)  # no ties: the default sort's order is the one order
            tied = w.copy()
            tied[rng.integers(0, size, size // 3 + 1)] = w[0]
            cases.append(tied)
            cases.append(np.round(w, 1))
            signed = w.copy()
            signed[::3] = 0.0
            signed[1::3] = -0.0
            cases.append(signed)
        for w in cases:
            assert np.array_equal(thermo._pick_order(w), np.argsort(-w, kind="stable")), w

    @staticmethod
    def _wave_family(cocycle):
        """Waves that share k with another phase, fn or amplitude, negative and zero
        amplitudes, 0.0 and -0.0 weights, a wave that is both a plain leaf and a
        coboundary's sigma, sigma-only waves, and a non-wave sigma whose
        evaluations are counted."""
        cos = coordinate_potential(0.4, [1, 0], label="cos")
        sin = coordinate_potential(0.4, [1, 0], fn="sin", label="sin")
        cos_neg = coordinate_potential(-0.7, [1, 0], label="cos-neg")
        cos_phase = coordinate_potential(0.3, [1, 0], phase=0.5, label="cos-phase")
        sin_phase = coordinate_potential(-0.2, [1, 0], phase=0.5, fn="sin", label="sin-phase")
        flat = coordinate_potential(0.0, [1, 1], fn="sin", label="flat")
        sin_11 = coordinate_potential(1.1, [1, 1], fn="sin", label="sin11")
        calls = []

        def poly(path, pts):
            calls.append(len(pts))
            return pts[:, 0] * (pts[:, 1] - 0.5)

        bumpy = thermo.Potential(label="bumpy", l1_bound=0.5, lipschitz=2.0,
                                 vector_fn=poly)
        # sigmas that no plain leaf shares: one with a wavevector of its own, one
        # sharing (k, phase) with the plain sin waves at (1, 1)
        lone = coordinate_potential(0.6, [2, 1], phase=-0.4, label="lone")
        cos_11 = coordinate_potential(-0.9, [1, 1], label="cos11")
        family = [
            cos, sin, cos_neg, flat,
            combine_potentials([(0.0, cos_neg), (1.0, sin_phase)], label="zero-weight"),
            combine_potentials([(-0.0, sin), (0.0, flat), (2.5, cos_phase)], label="signed"),
            combine_potentials([(1.0, cos), (1.0, theta_coboundary(cocycle, cos))],
                               label="cos+cobdry(cos)"),
            combine_potentials([(0.5, sin_11), (-1.0, theta_coboundary(cocycle, sin_phase)),
                                (1.0, constant_potential(0.2))], label="nested-cob"),
            combine_potentials([(1.0, combine_potentials([(0.25, cos), (0.75, sin)])),
                                (-0.5, sin_phase), (1.0, cos_neg)], label="nested"),
            theta_coboundary(cocycle, bumpy),
            theta_coboundary(cocycle, lone),
            combine_potentials([(0.5, cos), (1.0, theta_coboundary(cocycle, cos_11))],
                               label="cos+cobdry(cos11)"),
        ]
        return family, calls

    @pytest.mark.parametrize("system_name, cocycle_name", [
        ("trivial_system", "cat_cocycle"),
        ("iid_system", "iid_cocycle"),
        ("trivial_system", "perturbed_cat_cocycle"),
    ])
    def test_one_trig_per_wave_per_point_set(self, system_name, cocycle_name, request,
                                            monkeypatch):
        from collections import Counter

        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)
        path = sample_path(system, 200, 5)
        family, calls = self._wave_family(cocycle)
        pts = np.random.default_rng(8).random((400, 2))
        pts[:7] = 0.0  # sin(0) = 0, so negative amplitudes and weights make -0.0
        want = {n: [oracles.scalar_orbit_sums(cocycle, path, p, pts, n) for p in family]
                for n in (1, 4, 9)}
        phases, trigs = Counter(), Counter()
        wave_phases = thermo._wave_phases
        last = []

        def spy_phases(x, k, phase, **kwargs):
            phases[k, phase] += 1
            last[:] = [(k, phase)]
            return wave_phases(x, k, phase, **kwargs)

        def spy_trig(fn):
            real = thermo._TRIG[fn]

            def trig(arg, **kwargs):
                trigs[(*last[0], fn)] += 1
                return real(arg, **kwargs)
            return trig

        monkeypatch.setattr(thermo, "_wave_phases", spy_phases)
        monkeypatch.setattr(thermo, "_TRIG", {fn: spy_trig(fn) for fn in ("cos", "sin")})
        leaves = [leaf for p in family for leaf in thermo._leaves(p)]
        sigmas = [leaf.coboundary[1] for leaf in leaves if leaf.coboundary]
        plain = [leaf for leaf in leaves if not leaf.coboundary]
        plain_waves = {leaf.wave[:3] for leaf in plain if leaf.wave}
        sigma_waves = {s.wave[:3] for s in sigmas if s.wave}
        assert sigma_waves - plain_waves and sigma_waves & plain_waves
        # plain waves at x_0 .. x_{n-1}, sigmas' at x_0 and x_n
        for n, rows in want.items():
            phases.clear()
            trigs.clear()
            calls.clear()
            got = thermo._orbit_sums(cocycle, path, family, pts, n)
            assert trigs == {w: (n if w in plain_waves else 1) + (w in sigma_waves)
                             for w in plain_waves | sigma_waves}
            assert phases == {g: (n if g in {w[:2] for w in plain_waves} else 1)
                              + (g in {w[:2] for w in sigma_waves})
                              for g in {w[:2] for w in plain_waves | sigma_waves}}
            assert calls == [len(pts)] * 2  # the non-wave sigma, at x_0 and x_n
            for row, ref, p in zip(got, rows, family):
                assert row.tobytes() == ref.tobytes(), (p.label, n)

    def test_weighted_sum_values_keep_signed_zeros(self, cat_cocycle, cat_setup):
        path, _, _ = cat_setup
        family, _ = self._wave_family(cat_cocycle)
        pts = np.random.default_rng(2).random((300, 2))
        pts[:9] = 0.0
        neg = coordinate_potential(-0.5, [1, 0], fn="sin", label="neg")
        extra = [
            combine_potentials([(1.0, neg)], label="one"),
            combine_potentials([(0.0, neg)], label="zero-times-neg"),
            combine_potentials([(-0.0, coordinate_potential(0.5, [1, 0], fn="sin"))]),
            combine_potentials([(1.0, combine_potentials([(1.0, neg), (0.0, neg)])),
                                (0.0, neg)], label="nested-zeros"),
        ]
        products = np.multiply(0.0, neg.values(path, pts))
        assert np.signbit(products).any()  # the terms do carry -0.0
        for p in [q for q in family if thermo._expands(q)] + extra:
            got = p.values(path, pts)
            assert got.tobytes() == oracles.scalar_values(p, path, pts).tobytes(), p.label

    def test_wave_values_bitwise_equal_closed_form(self, cat_setup):
        # the shared phase array is made in place; it must give the bits of
        # a * trig(2 pi (x @ k) + phase) made the plain way
        path, _, _ = cat_setup
        pts = np.random.default_rng(4).random((1000, 2)) * 3.0 - 1.0
        pts[:5] = 0.0
        for amp, k, phase, fn in [(0.4, (1, 0), 0.0, "cos"), (-0.7, (1, 1), 0.5, "sin"),
                                  (1.1, (2, -1), -1.25, "cos"), (0.0, (0, 3), 2.0, "sin")]:
            trig = np.cos if fn == "cos" else np.sin
            want = amp * trig(2.0 * math.pi * (pts @ np.asarray(k, dtype=float)) + phase)
            got = coordinate_potential(amp, k, phase=phase, fn=fn).values(path, pts)
            assert got.tobytes() == want.tobytes(), (amp, k, phase, fn)


COCYCLES = [
    ("trivial_system", "cat_cocycle"),
    ("iid_system", "iid_cocycle"),
    ("trivial_system", "perturbed_cat_cocycle"),
]


class TestLeafSums:
    """The walk keeps one running sum per leaf, combines each weighted sum once
    from its leaves' sums and reads a coboundary as sigma(x_n) - sigma(x_0)."""

    @pytest.mark.parametrize("system_name, cocycle_name", COCYCLES)
    def test_coboundary_row_is_end_difference(self, system_name, cocycle_name, request,
                                              monkeypatch):
        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)
        path = sample_path(system, 200, 7)
        calls = []

        def poly(path, pts):
            calls.append(len(pts))
            return pts[:, 0] * (pts[:, 1] - 0.5)

        wave = coordinate_potential(0.6, [2, 1], phase=-0.4, label="wave")
        bumpy = thermo.Potential(label="bumpy", l1_bound=0.5, lipschitz=2.0, vector_fn=poly)
        family = [theta_coboundary(cocycle, wave), theta_coboundary(cocycle, bumpy)]
        pts = np.random.default_rng(3).random((250, 2))
        trigs = []
        trig_values = thermo._trig_values
        monkeypatch.setattr(thermo, "_trig_values",
                            lambda x, groups: trigs.extend(groups) or trig_values(x, groups))
        for n in (1, 2, 7, 15):
            end = pts
            for j in range(n):
                end = cocycle.map_for(path.symbol(j)).apply(end)
            want = [s.values(path.shifted(n), end) - s.values(path, pts) for s in (wave, bumpy)]
            calls.clear()
            trigs.clear()
            got = thermo._orbit_sums(cocycle, path, family, pts, n)
            assert calls == [len(pts)] * 2, n
            assert trigs == [((2.0, 1.0), -0.4)] * 2, n
            for row, ref, p in zip(got, want, family):
                assert row.tobytes() == ref.tobytes(), (p.label, n)

    @pytest.mark.parametrize("system_name, cocycle_name", COCYCLES)
    def test_map_calls_per_walk(self, system_name, cocycle_name, request, monkeypatch):
        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)
        path = sample_path(system, 200, 3)
        cos = coordinate_potential(0.4, [1, 0], label="cos")
        sin = coordinate_potential(0.3, [1, 2], phase=0.5, fn="sin", label="sin")
        plain = [cos, sin, combine_potentials([(0.5, cos), (1.0, constant_potential(0.2))])]
        with_cob = plain + [combine_potentials([(1.0, cos), (1.0, theta_coboundary(cocycle, sin))])]
        pts = np.random.default_rng(5).random((120, 2))
        calls = []
        apply = MapDescriptor.apply
        monkeypatch.setattr(MapDescriptor, "apply",
                            lambda self, x: calls.append(len(x)) or apply(self, x))
        for n in (1, 2, 9):
            for family, maps in ((plain, n - 1), (with_cob, n)):
                calls.clear()
                thermo._orbit_sums(cocycle, path, family, pts, n)
                assert calls == [len(pts)] * maps, (n, len(family))

    @pytest.mark.parametrize("system_name, cocycle_name", COCYCLES)
    def test_agrees_with_stepwise_sums(self, system_name, cocycle_name, request):
        # one-leaf potentials keep the bits of adding their values step by step;
        # weighted sums and coboundaries move only in their last bits
        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)
        path = sample_path(system, 200, 5)
        family, _ = TestPackingWalk._wave_family(cocycle)
        family += [constant_potential(0.3),
                   oracles.per_symbol_potential([0.1, -0.7][:system.symbol_count]),
                   family[-3].coboundary[1]]  # the non-wave sigma as a plain leaf
        pts = np.random.default_rng(8).random((400, 2))
        pts[:7] = 0.0
        for n in (1, 4, 9, 20):
            got = thermo._orbit_sums(cocycle, path, family, pts, n)
            for row, p in zip(got, family):
                want = oracles.stepwise_orbit_sums(cocycle, path, p, pts, n)
                if thermo._expands(p) or p.coboundary:
                    assert np.max(np.abs(row - want)) <= 1e-12 * n * p.l1_bound, (p.label, n)
                else:
                    assert row.tobytes() == want.tobytes(), (p.label, n)

    @pytest.mark.parametrize("system_name, cocycle_name", COCYCLES)
    def test_suite_family_packs_as_alone(self, system_name, cocycle_name, request,
                                         monkeypatch):
        system = request.getfixturevalue(system_name)
        cocycle = request.getfixturevalue(cocycle_name)

        class Captured(Exception):
            pass

        def capture(cocycle, system, family, grid, seed):
            raise Captured(family)

        monkeypatch.setattr(thermo, "pressure_estimates", capture)
        grid = GridSpec(delta=0.05, n_grid=(2, 3), eps_grid=(0.04,), base_grid=1,
                        omega_samples=1)
        potentials = [coordinate_potential(0.4, [1, 0], label="cosx1"),
                      coordinate_potential(0.4, [1, 0], fn="sin", label="sinx1")]
        with pytest.raises(Captured) as caught:
            pressure_property_suite(cocycle, system, potentials, grid, seed=21)
        family = caught.value.args[0]
        assert any(leaf.coboundary for p in family for leaf in thermo._leaves(p))
        path = sample_path(system, 1200, 2)
        state = SkewState(path=path, point=TorusPoint((0.3, 0.6)))
        rep = lyapunov_spectra(cocycle, [path], [state.point], 1000)[0]
        disk = unstable_disk(cocycle, state, 0.05, rep)
        cells = 0
        for n in (1, 2, 3, 5):
            for eps in (0.03, 0.06, 0.2):
                try:
                    together = maximal_separated_sets(cocycle, disk, family, n, eps)
                except EstimatorError:  # sheared arcs too coarse for eps
                    continue
                for p, res in zip(family, together):
                    alone, = maximal_separated_sets(cocycle, disk, [p], n, eps)
                    assert (res.log_weighted_sum, res.log_upper, res.count) == \
                        (alone.log_weighted_sum, alone.log_upper, alone.count), (p.label, n, eps)
                    assert np.array_equal(res.points, alone.points), (p.label, n, eps)
                cells += 1
        assert cells >= 6


def _spy_walks(monkeypatch):
    """Record (points, orbit sums) of every thermo._orbit_sums call; a linear-exact
    cell's points are its _LineGrid's."""
    walks = []
    orbit_sums = thermo._orbit_sums

    def spy(cocycle, path, potentials, pts, n, line=None):
        walks.append((pts if line is None else line.points(),
                      orbit_sums(cocycle, path, potentials, pts, n, line)))
        return walks[-1][1]

    monkeypatch.setattr(thermo, "_orbit_sums", spy)
    return walks


EPS = np.finfo(float).eps


def _check_linear_cell(cocycle, disk, family, n, eps, growth, results, sums, grid_factor=8):
    """A linear-exact cell of x-dependent potentials, packed from the orbit sums sums
    over its candidates and its off-grid cover points.

    - Given those sums, each result is bitwise the greedy/logsumexp packing oracle's,
      whose cover sums are looked up among the candidates' (and the extra points').
    - The sums agree with the float walk within that walk's rounding error,
      4 EPS * wave_phase_scale at radius 1 (the walk's pseudo-orbit error grows like
      |beta_j|, from the points' rounding).
    - At 12 sampled candidates and every extra point they agree with the exact orbit of
      the exact chart points within the closed form's bound, 4 EPS * wave_phase_scale at
      the disk's radius (its phases round once each, on |theta_j + t beta_j|).
    """
    path = disk.base.path
    gstar = float(np.max(growth[:n]))
    h = eps / (grid_factor * gstar)
    params = -disk.radius + h * np.arange(math.floor(2.0 * disk.radius / h) + 1)
    cover_step = eps / gstar
    cover = -disk.radius + cover_step * (np.arange(max(1, math.ceil(2.0 * disk.radius
                                                                      / cover_step))) + 0.5)
    cover = np.clip(cover, -disk.radius, disk.radius)
    walked = np.concatenate([params, cover[~np.isin(cover, params)]])
    assert sums.shape == (len(family), len(walked))
    sample = np.unique(np.r_[np.linspace(0, len(params) - 1, 12).astype(int),
                             np.arange(len(params), len(walked))])
    exact_pts = oracles.exact_chart_points(disk, walked[sample])
    for p, res, row in zip(family, results, sums):
        table = dict(zip(walked.tolist(), row.tolist()))
        want = oracles.scalar_linear_packing(
            cocycle, disk, p, n, eps, growth, grid_factor,
            orbit_sums=lambda t: np.array([table[v] for v in t.tolist()]))
        assert (res.log_weighted_sum, res.log_upper) == want, (p.label, n, eps)
        walk = oracles.scalar_orbit_sums(cocycle, path, p, disk.chart(walked), n)
        tol = 4 * EPS * oracles.wave_phase_scale(cocycle, disk, p, n, 1.0)
        assert np.max(np.abs(row - walk)) <= tol, (p.label, n, eps)
        exact = oracles.exact_wave_orbit_sums(cocycle, path, p, exact_pts, n)
        bound = 4 * EPS * oracles.wave_phase_scale(cocycle, disk, p, n, disk.radius)
        assert np.max(np.abs(row[sample] - exact)) <= bound, (p.label, n, eps)


class TestOneWalkPerCell:
    """A packing cell sums its candidates once, and the cover's orbit sums are read
    off that pass, for a cover of any size.  On a linear-exact disk the waves' sums
    come from the closed form, and a separate float walk agrees within its rounding
    (_check_linear_cell).  On a polyline chart the cover's sums are bitwise equal to a
    separate walk over the cover points when the cover has two or more points.  A
    one-row walk can round a product (by A^2, or in the phase 2 pi (3x + y) of the sin
    wave) unlike the same row stacked, so a one-point cover's sums agree to rounding,
    and bitwise on the cat map for the cos wave, whose products are exact."""

    @staticmethod
    def _check_cover_sums(name, stacked, separate):
        """Cover sums off the cell's walk against a separate cover walk."""
        if stacked.shape[1] > 1:
            assert np.array_equal(stacked, separate)
        else:
            assert np.allclose(stacked, separate, rtol=0.0, atol=1e-12)
            if name == "cat":
                assert np.array_equal(stacked[0], separate[0])  # cos

    def _family(self, cocycle):
        cos = coordinate_potential(0.4, [1, 0], label="cos")
        sin = coordinate_potential(0.3, [3, 1], phase=0.5, fn="sin", label="sin")
        return [cos, sin, combine_potentials([(0.5, cos), (1.0, theta_coboundary(cocycle, sin)),
                                              (1.0, constant_potential(0.2))])]

    def _setup(self, name, cat_cocycle, cat_setup, trivial_system, construction="linear-exact"):
        """(cocycle, path, disk): the cat map, or A^2, whose rows round unlike alone."""
        path, state, disk = cat_setup
        cocycle = cat_cocycle
        if name == "a2":
            cocycle = Cocycle(maps=(MapDescriptor(matrix=np.array([[5, 3], [3, 2]])),))
        if name == "a2" or construction != "linear-exact":
            rep = lyapunov_spectra(cocycle, [path], [state.point], 1000)[0]
            disk = unstable_disk(cocycle, state, 0.05, rep, construction=construction)
        return cocycle, path, disk

    def _linear_cover(self, disk, n, eps, growth):
        """The spanning-set centres of a linear-exact cell and whether the last is clipped."""
        gstar = float(np.max(growth[:n]))
        step = eps / gstar
        n_cover = max(1, math.ceil(2.0 * disk.radius / step))
        cover = -disk.radius + step * (np.arange(n_cover) + 0.5)
        return np.clip(cover, -disk.radius, disk.radius), bool(cover[-1] > disk.radius)

    @pytest.mark.parametrize("name, n_max, clips, singles", [("cat", 8, 20, 3), ("a2", 4, 10, 3)])
    def test_linear_sums_equal_separate_walks(self, name, n_max, clips, singles, cat_cocycle,
                                              cat_setup, trivial_system, monkeypatch):
        # a linear-exact cell sums its waves in closed form, once over the candidates
        # and the clipped last cover point; the cover's sums are read off that pass, so
        # they are the candidates' bit for bit, and both agree with separate float walks
        # over the candidates and over the cover within the walk's error
        from uthermo.leafgeom import leaf_growth_factors_batch

        cocycle, path, disk = self._setup(name, cat_cocycle, cat_setup, trivial_system)
        family = self._family(cocycle)
        walks = _spy_walks(monkeypatch)
        clipped = single = 0
        for n in range(1, n_max + 1):
            growth = leaf_growth_factors_batch(cocycle, [disk], n)[0]
            for eps in (0.02, 0.03, 0.04, 0.05, 0.07, 0.11, 0.3, 0.6, 1.5):
                walks.clear()
                results = thermo.maximal_separated_sets(cocycle, disk, family, n, eps,
                                                        growth=growth)
                cover, last_clipped = self._linear_cover(disk, n, eps, growth)
                h = eps / (8 * float(np.max(growth[:n])))
                params = -disk.radius + h * np.arange(math.floor(2.0 * disk.radius / h) + 1)
                # one pass: the candidates, plus the clipped last cover point if any
                (pts, sums), = walks
                assert len(pts) == len(params) + last_clipped
                cover_idx = 8 * np.arange(len(cover)) + 4
                if last_clipped:
                    cover_idx[-1] = len(params)
                assert np.array_equal(pts[cover_idx], disk.chart(cover))
                clipped += last_clipped and len(cover) > 1
                single += len(cover) == 1
                _check_linear_cell(cocycle, disk, family, n, eps, growth, results, sums)
                separate = thermo._orbit_sums(cocycle, path, family, disk.chart(cover), n)
                for p, row, ref in zip(family, sums[:, cover_idx], separate):
                    tol = 4 * EPS * oracles.wave_phase_scale(cocycle, disk, p, n, 1.0)
                    assert np.max(np.abs(row - ref)) <= tol, (p.label, n, eps)
        assert clipped >= clips and single >= singles

    def test_off_grid_cover_points_join_the_walk(self, cat_cocycle, cat_setup, monkeypatch):
        from uthermo.leafgeom import leaf_growth_factors_batch

        # with 6 candidates per cover step the cover points are not candidates
        # bit for bit, so they join the candidates' pass, each evaluated directly
        monkeypatch.setattr(thermo, "GRID_FACTOR", 6)
        _, _, disk = cat_setup
        family = self._family(cat_cocycle)
        walks = _spy_walks(monkeypatch)
        appended = 0
        for n, eps in ((2, 0.04), (3, 0.05), (5, 0.02), (6, 0.04), (7, 0.08)):
            growth = leaf_growth_factors_batch(cat_cocycle, [disk], n)[0]
            walks.clear()
            results = thermo.maximal_separated_sets(cat_cocycle, disk, family, n, eps,
                                                    growth=growth)
            n_cand = math.floor(2.0 * disk.radius / (eps / (6 * np.max(growth[:n])))) + 1
            (pts, sums), = walks
            appended += len(pts) - n_cand
            _check_linear_cell(cat_cocycle, disk, family, n, eps, growth, results, sums,
                               grid_factor=6)
        assert appended > 5

    @pytest.mark.parametrize("name, cells_min, singles", [("cat", 30, 5), ("a2", 20, 4)])
    def test_profile_sums_equal_separate_walks(self, name, cells_min, singles, cat_cocycle,
                                               cat_setup, trivial_system, monkeypatch):
        cocycle, path, disk = self._setup(name, cat_cocycle, cat_setup, trivial_system,
                                          construction="graph-transform")
        family = self._family(cocycle)
        walks = _spy_walks(monkeypatch)
        cells = single = 0
        for n in range(1, 5):
            arcs = bowen_step_arcs(cocycle, disk, n, disk.params)
            for eps in (0.03, 0.045, 0.06, 0.08, 0.11, 0.15, 0.3, 0.6, 1.2):
                walks.clear()
                try:
                    results = thermo.maximal_separated_sets(cocycle, disk, family, n, eps)
                except EstimatorError:  # the arcs are too coarse for eps
                    continue
                cover_idx = oracles.profile_cover_indices(arcs, eps)
                lo, hi = thermo._profile_windows(arcs, eps)
                (pts, sums), = walks  # one walk, the candidates'
                assert np.array_equal(pts, disk.chart(disk.params))
                single += len(cover_idx) == 1
                weights = thermo._orbit_sums(cocycle, path, family, disk.chart(disk.params), n)
                separate = thermo._orbit_sums(cocycle, path, family,
                                              disk.chart(disk.params[cover_idx]), n)
                self._check_cover_sums(name, sums[:, cover_idx], separate)
                for p, res, w, row in zip(family, results, weights, sums[:, cover_idx]):
                    upper = thermo._logsumexp(row) + n * p.lipschitz * eps / 2.0
                    assert res.log_upper == upper, (p.label, n, eps)
                    picked = thermo._greedy_windows(thermo._pick_order(w), lo, hi, len(w))
                    assert res.log_weighted_sum == thermo._logsumexp(w[picked]), (p.label, n, eps)
                cells += 1
        assert cells >= cells_min and single >= singles


class TestTrigPressureOracle:
    """The exact pressure of a * cos(2 pi k.x + theta) on the cat map, from the
    Fourier matrix of its transfer operator (oracles.transfer_operator_pressure)."""

    @pytest.mark.parametrize("fn, a, exact", [
        ("cos", 0.4, 1.002167), ("sin", 0.4, 1.002003), ("sin", 0.8, 1.115224),
    ])
    def test_reproduces_table(self, fn, a, exact):
        got = oracles.transfer_operator_pressure(oracles.CAT_MATRIX, a, (1, 0), fn=fn)
        assert abs(got - exact) < 5e-7

    @pytest.mark.parametrize("fn, a, k", [
        ("cos", 0.2, (1, 0)), ("sin", 0.4, (1, 1)), ("cos", 0.8, (1, 1)), ("sin", 1.2, (2, 1)),
    ])
    def test_truncation_converged(self, fn, a, k):
        p6 = oracles.transfer_operator_pressure(oracles.CAT_MATRIX, a, k, fn=fn, radius=6)
        p8 = oracles.transfer_operator_pressure(oracles.CAT_MATRIX, a, k, fn=fn, radius=8)
        assert abs(p6 - p8) < 1e-6

    def test_second_order_law(self):
        # P = log lambda + a^2 / 4 + O(a^4): every Haar correlation of cos(2 pi k.x) vanishes
        a = 0.2
        got = oracles.transfer_operator_pressure(oracles.CAT_MATRIX, a, (1, 0))
        assert abs(got - (oracles.CAT_LOG + a * a / 4.0)) < 1e-4
        assert oracles.transfer_operator_pressure(oracles.CAT_MATRIX, 0.0, (1, 0)) == \
            pytest.approx(oracles.CAT_LOG, abs=1e-12)

    def test_bessel_series(self):
        # I_0(a) = (1/pi) int_0^pi exp(a cos t) dt, by a fine midpoint rule
        t = (np.arange(20_000) + 0.5) * math.pi / 20_000
        for a in (0.2, 0.8, 1.2):
            assert oracles.bessel_i(0, a) == pytest.approx(np.mean(np.exp(a * np.cos(t))),
                                                           rel=1e-9)
            assert oracles.bessel_i(-3, a) == oracles.bessel_i(3, a)


LINE_COCYCLES = [
    ("trivial_system", "cat_cocycle"),
    ("trivial_system", "a2"),
    ("iid_system", "iid_cocycle"),
    ("t3_system", "t3_cocycle"),
]


def _line_cell(system_name, cocycle_name, request, count=2001, seed=1):
    """(cocycle, path, disk, line): a _LineGrid of count candidates spanning a
    linear-exact 1-d disk of radius 0.05, plus one off-grid point."""
    system = request.getfixturevalue(system_name)
    if cocycle_name == "a2":
        cocycle = Cocycle(maps=(MapDescriptor(matrix=np.array([[5, 3], [3, 2]])),))
    else:
        cocycle = request.getfixturevalue(cocycle_name)
    path = sample_path(system, 300, seed)
    x = TorusPoint(tuple(np.random.default_rng(seed).random(cocycle.dim)))
    rep = lyapunov_spectra(cocycle, [path], [x], 256)[0]
    disk = unstable_disk(cocycle, SkewState(path=path, point=x), 0.05, rep)
    assert disk.construction == "linear-exact" and disk.leaf_dim == 1
    h = 2.0 * disk.radius / (count - 1)
    line = thermo._LineGrid(disk, -disk.radius + h * np.arange(count), h,
                            np.array([0.77 * disk.radius]))
    return cocycle, path, disk, line


def _line_family(cocycle):
    """Waves, a coboundary of a wave over the cocycle and a weighted sum of them."""
    d = cocycle.dim
    cos = coordinate_potential(0.4, [1, 0, 0][:d], label="cos")
    sin = coordinate_potential(0.4, [3, 1, 1][:d], phase=0.3, fn="sin", label="sin")
    cob = theta_coboundary(cocycle, coordinate_potential(0.3, [2, 1, -1][:d], phase=-0.4))
    return [cos, sin, cob, combine_potentials([(0.5, cos), (-2.0, cob),
                                               (1.0, constant_potential(0.2))], label="mix")]


class TestClosedFormWaves:
    """On a linear-exact 1-d disk, wave leaves and wave sigmas are summed in closed
    form on the true orbit: no map call and no per-point trig, and closer to the
    exact orbit than the float walk, whose pseudo-orbit error grows like |beta_j|."""

    @pytest.mark.parametrize("system_name, cocycle_name", LINE_COCYCLES)
    def test_matches_exact_orbit(self, system_name, cocycle_name, request):
        # the bound: 4 EPS * wave_phase_scale at the disk's radius, a few units in the
        # last place of each step's phase theta_j + t beta_j; measured errors reach
        # about half of it, and the same sums on the float pseudo-orbit of the base
        # point exceed it by up to 2.4 times (the float walk is no reference here)
        cocycle, path, disk, line = _line_cell(system_name, cocycle_name, request)
        family = _line_family(cocycle)
        params = np.concatenate([line.params, line.extra])
        sample = np.r_[np.linspace(0, len(line.params) - 1, 24).astype(int), len(params) - 1]
        exact_pts = oracles.exact_chart_points(disk, params[sample])
        for n in range(1, 13):
            got = thermo._orbit_sums(cocycle, path, family, None, n, line)
            for p, row in zip(family, got):
                exact = oracles.exact_wave_orbit_sums(cocycle, path, p, exact_pts, n)
                bound = 4 * EPS * oracles.wave_phase_scale(cocycle, disk, p, n, disk.radius)
                assert np.max(np.abs(row[sample] - exact)) <= bound, (p.label, n)

    @pytest.mark.parametrize("system_name, cocycle_name", LINE_COCYCLES)
    def test_wave_family_makes_no_map_call(self, system_name, cocycle_name, request,
                                           monkeypatch):
        from uthermo.leafgeom import leaf_growth_factors_batch

        cocycle, path, disk, _ = _line_cell(system_name, cocycle_name, request)
        family = _line_family(cocycle)
        if cocycle.dim == 2:
            family += [p for p in TestPackingWalk._wave_family(cocycle)[0]
                       if all(leaf.x_independent or leaf.wave or leaf.coboundary[1].wave
                              for leaf in thermo._leaves(p))]
        calls, trigs = [], []
        for method in ("apply", "apply_lift", "inverse_apply", "inverse_apply_lift"):
            real = getattr(MapDescriptor, method)
            monkeypatch.setattr(MapDescriptor, method,
                                lambda self, x, real=real: calls.append(len(x)) or real(self, x))
        trig_values = thermo._trig_values
        monkeypatch.setattr(thermo, "_trig_values",
                            lambda x, groups: trigs.append(len(x)) or trig_values(x, groups))
        for n, eps in ((1, 0.04), (3, 0.02), (4, 0.05)):
            growth = leaf_growth_factors_batch(cocycle, [disk], n)[0]
            calls.clear()
            trigs.clear()
            results = thermo.maximal_separated_sets(cocycle, disk, family, n, eps,
                                                    growth=growth)
            assert calls == [] and trigs == [], (n, eps)
            assert all(math.isfinite(r.log_weighted_sum) for r in results)

    @pytest.mark.parametrize("system_name, cocycle_name", LINE_COCYCLES)
    def test_non_wave_leaves_walk_alone(self, system_name, cocycle_name, request, monkeypatch):
        # a coboundary over a foreign cocycle and a non-wave sigma are walked, with
        # today's bits; the waves beside them make no walk of their own
        cocycle, path, disk, line = _line_cell(system_name, cocycle_name, request, count=301)
        waves = _line_family(cocycle)
        sin = waves[1]
        foreign = theta_coboundary(Cocycle(maps=cocycle.maps), sin)

        def poly(path, pts):
            return pts[:, 0] * (pts[:, 1] - 0.5)

        bumpy = thermo.theta_coboundary(cocycle, thermo.Potential(
            label="bumpy", l1_bound=0.5, lipschitz=2.0, vector_fn=poly))
        family = waves + [foreign, bumpy, combine_potentials([(1.0, waves[0]), (1.0, foreign)])]
        calls, groups = [], []
        apply = MapDescriptor.apply
        monkeypatch.setattr(MapDescriptor, "apply",
                            lambda self, x: calls.append(len(x)) or apply(self, x))
        trig_values = thermo._trig_values
        monkeypatch.setattr(thermo, "_trig_values",
                            lambda x, g: groups.extend(g) or trig_values(x, g))
        pts = line.points()
        for n in (1, 4, 9):
            want = [oracles.scalar_orbit_sums(cocycle, path, p, pts, n) for p in family]
            calls.clear()
            groups.clear()
            got = thermo._orbit_sums(cocycle, path, family, None, n, line)
            # the walk's n maps (on to x_n for bumpy) and the foreign leaf's own n
            assert calls == [len(pts)] * (2 * n), n
            assert set(groups) == {sin.wave[:2]}, n  # the foreign leaf's sigma only
            for row, ref, p in zip(got[4:6], want[4:6], family[4:6]):
                assert row.tobytes() == ref.tobytes(), (p.label, n)
            for row, p in zip(got, family):
                alone = thermo._orbit_sums(cocycle, path, [p], None, n, line)[0]
                assert row.tobytes() == alone.tobytes(), (p.label, n)

    def test_sheared_maps_walk_a_forced_affine_chart(self, perturbed_cat_cocycle,
                                                     trivial_system):
        # an affine chart forced on sheared maps is not walked in closed form: the
        # maps are not affine, so its sums are the float walk's, bit for bit
        cocycle = perturbed_cat_cocycle
        path = sample_path(trivial_system, 300, 3)
        x = TorusPoint((0.3, 0.6))
        rep = lyapunov_spectra(cocycle, [path], [x], 256)[0]
        disk = unstable_disk(cocycle, SkewState(path=path, point=x), 0.05, rep,
                             construction="linear-exact")
        h = 2.0 * disk.radius / 300
        line = thermo._LineGrid(disk, -disk.radius + h * np.arange(301), h,
                                np.array([0.77 * disk.radius]))
        family = _line_family(cocycle)
        for n in (1, 3, 6):
            got = thermo._orbit_sums(cocycle, path, family, None, n, line)
            want = thermo._orbit_sums(cocycle, path, family, line.points(), n)
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("system_name, cocycle_name", LINE_COCYCLES)
    def test_wave_rows_alone_equal_family(self, system_name, cocycle_name, request):
        cocycle, path, _, line = _line_cell(system_name, cocycle_name, request, count=501)
        family = _line_family(cocycle)
        if cocycle.dim == 2:
            family += TestPackingWalk._wave_family(cocycle)[0]
        for n in (1, 2, 7):
            together = thermo._orbit_sums(cocycle, path, family, None, n, line)
            for p, row in zip(family, together):
                alone = thermo._orbit_sums(cocycle, path, [p], None, n, line)[0]
                assert row.tobytes() == alone.tobytes(), (p.label, n)
