import math

import numpy as np
import pytest

import oracles
from uthermo import (
    GridSpec,
    TorusPoint,
    TrivialLeafError,
    birkhoff_sum,
    constant_potential,
    coordinate_potential,
    dual_vp_check,
    equilibrium_scan,
    geometric_potential,
    gibbs_defect,
    haar_sampler,
    periodic_atomic_sampler,
    pressure_estimates,
    sample_path,
    zero_potential,
)
from uthermo import Cocycle, MapDescriptor
from uthermo.equilibria import _report_for, birkhoff_integral


@pytest.fixture(scope="module")
def cat_grid():
    return GridSpec(delta=0.1, n_grid=tuple(range(8, 14)), eps_grid=(0.02, 0.04),
                    base_grid=2, omega_samples=1)


@pytest.fixture(scope="module")
def enum_grid():
    return GridSpec(delta=0.05, n_grid=tuple(range(5, 11)), eps_grid=(0.04,),
                    base_grid=2, omega_samples=1)


class TestGeometricPotential:
    def test_cat_constant_value(self, cat_cocycle, trivial_system):
        phiu = geometric_potential(cat_cocycle, _report_for(cat_cocycle, trivial_system, 5))
        assert phiu.x_independent
        assert phiu.symbol_fn(0) == pytest.approx(-oracles.CAT_LOG, abs=1e-9)

    def test_squared_symbol_doubles(self, iid_cocycle, iid_system):
        phiu = geometric_potential(iid_cocycle, _report_for(iid_cocycle, iid_system, 5))
        assert phiu.symbol_fn(0) == pytest.approx(-oracles.CAT_LOG, abs=1e-9)
        assert phiu.symbol_fn(1) == pytest.approx(-2.0 * oracles.CAT_LOG, abs=1e-9)

    def test_t3_excludes_center(self, t3_cocycle, t3_system):
        phiu = geometric_potential(t3_cocycle, _report_for(t3_cocycle, t3_system, 5))
        for s in (0, 1):
            assert phiu.symbol_fn(s) == pytest.approx(-oracles.CAT_LOG, abs=1e-9)

    def test_trivial_bundle_rejected(self, trivial_system):
        ident = Cocycle(maps=(MapDescriptor(matrix=np.eye(2)),))
        with pytest.raises(TrivialLeafError):
            geometric_potential(ident, _report_for(ident, trivial_system, 5))

    def test_perturbed_evaluator_near_linear_value(self, perturbed_cat_cocycle, trivial_system):
        phiu = geometric_potential(
            perturbed_cat_cocycle, _report_for(perturbed_cat_cocycle, trivial_system, 5)
        )
        assert not phiu.x_independent
        path = sample_path(trivial_system, 400, 1)
        vals = phiu.values(path, np.random.default_rng(0).random((16, 2)))
        assert np.all(np.abs(vals + oracles.CAT_LOG) < 0.2)

    def test_non_commuting_values_equal_per_row_form(self, iid_system, monkeypatch):
        # A and B share no invariant splitting, so phi^u keeps its evaluator; the
        # one-symbol window is built once and broadcast over the rows
        from uthermo import equilibria

        ab = Cocycle(maps=(MapDescriptor(matrix=np.array([[2, 1], [1, 1]])),
                           MapDescriptor(matrix=np.array([[1, 1], [1, 2]]))))
        phiu = geometric_potential(ab, _report_for(ab, iid_system, 5))
        assert not phiu.x_independent
        windows = equilibria._symbol_windows
        seen = []
        monkeypatch.setattr(equilibria, "_symbol_windows",
                            lambda paths, *a: seen.append(len(paths)) or windows(paths, *a))
        pts = np.random.default_rng(3).random((257, 2))
        for seed in (1, 2, 3):
            path = sample_path(iid_system, 400, seed)
            for rows in (pts[:1], pts):
                seen.clear()
                got = phiu.values(path, rows)
                want = oracles.per_row_geometric_values(ab, path, rows, u_dim=1)
                assert got.tobytes() == want.tobytes()
                assert seen == [1]


class TestCohomology:
    def test_identity_transform(self, cat_cocycle, trivial_system):
        phi = coordinate_potential(0.5, [1, 0])
        out = oracles.cohomologous_transform(cat_cocycle, phi, zero_potential(), 0.0)
        path = sample_path(trivial_system, 32, 1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = TorusPoint(tuple(rng.random(2)))
            assert out(path, x) == pytest.approx(phi(path, x), abs=1e-12)

    def test_coboundary_telescopes(self, cat_cocycle, trivial_system):
        sigma = coordinate_potential(1.0, [1, 0], label="sig")
        out = oracles.cohomologous_transform(cat_cocycle, zero_potential(), sigma, 0.0)
        path = sample_path(trivial_system, 64, 1)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = TorusPoint(tuple(rng.random(2)))
            n = int(rng.integers(2, 40))
            assert abs(birkhoff_sum(cat_cocycle, out, path, x, n)) <= 2.0 + 1e-9

    def test_constant_charge_shifts_pressure(self, cat_cocycle, trivial_system, enum_grid):
        sigma = coordinate_potential(0.3, [1, 0], label="sig")
        with_c = oracles.cohomologous_transform(cat_cocycle, zero_potential(), sigma, 0.3)
        without_c = oracles.cohomologous_transform(cat_cocycle, zero_potential(), sigma, 0.0)
        p_with = pressure_estimates(cat_cocycle, trivial_system, [with_c], enum_grid, 3)[0]
        p_without = pressure_estimates(cat_cocycle, trivial_system, [without_c], enum_grid, 3)[0]
        assert p_with.value == pytest.approx(p_without.value - 0.3, abs=1e-9)


class TestGibbsDefect:
    def test_haar_is_equality_case(self, cat_cocycle, trivial_system, cat_grid):
        haar = haar_sampler(trivial_system, dim=2)
        gd = gibbs_defect(cat_cocycle, trivial_system, haar, cat_grid, seed=3,
                          entropy_samples=16)
        assert abs(gd.pressure_at_phiu) <= 0.05
        assert abs(gd.pesin_gap) <= 0.05

    def test_fixed_point_gap_is_expansion_rate(self, cat_cocycle, trivial_system, cat_grid):
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        gd = gibbs_defect(cat_cocycle, trivial_system, atom, cat_grid, seed=3,
                          entropy_samples=8, birkhoff_samples=8)
        assert gd.entropy == pytest.approx(0.0, abs=1e-9)
        assert gd.pesin_gap == pytest.approx(oracles.CAT_LOG, abs=1e-6)


class TestEquilibriumScan:
    def test_zero_potential_candidates(self, cat_cocycle, trivial_system, cat_grid):
        haar = haar_sampler(trivial_system, dim=2)
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        report = equilibrium_scan(
            cat_cocycle, trivial_system, zero_potential(), [haar, atom], cat_grid, 13,
            entropy_samples=16, birkhoff_samples=8,
        )
        by_id = {c.measure_id: c for c in report.candidates}
        assert report.best == "haar"
        assert by_id["haar"].equilibrium_within_ci
        assert abs(by_id["haar"].defect) <= 0.05
        assert by_id["atomic:0,0"].defect == pytest.approx(oracles.CAT_LOG, rel=0.10)
        assert not by_id["atomic:0,0"].equilibrium_within_ci
        for c in report.candidates:
            assert c.defect >= -c.combined_ci

    @pytest.mark.parametrize("seed", [13, 1, 2, 3, 4, 5])
    def test_trig_haar_defect_matches_transfer_operator(
        self, seed, cat_cocycle, trivial_system, enum_grid
    ):
        # Haar's defect for cos:0.4:1,0 is P - log(lambda) - 0 = 0.0397433 from the
        # transfer operator; at these seeds the scan's errors are 4e-5 to 1.0e-2
        # against combined CIs of 0.023-0.026, so Haar is never an equilibrium
        phi = coordinate_potential(0.4, [1, 0], label="cos:0.4:1,0")
        exact = oracles.transfer_operator_pressure(
            cat_cocycle.maps[0].matrix, 0.4, (1, 0)) - oracles.CAT_LOG
        assert exact == pytest.approx(0.0397433, abs=1e-7)
        haar = haar_sampler(trivial_system, dim=2)
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        report = equilibrium_scan(cat_cocycle, trivial_system, phi, [haar, atom], enum_grid,
                                  seed, entropy_samples=48)
        by_id = {c.measure_id: c for c in report.candidates}
        assert abs(by_id["haar"].defect - exact) <= by_id["haar"].combined_ci
        assert not by_id["haar"].equilibrium_within_ci

    def test_geometric_potential_defects(self, cat_cocycle, trivial_system, cat_grid):
        phiu = geometric_potential(cat_cocycle, _report_for(cat_cocycle, trivial_system, 5))
        haar = haar_sampler(trivial_system, dim=2)
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        report = equilibrium_scan(
            cat_cocycle, trivial_system, phiu, [haar, atom], cat_grid, 13,
            entropy_samples=16, birkhoff_samples=8,
        )
        by_id = {c.measure_id: c for c in report.candidates}
        assert abs(by_id["haar"].defect) <= 0.05
        assert by_id["atomic:0,0"].defect == pytest.approx(oracles.CAT_LOG, rel=0.10)

    def test_constant_shift_cancels_in_defects(self, cat_cocycle, trivial_system, cat_grid):
        haar = haar_sampler(trivial_system, dim=2)
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        r0 = equilibrium_scan(
            cat_cocycle, trivial_system, zero_potential(), [haar, atom], cat_grid, 13,
            entropy_samples=8, birkhoff_samples=8,
        )
        rc = equilibrium_scan(
            cat_cocycle, trivial_system, constant_potential(0.4), [haar, atom], cat_grid, 13,
            entropy_samples=8, birkhoff_samples=8,
        )
        for c0, cc in zip(r0.candidates, rc.candidates):
            assert cc.defect == pytest.approx(c0.defect, abs=1e-9)

    def test_cohomologous_potentials_share_argmax(self, cat_cocycle, trivial_system, enum_grid):
        # adding a coboundary and a constant must not change which candidate
        # minimizes the defect
        haar = haar_sampler(trivial_system, dim=2)
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        sigma = coordinate_potential(0.3, [1, 0], label="sig")
        phi = zero_potential()
        twisted = oracles.cohomologous_transform(cat_cocycle, phi, sigma, 0.3)
        r1 = equilibrium_scan(
            cat_cocycle, trivial_system, phi, [haar, atom], enum_grid, 13,
            entropy_samples=8, birkhoff_samples=8,
        )
        r2 = equilibrium_scan(
            cat_cocycle, trivial_system, twisted, [haar, atom], enum_grid, 13,
            entropy_samples=8, birkhoff_samples=8,
        )
        assert r1.best == r2.best == "haar"

    def test_equilibria_mix_stays_equilibrium(self, cat_cocycle, trivial_system, cat_grid):
        # affine entropy arithmetic: a mixture of within-ci candidates for the
        # same potential stays within the combined width
        from uthermo import convex_combo_sampler

        haar = haar_sampler(trivial_system, dim=2)
        mix = convex_combo_sampler([haar, haar], [0.5, 0.5], label="mix")
        report = equilibrium_scan(
            cat_cocycle, trivial_system, zero_potential(), [haar, mix], cat_grid, 13,
            entropy_samples=16, birkhoff_samples=8,
        )
        assert all(c.equilibrium_within_ci for c in report.candidates)


class TestDualVariational:
    def test_haar_attains_zero_gap(self, cat_cocycle, trivial_system, enum_grid):
        haar = haar_sampler(trivial_system, dim=2)
        phiu = geometric_potential(cat_cocycle, _report_for(cat_cocycle, trivial_system, 5))
        fam = [zero_potential(), constant_potential(0.3), constant_potential(-0.3),
               phiu, coordinate_potential(0.4, [1, 0], label="cosx1")]
        gap = dual_vp_check(cat_cocycle, trivial_system, haar, fam, enum_grid, 13,
                            entropy_samples=16, birkhoff_samples=8)
        assert -0.05 <= gap <= 0.1

    def test_atomic_gap_is_entropy(self, cat_cocycle, trivial_system, enum_grid):
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))
        gap = dual_vp_check(cat_cocycle, trivial_system, atom, [zero_potential()],
                            enum_grid, 13, entropy_samples=8, birkhoff_samples=8)
        assert gap == pytest.approx(oracles.CAT_LOG, rel=0.1)

    def test_constant_closure_invariance(self, cat_cocycle, trivial_system, enum_grid):
        haar = haar_sampler(trivial_system, dim=2)
        fam = [zero_potential(), constant_potential(0.25)]
        shifted = [constant_potential(0.3), constant_potential(0.55)]
        g1 = dual_vp_check(cat_cocycle, trivial_system, haar, fam, enum_grid, 13,
                           entropy_samples=8, birkhoff_samples=8)
        g2 = dual_vp_check(cat_cocycle, trivial_system, haar, shifted, enum_grid, 13,
                           entropy_samples=8, birkhoff_samples=8)
        assert g1 == pytest.approx(g2, abs=1e-9)


class TestMixingInequality:
    def test_uniform_equality_case(self):
        ok, slack = oracles.mixing_inequality_check([0.5, 0.5], [0.0, 0.0])
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_mass(self):
        ok, slack = oracles.mixing_inequality_check([1.0, 0.0], [1.0, 0.0])
        assert ok
        assert slack == pytest.approx(math.log(math.e + 1.0) - 1.0, abs=1e-12)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            oracles.mixing_inequality_check([1.2, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            oracles.mixing_inequality_check([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            oracles.mixing_inequality_check([-0.1, 0.5], [0.0, 0.0])

    def test_random_sweep_with_large_mass(self):
        rng = np.random.default_rng(99)
        worst = math.inf
        for _ in range(10_000)        :
            m = int(rng.integers(1, 8))
            p = rng.random(m) * rng.uniform(0.2, 1.0)
            s = float(p.sum())
            if s > 2.0:
                p *= 2.0 / s * rng.random()
            if p.sum() <= 0:
                continue
            a = rng.normal(0.0, 2.0, m)
            ok, slack = oracles.mixing_inequality_check(p, a)
            assert ok
            worst = min(worst, slack)
        assert worst >= -1e-12


class TestBirkhoffIntegral:
    def test_constant_is_exact(self, cat_cocycle, trivial_system):
        haar = haar_sampler(trivial_system, dim=2)
        mean, sem = birkhoff_integral(cat_cocycle, constant_potential(0.7), haar,
                                      n=16, samples=8, seed=1)
        assert mean == pytest.approx(0.7, abs=1e-12)
        assert sem == pytest.approx(0.0, abs=1e-12)

    def test_coordinate_average_vanishes(self, cat_cocycle, trivial_system):
        haar = haar_sampler(trivial_system, dim=2)
        mean, sem = birkhoff_integral(
            cat_cocycle, coordinate_potential(1.0, [1, 0]), haar, n=128, samples=64, seed=1
        )
        assert abs(mean) <= 3.0 * sem + 0.02

    @pytest.mark.parametrize(
        "point, exact", [((0.2, 0.4), 0.4 * math.cos(0.4 * math.pi)), ((1 / 3, 2 / 3), -0.2)],
        ids=["period_2", "period_4"],
    )
    def test_atomic_integral_is_orbit_mean(self, point, exact, cat_cocycle, trivial_system):
        # a float walk leaves these expanding periodic orbits after 30-40 steps
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint(point))
        for n in (16, 32, 64, 128):
            mean, sem = birkhoff_integral(cat_cocycle, coordinate_potential(0.4, [1, 0]), atom,
                                          n=n, samples=8, seed=1)
            assert mean == pytest.approx(exact, abs=1e-12)
            assert sem == 0.0

    def test_combo_integral_weights_component_integrals(self, cat_cocycle, trivial_system):
        from uthermo import convex_combo_sampler

        cos = coordinate_potential(0.4, [1, 0])
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.2, 0.4)))
        exact = 0.4 * math.cos(0.4 * math.pi)
        twice = convex_combo_sampler([atom, atom], [0.5, 0.5])
        for n in (16, 64, 128):
            mean, sem = birkhoff_integral(cat_cocycle, cos, twice, n=n, samples=8, seed=1)
            assert mean == pytest.approx(0.1236068, abs=1e-7)
            assert mean == pytest.approx(exact, abs=1e-12)
            assert sem == 0.0
        # a sampled component is integrated as alone, at seed + 17 i for component i
        haar = haar_sampler(trivial_system, dim=2)
        mix = convex_combo_sampler([atom, haar], [0.25, 0.75])
        a_mean, _ = birkhoff_integral(cat_cocycle, cos, atom, n=32, samples=8, seed=1)
        h_mean, h_sem = birkhoff_integral(cat_cocycle, cos, haar, n=32, samples=8, seed=18)
        assert h_sem > 0.0
        mean, sem = birkhoff_integral(cat_cocycle, cos, mix, n=32, samples=8, seed=1)
        assert mean == 0.25 * a_mean + 0.75 * h_mean
        assert sem == pytest.approx(0.75 * h_sem, rel=1e-15)

    def test_combo_reads_known_component_integrals(self, cat_cocycle, trivial_system):
        # known maps (sampler, seed) to integrals already made, seed None for a
        # closed orbit; a combination reads its components there, makes the
        # rest and adds them
        from uthermo import convex_combo_sampler

        cos = coordinate_potential(0.4, [1, 0])
        atom = periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.2, 0.4)))
        haar = haar_sampler(trivial_system, dim=2)
        mix = convex_combo_sampler([haar, atom], [0.5, 0.5])
        known = {(haar, 1): (0.5, 0.1), (atom, None): (0.25, 0.0)}
        mean, sem = birkhoff_integral(cat_cocycle, cos, mix, n=32, samples=8, seed=1,
                                      known=known)
        assert (mean, sem) == (0.375, 0.05)
        known = {(haar, 1): (0.5, 0.1)}
        mean, _ = birkhoff_integral(cat_cocycle, cos, mix, n=32, samples=8, seed=1,
                                    known=known)
        alone = birkhoff_integral(cat_cocycle, cos, atom, n=32, samples=8, seed=18)
        assert known[atom, None] == alone
        assert mean == 0.5 * 0.5 + 0.5 * alone[0]
