import math

import numpy as np
import pytest

import oracles
from uthermo import (
    Cocycle,
    EstimatorError,
    MapDescriptor,
    ShearTerm,
    SkewState,
    TorusPoint,
    TrivialLeafError,
    lyapunov_spectra,
    sample_path,
    unstable_disk,
)
from uthermo.leafgeom import (
    CHART_HALF_POINTS,
    GRAPH_MAX_ITER,
    GRAPH_TOL,
    bowen_step_arcs,
    leaf_growth_factors_batch,
)
from uthermo.rds import parse_system_text


@pytest.fixture(scope="module")
def cat_state(cat_cocycle, trivial_system):
    path = sample_path(trivial_system, 1200, 1)
    return SkewState(path=path, point=TorusPoint((0.0, 0.0)))


@pytest.fixture(scope="module")
def cat_report(cat_cocycle, cat_state):
    return lyapunov_spectra(cat_cocycle, [cat_state.path], [cat_state.point], 1000)[0]


@pytest.fixture(scope="module")
def cat_disk(cat_cocycle, cat_state, cat_report):
    return unstable_disk(cat_cocycle, cat_state, 0.1, cat_report)


class TestDiskConstruction:
    def test_linear_disk_through_eigendirection(self, cat_disk):
        assert cat_disk.construction == "linear-exact"
        direction = cat_disk.frame[:, 0]
        assert abs(abs(direction @ oracles.CAT_UNSTABLE_DIR) - 1.0) < 1e-10
        assert cat_disk.chart(0.0).coords == (0.0, 0.0)

    def test_chart_is_unit_speed(self, cat_disk):
        a = np.asarray(cat_disk.chart_lift(0.0))
        b = np.asarray(cat_disk.chart_lift(0.07))
        assert np.linalg.norm(b - a) == pytest.approx(0.07, abs=1e-14)

    def test_trivial_leaf_errors(self, trivial_system):
        ident = Cocycle(maps=(MapDescriptor(matrix=np.eye(2)),))
        path = sample_path(trivial_system, 600, 1)
        rep = lyapunov_spectra(ident, [path], [TorusPoint((0.5, 0.5))], 500)[0]
        with pytest.raises(TrivialLeafError):
            unstable_disk(ident, SkewState(path=path, point=TorusPoint((0.5, 0.5))), 0.1, rep)

    def test_plane_leaf_graph_transform_is_an_estimator_error(
        self, sheared_plane_leaf_cocycle, trivial_system
    ):
        path = sample_path(trivial_system, 600, 1)
        x = TorusPoint((0.3, 0.1, 0.7))
        rep = lyapunov_spectra(sheared_plane_leaf_cocycle, [path], [x], 500)[0]
        assert rep.unstable_dim == 2
        with pytest.raises(EstimatorError, match="leaf dimension 1 only"):
            unstable_disk(sheared_plane_leaf_cocycle, SkewState(path=path, point=x), 0.1, rep)

    def test_radius_bound_enforced(self, cat_cocycle, cat_state, cat_report):
        with pytest.raises(ValueError):
            unstable_disk(cat_cocycle, cat_state, 0.3, cat_report)

    def test_graph_transform_matches_linear_at_zero_amplitude(
        self, cat_cocycle, cat_state, cat_report
    ):
        graph = unstable_disk(
            cat_cocycle, cat_state, 0.1, cat_report, construction="graph-transform"
        )
        assert graph.construction == "graph-transform"
        linear = unstable_disk(cat_cocycle, cat_state, 0.1, cat_report)
        ts = np.linspace(-0.1, 0.1, 101)
        diff = np.max(np.abs(graph.chart_lift(ts) - linear.chart_lift(ts)))
        assert diff < 1e-9

    def test_linear_chart_lift_bitwise_equal_broadcast_form(
        self, cat_disk, t3_cocycle, t3_system, plane_leaf_cocycle, trivial_system
    ):
        rng = np.random.default_rng(12)
        disks = [cat_disk]  # based at the origin, so -0.0 + 0.0 is met
        for cocycle, system in ((t3_cocycle, t3_system), (plane_leaf_cocycle, trivial_system)):
            path = sample_path(system, 400, 3)
            x = TorusPoint((0.3, 0.6, 0.2))
            rep = lyapunov_spectra(cocycle, [path], [x], 300)[0]
            disks.append(unstable_disk(cocycle, SkewState(path=path, point=x), 0.1, rep))
        assert [d.leaf_dim for d in disks] == [1, 1, 2]
        for disk in disks:
            assert disk.construction == "linear-exact"
            ts = rng.uniform(-0.1, 0.1, (50, disk.leaf_dim))
            ts[:10] = 0.0
            ts[5:15] *= -1.0  # rows 5-9 are all -0.0
            cases = [ts, ts[5], ts[0]] if disk.leaf_dim == 2 else [ts[:, 0], ts[7, 0], ts[12, 0]]
            for t in cases:
                t_col = np.asarray(t, dtype=float)
                if disk.leaf_dim == 1:
                    t_col = t_col.reshape(-1, 1)
                want = disk.base_lift + t_col @ disk.frame.T
                got = disk.chart_lift(t)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_chart_injectivity_on_grid(self, cat_disk):
        ts = np.linspace(-0.1, 0.1, 201)
        pts = cat_disk.chart_lift(ts)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        spacing = ts[1] - ts[0]
        assert np.all(gaps >= 0.5 * spacing)

    def test_perturbed_leaf_invariance(self, perturbed_cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 800, 3)
        x = TorusPoint((0.37, 0.59))
        state = SkewState(path=path, point=x)
        rep = lyapunov_spectra(perturbed_cat_cocycle, [path], [x], 600)[0]
        disk = unstable_disk(perturbed_cat_cocycle, state, 0.1, rep)
        nxt = oracles.skew_step(perturbed_cat_cocycle, state, 1)
        rep_next = lyapunov_spectra(perturbed_cat_cocycle, [nxt.path], [nxt.point], 600)[0]
        disk_next = unstable_disk(perturbed_cat_cocycle, nxt, 0.1, rep_next)
        m = perturbed_cat_cocycle.maps[0]
        for t in np.linspace(-0.03, 0.03, 7):
            image = TorusPoint(tuple(m.apply(np.asarray(disk.chart_lift(t)).reshape(-1))))
            oracles.param_of(disk_next, image, tol=1e-8)  # raises OffLeafError on failure


class TestLeafDistance:
    def test_zero_for_same_point(self, cat_disk):
        y = cat_disk.chart(0.04)
        assert oracles.leaf_distance(cat_disk, y, y) == 0.0

    def test_unit_speed_parameters(self, cat_disk):
        y1 = cat_disk.chart(0.0)
        y2 = cat_disk.chart(0.07)
        assert oracles.leaf_distance(cat_disk, y1, y2) == pytest.approx(0.07, abs=1e-12)

    def test_symmetric(self, cat_disk):
        y1, y2 = cat_disk.chart(-0.02), cat_disk.chart(0.05)
        assert oracles.leaf_distance(cat_disk, y1, y2) == oracles.leaf_distance(cat_disk, y2, y1)

    def test_off_leaf_rejected(self, cat_disk):
        with pytest.raises(oracles.OffLeafError):
            oracles.leaf_distance(cat_disk, TorusPoint((0.25, 0.8)), cat_disk.chart(0.01))


class TestBowenDistance:
    def test_single_step_equals_leaf_distance(self, cat_cocycle, cat_disk):
        y1, y2 = cat_disk.chart(-0.01), cat_disk.chart(0.03)
        assert oracles.bowen_distance(cat_cocycle, cat_disk, 1, y1, y2) == pytest.approx(
            oracles.leaf_distance(cat_disk, y1, y2), abs=1e-14
        )

    def test_linear_growth_matches_matrix_oracle(self, cat_cocycle, cat_disk):
        s = 0.013
        y1, y2 = cat_disk.chart(0.0), cat_disk.chart(s)
        mats = [oracles.CAT_MATRIX.astype(float)] * 8
        for n in (2, 4, 8):
            expected = oracles.max_step_growth(mats, cat_disk.frame[:, 0] * s, n)
            got = oracles.bowen_distance(cat_cocycle, cat_disk, n, y1, y2)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_n(self, cat_cocycle, cat_disk):
        rng = np.random.default_rng(31)
        for _ in range(100):
            t1, t2 = rng.uniform(-0.1, 0.1, size=2)
            y1, y2 = cat_disk.chart(float(t1)), cat_disk.chart(float(t2))
            prev = 0.0
            for n in (1, 2, 3, 5):
                cur = oracles.bowen_distance(cat_cocycle, cat_disk, n, y1, y2)
                assert cur >= prev - 1e-12
                prev = cur


class TestExpansionAndNesting:
    def test_one_step_leaf_expansion(self, cat_cocycle, cat_state, cat_report, cat_disk):
        # certified expansion rate from the eigenvalue; pairs kept inside the chart
        lam = oracles.CAT_EIGENVALUE
        nxt = oracles.skew_step(cat_cocycle, cat_state, 1)
        rep_next = lyapunov_spectra(cat_cocycle, [nxt.path], [nxt.point], 1000)[0]
        disk_next = unstable_disk(cat_cocycle, nxt, 0.1, rep_next)
        m = cat_cocycle.maps[0]
        rng = np.random.default_rng(7)
        for _ in range(50):
            t1, t2 = rng.uniform(-0.03, 0.03, size=2)
            y1, y2 = cat_disk.chart(float(t1)), cat_disk.chart(float(t2))
            base = oracles.leaf_distance(cat_disk, y1, y2)
            im1 = TorusPoint(tuple(m.apply(y1.as_array())))
            im2 = TorusPoint(tuple(m.apply(y2.as_array())))
            image = oracles.leaf_distance(disk_next, im1, im2)
            assert image >= 0.99 * lam * base

    def test_bowen_ball_nesting(self, cat_cocycle, cat_disk):
        # V(n+k, eps) subset V(n, eps') subset V(n, eps) with k from expansion
        eps, eps_prime = 0.04, 0.02
        n = 3
        k = math.ceil(math.log(eps / eps_prime) / oracles.CAT_LOG) + 1
        center = cat_disk.chart(0.0)
        for t in np.linspace(-0.09, 0.09, 61):
            y = cat_disk.chart(float(t))
            d_nk = oracles.bowen_distance(cat_cocycle, cat_disk, n + k, center, y)
            d_n = oracles.bowen_distance(cat_cocycle, cat_disk, n, center, y)
            if d_nk < eps:
                assert d_n < eps_prime
            if d_n < eps_prime:
                assert d_n < eps

    def test_growth_factors_match_arcs(self, cat_cocycle, cat_disk):
        params = np.linspace(-0.08, 0.08, 9)
        arcs = bowen_step_arcs(cat_cocycle, cat_disk, 6, params)
        growth = leaf_growth_factors_batch(cat_cocycle, [cat_disk], 6)[0]
        assert np.allclose(arcs, np.outer(growth, params))


class TestLeafVolume:
    def test_full_disk_length(self, cat_disk):
        assert oracles.leaf_volume(cat_disk) == pytest.approx(0.2)

    def test_empty_region(self, cat_disk):
        assert oracles.leaf_volume(cat_disk, (0.05, 0.05)) == 0.0

    def test_half_box(self, cat_disk):
        assert oracles.leaf_volume(cat_disk, (-0.1, 0.0)) == pytest.approx(
            0.5 * oracles.leaf_volume(cat_disk)
        )

    def test_region_clipped_to_disk(self, cat_disk):
        assert oracles.leaf_volume(cat_disk, (-1.0, 1.0)) == pytest.approx(0.2)


def _disks(cocycle, system, count, seed=0):
    """count linear-exact disks at random base states (the chart kind does not
    change the tangent walk, and skips the graph transform on sheared maps)."""
    rng = np.random.default_rng(seed)
    paths = [sample_path(system, 260, seed + i) for i in range(count)]
    xs = [TorusPoint(tuple(rng.random(cocycle.dim))) for _ in paths]
    reports = lyapunov_spectra(cocycle, paths, xs, 200)
    return [unstable_disk(cocycle, SkewState(p, x), 0.1, r, construction="linear-exact")
            for p, x, r in zip(paths, xs, reports)]


def _system_for(cocycle, iid_system, trivial_system):
    return iid_system if len(cocycle.maps) > 1 else trivial_system


_COCYCLES = ["cat_cocycle", "iid_cocycle", "t3_cocycle", "perturbed_cat_cocycle"]


class TestTangentWalks:
    """The stacked tangent pushes against one-point, one-step scalar references."""

    @pytest.mark.parametrize("name", _COCYCLES)
    def test_growth_bitwise_equals_scalar_push(self, name, request, iid_system, trivial_system):
        cocycle = request.getfixturevalue(name)
        disks = _disks(cocycle, _system_for(cocycle, iid_system, trivial_system), 5)
        batch = leaf_growth_factors_batch(cocycle, disks, 40)
        assert batch.shape == (5, 40)
        for disk, row in zip(disks, batch):
            ref = oracles.scalar_leaf_growth(
                cocycle, disk.base.path, disk.base_lift, disk.frame[:, 0], 40)
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("name", _COCYCLES)
    def test_growth_alone_equals_growth_in_batch(self, name, request, iid_system, trivial_system):
        cocycle = request.getfixturevalue(name)
        disks = _disks(cocycle, _system_for(cocycle, iid_system, trivial_system), 16, seed=3)
        batch = leaf_growth_factors_batch(cocycle, disks, 30)
        assert np.array_equal(leaf_growth_factors_batch(cocycle, [disks[7]], 30)[0], batch[7])

    def test_empty_growth_batch(self, cat_cocycle):
        assert leaf_growth_factors_batch(cat_cocycle, [], 12).shape == (0, 12)

    @pytest.mark.parametrize("name", ["plane_leaf_cocycle", "sheared_plane_leaf_cocycle"])
    def test_bowen_distance_2d_bitwise_equals_scalar_push(self, name, request, trivial_system):
        cocycle = request.getfixturevalue(name)
        disk = _disks(cocycle, trivial_system, 1, seed=4)[0]
        assert disk.leaf_dim == 2
        t1, t2 = np.array([0.03, -0.02]), np.array([-0.01, 0.04])
        y1, y2 = (TorusPoint(tuple(disk.chart(t))) for t in (t1, t2))
        for n in (1, 2, 9):
            t1, t2 = (np.asarray(oracles.param_of(disk, y)) for y in (y1, y2))
            diff = disk.frame @ (t1 - t2)
            ref = oracles.scalar_bowen_distance_2d(
                cocycle, disk.base.path, disk.base_lift, diff, n)
            assert oracles.bowen_distance(cocycle, disk, n, y1, y2) == ref


# the sheared cat map as a system file writes it (shear 0.015, wavevector (0, 1), phase 0.3)
SHEARED_CAT_TEXT = (
    "base.kind = deterministic-trivial\n"
    "base.symbols = 1\n"
    "fiber.dim = 2\n"
    "map.0.matrix = 2 1 1 1\n"
    "map.0.perturbation = 0.015:0,1:0.3\n"
    "seed = 1\n"
)


def _sheared_t3():
    """A sheared 3-torus map with a 1-d expanding leaf: the shear moves the neutral
    coordinate by a wave in the second one."""
    m = np.array([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    return Cocycle(maps=(MapDescriptor(matrix=m, shears=(ShearTerm(0.01, (0, 1, 0), 0.2),)),))


def _sheared_states(name, perturbed_cat_cocycle, trivial_system):
    """(cocycle, states, reports): three base states on one sheared map."""
    if name == "system-file":
        system, cocycle = parse_system_text(SHEARED_CAT_TEXT)
    else:
        system = trivial_system
        cocycle = perturbed_cat_cocycle if name == "fixture" else _sheared_t3()
    rng = np.random.default_rng(len(name))
    paths = [sample_path(system, 500, 7 + i) for i in range(3)]
    xs = [TorusPoint(tuple(rng.random(cocycle.dim))) for _ in paths]
    reports = lyapunov_spectra(cocycle, paths, xs, 400)
    return cocycle, [SkewState(p, x) for p, x in zip(paths, xs)], reports


class TestGraphTransformCharts:
    """Polyline charts and their arcs against one-depth-at-a-time norm references."""

    @pytest.mark.parametrize("name", ["system-file", "fixture", "sheared-t3"])
    def test_charts_bitwise_equal_scalar_graph_transform(
        self, name, perturbed_cat_cocycle, trivial_system
    ):
        cocycle, states, reports = _sheared_states(name, perturbed_cat_cocycle, trivial_system)
        assert not cocycle.has_constant_jacobian
        for state, rep in zip(states, reports):
            assert rep.unstable_dim == 1
            for delta in (0.05, 0.1, 0.25):
                disk = unstable_disk(cocycle, state, delta, rep)
                assert disk.construction == "graph-transform"
                pts, frame, params = oracles.scalar_graph_transform(
                    cocycle, state, delta, rep.eu_frame[:, 0], CHART_HALF_POINTS,
                    GRAPH_TOL, GRAPH_MAX_ITER)
                for got, want in ((disk.points_lift, pts), (disk.frame, frame),
                                  (disk.params, params)):
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("name", ["fixture", "sheared-t3"])
    def test_step_arcs_bitwise_equal_norm_arcs(self, name, perturbed_cat_cocycle, trivial_system):
        cocycle, states, reports = _sheared_states(name, perturbed_cat_cocycle, trivial_system)
        params = np.linspace(-0.07, 0.07, 29)
        params[14] = -0.0
        for state, rep in zip(states, reports):
            disk = unstable_disk(cocycle, state, 0.1, rep)
            got = bowen_step_arcs(cocycle, disk, 6, params)
            want = oracles.norm_step_arcs(cocycle, disk, 6, params)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_contracting_seed_diverges(self, perturbed_cat_cocycle, trivial_system):
        # a seed laid along the contracting direction shrinks by about 1/2.6 per
        # push, below the radius it must keep
        cocycle, states, reports = _sheared_states("fixture", perturbed_cat_cocycle,
                                                   trivial_system)
        u = reports[0].eu_frame[:, 0]
        stable = reports[0]._replace(eu_frame=np.array([[-u[1]], [u[0]]]))
        with pytest.raises(EstimatorError, match="graph transform diverged"):
            unstable_disk(cocycle, states[0], 0.1, stable)
        with pytest.raises(ValueError, match="shorter than radius"):
            oracles.scalar_graph_transform(cocycle, states[0], 0.1, stable.eu_frame[:, 0],
                                           CHART_HALF_POINTS, GRAPH_TOL, GRAPH_MAX_ITER)
