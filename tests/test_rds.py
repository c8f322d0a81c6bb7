import math

import numpy as np
import pytest
from scipy.stats import chi2

import oracles
from uthermo import (
    Cocycle,
    DrivingSystem,
    InvalidSystem,
    MapDescriptor,
    ShearTerm,
    SkewState,
    SymbolPath,
    TorusPoint,
    WindowExhausted,
    compose,
    derivative,
    load_system,
    parse_system_text,
    sample_path,
    torus_distance,
)
from uthermo.rds import _jacobians, _map_step, _orbit, _walk, reduce_mod1


class TestDrivingSystem:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(InvalidSystem):
            DrivingSystem(kind="iid", symbol_count=2, distribution=(0.6, 0.6))

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidSystem):
            DrivingSystem(kind="iid", symbol_count=2, distribution=(1.2, -0.2))

    def test_trivial_needs_one_symbol(self):
        with pytest.raises(InvalidSystem):
            DrivingSystem(kind="deterministic-trivial", symbol_count=2, distribution=(0.5, 0.5))

    def test_markov_stationarity_checked(self):
        q = ((0.9, 0.1), (0.5, 0.5))
        with pytest.raises(InvalidSystem):
            DrivingSystem(kind="markov", symbol_count=2, distribution=(0.5, 0.5), transition=q)
        # stationary vector of q solves pi = pi q
        pi = (5.0 / 6.0, 1.0 / 6.0)
        DrivingSystem(kind="markov", symbol_count=2, distribution=pi, transition=q)

    def test_markov_rows_must_be_stochastic(self):
        q = ((0.9, 0.2), (0.5, 0.5))
        with pytest.raises(InvalidSystem):
            DrivingSystem(kind="markov", symbol_count=2, distribution=(0.5, 0.5), transition=q)


class TestSamplePath:
    def test_trivial_base_gives_zero_path(self, trivial_system):
        path = sample_path(trivial_system, 3, seed=4)
        assert tuple(path.symbol(j) for j in range(-3, 4)) == (0,) * 7

    def test_degenerate_iid_is_constant(self):
        sys_ = DrivingSystem(kind="iid", symbol_count=2, distribution=(1.0, 0.0))
        path = sample_path(sys_, 50, seed=9)
        assert all(path.symbol(j) == 0 for j in range(-50, 51))

    def test_fair_coin_frequency(self, iid_system):
        path = sample_path(iid_system, 50_000, seed=123)
        freqs = oracles.symbol_frequencies(path.symbols)
        assert 0.49 <= freqs[0] <= 0.51

    def test_deterministic_given_seed(self, iid_system):
        assert sample_path(iid_system, 64, 7).symbols == sample_path(iid_system, 64, 7).symbols
        assert sample_path(iid_system, 64, 7).symbols != sample_path(iid_system, 64, 8).symbols

    def test_markov_transition_frequencies(self):
        q = np.array([[0.8, 0.2], [0.3, 0.7]])
        pi = (0.6, 0.4)
        sys_ = DrivingSystem(kind="markov", symbol_count=2, distribution=pi,
                             transition=tuple(map(tuple, q)))
        path = sample_path(sys_, 30_000, seed=5)
        syms = path.symbols
        trans = np.zeros((2, 2))
        for a, b in zip(syms, syms[1:]):
            trans[a, b] += 1
        trans /= trans.sum(axis=1, keepdims=True)
        assert np.max(np.abs(trans - q)) < 0.02

    def test_window_exhaustion_raises(self, trivial_system):
        path = sample_path(trivial_system, 3, seed=1)
        with pytest.raises(WindowExhausted):
            path.symbol(4)
        shifted = path.shifted(2)
        with pytest.raises(WindowExhausted):
            shifted.symbol(2)
        assert shifted.symbol(1) == 0
        # a window of the wrong length is refused, also when a copy makes it
        with pytest.raises(InvalidSystem, match="2\\*half_window"):
            SymbolPath(symbols=(0, 0), half_window=1)
        with pytest.raises(InvalidSystem, match="2\\*half_window"):
            path._replace(half_window=4)

    def test_shift_moves_origin_only(self, iid_system):
        path = sample_path(iid_system, 16, seed=3)
        shifted = path.shifted(5)
        assert shifted.symbols == path.symbols
        assert shifted.origin_offset == 5
        assert shifted.symbol(0) == path.symbol(5)


class TestTorusGeometry:
    def test_coordinates_reduced(self):
        p = TorusPoint((1.25, -0.25))
        assert p.coords == (0.25, 0.75)
        assert p._replace(coords=(2.5, -1.0)).coords == (0.5, 0.0)
        # a point is its reduced coordinates: equal points compare and hash alike
        same = TorusPoint((-0.75, 0.75))
        assert same == p and hash(same) == hash(p)

    def test_known_distance(self):
        assert torus_distance(TorusPoint((0.1, 0.9)), TorusPoint((0.9, 0.1))) == pytest.approx(0.2)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            x, y, z = (TorusPoint(tuple(rng.random(2))) for _ in range(3))
            dxy = torus_distance(x, y)
            assert dxy == pytest.approx(torus_distance(y, x))
            assert dxy >= 0.0
            assert torus_distance(x, x) == 0.0
            assert dxy <= torus_distance(x, z) + torus_distance(z, y) + 1e-15


def _reduce_mod1_by_where(values):
    """The two-temporary form of reduce_mod1: values - floor, then np.where."""
    out = values - np.floor(values)
    return np.where(out >= 1.0, 0.0, out)


class TestReduceMod1:
    def _cases(self):
        rng = np.random.default_rng(23)
        edge = np.array([-1e-20, -1e-300, -0.0, 0.0, -1.0, -2.5, 1.0, 3.0, 0.5,
                         np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
                         np.nextafter(3.0, -np.inf), -np.nextafter(0.0, 1.0),
                         -1e-16, -1e-17, 1e300, -1e300, np.inf, -np.inf, np.nan])
        yield edge
        yield rng.standard_normal(1000) * 50.0
        yield -np.abs(rng.standard_normal((40, 3))) * 1e-17  # rounds to 1 - eps
        yield rng.standard_normal((5, 7, 2)) * 1e6
        yield np.arange(-6, 7)  # integer input
        yield np.arange(-6, 6).reshape(3, 4)

    def test_bitwise_equal_the_where_form(self):
        for values in self._cases():
            before = values.copy()
            with np.errstate(invalid="ignore"):  # inf - inf is nan in both forms
                got = reduce_mod1(values)
                want = _reduce_mod1_by_where(values)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), values
            assert np.array_equal(values, before, equal_nan=True)  # the input is kept
            assert np.all(got[np.isfinite(values)] >= 0.0)
            assert np.all(got[np.isfinite(values)] < 1.0)
        assert reduce_mod1(np.array([-1e-20]))[0] == 0.0
        assert math.copysign(1.0, reduce_mod1(np.array([-0.0]))[0]) == 1.0

    def test_callers_unchanged(self, perturbed_cat_cocycle, trivial_system, monkeypatch):
        from uthermo import equilibria, geometric_potential, leafgeom, lyapunov_spectra, rds
        from uthermo import unstable_disk

        m = perturbed_cat_cocycle.maps[0]
        path = sample_path(trivial_system, 400, 2)
        rng = np.random.default_rng(5)
        lifts = rng.standard_normal((200, 2)) * 3.0
        lifts[:4] = [[-1e-20, 0.5], [-0.0, -1e-17], [2.0, -3.0], [0.25, 1.0 - 1e-17]]
        rep = lyapunov_spectra(perturbed_cat_cocycle, [path], [TorusPoint((0.3, 0.6))], 200)[0]
        disk = unstable_disk(perturbed_cat_cocycle,
                             SkewState(path=path, point=TorusPoint((0.3, 0.6))), 0.1, rep)
        phiu = geometric_potential(perturbed_cat_cocycle, rep)
        params = np.linspace(-0.1, 0.1, 33)

        def run():
            return (m.apply(lifts), m.inverse_apply(lifts),
                    np.array(TorusPoint(tuple(lifts[0])).coords),
                    np.array([torus_distance(a, b) for a, b in zip(lifts[:50], lifts[50:100])]),
                    disk.chart(params), np.array(disk.chart(0.05).coords),
                    phiu.values(path, lifts[:20]))

        got = run()
        for module in (rds, leafgeom, equilibria):
            monkeypatch.setattr(module, "reduce_mod1", _reduce_mod1_by_where)
        want = run()
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _broadcast_apply_lift(m, pts):
    """apply_lift with the translation added as one (N, d) + (d,) broadcast."""
    out = np.asarray(pts, dtype=float)
    for s in m.shears:
        out = s.apply(out)
    return out @ m._matrix_t + np.asarray(m.translation)


def _signed_zero_points(dim):
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((300, dim)) * 3.0
    pts[:40] = 0.0
    pts[20:60] *= -1.0  # rows 20-39 are all -0.0
    pts[60:80, 0] = -0.0
    return pts


class TestMapDescriptor:
    def _maps(self, cat_cocycle, t3_cocycle, perturbed_cat_cocycle):
        yield from cat_cocycle.maps
        yield from t3_cocycle.maps  # nonzero translation
        yield from perturbed_cat_cocycle.maps  # sheared
        yield MapDescriptor(matrix=np.array([[2, 1], [1, 1]]), translation=(-0.0, 0.375))
        yield MapDescriptor(matrix=np.array([[5, 3], [3, 2]]), translation=(0.25, -0.0),
                            shears=(ShearTerm(amplitude=0.2, wavevector=(1, 1)),))

    def test_apply_bitwise_equal_broadcast_forms(self, cat_cocycle, t3_cocycle,
                                                 perturbed_cat_cocycle):
        for m in self._maps(cat_cocycle, t3_cocycle, perturbed_cat_cocycle):
            pts = _signed_zero_points(m.dim)
            for x in (pts, pts[7], pts[25], pts[:1]):
                before = x.copy()
                want = _broadcast_apply_lift(m, x)
                got = m.apply_lift(x)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                got = m.apply(x)
                assert np.array_equal(got.view(np.uint64),
                                      reduce_mod1(want).view(np.uint64))
                assert np.all((got >= 0.0) & (got < 1.0))
                # the input is not changed
                assert np.array_equal(x.view(np.uint64), before.view(np.uint64))

    def test_mod1_methods_equal_reduced_lifts(self, cat_cocycle, t3_cocycle,
                                              perturbed_cat_cocycle):
        # apply and inverse_apply reduce their own array in place and skip a
        # translation of +0.0 in every coordinate: the bits of reducing the lifts
        eye = np.eye(2, dtype=np.int64)
        maps = [*self._maps(cat_cocycle, t3_cocycle, perturbed_cat_cocycle),
                MapDescriptor(matrix=eye), MapDescriptor(matrix=eye, translation=(0.0, -0.0)),
                MapDescriptor(matrix=eye, shears=(ShearTerm(0.2, (1, 2), 0.4),))]
        for m in maps:
            pts = _signed_zero_points(m.dim)
            pts[80:84] = -1e-20  # the identity's images land on 1.0 after the floor
            pts[84, 0] = pts[85, -1] = np.nan
            pts[86] = np.nextafter(1.0, 0.0)
            for x in (pts, pts[7], pts[25], pts[81], pts[84], pts[:1]):
                before = x.copy()
                for method, lift in ((m.apply, m.apply_lift),
                                     (m.inverse_apply, m.inverse_apply_lift)):
                    got, want = method(x), reduce_mod1(lift(x))
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), method
                    assert np.array_equal(x.view(np.uint64), before.view(np.uint64))
        lift = maps[-3].apply_lift(pts)
        assert np.any(lift - np.floor(lift) == 1.0)

    def test_shear_bitwise_equal_formulas(self):
        # apply builds its displacement in place; the bits of the broadcast formula
        for s in (ShearTerm(0.015, (0, 1), 0.3), ShearTerm(0.2, (1, 1)),
                  ShearTerm(0.01, (0, 0, 1), 0.2), ShearTerm(-0.3, (1, 2, 0), -0.5)):
            pts = _signed_zero_points(len(s.wavevector))
            for x in (pts, pts[3], pts[30]):
                for inverse in (False, True):
                    amp = -s.amplitude if inverse else s.amplitude
                    arg = 2.0 * math.pi * (x @ np.asarray(s.wavevector, dtype=float)) + s.phase
                    want = x + (amp * np.sin(arg))[..., None] * s.direction
                    got = s.apply(x, inverse)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                    want = np.eye(len(x.T)) + (2.0 * math.pi * amp * np.cos(arg))[
                        ..., None, None] * np.outer(s.direction, s.wavevector)
                    got = s.jacobian(x, inverse)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_non_unimodular_rejected(self):
        with pytest.raises(InvalidSystem):
            MapDescriptor(matrix=np.array([[2, 0], [0, 1]]))

    def test_shear_is_exactly_invertible(self):
        m = MapDescriptor(
            matrix=np.array([[2, 1], [1, 1]]),
            shears=(ShearTerm(amplitude=0.4, wavevector=(1, 2), phase=0.7),),
        )
        rng = np.random.default_rng(2)
        pts = rng.random((64, 2))
        back = m.inverse_apply_lift(m.apply_lift(pts))
        assert np.max(np.abs(back - pts)) < 1e-13

    def test_shear_preserves_volume(self):
        m = MapDescriptor(
            matrix=np.array([[2, 1], [1, 1]]),
            shears=(ShearTerm(amplitude=0.3, wavevector=(2, 1)),),
        )
        rng = np.random.default_rng(3)
        dets = np.linalg.det(m.jacobian(rng.random((32, 2))))
        assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-12


class TestCompose:
    def test_zero_steps_is_identity(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 4, 0)
        x = TorusPoint((0.3, 0.8))
        assert compose(cat_cocycle, path, 0, x).coords == x.coords

    def test_cat_map_single_step(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 4, 0)
        y = compose(cat_cocycle, path, 1, TorusPoint((0.1, 0.2)))
        assert y.coords[0] == pytest.approx(0.4, abs=1e-14)
        assert y.coords[1] == pytest.approx(0.3, abs=1e-14)

    def test_inverse_round_trip(self, iid_cocycle, iid_system):
        path = sample_path(iid_system, 16, 5)
        x = TorusPoint((0.37, 0.61))
        y = compose(iid_cocycle, path, 5, x)
        back = compose(iid_cocycle, path.shifted(5), -5, y)
        assert torus_distance(back, x) < 1e-12

    def test_cocycle_law(self, iid_cocycle, iid_system):
        path = sample_path(iid_system, 32, 11)
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(-8, 9))
            m = int(rng.integers(-8, 9))
            x = TorusPoint(tuple(rng.random(2)))
            lhs = compose(iid_cocycle, path, n + m, x)
            rhs = compose(iid_cocycle, path.shifted(n), m, compose(iid_cocycle, path, n, x))
            assert torus_distance(lhs, rhs) < 1e-10


class TestDerivative:
    def test_single_step_is_the_matrix(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 4, 0)
        jac = derivative(cat_cocycle, path, 1, TorusPoint((0.2, 0.9)))
        assert np.array_equal(jac, np.array([[2.0, 1.0], [1.0, 1.0]]))

    def test_two_steps_chain_rule(self, iid_cocycle):
        # hand-built path: apply map 0 then map 1
        path = SymbolPath(symbols=(0, 0, 0, 1, 0, 0, 0), half_window=3)
        jac = derivative(iid_cocycle, path, 2, TorusPoint((0.0, 0.0)))
        a = iid_cocycle.maps[0].matrix.astype(float)
        b = iid_cocycle.maps[1].matrix.astype(float)
        assert np.allclose(jac, b @ a, atol=0)

    def test_perturbed_against_finite_differences(self, perturbed_cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 4, 0)
        m = perturbed_cat_cocycle.maps[0]
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.random(2)
            fd = oracles.finite_difference_jacobian(lambda p: m.apply_lift(p), x)
            jac = derivative(perturbed_cat_cocycle, path, 1, TorusPoint(tuple(x)))
            assert np.max(np.abs(fd - jac)) <= 1e-6

    def test_negative_step_inverts(self, perturbed_cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 8, 0)
        x = TorusPoint((0.41, 0.13))
        fwd = derivative(perturbed_cat_cocycle, path, 3, x)
        y = compose(perturbed_cat_cocycle, path, 3, x)
        bwd = derivative(perturbed_cat_cocycle, path.shifted(3), -3, y)
        assert np.max(np.abs(bwd @ fwd - np.eye(2))) < 1e-9


class TestOneOrbitEngine:
    """compose and derivative walk through the orbit engine (_orbit, _jacobians),
    bitwise equal to the one-point loops they replaced (kept in oracles)."""

    @pytest.mark.parametrize("name", ["cat_cocycle", "iid_cocycle", "t3_cocycle",
                                      "perturbed_cat_cocycle"])
    def test_bitwise_equal_point_loops(self, name, request, iid_system, trivial_system):
        cocycle = request.getfixturevalue(name)
        system = iid_system if len(cocycle.maps) > 1 else trivial_system
        rng = np.random.default_rng(23)
        for seed in range(4):
            path = sample_path(system, 30, seed).shifted(int(rng.integers(-6, 7)))
            for n in (-13, -4, -1, 0, 1, 2, 7, 13):
                x = rng.random(cocycle.dim)
                got = compose(cocycle, path, n, TorusPoint(tuple(x)))
                want = oracles.loop_compose(cocycle, path, n, x)
                assert np.asarray(got.coords).tobytes() == want.tobytes(), (seed, n)
                got = derivative(cocycle, path, n, TorusPoint(tuple(x)))
                want = oracles.loop_derivative(cocycle, path, n, x)
                assert got.tobytes() == want.tobytes(), (seed, n)

    @pytest.mark.parametrize("walk", [compose, derivative])
    def test_errors(self, walk, cat_cocycle, iid_cocycle, perturbed_cat_cocycle):
        path = SymbolPath(symbols=(1, 0, 0, 0, 0, 0, 1), half_window=3)
        x = TorusPoint((0.2, 0.7))
        for cocycle in (cat_cocycle, perturbed_cat_cocycle):  # one map: symbol 1 has none
            for n in (4, -3):
                with pytest.raises(InvalidSystem, match="no map for symbol 1"):
                    walk(cocycle, path, n, x)
        for n in (5, -4):
            with pytest.raises(WindowExhausted):
                walk(iid_cocycle, path, n, x)

    def test_negative_symbol_has_no_map(self, perturbed_cat_cocycle):
        # a negative symbol is refused, not read as a map counted from the end
        from conftest import CONFIG_DIR

        _, aa2 = load_system(CONFIG_DIR / "iid_aa2.system")
        path = SymbolPath(symbols=(0, -1, 1), half_window=1)
        x = TorusPoint((0.2, 0.7))
        with pytest.raises(InvalidSystem, match="no map for symbol -1"):
            aa2.map_for(-1)
        for walk in (compose, derivative):
            with pytest.raises(InvalidSystem, match="no map for symbol -1"):
                walk(aa2, path, 1, x)
            walk(aa2, path, -1, x)  # time -1 holds symbol 0
        for cocycle in (aa2, perturbed_cat_cocycle):
            for syms in (np.array([[0, -1, 0]]), np.full((2, 3), -1)):
                pts = np.zeros((len(syms), 2))
                for backward in (False, True):
                    with pytest.raises(InvalidSystem, match="no map for symbol -1"):
                        _jacobians(cocycle, syms, pts, backward)
                with pytest.raises(InvalidSystem, match="no map for symbol -1"):
                    _orbit(cocycle, syms, pts)


def _two_map_sheared_cocycle():
    a = np.array([[2, 1], [1, 1]])
    first = ShearTerm(amplitude=0.015, wavevector=(0, 1), phase=0.3)
    second = ShearTerm(amplitude=0.01, wavevector=(1, 1), phase=0.7)
    return Cocycle(maps=(MapDescriptor(matrix=a, shears=(first,)),
                         MapDescriptor(matrix=a @ a, shears=(second,), translation=(0.125, 0.3))))


def _two_map_sheared_t3_cocycle():
    m = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 2]])
    return Cocycle(maps=(
        MapDescriptor(matrix=m, shears=(ShearTerm(amplitude=0.01, wavevector=(0, 0, 1),
                                                  phase=0.2),)),
        MapDescriptor(matrix=m, translation=(0.25, -0.0, 0.5),
                      shears=(ShearTerm(amplitude=0.02, wavevector=(1, 0, 1), phase=0.5),
                              ShearTerm(amplitude=0.01, wavevector=(0, 1, 0), phase=0.1)))))


class TestWalk:
    """_walk is the one loop that steps orbits: _orbit stores it, and a one-row
    symbol array moves every point by its symbol's map."""

    @pytest.mark.parametrize("name", ["perturbed_cat_cocycle", "sheared",
                                      "sheared_plane_leaf_cocycle", "sheared_t3"])
    @pytest.mark.parametrize("method", ["apply", "apply_lift", "inverse_apply"])
    def test_orbit_rows_equal_stepwise_map_steps(self, name, method, request):
        # a walk whose symbols name one map calls its method directly
        cocycle = {"sheared": _two_map_sheared_cocycle,
                   "sheared_t3": _two_map_sheared_t3_cocycle}.get(
                       name, lambda: request.getfixturevalue(name))()
        rng = np.random.default_rng(13)
        pts = rng.random((6, cocycle.dim)) * 3.0 - 1.0
        pts[0] = -0.0
        last = len(cocycle.maps) - 1
        for syms in (rng.integers(0, last + 1, (6, 15)), np.full((6, 15), last),
                     rng.integers(0, last + 1, (1, 15)), np.zeros((6, 0), dtype=np.int64)):
            orbit = _orbit(cocycle, syms, pts, method)
            assert orbit.shape == (syms.shape[1] + 1,) + pts.shape
            row = pts
            assert orbit[0].tobytes() == row.tobytes()
            for j, col in enumerate(syms.T):
                row = _map_step(cocycle, col, row, method)
                assert orbit[j + 1].tobytes() == row.tobytes(), (j, syms[:, 0])

    @pytest.mark.parametrize("name", ["iid_cocycle", "sheared"])
    @pytest.mark.parametrize("method", ["apply", "apply_lift", "inverse_apply", "jacobian"])
    def test_one_symbol_is_the_stacked_column(self, name, method, request):
        cocycle = _two_map_sheared_cocycle() if name == "sheared" else request.getfixturevalue(name)
        pts = np.random.default_rng(5).random((37, 2)) * 3.0 - 1.0
        for s in range(len(cocycle.maps)):
            got = _map_step(cocycle, np.array([s]), pts, method)
            want = _map_step(cocycle, np.full(len(pts), s), pts, method)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), s

    @pytest.mark.parametrize("name", ["iid_cocycle", "sheared"])
    @pytest.mark.parametrize("method", ["apply", "apply_lift", "inverse_apply"])
    def test_walk_yields_the_orbit(self, name, method, request):
        cocycle = _two_map_sheared_cocycle() if name == "sheared" else request.getfixturevalue(name)
        rng = np.random.default_rng(11)
        pts = rng.random((9, 2))
        for syms in (rng.integers(0, 2, (9, 12)), rng.integers(0, 2, (1, 12))):
            orbit = _orbit(cocycle, syms, pts, method)
            rows = list(_walk(cocycle, syms, pts, method))
            assert [r.tobytes() for r in rows] == [r.tobytes() for r in orbit]
        # one symbol row streams the bits of the stacked walk on its repeated rows
        stacked = _orbit(cocycle, np.repeat(syms, len(pts), axis=0), pts, method)
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in stacked]


class TestJacobians:
    """_jacobians gives (table, index), step j of sample i being table[index[j, i]]."""

    @pytest.mark.parametrize("backward", [False, True])
    def test_point_dependent_stack_equals_per_step_oracle(self, backward):
        # one jacobian call per step at the point its map acts on, one sample at a
        # time: forward at x_j before map j moves it, backward at x_j after the
        # inverse of map j has pulled it back.  Both maps' matrix is the cat map's,
        # whose stacked products round as its one-point ones (A^2's do not)
        a = np.array([[2, 1], [1, 1]])
        cocycle = Cocycle(maps=(
            MapDescriptor(matrix=a, shears=(ShearTerm(0.015, (0, 1), 0.3),)),
            MapDescriptor(matrix=a, shears=(ShearTerm(0.01, (1, 1), 0.7),),
                          translation=(0.125, 0.3))))
        rng = np.random.default_rng(31)
        syms, pts = rng.integers(0, 2, (5, 17)), rng.random((5, 2))
        table, index = _jacobians(cocycle, syms, pts, backward=backward)
        assert index.shape == (17, 5)
        assert len(np.unique(index)) == index.size  # a stack: no row is read twice
        got = table[index]
        for i in range(5):
            x = pts[i]
            for j, s in enumerate(syms[i]):
                m = cocycle.maps[s]
                if backward:
                    x = m.inverse_apply(x)
                want = m.jacobian(x)
                if not backward:
                    x = m.apply(x)
                assert got[j, i].tobytes() == want.tobytes(), (i, j)

    def test_constant_jacobian_table_is_read_by_symbol(self, iid_cocycle):
        syms = np.random.default_rng(4).integers(0, 2, (3, 9))
        table, index = _jacobians(iid_cocycle, syms, np.zeros((3, 2)))
        assert table.shape == (2, 2, 2)
        assert np.array_equal(index, syms.T)
        for s, m in enumerate(iid_cocycle.maps):
            assert np.array_equal(table[s], m.matrix)


class TestSkewProduct:
    def test_inverse_round_trip_linear(self, cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 8, 0)
        state = SkewState(path=path, point=TorusPoint((0.123, 0.456)))
        back = oracles.skew_step(cat_cocycle, oracles.skew_step(cat_cocycle, state, 1), -1)
        assert back.path.origin_offset == state.path.origin_offset
        assert torus_distance(back.point, state.point) < 1e-12

    def test_inverse_round_trip_perturbed(self, perturbed_cat_cocycle, trivial_system):
        path = sample_path(trivial_system, 8, 0)
        rng = np.random.default_rng(6)
        for _ in range(25):
            state = SkewState(path=path, point=TorusPoint(tuple(rng.random(2))))
            back = oracles.skew_step(perturbed_cat_cocycle,
                                     oracles.skew_step(perturbed_cat_cocycle, state, 1), -1)
            assert max(
                abs(a - b) for a, b in zip(back.point.coords, state.point.coords)
            ) < 1e-14

    def test_haar_pushforward_chi_square(self, cat_cocycle):
        # uniform mass is preserved by the map: binned image vs flat expectation
        rng = np.random.default_rng(42)
        pts = rng.random((40_000, 2))
        image = cat_cocycle.maps[0].apply(pts)
        counts, _, _ = np.histogram2d(image[:, 0], image[:, 1], bins=16,
                                      range=[[0, 1], [0, 1]])
        expected = len(pts) / 256.0
        stat = float(np.sum((counts - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.999, 255)


class TestIntegrability:
    def test_unit_bounds(self, trivial_system):
        m = MapDescriptor(matrix=np.array([[2, 1], [1, 1]]), c2_bound=math.e,
                          c2_bound_inverse=math.e)
        est = oracles.integrability_check(trivial_system, Cocycle(maps=(m,)), samples=10)
        assert est == pytest.approx(2.0, abs=1e-12)

    def test_small_bounds_clamp_to_zero(self, trivial_system):
        m = MapDescriptor(matrix=np.array([[2, 1], [1, 1]]), c2_bound=0.5,
                          c2_bound_inverse=0.9)
        est = oracles.integrability_check(trivial_system, Cocycle(maps=(m,)), samples=10)
        assert est == 0.0

    def test_two_symbol_expectation(self, iid_system):
        # closed form: 0.5*(2+1) + 0.5*(1+1) = 2.5
        m0 = MapDescriptor(matrix=np.array([[2, 1], [1, 1]]), c2_bound=math.e**2,
                           c2_bound_inverse=math.e)
        m1 = MapDescriptor(matrix=np.array([[2, 1], [1, 1]]), c2_bound=math.e,
                           c2_bound_inverse=math.e)
        est = oracles.integrability_check(iid_system, Cocycle(maps=(m0, m1)), samples=200_000,
                                          seed=3)
        assert est == pytest.approx(2.5, abs=0.02)

    def test_missing_bound_rejected(self, trivial_system):
        m = MapDescriptor(matrix=np.array([[2, 1], [1, 1]]), c2_bound=None)
        assert m.c2_bound is None
        with pytest.raises(InvalidSystem):
            oracles.integrability_check(trivial_system, Cocycle(maps=(m,)), samples=10)

    @pytest.mark.parametrize("name", ["cat.system", "iid_aa2.system", "t3_rot.system"])
    def test_bundled_systems_without_bounds_pass(self, name):
        # the c2 keys are optional: absent ones take the closed-form bound
        from conftest import CONFIG_DIR

        system, cocycle = load_system(CONFIG_DIR / name)
        est = oracles.integrability_check(system, cocycle, samples=100)
        assert math.isfinite(est) and est > 0.0
        for m in cocycle.maps:
            assert m.c2_bound == m._default_c2(m.matrix)

    def test_explicit_bound_in_file_honoured(self):
        text = ("base.kind = deterministic-trivial\nbase.symbols = 1\nfiber.dim = 2\n"
                "map.0.matrix = 2 1 1 1\nmap.0.c2 = 7.389056098930650\n")
        system, cocycle = parse_system_text(text)
        m = cocycle.maps[0]
        assert m.c2_bound == 7.389056098930650
        assert m.c2_bound_inverse == m._default_c2(m._inverse_matrix)
        est = oracles.integrability_check(system, cocycle, samples=10)
        assert est == pytest.approx(2.0 + math.log(m.c2_bound_inverse), abs=1e-12)


class TestSystemFiles:
    def test_round_trip_cat(self):
        text = (
            "base.kind = deterministic-trivial\nbase.symbols = 1\nfiber.dim = 2\n"
            "map.0.matrix = 2 1 1 1\nseed = 7\n"
        )
        system, cocycle = parse_system_text(text)
        assert system.kind == "deterministic-trivial"
        assert cocycle.dim == 2
        assert np.array_equal(cocycle.maps[0].matrix, np.array([[2, 1], [1, 1]]))

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidSystem):
            parse_system_text("base.kind = iid\nbase.symbols = 1\nwhatever = 3\n"
                              "map.0.matrix = 2 1 1 1\n")

    def test_perturbation_triples(self):
        text = (
            "base.kind = deterministic-trivial\nbase.symbols = 1\nfiber.dim = 2\n"
            "map.0.matrix = 2 1 1 1\nmap.0.perturbation = 0.01:1,0:0.5 0.02:0,1:0.0\n"
        )
        _, cocycle = parse_system_text(text)
        shears = cocycle.maps[0].shears
        assert len(shears) == 2
        assert shears[0].amplitude == 0.01
        assert shears[0].wavevector == (1, 0)
        assert shears[1].phase == 0.0

    def test_stray_map_key_rejected(self):
        text = (
            "base.kind = deterministic-trivial\nbase.symbols = 1\nfiber.dim = 2\n"
            "map.0.matrix = 2 1 1 1\nmap.3.matrix = 2 1 1 1\n"
        )
        with pytest.raises(InvalidSystem):
            parse_system_text(text)
