"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers.
Tolerances are frozen here; shared heavy estimates live in module-scoped
fixtures.  Run with `pytest tests/test_acceptance.py -v -s` to see every
line.
"""

import math
import time

import numpy as np
import pytest

import oracles
from conftest import CONFIG_DIR
from uthermo import (
    GridSpec,
    TorusPoint,
    bowen_ball_entropy,
    build_partition_pair,
    certify_partial_hyperbolicity,
    constant_potential,
    convex_combo_sampler,
    coordinate_potential,
    dual_vp_check,
    equilibrium_scan,
    geometric_potential,
    gibbs_defect,
    haar_sampler,
    partition_entropy_rate,
    periodic_atomic_sampler,
    pressure_estimates,
    pressure_property_suite,
    smb_trace,
    topological_entropy,
    zero_potential,
)
from uthermo.measures import information_identity_battery
from uthermo.rds import load_system
from uthermo.equilibria import _report_for

H_CAT = oracles.CAT_LOG          # 0.9624236501...
H_IID = 1.5 * oracles.CAT_LOG    # 1.4436354752...

CAT_GRID = GridSpec(delta=0.1, n_grid=tuple(range(8, 15)), eps_grid=(0.02, 0.04),
                    base_grid=5, omega_samples=1)
IID_GRID = GridSpec(delta=0.1, n_grid=tuple(range(8, 17)), eps_grid=(0.02, 0.04),
                    base_grid=5, omega_samples=24)
T3_GRID = GridSpec(delta=0.1, n_grid=tuple(range(8, 15)), eps_grid=(0.02, 0.04),
                   base_grid=5, omega_samples=8)
IID_GIBBS_GRID = GridSpec(delta=0.1, n_grid=tuple(range(4, 21)), eps_grid=(0.02, 0.04),
                          base_grid=3, omega_samples=96)
ENUM_GRID = GridSpec(delta=0.05, n_grid=tuple(range(5, 11)), eps_grid=(0.04,),
                     base_grid=2, omega_samples=1)


def _criterion(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def cat_entropy(cat_cocycle, trivial_system):
    start = time.perf_counter()
    est = topological_entropy(cat_cocycle, trivial_system, CAT_GRID, seed=1)
    return est, time.perf_counter() - start


@pytest.fixture(scope="module")
def iid_entropy(iid_cocycle, iid_system):
    return topological_entropy(iid_cocycle, iid_system, IID_GRID, seed=2)


@pytest.fixture(scope="module")
def cat_haar(trivial_system):
    return haar_sampler(trivial_system, dim=2)


@pytest.fixture(scope="module")
def cat_atom(cat_cocycle, trivial_system):
    return periodic_atomic_sampler(trivial_system, cat_cocycle, TorusPoint((0.0, 0.0)))


def test_criterion_1_cat_entropy(cat_entropy):
    est, elapsed = cat_entropy
    rel = abs(est.value / H_CAT - 1.0)
    ok = rel <= 0.05 and elapsed <= 120.0
    _criterion(
        "1 cat-map leafwise entropy",
        ok,
        f"value {est.value:.6f} vs {H_CAT:.6f} (rel {rel:.2%}), runtime {elapsed:.1f}s",
    )


def test_criterion_2_random_switching(iid_entropy):
    est = iid_entropy
    rel = abs(est.value / H_IID - 1.0)
    ok = rel <= 0.07 and est.spread <= 0.10 and est.omega_samples >= 8
    _criterion(
        "2 random-switching entropy",
        ok,
        f"value {est.value:.4f} vs {H_IID:.4f} (rel {rel:.2%}), "
        f"per-sample spread {est.spread:.2%} over {est.omega_samples} base samples",
    )


def test_criterion_3_t3_certified_and_entropy(t3_cocycle, t3_system):
    cert = certify_partial_hyperbolicity(t3_cocycle, t3_system, samples=12, n=40, seed=9)
    est = topological_entropy(t3_cocycle, t3_system, T3_GRID, seed=4)
    rel = abs(est.value / H_CAT - 1.0)
    ok = cert.verdict == "certified" and rel <= 0.05
    _criterion(
        "3 product-system certificate and entropy",
        ok,
        f"verdict {cert.verdict} (expansion {cert.expansion_lower:.3f}, "
        f"gap {cert.domination_ratio_log:+.3f}), entropy {est.value:.4f} (rel {rel:.2%})",
    )


def test_criterion_4_geometric_potential_identities(
    cat_cocycle, trivial_system, cat_haar, iid_cocycle, iid_system
):
    gd_cat = gibbs_defect(cat_cocycle, trivial_system, cat_haar, CAT_GRID, seed=3,
                          entropy_samples=64)
    iid_haar = haar_sampler(iid_system, dim=2)
    gd_iid = gibbs_defect(
        iid_cocycle, iid_system, iid_haar, IID_GIBBS_GRID, seed=3,
        entropy_samples=256, birkhoff_n=256, birkhoff_samples=128,
    )
    ok = (
        abs(gd_cat.pressure_at_phiu) <= 0.05
        and abs(gd_iid.pressure_at_phiu) <= 0.05
        and abs(gd_cat.pesin_gap) <= 0.05
        and abs(gd_iid.pesin_gap) <= 0.05
    )
    _criterion(
        "4 geometric-potential pressure and uniform-measure gap",
        ok,
        f"P(phi-u): cat {gd_cat.pressure_at_phiu:+.4f}, switching {gd_iid.pressure_at_phiu:+.4f}; "
        f"pesin gap: cat {gd_cat.pesin_gap:+.4f}, switching {gd_iid.pesin_gap:+.4f}",
    )


def test_criterion_5_two_entropy_estimators_agree(
    cat_cocycle, trivial_system, cat_haar, iid_cocycle, iid_system
):
    pair = build_partition_pair(trivial_system, [], 16, offset_seed=3)
    grid = tuple(range(6, 19))
    bowen_cat = bowen_ball_entropy(cat_cocycle, cat_haar, 0.1, grid, (0.02, 0.04), 24, seed=5)
    part_cat = partition_entropy_rate(cat_cocycle, cat_haar, pair, grid, 48, seed=7, delta=0.1)
    gap_cat = oracles.entropy_estimator_gap(bowen_cat, part_cat)

    iid_haar = haar_sampler(iid_system, dim=2)
    pair2 = build_partition_pair(iid_system, [], 16, offset_seed=3)
    grid2 = tuple(range(6, 17))
    bowen_iid = bowen_ball_entropy(iid_cocycle, iid_haar, 0.1, grid2, (0.02,), 128, seed=5)
    part_iid = partition_entropy_rate(iid_cocycle, iid_haar, pair2, grid2, 128, seed=7,
                                      delta=0.1)
    gap_iid = oracles.entropy_estimator_gap(bowen_iid, part_iid)
    ok = gap_cat.gap <= 0.05 and gap_iid.gap <= 0.10
    _criterion(
        "5 ball-decay vs partition-rate agreement",
        ok,
        f"cat gap {gap_cat.gap:.4f} (<= 0.05), switching gap {gap_iid.gap:.4f} (<= 0.10)",
    )


def test_criterion_6_information_traces(cat_cocycle, trivial_system, cat_haar, cat_atom):
    pair = build_partition_pair(trivial_system, [], 16, offset_seed=3)
    est = smb_trace(cat_cocycle, cat_haar, pair, tuple(range(2, 21)), 40, seed=11, delta=0.1)
    atom_est = smb_trace(cat_cocycle, cat_atom, pair, (4, 8, 12), 10, seed=11, delta=0.1)
    rel = abs(est.value / H_CAT - 1.0)
    ok = (
        est.trace_sd[-1] <= est.trace_sd[0]
        and rel <= 0.05
        and abs(atom_est.value) <= 0.02
    )
    _criterion(
        "6 per-orbit information traces",
        ok,
        f"terminal mean {est.value:.4f} (rel {rel:.2%}), sd {est.trace_sd[0]:.3f}->"
        f"{est.trace_sd[-1]:.3f}, atomic terminal {atom_est.value:.4f}",
    )


def test_criterion_7_variational_inequality(cat_cocycle, trivial_system, cat_haar, cat_atom):
    combo = convex_combo_sampler([cat_haar, cat_atom], [0.5, 0.5])
    family = [cat_haar, cat_atom, combo]
    phiu = geometric_potential(cat_cocycle, _report_for(cat_cocycle, trivial_system, 5))
    potentials = [zero_potential(), constant_potential(0.3), phiu]
    all_defects_ok = True
    haar_attains = False
    atomic_defect = None
    details = []
    for phi in potentials:
        report = equilibrium_scan(
            cat_cocycle, trivial_system, phi, family, CAT_GRID, seed=13,
            entropy_samples=32, birkhoff_samples=16,
        )
        for c in report.candidates:
            if c.defect < -c.combined_ci:
                all_defects_ok = False
            if phi.label == "zero" and c.measure_id == "haar":
                haar_attains = c.equilibrium_within_ci
            if phi.label == "zero" and c.measure_id.startswith("atomic"):
                atomic_defect = c.defect
        details.append(f"{phi.label}: min defect {min(c.defect for c in report.candidates):+.4f}")
    atomic_ok = atomic_defect is not None and abs(atomic_defect / H_CAT - 1.0) <= 0.10
    ok = all_defects_ok and haar_attains and atomic_ok
    _criterion(
        "7 variational inequality scan",
        ok,
        f"defects above -CI: {all_defects_ok}, uniform attains sup: {haar_attains}, "
        f"fixed-point defect {atomic_defect:.4f} vs {H_CAT:.4f}; " + "; ".join(details),
    )


def test_criterion_8_pressure_axioms(cat_cocycle, trivial_system):
    family = [
        zero_potential(),
        constant_potential(0.3),
        coordinate_potential(0.4, [1, 0], label="cosx1"),
        coordinate_potential(0.4, [1, 0], fn="sin", label="sinx1"),
        constant_potential(-0.2),
    ]
    report = pressure_property_suite(cat_cocycle, trivial_system, family, ENUM_GRID, seed=21)
    by_name = {c.name: c for c in report.checks}
    shift_ok = by_name["constant-shift"].passed and by_name["constant-shift"].slack >= -1e-9
    ok = report.all_passed and shift_ok
    _criterion(
        "8 pressure functional axioms",
        ok,
        "; ".join(f"{c.name}:{'ok' if c.passed else 'FAIL'}(slack {c.slack:+.3g})"
                  for c in report.checks),
    )


def test_criterion_9_information_calculus():
    worst = information_identity_battery(n_spaces=100, seed=3)
    bound = max(worst.values())
    ok = bound <= 1e-12
    _criterion(
        "9 exact conditional-information laws",
        ok,
        f"worst deviation {bound:.3e} over 100 spaces "
        f"(concavity {worst['concavity_in_measure']:.3e})",
    )


def test_criterion_10_weighted_log_sum_inequality():
    rng = np.random.default_rng(99)
    worst = math.inf
    n_large_mass = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 8))
        p = rng.random(m)
        scale = rng.uniform(0.1, 2.0 / max(p.sum(), 1e-9))
        p = np.minimum(p * scale, 1.0)
        if p.sum() <= 0:
            continue
        if p.sum() > 1.0:
            n_large_mass += 1
        a = rng.normal(0.0, 2.0, m)
        ok, slack = oracles.mixing_inequality_check(p, a)
        worst = min(worst, slack)
        if not ok:
            break
    ok = worst >= -1e-12 and n_large_mass > 500
    _criterion(
        "10 weighted log-sum inequality sweep",
        ok,
        f"worst slack {worst:.3e} over 10000 draws ({n_large_mass} with total mass > 1)",
    )


def test_criterion_11_estimator_robustness(cat_cocycle, trivial_system, cat_entropy):
    base, _ = cat_entropy
    half_delta = GridSpec(delta=0.05, n_grid=CAT_GRID.n_grid, eps_grid=CAT_GRID.eps_grid,
                          base_grid=CAT_GRID.base_grid, omega_samples=1)
    half_eps = GridSpec(delta=0.1, n_grid=CAT_GRID.n_grid, eps_grid=(0.01, 0.02),
                        base_grid=CAT_GRID.base_grid, omega_samples=1)
    est_d = topological_entropy(cat_cocycle, trivial_system, half_delta, seed=1)
    est_e = topological_entropy(cat_cocycle, trivial_system, half_eps, seed=1)
    d_shift = abs(est_d.value - base.value)
    e_shift = abs(est_e.value - base.value)
    brackets = (
        base.bracket_ok
        and est_d.bracket_ok
        and est_e.bracket_ok
        and all(c.log_lower <= c.log_upper + 1e-9 for c in base.cells)
    )
    ok = (
        d_shift <= 2.0 * (base.slope_ci + est_d.slope_ci)
        and e_shift <= 2.0 * (base.slope_ci + est_e.slope_ci)
        and brackets
    )
    _criterion(
        "11 scale robustness and bracket validity",
        ok,
        f"radius-halving shift {d_shift:.2e}, scale-halving shift {e_shift:.2e}, "
        f"brackets valid: {brackets}",
    )


# exact pressures from the transfer operator of the potential (oracles)
TRIG_GRID = GridSpec(delta=0.05, n_grid=tuple(range(5, 10)), eps_grid=(0.04,), base_grid=2,
                     omega_samples=1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_12_trig_pressure_matches_transfer_operator(seed):
    # bound and seeds from a sweep over seeds 1-20: worst error 2.1e-3, smallest CI 0.0102
    system, cocycle = load_system(CONFIG_DIR / "cat.system")
    specs = [(fn, a, k) for fn in ("cos", "sin") for a in (0.2, 0.4, 0.8)
             for k in ((1, 0), (1, 1))]
    family = [coordinate_potential(a, k, fn=fn, label=f"{fn}:{a:g}:{k[0]},{k[1]}")
              for fn, a, k in specs]
    exact = [oracles.transfer_operator_pressure(cocycle.maps[0].matrix, a, k, fn=fn)
             for fn, a, k in specs]
    estimates = pressure_estimates(cocycle, system, family, TRIG_GRID, seed=seed)
    errors = [abs(e.value - x) for e, x in zip(estimates, exact)]
    missed = [e.potential_label for e, err in zip(estimates, errors) if err > e.slope_ci]
    worst = max(errors)
    _criterion(
        "12 trigonometric pressure against the transfer operator",
        not missed and worst <= 5e-3,
        f"seed {seed}: worst error {worst:.2e} "
        f"({estimates[errors.index(worst)].potential_label}), "
        f"smallest CI {min(e.slope_ci for e in estimates):.4f}, outside CI: {missed or 'none'}",
    )
