"""Configuration-driven experiment runner.

Reads a plain key/value experiment config naming a system definition,
runs one named experiment, and writes deterministic CSV/JSON artifacts
(`<experiment>_<seed>.csv/.json`; `--experiment all` writes each config's
into `<out>/<config stem>/`); wall-clock timestamps go only to a
sidecar `.log` so repeated runs are byte-identical.  Exit codes: 0 all
asserted invariants passed, 1 invariant failure, 2 config error, 3
estimator failure.

Only smb, gibbs, vp-scan, info-identities and the phiu potential read the
measures and equilibria layers; `run` imports them for those runs alone,
before `load_system`, so that compiling them counts as setup, not as the
experiment's time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np

from .rds import (
    Cocycle,
    DrivingSystem,
    EstimatorError,
    InvalidSystem,
    TorusPoint,
    load_system,
    sample_path,
)
from .oseledets import certify_partial_hyperbolicity, lyapunov_spectra
from .thermo import (
    GridSpec,
    Potential,
    constant_potential,
    coordinate_potential,
    pressure_estimates,
    pressure_property_suite,
    topological_entropy,
    zero_potential,
)

EXPERIMENTS = (
    "spectrum",
    "certify",
    "pressure",
    "entropy",
    "smb",
    "gibbs",
    "vp-scan",
    "property-suite",
    "info-identities",
)

# the experiments that fit a growth rate over n_grid
_SLOPE_EXPERIMENTS = ("pressure", "entropy", "gibbs", "vp-scan", "property-suite")

ENV_PREFIX = "UTHERMO_"


class ConfigError(ValueError):
    """Bad or unknown experiment configuration."""


def _parse_int_grid(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(t) for t in text.split())


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.split())


# every config key: its default and the parser of its value
_KEYS = {
    "system": ("", str),
    "experiment": ("", str),
    "seed": (0, int),
    "samples": (1, int),
    "out": ("results", str),
    "delta": (0.1, float),
    "n_grid": ((8, 9, 10, 11, 12, 13, 14), _parse_int_grid),
    "eps_grid": ((0.02, 0.04), lambda text: tuple(float(t) for t in text.split())),
    "base_grid": (5, int),
    "potential": ("zero", str),
    "potentials": ((), _words),
    "grid_k": (16, int),
    "entropy_samples": (64, int),
    "birkhoff_n": (64, int),
    "birkhoff_samples": (64, int),
    "spaces": (100, int),
    "measures": (("haar", "atomic:0,0"), _words),
    "certify_n": (40, int),
    "spectrum_n": (2000, int),
}

# the keys that UTHERMO_<KEY> variables, then the flags of the same name, override
_OVERRIDES = ("experiment", "seed", "samples", "out")


class ExperimentConfig:
    """Parsed experiment description: an attribute per key of _KEYS, at its
    default until set, and the config's directory; grids must be strictly
    increasing."""

    def __init__(self, config_dir: Path = Path()):
        for key, (default, _) in _KEYS.items():
            setattr(self, key, default)
        self.config_dir = config_dir

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.system and self.experiment != "info-identities":
            raise ConfigError("missing key 'system'")
        for key in ("samples", "certify_n", "entropy_samples", "birkhoff_n",
                    "birkhoff_samples", "spaces"):
            if getattr(self, key) < 1:
                raise ConfigError(f"key {key!r} must be >= 1")
        if self.spectrum_n < 100:
            raise ConfigError("key 'spectrum_n' must be >= 100")
        if not 0 < self.delta <= 0.25:
            raise ConfigError("key 'delta' must lie in (0, 0.25]")
        if len(self.n_grid) < 2 and self.experiment in _SLOPE_EXPERIMENTS:
            raise ConfigError(f"key 'n_grid' needs two or more entries for the slope fit "
                              f"of {self.experiment}")
        if len(self.measures) < 2 and self.experiment == "vp-scan":
            raise ConfigError("key 'measures' needs two or more candidate measures for vp-scan")
        try:
            self.grid_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def grid_spec(self) -> GridSpec:
        return GridSpec(
            delta=self.delta,
            n_grid=self.n_grid,
            eps_grid=self.eps_grid,
            base_grid=self.base_grid,
            omega_samples=self.samples,
        )


def parse_config_text(text: str, config_dir: Path) -> ExperimentConfig:
    cfg = ExperimentConfig(config_dir=config_dir)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _KEYS[key][1](val))
        except ValueError:
            raise ConfigError(f"key {key!r} has a malformed value {val!r}") from None
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), path.parent)


def _finite(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text!r} is not finite")
    return val


def _resolve_potential(spec: str, cocycle: Cocycle, system: DrivingSystem, seed: int) -> Potential:
    if spec == "zero":
        return zero_potential()
    if spec == "phiu":
        from .equilibria import _report_for, geometric_potential

        return geometric_potential(cocycle, _report_for(cocycle, system, seed))
    kind, _, rest = spec.partition(":")
    if kind not in ("const", "cos", "sin"):
        raise ConfigError(f"unknown potential spec {spec!r}")
    try:
        if kind == "const":
            return constant_potential(_finite(rest))
        parts = rest.split(":")
        amp = _finite(parts[0])
        k = [int(t) for t in parts[1].split(",")] if len(parts) > 1 else [1] + [0] * (cocycle.dim - 1)
        if len(k) != cocycle.dim:
            raise ValueError(f"the wavevector needs {cocycle.dim} entries")
        phase = _finite(parts[2]) if len(parts) > 2 else 0.0
    except ValueError as exc:
        raise ConfigError(f"malformed potential spec {spec!r}: {exc}") from None
    return coordinate_potential(amp, k, phase=phase, fn=kind, label=spec)


def _resolve_measure(spec: str, cocycle: Cocycle, system: DrivingSystem):
    from .measures import convex_combo_sampler, haar_sampler, periodic_atomic_sampler

    if spec == "haar":
        return haar_sampler(system, dim=cocycle.dim)
    kind, _, rest = spec.partition(":")
    if kind not in ("atomic", "combo"):
        raise ConfigError(f"unknown measure spec {spec!r}")
    try:
        if kind == "atomic":
            coords = tuple(float(t) for t in rest.split(","))
            if len(coords) != cocycle.dim:
                raise ValueError(f"the point needs {cocycle.dim} coordinates")
        else:
            # combo:w1*spec1+w2*spec2 with nested specs free of '+'
            weighted = [term.split("*", 1) for term in rest.split("+")]
            if any(len(pair) != 2 for pair in weighted):
                raise ValueError("each term needs the form <weight>*<spec>")
            weights = [float(w) for w, _ in weighted]
    except ValueError as exc:
        raise ConfigError(f"malformed measure spec {spec!r}: {exc}") from None
    if kind == "atomic":
        return periodic_atomic_sampler(system, cocycle, TorusPoint(coords))
    comps = [_resolve_measure(sub, cocycle, system) for _, sub in weighted]
    return convex_combo_sampler(comps, weights)


# ---------------------------------------------------------------------------
# Deterministic emission
# ---------------------------------------------------------------------------


class _CellText(dict):
    """CSV text of cell values keyed by (id, value), so each value object is
    formatted once: a float as %.12g, anything else as str.  Keys hold their
    values, so no id is reused while a table is written; equal values of other
    types or signs (1 and 1.0, 0.0 and -0.0) keep their own text."""

    def __missing__(self, key):
        value = key[1]
        text = self[key] = f"{value:.12g}" if isinstance(value, float) else str(value)
        return text


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def emit_report(out_dir, experiment: str, seed: int, header, rows, json_obj, log_lines,
                json_lines=None):
    """Write `<experiment>_<seed>.{csv,json}` plus a timestamped sidecar log.

    json_lines, when given, is a list of records written one-per-line to a
    `.jsonl` companion (per-sample spectrum/certificate records).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = f"{experiment.replace('-', '_')}_{seed}"
    csv_path = out / f"{base}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # rows share value objects: t3_entropy's 112,000 cells are 361 objects
        cell = _CellText().__getitem__
        for row in map(tuple, rows):  # read twice below, so a row may be any iterable
            fh.write(",".join(map(cell, zip(map(id, row), row))) + "\n")
    json_path = out / f"{base}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(json_obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")
    if json_lines is not None:
        with open(out / f"{base}.jsonl", "w", encoding="utf-8") as fh:
            for rec in json_lines:
                fh.write(json.dumps(rec, sort_keys=True, default=_json_default) + "\n")
    log_path = out / f"{base}.log"
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(f"[{time.strftime('%Y-%m-%dT%H:%M:%S')}] " + "; ".join(log_lines) + "\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _run_spectrum(cfg, cocycle, system):
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, 0x59EC])
    n = cfg.spectrum_n
    pseeds, paths, xs = [], [], []
    for _ in range(cfg.samples):
        pseeds.append(int(rng.integers(0, 2**63 - 1)))
        paths.append(sample_path(system, n + 2, pseeds[-1]))
        xs.append(TorusPoint(tuple(rng.random(cocycle.dim))))
    reports = lyapunov_spectra(cocycle, paths, xs, n, frame_seeds=pseeds)
    rows = []
    records = []
    ok = True
    for i, (pseed, rep) in enumerate(zip(pseeds, reports)):
        # chain rule for determinants: the exponents sum to the walk's mean log |det J|
        total = sum(l * m for l, m in zip(rep.exponents, rep.multiplicities))
        if abs(total - rep.log_det_sum / n) > 1e-6:
            ok = False
        rows.append([i, pseed, rep.unstable_index]
                    + [float(v) for v in rep.raw_exponents])
        records.append(dict(rep.to_json_dict(), sample=i, seed=pseed))
    d = cocycle.dim
    header = ["sample", "omega_seed", "unstable_index"] + [f"exponent_{k}" for k in range(d)]
    summary = {
        "experiment": "spectrum",
        "samples": cfg.samples,
        "orbit_length": n,
        "records": records,
        "det_rate_consistent": ok,
    }
    mean_top = float(np.mean([r["exponents"][0] for r in records]))
    return rows, header, summary, ok, f"spectrum: top exponent mean {mean_top:.4f}", records


def _run_certify(cfg, cocycle, system):
    cert = certify_partial_hyperbolicity(
        cocycle, system, samples=max(cfg.samples, 10), n=cfg.certify_n, seed=cfg.seed
    )
    header = ["sample", "unstable_index", "gap", "expansion"]
    rows = [
        [r.get("sample"), r.get("unstable_index"), r.get("gap", float("nan")),
         r.get("expansion", float("nan"))]
        for r in cert.per_sample
    ]
    consistent = cert.verdict != "certified" or (
        cert.expansion_lower > 1.0 and cert.domination_ratio_log < 0.0
    )
    summary = dict(cert.to_json_dict(), experiment="certify")
    line = (
        f"certify: verdict {cert.verdict}, expansion {cert.expansion_lower:.4f}, "
        f"gap {cert.domination_ratio_log:.4f}"
    )
    records = [dict(r, verdict=cert.verdict) for r in cert.per_sample]
    return rows, header, summary, consistent, line, records


def _run_pressure(cfg, cocycle, system):
    pot = _resolve_potential(cfg.potential, cocycle, system, cfg.seed)
    est = pressure_estimates(cocycle, system, [pot], cfg.grid_spec(), cfg.seed)[0]
    header, rows = est.csv_rows()
    summary = dict(est.to_json_dict(), experiment="pressure")
    ok = est.bracket_ok
    line = f"pressure[{pot.label}]: value {est.value:.4f} +- {est.slope_ci:.4f}"
    return rows, header, summary, ok, line, None


def _run_entropy(cfg, cocycle, system):
    est = topological_entropy(cocycle, system, cfg.grid_spec(), cfg.seed)
    header, rows = est.csv_rows()
    summary = dict(est.to_json_dict(), experiment="entropy")
    ok = est.bracket_ok and est.value >= -est.slope_ci
    line = f"entropy: value {est.value:.4f} +- {est.slope_ci:.4f} (spread {est.spread:.3f})"
    return rows, header, summary, ok, line, None


def _run_smb(cfg, cocycle, system):
    from .measures import build_partition_pair, smb_trace

    sampler = _resolve_measure(cfg.measures[0], cocycle, system)
    if sampler.leaf_conditional == "mixed":
        raise ConfigError(
            f"key 'measures': smb needs one leaf conditional, not the mix {cfg.measures[0]!r}"
        )
    pair = build_partition_pair(system, cfg.grid_k, cfg.seed, cocycle.dim)
    est = smb_trace(
        cocycle, sampler, pair, cfg.n_grid, cfg.entropy_samples, cfg.seed, delta=cfg.delta
    )
    header = ["sample_id", "n", "information_value"]
    rows = []
    for si, row in enumerate(est.traces):
        for n, v in zip(est.n_grid, row):
            rows.append([si, n, float(v * n)])
    summary = dict(est.to_json_dict(), experiment="smb")
    ok = est.value >= -est.ci
    line = (
        f"smb[{sampler.label}]: terminal trace {est.value:.4f}, "
        f"sd {est.trace_sd[0]:.4f}->{est.trace_sd[-1]:.4f}"
    )
    return rows, header, summary, ok, line, None


def _run_gibbs(cfg, cocycle, system):
    from .equilibria import gibbs_defect

    sampler = _resolve_measure(cfg.measures[0], cocycle, system)
    gd = gibbs_defect(
        cocycle,
        system,
        sampler,
        cfg.grid_spec(),
        cfg.seed,
        entropy_samples=cfg.entropy_samples,
        birkhoff_n=cfg.birkhoff_n,
        birkhoff_samples=cfg.birkhoff_samples,
    )
    header = ["measure_id", "pressure_at_phiu", "pesin_gap", "entropy", "integral"]
    rows = [[gd.measure_id, gd.pressure_at_phiu, gd.pesin_gap, gd.entropy,
             gd.integral_minus_phiu]]
    summary = dict(gd.to_json_dict(), experiment="gibbs")
    combined = gd.pressure_ci + gd.entropy_ci + gd.integral_ci
    ok = gd.pesin_gap >= -combined
    line = f"gibbs[{gd.measure_id}]: P(phi-u) {gd.pressure_at_phiu:+.4f}, gap {gd.pesin_gap:+.4f}"
    return rows, header, summary, ok, line, None


def _run_vp_scan(cfg, cocycle, system):
    from .equilibria import equilibrium_scan

    # the scanned potential is the dual family's member of its spec, if there is one
    duals = [_resolve_potential(p, cocycle, system, cfg.seed) for p in cfg.potentials]
    phi = (duals[cfg.potentials.index(cfg.potential)] if cfg.potential in cfg.potentials
           else _resolve_potential(cfg.potential, cocycle, system, cfg.seed))
    report = equilibrium_scan(
        cocycle,
        system,
        phi,
        [_resolve_measure(m, cocycle, system) for m in cfg.measures],
        cfg.grid_spec(),
        cfg.seed,
        entropy_samples=cfg.entropy_samples,
        birkhoff_n=cfg.birkhoff_n,
        birkhoff_samples=cfg.birkhoff_samples,
        potential_family=duals,
    )
    header, rows = report.csv_rows()
    summary = dict(report.to_json_dict(), experiment="vp-scan")
    ok = all(c.defect >= -c.combined_ci for c in report.candidates)
    line = f"vp-scan[{phi.label}]: best {report.best}, dual gap {report.dual_gap:+.4f}"
    return rows, header, summary, ok, line, None


def _run_property_suite(cfg, cocycle, system):
    specs = cfg.potentials or ("zero", "const:0.3", "cos:0.4:1,0", "sin:0.4:1,0", "const:-0.2")
    family = [_resolve_potential(p, cocycle, system, cfg.seed) for p in specs]
    report = pressure_property_suite(cocycle, system, family, cfg.grid_spec(), cfg.seed)
    header = ["check", "passed", "slack", "detail"]
    rows = [[c.name, int(c.passed), c.slack, c.detail] for c in report.checks]
    summary = dict(report.to_json_dict(), experiment="property-suite")
    line = "property-suite: " + ("all passed" if report.all_passed else "FAILURES")
    return rows, header, summary, report.all_passed, line, None


def _run_info_identities(cfg, cocycle=None, system=None):
    from .measures import information_identity_battery

    worst = information_identity_battery(n_spaces=cfg.spaces, seed=cfg.seed)
    header = ["identity", "worst_abs_error"]
    rows = [[k, v] for k, v in sorted(worst.items())]
    ok = all(v <= 1e-12 for v in worst.values())
    summary = {
        "experiment": "info-identities",
        "spaces": cfg.spaces,
        "worst": worst,
        "all_within_1e-12": ok,
    }
    line = f"info-identities: worst error {max(worst.values()):.3e} over {cfg.spaces} spaces"
    return rows, header, summary, ok, line, None


# each runner returns (rows, header, summary, ok, log line, .jsonl records or None)
_RUNNERS = {
    "spectrum": _run_spectrum,
    "certify": _run_certify,
    "pressure": _run_pressure,
    "entropy": _run_entropy,
    "smb": _run_smb,
    "gibbs": _run_gibbs,
    "vp-scan": _run_vp_scan,
    "property-suite": _run_property_suite,
    "info-identities": _run_info_identities,
}


def _import_late_layers(cfg: ExperimentConfig):
    """Import the layers beyond the four of `import uthermo` that cfg's run reads."""
    if cfg.experiment in ("gibbs", "vp-scan") or "phiu" in (cfg.potential, *cfg.potentials):
        import_module(".equilibria", __package__)  # which imports measures
    elif cfg.experiment in ("smb", "info-identities"):
        import_module(".measures", __package__)


def run(cfg: ExperimentConfig) -> int:
    """Execute one configured experiment and write its artifacts."""
    try:
        cfg.validate()
        _import_late_layers(cfg)
        cocycle = system = None
        if cfg.experiment != "info-identities":
            system_path = Path(cfg.system)
            if not system_path.is_absolute():
                system_path = cfg.config_dir / system_path
            system, cocycle = load_system(system_path)
    except (ConfigError, InvalidSystem, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        rows, header, summary, ok, line, json_lines = _RUNNERS[cfg.experiment](
            cfg, cocycle, system
        )
    except (ConfigError, InvalidSystem) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EstimatorError as exc:
        print(f"estimator error: {exc}", file=sys.stderr)
        return 3
    summary["invariants_ok"] = bool(ok)
    emit_report(cfg.out, cfg.experiment, cfg.seed, header, rows, summary, [line],
                json_lines=json_lines)
    print(line)
    if not ok:
        print("invariant failure", file=sys.stderr)
        return 1
    return 0


def _apply_overrides(cfg: ExperimentConfig, args, keys=_OVERRIDES) -> ExperimentConfig:
    """Overlay UTHERMO_* environment values, then command-line flags, on cfg's keys."""
    for key in keys:
        env_key = ENV_PREFIX + key.upper()
        env_val = os.environ.get(env_key)
        if env_val is not None:
            try:
                setattr(cfg, key, _KEYS[key][1](env_val))
            except ValueError:
                raise ConfigError(f"{env_key} has a malformed value {env_val!r}") from None
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            setattr(cfg, key, flag_val)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uthermo",
        description="Run leafwise entropy/pressure experiments from a config file.",
    )
    parser.add_argument("--config", required=True,
                        help="experiment config file, or a directory with --experiment all")
    parser.add_argument("--experiment", default=None,
                        help=f"one of {', '.join(EXPERIMENTS)}, or 'all' for a config directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    experiment = args.experiment or os.environ.get(ENV_PREFIX + "EXPERIMENT")
    if experiment == "all":
        if not config_path.is_dir():
            print("config error: --experiment all needs --config <directory>", file=sys.stderr)
            return 2
        status = 0
        for cfg_file in sorted(config_path.glob("*.cfg")):
            try:
                # each config keeps its own experiment
                cfg = _apply_overrides(load_config(cfg_file), args, _OVERRIDES[1:])
            except ConfigError as exc:
                print(f"config error in {cfg_file.name}: {exc}", file=sys.stderr)
                return 2
            # one directory per config: two configs may share an experiment and seed
            cfg.out = str(Path(cfg.out) / cfg_file.stem)
            print(f"== {cfg_file.name} ({cfg.experiment})")
            status = max(status, run(cfg))
        return status

    try:
        cfg = _apply_overrides(load_config(config_path), args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
