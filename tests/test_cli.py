import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import CONFIG_DIR
from uthermo import equilibria, load_system, measures, thermo
from uthermo.cli import (
    ConfigError, _resolve_measure, emit_report, load_config, main, parse_config_text,
)
from uthermo.oseledets import lyapunov_spectra


def _bundled_manifest() -> dict[str, str]:
    """Artifact path under the --experiment all output -> sha256, from the pinned
    manifest (sha256sum format)."""
    lines = (Path(__file__).parent / "bundled_artifacts.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfigParsing:
    def test_bundled_config_loads(self):
        cfg = load_config(CONFIG_DIR / "cat_entropy.cfg")
        assert cfg.experiment == "entropy"
        assert cfg.n_grid == tuple(range(8, 15))
        assert cfg.eps_grid == (0.02, 0.04)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_text("bogus = 1\n", tmp_path)

    def test_decreasing_eps_grid_names_key(self, tmp_path):
        cfg = parse_config_text(
            "system = cat.system\nexperiment = entropy\neps_grid = 0.04 0.02\n", tmp_path
        )
        with pytest.raises(ConfigError, match="eps_grid"):
            cfg.validate()

    def test_non_integer_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="samples"):
            parse_config_text("samples = two\n", tmp_path)


class TestRunner:
    def test_entropy_run_writes_expected_value(self, tmp_path):
        code = main([
            "--config", str(CONFIG_DIR / "cat_entropy.cfg"), "--out", str(tmp_path)
        ])
        assert code == 0
        summary = json.loads((tmp_path / "entropy_1.json").read_text())
        assert summary["value"] == pytest.approx(oracles.CAT_LOG, rel=0.05)
        assert summary["invariants_ok"] is True
        csv_lines = (tmp_path / "entropy_1.csv").read_text().splitlines()
        assert csv_lines[0] == "omega_seed,x_index,delta,n,epsilon,log_lower,log_upper,potential_id"
        assert len(csv_lines) > 1

    @pytest.mark.parametrize("seed", [2, 5, 10])
    def test_t3_entropy_sees_one_expanding_direction(self, seed, tmp_path, monkeypatch):
        # at these seeds a start-up transient in the exponent walk once lifted the
        # centre exponent over the margin, and the 2-d leaf packing then hung
        seen = []

        def checked_spectra(*args, **kwargs):
            reports = lyapunov_spectra(*args, **kwargs)
            # checked here, before a 2-d leaf could reach the packing
            assert [r.unstable_dim for r in reports] == [1] * len(reports)
            seen.extend(reports)
            return reports

        monkeypatch.setattr(thermo, "lyapunov_spectra", checked_spectra)
        code = main(["--config", str(CONFIG_DIR / "t3_entropy.cfg"), "--seed", str(seed),
                     "--out", str(tmp_path)])
        assert code == 0 and seen
        summary = json.loads((tmp_path / f"entropy_{seed}.json").read_text())
        assert summary["value"] == pytest.approx(oracles.CAT_LOG, rel=0.05)

    def test_t3_entropy_makes_no_cell_records(self, tmp_path, monkeypatch):
        # the CSV is written from the estimate's bracket tables: no CellRecord is
        # made and none is copied, though the stand-in base point's cells fill
        # every x_index
        made = []
        new, make = thermo.CellRecord.__new__, thermo.CellRecord._make

        def counted_new(cls, *args, **kwargs):
            made.append("new")
            return new(cls, *args, **kwargs)

        def counted_make(cls, iterable):  # _replace copies through _make
            made.append("make")
            return make(iterable)

        monkeypatch.setattr(thermo.CellRecord, "__new__", counted_new)
        monkeypatch.setattr(thermo.CellRecord, "_make", classmethod(counted_make))
        code = main(["--config", str(CONFIG_DIR / "t3_entropy.cfg"), "--out", str(tmp_path)])
        assert code == 0
        assert made == []
        rows = (tmp_path / "entropy_4.csv").read_text().splitlines()[1:]
        # 8 paths x 5^3 base points x 7 n x 2 eps
        assert len(rows) == 8 * 125 * 14
        assert len({tuple(r.split(",")[:2]) for r in rows}) == 8 * 125

    def test_bad_config_exits_2(self, tmp_path):
        bad = _write(
            tmp_path, "bad.cfg",
            "system = cat.system\nexperiment = entropy\neps_grid = 0.04 0.02\n",
        )
        (tmp_path / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2

    def test_info_identities_run(self, tmp_path):
        code = main([
            "--config", str(CONFIG_DIR / "info_identities.cfg"), "--out", str(tmp_path)
        ])
        assert code == 0
        summary = json.loads((tmp_path / "info_identities_3.json").read_text())
        assert summary["all_within_1e-12"] is True

    def test_vp_scan_estimates_each_entropy_once(self, tmp_path, monkeypatch):
        # haar is a candidate, the combo's first component and the dual check's
        # measure, all at the config's seed; every Bowen-ball estimate, a mixed
        # sampler's components included, goes through measures._bowen_ball_entropy
        estimated = []
        estimate = measures._bowen_ball_entropy

        def counted(cocycle, sampler, *args, **kwargs):
            estimated.append(sampler.label)
            return estimate(cocycle, sampler, *args, **kwargs)

        monkeypatch.setattr(measures, "_bowen_ball_entropy", counted)
        monkeypatch.setattr(equilibria, "_bowen_ball_entropy", counted)
        code = main(["--config", str(CONFIG_DIR / "cat_vp_scan.cfg"), "--out", str(tmp_path)])
        assert code == 0
        assert estimated.count("haar") == 1
        summary = json.loads((tmp_path / "vp_scan_13.json").read_text())
        assert [c["measure_id"] for c in summary["candidates"]] == [
            "haar", "atomic:0,0", "combo(0.5*haar+0.5*atomic:0,0)"]
        # the sharing keys on (sampler, seed): samplers resolved from one spec are
        # equal values with equal hashes
        system, cocycle = load_system(CONFIG_DIR / "cat.system")
        for spec in ("haar", "atomic:0,0", "combo:0.5*haar+0.5*atomic:0,0"):
            first, second = (_resolve_measure(spec, cocycle, system) for _ in range(2))
            assert first is not second
            assert first == second and hash(first) == hash(second)

    def test_vp_scan_integrates_each_potential_once(self, tmp_path, monkeypatch):
        # the scanned potential (zero) is also in the dual family, and the dual
        # check's measure is the scan's first candidate, haar: the dual check
        # reads that integral from the scan
        integrated = []
        integrate = equilibria.birkhoff_integral

        def counted(cocycle, potential, sampler, *args, **kwargs):
            integrated.append((potential.label, sampler.label))
            return integrate(cocycle, potential, sampler, *args, **kwargs)

        monkeypatch.setattr(equilibria, "birkhoff_integral", counted)
        code = main(["--config", str(CONFIG_DIR / "cat_vp_scan.cfg"), "--out", str(tmp_path)])
        assert code == 0
        assert len(integrated) == 7 and len(set(integrated)) == 7
        assert integrated.count(("zero", "haar")) == 1
        manifest = _bundled_manifest()
        for name in ("vp_scan_13.csv", "vp_scan_13.json"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == manifest[f"cat_vp_scan/{name}"], name

    def test_bundled_trig_pressure_meets_transfer_operator(self, tmp_path):
        # P(0.8 cos(2 pi (x + y))) on the cat map, exact from the transfer operator
        code = main(["--config", str(CONFIG_DIR / "cat_trig_pressure.cfg"), "--out",
                     str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "pressure_31.json").read_text())
        assert summary["potential"] == "cos:0.8:1,1"
        exact = oracles.transfer_operator_pressure(oracles.CAT_MATRIX, 0.8, (1, 1), fn="cos")
        assert abs(summary["value"] - exact) <= summary["slope_ci"]
        manifest = _bundled_manifest()
        for name in ("pressure_31.csv", "pressure_31.json"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == manifest[f"cat_trig_pressure/{name}"], name

    def test_vp_scan_reads_closed_orbit_integral(self, tmp_path):
        # atomic:0.2,0.4 is a period-2 orbit of the cat map, which a float walk
        # leaves after 30-40 steps; birkhoff_n is 64
        cfg = _write(tmp_path, "orbit.cfg", f"system = {CONFIG_DIR / 'cat.system'}\n"
                     "experiment = vp-scan\nseed = 1\npotential = cos:0.4:1,0\n"
                     "measures = haar atomic:0.2,0.4\nn_grid = 5:8\neps_grid = 0.04\n"
                     "base_grid = 2\nentropy_samples = 4\nbirkhoff_samples = 4\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "vp_scan_1.json").read_text())
        atom = summary["candidates"][1]
        assert atom["measure_id"] == "atomic:0.2,0.4"
        assert atom["integral"] == pytest.approx(0.4 * math.cos(0.4 * math.pi), abs=1e-12)
        assert atom["integral_ci"] == 0.0

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "--config", str(CONFIG_DIR / "cat_entropy.cfg"), "--out", str(out)
            ]) == 0
        assert (out_a / "entropy_1.csv").read_bytes() == (out_b / "entropy_1.csv").read_bytes()
        assert (out_a / "entropy_1.json").read_bytes() == (out_b / "entropy_1.json").read_bytes()

    def test_two_seeds_give_distinct_parseable_files(self, tmp_path):
        for seed in (1, 2):
            assert main([
                "--config", str(CONFIG_DIR / "cat_entropy.cfg"), "--out", str(tmp_path),
                "--seed", str(seed),
            ]) == 0
        for seed in (1, 2):
            json.loads((tmp_path / f"entropy_{seed}.json").read_text())
        assert (tmp_path / "entropy_1.csv").exists()
        assert (tmp_path / "entropy_2.csv").exists()

    def test_env_override_changes_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UTHERMO_SEED", "77")
        assert main([
            "--config", str(CONFIG_DIR / "cat_entropy.cfg"), "--out", str(tmp_path)
        ]) == 0
        assert (tmp_path / "entropy_77.json").exists()

    def test_empty_result_set_header_only(self, tmp_path):
        emit_report(tmp_path, "entropy", 9, ["a", "b"], [], {"experiment": "entropy"}, ["x"])
        assert (tmp_path / "entropy_9.csv").read_text() == "a,b\n"

    def test_cells_keep_their_type_and_sign(self, tmp_path):
        # each value object is formatted once, and equal values of other types or
        # signs keep their own text; a row may be any iterable
        zero = 0.0
        rows = [[1, 1.0, True, zero, -zero, None, "s", np.float64(0.1), np.int64(3)],
                (v for v in [1.0, 1, -0.0, zero, math.nan, 1 / 3, 2.0**70, 10**20, False])]
        emit_report(tmp_path, "entropy", 9, list("abcdefghi"), rows, {}, ["x"])
        assert (tmp_path / "entropy_9.csv").read_text().splitlines()[1:] == [
            "1,1,True,0,-0,None,s,0.1,3",
            "1,1,-0,0,nan,0.333333333333,1.18059162072e+21,100000000000000000000,False",
        ]

    def test_directory_run_all(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        (cfg_dir / "01_identities.cfg").write_text(
            "experiment = info-identities\nseed = 1\nspaces = 10\n"
        )
        (cfg_dir / "02_entropy.cfg").write_text(
            "system = cat.system\nexperiment = entropy\nseed = 1\nsamples = 1\n"
            "delta = 0.1\nn_grid = 8:11\neps_grid = 0.04\nbase_grid = 2\n"
        )
        out = tmp_path / "out"
        code = main(["--config", str(cfg_dir), "--experiment", "all", "--out", str(out)])
        assert code == 0
        assert (out / "01_identities" / "info_identities_1.json").exists()
        assert (out / "02_entropy" / "entropy_1.json").exists()

    def test_directory_run_all_flag_beats_env(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        (cfg_dir / "entropy.cfg").write_text(
            "system = cat.system\nexperiment = entropy\nseed = 1\nsamples = 1\n"
            "delta = 0.1\nn_grid = 8:11\neps_grid = 0.04\nbase_grid = 2\n"
        )
        monkeypatch.setenv("UTHERMO_SAMPLES", "3")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_dir), "--experiment", "all", "--samples", "2",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "entropy" / "entropy_1.json").read_text())
        assert report["omega_samples"] == 2

    @pytest.mark.parametrize("env, flags", [
        ("all", []),  # UTHERMO_EXPERIMENT=all selects the directory run
        ("spectrum", ["--experiment", "all"]),  # the explicit flag wins
    ])
    def test_directory_run_all_keeps_each_experiment(self, tmp_path, monkeypatch, env, flags):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        for name in ("cat.system", "cat_entropy.cfg"):
            (cfg_dir / name).write_text((CONFIG_DIR / name).read_text())
        monkeypatch.setenv("UTHERMO_EXPERIMENT", env)
        out = tmp_path / "out"
        assert main(["--config", str(cfg_dir), *flags, "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "cat_entropy").glob("*.json")) == ["entropy_1.json"]

    @pytest.mark.parametrize("experiment, key, val", [
        ("spectrum", "spectrum_n", "50"),
        ("entropy", "base_grid", "0"),
        ("entropy", "n_grid", "0:3"),
        ("entropy", "n_grid", "8"),
        ("gibbs", "n_grid", "8"),
        ("entropy", "eps_grid", "nan"),
        ("entropy", "eps_grid", "0.02 inf"),
        ("vp-scan", "measures", "haar"),
        ("certify", "certify_n", "0"),
        ("certify", "certify_n", "-3"),
        ("gibbs", "entropy_samples", "0"),
        ("smb", "entropy_samples", "0"),
        ("gibbs", "birkhoff_samples", "0"),
        ("gibbs", "birkhoff_n", "0"),
        ("info-identities", "spaces", "0"),
        ("info-identities", "spaces", "-2"),
    ])
    def test_out_of_range_key_exits_2(self, tmp_path, capsys, experiment, key, val):
        (tmp_path / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        bad = _write(tmp_path, "bad.cfg",
                     f"system = cat.system\nexperiment = {experiment}\n{key} = {val}\n")
        assert main(["--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, key, val, named", [
        ("entropy", "delta", "abc", "delta"),
        ("entropy", "n_grid", "a:b", "n_grid"),
        ("entropy", "n_grid", "5:", "n_grid"),
        ("entropy", "eps_grid", "0.02 x", "eps_grid"),
        ("pressure", "potential", "cos:abc", "cos:abc"),
        ("pressure", "potential", "cos:0.4:1", "cos:0.4:1"),
        ("smb", "measures", "atomic:x,0", "atomic:x,0"),
        ("smb", "measures", "combo:0.5haar", "combo:0.5haar"),
        ("pressure", "potential", "const:nan", "const:nan"),
        ("pressure", "potential", "const:inf", "const:inf"),
        ("pressure", "potential", "cos:nan:1,0", "cos:nan:1,0"),
        ("pressure", "potential", "cos:0.4:1,0:inf", "cos:0.4:1,0:inf"),
        ("vp-scan", "measures", "haar combo:1.5*haar+-0.5*atomic:0,0", "combo weights"),
        ("vp-scan", "measures", "haar combo:nan*haar+1*atomic:0,0", "combo weights"),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, experiment, key, val, named):
        (tmp_path / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        bad = _write(tmp_path, "bad.cfg",
                     f"system = cat.system\nexperiment = {experiment}\n{key} = {val}\n")
        assert main(["--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "map.0.c2 = abc",
        "seed = x1",
        "map.0.matrix = 2 1 1 one",
        "map.0.perturbation = 0.01:0,a:0",
    ])
    def test_malformed_system_number_exits_2(self, tmp_path, capsys, line):
        system = (CONFIG_DIR / "cat.system").read_text() + line + "\n"
        (tmp_path / "bad.system").write_text(system)
        cfg = _write(tmp_path, "bad.cfg", "system = bad.system\nexperiment = entropy\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and line.split(" = ")[0] in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("var", ["UTHERMO_SEED", "UTHERMO_SAMPLES"])
    def test_malformed_env_override_exits_2(self, tmp_path, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        assert main(["--config", str(CONFIG_DIR / "cat_entropy.cfg"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and var in err
        assert main(["--config", str(CONFIG_DIR), "--experiment", "all",
                     "--out", str(tmp_path)]) == 2
        assert var in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_smb_rejects_mixed_measure(self, tmp_path, capsys):
        (tmp_path / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        bad = _write(tmp_path, "mix.cfg",
                     "system = cat.system\nexperiment = smb\nseed = 11\n"
                     "measures = combo:0.5*haar+0.5*atomic:0,0\nn_grid = 2:6\n"
                     "entropy_samples = 4\n")
        assert main(["--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "measures" in err
        assert not (tmp_path / "out").exists()

    def test_workers_flag_rejected(self, tmp_path, capsys):
        cfg = str(CONFIG_DIR / "cat_entropy.cfg")
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--out", str(tmp_path / "workers"), "--workers", "4"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "workers").exists()

    def test_workers_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown config key 'workers'"):
            parse_config_text("system = cat.system\nexperiment = entropy\nworkers = 4\n",
                              tmp_path)
        (tmp_path / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        cfg = _write(tmp_path, "w.cfg", "system = cat.system\nexperiment = entropy\nworkers = 4\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExperimentSurfaces:
    def test_pressure_with_geometric_potential(self, tmp_path):
        cfg = _write(
            tmp_path, "p.cfg",
            "system = cat.system\nexperiment = pressure\nseed = 2\npotential = phiu\n"
            "delta = 0.1\nn_grid = 8:13\neps_grid = 0.02 0.04\nbase_grid = 2\n",
        )
        (tmp_path / "cat.system").write_text((CONFIG_DIR / "cat.system").read_text())
        assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "pressure_2.json").read_text())
        assert abs(summary["value"]) <= 0.05

    def test_full_bundled_suite_runs_clean(self, tmp_path):
        # every bundled config must execute with all invariants green
        code = main([
            "--config", str(CONFIG_DIR), "--experiment", "all", "--out", str(tmp_path)
        ])
        assert code == 0
        cfg_files = sorted(CONFIG_DIR.glob("*.cfg"))
        # one artifact set per config, in its own directory, none shared
        produced = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
        assert len(produced) == len(cfg_files)
        artifacts = []
        for cfg_file in cfg_files:
            cfg = load_config(cfg_file)
            name = f"{cfg.experiment.replace('-', '_')}_{cfg.seed}"
            assert Path(cfg_file.stem, f"{name}.json") in produced, cfg_file.name
            summary = json.loads((tmp_path / cfg_file.stem / f"{name}.json").read_text())
            assert summary["invariants_ok"] is True, cfg_file.name
            artifacts.append(tuple(
                (tmp_path / cfg_file.stem / f"{name}.{ext}").read_bytes()
                for ext in ("csv", "json")
            ))
        assert len(set(artifacts)) == len(cfg_files)
        # every CSV/JSON/JSONL artifact is byte-identical to the pinned manifest
        digests = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.rglob("*")
            if path.suffix in (".csv", ".json", ".jsonl")
        }
        assert digests == _bundled_manifest()

    def test_certify_artifacts(self, tmp_path):
        code = main([
            "--config", str(CONFIG_DIR / "t3_certify.cfg"), "--out", str(tmp_path)
        ])
        assert code == 0
        summary = json.loads((tmp_path / "certify_9.json").read_text())
        assert summary["verdict"] == "certified"
        assert summary["expansion_lower"] == pytest.approx(oracles.CAT_EIGENVALUE, abs=1e-6)

    def test_smb_trace_columns(self, tmp_path):
        code = main([
            "--config", str(CONFIG_DIR / "cat_smb.cfg"), "--out", str(tmp_path),
            "--samples", "1",
        ])
        assert code == 0
        lines = (tmp_path / "smb_11.csv").read_text().splitlines()
        assert lines[0] == "sample_id,n,information_value"

    def test_spectrum_run(self, tmp_path):
        code = main([
            "--config", str(CONFIG_DIR / "cat_spectrum.cfg"), "--out", str(tmp_path)
        ])
        assert code == 0
        summary = json.loads((tmp_path / "spectrum_5.json").read_text())
        top = summary["records"][0]["exponents"][0]
        assert top == pytest.approx(oracles.CAT_LOG, abs=2e-3)

    def test_smb_disk_below_cell_size_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "coarse.cfg",
                     f"system = {CONFIG_DIR / 'cat.system'}\nexperiment = smb\nseed = 1\n"
                     "measures = haar\ngrid_k = 4\ndelta = 0.1\nn_grid = 4:8\n"
                     "entropy_samples = 16\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "disk too small relative to grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sheared_plane_leaf_exits_3(self, tmp_path, capsys):
        # the sheared map's expanding bundle is 2-d: no graph-transform chart for it
        (tmp_path / "plane.system").write_text(
            "fiber.dim = 3\nmap.0.matrix = 1 1 0 1 2 1 0 1 2\n"
            "map.0.perturbation = 0.01:1,0,0:0.0\n")
        cfg = _write(tmp_path, "plane.cfg", "system = plane.system\nexperiment = entropy\n"
                     "seed = 1\nn_grid = 2:3\neps_grid = 0.04\nbase_grid = 1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("estimator error:") and "leaf dimension 1 only" in err

    def test_overflowing_leaf_growth_exits_3(self, tmp_path, capsys):
        # the cat map's leaf growth squares past float range from n = 370 on
        cfg = _write(tmp_path, "long.cfg",
                     f"system = {CONFIG_DIR / 'cat.system'}\nexperiment = entropy\nseed = 1\n"
                     "delta = 0.1\nn_grid = 360:380\neps_grid = 0.02 0.04\nbase_grid = 2\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("estimator error:") and "overflows float range at n = 370" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, potential, label", [
        ("pressure", "const:1e308", "const:1e+308"),
        ("pressure", "cos:1e308:1,0", "cos:1e308:1,0"),
        ("property-suite", "const:1e308", "const:1e+308"),
        ("vp-scan", "const:1e308", "const:1e+308"),
    ])
    def test_bracket_past_float_range_exits_3(self, tmp_path, capsys, experiment, potential,
                                              label):
        # S_n phi of 1e308 per step, and the cosine's Lipschitz term, overflow to inf:
        # no estimate is reported from such a bracket
        cfg = _write(tmp_path, "huge.cfg",
                     f"system = {CONFIG_DIR / 'cat.system'}\nexperiment = {experiment}\n"
                     f"seed = 1\npotential = {potential}\npotentials = zero {potential}\n"
                     "measures = haar atomic:0,0\nentropy_samples = 4\nbirkhoff_samples = 4\n"
                     "delta = 0.05\nn_grid = 3:5\neps_grid = 0.04\nbase_grid = 1\n")
        with np.errstate(over="ignore"):
            code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("estimator error:") and f"of {label} at n = " in err
        assert not (tmp_path / "out").exists()

    def test_smb_on_the_3_torus(self, tmp_path):
        cfg = _write(tmp_path, "t3.cfg",
                     f"system = {CONFIG_DIR / 't3_rot.system'}\nexperiment = smb\nseed = 1\n"
                     "measures = haar\nn_grid = 2:8\nentropy_samples = 4\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "smb_1.json").exists()


# every leaf of a rotation (or of the identity) is a point
_ROTATION = ("base.kind = deterministic-trivial\nbase.symbols = 1\nfiber.dim = 2\n"
             "map.0.matrix = 1 0 0 1\nmap.0.translation = 0.41421356 0.73205081\n")
_IDENTITY = ("base.kind = deterministic-trivial\nbase.symbols = 1\nfiber.dim = 2\n"
             "map.0.matrix = 1 0 0 1\n")


class TestTrivialLeaves:
    def _run(self, tmp_path, system_text, body):
        (tmp_path / "flat.system").write_text(system_text)
        cfg = _write(tmp_path, "flat.cfg", "system = flat.system\nseed = 1\n" + body)
        return main(["--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_smb_reads_a_point_mass(self, tmp_path):
        code = self._run(tmp_path, _ROTATION, "experiment = smb\nmeasures = haar\n"
                         "n_grid = 2:8\nentropy_samples = 4\n")
        assert code == 0
        summary = json.loads((tmp_path / "out" / "smb_1.json").read_text())
        assert summary["value"] == 0.0
        assert summary["ci"] == thermo.CI_FLOOR / 2.0

    def test_vp_scan_on_the_identity(self, tmp_path):
        code = self._run(tmp_path, _IDENTITY,
                         "experiment = vp-scan\npotential = zero\nmeasures = haar atomic:0,0\n"
                         "n_grid = 5:8\neps_grid = 0.04\nbase_grid = 2\n"
                         "entropy_samples = 4\nbirkhoff_samples = 4\n")
        assert code == 0
        summary = json.loads((tmp_path / "out" / "vp_scan_1.json").read_text())
        assert [c["h"] for c in summary["candidates"]] == [0.0, 0.0]
        assert summary["pressure"]["value"] == 0.0

    @pytest.mark.parametrize("experiment, extra", [
        ("pressure", "potential = phiu\n"),
        ("gibbs", "measures = haar\nentropy_samples = 4\nbirkhoff_samples = 4\n"),
    ])
    def test_undefined_geometric_potential_exits_3(self, tmp_path, capsys, experiment, extra):
        code = self._run(tmp_path, _ROTATION, f"experiment = {experiment}\n" + extra
                         + "n_grid = 5:8\neps_grid = 0.04\nbase_grid = 2\n")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("estimator error:") and "geometric potential" in err
        assert not (tmp_path / "out").exists()
