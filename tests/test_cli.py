import json
import math
from pathlib import Path

import pytest

import oracles
from conftest import CONFIG_DIR
from uthermo import equilibria, measures, thermo
from uthermo.cli import emit_report, load_config, main, parse_config_text, ConfigError
from uthermo.oseledets import lyapunov_spectra


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

    def test_workers_flag_accepted(self, tmp_path, capsys):
        cfg = str(CONFIG_DIR / "cat_entropy.cfg")
        assert main(["--config", cfg, "--out", str(tmp_path / "plain")]) == 0
        assert "deprecated" not in capsys.readouterr().err
        assert main(["--config", cfg, "--out", str(tmp_path / "workers"), "--workers", "4"]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--workers is deprecated" in err
        for name in ("entropy_1.csv", "entropy_1.json"):
            assert ((tmp_path / "workers" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_workers_key_accepted_and_ignored(self, tmp_path, capsys):
        cfg = parse_config_text("system = cat.system\nexperiment = entropy\nworkers = 4\n",
                                tmp_path)
        assert "config key 'workers' is deprecated" in capsys.readouterr().err
        assert cfg == parse_config_text("system = cat.system\nexperiment = entropy\n", tmp_path)


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
