import json
from pathlib import Path

import numpy as np
import pytest

from roughmfg import cli
from roughmfg import config as cfgmod
from roughmfg import models


MINIMAL = """\
[experiment]
task = mfg
seed = 5

[model]
name = no-interaction

[grid]
t = 1.0
n = 16

[policy]
lattice_lo = -4.0
lattice_hi = 4.0
lattice_nodes = 31

[fixedpoint]
particles = 64
max_iters = 4
tol_w2 = 1e-9
tol_exp = 1e-2
"""


def write_config(tmp_path, text=MINIMAL, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfig:
    def test_roundtrip_values(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        assert cfg.task == "mfg"
        assert cfg.seed == 5
        assert cfg.model_name == "no-interaction"
        assert cfg.steps == 16
        assert cfg.particles == 64

    def test_env_override(self, tmp_path):
        cfg = cfgmod.load_config(
            write_config(tmp_path),
            env={"ROUGHMFG_FIXEDPOINT__PARTICLES": "128"},
        )
        assert cfg.particles == 128

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[grid\nn = 4\n")
        with pytest.raises(cfgmod.ConfigError) as err:
            cfgmod.load_config(path)
        assert "line" in str(err.value)

    def test_index_pair_violation_names_constraint(self, tmp_path):
        text = MINIMAL + "\n[indices]\nbeta = 0.4\nbeta_p = 0.45\n"
        with pytest.raises(cfgmod.ConfigError) as err:
            cfgmod.load_config(write_config(tmp_path, text))
        assert "beta" in str(err.value)

    def test_validate_unknown_model_suggests(self, tmp_path):
        text = MINIMAL.replace("no-interaction", "no-interactoin")
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        issues = cfgmod.validate(cfg)
        assert issues and "no-interaction" in issues[0]

    def test_validate_clean_config_empty(self, tmp_path):
        cfg = cfgmod.load_config(write_config(tmp_path))
        assert cfgmod.validate(cfg) == []

    def test_misspelled_key_suggests(self, tmp_path):
        text = MINIMAL.replace("max_iters", "max_iter")
        with pytest.raises(cfgmod.ConfigError, match="did you mean 'fixedpoint.max_iters'"):
            cfgmod.load_config(write_config(tmp_path, text))

    def test_make_model_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="'mean_couplng'; did you mean 'mean_coupling'"):
            models.make_model("no-interaction", mean_couplng=0.2)
        assert models.make_model("lq", mean_coupling=0.3).params["mean_coupling"] == 0.3

    def test_config_hash_stable(self, tmp_path):
        a = cfgmod.load_config(write_config(tmp_path))
        b = cfgmod.load_config(write_config(tmp_path, name="other.ini"))
        assert a.config_hash() == b.config_hash()

    def test_build_rough_smooth(self, tmp_path):
        text = MINIMAL + "\n[rough]\nsource = smooth:sin\namplitude = 0.5\n"
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        p = cfgmod.build_rough(cfg, 1)
        assert p.bracket_mode == "geometric"
        assert abs(p.first_level).max() <= 0.5 + 1e-12


class TestCli:
    def test_list_models(self, capsys):
        assert cli.main(["list-models"]) == 0
        out = capsys.readouterr().out
        for name in ("lq", "no-interaction", "tanh-interaction"):
            assert name in out

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_exit_code(self, tmp_path, capsys):
        text = MINIMAL.replace("no-interaction", "nope")
        path = write_config(tmp_path, text)
        assert cli.main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("text, env, key", [
        (MINIMAL + "\n[fixedpont]\nparticles = 64\n", {}, "fixedpont"),
        (MINIMAL.replace("particles = 64", "partcles = 64"), {}, "fixedpoint.partcles"),
        (MINIMAL, {"ROUGHMFG_FIXEDPOINT__PARTCLES": "64"}, "fixedpoint.partcles"),
        (MINIMAL.replace("name = no-interaction",
                         "name = no-interaction\nmean_couplng = 0.2"), {}, "mean_couplng"),
    ], ids=["section", "file-key", "env-key", "model-param"])
    def test_unknown_input_is_validation_error(self, tmp_path, capsys, monkeypatch,
                                               command, text, env, key):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = [command, "--config", str(write_config(tmp_path, text))]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert key in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    def test_readme_config_validates(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = write_config(tmp_path, text)
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_run_minimal_converges(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["converged_at"] == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert report["manifest_hash"] == manifest["manifest_hash"]
        for name in ("iterations.csv", "policy.csv", "flow_summary.csv"):
            first = (out / name).read_text().splitlines()[0]
            assert first == f"# manifest {manifest['manifest_hash']}"

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("iterations.csv", "policy.csv", "flow_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1 == r2

    def test_rsde_solve_outputs(self, tmp_path):
        out = tmp_path / "rs"
        code = cli.main(
            [
                "rsde", "solve", "--model", "tanh-interaction", "--grid", "16",
                "--particles", "128", "--seed", "3", "--rough", "sample",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "trajectory_summary.csv").read_text().splitlines()
        assert lines[1] == "node,t,mean,std,min,max"
        assert len(lines) == 19  # manifest + header + 17 nodes
        diag = json.loads((out / "diagnostics.json").read_text())
        assert "martingale" in diag and "apriori" in diag

    def test_csv_cells_are_plain_floats(self, tmp_path):
        mfg_out, rsde_out = tmp_path / "mfg", tmp_path / "rs"
        path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path), "--out", str(mfg_out)]) == 0
        assert cli.main(
            ["rsde", "solve", "--model", "tanh-interaction", "--grid", "8",
             "--particles", "16", "--seed", "1", "--out", str(rsde_out)]
        ) == 0
        files = [mfg_out / name for name in
                 ("iterations.csv", "policy.csv", "flow_summary.csv")]
        files.append(rsde_out / "trajectory_summary.csv")
        for csv_path in files:
            rows = csv_path.read_text().splitlines()[2:]  # manifest, header
            assert rows
            for row in rows:
                for cell in row.split(","):
                    float(cell)

    def test_rsde_solve_from_rough_file(self, tmp_path):
        from roughmfg import roughpath as rpm
        from roughmfg.rng import substream

        grid = rpm.TimeGrid(1.0, 16)
        dw = substream(4, "cli", "lift").normal(0.0, np.sqrt(grid.dt), (16, 1))
        lift = rpm.ito_lift(dw, grid)
        lift_path = tmp_path / "lift.rpth"
        rpm.dump_path(lift, lift_path)
        out = tmp_path / "rsf"
        code = cli.main(
            [
                "rsde", "solve", "--model", "lq", "--grid", "16",
                "--particles", "64", "--seed", "1",
                "--rough", f"file:{lift_path}", "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "trajectory_summary.csv").exists()

    def test_rsde_solve_grid_mismatch_is_validation_error(self, tmp_path):
        from roughmfg import roughpath as rpm

        grid = rpm.TimeGrid(1.0, 8)
        lift = rpm.smooth_lift(np.zeros(9), grid)
        lift_path = tmp_path / "lift.rpth"
        rpm.dump_path(lift, lift_path)
        code = cli.main(
            [
                "rsde", "solve", "--model", "lq", "--grid", "16",
                "--particles", "16", "--seed", "1",
                "--rough", f"file:{lift_path}", "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_rsde_solve_rejects_bad_rough_containers(self, tmp_path, capsys):
        from roughmfg import roughpath as rpm

        grid = rpm.TimeGrid(1.0, 16)
        lift = rpm.smooth_lift(np.sin(grid.nodes), grid)
        good = tmp_path / "lift.rpth"
        rpm.dump_path(lift, good)
        data = good.read_bytes()
        # the dense pair array starts after the 25-byte header and B; entry
        # [3, 9] of the 17 x 17 (k = 1) array breaks Chen's relation
        at = 25 + 8 * 17 + 8 * (3 * 17 + 9)
        broken = bytearray(data)
        broken[at:at + 8] = np.float64(lift.second(3, 9)[0, 0] + 0.5).tobytes()
        cases = [(bytes(broken), "(3, 9)"), (data[:-16], "truncated")]
        for i, (payload, named) in enumerate(cases):
            path = tmp_path / f"bad{i}.rpth"
            path.write_bytes(payload)
            code = cli.main(
                [
                    "rsde", "solve", "--model", "lq", "--grid", "16",
                    "--particles", "16", "--seed", "1",
                    "--rough", f"file:{path}", "--out", str(tmp_path / f"o{i}"),
                ]
            )
            assert code == 2
            assert named in capsys.readouterr().err

    def test_randomize_compare_outputs(self, tmp_path):
        out = tmp_path / "rz"
        code = cli.main(
            [
                "randomize", "compare", "--model", "no-interaction",
                "--samples", "6", "--particles", "64", "--seed", "2",
                "--mode", "frozen-flow", "--out", str(out),
            ]
        )
        assert code == 0
        rep = json.loads((out / "bridge_report.json").read_text())
        assert len(rep["per_sample"]) == 6
        assert all("p_value" in v for v in rep["per_sample"])
        assert "pooled" in rep

    def test_strict_nonconvergence_exit_code(self, tmp_path):
        text = MINIMAL.replace("no-interaction", "lq") \
            .replace("max_iters = 4", "max_iters = 1") \
            .replace("tol_w2 = 1e-9", "tol_w2 = 1e-15") \
            .replace("tol_exp = 1e-2", "tol_exp = 1e-15") \
            .replace("name = lq", "name = lq\nmean_coupling = 1.5")
        path = write_config(tmp_path, text)
        out = tmp_path / "nc"
        code = cli.main(
            ["run", "--config", str(path), "--out", str(out), "--strict"]
        )
        assert code == 4
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False

    def test_cli_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        cli.main(["run", "--config", str(path), "--out", str(out1), "--seed", "9"])
        cli.main(["run", "--config", str(path), "--out", str(out2), "--seed", "10"])
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["seed"] == 9 and m2["seed"] == 10
        assert m1["manifest_hash"] != m2["manifest_hash"]
