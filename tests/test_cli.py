import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from roughmfg import cli
from roughmfg import config as cfgmod
from roughmfg import controlled as ct
from roughmfg import mfg
from roughmfg import models
from roughmfg import randomize as rz
from roughmfg import rsde
from shared_models import late_nan_model, t_branch_model


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


# a frozen initial flow is the conditional law only without mean coupling;
# at 1.5 the energy test rejects the bridge
RSDE = """\
[experiment]
task = rsde
seed = 3

[model]
name = tanh-interaction

[grid]
n = 16

[rsde]
particles = 32
"""


RANDOMIZE = """\
[experiment]
task = randomize
seed = 2

[model]
name = lq
mean_coupling = {coupling}

[grid]
t = 1.0
n = 16

[randomize]
samples = 8
particles = 64
"""


def domain_edges(cast, domain):
    """Values on a _SETTINGS domain's boundary and the nearest ones outside
    it: each member of a tuple and a near miss; 1 and 2 of the powers of two
    and 0 and 3; each comparison's bound (or, for a strict one, the nearest
    value above it) and the nearest value past it."""
    if isinstance(domain, tuple):
        return domain, [domain[0][:-1]]
    if domain == "a power of 2":
        return [1, 2], [0, 3]
    inside, outside = [], []
    for clause in domain.split(" and "):
        op, bound = clause.split()
        bound = cast(bound)
        step = 1 if cast is int else None
        below = bound - step if step else np.nextafter(bound, -np.inf)
        above = bound + step if step else np.nextafter(bound, np.inf)
        inside.append({">": above, ">=": bound, "<=": bound}[op])
        outside.append({">": bound, ">=": below, "<=": above}[op])
    return [cast(v) for v in inside], [cast(v) for v in outside]


def with_field(cfg, name, value):
    """cfg with the (dotted) _SETTINGS field set to value."""
    part, _, attr = name.rpartition(".")
    if part:
        value = dataclasses.replace(getattr(cfg, part), **{attr: value})
        attr = part
    return dataclasses.replace(cfg, **{attr: value})


def write_config(tmp_path, text=MINIMAL, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(argv):
    """Run the CLI in a fresh interpreter, so that an uncaught exception
    shows as a traceback on stderr and exit code 1."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys; from roughmfg.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))


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

    def test_env_variable_without_key_is_error(self, tmp_path):
        # ROUGHMFG_SEED is not ROUGHMFG_EXPERIMENT__SEED: it must not be
        # skipped, leaving seed 5 in force
        with pytest.raises(cfgmod.ConfigError, match="ROUGHMFG_SEED"):
            cfgmod.load_config(write_config(tmp_path), env={"ROUGHMFG_SEED": "9"})
        cfg = cfgmod.load_config(write_config(tmp_path),
                                 env={"ROUGHMFG_EXPERIMENT__SEED": "9", "OTHER_SEED": "1"})
        assert cfg.seed == 9

    @pytest.mark.parametrize("rough, unread", [
        ("source = sample\nseed_salt = 2", []),
        ("source = smooth:linear\namplitude = 0.5", []),
        ("source = smooth:sin\namplitude = 0.5\ncycles = 2", []),
        ("source = sample\namplitude = 3.0\ncycles = 2", ["amplitude", "cycles"]),
        ("source = smooth:linear\ncycles = 2\nseed_salt = 1", ["cycles", "seed_salt"]),
        ("source = smooth:sin\nseed_salt = 1", ["seed_salt"]),
    ])
    def test_rough_keys_the_source_does_not_read(self, tmp_path, rough, unread):
        text = MINIMAL + "\n[rough]\n" + rough + "\n"
        issues = cfgmod.validate(cfgmod.load_config(write_config(tmp_path, text)))
        source = rough.split("\n")[0].split(" = ")[1]
        assert issues == [f"[rough] {key} is not read by source {source!r}"
                          for key in unread]

    def test_every_field_is_set_by_one_row(self):
        parts = {"init": rsde.InitialLaw, "dp": mfg.DpSettings, "indices": ct.IndexPair}
        unset = {*parts, "effective", "model_overrides", "rough_params", "dp.strict"}
        fields = [f.name for f in dataclasses.fields(cfgmod.ExperimentConfig)]
        fields += [f"{part}.{f.name}" for part, cls in parts.items()
                   for f in dataclasses.fields(cls)]
        rows = [name for name, _, _ in cfgmod._SETTINGS.values()]
        assert sorted(rows) == sorted(set(fields) - unset)

    @pytest.mark.parametrize("key", [key for key, row in cfgmod._SETTINGS.items()
                                     if row[2] is not None])
    def test_domain_boundary(self, key):
        name, cast, domain = cfgmod._SETTINGS[key]
        inside, outside = domain_edges(cast, domain)
        cfg = cfgmod.ExperimentConfig()
        for value in inside:
            assert cfgmod.validate(with_field(cfg, name, value)) == [], value
        section, option = key.split(".")
        for value in outside:
            issues = cfgmod.validate(with_field(cfg, name, value))
            assert len(issues) == 1, value
            assert issues[0].startswith(f"[{section}] {option} must be ")
            assert issues[0].endswith(f", got {value!r}")

    def test_make_model_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="'mean_couplng'; did you mean 'mean_coupling'"):
            models.make_model("no-interaction", mean_couplng=0.2)
        assert models.make_model("lq", mean_coupling=0.3).params["mean_coupling"] == 0.3

    def test_config_hash_stable(self, tmp_path):
        a = cfgmod.load_config(write_config(tmp_path))
        b = cfgmod.load_config(write_config(tmp_path, name="other.ini"))
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("salt", [0, 3])
    def test_build_rough_sample_is_sample_lift(self, tmp_path, salt):
        text = MINIMAL + f"\n[rough]\nsource = sample\nseed_salt = {salt}\n"
        cfg = cfgmod.load_config(write_config(tmp_path, text))
        got = cfgmod.build_rough(cfg, 2)
        want = rz.sample_lift(cfg.grid(), 2, cfg.seed, salt)
        np.testing.assert_array_equal(got.first_level, want.first_level)
        np.testing.assert_array_equal(got.prefix, want.prefix)

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
        (MINIMAL, {"ROUGHMFG_SEED": "9"}, "ROUGHMFG_SEED"),
        (MINIMAL + "\n[rough]\nsource = sample\namplitude = 3.0\n", {}, "amplitude"),
        (MINIMAL + "\n[domain2]\n", {}, "[domain2]"),
    ], ids=["section", "file-key", "env-key", "model-param", "env-no-key",
            "unread-rough-key", "empty-section"])
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

    def test_acceptance_config_validates(self, tmp_path, capsys):
        # the config criterion 10 runs, as the acceptance suite writes it
        text = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()
        text = text.split('ACCEPTANCE_CONFIG = """\\\n', 1)[1].split('"""', 1)[0]
        assert "[experiment]" in text
        assert cli.main(["validate", "--config", str(write_config(tmp_path, text))]) == 0
        assert "config ok" in capsys.readouterr().out

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

    def test_unchecked_domain_is_recorded_as_unchecked(self, tmp_path):
        # without [domain] no check runs: report.json records null, with no
        # NaN token, and iterations.csv leaves both domain cells empty
        text = MINIMAL.replace("n = 16", "n = 8").replace("max_iters = 4",
                                                           "max_iters = 2")
        out = tmp_path / "out"
        path = write_config(tmp_path, text)
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=refuse)
        assert report["iterations"]
        for it in report["iterations"]:
            assert it["domain_member"] is None and it["domain_worst"] is None
        rows = (out / "iterations.csv").read_text().splitlines()
        assert rows[1].endswith(",domain_member,domain_worst")
        assert rows[2:] and all(row.endswith(",,") for row in rows[2:])

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
                cells = row.split(",")
                if csv_path.name == "iterations.csv":
                    # no [domain]: the unchecked domain's two cells are empty
                    assert cells[-2:] == ["", ""]
                    cells = cells[:-2]
                for cell in cells:
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

    @pytest.mark.parametrize("command", [["run"], ["mfg", "solve"]],
                             ids=["run", "mfg-solve"])
    @pytest.mark.parametrize("strict, code", [(True, 3), (False, 0)],
                             ids=["strict", "lenient"])
    def test_strict_lattice_escape_exit_code(self, tmp_path, capsys, command, strict,
                                             code):
        # a [-0.5, 0.5] lattice loses about 13 % of the quadrature mass
        narrow = MINIMAL.replace("lattice_lo = -4.0", "lattice_lo = -0.5") \
            .replace("lattice_hi = 4.0", "lattice_hi = 0.5")
        path = write_config(tmp_path, narrow)
        argv = [*command, "--config", str(path), "--out", str(tmp_path / "o")]
        if strict:
            assert cli.main(argv + ["--strict"]) == code
            assert "escaped the lattice" in capsys.readouterr().err
        else:
            with pytest.warns(UserWarning, match="escaped the lattice"):
                assert cli.main(argv) == code

    def test_failed_run_writes_manifest(self, tmp_path, capsys):
        narrow = MINIMAL.replace("lattice_lo = -4.0", "lattice_lo = -0.5") \
            .replace("lattice_hi = 4.0", "lattice_hi = 0.5")
        path = write_config(tmp_path, narrow)
        runs = [tmp_path / "lenient", tmp_path / "strict"]
        argv = ["mfg", "solve", "--config", str(path), "--out"]
        with pytest.warns(UserWarning, match="escaped the lattice"):
            assert cli.main(argv + [str(runs[0])]) == 0
        assert cli.main(argv + [str(runs[1]), "--strict"]) == 3
        ok, failed = [json.loads((out / "manifest.json").read_text()) for out in runs]
        assert sorted(ok) == ["command", "config_hash", "manifest_hash", "seed",
                              "version", "wall_time_s"]
        assert sorted(failed) == sorted([*ok, "error", "exit_code"])
        for key in ("command", "config_hash", "manifest_hash", "seed"):
            assert failed[key] == ok[key]
        assert failed["command"] == "mfg solve" and failed["seed"] == 5
        assert failed["exit_code"] == 3
        assert failed["error"].startswith("LatticeEscapeError: ")
        assert "escaped the lattice" in failed["error"]
        assert not (runs[1] / "report.json").exists()

    def test_non_finite_coefficient_names_its_node(self, tmp_path, capsys,
                                                   monkeypatch):
        # the rough coefficient is NaN from t = 0.5 on: node 32 of 64
        monkeypatch.setitem(models._REGISTRY, "late-nan", late_nan_model)
        out = tmp_path / "o"
        argv = ["rsde", "solve", "--model", "late-nan", "--grid", "64",
                "--particles", "8", "--out", str(out)]
        assert cli.main(argv) == 3
        message = "coefficient produced non-finite values at node 32"
        assert capsys.readouterr().err == f"runtime error: {message}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == f"NumericError: {message}"
        assert manifest["exit_code"] == 3

    def test_coefficient_reading_time_as_a_number_is_refused(self, tmp_path, capsys,
                                                              monkeypatch):
        # sigma0 branches on t >= 0.5: the solve's one-node calls pass, the
        # field norm's call on node groups is refused
        monkeypatch.setitem(models._REGISTRY, "t-branch", t_branch_model)
        out = tmp_path / "o"
        argv = ["rsde", "solve", "--model", "t-branch", "--grid", "16",
                "--particles", "8", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient sigma0 of model 't-branch' fails "
                              "on grouped (G, P, d) clouds")
        assert "broadcast an array t" in err and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith("InputError: ")
        assert manifest["exit_code"] == 2

    def test_overflowing_lattice_costs_are_a_runtime_error(self, tmp_path, capsys):
        # the acceptance config on a +-1e200 lattice: x**2 overflows in the
        # terminal cost at the outer nodes
        text = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()
        text = text.split('ACCEPTANCE_CONFIG = """\\\n', 1)[1].split('"""', 1)[0]
        text = text.replace("lattice_lo = -4.0", "lattice_lo = -1e200") \
            .replace("lattice_hi = 4.0", "lattice_hi = 1e200")
        out = tmp_path / "o"
        with np.errstate(over="ignore"):
            code = cli.main(["run", "--config", str(write_config(tmp_path, text)),
                             "--out", str(out)])
        assert code == 3
        message = "best response: non-finite terminal value at step 16, lattice node 0"
        err = capsys.readouterr().err
        assert err == f"runtime error: {message}\n" and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == f"NumericError: {message}"
        assert not (out / "report.json").exists()

    def test_strict_leaves_config_and_outputs(self, tmp_path):
        path = write_config(tmp_path)
        runs = [tmp_path / "lenient", tmp_path / "strict"]
        for out, flags in zip(runs, [[], ["--strict"]]):
            argv = ["mfg", "solve", "--config", str(path), "--out", str(out)]
            assert cli.main(argv + flags) == 0
        manifests = [json.loads((out / "manifest.json").read_text()) for out in runs]
        assert manifests[0]["manifest_hash"] == manifests[1]["manifest_hash"]
        reports = [(out / "report.json").read_text() for out in runs]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", [["run"], ["randomize", "compare"]],
                             ids=["run", "randomize-compare"])
    @pytest.mark.parametrize("coupling, strict, code", [
        (0.0, True, 0), (1.5, True, 4), (1.5, False, 0),
    ], ids=["agrees-strict", "rejected-strict", "rejected"])
    def test_strict_bridge_verdict_exit_code(self, tmp_path, command, coupling,
                                             strict, code):
        path = write_config(tmp_path, RANDOMIZE.format(coupling=coupling))
        out = tmp_path / "rz"
        argv = [*command, "--config", str(path), "--out", str(out)]
        assert cli.main(argv + ["--strict"] * strict) == code
        report = json.loads((out / "bridge_report.json").read_text())
        assert report["all_ok"] is (coupling == 0.0)

    def test_per_sample_p_value_is_normal_tail(self):
        z = np.concatenate([np.linspace(0.0, 40.0, 4001), [1e-300, 1e300, np.inf]])
        np.testing.assert_array_equal(special.ndtr(-z), stats.norm.sf(z))

    def test_import_loads_no_slow_scipy_module(self):
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys, roughmfg.cli; print(*(m for m in sys.modules if "
                 "m.startswith(('scipy.stats', 'scipy.optimize', 'scipy.spatial', "
                 "'scipy.special'))))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.stdout.split() == []

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

    def test_malformed_file_seed_fails_even_with_seed_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.replace("seed = 5", "seed = five"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--seed", "9"]) == 2
        assert "experiment.seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("particles", ["0", "-3"])
    def test_rsde_solve_rejects_too_few_particles(self, tmp_path, particles):
        done = run_cli(["rsde", "solve", "--model", "lq", "--grid", "8",
                        "--particles", particles, "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        # --particles sets the rsde task's count alone
        assert done.stderr == f"issue: [rsde] particles must be >= 1, got {particles}\n"

    def test_randomize_compare_rejects_zero_samples(self, tmp_path):
        done = run_cli(["randomize", "compare", "--model", "lq", "--samples", "0",
                        "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "[randomize] samples must be >= 2, got 0" in done.stderr

    @pytest.mark.parametrize("flag", ["--samples", "--particles"])
    def test_randomize_compare_refuses_one_sample_or_particle(self, tmp_path, flag):
        # a standard error needs two: one would write NaN tokens
        out = tmp_path / "o"
        done = run_cli(["randomize", "compare", "--model", "lq", flag, "1",
                        "--out", str(out)])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert f"[randomize] {flag[2:]} must be >= 2, got 1" in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("lattice_nodes = 31", "lattice_nodes = 0",
         "[policy] lattice_nodes must be >= 1, got 0"),
        ("lattice_nodes = 31", "lattice_nodes = 31\ngh_order = 0",
         "[policy] gh_order must be >= 1, got 0"),
        ("tol_exp = 1e-2", "tol_exp = 1e-2\n\n[domain]\nm_bound = 50.0\nmax_windows = 0",
         "[domain] max_windows must be >= 1, got 0"),
    ], ids=["lattice-nodes", "gh-order", "max-windows"])
    def test_mfg_setting_below_domain_is_validation_error(self, tmp_path, old, new,
                                                          message):
        path = write_config(tmp_path, MINIMAL.replace(old, new))
        done = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert message in done.stderr

    def test_zero_fixed_point_sweeps_is_validation_error(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.replace("max_iters = 4", "max_iters = 0"))
        done = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "[fixedpoint] max_iters must be >= 1, got 0" in done.stderr

    @pytest.mark.parametrize("text, message", [
        (MINIMAL + "\n[init]\nspread = -1\n", "issue: [init] spread must be >= 0, got -1.0"),
        (MINIMAL.replace("lattice_nodes = 31", "escape_tolerance = -1"),
         "issue: [policy] escape_tolerance must be >= 0, got -1.0"),
        (MINIMAL.replace("tol_w2 = 1e-9", "tol_w2 = -1"),
         "issue: [fixedpoint] tol_w2 must be > 0, got -1.0"),
        (MINIMAL + "\n[domain]\nm_bound = 50.0\nepsilon = -0.5\n",
         "issue: [domain] epsilon must be > 0, got -0.5"),
        (MINIMAL + "\n[domain]\nm_bound = 50.0\ninner_samples = 0\n",
         "issue: [domain] inner_samples must be >= 1, got 0"),
        (RANDOMIZE.format(coupling=0.0) + "inner_refine = 3\n",
         "issue: [randomize] inner_refine must be a power of 2, got 3"),
        (MINIMAL + "\n[init]\nkind = cauchy\n",
         "issue: [init] kind must be one of normal | constant | uniform, got 'cauchy'"),
        (MINIMAL + "\n[domain2]\n", "error: unknown config section [domain2]"),
        (MINIMAL.replace("lattice_lo = -4.0", "lattice_lo = 4.0"),
         "issue: [policy] lattice_lo must be < [policy] lattice_hi when"
         " lattice_nodes > 1, got 4.0 >= 4.0"),
        (MINIMAL + "\n[indices]\ngamma = 2.5\n",
         "issue: [indices] gamma must be <= 2, got 2.5"),
        (RSDE + "\n[indices]\nbeta = 0.8\nbeta_p = 0.7\nalpha = 0.9\n",
         "issue: [indices] alpha must be <= 0.5, got 0.9"),
    ], ids=["spread", "escape-tolerance", "tol-w2", "epsilon", "inner-samples",
            "inner-refine", "init-kind", "empty-section", "lattice-order", "gamma",
            "alpha"])
    def test_setting_outside_its_domain_is_refused_before_any_work(self, tmp_path,
                                                                   text, message):
        path = write_config(tmp_path, text)
        done = run_cli(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        assert done.stderr == message + "\n"
        assert not (tmp_path / "o").exists()

    def test_indices_gamma_reaches_the_field_norm(self, tmp_path):
        # gamma = 1.9 is admissible at the default beta and beta':
        # 0.4 <= 0.9 * 0.45; gamma = 2 is the default
        outs = {}
        for label, extra in [("none", ""), ("2.0", "gamma = 2.0\n"),
                             ("1.9", "gamma = 1.9\n")]:
            text = RSDE + ("\n[indices]\n" + extra if extra else "")
            out = tmp_path / label
            path = write_config(tmp_path, text, name=f"{label}.ini")
            assert cli.main(["rsde", "solve", "--config", str(path),
                             "--out", str(out)]) == 0
            outs[label] = out
        norm = {label: json.loads((out / "diagnostics.json").read_text())
                ["apriori"]["field_norm"] for label, out in outs.items()}
        assert norm["1.9"] != norm["2.0"]
        # the key at its default changes nothing but the config's hash
        for name in ("diagnostics.json", "trajectory_summary.csv"):
            files = []
            for label in ("none", "2.0"):
                h = json.loads((outs[label] / "manifest.json").read_text())["manifest_hash"]
                files.append((outs[label] / name).read_text().replace(h, "H"))
            assert files[0] == files[1]
