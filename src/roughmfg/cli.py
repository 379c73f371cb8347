"""Command-line experiment orchestration.

Subcommands: `run` (dispatch on the config's task), `validate`,
`list-models`, and the direct entry points `rsde solve`, `mfg solve`,
`randomize compare`.  Every output artifact embeds the manifest hash, and a
manifest JSON records the config hash, seed, package version and wall time.
Exit codes: 0 ok, 2 validation, 3 runtime (under --strict also a lattice
escape in an mfg best response, otherwise a warning), 4 under --strict: the
fixed point did not converge (mfg) or a bridge verdict failed (randomize;
rsde solve does not read --strict yet).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config as cfgmod
from . import measureflow as mf
from . import mfg
from . import models
from . import randomize as rz
from . import rsde
from .roughpath import InputError
from .vectorfield import ConfigurationError, NumericError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_NONCONVERGENCE = 4


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_json(path: Path, payload: dict, manifest_hash: str):
    payload = dict(payload)
    payload["manifest_hash"] = manifest_hash
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _cells(values) -> str:
    """CSV cells of floats, each the shortest repr that round-trips."""
    return ",".join(repr(float(v)) for v in values)


def _open_csv(path: Path, manifest_hash: str):
    fp = open(path, "w")
    fp.write(f"# manifest {manifest_hash}\n")
    return fp


def _write_manifest(out: Path, cfg, command: str, wall: float, **failure):
    payload = {
        "command": command,
        "config_hash": cfg.config_hash(),
        "manifest_hash": cfg.manifest_hash(),
        "seed": cfg.seed,
        "version": __version__,
        "wall_time_s": wall,
        **failure,
    }
    (out / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _default_policy(model, steps):
    idx = int(np.abs(model.actions).sum(axis=1).argmin())
    return mfg.RelaxedPolicy.constant(model.actions, steps, action_index=idx)


def _build_model(cfg):
    """Instantiate the model and spot-check the coefficient bundle on probes
    around the initial law (runtime monitor, not a proof of boundedness)."""
    model = models.make_model(cfg.model_name, **cfg.model_overrides)
    probes = (cfg.init.mean + 4.0 * cfg.init.spread * np.linspace(-1, 1, 9))[
        :, None
    ]
    cloud = np.full((8, model.d), cfg.init.mean)
    worst = model.spot_check(probes, cloud)
    if not np.isfinite(worst):
        raise NumericError(
            f"model {cfg.model_name!r} produced non-finite coefficients on probes"
        )
    return model


def _run_mfg(cfg, out: Path, strict: bool) -> int:
    model = _build_model(cfg)
    p = cfgmod.build_rough(cfg, model.k)
    result = mfg.fixed_point(
        model,
        p,
        cfg.init,
        particles=cfg.particles,
        seed=cfg.seed,
        lambda_mix=cfg.lambda_mix,
        max_iters=cfg.max_iters,
        tol_w2=cfg.tol_w2,
        tol_exp=cfg.tol_exp,
        settings=dataclasses.replace(cfg.dp, strict=True) if strict else cfg.dp,
        idx=cfg.indices,
        m=cfg.m,
        domain_bound=cfg.domain_bound,
        domain_epsilon=cfg.domain_epsilon,
        domain_inner=cfg.domain_inner,
        domain_windows=cfg.domain_windows,
    )
    h = cfg.manifest_hash()
    rep = result.report
    _write_json(
        out / "report.json",
        {
            "seed": cfg.seed,
            "model": cfg.model_name,
            "converged": rep.converged,
            "converged_at": rep.converged_at,
            "tol_w2": rep.tol_w2,
            "tol_exp": rep.tol_exp,
            "iterations": [_jsonable(it) for it in rep.iterations],
        },
        h,
    )
    with _open_csv(out / "iterations.csv", h) as fp:
        fp.write(
            "iter,w2_update,exploitability,exploitability_raw,"
            "exploitability_err,domain_member,domain_worst\n"
        )
        for it in rep.iterations:
            values = (it.w2_update, it.exploitability, it.exploitability_raw,
                      it.exploitability_err)
            fp.write(
                f"{it.index},{_cells(values)},{int(it.domain_member)},"
                f"{_cells([it.domain_worst])}\n"
            )
    pol = result.policy
    with _open_csv(out / "policy.csv", h) as fp:
        k = pol.n_actions
        fp.write(
            "step,node,x," + ",".join(f"p{a}" for a in range(k)) + "\n"
        )
        for n in range(pol.table.shape[0]):
            for i, x in enumerate(pol.lattice):
                fp.write(f"{n},{i},{_cells([x])},{_cells(pol.table[n, i])}\n")
    with _open_csv(out / "flow_summary.csv", h) as fp:
        fp.write("node,t,mean,std\n")
        nodes = result.flow.grid.nodes
        for n, t in enumerate(nodes):
            cloud = result.flow.cloud(n)[:, 0]
            values = (t, cloud.mean(), cloud.std(ddof=0))
            fp.write(f"{n},{_cells(values)}\n")
    if strict and not rep.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _run_rsde(cfg, out: Path, strict: bool) -> int:
    model = _build_model(cfg)
    grid = cfg.grid()
    p = cfgmod.build_rough(cfg, model.k)
    cloud = rsde.draw_initial(cfg.seed, cfg.init, cfg.rsde_particles, model.d)
    flow = mf.constant_flow(grid, cloud, model.k)
    policy = _default_policy(model, grid.steps)
    sol = rsde.solve(model, flow, p, policy, cfg.init, cfg.rsde_particles, cfg.seed)
    h = cfg.manifest_hash()
    with _open_csv(out / "trajectory_summary.csv", h) as fp:
        fp.write("node,t,mean,std,min,max\n")
        x = sol.ensemble.Z[..., 0]
        for n, t in enumerate(grid.nodes):
            col = x[:, n]
            values = (t, col.mean(), col.std(ddof=0), col.min(), col.max())
            fp.write(f"{n},{_cells(values)}\n")
    payload = {"seed": cfg.seed, "model": cfg.model_name}
    if model.d == 1 and model.l == 1:
        diag = rsde.martingale_diagnostics(sol)
        payload["martingale"] = {
            "level": diag.level,
            "particles": diag.particles,
            "low_power": diag.low_power,
            "all_pass": diag.all_pass,
            "per_phi": [_jsonable(e) for e in diag.per_phi],
            "cross": [_jsonable(c) for c in diag.cross],
        }
    if sol.cvf is not None:
        snap = rsde.apriori_monitor(sol, cfg.indices, m=cfg.m)
        payload["apriori"] = _jsonable(snap)
    _write_json(out / "diagnostics.json", payload, h)
    return EXIT_OK


def _run_randomize(cfg, out: Path, strict: bool) -> int:
    from scipy import special  # slow to import

    model = _build_model(cfg)
    grid = cfg.grid()
    policy = _default_policy(model, grid.steps)
    report = rz.compare_pathwise_vs_randomized(
        model,
        policy,
        cfg.init,
        grid,
        particles=cfg.rz_particles,
        samples=cfg.rz_samples,
        seed=cfg.seed,
        mode=cfg.rz_mode,
        inner_refine=cfg.rz_inner_refine,
    )
    h = cfg.manifest_hash()
    per_sample = []
    for v in report.per_sample:
        gap = float(abs(v.pathwise_mean[0] - v.joint_mean[0]))
        z = gap / v.combined_se if v.combined_se > 0 else 0.0
        per_sample.append(
            {
                "index": v.index,
                "pathwise_mean": v.pathwise_mean.tolist(),
                "joint_mean": v.joint_mean.tolist(),
                "combined_se": v.combined_se,
                "p_value": float(2.0 * special.ndtr(-z)),
                "within": v.within,
            }
        )
    _write_json(
        out / "bridge_report.json",
        {
            "seed": cfg.seed,
            "model": cfg.model_name,
            "mode": report.mode,
            "samples": report.samples,
            "particles": report.particles,
            "per_sample": per_sample,
            "sample_pass_rate": report.sample_pass_rate,
            "pooled": {
                "mean_gap": report.pooled_mean_gap,
                "mean_se": report.pooled_mean_se,
                "mean_ok": report.mean_ok,
                "second_gap": report.pooled_second_gap,
                "second_se": report.pooled_second_se,
                "second_ok": report.second_ok,
                "energy_stat": report.energy_stat,
                "energy_p": report.energy_p,
                "energy_ok": report.energy_ok,
            },
            "all_ok": report.all_ok,
        },
        h,
    )
    if strict and not report.all_ok:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


_TASKS = {"mfg": _run_mfg, "rsde": _run_rsde, "randomize": _run_randomize}


def _load_and_validate(args, task=None):
    """The config with the flags applied, and validate's issues.  A flag sets
    the field of its table key (--particles the task's particle count), and
    effective records it as cli.<flag>."""
    if getattr(args, "config", None):
        cfg = cfgmod.load_config(args.config)
    else:
        cfg = cfgmod.ExperimentConfig()
    if task is not None:
        cfg.task = task
    particles = {"rsde": "rsde_particles", "randomize": "rz_particles"}.get(task)
    for attr, name in [("model", "model_name"), ("grid", "steps"),
                       ("particles", particles), ("samples", "rz_samples"),
                       ("mode", "rz_mode"), ("rough", "rough_source")]:
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, name, value)
            cfg.effective[f"cli.{attr}"] = str(value)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
        cfg.effective["experiment.seed"] = str(args.seed)
    return cfg, cfgmod.validate(cfg)


def _execute(cfg, out_dir, strict, command) -> int:
    """Run the task and write manifest.json, also when the task fails with
    a validation or runtime error; a failed run's manifest adds "error"
    (exception type and message) and "exit_code"."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    failure = {}
    try:
        code = _TASKS[cfg.task](cfg, out, strict)
    except (InputError, cfgmod.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
        failure = {"error": f"{type(exc).__name__}: {exc}", "exit_code": code}
    except (rsde.DivergedError, NumericError, ConfigurationError,
            mfg.LatticeEscapeError, FloatingPointError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        code = EXIT_RUNTIME
        failure = {"error": f"{type(exc).__name__}: {exc}", "exit_code": code}
    _write_manifest(out, cfg, command, time.monotonic() - start, **failure)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughmfg",
        description="Mean-field game experiments with rough common noise",
    )
    parser.add_argument("--version", action="version", version=__version__)

    def common(sp):
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--strict", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the task named in the config")
    run_p.add_argument("--config", required=True)
    common(run_p)

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("--config", required=True)

    sub.add_parser("list-models", help="registry names and default parameters")

    rsde_p = sub.add_parser("rsde").add_subparsers(dest="sub", required=True)
    solve_p = rsde_p.add_parser("solve", help="simulate one model and report")
    solve_p.add_argument("--model", default=None)
    solve_p.add_argument("--grid", type=int, default=None, metavar="N")
    solve_p.add_argument("--particles", type=int, default=None)
    solve_p.add_argument("--rough", default=None, help="file:<path> | sample | smooth:<name>")
    solve_p.add_argument("--config", default=None)
    common(solve_p)

    mfg_p = sub.add_parser("mfg").add_subparsers(dest="sub", required=True)
    msolve_p = mfg_p.add_parser("solve", help="equilibrium fixed point")
    msolve_p.add_argument("--model", default=None)
    msolve_p.add_argument("--config", default=None)
    common(msolve_p)

    rz_p = sub.add_parser("randomize").add_subparsers(dest="sub", required=True)
    cmp_p = rz_p.add_parser("compare", help="pathwise vs two-driver comparison")
    cmp_p.add_argument("--model", default=None)
    cmp_p.add_argument("--samples", type=int, default=None)
    cmp_p.add_argument("--particles", type=int, default=None)
    cmp_p.add_argument(
        "--mode", choices=["frozen-flow", "per-sample-fixedpoint"], default=None
    )
    cmp_p.add_argument("--config", default=None)
    common(cmp_p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command

    if command == "list-models":
        for name, params in models.list_models().items():
            print(name)
            for key, value in sorted(params.items()):
                print(f"  {key} = {value}")
        return EXIT_OK

    task = None if command in ("run", "validate") else command
    try:
        cfg, issues = _load_and_validate(args, task)
    except cfgmod.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for issue in issues:
        print(f"issue: {issue}",
              file=sys.stdout if command == "validate" else sys.stderr)
    if issues:
        return EXIT_VALIDATION
    if command == "validate":
        print("config ok")
        return EXIT_OK
    label = command if command == "run" else f"{command} {args.sub}"
    return _execute(cfg, args.out, args.strict, label)


if __name__ == "__main__":
    sys.exit(main())
