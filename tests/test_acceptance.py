"""Acceptance suite: one test per criterion, each printing a verdict line.

Statistical criteria run at documented frozen seeds; every tolerance is
stated inline.  Run with `pytest -s tests/test_acceptance.py` to see the
verdict lines.
"""

import time

import numpy as np

from roughmfg import cli
from roughmfg import controlled as ct
from roughmfg import measureflow as mf
from roughmfg import mfg
from roughmfg import models
from roughmfg import randomize as rz
from roughmfg import roughpath as rp
from roughmfg import rsde
from roughmfg.rng import substream


def verdict(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def reference_solution(particles=10_000, n=128, seed=2):
    """The reference interaction model under the frozen documented seed."""
    model = models.make_model("tanh-interaction")
    grid = rp.TimeGrid(1.0, n)
    dw = substream(seed, "acc", "bm", n).normal(
        0.0, np.sqrt(grid.dt), size=(n, 1)
    )
    p = rp.ito_lift(dw, grid)
    cloud = substream(seed, "acc", "cloud").normal(size=(64, 1))
    flow = mf.constant_flow(grid, cloud, k=1)
    policy = mfg.RelaxedPolicy.constant(model.actions, n, action_index=1)
    sol = rsde.solve(
        model, flow, p, policy, rsde.InitialLaw("normal", 0.0, 0.5),
        particles, seed,
    )
    return model, p, flow, sol


def test_criterion_1_algebraic_lift_suite():
    start = time.perf_counter()
    rng = substream(0, "acc1")
    worst_chen = worst_sym = 0.0
    for case in range(200):
        k = int(rng.integers(1, 4))
        n = int(round(np.exp(rng.uniform(np.log(8), np.log(256)))))
        grid = rp.TimeGrid(1.0, n)
        if case < 100:
            p = rp.ito_lift(
                rng.normal(0.0, np.sqrt(grid.dt), size=(n, k)), grid
            )
        else:
            p = rp.smooth_lift(rng.normal(size=(n + 1, k)), grid)
            scale = 1.0 + np.abs(p.increments()).max() ** 2
            worst_sym = max(worst_sym, rp.symmetry_defect(p) / scale)
        scale = 1.0 + np.abs(p.increments()).max() ** 2
        worst_chen = max(worst_chen, rp.chen_defect(p) / scale)
    elapsed = time.perf_counter() - start
    ok = worst_chen <= 1e-12 and worst_sym <= 1e-13 and elapsed < 10.0
    verdict(
        1,
        ok,
        f"chen defect <= {worst_chen:.2e} (tol 1e-12 x scale), geometric "
        f"symmetry <= {worst_sym:.2e} (round-off), {elapsed:.1f}s < 10s",
    )


def test_criterion_2_ito_reduction_bitwise():
    start = time.perf_counter()
    rng = substream(0, "acc2")
    all_equal = True
    for case in range(20):
        sigma = float(rng.uniform(0.1, 1.0))
        coupling = float(rng.uniform(-0.5, 0.5))
        model = models.make_model(
            "lq", sigma=sigma, mean_coupling=coupling, sigma0=None,
            cost_u=float(rng.uniform(0.1, 2.0)),
        )
        n = int(rng.integers(8, 48))
        grid = rp.TimeGrid(float(rng.uniform(0.5, 2.0)), n)
        lift = rp.ito_lift(
            rng.normal(0.0, np.sqrt(grid.dt), size=(n, 1)), grid
        )
        cloud = rng.normal(size=(16, 1))
        flow = mf.constant_flow(grid, cloud, k=1)
        a_idx = int(rng.integers(0, model.n_actions))
        policy = mfg.RelaxedPolicy.constant(model.actions, n, action_index=a_idx)
        particles, seed = 32, 100 + case
        init = rsde.InitialLaw("normal", float(rng.uniform(-1, 1)), 0.5)
        sol = rsde.solve(model, flow, lift, policy, init, particles, seed)
        # independent reference: plain Euler-Maruyama on the same draws
        x = rsde.draw_initial(seed, init, particles, 1)
        dw = rsde.draw_wiener(seed, particles, n, 1, grid.dt)
        path = [x.copy()]
        for step in range(n):
            w = policy.mixture(step, x)
            drift = np.zeros_like(x)
            drift += w[:, a_idx][:, None] * model.b(
                grid.nodes[step], x, cloud, model.actions[a_idx]
            )
            nxt = x + drift * (grid.nodes[step + 1] - grid.nodes[step])
            nxt = nxt + np.einsum(
                "pdl,pl->pd", model.sigma(grid.nodes[step], x, cloud),
                dw[:, step],
            )
            path.append(nxt.copy())
            x = nxt
        if not np.array_equal(sol.ensemble.Z, np.stack(path, axis=1)):
            all_equal = False
    elapsed = time.perf_counter() - start
    ok = all_equal and elapsed < 10.0
    verdict(2, ok, f"20 random models bitwise equal to the Euler-Maruyama "
                   f"reference, {elapsed:.1f}s < 10s")


def test_criterion_3_rough_ode_oracle():
    start = time.perf_counter()
    a = 0.7
    model = models.make_model("lq", actions=(0.0,), sigma=0.0, mean_coupling=0.0)
    model.sigma0 = lambda t, x, mu: a * np.asarray(x)[..., None]
    model.grad_sigma0 = lambda t, x, mu: np.full(
        np.asarray(x).shape[:-1] + (1, 1, 1), a
    )
    errs, sizes = [], [32, 64, 128, 256]
    for n in sizes:
        grid = rp.TimeGrid(1.0, n)
        b = np.sin(2.0 * grid.nodes)
        lift = rp.smooth_lift(b, grid)
        flow = mf.constant_flow(grid, np.zeros((8, 1)), k=1)
        policy = mfg.RelaxedPolicy.constant(model.actions, n, action_index=0)
        sol = rsde.solve(
            model, flow, lift, policy, rsde.InitialLaw("constant", 1.0), 4, 0
        )
        errs.append(abs(sol.ensemble.Z[0, -1, 0] - np.exp(a * b[-1])))
    slope = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    elapsed = time.perf_counter() - start
    ok = slope >= 0.9 and elapsed < 30.0
    verdict(3, ok, f"strong-error slope {slope:.2f} >= 0.9 against the "
                   f"exponential oracle, {elapsed:.1f}s < 30s")


def test_criterion_4_martingale_diagnostics():
    start = time.perf_counter()
    _, _, _, sol = reference_solution(particles=10_000, n=128, seed=2)
    diag = rsde.martingale_diagnostics(sol, level=0.01)
    const = [e for e in diag.per_phi if e.name == "constant"][0]
    exact_ok = const.exact_zero and all(t == 0.0 for t in const.residual_tstats)
    elapsed = time.perf_counter() - start
    ok = diag.all_pass and exact_ok and not diag.low_power and elapsed < 120.0
    worst_qv = max(abs(e.qv_tstat) for e in diag.per_phi)
    worst_cross = max(abs(c[2]) for c in diag.cross)
    verdict(4, ok, f"battery passes at level 0.01 (worst |qv t| {worst_qv:.2f},"
                   f" worst |cross t| {worst_cross:.2f}), trivial case exactly"
                   f" zero, {elapsed:.1f}s < 120s")


def test_criterion_5_apriori_monitor():
    start = time.perf_counter()
    const, exponent = 20.0, 3.0  # frozen envelope
    combined = {}
    flagged = False
    for n in (64, 128, 256):
        _, _, _, sol = reference_solution(particles=64, n=n, seed=2)
        snap = rsde.apriori_monitor(
            sol, ct.IndexPair(), m=4, const=const, exponent=exponent,
            inner_samples=6,
        )
        combined[n] = snap.state_norm.combined
        flagged = flagged or snap.flagged
    ratio = max(combined.values()) / min(combined.values())
    elapsed = time.perf_counter() - start
    ok = ratio <= 2.0 and not flagged and elapsed < 120.0
    verdict(5, ok, f"norm estimates within factor {ratio:.2f} <= 2 across "
                   f"N=64..256, never above {const} x (1 v field)^{exponent}, "
                   f"{elapsed:.1f}s < 120s")


def test_criterion_6_fixed_point_trivial():
    start = time.perf_counter()
    model = models.make_model("no-interaction")
    grid = rp.TimeGrid(1.0, 32)
    lift = rp.ito_lift(
        substream(6, "acc6").normal(0.0, np.sqrt(grid.dt), size=(32, 1)), grid
    )
    res = mfg.fixed_point(
        model, lift, rsde.InitialLaw(), particles=256, seed=6,
        max_iters=5, tol_w2=1e-9, tol_exp=1e-2,
        settings=mfg.DpSettings(-4.0, 4.0, 61),
    )
    it1 = res.report.iterations[0]
    elapsed = time.perf_counter() - start
    ok = (
        res.report.converged
        and res.report.converged_at == 1
        and it1.w2_update == 0.0
        and it1.exploitability <= 2.0 * it1.exploitability_err
        and elapsed < 30.0
    )
    verdict(6, ok, f"measure-independent model converged at iteration 1 with "
                   f"bitwise-equal flows (w2 update {it1.w2_update}), "
                   f"exploitability {it1.exploitability:.2e} <= 2 x error bar, "
                   f"{elapsed:.1f}s < 30s")


def test_criterion_7_weak_coupling_equilibrium():
    start = time.perf_counter()
    model = models.make_model("lq")  # drift u + 0.1 * mean
    grid = rp.TimeGrid(1.0, 64)
    lift = rp.ito_lift(
        substream(11, "acc7", "bm").normal(0.0, np.sqrt(grid.dt), size=(64, 1)),
        grid,
    )
    res = mfg.fixed_point(
        model, lift, rsde.InitialLaw(), particles=1000, seed=11,
        max_iters=5, tol_w2=0.0, tol_exp=0.0,
        settings=mfg.DpSettings(-4.0, 4.0, 81),
        domain_bound=12.0, domain_epsilon=0.25,  # frozen domain parameters
        domain_inner=2, domain_windows=6, exploit_particles=2000,
    )
    dists = [it.w2_update for it in res.report.iterations]
    ratios = [
        b / a for a, b in zip(dists, dists[1:]) if a > 1e-14
    ]
    final = res.report.iterations[-1]
    members = all(it.domain_member for it in res.report.iterations)
    elapsed = time.perf_counter() - start
    ok = (
        len(dists) == 5
        and all(r < 0.5 for r in ratios)
        and final.exploitability < 1e-2 + final.exploitability_err
        and members
        and elapsed < 300.0
    )
    verdict(7, ok, f"update ratios {[f'{r:.3f}' for r in ratios]} all < 0.5, "
                   f"final exploitability {final.exploitability:.2e} < 1e-2 + "
                   f"error bar, domain member throughout (M=12, eps=0.25), "
                   f"{elapsed:.0f}s < 300s")


def _gaussian_model(sigma0):
    return models.make_model(
        "lq", actions=(0.0,), sigma=0.3, mean_coupling=0.0, sigma0=sigma0,
        cost_u=0.0, cost_x=0.0, cost_g=0.0,
    )


def test_criterion_8_randomization_bridge():
    start = time.perf_counter()
    details = []
    ok = True
    for sigma0 in (0.6, None):
        model = _gaussian_model(sigma0)
        grid = rp.TimeGrid(1.0, 64)
        policy = mfg.RelaxedPolicy.constant(model.actions, 64, action_index=0)
        report = rz.compare_pathwise_vs_randomized(
            model, policy, rsde.InitialLaw("normal", 0.0, 0.5), grid,
            particles=2000, samples=200, seed=7, test_subsample=400,
        )
        ok = ok and report.mean_ok and report.second_ok
        # energy test across 20 seed batches at reduced size
        batch_grid = rp.TimeGrid(1.0, 32)
        batch_policy = mfg.RelaxedPolicy.constant(model.actions, 32, action_index=0)
        hits = 0
        for batch in range(20):
            rep = rz.compare_pathwise_vs_randomized(
                model, batch_policy, rsde.InitialLaw("normal", 0.0, 0.5),
                batch_grid, particles=200, samples=24, seed=1000 + batch,
                test_subsample=250, n_perm=300,
            )
            hits += rep.energy_p >= 0.01
        ok = ok and hits >= 19
        details.append(
            f"sigma0={sigma0}: moment gaps {report.pooled_mean_gap:.3f}/"
            f"{report.pooled_second_gap:.3f} within 3 sigma, energy batches "
            f"{hits}/20"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    verdict(8, ok, "; ".join(details) + f", {elapsed:.0f}s < 600s")


def test_criterion_9_causality_audits():
    start = time.perf_counter()
    model = models.make_model("tanh-interaction")
    grid = rp.TimeGrid(1.0, 16)
    lift = rp.ito_lift(
        substream(9, "acc9").normal(0.0, np.sqrt(grid.dt), size=(16, 1)), grid
    )
    flow = mf.constant_flow(grid, substream(9, "acc9c").normal(size=(16, 1)), 1)

    def adversary(n, view, rng):
        return (view.path(n + 1)[:, 0] > 0).astype(int)

    rejected = False
    try:
        rsde.realize_from_measure(
            model, flow, lift,
            mfg.RelaxedPolicy.causal(model.actions, adversary),
            rsde.InitialLaw(), 8, 9,
        )
    except rsde.CausalityViolationError:
        rejected = True

    gmodel = _gaussian_model(0.7)
    gpolicy = mfg.RelaxedPolicy.constant(gmodel.actions, 16, action_index=0)
    a = rz.pathwise_terminals(
        gmodel, gpolicy, rsde.InitialLaw("normal", 0.0, 0.3), grid, 400, 12,
        seed=12, w_salt=0,
    )
    b = rz.pathwise_terminals(
        gmodel, gpolicy, rsde.InitialLaw("normal", 0.0, 0.3), grid, 400, 12,
        seed=12, w_salt=1,
    )
    se = np.hypot(
        a[..., 0].std(axis=1, ddof=1) / np.sqrt(400),
        b[..., 0].std(axis=1, ddof=1) / np.sqrt(400),
    )
    gaps = np.abs(a[..., 0].mean(axis=1) - b[..., 0].mean(axis=1))
    shuffle_ok = bool(np.all(gaps <= 4.0 * se)) and not np.array_equal(a, b)
    elapsed = time.perf_counter() - start
    ok = rejected and shuffle_ok and elapsed < 60.0
    verdict(9, ok, f"future-peeking policy rejected; W-seed shuffle leaves "
                   f"per-sample conditional means within 4 sigma "
                   f"(max z {float((gaps / se).max()):.2f}), {elapsed:.0f}s < 60s")


ACCEPTANCE_CONFIG = """\
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


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(ACCEPTANCE_CONFIG)
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(
            [
                "rsde", "solve", "--model", "tanh-interaction", "--grid", "16",
                "--particles", "128", "--seed", "3", "--rough", "sample",
                "--out", str(out / "rsde"),
            ]
        ) == 0
        outs.append(out)
    same = True
    compared = 0
    for rel in (
        "iterations.csv", "policy.csv", "flow_summary.csv", "report.json",
        "rsde/trajectory_summary.csv", "rsde/diagnostics.json",
    ):
        b1 = (outs[0] / rel).read_bytes()
        b2 = (outs[1] / rel).read_bytes()
        compared += 1
        if b1 != b2:
            same = False
    verdict(10, same, f"{compared} output files byte-identical across reruns "
                      f"with the same config and seed")
