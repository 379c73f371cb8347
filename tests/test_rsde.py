import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import special, stats

from roughmfg import controlled as ct
from roughmfg import measureflow as mf
from roughmfg import mfg
from roughmfg import models
from roughmfg import randomize as rz
from roughmfg import roughpath as rp
from roughmfg import rsde
from roughmfg.rng import substream


def brownian_lift(seed, n=32, k=1, horizon=1.0):
    grid = rp.TimeGrid(horizon, n)
    dw = substream(seed, "rs", "bm").normal(0.0, np.sqrt(grid.dt), size=(n, k))
    return rp.ito_lift(dw, grid)


def still_flow(grid, particles=16, seed=0, k=1):
    cloud = substream(seed, "rs", "cloud").normal(size=(particles, 1))
    return mf.constant_flow(grid, cloud, k=k)


def delta_policy(model, steps, index=None):
    """Mass one on the action closest to zero (or at `index`)."""
    if index is None:
        index = int(np.abs(model.actions[:, 0]).argmin())
    return mfg.RelaxedPolicy.constant(model.actions, steps, action_index=index)


class TestSolve:
    def test_pure_rough_translation(self):
        # b = sigma = 0, constant rough loading: X_t = X_0 + c dB_{0,t}
        c = 0.8
        model = models.make_model(
            "lq", actions=(0.0,), sigma=0.0, mean_coupling=0.0, sigma0=c
        )
        p = brownian_lift(0, n=24)
        flow = still_flow(p.grid)
        sol = rsde.solve(
            model, flow, p, delta_policy(model, 24), rsde.InitialLaw("constant", 2.0),
            particles=8, seed=3,
        )
        x = sol.ensemble.Z[..., 0]
        for n in range(25):
            np.testing.assert_allclose(
                x[:, n], 2.0 + c * (p.first_level[n, 0] - p.first_level[0, 0]),
                atol=1e-12,
            )

    def test_ito_reduction_bitwise(self):
        # with no rough coefficient the recursion is plain Euler-Maruyama
        model = models.make_model("lq", sigma0=None, mean_coupling=0.0)
        p = brownian_lift(1, n=16)
        grid = p.grid
        flow = still_flow(grid)
        policy = delta_policy(model, 16)
        particles, seed = 12, 7
        sol = rsde.solve(model, flow, p, policy, rsde.InitialLaw(), particles, seed)

        x0 = rsde.draw_initial(seed, rsde.InitialLaw(), particles, 1)
        dw = rsde.draw_wiener(seed, particles, 16, 1, grid.dt)
        x = x0.copy()
        ref = [x0.copy()]
        cloud = flow.cloud(0)
        idx0 = int(np.abs(model.actions[:, 0]).argmin())
        for n in range(16):
            w = policy.mixture(n, x)
            drift = np.zeros_like(x)
            drift += w[:, idx0][:, None] * model.b(
                grid.nodes[n], x, cloud, model.actions[idx0]
            )
            nxt = x + drift * (grid.nodes[n + 1] - grid.nodes[n])
            nxt = nxt + np.einsum(
                "pdl,pl->pd", model.sigma(grid.nodes[n], x, cloud), dw[:, n]
            )
            ref.append(nxt.copy())
            x = nxt
        np.testing.assert_array_equal(sol.ensemble.Z, np.stack(ref, axis=1))

    def test_linear_rough_ode_oracle(self):
        # sigma0(x) = a x against a geometric smooth lift: X_T -> X0 exp(a B_T)
        a = 0.7
        model = models.make_model(
            "lq", actions=(0.0,), sigma=0.0, mean_coupling=0.0
        )
        model.sigma0 = lambda t, x, mu: a * np.asarray(x)[..., None]
        model.grad_sigma0 = lambda t, x, mu: np.full(
            np.asarray(x).shape[:-1] + (1, 1, 1), a
        )
        errs = []
        ns = [32, 64, 128, 256]
        for n in ns:
            grid = rp.TimeGrid(1.0, n)
            b = np.sin(2.0 * grid.nodes)
            p = rp.smooth_lift(b, grid)
            flow = still_flow(grid, seed=2)
            sol = rsde.solve(
                model, flow, p, delta_policy(model, n),
                rsde.InitialLaw("constant", 1.0), particles=4, seed=0,
            )
            errs.append(abs(sol.ensemble.Z[0, -1, 0] - np.exp(a * b[-1])))
        slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
        assert -slope >= 0.9

    def test_derivative_slot_recomputes_exactly(self):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(4, n=16)
        flow = still_flow(p.grid, seed=3)
        sol = rsde.solve(
            model, flow, p, delta_policy(model, 16), rsde.InitialLaw(), 16, 11
        )
        for n in range(17):
            np.testing.assert_allclose(
                sol.ensemble.Zp[:, n],
                sol.cvf.f(n, sol.ensemble.Z[:, n]),
                atol=1e-12,
            )

    def test_particle_reorder_invariance(self):
        # permuting initial draws and noise rows permutes the trajectories
        model = models.make_model("tanh-interaction")
        p = brownian_lift(5, n=12)
        flow = still_flow(p.grid, seed=4)
        particles, seed = 10, 13
        sol = rsde.solve(
            model, flow, p, delta_policy(model, 12), rsde.InitialLaw(), particles, seed
        )
        perm = substream(6, "rs", "perm").permutation(particles)
        x0 = rsde.draw_initial(seed, rsde.InitialLaw(), particles, 1)[perm]
        dw = rsde.draw_wiener(seed, particles, 12, 1, p.grid.dt)[perm]
        from roughmfg.rsde import _evolve

        x, _, _ = _evolve(
            model, flow, p, delta_policy(model, 12), x0, dw, sol.cvf, sol.correction
        )
        np.testing.assert_array_equal(x, sol.ensemble.Z[perm])

    def test_no_interaction_ignores_input_flow(self):
        # with measure-independent coefficients the solved law cannot depend
        # on the environment flow; shared seeds make it bitwise
        model = models.make_model("no-interaction")
        p = brownian_lift(30, n=12)
        flow_a = still_flow(p.grid, seed=31)
        flow_b = mf.MeasureFlow(
            p.grid, flow_a.Y + 5.0, flow_a.Yp.copy()
        )
        pol = delta_policy(model, 12)
        sol_a = rsde.solve(model, flow_a, p, pol, rsde.InitialLaw(), 16, 9)
        sol_b = rsde.solve(model, flow_b, p, pol, rsde.InitialLaw(), 16, 9)
        np.testing.assert_array_equal(sol_a.ensemble.Z, sol_b.ensemble.Z)
        a_flow = mf.from_solution(sol_a)
        b_flow = mf.from_solution(sol_b)
        np.testing.assert_array_equal(a_flow.Y, b_flow.Y)

    def test_blowup_guard(self):
        model = models.make_model("lq", sigma0=None, mean_coupling=0.0)
        model.b = lambda t, x, mu, u: 100.0 * x  # exponential blow-up
        p = brownian_lift(7, n=64)
        flow = still_flow(p.grid)
        with pytest.raises(rsde.DivergedError) as err:
            rsde.solve(
                model, flow, p, delta_policy(model, 64),
                rsde.InitialLaw("constant", 1.0), 4, 0,
            )
        assert err.value.step >= 0

    def test_nan_drift_reaches_blowup_guard(self):
        # NaN compares false against the threshold; the guard must still
        # stop at the first NaN step and name the first NaN particle
        model = models.make_model("tanh-interaction")
        model.b = lambda t, x, mu, u: np.zeros_like(np.asarray(x, dtype=float))
        p = brownian_lift(3, n=8)
        flow = still_flow(p.grid)
        policy = delta_policy(model, 8)
        clean = rsde.solve(model, flow, p, policy, rsde.InitialLaw(), 16, 5)
        model.b = lambda t, x, mu, u: (
            np.where(np.asarray(x) > 0.0, np.nan, 0.0)
            if t > 0.5 else np.zeros_like(np.asarray(x, dtype=float))
        )
        with pytest.raises(rsde.DivergedError) as err:
            rsde.solve(model, flow, p, policy, rsde.InitialLaw(), 16, 5)
        assert err.value.step == 5  # first node past t = 0.5
        assert err.value.particle == int(np.argmax(clean.ensemble.Z[:, 5, 0] > 0.0))
        assert "step 5" in str(err.value)

    def test_nan_drift_reaches_joint_blowup_guard(self):
        model = models.make_model("tanh-interaction")
        model.b = lambda t, x, mu, u: np.full(
            np.shape(x), np.nan if t > 0.5 else 0.0
        )
        grid = rp.TimeGrid(1.0, 8)
        with pytest.raises(rsde.DivergedError) as err:
            rz.joint_simulate(model, delta_policy(model, 8), rsde.InitialLaw(),
                              grid, 8, 2, 5)
        assert (err.value.step, err.value.particle) == (5, 0)

    def test_refinement_consistency_slope(self):
        # grand coupling: bridge-refined W and lift change the terminal mean
        # at rate about 1/sqrt(N); slope frozen from the documented seed
        model = models.make_model("tanh-interaction")
        seed = 21
        n0 = 32
        base_grid = rp.TimeGrid(1.0, n0)
        dw = rsde.draw_wiener(seed, 256, n0, 1, base_grid.dt)
        db = substream(seed, "rs", "commonB").normal(
            0.0, np.sqrt(base_grid.dt), size=(n0, 1)
        )
        means = []
        ns = []
        level_dt = base_grid.dt
        for level in range(4):
            n = n0 * 2**level
            grid = rp.TimeGrid(1.0, n)
            p = rp.ito_lift(db, grid)
            flow = still_flow(grid, seed=5)
            x0 = rsde.draw_initial(seed, rsde.InitialLaw(), 256, 1)
            from roughmfg.rsde import _evolve

            cvf = None
            corr = None
            import roughmfg.vectorfield as vf

            cvf = vf.build_cvf_from_flow(model, flow)
            corr = vf.gubinelli_correction(cvf)
            x, _, _ = _evolve(
                model, flow, p, delta_policy(model, n), x0, dw, cvf, corr
            )
            means.append(x[:, -1, 0].mean())
            ns.append(n)
            if level < 3:
                dw = rsde.bridge_refine(dw, level_dt, seed, "w", level)
                db = rsde.bridge_refine(db[None], level_dt, seed, "b", level)[0]
                level_dt /= 2.0
        diffs = np.abs(np.diff(means))
        slope, _ = np.polyfit(np.log(ns[:-1]), np.log(diffs), 1)
        assert -slope >= 0.35


class TestNodeBody:
    """Every forward recursion steps through rsde._advance, once per node at
    which some rows step; each call is logged with the rows it steps."""

    @pytest.fixture
    def advanced(self, monkeypatch):
        calls = []
        advance = rsde._advance

        def counting(coeffs, cloud, policy, nodes, n, xn, *args, **kwargs):
            calls.append((n, xn[..., 0].size))
            return advance(coeffs, cloud, policy, nodes, n, xn, *args, **kwargs)

        monkeypatch.setattr(rsde, "_advance", counting)
        return calls

    def solved(self, steps=12, particles=8):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(2, n=steps)
        return rsde.solve(model, still_flow(p.grid), p, delta_policy(model, steps),
                          rsde.InitialLaw(), particles, 3)

    def test_solve(self, advanced):
        self.solved()
        assert advanced == [(n, 8) for n in range(12)]

    def test_continuation_moments(self, advanced):
        sol = self.solved()
        advanced.clear()
        anchors, stops, n_inner = [2, 5, 9], [8, 12, 12], 3
        sol.continuation_moments(anchors, stops, n_inner, 4)
        stepping = [sum(a <= n < e for a, e in zip(anchors, stops)) for n in range(12)]
        assert advanced == [(n, 8 * n_inner * stepping[n]) for n in range(2, 12)]

    def test_frozen_flow_pass(self, advanced, monkeypatch):
        # 16 particles x 8 steps: blocks of 3 and 2 samples
        monkeypatch.setattr(rz, "PASS_INCREMENTS", 3 * 16 * 8)
        model = models.make_model("tanh-interaction")
        grid = rp.TimeGrid(1.0, 8)
        rz.pathwise_terminals(model, delta_policy(model, 8), rsde.InitialLaw(), grid,
                              16, 5, 7)
        assert advanced == [(n, 48) for n in range(8)] + [(n, 32) for n in range(8)]

    @pytest.mark.parametrize("flow", [False, True], ids=["conditional", "external"])
    def test_joint_simulate(self, advanced, monkeypatch, flow):
        # 16 particles x 8 steps: blocks of 3 and 2 samples, each block one
        # (G, 16, 1) call per node
        monkeypatch.setattr(rz, "JOINT_INCREMENTS", 3 * 16 * 8)
        model = models.make_model("tanh-interaction")
        grid = rp.TimeGrid(1.0, 8)
        rz.joint_simulate(model, delta_policy(model, 8), rsde.InitialLaw(), grid,
                          16, 5, 7, flow=still_flow(grid) if flow else None)
        assert advanced == [(n, 48) for n in range(8)] + [(n, 32) for n in range(8)]


class TestCausalRealization:
    def make_inputs(self, seed=0, n=16):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(seed, n=n)
        flow = still_flow(p.grid, seed=seed + 1)
        return model, p, flow

    def test_deterministic_open_loop(self):
        model, p, flow = self.make_inputs()
        policy = mfg.RelaxedPolicy.causal(
            model.actions, lambda n, view, rng: np.ones(8, dtype=int)
        )
        sol = rsde.realize_from_measure(
            model, flow, p, policy, rsde.InitialLaw(), 8, 5
        )
        assert all(e["max_node_accessed"] <= e["step"] for e in sol.audit_log)
        assert sol.sampled_actions.shape == (8, 16)

    def test_sign_of_prefix_passes(self):
        model, p, flow = self.make_inputs(seed=1)

        def sampler(n, view, rng):
            w = view.path(n)  # allowed: realized prefix
            return (w[:, 0] > 0).astype(int)

        policy = mfg.RelaxedPolicy.causal(model.actions, sampler)
        sol = rsde.realize_from_measure(
            model, flow, p, policy, rsde.InitialLaw(), 8, 6
        )
        assert all(e["max_node_accessed"] <= e["step"] for e in sol.audit_log)

    def test_future_peek_rejected(self):
        model, p, flow = self.make_inputs(seed=2)

        def adversary(n, view, rng):
            w = view.path(n + 1)  # peeks one node ahead
            return (w[:, 0] > 0).astype(int)

        policy = mfg.RelaxedPolicy.causal(model.actions, adversary)
        with pytest.raises(rsde.CausalityViolationError):
            rsde.realize_from_measure(
                model, flow, p, policy, rsde.InitialLaw(), 8, 7
            )

    def test_exogenous_randomization_allowed(self):
        model, p, flow = self.make_inputs(seed=3)
        policy = mfg.RelaxedPolicy.causal(
            model.actions, lambda n, view, rng: rng.integers(0, 3, size=8)
        )
        sol = rsde.realize_from_measure(
            model, flow, p, policy, rsde.InitialLaw(), 8, 8
        )
        assert sol.audit_log[0]["max_node_accessed"] == -1


class TestAprioriMonitor:
    def test_zero_dynamics_norms(self):
        model = models.make_model(
            "lq", actions=(0.0,), sigma=0.0, mean_coupling=0.0, sigma0=0.0
        )
        p = brownian_lift(9, n=16)
        flow = still_flow(p.grid)
        sol = rsde.solve(
            model, flow, p, delta_policy(model, 16),
            rsde.InitialLaw("constant", 0.0), 8, 0,
        )
        snap = rsde.apriori_monitor(sol, ct.IndexPair(), m=4)
        assert snap.state_norm.combined == pytest.approx(0.0, abs=1e-12)
        assert snap.coeff_norm.combined == pytest.approx(0.0, abs=1e-12)
        assert not snap.flagged

    def test_constant_loading_translation_norm(self):
        # X = X0 + c dB: increments are deterministic, so the delta part is
        # the Holder quotient of the (scaled) driver itself
        c = 0.5
        model = models.make_model(
            "lq", actions=(0.0,), sigma=0.0, mean_coupling=0.0, sigma0=c
        )
        p = brownian_lift(9, n=16)
        flow = still_flow(p.grid)
        sol = rsde.solve(
            model, flow, p, delta_policy(model, 16),
            rsde.InitialLaw("constant", 0.0), 8, 0,
        )
        idx = ct.IndexPair()
        anchors, end = ct.anchor_nodes(p.grid, None, 1)
        moments = sol.continuation_moments(anchors, [end] * len(anchors), 8, 4)
        est = ct.estimate_norm(
            sol.ensemble, p, idx, m=4, moments=moments["state"], anchor_stride=1,
        )
        expect = c * rp.holder_report(p, idx.beta).first_seminorm
        assert est.delta_z_norm == pytest.approx(expect, rel=1e-10)

    def test_injected_spike_flags(self):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(10, n=16)
        flow = still_flow(p.grid, seed=6)
        sol = rsde.solve(
            model, flow, p, delta_policy(model, 16), rsde.InitialLaw(), 16, 1
        )
        corrupted = sol.ensemble.Z.copy()
        corrupted[0, 8, 0] += 500.0
        sol.ensemble = ct.ControlledEnsemble(
            sol.grid, corrupted, sol.ensemble.Zp.copy()
        )
        snap = rsde.apriori_monitor(sol, ct.IndexPair(), m=4, const=1.0, exponent=1.0)
        assert snap.flagged

    def test_continuation_blowup_names_particle_and_anchor(self):
        # 4 inner samples per particle: the spiked particle 3 is rows 12..15
        # of the continuation block
        model = models.make_model("tanh-interaction")
        p = brownian_lift(10, n=16)
        flow = still_flow(p.grid, seed=6)
        sol = rsde.solve(
            model, flow, p, delta_policy(model, 16), rsde.InitialLaw(), 8, 1
        )
        corrupted = sol.ensemble.Z.copy()
        corrupted[3, 8] = 2e6
        sol.ensemble = ct.ControlledEnsemble(
            sol.grid, corrupted, sol.ensemble.Zp.copy()
        )
        with pytest.raises(rsde.DivergedError) as err:
            rsde.apriori_monitor(sol, ct.IndexPair(), m=4, inner_samples=4)
        assert (err.value.step, err.value.particle, err.value.anchor) == (8, 3, 8)
        assert "step 8, particle 3 in the continuation from anchor node 8" in str(
            err.value
        )

    def test_forward_blowup_has_no_anchor(self):
        model = models.make_model("lq", sigma0=None, mean_coupling=0.0)
        model.b = lambda t, x, mu, u: 100.0 * x
        p = brownian_lift(7, n=64)
        with pytest.raises(rsde.DivergedError) as err:
            rsde.solve(model, still_flow(p.grid), p, delta_policy(model, 64),
                       rsde.InitialLaw("constant", 1.0), 4, 0)
        assert err.value.anchor is None
        assert "anchor" not in str(err.value)

    def test_monitor_memory_stays_bounded(self):
        # the CLI's tanh-interaction solve at N=512, P=64: the pass keeps the
        # current rows, the anchor values, the tables and the increments not
        # yet consumed, never the continued paths
        import tracemalloc

        from roughmfg import cli
        from roughmfg import config as cfgmod

        cfg = cfgmod.ExperimentConfig(model_name="tanh-interaction", steps=512,
                                      rsde_particles=64, seed=3)
        model = models.make_model(cfg.model_name)
        p = cfgmod.build_rough(cfg, model.k)
        cloud = rsde.draw_initial(cfg.seed, cfg.init, cfg.rsde_particles, model.d)
        flow = mf.constant_flow(cfg.grid(), cloud, model.k)
        sol = rsde.solve(model, flow, p, cli._default_policy(model, cfg.steps),
                         cfg.init, cfg.rsde_particles, cfg.seed)
        tracemalloc.start()
        try:
            rsde.apriori_monitor(sol, cfg.indices, m=cfg.m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_pass_memory_stays_near_the_copying_pass(self):
        # one pass, every anchor continued to the end of the grid: N = 256,
        # P = 32, 8 anchors, 4 inner samples, both targets.  The pass that
        # re-copied each group's unconsumed increments at every anchor
        # peaked at 947,480 bytes under tracemalloc (numpy 2.4, Python
        # 3.11); the time-major pieces hold a new group's drawn block and
        # its pieces at once, 1,078,984 bytes (1.14 times)
        import tracemalloc

        model = models.make_model("tanh-interaction")
        steps, particles = 256, 32
        p = brownian_lift(5, n=steps)
        cloud = rsde.draw_initial(5, rsde.InitialLaw(), particles, model.d)
        sol = rsde.solve(model, mf.constant_flow(p.grid, cloud, model.k), p,
                         delta_policy(model, steps), rsde.InitialLaw(), particles, 5)
        anchors = list(range(0, steps, 32))
        tracemalloc.start()
        try:
            sol.continuation_moments(anchors, [steps] * len(anchors), 4, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 947_480

    def test_refinement_stability(self):
        model = models.make_model("tanh-interaction")
        combined = {}
        for n in (32, 64):
            p = brownian_lift(11, n=n)
            flow = still_flow(p.grid, seed=7)
            sol = rsde.solve(
                model, flow, p, delta_policy(model, n), rsde.InitialLaw(), 32, 2
            )
            snap = rsde.apriori_monitor(sol, ct.IndexPair(), m=4, inner_samples=4)
            combined[n] = snap.state_norm.combined
        ratio = combined[64] / combined[32]
        assert 0.5 <= ratio <= 2.0


class TestMartingaleDiagnostics:
    def solved_reference(self, particles=3000, n=64, seed=17):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(seed, n=n)
        flow = still_flow(p.grid, particles=64, seed=seed + 1)
        policy = mfg.RelaxedPolicy.constant(model.actions, n, action_index=1)
        sol = rsde.solve(
            model, flow, p, policy, rsde.InitialLaw("normal", 0.0, 0.5),
            particles, seed,
        )
        return sol

    def test_constant_phi_exact_zero(self):
        sol = self.solved_reference(particles=200, n=16)
        diag = rsde.martingale_diagnostics(sol)
        const = [e for e in diag.per_phi if e.name == "constant"][0]
        assert const.exact_zero
        assert const.residual_pass and const.qv_pass

    def test_one_particle_is_refused(self):
        # its t statistics would be NaN
        sol = self.solved_reference(particles=1, n=8)
        with pytest.raises(rp.InputError, match="needs two particles, got 1$"):
            rsde.martingale_diagnostics(sol)

    def test_reference_model_passes(self):
        sol = self.solved_reference()
        diag = rsde.martingale_diagnostics(sol, level=0.01)
        assert not diag.low_power
        failures = [
            e.name for e in diag.per_phi if not (e.residual_pass and e.qv_pass)
        ]
        assert diag.all_pass, f"failed: {failures} cross={diag.cross}"

    def test_w_only_brownian_check(self):
        # the W-only bump recovers the Brownian characterization
        sol = self.solved_reference(particles=4000, n=32)
        diag = rsde.martingale_diagnostics(sol)
        wb = [e for e in diag.per_phi if e.name == "w_bump"][0]
        assert wb.qv_pass and wb.residual_pass

    def test_low_power_flag(self):
        sol = self.solved_reference(particles=50, n=8)
        diag = rsde.martingale_diagnostics(sol)
        assert diag.low_power

    def test_drift_table_matches_per_step_mixture(self):
        # reference: the per-node action loop the increments once ran for
        # every x-dependent test function, on per-node mixture lookups
        model = models.make_model("tanh-interaction")
        n, lattice = 12, np.linspace(-2.0, 2.0, 9)
        table = substream(3, "rs", "mix").uniform(size=(n, 9, model.n_actions))
        policy = mfg.RelaxedPolicy(
            model.actions, lattice=lattice, table=table / table.sum(axis=2, keepdims=True)
        )
        p = brownian_lift(4, n=n)
        sol = rsde.solve(model, still_flow(p.grid), p, policy,
                         rsde.InitialLaw("normal", 0.0, 1.0), 40, 4)
        x = sol.ensemble.Z[..., 0]
        want = np.empty((40, n))
        for step in range(n):
            weights = policy.mixture(step, sol.ensemble.Z[:, step])
            drift = np.zeros(40)
            for a in range(model.n_actions):
                if np.any(weights[:, a]):
                    drift += weights[:, a] * model.b(
                        p.grid.nodes[step], x[:, step][:, None],
                        sol.flow.cloud(step), model.actions[a],
                    )[:, 0]
            want[:, step] = drift
        np.testing.assert_array_equal(rsde._martingale_paths(sol)[3], want)

    def test_causal_solution_needs_mixture_record(self):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(5, n=8)
        policy = mfg.RelaxedPolicy.causal(
            model.actions, lambda n, view, rng: np.ones(16, dtype=int)
        )
        sol = rsde.realize_from_measure(
            model, still_flow(p.grid), p, policy, rsde.InitialLaw(), 16, 5
        )
        with pytest.raises(rp.InputError, match="need a feedback policy, not a causal"):
            rsde.martingale_diagnostics(sol)

    def test_pure_bump_qv_gap_sqrt_dt_rate(self):
        # Brownian characterization through a plain compact bump in W: the
        # spread of the per-particle QV gap shrinks like sqrt(dt)
        model = models.make_model("tanh-interaction")
        phi = rsde.pure_w_bump(3.0)
        sizes = [16, 32, 64, 128]
        sds = []
        for n in sizes:
            grid = rp.TimeGrid(1.0, n)
            dw = substream(5, "rate", n).normal(0, np.sqrt(grid.dt), size=(n, 1))
            p = rp.ito_lift(dw, grid)
            flow = mf.constant_flow(
                grid, substream(5, "rate", "c").normal(size=(32, 1)), 1
            )
            pol = mfg.RelaxedPolicy.constant(model.actions, n, action_index=1)
            sol = rsde.solve(
                model, flow, p, pol, rsde.InitialLaw("normal", 0, 0.5), 10_000, 5
            )
            sds.append(rsde.qv_gap(sol, phi).std(ddof=1))
        slope = np.polyfit(np.log(sizes), np.log(sds), 1)[0]
        assert -0.7 <= slope <= -0.3


class TestCriticalValues:
    """The battery's critical values, computed with scipy.special, equal
    scipy.stats' quantiles bit for bit, one scalar call each as the battery
    makes them."""

    LEVELS = [0.05, 0.01, 1e-3, 1e-4]

    @pytest.mark.parametrize("level", LEVELS)
    def test_student_t_quantile(self, level):
        q = 1.0 - 0.5 * level
        for df in [1, 2, 3, 7, 15, 31, 39, 63, 99, 127, 199, 255, 399, 499, 511,
                   999, 1023, 1999, 4095, 9999, 99999]:
            assert special.stdtrit(df, q) == stats.t.ppf(q, df=df), df

    @pytest.mark.parametrize("level", LEVELS)
    def test_bonferroni_normal_quantile(self, level):
        for n_tests in range(1, 129):
            q = 1.0 - 0.5 * level / n_tests
            assert special.ndtri(q) == stats.norm.ppf(q), n_tests


# -- slow reference for the martingale battery ----------------------------------
# Closure test functions with one callable per derivative, and the per-node
# loops that evaluated them; the factor specs evaluated once on the whole grid
# must reproduce them bit for bit.


@dataclass
class ClosureFunction:
    name: str
    value: object
    grad_x: object
    grad_w: object
    hess_xx: object
    hess_xw: object
    hess_ww: object
    depends_x: bool
    depends_w: bool


def _zero(x, w):
    return np.zeros(np.shape(x))


def ref_constant():
    return ClosureFunction("constant", lambda x, w: np.ones(np.shape(x)), _zero,
                           _zero, _zero, _zero, _zero, False, False)


def ref_x_bump(radius):
    def value(x, w):
        c, _, _ = rsde._bump3(x / radius)
        return c * x

    def grad_x(x, w):
        c, c1, _ = rsde._bump3(x / radius)
        return c + x * c1 / radius

    def hess_xx(x, w):
        _, c1, c2 = rsde._bump3(x / radius)
        return 2.0 * c1 / radius + x * c2 / radius**2

    return ClosureFunction("x_bump", value, grad_x, _zero, hess_xx, _zero,
                           _zero, True, False)


def ref_x_quad(radius, center=-2.0):
    def value(x, w):
        c, _, _ = rsde._bump3(x / radius)
        return c * (x - center) ** 2

    def grad_x(x, w):
        c, c1, _ = rsde._bump3(x / radius)
        return 2.0 * (x - center) * c + (x - center) ** 2 * c1 / radius

    def hess_xx(x, w):
        c, c1, c2 = rsde._bump3(x / radius)
        return (2.0 * c + 4.0 * (x - center) * c1 / radius
                + (x - center) ** 2 * c2 / radius**2)

    return ClosureFunction("x_quad", value, grad_x, _zero, hess_xx, _zero,
                           _zero, True, False)


def ref_w_bump(radius):
    def value(x, w):
        c, _, _ = rsde._bump3(w / radius)
        return c * w

    def grad_w(x, w):
        c, c1, _ = rsde._bump3(w / radius)
        return c + w * c1 / radius

    def hess_ww(x, w):
        _, c1, c2 = rsde._bump3(w / radius)
        return 2.0 * c1 / radius + w * c2 / radius**2

    return ClosureFunction("w_bump", value, _zero, grad_w, _zero, _zero,
                           hess_ww, False, True)


def ref_pure_w_bump(radius=3.0):
    def value(x, w):
        return rsde._bump3(w / radius)[0]

    def grad_w(x, w):
        return rsde._bump3(w / radius)[1] / radius

    def hess_ww(x, w):
        return rsde._bump3(w / radius)[2] / radius**2

    return ClosureFunction("pure_w_bump", value, _zero, grad_w, _zero, _zero,
                           hess_ww, False, True)


def ref_xw(radius_x, radius_w, cx=-2.0, cw=-2.0):
    def value(x, w):
        bx, _, _ = rsde._bump3(x / radius_x)
        bw, _, _ = rsde._bump3(w / radius_w)
        return bx * (x - cx) * bw * (w - cw)

    def factor(u, radius, center):
        b, b1, b2 = rsde._bump3(u / radius)
        g = b + (u - center) * b1 / radius
        h = 2.0 * b1 / radius + (u - center) * b2 / radius**2
        return b * (u - center), g, h

    def grad_x(x, w):
        return factor(x, radius_x, cx)[1] * factor(w, radius_w, cw)[0]

    def grad_w(x, w):
        return factor(x, radius_x, cx)[0] * factor(w, radius_w, cw)[1]

    def hess_xx(x, w):
        return factor(x, radius_x, cx)[2] * factor(w, radius_w, cw)[0]

    def hess_xw(x, w):
        return factor(x, radius_x, cx)[1] * factor(w, radius_w, cw)[1]

    def hess_ww(x, w):
        return factor(x, radius_x, cx)[0] * factor(w, radius_w, cw)[2]

    return ClosureFunction("xw_mixed", value, grad_x, grad_w, hess_xx, hess_xw,
                           hess_ww, True, True)


def ref_battery():
    """(closure reference, factor spec) pairs: the default battery and the
    pure W bump."""
    closures = [ref_constant(), ref_x_bump(6.0), ref_x_quad(6.0),
                ref_w_bump(14.0), ref_xw(6.0, 14.0), ref_pure_w_bump(3.0)]
    return list(zip(closures, rsde.default_battery() + [rsde.pure_w_bump(3.0)]))


def ref_increments(sol, phi, paths):
    grid = sol.grid
    x, wpath, sig, drifts = paths
    rough = sol.cvf is not None
    db = np.diff(sol.rough.first_level[:, 0]) if rough else None
    bb = sol.rough.step_second()[:, 0, 0] if rough else None
    brackets = sol.rough.step_brackets()[:, 0, 0] if rough else None
    vals = phi.value(x, wpath)
    dm = np.empty((x.shape[0], grid.steps))
    for n in range(grid.steps):
        xn, wn, sn = x[:, n], wpath[:, n], sig[:, n]
        gx = phi.grad_x(xn, wn)
        gw = phi.grad_w(xn, wn)
        hxx = phi.hess_xx(xn, wn)
        hxw = phi.hess_xw(xn, wn)
        hww = phi.hess_ww(xn, wn)
        drift = drifts[:, n] if phi.depends_x else np.zeros_like(xn)
        gen = drift * gx + 0.5 * (sn**2 * hxx + hww) + sn * hxw
        comp = gen * grid.dt
        if rough and phi.depends_x:
            s0 = sol.ensemble.Zp[:, n, 0, 0]
            shat = sol.fhat[:, n, 0, 0, 0]
            comp += gx * s0 * db[n] + (hxx * s0**2 + gx * shat) * bb[n]
            comp += 0.5 * hxx * s0**2 * brackets[n]
        dm[:, n] = vals[:, n + 1] - vals[:, n] - comp
    return dm


def ref_qv_target(sol, phi, paths):
    x, wpath, sig, _ = paths
    out = np.zeros(sig.shape)
    for n in range(sol.grid.steps):
        xn, wn = x[:, n], wpath[:, n]
        load = phi.grad_x(xn, wn) * sig[:, n] + phi.grad_w(xn, wn)
        out[:, n] = load**2 * sol.grid.dt
    return out


def ref_cross_target(sol, fx, fw, paths):
    x, wpath, sig, _ = paths
    target = np.zeros(x.shape[0])
    for n in range(sol.grid.steps):
        target += (fx.grad_x(x[:, n], wpath[:, n]) * sig[:, n]
                   * fw.grad_w(x[:, n], wpath[:, n]) * sol.grid.dt)
    return target


def _tstat(v):
    sd = v.std(ddof=1)
    return 0.0 if sd == 0.0 else float(v.mean() / (sd / math.sqrt(len(v))))


def ref_martingale_diagnostics(sol, phis, level=0.01, n_anchor_pairs=4):
    grid = sol.grid
    p_count = sol.ensemble.particles
    paths = rsde._martingale_paths(sol)
    x, wpath = paths[0], paths[1]
    anchors = sorted({int(a) for a in np.linspace(0, grid.steps // 2, n_anchor_pairs)})
    spans = [max(1, grid.steps // 4), max(1, grid.steps // 2)]
    t_crit = stats.t.ppf(1.0 - 0.5 * level, df=p_count - 1)
    per_phi, dms = [], {}
    for phi in phis:
        dm = dms[phi.name] = ref_increments(sol, phi, paths)
        if np.all(dm == 0.0):
            per_phi.append(rsde.PhiDiagnostics(phi.name, True, [0.0], True, 0.0, True))
            continue
        m_cum = np.concatenate([np.zeros((p_count, 1)), np.cumsum(dm, axis=1)], axis=1)
        tstats = []
        for s in anchors:
            for span in spans:
                t_end = min(grid.steps, s + span)
                if t_end <= s:
                    continue
                window = m_cum[:, t_end] - m_cum[:, s]
                bump_s = rsde._bump3(x[:, s] / 3.0)[0]
                for feat in (np.ones(p_count), x[:, s], wpath[:, s], bump_s):
                    prod = window * feat
                    if prod.std(ddof=1) != 0.0:
                        tstats.append(_tstat(prod))
        crit = stats.norm.ppf(1.0 - 0.5 * level / max(1, len(tstats)))
        gap = (dm**2).sum(axis=1) - ref_qv_target(sol, phi, paths).sum(axis=1)
        qv_t = _tstat(gap)
        per_phi.append(rsde.PhiDiagnostics(
            phi.name, False, tstats, all(abs(t) < crit for t in tstats),
            qv_t, abs(qv_t) < t_crit,
        ))
    cross = []
    for fx in [f for f in phis if f.depends_x and not f.depends_w]:
        for fw in [f for f in phis if f.depends_w and not f.depends_x]:
            gap = ((dms[fx.name] * dms[fw.name]).sum(axis=1)
                   - ref_cross_target(sol, fx, fw, paths))
            t = _tstat(gap)
            cross.append((fx.name, fw.name, t, bool(abs(t) < t_crit)))
    return rsde.MartingaleDiagnostics(level, p_count, p_count < 100, per_phi, cross)


def battery_solution(rough):
    """A tanh-interaction solve under a random action mixture (rough terms
    on), or lq without a rough coefficient (rough terms off)."""
    n, particles = 24, 150
    if rough:
        model = models.make_model("tanh-interaction")
    else:
        model = models.make_model("lq", sigma0=None)
    lattice = np.linspace(-3.0, 3.0, 13)
    table = substream(8, "rs", "battery").uniform(size=(n, 13, model.n_actions))
    policy = mfg.RelaxedPolicy(
        model.actions, lattice=lattice, table=table / table.sum(axis=2, keepdims=True)
    )
    p = brownian_lift(6, n=n)
    sol = rsde.solve(model, still_flow(p.grid, seed=2), p, policy,
                     rsde.InitialLaw("normal", 0.0, 1.5), particles, 6)
    assert (sol.cvf is not None) == rough
    return sol


class TestBatteryMatchesClosureReference:
    def test_parts_match_closures(self):
        grid = np.linspace(-20.0, 20.0, 161)
        x, w = np.meshgrid(grid, grid[::-1] * 1.3)
        for ref, phi in ref_battery():
            assert phi.name == ref.name
            assert (phi.depends_x, phi.depends_w) == (ref.depends_x, ref.depends_w)
            want = [ref.value, ref.grad_x, ref.grad_w, ref.hess_xx, ref.hess_xw,
                    ref.hess_ww]
            for got, fn in zip(phi.parts(x, w), want):
                np.testing.assert_array_equal(got, fn(x, w))

    @pytest.mark.parametrize("rough", [True, False])
    def test_increments_and_targets(self, rough):
        sol = battery_solution(rough)
        paths = rsde._martingale_paths(sol)
        dt = sol.grid.dt
        loads = {}
        for ref, phi in ref_battery():
            dm, load_x, load_w = rsde._compensated(sol, phi, paths)
            loads[phi.name] = (load_x, load_w)
            np.testing.assert_array_equal(dm, ref_increments(sol, ref, paths))
            want_gap = ((ref_increments(sol, ref, paths) ** 2).sum(axis=1)
                        - ref_qv_target(sol, ref, paths).sum(axis=1))
            np.testing.assert_array_equal(rsde.qv_gap(sol, phi), want_gap)
        refs = dict((r.name, r) for r, _ in ref_battery())
        for fx in ("x_bump", "x_quad"):
            for fw in ("w_bump", "pure_w_bump"):
                got = np.cumsum(loads[fx][0] * loads[fw][1] * dt, axis=1)[:, -1]
                want = ref_cross_target(sol, refs[fx], refs[fw], paths)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("with_pure", [False, True])
    @pytest.mark.parametrize("rough", [True, False])
    def test_diagnostics_fields(self, rough, with_pure):
        sol = battery_solution(rough)
        pairs = ref_battery()[: 6 if with_pure else 5]
        got = rsde.martingale_diagnostics(sol, [phi for _, phi in pairs])
        want = ref_martingale_diagnostics(sol, [ref for ref, _ in pairs])
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        if not with_pure:
            assert rsde.martingale_diagnostics(sol) == got

    def test_bump_calls_independent_of_grid(self, monkeypatch):
        calls = []
        bump = rsde._bump3

        def counted(u):
            calls.append(np.shape(u))
            return bump(u)

        monkeypatch.setattr(rsde, "_bump3", counted)
        counts = []
        for n in (16, 64):
            model = models.make_model("tanh-interaction")
            p = brownian_lift(3, n=n)
            policy = mfg.RelaxedPolicy.constant(model.actions, n, action_index=1)
            sol = rsde.solve(model, still_flow(p.grid), p, policy,
                             rsde.InitialLaw(), 40, 3)
            calls.clear()
            rsde.martingale_diagnostics(sol)
            counts.append(len(calls))
        assert counts[0] == counts[1]


def reference_martingale_paths(sol):
    """_martingale_paths with one sigma call and one drift mixture per node,
    the loop the node groups replaced."""
    grid = sol.grid
    x = sol.ensemble.Z[..., 0]
    wpath = np.concatenate(
        [np.zeros((x.shape[0], 1)), np.cumsum(sol.W_increments[..., 0], axis=1)],
        axis=1,
    )
    weights = None
    if sol.policy.mode == "feedback":
        weights = sol.policy.mixture(np.arange(grid.steps), sol.ensemble.Z[:, :-1])
    sig = np.empty((x.shape[0], grid.steps))
    drift = None if weights is None else np.empty_like(sig)
    nodes = grid.nodes
    for n in range(grid.steps):
        t, xn, cloud = nodes[n], x[:, n][:, None], sol.flow.cloud(n)
        sig[:, n] = sol.coeffs.sigma(t, xn, cloud)[:, 0, 0]
        if drift is not None:
            drift[:, n] = rsde._drift_mixture(sol.coeffs, t, xn, cloud,
                                              weights[:, n])[:, 0]
    return x, wpath, sig, drift


class TestGroupedMartingalePaths:
    @pytest.mark.parametrize("name", sorted(models.list_models()))
    @pytest.mark.parametrize("table", ["mixed", "one-hot"])
    def test_matches_per_node_loop(self, name, table):
        # a flow that moves from node to node, and weights that leave some
        # action unweighted at some nodes only
        model = models.make_model(name)
        p = brownian_lift(21, n=12)
        lattice = np.linspace(-1.5, 1.5, 7)
        rng = substream(22, "rs", "paths", table)
        weights = rng.uniform(size=(12, 7, model.n_actions))
        if table == "one-hot":
            weights = (weights == weights.max(axis=2, keepdims=True)).astype(float)
        policy = mfg.RelaxedPolicy(model.actions, lattice=lattice,
                                   table=weights / weights.sum(axis=2, keepdims=True))
        pilot = rsde.solve(model, still_flow(p.grid), p, policy,
                           rsde.InitialLaw(), 24, 3)
        sol = rsde.solve(model, mf.from_solution(pilot), p, policy,
                         rsde.InitialLaw("normal", 0.1, 0.8), 30, 4)
        got, want = rsde._martingale_paths(sol), reference_martingale_paths(sol)
        for got, want in zip(got, want):
            np.testing.assert_array_equal(got, want)
            assert got.flags.c_contiguous

    def test_causal_solution_has_no_drift_table(self):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(23, n=8)
        policy = mfg.RelaxedPolicy.causal(
            model.actions,
            lambda n, view, rng: rng.integers(0, 3, size=view.increments().shape[0]))
        sol = rsde.realize_from_measure(model, still_flow(p.grid), p, policy,
                                        rsde.InitialLaw(), 10, 5)
        got, want = rsde._martingale_paths(sol), reference_martingale_paths(sol)
        assert got[3] is None and want[3] is None
        for a, b in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(a, b)
