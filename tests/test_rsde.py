import numpy as np
import pytest

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
        assert sol.control_record["sampled_actions"].shape == (8, 16)

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
        assert sol.monitors, "snapshot should be attached to the solution"

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
        # every x-dependent test function
        model = models.make_model("tanh-interaction")
        n, lattice = 12, np.linspace(-2.0, 2.0, 9)
        table = substream(3, "rs", "mix").uniform(size=(n, 9, model.n_actions))
        policy = mfg.RelaxedPolicy(
            model.actions, lattice=lattice, table=table / table.sum(axis=2, keepdims=True)
        )
        p = brownian_lift(4, n=n)
        sol = rsde.solve(model, still_flow(p.grid), p, policy,
                         rsde.InitialLaw("normal", 0.0, 1.0), 40, 4)
        weights = sol.control_record["mixture_weights"]
        x = sol.ensemble.Z[..., 0]
        want = np.empty((40, n))
        for step in range(n):
            drift = np.zeros(40)
            for a in range(model.n_actions):
                if np.any(weights[:, step, a]):
                    drift += weights[:, step, a] * model.b(
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
        with pytest.raises(rp.InputError, match="mixture control record"):
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
