import collections
import itertools
import math
import warnings

import numpy as np
import pytest

from roughmfg import controlled as ct
from roughmfg import measureflow as mf
from roughmfg import mfg
from roughmfg import models
from roughmfg import roughpath as rp
from roughmfg import rsde
from roughmfg.rng import substream


def brownian_lift(seed, n=16, horizon=1.0):
    grid = rp.TimeGrid(horizon, n)
    dw = substream(seed, "mg", "bm").normal(0.0, np.sqrt(grid.dt), size=(n, 1))
    return rp.ito_lift(dw, grid)


def still_flow(grid, particles=16, seed=0):
    cloud = substream(seed, "mg", "cloud").normal(size=(particles, 1))
    return mf.constant_flow(grid, cloud, k=1)


def count_calls(monkeypatch):
    """Count mfg.best_response, mfg.cost and rsde.solve calls from here on."""
    counts = collections.Counter()
    for module, name in ((mfg, "best_response"), (rsde, "solve"), (mfg, "cost")):
        def counted(*args, _orig=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def ref_node_index(lattice, x):
    """Nearest node by binary search, the lower one on a tie: the lookup of
    non-uniform lattices, and the reference for the uniform one."""
    x = np.asarray(x)[..., 0]
    if len(lattice) == 1:
        return np.zeros(x.shape, dtype=np.intp)
    j = np.clip(np.searchsorted(lattice, x), 1, len(lattice) - 1)
    return j - (np.abs(x - lattice[j - 1]) <= np.abs(x - lattice[j]))


def lookup_states(lattice, seed):
    """Random states, the nodes, the midpoints, their floating-point
    neighbours on both sides, and states far off or not numbers."""
    mids = 0.5 * (lattice[1:] + lattice[:-1])
    marks = np.concatenate([lattice, mids])
    width = lattice[-1] - lattice[0]
    return np.concatenate([
        substream(seed, "mg", "lookup").uniform(lattice[0] - width, lattice[-1] + width,
                                                size=20_000),
        marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
        [-np.inf, np.inf, np.nan, -1e300, 1e300],
    ])[:, None]


def ref_exploitability(coeffs, flow, p, policy, particles, seed, settings=None,
                       init=None):
    """exploitability with a cost solve for the policy and another for the
    best response, always.  Returns (value, raw, error_bar, policy_cost,
    response_cost)."""
    init = init or rsde.InitialLaw()
    c_pol = mfg.cost(coeffs, flow, p, policy, particles, seed, init)
    br = mfg.best_response(coeffs, flow, p, settings, init, seed)
    c_br = mfg.cost(coeffs, flow, p, br.policy, particles, seed, init)
    raw = c_pol.value - c_br.value
    err = math.hypot(c_pol.error_bar, c_br.error_bar)
    return max(raw, 0.0), raw, err, c_pol, c_br


def ref_fixed_point(coeffs, p, init, particles, seed, lambda_mix, max_iters,
                    settings, domain_bound, domain_epsilon, domain_windows,
                    exploit_particles):
    """fixed_point with a DP in every sweep and ref_exploitability, for zero
    tolerances (no early stop) and fixed lattice bounds.  Returns the
    records and the last sweep's flow, best response and solution."""
    idx = ct.IndexPair()
    boot = mf.constant_flow(
        p.grid, rsde.draw_initial(seed, init, particles, coeffs.d), coeffs.k
    )

    def phi(flow):
        br = mfg.best_response(coeffs, flow, p, settings, init, seed)
        sol = rsde.solve(coeffs, flow, p, br.policy, init, particles, seed)
        return br, sol, mf.from_solution(sol)

    flow_prev = phi(boot)[2]
    records = []
    for it in range(1, max_iters + 1):
        br, sol, flow_cand = phi(flow_prev)
        dist = mf.flow_distance(flow_cand, flow_prev)
        value, raw, err, _, _ = ref_exploitability(
            coeffs, flow_cand, p, br.policy, exploit_particles, seed, settings, init
        )
        cert = mf.check_domain(
            flow_cand, p, idx, 4, domain_bound, domain_epsilon, solution=sol,
            inner_samples=2, max_windows=domain_windows, anchor_stride=4,
        )
        records.append(mfg.IterationRecord(it, dist, value, raw, err, br.escape_mass,
                                           cert.member, cert.worst,
                                           cert.offending_window))
        flow_prev = mf.mix(flow_cand, flow_prev, lambda_mix, seed=seed + it)
    return records, flow_cand, br, sol


class TestRelaxedPolicy:
    def test_row_sums_validated(self):
        table = np.full((4, 3, 2), 0.4)
        with pytest.raises(rp.InputError):
            mfg.RelaxedPolicy(np.array([[0.0], [1.0]]), lattice=np.arange(3.0), table=table)

    def test_negative_probabilities_rejected(self):
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 1.5
        table[:, :, 1] = -0.5
        with pytest.raises(rp.InputError):
            mfg.RelaxedPolicy(np.array([[0.0], [1.0]]), lattice=np.arange(2.0), table=table)

    def test_nearest_node_lookup(self):
        lattice = np.array([-1.0, 0.0, 1.0])
        table = np.zeros((1, 3, 2))
        table[0, :, 0] = [1.0, 0.0, 1.0]
        table[0, :, 1] = [0.0, 1.0, 0.0]
        pol = mfg.RelaxedPolicy(np.array([[0.0], [1.0]]), lattice=lattice, table=table)
        x = np.array([[-0.8], [0.1], [2.0]])
        np.testing.assert_array_equal(
            pol.mixture(0, x), [[1, 0], [0, 1], [1, 0]]
        )

    def test_node_lookup_agrees_with_argmin(self):
        # bracketing-pair lookup against the full argmin it replaced, ties
        # (every midpoint) to the lower node included
        lattice = np.linspace(-4.0, 4.0, 81)
        table = np.full((1, 81, 1), 1.0)
        pol = mfg.RelaxedPolicy(np.array([[0.0]]), lattice=lattice, table=table)
        mids = 0.5 * (lattice[1:] + lattice[:-1])
        x = np.concatenate([
            substream(3, "mg", "lookup").normal(0.0, 2.0, size=200_000),
            lattice, mids, [-10.0, 10.0],
        ])[:, None]
        argmin = np.abs(x[..., 0][:, None] - lattice[None, :]).argmin(axis=-1)
        np.testing.assert_array_equal(pol._node_index(x), argmin)

    @pytest.mark.parametrize("nodes", [2, 3, 81])
    @pytest.mark.parametrize("lo, hi", [(-4.0, 4.0), (0.3, 7.1)])
    def test_uniform_lookup_matches_binary_search(self, monkeypatch, nodes, lo, hi):
        lattice = np.linspace(lo, hi, nodes)
        pol = mfg.RelaxedPolicy(np.array([[0.0]]), lattice=lattice,
                                table=np.ones((1, nodes, 1)))
        x = lookup_states(lattice, nodes)
        want = ref_node_index(lattice, x)
        assert want[-3] == nodes - 1  # NaN goes to the last node

        def no_search(*args, **kwargs):
            raise AssertionError("a uniform lattice needs no binary search")

        monkeypatch.setattr(np, "searchsorted", no_search)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pol._node_index(x)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lattice", [
        [-1.0, 0.0, 0.5, 2.0],
        np.nextafter(np.linspace(-4.0, 4.0, 81), np.inf),
        np.linspace(1e15, 1e15 + 4.0, 5),
    ])
    def test_other_lattices_keep_binary_search(self, lattice):
        # not uniform, uniform only up to the last bit, or nodes too large
        # against their spacing for a guess from the spacing
        lattice = np.asarray(lattice)
        pol = mfg.RelaxedPolicy(np.array([[0.0]]), lattice=lattice,
                                table=np.ones((1, len(lattice), 1)))
        assert pol._spacing is None
        x = lookup_states(lattice, 5)
        np.testing.assert_array_equal(pol._node_index(x), ref_node_index(lattice, x))

    def test_take_gather_matches_fancy_index(self):
        n_steps, lattice = 6, np.linspace(-2.0, 2.0, 9)
        rng = substream(6, "mg", "gather")
        table = rng.dirichlet(np.ones(3), size=(n_steps, 9))
        pol = mfg.RelaxedPolicy(np.array([[-1.0], [0.0], [1.0]]), lattice=lattice,
                                table=table)
        x = rng.normal(0.0, 2.0, size=(50, n_steps, 1))
        idx = ref_node_index(lattice, x)
        np.testing.assert_array_equal(pol.mixture(4, x[:, 4]), table[4, idx[:, 4]])
        steps = np.arange(n_steps)
        np.testing.assert_array_equal(pol.mixture(steps, x), table[steps, idx])

    def test_step_array_lookup_matches_per_node(self):
        # one call on every node's states is the per-node lookups stacked
        n_steps, lattice = 12, np.linspace(-2.0, 2.0, 9)
        rng = substream(4, "mg", "steps")
        table = rng.dirichlet(np.ones(3), size=(n_steps, 9))
        pol = mfg.RelaxedPolicy(np.array([[-1.0], [0.0], [1.0]]), lattice=lattice,
                                table=table)
        mids = 0.5 * (lattice[1:] + lattice[:-1])
        on_lattice = np.concatenate([lattice, mids, [-7.5, 9.0]])
        x = np.empty((40, n_steps + 1, 1))
        x[:20, :, 0] = rng.normal(0.0, 2.0, size=(20, n_steps + 1))
        x[20:, :, 0] = on_lattice[rng.integers(0, len(on_lattice), (20, n_steps + 1))]
        got = pol.mixture(np.arange(n_steps), x[:, :-1])
        want = np.stack([pol.mixture(n, x[:, n]) for n in range(n_steps)], axis=1)
        assert got.shape == (40, n_steps, 3)
        np.testing.assert_array_equal(got, want)
        with pytest.raises(rp.InputError, match="12 steps, step 12 requested"):
            pol.mixture(np.arange(n_steps + 1), x)
        with pytest.raises(rp.InputError, match="12 steps, step -1 requested"):
            pol.mixture(np.arange(-1, 3), x[:, :4])

    def test_one_node_lattice(self):
        pol = mfg.RelaxedPolicy.constant(np.array([[0.0], [1.0]]), 2)
        x = np.array([[-3.0], [0.0], [5.0]])
        np.testing.assert_array_equal(pol._node_index(x), [0, 0, 0])
        np.testing.assert_array_equal(pol.mixture(1, x), [[1, 0]] * 3)

    def test_same_feedback(self):
        actions = np.array([[0.0], [1.0]])
        lattice = np.array([-1.0, 0.0, 1.0])
        table = np.zeros((2, 3, 2))
        table[..., 0] = 1.0
        pol = mfg.RelaxedPolicy(actions, lattice=lattice, table=table)
        assert pol.same_feedback(
            mfg.RelaxedPolicy(actions.copy(), lattice=lattice.copy(), table=table.copy())
        )
        changed = table.copy()
        changed[1, 2] = [0.0, 1.0]
        others = [
            mfg.RelaxedPolicy(actions, lattice=lattice, table=changed),
            mfg.RelaxedPolicy(actions, lattice=lattice + 0.5, table=table),
            mfg.RelaxedPolicy(actions + 1.0, lattice=lattice, table=table),
            mfg.RelaxedPolicy(actions, lattice=lattice, table=table[:1]),
            mfg.RelaxedPolicy.causal(actions, lambda n, w, rng: np.zeros(len(w))),
        ]
        for other in others:
            assert not pol.same_feedback(other)
            assert not other.same_feedback(pol)

    @pytest.mark.parametrize("lattice", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0],
                                         [0.0, np.nan, 1.0]])
    def test_lattice_must_increase(self, lattice):
        table = np.zeros((2, 3, 2))
        table[..., 0] = 1.0
        with pytest.raises(rp.InputError, match="strictly increasing"):
            mfg.RelaxedPolicy(np.array([[0.0], [1.0]]), lattice=np.array(lattice),
                              table=table)

    def test_short_table_raises_instead_of_reusing_last_row(self):
        model = models.make_model("lq")
        p = brownian_lift(0, n=8)
        policy = mfg.RelaxedPolicy.constant(model.actions, 4)
        with pytest.raises(rp.InputError, match="4 steps, step 4 requested"):
            rsde.solve(model, still_flow(p.grid), p, policy, rsde.InitialLaw(), 8, 0)


class TestCost:
    def setup_inputs(self, seed=0, n=64):
        model = models.make_model("lq", mean_coupling=0.0)
        p = brownian_lift(seed, n=n)
        flow = still_flow(p.grid, seed=seed + 1)
        return model, p, flow

    def test_zero_costs(self):
        model, p, flow = self.setup_inputs()
        model.f = lambda t, x, mu, u: np.zeros(np.asarray(x).shape[:-1])
        model.g = lambda x, mu: np.zeros(np.asarray(x).shape[:-1])
        policy = mfg.RelaxedPolicy.constant(model.actions, 64, action_index=1)
        est = mfg.cost(model, flow, p, policy, 32, 0)
        assert est.value == 0.0 and est.error_bar == 0.0

    def test_unit_running_cost_gives_horizon(self):
        # T = 1, N = 64: the left sum of dt is exact in binary
        model, p, flow = self.setup_inputs()
        model.f = lambda t, x, mu, u: np.ones(np.asarray(x).shape[:-1])
        model.g = lambda x, mu: np.zeros(np.asarray(x).shape[:-1])
        policy = mfg.RelaxedPolicy.constant(model.actions, 64, action_index=1)
        est = mfg.cost(model, flow, p, policy, 16, 0)
        assert est.value == 1.0

    def test_pure_action_cost_zero_at_null_action(self):
        model, p, flow = self.setup_inputs()
        model.f = lambda t, x, mu, u: np.full(
            np.asarray(x).shape[:-1], float(np.asarray(u).reshape(-1)[0] ** 2)
        )
        model.g = lambda x, mu: np.zeros(np.asarray(x).shape[:-1])
        policy = mfg.RelaxedPolicy.constant(model.actions, 64, action_index=1)
        est = mfg.cost(model, flow, p, policy, 16, 0)
        assert est.value == 0.0

    def test_one_particle_is_refused(self):
        # its standard error would be NaN
        model, p, flow = self.setup_inputs(n=8)
        policy = mfg.RelaxedPolicy.constant(model.actions, 8, action_index=1)
        with pytest.raises(rp.InputError, match="needs two particles, got 1$"):
            mfg.cost(model, flow, p, policy, 1, 0)


    def test_recorded_weights_match_policy_lookup(self):
        # slow reference: look the mixture up again at every node
        model, p, flow = self.setup_inputs(n=16)
        lattice = np.linspace(-2.0, 2.0, 9)
        table = substream(3, "mg", "table").dirichlet(np.ones(3), size=(16, 9))
        policy = mfg.RelaxedPolicy(model.actions, lattice=lattice, table=table)
        sol = rsde.solve(model, flow, p, policy, rsde.InitialLaw(), 32, 5)
        x = sol.ensemble.Z
        totals = np.zeros(32)
        for n in range(16):
            weights = policy.mixture(n, x[:, n])
            for a in range(model.n_actions):
                totals += weights[:, a] * model.f(
                    p.grid.nodes[n], x[:, n], flow.cloud(n), model.actions[a]
                ) * p.grid.dt
        totals += model.g(x[:, 16], flow.cloud(16))
        est = mfg.cost(model, flow, p, policy, 32, 5)
        assert est.value == float(totals.mean())
        assert est.error_bar == float(totals.std(ddof=1) / np.sqrt(32))

    def test_overflowing_running_cost_is_refused(self):
        # 1e308 x^2 overflows for |x| > 1: the first particle whose summed
        # cost is inf is named
        _, p, flow = self.setup_inputs(n=16)
        model = models.make_model("lq", mean_coupling=0.0, cost_x=1e308)
        policy = mfg.RelaxedPolicy.constant(model.actions, 16, action_index=1)
        x = rsde.solve(model, flow, p, policy, rsde.InitialLaw(), 32, 5).ensemble.Z
        with np.errstate(over="ignore"):
            totals = sum(model.f(0.0, x[:, n], None, model.actions[1]) * p.grid.dt
                         for n in range(16))
            with pytest.raises(mfg.NumericError) as err:
                mfg.cost(model, flow, p, policy, 32, 5)
        first = int(np.isinf(totals).argmax())
        assert 0 < first and np.isinf(totals).sum() < 32
        assert str(err.value) == f"cost: non-finite total, particle {first}"

    def test_non_finite_total_names_its_particle_in_where(self):
        _, p, flow = self.setup_inputs(n=16)
        model = models.make_model("lq", mean_coupling=0.0, cost_x=1e308)
        policy = mfg.RelaxedPolicy.constant(model.actions, 16, action_index=1)
        with np.errstate(over="ignore"), pytest.raises(mfg.NumericError) as err:
            mfg.cost(model, flow, p, policy, 32, 5)
        particle = int(str(err.value).rsplit(" ", 1)[1])
        assert err.value.where == {"particle": particle}


class TestBestResponse:
    @pytest.mark.parametrize("key, message", [
        ("cost_x", "non-finite Q value at step 7, action 0, lattice node 0"),
        ("cost_g", "non-finite terminal value at step 8, lattice node 0"),
    ], ids=["q-value", "terminal-value"])
    def test_overflowing_cost_names_step_node_and_action(self, key, message):
        # 1e308 x^2 is inf at the lattice's outer nodes, x = -4 first
        model = models.make_model("lq", mean_coupling=0.0, **{key: 1e308})
        p = brownian_lift(3, n=8)
        with np.errstate(over="ignore"), pytest.raises(
                mfg.NumericError, match=f"^best response: {message}$"):
            mfg.best_response(model, still_flow(p.grid, seed=4), p,
                              mfg.DpSettings(-4.0, 4.0, 9))

    def test_non_finite_q_value_names_where(self):
        model = models.make_model("lq", mean_coupling=0.0, cost_x=1e308)
        p = brownian_lift(3, n=8)
        with np.errstate(over="ignore"), pytest.raises(mfg.NumericError) as err:
            mfg.best_response(model, still_flow(p.grid, seed=4), p,
                              mfg.DpSettings(-4.0, 4.0, 9))
        assert err.value.where == {"step": 7, "action": 0, "lattice_node": 0}

    def test_drift_free_cost_minimizer(self):
        # b does not depend on u and f = u^2 + ...: mass sits on u = 0
        model = models.make_model("lq", mean_coupling=0.0)
        model.b = lambda t, x, mu, u: np.zeros_like(np.asarray(x, dtype=float))
        p = brownian_lift(3, n=8)
        flow = still_flow(p.grid, seed=4)
        br = mfg.best_response(
            model, flow, p, mfg.DpSettings(-3.0, 3.0, 31), rsde.InitialLaw(), 0
        )
        null_idx = int(np.abs(model.actions[:, 0]).argmin())
        assert np.all(br.policy.table[:, :, null_idx] == 1.0)

    def toy_inputs(self):
        # integer lattice, unit steps: transitions stay exactly on nodes
        model = models.make_model(
            "lq", sigma=0.0, sigma0=None, mean_coupling=0.0,
            cost_u=0.0, cost_x=0.0, cost_g=1.0,
        )
        grid = rp.TimeGrid(3.0, 3)
        p = rp.smooth_lift(np.zeros(4), grid)
        flow = still_flow(grid, seed=5)
        return model, p, flow

    def test_toy_against_exhaustive_enumeration(self):
        model, p, flow = self.toy_inputs()
        lo, hi, count = -5.0, 5.0, 11
        br = mfg.best_response(
            model, flow, p,
            mfg.DpSettings(lo, hi, count, escape_tolerance=0.2),
            rsde.InitialLaw(), 0,
        )
        lattice = br.lattice
        actions = model.actions[:, 0]
        # oracle: minimize terminal x^2 over all open-loop action sequences,
        # scanning actions in index order so ties resolve like the sweep
        for i, x0 in enumerate(lattice):
            if abs(x0) > 2.0:
                continue  # all three-step paths from here stay on the lattice
            best_val, best_first = np.inf, None
            for seq in itertools.product(range(3), repeat=3):
                x = x0
                for a in seq:
                    x = x + actions[a]
                val = x**2
                if val < best_val - 1e-12:
                    best_val, best_first = val, seq[0]
            assert br.values[0, i] == pytest.approx(best_val, abs=1e-10)
            chosen = br.policy.table[0, i].argmax()
            assert chosen == best_first
        # far from zero the drive is forced toward the origin
        for i, x0 in enumerate(lattice):
            if abs(x0) >= 3.0:
                chosen = br.policy.table[0, i].argmax()
                assert np.sign(actions[chosen]) == -np.sign(x0)

    def test_small_noise_close_to_deterministic_limit(self):
        # small sigma perturbs values by O(sigma^2) and can only re-break
        # exact ties; where the drive is forced it matches the sigma = 0 case
        model, p, flow = self.toy_inputs()
        model_noisy = models.make_model(
            "lq", sigma=0.01, sigma0=None, mean_coupling=0.0,
            cost_u=0.0, cost_x=0.0, cost_g=1.0,
        )
        settings = mfg.DpSettings(-5.0, 5.0, 11, escape_tolerance=0.2)
        a = mfg.best_response(model, flow, p, settings, rsde.InitialLaw(), 0)
        b = mfg.best_response(model_noisy, flow, p, settings, rsde.InitialLaw(), 0)
        assert np.abs(a.values - b.values).max() <= 0.05
        forced = np.abs(a.lattice) >= 3.0
        np.testing.assert_array_equal(
            a.policy.table[0, forced], b.policy.table[0, forced]
        )

    def test_static_state_closed_form_value(self):
        # b = sigma = 0, no rough term, g = 0: V(t, x) = f(x, u*) (T - t)
        model = models.make_model(
            "lq", sigma=0.0, sigma0=None, mean_coupling=0.0, cost_g=0.0,
            cost_u=1.0, cost_x=0.7,
        )
        model.b = lambda t, x, mu, u: np.zeros_like(np.asarray(x, dtype=float))
        grid = rp.TimeGrid(2.0, 16)
        p = rp.smooth_lift(np.zeros(17), grid)
        flow = still_flow(grid, seed=6)
        br = mfg.best_response(
            model, flow, p, mfg.DpSettings(-2.0, 2.0, 21), rsde.InitialLaw(), 0
        )
        lattice = br.lattice
        for n in (0, 5, 12):
            expect = 0.7 * lattice**2 * (2.0 - grid.nodes[n])
            np.testing.assert_allclose(br.values[n], expect, atol=1e-8)

    def test_affine_cost_invariance(self):
        model = models.make_model("tanh-interaction")
        p = brownian_lift(7, n=12)
        flow = still_flow(p.grid, seed=8)
        base = mfg.best_response(
            model, flow, p, mfg.DpSettings(-3.0, 3.0, 41), rsde.InitialLaw(), 0
        )
        scaled = models.make_model("tanh-interaction")
        a, c1, c2 = 2.5, 0.7, -0.3
        f0, g0 = model.f, model.g
        scaled.f = lambda t, x, mu, u: a * f0(t, x, mu, u) + c1
        scaled.g = lambda x, mu: a * g0(x, mu) + c2
        other = mfg.best_response(
            scaled, flow, p, mfg.DpSettings(-3.0, 3.0, 41), rsde.InitialLaw(), 0
        )
        np.testing.assert_array_equal(base.policy.table, other.policy.table)

    def test_lattice_escape_strict(self):
        model = models.make_model("lq", mean_coupling=0.0)
        p = brownian_lift(9, n=8)
        flow = still_flow(p.grid, seed=9)
        tiny = mfg.DpSettings(-0.05, 0.05, 5, strict=True)
        with pytest.raises(mfg.LatticeEscapeError):
            mfg.best_response(model, flow, p, tiny, rsde.InitialLaw(), 0)


class TestExploitability:
    @pytest.mark.parametrize("policy, solves", [("own", 1), ("one-entry-changed", 2)])
    def test_matches_two_solve_reference(self, monkeypatch, policy, solves):
        # the policy cost stands in for the response cost only when the best
        # response is the policy itself
        model = models.make_model("lq")
        p = brownian_lift(22, n=8)
        flow = still_flow(p.grid, seed=23)
        settings = mfg.DpSettings(-4.0, 4.0, 41)
        br = mfg.best_response(model, flow, p, settings, rsde.InitialLaw(), 3)
        pol = br.policy
        if policy == "one-entry-changed":
            table = pol.table.copy()
            table[0, 20] = np.roll(table[0, 20], 1)
            pol = mfg.RelaxedPolicy(model.actions, lattice=br.lattice, table=table)
        counts = count_calls(monkeypatch)
        rep = mfg.exploitability(model, flow, p, pol, 64, 3, settings)
        assert counts == {"cost": solves, "solve": solves, "best_response": 1}
        ref = ref_exploitability(model, flow, p, pol, 64, 3, settings)
        assert (rep.value, rep.raw, rep.error_bar, rep.policy_cost,
                rep.response_cost) == ref
        np.testing.assert_array_equal(rep.best_response.policy.table, br.policy.table)
        if policy == "own":
            assert rep.raw == 0.0 and rep.response_cost is rep.policy_cost

    def test_best_response_self_gap_zero(self):
        model = models.make_model("lq", mean_coupling=0.0)
        p = brownian_lift(10, n=16)
        flow = still_flow(p.grid, seed=11)
        settings = mfg.DpSettings(-4.0, 4.0, 41)
        br = mfg.best_response(model, flow, p, settings, rsde.InitialLaw(), 5)
        rep = mfg.exploitability(model, flow, p, br.policy, 64, 5, settings)
        assert rep.raw == 0.0  # identical policy, shared draws
        assert rep.value <= 2.0 * rep.error_bar

    def test_zero_cost_model_exact_zero(self):
        model = models.make_model("lq", mean_coupling=0.0)
        model.f = lambda t, x, mu, u: np.zeros(np.asarray(x).shape[:-1])
        model.g = lambda x, mu: np.zeros(np.asarray(x).shape[:-1])
        p = brownian_lift(12, n=8)
        flow = still_flow(p.grid, seed=13)
        pol = mfg.RelaxedPolicy.constant(model.actions, 8, action_index=0)
        rep = mfg.exploitability(
            model, flow, p, pol, 32, 1,
            mfg.DpSettings(-3.0, 3.0, 21, escape_tolerance=0.2),
        )
        assert rep.raw == 0.0 and rep.value == 0.0

    def test_second_best_swap_detected(self):
        # toy with g = x^2: swapping every argmin to the runner-up must cost
        model = models.make_model(
            "lq", sigma=0.05, sigma0=None, mean_coupling=0.0,
            cost_u=0.0, cost_x=0.0, cost_g=1.0,
        )
        grid = rp.TimeGrid(3.0, 3)
        p = rp.smooth_lift(np.zeros(4), grid)
        flow = still_flow(grid, seed=14)
        settings = mfg.DpSettings(-6.0, 6.0, 25, escape_tolerance=0.2)
        br = mfg.best_response(model, flow, p, settings, rsde.InitialLaw(), 2)
        table = br.policy.table.copy()
        swapped = np.zeros_like(table)
        for n in range(table.shape[0]):
            for i in range(table.shape[1]):
                order = table[n, i].argmax()
                runner = 0 if order != 0 else 1
                swapped[n, i, runner] = 1.0
        bad = mfg.RelaxedPolicy(model.actions, lattice=br.lattice, table=swapped)
        rep = mfg.exploitability(
            model, flow, p, bad, 512, 2, settings,
            init=rsde.InitialLaw("normal", 0.0, 2.0),
        )
        assert rep.raw > 2.0 * rep.error_bar


class TestFixedPoint:
    def test_measure_independent_converges_first_sweep(self):
        model = models.make_model("no-interaction")
        p = brownian_lift(15, n=16)
        res = mfg.fixed_point(
            model, p, rsde.InitialLaw(), particles=128, seed=3,
            max_iters=5, tol_w2=1e-9, tol_exp=1e-2,
            settings=mfg.DpSettings(-4.0, 4.0, 41),
        )
        assert res.report.converged
        assert res.report.converged_at == 1
        assert res.report.iterations[0].w2_update == 0.0
        assert res.report.iterations[0].exploitability == 0.0

    def test_weak_coupling_contracts(self):
        model = models.make_model("lq")  # mean coupling 0.1
        p = brownian_lift(16, n=32)
        res = mfg.fixed_point(
            model, p, rsde.InitialLaw(), particles=256, seed=4,
            max_iters=4, tol_w2=0.0, tol_exp=0.0,
            settings=mfg.DpSettings(-4.0, 4.0, 41),
        )
        d = [it.w2_update for it in res.report.iterations]
        nonzero = [v for v in d if v > 1e-14]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b < 0.5 * a

    def test_nonconvergence_reported_cleanly(self):
        model = models.make_model("lq", mean_coupling=5.0)
        p = brownian_lift(17, n=16)
        res = mfg.fixed_point(
            model, p, rsde.InitialLaw(), particles=64, seed=5,
            max_iters=2, tol_w2=1e-12, tol_exp=1e-12,
            settings=mfg.DpSettings(-8.0, 8.0, 41),
        )
        assert not res.report.converged
        assert res.report.converged_at is None
        assert len(res.report.iterations) == 2

    def test_final_flow_is_consistent_with_solution(self):
        model = models.make_model("lq")
        p = brownian_lift(18, n=16)
        res = mfg.fixed_point(
            model, p, rsde.InitialLaw(), particles=64, seed=6,
            max_iters=3, tol_w2=1e-3, tol_exp=5e-2,
            settings=mfg.DpSettings(-4.0, 4.0, 41),
        )
        np.testing.assert_array_equal(res.flow.Y, res.solution.ensemble.Z)

    def test_domain_certificates_recorded(self):
        model = models.make_model("lq")
        p = brownian_lift(19, n=16)
        res = mfg.fixed_point(
            model, p, rsde.InitialLaw(), particles=64, seed=7,
            max_iters=2, tol_w2=0.0, tol_exp=0.0,
            settings=mfg.DpSettings(-4.0, 4.0, 41),
            domain_bound=50.0, domain_epsilon=0.5, domain_windows=4,
        )
        assert all(it.domain_member for it in res.report.iterations)
        assert all(np.isfinite(it.domain_worst) for it in res.report.iterations)

    def test_undamped_equals_lambda_one(self):
        model = models.make_model("lq")
        p = brownian_lift(20, n=8)
        kw = dict(
            particles=32, seed=8, max_iters=2, tol_w2=0.0, tol_exp=0.0,
            settings=mfg.DpSettings(-5.0, 5.0, 26),
        )
        a = mfg.fixed_point(model, p, rsde.InitialLaw(), lambda_mix=1.0, **kw)
        b = mfg.fixed_point(model, p, rsde.InitialLaw(), lambda_mix=1.0, **kw)
        np.testing.assert_array_equal(a.flow.Y, b.flow.Y)
        for x, y in zip(a.report.iterations, b.report.iterations):
            assert x.w2_update == y.w2_update


# mean coupling, lambda_mix, and the cost solves of the four sweeps'
# exploitabilities: one each while the best response is the sweep's policy;
# at coupling 1.5 it differs in three of the four sweeps
SWEEP_CASES = {
    "undamped": (0.1, 1.0, 4),
    "damped": (0.1, 0.5, 4),
    "response-differs": (1.5, 1.0, 7),
}


class TestSweepReuse:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_matches_reference_loop(self, monkeypatch, case):
        coupling, lam, cost_solves = SWEEP_CASES[case]
        model = models.make_model("lq", mean_coupling=coupling)
        p = brownian_lift(21, n=8)
        sweeps = 4
        kw = dict(
            particles=32, seed=9, lambda_mix=lam, max_iters=sweeps,
            settings=mfg.DpSettings(-4.0, 4.0, 41), domain_bound=50.0,
            domain_epsilon=0.5, domain_windows=2, exploit_particles=48,
        )
        counts = count_calls(monkeypatch)
        res = mfg.fixed_point(model, p, rsde.InitialLaw(), tol_w2=0.0, tol_exp=0.0,
                              **kw)
        got = dict(counts)
        counts.clear()
        records, flow, br, sol = ref_fixed_point(model, p, rsde.InitialLaw(), **kw)
        # a DP and a solve per sweep plus those of each exploitability,
        # bootstrap included; with lambda_mix = 1 every sweep after the first
        # takes exploitability's best response and, as exploit_particles >=
        # particles, the first rows of its response solve
        reused = sweeps - 1 if lam == 1.0 else 0
        assert got == {"best_response": 2 * sweeps + 1 - reused,
                       "cost": cost_solves,
                       "solve": 1 + sweeps + cost_solves - reused}
        assert counts == {"best_response": 2 * sweeps + 1, "cost": 2 * sweeps,
                          "solve": 3 * sweeps + 1}
        assert res.report.iterations == records
        np.testing.assert_array_equal(res.flow.Y, flow.Y)
        np.testing.assert_array_equal(res.flow.Yp, flow.Yp)
        np.testing.assert_array_equal(res.policy.table, br.policy.table)
        np.testing.assert_array_equal(res.values, br.values)
        np.testing.assert_array_equal(res.solution.ensemble.Z, sol.ensemble.Z)

    def test_fewer_exploitability_particles_solve_afresh(self, monkeypatch):
        # exploitability's solve has fewer rows than a sweep needs: sweeps
        # take its best response but make their own solve
        model = models.make_model("lq")
        p = brownian_lift(21, n=8)
        sweeps = 3
        kw = dict(
            particles=32, seed=9, lambda_mix=1.0, max_iters=sweeps,
            settings=mfg.DpSettings(-4.0, 4.0, 41), domain_bound=50.0,
            domain_epsilon=0.5, domain_windows=2, exploit_particles=24,
        )
        counts = count_calls(monkeypatch)
        res = mfg.fixed_point(model, p, rsde.InitialLaw(), tol_w2=0.0, tol_exp=0.0,
                              **kw)
        assert dict(counts) == {"best_response": sweeps + 2, "cost": sweeps,
                                "solve": 1 + 2 * sweeps}
        records, flow, br, sol = ref_fixed_point(model, p, rsde.InitialLaw(), **kw)
        assert res.report.iterations == records
        np.testing.assert_array_equal(res.flow.Y, flow.Y)
        np.testing.assert_array_equal(res.solution.ensemble.Z, sol.ensemble.Z)

    def test_benchmark_shape_reuses_solves_and_draws(self, monkeypatch):
        # the fixed-point benchmark's call: lq, N = 64, P = 1000, five sweeps
        # against a 2000-particle exploitability, domain windows of 16 anchors.
        # Each exploitability makes one cost solve (the best response is the
        # sweep's policy); sweeps 2-5 take their DP and their solve from it, and
        # the five domain checks draw each anchor's increments once
        seed, sweeps = 11, 5
        grid = rp.TimeGrid(1.0, 64)
        dw = substream(seed, "acc7", "bm").normal(0.0, np.sqrt(grid.dt), size=(64, 1))
        counts = count_calls(monkeypatch)
        inner = []
        draw = rsde.draw_wiener

        def counted_draw(*args):
            if args[5:6] == ("inner",):
                inner.append(args[-1])
            return draw(*args)

        monkeypatch.setattr(rsde, "draw_wiener", counted_draw)
        res = mfg.fixed_point(
            models.make_model("lq"), rp.ito_lift(dw, grid), rsde.InitialLaw(),
            particles=1000, seed=seed, max_iters=sweeps, tol_w2=0.0, tol_exp=0.0,
            settings=mfg.DpSettings(-4.0, 4.0, 81), domain_bound=12.0,
            domain_epsilon=0.25, domain_inner=2, domain_windows=6,
            exploit_particles=2000,
        )
        assert len(res.report.iterations) == sweeps
        reused = sweeps - 1
        assert dict(counts) == {"best_response": 2 * sweeps + 1 - reused,
                                "cost": sweeps,
                                "solve": 1 + sweeps + sweeps - reused}
        assert counts["solve"] == 7 and counts["best_response"] == 7
        assert len(inner) == len(set(inner)) == 16


def reference_best_response(coeffs, flow, p, settings, init=None, seed=0):
    """best_response with its coefficients evaluated inside the backward
    loop, one call per step (and per action): the loop the step groups
    replaced.  Returns (values, table, escape_rate)."""
    init = init or rsde.InitialLaw()
    lo, hi = settings.lattice_lo, settings.lattice_hi
    lattice = np.linspace(lo, hi, settings.lattice_nodes)
    grid = p.grid
    nodes_t = grid.nodes
    dt = grid.dt
    cvf, correction = rsde._rough_coefficient(coeffs, flow)
    db, bb = np.diff(p.first_level, axis=0), p.step_second()
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(settings.gh_order)
    gh_w = gh_w / gh_w.sum()
    n_lat = len(lattice)
    values = np.empty((grid.steps + 1, n_lat))
    values[grid.steps] = coeffs.g(lattice[:, None], flow.cloud(grid.steps))
    table = np.zeros((grid.steps, n_lat, coeffs.n_actions))
    escaped = 0.0
    total_mass = 0.0
    xcol = lattice[:, None]
    for n in range(grid.steps - 1, -1, -1):
        cloud = flow.cloud(n)
        t = nodes_t[n]
        sig = coeffs.sigma(t, xcol, cloud)[:, 0, 0]
        forcing = np.zeros(n_lat)
        if cvf is not None:
            fx, fhat = rsde._pair(cvf, correction, n, xcol)
            forcing = fx[:, 0, 0] * db[n, 0] + fhat[:, 0, 0, 0] * bb[n, 0, 0]
        q = np.empty((coeffs.n_actions, n_lat))
        for a in range(coeffs.n_actions):
            drift = coeffs.b(t, xcol, cloud, coeffs.actions[a])[:, 0]
            base = lattice + drift * dt + forcing
            nxt = base[:, None] + np.sqrt(dt) * sig[:, None] * gh_x[None, :]
            escaped += float((((nxt < lo) | (nxt > hi)) @ gh_w).sum())
            total_mass += n_lat
            ev = np.interp(nxt, lattice, values[n + 1]) @ gh_w
            q[a] = coeffs.f(t, xcol, cloud, coeffs.actions[a]) * dt + ev
        best = q.argmin(axis=0)
        values[n] = q[best, np.arange(n_lat)]
        table[n, np.arange(n_lat), best] = 1.0
    return values, table, escaped / max(total_mass, 1.0)


def reference_cost_totals(coeffs, flow, sol, policy):
    """cost's per-particle totals with f evaluated per step and action, in
    the order they are added: the loop the step groups replaced."""
    grid = sol.grid
    x = sol.ensemble.Z
    weights = policy.mixture(np.arange(grid.steps), x[:, :-1])
    totals = np.zeros(x.shape[0])
    nodes = grid.nodes
    for n in range(grid.steps):
        cloud = flow.cloud(n)
        for a in range(coeffs.n_actions):
            w = weights[:, n, a]
            if np.any(w):
                f = coeffs.f(nodes[n], x[:, n], cloud, coeffs.actions[a])
                totals += w * f * grid.dt
    return totals + coeffs.g(x[:, grid.steps], flow.cloud(grid.steps))


def moving_flow(model, p, seed):
    """A flow that differs from node to node: a solve's own particles."""
    policy = mfg.RelaxedPolicy.constant(model.actions, p.grid.steps, action_index=1)
    return mf.from_solution(rsde.solve(model, still_flow(p.grid, seed=seed), p, policy,
                                       rsde.InitialLaw(), 40, seed))


class TestGroupedSteps:
    """The DP tables and the running cost from one call per coefficient and
    action, against the per-step loops."""

    @pytest.mark.parametrize("name", sorted(models.list_models()))
    def test_best_response_matches_per_step_loop(self, name):
        model = models.make_model(name)
        p = brownian_lift(31, n=12)
        flow = moving_flow(model, p, 32)
        settings = mfg.DpSettings(lattice_lo=-4.0, lattice_hi=4.0, lattice_nodes=23)
        want = reference_best_response(model, flow, p, settings)
        # the backward loop calls no model function
        calls = collections.Counter()
        for key in ("b", "sigma", "f", "sigma0", "grad_sigma0", "sigma0_dmu"):
            fn = getattr(model, key)
            if fn is not None:
                def counted(*args, _fn=fn, _key=key):
                    calls[_key] += 1
                    return _fn(*args)

                setattr(model, key, counted)
        br = mfg.best_response(model, flow, p, settings)
        np.testing.assert_array_equal(br.values, want[0])
        np.testing.assert_array_equal(br.policy.table, want[1])
        assert br.escape_mass == want[2]
        # per action one grouped b and f call and one check of its first
        # step; sigma once and its check
        assert calls["b"] == calls["f"] == 2 * model.n_actions
        assert calls["sigma"] == 2

    @pytest.mark.parametrize("name", sorted(models.list_models()))
    @pytest.mark.parametrize("table", ["mixed", "one-hot", "constant"])
    def test_cost_matches_per_step_loop(self, name, table):
        model = models.make_model(name)
        p = brownian_lift(33, n=12)
        flow = moving_flow(model, p, 34)
        lattice = np.linspace(-1.5, 1.5, 7)
        weights = substream(35, "mg", "cost", table).uniform(size=(12, 7, 3))
        if table == "one-hot":
            weights = (weights == weights.max(axis=2, keepdims=True)).astype(float)
        policy = mfg.RelaxedPolicy(model.actions, lattice=lattice,
                                   table=weights / weights.sum(axis=2, keepdims=True))
        if table == "constant":
            policy = mfg.RelaxedPolicy.constant(model.actions, 12, action_index=2)
        est = mfg.cost(model, flow, p, policy, 30, 6)
        totals = reference_cost_totals(model, flow, est.solution, policy)
        assert est.value == float(totals.mean())
        assert est.error_bar == float(totals.std(ddof=1) / np.sqrt(30))
