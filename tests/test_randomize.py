import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from roughmfg import controlled as ct
from roughmfg import measureflow as mf
from roughmfg import mfg
from roughmfg import models
from roughmfg import randomize as rz
from roughmfg import roughpath as rp
from roughmfg import rsde
from roughmfg import vectorfield as vf
from roughmfg.rng import derive_seed, substream
from shared_models import sin_mean_model, t_branch_model


def gaussian_model(c=0.6, sigma=0.0):
    # drift-free, constant rough loading: X_T = X_0 + sigma W_T + c B0_T
    return models.make_model(
        "lq", actions=(0.0,), sigma=sigma, mean_coupling=0.0, sigma0=c,
        cost_u=0.0, cost_x=0.0, cost_g=0.0,
    )


def null_policy(model, steps):
    return mfg.RelaxedPolicy.constant(model.actions, steps, action_index=0)


def delta_policy(model, steps):
    return mfg.RelaxedPolicy.constant(model.actions, steps, action_index=1)


def axis_zero_model(name):
    """Gaussian lq model whose coefficient `name` reads the cloud mean over
    axis 0: right for a plain (P, d) cloud, but on a grouped (G, P, d) one it
    averages across the groups, silently."""
    model = gaussian_model(c=0.6, sigma=0.3)

    def level(mu):
        return np.tanh(np.asarray(mu).mean(axis=0)[0])

    if name == "b":
        model.b = lambda t, x, mu, u: np.full_like(x, level(mu))
    else:  # d = l = k = 1
        setattr(model, name, lambda t, x, mu: np.broadcast_to(
            0.5 + 0.1 * level(mu), np.shape(x)[:-1] + (1, 1)))
    return model


def two_driver_model():
    """tanh-interaction with l = 2 idiosyncratic drivers, each loading on the
    state: both bridge passes' (N, rows, l) increment blocks then carry an
    l axis."""
    model = models.make_model("tanh-interaction")
    model.l = 2
    model.sigma = lambda t, x, mu: np.stack(
        [0.4 + 0.1 * np.tanh(x), 0.3 * np.cos(x)], axis=-1)
    return model


def random_flow(seed, grid, particles=48, d=1, k=1):
    rng = substream(seed, "rz", "flow")
    y = rng.normal(size=(particles, grid.steps + 1, d)) * 0.5
    yp = rng.normal(size=(particles, grid.steps + 1, d, k)) * 0.3
    return mf.MeasureFlow(grid, y, yp)


def ref_pathwise_terminals(coeffs, policy, init, grid, particles, samples, seed,
                           flow=None, w_salt=0, inner_refine=1):
    """Slow reference of the frozen-flow pass: one rsde.solve per sample."""
    if flow is None:
        cloud = rsde.draw_initial(seed, init, particles, coeffs.d)
        flow = mf.constant_flow(grid, cloud, coeffs.k)
    out = np.empty((samples, particles, coeffs.d))
    for s in range(samples):
        lift = rz.sample_lift(grid, coeffs.k, seed, s, inner_refine)
        sample_seed = derive_seed(seed, "randomize", "pathwise", s, w_salt)
        sol = rsde.solve(coeffs, flow, lift, policy, init, particles, sample_seed)
        out[s] = sol.ensemble.Z[:, grid.steps]
    return out


def ref_joint_terminals(coeffs, policy, init, grid, particles, samples, seed,
                        flow=None):
    """Slow reference of joint_simulate: nodes outer, samples inner, and one
    (S, P, N, l) draw of the idiosyncratic increments."""
    d, l, k = coeffs.d, coeffs.l, coeffs.k
    nodes = grid.nodes
    x = rsde.draw_initial(seed, init, samples * particles, d).reshape(
        samples, particles, d
    )
    dw = substream(seed, "randomize", "joint-W").normal(
        0.0, np.sqrt(grid.dt), size=(samples, particles, grid.steps, l)
    )
    db0 = np.stack([rz.common_increments(grid, k, seed, s) for s in range(samples)])
    for n in range(grid.steps):
        t = nodes[n]
        for s in range(samples):
            xs = x[s]
            cloud = flow.cloud(n) if flow is not None else xs
            weights = rsde._mixture_weights(policy, n, xs, coeffs.n_actions)
            drift = rsde._drift_mixture(coeffs, t, xs, cloud, weights)
            nxt = xs + drift * (nodes[n + 1] - t)
            nxt = nxt + np.einsum("pdl,pl->pd", coeffs.sigma(t, xs, cloud), dw[s, :, n])
            if coeffs.sigma0 is not None:
                nxt = nxt + np.einsum("pdk,k->pd", coeffs.sigma0(t, xs, cloud), db0[s, n])
            rsde.check_blowup(nxt, n)
            x[s] = nxt
    return x


class TestSampleLift:
    def test_reproducible(self):
        grid = rp.TimeGrid(1.0, 16)
        a = rz.sample_lift(grid, 2, seed=5, sample=3)
        b = rz.sample_lift(grid, 2, seed=5, sample=3)
        np.testing.assert_array_equal(a.first_level, b.first_level)
        np.testing.assert_array_equal(a.prefix, b.prefix)

    def test_distinct_across_seeds_and_samples(self):
        grid = rp.TimeGrid(1.0, 8)
        a = rz.sample_lift(grid, 1, seed=1, sample=0)
        b = rz.sample_lift(grid, 1, seed=2, sample=0)
        c = rz.sample_lift(grid, 1, seed=1, sample=1)
        assert not np.array_equal(a.first_level, b.first_level)
        assert not np.array_equal(a.first_level, c.first_level)

    def test_chen_defect_and_bracket_mode(self):
        grid = rp.TimeGrid(1.0, 32)
        p = rz.sample_lift(grid, 3, seed=7)
        scale = 1.0 + np.abs(p.increments()).max() ** 2
        assert rp.chen_defect(p) <= 1e-12 * scale
        assert p.bracket_mode == rp.BRACKET_ITO

    def test_inner_refinement_keeps_first_level(self):
        # bridge-refined lift: same path at solver nodes (up to round-off),
        # different second level (that gap is the discretization bias signal)
        grid = rp.TimeGrid(1.0, 16)
        plain = rz.sample_lift(grid, 1, seed=4, sample=2)
        fine = rz.sample_lift(grid, 1, seed=4, sample=2, inner_refine=2)
        np.testing.assert_allclose(
            fine.first_level, plain.first_level, atol=1e-14
        )
        assert fine.grid == plain.grid
        scale = 1.0 + np.abs(fine.increments()).max() ** 2
        assert rp.chen_defect(fine) <= 1e-12 * scale
        assert not np.allclose(fine.prefix, plain.prefix)

    def test_inner_refinement_validates_power_of_two(self):
        grid = rp.TimeGrid(1.0, 4)
        with pytest.raises(rp.InputError):
            rz.sample_lift(grid, 1, seed=0, inner_refine=3)

    def test_second_level_mean_zero(self):
        # Ito iterated integrals have mean zero
        grid = rp.TimeGrid(1.0, 8)
        m = 10_000
        acc = 0.0
        for s in range(m):
            acc += rz.sample_lift(grid, 1, seed=11, sample=s).second(0, 8)[0, 0]
        assert abs(acc / m) <= 4.0 * 1.0 / np.sqrt(m)


class TestJointSimulate:
    def test_additive_gaussian_variance(self):
        # b = sigma = 0, sigma0 = c: Var(X_T) = Var(X_0) + c^2 T
        c = 0.5
        model = gaussian_model(c=c)
        grid = rp.TimeGrid(1.0, 32)
        init = rsde.InitialLaw("normal", 0.0, 0.3)
        out = rz.joint_simulate(
            model, null_policy(model, 32), init, grid, particles=200,
            samples=400, seed=3,
        )
        var = out.pooled_second[0, 0] - out.pooled_mean[0] ** 2
        expect = 0.3**2 + c**2
        # 3 sigma of the variance estimate at this sample size
        assert abs(var - expect) <= 3.0 * expect * np.sqrt(2.0 / 400)

    def test_deterministic_start_conditional_mean_exact(self):
        c = 1.0
        model = gaussian_model(c=c)
        grid = rp.TimeGrid(1.0, 16)
        init = rsde.InitialLaw("constant", 0.7)
        out = rz.joint_simulate(
            model, null_policy(model, 16), init, grid, particles=32,
            samples=8, seed=4,
        )
        for s in range(8):
            b0_t = rz.common_increments(grid, 1, 4, s).sum()
            assert out.cond_means[s, 0] == pytest.approx(0.7 + c * b0_t, abs=1e-12)

    def test_aggregation_identity(self):
        model = gaussian_model(c=0.4, sigma=0.5)
        grid = rp.TimeGrid(1.0, 8)
        out = rz.joint_simulate(
            model, null_policy(model, 8), rsde.InitialLaw(), grid,
            particles=64, samples=16, seed=5,
        )
        np.testing.assert_allclose(
            out.pooled_mean, out.cond_means.mean(axis=0), atol=1e-15
        )
        np.testing.assert_allclose(
            out.pooled_second, out.cond_second.mean(axis=0), atol=1e-15
        )


    @pytest.mark.parametrize("n_actions", [2, 4])
    def test_policy_action_count_must_match_model(self, n_actions):
        # lq has 3 actions: a 4-action policy must not drop the mass on its
        # extra action, a 2-action one must not fail with a bare IndexError
        model = models.make_model("lq")
        actions = np.linspace(-1.0, 1.0, n_actions)[:, None]
        policy = mfg.RelaxedPolicy.constant(actions, 8, action_index=n_actions - 1)
        with pytest.raises(rp.InputError, match=f"mixes {n_actions} actions, model has 3"):
            rz.joint_simulate(model, policy, rsde.InitialLaw(), rp.TimeGrid(1.0, 8),
                              particles=8, samples=2, seed=0)

    @pytest.mark.parametrize("case", ["conditional", "external", "sin-mean",
                                      "two-drivers"])
    def test_matches_node_outer_reference(self, case):
        grid = rp.TimeGrid(1.0, 12)
        model = models.make_model("tanh-interaction")
        flow = None
        if case == "external":
            flow = random_flow(2, grid)
        elif case == "sin-mean":
            model = sin_mean_model()
        elif case == "two-drivers":
            model = two_driver_model()
        policy = mfg.RelaxedPolicy.constant(model.actions, 12, action_index=2)
        init = rsde.InitialLaw("normal", 0.2, 0.6)
        args = (model, policy, init, grid, 40, 5, 6)
        out = rz.joint_simulate(*args, flow=flow)
        np.testing.assert_array_equal(out.terminal, ref_joint_terminals(*args, flow=flow))
        assert out.mode == ("external" if case == "external" else "conditional")

    @pytest.mark.parametrize("blocks", ["3-3-1", "one"])
    @pytest.mark.parametrize("case", ["conditional", "external", "sin-mean"])
    def test_sample_blocks_match_node_outer_reference(self, monkeypatch, case, blocks):
        # 40 particles x 12 steps x l = 1: 480 increments per sample
        monkeypatch.setattr(rz, "JOINT_INCREMENTS", {"3-3-1": 3 * 480 + 479,
                                                     "one": 1}[blocks])
        grid = rp.TimeGrid(1.0, 12)
        model = sin_mean_model() if case == "sin-mean" else models.make_model(
            "tanh-interaction")
        flow = random_flow(3, grid) if case == "external" else None
        policy = mfg.RelaxedPolicy.constant(model.actions, 12, action_index=2)
        args = (model, policy, rsde.InitialLaw("normal", -0.1, 0.7), grid, 40, 7, 9)
        out = rz.joint_simulate(*args, flow=flow)
        want = ref_joint_terminals(*args, flow=flow)
        np.testing.assert_array_equal(out.terminal, want)

    @pytest.mark.parametrize("increments", [rz.JOINT_INCREMENTS, 1],
                             ids=["one-block", "blocks-of-one"])
    @pytest.mark.parametrize("name", ["b", "sigma", "sigma0"])
    def test_axis_zero_coefficient_rejected(self, monkeypatch, name, increments):
        # a one-sample block is a (1, P, d) cloud, where axis 0 is no
        # particle axis either
        monkeypatch.setattr(rz, "JOINT_INCREMENTS", increments)
        model = axis_zero_model(name)
        with pytest.raises(rp.InputError, match=f"coefficient {name} of model"):
            rz.joint_simulate(model, null_policy(model, 8),
                              rsde.InitialLaw("normal", 0.0, 0.5),
                              rp.TimeGrid(1.0, 8), 8, 3, 4)

    def test_sample_draws_equal_one_block_draw(self):
        # S draws of (P, N, l) in sample order are the one (S, P, N, l) draw
        one = substream(3, "randomize", "joint-W").normal(0.0, 0.2, size=(4, 7, 5, 2))
        rng = substream(3, "randomize", "joint-W")
        each = np.stack([rng.normal(0.0, 0.2, size=(7, 5, 2)) for _ in range(4)])
        np.testing.assert_array_equal(each, one)


class TestGroupedClouds:
    """Registry coefficients on a grouped (G, P, d) cloud equal G plain
    calls, each group against its own cloud, bit for bit."""

    @pytest.mark.parametrize("name", sorted(models.list_models()))
    def test_matches_per_group_calls(self, name):
        model = models.make_model(name)
        d, k = model.d, model.k
        rng = substream(5, "grouped", name)
        x = rng.normal(size=(3, 6, d))
        cloud = rng.normal(size=(3, 9, d)) + np.arange(3.0)[:, None, None]
        v = rng.normal(size=(3, 9, d, k))
        calls = {
            "sigma": lambda x, mu, v: model.sigma(0.3, x, mu),
            "sigma0": lambda x, mu, v: model.sigma0(0.3, x, mu),
            "grad_sigma0": lambda x, mu, v: model.grad_sigma0(0.3, x, mu),
            "sigma0_dmu": lambda x, mu, v: model.sigma0_dmu(0.3, x, mu, v),
        }
        for a, u in enumerate(model.actions):
            calls[f"b[{a}]"] = lambda x, mu, v, u=u: model.b(0.3, x, mu, u)
        checked = 0
        for label, call in calls.items():
            if getattr(model, label.split("[")[0]) is None:
                continue
            per_group = np.stack([call(x[g], cloud[g], v[g]) for g in range(3)])
            np.testing.assert_array_equal(call(x, cloud, v), per_group, err_msg=label)
            checked += 1
        assert checked >= 5


class TestGroupedNodes:
    """A model that breaks the grouping convention is refused wherever the
    grid nodes are groups, as joint_simulate refuses it on samples."""

    def inputs(self):
        grid = rp.TimeGrid(1.0, 8)
        return rz.sample_lift(grid, 1, 3), random_flow(5, grid)

    @pytest.mark.parametrize("name", ["b", "sigma", "sigma0"])
    def test_best_response_refuses_axis_zero(self, name):
        model = axis_zero_model(name)
        lift, flow = self.inputs()
        settings = mfg.DpSettings(lattice_lo=-3.0, lattice_hi=3.0, lattice_nodes=9)
        with pytest.raises(rp.InputError, match=f"coefficient {name} of model"):
            mfg.best_response(model, flow, lift, settings)

    @pytest.mark.parametrize("name", ["b", "sigma"])
    def test_martingale_diagnostics_refuses_axis_zero(self, name):
        model = axis_zero_model(name)
        lift, flow = self.inputs()
        sol = rsde.solve(model, flow, lift, null_policy(model, 8),
                         rsde.InitialLaw(), 16, 2)
        with pytest.raises(rp.InputError, match=f"coefficient {name} of model"):
            rsde.martingale_diagnostics(sol)

    def test_cvf_norm_refuses_axis_zero(self):
        model = axis_zero_model("sigma0")
        lift, flow = self.inputs()
        cvf = vf.build_cvf_from_flow(model, flow)
        with pytest.raises(rp.InputError, match="coefficient sigma0 of model"):
            vf.cvf_norm(cvf, lift, ct.IndexPair(), np.zeros((3, 1)))

    def test_time_read_as_a_number_refused(self):
        # np.max of an array t is the last node's time for every node
        model = gaussian_model(c=0.6, sigma=0.3)
        model.b = lambda t, x, mu, u: np.full_like(x, np.max(t))
        lift, flow = self.inputs()
        settings = mfg.DpSettings(lattice_lo=-3.0, lattice_hi=3.0, lattice_nodes=9)
        with pytest.raises(rp.InputError, match="coefficient b of model"):
            mfg.best_response(model, flow, lift, settings)

    @pytest.mark.parametrize("name", ["b", "sigma", "sigma0"])
    def test_branch_on_time_refused(self, name):
        model = t_branch_model({}, name)
        lift, flow = self.inputs()
        settings = mfg.DpSettings(lattice_lo=-3.0, lattice_hi=3.0, lattice_nodes=9)
        message = (f"coefficient {name} of model 't-branch' fails on grouped "
                   r"\(G, P, d\) clouds but not on one group's cloud; "
                   r"broadcast an array t \(G, 1, 1\)")
        with pytest.raises(rp.InputError, match=f"^{message}"):
            mfg.best_response(model, flow, lift, settings)
        if name != "sigma0":
            sol = rsde.solve(model, flow, lift, null_policy(model, 8),
                             rsde.InitialLaw(), 16, 2)
            with pytest.raises(rp.InputError, match=f"^{message}"):
                rsde.martingale_diagnostics(sol)

    def test_error_of_every_group_propagates(self):
        # a ValueError the call on group 0 alone raises too is the model's own
        model = gaussian_model(c=0.6, sigma=0.3)

        def sigma(t, x, mu):
            raise ValueError("broken sigma")

        model.sigma = sigma
        lift, flow = self.inputs()
        settings = mfg.DpSettings(lattice_lo=-3.0, lattice_hi=3.0, lattice_nodes=9)
        with pytest.raises(ValueError, match="^broken sigma$"):
            mfg.best_response(model, flow, lift, settings)


def traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestFrozenFlowPass:
    """The grouped terminal-only pass against the per-sample solves."""

    @pytest.mark.parametrize("case, kwargs", [
        ("lq", {}),
        ("lq-no-rough", {}),
        ("tanh", {}),
        ("lq", {"inner_refine": 2}),
        ("lq", {"w_salt": 1}),
        ("tanh", {"flow": "random"}),
        ("sin-mean", {}),
        ("two-drivers", {}),
    ], ids=["lq", "lq-no-rough", "tanh", "inner-refine", "w-salt", "flow", "sin-mean",
            "two-drivers"])
    def test_matches_per_sample_solves(self, case, kwargs):
        grid = rp.TimeGrid(1.0, 16)
        model = {
            "lq": lambda: gaussian_model(c=0.6, sigma=0.3),
            "lq-no-rough": lambda: models.make_model(
                "lq", actions=(0.0,), sigma=0.5, mean_coupling=0.0, sigma0=None),
            "tanh": lambda: models.make_model("tanh-interaction"),
            "sin-mean": sin_mean_model,
            "two-drivers": two_driver_model,
        }[case]()
        if kwargs.get("flow") == "random":
            kwargs = dict(kwargs, flow=random_flow(4, grid))
        policy = mfg.RelaxedPolicy.constant(model.actions, 16,
                                            action_index=model.n_actions - 1)
        args = (model, policy, rsde.InitialLaw("normal", 0.1, 0.5), grid, 64, 6, 8)
        got = rz.pathwise_terminals(*args, **kwargs)
        np.testing.assert_array_equal(got, ref_pathwise_terminals(*args, **kwargs))

    @pytest.mark.parametrize("d, k", [(1, 1), (2, 2), (1, 3), (3, 2)])
    def test_step_per_group_equals_shared(self, d, k):
        rng = substream(d * 10 + k, "rz", "step")
        groups, rows = 5, 37
        model = models.CoefficientSet(
            name="step", d=d, l=2, k=k, actions=np.zeros((1, 1)),
            b=None, f=None, g=None, sigma=lambda t, x, mu: np.full(x.shape + (2,), 0.3),
        )
        x, drift = rng.normal(size=(2, groups * rows, d))
        dw = rng.normal(size=(groups * rows, 2))
        f = rng.normal(size=(groups * rows, d, k))
        fhat = rng.normal(size=(groups * rows, d, k, k))
        db, bb = rng.normal(size=(groups, k)), rng.normal(size=(groups, k, k))
        nodes = np.linspace(0.0, 1.0, 5)
        got = rsde._step(model, nodes, 2, x, None, drift, dw, db, bb, f, fhat)
        for g in range(groups):
            r = slice(g * rows, (g + 1) * rows)
            want = rsde._step(model, nodes, 2, x[r], None, drift[r], dw[r],
                              db[g : g + 1], bb[g : g + 1], f[r], fhat[r])
            np.testing.assert_array_equal(got[r], want)
            # one group is the single-path step: f dB as an einsum over k,
            # fhat BB as an einsum over (i, j)
            single = x[r] + drift[r] * (nodes[3] - nodes[2])
            single = single + np.einsum("pdl,pl->pd", np.full((rows, d, 2), 0.3), dw[r])
            single = single + np.einsum("pdk,k->pd", f[r], db[g])
            single = single + np.einsum("pdij,ij->pd", fhat[r], bb[g])
            np.testing.assert_array_equal(want, single)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_step_rough_contraction_is_the_matmul_formula(self, d, k):
        # every other term zero, so _step returns f dB alone; the einsum sums
        # over k in another order than a (d, k) @ (k, 1) matmul per row
        rng = substream(d * 10 + k, "rz", "contraction")
        groups, rows = 4, 29
        model = models.CoefficientSet(
            name="contraction", d=d, l=1, k=k, actions=np.zeros((1, 1)),
            b=None, f=None, g=None, sigma=lambda t, x, mu: np.zeros(x.shape + (1,)),
        )
        zero = np.zeros((groups * rows, d))
        f = rng.normal(size=(groups * rows, d, k))
        db = rng.normal(size=(groups, k))
        got = rsde._step(model, np.linspace(0.0, 1.0, 3), 0, zero, None, zero,
                         np.zeros((groups * rows, 1)), db, np.zeros((groups, k, k)),
                         f, np.zeros((groups * rows, d, k, k)))
        f_g = f.reshape(groups, rows, d, k)
        want = (f_g @ db.reshape(groups, 1, k, 1)).reshape(got.shape)
        scale = np.abs(f_g * db[:, None, None, :]).sum(axis=-1).reshape(got.shape)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("group_rows", [3 * 50 + 7, 49])
    def test_blocks_that_do_not_divide_the_samples(self, monkeypatch, group_rows):
        # 7 samples in blocks of 3, 3, 1; and rows beyond the budget, one
        # sample per block
        model = models.make_model("tanh-interaction")
        grid = rp.TimeGrid(1.0, 8)
        args = (model, null_policy(model, 8), rsde.InitialLaw(), grid, 50, 7, 2)
        want = ref_pathwise_terminals(*args)
        # a budget of group_rows rows: N l = 8 increments per row
        monkeypatch.setattr(rz, "PASS_INCREMENTS", group_rows * 8)
        np.testing.assert_array_equal(rz.pathwise_terminals(*args), want)

    @pytest.mark.parametrize("pass_", [ref_pathwise_terminals, rz.pathwise_terminals],
                             ids=["solves", "grouped"])
    def test_non_finite_terminal_coefficient_raises(self, pass_):
        # finite at every node a step uses, infinite at the terminal node
        model = gaussian_model()
        grid = rp.TimeGrid(1.0, 8)
        finite = model.sigma0

        def sigma0(t, x, mu):
            return finite(t, x, mu) * (np.inf if t == grid.nodes[-1] else 1.0)

        model.sigma0 = sigma0
        with pytest.raises(vf.NumericError, match="non-finite"):
            pass_(model, null_policy(model, 8), rsde.InitialLaw(), grid, 16, 3, 1)

    def test_makes_no_solve_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("rsde.solve called")

        monkeypatch.setattr(rsde, "solve", forbidden)
        model = gaussian_model()
        grid = rp.TimeGrid(1.0, 8)
        out = rz.pathwise_terminals(model, null_policy(model, 8), rsde.InitialLaw(),
                                    grid, 16, 3, 1)
        assert out.shape == (3, 16, 1)

    @staticmethod
    def pass_peaks(steps, one_block, samples):
        """Traced peaks of the frozen-flow pass at P = 1000 over `steps` grid
        steps, for one block's samples and for more."""
        model = gaussian_model(c=0.6, sigma=0.3)
        grid = rp.TimeGrid(1.0, steps)
        policy = null_policy(model, steps)
        init = rsde.InitialLaw("normal", 0.0, 0.5)

        def peak(count):
            return traced_peak_mib(lambda: rz.pathwise_terminals(
                model, policy, init, grid, 1000, count, 7))

        return peak(one_block), peak(samples)

    def test_memory_bounded_by_one_block(self):
        # bridge size: N = 64, P = 1000; the (N, rows, l) increments of one
        # 32-sample block (16 MiB) dominate, whatever the sample count
        one_block, hundred = self.pass_peaks(64, 32, 100)
        assert hundred <= 24.0
        # beyond one block only the (S, P, d) output grows: 0.52 MiB more
        assert hundred <= one_block + 1.0

    def test_memory_bound_holds_on_a_longer_grid(self):
        # N = 256: the budget is in increments, so a block is 8 samples (16
        # MiB), not the 32 samples (64 MiB) a budget in rows would give; the
        # frozen flow is its one cloud, not a (P, N+1) repeat and zeros
        one_block, sixteen = self.pass_peaks(256, 8, 16)
        assert sixteen <= 20.0
        assert sixteen <= one_block + 1.0

    def test_joint_memory_bounded_by_one_sample(self):
        model = gaussian_model(c=0.6, sigma=0.3)
        grid = rp.TimeGrid(1.0, 64)
        peak = traced_peak_mib(lambda: rz.joint_simulate(
            model, null_policy(model, 64), rsde.InitialLaw("normal", 0.0, 0.5),
            grid, 1000, 100, 7))
        assert peak <= 4.0


def nan_drift_at(model, t_star, threshold):
    # zero drift, NaN at time t_star for the states above the threshold
    def b(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        if t == t_star:
            return np.where(x > threshold, np.nan, 0.0)
        return np.zeros_like(x)

    model.b = b


def states_seen(model, t_star, run):
    """Run with zero drift; the states the drift saw at time t_star, in call
    order."""
    seen = []

    def b(t, x, mu, u):
        x = np.asarray(x, dtype=float)
        if t == t_star:
            seen.append(x.copy())
        return np.zeros_like(x)

    model.b = b
    run()
    return np.concatenate(seen)


class TestBridgeBlowups:
    """Both bridge pipelines name the step, the sample and the particle
    within the sample."""

    @pytest.mark.parametrize("pipeline, pass_increments, joint_increments", [
        ("pathwise", rz.PASS_INCREMENTS, rz.JOINT_INCREMENTS),
        ("pathwise", 64, rz.JOINT_INCREMENTS),
        ("joint", rz.PASS_INCREMENTS, rz.JOINT_INCREMENTS),
        ("joint", rz.PASS_INCREMENTS, 64),
    ], ids=["pathwise", "pathwise-blocks-of-one", "joint", "joint-blocks-of-one"])
    def test_nan_drift_names_sample_and_particle(self, monkeypatch, pipeline,
                                                 pass_increments, joint_increments):
        # 8 particles x 8 steps: 64 increments per sample in either pass
        monkeypatch.setattr(rz, "PASS_INCREMENTS", pass_increments)
        monkeypatch.setattr(rz, "JOINT_INCREMENTS", joint_increments)
        particles, samples = 8, 6
        model = models.make_model("tanh-interaction")
        grid = rp.TimeGrid(1.0, 8)
        t_star = grid.nodes[5]
        args = (model, delta_policy(model, 8), rsde.InitialLaw(), grid,
                particles, samples, 6)
        reference = {"pathwise": ref_pathwise_terminals,
                     "joint": ref_joint_terminals}[pipeline]
        seen = states_seen(model, t_star, lambda: reference(*args))
        seen = seen.reshape(samples, particles)  # node 5, one row per sample
        threshold = seen[0].max()  # sample 0 stays below it
        sample = int(np.argmax((seen > threshold).any(axis=1)))
        particle = int(np.argmax(seen[sample] > threshold))
        assert sample > 0
        nan_drift_at(model, t_star, threshold)
        call = {"pathwise": rz.pathwise_terminals, "joint": rz.joint_simulate}[pipeline]
        with pytest.raises(rsde.DivergedError) as err:
            call(*args)
        assert (err.value.step, err.value.sample, err.value.particle) == (
            5, sample, particle)
        assert f"step 5, sample {sample}, particle {particle}" in str(err.value)


    @pytest.mark.parametrize("sweeps", [3, 0], ids=["sweep", "recorded-solve"])
    def test_per_sample_fixedpoint_names_sample_and_sweep(self, sweeps):
        # per sample: the consistency sweeps of max(32, P // 4) = 32 inner
        # particles, then the recorded solve of P particles; at seed 1 the
        # first blow-up is in sweep 1 of sample 1 (inner particle 15) with
        # three sweeps, and in the recorded solve of sample 2 with none
        particles, samples, inner = 8, 3, 32
        model = models.make_model("tanh-interaction")
        grid = rp.TimeGrid(1.0, 8)
        t_star = grid.nodes[5]
        args = (model, delta_policy(model, 8), rsde.InitialLaw(), grid,
                particles, samples, 1, rz.PER_SAMPLE_FIXEDPOINT)

        def run():
            return rz.pathwise_terminals(*args, consistency_sweeps=sweeps)

        seen = states_seen(model, t_star, run)
        seen = seen[:, 0].reshape(samples, sweeps * inner + particles)
        threshold = seen[0].max()  # sample 0 stays below it
        sample, row = divmod(int(np.argmax(seen > threshold)), seen.shape[1])
        sweep, particle = divmod(row, inner)
        if sweep == sweeps:
            sweep, particle = None, row - sweeps * inner
        assert sample > 0
        nan_drift_at(model, t_star, threshold)
        with pytest.raises(rsde.DivergedError) as err:
            run()
        got = err.value
        assert (got.step, got.sample, got.sweep, got.particle) == (
            5, sample, sweep, particle)
        assert f"step 5, sample {sample}, particle {particle}" in str(got)
        assert (f"in consistency sweep {sweep}" in str(got)) == (sweep is not None)


def energy_distance(x, y):
    """Two-sample energy statistic 2 E|X-Y| - E|X-X'| - E|Y-Y'|, the plain
    formula the blocked permutation test computes."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    dxy = rz._distances(x, y).mean()
    dxx = rz._distances(x, x).mean()
    dyy = rz._distances(y, y).mean()
    return 2.0 * dxy - dxx - dyy


def ref_energy_permutation_test(x, y, n_perm=500, seed=0):
    """The masked-submatrix loop the blocked energy test replaced."""
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    n = x.shape[0]
    pooled = np.vstack([x, y])
    dist = cdist(pooled, pooled)
    total = pooled.shape[0]

    def stat(idx_x):
        mask = np.zeros(total, dtype=bool)
        mask[idx_x] = True
        dxy = dist[mask][:, ~mask].mean()
        dxx = dist[mask][:, mask].mean()
        dyy = dist[~mask][:, ~mask].mean()
        return 2.0 * dxy - dxx - dyy

    observed = stat(np.arange(n))
    rng = substream(seed, "randomize", "energy-perm")
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(total)
        if stat(perm[:n]) >= observed:
            hits += 1
    return observed, (hits + 1.0) / (n_perm + 1.0)


def energy_pair(d, n, m, shift, seed=0):
    rng = substream(seed, "rz", "pair", d, n, m)
    return rng.normal(size=(n, d)), rng.normal(size=(m, d)) + shift


class TestEnergyDistance:
    # (d, n, m, n_perm, shift); n_perm + 1 masks, the first the observed split
    @pytest.mark.parametrize("d, n, m, n_perm, shift", [
        (1, 60, 60, 200, 0.0), (1, 60, 60, 200, 0.3),
        (2, 60, 60, 200, 0.0), (2, 60, 60, 200, 0.3),
        (3, 60, 60, 200, 0.0), (3, 60, 60, 200, 0.3),
        (1, 45, 90, 200, 0.2), (2, 90, 45, 200, 0.0), (3, 31, 77, 200, 0.3),
        (1, 50, 50, 0, 0.0),
        (1, 50, 50, rz.BLOCK - 2, 0.2), (2, 50, 50, rz.BLOCK - 1, 0.2),
        (1, 50, 50, rz.BLOCK, 0.2), (1, 50, 50, 500, 0.1), (2, 40, 70, 500, 0.3),
    ])
    def test_matches_masked_loop(self, d, n, m, n_perm, shift):
        x, y = energy_pair(d, n, m, shift)
        stat, p = rz.energy_permutation_test(x, y, n_perm=n_perm, seed=5)
        want_stat, want_p = ref_energy_permutation_test(x, y, n_perm=n_perm, seed=5)
        assert p == want_p
        assert abs(stat - want_stat) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distances_match_cdist(self, d):
        x, y = energy_pair(d, 70, 40, 0.3)
        np.testing.assert_array_equal(rz._distances(x, y), cdist(x, y))
        want = 2.0 * cdist(x, y).mean() - cdist(x, x).mean() - cdist(y, y).mean()
        assert energy_distance(x, y) == want

    def test_memory_bounded_by_mask_blocks(self):
        # the pooled distances take 4.9 MiB; all 501 masks at once and their
        # product with the distances would take 6.1 MiB more
        x, y = energy_pair(1, 400, 400, 0.1)
        peak = traced_peak_mib(lambda: rz.energy_permutation_test(x, y, n_perm=500))
        assert peak <= 10.0

    def test_identical_samples_zero(self):
        x = substream(0, "rz", "e").normal(size=(50, 1))
        assert energy_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_separated_samples_significant(self):
        rng = substream(1, "rz", "e2")
        x = rng.normal(size=(100, 1))
        y = rng.normal(size=(100, 1)) + 3.0
        stat, p = rz.energy_permutation_test(x, y, n_perm=200, seed=2)
        assert stat > 0
        assert p <= 0.01

    def test_same_law_not_rejected(self):
        rng = substream(3, "rz", "e3")
        hits = 0
        for trial in range(10):
            x = rng.normal(size=(80, 1))
            y = rng.normal(size=(80, 1))
            _, p = rz.energy_permutation_test(x, y, n_perm=200, seed=trial)
            hits += p >= 0.01
        assert hits >= 9


class TestCompare:
    def test_gaussian_model_agrees(self):
        model = gaussian_model(c=0.6, sigma=0.3)
        grid = rp.TimeGrid(1.0, 16)
        report = rz.compare_pathwise_vs_randomized(
            model, null_policy(model, 16), rsde.InitialLaw("normal", 0.0, 0.5),
            grid, particles=200, samples=40, seed=9, test_subsample=150,
            n_perm=200,
        )
        assert report.all_ok, report
        assert report.sample_pass_rate >= 0.9

    def test_no_rough_term_trivially_agrees(self):
        model = models.make_model(
            "lq", actions=(0.0,), sigma=0.5, mean_coupling=0.0, sigma0=None,
        )
        grid = rp.TimeGrid(1.0, 16)
        report = rz.compare_pathwise_vs_randomized(
            model, null_policy(model, 16), rsde.InitialLaw(), grid,
            particles=150, samples=24, seed=10, test_subsample=120, n_perm=200,
        )
        assert report.mean_ok and report.second_ok and report.energy_ok

    def test_interaction_model_per_sample_mode(self):
        model = models.make_model("lq", actions=(0.0,), mean_coupling=0.3,
                                  cost_u=0.0)
        grid = rp.TimeGrid(1.0, 16)
        report = rz.compare_pathwise_vs_randomized(
            model, null_policy(model, 16), rsde.InitialLaw("normal", 0.5, 0.3),
            grid, particles=128, samples=16, seed=11,
            mode=rz.PER_SAMPLE_FIXEDPOINT, test_subsample=100, n_perm=150,
        )
        assert report.mode == rz.PER_SAMPLE_FIXEDPOINT
        assert report.mean_ok

    def test_w_seed_shuffle_leaves_conditional_means(self):
        # conditional means are functions of the common prefix only
        model = gaussian_model(c=0.7, sigma=0.4)
        grid = rp.TimeGrid(1.0, 16)
        init = rsde.InitialLaw("normal", 0.0, 0.3)
        policy = null_policy(model, 16)
        a = rz.pathwise_terminals(model, policy, init, grid, 400, 12, seed=12,
                                  w_salt=0)
        b = rz.pathwise_terminals(model, policy, init, grid, 400, 12, seed=12,
                                  w_salt=1)
        se = np.hypot(
            a[..., 0].std(axis=1, ddof=1) / np.sqrt(400),
            b[..., 0].std(axis=1, ddof=1) / np.sqrt(400),
        )
        gaps = np.abs(a[..., 0].mean(axis=1) - b[..., 0].mean(axis=1))
        assert np.all(gaps <= 4.0 * se)
        # while the W draws themselves genuinely changed
        assert not np.array_equal(a, b)

    def test_grid_mismatch_rejected(self):
        model = gaussian_model()
        grid = rp.TimeGrid(1.0, 8)
        flow = mf.constant_flow(rp.TimeGrid(1.0, 4), np.zeros((4, 1)), k=1)
        with pytest.raises(rp.InputError):
            rz.compare_pathwise_vs_randomized(
                model, null_policy(model, 8), rsde.InitialLaw(), grid,
                particles=16, samples=2, seed=1, flow=flow,
            )

    @pytest.mark.parametrize("particles, samples", [(16, 1), (1, 2)])
    def test_compare_needs_two_particles_and_two_samples(self, particles, samples):
        # a standard error needs two; the passes themselves accept one
        model = gaussian_model()
        grid = rp.TimeGrid(1.0, 8)
        args = (model, null_policy(model, 8), rsde.InitialLaw(), grid, particles,
                samples, 1)
        with pytest.raises(rp.InputError, match="at least two particles and two samples"):
            rz.compare_pathwise_vs_randomized(*args)
        assert rz.pathwise_terminals(*args).shape == (samples, particles, 1)
        assert rz.joint_simulate(*args).terminal.shape == (samples, particles, 1)

    @pytest.mark.parametrize("particles, samples", [(16, 0), (0, 2), (-1, 2)])
    @pytest.mark.parametrize("entry", ["compare", "pathwise", "joint"])
    def test_rejects_fewer_than_one_particle_or_sample(self, entry, particles,
                                                       samples):
        model = gaussian_model()
        grid = rp.TimeGrid(1.0, 8)
        args = (model, null_policy(model, 8), rsde.InitialLaw(), grid, particles,
                samples, 1)
        call = {"compare": rz.compare_pathwise_vs_randomized,
                "pathwise": rz.pathwise_terminals, "joint": rz.joint_simulate}[entry]
        with pytest.raises(rp.InputError, match="at least one particle and one sample"):
            call(*args)
