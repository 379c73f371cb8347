import numpy as np
import pytest

from roughmfg import controlled as ct
from roughmfg import measureflow as mf
from roughmfg import mfg
from roughmfg import models
from roughmfg import roughpath as rp
from roughmfg import rsde
from roughmfg import vectorfield as vf
from roughmfg.rng import substream
from shared_models import late_nan_model, sin_mean_lions, sin_mean_model


def brownian_lift(seed, n=16, k=1):
    grid = rp.TimeGrid(1.0, n)
    dw = substream(seed, "vf", "bm").normal(0.0, np.sqrt(grid.dt), size=(n, k))
    return rp.ito_lift(dw, grid)


def from_callables(grid, d, k, out_shape, f_t, fp_t, grad_t):
    """Wrap time-parametrized callables f(t, x), f'(t, x) and grad f(t, x)
    into a node-indexed field (analytic fields for the tests); at nodes (G,)
    t is (G, 1, 1), as for a model (models.node_time)."""
    nodes = grid.nodes
    f = lambda n, x: f_t(models.node_time(nodes, n), x)
    fp = lambda n, x: fp_t(models.node_time(nodes, n), x)
    grad = lambda n, x: grad_t(models.node_time(nodes, n), x)
    return vf.ControlledVectorField(grid, d, k, tuple(out_shape), f, fp, grad)


def random_flow(seed, grid, particles=32, d=1, k=1):
    rng = substream(seed, "vf", "flow")
    y = rng.normal(size=(particles, grid.steps + 1, d)) * 0.5
    yp = rng.normal(size=(particles, grid.steps + 1, d, k)) * 0.3
    return mf.MeasureFlow(grid, y, yp)


def dense_contraction(lions, t, x, cloud, yp):
    """Slow reference for the derivative slot: the measure derivative at
    every flow particle, (..., P, d, k, d), contracted with the derivative
    particles (P, d, k) and averaged."""
    dm = lions(t, x, cloud, cloud)
    return np.einsum("...pabc,pcj->...abj", dm, yp) / cloud.shape[0]


class TestBuildFromFlow:
    def test_mu_independent_coefficient_has_zero_derivative_field(self):
        grid = rp.TimeGrid(1.0, 8)
        flow = random_flow(0, grid)
        cvf = vf.build_cvf_from_flow(models.make_model("lq"), flow)
        x = np.array([[0.3], [-1.0]])
        np.testing.assert_array_equal(cvf.fp(3, x), np.zeros((2, 1, 1, 1)))

    def test_linear_mean_functional(self):
        # sigma0 = c * mean(mu): measure derivative is the constant c, so the
        # derivative field is c times the mean derivative particle
        c = 0.7
        grid = rp.TimeGrid(1.0, 4)
        flow = random_flow(1, grid)
        model = models.make_model("lq")
        model.sigma0 = lambda t, x, mu: np.full(
            np.asarray(x).shape[:-1] + (1, 1), c * mu.mean(axis=0)[0]
        )
        model.sigma0_dmu = lambda t, x, mu, v: np.full(
            np.asarray(x).shape[:-1] + (1, 1, 1), c * v[:, 0, 0].mean()
        )
        cvf = vf.build_cvf_from_flow(model, flow)
        x = np.zeros((1, 1))
        got = cvf.fp(2, x)[0, 0, 0, 0]
        assert got == pytest.approx(c * flow.Yp[:, 2, 0, 0].mean(), rel=1e-12)

    def test_tanh_interaction_symbolic_oracle(self):
        # sigma0 = tanh(x) tanh(mean): derivative field equals
        # tanh(x) sech^2(mean) mean(Y') analytically
        grid = rp.TimeGrid(1.0, 6)
        flow = random_flow(2, grid, particles=64)
        model = models.make_model("tanh-interaction", s_base=0.0, s_int=1.0)
        cvf = vf.build_cvf_from_flow(model, flow)
        n = 4
        x = np.array([[0.4], [-0.9], [2.0]])
        m = flow.cloud(n).mean()
        expect = (
            np.tanh(x[:, 0]) / np.cosh(m) ** 2 * flow.Yp[:, n, 0, 0].mean()
        )
        np.testing.assert_allclose(cvf.fp(n, x)[:, 0, 0, 0], expect, atol=1e-10)

    def test_permutation_invariance(self):
        grid = rp.TimeGrid(1.0, 5)
        flow = random_flow(4, grid, particles=20)
        perm = substream(5, "vf", "perm").permutation(20)
        flow_p = mf.MeasureFlow(grid, flow.Y[perm], flow.Yp[perm])
        model = models.make_model("tanh-interaction")
        a = vf.build_cvf_from_flow(model, flow)
        b = vf.build_cvf_from_flow(model, flow_p)
        x = np.array([[0.1], [1.4]])
        np.testing.assert_allclose(a.f(2, x), b.f(2, x), rtol=1e-12)
        np.testing.assert_allclose(a.fp(2, x), b.fp(2, x), rtol=1e-12)

    @pytest.mark.parametrize("particles", [16, 2000])
    def test_tanh_hook_matches_dense_reference(self, particles):
        grid = rp.TimeGrid(1.0, 6)
        flow = random_flow(6, grid, particles=particles)
        model = models.make_model("tanh-interaction")
        s_int = model.params["s_int"]

        def lions(t, x, mu, y):
            # depends on mu through its mean: constant in the probe particle
            val = s_int * np.tanh(x[..., 0]) / np.cosh(mu.mean()) ** 2
            return np.broadcast_to(
                val[..., None, None, None, None], x.shape[:-1] + (len(y), 1, 1, 1)
            )

        cvf = vf.build_cvf_from_flow(model, flow)
        x = np.linspace(-3.0, 3.0, 7)[:, None]
        n = 4
        ref = dense_contraction(lions, grid.nodes[n], x, flow.cloud(n), flow.Yp[:, n])
        # same sum in another order: round-off only
        np.testing.assert_allclose(cvf.fp(n, x), ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("particles", [16, 2000])
    def test_sin_mean_hook_matches_dense_reference_k2(self, particles):
        model, lions = sin_mean_model(), sin_mean_lions
        grid = rp.TimeGrid(1.0, 4)
        flow = random_flow(7, grid, particles=particles, d=2, k=2)
        cvf = vf.build_cvf_from_flow(model, flow)
        x = substream(8, "vf", "x").normal(size=(5, 2))
        n = 2
        ref = dense_contraction(lions, grid.nodes[n], x, flow.cloud(n), flow.Yp[:, n])
        got = cvf.fp(n, x)
        assert got.shape == (5, 2, 2, 2)
        # the closed form against the same sum in another order: round-off
        # only, observed about 3.5e-17
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)

    def test_constant_coefficient_derivative_makes_no_coefficient_call(self):
        # lq's sigma0 is constant: its zero sigma0_dmu reads no sigma0
        model = models.make_model("lq")
        calls = []
        sigma0 = model.sigma0
        model.sigma0 = lambda t, x, mu: calls.append(1) or sigma0(t, x, mu)
        grid = rp.TimeGrid(1.0, 4)
        cvf = vf.build_cvf_from_flow(model, random_flow(9, grid))
        x = np.zeros((3, 1))
        np.testing.assert_array_equal(cvf.fp(1, x), np.zeros((3, 1, 1, 1)))
        cvf.fp(np.arange(5), np.zeros((5, 3, 1)))
        assert calls == []

    @pytest.mark.parametrize("missing", ["grad_sigma0", "sigma0_dmu"])
    def test_rough_coefficient_without_a_derivative_is_refused(self, missing):
        model = models.make_model("tanh-interaction")
        setattr(model, missing, None)
        calls = []
        sigma0 = model.sigma0
        model.sigma0 = lambda t, x, mu: calls.append(1) or sigma0(t, x, mu)
        message = f"model 'tanh-interaction' has no {missing}"
        with pytest.raises(vf.ConfigurationError, match=f"^{message};"):
            vf.build_cvf_from_flow(model, random_flow(9, rp.TimeGrid(1.0, 4)))
        assert calls == []

    def test_coefficient_set_rejects_unknown_fields(self):
        model = models.make_model("tanh-interaction")
        with pytest.raises(AttributeError):
            model.sigma0_measure_derivative = None


class TestCompose:
    def ensemble(self, seed, grid, d=1, k=1, particles=8):
        rng = substream(seed, "vf", "ce")
        return ct.ControlledEnsemble(
            grid,
            rng.normal(size=(particles, grid.steps + 1, d)),
            rng.normal(size=(particles, grid.steps + 1, d, k)),
        )

    def test_linear_field(self):
        grid = rp.TimeGrid(1.0, 6)
        a = np.array([[2.0], [-1.0]])
        cvf = from_callables(
            grid,
            d=1,
            k=1,
            out_shape=(2,),
            f_t=lambda t, x: x @ a.T,
            fp_t=lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (2, 1)),
            grad_t=lambda t, x: np.broadcast_to(
                a, np.asarray(x).shape[:-1] + (2, 1)
            ).copy(),
        )
        ce = self.ensemble(0, grid)
        out = vf.compose(cvf, ce)
        np.testing.assert_allclose(out.Z, ce.Z @ a.T)
        np.testing.assert_allclose(
            out.Zp, np.einsum("fd,pndk->pnfk", a, ce.Zp), atol=1e-14
        )

    def test_constant_field(self):
        grid = rp.TimeGrid(1.0, 3)
        c = np.array([1.5, -0.5])
        cvf = from_callables(
            grid,
            d=1,
            k=1,
            out_shape=(2,),
            f_t=lambda t, x: np.broadcast_to(c, np.asarray(x).shape[:-1] + (2,)).copy(),
            fp_t=lambda t, x: np.full(np.asarray(x).shape[:-1] + (2, 1), 0.3),
            grad_t=lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (2, 1)),
        )
        ce = self.ensemble(1, grid)
        out = vf.compose(cvf, ce)
        assert np.all(out.Z == c)
        assert np.all(out.Zp == 0.3)

    def test_sine_field_against_finite_differences(self):
        grid = rp.TimeGrid(1.0, 5)
        cvf = from_callables(
            grid,
            d=1,
            k=1,
            out_shape=(1,),
            f_t=lambda t, x: np.sin(x),
            fp_t=lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
            grad_t=lambda t, x: np.cos(x)[..., None],
        )
        ce = self.ensemble(2, grid)
        out = vf.compose(cvf, ce)
        h = 1e-5
        fd = (
            np.sin(ce.Z + h * ce.Zp[..., 0]) - np.sin(ce.Z - h * ce.Zp[..., 0])
        ) / (2 * h)
        np.testing.assert_allclose(out.Zp[..., 0], fd, atol=1e-6)
        np.testing.assert_allclose(out.Zp[..., 0], np.cos(ce.Z) * ce.Zp[..., 0])

    def test_left_linear_associativity(self):
        grid = rp.TimeGrid(1.0, 4)
        ell = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 1.0]])  # (3, 2)

        def base_f(t, x):
            return np.stack([np.sin(x[..., 0]), x[..., 0] ** 2], axis=-1)

        def base_grad(t, x):
            return np.stack([np.cos(x[..., 0]), 2 * x[..., 0]], axis=-1)[..., None]

        def base_fp(t, x):
            return np.stack(
                [0.2 * np.ones_like(x[..., 0]), 0.1 * x[..., 0]], axis=-1
            )[..., None]

        inner = from_callables(
            grid, 1, 1, (2,), base_f, base_fp, base_grad
        )
        outer = from_callables(
            grid,
            1,
            1,
            (3,),
            lambda t, x: base_f(t, x) @ ell.T,
            lambda t, x: np.einsum("fg,...gk->...fk", ell, base_fp(t, x)),
            lambda t, x: np.einsum("fg,...gd->...fd", ell, base_grad(t, x)),
        )
        ce = self.ensemble(3, grid)
        via_outer = vf.compose(outer, ce)
        via_inner = vf.compose(inner, ce)
        np.testing.assert_allclose(via_outer.Z, via_inner.Z @ ell.T, atol=1e-12)
        np.testing.assert_allclose(
            via_outer.Zp, np.einsum("fg,pngk->pnfk", ell, via_inner.Zp), atol=1e-12
        )


class TestCvfNorm:
    def test_time_constant_field(self):
        grid = rp.TimeGrid(1.0, 8)
        p = brownian_lift(0, n=8)
        cvf = from_callables(
            grid,
            1,
            1,
            (1, 1),
            lambda t, x: np.tanh(x)[..., None],
            lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
            lambda t, x: (1 / np.cosh(x) ** 2)[..., None, None],
        )
        probes = np.linspace(-2, 2, 9)[:, None]
        est = vf.cvf_norm(cvf, p, ct.IndexPair(), probes)
        assert est.delta_f == 0.0
        assert est.delta_fp == 0.0
        assert est.remainder == 0.0
        assert est.sup_part > 0.0

    def test_linear_time_ramp(self):
        grid = rp.TimeGrid(2.0, 8)
        p = rp.smooth_lift(np.zeros(9), grid)
        cvf = from_callables(
            grid,
            1,
            1,
            (1, 1),
            lambda t, x: np.broadcast_to(t, np.shape(x))[..., None],
            lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
            lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
        )
        idx = ct.IndexPair()
        est = vf.cvf_norm(cvf, p, idx, np.zeros((1, 1)))
        assert est.delta_f == pytest.approx(2.0 ** (1 - idx.beta), rel=1e-12)

    def test_flow_built_bound_inequality(self):
        # field norm controlled by 1 + |(Y,Y')| + |(Y,Y')|^2 with a constant
        # fitted once on this reference configuration and frozen
        grid = rp.TimeGrid(1.0, 16)
        p = brownian_lift(1, n=16)
        flow = random_flow(6, grid, particles=64)
        model = models.make_model("tanh-interaction")
        cvf = vf.build_cvf_from_flow(model, flow)
        idx = ct.IndexPair()
        probes = np.linspace(-2.5, 2.5, 11)[:, None]
        lhs = vf.cvf_norm(cvf, p, idx, probes).total
        rep = ct.estimate_norm(flow.ensemble(), p, idx, m=4)
        y_norm = rep.combined
        assert lhs <= 4.0 * (1.0 + y_norm + y_norm**2)

    def test_lipschitz_in_flow(self):
        grid = rp.TimeGrid(1.0, 8)
        p = brownian_lift(2, n=8)
        flow = random_flow(7, grid, particles=32)
        eps = 0.05
        flow2 = mf.MeasureFlow(grid, flow.Y + eps, flow.Yp.copy())
        model = models.make_model("tanh-interaction")
        idx = ct.IndexPair()
        probes = np.linspace(-2, 2, 9)[:, None]
        n1 = vf.cvf_norm(vf.build_cvf_from_flow(model, flow), p, idx, probes).total
        n2 = vf.cvf_norm(vf.build_cvf_from_flow(model, flow2), p, idx, probes).total
        assert abs(n1 - n2) <= 10.0 * eps

    def test_remainder_identity_exact(self):
        grid = rp.TimeGrid(1.0, 6)
        p = brownian_lift(3, n=6)
        model = models.make_model("tanh-interaction")
        flow = random_flow(8, grid)
        cvf = vf.build_cvf_from_flow(model, flow)
        x = np.array([[0.3], [-0.7]])
        s, t = 1, 4
        r = cvf.f(t, x) - cvf.f(s, x) - cvf.fp(s, x) @ p.increment(s, t)
        lhs = cvf.f(t, x) - cvf.f(s, x) - cvf.fp(s, x) @ p.increment(s, t) - r
        assert np.all(lhs == 0.0)

    def tanh_field(self, steps=8):
        grid = rp.TimeGrid(1.0, steps)
        p = brownian_lift(5, n=steps)
        cvf = from_callables(
            grid, 1, 1, (1, 1),
            lambda t, x: np.tanh(x)[..., None],
            lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
            lambda t, x: (1 / np.cosh(x) ** 2)[..., None, None],
        )
        return cvf, p

    def test_holder_exponent_is_the_index_pairs(self):
        cvf, p = self.tanh_field()
        probes = np.linspace(-2, 2, 9)[:, None]
        at_2 = vf.cvf_norm(cvf, p, ct.IndexPair(gamma=2.0), probes)
        at_19 = vf.cvf_norm(cvf, p, ct.IndexPair(gamma=1.9), probes)
        # only the (gamma-1)-Holder quotient of grad f reads gamma
        assert at_19.delta_f == at_2.delta_f and at_19.remainder == at_2.remainder
        assert at_19.sup_part != at_2.sup_part

    def test_gamma_above_two_refused(self):
        cvf, p = self.tanh_field()
        with pytest.raises(rp.InputError, match="gamma <= 2, got 2.5"):
            vf.cvf_norm(cvf, p, ct.IndexPair(gamma=2.5), np.zeros((1, 1)))

    def test_empty_probes_rejected(self):
        grid = rp.TimeGrid(1.0, 2)
        p = brownian_lift(4, n=2)
        cvf = from_callables(
            grid, 1, 1, (1, 1),
            lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1)),
            lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
            lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1, 1, 1)),
        )
        with pytest.raises(rp.InputError):
            vf.cvf_norm(cvf, p, ct.IndexPair(), np.zeros((0, 1)))


class TestSpotCheck:
    def test_registry_models_bounded_on_probes(self):
        probes = np.linspace(-3, 3, 9)[:, None]
        cloud = substream(10, "vf", "spot").normal(size=(8, 1))
        for name in ("lq", "no-interaction", "tanh-interaction"):
            worst = models.make_model(name).spot_check(probes, cloud)
            assert np.isfinite(worst) and worst < 10.0


class TestGubinelliCorrection:
    def test_matches_hand_formula(self):
        grid = rp.TimeGrid(1.0, 4)
        flow = random_flow(9, grid)
        model = models.make_model("tanh-interaction")
        cvf = vf.build_cvf_from_flow(model, flow)
        corr = vf.gubinelli_correction(cvf)
        x = np.array([[0.2], [1.1]])
        n = 2
        expect = (
            np.einsum("...abc,...cj->...abj", cvf.grad(n, x), cvf.f(n, x))
            + cvf.fp(n, x)
        )
        np.testing.assert_allclose(corr(n, x, cvf.f(n, x)), expect, rtol=1e-12)


def reference_pair(cvf, n, x):
    """Slow reference for the coefficient pair at one node: f and
    grad(f) f + f' evaluated afresh."""
    fx = cvf.f(n, x)
    return fx, np.einsum("...abc,...cj->...abj", cvf.grad(n, x), fx) + cvf.fp(n, x)


def reference_slots(sol):
    """Re-evaluate the pair at every node of the solved states."""
    pairs = [reference_pair(sol.cvf, n, sol.ensemble.Z[:, n])
             for n in range(sol.grid.steps + 1)]
    return (np.stack([f for f, _ in pairs], axis=1),
            np.stack([fh for _, fh in pairs], axis=1))


def reference_resample(sol, which, s_idx, n_inner):
    """Continue the states from the anchor, then re-evaluate the pair along
    the joined paths: at every node for "sigma0"; from the anchor on, with
    the solution's prefix before it, for "state"."""
    p_count, n1 = sol.ensemble.particles, sol.grid.steps + 1
    dw = rsde.draw_wiener(sol.seed, p_count * n_inner, n1 - 1 - s_idx,
                          sol.coeffs.l, sol.grid.dt, "inner", 1, s_idx)
    xc, _, _ = rsde._evolve(
        sol.coeffs, sol.flow, sol.rough, sol.policy,
        np.repeat(sol.ensemble.Z[:, s_idx], n_inner, axis=0), dw,
        sol.cvf, sol.correction, start=s_idx,
    )
    full = np.empty((p_count, n_inner, n1, sol.coeffs.d))
    full[:, :, : s_idx + 1] = sol.ensemble.Z[:, None, : s_idx + 1]
    full[:, :, s_idx:] = xc.reshape(p_count, n_inner, n1 - s_idx, sol.coeffs.d)
    pairs = [reference_pair(sol.cvf, n, full[:, :, n]) for n in range(n1)]
    f = np.stack([fx for fx, _ in pairs], axis=2)
    fhat = np.stack([fh for _, fh in pairs], axis=2)
    if which == "sigma0":
        return f, fhat
    f[:, :, :s_idx] = sol.ensemble.Zp[:, None, :s_idx]
    return full, f


def solved(model, steps=12, particles=6, seed=4):
    grid = rp.TimeGrid(1.0, steps)
    dw = substream(seed, "vf", "slots").normal(0.0, np.sqrt(grid.dt),
                                                size=(steps, model.k))
    flow = random_flow(seed, grid, d=model.d, k=model.k)
    policy = mfg.RelaxedPolicy.constant(model.actions, steps)
    return rsde.solve(model, flow, rp.ito_lift(dw, grid), policy,
                      rsde.InitialLaw(), particles, seed)


SLOT_MODELS = {
    "tanh-interaction": lambda: models.make_model("tanh-interaction"),
    "sin-mean": sin_mean_model,
}
# the "state" target alone also serves a model without a rough coefficient
STATE_MODELS = {**SLOT_MODELS, "lq-no-sigma0": lambda: models.make_model("lq", sigma0=None)}


class TestSolvedSlots:
    """The pair the recursion evaluates, stored once, against the
    re-evaluation loops it replaced."""

    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_solution_slots_match_reevaluation(self, name):
        sol = solved(SLOT_MODELS[name]())
        f, fhat = reference_slots(sol)
        np.testing.assert_array_equal(sol.ensemble.Zp, f)
        np.testing.assert_array_equal(sol.fhat, fhat)
        pair = sol.sigma0_ensemble()
        np.testing.assert_array_equal(pair.Z, f)
        np.testing.assert_array_equal(pair.Zp, fhat)

    @pytest.mark.parametrize("which", ["state", "sigma0"])
    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_resampler_targets_match_reevaluation(self, name, which):
        sol = solved(SLOT_MODELS[name]())
        s_idx, n_inner = 5, 3
        z, zp = sol.make_resampler(which)(s_idx, n_inner)
        z_ref, zp_ref = reference_resample(sol, which, s_idx, n_inner)
        np.testing.assert_array_equal(z, z_ref)
        np.testing.assert_array_equal(zp, zp_ref)

    def test_solve_evaluates_the_pair_once_per_node(self, monkeypatch):
        calls = {"f": 0, "correction": 0}
        build, correction_of = vf.build_cvf_from_flow, vf.gubinelli_correction

        def counted_build(coeffs, flow):
            cvf = build(coeffs, flow)
            f = cvf.f

            def counted_f(n, x):
                calls["f"] += 1
                return f(n, x)

            cvf.f = counted_f
            return cvf

        def counted_correction(cvf):
            corr = correction_of(cvf)

            def counted(n, x, fx):
                calls["correction"] += 1
                return corr(n, x, fx)

            return counted

        monkeypatch.setattr(vf, "build_cvf_from_flow", counted_build)
        monkeypatch.setattr(vf, "gubinelli_correction", counted_correction)
        sol = solved(models.make_model("tanh-interaction"), steps=16)
        assert sol.cvf.grad is not None  # no difference quotient calls f
        assert calls == {"f": 17, "correction": 17}


def reference_estimate_norm(ce, p, idx, m=4, n_mode=ct.N_INFTY, window=None,
                            inner_samples=8, resampler=None, anchor_stride=None,
                            combine="sum"):
    """Slow reference for the two-level estimator: one resampler call per
    anchor and whole-window statistics, as estimate_norm computed them
    before the grouped pass."""
    i0, i1 = ct._window_nodes(ce.grid, window)
    nz = len(ce.vshape)
    nodes = ce.grid.nodes
    zp_abs = ct._vec_abs(ce.Zp[:, i0 : i1 + 1], nz + 1)
    zp_static = float(ct._reduce(zp_abs, m, n_mode).max())
    dz_best = dzp_best = rem_best = 0.0
    if anchor_stride is None:
        anchor_stride = max(1, int(np.ceil((i1 - i0) / 32)))
    for s in range(i0, i1, anchor_stride):
        t_idx = np.arange(s + 1, i1 + 1)
        zc, zpc = resampler(s, inner_samples)
        gaps = nodes[t_idx] - nodes[s]
        dz = zc[:, :, t_idx] - zc[:, :, s : s + 1]
        dz_m = np.mean(ct._vec_abs(dz, nz) ** m, axis=1) ** (1.0 / m)
        dz_best = max(dz_best, float((ct._reduce(dz_m, m, n_mode) / gaps**idx.beta).max()))
        dzp = zpc[:, :, t_idx] - zpc[:, :, s : s + 1]
        dzp_m = np.mean(ct._vec_abs(dzp, nz + 1) ** m, axis=1) ** (1.0 / m)
        dzp_best = max(
            dzp_best, float((ct._reduce(dzp_m, m, n_mode) / gaps**idx.beta_p).max())
        )
        zp_s = zpc[:, 0, s]
        lin = np.einsum("p...k,tk->pt...", zp_s, p.increment(s, t_idx))
        rem_abs = ct._vec_abs(dz.mean(axis=1) - lin, nz)
        rem_best = max(
            rem_best,
            float((rem_abs.max(axis=0) / gaps ** (idx.beta + idx.beta_p)).max()),
        )
    zp_norm = zp_static + dzp_best
    parts = (dz_best, zp_norm, rem_best)
    return ct.NormEstimate(
        beta=idx.beta, beta_p=idx.beta_p, m=m, n_mode=n_mode,
        delta_z_norm=dz_best, zp_norm=zp_norm, remainder_norm=rem_best,
        combined=float(ct._combine(parts, m, combine)),
        inner_samples=inner_samples, mode="two_level", combine=combine,
        window=window,
    )


def assert_estimates_close(got, want, rtol):
    for name in ("delta_z_norm", "zp_norm", "remainder_norm", "combined"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=rtol)
    for name in ("m", "n_mode", "inner_samples", "mode", "combine", "window"):
        assert getattr(got, name) == getattr(want, name)


class TestContinuationMoments:
    """The grouped continuation pass against per-anchor continuations and
    the whole-window estimator they fed."""

    @pytest.mark.parametrize("stride", [1, 4])
    @pytest.mark.parametrize("n_inner", [2, 4])
    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_apriori_monitor_matches_reference(self, name, n_inner, stride):
        # stride 1 includes anchor 11 of 12, whose only target node is 12
        sol = solved(SLOT_MODELS[name]())
        idx = ct.IndexPair()
        probes = np.linspace(-2.0, 2.0, 5)[:, None] * np.ones(sol.coeffs.d)
        snap = rsde.apriori_monitor(sol, idx, m=4, probes=probes,
                                    inner_samples=n_inner, anchor_stride=stride)
        pairs = [(snap.state_norm, sol.ensemble, "state"),
                 (snap.coeff_norm, sol.sigma0_ensemble(), "sigma0")]
        for est, ce, which in pairs:
            ref = reference_estimate_norm(
                ce, sol.rough, idx, m=4, inner_samples=n_inner,
                resampler=sol.make_resampler(which), anchor_stride=stride,
            )
            assert est == ref

    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_apriori_monitor_default_probes(self, name):
        # 17 probes per state coordinate spanning the solved states padded
        # by 0.5; for d = 1 the single column the monitor always used
        sol = solved(SLOT_MODELS[name]())
        idx = ct.IndexPair()
        snap = rsde.apriori_monitor(sol, idx, m=4, inner_samples=2)
        z = sol.ensemble.Z
        probes = np.stack([np.linspace(z[..., a].min() - 0.5, z[..., a].max() + 0.5, 17)
                           for a in range(sol.coeffs.d)], axis=1)
        assert snap.field_norm == vf.cvf_norm(sol.cvf, sol.rough, idx, probes).total

    @pytest.mark.parametrize("stride", [2, 3])
    @pytest.mark.parametrize("n_inner", [2, 4])
    @pytest.mark.parametrize("name", sorted(STATE_MODELS))
    def test_check_domain_matches_reference(self, name, n_inner, stride):
        # windows of 5 steps starting at 0, 2, 4, 6; stride 2 leaves anchors
        # with a single target node, stride 3 needs the running-max stops
        sol = solved(STATE_MODELS[name]())
        flow = mf.from_solution(sol)
        idx = ct.IndexPair()
        cert = mf.check_domain(flow, sol.rough, idx, m=4, M_bound=1e9,
                               epsilon=0.5, solution=sol, inner_samples=n_inner,
                               max_windows=4, anchor_stride=stride)
        assert [w for w, _ in cert.window_norms] == [
            (sol.grid.nodes[s], sol.grid.nodes[s + 5]) for s in (0, 2, 4, 6)
        ]
        for window, value in cert.window_norms:
            ref = reference_estimate_norm(
                flow.ensemble(), sol.rough, idx, m=4, n_mode=ct.N_INFTY,
                window=window, inner_samples=n_inner,
                resampler=sol.make_resampler("state"), anchor_stride=stride,
                combine="power_mean",
            )
            assert value == ref.combined

    @pytest.mark.parametrize("n_mode, n_inner", [(ct.N_EQ_M, 4), (ct.N_INFTY, 8)])
    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_pairwise_sums_within_round_off(self, name, n_mode, n_inner):
        # numpy sums a contiguous axis pairwise: the per-node reductions may
        # differ from the whole-window ones by round-off
        sol = solved(SLOT_MODELS[name](), particles=10)
        idx = ct.IndexPair()
        anchors, end = ct.anchor_nodes(sol.grid, None, 2)
        moments = sol.continuation_moments(anchors, [end] * len(anchors),
                                           n_inner, 3, n_mode)
        pairs = [(sol.ensemble, "state"), (sol.sigma0_ensemble(), "sigma0")]
        for ce, which in pairs:
            got = ct.estimate_norm(ce, sol.rough, idx, m=3, n_mode=n_mode,
                                   moments=moments[which], anchor_stride=2)
            ref = reference_estimate_norm(
                ce, sol.rough, idx, m=3, n_mode=n_mode, inner_samples=n_inner,
                resampler=sol.make_resampler(which), anchor_stride=2,
            )
            assert_estimates_close(got, ref, rtol=1e-12)

    def test_stops_short_of_the_grid(self):
        # a continuation stopped at its window end has the statistics of the
        # full-length one up to that node
        sol = solved(models.make_model("tanh-interaction"))
        short = sol.continuation_moments([1, 3, 4], [5, 5, 9], 3, 4)["state"]
        full = sol.continuation_moments([1, 3, 4], [12, 12, 12], 3, 4)["state"]
        for g, (s, e) in enumerate(zip(short.anchors, short.stops)):
            for table in ("delta_z", "delta_zp", "remainder"):
                got, want = getattr(short, table)[g], getattr(full, table)[g]
                np.testing.assert_array_equal(got[s + 1 : e + 1], want[s + 1 : e + 1])
                assert np.isnan(got[: s + 1]).all() and np.isnan(got[e + 1 :]).all()

    @pytest.mark.parametrize("target", ["state", "sigma0"])
    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_one_target_matches_full_request(self, name, target):
        sol = solved(SLOT_MODELS[name]())
        full = sol.continuation_moments([1, 3, 4], [5, 9, 12], 3, 4)
        one = sol.continuation_moments([1, 3, 4], [5, 9, 12], 3, 4,
                                       targets=(target,))
        assert list(full) == ["state", "sigma0"] and list(one) == [target]
        got, want = one[target], full[target]
        for field in ("anchors", "stops", "m", "n_mode", "inner_samples"):
            assert getattr(got, field) == getattr(want, field)
        for table in ("delta_z", "delta_zp", "remainder"):
            np.testing.assert_array_equal(getattr(got, table), getattr(want, table))

    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_check_domain_requests_state_only(self, monkeypatch, name):
        sol = solved(SLOT_MODELS[name]())
        flow = mf.from_solution(sol)
        kw = dict(m=4, M_bound=1e9, epsilon=0.5, solution=sol, inner_samples=2,
                  max_windows=4, anchor_stride=3)
        cert = mf.check_domain(flow, sol.rough, ct.IndexPair(), **kw)
        requested = []
        every = rsde.RsdeSolution.continuation_moments

        def every_target(self, *args, targets=None, **kwargs):
            requested.append(targets)
            return every(self, *args, **kwargs)

        monkeypatch.setattr(rsde.RsdeSolution, "continuation_moments", every_target)
        ref = mf.check_domain(flow, sol.rough, ct.IndexPair(), **kw)
        assert requested == [("state",)]
        assert cert.window_norms == ref.window_norms
        assert cert.worst == ref.worst

    @pytest.mark.parametrize("model, targets, match", [
        ("tanh-interaction", ("state", "drift"), "unknown continuation target"),
        ("tanh-interaction", (), "at least one"),
        ("lq-no-sigma0", ("sigma0",), "no rough coefficient"),
    ], ids=["unknown", "none", "sigma0-without-coefficient"])
    def test_rejects_bad_targets(self, model, targets, match):
        coeffs = (models.make_model("lq", sigma0=None) if model == "lq-no-sigma0"
                  else models.make_model(model))
        sol = solved(coeffs)
        with pytest.raises(rp.InputError, match=match):
            sol.continuation_moments([0], [12], 2, 4, targets=targets)

    @pytest.mark.parametrize("anchors, stops", [
        ([], []), ([2, 1], [5, 5]), ([1, 2], [6, 5]), ([3], [3]),
        ([0, 2], [4, 13]), ([1, 2], [5]),
    ])
    def test_rejects_bad_requests(self, anchors, stops):
        sol = solved(models.make_model("tanh-interaction"))
        with pytest.raises(rp.InputError):
            sol.continuation_moments(anchors, stops, 2, 4)

    @pytest.mark.parametrize("anchors, stops, n_inner, message", [
        ([], [], 2, "need at least one anchor, got anchors=[]"),
        ([1, 2], [5], 2, "need one stop per anchor, got stops=[5] for anchors=[1, 2]"),
        ([0], [12], 0, "need at least one inner sample, got n_inner=0"),
    ], ids=["no-anchor", "stop-per-anchor", "no-inner-sample"])
    def test_each_count_condition_names_its_value(self, anchors, stops, n_inner,
                                                  message):
        sol = solved(models.make_model("tanh-interaction"))
        with pytest.raises(rp.InputError) as err:
            sol.continuation_moments(anchors, stops, n_inner, 4)
        assert str(err.value) == message

    @pytest.mark.parametrize("m", [0, 1])
    def test_rejects_low_moment_order_before_any_draw(self, monkeypatch, m):
        sol = solved(models.make_model("tanh-interaction"))
        nodes = counted_inner_draws(monkeypatch)
        with pytest.raises(rp.InputError, match="moment order must be >= 2"):
            sol.continuation_moments([0, 6], [12, 12], 2, m)
        assert nodes == []

    def test_rejects_unknown_n_mode_before_any_draw(self, monkeypatch):
        sol = solved(models.make_model("tanh-interaction"))
        nodes = counted_inner_draws(monkeypatch)
        with pytest.raises(rp.InputError, match="unknown n mode 'n_two'"):
            sol.continuation_moments([0, 6], [12, 12], 2, 4, "n_two")
        assert nodes == []

    def test_estimate_needs_matching_moments(self):
        sol = solved(models.make_model("tanh-interaction"))
        idx = ct.IndexPair()
        moments = sol.continuation_moments([0, 6], [12, 12], 2, 4)["state"]
        with pytest.raises(rp.InputError, match="order"):
            ct.estimate_norm(sol.ensemble, sol.rough, idx, m=2, moments=moments,
                             anchor_stride=6)
        with pytest.raises(rp.InputError, match="node 4"):
            ct.estimate_norm(sol.ensemble, sol.rough, idx, m=4, moments=moments,
                             anchor_stride=4)
        short = sol.continuation_moments([0, 6], [6, 8], 2, 4)["state"]
        with pytest.raises(rp.InputError, match="node 0 to 12"):
            ct.estimate_norm(sol.ensemble, sol.rough, idx, m=4, moments=short,
                             anchor_stride=6)

    def test_one_coefficient_call_per_node(self):
        # anchors 0..15 all run to node 16: one f and one correction call
        # per node of the pass, not one per (anchor, node)
        sol = solved(models.make_model("tanh-interaction"), steps=16)
        rows = sol.ensemble.particles * 4
        calls = []
        f, correction = sol.cvf.f, sol.correction

        def counted_f(n, x):
            calls.append(("f", n, x.shape[0]))
            return f(n, x)

        def counted_correction(n, x, fx):
            calls.append(("correction", n, x.shape[0]))
            return correction(n, x, fx)

        sol.cvf.f = counted_f
        sol.correction = counted_correction
        rsde.apriori_monitor(sol, ct.IndexPair(), m=4, inner_samples=4)
        for kind in ("f", "correction"):
            pass_calls = [(n, size) for what, n, size in calls
                          if what == kind and size % rows == 0]
            assert pass_calls == [(n, rows * min(n + 1, 16)) for n in range(17)]


# every registry model, lq without a rough coefficient, and d = k = 2
ROW_MODELS = {
    **{name: (lambda name=name: models.make_model(name))
       for name in models.list_models()},
    "lq-no-sigma0": lambda: models.make_model("lq", sigma0=None),
    "sin-mean": sin_mean_model,
}


def lattice_policy(model, steps, seed):
    """Feedback policy whose mixture varies with the state: a random
    probability table on a uniform lattice."""
    lattice = np.linspace(-2.0, 2.0, 9)
    table = substream(seed, "vf", "policy").dirichlet(
        np.ones(model.n_actions), size=(steps, len(lattice))
    )
    return mfg.RelaxedPolicy(model.actions, lattice=lattice, table=table)


def counted_inner_draws(monkeypatch):
    """Record the node of every continuation draw from here on."""
    nodes = []
    draw = rsde.draw_wiener

    def counted(seed, count, steps, dim, dt, *extra):
        if extra[:1] == ("inner",):
            nodes.append(extra[-1])
        return draw(seed, count, steps, dim, dt, *extra)

    monkeypatch.setattr(rsde, "draw_wiener", counted)
    return nodes


class TestCommonRandomNumbers:
    """What a frozen seed lets a caller reuse: the first rows of a solve,
    and the continuation increments of a domain check."""

    @pytest.mark.parametrize("name", sorted(ROW_MODELS))
    def test_first_rows_are_the_smaller_solve(self, name):
        model = ROW_MODELS[name]()
        steps, seed = 12, 4
        grid = rp.TimeGrid(1.0, steps)
        dw = substream(seed, "vf", "rows").normal(0.0, np.sqrt(grid.dt),
                                                  size=(steps, model.k))
        args = (model, random_flow(seed, grid, d=model.d, k=model.k),
                rp.ito_lift(dw, grid), lattice_policy(model, steps, seed),
                rsde.InitialLaw())
        big = rsde.solve(*args, 23, seed)
        fresh = rsde.solve(*args, 10, seed)
        head = big.first_rows(10)
        np.testing.assert_array_equal(head.ensemble.Z, fresh.ensemble.Z)
        np.testing.assert_array_equal(head.ensemble.Zp, fresh.ensemble.Zp)
        np.testing.assert_array_equal(head.W_increments, fresh.W_increments)
        if fresh.fhat is None:
            assert head.fhat is None
        else:
            np.testing.assert_array_equal(head.fhat, fresh.fhat)
        # copies: the slice holds none of the rows after it
        assert head.ensemble.Z.base is None and head.W_increments.base is None
        assert head.monitors == [] and head.monitors is not big.monitors

    def test_first_rows_rejects_bad_counts_and_causal_solves(self):
        sol = solved(models.make_model("tanh-interaction"))
        for count in (0, 7):
            with pytest.raises(rp.InputError, match="need 1 to 6 rows"):
                sol.first_rows(count)
        model = models.make_model("lq", sigma0=None)
        grid = rp.TimeGrid(1.0, 4)
        causal = mfg.RelaxedPolicy.causal(
            model.actions, lambda n, w, rng: rng.integers(0, 3, size=len(w.increments()))
        )
        real = rsde.realize_from_measure(
            model, random_flow(1, grid), rp.smooth_lift(np.zeros(5), grid), causal,
            rsde.InitialLaw(), 8, 1,
        )
        with pytest.raises(rp.InputError, match="causal"):
            real.first_rows(4)

    @pytest.mark.parametrize("name", sorted(STATE_MODELS))
    def test_shared_draws_match_fresh_checks(self, monkeypatch, name):
        # three solutions of one seed, particle count and grid, as the
        # sweeps of a fixed point make them: each continuation block is
        # drawn once, and every certificate is the one drawn afresh
        model = STATE_MODELS[name]()
        steps, seed = 12, 4
        grid = rp.TimeGrid(1.0, steps)
        dw = substream(seed, "vf", "slots").normal(0.0, np.sqrt(grid.dt),
                                                   size=(steps, model.k))
        lift = rp.ito_lift(dw, grid)
        policy = mfg.RelaxedPolicy.constant(model.actions, steps)
        sols = [rsde.solve(model, random_flow(s, grid, d=model.d, k=model.k), lift,
                           policy, rsde.InitialLaw(), 6, seed) for s in (1, 2, 3)]
        kw = dict(m=4, M_bound=1e9, epsilon=0.5, inner_samples=2, max_windows=4,
                  anchor_stride=3)
        fresh = [mf.check_domain(mf.from_solution(sol), lift, ct.IndexPair(),
                                 solution=sol, **kw) for sol in sols]
        nodes = counted_inner_draws(monkeypatch)
        draws = {}
        shared = [mf.check_domain(mf.from_solution(sol), lift, ct.IndexPair(),
                                  solution=sol, draws=draws, **kw) for sol in sols]
        for got, want in zip(shared, fresh):
            assert got.window_norms == want.window_norms
            assert got.worst == want.worst
        assert len(nodes) == len(set(nodes)) == len(draws) > 1
        for key, block in draws.items():
            anchor, stop = key[-2], key[-1]
            # kept up to its stop, in a copy that holds no further columns
            assert block.shape == (6 * 2, stop - anchor, model.l)
            assert block.base is None
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0, 0] = 0.0

    def test_draws_key_holds_what_the_draw_reads(self, monkeypatch):
        # another seed, particle count or inner sample count draws anew
        model = models.make_model("tanh-interaction")
        kw = dict(m=4, M_bound=1e9, epsilon=0.5, max_windows=2, anchor_stride=3)
        draws = {}
        nodes = counted_inner_draws(monkeypatch)
        for seed, particles, inner in ((4, 6, 2), (5, 6, 2), (4, 7, 2), (4, 6, 3)):
            sol = solved(model, particles=particles, seed=seed)
            mf.check_domain(mf.from_solution(sol), sol.rough, ct.IndexPair(),
                            solution=sol, inner_samples=inner, draws=draws, **kw)
            if (seed, particles, inner) == (4, 6, 2):
                first = len(nodes)
        assert len(nodes) == len(draws) == 4 * first


def reference_vec_abs(arr, n_value_axes):
    """np.linalg.norm over the flattened value axes."""
    flat = arr.reshape(arr.shape[: arr.ndim - n_value_axes] + (-1,))
    return np.linalg.norm(flat, axis=-1)


def reference_node_moments(z_s, zp_s, z_t, zp_t, db, m, n_mode):
    """Slow reference for one target's statistics at one node, as the pass
    computed them with one call per target: np.linalg.norm magnitudes and
    np.mean inner means."""
    nz = z_t.ndim - 3
    dz = z_t - z_s
    dz_m = np.mean(reference_vec_abs(dz, nz) ** m, axis=2) ** (1.0 / m)
    dzp_m = np.mean(reference_vec_abs(zp_t - zp_s, nz + 1) ** m, axis=2) ** (1.0 / m)
    lin = np.einsum("gp...k,gk->gp...", zp_s[:, :, 0], db)
    rem = reference_vec_abs(dz.mean(axis=2) - lin, nz).max(axis=1)
    return (ct._reduce(dz_m, m, n_mode, axis=1), ct._reduce(dzp_m, m, n_mode, axis=1),
            rem)


def reference_kernel(held, now, db, targets, m, n_mode):
    """ct.node_moments' signature over reference_node_moments, one call per
    target."""
    return {name: reference_node_moments(held[i], held[j], now[i], now[j], db, m,
                                         n_mode)
            for name, (i, j) in targets.items()}


def tables_of(moments):
    return np.stack([moments.delta_z, moments.delta_zp, moments.remainder])


class TestStatisticsKernel:
    """One node_moments call per node for every target, against the
    per-target reference it replaced, inside the pass."""

    def test_sums_in_numpy_order(self):
        rng = substream(3, "vf", "sums")
        for n in [*range(1, 20), 31, 64, 127, 128, 129, 200, 257]:
            a = rng.normal(size=(40, n)) * np.exp(4.0 * rng.normal(size=(40, n)))
            got = ct._add_reduce([a[:, j] for j in range(n)])
            np.testing.assert_array_equal(got, np.add.reduce(a, axis=-1))
            for shape in [(n,), (1, n, 1)]:
                values = a.reshape((40,) + shape)
                np.testing.assert_array_equal(ct._vec_abs(values, len(shape)),
                                              reference_vec_abs(values, len(shape)))

    @pytest.mark.parametrize("n_mode", [ct.N_INFTY, ct.N_EQ_M])
    @pytest.mark.parametrize("n_inner", [1, 2, 4, 6, 7])
    @pytest.mark.parametrize("name", sorted(ROW_MODELS))
    def test_pass_tables_match_reference_kernel(self, monkeypatch, name, n_inner,
                                                n_mode):
        sol = solved(ROW_MODELS[name]())
        choices = [("state",), ("sigma0",), ("state", "sigma0")]
        for targets in choices[:1] if sol.cvf is None else choices:
            args = ([1, 3, 4], [5, 9, 12], n_inner, 4, n_mode, targets)
            got = sol.continuation_moments(*args)
            with monkeypatch.context() as patch:
                patch.setattr(ct, "node_moments", reference_kernel)
                want = sol.continuation_moments(*args)
            for target in targets:
                np.testing.assert_array_equal(tables_of(got[target]),
                                              tables_of(want[target]))

    @pytest.mark.parametrize("n_inner", [8, 12])
    @pytest.mark.parametrize("name", sorted(ROW_MODELS))
    def test_eight_inner_samples_up_within_round_off(self, monkeypatch, name,
                                                     n_inner):
        # np.mean sums a strided inner axis in order, node_moments pairwise
        sol = solved(ROW_MODELS[name]())
        for n_mode in (ct.N_INFTY, ct.N_EQ_M):
            args = ([1, 3, 4], [5, 9, 12], n_inner, 4, n_mode)
            got = sol.continuation_moments(*args)
            with monkeypatch.context() as patch:
                patch.setattr(ct, "node_moments", reference_kernel)
                want = sol.continuation_moments(*args)
            for target in got:
                np.testing.assert_allclose(tables_of(got[target]),
                                           tables_of(want[target]), rtol=1e-12)


def reference_tables(sol, which, anchors, stops, n_inner, m, n_mode):
    """The pass's tables from per-anchor continuations (make_resampler),
    with the reference statistics at every node up to each stop."""
    resample = sol.make_resampler(which)
    tables = np.full((3, len(anchors), sol.grid.steps + 1), np.nan)
    for g, (s, e) in enumerate(zip(anchors, stops)):
        z, zp = resample(s, n_inner)
        for t in range(s + 1, e + 1):
            stats = reference_node_moments(
                z[None, :, :, s], zp[None, :, :, s], z[None, :, :, t],
                zp[None, :, :, t], sol.rough.increment(np.array([s]), t), m, n_mode,
            )
            tables[:, g, t] = [v[0] for v in stats]
    return tables


# the anchors and stops check_domain asks for with windows of 5 steps on 12
# and anchor_stride 1: one anchor per node
PASS_SHAPES = {
    "uneven": ([1, 3, 4], [5, 9, 12]),
    "one-anchor-per-node": (list(range(12)), [min(a, 7) + 5 for a in range(12)]),
}


class TestIncrementPieces:
    """The time-major increment pieces feed every node the numbers of the
    per-anchor continuations."""

    @pytest.mark.parametrize("shared", [False, True], ids=["fresh", "draws-dict"])
    @pytest.mark.parametrize("shape", sorted(PASS_SHAPES))
    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_pass_matches_per_anchor_reference(self, name, shape, shared):
        sol = solved(SLOT_MODELS[name]())
        anchors, stops = PASS_SHAPES[shape]
        draws = {} if shared else None
        # with a dict, the second pass reads the blocks the first one kept
        for _ in range(2 if shared else 1):
            got = sol.continuation_moments(anchors, stops, 3, 4, draws=draws)
            for which, moments in got.items():
                np.testing.assert_array_equal(
                    tables_of(moments),
                    reference_tables(sol, which, anchors, stops, 3, 4, ct.N_INFTY),
                )
        assert draws is None or len(draws) == len(anchors)


def reference_cvf_increments(cvf, p, idx, probes):
    """Slow reference for cvf_norm's time-increment parts: each probe's
    quotient by the gap's power, then the largest, over the node pairs."""
    nodes = cvf.grid.nodes
    sel = list(range(cvf.grid.steps + 1))
    fs = np.stack([cvf.f(n, probes) for n in sel])
    fps = np.stack([cvf.fp(n, probes) for n in sel])
    grads = np.stack([cvf.grad(n, probes) for n in sel])
    d_f = d_fp = d_grad = rem = 0.0
    for a in range(len(sel) - 1):
        gaps = nodes[sel[a + 1 :]] - nodes[sel[a]]
        ga = gaps[:, None]
        d_f = max(d_f, float((vf._flat_max(fs[a + 1 :] - fs[a], 2) / ga**idx.beta).max()))
        d_fp = max(d_fp, float(
            (vf._flat_max(fps[a + 1 :] - fps[a], 2) / ga**idx.beta_p).max()))
        d_grad = max(d_grad, float(
            (vf._flat_max(grads[a + 1 :] - grads[a], 2) / ga**idx.beta_p).max()))
        db = p.first_level[sel[a + 1 :]] - p.first_level[sel[a]]
        lin = np.einsum("q...j,sj->sq...", fps[a], db)
        r = fs[a + 1 :] - fs[a] - lin
        rem = max(rem, float(
            (vf._flat_max(r, 2) / ga ** (idx.beta + idx.beta_p)).max()))
    return d_f, d_fp, d_grad, rem


class TestCvfNormReference:
    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_time_varying_field_matches_reference(self, name):
        # the field of a flow taken from a solve moves from node to node
        model = SLOT_MODELS[name]()
        sol = solved(model, steps=16)
        cvf = vf.build_cvf_from_flow(model, mf.from_solution(sol))
        probes = substream(6, "vf", "probes").uniform(-2.0, 2.0, size=(9, model.d))
        idx = ct.IndexPair()
        got = vf.cvf_norm(cvf, sol.rough, idx, probes)
        want = reference_cvf_increments(cvf, sol.rough, idx, probes)
        assert (got.delta_f, got.delta_fp, got.delta_grad, got.remainder) == want
        assert min(want) > 0.0

    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_grouped_calls_match_per_node_loops(self, name):
        # the whole estimate, sup part included, against one call per node
        model = SLOT_MODELS[name]()
        sol = solved(model, steps=16)
        cvf = vf.build_cvf_from_flow(model, mf.from_solution(sol))
        probes = substream(7, "vf", "probes").uniform(-2.0, 2.0, size=(6, model.d))
        idx = ct.IndexPair()
        got = vf.cvf_norm(cvf, sol.rough, idx, probes)
        assert got == vf.cvf_norm(per_node(cvf), sol.rough, idx, probes)


def per_node(cvf):
    """cvf whose evaluators make one call per node of a grouped call and
    stack the results: the loops the grouped calls replaced."""
    def loop(fn):
        return lambda n, x: fn(n, x) if np.ndim(n) == 0 else np.stack(
            [fn(m, xm) for m, xm in zip(n, x)])

    return vf.ControlledVectorField(cvf.grid, cvf.d, cvf.k, cvf.out_shape,
                                    loop(cvf.f), loop(cvf.fp), loop(cvf.grad))


def reference_compose(cvf, ce):
    """compose as one evaluation of each slot per node."""
    p_count, n1 = ce.Z.shape[0], ce.grid.steps + 1
    fshape = cvf.out_shape
    z = np.empty((p_count, n1) + fshape)
    zp = np.empty((p_count, n1) + fshape + (cvf.k,))
    for n in range(n1):
        x = ce.Z[:, n]
        z[:, n] = cvf.f(n, x)
        gx = cvf.grad(n, x).reshape(p_count, -1, cvf.d)
        lead = np.einsum("pfd,pdk->pfk", gx, ce.Zp[:, n])
        zp[:, n] = lead.reshape((p_count,) + fshape + (cvf.k,)) + cvf.fp(n, x)
    return z, zp


class TestGroupedCompose:
    @pytest.mark.parametrize("name", sorted(SLOT_MODELS))
    def test_matches_per_node_loop(self, name):
        model = SLOT_MODELS[name]()
        sol = solved(model, steps=10)
        cvf = vf.build_cvf_from_flow(model, mf.from_solution(sol))
        rng = substream(11, "vf", "compose")
        ce = ct.ControlledEnsemble(
            sol.grid, rng.normal(size=(7, 11, model.d)),
            rng.normal(size=(7, 11, model.d, model.k)))
        out = vf.compose(cvf, ce)
        z, zp = reference_compose(cvf, ce)
        np.testing.assert_array_equal(out.Z, z)
        np.testing.assert_array_equal(out.Zp, zp)
        assert out.Z.flags.c_contiguous and out.Zp.flags.c_contiguous


class TestNonFiniteNode:
    """A non-finite coefficient names its node, at one node and on groups."""

    def field(self):
        grid = rp.TimeGrid(1.0, 64)
        cvf = vf.build_cvf_from_flow(late_nan_model({}), random_flow(12, grid))
        return cvf, np.linspace(-1.0, 1.0, 5)[:, None]

    def test_per_node_and_grouped_calls_name_node_32(self):
        cvf, x = self.field()
        cvf.f(31, x)
        message = "coefficient produced non-finite values at node 32"
        with pytest.raises(vf.NumericError, match=f"^{message}$"):
            cvf.f(32, x)
        nodes = np.arange(65)
        with pytest.raises(vf.NumericError, match=f"^{message}$"):
            cvf.f(nodes, np.broadcast_to(x, (65,) + x.shape))
        # the first bad node in the order given
        nodes = np.array([3, 40, 31, 32])
        with pytest.raises(vf.NumericError, match="at node 40$"):
            cvf.f(nodes, np.broadcast_to(x, (4,) + x.shape))

    def test_solve_and_field_norm_name_node_32(self):
        cvf, x = self.field()
        p = brownian_lift(13, n=64)
        with pytest.raises(vf.NumericError, match="non-finite values at node 32$"):
            vf.cvf_norm(cvf, p, ct.IndexPair(), x)
        model = late_nan_model({})
        flow = random_flow(12, p.grid)
        policy = mfg.RelaxedPolicy.constant(model.actions, 64)
        with pytest.raises(vf.NumericError, match="non-finite values at node 32$"):
            rsde.solve(model, flow, p, policy, rsde.InitialLaw(), 8, 0)

    def test_derivative_field_names_its_node(self):
        model = late_nan_model({})
        cvf = vf.build_cvf_from_flow(model, random_flow(12, rp.TimeGrid(1.0, 64)))
        message = "derivative field produced non-finite values at node 33"
        with pytest.raises(vf.NumericError, match=f"^{message}$"):
            cvf.fp(np.array([33, 2]), np.zeros((2, 3, 1)))
