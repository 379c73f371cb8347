import numpy as np
import pytest

from roughmfg import measureflow as mf
from roughmfg import mfg
from roughmfg import models
from roughmfg import randomize as rz
from roughmfg import roughpath as rp
from roughmfg import rsde
from roughmfg.rng import substream


def gaussian_model(c=0.6, sigma=0.0):
    # drift-free, constant rough loading: X_T = X_0 + sigma W_T + c B0_T
    return models.make_model(
        "lq", actions=(0.0,), sigma=sigma, mean_coupling=0.0, sigma0=c,
        cost_u=0.0, cost_x=0.0, cost_g=0.0,
    )


def null_policy(model, steps):
    return mfg.RelaxedPolicy.constant(model.actions, steps, action_index=0)


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


class TestEnergyDistance:
    def test_identical_samples_zero(self):
        x = substream(0, "rz", "e").normal(size=(50, 1))
        assert rz.energy_distance(x, x) == pytest.approx(0.0, abs=1e-12)

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
