import numpy as np
import pytest

from roughmfg import controlled as ct
from roughmfg import roughpath as rp
from roughmfg.rng import substream
from test_vectorfield import reference_node_moments


def brownian_lift(seed, n=32, k=1, horizon=1.0):
    grid = rp.TimeGrid(horizon, n)
    dw = substream(seed, "t", "bm").normal(0.0, np.sqrt(grid.dt), size=(n, k))
    return rp.ito_lift(dw, grid)


def path_ensemble(p, particles=1):
    """(Z, Z') = (B, Id): the lift's own first level as a controlled path."""
    n, k = p.grid.steps, p.dim
    z = np.broadcast_to(p.first_level, (particles, n + 1, k)).copy()
    zp = np.broadcast_to(np.eye(k), (particles, n + 1, k, k)).copy()
    return ct.ControlledEnsemble(p.grid, z, zp)


class TestIndexPair:
    def test_defaults_admissible(self):
        ct.IndexPair()

    def test_rejects_beta_p_above_beta(self):
        with pytest.raises(rp.InputError):
            ct.IndexPair(beta=0.4, beta_p=0.45)

    def test_rejects_low_beta_p(self):
        with pytest.raises(rp.InputError):
            ct.IndexPair(beta=0.45, beta_p=0.3, gamma=2.0)

    def test_gamma_slope_constraint(self):
        with pytest.raises(rp.InputError):
            ct.IndexPair(beta=0.45, beta_p=0.44, gamma=1.9)


class TestRoughIntegral:
    def test_constant_integrand_telescopes(self):
        p = brownian_lift(0, n=16, k=2)
        c = np.array([[1.0, -2.0], [0.5, 3.0]])
        z = np.broadcast_to(c, (4, 17, 2, 2)).copy()
        zp = np.zeros((4, 17, 2, 2, 2))
        ce = ct.ControlledEnsemble(p.grid, z, zp)
        got = ct.rough_integral(ce, p, 0, 16)
        np.testing.assert_allclose(got, np.broadcast_to(c @ p.increment(0, 16), (4, 2)))

    def test_path_against_itself_gives_second_level(self):
        # sum B_u dB + one-step second level equals the Chen-composed value
        p = brownian_lift(1, n=24, k=1)
        ce = path_ensemble(p)
        got = ct.rough_integral(ce, p, 0, 24)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(p.second(0, 24)[0, 0], abs=1e-12)

    def test_smooth_antiderivative_oracle(self):
        # int B dB = (B_T^2 - B_0^2)/2: telescopes exactly for a geometric
        # lift; int B^2 dB = (B_T^3 - B_0^3)/3 converges under refinement
        errs = []
        for n in (32, 128):
            grid = rp.TimeGrid(1.0, n)
            b = np.sin(3.0 * grid.nodes)
            p = rp.smooth_lift(b, grid)
            got = ct.rough_integral(path_ensemble(p), p, 0, n)[0]
            assert got == pytest.approx(0.5 * (b[-1] ** 2 - b[0] ** 2), abs=1e-14)
            sq = ct.ControlledEnsemble(
                p.grid, (b**2)[None, :, None], 2.0 * b[None, :, None, None]
            )
            got_sq = ct.rough_integral(sq, p, 0, n)[0]
            errs.append(abs(got_sq - (b[-1] ** 3 - b[0] ** 3) / 3.0))
        assert errs[1] < 0.5 * errs[0]
        assert errs[1] < 1e-3

    def test_window_additivity_exact(self):
        p = brownian_lift(2, n=20, k=2)
        rng = substream(3, "t", "integrand")
        z = rng.normal(size=(3, 21, 2))
        zp = rng.normal(size=(3, 21, 2, 2))
        ce = ct.ControlledEnsemble(p.grid, z, zp)
        whole = ct.rough_integral(ce, p, 0, 20)
        parts = ct.rough_integral(ce, p, 0, 7) + ct.rough_integral(ce, p, 7, 20)
        # identical up to the round-off of re-associating the step sum
        np.testing.assert_allclose(whole, parts, rtol=0, atol=1e-14)

    def test_linearity(self):
        p = brownian_lift(4, n=10)
        rng = substream(5, "t", "lin")
        z1, zp1 = rng.normal(size=(2, 11, 1)), rng.normal(size=(2, 11, 1, 1))
        z2, zp2 = rng.normal(size=(2, 11, 1)), rng.normal(size=(2, 11, 1, 1))
        a, b = 2.0, -0.5
        lhs = ct.rough_integral(
            ct.ControlledEnsemble(p.grid, a * z1 + b * z2, a * zp1 + b * zp2), p, 0, 10
        )
        rhs = a * ct.rough_integral(
            ct.ControlledEnsemble(p.grid, z1, zp1), p, 0, 10
        ) + b * ct.rough_integral(ct.ControlledEnsemble(p.grid, z2, zp2), p, 0, 10)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_grid_mismatch(self):
        p = brownian_lift(6, n=8)
        ce = path_ensemble(brownian_lift(6, n=16))
        with pytest.raises(rp.InputError):
            ct.rough_integral(ce, p, 0, 8)


def deterministic_resampler(ce):
    """Continuations of a deterministic ensemble are the ensemble itself."""

    def resample(s_idx, n_inner):
        z = np.repeat(ce.Z[:, None], n_inner, axis=1)
        zp = np.repeat(ce.Zp[:, None], n_inner, axis=1)
        return z, zp

    return resample


def moments_of(resampler, ce, p, n_inner=8, m=4, n_mode=ct.N_INFTY,
               anchor_stride=None):
    """Conditional-moment tables of per-anchor futures, built node by node
    with ct.node_moments, the per-node function of the grouped pass."""
    anchors, end = ct.anchor_nodes(ce.grid, None, anchor_stride)
    tables = np.full((3, len(anchors), ce.grid.steps + 1), np.nan)
    for g, s in enumerate(anchors):
        zc, zpc = resampler(s, n_inner)
        for t in range(s + 1, end + 1):
            (dz, dzp), (rem,) = ct.node_moments(
                [zc[None, :, :, s], zpc[None, :, :, s]],
                [zc[None, :, :, t], zpc[None, :, :, t]],
                p.increment(np.array([s]), t), m, n_mode,
            )
            tables[:, g, t] = [dz[0], dzp[0], rem[0]]
    return ct.ConditionalMoments(anchors, [end] * len(anchors), *tables, m=m,
                                 n_mode=n_mode, inner_samples=n_inner)


class TestNodeMoments:
    """node_moments returns one moment per held slot and one remainder per
    adjacent pair of slots, each bitwise the per-pair reference."""

    @pytest.mark.parametrize("n_mode", [ct.N_INFTY, ct.N_EQ_M])
    @pytest.mark.parametrize("n_inner", [1, 4, 7])
    @pytest.mark.parametrize("n_slots", [2, 3])
    def test_matches_reference_on_each_adjacent_pair(self, n_slots, n_inner, n_mode):
        rng = substream(31, "t", "node-moments", n_slots, n_inner)
        groups, particles, d, k = 3, 5, 2, 2
        shapes = [(d,), (d, k), (d, k, k)][:n_slots]
        # the pass holds each anchor value once per inner sample
        held = [np.repeat(rng.normal(size=(groups, particles, 1) + shape), n_inner,
                          axis=2) for shape in shapes]
        now = [rng.normal(size=(groups, particles, n_inner) + shape)
               for shape in shapes]
        db = rng.normal(size=(groups, k))
        moments, remainders = ct.node_moments(held, now, db, 4, n_mode)
        assert (len(moments), len(remainders)) == (n_slots, n_slots - 1)
        for i in range(n_slots - 1):
            dz, dzp, rem = reference_node_moments(held[i], held[i + 1], now[i],
                                                  now[i + 1], db, 4, n_mode)
            np.testing.assert_array_equal(moments[i], dz)
            np.testing.assert_array_equal(moments[i + 1], dzp)
            np.testing.assert_array_equal(remainders[i], rem)


class TestEstimateNorm:
    def test_deterministic_drift_norm(self):
        # Z_t = t, Z' = 0: delta component is max (t-s)^(1-beta) = T^(1-beta)
        p = brownian_lift(12, n=16, horizon=2.0)
        z = np.broadcast_to(p.grid.nodes[:, None], (5, 17, 1)).copy()
        ce = ct.ControlledEnsemble(p.grid, z, np.zeros((5, 17, 1, 1)))
        idx = ct.IndexPair()
        moments = moments_of(deterministic_resampler(ce), ce, p, anchor_stride=1)
        est = ct.estimate_norm(ce, p, idx, m=4, moments=moments, anchor_stride=1)
        assert est.delta_z_norm == pytest.approx(2.0 ** (1 - idx.beta), rel=1e-12)
        assert est.zp_norm == 0.0
        assert est.mode == "two_level"

    def test_constant_z_all_zero(self):
        p = brownian_lift(13, n=8)
        ce = ct.ControlledEnsemble(p.grid, np.full((3, 9, 1), 2.5), np.zeros((3, 9, 1, 1)))
        moments = moments_of(deterministic_resampler(ce), ce, p)
        est = ct.estimate_norm(ce, p, ct.IndexPair(), moments=moments)
        assert (est.delta_z_norm, est.zp_norm, est.remainder_norm) == (0.0, 0.0, 0.0)
        assert est.combined == 0.0

    def test_scale_equivariance(self):
        p = brownian_lift(14, n=12)
        rng = substream(15, "t", "scale")
        z = rng.normal(size=(4, 13, 1))
        zp = rng.normal(size=(4, 13, 1, 1))
        ce = ct.ControlledEnsemble(p.grid, z, zp)
        ce3 = ct.ControlledEnsemble(p.grid, 3.0 * z, 3.0 * zp)
        e1 = ct.estimate_norm(ce, p, ct.IndexPair())
        e3 = ct.estimate_norm(ce3, p, ct.IndexPair())
        assert e3.delta_z_norm == pytest.approx(3.0 * e1.delta_z_norm, rel=1e-12)
        assert e3.zp_norm == pytest.approx(3.0 * e1.zp_norm, rel=1e-12)

    def test_lower_bound_mode_flagged_and_below_two_level(self):
        # two-level with a genuine conditional resampler dominates the
        # unconditional estimate computed from the pooled continuations
        p = brownian_lift(16, n=8)
        grid = p.grid
        n_part, n_inner = 6, 16
        base_rng = substream(17, "t", "lb")
        start = base_rng.normal(size=(n_part, 1))

        def resample(s_idx, n_inner):
            # Z_t = Z_s + (scaled by particle) Brownian continuation
            rng = substream(17, "t", "lb", "inner", s_idx)
            steps = grid.steps - s_idx
            z = np.zeros((n_part, n_inner, grid.steps + 1, 1))
            z[:, :, : s_idx + 1] = start[:, None, None]
            if steps:
                dw = rng.normal(0, np.sqrt(grid.dt), size=(n_part, n_inner, steps, 1))
                scale = (1.0 + np.arange(n_part))[:, None, None, None]
                z[:, :, s_idx + 1 :] = start[:, None, None] + np.cumsum(
                    scale * dw, axis=2
                )
            return z, np.zeros(z.shape + (1,))

        z0, zp0 = resample(0, n_inner)
        ce = ct.ControlledEnsemble(grid, z0[:, 0], zp0[:, 0])
        moments = moments_of(resample, ce, p, m=2, anchor_stride=1)
        two = ct.estimate_norm(
            ce, p, ct.IndexPair(), m=2, moments=moments, anchor_stride=1
        )
        pooled = ct.ControlledEnsemble(
            grid, z0.reshape(-1, grid.steps + 1, 1), zp0.reshape(-1, grid.steps + 1, 1, 1)
        )
        low = ct.estimate_norm(pooled, p, ct.IndexPair(), m=2, moments=None)
        assert low.mode == "lower_bound"
        assert low.delta_z_norm <= two.delta_z_norm + 1e-12

    def test_n_modes_order(self):
        p = brownian_lift(18, n=10)
        rng = substream(19, "t", "modes")
        ce = ct.ControlledEnsemble(
            p.grid, rng.normal(size=(8, 11, 1)), rng.normal(size=(8, 11, 1, 1))
        )
        res = deterministic_resampler(ce)
        hi = ct.estimate_norm(ce, p, ct.IndexPair(), n_mode=ct.N_INFTY,
                              moments=moments_of(res, ce, p, n_mode=ct.N_INFTY))
        lo = ct.estimate_norm(ce, p, ct.IndexPair(), n_mode=ct.N_EQ_M,
                              moments=moments_of(res, ce, p, n_mode=ct.N_EQ_M))
        assert lo.delta_z_norm <= hi.delta_z_norm + 1e-12

    def test_power_mean_combination(self):
        p = brownian_lift(20, n=6)
        rng = substream(21, "t", "pm")
        ce = ct.ControlledEnsemble(
            p.grid, rng.normal(size=(4, 7, 1)), rng.normal(size=(4, 7, 1, 1))
        )
        m = 4
        est = ct.estimate_norm(ce, p, ct.IndexPair(), m=m, combine="power_mean")
        parts = np.array([est.delta_z_norm, est.zp_norm, est.remainder_norm])
        assert est.combined == pytest.approx((np.mean(parts**m)) ** (1 / m), rel=1e-12)

    def test_window_restriction_shrinks(self):
        p = brownian_lift(22, n=32)
        rng = substream(23, "t", "win")
        ce = ct.ControlledEnsemble(
            p.grid, rng.normal(size=(4, 33, 1)), rng.normal(size=(4, 33, 1, 1))
        )
        full = ct.estimate_norm(ce, p, ct.IndexPair())
        win = ct.estimate_norm(ce, p, ct.IndexPair(), window=(0.25, 0.5))
        assert win.delta_z_norm <= full.delta_z_norm + 1e-12
