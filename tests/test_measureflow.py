import numpy as np
import pytest

from roughmfg import controlled as ct
from roughmfg import measureflow as mf
from roughmfg import roughpath as rp
from roughmfg.rng import substream


def brownian_lift(seed, n=16, k=1):
    grid = rp.TimeGrid(1.0, n)
    dw = substream(seed, "mf", "bm").normal(0.0, np.sqrt(grid.dt), size=(n, k))
    return rp.ito_lift(dw, grid)


class TestWasserstein:
    def test_identical_clouds(self):
        a = substream(0, "mf", "w").normal(size=(40, 2))
        assert mf.wasserstein2(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_transport(self):
        assert mf.wasserstein2(np.array([[0.0]]), np.array([[1.0]])) == 1.0

    def test_monotone_coupling_oracle(self):
        # both couplings of {0,2} vs {1,3}: monotone costs 1, crossed costs
        # sqrt(5); the optimum is the monotone one
        got = mf.wasserstein2(np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]]))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_exact_assignment_small_2d(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        # optimal matching: (1,0)->(1,0), (0,0)->(0,1): mean sq cost 1/2
        assert mf.wasserstein2(a, b) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_metric_axioms_1d(self):
        rng = substream(1, "mf", "metric")
        for _ in range(25):
            a, b, c = (rng.normal(size=(20, 1)) for _ in range(3))
            dab = mf.wasserstein2(a, b)
            assert dab >= 0
            assert dab == pytest.approx(mf.wasserstein2(b, a), rel=1e-12)
            assert mf.wasserstein2(a, c) <= dab + mf.wasserstein2(b, c) + 1e-12

    def test_empty_cloud_rejected(self):
        with pytest.raises(rp.InputError):
            mf.wasserstein2(np.zeros((0, 1)), np.zeros((3, 1)))

    def test_sliced_close_to_exact_on_gaussians(self):
        rng = substream(2, "mf", "sliced")
        a = rng.normal(size=(400, 2))
        b = rng.normal(size=(400, 2)) + np.array([1.0, 0.0])
        sliced = mf.wasserstein2(a, b, projections=200, seed=3)
        small = mf.wasserstein2(a[:64], b[:64])  # exact assignment
        assert sliced == pytest.approx(small, rel=0.35)


class TestMix:
    def flows(self, seed, particles=100):
        grid = rp.TimeGrid(1.0, 4)
        rng = substream(seed, "mf", "mix")
        a = mf.MeasureFlow(
            grid,
            rng.normal(size=(particles, 5, 1)),
            rng.normal(size=(particles, 5, 1, 1)),
        )
        b = mf.MeasureFlow(
            grid,
            rng.normal(size=(particles, 5, 1)) + 5.0,
            rng.normal(size=(particles, 5, 1, 1)),
        )
        return a, b

    def test_endpoints_exact(self):
        a, b = self.flows(0)
        np.testing.assert_array_equal(mf.mix(a, b, 1.0).Y, a.Y)
        np.testing.assert_array_equal(mf.mix(a, b, 0.0).Y, b.Y)

    def test_half_mixture_of_point_masses(self):
        grid = rp.TimeGrid(1.0, 3)
        p = 10_000
        a = mf.constant_flow(grid, np.zeros((p, 1)), k=1)
        b = mf.constant_flow(grid, np.ones((p, 1)), k=1)
        mixed = mf.mix(a, b, 0.5, seed=4)
        for n in range(4):
            assert abs(mixed.cloud(n).mean() - 0.5) <= 0.02

    def test_self_mix_is_identity(self):
        a, _ = self.flows(1)
        for lam in (0.2, 0.7):
            np.testing.assert_array_equal(mf.mix(a, a, lam, seed=5).Y, a.Y)

    def test_trajectory_coupling(self):
        # a particle comes entirely from one flow: switching mid-path never
        # happens, so every row matches one source row exactly
        a, b = self.flows(2, particles=50)
        mixed = mf.mix(a, b, 0.5, seed=6)
        for i in range(50):
            from_a = np.array_equal(mixed.Y[i], a.Y[i])
            from_b = np.array_equal(mixed.Y[i], b.Y[i])
            assert from_a or from_b

    def test_bad_weight(self):
        a, b = self.flows(3)
        with pytest.raises(rp.InputError):
            mf.mix(a, b, 1.5)


class TestCheckDomain:
    def test_constant_flow_member(self):
        grid = rp.TimeGrid(1.0, 16)
        p = brownian_lift(4, n=16)
        cloud = substream(5, "mf", "dom").normal(size=(32, 1))
        flow = mf.constant_flow(grid, cloud, k=1)
        cert = mf.check_domain(
            flow, p, ct.IndexPair(), m=4, M_bound=1.0, epsilon=0.3
        )
        assert cert.member
        assert cert.offending_window is None
        assert cert.worst == 0.0  # frozen particles, zero derivative

    def test_scaled_flow_not_member(self):
        grid = rp.TimeGrid(1.0, 16)
        p = brownian_lift(6, n=16)
        rng = substream(7, "mf", "dom2")
        flow = mf.MeasureFlow(
            grid,
            50.0 * rng.normal(size=(16, 17, 1)),
            50.0 * rng.normal(size=(16, 17, 1, 1)),
        )
        cert = mf.check_domain(flow, p, ct.IndexPair(), m=4, M_bound=0.5, epsilon=0.3)
        assert not cert.member
        assert cert.offending_window is not None
        assert cert.worst > 0.5

    def test_monotone_in_bound_and_window(self):
        grid = rp.TimeGrid(1.0, 16)
        p = brownian_lift(8, n=16)
        rng = substream(9, "mf", "dom3")
        flow = mf.MeasureFlow(
            grid, rng.normal(size=(8, 17, 1)), rng.normal(size=(8, 17, 1, 1))
        )
        idx = ct.IndexPair()
        base = mf.check_domain(flow, p, idx, m=4, M_bound=2.0, epsilon=0.4)
        if base.member:
            bigger = mf.check_domain(flow, p, idx, m=4, M_bound=3.0, epsilon=0.4)
            assert bigger.member
            tighter = mf.check_domain(flow, p, idx, m=4, M_bound=2.0, epsilon=0.2)
            assert tighter.member


class TestFlowBasics:
    def test_constant_flow_shape(self):
        grid = rp.TimeGrid(1.0, 3)
        flow = mf.constant_flow(grid, np.array([[1.0], [2.0]]), k=2)
        assert flow.Y.shape == (2, 4, 1)
        assert flow.Yp.shape == (2, 4, 1, 2)
        assert np.all(flow.cloud(2) == np.array([[1.0], [2.0]]))

    def test_flow_distance(self):
        grid = rp.TimeGrid(1.0, 2)
        a = mf.constant_flow(grid, np.zeros((5, 1)), k=1)
        b = mf.constant_flow(grid, np.ones((5, 1)), k=1)
        assert mf.flow_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_missing_derivative_particles_refused(self):
        # every flow the library builds carries derivative particles
        grid = rp.TimeGrid(1.0, 4)
        y = np.zeros((4, 5, 1))
        with pytest.raises(TypeError):
            mf.MeasureFlow(grid, y)
        with pytest.raises(rp.InputError, match="derivative particles"):
            mf.MeasureFlow(grid, y, None)
