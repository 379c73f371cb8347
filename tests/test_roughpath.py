import io
import struct
import tracemalloc

import numpy as np
import pytest

from roughmfg import randomize as rz
from roughmfg import roughpath as rp
from roughmfg.rng import substream


def brownian_lift(seed, n=32, k=1, horizon=1.0):
    grid = rp.TimeGrid(horizon, n)
    dw = substream(seed, "test", "bm").normal(0.0, np.sqrt(grid.dt), size=(n, k))
    return rp.ito_lift(dw, grid)


def reference_second_from_prefix(first, prefix):
    """Dense pair array as lifts stored it before the compact layout: entry
    [i, j] = S_j - S_i - B_i (x) (B_j - B_i) for i < j, zero elsewhere."""
    n = first.shape[0]
    second = prefix[None, :, :, :] - prefix[:, None, :, :]
    db = first[None, :, :] - first[:, None, :]
    second -= first[:, None, :, None] * db[:, :, None, :]
    second[np.tril_indices(n)] = 0.0
    return second


def dense_second(p):
    return reference_second_from_prefix(p.first_level, p.prefix)


def reference_dump(p):
    """Container bytes in the dense layout, written from the reference."""
    head = b"RPTH" + struct.pack("<I", 1) + struct.pack("<II", p.dim, p.grid.steps)
    head += struct.pack("<d", p.grid.horizon)
    head += struct.pack("<B", {rp.BRACKET_ITO: 0, rp.BRACKET_GEOMETRIC: 1}[p.bracket_mode])
    return (head + p.first_level.astype("<f8").tobytes()
            + dense_second(p).astype("<f8").tobytes())


def equivalence_lifts():
    """Ito lifts (B_0 = 0) and smooth lifts with B_0 != 0, k = 1, 2, 3."""
    rng = substream(21, "test", "equiv")
    for k in (1, 2, 3):
        grid = rp.TimeGrid(1.0, 20)
        yield rp.ito_lift(rng.normal(0.0, np.sqrt(grid.dt), size=(20, k)), grid)
        yield rp.smooth_lift(3.0 + rng.normal(size=(21, k)), grid)


class TestTimeGrid:
    def test_nodes_uniform(self):
        grid = rp.TimeGrid(2.0, 8)
        assert grid.dt == 0.25
        np.testing.assert_allclose(np.diff(grid.nodes), 0.25)
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0

    def test_rejects_empty(self):
        with pytest.raises(rp.InputError):
            rp.TimeGrid(1.0, 0)

    def test_node_lookup(self):
        grid = rp.TimeGrid(1.0, 10)
        assert grid.node_at(0.31) == 3
        assert grid.node_at(-2.0) == 0
        assert grid.node_at(9.0) == 10


class TestItoLift:
    def test_single_step_second_level_vanishes(self):
        grid = rp.TimeGrid(1.0, 1)
        p = rp.ito_lift(np.array([[3.7]]), grid)
        assert p.second(0, 1)[0, 0] == 0.0

    def test_zero_path(self):
        grid = rp.TimeGrid(1.0, 5)
        p = rp.ito_lift(np.zeros((5, 2)), grid)
        assert np.all(p.first_level == 0.0)
        assert np.all(p.prefix == 0.0)

    def test_two_step_hand_expansion(self):
        # second level over the full window is the product of the increments
        grid = rp.TimeGrid(1.0, 2)
        a, b = 0.7, -1.3
        p = rp.ito_lift(np.array([a, b]), grid)
        assert p.second(0, 2)[0, 0] == pytest.approx(a * b, abs=1e-15)

    def test_length_mismatch(self):
        grid = rp.TimeGrid(1.0, 4)
        with pytest.raises(rp.InputError):
            rp.ito_lift(np.zeros(3), grid)

    def test_nonfinite_rejected(self):
        grid = rp.TimeGrid(1.0, 2)
        with pytest.raises(rp.InputError):
            rp.ito_lift(np.array([1.0, np.nan]), grid)

    def test_chen_defect_roundoff(self):
        for seed, k in [(0, 1), (1, 2), (2, 3)]:
            p = brownian_lift(seed, n=24, k=k)
            scale = 1.0 + np.abs(p.increments()).max() ** 2
            assert rp.chen_defect(p) <= 1e-12 * scale

    def test_bracket_mean_near_identity(self):
        # statistical invariant: mean realized bracket over [0,T] close to T*I
        m, t_hor = 10_000, 1.0
        rng = substream(7, "test", "bracket")
        total = np.zeros((2, 2))
        grid = rp.TimeGrid(t_hor, 8)
        for _ in range(m):
            dw = rng.normal(0.0, np.sqrt(grid.dt), size=(8, 2))
            total += rp.ito_lift(dw, grid).bracket(0, 8)
        mean = total / m
        assert np.abs(mean - t_hor * np.eye(2)).max() <= 4.0 * t_hor / np.sqrt(m)


class TestSmoothLift:
    def test_single_segment(self):
        grid = rp.TimeGrid(1.0, 1)
        p = rp.smooth_lift(np.array([[0.0, 1.0], [2.0, -1.0]]), grid)
        db = p.first_level[1] - p.first_level[0]
        np.testing.assert_allclose(p.second(0, 1), 0.5 * np.outer(db, db))

    def test_linear_path_half_square(self):
        grid = rp.TimeGrid(1.0, 4)
        p = rp.smooth_lift(grid.nodes, grid)
        assert p.second(0, 4)[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_parabola_oracle(self):
        # exact integral of (t, t^2) (x) (1, 2t) dt on [0,1], antiderivatives
        exact = np.array([[1 / 2, 2 / 3], [1 / 3, 1 / 2]])
        errs = []
        for n in (64, 128):
            grid = rp.TimeGrid(1.0, n)
            t = grid.nodes
            p = rp.smooth_lift(np.stack([t, t**2], axis=1), grid)
            errs.append(np.abs(p.second(0, n) - exact).max())
        assert errs[0] <= 2.0 / 64
        assert errs[1] <= 0.6 * errs[0]  # first-order shrink under refinement

    def test_symmetry_identity(self):
        rng = substream(3, "test", "smooth")
        for k in (1, 2, 3):
            grid = rp.TimeGrid(1.0, 16)
            p = rp.smooth_lift(rng.normal(size=(17, k)), grid)
            scale = 1.0 + np.abs(p.increments()).max() ** 2
            assert rp.symmetry_defect(p) <= 1e-13 * scale

    def test_chen_defect_roundoff(self):
        rng = substream(4, "test", "smoothchen")
        p = rp.smooth_lift(rng.normal(size=(25, 2)), rp.TimeGrid(1.0, 24))
        scale = 1.0 + np.abs(p.increments()).max() ** 2
        assert rp.chen_defect(p) <= 1e-12 * scale


class TestChenDefect:
    def test_detects_injected_corruption(self):
        # a compact lift satisfies Chen by construction, so a corrupted
        # dense second level must be caught where it enters
        p = brownian_lift(11, n=12)
        second = dense_second(p)
        rp.from_dense(p.grid, p.first_level.copy(), second.copy(), p.bracket_mode)
        second[2, 7, 0, 0] += 1.0
        with pytest.raises(rp.InputError, match=r"\(2, 7\)"):
            rp.from_dense(p.grid, p.first_level.copy(), second, p.bracket_mode)


class TestHolder:
    def test_identical_paths_distance_zero(self):
        p = brownian_lift(5, n=16, k=2)
        assert rp.rho_alpha(p, p, 0.45) == 0.0

    def test_linear_vs_zero_alpha_half(self):
        grid = rp.TimeGrid(1.0, 8)
        p = rp.smooth_lift(grid.nodes, grid)
        q = rp.smooth_lift(np.zeros(9), grid)
        assert rp.rho_alpha(p, q, 0.5) == pytest.approx(1.5, abs=1e-12)
        rep = rp.holder_report(p, 0.5)
        assert rep.first_seminorm == pytest.approx(1.0, abs=1e-12)
        assert rep.second_seminorm == pytest.approx(0.5, abs=1e-12)

    def test_coarsening_shrinks_report(self):
        p = brownian_lift(6, n=32)
        full = rp.holder_report(p, 0.45)
        half = rp.holder_report(p.restrict(2), 0.45)
        assert half.first_seminorm <= full.first_seminorm
        assert half.second_seminorm <= full.second_seminorm

    def test_metric_axioms_on_random_triples(self):
        grid = rp.TimeGrid(1.0, 10)
        rng = substream(8, "test", "metric")
        for trial in range(20):
            lifts = [
                rp.ito_lift(rng.normal(size=(10, 2)) * 0.3, grid) for _ in range(3)
            ]
            a, b, c = lifts
            dab = rp.rho_alpha(a, b)
            dba = rp.rho_alpha(b, a)
            assert dab >= 0.0
            assert dab == pytest.approx(dba, rel=1e-12)
            assert rp.rho_alpha(a, c) <= dab + rp.rho_alpha(b, c) + 1e-12
        with pytest.raises(rp.InputError):
            rp.rho_alpha(a, brownian_lift(0, n=12, k=2))

    def test_alpha_validation(self):
        p = brownian_lift(9, n=8)
        with pytest.raises(rp.InputError):
            rp.holder_report(p, 0.7)


class TestIO:
    def test_binary_roundtrip(self):
        p = brownian_lift(13, n=20, k=3)
        buf = io.BytesIO()
        rp.dump(p, buf)
        buf.seek(0)
        q = rp.load(buf)
        assert q.bracket_mode == p.bracket_mode
        assert q.grid == p.grid
        np.testing.assert_array_equal(q.first_level, p.first_level)
        np.testing.assert_array_equal(q.prefix, p.prefix)

    def test_bad_magic(self):
        with pytest.raises(rp.InputError):
            rp.load(io.BytesIO(b"XXXX" + b"\0" * 64))

    def test_dense_roundtrip_smooth_offset(self):
        # B_0 != 0: the prefix sums recovered from row 0 carry round-off
        rng = substream(15, "test", "offset")
        p = rp.smooth_lift(5.0 + rng.normal(size=(33, 2)), rp.TimeGrid(1.0, 32))
        buf = io.BytesIO()
        rp.dump(p, buf)
        buf.seek(0)
        q = rp.load(buf)
        i, j = np.triu_indices(33, k=1)
        np.testing.assert_allclose(q.second(i, j), p.second(i, j), rtol=0, atol=1e-12)

    def test_truncated_payload(self):
        buf = io.BytesIO()
        rp.dump(brownian_lift(16, n=8, k=2), buf)
        data = buf.getvalue()
        for cut, what in [(len(data) - 8, "second level"), (40, "first level"),
                          (10, "header")]:
            with pytest.raises(rp.InputError, match=what):
                rp.load(io.BytesIO(data[:cut]))

    def test_bad_mode_byte(self):
        buf = io.BytesIO()
        rp.dump(brownian_lift(17, n=4), buf)
        data = bytearray(buf.getvalue())
        data[24] = 7  # magic 4, version 4, k and N 8, horizon 8
        with pytest.raises(rp.InputError, match="bracket mode code 7"):
            rp.load(io.BytesIO(bytes(data)))

    def test_nonfinite_dense_entry(self):
        p = brownian_lift(18, n=6)
        second = dense_second(p)
        second[4, 1, 0, 0] = np.nan  # below the diagonal: not a Chen pair
        with pytest.raises(rp.InputError, match="non-finite"):
            rp.from_dense(p.grid, p.first_level.copy(), second, p.bracket_mode)


class TestCompactEquivalence:
    """The compact lift against the dense pair array it replaced."""

    def test_second_matches_dense_reference(self):
        for p in equivalence_lifts():
            dense = dense_second(p)
            i, j = np.triu_indices(p.grid.steps + 1, k=1)
            np.testing.assert_array_equal(p.second(i, j), dense[i, j])
            idx = np.arange(p.grid.steps)
            np.testing.assert_array_equal(p.step_second(), dense[idx, idx + 1])

    def test_restrict_matches_dense_subsample(self):
        for p in equivalence_lifts():
            sel = np.arange(0, p.grid.steps + 1, 2)
            old = dense_second(p)[np.ix_(sel, sel)]
            q = p.restrict(2)
            i, j = np.triu_indices(len(sel), k=1)
            np.testing.assert_array_equal(q.first_level, p.first_level[sel])
            np.testing.assert_array_equal(q.second(i, j), old[i, j])

    def test_dump_bytes_match_dense_layout(self):
        for p in equivalence_lifts():
            buf = io.BytesIO()
            rp.dump(p, buf)
            assert buf.getvalue() == reference_dump(p)


class TestStorage:
    @staticmethod
    def peak_mib(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_ito_lift_is_linear_in_steps(self):
        grid = rp.TimeGrid(1.0, 2048)
        dw = substream(19, "test", "storage").normal(0.0, np.sqrt(grid.dt), (2048, 2))
        assert self.peak_mib(lambda: rp.ito_lift(dw, grid)) <= 1.0

    def test_refined_sample_lift_is_linear_in_steps(self):
        grid = rp.TimeGrid(1.0, 512)
        assert self.peak_mib(
            lambda: rz.sample_lift(grid, 2, seed=3, inner_refine=4)
        ) <= 1.0
