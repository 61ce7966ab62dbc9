import math

import numpy as np
import pytest

from mdocc.align import (
    CylGridSpec,
    EmptyIntersection,
    NormState,
    UnknownDataset,
    crop_points,
    cylindrical_voxelize,
    dsnorm_backward,
    dsnorm_forward,
    dsnorm_update_shared,
    intersect_ranges,
)
from mdocc.core import Range3D, rng_stream


class TestIntersectRanges:
    def test_full_scale_gt_ranges(self):
        # the two benchmark GT extents intersect to the minimum range exactly
        oo_nu = Range3D(-51.2, 51.2, -51.2, 51.2, -5.0, 3.0)
        sk = Range3D(0.0, 51.2, -25.6, 25.6, -3.4, 3.0)
        got = intersect_ranges([oo_nu, sk])
        assert got == Range3D(0.0, 51.2, -25.6, 25.6, -3.4, 3.0)

    def test_single_range_identity(self):
        r = Range3D(-1, 2, -3, 4, -5, 6)
        assert intersect_ranges([r]) == r

    def test_disjoint_z(self):
        a = Range3D(0, 1, 0, 1, 0, 1)
        b = Range3D(0, 1, 0, 1, 2, 3)
        with pytest.raises(EmptyIntersection):
            intersect_ranges([a, b])

    def test_commutative_associative(self):
        rng = rng_stream(11, "ranges")
        for _ in range(50):
            rs = []
            for _ in range(3):
                lo = rng.uniform(-5, 0, 3)
                hi = lo + rng.uniform(6, 10, 3)  # spans wide enough to always overlap
                rs.append(Range3D(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2]))
            a, b, c = rs
            fwd = intersect_ranges([a, b, c])
            assert fwd == intersect_ranges([c, b, a])
            assert fwd == intersect_ranges([intersect_ranges([a, b]), c])


class TestCropPoints:
    def test_all_inside_noop(self):
        pts = np.array([[0.5, 0.5, 0.5], [0.1, 0.9, 0.2]])
        out = crop_points(pts, Range3D(0, 1, 0, 1, 0, 1))
        assert np.array_equal(out, pts)

    def test_point_on_max_dropped(self):
        pts = np.array([[1.0, 0.5, 0.5]])
        assert crop_points(pts, Range3D(0, 1, 0, 1, 0, 1)).shape[0] == 0

    def test_points_on_each_bound_and_nan(self):
        # a point on a min bound stays and one on a max bound goes, per axis;
        # a NaN coordinate fails both comparisons, so its point goes too
        r = Range3D(-1, 2, -3, 4, 0.5, 1.5)
        lo, hi, mid = r.mins, r.maxs, (r.mins + r.maxs) / 2
        pts, want = [], []
        for ax in range(3):
            for value, kept in ((lo[ax], True), (hi[ax], False), (np.nan, False)):
                p = mid.copy()
                p[ax] = value
                pts.append(p)
                if kept:
                    want.append(p)
        pts.append(lo.copy())
        want.append(lo.copy())
        got = crop_points(np.array(pts), r)
        assert np.array_equal(got, np.array(want))

    def test_matches_per_point_predicate(self):
        rng = rng_stream(5, "crop")
        pts = rng.uniform(-4, 4, (1000, 3))
        lo = rng.uniform(-3, -1, 3)
        hi = lo + rng.uniform(1, 4, 3)
        r = Range3D(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
        got = crop_points(pts, r)
        # independent per-point filter
        want = [p for p in pts if all(lo[i] <= p[i] < hi[i] for i in range(3))]
        assert np.array_equal(got, np.array(want).reshape(-1, 3))

    def test_idempotent(self):
        rng = rng_stream(6, "crop")
        pts = rng.uniform(-2, 2, (500, 3))
        r = Range3D(-1, 1, -1, 1, -1, 1)
        once = crop_points(pts, r)
        assert np.array_equal(once, crop_points(once, r))


class TestCylindricalVoxelize:
    def spec(self, nr=4, na=8, nh=3):
        return CylGridSpec(bins=(nr, na, nh), radius_max_m=4.0, z_min_m=0.0, z_max_m=3.0)

    def test_single_point_analytic_bin(self):
        spec = self.spec()
        dr, dth, dz = spec.deltas
        r, th, z = dr / 2, dth / 2, dz / 2
        pts = np.array([[r * math.cos(th), r * math.sin(th), z]])
        vol = cylindrical_voxelize(pts, spec)
        assert vol[0, 0, 0, 0] == 1.0
        # offsets from the bin center are zero by construction, mean radius is r
        assert np.allclose(vol[0, 0, 0, 1:4], 0.0, atol=1e-12)
        assert np.isclose(vol[0, 0, 0, 4], r)
        vol[0, 0, 0] = 0.0
        assert np.all(vol == 0.0)

    def test_origin_point_theta_convention(self):
        spec = self.spec()
        vol = cylindrical_voxelize(np.array([[0.0, 0.0, 0.1]]), spec)
        assert vol[0, 0, 0, 0] == 1.0

    def test_count_conservation(self):
        spec = self.spec()
        rng = rng_stream(9, "cyl")
        pts = np.column_stack(
            [rng.uniform(-6, 6, 10_000), rng.uniform(-6, 6, 10_000), rng.uniform(-1, 4, 10_000)]
        )
        r = np.hypot(pts[:, 0], pts[:, 1])
        retained = int(np.sum((r < spec.radius_max_m) & (pts[:, 2] >= 0) & (pts[:, 2] < 3)))
        vol = cylindrical_voxelize(pts, spec)
        assert int(vol[..., 0].sum()) == retained

    def test_discards_out_of_extent(self):
        spec = self.spec()
        pts = np.array([[10.0, 0.0, 1.0], [1.0, 0.0, -0.5], [1.0, 0.0, 3.0]])
        vol = cylindrical_voxelize(pts, spec)
        assert vol[..., 0].sum() == 0


class TestDsnorm:
    def test_constant_batch_maps_to_zero(self):
        state = NormState(3, ["a"])
        x = np.full((16, 3), 7.5)
        y, _ = dsnorm_forward(x, "a", state, mode="train")
        assert np.allclose(y, 0.0)

    def test_closed_form_mean3_var4(self):
        state = NormState(1, ["a"], eps=1e-12)
        state.gamma = np.array([2.0])
        state.beta = np.array([1.0])
        x = np.array([[1.0], [5.0]])  # mean 3, biased variance 4
        y, _ = dsnorm_forward(x, "a", state, mode="train")
        assert np.allclose(y, x - 2.0, atol=1e-10)

    def test_formula_exactness(self):
        rng = rng_stream(2, "dsnorm")
        state = NormState(6, ["a"])
        state.gamma = rng.normal(size=6)
        state.beta = rng.normal(size=6)
        for _ in range(20):
            x = rng.normal(3.0, 2.0, (32, 6))
            y, _ = dsnorm_forward(x, "a", state, mode="train")
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            want = state.gamma * (x - mu) / np.sqrt(var + state.eps) + state.beta
            assert np.max(np.abs(y - want)) < 1e-12

    def test_running_stats_converge_and_isolate(self):
        rng = rng_stream(3, "dsnorm")
        state = NormState(2, ["a", "b"])
        before_b = {k: v.copy() for k, v in state.stats("b").items() if k != "count"}
        for _ in range(1000):
            xa = rng.normal([5.0, -1.0], [2.0, 0.5], (256, 2))
            dsnorm_forward(xa, "a", state, mode="train")
        sa = state.stats("a")
        assert np.allclose(sa["mean"], [5.0, -1.0], rtol=0.02)
        assert np.allclose(sa["var"], [4.0, 0.25], rtol=0.05)
        sb = state.stats("b")
        assert np.array_equal(sb["mean"], before_b["mean"])
        assert np.array_equal(sb["var"], before_b["var"])

    def test_interleaved_streams_never_mix(self):
        rng = rng_stream(4, "dsnorm")
        state = NormState(1, ["a", "b"])
        for _ in range(800):
            dsnorm_forward(rng.normal(5.0, 1.0, (32, 1)), "a", state, mode="train")
            dsnorm_forward(rng.normal(-5.0, 1.0, (32, 1)), "b", state, mode="train")
        assert abs(state.stats("a")["mean"][0] - 5.0) < 0.2
        assert abs(state.stats("b")["mean"][0] + 5.0) < 0.2

    def test_eval_uses_stored_stats(self):
        state = NormState(1, ["a"])
        state._stats["a"]["mean"][:] = 2.0
        state._stats["a"]["var"][:] = 4.0
        x = np.array([[4.0]])
        y, _ = dsnorm_forward(x, "a", state, mode="eval")
        assert np.allclose(y, (4.0 - 2.0) / np.sqrt(4.0 + state.eps))

    def test_eval_after_convergence_matches_population(self):
        rng = rng_stream(8, "dsnorm")
        state = NormState(1, ["a"])
        for _ in range(1000):
            dsnorm_forward(rng.normal(1.5, 2.0, (128, 1)), "a", state, mode="train")
        x = rng.normal(1.5, 2.0, (64, 1))
        y_run, _ = dsnorm_forward(x, "a", state, mode="eval")
        pop = NormState(1, ["a"])
        pop._stats["a"]["mean"][:] = 1.5
        pop._stats["a"]["var"][:] = 4.0
        y_pop, _ = dsnorm_forward(x, "a", pop, mode="eval")
        assert np.max(np.abs(y_run - y_pop)) < 0.05

    def test_unknown_dataset(self):
        state = NormState(2, ["a"])
        with pytest.raises(UnknownDataset):
            dsnorm_forward(np.zeros((1, 2)), "zz", state, mode="train")

    def test_update_shared(self):
        state = NormState(2, ["a", "b"])
        g0, b0 = state.gamma.copy(), state.beta.copy()
        dsnorm_update_shared(state, np.zeros(2), np.zeros(2), 0.5)
        assert np.array_equal(state.gamma, g0) and np.array_equal(state.beta, b0)
        dsnorm_update_shared(state, np.array([1.0, 0.0]), np.array([0.0, 2.0]), 0.0)
        assert np.array_equal(state.gamma, g0) and np.array_equal(state.beta, b0)
        dsnorm_update_shared(state, np.array([1.0, 0.0]), np.array([0.0, 2.0]), 0.1)
        dsnorm_update_shared(state, np.array([1.0, 0.0]), np.array([0.0, 2.0]), 0.1)
        # gradients from any dataset hit the one shared copy
        assert np.allclose(state.gamma, g0 - 0.2 * np.array([1.0, 0.0]))
        assert np.allclose(state.beta, b0 - 0.2 * np.array([0.0, 2.0]))

    def test_backward_matches_finite_differences(self):
        rng = rng_stream(12, "dsnorm")
        state = NormState(3, ["a"])
        state.gamma = rng.normal(1.0, 0.2, 3)
        state.beta = rng.normal(0.0, 0.2, 3)
        x = rng.normal(0.0, 1.0, (10, 3))
        w = rng.normal(size=(10, 3))  # random linear functional as the loss

        def loss(xv):
            y, _ = dsnorm_forward(xv, "a", state, mode="train")
            return float((w * y).sum())

        y, cache = dsnorm_forward(x, "a", state, mode="train")
        gx, ggamma, gbeta = dsnorm_backward(w, cache, state)
        h = 1e-6
        for i in range(10):
            for j in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (loss(xp) - loss(xm)) / (2 * h)
                assert abs(fd - gx[i, j]) < 1e-6 * max(1.0, abs(fd))
