"""Forward moment pooling: oracle equivalence, layout, costs, guards."""

import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from momentpool import normalize, smp
from momentpool.normalize import BatchNormState
from momentpool.smp import (MomentSpec, op_cost, output_shape, sap_forward,
                            smp_backward, smp_forward)
from momentpool.synth import checkerboard, solid
from momentpool.tensor import Tensor
from momentpool.windows import GeometryError, PoolSpec, output_dims

from oracle import central_moments
from test_windows import gather_window, random_geometry

UNSAFE4 = MomentSpec(n=4, norm="none", unsafe_no_norm=True)
CHECKER_MOMENTS = [5 / 9, 20 / 81, -20 / 729, 3780 / 59049]


def naive_forward(t: Tensor, spec: PoolSpec, n: int) -> np.ndarray:
    """Per-output-cell recomputation through central_moments (the oracle).

    Gathers each window directly, drops out-of-bounds cells, and asks the
    scalar moments routine for the statistics.
    """
    x4 = t.nchw
    n_s, c_s, h, w = x4.shape
    h_out, w_out = output_dims(h, w, spec)
    out = np.empty((n_s, n * c_s, h_out, w_out))
    sentinel = float("nan")
    for b in range(n_s):
        for c in range(c_s):
            for oh in range(h_out):
                for ow in range(w_out):
                    win = gather_window(x4[b, c], spec, oh, ow, sentinel)
                    mv = central_moments(win[~np.isnan(win)], n)
                    for i in range(1, n + 1):
                        out[b, (i - 1) * c_s + c, oh, ow] = mv.by_order(i)
    return out


def random_suite(seed, cases, max_shape=(2, 4, 16, 16)):
    """Seeded tensors plus geometries exercising every knob."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        shape = tuple(int(rng.integers(1, hi + 1)) for hi in max_shape)
        x = Tensor(shape, rng.uniform(-1, 1, int(np.prod(shape))))
        spec = random_geometry(rng, shape[2], shape[3])
        yield x, spec


class TestForwardValues:
    def test_checkerboard_full_window_moments(self):
        t = checkerboard((1, 1, 3, 3), 1.0, 0.0)
        out = smp_forward(t, PoolSpec(3, 3), UNSAFE4)
        assert out.shape == (1, 4, 1, 1)
        np.testing.assert_allclose(out.data, CHECKER_MOMENTS, rtol=0, atol=1e-15)

    def test_solid_full_window_moments(self):
        out = smp_forward(solid((1, 1, 3, 3), 7.0), PoolSpec(3, 3), UNSAFE4)
        assert out.data.tolist() == [7.0, 0.0, 0.0, 0.0]

    def test_global_mean(self):
        out = sap_forward(Tensor((1, 1, 2, 2), [1, 2, 3, 4]), PoolSpec(2, 2))
        assert out.data.tolist() == [2.5]

    def test_strided_window_means(self):
        t = Tensor((1, 1, 4, 4), np.arange(16.0))
        out = sap_forward(t, PoolSpec.square(2, stride=2))
        assert out.nchw[0, 0].tolist() == [[2.5, 4.5], [10.5, 12.5]]

    def test_order1_is_sap_bitwise(self):
        for x, spec in random_suite(3, 100):
            a = smp_forward(x, spec, MomentSpec(n=1, norm="none"))
            b = sap_forward(x, spec)
            assert a.data.tobytes() == b.data.tobytes()

    def test_sap_equals_box_filter_convolution(self):
        """Average pooling is convolution with a constant 1/(kh*kw) kernel."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = int(rng.integers(2, 12))
            w = int(rng.integers(2, 12))
            spec = random_geometry(rng, h, w, allow_pad=False)
            x = rng.standard_normal((2, h, w))
            pooled = sap_forward(Tensor((2, h, w), x), spec).nchw
            h_out, w_out = output_dims(h, w, spec)
            weight = 1.0 / spec.window_size
            for c in range(2):
                for oh in range(h_out):
                    for ow in range(w_out):
                        acc = 0.0
                        for i in range(spec.kernel_h):
                            for j in range(spec.kernel_w):
                                acc += weight * x[c,
                                                  oh * spec.stride_h + i * spec.dilation_h,
                                                  ow * spec.stride_w + j * spec.dilation_w]
                        assert abs(pooled[0, c, oh, ow] - acc) < 1e-10

    def test_matches_naive_oracle(self):
        """Vectorized forward vs per-window central_moments, 1e-12."""
        for x, spec in random_suite(303, 30, max_shape=(2, 3, 16, 16)):
            got = smp_forward(x, spec, UNSAFE4).nchw
            np.testing.assert_allclose(got, naive_forward(x, spec, 4),
                                       rtol=0, atol=1e-12)

    def test_exclusive_padding_uses_inbounds_cells_only(self):
        spec = PoolSpec.square(3, stride=2, pad=1)
        t = Tensor((1, 1, 4, 4), np.arange(16.0))
        got = smp_forward(t, spec, UNSAFE4).nchw
        np.testing.assert_allclose(got, naive_forward(t, spec, 4),
                                   rtol=0, atol=1e-12)
        # corner window sees exactly {0, 1, 4, 5}
        corner = central_moments([0.0, 1.0, 4.0, 5.0], 4)
        assert got[0, 0, 0, 0] == pytest.approx(corner.m1, abs=1e-15)
        assert got[0, 1, 0, 0] == pytest.approx(corner.m2, abs=1e-15)


class TestShapeAndLayout:
    def test_shape_law(self):
        for x, spec in random_suite(5, 30):
            for n in (1, 2, 3, 4):
                ms = MomentSpec(n=n, norm="none", unsafe_no_norm=True)
                out = smp_forward(x, spec, ms)
                n_s, c_s = x.nchw.shape[:2]
                h_out, w_out = output_dims(x.nchw.shape[2], x.nchw.shape[3], spec)
                assert out.shape == (n_s, n * c_s, h_out, w_out)
                assert output_shape(x.shape, spec, ms) == out.nchw.shape

    def test_moment_major_channel_order(self):
        # distinct per-channel solids: means identify the input channel,
        # higher moments are zero, pinning the [all m1 | all m2 | ...] layout
        x = np.stack([np.full((2, 2), 1.0), np.full((2, 2), 2.0),
                      np.full((2, 2), 3.0)])
        out = smp_forward(Tensor((3, 2, 2), x), PoolSpec(2, 2),
                          MomentSpec(n=2, norm="none")).nchw
        assert out[0, :, 0, 0].tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, 0.0]

    def test_nonlinearity_witness(self):
        """Order-2 pooling is not additive: m2(x + (-x)) != m2(x) + m2(-x)."""
        spec = MomentSpec(n=2, norm="none")
        pool = PoolSpec(3, 3)
        x = checkerboard((1, 1, 3, 3), 1.0, 0.0)
        y = Tensor(x.shape, -x.data)
        lhs = smp_forward(Tensor(x.shape, x.data + y.data), pool, spec).nchw[0, 1]
        rhs = (smp_forward(x, pool, spec).nchw[0, 1]
               + smp_forward(y, pool, spec).nchw[0, 1])
        assert lhs[0, 0] == 0.0
        assert rhs[0, 0] == pytest.approx(2 * 20 / 81, abs=1e-12)

    def test_equal_means_separated_by_second_moment(self):
        """Checkerboard vs solid of the same mean differ only above order 1."""
        pool = PoolSpec(3, 3)
        board = smp_forward(checkerboard((1, 1, 3, 3), 1.0, 0.0), pool, UNSAFE4)
        flat = smp_forward(solid((1, 1, 3, 3), 5 / 9), pool, UNSAFE4)
        assert abs(board.data[0] - flat.data[0]) < 1e-12
        assert abs(board.data[1] - flat.data[1]) >= 0.2  # 20/81 vs 0

    def test_shift_moves_only_the_mean_channels(self):
        for x, spec in random_suite(17, 20, max_shape=(2, 3, 10, 10)):
            base = smp_forward(x, spec, UNSAFE4).nchw
            c = 1.75
            shifted = smp_forward(Tensor(x.shape, x.data + c), spec, UNSAFE4).nchw
            c_s = x.nchw.shape[1]
            np.testing.assert_allclose(shifted[:, :c_s], base[:, :c_s] + c,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(shifted[:, c_s:], base[:, c_s:],
                                       rtol=0, atol=1e-10)


class TestMomentSpec:
    def test_high_order_without_norm_needs_unsafe_flag(self):
        with pytest.raises(ValueError, match="unsafe"):
            MomentSpec(n=3, norm="none")
        with pytest.raises(ValueError, match="unsafe"):
            MomentSpec(n=4, norm="none")
        MomentSpec(n=4, norm="none", unsafe_no_norm=True)
        MomentSpec(n=2, norm="none")  # fine below order 3

    def test_field_validation(self):
        with pytest.raises(ValueError):
            MomentSpec(n=5, norm="layer")
        with pytest.raises(ValueError):
            MomentSpec(n=2, norm="rms")
        with pytest.raises(ValueError):
            MomentSpec(n=2, norm="layer", eps_norm=0.0)
        with pytest.raises(ValueError):
            MomentSpec(n=2, norm="layer", norm_axis="channel")
        for eps in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="eps_norm"):
                MomentSpec(n=4, norm="layer", eps_norm=eps)
        for n in (True, 4.0):
            with pytest.raises(ValueError, match="order"):
                MomentSpec(n=n, norm="layer")

    def test_flags_must_be_bools(self):
        """A truthy non-bool neither unlocks the unsafe mode nor turns
        standardization on."""
        for flag in ("unsafe_no_norm", "standardize_pre_norm"):
            for bad in ("no", 1, None, np.bool_(True)):
                with pytest.raises(ValueError, match=f"{flag} must be a bool, "
                                                     f"got {bad!r}"):
                    MomentSpec(n=3, norm="none", **{flag: bad})
        MomentSpec(n=3, norm="none", unsafe_no_norm=True,
                   standardize_pre_norm=False)

    def test_eps_norm_must_be_a_real_number(self):
        for bad in (True, False, "1e-5", None, 1e-5j):
            with pytest.raises(ValueError, match=f"eps_norm .* got {bad!r}"):
                MomentSpec(n=4, norm="layer", eps_norm=bad)
        for good in (1, 1e-3, np.float64(1e-3), np.int64(2)):
            assert MomentSpec(n=4, norm="layer", eps_norm=good).eps_norm == good

    def test_norm_axis_message_names_the_value(self):
        with pytest.raises(ValueError, match="got 'channel'"):
            MomentSpec(n=4, norm="layer", norm_axis="channel")

    def test_invalid_geometry_surfaces(self):
        with pytest.raises(GeometryError):
            smp_forward(solid((1, 1, 2, 2), 1.0), PoolSpec(3, 3),
                        MomentSpec(n=1, norm="none"))

    def test_window_with_no_input_cell_is_refused(self):
        """A dilated kernel can step over a 1x1 input: windows at outputs 1
        and 3 hold only padding, so there is no count to divide by."""
        pool = PoolSpec(2, 1, 1, 1, 3, 0, 3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=r"no input cell on input 1x1"):
                smp_forward(solid((1, 1, 1, 1), 1.0), pool,
                            MomentSpec(n=2, norm="none"))


class TestNormalizationWiring:
    def test_orders_one_and_two_never_normalized(self):
        for x, spec in random_suite(23, 10, max_shape=(2, 2, 8, 8)):
            raw = smp_forward(x, spec, UNSAFE4).nchw
            for norm in ("layer", "max"):
                normed = smp_forward(x, spec, MomentSpec(n=4, norm=norm)).nchw
                c_s = x.nchw.shape[1]
                np.testing.assert_array_equal(normed[:, : 2 * c_s],
                                              raw[:, : 2 * c_s])

    def test_layer_norm_groups_are_per_sample_per_order(self):
        rng = np.random.default_rng(27)
        x = Tensor((2, 3, 8, 8), rng.uniform(-1, 1, 2 * 3 * 8 * 8))
        pool = PoolSpec.square(3, stride=2)
        raw = smp_forward(x, pool, UNSAFE4).nchw
        normed = smp_forward(x, pool, MomentSpec(n=4, norm="layer")).nchw
        from momentpool.normalize import layer_norm
        for b in range(2):
            for order in (3, 4):
                group = raw[b, (order - 1) * 3 : order * 3]
                np.testing.assert_allclose(
                    normed[b, (order - 1) * 3 : order * 3],
                    layer_norm(group), rtol=0, atol=1e-14)

    def test_max_norm_bounds_high_order_channels(self):
        rng = np.random.default_rng(29)
        x = Tensor((1, 2, 9, 9), 50 * rng.uniform(-1, 1, 2 * 81))
        out = smp_forward(x, PoolSpec.square(3, stride=3),
                          MomentSpec(n=4, norm="max")).nchw
        assert np.abs(out[:, 4:]).max() <= 1.0

    def test_standardize_pre_norm_scales_by_sigma_powers(self):
        rng = np.random.default_rng(31)
        x = Tensor((1, 1, 6, 6), rng.uniform(-2, 2, 36))
        pool = PoolSpec.square(3, stride=3)
        eps = 1e-5
        raw = smp_forward(x, pool, UNSAFE4).nchw
        std = smp_forward(x, pool, MomentSpec(
            n=4, norm="none", unsafe_no_norm=True,
            standardize_pre_norm=True, eps_norm=eps)).nchw
        sigma = np.sqrt(raw[0, 1])
        np.testing.assert_allclose(std[0, 2], raw[0, 2] / (sigma ** 3 + eps),
                                   rtol=1e-12)
        np.testing.assert_allclose(std[0, 3], raw[0, 3] / (sigma ** 4 + eps),
                                   rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_standardize_pre_norm_leaves_orders_below_3_alone(self, n):
        """With no order >= 3 to standardize, the flag changes neither the
        forward nor the backward, bit for bit."""
        rng = np.random.default_rng(37)
        x = Tensor((2, 3, 8, 8), rng.uniform(-1, 1, 2 * 3 * 64))
        pool = PoolSpec.square(3, 1, 1)
        up = Tensor((2, 3 * n, 8, 8), rng.uniform(-1, 1, 2 * 3 * n * 64))
        got = [smp_forward(x, pool, spec).nchw.tobytes()
               + smp_backward(x, pool, spec, up).nchw.tobytes()
               for spec in (MomentSpec(n=n), MomentSpec(n=n, standardize_pre_norm=True))]
        assert got[0] == got[1]

    def test_batch_norm_state_roundtrip(self):
        from momentpool.normalize import BatchNormState
        rng = np.random.default_rng(33)
        x = Tensor((4, 2, 6, 6), rng.uniform(-1, 1, 4 * 2 * 36))
        pool = PoolSpec(6, 6)
        spec = MomentSpec(n=4, norm="batch")
        state = BatchNormState.fresh(channels=4)  # orders 3..4, 2 channels each
        train_out = smp_forward(x, pool, spec, bn_state=state, training=True)
        assert state.mean.any()  # running stats moved off the init
        eval_out = smp_forward(x, pool, spec, bn_state=state, training=False)
        assert eval_out.shape == train_out.shape


class TestInPlaceNormalization:
    """`smp._pooled` normalizes the orders >= 3 of its output in place,
    through `_grouped` views of that strided block and `_normalized` with
    `out`; that must equal the public functions bit for bit."""

    N, C = 3, 2

    def _out(self, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, (self.N, 4 * self.C, 5, 6))

    def _check(self, spec, public, **kw):
        out = self._out(43)
        before = out.copy()
        block = out[:, 2 * self.C:]
        assert not block.flags.c_contiguous
        want, axis = smp._grouped(np.ascontiguousarray(block), spec)
        want = public(want, axis).reshape(block.shape)
        x, axis = smp._grouped(block, spec)
        normalize._normalized(spec.norm, x, spec.eps_norm, axis, out=x, **kw)
        assert out[:, 2 * self.C:].tobytes() == want.tobytes()
        assert out[:, :2 * self.C].tobytes() == before[:, :2 * self.C].tobytes()

    @pytest.mark.parametrize("axis", ["order", "joint", "location"])
    def test_layer_norm(self, axis):
        spec = MomentSpec(n=4, norm="layer", norm_axis=axis)
        self._check(spec, lambda g, a: normalize.layer_norm(g, spec.eps_norm, a),
                    state=None, training=True)

    @pytest.mark.parametrize("axis", ["order", "joint", "location"])
    def test_max_norm(self, axis):
        spec = MomentSpec(n=4, norm="max", norm_axis=axis)
        self._check(spec, lambda g, a: normalize.max_norm(g, spec.eps_norm, a),
                    state=None, training=True)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batch_norm(self, training):
        spec = MomentSpec(n=4, norm="batch")
        rng = np.random.default_rng(47)
        mean, var = rng.standard_normal(2 * self.C), rng.uniform(0.5, 2, 2 * self.C)
        mine = BatchNormState(mean=mean.copy(), var=var.copy())
        theirs = BatchNormState(mean=mean.copy(), var=var.copy())
        self._check(spec, lambda g, a: normalize.batch_norm(
                        g, theirs, training, spec.eps_norm),
                    state=mine, training=training)
        assert mine.mean.tobytes() == theirs.mean.tobytes()
        assert mine.var.tobytes() == theirs.var.tobytes()


class TestStatsCache:
    """The one-entry window-statistics cache behind smp_backward."""

    POOL = PoolSpec.square(3, stride=2, pad=1)
    SPEC = MomentSpec(n=4, norm="layer")

    @staticmethod
    def _input(seed=41, shape=(2, 3, 7, 7)):
        rng = np.random.default_rng(seed)
        return Tensor(shape, rng.uniform(-1, 1, int(np.prod(shape))))

    @staticmethod
    def _upstream(x, pool, spec):
        shape = output_shape(x.shape, pool, spec)
        return Tensor(shape, np.random.default_rng(5).uniform(-1, 1, shape))

    @staticmethod
    def _counting():
        return mock.patch.object(smp, "_walk_stats", wraps=smp._walk_stats)

    def test_forward_backward_pair_computes_statistics_once(self):
        x = self._input()
        with self._counting() as stats:
            smp_forward(x, self.POOL, self.SPEC)
            smp_backward(x, self.POOL, self.SPEC,
                         self._upstream(x, self.POOL, self.SPEC))
        assert stats.call_count == 1

    def test_every_forward_computes(self):
        x = self._input()
        with self._counting() as stats:
            first = smp_forward(x, self.POOL, self.SPEC)
            again = smp_forward(x, self.POOL, self.SPEC)
        assert stats.call_count == 2
        assert first == again

    def test_other_input_pool_or_order_misses(self):
        x = self._input()
        twin = Tensor(x.shape, x.data)
        assert twin == x and twin is not x
        dense = PoolSpec.square(3, stride=1, pad=1)
        specs = (MomentSpec(n=3, norm="layer"),
                 MomentSpec(n=4, norm="layer", eps_norm=1e-3),
                 MomentSpec(n=4, norm="layer", norm_axis="joint"),
                 MomentSpec(n=4, norm="layer", standardize_pre_norm=True))
        cases = [(twin, self.POOL, self.SPEC, True),
                 (x, dense, self.SPEC, True),
                 (x, self.POOL, self.SPEC, False)]
        cases += [(x, self.POOL, spec, True) for spec in specs]
        for t, pool, spec, training in cases:
            smp_forward(x, self.POOL, self.SPEC)
            with self._counting() as stats:
                smp_backward(t, pool, spec, self._upstream(t, pool, spec),
                             training=training)
            assert stats.call_count == 1

    def test_eval_batch_norm_backward_reads_its_own_state(self):
        """A backward depends only on its arguments: forward with running
        state A, then backward with state B, equals a cold backward with B."""
        spec = MomentSpec(n=4, norm="batch")
        x = self._input()
        up = self._upstream(x, self.POOL, spec)
        rng = np.random.default_rng(59)
        a, b = (BatchNormState(mean=rng.standard_normal(6),
                               var=rng.uniform(0.5, 2.0, 6)) for _ in range(2))
        smp_forward(x, self.POOL, spec, bn_state=a, training=False)
        with self._counting() as stats:
            after_a = smp_backward(x, self.POOL, spec, up, bn_state=b,
                                   training=False)
            assert stats.call_count == 0
        cold = smp_backward(Tensor(x.shape, x.data), self.POOL, spec, up,
                            bn_state=b, training=False)
        assert after_a.data.tobytes() == cold.data.tobytes()
        assert after_a != smp_backward(x, self.POOL, spec, up, bn_state=a,
                                       training=False)

    def test_entry_dies_with_its_input(self):
        x = self._input()
        y = smp_forward(x, self.POOL, self.SPEC)
        assert smp._cached[0]() is x
        ref = weakref.ref(x)
        del x
        assert ref() is None
        assert smp._cached is None
        assert y == smp_forward(self._input(), self.POOL, self.SPEC)

    def test_a_saving_forward_drops_the_stale_entry_first(self):
        """Of two training steps, each a forward and a backward whose
        outputs are dropped, the second forward peaks above its start lower
        than the first by at least an output: it drops the first step's
        entry, which holds that output through its views and a raw m3
        copy, before it builds its own. Tracing starts after a warm step on
        a third input, whose entry is not traced, so the first forward
        frees nothing traced."""
        shape, pool = (4, 8, 32, 32), PoolSpec.square(3, 1, 1)
        x1, x2, x3 = (self._input(seed, shape) for seed in (1, 2, 3))
        up = self._upstream(x1, pool, self.SPEC)
        smp_forward(x3, pool, self.SPEC)  # warm: the walk is cached per geometry
        tracemalloc.start()
        try:
            peaks = []
            for x in (x1, x2):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                smp_forward(x, pool, self.SPEC)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
                smp_backward(x, pool, self.SPEC, up)
        finally:
            tracemalloc.stop()
        assert smp._cached[0]() is x2
        assert peaks[1] <= peaks[0] - up.data.nbytes

    def test_cached_arrays_are_read_only_and_match_a_fresh_pass(self):
        x = self._input()
        y = smp_forward(x, self.POOL, self.SPEC)
        stored_by_forward = smp._cached[4]
        x2 = self._input(seed=3)
        smp_backward(x2, self.POOL, self.SPEC,
                     self._upstream(x2, self.POOL, self.SPEC))
        stored_by_backward = smp._cached[4]
        for t, (walk, stats, block, divisor) in (
                (x, stored_by_forward), (x2, stored_by_backward)):
            fresh = smp._walk_stats(t.nchw, walk, self.SPEC.n)[0]
            assert isinstance(walk.chunks, tuple)
            assert len(walk.counts) == 2 and len(stats) == self.SPEC.n - 1
            for a in (*walk.counts, *stats, block, divisor):
                assert not a.flags.writeable
            for a, b in zip(stats, fresh):
                assert a.tobytes() == b.tobytes()
        # m1, m2 and the normalized block are views of the output, not
        # copies; raw m3 is not in the output at all, and raw m4, which
        # the backward never reads, is not kept
        _, stats, block, _ = stored_by_forward
        assert all(np.shares_memory(m, y.data) for m in (*stats[:2], block))
        assert not any(np.shares_memory(m, y.data) for m in stats[2:])
        assert block.tobytes() == y.nchw[:, 2 * x.nchw.shape[1]:].tobytes()

    @pytest.mark.parametrize("standardize", [False, True])
    @pytest.mark.parametrize("shape, pool", [
        ((2, 3, 7, 7), POOL),
        ((2, 3, 16, 16), PoolSpec.square(3, stride=1, pad=1)),
    ], ids=["strided", "flat"])
    def test_entry_keeps_the_raw_orders_the_backward_reads(self, shape, pool,
                                                           standardize):
        """The entry keeps raw m1..m3 at n = 4, and raw m4 too under
        standardization, whose VJP reads it; each raw order >= 3 is its own
        array with a fresh pass's bytes, and a backward on a cache hit
        equals one on a miss."""
        spec = MomentSpec(n=4, norm="layer", standardize_pre_norm=standardize)
        x = self._input(shape=shape)
        y = smp_forward(x, pool, spec)
        walk, stats, _, _ = smp._cached[4]
        assert (walk.pad is not None) == (pool.stride_h == 1)
        assert len(stats) == (4 if standardize else 3)
        fresh = smp._walk_stats(x.nchw, walk, spec.n)[0]
        for a, b in zip(stats, fresh):
            assert a.tobytes() == b.tobytes()
        assert not any(np.shares_memory(m, y.data) for m in stats[2:])
        up = self._upstream(x, pool, spec)
        hit = smp_backward(x, pool, spec, up)
        miss = smp_backward(Tensor(x.shape, x.data), pool, spec, up)
        assert hit.data.tobytes() == miss.data.tobytes()


class TestUnsavedForward:
    """`smp_forward(save=False)`, for a forward that no backward follows,
    returns the saving forward's bytes and leaves the saved forward as it
    was."""

    POOL = PoolSpec.square(3, stride=2, pad=1)
    SPECS = [MomentSpec(n=n, norm=norm, standardize_pre_norm=std,
                        unsafe_no_norm=norm == "none")
             for n in (1, 2, 3, 4) for norm in ("none", "layer", "max", "batch")
             for std in (False, True)]

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"n{s.n}-{s.norm}"
                             + "-std" * s.standardize_pre_norm)
    def test_same_bytes_and_the_same_entry(self, spec, training, monkeypatch):
        """For every norm, in both modes, with the saved forward empty or
        holding an entry for another tensor; a batch-norm state folds the
        same way."""
        x, other = TestStatsCache._input(), TestStatsCache._input(seed=3)
        rng = np.random.default_rng(61)
        channels = 3 * max(1, spec.n - 2)
        mean, var = rng.standard_normal(channels), rng.uniform(0.5, 2, channels)
        folded = BatchNormState(mean=mean.copy(), var=var.copy())
        saved = smp_forward(x, self.POOL, spec, folded, training)
        smp_forward(other, self.POOL, spec)
        for entry in (None, smp._cached):
            monkeypatch.setattr(smp, "_cached", entry)
            state = BatchNormState(mean=mean.copy(), var=var.copy())
            got = smp_forward(x, self.POOL, spec, state, training, save=False)
            assert smp._cached is entry
            assert got.data.tobytes() == saved.data.tobytes()
            assert state.mean.tobytes() == folded.mean.tobytes()
            assert state.var.tobytes() == folded.var.tobytes()

    def test_forward_traced_peak_holds_no_raw_copy(self):
        """At the CLI `pool` spec (1x3x256x256, 3x3 s2 p1, n=4 layer), an
        unsaved forward peaks 0.375 MiB, one (1, 3, 128, 128) map, under
        a saving one: it copies no raw m3 out of the output."""
        rng = np.random.default_rng(0)
        x = Tensor((1, 3, 256, 256), rng.uniform(-1, 1, 3 * 256 * 256))
        pool, spec = PoolSpec.square(3, 2, 1), MomentSpec(n=4, norm="layer")
        smp_forward(x, pool, spec, save=False)  # warm: the walk is cached
        tracemalloc.start()
        try:
            smp_forward(x, pool, spec, save=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * 2 ** 20


class TestOpCost:
    def test_order1_has_no_extra(self):
        r = op_cost((1, 3, 32, 32), PoolSpec.square(4, stride=4),
                    MomentSpec(n=1, norm="none"))
        assert r.extra_vs_sap == 0
        assert r.mul_add_count > 0

    def test_extra_linear_in_feature_volume_for_global_order2(self):
        spec = MomentSpec(n=2, norm="none")
        base = op_cost((1, 4, 10, 10), PoolSpec(10, 10), spec).extra_vs_sap
        # exactly multiplicative in channels, asymptotically so in pixels
        assert op_cost((1, 8, 10, 10), PoolSpec(10, 10), spec).extra_vs_sap == 2 * base
        wider = op_cost((1, 4, 10, 20), PoolSpec(10, 20), spec).extra_vs_sap
        assert 1.9 * base < wider < 2.1 * base

    def test_order4_to_order2_extra_ratio(self):
        """Extra MACs for order 4 vs order 2 land close to 3x."""
        pool = PoolSpec(1080, 1920)
        shape = (1, 3, 1080, 1920)
        lo = op_cost(shape, pool, MomentSpec(n=2, norm="none")).extra_vs_sap
        hi = op_cost(shape, pool, MomentSpec(n=4, norm="layer")).extra_vs_sap
        assert 2.5 <= hi / lo <= 3.5

    def test_monotone_in_order(self):
        pool = PoolSpec.square(3, stride=2)
        shape = (2, 3, 17, 13)
        costs = [
            op_cost(shape, pool, MomentSpec(n=n, norm="layer")).mul_add_count
            for n in (1, 2, 3, 4)
        ]
        assert costs == sorted(costs) and len(set(costs)) == 4

    def test_bad_shapes_rejected(self):
        """Shapes follow the Tensor rule: rank 1..4, int extents >= 1."""
        pool, spec = PoolSpec(1, 1), MomentSpec(n=2)
        for bad in ((-2, 3, 8, 8), (0, 3, 8, 8), (2.7, 3, 8, 8), (1, 3, 8.0, 8),
                    (True, 3, 8, 8), (), (1, 1, 1, 8, 8)):
            with pytest.raises(ValueError):
                op_cost(bad, pool, spec)
        full = op_cost((1, 3, 8, 8), pool, spec)
        assert op_cost((3, 8, 8), pool, spec) == full
        assert op_cost(np.array([1, 3, 8, 8]), pool, spec) == full

    def test_norm_cost_included(self):
        pool = PoolSpec(8, 8)
        shape = (1, 2, 8, 8)
        none = op_cost(shape, pool, MomentSpec(n=4, norm="none",
                                               unsafe_no_norm=True))
        layer = op_cost(shape, pool, MomentSpec(n=4, norm="layer"))
        maxn = op_cost(shape, pool, MomentSpec(n=4, norm="max"))
        assert layer.extra_vs_sap > maxn.extra_vs_sap > none.extra_vs_sap
