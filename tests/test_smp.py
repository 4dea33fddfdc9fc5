"""Forward moment pooling: oracle equivalence, layout, costs, guards."""

import numpy as np
import pytest

from momentpool.smp import MomentSpec, op_cost, sap_forward, smp_forward
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

    def test_invalid_geometry_surfaces(self):
        with pytest.raises(GeometryError):
            smp_forward(solid((1, 1, 2, 2), 1.0), PoolSpec(3, 3),
                        MomentSpec(n=1, norm="none"))


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
