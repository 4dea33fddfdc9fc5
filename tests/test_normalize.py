"""Normalization forward values, statistics, and backward correctness."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from momentpool import windows
from momentpool.normalize import (
    BatchNormState,
    _group_stats,
    _normalized,
    _vjp_terms,
    batch_norm,
    layer_norm,
    max_norm,
    norm_backward,
)
from momentpool.smp import MomentSpec, smp_backward, smp_forward
from momentpool.tensor import Tensor
from momentpool.windows import PoolSpec

from gradutil import fd_gradient, rel_gap

EPS = 1e-5


class TestLayerNorm:
    def test_constant_group_maps_to_zero(self):
        assert layer_norm(np.array([3.0, 3.0, 3.0]), EPS).tolist() == [0, 0, 0]

    def test_two_point_group(self):
        got = layer_norm(np.array([0.0, 2.0]), EPS)
        expect = 1.0 / math.sqrt(1.0 + EPS)  # mean 1, population variance 1
        np.testing.assert_allclose(got, [-expect, expect], rtol=0, atol=1e-15)

    def test_output_statistics(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            x = rng.uniform(-4, 4, int(rng.integers(4, 64)))
            if x.var() < 1e3 * EPS:
                continue
            y = layer_norm(x, EPS)
            assert abs(y.mean()) < 1e-10
            assert 1 - 1e-3 <= y.var() <= 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(32)
        np.testing.assert_allclose(layer_norm(x + 3.7, EPS), layer_norm(x, EPS),
                                   rtol=0, atol=1e-10)

    def test_positive_scale_invariance_up_to_eps(self):
        # needs variance >> eps for the eps term to be negligible
        rng = np.random.default_rng(21)
        x = 100.0 * rng.standard_normal(48)
        base = layer_norm(x, EPS)
        for s in (0.5, 0.8, 1.3, 2.0):
            assert np.abs(layer_norm(s * x, EPS) - base).max() < 1e-6

    def test_backward_matches_finite_differences(self):
        """200 random groups, sizes 4..64, rel error < 1e-6."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-5, 5, int(rng.integers(4, 65)))
            u = rng.uniform(-1, 1, x.size)
            analytic = norm_backward("layer", x, u, EPS)
            numeric = fd_gradient(lambda v: layer_norm(v, EPS), x, u)
            worst = max(worst, rel_gap(analytic, numeric))
        assert worst < 1e-6

    def test_constant_upstream_gives_zero_mean_gradient(self):
        # the Jacobian annihilates constants (projection property)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(24)
        g = norm_backward("layer", x, np.full(24, 2.5), EPS)
        assert abs(g.mean()) < 1e-12

    def test_grouped_axis_matches_per_group_calls(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 5, 7))
        grouped = layer_norm(x, EPS, axis=(1, 2))
        for b in range(3):
            np.testing.assert_array_equal(grouped[b], layer_norm(x[b], EPS))


class TestMaxNorm:
    def test_example_values(self):
        got = max_norm(np.array([3.0, -6.0, 1.5]), EPS)
        np.testing.assert_allclose(got, np.array([3.0, -6.0, 1.5]) / (6.0 + EPS),
                                   rtol=0, atol=0)

    def test_all_zero_group(self):
        assert max_norm(np.zeros(5), EPS).tolist() == [0] * 5

    def test_outputs_bounded(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            x = rng.uniform(-50, 50, int(rng.integers(1, 40)))
            assert np.abs(max_norm(x, EPS)).max() <= 1.0

    def test_backward_is_straight_through_on_divisor(self):
        """Gradient matches finite differences of the frozen-peak surrogate."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = rng.uniform(-5, 5, 16)
            u = rng.uniform(-1, 1, 16)
            analytic = norm_backward("max", x, u, EPS)
            peak = np.abs(x).max() + EPS  # frozen at the base point
            numeric = fd_gradient(lambda v: v / peak, x, u)
            assert rel_gap(analytic, numeric) < 1e-6


class TestBatchNorm:
    def test_training_two_sample_channel(self):
        x = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
        got = batch_norm(x, training=True, eps=EPS)
        expect = 1.0 / math.sqrt(1.0 + EPS)
        np.testing.assert_allclose(got.reshape(-1), [-expect, expect],
                                   rtol=0, atol=1e-15)

    def test_eval_with_unit_state_is_near_identity(self):
        state = BatchNormState(mean=np.zeros(3), var=np.ones(3))
        rng = np.random.default_rng(41)
        x = rng.standard_normal((4, 3, 2, 2))
        y = batch_norm(x, state=state, training=False, eps=EPS)
        assert np.abs(y - x).max() <= 1e-5 * np.abs(x).max()

    def test_training_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            batch_norm(np.ones((1, 2, 3, 3)), training=True)

    def test_eval_without_state_rejected(self):
        with pytest.raises(ValueError):
            batch_norm(np.ones((2, 2, 3, 3)), training=False)

    def test_training_batch_of_one_message(self):
        with pytest.raises(ValueError, match="batch size >= 2"):
            batch_norm(np.ones((1, 2, 3, 3)), training=True)
        with pytest.raises(ValueError, match="batch size >= 2"):
            smp_forward(Tensor((1, 2, 4, 4), np.ones(32)), PoolSpec.square(2),
                         MomentSpec(n=3, norm="batch"))

    def test_eval_without_state_message(self):
        with pytest.raises(ValueError, match="needs running state"):
            batch_norm(np.ones((2, 2, 3, 3)), training=False)

    def test_running_state_update_momentum(self):
        state = BatchNormState(mean=np.zeros(2), var=np.ones(2), momentum=0.1)
        rng = np.random.default_rng(43)
        x = rng.standard_normal((8, 2, 4, 4)) + 3.0
        batch_mean = x.mean(axis=(0, 2, 3))
        batch_var = x.var(axis=(0, 2, 3))
        batch_norm(x, state=state, training=True, eps=EPS)
        np.testing.assert_allclose(state.mean, 0.1 * batch_mean, rtol=1e-14)
        np.testing.assert_allclose(state.var, 0.9 + 0.1 * batch_var, rtol=1e-14)

    def test_training_is_layer_norm_over_channel_axes(self):
        """The identity the shared standardization relies on, bit for bit."""
        rng = np.random.default_rng(44)
        x = rng.standard_normal((5, 3, 4, 6)) * 3.0 + 1.5
        np.testing.assert_array_equal(batch_norm(x, training=True, eps=EPS),
                                      layer_norm(x, EPS, axis=(0, 2, 3)))

    def test_state_is_validated_at_construction(self):
        """Lists become float64 arrays; a bad state is refused before any
        forward reads it, instead of failing deep in the stack, warning in
        sqrt or turning the running statistics into NaN."""
        state = BatchNormState(mean=[0.0, 1.0], var=[1, 2])
        for a in (state.mean, state.var):
            assert isinstance(a, np.ndarray) and a.dtype == np.float64
        x = Tensor((2, 1, 4, 4), np.linspace(-1.0, 1.0, 32))
        spec = MomentSpec(n=3, norm="batch")
        for training in (True, False):
            smp_forward(x, PoolSpec(2, 2, 2, 2), spec,
                        bn_state=BatchNormState(mean=[0.0], var=[1.0]),
                        training=training)
        for mean, var in [([0.0], [-1.0]), ([np.nan], [1.0]), ([0.0], [np.inf]),
                          ([0.0, 0.0], [1.0]), (0.0, 1.0)]:
            with pytest.raises(ValueError, match="mean and var"):
                BatchNormState(mean=mean, var=var)
        with pytest.raises(ValueError, match="convert"):
            BatchNormState(mean=["a"], var=[1.0])
        for momentum in (np.nan, 1.5, -0.1, True):
            with pytest.raises(ValueError, match="momentum"):
                BatchNormState(mean=[0.0], var=[1.0], momentum=momentum)

    def test_state_channel_count_checked(self):
        """A state for 3 channels on a 4-channel block names both counts."""
        rng = np.random.default_rng(45)
        x = Tensor((2, 2, 6, 6), rng.uniform(-1, 1, 144))  # n=4: 4 channels
        pool = PoolSpec.square(3, stride=3)
        spec = MomentSpec(n=4, norm="batch")
        for training in (True, False):
            with pytest.raises(ValueError, match=r"hold 4 channels.*\(3,\)"):
                smp_forward(x, pool, spec, bn_state=BatchNormState.fresh(3),
                            training=training)
        up = Tensor((2, 8, 2, 2), rng.uniform(-1, 1, 64))
        with pytest.raises(ValueError, match=r"hold 4 channels.*\(3,\)"):
            smp_backward(x, pool, spec, up, bn_state=BatchNormState.fresh(3),
                         training=False)
        state = BatchNormState.fresh(4)
        smp_forward(x, pool, spec, bn_state=state, training=True)
        assert state.mean.shape == (4,) and state.var.shape == (4,)

    def test_training_backward_full_jacobian(self):
        """Batch >= 4, differentiating through the batch statistics."""
        rng = np.random.default_rng(47)
        x = rng.standard_normal((4, 2, 3, 3))
        u = rng.uniform(-1, 1, x.shape)
        analytic = norm_backward("batch", x, u, eps=EPS, training=True)
        numeric = fd_gradient(lambda v: batch_norm(v, training=True, eps=EPS),
                              x, u)
        assert rel_gap(analytic, numeric) < 1e-6

    def test_eval_backward(self):
        rng = np.random.default_rng(53)
        state = BatchNormState(mean=rng.standard_normal(2),
                               var=rng.uniform(0.5, 2.0, 2))
        x = rng.standard_normal((2, 2, 3, 3))
        u = rng.uniform(-1, 1, x.shape)
        analytic = norm_backward("batch", x, u, eps=EPS, state=state,
                                 training=False)
        numeric = fd_gradient(
            lambda v: batch_norm(v, state=state, training=False, eps=EPS), x, u)
        assert rel_gap(analytic, numeric) < 1e-6


def test_norm_backward_dispatcher():
    rng = np.random.default_rng(59)
    x = rng.standard_normal(12)
    u = rng.standard_normal(12)
    # layer over all elements is batch norm of one channel over the batch
    np.testing.assert_array_equal(
        norm_backward("layer", x, u, eps=EPS),
        norm_backward("batch", x.reshape(12, 1), u.reshape(12, 1),
                      eps=EPS).reshape(12))
    np.testing.assert_array_equal(norm_backward("max", x, u, eps=EPS),
                                  u / (np.abs(x).max() + EPS))
    with pytest.raises(ValueError):
        norm_backward("group", x, u)


def test_unknown_kind_message():
    with pytest.raises(ValueError, match="unknown normalization kind 'bogus'"):
        norm_backward("bogus", np.ones(3), np.ones(3))


@pytest.mark.parametrize("kind, shape, axis", [
    ("layer", (5, 2, 20 * 31 * 29), 2),   # per sample and order
    ("layer", (5, 2 * 20 * 31 * 29), 1),  # per sample, orders joint
    ("layer", (5, 2, 20, 31 * 29), 2),    # per sample, order and location
    ("layer", (3, 1, 16385), 2),          # a row past numpy's 8192-element buffer
    ("layer", (7, 3), None),
    ("batch", (5, 40, 31, 29), (0, 2, 3)),  # groups across samples
    ("batch", (5, 1, 31, 29), (0, 2, 3)),   # one channel: numpy sums one run
])
def test_vjp_terms_match_one_product_of_the_block(kind, shape, axis):
    """The VJP's mean(u * y) has the bits of the whole block's product, and
    where groups lie inside a sample no more than one sample's product is
    held at a time."""
    rng = np.random.default_rng(61)
    u, y = rng.uniform(-1, 1, (2,) + shape)
    want = (u * y).mean(axis, keepdims=True)
    tracemalloc.start()
    try:
        _, mean_u, got = _vjp_terms(kind, y, 1.0, u, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert mean_u.tobytes() == u.mean(axis, keepdims=True).tobytes()
    held = y[0].nbytes if isinstance(axis, int) else y.nbytes
    assert peak <= held + 3 * want.nbytes + 4096


@pytest.mark.parametrize("samples, hw", [(9, 15 * 15), (3, 31 * 29), (1, 31 * 29)],
                         ids=["several-per-chunk", "one-per-chunk", "one-sample"])
@pytest.mark.parametrize("grouping", ["order", "joint", "location"])
def test_group_stats_by_sample_chunks_match_the_whole_block(samples, hw, grouping):
    """Where groups lie inside a sample, the variance, from the deviations
    written into `out`, and max norm's peaks are reduced over chunks of whole
    groups, with the bits of the whole block's reductions and no full-size
    temporary: several samples per chunk where a sample is below
    `_STEP_BYTES`, and one where it is above; but where the reduced axis is
    >= 2 (order and location grouping), a sample above it is cut into its
    orders, one per chunk, so even one sample holds one order's squares at a
    time. A joint group is a whole sample."""
    rng = np.random.default_rng(67)
    block = (rng.uniform(-1, 1, (samples, 4, 20, hw)) ** 3)[:, 2:]  # as in smp
    x, axis = {"order": (block.reshape(samples, 2, -1), 2),
               "joint": (block.reshape(samples, -1), 1),
               "location": (block, 2)}[grouping]
    per = max(1, windows._STEP_BYTES // x[0].nbytes)
    assert (per > 1) == (samples == 9) and per < max(2, samples)
    cut = axis >= 2 and x[0].nbytes > windows._STEP_BYTES
    chunk = x[0, 0].nbytes if cut else per * x[0].nbytes
    want = x - x.mean(axis, keepdims=True), x.mean(axis, keepdims=True), x.var(
        axis, keepdims=True)
    out = np.empty_like(x)
    tracemalloc.start()
    try:
        got = _group_stats(x, axis, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] is out
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert (_normalized("max", x, EPS, axis)[1].tobytes()
            == (np.abs(x).max(axis, keepdims=True) + EPS).tobytes())
    assert peak <= chunk + 4 * want[2].nbytes + 16384


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 4)])
def test_an_empty_block_is_refused_by_every_norm(shape):
    """An empty block has no group to normalize: every kind refuses it by
    name, before numpy warns of an empty mean or fails an empty maximum."""
    x = np.zeros(shape)
    for call in (lambda: layer_norm(x), lambda: max_norm(x, axis=1),
                 lambda: batch_norm(x), lambda: norm_backward("layer", x, x)):
        with pytest.raises(ValueError,
                           match=re.escape(f"cannot normalize an empty block of shape {shape}")):
            call()
