"""Backward pass correctness, VJP algebra, and gradient scaling laws."""

import warnings

import numpy as np
import pytest

from momentpool.grad import (
    check_forward,
    finite_diff_check,
    gradient_magnitude_profile,
    smp_backward,
)
from momentpool.smp import MomentSpec, smp_forward
from momentpool.synth import solid
from momentpool.tensor import Tensor
from momentpool.windows import PoolSpec


def make_case(seed, shape, pool, spec):
    rng = np.random.default_rng(seed)
    x = Tensor(shape, rng.uniform(-1, 1, int(np.prod(shape))))
    out = smp_forward(x, pool, spec)
    up = Tensor(out.shape, rng.uniform(-1, 1, out.size))
    return x, up


def test_mean_pool_backward_distributes_evenly():
    x = Tensor((1, 1, 4, 4), np.arange(16.0))
    pool = PoolSpec.square(2, stride=2)
    spec = MomentSpec(n=1, norm="none")
    up = Tensor((1, 1, 2, 2), np.ones(4))
    g = smp_backward(x, pool, spec, up)
    assert g.data.tolist() == [0.25] * 16


def test_solid_input_kills_second_moment_gradient():
    x = solid((1, 2, 4, 4), 3.0)
    pool = PoolSpec.square(2, stride=2)
    spec = MomentSpec(n=2, norm="none")
    up = np.zeros((1, 4, 2, 2))
    up[:, 2:] = 1.0  # weight only the variance channels
    g = smp_backward(x, pool, spec, Tensor(up.shape, up))
    assert not g.data.any()


def test_vjp_linearity():
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="layer")
    x, u = make_case(61, (2, 3, 8, 8), pool, spec)
    rng = np.random.default_rng(62)
    v = Tensor(u.shape, rng.uniform(-1, 1, u.size))
    a, b = 0.7, -1.3
    mixed = Tensor(u.shape, a * u.data + b * v.data)
    lhs = smp_backward(x, pool, spec, mixed).data
    rhs = a * smp_backward(x, pool, spec, u).data \
        + b * smp_backward(x, pool, spec, v).data
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_upstream_shape_mismatch_rejected():
    x = solid((1, 1, 4, 4), 1.0)
    pool = PoolSpec.square(2, stride=2)
    with pytest.raises(ValueError, match="upstream"):
        smp_backward(x, pool, MomentSpec(n=2, norm="none"),
                     Tensor((1, 1, 2, 2), np.ones(4)))


@pytest.mark.parametrize("spec", [
    MomentSpec(n=2, norm="none"),
    MomentSpec(n=3, norm="none", unsafe_no_norm=True),
    MomentSpec(n=4, norm="none", unsafe_no_norm=True),
    MomentSpec(n=4, norm="layer"),
    MomentSpec(n=4, norm="max"),
    MomentSpec(n=4, norm="batch"),
    MomentSpec(n=3, norm="layer", standardize_pre_norm=True),
    MomentSpec(n=4, norm="layer", standardize_pre_norm=True),
    MomentSpec(n=4, norm="none", unsafe_no_norm=True,
               standardize_pre_norm=True),
    MomentSpec(n=4, norm="layer", norm_axis="joint"),
    MomentSpec(n=4, norm="max", norm_axis="location"),
    MomentSpec(n=4, norm="batch", standardize_pre_norm=True),
    MomentSpec(n=3, norm="batch"),
    MomentSpec(n=3, norm="max"),
    MomentSpec(n=4, norm="layer", norm_axis="location"),
    MomentSpec(n=4, norm="max", norm_axis="joint"),
    MomentSpec(n=4, norm="max", standardize_pre_norm=True),
], ids=lambda s: f"n{s.n}-{s.norm}-{s.norm_axis}"
       + ("-std" if s.standardize_pre_norm else ""))
def test_backward_matches_finite_differences(spec):
    pool = PoolSpec.square(3, stride=2, pad=1)
    x, up = make_case(1000 + spec.n, (4, 2, 6, 6), pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: smp_backward(t, pool, spec, u),
        x, up)
    assert report.passed, report
    assert report.max_rel_error < 1e-6


def test_eval_mode_batch_norm_backward():
    """Eval mode normalizes by running state; gradient is a fixed rescale."""
    from momentpool.normalize import BatchNormState
    pool = PoolSpec.square(3, stride=3)
    spec = MomentSpec(n=4, norm="batch")
    rng = np.random.default_rng(67)
    state = BatchNormState(mean=rng.standard_normal(4),
                           var=rng.uniform(0.5, 2.0, 4))
    shape = (1, 2, 6, 6)
    x = Tensor(shape, rng.uniform(-1, 1, int(np.prod(shape))))
    out = smp_forward(x, pool, spec, bn_state=state, training=False)
    up = Tensor(out.shape, rng.uniform(-1, 1, out.size))
    report = finite_diff_check(
        lambda t: smp_forward(t, pool, spec, bn_state=state, training=False),
        lambda t, u: smp_backward(t, pool, spec, u, bn_state=state,
                                  training=False),
        x, up)
    assert report.passed, report


def test_dilated_unpadded_geometry_backward():
    pool = PoolSpec(2, 3, 2, 1, 0, 0, 2, 1)
    spec = MomentSpec(n=4, norm="layer")
    x, up = make_case(71, (2, 2, 7, 7), pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: smp_backward(t, pool, spec, u), x, up)
    assert report.passed


@pytest.mark.parametrize("spec", [
    MomentSpec(n=4, norm="layer"),
    MomentSpec(n=4, norm="none", unsafe_no_norm=True),
], ids=["layer", "none"])
def test_padding_cells_never_enter_the_backward(spec):
    """A huge constant input pools and differentiates silently and exactly.

    At 2**342 every window mean is exact, so every in-bounds deviation is 0.
    A padding cell's (0 - mean)**3 would overflow; the backward must never
    visit one, and the gradient must not depend on the constant's level.
    """
    pool = PoolSpec.square(3, stride=1, pad=1)
    big = solid((1, 1, 4, 4), 2.0 ** 342)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = smp_forward(big, pool, spec)
        up = Tensor(y.shape, np.linspace(-1.0, 1.0, y.size))
        g = smp_backward(big, pool, spec, up)
        g_one = smp_backward(solid((1, 1, 4, 4), 1.0), pool, spec, up)
    assert (y.nchw[:, 0] == 2.0 ** 342).all()
    assert np.isfinite(g.data).all()
    np.testing.assert_array_equal(g.data, g_one.data)


def test_linear_operator_checks_to_tight_tolerance():
    pool = PoolSpec.square(2, stride=2)
    spec = MomentSpec(n=1, norm="none")
    x, up = make_case(73, (1, 2, 6, 6), pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: smp_backward(t, pool, spec, u),
        x, up, tol=1e-9)
    assert report.passed  # central differences are near-exact on linear maps


def test_constant_operator_passes():
    def const_forward(t):
        return Tensor((2,), [1.0, 2.0])

    def const_backward(t, u):
        return Tensor(t.shape, np.zeros(t.size))

    x = Tensor((3,), [1.0, 2.0, 3.0])
    report = finite_diff_check(const_forward, const_backward, x,
                               Tensor((2,), [1.0, 1.0]))
    assert report.passed
    assert report.max_abs_error == 0.0


def test_nondeterministic_forward_detected():
    calls = []

    def flaky(t):
        calls.append(1)
        return Tensor((1,), [float(len(calls))])

    with pytest.raises(ValueError, match="deterministic"):
        finite_diff_check(flaky, lambda t, u: t, Tensor((1,), [0.0]),
                          Tensor((1,), [1.0]))


def test_corrupted_backward_fails_the_check():
    pool = PoolSpec.square(2, stride=2)
    spec = MomentSpec(n=2, norm="none")
    x, up = make_case(79, (1, 2, 4, 4), pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: Tensor(t.shape, smp_backward(t, pool, spec, u).data * 1.001),
        x, up)
    assert not report.passed


def test_report_invariants():
    pool = PoolSpec.square(2, stride=2)
    spec = MomentSpec(n=2, norm="none")
    x, up = make_case(83, (1, 1, 4, 4), pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: smp_backward(t, pool, spec, u), x, up)
    assert report.max_rel_error >= 0
    assert report.max_abs_error >= 0
    assert 0 <= report.worst_index < x.size
    assert report.n_checked == x.size


def test_backward_matches_per_window_gradient_scatter():
    """Independent route: per-window moment_gradients scattered by col2im.

    Gathers each window, asks the scalar gradient routine for the per-cell
    derivatives, weights them by the upstream, and scatter-adds the rows
    back; must agree with the vectorized backward.
    """
    from momentpool.windows import output_dims
    from oracle import col2im_accumulate, moment_gradients
    from test_windows import gather_window

    rng = np.random.default_rng(89)
    for spec_pool in (PoolSpec.square(2, stride=2),
                      PoolSpec.square(3, stride=1, pad=1),
                      PoolSpec.square(3, stride=2, pad=1),
                      PoolSpec(2, 3, 1, 2, 1, 0, 2, 1)):
        c_s, h, w = 3, 7, 8
        x = Tensor((c_s, h, w), rng.uniform(-2, 2, c_s * h * w))
        spec = MomentSpec(n=4, norm="none", unsafe_no_norm=True)
        h_out, w_out = output_dims(h, w, spec_pool)
        up = rng.uniform(-1, 1, (1, 4 * c_s, h_out, w_out))
        fast = smp_backward(x, spec_pool, spec, Tensor(up.shape, up))

        k = spec_pool.window_size
        rows_per_channel = []
        for c in range(c_s):
            rows = np.zeros((h_out * w_out, k))
            for r in range(h_out * w_out):
                oh, ow = divmod(r, w_out)
                win = gather_window(x.nchw[0, c], spec_pool, oh, ow,
                                    float("nan"))
                inside = ~np.isnan(win)
                grads = moment_gradients(win[inside], 4)
                weighted = sum(up[0, i * c_s + c, oh, ow] * grads[i]
                               for i in range(4))
                rows[r, inside] = weighted
            rows_per_channel.append(rows)
        slow = col2im_accumulate(rows_per_channel, spec_pool, h, w)
        np.testing.assert_allclose(fast.nchw[0], slow.array, rtol=0, atol=1e-12)


class TestMagnitudeProfile:
    POOL = PoolSpec.square(4, stride=4)

    def _input(self, scale):
        rng = np.random.default_rng(97)
        return Tensor((1, 3, 12, 12), scale * rng.uniform(-1, 1, 3 * 144))

    def test_unnormalized_growth_law(self):
        """Order-i gradient magnitude scales like s**(i-1) in input scale."""
        base = gradient_magnitude_profile(self._input(1.0), self.POOL, 4)
        for s in (2.0, 10.0):
            scaled = gradient_magnitude_profile(self._input(s), self.POOL, 4)
            for order in (2, 3, 4):
                ratio = scaled[order - 1] / base[order - 1]
                target = s ** (order - 1)
                assert target / 2 <= ratio <= target * 2

    def test_layer_norm_is_scale_stable(self):
        base = gradient_magnitude_profile(self._input(1.0), self.POOL, 4,
                                          norm="layer")
        scaled = gradient_magnitude_profile(self._input(10.0), self.POOL, 4,
                                            norm="layer")
        assert scaled[3] / base[3] < 2.0

    def test_solid_input_has_zero_high_order_profile(self):
        profile = gradient_magnitude_profile(solid((1, 2, 8, 8), 4.0),
                                             PoolSpec.square(4, stride=4), 4)
        assert profile[0] > 0
        assert profile[1] == profile[2] == profile[3] == 0.0
