"""Backward pass correctness, VJP algebra, and gradient scaling laws."""

import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from momentpool import smp, windows
from momentpool.grad import (finite_diff_check, gradient_magnitude_profile,
                             numeric_gradient)
from momentpool.normalize import BatchNormState
from momentpool.smp import MomentSpec, check_forward, smp_backward, smp_forward
from momentpool.synth import solid
from momentpool.tensor import Tensor
from momentpool.windows import GeometryError, PoolSpec, flat_walk, window_walk

from gradutil import rel_gap
from oracle import scalar_finite_diff


SPECS = [
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
]


def spec_id(s):
    return (f"n{s.n}-{s.norm}-{s.norm_axis}"
            + ("-std" if s.standardize_pre_norm else ""))


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


# a stride-1 geometry that takes the flat walk: 14x14 planes padded to
# 16x16, 23% junk outputs
FLAT_SHAPE, FLAT_POOL = (2, 2, 14, 14), PoolSpec.square(3, stride=1, pad=1)


def _assert_matches_finite_differences(spec, shape, pool):
    x, up = make_case(1000 + spec.n, shape, pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: smp_backward(t, pool, spec, u),
        x, up)
    assert report.passed, report
    assert report.max_rel_error < 1e-6


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_backward_matches_finite_differences(spec):
    _assert_matches_finite_differences(spec, (4, 2, 6, 6),
                                       PoolSpec.square(3, stride=2, pad=1))


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_flat_walk_backward_matches_finite_differences(spec):
    assert window_walk(FLAT_SHAPE, FLAT_POOL).pad is not None
    _assert_matches_finite_differences(spec, FLAT_SHAPE, FLAT_POOL)


def test_eval_mode_batch_norm_backward():
    """Eval mode normalizes by running state; gradient is a fixed rescale."""
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


def test_gradient_check_leaves_batch_norm_state_untouched():
    """Training-mode probes must not fold perturbed batches into the state."""
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="batch")
    x, up = make_case(73, (4, 2, 6, 6), pool, spec)
    state = BatchNormState.fresh(4)
    mean, var = state.mean.tobytes(), state.var.tobytes()
    report = finite_diff_check(
        check_forward(x, pool, spec, bn_state=state),
        lambda t, u: smp_backward(t, pool, spec, u, bn_state=state),
        x, up)
    assert report.passed, report
    assert state.mean.tobytes() == mean
    assert state.var.tobytes() == var


def _count_stats():
    return mock.patch.object(smp, "_walk_stats", wraps=smp._walk_stats)


def _assert_hit_equals_miss(spec, shape, pool):
    x, up = make_case(1000 + spec.n, shape, pool, spec)
    with _count_stats() as stats:
        hit = smp_backward(x, pool, spec, up)
        assert stats.call_count == 0
        cold = smp_backward(Tensor(x.shape, x.data), pool, spec, up)
        assert stats.call_count == 1
    assert hit.data.tobytes() == cold.data.tobytes()


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_cache_hit_gradients_are_bit_identical(spec):
    """A backward reading the forward's cached statistics returns the same
    bits as one that computes them for an equal-bytes twin input."""
    _assert_hit_equals_miss(spec, (4, 2, 6, 6), PoolSpec.square(3, stride=2, pad=1))


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_flat_walk_cache_hit_gradients_are_bit_identical(spec):
    assert window_walk(FLAT_SHAPE, FLAT_POOL).pad is not None
    _assert_hit_equals_miss(spec, FLAT_SHAPE, FLAT_POOL)


@st.composite
def drawn_geometry(draw):
    """A spec of SPECS, an (N, C, H, W) shape with N >= 2 for batch norm,
    and a geometry with rectangular kernels and strides, padding and
    dilations up to 3. Max norm at n >= 3 gets kernels of 3 cells or more:
    with every window at 2 cells m3 is exactly 0, and the check would
    measure only the probes' rounding divided by eps_norm."""
    spec = draw(st.sampled_from(SPECS))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if spec.norm == "max" and spec.n >= 3 and kh * kw < 3:
        reject()
    dh, dw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool = PoolSpec(kh, kw, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                    draw(st.integers(0, min(3, dh * (kh - 1)))),
                    draw(st.integers(0, min(3, dw * (kw - 1)))), dh, dw)
    shape = (draw(st.integers(2, 3)), draw(st.integers(1, 3)),
             draw(st.integers(3, 10)), draw(st.integers(3, 10)))
    try:
        window_walk(shape, pool)
    except GeometryError:
        reject()  # the kernel does not fit, or leaves a window with no cell
    return spec, shape, pool


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_geometry())
def test_vjp_identity_holds_over_drawn_geometry(case):
    """<smp_backward(u), dx> == d/de <smp_forward(x + e*dx), u> to the
    finite-difference tolerance, and a cache hit has a miss's bytes, on
    either walk."""
    _assert_matches_finite_differences(*case)
    _assert_hit_equals_miss(*case)


def test_cache_hit_gradients_are_bit_identical_eval_batch_norm():
    pool = PoolSpec.square(3, stride=3)
    spec = MomentSpec(n=4, norm="batch")
    rng = np.random.default_rng(67)
    state = BatchNormState(mean=rng.standard_normal(4),
                           var=rng.uniform(0.5, 2.0, 4))
    x, up = make_case(68, (2, 2, 6, 6), pool, spec)
    smp_forward(x, pool, spec, bn_state=state, training=False)
    with _count_stats() as stats:
        hit = smp_backward(x, pool, spec, up, bn_state=state, training=False)
        assert stats.call_count == 0
        cold = smp_backward(Tensor(x.shape, x.data), pool, spec, up,
                            bn_state=state, training=False)
    assert hit.data.tobytes() == cold.data.tobytes()


@pytest.mark.parametrize("spec", [
    MomentSpec(n=4, norm="layer"),
    MomentSpec(n=4, norm="max", norm_axis="location"),
], ids=spec_id)
def test_gradient_check_leaves_the_saved_forward_alone(spec):
    """Check forwards never write the saved forward, so a backward after a
    check of x still reads the entry x's own forward saved."""
    pool = PoolSpec.square(3, stride=2, pad=1)
    x, up = make_case(97, (2, 2, 6, 6), pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: smp_backward(t, pool, spec, u),
        x, up)
    assert report.passed, report
    with _count_stats() as stats:
        smp_backward(x, pool, spec, up)
    assert stats.call_count == 0


@pytest.mark.parametrize("axis", ["order", "joint", "location"])
def test_frozen_peak_forward_same_with_and_without_a_hit(axis):
    """check_forward's max-norm peaks come from the cache when it holds x."""
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="max", norm_axis=axis)
    x, up = make_case(89, (2, 2, 6, 6), pool, spec)
    twin = Tensor(x.shape, x.data)
    with _count_stats() as stats:
        hit = check_forward(x, pool, spec)
        assert stats.call_count == 0
        cold = check_forward(twin, pool, spec)
        assert stats.call_count == 1
    probes = Tensor((4, 2, 6, 6), np.concatenate([x.nchw, 2.0 * x.nchw]))
    assert hit(x) == cold(x)
    assert hit(probes) == cold(probes)


# sha256 of check_forward's max-norm output bytes on three probes of
# x + 1e-3 * uniform(-1, 1) stacked on the sample axis, x and the probes from
# default_rng(1234), the peaks held at x; keyed "<walk> n<order> <norm_axis>"
# with " std" for standardize_pre_norm. Peaks, divisions and the walk's sums
# are all fixed-order, so the digests hold on any IEEE-754 platform.
FROZEN_PEAK_GEOMETRY = {
    "flat": ((2, 3, 16, 16), PoolSpec.square(3, 1, 1)),
    "strided": ((2, 3, 9, 9), PoolSpec.square(3, 2, 1)),
}
FROZEN_PEAK = {
    "flat n3 order":
        "b3a6ae5097a2f65101fc99d03b6edc73b808cdada81e98d62d72332025e0f592",
    "flat n3 order std":
        "49736f2dca6c27f6b6747e3091ef80973aaf0b7c6d1f6035ae48412c02fa1f32",
    "flat n3 joint":
        "b3a6ae5097a2f65101fc99d03b6edc73b808cdada81e98d62d72332025e0f592",
    "flat n3 joint std":
        "49736f2dca6c27f6b6747e3091ef80973aaf0b7c6d1f6035ae48412c02fa1f32",
    "flat n3 location":
        "b58de870a0b92cdd939aed41a869909e40b41657b308af50045e6fed8b065b3b",
    "flat n3 location std":
        "644109c83fbaef0f00d06e1f5f43a2830ef200bee58b0a8745b371c6ec553ac2",
    "flat n4 order":
        "414b034d33dfa2f65d88b747fb49151674fb2e2c38064f1538164418c2d827a3",
    "flat n4 order std":
        "9e852bcc4dae38a3f21de88da6e9bcdce231ce256aebd6e71dd84e7ce63bbb69",
    "flat n4 joint":
        "c7124b9fbd25bf994b8e736ff41e248a34a344951fc4ce9b3cfcf2a071dfa1a3",
    "flat n4 joint std":
        "f84e77775afd8ccc0167a2bcbf87516202f55aaa03447d120ef240316ba66b5f",
    "flat n4 location":
        "38f3255c556b2f10f3c0cfed35f10b9979a72a2e81bb9500727a2682216c7ca9",
    "flat n4 location std":
        "b4876ff71a9d87a270056b2c85dec5dc88c33835060cf4182512357714c3e403",
    "strided n3 order":
        "763a32aef5ea27844f8c1dc1653ef2a0bbb0ea0e68e9e4da1b2ab71a11d97324",
    "strided n3 order std":
        "a3e1d2807f8dbb70b075fe0e3c4b25b9d8709f8364a9c2e9010ef747e9f1c99b",
    "strided n3 joint":
        "763a32aef5ea27844f8c1dc1653ef2a0bbb0ea0e68e9e4da1b2ab71a11d97324",
    "strided n3 joint std":
        "a3e1d2807f8dbb70b075fe0e3c4b25b9d8709f8364a9c2e9010ef747e9f1c99b",
    "strided n3 location":
        "d8d173795da2cd1bb29dbfbfff398888910fdd55b5d87c5e2590f57b42f436a6",
    "strided n3 location std":
        "c50951fea03adee460f393eb080d956bd76206ac79591eec3718515ef16fec4a",
    "strided n4 order":
        "dbf09d4f2d261d8fcf9ab9fa5e3672c6ced995ef7a400a1dd693e5e409a5a15d",
    "strided n4 order std":
        "6b2785fe81bf807c29be2d8b98211fc43b9345b880fe5a1922230a6bdbdea8e4",
    "strided n4 joint":
        "6b1db30f33c2c8b0764e1ce819071924713a11c81fcf4f64924d86734d7543ac",
    "strided n4 joint std":
        "3be6e353a93c57d82d64dc2731ac09a5d344c2b4bbdaee92db851c34e8025bd6",
    "strided n4 location":
        "fe93aace21e9843bb0e69642a19bd42a4cf7ff821a96a6d61f880879cb8f1bf8",
    "strided n4 location std":
        "db5b7f3d4a515cb0143fad8b4d50d0056117faa9423bc056d7ba2da26e67f710",
}


@pytest.mark.parametrize("name", list(FROZEN_PEAK))
def test_frozen_peak_stacked_forward_bytes_are_frozen(name):
    walk = name.split()[0]
    shape, pool = FROZEN_PEAK_GEOMETRY[walk]
    assert (window_walk(shape, pool).pad is not None) == (walk == "flat")
    assert_frozen_peak(name)


@pytest.mark.parametrize("name", [k for k in FROZEN_PEAK if k.startswith("strided")])
def test_frozen_peak_strided_bytes_hold_on_the_flat_walk(name):
    """The strided digests hold with the forward patched onto the flat
    walk, which the junk rule declines at 2x3x9x9, 3x3 s2 p1 (31%)."""
    with mock.patch.object(smp, "window_walk", flat_walk):
        assert_frozen_peak(name)


def assert_frozen_peak(name):
    """`check_forward`'s held-peak forward on FROZEN_PEAK's stacked probes
    gives the digest for `name`."""
    walk, n, axis, *std = name.split()
    shape, pool = FROZEN_PEAK_GEOMETRY[walk]
    spec = MomentSpec(n=int(n[1:]), norm="max", norm_axis=axis,
                      standardize_pre_norm=bool(std))
    rng = np.random.default_rng(1234)
    x = Tensor(shape, rng.uniform(-1.0, 1.0, shape))
    probes = np.concatenate([x.nchw + 1e-3 * rng.uniform(-1.0, 1.0, shape)
                             for _ in range(3)])
    out = check_forward(x, pool, spec)(Tensor(probes.shape, probes))
    assert hashlib.sha256(out.data.tobytes()).hexdigest() == FROZEN_PEAK[name]


def _assert_bits_match_oracle(forward, x, up):
    """Per-sample and one-probe-per-call numeric gradients both equal the
    scalar loop."""
    want = scalar_finite_diff(forward, x, up).tobytes()
    assert numeric_gradient(forward, x, up).tobytes() == want
    # a plain lambda has no `sample`, so every probe is its own call
    assert numeric_gradient(lambda t: forward(t), x, up).tobytes() == want


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_stacked_probes_match_scalar_loop(spec):
    pool = PoolSpec.square(3, stride=2, pad=1)
    x, up = make_case(1000 + spec.n, (4, 2, 6, 6), pool, spec)
    forward = check_forward(x, pool, spec)
    assert hasattr(forward, "sample") == (spec.norm != "batch")
    _assert_bits_match_oracle(forward, x, up)


@pytest.mark.parametrize("axis", ["order", "joint", "location"])
def test_per_sample_max_norm_divides_by_its_own_peaks(axis):
    """Samples with different peaks: sample b is x[b] scaled by b + 1.

    Each `sample(b)` must hold sample b's own peak divisor. A per-sample
    forward that divides by the whole batch's tiled peaks, as the forward
    itself does, divides the x + h and x - h probes of one element by two
    different samples' peaks, and its numeric gradient is far off.
    """
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="max", norm_axis=axis)
    x, up = make_case(1100, (2, 2, 6, 6), pool, spec)
    x = Tensor(x.shape, x.nchw * np.arange(1.0, 3.0).reshape(-1, 1, 1, 1))
    forward = check_forward(x, pool, spec)
    want = scalar_finite_diff(forward, x, up)
    assert numeric_gradient(forward, x, up).tobytes() == want.tobytes()
    tiled = lambda t: forward(t)  # noqa: E731
    tiled.sample = lambda b: forward
    assert rel_gap(numeric_gradient(tiled, x, up), want) > 1e-3


@pytest.mark.parametrize("spec", [
    MomentSpec(n=4, norm="layer"),
    MomentSpec(n=4, norm="max", norm_axis="location"),
    MomentSpec(n=3, norm="max", norm_axis="joint", standardize_pre_norm=True),
], ids=spec_id)
def test_stacked_probes_match_scalar_loop_dilated(spec):
    pool = PoolSpec(2, 3, 2, 1, 0, 0, 2, 1)
    x, up = make_case(71, (2, 2, 7, 7), pool, spec)
    _assert_bits_match_oracle(check_forward(x, pool, spec), x, up)


def test_stacked_probes_match_scalar_loop_eval_batch_norm():
    pool = PoolSpec.square(3, stride=3)
    spec = MomentSpec(n=4, norm="batch")
    rng = np.random.default_rng(67)
    state = BatchNormState(mean=rng.standard_normal(4),
                           var=rng.uniform(0.5, 2.0, 4))
    x, up = make_case(68, (2, 2, 6, 6), pool, spec)
    forward = check_forward(x, pool, spec, bn_state=state, training=False)
    assert hasattr(forward, "sample")
    _assert_bits_match_oracle(forward, x, up)


@pytest.fixture
def step_bytes(monkeypatch):
    """Sets `windows._STEP_BYTES`, which sizes the probe chunks as well as
    the walks; walks cached under it are dropped afterwards."""
    yield lambda nbytes: monkeypatch.setattr(windows, "_STEP_BYTES", nbytes)
    window_walk.cache_clear()


@pytest.mark.parametrize("pairs", [None, 5], ids=["default-budget", "5-per-chunk"])
def test_chunks_cover_every_element_once_in_order(step_bytes, pairs):
    """A forward with no `sample` sees each probe alone, at x's batch size:
    every element's x + h probe, then its x - h probe, once each and in
    order, however many chunks the budget makes; and the same bits."""
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="layer")
    x, up = make_case(101, (4, 2, 6, 6), pool, spec)
    probe_bytes = 16 * (x.size + up.size)  # one element's two probes
    if pairs is not None:
        step_bytes(pairs * probe_bytes)
    per_chunk = windows._STEP_BYTES // probe_bytes
    assert per_chunk < x.size and x.size % per_chunk != 0

    forward = check_forward(x, pool, spec)
    probes = []  # per call: (element, +h or -h)

    def counted(t):
        assert t.shape == x.shape
        moved = t.data - x.data
        j = int(np.flatnonzero(moved)[0])
        assert np.count_nonzero(moved) == 1
        probes.append((j, moved[j] > 0))
        return forward(t)

    got = numeric_gradient(counted, x, up)
    assert probes == [(j, plus) for j in range(x.size) for plus in (True, False)]
    assert got.tobytes() == scalar_finite_diff(forward, x, up).tobytes()


@pytest.mark.parametrize("pairs", [None, 5], ids=["default-budget", "5-per-chunk"])
def test_sample_chunks_cover_each_sample_once_in_order(step_bytes, pairs):
    """`sample(b)` sees probes of x[b] only, one element each; its chunks
    cover x[b]'s elements once, in order, the last one short, sized from
    one sample's bytes; and the bits are the scalar loop's."""
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="layer")
    x, up = make_case(101, (2, 2, 11, 11), pool, spec)
    n_samples = x.nchw.shape[0]
    size = x.size // n_samples
    probe_bytes = 16 * (x.size + up.size) // n_samples  # one element's two
    if pairs is not None:
        step_bytes(pairs * probe_bytes)
    per_chunk = windows._STEP_BYTES // probe_bytes
    assert per_chunk < size and size % per_chunk != 0

    forward = check_forward(x, pool, spec)
    calls = []  # per call: (sample, first element, elements)

    def sample(b):
        def stacked(probes):
            rows = probes.data.reshape(-1, size) - x.nchw[b].ravel()
            hit, cols = np.nonzero(rows)
            first, m = int(cols[0]), len(rows) // 2
            assert hit.tolist() == list(range(2 * m))  # one element per probe
            assert cols.tolist() == [j for j in range(first, first + m)
                                     for _ in "+-"]
            assert (rows[hit, cols][0::2] > 0).all()
            assert (rows[hit, cols][1::2] < 0).all()
            calls.append((b, first, m))
            return forward.sample(b)(probes)
        return stacked

    counted = lambda t: forward(t)  # noqa: E731
    counted.sample = sample
    got = numeric_gradient(counted, x, up)
    full, rest = divmod(size, per_chunk)
    starts = range(0, size, per_chunk)
    assert calls == [call for b in range(n_samples) for call in
                     [(b, j, per_chunk) for j in starts[:full]]
                     + [(b, full * per_chunk, rest)]]
    assert got.tobytes() == scalar_finite_diff(forward, x, up).tobytes()


def test_training_batch_norm_probes_one_forward_each():
    """Batch statistics couple samples: each probe is a separate forward call
    of x's own batch size, the report is the scalar loop's, the state stays."""
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="batch")
    x, up = make_case(73, (4, 2, 6, 6), pool, spec)
    state = BatchNormState.fresh(4)
    mean, var = state.mean.tobytes(), state.var.tobytes()
    forward = check_forward(x, pool, spec, bn_state=state)
    assert not hasattr(forward, "sample")
    batches = []

    def counted(t):
        batches.append(t.nchw.shape[0])
        return forward(t)

    report = finite_diff_check(
        counted, lambda t, u: smp_backward(t, pool, spec, u, bn_state=state),
        x, up)
    assert batches == [4] * (2 + 2 * x.size)
    analytic = smp_backward(x, pool, spec, up, bn_state=state).data
    numeric = scalar_finite_diff(forward, x, up)
    assert report.passed
    assert report.max_rel_error == rel_gap(analytic, numeric)
    assert report.worst_index == int(np.abs(analytic - numeric).argmax())
    assert state.mean.tobytes() == mean
    assert state.var.tobytes() == var


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
    with pytest.raises(ValueError, match="upstream size"):
        finite_diff_check(const_forward, const_backward, x,
                          Tensor((3,), [1.0, 1.0, 1.0]))


@pytest.mark.parametrize("h", [0.0, float("nan"), -1e-6, float("inf")])
def test_numeric_gradient_rejects_a_bad_step(h):
    """Before any probe: h = 0 used to divide by zero, h = nan to return
    NaNs."""
    x = Tensor((3,), [1.0, 2.0, 3.0])
    calls = []

    def forward(t):
        calls.append(t)
        return Tensor((1,), [t.data.sum()])

    with pytest.raises(ValueError, match="step size must be finite and positive"):
        numeric_gradient(forward, x, Tensor((1,), [1.0]), h)
    assert calls == []


@pytest.mark.parametrize("extra", [-1, 1, 4])
@pytest.mark.parametrize("path", ["per-sample", "one-by-one"])
def test_numeric_gradient_rejects_an_upstream_of_the_wrong_size(path, extra):
    """An upstream that is not forward(x)'s size is named, on every probe
    path, instead of failing in a reshape."""
    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="layer")
    x, up = make_case(107, (4, 2, 6, 6), pool, spec)
    forward = check_forward(x, pool, spec)
    probed = forward if path == "per-sample" else lambda t: forward(t)
    wrong = Tensor((up.size + extra,), np.ones(up.size + extra))
    with pytest.raises(ValueError, match="upstream size does not match"):
        numeric_gradient(probed, x, wrong)


@pytest.mark.parametrize("n_grad", [2, 5])
def test_gradient_of_wrong_size_rejected(n_grad):
    """A backward must return one value per input element, no more, no fewer."""
    x = Tensor((3,), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=f"{n_grad} gradient values .* of 3"):
        finite_diff_check(lambda t: Tensor((1,), [t.data.sum()]),
                          lambda t, u: Tensor((n_grad,), np.zeros(n_grad)),
                          x, Tensor((1,), [1.0]))


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


@pytest.mark.parametrize("scale", [1.0, 1.001], ids=["passing", "failing"])
def test_report_errors_are_plain_floats(scale):
    pool = PoolSpec.square(2, stride=2)
    spec = MomentSpec(n=2, norm="none")
    x, up = make_case(83, (1, 1, 4, 4), pool, spec)
    report = finite_diff_check(
        check_forward(x, pool, spec),
        lambda t, u: Tensor(t.shape, smp_backward(t, pool, spec, u).data * scale),
        x, up)
    assert report.passed == (scale == 1.0)
    assert type(report.max_rel_error) is float
    assert type(report.max_abs_error) is float
    assert "np.float64" not in repr(report)


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

    def test_statistics_computed_once(self):
        with _count_stats() as stats:
            gradient_magnitude_profile(self._input(1.0), self.POOL, 4,
                                       norm="layer")
        assert stats.call_count == 1

    def test_solid_input_has_zero_high_order_profile(self):
        profile = gradient_magnitude_profile(solid((1, 2, 8, 8), 4.0),
                                             PoolSpec.square(4, stride=4), 4)
        assert profile[0] > 0
        assert profile[1] == profile[2] == profile[3] == 0.0
