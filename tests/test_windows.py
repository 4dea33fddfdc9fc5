"""Window geometry, im2col extraction, the col2im adjoint and the window walk."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from momentpool import windows
from momentpool.smp import MomentSpec, smp_backward, smp_forward
from momentpool.tensor import Tensor
from momentpool.windows import (GeometryError, PoolSpec, output_dims, window_steps,
                                window_walk)

from oracle import col2im_accumulate, im2col


def anchors_by_brute_force(h, w, spec):
    """Count valid window anchor rows/cols by direct enumeration."""
    rows = 0
    y = -spec.pad_h
    while y + spec.eff_kernel_h <= h + spec.pad_h:
        rows += 1
        y += spec.stride_h
    cols = 0
    x = -spec.pad_w
    while x + spec.eff_kernel_w <= w + spec.pad_w:
        cols += 1
        x += spec.stride_w
    return rows, cols


def gather_window(chan, spec, oh, ow, pad_value=0.0):
    """Direct gather of one window, the row oracle for im2col."""
    h, w = chan.shape
    out = []
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            y = oh * spec.stride_h + i * spec.dilation_h - spec.pad_h
            x = ow * spec.stride_w + j * spec.dilation_w - spec.pad_w
            out.append(chan[y, x] if 0 <= y < h and 0 <= x < w else pad_value)
    return np.array(out)


def random_geometry(rng, h, w, allow_pad=True):
    for _ in range(100):
        kh = int(rng.integers(1, min(h, 4) + 1))
        kw = int(rng.integers(1, min(w, 4) + 1))
        dh = int(rng.integers(1, 3))
        dw = int(rng.integers(1, 3))
        eff_h = dh * (kh - 1) + 1
        eff_w = dw * (kw - 1) + 1
        spec = PoolSpec(
            kh, kw,
            stride_h=int(rng.integers(1, 4)),
            stride_w=int(rng.integers(1, 4)),
            pad_h=int(rng.integers(0, min(3, eff_h))) if allow_pad else 0,
            pad_w=int(rng.integers(0, min(3, eff_w))) if allow_pad else 0,
            dilation_h=dh,
            dilation_w=dw,
        )
        if spec.eff_kernel_h <= h + 2 * spec.pad_h and \
                spec.eff_kernel_w <= w + 2 * spec.pad_w:
            return spec
    raise AssertionError("could not sample a valid geometry")


class TestOutputDims:
    def test_basic_3x3(self):
        assert output_dims(5, 5, PoolSpec.square(3)) == (3, 3)

    def test_global_pooling_degenerate(self):
        spec = PoolSpec(kernel_h=1080, kernel_w=1920)
        assert output_dims(1080, 1920, spec) == (1, 1)

    def test_strided_padded_dilated(self):
        spec = PoolSpec.square(3, stride=2, pad=1, dilation=2)
        assert anchors_by_brute_force(7, 7, spec) == (3, 3)
        assert output_dims(7, 7, spec) == (3, 3)

    def test_matches_brute_force_on_random_geometries(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            h = int(rng.integers(1, 20))
            w = int(rng.integers(1, 20))
            spec = random_geometry(rng, h, w)
            assert output_dims(h, w, spec) == anchors_by_brute_force(h, w, spec)

    def test_oversized_kernel_rejected(self):
        with pytest.raises(GeometryError):
            output_dims(3, 3, PoolSpec.square(5))
        with pytest.raises(GeometryError):
            output_dims(4, 4, PoolSpec.square(3, dilation=2))

    def test_bad_spec_fields_rejected(self):
        with pytest.raises(GeometryError):
            PoolSpec(0, 1)
        with pytest.raises(GeometryError):
            PoolSpec(1, 1, stride_h=0)
        with pytest.raises(GeometryError):
            PoolSpec(1, 1, pad_h=-1)
        for bad in ((True, 2), (2.5, 2), (3, 3, 1.0), (2, 2, 1, 1, False),
                    (2, 2, 1, 1, 0, 0, np.float64(1.0))):
            with pytest.raises(GeometryError, match="must be an int >= "):
                PoolSpec(*bad)
        PoolSpec(np.int64(2), 2)  # numpy integers are ints

    def test_all_padding_windows_rejected(self):
        # pad >= effective kernel would let boundary windows hold padding only
        with pytest.raises(GeometryError, match="padding"):
            PoolSpec(1, 1, pad_h=1)
        with pytest.raises(GeometryError, match="padding"):
            PoolSpec.square(2, pad=2)
        PoolSpec.square(2, pad=1)
        PoolSpec.square(2, pad=2, dilation=2)  # eff kernel 3 > pad 2


class TestIm2col:
    def test_ramp_3x3_kernel2(self):
        t = Tensor((1, 3, 3), np.arange(9.0))
        [m] = im2col(t, PoolSpec.square(2))
        expected = [[0, 1, 3, 4], [1, 2, 4, 5], [3, 4, 6, 7], [4, 5, 7, 8]]
        assert m.data.tolist() == expected
        assert m.origin_shape == (2, 2)

    def test_full_kernel_is_identity_gather(self):
        rng = np.random.default_rng(3)
        chan = rng.standard_normal((4, 5))
        [m] = im2col(Tensor((1, 4, 5), chan), PoolSpec(4, 5))
        assert np.array_equal(m.data, chan.reshape(1, 20))

    def test_single_element(self):
        [m] = im2col(Tensor((1, 1, 1), [7.5]), PoolSpec(1, 1))
        assert m.data.tolist() == [[7.5]]

    def test_rows_match_direct_gather_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(1, 10))
            w = int(rng.integers(1, 10))
            spec = random_geometry(rng, h, w)
            x = rng.standard_normal((c, h, w))
            pad_value = float(rng.standard_normal())
            mats = im2col(Tensor((c, h, w), x), spec, pad_value=pad_value)
            h_out, w_out = output_dims(h, w, spec)
            assert len(mats) == c
            for ch, m in enumerate(mats):
                assert m.rows == h_out * w_out
                assert m.cols == spec.window_size
                for r in range(m.rows):
                    oh, ow = divmod(r, w_out)
                    oracle = gather_window(x[ch], spec, oh, ow, pad_value)
                    assert np.array_equal(m.data[r], oracle)

    def test_validity_mask_tracks_bounds(self):
        spec = PoolSpec.square(3, stride=2, pad=1)
        x = np.arange(16.0).reshape(4, 4)
        [m] = im2col(Tensor((1, 4, 4), x), spec, track_valid=True)
        for r in range(m.rows):
            oh, ow = divmod(r, m.origin_shape[1])
            for k in range(m.cols):
                i, j = divmod(k, spec.kernel_w)
                y = oh * spec.stride_h + i - spec.pad_h
                z = ow * spec.stride_w + j - spec.pad_w
                assert m.valid[r, k] == (0 <= y < 4 and 0 <= z < 4)

    def test_window_count_equals_output_dims(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            h = int(rng.integers(1, 16))
            w = int(rng.integers(1, 16))
            spec = random_geometry(rng, h, w)
            [m] = im2col(Tensor((1, h, w), rng.standard_normal((h, w))), spec)
            h_out, w_out = output_dims(h, w, spec)
            assert m.rows == h_out * w_out

    def test_multi_sample_rejected(self):
        t = Tensor((2, 1, 2, 2), np.arange(8.0))
        with pytest.raises(ValueError):
            im2col(t, PoolSpec.square(2))


class TestCol2im:
    def test_non_overlapping_ones(self):
        spec = PoolSpec.square(2, stride=2)
        g = np.ones((4, 4))  # 4 windows x 4 cells on a 4x4 input
        out = col2im_accumulate([g], spec, 4, 4)
        assert np.array_equal(out.array[0], np.ones((4, 4)))

    def test_overlap_counts_covering_windows(self):
        spec = PoolSpec.square(2, stride=1)
        g = np.ones((4, 4))
        out = col2im_accumulate([g], spec, 3, 3)
        assert out.array[0].tolist() == [[1, 2, 1], [2, 4, 2], [1, 2, 1]]

    def test_zero_gradient(self):
        out = col2im_accumulate([np.zeros((4, 4))], PoolSpec.square(2), 3, 3)
        assert not out.array.any()

    def test_padding_contributions_dropped(self):
        spec = PoolSpec.square(3, stride=2, pad=1)
        h_out, w_out = output_dims(4, 4, spec)
        g = np.ones((h_out * w_out, 9))
        out = col2im_accumulate([g], spec, 4, 4)
        # coverage oracle: count windows whose cell lands on each position
        cover = np.zeros((4, 4))
        for oh in range(h_out):
            for ow in range(w_out):
                for i in range(3):
                    for j in range(3):
                        y = oh * 2 + i - 1
                        x = ow * 2 + j - 1
                        if 0 <= y < 4 and 0 <= x < 4:
                            cover[y, x] += 1
        assert np.array_equal(out.array[0], cover)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            col2im_accumulate([np.ones((3, 4))], PoolSpec.square(2), 3, 3)


class TestAdjointAndConvolution:
    def test_adjoint_identity(self):
        """<im2col(x), G> == <x, col2im(G)> for random shapes and specs."""
        rng = np.random.default_rng(31)
        for _ in range(60):
            c = int(rng.integers(1, 4))
            h = int(rng.integers(1, 10))
            w = int(rng.integers(1, 10))
            spec = random_geometry(rng, h, w)
            x = rng.standard_normal((c, h, w))
            mats = im2col(Tensor((c, h, w), x), spec)
            gs = [rng.standard_normal(m.data.shape) for m in mats]
            lhs = sum(float(np.vdot(m.data, g)) for m, g in zip(mats, gs))
            rhs = float(np.vdot(x, col2im_accumulate(gs, spec, h, w).array))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_row_mean_equals_box_filter_convolution(self):
        """Averaging each im2col row is convolution with a 1/(kh*kw) kernel."""
        rng = np.random.default_rng(37)
        for _ in range(20):
            h = int(rng.integers(2, 12))
            w = int(rng.integers(2, 12))
            spec = random_geometry(rng, h, w, allow_pad=False)
            x = rng.standard_normal((h, w))
            [m] = im2col(Tensor((1, h, w), x), spec)
            row_means = m.data.mean(axis=1)
            h_out, w_out = output_dims(h, w, spec)
            box = np.full((spec.kernel_h, spec.kernel_w),
                          1.0 / spec.window_size)
            conv = np.empty(h_out * w_out)
            for r in range(h_out * w_out):
                oh, ow = divmod(r, w_out)
                acc = 0.0
                for i in range(spec.kernel_h):
                    for j in range(spec.kernel_w):
                        acc += box[i, j] * x[oh * spec.stride_h + i * spec.dilation_h,
                                             ow * spec.stride_w + j * spec.dilation_w]
                conv[r] = acc
            np.testing.assert_allclose(row_means, conv, atol=1e-12)


@st.composite
def adjoint_cases(draw):
    """A valid geometry, an input that fits it and a seed for the data."""
    k = st.integers(1, 4)
    s = st.integers(1, 3)
    p = st.integers(0, 2)
    try:
        spec = PoolSpec(draw(k), draw(k), draw(s), draw(s), draw(p), draw(p),
                        draw(s), draw(s))
    except GeometryError:
        reject()
    h = draw(st.integers(max(1, spec.eff_kernel_h - 2 * spec.pad_h), 10))
    w = draw(st.integers(max(1, spec.eff_kernel_w - 2 * spec.pad_w), 10))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    return spec, shape, draw(st.integers(0, 2**32 - 1))


def step_cells(step, shape, spec, planes):
    """Flat input index and (n, c, oh, ow, i, j) of every block element of a
    step of the chunk `planes`.

    Decoded from the input index the block reads in the chunk's planes and
    the output slice it feeds, offset by the chunk's first sample and
    channel, so nothing but `out` and `block` of the step is trusted.
    """
    n_s, c_s, h, w = shape
    flat = step.block(np.arange(float(np.prod(shape))).reshape(shape)[planes])
    flat = flat.astype(np.int64).reshape(flat.shape[:4] + (flat.shape[4:] or (1, 1)))
    plane, rest = divmod(flat, h * w)
    y, x = divmod(rest, w)
    samples, channels, out_h, out_w = step.out
    oh = np.arange(out_h.start, out_h.stop)[:, None, None, None]
    ow = np.arange(out_w.start, out_w.stop)[None, :, None, None]
    i, i_rem = divmod(y - oh * spec.stride_h + spec.pad_h, spec.dilation_h)
    j, j_rem = divmod(x - ow * spec.stride_w + spec.pad_w, spec.dilation_w)
    assert not i_rem.any() and not j_rem.any()  # cells sit on the kernel grid
    assert ((0 <= i) & (i < spec.kernel_h) & (0 <= j) & (j < spec.kernel_w)).all()
    n, c = divmod(plane, c_s)
    n0, c0 = planes[0].start, planes[1].start
    assert (n == np.arange(n0 + samples.start, n0 + samples.stop)
            .reshape(-1, 1, 1, 1, 1, 1)).all()
    assert (c == np.arange(c0 + channels.start, c0 + channels.stop)
            .reshape(-1, 1, 1, 1, 1)).all()
    block_shape = step.block(np.zeros(shape)[planes]).shape
    return flat, tuple(np.broadcast_to(a, flat.shape).reshape(block_shape)
                       for a in (n, c, oh, ow, i, j))


@contextlib.contextmanager
def block_budget(nbytes):
    """Walk with another block budget; cached walks are dropped both ways."""
    window_walk.cache_clear()
    try:
        with mock.patch.object(windows, "_STEP_BYTES", nbytes):
            yield
    finally:
        window_walk.cache_clear()


def walk(shape, spec, x, g):
    """Visit counts per (n, c, oh, ow, i, j), <blocks of x, g>, the scatter
    of g through the blocks and the walk's own window counts. Each chunk is
    one plane, or holds planes whose output maps fit the block budget."""
    visits = np.zeros(g.shape, dtype=np.int64)
    gathered = 0.0
    scattered = np.zeros(shape)
    walk = window_steps(shape, spec)
    count_h, count_w = walk.counts
    assert walk.pad is None
    for planes, groups in walk.chunks:
        assert (windows._planes(planes) == 1 or windows._planes(planes)
                * count_h.size * count_w.size * 8 <= windows._STEP_BYTES)
        for (step,) in groups:
            flat, idx = step_cells(step, shape, spec, planes)
            assert np.unique(flat).size == flat.size
            np.add.at(visits, idx, 1)
            gathered += float(np.sum(step.block(x[planes]) * g[idx]))
            dst = step.block(scattered[planes])
            dst += g[idx]
    return visits, gathered, scattered, np.multiply.outer(count_h, count_w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(adjoint_cases())
def test_window_steps_visit_each_inbounds_cell_once(case):
    """Every in-bounds (window, cell) pair is visited by exactly one step, no
    input cell repeats within a step's block, the walk counts each window's
    in-bounds cells, and the blocks' gather and scatter are adjoint, the
    scatter agreeing with `col2im_accumulate`. A geometry that leaves a
    window with no input cell is refused instead.

    Checked at the default block budget and at two small ones, which cut
    planes into several chunks and planes and runs of kernel rows into
    several steps.
    """
    spec, shape, seed = case
    n_s, c_s, h, w = shape
    h_out, w_out = output_dims(h, w, spec)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    g = rng.standard_normal((n_s, c_s, h_out, w_out, spec.kernel_h, spec.kernel_w))
    rows = (np.arange(h_out)[:, None] * spec.stride_h
            + np.arange(spec.kernel_h) * spec.dilation_h - spec.pad_h)
    cols = (np.arange(w_out)[:, None] * spec.stride_w
            + np.arange(spec.kernel_w) * spec.dilation_w - spec.pad_w)
    inside = (((0 <= rows) & (rows < h))[:, None, :, None]
              & ((0 <= cols) & (cols < w))[None, :, None, :])
    if not inside.any(axis=(2, 3)).all():
        with pytest.raises(GeometryError, match=f"on input {h}x{w}"):
            window_steps(shape, spec)
        return
    col2im = np.stack([
        col2im_accumulate([g[b, c].reshape(h_out * w_out, spec.window_size)
                           for c in range(c_s)], spec, h, w).array
        for b in range(n_s)])
    expected = float(np.sum(x * col2im))

    for budget in (windows._STEP_BYTES, 1024, 8):
        with block_budget(budget):
            visits, gathered, scattered, counts = walk(shape, spec, x, g)
        assert np.array_equal(visits, np.broadcast_to(inside, g.shape))
        assert np.array_equal(counts, inside.sum(axis=(2, 3)))
        np.testing.assert_allclose(scattered, col2im, rtol=0, atol=1e-12)
        assert abs(gathered - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("shape, pool, budget, chunk", [
    ((4, 8, 9, 9), PoolSpec.square(3, 2, 1), 3200, (2, 8)),
    ((2, 4, 6, 6), PoolSpec.square(3, 1, 0), 256, (1, 2)),
], ids=["whole-samples", "inside-a-sample"])
def test_strided_chunks_keep_the_bits_of_one_chunk(shape, pool, budget, chunk):
    """A strided walk that one chunk covers at the default budget, cut into
    chunks of (samples, channels) `chunk` by a budget that still fits each
    step's kernel rows, gives an n=4 layer-norm forward and backward the
    same bytes."""
    spec = MomentSpec(n=4, norm="layer")
    rng = np.random.default_rng(17)
    x = Tensor(shape, rng.uniform(-1.0, 1.0, shape))
    up = rng.uniform(-1.0, 1.0, (shape[0], 4 * shape[1]) + output_dims(*shape[2:], pool))
    results = []
    for nbytes, size in ((windows._STEP_BYTES, shape[:2]), (budget, chunk)):
        with block_budget(nbytes):
            walk = window_walk(shape, pool)
            assert walk.pad is None
            assert [tuple(s.stop - s.start for s in planes) for planes, _ in walk.chunks] \
                == [size] * (shape[0] * shape[1] // (size[0] * size[1]))
            y = smp_forward(x, pool, spec)
            g = smp_backward(x, pool, spec, Tensor(up.shape, up))
        results.append((y.data.tobytes(), g.data.tobytes()))
    assert results[0] == results[1]
