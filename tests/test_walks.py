"""The two ways to build a walk: the choice between them, their coverage
and their bits.

The flat walk (`windows.flat_walk`) must reproduce the strided walk
(`windows.window_steps`) bit for bit wherever it is taken, at stride 1 and,
through its phase-major layout, at larger strides, so these tests run both
through the same moment and cell-gradient loops on the same geometry, pin
the bytes of both public entry points to digests taken before the flat walk
existed, and check that the junk and padding pairs the flat walk computes
add nothing and never overflow.
"""

import hashlib
import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from momentpool import smp, windows
from momentpool.normalize import BatchNormState
from momentpool.smp import MomentSpec, output_shape, smp_backward, smp_forward
from momentpool.tensor import Tensor
from momentpool.windows import (GeometryError, PoolSpec, flat_walk,
                                output_dims, window_steps, window_walk)

UNSAFE4 = MomentSpec(n=4, norm="none", unsafe_no_norm=True)


def uniform(shape, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, shape)


def plane_range(planes, channels):
    """A chunk's (samples, channels) index as [start, stop) of flat planes,
    which it must be: one sample's channel run, or whole samples."""
    samples, chans = planes
    if samples.stop - samples.start > 1:
        assert (chans.start, chans.stop) == (0, channels)
    return (samples.start * channels + chans.start,
            (samples.stop - 1) * channels + chans.stop)


def steps_of(walk):
    return [step for _, groups in walk.chunks for group in groups for step in group]


def layout(walk):
    """A walk's pad, plane chunks, groups of step geometry and spans, and 1 /
    cell counts, in a form that compares with ==."""
    steps = [(planes, [[(s.out, s.win, s.offset, s.shape, s.strides, s.span)
                        for s in group] for group in groups])
             for planes, groups in walk.chunks]
    return (walk.pad, steps, walk.inv.tobytes(),
            [a.tobytes() for a in walk.counts])


def run_length(walk):
    """A flat walk's outputs of its largest chunk up to the last real one:
    the length of each work buffer when a flat step was a run cut off there,
    which the memory bounds below keep."""
    _, _, per, hb, wq = walk.scratch
    return ((per - 1) * hb + hb - walk.halo - 1) * wq + walk.counts[1].size


def span_of(pool, shape, band, i, j):
    """The (lo, hi, c0, c1) span that `_runs` gives kernel cell (i, j): the
    output rows that hold kernel row i in bounds, cut to `band`, and the
    output columns that hold kernel column j in bounds."""
    h_out, w_out = output_dims(*shape[2:], pool)
    rows = windows._runs(shape[2], h_out, pool.kernel_h, pool.stride_h,
                         pool.dilation_h, pool.pad_h)
    cols = windows._runs(shape[3], w_out, pool.kernel_w, pool.stride_w,
                         pool.dilation_w, pool.pad_w)
    out_h, out_w = (next(run[0] for run in runs if run[2] <= k < run[2] + run[3])
                    for runs, k in ((rows, i), (cols, j)))
    lo, hi = (min(max(0, t - band.start), band.stop - band.start)
              for t in (out_h.start, out_h.stop))
    return lo, hi, out_w.start, out_w.stop


def ready(poly):
    """`smp._cell_grads`' coefficient builder for a ready (n, N, C, H', W')
    array: it copies each chunk's planes."""
    def fill(planes, out, pair, inv):
        for dst, c in zip(out, poly):
            dst[...] = c[planes]
    return len(poly), fill


def per_count(poly):
    """As `ready`, with each chunk's planes scaled by the 1 / count that
    `frames` hands the builder, as `smp_backward`'s coefficients are."""
    def fill(planes, out, pair, inv):
        for dst, c in zip(out, poly):
            np.multiply(c[planes], inv, out=dst)
    return len(poly), fill


class TestChoice:
    @pytest.mark.parametrize("shape, pool, flat", [
        ((8, 16, 64, 64), PoolSpec.square(3, 1, 1), True),      # 6% junk
        ((1, 3, 126, 254), PoolSpec.square(3, 1, 1), True),     # 128x256 padded
        ((1, 3, 127, 254), PoolSpec.square(3, 1, 1), True),     # one row more: bands
        ((1, 3, 256, 256), PoolSpec.square(3, 1, 1), True),     # 2%, 520 KiB
        ((1, 3, 1080, 1920), PoolSpec.square(3, 1, 1), True),   # 0.3%, 16 MiB
        ((2, 16, 128, 128), PoolSpec.square(5, 1, 2), True),    # 11%
        ((52, 3, 8, 8), PoolSpec.square(3, 1, 0), False),       # 44%
        ((2, 3, 8, 8), PoolSpec.square(3, 1, 1), False),        # 36%
        ((1, 3, 256, 256), PoolSpec.square(3, 2, 1), True),     # stride 2, 1.5%
        ((8, 4, 16, 16), PoolSpec(16, 16), False),              # global
        ((8, 16, 64, 64), PoolSpec.square(8, 8), False),        # no overlap, 8-cell runs
        ((1, 1, 9, 9), PoolSpec(3, 3, 1, 2), False),            # stride 1 x 2, 38%
        ((2, 3, 9, 9), PoolSpec.square(3, 2, 1), False),        # stride 2, 31%
        ((1, 3, 65, 65), PoolSpec.square(5, 3, 0), False),      # 3-cell runs, 9%
        ((1, 2, 41, 2), PoolSpec(3, 2, 2, 2), False),           # 2x2 in 1 column, 5%
        ((8, 16, 64, 64), PoolSpec.square(3, 2, 1), True),      # stride 2, 6%
        ((1, 3, 540, 960), PoolSpec.square(3, 2, 1), True),     # stride 2, bands
        ((2, 3, 17, 19), PoolSpec(3, 2, 2, 3, 1, 1), True),     # stride 2 x 3, 20%
        ((8, 16, 64, 64), PoolSpec(1, 1), False),               # 1x1: no overlap
    ])
    def test_flat_walk_at_stride_one_on_budget_planes_with_little_junk(
            self, shape, pool, flat):
        """At any stride and plane size, the flat walk is taken where windows
        overlap on some axis, at most a quarter of outputs are junk and
        `_flat_groups` accepts the geometry, and the walk is cached."""
        walk = window_walk(shape, pool)
        assert (walk.pad is not None) == flat
        assert window_walk(shape, pool) is walk
        builder = flat_walk if flat else window_steps
        assert layout(builder(shape, pool)) == layout(walk)

    @pytest.mark.parametrize("shape, pool", [
        ((1, 3, 256, 256), PoolSpec.square(3, 2, 1)),
        ((1, 3, 540, 960), PoolSpec.square(3, 2, 1)),
        ((8, 16, 64, 64), PoolSpec.square(3, 2, 1)),
        ((8, 16, 64, 64), PoolSpec.square(3, 1, 1)),
        ((1, 3, 256, 256), PoolSpec.square(3, 1, 1)),
    ])
    def test_every_chunk_stages_its_scratch_within_the_budget(self, shape, pool):
        """A chunk's phase-major scratch (every phase of its planes' rows and
        halo) fits `_STEP_BYTES`; one padded 258x258 plane would not, so at
        256x256, stride 1 or 2, the chunks are bands of one plane, last to
        first."""
        walk = window_walk(shape, pool)
        sh, sw, per, rows, cols = walk.scratch
        assert walk.pad is not None and 8 * sh * sw * per * rows * cols <= 1 << 18
        for planes, _ in walk.chunks:
            band = planes[2] if len(planes) > 2 else slice(0, walk.counts[0].size)
            assert windows._planes(planes[:2]) <= per
            assert band.stop - band.start + walk.halo <= rows
        if shape[2] >= 256:
            bands = [planes[2] for planes, _ in walk.chunks[:len(walk.chunks) // 3]]
            assert per == 1 and bands[0].stop == walk.counts[0].size
            assert all(a.start == b.stop for a, b in zip(bands, bands[1:]))
            assert bands[-1].start == 0

    @pytest.mark.parametrize("shape, pool", [
        ((1, 3, 65, 65), PoolSpec.square(5, 3, 0)),
        ((1, 2, 41, 2), PoolSpec(3, 2, 2, 2)),
    ], ids=["3-cell runs", "2x2 run over one column"])
    def test_flat_walk_refuses_steps_it_cannot_sum_in_the_strided_order(
            self, shape, pool):
        """A run of three cells on an axis, or a 2x2 run over one output
        column (numpy sums such a strided block's four cells in sequence),
        has no flat step with the strided walk's sum: `flat_walk` is None."""
        assert windows._flat_groups(*shape[2:], pool) is None
        assert flat_walk(shape, pool) is None

    @pytest.mark.parametrize("width, pool, rows_first", [
        (2, PoolSpec(3, 2, 2, 2), False),
        (3, PoolSpec(3, 2, 2, 2), False),
        (4, PoolSpec(3, 2, 2, 3, 0, 0, 1, 2), False),
        (5, PoolSpec(3, 2, 2, 2), True),
        (64, PoolSpec.square(3, 2, 1), True),
    ])
    def test_numpy_sums_a_strided_2x2_block_each_row_first_over_columns(
            self, width, pool, rows_first):
        """The strided walk's `cell_sum` of a 2x2 block adds each kernel row
        first where the block spans several output columns, whose axis lies
        between the kernel columns' and rows' in memory; over one output
        column numpy adds the four cells in sequence, which no flat step
        matches, so the flat walk refuses it."""
        shape = (1, 4, 200, width)
        x4 = uniform(shape, 31)
        planes, groups = window_steps(shape, pool).chunks[0]
        b = next(st for (st,) in groups if st.shape[4:] == (2, 2)).block(x4[planes])
        rows = (b[..., 0, 0] + b[..., 0, 1]) + (b[..., 1, 0] + b[..., 1, 1])
        in_turn = ((b[..., 0, 0] + b[..., 0, 1]) + b[..., 1, 0]) + b[..., 1, 1]
        got = windows.cell_sum(b)
        assert np.array_equal(got, rows) == rows_first
        assert np.array_equal(got, in_turn) != rows_first
        assert (windows._flat_groups(*shape[2:], pool) is None) != rows_first

    @pytest.mark.parametrize("pool, digest", [
        (PoolSpec.square(8, 8),
         "148803b5b8725e7a61bf2cf8c9ae6275216c6329b09e567b332f379d51d49173"),
        (PoolSpec(64, 64),
         "785d240c5d2e85202c4c99a82b322cdfc3a4e72839d76bbd3331772795173e72"),
    ], ids=["8x8 s8", "global"])
    def test_numpy_sums_8x8_and_global_blocks_in_a_pinned_order(self, pool, digest):
        """The strided walk's `cell_sum` of a whole 8x8 s8 block, which numpy
        sums each 8-cell kernel row first, and of a global 64x64 block, whose
        contiguous cells it sums as one pairwise run, keeps the bytes taken
        on numpy 2.4.6: a numpy that reorders these sums moves pooled bits,
        and fails here with its version named."""
        shape = (2, 4, 64, 64)
        planes, [(step,)] = window_steps(shape, pool).chunks[0]
        assert step.shape[:2] == shape[:2]
        got = windows.cell_sum(step.block(uniform(shape, 33)[planes]))
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest, \
            f"numpy {np.__version__} sums a {pool.kernel_h}x{pool.kernel_w} " \
            f"strided block in an order other than the one pinned on numpy 2.4.6"

    def test_flat_chunks_split_no_sample_and_respect_the_budget(self):
        walk = flat_walk((8, 16, 64, 64), PoolSpec.square(3, 1, 1))
        planes = [plane_range(ch, 16) for ch, _ in walk.chunks]
        sizes = [stop - start for start, stop in planes]
        assert sum(sizes) == 8 * 16
        assert all(start // 16 == (stop - 1) // 16 for start, stop in planes)
        assert max(sizes) * 66 * 66 * 8 <= 1 << 18
        walk = flat_walk((6, 2, 16, 16), PoolSpec.square(3, 1, 1))
        assert [plane_range(ch, 2) for ch, _ in walk.chunks] == [(0, 12)]


@st.composite
def legal_geometries(draw):
    """Any legal geometry with kernels up to 4, strides up to 3, dilations
    up to 2 and any padding, on a shape of up to 2x3x40x40 that fits it."""
    k, s, d = (tuple(draw(st.integers(1, hi)) for _ in "hw") for hi in (4, 3, 2))
    p = tuple(draw(st.integers(0, di * (ki - 1))) for ki, di in zip(k, d))
    pool = PoolSpec(*k, *s, *p, *d)
    h = draw(st.integers(max(1, pool.eff_kernel_h - 2 * pool.pad_h), 40))
    w = draw(st.integers(max(1, pool.eff_kernel_w - 2 * pool.pad_w), 40))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    try:
        window_steps(shape, pool)
    except GeometryError:
        reject()  # a dilated window that misses the input
    return shape, pool


@settings(max_examples=200, deadline=None, derandomize=True)
@given(legal_geometries())
def test_window_walk_takes_the_flat_walk_exactly_where_the_rule_admits_it(case):
    """`window_walk` has `flat_walk`'s layout where windows overlap on some
    axis, at most a quarter of a phase plane's outputs are junk and
    `flat_walk` accepts the geometry, and `window_steps`' everywhere else."""
    shape, pool = case
    h_out, w_out = output_dims(*shape[2:], pool)
    hq = h_out + (pool.eff_kernel_h - 1) // pool.stride_h
    wq = w_out + (pool.eff_kernel_w - 1) // pool.stride_w
    overlap = pool.eff_kernel_h > pool.stride_h or pool.eff_kernel_w > pool.stride_w
    flat = flat_walk(shape, pool) if overlap and 4 * h_out * w_out >= 3 * hq * wq else None
    assert layout(window_walk(shape, pool)) == layout(flat or window_steps(shape, pool))


# sha256 of smp_forward and smp_backward bytes for UNSAFE4 on uniform(-1, 1)
# inputs and upstreams from default_rng(1234), recorded from the strided walk
# alone; "none" normalization keeps the arithmetic elementwise, so the
# digests hold on any IEEE-754 platform
FROZEN = {
    "dense padded": (
        (2, 3, 16, 15), PoolSpec.square(3, 1, 1), True,
        "b615d8a926d021f6f339eacaed8ef3fb1f81d40d260c6a9f8a60f62d8cf168e0",
        "9d177a9475c6d76db70b2147fa1700ea6ddf6c0ffdec98b5fe110195690f9384"),
    "rectangular dilated": (
        (1, 2, 30, 26), PoolSpec(3, 2, 1, 1, 1, 2, 2, 3), True,
        "6cc71bb20647918b982850a2a20da8dd91ed15f7bdaf8779fd28d391bb47e491",
        "c5928ce20a319a78478b754671b8553ada5442b144742ebae33e2beb327caacb"),
    "dense unpadded 8x8": (
        (2, 3, 8, 8), PoolSpec.square(3, 1, 0), False,
        "900245ea7c0aa780fec1824cf64048eed863d516f251e17b4aa47c93d3d6d559",
        "52277cf7c68bc74c7189e765995c8bbd705350aa0829462a006296f0ca995064"),
    "stride 2 padded": (
        (2, 3, 9, 9), PoolSpec.square(3, 2, 1), False,
        "bf1d086a3b3d6722452f642e82be0de1990be78758de20a2b23c0e09757455ee",
        "d4ef27bf1f09b10e35d580500f55c5971295210602763951292762a065cc0fd8"),
    "non-overlapping 4x4": (
        (2, 3, 16, 16), PoolSpec.square(4, 4), False,
        "26a057ff7751be3c6a77119d9af740baf98716f905082dfcb615716eaee39856",
        "93a875c61847f444727adb72538ba9988e1785e485f48f290e60fead4b54422b"),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_forward_and_backward_bytes_are_frozen(name):
    shape, pool, flat = FROZEN[name][:3]
    assert (window_walk(shape, pool).pad is not None) == flat
    assert_frozen(name)


@pytest.mark.parametrize("name", ["stride 2 padded"])
def test_frozen_strided_bytes_hold_on_the_flat_walk(name):
    """The strided walk's digests hold with the forward and the backward
    patched onto the flat walk, which the junk rule declines here (31%)."""
    shape, pool, flat = FROZEN[name][:3]
    assert not flat and windows._flat_groups(*shape[2:], pool) is not None
    with mock.patch.object(smp, "window_walk", flat_walk):
        assert_frozen(name)


def assert_frozen(name):
    """`smp_forward` and `smp_backward`, on a cache hit and a miss, give the
    FROZEN digests for `name`."""
    shape, pool, _, y_digest, g_digest = FROZEN[name]
    rng = np.random.default_rng(1234)
    x = Tensor(shape, rng.uniform(-1.0, 1.0, shape))
    y = smp_forward(x, pool, UNSAFE4)
    up = Tensor(y.shape, rng.uniform(-1.0, 1.0, y.shape))
    for t in (x, Tensor(shape, x.data)):  # cache hit, then miss
        g = smp_backward(t, pool, UNSAFE4, up)
        assert hashlib.sha256(y.data.tobytes()).hexdigest() == y_digest
        assert hashlib.sha256(g.data.tobytes()).hexdigest() == g_digest


# sha256 of smp_backward bytes on a flat walk of six chunks that split each
# sample's 20 channels 7 + 7 + 6, for the normalizations whose VJP reads
# group terms; inputs, upstreams and the eval-mode running state from
# default_rng(1234). Group means sum with numpy's pairwise float64
# reduction, so unlike FROZEN these pin the bits of that reduction as well.
FROZEN_NORMED_SHAPE, FROZEN_NORMED_POOL = (2, 20, 62, 62), PoolSpec.square(3, 1, 1)
FROZEN_NORMED = {
    "layer order": (
        MomentSpec(n=4, norm="layer"), True,
        "d6fe8b7f0bcbe823ae41d8dbf3dbafb546315515316dd57effcd4e47113de3a5"),
    "layer joint": (
        MomentSpec(n=4, norm="layer", norm_axis="joint"), True,
        "e04ff954604a73ac90a9949302796c2b16d2ab678e32dcdcbe9861d1c57e3f36"),
    "layer location": (
        MomentSpec(n=4, norm="layer", norm_axis="location"), True,
        "523bbf8a9c3094486676cdeede4dca3d140e2e6cdd6e65eb6b54a8611c446288"),
    "max order": (
        MomentSpec(n=4, norm="max"), True,
        "4bf6e11dd52f5ec26d05d506482c5d5a60f0d320b50b071720a7d8cd80487821"),
    "max location n3": (
        MomentSpec(n=3, norm="max", norm_axis="location"), True,
        "759dd20cd5babbcb27dc2f61f268c7e80e204cc58e4b6ce1cbc3af946f1beed5"),
    "batch training": (
        MomentSpec(n=4, norm="batch"), True,
        "cf6c29d43c5f51bd884efc7358e461c1f96cdab32ca13c623927ce646150eb7f"),
    "batch eval": (
        MomentSpec(n=4, norm="batch"), False,
        "6b2aa854826fcdbead76e131afad0980805368e094f89b3087136d825021acc4"),
    "layer standardized": (
        MomentSpec(n=4, norm="layer", standardize_pre_norm=True), True,
        "90e6594f1d5cea432e85a45ebb676c90747ee647066890c924ef8e1a1d824509"),
    "batch standardized": (
        MomentSpec(n=4, norm="batch", standardize_pre_norm=True), True,
        "e0ef09e61e96fcb5141d8d3960067a3f62b926650a8d97b31edf534d3285b967"),
}


@pytest.mark.parametrize("name", list(FROZEN_NORMED))
def test_normalized_backward_bytes_are_frozen(name):
    spec, training, digest = FROZEN_NORMED[name]
    shape, pool = FROZEN_NORMED_SHAPE, FROZEN_NORMED_POOL
    walk = window_walk(shape, pool)
    assert walk.pad is not None and len(walk.chunks) == 6
    rng = np.random.default_rng(1234)
    x = Tensor(shape, rng.uniform(-1.0, 1.0, shape))
    state = None
    if not training:
        k = (spec.n - 2) * shape[1]
        state = BatchNormState(mean=rng.standard_normal(k),
                               var=rng.uniform(0.5, 2.0, k))
    y = smp_forward(x, pool, spec, bn_state=state, training=training)
    up = Tensor(y.shape, rng.uniform(-1.0, 1.0, y.shape))
    for t in (x, Tensor(shape, x.data)):  # cache hit, then miss
        g = smp_backward(t, pool, spec, up, bn_state=state, training=training)
        assert hashlib.sha256(g.data.tobytes()).hexdigest() == digest


@st.composite
def stride_one_cases(draw):
    """Stride-1 geometry with H', W' >= 2, where every strided step is one
    kernel cell, a shape that fits it, n and a seed."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dh, dw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool = PoolSpec(kh, kw, 1, 1, draw(st.integers(0, dh * (kh - 1))),
                    draw(st.integers(0, dw * (kw - 1))), dh, dw)
    h = draw(st.integers(max(1, pool.eff_kernel_h + 1 - 2 * pool.pad_h), 12))
    w = draw(st.integers(max(1, pool.eff_kernel_w + 1 - 2 * pool.pad_w), 12))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), h, w)
    try:
        window_steps(shape, pool)
    except GeometryError:
        reject()  # a dilated window that misses the input has no statistics
    return shape, pool, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(stride_one_cases())
def test_flat_walk_matches_the_strided_walk_bit_for_bit(case):
    """Statistics, output bytes and cell gradients from the flat walk equal
    the strided walk's on any stride-1 geometry, taken or not, with inputs
    of both signs and a few exact zeros; the coefficients carry a -0.0."""
    shape, pool, n, seed = case
    strided = window_steps(shape, pool)
    assert all(len(step.shape) == 4 for step in steps_of(strided))
    flat = flat_walk(shape, pool)
    assert all(np.array_equal(a, b) for a, b in zip(strided.counts, flat.counts))
    x4 = uniform(shape, seed)
    x4[x4 > 0.8] = 0.0
    maps, out = smp._walk_stats(x4, strided, n)
    flat_maps, flat_out = smp._walk_stats(x4, flat, n)
    assert out.tobytes() == flat_out.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(maps, flat_maps))
    poly = uniform((n,) + maps[0].shape, seed + 1)
    poly.reshape(-1)[::7] = -0.0
    g = smp._cell_grads(x4, strided, maps[0], ready(poly))
    assert g.tobytes() == smp._cell_grads(x4, flat, maps[0], ready(poly)).tobytes()


@st.composite
def strided_cases(draw):
    """Geometry at strides 1-3, dilation 1-3, with rectangular kernels and
    padding, whose strided runs hold at most two cells per axis (stride <=
    2 * dilation), that `flat_walk` takes, a shape that fits it, n and a
    seed."""
    def axis():
        d = draw(st.integers(1, 3))
        return draw(st.integers(1, 4)), draw(st.integers(1, min(3, 2 * d))), d

    row, col = axis(), axis()
    if draw(st.booleans()):  # square: 2x2 runs as often as runs of two
        col = row
    (kh, sh, dh), (kw, sw, dw) = row, col
    pool = PoolSpec(kh, kw, sh, sw, draw(st.integers(0, dh * (kh - 1))),
                    draw(st.integers(0, dw * (kw - 1))), dh, dw)
    h = draw(st.integers(max(1, pool.eff_kernel_h - 2 * pool.pad_h), 16))
    w = draw(st.integers(max(1, pool.eff_kernel_w - 2 * pool.pad_w), 16))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), h, w)
    try:
        window_steps(shape, pool)
    except GeometryError:
        reject()  # a dilated window that misses the input has no statistics
    if windows._flat_groups(h, w, pool) is None:
        reject()  # as `_flat_groups` says: such steps stay strided
    return shape, pool, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


def phase_plane(shape, pool):
    """Bytes of one phase row of every phase, and phase rows, of a plane's
    phase-major scratch."""
    (h_out, w_out), (halo_h, halo_w) = output_dims(*shape[2:], pool), windows._halo(pool)
    return 8 * pool.stride_h * pool.stride_w * (w_out + halo_w), h_out + halo_h


def walk_bytes(walk, x4, n, seed):
    """The `_walk_stats` maps and output and the `_cell_grads` gradient over
    `walk`, as bytes, for coefficients drawn from `seed` that carry -0.0."""
    maps, out = smp._walk_stats(x4, walk, n)
    poly = uniform((n,) + maps[0].shape, seed)
    poly.reshape(-1)[::7] = -0.0
    g = smp._cell_grads(x4, walk, maps[0], ready(poly))
    return [a.tobytes() for a in maps] + [out.tobytes(), g.tobytes()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(strided_cases(), st.data())
def test_flat_walk_matches_the_strided_walk_at_any_stride(case, data):
    """Maps, output bytes and cell gradients from the flat walk equal the
    strided walk's at strides 1-3, at the default budget and with both walks
    cut at one drawn budget, from one phase row up to three planes: so in
    bands of a few rows, a short last band among them, whose backward
    carries each band's halo rows to the band above."""
    shape, pool, n, seed = case
    x4 = uniform(shape, seed)
    x4[x4 > 0.8] = 0.0
    assert walk_bytes(flat_walk(shape, pool), x4, n, seed + 1) \
        == walk_bytes(window_steps(shape, pool), x4, n, seed + 1)
    row, rows = phase_plane(shape, pool)
    budget = data.draw(st.integers(row, 3 * row * rows), label="budget")
    with mock.patch.object(windows, "_STEP_BYTES", budget):
        walks = flat_walk(shape, pool), window_steps(shape, pool)
    assert walk_bytes(walks[0], x4, n, seed + 1) == walk_bytes(walks[1], x4, n, seed + 1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(strided_cases(), st.data())
def test_phase_walk_makes_each_inbounds_pair_valid_once(case, data):
    """Cut at a drawn budget, so into bands where one plane does not fit,
    a flat walk at any stride makes every in-bounds (window, cell) pair
    valid in exactly one step of one chunk, reading its own cell of the
    phase-major scratch: a step's block is its chunk's grid, every output
    row at W_q columns and the halo rows between planes, and its span, the
    one `_runs` gives its cell, holds exactly the grid's in-bounds pairs. `inv` is 1 / cell count at a chunk's real outputs and NaN past
    the plane's last output row and column, and where one phase row and its
    halo fit the budget, so does the scratch."""
    shape, pool, _, _ = case
    n_s, c_s, h, w = shape
    h_out, w_out = output_dims(h, w, pool)
    row_bytes, rows = phase_plane(shape, pool)
    budget = data.draw(st.integers(row_bytes, 3 * row_bytes * rows), label="budget")
    with mock.patch.object(windows, "_STEP_BYTES", budget):
        walk = flat_walk(shape, pool)
    (ph, pw), (sh, sw, per, hb, wq) = walk.pad, walk.scratch
    if budget >= row_bytes * (1 + walk.halo):
        assert 8 * sh * sw * per * hb * wq <= budget
    assert np.isnan(walk.inv[:, h_out:]).all() and np.isnan(walk.inv[:, :, w_out:]).all()
    phase = per * hb * wq
    counts = np.multiply.outer(*walk.counts)
    visits = np.zeros((n_s * c_s, h_out, w_out, pool.kernel_h, pool.kernel_w), int)
    for planes, groups in walk.chunks:
        start, stop = plane_range(planes[:2], c_s)
        band = planes[2] if len(planes) > 2 else slice(0, h_out)
        r = band.stop - band.start
        grid = (stop - start, r + walk.halo if stop - start > 1 else r, wq)
        plane, out_row, col = np.indices(grid).reshape(3, -1)
        real = (out_row < r) & (col < w_out)
        inv = walk.inv[:grid[0], band.start:band.start + grid[1]].ravel()
        assert np.array_equal(inv[real],
                              1.0 / np.tile(counts[band], (stop - start, 1, 1)).ravel())
        for step in (step for group in groups for step in group):
            assert step.shape == grid and step.strides == (8 * hb * wq, 8 * wq, 8)
            src_phase, src = np.divmod((plane * hb + out_row) * wq + col
                                       + step.offset // 8, phase)
            src_plane, src = np.divmod(src, hb * wq)
            t, u = np.divmod(src, wq)
            (a, b), t = np.divmod(src_phase, sw), t + band.start
            y, x = t * sh + a - ph, u * sw + b - pw
            i, i_rem = np.divmod(t * sh + a - (out_row + band.start) * sh, pool.dilation_h)
            j, j_rem = np.divmod(u * sw + b - col * sw, pool.dilation_w)
            lo, hi, c0, c1 = step.span
            valid = (lo <= out_row) & (out_row < hi) & (c0 <= col) & (col < c1)
            assert step.span == span_of(pool, shape, band, i[0], j[0])
            assert real[valid].all() and (src_plane[valid] == plane[valid]).all()
            assert not i_rem[real].any() and not j_rem[real].any()
            inside = real & (0 <= y) & (y < h) & (0 <= x) & (x < w)
            assert np.array_equal(valid, inside)
            np.add.at(visits, (start + plane[valid], out_row[valid] + band.start,
                               col[valid], i[valid], j[valid]), 1)
    rows = (np.arange(h_out)[:, None] * pool.stride_h
            + np.arange(pool.kernel_h) * pool.dilation_h - pool.pad_h)
    cols = (np.arange(w_out)[:, None] * pool.stride_w
            + np.arange(pool.kernel_w) * pool.dilation_w - pool.pad_w)
    inbounds = (((0 <= rows) & (rows < h))[:, None, :, None]
                & ((0 <= cols) & (cols < w))[None, :, None, :])
    assert np.array_equal(visits, np.broadcast_to(inbounds, visits.shape))


def test_banded_stride_one_plane_keeps_the_strided_bytes():
    """1x3x256x256 3x3 s1 p1, whose padded plane exceeds `_STEP_BYTES`, takes
    the flat walk in bands, and an n=4 layer-norm forward and backward give
    the bytes they give with the walk patched to `window_steps`."""
    shape, pool = (1, 3, 256, 256), PoolSpec.square(3, 1, 1)
    spec = MomentSpec(n=4, norm="layer")
    walk = window_walk(shape, pool)
    assert walk.pad is not None and len(walk.chunks) > shape[1]
    x = Tensor(shape, uniform(shape, 23))
    y_shape = output_shape(shape, pool, spec)
    up = Tensor(y_shape, uniform(y_shape, 24))

    def run():
        y = smp_forward(x, pool, spec)
        return y.data.tobytes(), smp_backward(x, pool, spec, up).data.tobytes()

    flat = run()
    with mock.patch.object(smp, "window_walk", window_steps):
        assert run() == flat


@pytest.mark.parametrize("shape, pool", [
    ((1, 3, 256, 256), PoolSpec.square(3, 2, 1)),
    ((2, 3, 9, 9), PoolSpec.square(3, 2, 1)),
    ((8, 16, 64, 64), PoolSpec.square(3, 2, 1)),
    ((2, 3, 17, 19), PoolSpec(3, 2, 2, 3, 1, 1)),
    ((1, 3, 540, 960), PoolSpec.square(3, 2, 1)),
    ((4, 8, 96, 96), PoolSpec.square(5, 2, 2)),
], ids=["256 s2", "9 s2", "64 s2", "17x19 s2x3", "540x960 s2", "96 5x5 s2"])
def test_flat_walk_keeps_the_strided_bits_at_stride_two(shape, pool):
    """At the strided geometries that a throwaway prototype first timed, the
    flat walk's maps, output and cell gradients, n=4, keep the strided
    walk's bytes: 2x2 runs whole (64x64) or cut by rows (256x256, whose
    chunks are bands)."""
    x4 = uniform(shape, 21)
    assert walk_bytes(flat_walk(shape, pool), x4, 4, 22) \
        == walk_bytes(window_steps(shape, pool), x4, 4, 22)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(stride_one_cases())
def test_flat_walk_makes_each_inbounds_pair_valid_once(case):
    """Every in-bounds (window, cell) pair is valid in exactly one chunk at
    the cell's offset, reading its own cell; a step's block is its chunk's
    padded planes, or one plane's output rows, and its span, the one
    `_runs` gives its cell, holds exactly the in-bounds pairs. `inv` is 1 / cell count at real outputs and
    NaN at junk."""
    shape, pool, _, _ = case
    n_s, c_s, h, w = shape
    h_out, w_out = output_dims(h, w, pool)
    walk = flat_walk(shape, pool)
    ph, pw = walk.pad
    hp, wp = h + 2 * ph, w + 2 * pw
    visits = np.zeros((n_s * c_s, h_out, w_out, pool.kernel_h, pool.kernel_w), int)
    cells = [(i, j) for i in range(pool.kernel_h) for j in range(pool.kernel_w)]
    for planes, groups in walk.chunks:
        start, stop = plane_range(planes, c_s)
        steps = [step for group in groups for step in group]
        assert len(steps) == len(cells)
        grid = (stop - start, hp if stop - start > 1 else h_out, wp)
        assert all(step.shape == grid and step.strides == (8 * hp * wp, 8 * wp, 8)
                   for step in steps)
        plane, row, col = np.indices(grid).reshape(3, -1)
        real = (row < h_out) & (col < w_out)
        inv = walk.inv[:stop - start, :grid[1]].ravel()
        assert np.isnan(inv[~real]).all()
        np.testing.assert_array_equal(
            inv[real], np.tile(1.0 / np.multiply.outer(*walk.counts).ravel(), stop - start))
        for (i, j), step in zip(cells, steps):
            lo, hi, c0, c1 = step.span
            assert step.span == span_of(pool, shape, slice(0, h_out), i, j)
            valid = (lo <= row) & (row < hi) & (c0 <= col) & (col < c1)
            src_plane, src = np.divmod((plane * hp + row) * wp + col + step.offset // 8,
                                       hp * wp)
            y, x = np.divmod(src, wp)
            y, x = y - ph, x - pw
            assert real[valid].all() and (src_plane[valid] == plane[valid]).all()
            assert np.array_equal(y[valid], row[valid] + i * pool.dilation_h - ph)
            assert np.array_equal(x[valid], col[valid] + j * pool.dilation_w - pw)
            inside = real & (0 <= y) & (y < h) & (0 <= x) & (x < w)
            assert np.array_equal(valid, inside)
            at = (start + plane[valid], row[valid], col[valid], i, j)
            np.add.at(visits, at, 1)
    rows = (np.arange(h_out)[:, None] + np.arange(pool.kernel_h) * pool.dilation_h
            - pool.pad_h)
    cols = (np.arange(w_out)[:, None] + np.arange(pool.kernel_w) * pool.dilation_w
            - pool.pad_w)
    inbounds = (((0 <= rows) & (rows < h))[:, None, :, None]
                & ((0 <= cols) & (cols < w))[None, :, None, :])
    assert np.array_equal(visits, np.broadcast_to(inbounds, visits.shape))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stride_one_cases(), st.data())
def test_walks_cut_at_small_budgets_match_the_default_strided_walk(case, data):
    """Cut at a budget of one padded row up to four padded planes, so into
    bands of a few rows with a short last one, or into chunks of a few
    planes with a short last one, both walks give the output bytes and cell
    gradients of the strided walk at the default budget, for coefficients
    scaled by the 1 / count rows that `frames` hands each chunk or band."""
    shape, pool, n, seed = case
    x4 = uniform(shape, seed)
    poly = uniform((n,) + shape[:2] + output_dims(*shape[2:], pool), seed + 1)

    def run(walk):
        maps, out = smp._walk_stats(x4, walk, n)
        return out.tobytes(), smp._cell_grads(x4, walk, maps[0], per_count(poly)).tobytes()

    want = run(window_steps(shape, pool))
    row = 8 * (shape[3] + 2 * pool.pad_w)
    plane = row * (shape[2] + 2 * pool.pad_h)
    budget = data.draw(st.integers(row, 4 * plane), label="budget")
    with mock.patch.object(windows, "_STEP_BYTES", budget):
        walks = flat_walk(shape, pool), window_steps(shape, pool)
    assert [run(walk) for walk in walks] == [want, want]


@pytest.mark.parametrize("shape, pool", [
    ((1, 1, 4, 4), PoolSpec.square(3, 1, 1)),
    ((2, 2, 16, 16), PoolSpec.square(3, 1, 1)),
], ids=["strided", "flat"])
def test_huge_constant_pools_and_differentiates_without_warnings(shape, pool):
    """At a constant 1e110 an in-bounds deviation is the rounding of an
    inexact mean, at most about 1e94, while a padding or junk cell's would be
    about 1e110: cubed, only the latter would overflow. Neither walk warns,
    through n=3 statistics and n=4 cell gradients, and both agree."""
    spec = MomentSpec(n=3, norm="none", unsafe_no_norm=True)
    x = Tensor(shape, np.full(shape, 1e110))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = smp_forward(x, pool, spec)
        up = Tensor(y.shape, np.linspace(-1.0, 1.0, y.size))
        g = smp_backward(x, pool, spec, up)
        grads = []
        for builder in (window_steps, flat_walk):
            walk = builder(shape, pool)
            maps, _ = smp._walk_stats(x.nchw, walk, 3)
            poly = uniform((4,) + maps[0].shape, 0)
            grads.append(smp._cell_grads(x.nchw, walk, maps[0], ready(poly)))
    assert np.isfinite(y.data).all() and np.isfinite(g.data).all()
    assert grads[0].tobytes() == grads[1].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cells_spread_alike_on_both_walks(bad):
    """A non-finite cell on a plane's edge reaches exactly the windows that
    hold it on both walks: the junk and padding pairs next to it add their
    exact zeros, so statistics and gradients keep the same bytes."""
    shape, pool = (2, 2, 16, 16), PoolSpec.square(3, 1, 1)
    x4 = uniform(shape, 8)
    x4[0, 1, 0, 15] = x4[1, 0, 15, 0] = bad
    results = []
    with np.errstate(all="ignore"):
        for builder in (window_steps, flat_walk):
            walk = builder(shape, pool)
            maps, out = smp._walk_stats(x4, walk, 4)
            poly = uniform((4,) + maps[0].shape, 9)
            results.append((out.tobytes(),
                            smp._cell_grads(x4, walk, maps[0], ready(poly)).tobytes()))
    assert results[0] == results[1]
    assert np.isfinite(np.frombuffer(results[0][0])).mean() > 0.9


def walked(builder, pool, x4, n, seed, fill=ready):
    """The `_walk_stats` output and the `_cell_grads` gradient, for the
    builder that `fill` makes of coefficients drawn from `seed`, on the walk
    that `builder` makes for `x4`, and the messages of the RuntimeWarnings
    they raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        walk = builder(x4.shape, pool)
        maps, out = smp._walk_stats(x4, walk, n)
        g = smp._cell_grads(x4, walk, maps[0], fill(uniform((n,) + maps[0].shape, seed)))
    return out, g, {str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)}


@pytest.mark.parametrize("shape, pool, n, cells, quiet", [
    *(pytest.param((2, 2, 16, 16), PoolSpec.square(3, 1, 1), 4,
                   {(0, 1, 0, 15): bad, (1, 0, 15, 0): bad}, False, id=str(bad))
      for bad in (np.nan, np.inf, -np.inf)),
    # cells that no window holds together, but a flat walk's junk window
    # does: one that runs off a row's end into the next row, and one that
    # runs off a plane's last row into the next plane
    pytest.param((2, 2, 16, 16), PoolSpec.square(2, 1, 0), 1,
                 {(0, 0, 3, 15): np.inf, (0, 0, 4, 0): -np.inf}, True, id="row wrap"),
    pytest.param((1, 2, 16, 16), PoolSpec.square(2, 1, 0), 1,
                 {(0, 0, 15, 4): np.inf, (0, 1, 0, 4): -np.inf}, True, id="plane wrap"),
    # two cells that a flat group pairs at a junk output past the last output
    # column, and no window holds together: columns 15 and 17 of 18, which
    # the last windows, reading columns 12, 14, 16, step between
    *(pytest.param((1, 1, 20, 18), PoolSpec(3, 3, 1, 3, 1, 0, 1, 2), n,
                   {(0, 0, 5, 15): np.inf, (0, 0, 5, 17): -np.inf}, True,
                   id=f"junk pair n={n}") for n in (1, 4)),
    # a window's pair of kernel rows, one strided block of 2x1 cells
    pytest.param((1, 1, 2, 4), PoolSpec(2, 4, 2, 1, 0, 2, 1, 2), 1,
                 {(0, 0, 0, 0): np.inf, (0, 0, 1, 0): -np.inf}, False, id="real pair"),
])
def test_non_finite_cells_warn_alike_on_both_walks(shape, pool, n, cells, quiet):
    """The same non-finite cells raise the same RuntimeWarnings on both
    walks, and none where no window holds two of them: a flat walk's junk
    output, whose sums start at NaN and whose pairs of cells are summed from
    the first less that start, adds none of its own."""
    x4 = uniform(shape, 8)
    for cell, bad in cells.items():
        x4[cell] = bad
    messages = [walked(builder, pool, x4, n, 9)[2] for builder in (window_steps, flat_walk)]
    assert messages[0] == messages[1]
    assert not quiet or messages[0] == set()


def test_band_halo_rows_are_junk_that_adds_no_warnings():
    """A band's halo rows hold the first output rows of the band below, and
    are junk in it, so its steps stop at its last output row: at 3x3 s2 p1
    a halo output's third kernel row would read past its phase, into the
    next phase's first row. In bands of two output rows of 1x1x8x8, +inf at
    input row 0 and -inf at row 3, which no window holds together but such
    a halo output would read, raise no RuntimeWarning in n=1 sums on the
    flat walk, as on the strided walk (a deviation from an infinite mean
    would warn on both), and reach the same outputs."""
    shape, pool = (1, 1, 8, 8), PoolSpec.square(3, 2, 1)
    x4 = uniform(shape, 8)
    x4[0, 0, 0, 1], x4[0, 0, 3, 2] = np.inf, -np.inf

    def banded(shape, pool):
        with mock.patch.object(windows, "_STEP_BYTES", 3 * phase_plane(shape, pool)[0]):
            walk = flat_walk(shape, pool)
        assert [planes[2] for planes, _ in walk.chunks] == [slice(2, 4), slice(0, 2)]
        return walk

    strided, flat = (walked(builder, pool, x4, 1, 9) for builder in (window_steps, banded))
    assert strided[2] == flat[2] == set()
    for a, b in zip(strided[:2], flat[:2]):
        for where in (np.isnan, np.isposinf, np.isneginf):
            assert np.array_equal(where(a), where(b))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stride_one_cases(), st.data())
def test_non_finite_cells_reach_the_same_outputs_with_the_same_warnings(case, data):
    """1-3 cells of +-inf or NaN, each leaning to cancel the one before,
    among those that a junk window of the flat walk's row layout reads (it
    may run off a row's or a plane's end), raise the same RuntimeWarnings on
    both walks and leave NaN, +inf and -inf at the same places of the output
    and the gradient. Bytes are not compared: IEEE 754 leaves the sign bit
    of a NaN result unspecified."""
    shape, pool, n, seed = case
    planes, h, w = shape[0] * shape[1], shape[2], shape[3]
    hp, wp = h + 2 * pool.pad_h, w + 2 * pool.pad_w
    h_out, w_out = output_dims(h, w, pool)
    junk = [(r, c) for r in range(hp) for c in range(wp) if r >= h_out or c >= w_out]
    # a 1x1 kernel leaves no junk output, and its first output stands in
    r, c = data.draw(st.sampled_from(junk or [(0, 0)]), label="junk output")
    at = (data.draw(st.integers(0, planes - 1), label="plane") * hp + r) * wp + c
    reads = []
    for i, j in itertools.product(range(pool.kernel_h), range(pool.kernel_w)):
        plane, rest = divmod(at + i * pool.dilation_h * wp + j * pool.dilation_w, hp * wp)
        y, x = rest // wp - pool.pad_h, rest % wp - pool.pad_w
        if plane < planes and 0 <= y < h and 0 <= x < w:
            reads.append((plane, y, x))
    if not reads:
        reject()  # a window of padding alone
    x4 = uniform(shape, seed)
    value = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    for cell in data.draw(st.permutations(reads))[:data.draw(st.integers(1, 3))]:
        x4.reshape(planes, h, w)[cell] = value
        value = data.draw(st.sampled_from([-value, np.nan, value]))
    strided, flat = (walked(builder, pool, x4, n, seed + 1)
                     for builder in (window_steps, flat_walk))
    assert strided[2] == flat[2]
    for a, b in zip(strided[:2], flat[:2]):
        for where in (np.isnan, np.isposinf, np.isneginf):
            assert np.array_equal(where(a), where(b))


def assert_junk_reads_alike(case, data, chunk=0, fill=ready):
    """Put 1-3 cells of +-inf or NaN among those that one junk output of the
    flat walk's `chunk` reads through its steps, one offset each, and assert
    that both walks raise the same RuntimeWarnings and leave NaN, +inf and
    -inf at the same places of the output and of the gradient that `fill`'s
    coefficients give."""
    shape, pool, n, seed = case
    walk = flat_walk(shape, pool)
    (ph, pw), (sh, sw, per, hb, wq) = walk.pad, walk.scratch
    h_out, w_out = output_dims(*shape[2:], pool)
    planes, groups = walk.chunks[chunk]
    (samples, channels), band = planes[:2], (*planes[2:], slice(0, h_out))[0]
    plane, row, col = np.indices(groups[0][0].shape).reshape(3, -1)
    junk = ((plane * hb + row) * wq + col)[(row >= band.stop - band.start) | (col >= w_out)]
    if not junk.size:
        reject()  # no junk output to read through
    at = int(data.draw(st.sampled_from(list(junk)), label="junk output"))
    reads, per_sample = [], channels.stop - channels.start
    for step in (step for group in groups for step in group):
        phase, rest = divmod(at + step.offset // 8, per * hb * wq)
        plane, (t, u) = rest // (hb * wq), divmod(rest % (hb * wq), wq)
        y, x = (band.start + t) * sh + phase // sw - ph, u * sw + phase % sw - pw
        if (phase < sh * sw and plane < windows._planes(planes[:2])
                and 0 <= y < shape[2] and 0 <= x < shape[3]):
            sample, channel = divmod(plane, per_sample)
            reads.append(((samples.start + sample) * shape[1] + channels.start + channel,
                          y, x))
    if not reads:
        reject()  # a window of padding alone
    x4 = uniform(shape, seed)
    value = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    for cell in data.draw(st.permutations(reads))[:data.draw(st.integers(1, 3))]:
        x4.reshape(-1, *shape[2:])[cell] = value
        value = data.draw(st.sampled_from([-value, np.nan, value]))
    strided, flat = (walked(builder, pool, x4, n, seed + 1, fill)
                     for builder in (window_steps, flat_walk))
    assert strided[2] == flat[2]
    for a, b in zip(strided[:2], flat[:2]):
        for where in (np.isnan, np.isposinf, np.isneginf):
            assert np.array_equal(where(a), where(b))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(strided_cases(), st.data())
def test_non_finite_cells_reach_the_same_outputs_at_any_stride(case, data):
    """As `..._with_the_same_warnings` at strides 1-3, through
    `assert_junk_reads_alike`: 1-3 cells of +-inf or NaN among those that
    one junk output of the flat walk's first chunk reads through its steps,
    one offset each, raise the same RuntimeWarnings on both walks and leave
    NaN, +inf and -inf at the same places of the output and the gradient."""
    assert len(flat_walk(*case[:2]).chunks[0][0]) == 2  # whole planes: no band
    assert_junk_reads_alike(case, data)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(strided_cases(), st.data())
def test_non_finite_cells_reach_the_same_outputs_in_bands_and_small_chunks(case, data):
    """As `..._at_any_stride`, with both walks cut at a budget of one phase
    row up to four phase planes, and through any chunk: a band's junk
    outputs lie past its last output column only. The coefficients are
    scaled by the 1 / count rows that `frames` hands a builder, which a band
    takes from its rows of the walk's `inv`."""
    row, rows = phase_plane(*case[:2])
    budget = data.draw(st.integers(row, 4 * row * rows), label="budget")
    with mock.patch.object(windows, "_STEP_BYTES", budget):
        chunks = len(flat_walk(*case[:2]).chunks)
        assert_junk_reads_alike(case, data, data.draw(st.integers(0, chunks - 1),
                                                      label="chunk"), per_count)


@pytest.mark.parametrize("shape, pool, flat", [
    ((4, 8, 96, 96), PoolSpec.square(5, 3, 1), False),  # overlapping 3-cell runs
    ((4, 8, 32, 32), PoolSpec.square(3, 1, 1), True),
], ids=["strided", "flat"])
def test_cached_backward_copies_no_upstream_and_no_mean_map(shape, pool, flat):
    """A cached n=2 backward holds its gradient, the two coefficient maps
    and the walk's working buffers, with room for numpy's own; a copy of the
    upstream or of the mean map, strided in the output for N > 1, would
    push it past the bound."""
    spec = MomentSpec(n=2)
    x = Tensor(shape, uniform(shape, 3))
    y = smp_forward(x, pool, spec)
    up = Tensor(y.shape, uniform(y.shape, 4))
    smp_backward(x, pool, spec, up)  # warm: the walk is cached per geometry
    walk = window_walk(shape, pool)
    assert (walk.pad is not None) == flat
    if flat:  # input, mean, coefficients, padded grad, dev, g
        per = max(np.prod([s.stop - s.start for s in ch]) for ch, _ in walk.chunks)
        padded = np.add(shape[2:], np.multiply(2, walk.pad))
        work = 8 * (5 * per * np.prod(padded) + 2 * run_length(walk))
    else:  # the deviation and the cell gradient of the largest step
        work = 2 * 8 * max(np.prod(step.shape) for step in steps_of(walk))
    bound = x.data.nbytes + y.data.nbytes + work
    tracemalloc.start()
    try:
        smp_backward(x, pool, spec, up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound + y.data.nbytes // 4


def test_streamed_backward_builds_no_full_size_map():
    """A cached n=4 layer-norm backward on a flat walk whose chunks split each
    sample's channels holds the gradient, one chunk's padded scratch (the
    mean, four coefficient maps, the input and the gradient) and working
    buffers, in which the coefficients are built, and the per-group terms,
    with room for numpy's own. A full-size VJP result or coefficient array,
    or chunk-sized temporaries of the coefficient builder, would push it
    past the bound."""
    shape, pool = FROZEN_NORMED_SHAPE, FROZEN_NORMED_POOL
    spec = MomentSpec(n=4, norm="layer")
    x = Tensor(shape, uniform(shape, 5))
    y = smp_forward(x, pool, spec)
    up = Tensor(y.shape, uniform(y.shape, 6))
    smp_backward(x, pool, spec, up)  # warm: the walk is cached per geometry
    walk = window_walk(shape, pool)
    per = max(np.prod([s.stop - s.start for s in ch]) for ch, _ in walk.chunks)
    assert walk.pad is not None and per < shape[1]
    padded = np.add(shape[2:], np.multiply(2, walk.pad))
    scratch = 8 * (7 * per * np.prod(padded) + 2 * run_length(walk))
    terms = 8 * 3 * shape[0] * (spec.n - 2)
    bound = x.data.nbytes + scratch + terms
    tracemalloc.start()
    try:
        smp_backward(x, pool, spec, up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound + x.data.nbytes // 4


def test_standardized_backward_adds_two_chunk_maps():
    """A cached n=4 layer-norm backward on dense 8x16x64x64 at 3x3 s1 p1
    peaks with `standardize_pre_norm` above the same backward without it by
    at most two of a chunk's maps, the m2 term and sigma^p + eps, built with
    `out=` (sigma sits in a work buffer), two of numpy's 8192-element ufunc
    buffers, which adding the term into order 2's strided slot takes, and
    16 KiB for numpy's own. A fresh sigma and sigma^p + eps for each order
    would push it past."""
    shape, pool = (8, 16, 64, 64), PoolSpec.square(3, 1, 1)
    x = Tensor(shape, uniform(shape, 5))
    peaks = []
    for flag in (False, True):
        spec = MomentSpec(n=4, norm="layer", standardize_pre_norm=flag)
        y = smp_forward(x, pool, spec)
        up = Tensor(y.shape, uniform(y.shape, 6))
        smp_backward(x, pool, spec, up)  # warm: the walk is cached per geometry
        tracemalloc.start()
        try:
            smp_backward(x, pool, spec, up)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    walk = window_walk(shape, pool)
    per = max(np.prod([s.stop - s.start for s in ch]) for ch, _ in walk.chunks)
    chunk_map = 8 * per * walk.counts[0].size * walk.counts[1].size
    assert walk.pad is not None and per < shape[1]
    assert peaks[1] <= peaks[0] + 2 * chunk_map + 2 * 8 * 8192 + (16 << 10)


def test_banded_backward_holds_no_plane_beyond_its_gradient():
    """A cached n=4 layer-norm backward on 1x1x600x600 at 3x3 s1 p1, a flat
    walk in bands of one plane, holds less than one plane beyond its
    gradient at any time: the band's scratch, 1 / count rows and work pair,
    and before the gradient is made, the VJP's u * y of one norm group (one
    plane here). A whole-plane 1 / count or work pair would push it past."""
    shape, pool = (1, 1, 600, 600), PoolSpec.square(3, 1, 1)
    spec = MomentSpec(n=4, norm="layer")
    x = Tensor(shape, uniform(shape, 5))
    y = smp_forward(x, pool, spec)
    up = Tensor(y.shape, uniform(y.shape, 6))
    smp_backward(x, pool, spec, up)  # warm: the walk is cached per geometry
    walk = window_walk(shape, pool)
    assert walk.pad is not None and len(walk.chunks) > 1
    tracemalloc.start()
    try:
        smp_backward(x, pool, spec, up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.data.nbytes


def test_cached_banded_walk_holds_its_inv_and_no_mask():
    """A 1x3x540x960 3x3 s1 p1 flat walk, in bands of one plane, holds its
    1 / count plane (3.98 MiB) and at most 128 KiB of steps beside it: a
    step's valid pairs are a span of its grid. A whole-plane mask of
    invalid pairs per group, nine of them, would hold 4.5 MiB more."""
    shape, pool = (1, 3, 540, 960), PoolSpec.square(3, 1, 1)
    assert window_walk(shape, pool).pad is not None
    tracemalloc.start()
    try:
        walk = flat_walk(shape, pool)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(walk.chunks) > shape[1]
    assert held <= walk.inv.nbytes + (128 << 10)


@pytest.mark.parametrize("norm", ["layer", "max"])
def test_forward_holds_the_output_one_raw_map_and_one_chunk(norm):
    """An n=4 forward on a flat walk whose chunks split each sample's
    channels holds its output, the one raw map its backward reads (m3) and
    one chunk's padded scratch (four sums, the input) and working buffers,
    with room for numpy's own; the normalization's reductions run over
    chunks of samples no larger than a map. A full-size variance or |x|
    temporary, or the n maps held while they are stacked into the output,
    would push it past the bound."""
    shape, pool = FROZEN_NORMED_SHAPE, FROZEN_NORMED_POOL
    spec = MomentSpec(n=4, norm=norm)
    x = Tensor(shape, uniform(shape, 5))
    y = smp_forward(x, pool, spec)  # warm: the walk is cached per geometry
    walk = window_walk(shape, pool)
    per = max(np.prod([s.stop - s.start for s in ch]) for ch, _ in walk.chunks)
    assert walk.pad is not None and per < shape[1]
    padded = np.add(shape[2:], np.multiply(2, walk.pad))
    scratch = 8 * (5 * per * np.prod(padded) + 2 * run_length(walk))
    raw = y.data.nbytes // spec.n
    bound = y.data.nbytes + raw + scratch
    tracemalloc.start()
    try:
        smp_forward(x, pool, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound + raw // 4


@pytest.mark.parametrize("shape, cells", [
    ((1, 3, 256, 256), 2),
    ((8, 16, 64, 64), 4),
], ids=["pairs in bands", "2x2 groups"])
def test_strided_flat_forward_holds_no_group_shaped_scratch(shape, cells):
    """An unsaved n=4 layer-norm forward at 3x3 s2 p1, on a flat walk whose
    largest groups hold `cells` cells (the CLI `pool` geometry first), holds
    its output, one chunk's staged input and four sums, and a deviation and
    a square run of the chunk's outputs up to its last real one per cell of
    a group, with 32 KiB for numpy's and Python's own and for the work
    buffers' and the scratch's few rows past that. A group's deviations and
    squares made as block-shaped arrays, with their kernel-row sums, would
    push it past."""
    pool, spec = PoolSpec.square(3, 2, 1), MomentSpec(n=4, norm="layer")
    x = Tensor(shape, uniform(shape, 5))
    y = smp_forward(x, pool, spec, save=False)  # warm: the walk is cached
    walk = window_walk(shape, pool)
    assert walk.pad is not None and max(map(len, walk.chunks[0][1])) == cells
    sh, sw, per, rows, cols = walk.scratch
    bound = y.data.nbytes + 8 * ((sh * sw + spec.n) * per * rows * cols
                                 + 2 * cells * run_length(walk))
    tracemalloc.start()
    try:
        smp_forward(x, pool, spec, save=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound + (32 << 10)


def test_strided_plane_chunks_bound_the_large_plane_peaks():
    """On 4x16384 planes, which stay strided because a third of the flat
    walk's outputs would be junk, each strided chunk is one plane of 65,536
    outputs. An n=4 layer-norm forward holds its output (6 MiB), the raw
    m3 its backward reads (1.5 MiB), one plane's step buffers and the
    normalization's group temporaries; forward plus backward adds the
    gradient and one plane's coefficient maps. Maps of all planes, stacked
    into the output or built as coefficients, would push the peaks past
    their bounds, to 12.00 and 18.51 MiB."""
    shape, pool = (1, 3, 4, 16384), PoolSpec.square(3, 1, 1)
    spec = MomentSpec(n=4, norm="layer")
    x = Tensor(shape, uniform(shape, 5))
    y = smp_forward(x, pool, spec)
    up = Tensor(y.shape, uniform(y.shape, 6))
    smp_backward(x, pool, spec, up)  # warm: the walk is cached per geometry
    walk = window_walk(shape, pool)
    assert walk.pad is None and len(walk.chunks) == 3

    def forward_backward():
        smp_forward(x, pool, spec)
        smp_backward(x, pool, spec, up)

    peaks = []
    for run in (lambda: smp_forward(x, pool, spec), forward_backward):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 11.0 and peaks[1] <= 16.5
