"""The benchmark's two workloads.

Each workload builds its inputs from the benchmark seed and exposes:

    run()          one item, the only code inside the timed region
    outputs(raw)   the item's outputs as arrays or bytes, read after timing
    check(outs)    full correctness check of one item's outputs, returning
                   a list of problems (empty when correct)
    input_bytes    size of the inputs the program receives

Every call into momentpool goes through a module attribute looked up at
call time (`self.mp.smp_forward`, `self.mp.cli.main`), so the traced run
can wrap those names from outside the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import reference

ORDER = 4
BATCH = (8, 16, 64, 64)
VJP_TOL = 1e-6
FWD_TOL = 1e-10


def _spec(mp):
    return mp.MomentSpec(n=ORDER, norm="layer")


class TrainStep:
    """One training step, smp_forward plus smp_backward, on a fixed batch
    with 3x3 windows at stride 1 and padding 1."""

    def __init__(self, mp, seed: int):
        rng = np.random.default_rng(seed)
        self.mp = mp
        x = rng.uniform(-1.0, 1.0, BATCH)
        self.pool = mp.PoolSpec.square(3, 1, 1)
        h_out, w_out = mp.output_dims(BATCH[2], BATCH[3], self.pool)
        up_shape = (BATCH[0], ORDER * BATCH[1], h_out, w_out)
        self.spec = _spec(mp)
        self.x = mp.Tensor(BATCH, x)
        self.up = mp.Tensor(up_shape, rng.uniform(-1.0, 1.0, up_shape))
        self.direction = rng.uniform(-1.0, 1.0, BATCH)
        self.input_bytes = x.nbytes

    def run(self):
        y = self.mp.smp_forward(self.x, self.pool, self.spec)
        g = self.mp.smp_backward(self.x, self.pool, self.spec, self.up)
        return y.data, g.data

    def outputs(self, raw):
        return raw

    def reference(self) -> np.ndarray:
        return reference.layer_normed(reference.shifted_moments(self.x.nchw, 3, 1, 1, ORDER))

    def check(self, outs) -> list[str]:
        y, g = outs
        want = self.reference()
        problems = []
        err = reference.max_rel_error(y.reshape(want.shape), want, ORDER)
        if not err <= FWD_TOL:
            problems.append(f"forward rel error {err:.3g} > {FWD_TOL}")

        def forward(arr):
            return self.mp.smp_forward(self.mp.Tensor(BATCH, arr), self.pool,
                                       self.spec).data

        vjp = reference.vjp_rel_error(forward, self.x.nchw, self.up.data,
                                      g, self.direction)
        if not vjp <= VJP_TOL:
            problems.append(f"VJP rel error {vjp:.3g} > {VJP_TOL}")
        return problems


class CliSequence:
    """generate, pool, gradcheck and the pinned toytrain through cli.main."""

    NOISE_SHAPE = (1, 3, 256, 256)

    def __init__(self, mp, seed: int, workdir: str):
        self.mp = mp
        self.noise = os.path.join(workdir, "noise.tensor")
        self.pooled = os.path.join(workdir, "pooled.tensor")
        shape = ",".join(str(s) for s in self.NOISE_SHAPE)
        self.argvs = [
            ["generate", "--pattern", "uniform-noise", "--shape", shape,
             "--a", "-1", "--b", "1", "--seed", str(seed), "--out", self.noise],
            ["pool", "--input", self.noise, "--out", self.pooled,
             "--kernel", "3", "--stride", "2", "--pad", "1",
             "--n", str(ORDER), "--norm", "layer"],
            ["gradcheck", "--shape", "2,3,8,8", "--seed", str(seed),
             "--n", str(ORDER), "--norm", "layer"],
            ["toytrain", "--seed", "17", "--steps", "500", "--lr", "5e-4"],
        ]
        self.input_bytes = 8 * int(np.prod(self.NOISE_SHAPE))

    def run(self):
        codes, texts = [], []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(self.mp.cli.main(argv))
            texts.append(buf.getvalue())
        return codes, texts

    def outputs(self, raw):
        codes, texts = raw
        with open(self.noise, "rb") as fh:
            noise = fh.read()
        with open(self.pooled, "rb") as fh:
            pooled = fh.read()
        return (json.dumps(codes).encode(), noise, pooled,
                texts[2].encode(), texts[3].encode())

    def check(self, outs) -> list[str]:
        codes, noise, pooled, grad_text, train_text = outs
        problems = []
        if json.loads(codes) != [0, 0, 0, 0]:
            return [f"exit codes {codes.decode()}"]
        if not json.loads(grad_text)["passed"]:
            problems.append("gradcheck report has passed: false")
        if json.loads(train_text)["step_of_first_nonfinite"] is not None:
            problems.append("toytrain became non-finite")
        x = _payload(noise, self.NOISE_SHAPE)
        if not (x.min() >= -1.0 and x.max() < 1.0):
            problems.append("generated noise outside [-1, 1)")
        want = reference.layer_normed(reference.shifted_moments(x, 3, 2, 1, ORDER))
        err = reference.max_rel_error(_payload(pooled, want.shape), want, ORDER)
        if not err <= FWD_TOL:
            problems.append(f"pooled file rel error {err:.3g} > {FWD_TOL}")
        return problems


def _payload(raw: bytes, shape) -> np.ndarray:
    """Decode a tensor file written by the CLI: one JSON line, then f64 LE."""
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    if tuple(header["shape"]) != tuple(shape):
        raise ValueError(f"tensor file shape {header['shape']} != {list(shape)}")
    return np.frombuffer(raw[newline + 1:], dtype="<f8").reshape(shape)


NAMES = ("train-dense", "cli-seeded")


def make(name: str, mp, seed: int, workdir: str):
    if name == "train-dense":
        return TrainStep(mp, seed)
    if name == "cli-seeded":
        return CliSequence(mp, seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def same(a, b) -> bool:
    """Bit-identical comparison of two outputs() tuples."""
    if len(a) != len(b):
        return False
    for p, q in zip(a, b):
        if isinstance(p, bytes):
            if p != q:
                return False
        elif p.shape != q.shape or not np.array_equal(p.view(np.uint64),
                                                        q.view(np.uint64)):
            return False
    return True
