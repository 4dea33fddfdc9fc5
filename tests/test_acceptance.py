"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`) and enforces both the stated
tolerance and the stated runtime budget.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from momentpool.grad import (
    check_forward,
    finite_diff_check,
    gradient_magnitude_profile,
    smp_backward,
)
from momentpool.smp import MomentSpec, op_cost, sap_forward, smp_forward
from momentpool.synth import checkerboard, solid
from momentpool.tensor import Tensor
from momentpool.toytrain import ToyTrainConfig, run_toytrain
from momentpool.windows import PoolSpec

from childenv import child_env
from oracle import central_moments
from test_smp import naive_forward, random_suite
from test_windows import random_geometry

# pinned stability experiment: establishes divergence for unnormalized
# order 4 at scale 10 while every other variant trains through (lr 5e-4
# is also the toytrain default; 0.05, the default before it, is far above
# the convergence threshold of even the normalized variants on this task)
PINNED_TOYTRAIN = dict(seed=17, steps=500, lr=5e-4, batch=8,
                       feature_shape=(4, 16, 16), input_scale=10.0)


def criterion(num, name, limit_s):
    """Decorator: run the check, print one PASS/FAIL line, enforce budget."""
    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"criterion {num} FAIL ({elapsed:.2f}s): {name}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num} PASS ({elapsed:.2f}s): {name}")
            assert elapsed < limit_s, f"runtime {elapsed:.1f}s over {limit_s}s budget"
        run.__name__ = fn.__name__
        return run
    return wrap


@criterion(1, "order-1 pooling equals average pooling within 1e-12", 10)
def test_criterion_1_sap_equivalence():
    for x, spec in random_suite(42, 100):
        a = smp_forward(x, spec, MomentSpec(n=1, norm="none"))
        b = sap_forward(x, spec)
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)


@criterion(2, "vectorized forward equals per-window recomputation within 1e-12", 30)
def test_criterion_2_oracle_equivalence():
    for x, spec in random_suite(42, 100):
        got = smp_forward(x, spec, MomentSpec(n=4, norm="none",
                                              unsafe_no_norm=True)).nchw
        np.testing.assert_allclose(got, naive_forward(x, spec, 4),
                                   rtol=0, atol=1e-12)


@criterion(3, "equal-mean checkerboard and solid separate above order 1", 1)
def test_criterion_3_checkerboard_separation():
    pool = PoolSpec(3, 3)
    spec = MomentSpec(n=4, norm="none", unsafe_no_norm=True)
    board = smp_forward(checkerboard((1, 1, 3, 3), 1.0, 0.0), pool, spec).data
    flat = smp_forward(solid((1, 1, 3, 3), 5 / 9), pool, spec).data
    assert abs(board[0] - flat[0]) < 1e-12            # identical means
    assert abs(abs(board[1] - flat[1]) - 20 / 81) < 1e-10
    assert abs(board[2] - (-20 / 729)) < 1e-12        # nonzero skew term
    assert abs(board[3] - 3780 / 59049) < 1e-12       # nonzero kurtosis term
    assert flat[1] == flat[2] == flat[3] == 0.0


def _gradient_suite_configs():
    """50 configurations covering every (order, norm) pair three times."""
    rng = np.random.default_rng(13)
    combos = [(n, norm) for n in (1, 2, 3, 4)
              for norm in ("none", "layer", "max", "batch")]
    picks = combos * 3 + [(4, "layer"), (4, "batch")]
    for n, norm in picks:
        n_s = 4 if norm == "batch" else int(rng.integers(1, 3))
        c_s = int(rng.integers(1, 5))
        h = int(rng.integers(4, 13))
        w = int(rng.integers(4, 13))
        pool = random_geometry(rng, h, w)
        spec = MomentSpec(n=n, norm=norm, unsafe_no_norm=True)
        yield (n_s, c_s, h, w), pool, spec, int(rng.integers(0, 2 ** 31))


@criterion(4, "50-configuration finite-difference gradient sweep below 1e-6", 300)
def test_criterion_4_gradient_correctness():
    assert len(list(_gradient_suite_configs())) == 50
    for shape, pool, spec, seed in _gradient_suite_configs():
        rng = np.random.default_rng(seed)
        x = Tensor(shape, rng.uniform(-1, 1, int(np.prod(shape))))
        out = smp_forward(x, pool, spec)
        up = Tensor(out.shape, rng.uniform(-1, 1, out.size))
        report = finite_diff_check(
            check_forward(x, pool, spec),
            lambda t, u, pool=pool, spec=spec: smp_backward(t, pool, spec, u),
            x, up, h=1e-6, tol=1e-6)
        assert report.passed, (shape, pool, spec, report)


@criterion(5, "unnormalized order-4 gradients scale like s^3, layer norm is stable", 30)
def test_criterion_5_gradient_scaling_mechanism():
    pool = PoolSpec.square(4, stride=4)
    rng = np.random.default_rng(97)
    base_vals = rng.uniform(-1, 1, 3 * 144)

    def profile(scale, norm):
        x = Tensor((1, 3, 12, 12), scale * base_vals)
        return gradient_magnitude_profile(x, pool, 4, norm=norm)

    raw1 = profile(1.0, "none")
    for s in (2.0, 10.0):
        raws = profile(s, "none")
        ratio4 = raws[3] / raw1[3]
        ratio2 = raws[1] / raw1[1]
        assert s ** 3 / 2 <= ratio4 <= s ** 3 * 2
        assert s / 2 <= ratio2 <= s * 2
    ln1 = profile(1.0, "layer")
    ln10 = profile(10.0, "layer")
    assert ln10[3] / ln1[3] < 2.0


@criterion(6, "pinned training run: raw order 4 hits NaN, all others finish", 120)
def test_criterion_6_training_stability():
    def run(n, norm, unsafe=False):
        return run_toytrain(ToyTrainConfig(n=n, norm=norm,
                                           unsafe_no_norm=unsafe,
                                           **PINNED_TOYTRAIN))

    raw4 = run(4, "none", unsafe=True)
    assert raw4.step_of_first_nonfinite is not None

    for norm in ("layer", "max"):
        rep = run(4, norm)
        assert rep.step_of_first_nonfinite is None
        assert len(rep.loss_curve) == PINNED_TOYTRAIN["steps"]
        assert rep.final_loss < rep.loss_curve[0]

    for n in (1, 2):
        rep = run(n, "none")
        assert rep.step_of_first_nonfinite is None


@criterion(7, "extra-MAC ratio of order 4 over order 2 pooling is about 3", 1)
def test_criterion_7_cost_ratio():
    shape = (1, 3, 1080, 1920)
    pool = PoolSpec(1080, 1920)  # global pooling, the deployment geometry
    lo = op_cost(shape, pool, MomentSpec(n=2, norm="none")).extra_vs_sap
    hi = op_cost(shape, pool, MomentSpec(n=4, norm="layer")).extra_vs_sap
    assert 2.5 <= hi / lo <= 3.5


@criterion(8, "moment algebra over 1000 seeded windows", 10)
def test_criterion_8_moment_algebra():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        x = rng.uniform(-10, 10, m)
        a = central_moments(x, 4)

        b = central_moments(rng.permutation(x), 4)
        assert (a.m1, a.m2, a.m3, a.m4) == (b.m1, b.m2, b.m3, b.m4)

        c = float(rng.uniform(-5, 5))
        sh = central_moments(x + c, 4)
        assert abs(sh.m1 - a.m1 - c) < 1e-10
        for lhs, rhs in ((sh.m2, a.m2), (sh.m3, a.m3), (sh.m4, a.m4)):
            assert abs(lhs - rhs) < 1e-10

        s = float(rng.uniform(0.5, 2.0))
        sc = central_moments(s * x, 4)
        for i, (lhs, rhs) in enumerate(
                ((sc.m1, a.m1), (sc.m2, a.m2), (sc.m3, a.m3), (sc.m4, a.m4)), 1):
            assert abs(lhs - rhs * s ** i) <= 1e-10 * max(1.0, abs(rhs * s ** i))

        assert a.m2 >= 0.0
        # Cauchy-Schwarz with a one-sided rounding guard: float rounding
        # can flip true-equality cases (two-point windows) by about 1 ulp
        assert a.m4 - a.m2 * a.m2 >= -1e-12 * max(1.0, a.m2 * a.m2)


def _cli(tmp, env_extra, *argv):
    proc = subprocess.run([sys.executable, "-m", "momentpool.cli", *argv],
                          capture_output=True, text=True, cwd=tmp,
                          env=child_env(**env_extra))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@criterion(9, "CLI runs are byte-identical across reruns and thread counts", 120)
def test_criterion_9_cli_determinism():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        gen = ("generate", "--pattern", "uniform-noise", "--shape", "2,3,12,12",
               "--seed", "31", "--a", "-2", "--b", "2", "--out", "in.tensor")
        pool = ("pool", "--input", "in.tensor", "--out", "out.tensor",
                "--kernel", "3", "--stride", "2", "--pad", "1",
                "--n", "4", "--norm", "layer")
        grad = ("gradcheck", "--n", "3", "--norm", "max", "--shape", "1,2,6,6",
                "--seed", "5")
        toy = ("toytrain", "--seed", "3", "--steps", "25", "--lr", "0.0005",
               "--n", "4", "--norm", "layer", "--feature-shape", "2,8,8")
        bench = ("bench", "--shape", "1,2,12,12", "--repeats", "1")

        snapshots = []
        for threads in ("1", "4"):
            env = {"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads}
            gen_out = _cli(tmp, env, *gen)
            pool_out = _cli(tmp, env, *pool)
            snapshots.append((
                gen_out,
                pool_out,
                open(os.path.join(tmp, "in.tensor"), "rb").read(),
                open(os.path.join(tmp, "out.tensor"), "rb").read(),
                _cli(tmp, env, *grad),
                _cli(tmp, env, *toy),
                _cli(tmp, env, *bench).strip().splitlines()[-1],  # cost JSON
            ))
        assert snapshots[0] == snapshots[1]
        report = json.loads(snapshots[0][6])
        assert 2.5 <= report["extra_ratio_smp4_smp2"] <= 3.5
