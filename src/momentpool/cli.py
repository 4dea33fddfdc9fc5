"""Command-line harness: generate, pool, gradcheck, bench, toytrain.

Exit codes: 0 success, 1 a requested check failed, 2 usage or
configuration error (bad flags, invalid geometry, malformed files).
All JSON reports are single lines with fixed key order, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from .grad import check_forward, finite_diff_check, smp_backward
from .rng import Xoshiro256pp
from .smp import MomentSpec, NORM_AXES, NORM_KINDS, op_cost, sap_forward, smp_forward
from .synth import PATTERNS, make_pattern
from .tensor import Tensor, TensorFileError, nchw_shape, tensor_read, tensor_write
from .toytrain import ToyTrainConfig, run_toytrain
from .windows import GeometryError, PoolSpec, output_dims


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"shape must be comma-separated integers, got {text!r}")
    nchw_shape(dims)  # raises unless dims follow the tensor shape rule
    return dims


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            v = int(parts[0])
            return v, v
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise ValueError(f"{what} must be INT or INTxINT, got {text!r}")


def _pool_spec(args, input_hw: tuple[int, int] | None = None) -> PoolSpec:
    if args.kernel == "global":
        if input_hw is None:
            raise ValueError("--kernel global needs an input tensor")
        kh, kw = input_hw
    else:
        kh, kw = _parse_pair(args.kernel, "--kernel")
    sh, sw = _parse_pair(args.stride, "--stride")
    ph, pw = _parse_pair(args.pad, "--pad")
    dh, dw = _parse_pair(args.dilation, "--dilation")
    return PoolSpec(kh, kw, sh, sw, ph, pw, dh, dw)


def _add_geometry_flags(p: argparse.ArgumentParser, kernel_default: str) -> None:
    p.add_argument("--kernel", default=kernel_default,
                   help="window size, INT or INTxINT ('global' = whole input)")
    p.add_argument("--stride", default="1")
    p.add_argument("--pad", default="0")
    p.add_argument("--dilation", default="1")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1, help="highest moment order, 1..4")
    p.add_argument("--norm", choices=NORM_KINDS, default="none",
                   help="normalization for moment orders >= 3")
    p.add_argument("--norm-axis", choices=NORM_AXES, default="order")
    p.add_argument("--eps-norm", type=float, default=1e-5)
    p.add_argument("--standardize-pre-norm", action="store_true")
    p.add_argument("--unsafe-no-norm", action="store_true",
                   help="allow order >= 3 with --norm none")


def _moment_spec(args) -> MomentSpec:
    return MomentSpec(n=args.n, norm=args.norm, eps_norm=args.eps_norm,
                      standardize_pre_norm=args.standardize_pre_norm,
                      norm_axis=args.norm_axis,
                      unsafe_no_norm=args.unsafe_no_norm)


def _fmt_shape(shape) -> str:
    return "x".join(str(s) for s in shape)


def _cmd_generate(args) -> int:
    shape = _parse_shape(args.shape)
    t = make_pattern(args.pattern, shape, a=args.a, b=args.b, seed=args.seed)
    tensor_write(t, args.out)
    print(f"wrote {args.pattern} tensor {_fmt_shape(shape)} to {args.out}")
    return 0


def _cmd_pool(args) -> int:
    t = tensor_read(args.input)
    x4 = t.nchw
    pool = _pool_spec(args, input_hw=(x4.shape[2], x4.shape[3]))
    if args.mode == "sap":
        out = sap_forward(t, pool)
    else:
        out = smp_forward(t, pool, _moment_spec(args))
    tensor_write(out, args.out)
    print(f"{_fmt_shape(x4.shape)} -> {_fmt_shape(out.shape)}")
    return 0


def _cmd_gradcheck(args) -> int:
    shape = _parse_shape(args.shape)
    spec = _moment_spec(args)
    full = nchw_shape(shape)
    pool = _pool_spec(args, input_hw=(full[2], full[3]))
    h_out, w_out = output_dims(full[2], full[3], pool)

    size = int(np.prod(shape))
    x = Tensor(shape, Xoshiro256pp(args.seed, 0).fill_uniform(size, -1.0, 1.0))
    up_shape = (full[0], spec.n * full[1], h_out, w_out)
    up = Tensor(up_shape, Xoshiro256pp(args.seed, 1).fill_uniform(
        int(np.prod(up_shape)), -1.0, 1.0))

    # for max norm this freezes the peak divisor, matching the operator's
    # declared straight-through gradient
    forward = check_forward(x, pool, spec)

    def backward(tt: Tensor, uu: Tensor) -> Tensor:
        g = smp_backward(tt, pool, spec, uu)
        if args.perturb_backward:
            return Tensor(g.shape, g.data * 1.001)
        return g

    report = finite_diff_check(forward, backward, x, up,
                               h=args.step, tol=args.tol)
    print(json.dumps(report.to_dict(), separators=(",", ":")))
    return 0 if report.passed else 1


def _cmd_bench(args) -> int:
    shape = _parse_shape(args.shape)
    full = nchw_shape(shape)
    pool = _pool_spec(args, input_hw=(full[2], full[3]))
    size = int(np.prod(shape))
    x = Tensor(shape, Xoshiro256pp(args.seed, 0).fill_uniform(size, -1.0, 1.0))

    variants = [
        ("sap", None),
        ("smp2", MomentSpec(n=2, norm="none")),
        ("smp4", MomentSpec(n=4, norm="layer")),
    ]
    print(f"# bench shape={_fmt_shape(shape)} kernel={args.kernel} "
          f"stride={args.stride} repeats={args.repeats}")
    costs = {}
    medians = {}
    for name, spec in variants:
        run = (lambda: sap_forward(x, pool)) if spec is None else \
            (lambda spec=spec: smp_forward(x, pool, spec))
        out = run()  # warmup, also gives the output size
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter_ns()
            run()
            times.append(time.perf_counter_ns() - t0)
        med = statistics.median(times)
        medians[name] = med
        cost_spec = spec if spec is not None else MomentSpec(n=1, norm="none")
        costs[name] = op_cost(shape, pool, cost_spec)
        print(f"{name}: out={_fmt_shape(out.shape)} median_ms={med / 1e6:.3f} "
              f"ns_per_out_elem={med / out.size:.1f}")
    print(f"wall_ratio_smp4_sap={medians['smp4'] / medians['sap']:.2f}")
    ratio = costs["smp4"].extra_vs_sap / costs["smp2"].extra_vs_sap
    print(json.dumps({
        "op_cost": {name: {"mul_add_count": c.mul_add_count,
                           "extra_vs_sap": c.extra_vs_sap}
                    for name, c in costs.items()},
        "extra_ratio_smp4_smp2": ratio,
    }, separators=(",", ":")))
    return 0


def _cmd_toytrain(args) -> int:
    cfg = ToyTrainConfig(
        seed=args.seed,
        steps=args.steps,
        lr=args.lr,
        n=args.n,
        norm=args.norm,
        batch=args.batch,
        feature_shape=_parse_shape(args.feature_shape),
        input_scale=args.input_scale,
        eps_norm=args.eps_norm,
        unsafe_no_norm=args.unsafe_no_norm,
    )
    report = run_toytrain(cfg)
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentpool",
        description="moment pooling operators, gradient checks and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic tensor file")
    p.add_argument("--pattern", choices=PATTERNS, required=True)
    p.add_argument("--shape", required=True, help="e.g. 1,3,16,16")
    p.add_argument("--a", type=float, default=1.0, help="primary value / range low")
    p.add_argument("--b", type=float, default=0.0, help="secondary value / range high")
    p.add_argument("--seed", type=int, help="required for uniform-noise")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("pool", help="run pooling on a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("smp", "sap"), default="smp")
    _add_geometry_flags(p, kernel_default="global")
    _add_spec_flags(p)
    p.set_defaults(handler=_cmd_pool)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    p.add_argument("--shape", default="2,3,8,8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--step", type=float, default=1e-6, help="finite-difference step")
    p.add_argument("--perturb-backward", action="store_true",
                   help="corrupt the analytic backward (negative control)")
    _add_geometry_flags(p, kernel_default="3")
    _add_spec_flags(p)
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("bench", help="wall-time and MAC-count comparison")
    p.add_argument("--shape", default="1,8,64,64")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_geometry_flags(p, kernel_default="global")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("toytrain", help="seeded training-stability experiment")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--norm", choices=NORM_KINDS, default="layer")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--feature-shape", default="4,16,16")
    p.add_argument("--input-scale", type=float, default=10.0)
    p.add_argument("--eps-norm", type=float, default=1e-5)
    p.add_argument("--unsafe-no-norm", action="store_true")
    p.set_defaults(handler=_cmd_toytrain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GeometryError, TensorFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
