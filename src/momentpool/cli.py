"""Command-line harness: generate, pool, gradcheck, bench, toytrain.

Exit codes: 0 success, 1 a requested check failed, 2 usage or
configuration error (bad flags, invalid geometry, malformed files).
All JSON reports are single lines with fixed key order, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time

from .grad import finite_diff_check
from .smp import (MomentSpec, NORM_AXES, NORM_KINDS, check_forward, op_cost,
                  output_shape, smp_backward, smp_forward)
from .synth import PATTERNS, make_pattern, uniform_noise
from .tensor import Tensor, TensorFileError, nchw_shape, tensor_read, tensor_write
from .toytrain import ToyTrainConfig, run_toytrain
from .windows import GeometryError, PoolSpec


def _parse_shape(text: str, what: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")
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


def _pool_spec(args, input_hw: tuple[int, int]) -> PoolSpec:
    if args.kernel == "global":
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
    shape = _parse_shape(args.shape, "--shape")
    t = make_pattern(args.pattern, shape, a=args.a, b=args.b, seed=args.seed)
    tensor_write(t, args.out)
    print(f"wrote {args.pattern} tensor {_fmt_shape(shape)} to {args.out}")
    return 0


def _cmd_pool(args) -> int:
    t = tensor_read(args.input)
    x4 = t.nchw
    pool = _pool_spec(args, x4.shape[2:])
    spec = MomentSpec(n=1, norm="none") if args.mode == "sap" else _moment_spec(args)
    out = smp_forward(t, pool, spec, save=False)
    tensor_write(out, args.out)
    print(f"{_fmt_shape(x4.shape)} -> {_fmt_shape(out.shape)}")
    return 0


def _cmd_gradcheck(args) -> int:
    shape = _parse_shape(args.shape, "--shape")
    spec = _moment_spec(args)
    pool = _pool_spec(args, nchw_shape(shape)[2:])
    x = uniform_noise(shape, -1.0, 1.0, args.seed, stream=0)
    up = uniform_noise(output_shape(shape, pool, spec), -1.0, 1.0, args.seed,
                       stream=1)

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
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    shape = _parse_shape(args.shape, "--shape")
    pool = _pool_spec(args, nchw_shape(shape)[2:])
    x = uniform_noise(shape, -1.0, 1.0, args.seed)

    variants = {
        "sap": MomentSpec(n=1, norm="none"),
        "smp2": MomentSpec(n=2, norm="none"),
        "smp4": MomentSpec(n=4, norm="layer"),
    }
    print(f"# bench shape={_fmt_shape(shape)} kernel={args.kernel} "
          f"stride={args.stride} repeats={args.repeats}")
    # one warmup each, then every repeat times each variant once, so a burst
    # of load lands on all variants instead of inflating one variant's block
    outs = {name: smp_forward(x, pool, spec, save=False)
            for name, spec in variants.items()}
    times = {name: [] for name in variants}
    for _ in range(args.repeats):
        for name, spec in variants.items():
            t0 = time.perf_counter_ns()
            smp_forward(x, pool, spec, save=False)
            times[name].append(time.perf_counter_ns() - t0)
    costs = {name: op_cost(shape, pool, spec) for name, spec in variants.items()}
    for name, out in outs.items():
        med = statistics.median(times[name])
        print(f"{name}: out={_fmt_shape(out.shape)} median_ms={med / 1e6:.3f} "
              f"ns_per_out_elem={med / out.size:.1f}")
    wall_ratio = statistics.median(
        t4 / t1 for t4, t1 in zip(times["smp4"], times["sap"]))
    print(f"wall_ratio_smp4_sap={wall_ratio:.2f}")
    ratio = costs["smp4"].extra_vs_sap / costs["smp2"].extra_vs_sap
    print(json.dumps({
        "op_cost": {name: {"mul_add_count": c.mul_add_count,
                           "extra_vs_sap": c.extra_vs_sap}
                    for name, c in costs.items()},
        "extra_ratio_smp4_smp2": ratio,
    }, separators=(",", ":")))
    return 0


def _cmd_toytrain(args) -> int:
    # the parser leaves unset flags out, so ToyTrainConfig's defaults apply
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    if "feature_shape" in flags:
        flags["feature_shape"] = _parse_shape(flags["feature_shape"],
                                               "--feature-shape")
    print(run_toytrain(ToyTrainConfig(**flags)).to_json())
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

    p = sub.add_parser("toytrain", help="seeded training-stability experiment",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--norm", choices=NORM_KINDS)
    p.add_argument("--batch", type=int)
    p.add_argument("--feature-shape")
    p.add_argument("--input-scale", type=float)
    p.add_argument("--eps-norm", type=float)
    p.add_argument("--unsafe-no-norm", action="store_true")
    p.set_defaults(handler=_cmd_toytrain)

    return parser


# main's parser, built once per process; build_parser builds anew
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GeometryError, TensorFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
