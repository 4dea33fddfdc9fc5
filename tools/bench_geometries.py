"""Interleaved wall time and traced peak of smp_forward and smp_backward on
the three named geometries, three large stride-1 planes, the CLI's strided
pool geometry and two more at 3x3 stride 2, a 1080p plane at 2x2 stride 2
(whose strided walk builds its 1 / count map), and of the finite-difference
check at the CLI's gradcheck geometry, for one or more source trees.

    python3 tools/bench_geometries.py --tree parent=DIR --tree change=DIR \
        > BENCH_<tag>.json

Each of ROUNDS rounds runs every tree once per geometry, each in a fresh
process with one BLAS thread, in alternating order; a run times REPEATS
warm calls.
Reported per tree and geometry: the median over all timed calls of the
forward, of the unsaved forward (`save=False`, as the CLI `pool` runs it)
and of forward plus backward (on the forward's cache), the median of each
round alone, which shows the drift between rounds, the tracemalloc peak of
one call of each (forward plus backward runs a fresh forward), the memory
that the geometry's cached walk holds and the peak of building it, taken by
tracemalloc around a `window_walk` cache miss, and each tree's git commit
and whether its work tree has changes.
A gradcheck row times one `finite_diff_check` of `check_forward` against
`smp_backward` instead, at 3x3 stride 1, as `momentpool gradcheck` runs it.
Inputs are uniform(-1, 1) from numpy's default_rng(0); the layer is n=4
with layer norm.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

GEOMETRIES = {
    "global 1x3x1080x1920": ((1, 3, 1080, 1920), "global"),
    "dense 8x16x64x64 3x3 s1 p1": ((8, 16, 64, 64), (3, 1, 1)),
    "8x16x64x64 8x8 s8": ((8, 16, 64, 64), (8, 8, 0)),
    "1x3x256x256 3x3 s1 p1": ((1, 3, 256, 256), (3, 1, 1)),
    "1x3x540x960 3x3 s1 p1": ((1, 3, 540, 960), (3, 1, 1)),
    "1x3x1080x1920 3x3 s1 p1": ((1, 3, 1080, 1920), (3, 1, 1)),
    "1x3x256x256 3x3 s2 p1": ((1, 3, 256, 256), (3, 2, 1)),
    "8x16x64x64 3x3 s2 p1": ((8, 16, 64, 64), (3, 2, 1)),
    "1x3x540x960 3x3 s2 p1": ((1, 3, 540, 960), (3, 2, 1)),
    "1x3x1080x1920 2x2 s2": ((1, 3, 1080, 1920), (2, 2, 0)),
    "gradcheck 2x3x8x8 3x3 s1": ((2, 3, 8, 8), "gradcheck"),
    "gradcheck 4x3x8x8 3x3 s1": ((4, 3, 8, 8), "gradcheck"),
}
REPEATS, ROUNDS = 9, 7

CHILD = r"""
import json, sys, time, tracemalloc
import numpy as np
import momentpool as mp
from momentpool.grad import finite_diff_check
from momentpool.smp import check_forward
from momentpool.windows import window_walk
shape, geom, repeats = json.loads(sys.argv[1])
pool = (mp.PoolSpec(shape[2], shape[3]) if geom == "global"
        else mp.PoolSpec.square(3) if geom == "gradcheck"
        else mp.PoolSpec.square(geom[0], geom[1], geom[2]))
window_walk.cache_clear()
tracemalloc.start()
window_walk(tuple(shape), pool)
held, peak = tracemalloc.get_traced_memory()
out = {"walk_held_mib": held / 2**20, "walk_build_peak_mib": peak / 2**20}
tracemalloc.stop()
spec = mp.MomentSpec(n=4, norm="layer")
rng = np.random.default_rng(0)
x = mp.Tensor(tuple(shape), rng.uniform(-1.0, 1.0, tuple(shape)))
y = mp.smp_forward(x, pool, spec)
up = mp.Tensor(y.shape, rng.uniform(-1.0, 1.0, y.shape))
mp.smp_backward(x, pool, spec, up)

def fwd():
    return mp.smp_forward(x, pool, spec)

def fwd_unsaved():
    return mp.smp_forward(x, pool, spec, save=False)

def fwd_bwd():
    fwd()
    mp.smp_backward(x, pool, spec, up)

def gradcheck():
    finite_diff_check(check_forward(x, pool, spec),
                      lambda t, u: mp.smp_backward(t, pool, spec, u), x, up)

timed = ((("gradcheck", gradcheck),) if geom == "gradcheck"
         else (("fwd", fwd), ("fwd_unsaved", fwd_unsaved), ("fwd_bwd", fwd_bwd)))
for name, f in timed:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append((time.perf_counter() - t0) * 1e3)
    tracemalloc.start()
    f()
    out[name] = {"ms": times, "peak_mib": tracemalloc.get_traced_memory()[1] / 2**20}
    tracemalloc.stop()
print(json.dumps(out))
"""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def _revision(src: str) -> dict:
    """The git HEAD of the checkout at `src` and whether its work tree has
    changes, or nulls where `src` is not the root of a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
    found = git("rev-parse", "--show-toplevel", "HEAD")
    if found.returncode or len(lines := found.stdout.split()) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(src):
        return {"commit": None, "dirty": None}
    return {"commit": lines[1], "dirty": bool(git("status", "--porcelain").stdout)}


def run(src: str, shape, geom) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    args = [sys.executable, "-c", CHILD, json.dumps([shape, geom, REPEATS])]
    done = subprocess.run(args, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="NAME=DIR")
    args = ap.parse_args(argv)
    trees = [t.split("=", 1) for t in args.tree]
    runs = {name: {g: [] for g in GEOMETRIES} for name, _ in trees}
    for r in range(ROUNDS):
        for g, (shape, geom) in GEOMETRIES.items():
            for name, src in (trees if r % 2 == 0 else trees[::-1]):
                runs[name][g].append(run(src, shape, geom))
    summary = {name: {} for name in runs}
    for name, per in runs.items():
        for g, rs in per.items():
            row = summary[name][g] = {k: max(one.pop(k) for one in rs) for k in
                                      ("walk_held_mib", "walk_build_peak_mib")}
            for k in rs[0]:
                times = [t for one in rs for t in one[k]["ms"]]
                row[f"{k}_median_ms"] = statistics.median(times)
                row[f"{k}_round_medians_ms"] = [statistics.median(one[k]["ms"])
                                                for one in rs]
                row[f"{k}_peak_mib"] = max(one[k]["peak_mib"] for one in rs)
    result = {
        "command": " ".join(["python3", "tools/bench_geometries.py"]
                            + [f"--tree {name}=<{name} checkout>" for name, _ in trees]),
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "machine": f"{_cpu_model()}, {os.cpu_count()} CPUs, {platform.system()}, "
                   f"Python {platform.python_version()}",
        "trees": {name: _revision(src) for name, src in trees},
        "results": summary,
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
