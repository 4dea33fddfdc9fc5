"""momentpool benchmark: one workload, one process, one thread, closed loop.

    python3 momentbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; momentpool is imported from its
`src/` directory. Workloads and the metrics they report are listed in
BENCHMARK.json; the per-layer to end-to-end mapping is `tracing.MOVES`.

--trace 0 measures the end-to-end metrics with nothing wrapped:
  setup_s         median over 7 fresh processes of import, input
                  generation and the first item
  peak_mib        tracemalloc peak over one item, in its own untimed pass
  latency_p90_ms  p90 of the item times, linearly interpolated; the
                  percentile is fixed so that every run reads the same one,
                  and the detail line states the sample count and how many
                  samples lie beyond it
  ok_frac         items whose outputs were correct / items attempted
The detail line also carries the mean throughput and the median item
time, which are not gated. On a shared host the item time wanders by up
to 2x over tens of seconds as neighbours come and go; the contended end of
that range is the same from run to run and the quiet end is not, so the
mean and the median swing with how long the host happened to be
quiet during a run, while p90 sits at the contended end.
--trace 1 alternates untraced and traced items in one loop, and reports the
per-layer metrics per traced item; trace.overhead_frac compares the two
interleaved sets. Spans go to momentbench/out/.

The last stdout line is the result JSON; the line before it is a detail
record with sample counts, the machine, the counters that are computed
rather than measured, and the limits of what this benchmark can see.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
LIMITS = [
    "bytes are computed from array and file sizes, not measured",
    "no hardware counters are read",
    "machine-wide tracing is not allowed; spans come from wrappers in this process",
    "item times drift over hours on a shared host, so comparisons must "
    "interleave runs of the parent and the change (compare.py)",
]


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def import_program():
    sys.path.insert(0, SRC)
    try:
        import momentpool
        import momentpool.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        raise BenchError(f"cannot import momentpool from {SRC}: {exc}") from exc
    where = os.path.dirname(os.path.abspath(momentpool.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise BenchError(f"momentpool was imported from {where}, not {SRC}")
    return momentpool


def setup_probe(name: str, seed: int) -> float:
    """Import, input generation and first item in this fresh process."""
    mp = import_program()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        w = workloads.make(name, mp, seed, tmp)
        w.outputs(w.run())
    return time.perf_counter() - _T0


def measure_setup(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def timed_loop(w, seconds: float, ref, around=None):
    """Run items until `seconds` pass; returns (item times, failures, errors).

    `around(i)`, if given, returns a context manager that is entered before
    item i's clock starts and left after it stops; outputs are checked
    outside it.
    """
    times, failed, errors = [], 0, []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        raw, err = None, None
        with around(len(times)) if around else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                raw = w.run()
            except Exception as exc:  # an item that raises counts as failed
                err = exc
            t1 = time.perf_counter()
        times.append(t1 - t0)
        try:
            ok = err is None and workloads.same(w.outputs(raw), ref)
        except Exception as exc:
            ok, err = False, exc
        if err is not None:
            errors.append(repr(err))
        if not ok:
            failed += 1
    return times, failed, errors[:3]


def p90(times: list[float]) -> tuple[float, int]:
    """(p90 of the item times, number of samples above it)."""
    if len(times) < 2:
        return times[0], 0
    value = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return value, sum(t > value for t in times)


def peak_pass(w):
    """(tracemalloc peak in MiB, outputs) of one item."""
    tracemalloc.start()
    try:
        out = w.outputs(w.run())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / float(1 << 20), out


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def machine_record(input_bytes: int) -> dict:
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": _cache_sizes(),
        "input_bytes": input_bytes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(args) -> dict:
    mp = import_program()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        w = workloads.make(args.workload, mp, args.seed, tmp)
        ref = w.outputs(w.run())
        problems = w.check(ref)
        detail["check_problems"] = problems
        first_failed = int(bool(problems))
        detail["machine"] = machine_record(w.input_bytes)

        if args.trace:
            tracer = tracing.Tracer(mp)
            with tracer:
                tracer.peaks = True
                try:
                    _, peak_out = peak_pass(w)
                finally:
                    tracer.peaks = False
            peaks = {n: tracing.peak_mib(tracer, n)
                     for n in ("smp.forward", "grad.backward")}
            tracer.reset()

            def around(i):
                """Odd items run traced, even items untraced."""
                if i % 2 == 0:
                    return contextlib.nullcontext()
                tracer.item = i
                return tracer
            times, failed, errors = timed_loop(w, args.seconds, ref, around)
            failed += first_failed + (not workloads.same(peak_out, ref))
            attempted = len(times) + 2
            base_times, traced_times = times[0::2], times[1::2]
            overhead = (1.0 - (len(traced_times) / sum(traced_times))
                        / (len(base_times) / sum(base_times))) if traced_times else 0.0
            metrics = tracing.layer_metrics(tracer.spans, max(1, len(traced_times)),
                                            peaks, overhead)
            units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            detail.update(traced_items=len(traced_times), untraced_items=len(base_times),
                          spans=len(tracer.spans), spans_file=os.path.relpath(spans_path, ROOT),
                          missing_names=tracer.missing, uncounted=sorted(tracer.uncounted),
                          computed=tracing.COMPUTED, moves=tracing.MOVES)
        else:
            peak, peak_out = peak_pass(w)
            times, failed, errors = timed_loop(w, args.seconds, ref)
            failed += first_failed + (not workloads.same(peak_out, ref))
            attempted = len(times) + 2
            p90_s, beyond = p90(times)
            metrics = {
                "latency_p90_ms": p90_s * 1e3,
                "peak_mib": peak,
                "setup_s": statistics.median(setup),
                "ok_frac": (attempted - failed) / attempted,
            }
            units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
            detail.update(samples=len(times), samples_beyond_p90=beyond,
                          ungated={"throughput_per_s": len(times) / sum(times),
                                   "latency_p50_ms": statistics.median(times) * 1e3},
                          setup_samples_s=setup, fail_frac=failed / attempted)
        detail["item_errors"] = errors
        detail["limits"] = LIMITS

    print(json.dumps({"detail": detail}, separators=(",", ":")))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        if args.seconds is None:
            args.seconds = float(_spec()["run_seconds"])
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
