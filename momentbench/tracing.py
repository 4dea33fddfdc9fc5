"""Spans at momentpool's module boundaries, recorded from outside the package.

The traced run wraps the names one module looks up from another, in the
caller's namespace (for example `momentpool.smp.window_view`, which is the
name `_window_stats` calls). Each span records its name, item, start, end,
parent and one computed work count. Spans stay in memory until the run
ends. A name missing from its module is skipped and listed, so the layer
reports 0 calls instead of crashing; a counter that no longer fits the
wrapped signature reports 0 work and is listed too.

A separate pass with `peaks=True` and tracemalloc running records, for each
span, the traced-memory peak inside the call above the memory held at entry.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from time import perf_counter_ns

MIB = float(1 << 20)


def _x_size(a, k):
    return k.get("x", a[0] if a else None).size


def _norm_vjp_size(a, k):
    return k.get("x", a[1] if len(a) > 1 else None).size


def _tensor_bytes(a, k):
    return a[0].data.nbytes  # `self` after __init__ has run


def _draws(a, k):
    return k.get("count", a[1] if len(a) > 1 else None)


def _offsets(a, k):
    spec = k.get("spec", a[1] if len(a) > 1 else None)
    return spec.kernel_h * spec.kernel_w


def _fd_forwards(a, k):
    x = k.get("x", a[2] if len(a) > 2 else None)
    return 2 + 2 * x.size  # two determinism probes, two per element


def _file_size(a, k):
    path = k.get("path", a[-1])
    return os.path.getsize(path)


# (module, attribute, span name, work counter); the module is a dotted path
# under momentpool, and a class path wraps a method
TARGETS = [
    ("smp", "window_view", "windows.view", None),
    ("normalize", "layer_norm", "normalize.fwd", _x_size),
    ("normalize", "max_norm", "normalize.fwd", _x_size),
    ("normalize", "batch_norm", "normalize.fwd", _x_size),
    ("normalize", "norm_backward", "normalize.vjp", _norm_vjp_size),
    ("normalize", "batch_norm_backward", "normalize.vjp", _x_size),
    ("grad", "_window_stats", "grad.stats", None),
    ("grad", "scatter_windows", "windows.scatter", _offsets),
    ("rng.Xoshiro256pp", "fill_uniform", "rng.fill", _draws),
    ("tensor.Tensor", "__init__", "tensor.init", _tensor_bytes),
    ("cli", "tensor_read", "tensor.io", _file_size),
    ("cli", "tensor_write", "tensor.io", _file_size),
    ("", "smp_forward", "smp.forward", "macs"),
    ("cli", "smp_forward", "smp.forward", "macs"),
    ("grad", "smp_forward", "smp.forward", "macs"),
    ("toytrain", "smp_forward", "smp.forward", "macs"),
    ("", "smp_backward", "grad.backward", None),
    ("cli", "smp_backward", "grad.backward", None),
    ("cli", "finite_diff_check", "grad.fd", _fd_forwards),
    ("cli", "run_toytrain", "toytrain", None),
    ("cli", "main", "cli", None),
]

# per-layer metric -> (end-to-end metric it should move, workloads, note)
MOVES = {
    "windows.view_ms": ("latency_p90_ms", "train-dense", "about 1/4 of the item"),
    "smp.forward_ms": ("latency_p90_ms", "train-dense, cli-seeded", ""),
    "smp.self_ms": ("latency_p90_ms", "train-dense, cli-seeded", ""),
    "smp.macs": ("computed count", "all", "cite as a count, never as a speed-up"),
    "smp.gmac_per_s": ("latency_p90_ms", "train-dense", ""),
    "windows.scatter_ms": ("latency_p90_ms", "train-dense", ""),
    "windows.scatter_offsets": ("computed count", "train-dense", "sum of kh*kw per scatter"),
    "grad.backward_ms": ("latency_p90_ms", "train-dense", ""),
    "grad.stats_ms": ("latency_p90_ms", "train-dense",
                      "backward recomputing the forward statistics"),
    "grad.self_ms": ("latency_p90_ms", "train-dense", "per-window gradient"),
    "smp.peak_mib": ("peak_mib", "train-dense", ""),
    "grad.peak_mib": ("peak_mib", "train-dense", ""),
    "normalize.fwd_ms": ("latency_p90_ms", "train-dense", "flat elsewhere after a norm merge"),
    "normalize.vjp_ms": ("latency_p90_ms", "train-dense", "flat elsewhere after a norm merge"),
    "normalize.elems": ("computed count", "all", ""),
    "rng.ms": ("latency_p90_ms", "cli-seeded", ""),
    "rng.draws": ("computed count", "cli-seeded", "196608 + gradcheck + toytrain draws"),
    "rng.ns_per_draw": ("latency_p90_ms", "cli-seeded", ""),
    "tensor.constructs": ("latency_p90_ms; peak_mib", "cli-seeded; train-dense",
                          "gradcheck copies; output copy"),
    "tensor.bytes_copied": ("latency_p90_ms; peak_mib", "cli-seeded; train-dense", "computed"),
    "tensor.io_ms": ("latency_p90_ms", "cli-seeded", ""),
    "tensor.io_bytes": ("latency_p90_ms", "cli-seeded", "file sizes"),
    "grad.fd_ms": ("latency_p90_ms", "cli-seeded", ""),
    "grad.fd_forwards": ("computed count", "cli-seeded", "2 + 2 per input element"),
    "toytrain.ms": ("latency_p90_ms", "cli-seeded", ""),
    "cli.self_ms": ("latency_p90_ms", "cli-seeded", "argument parsing, synth outside rng"),
    "trace.overhead_frac": ("none", "all", "1 - traced / untraced items per second"),
}

COMPUTED = ["smp.macs", "windows.scatter_offsets", "rng.draws", "tensor.constructs",
            "tensor.bytes_copied", "grad.fd_forwards", "normalize.elems"]


def _resolve(mp, path: str):
    obj = mp
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    def __init__(self, mp):
        self.mp = mp
        self.spans = []          # [name, item, start_ns, end_ns, parent, work]
        self.stack = []
        self.item = -1
        self.peaks = False
        self.peak_stack = []     # [bytes at entry, highest peak seen]
        self.peak_of = {}        # span index -> bytes above entry
        self.missing = []
        self.uncounted = set()
        self._patched = []
        self._macs = {}

    def _macs_of(self, a, k):
        t, pool, spec = a[:3]
        key = (t.shape, pool, spec)
        if key not in self._macs:
            self._macs[key] = self.mp.op_cost(t.shape, pool, spec).mul_add_count
        return self._macs[key]

    def wrap(self, name: str, fn, counter):
        if counter == "macs":
            counter = self._macs_of
        spans, stack = self.spans, self.stack

        def traced(*a, **k):
            sid = len(spans)
            spans.append([name, self.item, 0, 0, stack[-1] if stack else -1, 0])
            stack.append(sid)
            if self.peaks:
                self._peak_enter()
            t0 = perf_counter_ns()
            try:
                return fn(*a, **k)
            finally:
                t1 = perf_counter_ns()
                if self.peaks:
                    self.peak_of[sid] = self._peak_exit()
                stack.pop()
                rec = spans[sid]
                rec[2], rec[3] = t0, t1
                if counter is not None:
                    try:
                        rec[5] = counter(a, k)
                    except (AttributeError, IndexError, TypeError, OSError):
                        self.uncounted.add(name)  # signature changed; count 0

        return traced

    def _peak_enter(self):
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self.peak_stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self.peak_stack.append([cur, cur])

    def _peak_exit(self) -> int:
        frame = self.peak_stack.pop()
        frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
        return frame[1] - frame[0]

    def __enter__(self):
        for path, attr, name, counter in TARGETS:
            owner = _resolve(self.mp, path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                full = ".".join(filter(None, ("momentpool", path, attr)))
                if full not in self.missing:  # entered once per traced item
                    self.missing.append(full)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def reset(self):
        self.spans.clear()
        self.peak_of.clear()

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps([sid] + rec, separators=(",", ":")) + "\n")


def peak_mib(tracer: Tracer, span_name: str) -> float:
    """Largest in-call traced-memory peak of any span with this name."""
    peaks = [b for sid, b in tracer.peak_of.items() if tracer.spans[sid][0] == span_name]
    return max(peaks, default=0) / MIB


def layer_metrics(spans, items: int, peaks: dict, overhead_frac: float) -> dict:
    """Per-item per-layer metrics from the spans of `items` traced items."""
    dur, calls, work, child = {}, {}, {}, [0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child[rec[4]] += rec[3] - rec[2]
    self_ns = {}
    for sid, (name, _, t0, t1, _, w) in enumerate(spans):
        dur[name] = dur.get(name, 0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + w
        self_ns[name] = self_ns.get(name, 0) + (t1 - t0 - child[sid])

    def ms(table, name):
        return table.get(name, 0) / 1e6 / items

    def per_item(table, name):
        return table.get(name, 0) / items

    fwd_s = dur.get("smp.forward", 0) / 1e9
    draws = work.get("rng.fill", 0)
    return {
        "windows.view_ms": ms(dur, "windows.view"),
        "windows.view_calls": per_item(calls, "windows.view"),
        "smp.forward_ms": ms(dur, "smp.forward"),
        "smp.forward_calls": per_item(calls, "smp.forward"),
        "smp.self_ms": ms(self_ns, "smp.forward"),
        "smp.macs": per_item(work, "smp.forward"),
        "smp.gmac_per_s": work.get("smp.forward", 0) / fwd_s / 1e9 if fwd_s else 0.0,
        "windows.scatter_ms": ms(dur, "windows.scatter"),
        "windows.scatter_calls": per_item(calls, "windows.scatter"),
        "windows.scatter_offsets": per_item(work, "windows.scatter"),
        "grad.backward_ms": ms(dur, "grad.backward"),
        "grad.stats_ms": ms(dur, "grad.stats"),
        "grad.self_ms": ms(self_ns, "grad.backward"),
        "smp.peak_mib": peaks["smp.forward"],
        "grad.peak_mib": peaks["grad.backward"],
        "normalize.fwd_ms": ms(dur, "normalize.fwd"),
        "normalize.vjp_ms": ms(dur, "normalize.vjp"),
        "normalize.elems": per_item(work, "normalize.fwd") + per_item(work, "normalize.vjp"),
        "rng.ms": ms(dur, "rng.fill"),
        "rng.draws": per_item(work, "rng.fill"),
        "rng.ns_per_draw": dur.get("rng.fill", 0) / draws if draws else 0.0,
        "tensor.constructs": per_item(calls, "tensor.init"),
        "tensor.bytes_copied": per_item(work, "tensor.init"),
        "tensor.io_ms": ms(dur, "tensor.io"),
        "tensor.io_bytes": per_item(work, "tensor.io"),
        "grad.fd_ms": ms(dur, "grad.fd"),
        "grad.fd_forwards": per_item(work, "grad.fd"),
        "toytrain.ms": ms(dur, "toytrain"),
        "cli.self_ms": ms(self_ns, "cli"),
        "trace.overhead_frac": overhead_frac,
    }
