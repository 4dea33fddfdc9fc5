"""Compare a parent and a change with the benchmark, in alternating pairs.

    python3 momentbench/compare.py --parent DIR --change DIR
        [--seed0 N] [--record FILE]
    python3 momentbench/compare.py --from FILE

DIR is the root of a source checkout holding this same benchmark. It runs
MIN_PAIRS pairs on every workload: pair i runs both sides on seed seed0 + i,
the parent first on even pairs and the change first on odd ones, for the
run_seconds that BENCHMARK.json fixes, and appends both results to the
record file.
`--from` judges a record file without running anything.

Each end-to-end metric on each workload gets one verdict:
  improved    at least 10 pairs, the change wins at least 9 of every 10
              (ties count for neither), the medians differ by more than the
              parent's interquartile range, and no more items failed
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  fewer than 10 pairs; or neither of the above, the parent's
              own spread (IQR over median) is wider than the bound, and not
              every change run beats every parent run, so "unchanged" cannot
              be told apart from a regression
  unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_side(root: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "momentbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args, spec: dict) -> list[dict]:
    records = []
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(args.record, "a") as fh:
        for i in range(MIN_PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    result = run_side(sides[side], w, args.seed0 + i, spec["run_seconds"])
                    rec = {"pair": i, "side": side, "workload": w,
                           "seed": args.seed0 + i, "result": result}
                    fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
                    fh.flush()
                    records.append(rec)
    return records


def verdict(metric: dict, parent: list[float], change: list[float],
            failed_parent: int, failed_change: int) -> tuple[str, dict]:
    higher = metric["better"] == "higher"
    n = min(len(parent), len(change))
    mp, mc = statistics.median(parent), statistics.median(change)
    info = {"pairs": n, "parent_median": mp, "change_median": mc}
    if n < MIN_PAIRS:
        return "unresolved", info

    def better(a, b):
        return a > b if higher else a < b

    q1, _, q3 = statistics.quantiles(parent, n=4)
    scale = abs(mp) or 1.0
    wins = sum(better(c, p) for p, c in zip(parent, change))
    info.update(parent_q1=q1, parent_q3=q3, wins=wins,
                change_worse_by=((mp - mc) if higher else (mc - mp)) / scale)
    if (wins >= WIN_SHARE * n and better(mc, mp) and abs(mc - mp) > q3 - q1
            and failed_change <= failed_parent):
        return "improved", info
    if info["change_worse_by"] > metric["bound"]:
        return "worse", info
    every_run_better = all(better(c, p) for c in change for p in parent)
    if (q3 - q1) / scale > metric["bound"] and not every_run_better:
        return "unresolved", info
    return "unchanged", info


def judge(records: list[dict], spec: dict) -> dict:
    by_key = {}
    for rec in records:
        by_key.setdefault(rec["workload"], {}).setdefault(rec["pair"], {})[rec["side"]] = rec["result"]
    report = {}
    for workload, pairs in by_key.items():
        full = [pairs[i] for i in sorted(pairs) if len(pairs[i]) == 2]
        failed = {s: sum(p[s]["failed"] for p in full) for s in ("parent", "change")}
        row = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {s: [p[s]["metrics"][name]["value"] for p in full]
                      for s in ("parent", "change")}
            row[name] = verdict(metric, values["parent"], values["change"],
                                failed["parent"], failed["change"])
        report[workload] = {"failed": failed, "metrics": row}
    return report


def print_report(report: dict, spec: dict) -> None:
    names = [m["name"] for m in spec["end_to_end"]]
    width = max([len(w) for w in report] + [8])
    print(" ".join([f"{'workload':{width}s}"] + [f"{n:>15s}" for n in names]))
    for workload, row in report.items():
        cells = [f"{row['metrics'][n][0]:>15s}" for n in names]
        print(" ".join([f"{workload:{width}s}"] + cells))
    print(json.dumps(report, separators=(",", ":")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent")
    p.add_argument("--change")
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--record")
    p.add_argument("--from", dest="source")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.source:
        with open(args.source) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    elif args.parent and args.change:
        if args.record is None:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            args.record = os.path.join(HERE, "out", f"compare-{int(time.time())}.jsonl")
        records = collect(args, spec)
        print(f"record: {args.record}")
    else:
        p.error("give --parent and --change, or --from")
    print_report(judge(records, spec), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
