#!/usr/bin/env python3
"""The whole ledger in one command, for people (the driver calls run.sh).

  python3 lsmbench/suite.py [--seed S]      every workload once, --trace 0 then --trace 1:
                                            prints each metric as `name value unit` and one JSON
                                            object per workload; appends them to lsmbench/out/ledger.jsonl
  python3 lsmbench/suite.py --check         the end-to-end suite twice; fails unless every metric of
                                            the second set is within its BENCHMARK.json bound of the first
  python3 lsmbench/suite.py --spread N      N seeds per workload, --trace 0: median, quartile spread
                                            (IQR / median) and the bound, per metric

Run from the repository root. Workloads run one after another, each in its own process.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}


def run(workload, seed, trace):
    """One process; returns (result object, printed lines before it, wall seconds)."""
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().split("\n")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed={seed}: correct={result['correct']} failed={result['failed']}")
    return result, lines[:-1], time.time() - t0


def context():
    def sh(*cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout.strip()
        except OSError:
            return ""
    return {"commit": sh("git", "rev-parse", "HEAD"), "nproc": os.cpu_count(),
            "rustc": sh("rustc", "--version"), "run_seconds": BENCH["run_seconds"]}


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative = better)."""
    change = (second - first) / first
    return -change if END_TO_END[metric]["better"] == "higher" else change


def ledger(seed):
    rows = []
    for w in WORKLOADS:
        row = dict(context(), workload=w, seed=seed, metrics={}, notes=[])
        for trace in (0, 1):
            result, lines, wall = run(w, seed, trace)
            print("\n".join(lines))
            row["metrics"].update({k: v["value"] for k, v in result["metrics"].items()})
            row["notes"] += [l[2:] for l in lines if l.startswith("# ")]
            row[f"attempted_trace{trace}"] = result["attempted"]
            row[f"wall_s_trace{trace}"] = round(wall, 1)
        print(json.dumps(row))
        rows.append(row)
    os.makedirs(os.path.join(ROOT, "lsmbench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, "lsmbench", "out", "ledger.jsonl"), "a") as f:
        f.writelines(json.dumps(r) + "\n" for r in rows)
    return rows


def check(seed):
    sets = [{w: run(w, seed, 0)[0]["metrics"] for w in WORKLOADS} for _ in range(2)]
    bad = 0
    for w in WORKLOADS:
        for name, spec in END_TO_END.items():
            a, b = sets[0][w][name]["value"], sets[1][w][name]["value"]
            worse = worse_by(name, a, b)
            flag = "" if worse <= spec["bound"] else "  <-- outside bound"
            bad += bool(flag)
            print(f"{w:18} {name:16} {a:12.4f} {b:12.4f} worse_by={worse:+.4f} bound={spec['bound']}{flag}")
    sys.exit(1 if bad else 0)


def spread(seeds, first_seed):
    for w in WORKLOADS:
        runs = [run(w, first_seed + i, 0) for i in range(seeds)]
        print(f"{w}: {seeds} runs, {statistics.mean(r[2] for r in runs):.1f}s wall each")
        for name, spec in END_TO_END.items():
            values = [r[0]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            flag = "" if share <= spec["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:16} median={med:12.4f} iqr/median={share:.4f} bound={spec['bound']}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    args = ap.parse_args()
    if args.check:
        check(args.seed)
    elif args.spread:
        spread(args.spread, args.seed)
    else:
        ledger(args.seed)
