#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly, in two sets of runs, and
prints the median and quartiles of every metric for each set.

    python3 perfbench/steady.py --workload dml_mix [--runs 10] [--sets 2]
                                [--seconds S] [--trace 0] [--first-seed 1]

Every run uses its own seed (first-seed, first-seed + 1, ...). For each
metric the table gives, per set, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median; the
last column is the change of the last set's median against the first's,
signed so that positive means worse. A benchmark bound is met when every
spread but setup_s's and every median change stays within it. The raw
results are also written to .bench_out/steady-<workload>-trace<t>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: seed {seed} exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    kinds = spec["per_layer"] if args.trace else spec["end_to_end"]
    better = {m["name"]: m["better"] for m in kinds}
    bound = {m["name"]: m.get("bound") for m in kinds}

    sets = []
    seed = args.first_seed
    for s in range(args.sets):
        results = []
        for _ in range(args.runs):
            result = run_once(args.workload, seed, args.seconds, args.trace)
            seed += 1
            results.append(result)
            print(f"set {s + 1} seed {seed - 1}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        sets.append(results)

    print(f"\n{args.workload}: {args.sets} sets x {args.runs} runs, {args.seconds} s each, "
          f"trace {args.trace}")
    for s, results in enumerate(sets):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"set {s + 1}: correct={correct} failed/attempted={failed}/{attempted}")
    header = f"{'metric':40s} {'bound':>6s}"
    for s in range(args.sets):
        header += f" | {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}"
    print(header + (" | change" if args.sets > 1 else ""))
    summary = {}
    for name in better:
        row = f"{name:40s} {bound[name] if bound[name] is not None else '-':>6}"
        stats = [summarize([r["metrics"][name]["value"] for r in results]) for results in sets]
        summary[name] = stats
        for st in stats:
            row += (f" | {st['median']:12.5g} {st['q1']:12.5g} {st['q3']:12.5g} "
                    f"{100 * st['spread']:6.1f}%")
        if args.sets > 1 and stats[0]["median"]:
            change = (stats[-1]["median"] - stats[0]["median"]) / stats[0]["median"]
            if better[name] == "higher":
                change = -change
            row += f" | {100 * change:+6.1f}%"
        print(row)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out",
                        f"steady-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"args": vars(args), "sets": sets, "summary": summary}, f, indent=1)
    print(f"\nraw results: {path}")


if __name__ == "__main__":
    main()
