#!/usr/bin/env python3
"""Run one workload once per seed and report the spread of each metric.

    python3 perfbench/spread.py --workload pair-oracle --seeds 1-10
                                [--save perfbench/baseline.json]

Each run is an untraced ``perfbench/run.py`` with BENCHMARK.json's
run_seconds.  For every metric it prints the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the interquartile
range as a share of the median next to the metric's bound.  --save merges
the summary, with the environment record of the last run, into a JSON file
under the workload's name.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--save")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.splitlines()
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        last = json.loads(lines[-1])
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in last["metrics"].items() if v["value"]),
              flush=True)
        runs.append(last)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "seconds": seconds, "env": env,
               "correct": all(r["correct"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": share, "bound": bounds[name], "values": values}
        print(f"{name:<48} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:.4f} bound {bounds[name]}")
    print(f"all correct: {summary['correct']}")
    if args.save:
        path = Path(args.save)
        saved = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        saved[args.workload] = summary
        path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
