#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one pair-log JSON.

    python3 tools/pairs.py --parent ../parent --change . --workload library-sweep \
        --seeds 41-50 --out BENCH_NN-name.json [--setup-rounds 30]

For each seed the two checkouts each run

    python3 perfbench/run.py --workload W --seed S --seconds 36 --trace 0

from their own root, the parent first on odd seeds and the change first on
even ones; the run length is the parent's BENCHMARK.json run_seconds.
With --setup-rounds N it first times N alternating
``perfbench/worker.py --setup-only`` starts of each checkout, from process
start to the worker's ``ready`` line, the order reversed every other round,
through that checkout's own run.py (child_env and run_worker).

The log holds the commits, whether the runs write bytecode (a CLI process
that finds no cached bytecode compiles pacslab, about 14 ms of about
120 ms, so cli logs compare only under one setting), every run's metrics,
each side's median and q1-q3 (inclusive quartiles) per metric, the pairs
the change wins and the relative change of the medians against the
metric's bound.  An existing --out file is updated: the workload's entries
are replaced, other keys are kept.  Standard library only; nothing under
perfbench/ is written but what run.py itself writes.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TREES = ("parent", "change")


def seed_list(text):
    """'41-45' or '1,3,7' (or both, comma-separated) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def describe(root):
    """The checkout's git commit (with a + if its tracked files differ from
    it) and a digest of its src/ files."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    out = {"src_sha256": digest.hexdigest()}
    head = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    if head.returncode == 0:
        dirty = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True,
        ).stdout.strip()
        out["commit"] = head.stdout.strip() + ("+" if dirty else "")
    return out


def quartiles(values):
    """(median, q1, q3) of the values, inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def run_once(root, workload, seed, seconds):
    """One run.py run: its record, with the metrics of its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        cmd, cwd=root, capture_output=True, text=True, timeout=4 * seconds + 180
    )
    lines = proc.stdout.splitlines()
    record = {"seed": seed, "rc": proc.returncode}
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["stderr"] = proc.stderr[-2000:]
        return record, None
    record["metrics"] = {k: round(v["value"], 6) for k, v in last["metrics"].items()}
    record.update(failed=last["failed"], attempted=last["attempted"], correct=last["correct"])
    record["pass_line"] = next((x for x in lines if x.startswith("pass wall time")), None)
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")), None)
    return record, env


def summarize(runs, spec):
    """Per end-to-end metric, over the pairs where both runs finished: each
    side's median and q1-q3, and the pairs the change wins."""
    summary = {}
    complete = [pair for pair in zip(runs["parent"], runs["change"])
                if all("metrics" in r for r in pair)]
    if not complete:
        return summary
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in complete]
        sides = dict(zip(TREES, map(list, zip(*pairs))))
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        row = {}
        for tree in TREES:
            median, q1, q3 = quartiles(sides[tree])
            row.update({f"{tree}_median": round(median, 6), f"{tree}_q1": round(q1, 6),
                        f"{tree}_q3": round(q3, 6)})
        row["change_better_pairs"] = f"{wins}/{len(pairs)}"
        row["relative_change"] = round(row["change_median"] / row["parent_median"] - 1.0, 4)
        row["parent_q1_q3_width"] = round(row["parent_q3"] - row["parent_q1"], 6)
        row["bound"] = metric["bound"]
        summary[name] = row
    return summary


def load_run(root, tree):
    """The checkout's own perfbench/run.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"run_{tree}", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup_probe(roots, workload, rounds):
    """Seconds from the start of each --setup-only worker to its ready line,
    timed by each checkout's run.run_worker in its run.child_env."""
    runs = {tree: load_run(roots[tree], tree) for tree in TREES}
    envs = {tree: run.child_env() for tree, run in runs.items()}
    values = {tree: [] for tree in TREES}
    for i in range(rounds):
        for tree in TREES if i % 2 == 0 else TREES[::-1]:
            args = ["--workload", workload, "--seed", str(i), "--seconds", "0", "--setup-only"]
            ready, _ = runs[tree].run_worker(args, envs[tree], time.perf_counter() + 120.0)
            values[tree].append(round(ready, 4))
    out = {}
    for tree in TREES:
        median, q1, q3 = quartiles(values[tree])
        out[tree] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
                     "values": values[tree]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    ap.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_list, help="e.g. 41-50 or 1,3,5")
    ap.add_argument("--setup-rounds", type=int, default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    log = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    log["commits"] = {tree: describe(root) for tree, root in roots.items()}
    log["bytecode"] = {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "sys.dont_write_bytecode": sys.dont_write_bytecode,
    }
    log.setdefault("pairs", {})
    if args.setup_rounds:
        log.setdefault("setup_probe", {})[args.workload] = setup_probe(
            roots, args.workload, args.setup_rounds
        )

    runs = {tree: [] for tree in TREES}
    for seed in args.seeds:
        for tree in TREES if seed % 2 else TREES[::-1]:
            record, env = run_once(roots[tree], args.workload, seed, seconds)
            runs[tree].append(record)
            if env is not None:
                log.setdefault("env", env)
            shown = record.get("metrics", record.get("stderr", ""))
            print(f"{args.workload} seed {seed} {tree}: rc {record['rc']} {shown}", flush=True)
    log["pairs"][args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds} --trace 0",
        "seeds": args.seeds,
        "summary": summarize(runs, spec),
        "runs": [dict(tree=tree, **r) for pair in zip(*runs.values())
                 for tree, r in zip(TREES, pair)],
    }
    args.out.write_text(json.dumps(log, indent=1) + "\n", encoding="utf-8")
    failed = [r for rs in runs.values() for r in rs if r["rc"] != 0 or not r.get("correct")]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
