#!/usr/bin/env python3
"""pacslab benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload pair-oracle --seed 1 --seconds 36 --trace 0

Workloads: pair-oracle, library-sweep, cli (see README.md).
The run spreads its --seconds over up to five fresh worker processes, which
run passes over seeded inputs and check every point against the
repository's own oracle bound, and times the set-up of at least fifteen
fresh interpreters.  With --trace 0 the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with --trace 1 it carries the per-layer metrics,
and a self-time table is printed above it.  pacslab is imported from src/
of the checkout; without it the run exits 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair-oracle", "library-sweep", "cli")
# On a shared 2-core box the speed of one process swings with the host's
# load, up to 2x between processes started seconds apart, so a run pools
# the passes of several processes.
WORKERS = 5
SETUP_SAMPLES = 15


def child_env():
    """Environment for workers: pacslab from src/, BLAS threads capped at nproc."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_worker(args, env, deadline):
    """Start worker.py; return (seconds from start to its ready line, its last stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {code} before finishing")
    return ready, lines[-1] if lines else ""


def tail_percentile(samples):
    """(percent, value) of the highest percentile with ten samples beyond it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(records, names):
    """Per-layer values: span times and work counts are means over the traced
    passes of their per-pass totals; failures add up over all passes."""
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    wall = statistics.fmean(r["wall"] for r in untraced)
    out = {}
    for name in names["spans"]:
        for i, key in enumerate(("calls", "busy_s", "self_s")):
            out[f"{name}.{key}"] = statistics.fmean(
                r["totals"].get(name, (0, 0.0, 0.0))[i] for r in traced
            )
    for name in names["counts"]:
        out[name] = statistics.fmean(r["counts"].get(name, 0) for r in traced)
    busy = sum(r["totals"].get("downconversion.dc_evolve_numeric", (0, 0.0))[1] for r in traced)
    terms = sum(r["counts"].get("downconversion.dc_evolve_numeric.cell_terms", 0) for r in traced)
    out["downconversion.dc_evolve_numeric.ns_per_cell_term"] = 1e9 * busy / terms if terms else 0.0
    for layer in names["layers"]:
        out[f"{layer}.failed"] = sum(r["layer_failed"].get(layer, 0) for r in records)
    out["oracle.max_deficit"] = max(r["worst_share"] for r in records)
    out["oracle.expected_red_gap"] = max(r["red_gap"] for r in records)
    out["trace.overhead_s"] = statistics.fmean(r["wall"] for r in traced) - wall
    self_s = statistics.fmean(sum(t[2] for t in r["totals"].values()) for r in traced)
    out["trace.coverage"] = self_s / wall
    return out, wall


def print_layer_table(layer, wall):
    print(f"self time per traced pass, as a share of the untraced wall_s {wall:.4f} s:")
    modules = {}
    rows = []
    for key, value in layer.items():
        if key.endswith(".self_s") and value > 0:
            name = key[: -len(".self_s")]
            modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + value
            rows.append((value, name))
    for module, value in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<16} {value:10.4f} s {100 * value / wall:6.1f} %")
    for value, name in sorted(rows, reverse=True):
        print(f"    {name:<40} {value:10.4f} s {100 * value / wall:6.1f} %")
    print(
        f"traced self time covers {100 * layer['trace.coverage']:.1f} % of the untraced wall_s; "
        f"tracing overhead {layer['trace.overhead_s']:+.4f} s per pass"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pacslab" / "__init__.py").is_file():
        print(f"perfbench: no pacslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # watchdog for the whole run: the passes may overrun --seconds by up to
    # one pass, and the set-up samples come on top
    deadline = time.perf_counter() + 2.0 * args.seconds + 60.0
    env = child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    setups, records, spans, rss, measured = [], [], [], [], []
    try:
        # workers run until the next would overrun --seconds; at least one
        while len(measured) < WORKERS:
            ready, line = run_worker(
                [*base, "--seconds", str(args.seconds / WORKERS),
                 "--first-pass", str(len({r["pass"] for r in records}))],
                env,
                deadline,
            )
            out = json.loads(line)
            setups.append(ready)
            records += out["passes"]
            spans += out["spans"]
            rss.append(out["peak_rss_mb"])
            measured.append(sum(r["wall"] for r in out["passes"]))
            if sum(measured) + statistics.median(measured) > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker([*base, "--seconds", "0", "--setup-only"], env, deadline)[0])
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in records if not r["traced"]]
    walls = [r["wall"] for r in untraced]
    attempted = sum(r["points"] for r in records)
    failed = sum(r["failed"] for r in records)
    red_points = sum(r["red_points"] for r in records)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(f"setup_s: median of {len(setups)} fresh interpreters: "
          + ", ".join(f"{s:.3f}" for s in setups))
    tail = tail_percentile(walls)
    print(f"pass wall time: mean {statistics.fmean(walls):.4f} s, median {statistics.median(walls):.4f} s "
          f"over {len(walls)} untraced passes in {len(measured)} worker processes; "
          + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no tail percentile below 11 passes"))
    print(f"points: {attempted} attempted, {failed} failed")
    if red_points:
        print(f"expected red (criterion 03, by design): overlap_closed_vs_oracle gap up to "
              f"{max(r['red_gap'] for r in records):.4g} against its 1e-8 bound, over "
              f"{red_points} evaluations; neither a pass nor a failure")
    for error in [e for r in records for e in r["errors"]][:10]:
        print(f"FAILED {error}")

    if args.trace:
        values, wall = layer_metrics(records, out["names"])
        print_layer_table(values, wall)
        path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({
            "columns": ["pass", "name", "start", "end", "parent", "point"],
            "spans": spans,
        }), encoding="utf-8")
        print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        # means, not medians: pass times swing between the host's contention
        # states, and the median of such a mixture jumps where the mean moves
        values = {
            "wall_s": statistics.fmean(walls),
            "points_per_s": (attempted - failed) / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        if metric["value"]:
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
