"""Smoke test of the benchmark itself, at tiny input sizes (under 15 s).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import NullTracer, Tracer, span_totals  # noqa: E402


def test_inputs_depend_only_on_seed():
    for inputs in (wl.pair_inputs, wl.library_inputs, wl.cli_inputs):
        assert inputs(7, 3) == inputs(7, 3)
        assert inputs(7, 3) != inputs(8, 3)
        assert inputs(7, 3) != inputs(7, 4)


def test_pair_strata_reach_r_two():
    points = wl.pair_inputs(1, 0)
    assert max(r for _, r, _ in points) >= 1.95
    assert all(0.5 <= a <= 1.5 and 0 < r <= 2.0 for a, r, _ in points)


def test_library_passes_on_tiny_inputs_are_correct_and_traced():
    cases = (
        (wl.pair_pass, [(0.8, 0.5, 0.3)]),
        (wl.closed_pass, wl.closed_inputs(1, 0)[:2]),
        (wl.cavity_pass, wl.cavity_inputs(1, 0)[:1]),
    )
    for run, inputs in cases:
        tracer = Tracer()
        res = run(inputs, tracer)
        assert res.points > 0 and res.failed == 0, res.errors
        totals = span_totals(tracer.spans)
        assert totals and set(totals) <= set(wl.SPANS)
        assert all(calls > 0 and 0 <= self_s <= busy_s for calls, busy_s, self_s in totals.values())
        assert run(inputs, NullTracer()).failed == 0


def test_gate_counts_missed_bounds_exceptions_and_nan():
    res = wl.PassResult()
    with wl.Point(res, NullTracer(), "ok") as pt:
        pt.check("fock", "within", 1e-12, 1e-10)
    with wl.Point(res, NullTracer(), "bound", size=3) as pt:
        pt.check("jaynes", "missed", 2e-10, 1e-10)
    with wl.Point(res, NullTracer(), "nan") as pt:
        pt.check("pacs", "nan", float("nan"), 1e-10)
    with wl.Point(res, NullTracer(), "raised") as pt:
        pt.call("specialfn.laguerre", wl.specialfn.laguerre, 600, 0.5)
    assert (res.points, res.failed) == (6, 5)
    assert res.layer_failed == {"jaynes": 1, "pacs": 1, "specialfn": 1}


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]]
    assert span_totals(spans) == {"a": [1, 10.0, 7.0], "b": [1, 3.0, 2.0], "c": [1, 1.0, 1.0]}


def test_cli_pass_compares_records_and_traces_the_stages(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    runs = [("jc-curve", ["--alpha", "0.9", "--beta-t", "0:1:5", "--m-list", "1,2", "--format", "json"])]
    res = wl.cli_pass(runs, NullTracer(), tmp_path)
    assert (res.points, res.failed) == (2, 0), res.errors
    tracer = Tracer()
    res = wl.cli_pass(runs, tracer, tmp_path)
    assert res.failed == 0, res.errors
    names = {span[0] for span in tracer.spans}
    assert {"cli.process", "cli.import", "cli.parse_config", "cli.runner", "cli.serialize"} <= names


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "library-sweep",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] > 0 and last["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
