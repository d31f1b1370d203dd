"""One slice of a workload run, in a fresh interpreter: set-up, then passes.

run.py starts this script and times its set-up from process start to the
``ready`` line.  With ``--setup-only`` the worker stops there.  Otherwise it
runs passes ``--first-pass``, ``--first-pass`` + 1, ... until the next one
would overrun ``--seconds`` (at least one), and prints one JSON line: the
environment record, one record per pass, and the spans of traced passes.
With ``--trace 1`` each pass's inputs run twice, traced and untraced in
alternating order, so that the tracing overhead can be measured.
"""

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer, span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _openblas():
    """(config string, thread count) of the OpenBLAS bundled with numpy and scipy."""
    import numpy
    import scipy

    paths = sorted(
        str(lib)
        for package in (numpy, scipy)
        for lib in (Path(package.__file__).parent.parent / f"{package.__name__}.libs").glob("*openblas*")
    )
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        # the numpy and scipy wheels rename the symbols: scipy_ prefix, 64_ suffix
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                found.append((get_config().decode(), get_threads()))
                break
    return found


def environment():
    import numpy
    import scipy

    import pacslab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_and_threads": _openblas(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        # backend_name goes away with the numba backend
        "pacslab_backend": getattr(pacslab, "backend_name", lambda: None)(),
    }


def _peak_rss_mb():
    # the cli workload's work happens in its child processes
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (children or own) / 1024.0


def _record(index, wall, res, tracer):
    traced = isinstance(tracer, Tracer)
    return {
        "pass": index,
        "wall": wall,
        "traced": traced,
        "points": res.points,
        "failed": res.failed,
        "layer_failed": dict(res.layer_failed),
        "worst_share": res.worst_share,
        "red_gap": res.red_gap,
        "red_points": res.red_points,
        "counts": dict(res.counts),
        "errors": res.errors,
        "totals": span_totals(tracer.spans) if traced else {},
    }


def measure(workload, seed, first, seconds, trace):
    """Run passes until the next one would overrun ``seconds``.

    Returns the pass records and the spans of the traced passes.
    """
    records, spans, units = [], [], []
    start = time.perf_counter()
    index = first
    while True:
        inputs = workload.inputs(seed, index)
        order = (False,) if not trace else ((False, True) if index % 2 == 0 else (True, False))
        unit = 0.0
        for on in order:
            tracer = Tracer() if on else NullTracer()
            t0 = time.perf_counter()
            res = workload.run(inputs, tracer)
            wall = time.perf_counter() - t0
            unit += wall
            records.append(_record(index, wall, res, tracer))
            spans += [[index, *span] for span in tracer.spans]
        units.append(unit)
        index += 1
        if time.perf_counter() - start + statistics.median(units) > seconds:
            return records, spans


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads as wl
    import pacslab

    if Path(pacslab.__file__).resolve().parent != ROOT / "src" / "pacslab":
        print(f"perfbench: imported pacslab from {pacslab.__file__}, not src/", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workload = wl.workloads(out_dir)[args.workload]
    workload.warm()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records, spans = measure(workload, args.seed, args.first_pass, args.seconds, args.trace)
    print(json.dumps({
        "env": environment(),
        "passes": records,
        "spans": spans,
        "peak_rss_mb": _peak_rss_mb(),
        "names": {"spans": wl.SPANS, "counts": wl.COUNTS, "layers": wl.LAYERS},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
