"""Run the pacslab CLI with spans around its stages, for traced cli passes.

    python3 perfbench/cli_shim.py SPANS_JSON [pacslab arguments ...]

Behaves like ``python3 -m pacslab.cli`` and exits with its code.  It wraps
the module attributes the CLI looks up at call time (parse_config, the
scenario runners, write_csv/write_json and downconversion.dc_evolve_numeric)
and writes the spans and the propagator's cell counts to SPANS_JSON.
"""

import importlib
import json
import math
import sys
from collections import Counter

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    counts = Counter()

    def wrap(name, fn):
        return lambda *args, **kwargs: tracer.call(name, None, fn, *args, **kwargs)

    cli = tracer.call("cli.import", None, importlib.import_module, "pacslab.cli")
    dc = sys.modules["pacslab.downconversion"]
    evolve = wrap("downconversion.dc_evolve_numeric", dc.dc_evolve_numeric)

    def counted_evolve(params, *args, **kwargs):
        cells = params.dim_a * params.dim_b
        counts["downconversion.dc_evolve_numeric.cells"] += cells
        counts["downconversion.dc_evolve_numeric.cell_terms"] += (
            cells * 2.0 * params.r * math.sqrt(cells)
        )
        return evolve(params, *args, **kwargs)

    dc.dc_evolve_numeric = counted_evolve
    # a stage the CLI no longer has is simply not traced
    for attr, name in (
        ("parse_config", "cli.parse_config"),
        ("write_csv", "cli.serialize"),
        ("write_json", "cli.serialize"),
    ):
        if hasattr(cli, attr):
            setattr(cli, attr, wrap(name, getattr(cli, attr)))
    runners = getattr(cli, "_RUNNERS", {})
    for scenario, runner in list(runners.items()):
        runners[scenario] = wrap("cli.runner", runner)

    code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
