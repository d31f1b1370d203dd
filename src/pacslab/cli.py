"""Scenario runner: figure-style curve data, closed-form/oracle tables, and
the cross-validation suite, serialized as reproducible CSV or JSON.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(including failed verification checks, non-finite records, overflow of
the double range and truncations too large to allocate), 4 unwritable
output.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import checks
from .errors import ConfigError, NumericalFailureError, PacslabError

FORMATS = ("csv", "json")
# every option in usage order; the flag --dim-a is the config file key dim_a
OPTIONS = tuple(
    "scenario alpha r beta_t beta time m_list dim_a dim_b tol config out format".split()
)


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    alpha: complex
    grid: tuple  # (start, stop, count) over the scenario's grid option
    m_list: tuple
    dim_a: int | None
    dim_b: int | None
    tol: float
    out: str | None
    fmt: str

    def fingerprint(self) -> str:
        import hashlib  # OpenSSL's libcrypto: loaded by JSON runs only

        payload = (
            f"scenario={self.scenario}\n"
            f"alpha={self.alpha.real!r},{self.alpha.imag!r}\n"
            f"grid={self.grid[0]!r}:{self.grid[1]!r}:{self.grid[2]}\n"
            f"m_list={','.join(str(m) for m in self.m_list)}\n"
            f"dim_a={self.dim_a}\ndim_b={self.dim_b}\n"
            f"tol={self.tol!r}\nformat={self.fmt}\n"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def grid_values(self) -> list:
        return np.linspace(*self.grid).tolist()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_complex(text: str):
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        return None


def _parse_grid(text: str):
    parts = text.strip().split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return (v, v, 1)
        if len(parts) == 3:
            return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        pass
    return None


def _parse_m_list(text: str):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        return None
    return values if values else None


def _read_config_file(path: str, keys, errors: list) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        errors.append(f"config file: {exc}")
        return values
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in keys:
            errors.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        values[key] = val
    return values


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_flags(argv, errors: list) -> dict | None:
    """{key: value} of the ``--name value`` and ``--name=value`` flags, a
    repeated flag's last value winning; None when -h or --help asks for the
    usage.  A value is verbatim, even one that starts with '-'.  Unknown
    flags, stray arguments and flags without a value join ``errors``."""
    keys = {_flag(key): key for key in OPTIONS}
    values = {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        name, eq, value = token.partition("=")
        if name not in keys:
            errors.append(f"unknown argument {token!r}")
        elif eq or (value := next(tokens, None)) is not None:
            values[keys[name]] = value
        else:
            errors.append(f"{name} needs a value")
    return values


def parse_config(argv) -> RunConfig | None:
    """Resolve flags and optional config file; flags win on conflict.  Both
    fill one table of raw values, each read the same way from either; every
    invalid entry is reported together.  None when -h or --help is given."""
    errors: list = []
    flags = _read_flags(argv, errors)
    if flags is None:
        return None
    values = dict.fromkeys(OPTIONS)
    if "config" in flags:
        values |= _read_config_file(flags["config"], set(OPTIONS) - {"config"}, errors)
    ns = SimpleNamespace(**(values | flags))

    scenario = "verify" if ns.scenario is None else ns.scenario
    if scenario not in SCENARIOS:
        errors.append(f"unknown scenario {scenario!r} (choices: {', '.join(SCENARIOS)})")
        scenario = "verify"
    _, grid_option, grid, m_list, reads = _SCENARIOS[scenario]
    allowed = {"scenario", "config", "out", "format", grid_option, *reads}
    for key in OPTIONS:
        if getattr(ns, key) is not None and key not in allowed:
            errors.append(f"{_flag(key)} does not apply to {scenario}")
            setattr(ns, key, None)

    alpha = 0.8 + 0.0j
    if ns.alpha is not None:
        parsed = _parse_complex(ns.alpha)
        if parsed is None:
            errors.append(f"malformed alpha {ns.alpha!r}")
        elif not cmath.isfinite(parsed):
            errors.append(f"alpha must be finite, got {ns.alpha!r}")
        else:
            alpha = parsed

    # the grid comes from the scenario's grid option or the --beta/--time pair
    text = vars(ns).get(grid_option)
    if text is not None and (ns.beta is not None or ns.time is not None):
        errors.append(f"give either {_flag(grid_option)} or the --beta/--time pair, not both")
    if text is not None:
        g = _parse_grid(text)
        if g is None:
            errors.append(f"malformed {grid_option} grid {text!r}")
        else:
            grid = g
    elif ns.beta is not None or ns.time is not None:
        if ns.beta is None or ns.time is None:
            errors.append("--beta and --time must be given together")
        else:
            g = _parse_grid(ns.time)
            try:
                beta = float(ns.beta)
            except ValueError:
                beta = None
            if g is None or beta is None:
                errors.append("malformed --beta/--time pair")
            else:
                grid = (beta * g[0], beta * g[1], g[2])
    start, stop, count = grid
    if count < 1:
        errors.append(f"grid count must be >= 1, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        errors.append(f"grid endpoints must be finite, got {start}:{stop}")
    elif not stop >= start >= 0:
        errors.append(f"grid must satisfy stop >= start >= 0, got {start}:{stop}")

    if ns.m_list is not None:
        parsed = _parse_m_list(ns.m_list)
        if parsed is None:
            errors.append(f"malformed m list {ns.m_list!r}")
        elif any(m < 0 for m in parsed):
            errors.append(f"m list entries must be nonnegative: {ns.m_list!r}")
        else:
            m_list = parsed

    dims = {}
    for key, raw in (("dim_a", ns.dim_a), ("dim_b", ns.dim_b)):
        dims[key] = None
        if raw is not None:
            try:
                val = int(raw)
                if val < 1:
                    raise ValueError
                dims[key] = val
            except ValueError:
                errors.append(f"malformed {key} {raw!r} (positive integer required)")

    tol = 1e-12
    if ns.tol is not None:
        try:
            tol = float(ns.tol)
            if not 0 < tol < 1:
                raise ValueError
        except ValueError:
            errors.append(f"malformed tol {ns.tol!r} (real in (0, 1) required)")

    fmt = "csv" if ns.format is None else ns.format
    if fmt not in FORMATS:
        errors.append(f"unknown format {fmt!r} (choices: csv, json)")
        fmt = "csv"
    if ns.out == "":
        errors.append("out must name a file, got ''")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(
        scenario=scenario,
        alpha=alpha,
        grid=(start, stop, count),
        m_list=tuple(m_list),
        dim_a=dims["dim_a"],
        dim_b=dims["dim_b"],
        tol=tol,
        out=ns.out,
        fmt=fmt,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_number(x) -> str:
    """12 significant digits, scientific below 1e-4; pinned for determinism."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    f = float(x)
    if f == 0.0:
        return "0"
    if abs(f) < 1e-4:
        return f"{f:.11e}"
    return f"{f:.12g}"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_number(value)


def check_finite(columns, rows) -> None:
    """Raise NumericalFailureError naming each column that holds NaN or inf."""
    counts = {
        c: sum(isinstance(v, float) and not math.isfinite(v) for v in (row.get(c) for row in rows))
        for c in columns
    }
    bad = [f"{c} ({n} of {len(rows)} rows)" for c, n in counts.items() if n]
    if bad:
        raise NumericalFailureError("non-finite records in " + ", ".join(bad))


def write_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def write_json(columns, rows, fingerprint: str) -> str:
    import json  # a csv run never loads it

    payload = [
        {c: row.get(c) for c in columns} | {"config_fingerprint": fingerprint} for row in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# scenarios: each runner returns (rows, max_dev); checks.py builds the rows,
# every row a dict whose keys are the record columns in order
# ---------------------------------------------------------------------------


def run_jc_curve(cfg: RunConfig):
    return checks.curve_rows(cfg.alpha, cfg.grid_values(), cfg.m_list, cfg.dim_a), None


def run_dc_overlap(cfg: RunConfig):
    rows = checks.overlap_rows(cfg.alpha, cfg.grid_values(), cfg.dim_a)
    return rows, checks.worst_of(row["abs_deviation"] for row in rows)


def run_dc_pm(cfg: RunConfig):
    rows = checks.pm_rows(
        cfg.alpha, cfg.grid_values(), cfg.m_list, cfg.tol, cfg.dim_a, cfg.dim_b
    )
    return rows, checks.worst_of(row["abs_deviation"] for row in rows)


def run_dc_ideal(cfg: RunConfig):
    rows = checks.ideal_rows(cfg.alpha, cfg.grid_values(), cfg.m_list, cfg.dim_a, cfg.dim_b)
    deficits = [1.0 - row["fidelity"] for row in rows if row["fidelity"] is not None]
    # n/a when every branch is empty: nothing was compared
    return rows, checks.worst_of(deficits) if deficits else None


def run_verify(cfg: RunConfig):
    return checks.verify(cfg.tol), None


# per scenario: runner, grid option (or None) with its default (start, stop,
# count), default m list, other options read besides scenario/config/out/format
_SCENARIOS = {
    "jc-curve": (run_jc_curve, "beta_t", (0.0, 6.0, 121), (1, 2, 3),
                 ("alpha", "beta", "time", "m_list", "dim_a")),
    "dc-overlap": (run_dc_overlap, "r", (0.0, 2.0, 41), (), ("alpha", "dim_a")),
    "dc-pm": (run_dc_pm, "r", (1.0, 1.0, 1), tuple(range(11)),
              ("alpha", "m_list", "dim_a", "dim_b", "tol")),
    "dc-ideal-check": (run_dc_ideal, "r", (0.0, 2.0, 9), (0, 1, 2, 3, 4),
                       ("alpha", "m_list", "dim_a", "dim_b")),
    "verify": (run_verify, None, (0.0, 0.0, 1), (), ("tol",)),
}
SCENARIOS = tuple(_SCENARIOS)
# run looks its runner up here at call time, so a runner replaced here is used
_RUNNERS = {scenario: entry[0] for scenario, entry in _SCENARIOS.items()}


def run(cfg: RunConfig) -> int:
    """Execute the scenario, write records, print the one-line summary."""
    rows, max_dev = _RUNNERS[cfg.scenario](cfg)
    columns = list(rows[0])
    check_finite(columns, rows)
    if cfg.fmt == "csv":
        text = write_csv(columns, rows)
    else:
        text = write_json(columns, rows, cfg.fingerprint())

    summary_stream = sys.stdout
    if cfg.out is not None:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"pacslab: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 4
    else:
        sys.stdout.write(text)
        summary_stream = sys.stderr

    status = 0
    if cfg.scenario == "verify":
        failed = [r for r in rows if not r["passed"]]
        for r in rows:
            mark = "PASS" if r["passed"] else "FAIL"
            print(
                f"  {mark} {r['check']}: measured={format_number(r['measured'])} "
                f"bound={format_number(r['tolerance'])}",
                file=summary_stream,
            )
        print(
            f"verify: checks={len(rows)} failed={len(failed)}",
            file=summary_stream,
        )
        status = 0 if not failed else 3
    else:
        dev = "n/a" if max_dev is None else format_number(max_dev)
        print(
            f"{cfg.scenario}: points={len(rows)} max_oracle_deviation={dev}",
            file=summary_stream,
        )
    return status


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"pacslab: {exc}", file=sys.stderr)
        return 2
    if cfg is None:
        print("usage: pacslab [-h]", *(f"[{_flag(key)} VALUE]" for key in OPTIONS))
        return 0
    try:
        return run(cfg)
    except PacslabError as exc:
        print(f"pacslab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"pacslab: numerical failure: overflow ({exc})", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"pacslab: numerical failure: out of memory ({exc})", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"pacslab: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
