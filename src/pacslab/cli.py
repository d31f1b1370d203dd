"""Scenario runner: figure-style curve data, closed-form/oracle tables, and
the cross-validation suite, serialized as reproducible CSV or JSON.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(including failed verification checks, non-finite records and overflow of
the double range), 4 unwritable output.
"""

import argparse
import cmath
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import checks, jaynes
from . import downconversion as dc
from .errors import ConfigError, EmptyBranchError, NumericalFailureError, PacslabError

# per scenario: default (start, stop, count) grid and default m list
_DEFAULTS = {
    "jc-curve": ((0.0, 6.0, 121), (1, 2, 3)),
    "dc-overlap": ((0.0, 2.0, 41), ()),
    "dc-pm": ((1.0, 1.0, 1), tuple(range(11))),
    "dc-ideal-check": ((0.0, 2.0, 9), (0, 1, 2, 3, 4)),
    "verify": ((0.0, 0.0, 1), ()),
}
SCENARIOS = tuple(_DEFAULTS)
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    alpha: complex
    grid: tuple  # (start, stop, count) over beta_t (jc) or r (dc)
    m_list: tuple
    dim_a: int | None
    dim_b: int | None
    tol: float
    out: str | None
    fmt: str

    def fingerprint(self) -> str:
        payload = (
            f"scenario={self.scenario}\n"
            f"alpha={self.alpha.real!r},{self.alpha.imag!r}\n"
            f"grid={self.grid[0]!r}:{self.grid[1]!r}:{self.grid[2]}\n"
            f"m_list={','.join(str(m) for m in self.m_list)}\n"
            f"dim_a={self.dim_a}\ndim_b={self.dim_b}\n"
            f"tol={self.tol!r}\nformat={self.fmt}\n"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def grid_values(self):
        start, stop, count = self.grid
        if count == 1:
            return np.array([start])
        return np.linspace(start, stop, count)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_complex(text: str):
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(t)
    except ValueError:
        return None


def _parse_grid(text: str):
    parts = text.strip().split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return (v, v, 1)
        if len(parts) == 3:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
            return (start, stop, count)
    except ValueError:
        return None
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
    except OSError as exc:
        errors.append(f"config file: {exc}")
        return values
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in keys:
            errors.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        values[key] = val
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pacslab",
        description="Photon-added coherent state laboratory: scenario runner",
    )
    ap.add_argument("--scenario", choices=SCENARIOS)
    ap.add_argument("--alpha", help="complex literal, e.g. 0.8+0.0i")
    ap.add_argument("--r", help="squeeze grid start:stop:count or value")
    ap.add_argument("--beta-t", help="dimensionless interaction grid (jc-curve)")
    ap.add_argument("--beta", help="coupling in rad/s (with --time)")
    ap.add_argument("--time", help="time grid in seconds (with --beta)")
    ap.add_argument("--m-list", help="comma-separated orders")
    ap.add_argument("--dim-a")
    ap.add_argument("--dim-b")
    ap.add_argument("--tol")
    ap.add_argument("--config", help="flat key = value file")
    ap.add_argument("--out", help="output path (default: stdout)")
    ap.add_argument("--format", choices=FORMATS)
    return ap


def parse_config(argv) -> RunConfig:
    """Resolve flags and optional config file; flags win on conflict.

    The file's values become parser defaults, so every option is read the
    same way from either source.  Every invalid entry is collected and
    reported together.
    """
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit:
        raise ConfigError("invalid command line (see --help)")
    errors: list = []
    if ns.config:
        # argparse checks choices on flags only, so the checks below still
        # see every file value
        keys = set(vars(ns)) - {"config"}
        ap.set_defaults(**_read_config_file(ns.config, keys, errors))
        ns = ap.parse_args(argv)

    scenario = ns.scenario or "verify"
    if scenario not in SCENARIOS:
        errors.append(f"unknown scenario {scenario!r} (choices: {', '.join(SCENARIOS)})")
        scenario = "verify"
    grid, m_list = _DEFAULTS[scenario]

    alpha = 0.8 + 0.0j
    if ns.alpha is not None:
        parsed = _parse_complex(ns.alpha)
        if parsed is None:
            errors.append(f"malformed alpha {ns.alpha!r}")
        elif not cmath.isfinite(parsed):
            errors.append(f"alpha must be finite, got {ns.alpha!r}")
        else:
            alpha = parsed

    if scenario == "jc-curve":
        if ns.r is not None:
            errors.append("jc-curve takes --beta-t (or --beta/--time), not --r")
        if ns.beta_t is not None and (ns.beta is not None or ns.time is not None):
            errors.append("give either --beta-t or the --beta/--time pair, not both")
        if ns.beta_t is not None:
            g = _parse_grid(ns.beta_t)
            if g is None:
                errors.append(f"malformed beta_t grid {ns.beta_t!r}")
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
    else:
        for name, raw in (("beta_t", ns.beta_t), ("beta", ns.beta), ("time", ns.time)):
            if raw is not None:
                errors.append(f"--{name.replace('_', '-')} only applies to jc-curve")
        if ns.r is not None:
            g = _parse_grid(ns.r)
            if g is None:
                errors.append(f"malformed r grid {ns.r!r}")
            else:
                grid = g
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

    fmt = ns.format or "csv"
    if fmt not in FORMATS:
        errors.append(f"unknown format {fmt!r} (choices: csv, json)")
        fmt = "csv"

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
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    if f == 0.0:
        return "0"
    if not math.isfinite(f):
        return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")
    if abs(f) < 1e-4:
        return f"{f:.11e}"
    return f"{f:.12g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return format_number(value)


def check_finite(columns, rows) -> None:
    """Raise NumericalFailureError naming each column that holds NaN or inf."""
    counts = {
        c: sum(
            isinstance(v, (float, np.floating)) and not math.isfinite(v)
            for v in (row.get(c) for row in rows)
        )
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
    payload = []
    for row in rows:
        obj = {}
        for c in columns:
            v = row.get(c)
            obj[c] = v.item() if isinstance(v, np.generic) else v
        obj["config_fingerprint"] = fingerprint
        payload.append(obj)
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# scenarios: each runner returns (rows, max_dev), every row a dict whose keys
# are the record columns in order
# ---------------------------------------------------------------------------


def run_jc_curve(cfg: RunConfig):
    grid = cfg.grid_values()
    points = jaynes.jc_overlap_curve(cfg.alpha, grid, cfg.m_list, dim=cfg.dim_a)
    return [{**asdict(p), "provenance": "closed_form"} for p in points], None


def run_dc_overlap(cfg: RunConfig):
    rows = []
    max_dev = 0.0
    sat = dc.spacs_overlap_saturation(cfg.alpha)
    for r in cfg.grid_values():
        closed = dc.spacs_overlap_closed(cfg.alpha, float(r))
        numeric = dc.spacs_overlap_numeric(cfg.alpha, float(r), dim=cfg.dim_a)
        dev = abs(closed - numeric)
        max_dev = max(max_dev, dev)
        rows.append(
            {
                "r": float(r),
                "overlap_sq_closed": closed,
                "overlap_sq_numeric": numeric,
                "abs_deviation": dev,
                "saturation": sat,
                "provenance": "both",
            }
        )
    return rows, max_dev


def _dc_dims(cfg: RunConfig, r: float) -> tuple[int, int]:
    auto_a, auto_b = dc.auto_dims(cfg.alpha, r)
    return cfg.dim_a or auto_a, cfg.dim_b or auto_b


def run_dc_pm(cfg: RunConfig):
    rows = []
    max_dev = 0.0
    for r in cfg.grid_values():
        r = float(r)
        dim_a, dim_b = _dc_dims(cfg, r)
        bad = [m for m in cfg.m_list if m >= dim_b]
        if bad:
            raise ConfigError(
                f"m values {bad} exceed dim_b={dim_b}; raise --dim-b or drop them"
            )
        state = dc.dc_evolve_numeric(
            dc.DcParams(cfg.alpha, r, 0.0, dim_a, dim_b), tol=cfg.tol
        )
        psum = dc.p_m_cumulative(cfg.alpha, r, 60)
        for m in cfg.m_list:
            closed = dc.p_m(cfg.alpha, r, m)
            col = state.amp[:, m]
            numeric = float(np.vdot(col, col).real)
            dev = abs(closed - numeric)
            max_dev = max(max_dev, dev)
            rows.append(
                {
                    "r": r,
                    "m": m,
                    "p_m_closed": closed,
                    "p_m_numeric": numeric,
                    "abs_deviation": dev,
                    "p_sum_m60_closed": psum,
                    "provenance": "both",
                }
            )
    return rows, max_dev


def run_dc_ideal(cfg: RunConfig):
    rows = []
    max_dev = 0.0
    for r in cfg.grid_values():
        r = float(r)
        dim_a, dim_b = _dc_dims(cfg, r)
        params = dc.DcParams(cfg.alpha, r, 0.0, dim_a, dim_b)
        state = dc.dc_evolve_closed(params)
        aeff = params.alpha_eff()
        for m in cfg.m_list:
            if m >= dim_b:
                raise ConfigError(f"m={m} exceeds dim_b={dim_b}")
            try:
                res = dc.conditional_mpacs(state, m, alpha_eff=aeff)
            except EmptyBranchError:
                fidelity, prob = None, 0.0
            else:
                fidelity, prob = res.fidelity, res.prob
                max_dev = max(max_dev, 1.0 - fidelity)
            rows.append(
                {
                    "r": r,
                    "m": m,
                    "alpha_eff_re": aeff.real,
                    "alpha_eff_im": aeff.imag,
                    "fidelity": fidelity,
                    "prob": prob,
                    "provenance": "both",
                }
            )
    return rows, max_dev


def run_verify(cfg: RunConfig):
    rows = [
        {
            "check": name,
            "passed": ok,
            "measured": measured,
            "tolerance": bound,
            "provenance": "both",
        }
        for name, ok, measured, bound in checks.verify(cfg.tol)
    ]
    return rows, None


_RUNNERS = {
    "jc-curve": run_jc_curve,
    "dc-overlap": run_dc_overlap,
    "dc-pm": run_dc_pm,
    "dc-ideal-check": run_dc_ideal,
    "verify": run_verify,
}


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
    if cfg.out:
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
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"pacslab: {exc}", file=sys.stderr)
        return 2
    except PacslabError as exc:
        print(f"pacslab: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"pacslab: numerical failure: overflow ({exc})", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"pacslab: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
