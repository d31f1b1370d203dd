"""Scenario runner: figure-style curve data, closed-form/oracle tables, and
the cross-validation suite, serialized as reproducible CSV or JSON.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(including failed verification checks and non-finite records), 4
unwritable output.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import downconversion as dc
from . import fock, jaynes, pacs, specialfn
from .errors import ConfigError, EmptyBranchError, NumericalFailureError, PacslabError

SCENARIOS = ("jc-curve", "dc-overlap", "dc-pm", "dc-ideal-check", "verify")
FORMATS = ("csv", "json")

_DEFAULT_GRIDS = {
    "jc-curve": (0.0, 6.0, 121),
    "dc-overlap": (0.0, 2.0, 41),
    "dc-pm": (1.0, 1.0, 1),
    "dc-ideal-check": (0.0, 2.0, 9),
    "verify": (0.0, 0.0, 1),
}
_DEFAULT_M_LISTS = {
    "jc-curve": (1, 2, 3),
    "dc-pm": tuple(range(11)),
    "dc-ideal-check": (0, 1, 2, 3, 4),
}


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

_FILE_KEYS = (
    "scenario",
    "alpha",
    "r",
    "beta_t",
    "beta",
    "time",
    "m_list",
    "dim_a",
    "dim_b",
    "tol",
    "out",
    "format",
)


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


def _read_config_file(path: str, errors: list) -> dict:
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
        if key not in _FILE_KEYS:
            errors.append(f"{path}:{lineno}: unknown key {key!r}")
            continue
        values[key] = val
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pacslab",
        description="Photon-added coherent state laboratory: scenario runner",
    )
    ap.add_argument("--scenario", choices=SCENARIOS, default=None)
    ap.add_argument("--alpha", default=None, help="complex literal, e.g. 0.8+0.0i")
    ap.add_argument("--r", default=None, help="squeeze grid start:stop:count or value")
    ap.add_argument(
        "--beta-t", default=None, help="dimensionless interaction grid (jc-curve)"
    )
    ap.add_argument("--beta", default=None, help="coupling in rad/s (with --time)")
    ap.add_argument("--time", default=None, help="time grid in seconds (with --beta)")
    ap.add_argument("--m-list", default=None, help="comma-separated orders")
    ap.add_argument("--dim-a", default=None)
    ap.add_argument("--dim-b", default=None)
    ap.add_argument("--tol", default=None)
    ap.add_argument("--config", default=None, help="flat key = value file")
    ap.add_argument("--out", default=None, help="output path (default: stdout)")
    ap.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
    return ap


def parse_config(argv) -> RunConfig:
    """Resolve flags and optional config file; flags win on conflict.

    Every invalid entry is collected and reported together.
    """
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit:
        raise ConfigError("invalid command line (see --help)")
    errors: list = []
    fvals = _read_config_file(ns.config, errors) if ns.config else {}

    def pick(flag_value, file_key):
        return flag_value if flag_value is not None else fvals.get(file_key)

    scenario = pick(ns.scenario, "scenario") or "verify"
    if scenario not in SCENARIOS:
        errors.append(f"unknown scenario {scenario!r} (choices: {', '.join(SCENARIOS)})")
        scenario = "verify"

    alpha_raw = pick(ns.alpha, "alpha")
    alpha = 0.8 + 0.0j
    if alpha_raw is not None:
        parsed = _parse_complex(str(alpha_raw))
        if parsed is None:
            errors.append(f"malformed alpha {alpha_raw!r}")
        else:
            alpha = parsed

    r_raw = pick(ns.r, "r")
    bt_raw = pick(ns.beta_t, "beta_t")
    beta_raw = pick(ns.beta, "beta")
    time_raw = pick(ns.time, "time")
    grid = _DEFAULT_GRIDS[scenario]
    if scenario == "jc-curve":
        if r_raw is not None:
            errors.append("jc-curve takes --beta-t (or --beta/--time), not --r")
        if bt_raw is not None and (beta_raw is not None or time_raw is not None):
            errors.append("give either --beta-t or the --beta/--time pair, not both")
        if bt_raw is not None:
            g = _parse_grid(str(bt_raw))
            if g is None:
                errors.append(f"malformed beta_t grid {bt_raw!r}")
            else:
                grid = g
        elif beta_raw is not None or time_raw is not None:
            if beta_raw is None or time_raw is None:
                errors.append("--beta and --time must be given together")
            else:
                g = _parse_grid(str(time_raw))
                try:
                    beta = float(str(beta_raw))
                except ValueError:
                    beta = None
                if g is None or beta is None:
                    errors.append("malformed --beta/--time pair")
                else:
                    grid = (beta * g[0], beta * g[1], g[2])
    else:
        for name, raw in (("beta_t", bt_raw), ("beta", beta_raw), ("time", time_raw)):
            if raw is not None:
                errors.append(f"--{name.replace('_', '-')} only applies to jc-curve")
        if r_raw is not None:
            g = _parse_grid(str(r_raw))
            if g is None:
                errors.append(f"malformed r grid {r_raw!r}")
            else:
                grid = g
    start, stop, count = grid
    if count < 1:
        errors.append(f"grid count must be >= 1, got {count}")
    if not (stop >= start >= 0):
        errors.append(f"grid must satisfy stop >= start >= 0, got {start}:{stop}")

    m_list = _DEFAULT_M_LISTS.get(scenario, ())
    m_raw = pick(ns.m_list, "m_list")
    if m_raw is not None:
        parsed = _parse_m_list(str(m_raw))
        if parsed is None:
            errors.append(f"malformed m list {m_raw!r}")
        elif any(m < 0 for m in parsed):
            errors.append(f"m list entries must be nonnegative: {m_raw!r}")
        else:
            m_list = parsed

    dims = {}
    for key, raw in (("dim_a", pick(ns.dim_a, "dim_a")), ("dim_b", pick(ns.dim_b, "dim_b"))):
        dims[key] = None
        if raw is not None:
            try:
                val = int(str(raw))
                if val < 1:
                    raise ValueError
                dims[key] = val
            except ValueError:
                errors.append(f"malformed {key} {raw!r} (positive integer required)")

    tol = 1e-12
    tol_raw = pick(ns.tol, "tol")
    if tol_raw is not None:
        try:
            tol = float(str(tol_raw))
            if tol <= 0:
                raise ValueError
        except ValueError:
            errors.append(f"malformed tol {tol_raw!r} (positive real required)")

    fmt = pick(ns.fmt, "format") or "csv"
    if fmt not in FORMATS:
        errors.append(f"unknown format {fmt!r} (choices: csv, json)")
        fmt = "csv"

    out = ns.out if ns.out is not None else fvals.get("out")

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
        out=out,
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
            if isinstance(v, np.bool_):
                v = bool(v)
            if isinstance(v, (np.floating,)):
                v = float(v)
            if isinstance(v, (np.integer,)):
                v = int(v)
            obj[c] = v
        obj["config_fingerprint"] = fingerprint
        payload.append(obj)
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def run_jc_curve(cfg: RunConfig):
    grid = cfg.grid_values()
    points = jaynes.jc_overlap_curve(cfg.alpha, grid, cfg.m_list, dim=cfg.dim_a)
    columns = ["beta_t", "m", "overlap_modulus", "overlap_sq", "ground_prob", "provenance"]
    rows = [
        {
            "beta_t": p.beta_t,
            "m": p.m,
            "overlap_modulus": p.overlap_modulus,
            "overlap_sq": p.overlap_sq,
            "ground_prob": p.ground_prob,
            "provenance": "closed_form",
        }
        for p in points
    ]
    return columns, rows, None


def run_dc_overlap(cfg: RunConfig):
    columns = [
        "r",
        "overlap_sq_closed",
        "overlap_sq_numeric",
        "abs_deviation",
        "saturation",
        "provenance",
    ]
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
    return columns, rows, max_dev


def _dc_dims(cfg: RunConfig, r: float) -> tuple[int, int]:
    auto_a, auto_b = dc.auto_dims(cfg.alpha, r)
    return cfg.dim_a or auto_a, cfg.dim_b or auto_b


def run_dc_pm(cfg: RunConfig):
    columns = [
        "r",
        "m",
        "p_m_closed",
        "p_m_numeric",
        "abs_deviation",
        "p_sum_m60_closed",
        "provenance",
    ]
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
    return columns, rows, max_dev


def run_dc_ideal(cfg: RunConfig):
    columns = [
        "r",
        "m",
        "alpha_eff_re",
        "alpha_eff_im",
        "fidelity",
        "prob",
        "provenance",
    ]
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
            base = {
                "r": r,
                "m": m,
                "alpha_eff_re": aeff.real,
                "alpha_eff_im": aeff.imag,
                "provenance": "both",
            }
            try:
                res = dc.conditional_mpacs(state, m, alpha_eff=aeff)
            except EmptyBranchError:
                rows.append({**base, "fidelity": None, "prob": 0.0})
                continue
            max_dev = max(max_dev, 1.0 - res.fidelity)
            rows.append({**base, "fidelity": res.fidelity, "prob": res.prob})
    return columns, rows, max_dev


# ---------------------------------------------------------------------------
# verify scenario: the cross-validation suite
# ---------------------------------------------------------------------------


def _interior_rel_dev(lhs: np.ndarray, rhs: np.ndarray, interior: int) -> float:
    block = np.s_[:interior, :interior]
    diff = np.abs(lhs[block] - rhs[block])
    scale = np.maximum(1.0, np.abs(rhs[block]))
    return float(np.max(diff / scale))


def verify_checks(tol: float):
    """Run the cross-validation suite; yields (name, passed, measured, bound)."""
    results = []

    def check(name, measured, bound, larger_is_better=False):
        ok = measured >= bound if larger_is_better else measured <= bound
        results.append((name, bool(ok), float(measured), float(bound)))

    dim = 32
    annih = fock.annihilation_matrix(dim)
    create = fock.creation_matrix(dim)
    comm = annih.entries @ create.entries - create.entries @ annih.entries
    check(
        "ladder_commutator_interior",
        float(np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1)))),
        1e-12,
    )

    alpha = 0.8
    coh = fock.coherent_state(alpha, dim)
    theta = 0.7
    gen = fock.OperatorMatrix(-1j * theta * fock.number_matrix(dim).entries)
    rotated = fock.expm_apply(gen, coh, tol=1e-12)
    target = fock.coherent_state(alpha * np.exp(-1j * theta), dim)
    check("expm_phase_rotation", 1.0 - fock.fidelity(rotated, target), 1e-10)

    back = fock.expm_apply(
        fock.OperatorMatrix(-gen.entries), rotated, tol=1e-12
    )
    check(
        "expm_inverse_pair",
        float(np.max(np.abs(back.amp - coh.amp))),
        1e-10,
    )

    dim24 = 24
    a24 = fock.annihilation_matrix(dim24).entries
    c24 = fock.creation_matrix(dim24).entries
    num = c24 @ a24
    worst = 0.0
    for n in range(1, 9):
        lhs = np.linalg.matrix_power(num, n)
        rhs = np.zeros_like(lhs)
        ck, ak = np.eye(dim24, dtype=complex), np.eye(dim24, dtype=complex)
        for k in range(1, n + 1):
            ck = ck @ c24
            ak = a24 @ ak
            rhs += specialfn.stirling2(n, k) * (ck @ ak)
        worst = max(worst, _interior_rel_dev(lhs, rhs, dim24 - n))
    check("normal_ordering_identity", worst, 1e-9)

    worst = 0.0
    for k in range(1, 7):
        ck = np.linalg.matrix_power(c24, k)
        ak = np.linalg.matrix_power(a24, k)
        lhs = ck @ ak @ c24
        rhs = k * (ck @ np.linalg.matrix_power(a24, k - 1)) + (ck @ c24) @ ak
        worst = max(worst, _interior_rel_dev(lhs, rhs, dim24 - k - 1))
    check("ladder_pushthrough_identity", worst, 1e-9)

    t, x = 0.5, -0.3
    series = sum(t**m * specialfn.laguerre(m, x) for m in range(201))
    exact = math.exp(x * t / (t - 1)) / (1 - t)
    check("laguerre_generating_function", abs(series - exact), 1e-10)

    worst = 0.0
    for a in (0.5, 0.8, 1.5):
        for m in range(6):
            spec = pacs.PacsSpec(a, m)
            numeric = pacs.pacs_state(spec, 64).norm_sq()
            closed = pacs.pacs_norm_sq(spec)
            worst = max(worst, abs(numeric - closed) / closed)
    check("pacs_norm_consistency", worst, 1e-9)

    vecs = [pacs.pacs_state(pacs.PacsSpec(0.8, m), 48, normalized=True) for m in range(5)]
    gram = np.array(
        [[fock.inner_product(u, v) for v in vecs] for u in vecs]
    )
    eigs = np.linalg.eigvalsh(gram)
    off = np.abs(gram[~np.eye(5, dtype=bool)])
    gram_ok = eigs.min() > 1e-8 and np.all(off > 0) and np.all(off < 1)
    results.append(("pacs_gram_independent", bool(gram_ok), float(eigs.min()), 1e-8))

    mean, var = fock.number_moments(
        pacs.pacs_state(pacs.PacsSpec(0.8, 1), 48, normalized=True)
    )
    results.append(("spacs_sub_poissonian", var < mean, var - mean, 0.0))

    state = jaynes.jc_evolve_exact(jaynes.JcParams(0.8, 5.0))
    check("jc_unitarity", abs(state.total_norm_sq() - 1.0), 1e-12)
    results.append(
        ("jc_ground_support", state.field_g.amp[0] == 0.0, abs(state.field_g.amp[0]), 0.0)
    )

    worst = 0.0
    for bt in (0.1, 1.0, 5.0):
        p = jaynes.JcParams(0.8, bt)
        exact = jaynes.jc_evolve_exact(p)
        series = jaynes.jc_evolve_series(p, 40)
        worst = max(worst, 1.0 - jaynes.joint_fidelity(series, exact))
    check("jc_series_vs_exact", worst, 1e-12)

    pts = jaynes.jc_overlap_curve(0.8, [1e-3], [1, 2, 3])
    mods = {p.m: p.overlap_modulus for p in pts}
    anchors_ok = (
        abs(mods[1] - 1.0) <= 1e-4
        and abs(mods[2] - 0.73980) <= 1e-4
        and abs(mods[3] - 0.39261) <= 1e-4
        and mods[1] > mods[2] > mods[3]
    )
    results.append(
        ("jc_overlap_anchors", bool(anchors_ok), float(abs(mods[2] - 0.73980)), 1e-4)
    )

    exp = jaynes.mpacs_expansion(jaynes.JcParams(0.8, 0.5), n_max=20)
    check("mpacs_reconstruction", 1.0 - exp.best_fidelity, 1e-8)

    worst = 0.0
    grid = [(a, r, phi) for a in (0.5, 0.8) for r in (0.1, 0.5, 1.0) for phi in (0.0, math.pi / 3)]
    grid.append((0.8, 2.0, 0.0))
    for a, r, phi in grid:
        da, db = dc.auto_dims(a, r)
        params = dc.DcParams(a, r, phi, da, db)
        closed = dc.dc_evolve_closed(params)
        numeric = dc.dc_evolve_numeric(params, tol=tol)
        ov = abs(np.vdot(closed.amp, numeric.amp)) ** 2
        fid = ov / (closed.norm_sq() * numeric.norm_sq())
        worst = max(worst, 1.0 - fid)
    check("dc_factorization", worst, 1e-8)

    worst = 0.0
    for a in (0.5, 0.8, 1.5):
        for r in (0.1, 1.0, 2.0):
            da, db = dc.auto_dims(a, r)
            params = dc.DcParams(a, r, 0.0, da, db)
            state2 = dc.dc_evolve_closed(params)
            for m in range(5):
                res = dc.conditional_mpacs(state2, m, alpha_eff=params.alpha_eff())
                worst = max(worst, 1.0 - res.fidelity)
    check("dc_ideal_pacs", worst, 1e-10)

    check("pm_closure", abs(dc.p_m_cumulative(0.8, 1.0, 60) - 1.0), 1e-10)

    da, db = dc.auto_dims(0.8, 1.0)
    numeric_state = dc.dc_evolve_numeric(dc.DcParams(0.8, 1.0, 0.0, da, db), tol=tol)
    worst = 0.0
    for m in range(7):
        col = numeric_state.amp[:, m]
        worst = max(worst, abs(dc.p_m(0.8, 1.0, m) - float(np.vdot(col, col).real)))
    check("pm_vs_projection", worst, 1e-8)

    worst = 0.0
    for r in (0.1, 0.5, 1.0, 2.0):
        worst = max(
            worst,
            abs(dc.spacs_overlap_closed(0.8, r) - dc.spacs_overlap_numeric(0.8, r)),
        )
    check("overlap_closed_vs_oracle", worst, 1e-8)

    endpoints_ok = dc.spacs_overlap_closed(0.8, 0.0) == 1.0 and (
        abs(dc.spacs_overlap_closed(0.8, 20.0) - dc.spacs_overlap_saturation(0.8)) <= 1e-6
    )
    results.append(
        (
            "overlap_endpoints",
            bool(endpoints_ok),
            abs(dc.spacs_overlap_closed(0.8, 20.0) - dc.spacs_overlap_saturation(0.8)),
            1e-6,
        )
    )

    seed = dc.seed_amplitude(0.8, 1.0)
    da, db = dc.auto_dims(seed, 1.0)
    params = dc.DcParams(seed, 1.0, 0.0, da, db)
    res = dc.conditional_mpacs(dc.dc_evolve_closed(params), 1, alpha_eff=0.8)
    check("seed_round_trip", 1.0 - res.fidelity, 1e-10)

    return results


def run_verify(cfg: RunConfig):
    results = verify_checks(cfg.tol)
    columns = ["check", "passed", "measured", "tolerance", "provenance"]
    rows = [
        {
            "check": name,
            "passed": ok,
            "measured": measured,
            "tolerance": bound,
            "provenance": "both",
        }
        for name, ok, measured, bound in results
    ]
    return columns, rows, None


_RUNNERS = {
    "jc-curve": run_jc_curve,
    "dc-overlap": run_dc_overlap,
    "dc-pm": run_dc_pm,
    "dc-ideal-check": run_dc_ideal,
    "verify": run_verify,
}


def run(cfg: RunConfig) -> int:
    """Execute the scenario, write records, print the one-line summary."""
    columns, rows, max_dev = _RUNNERS[cfg.scenario](cfg)
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
    except OSError as exc:
        print(f"pacslab: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
