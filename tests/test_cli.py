import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacslab import cli
from pacslab.errors import ConfigError, NumericalFailureError


def test_defaults_empty_args():
    cfg = cli.parse_config([])
    assert cfg.scenario == "verify"
    assert cfg.alpha == 0.8 + 0.0j
    assert cfg.tol == 1e-12
    assert cfg.fmt == "csv"


def test_grid_syntax():
    cfg = cli.parse_config(["--scenario", "dc-overlap", "--r", "0:2:41"])
    vals = cfg.grid_values()
    assert len(vals) == 41
    assert vals[0] == 0.0
    assert vals[-1] == 2.0
    single = cli.parse_config(["--scenario", "dc-pm", "--r", "1"])
    assert list(single.grid_values()) == [1.0]


def test_alpha_complex_literal():
    cfg = cli.parse_config(["--alpha", "0.8+0.0i", "--scenario", "dc-overlap"])
    assert cfg.alpha == 0.8 + 0.0j
    cfg = cli.parse_config(["--alpha", "0.5+0.25i", "--scenario", "dc-overlap"])
    assert cfg.alpha == 0.5 + 0.25j


def test_flag_overrides_file(tmp_path):
    conf = tmp_path / "run.cfg"
    conf.write_text(
        "# comment line\nscenario = dc-overlap\nalpha = 0.5\nr = 0:1:3\n",
        encoding="utf-8",
    )
    cfg = cli.parse_config(["--config", str(conf), "--alpha", "0.8"])
    assert cfg.scenario == "dc-overlap"
    assert cfg.alpha == 0.8 + 0.0j  # flag wins
    assert cfg.grid == (0.0, 1.0, 3)


def test_unknown_file_keys_listed():
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "bad.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bogus = 1\nscenario = dc-pm\nwhatever = x\n")
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(["--config", path])
        msg = str(exc.value)
        assert "bogus" in msg
        assert "whatever" in msg


def test_malformed_values_all_reported():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(
            [
                "--scenario",
                "dc-pm",
                "--alpha",
                "zz",
                "--r",
                "1:x:3",
                "--m-list",
                "1,q",
                "--tol",
                "-3",
            ]
        )
    msg = str(exc.value)
    for token in ("alpha", "grid", "m list", "tol"):
        assert token in msg


def test_scenario_grid_flag_mismatch():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(["--scenario", "jc-curve", "--r", "0:1:5"])
    assert str(exc.value).splitlines()[1:] == ["  --r does not apply to jc-curve"]
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(["--scenario", "dc-pm", "--beta-t", "0:1:5"])
    assert str(exc.value).splitlines()[1:] == ["  --beta-t does not apply to dc-pm"]


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["--scenario="], None,
         "unknown scenario '' (choices: jc-curve, dc-overlap, dc-pm, dc-ideal-check, verify)"),
        (["--scenario", "dc-pm", "--format="], None, "unknown format '' (choices: csv, json)"),
        (["--scenario", "dc-pm", "--config="], None,
         "config file: [Errno 2] No such file or directory: ''"),
        (["--scenario", "dc-pm", "--out="], None, "out must name a file, got ''"),
        ([], "scenario =\n",
         "unknown scenario '' (choices: jc-curve, dc-overlap, dc-pm, dc-ideal-check, verify)"),
        ([], "scenario = dc-pm\nformat =\n", "unknown format '' (choices: csv, json)"),
        ([], "scenario = dc-pm\nout =\n", "out must name a file, got ''"),
    ],
)
def test_empty_values_are_configuration_errors(tmp_path, capsys, args, config, message):
    # an empty value once meant an absent one: verify ran, CSV was written,
    # no file was read or the records went to stdout
    if config is not None:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        args = args + ["--config", str(tmp_path / "run.cfg")]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", ["pacslab: invalid configuration:", f"  {message}"])


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_prints_usage_and_runs_nothing(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    # help wins over an unknown flag, and no scenario runs
    assert cli.main(["--scenario", "dc-pm", "--bogus", flag, "--out", str(out)]) == 0
    stdout, stderr = capsys.readouterr()
    assert stdout.startswith("usage: pacslab [-h] [--scenario VALUE]")
    assert all(f"[--{key.replace('_', '-')} VALUE]" in stdout for key in cli.OPTIONS)
    assert stderr == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args, alpha",
    [
        (["--alpha", "-0.8+0.2i"], -0.8 + 0.2j),
        (["--alpha", "-1j"], -1j),
        (["--alpha=-0.8+0.2i"], -0.8 + 0.2j),
    ],
)
def test_alpha_with_a_leading_minus_parses(args, alpha):
    assert cli.parse_config(["--scenario", "dc-pm", *args]).alpha == alpha


def test_negative_grid_value_is_read_and_rejected():
    with pytest.raises(ConfigError, match="grid must satisfy stop >= start >= 0, got -1.0:-1.0"):
        cli.parse_config(["--scenario", "dc-pm", "--r", "-1"])


def test_unknown_stray_and_valueless_tokens_named_together(tmp_path, capsys):
    conf = tmp_path / "run.cfg"
    conf.write_text("bogus = 1\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    # an abbreviated flag, a file key spelt as a flag, a positional argument
    # and a flag without a value, next to a file error and a bad value
    args = ["--scen=dc-pm", "--dim_a", "jc-curve", "--config", str(conf), "--out", str(out),
            "--tol", "2", "--alpha"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        "pacslab: invalid configuration:",
        "  unknown argument '--scen=dc-pm'",
        "  unknown argument '--dim_a'",
        "  unknown argument 'jc-curve'",
        "  --alpha needs a value",
        f"  {conf}:1: unknown key 'bogus'",
        "  malformed tol '2' (real in (0, 1) required)",
    ]
    assert not out.exists()


def test_repeated_flag_keeps_its_last_value():
    cfg = cli.parse_config(
        ["--scenario", "dc-pm", "--r", "0.5", "--alpha", "1", "--r=0.7", "--alpha", "-2"]
    )
    assert (cfg.grid, cfg.alpha) == ((0.7, 0.7, 1), -2 + 0j)


def test_forced_truncations_pass_the_laguerre_order_cap(tmp_path, capsys):
    # auto_dims caps the idler truncation at 513 orders, which r = 2.4 needs
    # more than; two forced dims never ask it
    for scenario in ("dc-ideal-check", "dc-pm"):
        out = tmp_path / f"{scenario}.csv"
        args = ["--scenario", scenario, "--r", "2.4", "--dim-a", "800", "--dim-b", "700",
                "--m-list", "0,1,2", "--out", str(out)]
        assert cli.main(args) == 0, scenario
        capsys.readouterr()
        text = out.read_text(encoding="utf-8")
        assert len(text.splitlines()) == 4 and _records_physical(text, "csv"), scenario


def test_a_forced_dim_b_sizes_dim_a(tmp_path, capsys):
    # a missing dim_a is sized from the forced dim_b: the records equal those
    # of both dims forced; auto_dims' own dim_a (72 at r = 1) once fell short
    # of dim_b's column reach, and at r = 2.4 auto_dims hit its 513-order cap
    for scenario, r, dim_a, dim_b in (("dc-ideal-check", "1", "225", "200"),
                                      ("dc-ideal-check", "2.4", "722", "700"),
                                      ("dc-pm", "2.4", "722", "700")):
        texts = []
        for dims in (["--dim-b", dim_b], ["--dim-a", dim_a, "--dim-b", dim_b]):
            out = tmp_path / f"{scenario}-{r}-{len(dims)}.csv"
            args = ["--scenario", scenario, "--r", r, "--m-list", "0,1,2", "--out", str(out)]
            assert cli.main(args + dims) == 0, (scenario, r, dims)
            texts.append(out.read_bytes())
        capsys.readouterr()
        assert texts[0] == texts[1] and _records_physical(texts[0].decode(), "csv")
    # an m order beyond a forced dim_b is named before any sizing, here
    # before the cap that r = 3 would hit
    args = ["--scenario", "dc-pm", "--dim-b", "5", "--m-list", "0,7", "--r", "3"]
    assert cli.main(args) == 3
    assert capsys.readouterr().err == (
        "pacslab: numerical failure: dim_b=5 leaves no room for m=7 (tail mass 1.000e+00)\n"
    )


def test_beta_time_pair_builds_dimensionless_grid(capsys):
    cfg = cli.parse_config(
        ["--scenario", "jc-curve", "--beta", "6283185.3", "--time", "0:3e-05:31"]
    )
    assert cfg.grid[0] == 0.0
    assert cfg.grid[1] == pytest.approx(6283185.3 * 3e-05)
    assert cfg.grid[2] == 31
    # a pair next to --beta-t, half a pair and a malformed half exit 2 and
    # write no records
    cases = [
        (["--beta-t", "0:1:3", "--beta", "2", "--time", "0:1:3"],
         "give either --beta-t or the --beta/--time pair, not both"),
        (["--beta", "2"], "--beta and --time must be given together"),
        (["--time", "0:1:3"], "--beta and --time must be given together"),
        (["--beta", "fast", "--time", "0:1:3"], "malformed --beta/--time pair"),
        (["--beta", "2", "--time", "0:1"], "malformed --beta/--time pair"),
    ]
    for args, message in cases:
        assert cli.main(["--scenario", "jc-curve", *args]) == 2, args
        out, err = capsys.readouterr()
        assert (out, err.splitlines()) == (
            "", ["pacslab: invalid configuration:", f"  {message}"]
        ), args


def test_format_number_rules():
    assert cli.format_number(0.0) == "0"
    assert cli.format_number(None) == ""
    assert cli.format_number(1) == "1"
    assert cli.format_number(0.5337248041) == "0.5337248041"
    assert cli.format_number(12345.678901234) == "12345.6789012"
    assert cli.format_number(5e-05) == "5.00000000000e-05"
    assert cli.format_number(2e-4) == "0.0002"
    assert [cli.format_number(float(x)) for x in ("nan", "inf", "-inf")] == [
        "nan",
        "inf",
        "-inf",
    ]


def test_jc_curve_csv_columns_and_nulls(tmp_path):
    out = tmp_path / "jc.csv"
    rc = cli.main(
        [
            "--scenario",
            "jc-curve",
            "--alpha",
            "0.8+0.0i",
            "--beta-t",
            "0:0.02:3",
            "--m-list",
            "1,2,3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("beta_t,m,overlap_modulus,overlap_sq,ground_prob")
    assert len(lines) == 1 + 3 * 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "" and first[3] == ""  # null markers at the empty branch


def test_dc_ideal_empty_branches_are_blank(capsys):
    # p_2 = 2.5e-320 at r = 1e-80 is subnormal, where the normalized state
    # scored fidelity 1.00025679996: the branch is empty, blank with prob 0
    assert cli.main(["--scenario", "dc-ideal-check", "--r", "1e-80", "--m-list", "0,1,2"]) == 0
    out, err = capsys.readouterr()
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[1], row[4], row[5]) for row in rows] == [
        ("0", "1", "1"),
        ("1", "1", "1.64000000000e-160"),
        ("2", "", "0"),
    ]
    assert err == "dc-ideal-check: points=3 max_oracle_deviation=0\n"
    # at r = 0 every branch with m > 0 is empty: nothing was compared
    assert cli.main(["--scenario", "dc-ideal-check", "--r", "0", "--m-list", "1,2"]) == 0
    out, err = capsys.readouterr()
    assert [line.split(",")[4:6] for line in out.splitlines()[1:]] == [["", "0"]] * 2
    assert err == "dc-ideal-check: points=2 max_oracle_deviation=n/a\n"


def test_json_output_keys_and_fingerprint(tmp_path):
    out = tmp_path / "pm.json"
    args = [
        "--scenario",
        "dc-pm",
        "--r",
        "0.5",
        "--m-list",
        "0,1,2",
        "--format",
        "json",
        "--out",
        str(out),
    ]
    assert cli.main(args) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(payload, list) and len(payload) == 3
    keys = set(payload[0])
    assert {"r", "m", "p_m_closed", "p_m_numeric", "config_fingerprint"} <= keys
    assert all(obj.keys() == payload[0].keys() for obj in payload)
    fp = payload[0]["config_fingerprint"]
    assert cli.parse_config(args).fingerprint() == fp


@pytest.mark.parametrize(
    "args",
    [
        ["--scenario", "jc-curve", "--beta-t", "0:2:41", "--m-list", "1,2,3"],
        ["--scenario", "dc-pm", "--r", "0.8", "--m-list", "0,1,2,3"],
        ["--scenario", "dc-overlap", "--r", "0:1.5:7", "--format", "json"],
    ],
)
def test_repeat_runs_are_byte_identical(tmp_path, args):
    out1, out2 = tmp_path / "a.dat", tmp_path / "b.dat"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_validation_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    conf = tmp_path / "overlap.cfg"
    conf.write_text("scenario = dc-overlap\ntol = 0.5\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"scenario = dc-pm\nalpha = 0.8 # \xff\n")
    cases = [
        ["--scenario", "nope"],
        ["--scenario", "dc-pm", "--r", "bad:grid"],
        # non-finite amplitudes, tolerances outside (0, 1), infinite grids
        *(["--scenario", s, "--alpha", "nan"] for s in cli.SCENARIOS),
        ["--scenario", "jc-curve", "--alpha", "nan+1i"],
        ["--scenario", "dc-pm", "--alpha", "inf"],
        ["--scenario", "dc-pm", "--alpha", "1e309"],
        *(["--scenario", "dc-pm", "--tol", t] for t in ("inf", "nan", "100", "1")),
        ["--scenario", "dc-pm", "--r", "0:inf:3"],
        ["--scenario", "dc-overlap", "--r", "nan:1:3"],
        ["--scenario", "jc-curve", "--beta-t", "0:inf:3"],
        ["--scenario", "jc-curve", "--beta", "1e308", "--time", "0:1e10:3"],
        # options the scenario does not read, from a flag or from the file
        ["--scenario", "dc-overlap", "--r", "0:1:3", "--m-list", "5", "--dim-b", "3",
         "--tol", "0.5"],
        ["--scenario", "verify", "--alpha", "3", "--r", "1"],
        ["--scenario", "jc-curve", "--dim-b", "2", "--tol", "0.5"],
        ["--scenario", "dc-ideal-check", "--tol", "0.1"],
        ["--config", str(conf)],
        # a config file that is not UTF-8
        ["--config", str(latin1)],
    ]
    for args in cases:
        assert cli.main(args + ["--out", str(out)]) == 2, args
        err = capsys.readouterr().err
        assert "pacslab: invalid" in err, args
        assert not out.exists(), args


def test_non_finite_inputs_named():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(
            ["--scenario", "dc-pm", "--alpha", "nan", "--r", "0:inf:3", "--tol", "inf"]
        )
    assert str(exc.value).splitlines()[1:] == [
        "  alpha must be finite, got 'nan'",
        "  grid endpoints must be finite, got 0.0:inf",
        "  malformed tol 'inf' (real in (0, 1) required)",
    ]


def test_exit_code_numerical_failure(tmp_path, capsys):
    out = tmp_path / "x.csv"
    cases = [
        # idler truncation forced far below what r = 2 needs
        (["--scenario", "dc-ideal-check", "--r", "2", "--dim-a", "48", "--dim-b", "24"],
         "dims (48, 24) leave closed-form norm short of 1"),
        # automatic idler truncations beyond the Laguerre order limit
        (["--scenario", "dc-pm", "--alpha", "0.8", "--r", "3"], "no idler"),
        (["--scenario", "dc-ideal-check", "--alpha", "5", "--r", "3"], "no idler"),
        # photon-added targets that do not fit the cavity truncation
        (["--scenario", "jc-curve", "--m-list", "1,70"], "dim=32 leaves no room for m=70"),
        (["--scenario", "jc-curve", "--m-list", "1,32"], "dim=32 leaves no room for m=32"),
        (["--scenario", "jc-curve", "--dim-a", "1"], "dim=1 leaves no room for m=1"),
        (["--scenario", "dc-overlap", "--dim-a", "1"], "dim=1 leaves no room for m=1"),
        # m orders beyond the idler truncation, caught before any evolution
        (["--scenario", "dc-pm", "--dim-b", "5", "--m-list", "0,7"],
         "dim_b=5 leaves no room for m=7"),
        (["--scenario", "dc-ideal-check", "--dim-b", "5", "--m-list", "0,7"],
         "dim_b=5 leaves no room for m=7"),
        # Rabi phases beyond 2^52, where cos/sin keep no correct digit
        (["--scenario", "jc-curve", "--beta", "1e200", "--time", "1e100"], "Rabi phase"),
        (["--scenario", "jc-curve", "--beta-t", "0:1e16:3"], "Rabi phase"),
        # cosh r and |alpha|^2 beyond the double range
        (["--scenario", "dc-overlap", "--r", "0:800:3"], "overflow"),
        (["--scenario", "dc-pm", "--r", "1e308"], "overflow"),
        (["--scenario", "dc-overlap", "--alpha", "1e200"], "overflow"),
        # a seed whose vacuum amplitude underflows, caught before the
        # 1e8 x 24 grid is allocated
        (["--scenario", "dc-ideal-check", "--alpha", "1e4", "--r", "0"],
         "exp(-|alpha|^2/2) = 0 underflows the double range"),
    ]
    for args, reason in cases:
        assert cli.main(args + ["--out", str(out)]) == 3, args
        err = capsys.readouterr().err
        assert err.startswith("pacslab: numerical failure:") and reason in err, args
        assert not out.exists(), args


# the exact stderr line of truncations too small for the state they must
# hold, tail mass digits included: the coherent check (dc-pm), pacs_state's
# at dim - m (jc-curve, dc-overlap, below and above the peak of |alpha| = 30)
# and dc_evolve_closed's at its headroom and on its norm (dc-ideal-check)
TRUNCATION_FAILURES = [
    (["--scenario", "jc-curve", "--dim-a", "5"],
     "dim=5 too small for pacs(alpha=(0.8+0j), m=1) (tail mass 4.213e-03)"),
    (["--scenario", "jc-curve", "--alpha", "30", "--dim-a", "40"],
     "dim=40 too small for pacs(alpha=(30+0j), m=1) (tail mass 1.000e+00)"),
    (["--scenario", "jc-curve", "--alpha", "30", "--dim-a", "900"],
     "dim=900 too small for pacs(alpha=(30+0j), m=1) (tail mass 5.177e-01)"),
    (["--scenario", "dc-overlap", "--alpha", "2.5", "--dim-a", "20"],
     "dim=20 too small for pacs(alpha=(2.5+0j), m=1) (tail mass 3.028e-05)"),
    (["--scenario", "dc-pm", "--alpha", "3", "--dim-a", "16"],
     "dim=16 too small for coherent amplitude (3+0j) (tail mass 2.204e-02)"),
    (["--scenario", "dc-ideal-check", "--dim-a", "20", "--dim-b", "8"],
     "dims (20, 8) leave closed-form norm short of 1 (tail mass 4.005e-05)"),
    (["--scenario", "dc-ideal-check", "--dim-a", "12", "--dim-b", "10", "--r", "0.5"],
     "dim_a=12 too small for top column of dim_b=10 (tail mass 1.464e-02)"),
    (["--scenario", "dc-ideal-check", "--alpha", "30", "--dim-a", "1000", "--r", "0.1"],
     "dim_a=1000 too small for top column of dim_b=34 (tail mass 6.239e-03)"),
]


@pytest.mark.parametrize(
    "args, reason",
    TRUNCATION_FAILURES,
    ids=["-".join(args[1:]).replace("--", "") for args, _ in TRUNCATION_FAILURES],
)
def test_truncation_failures_pinned(tmp_path, capsys, args, reason):
    out = tmp_path / "x.csv"
    assert cli.main(args + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == f"pacslab: numerical failure: {reason}\n"
    assert not out.exists()


# the exact stderr line of m orders out of reach, raised before any record:
# above the Laguerre order cap, which the closed-form p_m cannot pass, also
# under a forced dim_b that fits them; and photon-added targets whose
# amplitudes (m = 400) or only their squared norm (m = 200) leave the double
# range, once a numpy warning and then "non-finite records" or a fidelity of 0
RANGE_FAILURES = [
    (["--scenario", "dc-pm", "--r", "1", "--dim-b", "700", "--m-list", "600"],
     "m=600 exceeds the Laguerre order cap 512"),
    (["--scenario", "dc-ideal-check", "--r", "1", "--dim-b", "700", "--m-list", "0,513"],
     "m=513 exceeds the Laguerre order cap 512"),
    (["--scenario", "jc-curve", "--m-list", "400", "--dim-a", "500", "--beta-t", "1"],
     "pacs(alpha=(0.8+0j), m=400) at dim=500 leaves the double range (squared norm nan)"),
    (["--scenario", "jc-curve", "--m-list", "200", "--dim-a", "300", "--beta-t", "1"],
     "pacs(alpha=(0.8+0j), m=200) at dim=300 leaves the double range (squared norm inf)"),
    (["--scenario", "dc-ideal-check", "--r", "1", "--dim-b", "450", "--m-list", "400"],
     "pacs(alpha=(0.5184434189311083+0j), m=400) at dim=475 leaves the double range "
     "(squared norm nan)"),
]


@pytest.mark.parametrize(
    "args, reason",
    RANGE_FAILURES,
    ids=["-".join(args[1:]).replace("--", "") for args, _ in RANGE_FAILURES],
)
def test_orders_out_of_range_pinned(tmp_path, capsys, args, reason):
    out = tmp_path / "x.csv"
    assert cli.main(args + ["--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"pacslab: numerical failure: {reason}\n")
    assert not out.exists()


def test_memory_error_exits_3_without_output(tmp_path, capsys, monkeypatch):
    # a forced truncation too large to allocate; raised, not allocated, since
    # whether a huge allocation fails depends on the host's overcommit policy
    def runner(cfg):
        raise MemoryError("Unable to allocate 35.8 GiB")

    monkeypatch.setitem(cli._RUNNERS, "dc-pm", runner)
    out = tmp_path / "pm.csv"
    assert cli.main(["--scenario", "dc-pm", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pacslab: numerical failure:") and "35.8 GiB" in err
    assert not out.exists()


def test_non_finite_records_exit_3_without_output(tmp_path, capsys):
    # exp(-|alpha|^2 / 2) underflows, so the oracle's coherent state raises
    out = tmp_path / "overlap.csv"
    rc = cli.main(["--scenario", "dc-overlap", "--alpha", "40", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "exp(-|alpha|^2/2) = 0 underflows" in capsys.readouterr().err


def test_check_finite_names_each_column():
    rows = [
        {"r": 0.0, "x": float("nan"), "y": 1.0, "tag": "both"},
        {"r": 1.0, "x": 2.0, "y": float("inf"), "tag": "both"},
    ]
    with pytest.raises(NumericalFailureError) as exc:
        cli.check_finite(["r", "x", "y", "tag"], rows)
    assert str(exc.value) == "non-finite records in x (1 of 2 rows), y (1 of 2 rows)"
    cli.check_finite(["r", "tag"], rows)


def test_unread_options_named():
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(["--scenario", "verify", "--alpha", "3", "--r", "1", "--tol", "1e-10"])
    assert str(exc.value).splitlines()[1:] == [
        "  --alpha does not apply to verify",
        "  --r does not apply to verify",
    ]


# sha256 of the records of every scenario at its defaults; a change that moves
# a record byte on purpose updates the digest and says which column moved
DEFAULT_RECORD_DIGESTS = {
    ("jc-curve", "csv"): "3c01dd296b4c4b539a2b8c669ae5a583c6ffee3f7b7ccccdb6595e0aea2033c6",
    ("jc-curve", "json"): "81eabf79b9743e983a4ce89630cf781473b5d2915dbc6d6d436af98ae8a350ab",
    ("dc-overlap", "csv"): "f4c8828b4f4c185b9ef066632a1d7fb5a51be203bda92185239e223313684d99",
    ("dc-overlap", "json"): "f5efd27c326f8508fbad8089273a9d30d157426cd94e635d4b8da2873e519ad1",
    ("dc-pm", "csv"): "59b7e3b51fa20202acb4bad988318da775fa3e052f272e4df9c1bd20c2dfc4ee",
    ("dc-pm", "json"): "b9706bbf41d89edab79ecc80d9a98798fa2f43efb67574670300b6de74581d79",
    ("dc-ideal-check", "csv"): "36237c0a535c377c78536d42020ae38b154a02f4da38a738c683ddc59cbc990c",
    ("dc-ideal-check", "json"): "3ca486a400dcab254e1e4039c6642edc676ae30e2e7868edbf78041a15fa9c23",
    ("verify", "csv"): "96aedfaa113aff3b8cf548689c53cf3146ba1b828577f10759f75f634229d33b",
    ("verify", "json"): "94947800031f7a4bfcc2b6fc8f11d75d127bcd54d63b736e2fc5e6d276d5f3a6",
}


def test_default_records_pinned(tmp_path):
    digests = {}
    for scenario in cli.SCENARIOS:
        for fmt in cli.FORMATS:
            out = tmp_path / f"{scenario}.{fmt}"
            cli.main(["--scenario", scenario, "--format", fmt, "--out", str(out)])
            digests[scenario, fmt] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == DEFAULT_RECORD_DIGESTS


def test_default_records_hold_across_blas_thread_counts(tmp_path):
    """The pinned records under one, two and four OpenBLAS threads: no
    library sum hands OpenBLAS more than one grid row or one state, so no
    thread split reorders a sum.  OpenBLAS kernel variants
    (OPENBLAS_CORETYPE) stay out: their kernels add a row's terms in another
    order, and 8 of 10 digests move under Prescott, 4 under Haswell."""
    code = (
        "import sys, pacslab.cli as cli\n"
        "for scenario in cli.SCENARIOS:\n"
        "    for fmt in cli.FORMATS:\n"
        "        out = f'{sys.argv[1]}/{scenario}.{fmt}'\n"
        "        cli.main(['--scenario', scenario, '--format', fmt, '--out', out])\n"
    )
    for threads in ("1", "2", "4"):
        out = tmp_path / threads
        out.mkdir()
        _fresh_python(code, str(out), OPENBLAS_NUM_THREADS=threads)
        digests = {
            (scenario, fmt): hashlib.sha256((out / f"{scenario}.{fmt}").read_bytes()).hexdigest()
            for scenario, fmt in DEFAULT_RECORD_DIGESTS
        }
        assert digests == DEFAULT_RECORD_DIGESTS, threads


def test_record_cells_are_plain_python_values():
    # every scenario's rows hold exact builtins, so the writers need no numpy
    # case: np.float64 subclasses float, np.bool_ and np.int64 fail here
    plain = (type(None), bool, int, float, str)
    runs = [["--scenario", scenario] for scenario in cli.SCENARIOS]
    runs.append(["--scenario", "jc-curve", "--beta", "6283185.3", "--time", "0:3e-05:31"])
    for args in runs:
        cfg = cli.parse_config(args)
        rows, _ = cli._RUNNERS[cfg.scenario](cfg)
        odd = {(c, type(v).__name__) for row in rows for c, v in row.items() if type(v) not in plain}
        assert odd == set(), args


def test_exit_code_unwritable_output(capsys, monkeypatch):
    rc = cli.main(
        ["--scenario", "dc-pm", "--r", "0.5", "--m-list", "0", "--out", "/nonexistent/dir/x.csv"]
    )
    assert rc == 4
    capsys.readouterr()

    # records streamed to a stdout that cannot be written also exit 4
    class Closed:
        def write(self, text):
            raise OSError("stdout is closed")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert cli.main(["--scenario", "dc-pm", "--r", "0.5", "--m-list", "0"]) == 4
    assert capsys.readouterr().err == "pacslab: i/o error: stdout is closed\n"


VERIFY_CELLS = [
    ("ladder_commutator_interior", "1.00000000000e-12"),
    ("expm_phase_rotation", "1.00000000000e-10"),
    ("expm_inverse_pair", "1.00000000000e-10"),
    ("normal_ordering_identity", "1.00000000000e-09"),
    ("ladder_pushthrough_identity", "1.00000000000e-09"),
    ("laguerre_generating_function", "1.00000000000e-10"),
    ("pacs_norm_consistency", "1.00000000000e-09"),
    ("pacs_gram_independent", "1.00000000000e-08"),
    ("spacs_sub_poissonian", "0"),
    ("jc_unitarity", "1.00000000000e-12"),
    ("jc_ground_support", "0"),
    ("jc_series_vs_exact", "1.00000000000e-12"),
    ("jc_overlap_anchors", "0.0001"),
    ("mpacs_reconstruction", "1.00000000000e-08"),
    ("dc_factorization", "1.00000000000e-08"),
    ("dc_ideal_pacs", "1.00000000000e-10"),
    ("pm_closure", "1.00000000000e-10"),
    ("pm_vs_projection", "1.00000000000e-08"),
    ("overlap_closed_vs_oracle", "1.00000000000e-08"),
    ("overlap_endpoints", "1.00000000000e-06"),
    ("seed_round_trip", "1.00000000000e-10"),
]


def test_verify_aggregation_contract(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    rc = cli.main(["--scenario", "verify", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "check,passed,measured,tolerance,provenance"
    rows = [line.split(",") for line in lines[1:]]
    # a dropped, renamed, reordered or re-bounded check breaks the contract
    assert [(row[0], row[3]) for row in rows] == VERIFY_CELLS
    failed = {row[0] for row in rows if row[1] == "false"}
    # exit 0 iff every check passed; the one documented closed-form/oracle
    # discrepancy keeps the suite red until the expression itself is fixed
    assert rc == (0 if not failed else 3)
    assert failed == {"overlap_closed_vs_oracle"}
    summary = capsys.readouterr().out
    assert "verify: checks=" in summary


def test_verify_json_output(capsys):
    rc = cli.main(["--scenario", "verify", "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert all(type(rec["passed"]) is bool for rec in records)
    assert {rec["check"] for rec in records if not rec["passed"]} == {
        "overlap_closed_vs_oracle"
    }


def _fresh_python(code, *args, **environ):
    """stdout lines of `python -c code args` in a fresh interpreter that
    imports this checkout's pacslab, with ``environ`` added to its
    environment."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; importing it costs about half of a CLI call
    code = (
        "import sys, pacslab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code) == ["[]"]


def test_csv_runs_load_no_hashlib_or_json(tmp_path):
    # only the JSON records use them; hashlib loads OpenSSL's libcrypto, and
    # the flags are read without argparse
    code = (
        "import sys, pacslab.cli as cli\n"
        "codes = []\n"
        f"for scenario in {cli.SCENARIOS!r}:\n"
        "    out = f'{sys.argv[1]}/{scenario}.csv'\n"
        "    codes.append(cli.main(['--scenario', scenario, '--format', 'csv', '--out', out]))\n"
        "print(codes, sorted({'argparse', 'hashlib', '_hashlib', 'json'} & set(sys.modules)))"
    )
    # the summaries come first; verify exits 3 on its red-by-design check
    assert _fresh_python(code, str(tmp_path))[-1] == "[0, 0, 0, 0, 3] []"


# totality: every scenario, given only options it reads, ends in a
# documented exit code, and exit 0 writes only finite, physical records

_SPECIAL_ALPHAS = ["nan", "inf", "nan+1i", "1e4", "1e8", "1e154", "1e200", "1e309", "40"]
_ENDPOINTS = st.one_of(
    st.floats(0.0, 3.0),
    st.sampled_from([-1.0, 0.0, 1e10, 1e307, 1e308, math.inf, math.nan]),
)


def _complex_text(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}i"


def _grid_text(start: float, stop: float, count: int) -> str:
    return f"{start!r}:{stop!r}:{count}"


@st.composite
def _cli_args(draw):
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    _, grid_option, _, _, others = cli._SCENARIOS[scenario]
    reads = {grid_option, *others} - {None}
    options = {
        "alpha": st.one_of(
            st.complex_numbers(max_magnitude=40.0).map(_complex_text),
            st.sampled_from(_SPECIAL_ALPHAS),
        ),
        grid_option: st.builds(
            _grid_text, _ENDPOINTS, _ENDPOINTS, st.integers(-1, 4)
        ),
        "m_list": st.lists(st.integers(-1, 40), min_size=1, max_size=4).map(
            lambda ms: ",".join(map(str, ms))
        ),
        "dim_a": st.integers(-1, 400).map(str),
        "dim_b": st.integers(-1, 400).map(str),
        "tol": st.one_of(
            st.floats(1e-16, 0.5).map(repr), st.sampled_from(["0", "1", "nan", "1e-300"])
        ),
    }
    args = ["--scenario", scenario, "--format", draw(st.sampled_from(cli.FORMATS))]
    for key, strategy in options.items():
        if key in reads and draw(st.booleans()):
            args += [f"--{key.replace('_', '-')}", draw(strategy)]
    return args


# a fidelity or overlap above 1 is a normalization that has lost its digits
_AT_MOST_ONE = ("fidelity", "overlap_sq", "overlap_modulus")


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _records_physical(text: str, fmt: str) -> bool:
    """Every number finite, and no fidelity or overlap above 1 + 1e-12."""
    if fmt == "json":
        rows = json.loads(text, parse_constant=float)
        cells = [(c, v) for row in rows for c, v in row.items() if type(v) is float]
    else:
        header, *lines = text.splitlines()
        cells = [
            (c, _number(v)) for line in lines for c, v in zip(header.split(","), line.split(","))
        ]
    return all(
        math.isfinite(v) and (c not in _AT_MOST_ONE or v <= 1 + 1e-12)
        for c, v in cells
        if v is not None
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_cli_args(), st.one_of(st.none(), st.binary(max_size=24)))
@example(["--scenario", "dc-ideal-check", "--format", "csv", "--alpha", "1e4", "--r", "0"], None)
@example(["--format", "csv"], b"scenario = dc-pm\n\xff\n")
# a Rabi phase beyond the double range, and a seed whose tail series once
# took O(|alpha|) steps before the underflow check
@example(["--scenario", "jc-curve", "--format", "csv", "--beta-t", "0:1e308:2"], None)
@example(["--scenario", "dc-ideal-check", "--format", "json", "--alpha", "1e154", "--r", "0"], None)
# a subnormal branch probability once scored as fidelity 1.00025679996
@example(["--scenario", "dc-ideal-check", "--format", "csv", "--r", "1e-80", "--m-list", "2"], None)
# complex seeds with a negative real part: values that start with '-'
@example(["--scenario", "dc-pm", "--format", "csv", "--alpha", "-0.8+0.2i"], None)
@example(["--scenario", "jc-curve", "--format", "json", "--alpha", "-1.5-0.5i"], None)
# m orders out of reach: above the Laguerre cap under a forced dim_b, and
# photon-added targets that overflow
@example(["--scenario", "dc-pm", "--format", "csv", "--r", "1", "--dim-b", "700",
          "--m-list", "600"], None)
@example(["--scenario", "jc-curve", "--format", "csv", "--m-list", "400", "--dim-a", "500",
          "--beta-t", "1"], None)
@example(["--scenario", "dc-ideal-check", "--format", "csv", "--r", "1", "--dim-b", "450",
          "--m-list", "400"], None)
def test_cli_total(args, config):
    fmt = args[args.index("--format") + 1]
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "records"
        if config is not None:
            (Path(td) / "run.cfg").write_bytes(config)
            args = args + ["--config", str(Path(td) / "run.cfg")]
        rc = cli.main(args + ["--out", str(out)])
        assert rc in (0, 2, 3, 4), args
        if rc == 0:
            assert _records_physical(out.read_text(encoding="utf-8"), fmt), args
