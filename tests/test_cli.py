import json

import pytest

from pacslab import cli
from pacslab.errors import ConfigError


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
    with pytest.raises(ConfigError):
        cli.parse_config(["--scenario", "jc-curve", "--r", "0:1:5"])
    with pytest.raises(ConfigError):
        cli.parse_config(["--scenario", "dc-pm", "--beta-t", "0:1:5"])


def test_beta_time_pair_builds_dimensionless_grid():
    cfg = cli.parse_config(
        ["--scenario", "jc-curve", "--beta", "6283185.3", "--time", "0:3e-05:31"]
    )
    assert cfg.grid[0] == 0.0
    assert cfg.grid[1] == pytest.approx(6283185.3 * 3e-05)
    assert cfg.grid[2] == 31


def test_format_number_rules():
    assert cli.format_number(0.0) == "0"
    assert cli.format_number(None) == ""
    assert cli.format_number(1) == "1"
    assert cli.format_number(0.5337248041) == "0.5337248041"
    assert cli.format_number(12345.678901234) == "12345.6789012"
    assert cli.format_number(5e-05) == "5.00000000000e-05"
    assert cli.format_number(2e-4) == "0.0002"


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


def test_exit_code_validation_error(capsys):
    assert cli.main(["--scenario", "nope"]) == 2
    assert cli.main(["--scenario", "dc-pm", "--r", "bad:grid"]) == 2
    captured = capsys.readouterr()
    assert captured.err != ""


def test_exit_code_numerical_failure(tmp_path):
    cases = [
        # idler truncation forced far below what r = 2 needs
        ["--scenario", "dc-ideal-check", "--r", "2", "--dim-a", "48", "--dim-b", "24"],
        # automatic idler truncations beyond the Laguerre order limit
        ["--scenario", "dc-pm", "--alpha", "0.8", "--r", "3"],
        ["--scenario", "dc-ideal-check", "--alpha", "5", "--r", "3"],
    ]
    for args in cases:
        assert cli.main(args + ["--out", str(tmp_path / "x.csv")]) == 3, args


def test_non_finite_records_exit_3_without_output(tmp_path, capsys):
    # exp(-|alpha|^2 / 2) underflows, so the normalized oracle states are 0/0
    out = tmp_path / "overlap.csv"
    with pytest.warns(RuntimeWarning):
        rc = cli.main(["--scenario", "dc-overlap", "--alpha", "40", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert "non-finite records in overlap_sq_numeric" in capsys.readouterr().err


def test_exit_code_unwritable_output():
    rc = cli.main(
        ["--scenario", "dc-pm", "--r", "0.5", "--m-list", "0", "--out", "/nonexistent/dir/x.csv"]
    )
    assert rc == 4


def test_verify_aggregation_contract(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    rc = cli.main(["--scenario", "verify", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "check,passed,measured,tolerance,provenance"
    rows = [line.split(",") for line in lines[1:]]
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
