"""Tests for the command line front end, configuration and report formats."""

import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from qcflop import batyrev, canonical, cli
from qcflop.algebra import Poly
from qcflop.config import ConfigError, load_config, parse_r_range, parse_sample
from qcflop.report import Report

REPO = pathlib.Path(__file__).resolve().parents[1]
DATA = pathlib.Path(__file__).resolve().parent / "data"
SCHEMA = json.loads((REPO / "docs" / "report.schema.json").read_text(encoding="utf-8"))


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_r_range():
    assert parse_r_range("1..3") == (1, 3)
    assert parse_r_range("2") == (2, 2)
    assert parse_r_range(4) == (4, 4)
    with pytest.raises(ConfigError):
        parse_r_range("3..1")
    with pytest.raises(ConfigError):
        parse_r_range("0")
    with pytest.raises(ConfigError):
        parse_r_range("x")


def test_parse_sample():
    (a, b), (c, d) = parse_sample("3/10,0 7/10,-1/2")
    assert (a, b, c, d) == (pytest.approx(0.3), 0, pytest.approx(0.7), pytest.approx(-0.5))
    with pytest.raises(ConfigError):
        parse_sample("3/10,0")
    with pytest.raises(ConfigError):
        parse_sample("nope,0 1,0")


def test_parse_sample_rejects_zero_and_the_unit_circle_exactly():
    # 3/5 + 4i/5 lies on the unit circle; a float modulus may round either way
    for bad in ("0,0 7/10,0", "3/10,0 0,0", "3/10,0 1,0", "3/5,4/5 1/2,0", "3/10,0 -7/10,4/5"):
        with pytest.raises(ConfigError):
            parse_sample(bad)
    assert parse_sample("3/10,0 3/5,79/100")[1] == (Fraction(3, 5), Fraction(79, 100))


@pytest.mark.parametrize("sample", ["0,0 7/10,0", "3/10,0 3/5,-4/5"])
def test_bad_sample_exits_with_a_configuration_error(tmp_path, monkeypatch, capsys, sample):
    code, out, err = run_cli(["verify", "batyrev", "--r", "1", "--sample", sample], capsys)
    assert (code, out) == (2, "") and "configuration error" in err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"sample": sample}), encoding="utf-8")
    monkeypatch.setenv("QCFLOP_CONFIG", str(cfg_file))
    code, out, err = run_cli(["verify", "batyrev", "--r", "1"], capsys)
    assert (code, out) == (2, "") and "configuration error" in err


def test_failed_certificate_keeps_its_params(monkeypatch, capsys):
    args = ["verify", "batyrev", "--r", "1", "--format", "json"]

    def certificate_entry():
        entries = json.loads(capsys.readouterr().out)["entries"]
        return next(e for e in entries if e["anchor"] == "batyrev/semisimplicity-certificate")

    assert cli.main(args) == 0
    passed = certificate_entry()

    def refuse(*_):
        raise batyrev.SemisimplicityError("eigenvalue gap below tolerance")

    monkeypatch.setattr(batyrev, "semisimplicity_certificate", refuse)
    assert cli.main(args) == 1
    failed = certificate_entry()
    assert failed["status"] == "fail" and failed["residual"] == "eigenvalue gap below tolerance"
    assert failed["params"] == passed["params"] == {
        "r": 1, "q1": ["3/10", "0"], "q2": ["7/10", "0"]}


def test_config_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"dmax": 4, "format": "json"}), encoding="utf-8")
    monkeypatch.setenv("QCFLOP_CONFIG", str(cfg_file))
    cfg = load_config({"format": "csv"})
    assert cfg.dmax == 4          # from file
    assert cfg.format == "csv"    # flag wins
    assert cfg.order == 10        # default
    monkeypatch.setenv("QCFLOP_CONFIG", str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError):
        load_config({})


def test_config_rejects_unknown_keys(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    monkeypatch.setenv("QCFLOP_CONFIG", str(cfg_file))
    with pytest.raises(ConfigError):
        load_config({})


@pytest.mark.parametrize("key, value, message", [
    ("jobs", 1, "unknown config keys: ['jobs']"),  # runs are serial
    ("order", "10", "order must be int, not '10'"),
    ("tolerance", "1e-9", "tolerance must be float, not '1e-9'"),
    ("order", 2.5, "order must be int, not 2.5"),
    ("out", 5, "out must be str | None, not 5"),
    ("dmax", True, "dmax must be int, not True"),
    ("format", ["json"], "format must be str, not ['json']"),
    ("r_range", True, "r-range must be an int, 'lo..hi' or [lo, hi], not True"),
    ("r_range", [1, 2.5], "r-range must be an int, 'lo..hi' or [lo, hi], not [1, 2.5]")])
def test_a_removed_key_or_a_value_of_the_wrong_type_exits_2(tmp_path, monkeypatch, capsys,
                                                            key, value, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}), encoding="utf-8")
    monkeypatch.setenv("QCFLOP_CONFIG", str(cfg_file))
    code, out, err = run_cli(["verify", "batyrev"], capsys)
    assert (code, out, err) == (2, "", f"configuration error: {message}\n")


def test_config_values_of_the_field_types_are_accepted(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"order": 8, "tolerance": 1, "gap_tolerance": 0.5,
                                    "out": None, "r_range": [1, 2], "format": "csv"}),
                        encoding="utf-8")
    monkeypatch.setenv("QCFLOP_CONFIG", str(cfg_file))
    with pytest.raises(ConfigError, match="tolerances must lie in"):
        load_config({})  # an int tolerance passes the type check, then the range check
    cfg = load_config({"tolerance": 1e-9})
    assert (cfg.order, cfg.gap_tolerance, cfg.out, cfg.r_range) == (8, 0.5, None, (1, 2))


def test_verify_exit_zero_and_schema(capsys):
    code, out, err = run_cli(["verify", "cohomology", "--r", "1..2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["all_pass"] is True
    anchors = {e["anchor"] for e in payload["entries"]}
    assert "cohomology/chern-flop-pairing" in anchors


def test_verify_deterministic_output(capsys):
    args = ["verify", "quantization", "--format", "json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    p1, p2 = json.loads(out1), json.loads(out2)
    assert code1 == code2 == 0
    assert p1["entries"] == p2["entries"]


def test_verify_text_and_csv(capsys):
    code, out, _ = run_cli(["verify", "cohomology", "--r", "1", "--format", "text"], capsys)
    assert code == 0
    assert "✓" in out and "all checks passed" in out
    code, out, _ = run_cli(["verify", "cohomology", "--r", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "anchor,params,status,residual"


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["verify", "quantization", "--format", "json",
                            "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    jsonschema.validate(payload, SCHEMA)


@pytest.mark.parametrize("args", [["verify", "cohomology"], ["table", "genus1"], ["dump", "dG"]])
def test_an_unwritable_out_path_is_a_configuration_error(tmp_path, capsys, args):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(args + ["--r", "1", "--out", str(target)], capsys)
    assert (code, out) == (2, "")
    assert err == f"configuration error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_table_genus1_csv(capsys):
    code, out, _ = run_cli(["table", "genus1", "--r", "1", "--dmax", "5",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,invariant"
    assert lines[1] == "1,1/12"
    assert lines[5] == "5,1/60"


def test_table_genus1_json_multi_r(capsys):
    code, out, _ = run_cli(["table", "genus1", "--r", "1..2", "--dmax", "2",
                            "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {"r": 2, "d": 1, "invariant": "-1/8"} in rows


def test_dump_dg(capsys):
    code, out, _ = run_cli(["dump", "dG", "--r", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["r"] == 2
    assert payload[0]["dropped_constant"] == "-1/8"


def test_dump_rejects_the_csv_format(capsys):
    code, out, err = run_cli(["dump", "dG", "--r", "2", "--format", "csv"], capsys)
    assert (code, out) == (2, "")
    assert "dump writes json or text" in err


def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(["verify", "cohomology", "--r", "bad"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_bad_suite_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_failure_exit_code_and_anchor(monkeypatch, capsys):
    # force a failing entry through the suite runner
    fake = Report(suite="cohomology")
    fake.add("cohomology/forced", {"r": 1}, False, "broken")

    monkeypatch.setattr(cli, "run_suite", lambda *_: fake)
    code, out, err = run_cli(["verify", "cohomology", "--format", "text"], capsys)
    assert code == 1
    assert "FAIL cohomology/forced" in err


def test_quantization_dim_cutoff_flags(capsys):
    code, out, _ = run_cli(["verify", "quantization", "--dim", "1", "--cutoff", "2",
                            "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    entries = {e["anchor"]: e for e in payload["entries"]}
    assert entries["quantization/cocycle-table"]["params"] == {"dim": 1, "cutoff": 2}


def test_the_report_holds_suite_entries_all_pass_and_wall_seconds(monkeypatch, capsys):
    def slow_stub(name, r, cfg):
        time.sleep(0.01)
        rep = Report(suite=name)
        rep.add(f"{name}/stub", {"r": r}, True)
        return rep

    monkeypatch.setattr(cli, "_run_cell", slow_stub)
    code, out, _ = run_cli(["verify", "all", "--format", "json"], capsys)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert code == 0 and list(payload) == ["suite", "entries", "all_pass", "seconds"]
    assert set(SCHEMA["properties"]) == set(SCHEMA["required"]) == set(payload)
    # 4 suites at r = 1..3 and quantization once, one after another
    assert len(payload["entries"]) == 13
    assert payload["seconds"] >= 0.13


@pytest.mark.parametrize("jobs, code", [("1", 0), ("2", 2), ("0", 2)])
def test_jobs_accepts_only_1(capsys, jobs, code):
    args = ["verify", "cohomology", "--r", "1", "--jobs", jobs]
    if code:
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == code
    else:
        assert cli.main(args) == 0


def _modules_after_import_cli(prefixes: tuple[str, ...]) -> str:
    """The sorted modules starting with ``prefixes`` that a fresh interpreter
    holds after ``import qcflop.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys, qcflop.cli; print(sorted(m for m in sys.modules "
             f"if m.startswith({prefixes!r})))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_import_cli_loads_no_process_pool():
    assert _modules_after_import_cli(("concurrent.futures", "multiprocessing")) == "[]"


def test_import_cli_loads_no_csv_writer(capsys):
    assert _modules_after_import_cli(("csv", "_csv")) == "[]"
    code, out, _ = run_cli(["verify", "cohomology", "--r", "1", "--format", "csv"], capsys)
    assert code == 0 and out.splitlines()[0] == "anchor,params,status,residual"


@pytest.mark.parametrize("fmt, recorded", [("text", "dump_dG_r1-7.txt"),
                                           ("json", "dump_dG_r1-7.json")])
def test_dump_dg_is_byte_identical_to_the_recorded_output(capsys, monkeypatch, fmt, recorded):
    # derived afresh, not read from what another test left in the caches
    monkeypatch.setattr(canonical, "_FRAMES", {})
    code, out, _ = run_cli(["dump", "dG", "--r", "1..7", "--format", fmt], capsys)
    assert code == 0
    assert out == (DATA / recorded).read_text(encoding="utf-8")


def test_verify_appendix_r5_to_8_matches_the_recorded_rows(capsys):
    # the anchors past the default r range, each row with its residual
    code, out, _ = run_cli(["verify", "appendix", "--r", "5..8", "--format", "json"], capsys)
    assert code == 0
    recorded = json.loads((DATA / "verify_appendix_r5-8.json").read_text(encoding="utf-8"))
    assert json.loads(out)["entries"] == recorded


@pytest.mark.parametrize("args, recorded", [
    (["cohomology", "--r", "1..8"], "verify_cohomology_r1-8.json"),
    (["flop", "--r", "4..8"], "verify_flop_r4-8.json"),
    (["quantization", "--dim", "3", "--cutoff", "5"], "verify_quantization_dim3_cutoff5.json"),
    (["flop", "--r", "9..12"], "verify_flop_r9-12.json"),
    (["batyrev", "--r", "6..8"], "verify_batyrev_r6-8.json")])
def test_verify_matches_the_recorded_rows(capsys, args, recorded):
    # the rows of the suites past the default r range, each with its
    # residual; the batyrev rows include the float certificate residuals
    code, out, _ = run_cli(["verify", *args, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == json.loads((DATA / recorded).read_text(encoding="utf-8"))


@pytest.mark.parametrize("args", [["dump", "dG"], ["table", "genus1"]])
def test_a_derivation_error_exits_1_with_a_message(capsys, monkeypatch, args):
    # moving the root of L_1 by 1 leaves a constant in R1's diagonal integrand
    frame = canonical.build_spectrum(2)
    frame.L[1] = frame.L[1] + Poly.one(frame.field)
    monkeypatch.setattr(canonical, "_FRAMES", {2: frame})
    code, out, err = run_cli([*args, "--r", "2"], capsys)
    assert code == 1 and out == ""
    assert err == ("derivation error: r = 2: diagonal 0 integrand has a constant term"
                   " at weight -1\n")
