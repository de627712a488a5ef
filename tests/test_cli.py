import json

import jsonschema
import pytest

import friezes.cli
import friezes.search
from conftest import conway_coxeter_columns
from friezes import JSON_SCHEMAS, DynkinType, emit_frieze, pattern_from_columns
from friezes.cli import main

A2_DOC = "dynkin A2\nperiod 5\nrow 1 3 1 2 2\nrow 1 2 2 1 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(capsys, e8_file):
    code, out, _ = run(capsys, "verify", e8_file)
    assert code == 0
    assert out.strip() == "OK"


def test_verify_reports_violations(capsys, tmp_path):
    bad = A2_DOC.replace("row 1 3 1 2 2", "row 1 4 1 2 2")
    path = tmp_path / "bad.frieze"
    path.write_text(bad, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "mesh violation at vertex" in out


def test_verify_parse_error_is_usage_failure(capsys, tmp_path):
    path = tmp_path / "broken.frieze"
    path.write_text("dynkin Q3\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "parse error" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.frieze")
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "analyze", "period"])
def test_unreadable_path_is_usage_failure(capsys, tmp_path, command):
    # a directory raises IsADirectoryError, an OSError but no FileNotFoundError
    code, out, err = run(capsys, command, str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_analyze_fixture_matches_reference_numbers(capsys, e8_file):
    code, out, _ = run(capsys, "analyze", e8_file, "--period", "16")
    assert code == 0
    assert "1.79248" in out and "0.12852" in out and "0.27776" in out
    assert out.count("pass") >= 16
    assert "FAIL" not in out


def test_analyze_rejects_non_multiple_period(capsys, e8_file):
    code, _, err = run(capsys, "analyze", e8_file, "--period", "6")
    assert code == 2
    assert "multiple" in err


def test_analyze_rejects_invalid_pattern(capsys, tmp_path):
    path = tmp_path / "notfrieze.frieze"
    path.write_text("dynkin A2\nperiod 1\nrow 1\nrow 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 1
    assert "mesh violation" in out


def test_analyze_json_schema(capsys, a2_file):
    code, out, _ = run(capsys, "analyze", a2_file, "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, JSON_SCHEMAS["analyze"])
    assert payload["interval_certificate"]["row_squares"] == [144, 144]
    assert payload["interval_certificate"]["neighbor_products"] == [12, 12]


def test_bounds_e8(capsys):
    code, out, _ = run(capsys, "bounds", "E8", "--period", "16")
    assert code == 0
    assert "46 68 91 135 110 84 57 29" in out
    assert "158720" in out
    assert "464" in out


def test_bounds_min2_prints_both_readings(capsys):
    code, out, _ = run(capsys, "bounds", "E8", "--period", "16", "--min2")
    assert code == 0
    assert "151875/16384" in out
    assert "51.40" in out
    assert "164.24" in out
    assert "both" in out  # the one-line annotation


def test_bounds_a1(capsys):
    code, out, _ = run(capsys, "bounds", "A1", "--period", "2")
    assert code == 0
    assert "count bound exponent" in out and " 2" in out


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "E8", "--period", "16", "--min2", "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, JSON_SCHEMAS["bounds"])
    assert payload["b"] == ["46", "68", "91", "135", "110", "84", "57", "29"]


def test_bounds_rejects_zero_period(capsys):
    code, out, err = run(capsys, "bounds", "A1", "--period", "0")
    assert code == 2
    assert out == ""
    assert err == "error: period must be positive\n"


def test_bounds_unknown_type(capsys):
    code, _, err = run(capsys, "bounds", "Z3")
    assert code == 2


def test_enumerate_a2(capsys):
    code, out, _ = run(capsys, "enumerate", "A2")
    assert code == 0
    assert "friezes 5" in out
    assert "orbit 1: period 5" in out


def test_enumerate_strategies_agree(capsys):
    _, out_col, _ = run(capsys, "enumerate", "G2", "--strategy", "column_dfs")
    _, out_row, _ = run(capsys, "enumerate", "G2", "--strategy", "row_seeded")

    def digest(text):
        lines = [l for l in text.splitlines() if l.startswith(("orbit", "friezes"))]
        return [l.split("  nodes")[0] for l in lines]

    assert digest(out_col) == digest(out_row)
    assert "friezes 9" in out_col


def test_enumerate_refuses_branch_types_without_cap(capsys):
    code, _, err = run(capsys, "enumerate", "E8")
    assert code == 2
    assert "--cap" in err
    assert "2^464" in err or "2^928" in err  # prints the caps it would need


@pytest.mark.parametrize("name", ["D4", "D5", "D6", "E6", "E7", "E8"])
def test_enumerate_refuses_divisor_branching_without_cap(capsys, name):
    code, out, err = run(capsys, "enumerate", name)
    assert code == 2 and out == ""
    assert err.startswith(f"error: full enumeration of {name} needs entry caps 2^")


@pytest.mark.parametrize("name,count", [("A1", 2), ("A2", 5)])
def test_enumerate_runs_forced_types_without_cap(capsys, name, count):
    # A1 defaults to column_dfs at rank 1, yet needs no divisor branching.
    code, out, _ = run(capsys, "enumerate", name)
    assert code == 0
    assert f"friezes {count} " in out


@pytest.mark.parametrize("args", [(), ("--json",)], ids=["text", "json"])
def test_enumerate_reports_the_config_default_strategy(capsys, args):
    # without --strategy the CLI leaves the choice to SearchConfig
    code, out, _ = run(capsys, "enumerate", "A2", *args)
    assert code == 0
    if args:
        assert json.loads(out)["strategy"] == "row_seeded"
    else:
        assert out.startswith("dynkin A2  strategy row_seeded  complete yes\n")


def test_enumerate_prints_each_note(capsys, monkeypatch):
    # one divisor-branch node per partition: each D4 partition runs out
    monkeypatch.setattr(friezes.search, "_FACTORIZATION_BUDGET", 1)
    code, _, err = run(capsys, "enumerate", "D4", "--cap", "16", "--strategy", "row_seeded")
    assert code == 1
    assert "note: factorization budget exhausted" in err.splitlines()


def test_enumerate_with_cap_is_incomplete(capsys):
    code, out, _ = run(capsys, "enumerate", "D4", "--cap", "8")
    assert code == 1
    assert "friezes 19" in out
    assert "complete NO" in out


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "A3", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, JSON_SCHEMAS["enumerate"])
    assert payload["frieze_count"] == 14
    assert payload["complete"] is True


def test_enumerate_jobs_flag(capsys):
    code, out, _ = run(capsys, "enumerate", "A2", "--jobs", "2")
    assert code == 0
    assert "friezes 5" in out
    # B3 has 8 partitions, so the pool merges 8 tallies
    serial = run(capsys, "enumerate", "B3", "--json", "--jobs", "1")
    pooled = run(capsys, "enumerate", "B3", "--json", "--jobs", "2")
    assert serial[0] == 0 and pooled[:2] == serial[:2]


def test_enumerate_progress_lines_are_machine_parsable(capsys):
    import re

    code, _, err = run(capsys, "enumerate", "A3")
    assert code == 0
    lines = [l for l in err.splitlines() if l.startswith("explored=")]
    assert lines
    assert all(re.fullmatch(r"explored=\d+ found=\d+", l) for l in lines)


def test_period_from_seed(capsys):
    code, out, _ = run(capsys, "period", "--type", "A2", "--seed", "1,1")
    assert code == 0
    assert "minimal period 5" in out


def test_period_from_file(capsys, e8_file):
    code, out, _ = run(capsys, "period", e8_file)
    assert code == 0
    assert "minimal period 4" in out


def test_period_e8_seed(capsys):
    code, out, _ = run(capsys, "period", "--type", "E8", "--seed", "4,6,11,29,21,13,5,2")
    assert code == 0
    assert "minimal period 4" in out


def test_period_default_cap_skips_the_type_profile(capsys, monkeypatch, tmp_path):
    # The default cap is h + 2 from the Coxeter number alone: no exact
    # inverse is computed.  Fan triangulation of the 63-gon from vertex 0.
    def no_profile(t):
        raise AssertionError("period must not compute the type profile")

    monkeypatch.setattr(friezes.cli, "type_profile", no_profile)
    columns = conway_coxeter_columns([61, 1] + [2] * 60 + [1])
    path = tmp_path / "a60.frieze"
    path.write_text(emit_frieze(pattern_from_columns(DynkinType("A", 60), columns)), encoding="utf-8")
    code, out, _ = run(capsys, "period", str(path))
    assert code == 0
    assert out.startswith("dynkin A60  minimal period 63\n")


def test_period_dead_end(capsys):
    code, out, _ = run(capsys, "period", "--type", "A2", "--seed", "2,2")
    assert code == 1
    assert "dead end at step 1, vertex 2" in out


def test_period_no_recurrence(capsys):
    code, out, _ = run(capsys, "period", "--type", "A2", "--seed", "1,1", "--cap", "3")
    assert code == 1
    assert "no recurrence" in out


def test_period_needs_type_with_seed(capsys):
    code, _, err = run(capsys, "period", "--seed", "1,1")
    assert code == 2


def test_period_bad_seed_values(capsys):
    code, _, err = run(capsys, "period", "--type", "A2", "--seed", "1,x")
    assert code == 2


def test_quiver_plain(capsys):
    code, out, _ = run(capsys, "quiver", "A2", "--from", "0", "--to", "0")
    assert code == 0
    assert out.count("->") == 2


def test_quiver_with_pattern_labels(capsys, e8_file):
    code, out, _ = run(capsys, "quiver", "E8", e8_file, "--from", "0", "--to", "3")
    assert code == 0
    assert out.count("label") == 32
    assert out.count("->") == 56


def test_quiver_type_mismatch(capsys, e8_file):
    code, _, err = run(capsys, "quiver", "A2", e8_file, "--from", "0", "--to", "1")
    assert code == 2


def test_quiver_bad_range(capsys):
    code, _, err = run(capsys, "quiver", "A2", "--from", "2", "--to", "1")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
