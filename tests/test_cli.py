import importlib.util
import json
import random
import sys
from pathlib import Path

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


def _digit_limit():
    """Python's int-to-str digit limit, or None before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_verify_prints_products_past_the_int_to_str_digit_limit(capsys, tmp_path):
    # Two 3,000-digit entries parse under the 4,300-digit limit; their
    # 6,000-digit product must still print, and the limit come back.
    limit = _digit_limit()
    path = tmp_path / "big.frieze"
    path.write_text(f"dynkin A1\nperiod 2\nrow {'9' * 3000} {'9' * 3000}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    square = "9" * 2999 + "8" + "0" * 2999 + "1"  # (10**3000 - 1)**2
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        f"mesh violation at vertex 1, column {k}: {square} != 2" for k in (0, 1)
    ]
    assert _digit_limit() == limit


def test_analyze_prints_products_past_the_int_to_str_digit_limit(capsys, tmp_path):
    # over 30,000 columns the row product of (1, 2) is 2**15000: 4,516 digits
    limit = _digit_limit()
    path = tmp_path / "a1.frieze"
    path.write_text("dynkin A1\nperiod 2\nrow 1 2\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path), "--period", "30000")
    assert (code, err) == (0, "")
    row = out.splitlines()[4]
    assert row.startswith("  row 1: M=") and row.endswith(" pass")
    assert len(row) > 3 * 4300
    assert _digit_limit() == limit


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


@pytest.mark.parametrize("name", ["A6", "B4", "C4", "D5", "D6", "E6", "E7", "E8", "F4"])
def test_enumerate_refuses_caps_past_forty_bits_without_cap(capsys, name):
    # every type certified so far has a largest cap of at most 37 bits (A5);
    # C4's 41 bits did not finish within 300 s, and the rest are larger
    code, out, err = run(capsys, "enumerate", name)
    assert code == 2 and out == ""
    assert err.startswith(f"error: full enumeration of {name} needs entry caps 2^")
    assert int(err.split("(about ")[1].split(" bit entries)")[0]) > 40


@pytest.mark.parametrize("name,count", [("A1", 2), ("A2", 5), ("C3", 20)])
def test_enumerate_runs_forced_types_without_cap(capsys, name, count):
    # Largest caps of 2, 6 and 19 bits; A1 runs the column walk at rank 1.
    code, out, _ = run(capsys, "enumerate", name)
    assert code == 0
    assert f"friezes {count} " in out


def test_enumerate_certifies_d4_row_seeded_without_cap(capsys):
    # D4's largest cap has 21 bits: the run is certified, with no --cap
    code, out, _ = run(capsys, "enumerate", "D4", "--strategy", "row_seeded", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["frieze_count"] == 51 and payload["complete"] is True


@pytest.mark.parametrize("args", [(), ("--json",)], ids=["text", "json"])
def test_enumerate_reports_the_config_default_strategy(capsys, args):
    # without --strategy the CLI leaves the choice to SearchConfig
    code, out, _ = run(capsys, "enumerate", "A2", *args)
    assert code == 0
    if args:
        assert json.loads(out)["strategy"] == "row_seeded"
    else:
        assert out.startswith("dynkin A2  strategy row_seeded  complete yes\n")


def test_enumerate_names_the_strategy_that_ran(capsys):
    # rank 1 runs the column walk whatever --strategy asks for
    code, out, _ = run(capsys, "enumerate", "A1", "--strategy", "row_seeded", "--json")
    assert code == 0
    assert json.loads(out)["strategy"] == "column_dfs"


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


def test_period_needs_type_with_seed(capsys):
    code, _, err = run(capsys, "period", "--seed", "1,1")
    assert code == 2


def test_period_bad_seed_values(capsys):
    code, _, err = run(capsys, "period", "--type", "A2", "--seed", "1,x")
    assert code == 2


@pytest.mark.parametrize(
    "args,message",
    [(("--type", "A1", "--seed", "+1_0"), "bad seed '+1_0'"),  # int() would read 10
     (("FILE", "--type", "E8"), "not both"), (("FILE", "--seed", "1"), "not both")],
    ids=["seed-sign-underscore", "file-and-type", "file-and-seed"],
)
def test_period_refuses_what_a_document_would(capsys, e8_file, args, message):
    code, out, err = run(capsys, "period", *(e8_file if a == "FILE" else a for a in args))
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "token,valid",
    [("1", True), ("0", False), ("+1", False), ("1_0", False), ("\u0663", True),
     ("\u00b2", False), ("x", False), ("9" * 4301, _digit_limit() in (None, 0))],
    ids=["one", "zero", "sign", "underscore", "arabic-indic-three", "superscript-two", "letter",
         "past-the-digit-limit"],
)
def test_document_rows_and_period_seeds_share_one_token_rule(capsys, tmp_path, token, valid):
    # decimal digits only, within int()'s digit limit, and positive: a
    # refused token is a usage failure (exit 2) in a document row and in a
    # --seed alike; an accepted one reaches the mesh (exit 0 or 1)
    path = tmp_path / "a1.frieze"
    path.write_text(f"dynkin A1\nperiod 1\nrow {token}\n", encoding="utf-8")
    document = run(capsys, "verify", str(path))[0]
    seed = run(capsys, "period", "--type", "A1", "--seed", token)[0]
    assert (document != 2, seed != 2) == (valid, valid)


# A cold profile of a large rank stays fast: each bounds command builds its
# exact inverse from the diagram's branch determinants and path products,
# O(n^2), and A300 under cap 2 (no frieze fits, exit 1) walks the twist at
# rank 300.  period's default cap is h + 2 from catalog.period_cap alone, so
# A2000 pays only for propagation, never for the exact inverse.
@pytest.mark.parametrize(
    "argv,code,check",
    [
        pytest.param(("bounds", "A100", "--json"), 0, None, id="bounds-A100"),
        pytest.param(("bounds", "D60", "--min2"), 0, None, id="bounds-D60-min2"),
        pytest.param(("bounds", "A300", "--json"), 0, None, id="bounds-A300"),
        pytest.param(
            ("enumerate", "A300", "--cap", "2", "--json"), 1,
            lambda out: json.loads(out)["frieze_count"] == 0,
            id="enumerate-A300-cap2", marks=pytest.mark.slow,
        ),
        pytest.param(
            ("period", "--type", "A2000", "--seed", ",".join(["1"] * 2000)), 0,
            lambda out: "dynkin A2000  minimal period 2003" in out.splitlines(),
            id="period-A2000", marks=pytest.mark.slow,
        ),
    ],
)
def test_large_rank_commands(capsys, argv, code, check):
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert check is None or check(out)


@pytest.fixture(scope="module")
def a48_files(tmp_path_factory):
    """An A48 Conway-Coxeter document from the benchmark corpus generator,
    a copy with one entry raised by 1, and multiples of its period."""
    spec = importlib.util.spec_from_file_location(
        "corpus", Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    )
    corpus = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:  # its dataclass looks itself up
        mp.setitem(sys.modules, spec.name, corpus)
        spec.loader.exec_module(corpus)
    rows = corpus.frieze_rows(corpus.random_quiddity(51, random.Random(1)))
    tmp = tmp_path_factory.mktemp("a48")
    files = {"good": tmp / "a48.frieze", "bad": tmp / "a48-bad.frieze"}
    files["good"].write_text(corpus.document_text("A48", rows), encoding="utf-8")
    rows[23][0] += 1
    files["bad"].write_text(corpus.document_text("A48", rows), encoding="utf-8")
    period = len(rows[0])
    return {**{k: str(v) for k, v in files.items()}, "p4": str(4 * period), "p28": str(28 * period)}


# The read path at a large rank.  The corrupted copy takes the failure path
# of the generated rank-48 mesh kernel; at 28 times its period, analyze
# prints products longer than Python's 4,300-digit int-to-str limit.
@pytest.mark.parametrize(
    "argv,code,prefix",
    [
        pytest.param(("verify", "{good}"), 0, "OK", id="verify"),
        pytest.param(("verify", "{bad}"), 1, "mesh violation at vertex ", id="verify-corrupted"),
        pytest.param(("period", "{good}"), 0, "dynkin A48  minimal period ", id="period"),
        pytest.param(("analyze", "{good}", "--json", "--period", "{p4}"), 0, "{", id="analyze-x4"),
        pytest.param(("analyze", "{good}", "--json", "--period", "{p28}"), 0, "{", id="analyze-x28"),
    ],
)
def test_a48_read_path(capsys, a48_files, argv, code, prefix):
    got, out, _ = run(capsys, *(a.format(**a48_files) for a in argv))
    assert got == code
    assert any(line.startswith(prefix) for line in out.splitlines())


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
