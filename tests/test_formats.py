import gc
import json
import pickle
import weakref
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezes import (
    DynkinType,
    FriezeFormatError,
    JSON_SCHEMAS,
    SearchConfig,
    a_vector,
    bounds_report,
    check_pattern_against_bounds,
    emit_frieze,
    emit_quiver_dot,
    enumerate_friezes,
    interval_certificate,
    parse_frieze,
    pattern_from_columns,
    row_products,
)
from friezes.bounds import BoundsReport
from friezes.formats import (
    analyze_payload,
    bounds_payload,
    enumerate_payload,
    sig9,
)

A1_DOC = "dynkin A1\nperiod 2\nrow 1 2\n"
A2_DOC = "dynkin A2\nperiod 5\nrow 1 3 1 2 2\nrow 1 2 2 1 3\n"


def test_parse_a1_document():
    pattern = parse_frieze(A1_DOC)
    assert pattern.dynkin == DynkinType("A", 1)
    assert [c.values for c in pattern.columns] == [(1,), (2,)]


def test_parse_a2_document(a2_pattern):
    assert parse_frieze(A2_DOC) == a2_pattern


def test_parse_e8_document(e8_pattern):
    assert parse_frieze(emit_frieze(e8_pattern)) == e8_pattern


def test_emit_is_canonical(a2_pattern):
    assert emit_frieze(a2_pattern) == A2_DOC


def test_round_trip_is_identity_and_idempotent(e8_pattern):
    text = emit_frieze(e8_pattern)
    assert emit_frieze(parse_frieze(text)) == text


def test_comments_and_blank_lines_ignored():
    doc = "# fixture\n\ndynkin A1\n# two columns\nperiod 2\nrow 1 2\n"
    assert parse_frieze(doc) == parse_frieze(A1_DOC)


def _parse_by_strip_then_split(text: str):
    """The reference line rule: strip the line, skip it when empty or
    starting with ``#``, split the rest.  The kept lines go to the parser as
    single-space text on their own line numbers."""
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        keep = stripped and not stripped.startswith("#")
        lines.append(" ".join(stripped.split()) if keep else "")
    return parse_frieze("\n".join(lines))


# str.split() and str.strip() whitespace; \x0b, \x0c, \x1c-\x1e and \x85
# also end a line for str.splitlines()
WHITESPACE = ["\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]


def _documents():
    lines = A2_DOC.splitlines()
    for ws in WHITESPACE:
        yield ws.join(A2_DOC.split(" "))  # as the separator
        yield "\n".join(ws + line + ws for line in lines)  # around every line
        yield "\n".join(lines[:2] + [ws + "#note" + ws + "1", ws] + lines[2:])  # indented comment
        yield A2_DOC.replace("\nrow 1 2", "\n" + ws + "#" + ws + "row 1 2")  # row commented out
        yield A2_DOC.replace("2 2\n", "2 2" + ws + "#\n")  # a `#` token after the entries
        yield A2_DOC.replace("1 2 2\n", "1 2 #" + ws + "\n")  # a `#` token as an entry
    yield A2_DOC.replace("\n", "\r\n")
    yield A2_DOC.replace("\n", "\r\n").replace("period", "  # x\r\nperiod")
    yield "\t# only a comment\n \n"


@pytest.mark.parametrize("text", list(_documents()), ids=repr)
def test_parse_whitespace_and_comments_match_strip_then_split(text, a2_pattern):
    got = _outcome(lambda: parse_frieze(text))
    assert got == _outcome(lambda: _parse_by_strip_then_split(text))
    if not isinstance(got, tuple):
        assert got == a2_pattern


@pytest.mark.parametrize("text", [A1_DOC, A2_DOC, "# c\ndynkin A3\nperiod 1\n\trow 1\nrow 1\nrow 1\n"])
def test_parsed_pattern_is_a_plain_pattern(text):
    parsed = parse_frieze(text)
    built = pattern_from_columns(parsed.dynkin, [list(c.values) for c in parsed.columns])
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert parsed.rows() == built.rows()
    copy = pickle.loads(pickle.dumps(parsed))
    assert copy == built and hash(copy) == hash(built) and repr(copy) == repr(built)
    assert copy.rows() == built.rows()


def test_powered_slot_keeps_identity_and_is_freed(e8_pattern):
    parsed = parse_frieze(emit_frieze(e8_pattern))
    assert row_products(parsed, 16) == tuple(x**4 for x in row_products(e8_pattern))
    assert "_powered" in parsed.__dict__
    assert parsed == e8_pattern and hash(parsed) == hash(e8_pattern)
    assert repr(parsed) == repr(e8_pattern)
    copy = pickle.loads(pickle.dumps(parsed))
    assert copy == e8_pattern and hash(copy) == hash(e8_pattern) and repr(copy) == repr(e8_pattern)
    ref = weakref.ref(parsed)
    gc.disable()
    try:
        del parsed
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["A1", "A2", "A3", "B2", "D4", "G2"]),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_round_trip_arbitrary_positive_documents(name, period, data):
    # parsing does not verify the mesh relations, so any positive matrix
    # must survive the round trip byte-exactly
    t = DynkinType.from_name(name)
    columns = [
        tuple(
            data.draw(st.integers(min_value=1, max_value=10**40)) for _ in range(t.rank)
        )
        for _ in range(period)
    ]
    pattern = pattern_from_columns(t, columns)
    text = emit_frieze(pattern)
    assert parse_frieze(text) == pattern
    assert emit_frieze(parse_frieze(text)) == text


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("", "empty document"),
        ("dynkin Z9\nperiod 1\nrow 1\n", "unknown type token"),
        # superscript digits pass str.isdigit() but not int()
        ("dynkin A\u00b2\nperiod 1\nrow 1\n", "unknown type token"),
        ("dynkin A1\nperiod \u00b2\nrow 1\n", "positive integer"),
        ("dynkin A1\nperiod 2\nrow 1 \u00b2\n", "not a positive integer"),
        ("dynkin A1\nperiod 0\nrow 1\n", "positive integer"),
        ("dynkin A1\nperiod 2\nrow 1\n", "expected 2"),
        ("dynkin A2\nperiod 1\nrow 1\n", "missing rows"),
        ("dynkin A1\nperiod 2\nrow 1 -2\n", "not a positive integer"),
        ("dynkin A1\nperiod 2\nrow 1 0\n", "not a positive integer"),
        ("dynkin A1\nperiod 2\nrow 1 2\nrow 3 4\n", "too many rows"),
        ("dynkin A1\nrow 1 2\n", "period"),
        ("dynkin A1\nperiod 2\ncolumn 1 2\n", "row"),
        ("row 1 2\ndynkin A1\nperiod 2\n", "expected `dynkin <type>`"),
        ("dynkin A1\n", "missing `period` line"),
    ],
)
def test_parse_errors_are_line_addressed(doc, fragment):
    with pytest.raises(FriezeFormatError) as exc:
        parse_frieze(doc)
    assert fragment in str(exc.value)
    assert exc.value.line >= 1


@pytest.mark.parametrize(
    "row,message",
    [
        ("1 2 0", "line 3, token 4: entry '0' is not a positive integer"),
        ("1 \u00b2 2", "line 3, token 3: entry '\u00b2' is not a positive integer"),
        ("1 2 -2", "line 3, token 4: entry '-2' is not a positive integer"),
        # the first bad token is named even when a later one is over-long
        ("1 0 " + "9" * 5000, "line 3, token 3: entry '0' is not a positive integer"),
    ],
    ids=["zero-last", "superscript-mid-row", "negative-last", "zero-before-long"],
)
def test_parse_error_names_first_bad_token_after_good_ones(row, message):
    with pytest.raises(FriezeFormatError) as exc:
        parse_frieze(f"dynkin A1\nperiod 3\nrow {row}\n")
    assert str(exc.value) == message


def test_parse_error_reports_token_position():
    with pytest.raises(FriezeFormatError) as exc:
        parse_frieze("dynkin A1\nperiod 3\nrow 1 x 2\n")
    assert exc.value.line == 3
    assert exc.value.column == 3


def _row_by_token_rule(entries, lineno):
    """A document row read without the small-token table: ``int()`` on
    decimal tokens, the first bad token named by line and position."""
    for pos, tok in enumerate(entries, start=2):
        if not tok.isdecimal() or int(tok) < 1:
            raise FriezeFormatError(lineno, f"entry {tok!r} is not a positive integer", column=pos)
    return tuple(map(int, entries))


def _outcome(read):
    try:
        return read()
    except ValueError as exc:  # FriezeFormatError, or int()'s digit-limit error
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@pytest.mark.parametrize(
    "tokens",
    ["0", "01", "+1", "1_0", "٣", "999", "1000", "9" * 5000, "-3", "x"],
    ids=["zero", "leading-zero", "plus", "underscore", "arabic-indic", "999", "1000",
         "past-digit-limit", "negative", "letter"],
)
@pytest.mark.parametrize("where", ["first", "mid", "last", "both"])
def test_parse_row_matches_token_rule(tokens, where):
    # table tokens around the one under test; "both" adds a second bad token
    entries = {
        "first": [tokens, "7", "1", "12"],
        "mid": ["7", "1", tokens, "12"],
        "last": ["7", "1", "12", tokens],
        "both": ["7", tokens, "1", "0"],
    }[where]
    doc = f"dynkin A1\nperiod {len(entries)}\n\nrow {' '.join(entries)}\n"
    got = _outcome(lambda: parse_frieze(doc).rows()[0])
    assert got == _outcome(lambda: _row_by_token_rule(entries, 4))


@pytest.mark.parametrize(
    "row", [(1, 999), (999, 1000), (10**40, 1), (1000, 10**40), (5, 7)], ids=str
)
def test_emit_row_matches_str(row):
    pattern = pattern_from_columns(DynkinType("A", 2), [row, row[::-1]])
    rows = emit_frieze(pattern).splitlines()[2:]
    assert rows == ["row " + " ".join(map(str, r)) for r in pattern.rows()]


def test_quiver_dot_a1_has_isolated_nodes():
    dot = emit_quiver_dot(DynkinType("A", 1), 0, 1)
    assert dot.count("label") == 2
    assert "->" not in dot


def test_quiver_dot_a2_single_column():
    dot = emit_quiver_dot(DynkinType("A", 2), 0, 0)
    assert dot.count("->") == 2
    assert '"v1_0" -> "v2_0";' in dot
    assert '"v2_0" -> "v1_1";' in dot


def test_quiver_dot_e8_window_with_labels(e8_pattern):
    dot = emit_quiver_dot(DynkinType("E", 8), 0, 3, e8_pattern)
    assert dot.count("label") == 32
    assert dot.count("->") == 56
    assert '"v1_0" [label="4"];' in dot
    assert '"v8_3" [label="2"];' in dot
    # deterministic byte-for-byte
    assert dot == emit_quiver_dot(DynkinType("E", 8), 0, 3, e8_pattern)


def test_quiver_dot_wraps_labels_beyond_period(e8_pattern):
    dot = emit_quiver_dot(DynkinType("E", 8), 4, 4, e8_pattern)
    assert '"v1_4" [label="4"];' in dot  # column 4 wraps to column 0


def test_quiver_dot_negative_columns():
    dot = emit_quiver_dot(DynkinType("A", 2), -1, 0)
    assert '"v1_-1" [label="(1,-1)"];' in dot


def test_quiver_dot_type_mismatch(e8_pattern):
    with pytest.raises(ValueError):
        emit_quiver_dot(DynkinType("A", 2), 0, 1, e8_pattern)


def test_fraction_str_and_sig9():
    payload = bounds_payload(bounds_report(DynkinType("A", 3), 4), include_refined=False)
    assert payload["b"] == ["3/2", "2", "3/2"]
    assert sig9(51.400398130483666) == 51.4003981
    assert json.dumps(sig9(0.1 + 0.2)) == "0.3"


def test_analyze_payload_schema(e8_pattern):
    payload = analyze_payload(
        e8_pattern,
        16,
        a_vector(e8_pattern, 16),
        interval_certificate(e8_pattern, 16),
        check_pattern_against_bounds(e8_pattern, 16),
    )
    jsonschema.validate(payload, JSON_SCHEMAS["analyze"])
    assert len(payload["a"]) == 8
    json.dumps(payload)  # arbitrary-precision certificates serialize fine


def test_bounds_payload_schema():
    report = bounds_report(DynkinType("E", 8), 16)
    payload = bounds_payload(report, include_refined=True)
    jsonschema.validate(payload, JSON_SCHEMAS["bounds"])
    assert payload["count_bound_exponent"] == "158720"
    assert payload["refined_base"] == "151875/16384"
    bare = bounds_payload(report, include_refined=False)
    jsonschema.validate(bare, JSON_SCHEMAS["bounds"])
    assert "refined_base" not in bare


def _bounds_payload_fresh(report, include_refined):
    """The payload formatted from the report's fields, with nothing kept."""
    payload = {
        "dynkin": str(report.dynkin),
        "period": report.period,
        "b": [str(x) for x in report.b],
        "d": list(report.d),
        "entry_cap_exponents": [str(x) for x in report.entry_cap_exponents],
        "count_bound_exponent": str(report.count_bound_exponent),
    }
    if include_refined:
        payload["refined_formula_log2"] = [sig9(x) for x in report.refined_rowwise_log2]
        payload["refined_flat_log2"] = [sig9(report.refined_flat_log2)] * report.dynkin.rank
        payload["refined_base"] = str(report.refined_base)
    return payload


HAND_REPORT = BoundsReport(
    dynkin=DynkinType("A", 2),
    period=3,
    b=(Fraction(1), Fraction(1, 3)),
    entry_cap_exponents=(Fraction(3), Fraction(1)),
    count_bound_exponent=Fraction(12, 7),
    d=(0, 5),
    refined_rowwise_log2=(0.1 + 0.2, 1 / 3),
    refined_base=Fraction(33, 32),
    refined_flat_log2=2 / 3,
)


@pytest.mark.parametrize(
    "report",
    [bounds_report(DynkinType("E", 8), 16), bounds_report(DynkinType("A", 1), 2), HAND_REPORT],
    ids=["E8@16", "A1@2", "by-hand"],
)
def test_bounds_payload_is_fresh_on_every_call(report):
    for include_refined in (True, False, True):
        want = _bounds_payload_fresh(report, include_refined)
        first = bounds_payload(report, include_refined)
        assert first == want and json.dumps(first) == json.dumps(want)
        for value in first.values():
            if isinstance(value, list):
                value.append("mutated")
        assert bounds_payload(report, include_refined) == want


def test_enumerate_payload_schema():
    t = DynkinType("A", 2)
    outcome = enumerate_friezes(SearchConfig(dynkin=t, strategy="column_dfs"))
    payload = enumerate_payload(outcome, t, "column_dfs")
    jsonschema.validate(payload, JSON_SCHEMAS["enumerate"])
    assert payload["frieze_count"] == 5
    assert payload["orbits"][0]["period"] == 5
