"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines; every tolerance is pinned here.

Command-level criteria shell out to the installed CLI so the measured
times include interpreter startup.
"""

import json
import subprocess
import sys
import time

import pytest

from friezes import (
    CATALOG_SAMPLE,
    DynkinType,
    SearchConfig,
    a_vector,
    check_pattern_against_bounds,
    emit_frieze,
    enumerate_friezes,
    interval_certificate,
    pattern_from_columns,
    propagate_backward,
    propagate_forward,
    type_profile,
    verify_pattern,
)
from friezes.fixtures import e8_example_pattern

CLI = [sys.executable, "-m", "friezes.cli"]

REFERENCE_A = (1.79248, 2.57480, 3.45644, 5.10777, 4.18304, 3.25390, 2.30720, 1.29248)
REFERENCE_CA = (0.12852, 0.04184, 0.01263, 0.00125, 0.00442, 0.01755, 0.06803, 0.27776)

DESK_TYPES = ("A1", "A2", "A3", "A4", "B2", "C2", "G2")


def cli(*args, timeout=600):
    start = time.perf_counter()
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=timeout
    )
    return proc, time.perf_counter() - start


def report(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def fixture_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "e8.frieze"
    path.write_text(emit_frieze(e8_example_pattern()), encoding="utf-8")
    return str(path)


def test_criterion_1_fixture_verifies_quickly(fixture_file):
    proc, elapsed = cli("verify", fixture_file)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "OK"
    # all 32 relations hold exactly (8 rows x 4 columns)
    pattern = e8_example_pattern()
    assert pattern.dynkin.rank * pattern.period == 32
    assert verify_pattern(pattern) == []
    assert elapsed < 1.0, f"verify took {elapsed:.3f}s"
    report(1, f"E8 fixture verifies OK in {elapsed:.3f}s (< 1s), 32/32 relations hold")


def test_criterion_2_a_vector_reproduced(fixture_file):
    proc, _ = cli("analyze", fixture_file, "--period", "16", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    deltas = [abs(g - w) for g, w in zip(payload["a"], REFERENCE_A)]
    assert all(d < 1e-4 for d in deltas), deltas
    report(2, f"a(F) matches reference values, max deviation {max(deltas):.2e} (< 1e-4)")


def test_criterion_3_ca_and_exact_certificate(fixture_file):
    proc, _ = cli("analyze", fixture_file, "--period", "16", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    deltas = [abs(g - w) for g, w in zip(payload["ca"], REFERENCE_CA)]
    assert all(d < 1e-4 for d in deltas), deltas
    assert payload["interval_certificate"]["verdicts"] == [True] * 8
    report(
        3,
        f"C*a matches reference values (max dev {max(deltas):.2e} < 1e-4); "
        "exact interval certificate passes all 8 rows",
    )


def test_criterion_4_bounds_values():
    proc, _ = cli("bounds", "E8", "--period", "16", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["b"] == ["46", "68", "91", "135", "110", "84", "57", "29"]
    assert payload["entry_cap_exponents"][7] == "464"
    assert payload["count_bound_exponent"] == "158720"
    report(4, "b = (46,68,91,135,110,84,57,29), row-8 cap exponent 464, count exponent 158720")


def test_criterion_5_refined_bounds_both_readings():
    proc, _ = cli("bounds", "E8", "--period", "16", "--min2", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["refined_base"] == "151875/16384"
    flat = payload["refined_flat_log2"][7]
    formula = payload["refined_formula_log2"][7]
    assert abs(flat - 51.40) < 0.01, flat
    assert abs(formula - 164.24) < 0.01, formula
    proc_text, _ = cli("bounds", "E8", "--period", "16", "--min2")
    assert "151875/16384" in proc_text.stdout
    assert "51.40" in proc_text.stdout and "164.24" in proc_text.stdout
    report(
        5,
        f"refined base 151875/16384 exact; flat reading {flat:.2f} (=51.40 +/- .01), "
        f"formula reading {formula:.2f} (=164.24 +/- .01), both labeled",
    )


def test_criterion_6_enumeration_counts():
    budgets = {"A1": 1.0, "A2": 1.0, "A3": 1.0, "A4": 10.0}
    expected = {"A1": 2, "A2": 5, "A3": 14, "A4": 42}
    times = {}
    for name in ("A1", "A2", "A3", "A4"):
        proc, elapsed = cli("enumerate", name, "--json", timeout=budgets[name] + 330)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["frieze_count"] == expected[name], name
        assert payload["complete"] is True
        assert elapsed < budgets[name], f"{name} took {elapsed:.2f}s"
        times[name] = elapsed
    report(
        6,
        "counts A1..A4 = 2, 5, 14, 42; "
        + ", ".join(f"{k} in {v:.2f}s" for k, v in times.items()),
    )


def test_criterion_7_cross_strategy_oracle():
    budgets = {"A2": 60.0, "A3": 60.0, "B2": 60.0, "G2": 60.0}
    times = {}
    for name in ("A2", "A3", "B2", "G2"):
        t = DynkinType.from_name(name)
        start = time.perf_counter()
        col = enumerate_friezes(SearchConfig(dynkin=t, strategy="column_dfs"))
        row = enumerate_friezes(SearchConfig(dynkin=t, strategy="row_seeded"))
        elapsed = time.perf_counter() - start
        assert col.frieze_count == row.frieze_count
        col_keys = [tuple(c.values for c in o.pattern.columns) for o in col.orbits]
        row_keys = [tuple(c.values for c in o.pattern.columns) for o in row.orbits]
        assert col_keys == row_keys, name
        assert elapsed < budgets[name], f"{name} took {elapsed:.2f}s"
        times[name] = elapsed
    report(
        7,
        "column_dfs and row_seeded agree on counts and canonical orbits for "
        + ", ".join(f"{k} ({v:.2f}s)" for k, v in times.items()),
    )


def test_criterion_8_property_suite_over_enumerated_friezes():
    checked = 0
    for name in DESK_TYPES:
        t = DynkinType.from_name(name)
        cap = type_profile(t).period_cap
        outcome = enumerate_friezes(SearchConfig(dynkin=t, strategy="row_seeded"))
        assert outcome.complete
        for orbit in outcome.orbits:
            pattern = orbit.pattern
            assert interval_certificate(pattern).passed, (name, pattern)
            assert check_pattern_against_bounds(pattern).passed, (name, pattern)
            for column in pattern.columns:
                assert propagate_backward(propagate_forward(column)) == column
            assert cap % pattern.period == 0, (name, pattern.period, cap)
            checked += 1
    report(
        8,
        f"all {checked} enumerated orbits across {', '.join(DESK_TYPES)} pass the "
        "exact certificate, the exact cap checks, column round trips, and "
        "period-divides-cap",
    )


def test_criterion_9_a1_boundary_case():
    pattern = pattern_from_columns(DynkinType("A", 1), [(1,), (2,)])
    cert = interval_certificate(pattern, 2)
    assert cert.row_squares == (4,)
    assert cert.neighbor_products == (1,)
    assert (1 << 2) * cert.neighbor_products[0] == cert.row_squares[0]
    assert cert.verdicts == (True,)
    vec = a_vector(pattern, 2)
    assert vec.ca == (1.0,)
    report(9, "A1 alternating frieze sits exactly on the closed interval end: "
              "M=4, P=1, 2^p*P=4, (C*a)_1 = 1")


def test_criterion_10_negative_cases(fixture_file):
    for t in CATALOG_SAMPLE:
        ones = pattern_from_columns(t, [tuple([1] * t.rank)])
        assert verify_pattern(ones), f"constant-1 passed for {t}"
    fixture = e8_example_pattern()
    cols = [list(c.values) for c in fixture.columns]
    perturbed = 0
    for k in range(4):
        for i in range(8):
            bumped = [c[:] for c in cols]
            bumped[k][i] += 1
            pattern = pattern_from_columns(fixture.dynkin, [tuple(c) for c in bumped])
            assert verify_pattern(pattern), f"perturbation at ({i+1},{k}) passed"
            perturbed += 1
    proc, _ = cli("verify", fixture_file)
    assert proc.returncode == 0
    report(
        10,
        f"constant-1 rejected for all {len(CATALOG_SAMPLE)} catalog types; "
        f"all {perturbed} single-entry perturbations of the fixture are caught",
    )
