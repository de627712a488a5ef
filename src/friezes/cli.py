"""Command-line interface.

Subcommands: ``verify``, ``analyze``, ``bounds``, ``enumerate``,
``period``, ``quiver``.  Reports go to stdout, diagnostics and progress to
stderr.  Exit codes: 0 success, 1 domain failure (mesh violations, dead
seeds, incomplete enumeration), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bounds_mod
from .catalog import DynkinType, period_cap, search_period, type_profile
from .formats import (
    FriezeFormatError,
    analyze_payload,
    bounds_payload,
    emit_quiver_dot,
    enumerate_payload,
    parse_frieze,
)
from .formats import _decimal_ints  # the document row's token rule
from .mesh import (
    DeadEndError,
    FriezeSlice,
    NoRecurrenceError,
    detect_period,
    verify_pattern,
)
from .search import STRATEGIES, SearchConfig, enumerate_friezes, stderr_progress


def _read_pattern(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        pattern = parse_frieze(fh.read())
    # Parsing keeps Python's int-to-str digit limit (3.10.7 on), but exact
    # products of a parsed document may print longer; main restores it.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    return pattern


def _print_violations(violations) -> None:
    for v in violations:
        print(f"mesh violation at vertex {v.vertex}, column {v.column}: {v.lhs} != {v.rhs}")


def _floats(xs, fmt="{:.5f}") -> str:
    return " ".join(fmt.format(x) for x in xs)


def cmd_verify(args) -> int:
    pattern = _read_pattern(args.file)
    violations = verify_pattern(pattern)
    if not violations:
        print("OK")
        return 0
    _print_violations(violations)
    return 1


def cmd_analyze(args) -> int:
    pattern = _read_pattern(args.file)
    violations = verify_pattern(pattern)
    if violations:
        _print_violations(violations)
        return 1
    p = args.period if args.period is not None else pattern.period
    logvec = bounds_mod.a_vector(pattern, p)
    cert = bounds_mod.interval_certificate(pattern, p)
    check = bounds_mod.check_pattern_against_bounds(pattern, p)
    if args.json:
        print(json.dumps(analyze_payload(pattern, p, logvec, cert, check), indent=2))
        return 0
    print(f"dynkin {pattern.dynkin}  stored period {pattern.period}  analyzed over period {p}")
    print(f"a   [float 1e-9]  {_floats(logvec.a)}")
    print(f"Ca  [float 1e-9]  {_floats(logvec.ca)}")
    print("interval certificate [exact]  (pass means P < M <= 2^p P)")
    for i, ok in enumerate(cert.verdicts):
        print(
            f"  row {i + 1}: M={cert.row_squares[i]} P={cert.neighbor_products[i]} "
            f"2^p*P={(1 << p) * cert.neighbor_products[i]} "
            f"{'pass' if ok else 'FAIL'}"
        )
    print("cap checks [exact]")
    for i in range(pattern.dynkin.rank):
        print(
            f"  row {i + 1}: product {'pass' if check.row_product_ok[i] else 'FAIL'}, "
            f"entries {'pass' if check.entry_ok[i] else 'FAIL'}"
        )
    all_ok = cert.passed and check.passed
    return 0 if all_ok else 1


def cmd_bounds(args) -> int:
    t = DynkinType.from_name(args.type)
    p = args.period if args.period is not None else period_cap(t)
    report = bounds_mod.bounds_report(t, p)
    if args.json:
        print(json.dumps(bounds_payload(report, args.min2), indent=2))
        return 0
    print(f"dynkin {t}  period {p}")
    print(f"b  [exact]  {' '.join(str(x) for x in report.b)}")
    print(f"d  [exact]  {' '.join(str(x) for x in report.d)}")
    print(
        "entry cap exponents p*b_i  [exact]  "
        + " ".join(str(x) for x in report.entry_cap_exponents)
    )
    print(f"count bound exponent p^2*sum(b)  [exact]  {report.count_bound_exponent}")
    if args.min2:
        print("refined bounds for friezes with all entries >= 2 (two readings, both reported):")
        print(
            f"  flat p-th power: base [exact] {report.refined_base}, "
            f"log2 of its p-th power [float 1e-9] {report.refined_flat_log2:.2f}"
        )
        print(
            "  per-row formula  [float 1e-9]  "
            + _floats(report.refined_rowwise_log2, "{:.2f}")
        )
        print(
            "  note: the per-row formula and the flat reading differ in general; "
            "this report takes no side."
        )
    return 0


def cmd_enumerate(args) -> int:
    t = DynkinType.from_name(args.type)
    # Past 40-bit entry caps only C4 (41 bits, about 5 s by column_dfs) and
    # B4 (46 bits, about 40 s by row_seeded, 70-100 s by column_dfs) are
    # known to end: require --cap so no uncertified count is implied.
    p = search_period(t)
    if args.cap is None:
        b = type_profile(t).b
        bits = math.floor(p * max(b)) + 1  # of the largest cap floor(2**(p*b_i)), not built
        if bits > 40:
            exps = " ".join(f"2^{p * bi}" for bi in b)
            raise ValueError(
                f"full enumeration of {t} needs entry caps {exps} "
                f"(about {bits} bit entries), far beyond desk scale; "
                "pass --cap to search a truncated space (the result is marked incomplete)"
            )
    cfg = SearchConfig(t, args.strategy, entry_cap_override=args.cap, jobs=args.jobs)
    outcome = enumerate_friezes(cfg, progress=stderr_progress)
    for note in outcome.notes:
        print(f"note: {note}", file=sys.stderr)
    if args.json:
        print(json.dumps(enumerate_payload(outcome, t, cfg.strategy), indent=2))
    else:
        print(
            f"dynkin {t}  strategy {cfg.strategy}  "
            f"complete {'yes' if outcome.complete else 'NO'}"
        )
        print(
            f"friezes {outcome.frieze_count}  orbits {len(outcome.orbits)}  "
            f"nodes {outcome.nodes_explored}"
        )
        for idx, orbit in enumerate(outcome.orbits, start=1):
            first = " ".join(str(v) for v in orbit.columns[0].values)
            print(f"orbit {idx}: period {orbit.period}, first column {first}")
    return 0 if outcome.complete else 1


def cmd_period(args) -> int:
    if args.file is not None:
        if args.type is not None or args.seed is not None:
            raise ValueError("give either FILE or --type and --seed, not both")
        pattern = _read_pattern(args.file)
        seed = pattern.columns[0]
        t = pattern.dynkin
    else:
        if args.type is None or args.seed is None:
            raise ValueError("need either FILE or both --type and --seed")
        t = DynkinType.from_name(args.type)
        values = _decimal_ints(args.seed.replace(",", " ").split())
        if values is None:
            raise ValueError(f"bad seed {args.seed!r}")
        seed = FriezeSlice(t, values)
    cap = period_cap(t)
    try:
        q, columns = detect_period(seed, cap)
    except DeadEndError as exc:
        print(f"dead end at step {exc.step}, vertex {exc.vertex}: not a frieze column")
        return 1
    except NoRecurrenceError:
        print(f"no recurrence within cap {cap}")
        return 1
    print(f"dynkin {t}  minimal period {q}")
    for k, col in enumerate(columns):
        print(f"column {k}: " + " ".join(str(v) for v in col.values))
    return 0


def cmd_quiver(args) -> int:
    t = DynkinType.from_name(args.type)
    pattern = None
    if args.file is not None:
        pattern = _read_pattern(args.file)
    sys.stdout.write(emit_quiver_dot(t, args.k_from, args.to, pattern))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friezes",
        description="Verify, analyze, bound, and enumerate positive integral friezes "
        "of Dynkin type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check every mesh relation of a frieze document")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="average-log vectors and exact certificates")
    p.add_argument("file")
    p.add_argument("--period", type=int, default=None, help="multiple of the stored period")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="entry/count bounds for a type and period")
    p.add_argument("type")
    p.add_argument("--period", type=int, default=None, help="default: catalog period cap")
    p.add_argument("--min2", action="store_true", help="also report the refined bounds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("enumerate", help="exhaustively enumerate friezes of a type")
    p.add_argument("type")
    p.add_argument("--strategy", choices=STRATEGIES, default=SearchConfig.strategy)
    p.add_argument("--cap", type=int, default=None, help="entry cap override (uncertified)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("period", help="trace a seed column to its minimal period")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--type", default=None)
    p.add_argument("--seed", default=None, help='comma-separated column, e.g. "1,1"')
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("quiver", help="emit a DOT window of the repetition quiver")
    p.add_argument("type")
    p.add_argument("--from", dest="k_from", type=int, required=True)
    p.add_argument("--to", dest="to", type=int, required=True)
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_quiver)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        return args.func(args)
    except FriezeFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
