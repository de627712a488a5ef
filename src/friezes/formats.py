"""Text formats: the frieze document grammar, Graphviz DOT emission of
repetition-quiver windows, and JSON report payloads with their schemas.

Document grammar (UTF-8, ``#`` starts a comment line)::

    dynkin E8
    period 4
    row 4 4 3 3
    ...                 # one `row` line per vertex, in index order

``parse_frieze`` builds the pattern without verifying the mesh relations;
callers verify separately.  ``emit_frieze`` writes the canonical form
(single spaces, trailing newline), so parse-emit round trips are
byte-exact on re-emission.

Most entries of a stored frieze are small, so both directions first read
them through a table of the canonical decimal text of 1..999 (about 140 KB
for the pair, built at import).  A row whose every token is in
``_SMALL_INTS`` is already a row of positive ints; any other row falls back
to the token rule of ``_decimal_ints`` and its per-token error loop, so a
token such as ``01``, ``+1`` or ``1000`` is read, or refused with its line
and position, exactly as without the table.  ``emit_frieze`` writes values
outside 1..999 with ``str``.  The tables change speed, never a result.
"""

from __future__ import annotations

from .catalog import DynkinType, repetition_arrows
from .mesh import FriezePattern, FriezeSlice

__all__ = [
    "FriezeFormatError",
    "parse_frieze",
    "emit_frieze",
    "emit_quiver_dot",
    "sig9",
    "analyze_payload",
    "bounds_payload",
    "enumerate_payload",
    "JSON_SCHEMAS",
]


class FriezeFormatError(ValueError):
    """Parse failure with a 1-based line (and optional token) address."""

    def __init__(self, line: int, message: str, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, token {column}"
        super().__init__(f"{where}: {message}")


_SMALL_INTS = {str(v): v for v in range(1, 1000)}
_SMALL_TEXTS = {v: text for text, v in _SMALL_INTS.items()}


def _decimal_ints(tokens) -> tuple[int, ...] | None:
    """The document's token rule: each token decimal digits only (no sign,
    no ``_``) and within ``int()``'s digit limit; None when one is not."""
    try:
        return tuple(map(int, tokens)) if all(map(str.isdecimal, tokens)) else None
    except ValueError:  # a token past int()'s digit limit
        return None


def parse_frieze(text: str) -> FriezePattern:
    """Parse a frieze document; see the module docstring for the grammar."""
    meaningful: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            meaningful.append((lineno, tokens))

    if not meaningful:
        raise FriezeFormatError(1, "empty document; expected a `dynkin` line")

    lineno, tokens = meaningful[0]
    if tokens[0] != "dynkin" or len(tokens) != 2:
        raise FriezeFormatError(lineno, "expected `dynkin <type>` (e.g. `dynkin E8`)")
    try:
        dynkin = DynkinType.from_name(tokens[1])
    except ValueError as exc:
        raise FriezeFormatError(lineno, str(exc), column=2) from exc

    if len(meaningful) < 2:
        raise FriezeFormatError(lineno, "missing `period` line")
    lineno, tokens = meaningful[1]
    if tokens[0] != "period" or len(tokens) != 2 or not tokens[1].isdecimal() or int(tokens[1]) < 1:
        raise FriezeFormatError(lineno, "expected `period <positive integer>`")
    period = int(tokens[1])

    rows: list[tuple[int, ...]] = []
    for lineno, tokens in meaningful[2:]:
        if tokens[0] != "row":
            raise FriezeFormatError(lineno, f"expected a `row` line, got {tokens[0]!r}")
        if len(rows) == dynkin.rank:
            raise FriezeFormatError(lineno, f"too many rows: {dynkin} has {dynkin.rank}")
        if len(tokens) - 1 != period:
            raise FriezeFormatError(
                lineno, f"row {len(rows) + 1} has {len(tokens) - 1} entries, expected {period}"
            )
        # a row of table tokens needs no further check; otherwise one pass
        # over the row, and the token loop runs only to name the first bad
        # token, or to raise int()'s digit-limit error in token order
        entries = tokens[1:]
        values = tuple(map(_SMALL_INTS.get, entries))
        if None in values:
            values = _decimal_ints(entries)
            if values is None or min(values) < 1:
                for pos, tok in enumerate(entries, start=2):
                    if not tok.isdecimal() or int(tok) < 1:
                        raise FriezeFormatError(
                            lineno, f"entry {tok!r} is not a positive integer", column=pos
                        )
        rows.append(values)

    if len(rows) != dynkin.rank:
        last = meaningful[-1][0]
        raise FriezeFormatError(last, f"missing rows: got {len(rows)}, {dynkin} needs {dynkin.rank}")

    # every entry was checked above, so the pattern and its columns skip
    # re-validation, and the rows just read are its transpose
    columns = tuple(FriezeSlice._unchecked(dynkin, col) for col in zip(*rows))
    return FriezePattern._unchecked(dynkin, columns, tuple(rows))


def emit_frieze(f: FriezePattern) -> str:
    """Canonical document text for a pattern."""
    lines = [f"dynkin {f.dynkin}", f"period {f.period}"]
    for row in f.rows():
        try:
            lines.append("row " + " ".join(map(_SMALL_TEXTS.get, row)))
        except TypeError:  # a value outside 1..999 maps to None
            lines.append("row " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def emit_quiver_dot(
    t: DynkinType, k_lo: int, k_hi: int, f: FriezePattern | None = None
) -> str:
    """DOT digraph of the repetition-quiver window ``[k_lo, k_hi]``.

    Nodes are declared for every ``(i, k)`` in the window, labelled with
    the frieze value (column index taken mod the period) when a pattern is
    given, and with ``(i, k)`` otherwise.  Arrows are exactly those of
    :func:`repetition_arrows`; the trailing arrows into column
    ``k_hi + 1`` are kept, mirroring the dangling arrows of a clipped
    quiver drawing.
    """
    if f is not None and f.dynkin != t:
        raise ValueError(f"pattern of type {f.dynkin} does not match {t}")
    lines = ["digraph frieze_quiver {", "  rankdir=LR;"]
    for k in range(k_lo, k_hi + 1):
        for i in range(1, t.rank + 1):
            if f is None:
                label = f"({i},{k})"
            else:
                label = str(f.columns[k % f.period].values[i - 1])
            lines.append(f'  "v{i}_{k}" [label="{label}"];')
    for (i, k), (j, kk) in repetition_arrows(t, k_lo, k_hi):
        lines.append(f'  "v{i}_{k}" -> "v{j}_{kk}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def sig9(x: float) -> float:
    """Round a float to 9 significant digits for reporting."""
    return float(f"{x:.9g}")


def analyze_payload(f, p, logvec, certificate, bounds_check) -> dict:
    return {
        "dynkin": str(f.dynkin),
        "stored_period": f.period,
        "period": p,
        "a": [sig9(x) for x in logvec.a],
        "ca": [sig9(x) for x in logvec.ca],
        "interval_certificate": {
            "row_squares": list(certificate.row_squares),
            "neighbor_products": list(certificate.neighbor_products),
            "verdicts": list(certificate.verdicts),
        },
        "cap_checks": {
            "row_product_ok": list(bounds_check.row_product_ok),
            "entry_ok": list(bounds_check.entry_ok),
        },
    }


def bounds_payload(report, include_refined: bool) -> dict:
    # the texts are formatted once per report object and kept on it, outside
    # its dataclass fields; every call gets fresh lists
    texts = report.__dict__.get("_payload_texts")
    if texts is None:
        texts = report.__dict__["_payload_texts"] = (
            tuple(str(x) for x in report.b),
            tuple(str(x) for x in report.entry_cap_exponents),
            str(report.count_bound_exponent),
            tuple(sig9(x) for x in report.refined_rowwise_log2),
            sig9(report.refined_flat_log2),
            str(report.refined_base),
        )
    b, caps, count, rowwise, flat, base = texts
    payload = {
        "dynkin": str(report.dynkin),
        "period": report.period,
        "b": list(b),
        "d": list(report.d),
        "entry_cap_exponents": list(caps),
        "count_bound_exponent": count,
    }
    if include_refined:
        payload["refined_formula_log2"] = list(rowwise)
        payload["refined_flat_log2"] = [flat] * report.dynkin.rank
        payload["refined_base"] = base
    return payload


def enumerate_payload(outcome, t, strategy: str) -> dict:
    return {
        "dynkin": str(t),
        "strategy": strategy,
        "frieze_count": outcome.frieze_count,
        "complete": outcome.complete,
        "nodes_explored": outcome.nodes_explored,
        "orbits": [
            {
                "period": o.period,
                "columns": [list(c.values) for c in o.columns],
            }
            for o in outcome.orbits
        ],
        "notes": list(outcome.notes),
    }


_RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/[0-9]+)?$"}
_FLOATS = {"type": "array", "items": {"type": "number"}}
_BOOLS = {"type": "array", "items": {"type": "boolean"}}
_INTS = {"type": "array", "items": {"type": "integer"}}

JSON_SCHEMAS = {
    "analyze": {
        "type": "object",
        "required": ["dynkin", "period", "a", "ca", "interval_certificate", "cap_checks"],
        "properties": {
            "dynkin": {"type": "string"},
            "stored_period": {"type": "integer"},
            "period": {"type": "integer"},
            "a": _FLOATS,
            "ca": _FLOATS,
            "interval_certificate": {
                "type": "object",
                "required": ["row_squares", "neighbor_products", "verdicts"],
                "properties": {
                    "row_squares": _INTS,
                    "neighbor_products": _INTS,
                    "verdicts": _BOOLS,
                },
            },
            "cap_checks": {
                "type": "object",
                "required": ["row_product_ok", "entry_ok"],
                "properties": {"row_product_ok": _BOOLS, "entry_ok": _BOOLS},
            },
        },
    },
    "bounds": {
        "type": "object",
        "required": ["dynkin", "period", "b", "d", "entry_cap_exponents", "count_bound_exponent"],
        "properties": {
            "dynkin": {"type": "string"},
            "period": {"type": "integer"},
            "b": {"type": "array", "items": _RATIONAL},
            "d": _INTS,
            "entry_cap_exponents": {"type": "array", "items": _RATIONAL},
            "count_bound_exponent": _RATIONAL,
            "refined_formula_log2": _FLOATS,
            "refined_flat_log2": _FLOATS,
            "refined_base": _RATIONAL,
        },
    },
    "enumerate": {
        "type": "object",
        "required": ["dynkin", "frieze_count", "complete", "orbits"],
        "properties": {
            "dynkin": {"type": "string"},
            "strategy": {"type": "string"},
            "frieze_count": {"type": "integer"},
            "complete": {"type": "boolean"},
            "nodes_explored": {"type": "integer"},
            "orbits": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["period", "columns"],
                    "properties": {
                        "period": {"type": "integer"},
                        "columns": {"type": "array", "items": _INTS},
                    },
                },
            },
            "notes": {"type": "array", "items": {"type": "string"}},
        },
    },
}
