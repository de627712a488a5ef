"""Byte-for-byte pins of the read path's command-line output.

``tests/data/read_path.json`` holds, for every case below, the exit code,
stdout and stderr of ``friezes.cli.main`` on the documents in
``tests/data``: an A8, an A48 and the E8 frieze, and a copy of the A48
frieze with one entry raised.  Each document runs ``verify``, ``period``,
and ``analyze`` at 1, 2, 4 and 7 times its stored period (``--json``, and
the text report at 4 times), and its type runs ``bounds --json --min2`` at
the same periods.  The file was written, before the read path decided its
certificates on stored-period products, by running this module as a
script against that checkout::

    PYTHONPATH=<checkout>/src python tests/test_read_path_golden.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import pytest

from friezes.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "read_path.json"
DOCUMENTS = ("a8", "a48", "e8_published", "a48_corrupt")
MULTIPLES = (1, 2, 4, 7)


def cases() -> list[list[str]]:
    """argv of every pinned run, with documents named relative to ``DATA``."""
    argvs = []
    for name in DOCUMENTS:
        doc = f"{name}.frieze"
        lines = (DATA / doc).read_text(encoding="utf-8").splitlines()
        dynkin, period = lines[0].split()[1], int(lines[1].split()[1])
        argvs += [["verify", doc], ["period", doc]]
        for m in MULTIPLES:
            p = str(m * period)
            argvs.append(["analyze", doc, "--json", "--period", p])
            argvs.append(["bounds", dynkin, "--json", "--min2", "--period", p])
        argvs.append(["analyze", doc, "--period", str(4 * period)])
    # the corrupted copy shares its type and periods with the A48 frieze
    return [list(a) for a in dict.fromkeys(map(tuple, argvs))]


def run_case(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one run, documents read from ``DATA``."""
    out, err = io.StringIO(), io.StringIO()
    full = [str(DATA / a) if a.endswith(".frieze") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}


@functools.cache
def _golden() -> dict:
    return {" ".join(c["argv"]): c for c in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_read_path_output_is_pinned(argv):
    assert run_case(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_case(a) for a in cases()], indent=1) + "\n", encoding="utf-8")
