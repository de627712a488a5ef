"""Seeded corpus of frieze documents for the ``reports`` workload.

Every A_n document is a Conway--Coxeter frieze: a seeded random
triangulation of the ``(n+3)``-gon gives the quiddity ``a`` (triangles at
each polygon vertex), and column ``k`` of the frieze is

    F[i, k] = m(k - i, k + 1)

where ``m(u, v)`` is the continuant of the diagonal from polygon vertex
``u`` to ``v`` (``m(u, u+1) = 1``, ``m(u, u+2) = a[u+1]``).  Ptolemy's
relation on the quadrilateral ``k-i < k-i+1 < k+1 < k+2`` is exactly the
A_n mesh relation, so each document is a frieze by construction and its
minimal period is the rotation period of the quiddity: answers that do
not depend on the library under test.

A seeded share of copies carries one entry raised by 1..3.  That entry is
the left factor of one mesh relation whose right side does not contain
it, so every corrupted copy violates at least one relation.

This module does not import the library; it only writes documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# A8, A12, .. A48.  Profiling a type computes its exact inverse Cartan
# matrix, which grows like n**3; every rank from 8 to 48 would make the
# set-up several times longer than one pass over the corpus.
RANKS = range(8, 49, 4)
DOCS_PER_RANK = 82
CORRUPT_SHARE = 0.10

# The published period-4 E8 frieze (rows in vertex order).
E8_ROWS = (
    (4, 4, 3, 3),
    (6, 7, 6, 5),
    (11, 15, 11, 8),
    (29, 41, 41, 29),
    (21, 18, 16, 18),
    (13, 13, 7, 7),
    (5, 8, 5, 3),
    (2, 3, 3, 2),
)
E8_MIN_PERIOD = 4


@dataclass(frozen=True)
class Document:
    """One corpus entry and the answers the benchmark expects for it."""

    dynkin: str
    text: str
    valid: bool
    min_period: int  # of the uncorrupted frieze


def random_quiddity(n_gon: int, rng: random.Random) -> list[int]:
    """Triangles at each vertex of a random triangulation of an ``n_gon``.

    Clipping ears of a convex polygon in any order triangulates it.
    """
    alive = list(range(n_gon))
    quiddity = [0] * n_gon
    while len(alive) > 3:
        pos = rng.randrange(len(alive))
        for v in (alive[pos - 1], alive[pos], alive[(pos + 1) % len(alive)]):
            quiddity[v] += 1
        del alive[pos]
    for v in alive:
        quiddity[v] += 1
    return quiddity


def frieze_rows(quiddity: list[int]) -> list[list[int]]:
    """Rows ``1..n`` of the A_n frieze of a quiddity of length ``n + 3``."""
    size = len(quiddity)
    n = size - 3

    def continuants(u: int) -> list[int]:
        # m(u, u), m(u, u+1), ..., m(u, u+size-1)
        out = [0, 1]
        for v in range(u + 2, u + size):
            out.append(quiddity[(v - 1) % size] * out[-1] - out[-2])
        return out

    table = [continuants(u) for u in range(size)]
    rows = []
    for i in range(1, n + 1):
        row = []
        for k in range(size):
            u = (k - i) % size
            row.append(table[u][i + 1])  # m(k - i, k + 1): span i + 1
        rows.append(row)
    return rows


def rotation_period(seq: list[int]) -> int:
    size = len(seq)
    for q in range(1, size + 1):
        if size % q == 0 and all(seq[k] == seq[(k + q) % size] for k in range(size)):
            return q
    return size


def document_text(dynkin: str, rows) -> str:
    """Canonical frieze document, as the library's emitter writes it."""
    lines = [f"dynkin {dynkin}", f"period {len(rows[0])}"]
    lines.extend("row " + " ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def corrupt(rows, rng: random.Random) -> list[list[int]]:
    bad = [list(row) for row in rows]
    i = rng.randrange(len(bad))
    k = rng.randrange(len(bad[i]))
    bad[i][k] += rng.randint(1, 3)
    return bad


def build_corpus(seed: int) -> list[Document]:
    """About a thousand documents; the same seed gives the same corpus."""
    rng = random.Random(seed)
    sources = [("E8", [list(r) for r in E8_ROWS], E8_MIN_PERIOD)]
    for _ in range(DOCS_PER_RANK):
        for n in RANKS:
            quiddity = random_quiddity(n + 3, rng)
            sources.append((f"A{n}", frieze_rows(quiddity), rotation_period(quiddity)))
    docs = []
    for dynkin, rows, period in sources:
        docs.append(Document(dynkin, document_text(dynkin, rows), True, period))
        if rng.random() < CORRUPT_SHARE:
            docs.append(Document(dynkin, document_text(dynkin, corrupt(rows, rng)), False, period))
    rng.shuffle(docs)
    return docs
