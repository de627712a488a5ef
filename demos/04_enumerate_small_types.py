#!/usr/bin/env python3
"""Exhaustively enumerate friezes of the desk-scale types.

Two independent search strategies run side by side: seed-column DFS and
row-seeded reconstruction.  Agreement of their counts and canonical orbit
sets is the correctness oracle.  Counts treat each of the q columns of a
period-q orbit as a distinct frieze, which reproduces the Catalan numbers
2, 5, 14, 42 for types A1..A4.  Wherever Catalan(n) fits row n's cap, as
on every certified run here, both strategies take partition 1 (row n's
minimum 1) from the Conway-Coxeter friezes of A_{n-1} instead of
searching it.  Every A_n frieze has a 1 in row n, so that is all of
A1..A4 (A4 in 6 nodes): there the two agree by construction, and the
tests compare that reduction with each search.  B3, C3 and D4 (51
friezes, the Fontaine-Plamondon count) are certified at the half period.
"""

import time

from friezes import DynkinType, SearchConfig, enumerate_friezes

for name in ("A1", "A2", "A3", "A4", "B2", "C2", "G2"):
    t = DynkinType.from_name(name)
    results = {}
    for strategy in ("column_dfs", "row_seeded"):
        start = time.perf_counter()
        out = enumerate_friezes(SearchConfig(dynkin=t, strategy=strategy))
        results[strategy] = out
        print(f"{name} via {strategy:10}: {out.frieze_count:3d} friezes in "
              f"{len(out.orbits)} orbits  ({time.perf_counter() - start:6.2f}s, "
              f"{out.nodes_explored} nodes, complete={out.complete})")
    col, row = results["column_dfs"], results["row_seeded"]
    agree = col.orbits == row.orbits
    print(f"   strategies agree on canonical orbits: {agree}")
    for idx, orbit in enumerate(col.orbits, start=1):
        first = " ".join(str(v) for v in orbit.columns[0].values)
        print(f"   orbit {idx}: period {orbit.period}, first column ({first})")
    print()

print("where the Nakayama twist is the identity, every frieze repeats after")
print("(h+2)/2 columns; searching at that half period certifies larger types:")
for name, strategy in (("B3", "row_seeded"), ("C3", "column_dfs"), ("D4", "row_seeded")):
    t = DynkinType.from_name(name)
    start = time.perf_counter()
    out = enumerate_friezes(SearchConfig(dynkin=t, strategy=strategy))
    print(f"{name} via {strategy:10}: {out.frieze_count:3d} friezes in "
          f"{len(out.orbits)} orbits  ({time.perf_counter() - start:6.2f}s, "
          f"complete={out.complete})")
print()

print("E6 at full caps is beyond desk scale; a truncated search with an")
print("entry cap override is possible but flagged incomplete:")
t = DynkinType.from_name("E6")
out = enumerate_friezes(SearchConfig(dynkin=t, strategy="column_dfs", entry_cap_override=12))
print(f"E6 with entries capped at 12: {out.frieze_count} friezes, complete={out.complete}")
