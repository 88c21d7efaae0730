#!/usr/bin/env python3
"""Scan a battery of discriminants on a pair (p, q).

For each negative discriminant D coprime to pq, tabulates the total
optimal-embedding counts on both graphs against the closed-form trace
values, and flags the Gross vectors whose support meets an exceptional
edge (those break the cycle construction at small p).  Exits 1 if any
row is flagged TRACE MISMATCH, and 3 with an ``error:`` line on stderr
on bad input, such as a p that is not a prime >= 5.

Rows with (D|q) = +1 read zero without a search: the local test at q in
``Lattice.norm_vectors`` returns no candidate.  The closed-form values
vanish there too, so such a row checks that test, not an enumeration.

    python scripts/disc_battery.py --p 13 --q 47 --bound 120
"""

import argparse
import sys

from shimura_pq.certify import load_or_build_graph
from shimura_pq.gross import class_number, gross_modular, gross_shimura, support
from shimura_pq.ntheory import kronecker


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=13)
    ap.add_argument("--q", type=int, default=47)
    ap.add_argument("--bound", type=int, default=100)
    ap.add_argument("--cache", default=None)
    args = ap.parse_args()
    p, q = args.p, args.q
    try:
        graph, _ = load_or_build_graph(p, q, args.cache)
    except ValueError as exc:  # bad input, reported as cli.main reports it
        print(f"error: {exc}", file=sys.stderr)
        return 3
    vset = graph.vset
    exceptional = {i for i, e in enumerate(graph.edges) if e.length > 1}
    mismatch = False

    print(f" D      h  (D|q) (D|p)  sum H_k  sum h_i  exceptional support")
    for d in range(-3, -args.bound - 1, -1):
        if d % 4 not in (0, 1) or d % p == 0 or d % q == 0:
            continue
        h = class_number(d)
        vertex_total = sum(gross_modular(vset, d))
        gam = gross_shimura(graph, d)
        edge_total = sum(gam)
        expect_v = (1 - kronecker(d, q)) * h
        expect_e = (1 - kronecker(d, q)) * (1 + kronecker(d, p)) * h
        hits = sorted(set(support(gam)) & exceptional)
        flags = []
        if vertex_total != expect_v or edge_total != expect_e:
            flags.append("TRACE MISMATCH")
            mismatch = True
        if hits:
            flags.append(f"hits {hits}")
        print(f"{d:5} {h:4}  {kronecker(d, q):+}   {kronecker(d, p):+}   "
              f"{vertex_total:5}    {edge_total:5}    {' '.join(flags)}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
