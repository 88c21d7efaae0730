#!/usr/bin/env python3
"""Human-readable structural report for a pair (p, q).

Builds (or loads from cache) the dual graph, prints vertex/edge censuses,
the quotient and regular-model pictures, component group data, and the
exact degree comparison.  Bad input, such as a p that is not a prime
>= 5, exits 3 with an ``error:`` line on stderr.  Example:

    python scripts/pair_report.py --p 13 --q 47
"""

import argparse
import sys
import time

from shimura_pq.certify import genus, load_or_build_graph
from shimura_pq.compgroup import (
    blow_up,
    component_group,
    degree_report,
    lemma_general_check,
    quotient_by_wq,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=13)
    ap.add_argument("--q", type=int, default=47)
    ap.add_argument("--cache", default=None)
    args = ap.parse_args()

    t0 = time.time()
    try:
        graph, cached = load_or_build_graph(args.p, args.q, args.cache)
    except ValueError as exc:  # bad input, reported as cli.main reports it
        print(f"error: {exc}", file=sys.stderr)
        return 3
    vset = graph.vset
    print(f"pair ({args.p}, {args.q}); genus(X0({args.q})) = {genus(args.q)}; "
          f"build {'cache' if cached else f'{time.time()-t0:.1f}s'}")
    print(f"vertices: {len(vset)}  weights {vset.weights}  mass {vset.mass()}  "
          f"rational {vset.rational_count()}")
    lengths = graph.lengths
    census = {ln: lengths.count(ln) for ln in sorted(set(lengths))}
    print(f"edges: {len(graph.edges)}  mass {graph.edge_mass()}  lengths {census}")

    mg = quotient_by_wq(graph)
    blown = blow_up(mg)
    print(f"quotient: {len(mg)} vertices, {len(mg.edges)} edge orbits")
    print(f"regular model: {blown.labels()}")
    rep = degree_report(blown, args.p, args.q)
    for row in rep["vertex_degrees"]:
        mark = "" if row["match"] else "  <- MISMATCH"
        print(f"  deg {row['vertex']:>6} = {row['degree']:>4}  expected {row['expected']}{mark}")
    print(f"all degrees match: {rep['all_degrees_match']}; "
          f"all pairs adjacent: {rep['all_pairwise_positive']}")
    inv = component_group(blown)
    print(f"component group invariants: {inv}")
    lg = lemma_general_check(blown, args.p)
    if lg["applicable"]:
        print(f"(p+1)(exceptional - J) nonzero for every J: {lg['holds_for_all']}")
    else:
        print(f"exceptional-component check not applicable: {lg['reason']}")


if __name__ == "__main__":
    sys.exit(main())
