"""Eichler's trace formula and the boundary rows of the Brandt matrices.

For n >= 1 let t(n) be the sum, over the s with s^2 < 4n and the f with
D_f = (s^2 - 4n) / f^2 a discriminant, of h(D_f) / w(D_f) times the local
embedding factors: 1 - {D_f / q} for the ramified prime q, and, on edges,
1 + {D_f / p} for the level p of the Eichler orders; plus the mass
(q - 1)/12 on vertices, or (q - 1)(p + 1)/12 on edges, when n is a square.
Here h is ``gross.class_number``, w(D) = |O_D^x| (twice
``graph_oracle.unit_count``) and {D / r} the Eichler symbol: 1 if r divides the
conductor of D, else the Kronecker symbol.
Then tr B(ell) = t(ell) and tr B(ell)^2 = t(ell^2) + ell N, N the number
of vertices or edges (B(ell)^2 = B(ell^2) + ell), for the Brandt matrices
on vertices (t_V) and on edges (t_E).

The edge matrix also lies over the vertex matrix: the multiset of the
sources of the edges that row i of B_E(ell) reaches is row source(i) of
B_V(ell), and the same for targets.  At (5,163), ell = 5 = p is no Hecke
operator of the edges, so only the vertex trace is checked there.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from graph_oracle import unit_count
from shimura_pq.gross import class_number
from shimura_pq.ntheory import kronecker

GRAPHS = ["graph_13_47", "graph_5_163", "graph_29_251", "cold_257_251"]


def _conductor(D):
    """The largest f with D / f^2 a discriminant."""
    f = isqrt(-D)
    while f > 1 and (D % (f * f) or D // (f * f) % 4 not in (0, 1)):
        f -= 1
    return f


def _eichler_symbol(D, r):
    return 1 if _conductor(D) % r == 0 else kronecker(D, r)


def _trace(n, q, p=None):
    total = Fraction(0)
    for s in range(isqrt(4 * n - 1) + 1):
        D = s * s - 4 * n
        for f in range(1, isqrt(-D) + 1):
            if D % (f * f) or D // (f * f) % 4 not in (0, 1):
                continue
            d = D // (f * f)
            term = Fraction(class_number(d), 2 * unit_count(d)) * (1 - _eichler_symbol(d, q))
            if p is not None:
                term *= 1 + _eichler_symbol(d, p)
            total += term if s == 0 else 2 * term  # s and -s
    if isqrt(n) ** 2 == n:
        total += Fraction((q - 1) * (1 if p is None else p + 1), 12)
    return total


def t_V(n, q):
    """Eichler's trace of B(n) on the vertices, the classes of a maximal order."""
    return _trace(n, q)


def t_E(n, q, p):
    """Eichler's trace of B(n) on the edges, the classes of an Eichler order
    of level p."""
    return _trace(n, q, p)


def _trace_of(rows):
    return sum(c for i, row in enumerate(rows) for j, c in row if j == i)


def _trace_of_square(rows):
    cols = [dict(row) for row in rows]
    return sum(c * cols[j].get(i, 0) for i, row in enumerate(rows) for j, c in row)


def _graph(fixture, request):
    if fixture == "cold_257_251":
        return request.getfixturevalue(fixture).graph
    return request.getfixturevalue(fixture)


@pytest.mark.parametrize("fixture", GRAPHS)
@pytest.mark.parametrize("ell", [3, 5])
def test_traces_match_eichler(fixture, ell, request):
    graph = _graph(fixture, request)
    p, q = graph.p, graph.q
    vertices = graph.brandt_vertices(ell)
    assert _trace_of(vertices) == t_V(ell, q)
    assert _trace_of_square(vertices) == t_V(ell * ell, q) + ell * len(graph.vset)
    if ell == p:
        return
    edges = graph.brandt_edges(ell)
    assert _trace_of(edges) == t_E(ell, q, p)
    assert _trace_of_square(edges) == t_E(ell * ell, q, p) + ell * len(graph)


@pytest.mark.parametrize("fixture,ell", [(fixture, ell) for fixture in GRAPHS for ell in (3, 5)
                                         if (fixture, ell) != ("graph_5_163", 5)])
def test_edge_rows_lie_over_vertex_rows(fixture, ell, request):
    graph = _graph(fixture, request)
    vertices = graph.brandt_vertices(ell)
    for i, row in enumerate(graph.brandt_edges(ell)):
        e = graph.edges[i]
        for end in ("source", "target"):
            ends = Counter()
            for j, c in row:
                ends[getattr(graph.edges[j], end)] += c
            assert sorted(ends.items()) == vertices[getattr(e, end)], (i, end)
