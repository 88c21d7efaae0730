"""Integer lattice duality and the sparse Hecke recursion against the oracle.

``lattice_oracle`` holds the ``Fraction`` versions the package used before:
duals through a ``Fraction`` inverse of the constraint HNF, and the towers
through a dense matrix-vector push.  The integer code must give the same
lattices (lattice equality is canonical: HNF rows over the least
denominator) and the same tower vectors, entry by entry.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from shimura_pq import gross, quat
from shimura_pq.linalg import det_bareiss
from shimura_pq.quat import Lattice, make_algebra

ALG = make_algebra(47)


@st.composite
def lattices(draw):
    """Full-rank lattices from a random integer basis: pivots from 1 to 400,
    often one large and the rest small, over a denominator up to 60."""
    big = draw(st.integers(0, 3))
    rows = []
    for r in range(4):
        hi = 400 if r == big else 12
        rows.append([draw(st.integers(-hi, hi)) for _ in range(4)])
    assume(det_bareiss(rows) != 0)
    return Lattice.from_int_rows(ALG, rows, draw(st.integers(1, 60)))


@given(lattices())
@settings(max_examples=150, deadline=None)
def test_adjugate_of_hnf(lat):
    adj, det = quat._adjugate(lat.rows)
    assert det == det_bareiss(lat.rows) > 0
    for i in range(4):
        for j in range(4):
            assert sum(lat.rows[i][k] * adj[k][j] for k in range(4)) == det * (i == j)


@given(lattices())
@settings(max_examples=150, deadline=None)
def test_dual_matches_oracle(lat):
    dual = quat._dual(lat)
    assert dual == oracle.dual_of_constraints(ALG, oracle.frac_rows(lat))
    assert quat._dual(dual) == lat
    for r in oracle.frac_rows(lat):
        for s in oracle.frac_rows(dual):
            assert sum(x * y for x, y in zip(r, s)).denominator == 1


@given(lattices(), lattices())
@settings(max_examples=100, deadline=None)
def test_intersection_matches_oracle(l1, l2):
    meet = quat.lattice_intersection(l1, l2)
    assert meet == oracle.lattice_intersection(l1, l2)
    for x in meet.basis():
        assert x in l1 and x in l2


@given(lattices())
@settings(max_examples=60, deadline=None)
def test_orders_match_oracle(lat):
    assert quat.right_order(lat.conj_lattice()).conj_lattice() == oracle.left_order(lat)
    assert quat.right_order(lat) == oracle.right_order(lat)


def test_standard_lattice_is_self_dual():
    flat = Lattice(ALG, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1)
    assert quat._dual(flat) == flat
    assert quat._dual(oracle.scale(flat, Fraction(3, 2))) == oracle.scale(flat, Fraction(2, 3))


@pytest.mark.parametrize("ell", [3, 5])
def test_brandt_edge_intersections_13_47(graph_13_47, ell):
    pairs = 0
    for e in graph_13_47.edges:
        for lam, _, _ in graph_13_47.vertex_neighbors(e.source, ell):
            assert quat.lattice_intersection(lam, e.ideal) == \
                oracle.lattice_intersection(lam, e.ideal)
            pairs += 1
    assert pairs == (ell + 1) * len(graph_13_47.edges)


def test_vertex_and_edge_orders_13_47(graph_13_47):
    ideals = [c.ideal for c in graph_13_47.vset.classes]
    ideals += [m for e in graph_13_47.edges for m in e.orbit]
    for ideal in ideals:
        assert quat.right_order(ideal.conj_lattice()).conj_lattice() == \
            oracle.left_order(ideal)
        assert quat.right_order(ideal) == oracle.right_order(ideal)
    for c in graph_13_47.vset.classes:
        assert quat.right_order(c.ideal) == c.right_order


@pytest.mark.parametrize("ell", [3, 5])
def test_towers_13_47(graph_13_47, ell):
    for name in ("gross_tower_modular", "gross_tower_shimura"):
        fast = getattr(gross, name)(graph_13_47, ell, 5)
        slow = getattr(oracle, name)(graph_13_47, ell, 5)
        assert fast == slow, name
        assert all(type(x) is Fraction for v in fast for x in v)
        assert getattr(gross, name)(graph_13_47, ell, 0) == []


def test_hecke_tower_is_weight_conjugate():
    # B = [[1, 2], [3, 0]], weights (1, 2): w_j g'[j] = sum_i w_i g[i] B[i][j] - c w_j g0[j]
    rows = [[(0, 1), (1, 2)], [(0, 3)]]
    g0 = (Fraction(1), Fraction(1, 2))
    g1 = (Fraction(2), Fraction(3, 2))
    out = gross.hecke_tower(g0, g1, rows, [1, 2], 5, 7, 3)
    assert out[0] == g1
    assert out[1] == (2 + 3 * 3 - 5 * 1, Fraction(2 * 2, 2) - Fraction(5, 2))
    g2 = out[1]
    assert out[2] == (g2[0] + 3 * 2 * g2[1] - 7 * g1[0], Fraction(2 * g2[0], 2) - 7 * g1[1])
