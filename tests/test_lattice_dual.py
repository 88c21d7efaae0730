"""Integer lattice code and the sparse Hecke recursion against the oracle.

``lattice_oracle`` holds the ``Fraction`` versions the package used before:
right and left orders as duals of constraint lattices, through a
``Fraction`` inverse of their HNF, and the towers through a dense
matrix-vector push.  The integer code must give the same lattices (lattice
equality is canonical: HNF rows over the least denominator) and the same
tower vectors, entry by entry.  The package's right order is I^-1 I, so it
is compared on invertible ideals: left ideals of maximal orders.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from graph_oracle import tower_vectors
from shimura_pq import gross, quat
from shimura_pq.linalg import det_bareiss
from shimura_pq.quat import Lattice, Quat, ideal_norm, make_algebra

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


vectors = st.tuples(*[st.integers(-30, 30)] * 4)


@given(st.integers(0, 2), vectors, vectors)
@settings(max_examples=60, deadline=None)
def test_orders_match_oracle(vset47, k, x, y):
    # I = O x + O y, an integral left ideal of O, the right order of one of
    # the first three classes (the base order among them): a maximal order.
    # x and y are coordinates in O's basis, so I <= O.  A scaled I has the
    # same right order.
    assume(any(x))
    order = vset47.classes[k].right_order
    gens = [tuple(sum(c * r[i] for c, r in zip(v, order.rows)) for i in range(4)) for v in (x, y)]
    ideal = Lattice.from_int_rows(ALG, [ALG.mul4(r, v) for v in gens for r in order.rows],
                                  order.den ** 2)
    n = ideal_norm(ideal, order)
    assert quat.right_order(ideal, n) == oracle.right_order(ideal)
    assert quat.right_order(ideal.conj_lattice(), n).conj_lattice() == \
        oracle.left_order(ideal) == order


quats = st.builds(lambda num, den: Quat(ALG, num, den),
                  st.tuples(*[st.integers(-30, 30)] * 4), st.integers(1, 12))


@given(lattices(), st.tuples(*[st.integers(-20, 20)] * 4), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_coords_of_matches_oracle(lat, c, m):
    # x = (c . basis) / m lies in the lattice iff m divides every c_r; the
    # denominator of x need not divide that of the lattice
    x = Quat(ALG, [sum(cr * r[col] for cr, r in zip(c, lat.rows)) for col in range(4)],
             lat.den * m)
    expected = tuple(cr // m for cr in c) if all(cr % m == 0 for cr in c) else None
    assert lat.coords_of(x) == oracle.coords_of(lat, x) == expected
    assert (x in lat) == (expected is not None)


@given(lattices(), quats)
@settings(max_examples=150, deadline=None)
def test_coords_of_arbitrary_element_matches_oracle(lat, x):
    assert lat.coords_of(x) == oracle.coords_of(lat, x)


@given(lattices(), quats)
@settings(max_examples=150, deadline=None)
def test_conj_by_matches_oracle(lat, y):
    assume(any(y.num))
    assert oracle.conj_by_integer(lat, y) == oracle.conj_by(lat, y)


@given(lattices())
@settings(max_examples=150, deadline=None)
def test_reduced_discriminant_matches_oracle(lat):
    results = []
    for fn in (quat.reduced_discriminant, oracle.reduced_discriminant):
        try:
            results.append(fn(lat))
        except ArithmeticError:
            results.append(None)
    assert results[0] == results[1]


def test_vertex_and_edge_orders_13_47(graph_13_47):
    # class ideals are left ideals of the base order, edge ideals left
    # ideals of norm p of the right order of their source
    cases = [(c.ideal, c.norm) for c in graph_13_47.vset.classes]
    cases += [(m, graph_13_47.p) for e in graph_13_47.edges for m in e.orbit]
    for ideal, n in cases:
        assert quat.right_order(ideal.conj_lattice(), n).conj_lattice() == \
            oracle.left_order(ideal)
        assert quat.right_order(ideal, n) == oracle.right_order(ideal)
    for c in graph_13_47.vset.classes:
        assert quat.right_order(c.ideal, c.norm) == c.right_order


@pytest.mark.parametrize("ell", [3, 5])
def test_towers_13_47(graph_13_47, ell):
    # the vertex counts over den 2, the edge counts over the lengths
    towers = {"gross_tower_modular": (gross.gross_tower_modular(graph_13_47, ell, 5),
                                      [1] * len(graph_13_47.vset)),
              "gross_tower_shimura": ((1, gross.gross_tower_shimura(graph_13_47, ell, 5)),
                                      graph_13_47.lengths)}
    for name, ((den, nums), weights) in towers.items():
        slow = getattr(oracle, name)(graph_13_47, ell, 5)
        assert tower_vectors((den, nums), weights) == slow, name
        assert all(type(x) is int for v in nums for x in v)
    assert gross.gross_tower_modular(graph_13_47, ell, 0) == (2, [])
    assert gross.gross_tower_shimura(graph_13_47, ell, 0) == []


def test_hecke_tower_is_weight_conjugate():
    # B = [[1, 2], [3, 0]], weights (1, 2): w_j g'[j] = sum_i w_i g[i] B[i][j] - c w_j g0[j]
    # is the recursion on the counts w_j g[j]
    rows = [[(0, 1), (1, 2)], [(0, 3)]]
    g0 = (Fraction(1), Fraction(1, 2))
    g1 = (Fraction(2), Fraction(3, 2))
    counts = [tuple(int(x * w) for x, w in zip(g, (1, 2))) for g in (g0, g1)]
    out = tower_vectors((1, gross.hecke_tower(*counts, rows, 5, 7, 3)), [1, 2])
    assert out[0] == g1
    assert out[1] == (2 + 3 * 3 - 5 * 1, Fraction(2 * 2, 2) - Fraction(5, 2))
    g2 = out[1]
    assert out[2] == (g2[0] + 3 * 2 * g2[1] - 7 * g1[0], Fraction(2 * g2[0], 2) - 7 * g1[1])
