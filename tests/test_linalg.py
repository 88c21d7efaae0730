from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import solve_frac
from lattice_oracle import frac_sqrt, hnf_rows_pairwise, kernel_mod_p, mat_inv_frac, mat_mul_frac
from shimura_pq.linalg import (
    det_bareiss,
    hnf_rows,
    smith_normal_form,
    solve_bareiss,
    xgcd,
)
from shimura_pq.quat import make_algebra


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert g >= 0
    assert s * a + t * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


def _apply_unimodular(rows, ops):
    rows = [list(r) for r in rows]
    for kind, i, j, c in ops:
        i, j = i % len(rows), j % len(rows)
        if i == j:
            continue
        if kind == 0:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return rows


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
        max_size=8,
    ),
)
def test_hnf_invariant_under_row_ops(rows, ops):
    base = hnf_rows(rows)
    if len(base) != 4:
        return
    rebased = _apply_unimodular(base, ops)
    assert hnf_rows(rebased) == base


def test_hnf_shape():
    h = hnf_rows([[2, 0, 0, 0], [0, 2, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
    assert h == [(1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 0, 2)]


def test_smith_fixtures():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    diag = smith_normal_form([[6, 0], [0, 10]])
    assert diag == [2, 30]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_bareiss_matches_fraction_elimination(mat):
    det = det_bareiss(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    d = Fraction(1)
    for col in range(3):
        piv = next((r for r in range(col, 3) if a[r][col] != 0), None)
        if piv is None:
            d = Fraction(0)
            break
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = -d
        d *= a[col][col]
        for r in range(col + 1, 3):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert det == d


def test_mat_inv_frac():
    m = [[1, 2], [3, 4]]
    inv = mat_inv_frac(m)
    assert mat_mul_frac(m, inv) == [[1, 0], [0, 1]]


def test_solve_frac():
    sol = solve_frac([[2, 0], [0, 4]], [1, 2])
    assert sol == [Fraction(1, 2), Fraction(1, 2)]
    assert solve_frac([[1, 1], [1, 1]], [0, 1]) is None
    # canonical particular solution with a free variable: free vars are 0
    sol = solve_frac([[1, 1]], [3])
    assert sol == [Fraction(3), Fraction(0)]


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3), min_size=n, max_size=n))))
@settings(max_examples=200, deadline=None)
def test_solve_bareiss_matches_fractions(case):
    mat, rhs = case
    det = det_bareiss(mat)
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            solve_bareiss(mat, rhs)
        return
    d, y = solve_bareiss(mat, rhs)
    assert d == det
    for c in range(3):
        x = solve_frac(mat, [row[c] for row in rhs])
        assert [Fraction(y[i][c], d) for i in range(len(mat))] == x


def test_kernel_mod_p():
    mat = [[1, 2, 0, 0], [0, 1, 0, 0], [3, 0, 0, 0], [0, 0, 0, 0]]
    ker = kernel_mod_p(mat, 5)
    assert len(ker) == 2
    for c in ker:
        assert any(c)
        for j in range(4):
            assert sum(c[i] * mat[i][j] for i in range(4)) % 5 == 0


def test_frac_sqrt():
    assert frac_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert frac_sqrt(Fraction(2)) is None
    assert frac_sqrt(Fraction(0)) == 0


@st.composite
def _row_sets(draw):
    """(ncols, rows): 3 or 4 columns, random rows plus zero, repeated,
    negated and dependent (integer combination) rows, shuffled."""
    ncols = draw(st.sampled_from([3, 4]))
    entry = st.integers(-40, 40)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.integers(0, 3))
        if kind == 0 or not rows:
            rows.append([0] * ncols)
        elif kind == 1:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == 2:
            rows.append([-x for x in draw(st.sampled_from(rows))])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            rows.append([c * x + d * y for x, y in zip(a, b)])
    return ncols, draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(_row_sets())
def test_hnf_rows_matches_pairwise(case):
    ncols, rows = case
    if ncols == 4:
        assert hnf_rows(rows) == hnf_rows_pairwise(rows, 4)
    else:
        # the rank-3 path of quat: a zero column prepended, then dropped
        fast = [r[1:] for r in hnf_rows([[0] + list(r) for r in rows])]
        assert fast == hnf_rows_pairwise(rows, 3)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-12, 12), min_size=4, max_size=4), min_size=4, max_size=4),
       st.lists(st.lists(st.integers(-12, 12), min_size=4, max_size=4), min_size=4, max_size=4))
def test_hnf_rows_matches_pairwise_on_products(a, b):
    # the 16 rows of a lattice product, as Lattice.mul builds them
    alg = make_algebra(47)
    rows = [alg.mul4(r, s) for r in a for s in b]
    assert hnf_rows(rows) == hnf_rows_pairwise(rows, 4)
