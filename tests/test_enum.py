"""The integer LLL + Fincke-Pohst enumerator against the Fraction oracle.

``enum_oracle`` is the enumerator the lattices used before, kept unchanged
as a function of the Gram matrix.  The fast one must give the same
(c, value) sets for exact and ``upto`` targets, the same ``find_norm_vector``
pick (it decides the equivalence witnesses stored in the graph cache) and
the same ``min_vectors``.  ``Lattice.norm_vectors`` with a trace searches the
rank-3 trace-zero lattice; it must give the list the rank-4 search filtered
on the trace gives, and with q = 0 in the algebra it is never cut short by
the local gate at q.  A form's floor, below which a search returns at once,
must be S times its least squared Gram-Schmidt length and lose no vector.
The integral LLL that sets a form up keeps the Gram matrix of its reduced
basis; ``enum_oracle.reduced_form_reference``, the LLL that recomputed each
b_k . b_j from the transform, must give the same transform, minors,
lam, weights, floor and minimum bound on every Gram.
"""

from fractions import Fraction
from math import ceil

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import enum_oracle as oracle
from lattice_oracle import nrd, trd
from shimura_pq.linalg import det_bareiss
from shimura_pq.quat import Lattice, Quat, QuaternionAlgebra, _ReducedForm
from shimura_pq.ssgraph import vertex_classes


def _as_set(pairs):
    return {(c, int(v)) for c, v in pairs}


def _pick(form, target):
    """The find_norm_vector rule on a bare Gram matrix: least (c3, c2, c1, c0)."""
    sols = [c for c, _ in form.vectors(target)]
    return min(sols, key=lambda c: c[::-1]) if sols else None


def _check_gram(g, targets):
    form = _ReducedForm(g)
    for t in targets:
        assert _as_set(form.vectors(t)) == _as_set(oracle.enum_form(g, t))
        assert _as_set(form.vectors(t, upto=True)) == _as_set(oracle.enum_form(g, t, upto=True))
        assert _pick(form, t) == oracle.find_norm_vector(g, t)


def _check_lattice(lat, norms, upto_norm):
    """Compare every Lattice entry point with the oracle on lat.gram(), at
    the int norms asked for."""
    g = lat.gram()
    den2 = lat.den ** 2
    for n in norms:
        t = n * den2
        assert _as_set(lat._enum_form(t)) == _as_set(oracle.enum_form(g, t))
        expected = sorted((lat._vector(c) for c, _ in oracle.enum_form(g, t)), key=lambda v: v.key())
        assert lat.norm_vectors(n) == expected
        c = oracle.find_norm_vector(g, t)
        assert lat.find_norm_vector(n) == (None if c is None else lat._vector(c))
    t = upto_norm * den2
    assert _as_set(lat._enum_form(t, upto=True)) == _as_set(oracle.enum_form(g, t, upto=True))
    _, vecs = oracle.min_vectors(g)
    assert lat.min_vectors() == sorted((lat._vector(c) for c in vecs), key=lambda v: v.key())


@st.composite
def pd_grams(draw, n=4):
    """G = M M^T for a random integer n x k matrix M of rank n."""
    k = draw(st.integers(n, n + 2))
    m = [[draw(st.integers(-6, 6)) for _ in range(k)] for _ in range(n)]
    g = [[sum(m[i][t] * m[j][t] for t in range(k)) for j in range(n)] for i in range(n)]
    assume(det_bareiss(g) > 0)
    return g


@st.composite
def skewed_lattices(draw):
    """HNF lattices in the norm form x0^2 + a x1^2 + b x2^2 + ab x3^2.

    Pivots up to 400 with off-diagonal entries anywhere below the pivot of
    their column: a basis far from reduced, like the HNF of an ideal."""
    a = draw(st.integers(1, 40))
    b = draw(st.integers(1, 200))
    piv = [draw(st.integers(1, 400)) for _ in range(4)]
    rows = [[0] * c + [piv[c]] + [draw(st.integers(0, piv[j] - 1)) for j in range(c + 1, 4)]
            for c in range(4)]
    return Lattice.from_int_rows(QuaternionAlgebra(q=0, a=a, b=b), rows, draw(st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(pd_grams(), st.integers(0, 3))
def test_random_gram_matches_oracle(g, extra):
    best, vecs = oracle.min_vectors(g)
    form = _ReducedForm(g)
    _check_gram(g, sorted({best, best + 1 + extra, 2 * best + extra}))
    got = {(c, v) for c, v in form.vectors(form.min_bound, upto=True)}
    low = min(v for _, v in got)
    assert (low, {c for c, v in got if v == low}) == (best, vecs)


@settings(max_examples=60, deadline=None)
@given(pd_grams(3), st.integers(0, 3))
def test_random_rank3_gram_matches_oracle(g, extra):
    """The rank-3 search (the trace-zero lattices) runs with y_4 = 0."""
    best, vecs = oracle.min_vectors(g)
    form = _ReducedForm(g)
    _check_gram(g, sorted({best, best + 1 + extra, 2 * best + extra}))
    got = {(c, v) for c, v in form.vectors(form.min_bound, upto=True)}
    assert all(len(c) == 3 for c, _ in got)
    low = min(v for _, v in got)
    assert (low, {c for c, v in got if v == low}) == (best, vecs)


def _lll_fields(form):
    return (form.n, form.t, form.d, form.lam, form.w, form.s, form.floor, form.min_bound)


@pytest.mark.parametrize("q", [11, 47, 83, 163])
def test_lll_matches_reference_on_class_search(q, monkeypatch):
    """Every form ``vertex_classes(q)`` sets up, against the LLL that read
    b_k . b_j off the transform."""
    forms = []
    init = _ReducedForm.__init__

    def recorded(self, g):
        init(self, g)
        forms.append(([list(r) for r in g], self))

    monkeypatch.setattr(_ReducedForm, "__init__", recorded)
    vertex_classes(q)
    monkeypatch.undo()
    assert {form.n for _, form in forms} == {4}
    for g, form in forms:
        assert _lll_fields(form) == _lll_fields(oracle.reduced_form_reference(g))


@settings(max_examples=150, deadline=None)
@given(st.one_of(pd_grams(), pd_grams(3)))
def test_lll_matches_reference_on_random_grams(g):
    assert _lll_fields(_ReducedForm(g)) == _lll_fields(oracle.reduced_form_reference(g))


def _gram_schmidt_floor(form, g):
    """The least squared Gram-Schmidt length of the reduced basis, from the
    leading minors of its Gram matrix: |b_j*|^2 = det G_j / det G_(j-1)."""
    n = form.n
    rows = [r[:n] for r in form.t[1:n + 1]]
    red = [[sum(x * gxy * y for x, grow in zip(u, g) for gxy, y in zip(grow, v))
            for v in rows] for u in rows]
    minors = [1] + [det_bareiss([r[:j] for r in red[:j]]) for j in range(1, n + 1)]
    return min(Fraction(minors[j], minors[j - 1]) for j in range(1, n + 1))


def _check_floor(g):
    """floor / S is the least squared Gram-Schmidt length, it bounds the
    minimum, and the searches on either side of it match both oracles."""
    form = _ReducedForm(g)
    best, _ = oracle.min_vectors(g)
    assert Fraction(form.floor, form.s) == _gram_schmidt_floor(form, g)
    assert form.s * best >= form.floor
    edge = form.floor // form.s
    for t in (edge - 1, edge, edge + 1):
        for upto in (False, True):
            got = sorted(form.vectors(t, upto))
            assert _as_set(got) == _as_set(oracle.enum_form(g, t, upto)), (t, upto)
            assert got == sorted(oracle.reduced_vectors(form, t, upto)), (t, upto)


@settings(max_examples=60, deadline=None)
@given(pd_grams())
@example([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]])
@example([[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 7]])
def test_floor_bounds_rank4_searches(g):
    _check_floor(g)


@settings(max_examples=60, deadline=None)
@given(pd_grams(3))
@example([[1, 0, 0], [0, 4, 0], [0, 0, 9]])
@example([[3, 1, 1], [1, 3, 1], [1, 1, 3]])
def test_floor_bounds_rank3_searches(g):
    _check_floor(g)


def test_kernel_matches_recursive_search_on_cold_5_163(cold_5_163):
    """Every search of a cold (5,163) build and of its D = -36 Gross
    vectors, and every form it built on its minimum, against the recursive
    search on the same reduced form."""
    def same(form, target, upto):
        assert sorted(form.vectors(target, upto)) == \
            sorted(oracle.reduced_vectors(form, target, upto)), (form.n, target, upto)

    assert {form.n for form in cold_5_163.forms} == {3, 4}
    for form, target, upto in cold_5_163.searches:
        same(form, target, upto)
    for form in cold_5_163.forms:
        same(form, form.min_bound, False)
        same(form, form.min_bound, True)


def test_rank_outside_3_and_4_raises():
    for g in ([[1, 0], [0, 1]], [[int(r == c) for c in range(5)] for r in range(5)]):
        with pytest.raises(ValueError):
            _ReducedForm(g)


def test_integer_norm_and_trace_build_no_fraction(vset47, monkeypatch):
    """An int norm and trace, as the embedding searches pass them, stay in
    int arithmetic and give the rank-4 search filtered on the trace."""
    order = vset47.classes[1].right_order
    expected = [oracle.norm_vectors_with_trace(order, n, t) for n, t in ((5, 1), (9, 0))]

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the int path")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    fresh = Lattice(order.alg, order.rows, order.den)  # no cached S0 form
    assert [fresh.norm_vectors(5, trace=1), fresh.norm_vectors(9, trace=0)] == expected
    assert any(expected)


@settings(max_examples=40, deadline=None)
@given(skewed_lattices())
def test_skewed_lattice_matches_oracle(lat):
    # the least int norm at or above the minimum, which den > 1 can make
    # fractional
    best = ceil(nrd(lat.min_vectors()[0]))
    _check_lattice(lat, sorted({best, best + 1, 2 * best}), 2 * best)


def test_graph_13_47_matches_oracle(graph_13_47):
    vset = graph_13_47.vset
    for rec in vset.classes:
        _check_lattice(rec.right_order, (1, 2, 3), 3)
        n = rec.norm
        _check_lattice(rec.ideal, (n, 2 * n, 3 * n), 3 * n)
    for edge in graph_13_47.edges:
        _check_lattice(edge.eichler, (1, 2, 3), 3)


@pytest.mark.parametrize("g", [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3]],
    [[5, 4, 0, 0], [4, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
])
def test_not_positive_definite_raises(g):
    with pytest.raises(ArithmeticError):
        _ReducedForm(g)


def test_indefinite_lattice_raises():
    lat = Lattice(QuaternionAlgebra(q=0, a=-1, b=3), [(1, 0, 0, 0), (0, 1, 0, 0),
                                                      (0, 0, 1, 0), (0, 0, 0, 1)], 1)
    with pytest.raises(ArithmeticError):
        lat.norm_vectors(1)


# -- the search with a fixed trace, in the trace-zero lattice -------------------

def _check_trace(lat, n, t):
    got = lat.norm_vectors(n, trace=t)
    assert got == oracle.norm_vectors_with_trace(lat, n, t), (n, t)
    return got


@pytest.mark.parametrize("pair", ["graph_13_47", "graph_5_37"])
def test_embedding_candidates_match_rank4_search(pair, request):
    """Every order a Gross vector or the trace battery searches: the base
    order, each vertex order and each Eichler order, for -200 <= D <= -3.
    (5,37) is the a = 2 model."""
    graph = request.getfixturevalue(pair)
    vset = graph.vset
    orders = [vset.order, *(c.right_order for c in vset.classes), *(e.eichler for e in graph.edges)]
    found = 0
    for d in range(-3, -201, -1):
        if d % 4 in (0, 1):
            t0 = d % 2
            for order in orders:
                found += len(_check_trace(order, (t0 - d) // 4, t0))
    assert found > 0


def test_trace_search_edge_cases(vset47):
    order = vset47.order
    alg = order.alg
    assert order.den == 2
    # n = 0: the zero vector alone, of trace 0
    assert [v.num for v in _check_trace(order, 0, 0)] == [(0, 0, 0, 0)]
    assert _check_trace(order, 0, 1) == []
    # 4n - t^2 < 0: nothing
    assert _check_trace(order, 1, 3) == []
    # 4n - t^2 = 0: y = 0, so x = t/2 alone
    assert _check_trace(order, 1, 2) == [Quat.one(alg)]
    assert _check_trace(order, 1, -2) == [Quat(alg, (-1, 0, 0, 0))]
    # trace 1 on a lattice with denominator 2: x = (1 + y)/2, as (1 + j)/2
    assert Quat(alg, (1, 0, 1, 0), 2) in _check_trace(order, 12, 1)


def test_trace_search_ungated_without_q():
    """The local gate reads alg.q alone.  In Hamilton's quaternions (a = b = 1,
    ramified at 2, split at 5) the Lipschitz order holds the six units
    +-i, +-j, +-k of trace 0 and norm 1, although (-4|5) = 1: with q = 0 the
    search finds them; with the algebra mislabelled q = 5 the gate drops them."""
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    found = _check_trace(Lattice(QuaternionAlgebra(q=0, a=1, b=1), rows, 1), 1, 0)
    assert sorted(v.num for v in found) == sorted(
        tuple(s * x for x in e) for s in (1, -1) for e in rows[1:])
    assert Lattice(QuaternionAlgebra(q=5, a=1, b=1), rows, 1).norm_vectors(1, trace=0) == []


@settings(max_examples=40, deadline=None)
@given(skewed_lattices(), st.integers(-3, 3))
def test_trace_search_matches_oracle_on_skewed_lattices(lat, shift):
    """The integral norms and traces of short lattice vectors and of den
    times them (c . rows, of integral norm and trace), and the same norms
    with the trace moved by shift."""
    den2 = lat.den ** 2
    best = nrd(lat.min_vectors()[0])
    short = sorted((lat._vector(c) for c, _ in lat._enum_form(int(2 * best * den2), upto=True)),
                   key=Quat.key)
    for x in short[:6] + [lat.den * x for x in short[:2]]:
        n, t = nrd(x), trd(x)
        if n.denominator == 1 and t.denominator == 1:
            for s in {0, shift}:
                _check_trace(lat, int(n), int(t) + s)
