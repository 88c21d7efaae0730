from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import brandt_matrix, dense, rref_mod_fresh, ss_oracle_reference
from shimura_pq import quat, ssgraph
from shimura_pq.certify import SS_ORACLE_MAX_Q, cache_load, cache_store, genus
from shimura_pq.ntheory import is_prime, kronecker
from shimura_pq.quat import equiv_witness, ideal_norm, make_algebra, maximal_order, norm_ideals
from shimura_pq.ssgraph import ShimuraGraph, _rref_mod, build_graph, ss_oracle, vertex_classes

# The pairs with a session fixture graph_{p}_{q} in conftest.py.
GRAPH_FIXTURES = {(13, 11), (5, 23), (13, 47), (29, 47), (5, 163), (29, 251), (13, 83)}


class TestVertexClasses:
    def test_q47(self, vset47):
        assert len(vset47) == 5
        assert vset47.weights == [3, 2, 1, 1, 1]
        assert vset47.mass() == Fraction(46, 12)
        assert vset47.wq_perm == list(range(5))

    def test_q11(self, vset11):
        assert len(vset11) == 2
        assert sorted(vset11.weights) == [2, 3]
        assert vset11.mass() == Fraction(10, 12)

    def test_count_is_genus_plus_one(self, vset11, vset23, vset47):
        for vset, q in ((vset11, 11), (vset23, 23), (vset47, 47)):
            assert len(vset) == genus(q) + 1

    def test_pairwise_inequivalent(self, vset47):
        for i, a in enumerate(vset47.classes):
            for b in vset47.classes[i + 1:]:
                assert equiv_witness(a.ideal, b.ideal, vset47.order) is None

    @pytest.mark.parametrize("p, q", [(13, 11), (5, 37), (13, 47), (5, 163)])
    def test_ideal_norms_are_ints(self, p, q, request, tmp_path, monkeypatch):
        """Every norm the class search takes is an int (the ideals are
        integral), every I_k L and I_k T_k has norm 2 n_k and q n_k as an
        int, and the class norms stay ints through a cache."""
        taken = []

        def recorded(ideal, order):
            n = ideal_norm(ideal, order)
            taken.append(type(n))
            return n

        monkeypatch.setattr(quat, "ideal_norm", recorded)
        monkeypatch.setattr(ssgraph, "ideal_norm", recorded)
        vset = vertex_classes(q)
        monkeypatch.undo()
        assert len(taken) > len(vset) and set(taken) == {int}
        for k, rec in enumerate(vset.classes):
            assert type(rec.norm) is int
            for lam in norm_ideals(rec.right_order, 2):
                n = ideal_norm(rec.ideal.mul(lam), vset.order)
                assert type(n) is int and n == 2 * rec.norm
            n = ideal_norm(rec.ideal.mul(vset.two_sided[k]), vset.order)
            assert type(n) is int and n == q * rec.norm
        cache_store(str(tmp_path), request.getfixturevalue(f"graph_{p}_{q}"))
        loaded = cache_load(str(tmp_path), p, q).vset
        assert [rec.norm for rec in loaded.classes] == [rec.norm for rec in vset.classes]
        assert all(type(rec.norm) is int for rec in loaded.classes)

    def test_wq_involution(self, vset47, vset11):
        for vset in (vset47, vset11):
            perm = vset.wq_perm
            assert all(perm[perm[k]] == k for k in range(len(vset)))


class TestEdges:
    def test_census_13_47(self, graph_13_47):
        g = graph_13_47
        assert len(g) == 56
        lengths = g.lengths
        assert lengths.count(2) == 2 and lengths.count(3) == 2
        weight2 = next(k for k, c in enumerate(g.vset.classes) if c.weight == 2)
        weight3 = next(k for k, c in enumerate(g.vset.classes) if c.weight == 3)
        for i, e in enumerate(g.edges):
            if e.length == 2:
                assert e.source == weight2 and e.target == weight2
            if e.length == 3:
                assert e.source == weight3 and e.target == weight3

    def test_edge_mass(self, graph_5_23, graph_13_47):
        assert graph_5_23.edge_mass() == Fraction(6 * 22, 12)
        assert graph_13_47.edge_mass() == Fraction(14 * 46, 12)

    def test_exceptional_census_5_23(self, graph_5_23):
        # p = 5 = 1 mod 4, q = 23 = 3 mod 4: two length-2 edges;
        # p = 2 mod 3: no length-3 edges even though 0 is supersingular.
        lengths = graph_5_23.lengths
        assert lengths.count(2) == 2
        assert lengths.count(3) == 0

    def test_wp_is_signed_involution(self, graph_13_47):
        g = graph_13_47
        tau = g.wp_perm
        for i, e in enumerate(g.edges):
            assert tau[tau[i]] == i
            assert g.edges[tau[i]].source == e.target
            assert g.edges[tau[i]].target == e.source
            assert g.edges[tau[i]].length == e.length

    def test_wq_edges(self, graph_13_47):
        g = graph_13_47
        perm = g.wq_edge_perm
        for i, e in enumerate(g.edges):
            assert perm[perm[i]] == i
            assert g.edges[perm[i]].length == e.length
            assert g.edges[perm[i]].source == g.vset.wq_perm[e.source]
            assert g.edges[perm[i]].target == g.vset.wq_perm[e.target]

    def test_wq_swaps_exceptional_pairs(self, graph_13_47):
        g = graph_13_47
        exc2 = [i for i, e in enumerate(g.edges) if e.length == 2]
        exc3 = [i for i, e in enumerate(g.edges) if e.length == 3]
        assert g.wq_edge_perm[exc2[0]] == exc2[1]
        assert g.wq_edge_perm[exc3[0]] == exc3[1]

    def test_validate_graph_rejects_an_edge_length(self, graph_13_11):
        # a cache load derives every length, so only a graph put together
        # by hand can break the edge mass formula alone
        edges = list(graph_13_11.edges)
        assert ShimuraGraph(13, 11, graph_13_11.vset, edges).wq_edge_perm == \
            graph_13_11.wq_edge_perm
        assert edges[4].length == 1
        edges[4] = edges[4]._replace(length=2)
        with pytest.raises(ArithmeticError, match="^edge mass formula violated"):
            ShimuraGraph(13, 11, graph_13_11.vset, edges)

    @pytest.mark.parametrize("p, q", [(13, 11), (5, 23), (13, 47), (29, 47), (5, 163),
                                      (17, 59), (29, 251), (41, 47), (13, 83), (37, 5),
                                      (53, 7)])
    def test_genus_identity(self, p, q, request):
        """The dual graph has 2h vertices and E edges, and X^{pq} is a
        Mumford curve at p (Cerednik-Drinfeld), so E - 2h + 1 is the genus
        1 + (p-1)(q-1)/12 - (1-(-4/p))(1-(-4/q))/4 - (1-(-3/p))(1-(-3/q))/3,
        here times 12.  Only ``kronecker`` is read, no quaternion code."""
        fixture = f"graph_{p}_{q}"
        graph = (request.getfixturevalue(fixture) if (p, q) in GRAPH_FIXTURES
                 else build_graph(p, q))
        twelve_g = (12 + (p - 1) * (q - 1)
                    - 3 * (1 - kronecker(-4, p)) * (1 - kronecker(-4, q))
                    - 4 * (1 - kronecker(-3, p)) * (1 - kronecker(-3, q)))
        assert 12 * (len(graph) - 2 * len(graph.vset) + 1) == twelve_g

    def test_wq_vertex_fixed_points_match_oracle(self, vset47, vset11):
        for vset, q in ((vset47, 47), (vset11, 11)):
            fixed = sum(1 for k in range(len(vset)) if vset.wq_perm[k] == k)
            assert fixed == ss_oracle(q)[1]


class TestBrandt:
    def test_q11_fixture(self, graph_13_11):
        mat = brandt_matrix(graph_13_11, 2)
        # canonical order puts the weight-3 class first; the classical
        # fixture lists the weight-2 class first
        w = graph_13_11.vset.weights
        i2, i3 = w.index(2), w.index(3)
        reordered = [
            [mat[i2][i2], mat[i2][i3]],
            [mat[i3][i2], mat[i3][i3]],
        ]
        assert reordered == [[1, 2], [3, 0]]

    def test_row_sums_and_weighted_symmetry(self, graph_13_47):
        g = graph_13_47
        w = g.vset.weights
        for ell in (2, 3, 5):
            mat = brandt_matrix(g, ell)
            assert all(sum(row) == ell + 1 for row in mat)
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] * w[j] == mat[j][i] * w[i]

    @pytest.mark.parametrize("fixture", ["graph_5_37", "graph_5_163"])
    def test_weighted_symmetry_beyond_47(self, fixture, request):
        # each row is built from its own source vertex, so w_m B[k][m] =
        # w_k B[m][k] is not there by construction; q = 37 is the a != 1 model
        g = request.getfixturevalue(fixture)
        w = g.vset.weights
        n = len(w)
        for ell in (2, 3, 5):
            mat = dense(g.brandt_vertices(ell))
            for k in range(n):
                for m in range(n):
                    assert w[m] * mat[k][m] == w[k] * mat[m][k]

    @pytest.mark.parametrize("fixture", ["graph_13_47", "graph_5_37", "graph_5_163"])
    def test_weighted_symmetry_at_p(self, fixture, request):
        # B_p[k][m] counts the norm-p ideals at k whose edge lands at m
        g = request.getfixturevalue(fixture)
        w = g.vset.weights
        n = len(w)
        mat = [[0] * n for _ in range(n)]
        for e in g.edges:
            mat[e.source][e.target] += len(e.orbit)
        assert mat == dense(g.brandt_vertices(g.p))
        for k in range(n):
            for m in range(n):
                assert w[m] * mat[k][m] == w[k] * mat[m][k]

    def test_sparse_rows(self, graph_13_47):
        # the rows the Hecke towers read: sorted targets, no zero counts
        g = graph_13_47
        for ell in (2, 3):
            for rows in (g.brandt_vertices(ell), g.brandt_edges(ell)):
                for row in rows:
                    targets = [j for j, _ in row]
                    assert targets == sorted(set(targets))
                    assert all(m > 0 for _, m in row)
                    assert sum(m for _, m in row) == ell + 1

    def test_commutation(self, graph_13_47):
        g = graph_13_47
        b2 = brandt_matrix(g, 2)
        b3 = brandt_matrix(g, 3)
        n = len(b2)

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]

        assert mul(b2, b3) == mul(b3, b2)

    def test_rejects_divisors_of_pq(self, graph_13_47):
        with pytest.raises(ValueError):
            brandt_matrix(graph_13_47, 13)
        with pytest.raises(ValueError):
            brandt_matrix(graph_13_47, 47)

    def test_edge_level(self, graph_13_47):
        g = graph_13_47
        lengths = g.lengths
        for ell in (2, 3, 5, 7):
            mat = dense(g.brandt_edges(ell))
            assert all(sum(row) == ell + 1 for row in mat)
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] * lengths[j] == mat[j][i] * lengths[i]

    @pytest.mark.parametrize("l1,l2", [(2, 3), (3, 5)])
    def test_edge_commutation(self, graph_13_47, l1, l2):
        a = dense(graph_13_47.brandt_edges(l1))
        b = dense(graph_13_47.brandt_edges(l2))
        n = len(a)

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]

        assert mul(a, b) == mul(b, a)

    def test_hecke_compatible_with_boundary(self, graph_13_47):
        from shimura_pq.gross import s_star, t_star

        g = graph_13_47
        nv, ne = len(g.vset), len(g.edges)
        for ell in (2, 3):
            be = dense(g.brandt_edges(ell))
            bv = brandt_matrix(g, ell)
            for idx in (0, 7, 20):
                v = tuple(Fraction(1 if i == idx else 0) for i in range(ne))
                pushed = tuple(
                    sum((v[i] * be[i][j] for i in range(ne)), Fraction(0)) for j in range(ne)
                )
                for star in (s_star, t_star):
                    left = star(g, pushed)
                    base = star(g, v)
                    right = tuple(
                        sum((base[k] * bv[k][t] for k in range(nv)), Fraction(0))
                        for t in range(nv)
                    )
                    assert left == right


class TestSsOracle:
    def test_counts(self):
        assert ss_oracle(11) == (2, 2)
        assert ss_oracle(47) == (5, 5)

    def test_count_is_genus_plus_one(self):
        for q in range(5, SS_ORACLE_MAX_Q + 1):
            if is_prime(q):
                assert ss_oracle(q)[0] == genus(q) + 1, q

    def test_matches_reference(self):
        for q in range(5, 151):
            if is_prime(q):
                assert ss_oracle(q) == ss_oracle_reference(q), q

    def test_matches_vertex_classes(self):
        """The closed form against the quaternion side: the class number and
        the w_q-fixed classes, for q = 1 and 3 (mod 4) and every branch of
        the rational count."""
        residues = set()
        for q in range(5, 151):
            if is_prime(q):
                vset = vertex_classes(q)
                assert ss_oracle(q) == (len(vset), vset.rational_count()), q
                residues.add(q % 8)
        assert residues == {1, 3, 5, 7}


class TestModelIndependence:
    def test_alternative_model_gives_same_graph_shape(self):
        alt = make_algebra(11, a=3)
        assert maximal_order(alt) is not None
        v_alt = vertex_classes(11, alg=alt)
        g_alt = build_graph(13, 11, vset=v_alt)
        v_std = vertex_classes(11)
        g_std = build_graph(13, 11, vset=v_std)
        assert sorted(v_alt.weights) == sorted(v_std.weights)
        assert g_alt.edge_mass() == g_std.edge_mass()
        assert sorted(g_alt.lengths) == sorted(g_std.lengths)
        b_alt = brandt_matrix(g_alt, 2)
        b_std = brandt_matrix(g_std, 2)
        trace = lambda m: sum(m[i][i] for i in range(len(m)))
        assert trace(b_alt) == trace(b_std)


@st.composite
def _low_rank_mod(draw):
    """(p, r, rows): a 4 x 4 integer matrix of rank at most r mod p, the
    product of a 4 x r and an r x 4 random matrix, its entries shifted by
    random multiples of p."""
    p = draw(st.sampled_from([2, 3, 13, 257]))
    r = draw(st.integers(0, 4))
    entry = st.integers(0, p - 1)
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=4, max_size=4))
    right = draw(st.lists(st.lists(entry, min_size=4, max_size=4), min_size=r, max_size=r))
    shift = draw(st.lists(st.integers(-3, 3), min_size=16, max_size=16))
    rows = [[sum(a * b for a, b in zip(row, col)) + p * shift[4 * i + j]
             for j, col in enumerate(zip(*right) if r else [()] * 4)]
            for i, row in enumerate(left)]
    return p, r, rows


@settings(max_examples=400, deadline=None)
@given(_low_rank_mod())
def test_rref_mod_matches_fresh_lists(case):
    p, r, rows = case
    image = _rref_mod(rows, p)
    assert image == rref_mod_fresh(rows, p)
    assert len(image) <= r
