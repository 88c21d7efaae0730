from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enum_oracle
from enum_oracle import conductor_split
from graph_oracle import (
    apply_wp,
    apply_wq_edges,
    eisenstein_modular,
    eisenstein_shimura,
    gross_modular_frac,
    gross_shimura_frac,
    gross_shimura_per_edge,
    is_zero,
    monodromy_pairing,
    project_degree_zero,
    tower_vectors,
    unit_count,
    vec_scale,
)
from lattice_oracle import from_elements, nrd, sub, trd
from shimura_pq.certify import build_cycle, decompose_eisenstein, genus
from shimura_pq.gross import (
    _count_optimal,
    class_number,
    gross_shimura,
    gross_tower_modular,
    gross_tower_shimura,
    graph_eichler_units,
    optimal_embeddings,
    s_star,
    support,
    t_star,
    tower_class_number,
)
from shimura_pq.ntheory import is_prime, kronecker
from shimura_pq.quat import Lattice, Quat, reduced_discriminant
from shimura_pq.ssgraph import build_graph


class TestClassNumbers:
    def test_fixtures(self):
        assert class_number(-3) == 1
        assert class_number(-4) == 1
        assert class_number(-8) == 1
        assert class_number(-23) == 3
        assert class_number(-36) == 2
        assert class_number(-47) == 5
        assert class_number(-100) == 2
        assert class_number(-324) == 6

    def test_rejects_bad_discriminants(self, vset47):
        """``optimal_embeddings`` checks D itself, with class_number's
        message, before any search."""
        for bad in (4, 0, -5, -6, -1):
            with pytest.raises(ValueError) as exc:
                class_number(bad)
            with pytest.raises(ValueError) as emb:
                optimal_embeddings(vset47.order, bad)
            assert str(emb.value) == str(exc.value)
            assert str(exc.value) == f"{bad} is not a negative quadratic discriminant"

    def test_units(self):
        assert unit_count(-3) == 3
        assert unit_count(-4) == 2
        assert unit_count(-7) == 1

    def test_conductors(self):
        assert conductor_split(-36) == (-4, 3)
        assert conductor_split(-47) == (-47, 1)
        assert conductor_split(-12) == (-3, 2)
        assert conductor_split(-75) == (-3, 5)

    @given(st.integers(1, 6))
    def test_tower_class_number_matches_enumeration(self, n):
        for ell in (3, 5):
            if ell ** n < 60:
                assert tower_class_number(ell, n) == class_number(-4 * ell ** (2 * n))

    def test_tower_class_number_matches_enumeration_at_n_1(self):
        # both towers take h(-4 ell^2) from the closed form
        for ell in filter(is_prime, range(200)):
            assert tower_class_number(ell, 1) == class_number(-4 * ell * ell), ell


class TestOptimalEmbeddings:
    def test_gaussian_integers_in_weight_two_order(self, vset47):
        k = next(k for k, c in enumerate(vset47.classes) if c.weight == 2)
        rec = vset47.classes[k]
        assert optimal_embeddings(rec.right_order, -4, vset47.units_of(k)) == 2

    def test_split_q_gives_zero_everywhere(self, vset47, graph_13_47, monkeypatch):
        """(D|47) = 1: no order of discriminant D embeds in B.  On every
        vertex and Eichler order of (13,47), for every such D in the window,
        the ungated rank-4 search finds no candidate, and the gated count is
        0 with no trace-zero search run."""
        split = [d for d in range(-3, -200, -1) if d % 4 in (0, 1) and kronecker(d, 47) == 1]
        pairs = [(rec.right_order, vset47.units_of(k)) for k, rec in enumerate(vset47.classes)]
        pairs += [(e.eichler, graph_eichler_units(graph_13_47, i))
                  for i, e in enumerate(graph_13_47.edges)]
        for d in split:
            t0 = d % 2
            for order, _ in pairs:
                assert enum_oracle.norm_vectors_with_trace(order, (t0 - d) // 4, t0) == [], d

        def no_search(*_):
            raise AssertionError("trace-zero search run on a split D")

        monkeypatch.setattr(Lattice, "_trace_vectors", no_search)
        for d in split:
            for order, unit_list in pairs:
                assert optimal_embeddings(order, d, unit_list) == 0, d

    def test_trace_identity_d_minus_8(self, vset47):
        total = sum(
            optimal_embeddings(rec.right_order, -8, vset47.units_of(k))
            for k, rec in enumerate(vset47.classes)
        )
        assert kronecker(-8, 47) == -1
        assert total == 2 * class_number(-8)

    def test_trace_identities_small_battery(self, vset47, graph_13_47):
        g = graph_13_47
        for d in range(-40, 0):
            if d % 4 not in (0, 1) or d % 47 == 0 or d % 13 == 0:
                continue
            h = class_number(d)
            vertex_total = sum(
                optimal_embeddings(rec.right_order, d, vset47.units_of(k))
                for k, rec in enumerate(vset47.classes)
            )
            assert vertex_total == (1 - kronecker(d, 47)) * h
            edge_total = sum(
                optimal_embeddings(e.eichler, d, graph_eichler_units(g, i))
                for i, e in enumerate(g.edges)
            )
            assert edge_total == (1 - kronecker(d, 47)) * (1 + kronecker(d, 13)) * h


@pytest.mark.parametrize("p,q", [(5, 23), (13, 47), (13, 83), (29, 47), (5, 163)])
def test_local_gate_matches_rank4_search(p, q, request):
    """The gate at q and the floor in ``Lattice.norm_vectors``, and the
    integer orbits of ``_count_optimal``, change no count: on every vertex
    and Eichler order, for -200 <= D <= -3, ``optimal_embeddings`` equals
    the Fraction orbit count of the ungated rank-4 search, and that search
    is empty whenever (D|q) = 1.  (29,47) has vertices with 4 and 6 units;
    (5,163) has 14 classes."""
    graph = request.getfixturevalue(f"graph_{p}_{q}")
    vset = graph.vset
    pairs = [(rec.right_order, vset.units_of(k)) for k, rec in enumerate(vset.classes)]
    pairs += [(e.eichler, graph_eichler_units(graph, i)) for i, e in enumerate(graph.edges)]
    split = 0
    for d in range(-3, -201, -1):
        if d % 4 > 1:
            continue
        t0 = d % 2
        n = (t0 - d) // 4
        for order, unit_list in pairs:
            cands = enum_oracle.norm_vectors_with_trace(order, n, t0)
            if kronecker(d, q) == 1:
                assert cands == [], d
                split += 1
            assert (optimal_embeddings(order, d, unit_list)
                    == enum_oracle.count_optimal(order, d, cands, unit_list)), d
    assert split > 0


EDGE_GRAPHS = [(5, 23), (13, 11), (13, 47), (29, 47), (5, 37), (5, 163), (7, 23)]


@pytest.mark.parametrize("p,q", EDGE_GRAPHS)
def test_edge_vectors_match_per_edge_search(p, q, request):
    """One embedding search per vertex, filtered to each Eichler order Z + P,
    gives the vector of one search per Eichler order: every D with
    |D| <= 120 (q | D, p | D and p | conductor among them), -4p^2 and -3p^2."""
    graph = request.getfixturevalue(f"graph_{p}_{q}")
    discs = [d for d in range(-3, -121, -1) if d % 4 in (0, 1)] + [-4 * p * p, -3 * p * p]
    for d in discs:
        assert gross_shimura(graph, d) == gross_shimura_per_edge(graph, d), d


@pytest.mark.parametrize("d", [-20, -36, -48, -63, -72, -99, -108, -144])
def test_integer_optimality_matches_fraction_count(d, graph_13_47, graph_5_37):
    """Conductor > 1, so some candidates are not optimal (on (13,47) for
    each of these D but -99): the integer test on the numerator and the
    orbits on integer (den, num) pairs count what the Fraction version
    counts.  At -108 and -144 the conductor is 6, two primes; -20 is
    fundamental although 4 | 20, as -5 is not a discriminant."""
    for graph in (graph_13_47, graph_5_37):
        vset = graph.vset
        pairs = [(rec.right_order, vset.units_of(k)) for k, rec in enumerate(vset.classes)]
        pairs += [(e.eichler, graph_eichler_units(graph, i)) for i, e in enumerate(graph.edges)]
        t0 = d % 2
        for order, unit_list in pairs:
            cands = order.norm_vectors((t0 - d) // 4, t0)
            assert (_count_optimal(order, d, cands, unit_list)
                    == enum_oracle.count_optimal(order, d, cands, unit_list))


class TestGrossVectors:
    def test_gamma_minus_4(self, vset47):
        gm = gross_modular_frac(vset47, -4)
        k = next(k for k, c in enumerate(vset47.classes) if c.weight == 2)
        assert gm[k] == Fraction(1, 2)
        assert all(x == 0 for i, x in enumerate(gm) if i != k)

    def test_zero_when_q_split(self, vset47):
        split_d = next(d for d in range(-3, -200, -1)
                       if d % 4 in (0, 1) and kronecker(d, 47) == 1)
        assert is_zero(gross_modular_frac(vset47, split_d))

    def test_degree_inert(self, vset47):
        inert = [d for d in range(-4, -60, -1)
                 if d % 4 in (0, 1) and kronecker(d, 47) == -1][:4]
        for d in inert:
            gm = gross_modular_frac(vset47, d)
            assert sum(gm) == Fraction(class_number(d), unit_count(d))

    def test_shimura_gamma_minus_4_is_the_exceptional_pair(self, graph_13_47):
        gs = gross_shimura_frac(graph_13_47, -4)
        sup = support(gs)
        assert [graph_13_47.edges[i].length for i in sup] == [2, 2]
        assert all(gs[i] == 1 for i in sup)

    def test_boundary_and_involution_identities(self, vset47, graph_13_47):
        g = graph_13_47
        tested = 0
        for d in range(-80, 0):
            if d % 4 not in (0, 1) or d in (-3, -4):
                continue
            if kronecker(d, 47) != -1 or kronecker(d, 13) != 1:
                continue
            gam = gross_shimura_frac(g, d)
            if any(g.edges[i].length > 1 for i in support(gam)):
                continue
            target = vec_scale(gross_modular_frac(vset47, d), 4)
            assert s_star(g, gam) == target
            assert t_star(g, gam) == target
            assert apply_wq_edges(g, gam) == gam
            assert apply_wp(g, gam) == vec_scale(gam, -1)
            tested += 1
        assert tested >= 3

    def test_total_embedding_count_identity(self, graph_13_47):
        g = graph_13_47
        for d in (-8, -20):
            gam = gross_shimura_frac(g, d)
            weighted = sum(gam[i] * g.edges[i].length for i in range(len(g.edges)))
            expected = (1 - kronecker(d, 47)) * (1 + kronecker(d, 13)) * class_number(d)
            assert weighted == expected


class TestEisenstein:
    def test_degree(self, vset47):
        assert sum(eisenstein_modular(vset47)) == Fraction(46, 12)

    def test_boundary(self, graph_13_47, graph_5_23):
        for g in (graph_13_47, graph_5_23):
            ae = eisenstein_shimura(g)
            target = vec_scale(eisenstein_modular(g.vset), g.p + 1)
            assert s_star(g, ae) == target
            assert t_star(g, ae) == target

    def test_orthogonal_to_degree_zero(self, graph_13_47):
        g = graph_13_47
        ae = eisenstein_shimura(g)
        w = g.lengths
        n = len(g.edges)
        # a degree-zero path pairs to zero against the Eisenstein vector
        v = [Fraction(0)] * n
        v[0], v[1] = Fraction(1), Fraction(-1)
        v = tuple(v)
        assert sum(v) == 0
        assert monodromy_pairing(ae, v, w) == 0

    def test_not_in_cycle_space(self, graph_13_47):
        def in_cycle_space(v):
            return is_zero(s_star(graph_13_47, v)) and is_zero(t_star(graph_13_47, v))

        assert not in_cycle_space(eisenstein_shimura(graph_13_47))
        assert in_cycle_space(tuple(Fraction(0) for _ in graph_13_47.edges))


class TestPairing:
    def test_diagonal_values(self, vset47):
        w = vset47.weights
        n = len(w)
        e0 = tuple(Fraction(1 if i == 0 else 0) for i in range(n))
        e1 = tuple(Fraction(1 if i == 1 else 0) for i in range(n))
        assert monodromy_pairing(e0, e0, w) == 3  # the weight-3 class
        assert monodromy_pairing(e0, e1, w) == 0

    def test_degree_is_pairing_with_eisenstein(self, vset47):
        ae = eisenstein_modular(vset47)
        w = vset47.weights
        v = vec_scale(tuple(Fraction(i + 1) for i in range(len(w))), Fraction(1, 3))
        assert monodromy_pairing(v, ae, w) == sum(v)

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            monodromy_pairing((Fraction(1),), (Fraction(1), Fraction(0)), [1, 1])


class TestProjection:
    def test_projection_properties(self, graph_13_47):
        g = graph_13_47
        ae = eisenstein_shimura(g)
        w = g.lengths
        assert is_zero(project_degree_zero(g, ae))
        n = len(g.edges)
        v = tuple(Fraction(i % 5 - 2) for i in range(n))
        pv = project_degree_zero(g, v)
        assert monodromy_pairing(pv, ae, w) == 0
        # already degree zero -> unchanged
        assert project_degree_zero(g, pv) == pv


class TestTowers:
    def test_vertex_tower_matches_direct(self, graph_13_11, graph_13_47):
        for g, n in ((graph_13_11, 3), (graph_13_47, 2)):
            tower = tower_vectors(gross_tower_modular(g, 3, n), [1] * len(g.vset))
            direct = [gross_modular_frac(g.vset, -4 * 9 ** k) for k in range(1, n + 1)]
            assert tower == direct

    def test_vertex_tower_other_prime(self, graph_13_47):
        tower = tower_vectors(gross_tower_modular(graph_13_47, 5, 2), [1] * len(graph_13_47.vset))
        direct = [gross_modular_frac(graph_13_47.vset, -100),
                  gross_modular_frac(graph_13_47.vset, -2500)]
        assert tower == direct

    def test_edge_tower_matches_direct(self, graph_13_47):
        tower = tower_vectors((1, gross_tower_shimura(graph_13_47, 3, 2)), graph_13_47.lengths)
        direct = [gross_shimura_frac(graph_13_47, -36), gross_shimura_frac(graph_13_47, -324)]
        assert tower == direct


def _weighted_boundaries(graph, gam):
    """s_* and t_* of L gam, L the diagonal of edge lengths."""
    weighted = tuple(x * e.length for x, e in zip(gam, graph.edges))
    return s_star(graph, weighted), t_star(graph, weighted)


def _boundary_target(graph, D, gamma):
    """2 u(D) (1 + (D/p)) Gamma_D; u(D) = 1 below D = -4."""
    return vec_scale(gamma, 2 * unit_count(D) * (1 + kronecker(D, graph.p)))


class TestBoundaryIdentity:
    """s_*(L gamma_D) = t_*(L gamma_D) = 2 (1 + (D/p)) Gamma_D, with L the
    diagonal of edge lengths: the optimal embeddings into the Eichler
    orders at a vertex, counted with the lengths, are the embeddings into
    its right order times the number of norm-p ideals they fix.  It ties
    the edge vectors to the vertex vectors with no length condition on
    their supports (unweighted it fails exactly when gamma_D is nonzero on
    a longer edge), and at D = -3, -4 with the unit count u(D) that
    Gamma_D divides by."""

    DISCS = [D for D in range(-3, -121, -1) if D % 4 in (0, 1)] + [-8 * 3 ** 6]

    def test_direct_vectors_29_23(self, graph_29_23):
        g = graph_29_23
        unweighted_fails = residues = 0
        for D in self.DISCS:
            gam, gamma = gross_shimura_frac(g, D), gross_modular_frac(g.vset, D)
            target = _boundary_target(g, D, gamma)
            assert _weighted_boundaries(g, gam) == (target, target), D
            unweighted_fails += s_star(g, gam) != target
            residues |= 1 << (kronecker(D, g.p) + 1) if any(gamma) else 0
        # every value of (D/p) occurs with Gamma_D nonzero, and the lengths matter
        assert residues == 0b111 and unweighted_fails

    def test_tower_13_47(self, graph_13_47):
        g, ell, depth = graph_13_47, 3, 6
        vertex = tower_vectors(gross_tower_modular(g, ell, depth), [1] * len(g.vset))
        edge = tower_vectors((1, gross_tower_shimura(g, ell, depth)), g.lengths)
        for n in range(1, depth + 1):
            D = -4 * ell ** (2 * n)
            target = _boundary_target(g, D, vertex[n - 1])
            assert any(target)
            assert _weighted_boundaries(g, edge[n - 1]) == (target, target), n

    def test_tower_29_251_in_integers(self):
        # L gamma_n is n_n, the edge counts, and Gamma_n is m_n / den_v, so
        # the identity reads den_v s_*(n_n) = 2 (1 + (D/p)) m_n with no Fraction
        g, ell, depth = build_graph(29, 251), 3, 18
        den_v, vertex = gross_tower_modular(g, ell, depth)
        edge = gross_tower_shimura(g, ell, depth)
        for n in range(1, depth + 1):
            c = 2 * (1 + kronecker(-4 * ell ** (2 * n), g.p))
            target = tuple(c * x for x in vertex[n - 1])
            assert any(target)
            for star in (s_star, t_star):
                assert tuple(den_v * x for x in star(g, edge[n - 1])) == target, n


class TestKanekoBound:
    """The Kaneko-type lemma behind every ``intersection`` failure.  On an
    exceptional edge the Eichler order E (reduced discriminant pq) has a
    unit x of discriminant d_x = -4 or -3; an optimal embedding y of the
    order of discriminant D does not commute with it, so 1, x, y, xy span an
    order of E of reduced discriminant (d_x D - s^2)/4 with
    s = trd(x_0 y_0)/2, x_0 = 2x - trd x.  That number is a positive multiple
    of pq, so a Gross vector meets the edge only if pq <= |d_x D|/4 (Kaneko,
    *Supersingular j-invariants as singular moduli mod p*, 1989).  Checked at
    the least |D| of the certificate's ``support_overlap``; larger D cost a
    search each that grows fast with the conductor."""

    @pytest.mark.parametrize("p,q,key", [(5, 23, "-2916"), (13, 47, "-236196"),
                                         (5, 163, "-236196"), (13, 83, "-236196"),
                                         (29, 251, "-19131876")])
    def test_overlap_order_discriminant(self, p, q, key, request):
        graph = request.getfixturevalue(f"graph_{p}_{q}")
        dec = decompose_eisenstein(graph, 3, genus(q) + 2)
        overlap = build_cycle(graph, 3, dec["lambda0"], dec["lambdas"])["support_overlap"]
        assert max(overlap, key=int) == key
        D = int(key)
        one = Quat.one(graph.vset.alg)
        pairs = 0
        for i in overlap[key]:
            E = graph.edges[i].eichler
            ys = enum_oracle.optimal_candidates(E, D, E.norm_vectors((D % 2 - D) // 4, D % 2))
            for x in graph_eichler_units(graph, i):
                if x.num[1:] == (0, 0, 0):
                    continue
                d_x = trd(x) ** 2 - 4 * nrd(x)
                assert d_x in (-4, -3)
                x0 = sub(2 * x, trd(x))
                for y in ys:
                    s = trd(x0 * sub(2 * y, trd(y))) / 2
                    disc = reduced_discriminant(from_elements(graph.vset.alg, [one, x, y, x * y]))
                    assert disc == (d_x * D - s * s) / 4
                    assert disc % (p * q) == 0
                    assert p * q <= abs(d_x * D) / 4
                    pairs += 1
        assert pairs
