from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import apply_wp, apply_wq_edges, gross_shimura_per_edge
from shimura_pq.gross import (
    class_number,
    conductor_split,
    eisenstein_modular,
    eisenstein_shimura,
    gross_modular,
    gross_shimura,
    gross_tower_modular,
    gross_tower_shimura,
    graph_eichler_units,
    is_zero,
    monodromy_pairing,
    optimal_embeddings,
    project_degree_zero,
    s_star,
    support,
    t_star,
    tower_class_number,
    unit_count,
    vec_scale,
)
from shimura_pq.ntheory import kronecker


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

    def test_rejects_bad_discriminants(self):
        for bad in (4, 0, -5, -6, -1):
            with pytest.raises(ValueError):
                class_number(bad)

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


class TestOptimalEmbeddings:
    def test_gaussian_integers_in_weight_two_order(self, vset47):
        k = next(k for k, c in enumerate(vset47.classes) if c.weight == 2)
        rec = vset47.classes[k]
        assert optimal_embeddings(rec.right_order, -4, vset47.units_of(k)) == 2

    def test_split_q_gives_zero_everywhere(self, vset47):
        # (D|47) = 1 means no embeddings into any maximal order
        split_d = next(d for d in range(-3, -200, -1)
                       if d % 4 in (0, 1) and kronecker(d, 47) == 1)
        for k, rec in enumerate(vset47.classes):
            assert optimal_embeddings(rec.right_order, split_d, vset47.units_of(k)) == 0

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


class TestGrossVectors:
    def test_gamma_minus_4(self, vset47):
        gm = gross_modular(vset47, -4)
        k = next(k for k, c in enumerate(vset47.classes) if c.weight == 2)
        assert gm[k] == Fraction(1, 2)
        assert all(x == 0 for i, x in enumerate(gm) if i != k)

    def test_zero_when_q_split(self, vset47):
        split_d = next(d for d in range(-3, -200, -1)
                       if d % 4 in (0, 1) and kronecker(d, 47) == 1)
        assert is_zero(gross_modular(vset47, split_d))

    def test_degree_inert(self, vset47):
        inert = [d for d in range(-4, -60, -1)
                 if d % 4 in (0, 1) and kronecker(d, 47) == -1][:4]
        for d in inert:
            gm = gross_modular(vset47, d)
            assert sum(gm) == Fraction(class_number(d), unit_count(d))

    def test_shimura_gamma_minus_4_is_the_exceptional_pair(self, graph_13_47):
        gs = gross_shimura(graph_13_47, -4)
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
            gam = gross_shimura(g, d)
            if any(g.edges[i].length > 1 for i in support(gam)):
                continue
            target = vec_scale(gross_modular(vset47, d), 4)
            assert s_star(g, gam) == target
            assert t_star(g, gam) == target
            assert apply_wq_edges(g, gam) == gam
            assert apply_wp(g, gam) == vec_scale(gam, -1)
            tested += 1
        assert tested >= 3

    def test_total_embedding_count_identity(self, graph_13_47):
        g = graph_13_47
        for d in (-8, -20):
            gam = gross_shimura(g, d)
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
            tower = gross_tower_modular(g, 3, n)
            direct = [gross_modular(g.vset, -4 * 9 ** k) for k in range(1, n + 1)]
            assert tower == direct

    def test_vertex_tower_other_prime(self, graph_13_47):
        tower = gross_tower_modular(graph_13_47, 5, 2)
        direct = [gross_modular(graph_13_47.vset, -100),
                  gross_modular(graph_13_47.vset, -2500)]
        assert tower == direct

    def test_edge_tower_matches_direct(self, graph_13_47):
        tower = gross_tower_shimura(graph_13_47, 3, 2)
        direct = [gross_shimura(graph_13_47, -36), gross_shimura(graph_13_47, -324)]
        assert tower == direct
