import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import element_order, k_law_solve, make_multigraph, spanning_trees
from shimura_pq.compgroup import (
    MGVertex,
    blow_up,
    component_group,
    degree_report,
    lemma_general_check,
    quotient_by_wq,
    to_dot,
)
from shimura_pq.linalg import det_bareiss, smith_normal_form


def banana(k):
    return make_multigraph(2, [(0, 1, 1)] * k)


def cycle(n):
    return make_multigraph(n, [(i, (i + 1) % n, 1) for i in range(n)])


class TestComponentGroup:
    def test_banana_and_cycle(self):
        for k in range(2, 13):
            assert component_group(banana(k)) == [k]
            assert spanning_trees(banana(k)) == k
        for n in range(3, 13):
            assert component_group(cycle(n)) == [n]
            assert spanning_trees(cycle(n)) == n

    def test_tree_is_trivial(self):
        tree = make_multigraph(5, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1)])
        assert component_group(tree) == []
        assert spanning_trees(tree) == 1

    def test_order_matches_spanning_trees(self):
        rng = random.Random(17)
        for _ in range(10):
            mg = _random_connected(rng)
            order = 1
            for d in component_group(mg):
                order *= d
            assert order == spanning_trees(mg)

    def test_requires_unit_lengths(self):
        mixed = make_multigraph(2, [(0, 1, 2)])
        with pytest.raises(ValueError):
            component_group(mixed)

    def test_disconnected_rejected(self):
        mg = make_multigraph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(ValueError):
            component_group(mg)


class TestKLaw:
    def test_banana2_integral(self):
        pa = k_law_solve(banana(2), 0, 1, 2)
        assert pa.values == (Fraction(0), Fraction(1))
        assert pa.integral

    def test_banana3_non_integral(self):
        pa = k_law_solve(banana(3), 0, 1, 1)
        assert max(pa.values) - min(pa.values) == Fraction(1, 3)
        assert not pa.integral
        assert element_order(banana(3), 0, 1) == 3

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            k_law_solve(banana(2), 1, 1, 1)

    def test_node_law_holds(self):
        mg = cycle(6)
        pa = k_law_solve(mg, 0, 3, 5)
        adj = mg.adjacency()
        n = len(mg)
        for c in range(n):
            flux = sum(adj[c][d] * (pa.values[c] - pa.values[d]) for d in range(n))
            expected = 5 if c == 3 else -5 if c == 0 else 0
            assert flux == expected

    def test_agreement_with_snf_on_random_graphs(self):
        rng = random.Random(29)
        checked = 0
        while checked < 20:
            mg = _random_connected(rng)
            va, vb = 0, rng.randrange(1, len(mg))
            current = rng.randint(1, 30)
            pa = k_law_solve(mg, va, vb, current)
            order = element_order(mg, va, vb)
            assert pa.integral == (current % order == 0)
            checked += 1


def _random_connected(rng):
    n = rng.randint(3, 9)
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    for _ in range(rng.randint(1, 10)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((min(i, j), max(i, j), 1))
    return make_multigraph(n, edges)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 20))
def test_klaw_vs_snf_property(seed, current):
    rng = random.Random(seed)
    mg = _random_connected(rng)
    vb = rng.randrange(1, len(mg))
    pa = k_law_solve(mg, 0, vb, current)
    order = element_order(mg, 0, vb)
    assert pa.integral == (current % order == 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_smith_form_mod_group_order(seed):
    """The Smith form component_group computes: entries reduced mod
    D = |det L| for the reduced Laplacian L.  After gcd with D its factors
    above 1 are those of the plain Smith form, their product is D, and the
    largest is the exponent of the group, the lcm of the element orders."""
    mg = _random_connected(random.Random(seed))
    n = len(mg)
    lap = [row[: n - 1] for row in mg.laplacian()[: n - 1]]
    order = abs(det_bareiss(lap))
    modular = [gcd(d, order) for d in smith_normal_form(lap, modulus=order)]
    assert [f for f in modular if f > 1] == [d for d in smith_normal_form(lap) if d > 1]
    assert prod(modular) == order
    exponent = lcm(*(element_order(mg, a, b) for a in range(n) for b in range(a + 1, n)))
    assert max(modular) == exponent


class TestBlowUp:
    def test_unit_graph_unchanged(self):
        mg = cycle(4)
        blown = blow_up(mg)
        assert blown.edges == mg.edges
        assert blown.labels() == mg.labels()

    def test_counts(self):
        mg = make_multigraph(2, [(0, 1, 1), (0, 1, 2), (0, 1, 3)])
        blown = blow_up(mg)
        extra = (2 - 1) + (3 - 1)
        assert len(blown) == 2 + extra
        assert len(blown.edges) == 3 + extra
        assert all(ln == 1 for _, _, ln in blown.edges)

    def test_component_group_invariance_of_subdivision(self):
        # length-2 edge in parallel with a unit edge == its blown-up chain
        mixed = blow_up(make_multigraph(2, [(0, 1, 1), (0, 1, 2)]))
        chain = make_multigraph(3, [(0, 1, 1), (0, 2, 1), (2, 1, 1)])
        assert component_group(mixed) == component_group(chain)


class TestQuotient:
    def test_labels_13_47(self, graph_13_47):
        mg = quotient_by_wq(graph_13_47)
        s1 = sorted(v.label for v in mg.vertices if v.side == "s1")
        assert s1 == ["G1", "J1", "j1_1", "j1_2", "j1_3"]
        s2 = sorted(v.label for v in mg.vertices if v.side == "s2")
        assert s2 == ["G2", "J2", "j2_1", "j2_2", "j2_3"]

    def test_exceptional_edges_collapse(self, graph_13_47):
        mg = quotient_by_wq(graph_13_47)
        lens = [ln for _, _, ln in mg.edges]
        assert lens.count(2) == 1 and lens.count(3) == 1
        assert len(mg.edges) == 28  # 26 ordinary orbits + 2 exceptional

    def test_blow_up_names(self, graph_13_47):
        blown = blow_up(quotient_by_wq(graph_13_47))
        labels = set(blown.labels())
        assert {"exc2", "exc3_1", "exc3_2"} <= labels
        assert len(blown) == 13

    def test_degree_report_13_47(self, graph_13_47):
        blown = blow_up(quotient_by_wq(graph_13_47))
        report = degree_report(blown, 13, 47)
        assert report["all_degrees_match"]
        assert report["handshake"]
        by_label = {r["vertex"]: r["degree"] for r in report["vertex_degrees"]}
        assert by_label["J1"] == 4 and by_label["G1"] == 3
        assert by_label["j1_1"] == by_label["j1_2"] == by_label["j1_3"] == 7
        # this instance famously fails the all-pairs-adjacent condition
        assert report["all_pairwise_positive"] is False

    def test_lemma_general_and_element_orders(self, graph_13_47):
        blown = blow_up(quotient_by_wq(graph_13_47))
        res = lemma_general_check(blown, 13)
        assert res["applicable"]
        jcal = blown.labels().index("exc2")
        for i, v in enumerate(blown.vertices):
            if i == jcal:
                continue
            order = element_order(blown, i, jcal)
            assert res["per_vertex"][v.label] == (14 % order != 0)

    def test_lemma_general_matches_k_law(self, graph_13_47, graph_5_23):
        # one elimination for every vertex, against one node-law solve each
        for graph in (graph_13_47, graph_5_23):
            blown = blow_up(quotient_by_wq(graph))
            res = lemma_general_check(blown, graph.p)
            jcal = blown.labels().index("exc2")
            expected = {
                v.label: not k_law_solve(blown, source=i, sink=jcal, current=graph.p + 1).integral
                for i, v in enumerate(blown.vertices) if i != jcal
            }
            assert res["per_vertex"] == expected
            assert res["holds_for_all"] == all(expected.values())

    def test_dot_export(self, graph_13_47):
        blown = blow_up(quotient_by_wq(graph_13_47))
        dot = to_dot(blown)
        assert dot.startswith("graph")
        assert "exc2" in dot and "--" in dot


def test_expected_degree_non_rational_pair():
    from shimura_pq.compgroup import expected_degree

    pair = MGVertex(label="x", side="s1", kind="generic", orbit=(3, 5), weight=1)
    assert expected_degree(pair, 13) == 14
