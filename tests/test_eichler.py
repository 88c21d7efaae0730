"""Edges read off their source vertex, against the per-edge constructions.

``build_graph`` takes the Eichler order of an edge (k, P) as Z + P, its
units (``Edge.units``, on a built graph and on one loaded from its cache)
as the units of R_k that lie in it, and its orbit as the P u over the
units u of R_k.  Before, each edge order was R_k meet O_R(P), its units came
from an enumeration of its own, and the orbit from conjugating P by every
unit.  Those constructions, built on the ``Fraction`` oracles of
``lattice_oracle``, must give the same lattices, units and orbits.
"""

import pytest

import lattice_oracle as oracle
from shimura_pq.certify import cache_load, cache_store
from shimura_pq.gross import graph_eichler_units
from shimura_pq.quat import reduced_discriminant, units

GRAPHS = ["graph_5_23", "graph_13_11", "graph_13_47", "graph_29_47", "graph_5_37"]


@pytest.fixture(params=GRAPHS)
def graph(request):
    return request.getfixturevalue(request.param)


def _orbits_by_conjugation(ideals, unit_list):
    """The orbit partition as it was: conjugate each seed by every unit."""
    remaining = {ideal.key(): ideal for ideal in ideals}
    orbits = []
    while remaining:
        key0 = min(remaining)
        seed = remaining.pop(key0)
        members = {key0: seed}
        for u in unit_list:
            conj = oracle.conj_by(seed, u)
            members.setdefault(conj.key(), conj)
        for k in members:
            remaining.pop(k, None)
        orbits.append([members[k] for k in sorted(members)])
    return orbits


def test_eichler_order_is_the_intersection(graph):
    classes = graph.vset.classes
    for e in graph.edges:
        rk = classes[e.source].right_order
        assert e.eichler == oracle.lattice_intersection(rk, oracle.right_order(e.ideal))
        assert reduced_discriminant(e.eichler) == oracle.reduced_discriminant(e.eichler) \
            == graph.p * graph.q
    for rec in classes:
        assert reduced_discriminant(rec.right_order) == \
            oracle.reduced_discriminant(rec.right_order) == graph.q


def test_eichler_units_are_the_unit_group(graph, tmp_path):
    # the records of a built graph and of the same graph loaded from its cache
    cache_store(str(tmp_path), graph)
    loaded = cache_load(str(tmp_path), graph.p, graph.q)
    for g in (graph, loaded):
        for i, e in enumerate(g.edges):
            assert e.units == units(e.eichler)
            assert e.length == len(e.units) // 2
            assert graph_eichler_units(g, i) is e.units


def test_orbits_match_conjugation(graph):
    for k in range(len(graph.vset)):
        ideals = [graph.vset.step_ideal(k, m, z) for _, m, z in graph.vertex_neighbors(k, graph.p)]
        expected = _orbits_by_conjugation(ideals, graph.vset.units_of(k))
        got = [e.orbit for e in graph.edges if e.source == k]
        assert [[m.key() for m in o] for o in got] == [[m.key() for m in o] for o in expected]
