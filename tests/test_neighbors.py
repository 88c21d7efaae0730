"""Hecke neighbours by enumeration against neighbours by ``locate``.

``VertexSet.neighbors`` reads the ell-steps from k to m off the vectors of
norm ell n_k n_m in conj(I_m) I_k, each with the image mod ell of its
ideal (``VertexSet.step_ideal`` builds the ideal), and
``VertexSet.step_witness`` gives the witness of an edge from its z alone.  ``graph_oracle.neighbors_by_locate``
is the path they replace: one ``locate`` of I_k L per norm-ell ideal L.
Both must give the same ideals and targets, every z must be a witness, and
every edge witness must be the one ``locate`` gives, since witnesses are
stored in the graph cache.  ``_steps`` and ``step_witness`` run on integer
4-vectors; ``graph_oracle.steps_by_quats`` and ``step_witness_by_quats``
are the same computations in ``Quat`` objects, and must agree on every
step and every witness.
"""

import pytest

from graph_oracle import (neighbors_by_locate, residue_image, step_witness_by_quats,
                          steps_by_quats)

GRAPHS = ["graph_5_23", "graph_13_11", "graph_13_47", "graph_5_37", "graph_5_163"]


def _ells(graph):
    return sorted({ell for ell in (2, 3, 5, 7) if ell != graph.q} | {graph.p})


@pytest.mark.parametrize("fixture", GRAPHS)
def test_neighbors_match_locate(fixture, request):
    graph = request.getfixturevalue(fixture)
    vset = graph.vset
    for k, rec in enumerate(vset.classes):
        for ell in _ells(graph):
            fast = graph.vertex_neighbors(k, ell)
            slow = neighbors_by_locate(vset, k, ell)
            ideals = [vset.step_ideal(k, m, z) for _, m, z in fast]
            # the steps come sorted by their image, the locate path by key
            assert [image for image, _, _ in fast] == sorted(image for image, _, _ in fast)
            assert sorted((lam.key(), m) for lam, (_, m, _) in zip(ideals, fast)) == \
                [(lam.key(), m) for lam, m, _ in slow]
            for lam, (image, m, z) in zip(ideals, fast):
                assert image == residue_image(rec.right_order, lam, ell)
                assert rec.ideal.mul(lam) == vset.classes[m].ideal.mul_elem(z)


@pytest.mark.parametrize("fixture", GRAPHS)
def test_step_witness_matches_locate(fixture, request):
    graph = request.getfixturevalue(fixture)
    vset = graph.vset
    for e in graph.edges:
        z = next(z for _, m, z in graph.vertex_neighbors(e.source, graph.p)
                 if vset.step_ideal(e.source, m, z) == e.ideal)
        t, y = vset.locate(vset.classes[e.source].ideal.mul(e.ideal))
        assert (e.target, e.witness) == (t, y)
        assert vset.step_witness(t, z) == y


@pytest.mark.parametrize("fixture", ["graph_13_47", "graph_29_47", "graph_5_163"])
def test_steps_and_witnesses_match_quat_objects(fixture, request):
    graph = request.getfixturevalue(fixture)
    vset = graph.vset
    for ell in sorted({2, 3, 5, graph.p}):
        for k in range(len(vset)):
            for m in range(len(vset)):
                assert vset._steps(k, m, ell) == steps_by_quats(vset, k, m, ell)
    witnesses = set()
    for k in range(len(vset)):
        for _, m, z in graph.vertex_neighbors(k, graph.p):
            y = vset.step_witness(m, z)
            assert y == step_witness_by_quats(vset, m, z)
            witnesses.add((k, m, y))
    assert {(e.source, e.target, e.witness) for e in graph.edges} <= witnesses
