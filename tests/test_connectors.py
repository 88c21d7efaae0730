"""Classes and edge involutions from the class-pair connectors.

``vertex_classes`` finds the class of each 2-neighbour of a class k from
the vectors of the connectors conj(I_m) I_k, and ``build_graph`` finds w_p
and w_q on edges from the image mod p of each conjugated edge ideal.  The
oracles in ``graph_oracle`` are the paths they replace: one equivalence
test per 2-neighbour, and one lattice conjugation and lookup per edge.
Both must give the same records, permutations and witnesses, since all of
them are stored in the graph cache.  So must the other paths replaced here:
one short-vector search per direction of a class pair, with each step's
ideal built as a lattice (``steps_per_direction``), and w_q on vertices by
the full fingerprint scan (``wq_by_full_scan``).  The work counters keep
the saving: equivalence tests run only inside ``locate``, ``norm_ideals``
only for the 2-neighbours, and one connector search serves both directions
of a class pair.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

import shimura_pq.ssgraph as ssgraph
from graph_oracle import (
    primary,
    residue_image,
    steps_per_direction,
    vertex_classes_by_equivalence,
    wp_perm_by_conjugation,
    wq_by_full_scan,
    wq_edge_perm_by_conjugation,
)
from lattice_oracle import add, conj_by_integer, nrd
from shimura_pq.quat import Lattice, Quat, units
from shimura_pq.ssgraph import ShimuraGraph, VertexSet, build_graph, vertex_classes

VSETS = {11: "vset11", 23: "vset23", 37: "vset37", 47: "vset47", 83: None, 163: "vset163"}
GRAPHS = ["graph_13_47", "graph_5_23", "graph_7_23", "graph_13_11", "graph_29_47",
          "graph_5_37", "graph_5_163"]


def _records(vset):
    return [(c.ideal, c.right_order, c.weight, c.norm, c.fingerprint)
            for c in vset.classes]


@pytest.mark.parametrize("q", sorted(VSETS))
def test_classes_match_equivalence_search(q, request):
    fast = request.getfixturevalue(VSETS[q]) if VSETS[q] else vertex_classes(q)
    slow = vertex_classes_by_equivalence(q)
    assert _records(fast) == _records(slow)
    assert fast.wq_perm == slow.wq_perm
    assert fast.wq_witnesses == slow.wq_witnesses
    assert fast.two_sided == slow.two_sided


@pytest.mark.parametrize("fixture", GRAPHS)
def test_edge_involutions_match_conjugation(fixture, request):
    graph = request.getfixturevalue(fixture)
    assert graph.wp_perm == wp_perm_by_conjugation(graph)
    assert graph.wq_edge_perm == wq_edge_perm_by_conjugation(graph)


@pytest.mark.parametrize("fixture", GRAPHS)
def test_steps_match_one_search_per_direction(fixture, request):
    graph = request.getfixturevalue(fixture)
    vset = graph.vset
    for ell in sorted({2, 3, graph.p} - {graph.q}):
        for k, rec in enumerate(vset.classes):
            for m in range(len(vset)):
                fast = vset._steps(k, m, ell)
                slow = steps_per_direction(vset, k, m, ell)
                assert [(m, z) for _, m, z in fast] == [(m, z) for _, m, z in slow]
                assert [image for image, _, _ in fast] == \
                    [residue_image(rec.right_order, lam, ell) for lam, _, _ in slow]
                assert [vset.step_ideal(k, m, z) for _, m, z in fast] == \
                    [lam for lam, _, _ in slow]


@pytest.mark.parametrize("q", [11, 23, 37, 47, 83, 163, 251])
def test_wq_matches_full_scan(q, request):
    vset = request.getfixturevalue(VSETS[q]) if VSETS.get(q) else vertex_classes(q)
    assert (vset.wq_perm, vset.wq_witnesses) == wq_by_full_scan(vset)


def test_wq_scan_after_a_wrong_guess_skips_earlier_classes(monkeypatch):
    # after a wrong first guess k (k not yet an image), the image of k is a
    # later class: every earlier class has a known image, and it is not k.
    # Count the equivalence tests of vertex_classes(251), all in locate,
    # against the scan over every class that it replaces.
    calls = []
    equiv_witness = ssgraph.equiv_witness

    def counted(*args, **kwargs):
        calls.append(1)
        return equiv_witness(*args, **kwargs)

    monkeypatch.setattr(ssgraph, "equiv_witness", counted)
    vset = vertex_classes(251)
    monkeypatch.undo()
    perm, fps = vset.wq_perm, [c.fingerprint for c in vset.classes]
    later = every = 0
    for k, t in enumerate(perm):
        later += 1
        every += 1
        if k not in perm[:k] and t != k:  # the guess k was wrong, t > k
            assert t > k
            later += sum(fps[j] == fps[t] for j in range(k + 1, t + 1))
            every += sum(fps[j] == fps[t] for j in range(t + 1) if j != k)
    assert len(calls) == later < every
    assert (vset.wq_perm, vset.wq_witnesses) == wq_by_full_scan(vset)


def test_kept_connectors_follow_the_sort(vset47):
    # the connectors of the search are re-keyed to the sorted classes: each
    # must be the product of the sorted ideals; each class record carries
    # the unit list of its own right order
    assert vset47._connectors
    for (m, k), lat in vset47._connectors.items():
        assert lat == vset47.classes[m].ideal.conj_lattice().mul(vset47.classes[k].ideal)
    for k, rec in enumerate(vset47.classes):
        unit_list = vset47.units_of(k)
        assert unit_list is rec.units and unit_list == units(rec.right_order)
        assert all(u in rec.right_order and nrd(u) == 1 for u in unit_list)
        assert len(unit_list) == 2 * rec.weight


@pytest.mark.parametrize("drop", [True, False])
def test_wrong_step_count_is_named(drop, vset23, monkeypatch):
    steps = VertexSet._steps

    def damaged(self, k, m, ell):
        out = steps(self, k, m, ell)
        if m == 0 and out:
            return out[1:] if drop else out + out[:1]
        return out

    monkeypatch.setattr(VertexSet, "_steps", damaged)
    k = next(k for k in range(len(vset23)) if steps(vset23, k, 0, 3))
    with pytest.raises(ArithmeticError,
                       match=rf"^vertex {k}: the ell=3 steps found by enumeration are not "
                             rf"its 4 norm-3 ideals$"):
        vset23.neighbors(k, 3)


def test_missing_conjugate_is_named(vset11):
    graph = build_graph(13, 11, vset=vset11)
    # with the dual of edge 0 left out, w_p finds no edge for edge 0
    dual = graph.wp_perm[0]
    assert dual != 0
    edges = [e for i, e in enumerate(graph.edges) if i != dual]
    with pytest.raises(ArithmeticError,
                       match=rf"^edge 0: the lattice of its w_p conjugate is not found at "
                             rf"vertex {edges[0].target}$"):
        ShimuraGraph(13, 11, vset11, primary(edges))


def test_missing_wq_conjugate_is_named(vset11):
    graph = build_graph(13, 11, vset=vset11)
    # w_p is passed, so w_q is the first map to miss the edge left out
    moved = graph.wq_edge_perm[0]
    assert moved != 0
    edges = [e for i, e in enumerate(graph.edges) if i != moved]
    with pytest.raises(ArithmeticError,
                       match=rf"^edge 0: the lattice of its w_q conjugate is not found at "
                             rf"vertex {vset11.wq_perm[edges[0].source]}$"):
        ShimuraGraph(13, 11, vset11, primary(edges), wp_perm=graph.wp_perm)


def test_non_integral_conjugate_is_named(vset11):
    graph = build_graph(13, 11, vset=vset11)
    edges = list(graph.edges)
    e = edges[0] = edges[0]._replace(
        witness=add(edges[0].witness, Quat(graph.vset.alg, (0, 0, 0, 1), 3)))
    order = graph.vset.classes[e.target].right_order
    assert conj_by_integer(e.ideal.conj_lattice(), e.witness).coords_in(order) is None
    with pytest.raises(ArithmeticError,
                       match=rf"^edge 0: the lattice of its w_p conjugate is not found at "
                             rf"vertex {e.target}$"):
        ShimuraGraph(13, 11, vset11, primary(edges))


def _count(monkeypatch):
    """Record the caller of every ``equiv_witness``, the ell of every
    ``norm_ideals`` and the number of ``locate`` calls, in every loaded
    module of the package."""
    calls = {"equiv_witness": [], "norm_ideals": [], "locate": 0}
    equiv_witness, norm_ideals = ssgraph.equiv_witness, ssgraph.norm_ideals
    locate = VertexSet.locate

    def counted_equiv(*args, **kwargs):
        calls["equiv_witness"].append(sys._getframe(1).f_code.co_name)
        return equiv_witness(*args, **kwargs)

    def counted_norm_ideals(order, ell):
        calls["norm_ideals"].append(ell)
        return norm_ideals(order, ell)

    def counted_locate(self, ideal, *args):
        calls["locate"] += 1
        return locate(self, ideal, *args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "shimura_pq":
            continue
        if getattr(module, "equiv_witness", None) is equiv_witness:
            monkeypatch.setattr(module, "equiv_witness", counted_equiv)
        if getattr(module, "norm_ideals", None) is norm_ideals:
            monkeypatch.setattr(module, "norm_ideals", counted_norm_ideals)
    monkeypatch.setattr(VertexSet, "locate", counted_locate)
    return calls


@pytest.mark.parametrize("build", ["vertex_classes_163", "build_graph_13_47"])
def test_equivalence_tests_only_in_locate(build, monkeypatch):
    calls = _count(monkeypatch)
    vset = vertex_classes(163) if build == "vertex_classes_163" else build_graph(13, 47).vset
    h = len(vset)
    assert calls["locate"] == h  # one per class, for w_q
    assert calls["equiv_witness"] and set(calls["equiv_witness"]) == {"locate"}
    assert calls["norm_ideals"] == [2] * h  # one per class in the 2-neighbour search


@pytest.mark.parametrize("build", ["vertex_classes_163", "build_graph_13_47"])
def test_one_connector_search_per_pair(build, monkeypatch):
    # every norm_vectors call with no trace, by (lattice key, norm); the
    # connectors are told apart from the unit searches by their norms, and
    # conj(I_k) I_k = n_k R_k is searched on R_k at norm ell
    searched = Counter()
    norm_vectors = Lattice.norm_vectors

    def counted(self, n, trace=None):
        if trace is None:
            searched[(self.key(), Fraction(n))] += 1
        return norm_vectors(self, n, trace)

    monkeypatch.setattr(Lattice, "norm_vectors", counted)
    vset = vertex_classes(163) if build == "vertex_classes_163" else build_graph(13, 47).vset
    monkeypatch.undo()
    ells = (2,) if build == "vertex_classes_163" else (2, 13)
    per_pair = Counter()
    for k in range(len(vset)):
        for m in range(k, len(vset)):
            keys = {vset.connector(m, k).key(), vset.connector(k, m).key()}
            for ell in ells:
                n = ell * vset.classes[k].norm * vset.classes[m].norm
                per_pair[(k, m, ell)] = sum(searched[(key, n)] for key in keys)
                if k == m and vset.classes[k].norm != 1:
                    per_pair[(k, m, ell)] += searched[(vset.classes[k].right_order.key(), ell)]
    assert set(per_pair.values()) <= {0, 1}
    # ell = 2: each class has a searched pair, as its 2-steps land somewhere;
    # ell = 13: every pair, as neighbors(k, 13) asks every class
    assert all(any(per_pair[(min(k, m), max(k, m), 2)] for m in range(len(vset)))
               for k in range(len(vset)))
    if 13 in ells:
        assert all(per_pair[(k, m, 13)] == 1 for k, m, ell in per_pair if ell == 13)


def test_one_reduced_form_per_connector_pair(cold_5_163):
    """Both directions of a class pair are searched on its product lattice,
    so at most one of its two connectors gets a reduced form.  Two kinds
    get neither a product nor a form: conj(I_k) I_k = n_k R_k is searched
    on R_k, and O I_k = I_k (O the base order) on I_k, whose forms the unit
    and fingerprint searches built.  A cold build of (5,163) then builds
    161 reduced forms; a product and a form for those would make 188, and
    reducing both connectors of each pair 250."""
    vset = cold_5_163.graph.vset
    connectors = vset._connectors
    for (m, k), lat in connectors.items():
        if m < k:
            assert not ("form" in lat._cache and "form" in connectors[(k, m)]._cache), (m, k)
    base = next(o for o, rec in enumerate(vset.classes) if rec.ideal == vset.order)
    for k, rec in enumerate(vset.classes):
        assert "form" not in connectors[(k, k)]._cache
        assert connectors[(k, k)] == rec.ideal.conj_lattice().mul(rec.ideal)
        if k != base:
            assert connectors[(base, k)] is rec.ideal
            assert connectors[(k, base)] == rec.ideal.conj_lattice()
    assert len(cold_5_163.graph_forms) == 161
