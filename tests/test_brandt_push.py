"""The edge Brandt matrix reads each edge (k, P) as its line v in P^1(F_p)
(``ShimuraGraph``) and moves it along an ell-step (L, m, z) of k by the one
g in GL_2(F_p) with rho_m(z x z^-1) = g rho_k(x) g^-1; w_q moves the edges
at k by one g per vertex, and w_p reads the line of each conjugated ideal.

``lattice_oracle.brandt_edges`` is the push as a product of lattices,
z (conj(L)/ell (L meet P)) z^-1, and ``graph_oracle.brandt_edges_rref``
the push as it was before the line model: the rows of ell P conjugated by
z and read off by their echelon form mod p, looked up in a table keyed by
that form.  The fast matrix must equal both entry for entry, and w_p and
w_q on edges must equal their echelon-form oracles.  T_ell commutes with
the Atkin-Lehner involutions: on edges with w_p and w_q, on vertices with
w_q.  A graph whose edge data is damaged must fail with a message naming
the edge or the step, ell and the vertex.
"""

import pytest

from graph_oracle import brandt_edges_rref, dense, primary, wp_perm_rref, wq_edge_perm_rref
from lattice_oracle import brandt_edges, scale
from shimura_pq.quat import Quat
from shimura_pq.ssgraph import ShimuraGraph, build_graph

CASES = [("graph_13_47", ell) for ell in (2, 3, 5, 7)]
CASES += [("graph_5_23", ell) for ell in (2, 3, 7)]
CASES += [("graph_13_11", ell) for ell in (2, 3, 5)]
CASES += [("graph_29_47", 3)]
CASES += [("graph_7_23", ell) for ell in (2, 3, 5)]
CASES += [("graph_5_163", 3)]
GRAPHS = ["graph_13_47", "graph_5_23", "graph_7_23", "graph_13_11", "graph_29_47",
          "graph_5_37", "graph_5_163"]


def _graph(fixture, request):
    if fixture == "cold_257_251":
        return request.getfixturevalue(fixture).graph
    return request.getfixturevalue(fixture)


@pytest.mark.parametrize("fixture,ell", CASES)
def test_edge_matrix_matches_lattice_products(fixture, ell, request):
    graph = request.getfixturevalue(fixture)
    assert dense(graph.brandt_edges(ell)) == brandt_edges(graph, ell)


@pytest.mark.parametrize("fixture,ell", [
    (fixture, ell) for fixture in GRAPHS + ["cold_257_251"] for ell in (2, 3, 5)
    if ell != int(fixture.split("_")[-2])])  # ell = p is no Hecke operator of the edges
def test_edge_matrix_matches_echelon_push(fixture, ell, request):
    graph = _graph(fixture, request)
    assert graph.brandt_edges(ell) == brandt_edges_rref(graph, ell)


@pytest.mark.parametrize("fixture", GRAPHS + ["cold_257_251"])
def test_edge_involutions_match_echelon_push(fixture, request):
    # a loaded graph holds the stored w_p: derive it again on a graph
    # made from its records
    graph = _graph(fixture, request)
    fresh = ShimuraGraph(graph.p, graph.q, graph.vset, primary(graph.edges))
    assert fresh.wp_perm == graph.wp_perm == wp_perm_rref(graph)
    assert fresh.wq_edge_perm == graph.wq_edge_perm == wq_edge_perm_rref(graph)


def _commutes(rows, perm):
    """Whether the sparse matrix rows commutes with the permutation perm:
    row perm[i] is row i with each column j moved to perm[j]."""
    return all(sorted((perm[j], c) for j, c in row) == rows[perm[i]]
               for i, row in enumerate(rows))


@pytest.mark.parametrize("fixture", ["graph_13_11", "graph_13_47", "graph_5_163"])
@pytest.mark.parametrize("ell", [2, 3])
def test_brandt_commutes_with_involutions(fixture, ell, request):
    graph = request.getfixturevalue(fixture)
    edges = graph.brandt_edges(ell)
    assert _commutes(edges, graph.wp_perm)
    assert _commutes(edges, graph.wq_edge_perm)
    assert _commutes(graph.brandt_vertices(ell), graph.vset.wq_perm)


def test_missing_edge_ideal_is_named(vset11):
    graph = build_graph(13, 11, vset=vset11)
    i, e = next((i, e) for i, e in enumerate(graph.edges) if len(e.orbit) == 1)
    # the table is keyed by the line of each ideal in P^1(F_13)
    del graph._edge_lookup[(e.source, graph._lines[i])]
    with pytest.raises(ArithmeticError,
                       match=rf"^edge \d+: its ell=2 step lands on no edge ideal at "
                             rf"vertex {e.source} "):
        graph.brandt_edges(2)


def test_edge_ideal_inside_p_order_is_named(vset11):
    # 13 P has no line: the graph is refused when its lines are read, before
    # any step, naming the edge and the vertex
    graph = build_graph(13, 11, vset=vset11)
    edges = list(graph.edges)
    k = edges[3].source
    edges[3] = edges[3]._replace(ideal=scale(edges[3].ideal, 13))
    with pytest.raises(ArithmeticError,
                       match=rf"^edge 3: ideal does not lie between 13 R_{k} and R_{k} "
                             rf"with index 13\^2$"):
        ShimuraGraph(13, 11, graph.vset, primary(edges))


def test_step_without_g_is_named(vset11):
    # a step witness that does not conjugate R_0 onto R_m at 13, as a
    # damaged cache could give, has no g
    graph = build_graph(13, 11, vset=vset11)
    steps = list(graph.vertex_neighbors(0, 3))
    image, m, z = steps[0]
    steps[0] = (image, m, z * Quat(graph.vset.alg, (1, 0, 0, 1), 1))
    graph._neighbors[(0, 3)] = steps
    with pytest.raises(ArithmeticError,
                       match=rf"^vertex 0: its ell=3 step to vertex {m} does not conjugate "
                             rf"R_0 onto R_{m} at 13 "):
        graph.brandt_edges(3)


def test_wq_witness_without_g_is_named(vset11):
    graph = build_graph(13, 11, vset=vset11)
    vset = graph.vset
    t, y = vset.wq_perm[0], vset.wq_witnesses[0]
    vset.wq_witnesses[0] = y * Quat(vset.alg, (1, 0, 0, 1), 1)
    try:
        with pytest.raises(ArithmeticError,
                           match=rf"^vertex 0: its w_q witness does not conjugate R_0 onto "
                                 rf"R_{t} at 13 "):
            ShimuraGraph(13, 11, vset, primary(graph.edges), wp_perm=graph.wp_perm)
    finally:
        vset.wq_witnesses[0] = y
