"""The edge Brandt matrix pushes each edge (k, P) along an ell-step
(L, m, z) by conjugating the rows of ell P by z, and finds the pushed ideal
by the image mod p of that conjugate (``ShimuraGraph._conjugate_edge``, as
w_p and w_q do).

``lattice_oracle.brandt_edges`` is the push as a product of lattices,
z (conj(L)/ell (L meet P)) z^-1; the fast matrix must equal it entry for
entry.  T_ell commutes with the Atkin-Lehner involutions: on edges with
w_p and w_q, on vertices with w_q.  A graph whose edge data is damaged
must fail with a message naming the edge, ell and the vertex.
"""

import pytest

from graph_oracle import dense
from lattice_oracle import brandt_edges, scale
from shimura_pq.ssgraph import _residue_image, build_graph

CASES = [("graph_13_47", ell) for ell in (2, 3, 5, 7)]
CASES += [("graph_5_23", ell) for ell in (2, 3, 7)]
CASES += [("graph_13_11", ell) for ell in (2, 3, 5)]
CASES += [("graph_29_47", 3)]
CASES += [("graph_7_23", ell) for ell in (2, 3, 5)]
CASES += [("graph_5_163", 3)]


@pytest.mark.parametrize("fixture,ell", CASES)
def test_edge_matrix_matches_lattice_products(fixture, ell, request):
    graph = request.getfixturevalue(fixture)
    assert dense(graph.brandt_edges(ell)) == brandt_edges(graph, ell)


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
    e = next(e for e in graph.edges if len(e.orbit) == 1)
    # the table is keyed by the image of each ideal in R_k / 13 R_k
    order = graph.vset.classes[e.source].right_order
    del graph._edge_lookup[(e.source, _residue_image(order, e.ideal, 13))]
    with pytest.raises(ArithmeticError,
                       match=rf"^edge \d+: its ell=2 step lands on no edge ideal at "
                             rf"vertex {e.source} "):
        graph.brandt_edges(2)


def test_edge_ideal_inside_p_order_is_named(vset11):
    graph = build_graph(13, 11, vset=vset11)
    e = graph.edges[3]
    graph.edges[3] = e._replace(ideal=scale(e.ideal, 13))
    with pytest.raises(ArithmeticError,
                       match=r"^edge 3: its ell=3 step lands on no edge ideal at vertex \d+"):
        graph.brandt_edges(3)
