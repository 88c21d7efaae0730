"""The edge Brandt matrix pushes each edge through its local generator at p
and finds the pushed ideal by its image mod p.

``lattice_oracle.brandt_edges`` is the push as a product of lattices,
z (conj(L)/ell (L meet P)) z^-1; the fast matrix must equal it entry for
entry.  A graph whose edge data is damaged must fail with a message naming
the edge, ell and the vertex.
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


@pytest.mark.parametrize("fixture,ell", CASES)
def test_edge_matrix_matches_lattice_products(fixture, ell, request):
    graph = request.getfixturevalue(fixture)
    assert dense(graph.brandt_edges(ell)) == brandt_edges(graph, ell)


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
    e.ideal = scale(e.ideal, 13)
    with pytest.raises(ArithmeticError,
                       match=rf"^edge 3: ideal lies in 13 R_{e.source}, so the ell=3 step"):
        graph.brandt_edges(3)
