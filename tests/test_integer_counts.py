"""Gross vectors as embedding counts, and the integer saturation of
``quat.maximal_order``, pinned to the ``Fraction`` code they replaced.

The hashes were recorded while ``gross_modular`` and ``gross_shimura``
returned ``Fraction`` vectors (count / 2u(D) at a vertex, count / length
at an edge), ``hecke_tower`` took the edge lengths as weights and cleared
the denominators of both towers by an lcm, and ``maximal_order`` saturated
through the rational ``Quat`` API (``+``, ``-``, ``trd``, ``nrd`` and
``Lattice.basis``).  A tower was then (den, numerators): den was 2 for the
vertex tower on every pair below and 1 for the edge tower, and the
numerators were the counts.  Each hash is the SHA-256 of the JSON of the
object named in its test.
"""

import hashlib
import json

import pytest

from graph_oracle import gross_modular_frac, gross_shimura_frac
from shimura_pq.gross import (gross_modular, gross_shimura, gross_tower_modular,
                              gross_tower_shimura)
from shimura_pq.ntheory import is_prime
from shimura_pq.quat import make_algebra, maximal_order

# (p, q, ell): the hashes of [den, towers] of the vertex and the edge tower,
# depth 6; ell = p = 5 is no Hecke operator of the edges of (5,163)
TOWER_HASHES = {
    (13, 47, 2): ("1586c2277f037f5c02d6c4107b6787672ea031d58f3e00822727490673f729be",
                  "0a5f860842221a120fb3cc58421729c232895313cd1e827ef5ee71d271b533f0"),
    (13, 47, 3): ("5fa6495f62ecfabaff4e31550fd3443e62742882adcaf2dc7c91b9efb6d4e498",
                  "06ec001ae8008ba5bea1db7e42e6882a8d270d4a91c8eac525aafdb0902e92fc"),
    (13, 47, 5): ("c617ecb6ded676a60c4198bea9ca3c57844d3063db5b72e0c899c03750813726",
                  "b2a2076a5725ca5c5fd4f3b264f4cf3057a8c7e7cb64659c19eaaecb49de5479"),
    (13, 47, 7): ("9e91d66ce0e470aa62cf0aee40d28f4cb0c34ee81b45f8c974b4c2e764c0ecf6",
                  "68c16935a88a5d08655fecb0d366c3ae89d1e66c1284786ae6b898ee54d9c9af"),
    (5, 163, 2): ("23df06a8c5ee15fde7f91edcb4849846a0f09177f7d6250bfb88ba2f25d7b7a7",
                  "e73126b02e90fe76146b90e6036375bba4e1ba7ee62505b53250f23c27c70132"),
    (5, 163, 3): ("71868b26fb5ae633046b3607f02ce7ca108e611f982abc47e45cb958c047b8b0",
                  "8851ddab2cb0e69f61299ea1f53898ca5360c8ddcc5bfd11f5b25689d254c5f6"),
    (5, 163, 7): ("20691efb493e278445439fd6001981c6a5a003f3d78e1e13576628dcb9cd7282",
                  "72855aed0a945f600f2fc1405d8c86a87855a8690f6297feeaf392c10f737942"),
    (29, 251, 2): ("773a4b39979e67b2fb3467bfa4727861d4a5a8715bcc3201787c7f71d7dce7c0",
                   "4b70f8d3cfcb6994c42c9dd666d015de6961b4851e0cd990a12000dc1c431dd6"),
    (29, 251, 3): ("779e6a93de6a8f7b23edb44caa2ec51ae1cd2b6a1ccbed3e935daaa9974153ba",
                   "aaf89480cedd41b2fe155202cfe4c582bba959ed8c63691548d3964ac5c3fe40"),
    (29, 251, 5): ("6fe4db8776bc6890bbdc786b3d5103ddae9e96a7c9f6a6fc53cabadf7c527fc2",
                   "78a7a31b42103ea89b5eb9d59735ffc459a20721010152c0cb0c349fc1ebace2"),
    (29, 251, 7): ("c41d656b0ad7e9927ccf752e1b4e2a7ced2c4c059f72d253c349a564172a2c5c",
                   "362d8e0b67e03886f0fbfc7f1e2b2115ff6731f9817817f7c74b87053fe87b88"),
}
# [[q, den, rows], ...] of maximal_order(make_algebra(q)) over every prime
# 5 <= q < 400: the q = 1 mod 4 are saturated, the q = 3 mod 4 classical
MAXIMAL_ORDERS_HASH = "0dc86396b8b4eca9ebfc890c618972c82a8d446c44f7ab0b460035233192afee"
# [[q, a, den, rows], ...] of maximal_order(make_algebra(q, a)), each saturated
MODELS = [(11, 3), (11, 4), (19, 4), (19, 5), (23, 2), (23, 3), (43, 4), (43, 9),
          (47, 2), (47, 3), (13, 2), (13, 7), (37, 2), (37, 8)]
MODELS_HASH = "a752a3a3a368365125671e8dd2a745bf589b9ac23e77202c27454ae9eff41431"
# the Fraction vectors as strings, vertex then edge, over DISCS; (29,47) has
# vertices with 4 and 6 units, so u(D) matters at D = -3 and -4
DISCS = [d for d in range(-3, -121, -1) if d % 4 in (0, 1)] + [-36, -324, -100, -2500]
FRACTION_HASHES = {
    (13, 47): ("e1845856c2beef1533cd26f5fe0882ce5d04adbe156b904e6efd59686fa1452d",
               "d61b21bca52817170ddaeced92017cfa75955690d5a8e295ca540b51606108d5"),
    (5, 37): ("55ff8ae405f18b03f60f9dcd7fb9a32e17b70771606fe84ad7a6972cb47d65c3",
              "33c153fa54241579afafe04673a70b75d22a0a38606ce8b3782f0f7e2c743983"),
    (29, 47): ("e1845856c2beef1533cd26f5fe0882ce5d04adbe156b904e6efd59686fa1452d",
               "4deb097d274046fd75b58610b185dbf7f205cf6997f81b401952cc7bfc18934a"),
}


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("p,q,ell", sorted(TOWER_HASHES))
def test_towers_are_the_fraction_towers(p, q, ell, request):
    graph = request.getfixturevalue(f"graph_{p}_{q}")
    den, vertex = gross_tower_modular(graph, ell, 6)
    edge = gross_tower_shimura(graph, ell, 6)
    assert den == 2
    assert all(type(x) is int for tower in (vertex, edge) for v in tower for x in v)
    assert (_sha([den, vertex]), _sha([1, edge])) == TOWER_HASHES[p, q, ell]


def test_maximal_orders_are_the_saturated_ones():
    keys = [[q, *maximal_order(make_algebra(q)).key()] for q in range(5, 400) if is_prime(q)]
    assert _sha(keys) == MAXIMAL_ORDERS_HASH
    keys = [[q, a, *maximal_order(make_algebra(q, a=a)).key()] for q, a in MODELS]
    assert _sha(keys) == MODELS_HASH


@pytest.mark.parametrize("p,q", sorted(FRACTION_HASHES))
def test_counts_over_units_and_lengths_are_the_fraction_vectors(p, q, request):
    """count / 2u(D) at a vertex and count / length at an edge
    (``graph_oracle.gross_modular_frac`` and ``gross_shimura_frac``) are the
    vectors the Fraction code returned."""
    graph = request.getfixturevalue(f"graph_{p}_{q}")
    for d in DISCS:
        assert all(type(x) is int for x in gross_modular(graph.vset, d) + gross_shimura(graph, d))
    vertex = [[str(x) for x in gross_modular_frac(graph.vset, d)] for d in DISCS]
    edge = [[str(x) for x in gross_shimura_frac(graph, d)] for d in DISCS]
    assert (_sha(vertex), _sha(edge)) == FRACTION_HASHES[p, q]
