"""The benchmark's checkers accept real outputs and reject altered ones by name."""

import copy
import json
from fractions import Fraction

import pytest

from verify import (
    CheckError,
    check_certificate,
    check_graph,
    check_same_bytes,
    check_trace_identities,
    class_number,
    forms_class_number,
    formula_class_number,
    kronecker,
    vertex_count,
)

from conftest import CLOSED_PAIR, PAIR


@pytest.fixture
def outputs(cold_run):
    code, stdout, blob = cold_run
    return code, json.loads(stdout), json.loads(blob)


@pytest.fixture
def closed_outputs(closed_run):
    code, stdout, blob = closed_run
    return code, json.loads(stdout), json.loads(blob)


def _rejects(name, fn, *args):
    with pytest.raises(CheckError) as info:
        fn(*args)
    assert info.value.name == name, str(info.value)


def test_real_outputs_pass(outputs, closed_outputs):
    for (p, q), (code, cert, payload) in ((PAIR, outputs), (CLOSED_PAIR, closed_outputs)):
        check_graph(payload, p, q)
        check_certificate(cert, payload, code)
    assert closed_outputs[1]["checks"]["closed"]


def _first_edge(payload, length):
    return next(e for e in payload["edges"] if e["length"] == length)


def _break_involution(perm):
    perm[0] = 1 if perm[0] == 0 else 0


GRAPH_MUTATIONS = {
    "graph.vertex_count": lambda g: g["vertices"].pop(),
    "graph.vertex_mass": lambda g: g["vertices"][0].update(weight=g["vertices"][0]["weight"] + 1),
    "graph.edge_mass": lambda g: _first_edge(g, 1).update(length=3),
    "graph.endpoints": lambda g: g["edges"][0].update(target=len(g["vertices"])),
    "graph.orbit_sizes": lambda g: g["edges"][0]["orbit"].append(g["edges"][0]["orbit"][0]),
    "graph.wp_involution": lambda g: _break_involution(g["wp_perm"]),
    "graph.wq_involution": lambda g: _break_involution(g["wq_edge_perm"]),
    "graph.wp_reverses": lambda g: g["edges"][0].update(
        target=(g["edges"][0]["target"] + 1) % len(g["vertices"])),
}


@pytest.mark.parametrize("name", sorted(GRAPH_MUTATIONS))
def test_graph_mutation_rejected(outputs, name):
    _, _, payload = outputs
    bad = copy.deepcopy(payload)
    GRAPH_MUTATIONS[name](bad)
    _rejects(name, check_graph, bad, *PAIR)


def test_graph_of_another_pair_rejected(outputs):
    _rejects("graph.pair", check_graph, outputs[2], PAIR[0], 47)


def _bump_lambda(cert, by):
    cert["decomposition"]["lambdas"][0] += by


def _flip(cert, check):
    cert["checks"][check] = not cert["checks"][check]


CERT_MUTATIONS = {
    "cert.lambda_multiple_of_12": lambda c: _bump_lambda(c, 1),
    "cert.degree_identity": lambda c: _bump_lambda(c, 12),
    "cert.closed": lambda c: _flip(c, "closed"),
    "cert.exceptional_edges": lambda c: c["cycle"]["exceptional_edges"].pop(),
    "cert.length2_edges": lambda c: c["cycle"]["length2_edges"].append(0),
    "cert.exceptional_multiplicity": lambda c: _flip(c, "exceptional_multiplicity"),
    "cert.coprime_to_p": lambda c: _flip(c, "multiplicity_coprime_to_p"),
    "cert.c0_length": lambda c: c["cycle"]["c0"].pop(),
    "cert.verdict": lambda c: c.update(verdict="criterion_satisfied"),
}


@pytest.mark.parametrize("name", sorted(CERT_MUTATIONS))
def test_certificate_mutation_rejected(outputs, name):
    code, cert, payload = outputs
    bad = copy.deepcopy(cert)
    CERT_MUTATIONS[name](bad)
    # The verdict mutation keeps the exit code consistent, to reach cert.verdict.
    bad_code = 0 if name == "cert.verdict" else code
    _rejects(name, check_certificate, bad, payload, bad_code)


def test_failed_check_mutation_rejected(outputs):
    code, cert, payload = outputs
    bad = copy.deepcopy(cert)
    bad["failed_check"] = "closed"
    _rejects("cert.verdict", check_certificate, bad, payload, code)


def test_wrong_exit_code_rejected(outputs):
    code, cert, payload = outputs
    _rejects("cert.exit_code", check_certificate, cert, payload, 3)
    _rejects("cert.exit_code", check_certificate, cert, payload, (code + 1) % 3)


def test_c0_entry_mutation_rejected(closed_outputs):
    code, cert, payload = closed_outputs
    bad = copy.deepcopy(cert)
    bad["cycle"]["c0"][0] = str(Fraction(bad["cycle"]["c0"][0]) + 1)
    _rejects("cert.closed", check_certificate, bad, payload, code)


def test_certificate_against_mutated_cache_rejected(outputs):
    code, cert, payload = outputs
    bad = copy.deepcopy(payload)
    _first_edge(bad, 1).update(length=2)
    _rejects("cert.exceptional_edges", check_certificate, cert, bad, code)


def test_warm_bytes(cold_run):
    _, stdout, _ = cold_run
    check_same_bytes(stdout, bytes(stdout))
    _rejects("warm.byte_identical", check_same_bytes, stdout.replace(b"3", b"4", 1), stdout)


def test_trace_identities():
    # (13,47): D=-55 has 8 vertex and 16 edge embeddings, D=-7 has 2 and 0.
    check_trace_identities(-55, 13, 47, 8, 16)
    check_trace_identities(-7, 13, 47, 2, 0)
    _rejects("scan.vertex_trace", check_trace_identities, -55, 13, 47, 7, 16)
    _rejects("scan.edge_trace", check_trace_identities, -7, 13, 47, 2, 2)


def test_class_numbers():
    known = {-3: 1, -4: 1, -23: 3, -36: 2, -47: 5, -71: 7, -84: 4}
    assert {d: forms_class_number(d) for d in known} == known
    for d in range(-3, -3000, -1):
        if d % 4 in (0, 1):
            assert formula_class_number(d) == forms_class_number(d), d
    # The range the certificates use: h(-4 l^(2n)) = l^(n-1) (l - (-4|l)) / 2.
    for ell in (3, 5, 7, 11):
        for n in (1, 2, 8):
            expected = ell ** (n - 1) * (ell - kronecker(-4, ell)) // 2
            assert class_number(-4 * ell ** (2 * n)) == expected


def test_kronecker_and_vertex_count():
    assert [kronecker(-4, ell) for ell in (2, 3, 5, 7, 13)] == [0, -1, 1, -1, 1]
    assert [kronecker(d, 2) for d in (-3, -7, -15, -4)] == [-1, 1, 1, 0]
    assert [vertex_count(q) for q in (11, 13, 23, 37, 47, 163)] == [2, 1, 3, 3, 5, 14]
