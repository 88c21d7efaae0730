"""Acceptance suite: every numbered criterion, exact tolerances, one line each.

The heavy pair (29, 251) is exercised end to end through the command line,
run as ``python -m shimura_pq.cli`` in a separate process exactly as a user
would run it; the resulting cache is reused for the structural criteria on
that pair.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from graph_oracle import (
    apply_wp,
    apply_wq_edges,
    brandt_matrix,
    eisenstein_modular,
    eisenstein_shimura,
    element_order,
    gross_modular_frac,
    gross_shimura_frac,
    k_law_solve,
    make_multigraph,
    vec_scale,
)
from shimura_pq.certify import cache_load, genus
from shimura_pq.compgroup import blow_up, component_group, degree_report, quotient_by_wq
from shimura_pq.gross import (
    class_number,
    graph_eichler_units,
    optimal_embeddings,
    s_star,
    support,
    t_star,
)
from shimura_pq.ntheory import kronecker
from shimura_pq.ssgraph import ss_oracle, vertex_classes


def _report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def acc_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("acceptance_cache"))


@pytest.fixture(scope="module")
def cli_runs_29_251(acc_cache, run_cli):
    """Two end-to-end CLI runs on (29, 251); the first is a cold build."""
    runs = []
    for _ in range(2):
        start = time.time()
        proc = run_cli(
            [
                "check", "--p", "29", "--q", "251",
                "--override-hypotheses", "--cache", acc_cache,
            ],
            timeout=1800,
        )
        runs.append({
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "returncode": proc.returncode,
            "elapsed": time.time() - start,
        })
    return runs


def _first_run_cause(runs):
    first = runs[0]
    return f"first CLI run exited {first['returncode']}, stderr: {first['stderr'][-2000:]!r}"


@pytest.fixture(scope="module")
def graph_29_251(acc_cache, cli_runs_29_251):
    graph = cache_load(acc_cache, 29, 251)
    assert graph is not None, (
        "CLI run should have populated the cache; " + _first_run_cause(cli_runs_29_251)
    )
    return graph


@pytest.fixture(scope="module")
def vsets_small():
    return {q: vertex_classes(q) for q in (11, 23, 47, 59, 71, 83, 101)}


def test_criterion_01_mass_formulas(vsets_small):
    timings = {}
    vsets = dict(vsets_small)
    start = time.time()
    vsets[251] = vertex_classes(251)
    timings[251] = time.time() - start
    for q, vset in vsets.items():
        assert vset.mass() == Fraction(q - 1, 12), f"mass fails at q={q}"
        assert len(vset) == genus(q) + 1, f"class count fails at q={q}"
    assert timings[251] < 60
    _report(1, "Eichler mass and class counts for eight q, q=251 under 60 s")


def test_criterion_02_edge_mass(graph_5_23, graph_13_47, graph_29_251):
    for g in (graph_5_23, graph_13_47, graph_29_251):
        expected = Fraction((g.p + 1) * (g.q - 1), 12)
        assert g.edge_mass() == expected, f"edge mass fails at ({g.p},{g.q})"
    _report(2, "edge mass (p+1)(q-1)/12 for (5,23), (13,47), (29,251)")


def test_criterion_03_eisenstein_boundary(graph_5_23, graph_13_47, graph_29_251):
    for g in (graph_5_23, graph_13_47, graph_29_251):
        ae = eisenstein_shimura(g)
        target = vec_scale(eisenstein_modular(g.vset), g.p + 1)
        assert s_star(g, ae) == target, f"s_* fails at ({g.p},{g.q})"
        assert t_star(g, ae) == target, f"t_* fails at ({g.p},{g.q})"
    _report(3, "s_*(a_E) = t_*(a_E) = (p+1) A_E coefficientwise on all pairs")


def test_criterion_04_repartition_13_47(graph_13_47):
    mg = quotient_by_wq(graph_13_47)
    s1 = sorted(v.label for v in mg.vertices if v.side == "s1")
    s2 = sorted(v.label for v in mg.vertices if v.side == "s2")
    assert s1 == ["G1", "J1", "j1_1", "j1_2", "j1_3"]
    assert s2 == ["G2", "J2", "j2_1", "j2_2", "j2_3"]
    blown = blow_up(mg)
    assert {"exc2", "exc3_1", "exc3_2"} <= set(blown.labels())
    report = degree_report(blown, 13, 47)
    assert report["all_degrees_match"]
    by_label = {r["vertex"]: r["degree"] for r in report["vertex_degrees"]}
    assert by_label["J1"] == by_label["J2"] == 4
    assert by_label["G1"] == by_label["G2"] == 3
    for k in range(1, 4):
        assert by_label[f"j1_{k}"] == by_label[f"j2_{k}"] == 7
    # the 14-case: a non-rational vertex would have degree p+1 = 14
    from shimura_pq.compgroup import MGVertex, expected_degree

    pair = MGVertex(label="x", side="s1", kind="generic", orbit=(0, 1), weight=1)
    assert expected_degree(pair, 13) == 14
    _report(4, "regular-model degrees 4/3/7(/14) and vertex partition at (13,47)")


def test_criterion_05_exceptional_census(graph_13_47, graph_5_23):
    # p = 1 mod 4, q = 3 mod 4: exactly two length-2 edges at the
    # weight-2 vertex, swapped by w_q
    for g in (graph_13_47, graph_5_23):
        exc2 = [i for i, e in enumerate(g.edges) if e.length == 2]
        assert len(exc2) == 2
        w2 = next(k for k, c in enumerate(g.vset.classes) if c.weight == 2)
        for i in exc2:
            assert g.edges[i].source == w2 and g.edges[i].target == w2
        assert g.wq_edge_perm[exc2[0]] == exc2[1]
    # p = 1 mod 3, q = 2 mod 3: exactly two length-3 edges at the
    # weight-3 vertex (13 = 1 mod 3); none for p = 5 = 2 mod 3
    exc3 = [i for i, e in enumerate(graph_13_47.edges) if e.length == 3]
    assert len(exc3) == 2
    w3 = next(k for k, c in enumerate(graph_13_47.vset.classes) if c.weight == 3)
    for i in exc3:
        assert graph_13_47.edges[i].source == w3 and graph_13_47.edges[i].target == w3
    assert graph_13_47.wq_edge_perm[exc3[0]] == exc3[1]
    assert all(e.length != 3 for e in graph_5_23.edges)
    _report(5, "exceptional length census and w_q swap at (13,47) and (5,23)")


def test_criterion_06_trace_identities(vset47, graph_13_47):
    g = graph_13_47
    tested = 0
    for d in range(-200, 0):
        if d % 4 not in (0, 1) or d % 13 == 0 or d % 47 == 0:
            continue
        h = class_number(d)
        vertex_total = sum(
            optimal_embeddings(rec.right_order, d, vset47.units_of(k))
            for k, rec in enumerate(vset47.classes)
        )
        assert vertex_total == (1 - kronecker(d, 47)) * h, f"vertex trace at D={d}"
        edge_total = sum(
            optimal_embeddings(e.eichler, d, graph_eichler_units(g, i))
            for i, e in enumerate(g.edges)
        )
        expected = (1 - kronecker(d, 47)) * (1 + kronecker(d, 13)) * h
        assert edge_total == expected, f"edge trace at D={d}"
        tested += 1
    assert tested >= 90
    _report(6, f"Eichler trace identities for all {tested} discriminants to -200")


def test_criterion_07_gross_functoriality(vset47, graph_13_47):
    g = graph_13_47
    battery = []
    d = -7
    while len(battery) < 10 and d > -250:
        ok = (
            d % 4 in (0, 1)
            and d not in (-3, -4)
            and kronecker(d, 47) == -1
            and kronecker(d, 13) == 1
        )
        if ok:
            gam = gross_shimura_frac(g, d)
            if not any(g.edges[i].length > 1 for i in support(gam)):
                battery.append((d, gam))
        d -= 1
    assert len(battery) >= 10
    for d, gam in battery:
        target = vec_scale(gross_modular_frac(vset47, d), 4)
        assert s_star(g, gam) == target
        assert t_star(g, gam) == target
        assert apply_wq_edges(g, gam) == gam
        assert apply_wp(g, gam) == vec_scale(gam, -1)
    _report(7, f"s_* = t_* = 4*Gamma and involution actions for {len(battery)} D")


def test_criterion_08_hecke_suite(graph_13_47, graph_13_11):
    g = graph_13_47
    w = g.vset.weights
    mats = {}
    for ell in (2, 3, 5, 7):
        mat = brandt_matrix(g, ell)
        mats[ell] = mat
        assert all(sum(row) == ell + 1 for row in mat)
        for i in range(len(mat)):
            for j in range(len(mat)):
                assert mat[i][j] * w[j] == mat[j][i] * w[i]
    n = len(w)

    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for l1 in (2, 3, 5, 7):
        for l2 in (2, 3, 5, 7):
            assert matmul(mats[l1], mats[l2]) == matmul(mats[l2], mats[l1])
    fixture = brandt_matrix(graph_13_11, 2)
    weights = graph_13_11.vset.weights
    i2, i3 = weights.index(2), weights.index(3)
    assert [[fixture[i2][i2], fixture[i2][i3]],
            [fixture[i3][i2], fixture[i3][i3]]] == [[1, 2], [3, 0]]
    _report(8, "Brandt row sums, weighted symmetry, commutation, q=11 fixture")


def test_criterion_09_component_groups():
    for k in range(2, 13):
        assert component_group(make_multigraph(2, [(0, 1, 1)] * k)) == [k]
    for n in range(3, 13):
        cyc = make_multigraph(n, [(i, (i + 1) % n, 1) for i in range(n)])
        assert component_group(cyc) == [n]
    rng = random.Random(20260809)
    for trial in range(20):
        nv = rng.randint(3, 12)
        edges = [(i, i + 1, 1) for i in range(nv - 1)]
        for _ in range(rng.randint(1, 14)):
            i, j = rng.randrange(nv), rng.randrange(nv)
            if i != j:
                edges.append((min(i, j), max(i, j), 1))
        mg = make_multigraph(nv, edges)
        va, vb = 0, rng.randrange(1, nv)
        current = rng.randint(1, 40)
        pa = k_law_solve(mg, va, vb, current)
        order = element_order(mg, va, vb)
        assert pa.integral == (current % order == 0), f"trial {trial}"
    _report(9, "cycle/banana component groups and K-law vs SNF on 20 graphs")


def test_criterion_10_ss_oracle_agreement(vsets_small):
    for q, vset in vsets_small.items():
        count, rational = ss_oracle(q)
        assert count == len(vset), f"count mismatch at q={q}"
        fixed = sum(1 for k in range(len(vset)) if vset.wq_perm[k] == k)
        assert rational == fixed, f"rational split mismatch at q={q}"
        assert rational == vset.rational_count()
    _report(10, "supersingular oracle count and rational split for q <= 101")


def test_criterion_11_end_to_end(cli_runs_29_251):
    first, second = cli_runs_29_251
    cause = _first_run_cause(cli_runs_29_251)
    assert first["elapsed"] < 1800, "cold run must finish within 30 minutes"
    assert first["stdout"] == second["stdout"], "certificates must be byte-identical"
    assert first["returncode"] == second["returncode"], cause
    assert first["stdout"], "CLI printed no certificate; " + cause
    cert = json.loads(first["stdout"])
    assert cert["verdict"] in ("criterion_satisfied", "check_failed"), cause
    assert first["returncode"] == (0 if cert["verdict"] == "criterion_satisfied" else 1), cause
    dec = cert["decomposition"]
    assert dec["residual_zero"] is True
    assert dec["lambda0"] % 12 == 0 and all(x % 12 == 0 for x in dec["lambdas"])
    assert dec["lambda0"] % 29 != 0
    assert cert["cycle"]["exceptional_multiplicity"] == -2 * dec["lambda0"]
    assert cert["cycle"]["gcd_2lambda0_p"] == 1
    if cert["verdict"] == "criterion_satisfied":
        assert cert["checks"]["closed"]
        assert cert["checks"]["intersection"]
        assert cert["checks"]["exceptional_multiplicity"]
    else:
        assert cert["failed_check"] in (
            "intersection",
            "closed",
            "in_gross_span",
            "exceptional_multiplicity",
            "multiplicity_coprime_to_p",
            "decomposition",
        )
        # the failure is the instance being far from the asymptotic regime,
        # reported with the offending discriminants
        if cert["failed_check"] == "intersection":
            assert cert["cycle"]["support_overlap"]
    _report(11, f"end-to-end (29,251): verdict {cert['verdict']}, "
                f"cold {first['elapsed']:.0f}s, byte-identical reruns")
