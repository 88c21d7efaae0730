import builtins
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import decompose_by_solve_frac, unit_count
from lattice_oracle import model, scale
from shimura_pq import certify
from shimura_pq.certify import (
    CACHE_VERSION,
    _lat_from,
    _lat_payload,
    build_cycle,
    cache_load,
    cache_path,
    cache_store,
    certificate_json,
    check_ogg,
    decompose_eisenstein,
    exit_code,
    genus,
    graph_from_payload,
    graph_payload,
    load_or_build_graph,
    run_criterion,
)
from shimura_pq.gross import gross_tower_modular, tower_class_number
from shimura_pq.linalg import hnf_rows
from shimura_pq.quat import Quat, make_algebra, maximal_order
from shimura_pq.ssgraph import VertexSet, build_graph


class TestOgg:
    def test_fixtures(self):
        assert check_ogg(13, 47) == "nonramified"
        assert check_ogg(29, 251) == "nonramified"
        assert check_ogg(7, 47) == "none"
        assert check_ogg(11, 47) == "ramified"

    def test_invalid(self):
        with pytest.raises(ValueError):
            check_ogg(13, 13)
        with pytest.raises(ValueError):
            check_ogg(4, 47)
        with pytest.raises(ValueError):
            check_ogg(13, 3)


class TestGenus:
    def test_fixtures(self):
        assert genus(47) == 4
        assert genus(79) == 6
        assert genus(13) == 0
        assert genus(11) == 1
        assert genus(251) == 21
        assert genus(101) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            genus(12)


class TestDecomposition:
    def test_13_47(self, graph_13_47):
        dec = decompose_eisenstein(graph_13_47, 3, genus(47) + 2)
        assert dec is not None
        assert dec["residual_zero"]
        assert dec["lambda0"] % 12 == 0 and dec["lambda0"] > 0
        assert all(lam % 12 == 0 for lam in dec["lambdas"])
        assert dec["degree_identity"]
        # degree identity spelled out
        lhs = dec["lambda0"] * Fraction(46, 12)
        rhs = sum(
            Fraction(lam * tower_class_number(3, n + 1), unit_count(-4 * 9 ** (n + 1)))
            for n, lam in enumerate(dec["lambdas"])
        )
        assert lhs == rhs

    def test_q_split_in_gaussian_field(self):
        # 13 = 1 mod 4 splits in Q(i): Z[i] and its suborders prime to 13 do
        # not embed, so the tower is zero and no decomposition is attempted
        graph = build_graph(7, 13)
        assert all(not any(v) for v in gross_tower_modular(graph, 3, 2)[1])
        assert decompose_eisenstein(graph, 3, 2) is None

    def test_deterministic(self, graph_13_47):
        d1 = decompose_eisenstein(graph_13_47, 3, 6)
        d2 = decompose_eisenstein(graph_13_47, 3, 6)
        assert d1 == d2

    def test_rejects_bad_aux_prime(self, graph_13_47):
        with pytest.raises(ValueError):
            decompose_eisenstein(graph_13_47, 13, 5)
        with pytest.raises(ValueError):
            decompose_eisenstein(graph_13_47, 4, 5)


GOLDEN_GRAPHS = ["graph_5_23", "graph_13_47", "graph_5_37", "graph_7_23", "graph_5_163"]


@pytest.mark.parametrize("fixture", GOLDEN_GRAPHS)
def test_decomposition_matches_solve_frac(fixture, request):
    # the incremental elimination against one dense Fraction solve per
    # depth (free variables 0), at every depth limit from 1 to genus + 2
    graph = request.getfixturevalue(fixture)
    for ell in (3, 5, 7):
        if ell == graph.p:
            with pytest.raises(ValueError):
                decompose_eisenstein(graph, ell, 1)
            continue
        for n_max in range(1, genus(graph.q) + 3):
            assert decompose_eisenstein(graph, ell, n_max) == \
                decompose_by_solve_frac(graph, ell, n_max), (ell, n_max)


def test_rank_2_system_13_11_depth_3(graph_13_11):
    # two classes and three tower vectors, with t_2 = 3 t_1: A_E is first in
    # the span at depth 3, where the system has rank 2 and one free
    # variable.  The answer puts 0 on the dependent column t_2, as the dense
    # solve with the free variables set to 0 does.
    _, (t1, t2, t3) = gross_tower_modular(graph_13_11, 3, 3)
    assert t2 == [3 * x for x in t1] and t1[0] * t3[1] != t1[1] * t3[0]
    assert decompose_eisenstein(graph_13_11, 3, 2) is None
    dec = decompose_eisenstein(graph_13_11, 3, 3)
    assert dec == decompose_by_solve_frac(graph_13_11, 3, 3)
    assert (dec["depth"], dec["lambda0"], dec["lambdas"]) == (3, 432, [72, 0, 12])


@pytest.mark.parametrize("q", [251, 307])
def test_vertex_only_decomposition_matches_solve_frac(q):
    # depth 18 at q = 251 and 14 at q = 307
    graph = build_graph(29, q)
    n_max = genus(q) + 2
    dec = decompose_eisenstein(graph, 3, n_max)
    assert dec["depth"] == {251: 18, 307: 14}[q] and dec["degree_identity"]
    assert dec == decompose_by_solve_frac(graph, 3, n_max)


class TestBuildCycle:
    def test_structure_and_reporting(self, graph_13_47):
        dec = decompose_eisenstein(graph_13_47, 3, 6)
        cyc = build_cycle(graph_13_47, 3, dec["lambda0"], dec["lambdas"])
        assert set(cyc["checks"]) == {
            "intersection",
            "closed",
            "in_gross_span",
            "exceptional_multiplicity",
            "multiplicity_coprime_to_p",
        }
        assert cyc["exceptional_multiplicity"] == -2 * dec["lambda0"]
        assert len(cyc["c0"]) == len(graph_13_47.edges)
        assert cyc["checks"]["multiplicity_coprime_to_p"] == (
            dec["lambda0"] % 13 != 0
        )
        # if any tower vector meets an exceptional edge the overlap report
        # names the offending discriminant and the check fails
        assert cyc["checks"]["intersection"] == (not cyc["support_overlap"])
        for key in cyc["support_overlap"]:
            assert int(key) < 0


class TestRunCriterion:
    def test_hypotheses_not_met_13_47(self, tmp_path):
        cert = run_criterion(13, 47, cache_dir=str(tmp_path))
        assert cert["verdict"] == "hypotheses_not_met"
        assert "q_gt_245" in cert["hypotheses_unmet"]
        assert exit_code(cert) == 2
        # the graph statistics are still reported and match the known example
        deg = cert["graph"]["regular_model"]["degree_report"]
        assert deg["all_degrees_match"]
        assert cert["graph"]["vertices"]["count"] == 5
        assert cert["graph"]["edges"]["length_census"] == {"1": 52, "2": 2, "3": 2}

    def test_hypotheses_not_met_7_47(self, tmp_path):
        cert = run_criterion(7, 47, cache_dir=str(tmp_path))
        assert cert["verdict"] == "hypotheses_not_met"
        assert "p_1_mod_4" in cert["hypotheses_unmet"]
        assert cert["ogg_case"] == "none"

    def test_override_runs_machinery(self, tmp_path):
        cert = run_criterion(13, 47, cache_dir=str(tmp_path), override=True)
        assert "decomposition" in cert
        assert cert["checks"]["residual_zero"]
        # at this small instance the tower meets the exceptional edges, an
        # honest named failure
        if cert["verdict"] == "check_failed":
            assert cert["failed_check"] in (
                "intersection",
                "closed",
                "in_gross_span",
                "exceptional_multiplicity",
            )
        else:
            assert cert["verdict"] == "hypotheses_not_met"

    def test_determinism(self, tmp_path):
        c1 = run_criterion(13, 47, cache_dir=str(tmp_path), override=True)
        c2 = run_criterion(13, 47, cache_dir=str(tmp_path), override=True)
        assert certificate_json(c1) == certificate_json(c2)

    def test_exit_codes(self):
        assert exit_code({"verdict": "criterion_satisfied"}) == 0
        assert exit_code({"verdict": "check_failed"}) == 1
        assert exit_code({"verdict": "hypotheses_not_met"}) == 2


# The record whose value each damage case of
# ``TestCache.test_damaged_graph_treated_as_corrupt`` changes: a top-level
# key of the cache payload, or a (list, field) pair of its vertices or
# edges; None where the case breaks the JSON encoding, not a value.
DAMAGED_RECORD = {
    "length": ("edges", "length"), "target": ("edges", "target"), "wp_perm": "wp_perm",
    "wq_perm": "wq_perm", "norm": ("vertices", "norm"),
    "right_order": ("vertices", "right_order"), "fingerprint": ("vertices", "fingerprint"),
    "weight": ("vertices", "weight"), "eichler": ("edges", "eichler"),
    "eichler_is_order": ("edges", "eichler"), "eichler_swapped": ("edges", "eichler"),
    "orbit": ("edges", "orbit"), "p_times_ideal": ("edges", "ideal"),
    "foreign_ideal": ("edges", "ideal"), "two_sided": "two_sided",
    "wq_witness": "wq_witnesses", "order": "order", "rational": ("vertices", "rational"),
    "algebra": "algebra", "json_list": None, "json_number": None, "json_string": None,
    "float_entry": None, "float_witness": None, "float_length": None, "bool_entry": None,
    "flag_moved": None, "half_scale_ideal": ("vertices", "ideal"),
    "wq_edge_perm": "wq_edge_perm", "source": ("edges", "source"),
    "wq_perm_long": "wq_perm", "vertices_empty": ("vertices", "ideal"),
    "algebra_model": "algebra", "classes_swapped": ("vertices", "ideal"),
    "edges_swapped": ("edges", "ideal"),
}
# The records no damage case changes, each with its reason.
UNDAMAGED_RECORDS = (
    (("version", "p", "q"), "a wrong value is a cache miss, not corruption"),
    ((("edges", "witness"),), "it feeds only w_p at a build, so a changed value still loads"),
)


def reindexed(payload, perm, lists, maps):
    """The payload with entry i of each list named in lists moved to
    perm[i], and each index map named in maps (of the same kind of index)
    re-mapped to match: a consistent renumbering of classes or edges."""
    old = sorted(range(len(perm)), key=perm.__getitem__)
    for key in lists:
        payload[key] = [payload[key][i] for i in old]
    for key in maps:
        payload[key] = [perm[payload[key][i]] for i in old]
    return payload


def classes_permuted(payload, perm):
    """Class k moved to perm[k]: the class records, w_q on vertices and
    every edge's source and target renumbered with it."""
    for e in payload["edges"]:
        e["source"], e["target"] = perm[e["source"]], perm[e["target"]]
    return reindexed(payload, perm, ("vertices", "two_sided", "wq_witnesses"), ("wq_perm",))


def edges_permuted(payload, perm):
    """Edge i moved to perm[i], with w_p and w_q on edges renumbered."""
    return reindexed(payload, perm, ("edges",), ("wp_perm", "wq_edge_perm"))


# The damage cases whose every record is consistent with the others, but
# whose model or order is not the build's, with the message that refuses
# each.  They loaded before the model and both orders were the build's.
FOREIGN = {"algebra_model": "order is not the maximal order of the algebra",
           "classes_swapped": "class 1 is out of place in the build's order",
           "edges_swapped": "edge 5 is out of place in the build's order"}


def damaged_13_11_payload(good, damage):
    """The payload of a ``FOREIGN`` case made from good, the cache text of
    the (13,11) build: the graph built in the model a = 3; classes 0 and 1
    swapped; or edges 4 and 6 (sources 0 and 1) swapped.  A swap renumbers
    every record that holds a class or an edge index."""
    if damage == "algebra_model":
        alg = model(11, 3)
        return graph_payload(build_graph(13, 11, vset=VertexSet(alg, maximal_order(alg))))
    payload = json.loads(good)
    if damage == "classes_swapped":
        return classes_permuted(payload, [1, 0])
    perm = list(range(len(payload["edges"])))
    perm[4], perm[6] = 6, 4
    return edges_permuted(payload, perm)


class TestCache:
    def test_roundtrip(self, graph_13_11, tmp_path):
        path = cache_store(str(tmp_path), graph_13_11)
        loaded = cache_load(str(tmp_path), 13, 11)
        assert loaded is not None
        assert json.dumps(graph_payload(loaded), sort_keys=True) == json.dumps(
            graph_payload(graph_13_11), sort_keys=True
        )
        with open(path, "rb") as fh:
            blob1 = fh.read()
        cache_store(str(tmp_path), graph_13_11)
        with open(path, "rb") as fh:
            blob2 = fh.read()
        assert blob1 == blob2

    def test_loaded_graph_works(self, graph_13_11, tmp_path):
        from graph_oracle import eisenstein_modular, eisenstein_shimura, vec_scale
        from shimura_pq.gross import s_star

        cache_store(str(tmp_path), graph_13_11)
        g = cache_load(str(tmp_path), 13, 11)
        ae = eisenstein_shimura(g)
        assert s_star(g, ae) == vec_scale(eisenstein_modular(g.vset), 14)

    def test_version_bump_invalidates(self, graph_13_11, tmp_path):
        path = cache_store(str(tmp_path), graph_13_11)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["version"] = CACHE_VERSION + 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert cache_load(str(tmp_path), 13, 11) is None

    def test_corrupt_treated_as_miss(self, tmp_path, capsys):
        path = cache_path(str(tmp_path), 13, 11)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert cache_load(str(tmp_path), 13, 11) is None
        assert "corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("where,damage", [
        pytest.param(where, damage, id=damage if where == "right_order" else f"{where}-{damage}")
        for where in ("right_order", "ideal", "edge_ideal")
        for damage in ("off_diagonal", "below_diagonal", "short_rows", "zero_den")])
    def test_non_hnf_lattice_treated_as_corrupt(self, graph_13_11, tmp_path, capsys, where,
                                                damage):
        # vertex 0's ideal and edge 4's ideal are primary records, which
        # _lat_from parses; vertex 0's right order is derived from its ideal,
        # and the stored one must be the payload of the derived one
        path = cache_store(str(tmp_path), graph_13_11)
        with open(path, "rb") as fh:
            good = fh.read()
        payload = json.loads(good)
        if where == "edge_ideal":
            lat = payload["edges"][4]["ideal"]
        else:
            lat = payload["vertices"][0][where]
        m = lat["m"]
        if damage == "off_diagonal":
            # add the second pivot to the entry above it: the same lattice,
            # but the basis is no longer the reduced HNF the dual reads
            m[1] += m[5]
        elif damage == "below_diagonal":
            m[4] += 1
        elif damage == "short_rows":
            del m[-1]
        else:
            lat["d"] = 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        assert cache_load(str(tmp_path), 13, 11) is None
        err = capsys.readouterr().err
        assert "corrupt" in err
        if where == "right_order":
            assert "vertex 0: right_order is not the right order of its ideal" in err
        elif damage != "short_rows":
            assert "not in Hermite normal form" in err
        graph, from_cache = load_or_build_graph(13, 11, str(tmp_path))
        assert not from_cache
        assert graph_payload(graph) == graph_payload(graph_13_11)
        with open(path, "rb") as fh:
            assert fh.read() == good

    def test_every_record_is_damaged_or_exempt(self, graph_13_11):
        # each top-level record of a cache payload and each field of its
        # vertices and edges is changed by a damage case below, or exempt
        payload = graph_payload(graph_13_11)
        records = {key for key in payload if key not in ("vertices", "edges")}
        records |= {(key, field) for key in ("vertices", "edges") for field in payload[key][0]}
        damaged = {record for record in DAMAGED_RECORD.values() if record}
        exempt = {record for names, _ in UNDAMAGED_RECORDS for record in names}
        assert records - damaged - exempt == set()
        assert damaged | exempt <= records and not damaged & exempt

    @pytest.mark.parametrize("damage", list(DAMAGED_RECORD))
    def test_damaged_graph_treated_as_corrupt(self, graph_13_11, tmp_path, capsys, damage):
        # edge 4 runs from vertex 0 to vertex 1 with length 1; w_p sends it to
        # edge 11, and edge 5 is the other edge from 0 to 1; edge 6 starts at
        # vertex 1.  Vertex 0 has weight 3 and norm 2, vertex 1 weight 2 and
        # norm 1: swapping the weights keeps the mass.  13 P, with its orbit
        # and Eichler order Z + 13 P, is consistent in every other record,
        # so only the check that P lies between 13 R_0 and R_0 rejects it.
        # Two edges with the same source, target and length whose w_q images
        # are swapped keep w_q an involution that commutes with both maps.
        check = {"length": "edge 4: length 2 is not half the unit count of its Eichler order",
                 "target": "w_p does not swap source and target",
                 "wp_perm": "w_p is not an involution on edges",
                 "wq_perm": "w_q is not an involution on vertices",
                 "norm": "vertex 1: norm 4 is not the reduced norm of its ideal",
                 "right_order": "vertex 0: right_order is not the right order of its ideal",
                 "fingerprint": "vertex 1: fingerprint does not match its ideal",
                 "weight": "vertex 0: weight 2 is not half the unit count",
                 "eichler": "edge 4: eichler is not Z + its ideal",
                 "eichler_is_order": "edge 4: eichler is not Z + its ideal",
                 "eichler_swapped": "edge 4: eichler is not Z + its ideal",
                 "orbit": "edge 4: orbit is not the set of its ideal times the units",
                 "p_times_ideal": "edge 4: ideal does not lie between 13 R_0 and R_0",
                 "foreign_ideal": "edge 4: ideal does not lie between 13 R_0 and R_0",
                 "two_sided": "vertex 0: two_sided is not the two-sided norm-11 ideal",
                 "wq_witness": "vertex 0: its w_q witness y does not give I_0 T_0 = I_0 y",
                 "order": "order is not the maximal order of the algebra",
                 "rational": "vertex 0: rational False is not whether w_q fixes it",
                 "algebra": "cache is not the payload of the graph rebuilt from its primary "
                            "records",
                 "json_list": "cache is not a JSON object",
                 "json_number": "cache is not a JSON object",
                 "json_string": "cache is not a JSON object",
                 # 1.0 and false compare equal to 1 and 0, which every check
                 # on values used to accept
                 "float_entry": "1.0 in the cache is not an integer",
                 "float_witness": "-3.0 in the cache is not an integer",
                 "float_length": "3.0 in the cache is not an integer",
                 "bool_entry": "a true or false in the cache is not a vertex's rational flag",
                 "flag_moved": "a true or false in the cache is not a vertex's rational flag",
                 "half_scale_ideal": "ideal norm is not an integer",
                 "wq_edge_perm": "wq_edge_perm is not w_q on the edges",
                 "source": "edge 4: ideal does not lie between 13 R_1 and R_1",
                 "wq_perm_long": "w_q has 3 images and 3 witnesses for 2 classes",
                 "vertices_empty": "mass formula violated: 0 != (11-1)/12",
                 **FOREIGN,
                 }[damage]
        path = cache_store(str(tmp_path), graph_13_11)
        with open(path, "rb") as fh:
            good = fh.read()
        payload = json.loads(good)
        assert [payload["edges"][4][k] for k in ("source", "target", "length")] == [0, 1, 1]
        assert payload["wp_perm"][4] == 11 and payload["wq_perm"] == [0, 1]
        vertices = payload["vertices"]
        assert [(v["weight"], v["norm"]) for v in vertices] == [(3, "2"), (2, "1")]
        not_objects = {"json_list": [], "json_number": 1, "json_string": "x"}
        if damage in not_objects:
            payload = not_objects[damage]
        elif damage == "norm":
            vertices[1]["norm"] = "4"
        elif damage == "right_order":
            vertices[0]["right_order"] = vertices[1]["right_order"]
        elif damage == "fingerprint":
            vertices[1]["fingerprint"][2] += 1
        elif damage == "weight":
            vertices[0]["weight"], vertices[1]["weight"] = 2, 3
        elif damage == "length":
            payload["edges"][4]["length"] = 2
        elif damage == "eichler":
            payload["edges"][4]["eichler"] = payload["edges"][5]["eichler"]
        elif damage == "eichler_is_order":
            payload["edges"][4]["eichler"] = vertices[0]["right_order"]
        elif damage == "eichler_swapped":
            edges = payload["edges"]
            assert edges[5]["source"] == 0 and edges[4]["eichler"] != edges[5]["eichler"]
            edges[4]["eichler"], edges[5]["eichler"] = edges[5]["eichler"], edges[4]["eichler"]
        elif damage == "orbit":
            payload["edges"][4]["orbit"][-1] = payload["edges"][5]["ideal"]
        elif damage == "p_times_ideal":
            edge = graph_13_11.edges[4]
            one = Quat.one(graph_13_11.vset.alg)
            payload["edges"][4]["ideal"] = _lat_payload(scale(edge.ideal, 13))
            payload["edges"][4]["orbit"] = [_lat_payload(scale(m, 13)) for m in edge.orbit]
            payload["edges"][4]["eichler"] = _lat_payload(scale(edge.ideal, 13).add_elem(one))
        elif damage == "foreign_ideal":
            payload["edges"][4]["ideal"] = payload["edges"][6]["ideal"]
        elif damage == "target":
            payload["edges"][4]["target"] = 0
        elif damage == "wp_perm":
            payload["wp_perm"][4] = 5
        elif damage == "two_sided":
            payload["two_sided"].reverse()
        elif damage == "wq_witness":
            witness = payload["wq_witnesses"][0]
            witness["n"] = [2 * x for x in witness["n"]]
        elif damage == "order":
            # the right order of another class: a maximal order of the same
            # covolume, which no record check depends on
            assert vertices[0]["right_order"] != payload["order"]
            payload["order"] = vertices[0]["right_order"]
        elif damage == "rational":
            # w_q fixes both classes, so both are rational
            assert [v["rational"] for v in vertices] == [True, True]
            vertices[0]["rational"] = False
        elif damage == "float_entry":
            assert vertices[1]["ideal"]["m"][0] == 1
            vertices[1]["ideal"]["m"][0] = 1.0
        elif damage == "float_witness":
            assert payload["edges"][0]["witness"]["n"][1] == -3
            payload["edges"][0]["witness"]["n"][1] = -3.0
        elif damage == "float_length":
            assert payload["edges"][0]["length"] == 3
            payload["edges"][0]["length"] = 3.0
        elif damage == "bool_entry":
            # below the diagonal of vertex 1's ideal
            assert vertices[1]["ideal"]["m"][4] == 0
            vertices[1]["ideal"]["m"][4] = False
        elif damage == "flag_moved":
            # as many true and false as rational flags, one of them elsewhere
            vertices[0]["rational"], payload["edges"][4]["length"] = 1, True
        elif damage == "algebra":
            # b = q in every model make_algebra gives, so no derived record
            # differs, only the stored b
            payload["algebra"]["b"] += 1
        elif damage == "wq_edge_perm":
            wq, edges = payload["wq_edge_perm"], payload["edges"]
            i, j = next((i, j) for j, b in enumerate(edges) for i, a in enumerate(edges[:j])
                        if j != wq[i] and all(a[k] == b[k] for k in ("source", "target", "length")))
            (a, b), perm = (wq[i], wq[j]), list(wq)
            perm[i], perm[b], perm[j], perm[a] = b, i, a, j
            assert perm != wq and all(perm[perm[x]] == x for x in range(len(perm)))
            payload["wq_edge_perm"] = perm
        elif damage == "source":
            payload["edges"][4]["source"] = 1
        elif damage == "wq_perm_long":
            # a third image and witness for two classes: w_q on [0, 1] is
            # still an involution, and each stored witness still gives I_k T_k
            payload["wq_perm"].append(2)
            payload["wq_witnesses"].append(payload["wq_witnesses"][0])
        elif damage == "vertices_empty":
            # no class ideals is a set of classes of mass 0, not a search
            payload["vertices"], payload["wq_perm"], payload["wq_witnesses"] = [], [], []
        elif damage in FOREIGN:
            assert [payload["edges"][i]["source"] for i in (4, 6)] == [0, 1]
            payload = damaged_13_11_payload(good, damage)
        elif damage == "half_scale_ideal":
            # O / 2 in place of O: a lattice in HNF whose norm 1/4 is no int
            assert vertices[1]["ideal"] == payload["order"]
            vertices[1]["ideal"]["d"] *= 2
        else:
            payload["wq_perm"][0] = 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        assert cache_load(str(tmp_path), 13, 11) is None
        err = capsys.readouterr().err
        assert "corrupt" in err and check in err
        # the check over the damaged cache warns again, rebuilds, and gives
        # the cold run's certificate and cache bytes
        cert = run_criterion(13, 11, cache_dir=str(tmp_path), override=True)
        assert "corrupt" in capsys.readouterr().err
        assert certificate_json(cert) == certificate_json(run_criterion(13, 11, override=True))
        with open(path, "rb") as fh:
            assert fh.read() == good

    @pytest.mark.parametrize("damage", list(FOREIGN))
    def test_check_over_a_foreign_cache_gives_the_cold_bytes(self, run_cli, tmp_path, damage):
        # through the CLI: the warning names the check, and the certificate
        # and the rewritten cache are the cold run's bytes
        cold, damaged = tmp_path / "cold", tmp_path / "damaged"
        name = os.path.basename(cache_path("", 13, 11))
        check = ["check", "--p", "13", "--q", "11", "--override-hypotheses", "--cache"]
        first = run_cli(check + [str(cold)], timeout=120)
        damaged.mkdir()
        payload = damaged_13_11_payload((cold / name).read_text(), damage)
        (damaged / name).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        proc = run_cli(check + [str(damaged)], timeout=120)
        assert proc.returncode == first.returncode == 1, proc.stderr
        assert "warning: ignoring corrupt cache file" in proc.stderr
        assert FOREIGN[damage] in proc.stderr
        assert proc.stdout == first.stdout
        assert (damaged / name).read_bytes() == (cold / name).read_bytes()

    def test_load_parses_only_primary_lattices(self, graph_13_11, tmp_path, monkeypatch):
        # the base order, the h class ideals and the E edge ideals; every
        # other lattice is derived, never parsed
        calls = []

        def counted(alg, payload):
            calls.append(payload)
            return _lat_from(alg, payload)

        cache_store(str(tmp_path), graph_13_11)
        monkeypatch.setattr(certify, "_lat_from", counted)
        assert cache_load(str(tmp_path), 13, 11) is not None
        assert len(calls) == 1 + len(graph_13_11.vset) + len(graph_13_11.edges)

    def test_failed_write_keeps_previous_cache(self, graph_13_11, tmp_path, monkeypatch):
        path = cache_store(str(tmp_path), graph_13_11)
        with open(path, "rb") as fh:
            before = fh.read()

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("no space left on device")

        def failing_open(file, mode="r", **kwargs):
            fh = builtins.open(file, mode, **kwargs)
            return HalfWriter(fh) if "w" in mode else fh

        monkeypatch.setattr(certify, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            cache_store(str(tmp_path), graph_13_11)
        monkeypatch.undo()
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(str(tmp_path)) == [os.path.basename(path)]

    def test_miss_on_absent(self, tmp_path):
        assert cache_load(str(tmp_path), 13, 11) is None

    def test_load_or_build_uses_cache(self, graph_13_11, tmp_path):
        cache_store(str(tmp_path), graph_13_11)
        g, from_cache = load_or_build_graph(13, 11, str(tmp_path))
        assert from_cache
        g2, from_cache2 = load_or_build_graph(13, 11, None)
        assert not from_cache2
        assert graph_payload(g) == graph_payload(g2)


@pytest.mark.parametrize("kind", ["classes", "edges"])
@pytest.mark.parametrize("fixture", ["graph_13_11", "graph_13_47"])
def test_renumbered_cache_is_refused(fixture, kind, request):
    """Seeded random renumberings of the classes, or of the edges, each
    consistent in every record, are refused, and the message names the
    first index out of place; the identity loads."""
    graph = request.getfixturevalue(fixture)
    good = json.dumps(graph_payload(graph))
    what, n, permuted = (("class", len(graph.vset), classes_permuted) if kind == "classes"
                         else ("edge", len(graph.edges), edges_permuted))
    assert graph_payload(graph_from_payload(permuted(json.loads(good), list(range(n))))) == \
        graph_payload(graph)
    rng = random.Random(2007)
    perms = sorted({tuple(rng.sample(range(n), n)) for _ in range(8)} - {tuple(range(n))})
    assert perms
    for perm in perms:
        old = sorted(range(n), key=perm.__getitem__)
        first = next(i for i in range(1, n) if old[i] < old[i - 1])
        with pytest.raises(ArithmeticError, match=f"^{what} {first} is out of place"):
            graph_from_payload(permuted(json.loads(good), list(perm)))


@st.composite
def damaged_bases(draw):
    """A 4 x 4 HNF basis, pivots up to 12, with up to three entries moved by
    -13..13 anywhere: the damage a cache file can carry."""
    piv = [draw(st.integers(1, 12)) for _ in range(4)]
    rows = [[0] * c + [piv[c]] + [draw(st.integers(0, piv[j] - 1)) for j in range(c + 1, 4)]
            for c in range(4)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, 3))][draw(st.integers(0, 3))] += draw(st.integers(-13, 13))
    return [tuple(r) for r in rows]


@pytest.mark.parametrize("entry,value", [
    ((0, 0), -2),  # a negative pivot, with no entry above it to catch it
    ((0, 2), 5),   # an entry above the pivot 5 not reduced into [0, 5)
    ((0, 2), -1),
    ((3, 1), 1),   # a nonzero entry below the diagonal
])
def test_lat_from_rejects_a_basis_not_in_hnf(entry, value):
    rows = [[2, 1, 0, 1], [0, 3, 2, 0], [0, 0, 5, 4], [0, 0, 0, 7]]
    alg = make_algebra(11)
    assert _lat_from(alg, {"d": 2, "m": [x for r in rows for x in r]}).rows == tuple(
        map(tuple, rows))
    rows[entry[0]][entry[1]] = value
    with pytest.raises(ValueError, match="not in Hermite normal form"):
        _lat_from(alg, {"d": 2, "m": [x for r in rows for x in r]})


@settings(max_examples=300, deadline=None)
@given(damaged_bases())
def test_lat_from_accepts_exactly_the_hnf(rows):
    """The shape test of _lat_from (triangular, positive pivots, entries
    above a pivot reduced) accepts a basis iff hnf_rows leaves it as it is."""
    payload = {"d": 1, "m": [x for r in rows for x in r]}
    try:
        _lat_from(make_algebra(11), payload)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (hnf_rows(rows) == rows)
