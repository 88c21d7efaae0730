import builtins
import json
import os
from fractions import Fraction

import pytest

from lattice_oracle import scale
from shimura_pq import certify
from shimura_pq.certify import (
    CACHE_VERSION,
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
from shimura_pq.gross import gross_tower_modular, tower_class_number, unit_count
from shimura_pq.quat import Quat
from shimura_pq.ssgraph import build_graph


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
        assert all(not any(v) for v in gross_tower_modular(graph, 3, 2))
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
        from shimura_pq.gross import eisenstein_modular, eisenstein_shimura, s_star, vec_scale

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

    @pytest.mark.parametrize("damage", ["off_diagonal", "below_diagonal", "short_rows", "zero_den"])
    def test_non_hnf_lattice_treated_as_corrupt(self, graph_13_11, tmp_path, capsys, damage):
        path = cache_store(str(tmp_path), graph_13_11)
        with open(path, "rb") as fh:
            good = fh.read()
        payload = json.loads(good)
        lat = payload["vertices"][0]["right_order"]
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
        assert "corrupt" in capsys.readouterr().err
        graph, from_cache = load_or_build_graph(13, 11, str(tmp_path))
        assert not from_cache
        assert graph_payload(graph) == graph_payload(graph_13_11)
        with open(path, "rb") as fh:
            assert fh.read() == good

    @pytest.mark.parametrize("damage", ["length", "target", "wp_perm", "wq_perm",
                                        "norm", "right_order", "fingerprint", "weight",
                                        "eichler", "orbit", "p_times_ideal",
                                        "foreign_ideal"])
    def test_damaged_graph_treated_as_corrupt(self, graph_13_11, tmp_path, capsys, damage):
        # edge 4 runs from vertex 0 to vertex 1 with length 1; w_p sends it to
        # edge 11, and edge 5 is the other edge from 0 to 1; edge 6 starts at
        # vertex 1.  Vertex 0 has weight 3 and norm 2, vertex 1 weight 2 and
        # norm 1: swapping the weights keeps the mass.  13 P, with its orbit
        # and Eichler order Z + 13 P, is consistent in every other record,
        # so only the check that P lies between 13 R_0 and R_0 rejects it.
        check = {"length": "edge mass formula violated",
                 "target": "w_p does not swap source and target",
                 "wp_perm": "w_p is not an involution on edges",
                 "wq_perm": "w_q is not an involution on vertices",
                 "norm": "vertex 1: norm 4 is not the reduced norm of its ideal",
                 "right_order": "vertex 0: right_order is not the right order of its ideal",
                 "fingerprint": "vertex 1: fingerprint does not match its ideal",
                 "weight": "vertex 0: weight 2 is not half the unit count",
                 "eichler": "edge 4: eichler is not Z + its ideal",
                 "orbit": "edge 4: orbit is not the set of its ideal times the units",
                 "p_times_ideal": "edge 4: ideal does not lie between 13 R_0 and R_0",
                 "foreign_ideal": "edge 4: ideal does not lie between 13 R_0 and R_0"}[damage]
        path = cache_store(str(tmp_path), graph_13_11)
        with open(path, "rb") as fh:
            good = fh.read()
        payload = json.loads(good)
        assert [payload["edges"][4][k] for k in ("source", "target", "length")] == [0, 1, 1]
        assert payload["wp_perm"][4] == 11 and payload["wq_perm"] == [0, 1]
        vertices = payload["vertices"]
        assert [(v["weight"], v["norm"]) for v in vertices] == [(3, "2"), (2, "1")]
        if damage == "norm":
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
        else:
            payload["wq_perm"][0] = 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        assert cache_load(str(tmp_path), 13, 11) is None
        err = capsys.readouterr().err
        assert "corrupt" in err and check in err
        graph, from_cache = load_or_build_graph(13, 11, str(tmp_path))
        assert not from_cache
        assert graph_payload(graph) == graph_payload(graph_13_11)
        with open(path, "rb") as fh:
            assert fh.read() == good

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
