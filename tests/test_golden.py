"""Byte-identity gate: pinned SHA-256 of certificates, caches and graph output.

The hashes were recorded with the Fraction enumerator over HNF bases, before
the LLL-reduced integer enumerator replaced it.  A change to how vectors are
enumerated or picked (the equivalence witnesses are stored in the cache)
must leave every byte as it was.  A deliberate change of output updates
these hashes and says so in CHANGES.md.
"""

import hashlib

import pytest

from shimura_pq.certify import CACHE_ENV, cache_path
from shimura_pq.cli import main

CHECK_HASHES = {
    (5, 23): ("54c0b6bf758c7bc160014648034ac7a26c3570e8d7c28336be912d6494122c30",
              "cd981c467725a30b55d4f6851a002d8f94e8dd5b9e2591a6ada0cc81cc492450"),
    (13, 47): ("049af14497356e1fa474ce138cc976e59b0c2767994da16b87c8a71d3a769f60",
               "8b4e45ad6f4d7186144b9be447323c4fc38cba6f09caf5fbed4a5c88b2522e26"),
    # q = 37 = 1 mod 4: the maximal order is found by saturation, not the
    # classical (1, q) model; recorded before norm_ideals read its structure
    # constants through Lattice.coords_of
    (5, 37): ("ea6e86ef35a3c0f85224efcd6fd5d916f25b82abbcb63891ab272af1008fd67c",
              "40040f8de6d50fafd0916df063dc017ece8c555bc1f1fa342bff88adb0516eb8"),
    # p = 7 = 3 mod 4, so (-4|7) = -1: Z[i] embeds in no Eichler order of
    # level 7 and every edge gamma_{-4} is zero; recorded before the edge
    # vectors were filtered from one embedding search per vertex
    (7, 23): ("90f796cd55dce6b6963f72737df2f8bc92eb433d062543ea6a3c0968a231d287",
              "3b86f166011915592d023204f931baddf1129343940ed63eeca5bb3eeab3d33e"),
    # 14 classes with many fingerprint collisions: the pair where the class
    # search does the most work; recorded before the classes were found
    # from the connectors instead of by equivalence tests
    (5, 163): ("437602583b30bdc674aa971cc25c02bc8924f0b0f0b1d1f11583a4140d6e48a2",
               "ff2498c22725f47ab127ae3e1d67612a35ca6a1e116a1a50e78a7364a400c57b"),
    # 22 classes and 626 edges, the largest pair of the byte contract;
    # recorded before T_ell on edges went through the edge conjugation
    (29, 251): ("f5b909544ead4a48f0cc75021fbcbfec13d0bb931d727f8b80f2b15753491bee",
                "6df42b0f4857c4c5987ab6e02bd4d00c0065813c754b94fa844f69cac5ba257c"),
}
WARM_13_47_L5_HASH = "17179ba22c20d47f5e00d81dbe849140d6b59e26c0e0a214262b32bc215e309d"
EXIT2_29_47_HASHES = ("36d8371b1d6271a2cce3808ab3aff4bddf5837986c3ab776ed3c190b3bf6ee91",
                      "1bd46d4e8b8c818dfd766c12f8e0ed0298d0a6f362e95312d252bf2e6dd5e9a5")
WARM_13_83_L5_HASHES = ("ad4ef7d80e97927091aceae288c9d0fa4c73a34753d2f377ec8aad023b8ad6cc",
                        "ffc1af118142782693fdb2ca52099af374b6612a7236a59d44898cfac6960707")
GRAPH_13_11_HASH = "daaeae2e98a19dc56c9d5a55dc6beb9de360145423e056d5f95b8cf0dfa4cb00"
# 5,376 edges, recorded before edges were read as points of P^1(F_p)
COLD_257_251_HASHES = ("0edb0d57a5f85ca52af15120eb6bfb65c6b5339f283a100940a6e6f687b315d3",
                       "afe9f4789e9fbed326e776cf4ad4300d6ae4d4c63481670e3512e143ab634929")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("p,q", sorted(CHECK_HASHES))
def test_check_certificate_and_cache_bytes(p, q, tmp_path, capsysbinary, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    code = main(["check", "--p", str(p), "--q", str(q), "--override-hypotheses",
                 "--cache", str(tmp_path)])
    assert code == 1
    cert_hash, cache_hash = CHECK_HASHES[(p, q)]
    assert _sha(capsysbinary.readouterr().out) == cert_hash
    with open(cache_path(str(tmp_path), p, q), "rb") as fh:
        assert _sha(fh.read()) == cache_hash


def test_cold_257_251_certificate_and_cache_bytes(cold_257_251):
    assert cold_257_251.code == 1
    assert (_sha(cold_257_251.cert), _sha(cold_257_251.cache)) == COLD_257_251_HASHES


def test_graph_output_bytes(capsysbinary, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["graph", "--p", "13", "--q", "11"]) == 0
    assert _sha(capsysbinary.readouterr().out) == GRAPH_13_11_HASH


def test_warm_edge_tower_certificate_bytes(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    args = ["check", "--p", "13", "--q", "47", "--l", "5", "--override-hypotheses",
            "--cache", str(tmp_path)]
    assert main(args) == 1
    cold = capsysbinary.readouterr().out
    with open(cache_path(str(tmp_path), 13, 47), "rb") as fh:
        cache = fh.read()
    assert main(args) == 1
    assert _sha(capsysbinary.readouterr().out) == WARM_13_47_L5_HASH
    assert _sha(cold) == WARM_13_47_L5_HASH
    with open(cache_path(str(tmp_path), 13, 47), "rb") as fh:
        assert fh.read() == cache


def test_exit2_certificate_and_cache_bytes(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert main(["check", "--p", "29", "--q", "47", "--override-hypotheses",
                 "--cache", str(tmp_path)]) == 2
    cert_hash, cache_hash = EXIT2_29_47_HASHES
    assert _sha(capsysbinary.readouterr().out) == cert_hash
    with open(cache_path(str(tmp_path), 29, 47), "rb") as fh:
        assert _sha(fh.read()) == cache_hash


def test_warm_recheck_pair_bytes(tmp_path, capsysbinary, monkeypatch):
    """(13,83) with ell = 5, cold then warm: the pair the benchmark re-checks."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    args = ["check", "--p", "13", "--q", "83", "--l", "5", "--override-hypotheses",
            "--cache", str(tmp_path)]
    cert_hash, cache_hash = WARM_13_83_L5_HASHES
    assert main(args) == 1
    assert _sha(capsysbinary.readouterr().out) == cert_hash
    with open(cache_path(str(tmp_path), 13, 83), "rb") as fh:
        assert _sha(fh.read()) == cache_hash
    assert main(args) == 1
    assert _sha(capsysbinary.readouterr().out) == cert_hash
    with open(cache_path(str(tmp_path), 13, 83), "rb") as fh:
        assert _sha(fh.read()) == cache_hash
