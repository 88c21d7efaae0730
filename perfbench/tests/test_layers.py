"""The traced run wraps every binding and leaves every output unchanged."""

import json
import os
import random
import shutil
import subprocess
import sys

from conftest import BENCH, PAIR, ROOT, cold_check
from layers import PER_LAYER, Tracer, layer_metrics

import run


def test_install_wraps_every_binding_and_uninstall_restores():
    from shimura_pq import certify, cli, quat, ssgraph

    originals = (quat.equiv_witness, ssgraph.build_graph, quat.Lattice.__dict__["min_vectors"])
    tracer = Tracer()
    tracer.install()
    try:
        assert quat.equiv_witness is ssgraph.equiv_witness
        assert quat.equiv_witness is not originals[0]
        assert certify.build_graph is ssgraph.build_graph is not originals[1]
        assert cli.run_criterion is certify.run_criterion
        assert quat.Lattice.__dict__["min_vectors"] is not originals[2]
    finally:
        tracer.uninstall()
    assert (quat.equiv_witness, ssgraph.build_graph, quat.Lattice.__dict__["min_vectors"]) == originals
    assert ssgraph.equiv_witness is originals[0] and certify.build_graph is originals[1]


def test_traced_check_gives_the_same_certificate_and_cache(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    stats_file = tmp_path / "stats.json"
    plain = cold_check(tmp_path / "plain", PAIR)
    traced = cold_check(tmp_path / "traced", PAIR, traced_stats=stats_file)
    assert traced == plain
    stats = json.loads(stats_file.read_text())
    assert stats["ssgraph.build_graph"]["calls"] == 1
    assert stats["certify.cache_store"]["bytes"] == len(plain[2])
    metrics = layer_metrics(stats, 1)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["ssgraph.locate.calls"]["value"] > 0
    assert 0 < metrics["quat.equiv_witness.hit_ratio"]["value"] <= 1


def test_traced_embedding_counts_are_the_same():
    from shimura_pq import gross, ssgraph

    graph = ssgraph.build_graph(*PAIR)
    orders = [rec.right_order for rec in graph.vset.classes] + [e.eichler for e in graph.edges]
    discs = [-3, -4, -7, -8, -11, -15, -19, -20]

    def counts():
        return [[gross.optimal_embeddings(order, d) for order in orders] for d in discs]

    plain = counts()
    tracer = Tracer()
    tracer.install()
    try:
        traced = counts()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["gross.optimal_embeddings"]["calls"] == len(discs) * len(orders)
    # One enumeration per count, plus those of the unit groups it computes.
    assert tracer.stats["quat.norm_vectors"]["calls"] >= len(discs) * len(orders)


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == {**PER_LAYER, run.TRACE_WALL: ("s", "lower")}


def test_scan_discriminants_are_fixed_and_ordered_by_the_seed():
    first = run.scan_discriminants(random.Random(7), 13, 47)
    assert first == run.scan_discriminants(random.Random(7), 13, 47)
    assert sorted(first) == sorted(run.scan_discriminants(random.Random(8), 13, 47))
    assert len(first) == 23 and -3 in first and max(first) == -3 and min(first) >= -100
    assert all(d % 4 in (0, 1) and d % 13 and d % 47 for d in first)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
