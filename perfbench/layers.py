"""Per-layer timing of shimura_pq, applied from outside the package.

``Tracer.install`` replaces every public function of each layer module with
a timing wrapper, under every name that holds it: ``ssgraph``, ``gross``,
``certify`` and ``cli`` bind ``from .quat import ...`` at import time, so
patching the defining module alone would miss their calls.  A few methods
(``Lattice.min_vectors``, ``VertexSet.locate``, ...) are wrapped on their
class.  For each wrapped name the tracer keeps the call count, the inclusive
time ``s`` (outermost call only, so recursion is not counted twice) and the
self time ``self_s`` (minus the time spent in other wrapped calls).  Times
are CPU times of this process, so a child stopped for a speed probe (see
refclock.py) is not charged for the stop.
"""

import functools
import importlib
import inspect
import os
import time

LAYERS = ("linalg", "ntheory", "quat", "ssgraph", "gross", "compgroup", "certify")
METHODS = {
    "quat": {"Lattice": ("norm_vectors", "find_norm_vector", "min_vectors")},
    "ssgraph": {"VertexSet": ("locate",),
                "ShimuraGraph": ("brandt_vertices", "brandt_edges")},
}


def _count_hits(stat, result):
    stat["hits"] = stat.get("hits", 0) + (result is not None)


def _count_bytes(stat, path):
    stat["bytes"] = stat.get("bytes", 0) + os.path.getsize(path)


# Extra per-call figures: useful equivalence tests, and cache bytes written.
ON_RESULT = {"quat.equiv_witness": _count_hits, "certify.cache_store": _count_bytes}

# name -> (unit, better); each is read from the merged stats by layer_metrics.
PER_LAYER = {}
for _name in (
    "quat.min_vectors.calls", "quat.min_vectors.self_s",
    "quat.find_norm_vector.calls", "quat.find_norm_vector.self_s",
    "quat.equiv_witness.calls", "quat.equiv_witness.hit_ratio",
    "quat.norm_vectors.calls", "quat.norm_vectors.self_s",
    "quat.lattice_intersection.self_s", "quat.right_order.self_s",
    "quat.norm_ideals.self_s",
    "ssgraph.vertex_classes.s", "ssgraph.build_graph.s",
    "ssgraph.locate.calls", "ssgraph.locate.s",
    "ssgraph.brandt_vertices.s", "ssgraph.brandt_edges.s", "ssgraph.ss_oracle.s",
    "gross.optimal_embeddings.calls", "gross.optimal_embeddings.s",
    "gross.gross_tower_modular.s", "gross.gross_tower_shimura.s", "gross.class_number.s",
    "linalg.hnf_rows.calls", "linalg.hnf_rows.self_s",
    "linalg.mat_inv_frac.calls", "linalg.mat_inv_frac.self_s",
    "linalg.solve_frac.self_s", "linalg.smith_normal_form.self_s",
    "compgroup.component_group.s", "compgroup.lemma_general_check.s",
    "certify.cache_store.s", "certify.cache_store.bytes", "certify.cache_load.s",
    "certify.graph_statistics.s", "certify.decompose_eisenstein.calls",
    "certify.decompose_eisenstein.s", "certify.build_cycle.s",
    *(f"{layer}.self_s" for layer in LAYERS),
):
    _kind = _name.rsplit(".", 1)[1]
    PER_LAYER[_name] = {"calls": ("count", "lower"), "hit_ratio": ("ratio", "higher"),
                        "bytes": ("bytes", "lower")}.get(_kind, ("s", "lower"))


class Tracer:
    """Install, collect and remove the timing wrappers."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.stats = {}
        self._stack = []
        self._active = {}
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack, active, clock = self._stack, self._active, self.clock
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = active.get(name, 0)
            active[name] = depth + 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[name] = depth
                stat["calls"] += 1
                stat["self_s"] += dt - stack.pop()
                if depth == 0:
                    stat["s"] += dt
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(stat, result)
            return result

        return wrapper

    def install(self):
        mods = {name: importlib.import_module(f"shimura_pq.{name}") for name in LAYERS + ("cli",)}
        wrapped = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._undo.append((mod, attr, obj))
        for layer, classes in METHODS.items():
            for cls_name, names in classes.items():
                cls = getattr(mods[layer], cls_name)
                for attr in names:
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(f"{layer}.{attr}", orig))
                    self._undo.append((cls, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)


def merge(total, stats):
    """Add one stats dict (as a Tracer or a traced child wrote it) into total."""
    for name, stat in stats.items():
        acc = total.setdefault(name, {})
        for key, value in stat.items():
            acc[key] = acc.get(key, 0) + value


def layer_metrics(stats, rounds, scale=1.0):
    """The PER_LAYER figures from merged stats, per round of the workload,
    with times multiplied by scale (raw to reference seconds)."""
    out = {}
    for metric, (unit, _) in PER_LAYER.items():
        prefix, kind = metric.rsplit(".", 1)
        if prefix in LAYERS:  # layer total of self time
            value = sum(s["self_s"] for n, s in stats.items() if n.startswith(prefix + "."))
        elif kind == "hit_ratio":
            stat = stats.get(prefix, {})
            calls = stat.get("calls", 0)
            value = stat.get("hits", 0) / calls if calls else 0.0
            out[metric] = {"value": value, "unit": unit}
            continue
        else:
            value = stats.get(prefix, {}).get(kind, 0)
        if unit == "s":
            value *= scale
        out[metric] = {"value": value / rounds, "unit": unit}
    return out
