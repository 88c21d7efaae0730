"""End-to-end criterion runs with machine-readable certificates.

A run checks the congruence hypotheses, builds (or loads) the dual graph,
writes the Eisenstein vector as an exact integer combination of Gross
vectors in a single conductor tower, forms the closed cycle
C0 = (p+1) C - 4 lambda0 a_E, and re-verifies every instance-decidable
condition.  The verdict is sound only together with the recorded caveat:
the underlying theorem needs p large with respect to q with a non-effective
bound, which no certificate can check.
"""

import json
import os
import sys
from fractions import Fraction
from functools import reduce
from math import gcd

from .compgroup import (
    blow_up,
    component_group,
    degree_report,
    lemma_general_check,
    quotient_by_wq,
)
from .gross import (
    eisenstein_modular,
    eisenstein_shimura,
    gross_tower_modular,
    gross_tower_shimura,
    is_zero,
    project_degree_zero,
    s_star,
    support,
    t_star,
    tower_class_number,
    vec_scale,
    vec_sub,
)
from .linalg import hnf_rows, solve_frac
from .ntheory import is_prime, kronecker, primes_from
from .quat import Lattice, Quat, make_algebra
from .ssgraph import (Edge, ShimuraGraph, VertexClass, VertexSet, build_graph, ss_oracle,
                      validate_graph, validate_records)

CACHE_VERSION = 1
CACHE_ENV = "CRITERION_CACHE_DIR"
SS_ORACLE_MAX_Q = 150
NON_EFFECTIVITY_NOTE = (
    "a satisfied verdict certifies every instance-decidable hypothesis; the "
    "underlying theorem additionally requires p larger than a non-effective "
    "bound depending on q, which cannot be checked here"
)


def _validate_pair(p, q):
    if p == q:
        raise ValueError("p and q must be distinct primes")
    for v in (p, q):
        if not is_prime(v) or v < 5:
            raise ValueError(f"{v} is not a prime >= 5")


def check_ogg(p, q):
    """Congruence case classifier: 'ramified', 'nonramified', or 'none'."""
    _validate_pair(p, q)
    if kronecker(p, q) != -1:
        return "none"
    if p % 4 == 3:
        return "ramified"
    if q % 4 == 3:
        return "nonramified"
    return "none"


def genus(q):
    """Genus of X_0(q) for prime q >= 5."""
    if not is_prime(q) or q < 5:
        raise ValueError(f"q must be a prime >= 5, got {q}")
    g = (q + 1) // 12
    if q % 12 == 1:
        g -= 1
    return g


# -- Eisenstein decomposition ---------------------------------------------------

def decompose_eisenstein(graph, ell, n_max):
    """lambda0 A_E = sum over n <= N of lambda_n Gamma_{-4 ell^(2n)}, exactly.

    Finds the smallest depth N <= n_max admitting a solution, scales the
    canonical rational solution to primitive integers and then by 12 so all
    coefficients are multiples of 12.  Returns None if no depth works.
    """
    if ell in (graph.p, graph.q) or not is_prime(ell):
        raise ValueError("auxiliary prime must be a prime distinct from p and q")
    if kronecker(-4, graph.q) == 1:
        # q splits in Q(i), so no order of conductor prime to q embeds in the
        # algebra ramified at q: every Gross vector of discriminant
        # -4 ell^(2n) is zero and A_E is not in their span.
        return None
    vset = graph.vset
    towers = gross_tower_modular(graph, ell, n_max)
    ae = eisenstein_modular(vset)
    nv = len(vset)
    for depth in range(1, n_max + 1):
        mat = [[towers[n][k] for n in range(depth)] for k in range(nv)]
        sol = solve_frac(mat, list(ae))
        if sol is None:
            continue
        lam0 = reduce(lambda x, y: x * y // gcd(x, y), (c.denominator for c in sol), 1)
        lams = [int(c * lam0) for c in sol]
        g = reduce(gcd, (abs(x) for x in lams), lam0)
        lam0 = 12 * (lam0 // g)
        lams = [12 * (x // g) for x in lams]
        lhs = vec_scale(ae, lam0)
        for n in range(depth):
            lhs = vec_sub(lhs, vec_scale(towers[n], lams[n]))
        if not is_zero(lhs):
            raise ArithmeticError("decomposition re-check failed")
        deg_lhs = lam0 * Fraction(graph.q - 1, 12)
        deg_rhs = sum(
            Fraction(lams[n] * tower_class_number(ell, n + 1)) for n in range(depth)
        )
        return {
            "l": ell,
            "depth": depth,
            "lambda0": lam0,
            "lambdas": lams,
            "residual_zero": True,
            "degree_identity": deg_lhs == deg_rhs,
        }
    return None


def build_cycle(graph, ell, lam0, lams):
    """C = sum lambda_n gamma_n, C0 = (p+1) C - 4 lambda0 a_E, plus checks.

    Checks (in reporting order): intersection (no Gross vector meets an
    exceptional edge; the per-instance surrogate for the non-effective
    disjointness bound); C0 is closed (both boundary maps vanish); C0 is the
    degree-zero projection of (p+1)C; every length-2 edge carries coefficient
    -2 lambda0; 2 lambda0 is coprime to p.  Failures are reported, never
    raised.
    """
    p = graph.p
    depth = len(lams)
    gammas = gross_tower_shimura(graph, ell, depth)
    a_e = eisenstein_shimura(graph)
    c_vec = tuple(Fraction(0) for _ in graph.edges)
    for n in range(depth):
        c_vec = tuple(x + lams[n] * y for x, y in zip(c_vec, gammas[n]))
    c0 = vec_sub(vec_scale(c_vec, p + 1), vec_scale(a_e, 4 * lam0))
    exceptional = [i for i, e in enumerate(graph.edges) if e.length > 1]
    length2 = [i for i, e in enumerate(graph.edges) if e.length == 2]
    overlap = {}
    for n in range(depth):
        hit = sorted(set(support(gammas[n])) & set(exceptional))
        if hit:
            overlap[str(-4 * ell ** (2 * (n + 1)))] = hit
    checks = {
        "intersection": not overlap,
        "closed": is_zero(s_star(graph, c0)) and is_zero(t_star(graph, c0)),
        "in_gross_span": c0 == project_degree_zero(graph, vec_scale(c_vec, p + 1)),
        "exceptional_multiplicity": bool(length2)
        and all(c0[i] == -2 * lam0 for i in length2),
        "multiplicity_coprime_to_p": gcd(2 * lam0, p) == 1,
    }
    return {
        "c0": c0,
        "cycle_vector": c_vec,
        "exceptional_edges": exceptional,
        "length2_edges": length2,
        "support_overlap": overlap,
        "checks": checks,
        "exceptional_multiplicity": -2 * lam0,
    }


# -- graph statistics -----------------------------------------------------------

def graph_statistics(graph):
    vset = graph.vset
    lengths = graph.lengths
    census = {str(ln): lengths.count(ln) for ln in sorted(set(lengths))}
    mg = quotient_by_wq(graph)
    blown = blow_up(mg)
    stats = {
        "vertices": {
            "count": len(vset),
            "weights": vset.weights,
            "mass": str(vset.mass()),
            "rational_count": vset.rational_count(),
        },
        "edges": {
            "count": len(graph.edges),
            "mass": str(graph.edge_mass()),
            "length_census": census,
        },
        "quotient": {
            "labels": mg.labels(),
            "length_census": {
                str(ln): sum(1 for e in mg.edges if e[2] == ln)
                for ln in sorted({e[2] for e in mg.edges})
            },
        },
        "regular_model": {
            "labels": blown.labels(),
            "degree_report": degree_report(blown, graph.p, graph.q),
            "component_group": component_group(blown),
            "exceptional_nonzero": lemma_general_check(blown, graph.p),
        },
    }
    if graph.q <= SS_ORACLE_MAX_Q:
        count, rational = ss_oracle(graph.q)
        stats["ss_oracle"] = {
            "count": count,
            "rational": rational,
            "matches_vertices": count == len(vset),
            "matches_rational": rational == vset.rational_count(),
        }
    else:
        stats["ss_oracle"] = "skipped (q above oracle threshold)"
    return stats, mg, blown


# -- cache ----------------------------------------------------------------------

def _lat_payload(lat):
    return {"d": lat.den, "m": [x for row in lat.rows for x in row]}


def _lat_from(alg, payload):
    rows = [tuple(payload["m"][4 * r : 4 * r + 4]) for r in range(4)]
    # duality reads the basis as a triangular HNF, so a damaged one must not load
    if hnf_rows(rows, 4) != rows or payload["d"] < 1:
        raise ValueError("lattice basis is not in Hermite normal form")
    return Lattice(alg, rows, payload["d"])


def _quat_payload(x):
    return {"d": x.den, "n": list(x.num)}


def _quat_from(alg, payload):
    return Quat(alg, tuple(payload["n"]), payload["d"])


def graph_payload(graph):
    vset = graph.vset
    return {
        "version": CACHE_VERSION,
        "q": graph.q,
        "p": graph.p,
        "algebra": {"a": vset.alg.a, "b": vset.alg.b},
        "order": _lat_payload(vset.order),
        "vertices": [
            {
                "ideal": _lat_payload(c.ideal),
                "right_order": _lat_payload(c.right_order),
                "weight": c.weight,
                "norm": str(c.norm),
                "fingerprint": list(c.fingerprint),
                "rational": c.rational,
            }
            for c in vset.classes
        ],
        "wq_perm": vset.wq_perm,
        "wq_witnesses": [_quat_payload(x) for x in vset.wq_witnesses],
        "two_sided": [_lat_payload(t) for t in vset.two_sided],
        "edges": [
            {
                "source": e.source,
                "ideal": _lat_payload(e.ideal),
                "orbit": [_lat_payload(m) for m in e.orbit],
                "eichler": _lat_payload(e.eichler),
                "length": e.length,
                "target": e.target,
                "witness": _quat_payload(e.witness),
            }
            for e in graph.edges
        ],
        "wp_perm": graph.wp_perm,
        "wq_edge_perm": graph.wq_edge_perm,
    }


def graph_from_payload(payload):
    alg = make_algebra(payload["q"], a=payload["algebra"]["a"])
    order = _lat_from(alg, payload["order"])
    classes = [
        VertexClass(
            ideal=_lat_from(alg, v["ideal"]),
            right_order=_lat_from(alg, v["right_order"]),
            weight=v["weight"],
            norm=Fraction(v["norm"]),
            fingerprint=tuple(v["fingerprint"]),
            rational=v["rational"],
        )
        for v in payload["vertices"]
    ]
    vset = VertexSet(
        payload["q"],
        alg,
        order,
        classes,
        list(payload["wq_perm"]),
        [_quat_from(alg, x) for x in payload["wq_witnesses"]],
        [_lat_from(alg, t) for t in payload["two_sided"]],
    )
    edges = [
        Edge(
            source=e["source"],
            ideal=_lat_from(alg, e["ideal"]),
            orbit=tuple(_lat_from(alg, m) for m in e["orbit"]),
            eichler=_lat_from(alg, e["eichler"]),
            length=e["length"],
            target=e["target"],
            witness=_quat_from(alg, e["witness"]),
        )
        for e in payload["edges"]
    ]
    graph = ShimuraGraph(payload["p"], payload["q"], vset, edges)
    graph.wp_perm = list(payload["wp_perm"])
    graph.wq_edge_perm = list(payload["wq_edge_perm"])
    validate_graph(graph)
    validate_records(graph)
    return graph


def cache_path(cache_dir, p, q):
    return os.path.join(cache_dir, f"graph_q{q}_p{p}_v{CACHE_VERSION}.json")


def cache_store(cache_dir, graph):
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, graph.p, graph.q)
    blob = json.dumps(graph_payload(graph), sort_keys=True, separators=(",", ":"))
    # a reader sees the old file or the new one, never a partial write
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def cache_load(cache_dir, p, q):
    path = cache_path(cache_dir, p, q)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("version") != CACHE_VERSION or payload.get("q") != q or payload.get("p") != p:
            return None
        return graph_from_payload(payload)
    except (ValueError, KeyError, IndexError, TypeError, ArithmeticError, OSError) as exc:
        print(f"warning: ignoring corrupt cache file {path}: {exc}", file=sys.stderr)
        return None


def load_or_build_graph(p, q, cache_dir=None):
    if cache_dir:
        cached = cache_load(cache_dir, p, q)
        if cached is not None:
            return cached, True
    graph = build_graph(p, q)
    if cache_dir:
        cache_store(cache_dir, graph)
    return graph, False


# -- the full run ----------------------------------------------------------------

CHECK_ORDER = [
    "intersection",
    "closed",
    "in_gross_span",
    "exceptional_multiplicity",
    "multiplicity_coprime_to_p",
]


def run_criterion(p, q, l=None, n_max=None, cache_dir=None, override=False):
    """Execute the whole pipeline for (p, q) and return the certificate dict."""
    _validate_pair(p, q)
    ogg = check_ogg(p, q)
    hard_unmet = []
    if q <= 245:
        hard_unmet.append("q_gt_245")
    if q % 4 != 3:
        hard_unmet.append("q_3_mod_4")
    if p % 4 != 1:
        hard_unmet.append("p_1_mod_4")
    if kronecker(q, p) != -1:
        hard_unmet.append("legendre_q_p_is_minus_1")
    soft_unmet = [] if p > q else ["p_not_much_greater_than_q"]

    graph, _ = load_or_build_graph(p, q, cache_dir)
    stats, _, _ = graph_statistics(graph)

    cert = {
        "format_version": CACHE_VERSION,
        "p": p,
        "q": q,
        "ogg_case": ogg,
        "genus": genus(q),
        "hypotheses": {
            "ogg_case": ogg,
            "q_gt_245": q > 245,
            "q_3_mod_4": q % 4 == 3,
            "p_1_mod_4": p % 4 == 1,
            "legendre_q_p": kronecker(q, p),
            "p_gt_q_heuristic": p > q,
        },
        "hypotheses_unmet": hard_unmet + soft_unmet,
        "override_used": override,
        "note": NON_EFFECTIVITY_NOTE,
        "graph": stats,
    }

    if (hard_unmet or soft_unmet) and not override:
        cert["verdict"] = "hypotheses_not_met"
        return cert

    n_max = n_max if n_max is not None else genus(q) + 2
    tried = []
    decomposition = None
    if l is not None:
        candidates = [l]
    else:
        candidates = []
        gen = primes_from(3)
        while len(candidates) < 12:
            c = next(gen)
            if c not in (p, q):
                candidates.append(c)
    for ell in candidates:
        dec = decompose_eisenstein(graph, ell, n_max)
        if dec is None:
            tried.append({"l": ell, "decomposed": False})
            continue
        if dec["lambda0"] % p == 0:
            tried.append({"l": ell, "decomposed": True, "p_divides_lambda0": True})
            continue
        tried.append({"l": ell, "decomposed": True, "p_divides_lambda0": False})
        decomposition = dec
        break
    cert["decomposition_attempts"] = tried
    if decomposition is None:
        cert["verdict"] = "check_failed"
        cert["failed_check"] = "decomposition"
        return cert
    cert["decomposition"] = {k: v for k, v in decomposition.items()}

    cycle = build_cycle(graph, decomposition["l"], decomposition["lambda0"],
                        decomposition["lambdas"])
    checks = dict(cycle["checks"])
    checks["residual_zero"] = decomposition["residual_zero"]
    checks["degree_identity"] = decomposition["degree_identity"]
    cert["cycle"] = {
        "c0": [str(x) for x in cycle["c0"]],
        "exceptional_edges": cycle["exceptional_edges"],
        "length2_edges": cycle["length2_edges"],
        "support_overlap": cycle["support_overlap"],
        "exceptional_multiplicity": cycle["exceptional_multiplicity"],
        "gcd_2lambda0_p": gcd(2 * decomposition["lambda0"], p),
    }
    cert["checks"] = checks

    failed = [name for name in ("residual_zero", "degree_identity", *CHECK_ORDER)
              if not checks[name]]
    if failed:
        cert["verdict"] = "check_failed"
        cert["failed_check"] = failed[0]
    elif hard_unmet:
        cert["verdict"] = "hypotheses_not_met"
    else:
        cert["verdict"] = "criterion_satisfied"
    return cert


def exit_code(cert):
    return {"criterion_satisfied": 0, "check_failed": 1, "hypotheses_not_met": 2}[
        cert["verdict"]
    ]


def certificate_json(cert):
    """Canonical JSON: sorted keys, no volatile fields, rationals as strings."""
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"
