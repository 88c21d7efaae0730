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
from itertools import islice
from math import gcd, lcm

from .compgroup import (
    blow_up,
    component_group,
    degree_report,
    lemma_general_check,
    quotient_by_wq,
)
from .gross import (gross_tower_modular, gross_tower_shimura, s_star, support, t_star,
                    tower_class_number)
from .ntheory import check_ogg, check_primes, is_prime, kronecker, primes_from
from .quat import Lattice, Quat, make_algebra, maximal_order
from .ssgraph import ShimuraGraph, VertexSet, _edge, build_graph, ss_oracle

CACHE_VERSION = 1
CACHE_ENV = "CRITERION_CACHE_DIR"
# ss_oracle is a closed form, cheap at any q: the threshold is kept only so
# that certificates with q > 150 keep their bytes ("skipped (q above oracle
# threshold)").  Lifting it changes those certificates.
SS_ORACLE_MAX_Q = 150
NON_EFFECTIVITY_NOTE = (
    "a satisfied verdict certifies every instance-decidable hypothesis; the "
    "underlying theorem additionally requires p larger than a non-effective "
    "bound depending on q, which cannot be checked here"
)


def genus(q):
    """Genus of X_0(q) for prime q >= 5."""
    check_primes(q=q)
    g = (q + 1) // 12
    if q % 12 == 1:
        g -= 1
    return g


# -- Eisenstein decomposition ---------------------------------------------------

def _eliminate(row, pivot, col):
    """row with its entry at col cleared by the pivot row, fraction-free,
    then divided by its content."""
    a, b = pivot[col], row[col]
    if not b:
        return row
    g = gcd(a, b)
    a, b = a // g, b // g
    row = [a * x - b * y for x, y in zip(row, pivot)]
    c = reduce(gcd, row)
    return [x // c for x in row] if c > 1 else row


def decompose_eisenstein(graph, ell, n_max):
    """lambda0 A_E = sum over n <= N of lambda_n Gamma_{-4 ell^(2n)}, exactly,
    at the smallest depth N <= n_max with a solution, or None: the canonical
    rational solution scaled to primitive integers, then by 12.

    One incremental fraction-free elimination serves every depth.  With the
    tower as counts t_n over den (``gross_tower_modular``), A_E times
    den lcm(w) is the integer vector e.  Each row carries, after the vertex
    entries, its integer combination of e and the t_n.  The tower vector
    t_n is reduced against the earlier pivot rows: if it vanishes it is
    dependent, the span and so the answer do not change at this depth;
    otherwise it is a new pivot and the running residual of e is reduced
    against it.  A zero residual is a
    relation c_e e + sum c_n t_n = 0 supported on the pivot columns, the
    leftmost independent ones.  The solution on those columns is unique, so
    it is the one a dense solve with the free variables set to 0 gives.
    """
    if ell in (graph.p, graph.q) or not is_prime(ell):
        raise ValueError("auxiliary prime must be a prime distinct from p and q")
    if kronecker(-4, graph.q) == 1:
        # q splits in Q(i), so no order of conductor prime to q embeds in the
        # algebra ramified at q: every Gross vector of discriminant
        # -4 ell^(2n) is zero and A_E is not in their span.
        return None
    weights = graph.vset.weights
    nv = len(weights)
    den, towers = gross_tower_modular(graph, ell, n_max)
    scale = lcm(*weights)
    target = [den * scale // w for w in weights]
    residual = target + [1] + [0] * n_max
    pivots = []
    for n, t in enumerate(towers):
        row = t + [0] * (n_max + 1)
        row[nv + 1 + n] = 1
        for col, pivot in pivots:
            row = _eliminate(row, pivot, col)
        col = next((j for j in range(nv) if row[j]), None)
        if col is None:
            continue
        pivots.append((col, row))
        residual = _eliminate(residual, row, col)
        if any(residual[:nv]):
            continue
        # sum c_n t_n = -c_e e, so the solution is x_n = -c_n / (c_e lcm(w))
        c_e, rel = residual[nv], residual[nv + 1 : nv + 2 + n]
        sign = -1 if c_e > 0 else 1
        lam0, lams = abs(c_e) * scale, [sign * c for c in rel]
        g = reduce(gcd, lams, lam0)
        lam0, lams = 12 * lam0 // g, [12 * x // g for x in lams]
        if any(lam0 * e != scale * sum(lam * v[k] for lam, v in zip(lams, towers))
               for k, e in enumerate(target)):
            raise ArithmeticError("decomposition re-check failed")
        return {
            "l": ell,
            "depth": n + 1,
            "lambda0": lam0,
            "lambdas": lams,
            "residual_zero": True,
            "degree_identity": lam0 * (graph.q - 1) == 12 * sum(
                lam * tower_class_number(ell, k + 1) for k, lam in enumerate(lams)),
        }
    return None


def build_cycle(graph, ell, lam0, lams):
    """C = sum lambda_n gamma_n, C0 = (p+1) C - 4 lambda0 a_E, plus checks.

    With the edge tower as counts t_n (``gross_tower_shimura``,
    gamma_n[i] = t_n[i] / length_i), the integers
    m_i = (p+1) sum lambda_n t_n[i] - 4 lambda0 give C0[i] = m_i / length_i;
    only the printed ``c0`` strings leave the integers.  Checks, reported
    in this order and never raised: intersection (no Gross vector meets an
    exceptional edge, the per-instance surrogate for the non-effective
    disjointness bound); C0 is closed (both boundary maps vanish); C0 is
    the degree-zero projection of (p+1)C; every length-2 edge carries
    -2 lambda0; 2 lambda0 is coprime to p.

    The projection check is deg C0 = 0.  The monodromy pairing is diagonal
    with the lengths and a_E[i] = 1/length_i, so <v, a_E> = sum v_i and the
    projection of v = (p+1)C is v - (sum v / sum a_E) a_E.  As
    C0 = v - 4 lambda0 a_E and a_E has no zero entry, C0 equals that
    projection exactly when sum v = 4 lambda0 sum a_E, that is when
    sum C0_i = 0.  Both it and the boundaries are read on
    m_i lcm(lengths) / length_i = lcm(lengths) C0[i].
    """
    p = graph.p
    lengths = graph.lengths
    towers = gross_tower_shimura(graph, ell, len(lams))
    acc = [0] * len(lengths)
    for lam, t in zip(lams, towers):
        if lam:
            for i, x in enumerate(t):
                if x:
                    acc[i] += lam * x
    m = [(p + 1) * x - 4 * lam0 for x in acc]
    scale = lcm(*lengths)
    flat = [x * (scale // ln) for x, ln in zip(m, lengths)]
    exceptional = [i for i, ln in enumerate(lengths) if ln > 1]
    length2 = [i for i, ln in enumerate(lengths) if ln == 2]
    overlap = {}
    for n, t in enumerate(towers):
        hit = sorted(set(support(t)) & set(exceptional))
        if hit:
            overlap[str(-4 * ell ** (2 * (n + 1)))] = hit
    checks = {
        "intersection": not overlap,
        "closed": not any(s_star(graph, flat)) and not any(t_star(graph, flat)),
        "in_gross_span": sum(flat) == 0,
        "exceptional_multiplicity": bool(length2)
        and all(m[i] == -4 * lam0 for i in length2),
        "multiplicity_coprime_to_p": gcd(2 * lam0, p) == 1,
    }
    return {
        "c0": [str(Fraction(x, ln)) for x, ln in zip(m, lengths)],
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
    r0, r1, r2, r3 = lat.rows
    return {"d": lat.den, "m": [*r0, *r1, *r2, *r3]}


def _lat_from(alg, payload):
    a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = payload["m"]
    # duality reads the basis as a triangular HNF, so a damaged one must not
    # load: upper triangular, positive pivots, the entries above a pivot in
    # [0, pivot), which for four rows of four is what hnf_rows returns
    if not (payload["d"] >= 1 and a0 > 0 and b1 > 0 and c2 > 0 and d3 > 0
            and not (b0 or c0 or c1 or d0 or d1 or d2)
            and 0 <= a1 < b1 and 0 <= a2 < c2 and 0 <= b2 < c2
            and 0 <= a3 < d3 and 0 <= b3 < d3 and 0 <= c3 < d3):
        raise ValueError("lattice basis is not in Hermite normal form")
    return Lattice(alg, ((a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3)),
                   payload["d"])


def _quat_payload(x):
    return {"d": x.den, "n": list(x.num)}


def _quat_from(alg, payload):
    return Quat(alg, payload["n"], payload["d"])


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
                "rational": vset.wq_perm[k] == k,
            }
            for k, c in enumerate(vset.classes)
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


# What a stored derived field that differs from its derived value says.
_VERTEX_FIELDS = {
    "norm": "norm {} is not the reduced norm of its ideal",
    "right_order": "right_order is not the right order of its ideal",
    "weight": "weight {} is not half the unit count of its right order",
    "fingerprint": "fingerprint does not match its ideal",
    "rational": "rational {} is not whether w_q fixes it",
}
_EDGE_FIELDS = {
    "eichler": "eichler is not Z + its ideal",
    "length": "length {} is not half the unit count of its Eichler order",
    "orbit": "orbit is not the set of its ideal times the units",
}


def _mismatch(stored, derived):
    """The message for the first field of the cache payload stored that is
    not the one of derived, the payload of the graph rebuilt from it."""
    q = derived["q"]
    for k, (got, want) in enumerate(zip(stored["vertices"], derived["vertices"])):
        for field, msg in _VERTEX_FIELDS.items():
            if got[field] != want[field]:
                return f"vertex {k}: " + msg.format(got[field])
    for k, (got, want) in enumerate(zip(stored["two_sided"], derived["two_sided"])):
        if got != want:
            return f"vertex {k}: two_sided is not the two-sided norm-{q} ideal of its right order"
    for i, (got, want) in enumerate(zip(stored["edges"], derived["edges"])):
        for field, msg in _EDGE_FIELDS.items():
            if got[field] != want[field]:
                return f"edge {i}: " + msg.format(got[field])
    if stored["wq_edge_perm"] != derived["wq_edge_perm"]:
        return "wq_edge_perm is not w_q on the edges"
    return "cache is not the payload of the graph rebuilt from its primary records"


def graph_from_payload(payload):
    """The graph a cache payload describes, rebuilt with the build's code.

    A payload holds three kinds of record:

    * primary, the build's input, checked through the graph they give
      (lattices parsed by ``_lat_from``): the algebra's a, the base order
      (which must be ``maximal_order``), the class ideals, w_q on vertices
      and its witnesses, and each edge's source, ideal and target;
    * derived with the build's code (the ``VertexSet`` constructor,
      ``_edge``, ``ShimuraGraph``) and compared: the algebra's b, each
      class's norm, right order, weight, fingerprint and rational flag
      (``wq_perm[k] == k``), the two-sided ideals, each edge's orbit,
      Eichler order and length, and w_q on edges;
    * only stored: w_p, checked for structure by ``ShimuraGraph``, as no
      output reads it and deriving it is a large share of a load at large
      q; and the edge witnesses, which feed only w_p at a build and are
      not checked.

    ``VertexSet`` and ``ShimuraGraph`` run their checks, then the rebuilt
    payload must equal the stored one (a differing derived record is named).
    Any failure raises.  The comparison is by value, where 1.0 == True ==
    1: ``cache_load`` refuses a float, and a true or false other than a
    rational flag, before it calls this."""
    alg = make_algebra(payload["q"], a=payload["algebra"]["a"])
    order = _lat_from(alg, payload["order"])
    # another maximal order has the same covolume, so no record check below
    # would see one in place of the order the build starts from
    if order != maximal_order(alg):
        raise ValueError("order is not the maximal order of the algebra")
    vset = VertexSet(alg, order, [_lat_from(alg, v["ideal"]) for v in payload["vertices"]],
                     (payload["wq_perm"], [_quat_from(alg, x) for x in payload["wq_witnesses"]]))
    edges = [_edge(vset, e["source"], _lat_from(alg, e["ideal"]), e["target"],
                   _quat_from(alg, e["witness"]))
             for e in payload["edges"]]
    graph = ShimuraGraph(payload["p"], payload["q"], vset, edges, wp_perm=payload["wp_perm"])
    derived = graph_payload(graph)
    if derived != payload:
        raise ArithmeticError(_mismatch(payload, derived))
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


def _not_an_int(literal):
    """``json.loads`` hook for a number that is no int (1.0, 1e3, NaN, ...):
    a cache holds ints only, and 1.0 == 1 would pass every comparison."""
    raise ValueError(f"{literal} in the cache is not an integer")


def cache_load(cache_dir, p, q):
    path = cache_path(cache_dir, p, q)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        payload = json.loads(text, parse_float=_not_an_int, parse_constant=_not_an_int)
        if not isinstance(payload, dict):
            raise ValueError("cache is not a JSON object")
        if payload.get("version") != CACHE_VERSION or payload.get("q") != q or payload.get("p") != p:
            return None
        # json reads true as a number equal to 1, so a true or false is
        # refused unless it is one of the h rational flags, each a bool
        flags = [v["rational"] for v in payload["vertices"]]
        if (any(type(f) is not bool for f in flags)
                or text.count("true") + text.count("false") != len(flags)):
            raise ValueError("a true or false in the cache is not a vertex's rational flag")
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
    """Execute the whole pipeline for (p, q) and return the certificate dict.

    The pair, the auxiliary prime l and the depth n_max are checked before
    the graph is built, so bad input fails at once, naming its flag."""
    check_primes(p=p, q=q)
    if l is not None and (l in (p, q) or not is_prime(l)):
        raise ValueError(f"--l must be a prime distinct from p and q, got {l}")
    if n_max is not None and n_max < 1:
        raise ValueError(f"--max-n must be a positive tower depth, got {n_max}")
    ogg = check_ogg(p, q)
    hypotheses = {
        "ogg_case": ogg,
        "q_gt_245": q > 245,
        "q_3_mod_4": q % 4 == 3,
        "p_1_mod_4": p % 4 == 1,
        "legendre_q_p": kronecker(q, p),
        "p_gt_q_heuristic": p > q,
    }
    hard_unmet = [name for name in ("q_gt_245", "q_3_mod_4", "p_1_mod_4")
                  if not hypotheses[name]]
    if hypotheses["legendre_q_p"] != -1:
        hard_unmet.append("legendre_q_p_is_minus_1")
    soft_unmet = [] if hypotheses["p_gt_q_heuristic"] else ["p_not_much_greater_than_q"]

    graph, _ = load_or_build_graph(p, q, cache_dir)
    stats, _, _ = graph_statistics(graph)

    cert = {
        "format_version": CACHE_VERSION,
        "p": p,
        "q": q,
        "ogg_case": ogg,
        "genus": genus(q),
        "hypotheses": hypotheses,
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
    candidates = [l] if l is not None else list(
        islice((c for c in primes_from(3) if c not in (p, q)), 12))
    for ell in candidates:
        dec = decompose_eisenstein(graph, ell, n_max)
        tried.append({"l": ell, "decomposed": dec is not None})
        if dec is not None:
            tried[-1]["p_divides_lambda0"] = dec["lambda0"] % p == 0
            if dec["lambda0"] % p:
                decomposition = dec
                break
    cert["decomposition_attempts"] = tried
    if decomposition is None:
        cert["verdict"] = "check_failed"
        cert["failed_check"] = "decomposition"
        return cert
    cert["decomposition"] = dict(decomposition)

    cycle = build_cycle(graph, decomposition["l"], decomposition["lambda0"],
                        decomposition["lambdas"])
    checks = dict(cycle["checks"])
    checks["residual_zero"] = decomposition["residual_zero"]
    checks["degree_identity"] = decomposition["degree_identity"]
    cert["cycle"] = {key: cycle[key] for key in (
        "c0", "exceptional_edges", "length2_edges", "support_overlap", "exceptional_multiplicity")}
    cert["cycle"]["gcd_2lambda0_p"] = gcd(2 * decomposition["lambda0"], p)
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
