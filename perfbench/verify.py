"""Correctness checks on the checker's outputs, computed apart from it.

Nothing here imports ``shimura_pq``.  The checks read the cached graph JSON
and the certificate JSON the CLI writes, and recompute what they claim from
first principles: the vertex count of X_0(q), the Eichler mass formulas,
class numbers of imaginary quadratic orders and Kronecker symbols.  Every
failure raises ``CheckError`` with a stable name, so a test can say which
check a mutated file must trip.
"""

from fractions import Fraction
from math import gcd

# Reporting order of the certificate's checks; the first false one is the
# certificate's ``failed_check``.
CHECK_ORDER = (
    "residual_zero",
    "degree_identity",
    "intersection",
    "closed",
    "in_gross_span",
    "exceptional_multiplicity",
    "multiplicity_coprime_to_p",
)
# The one hypothesis that --override-hypotheses treats as advisory: with all
# checks passing it still yields criterion_satisfied.
SOFT_HYPOTHESIS = "p_not_much_greater_than_q"
EXIT_CODES = {"criterion_satisfied": 0, "check_failed": 1, "hypotheses_not_met": 2}
# Above this |D| the reduced-forms count is too slow (it is O(|D|)) and the
# class number comes from the conductor formula instead.
FORMS_LOOP_MAX = 10**6


class CheckError(Exception):
    """A named correctness check failed."""

    def __init__(self, name, detail):
        super().__init__(f"{name}: {detail}")
        self.name = name


def _require(ok, name, detail):
    if not ok:
        raise CheckError(name, detail)


# -- arithmetic, independent of the program ----------------------------------

def kronecker(a, ell):
    """Kronecker symbol (a|ell) for a prime ell."""
    if ell == 2:
        return 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
    r = pow(a % ell, (ell - 1) // 2, ell)
    return -1 if r == ell - 1 else r


def forms_class_number(D):
    """h(D) by counting reduced primitive forms (a, b, c), b^2 - 4ac = D.

    Reduced means |b| <= a <= c, with b >= 0 when |b| = a or a = c.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    h = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(1 - a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, b), c) == 1:
                h += 1
        a += 1
    return h


def _fundamental_part(D):
    """(D0, f, primes dividing f) with D = D0 f^2 and D0 fundamental."""
    n, f, primes, d = -D, 1, [], 2
    while d * d <= n:
        if n % (d * d) == 0:
            primes.append(d)
            while n % (d * d) == 0:
                n //= d * d
                f *= d
        d += 1
    if -n % 4 not in (0, 1):  # took out a 2 that belongs to D0
        n, f = 4 * n, f // 2
        if f % 2:
            primes.remove(2)
    return -n, f, primes


def formula_class_number(D):
    """h(D0 f^2) = h(D0) f / [O_K^* : O^*] prod_{l | f} (1 - (D0|l)/l),
    with h(D0) of the fundamental discriminant counted by forms."""
    d0, f, primes = _fundamental_part(D)
    h = Fraction(forms_class_number(d0) * f, {-3: 3, -4: 2}.get(d0, 1) if f > 1 else 1)
    for ell in primes:
        h *= 1 - Fraction(kronecker(d0, ell), ell)
    if h.denominator != 1:
        raise ArithmeticError(f"conductor formula gave {h} for D={D}")
    return int(h)


def class_number(D):
    """h(D): counted by forms for small |D|, else by the conductor formula."""
    return forms_class_number(D) if -D <= FORMS_LOOP_MAX else formula_class_number(D)


def vertex_count(q):
    """Number of supersingular j-invariants in characteristic q."""
    return q // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[q % 12]


# -- the cached graph ----------------------------------------------------------

def check_graph(payload, p, q):
    """Properties every dual graph of X^{pq} at p has, on the cache JSON."""
    _require(payload["p"] == p and payload["q"] == q, "graph.pair",
             f"cache holds ({payload['p']},{payload['q']}), expected ({p},{q})")
    verts, edges = payload["vertices"], payload["edges"]
    nv = len(verts)
    _require(nv == vertex_count(q), "graph.vertex_count",
             f"{nv} vertices, expected {vertex_count(q)}")
    mass = sum(Fraction(1, v["weight"]) for v in verts)
    _require(mass == Fraction(q - 1, 12), "graph.vertex_mass", f"sum 1/w = {mass}")
    emass = sum(Fraction(1, e["length"]) for e in edges)
    _require(emass == Fraction((p + 1) * (q - 1), 12), "graph.edge_mass",
             f"sum 1/length = {emass}")
    ends_ok = all(0 <= e["source"] < nv and 0 <= e["target"] < nv for e in edges)
    _require(ends_ok, "graph.endpoints", "an edge end is not a vertex")
    orbit_total = [0] * nv
    for e in edges:
        orbit_total[e["source"]] += len(e["orbit"])
    _require(all(t == p + 1 for t in orbit_total), "graph.orbit_sizes",
             f"orbit sizes per vertex sum to {orbit_total}, expected {p + 1}")
    for name, key in (("graph.wp_involution", "wp_perm"), ("graph.wq_involution", "wq_edge_perm")):
        perm = payload[key]
        ok = (len(perm) == len(edges)
              and all(0 <= j < len(edges) and perm[j] == i for i, j in enumerate(perm))
              and all(edges[j]["length"] == edges[i]["length"] for i, j in enumerate(perm)))
        _require(ok, name, f"{key} is not a length-preserving involution")
    wp = payload["wp_perm"]
    _require(all(edges[j]["source"] == edges[i]["target"] for i, j in enumerate(wp)),
             "graph.wp_reverses", "w_p does not swap source and target")


# -- certificates --------------------------------------------------------------

def check_certificate(cert, payload, returncode):
    """Arithmetic of the decomposition, consistency with the cached graph,
    and agreement of verdict, failed check and exit code with the checks."""
    p, q = payload["p"], payload["q"]
    _require(cert["p"] == p and cert["q"] == q, "cert.pair",
             f"certificate for ({cert['p']},{cert['q']}), graph for ({p},{q})")
    verdict = cert["verdict"]
    _require(EXIT_CODES.get(verdict) == returncode, "cert.exit_code",
             f"verdict {verdict} with exit code {returncode}")
    dec = cert.get("decomposition")
    if dec is None:
        _require(verdict == "check_failed" and cert.get("failed_check") == "decomposition",
                 "cert.verdict", f"no decomposition but verdict {verdict}")
        return
    ell, lam0, lams = dec["l"], dec["lambda0"], dec["lambdas"]
    _require(lam0 != 0 and all(x % 12 == 0 for x in [lam0, *lams]),
             "cert.lambda_multiple_of_12", f"lambda0={lam0}, lambdas={lams}")
    lhs = lam0 * Fraction(q - 1, 12)
    rhs = sum(lam * class_number(-4 * ell ** (2 * n)) for n, lam in enumerate(lams, 1))
    _require(lhs == rhs, "cert.degree_identity",
             f"lambda0 (q-1)/12 = {lhs} but sum lambda_n h(-4 l^2n) = {rhs}")

    edges, cycle, checks = payload["edges"], cert["cycle"], cert["checks"]
    _require(len(cycle["c0"]) == len(edges), "cert.c0_length",
             f"{len(cycle['c0'])} coefficients for {len(edges)} edges")
    c0 = [Fraction(x) for x in cycle["c0"]]
    s_star = [Fraction(0)] * len(payload["vertices"])
    t_star = list(s_star)
    for x, e in zip(c0, edges):
        s_star[e["source"]] += x
        t_star[e["target"]] += x
    closed = not any(s_star) and not any(t_star)
    _require(checks["closed"] == closed, "cert.closed",
             f"certificate says closed={checks['closed']}, recomputed {closed}")
    exceptional = [i for i, e in enumerate(edges) if e["length"] > 1]
    _require(cycle["exceptional_edges"] == exceptional, "cert.exceptional_edges",
             f"{cycle['exceptional_edges']} != {exceptional}")
    length2 = [i for i, e in enumerate(edges) if e["length"] == 2]
    _require(cycle["length2_edges"] == length2, "cert.length2_edges",
             f"{cycle['length2_edges']} != {length2}")
    multiplicity = bool(length2) and all(c0[i] == -2 * lam0 for i in length2)
    _require(checks["exceptional_multiplicity"] == multiplicity,
             "cert.exceptional_multiplicity",
             f"certificate says {checks['exceptional_multiplicity']}, recomputed {multiplicity}")
    coprime = gcd(2 * lam0, p) == 1
    _require(checks["multiplicity_coprime_to_p"] == coprime, "cert.coprime_to_p",
             f"certificate says {checks['multiplicity_coprime_to_p']}, recomputed {coprime}")

    failed = [name for name in CHECK_ORDER if not checks[name]]
    hard_unmet = [h for h in cert["hypotheses_unmet"] if h != SOFT_HYPOTHESIS]
    if failed:
        expected = ("check_failed", failed[0])
    elif hard_unmet:
        expected = ("hypotheses_not_met", None)
    else:
        expected = ("criterion_satisfied", None)
    got = (verdict, cert.get("failed_check"))
    _require(got == expected, "cert.verdict", f"{got} but the checks give {expected}")


def check_same_bytes(warm, cold):
    """A warm re-run must reproduce the certificate of the cold run."""
    _require(warm == cold, "warm.byte_identical",
             "warm certificate differs from the cold one")


# -- the discriminant scan -----------------------------------------------------

def check_trace_identities(D, p, q, vertex_total, edge_total):
    """Eichler's trace identities: optimal embeddings of the order of
    discriminant D summed over the vertex orders and the edge orders."""
    h = class_number(D)
    expect_v = (1 - kronecker(D, q)) * h
    expect_e = (1 - kronecker(D, q)) * (1 + kronecker(D, p)) * h
    _require(vertex_total == expect_v, "scan.vertex_trace",
             f"D={D}: {vertex_total} embeddings into vertex orders, expected {expect_v}")
    _require(edge_total == expect_e, "scan.edge_trace",
             f"D={D}: {edge_total} embeddings into edge orders, expected {expect_e}")
