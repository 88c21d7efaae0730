"""Class numbers, optimal embeddings, Gross and Eisenstein vectors.

Vectors over the vertex set (divisors) and the edge set (paths) are plain
tuples of Fractions.  The monodromy pairing is diagonal with the automorphism
weights; the degree of a vector is its pairing with the Eisenstein vector,
which is just the coefficient sum.
"""

from fractions import Fraction
from math import gcd, lcm

from .quat import units


# -- imaginary quadratic orders -------------------------------------------------

def validate_discriminant(D):
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative quadratic discriminant")


def class_number(D):
    """Number of reduced primitive binary quadratic forms of discriminant D."""
    validate_discriminant(D)
    h = 0
    b = abs(D) % 2
    while 3 * b * b <= -D:
        m4 = b * b - D
        if m4 % 4 == 0:
            m = m4 // 4
            a = max(b, 1)
            while a * a <= m:
                if m % a == 0:
                    c = m // a
                    if gcd(gcd(a, b), c) == 1:
                        h += 1 if (b == 0 or a == b or a == c) else 2
                a += 1
        b += 2
    return h


def unit_count(D):
    """#(O_D^* / {+-1})."""
    return 3 if D == -3 else 2 if D == -4 else 1


def conductor_split(D):
    """(fundamental discriminant, conductor f) with D = D0 * f^2."""
    validate_discriminant(D)
    n = -D
    f = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            f *= d
        d += 1
    d0 = D // (f * f)
    if d0 % 4 not in (0, 1):
        f //= 2
        d0 = D // (f * f)
    return d0, f


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def tower_class_number(ell, n):
    """h(-4 ell^(2n)): class number of the order of conductor ell^n in Z[i].

    Closed form h = ell^(n-1) (ell - (-4|ell)) / 2 for n >= 1; anchored by
    the reduced-forms count in tests.
    """
    if n == 0:
        return 1
    from .ntheory import kronecker

    return ell ** (n - 1) * (ell - kronecker(-4, ell)) // 2


# -- optimal embeddings ---------------------------------------------------------

def optimal_embeddings(order, D, unit_list=None):
    """Number of optimal embeddings of the order of discriminant D into the
    given quaternion order, counted modulo conjugation by its unit group.

    An embedding is a lattice element x with trd(x) = t0 and
    nrd(x) = (t0^2 - D)/4 (t0 = D mod 2); it is optimal unless the induced
    generator of some conductor-divided order also lies in the lattice.
    """
    return _count_optimal(order, D, _embedding_candidates(order, D), unit_list)


def _embedding_candidates(order, D):
    """The x in order with trd(x) = t0 and nrd(x) = (t0^2 - D)/4, by key."""
    validate_discriminant(D)
    t0 = D % 2
    return order.norm_vectors((t0 - D) // 4, trace=Fraction(t0))


def _count_optimal(order, D, cands, unit_list):
    """Unit-conjugation orbits of the candidates that are optimal in order."""
    if not cands:
        return 0
    t0 = D % 2
    _, f = conductor_split(D)
    for ell in prime_factors(f):
        t1 = (D // (ell * ell)) % 2
        shift = ell * t1 - t0
        keep = []
        for x in cands:
            y = (x * 2 + shift) / (2 * ell)
            if y not in order:
                keep.append(x)
        cands = keep
    if not cands:
        return 0
    if unit_list is None:
        unit_list = units(order)
    remaining = {x.key(): x for x in cands}
    orbits = 0
    while remaining:
        seed = remaining.pop(min(remaining))
        orbits += 1
        for u in unit_list:
            y = u * seed * u.inv()
            remaining.pop(y.key(), None)
    return orbits


# -- exact vectors ---------------------------------------------------------------

def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(u, c):
    c = Fraction(c)
    return tuple(c * x for x in u)


def is_zero(u):
    return all(x == 0 for x in u)


def monodromy_pairing(u, v, weights):
    if len(u) != len(v) or len(u) != len(weights):
        raise ValueError("basis mismatch in the monodromy pairing")
    return sum((x * y * w for x, y, w in zip(u, v, weights)), Fraction(0))


def eisenstein_modular(vset):
    return tuple(Fraction(1, c.weight) for c in vset.classes)


def eisenstein_shimura(graph):
    return tuple(Fraction(1, e.length) for e in graph.edges)


def gross_modular(vset, D):
    """Vertex vector with coefficient (embeddings into End(E_k)) / 2u(D)."""
    u2 = 2 * unit_count(D)
    return tuple(
        Fraction(optimal_embeddings(rec.right_order, D, vset.units_of(k)), u2)
        for k, rec in enumerate(vset.classes)
    )


def gross_shimura(graph, D):
    """Edge vector with coefficient (embeddings into End(e)) / length(e).

    The Eichler order of an edge (k, P) is Z + P, which lies in R_k, so its
    embedding candidates (the x with the trace and norm of a generator of
    the order of discriminant D) are the candidates of R_k that lie in
    Z + P.  One search per vertex serves all its p+1 edges; optimality and
    the orbits under the units are then counted in the Eichler order, as
    ``optimal_embeddings`` counts them."""
    by_vertex = {}
    out = []
    for i, e in enumerate(graph.edges):
        k = e.source
        if k not in by_vertex:
            by_vertex[k] = _embedding_candidates(graph.vset.classes[k].right_order, D)
        cands = [x for x in by_vertex[k] if x in e.eichler]
        count = _count_optimal(e.eichler, D, cands, graph_eichler_units(graph, i)) if cands else 0
        out.append(Fraction(count, e.length))
    return tuple(out)


def graph_eichler_units(graph, i):
    """``units`` of the Eichler order of edge i, in the same order: the
    units of its source's right order that lie in it."""
    e = graph.edges[i]
    return [u for u in graph.vset.units_of(e.source) if u in e.eichler]


def s_star(graph, v):
    out = [Fraction(0)] * len(graph.vset)
    for i, x in enumerate(v):
        if x:
            out[graph.edges[i].source] += x
    return tuple(out)


def t_star(graph, v):
    out = [Fraction(0)] * len(graph.vset)
    for i, x in enumerate(v):
        if x:
            out[graph.edges[i].target] += x
    return tuple(out)


def project_degree_zero(graph, v):
    """Orthogonal projection onto degree zero for the monodromy pairing."""
    a = eisenstein_shimura(graph)
    w = graph.lengths
    coeff = monodromy_pairing(v, a, w) / monodromy_pairing(a, a, w)
    return vec_sub(v, vec_scale(a, coeff))


def support(v):
    return [i for i, x in enumerate(v) if x]


# -- conductor towers over Z[i] ---------------------------------------------------

def hecke_tower(g0, g1, rows, weights, c1, ell, N):
    """[g_1, ..., g_N] from the three-term Hecke recursion

        w_j g_{n+1}[j] = sum_i w_i g_n[i] B[i][j] - c_n w_j g_{n-1}[j],

    with c_1 = c1 and c_n = ell after.  ``rows[i]`` lists the nonzero
    (j, B[i][j]) of the Brandt matrix, so one step touches about (ell+1) n
    entries.  The weights conjugate the operator: the recursion lives on the
    CM-reduction counts w_i g[i], run here in integers over one common
    denominator.  Needs N >= 1."""
    counts = [[x * w for x, w in zip(g, weights)] for g in (g0, g1)]
    den = lcm(*(x.denominator for g in counts for x in g))
    prev, cur = ([int(x * den) for x in g] for g in counts)
    out = [g1]
    for n in range(1, N):
        push = [0] * len(cur)
        for x, row in zip(cur, rows):
            if x:
                for j, m in row:
                    push[j] += m * x
        c = c1 if n == 1 else ell
        prev, cur = cur, [p - c * pr for p, pr in zip(push, prev)]
        out.append(tuple(Fraction(x, den * w) for x, w in zip(cur, weights)))
    return out


def gross_tower_modular(graph, ell, N):
    """Vertex Gross vectors for discriminants -4 ell^2, ..., -4 ell^(2N).

    Embeddings of the conductor-ell^n order are computed directly for n = 1;
    higher conductors follow the Hecke three-term recursion on sums of CM
    reductions (each conductor-ell^n class has one neighbor of conductor
    ell^(n-1) and ell of conductor ell^(n+1) under the ell-isogeny operator).
    """
    if N < 1:
        return []
    vset = graph.vset
    return hecke_tower(gross_modular(vset, -4), gross_modular(vset, -4 * ell * ell),
                       graph.brandt_vertices(ell), [1] * len(vset),
                       2 * class_number(-4 * ell * ell), ell, N)


def gross_tower_shimura(graph, ell, N):
    """Edge Gross vectors for discriminants -4 ell^2, ..., -4 ell^(2N).

    Same recursion as the vertex tower, conjugated by the length weights
    (the recursion lives on plain CM-reduction counts, the vectors carry
    1/length)."""
    if N < 1:
        return []
    return hecke_tower(gross_shimura(graph, -4), gross_shimura(graph, -4 * ell * ell),
                       graph.brandt_edges(ell), graph.lengths,
                       class_number(-4 * ell * ell), ell, N)
