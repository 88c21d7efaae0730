"""Class numbers, optimal embeddings and Gross vectors.

A Gross vector over the vertices (divisors) or the edges (paths) is held
as its integer counts of optimal embeddings, that is of CM reductions
(Gross, Heights and the special values of L-series, 1987, section 12):
the vector of discriminant D is the count over 2u(D) at a vertex,
u(D) = #(O_D^* / {+-1}), and the count over the length at an edge.  A
conductor tower is the list of those counts per level.  The monodromy
pairing is diagonal with the weights, so a vector's degree, its pairing
with the Eisenstein vector, is its coefficient sum.
"""

from math import gcd

from .ntheory import kronecker, prime_factors
from .quat import _pair_units, units


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


def tower_class_number(ell, n):
    """h(-4 ell^(2n)): class number of the order of conductor ell^n in Z[i].

    Closed form h = ell^(n-1) (ell - (-4|ell)) / 2 for n >= 1; anchored by
    the reduced-forms count in tests.
    """
    if n == 0:
        return 1
    return ell ** (n - 1) * (ell - kronecker(-4, ell)) // 2


# -- optimal embeddings ---------------------------------------------------------

def optimal_embeddings(order, D, unit_list=None):
    """Number of optimal embeddings of the order of discriminant D into the
    given quaternion order, counted modulo conjugation by its unit group.

    An embedding is a lattice element x with trd(x) = t0 and
    nrd(x) = (t0^2 - D)/4 (t0 = D mod 2); it is optimal unless the induced
    generator of some conductor-divided order also lies in the lattice.

    D is checked once, here, and the candidates come from one call of
    ``Lattice.norm_vectors`` with the trace, which tests the gate at q and
    the floor of its trace-zero form in its own frame before any search.
    When (D|q) = 1 the count is 0 with no enumeration: t0^2 - 4n = D, and
    an order of discriminant D embeds in B only if q does not split in
    Q(sqrt D) (Eichler, LNM 320).  With no candidate ``_count_optimal`` is
    not called.
    """
    if D >= 0 or D % 4 > 1:  # inline, so a valid D costs no call
        validate_discriminant(D)
    t0 = D % 2
    cands = order.norm_vectors((t0 - D) // 4, t0)
    return _count_optimal(order, D, cands, unit_list) if cands else 0


def _count_optimal(order, D, cands, unit_list):
    """Unit-conjugation orbits of the candidates that are optimal in order.

    Both steps run on the (den, num) pairs of the candidates, in integers:
    x is not optimal if (2x + shift) / (2 ell) lies in the order for a
    prime ell of the conductor (``order._coords`` on its numerator), and
    x -> u x conj(u) (nrd u = 1) is one product of integer 4-vectors,
    brought to lowest terms by one gcd, over the units of ``_pair_units``;
    with none the orbits are the optimal candidates themselves."""
    t0 = D % 2
    xs = [(x.den, x.num) for x in cands]
    coords = order._coords
    # the primes of the conductor: the ell with D / ell^2 a discriminant
    for ell in prime_factors(-D):
        d1, r = divmod(D, ell * ell)
        if r or d1 % 4 > 1:
            continue
        shift = ell * (d1 % 2) - t0
        ell2 = 2 * ell
        xs = [(den, num) for den, num in xs
              if coords((2 * num[0] + shift * den, 2 * num[1], 2 * num[2], 2 * num[3]),
                        ell2 * den) is None]
    if not xs:
        return 0
    if unit_list is None:
        unit_list = units(order)
    conjugators = [(u.num, (u.num[0], -u.num[1], -u.num[2], -u.num[3]), u.den * u.den)
                   for u in _pair_units(unit_list)]
    if not conjugators:
        return len(xs)
    mul4 = order.alg.mul4
    remaining = set(xs)
    orbits = 0
    while remaining:
        den, num = remaining.pop()
        orbits += 1
        for u, ubar, uden in conjugators:
            y0, y1, y2, y3 = mul4(mul4(u, num), ubar)
            yden = uden * den
            g = gcd(yden, y0, y1, y2, y3)
            remaining.discard((yden // g, (y0 // g, y1 // g, y2 // g, y3 // g)))
    return orbits


# -- Gross vectors ----------------------------------------------------------------

def gross_modular(vset, D):
    """Vertex counts: the optimal embeddings into each End(E_k)."""
    return tuple(optimal_embeddings(rec.right_order, D, vset.units_of(k))
                 for k, rec in enumerate(vset.classes))


def gross_shimura(graph, D):
    """Edge counts: the optimal embeddings into each End(e).

    The Eichler order of an edge (k, P) is Z + P, which lies in R_k, so its
    embedding candidates (the x with the trace and norm of a generator of
    the order of discriminant D) are the candidates of R_k that lie in
    Z + P.  One search per vertex serves all its p+1 edges; optimality and
    the orbits under its units (``Edge.units``) are then counted in the
    Eichler order, as ``optimal_embeddings`` counts them."""
    validate_discriminant(D)
    t0 = D % 2
    by_vertex = {}
    out = []
    for e in graph.edges:
        k = e.source
        if k not in by_vertex:
            by_vertex[k] = graph.vset.classes[k].right_order.norm_vectors((t0 - D) // 4, t0)
        cands = [x for x in by_vertex[k] if x in e.eichler]
        out.append(_count_optimal(e.eichler, D, cands, e.units) if cands else 0)
    return tuple(out)


def graph_eichler_units(graph, i):
    """``units`` of the Eichler order of edge i, in the same order: the
    units of its source's right order that lie in it (``Edge.units``)."""
    return graph.edges[i].units


def s_star(graph, v):
    out = [0] * len(graph.vset)
    for i, x in enumerate(v):
        if x:
            out[graph.edges[i].source] += x
    return tuple(out)


def t_star(graph, v):
    out = [0] * len(graph.vset)
    for i, x in enumerate(v):
        if x:
            out[graph.edges[i].target] += x
    return tuple(out)


def support(v):
    return [i for i, x in enumerate(v) if x]


# -- conductor towers over Z[i] ---------------------------------------------------

def hecke_tower(a0, a1, rows, c1, ell, N):
    """[a_1, ..., a_N] from the three-term Hecke recursion on the counts

        a_{n+1}[j] = sum_i a_n[i] B[i][j] - c_n a_{n-1}[j],

    with c_1 = c1 and c_n = ell after.  ``rows[i]`` lists the nonzero
    (j, B[i][j]) of the Brandt matrix, so one step touches about (ell+1) n
    entries."""
    prev, cur = a0, list(a1)
    out = [cur]
    for n in range(1, N):
        push = [0] * len(cur)
        for x, row in zip(cur, rows):
            if x:
                for j, m in row:
                    push[j] += m * x
        c = c1 if n == 1 else ell
        prev, cur = cur, [p - c * pr for p, pr in zip(push, prev)]
        out.append(cur)
    return out[:N]


def gross_tower_modular(graph, ell, N):
    """(2, [a_1, ..., a_N]): the vertex counts for discriminants
    -4 ell^2, ..., -4 ell^(2N), and their denominator 2u(D) = 2.

    The embeddings are counted for n = 1, and higher conductors follow the
    Hecke three-term recursion on sums of CM reductions (a conductor-ell^n
    class has one ell-isogeny neighbour of conductor ell^(n-1), ell of
    ell^(n+1)).  On the vectors, count / 2u(D), the first step subtracts
    2h(-4 ell^2) times Gamma_{-4} = a_0 / 4; on the counts that is
    h(-4 ell^2) times a_0."""
    vset = graph.vset
    return 2, hecke_tower(gross_modular(vset, -4), gross_modular(vset, -4 * ell * ell),
                          graph.brandt_vertices(ell), class_number(-4 * ell * ell), ell, N)


def gross_tower_shimura(graph, ell, N):
    """[a_1, ..., a_N]: the edge counts for discriminants -4 ell^2, ...,
    -4 ell^(2N), by the vertex tower's recursion on the edges."""
    return hecke_tower(gross_shimura(graph, -4), gross_shimura(graph, -4 * ell * ell),
                       graph.brandt_edges(ell), class_number(-4 * ell * ell), ell, N)
