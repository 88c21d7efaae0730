"""Reference lattice duality and Hecke towers for differential tests.

These are the ``Fraction`` versions the package used before its lattice
code moved to integers (its right orders are now I^-1 I = conj(I) I / nrd(I),
as it needs them only for left ideals of maximal orders) and the two tower
loops became one sparse recursion.  They are kept here unchanged (apart
from taking what they used from the package as imports), so the tests can
compare the fast code against them:

* ``dual_of_constraints(alg, functionals)`` -- the lattice
  {x : x . w in Z for every w in the span of the functionals}, through a
  ``Fraction`` inverse of the HNF of the functionals;
* ``left_order``, ``right_order`` and ``lattice_intersection`` built on it,
  for any full-rank lattice;
* ``gross_tower_modular`` and ``gross_tower_shimura`` -- the dense
  ``Fraction`` matrix-vector push through the Brandt matrix;
* ``brandt_edges(graph, ell)`` -- the edge Brandt matrix with each edge
  pushed as the lattice z (conj(L)/ell (L meet P)) z^-1, before the push
  read the image mod p of one conjugate (now ``graph_oracle.brandt_edges_rref``)
  and then moved each edge's line by one g per step;
* ``conj_by_integer`` and ``locate_edge`` -- the integer ``Lattice.conj_by``
  (a 4-row HNF of the rows y r conj(y)) and ``ShimuraGraph.locate_edge``
  (an edge by the image mod p of its ideal, now in the table
  ``graph_oracle.rref_edge_lookup``), which the package used for w_p and
  w_q on edges before it read the image of each conjugate off its rows;
  as functions of the lattice and of the graph;
* ``from_elements``, ``conj_by``, ``coords_of`` and
  ``reduced_discriminant`` -- the ``Fraction`` lattice primitives of
  ``quat`` from before they moved to integers (``conj_by`` through a
  ``Fraction`` inverse of y, ``coords_of`` with a second verification pass,
  the discriminant from the ``Fraction`` trace form of the ``Quat`` basis),
  as functions of the lattice;
* ``is_order`` -- the order test that ``quat.maximal_order`` ran on each
  saturation step (moved unchanged from ``quat``; ``_ring_closure``
  returns only orders);
* ``basis``, ``trd``, ``nrd``, ``add`` and ``sub`` -- the rational API
  that ``Quat`` and ``Lattice`` carried while the saturation of
  ``quat.maximal_order`` read it (``Lattice.basis``, ``Quat.trd`` and
  ``Quat.nrd`` as ``Fraction``s, ``+`` and ``-`` with a rational read as a
  multiple of 1), as functions.

``hnf_rows_pairwise`` is ``linalg.hnf_rows`` as it was before rows were
inserted one at a time: for any number of columns, it folds the rows with a
nonzero entry in each column pairwise by xgcd, then reduces above the
pivots.  It is the oracle for the row-insertion version.

It also holds ``norm_ideals_exhaustive``, the brute-force oracle for
``quat.norm_ideals`` (every index-ell^2 left submodule of reduced norm ell,
one per 2-dimensional subspace of O / ell O that is a left ideal);
``two_sided_prime(order, q)``, the two-sided norm-q ideal as the radical of
the trace form mod q, with ``kernel_mod_p`` and ``_as_int`` (moved unchanged
from ``quat`` and ``linalg``), the oracle for ``quat.two_sided_ideal``;
``model(q, a)``, the algebra (-a, -q) for any a > 0 of the ramification
{q, oo}, where ``quat.make_algebra`` gives the one model the package uses;
and the ``Fraction`` helpers all of these stand on, which the package no
longer uses: ``mat_inv_frac``, ``mat_mul_frac``, ``frac_sqrt`` and
``_int_vec`` (moved unchanged from ``linalg`` and ``quat``), ``frac_rows``
(the basis as ``Fraction`` rows) and ``scale`` (a lattice times a positive
rational).
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt, lcm

import graph_oracle
from shimura_pq.gross import class_number
from shimura_pq.linalg import det_bareiss, hnf_rows, xgcd
from shimura_pq.ntheory import ramified_primes
from shimura_pq.quat import Lattice, Quat, QuaternionAlgebra, _integral, ideal_norm


def model(q, a):
    """The quaternion algebra (-a, -q), which must be ramified exactly at
    {q, oo}: a model of the program's algebra for q, in which the tests
    build ``VertexSet(alg, maximal_order(alg))`` to check that what the
    program computes does not depend on the model."""
    if ramified_primes(-a, -q) != [q]:
        raise ValueError(f"(-{a}, -{q}) is not ramified exactly at {{{q}, oo}}")
    return QuaternionAlgebra(q=q, a=a, b=q)


# -- the pairwise HNF ---------------------------------------------------------

def hnf_rows_pairwise(rows, ncols=None):
    """Row Hermite normal form of the lattice spanned by integer ``rows``.

    Returns the list of nonzero rows as tuples: row echelon with positive
    pivots and the entries above each pivot reduced into [0, pivot).  The
    output is canonical for the row span, which is what makes lattice
    equality a plain tuple comparison.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows if any(r)]
    result = []
    for col in range(ncols):
        pool = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pool:
            work = rest
            continue
        piv = pool[0]
        for row in pool[1:]:
            a, b = piv[col], row[col]
            g, s, t = xgcd(a, b)
            u, v = a // g, b // g
            piv, row = (
                [s * x + t * y for x, y in zip(piv, row)],
                [u * y - v * x for x, y in zip(piv, row)],
            )
            if any(row):
                rest.append(row)
        if piv[col] < 0:
            piv = [-x for x in piv]
        result.append(piv)
        work = rest
    # reduce entries above each pivot
    for i in range(1, len(result)):
        prow = result[i]
        pcol = next(j for j in range(ncols) if prow[j])
        pval = prow[pcol]
        for above in result[:i]:
            q = above[pcol] // pval
            if q:
                for j in range(ncols):
                    above[j] -= q * prow[j]
    return [tuple(r) for r in result]


# -- Fraction helpers ---------------------------------------------------------

def mat_inv_frac(mat):
    """Inverse of a square matrix over Fraction (raises on singular input)."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def mat_mul_frac(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def frac_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn != pn or rd * rd != pd:
        return None
    return Fraction(rn, rd)


def _int_vec(frac_row):
    out = []
    for x in frac_row:
        f = Fraction(x)
        if f.denominator != 1:
            raise ArithmeticError("expected integral coordinates")
        out.append(int(f))
    return tuple(out)


def frac_rows(lat):
    return [[Fraction(x, lat.den) for x in r] for r in lat.rows]


def scale(lat, f):
    f = Fraction(f)
    if f <= 0:
        raise ValueError("scale factor must be positive")
    return Lattice(lat.alg, [tuple(f.numerator * x for x in r) for r in lat.rows],
                   lat.den * f.denominator)


def from_frac_rows(alg, rows):
    den = 1
    fr = [[Fraction(x) for x in r] for r in rows]
    for r in fr:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    return Lattice.from_int_rows(alg, [[int(x * den) for x in r] for r in fr], den)


# -- duality helpers ---------------------------------------------------------

def dual_of_constraints(alg, functionals):
    """Lattice {x : x . w in Z for all w in the span of the functionals}."""
    den = 1
    fr = [[Fraction(x) for x in w] for w in functionals]
    for w in fr:
        for x in w:
            den = den * x.denominator // gcd(den, x.denominator)
    rows = hnf_rows([[int(x * den) for x in w] for w in fr])
    if len(rows) != 4:
        raise ValueError("constraint span is degenerate")
    pinv = mat_inv_frac(rows)
    # basis rows of the dual: den * (P^T)^{-1} = den * transpose(P^{-1})
    dual_rows = [[den * pinv[c][r] for c in range(4)] for r in range(4)]
    return from_frac_rows(alg, dual_rows)


def _mult_matrix(b, side):
    """4x4 Fraction matrix M with coords(e_r * b) (side='right') or
    coords(b * e_r) (side='left') as row r."""
    alg = b.alg
    rows = []
    for r in range(4):
        e = tuple(int(m == r) for m in range(4))
        prod = alg.mul4(e, b.num) if side == "right" else alg.mul4(b.num, e)
        rows.append([Fraction(x, b.den) for x in prod])
    return rows


def _order_of(lat, side):
    minv = mat_inv_frac(frac_rows(lat))
    functionals = []
    for b in basis(lat):
        k = mat_mul_frac(_mult_matrix(b, side), minv)
        for col in range(4):
            functionals.append([k[r][col] for r in range(4)])
    return dual_of_constraints(lat.alg, functionals)


def left_order(lat):
    """{x : x * L <= L}."""
    return _order_of(lat, "right")


def right_order(lat):
    """{x : L * x <= L}."""
    return _order_of(lat, "left")


def lattice_intersection(l1, l2):
    m1 = mat_inv_frac(frac_rows(l1))
    m2 = mat_inv_frac(frac_rows(l2))
    functionals = [[m[r][col] for r in range(4)] for m in (m1, m2) for col in range(4)]
    return dual_of_constraints(l1.alg, functionals)


# -- the rational Quat API ------------------------------------------------------

def basis(lat):
    """The basis elements r / den, as Quats."""
    return [Quat(lat.alg, r, lat.den) for r in lat.rows]


def trd(x):
    return Fraction(2 * x.num[0], x.den)


def nrd(x):
    return Fraction(x.alg.nrd4(x.num), x.den * x.den)


def _as_quat(alg, y):
    if isinstance(y, Quat):
        return y
    y = Fraction(y)
    return Quat(alg, (y.numerator, 0, 0, 0), y.denominator)


def add(x, y):
    """x + y; a rational y is read as y times 1."""
    y = _as_quat(x.alg, y)
    return Quat(x.alg, tuple(a * y.den + b * x.den for a, b in zip(x.num, y.num)),
                x.den * y.den)


def sub(x, y):
    """x - y; a rational y is read as y times 1."""
    y = _as_quat(x.alg, y)
    return add(x, Quat(x.alg, tuple(-b for b in y.num), y.den))


# -- Fraction lattice primitives ----------------------------------------------

def from_elements(alg, elems):
    den = 1
    for e in elems:
        den = den * e.den // gcd(den, e.den)
    rows = [tuple(x * (den // e.den) for x in e.num) for e in elems]
    return Lattice.from_int_rows(alg, rows, den)


def conj_by(lat, y):
    yi = y.inv()
    rows = [Quat(lat.alg, r, lat.den) for r in lat.rows]
    return from_elements(lat.alg, [y * r * yi for r in rows])


def conj_by_integer(lat, y):
    """y L y^-1.  With y^-1 = conj(y) / nrd(y) the denominator of y
    cancels: the rows are y r conj(y) over den * nrd4(y)."""
    mul4, yn = lat.alg.mul4, y.num
    yc = (yn[0], -yn[1], -yn[2], -yn[3])
    rows = [mul4(mul4(yn, r), yc) for r in lat.rows]
    return Lattice.from_int_rows(lat.alg, rows, lat.den * lat.alg.nrd4(yn))


def coords_of(lat, x):
    """Integer coordinates of x in this basis, or None if x is outside."""
    if x.alg != lat.alg:
        raise ValueError("algebra mismatch")
    v = [Fraction(n * lat.den, x.den) for n in x.num]
    c = [0, 0, 0, 0]
    for idx in range(4):
        piv = Fraction(lat.rows[idx][idx])
        t = (v[idx] - sum(c[r] * lat.rows[r][idx] for r in range(idx))) / piv
        if t.denominator != 1:
            return None
        c[idx] = int(t)
    for col in range(4):
        if sum(c[r] * lat.rows[r][col] for r in range(4)) * x.den != x.num[col] * lat.den:
            return None
    return tuple(c)


def reduced_discriminant(order):
    elems = basis(order)
    t = [[trd(x * y) for y in elems] for x in elems]
    den = lcm(*(v.denominator for r in t for v in r))
    det = Fraction(det_bareiss([[int(v * den) for v in r] for r in t]), den ** 4)
    d = frac_sqrt(abs(det))
    if d is None or d.denominator != 1:
        raise ArithmeticError("trace form determinant is not a perfect square")
    return int(d)


def is_order(lat):
    """Whether the lattice holds 1, has integral basis elements r / den and
    holds their products, r s / den^2."""
    alg, rows, den = lat.alg, lat.rows, lat.den
    return (lat._coords((1, 0, 0, 0), 1) is not None
            and all(_integral(alg, r, den) for r in rows)
            and all(lat._coords(alg.mul4(r, s), den * den) is not None
                    for r in rows for s in rows))


# -- conductor towers over Z[i] ---------------------------------------------------

def gross_tower_modular(graph, ell, N):
    """Vertex Gross vectors for discriminants -4 ell^2, ..., -4 ell^(2N)."""
    if N < 1:
        return []
    vset = graph.vset
    nvert = len(vset)
    g0 = graph_oracle.gross_modular_frac(vset, -4)
    g1 = graph_oracle.gross_modular_frac(vset, -4 * ell * ell)
    bm = graph_oracle.dense(graph.brandt_vertices(ell))
    h1 = class_number(-4 * ell * ell)
    out = [g1]
    prev, cur = g0, g1
    for n in range(1, N):
        push = tuple(
            sum((cur[k] * bm[k][t] for k in range(nvert)), Fraction(0))
            for t in range(nvert)
        )
        c = 2 * h1 if n == 1 else ell
        nxt = tuple(p - c * pr for p, pr in zip(push, prev))
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def gross_tower_shimura(graph, ell, N):
    """Edge Gross vectors for discriminants -4 ell^2, ..., -4 ell^(2N)."""
    if N < 1:
        return []
    nedge = len(graph.edges)
    g0 = graph_oracle.gross_shimura_frac(graph, -4)
    g1 = graph_oracle.gross_shimura_frac(graph, -4 * ell * ell)
    bme = graph_oracle.dense(graph.brandt_edges(ell))
    h1 = class_number(-4 * ell * ell)
    w = graph.lengths
    out = [g1]
    prev, cur = g0, g1
    for n in range(1, N):
        wcur = [cur[i] * w[i] for i in range(nedge)]
        push = tuple(
            sum((wcur[i] * bme[i][j] for i in range(nedge)), Fraction(0)) / w[j]
            for j in range(nedge)
        )
        c = h1 if n == 1 else ell
        nxt = tuple(p - c * pr for p, pr in zip(push, prev))
        out.append(nxt)
        prev, cur = cur, nxt
    return out


# -- edge Brandt matrix by products of lattices ----------------------------------

def brandt_edges(graph, ell):
    n = len(graph.edges)
    mat = [[0] * n for _ in range(n)]
    inv_ell = Fraction(1, ell)
    lookup = graph_oracle.rref_edge_lookup(graph)
    for i, e in enumerate(graph.edges):
        for _, m, z in graph.vertex_neighbors(e.source, ell):
            lam = graph.vset.step_ideal(e.source, m, z)
            pushed = conj_by_integer(scale(lam.conj_lattice(), inv_ell).mul(
                lattice_intersection(lam, e.ideal)), z)
            mat[i][locate_edge(graph, lookup, m, pushed)] += 1
    return mat


def locate_edge(graph, lookup, vertex, ideal):
    """The edge at vertex with this ideal, by its image mod p in the table
    ``graph_oracle.rref_edge_lookup``."""
    image = graph_oracle.residue_image(graph.vset.classes[vertex].right_order, ideal, graph.p)
    if (vertex, image) not in lookup:
        raise ArithmeticError("edge lattice not found at vertex")
    return lookup[(vertex, image)]


# -- norm-ell ideals by exhaustion -------------------------------------------

def norm_ideals_exhaustive(order, ell):
    """Brute-force oracle: all index-ell^2 left submodules with O*P <= P,
    P >= ell*O, of reduced norm ell.  Cost O(ell^4); test use only."""
    alg = order.alg
    minv = mat_inv_frac(frac_rows(order))
    elems = basis(order)
    gamma = [[_int_vec(mat_mul_frac([[Fraction(x, b1.den * b2.den) for x in
                                      alg.mul4(b1.num, b2.num)]], minv)[0])
              for b2 in elems] for b1 in elems]

    def mul_mod(c1, c2):
        out = [0, 0, 0, 0]
        for r in range(4):
            for s in range(4):
                f = c1[r] * c2[s]
                if f:
                    grs = gamma[r][s]
                    for m in range(4):
                        out[m] += f * grs[m]
        return tuple(x % ell for x in out)

    found = []
    for key in _planes(ell):
        span = {tuple((a * u + b * w) % ell for u, w in zip(key[0], key[1]))
                for a in range(ell) for b in range(ell)}
        if all(mul_mod(gvec, v) in span
               for gvec in (tuple(int(m == r) for m in range(4)) for r in range(4))
               for v in key):
            found.append(key)
    ideals = []
    for key in found:
        rows = [tuple(sum(v[r] * order.rows[r][m] for r in range(4)) for m in range(4))
                for v in key]
        rows += [tuple(ell * x for x in r) for r in order.rows]
        ideal = Lattice.from_int_rows(alg, rows, order.den)
        if ideal.index_in(order) == ell * ell and ideal_norm(ideal, order) == ell:
            ideals.append(ideal)
    ideals.sort(key=lambda l2: l2.key())
    return ideals


def _planes(ell):
    """The 2-dimensional subspaces of F_ell^4, each once, as the two rows
    (v1, v2) of its reduced row echelon form: pivots 1 in columns i < j,
    v1[j] = 0, and zeros left of each pivot."""
    for i, j in combinations(range(4), 2):
        free1 = [c for c in range(i + 1, 4) if c != j]
        free2 = list(range(j + 1, 4))
        for a in product(range(ell), repeat=len(free1)):
            for b in product(range(ell), repeat=len(free2)):
                v1, v2 = [0] * 4, [0] * 4
                v1[i] = v2[j] = 1
                for c, x in zip(free1, a):
                    v1[c] = x
                for c, x in zip(free2, b):
                    v2[c] = x
                yield tuple(v1), tuple(v2)


# -- the two-sided norm-q ideal by the trace radical ---------------------------

def two_sided_prime(order, q):
    """The unique two-sided ideal of reduced norm q of a maximal order.

    Taken as the radical of the trace pairing mod q lifted back to the
    lattice, plus q*O; its index in O is q^2.
    """
    elems = basis(order)
    t = [[_as_int(trd(x * y)) for y in elems] for x in elems]
    ker = kernel_mod_p(t, q)
    if len(ker) != 2:
        raise ArithmeticError("radical mod q does not have dimension 2")
    rows = [tuple(sum(c[r] * order.rows[r][m] for r in range(4)) for m in range(4))
            for c in ker]
    rows += [tuple(q * x for x in r) for r in order.rows]
    ideal = Lattice.from_int_rows(order.alg, rows, order.den)
    if ideal.index_in(order) != q * q:
        raise ArithmeticError("two-sided ideal has wrong index")
    return ideal


def _as_int(f):
    f = Fraction(f)
    if f.denominator != 1:
        raise ArithmeticError("expected an integer, got " + str(f))
    return int(f)


def kernel_mod_p(mat, p):
    """Basis of the kernel of an n x n integer matrix acting mod p (row vectors c with c*mat = 0)."""
    n = len(mat)
    a = [[mat[i][j] % p for j in range(n)] for i in range(n)]
    # row-reduce the transpose: we want left kernel of mat = kernel of mat^T
    t = [[a[j][i] for j in range(n)] for i in range(n)]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if t[i][col] % p), None)
        if piv is None:
            continue
        t[r], t[piv] = t[piv], t[r]
        inv = pow(t[r][col], -1, p)
        t[r] = [x * inv % p for x in t[r]]
        for i in range(n):
            if i != r and t[i][col] % p:
                f = t[i][col]
                t[i] = [(x - f * y) % p for x, y in zip(t[i], t[r])]
        r += 1
    # kernel of t (as a map on row vectors v -> v with t*v = 0): free columns
    pivcols = []
    c = 0
    for i in range(r):
        while c < n and t[i][c] % p == 0:
            c += 1
        pivcols.append(c)
    free = [j for j in range(n) if j not in pivcols]
    out = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for i, pc in enumerate(pivcols):
            v[pc] = (-t[i][j]) % p
        out.append(tuple(v))
    return out
