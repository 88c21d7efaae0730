"""Reference graph code for differential tests.

The package used to carry these; only the tests called them, so they live
here, unchanged apart from their imports:

* ``make_multigraph`` -- a plain multigraph on generic vertices;
* ``spanning_trees`` -- the matrix-tree count, the order of the component
  group;
* ``k_law_solve`` and ``element_order`` -- one ``Fraction`` solve per
  vertex pair, the oracle for ``compgroup.lemma_general_check`` and for the
  Smith form of ``compgroup.component_group``;
* ``apply_wp`` and ``apply_wq_edges`` -- the Atkin-Lehner involutions as
  actions on path vectors;
* ``brandt_matrix`` -- the dense vertex Brandt matrix, with the checks on
  ell that the package's dense view made, and ``dense`` for any sparse
  Brandt rows (``ShimuraGraph.brandt_vertices`` and ``brandt_edges``);
* ``neighbors_by_locate`` -- the ell-steps from a vertex by one ``locate``
  per norm-ell ideal, the oracle for ``VertexSet.neighbors``;
* ``steps_per_direction`` -- ``VertexSet._steps`` as it was: one
  short-vector search of conj(I_m) I_k for each direction of a class pair,
  and each step's ideal built as a lattice (one HNF), the oracle for the
  one search per unordered pair and the steps read by their image mod ell;
* ``steps_by_quats`` and ``step_witness_by_quats`` -- ``VertexSet._steps``
  and ``VertexSet.step_witness`` as they were before they ran on integer
  4-vectors: the unit orbits marked by ``Quat`` products (x and -x
  included), z, z / n_k and the witness's x, y and u built as ``Quat``
  objects, and R_t y by ``Lattice.mul_elem``; the oracle for the steps and
  the edge witnesses, which the graph cache stores;
* ``wq_by_full_scan`` -- w_q on vertices by one ``locate`` per class with
  no class tried first, the oracle for ``VertexSet._wq``;
* ``vertex_classes_by_equivalence`` -- the class search with one reduced
  product, fingerprint and equivalence test per 2-neighbour, the oracle for
  ``ssgraph.vertex_classes``;
* ``wp_perm_by_conjugation`` and ``wq_edge_perm_by_conjugation`` -- w_p
  and w_q on edges by conjugating each edge ideal as a lattice
  (``lattice_oracle.conj_by_integer``) and looking it up
  (``lattice_oracle.locate_edge``), the oracle for the maps that
  ``build_graph`` reads off the conjugated rows;
* ``rref_edge_lookup``, ``conjugate_edge_rref``, ``brandt_edges_rref``,
  ``wp_perm_rref`` and ``wq_edge_perm_rref`` -- the edge table and the
  edge pushes as they were before edges were read as points of
  P^1(F_p): the table keyed by the echelon form mod p of each orbit
  member's image in R_k / p R_k (``residue_image``), and each
  push (T_ell, w_p, w_q) one conjugation of the ideal's rows by the
  step's or the edge's witness, read off by ``ssgraph._rref_mod``; the
  oracle for ``ShimuraGraph.brandt_edges``, ``_wp_perm`` and
  ``_wq_edge_perm``; ``residue_image`` (moved from ``ssgraph``) is
  that key, and keys the norm-ell ideals of the vertex tests;
* ``gross_shimura_per_edge`` -- the edge counts by one embedding
  search in each Eichler order, the oracle for ``gross.gross_shimura``;
* ``unit_count``, ``gross_modular_frac`` and ``gross_shimura_frac`` --
  u(D) = #(O_D^* / {+-1}), moved from ``gross``, and the Gross vectors as
  the ``Fraction`` tuples ``gross.gross_modular`` and
  ``gross.gross_shimura`` returned before they returned the counts:
  count / 2u(D) at a vertex, count / length at an edge;
* ``rref_mod_fresh`` -- ``ssgraph._rref_mod`` as it was before it
  eliminated in place: a fresh list per row operation, over all columns;
* ``ss_oracle_reference`` -- the supersingular count by a sweep of the
  Hasse polynomial over F_{q^2}, one function call per product: the only
  such sweep, the oracle the closed form of ``ssgraph.ss_oracle`` (class
  numbers) is checked against;
* ``solve_frac`` -- one dense ``Fraction`` solve with the free variables set
  to 0, and ``decompose_by_solve_frac``, the Eisenstein decomposition by one
  such solve per depth, the oracle for ``certify.decompose_eisenstein``;
* the ``Fraction`` vector helpers the Gross layer had: ``vec_sub``,
  ``vec_scale``, ``is_zero``, ``monodromy_pairing``,
  ``project_degree_zero``, ``eisenstein_modular`` and
  ``eisenstein_shimura``; and ``tower_vectors``, which turns an integer
  tower (den, counts) back into ``Fraction`` tuples.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, gcd

import lattice_oracle
from shimura_pq.compgroup import MGVertex, MultiGraph
from shimura_pq.gross import (graph_eichler_units, gross_modular, gross_shimura,
                              gross_tower_modular, optimal_embeddings, tower_class_number)
from shimura_pq.linalg import det_bareiss
from shimura_pq.ntheory import is_prime, kronecker
from shimura_pq.quat import (Quat, equiv_witness, ideal_norm, make_algebra, maximal_order,
                             norm_ideals, reduce_ideal, right_order, units)
from shimura_pq.ssgraph import VertexClass, VertexSet, _fingerprint, _image_mod, _rref_mod


def make_multigraph(nvertices, edges):
    """Plain multigraph on generic vertices (used by tests and oracles)."""
    verts = [MGVertex(label=f"v{i}", side="s1", kind="generic") for i in range(nvertices)]
    return MultiGraph(verts, edges)


def spanning_trees(mg):
    """Matrix-tree count, the order of the component group."""
    lap = mg.laplacian()
    n = len(mg)
    reduced = [row[: n - 1] for row in lap[: n - 1]]
    return abs(det_bareiss(reduced))


@dataclass
class PotentialAssignment:
    values: tuple
    integral: bool


def k_law_solve(mg, source, sink, current):
    """Solve the node law: sum_D N(C,D)(v(C) - v(D)) = +current at the sink,
    -current at the source, 0 elsewhere.

    Returns the rational potential (normalized to minimum 0, unique up to the
    constant that was fixed) and whether an integral solution exists, which
    happens iff current*(source - sink) dies in the component group.
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    if not mg.is_connected():
        raise ValueError("graph is not connected")
    n = len(mg)
    lap = mg.laplacian()
    b = [Fraction(0)] * n
    b[sink] = Fraction(current)
    b[source] = -Fraction(current)
    cols = [[lap[i][j] for j in range(n - 1)] for i in range(n)]
    sol = solve_frac(cols, b)
    if sol is None:
        raise ArithmeticError("node-law system is inconsistent")
    values = sol + [Fraction(0)]
    lo = min(values)
    values = tuple(v - lo for v in values)
    integral = all(v.denominator == 1 for v in values)
    return PotentialAssignment(values=values, integral=integral)


def element_order(mg, va, vb):
    """Order of the class of (va - vb) in the component group.

    k(va - vb) lies in the image of the reduced Laplacian L iff k L^{-1} c is
    integral, so the order is the lcm of the denominators of the rational
    solution of L x = c (no Smith form needed)."""
    n = len(mg)
    lap = mg.laplacian()
    reduced = [[lap[i][j] for j in range(n - 1)] for i in range(n - 1)]
    c = [0] * (n - 1)
    if va < n - 1:
        c[va] += 1
    if vb < n - 1:
        c[vb] -= 1
    sol = solve_frac(reduced, c)
    if sol is None:
        raise ArithmeticError("reduced Laplacian is singular (graph disconnected?)")
    order = 1
    for x in sol:
        d = x.denominator
        order = order * d // gcd(order, d)
    return order


def apply_wp(graph, v):
    """Path-vector action of the dual-isogeny involution (global sign -1)."""
    out = [Fraction(0)] * len(v)
    for i, x in enumerate(v):
        out[graph.wp_perm[i]] = -x
    return tuple(out)


def apply_wq_edges(graph, v):
    out = [Fraction(0)] * len(v)
    for i, x in enumerate(v):
        out[graph.wq_edge_perm[i]] = x
    return tuple(out)


def dense(rows):
    """The square matrix of sparse Brandt rows: [i][j] counts the ell-steps
    from i landing on j."""
    mat = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, m in row:
            mat[i][j] = m
    return mat


def brandt_matrix(graph, ell):
    """Integer matrix of the ell-th Hecke operator on vertices; row sums are
    ell+1.

    Row index is the source: entry [k][t] counts norm-ell steps from k
    landing at t.
    """
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if graph.p % ell == 0 or graph.q % ell == 0:
        raise ValueError("ell must be coprime to pq")
    return dense(graph.brandt_vertices(ell))


def neighbors_by_locate(vset, k, ell):
    """List of (norm-ell ideal L of R_k, target class m, witness z) with
    I_k * L = I_m * z, one ``locate`` of I_k * L per ideal."""
    rec = vset.classes[k]
    out = []
    for lam in norm_ideals(rec.right_order, ell):
        j = rec.ideal.mul(lam)
        m, z = vset.locate(j)
        out.append((lam, m, z))
    return out


def steps_per_direction(vset, k, m, ell):
    """The ell-steps from k landing at m, as (L, m, z) with L a lattice:
    the vectors of norm ell n_k n_m of conj(I_m) I_k by their own search,
    one per orbit of the units of R_m, and L = conj(I_k) I_m z / n_k."""
    rec, target = vset.classes[k], vset.classes[m]
    out = []
    seen = set()
    for x in vset.connector(m, k).norm_vectors(ell * rec.norm * target.norm):
        if x in seen:
            continue
        seen.update(u * x for u in vset.units_of(m))
        z = x / target.norm
        out.append((vset.connector(k, m).mul_elem(z / rec.norm), m, z))
    return out


def steps_by_quats(vset, k, m, ell):
    """``VertexSet._steps(k, m, ell)`` as it was: (image, m, z) per orbit of
    the units of R_m on the connector vectors, all in ``Quat`` objects."""
    rec, target = vset.classes[k], vset.classes[m]
    order, mul4 = rec.right_order, vset.alg.mul4
    lat = vset.connector(k, m)
    out = []
    seen = set()
    for x in vset._connector_vectors(m, k, ell * rec.norm * target.norm):
        if x in seen:
            continue
        seen.update(u * x for u in vset.units_of(m))
        z = x / target.norm
        w = z / rec.norm
        coords = [order._coords(mul4(r, w.num), lat.den * w.den) for r in lat.rows]
        out.append((_image_mod(coords, ell), m, z))
    return out


def step_witness_by_quats(vset, t, z):
    """``VertexSet.step_witness(t, z)`` as it was, in ``Quat`` objects."""
    rec = vset.classes[t]
    x = min((v * z for v in rec.ideal.min_vectors()), key=Quat.key)
    y = z * x.conj() * (z.conj() * z).inv()  # n_t z z0 = z conj(x) / nrd(z)
    lat = rec.right_order.mul_elem(y)
    u = min(vset.units_of(t), key=lambda u: lat.coords_of(u * y)[::-1])
    return u * z


def wq_by_full_scan(vset):
    """(wq_perm, wq_witnesses): the class and witness of I_k T_k for each k,
    by ``locate`` with the full fingerprint scan."""
    perm, witnesses = [], []
    for rec in vset.classes:
        ts = lattice_oracle.two_sided_prime(rec.right_order, vset.q)
        t, y = vset.locate(rec.ideal.mul(ts))
        perm.append(t)
        witnesses.append(y)
    return perm, witnesses


def _vertex_class(ideal, order):
    """The ``VertexClass`` record of ideal, a left ideal of order."""
    n = ideal_norm(ideal, order)
    ro = right_order(ideal, n)
    unit_list = units(ro)
    return VertexClass(ideal=ideal, right_order=ro, weight=len(unit_list) // 2, norm=n,
                       fingerprint=_fingerprint(ideal, n), units=unit_list)


def vertex_classes_by_equivalence(q, alg=None):
    """``ssgraph.vertex_classes`` as it was: for every 2-neighbour I_k L of
    every class k, reduce it, take its fingerprint and run an equivalence
    test against each known class with that fingerprint.  The sorted class
    ideals then make the ``VertexSet``, which checks the mass and derives
    w_q by ``locate``."""
    if not is_prime(q) or q < 5:
        raise ValueError(f"q must be a prime >= 5, got {q}")
    alg = alg or make_algebra(q)
    order = maximal_order(alg)
    recs = [_vertex_class(order, order)]
    queue = [0]
    while queue:
        k = queue.pop(0)
        for p2 in norm_ideals(recs[k].right_order, 2):
            j = recs[k].ideal.mul(p2)
            jr, _ = reduce_ideal(j, order)
            njr = ideal_norm(jr, order)
            fp = _fingerprint(jr, njr)
            hit = False
            for rec in recs:
                if rec.fingerprint == fp and equiv_witness(
                        rec.ideal, jr, order, n1=rec.norm, n2=njr) is not None:
                    hit = True
                    break
            if not hit:
                recs.append(_vertex_class(jr, order))
                queue.append(len(recs) - 1)
    recs.sort(key=lambda r: (-r.weight, r.ideal.key()))
    return VertexSet(alg, order, [r.ideal for r in recs])


def wp_perm_by_conjugation(graph):
    """w_p on edges: e = (k, P) goes to the edge at t(e) whose ideal is the
    lattice y conj(P) y^-1, y the witness of e."""
    lookup = rref_edge_lookup(graph)
    return [lattice_oracle.locate_edge(
        graph, lookup, e.target,
        lattice_oracle.conj_by_integer(e.ideal.conj_lattice(), e.witness))
        for e in graph.edges]


def wq_edge_perm_by_conjugation(graph):
    """w_q on edges: e = (k, P) goes to the edge at w_q(k) whose ideal is the
    lattice y P y^-1, y the w_q witness of k."""
    vset, lookup = graph.vset, rref_edge_lookup(graph)
    return [lattice_oracle.locate_edge(
        graph, lookup, vset.wq_perm[e.source],
        lattice_oracle.conj_by_integer(e.ideal, vset.wq_witnesses[e.source]))
        for e in graph.edges]


def residue_image(order, lat, p):
    """The image of lat in order / p order (``ssgraph._image_mod`` of its
    basis coordinates) if p order <= lat <= order with index p^2, else
    None: the key of a norm-p ideal before ideals were read as lines."""
    return _image_mod(lat.coords_in(order), p)


def rref_edge_lookup(graph):
    """(vertex k, image of P in R_k / p R_k) -> edge, for each orbit member
    P of each edge, the image by ``residue_image``."""
    lookup = {}
    for i, e in enumerate(graph.edges):
        order = graph.vset.classes[e.source].right_order
        for member in e.orbit:
            lookup[(e.source, residue_image(order, member, graph.p))] = i
    return lookup


def conjugate_edge_rref(graph, lookup, vertex, rows, den, y):
    """The edge at vertex whose ideal has the image mod p of y L y^-1, for
    the lattice L spanned by rows / den, or None: the rows y r conj(y) /
    (den nrd(y)) in coordinates of R_vertex, read off by ``_rref_mod``."""
    mul4, yn = graph.vset.alg.mul4, y.num
    yc = (yn[0], -yn[1], -yn[2], -yn[3])
    den *= graph.vset.alg.nrd4(yn)
    order = graph.vset.classes[vertex].right_order
    coords = [order._coords(mul4(mul4(yn, r), yc), den) for r in rows]
    image = None if None in coords else _rref_mod(coords, graph.p)
    return lookup.get((vertex, image))


def brandt_edges_rref(graph, ell):
    """Sparse rows of T_ell on edges: each edge (k, P) pushed through each
    ell-step (L, m, z) of k by conjugating the rows of ell P by z."""
    lookup, out = rref_edge_lookup(graph), []
    for e in graph.edges:
        rows = [tuple(ell * x for x in r) for r in e.ideal.rows]
        row = Counter(conjugate_edge_rref(graph, lookup, m, rows, e.ideal.den, z)
                      for _, m, z in graph.vertex_neighbors(e.source, ell))
        out.append(sorted(row.items()))
    return out


def wp_perm_rref(graph):
    """w_p on edges: the rows of conj(P) conjugated by the edge's witness."""
    lookup = rref_edge_lookup(graph)
    return [conjugate_edge_rref(graph, lookup, e.target,
                                [(r[0], -r[1], -r[2], -r[3]) for r in e.ideal.rows],
                                e.ideal.den, e.witness)
            for e in graph.edges]


def wq_edge_perm_rref(graph):
    """w_q on edges: the rows of P conjugated by the w_q witness of k."""
    vset, lookup = graph.vset, rref_edge_lookup(graph)
    return [conjugate_edge_rref(graph, lookup, vset.wq_perm[e.source], e.ideal.rows,
                                e.ideal.den, vset.wq_witnesses[e.source])
            for e in graph.edges]


def gross_shimura_per_edge(graph, D):
    """Edge counts, the embeddings into each End(e), by one
    ``optimal_embeddings`` search in each Eichler order."""
    return tuple(optimal_embeddings(e.eichler, D, graph_eichler_units(graph, i))
                 for i, e in enumerate(graph.edges))


def unit_count(D):
    """#(O_D^* / {+-1})."""
    return 3 if D == -3 else 2 if D == -4 else 1


def gross_modular_frac(vset, D):
    """Vertex vector with coefficient (embeddings into End(E_k)) / 2u(D)."""
    return tuple(Fraction(c, 2 * unit_count(D)) for c in gross_modular(vset, D))


def gross_shimura_frac(graph, D):
    """Edge vector with coefficient (embeddings into End(e)) / length(e)."""
    return tuple(Fraction(c, e.length) for c, e in zip(gross_shimura(graph, D), graph.edges))


def ss_oracle_reference(q):
    """(number of supersingular j-invariants, number of F_q-rational ones)
    from the roots of the Hasse polynomial H = sum C(m,i)^2 x^i
    (m = (q-1)/2) over F_{q^2}, the supersingular Legendre parameters, with
    j = 256 (x^2-x+1)^3 / (x^2 (x-1)^2).  Every F_{q^2} product is a call of
    ``mul``.  This is the only Hasse sweep left: ``ssgraph.ss_oracle`` reads
    both numbers off class numbers, and is checked against this."""
    if not is_prime(q) or q < 5:
        raise ValueError(f"q must be a prime >= 5, got {q}")
    m = (q - 1) // 2
    coeffs = [comb(m, i) ** 2 % q for i in range(m + 1)]
    coeffs.reverse()  # Horner from the top degree
    d = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)

    def mul(x, y):
        u1, v1 = x
        u2, v2 = y
        return ((u1 * u2 + d * v1 * v2) % q, (u1 * v2 + u2 * v1) % q)

    def inv(x):
        u, v = x
        n = (u * u - d * v * v) % q
        ninv = pow(n, -1, q)
        return (u * ninv % q, (-v) * ninv % q)

    def hasse(lam):
        acc = (0, 0)
        for c in coeffs:
            acc = mul(acc, lam)
            acc = ((acc[0] + c) % q, acc[1])
        return acc

    roots = []
    for u in range(q):
        if hasse((u, 0)) == (0, 0):
            roots.append((u, 0))
    for v in range(1, (q - 1) // 2 + 1):
        for u in range(q):
            lam = (u, v)
            if hasse(lam) == (0, 0):
                roots.append(lam)
                roots.append((u, (q - v) % q))
    jset = set()
    for lam in roots:
        lam2 = mul(lam, lam)
        num = ((lam2[0] - lam[0] + 1) % q, (lam2[1] - lam[1]) % q)
        num3 = mul(mul(num, num), num)
        den = mul(lam2, ((lam[0] - 1) % q, lam[1]))
        den = mul(den, ((lam[0] - 1) % q, lam[1]))
        j = mul(((256 % q) * num3[0] % q, (256 % q) * num3[1] % q), inv(den))
        jset.add(j)
    rational = sum(1 for j in jset if j[1] == 0)
    return len(jset), rational


def rref_mod_fresh(rows, p):
    """The nonzero rows of the reduced row echelon form of rows over F_p,
    as a tuple of tuples: equal exactly when the spans mod p are equal."""
    rows = [[x % p for x in r] for r in rows]
    out = []
    for col in range(len(rows[0])):
        for idx, r in enumerate(rows):
            if r[col]:
                break
        else:
            continue
        piv = rows.pop(idx)
        inv = pow(piv[col], -1, p)
        piv = [x * inv % p for x in piv]
        for r in rows + out:
            f = r[col]
            if f:
                r[:] = [(x - f * y) % p for x, y in zip(r, piv)]
        out.append(piv)
    return tuple(tuple(r) for r in out)


def solve_frac(a, b):
    """One solution x of a*x = b over Fraction, or None if inconsistent.

    Free variables are set to 0; the pivot choice is deterministic, so the
    returned particular solution is canonical for a given input.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n] - sum(aug[i][j] * x[j] for j in range(n) if j != col)
    return x


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


def project_degree_zero(graph, v):
    """Orthogonal projection onto degree zero for the monodromy pairing."""
    a = eisenstein_shimura(graph)
    w = graph.lengths
    coeff = monodromy_pairing(v, a, w) / monodromy_pairing(a, a, w)
    return vec_sub(v, vec_scale(a, coeff))


def tower_vectors(tower, weights):
    """The Gross vectors g_n[j] = n_n[j] / (den w_j) of an integer tower
    (den, [n_1, ..., n_N]), as tuples of Fractions: (2, the vertex counts)
    with weights 1, or (1, the edge counts) with the edge lengths."""
    den, nums = tower
    return [tuple(Fraction(x, den * w) for x, w in zip(v, weights)) for v in nums]


def decompose_by_solve_frac(graph, ell, n_max):
    """``certify.decompose_eisenstein`` as it was: one dense ``Fraction``
    solve of the vertex-by-depth system per depth, on the tower as
    ``Fraction`` vectors."""
    if ell in (graph.p, graph.q) or not is_prime(ell):
        raise ValueError("auxiliary prime must be a prime distinct from p and q")
    if kronecker(-4, graph.q) == 1:
        return None
    vset = graph.vset
    towers = tower_vectors(gross_tower_modular(graph, ell, n_max), [1] * len(vset))
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
