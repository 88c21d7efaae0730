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
* ``wq_by_full_scan`` -- w_q on vertices by one ``locate`` per class with
  no class tried first, the oracle for ``ssgraph._attach_wq``;
* ``vertex_classes_by_equivalence`` -- the class search with one reduced
  product, fingerprint and equivalence test per 2-neighbour, the oracle for
  ``ssgraph.vertex_classes``;
* ``wp_perm_by_conjugation`` and ``wq_edge_perm_by_conjugation`` -- w_p
  and w_q on edges by conjugating each edge ideal as a lattice
  (``lattice_oracle.conj_by_integer``) and looking it up
  (``lattice_oracle.locate_edge``), the oracle for the maps that
  ``build_graph`` reads off the conjugated rows;
* ``gross_shimura_per_edge`` -- the edge Gross vector by one embedding
  search in each Eichler order, the oracle for ``gross.gross_shimura``;
* ``rref_mod_fresh`` -- ``ssgraph._rref_mod`` as it was before it
  eliminated in place: a fresh list per row operation, over all columns;
* ``ss_oracle_reference`` -- the supersingular count with one function call
  per F_{q^2} product, the oracle for ``ssgraph.ss_oracle``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import lattice_oracle
from shimura_pq.compgroup import MGVertex, MultiGraph
from shimura_pq.gross import graph_eichler_units, optimal_embeddings
from shimura_pq.linalg import det_bareiss, solve_frac
from shimura_pq.ntheory import is_prime
from shimura_pq.quat import (equiv_witness, ideal_norm, make_algebra, maximal_order,
                             norm_ideals, reduce_ideal, two_sided_prime)
from shimura_pq.ssgraph import VertexSet, _attach_wq, _class_record, _fingerprint


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


def wq_by_full_scan(vset):
    """(wq_perm, wq_witnesses): the class and witness of I_k T_k for each k,
    by ``locate`` with the full fingerprint scan."""
    perm, witnesses = [], []
    for rec in vset.classes:
        t, y = vset.locate(rec.ideal.mul(two_sided_prime(rec.right_order, vset.q)))
        perm.append(t)
        witnesses.append(y)
    return perm, witnesses


def vertex_classes_by_equivalence(q, alg=None):
    """``ssgraph.vertex_classes`` as it was: for every 2-neighbour I_k L of
    every class k, reduce it, take its fingerprint and run an equivalence
    test against each known class with that fingerprint."""
    if not is_prime(q) or q < 5:
        raise ValueError(f"q must be a prime >= 5, got {q}")
    alg = alg or make_algebra(q)
    order = maximal_order(alg)
    recs = [_class_record(order, order)]
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
                recs.append(_class_record(jr, order))
                queue.append(len(recs) - 1)
    mass = sum(Fraction(1, r.weight) for r in recs)
    if mass != Fraction(q - 1, 12):
        raise ArithmeticError(f"mass formula violated: {mass} != ({q}-1)/12")
    recs.sort(key=lambda r: (-r.weight, r.ideal.key()))
    vset = VertexSet(q, alg, order, recs, None, None, None)
    _attach_wq(vset)
    return vset


def wp_perm_by_conjugation(graph):
    """w_p on edges: e = (k, P) goes to the edge at t(e) whose ideal is the
    lattice y conj(P) y^-1, y the witness of e."""
    return [lattice_oracle.locate_edge(
        graph, e.target, lattice_oracle.conj_by_integer(e.ideal.conj_lattice(), e.witness))
        for e in graph.edges]


def wq_edge_perm_by_conjugation(graph):
    """w_q on edges: e = (k, P) goes to the edge at w_q(k) whose ideal is the
    lattice y P y^-1, y the w_q witness of k."""
    vset = graph.vset
    return [lattice_oracle.locate_edge(
        graph, vset.wq_perm[e.source],
        lattice_oracle.conj_by_integer(e.ideal, vset.wq_witnesses[e.source]))
        for e in graph.edges]


def gross_shimura_per_edge(graph, D):
    """Edge vector with coefficient (embeddings into End(e)) / length(e),
    one ``optimal_embeddings`` search in each Eichler order."""
    return tuple(
        Fraction(optimal_embeddings(e.eichler, D, graph_eichler_units(graph, i)), e.length)
        for i, e in enumerate(graph.edges)
    )


def ss_oracle_reference(q):
    """``ssgraph.ss_oracle`` as it was before its Horner step was written
    out: every F_{q^2} product is a call of ``mul``, which with ``inv`` is
    the package's ``_fq2_ops``."""
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
