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
  per norm-ell ideal, the oracle for ``VertexSet.neighbors``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from shimura_pq.compgroup import MGVertex, MultiGraph
from shimura_pq.linalg import det_bareiss, solve_frac
from shimura_pq.ntheory import is_prime
from shimura_pq.quat import norm_ideals


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
