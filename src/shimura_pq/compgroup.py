"""Quotient graph by w_q, regular-model blow-up, component groups, K-law.

The component group of the Jacobian's special fiber is the critical group of
the blown-up quotient graph (cokernel of its Laplacian on degree zero);
integral solvability of the Kirchhoff-law system decides whether a given
multiple of a vertex-class difference dies in it.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .linalg import det_bareiss, smith_normal_form, solve_bareiss

# side is "s1", "s2" or "exc"; kind is "J", "G", "generic", "exc2" or "exc3"
MGVertex = namedtuple("MGVertex", "label side kind orbit weight", defaults=((), 1))


class MultiGraph:
    """Undirected multigraph; edges carry integer lengths (1 = ordinary)."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = sorted((min(i, j), max(i, j), ln) for i, j, ln in edges)

    def __len__(self):
        return len(self.vertices)

    def labels(self):
        return [v.label for v in self.vertices]

    def adjacency(self):
        n = len(self.vertices)
        mat = [[0] * n for _ in range(n)]
        for i, j, _ in self.edges:
            mat[i][j] += 1
            mat[j][i] += 1
        return mat

    def laplacian(self):
        adj = self.adjacency()
        n = len(self.vertices)
        return [[(sum(adj[i]) if i == j else 0) - adj[i][j] for j in range(n)]
                for i in range(n)]

    def is_connected(self):
        if not self.vertices:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j, c in enumerate(adj[i]):
                if c and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(self.vertices)


def quotient_by_wq(graph):
    """Quotient of the bipartite dual graph by the Frobenius involution.

    Vertices are w_q-orbits on each of the two sides; edges are w_q-orbits
    of edges, keeping their lengths.  The two swapped exceptional edges of
    equal length collapse to a single exceptional edge.
    """
    vset = graph.vset
    sigma = vset.wq_perm
    orbits = []
    orbit_of = {}
    for k in range(len(vset)):
        if sigma[k] < k:
            continue
        orbit = (k,) if sigma[k] == k else (k, sigma[k])
        orbit_of.update({m: len(orbits) for m in orbit})
        orbits.append(orbit)

    def classify(orbit):
        w = vset.classes[orbit[0]].weight
        if len(orbit) == 1 and w == 2:
            return "J", w
        if len(orbit) == 1 and w == 3:
            return "G", w
        return "generic", w

    vertices = []
    for side in ("1", "2"):
        gen_count = 0
        for orbit in orbits:
            kind, w = classify(orbit)
            if kind == "generic":
                gen_count += 1
                label = f"j{side}_{gen_count}"
            else:
                label = f"{kind}{side}"
            vertices.append(MGVertex(label=label, side=f"s{side}", kind=kind,
                                     orbit=orbit, weight=w))
    norb = len(orbits)
    tau = graph.wq_edge_perm
    edges = []
    for i, e in enumerate(graph.edges):
        if tau[i] < i:
            continue
        edges.append((orbit_of[e.source], norb + orbit_of[e.target], e.length))
    return MultiGraph(vertices, edges)


def blow_up(mg):
    """Replace each length-l edge by a chain of l unit edges through l-1 new
    exceptional vertices; the new vertex on a length-2 chain is the
    exceptional component used by the criterion."""
    vertices = list(mg.vertices)
    edges = []
    n2 = n3 = 0
    for i, j, ln in mg.edges:
        if ln == 1:
            edges.append((i, j, 1))
            continue
        chain = [i]
        for step in range(ln - 1):
            if ln == 2:
                label = "exc2" if n2 == 0 else f"exc2_{n2}"
            elif ln == 3:
                label = f"exc3_{step + 1}" if n3 == 0 else f"exc3_{n3}_{step + 1}"
            else:
                label = f"exc{ln}_{i}_{j}_{step}"
            vertices.append(MGVertex(label=label, side="exc",
                                     kind=f"exc{ln}", orbit=()))
            chain.append(len(vertices) - 1)
        chain.append(j)
        if ln == 2:
            n2 += 1
        if ln == 3:
            n3 += 1
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, 1))
    return MultiGraph(vertices, edges)


def component_group(mg):
    """Invariant factors (> 1) of the critical group of a unit-length graph.

    The reduced Laplacian L is nonsingular with |det L| = the group order D,
    and D Z^n lies inside L Z^n, so the Smith form may be computed with all
    entries reduced mod D (plain Smith form on a few dozen rows explodes).
    A tree or a single vertex has D = 1: every factor mod 1 is 1, so []."""
    if any(ln != 1 for _, _, ln in mg.edges):
        raise ValueError("component_group expects a blown-up (unit-length) graph")
    if not mg.is_connected():
        raise ValueError("graph is not connected")
    lap = mg.laplacian()
    n = len(mg)
    reduced = [row[: n - 1] for row in lap[: n - 1]]
    order = abs(det_bareiss(reduced))
    diag = smith_normal_form(reduced, modulus=order)
    factors = [gcd(d, order) for d in diag]
    prod = 1
    for f in factors:
        prod *= f
    if prod != order:
        raise ArithmeticError("invariant factors do not multiply to the group order")
    return [f for f in factors if f > 1]


def lemma_general_check(mg_blown, p):
    """Instance check that (p+1)(exceptional - J) is nonzero in the component
    group for every other component J, via K-law non-integrality.

    One elimination serves every J: with the last potential fixed at 0 the
    node law is the reduced Laplacian system L v = (p+1)(e_exc - e_J), and
    v is integral iff d v = d L^-1 (p+1)(e_exc - e_J) is divisible by d."""
    exc = [i for i, v in enumerate(mg_blown.vertices) if v.kind == "exc2"]
    if len(exc) != 1:
        return {"applicable": False, "reason": f"{len(exc)} length-2 exceptional vertices"}
    if not mg_blown.is_connected():
        raise ValueError("graph is not connected")
    jcal = exc[0]
    m = len(mg_blown) - 1
    others = [i for i in range(m + 1) if i != jcal]
    rhs = [[(p + 1) * ((r == jcal) - (r == i)) for i in others] for r in range(m)]
    d, dv = solve_bareiss([row[:m] for row in mg_blown.laplacian()[:m]], rhs)
    per_vertex = {mg_blown.vertices[i].label: any(dv[r][c] % d for r in range(m))
                  for c, i in enumerate(others)}
    return {
        "applicable": True,
        "holds_for_all": all(per_vertex.values()),
        "per_vertex": per_vertex,
    }


def expected_degree(vertex, p):
    """Degree predicted for a quotient vertex by the exact repartition counts."""
    if vertex.side == "exc":
        return None
    if len(vertex.orbit) == 2:
        return Fraction(p + 1)
    if vertex.kind == "J":
        return Fraction(p + 3, 4)
    if vertex.kind == "G":
        return Fraction(p + 1, 6) if p % 3 == 2 else Fraction(p + 5, 6)
    return Fraction(p + 1, 2)


def degree_report(mg_blown, p, q):
    """Per-vertex comparison with the exact degree formulas, plus the
    leading-term adjacency diagnostic (no pass/fail: the error term in the
    pairwise counts has an unspecified constant)."""
    adj = mg_blown.adjacency()
    degs = [sum(row) for row in adj]
    rows = []
    all_match = True
    for i, v in enumerate(mg_blown.vertices):
        exp = expected_degree(v, p)
        if exp is None:
            continue
        match = Fraction(degs[i]) == exp
        all_match = all_match and match
        rows.append({"vertex": v.label, "degree": degs[i],
                     "expected": str(exp), "match": match})
    mass = Fraction(q - 1, 12)
    s1 = [i for i, v in enumerate(mg_blown.vertices) if v.side == "s1"]
    s2 = [i for i, v in enumerate(mg_blown.vertices) if v.side == "s2"]
    pair_rows = []
    nonzero = True
    for i in s1:
        for j in s2:
            vi, vj = mg_blown.vertices[i], mg_blown.vertices[j]
            eps = 2 if (len(vi.orbit) == 1 and len(vj.orbit) == 1) else 1
            lead = Fraction(p + 1) / (mass * eps * vi.weight * vj.weight)
            pair_rows.append({"pair": [vi.label, vj.label], "count": adj[i][j],
                              "leading_term": str(lead)})
            if adj[i][j] == 0:
                nonzero = False
    handshake = sum(degs) == 2 * len(mg_blown.edges)
    return {
        "vertex_degrees": rows,
        "all_degrees_match": all_match,
        "handshake": handshake,
        "pairwise_counts": pair_rows,
        "all_pairwise_positive": nonzero,
    }


def to_dot(mg, name="quotient"):
    lines = [f"graph {name} {{"]
    for i, v in enumerate(mg.vertices):
        shape = "box" if v.side == "exc" else "ellipse"
        lines.append(f'  v{i} [label="{v.label}", shape={shape}];')
    for i, j, ln in mg.edges:
        attr = f' [label="len {ln}"]' if ln != 1 else ""
        lines.append(f"  v{i} -- v{j}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
