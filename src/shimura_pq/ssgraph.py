"""Dual graph of the special fiber at p of the Shimura curve of discriminant pq.

Vertices are left ideal classes of a fixed maximal order in the definite
quaternion algebra ramified at {q, oo} (equivalently supersingular curves
over F_{q^2}); edges are unit-conjugation orbits of norm-p left ideals of the
right orders (equivalently p-isogenies).  The two Atkin-Lehner involutions
act by dual-isogeny reversal (w_p, with a sign) and by Frobenius transport
through the two-sided norm-q ideal (w_q).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .ntheory import is_prime
from .quat import (
    Lattice,
    Quat,
    equiv_witness,
    ideal_norm,
    make_algebra,
    maximal_order,
    norm_ideals,
    reduce_ideal,
    reduced_discriminant,
    right_order,
    two_sided_prime,
    unit_order,
    units,
)


@dataclass
class VertexClass:
    ideal: Lattice
    right_order: Lattice
    weight: int
    norm: Fraction
    fingerprint: tuple
    rational: bool = False


def _fingerprint(ideal, norm):
    """Counts of lattice vectors of reduced norm k*nrd(I), k = 1, 2, 3.

    The normalized norm form is a left-class invariant, so this is a cheap
    pre-filter before the short-vector equivalence test.
    """
    target = 3 * norm * ideal.den ** 2
    counts = [0, 0, 0]
    unit = norm * ideal.den ** 2
    for _, val in ideal._enum_form(int(target), upto=True):
        r = val / unit
        if r.denominator == 1 and 1 <= r <= 3:
            counts[int(r) - 1] += 1
    return tuple(counts)


class VertexSet:
    """Ideal classes of the fixed maximal order, canonically ordered."""

    def __init__(self, q, alg, order, classes, wq_perm, wq_witnesses, two_sided):
        self.q = q
        self.alg = alg
        self.order = order
        self.classes = classes
        self.wq_perm = wq_perm
        self.wq_witnesses = wq_witnesses
        self.two_sided = two_sided  # per class: two-sided norm-q ideal of R_k
        self._units = {}
        self._connectors = {}

    def __len__(self):
        return len(self.classes)

    @property
    def weights(self):
        return [c.weight for c in self.classes]

    def mass(self):
        return sum(Fraction(1, c.weight) for c in self.classes)

    def units_of(self, k):
        if k not in self._units:
            self._units[k] = units(self.classes[k].right_order)
        return self._units[k]

    def rational_count(self):
        return sum(1 for c in self.classes if c.rational)

    def locate(self, ideal):
        """Class index and witness y with ideal = I_k * y (ideal must be a
        left ideal of the base order)."""
        reduced, z = reduce_ideal(ideal, self.order)
        nr = ideal_norm(reduced, self.order)
        fp = _fingerprint(reduced, nr)
        for k, rec in enumerate(self.classes):
            if rec.fingerprint != fp:
                continue
            w = equiv_witness(rec.ideal, reduced, self.order, n1=rec.norm, n2=nr)
            if w is not None:
                return k, w * z.inv()
        raise ArithmeticError("ideal does not match any class (class set incomplete?)")

    def connector(self, m, k):
        """conj(I_m) * I_k, cached for both directions from one product:
        conj(I_k) * I_m is its conjugate."""
        if (m, k) not in self._connectors:
            lat = self.classes[m].ideal.conj_lattice().mul(self.classes[k].ideal)
            self._connectors[(m, k)] = lat
            self._connectors[(k, m)] = lat if m == k else lat.conj_lattice()
        return self._connectors[(m, k)]

    def neighbors(self, k, ell):
        """List of (norm-ell ideal L of R_k, target class m, witness z) with
        I_k * L = I_m * z, sorted by the key of L.

        Read off the theta series (Pizer 1980): z lies in I_m^-1 I_k, so the
        x = n_m z are the vectors of norm ell n_k n_m of conj(I_m) I_k, and
        the 2 w_m units u of R_m give the same L from u z.  Then
        L = conj(I_k) I_m z / n_k, as conj(I_k) I_k = n_k R_k."""
        rec = self.classes[k]
        ideals = norm_ideals(rec.right_order, ell)
        out = []
        for m, target in enumerate(self.classes):
            seen = set()
            for x in self.connector(m, k).norm_vectors(ell * rec.norm * target.norm):
                if x in seen:
                    continue
                seen.update(u * x for u in self.units_of(m))
                z = x / target.norm
                out.append((self.connector(k, m).mul_elem(z / rec.norm), m, z))
        out.sort(key=lambda step: step[0].key())
        if [lam.key() for lam, _, _ in out] != [lam.key() for lam in ideals]:
            raise ArithmeticError(
                f"vertex {k}: the ell={ell} steps found by enumeration are not its "
                f"{ell + 1} norm-{ell} ideals")
        return out

    def step_witness(self, t, z):
        """The witness y that ``locate`` gives for I_t * z, byte for byte,
        without its lattice products.

        x -> x z maps I_t onto I_t z and multiplies nrd by nrd(z), so the
        least vector of I_t z by key is the least v z over the minimal
        vectors v of I_t, and ``reduce_ideal`` moves I_t z to I_t z z0 with
        z0 = conj(v z) / (n_t nrd z).  The equivalence test then searches
        conj(I_t) I_t z z0 = R_t (n_t z z0): its vectors of the norm asked
        for are the n_t u z z0 with u a unit of R_t, and it picks the one
        with the least reversed coordinates, as ``Lattice.find_norm_vector``
        does.  The witness is u z."""
        rec = self.classes[t]
        x = min((v * z for v in rec.ideal.min_vectors()[1]), key=Quat.key)
        y = z * (x.conj() / z.nrd())  # n_t z z0
        lat = rec.right_order.mul_elem(y)
        u = min(self.units_of(t), key=lambda u: lat.coords_of(u * y)[::-1])
        return u * z


def _class_record(ideal, order):
    ro = right_order(ideal)
    w = unit_order(ro)
    n = ideal_norm(ideal, order)
    return VertexClass(ideal=ideal, right_order=ro, weight=w, norm=n,
                       fingerprint=_fingerprint(ideal, n))


def vertex_classes(q, alg=None):
    """All left ideal classes of a maximal order, by 2-neighbor search.

    Connectivity of the norm-2 step graph follows from strong approximation;
    completeness is independently certified by the Eichler mass formula
    closing exactly (a hard error otherwise).
    """
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


def _attach_wq(vset):
    q = vset.q
    nclasses = len(vset.classes)
    perm = [None] * nclasses
    witnesses = [None] * nclasses
    two_sided = []
    for k, rec in enumerate(vset.classes):
        ts = two_sided_prime(rec.right_order, q)
        two_sided.append(ts)
        t, y = vset.locate(rec.ideal.mul(ts))
        perm[k] = t
        witnesses[k] = y
    vset.wq_perm = perm
    vset.wq_witnesses = witnesses
    vset.two_sided = two_sided
    for k, rec in enumerate(vset.classes):
        rec.rational = perm[k] == k


@dataclass
class Edge:
    source: int
    ideal: Lattice
    orbit: tuple
    eichler: Lattice
    length: int
    target: int
    witness: Quat


class ShimuraGraph:
    """Vertices, oriented edges, and the two Atkin-Lehner actions."""

    def __init__(self, p, q, vset, edges):
        self.p = p
        self.q = q
        self.vset = vset
        self.edges = edges
        # (vertex k, image of P in R_k / p R_k) -> edge, for each orbit member
        # P; a member that does not lie between p R_k and R_k (a damaged
        # cache) gets no entry, and ``validate_records`` names it
        self._edge_lookup = {}
        for i, e in enumerate(edges):
            order = vset.classes[e.source].right_order
            for member in e.orbit:
                image = _residue_image(order, member, p)
                if image is not None:
                    self._edge_lookup[(e.source, image)] = i
        self.wp_perm = None
        self.wq_edge_perm = None
        self._neighbors = {}
        self._brandt_v = {}
        self._brandt_e = {}
        self._right_mult = {}

    def __len__(self):
        return len(self.edges)

    @property
    def lengths(self):
        return [e.length for e in self.edges]

    def edge_mass(self):
        return sum(Fraction(1, e.length) for e in self.edges)

    def locate_edge(self, vertex, ideal):
        image = _residue_image(self.vset.classes[vertex].right_order, ideal, self.p)
        if (vertex, image) not in self._edge_lookup:
            raise ArithmeticError("edge lattice not found at vertex")
        return self._edge_lookup[(vertex, image)]

    # -- vertex-level Hecke neighbors, cached ------------------------------
    def vertex_neighbors(self, k, ell):
        """``VertexSet.neighbors`` of k, cached."""
        if (k, ell) not in self._neighbors:
            self._neighbors[(k, ell)] = self.vset.neighbors(k, ell)
        return self._neighbors[(k, ell)]

    def brandt_vertices(self, ell):
        """Sparse rows of T_ell on vertices: row k lists the sorted pairs
        (m, count), count > 0 being the number of ell-steps from k landing
        at m.  Row sums are ell+1."""
        if ell not in self._brandt_v:
            self._brandt_v[ell] = [
                sorted(Counter(m for _, m, _ in self.vertex_neighbors(k, ell)).items())
                for k in range(len(self.vset))]
        return self._brandt_v[ell]

    def _right_mult_mod_p(self, m):
        """table[s]: the coordinates mod p of b_0 b_s, ..., b_3 b_s over the
        basis b of R_m, one flat tuple, so the rows of beta = sum_s c_s b_s
        acting on R_m / p R_m by right multiplication are sum_s c_s table[s]."""
        if m not in self._right_mult:
            order = self.vset.classes[m].right_order
            basis = order.basis()
            self._right_mult[m] = [tuple(x % self.p for br in basis
                                         for x in order.coords_of(br * bs)) for bs in basis]
        return self._right_mult[m]

    def brandt_edges(self, ell):
        """Sparse rows of T_ell on edges, as ``brandt_vertices``: row i
        counts the ell-steps from edge i landing on each edge.

        The step from e = (k, P) through a neighbour (L, m, z) of k, with
        I_k L = I_m z, lands on the edge at m with ideal
        z (L^-1 (L meet P)) z^-1.  Since nrd L = ell is prime to p, L is
        R_k at p, so L^-1 (L meet P) is P at p and O_R(L) at every other
        prime.  Take alpha in P outside p R_k: it generates P at p, and
        ell alpha lies in ell R_k, which is inside O_R(L).  With
        z O_R(L) z^-1 = R_m the pushed ideal is therefore
        R_m beta + p R_m, beta = z (ell alpha) z^-1.  It contains p R_m, as
        every norm-p left ideal of R_m does, so it is fixed by its image in
        R_m / p R_m = F_p^4: the span mod p of the coordinates of the
        r beta over the basis r of R_m, which is the key of ``_edge_lookup``.
        One conjugation, one back-substitution (the coordinates of beta) and
        the multiplication table of R_m mod p per step, no lattice.
        """
        if ell not in self._brandt_e:
            p, alg, classes = self.p, self.vset.alg, self.vset.classes
            out = []
            for i, e in enumerate(self.edges):
                alpha = _local_generator(e.ideal, classes[e.source].right_order, p)
                if alpha is None:
                    raise ArithmeticError(
                        f"edge {i}: ideal lies in {p} R_{e.source}, so the ell={ell} "
                        f"step has no generator at p (damaged graph cache?)")
                ell_alpha = tuple(ell * x for x in alpha.num)
                row = Counter()
                for _, m, z in self.vertex_neighbors(e.source, ell):
                    # z^-1 = conj(z) / nrd(z), so the denominator of z cancels in beta
                    zn = z.num
                    beta = alg.mul4(alg.mul4(zn, ell_alpha), (zn[0], -zn[1], -zn[2], -zn[3]))
                    c = classes[m].right_order.coords_of(
                        Quat(alg, beta, alpha.den * alg.nrd4(zn)))
                    image = None
                    if c is not None:
                        c0, c1, c2, c3 = c
                        flat = [c0 * a + c1 * b + c2 * d + c3 * f
                                for a, b, d, f in zip(*self._right_mult_mod_p(m))]
                        image = _rref_mod([flat[0:4], flat[4:8], flat[8:12], flat[12:16]], p)
                    j = self._edge_lookup.get((m, image))
                    if j is None:
                        raise ArithmeticError(
                            f"edge {i}: its ell={ell} step lands on no edge ideal at "
                            f"vertex {m} (damaged graph cache?)")
                    row[j] += 1
                out.append(sorted(row.items()))
            self._brandt_e[ell] = out
        return self._brandt_e[ell]


def _local_generator(ideal, order, p):
    """The first HNF basis element of ideal that is not in p * order, or
    None; for a norm-p left ideal of a maximal order it generates the ideal
    at p."""
    for x in ideal.basis():
        if order.coords_of(x / p) is None:
            return x
    return None


def _rref_mod(rows, p):
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


def _residue_image(order, lat, p):
    """The image of lat in order / p order (``_rref_mod`` of its basis
    coordinates) if p order <= lat <= order with index p^2, as for a
    norm-p left ideal of a maximal order, else None.  Such a lattice is the
    preimage of its image, so the image determines it."""
    coords = lat.coords_in(order)
    if coords is None or prod(coords[i][i] for i in range(4)) != p * p:
        return None
    image = _rref_mod(coords, p)
    return image if len(image) == 2 else None


def _orbit(ideal, unit_list):
    """The u P u^-1 = P u^-1 over the units u of R_k, sorted by key; u and
    -u give the same ideal, so one unit of each pair is used."""
    members = {ideal.key(): ideal}  # u = +-1
    for u in unit_list:
        if u.num[1:] != (0, 0, 0) and u.num > tuple(-x for x in u.num):
            lat = ideal.mul_elem(u)
            members.setdefault(lat.key(), lat)
    return tuple(members[key] for key in sorted(members))


def build_graph(p, q, alg=None, vset=None):
    """The full dual graph for the pair (p, q), edges oriented S1 -> S2."""
    if p == q:
        raise ValueError("p and q must be distinct")
    for v in (p, q):
        if not is_prime(v) or v < 5:
            raise ValueError(f"{v} is not a prime >= 5")
    if vset is None:
        vset = vertex_classes(q, alg)
    one = Quat.one(vset.alg)
    edges = []
    for k, rec in enumerate(vset.classes):
        unit_list = vset.units_of(k)
        steps = {lam.key(): (lam, m, z) for lam, m, z in vset.neighbors(k, p)}
        covered = set()
        for key in sorted(steps):
            if key in covered:
                continue
            rep, t, z = steps[key]
            orbit = _orbit(rep, unit_list)
            covered.update(member.key() for member in orbit)
            # The Eichler order R_k meet O_R(P) is Z + P: Z + P lies in both,
            # as P P <= R_k P = P, and the discriminant check below shows it
            # has index p in R_k, as R_k meet O_R(P) has.  Its units are the
            # units of R_k in it, so length |orbit| = w_k checks the orbits.
            eich = rep.add_elem(one)
            length = sum(u in eich for u in unit_list) // 2
            if length * len(orbit) != rec.weight:
                raise ArithmeticError("orbit-stabilizer mismatch at a vertex")
            if reduced_discriminant(eich) != p * q:
                raise ArithmeticError("edge order does not have discriminant pq")
            edges.append(Edge(source=k, ideal=rep, orbit=orbit, eichler=eich,
                              length=length, target=t, witness=vset.step_witness(t, z)))
        if covered != steps.keys():
            raise ArithmeticError("orbits do not cover the p+1 ideals")
    graph = ShimuraGraph(p, q, vset, edges)
    _attach_wp(graph)
    _attach_wq_edges(graph)
    validate_graph(graph)
    return graph


def validate_graph(graph):
    """Raise ArithmeticError naming the first graph invariant it breaks.

    Run on every built graph and every graph loaded from the cache: the
    vertex mass (q-1)/12, w_q an involution on vertices, the edge mass
    (p+1)(q-1)/12, w_p and w_q involutions on edges that keep lengths,
    w_p swapping source and target and w_q moving both by w_q.
    """
    p, q, edges, vset = graph.p, graph.q, graph.edges, graph.vset
    mass = vset.mass()
    if mass != Fraction(q - 1, 12):
        raise ArithmeticError(f"mass formula violated: {mass} != ({q}-1)/12")
    sigma = vset.wq_perm
    if any(sigma[t] != k for k, t in enumerate(sigma)):
        raise ArithmeticError("w_q is not an involution on vertices")
    mass = graph.edge_mass()
    if mass != Fraction((p + 1) * (q - 1), 12):
        raise ArithmeticError(f"edge mass formula violated: {mass} != ({p}+1)({q}-1)/12")
    wp, wq = graph.wp_perm, graph.wq_edge_perm
    for i, e in enumerate(edges):
        dual, moved = edges[wp[i]], edges[wq[i]]
        if wp[wp[i]] != i:
            raise ArithmeticError("w_p is not an involution on edges")
        if dual.source != e.target:
            raise ArithmeticError("w_p does not swap source and target")
        if dual.length != e.length:
            raise ArithmeticError("w_p does not preserve lengths")
        if wq[wq[i]] != i:
            raise ArithmeticError("w_q is not an involution on edges")
        if moved.length != e.length:
            raise ArithmeticError("w_q does not preserve lengths")
        if moved.source != sigma[e.source] or moved.target != sigma[e.target]:
            raise ArithmeticError("w_q does not commute with the source and target maps")


def validate_records(graph):
    """Raise ArithmeticError naming the first record that does not match
    what it is derived from.

    A build derives these records and so needs no check; a graph loaded
    from the cache is checked here, after ``validate_graph``.  Each class
    record against its ideal: the norm, right order, weight and fingerprint
    that the neighbour search and ``locate`` trust.  Each edge record
    against its ideal P: P lies between p R_k and R_k with index p^2, as a
    norm-p left ideal of the source R_k does (``brandt_edges`` and
    ``gross_shimura`` rely on it); the Eichler order Z + P; the length (half
    its unit count); the orbit, the P u over the units u of R_k, which then
    lie between p R_k = p R_k u and R_k = R_k u as well.  Last, the p+1
    norm-p ideals of each R_k: the orbits at k have p+1 members, with p+1
    distinct images mod p (the keys of ``_edge_lookup``).
    """
    p, edges, vset = graph.p, graph.edges, graph.vset
    for k, rec in enumerate(vset.classes):
        if ideal_norm(rec.ideal, vset.order) != rec.norm:
            raise ArithmeticError(f"vertex {k}: norm {rec.norm} is not the reduced norm of its ideal")
        if right_order(rec.ideal) != rec.right_order:
            raise ArithmeticError(f"vertex {k}: right_order is not the right order of its ideal")
        if len(vset.units_of(k)) // 2 != rec.weight:
            raise ArithmeticError(
                f"vertex {k}: weight {rec.weight} is not half the unit count of its right order")
        if _fingerprint(rec.ideal, rec.norm) != rec.fingerprint:
            raise ArithmeticError(f"vertex {k}: fingerprint does not match its ideal")
    one = Quat.one(vset.alg)
    members = Counter()
    for i, e in enumerate(edges):
        k = e.source
        if _residue_image(vset.classes[k].right_order, e.ideal, p) is None:
            raise ArithmeticError(
                f"edge {i}: ideal does not lie between {p} R_{k} and R_{k} with index {p}^2")
        if e.eichler != e.ideal.add_elem(one):
            raise ArithmeticError(f"edge {i}: eichler is not Z + its ideal")
        unit_list = vset.units_of(k)
        if 2 * e.length != sum(u in e.eichler for u in unit_list):
            raise ArithmeticError(
                f"edge {i}: length {e.length} is not half the unit count of its Eichler order")
        if e.orbit != _orbit(e.ideal, unit_list):
            raise ArithmeticError(f"edge {i}: orbit is not the set of its ideal times the units")
        members[k] += len(e.orbit)
    images = Counter(k for k, _ in graph._edge_lookup)
    for k in range(len(vset)):
        if members[k] != p + 1 or images[k] != p + 1:
            raise ArithmeticError(
                f"vertex {k}: its edge orbits have {members[k]} members with {images[k]} "
                f"distinct images mod {p}, not {p + 1}")


def _attach_wp(graph):
    """Dual-isogeny involution: e = (k, P) goes to the edge at t(e) with
    ideal y conj(P) y^{-1}; as a path operator it carries a global -1 sign."""
    graph.wp_perm = [graph.locate_edge(e.target, e.ideal.conj_lattice().conj_by(e.witness))
                     for e in graph.edges]


def _attach_wq_edges(graph):
    """Frobenius on edges: conjugate the subgroup ideal by the vertex
    witness y (with I_k * Q = I_sigma(k) * y).  Since y lies in the
    two-sided norm-q ideal, this conjugation is the Frobenius transport; at
    a fixed vertex it swaps the eigen-ideals of the extra automorphisms."""
    vset = graph.vset
    graph.wq_edge_perm = [
        graph.locate_edge(vset.wq_perm[e.source], e.ideal.conj_by(vset.wq_witnesses[e.source]))
        for e in graph.edges]


# -- independent supersingular count -------------------------------------------

def _fq2_ops(q, d):
    """Product and inverse in F_{q^2} = F_q(sqrt d), on pairs (u, v) = u + v sqrt d."""

    def mul(x, y):
        u1, v1 = x
        u2, v2 = y
        return ((u1 * u2 + d * v1 * v2) % q, (u1 * v2 + u2 * v1) % q)

    def inv(x):
        u, v = x
        n = (u * u - d * v * v) % q
        ninv = pow(n, -1, q)
        return (u * ninv % q, (-v) * ninv % q)

    return mul, inv


def ss_oracle(q):
    """(number of supersingular j-invariants, number of F_q-rational ones).

    Roots of the Hasse polynomial sum C(m,i)^2 x^i (m = (q-1)/2) over F_{q^2}
    are the supersingular Legendre parameters; they map to j-invariants by
    j = 256 (x^2-x+1)^3 / (x^2 (x-1)^2).  Entirely independent of the
    quaternion machinery.  The Horner step acc <- acc lam + c, the inner
    loop over about q^2/2 parameters lam, is written out on the two
    coordinates of acc.
    """
    if not is_prime(q) or q < 5:
        raise ValueError(f"q must be a prime >= 5, got {q}")
    m = (q - 1) // 2
    coeffs = [comb(m, i) ** 2 % q for i in range(m + 1)]
    coeffs.reverse()  # Horner from the top degree
    d = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
    roots = []
    for u in range(q):
        a = 0
        for c in coeffs:
            a = (a * u + c) % q
        if a == 0:
            roots.append((u, 0))
    for v in range(1, (q - 1) // 2 + 1):
        dv = d * v
        for u in range(q):
            a = b = 0
            for c in coeffs:
                a, b = (a * u + b * dv + c) % q, (a * v + b * u) % q
            if a == 0 and b == 0:
                roots.append((u, v))
                roots.append((u, (q - v) % q))
    mul, inv = _fq2_ops(q, d)
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
