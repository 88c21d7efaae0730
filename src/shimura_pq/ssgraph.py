"""Dual graph of the special fiber at p of the Shimura curve of discriminant pq.

Vertices are left ideal classes of a fixed maximal order in the definite
quaternion algebra ramified at {q, oo} (equivalently supersingular curves
over F_{q^2}); edges are unit-conjugation orbits of norm-p left ideals of the
right orders (equivalently p-isogenies).  The two Atkin-Lehner involutions
act by dual-isogeny reversal (w_p, with a sign) and by Frobenius transport
through the two-sided norm-q ideal (w_q).
"""

from collections import Counter, namedtuple
from fractions import Fraction
from math import comb

from .linalg import det_bareiss
from .ntheory import check_primes
from .quat import (
    Quat,
    equiv_witness,
    ideal_norm,
    make_algebra,
    maximal_order,
    norm_ideals,
    reduce_ideal,
    reduced_discriminant,
    right_order,
    two_sided_ideal,
    units,
)


# One left ideal class I: its right order, weight (half the unit count),
# reduced norm, ``_fingerprint`` (all set by ``VertexSet._add_class``) and
# whether w_q fixes it (set by ``_attach_wq``).
VertexClass = namedtuple("VertexClass", "ideal right_order weight norm fingerprint rational",
                         defaults=(False,))


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

    def __init__(self, alg, order):
        self.q = alg.q
        self.alg = alg
        self.order = order
        self.classes = []  # ``_add_class`` appends; ``_attach_wq`` sets the w_q records
        self._units = {}
        self._connectors = {}
        self._conjugates = set()  # the (m, k) whose connector is the conjugate of a product
        self._vectors = {}  # (m, k, n) of a product -> its vectors of norm n, until both are taken

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

    def _add_class(self, ideal):
        """Append the class of ideal, a left ideal of the base order, with
        its weight read off the unit list that ``units_of`` then returns."""
        n = ideal_norm(ideal, self.order)
        ro = right_order(ideal, n)
        unit_list = units(ro)
        self._units[len(self.classes)] = unit_list
        self.classes.append(VertexClass(ideal=ideal, right_order=ro, weight=len(unit_list) // 2,
                                        norm=n, fingerprint=_fingerprint(ideal, n)))

    def rational_count(self):
        return sum(1 for c in self.classes if c.rational)

    def locate(self, ideal, first=None):
        """Class index and witness y with ideal = I_k * y (ideal must be a
        left ideal of the base order).

        The class ``first``, if given, is tested before the fingerprint
        scan, which then runs over the later classes only: the caller
        knows that no earlier class matches.  One class matches, and its
        witness comes from the same equivalence test whichever order the
        classes are tried in, so the answer does not depend on ``first``;
        a right guess saves the fingerprint and the other tests."""
        reduced, z = reduce_ideal(ideal, self.order)
        nr = ideal_norm(reduced, self.order)
        if first is not None:
            rec = self.classes[first]
            w = equiv_witness(rec.ideal, reduced, self.order, n1=rec.norm, n2=nr)
            if w is not None:
                return first, w * z.inv()
        fp = _fingerprint(reduced, nr)
        start = 0 if first is None else first + 1
        for k, rec in enumerate(self.classes[start:], start):
            if rec.fingerprint != fp:
                continue
            w = equiv_witness(rec.ideal, reduced, self.order, n1=rec.norm, n2=nr)
            if w is not None:
                return k, w * z.inv()
        raise ArithmeticError("ideal does not match any class (class set incomplete?)")

    def connector(self, m, k):
        """conj(I_m) * I_k, cached for both directions from one product:
        conj(I_k) * I_m is its conjugate, and (k, m) goes into
        ``_conjugates``."""
        if (m, k) not in self._connectors:
            lat = self.classes[m].ideal.conj_lattice().mul(self.classes[k].ideal)
            self._connectors[(m, k)] = lat
            if m != k:
                self._connectors[(k, m)] = lat.conj_lattice()
                self._conjugates.add((k, m))
        return self._connectors[(m, k)]

    def _connector_vectors(self, m, k, n):
        """The vectors of norm n in conj(I_m) I_k, sorted by key.

        Both directions of a pair are searched on the product lattice, so
        one reduced form serves both: the other direction is its conjugate,
        whose vectors of norm n are the conjugates, sorted again.  A list
        is kept until the other direction takes it."""
        self.connector(m, k)  # the pair's product, which sets _conjugates
        flip = (m, k) in self._conjugates
        key = (k, m, n) if flip else (m, k, n)
        vecs = self._vectors.pop(key, None)
        if vecs is None:
            vecs = self._connectors[key[:2]].norm_vectors(n)
            if m != k:
                self._vectors[key] = vecs
        return sorted((x.conj() for x in vecs), key=Quat.key) if flip else vecs

    def _steps(self, k, m, ell):
        """The ell-steps from k landing at m: (image, m, z) with I_k L = I_m z,
        one per norm-ell left ideal L of R_k in the class of m, and image the
        image of L in R_k / ell R_k (``_image_mod``).

        Read off the theta series (Pizer 1980): z lies in I_m^-1 I_k, so the
        x = n_m z are the vectors of norm ell n_k n_m of conj(I_m) I_k, and
        the 2 w_m units u of R_m give the same L from u z.  Then
        L = conj(I_k) I_m z / n_k, as conj(I_k) I_k = n_k R_k; its image is
        read off the coordinates in R_k of the rows of conj(I_k) I_m times
        z / n_k, with no lattice built (``step_ideal`` builds it)."""
        rec, target = self.classes[k], self.classes[m]
        order, mul4 = rec.right_order, self.alg.mul4
        lat = self.connector(k, m)
        out = []
        seen = set()
        for x in self._connector_vectors(m, k, ell * rec.norm * target.norm):
            if x in seen:
                continue
            seen.update(u * x for u in self.units_of(m))
            z = x / target.norm
            w = z / rec.norm
            coords = [order._coords(mul4(r, w.num), lat.den * w.den) for r in lat.rows]
            out.append((_image_mod(coords, ell), m, z))
        return out

    def step_ideal(self, k, m, z):
        """The ideal L = conj(I_k) I_m z / n_k of the step (image, m, z) from k."""
        return self.connector(k, m).mul_elem(z / self.classes[k].norm)

    def neighbors(self, k, ell):
        """List of (image of L in R_k / ell R_k, target class m, witness z)
        with I_k * L = I_m * z, one per norm-ell left ideal L of R_k, sorted
        by the image: the ``_steps`` from k to every class.

        Each L = conj(I_k) I_m z / n_k is a left R_k-module, as conj(I_k)
        is.  So an L with ell R_k <= L <= R_k of index ell^2 is a left ideal
        of R_k of reduced norm ell, and it is fixed by its image mod ell.
        For a prime ell != q, R_k has exactly ell+1 left ideals of norm ell.
        So ell+1 steps whose ideals have ell+1 distinct such images are
        these ideals, each once, with no ``norm_ideals`` to compare with."""
        out = [step for m in range(len(self)) for step in self._steps(k, m, ell)]
        images = {image for image, _, _ in out}
        if len(out) != ell + 1 or len(images) != ell + 1 or None in images:
            raise ArithmeticError(
                f"vertex {k}: the ell={ell} steps found by enumeration are not its "
                f"{ell + 1} norm-{ell} ideals")
        out.sort(key=lambda step: step[0])
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


def vertex_classes(q, alg=None):
    """All left ideal classes of a maximal order, by 2-neighbour search.

    Breadth first from the order itself, with no equivalence test: the
    norm-2 ideals L of R_k with I_k L in a known class m are the ``_steps``
    from k to m, matched by their images in R_k / 2 R_k.  Each L left over,
    in ``norm_ideals`` order, gives a new class, I_k L reduced, and its
    steps from k are read at once, so the next L left over is in no known
    class either.  The steps from k must then be its three norm-2 ideals.
    The connectors and unit lists found on the way are kept by the sorted
    set.

    Connectivity of the norm-2 step graph follows from strong approximation;
    completeness is independently certified by the Eichler mass formula
    closing exactly (a hard error otherwise).
    """
    check_primes(q=q)
    alg = alg or make_algebra(q)
    order = maximal_order(alg)
    found = VertexSet(alg, order)
    found._add_class(order)
    k = 0
    while k < len(found):  # classes are appended in discovery order: the queue
        rec = found.classes[k]
        ideals = norm_ideals(rec.right_order, 2)
        steps = [step for m in range(len(found)) for step in found._steps(k, m, 2)]
        known = {image for image, _, _ in steps}
        images = [_residue_image(rec.right_order, lam, 2) for lam in ideals]
        for lam, image in zip(ideals, images):
            if image in known:
                continue
            found._add_class(reduce_ideal(rec.ideal.mul(lam), order)[0])
            new = found._steps(k, len(found) - 1, 2)
            steps += new
            known.update(image for image, _, _ in new)
        if Counter(image for image, _, _ in steps) != Counter(images):
            raise ArithmeticError(f"class {k}: its norm-2 steps are not its 3 norm-2 ideals")
        k += 1
    mass = found.mass()
    if mass != Fraction(q - 1, 12):
        raise ArithmeticError(f"mass formula violated: {mass} != ({q}-1)/12")
    perm = sorted(range(len(found)),
                  key=lambda i: (-found.classes[i].weight, found.classes[i].ideal.key()))
    pos = {old: new for new, old in enumerate(perm)}
    vset = VertexSet(alg, order)
    vset.classes = [found.classes[i] for i in perm]
    vset._units = {pos[i]: u for i, u in found._units.items()}
    vset._connectors = {(pos[m], pos[k]): lat for (m, k), lat in found._connectors.items()}
    vset._conjugates = {(pos[m], pos[k]) for m, k in found._conjugates}
    vset._vectors = {(pos[m], pos[k], n): v for (m, k, n), v in found._vectors.items()}
    _attach_wq(vset)
    return vset


def _attach_wq(vset, perm=None, witnesses=None):
    """w_q on vertices: T_k = ``two_sided_ideal`` of I_k, the class
    t = perm[k] of I_k T_k and the witness y with I_k T_k = I_t y, and
    whether w_q fixes each class.  A build finds perm and the witnesses by
    ``locate``; a cache load passes the stored ones."""
    vset.two_sided = [two_sided_ideal(rec.ideal, rec.norm) for rec in vset.classes]
    if perm is None:
        perm = [None] * len(vset.classes)
        witnesses = [None] * len(vset.classes)
        for k, rec in enumerate(vset.classes):
            # w_q is an involution: the class it sends k to is the j with
            # wq_perm[j] == k if one is known, else most likely k itself, and
            # if not k then a later class, as every earlier one has its image
            first = perm.index(k) if k in perm else k
            perm[k], witnesses[k] = vset.locate(rec.ideal.mul(vset.two_sided[k]), first)
    vset.wq_perm = perm
    vset.wq_witnesses = witnesses
    vset.classes = [rec._replace(rational=perm[k] == k) for k, rec in enumerate(vset.classes)]


# An edge: a unit orbit of norm-p left ideals P of R_source, its Eichler
# order Z + P, length (half its unit count), target class and the witness
# y with I_source P = I_target y.
Edge = namedtuple("Edge", "source ideal orbit eichler length target witness")


class ShimuraGraph:
    """Vertices, oriented edges, and the two Atkin-Lehner actions."""

    def __init__(self, p, q, vset, edges):
        self.p = p
        self.q = q
        self.vset = vset
        self.edges = edges
        # (vertex k, image of P in R_k / p R_k) -> edge, for each orbit member
        # P.  The orbit of P is the P u^-1 over the units u of R_k, each of
        # which lies between p R_k and R_k with index p^2 exactly when P
        # does, as P is in its orbit: a damaged cache is rejected here.
        self._edge_lookup = {}
        for i, e in enumerate(edges):
            order = vset.classes[e.source].right_order
            for member in e.orbit:
                image = _residue_image(order, member, p)
                if image is None:
                    raise ArithmeticError(f"edge {i}: ideal does not lie between {p} "
                                          f"R_{e.source} and R_{e.source} with index {p}^2")
                self._edge_lookup[(e.source, image)] = i
        self.wp_perm = None
        self.wq_edge_perm = None
        self._neighbors = {}
        self._brandt_v = {}
        self._brandt_e = {}

    def __len__(self):
        return len(self.edges)

    @property
    def lengths(self):
        return [e.length for e in self.edges]

    def edge_mass(self):
        return sum(Fraction(1, e.length) for e in self.edges)

    def _conjugate_edge(self, vertex, rows, den, y):
        """The edge at vertex whose ideal Q has the image mod p of
        M = y L y^-1, for the lattice L spanned by rows / den, or None.

        The rows y r conj(y) / (den nrd(y)) span M; their coordinates in
        R_vertex (``_coords``) reduced mod p (``_rref_mod``) give its image,
        the key of ``_edge_lookup``, with no lattice built.  The image of M
        is that of Q exactly when M lies in R_vertex and M + p R_vertex = Q,
        as Q contains p R_vertex.  The callers know which M they conjugate:

        * w_p and w_q: M is the ideal itself.  An edge ideal Q contains
          p R_vertex, so an integral M with the image of Q lies in Q;
          conjugation keeps the covolume, and Q has the covolume of L, so
          M = Q.
        * T_ell through a step (L', m, z) of the source k, with
          I_k L' = I_m z and m = vertex: the rows are ell P, and the pushed
          ideal is Q = z (L'^-1 (L' meet P)) z^-1.  As ell R_k lies in L'
          and in conj(L'), ell P lies in L' meet P and L'^-1 contains 1, so
          M = z (ell P) z^-1 lies in Q.  Since nrd L' = ell is prime to p,
          L' is R_k at p, so ell P and L'^-1 (L' meet P) are both P at p:
          M and Q agree at p, and away from p both M + p R_m and Q are R_m.
          So M + p R_m = Q."""
        mul4, yn = self.vset.alg.mul4, y.num
        yc = (yn[0], -yn[1], -yn[2], -yn[3])
        den *= self.vset.alg.nrd4(yn)
        order = self.vset.classes[vertex].right_order
        coords = [order._coords(mul4(mul4(yn, r), yc), den) for r in rows]
        image = None if None in coords else _rref_mod(coords, self.p)
        return self._edge_lookup.get((vertex, image))

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

    def brandt_edges(self, ell):
        """Sparse rows of T_ell on edges, as ``brandt_vertices``: row i
        counts the ell-steps from edge i landing on each edge.

        The step from e = (k, P) through a neighbour (L, m, z) of k lands on
        the edge at m with ideal z (L^-1 (L meet P)) z^-1, which
        ``_conjugate_edge`` finds from the rows of ell P conjugated by z."""
        if ell not in self._brandt_e:
            out = []
            for i, e in enumerate(self.edges):
                rows = [tuple(ell * x for x in r) for r in e.ideal.rows]
                row = Counter()
                for _, m, z in self.vertex_neighbors(e.source, ell):
                    j = self._conjugate_edge(m, rows, e.ideal.den, z)
                    if j is None:
                        raise ArithmeticError(
                            f"edge {i}: its ell={ell} step lands on no edge ideal at "
                            f"vertex {m} (damaged graph cache?)")
                    row[j] += 1
                out.append(sorted(row.items()))
            self._brandt_e[ell] = out
        return self._brandt_e[ell]


def _rref_mod(rows, p):
    """The nonzero rows of the reduced row echelon form of rows over F_p,
    as a tuple of tuples: equal exactly when the spans mod p are equal.

    Eliminates in place: the pivot rows move to the top in column order, and
    as every row below them is zero left of the current column, each row
    operation touches only the columns from the pivot column on."""
    rows = [[x % p for x in r] for r in rows]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        for idx in range(rank, len(rows)):
            if rows[idx][col]:
                break
        else:
            continue
        piv = rows[idx]
        rows[idx] = rows[rank]
        rows[rank] = piv
        inv = pow(piv[col], -1, p)
        if inv != 1:
            for j in range(col, ncols):
                piv[j] = piv[j] * inv % p
        for i, r in enumerate(rows):
            f = r[col]
            if f and i != rank:
                for j in range(col, ncols):
                    r[j] = (r[j] - f * piv[j]) % p
        rank += 1
    return tuple(tuple(r) for r in rows[:rank])


def _residue_image(order, lat, p):
    """The image of lat in order / p order (``_image_mod`` of its basis
    coordinates) if p order <= lat <= order with index p^2, as for a
    norm-p left ideal of a maximal order, else None.  Such a lattice is the
    preimage of its image, so the image determines it."""
    return _image_mod(lat.coords_in(order), p)


def _image_mod(coords, p):
    """The image mod p (``_rref_mod``) of the lattice whose basis has the
    coordinates ``coords`` in an order, if it lies between p order and
    order with index p^2, else None.  With integer coordinates the lattice
    lies in the order with index |det|; when that is p^2 and the image has
    rank 2, the sum of the lattice and p order has index p^2 too, so the
    two are equal and the lattice contains p order."""
    if coords is None or None in coords or abs(det_bareiss(coords)) != p * p:
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


def _edge(vset, k, ideal, target, witness):
    """The edge from k with the norm-p left ideal P = ideal of R_k, with
    the records read off P: its orbit, its Eichler order and its length.

    The Eichler order R_k meet O_R(P) is Z + P: Z + P lies in both, as
    P P <= R_k P = P, and both have index p in R_k (``build_graph`` checks
    the discriminant).  Its units are the units of R_k in it, and the
    length is half their number."""
    unit_list = vset.units_of(k)
    eich = ideal.add_elem(Quat.one(vset.alg))
    return Edge(source=k, ideal=ideal, orbit=_orbit(ideal, unit_list), eichler=eich,
                length=sum(u in eich for u in unit_list) // 2, target=target, witness=witness)


def build_graph(p, q, vset=None):
    """The full dual graph for the pair (p, q), edges oriented S1 -> S2."""
    check_primes(p=p, q=q)
    if vset is None:
        vset = vertex_classes(q)
    edges = []
    for k, rec in enumerate(vset.classes):
        steps = {}
        for _, m, z in vset.neighbors(k, p):
            lam = vset.step_ideal(k, m, z)
            steps[lam.key()] = (lam, m, z)
        covered = set()
        for key in sorted(steps):
            if key in covered:
                continue
            rep, t, z = steps[key]
            edge = _edge(vset, k, rep, t, vset.step_witness(t, z))
            covered.update(member.key() for member in edge.orbit)
            # the discriminant pq shows that Z + P has index p in R_k, and
            # length |orbit| = w_k checks the orbits
            if edge.length * len(edge.orbit) != rec.weight:
                raise ArithmeticError("orbit-stabilizer mismatch at a vertex")
            if reduced_discriminant(edge.eichler) != p * q:
                raise ArithmeticError("edge order does not have discriminant pq")
            edges.append(edge)
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
    """Raise ArithmeticError naming the first relation between the records
    of a loaded graph that fails.

    The cache loader derives every other record from the primary ones
    with the build's code, and ``ShimuraGraph`` rejects an edge ideal that
    does not lie between p R_k and R_k with index p^2.  What no
    derivation gives is checked here, after ``validate_graph``: the w_q
    witness y_k of each class k gives I_k T_k = I_t y_k with
    t = wq_perm[k] (``_attach_wq_edges`` conjugates by y_k); and the edges
    hold the p+1 norm-p ideals of each R_k, each once: the orbits at k have
    p+1 members, with p+1 distinct images mod p (the keys of
    ``_edge_lookup``).
    """
    p, vset = graph.p, graph.vset
    for k, rec in enumerate(vset.classes):
        t, y = vset.wq_perm[k], vset.wq_witnesses[k]
        if rec.ideal.mul(vset.two_sided[k]) != vset.classes[t].ideal.mul_elem(y):
            raise ArithmeticError(f"vertex {k}: its w_q witness y does not give I_{k} T_{k} = I_{t} y")
    members = Counter()
    for e in graph.edges:
        members[e.source] += len(e.orbit)
    images = Counter(k for k, _ in graph._edge_lookup)
    for k in range(len(vset)):
        if members[k] != p + 1 or images[k] != p + 1:
            raise ArithmeticError(
                f"vertex {k}: its edge orbits have {members[k]} members with {images[k]} "
                f"distinct images mod {p}, not {p + 1}")


def _attach_wp(graph):
    """Dual-isogeny involution: e = (k, P) goes to the edge at t(e) with
    ideal y conj(P) y^{-1}; as a path operator it carries a global -1 sign.
    conj(P) is spanned by the conjugates of the rows of P."""
    graph.wp_perm = [
        graph._conjugate_edge(e.target, [(r[0], -r[1], -r[2], -r[3]) for r in e.ideal.rows],
                             e.ideal.den, e.witness)
        for e in graph.edges]
    if None in graph.wp_perm:
        raise ArithmeticError("edge lattice not found at vertex")


def _attach_wq_edges(graph):
    """Frobenius on edges: conjugate the subgroup ideal by the vertex
    witness y (with I_k * Q = I_sigma(k) * y).  Since y lies in the
    two-sided norm-q ideal, this conjugation is the Frobenius transport; at
    a fixed vertex it swaps the eigen-ideals of the extra automorphisms."""
    vset = graph.vset
    graph.wq_edge_perm = [
        graph._conjugate_edge(vset.wq_perm[e.source], e.ideal.rows, e.ideal.den,
                             vset.wq_witnesses[e.source])
        for e in graph.edges]
    if None in graph.wq_edge_perm:
        raise ArithmeticError("edge lattice not found at vertex")


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

    Roots of the Hasse polynomial H = sum C(m,i)^2 x^i (m = (q-1)/2) over
    F_{q^2} are the supersingular Legendre parameters; they map to
    j-invariants by j = 256 (x^2-x+1)^3 / (x^2 (x-1)^2).  Entirely
    independent of the quaternion machinery.  The Horner step
    acc <- acc lam + c, the inner loop, is written out on the two
    coordinates of acc.

    Only about half the parameters are evaluated.  x -> 1 - x maps
    y^2 = x(x-1)(x-lam) onto y^2 = -x(x-1)(x-(1-lam)), a twist of the
    Legendre curve of 1 - lam, with the same j (the formula above is
    visibly invariant under lam -> 1 - lam); supersingularity depends on j
    alone, so lam is a root of H exactly when 1 - lam is.  H has
    coefficients in F_q, so the conjugate of a root is a root too.  Writing
    lam = u + v sqrt(d), the roots with a given v in [0, (q-1)/2] are
    therefore closed under u -> 1 - u, and every u mod q is u' or 1 - u'
    for a u' in [0, (q+1)/2]: each root found there brings (1-u, v) and
    the conjugates (u, -v), (1-u, -v) with it.
    """
    check_primes(q=q)
    m = (q - 1) // 2
    coeffs = [comb(m, i) ** 2 % q for i in range(m + 1)]
    coeffs.reverse()  # Horner from the top degree
    d = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
    half = range((q + 1) // 2 + 1)
    roots = set()
    for u in half:
        a = 0
        for c in coeffs:
            a = (a * u + c) % q
        if a == 0:
            roots.update(((u, 0), ((1 - u) % q, 0)))
    for v in range(1, (q - 1) // 2 + 1):
        dv = d * v
        for u in half:
            a = b = 0
            for c in coeffs:
                a, b = (a * u + b * dv + c) % q, (a * v + b * u) % q
            if a == 0 and b == 0:
                u1 = (1 - u) % q
                roots.update(((u, v), (u, q - v), (u1, v), (u1, q - v)))
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
