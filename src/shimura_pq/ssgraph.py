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
from math import lcm

from .gross import class_number
from .linalg import det_bareiss
from .ntheory import check_primes
from .quat import (
    Lattice,
    Quat,
    _norm4,
    _pair_units,
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
# reduced norm, ``_fingerprint`` and the units of its right order (set by
# ``VertexSet._add_class``); whether w_q fixes it is read off ``wq_perm``.
VertexClass = namedtuple("VertexClass", "ideal right_order weight norm fingerprint units")


def _fingerprint(ideal, norm):
    """Counts of lattice vectors of reduced norm k*nrd(I), k = 1, 2, 3: the
    normalized norm form is a left-class invariant, so this is a cheap
    pre-filter before the short-vector equivalence test."""
    unit = norm * ideal.den ** 2
    counts = [0, 0, 0]
    # 0 < val <= 3 unit, so an exact quotient is 1, 2 or 3
    for _, val in ideal._enum_form(3 * unit, upto=True):
        r, rem = divmod(val, unit)
        if not rem:
            counts[r - 1] += 1
    return tuple(counts)


class VertexSet:
    """Ideal classes of the fixed maximal order, canonically ordered, and
    w_q on them.  The class search (``_discover``, with no ideals) and a
    cache load (the class ideals and wq = (perm, witnesses)) both construct
    the whole set here: the mass check, the T_k, w_q by ``locate`` unless
    passed (``_wq``), then ``_check_wq``, each failure an ArithmeticError."""

    def __init__(self, alg, order, ideals=None, wq=None):
        self.q, self.alg, self.order = alg.q, alg, order
        self.classes = []  # ``_add_class`` appends
        self._connectors = {}
        self._conjugates = set()  # the (m, k) whose connector is the conjugate of a product
        self._vectors = {}  # (m, k, n) of a product -> its vectors of norm n, until both are taken
        if ideals is None:
            self._discover()
        else:
            for ideal in ideals:
                self._add_class(ideal)
        mass = self.mass()
        if mass != Fraction(self.q - 1, 12):
            raise ArithmeticError(f"mass formula violated: {mass} != ({self.q}-1)/12")
        self.two_sided = [two_sided_ideal(c.ideal, c.norm, c.right_order) for c in self.classes]
        self.wq_perm, self.wq_witnesses = self._wq() if wq is None else wq
        self._check_wq()

    def __len__(self):
        return len(self.classes)

    @property
    def weights(self):
        return [c.weight for c in self.classes]

    def mass(self):
        return sum(Fraction(1, c.weight) for c in self.classes)

    def units_of(self, k):
        return self.classes[k].units

    def _add_class(self, ideal):
        """Append the class of ideal, a left ideal of the base order, with
        its weight read off the units of its right order."""
        n = ideal_norm(ideal, self.order)
        ro = right_order(ideal, n)
        unit_list = units(ro)
        self.classes.append(VertexClass(ideal=ideal, right_order=ro, weight=len(unit_list) // 2,
                                        norm=n, fingerprint=_fingerprint(ideal, n),
                                        units=unit_list))

    def rational_count(self):
        return sum(1 for k, t in enumerate(self.wq_perm) if t == k)

    def _discover(self):
        """All left ideal classes of the base order, by 2-neighbour search.

        Breadth first from the order itself, with no equivalence test: the
        norm-2 ideals L of R_k with I_k L in a known class m are the
        ``_steps`` from k to m, matched by their images in R_k / 2 R_k.
        Each L left over, in ``norm_ideals`` order, gives a new class, I_k L
        reduced, whose steps from k are read at once, so the next L left
        over is in no known class either; the steps from k must then be its
        three norm-2 ideals.  The classes are sorted, and the connectors
        found on the way re-keyed.  Strong approximation makes the norm-2
        graph connected; the mass formula certifies completeness."""
        self._add_class(self.order)
        k = 0
        while k < len(self):  # classes are appended in discovery order: the queue
            rec = self.classes[k]
            ideals = norm_ideals(rec.right_order, 2)
            steps = [step for m in range(len(self)) for step in self._steps(k, m, 2)]
            known = {image for image, _, _ in steps}
            images = [_image_mod(lam.coords_in(rec.right_order), 2) for lam in ideals]
            for lam, image in zip(ideals, images):
                if image in known:
                    continue
                self._add_class(reduce_ideal(rec.ideal.mul(lam), self.order)[0])
                new = self._steps(k, len(self) - 1, 2)
                steps += new
                known.update(image for image, _, _ in new)
            if Counter(image for image, _, _ in steps) != Counter(images):
                raise ArithmeticError(f"class {k}: its norm-2 steps are not its 3 norm-2 ideals")
            k += 1
        perm = sorted(range(len(self)),
                      key=lambda i: (-self.classes[i].weight, self.classes[i].ideal.key()))
        pos = {old: new for new, old in enumerate(perm)}
        self.classes = [self.classes[i] for i in perm]
        self._connectors = {(pos[m], pos[k]): lat for (m, k), lat in self._connectors.items()}
        self._conjugates = {(pos[m], pos[k]) for m, k in self._conjugates}
        self._vectors = {(pos[m], pos[k], n): v for (m, k, n), v in self._vectors.items()}

    def _wq(self):
        """w_q on vertices by ``locate``: the class t = perm[k] of I_k T_k
        and the witness y with I_k T_k = I_t y, for each class k."""
        perm, witnesses = [None] * len(self), [None] * len(self)
        for k, rec in enumerate(self.classes):
            # w_q is an involution: the class it sends k to is the j with
            # wq_perm[j] == k if one is known, else most likely k itself, and
            # if not k then a later class, as every earlier one has its image
            first = perm.index(k) if k in perm else k
            perm[k], witnesses[k] = self.locate(rec.ideal.mul(self.two_sided[k]), first)
        return perm, witnesses

    def _check_wq(self):
        """h images and h witnesses, w_q an involution on range(h), and each
        witness y_k gives I_k T_k = I_t y_k with t = wq_perm[k]."""
        h, sigma, witnesses = len(self), self.wq_perm, self.wq_witnesses
        if len(sigma) != h or len(witnesses) != h:
            raise ArithmeticError(f"w_q has {len(sigma)} images and {len(witnesses)} "
                                  f"witnesses for {h} classes")
        if any(t not in range(h) or sigma[t] != k for k, t in enumerate(sigma)):
            raise ArithmeticError("w_q is not an involution on vertices")
        for k, (rec, t, y) in enumerate(zip(self.classes, sigma, witnesses)):
            if rec.ideal.mul(self.two_sided[k]) != self.classes[t].ideal.mul_elem(y):
                raise ArithmeticError(
                    f"vertex {k}: its w_q witness y does not give I_{k} T_{k} = I_{t} y")

    def locate(self, ideal, first=None):
        """Class index and witness y with ideal = I_k * y (ideal must be a
        left ideal of the base order).  The class ``first``, if given, is
        tested before the fingerprint scan, which then runs over the later
        classes only: the caller knows that no earlier class matches.  One
        class matches, and its witness comes from the same equivalence test
        whichever order the classes are tried in, so the answer does not
        depend on ``first``; a right guess saves the other tests."""
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
        ``_conjugates``.  Two need no product: conj(I_k) I_k = n_k R_k
        (R_k's HNF rows scaled), and O I_k = I_k for I_m = O = conj(O)."""
        if (m, k) not in self._connectors:
            rec, ideal = self.classes[m], self.classes[k].ideal
            if ideal == self.order != rec.ideal:
                self.connector(k, m)  # conj(I_m) O is the conjugate of O I_m
                return self._connectors[(m, k)]
            n, ro = rec.norm, rec.right_order
            lat = (Lattice(self.alg, [tuple(n * x for x in r) for r in ro.rows], ro.den) if m == k
                   else ideal if rec.ideal == self.order
                   else rec.ideal.conj_lattice().mul(ideal))
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
        is kept until the other direction takes it.  n_k R_k is searched on
        R_k (its units' form): n_k times its vectors of norm n / n_k^2."""
        self.connector(m, k)  # the pair's product, which sets _conjugates
        flip = (m, k) in self._conjugates
        key = (k, m, n) if flip else (m, k, n)
        vecs = self._vectors.pop(key, None)
        if vecs is None and m == k:
            nk, ro = self.classes[k].norm, self.classes[k].right_order
            vecs = sorted((x * nk for x in ro.norm_vectors(n // nk ** 2)), key=Quat.key)
        elif vecs is None:
            vecs = self._connectors[key[:2]].norm_vectors(n)
            if m != k:
                self._vectors[key] = vecs
        return sorted((x.conj() for x in vecs), key=Quat.key) if flip else vecs

    def _steps(self, k, m, ell):
        """The ell-steps from k landing at m: (image, m, z) with I_k L = I_m z,
        one per norm-ell left ideal L of R_k in the class of m, and image the
        image of L in R_k / ell R_k (``_image_mod``).  From the theta series
        (Pizer 1980): z lies in I_m^-1 I_k, so the x = n_m z are the vectors
        of norm ell n_k n_m of conj(I_m) I_k, and the 2 w_m units u of R_m
        give the same L from u z.  L = conj(I_k) I_m z / n_k, as
        conj(I_k) I_k = n_k R_k; its image is read off the coordinates in R_k
        of the rows of conj(I_k) I_m times z / n_k, with no lattice built.

        The orbits are marked on the integer 4-vectors v = den x, den the
        lcm of the dens of the x: -v with no product, and +-u v / den(u) for
        the units u of R_m of ``_pair_units``, an exact division, as u x is
        again one of the x."""
        rec, target = self.classes[k], self.classes[m]
        vecs = self._connector_vectors(m, k, ell * rec.norm * target.norm)
        if not vecs:
            return []
        order, alg, mul4 = rec.right_order, self.alg, self.alg.mul4
        lat = self.connector(k, m)
        den = lcm(*(x.den for x in vecs))
        moves = [(u.num, u.den) for u in _pair_units(self.units_of(m))]
        nm, wd = target.norm, lat.den * rec.norm * target.norm
        out, seen = [], set()
        for x in vecs:
            s = den // x.den
            x0, x1, x2, x3 = x.num
            v = (s * x0, s * x1, s * x2, s * x3)
            if v in seen:
                continue
            seen.add(v)
            seen.add((-v[0], -v[1], -v[2], -v[3]))
            for un, ud in moves:
                y0, y1, y2, y3 = mul4(un, v)
                y = (y0 // ud, y1 // ud, y2 // ud, y3 // ud)
                seen.add(y)
                seen.add((-y[0], -y[1], -y[2], -y[3]))
            # z = x / n_m, and the rows of lat times z / n_k = x / (n_m n_k)
            coords = [order._coords(mul4(r, x.num), wd * x.den) for r in lat.rows]
            z = Quat(alg, x.num, nm * x.den)
            out.append((_image_mod(coords, ell), m, z))
        return out

    def step_ideal(self, k, m, z):
        """The ideal L = conj(I_k) I_m z / n_k of the step (image, m, z) from k."""
        return self.connector(k, m).mul_elem(z / self.classes[k].norm)

    def neighbors(self, k, ell):
        """List of (image of L in R_k / ell R_k, target class m, witness z)
        with I_k * L = I_m * z, one per norm-ell left ideal L of R_k, sorted
        by the image: the ``_steps`` from k to every class.  Each
        L = conj(I_k) I_m z / n_k is a left R_k-module, as conj(I_k) is, so
        an L with ell R_k <= L <= R_k of index ell^2 is a norm-ell left
        ideal of R_k, fixed by its image mod ell.  R_k has ell+1 of them
        (ell != q prime), so ell+1 steps with distinct images are these."""
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
        without its lattice products.  x -> x z maps I_t onto I_t z and
        multiplies nrd by nrd(z), so the least vector of I_t z by key is the
        least v z over the minimal vectors v of I_t, and ``reduce_ideal``
        moves I_t z to I_t z z0 with z0 = conj(v z) / (n_t nrd z).  The
        equivalence test then searches conj(I_t) I_t z z0 = R_t (n_t z z0):
        its vectors of the norm asked for are the n_t u z z0 with u a unit of
        R_t, and it picks the one with the least reversed coordinates, as
        ``Lattice.find_norm_vector`` does.  The witness is u z.  All of it
        runs on integer 4-vectors: the one HNF is that of R_t y, with
        y = n_t z z0."""
        rec, mul4 = self.classes[t], self.alg.mul4
        zn, zd = z.num, z.den
        # x = v z of least key (den, num), each in lowest terms
        xd, xn = min(_norm4(mul4(v.num, zn), v.den * zd)[::-1]
                     for v in rec.ideal.min_vectors())
        # y = z conj(x) / nrd(z) = yn / yd, as nrd(z) = nrd4(zn) / zd^2
        yn = tuple(zd * c for c in mul4(zn, (xn[0], -xn[1], -xn[2], -xn[3])))
        yd = xd * self.alg.nrd4(zn)
        ro = rec.right_order
        lat = Lattice.from_int_rows(self.alg, [mul4(r, yn) for r in ro.rows], ro.den * yd)
        un, ud = min(((u.num, u.den) for u in self.units_of(t)),
                     key=lambda u: lat._coords(mul4(u[0], yn), u[1] * yd)[::-1])
        return Quat(self.alg, mul4(un, zn), ud * zd)


def vertex_classes(q, alg=None):
    """All left ideal classes of a maximal order, with w_q on them
    (``VertexSet._discover``)."""
    check_primes(q=q)
    alg = alg or make_algebra(q)
    return VertexSet(alg, maximal_order(alg))


# An edge: a unit orbit of norm-p left ideals P of R_source, its Eichler
# order Z + P, its units, length (half their count), target class and the
# witness y with I_source P = I_target y.
Edge = namedtuple("Edge", "source ideal orbit eichler units length target witness")


class ShimuraGraph:
    """Vertices, oriented edges, and the two Atkin-Lehner actions.

    Edges are points of P^1(F_p).  rho_k (``_splitting``), left
    multiplication on the image of the first edge ideal at k, a simple
    module, maps R_k / p R_k onto M_2(F_p), whose 2-dimensional left ideals
    are the {A : A v = 0}.  So a norm-p left ideal P of R_k is the line v
    with P / p R_k = {x : rho_k(x) v = 0}, keyed (k, v) in ``_edge_lookup``,
    and its orbit members P u^-1 = u P u^-1 have the lines rho_k(u) v.  If
    z R_k z^-1 = R_m at p, x -> rho_m(z x z^-1) is rho_k conjugated by a g
    in GL_2(F_p) (Skolem-Noether, ``_intertwiner``): z P z^-1 has line g v.
    * T_ell, a step (L, m, z) of k: I_k L = I_m z makes z^-1 R_m z the right
      order of L, which is R_k at p, as nrd L = ell is prime to p; so one g
      per step moves every edge at k, to z (L^-1 (L meet P)) z^-1, which is
      z P z^-1 at p.  ell R_k lies in the right order of L
      (L R_k ell <= ell R_k <= L), so ell z R_k z^-1 <= R_m gives g.
    * w_q: I_k T_k = I_t y with T_k two-sided, so y R_k y^-1 = R_t.
    * w_p: I_k P = I_t y gives only y O_R(P) y^-1 = R_t, so the rows of
      conj(P), a left ideal of O_R(P), are conjugated per edge and their
      line read off (``_line``).  rho_k takes conj x = trd x - x to the
      adjugate (trd and nrd to trace and determinant), so
      conj(P) / p R_k = {adj A : A v = 0} = {B : B F_p^2 <= F_p v}.

    The build and a cache load both construct the whole graph here: w_p is
    derived unless passed (a load passes the stored map), w_q on edges
    always, then every edge check runs, raising ArithmeticError naming it."""

    def __init__(self, p, q, vset, edges, wp_perm=None):
        self.p, self.q, self.vset, self.edges = p, q, vset, edges
        # An ideal of index p^2 in R_k whose rows kill a line v is the ideal
        # of v, of index p^2 too; any other edge ideal is rejected.
        self._rho, self._lines, self._edge_lookup, unit_moves = {}, [], {}, {}
        for i, e in enumerate(edges):
            k, order = e.source, vset.classes[e.source].right_order
            c = e.ideal.coords_in(order)
            ok = c and abs(c[0][0] * c[1][1] * c[2][2] * c[3][3]) == p * p
            if ok and k not in self._rho:
                self._rho[k] = _splitting(order, c, p)
                unit_moves[k] = self._rho[k] and [(1, 0, 0, 1)] + [
                    self._rho_of(k, order.coords_of(u)) for u in _pair_units(vset.units_of(k))]
            line = self._line(k, c) if ok and self._rho[k] else None
            if line is None:
                raise ArithmeticError(f"edge {i}: ideal does not lie between {p} "
                                      f"R_{k} and R_{k} with index {p}^2")
            self._lines.append(line)
            for g in unit_moves[k]:  # the identity, then the units of _pair_units
                self._edge_lookup[(k, self._move(g, line))] = i
        self._neighbors = {}
        self.wp_perm = self._wp_perm() if wp_perm is None else list(wp_perm)
        self.wq_edge_perm = self._wq_edge_perm()
        self._check_edges()

    def __len__(self):
        return len(self.edges)

    @property
    def lengths(self):
        return [e.length for e in self.edges]

    def edge_mass(self):
        return sum(Fraction(1, e.length) for e in self.edges)

    def _wp_perm(self):
        """Dual-isogeny involution: e = (k, P) goes to the edge at t(e) with
        ideal y conj(P) y^{-1}; as a path operator it carries a global -1 sign.
        The rows of conj(P), the conjugates of P's, are conjugated by y; an
        integral conjugate has P's covolume, so it is the ideal of its line."""
        perm = [self._edge_lookup.get((e.target, self._line(e.target, self._conjugate(
                    e.target, [(r[0], -r[1], -r[2], -r[3]) for r in e.ideal.rows], e.ideal.den,
                    e.witness))))
                for e in self.edges]
        if None in perm:
            raise ArithmeticError("edge lattice not found at vertex")
        return perm

    def _wq_edge_perm(self):
        """Frobenius on edges: conjugate the edge ideals at k by the witness y
        with I_k T_k = I_sigma(k) y, one g per vertex.  As y lies in the
        two-sided norm-q ideal, this is the Frobenius transport; at a fixed
        vertex it swaps the eigen-ideals of the extra automorphisms."""
        vset, gs, perm = self.vset, {}, []
        for e, line in zip(self.edges, self._lines):
            k, t = e.source, vset.wq_perm[e.source]
            if k not in gs:
                gs[k] = self._intertwiner(k, t, vset.wq_witnesses[k], 1, "w_q witness")
            perm.append(self._edge_lookup.get((t, self._move(gs[k], line))))
        if None in perm:
            raise ArithmeticError("edge lattice not found at vertex")
        return perm

    def _check_edges(self):
        """The edge mass (p+1)(q-1)/12; w_p and w_q involutions on edges
        that keep lengths, w_p swapping source and target and w_q moving
        both by w_q; and the edges hold the p+1 norm-p ideals of each R_k,
        each once: the orbits at k have p+1 members, with p+1 distinct
        lines, all of P^1(F_p)."""
        p, q, edges, vset = self.p, self.q, self.edges, self.vset
        mass = self.edge_mass()
        if mass != Fraction((p + 1) * (q - 1), 12):
            raise ArithmeticError(f"edge mass formula violated: {mass} != ({p}+1)({q}-1)/12")
        sigma, wp, wq = vset.wq_perm, self.wp_perm, self.wq_edge_perm
        for i, e in enumerate(edges):
            dual, moved = edges[wp[i]], edges[wq[i]]
            for broken, msg in ((wp[wp[i]] != i, "w_p is not an involution on edges"),
                                (dual.source != e.target, "w_p does not swap source and target"),
                                (dual.length != e.length, "w_p does not preserve lengths"),
                                (wq[wq[i]] != i, "w_q is not an involution on edges"),
                                (moved.length != e.length, "w_q does not preserve lengths"),
                                ((moved.source, moved.target) != (sigma[e.source], sigma[e.target]),
                                 "w_q does not commute with the source and target maps")):
                if broken:
                    raise ArithmeticError(msg)
        members = Counter()
        for e in edges:
            members[e.source] += len(e.orbit)
        images = Counter(k for k, _ in self._edge_lookup)
        for k in range(len(vset)):
            if members[k] != p + 1 or images[k] != p + 1:
                raise ArithmeticError(
                    f"vertex {k}: its edge orbits have {members[k]} members with {images[k]} "
                    f"distinct lines in P^1(F_{p}), not {p + 1}")

    def _rho_of(self, k, coords):
        """rho_k of the element of R_k with these coordinates, (a, b, c, d)."""
        x0, x1, x2, x3 = coords
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = self._rho[k]
        p = self.p
        return ((x0 * a0 + x1 * a1 + x2 * a2 + x3 * a3) % p,
                (x0 * b0 + x1 * b1 + x2 * b2 + x3 * b3) % p,
                (x0 * c0 + x1 * c1 + x2 * c2 + x3 * c3) % p,
                (x0 * d0 + x1 * d1 + x2 * d2 + x3 * d3) % p)

    def _move(self, g, v):
        """The line of g v for g = (a, b, c, d), as (x, 1) or (1, 0), or None
        if g v = 0 mod p."""
        x0, x1, p = g[0] * v[0] + g[1] * v[1], g[2] * v[0] + g[3] * v[1], self.p
        if x1 % p:
            return x0 * pow(x1, -1, p) % p, 1
        return (1, 0) if x0 % p else None

    def _line(self, k, coords):
        """The line killed by rho_k of every row of the lattice with basis
        coordinates coords in R_k, or None (also for coords None).  A of
        rank 1 kills the image of adj A, as A adj A = det A = 0."""
        p, mats = self.p, [self._rho_of(k, c) for c in coords or ()]
        a, b, c, d = next((m for m in mats if any(m)), (0, 0, 0, 0))
        v = self._move((d, -b, -c, a), (1, 0)) or self._move((d, -b, -c, a), (0, 1))
        if v and not any((m[0] * v[0] + m[1] * v[1]) % p or (m[2] * v[0] + m[3] * v[1]) % p
                         for m in mats):
            return v
        return None

    def _conjugate(self, vertex, rows, den, y):
        """The coordinates in R_vertex of the y r y^-1 over the rows r / den,
        or None if one is not integral: y r conj(y) over den nrd4(y)."""
        mul4, yn = self.vset.alg.mul4, y.num
        yc = (yn[0], -yn[1], -yn[2], -yn[3])
        den *= self.vset.alg.nrd4(yn)
        order = self.vset.classes[vertex].right_order
        coords = [order._coords(mul4(mul4(yn, r), yc), den) for r in rows]
        return None if None in coords else coords

    def _intertwiner(self, k, m, z, s, what):
        """g with rho_m(z x z^-1) = g rho_k(x) g^-1 on R_k, for an s prime to
        p with s z R_k z^-1 <= R_m: g (s rho_k(b)) = rho_m(s z b z^-1) g over
        the basis b of R_k, 16 equations in (g00, g01, g10, g11) solved by
        a line (Schur).  With no invertible g, what (the step) is named."""
        p, order = self.p, self.vset.classes[k].right_order
        coords = self._conjugate(m, [tuple(s * x for x in r) for r in order.rows], order.den, z)
        eqs = []
        for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(
                zip(*self._rho[k]), (self._rho_of(m, c) for c in coords or ())):
            a0, a1, a2, a3 = s * a0, s * a1, s * a2, s * a3  # entries 00, 01, 10, 11:
            eqs += [(a0 - b0, a2, -b1, 0), (a1, a3 - b0, 0, -b1),
                    (-b2, 0, a0 - b3, a2), (0, -b2, a1, a3 - b3)]
        echelon, g = _rref_mod(eqs, p) if eqs else (), [0, 0, 0, 0]
        if len(echelon) == 3:
            free = 6 - sum(r.index(1) for r in echelon)  # the column with no pivot
            g[free] = 1
            for r in echelon:
                g[r.index(1)] = -r[free] % p
        if (g[0] * g[3] - g[1] * g[2]) % p == 0:
            raise ArithmeticError(f"vertex {k}: its {what} does not conjugate R_{k} onto "
                                  f"R_{m} at {p} (damaged graph cache?)")
        return g

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
        return [sorted(Counter(m for _, m, _ in self.vertex_neighbors(k, ell)).items())
                for k in range(len(self.vset))]

    def brandt_edges(self, ell):
        """Sparse rows of T_ell on edges, as ``brandt_vertices``: row i
        counts the ell-steps from edge i landing on each edge.  The step of
        e = (k, P) through a step (L, m, z) of k lands on the edge at m with
        ideal z (L^-1 (L meet P)) z^-1, of line g v for the step's g."""
        moves, out = {}, []
        for i, e in enumerate(self.edges):
            k = e.source
            if k not in moves:
                moves[k] = [(m, self._intertwiner(k, m, z, ell, f"ell={ell} step to vertex {m}"))
                            for _, m, z in self.vertex_neighbors(k, ell)]
            row = Counter()
            for m, g in moves[k]:
                j = self._edge_lookup.get((m, self._move(g, self._lines[i])))
                if j is None:
                    raise ArithmeticError(
                        f"edge {i}: its ell={ell} step lands on no edge ideal at "
                        f"vertex {m} (damaged graph cache?)")
                row[j] += 1
            out.append(sorted(row.items()))
        return out


def _rref_mod(rows, p):
    """The nonzero rows of the reduced row echelon form of rows over F_p,
    as a tuple of tuples: equal exactly when the spans mod p are equal.
    Eliminates in place, the pivot rows moving to the top in column order,
    so each row operation touches only the columns from the pivot on."""
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


def _image_mod(coords, p):
    """The image mod p (``_rref_mod``) of the lattice with basis coordinates
    coords in an order, if it lies between p order and order with index
    p^2, the preimage of its image, else None.  With integer coordinates
    its index is |det|; when that is p^2 and the image has rank 2, the sum
    of the lattice and p order has index p^2 too, so the two are equal."""
    if coords is None or None in coords or abs(det_bareiss(coords)) != p * p:
        return None
    image = _rref_mod(coords, p)
    return image if len(image) == 2 else None


def _splitting(order, coords, p):
    """rho, left multiplication of the basis b of the order on the image mod p
    of the lattice with basis coordinates coords, entry by entry as
    ``ShimuraGraph._rho_of`` reads it; None unless that image is a
    2-dimensional left ideal.  In the basis e_1, e_2 of the image's echelon
    form, column s of rho(b) holds the pivot entries of b e_s."""
    image = _rref_mod(coords, p)
    if len(image) != 2:
        return None
    pivots = [r.index(1) for r in image]
    basis = [tuple(sum(c * r[j] for c, r in zip(e, order.rows)) for j in range(4)) for e in image]
    rho = []
    for b in order.rows:
        cols = [order._coords(order.alg.mul4(b, e), order.den ** 2) for e in basis]
        if any((x[j] - x[pivots[0]] * image[0][j] - x[pivots[1]] * image[1][j]) % p
               for x in cols for j in range(4)):
            return None
        rho.append(tuple(x[c] for c in pivots for x in cols))
    return list(zip(*rho))


def _orbit(ideal, unit_list):
    """The u P u^-1 = P u^-1 over the units u of R_k, sorted by key; u and
    -u give the same ideal, so the units of ``_pair_units`` are used."""
    members = {ideal.key(): ideal}  # u = +-1
    for u in _pair_units(unit_list):
        lat = ideal.mul_elem(u)
        members.setdefault(lat.key(), lat)
    return tuple(members[key] for key in sorted(members))


def _edge(vset, k, ideal, target, witness):
    """The edge from k with the norm-p left ideal P = ideal of R_k, with
    the records read off P: its orbit, its Eichler order, its units and
    its length.  The Eichler order R_k meet O_R(P) is Z + P: Z + P lies in
    both, as P P <= R_k P = P, and both have index p in R_k
    (``build_graph`` checks the discriminant).  Its units are the units of
    R_k in it, in the order of ``units``, and the length is half their
    number."""
    unit_list = vset.units_of(k)
    eich = ideal.add_elem(Quat.one(vset.alg))
    eich_units = [u for u in unit_list if u in eich]
    return Edge(source=k, ideal=ideal, orbit=_orbit(ideal, unit_list), eichler=eich,
                units=eich_units, length=len(eich_units) // 2, target=target, witness=witness)


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
    return ShimuraGraph(p, q, vset, edges)


# -- independent supersingular count -------------------------------------------

def ss_oracle(q):
    """(number of supersingular j-invariants, number of F_q-rational ones),
    independently of the quaternion machinery.

    Both are closed forms in q and imaginary quadratic class numbers:

    * the count is Eichler's class number, floor(q/12) + (0, 1, 1, 2) for
      q = (1, 5, 7, 11) mod 12, which is genus(X_0(q)) + 1 (Gross, *Heights
      and the special values of L-series*, 1987);
    * the F_q-rational count is h(-4q)/2, h(-q) or 2 h(-q) for q = 1 (mod 4),
      7 (mod 8) or 3 (mod 8) (Delfs-Galbraith, *Computing isogenies between
      supersingular elliptic curves over F_p*, Des. Codes Cryptogr. 78, 2016).

    h(D) comes from ``gross.class_number``, a count of reduced binary
    quadratic forms, so neither figure reads an ideal class, an order or
    w_q: the certificate compares them with the vertices and the w_q-fixed
    classes of ``vertex_classes``."""
    check_primes(q=q)
    count = q // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[q % 12]
    if q % 4 == 1:
        rational = class_number(-4 * q) // 2
    elif q % 8 == 7:
        rational = class_number(-q)
    else:
        rational = 2 * class_number(-q)
    return count, rational
