"""Exact arithmetic in definite rational quaternion algebras.

An algebra (q, a, b) has Q-basis 1, i, j, k with i^2 = -a, j^2 = -b, k = ij,
ramified exactly at {q, infinity}.  Elements carry integer numerator
4-vectors over a positive denominator; lattices carry a 4x4 integer basis
matrix in row Hermite normal form over a denominator, which makes lattice
equality a tuple comparison.  No floating point is used anywhere.

Short vectors (norm_vectors, find_norm_vector, min_vectors and the class
fingerprints) come from one Fincke-Pohst enumerator per lattice
(``_ReducedForm``): integral LLL, an exact integer LDL and one loop nest in
integers, with a floor below which a search returns before any loop.  A
search with a fixed trace t runs in rank 3 on the same enumerator, in
S0 = {2x - trd x}, as nrd(2x - t) = 4 nrd(x) - t^2 when trd(x) = t
(Gross's ternary lattice, Heights and the special values of L-series,
1987, section 12), and a target whose field splits at q is refused before
any search (the local embedding test, ``Lattice.norm_vectors``).  Norms
and traces are ints: every ideal whose norm the program takes is integral
(``ideal_norm``), so each search runs at an integer target.

Orders and ideals are integer products too.  Every ideal whose right
order the program needs is a left ideal I of a maximal order, so
invertible with I^-1 = conj(I) / nrd(I): its right order I^-1 I and the
two-sided ideal I^-1 j I are each one HNF of the 16 products of its rows.
The norm-ell ideals come from one scan of O / ell O = M_2(F_ell) for
singular elements.
"""

from collections import namedtuple
from math import gcd, isqrt, lcm

from .linalg import det_bareiss, hnf_rows
from .ntheory import check_primes, is_prime, ramified_primes


class QuaternionAlgebra(namedtuple("QuaternionAlgebra", "q a b")):
    """Definite algebra with i^2 = -a, j^2 = -b, k = ij, ramified at {q, oo}.

    q = 0 means no designated ramified prime, and so no local gate in
    ``Lattice.norm_vectors`` with a trace: the tests build such algebras
    from an arbitrary norm form.  ``make_algebra`` always sets q.

    Equal and hashed by value: Quat and Lattice equality go through it."""

    __slots__ = ()

    def mul4(self, x, y):
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 - a * x1 * y1 - b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 + b * (x2 * y3 - x3 * y2),
            x0 * y2 + x2 * y0 - a * (x1 * y3 - x3 * y1),
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def nrd4(self, x):
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        return x0 * x0 + a * x1 * x1 + b * x2 * x2 + a * b * x3 * x3


def _norm4(num, den):
    """num / den in lowest terms, by one gcd; a float or Fraction entry
    raises TypeError (math.gcd takes ints only)."""
    x0, x1, x2, x3 = num
    g = gcd(den, x0, x1, x2, x3)
    if g > 1:
        return (x0 // g, x1 // g, x2 // g, x3 // g), den // g
    return (x0, x1, x2, x3), den


class Quat:
    """Quaternion with exact rational coordinates (integer numerators / den),
    in lowest terms by one gcd; a non-int entry raises TypeError."""

    __slots__ = ("alg", "num", "den")

    def __init__(self, alg, num, den=1):
        if den < 0:
            num = tuple(-x for x in num)
            den = -den
        elif not den:
            raise ZeroDivisionError("zero denominator")
        num, den = _norm4(num, den)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("Quat is immutable")

    @classmethod
    def one(cls, alg):
        return cls(alg, (1, 0, 0, 0))

    def __mul__(self, other):
        if isinstance(other, int):
            return Quat(self.alg, tuple(other * x for x in self.num), self.den)
        return Quat(self.alg, self.alg.mul4(self.num, other.num), self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, int):
            return Quat(self.alg, self.num, self.den * other)
        return NotImplemented

    def conj(self):
        n = self.num
        return Quat(self.alg, (n[0], -n[1], -n[2], -n[3]), self.den)

    def inv(self):
        """conj(x) / nrd(x) = conj(num) den / nrd4(num), in integers."""
        n = self.alg.nrd4(self.num)
        if n == 0:
            raise ZeroDivisionError("inverting zero quaternion")
        (x0, x1, x2, x3), d = self.num, self.den
        return Quat(self.alg, (d * x0, -d * x1, -d * x2, -d * x3), n)

    def key(self):
        return (self.den, self.num)

    def __eq__(self, other):
        return (
            isinstance(other, Quat)
            and self.alg == other.alg
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.alg, self.num, self.den))

    def __repr__(self):
        return f"Quat({self.num}/{self.den})"


class _ReducedForm:
    """A positive definite integer quadratic form, LLL-reduced and set up for
    Fincke-Pohst enumeration in integer arithmetic.

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7, delta = 3/4) runs on the Gram
    matrix G and keeps, for the reduced basis b_1..b_n, the unimodular
    transform (row i of ``t`` is b_i in the input coordinates), the leading
    minors d_j of its Gram matrix (d_0 = 1) and lam[i][j] = d_j mu_ij.  With
    S = lcm_j d_j d_{j-1} and W_j = S / (d_j d_{j-1}) that is an exact integer
    LDL of the form in the reduced coordinates y:

        S * Q(y) = sum_j W_j (d_j y_j + sum_{i>j} lam[i][j] y_i)^2.

    The LLL keeps the Gram matrix of the current basis, updated with each
    size reduction and swap, so each b_k . b_j is read off it, and its
    diagonal gives ``min_bound``.

    Lists are indexed from 1, as in Cohen.  The rank is 3 or 4: ``vectors``
    is one search with its four levels written out, and a rank-3 form is
    padded to that layout, with y_4 held at 0 and a zero fourth column in
    ``t`` that the output drops.  Raises ArithmeticError if G is not
    positive definite.

    ``floor`` = min_j W_j d_j^2 over the levels j = 1..n (not the padding)
    bounds S Q(y) from below on every y != 0: at the highest j with
    y_j != 0 the offset sum_{i>j} lam[i][j] y_i is 0, so the j-th term
    alone is W_j d_j^2 y_j^2 >= floor; floor / S is the least squared
    Gram-Schmidt length d_j / d_{j-1}.  A search with S target < floor
    returns before any loop.  ``vectors`` reads the flat tuple ``_data``;
    ``t``, ``d``, ``lam`` and ``w`` (padded) serve the recursive oracle in
    tests/enum_oracle.py.
    """

    __slots__ = ("n", "t", "d", "lam", "w", "s", "floor", "min_bound", "_data")

    def __init__(self, g):
        n = len(g)
        if n not in (3, 4):
            raise ValueError(f"forms of rank 3 and 4 only, not {n}")
        cols = range(1, n + 1)
        h = [None] + [[int(r == c) for c in range(n)] for r in range(n)]
        # gram[i][j] = b_i . b_j, updated with every row operation on h;
        # a swap moves rows, so grows keeps every row of gram in some order
        grows = [[0, *row] for row in g]
        gram = [None, *grows]
        lam = [[0] * (n + 1) for _ in range(n + 1)]
        d = [1] + [0] * n
        k, kmax = 1, 0
        while k <= n:
            if k > kmax:
                # incremental integral Gram-Schmidt of the new vector b_k
                kmax = k
                gk, lk = gram[k], lam[k]
                for j in range(1, k + 1):
                    u, lj = gk[j], lam[j]
                    for i in range(1, j):
                        u = (d[i] * u - lk[i] * lj[i]) // d[i - 1]
                    if j < k:
                        lk[j] = u
                    elif u <= 0:
                        raise ArithmeticError("form is not positive definite")
                    else:
                        d[k] = u
                if k == 1:
                    k = 2
                    continue
            # size-reduce b_k against b_{k-1}, test the Lovasz condition,
            # then size-reduce against b_{k-2}, ..., b_1 unless b_k moves down
            for l in range(k - 1, 0, -1):
                lk, dl = lam[k], d[l]
                if 2 * abs(lk[l]) > dl:
                    q = (2 * lk[l] + dl) // (2 * dl)
                    h[k] = [x - q * y for x, y in zip(h[k], h[l])]
                    lk[l] -= q * dl
                    ll = lam[l]
                    for i in range(1, l):
                        lk[i] -= q * ll[i]
                    gk, gl = gram[k], gram[l]
                    gkk = gk[k] - q * (2 * gk[l] - q * gl[l])
                    for j in cols:
                        gram[j][k] = gk[j] = gk[j] - q * gl[j]
                    gk[k] = gkk
                if l == k - 1 and 4 * d[k] * d[k - 2] < 3 * dl * dl - 4 * lk[l] ** 2:
                    # swap b_k and b_{k-1}
                    h[k], h[l] = h[l], h[k]
                    gram[k], gram[l] = gram[l], gram[k]
                    for row in grows:
                        row[k], row[l] = row[l], row[k]
                    ll = lam[l]
                    for j in range(1, l):
                        lk[j], ll[j] = ll[j], lk[j]
                    lkl = lk[l]
                    b = (d[k - 2] * d[k] + lkl * lkl) // d[l]
                    for i in range(k + 1, kmax + 1):
                        li = lam[i]
                        u = li[k]
                        li[k] = (d[k] * li[l] - lkl * u) // d[l]
                        li[l] = (b * u + lkl * li[k]) // d[k]
                    d[l] = b
                    k = max(2, l)
                    break
            else:
                k += 1

        s = lcm(*(d[j] * d[j - 1] for j in cols))
        w = [None] + [s // (d[j] * d[j - 1]) for j in cols]
        self.floor = min(w[j] * d[j] * d[j] for j in cols)
        # the norm of a reduced basis vector bounds the minimum from above
        self.min_bound = min(gram[i][i] for i in cols)
        if n == 3:
            # pad to the rank-4 layout that ``vectors`` reads: y_4 = 0 there,
            # so level 4 adds nothing, and c gets a fourth coordinate 0
            h = [None] + [row + [0] for row in h[1:]] + [[0, 0, 0, 0]]
            lam = [row + [0] for row in lam] + [[0] * 5]
            d.append(1)
            w.append(1)
        self.n, self.t, self.d, self.lam, self.w, self.s = n, h, d, lam, w, s
        # everything ``vectors`` reads, in the order it unpacks it
        self._data = (n, *d[1:], *w[1:], lam[2][1], lam[3][1], lam[3][2], *lam[4][1:4],
                      *(x for row in h[1:] for x in row))

    def vectors(self, target, upto=False):
        """Every (c, c^T G c) with c != 0 and c^T G c == target (<= target if
        upto), c in the input coordinates, in no particular order.

        One loop per level, y_4 outermost.  At level j, with
        a_j = sum_{i>j} lam[i][j] y_i and rem_j what is left of S target
        after the levels above, y_j runs over the integers with
        W_j (d_j y_j + a_j)^2 <= rem_j.  A rank-3 form runs with y_4 = 0.
        The last level of an exact search is solved directly; with upto it
        emits its whole range.  A target with S target below ``floor``,
        target <= 0 among them, has no solution and returns at once."""
        scale = self.s
        rem4 = scale * target
        if rem4 < self.floor:
            return []
        (n, d1, d2, d3, d4, w1, w2, w3, w4, l21, l31, l32, l41, l42, l43,
         t11, t12, t13, t14, t21, t22, t23, t24,
         t31, t32, t33, t34, t41, t42, t43, t44) = self._data
        out = []
        emit = out.append
        if n == 4:
            s4 = isqrt(rem4 // w4)
            top = range(-(s4 // d4), s4 // d4 + 1)
        else:
            top = (0,)
        for y4 in top:
            u = d4 * y4
            rem3 = rem4 - w4 * u * u
            a3 = l43 * y4
            s3 = isqrt(rem3 // w3)
            for y3 in range(-((s3 + a3) // d3), (s3 - a3) // d3 + 1):
                u = d3 * y3 + a3
                rem2 = rem3 - w3 * u * u
                a2 = l32 * y3 + l42 * y4
                s2 = isqrt(rem2 // w2)
                for y2 in range(-((s2 + a2) // d2), (s2 - a2) // d2 + 1):
                    u = d2 * y2 + a2
                    rem1 = rem2 - w2 * u * u
                    a1 = l21 * y2 + l31 * y3 + l41 * y4
                    if upto:
                        s1 = isqrt(rem1 // w1)
                        level1 = range(-((s1 + a1) // d1), (s1 - a1) // d1 + 1)
                    else:
                        # W_1 (d_1 y_1 + a_1)^2 = rem_1: d_1 y_1 + a_1 = +-s1
                        sq, r = divmod(rem1, w1)
                        s1 = isqrt(sq)
                        if r or s1 * s1 != sq:
                            continue
                        level1 = [(v - a1) // d1 for v in ((s1, -s1) if s1 else (0,))
                                  if (v - a1) % d1 == 0]
                    for y1 in level1:
                        if y1 or y2 or y3 or y4:
                            u = d1 * y1 + a1
                            c = (y1 * t11 + y2 * t21 + y3 * t31 + y4 * t41,
                                 y1 * t12 + y2 * t22 + y3 * t32 + y4 * t42,
                                 y1 * t13 + y2 * t23 + y3 * t33 + y4 * t43,
                                 y1 * t14 + y2 * t24 + y3 * t34 + y4 * t44)
                            emit((c[:n], target - (rem1 - w1 * u * u) // scale))
        return out


class Lattice:
    """Full rank-4 lattice: integer HNF rows over a positive denominator,
    in lowest terms by one gcd; a non-int entry raises TypeError."""

    __slots__ = ("alg", "den", "rows", "_cache")

    def __init__(self, alg, rows, den):
        r0, r1, r2, r3 = rows = tuple(map(tuple, rows))
        g = gcd(den, *r0, *r1, *r2, *r3)
        if g > 1:
            den //= g
            rows = tuple((x0 // g, x1 // g, x2 // g, x3 // g) for x0, x1, x2, x3 in rows)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *_):
        raise AttributeError("Lattice is immutable")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_int_rows(cls, alg, rows, den):
        h = hnf_rows(rows)
        if len(h) != 4:
            raise ValueError("lattice does not have full rank 4")
        return cls(alg, h, den)

    # -- basic data --------------------------------------------------------
    def key(self):
        return (self.den, self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.alg == other.alg
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.alg, self.den, self.rows))

    def __repr__(self):
        return f"Lattice({self.rows}/{self.den})"

    # -- membership ---------------------------------------------------------
    def coords_of(self, x):
        """Integer coordinates of x in this basis, or None if x is outside:
        one exact back-substitution, as the HNF basis is upper triangular."""
        if x.alg != self.alg:
            raise ValueError("algebra mismatch")
        return self._coords(x.num, x.den)

    def _coords(self, num, xden):
        """coords_of for the element num / xden, written out on the four
        columns of the triangular basis."""
        (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = self.rows
        den = self.den
        n0, n1, n2, n3 = num
        q0, rem = divmod(n0 * den, xden * a0)
        if rem:
            return None
        q1, rem = divmod(n1 * den - xden * q0 * a1, xden * b1)
        if rem:
            return None
        q2, rem = divmod(n2 * den - xden * (q0 * a2 + q1 * b2), xden * c2)
        if rem:
            return None
        q3, rem = divmod(n3 * den - xden * (q0 * a3 + q1 * b3 + q2 * c3), xden * d3)
        if rem:
            return None
        return (q0, q1, q2, q3)

    def coords_in(self, other):
        """The integer matrix C with (this basis) = C (other's basis), or None
        if this lattice is not inside other.  Both bases are upper
        triangular, so C is too, and the index [other : self] is the
        product of its diagonal."""
        if other.alg != self.alg:
            raise ValueError("algebra mismatch")
        coords = [other._coords(r, self.den) for r in self.rows]
        return None if None in coords else coords

    def __contains__(self, x):
        return self.coords_of(x) is not None

    # -- lattice arithmetic --------------------------------------------------
    def mul(self, other):
        rows = []
        for r in self.rows:
            for s in other.rows:
                rows.append(self.alg.mul4(r, s))
        return Lattice.from_int_rows(self.alg, rows, self.den * other.den)

    def mul_elem(self, x):
        rows = [self.alg.mul4(r, x.num) for r in self.rows]
        return Lattice.from_int_rows(self.alg, rows, self.den * x.den)

    def conj_lattice(self):
        """The conjugate lattice, cached: class ideals are conjugated for
        every connector and equivalence test they enter."""
        if "conj" not in self._cache:
            rows = [(r[0], -r[1], -r[2], -r[3]) for r in self.rows]
            self._cache["conj"] = Lattice.from_int_rows(self.alg, rows, self.den)
        return self._cache["conj"]

    def add(self, other):
        den = self.den * other.den // gcd(self.den, other.den)
        s, o = den // self.den, den // other.den
        rows = [tuple(s * x for x in r) for r in self.rows]
        rows += [tuple(o * x for x in r) for r in other.rows]
        return Lattice.from_int_rows(self.alg, rows, den)

    def add_elem(self, x):
        """The lattice + Z x: the HNF of its rows and x over a common
        denominator; the rows stay as they are when x.den divides den."""
        den = self.den * x.den // gcd(self.den, x.den)
        s = den // self.den
        rows = list(self.rows) if s == 1 else [tuple(s * v for v in r) for r in self.rows]
        s = den // x.den
        rows.append(tuple(s * v for v in x.num))
        return Lattice.from_int_rows(self.alg, rows, den)

    def index_in(self, other):
        """The index [other : self], an int: the product of the diagonal of
        the triangular ``coords_in``; None if this lattice is not inside
        other."""
        c = self.coords_in(other)
        return None if c is None else c[0][0] * c[1][1] * c[2][2] * c[3][3]

    # -- quadratic form machinery ---------------------------------------------
    def gram(self):
        """Integer Gram matrix G with nrd(c . basis) = c^T G c / den^2."""
        if "gram" not in self._cache:
            a, b, rows = self.alg.a, self.alg.b, self.rows
            ab = a * b
            self._cache["gram"] = [
                [x0 * y0 + a * x1 * y1 + b * x2 * y2 + ab * x3 * y3 for y0, y1, y2, y3 in rows]
                for x0, x1, x2, x3 in rows]
        return self._cache["gram"]

    def _form(self):
        if "form" not in self._cache:
            self._cache["form"] = _ReducedForm(self.gram())
        return self._cache["form"]

    def _enum_form(self, target, upto=False):
        """Integer vectors c != 0 with c^T G c == target (or <= target if
        upto), each with its value c^T G c."""
        return self._form().vectors(target, upto)

    def _vector(self, c):
        """The element c . basis, written out on the four rows."""
        c0, c1, c2, c3 = c
        (a0, a1, a2, a3), (b0, b1, b2, b3), (e0, e1, e2, e3), (f0, f1, f2, f3) = self.rows
        return Quat(self.alg, (c0 * a0 + c1 * b0 + c2 * e0 + c3 * f0,
                               c0 * a1 + c1 * b1 + c2 * e1 + c3 * f1,
                               c0 * a2 + c1 * b2 + c2 * e2 + c3 * f2,
                               c0 * a3 + c1 * b3 + c2 * e3 + c3 * f3), self.den)

    def _trace_zero_form(self):
        """(basis, form) of S0 = {2x - trd x}: the HNF of the pure parts
        (y1, y2, y3) of twice the basis rows (the HNF of (0, y1, y2, y3) with
        its zero column dropped), over den, and the reduced form of nrd on it."""
        if "s0" not in self._cache:
            basis = [r[1:] for r in hnf_rows([(0, 2 * r[1], 2 * r[2], 2 * r[3])
                                               for r in self.rows])]
            a, b = self.alg.a, self.alg.b
            ab = a * b
            g = [[a * x1 * y1 + b * x2 * y2 + ab * x3 * y3 for y1, y2, y3 in basis]
                 for x1, x2, x3 in basis]
            self._cache["s0"] = (basis, _ReducedForm(g))
        return self._cache["s0"]

    def _trace_vectors(self, target, t, s0):
        """The x with trd(x) = t and (4 nrd(x) - t^2) den^2 = target, sorted
        by key: x = (y / den + t) / 2 over the y in den S0 with
        nrd(y) = target, kept if x lies in the lattice; s0 is
        ``_trace_zero_form()`` (None when target = 0, where x = t / 2).
        Only the kept x become Quats."""
        # x = (y / den + t) / 2 over the common denominator 2 den
        xden, x0 = 2 * self.den, t * self.den
        coords = self._coords
        if not target:
            num = (x0, 0, 0, 0)
            return [Quat(self.alg, num, xden)] if coords(num, xden) is not None else []
        cs = s0[1].vectors(target)
        if not cs:
            return []
        (b11, b12, b13), (b21, b22, b23), (b31, b32, b33) = s0[0]
        found = []
        for (c1, c2, c3), _ in cs:
            num = (x0, c1 * b11 + c2 * b21 + c3 * b31, c1 * b12 + c2 * b22 + c3 * b32,
                   c1 * b13 + c2 * b23 + c3 * b33)
            if coords(num, xden) is not None:
                found.append(Quat(self.alg, num, xden))
        found.sort(key=Quat.key)
        return found

    def norm_vectors(self, n, trace=None):
        """All x in the lattice with nrd(x) = n (and trd(x) = trace if
        given), sorted by key.  n and trace are ints: the norms asked for
        are those of integral ideals (see ``ideal_norm``) and of embedded
        orders.  The search runs at the integer target n den^2 of the Gram
        form, or with a trace in S0 at (4n - t^2) den^2.

        With a trace, and alg.q set, the search first makes the local test
        at q (Vigneras, LNM 800, ch. III 5): it returns [] at once when
        (-target | q) = 1, by Euler's criterion.  Such an x would generate
        Q(sqrt(t^2 - 4n)), and -target is t^2 - 4n times a square; a
        nonzero square mod the odd prime q is a square in Q_q, so Q(x) would
        split at q and Q(x) (x) Q_q = Q_q x Q_q would lie in the division
        algebra B_q, which is impossible.  q | target (target = 0 among
        them) gives symbol 0 and searches.  An algebra with q = 0 is never
        gated.

        The gate at q and then the floor of the cached S0 form
        (s target < floor has no vector, see ``_ReducedForm``) are tested
        in this frame, before ``_trace_vectors`` or any search is called."""
        den = self.den
        if trace is not None:
            target = (4 * n - trace * trace) * den * den
            q = self.alg.q
            # (-target | q) = 1 by Euler's criterion; q | target gives 0
            if q and pow(-target, (q - 1) // 2, q) == 1:
                return []
            s0 = None
            if target:
                s0 = self._cache.get("s0") or self._trace_zero_form()
                form = s0[1]
                if form.s * target < form.floor:
                    return []
            return self._trace_vectors(target, trace, s0)
        if n == 0:
            return [Quat(self.alg, (0, 0, 0, 0))]
        found = [self._vector(c) for c, _ in self._enum_form(n * den * den)]
        found.sort(key=Quat.key)
        return found

    def find_norm_vector(self, n):
        """One x with nrd(x) = n, or None: the solution with the least
        (c3, c2, c1, c0) in the HNF coordinates.  It becomes an equivalence
        witness, stored in the graph cache, so the rule must not change;
        ``ssgraph.VertexSet.step_witness`` applies it to the edge witnesses
        without calling this method, so the two must change together."""
        sols = self._enum_form(n * self.den ** 2)
        if not sols:
            return None
        return self._vector(min((c for c, _ in sols), key=lambda c: c[::-1]))

    def min_vectors(self):
        """The nonzero vectors of least nrd, sorted by key."""
        if "min" not in self._cache:
            best, vecs = None, []
            for c, val in self._enum_form(self._form().min_bound, upto=True):
                if best is None or val < best:
                    best, vecs = val, [c]
                elif val == best:
                    vecs.append(c)
            self._cache["min"] = sorted((self._vector(c) for c in vecs), key=Quat.key)
        return self._cache["min"]

# -- orders ------------------------------------------------------------------

def reduced_discriminant(order):
    """sqrt |det trd(b_r b_s)|.  With b_r = R_r / d the trace form is the
    integer matrix 2 (R_r R_s)_0 over d^2, so the root is an integer over d^4."""
    a, b, rows = order.alg.a, order.alg.b, order.rows
    ab = a * b
    # (R_r R_s)_0, the real part of the product, written out
    det = abs(det_bareiss([[2 * (x0 * y0 - a * x1 * y1 - b * x2 * y2 - ab * x3 * y3)
                            for y0, y1, y2, y3 in rows] for x0, x1, x2, x3 in rows]))
    root = isqrt(det)
    scale = order.den ** 4
    if root * root != det or root % scale:
        raise ArithmeticError("trace form determinant is not a perfect square")
    return root // scale


def _integral(alg, num, den):
    """Whether num / den has integral reduced trace and norm:
    trd = 2 num_0 / den and nrd = nrd4(num) / den^2."""
    return 2 * num[0] % den == 0 and alg.nrd4(num) % (den * den) == 0


def units(order):
    """All elements of reduced norm 1 (comes in +/- pairs)."""
    return order.norm_vectors(1)


def _pair_units(unit_list):
    """One unit of each +-pair in unit_list other than +-1: the one whose
    pure part is lexicographically positive (that of -u is negative).  For
    an action in which u and -u agree and +-1 is the identity, these are
    the units to apply, each once."""
    return [u for u in unit_list if u.num[1:] > (0, 0, 0)]


def make_algebra(q, a=None):
    """Quaternion algebra ramified exactly at {q, infinity}: the model
    (a, b) = (a, q) with the least a > 0 of that ramification, which is
    a = 1 when q = 3 mod 4, as (-1, -q) is then ramified exactly at
    {q, oo}.  Passing ``a`` forces a specific model (used to exercise
    model independence); one of another ramification raises ValueError.
    """
    check_primes(q=q)
    if a is None:
        a = next(c for c in range(1, 500) if ramified_primes(-c, -q) == [q])
    elif ramified_primes(-a, -q) != [q]:
        raise ValueError(f"(-{a}, -{q}) is not ramified exactly at {{{q}, oo}}")
    return QuaternionAlgebra(q=q, a=a, b=q)


def _ring_closure(lat):
    """Smallest multiplicatively closed lattice containing lat, or None if
    trace/norm integrality breaks along the way.  A lattice it returns is
    an order when lat holds 1: it holds lat, its basis is integral (checked
    in the round that returns it) and it is closed under products (it is a
    fixed point of L -> L + L L)."""
    cur = lat
    for _ in range(16):
        if not all(_integral(cur.alg, r, cur.den) for r in cur.rows):
            return None
        nxt = cur.add(cur.mul(cur))
        if nxt == cur:
            return cur
        cur = nxt
    return None


def _residues(order, ell):
    """O / ell O read through the lines of F_ell^4: for each c with first
    nonzero entry 1, in a fixed order, the integer numerator over den of
    x = sum_r c_r b_r, b_r = R_r / den the basis."""
    rows = order.rows
    for lead in range(4):
        for n in range(ell ** (3 - lead)):
            c = [0] * lead + [1]
            for _ in range(3 - lead):
                n, digit = divmod(n, ell)
                c.append(digit)
            yield tuple(sum(cr * r[m] for cr, r in zip(c, rows)) for m in range(4))


def maximal_order(alg):
    """A maximal order (reduced discriminant q) in the algebra, for every
    model, by saturation of Z<1, i, j, k> (reduced discriminant 4ab).

    While the discriminant d of the order O is not q, the least prime ell
    of d / q is taken, and O becomes the ring closure (``_ring_closure``)
    of O + Z x / ell for the first residue x of O / ell O (``_residues``)
    with x / ell integral whose closure is a larger order.  Every order
    built so holds j, which ``two_sided_ideal`` needs.

    For the model (1, q) with q = 3 mod 4, d = 4q and ell = 2.  The scan
    skips 1/2 and (1+i)/2, of norms 1/4 and 1/2, and its first integral
    residue is (1+j)/2, of trace 1 and norm (1+q)/4.  The ring it generates
    with Z<1, i, j, k> holds i (1+j)/2 = (i+k)/2, so it is the classical
    order with basis 1, i, (1+j)/2, (i+k)/2 (Voight, Quaternion Algebras,
    GTM 288, 2021, ch. 11), of discriminant q: one step.
    """
    q = alg.q
    order = Lattice.from_int_rows(
        alg, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1)
    d = reduced_discriminant(order)
    while d != q:
        if d % q:
            raise ArithmeticError("discriminant lost divisibility by q")
        m = d // q
        ell = next(p for p in range(2, m + 1) if m % p == 0 and is_prime(p))
        enlarged = None
        xden = ell * order.den
        for num in _residues(order, ell):
            # x / ell over the common denominator
            if not _integral(alg, num, xden):
                continue
            cand = _ring_closure(order.add_elem(Quat(alg, num, xden)))
            if cand is not None and cand != order:
                enlarged = cand
                break
        if enlarged is None:
            raise ArithmeticError(f"cannot enlarge order at {ell}")
        order = enlarged
        d = reduced_discriminant(order)
    return order


# -- ideals -------------------------------------------------------------------

def ideal_norm(ideal, order):
    """The reduced norm of I, an int, via nrd(I)^2 = [O : I] (``index_in``).

    Every ideal the program takes the norm of is integral, I <= O, so the
    index is a positive integer: O itself, the reduced J = I conj(x) / nrd(I)
    with x in I, which lie in I conj(I) / nrd(I) = O (Voight, Quaternion
    Algebras, GTM 288, 2021, ch. 16), the I_k L <= I_k of the class search
    and I_k T_k = j I_k <= O (``two_sided_ideal``).  Raises ArithmeticError
    if I does not lie in O, as for a fractional ideal, or its index is no
    square."""
    index = ideal.index_in(order)
    n = isqrt(index or 0)
    if index is None or n * n != index:
        raise ArithmeticError("ideal norm is not an integer: the ideal is not integral, "
                              "or not of square index in O")
    return n


def reduce_ideal(ideal, order):
    """(J, z) with J = I*z in the same left class and small reduced norm."""
    n = ideal_norm(ideal, order)
    z = ideal.min_vectors()[0].conj() / n
    return ideal.mul_elem(z), z


def equiv_witness(i1, i2, order, n1=None, n2=None):
    """x with i2 = i1 * x if the left O-ideal classes agree, else None."""
    if n1 is None:
        n1 = ideal_norm(i1, order)
    if n2 is None:
        n2 = ideal_norm(i2, order)
    t = i1.conj_lattice().mul(i2)
    x = t.find_norm_vector(n1 * n2)
    if x is None:
        return None
    return x / n1


def _conjugated(ideal, norm, x):
    """I^-1 x I = conj(I) x I / n, for a left ideal I of reduced norm n of a
    maximal order and x an integer 4-vector: the products conj(r) x s over
    the rows r, s of I, over den^2 n.

    Such an I is invertible, with I^-1 = conj(I) / n, as conj(I) I = n O_R(I)
    (Voight, Quaternion Algebras, GTM 288, 2021, ch. 16)."""
    alg = ideal.alg
    left = [alg.mul4((r[0], -r[1], -r[2], -r[3]), x) for r in ideal.rows]
    return Lattice.from_int_rows(alg, [alg.mul4(y, s) for y in left for s in ideal.rows],
                                 ideal.den ** 2 * norm)


def right_order(ideal, norm):
    """O_R(I) = {x : I x <= I} = I^-1 I, for a left ideal I of reduced norm
    n of a maximal order (``_conjugated`` with x = 1).  The left order of
    I is conj(O_R(conj I))."""
    return _conjugated(ideal, norm, (1, 0, 0, 0))


def two_sided_ideal(ideal, norm, order):
    """T = I^-1 j I = conj(I) j I / n, the two-sided ideal of reduced norm q
    of the right order R (``order``) of I, a left ideal of reduced norm n
    of the base order O.  It needs j in O, true of every ``maximal_order``,
    as its saturation starts from Z<1, i, j, k>.  Then P = O j = j O is the
    two-sided ideal of norm q of O: nrd j = q, so j is a unit at every
    prime l != q, and at q there is one ideal of norm q.  Locally I = O a
    and R = a^-1 O a.  At l != q, T and P are the orders, so I T = I = P I;
    at q, T is the maximal ideal P of R = O, stable under conjugation, so
    I T = O a P = P a = P I.  Hence I T = P I = j I, and T = I^-1 j I.  The
    check is T <= R with [R : T] = q^2."""
    ts = _conjugated(ideal, norm, (0, 0, 1, 0))
    if ts.index_in(order) != ideal.alg.q ** 2:
        raise ArithmeticError("two-sided ideal has wrong index")
    return ts


def norm_ideals(order, ell):
    """The ell+1 left ideals of reduced norm ell of a maximal order O, for a
    prime ell != q, sorted by key: the O x + ell O for the x in O with
    nrd(x) = 0 mod ell, x = sum c_r b_r over the lines c of F_ell^4.

    O / ell O = M_2(F_ell), where the reduced norm is the determinant.  Such
    an x is not in ell O and its image x' is singular, so x' has rank 1, and
    O x + ell O is the preimage of M_2(F_ell) x' = {A : ker A >= ker x'}: it
    has index ell^2, so reduced norm ell.  A norm-ell left ideal I holds
    ell O (ell = nrd(I) lies in I) and has index ell^2, so I / ell O is one
    of these ell+1 subspaces, one per line of F_ell^2, and each holds a
    rank-1 x'.  So the scan meets every such ideal; it stops at the
    (ell+1)-th.
    """
    alg = order.alg
    if alg.q % ell == 0:
        raise ValueError("ell must not divide q (ramified case not supported)")
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    rows, den = order.rows, order.den
    ideals = {}
    for x in _residues(order, ell):
        # nrd(x) = nrd4(x) / den^2
        if alg.nrd4(x) % (ell * den * den):
            continue
        lat_rows = [alg.mul4(r, x) for r in rows]
        lat_rows += [tuple(ell * den * v for v in r) for r in rows]
        ideal = Lattice.from_int_rows(alg, lat_rows, den ** 2)
        if ideal.index_in(order) != ell * ell:
            raise ArithmeticError("norm-ell ideal has wrong index")
        ideals[ideal.key()] = ideal
        if len(ideals) == ell + 1:
            return [ideals[key] for key in sorted(ideals)]
    raise ArithmeticError(f"{len(ideals)} norm-ell ideals found, not ell + 1")
