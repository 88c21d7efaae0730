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
1987, section 12); int norms and traces keep it in int arithmetic, and a
target whose field splits at q is refused before any search (the local
embedding test, ``Lattice.norm_vectors``).

Orders and ideals are integer products too.  Every ideal whose right
order the program needs is a left ideal I of a maximal order, so
invertible with I^-1 = conj(I) / nrd(I): its right order I^-1 I and the
two-sided ideal I^-1 j I are each one HNF of the 16 products of its rows.
The norm-ell ideals come from one scan of O / ell O = M_2(F_ell) for
singular elements.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

from .linalg import det_bareiss, frac_sqrt, hnf_rows
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

    def __add__(self, other):
        other = self._coerce(other)
        d = self.den * other.den // gcd(self.den, other.den)
        s, o = d // self.den, d // other.den
        return Quat(self.alg, tuple(s * x + o * y for x, y in zip(self.num, other.num)), d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Quat(self.alg, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return Quat(self.alg, tuple(other * x for x in self.num), self.den)
        if isinstance(other, Fraction):
            a = other.numerator
            return Quat(self.alg, tuple(a * x for x in self.num), self.den * other.denominator)
        return Quat(self.alg, self.alg.mul4(self.num, other.num), self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, int):
            return Quat(self.alg, self.num, self.den * other)
        if isinstance(other, Fraction):
            b = other.denominator
            return Quat(self.alg, tuple(b * x for x in self.num), self.den * other.numerator)
        return NotImplemented

    def _coerce(self, other):
        if isinstance(other, Quat):
            return other
        f = Fraction(other)
        return Quat(self.alg, (f.numerator, 0, 0, 0), f.denominator)

    def conj(self):
        n = self.num
        return Quat(self.alg, (n[0], -n[1], -n[2], -n[3]), self.den)

    def trd(self):
        return Fraction(2 * self.num[0], self.den)

    def nrd(self):
        return Fraction(self.alg.nrd4(self.num), self.den * self.den)

    def inv(self):
        n = self.nrd()
        if n == 0:
            raise ZeroDivisionError("inverting zero quaternion")
        return self.conj() / n

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
    def basis(self):
        return [Quat(self.alg, r, self.den) for r in self.rows]

    def det(self):
        d = 1
        for idx in range(4):
            d *= self.rows[idx][idx]
        return Fraction(abs(d), self.den ** 4)

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
        """Generalized index [other : self] as a Fraction."""
        return self.det() / other.det()

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

    def _trace_vectors(self, target, tnum, tden, s0):
        """The x with trd(x) = t = tnum / tden and (4 nrd(x) - t^2) den^2 =
        target, sorted by key: x = (y / den + t) / 2 over the y in den S0
        with nrd(y) = target, kept if x lies in the lattice; s0 is
        ``_trace_zero_form()`` (None when target = 0, where x = t / 2).
        Only the kept x become Quats."""
        # x = (y / den + t) / 2 over the common denominator 2 den tden
        xden, x0 = 2 * self.den * tden, tnum * self.den
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
            num = (x0, (c1 * b11 + c2 * b21 + c3 * b31) * tden,
                   (c1 * b12 + c2 * b22 + c3 * b32) * tden,
                   (c1 * b13 + c2 * b23 + c3 * b33) * tden)
            if coords(num, xden) is not None:
                found.append(Quat(self.alg, num, xden))
        found.sort(key=Quat.key)
        return found

    def _norm_target(self, n):
        """n den^2, the value of c^T G c for the vectors of norm n, or None if
        it is not an integer."""
        target, rem = divmod(n.numerator * self.den ** 2, n.denominator)
        return None if rem else target

    def norm_vectors(self, n, trace=None):
        """All x in the lattice with nrd(x) = n (and trd(x) = trace if
        given), sorted by key.  With a trace the search runs in S0, at the
        target (4n - t^2) den^2, which an int norm and trace (the embedding
        searches) give in int arithmetic, with no Fraction.

        With a trace, and alg.q set, the search first makes the local test
        at q (Vigneras, LNM 800, ch. III 5): it returns [] at once when
        (-target | q) = 1, by Euler's criterion.  Such an x would generate
        Q(sqrt(t^2 - 4n)), and -target is t^2 - 4n times a square; a
        nonzero square mod the odd prime q is a square in Q_q, so Q(x) would
        split at q and Q(x) (x) Q_q = Q_q x Q_q would lie in the division
        algebra B_q, which is impossible.  q | target (target = 0 among
        them) gives symbol 0 and searches.  An algebra with q = 0 is never
        gated.

        Int and Fraction inputs are first brought to one integer triple
        (target, tnum, tden).  The gate at q and then the floor of the
        cached S0 form (s target < floor has no vector, see
        ``_ReducedForm``) are tested in this frame, before
        ``_trace_vectors`` or any search is called."""
        if trace is not None:
            den = self.den
            if isinstance(n, int) and isinstance(trace, int):
                target, tnum, tden = (4 * n - trace * trace) * den * den, trace, 1
            else:
                t = Fraction(trace)
                target = (4 * Fraction(n) - t * t) * den * den
                if target.denominator != 1:
                    return []
                target, tnum, tden = target.numerator, t.numerator, t.denominator
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
            return self._trace_vectors(target, tnum, tden, s0)
        if not isinstance(n, int):
            n = Fraction(n)
        if n < 0:
            return []
        if n == 0:
            return [Quat(self.alg, (0, 0, 0, 0))]
        target = self._norm_target(n)
        if target is None:
            return []
        found = [self._vector(c) for c, _ in self._enum_form(target)]
        found.sort(key=Quat.key)
        return found

    def find_norm_vector(self, n):
        """One x with nrd(x) = n, or None: the solution with the least
        (c3, c2, c1, c0) in the HNF coordinates.  It becomes an equivalence
        witness, stored in the graph cache, so the rule must not change;
        ``ssgraph.VertexSet.step_witness`` applies it to the edge witnesses
        without calling this method, so the two must change together."""
        n = Fraction(n)
        if n <= 0:
            return None
        target = self._norm_target(n)
        if target is None:
            return None
        sols = self._enum_form(target)
        if not sols:
            return None
        return self._vector(min((c for c, _ in sols), key=lambda c: c[::-1]))

    def min_vectors(self):
        """(minimal nonzero nrd, all attaining vectors), deterministic order."""
        if "min" in self._cache:
            return self._cache["min"]
        best = None
        vecs = []
        for c, val in self._enum_form(self._form().min_bound, upto=True):
            if best is None or val < best:
                best, vecs = val, [c]
            elif val == best:
                vecs.append(c)
        out = sorted((self._vector(c) for c in vecs), key=lambda v: v.key())
        res = (Fraction(best, self.den ** 2), out)
        self._cache["min"] = res
        return res

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


def is_order(lat):
    one = Quat.one(lat.alg)
    if one not in lat:
        return False
    basis = lat.basis()
    for x in basis:
        if x.trd().denominator != 1 or x.nrd().denominator != 1:
            return False
        for y in basis:
            if x * y not in lat:
                return False
    return True


def units(order):
    """All elements of reduced norm 1 (comes in +/- pairs)."""
    return order.norm_vectors(1)


def make_algebra(q, a=None):
    """Quaternion algebra ramified exactly at {q, infinity}.

    For q = 3 mod 4 the model is (a, b) = (1, q); other residues get the
    smallest a with the right ramification.  Passing ``a`` forces a specific
    model (used to exercise model independence).
    """
    check_primes(q=q)
    if a is None:
        if q % 4 == 3:
            a = 1
        else:
            a = next(c for c in range(1, 500) if ramified_primes(-c, -q) == [q])
    alg = QuaternionAlgebra(q=q, a=a, b=q)
    if ramified_primes(-a, -q) != [q]:
        raise ValueError(f"(-{a}, -{q}) is not ramified exactly at {{{q}, oo}}")
    return alg


def _ring_closure(lat):
    """Smallest multiplicatively closed lattice containing lat, or None if
    trace/norm integrality breaks along the way."""
    cur = lat
    for _ in range(16):
        for x in cur.basis():
            if x.trd().denominator != 1 or x.nrd().denominator != 1:
                return None
        nxt = cur.add(cur.mul(cur))
        if nxt == cur:
            return cur
        cur = nxt
    return None


def _line_reps(ell):
    """Canonical representatives of lines in F_ell^4 (first nonzero entry 1)."""
    reps = []
    for lead in range(4):
        tail = 4 - lead - 1
        count = ell ** tail
        for n in range(count):
            v = [0] * 4
            v[lead] = 1
            m = n
            for t in range(tail):
                v[lead + 1 + t] = m % ell
                m //= ell
            reps.append(tuple(v))
    return reps


def maximal_order(alg):
    """A maximal order (reduced discriminant q) in the algebra.

    For the main model (1, q) with q = 3 mod 4 this is the classical order
    with basis 1, i, (1+j)/2, (i+k)/2; any other model is maximalized by
    saturation from the obvious order Z<1,i,j,k>.
    """
    q = alg.q
    if alg.a == 1 and alg.b == q and q % 4 == 3:
        rows = [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
        order = Lattice.from_int_rows(alg, rows, 2)
        if reduced_discriminant(order) != q:
            raise ArithmeticError("classical maximal order has wrong discriminant")
        return order
    order = Lattice.from_int_rows(
        alg, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1)
    d = reduced_discriminant(order)
    while d != q:
        if d % q:
            raise ArithmeticError("discriminant lost divisibility by q")
        m = d // q
        ell = next(p for p in range(2, m + 1) if m % p == 0 and is_prime(p))
        enlarged = None
        basis = order.basis()
        for c in _line_reps(ell):
            x = sum((cr * br for cr, br in zip(c, basis) if cr),
                    Quat(alg, (0, 0, 0, 0))) / ell
            if x.trd().denominator != 1 or x.nrd().denominator != 1:
                continue
            cand = _ring_closure(order.add_elem(x))
            if cand is None or cand == order:
                continue
            if is_order(cand):
                enlarged = cand
                break
        if enlarged is None:
            raise ArithmeticError(f"cannot enlarge order at {ell}")
        order = enlarged
        d = reduced_discriminant(order)
    return order


# -- ideals -------------------------------------------------------------------

def ideal_norm(ideal, order):
    """Reduced norm via nrd(I)^2 = [O : I] (generalized index)."""
    n = frac_sqrt(ideal.index_in(order))
    if n is None:
        raise ArithmeticError("ideal index is not a perfect square")
    return n


def reduce_ideal(ideal, order):
    """(J, z) with J = I*z in the same left class and small reduced norm."""
    n = ideal_norm(ideal, order)
    _, vecs = ideal.min_vectors()
    x = vecs[0]
    z = x.conj() / n
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
    the rows r, s of I, over den^2 n, with n's denominator folded into x.

    Such an I is invertible, with I^-1 = conj(I) / n, as conj(I) I = n O_R(I)
    (Voight, Quaternion Algebras, GTM 288, 2021, ch. 16)."""
    alg, n = ideal.alg, Fraction(norm)
    x = tuple(n.denominator * v for v in x)
    left = [alg.mul4((r[0], -r[1], -r[2], -r[3]), x) for r in ideal.rows]
    return Lattice.from_int_rows(alg, [alg.mul4(y, s) for y in left for s in ideal.rows],
                                 ideal.den ** 2 * n.numerator)


def right_order(ideal, norm):
    """O_R(I) = {x : I x <= I} = I^-1 I, for a left ideal I of reduced norm
    n of a maximal order (``_conjugated`` with x = 1).  The left order of
    I is conj(O_R(conj I))."""
    return _conjugated(ideal, norm, (1, 0, 0, 0))


def two_sided_ideal(ideal, norm):
    """T = I^-1 j I = conj(I) j I / n, the two-sided ideal of reduced norm q
    of the right order R of I, a left ideal of reduced norm n of the base
    order O.  It needs j in O, true of every ``maximal_order`` (the
    classical order holds j = 2 (1+j)/2 - 1; saturation starts from
    Z<1, i, j, k>).  Then P = O j = j O is the two-sided ideal of norm q of
    O: nrd j = q, so j is a unit at every prime l != q, and at q there is
    one ideal of norm q.  Locally I = O a and R = a^-1 O a.  At l != q, T
    and P are the orders, so I T = I = P I; at q, T is the maximal ideal P
    of R = O, stable under conjugation, so I T = O a P = P a = P I.  Hence
    I T = P I = j I, and T = I^-1 j I.  The index check reads
    [R : T] = q^2 as det(T) n^2 = q^2 det(I), since [R : I] = n^2."""
    ts = _conjugated(ideal, norm, (0, 0, 1, 0))
    n = Fraction(norm)
    if ts.det() * n * n != ideal.alg.q ** 2 * ideal.det():
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
    for c in _line_reps(ell):
        # the numerator over den of x = sum_r c_r b_r; nrd(x) = nrd4(x) / den^2
        x = tuple(sum(cr * r[m] for cr, r in zip(c, rows)) for m in range(4))
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
