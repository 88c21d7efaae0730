"""Reference short-vector enumerator for differential tests.

This is the Fincke-Pohst enumeration that ``Lattice`` used before it moved
to an integer enumerator over an LLL-reduced basis: an LDL decomposition in
``Fraction`` arithmetic of the Gram matrix as given, with integer ranges
found by stepping.  It is kept here as a function of the Gram matrix, of
rank 3 or 4 (the rank is read off the matrix), so the tests can compare the
fast enumerator against it on the rank-4 lattices and on the rank-3
trace-zero lattices alike:

* ``enum_form(g, target, upto)`` -- every (c, c^T G c) with c != 0 and
  c^T G c == target (or <= target);
* ``find_norm_vector(g, target)`` -- the early-exit search: the first c
  with c^T G c == target, trying the last coordinate first, each in
  ascending order;
* ``min_vectors(g)`` -- (minimum, attaining c) by enumeration up to a
  Hermite-type bound, doubled until something is found.

Beside it is the integer search as it was before its levels were written
out:

* ``reduced_vectors(form, target, upto)`` -- the recursive Fincke-Pohst
  search over the integer LDL data of a ``_ReducedForm``, a second oracle
  for ``_ReducedForm.vectors`` on the same reduced basis.

and the integral LLL as it was before it kept the Gram matrix of the
reduced basis:

* ``reduced_form_reference(g)`` -- ``_ReducedForm.__init__`` with its
  closures, each b_k . b_j and each norm of the ``min_bound`` recomputed
  from the transform and G; the oracle for the ``t``, ``d``, ``lam``,
  ``w``, ``s``, ``floor`` and ``min_bound`` of ``_ReducedForm``.

It also keeps the embedding search as it was before the trace-zero lattice
took it over, on a ``Lattice``:

* ``norm_vectors_with_trace(lat, n, trace)`` -- every vector of norm n from
  the rank-4 search, then a filter on the trace;
* ``count_optimal(order, D, cands, unit_list)`` -- optimality tested on the
  ``Fraction`` element (2x + shift) / (2 ell) (``optimal_candidates``, which
  the Kaneko-bound test also reads), orbits by conjugation with ``u.inv()``.
"""

from fractions import Fraction
from math import isqrt, lcm
from types import SimpleNamespace

from lattice_oracle import add
from shimura_pq.gross import validate_discriminant
from shimura_pq.linalg import det_bareiss
from shimura_pq.ntheory import prime_factors


def conductor_split(D):
    """(fundamental discriminant, conductor f) with D = D0 * f^2."""
    validate_discriminant(D)
    n = -D
    f = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            f *= d
        d += 1
    d0 = D // (f * f)
    if d0 % 4 not in (0, 1):
        f //= 2
        d0 = D // (f * f)
    return d0, f


def _fr_floor(f):
    return f.numerator // f.denominator


def _fsqrt_floor(f):
    if f < 0:
        return -1
    return isqrt(f.numerator * f.denominator) // f.denominator


def _int_range(off, bound):
    """Integers c with (c + off)^2 <= bound; off, bound are Fractions."""
    if bound < 0:
        return 1, 0
    s = _fsqrt_floor(bound)
    base = _fr_floor(-off)

    def le_upper(c):
        d = c + off
        return d <= 0 or d * d <= bound

    def ge_lower(c):
        d = c + off
        return d >= 0 or d * d <= bound

    hi = base + s
    while le_upper(hi + 1):
        hi += 1
    while hi > base - s - 2 and not le_upper(hi):
        hi -= 1
    lo = base - s - 1
    while not ge_lower(lo):
        lo += 1
    while ge_lower(lo - 1):
        lo -= 1
    return lo, hi


def ldl(g):
    n = len(g)
    L = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    D = [Fraction(0)] * n
    for j2 in range(n):
        D[j2] = Fraction(g[j2][j2]) - sum(L[j2][k] ** 2 * D[k] for k in range(j2))
        if D[j2] <= 0:
            raise ArithmeticError("form is not positive definite")
        for i2 in range(j2 + 1, n):
            L[i2][j2] = (Fraction(g[i2][j2])
                         - sum(L[i2][k] * L[j2][k] * D[k] for k in range(j2))) / D[j2]
    return D, L


def enum_form(g, target, upto=False):
    """Integer vectors c != 0 with c^T G c == target (or <= target if upto)."""
    D, L = ldl(g)
    n = len(g)
    out = []
    c = [0] * n
    tgt = Fraction(target)

    def rec(j2, rem):
        if j2 < 0:
            if (upto or rem == 0) and any(c):
                out.append((tuple(c), tgt - rem))
            return
        off = sum(L[i2][j2] * c[i2] for i2 in range(j2 + 1, n))
        lo, hi = _int_range(off, rem / D[j2])
        for cj in range(lo, hi + 1):
            c[j2] = cj
            val = D[j2] * (cj + off) ** 2
            if val <= rem:
                rec(j2 - 1, rem - val)
        c[j2] = 0

    rec(n - 1, tgt)
    return out


def find_norm_vector(g, target):
    """The first c with c^T G c == target found by the early-exit search, or None."""
    D, L = ldl(g)
    n = len(g)
    c = [0] * n
    hit = []

    def rec(j2, rem):
        if j2 < 0:
            if rem == 0:
                hit.append(tuple(c))
                return True
            return False
        off = sum(L[i2][j2] * c[i2] for i2 in range(j2 + 1, n))
        lo, hi = _int_range(off, rem / D[j2])
        for cj in range(lo, hi + 1):
            c[j2] = cj
            val = D[j2] * (cj + off) ** 2
            if val <= rem and rec(j2 - 1, rem - val):
                return True
        c[j2] = 0
        return False

    rec(n - 1, Fraction(target))
    return hit[0] if hit else None


def min_vectors(g):
    """(minimal nonzero c^T G c, the set of attaining c)."""
    detg = det_bareiss(g)
    bound = isqrt(2 * isqrt(detg)) + 2
    best = None
    vecs = []
    while best is None:
        for c, val in enum_form(g, bound, upto=True):
            if val == 0:
                continue
            if best is None or val < best:
                best, vecs = val, [c]
            elif val == best:
                vecs.append(c)
        bound *= 2  # safety; the Hermite bound should always hit
    return int(best), set(vecs)


def norm_vectors_with_trace(lat, n, trace):
    """The x in lat with nrd(x) = n and trd(x) = trace, sorted by key."""
    return [x for x in lat.norm_vectors(n) if 2 * x.num[0] == trace * x.den]


def optimal_candidates(order, D, cands):
    """The candidates that are optimal in order: x is not optimal if
    (2x + shift) / (2 ell) lies in order for a prime ell of the conductor."""
    t0 = D % 2
    _, f = conductor_split(D)
    for ell in prime_factors(f):
        shift = ell * ((D // (ell * ell)) % 2) - t0
        cands = [x for x in cands if add(x * 2, shift) / (2 * ell) not in order]
    return cands


def count_optimal(order, D, cands, unit_list):
    """Unit-conjugation orbits of the candidates that are optimal in order."""
    cands = optimal_candidates(order, D, cands)
    remaining = {x.key(): x for x in cands}
    orbits = 0
    while remaining:
        seed = remaining.pop(min(remaining))
        orbits += 1
        for u in unit_list:
            remaining.pop((u * seed * u.inv()).key(), None)
    return orbits


def reduced_vectors(form, target, upto=False):
    """``_ReducedForm.vectors`` as it was before its levels were written
    out: the recursive search over the same integer LDL data."""
    if target < 0:
        return []
    n, t, d, lam, w, scale = form.n, form.t, form.d, form.lam, form.w, form.s
    y = [0] * (n + 1)
    out = []

    def emit(rem):
        if any(y):
            c = tuple(sum(y[i] * t[i][m] for i in range(1, n + 1)) for m in range(n))
            out.append((c, target - rem // scale))

    def rec(j, rem):
        a = sum(lam[i][j] * y[i] for i in range(j + 1, n + 1))
        dj, wj = d[j], w[j]
        s = isqrt(rem // wj)
        if j == 1 and not upto:
            # last level of an exact search: solve W_1 (d_1 y_1 + a)^2 = rem
            if rem != wj * s * s:
                return
            for u in (s, -s) if s else (0,):
                if (u - a) % dj == 0:
                    y[1] = (u - a) // dj
                    emit(0)
            y[1] = 0
            return
        for yj in range(-((s + a) // dj), (s - a) // dj + 1):
            y[j] = yj
            u = dj * yj + a
            if j > 1:
                rec(j - 1, rem - wj * u * u)
            else:
                emit(rem - wj * u * u)
        y[j] = 0

    rec(n, scale * target)
    return out


def reduced_form_reference(g):
    """``_ReducedForm.__init__`` as it was: integral LLL (Cohen, GTM 138,
    Alg. 2.6.7) with b_k . b_j read as (h_k G) . h_j, in closures; the
    fields it set, in a namespace."""
    n = len(g)
    if n not in (3, 4):
        raise ValueError(f"forms of rank 3 and 4 only, not {n}")
    h = [None] + [[int(r == c) for c in range(n)] for r in range(n)]
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    d = [1] + [0] * n

    def times_g(i):
        return [sum(x * row[c] for x, row in zip(h[i], g)) for c in range(n)]

    def dot(v, j):
        return sum(x * y for x, y in zip(v, h[j]))

    def redi(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            h[k] = [x - q * y for x, y in zip(h[k], h[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swapi(k, kmax):
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        b = (d[k - 2] * d[k] + lk * lk) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            u = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - lk * u) // d[k - 1]
            lam[i][k - 1] = (b * u + lk * lam[i][k]) // d[k]
        d[k - 1] = b

    k, kmax = 1, 0
    while k <= n:
        if k > kmax:
            kmax = k
            hk = times_g(k)
            for j in range(1, k + 1):
                u = dot(hk, j)
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ArithmeticError("form is not positive definite")
                else:
                    d[k] = u
            if k == 1:
                k = 2
                continue
        redi(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swapi(k, kmax)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                redi(k, l)
            k += 1

    s = lcm(*(d[j] * d[j - 1] for j in range(1, n + 1)))
    w = [None] + [s // (d[j] * d[j - 1]) for j in range(1, n + 1)]
    floor = min(w[j] * d[j] * d[j] for j in range(1, n + 1))
    min_bound = min(dot(times_g(i), i) for i in range(1, n + 1))
    if n == 3:
        h = [None] + [row + [0] for row in h[1:]] + [[0, 0, 0, 0]]
        lam = [row + [0] for row in lam] + [[0] * 5]
        d.append(1)
        w.append(1)
    return SimpleNamespace(n=n, t=h, d=d, lam=lam, w=w, s=s, floor=floor, min_bound=min_bound)
