"""Exact dense linear algebra over the integers.

Matrices are lists (or tuples) of integer rows: the Hermite and Smith
normal forms and fraction-free (Bareiss) determinants and solves, with
no ``Fraction`` elimination.  Sizes are tiny (4x4 lattices, Laplacians of a
few hundred rows), so the classical algorithms are used without any fancy
pivoting.
"""

from math import gcd


def xgcd(a: int, b: int):
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_rows(rows):
    """Row Hermite normal form of the lattice spanned by integer ``rows`` of
    length 4 (a rank-3 lattice goes in with a zero column prepended).

    Returns the list of nonzero rows as tuples: row echelon with positive
    pivots and the entries above each pivot reduced into [0, pivot), which
    is canonical for the row span, so lattice equality is a tuple
    comparison.  Rows are inserted one at a time into one slot per pivot
    column, written out on the four columns.  At each column a row with a
    zero entry moves on; at an empty slot it becomes that slot's pivot row;
    a multiple of the pivot is cleared by subtracting the pivot row; anything
    else takes one unimodular xgcd step with the pivot row, leaving the gcd
    in the slot and a zero in the row.
    """
    s0 = s1 = s2 = s3 = None
    for r0, r1, r2, r3 in rows:
        if r0:
            if s0 is None:
                s0 = (r0, r1, r2, r3)
                continue
            p0, p1, p2, p3 = s0
            if r0 % p0:
                g, x, y = xgcd(p0, r0)
                u, v = p0 // g, r0 // g
                s0 = (g, x * p1 + y * r1, x * p2 + y * r2, x * p3 + y * r3)
                r1, r2, r3 = u * r1 - v * p1, u * r2 - v * p2, u * r3 - v * p3
            else:
                f = r0 // p0
                r1, r2, r3 = r1 - f * p1, r2 - f * p2, r3 - f * p3
        if r1:
            if s1 is None:
                s1 = (0, r1, r2, r3)
                continue
            _, p1, p2, p3 = s1
            if r1 % p1:
                g, x, y = xgcd(p1, r1)
                u, v = p1 // g, r1 // g
                s1 = (0, g, x * p2 + y * r2, x * p3 + y * r3)
                r2, r3 = u * r2 - v * p2, u * r3 - v * p3
            else:
                f = r1 // p1
                r2, r3 = r2 - f * p2, r3 - f * p3
        if r2:
            if s2 is None:
                s2 = (0, 0, r2, r3)
                continue
            _, _, p2, p3 = s2
            if r2 % p2:
                g, x, y = xgcd(p2, r2)
                u, v = p2 // g, r2 // g
                s2 = (0, 0, g, x * p3 + y * r3)
                r3 = u * r3 - v * p3
            else:
                r3 -= r2 // p2 * p3
        if r3:
            s3 = (0, 0, 0, r3 if s3 is None else gcd(s3[3], r3))
    # positive pivots, then the entries above each pivot reduced, left to right
    result = []
    for col, slot in enumerate((s0, s1, s2, s3)):
        if slot is None:
            continue
        if slot[col] < 0:
            slot = tuple(-x for x in slot)
        t0, t1, t2, t3 = slot
        pval = slot[col]
        for i, above in enumerate(result):
            q = above[col] // pval
            if q:
                a0, a1, a2, a3 = above
                result[i] = (a0 - q * t0, a1 - q * t1, a2 - q * t2, a3 - q * t3)
        result.append(slot)
    return result


def smith_normal_form(mat, modulus=None):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the list of diagonal entries d_1 | d_2 | ... (nonnegative, with
    zeros trailing).

    With ``modulus=m`` the computation happens in Z/m (every entry reduced
    into [0, m)), which is the standard remedy against intermediate entry
    explosion when only the cokernel of [mat | m*I] is wanted.
    """
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0

    def red(x):
        return x % modulus if modulus else x

    def row_op(i, j, q):
        # row_i -= q * row_j
        a[i] = [red(x - q * y) for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):
        for r in range(m):
            a[r][i] = red(a[r][i] - q * a[r][j])

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    if modulus:
        a = [[x % modulus for x in row] for row in a]
    k = 0
    while k < min(m, n):
        # locate the smallest nonzero entry in the trailing block
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(k, best[0])
        swap_cols(k, best[1])
        # clear the edging; pivoting may need several sweeps
        while True:
            done = True
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    row_op(i, k, q)
                    if a[i][k]:
                        swap_rows(i, k)
                        done = False
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    col_op(j, k, q)
                    if a[k][j]:
                        swap_cols(j, k)
                        done = False
            if done:
                break
        # divisibility repair: pivot must divide the trailing block
        fixed = False
        for i in range(k + 1, m):
            if fixed:
                break
            for j in range(k + 1, n):
                if a[i][j] % a[k][k]:
                    row_op(k, i, -1)  # add row i to row k
                    fixed = True
                    break
        if fixed:
            continue
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
        k += 1

    return [a[i][i] if i < n else 0 for i in range(min(m, n))]


def _bareiss(a, n):
    """Fraction-free (Bareiss) elimination of the rows of ``a``, in place, on
    the first n columns; every entry stays a minor, so each division is
    exact.  Returns the determinant of the leading n x n block."""
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k, akk = a[k], a[k][k]
        for row in a[k + 1:]:
            aik = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (akk * row[j] - aik * row_k[j]) // prev
            row[k] = 0
        prev = akk
    return sign * prev


def det_bareiss(mat):
    """Exact determinant of a square integer matrix (Bareiss)."""
    return _bareiss([list(r) for r in mat], len(mat))


def solve_bareiss(mat, rhs):
    """(det(mat), adj(mat) * rhs) for a nonsingular integer mat and an n x k
    integer rhs: Bareiss on [mat | rhs], then back-substitution, exact since
    adj(mat) * rhs = det(mat) * mat^-1 * rhs is integral."""
    n = len(mat)
    a = [list(r) + list(b) for r, b in zip(mat, rhs)]
    d = _bareiss(a, n)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    k = len(rhs[0]) if rhs else 0
    y = [[0] * k for _ in range(n)]
    for c in range(k):
        for i in range(n - 1, -1, -1):
            s = d * a[i][n + c] - sum(a[i][j] * y[j][c] for j in range(i + 1, n))
            y[i][c] = s // a[i][i]
    return d, y
