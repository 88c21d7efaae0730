"""Small exact number-theory helpers: primality, Legendre/Kronecker symbols,
Hilbert symbols over Q."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least strong pseudoprime to all the bases above (Sorenson-Webster,
# Math. Comp. 86, 2017): below it ``is_prime`` is proven.
MR_PROVEN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the thirteen prime bases 2..41, deterministic for
    n < MR_PROVEN_BOUND (about 3.3e24); the twelve bases 2..37 alone pass
    318665857834031151167461 = 399165290221 * 798330580441.  At or above
    the bound it is only a strong probable-prime test: ``check_primes``
    refuses such input."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_primes(**named):
    """Raise ValueError unless the named values are distinct primes >= 5
    below MR_PROVEN_BOUND, where ``is_prime`` is proven, naming the value at
    fault: check_primes(p=p, q=q) or check_primes(q=q)."""
    for name, v in named.items():
        if v >= MR_PROVEN_BOUND:
            raise ValueError(f"{name} = {v} is too large: primality is proven only "
                             f"below {MR_PROVEN_BOUND}")
        if not is_prime(v) or v < 5:
            raise ValueError(f"{name} must be a prime >= 5, got {v}")
    if len(set(named.values())) < len(named):
        raise ValueError(f"{' and '.join(named)} must be distinct primes, got "
                         + ", ".join(f"{name} = {v}" for name, v in named.items()))


def primes_from(start: int):
    """Unbounded ascending prime generator."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: one of -1, 0, 1."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _split_power(x: int, p: int):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p over Q_p for a prime p; a, b nonzero integers."""
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if p == 2:
        alpha, u = _split_power(a, 2)
        beta, w = _split_power(b, 2)
        eps = lambda x: ((x - 1) // 2) % 2
        omega = lambda x: ((x * x - 1) // 8) % 2
        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1
    alpha, u = _split_power(a, p)
    beta, w = _split_power(b, p)
    e = alpha * beta * ((p - 1) // 2)
    s = (-1) ** (e % 2)
    if beta % 2:
        s *= legendre(u, p)
    if alpha % 2:
        s *= legendre(w, p)
    return s


def prime_factors(n: int):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def ramified_primes(a: int, b: int):
    """Finite primes where the quaternion algebra (a, b / Q) ramifies."""
    cands = {2, *prime_factors(abs(a)), *prime_factors(abs(b))}
    return sorted(p for p in cands if hilbert_symbol(a, b, p) == -1)
