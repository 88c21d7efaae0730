import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shimura_pq.certify import check_ogg, genus, run_criterion
from shimura_pq.ntheory import (
    MR_PROVEN_BOUND,
    hilbert_symbol,
    is_prime,
    kronecker,
    legendre,
    prime_factors,
    primes_from,
    ramified_primes,
)
from shimura_pq.quat import make_algebra
from shimura_pq.ssgraph import build_graph, ss_oracle, vertex_classes


# The least strong pseudoprimes to the prime bases 2..37 and to 2..41
# (Sorenson-Webster, 2017).
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def test_is_prime():
    """Base 41 catches PSI_12, which every base 2..37 passes.  PSI_13
    passes all thirteen bases: it is MR_PROVEN_BOUND, at which
    ``check_primes`` stops."""
    primes = [2, 3, 5, 7, 11, 13, 47, 251, 1009, 399165290221, 2 ** 89 - 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (0, 1, 4, 9, 15, 91, 561, 1001, PSI_12))
    assert PSI_12 == 318665857834031151167461
    assert is_prime(PSI_13) and PSI_13 == MR_PROVEN_BOUND


@given(st.integers(1, 5000))
def test_prime_factors(n):
    factors = prime_factors(n)
    assert factors == [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]


@pytest.mark.parametrize("call, message", [
    (lambda: make_algebra(15), "q must be a prime >= 5, got 15"),
    (lambda: genus(3), "q must be a prime >= 5, got 3"),
    (lambda: vertex_classes(1), "q must be a prime >= 5, got 1"),
    (lambda: ss_oracle(49), "q must be a prime >= 5, got 49"),
    (lambda: build_graph(4, 11), "p must be a prime >= 5, got 4"),
    (lambda: build_graph(13, 2), "q must be a prime >= 5, got 2"),
    (lambda: build_graph(13, 13), "p and q must be distinct primes, got p = 13, q = 13"),
    (lambda: check_ogg(13, 13), "p and q must be distinct primes, got p = 13, q = 13"),
    (lambda: run_criterion(21, 47), "p must be a prime >= 5, got 21"),
    # the ogg command read (PSI_12, 47) as nonramified before base 41
    (lambda: check_ogg(PSI_12, 47), f"p must be a prime >= 5, got {PSI_12}"),
    (lambda: check_ogg(13, PSI_13),
     f"q = {PSI_13} is too large: primality is proven only below {PSI_13}"),
    (lambda: make_algebra(2 ** 89 - 1),
     f"q = {2 ** 89 - 1} is too large: primality is proven only below {PSI_13}"),
])
def test_one_input_check_names_the_value(call, message):
    # every entry point goes through check_primes, before any work
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_primes_from():
    gen = primes_from(10)
    assert [next(gen) for _ in range(4)] == [11, 13, 17, 19]


@given(st.integers(0, 10**4))
def test_legendre_squares(a):
    p = 47
    if a % p:
        assert legendre(a * a, p) == 1


def test_kronecker_fixtures():
    assert kronecker(-1, 47) == -1
    assert kronecker(-1, 13) == 1
    assert kronecker(2, 7) == 1
    assert kronecker(2, 11) == -1
    assert kronecker(-4, 3) == -1  # -4 = -1 mod 3, non-residue
    assert kronecker(13, 47) == -1
    assert kronecker(29, 251) == -1


@settings(max_examples=150, deadline=None)
@given(st.integers(-60, 60).filter(bool), st.integers(-60, 60).filter(bool))
def test_hilbert_reciprocity(a, b):
    ram = ramified_primes(a, b)
    # (a, b)_oo = -1 iff a and b are both negative
    parity = len(ram) + (1 if a < 0 and b < 0 else 0)
    assert parity % 2 == 0


def test_ramified_sets():
    assert ramified_primes(-1, -47) == [47]
    assert ramified_primes(-1, -11) == [11]
    assert ramified_primes(-1, -1) == [2]
    assert ramified_primes(-2, -101) == [101]
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
