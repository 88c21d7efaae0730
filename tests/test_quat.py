import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lattice_oracle
from lattice_oracle import (basis, conj_by_integer, from_elements, is_order, lattice_intersection,
                            nrd, norm_ideals_exhaustive, scale, sub, trd, two_sided_prime)
from shimura_pq.ntheory import is_prime, ramified_primes
from shimura_pq.ssgraph import vertex_classes
from shimura_pq.quat import (
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
    two_sided_ideal,
    units,
)

B47 = make_algebra(47)
O47 = maximal_order(B47)
B11 = make_algebra(11)
O11 = maximal_order(B11)


def small_quats(alg):
    return st.builds(
        lambda n, d: Quat(alg, tuple(n), d),
        st.tuples(*([st.integers(-6, 6)] * 4)),
        st.integers(1, 3),
    )


class TestAlgebra:
    def test_model_for_3_mod_4(self):
        assert (B47.a, B47.b) == (1, 47)
        assert (B11.a, B11.b) == (1, 11)

    def test_ramification(self):
        assert ramified_primes(-B47.a, -B47.b) == [47]
        assert ramified_primes(-B11.a, -B11.b) == [11]

    def test_invalid_inputs(self):
        for bad in (4, 2, 3, 1, 15):
            with pytest.raises(ValueError):
                make_algebra(bad)

    @settings(max_examples=40, deadline=None)
    @given(small_quats(B47), small_quats(B47), small_quats(B47))
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=40, deadline=None)
    @given(small_quats(B47), small_quats(B47))
    def test_nrd_multiplicative_and_conj(self, x, y):
        assert nrd(x * y) == nrd(x) * nrd(y)
        assert (x * y).conj() == y.conj() * x.conj()
        assert trd(x) == trd(x.conj())
        assert sub(x * x.conj(), nrd(x)) == Quat(B47, (0, 0, 0, 0))

    @settings(max_examples=40, deadline=None)
    @given(small_quats(B47))
    def test_definiteness(self, x):
        assert nrd(x) >= 0
        assert (nrd(x) == 0) == (x.num == (0, 0, 0, 0))


def _elementwise(entries, den):
    """entries / den in lowest terms, one gcd per entry."""
    g = den
    for x in entries:
        g = gcd(g, abs(x))
    return [x // g for x in entries], den // g


# zeros, small and large entries of either sign; a common factor makes the
# gcd nontrivial, and a denominator of 1 or a large one
entries = st.one_of(st.just(0), st.integers(-30, 30), st.integers(-2 ** 80, 2 ** 80))
denominators = st.one_of(st.just(1), st.integers(1, 60), st.integers(2 ** 64, 2 ** 90))
factors = st.one_of(st.just(1), st.integers(1, 10 ** 6))


class TestNormalisation:
    """Quat and Lattice reduce num / den by one gcd of den and every entry,
    which must agree with reducing entry by entry."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(entries, min_size=4, max_size=4), denominators, factors)
    def test_quat_matches_elementwise(self, num, den, c):
        num, den = [c * x for x in num], c * den
        x = Quat(B47, num, den)
        want, wden = _elementwise(num, den)
        assert (x.num, x.den) == (tuple(want), wden)
        y = Quat(B47, tuple(num), -den)
        assert (y.num, y.den) == (tuple(-v for v in want), wden)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(entries, min_size=16, max_size=16), denominators, factors)
    def test_lattice_matches_elementwise(self, flat, den, c):
        flat, den = [c * x for x in flat], c * den
        lat = Lattice(B47, [flat[4 * r: 4 * r + 4] for r in range(4)], den)
        want, wden = _elementwise(flat, den)
        assert lat.rows == tuple(tuple(want[4 * r: 4 * r + 4]) for r in range(4))
        assert lat.den == wden

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-8, 8), min_size=4, max_size=4),
           st.integers(1, 12), st.integers(1, 12))
    def test_scalar_products_match_fractions(self, num, den, a):
        x = Quat(B47, num, den)
        coords = [Fraction(v, den) for v in num]
        for f in (a, -a):
            assert [Fraction(v, (x * f).den) for v in (x * f).num] == [v * f for v in coords]
            assert [Fraction(v, (x / f).den) for v in (x / f).num] == [v / f for v in coords]
            assert f * x == x * f

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=4, max_size=4),
           st.lists(st.integers(0, 8), min_size=6, max_size=6),
           st.integers(1, 12), st.lists(st.integers(-9, 9), min_size=4, max_size=4),
           st.integers(1, 12))
    def test_add_elem_matches_rescaling(self, piv, above, den, num, xden):
        """add_elem keeps the rows when x.den divides den; the old path
        rescaled both to the lcm of the denominators every time."""
        upper = iter(above)
        rows = [[0] * c + [piv[c]] + [next(upper) for _ in range(c + 1, 4)] for c in range(4)]
        lat, x = Lattice.from_int_rows(B47, rows, den), Quat(B47, num, xden)
        d = lcm(lat.den, x.den)
        old = [tuple(d // lat.den * v for v in r) for r in lat.rows]
        old.append(tuple(d // x.den * v for v in x.num))
        assert lat.add_elem(x) == Lattice.from_int_rows(B47, old, d)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, 2.0, Fraction(4, 2)])
    def test_non_int_entry_raises(self, bad):
        # the entries used to go through int(), so 1/2 became 0 and 1.5 became 1
        with pytest.raises(TypeError):
            Quat(B47, (bad, 0, 0, 0))
        with pytest.raises(TypeError):
            Quat(B47, (0, 0, 0, bad), 3)
        with pytest.raises(TypeError):
            Lattice(B47, [(1, 0, 0, 0), (0, bad, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1)

    def test_negative_denominator_flips_signs(self):
        x = Quat(B47, (1, -2, 3, 0), -2)
        assert (x.num, x.den) == ((-1, 2, -3, 0), 2)
        assert Quat(B47, (2, 4, 0, -6), -4) == Quat(B47, (-1, -2, 0, 3), 2)
        with pytest.raises(ZeroDivisionError):
            Quat(B47, (1, 0, 0, 0), 0)
        with pytest.raises(ZeroDivisionError):
            Quat(B47, (1, 0, 0, 0)) / 0


class TestMaximalOrder:
    def test_discriminant(self):
        assert reduced_discriminant(O47) == 47
        assert reduced_discriminant(O11) == 11

    def test_classical_basis(self):
        i = Quat(B47, (0, 1, 0, 0))
        half_1j = Quat(B47, (1, 0, 1, 0), 2)
        half_ik = Quat(B47, (0, 1, 0, 1), 2)
        expected = from_elements(B47, [Quat.one(B47), i, half_1j, half_ik])
        assert O47 == expected
        # saturation of Z<1, i, j, k> builds the classical order for every
        # q = 3 mod 4, in the model (1, q) that make_algebra picks
        classical = [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)]
        for q in range(7, 5000, 4):
            if is_prime(q):
                alg = make_algebra(q)
                assert alg.a == 1
                assert maximal_order(alg) == Lattice.from_int_rows(alg, classical, 2), q

    def test_integrality_of_all_products(self):
        elems = basis(O47)
        for x in elems:
            for y in elems:
                z = x * y
                assert trd(z).denominator == 1
                assert nrd(z).denominator == 1

    def test_model_of_another_ramification_is_refused(self):
        # (-5, -47) is ramified at {5, oo}
        with pytest.raises(ValueError, match="not ramified exactly"):
            make_algebra(47, a=5)

    def test_fallback_residue_classes(self):
        for q in (101, 17):
            order = maximal_order(make_algebra(q))
            assert reduced_discriminant(order) == q
            assert is_order(order)

    def test_orders_of_itself(self):
        # the left order of L is conj(O_R(conj L))
        assert right_order(O47.conj_lattice(), 1).conj_lattice() == O47
        assert right_order(O47, 1) == O47


class TestLatticeOps:
    def test_unit_of_monoid(self):
        ideal = norm_ideals(O47, 2)[0]
        assert ideal.mul(right_order(ideal, 2)) == ideal
        assert O47.mul(O47) == O47

    def test_nrd_multiplicativity_on_products(self):
        rng = random.Random(11)
        count = 0
        while count < 20:
            ell1 = rng.choice([2, 3, 5])
            ell2 = rng.choice([2, 3, 5])
            i1 = rng.choice(norm_ideals(O11, ell1))
            r1 = right_order(i1, ell1)
            assert r1 == lattice_oracle.right_order(i1)
            i2 = rng.choice(norm_ideals(r1, ell2))
            prod = i1.mul(i2)
            # oracle: norm via the generalized index in the left order
            assert prod.index_in(O11) == (ell1 * ell2) ** 2
            assert ideal_norm(prod, O11) == ell1 * ell2
            assert right_order(prod, ell1 * ell2) == lattice_oracle.right_order(prod) == \
                right_order(i2, ell2)
            count += 1

    def test_right_order_of_norm_p_ideal_is_maximal(self):
        for ideal in norm_ideals(O47, 5):
            assert reduced_discriminant(right_order(ideal, 5)) == 47

    def test_left_order_of_principal(self):
        rng = random.Random(5)
        for _ in range(5):
            x = Quat(B47, tuple(rng.randint(-4, 4) for _ in range(4)))
            if x.num == (0, 0, 0, 0):
                continue
            # x * O
            principal = Lattice.from_int_rows(B47, [B47.mul4(x.num, r) for r in O47.rows],
                                              O47.den * x.den)
            conj = conj_by_integer(O47, x)  # x * O * x^-1
            assert right_order(principal.conj_lattice(), B47.nrd4(x.num)).conj_lattice() == conj

    @pytest.mark.parametrize("q, a", [(11, 1), (11, 3), (37, None), (41, None), (47, None),
                                      (163, None)])
    def test_right_orders_of_classes_match_oracle(self, q, a):
        # I^-1 I against the Fraction dual of the constraint lattice, on every
        # class, for q of both residues mod 4 and the model a = 3
        vset = vertex_classes(q, alg=make_algebra(q, a=a))
        for rec in vset.classes:
            assert rec.right_order == right_order(rec.ideal, rec.norm) == \
                lattice_oracle.right_order(rec.ideal)
            assert right_order(rec.ideal.conj_lattice(), rec.norm).conj_lattice() == \
                lattice_oracle.left_order(rec.ideal) == vset.order

    def test_hnf_canonical_under_rebasing(self):
        rng = random.Random(3)
        ideal = norm_ideals(O47, 3)[1]
        for _ in range(10):
            rows = [list(r) for r in ideal.rows]
            for _ in range(6):
                i, j = rng.randrange(4), rng.randrange(4)
                if i == j:
                    continue
                c = rng.randint(-3, 3)
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            rebuilt = Lattice.from_int_rows(B47, rows, ideal.den)
            assert rebuilt == ideal

    def test_intersection(self):
        ideals = norm_ideals(O47, 2)
        meet = lattice_intersection(ideals[0], ideals[1])
        for b in basis(meet):
            assert b in ideals[0] and b in ideals[1]
        assert meet.index_in(O47) % 4 == 0


class TestShortVectors:
    def test_zero(self):
        assert [v.num for v in O47.norm_vectors(0, trace=0)] == [(0, 0, 0, 0)]
        assert O47.norm_vectors(0, trace=1) == []
        assert O47.norm_vectors(-1, trace=0) == []
        assert O47.norm_vectors(1, trace=3) == []

    def test_fourth_root_of_unity(self):
        found = O47.norm_vectors(1, trace=0)
        nums = {v.num for v in found}
        assert (0, 1, 0, 0) in nums and (0, -1, 0, 0) in nums

    def test_unit_orders(self):
        # q = 11: the two classes have unit orders 2 and 3 (units / {+-1})
        orders = {len(units(order)) // 2
                  for order in [right_order(i, 2) for i in norm_ideals(O11, 2)] + [O11]}
        assert 2 in orders and 3 in orders

    def test_weight_one_order_has_no_extra_units(self, vset47):
        weight_one = next(c for c in vset47.classes if c.weight == 1)
        assert weight_one.right_order.norm_vectors(1, trace=0) == []
        assert len(units(weight_one.right_order)) // 2 == 1


class TestEquivalence:
    def test_reflexive(self):
        for ideal in norm_ideals(O47, 2):
            assert equiv_witness(ideal, ideal, O47) is not None

    def test_principal_rescaling(self):
        rng = random.Random(1)
        ideal = norm_ideals(O47, 3)[0]
        for _ in range(5):
            x = Quat(B47, tuple(rng.randint(-3, 3) for _ in range(4)))
            if x.num == (0, 0, 0, 0):
                continue
            assert equiv_witness(ideal, ideal.mul_elem(x), O47) is not None

    def test_witness_is_exact(self):
        i1 = norm_ideals(O11, 2)[0]
        i2 = norm_ideals(O11, 2)[1]
        w = equiv_witness(i1, i2, O11)
        if w is not None:
            assert i1.mul_elem(w) == i2

    def test_two_classes_for_q_11(self):
        seen = [O11]
        for ell in (2, 3):
            for ideal in norm_ideals(O11, ell):
                if all(equiv_witness(ideal, s, O11) is None for s in seen):
                    seen.append(ideal)
        assert len(seen) == 2

    def test_reduce_ideal(self):
        first = norm_ideals(O47, 5)[0]
        ideal = first.mul(norm_ideals(right_order(first, 5), 3)[0])
        red, z = reduce_ideal(ideal, O47)
        assert ideal.mul_elem(z) == red
        assert ideal_norm(red, O47) <= ideal_norm(ideal, O47)
        assert equiv_witness(ideal, red, O47) is not None


class TestNormIdeals:
    def test_counts_and_oracle(self, vset23, vset37):
        cases = [(O11, ell) for ell in (2, 3, 5)]
        # q = 37 = 1 mod 4: the maximal order comes from saturation (a != 1)
        for vset in (vset23, vset37):
            cases += [(c.right_order, ell) for c in vset.classes for ell in (2, 3)]
        # odd ell in the models a = 2 (q = 37) and a = 3 (q = 41)
        for vset in (vset37, vertex_classes(41)):
            assert vset.alg.a != 1
            cases += [(c.right_order, ell) for c in vset.classes for ell in (5, 7)]
        for order, ell in cases:
            fast = norm_ideals(order, ell)
            slow = norm_ideals_exhaustive(order, ell)
            assert len(fast) == ell + 1
            assert sorted(x.key() for x in fast) == sorted(x.key() for x in slow)
            for ideal in fast:
                assert ideal_norm(ideal, order) == ell

    def test_defining_properties(self):
        for ideal in norm_ideals(O47, 3):
            assert ideal_norm(ideal, O47) == 3
            for b in basis(O47):
                for g in basis(ideal):
                    assert b * g in ideal

    def test_distinct(self):
        keys = [i.key() for i in norm_ideals(O47, 7)]
        assert len(set(keys)) == 8

    def test_ramified_rejected(self):
        with pytest.raises(ValueError):
            norm_ideals(O47, 47)

    def test_norm_of_fractional_ideal_raises(self):
        # O / 2 does not lie in O: its norm 1/4 is no integer
        with pytest.raises(ArithmeticError, match="not an integer.*not integral"):
            ideal_norm(Lattice(B47, O47.rows, 2 * O47.den), O47)
        assert type(ideal_norm(O47, O47)) is int


class TestTwoSided:
    # the base order is the ideal of norm 1 of itself: T = O j O = O j
    def test_norm_q(self):
        ts = two_sided_ideal(O47, 1, O47)
        assert ideal_norm(ts, O47) == 47
        # two-sided: x * Q * x^-1 = Q for units and basis elements of O
        for u in units(O47):
            assert conj_by_integer(ts, u) == ts

    def test_index_is_checked_in_the_right_order(self, vset11):
        # T_k lies in R_k with index q^2; some T_k does not lie in O
        rec = next(rec for rec in vset11.classes
                   if two_sided_ideal(rec.ideal, rec.norm, rec.right_order).index_in(O11) is None)
        assert two_sided_ideal(rec.ideal, rec.norm, rec.right_order).index_in(
            rec.right_order) == 11 * 11
        with pytest.raises(ArithmeticError, match="^two-sided ideal has wrong index$"):
            two_sided_ideal(rec.ideal, rec.norm, O11)

    def test_square_is_q_times_order(self):
        ts = two_sided_ideal(O11, 1, O11)
        assert ts.mul(ts) == scale(O11, 11)

    @pytest.mark.parametrize("q", [11, 13, 37, 41, 73, 97, 251])
    def test_conjugate_of_j_is_the_trace_radical(self, q):
        # T_k = I_k^-1 j I_k against the radical of the trace form mod q,
        # and I_k T_k = j I_k, on every class; q = 13, 37, 41, 73, 97 use
        # models with a != 1, so a saturated maximal order
        vset = vertex_classes(q)
        j = Quat(vset.alg, (0, 0, 1, 0))
        assert j in vset.order
        for rec in vset.classes:
            ts = two_sided_ideal(rec.ideal, rec.norm, rec.right_order)
            assert ts == two_sided_prime(rec.right_order, q)
            assert rec.ideal.mul(ts) == Lattice.from_int_rows(
                vset.alg, [vset.alg.mul4(j.num, r) for r in rec.ideal.rows], rec.ideal.den)


class TestModelIndependence:
    def test_two_models_for_q_11(self):
        v1 = vertex_classes(11)
        v2 = vertex_classes(11, alg=make_algebra(11, a=3))
        assert len(v1) == len(v2)
        assert sorted(v1.weights) == sorted(v2.weights)
        assert v1.mass() == v2.mass()
        assert v1.wq_perm == v2.wq_perm
