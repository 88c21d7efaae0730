import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracle import (conj_by_integer, from_elements, lattice_intersection,
                            norm_ideals_exhaustive, scale, two_sided_prime)
from shimura_pq.ntheory import ramified_primes
from shimura_pq.ssgraph import vertex_classes
from shimura_pq.quat import (
    Lattice,
    Quat,
    equiv_witness,
    ideal_norm,
    is_order,
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
        assert (x * y).nrd() == x.nrd() * y.nrd()
        assert (x * y).conj() == y.conj() * x.conj()
        assert x.trd() == x.conj().trd()
        assert x * x.conj() == Quat(B47, (1, 0, 0, 0)) * x.nrd()

    @settings(max_examples=40, deadline=None)
    @given(small_quats(B47))
    def test_definiteness(self, x):
        assert x.nrd() >= 0
        assert (x.nrd() == 0) == (x.num == (0, 0, 0, 0))


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

    def test_integrality_of_all_products(self):
        basis = O47.basis()
        for x in basis:
            for y in basis:
                z = x * y
                assert z.trd().denominator == 1
                assert z.nrd().denominator == 1

    def test_fallback_residue_classes(self):
        for q in (101, 17):
            order = maximal_order(make_algebra(q))
            assert reduced_discriminant(order) == q
            assert is_order(order)

    def test_orders_of_itself(self):
        # the left order of L is conj(O_R(conj L))
        assert right_order(O47.conj_lattice()).conj_lattice() == O47
        assert right_order(O47) == O47


class TestLatticeOps:
    def test_unit_of_monoid(self):
        ideal = norm_ideals(O47, 2)[0]
        assert ideal.mul(right_order(ideal)) == ideal
        assert O47.mul(O47) == O47

    def test_nrd_multiplicativity_on_products(self):
        rng = random.Random(11)
        count = 0
        while count < 20:
            ell1 = rng.choice([2, 3, 5])
            ell2 = rng.choice([2, 3, 5])
            i1 = rng.choice(norm_ideals(O11, ell1))
            i2 = rng.choice(norm_ideals(right_order(i1), ell2))
            prod = i1.mul(i2)
            # oracle: norm via the generalized index in the left order
            assert prod.index_in(O11) == (ell1 * ell2) ** 2
            assert ideal_norm(prod, O11) == ell1 * ell2
            count += 1

    def test_right_order_of_norm_p_ideal_is_maximal(self):
        for ideal in norm_ideals(O47, 5):
            assert reduced_discriminant(right_order(ideal)) == 47

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
            assert right_order(principal.conj_lattice()).conj_lattice() == conj

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
        for b in meet.basis():
            assert b in ideals[0] and b in ideals[1]
        assert meet.index_in(O47) % 4 == 0


class TestShortVectors:
    # each search runs with int and with Fraction arguments: the embedding
    # searches pass ints, which must give the same vectors
    def test_zero(self):
        for num in (int, Fraction):
            assert [v.num for v in O47.norm_vectors(num(0), trace=num(0))] == [(0, 0, 0, 0)]
            assert O47.norm_vectors(num(0), trace=num(1)) == []
            assert O47.norm_vectors(num(-1), trace=num(0)) == []
            assert O47.norm_vectors(num(1), trace=num(3)) == []

    def test_fourth_root_of_unity(self):
        for num in (int, Fraction):
            found = O47.norm_vectors(num(1), trace=num(0))
            nums = {v.num for v in found}
            assert (0, 1, 0, 0) in nums and (0, -1, 0, 0) in nums

    def test_unit_orders(self):
        # q = 11: the two classes have unit orders 2 and 3 (units / {+-1})
        orders = {len(units(order)) // 2
                  for order in [right_order(i) for i in norm_ideals(O11, 2)] + [O11]}
        assert 2 in orders and 3 in orders

    def test_weight_one_order_has_no_extra_units(self, vset47):
        weight_one = next(c for c in vset47.classes if c.weight == 1)
        for num in (int, Fraction):
            assert weight_one.right_order.norm_vectors(num(1), trace=num(0)) == []
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
        ideal = norm_ideals(O47, 5)[0].mul(norm_ideals(right_order(norm_ideals(O47, 5)[0]), 3)[0])
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
        # odd ell, for the idempotent x / trd(x), in the models a = 2 (q = 37)
        # and a = 3 (q = 41)
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
            basis = O47.basis()
            for b in basis:
                for g in ideal.basis():
                    assert b * g in ideal

    def test_distinct(self):
        keys = [i.key() for i in norm_ideals(O47, 7)]
        assert len(set(keys)) == 8

    def test_ramified_rejected(self):
        with pytest.raises(ValueError):
            norm_ideals(O47, 47)


class TestTwoSided:
    # the base order is the ideal of norm 1 of itself: T = O j O = O j
    def test_norm_q(self):
        ts = two_sided_ideal(O47, 1)
        assert ideal_norm(ts, O47) == 47
        # two-sided: x * Q * x^-1 = Q for units and basis elements of O
        for u in units(O47):
            assert conj_by_integer(ts, u) == ts

    def test_square_is_q_times_order(self):
        ts = two_sided_ideal(O11, 1)
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
            ts = two_sided_ideal(rec.ideal, rec.norm)
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
        assert [c.rational for c in v1.classes] == [c.rational for c in v2.classes]
