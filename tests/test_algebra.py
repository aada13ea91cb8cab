"""Bigraded algebra: product signs, Berezin integral, Pfaffian, truncated
exponentials, and the closed-form component identity used by the
transgression machinery."""

import math

import numpy as np
import pytest

from finslergbc.algebra import (
    AlgebraError,
    BigradedElement,
    SkewMatrixValuedForm,
    berezin,
    bigraded_product,
    exp_truncated,
    merge_sign,
    pfaffian,
    sort_with_parity,
)


def elem(n, entries, form_dim=3):
    """Build from (I, J, coeff) triples; indices may be unsorted."""
    out = BigradedElement.zero(n, form_dim)
    for I, J, c in entries:
        out.add_term(I, J, c)
    return out


def random_element(rng, n, i, j, form_dim=3):
    """Random homogeneous element of A^{i,j} with |coeff| <= 1."""
    from itertools import combinations

    out = BigradedElement.zero(n, form_dim)
    for I in combinations(range(form_dim), i):
        for J in combinations(range(n), j):
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            out.add_term(I, J, c)
    return out


class TestIndexLogic:
    def test_sort_with_parity(self):
        assert sort_with_parity((2, 0, 1)) == ((0, 1, 2), 1)
        assert sort_with_parity((1, 0)) == ((0, 1), -1)
        assert sort_with_parity((1, 1)) == ((1, 1), 0)

    def test_merge_sign(self):
        assert merge_sign((0,), (1,)) == ((0, 1), 1)
        assert merge_sign((1,), (0,)) == ((0, 1), -1)
        assert merge_sign((0, 2), (1,)) == ((0, 1, 2), -1)
        assert merge_sign((0,), (0,))[1] == 0

    def test_merge_sign_matches_sort_with_parity(self):
        """Every pair of strictly increasing tuples of length <= 3 over
        range(5): merge_sign's sign is sort_with_parity's (0 on a repeated
        index) and, when nonzero, so is the merged tuple."""
        from itertools import combinations

        tuples = [c for k in range(4) for c in combinations(range(5), k)]
        for left in tuples:
            for right in tuples:
                merged, sign = merge_sign(left, right)
                want, want_sign = sort_with_parity(left + right)
                assert sign == want_sign, (left, right)
                if sign:
                    assert merged == want

    def test_merge_sign_is_memoised(self):
        """A repeated call is a cache hit and returns an equal, immutable
        result, so no caller can alter what the cache hands out."""
        first = merge_sign((0, 3), (1, 2))
        hits = merge_sign.cache_info().hits
        assert merge_sign((0, 3), (1, 2)) == first == ((0, 1, 2, 3), 1)
        assert merge_sign.cache_info().hits == hits + 1
        assert isinstance(first, tuple) and isinstance(first[0], tuple)


class TestProduct:
    def test_pure_fiber_wedge(self):
        a = elem(2, [((), (0,), 1.0)])
        b = elem(2, [((), (1,), 1.0)])
        assert (a * b).terms == {((), (0, 1)): 1.0}

    def test_repeated_form_index_dies(self):
        a = elem(2, [((0,), (0,), 1.0)])
        b = elem(2, [((0,), (1,), 1.0)])
        assert (a * b).terms == {}

    def test_sign_rule_cross_term(self):
        # (dx (x) e1).(dy (x) e2) = (-1)^{1*1} (dx^dy)(x)(e1^e2)
        a = elem(2, [((0,), (0,), 1.0)])
        b = elem(2, [((1,), (1,), 1.0)])
        assert (a * b).terms == {((0, 1), (0, 1)): -1.0}
        # same fiber index dies
        b2 = elem(2, [((1,), (0,), 1.0)])
        assert (a * b2).terms == {}

    def test_sign_rule_brute_force(self):
        """Every basis-pair product matches the explicit permutation-sign
        computation (-1)^{|J1||I2|} * sign(I1 I2) * sign(J1 J2)."""
        from itertools import combinations

        n, fd = 3, 3
        basis = [
            (I, J)
            for di in range(fd + 1)
            for dj in range(n + 1)
            for I in combinations(range(fd), di)
            for J in combinations(range(n), dj)
        ]
        for I1, J1 in basis:
            for I2, J2 in basis:
                got = (elem(n, [(I1, J1, 1.0)]) * elem(n, [(I2, J2, 1.0)])).terms
                I, si = merge_sign(I1, I2)
                J, sj = merge_sign(J1, J2)
                sign = si * sj * (-1) ** (len(J1) * len(I2))
                if sign == 0:
                    assert got == {}
                else:
                    assert got == {(I, J): sign}

    def test_rank_mismatch_raises(self):
        with pytest.raises(AlgebraError):
            bigraded_product(elem(2, []), elem(3, []))

    def test_associativity_random_triples(self):
        """(ab)c = a(bc) on 500 random triples, residual < 1e-12."""
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 5))
            a = random_element(rng, n, int(rng.integers(0, 3)), int(rng.integers(0, n + 1)))
            b = random_element(rng, n, int(rng.integers(0, 3)), int(rng.integers(0, n + 1)))
            c = random_element(rng, n, int(rng.integers(0, 3)), int(rng.integers(0, n + 1)))
            worst = max(worst, ((a * b) * c - a * (b * c)).max_abs())
        assert worst < 1e-12

    def test_bidegree_addition(self):
        rng = np.random.default_rng(7)
        a = random_element(rng, 3, 1, 1)
        b = random_element(rng, 3, 2, 1)
        for (I, J) in (a * b).terms:
            assert (len(I), len(J)) == (3, 2)


    def test_array_of_scalars_scales_point_by_point(self):
        """An array of per-point scalars times an element, from either side,
        is an element whose coefficients are scaled point by point (numpy
        defers to __rmul__), as each scalar on its own scales them."""
        rng = np.random.default_rng(4)
        a = random_element(rng, 2, 1, 1)
        s = np.array([0.5, -2.0, 3.0])
        for got in (s * a, a * s):
            assert isinstance(got, BigradedElement) and set(got.terms) == set(a.terms)
            for k, c in a.terms.items():
                assert [complex(v) for v in got.terms[k]] == [complex(x) * c for x in s]


class TestBerezin:
    def test_top_multivector(self):
        assert berezin(elem(2, [((), (0, 1), 1.0)])) == {(): 1.0}

    def test_low_degree_is_zero(self):
        assert berezin(elem(2, [((), (0,), 1.0)])) == {}

    def test_odd_permutation_sign(self):
        # omega (x) (e2 ^ e1) -> -omega
        out = berezin(elem(2, [((0,), (1, 0), 1.0)]))
        assert out == {(0,): -1.0}

    def test_below_top_fiber_degree_always_zero(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for j in range(n):
                a = random_element(rng, n, 1, j)
                assert berezin(a) == {}


class TestPfaffian:
    def test_n2_hand_expansion(self):
        """Omega_biv = a e1^e2, so B(exp(-Omega)) = -a: the operational
        sign convention pinned by expanding by hand."""
        a = 2.5
        ent = [[{}, {(): a}], [{(): -a}, {}]]
        out = pfaffian(SkewMatrixValuedForm(2, 3, ent))
        assert out[()] == pytest.approx(-a)

    def test_n3_odd_rank_vanishes(self):
        ent = [[{} for _ in range(3)] for _ in range(3)]
        ent[0][1] = {(): 1.0}
        ent[1][0] = {(): -1.0}
        ent[1][2] = {(): 0.5}
        ent[2][1] = {(): -0.5}
        assert pfaffian(SkewMatrixValuedForm(3, 3, ent)) == {}

    def test_n4_block_diagonal(self):
        a, b = 2.0, 3.0
        ent = [[{} for _ in range(4)] for _ in range(4)]
        ent[0][1], ent[1][0] = {(): a}, {(): -a}
        ent[2][3], ent[3][2] = {(): b}, {(): -b}
        out = pfaffian(SkewMatrixValuedForm(4, 3, ent))
        assert out[()] == pytest.approx(a * b)

    def test_n4_vs_classical_pfaffian(self):
        """B(exp(-Omega)) equals the classical Pf(-M) for scalar skew M."""
        rng = np.random.default_rng(11)
        M = rng.standard_normal((4, 4))
        M = M - M.T
        ent = [[({(): M[i, j]} if i != j else {}) for j in range(4)] for i in range(4)]
        out = pfaffian(SkewMatrixValuedForm(4, 3, ent))[()]
        # classical Pf(A) for 4x4: a01 a23 - a02 a13 + a03 a12, at A = -M
        A = -M
        want = A[0, 1] * A[2, 3] - A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2]
        assert out == pytest.approx(want, rel=1e-12)

    def test_non_skew_rejected(self):
        ent = [[{}, {(): 1.0}], [{(): 1.0}, {}]]
        with pytest.raises(AlgebraError):
            pfaffian(SkewMatrixValuedForm(2, 3, ent))


class TestExpTruncated:
    def test_exp_zero(self):
        out = exp_truncated(BigradedElement.zero(2, 3))
        assert out.terms == {((), ()): 1.0 + 0.0j}

    def test_nilpotency_cuts_series(self):
        """a in A^{1,1} with n=2 on a 3-dim chart: a^3 = 0 exactly, so
        exp(a) = 1 + a + a^2/2."""
        rng = np.random.default_rng(1)
        a = random_element(rng, 2, 1, 1)
        a3 = a * a * a
        assert a3.max_abs() == 0.0
        want = BigradedElement.unit(2, 3) + a + 0.5 * (a * a)
        assert (exp_truncated(a) - want).max_abs() < 1e-14

    def test_degree_bound(self):
        """The (k+1)-th power beyond the degree bound is exactly zero."""
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            a = random_element(rng, n, 1, 1)
            k_bound = min(3, n)  # form degree caps at 3, fiber at n
            p = BigradedElement.unit(n, 3)
            for _ in range(k_bound + 1):
                p = p * a
            assert p.max_abs() == 0.0

    def test_scalar_part_factors(self):
        """exp(-(t^2/2) + nilpotent) = e^{-t^2/2} exp(nilpotent), against a
        20-term series oracle."""
        rng = np.random.default_rng(3)
        t = 1.3
        nl = random_element(rng, 2, 1, 1)
        om = random_element(rng, 2, 2, 2)
        theta = (0.5 * t * t) * BigradedElement.unit(2, 3) + (1j * t) * nl + om
        got = exp_truncated((-1.0) * theta)
        # series oracle: sum (-theta)^k / k!, 20 terms, no scalar split
        acc = BigradedElement.unit(2, 3)
        p = BigradedElement.unit(2, 3)
        fact = 1.0
        for k in range(1, 21):
            p = p * ((-1.0) * theta)
            fact *= k
            acc = acc + (1.0 / fact) * p
        assert (got - acc).max_abs() < 1e-12


class TestComponent:
    def test_projection(self):
        a = elem(2, [((), (0,), 1.0), ((0,), (0,), 2.0)])
        assert a.component(1, 1).terms == {((0,), (0,)): 2.0}
        assert a.component(2, 2).terms == {}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eq_3_2_closed_form(self, n):
        """The A^{n-1,n-1} component of exp(-(i t nabla_l + Omega)) equals
        (-i)^{n-1} sum_k (t nabla_l)^{n-1-2k} Omega^k / (k! (n-1-2k)!)."""
        rng = np.random.default_rng(10 + n)
        for _ in range(10):
            t = rng.uniform(0.1, 2.0)
            nl = random_element(rng, n, 1, 1)
            om = random_element(rng, n, 2, 2)
            brute = exp_truncated((-1.0) * ((1j * t) * nl + om)).component(n - 1, n - 1)
            closed = BigradedElement.zero(n, 3)
            for k in range(0, (n - 1) // 2 + 1):
                term = BigradedElement.unit(n, 3)
                for _ in range(n - 1 - 2 * k):
                    term = term * (t * nl)
                for _ in range(k):
                    term = term * om
                coeff = ((-1j) ** (n - 1)) / (
                    math.factorial(k) * math.factorial(n - 1 - 2 * k)
                )
                closed = closed + coeff * term
            assert (brute - closed.component(n - 1, n - 1)).max_abs() < 1e-10
