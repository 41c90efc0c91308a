import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablemaps.qfield import (LINE_CLASS, MOEBIUS_CLASS, P_ONE, P_ZERO, RF_ONE,
                               RF_ZERO, RatFunc, U, UPoly, binom_falling,
                               div_exact, is_palindromic, necklace, upoly_gcd)


def poly(*coeffs):
    return UPoly(coeffs)


def rand_poly(rng, maxdeg=4, allow_zero=True):
    deg = rng.randint(0, maxdeg)
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
    p = UPoly(cs)
    if not allow_zero and p.is_zero:
        return rand_poly(rng, maxdeg, allow_zero=False)
    return p


def rand_ratfunc(rng):
    return RatFunc(rand_poly(rng), rand_poly(rng, allow_zero=False))


class TestUPoly:
    def test_trimming_and_degree(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly().degree == -1
        assert poly(0).is_zero

    def test_mul(self):
        assert poly(1, 1) * U == poly(0, 1, 1)  # (u+1)*u = u^2+u

    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_poly(rng)
            b = rand_poly(rng, allow_zero=False)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree or r.is_zero

    def test_eval(self):
        assert MOEBIUS_CLASS.eval(4) == 60  # order of the Moebius group over F_4
        assert LINE_CLASS.eval(1) == 2

    def test_derivative(self):
        # d/du (u^3 - u) = 3u^2 - 1; constants differentiate to zero
        assert MOEBIUS_CLASS.derivative() == poly(-1, 0, 3)
        assert poly(Fraction(1, 2), Fraction(2, 3)).derivative() == poly(Fraction(2, 3))
        assert poly(5).derivative() == P_ZERO == P_ZERO.derivative()

    def test_q_coeffs(self):
        assert poly(1, 5, 1).q_coeffs() == (1, 0, 5, 0, 1)

    def test_json_roundtrip(self):
        p = poly(Fraction(1, 2), -3, 0, 7)
        assert UPoly.from_json(p.to_json()) == p


class TestGcd:
    def test_examples(self):
        assert upoly_gcd(poly(-1, 0, 1), poly(1, 1)) == poly(1, 1)
        assert upoly_gcd(MOEBIUS_CLASS, poly(0, -1, 1)) == poly(0, -1, 1).monic()
        assert upoly_gcd(poly(2, 1), poly(3, 1)) == P_ONE

    def test_both_zero(self):
        with pytest.raises(ZeroDivisionError):
            upoly_gcd(UPoly(), UPoly())

    def test_divides_both(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rand_poly(rng)
            b = rand_poly(rng, allow_zero=False)
            g = upoly_gcd(a, b)
            assert div_exact(b, g) * g == b
            if not a.is_zero:
                assert div_exact(a, g) * g == a
            # any common divisor divides g
            c = rand_poly(rng, maxdeg=2, allow_zero=False)
            g2 = upoly_gcd(a * c, b * c)
            assert (g2 % c.monic()).is_zero


class TestRatFunc:
    def test_constructor_normalizes(self):
        f = RatFunc(poly(0, 2, 2), poly(0, 2))  # (2u^2+2u)/(2u) = u+1
        assert f.num == poly(1, 1) and f.den == P_ONE
        g = RatFunc(poly(1), poly(2, 2))  # 1/(2u+2) -> (1/2)/(u+1)
        assert g.den == poly(1, 1)

    def test_zero_den_rejected(self):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            RatFunc(P_ONE, UPoly())

    def test_div_examples(self):
        pgl2 = RatFunc(MOEBIUS_CLASS)
        assert pgl2 / pgl2 == RatFunc(1)
        assert pgl2 / RatFunc(poly(1, 1)) == RatFunc(poly(0, -1, 1))  # u^2-u
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            pgl2 / RatFunc(0)

    def test_mul_then_div_roundtrip(self):
        rng = random.Random(13)
        for _ in range(150):
            a = rand_ratfunc(rng)
            b = rand_ratfunc(rng)
            if b.is_zero:
                continue
            assert (a * b) / b == a

    def test_add_sub_field_axioms(self):
        rng = random.Random(17)
        for _ in range(150):
            a, b, c = (rand_ratfunc(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert (a + b) * c == a * c + b * c
            assert a - a == RatFunc(0)

    def test_eval_at(self):
        assert RatFunc(MOEBIUS_CLASS).eval_at(4) == 60
        assert RatFunc(poly(1, 1)).eval_at(1) == 2
        with pytest.raises(ZeroDivisionError, match="pole"):
            RatFunc(P_ONE, poly(-1, 1)).eval_at(1)

    def test_json_roundtrip(self):
        f = RatFunc(poly(1, -2, 3), poly(0, 0, 5))
        assert RatFunc.from_json(f.to_json()) == f


class TestBinomFalling:
    def test_moebius_from_line(self):
        # C([P^1], 3) * 3! is the class of the Moebius group
        assert binom_falling(LINE_CLASS, 3) * 6 == RatFunc(MOEBIUS_CLASS)

    def test_k_zero(self):
        assert binom_falling(RatFunc(poly(1, 1)), 0) == RatFunc(1)

    def test_open_moduli_cell(self):
        # C(u-2, 2) * 2! = (u-2)(u-3), the open part of the five-point space
        got = binom_falling(RatFunc(poly(-2, 1)), 2) * 2
        assert got == RatFunc(poly(-2, 1)) * RatFunc(poly(-3, 1))

    def test_matches_integer_binomials(self):
        # falling factorial at a nonnegative integer reproduces comb (zero
        # included when n < k)
        for n in range(0, 9):
            for k in range(0, 9):
                assert binom_falling(n, k) == RatFunc(math.comb(n, k))

    def test_polynomial_exponent_gives_polynomial(self):
        rng = random.Random(29)
        for _ in range(20):
            a = rand_poly(rng, maxdeg=2, allow_zero=False)
            k = rng.randint(0, 4)
            f = binom_falling(RatFunc(a), k) * math.factorial(k)
            assert f.is_polynomial
            assert f.num.degree == k * a.degree or f.num.is_zero

    def test_rational_exponent(self):
        inv_u = RatFunc(P_ONE, U)
        got = binom_falling(inv_u, 2)  # (1/u)(1/u - 1)/2
        assert got == inv_u * (inv_u - 1) * Fraction(1, 2)


class TestAdams:
    def test_substitution(self):
        assert poly(1, 2, 3).adams(2) == poly(1, 0, 2, 0, 3)
        assert poly(1, 2, 3).adams(1) == poly(1, 2, 3)
        assert RatFunc(P_ONE, LINE_CLASS).adams(3) == RatFunc(P_ONE, poly(1, 0, 0, 1))

    def test_ring_homomorphism(self):
        rng = random.Random(41)
        for _ in range(15):
            a, b = rand_ratfunc(rng), rand_ratfunc(rng)
            for k in (2, 3):
                assert (a * b).adams(k) == a.adams(k) * b.adams(k)
                assert (a + b).adams(k) == a.adams(k) + b.adams(k)
            assert a.adams(2).adams(3) == a.adams(6)

    def test_necklace_polynomials(self):
        assert necklace(1) == U
        assert necklace(2) == poly(0, Fraction(-1, 2), Fraction(1, 2))
        # u**n = sum_{d | n} d M_d: every point of the line over F_{u**n}
        # has exactly one degree d dividing n
        for n in range(1, 13):
            total = sum((necklace(d).scale(d) for d in range(1, n + 1) if n % d == 0),
                        UPoly())
            assert total == UPoly.monomial(n)
        # the number of monic irreducible polynomials of degree 6 over F_2
        assert necklace(6).eval(2) == 9


class TestPalindromic:
    def test_examples(self):
        assert is_palindromic(poly(1, 5, 1), 2)
        assert is_palindromic(poly(1, 0, 1), 2)
        assert is_palindromic(poly(1, 1), 3) is False
        assert is_palindromic(poly(0, 1), 2)  # u with dim 2: (0,1,0) symmetric
        assert is_palindromic(UPoly(), 5)


# --- Fraction-per-coefficient reference ------------------------------------
#
# The dense Fraction arithmetic UPoly used before it stored integer numerators
# over one denominator.  The integer form must agree with it exactly.

def ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ref_trim(out)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return ref_trim(out)


def ref_divmod(a, b):
    rem = list(a)
    db = len(b) - 1
    inv_lead = 1 / b[-1]
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            q = c * inv_lead
            quot[i - db] = q
            for j, bj in enumerate(b):
                rem[i - db + j] -= q * bj
    return ref_trim(quot), ref_trim(rem)


def ref_eval(a, s):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * s + c
    return acc


# Coefficients: small integers (zeros and negative leads included), small
# fractions, and fractions with denominators above 2**40.
small_fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
big_fracs = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                      st.integers(2 ** 40, 2 ** 48))
coeffs = st.one_of(st.integers(-3, 3), small_fracs, big_fracs)
polys = st.lists(coeffs, max_size=6).map(UPoly)
nonzero_polys = st.builds(lambda cs, lead: UPoly(cs + [lead]),
                          st.lists(coeffs, max_size=4), coeffs.filter(bool))
ratfuncs = st.builds(RatFunc, st.lists(coeffs, max_size=4).map(UPoly), nonzero_polys)
nonzero_ratfuncs = st.builds(RatFunc, nonzero_polys, nonzero_polys)


def assert_canonical(p):
    assert p.denom > 0
    assert math.gcd(p.denom, *p.numer) == 1
    assert not p.numer or p.numer[-1]
    assert all(type(c) is int for c in p.numer)


class TestUPolyProperties:
    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + P_ZERO == a and a * P_ONE == a and a * P_ZERO == P_ZERO
        assert a - a == P_ZERO
        assert a - b == a + (-b)
        for p in (a + b, a - b, a * b, -a):
            assert_canonical(p)

    @given(polys, polys)
    def test_matches_fraction_reference(self, a, b):
        assert (a + b).coeffs == ref_add(a.coeffs, b.coeffs)
        assert (a - b).coeffs == ref_add(a.coeffs, tuple(-c for c in b.coeffs))
        assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs)

    @given(polys, nonzero_polys)
    def test_division_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert (q.coeffs, r.coeffs) == ref_divmod(a.coeffs, b.coeffs)
        assert_canonical(q)
        assert_canonical(r)

    @given(polys, nonzero_polys)
    def test_exact_division(self, a, b):
        assert div_exact(a * b, b) == a

    @given(st.lists(coeffs, max_size=6))
    def test_canonical_form(self, cs):
        a = UPoly(cs)
        assert_canonical(a)
        assert a.coeffs == ref_trim(Fraction(c) for c in cs)
        # the same value by another route: a sum of monomials
        b = sum((UPoly.monomial(i, c) for i, c in enumerate(cs)), P_ZERO)
        assert b == a and hash(b) == hash(a) and str(b) == str(a)
        assert UPoly.from_json(a.to_json()) == a

    @given(polys, coeffs)
    def test_scale(self, a, c):
        got = a.scale(c)
        assert got.coeffs == ref_trim(x * Fraction(c) for x in a.coeffs)
        assert got == a * UPoly((c,))
        assert_canonical(got)

    @given(polys, small_fracs)
    def test_eval_shift_adams(self, a, s):
        assert a.eval(s) == ref_eval(a.coeffs, s)
        # the divided difference (a - a(s)) / (u - s) is exact and equals a'(s) at s
        quot = div_exact(a - a.eval(s), UPoly((-s, 1)))
        assert quot.eval(s) == a.derivative().eval(s)
        for k in (2, 3):
            assert a.adams(k).eval(s) == a.eval(s ** k)
        assert a.monic().is_zero or a.monic().lead == 1

    @given(polys, polys, nonzero_polys)
    def test_gcd(self, a, b, c):
        if a.is_zero and b.is_zero:
            return
        g = upoly_gcd(a, b)
        assert g.lead == 1
        assert (a % g).is_zero and (b % g).is_zero
        assert_canonical(g)
        # every common divisor divides g: gcd(ac, bc) = gcd(a, b) c, monic
        assert upoly_gcd(a * c, b * c) == (g * c).monic()


class TestRatFuncProperties:
    @given(ratfuncs, ratfuncs, ratfuncs)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + RF_ZERO == a and a * RF_ONE == a
        assert a - a == RF_ZERO
        if a:
            assert a * a.inverse() == RF_ONE
            assert (b * a) / a == b

    @given(ratfuncs)
    def test_reduced(self, f):
        assert f.den.lead == 1
        assert upoly_gcd(f.num, f.den) == P_ONE

    @given(polys, nonzero_polys, nonzero_polys, coeffs.filter(bool))
    def test_canonical_form(self, a, b, g, c):
        f = RatFunc(a, b)
        for other in (RatFunc(a * g, b * g), RatFunc(a.scale(c), b.scale(c))):
            assert other == f
            assert hash(other) == hash(f)
            assert str(other) == str(f)


class TestIntegerForm:
    def test_constants_stay_integral(self):
        p = UPoly((Fraction(1, 3),)) * UPoly((3,))
        assert p == P_ONE
        assert p.denom == 1 and p.numer == (1,)

    def test_common_denominator(self):
        p = poly(Fraction(1, 2), Fraction(-2, 3), 4)  # (3 - 4u + 24u^2) / 6
        assert (p.numer, p.denom) == ((3, -4, 24), 6)
        assert p.coeffs == (Fraction(1, 2), Fraction(-2, 3), 4)
        assert p.lead == 4

    def test_negative_lead_divisor(self):
        # dividing by -2u + 3 scales the remainder sequence by the lead;
        # the denominators stay positive
        q, r = divmod(poly(1, 0, 1), poly(3, -2))
        assert q == poly(Fraction(-3, 4), Fraction(-1, 2))
        assert r == poly(Fraction(13, 4))
        assert q.denom > 0 and r.denom > 0
