"""Exact arithmetic tower: rationals, dense polynomials in u, rational functions.

Every quantity this package computes lives in Q(u), the field of rational
functions over the rationals in a single variable u.  The variable is the
square of the weight variable q, so that only integral u-powers ever occur:
the class of the projective line is u + 1, the class of its automorphism
group is u**3 - u, and evaluating a class at a prime power counts points of
the variety over the finite field of that size.

Layers:

    Fraction  exact rationals (stdlib)
    UPoly     dense polynomials in u over Fraction, trailing zeros trimmed
    RatFunc   reduced num/den pairs of UPoly with monic denominator

plus polynomial gcd, evaluation at rational points, Taylor expansion around
u = 1, and the falling-factorial binomial C(alpha, k) for a rational-function
alpha.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_F0 = Fraction(0)
_F1 = Fraction(1)


class UPoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, coeffs: tuple) -> "UPoly":
        # coeffs must already be Fractions with a nonzero last entry (or empty)
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "UPoly":
        c = Fraction(coeff)
        if not c:
            return P_ZERO
        return cls._make((_F0,) * degree + (c,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UPoly({self})"

    def __str__(self):
        return format_poly(self.coeffs, "u")

    def __neg__(self):
        return UPoly._make(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly((other,))
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:
            out.pop()
        return UPoly._make(tuple(out))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly((other,))
        if not isinstance(other, UPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return P_ZERO
        out = [_F0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return UPoly._make(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c) -> "UPoly":
        c = Fraction(c)
        if not c:
            return P_ZERO
        return UPoly._make(tuple(a * c for a in self.coeffs))

    def __divmod__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = _F1 / other.lead
        quot = [_F0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                q = c * inv_lead
                quot[i - db] = q
                for j, bj in enumerate(other.coeffs):
                    rem[i - db + j] -= q * bj
        while rem and not rem[-1]:
            rem.pop()
        while quot and not quot[-1]:
            quot.pop()
        return UPoly._make(tuple(quot)), UPoly._make(tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        if self.lead == 1:
            return self
        return self.scale(_F1 / self.lead)

    def eval(self, s) -> Fraction:
        """Exact value at a rational point (Horner)."""
        s = Fraction(s)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def taylor_shift_one(self) -> "UPoly":
        """Coefficients of p(1 + e) as a polynomial in e."""
        n = len(self.coeffs)
        out = [_F0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                for j in range(i + 1):
                    out[j] += c * math.comb(i, j)
        while out and not out[-1]:
            out.pop()
        return UPoly._make(tuple(out))

    def adams(self, k: int) -> "UPoly":
        """The Adams operation psi_k: the substitution u -> u**k."""
        if k == 1 or len(self.coeffs) <= 1:
            return self
        out = [_F0] * (k * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[k * i] = c
        return UPoly._make(tuple(out))

    def q_coeffs(self) -> tuple:
        """Coefficient tuple in the weight variable q (each u-degree doubled)."""
        return self.adams(2).coeffs

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "UPoly":
        return cls(Fraction(s) for s in data)


P_ZERO = UPoly()
P_ONE = UPoly((1,))
U = UPoly((0, 1))
# Class of the projective line and of its automorphism group: the two
# constants the whole theory is built from.
LINE_CLASS = UPoly((1, 1))            # u + 1
MOEBIUS_CLASS = UPoly((0, -1, 0, 1))  # u**3 - u


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm.

    Degrees in this package stay small, so plain Euclid over Q is fine; the
    monic normalization makes the result canonical.
    """
    if a.is_zero and b.is_zero:
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def div_exact(a: UPoly, b: UPoly) -> UPoly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError(f"inexact polynomial division: ({a}) / ({b})")
    return q


def _as_poly(x) -> UPoly:
    if isinstance(x, UPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return UPoly((x,))
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


class RatFunc:
    """Reduced fraction of two UPoly: gcd(num, den) = 1 and den monic.

    The canonical form makes equality and hashing structural.  Zero is 0/1.
    Construction reduces; the arithmetic below keeps operands reduced with
    cross-cancellation so the expensive gcds always see one small operand.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("division by zero")
        if num.is_zero:
            self.num = P_ZERO
            self.den = P_ONE
            return
        if den.degree > 0:
            g = upoly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lc = den.lead
        if lc != 1:
            inv = _F1 / lc
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num: UPoly, den: UPoly) -> "RatFunc":
        # num, den already coprime; only normalize
        if num.is_zero:
            return RF_ZERO
        lc = den.lead
        if lc != 1:
            inv = _F1 / lc
            num = num.scale(inv)
            den = den.scale(inv)
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == P_ONE

    def as_upoly(self) -> UPoly:
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def __bool__(self):
        return not self.num.is_zero

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, UPoly)):
            return RatFunc(x)
        return None

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        da, db = self.den, other.den
        if da == P_ONE and db == P_ONE:
            return RatFunc._reduced(self.num + other.num, P_ONE)
        if da == db:
            num = self.num + other.num
            if num.is_zero:
                return RF_ZERO
            g = upoly_gcd(num, da)
            if g.degree > 0:
                return RatFunc._reduced(num // g, da // g)
            return RatFunc._reduced(num, da)
        g = upoly_gcd(da, db)
        if g.degree == 0:
            num = self.num * db + other.num * da
            if num.is_zero:
                return RF_ZERO
            return RatFunc._reduced(num, da * db)
        da_red = da // g
        db_red = db // g
        num = self.num * db_red + other.num * da_red
        if num.is_zero:
            return RF_ZERO
        den = da_red * db
        g2 = upoly_gcd(num, g)
        if g2.degree > 0:
            num = num // g2
            den = den // g2
        return RatFunc._reduced(num, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if db.degree > 0:
            g = upoly_gcd(na, db)
            if g.degree > 0:
                na = na // g
                db = db // g
        if da.degree > 0:
            g = upoly_gcd(nb, da)
            if g.degree > 0:
                nb = nb // g
                da = da // g
        return RatFunc._reduced(na * nb, da * db)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("division by zero")
        return RatFunc._reduced(self.den, self.num)

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = RF_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def adams(self, k: int) -> "RatFunc":
        """psi_k: u -> u**k.  A substitution keeps num and den coprime (apply
        it to a Bezout identity) and the denominator monic."""
        return RatFunc._reduced(self.num.adams(k), self.den.adams(k))

    def eval_at(self, s) -> Fraction:
        """Exact value at a rational point; raises at a pole."""
        s = Fraction(s)
        d = self.den.eval(s)
        if not d:
            raise ZeroDivisionError("pole")
        return self.num.eval(s) / d

    def expand_at_one(self, order: int) -> list:
        """Taylor coefficients c_0..c_order at u = 1.

        Returns [c_0, ..., c_order] with
        f = sum c_j (u-1)**j + O((u-1)**(order+1)).  Since the fraction is
        kept reduced, a vanishing shifted denominator constant means a
        genuine pole.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        num_e = self.num.taylor_shift_one().coeffs
        den_e = self.den.taylor_shift_one().coeffs
        if not den_e or not den_e[0]:
            raise ZeroDivisionError("pole at unity")
        inv0 = _F1 / den_e[0]
        out = []
        for j in range(order + 1):
            s = num_e[j] if j < len(num_e) else _F0
            for i in range(1, min(j, len(den_e) - 1) + 1):
                s -= den_e[i] * out[j - i]
            out.append(s * inv0)
        return out

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "RatFunc":
        return cls(UPoly.from_json(data["num"]), UPoly.from_json(data["den"]))


RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)
RF_U = RatFunc(U)


def binom_falling(alpha, k: int) -> RatFunc:
    """Falling-factorial binomial C(alpha, k) = alpha(alpha-1)...(alpha-k+1)/k!.

    The exponent alpha may be any rational function; C(alpha, 0) = 1.  For a
    polynomial alpha the product times k! is again a polynomial, and for an
    integer alpha >= k it reproduces the ordinary binomial coefficient.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a = RatFunc._coerce(alpha)
    if a is None:
        raise TypeError(f"bad binomial argument {alpha!r}")
    return _binom_falling(a, k)


@lru_cache(maxsize=None)
def _binom_falling(alpha: RatFunc, k: int) -> RatFunc:
    if k == 0:
        return RF_ONE
    return _binom_falling(alpha, k - 1) * (alpha - (k - 1)) * Fraction(1, k)


def _moebius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def necklace(k: int) -> UPoly:
    """M_k = (1/k) sum_{d | k} mu(k/d) u**d, the class of the closed points
    of exact degree k on the affine line: the exponent of (1 + p_k) in the
    plethystic count of configurations of unordered points."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [_F0] * (k + 1)
    for d in range(1, k + 1):
        if k % d == 0:
            out[d] = Fraction(_moebius(k // d), k)
    return UPoly(out)


def format_poly(coeffs, var: str) -> str:
    """Human-readable polynomial, highest degree first."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            x = var if i == 1 else f"{var}^{i}"
            body = x if mag == 1 else f"{mag}*{x}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def is_palindromic(p: UPoly, dim: int) -> bool:
    """Whether u**dim * p(1/u) == p(u), the duality symmetry of a
    dimension-dim smooth proper class."""
    if p.is_zero:
        return True
    if dim < p.degree:
        return False
    cs = list(p.coeffs) + [_F0] * (dim + 1 - len(p.coeffs))
    return cs == cs[::-1]
