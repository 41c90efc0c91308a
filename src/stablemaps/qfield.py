"""Exact arithmetic tower: rationals, dense polynomials in u, rational functions.

Every quantity this package computes lives in Q(u), the field of rational
functions over the rationals in a single variable u.  The variable is the
square of the weight variable q, so that only integral u-powers ever occur:
the class of the projective line is u + 1, the class of its automorphism
group is u**3 - u, and evaluating a class at a prime power counts points of
the variety over the finite field of that size.

Layers:

    Fraction  exact rationals (stdlib), at the interface only
    UPoly     dense polynomials in u over Q, stored as integer numerators over
              one positive common denominator in lowest terms
    RatFunc   reduced num/den pairs of UPoly with monic denominator

plus polynomial gcd, evaluation at rational points, the derivative in u, and
the falling-factorial binomial C(alpha, k) for a rational-function alpha.
Polynomial arithmetic runs on Python ints with one gcd per result, not one
Fraction per coefficient.  All values are immutable and all operations are
pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

_F0 = Fraction(0)


def _poly(numer: list, denom: int) -> "UPoly":
    """UPoly of numer / denom (denom > 0): trailing zeros trimmed, reduced."""
    while numer and not numer[-1]:
        numer.pop()
    if not numer:
        return P_ZERO
    if denom != 1:
        g = math.gcd(denom, *numer)
        if g != 1:
            denom //= g
            numer = [c // g for c in numer]
    return UPoly._make(tuple(numer), denom)


def _const(c) -> "UPoly":
    """The constant polynomial c, for an int or a Fraction c."""
    if not c:
        return P_ZERO
    if isinstance(c, int):
        return UPoly._make((int(c),), 1)
    return UPoly._make((c.numerator,), c.denominator)


class UPoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    The value is ``sum(numer[i] * u**i) / denom``: ``numer`` is a tuple of
    ints with a nonzero last entry (empty for zero) and ``denom`` a positive
    int coprime to the gcd of ``numer``.  That form is unique, so equality and
    hashing are structural.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, coeffs=()):
        fs = [Fraction(c) for c in coeffs]
        while fs and not fs[-1]:
            fs.pop()
        # the lcm of reduced denominators is coprime to the content already
        d = math.lcm(*(f.denominator for f in fs))
        self.numer = tuple(f.numerator * (d // f.denominator) for f in fs)
        self.denom = d

    @classmethod
    def _make(cls, numer: tuple, denom: int) -> "UPoly":
        # numer, denom must already be in the canonical form of the class doc
        p = object.__new__(cls)
        p.numer = numer
        p.denom = denom
        return p

    @classmethod
    def from_numer(cls, numer: list, denom: int) -> "UPoly":
        """sum(numer[i] * u**i) / denom for an int list numer and an int
        denom > 0, put in the canonical form (numer may be consumed)."""
        return _poly(numer, denom)

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "UPoly":
        c = _const(Fraction(coeff))
        if not c:
            return P_ZERO
        return cls._make((0,) * degree + c.numer, c.denom)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first."""
        d = self.denom
        return tuple(Fraction(c, d) for c in self.numer)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.numer) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numer

    @property
    def lead(self) -> Fraction:
        if not self.numer:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.numer[-1], self.denom)

    def __bool__(self):
        return bool(self.numer)

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.numer == other.numer and self.denom == other.denom
        if isinstance(other, (int, Fraction)):
            return self == _const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.numer, self.denom))

    def __repr__(self):
        return f"UPoly({self})"

    def __str__(self):
        return format_poly(self.coeffs, "u")

    def __neg__(self):
        return UPoly._make(tuple(-c for c in self.numer), self.denom)

    def __add__(self, other):
        if not isinstance(other, UPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _const(other)
        a, b = self.numer, other.numer
        if not b:
            return self
        if not a:
            return other
        da, db = self.denom, other.denom
        if da == db:
            d = da
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            d = da * ma
            a = [c * ma for c in a]
            b = [c * mb for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _const(other)
        if not isinstance(other, UPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        a, b = self.numer, other.numer
        if not a or not b:
            return P_ZERO
        d = self.denom * other.denom
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            a0 = a[0]
            out = [a0 * c for c in b]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
        if d == 1:
            return UPoly._make(tuple(out), 1)
        return _poly(out, d)

    __rmul__ = __mul__

    def scale(self, c) -> "UPoly":
        c = Fraction(c)
        return _poly([x * c.numerator for x in self.numer], self.denom * c.denominator)

    def __divmod__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        b = other.numer
        if not b:
            raise ZeroDivisionError("division by zero")
        a = self.numer
        db = len(b) - 1
        if len(a) <= db:
            return P_ZERO, self
        if not db:
            return self.scale(Fraction(other.denom, b[0])), P_ZERO
        # s * a = quot * b + rem with b = other * other.denom
        quot, rem, s = _pseudo_divmod(a, b)
        d = self.denom * s
        return _poly([x * other.denom for x in quot], d), _poly(rem, d)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "UPoly":
        a = self.numer
        if not a or a[-1] == self.denom:
            return self
        return _monic(list(a))

    def eval(self, s) -> Fraction:
        """Exact value at a rational point (Horner)."""
        if not self.numer:
            return _F0
        s = Fraction(s)
        n, m = s.numerator, s.denominator
        # homogeneous Horner: sum c_i n**i m**(deg - i), over m**deg
        acc, mpow = 0, 1
        for c in reversed(self.numer):
            acc = acc * n + c * mpow
            mpow *= m
        return Fraction(acc, self.denom * (mpow // m))

    def derivative(self) -> "UPoly":
        """The formal derivative d/du."""
        return _poly([i * c for i, c in enumerate(self.numer)][1:], self.denom)

    def adams(self, k: int) -> "UPoly":
        """The Adams operation psi_k: the substitution u -> u**k."""
        a = self.numer
        if k == 1 or len(a) <= 1:
            return self
        out = [0] * (k * (len(a) - 1) + 1)
        out[::k] = a
        return UPoly._make(tuple(out), self.denom)

    def q_coeffs(self) -> tuple:
        """Coefficient tuple in the weight variable q (each u-degree doubled)."""
        return self.adams(2).coeffs

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "UPoly":
        return cls(data)


P_ZERO = UPoly()
P_ONE = UPoly((1,))
U = UPoly((0, 1))
# Class of the projective line and of its automorphism group: the two
# constants the whole theory is built from.
LINE_CLASS = UPoly((1, 1))            # u + 1
MOEBIUS_CLASS = UPoly((0, -1, 0, 1))  # u**3 - u


def _monic(a: list) -> UPoly:
    """The monic polynomial a / a[-1] for an integer list a, last entry nonzero."""
    lc = a[-1]
    if lc < 0:
        a = [-x for x in a]
        lc = -lc
    return _poly(a, lc)


def _pseudo_divmod(a, b):
    """Integer pseudo-division of a by b, integer sequences with b[-1] != 0
    and len(a) >= len(b) > 1.

    Returns (quot, rem, s) with s * a == quot * b + rem, s > 0 and rem of
    length len(b) - 1, not trimmed.  The scale s grows, by |lead| / gcd, only
    when the lead of b does not divide the top remaining term.
    """
    db = len(b) - 1
    lb = b[-1]
    rem = list(a)
    quot = [0] * (len(a) - db)
    s = 1
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        if c % lb:
            t = abs(lb) // math.gcd(lb, c)
            rem = [x * t for x in rem]
            quot = [x * t for x in quot]
            s *= t
            c *= t
        q = c // lb
        k = i - db
        quot[k] = q
        rem[k:i + 1] = [x - q * y for x, y in zip(rem[k:i + 1], b)]
    del rem[db:]
    return quot, rem, s


def upoly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd, by Euclid over Z on primitive parts.

    Each step takes the integer pseudo-remainder and divides out its content,
    so the sequence runs on ints with no rational arithmetic and coefficients
    stay small; the monic normalization of the last nonzero remainder makes
    the result canonical.
    """
    x, y = a.numer, b.numer
    if not x or not y:
        if not x and not y:
            raise ZeroDivisionError("gcd(0, 0) is undefined")
        return (a or b).monic()
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        r = _pseudo_divmod(x, y)[1]
        while r and not r[-1]:
            r.pop()
        if not r:
            return _monic(list(y))
        g = math.gcd(*r)
        x, y = y, [c // g for c in r]
    return P_ONE


def div_exact(a: UPoly, b: UPoly) -> UPoly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError(f"inexact polynomial division: ({a}) / ({b})")
    return q


def _as_poly(x) -> UPoly:
    if isinstance(x, UPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return _const(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def _monic_den(num: UPoly, den: UPoly):
    """num / den with both divided by the leading coefficient of den."""
    lc, dd = den.numer[-1], den.denom
    if lc == dd:
        return num, den
    return num.scale(Fraction(dd, lc)), den.monic()


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
        self.num, self.den = _monic_den(num, den)

    @classmethod
    def _reduced(cls, num: UPoly, den: UPoly) -> "RatFunc":
        # num, den already coprime; only normalize
        if num.is_zero:
            return RF_ZERO
        f = object.__new__(cls)
        f.num, f.den = _monic_den(num, den)
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
            return RatFunc._reduced(_as_poly(x), P_ONE)
        return None

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        num, den = self.num, self.den
        return hash((num.numer, num.denom, den.numer, den.denom))

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
        # gcd(num, den) divides g = gcd(da, db); coprime denominators give g = 1
        g = upoly_gcd(da, db)
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
    cs = list(p.numer) + [0] * (dim + 1 - len(p.numer))
    return cs == cs[::-1]
