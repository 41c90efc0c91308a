"""Truncated formal power series in t and a graded tuple of z-variables.

A MultiSeries holds the coefficients of a formal series

    sum_{k, d}  c_{k,d} * t**k * z1**d1 * ... * zr**dr

with c_{k,d} in Q(u), on the rectangular truncation box k <= kmax,
d <= dmax componentwise.  The z-exponents live in the free semigroup
Z+**r; a rank of 0 is allowed and means there are no z-variables at all
(series in t only).  Multiplication is full convolution into the box, so
every box cell of a product is exact; the box is closed downward, which is
what makes box truncation a quotient ring.  One packed core,
sum_of_products, sums (sum of a left group) times (sum of a right group)
over its terms; a product of two series is its one-term case and shares
its pair loop and its unpacking.  Unless a factor has at most one cell, a
product runs on ints by Kronecker substitution: each side is put over one
denominator L * D (an int L and a monic polynomial D), each cell's int
numerator is packed as its value at u = 2**bits, with bits a whole number
of 32-bit words wide enough for a bound on every accumulated coefficient,
a group is summed as packed ints, each in-box pair costs one int multiply,
and each output cell is unpacked once.

That scaled form, int rows over one L * D, is the value of every series
that a product, sum_of_products, +, -, scale, series_adams or
MultiSeries.exponential returns: + and - put both sides over their common
L * D and add rows, scale cancels gcd(D, the scalar's numerator) and
multiplies the rows by what is left of the numerator and L * D by the
scalar's denominator, series_adams spreads the rows (u -> u**k)
over L * D(u**k), and each result is reduced once as a whole, dividing
out gcd(D, every row) and then the int content gcd(L, every entry).  The
reduced RatFunc cells are built only when they are read
(MultiSeries.coeffs), for output, coeff, ==, truncate, series_dt or a
one-cell operand.  A series is never changed
once built, so one built from cells scales its numerators to ints at most
once, on its first operation, and every series packs its rows once per
slot width and box, keeping the packed image for its next partner; the
in-box pairs of each box are planned once per process.

Besides ring operations the module provides the two compositions the
moduli computation needs, both finite inside a box because their argument
has no constant term:

    series_pow_binomial(g, alpha)  --  (1+g)**alpha = sum_k C(alpha,k) g**k
                                       with a rational-function exponent
    series_log1p(g)                --  log(1+g) = sum_k (-1)**(k+1) g**k / k

the formal t-derivative, and the Adams operations series_adams(g, k), the
lambda-ring endomorphisms u -> u**k, z**b -> z**(k b), t -> 0 (t tracks
labelled marked points, which no nontrivial symmetry can move).
slice_cells(dmax) is the cell order, with the splits of each cell, in
which both routes solve their t = 0 slice, and t_layer_sums writes a
series whose t-layers are sums of z-only series with weights in Z[u], as
one packed sum of products over one denominator.
Coefficients are stored sparsely; an absent key is a zero coefficient.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .qfield import (P_ONE, RF_ONE, RF_ZERO, RatFunc, UPoly, binom_falling, int_poly_adams,
                     int_poly_add, int_poly_mul, upoly_gcd)


class Grading:
    """Rank and display names of the z-variables; rank 0 means none."""

    __slots__ = ("rank", "names")

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        self.rank = rank
        self.names = tuple(f"z{i + 1}" for i in range(rank))

    @property
    def zero(self) -> tuple:
        return (0,) * self.rank

    def __eq__(self, other):
        return isinstance(other, Grading) and self.rank == other.rank

    def __hash__(self):
        return hash(("Grading", self.rank))

    def __repr__(self):
        return f"Grading(rank={self.rank})"


def box_vectors(bound):
    """All integer vectors 0 <= v <= bound componentwise (one empty vector
    when bound itself is empty)."""
    return itertools.product(*(range(b + 1) for b in bound))


def _coerce_coeff(c) -> RatFunc:
    if isinstance(c, RatFunc):
        return c
    if isinstance(c, (int, Fraction, UPoly)):
        return RatFunc(c)
    raise TypeError(f"bad series coefficient {c!r}")


def _scaled_numerators(cells: dict):
    """The coefficients over one denominator L * D: an int L and the monic
    lcm D of their denominators.  Returns (L, D, rows, top, length), where
    rows maps each cell to the numerator of L * D * c as an int list, top
    is the largest |entry| and length the largest length among the rows."""
    den = P_ONE
    for c in cells.values():
        if c.den != P_ONE:
            den = den * (c.den // upoly_gcd(den, c.den))
    nums = {key: c.num if c.den == den else c.num * (den // c.den)
            for key, c in cells.items()}
    lcm = math.lcm(*(p.denom for p in nums.values()))
    rows, top, length = {}, 0, 0
    for key, p in nums.items():
        m = lcm // p.denom
        row = p.numer if m == 1 else [x * m for x in p.numer]
        rows[key] = row
        top = max(top, max(map(abs, row)))
        length = max(length, len(row))
    return lcm, den, rows, top, length


def _reduce(lcm: int, den, rows: dict) -> tuple:
    """(L, D, rows, top, length) for the cells rows / (lcm * den), with the
    int rows trimmed, in the form _scaled_numerators gives their reduced
    cells: the rows and den divided by g = gcd(den, every row), so that
    den / g is the lcm of the reduced cells' denominators, and then the
    rows and lcm by the int content gcd(lcm, every entry).  top is the
    largest |entry| and length the largest length among the rows."""
    if not rows:
        return 1, P_ONE, {}, 0, 0
    if den != P_ONE:
        g = den
        for row in rows.values():
            g = upoly_gcd(g, UPoly.from_numer(row, 1))
            if g == P_ONE:
                break
        if g != P_ONE:
            den = den // g
            quotients = {key: UPoly.from_numer(row, 1) // g for key, row in rows.items()}
            m = math.lcm(*(p.denom for p in quotients.values()))
            lcm *= m
            rows = {key: [x * (m // p.denom) for x in p.numer] for key, p in quotients.items()}
    g = math.gcd(lcm, *itertools.chain.from_iterable(rows.values()))
    if g != 1:
        lcm //= g
        rows = {key: [x // g for x in row] for key, row in rows.items()}
    vals = rows.values()
    return lcm, den, rows, max(map(abs, itertools.chain.from_iterable(vals))), max(map(len, vals))


@lru_cache(maxsize=None)
def _pair_plan(kmax: int, dmax: tuple) -> dict:
    """{cell: {partner: cell of their product}} over the cells (k, d) of the
    box, listing only the partners whose product stays in the box.  Every
    entry refers to the one key tuple of its cell."""
    cells = {(k, d): (k, d) for k in range(kmax + 1) for d in box_vectors(dmax)}
    plan = {}
    for cell in cells:
        k1, d1 = cell
        room = tuple(map(sub, dmax, d1))
        plan[cell] = {cells[(k2, d2)]: cells[(k1 + k2, tuple(map(add, d1, d2)))]
                      for k2 in range(kmax - k1 + 1) for d2 in box_vectors(room)}
    return plan


def _pack(row, bits: int) -> int:
    """sum(row[i] * 2**(bits*i)) by signed Horner: the Kronecker image of a
    polynomial at u = 2**bits."""
    acc = 0
    for c in reversed(row):
        acc = (acc << bits) + c
    return acc


def _unpack(acc: int, bits: int) -> list:
    """The int list row with _pack(row, bits) == acc and every entry in
    [-2**(bits-1), 2**(bits-1)), read slot by slot with a signed borrow."""
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    row = []
    while acc:
        c = acc & mask
        acc >>= bits
        if c >= half:
            c -= mask + 1
            acc += 1
        row.append(c)
    return row


class MultiSeries:
    """Box-truncated series with RatFunc coefficients.

    A series built from coefficients holds them as cells.  One that comes
    out of a product, sum_of_products, +, -, scale, series_adams or
    exponential holds its scaled form instead, int rows over one
    denominator L * D (_reduce), and builds its
    reduced RatFunc cells only when they are read (coeffs).

    kmax may be -1 for the empty box that results from differentiating a
    series only known at t-order 0.
    """

    __slots__ = ("grading", "kmax", "dmax", "_cells", "_scaled", "_images")

    def __init__(self, grading: Grading, kmax: int, dmax, coeffs=None):
        dmax = tuple(int(x) for x in dmax)
        if len(dmax) != grading.rank:
            raise ValueError("dmax length must equal the grading rank")
        if any(x < 0 for x in dmax):
            raise ValueError("dmax components must be >= 0")
        if kmax < -1:
            raise ValueError("kmax must be >= -1")
        self.grading = grading
        self.kmax = kmax
        self.dmax = dmax
        clean = {}
        if coeffs:
            for (k, d), c in coeffs.items():
                d = tuple(d)
                if not self._in_box(k, d):
                    raise ValueError(f"coefficient key {(k, d)} outside the truncation box")
                c = _coerce_coeff(c)
                if not c.is_zero:
                    clean[(k, d)] = c
        self._cells = clean
        self._scaled = self._images = None

    @classmethod
    def _new(cls, grading, kmax, dmax, coeffs) -> "MultiSeries":
        # internal: coeffs already validated, nonzero RatFuncs only
        s = object.__new__(cls)
        s.grading = grading
        s.kmax = kmax
        s.dmax = dmax
        s._cells = coeffs
        s._scaled = s._images = None
        return s

    @classmethod
    def _from_rows(cls, grading, kmax, dmax, lcm: int, den, rows) -> "MultiSeries":
        # internal: the series whose cells are rows / (lcm * den), held in
        # that scaled form (reduced by _reduce) until its cells are read
        s = object.__new__(cls)
        s.grading = grading
        s.kmax = kmax
        s.dmax = dmax
        s._cells = s._images = None
        s._scaled = _reduce(lcm, den, rows)
        return s

    @classmethod
    def exponential(cls, grading, kmax, dmax, cells) -> "MultiSeries":
        """sum cells[(k, d)] t**k / k! z**d for RatFunc cells on the box
        (kmax, dmax), held as int rows: the nonzero cells over one
        denominator L * D (_scaled_numerators), the row of each t**k times
        kmax!/k!, over kmax! L * D, reduced once."""
        lcm, den, rows = _scaled_numerators({key: c for key, c in cells.items() if c})[:3]
        top = math.factorial(max(kmax, 0))
        weights = [top // math.factorial(k) for k in range(kmax + 1)]
        return cls._from_rows(grading, kmax, tuple(dmax), lcm * top, den,
                              {key: int_poly_mul(row, (weights[key[0]],))
                               for key, row in rows.items()})

    @classmethod
    def zero(cls, grading, kmax, dmax) -> "MultiSeries":
        return cls(grading, kmax, dmax)

    @classmethod
    def const(cls, grading, kmax, dmax, value) -> "MultiSeries":
        """The constant series value; on the empty box (kmax -1) zero."""
        if kmax < 0:
            return cls(grading, kmax, dmax)
        return cls(grading, kmax, dmax, {(0, grading.zero): value})

    @classmethod
    def monomial(cls, grading, kmax, dmax, k, d, value) -> "MultiSeries":
        """value * t**k z**d; the constructor refuses a (k, d) off the box."""
        return cls(grading, kmax, dmax, {(k, d): value})

    @classmethod
    def t_power(cls, grading, kmax, dmax, power) -> "MultiSeries":
        """t**power on the box; the zero series when power exceeds kmax."""
        if power > kmax:
            return cls.zero(grading, kmax, dmax)
        return cls.monomial(grading, kmax, dmax, power, grading.zero, RF_ONE)

    def _in_box(self, k, d) -> bool:
        return (0 <= k <= self.kmax and len(d) == len(self.dmax)
                and all(0 <= di <= mi for di, mi in zip(d, self.dmax)))

    @property
    def coeffs(self) -> dict:
        """{(k, d): RatFunc} over the nonzero cells.  A series held as int
        rows builds its reduced cells here, once, on the first read."""
        cells = self._cells
        if cells is None:
            lcm, den, rows = self._scaled[:3]
            cells = self._cells = {key: RatFunc(UPoly.from_numer(row, lcm), den)
                                   for key, row in rows.items()}
        return cells

    @property
    def _cell_count(self) -> int:
        """The number of nonzero cells, read without building any."""
        cells = self._cells
        return len(self._scaled[2] if cells is None else cells)

    def coeff(self, k: int, d=()) -> RatFunc:
        d = tuple(d)
        if not self._in_box(k, d):
            raise ValueError(f"beyond truncation: {(k, d)}")
        return self.coeffs.get((k, d), RF_ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._cell_count

    def _common_box(self, other) -> tuple:
        if self.grading != other.grading:
            raise ValueError("grading mismatch")
        kmax = min(self.kmax, other.kmax)
        dmax = tuple(min(a, b) for a, b in zip(self.dmax, other.dmax))
        return kmax, dmax

    def truncate(self, kmax=None, dmax=None) -> "MultiSeries":
        kmax = self.kmax if kmax is None else min(kmax, self.kmax)
        dmax = self.dmax if dmax is None else tuple(min(a, b) for a, b in zip(dmax, self.dmax))
        out = {key: c for key, c in self.coeffs.items()
               if key[0] <= kmax and all(x <= m for x, m in zip(key[1], dmax))}
        return MultiSeries._new(self.grading, kmax, dmax, out)

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (self.grading == other.grading and self.kmax == other.kmax
                and self.dmax == other.dmax and self.coeffs == other.coeffs)

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self._sum(other, 1)

    def __sub__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self._sum(other, -1)

    def _sum(self, other, sign: int) -> "MultiSeries":
        """self + sign * other on the common box: both sides' rows over
        their common L * D (_common_denominator), added row by row, reduced
        once."""
        box = self._common_box(other)
        cells = _pair_plan(*box)
        fa, fb = self._int_numerators(), other._int_numerators()
        lcm, den, ((ma, qa), (mb, qb)) = _common_denominator([fa, fb])
        qa, qb = [ma * x for x in qa], [sign * mb * x for x in qb]
        out = {key: int_poly_mul(row, qa) for key, row in fa[2].items() if key in cells}
        for key, row in fb[2].items():
            if key in cells:
                row = int_poly_mul(row, qb)
                prev = out.get(key)
                if prev is None:
                    out[key] = row
                else:
                    row = int_poly_add(prev, row)
                    if row:
                        out[key] = row
                    else:
                        del out[key]
        return MultiSeries._from_rows(self.grading, *box, lcm, den, out)

    def _int_numerators(self):
        """The coefficients over one denominator L * D, as
        _scaled_numerators returns them: the value of a series held as int
        rows, and for one built from cells computed on its first operation
        and kept, since a series is never changed once built."""
        got = self._scaled
        if got is None:
            got = self._scaled = _scaled_numerators(self._cells)
        return got

    def _packed(self, bits: int, box: tuple) -> dict:
        """{cell: _pack(numerator, bits)} over this series' cells in the box
        (kmax, dmax): its packed image, made on the first product at this
        slot width on this box and kept for the next."""
        images = self._images
        if images is None:
            images = self._images = {}
        got = images.get((bits, box))
        if got is None:
            rows, plan = self._int_numerators()[2], _pair_plan(*box)
            got = images[(bits, box)] = {key: _pack(row, bits)
                                         for key, row in rows.items() if key in plan}
        return got

    def __mul__(self, other):
        """Product on the common box, or scaling by a scalar.  Each term of
        the smaller operand visits only its partners in the larger whose
        product stays in the box, as the box's pair plan lists them.

        An empty or one-cell operand shares no output cell between pairs:
        its one cell moves the larger operand's rows to their product cells
        and scales them (_times).  Otherwise this is the one-term case of
        sum_of_products, with each operand over its own denominator: its
        numerators are packed once per slot width and common box, and the
        pair loop (_pair_sums) and the unpacking (_read_cells) are the
        core's."""
        if isinstance(other, (int, Fraction, RatFunc, UPoly)):
            return self.scale(other)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        kmax, dmax = box = self._common_box(other)
        small, large = (self, other) if self._cell_count <= other._cell_count else (other, self)
        count = small._cell_count
        plan = _pair_plan(kmax, dmax)
        lb, db, rows, top_b, len_b = large._int_numerators()
        if count <= 1:
            key1, c = next(iter(small.coeffs.items()), (None, RF_ZERO))
            moves = plan.get(key1, {})
            return _times(self.grading, box, lb, db,
                          {moves[key2]: row for key2, row in rows.items() if key2 in moves}, c)
        la, da, _, top_a, len_a = small._int_numerators()
        bits = _slot_bits(top_a * top_b * min(len_a, len_b) * count)
        sums = _pair_sums([(small._packed(bits, box), large._packed(bits, box))], plan)
        return _read_cells(self.grading, box, sums, bits, la * lb, da * db)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc, UPoly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "MultiSeries":
        """c times the series: its rows times the numerator of c, over L * D
        times the denominator of c, with gcd(D, numerator of c) cancelled
        (_times)."""
        return _times(self.grading, (self.kmax, self.dmax), *self._int_numerators()[:3], c)

    def max_total_order(self) -> int:
        return max(self.kmax, 0) + sum(self.dmax)

    def __repr__(self):
        return f"MultiSeries(kmax={self.kmax}, dmax={self.dmax}, terms={self._cell_count})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (k, d) in sorted(self.coeffs):
            c = self.coeffs[(k, d)]
            mono = []
            if k:
                mono.append("t" if k == 1 else f"t^{k}")
            for name, e in zip(self.grading.names, d):
                if e:
                    mono.append(name if e == 1 else f"{name}^{e}")
            head = "*".join(mono) if mono else "1"
            parts.append(f"({c})*{head}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        terms = [{"k": k, "d": list(d), "coeff": c.to_json()}
                 for (k, d), c in sorted(self.coeffs.items())]
        return {"kmax": self.kmax, "dmax": list(self.dmax), "terms": terms}

    @classmethod
    def from_json(cls, data, grading=None) -> "MultiSeries":
        dmax = tuple(data["dmax"])
        if grading is None:
            grading = Grading(len(dmax))
        coeffs = {(t["k"], tuple(t["d"])): RatFunc.from_json(t["coeff"])
                  for t in data["terms"]}
        return cls(grading, data["kmax"], dmax, coeffs)


def _slot_bits(bound: int) -> int:
    """The slot width for packed sums whose every coefficient is at most
    bound in size: whole 32-bit words, so that partners of about the same
    size share an operand's packed image."""
    return -(-(bound.bit_length() + 2) // 32) * 32


def _pair_sums(images, plan) -> dict:
    """{cell: packed sum} over the pairs (a, b) of packed images of every
    product a[c1] * b[c2] that the box's pair plan puts in the cell, each
    pair visited from the image with fewer cells: one int multiply and add
    per in-box pair."""
    out = {}
    for a, b in images:
        if len(b) < len(a):
            a, b = b, a
        for key1, c1 in a.items():
            for key2, key in plan[key1].items():
                c2 = b.get(key2)
                if c2 is not None:
                    s = out.get(key)
                    out[key] = c1 * c2 if s is None else s + c1 * c2
    return out


def _read_cells(grading, box, sums, bits: int, lcm: int, den) -> MultiSeries:
    """The series on box whose cells are the packed sums over lcm * den,
    each unpacked once at the slot width, held as those rows and reduced
    once as a whole (_reduce)."""
    return MultiSeries._from_rows(grading, *box, lcm, den,
                                  {key: _unpack(s, bits) for key, s in sums.items() if s})


def _times(grading, box, lcm: int, den, rows: dict, c) -> MultiSeries:
    """The series on box with the cells rows / (lcm * den) times the scalar
    c: with g = gcd(den, numerator of c) cancelled from both, the rows
    times the int numerator of c / g, lcm times its int denominator and
    den / g times the monic denominator of c, reduced once."""
    c = _coerce_coeff(c)
    if c.is_zero:
        return MultiSeries._from_rows(grading, *box, 1, P_ONE, {})
    num = c.num
    if den != P_ONE and num.degree > 0:
        g = upoly_gcd(den, num)
        if g != P_ONE:
            den, num = den // g, num // g
    return MultiSeries._from_rows(grading, *box, lcm * num.denom, den * c.den,
                                  {key: int_poly_mul(row, num.numer) for key, row in rows.items()})


def _common_denominator(forms) -> tuple:
    """One denominator L * D for series given by their scaled forms (L_i,
    D_i, rows, ...): D the monic lcm of the D_i and L the lcm of the ints
    L_i l_i, where D / D_i is Q_i / l_i with Q_i an int row.  Returns (L, D,
    factors), factors listing per form (m_i, Q_i) with m_i = L / (L_i l_i),
    so that series_i = m_i Q_i N_i / (L * D) for N_i its rows."""
    den = P_ONE
    for _, d, *_ in forms:
        if d != den:
            den = den * (d // upoly_gcd(den, d))
    lcm, quotients, qs = 1, {den: P_ONE}, []
    for own, d, *_ in forms:
        q = quotients.get(d)
        if q is None:
            q = quotients[d] = den // d
        qs.append(q)
        lcm = math.lcm(lcm, own * q.denom)
    return lcm, den, [(lcm // (form[0] * q.denom), q.numer) for form, q in zip(forms, qs)]


def _one_side(groups) -> tuple:
    """One denominator L * D for every series of a side's groups
    (_common_denominator).  Returns (L, D, scaled), scaled holding per group
    the list of (series_i, m_i, Q_i) and then the sum of the largest
    |entry|, the largest length and the most cells of the m_i Q_i N_i."""
    forms = [s._int_numerators() for group in groups for s in group]
    lcm, den, factors = _common_denominator(forms)
    each = iter(zip(forms, factors))
    scaled = []
    for group in groups:
        operands, top, length, cells = [], 0, 0, 0
        for s in group:
            (_, _, rows, s_top, s_len), (m, q) = next(each)
            operands.append((s, m, q))
            top += s_top * m * sum(map(abs, q))
            length = max(length, s_len + len(q) - 1)
            cells = max(cells, len(rows))
        scaled.append((operands, top, length, cells))
    return lcm, den, scaled


def _group_image(operands, bits: int, box: tuple) -> dict:
    """{cell: packed numerator of the sum} of a group scaled by _one_side:
    each series' kept packed image times its factor m_i Q_i(2**bits)."""
    if len(operands) == 1 and operands[0][1:] == (1, (1,)):
        return operands[0][0]._packed(bits, box)
    out = {}
    for s, m, q in operands:
        f = m if q == (1,) else m * _pack(q, bits)
        for key, c in s._packed(bits, box).items():
            if f != 1:
                c *= f
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
    return out


def sum_of_products(terms, grading: Grading, kmax: int, dmax) -> MultiSeries:
    """sum over terms (left, right) of (sum of left) * (sum of right) on the
    box (kmax, dmax), which each operand's box must contain; a right of None
    stands for the unit series.  A product of two series is its one-term
    case (MultiSeries.__mul__).

    Each side is put over one denominator, the left groups over L * D and
    the right ones over Lr * Dr (_one_side).  Each operand's numerators are
    packed once per slot width and box (Kronecker substitution, _pack) and
    each group is summed as packed images, so a cell of a group's sum is
    one int at u = 2**bits.  The slot is wide enough for a bound on every
    accumulated coefficient: summed over the terms, the left group's
    largest entries times the right group's, times the shorter length and
    the fewer cells.  The box's pair plan then makes each pair of a term
    one int multiply and add, and each output cell is unpacked and reduced
    once, over L * Lr * D * Dr."""
    box = (kmax, dmax)
    unit = [MultiSeries.const(grading, kmax, dmax, RF_ONE)]
    ll, dl, lefts = _one_side([left for left, _ in terms])
    lr, dr, rights = _one_side([unit if right is None else right for _, right in terms])
    bits = _slot_bits(sum(top * top_r * min(length, length_r) * min(cells, cells_r)
                          for (_, top, length, cells), (_, top_r, length_r, cells_r)
                          in zip(lefts, rights)))
    sums = _pair_sums([(_group_image(left[0], bits, box), _group_image(right[0], bits, box))
                       for left, right in zip(lefts, rights)], _pair_plan(kmax, dmax))
    return _read_cells(grading, box, sums, bits, ll * lr, dl * dr)


def t_layer_sums(parts, layers) -> MultiSeries:
    """sum_k t**k sum_j rows_k[j] parts[j] / q_k on the box (len(layers) - 1,
    dmax), for t-order-0 series parts on one z-box dmax and layers[k] =
    (q_k, rows_k): a positive int q_k and a dict {j: nonempty int row},
    each row the coefficients in u of a weight, lowest degree first.

    The parts go over one denominator L * D (_common_denominator, so that
    part j is m_j Q_j N_j / (L * D)) and the layers over the lcm of the
    q_k; each weight, times m_j Q_j, is packed once (Kronecker
    substitution, _pack), each part's numerators are packed once, and each
    cell (k, d) is one packed sum of int products over j, unpacked and
    reduced once as a whole.  The slot is wide enough for a bound on every
    accumulated coefficient, as in sum_of_products."""
    grading, dmax = parts[0].grading, parts[0].dmax
    if any(p.kmax or p.dmax != dmax or p.grading != grading for p in parts):
        raise ValueError("t_layer_sums needs t-order-0 parts on one z-box")
    forms = [p._int_numerators() for p in parts]
    lcm, den, factors = _common_denominator(forms)
    qden = math.lcm(*(q for q, _ in layers))
    weights = [{j: int_poly_mul(row, [factors[j][0] * (qden // q) * x for x in factors[j][1]])
                for j, row in rows.items()} for q, rows in layers]
    bits = _slot_bits(max(sum(max(map(abs, row)) * forms[j][3] * min(len(row), forms[j][4])
                              for j, row in layer.items()) for layer in weights))
    box = (0, dmax)
    images = [p._packed(bits, box) for p in parts]
    sums = {}
    for k, layer in enumerate(weights):
        for j, row in layer.items():
            w = _pack(row, bits)
            for (_, d), c in images[j].items():
                key = (k, d)
                s = sums.get(key)
                sums[key] = w * c if s is None else s + w * c
    return _read_cells(grading, (len(layers) - 1, dmax), sums, bits, lcm * qden, den)


def slice_cells(dmax):
    """(d, splits) for each z-cell d != 0 of the box dmax by increasing total
    degree |d|, where splits lists (f, d - f, |f|) for 0 < f <= d with f = d
    last: the order in which a t = 0 slice is solved one cell at a time,
    each cell reading only cells of lower degree."""
    for d in sorted(box_vectors(dmax), key=sum)[1:]:
        yield d, [(f, tuple(map(sub, d, f)), sum(f)) for f in box_vectors(d)][1:]


def _power_sum(g: MultiSeries, c0, coeff, name: str) -> MultiSeries:
    """c0 + sum_{k>=1} coeff(k) g**k for a series g with zero constant term
    (`name` says which series in the error); the sum terminates inside the
    box because g**k has total order at least k."""
    if (0, g.grading.zero) in g._int_numerators()[2]:
        raise ValueError(f"{name} base must be 1 + nilpotent part")
    result = MultiSeries.const(g.grading, g.kmax, g.dmax, c0)
    gpow = MultiSeries.const(g.grading, g.kmax, g.dmax, RF_ONE)
    for k in range(1, g.max_total_order() + 1):
        gpow = gpow * g
        if gpow.is_zero:
            break
        result = result + gpow.scale(coeff(k))
    return result


def series_pow_binomial(g: MultiSeries, alpha) -> MultiSeries:
    """(1 + g)**alpha for a series g with zero constant term.

    Defined as sum_{k>=0} C(alpha, k) g**k, exact inside the box.  The
    exponent may be any rational function, so non-integer powers like
    (1+g)**u are exact.
    """
    alpha = _coerce_coeff(alpha)
    return _power_sum(g, RF_ONE, lambda k: binom_falling(alpha, k), "binomial")


def series_log1p(g: MultiSeries) -> MultiSeries:
    """log(1 + g) = sum_{k>=1} (-1)**(k+1) g**k / k for g with zero constant
    term; exact inside the box."""
    return _power_sum(g, RF_ZERO, lambda k: Fraction((-1) ** (k + 1), k), "logarithm")


def series_adams(g: MultiSeries, k: int) -> MultiSeries:
    """psi_k(g) on the box of g: u -> u**k, z**b -> z**(k b), t -> 0.  On
    the scaled form: the t**0 rows whose k d stays in the box, each spread
    (u -> u**k), over L * D(u**k), reduced once."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return g
    lcm, den, rows = g._int_numerators()[:3]
    out = {}
    for (j, d), row in rows.items():
        kd = tuple(k * x for x in d)
        if not j and all(x <= m for x, m in zip(kd, g.dmax)):
            out[(0, kd)] = int_poly_adams(row, k)
    return MultiSeries._from_rows(g.grading, g.kmax, g.dmax, lcm, den.adams(k), out)


def series_dt(a: MultiSeries) -> MultiSeries:
    """Formal partial derivative in t; the t-truncation drops by one."""
    kmax = a.kmax - 1
    out = {}
    for (k, d), c in a.coeffs.items():
        if k >= 1:
            out[(k - 1, d)] = c * k
    return MultiSeries._new(a.grading, kmax, a.dmax, out)
