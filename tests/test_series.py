import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stablemaps import series
from stablemaps.qfield import P_ONE, RF_ONE, RF_U, RatFunc, U, UPoly, binom_falling
from stablemaps.series import (Grading, MultiSeries, box_vectors, series_adams,
                               series_dt, series_log1p, series_pow_binomial,
                               slice_cells, sum_of_products, t_layer_sums)

from reference import CellSeries, cell_sum_of_products, stationary

G1 = Grading(1)
G0 = Grading(0)


def t_series(kmax, dmax=(2,), grading=G1):
    return MultiSeries.monomial(grading, kmax, dmax, 1, grading.zero, RF_ONE)


def naive_mul(a, b):
    """Brute-force double-sum convolution, the oracle for products."""
    kmax = min(a.kmax, b.kmax)
    dmax = tuple(min(x, y) for x, y in zip(a.dmax, b.dmax))
    out = {}
    for (k1, d1), c1 in a.coeffs.items():
        for (k2, d2), c2 in b.coeffs.items():
            k = k1 + k2
            d = tuple(x + y for x, y in zip(d1, d2))
            if k <= kmax and all(x <= m for x, m in zip(d, dmax)):
                out[(k, d)] = out.get((k, d), RatFunc(0)) + c1 * c2
    return MultiSeries(a.grading, kmax, dmax, out)


def naive_add(a, b):
    """Cell-by-cell sum on the common box, the oracle for sums."""
    kmax = min(a.kmax, b.kmax)
    dmax = tuple(min(x, y) for x, y in zip(a.dmax, b.dmax))
    return MultiSeries(a.grading, kmax, dmax,
                       {(k, d): a.coeffs.get((k, d), RatFunc(0)) + b.coeffs.get((k, d), RatFunc(0))
                        for k in range(kmax + 1) for d in box_vectors(dmax)})


def rand_series(rng, kmax=3, dmax=(2,), zero_const=False, grading=G1):
    coeffs = {}
    for k in range(kmax + 1):
        for d in range(dmax[0] + 1):
            if zero_const and k == 0 and d == 0:
                continue
            if rng.random() < 0.6:
                coeffs[(k, (d,))] = RatFunc(
                    UPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]))
    return MultiSeries(grading, kmax, dmax, coeffs)


@st.composite
def small_series(draw):
    """A rank-1 series in a box of at most 4 x 3 cells, with coefficients
    small integer polynomials in u, as rand_series draws them."""
    kmax, dmax = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    cells = [(k, (d,)) for k in range(kmax + 1) for d in range(dmax + 1)]
    coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=3)
    chosen = draw(st.dictionaries(st.sampled_from(cells), coeffs.map(UPoly).map(RatFunc)))
    return MultiSeries(G1, kmax, (dmax,), chosen)


@st.composite
def nilpotent_series(draw):
    """A small_series without its constant term."""
    s = draw(small_series())
    return MultiSeries(G1, s.kmax, s.dmax,
                       {key: c for key, c in s.coeffs.items() if key != (0, (0,))})


# u - 1, u + 1 and u^2 + 1
DENOMINATORS = (UPoly((-1, 1)), UPoly((1, 1)), UPoly((1, 0, 1)))


def coefficients(kind):
    """Coefficients of one kind: polynomials in u ("poly"), fractions over a
    nonconstant denominator ("rational"), either ("mixed"), polynomials with
    Fraction coefficients of numerators up to 2**200 in size over
    denominators up to 2**40 ("wide"), or such polynomials over a
    nonconstant denominator ("wide-rational")."""
    if kind.startswith("wide"):
        wide = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 40))
        numer = st.lists(wide, min_size=1, max_size=4).map(UPoly)
        if kind == "wide":
            return numer.map(RatFunc)
        return st.builds(RatFunc, numer, st.sampled_from(DENOMINATORS))
    poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(UPoly)
    rational = st.builds(RatFunc, poly, st.sampled_from(DENOMINATORS))
    if kind == "poly":
        return poly.map(RatFunc)
    return rational if kind == "rational" else st.one_of(poly.map(RatFunc), rational)


@st.composite
def boxed_series(draw, rank, kind):
    """A series of the given rank in its own box of at most 4 x 3**rank
    cells, at most 8 of them nonzero."""
    kmax = draw(st.integers(0, 3))
    dmax = tuple(draw(st.integers(0, 2)) for _ in range(rank))
    cells = [(k, d) for k in range(kmax + 1) for d in box_vectors(dmax)]
    chosen = draw(st.dictionaries(st.sampled_from(cells), coefficients(kind), max_size=8))
    return MultiSeries(Grading(rank), kmax, dmax, chosen)


def seeded_triple(seed):
    rng = random.Random(seed)
    return tuple(rand_series(rng) for _ in range(3))


def seeded_pair(seed):
    rng = random.Random(seed)
    return rand_series(rng), rand_series(rng)


def seeded_additivity(seed):
    rng = random.Random(seed)
    g = rand_series(rng, kmax=2, dmax=(2,), zero_const=True)
    alpha = RatFunc(UPoly([rng.randint(-3, 3), 1]))
    beta = RatFunc(UPoly([rng.randint(-3, 3), rng.randint(1, 3)]))
    return g, alpha, beta


class TestArithmetic:
    def test_one_plus_t_times_one_minus_t(self):
        one = MultiSeries.const(G1, 2, (0,), RF_ONE)
        t = t_series(2, (0,))
        got = (one + t) * (one - t)
        assert got == one - MultiSeries.monomial(G1, 2, (0,), 2, (0,), RF_ONE)

    def test_t_times_z(self):
        t = t_series(2)
        z = MultiSeries.monomial(G1, 2, (2,), 0, (1,), RF_ONE)
        assert (t * z).coeffs == {(1, (1,)): RF_ONE}

    def test_exponential_square_doubles(self):
        # (sum t^k/k!)^2 must match the convolution oracle and equal
        # sum (2t)^k / k!
        kmax = 5
        e = MultiSeries(G0, kmax, (), {(k, ()): RatFunc(Fraction(1, factorial(k)))
                                       for k in range(kmax + 1)})
        sq = e * e
        assert sq == naive_mul(e, e)
        for k in range(kmax + 1):
            assert sq.coeff(k) == RatFunc(Fraction(2 ** k, factorial(k)))

    def test_grading_mismatch(self):
        a = MultiSeries.const(G1, 1, (1,), RF_ONE)
        b = MultiSeries.const(Grading(2), 1, (1, 1), RF_ONE)
        with pytest.raises(ValueError, match="grading"):
            a + b

    def test_truncation_is_min_box(self):
        a = rand_series(random.Random(3), kmax=4, dmax=(3,))
        b = rand_series(random.Random(4), kmax=2, dmax=(1,))
        assert (a * b).kmax == 2 and (a * b).dmax == (1,)
        assert (a + b).kmax == 2 and (a + b).dmax == (1,)

    @given(small_series(), small_series(), small_series())
    @example(*seeded_triple(5))
    def test_mul_commutative_associative(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * b == naive_mul(a, b)

    @pytest.mark.parametrize("kind", ["poly", "rational", "mixed", "wide-rational"])
    @given(data=st.data())
    def test_mul_matches_naive_on_unequal_boxes(self, kind, data):
        # "poly" puts each operand over an int denominator, the other kinds
        # over an int times a polynomial, and "wide-rational" needs wide
        # slots; (x + y)(x - y) makes cells cancel inside one product, and
        # a b + a (-b) across two
        rank = data.draw(st.sampled_from([0, 1, 2]))
        a, b, c = (data.draw(boxed_series(rank, kind)) for _ in range(3))
        assert b + c == naive_add(b, c)
        assert a * b == naive_mul(a, b)
        assert (a * b + a * (-b)).is_zero
        assert (b + c) * (b - c) == naive_mul(b + c, b - c)

    @given(data=st.data())
    def test_mul_matches_naive_with_wide_coefficients(self, data):
        # the product packs each cell into one int over its operand's one
        # denominator: non-1 denominators and coefficients of hundreds of
        # bits exercise the scaling and the slot width
        rank = data.draw(st.sampled_from([0, 1, 2]))
        a, b, c = (data.draw(boxed_series(rank, "wide")) for _ in range(3))
        assert a * b == naive_mul(a, b)
        assert (a * b + a * (-b)).is_zero
        assert (b + c) * (b - c) == naive_mul(b + c, b - c)

    @given(data=st.data())
    def test_cached_operand_serves_every_partner(self, data):
        # an operand puts itself over one denominator on its first product
        # and keeps the numerators: partners that need narrow or wide slots,
        # one over a polynomial denominator, a single cell, or a smaller box
        # (leaving some of its cells outside the common box) must each get
        # the exact product, and the operand must not change
        rank = data.draw(st.sampled_from([0, 1, 2]))

        def drawn(kmax, dmax, kind, min_size, max_size=8):
            cells = [(k, d) for k in range(kmax + 1) for d in box_vectors(dmax)]
            chosen = data.draw(st.dictionaries(st.sampled_from(cells), coefficients(kind),
                                               min_size=min_size, max_size=max_size))
            return MultiSeries(Grading(rank), kmax, dmax, chosen)

        full, small = (2,) * rank, (1,) * rank
        a = drawn(3, full, data.draw(st.sampled_from(["poly", "wide", "rational"])), 2)
        before = MultiSeries.from_json(a.to_json())
        partners = [drawn(3, full, "poly", 2), drawn(3, full, "wide", 2),
                    drawn(3, full, "rational", 2), drawn(3, full, "wide", 1, 1),
                    drawn(1, small, "poly", 1)]
        for b in partners + partners[:1]:
            assert a * b == naive_mul(a, b)
            assert b * a == naive_mul(b, a)
        assert a == before

    def test_packed_image_is_kept_per_slot_width(self, monkeypatch):
        # an operand keeps one packed image per slot width and common box:
        # partners that need 32-, 64- and 128-bit slots, one over a
        # polynomial denominator and one on a smaller box (where `a`, with
        # 8 cells to its 9, is the operand whose cells visit the plan) each
        # get the product of a fresh copy (empty caches) and of the naive
        # convolution, and a repeated product packs no cell of `a` again
        rng = random.Random(11)
        a = rand_series(rng, kmax=3, dmax=(2,))
        narrow = rand_series(rng, kmax=3, dmax=(2,))
        dense = MultiSeries(G1, 2, (2,), {(k, (d,)): RatFunc(k + d + 1)
                                          for k in range(3) for d in range(3)})
        partners = [narrow, narrow.scale(2 ** 30), narrow.scale(2 ** 90),
                    narrow.scale(RatFunc(1, UPoly((1, 1)))), dense]
        widths = []
        pack = series._pack

        def counting(row, bits):
            widths.append(bits)
            return pack(row, bits)

        monkeypatch.setattr(series, "_pack", counting)
        for b in partners:
            fresh = MultiSeries.from_json(a.to_json())
            assert a * b == fresh * b == naive_mul(a, b)
        assert {32, 64, 128} <= set(widths)
        for b in partners:
            del widths[:]
            got = a * b
            assert not widths
            b_again = MultiSeries.from_json(b.to_json())
            assert a * b_again == got
            # only the fresh partner's cells inside the common box are packed
            box = a._common_box(b_again)
            assert len(widths) == len(b_again.truncate(*box).coeffs)

    def test_mul_attains_the_slot_bound(self):
        # every cell pairs with one partner in the top cell (3, (2,)), all
        # with the same sign, so its u^3 coefficient is exactly the bound
        # max|a| max|b| len #cells the packed product sizes its slots by
        c = Fraction(2 ** 200 - 1, 3)
        full = MultiSeries(G1, 3, (2,), {(k, (d,)): RatFunc(UPoly([c] * 4))
                                         for k in range(4) for d in range(3)})
        for other, sign in ((full, 1), (-full, -1)):
            got = full * other
            assert got == naive_mul(full, other)
            assert got.coeff(3, (2,)).num.coeffs[3] == sign * 48 * c * c

    def test_coeff_beyond_truncation(self):
        a = rand_series(random.Random(6))
        with pytest.raises(ValueError, match="beyond truncation"):
            a.coeff(a.kmax + 1, (0,))
        with pytest.raises(ValueError, match="beyond truncation"):
            a.coeff(0, (a.dmax[0] + 1,))

    def test_z_exponent_of_the_wrong_length(self):
        # a key whose z-exponent is shorter or longer than dmax is outside
        # the box, whether stored, read or made a monomial
        for d in ((), (1, 0)):
            with pytest.raises(ValueError, match="outside the truncation box"):
                MultiSeries(G1, 1, (2,), {(0, d): 5})
            with pytest.raises(ValueError, match="beyond truncation"):
                MultiSeries(G1, 1, (2,)).coeff(0, d)
            with pytest.raises(ValueError, match="outside the truncation box"):
                MultiSeries.monomial(G1, 1, (2,), 0, d, 5)

    def test_json_roundtrip(self):
        a = rand_series(random.Random(7))
        assert MultiSeries.from_json(a.to_json(), G1) == a


# monic denominators, u + 1/2 and u^2 - (2/3) u + 1/5 with non-integer
# coefficients: over their lcm with DENOMINATORS, D / D_i is not integral
MONIC_DENOMINATORS = DENOMINATORS + (UPoly((Fraction(1, 2), 1)),
                                     UPoly((Fraction(1, 5), Fraction(-2, 3), 1)))


@st.composite
def core_terms(draw):
    """(terms, grading, kmax, dmax) for sum_of_products: up to 4 terms on a
    box of rank 0 to 2, each a left group of up to 3 series and a right
    group of up to 3 or None, every series on a box that contains the
    core's, with coefficients over monic denominators (some with
    non-integer coefficients), empty series among them."""
    rank = draw(st.integers(0, 2))
    grading = Grading(rank)
    kmax = draw(st.integers(0, 2))
    dmax = tuple(draw(st.integers(0, 2)) for _ in range(rank))
    poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(UPoly)
    coeff = st.one_of(poly.map(RatFunc),
                      st.builds(RatFunc, poly, st.sampled_from(MONIC_DENOMINATORS)))

    def series_():
        k = kmax + draw(st.integers(0, 1))
        d = tuple(x + draw(st.integers(0, 1)) for x in dmax)
        cells = [(j, e) for j in range(k + 1) for e in box_vectors(d)]
        chosen = draw(st.dictionaries(st.sampled_from(cells), coeff, max_size=6))
        return MultiSeries(grading, k, d, chosen)

    def group():
        return [series_() for _ in range(draw(st.integers(0, 3)))]

    terms = [(group(), draw(st.one_of(st.none(), st.builds(group))))
             for _ in range(draw(st.integers(1, 4)))]
    return terms, grading, kmax, dmax


def summed(group, grading, kmax, dmax):
    total = MultiSeries.zero(grading, kmax, dmax)
    for s in group:
        total = total + s
    return total


class TestSumOfProducts:
    @given(core_terms())
    def test_equals_sum_of_products_of_sums(self, drawn):
        terms, grading, kmax, dmax = drawn
        expected = MultiSeries.zero(grading, kmax, dmax)
        for left, right in terms:
            term = summed(left, grading, kmax, dmax)
            if right is not None:
                term = term * summed(right, grading, kmax, dmax)
            expected = expected + term
        got = sum_of_products(terms, grading, kmax, dmax)
        assert (got.kmax, got.dmax) == (kmax, dmax)
        assert got == expected

    @pytest.mark.parametrize("shape", ["terms", "group", "cells", "length"])
    def test_slot_holds_the_accumulated_cells(self, monkeypatch, shape):
        # entries near +-2**63 that all add with one sign into the t^3 cell
        # of a rank-0 box, 4 T T' in all: over 4 terms, over a left group of
        # 4, over 4 pairs of cells, or over 4 u-degrees (beside a small term
        # that keeps the product off the one-cell path).  That is the bound
        # the slot is sized by, 160 bits; one 32-bit word narrower would not
        # hold the cell, and each of the four factors of the bound matters
        near = (2 ** 63 - 1, 2 ** 63 - 3, 2 ** 63 - 5, 2 ** 63 - 7)
        ones = UPoly((1, 1, 1, 1))

        def series_(cells):
            return MultiSeries(G0, 3, (), {(k, ()): c for k, c in cells.items()})

        if shape == "terms":
            terms = [([series_({0: -x})], [series_({3: -x})]) for x in near]
        elif shape == "group":
            terms = [([series_({0: x}) for x in near], [series_({3: near[1]})])]
        elif shape == "cells":
            terms = [([series_(dict.fromkeys(range(4), near[0]))],
                      [series_(dict.fromkeys(range(4), near[1]))])]
        else:
            terms = [([series_({0: RatFunc(ones.scale(-near[2]))})],
                      [series_({3: RatFunc(ones.scale(-near[3]))})]),
                     ([series_({0: 1})], [series_({3: 1})])]
        rows, unpack = [], series._unpack

        def recording(acc, bits):
            rows.append((bits, unpack(acc, bits)))
            return rows[-1][1]

        monkeypatch.setattr(series, "_unpack", recording)
        got = sum_of_products(terms, G0, 3, ())
        monkeypatch.undo()
        expected = MultiSeries.zero(G0, 3, ())
        for left, right in terms:
            expected = expected + summed(left, G0, 3, ()) * summed(right, G0, 3, ())
        assert got == expected
        top = max(abs(c) for _, row in rows for c in row)
        assert {bits for bits, _ in rows} == {160} and top >= 2 ** (128 - 1)

    def test_term_without_right_group_is_its_left_sum(self):
        # a term with no right group takes the unit over the right side's
        # denominator, here one with a non-integer coefficient
        half = UPoly((Fraction(1, 2), 1))
        x = MultiSeries(G1, 2, (1,), {(0, (0,)): RatFunc(1, half), (1, (1,)): 3})
        y = MultiSeries(G1, 2, (1,), {(0, (1,)): RatFunc(U, UPoly((1, 0, 1))), (2, (0,)): 1})
        got = sum_of_products([([x], [y, x]), ([y, x], None), ([], None), ([x], [])],
                              G1, 2, (1,))
        assert got == x * (y + x) + y + x


def scaled_form(s):
    """A series' (L, D, rows, top, length), each row as a list."""
    lcm, den, rows, top, length = s._int_numerators()
    return lcm, den, {key: list(row) for key, row in rows.items()}, top, length


def reference_form(ref):
    """The (L, D, rows, top, length) that _scaled_numerators makes from the
    reduced cells of a CellSeries."""
    lcm, den, rows, top, length = series._scaled_numerators(ref.cells)
    return lcm, den, {key: list(row) for key, row in rows.items()}, top, length


# scalars of every kind scale takes, zero among them, and rational
# functions over the monic denominators
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
             min_size=1, max_size=3).map(UPoly),
    st.builds(RatFunc, st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(UPoly),
              st.sampled_from(MONIC_DENOMINATORS)))


class TestTLayerSums:
    @given(data=st.data())
    def test_equals_the_cellwise_sums(self, data):
        # signed weights over several int denominators, on parts whose
        # denominators include 2u + 1 (monic u + 1/2 in the shared D)
        rank = data.draw(st.integers(0, 2), label="rank")
        dmax = tuple(data.draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)))
        dens = st.sampled_from([(1,), (1, 2), (-1, 1), (3,)])
        nums = st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any)
        parts = [MultiSeries(Grading(rank), 0, dmax,
                             {(0, d): RatFunc(UPoly(data.draw(nums)), UPoly(data.draw(dens)))
                              for d in box_vectors(dmax) if data.draw(st.booleans())})
                 for _ in range(data.draw(st.integers(1, 3), label="parts"))]
        layers = [(data.draw(st.integers(1, 6)),
                   {j: [c * 2 ** 70 for c in data.draw(nums)]
                    for j in range(len(parts)) if data.draw(st.booleans())})
                  for _ in range(data.draw(st.integers(1, 3), label="layers"))]
        expected = {}
        for k, (q, rows) in enumerate(layers):
            for j, row in rows.items():
                for (_, d), c in parts[j].coeffs.items():
                    expected[(k, d)] = expected.get((k, d), RatFunc(0)) + \
                        c * RatFunc(UPoly(row)) * Fraction(1, q)
        assert t_layer_sums(parts, layers) == \
            MultiSeries(Grading(rank), len(layers) - 1, dmax, expected)

    def test_refuses_parts_off_one_slice(self):
        slice_ = MultiSeries.const(G1, 0, (2,), RF_U)
        for other in (MultiSeries.const(G1, 1, (2,), RF_ONE),
                      MultiSeries.const(G1, 0, (1,), RF_ONE)):
            with pytest.raises(ValueError, match="t-order-0 parts on one z-box"):
                t_layer_sums([slice_, other], [(1, {0: [1], 1: [1]})])


class TestRowsAgainstCells:
    @given(data=st.data())
    def test_chain_matches_the_cell_reference(self, data):
        # chains of products, sums of products, sums, differences, scalings,
        # truncations and Adams operations on series built from cells or by
        # MultiSeries.exponential, each result held as int rows,
        # must give the cells of the same chain built cell by cell
        # (reference.CellSeries), and their scaled form must be the one
        # _scaled_numerators makes from those cells
        rank = data.draw(st.integers(0, 2), label="rank")
        grading = Grading(rank)
        poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(UPoly)
        coeff = st.one_of(poly.map(RatFunc),
                          st.builds(RatFunc, poly, st.sampled_from(MONIC_DENOMINATORS)))

        def index():
            return data.draw(st.integers(0, len(pool) - 1))

        def fresh():
            # a series from its cells, or the exponential form of the tree
            # sum's root factors, cells[(k, d)] t**k / k! held as int rows
            kmax = data.draw(st.integers(0, 3))
            dmax = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
            cells = [(k, d) for k in range(kmax + 1) for d in box_vectors(dmax)]
            if not data.draw(st.booleans(), label="exponential"):
                chosen = data.draw(st.dictionaries(st.sampled_from(cells), coeff,
                                                   min_size=1, max_size=6))
                return MultiSeries(grading, kmax, dmax, chosen), CellSeries(kmax, dmax, chosen)
            chosen = data.draw(st.dictionaries(st.sampled_from(cells), SCALARS.map(RF_ONE.__mul__),
                                               min_size=1, max_size=6))
            divided = {(k, d): c * Fraction(1, factorial(k)) for (k, d), c in chosen.items()}
            return (MultiSeries.exponential(grading, kmax, dmax, chosen),
                    CellSeries(kmax, dmax, divided))

        def core():
            picked = [pool[index()] for _ in range(data.draw(st.integers(1, 4)))]
            kmax = min(s.kmax for s, _ in picked)
            dmax = tuple(map(min, zip(*(s.dmax for s, _ in picked))))
            terms, refs, rest = [], [], iter(picked)
            for _ in range(data.draw(st.integers(1, 2))):
                left = list(itertools.islice(rest, 2))
                right = None if data.draw(st.booleans()) else list(itertools.islice(rest, 2))
                terms.append(([s for s, _ in left], right and [s for s, _ in right]))
                refs.append(([r for _, r in left], right and [r for _, r in right]))
            return (sum_of_products(terms, grading, kmax, dmax),
                    cell_sum_of_products(refs, kmax, dmax))

        pool = [fresh() for _ in range(3)]
        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(["mul", "core", "add", "sub", "cancel", "scale",
                                            "truncate", "adams", "fresh"]))
            (a, ra), (b, rb) = pool[index()], pool[index()]
            if op == "mul":
                got = a * b, ra * rb
            elif op == "core":
                got = core()
            elif op == "add":
                got = a + b, ra + rb
            elif op == "sub":
                got = a - b, ra - rb
            elif op == "cancel":
                got = a + b - (b + a), ra + rb - (rb + ra)
            elif op == "scale":
                c = data.draw(SCALARS)
                got = a.scale(c), ra.scale(c)
            elif op == "truncate":
                kmax = data.draw(st.integers(0, 3))
                dmax = tuple(data.draw(st.integers(0, 2)) for _ in range(rank))
                got = a.truncate(kmax, dmax), ra.truncate(kmax, dmax)
            elif op == "adams":
                k = data.draw(st.integers(1, 3))
                got = series_adams(a, k), ra.adams(k)
            else:
                got = fresh()
            pool.append(got)
        for s, ref in pool:
            assert (s.kmax, s.dmax) == (ref.kmax, ref.dmax)
            assert scaled_form(s) == reference_form(ref)
            assert s.coeffs == ref.cells
            assert s.is_zero == (not ref.cells)

    @pytest.mark.parametrize("scalar", [None, UPoly((2 ** 40 + 1, 2 ** 40 - 1)),
                                        Fraction(2 ** 41 + 1, 3)],
                             ids=["product", "upoly", "fraction"])
    def test_row_held_operand_sizes_its_own_slot(self, monkeypatch, scalar):
        # P, a product of entries near -2**63 and 2**63 times 1 + u + u^2 +
        # u^3, is held as int rows (and scaled by a large scalar, when one
        # is given) and fed into a second product.  Its top and length are
        # those of the rows _scaled_numerators makes from its reduced cells,
        # the second product's slot is sized from them, and one 32-bit word
        # narrower would not hold its largest cell
        n0, n1, n2, n3 = 2 ** 63 - 1, 2 ** 63 - 3, 2 ** 63 - 5, 2 ** 63 - 7
        ones = UPoly((1, 1, 1, 1))

        def pair(cells):
            cells = {(k, ()): RatFunc(ones.scale(x)) for k, x in cells.items()}
            return MultiSeries(G0, 3, (), cells), CellSeries(3, (), cells)

        (a, ra), (b, rb), (c, rc) = (pair({0: -n0, 1: -n1}), pair({0: n2, 1: n3}),
                                     pair({0: n3, 1: n2, 2: n1}))
        p, rp = a * b, ra * rb
        if scalar is not None:
            p, rp = p.scale(scalar), rp.scale(scalar)
        assert p._cells is None
        assert scaled_form(p) == reference_form(rp)
        rows, unpack = [], series._unpack

        def recording(acc, bits):
            rows.append((bits, unpack(acc, bits)))
            return rows[-1][1]

        monkeypatch.setattr(series, "_unpack", recording)
        got = p * c
        monkeypatch.undo()
        assert got.coeffs == (rp * rc).cells
        _, _, _, top_p, len_p = reference_form(rp)
        _, _, _, top_c, len_c = reference_form(rc)
        bits = series._slot_bits(top_p * top_c * min(len_p, len_c) * 3)
        assert {b for b, _ in rows} == {bits}
        assert max(abs(x) for _, row in rows for x in row) >= 2 ** (bits - 32 - 1)


class TestPowBinomial:
    def test_integer_exponent(self):
        got = series_pow_binomial(t_series(2, (0,)), 2)
        assert got.coeff(0, (0,)) == RF_ONE
        assert got.coeff(1, (0,)) == RatFunc(2)
        assert got.coeff(2, (0,)) == RF_ONE

    def test_exponent_u_matches_falling_binomials(self):
        got = series_pow_binomial(t_series(4, (0,)), RF_U)
        for k in range(5):
            assert got.coeff(k, (0,)) == binom_falling(RF_U, k)

    def test_composition_of_exponents(self):
        # ((1+t)^u)^(1/u) = 1 + t
        base = series_pow_binomial(t_series(4, (0,)), RF_U)
        one = MultiSeries.const(G1, 4, (0,), RF_ONE)
        again = series_pow_binomial(base - one, RatFunc(P_ONE, U))
        assert again == one + t_series(4, (0,))

    @given(nilpotent_series(),
           st.integers(-3, 3).map(lambda a: RatFunc(UPoly([a, 1]))),
           st.builds(lambda a, b: RatFunc(UPoly([a, b])),
                     st.integers(-3, 3), st.integers(1, 3)))
    @example(*seeded_additivity(8))
    def test_exponent_additivity(self, g, alpha, beta):
        lhs = series_pow_binomial(g, alpha + beta)
        rhs = series_pow_binomial(g, alpha) * series_pow_binomial(g, beta)
        assert lhs == rhs

    def test_rejects_constant_term(self):
        bad = MultiSeries.const(G1, 2, (1,), RF_ONE)
        with pytest.raises(ValueError, match="nilpotent"):
            series_pow_binomial(bad, 2)

    def test_trivial_exponents(self):
        g = rand_series(random.Random(9), zero_const=True)
        one = MultiSeries.const(G1, g.kmax, g.dmax, RF_ONE)
        assert series_pow_binomial(g, 0) == one
        assert series_pow_binomial(g, 1) == one + g


class TestLog:
    def test_mercator(self):
        got = series_log1p(t_series(4, (0,)))
        for k in range(1, 5):
            assert got.coeff(k, (0,)) == RatFunc(Fraction((-1) ** (k + 1), k))
        assert got.coeff(0, (0,)).is_zero

    def test_log_of_zero(self):
        z = MultiSeries.zero(G1, 3, (1,))
        assert series_log1p(z).is_zero

    def test_log_of_power_scales(self):
        rng = random.Random(10)
        for _ in range(6):
            g = rand_series(rng, kmax=2, dmax=(1,), zero_const=True)
            alpha = RatFunc(UPoly([rng.randint(-2, 2), 1]))
            one = MultiSeries.const(G1, g.kmax, g.dmax, RF_ONE)
            powered = series_pow_binomial(g, alpha)
            assert series_log1p(powered - one) == series_log1p(g).scale(alpha)

    def test_exp_of_log_recovers_power(self):
        # (1+g)^alpha = sum (alpha*log(1+g))^j / j!
        rng = random.Random(11)
        g = rand_series(rng, kmax=2, dmax=(1,), zero_const=True)
        alpha = RatFunc(UPoly((1, 1)))
        scaled_log = series_log1p(g).scale(alpha)
        acc = MultiSeries.const(G1, g.kmax, g.dmax, RF_ONE)
        power = MultiSeries.const(G1, g.kmax, g.dmax, RF_ONE)
        for j in range(1, g.max_total_order() + 1):
            power = power * scaled_log
            acc = acc + power.scale(Fraction(1, factorial(j)))
        assert acc == series_pow_binomial(g, alpha)


class TestAdams:
    def test_kills_t_and_stretches_z(self):
        g = MultiSeries(G1, 2, (4,), {(0, (1,)): RatFunc(U), (0, (3,)): RF_ONE,
                                      (1, (1,)): RF_ONE, (0, (0,)): RatFunc(5)})
        got = series_adams(g, 2)
        assert got == MultiSeries(G1, 2, (4,), {(0, (2,)): RatFunc(UPoly((0, 0, 1))),
                                                (0, (0,)): RatFunc(5)})
        assert series_adams(g, 1) == g

    @given(data=st.data())
    def test_rows_match_the_cell_reference(self, data):
        # psi_k of a series held as int rows spreads its t**0 rows and its
        # denominator and keeps the rows whose k d stays in the box: cell
        # for cell the reference's psi_k, in the scaled form
        # _scaled_numerators makes from those cells, with no cell built on
        # either series
        rank = data.draw(st.integers(0, 2), label="rank")
        kmax = data.draw(st.integers(0, 2), label="kmax")
        dmax = tuple(data.draw(st.integers(0, 4)) for _ in range(rank))
        poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(UPoly)
        coeff = st.one_of(poly.map(RatFunc),
                          st.builds(RatFunc, poly, st.sampled_from(MONIC_DENOMINATORS)))
        keys = [(k, d) for k in range(kmax + 1) for d in box_vectors(dmax)]
        cells = data.draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=8))
        c, k = data.draw(SCALARS, label="c"), data.draw(st.integers(1, 4), label="k")
        s = MultiSeries(Grading(rank), kmax, dmax, cells).scale(c)
        ref = CellSeries(kmax, dmax, cells).scale(c).adams(k)
        got = series_adams(s, k)
        assert s._cells is None and (got._cells is None or k == 1)
        assert scaled_form(got) == reference_form(ref)
        assert got.coeffs == ref.cells

    def test_dropped_rows_are_reduced_out(self):
        # the t**1 cell alone carries the denominator D = u^2 + 1; psi_2
        # drops it, and the one row left, u^2 (u^4 + 1) over D(u^2) =
        # u^4 + 1, reduces to u^2 over 1
        d = UPoly((1, 0, 1))
        s = MultiSeries(G1, 1, (2,), {(1, (0,)): RatFunc(1, d), (0, (1,)): RatFunc(U)}).scale(1)
        assert s._int_numerators()[1] == d
        got = series_adams(s, 2)
        assert got._int_numerators()[:3] == (1, P_ONE, {(0, (2,)): [0, 0, 1]})
        assert got.coeffs == {(0, (2,)): RatFunc(UPoly((0, 0, 1)))}

    def test_ring_homomorphism_on_t_free_series(self):
        rng = random.Random(13)
        for _ in range(5):
            a = rand_series(rng, kmax=0, dmax=(4,))
            b = rand_series(rng, kmax=0, dmax=(4,))
            assert series_adams(a * b, 2) == series_adams(a, 2) * series_adams(b, 2)
            assert series_adams(series_adams(a, 2), 2) == series_adams(a, 4)


class TestDt:
    def test_examples(self):
        t2 = MultiSeries.monomial(G1, 3, (1,), 2, (0,), RF_ONE)
        got = series_dt(t2)
        assert got.coeff(1, (0,)) == RatFunc(2)
        z = MultiSeries.monomial(G1, 3, (1,), 0, (1,), RF_ONE)
        assert series_dt(z).is_zero

    def test_derivative_of_binomial_power(self):
        # d/dt (1+t)^u = u (1+t)^(u-1)
        base = series_pow_binomial(t_series(5, (0,)), RF_U)
        lower = series_pow_binomial(t_series(4, (0,)), RF_U - RF_ONE)
        assert series_dt(base) == lower.scale(RF_U)

    @given(small_series(), small_series())
    @example(*seeded_pair(12))
    def test_product_rule(self, a, b):
        lhs = series_dt(a * b)
        rhs = series_dt(a) * b + a * series_dt(b)
        assert lhs == rhs


class TestTPower:
    def test_monomial_inside_the_box(self):
        assert MultiSeries.t_power(G1, 3, (2,), 1) == t_series(3)
        assert MultiSeries.t_power(G1, 3, (2,), 3) == t_series(3) * t_series(3) * t_series(3)

    def test_zero_beyond_kmax(self):
        assert MultiSeries.t_power(G1, 1, (2,), 2) == MultiSeries.zero(G1, 1, (2,))
        assert MultiSeries.t_power(G0, -1, (), 1).is_zero
        assert MultiSeries.const(G0, -1, (), 5).is_zero  # the empty box has no t**0


class TestSliceCells:
    @pytest.mark.parametrize("dmax", [(), (7,), (3, 2), (2, 0, 3), (1, 2, 1)])
    def test_each_cell_once_after_its_splits(self, dmax):
        seen = []
        for d, splits in slice_cells(dmax):
            assert d not in seen
            assert [f for f, _, _ in splits] == list(box_vectors(d))[1:]
            for f, q, m in splits:
                assert tuple(a + b for a, b in zip(f, q)) == d and m == sum(f)
                assert f == d or (f in seen and q in seen)
            assert splits[-1][0] == d
            seen.append(d)
        assert sorted(seen) == sorted(box_vectors(dmax))[1:]
        assert [sum(d) for d in seen] == sorted(sum(d) for d in seen)


class TestStationary:
    def test_catalan_fixed_point(self):
        # phi = t + phi**2 has the Catalan numbers as its t-coefficients
        t = t_series(6, (0,))
        phi = stationary(lambda s: t + s * s, MultiSeries.zero(G1, 6, (0,)))
        assert [phi.coeff(k, (0,)) for k in range(7)] == \
            [RatFunc(c) for c in (0, 1, 1, 2, 5, 14, 42)]

    def test_never_settling_step_raises(self):
        one = MultiSeries.const(G1, 3, (2,), RF_ONE)
        with pytest.raises(RuntimeError, match="stationary"):
            stationary(lambda s: s + one, MultiSeries.zero(G1, 3, (2,)))
