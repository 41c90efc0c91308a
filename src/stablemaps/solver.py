"""Closed-form route: the root of the functional equation, the potential,
class extraction, and the exact identity checks.

The generating series Phi(t, z) of the moduli classes, with coefficient of
t**k z**beta equal to [Mbar_{0,k}(W, beta)] / k!, is obtained from the
unique zero-constant-term root phi0 of

    E(W,z) * (1 + t + phi)**u / (u(u-1) P_W)
        = phi * u/(u-1) + t/(u-1) + 1/(u(u-1))                      (*)

by the closed form

    Phi = P_W * ( -u/(2(u+1)) * phi0**2 + phi0/(u+1) - t**2/(2(u+1)) ).

closed_form (below) evaluates that formula only on the t = 0 slice, where
it is a z-only square, and builds every t-layer k >= 1 from the derivative
identity d/dt (Phi / P_W) = phi0 below, as phi0's layer k - 1 divided by k.
So the potential up to t**kmax reads phi0 only up to t**(kmax-1): the
class tables (the CLI's compute, and eulerchi.chi_table) solve phi0 one
t-order short, and so does the CLI's verify unless its ode, dt or fe
check, which read the top layer, is selected; then it solves the whole box
once.
closed_form, t_layers and class_table take u as a parameter: the Euler
limit in stablemaps.eulerchi calls them, and extract_classes, at u = 1.
The class tables need no potential series: the class
[Mbar_{0,k}(W, beta)] is k! times a cell of Phi, so class_table reads it
straight off phi0, as (k-1)! P_W phi0[k-1, beta] for k >= 1 and as P_W
times the t = 0 quadratic for k = 0, with extract_classes' certification
that each class is a polynomial.  potential and extract_classes stay for
the checks that read the potential.

Because phi0 solves (*) it also solves the universal differential equation
(below), and solve_phi0 uses that split.  Only the z-only t = 0 slice
R0 = phi0|_{t=0} is solved from (*), by _slice: one z-cell d != 0 at a time
by increasing total degree |d| (series.slice_cells), each sum_f below over
the splits (f, d - f) with 0 < f <= d.  At t = 0, (*) times u(u-1) reads
E H = P_W (u**2 R0 + 1), with H = (1 + R0)**u and E_0 = P_W.  Miller's
recurrence for powers of a series (Knuth, TAOCP vol. 2, 4.7),
|d| H_d = sum_f (u|f| - |d-f|) R0_f H_{d-f}, has the f = d term u |d| R0_d,
so H_d = u R0_d + H'_d with H'_d from lower cells, and each cell is one
division:  R0_d = (P_W H'_d + sum_f E_f H_{d-f}) / (u(u-1) P_W).  Each
further t-layer phi_k, the t**k coefficient of phi0, is a fixed polynomial
in x = R0 (1 - u R0)**-1, the same for every target and box: phi_k =
A_k(x) / k! with A_k in Z[u][x] (t_layers).  So the layers take one
integer table of the A_k, with no series, and on the series side
(1 - u R0) inverted once, the powers of x, and one sum of products.

With adams=False (the default) this is the specialisation of the
plethystic count at p_k = 0 for k >= 2: it divides each boundary stratum by
its automorphism group instead of taking the invariant part, so a class
with a multiple cover comes out with rational coefficients, e.g.
u**2 + u/2 + 1/2 for Mbar_{0,0}(P^1, 2), whose coarse space is P^2.  With
adams=True the Adams operations psi_k (u -> u**k, z**b -> z**(k b),
t -> 0) are put back and the classes are the Poincare polynomials of the
coarse spaces, u**2 + u + 1 in that example:

    E(W,z) in (*) becomes E(W,z) * A(z),
        A = prod_{k=2}^{|dmax|} (1 + psi_k R0)**M_k,
        M_k = (1/k) sum_{d | k} mu(k/d) u**d,   R0 = phi0|_{t=0},

and the square phi0**2 in the closed form becomes phi0**2 - psi_2(phi0).
_slice builds A beside R0, from l = log(1 + R0) and Lambda = log A =
sum_k M_k psi_k(l):

    |d| l_d = |d| R0_d - sum_{f<d} |d-f| l_{d-f} R0_f,
    Lambda_d = sum_{k>=2 dividing every component of d} M_k l_{d/k}(u -> u**k),
    |d| A_d = sum_f |f| Lambda_f A_{d-f}.

A_d needs l only at d/k, so E_f above becomes (E A)_f.  A does not depend
on t, so the differential equation, the t-layers built from it, and the
derivative identity below hold in both modes.

_slice runs these recurrences on int rows, fraction-free: with n = |d| and
m = |f|, cell d of every series is scaled by n!, rho_d = n! R0_d, eta_d =
n! H_d, and so on, and F = E A / D with D = u(u-1) P_W takes the place of
E, so that P_W / D = 1/(u(u-1)).  Since |f| n!/(|d| m! (n-m)!) =
C(n-1, m-1) and |d-f| n!/(|d| m! (n-m)!) = C(n-1, m), the recurrences read

    n! H'_d = sum_{f<d} (u C(n-1, m-1) - C(n-1, m)) rho_f eta_{d-f},
    rho_d = n! H'_d / (u(u-1)) + sum_f C(n, m) (m! F_f) eta_{d-f},
    eta_d = u rho_d + n! H'_d,
    n! l_d = rho_d - sum_{f<d} C(n-1, m) rho_f ((n-m)! l_{d-f}),
    n! Lambda_d = sum_k (kj)!/(k j!) (k M_k) psi_k(j! l_{d/k}),  j = n/k,
    n! A_d = sum_f C(n-1, m-1) (m! Lambda_f) ((n-m)! A_{d-f}),

and every weight is an int: the binomials, k M_k = sum_{e | k} mu(k/e) u**e,
and (kj)!/(k j!) = (kj-1)!/(j-1)!.  The denominators left are powers of
the bases psi_j(B), where B = u(u-1) p q is primitive, p and q being the
primitive int rows of P_W and of the lcm of the class denominators, and of
one int lam, 1 for P^n, that clears the rest of E / D: a cell is a row
over n! lam**n prod_j psi_j(B)**e_j, each division by D raises e_1, and
psi_k of a cell moves e_j to e_{jk}.  A base is divided out of a cell as
the cell comes up, for as long as it divides it exactly (int_poly_divexact;
for a primitive base that is divisibility in Q[u]), so the slice of P^n or
of P^1 x P^1, whose cells are polynomials, keeps no base and forms no
polynomial gcd, and a rational target carries only the base powers that
did not divide out.
The cells go over one denominator at the end and into a series reduced
once (MultiSeries.from_int_rows).

The verification operations re-check the solution against everything the
closed form implies: the residual of (*) over the whole box, one full-box
power sum that shares nothing with _slice or the t-layers; the universal
differential equation

    (1 - u*phi0) phi0_t = (u+1) phi0 + t,      equivalently, with
    psi = phi0 + t:   (1 + u t - u psi) psi_t = 1 + psi,

the derivative identity d/dt (Phi / P_W) = phi0, which the potential meets
by construction, and therefore the closed form itself with one full-box
square (verify_quadratic); the two expansions of the formal potential
whose critical point phi0 is, compared coefficient by coefficient in an
auxiliary variable with each route's t-series written from its cells
(verify_potential_expansion); and a floating-point check of the implicit
closed-form solution of the differential equation, whose integration
constant must depend on z only.  All checks except the last are exact in Q(u).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb, factorial, gcd, lcm

from .qfield import (LINE_CLASS, MOEBIUS_CLASS, P_ONE, RF_ONE, RF_U, RF_ZERO, RatFunc, UPoly,
                     binom_falling, int_poly_adams, int_poly_add, int_poly_divexact,
                     int_poly_mul, necklace, upoly_gcd)
from .series import (MultiSeries, box_vectors, series_adams, series_dt, series_pow_binomial,
                     slice_cells, t_layer_sums)
from .target import TargetSpace, eisenstein_series, nclass

_INV_UM1 = RatFunc(P_ONE, UPoly((-1, 1)))      # 1/(u-1)
_INV_UUM1 = RatFunc(P_ONE, UPoly((0, -1, 1)))  # 1/(u(u-1))
_INV_2UM1 = RatFunc(P_ONE, UPoly((-2, 2)))     # 1/(2(u-1))


def adams_factor(r0: MultiSeries) -> MultiSeries:
    """A = prod_{k=2}^{|dmax|} (1 + psi_k r0)**M_k on the box of r0 as binomial
    powers, the product form of the A that _slice builds from log(1 + R0);
    only the t = 0 slice of r0 enters, since psi_k sends t to 0."""
    a = MultiSeries.const(r0.grading, r0.kmax, r0.dmax, RF_ONE)
    for k in range(2, sum(r0.dmax) + 1):
        a = a * series_pow_binomial(series_adams(r0, k), RatFunc(necklace(k)))
    return a


class _Bases(dict):
    """{j: psi_j(B)} as int rows, each made on its first read from B = self[1]."""

    def __missing__(self, j: int) -> list:
        got = self[j] = int_poly_adams(self[1], j)
        return got


def _primitive(p: UPoly) -> list:
    """The int row of p over its content, with a positive lead."""
    g = gcd(*p.numer) if p.numer[-1] > 0 else -gcd(*p.numer)
    return [c // g for c in p.numer]


def _exps_sum(e1: tuple, e2: tuple) -> tuple:
    """The exponents, as the sorted (j, e) with e > 0, of the product of the
    denominators prod_j base_j**e with exponents e1 and e2."""
    if not e1 or not e2:
        return e1 or e2
    out = dict(e1)
    for j, x in e2:
        out[j] = out.get(j, 0) + x
    return tuple(sorted(out.items()))


def _divided_out(row, exps: tuple, bases: _Bases) -> tuple:
    """(row, exps) with each base of exps divided out of the row, as often
    as it divides the row exactly (int_poly_divexact) and exps allow."""
    if not exps or not row:
        return row, ()
    left = []
    for j, x in exps:
        while x:
            quot = int_poly_divexact(row, bases[j])
            if quot is None:
                break
            row, x = quot, x - 1
        if x:
            left.append((j, x))
    return row, tuple(left)


def _cell(terms, bases: _Bases) -> tuple:
    """(row, exps) of sum c x y over the terms (c, x, y), c an int row and
    x, y cells (row, exps) over one int scale: the products of equal
    exponents summed and what they can of their bases divided out, then,
    for more than one exponent, each lifted to the largest exponents, all
    summed and divided out once more."""
    groups = {}
    for c, (x, ex), (y, ey) in terms:
        if x and y:
            e = _exps_sum(ex, ey) if ex and ey else ex or ey
            row = int_poly_mul(int_poly_mul(c, x), y)
            prev = groups.get(e)
            groups[e] = row if prev is None else int_poly_add(prev, row)
    parts = [_divided_out(row, e, bases) if e else (row, e) for e, row in groups.items() if row]
    if len(parts) <= 1:
        return parts[0] if parts else ([], ())
    top = _top(e for _, e in parts)
    total = []
    for row, e in parts:
        total = int_poly_add(total, _lifted(row, e, top, bases))
    return _divided_out(total, tuple(sorted(top.items())), bases)


def _top(exps) -> dict:
    """{j: the largest e_j} over the exponents exps."""
    top = {}
    for e in exps:
        for j, x in e:
            top[j] = max(top.get(j, 0), x)
    return top


def _psi(cell: tuple, k: int) -> tuple:
    """psi_k of a (row, exps) cell: the row spread (u -> u**k), and the
    exponent of base_j moved to base_{jk} = psi_k(base_j)."""
    row, exps = cell
    return (int_poly_adams(row, k) if row else row), tuple((j * k, x) for j, x in exps)


def _lifted(row, exps: tuple, top: dict, bases: _Bases):
    """row times prod_j base_j**(top[j] - e_j): the numerator of the same
    value over prod_j base_j**top[j]."""
    have = dict(exps)
    for j, x in top.items():
        for _ in range(x - have.get(j, 0)):
            row = int_poly_mul(row, bases[j])
    return row


def _slice(w: TargetSpace, dmax, adams: bool) -> MultiSeries:
    """R0 = phi0|_{t=0} on the z-box dmax, cell by cell on int rows, scaled
    as the module docstring derives it.  Beside rho it keeps eta, h_lower
    (n! H'_d) and F = E A / D, and with adams=True the scaled l, Lambda and
    A.  Cell d of each is (row, exps), the value row / (n! lam**n prod_j
    base_j**e_j) with n = |d| and exps the (j, e_j) with e_j > 0."""
    cells = list(slice_cells(dmax))
    top = sum(dmax)
    classes = {d: w.map_class(d) for d, _ in cells}
    q = P_ONE
    for c in classes.values():
        if c.den != P_ONE:
            q = q * (c.den // upoly_gcd(q, c.den))
    p, qi = _primitive(w.pw), _primitive(q)
    bases = _Bases({1: int_poly_mul(int_poly_mul([0, -1, 1], p), qi)})
    inv_c, q_poly = Fraction(w.pw.denom * p[-1], w.pw.numer[-1]), UPoly(qi)
    g = {d: (c.num * (q_poly if c.den == P_ONE else q_poly // c.den)).scale(inv_c)
         for d, c in classes.items()}
    lam = lcm(*(x.denom for x in g.values()))
    scales = [factorial(n) * lam ** n for n in range(top + 1)]
    binom = [[comb(n, m) for m in range(n + 1)] for n in range(top + 1)]
    kmk = {k: necklace(k).scale(k).numer for k in range(2, top + 1)} if adams else {}
    one, first = (1,), ((1, 1),)
    unit, f0 = (one, ()), (int_poly_mul(p, qi), first)  # f0 = P_W / D = 1 / (u(u-1))
    fe = {d: _divided_out([x * (scales[sum(d)] // y.denom) for x in y.numer], first, bases)
          for d, y in g.items()}
    fa = dict(fe) if adams else fe
    r, h, a, lg, lam_log = {}, {w.grading.zero: unit}, {w.grading.zero: unit}, {}, {}
    for d, parts in cells:
        n, gd = sum(d), gcd(*d)
        inner = parts[:-1]  # the splits with 0 < f < d; parts adds f = d
        cn, cn1 = binom[n], binom[n - 1]
        if adams:
            lam_log[d] = _cell([([scales[n] // (k * scales[n // k]) * x for x in kmk[k]],
                                 _psi(lg[tuple(x // k for x in d)], k), unit)
                                for k in range(2, gd + 1) if gd % k == 0], bases)
            a[d] = _cell([((cn1[m - 1],), lam_log[x], a[y]) for x, y, m in parts], bases)
            fa[d] = _cell([(one, fe[d], unit), (one, f0, a[d])]
                          + [((cn[m],), fe[x], a[y]) for x, y, m in inner], bases)
        h_lower = _cell([((-cn1[m], cn1[m - 1]), r[x], h[y]) for x, y, m in inner], bases)
        r[d] = _cell([(one, f0, h_lower)] + [((cn[m],), fa[x], h[y]) for x, y, m in parts], bases)
        h[d] = _cell([((0, 1), r[d], unit), (one, h_lower, unit)], bases)
        if adams:
            lg[d] = _cell([(one, r[d], unit)] + [((-cn1[m],), r[x], lg[y]) for x, y, m in inner],
                          bases)
    den = _top(e for _, e in r.values())
    rows = {(0, d): _lifted(int_poly_mul((scales[top] // scales[sum(d)],), row), e, den, bases)
            for d, (row, e) in r.items() if row}
    return MultiSeries.from_int_rows(w.grading, 0, dmax, scales[top],
                                     _lifted([1], (), den, bases), rows)


def _x_table(big_u: int, kmax: int, degree: int) -> list:
    """[A_1, ..., A_kmax] at u = big_u, A_k as its x-coefficients A_k[j](big_u)
    for j up to min(2k-1, degree + kmax - k), so that each A_k is exact
    through x**degree (t_layers derives the recurrence).  Plain ints: with
    big_u = 2**bits each is the Kronecker image of an int row in u."""
    u1 = big_u + 1
    m = (1, big_u + u1 * u1, 2 * big_u * u1 * u1, big_u * big_u * u1 * u1)  # M(x)
    table = [[0, u1]]
    for k in range(1, kmax):
        a = table[-1]
        da = [j * c for j, c in enumerate(a)][1:]
        rows = []
        for j in range(min(2 * k + 1, degree + kmax - k - 1) + 1):
            n = big_u * (1 - k) * a[j] if j < len(a) else 0
            n += sum(m[i] * da[j - i] for i in range(min(j, 3) + 1) if j - i < len(da))
            rows.append(n // u1)
        table.append(rows)
    return table


def _layer_table(u: tuple, kmax: int, degree: int) -> list:
    """[A_1, ..., A_kmax] through x**degree, A_k as the list of its
    x-coefficients, each an int row in u, for u the int row (0, 1) (the
    variable) or (1,) (the Euler limit).  Every coefficient of A_k is a
    non-negative int, at most the value at u = 1 of its x-coefficient; so
    the table at u = 1 fixes the slot width of the packed table at u."""
    ones = _x_table(1, kmax, degree)
    if u == (1,):
        return [[[c] if c else [] for c in a[:degree + 1]] for a in ones]
    bits = max(c for a in ones for c in a).bit_length() + 1
    mask = (1 << bits) - 1
    return [[[(c >> i) & mask for i in range(0, c.bit_length(), bits)] for c in a[:degree + 1]]
            for a in _x_table(1 << bits, kmax, degree)]


def t_layers(r0: MultiSeries, kmax: int, u=RF_U) -> MultiSeries:
    """phi0 = sum_k phi_k t**k on the box (kmax, dmax of R0), from its t = 0
    slice phi_0 = R0 and the universal differential equation; r0 itself
    when kmax is 0.  `u` is the variable by default; the Euler limit passes
    the constant 1, where the equation reads (1 - phi0) phi0_t = 2 phi0 + t.

    Each layer is a fixed polynomial in x = R0 (1 - u R0)**-1: phi_k =
    A_k(x) / k!, with A_k in Z[u][x] of x-degree 2k - 1.  Since
    1/(1 - u R0) = 1 + u x, the t**k coefficient of the equation reads

        A_1 = (u+1) x,
        A_{k+1} = (1 + u x) ( (u+1) A_k + [k=1]
                              + u sum_{i=1}^{k} C(k, i) A_i A_{k+1-i} ).

    The table is built from a linear recurrence instead, with no product
    of two A_i.  The equation is homogeneous in T = t + (u+1)/u and
    P = phi0 - 1/u, so the scaling T d/dT + P d/dP maps solutions to
    solutions, and phi0, as a function of t and R0, satisfies
    T phi0_t - P = g(R0) d/dR0 phi0 with g read off at t = 0.  With
    d/dR0 = (1 + u x)**2 d/dx its t**k coefficient is, for k >= 1,

        (u+1) A_{k+1} = u (1 - k) A_k + M(x) A_k'(x),
        M(x) = u g (1 + u x)**2 = (1 + u x) + (u+1)**2 x (1 + u x)**2.

    Every coefficient of every A_k is a non-negative int, so _x_table runs
    this on ints, each x-coefficient packed at u = 2**bits.  x has no
    constant term, so only x**j with j <= degree = min(|dmax|, 2 kmax - 1)
    reach the box; A_k[j] reads A_{k-1} through x**(j+1), so A_k is kept
    through x**(degree + kmax - k).  On the series side, (1 - u R0) is
    inverted once, x takes one product and its powers degree - 1 more;
    then t_layer_sums writes every layer, and R0 at t**0, as int rows over
    one denominator, reduced once."""
    if r0.kmax:
        raise ValueError(f"t_layers grows phi0 from its t = 0 slice, not from t**{r0.kmax}")
    u_row = {RF_U: (0, 1), RF_ONE: (1,)}.get(u)
    if u_row is None:
        raise ValueError(f"t_layers takes u as the variable or the constant 1, not {u}")
    if not kmax:
        return r0
    inv = series_pow_binomial(r0.scale(-u), -1)  # 1/(1 - u R0)
    degree = min(sum(r0.dmax), 2 * kmax - 1)
    x = r0 * inv
    powers = [MultiSeries.const(r0.grading, 0, r0.dmax, RF_ONE), x]
    for _ in range(degree - 1):
        powers.append(powers[-1] * x)
    layers = [(1, {len(powers): [1]})]
    for k, a in enumerate(_layer_table(u_row, kmax, degree), 1):
        layers.append((factorial(k), {j: row for j, row in enumerate(a) if row}))
    return t_layer_sums(powers + [r0], layers)


def solve_phi0(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> MultiSeries:
    """Unique zero-constant-term root of the functional equation (*), exact
    within the truncation box; with adams=True, of (*) with E replaced by
    E * A (see the module docstring).  The t = 0 slice R0 comes from _slice,
    the t-layers from the universal differential equation (t_layers)."""
    dmax = w.box(dmax, kmax)
    return t_layers(_slice(w, dmax, adams), kmax)


def _quadratic(phi: MultiSeries, u, adams: bool) -> MultiSeries:
    """-u/(2(u+1)) sq + phi/(u+1) - t**2/(2(u+1)) on the box of phi, where the
    square sq is phi**2, or phi**2 - psi_2(phi) (t**0 only) with adams=True:
    2 phi - u sq - t**2 scaled once by 1/(2(u+1))."""
    t2 = MultiSeries.t_power(phi.grading, phi.kmax, phi.dmax, 2)
    sq = phi * phi - series_adams(phi, 2) if adams else phi * phi
    return (phi.scale(2) - sq.scale(u) - t2).scale(1 / ((u + 1) * 2))


def _read_order(phi: MultiSeries, kmax) -> int:
    """The box's t-order kmax, phi.kmax unless given, refused when phi stops
    short of t**(kmax-1), the highest layer the box reads."""
    kmax = phi.kmax if kmax is None else kmax
    if not 0 <= kmax <= phi.kmax + 1:
        raise ValueError(f"the box t**{kmax} needs phi through t**{kmax - 1}, "
                         f"not t**{phi.kmax}")
    return kmax


def closed_form(phi: MultiSeries, u=RF_U, adams: bool = False, kmax=None) -> MultiSeries:
    """-u/(2(u+1)) phi**2 + phi/(u+1) - t**2/(2(u+1)) on the box (kmax, dmax
    of phi), kmax being phi.kmax unless given, with the square phi**2 -
    psi_2(phi) when adams=True (_quadratic): the potential over P_W.  `u` is
    the variable by default; the Euler limit passes the constant 1.

    Only the t = 0 slice R0 is evaluated by the formula, where the t**2
    term vanishes and the square is z-only: -u/(2(u+1)) R0**2 + R0/(u+1).
    Every further cell is integrated in t, (k+1, d) <- phi[k, d] / (k+1).
    That is exact whenever (1 - u phi) phi_t = (u+1) phi + t holds, since
    the t-derivative of the quadratic is ((1 - u phi) phi_t - t)/(u+1) = phi;
    t_layers builds every phi it is given here so that it does, for both
    callers.  So the box kmax reads the layers of phi below t**kmax only,
    and phi may stop one t-order short of it.  verify_quadratic evaluates
    the formula on the whole box; class_table reads the classes, k! times
    these cells times P_W, off phi without building this series."""
    kmax = _read_order(phi, kmax)
    quad = _quadratic(phi.truncate(kmax=0), u, adams)
    coeffs = dict(quad.coeffs)
    for (k, d), c in phi.coeffs.items():
        if k < kmax:
            coeffs[(k + 1, d)] = c * Fraction(1, k + 1)
    return MultiSeries(phi.grading, kmax, phi.dmax, coeffs)


def potential(w: TargetSpace, phi0: MultiSeries, adams: bool = False,
              kmax=None) -> MultiSeries:
    """Phi = P_W * closed_form(phi0) in the same mode, on the box (kmax, dmax
    of phi0) with kmax phi0.kmax unless given; it reads phi0 below t**kmax
    only, so phi0 may stop at t**(kmax-1)."""
    return closed_form(phi0, adams=adams, kmax=kmax).scale(RatFunc(w.pw))


def indented_json(obj) -> str:
    """json.dumps(obj, indent=2) + "\n", without the stdlib's pure-Python
    encoder, which json.dumps falls back to whenever indent is set.  A tree
    of dicts with str keys, lists, strs and ints is written here, each str by
    the escaper json.dumps uses (encode_basestring_ascii) and each int by
    int.__repr__; any other value in it (a bool, None, a float, a tuple, a
    key that is not a str) hands the whole object to json.dumps."""
    try:
        return _indented(obj, "\n") + "\n"
    except TypeError:
        return json.dumps(obj, indent=2) + "\n"


def _indented(obj, nl: str) -> str:
    """obj as json.dumps(indent=2) writes it where nl, a newline and the
    enclosing indent, starts each line; TypeError for a value that is not a
    dict, list, str or int, or for a key that is not a str."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = nl + "  "
    if kind is list:
        if not obj:
            return "[]"
        items = [encode_basestring_ascii(x) if type(x) is str else _indented(x, inner)
                 for x in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict:
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(key) + ": "
                 + (encode_basestring_ascii(x) if type(x) is str else _indented(x, inner))
                 for key, x in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise TypeError(f"{kind.__name__} is left to json.dumps")


class ClassTable:
    """Moduli classes per (k, beta) cell: exact polynomials in u."""

    __slots__ = ("target_name", "kmax", "dmax", "entries")

    def __init__(self, target_name: str, kmax: int, dmax, entries):
        self.target_name = target_name
        self.kmax = kmax
        self.dmax = tuple(dmax)
        self.entries = {(k, tuple(d)): p for (k, d), p in entries.items()}

    def entry(self, k: int, beta=()) -> UPoly:
        return self.entries[(k, tuple(beta))]

    def cells(self):
        return sorted(self.entries)

    def __eq__(self, other):
        return (isinstance(other, ClassTable)
                and self.target_name == other.target_name
                and self.kmax == other.kmax and self.dmax == other.dmax
                and self.entries == other.entries)

    def _rows(self):
        """(k, beta, class_u, class_q, chi) per cell in order: the strings
        that to_json and to_csv both write, built once per cell from the
        integer numerators.  class_q, the coefficients of psi_2 of the class,
        is class_u with "0" between entries, since psi_2 only spreads the
        coefficients apart; chi, the value at u = 1, is their sum."""
        for k, d in self.cells():
            p = self.entries[(k, d)]
            cu = p.to_json()
            cq = ["0"] * (2 * len(cu) - 1)
            cq[::2] = cu
            yield k, d, cu, cq, str(Fraction(sum(p.numer), p.denom))

    def to_json(self) -> str:
        rows = [{"k": k, "beta": list(d), "class_u": cu, "class_q": cq, "chi": chi}
                for k, d, cu, cq, chi in self._rows()]
        obj = {"target": self.target_name, "kmax": self.kmax,
               "dmax": list(self.dmax), "entries": rows}
        return indented_json(obj)

    @classmethod
    def from_json(cls, text: str) -> "ClassTable":
        data = json.loads(text)
        entries = {}
        for row in data["entries"]:
            entries[(row["k"], tuple(row["beta"]))] = UPoly.from_json(row["class_u"])
        return cls(data["target"], data["kmax"], tuple(data["dmax"]), entries)

    def to_csv(self) -> str:
        lines = ['"k","beta","class_u","class_q","chi"']
        lines += [f'"{k}","{",".join(map(str, d))}","{",".join(cu)}","{",".join(cq)}","{chi}"'
                  for k, d, cu, cq, chi in self._rows()]
        return "\n".join(lines) + "\n"


def _polynomial_class(value: RatFunc, k: int, d) -> UPoly:
    """value, the class of the cell (k, d), as a UPoly; ValueError when it
    has a denominator."""
    if not value.is_polynomial:
        raise ValueError(f"non-polynomial class at (k={k}, beta={d}): {value}")
    return value.as_upoly()


def extract_classes(pot: MultiSeries, w: TargetSpace = None) -> ClassTable:
    """Read off k! times each potential coefficient and certify it is a
    polynomial in u; a surviving denominator is an error, never silently
    accepted."""
    entries = {}
    for key in box_vectors((pot.kmax,) + pot.dmax):
        k, d = key[0], key[1:]
        entries[(k, d)] = _polynomial_class(pot.coeff(k, d) * factorial(k), k, d)
    name = w.name if w is not None else ""
    return ClassTable(name, pot.kmax, pot.dmax, entries)


def class_table(w: TargetSpace, phi0: MultiSeries, adams: bool = False,
                kmax=None, u=RF_U) -> ClassTable:
    """extract_classes(potential(w, phi0, adams, kmax), w), read straight off
    phi0 without the potential series.  Since d/dt (Phi / P_W) = phi0, the
    class of a cell k >= 1 is (k-1)! P_W phi0[k-1, beta]; at k = 0 it is P_W
    times the t = 0 quadratic (_quadratic, with psi_2 when adams=True),
    scaled as a series, so on its int rows.  A polynomial cell of phi0 costs
    one UPoly product by (k-1)! P_W; only a cell with a denominator goes
    through RatFunc, and extract_classes' certification.  kmax is phi0.kmax
    unless given, and phi0 may stop one t-order short of it.  `u` is the
    variable by default; the Euler limit passes the constant 1 with its own
    phi, and reads its Euler characteristics as this table's values at 1."""
    kmax = _read_order(phi0, kmax)
    quad = _quadratic(phi0.truncate(kmax=0), u, adams).scale(w.pw).coeffs
    coeffs = phi0.coeffs
    scales = [P_ONE] + [w.pw.scale(factorial(k)) for k in range(kmax)]
    entries = {}
    for key in box_vectors((kmax,) + phi0.dmax):
        k, d = key[0], key[1:]
        c = coeffs.get((k - 1, d), RF_ZERO) if k else quad.get((0, d), RF_ZERO)
        if c.den == P_ONE:
            entries[(k, d)] = c.num * scales[k]
        else:
            entries[(k, d)] = _polynomial_class(c * RatFunc(scales[k]), k, d)
    return ClassTable(w.name, kmax, phi0.dmax, entries)


def verify_ode(phi0: MultiSeries):
    """Residuals of the two forms of the universal differential equation;
    both must be the zero series on the box with kmax lowered by one."""
    grading = phi0.grading
    kmax, dmax = phi0.kmax, phi0.dmax
    one = MultiSeries.const(grading, kmax, dmax, RF_ONE)
    t_ser = MultiSeries.t_power(grading, kmax, dmax, 1)
    dphi = series_dt(phi0)

    res_a = (one - phi0.scale(RF_U)) * dphi \
        - phi0.scale(RatFunc(LINE_CLASS)).truncate(kmax=kmax - 1) \
        - MultiSeries.t_power(grading, kmax - 1, dmax, 1)

    psi = phi0 + t_ser
    dpsi = series_dt(psi)
    res_b = (one + t_ser.scale(RF_U) - psi.scale(RF_U)) * dpsi \
        - one.truncate(kmax=kmax - 1) - psi.truncate(kmax=kmax - 1)
    return res_a, res_b


def verify_functional_equation(w: TargetSpace, phi0: MultiSeries,
                               adams: bool = False) -> MultiSeries:
    """Residual E A (1+t+phi0)**u / (u(u-1)P_W) - (u phi0 + t)/(u-1) - 1/(u(u-1))
    of (*) on the whole box of phi0, with A = adams_factor(phi0) if adams else
    1; zero exactly when phi0 solves (*).  One full-box power sum, and nothing
    of the recurrences of _slice or of the t-layers' differential equation."""
    kmax, dmax = phi0.kmax, phi0.dmax
    e = MultiSeries(w.grading, kmax, dmax, eisenstein_series(w, dmax).coeffs)
    e = e * adams_factor(phi0) if adams else e
    t_ser = MultiSeries.t_power(w.grading, kmax, dmax, 1)
    lhs = (e * series_pow_binomial(t_ser + phi0, RF_U)).scale(RatFunc(P_ONE, w.pw))
    one = MultiSeries.const(w.grading, kmax, dmax, RF_ONE)
    return (lhs - (phi0.scale(RF_U) + t_ser).scale(RF_U) - one).scale(_INV_UUM1)


def verify_dt(pot: MultiSeries, phi0: MultiSeries, w: TargetSpace) -> bool:
    """d/dt of the reduced potential Phi / [W] must reproduce phi0 exactly."""
    lhs = series_dt(pot).scale(RatFunc(P_ONE, w.pw))
    return lhs == phi0.truncate(kmax=phi0.kmax - 1)


def verify_quadratic(w: TargetSpace, phi0: MultiSeries, pot: MultiSeries,
                     adams: bool = False) -> MultiSeries:
    """Residual of the closed form on the whole box of phi0:
    P_W (-u/(2(u+1)) phi0**2 + phi0/(u+1) - t**2/(2(u+1))), with the square
    phi0**2 - psi_2(phi0) when adams=True, minus pot.  One full-box square,
    independent of the t-integration by which closed_form builds the
    t-layers; the zero series exactly when pot is the closed form."""
    return _quadratic(phi0, RF_U, adams).scale(RatFunc(w.pw)) - pot


# the t-cells of the unstable terms that route two subtracts at phi-degree
# n = 0, 1, 2 (none from n = 3 on); at n = 2 the -1/2 of the quadratic term
# is netted in, -u/(2(u-1)) + 1/2 = -1/(2(u-1))
_UNSTABLE = {0: (RatFunc(P_ONE, MOEBIUS_CLASS), _INV_UUM1, _INV_2UM1),
             1: (_INV_UUM1, _INV_UM1),
             2: (_INV_2UM1,)}


def verify_potential_expansion(w: TargetSpace, nmax: int, kmax: int, dmax=None) -> bool:
    """Compare the two expansions of the formal potential in an auxiliary
    variable phi, through phi-degree nmax, coefficient by coefficient.

    Route one is C_n / n! from the weighted k-sum S_n, each a t-series:

        C_n = E/((u**3-u) P_W) * S_n  -  N(W, 0) * (S_n through t**(2-n)),
        S_n = sum_k t**k/k! (n+k)! C([P^1], n+k).

    Route two reads the same coefficient off the closed form: the
    phi-degree-n part of (1+t+phi)**(u+1) is C(u+1, n) (1+t)**(u+1-n), the
    t-series with cells C(u+1-n, k), less the unstable terms (_UNSTABLE).
    """
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    dmax = w.box(dmax, kmax)
    zero = w.grading.zero

    def t_series(cells) -> MultiSeries:
        """sum_k cells[k] t**k on the box, the cells past t**kmax dropped."""
        return MultiSeries(w.grading, kmax, dmax,
                           {(k, zero): c for k, c in enumerate(cells[:kmax + 1])})

    scaled_e = MultiSeries(w.grading, kmax, dmax, eisenstein_series(w, dmax).coeffs).scale(
        RatFunc(P_ONE, MOEBIUS_CLASS * w.pw))
    n0 = nclass(w, zero)
    for n in range(nmax + 1):
        ksum = [binom_falling(LINE_CLASS, n + k) * Fraction(factorial(n + k), factorial(k))
                for k in range(kmax + 1)]
        eps = t_series(ksum[:max(3 - n, 0)]).scale(n0)
        route_one = (scaled_e * t_series(ksum) - eps).scale(Fraction(1, factorial(n)))
        exponent = RatFunc(UPoly((1 - n, 1)))  # u + 1 - n
        binomials = t_series([binom_falling(exponent, k) for k in range(kmax + 1)])
        route_two = (scaled_e.scale(binom_falling(LINE_CLASS, n)) * binomials
                     - t_series(_UNSTABLE.get(n, ())))
        if route_one != route_two:
            return False
    return True


def verify_implicit_numeric(w: TargetSpace, u_val, z_val, t_samples,
                            kmax: int = 12, dmax=None, phi0=None) -> float:
    """Float check of the implicit solution of the differential equation.

    With x = t + (u+1)/u, y = u*phi0 - 1 and s = y/x, the combination
    (s+1)**(1/(u-1)) * (s+u)**(u/(1-u)) / x is an integration constant: it
    may depend on z but not on t.  The root phi0 is evaluated exactly at
    rational (t, z) and fed through the fractional powers in double
    precision; the return value is the relative spread of the combination
    across the t-samples, which must be tiny when phi0 is correct.

    Advisory by design: the only floating-point numbers in the package are
    produced here.
    """
    u = Fraction(u_val)
    if u in (0, 1, -1):
        raise ValueError("u must avoid 0 and +-1")
    if phi0 is None:
        if dmax is None and w.grading.rank:
            dmax = (3,) * w.grading.rank
        phi0 = solve_phi0(w, kmax, dmax)
    if w.grading.rank:
        if z_val is None:
            raise ValueError("z value required for a graded target")
        zs = (tuple(Fraction(z) for z in z_val) if isinstance(z_val, (tuple, list))
              else (Fraction(z_val),) * w.grading.rank)
    else:
        zs = ()

    uf = float(u)
    exp1 = 1.0 / (uf - 1.0)
    exp2 = uf / (1.0 - uf)
    values = []
    for t_raw in t_samples:
        t = Fraction(t_raw)
        phi = Fraction(0)
        for (k, d), c in phi0.coeffs.items():
            term = c.eval_at(u) * t ** k
            for z_j, d_j in zip(zs, d):
                term *= z_j ** d_j
            phi += term
        x = t + (u + 1) / u
        if x == 0:
            raise ValueError("branch")
        s = (u * phi - 1) / x
        base1 = s + 1
        base2 = s + u
        if base1 <= 0 or base2 <= 0:
            raise ValueError("branch")
        values.append(float(base1) ** exp1 * float(base2) ** exp2 / float(x))
    lo, hi = min(values), max(values)
    mean = sum(values) / len(values)
    if mean == 0:
        raise ValueError("degenerate samples")
    return (hi - lo) / abs(mean)
