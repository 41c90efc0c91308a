"""Closed-form route: fixed point of the functional equation, the potential,
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
closed_form and t_layers take u as a parameter: the Euler limit in
stablemaps.eulerchi calls them, and extract_classes, at u = 1.

Because phi0 solves (*) it also solves the universal differential equation
(below), and solve_phi0 uses that split.  Only the z-only t = 0 slice
R0 = phi0|_{t=0} is found by the fixed point, of the rearrangement

    phi  <-  E(W,z)*(1+t+phi)**u / (u(u-1) P_W) - (phi + t)/(u-1) - 1/(u(u-1))

at t = 0, whose phi-derivative ((1+t+phi)**(u-1) - 1)/(u-1) vanishes at the
origin, so every pass is exact to one more z-order and the iteration is
stationary after as many passes as the slice has total orders.  (Moving the
phi u/(u-1) term to the left instead leaves a phi-linear factor 1/u on the
right, which contracts only u-adically and never becomes stationary.)  Each
further t-layer phi_{k+1}, the t**(k+1) coefficient of phi0, is a z-only
series solved from the t**k coefficient of the differential equation, with
(1 - u R0) inverted once.  The same iteration runs on any box, which is how
the tests compare the two.

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

and Phi gains P_W * u/(2(u+1)) * psi_2(R0) at t**0.  Since psi_k R0 at
z-order n only sees R0 below order n, the same stationary iteration on the
t = 0 slice finds R0 with A recomputed from each iterate.  A does not depend
on t, so the differential equation, the t-layers built from it, and the
derivative identity below hold in both modes.

The verification operations re-check the solution against everything the
closed form implies: the residual of (*) itself over the whole box, one
full-box power independent of how the t-layers were built; the universal
differential equation

    (1 - u*phi0) phi0_t = (u+1) phi0 + t,      equivalently, with
    psi = phi0 + t:   (1 + u t - u psi) psi_t = 1 + psi,

the derivative identity d/dt (Phi / P_W) = phi0, which the potential meets
by construction, and therefore the closed form itself with one full-box
square (verify_quadratic); the expansion of the formal potential whose
critical point phi0 is (coefficient comparison in an auxiliary variable),
and a floating-point check of the implicit closed-form
solution of the differential equation, whose integration constant must
depend on z only.  All checks except the last are exact in Q(u).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from .qfield import (LINE_CLASS, MOEBIUS_CLASS, P_ONE, RF_ONE, RF_U, RatFunc,
                     U, UPoly, binom_falling, necklace)
from .series import (MultiSeries, box_vectors, series_adams, series_dt,
                     series_pow_binomial, stationary)
from .target import TargetSpace, eisenstein_series, nclass

_INV_UM1 = RatFunc(P_ONE, UPoly((-1, 1)))      # 1/(u-1)
_INV_UUM1 = RatFunc(P_ONE, UPoly((0, -1, 1)))  # 1/(u(u-1))


def _lifted_eisenstein(w: TargetSpace, kmax: int, dmax) -> MultiSeries:
    e = eisenstein_series(w, dmax)
    return MultiSeries(w.grading, kmax, dmax, e.coeffs)


def _rearranged(w: TargetSpace, kmax: int, dmax, factor=None):
    """The map whose fixed points on the box are the roots of (*):

        phi -> E * F * (1+t+phi)**u / (u(u-1)P_W) - (phi + t)/(u-1) - 1/(u(u-1)),

    where F = factor(phi) is a z-series multiplying E, or 1 when no factor
    is given.  Its value minus phi is the residual of (*)."""
    prefactor = RatFunc(P_ONE, U * UPoly((-1, 1)) * w.pw)  # 1/(u(u-1)P_W)
    scaled_e = _lifted_eisenstein(w, kmax, dmax).scale(prefactor)
    t_ser = MultiSeries.t_power(w.grading, kmax, dmax, 1)
    const = MultiSeries.const(w.grading, kmax, dmax, _INV_UUM1)

    def step(phi):
        e = scaled_e if factor is None else scaled_e * factor(phi)
        power = series_pow_binomial(t_ser + phi, RF_U)
        return e * power - (phi + t_ser).scale(_INV_UM1) - const
    return step


def _fixed_point(w: TargetSpace, kmax: int, dmax, phi, factor=None) -> MultiSeries:
    """Stationary iteration of the rearrangement of (*) on any box, from
    the starting series phi on that box; `factor` is as in _rearranged."""
    phi = stationary(_rearranged(w, kmax, dmax, factor), phi)
    if not phi.constant_term.is_zero:
        raise RuntimeError("fixed point has a nonzero constant term")
    return phi


def adams_factor(r0: MultiSeries) -> MultiSeries:
    """A = prod_{k=2}^{|dmax|} (1 + psi_k r0)**M_k on the box of r0; only
    the t = 0 slice of r0 enters, since psi_k sends t to 0."""
    a = MultiSeries.const(r0.grading, r0.kmax, r0.dmax, RF_ONE)
    for k in range(2, sum(r0.dmax) + 1):
        a = a * series_pow_binomial(series_adams(r0, k), RatFunc(necklace(k)))
    return a


def t_layers(r0: MultiSeries, kmax: int, u=RF_U) -> MultiSeries:
    """phi0 = sum_k phi_k t**k on the box (kmax, dmax of R0), from its t = 0
    slice phi_0 = R0 and the universal differential equation; r0 itself
    when kmax is 0.  The t**k coefficient of that equation

        (k+1)(1 - u R0) phi_{k+1}
            = (u+1) phi_k + [k=1] + u sum_{i=1}^{k} (k-i+1) phi_i phi_{k-i+1}

    has a sum whose terms i and k+1-i add up to (k+1) phi_i phi_{k+1-i}, so

        phi_{k+1} = (1 - u R0)**-1 * ( ((u+1) phi_k + [k=1]) / (k+1)
                                       + u/2 sum_{i=1}^{k} phi_i phi_{k+1-i} ),

    which takes one product per unordered pair {i, k+1-i}.  `u` is the
    variable by default; the Euler limit passes the constant 1, where the
    equation reads (1 - phi0) phi0_t = 2 phi0 + t."""
    if not kmax:
        return r0
    inv = series_pow_binomial(r0.scale(-u), -1)  # 1/(1 - u R0)
    one = MultiSeries.const(r0.grading, 0, r0.dmax, RF_ONE)
    half_u = u * Fraction(1, 2)
    layers = [r0]
    for k in range(kmax):
        pairs = MultiSeries.zero(r0.grading, 0, r0.dmax)
        for i in range(1, (k + 1) // 2 + 1):
            prod = layers[i] * layers[k + 1 - i]
            pairs = pairs + (prod if 2 * i == k + 1 else prod.scale(2))
        lin = layers[k].scale(u + 1)
        if k == 1:
            lin = lin + one
        layers.append(inv * (lin.scale(Fraction(1, k + 1)) + pairs.scale(half_u)))
    coeffs = {(k, d): c for k, layer in enumerate(layers)
              for (_, d), c in layer.coeffs.items()}
    return MultiSeries(r0.grading, kmax, r0.dmax, coeffs)


def solve_phi0(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> MultiSeries:
    """Unique zero-constant-term root of the functional equation (*), exact
    within the truncation box; with adams=True, of (*) with E replaced by
    E * A (see the module docstring).  Only the t = 0 slice R0 is found by
    the fixed point of (*); the t-layers come from the universal
    differential equation (t_layers)."""
    dmax = w.box(dmax, kmax)
    r0 = _fixed_point(w, 0, dmax, MultiSeries.zero(w.grading, 0, dmax),
                      factor=adams_factor if adams else None)
    return t_layers(r0, kmax)


def _quadratic(phi: MultiSeries, u) -> MultiSeries:
    """-u/(2(u+1)) phi**2 + phi/(u+1) - t**2/(2(u+1)) on the box of phi."""
    two_up1 = (u + 1) * 2
    t2 = MultiSeries.t_power(phi.grading, phi.kmax, phi.dmax, 2)
    return (phi * phi).scale(-u / two_up1) + phi.scale(1 / (u + 1)) - t2.scale(1 / two_up1)


def closed_form(phi: MultiSeries, u=RF_U) -> MultiSeries:
    """-u/(2(u+1)) phi**2 + phi/(u+1) - t**2/(2(u+1)) on the box of phi: the
    potential over P_W.  `u` is the variable by default; the Euler limit
    passes the constant 1.

    Only the t = 0 slice R0 is evaluated by the formula, where the t**2
    term vanishes and the square is z-only: -u/(2(u+1)) R0**2 + R0/(u+1).
    Every further cell is integrated in t, (k+1, d) <- phi[k, d] / (k+1).
    That is exact whenever (1 - u phi) phi_t = (u+1) phi + t holds, since
    the t-derivative of the quadratic is ((1 - u phi) phi_t - t)/(u+1) = phi;
    t_layers builds every phi it is given here so that it does, for both
    callers.  verify_quadratic evaluates the formula on the whole box."""
    quad = _quadratic(phi.truncate(kmax=0), u)
    coeffs = dict(quad.coeffs)
    for (k, d), c in phi.coeffs.items():
        if k < phi.kmax:
            coeffs[(k + 1, d)] = c * Fraction(1, k + 1)
    return MultiSeries._new(phi.grading, phi.kmax, phi.dmax, coeffs)


def adams_term(w: TargetSpace, r0: MultiSeries) -> MultiSeries:
    """P_W * u/(2(u+1)) * psi_2(R0), the term the Adams operations add to the
    potential, on the box of r0; only its t = 0 slice R0 enters."""
    return series_adams(r0, 2).scale(RatFunc(U * w.pw, LINE_CLASS.scale(2)))


def potential(w: TargetSpace, phi0: MultiSeries, adams: bool = False) -> MultiSeries:
    """Phi = P_W * closed_form(phi0), plus adams_term(w, phi0) with adams=True."""
    pot = closed_form(phi0).scale(RatFunc(w.pw))
    return pot + adams_term(w, phi0) if adams else pot


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

    def to_json(self) -> str:
        rows = []
        for (k, d) in self.cells():
            p = self.entries[(k, d)]
            rows.append({
                "k": k,
                "beta": list(d),
                "class_u": p.to_json(),
                "class_q": [str(c) for c in p.q_coeffs()],
                "chi": str(p.eval(1)),
            })
        obj = {"target": self.target_name, "kmax": self.kmax,
               "dmax": list(self.dmax), "entries": rows}
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ClassTable":
        data = json.loads(text)
        entries = {}
        for row in data["entries"]:
            entries[(row["k"], tuple(row["beta"]))] = UPoly.from_json(row["class_u"])
        return cls(data["target"], data["kmax"], tuple(data["dmax"]), entries)

    def to_csv(self) -> str:
        lines = ['"k","beta","class_u","class_q","chi"']
        for (k, d) in self.cells():
            p = self.entries[(k, d)]
            beta = ",".join(str(x) for x in d)
            cu = ",".join(str(c) for c in p.coeffs)
            cq = ",".join(str(c) for c in p.q_coeffs())
            lines.append(f'"{k}","{beta}","{cu}","{cq}","{p.eval(1)}"')
        return "\n".join(lines) + "\n"


def extract_classes(pot: MultiSeries, w: TargetSpace = None) -> ClassTable:
    """Read off k! times each potential coefficient and certify it is a
    polynomial in u; a surviving denominator is an error, never silently
    accepted."""
    entries = {}
    for key in box_vectors((pot.kmax,) + pot.dmax):
        k, d = key[0], key[1:]
        value = pot.coeff(k, d) * factorial(k)
        if not value.is_polynomial:
            raise ValueError(f"non-polynomial class at (k={k}, beta={d}): {value}")
        entries[(k, d)] = value.as_upoly()
    name = w.name if w is not None else ""
    return ClassTable(name, pot.kmax, pot.dmax, entries)


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
    """Residual of (*) on the whole box of phi0, with E * A(phi0|_{t=0}) in
    place of E when adams=True; the zero series exactly when phi0 solves it.
    One full-box (1+t+phi0)**u, and nothing from the differential equation
    that builds the t-layers of solve_phi0."""
    step = _rearranged(w, phi0.kmax, phi0.dmax, adams_factor if adams else None)
    return step(phi0) - phi0


def verify_dt(pot: MultiSeries, phi0: MultiSeries, w: TargetSpace) -> bool:
    """d/dt of the reduced potential Phi / [W] must reproduce the fixed
    point exactly."""
    lhs = series_dt(pot).scale(RatFunc(P_ONE, w.pw))
    return lhs == phi0.truncate(kmax=phi0.kmax - 1)


def verify_quadratic(w: TargetSpace, phi0: MultiSeries, pot: MultiSeries,
                     adams: bool = False) -> MultiSeries:
    """Residual of the closed form on the whole box of phi0:
    P_W (-u/(2(u+1)) phi0**2 + phi0/(u+1) - t**2/(2(u+1))), plus
    adams_term(w, phi0) when adams=True, minus pot.  One full-box square,
    independent of the t-integration by which closed_form builds the
    t-layers; the zero series exactly when pot is the closed form."""
    res = _quadratic(phi0, RF_U).scale(RatFunc(w.pw)) - pot
    return res + adams_term(w, phi0) if adams else res


def _epsilon_correction(w: TargetSpace, n: int, kmax: int, dmax) -> MultiSeries:
    """Unstable-term correction subtracted from the n-th potential
    coefficient: sum_{k=0}^{2-n} N(W,0) t**k/k! C([P^1], n+k) (n+k)!;
    zero for n >= 3."""
    out = MultiSeries.zero(w.grading, kmax, dmax)
    if n >= 3:
        return out
    n0 = nclass(w, w.grading.zero)
    for k in range(0, 2 - n + 1):
        if k > kmax:
            break
        c = n0 * binom_falling(LINE_CLASS, n + k) * Fraction(factorial(n + k), factorial(k))
        out = out + MultiSeries.monomial(w.grading, kmax, dmax, k, w.grading.zero, c)
    return out


def verify_potential_expansion(w: TargetSpace, nmax: int, kmax: int, dmax=None) -> bool:
    """Compare the two expansions of the formal potential in an auxiliary
    variable phi, through phi-degree nmax.

    Route one builds each coefficient as the weighted double sum

        C_n = E/((u**3-u) P_W) * sum_k t**k/k! (n+k)! C([P^1], n+k)  -  eps_n

    (with the n = 2 coefficient also carrying the -1/2 from the quadratic
    term); route two reads the same coefficient off the closed form, where
    the phi-degree-n part of (1+t+phi)**(u+1) is C(u+1, n) (1+t)**(u+1-n)
    and the unstable corrections appear as explicit low-degree polynomials.
    Both must agree exactly, coefficient by coefficient.
    """
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    dmax = w.box(dmax, kmax)
    grading = w.grading
    scaled_e = _lifted_eisenstein(w, kmax, dmax).scale(
        RatFunc(P_ONE, MOEBIUS_CLASS * w.pw))
    t_ser = MultiSeries.t_power(grading, kmax, dmax, 1)
    um1 = UPoly((-1, 1))

    for n in range(nmax + 1):
        # route one: explicit k-sum
        ksum = MultiSeries.zero(grading, kmax, dmax)
        for k in range(kmax + 1):
            c = binom_falling(LINE_CLASS, n + k) * Fraction(factorial(n + k), factorial(k))
            ksum = ksum + MultiSeries.monomial(grading, kmax, dmax, k, grading.zero, c)
        c_n = scaled_e * ksum - _epsilon_correction(w, n, kmax, dmax)
        route_one = c_n.scale(Fraction(1, factorial(n)))
        if n == 2:
            route_one = route_one - MultiSeries.const(grading, kmax, dmax, Fraction(1, 2))

        # route two: closed form
        exponent = RatFunc(UPoly((1 - n, 1)))  # u + 1 - n
        route_two = scaled_e.scale(binom_falling(LINE_CLASS, n)) \
            * series_pow_binomial(t_ser, exponent)
        if n == 2:
            route_two = route_two - MultiSeries.const(
                grading, kmax, dmax, RatFunc(U, um1.scale(2)))
        elif n == 1:
            corr = MultiSeries.const(grading, kmax, dmax, _INV_UUM1) \
                + t_ser.scale(_INV_UM1)
            route_two = route_two - corr
        elif n == 0:
            corr = MultiSeries.const(
                grading, kmax, dmax, RatFunc(P_ONE, LINE_CLASS * U * um1)) \
                + t_ser.scale(_INV_UUM1) \
                + MultiSeries.t_power(grading, kmax, dmax, 2).scale(RatFunc(P_ONE, um1.scale(2)))
            route_two = route_two - corr

        if route_one != route_two:
            return False
    return True


def verify_implicit_numeric(w: TargetSpace, u_val, z_val, t_samples,
                            kmax: int = 12, dmax=None, phi0=None) -> float:
    """Float check of the implicit solution of the differential equation.

    With x = t + (u+1)/u, y = u*phi0 - 1 and s = y/x, the combination
    (s+1)**(1/(u-1)) * (s+u)**(u/(1-u)) / x is an integration constant: it
    may depend on z but not on t.  The fixed point is evaluated exactly at
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
