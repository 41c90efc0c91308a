"""The u -> 1 specialization: Euler-characteristic generating functions.

Evaluating a class at u = 1 gives its virtual Euler characteristic, but the
functional equation cannot be specialized directly (its coefficients have
poles at u = 1); the limit turns the power (1+t+phi)**u into the
logarithmic equation

    (1 + t + phi) log(1 + t + phi) = 2 phi + t - X (1 + t + phi)

over Q[[t, z]], where the z-series X collects the first-order behaviour of
the map-space classes at u = 1:

    X = sum_{beta != 0} d/du ( [Map_beta] / P_W ) |_{u=1} * z**beta.

For the builtin projective target every coefficient of X equals n, i.e.
X = n z / (1 - z).  The equation is solved order by order (each new total
order is determined linearly with an invertible constant), the chi-potential
is chi(W) * (-phi**2/4 + phi/2 - t**2/4), and chi_agrees confirms that
k! times its coefficients equal the exact solver classes evaluated at u = 1.

With adams=True (see stablemaps.solver) the same limit runs on the
effective map series E * A: X is read off E * A instead of E, and the
chi-potential gains chi(W)/4 * psi_2(R0)|_{u=1} at t**0, the u -> 1 value
of the solver's P_W u/(2(u+1)) psi_2(R0); psi_2(R0) has no pole at u = 1.

Series here have constant rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .qfield import RF_ONE, RatFunc
from .series import MultiSeries, box_vectors, series_adams, series_log1p, stationary
from .solver import ClassTable, adams_slice, extract_classes, potential, solve_phi0
from .target import TargetSpace, eisenstein_series


def is_constant_series(s: MultiSeries) -> bool:
    return all(c.num.degree <= 0 and c.den.degree <= 0 for c in s.coeffs.values())


def xseries(w: TargetSpace, dmax=None, factor=None) -> MultiSeries:
    """The z-series X driving the Euler-limit equation.

    Each z**beta coefficient, beta != 0, is the first-order Taylor
    coefficient of [Map_beta] / P_W at u = 1 (the value there is 0, so this
    is the actual limit of ([Map_beta]/P_W) / (u - 1)); the beta = 0 term
    vanishes because constant maps contribute the target class itself.
    `factor`, a z-series equal to 1 at u = 1 such as the Adams factor A,
    replaces [Map_beta] by the coefficients of E * factor.
    """
    dmax = w.box(dmax)
    eff = eisenstein_series(w, dmax)
    if factor is not None:
        eff = eff * factor
    inv_pw = RatFunc(1) / RatFunc(w.pw)
    coeffs = {}
    for beta in box_vectors(dmax):
        if all(b == 0 for b in beta):
            continue
        ratio = eff.coeff(0, beta) * inv_pw
        c = ratio.expand_at_one(1)[1]
        coeffs[(0, beta)] = RatFunc(Fraction(c))
    return MultiSeries(w.grading, 0, dmax, coeffs)


def solve_phi0_chi(w: TargetSpace, kmax: int, dmax=None, xs=None) -> MultiSeries:
    """Unique zero-constant-term solution of the Euler-limit equation,
    exact over Q within the truncation box.

    Writing F(phi) for (1+t+phi)log(1+t+phi) - 2 phi - t + X (1+t+phi), the
    update phi <- phi + F(phi) has phi-derivative log(1+t+phi) + X, which
    vanishes at the origin, so each pass determines exactly one more total
    order; this is the order-by-order linear solve in iterated form.
    """
    dmax = w.box(dmax, kmax)
    grading = w.grading
    if xs is None:
        xs = xseries(w, dmax)
    xs = MultiSeries(grading, kmax, dmax, xs.coeffs)
    one = MultiSeries.const(grading, kmax, dmax, RF_ONE)
    t_ser = MultiSeries.t_power(grading, kmax, dmax, 1)

    def step(phi):  # phi + F(phi)
        g = t_ser + phi
        return (one + g) * series_log1p(g) - phi - t_ser + xs * (one + g)

    phi = stationary(step, MultiSeries.zero(grading, kmax, dmax))
    if not is_constant_series(phi):
        raise RuntimeError("Euler-limit solution left the constant field")
    return phi


def chi_potential(w: TargetSpace, phi0chi: MultiSeries) -> MultiSeries:
    """chi(W) * (-phi**2/4 + phi/2 - t**2/4); k! times its coefficient of
    t**k z**beta is the Euler characteristic of the (k, beta) moduli space."""
    kmax, dmax = phi0chi.kmax, phi0chi.dmax
    chi_w = w.pw.eval(1)
    quad = (phi0chi * phi0chi).scale(Fraction(-1, 4))
    lin = phi0chi.scale(Fraction(1, 2))
    t2 = MultiSeries.t_power(w.grading, kmax, dmax, 2).scale(Fraction(1, 4))
    return (quad + lin - t2).scale(chi_w)


def _chi_potential_of(w: TargetSpace, kmax: int, dmax, adams: bool) -> MultiSeries:
    if not adams:
        return chi_potential(w, solve_phi0_chi(w, kmax, dmax))
    r0, a = adams_slice(w, dmax)
    pot = chi_potential(w, solve_phi0_chi(w, kmax, dmax, xs=xseries(w, dmax, factor=a)))
    scale = Fraction(w.pw.eval(1), 4)
    corr = {key: RatFunc(c.eval_at(1) * scale)
            for key, c in series_adams(r0, 2).coeffs.items()}
    return pot + MultiSeries(w.grading, kmax, dmax, corr)


def chi_table(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> dict:
    """Euler characteristics per cell, as exact rationals."""
    dmax = w.box(dmax, kmax)
    chi_pot = _chi_potential_of(w, kmax, dmax, adams)
    out = {}
    for key in box_vectors((kmax,) + dmax):
        k, d = key[0], key[1:]
        value = chi_pot.coeff(k, d) * factorial(k)
        out[(k, d)] = value.eval_at(0)  # coefficients are constants
    return out


def chi_agrees(w: TargetSpace, table: ClassTable, adams: bool = False) -> bool:
    """Each class of the exact table evaluated at u = 1 equals the
    Euler-limit value of its cell on the table's box."""
    exact = {cell: p.eval(1) for cell, p in table.entries.items()}
    return chi_table(w, table.kmax, table.dmax, adams=adams) == exact


def crosscheck_chi(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> bool:
    """Run the exact solver and the Euler-limit pipeline at the same
    truncation and compare cell by cell (chi_agrees)."""
    dmax = w.box(dmax, kmax)
    table = extract_classes(
        potential(w, solve_phi0(w, kmax, dmax, adams=adams), adams=adams), w)
    return chi_agrees(w, table, adams=adams)
