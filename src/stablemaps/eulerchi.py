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
X = n z / (1 - z).  As in the solver, only the t = 0 slice is solved from
the equation itself, order by order (each new total order is determined
linearly with an invertible constant).  Differentiating it in t gives the
universal differential equation at u = 1,

    (1 - phi) phi_t = 2 phi + t,

and everything around the two equations is the solver's own code at u = 1:
the t-layers (t_layers), the chi-potential chi(W) * closed_form(phi, 1) =
chi(W) * (-phi**2/4 + phi/2 - t**2/4), and its k!-scaled cells
(extract_classes).  chi_agrees confirms that those cells equal the exact
solver classes evaluated at u = 1.
Because both sides of that comparison now build their t-layers from the
same code, chi_agrees first requires the residual of the logarithmic
equation over the whole box (verify_log_equation) to vanish; that residual
uses nothing from the differential equation, so it is the independent
check on the layers.

With adams=True (see stablemaps.solver) the same limit runs on the
effective map series E * A: X is read off E * A instead of E, and the
chi-potential gains the solver's adams_term P_W u/(2(u+1)) psi_2(R0) at
t**0, evaluated at u = 1, where psi_2(R0) has no pole.

Series here have constant rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .qfield import RF_ONE, RatFunc
from .series import MultiSeries, box_vectors, series_log1p, stationary
from .solver import (ClassTable, adams_factor, adams_term, closed_form, extract_classes,
                     potential, solve_phi0, t_layers)
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


def _log_step(w: TargetSpace, kmax: int, dmax, xs=None):
    """The map phi -> phi + F(phi) on the box, with

        F(phi) = (1+t+phi) log(1+t+phi) - 2 phi - t + X (1+t+phi);

    its fixed points are the solutions of the logarithmic equation and its
    value minus phi is the residual.  X is xseries(w, dmax) unless given."""
    if xs is None:
        xs = xseries(w, dmax)
    xs = MultiSeries(w.grading, kmax, dmax, xs.coeffs)
    one = MultiSeries.const(w.grading, kmax, dmax, RF_ONE)
    t_ser = MultiSeries.t_power(w.grading, kmax, dmax, 1)

    def step(phi):
        g = t_ser + phi
        return (one + g) * series_log1p(g) - phi - t_ser + xs * (one + g)
    return step


def _log_fixed_point(w: TargetSpace, kmax: int, dmax, xs=None) -> MultiSeries:
    """Stationary iteration of _log_step on any box, from zero.  The
    phi-derivative of phi + F(phi) is log(1+t+phi) + X, which vanishes at
    the origin, so each pass determines exactly one more total order; this
    is the order-by-order linear solve in iterated form."""
    phi = stationary(_log_step(w, kmax, dmax, xs), MultiSeries.zero(w.grading, kmax, dmax))
    if not is_constant_series(phi):
        raise RuntimeError("Euler-limit solution left the constant field")
    return phi


def solve_phi0_chi(w: TargetSpace, kmax: int, dmax=None, xs=None) -> MultiSeries:
    """Unique zero-constant-term solution of the Euler-limit equation,
    exact over Q within the truncation box.

    Only the t = 0 slice is found by the fixed point of the logarithmic
    equation (_log_fixed_point on the z-box); the t-layers come from the
    universal differential equation at u = 1, (1 - phi) phi_t = 2 phi + t,
    which follows from the logarithmic equation by differentiating in t
    (solver.t_layers with u = 1).  verify_log_equation re-checks the result
    on the whole box without that equation.
    """
    dmax = w.box(dmax, kmax)
    return t_layers(_log_fixed_point(w, 0, dmax, xs), kmax, RF_ONE)


def verify_log_equation(w: TargetSpace, phi: MultiSeries, xs: MultiSeries) -> MultiSeries:
    """Residual F(phi) of the logarithmic equation with driving series X =
    `xs` on the whole box of phi; the zero series exactly when phi solves
    it.  One full-box log(1+t+phi), and nothing from the
    differential equation that builds the t-layers of solve_phi0_chi."""
    step = _log_step(w, phi.kmax, phi.dmax, xs)
    return step(phi) - phi


def chi_potential(w: TargetSpace, phi0chi: MultiSeries) -> MultiSeries:
    """chi(W) * closed_form(phi) at u = 1, i.e. chi(W) * (-phi**2/4 + phi/2
    - t**2/4); k! times its coefficient of t**k z**beta is the Euler
    characteristic of the (k, beta) moduli space."""
    return closed_form(phi0chi, RF_ONE).scale(w.pw.eval(1))


def _euler_limit(w: TargetSpace, kmax: int, dmax, adams: bool, r0=None):
    """(phi, X, chi-potential) of the Euler limit on the box.  With
    adams=True, X is read off E * A(R0) and the chi-potential carries the
    solver's Adams term at u = 1; R0 is the t = 0 slice of the
    Adams-corrected solver fixed point, solved here unless given."""
    if adams and r0 is None:
        r0 = solve_phi0(w, 0, dmax, adams=True)
    xs = xseries(w, dmax, factor=adams_factor(r0) if adams else None)
    phi = solve_phi0_chi(w, kmax, dmax, xs=xs)
    pot = chi_potential(w, phi)
    if adams:
        corr = {key: RatFunc(c.eval_at(1)) for key, c in adams_term(w, r0).coeffs.items()}
        pot = pot + MultiSeries(w.grading, kmax, dmax, corr)
    return phi, xs, pot


def _at_one(table: ClassTable) -> dict:
    return {cell: p.eval(1) for cell, p in table.entries.items()}


def chi_table(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> dict:
    """Euler characteristics per cell, as exact rationals."""
    dmax = w.box(dmax, kmax)
    return _at_one(extract_classes(_euler_limit(w, kmax, dmax, adams)[2]))


def chi_agrees(w: TargetSpace, table: ClassTable, adams: bool = False,
               r0=None) -> bool:
    """The Euler-limit solution has zero log-equation residual on the
    table's box (verify_log_equation), and each class of the exact table
    evaluated at u = 1 equals the Euler-limit value of its cell.  With
    adams=True, `r0` must be the t = 0 slice of the Adams-corrected solver
    fixed point that produced the table; it is not solved again."""
    if adams and r0 is None:
        raise ValueError("chi_agrees with adams=True needs the solver's t = 0 slice r0")
    phi, xs, chi_pot = _euler_limit(w, table.kmax, table.dmax, adams, r0)
    if not verify_log_equation(w, phi, xs).is_zero:
        return False
    return _at_one(extract_classes(chi_pot)) == _at_one(table)


def crosscheck_chi(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> bool:
    """Run the exact solver and the Euler-limit pipeline at the same
    truncation and compare cell by cell (chi_agrees, which also requires
    the full-box log-equation residual to vanish)."""
    dmax = w.box(dmax, kmax)
    phi0 = solve_phi0(w, kmax, dmax, adams=adams)
    table = extract_classes(potential(w, phi0, adams=adams), w)
    return chi_agrees(w, table, adams=adams, r0=phi0.truncate(kmax=0) if adams else None)
