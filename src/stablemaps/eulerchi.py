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
effective map series E * A, A = prod_{k>=2} (1 + psi_k R0)**M_k, without
the solver's slice R0.  Every M_k with k >= 2 vanishes at u = 1, where its
derivative is M_k'(1) = phi(k)/k, Euler's totient over k; and R0 at u = 1
is the limit's own t = 0 slice R.  So A is 1 at u = 1 and

    d/du (E A / P_W) |_{u=1} = X + sum_{k=2}^{|dmax|} phi(k)/k psi_k(log(1 + R)),

which _log_step adds to X from the log(1 + t + phi) it already takes
(psi_k sends t to 0).  At z-order n the sum sees R only below order n/2,
so the iteration still settles one order per pass.  The chi-potential
is the solver's closed form at u = 1 in the same mode, so its square
phi**2 becomes phi**2 - psi_2(phi), which adds chi(W)/4 psi_2(R).

Series here have constant rational coefficients.
"""

from __future__ import annotations

from .qfield import RF_ONE, RatFunc, necklace
from .series import MultiSeries, box_vectors, series_adams, series_log1p, stationary
from .solver import ClassTable, closed_form, extract_classes, potential, solve_phi0, t_layers
from .target import TargetSpace, eisenstein_series


def is_constant_series(s: MultiSeries) -> bool:
    return all(c.num.degree <= 0 and c.den.degree <= 0 for c in s.coeffs.values())


def xseries(w: TargetSpace, dmax=None) -> MultiSeries:
    """The z-series X driving the Euler-limit equation.

    Each z**beta coefficient, beta != 0, is the derivative at u = 1 of the
    ratio [Map_beta] / P_W, which must vanish there: X is the limit of
    ([Map_beta]/P_W) / (u - 1).  With the ratio reduced to num/den that is
    num'(1)/den(1).  A ratio with a pole or a nonzero value at u = 1 has no
    such limit and raises ValueError naming beta.  The beta = 0 term
    vanishes because constant maps contribute the target class itself.
    """
    dmax = w.box(dmax)
    eff = eisenstein_series(w, dmax)
    inv_pw = RatFunc(1) / RatFunc(w.pw)
    coeffs = {}
    for beta in box_vectors(dmax):
        if all(b == 0 for b in beta):
            continue
        ratio = eff.coeff(0, beta) * inv_pw
        num1, den1 = ratio.num.eval(1), ratio.den.eval(1)
        if not den1:
            raise ValueError(f"[Map_beta]/[W] for beta {beta} has a pole at u = 1")
        if num1:
            raise ValueError(f"[Map_beta]/[W] for beta {beta} is {num1 / den1} at u = 1, "
                             f"not 0: the Euler limit needs it to vanish there")
        coeffs[(0, beta)] = RatFunc(ratio.num.derivative().eval(1) / den1)
    return MultiSeries(w.grading, 0, dmax, coeffs)


def _log_step(w: TargetSpace, kmax: int, dmax, adams: bool = False):
    """The map phi -> phi + F(phi) on the box, with

        F(phi) = (1+t+phi) log(1+t+phi) - 2 phi - t + X (1+t+phi);

    its fixed points are the solutions of the logarithmic equation and its
    value minus phi is the residual.  X is xseries(w, dmax), plus
    sum_{k>=2} phi(k)/k psi_k(log(1+t+phi)) with adams=True."""
    xs = MultiSeries(w.grading, kmax, dmax, xseries(w, dmax).coeffs)
    one = MultiSeries.const(w.grading, kmax, dmax, RF_ONE)
    t_ser = MultiSeries.t_power(w.grading, kmax, dmax, 1)
    weights = [(k, necklace(k).derivative().eval(1))
               for k in range(2, sum(dmax) + 1)] if adams else []

    def step(phi):
        g = t_ser + phi
        log = series_log1p(g)
        x = sum((series_adams(log, k).scale(c) for k, c in weights), xs)
        return (one + g) * (log + x) - phi - t_ser
    return step


def _log_fixed_point(w: TargetSpace, kmax: int, dmax, adams: bool = False) -> MultiSeries:
    """Stationary iteration of _log_step on any box, from zero.  The
    phi-derivative of phi + F(phi) is log(1+t+phi) + X, which vanishes at
    the origin, so each pass determines exactly one more total order; this
    is the order-by-order linear solve in iterated form."""
    phi = stationary(_log_step(w, kmax, dmax, adams), MultiSeries.zero(w.grading, kmax, dmax))
    if not is_constant_series(phi):
        raise RuntimeError("Euler-limit solution left the constant field")
    return phi


def solve_phi0_chi(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> MultiSeries:
    """Unique zero-constant-term solution of the Euler-limit equation,
    exact over Q within the truncation box; with adams=True, of the limit
    of E * A (see the module docstring).

    Only the t = 0 slice is found by the fixed point of the logarithmic
    equation (_log_fixed_point on the z-box); the t-layers come from the
    universal differential equation at u = 1, (1 - phi) phi_t = 2 phi + t,
    which follows from the logarithmic equation by differentiating in t
    (solver.t_layers with u = 1).  verify_log_equation re-checks the result
    on the whole box without that equation.
    """
    dmax = w.box(dmax, kmax)
    return t_layers(_log_fixed_point(w, 0, dmax, adams), kmax, RF_ONE)


def verify_log_equation(w: TargetSpace, phi: MultiSeries, adams: bool = False) -> MultiSeries:
    """Residual F(phi) of the logarithmic equation (with the Adams terms of
    X when adams=True) on the whole box of phi; the zero series exactly
    when phi solves it.  One full-box log(1+t+phi), and nothing from the
    differential equation that builds the t-layers of solve_phi0_chi."""
    step = _log_step(w, phi.kmax, phi.dmax, adams)
    return step(phi) - phi


def chi_potential(w: TargetSpace, phi0chi: MultiSeries, adams: bool = False,
                  kmax=None) -> MultiSeries:
    """chi(W) * closed_form(phi, 1, adams, kmax), the module docstring's
    formula, on the box with t-order kmax (phi's own unless given); k! times
    its coefficient of t**k z**beta is the Euler characteristic of the
    (k, beta) moduli space."""
    return closed_form(phi0chi, RF_ONE, adams, kmax).scale(w.pw.eval(1))


def _at_one(table: ClassTable) -> dict:
    return {cell: p.eval(1) for cell, p in table.entries.items()}


def _limit_chis(w: TargetSpace, phi: MultiSeries, adams: bool, kmax=None) -> dict:
    """Euler characteristics per cell of the chi-potential of phi."""
    return _at_one(extract_classes(chi_potential(w, phi, adams, kmax)))


def chi_table(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> dict:
    """Euler characteristics per cell, as exact rationals.  The chi-potential
    reads phi below t**kmax only, so the limit is solved one t-order short."""
    dmax = w.box(dmax, kmax)
    return _limit_chis(w, solve_phi0_chi(w, max(kmax - 1, 0), dmax, adams), adams, kmax)


def chi_agrees(w: TargetSpace, table: ClassTable, adams: bool = False) -> bool:
    """The Euler-limit solution has zero log-equation residual on the
    table's box (verify_log_equation), and each class of the exact table
    evaluated at u = 1 equals the Euler-limit value of its cell.  Nothing
    of the exact solve enters the limit, in either mode."""
    phi = solve_phi0_chi(w, table.kmax, table.dmax, adams)
    if not verify_log_equation(w, phi, adams).is_zero:
        return False
    return _limit_chis(w, phi, adams) == _at_one(table)


def crosscheck_chi(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> bool:
    """Run the exact solver and the Euler-limit pipeline at the same
    truncation and compare cell by cell (chi_agrees, which also requires
    the full-box log-equation residual to vanish)."""
    dmax = w.box(dmax, kmax)
    phi0 = solve_phi0(w, kmax, dmax, adams=adams)
    table = extract_classes(potential(w, phi0, adams=adams), w)
    return chi_agrees(w, table, adams=adams)
