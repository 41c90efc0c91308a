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
X = n z / (1 - z).  As in the solver, only the t = 0 slice R is solved
from the equation itself, by _log_slice, one z-cell d != 0 at a time in the
order of series.slice_cells.  At t = 0 the equation reads (1 + R)(l + X) =
2 R with l = log(1 + R), and with Miller's recurrence for the logarithm
each cell is explicit, sum_f running over the splits 0 < f < d:

    R_d = X_d + sum_f (X_f R_{d-f} + |f|/|d| R_f l_{d-f}),
    l_d = R_d - sum_f |d-f|/|d| l_{d-f} R_f.

Differentiating the equation in t gives the universal differential
equation at u = 1,

    (1 - phi) phi_t = 2 phi + t,

and everything around the two equations is the solver's own code at u = 1:
the t-layers (t_layers, from the table of the A_k at u = 1), and the
chi-potential chi(W) * closed_form(phi, 1) = chi(W) * (-phi**2/4 + phi/2 -
t**2/4), whose k!-scaled cells are the Euler characteristics.  chi_table
reads those straight off phi, as compute reads its classes (class_table
at u = 1, evaluated at 1), without the chi-potential series; chi_agrees
builds that series (extract_classes) and confirms that its cells equal
the exact solver classes evaluated at u = 1.
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

which verify_log_equation adds to X from the log(1 + t + phi) it already
takes (psi_k sends t to 0), and _log_slice to X_d from l at the lower cells
d/k.  The chi-potential is the solver's closed form at u = 1 in the same
mode, so its square phi**2 becomes phi**2 - psi_2(phi), which adds
chi(W)/4 psi_2(R).

Series here have constant rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .qfield import RF_ONE, RatFunc, necklace
from .series import MultiSeries, box_vectors, series_adams, series_log1p, slice_cells
from .solver import (ClassTable, class_table, closed_form, extract_classes, potential, solve_phi0,
                     t_layers)
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
    Built once per box and kept in the target's cache: the slice
    (_log_slice) and the residual that confirms it (verify_log_equation)
    both read it.
    """
    dmax = w.box(dmax)
    key = ("xseries", dmax)
    got = w._cache.get(key)
    if got is not None:
        return got
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
    got = w._cache[key] = MultiSeries(w.grading, 0, dmax, coeffs)
    return got


def _log_slice(w: TargetSpace, dmax, adams: bool = False) -> MultiSeries:
    """R = phi|_{t=0} on the z-box dmax, cell by cell as the module docstring
    derives it, beside lg = log(1 + R) and x = X, which gains the terms
    phi(k)/k psi_k(lg) of the Adams mode as each cell comes up."""
    xs = {d: c.eval_at(1) for (_, d), c in xseries(w, dmax).coeffs.items()}
    r, lg, x = {}, {}, {}
    for d, parts in slice_cells(dmax):
        n, inner, g = sum(d), parts[:-1], gcd(*d)
        x[d] = xs.get(d, 0) + sum(necklace(k).derivative().eval(1) * lg[tuple(i // k for i in d)]
                                  for k in range(2, g + 1) if adams and g % k == 0)
        r[d] = x[d] + Fraction(sum(n * x[f] * r[q] + m * r[f] * lg[q] for f, q, m in inner), n)
        lg[d] = r[d] - Fraction(sum((n - m) * lg[q] * r[f] for f, q, m in inner), n)
    return MultiSeries(w.grading, 0, dmax, {(0, d): c for d, c in r.items()})


def solve_phi0_chi(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> MultiSeries:
    """Unique zero-constant-term solution of the Euler-limit equation,
    exact over Q within the truncation box; with adams=True, of the limit
    of E * A (see the module docstring).

    Only the t = 0 slice is solved from the logarithmic equation, cell by
    cell (_log_slice), and confirmed by one residual on the z-box
    (verify_log_equation): a nonzero residual, or a slice that leaves the
    constant field, raises RuntimeError.  The t-layers come from the
    differential equation at u = 1 (solver.t_layers with u = 1).
    """
    dmax = w.box(dmax, kmax)
    r = _log_slice(w, dmax, adams)
    if not is_constant_series(r):
        raise RuntimeError("Euler-limit solution left the constant field")
    if not verify_log_equation(w, r, adams).is_zero:
        raise RuntimeError("Euler-limit slice fails the logarithmic equation")
    return t_layers(r, kmax, RF_ONE)


def verify_log_equation(w: TargetSpace, phi: MultiSeries, adams: bool = False) -> MultiSeries:
    """Residual F(phi) = (1+t+phi)(log(1+t+phi) + X) - 2 phi - t of the
    logarithmic equation on the whole box of phi, X being xseries(w, dmax)
    plus sum_{k>=2} phi(k)/k psi_k(log(1+t+phi)) when adams=True; the zero
    series exactly when phi solves it.  One full-box log(1+t+phi) and one
    product, and nothing of the slice recurrence or of the differential
    equation that build solve_phi0_chi."""
    kmax, dmax = phi.kmax, phi.dmax
    one = MultiSeries.const(w.grading, kmax, dmax, RF_ONE)
    t_ser = MultiSeries.t_power(w.grading, kmax, dmax, 1)
    g = t_ser + phi
    log = series_log1p(g)
    x = sum((series_adams(log, k).scale(necklace(k).derivative().eval(1))
             for k in range(2, sum(dmax) + 1) if adams),
            MultiSeries(w.grading, kmax, dmax, xseries(w, dmax).coeffs))
    return (one + g) * (log + x) - phi.scale(2) - t_ser


def chi_potential(w: TargetSpace, phi0chi: MultiSeries, adams: bool = False) -> MultiSeries:
    """chi(W) * closed_form(phi, 1, adams), the module docstring's formula,
    on the box of phi; k! times its coefficient of t**k z**beta is the
    Euler characteristic of the (k, beta) moduli space."""
    return closed_form(phi0chi, RF_ONE, adams).scale(w.pw.eval(1))


def _at_one(table: ClassTable) -> dict:
    return {cell: p.eval(1) for cell, p in table.entries.items()}


def _limit_chis(w: TargetSpace, phi: MultiSeries, adams: bool) -> dict:
    """Euler characteristics per cell of the chi-potential of phi."""
    return _at_one(extract_classes(chi_potential(w, phi, adams)))


def chi_table(w: TargetSpace, kmax: int, dmax=None, adams: bool = False) -> dict:
    """Euler characteristics per cell, as exact rationals: the solver's
    class_table at u = 1, read straight off phi as compute reads its table,
    evaluated at 1.  It reads phi below t**kmax only, so the limit is
    solved one t-order short."""
    dmax = w.box(dmax, kmax)
    phi = solve_phi0_chi(w, max(kmax - 1, 0), dmax, adams)
    return _at_one(class_table(w, phi, adams, kmax, u=RF_ONE))


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
