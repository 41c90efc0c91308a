"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Every check is exact unless stated otherwise; the numeric criterion uses the
stated relative-spread tolerance.  Fixtures are shared with the unit tests:
point target at kmax = 8, the line target at (kmax, dmax) = (5, 3), the
plane target at (4, 2); the line and plane boxes also with adams=True, whose
classes are the coarse-space Poincare polynomials.
"""

from collections import Counter
from fractions import Fraction
from math import factorial

from stablemaps.eulerchi import crosscheck_chi, xseries
from stablemaps.qfield import P_ONE, RatFunc, UPoly, is_palindromic
from stablemaps.solver import (extract_classes, potential, solve_phi0,
                               verify_dt, verify_implicit_numeric, verify_ode,
                               verify_potential_expansion)
from stablemaps.target import (count_maps_bruteforce, point_target,
                               projective_space, verify_recurrence)
from stablemaps.trees import enum_trees
from test_solver import gaussian_binomial
from test_trees import labelled_cell_sum


def report(number, ok, description):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    return ok


def test_criterion_1_solver_oracle_equivalence(point_run, p1_run, p2_run,
                                               p1_adams_run, p2_adams_run):
    ok = all(run["pot"] == run["oracle"] for run in (point_run, p1_run, p2_run))
    ok = ok and all(run["pot"] == run["oracle"] for run in (p1_adams_run, p2_adams_run))
    assert report(1, ok, "solver potential equals tree sum for point(8), "
                         "line(5,3), plane(4,2), exactly in Q(u); with the "
                         "Adams operations, equals the Burnside tree sum on "
                         "line(5,3), plane(4,2)")


def test_criterion_2_known_classes(point_run, p1_run, p2_run):
    table = point_run["table"]
    ok = (table.entry(3) == P_ONE
          and table.entry(4) == UPoly((1, 1))
          and table.entry(5) == UPoly((1, 5, 1)))
    ok = ok and p1_run["table"].entry(0, (1,)) == gaussian_binomial(2, 2)
    ok = ok and p1_run["table"].entry(0, (1,)) == P_ONE
    ok = ok and p2_run["table"].entry(0, (1,)) == gaussian_binomial(3, 2)
    w3 = projective_space(3)
    t3 = extract_classes(potential(w3, solve_phi0(w3, 0, (1,))), w3)
    ok = ok and t3.entry(0, (1,)) == gaussian_binomial(4, 2)
    assert report(2, ok, "known classes: point k=3,4,5; Grassmannian of "
                         "lines for n=1,2,3 (exact)")


def test_criterion_3_eisenstein_layer():
    ok = all(verify_recurrence(n, 4) for n in (1, 2, 3))
    for n in (1, 2):
        w = projective_space(n)
        for d in (1, 2):
            for p in (2, 3, 5):
                ok = ok and count_maps_bruteforce(n, d, p) == w.map_class((d,)).eval_at(p)
    assert report(3, ok, "degree recurrence n<=3, d<=4; finite-field counts "
                         "match closed form on {1,2}x{1,2}x{2,3,5}")


def test_criterion_4_ode_and_derivative(point_run, p1_run, p2_run):
    ok = True
    for run in (point_run, p1_run, p2_run):
        res_a, res_b = verify_ode(run["phi0"])
        ok = ok and res_a.is_zero and res_b.is_zero
        ok = ok and verify_dt(run["pot"], run["phi0"], run["w"])
    assert report(4, ok, "both differential-equation residuals vanish and "
                         "d/dt potential = fixed point (exact)")


def test_criterion_5_potential_expansion(point_run, p1_run, p2_run):
    ok = True
    for run in (point_run, p1_run, p2_run):
        ok = ok and verify_potential_expansion(
            run["w"], 4, run["kmax"], run["dmax"])
    assert report(5, ok, "formal-potential expansions agree through "
                         "phi-degree 4 on point, line, plane (exact)")


def test_criterion_6_euler_limit():
    ok = crosscheck_chi(projective_space(1), 4, (2,))
    ok = ok and crosscheck_chi(projective_space(2), 3, (2,))
    for n in (1, 2, 3):
        xs = xseries(projective_space(n), (4,))
        ok = ok and all(xs.coeff(0, (d,)) == RatFunc(n) for d in range(1, 5))
    assert report(6, ok, "u -> 1 limit matches exact classes; X series "
                         "coefficients equal n (exact)")


def test_criterion_7_structural_invariants(point_run, p1_run, p2_run,
                                            p1_adams_run, p2_adams_run):
    ok = True
    failures = []

    # unstable cells vanish
    for run in (point_run, p1_run, p2_run, p1_adams_run, p2_adams_run):
        zero = run["w"].grading.zero
        for k in (0, 1, 2):
            ok = ok and run["table"].entry(k, zero).is_zero

    # degree-zero cells factor as [W] x point-target class
    for run in (p1_run, p2_run, p1_adams_run, p2_adams_run):
        pw = run["w"].pw
        for k in range(run["kmax"] + 1):
            expected = point_run["table"].entry(k) * pw
            ok = ok and run["table"].entry(k, (0,)) == expected

    # every stable entry is a polynomial in u (extract_classes certifies
    # this) and palindromic with dim = (n+1)d + n + k - 3; the projective
    # targets are read with the Adams operations kept, as the Poincare
    # polynomial is the class of the coarse space
    for k in range(3, 9):
        if not is_palindromic(point_run["table"].entry(k), k - 3):
            failures.append(("point", k, ()))
    for run, n in ((p1_adams_run, 1), (p2_adams_run, 2)):
        for (k, d) in run["table"].cells():
            if (k, d[0]) in ((0, 0), (1, 0), (2, 0)):
                continue
            dim = (n + 1) * d[0] + n + k - 3
            if not is_palindromic(run["table"].entry(k, d), dim):
                failures.append((run["w"].name, k, d))

    ok = ok and not failures
    report(7, ok, "structural invariants: zero unstable cells, product "
                  "structure at degree 0, polynomiality, palindromicity"
                  + (f"; palindromicity fails at {failures}" if failures else ""))
    assert ok, ("palindromicity with dim = (n+1)d + n + k - 3 fails at "
                f"{failures}" if failures else
                "an unstable cell is nonzero or a degree-zero cell is not "
                "[W] times the point-target class")


def test_criterion_8_implicit_numeric():
    spread_point = verify_implicit_numeric(
        point_target(), 4, None, [0, "1/200", "1/100"], kmax=12)
    spread_line = verify_implicit_numeric(
        projective_space(1), 4, "1/1000", [0, "1/200", "1/100"],
        kmax=10, dmax=(3,))
    ok = spread_point <= 1e-5 and spread_line <= 1e-5
    assert report(8, ok, "implicit-solution constant is t-independent: "
                         f"spreads {spread_point:.2e} (point), "
                         f"{spread_line:.2e} (line) <= 1e-5 at u=4, kmax>=10")


def test_criterion_9_combinatorics(p1_run):
    counts = Counter(t.vcount for t, _ in enum_trees(7))
    ok = [counts[m] for m in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]

    trees8 = enum_trees(8)
    for m in range(2, 9):
        total = sum(Fraction(factorial(m), a) for t, a in trees8 if t.vcount == m)
        ok = ok and total == m ** (m - 2)

    w = projective_space(1)
    for k in range(0, 5):
        for b in range(0, 3):
            expected = p1_run["oracle"].coeff(k, (b,)) * factorial(k)
            ok = ok and labelled_cell_sum(w, k, (b,)) == expected

    assert report(9, ok, "tree census 1,1,1,2,3,6,11; Cayley identity "
                         "vcount<=8; labelled/weighted stratum consistency "
                         "k<=4, |beta|<=2 (exact)")
