from fractions import Fraction
from math import factorial

import pytest

from stablemaps.eulerchi import (chi_potential, chi_table, crosscheck_chi,
                                 is_constant_series, solve_phi0_chi, xseries)
from stablemaps.qfield import RF_ONE, RatFunc
from stablemaps.series import MultiSeries, series_log1p
from stablemaps.target import point_target, projective_space


class TestXSeries:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projective_coefficients_all_n(self, n):
        xs = xseries(projective_space(n), (4,))
        for d in range(1, 5):
            assert xs.coeff(0, (d,)) == RatFunc(n)

    def test_line_first_three(self):
        xs = xseries(projective_space(1), (3,))
        assert [xs.coeff(0, (d,)) for d in range(1, 4)] == [RF_ONE] * 3

    def test_degree_zero_term_vanishes(self):
        xs = xseries(projective_space(2), (3,))
        assert xs.coeff(0, (0,)).is_zero

    def test_point_has_no_terms(self):
        assert xseries(point_target(), ()).is_zero


def chi_residual(w, phi, kmax, dmax):
    xs = MultiSeries(w.grading, kmax, dmax, xseries(w, dmax).coeffs)
    one = MultiSeries.const(w.grading, kmax, dmax, RF_ONE)
    t = MultiSeries.t_power(w.grading, kmax, dmax, 1)
    g = t + phi
    return (one + g) * series_log1p(g) - phi.scale(2) - t + xs * (one + g)


class TestChiFixedPoint:
    def test_point_low_orders(self):
        phi = solve_phi0_chi(point_target(), 6)
        assert phi.coeff(0, ()).is_zero
        assert phi.coeff(1, ()).is_zero
        assert phi.coeff(2, ()) == RatFunc(Fraction(1, 2))
        assert is_constant_series(phi)

    def test_residual_vanishes(self):
        for w, kmax, dmax in ((point_target(), 6, ()),
                              (projective_space(1), 4, (2,)),
                              (projective_space(2), 3, (2,))):
            phi = solve_phi0_chi(w, kmax, dmax)
            assert chi_residual(w, phi, kmax, dmax).is_zero

    def test_line_z_linear_matches_exact_limit(self):
        # the z-linear coefficient must be the u -> 1 value of the exact
        # solver's (u+1) N(W, beta)
        from stablemaps.solver import solve_phi0

        w = projective_space(1)
        chi_phi = solve_phi0_chi(w, 2, (1,))
        exact_phi = solve_phi0(w, 2, (1,))
        exact_value = exact_phi.coeff(0, (1,)).eval_at(1)
        assert chi_phi.coeff(0, (1,)) == RatFunc(exact_value)
        assert exact_value == 1


class TestChiPotential:
    def test_point_euler_numbers(self):
        w = point_target()
        table = chi_table(w, 5)
        assert table[(3, ())] == 1
        assert table[(4, ())] == 2   # u+1 at u = 1
        assert table[(5, ())] == 7   # u^2+5u+1 at u = 1

    def test_t_square_cancellation(self):
        w = point_target()
        pot = chi_potential(w, solve_phi0_chi(w, 4))
        assert pot.coeff(2, ()).is_zero

    def test_line_product_cells(self):
        # chi of W x (k-point moduli) = chi(W) * chi(moduli)
        table = chi_table(projective_space(1), 4, (2,))
        assert table[(4, (0,))] == 4
        assert table[(3, (0,))] == 2


class TestCrosscheck:
    def test_line(self):
        assert crosscheck_chi(projective_space(1), 4, (2,))

    def test_plane(self):
        assert crosscheck_chi(projective_space(2), 3, (2,))

    @pytest.mark.parametrize("n, kmax, dmax", [(1, 4, 2), (2, 3, 2), (1, 2, 4)])
    def test_with_adams_operations(self, n, kmax, dmax):
        assert crosscheck_chi(projective_space(n), kmax, (dmax,), adams=True)

    def test_complete_conics(self):
        # 1 + 2u + 3u^2 + 3u^3 + 2u^4 + u^5 at u = 1
        assert chi_table(projective_space(2), 0, (2,), adams=True)[(0, (2,))] == 12

    def test_perturbed_x_detected(self):
        # feed a wrong X into the limit pipeline and compare tables by hand
        from stablemaps.solver import extract_classes, potential, solve_phi0

        w = projective_space(1)
        kmax, dmax = 3, (1,)
        xs = xseries(w, dmax)
        wrong = MultiSeries(w.grading, 0, dmax,
                            {**xs.coeffs, (0, (1,)): RatFunc(5)})
        chi_pot = chi_potential(w, solve_phi0_chi(w, kmax, dmax, xs=wrong))
        table = extract_classes(potential(w, solve_phi0(w, kmax, dmax)), w)
        mismatch = False
        for (k, d) in table.cells():
            if RatFunc(table.entry(k, d).eval(1)) != chi_pot.coeff(k, d) * factorial(k):
                mismatch = True
        assert mismatch
