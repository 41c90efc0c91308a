from fractions import Fraction
from math import factorial

import pytest

from stablemaps import cli, eulerchi, solver
from stablemaps.eulerchi import (_log_fixed_point, chi_agrees, chi_potential, chi_table,
                                 crosscheck_chi, is_constant_series,
                                 solve_phi0_chi, verify_log_equation, xseries)
from stablemaps.qfield import RF_ONE, RF_U, RatFunc
from stablemaps.series import MultiSeries, series_log1p
from stablemaps.solver import adams_factor, solve_phi0
from stablemaps.target import point_target, projective_space, target_from_json
from test_solver import p1xp1_target


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

    def test_pole_at_one_raises(self):
        # [Map_1]/[W] = (u+1)/(u-1)
        w = target_from_json({"name": "pole", "rank": 1, "pw": ["-1", "1"],
                              "classes": [{"beta": [1],
                                           "value": {"num": ["1", "1"], "den": ["1"]}}]})
        with pytest.raises(ValueError, match=r"beta \(1,\) has a pole at u = 1"):
            xseries(w, (1,))


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
        w = projective_space(1)
        chi_phi = solve_phi0_chi(w, 2, (1,))
        exact_phi = solve_phi0(w, 2, (1,))
        exact_value = exact_phi.coeff(0, (1,)).eval_at(1)
        assert chi_phi.coeff(0, (1,)) == RatFunc(exact_value)
        assert exact_value == 1


LIMIT_BOXES = {
    "point": (point_target, 10, ()),
    "pn:1": (lambda: projective_space(1), 5, (3,)),
    "pn:2": (lambda: projective_space(2), 4, (2,)),
    "p1xp1": (p1xp1_target, 2, (2, 2)),
}


@pytest.fixture(scope="module")
def limit_solutions():
    """(w, X, solve_phi0_chi) per (box, adams); with adams, X is read off
    E * A of the Adams-corrected slice."""
    out = {}
    for box, (make, kmax, dmax) in LIMIT_BOXES.items():
        w = make()
        for adams in (False, True):
            a = adams_factor(solve_phi0(w, 0, dmax, adams=True)) if adams else None
            xs = xseries(w, dmax, factor=a)
            out[box, adams] = (w, xs, solve_phi0_chi(w, kmax, dmax, xs=xs))
    return out


class TestSliceAndLayers:
    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("box", LIMIT_BOXES)
    def test_equals_full_box_iteration(self, limit_solutions, box, adams):
        # the slice fixed point with t-layers from the differential equation
        # at u = 1 against the log-equation iteration run on the whole box
        w, xs, phi = limit_solutions[box, adams]
        assert phi == _log_fixed_point(w, phi.kmax, phi.dmax, xs)

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("box", LIMIT_BOXES)
    def test_log_residual_vanishes(self, limit_solutions, box, adams):
        w, xs, phi = limit_solutions[box, adams]
        assert verify_log_equation(w, phi, xs).is_zero

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("k, d", [(1, (0,)), (2, (1,)), (4, (2,))])
    def test_log_residual_detects_tampering(self, limit_solutions, k, d, adams):
        w, xs, phi = limit_solutions["pn:2", adams]
        bad = phi + MultiSeries.monomial(phi.grading, phi.kmax, phi.dmax, k, d,
                                         RatFunc(Fraction(1, 7)))
        assert not verify_log_equation(w, bad, xs).is_zero


def tampered_layers(monkeypatch, modules, k, d, value):
    """Replace the t-layer builder seen by `modules` with one that adds
    value(u) to the t**k z**d coefficient of the series it returns (a box
    without t**k, such as the t = 0 slice of the Adams-corrected solve, is
    left as it is)."""
    real = solver.t_layers

    def faulty(r0, kmax, u=RF_U):
        phi = real(r0, kmax, u)
        if k <= kmax:
            phi = phi + MultiSeries.monomial(r0.grading, kmax, r0.dmax, k, d, value(u))
        return phi
    for module in modules:
        monkeypatch.setattr(module, "t_layers", faulty)


class TestLayerFaults:
    @pytest.mark.parametrize("adams", [False, True])
    def test_crosscheck_detects_tampered_limit(self, monkeypatch, adams):
        tampered_layers(monkeypatch, [eulerchi], 2, (1,), lambda u: Fraction(1, 7))
        assert not crosscheck_chi(projective_space(1), 3, (2,), adams=adams)

    @pytest.mark.parametrize("adams", [False, True])
    def test_shared_fault_caught_by_residual(self, monkeypatch, adams):
        # the same fault in both routes' t-layers, (u+1)/7 on one
        # coefficient, keeps the exact classes polynomial and the tables in
        # agreement at u = 1; only the full-box log residual sees it
        from stablemaps.solver import extract_classes, potential, solve_phi0

        tampered_layers(monkeypatch, [eulerchi, solver], 2, (1,),
                        lambda u: (u + 1) * Fraction(1, 7))
        w, kmax, dmax = projective_space(1), 3, (2,)
        phi0 = solve_phi0(w, kmax, dmax, adams=adams)
        table = extract_classes(potential(w, phi0, adams=adams), w)
        assert chi_table(w, kmax, dmax, adams=adams) == \
            {cell: p.eval(1) for cell, p in table.entries.items()}
        assert not crosscheck_chi(w, kmax, dmax, adams=adams)

    @pytest.mark.parametrize("adams", [False, True])
    def test_verify_chi_suite_fails(self, monkeypatch, capsys, adams):
        tampered_layers(monkeypatch, [eulerchi, solver], 2, (1,),
                        lambda u: (u + 1) * Fraction(1, 7))
        code = cli.main(["verify", "--suite", "chi", "--target", "pn:1", "--kmax", "3",
                         "--dmax", "2", *(["--adams"] if adams else [])])
        assert code == 1 and "FAIL chi" in capsys.readouterr().out


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

    def test_adams_needs_the_solver_slice(self):
        from stablemaps.solver import ClassTable

        with pytest.raises(ValueError, match="r0"):
            chi_agrees(projective_space(1), ClassTable("pn:1", 1, (1,), {}), adams=True)

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
