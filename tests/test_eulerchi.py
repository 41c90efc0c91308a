from fractions import Fraction
from math import factorial, gcd

import pytest

from stablemaps import cli, eulerchi, solver
from stablemaps.eulerchi import (_log_slice, chi_potential, chi_table, crosscheck_chi,
                                 is_constant_series, solve_phi0_chi, verify_log_equation,
                                 xseries)
from stablemaps.qfield import RF_ONE, RF_U, RatFunc, necklace
from stablemaps.series import MultiSeries, series_adams, series_log1p
from stablemaps.solver import extract_classes, solve_phi0
from stablemaps.target import point_target, projective_space, target_from_json
from reference import stationary
from test_solver import ADAMS_TERM_BOXES, p1xp1_target, psi_2_by_hand


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

    @pytest.mark.parametrize("adams", [False, True])
    def test_one_chi_table_builds_x_once(self, monkeypatch, adams):
        # the slice and the residual that confirms it read the same X
        calls, real = [], eulerchi.eisenstein_series
        monkeypatch.setattr(eulerchi, "eisenstein_series",
                            lambda w, dmax: calls.append(dmax) or real(w, dmax))
        w = projective_space(2)
        assert chi_table(w, 3, (3,), adams) == chi_table(w, 3, (3,), adams)
        assert calls == [(3,)]

    def test_pole_at_one_raises(self):
        # [Map_1]/[W] = (u+1)/(u-1)
        w = target_from_json({"name": "pole", "rank": 1, "pw": ["-1", "1"],
                              "classes": [{"beta": [1],
                                           "value": {"num": ["1", "1"], "den": ["1"]}}]})
        with pytest.raises(ValueError, match=r"beta \(1,\) has a pole at u = 1"):
            xseries(w, (1,))


def chi_residual(w, phi, kmax, dmax, adams=False):
    """F(phi) = (1+t+phi) log(1+t+phi) - 2 phi - t + X (1+t+phi), with two
    products, and with adams=True the terms phi(k)/k psi_k(log(1+t+phi)),
    Euler's totient over k, added to X."""
    xs = MultiSeries(w.grading, kmax, dmax, xseries(w, dmax).coeffs)
    one = MultiSeries.const(w.grading, kmax, dmax, RF_ONE)
    t = MultiSeries.t_power(w.grading, kmax, dmax, 1)
    g = t + phi
    log = series_log1p(g)
    for k in range(2, sum(dmax) + 1) if adams else ():
        totient = sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)
        xs = xs + series_adams(log, k).scale(Fraction(totient, k))
    return (one + g) * log - phi.scale(2) - t + xs * (one + g)


def full_box_limit_root(w, kmax, dmax, adams):
    """The solution of the logarithmic equation by the stationary iteration
    phi <- phi + F(phi) on the whole box, from zero: the step's
    phi-derivative log(1+t+phi) + X has no constant term, so each pass
    settles one more total order.  Nothing of the slice recurrence or of
    the differential equation enters."""
    return stationary(lambda phi: phi + verify_log_equation(w, phi, adams),
                      MultiSeries.zero(w.grading, kmax, dmax))


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


def rational_target():
    """Rank 1, P_W = u + 1, with classes that are not polynomials in u but
    whose ratio to P_W vanishes at u = 1."""
    return target_from_json({"name": "rational", "rank": 1, "pw": ["1", "1"], "classes": [
        {"beta": [1], "value": {"num": ["-1", "0", "1"], "den": ["1", "0", "1"]}},
        {"beta": [2], "value": {"num": ["-1", "0", "0", "1"], "den": ["2", "1"]}},
        {"beta": [3], "value": {"num": ["-1", "1"], "den": ["3"]}}]})


@pytest.fixture(scope="module")
def limit_solutions():
    """(w, solve_phi0_chi) per (box, adams)."""
    out = {}
    for box, (make, kmax, dmax) in LIMIT_BOXES.items():
        w = make()
        for adams in (False, True):
            out[box, adams] = (w, solve_phi0_chi(w, kmax, dmax, adams))
    return out


class TestSliceAndLayers:
    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("box", LIMIT_BOXES)
    def test_equals_full_box_iteration(self, limit_solutions, box, adams):
        # the slice recurrence with t-layers from the differential equation
        # at u = 1 against the log-equation iteration run on the whole box
        w, phi = limit_solutions[box, adams]
        assert phi == full_box_limit_root(w, phi.kmax, phi.dmax, adams)

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("make, dmax", [(lambda: projective_space(1), (12,)),
                                            (lambda: projective_space(2), (20,)),
                                            (p1xp1_target, (2, 2)), (rational_target, (3,))],
                             ids=["pn:1", "pn:2", "p1xp1", "rational"])
    def test_slice_is_the_reference_slice(self, make, dmax, adams):
        w = make()
        assert _log_slice(w, dmax, adams) == full_box_limit_root(w, 0, dmax, adams)

    @pytest.mark.parametrize("value, message", [
        (RatFunc(Fraction(1, 7)), "fails the logarithmic equation"),
        (RF_U, "left the constant field")], ids=["1/7", "u"])
    def test_tampered_slice_is_refused(self, monkeypatch, value, message):
        # the slice is confirmed by its residual on the z-box before any
        # t-layer is built from it
        real = eulerchi._log_slice

        def faulty(w, dmax, adams=False):
            r = real(w, dmax, adams)
            return r + MultiSeries.monomial(r.grading, 0, dmax, 0, (2,), value)
        monkeypatch.setattr(eulerchi, "_log_slice", faulty)
        with pytest.raises(RuntimeError, match=message):
            solve_phi0_chi(projective_space(1), 3, (4,))

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("box", LIMIT_BOXES)
    def test_log_residual_vanishes(self, limit_solutions, box, adams):
        w, phi = limit_solutions[box, adams]
        assert verify_log_equation(w, phi, adams).is_zero

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("k, d", [(1, (0,)), (2, (1,)), (4, (2,))])
    def test_log_residual_detects_tampering(self, limit_solutions, k, d, adams):
        w, phi = limit_solutions["pn:2", adams]
        bad = phi + MultiSeries.monomial(phi.grading, phi.kmax, phi.dmax, k, d,
                                         RatFunc(Fraction(1, 7)))
        assert not verify_log_equation(w, bad, adams).is_zero


class TestLogStep:
    """The residual F(phi) of verify_log_equation, whose step phi + F(phi)
    full_box_limit_root iterates."""

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("box", ["pn:1", "p1xp1"])
    def test_step_is_the_two_product_formula(self, limit_solutions, box, adams):
        # off the solution too, where the residual is not zero
        w, phi = limit_solutions[box, adams]
        for cell in [(0, (1,) * w.grading.rank), (1, (0,) * w.grading.rank)]:
            moved = phi + MultiSeries.monomial(phi.grading, phi.kmax, phi.dmax, *cell,
                                               RatFunc(Fraction(1, 7)))
            assert verify_log_equation(w, moved, adams) == \
                chi_residual(w, moved, phi.kmax, phi.dmax, adams)

    @pytest.mark.parametrize("adams", [False, True])
    def test_one_product_outside_the_logarithm(self, monkeypatch, limit_solutions, adams):
        w, phi = limit_solutions["pn:1", adams]
        calls, in_log = [], []
        real_mul, real_log = MultiSeries.__mul__, eulerchi.series_log1p

        def counted_mul(self, other):
            if not in_log:
                calls.append(1)
            return real_mul(self, other)

        def log_uncounted(g):
            in_log.append(1)
            try:
                return real_log(g)
            finally:
                in_log.pop()
        monkeypatch.setattr(MultiSeries, "__mul__", counted_mul)
        monkeypatch.setattr(eulerchi, "series_log1p", log_uncounted)
        verify_log_equation(w, phi, adams)
        assert len(calls) == 1


class TestAdamsLimit:
    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("make, dmax", [(make, dmax) for make, _, dmax in
                                            LIMIT_BOXES.values()] + [(rational_target, (3,))],
                             ids=[*LIMIT_BOXES, "rational"])
    def test_solver_slice_at_one_is_the_limit_slice(self, make, dmax, adams):
        # the identity that lets the limit read the Adams correction off
        # its own slice: the exact slice R0 at u = 1 is the Euler slice R
        w = make()
        r0 = solve_phi0(w, 0, dmax, adams=adams)
        at_one = MultiSeries(w.grading, 0, dmax,
                             {key: RatFunc(c.eval_at(1)) for key, c in r0.coeffs.items()})
        assert at_one == solve_phi0_chi(w, 0, dmax, adams)

    def test_rational_slice_moves_with_adams(self):
        # the Adams correction changes the limit slice of this target, so
        # the comparison above tells the two modes apart
        w = rational_target()
        assert solve_phi0_chi(w, 0, (3,), True) != solve_phi0_chi(w, 0, (3,))

    @pytest.mark.parametrize("k", range(1, 31))
    def test_necklace_derivative_at_one_is_totient_over_k(self, k):
        totient = sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)
        assert necklace(k).derivative().eval(1) == Fraction(totient, k)

    def test_chi_suite_catches_doubled_necklace_exponent(self, monkeypatch, capsys):
        # doubling M_2 in the exact solver keeps the fe, dt and ode
        # suites passing, since they check the solver against itself
        real = solver.necklace
        monkeypatch.setattr(solver, "necklace",
                            lambda k: real(k).scale(2) if k == 2 else real(k))
        code = cli.main(["verify", "--suite", "chi", "--adams", "--target", "pn:1",
                         "--kmax", "3", "--dmax", "2"])
        assert code == 1 and "FAIL chi" in capsys.readouterr().out


def tampered_layers(monkeypatch, modules, k, d, value):
    """Replace the t-layer builder seen by `modules` with one that adds
    value(u) to the t**k z**d coefficient of the series it returns (a box
    without t**k is left as it is)."""
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

    @ADAMS_TERM_BOXES
    def test_adams_term_of_the_chi_potential(self, w, kmax, dmax):
        # the solver's Adams term P_W u/(2(u+1)) psi_2(phi) at u = 1
        phi = solve_phi0_chi(w, kmax, dmax, adams=True)
        diff = chi_potential(w, phi, adams=True) - chi_potential(w, phi)
        term = psi_2_by_hand(phi).scale(w.pw.eval(1) / 4)
        assert diff == term and not term.is_zero


class TestTopLayer:
    """chi_table solves the limit below t**kmax only, as compute does."""

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("kmax", [0, 1, 2])
    @pytest.mark.parametrize("w, dmax", [(point_target(), ()), (projective_space(1), (3,)),
                                         (p1xp1_target(), (2, 2))],
                             ids=["point", "pn:1", "p1xp1"])
    def test_chi_table_is_the_full_route(self, w, dmax, kmax, adams):
        phi = solve_phi0_chi(w, kmax, dmax, adams)
        full = extract_classes(chi_potential(w, phi, adams))
        assert chi_table(w, kmax, dmax, adams) == \
            {cell: p.eval(1) for cell, p in full.entries.items()}

    def test_chi_table_drops_the_top_layer_products(self, monkeypatch):
        # chi_table solves pn:2 (5; 3) through t**4 only, and its values
        # are the full-box route's
        orders = []
        real = eulerchi.solve_phi0_chi

        def recorded(w, kmax, dmax=None, adams=False):
            orders.append(kmax)
            return real(w, kmax, dmax, adams)
        monkeypatch.setattr(eulerchi, "solve_phi0_chi", recorded)
        w, kmax, dmax = projective_space(2), 5, (3,)
        full = extract_classes(chi_potential(w, real(w, kmax, dmax)))
        assert chi_table(w, kmax, dmax) == {cell: p.eval(1) for cell, p in full.entries.items()}
        assert orders == [kmax - 1]


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

    def test_perturbed_x_detected(self, monkeypatch):
        # feed a wrong X into the limit pipeline and compare tables by hand
        from stablemaps.solver import extract_classes, potential, solve_phi0

        w = projective_space(1)
        kmax, dmax = 3, (1,)
        xs = xseries(w, dmax)
        wrong = MultiSeries(w.grading, 0, dmax,
                            {**xs.coeffs, (0, (1,)): RatFunc(5)})
        monkeypatch.setattr(eulerchi, "xseries", lambda w, dmax=None: wrong)
        chi_pot = chi_potential(w, solve_phi0_chi(w, kmax, dmax))
        table = extract_classes(potential(w, solve_phi0(w, kmax, dmax)), w)
        mismatch = False
        for (k, d) in table.cells():
            if RatFunc(table.entry(k, d).eval(1)) != chi_pot.coeff(k, d) * factorial(k):
                mismatch = True
        assert mismatch
