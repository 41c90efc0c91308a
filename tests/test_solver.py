import json
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stablemaps import cli, qfield, series, solver
from stablemaps.eulerchi import solve_phi0_chi
from stablemaps.qfield import (LINE_CLASS, P_ONE, RF_ONE, RF_U, RatFunc, U, UPoly,
                               binom_falling, is_palindromic)
from stablemaps.series import Grading, MultiSeries, box_vectors
from stablemaps.solver import (ClassTable, class_table, closed_form, extract_classes,
                               indented_json, potential, solve_phi0, verify_dt,
                               verify_functional_equation,
                               verify_implicit_numeric, verify_ode,
                               verify_potential_expansion, verify_quadratic)
from stablemaps.target import (nclass, point_target, projective_space,
                               target_from_json)

from reference import (div_exact, layers_by_recurrence, slice_by_ratfuncs, stationary,
                       x_table_by_products)


def gaussian_binomial(n, k):
    """q-analog of C(n, k) in the variable u: prod (u^(n-k+i)-1)/(u^i-1)."""
    num = P_ONE
    den = P_ONE
    for i in range(1, k + 1):
        num = num * (UPoly.monomial(n - k + i) - P_ONE)
        den = den * (UPoly.monomial(i) - P_ONE)
    return div_exact(num, den)


def keel_classes(nmax):
    """Classes of Mbar_{0,n} for n = 3..nmax as Fraction coefficient lists,
    lowest degree first, from Keel's recursion

        P_{n+1} = (1+u) P_n + (u/2) sum_{j=2}^{n-2} C(n,j) P_{j+1} P_{n-j+1},

    with P_3 = 1: no series, trees or qfield."""
    classes = {3: [Fraction(1)]}
    for n in range(3, nmax):
        nxt = [Fraction(0)] * (n - 1)
        for i, c in enumerate(classes[n]):
            nxt[i] += c
            nxt[i + 1] += c
        for j in range(2, n - 1):
            half_binom = Fraction(comb(n, j), 2)
            for i, a in enumerate(classes[j + 1]):
                for m, b in enumerate(classes[n - j + 1]):
                    nxt[i + m + 1] += half_binom * a * b
        classes[n + 1] = nxt
    return classes


class TestFixedPoint:
    def test_point_low_orders(self, point_run):
        phi = point_run["phi0"]
        assert phi.coeff(0, ()).is_zero
        assert phi.coeff(1, ()).is_zero
        assert phi.coeff(2, ()) == RatFunc(Fraction(1, 2))

    def test_z_linear_coefficient(self, p1_run, p2_run):
        # the z-linear, t-free coefficient is (u+1) N(W, beta)
        for run in (p1_run, p2_run):
            w = run["w"]
            got = run["phi0"].coeff(0, (1,))
            assert got == RatFunc(LINE_CLASS) * nclass(w, (1,))

    def test_uniqueness_under_restart(self):
        # the full-box iteration started from a z coefficient other than
        # the root's reaches the slice that solve_phi0 builds cell by cell
        w = projective_space(1)
        seed = MultiSeries.monomial(w.grading, 0, (2,), 0, (1,),
                                    RatFunc(UPoly((3, 7, 1))))
        for adams in (False, True):
            reference = solve_phi0(w, 0, (2,), adams)
            assert seed.coeff(0, (1,)) != reference.coeff(0, (1,))
            assert full_box_root(w, 0, (2,), adams, seed) == reference

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("box", ["point", "pn:1", "pn:2", "p1xp1", "pn:1 slice",
                                     "pn:3 slice"])
    def test_equals_full_box_iteration(self, box, adams):
        # the slice recurrence with t-layers from the differential equation
        # against the stationary iteration of (*) run on the whole box, with
        # A from adams_factor of each iterate
        w, kmax, dmax = {
            "point": (point_target(), 8, ()),
            "pn:1": (projective_space(1), 5, (3,)),
            "pn:2": (projective_space(2), 4, (2,)),
            "p1xp1": (p1xp1_target(), 2, (2, 2)),
            "pn:1 slice": (projective_space(1), 0, (12,)),
            "pn:3 slice": (projective_space(3), 0, (8,)),
        }[box]
        assert solve_phi0(w, kmax, dmax, adams=adams) == full_box_root(w, kmax, dmax, adams)

    @pytest.mark.parametrize("adams", [False, True])
    def test_one_binomial_power_per_solve(self, monkeypatch, adams):
        # the slice takes no power sum; t_layers inverts 1 - u R0 once
        calls = []
        real = solver.series_pow_binomial

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(solver, "series_pow_binomial", counted)
        w = projective_space(2)
        solve_phi0(w, 0, (6,), adams)
        assert len(calls) == 0
        for kmax in (1, 4):
            calls.clear()
            solve_phi0(w, kmax, (6,), adams)
            assert len(calls) == 1

    @given(data=st.data())
    def test_slice_solves_random_targets(self, data):
        # rank-1 and rank-2 descriptors with rational classes, over
        # denominators that are constant, monic or not: the slice zeroes
        # the residual of (*) and equals the full-box iteration and the
        # RatFunc slice
        rank = data.draw(st.sampled_from([1, 2]), label="rank")
        dmax = tuple(data.draw(st.lists(st.integers(0, 4 if rank == 1 else 2),
                                        min_size=rank, max_size=rank), label="dmax"))
        poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
        den = st.sampled_from([["1"], ["1"], ["3"], ["1", "1"], ["1", "2"], ["1", "0", "1"]])
        pw = data.draw(poly.filter(any), label="pw")
        classes = [{"beta": list(beta),
                    "value": {"num": [str(c) for c in data.draw(poly, label=str(beta))],
                              "den": data.draw(den, label=f"den {beta}")}}
                   for beta in box_vectors(dmax) if any(beta)]
        w = target_from_json({"name": "random", "rank": rank,
                              "pw": [str(c) for c in pw], "classes": classes})
        for adams in (False, True):
            r0 = solve_phi0(w, 0, dmax, adams)
            assert verify_functional_equation(w, r0, adams).is_zero
            assert r0 == full_box_root(w, 0, dmax, adams) == slice_by_ratfuncs(w, dmax, adams)


class TestPotential:
    def test_forced_cancellations(self, point_run, p1_run):
        for run in (point_run, p1_run):
            pot = run["pot"]
            zero = run["w"].grading.zero
            assert pot.coeff(0, zero).is_zero
            assert pot.coeff(1, zero).is_zero
            assert pot.coeff(2, zero).is_zero

    def test_three_point_class(self, point_run):
        assert point_run["pot"].coeff(3, ()) == RatFunc(Fraction(1, 6))

    def test_degree_zero_slice_is_product(self, point_run, p1_run, p2_run):
        # setting z = 0 must give [W] times the point-target potential
        for run in (p1_run, p2_run):
            w = run["w"]
            pw = RatFunc(w.pw)
            for k in range(run["kmax"] + 1):
                expected = point_run["pot"].coeff(k, ()) * pw
                assert run["pot"].coeff(k, (0,)) == expected


class TestExtractClasses:
    def test_point_classes(self, point_run):
        table = point_run["table"]
        assert table.entry(3) == P_ONE
        assert table.entry(4) == UPoly((1, 1))
        assert table.entry(5) == UPoly((1, 5, 1))

    def test_point_classes_match_keel_recursion(self):
        w = point_target()
        table = extract_classes(potential(w, solve_phi0(w, 20)), w)
        keel = keel_classes(20)
        for k in range(3, 21):
            assert list(table.entry(k).coeffs) == keel[k]
        # the u^1 coefficient of Mbar_{0,20} is its Picard rank
        assert keel[20][1] == 524097 == 2 ** 19 - comb(20, 2) - 1

    def test_gaussian_binomial_line_classes(self, p1_run, p2_run):
        # the no-marking degree-one space is the Grassmannian of lines
        assert gaussian_binomial(2, 2) == P_ONE
        assert p1_run["table"].entry(0, (1,)) == gaussian_binomial(2, 2)
        assert p2_run["table"].entry(0, (1,)) == gaussian_binomial(3, 2)
        w3 = projective_space(3)
        table3 = extract_classes(potential(w3, solve_phi0(w3, 0, (1,))), w3)
        assert table3.entry(0, (1,)) == gaussian_binomial(4, 2)
        assert table3.entry(0, (1,)) == UPoly((1, 1, 2, 1, 1))

    def test_non_polynomial_entry_reported(self):
        w = point_target()
        bad = MultiSeries(w.grading, 3, (), {(3, ()): RatFunc(P_ONE, UPoly((2, 1)))})
        with pytest.raises(ValueError, match=r"\(k=3, beta=\(\)\)"):
            extract_classes(bad, w)

    def test_table_roundtrip_bytes(self, p1_run):
        table = p1_run["table"]
        text = table.to_json()
        again = ClassTable.from_json(text)
        assert again == table
        assert again.to_json() == text

    def test_csv_shape(self, point_run):
        csv_text = point_run["table"].to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == '"k","beta","class_u","class_q","chi"'
        assert '"5","","1,5,1","1,0,5,0,1","7"' in lines


class TestIdentities:
    def test_ode_residuals_vanish(self, point_run, p1_run, p2_run,
                                  p1_adams_run, p2_adams_run):
        for run in (point_run, p1_run, p2_run, p1_adams_run, p2_adams_run):
            res_a, res_b = verify_ode(run["phi0"])
            assert res_a.is_zero and res_b.is_zero

    def test_ode_detects_tampering(self, point_run):
        phi = point_run["phi0"]
        bad = phi + MultiSeries.monomial(phi.grading, phi.kmax, (), 4, (),
                                         RatFunc(Fraction(1, 7)))
        res_a, res_b = verify_ode(bad)
        assert not res_a.is_zero
        assert not res_b.is_zero

    def test_functional_equation_residual_vanishes(self, point_run, p1_run, p2_run,
                                                   p1_adams_run, p2_adams_run):
        for run, adams in ((point_run, False), (p1_run, False), (p2_run, False),
                           (p1_adams_run, True), (p2_adams_run, True)):
            assert verify_functional_equation(run["w"], run["phi0"], adams=adams).is_zero
        # each mode's fixed point fails the other mode's equation
        assert not verify_functional_equation(p1_run["w"], p1_run["phi0"], adams=True).is_zero
        assert not verify_functional_equation(
            p1_adams_run["w"], p1_adams_run["phi0"], adams=False).is_zero

    @pytest.mark.parametrize("k, d", [(1, (0,)), (2, (1,)), (4, (2,))])
    def test_functional_equation_detects_tampering(self, p2_run, p2_adams_run, k, d):
        for run, adams in ((p2_run, False), (p2_adams_run, True)):
            phi = run["phi0"]
            bad = phi + MultiSeries.monomial(phi.grading, phi.kmax, phi.dmax, k, d,
                                             RatFunc(Fraction(1, 7)))
            assert not verify_functional_equation(run["w"], bad, adams=adams).is_zero

    def test_dt_identity(self, point_run, p1_run, p2_run, p1_adams_run, p2_adams_run):
        for run in (point_run, p1_run, p2_run, p1_adams_run, p2_adams_run):
            assert verify_dt(run["pot"], run["phi0"], run["w"])

    def test_dt_detects_tampering(self, p2_run):
        pot, phi, w = p2_run["pot"], p2_run["phi0"], p2_run["w"]
        bad = pot + MultiSeries.monomial(pot.grading, pot.kmax, pot.dmax, 3,
                                         (1,), RatFunc(1))
        assert not verify_dt(bad, phi, w)

    def test_quadratic_residual_vanishes(self, point_run, p1_run, p2_run,
                                         p1_adams_run, p2_adams_run):
        for run, adams in ((point_run, False), (p1_run, False), (p2_run, False),
                           (p1_adams_run, True), (p2_adams_run, True)):
            assert verify_quadratic(run["w"], run["phi0"], run["pot"], adams=adams).is_zero
        # the Adams term is part of the relation
        assert not verify_quadratic(p1_run["w"], p1_run["phi0"], p1_run["pot"],
                                    adams=True).is_zero

    @pytest.mark.parametrize("k, d", [(1, (0,)), (2, (1,)), (4, (2,))])
    def test_quadratic_detects_tampered_layer(self, p2_run, p2_adams_run, k, d):
        # the potential of a tampered phi0 passes the derivative identity,
        # which holds by construction, but not the closed form
        for run, adams in ((p2_run, False), (p2_adams_run, True)):
            phi, w = run["phi0"], run["w"]
            bad = phi + MultiSeries.monomial(phi.grading, phi.kmax, phi.dmax, k, d,
                                             RatFunc(Fraction(1, 7)))
            pot = potential(w, bad, adams=adams)
            assert verify_dt(pot, bad, w)
            assert not verify_quadratic(w, bad, pot, adams=adams).is_zero

    def test_potential_expansion(self):
        assert verify_potential_expansion(point_target(), 4, 5)
        assert verify_potential_expansion(projective_space(1), 4, 4, (2,))

    @pytest.mark.parametrize("w, kmax, dmax", [(point_target(), 5, None),
                                               (projective_space(1), 4, (2,))],
                             ids=["point", "pn1"])
    def test_potential_expansion_sees_a_doubled_nclass(self, monkeypatch, w, kmax, dmax):
        # N(W, 0) enters route one only, as the unstable correction's factor
        monkeypatch.setattr(solver, "nclass", lambda w, beta: nclass(w, beta) * 2)
        assert not verify_potential_expansion(w, 4, kmax, dmax)

    @pytest.mark.parametrize("w, kmax, dmax", [(point_target(), 5, None),
                                               (projective_space(1), 4, (2,))],
                             ids=["point", "pn1"])
    def test_potential_expansion_sees_one_wrong_binomial(self, monkeypatch, w, kmax, dmax):
        # C(u - 1, 1), the t-cell of (1+t)**(u-1) at phi-degree 2, enters
        # route two only: one wrong call of it is a mismatch
        um1, wrong = RatFunc(UPoly((-1, 1))), []

        def wrong_once(alpha, k):
            value = binom_falling(alpha, k)
            if k == 1 and alpha == um1 and not wrong:
                wrong.append(alpha)
                return value + 1
            return value

        monkeypatch.setattr(solver, "binom_falling", wrong_once)
        assert not verify_potential_expansion(w, 4, kmax, dmax)
        assert len(wrong) == 1

    def test_potential_expansion_degree_guard(self):
        with pytest.raises(ValueError):
            verify_potential_expansion(point_target(), 1, 4)


class TestImplicitNumeric:
    def test_point_tiny_spread(self):
        spread = verify_implicit_numeric(point_target(), 4, None,
                                         [0, "1/200", "1/100"], kmax=12)
        assert spread <= 1e-6

    def test_zero_series_control(self):
        w = point_target()
        flat = MultiSeries.zero(w.grading, 12, ())
        spread = verify_implicit_numeric(w, 4, None, [0, "1/200", "1/100"],
                                         phi0=flat)
        assert spread > 1e-5

    def test_line_with_z(self):
        spread = verify_implicit_numeric(projective_space(1), 4, "1/100",
                                         [0, "1/200", "1/100"],
                                         kmax=10, dmax=(5,))
        assert spread <= 1e-5

    def test_branch_guard(self):
        w = point_target()
        # u = -4 makes s + u negative at small t
        with pytest.raises(ValueError, match="branch"):
            verify_implicit_numeric(w, -4, None, [0, "1/100"], kmax=6)


class TestStructuralInvariants:
    def test_palindromic_where_duality_applies(self, point_run, p1_run, p2_run):
        # automorphism-free range: every point-target class, and the
        # degree <= 1 cells of the projective targets
        for k in range(3, 9):
            assert is_palindromic(point_run["table"].entry(k), k - 3)
        for run, n in ((p1_run, 1), (p2_run, 2)):
            table = run["table"]
            for (k, d) in table.cells():
                if d[0] > 1:
                    continue
                dim = (n + 1) * d[0] + n + k - 3
                if (k, d[0]) in ((0, 0), (1, 0), (2, 0)):
                    continue
                assert is_palindromic(table.entry(k, d), dim), (k, d)

    def test_multiple_cover_cells_are_stacky(self, p1_run, p1_adams_run):
        # the default is the p_k = 0 specialisation of the orbit count: it
        # divides the Z/2-symmetric stratum of the degree-2 no-marking space
        # by 2 instead of taking its invariant part, which leaves rational
        # coefficients; with the Adams operations kept the class is that
        # of the coarse space P^2
        entry = p1_run["table"].entry(0, (2,))
        assert entry == UPoly((Fraction(1, 2), Fraction(1, 2), 1))
        assert not is_palindromic(entry, 2)
        assert p1_adams_run["table"].entry(0, (2,)) == UPoly((1, 1, 1))


def full_box_root(w, kmax, dmax, adams, start=None):
    """The root of (*) by the stationary iteration phi <- phi + residual on
    the whole box, from zero or from `start`; in Adams mode A is rebuilt by
    adams_factor from each iterate.  Nothing of the slice recurrence or of
    the differential equation enters."""
    if start is None:
        start = MultiSeries.zero(w.grading, kmax, dmax)
    return stationary(lambda phi: phi + verify_functional_equation(w, phi, adams), start)


def p1xp1_descriptor():
    """P^1 x P^1 as a rank-2 descriptor in the basis of the two rulings,
    [Map_(a,b)] = [Map_a(P^1)] [Map_b(P^1)], as the JSON object of a
    file: target."""
    line = projective_space(1)
    classes = []
    for a in range(3):
        for b in range(3):
            if (a, b) != (0, 0):
                value = line.map_class((a,)).num * line.map_class((b,)).num
                classes.append({"beta": [a, b],
                                "value": {"num": value.to_json(), "den": ["1"]}})
    return {"name": "p1xp1", "rank": 2, "pw": ["1", "2", "1"], "classes": classes}


def p1xp1_target():
    return target_from_json(p1xp1_descriptor())


def psi_2_by_hand(s):
    """psi_2(s) cell by cell, without series_adams: the t**0 cell c z**d goes
    to c(u**2) z**(2d), a cell whose 2d leaves the box is dropped, and every
    cell t**k z**d with k > 0 goes to 0."""
    def u_squared(p):
        return UPoly([c for a in p.coeffs for c in (a, 0)])
    coeffs = {(0, tuple(2 * x for x in d)): RatFunc(u_squared(c.num), u_squared(c.den))
              for (k, d), c in s.coeffs.items()
              if k == 0 and all(2 * x <= m for x, m in zip(d, s.dmax))}
    return MultiSeries(s.grading, s.kmax, s.dmax, coeffs)


ADAMS_TERM_BOXES = pytest.mark.parametrize("w, kmax, dmax", [
    (projective_space(1), 4, (4,)), (projective_space(2), 3, (3,)),
    (p1xp1_target(), 2, (2, 2))], ids=["pn:1", "pn:2", "p1xp1"])


class TestAdamsOperations:
    @pytest.mark.parametrize("n, k, d, expected", [
        (1, 0, 2, (1, 1, 1)),                       # P^2
        (1, 0, 3, (1, 1, 2, 1, 1)),
        (1, 1, 2, (1, 2, 2, 1)),
        (2, 0, 2, (1, 2, 3, 3, 2, 1)),              # complete conics
        (2, 0, 3, (1, 2, 5, 7, 9, 7, 5, 2, 1)),
        (2, 1, 1, (1, 2, 2, 1)),                    # point-line flags
    ])
    def test_projective_cells(self, n, k, d, expected):
        w = projective_space(n)
        phi0 = solve_phi0(w, k, (d,), adams=True)
        table = extract_classes(potential(w, phi0, adams=True), w)
        assert table.entry(k, (d,)) == UPoly(expected)

    def test_p1xp1_cells(self):
        w = p1xp1_target()
        phi0 = solve_phi0(w, 0, (2, 2), adams=True)
        table = extract_classes(potential(w, phi0, adams=True), w)
        assert table.entry(0, (1, 1)) == UPoly((1, 1, 1, 1))
        assert table.entry(0, (2, 0)) == UPoly((1, 2, 2, 1))  # P^1 x P^2

    def test_low_degree_cells_agree(self, p1_run, p2_run, p1_adams_run, p2_adams_run):
        # no cell with |beta| <= 1 has a multiple cover
        for run, corrected in ((p1_run, p1_adams_run), (p2_run, p2_adams_run)):
            for (k, d) in run["table"].cells():
                if d[0] <= 1:
                    assert run["table"].entry(k, d) == corrected["table"].entry(k, d)
            assert run["table"].entry(0, (2,)) != corrected["table"].entry(0, (2,))

    @ADAMS_TERM_BOXES
    def test_adams_term_of_the_potential(self, w, kmax, dmax):
        # with the Adams operations the potential differs from P_W times the
        # plain closed form by P_W u/(2(u+1)) psi_2(phi0) alone, at t**0 only
        phi0 = solve_phi0(w, kmax, dmax, adams=True)
        diff = potential(w, phi0, adams=True) - closed_form(phi0).scale(RatFunc(w.pw))
        term = psi_2_by_hand(phi0).scale(RatFunc(U * w.pw, LINE_CLASS.scale(2)))
        assert diff == term
        assert not diff.is_zero and all(k == 0 for k, _ in diff.coeffs)


def fraction_formatted(table):
    """ClassTable.to_json and to_csv written with one Fraction per
    coefficient: class_q puts each u-coefficient at the doubled q-degree and
    a Fraction 0 in every odd slot."""
    def q_coeffs(p):
        out = [Fraction(0)] * (2 * len(p.coeffs) - 1) if p.coeffs else []
        out[::2] = p.coeffs
        return out
    rows, lines = [], ['"k","beta","class_u","class_q","chi"']
    for (k, d) in table.cells():
        p = table.entries[(k, d)]
        cu, cq = [str(c) for c in p.coeffs], [str(c) for c in q_coeffs(p)]
        rows.append({"k": k, "beta": list(d), "class_u": cu, "class_q": cq,
                     "chi": str(p.eval(1))})
        lines.append(f'"{k}","{",".join(map(str, d))}","{",".join(cu)}",'
                     f'"{",".join(cq)}","{p.eval(1)}"')
    obj = {"target": table.target_name, "kmax": table.kmax, "dmax": list(table.dmax),
           "entries": rows}
    return json.dumps(obj, indent=2) + "\n", "\n".join(lines) + "\n"


class TestTableStrings:
    @pytest.mark.parametrize("w, kmax, dmax", [
        (projective_space(1), 0, (2,)),   # u**2 + u/2 + 1/2 at beta = 2
        (projective_space(2), 2, (3,)),
        (p1xp1_target(), 1, (2, 2)),
    ])
    def test_strings_match_fraction_formatting(self, w, kmax, dmax):
        table = extract_classes(potential(w, solve_phi0(w, kmax, dmax)), w)
        assert any(p.denom != 1 for p in table.entries.values())
        assert (table.to_json(), table.to_csv()) == fraction_formatted(table)

    @pytest.mark.parametrize("p", [
        UPoly(), UPoly((7,)), UPoly((Fraction(-3, 4),)), UPoly((0, 0, 1)),
        UPoly((Fraction(1, 2), 0, Fraction(-5, 6), 7)), UPoly((-2, Fraction(4, 9))),
    ], ids=["zero", "constant", "rational-constant", "monomial", "rational", "negative"])
    def test_row_strings_are_the_polynomial_operations(self, p):
        # class_q and chi are built from class_u's strings and the integer
        # numerators; they must be psi_2 of the class and its value at 1
        table = ClassTable("t", 0, (), {(0, ()): p})
        row = json.loads(table.to_json())["entries"][0]
        expected = (p.to_json(), p.adams(2).to_json(), str(p.eval(1)))
        assert (row["class_u"], row["class_q"], row["chi"]) == expected
        assert table.to_csv().splitlines()[1] == \
            '"0","","{}","{}","{}"'.format(*(",".join(x) for x in expected[:2]), expected[2])

    def test_rational_cell_strings(self):
        w = projective_space(1)
        table = extract_classes(potential(w, solve_phi0(w, 0, (2,))), w)
        row = json.loads(table.to_json())["entries"][2]
        assert (row["class_u"], row["class_q"], row["chi"]) == \
            (["1/2", "1/2", "1"], ["1/2", "0", "1/2", "0", "1"], "2")
        assert '"0","2","1/2,1/2,1","1/2,0,1/2,0,1","2"' in table.to_csv().splitlines()


class TestTopLayer:
    """The potential on the box t**kmax reads phi0 below t**kmax only."""

    @pytest.mark.parametrize("adams", [False, True])
    def test_potential_from_the_lower_layers(self, adams):
        w, dmax = projective_space(2), (3,)
        for kmax in (1, 2, 5):
            lower = solve_phi0(w, kmax - 1, dmax, adams)
            assert potential(w, lower, adams, kmax=kmax) == \
                potential(w, solve_phi0(w, kmax, dmax, adams), adams)

    def test_potential_refuses_a_missing_layer(self):
        w = projective_space(1)
        with pytest.raises(ValueError, match=r"t\*\*2"):
            potential(w, solve_phi0(w, 1, (2,)), kmax=3)
        with pytest.raises(ValueError, match=r"t\*\*2"):
            class_table(w, solve_phi0(w, 1, (2,)), kmax=3)

    def test_layers_grow_from_the_slice_only(self):
        w = p1xp1_target()
        with pytest.raises(ValueError, match=r"t = 0 slice, not from t\*\*1"):
            solver.t_layers(solve_phi0(w, 1, (2, 2)), 4)


RUNS = [("point_run", False), ("p1_run", False), ("p2_run", False), ("p1_adams_run", True),
        ("p2_adams_run", True)]
# numerators and denominators of drawn slice cells: 2u + 1 makes the
# slice's denominator D = u + 1/2 monic with a fractional coefficient
CELL_NUMS = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any)
CELL_DENS = st.sampled_from([(1,), (2, 1), (1, 2), (-1, 0, 1), (1, 2, 0, 3)])


class TestTLayers:
    """t_layers, the t-layers as polynomials A_k(x)/k! in x = R0/(1 - u R0),
    against the layer-by-layer series recurrence (layers_by_recurrence)."""

    @pytest.mark.parametrize("run, adams", RUNS)
    def test_fixtures_equal_the_recurrence(self, request, run, adams):
        # at u on the exact slice, and at 1 on the Euler limit's slice
        run = request.getfixturevalue(run)
        w, kmax, dmax, phi0 = run["w"], run["kmax"], run["dmax"], run["phi0"]
        r0 = phi0.truncate(kmax=0)
        assert solver.t_layers(r0, kmax) == layers_by_recurrence(r0, kmax) == phi0
        limit = solve_phi0_chi(w, 0, dmax, adams)
        assert solver.t_layers(limit, kmax, RF_ONE) == layers_by_recurrence(limit, kmax, RF_ONE)

    @given(data=st.data())
    def test_drawn_slices_equal_the_recurrence(self, data):
        rank = data.draw(st.integers(0, 2), label="rank")
        dmax = tuple(data.draw(st.lists(st.integers(0, 4 if rank == 1 else 2),
                                        min_size=rank, max_size=rank), label="dmax"))
        cells = {(0, d): RatFunc(UPoly(data.draw(CELL_NUMS, label=f"num {d}")),
                                 UPoly(data.draw(CELL_DENS, label=f"den {d}")))
                 for d in box_vectors(dmax) if any(d) and data.draw(st.booleans())}
        r0 = MultiSeries(Grading(rank), 0, dmax, cells)
        kmax = data.draw(st.integers(1, 4), label="kmax")
        for u in (RF_U, RF_ONE):
            assert solver.t_layers(r0, kmax, u) == layers_by_recurrence(r0, kmax, u)

    def test_fractional_slice_denominator(self):
        # P_W = 2u + 1: the slice's denominator is monic with the
        # coefficient 1/2, and the layers still equal the recurrence
        w = target_from_json({"name": "half", "rank": 1, "pw": ["1", "2"], "classes": [
            {"beta": [1], "value": {"num": ["1", "1"], "den": ["1"]}},
            {"beta": [2], "value": {"num": ["0", "3"], "den": ["1"]}}]})
        r0 = solve_phi0(w, 0, (2,))
        assert any(c.den.denom != 1 for c in r0.coeffs.values())
        for adams in (False, True):
            phi0 = solve_phi0(w, 4, (2,), adams)
            assert phi0 == layers_by_recurrence(phi0.truncate(kmax=0), 4)
            assert verify_functional_equation(w, phi0, adams).is_zero

    @pytest.mark.parametrize("u, u_poly", [((0, 1), U), ((1,), P_ONE)])
    def test_table_is_the_quadratic_recurrence(self, u, u_poly):
        # every A_k is integral of x-degree at most 2k - 1, and equals the
        # table from A_{k+1} = (1 + u x)((u+1) A_k + [k=1] + u sum C(k,i) A_i A_{k+1-i});
        # cut at a lower x-degree, the table is the full one's head
        kmax = 9
        table = solver._layer_table(u, kmax, 2 * kmax)
        for k, a in enumerate(table, 1):
            assert len(a) <= 2 * k and all(type(c) is int for row in a for c in row)
        assert [[UPoly(row) for row in a] for a in table] == x_table_by_products(u_poly, kmax)
        for degree in (0, 3, 10):
            assert solver._layer_table(u, kmax, degree) == [a[:degree + 1] for a in table]

    def test_other_u_refused(self):
        r0 = solve_phi0(projective_space(1), 0, (2,))
        for u in (RatFunc(2), RatFunc(UPoly((0, 2))), RatFunc(P_ONE, UPoly((1, 1)))):
            with pytest.raises(ValueError, match="the constant 1"):
                solver.t_layers(r0, 2, u)

    @pytest.mark.parametrize("suite", ["ode", "fe"])
    def test_tampered_table_entry_fails_the_suites(self, monkeypatch, capsys, suite):
        real = solver._layer_table

        def tampered(u, kmax, degree):
            table = real(u, kmax, degree)
            table[1][1][0] += 1  # the constant term in u of A_2 at x**1
            return table
        argv = ["verify", "--suite", suite, "--target", "pn:2", "--kmax", "3", "--dmax", "2"]
        assert cli.main(argv) == 0
        monkeypatch.setattr(solver, "_layer_table", tampered)
        assert cli.main(argv) == 1 and f"FAIL {suite}" in capsys.readouterr().out


def rational_target():
    """A rank-1 descriptor with P_W = u + 1 and [Map_1] = (3u^2 + 1)/(u^2 + 1):
    the class of (k = 0, beta = 1) keeps a denominator."""
    return target_from_json({"name": "rational", "rank": 1, "pw": ["1", "1"],
                             "classes": [{"beta": [1], "value": {"num": ["1", "0", "3"],
                                                                 "den": ["1", "0", "1"]}}]})


def limit_rational_target():
    """Rank 1, P_W = u + 1, with classes that are not polynomials in u but
    whose ratio to P_W vanishes at u = 1."""
    return target_from_json({"name": "rational", "rank": 1, "pw": ["1", "1"], "classes": [
        {"beta": [1], "value": {"num": ["-1", "0", "1"], "den": ["1", "0", "1"]}},
        {"beta": [2], "value": {"num": ["-1", "0", "0", "1"], "den": ["2", "1"]}},
        {"beta": [3], "value": {"num": ["-1", "1"], "den": ["3"]}}]})


def half_target():
    """A rank-1 descriptor with the non-monic P_W = 2u + 1 and rational
    classes whose ratios to P_W vanish at u = 1, with derivatives 2/3, 1/6
    and 1/9 there: the slice's D = u(u-1)(2u+1) is not monic, and the
    Euler limit's X has cells that are not ints."""
    return target_from_json({"name": "half", "rank": 1, "pw": ["1", "2"], "classes": [
        {"beta": [1], "value": {"num": ["-3/2", "1", "1/2"], "den": ["1"]}},
        {"beta": [2], "value": {"num": ["-1", "0", "1"], "den": ["3", "1"]}},
        {"beta": [3], "value": {"num": ["0", "-1", "1"], "den": ["1", "0", "2"]}}]})


def gcd_calls(monkeypatch) -> list:
    """A list that gains an entry on every upoly_gcd call made through
    qfield, series or solver."""
    calls, real = [], qfield.upoly_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)
    for module in (qfield, series, solver):
        monkeypatch.setattr(module, "upoly_gcd", counted)
    return calls


class TestIntSlice:
    """_slice, on int rows scaled by |d|!, against the RatFunc recurrence
    it replaced (reference.slice_by_ratfuncs)."""

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("run", ["point_run", "p1_run", "p2_run", "p1_adams_run",
                                     "p2_adams_run"])
    def test_fixtures_equal_the_ratfunc_slice(self, request, run, adams):
        run = request.getfixturevalue(run)
        w, dmax = run["w"], run["dmax"]
        assert solver._slice(w, dmax, adams) == slice_by_ratfuncs(w, dmax, adams)

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("make, dmax", [
        (rational_target, (1,)), (limit_rational_target, (3,)), (half_target, (3,)),
        (p1xp1_target, (2, 2)), (lambda: projective_space(3), (7,))],
        ids=["rational", "rational-limit", "half", "p1xp1", "pn:3"])
    def test_targets_equal_the_ratfunc_slice(self, make, dmax, adams):
        w = make()
        got = solver._slice(w, dmax, adams)
        assert got == slice_by_ratfuncs(w, dmax, adams)
        assert verify_functional_equation(w, got, adams).is_zero

    @pytest.mark.parametrize("adams", [False, True])
    @pytest.mark.parametrize("make, dmax", [
        (lambda: projective_space(1), (9,)), (lambda: projective_space(2), (6,)),
        (lambda: projective_space(4), (4,)), (p1xp1_target, (2, 2))],
        ids=["pn:1", "pn:2", "pn:4", "p1xp1"])
    def test_no_polynomial_gcd(self, monkeypatch, make, dmax, adams):
        # every slice cell of these targets is a polynomial, so each base
        # divides out as its cell comes up, and nothing is left for a gcd
        w = make()
        calls = gcd_calls(monkeypatch)
        solver._slice(w, dmax, adams)
        assert calls == []

    def test_rational_descriptor_takes_a_gcd(self, monkeypatch):
        # the count above can see one: a rational descriptor's slice keeps
        # a denominator, and the series takes its gcd with the rows
        calls = gcd_calls(monkeypatch)
        solver._slice(rational_target(), (1,), False)
        assert calls


class TestClassTable:
    """class_table reads the table off phi0; it must be the potential
    route's extract_classes(potential(...)) cell for cell."""

    @pytest.mark.parametrize("run, adams", [
        ("point_run", False), ("point_run", True), ("p1_run", False), ("p2_run", False),
        ("p1_adams_run", True), ("p2_adams_run", True)])
    def test_equals_the_potential_route(self, request, run, adams):
        run = request.getfixturevalue(run)
        w, kmax, dmax = run["w"], run["kmax"], run["dmax"]
        whole = solve_phi0(w, kmax, dmax, adams)
        short = solve_phi0(w, kmax - 1, dmax, adams)
        for phi0, box in ((whole, kmax), (short, kmax), (whole, 0), (short, 0),
                          (solve_phi0(w, 0, dmax, adams), 0)):
            table = class_table(w, phi0, adams, kmax=box)
            assert table == extract_classes(potential(w, phi0, adams, kmax=box), w)
            assert (table.kmax, table.dmax, table.target_name) == (box, dmax, w.name)
        assert class_table(w, whole, adams) == extract_classes(potential(w, whole, adams), w)

    def test_rational_descriptor_is_the_same_error(self):
        w = rational_target()
        phi0 = solve_phi0(w, 2, (1,))
        with pytest.raises(ValueError) as want:
            extract_classes(potential(w, phi0), w)
        with pytest.raises(ValueError) as got:
            class_table(w, phi0)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("non-polynomial class at (k=0, beta=(1,)): ")

    @pytest.mark.parametrize("den, bad", [((1, 1), None), ((2, 1), "(k=2, beta=(1,))")])
    def test_cell_with_a_denominator(self, den, bad):
        # a phi0 cell over u + 1 is cancelled by P_W = u + 1 of P^1, one over
        # u + 2 survives: the RatFunc path either gives the potential
        # route's class or raises its error
        w = projective_space(1)
        phi0 = MultiSeries(w.grading, 1, (1,), {(1, (1,)): RatFunc(UPoly((3, 0, 1)), UPoly(den)),
                                                (0, (1,)): RatFunc(UPoly((1, 2)))})
        if bad is None:
            table = class_table(w, phi0, kmax=2)
            assert table == extract_classes(potential(w, phi0, kmax=2), w)
            assert table.entry(2, (1,)) == UPoly((3, 0, 1))
            return
        with pytest.raises(ValueError) as want:
            extract_classes(potential(w, phi0, kmax=2), w)
        with pytest.raises(ValueError, match=re.escape(bad)) as got:
            class_table(w, phi0, kmax=2)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("num, den, bad", [((1,), (1,), True), ((1, 1), (1, 1, 1), False),
                                               ((2, 1), (1, 1, 1), True)],
                             ids=["remainder", "cancelled", "denominator"])
    def test_t0_row_is_the_potential_routes(self, num, den, bad):
        # the k = 0 class P_W (2 R0 - u R0^2) / (2(u+1)) on pn:2, where
        # P_W = u^2 + u + 1: with R0 = z it is not a polynomial, with R0 =
        # (u+1)/P_W z it is 1, and with R0 = (u+2)/P_W z a denominator
        # survives; each gives the potential route's class or its error
        w = projective_space(2)
        phi0 = MultiSeries(w.grading, 0, (1,), {(0, (1,)): RatFunc(UPoly(num), UPoly(den))})
        if not bad:
            table = class_table(w, phi0, kmax=1)
            assert table == extract_classes(potential(w, phi0, kmax=1), w)
            assert table.entry(0, (1,)) == UPoly((1,))
            return
        with pytest.raises(ValueError) as want:
            extract_classes(potential(w, phi0, kmax=1), w)
        with pytest.raises(ValueError, match=re.escape("(k=0, beta=(1,))")) as got:
            class_table(w, phi0, kmax=1)
        assert str(got.value) == str(want.value)


# JSON trees of the kinds the CLI writes: dicts with str keys, lists, strs
# and ints, with non-ASCII text, quotes, backslashes and control characters
JSON_TREES = st.recursive(
    st.text() | st.integers() | st.integers(min_value=-2 ** 300, max_value=2 ** 300),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25)


class TestIndentedJson:
    @given(JSON_TREES)
    @example({"quote\"back\\slash": ["\x00\x1f\x7f\u2028\u00e9\u2603\U0001F600", -10 ** 40],
              "": [[], {}, [{}], {"": []}], "\u00e9": 0})
    @example([])
    @example("")
    @example(-1)
    def test_equals_json_dumps(self, obj):
        assert indented_json(obj) == json.dumps(obj, indent=2) + "\n"

    def test_trees_are_written_without_json_dumps(self, monkeypatch):
        obj = {"target": "p\u00b9", "entries": [{"k": 3, "beta": [], "chi": "-1/2"}]}
        expected = json.dumps(obj, indent=2) + "\n"
        monkeypatch.setattr(json, "dumps", lambda *a, **k: pytest.fail("json.dumps called"))
        assert indented_json(obj) == expected

    @pytest.mark.parametrize("obj", [
        {"a": [1, True]}, [None], {"x": {"y": 1.5}}, [float("nan")], {"t": (1, "a")},
        {1: "a"}, {"a": {None: 2}}, [False, 0]])
    def test_other_values_go_to_json_dumps(self, monkeypatch, obj):
        calls, real = [], json.dumps

        def recorded(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(json, "dumps", recorded)
        assert indented_json(obj) == real(obj, indent=2) + "\n"
        assert calls == [obj]
