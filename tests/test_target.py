import itertools
import json

import pytest

from stablemaps import target
from stablemaps.eulerchi import chi_table, xseries
from stablemaps.qfield import MOEBIUS_CLASS, P_ONE, RatFunc, U, UPoly, necklace
from stablemaps.solver import solve_phi0
from stablemaps.target import (_factor_masks, count_maps_bruteforce,
                               eisenstein_series, load_target, nclass,
                               parse_target, point_target, projective_space,
                               target_from_json, verify_recurrence)
from stablemaps.trees import tree_sum_potential

from reference import div_exact


def pn_class(n):
    return UPoly([1] * (n + 1))


class TestProjectiveSpace:
    def test_degree_one_line(self):
        w = projective_space(1)
        assert w.map_class((1,)) == RatFunc(MOEBIUS_CLASS)

    def test_degree_zero_is_target(self):
        w = projective_space(1)
        assert w.map_class((0,)) == RatFunc(UPoly((1, 1)))

    def test_plane_degree_one(self):
        # (u^2+u+1)(u^3-u)
        w = projective_space(2)
        assert w.map_class((1,)) == RatFunc(pn_class(2) * (UPoly.monomial(3) - U))

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            projective_space(0)

    def test_map_class_divisible_by_target_class(self):
        # evaluation at a point fibers the map space over the target
        for n in (1, 2, 3):
            w = projective_space(n)
            for d in range(1, 5):
                q = div_exact(w.map_class((d,)).as_upoly(), pn_class(n))
                assert q * pn_class(n) == w.map_class((d,)).as_upoly()


class TestEisenstein:
    def test_line_series(self):
        w = projective_space(1)
        e = eisenstein_series(w, (3,))
        assert e.coeff(0, (0,)) == RatFunc(UPoly((1, 1)))
        assert e.coeff(0, (1,)) == RatFunc(UPoly((0, -1, 0, 1)))   # u^3 - u
        assert e.coeff(0, (2,)) == RatFunc(UPoly((0, 0, 0, -1, 0, 1)))  # u^5 - u^3

    def test_degree_zero_is_target_class(self):
        for w in (projective_space(2), point_target()):
            e = eisenstein_series(w, w.grading.zero)
            assert e.coeff(0, w.grading.zero) == RatFunc(w.pw)

    def test_geometric_ratio(self):
        # successive map classes differ by the factor u^(n+1) from d >= 1 on
        for n in (1, 2, 3):
            w = projective_space(n)
            e = eisenstein_series(w, (4,))
            step = RatFunc(UPoly.monomial(n + 1))
            for d in range(1, 4):
                assert e.coeff(0, (d + 1,)) == e.coeff(0, (d,)) * step


class TestNClass:
    def test_line(self):
        assert nclass(projective_space(1), (1,)) == RatFunc(P_ONE, UPoly((1, 1)))

    def test_plane_is_one(self):
        assert nclass(projective_space(2), (1,)) == RatFunc(1)

    def test_beta_zero_universal(self):
        expected = RatFunc(P_ONE, MOEBIUS_CLASS)
        for w in (point_target(), projective_space(1), projective_space(3)):
            assert nclass(w, w.grading.zero) == expected
            assert nclass(w, w.grading.zero) * RatFunc(MOEBIUS_CLASS) == RatFunc(1)


class TestRecurrence:
    def test_small_cases_by_hand(self):
        w = projective_space(1)
        um1 = RatFunc(UPoly((-1, 1)))
        # d = 0: [P^1](u-1) = u^2-1
        assert w.map_class((0,)) * um1 == RatFunc(UPoly((-1, 0, 1)))
        # d = 1: [Map_1](u-1) + [P^1](u^2-1) = u^4-1
        got = w.map_class((1,)) * um1 + w.map_class((0,)) * RatFunc(UPoly((-1, 0, 1)))
        assert got == RatFunc(UPoly.monomial(4) - P_ONE)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holds(self, n):
        assert verify_recurrence(n, 4)

    @pytest.mark.parametrize("n, d, i", [(1, 1, 0), (2, 3, 5), (3, 2, 11)])
    def test_one_coefficient_off_is_caught(self, monkeypatch, n, d, i):
        # [Map_d] with its u**i coefficient raised by 1 breaks the identity
        # at degree d and above, and nowhere below
        real = target._pn_map_class
        monkeypatch.setattr(target, "_pn_map_class",
                            lambda m, e: real(m, e) + UPoly.monomial(i) if e == d else real(m, e))
        assert verify_recurrence(n, d - 1)
        assert not verify_recurrence(n, d)
        assert not verify_recurrence(n, d + 2)

    def test_negative_dmax_is_refused(self):
        # a negative dmax would check no degree at all and pass
        with pytest.raises(ValueError, match="need n >= 1 and dmax >= 0"):
            verify_recurrence(1, -1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_forward_substitution_recovers_classes(self, n):
        # solving the recurrence for [Map_d] must reproduce the closed form
        w = projective_space(n)
        um1 = RatFunc(UPoly((-1, 1)))
        known = {0: RatFunc(pn_class(n))}
        for d in range(1, 5):
            rhs = RatFunc(UPoly.monomial((n + 1) * (d + 1)) - P_ONE)
            for k in range(1, d + 1):
                rhs = rhs - known[d - k] * RatFunc(UPoly.monomial(k + 1) - P_ONE)
            known[d] = rhs / um1
            assert known[d] == w.map_class((d,))


class TestBox:
    def test_fills_in_and_normalises(self):
        assert projective_space(2).box(None) == (0,)
        assert projective_space(2).box([3], 4) == (3,)
        assert point_target().box(()) == ()

    # (kmax, dmax) on pn:1, each bad in one way
    BAD = {"rank": (2, (1, 2)), "negative dmax": (2, (-1,)), "negative kmax": (-1, (1,))}

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_one_message_from_every_entry_point(self, bad):
        w = projective_space(1)
        kmax, dmax = self.BAD[bad]
        with pytest.raises(ValueError) as expected:
            w.box(dmax, kmax)
        calls = [lambda: solve_phi0(w, kmax, dmax),
                 lambda: tree_sum_potential(w, kmax, dmax),
                 lambda: chi_table(w, kmax, dmax)]
        if kmax >= 0:  # xseries has no t-truncation
            calls.append(lambda: xseries(w, dmax))
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(expected.value)


def naive_count(n, d, p):
    """The (n+1)-tuples of degree-d binary forms over F_p with a unit
    homogeneous gcd, divided by p - 1, testing one tuple at a time.  For
    f = sum a_i t0**(d-i) t1**i the gcd is a unit iff some a_0 is nonzero
    (t1 divides no common factor) and the polynomials f(x, 1) have a
    constant gcd."""
    def gcd(a, b):  # coefficient lists, highest degree first, no leading zeros
        while b:
            a = list(a)
            while len(a) >= len(b):
                q = a[0] * pow(b[0], -1, p) % p
                a = [(x - q * y) % p for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
                while a and a[0] == 0:
                    a.pop(0)
            a, b = b, a
        return a

    count = 0
    for forms in itertools.product(itertools.product(range(p), repeat=d + 1),
                                   repeat=n + 1):
        if not any(form[0] for form in forms):
            continue
        g = []
        for form in forms:
            poly = list(form)
            while poly and poly[0] == 0:
                poly.pop(0)
            g = gcd(g, poly) if g else poly
            if len(g) == 1:
                count += 1
                break
    assert count % (p - 1) == 0
    return count // (p - 1)


NAIVE_CASES = [(n, d, p) for p in (2, 3, 5) for n in range(1, 15) for d in range(7)
               if p ** ((n + 1) * (d + 1)) <= 5 * 10 ** 4]


class TestBruteForceCount:
    @pytest.mark.parametrize("n, d, p", NAIVE_CASES)
    def test_matches_naive_enumeration(self, n, d, p):
        assert count_maps_bruteforce(n, d, p) == naive_count(n, d, p)

    @pytest.mark.parametrize("n, d, p", [(1, 2, 7), (2, 3, 3), (2, 2, 7), (1, 2, 31),
                                         (1, 8, 3), (1, 10, 2)])
    def test_larger_cases_match_closed_form(self, n, d, p):
        w = projective_space(n)
        assert count_maps_bruteforce(n, d, p) == w.map_class((d,)).eval_at(p)

    def test_examples(self):
        assert count_maps_bruteforce(1, 1, 2) == 6   # Moebius group over F_2
        assert count_maps_bruteforce(1, 1, 3) == 24
        assert count_maps_bruteforce(2, 1, 2) == 42

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_closed_form(self, n, d, p):
        w = projective_space(n)
        assert count_maps_bruteforce(n, d, p) == w.map_class((d,)).eval_at(p)

    def test_degree_zero(self):
        # constant maps: the target itself
        assert count_maps_bruteforce(1, 0, 5) == 6  # |P^1(F_5)|
        assert count_maps_bruteforce(2, 0, 3) == 13

    def test_size_guard(self):
        with pytest.raises(ValueError, match="too large"):
            count_maps_bruteforce(3, 3, 5)
        with pytest.raises(ValueError, match="too large"):
            count_maps_bruteforce(1, 10 ** 8, 2)  # refused before forming 2**(2*10**8)

    def test_prime_restriction(self):
        for p in (1, 4, 6):
            with pytest.raises(ValueError, match="not a prime"):
                count_maps_bruteforce(1, 1, p)
        # any prime under the size cap is accepted
        assert count_maps_bruteforce(1, 1, 7) == projective_space(1).map_class((1,)).eval_at(7)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_sieve_finds_the_irreducibles(self, p):
        # a monic polynomial is irreducible iff it carries a bit that no
        # polynomial of lower degree carries, and then it carries only that
        # one; there are necklace(k)(p) monic irreducibles of degree k
        masks = _factor_masks(4, p)
        seen = 0
        for k in range(1, 5):
            of_degree = [mask for poly, mask in masks.items() if len(poly) == k + 1]
            irreducible = [mask for mask in of_degree if mask & ~seen]
            assert all(mask & (mask - 1) == 0 for mask in irreducible)
            assert len(set(irreducible)) == len(irreducible) == necklace(k).eval(p)
            for mask in of_degree:
                seen |= mask
        assert not seen & 1  # bit 0 stands for t1


def p2_descriptor():
    w = projective_space(2)
    return {
        "name": "plane-from-file",
        "rank": 1,
        "pw": pn_class(2).to_json(),
        "classes": [
            {"beta": [d], "value": w.map_class((d,)).to_json()} for d in range(1, 4)
        ],
    }


class TestLoadTarget:
    def test_roundtrip_matches_builtin(self, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_descriptor()))
        loaded = load_target(path)
        builtin = projective_space(2)
        assert loaded.pw == builtin.pw
        for d in range(4):
            assert loaded.map_class((d,)) == builtin.map_class((d,))
        assert nclass(loaded, (1,)) == nclass(builtin, (1,))

    def test_parse_target_dispatch(self, tmp_path):
        assert parse_target("point").grading.rank == 0
        assert parse_target("pn:3").n == 3
        path = tmp_path / "t.json"
        path.write_text(json.dumps(p2_descriptor()))
        assert parse_target(f"file:{path}").name == "plane-from-file"
        with pytest.raises(ValueError):
            parse_target("nonsense")

    def test_missing_class_reported(self, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_descriptor()))
        loaded = load_target(path)
        with pytest.raises(ValueError, match="target data incomplete"):
            loaded.map_class((7,))

    def test_rank_mismatch_rejected(self):
        data = p2_descriptor()
        data["classes"][0]["beta"] = [1, 0]
        with pytest.raises(ValueError, match="rank"):
            target_from_json(data)

    def test_duplicate_beta_rejected(self):
        data = p2_descriptor()
        data["classes"].append(data["classes"][0])
        with pytest.raises(ValueError, match="duplicate"):
            target_from_json(data)

    def test_pole_at_one_rejected(self):
        data = p2_descriptor()
        data["classes"][0]["value"] = {"num": ["1"], "den": ["-1", "1"]}
        with pytest.raises(ValueError, match="pole at u = 1"):
            target_from_json(data)

    @pytest.mark.parametrize("den", [["0"], [], ["0", "0/5"]])
    def test_zero_denominator_rejected(self, den):
        data = p2_descriptor()
        data["classes"][0]["value"] = {"num": ["1"], "den": den}
        with pytest.raises(ValueError, match=r"^class for beta \(1,\) has a zero denominator$"):
            target_from_json(data)

    @pytest.mark.parametrize("place, message", [
        ("rank", "rank must be an integer"),
        ("beta", "beta must be a JSON list of integers"),
        ("pw", "pw must be a JSON list"),
        ("num", "num must be a JSON list"),
        ("den", "den must be a JSON list"),
    ])
    def test_json_booleans_rejected(self, place, message):
        # true is an int to Python; it must not pass as rank 1, degree 1 or 1
        data = p2_descriptor()
        if place == "rank":
            data["rank"] = True
        elif place == "beta":
            data["classes"][0]["beta"] = [True]
        elif place == "pw":
            data["pw"] = [True, "1", "1"]
        else:
            data["classes"][0]["value"][place] = [True]
        with pytest.raises(ValueError, match=message):
            target_from_json(data)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            load_target(path)

    def test_rank_two_product_accepted(self):
        # a rank-2 descriptor is validated structurally only
        w = projective_space(1)
        classes = []
        for a in range(3):
            for b in range(3):
                if a == b == 0:
                    continue
                value = w.map_class((a,)) * w.map_class((b,)) / RatFunc(UPoly((1, 1)))
                classes.append({"beta": [a, b], "value": value.to_json()})
        data = {"name": "p1xp1", "rank": 2,
                "pw": (UPoly((1, 1)) * UPoly((1, 1))).to_json(),
                "classes": classes}
        loaded = target_from_json(data)
        assert loaded.grading.rank == 2
        assert loaded.map_class((1, 1)) == RatFunc(MOEBIUS_CLASS) ** 2 / RatFunc(UPoly((1, 1)))
