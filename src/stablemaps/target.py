"""Target spaces and the generating series of their map-space classes.

A target W is described by the rank r of its lattice of curve classes, its
own class [W] as a polynomial in u, and the classes [Map_beta] of the
spaces of parametrized rational maps P^1 -> W in each curve class beta.
Curve classes are presented in a basis that makes the effective cone the
positive orthant, so beta ranges over Z+**r.

Projective space is built in:

    [P^n]        = 1 + u + ... + u**n
    [Map_d]      = [P^n] * u**((n+1)(d-1)) * (u**(n+1) - u)   for d >= 1
    [Map_0]      = [P^n]      (constant maps are points of the target)

which is exactly the expansion of the rational generating function

    E(P^n, z) = [P^n] * (1 - u z) / (1 - u**(n+1) z).

Degree r >= 1 targets other than P^n load from a JSON descriptor with the
classes given explicitly per beta.  The point target has rank 0.

The builtin classes satisfy, for every d >= 0,

    sum_{k=0}^{d} [Map_{d-k}] * (u**(k+1) - 1) = u**((n+1)(d+1)) - 1,

which expresses sorting the nonzero (n+1)-tuples of degree-d binary forms
by the degree of their common factor; verify_recurrence checks it as an
exact polynomial identity, and count_maps_bruteforce re-derives the same
numbers over a small prime field by counting the tuples themselves.  Its
state for a prefix of a tuple is the set of irreducible homogeneous factors
that the prefix's nonzero forms share, an int bitmask over t1 and the monic
irreducibles of F_p[x] of degree <= d, which a sieve lists; the gcd of the
tuple is a unit exactly when that set ends up empty.  The next forms are
counted class by class, by what they keep of that set.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction

from .qfield import MOEBIUS_CLASS, P_ONE, RatFunc, U, UPoly
from .series import Grading, MultiSeries, box_vectors


class TargetSpace:
    """Descriptor of a target: name, grading, class [W], map-space classes."""

    __slots__ = ("name", "grading", "pw", "n", "classes", "_cache")

    def __init__(self, name: str, grading: Grading, pw: UPoly,
                 classes=None, n=None):
        if pw.is_zero:
            raise ValueError("target class must be nonzero")
        self.name = name
        self.grading = grading
        self.pw = pw
        self.n = n
        self.classes = dict(classes) if classes else {}
        self._cache = {}

    def __repr__(self):
        return f"TargetSpace({self.name!r}, rank={self.grading.rank})"

    def box(self, dmax=None, kmax: int = 0) -> tuple:
        """The z-truncation dmax as a tuple, the zero box for None; rejects
        a dmax of the wrong rank, a negative component and a negative kmax,
        and a kmax or dmax component above sys.maxsize, which no box can be
        indexed by."""
        if kmax < 0:
            raise ValueError(f"kmax {kmax} must be >= 0")
        dmax = self.grading.zero if dmax is None else tuple(int(x) for x in dmax)
        if len(dmax) != self.grading.rank:
            raise ValueError(f"dmax {dmax} does not match the z-grading of rank "
                             f"{self.grading.rank} of target {self.name}")
        if any(x < 0 for x in dmax):
            raise ValueError(f"dmax {dmax} has a negative component")
        if max((kmax,) + dmax) > sys.maxsize:
            raise ValueError(f"box too large: a truncation order above {sys.maxsize} "
                             "cannot be indexed")
        return dmax

    def map_class(self, beta) -> RatFunc:
        """[Map_beta], with [Map_0] = [W] itself."""
        beta = tuple(int(b) for b in beta)
        if len(beta) != self.grading.rank:
            raise ValueError(f"beta {beta} has wrong rank for {self.name}")
        if any(b < 0 for b in beta):
            raise ValueError(f"beta {beta} is not effective")
        if all(b == 0 for b in beta):
            return RatFunc(self.pw)
        key = ("map", beta)
        got = self._cache.get(key)
        if got is None:
            if self.n is not None:  # the builtin P^n
                got = RatFunc(_pn_map_class(self.n, beta[0]))
            else:
                got = self.classes.get(beta)
                if got is None:
                    raise ValueError(
                        f"target data incomplete: no class for beta={beta} in {self.name}")
            self._cache[key] = got
        return got


def _pn_map_class(n: int, d: int) -> UPoly:
    # [P^n] * u**((n+1)(d-1)) * (u**(n+1) - u), d >= 1
    pn = UPoly([1] * (n + 1))
    tail = UPoly.monomial(n + 1) - U
    return pn * UPoly.monomial((n + 1) * (d - 1)) * tail


def projective_space(n: int) -> TargetSpace:
    """Builtin rank-1 target P^n, n >= 1, with closed-form map classes."""
    if n < 1:
        raise ValueError("projective space needs n >= 1")
    return TargetSpace(f"pn:{n}", Grading(1), UPoly([1] * (n + 1)), n=n)


def point_target() -> TargetSpace:
    """The one-point target: rank 0, [W] = 1, constant maps only."""
    return TargetSpace("point", Grading(0), P_ONE)


def parse_target(spec: str) -> TargetSpace:
    """Resolve a CLI-style target spec: 'point', 'pn:N' or 'file:PATH'."""
    if spec == "point":
        return point_target()
    if spec.startswith("pn:") and spec[3:].isascii() and spec[3:].isdigit():
        return projective_space(int(spec[3:]))
    if spec.startswith("file:"):
        return load_target(spec[5:])
    raise ValueError(f"unknown target spec {spec!r} (use point, pn:N or file:PATH)")


def eisenstein_series(w: TargetSpace, dmax) -> MultiSeries:
    """Generating series of map-space classes, sum_beta [Map_beta] z**beta,
    truncated at dmax; the z**0 coefficient is [W]."""
    dmax = tuple(int(x) for x in dmax)
    coeffs = {}
    for beta in box_vectors(dmax):
        coeffs[(0, beta)] = w.map_class(beta)
    return MultiSeries(w.grading, 0, dmax, coeffs)


def nclass(w: TargetSpace, beta) -> RatFunc:
    """Normalized map-space class [Map_beta] / ([W] * (u**3 - u)).

    For beta = 0 this is 1/(u**3 - u) for every target, since constant maps
    form a copy of the target itself.
    """
    beta = tuple(int(b) for b in beta)
    key = ("nclass", beta)
    got = w._cache.get(key)
    if got is None:
        got = w.map_class(beta) / (RatFunc(w.pw) * RatFunc(MOEBIUS_CLASS))
        w._cache[key] = got
    return got


def verify_recurrence(n: int, dmax: int) -> bool:
    """Exact polynomial identity check of the degree recurrence for P^n,
    for every d <= dmax, on int rows: each term [Map_{d-k}](u**(k+1) - 1)
    is the row of the class shifted up by k + 1, minus the row."""
    if n < 1 or dmax < 0:
        raise ValueError("need n >= 1 and dmax >= 0")
    classes = [UPoly([1] * (n + 1))] + [_pn_map_class(n, d) for d in range(1, dmax + 1)]
    scale = math.lcm(*(p.denom for p in classes))
    rows = [[c * (scale // p.denom) for c in p.numer] for p in classes]
    for d in range(dmax + 1):
        lhs = [0] * (max(map(len, rows[:d + 1])) + d + 1)
        for k in range(d + 1):
            for i, c in enumerate(rows[d - k]):
                lhs[i + k + 1] += c
                lhs[i] -= c
        rhs = [-scale] + [0] * ((n + 1) * (d + 1) - 1) + [scale]
        while lhs and not lhs[-1]:
            lhs.pop()
        if lhs != rhs:
            return False
    return True


# --- finite-field brute force ------------------------------------------------
#
# A binary form of degree d over F_p is a coefficient tuple (a_0..a_d) for
# f = sum a_i * t0**(d-i) * t1**i.  t1 divides f iff a_0 = 0, and the other
# irreducible factors of f are those of P(x) = f(x, 1) = sum a_i x**(d-i),
# a polynomial of degree d minus the t1-valuation of f.  The homogeneous gcd
# of a tuple of forms is a unit iff the forms share no irreducible factor.
#
# Along a tuple only the shared factor set S matters, and a next form with
# factor set r moves it to r & S.  So the forms of a slot fall into classes
# of equal r & S, at most 2**|S| of them, each counted at once; every form
# lies in exactly one class, so the sum over classes is the sum over forms.


def _factor_masks(d: int, p: int) -> dict:
    """The set of monic irreducible factors of every monic polynomial of
    degree <= d over F_p, as an int bitmask keyed by the low-to-high
    coefficient tuple.  Bit 0 is left for t1.

    A sieve: in increasing degree, a monic polynomial that no earlier
    irreducible divides is irreducible, and its bit goes into every multiple
    of it of degree <= d."""
    by_degree = [[low + (1,) for low in itertools.product(range(p), repeat=k)]
                 for k in range(d + 1)]
    masks = dict.fromkeys(itertools.chain.from_iterable(by_degree), 0)
    bit = 1
    for k in range(1, d + 1):
        for poly in by_degree[k]:
            if masks[poly]:  # an irreducible of lower degree divides it
                continue
            bit <<= 1
            for q in itertools.chain.from_iterable(by_degree[:d - k + 1]):
                prod = [0] * (k + len(q))
                for i, a in enumerate(poly):
                    for j, b in enumerate(q):
                        prod[i + j] += a * b
                masks[tuple(c % p for c in prod)] |= bit
    return masks


def check_count_request(n: int, d: int, p: int) -> None:
    """Raise ValueError unless count_maps_bruteforce(n, d, p) may run: n >= 1,
    d >= 0, p a prime, and at most 10^9 form tuples."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    exponent = (n + 1) * (d + 1)
    # p**30 exceeds the cap for every p >= 2, so the power stays small
    if p > 1 and (exponent > 30 or p ** exponent > 10 ** 9):
        raise ValueError(f"too large: p^((n+1)(d+1)) = {p}^{exponent} "
                         "tuples exceed the cap of 10^9")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"p = {p} is not a prime")


def count_maps_bruteforce(n: int, d: int, p: int) -> int:
    """Count degree-d maps P^1 -> P^n over F_p by counting form tuples.

    Counts the (n+1)-tuples of degree-d binary forms over F_p that are not
    identically zero and whose homogeneous gcd is a unit, and divides by
    p - 1 (the free scalar action).  The state of a processed prefix is the
    set of irreducible homogeneous factors that all its nonzero forms share,
    an int bitmask: bit 0 is t1, the other bits are the monic irreducibles
    of F_p[x] of degree <= d, found by a sieve.  The empty prefix has state
    -1 (every factor), a nonzero form intersects the state with its own
    factor set, and the gcd is a unit exactly at state 0.  The state is all
    a suffix needs, so counts are memoized per (slot, state), and a prefix
    that already reached state 0 counts its completions in one step.  Each
    slot takes the zero form once, which leaves the state alone, and one
    form per F_p^* orbit of nonzero forms (first nonzero coefficient 1) with
    weight p - 1: scaling a form by c != 0 does not change its factors.

    For a state S other than -1, the representatives are counted class by
    class, keyed by mask & S: holders[b] is the bitset of representatives
    whose mask has the bit b, and the class T is the intersection of the
    holders of the bits of T with the complements for the bits of S outside
    T, split off bit by bit with empty classes dropped.  Its popcount times
    the completions from T replaces one step per representative, and the
    count is exactly the naive one.

    Returns the number of F_p-points of the degree-d map space, which must
    equal the closed-form class [Map_d] evaluated at u = p.
    """
    check_count_request(n, d, p)
    slots = n + 1
    per_slot = p ** (d + 1)
    factors = _factor_masks(d, p)
    # the factor set of each orbit's representative, whose first nonzero
    # coefficient a_v is 1, so that P(x) is monic of degree d - v
    reps = []
    for form in itertools.product(range(p), repeat=d + 1):
        if next(filter(None, form), 0) == 1:
            v = form.index(1)
            reps.append((v > 0) | factors[form[v:][::-1]])
    holders = {}  # a factor bit -> the bitset of the indices that have it
    for i, mask in enumerate(reps):
        while mask:
            low = mask & -mask
            holders[low] = holders.get(low, 0) | 1 << i
            mask ^= low
    everyone = (1 << len(reps)) - 1

    count_cache = {}

    def completions(slot, state):
        if not state:
            return per_slot ** (slots - slot)
        if slot == slots:
            return 0
        got = count_cache.get((slot, state))
        if got is not None:
            return got
        if state == -1:  # an all-zero prefix: the next form's set is its own
            nonzero = sum(completions(slot + 1, mask) for mask in reps)
        else:
            classes = [(0, everyone)]  # (mask & state, its members)
            rest = state
            while rest:
                low = rest & -rest
                rest ^= low
                split = []
                for key, members in classes:
                    inside = members & holders[low]
                    if inside:
                        split.append((key | low, inside))
                    if members ^ inside:
                        split.append((key, members ^ inside))
                classes = split
            nonzero = sum(members.bit_count() * completions(slot + 1, key)
                          for key, members in classes)
        total = completions(slot + 1, state) + (p - 1) * nonzero
        count_cache[(slot, state)] = total
        return total

    raw = completions(0, -1)
    if raw % (p - 1):
        raise AssertionError("coprime-tuple count not divisible by p - 1")
    return raw // (p - 1)


# --- JSON target descriptors --------------------------------------------------

def _json_poly(data, field: str) -> UPoly:
    # strings or integers only: a JSON float is inexact, Infinity has no ratio,
    # and true/false are ints to Python (so `type(c) is int`, as for rank and beta)
    if not isinstance(data, list) or not all(isinstance(c, str) or type(c) is int
                                             for c in data):
        raise ValueError(f"{field} must be a JSON list of coefficient strings")
    coeffs = []
    for c in data:
        try:
            coeffs.append(Fraction(c))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{field} coefficient {c!r} is not a rational number") from None
    return UPoly(coeffs)


def target_from_json(data) -> TargetSpace:
    """Validate and build a TargetSpace from a parsed JSON descriptor.

    Schema: {"name": str, "rank": r >= 1, "pw": [coeff strings],
             "classes": [{"beta": [r ints], "value": {"num": [...], "den": [...]}}]}.

    Every supplied class must be pole-free at u = 1; the Euler-limit
    computation divides by u - 1 there and validation at load keeps that
    failure mode out of the pipeline.
    """
    if not isinstance(data, dict):
        raise ValueError("target descriptor must be a JSON object")
    for field in ("name", "rank", "pw", "classes"):
        if field not in data:
            raise ValueError(f"target descriptor missing field {field!r}")
    rank = data["rank"]
    if type(rank) is not int or rank < 1:
        raise ValueError("rank must be an integer >= 1")
    pw = _json_poly(data["pw"], "pw")
    if pw.is_zero:
        raise ValueError("pw must be a nonzero polynomial")
    if not isinstance(data["classes"], list):
        raise ValueError("classes must be a JSON list")
    classes = {}
    for item in data["classes"]:
        if not isinstance(item, dict):
            raise ValueError("each class entry must be a JSON object")
        for field in ("beta", "value"):
            if field not in item:
                raise ValueError(f"class entry missing field {field!r}")
        beta = item["beta"]
        if not isinstance(beta, list) or not all(type(b) is int for b in beta):
            raise ValueError("beta must be a JSON list of integers")
        beta = tuple(beta)
        if len(beta) != rank:
            raise ValueError(f"beta {beta} does not match rank {rank}")
        if any(b < 0 for b in beta):
            raise ValueError(f"beta {beta} is not effective")
        if all(b == 0 for b in beta):
            raise ValueError("beta = 0 must not be listed; it is the target class itself")
        if beta in classes:
            raise ValueError(f"duplicate class entry for beta {beta}")
        value = item["value"]
        if not isinstance(value, dict) or not {"num", "den"} <= value.keys():
            raise ValueError(f"value for beta {beta} must be an object with "
                             "fields 'num' and 'den'")
        num, den = (_json_poly(value[f], f) for f in ("num", "den"))
        if den.is_zero:
            raise ValueError(f"class for beta {beta} has a zero denominator")
        value = RatFunc(num, den)
        if value.den.eval(1) == 0:
            raise ValueError(f"class for beta {beta} has a pole at u = 1")
        classes[beta] = value
    return TargetSpace(str(data["name"]), Grading(rank), pw, classes=classes)


def load_target(path) -> TargetSpace:
    """Load and validate a JSON target descriptor from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise ValueError(f"malformed target file {path}: {exc}") from exc
    return target_from_json(data)
