"""Independent references the tests compare the package against.

- div_exact: exact polynomial division, refusing a remainder.
- CellSeries and cell_sum_of_products: box-truncated series held as RatFunc
  cells, with naive cell-by-cell arithmetic and no int rows, packing or
  shared denominator.
- stationary: the order-by-order iteration phi <- step(phi) that gives each
  route's full-box reference root, with no slice recurrence and no
  differential equation.
- layers_by_recurrence: the t-layers of the universal differential
  equation, each layer a series solved from the layers below it with
  (1 - u R0) inverted once, with no table of polynomials in x; and
  x_table_by_products, that table from its defining quadratic recurrence,
  with no derivative.
- root_factor_cells: the tree sum's root factor of one vertex type, cell
  by cell from nclass and the closed points M_j of P^1, with no stratum
  shared between cells and no int rows.
- The labelled-marking route: MarkedTree, enum_marked and stratum_class
  price every labelled marking of a tree separately, with no quotient by
  Aut, so that summing them weighted by 1/|Aut| re-derives the tree sum's
  cells.
- A second canonicaliser: tree_code finds the centre of an arbitrary
  labelled tree by iterated leaf removal and encodes it, independently of
  the centre construction the census enumerates by.
- _code_to_edges and tree_edges: a concrete edge list for a census tree,
  for the relabelling and element-by-element automorphism checks.
- build_parser and parse_reference: the argparse command line that the CLI's
  flag table replaced, with the int flags read after parsing as they were
  then, so that the table's reading of an argv can be compared with it.
"""

from __future__ import annotations

import argparse
import itertools
import re
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd
from operator import add

from stablemaps import cli
from stablemaps.eulerchi import xseries
from stablemaps.qfield import (LINE_CLASS, RF_ONE, RF_U, RF_ZERO, RatFunc, UPoly, binom_falling,
                               necklace)
from stablemaps.series import MultiSeries, series_pow_binomial, slice_cells
from stablemaps.target import TargetSpace, eisenstein_series, nclass
from stablemaps.trees import Tree, _code_bytes


def div_exact(a: UPoly, b: UPoly) -> UPoly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError(f"inexact polynomial division: ({a}) / ({b})")
    return q


class CellSeries:
    """A series on the box (kmax, dmax) as {(k, d): RatFunc} over its
    nonzero cells; a cell off the box is dropped.  Each operation works cell
    by cell in RatFunc arithmetic, on the common box of its operands."""

    def __init__(self, kmax: int, dmax, cells):
        self.kmax, self.dmax = kmax, tuple(dmax)
        self.cells = {(k, d): c for (k, d), c in cells.items()
                      if not c.is_zero and k <= kmax and all(map(int.__le__, d, self.dmax))}

    def _box(self, other) -> tuple:
        return min(self.kmax, other.kmax), tuple(map(min, self.dmax, other.dmax))

    def __add__(self, other):
        out = dict(self.cells)
        for key, c in other.cells.items():
            out[key] = out.get(key, RF_ZERO) + c
        return CellSeries(*self._box(other), out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for (k1, d1), c1 in self.cells.items():
            for (k2, d2), c2 in other.cells.items():
                key = (k1 + k2, tuple(map(add, d1, d2)))
                out[key] = out.get(key, RF_ZERO) + c1 * c2
        return CellSeries(*self._box(other), out)

    def scale(self, c):
        c = c if isinstance(c, RatFunc) else RatFunc(c)
        return CellSeries(self.kmax, self.dmax, {key: v * c for key, v in self.cells.items()})

    def truncate(self, kmax: int, dmax):
        return CellSeries(min(kmax, self.kmax), tuple(map(min, dmax, self.dmax)), self.cells)

    def adams(self, k: int):
        """psi_k: u -> u**k, z**b -> z**(k b), t -> 0 for k >= 2; psi_1 is
        the identity."""
        if k == 1:
            return self
        return CellSeries(self.kmax, self.dmax, {(0, tuple(k * x for x in d)): c.adams(k)
                                                 for (j, d), c in self.cells.items() if not j})

    def dt(self):
        """The formal t-derivative, on the box (kmax - 1, dmax)."""
        return CellSeries(self.kmax - 1, self.dmax,
                          {(k - 1, d): c * k for (k, d), c in self.cells.items() if k})


def cell_sum_of_products(terms, kmax: int, dmax) -> CellSeries:
    """sum over terms (left, right) of (sum of left) * (sum of right) on the
    box (kmax, dmax), a right of None standing for the unit series."""
    zero = CellSeries(kmax, dmax, {})
    unit = CellSeries(kmax, dmax, {(0, (0,) * len(dmax)): RF_ONE})
    total = zero
    for left, right in terms:
        right = [unit] if right is None else right
        total = total + sum(left, zero) * sum(right, zero)
    return total


def stationary(step, phi):
    """Iterate phi <- step(phi) until it stops changing and return that series.
    A step that settles one more total order per pass is stationary after at
    most phi.max_total_order() + 2 updates; a RuntimeError says it never did."""
    for _ in range(phi.max_total_order() + 3):
        nxt = step(phi)
        if nxt == phi:
            return phi
        phi = nxt
    raise RuntimeError("iteration failed to become stationary")


def layers_by_recurrence(r0, kmax: int, u=RF_U):
    """phi0 = sum_k phi_k t**k on the box (kmax, dmax of the t = 0 slice r0)
    from the t**k coefficient of (1 - u phi0) phi0_t = (u+1) phi0 + t,

        phi_{k+1} = (1 - u R0)**-1 * ( (u+1)/(k+1) phi_k + [k=1]/2
                                       + u sum_{i<k+1-i} phi_i phi_{k+1-i}
                                       + u/2 [k+1 even] phi_{(k+1)/2}**2 ),

    one series product per unordered pair {i, k+1-i}, layer by layer."""
    if not kmax:
        return r0
    layers = [r0]
    inv = series_pow_binomial(r0.scale(-u), -1)
    for k in range(kmax):
        rhs = layers[k].scale((u + 1) * Fraction(1, k + 1))
        off = [layers[i] * layers[k + 1 - i] for i in range(1, k // 2 + 1)]
        if off:
            rhs = rhs + sum(off[1:], off[0]).scale(u)
        if k % 2:
            mid = layers[(k + 1) // 2]
            rhs = rhs + (mid * mid).scale(u * Fraction(1, 2))
        if k == 1:
            rhs = rhs + MultiSeries.const(r0.grading, 0, r0.dmax, Fraction(1, 2))
        layers.append(inv * rhs)
    coeffs = {(k, d): c for k, layer in enumerate(layers)
              for (_, d), c in layer.coeffs.items()}
    return MultiSeries(r0.grading, kmax, r0.dmax, coeffs)


def x_table_by_products(u: UPoly, kmax: int) -> list:
    """[A_1, ..., A_kmax], A_k as the list of its x-coefficients (UPolys),
    from A_1 = (u+1) x and
    A_{k+1} = (1 + u x)((u+1) A_k + [k=1] + u sum_{i=1}^{k} C(k, i) A_i A_{k+1-i}),
    untruncated, on lists of UPolys."""
    def times(a, b):
        out = [UPoly()] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return out

    def plus(a, b):
        a, b = (a, b) if len(a) >= len(b) else (b, a)
        return [x + y for x, y in zip(a, b)] + a[len(b):]

    u1 = u + 1
    table = [None, [UPoly(), u1]]
    for k in range(1, kmax):
        rhs = [c * u1 for c in table[k]]
        if k == 1:
            rhs = plus(rhs, [UPoly((1,))])
        for i in range(1, k + 1):
            rhs = plus(rhs, [c * (u * comb(k, i)) for c in times(table[i], table[k + 1 - i])])
        table.append(times([UPoly((1,)), u], rhs))
    return table[1:]


def slice_by_ratfuncs(w: TargetSpace, dmax, adams: bool) -> MultiSeries:
    """R0 = phi0|_{t=0} on the z-box dmax, one cell at a time in RatFunc
    arithmetic, with no scaling: beside r = R0 it keeps h = (1 + R0)**u
    (h_lower is H'_d) and ea = E * A, and with adams=True lg = log(1 + R0),
    lam = log A and A, from

        |d| H'_d = sum_{0<f<d} (u|f| - |d-f|) R0_f H_{d-f},
        R0_d = (P_W H'_d + sum_{0<f<=d} (E A)_f H_{d-f}) / (u(u-1) P_W),
        H_d = u R0_d + H'_d,
        |d| l_d = |d| R0_d - sum_{0<f<d} |d-f| l_{d-f} R0_f,
        Lambda_d = sum_{k>=2 dividing d} M_k l_{d/k}(u -> u**k),
        |d| A_d = sum_{0<f<=d} |f| Lambda_f A_{d-f}."""
    e = eisenstein_series(w, dmax)
    zero, pw = w.grading.zero, RatFunc(w.pw)
    den = RatFunc(UPoly((0, -1, 1)) * w.pw)  # u(u-1)P_W
    r, h, ea, a, lam, lg = {}, {zero: RF_ONE}, {zero: pw}, {zero: RF_ONE}, {}, {}
    for d, parts in slice_cells(dmax):
        n = sum(d)
        inner = parts[:-1]
        ea[d] = e.coeff(0, d)
        if adams:
            g = gcd(*d)
            lam[d] = sum((lg[tuple(x // k for x in d)].adams(k) * necklace(k)
                          for k in range(2, g + 1) if g % k == 0), RF_ZERO)
            a[d] = sum((lam[f] * a[q] * m for f, q, m in parts), RF_ZERO) / n
            ea[d] += pw * a[d] + sum((e.coeff(0, f) * a[q] for f, q, _ in inner), RF_ZERO)
        h_lower = sum((r[f] * h[q] * UPoly((m - n, m)) for f, q, m in inner), RF_ZERO) / n
        r[d] = (pw * h_lower + sum((ea[f] * h[q] for f, q, _ in parts), RF_ZERO)) / den
        h[d] = RF_U * r[d] + h_lower
        if adams:
            lg[d] = r[d] - sum((lg[q] * r[f] * (n - m) for f, q, m in inner), RF_ZERO) / n
    return MultiSeries(w.grading, 0, dmax, {(0, d): c for d, c in r.items()})


def log_slice_by_fractions(w: TargetSpace, dmax, adams: bool) -> MultiSeries:
    """The Euler limit's R = phi|_{t=0} on the z-box dmax, one cell at a time
    in Fractions, with no scaling: beside lg = log(1 + R) and x = X, which
    gains phi(k)/k psi_k(lg) at the cells d/k with adams=True,

        R_d = X_d + sum_{0<f<d} (X_f R_{d-f} + |f|/|d| R_f l_{d-f}),
        l_d = R_d - sum_{0<f<d} |d-f|/|d| l_{d-f} R_f."""
    xs = {d: c.eval_at(1) for (_, d), c in xseries(w, dmax).coeffs.items()}
    r, lg, x = {}, {}, {}
    for d, parts in slice_cells(dmax):
        n, inner, g = sum(d), parts[:-1], gcd(*d)
        x[d] = xs.get(d, 0) + sum(necklace(k).derivative().eval(1) * lg[tuple(i // k for i in d)]
                                  for k in range(2, g + 1) if adams and g % k == 0)
        r[d] = x[d] + Fraction(sum(n * x[f] * r[q] + m * r[f] * lg[q] for f, q, m in inner), n)
        lg[d] = r[d] - Fraction(sum((n - m) * lg[q] * r[f] for f, q, m in inner), n)
    return MultiSeries(w.grading, 0, dmax, {(0, d): c for d, c in r.items()})


def closed_points(j: int) -> UPoly:
    """M_j(P^1): points of P^1 of exact degree j, from u**j + 1 = sum_{d | j}
    d M_d(P^1) (points over the field with u**j elements)."""
    total = UPoly.monomial(j) + 1
    for d in range(1, j):
        if j % d == 0:
            total = total - closed_points(d).scale(d)
    return total.scale(Fraction(1, j))


def root_factor_cells(w: TargetSpace, kmax: int, dmax, n_fixed: int, n_base: int,
                      moved_type) -> dict:
    """{(k, beta): cell} of the root factor of a vertex with n_fixed fixed
    and n_base special points in all, whose cycles of length j >= 2 are
    moved_type ((j, m_j) pairs): nclass(W, beta) (M_1)_n prod_j (M_j)_(m_j)
    / k! with n = n_fixed + k and M_j = closed_points(j), and no cell where
    beta = 0 and n_base + k <= 2, the unstable vertices."""
    def falling(j, count):
        out = RF_ONE
        for i in range(count):
            out = out * RatFunc(closed_points(j) - i)
        return out

    zero = (0,) * len(dmax)
    moved = RF_ONE
    for j, m_j in moved_type:
        moved = moved * falling(j, m_j)
    cells = {}
    for k in range(kmax + 1):
        for beta in itertools.product(*(range(b + 1) for b in dmax)):
            if beta == zero and n_base + k <= 2:
                continue
            c = nclass(w, beta) * falling(1, n_fixed + k) * moved * Fraction(1, factorial(k))
            if not c.is_zero:
                cells[(k, beta)] = c
    return cells


# --- the independent canonicaliser ---------------------------------------------

def _tree_size(code) -> int:
    return 1 + sum(_tree_size(c) for c in code)


def _tree_key(code):
    return (_tree_size(code), code)


def _code_to_edges(code) -> list:
    """Edge list of the canonical representative, vertices in DFS preorder."""
    edges = []
    counter = itertools.count(0)

    def walk(node, parent):
        me = next(counter)
        if parent is not None:
            edges.append((parent, me))
        for child in node:
            walk(child, me)

    walk(code, None)
    return edges


def tree_edges(tree: Tree) -> tuple:
    """Edges of a census tree, vertices in the DFS preorder of its centred
    code, vertex 0 a centre; a bicentral tree's second half hangs from the
    first half's root."""
    centred = tree.centred
    rooted = centred[1] if centred[0] == "C" else centred[1] + (centred[2],)
    return tuple(_code_to_edges(rooted))


def _adjacency(vcount, edges):
    adj = [[] for _ in range(vcount)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _centers(vcount, adj) -> list:
    """The one or two middle vertices of a tree (iterated leaf removal)."""
    if vcount == 1:
        return [0]
    degree = [len(nb) for nb in adj]
    layer = [v for v in range(vcount) if degree[v] == 1]
    remaining = vcount
    removed = [False] * vcount
    while remaining > 2:
        nxt = []
        for v in layer:
            removed[v] = True
        remaining -= len(layer)
        for v in layer:
            for w in adj[v]:
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def _rooted_code_at(adj, root, blocked=None):
    """Canonical rooted code of the subtree at root, not crossing blocked."""
    def walk(v, parent):
        kids = [walk(w, v) for w in adj[v] if w != parent and w != blocked]
        kids.sort(key=_tree_key, reverse=True)
        return tuple(kids)

    return walk(root, None)


def _free_code(vcount, adj):
    """Canonical form of a free tree: root at the center, or at the central
    edge when the tree is bicentral."""
    centers = _centers(vcount, adj)
    if len(centers) == 1:
        return ("C", _rooted_code_at(adj, centers[0]))
    c1, c2 = centers
    h1 = _rooted_code_at(adj, c1, blocked=c2)
    h2 = _rooted_code_at(adj, c2, blocked=c1)
    if _tree_key(h1) < _tree_key(h2):
        h1, h2 = h2, h1
    return ("B", h1, h2)


def tree_code(vcount: int, edges) -> bytes:
    """Canonical code of an arbitrary labelled tree; equal bytes iff the
    trees are isomorphic."""
    adj = _adjacency(vcount, [tuple(e) for e in edges])
    return _code_bytes(_free_code(vcount, adj))


# --- the labelled-marking route -------------------------------------------------

class MarkedTree:
    """A tree with per-vertex curve class beta_v and label set S_v.

    The nonempty label sets must partition {1..k}; stability of individual
    vertices is not enforced here (unstable markings price to zero through
    the eps factor in stratum_class).
    """

    __slots__ = ("tree", "beta", "labels")

    def __init__(self, tree: Tree, beta, labels):
        beta = tuple(tuple(int(x) for x in b) for b in beta)
        labels = tuple(frozenset(s) for s in labels)
        if len(beta) != tree.vcount or len(labels) != tree.vcount:
            raise ValueError("need one (beta_v, S_v) per vertex")
        seen = set()
        for s in labels:
            if seen & s:
                raise ValueError("label sets must be disjoint")
            seen |= s
        if seen and seen != set(range(1, max(seen) + 1)):
            raise ValueError("labels must cover 1..k")
        self.tree = tree
        self.beta = beta
        self.labels = labels

    def __repr__(self):
        return f"MarkedTree(vcount={self.tree.vcount}, beta={self.beta}, labels={self.labels})"


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _vector_compositions(total_vec, parts: int):
    """Ways to write total_vec as an ordered sum of `parts` nonnegative
    vectors, yielded as tuples of per-part vectors."""
    per_coord = [list(_compositions(c, parts)) for c in total_vec]
    for combo in itertools.product(*per_coord):
        yield tuple(tuple(coord[i] for coord in combo) for i in range(parts))


def enum_marked(tree: Tree, k: int, beta_total) -> list:
    """All admissible markings of the tree with labels {1..k} and total
    curve class beta_total, as labelled data (no quotient by Aut)."""
    beta_total = tuple(int(b) for b in beta_total)
    m = tree.vcount
    val = tree.valencies
    zero = (0,) * len(beta_total)
    out = []
    for beta in _vector_compositions(beta_total, m):
        # each label raises one vertex count by one, so the total stability
        # deficit must fit into the label budget
        deficit = sum(max(0, 3 - val[v]) for v in range(m) if beta[v] == zero)
        if deficit > k:
            continue
        for assign in itertools.product(range(m), repeat=k):
            sets = [set() for _ in range(m)]
            for label, v in zip(range(1, k + 1), assign):
                sets[v].add(label)
            if all(beta[v] != zero or val[v] + len(sets[v]) >= 3 for v in range(m)):
                out.append(MarkedTree(tree, beta, sets))
    return out


def stratum_class(w: TargetSpace, marked: MarkedTree) -> RatFunc:
    """Class of the stratum of stable maps with the given combinatorial type.

    Inadmissible markings return zero through the stability cutoff.
    """
    val = marked.tree.valencies
    zero = w.grading.zero
    acc = RatFunc(w.pw)
    for v in range(marked.tree.vcount):
        n_v = val[v] + len(marked.labels[v])
        if marked.beta[v] == zero and n_v <= 2:
            return RF_ZERO
        acc = acc * nclass(w, marked.beta[v]) \
                  * binom_falling(LINE_CLASS, n_v) * factorial(n_v)
    return acc


class _RaisingParser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print usage and exit."""

    def error(self, message):
        raise ValueError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser before the flag table (cli.COMMANDS)."""
    parser = _RaisingParser(
        prog="stablemaps",
        description="Exact classes of genus-zero stable-map moduli spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--target", default="point",
                       help="point | pn:N | file:PATH (default: point)")
        p.add_argument("--kmax", default="4", help="t-truncation order")
        p.add_argument("--dmax", default=None,
                       help="comma-separated z-truncation per component")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--adams", action="store_true",
                       help="keep the Adams operations: coarse-space Poincare "
                            "polynomials instead of the p_k = 0 specialisation")

    p = sub.add_parser("compute", help="solver class table")
    add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cli.cmd_compute)

    p = sub.add_parser("oracle", help="tree-sum series (the brute-force route)")
    add_common(p)
    p.add_argument("--workers", default="1",
                   help="must be 1: the tree sum runs in one process")
    p.set_defaults(func=cli.cmd_oracle)

    p = sub.add_parser("verify", help="run named verification suites")
    add_common(p)
    p.add_argument("--suite", action="append", choices=cli.SUITES, required=True,
                   help="repeatable; each suite prints one PASS/FAIL line")
    p.add_argument("--n", default="1", help="projective dimension for recurrence/ffcount")
    p.add_argument("--dmaxff", default="2", help="max degree for recurrence/ffcount")
    p.add_argument("--primes", default="2,3,5", help="primes for ffcount")
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="relative-spread tolerance for the implicit suite")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("euler", help="Euler-characteristic table")
    add_common(p)
    p.set_defaults(func=cli.cmd_euler)

    p = sub.add_parser("trees", help="tree census: vertex count, |Aut|, code")
    p.add_argument("--vmax", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cli.cmd_trees)

    p = sub.add_parser("count-ff", help="finite-field map count")
    p.add_argument("--n", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cli.cmd_count_ff)

    return parser


# the flags that took one int, read after parsing
INT_FLAGS = ("kmax", "workers", "n", "dmaxff", "vmax", "d", "p")


def parse_reference(argv):
    """vars() of argv as build_parser read it, each int flag turned to an int
    as main then did (ASCII digits with an optional leading '-'); None if
    argparse or an int flag refused argv.  argv must not ask for help."""
    try:
        args = vars(build_parser().parse_args(argv))
    except ValueError:
        return None
    for name in INT_FLAGS:
        if name in args:
            if not re.fullmatch(r"-?[0-9]+", args[name]):
                return None
            args[name] = int(args[name])
    return args
