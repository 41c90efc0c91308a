"""Trees: the budgeted census, automorphism orders and the tree-sum potential.

The boundary geometry of a space of genus-zero stable maps is indexed by
trees whose vertices carry a curve class beta_v and a set S_v of marked-point
labels; admissibility ("stability") says a vertex with beta_v = 0 must have
valency + |S_v| >= 3.  The class of the stratum of a fixed marked tree is a
product over vertices,

    [W] * prod_v eps(beta_v, |v| + k_v) * N(W, beta_v)
             * C([P^1], |v| + k_v) * (|v| + k_v)!

with k_v = |S_v|, N the normalized map-space class and eps the stability
cutoff (zero iff beta_v = 0 and |v| + k_v <= 2).  Summing the strata over
all isomorphism classes of trees, weighted by 1/|Aut|, and over all weight
assignments v -> (beta_v, k_v) with t**k_v / k_v! and z**beta_v attached
yields the full generating series of the moduli classes.  That double sum
is this module's tree_sum_potential: the oracle the closed-form solver is
checked against.

The 1/|Aut| weight is the specialisation p_k = 0 (k >= 2) of the orbit
count: a stratum is the quotient of a product by Aut, and its coarse class
is the average over g in Aut of the trace of g, not the class divided by
|Aut|.  With adams=True the oracle takes that average (Burnside).  For g,
the weightings it fixes have g-invariant (beta_v, k_v) and every vertex
with marks fixed, and g contributes

    [W] * prod_{vertex orbits O, length l} psi_l( N(W, beta_v) / k_v!
                                              * tr(g**l | F(P^1, n_v)) ),

with v in O, psi_l the Adams operation (u -> u**l, z**b -> z**(l b)) and

    tr(sigma | F(P^1, n)) = prod_j j**m_j M_j (M_j - 1) ... (M_j - m_j + 1)

for sigma of cycle type (m_j) on the n special points, M_1 = u + 1 and
M_j = (1/j) sum_{d | j} mu(j/d) u**d for j >= 2.  The elements are never
listed: Aut of a rooted tree is a product of wreath products Aut(c) wr S_m
over its classes of m identical child subtrees c, so the average factors
through the cycle index of S_m (Polya), a j-cycle of copies of c
contributing psi_j of c's own average; the root factor depends only on the
combined cycle type of the children.  A tree is rooted at its centre, or,
when bicentral, at its central edge: the two halves hang from the edge as
two children hang from a vertex (the swap when they are isomorphic), and
with no root factor to take up the j**e_j of the cycle index, the edge's
sum is divided by prod_j j**e_j.  Both weightings run through this one
recursion: the 1/|Aut| sum is its identity term, which keeps only the
all-1-cycles term sub**m / m! of each class of m identical children.  The
recursion's caches live for one call.  The children's products, per cycle
type, depend only on the children tuple, not on how many special points
the root fixes; each tuple extends the same tuple without its last class
of identical children, so codes that begin alike, and a central edge and
every vertex with the same two children, share those products.  The
powers psi_j(sub)**e are cached per subtree, and psi_j acts on the int
rows of the subtree's series.  The stratum N(W, beta) * (M_1)_n is
[Map_beta] / [W] times [F(P^1, n)] / [PGL_2] (a polynomial once n >= 3),
one product per (beta, n), shared by every vertex type.  A root factor
depends on the children's cycle type and the root's fixed points only
through the vertex type: the numbers of fixed and of all special points
and the cycles of length j >= 2 (the moved product
prod_{j >= 2} (M_j)_(m_j)).  It is built once per type, which without
adams is one series per special-point count: its cell (k, beta) is the
stratum of n_fixed + k points over k!, the unstable cells cut, put into
int rows at once (series.MultiSeries.exponential), and with adams scaled
by the moved product as one series.  A rooted code's sum is then its
leaf's root factor as it is, or for one cycle type of its children one
product; only with adams can several cycle types add up, in one packed
accumulation.
At the top level a centred tree is its children's series times the root
factor of its centre, so by distributivity the centres of one vertex type
share one product: the children's series of every centred tree are grouped
by the vertex type of the centre and summed, with each central edge's sum,
in one packed accumulation (series.sum_of_products) that reads each cell
once.

Trees are enumerated without isomorphism duplicates and without
re-rooting (the centre construction of Wright, Richmond, Odlyzko and
McKay).  Canonical rooted trees are generated as sorted nested tuples, a
root over one child or over a forest of two or more (one recursion); a
rooted tree is a free tree centred at its root when it is a single vertex
or its two highest children have equal height, and a bicentral free tree
is an ordered pair of rooted halves of equal height joined at their roots.
Automorphism orders come from the same codes: the automorphisms of a rooted
tree permute identical child subtrees, so |Aut| is a product of
multiplicity factorials times child automorphisms, with the usual factor 2
for a bicentral tree whose halves are isomorphic.

Trees are enumerated under a stability-deficit budget.  The deficit of a
vertex, max(0, 3 - valency), is the number of marks it lacks to be stable
without a class.  A tree reaches the box only if its deficits, less the
|dmax| largest (waived by the classes, each at most 2 once there is an
edge), fit into kmax marks: its total deficit is at most B = kmax + 2|dmax|,
and as that is at least m + 2 on m >= 2 vertices, it has m <= B - 2.
The deficit adds up over the rooted-code recursion, a non-root vertex
having its child count + 1 as valency, so rooted trees and forests are
memoised per (size, budget) and no subtree over budget is ever built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import factorial, prod
from operator import mul

from .qfield import LINE_CLASS, MOEBIUS_CLASS, RF_ONE, RatFunc, binom_falling, necklace
from .series import MultiSeries, box_vectors, series_adams, sum_of_products
from .target import TargetSpace


# --- rooted tree enumeration (canonical nested tuples, children sorted) -------

def _clamp(budget, m: int) -> int:
    # a deficit on m vertices (one edge at least) is at most 2m: share memo entries
    return min(budget, 2 * m)


@lru_cache(maxsize=None)
def _deficit(code) -> int:
    """Stability deficit of a rooted tree hanging below a parent: the sum of
    max(0, 3 - valency) over its vertices, the root's valency counting the
    edge up."""
    return max(0, 2 - len(code)) + sum(map(_deficit, code))


@lru_cache(maxsize=None)
def _rooted_trees(m: int, budget: int) -> tuple:
    """All canonical rooted trees on m vertices with _deficit <= budget.

    Canonical means the children tuple is sorted non-increasingly by
    (size, code), recursively; each isomorphism class appears exactly once.
    """
    # 3m minus the valency sum 2(m - 1) + 1 bounds the deficit from below
    if budget <= m:
        return ()
    if m == 1:
        return ((),)
    # a root over one child (deficit 1, each 1-tuple made by zip), then over
    # a forest of two or more children (deficit 0)
    return (tuple(zip(_rooted_trees(m - 1, _clamp(budget - 1, m - 1))))
            + _forests(m - 1, m - 2, None, _clamp(budget, m - 1)))


@lru_cache(maxsize=None)
def _forests(total: int, max_size: int, max_tree, budget: int) -> tuple:
    """Multisets of canonical rooted trees with sizes summing to total, each
    at most (max_size, max_tree), and deficits summing to at most budget,
    listed as non-increasing tuples; max_tree None leaves the trees of size
    max_size unbounded."""
    if total == 0:
        return ((),)
    if budget <= total:
        return ()
    out = []
    for size in range(min(total, max_size), 0, -1):
        for t in _rooted_trees(size, _clamp(budget, size)):
            if size == max_size and max_tree is not None and t > max_tree:
                continue
            left = _clamp(budget - _deficit(t), total - size)
            for rest in _forests(total - size, size, t, left):
                out.append((t,) + rest)
    return tuple(out)


def _runs(code):
    """Classes of identical children of a canonical rooted code, as
    (child, multiplicity) pairs (identical children are adjacent)."""
    out = []
    for child in code:
        if out and out[-1][0] == child:
            out[-1][1] += 1
        else:
            out.append([child, 1])
    return out


@lru_cache(maxsize=None)
def _rooted_aut(code) -> int:
    """Automorphism order of a rooted tree: identical children commute."""
    aut = 1
    for child, m in _runs(code):
        aut *= factorial(m) * _rooted_aut(child) ** m
    return aut


@lru_cache(maxsize=None)
def _height(code) -> int:
    return 1 + max(map(_height, code)) if code else 0


def _valencies(code, up: int = 0):
    """Valencies of a rooted tree's vertices in DFS preorder: each vertex's
    child count, plus 1 for the edge up (at the root, up)."""
    yield len(code) + up
    for child in code:
        yield from _valencies(child, 1)


def _free_aut(fcode) -> int:
    if fcode[0] == "C":
        return _rooted_aut(fcode[1])
    _, h1, h2 = fcode
    aut = _rooted_aut(h1) * _rooted_aut(h2)
    return 2 * aut if h1 == h2 else aut


def _render(code) -> str:
    return "(" + "".join(_render(c) for c in code) + ")"


def _code_bytes(fcode) -> bytes:
    if fcode[0] == "C":
        return ("C" + _render(fcode[1])).encode("ascii")
    return ("B" + _render(fcode[1]) + _render(fcode[2])).encode("ascii")


class Tree:
    """One isomorphism class of finite trees.

    Built from its centred form, ("C", code) rooted at the centre or
    ("B", h1, h2) with the halves at the central edge, larger first.
    Carries the valencies of a concrete representative (vertices in the
    DFS preorder of that form, the second half of a bicentral tree hanging
    from the first half's root, vertex 0 a centre), the canonical code that
    identifies the class, and the order of the abstract automorphism group.
    """

    __slots__ = ("vcount", "canonical_code", "aut_order", "valencies", "centred")

    def __init__(self, centred):
        self.centred = centred
        rooted = centred[1] if centred[0] == "C" else centred[1] + (centred[2],)
        self.valencies = tuple(_valencies(rooted))
        self.vcount = len(self.valencies)
        self.canonical_code = _code_bytes(centred)
        self.aut_order = _free_aut(centred)

    def __repr__(self):
        return (f"Tree(vcount={self.vcount}, aut={self.aut_order}, "
                f"code={self.canonical_code.decode('ascii')})")


@lru_cache(maxsize=None)
def _free_trees(m: int, budget: int) -> tuple:
    """The free trees on m vertices with total deficit at most budget (the
    single vertex always), each once, sorted by canonical code.

    A canonical rooted tree is centred at its root when it is a single
    vertex or its two highest children have equal height; a bicentral tree
    is a pair of rooted halves of equal height, the larger by (size, code)
    first.
    """
    if m == 1:
        return (Tree(("C", ())),)
    forms = []
    # the centre has no edge up: with two children its deficit is 1
    for code in _rooted_trees(m, budget):
        heights = sorted(map(_height, code), reverse=True)
        if (len(code) > 1 and heights[0] == heights[1]
                and _deficit(code) + (len(code) == 2) <= budget):
            forms.append(("C", code))
    for size in range((m + 1) // 2, m):
        for h1 in _rooted_trees(size, _clamp(budget, size)):
            for h2 in _rooted_trees(m - size, _clamp(budget - _deficit(h1), m - size)):
                if _height(h1) == _height(h2) and (2 * size > m or h1 >= h2):
                    forms.append(("B", h1, h2))
    return tuple(sorted((Tree(f) for f in forms), key=lambda t: t.canonical_code))


def enum_trees(vmax: int, budget=None) -> list:
    """All isomorphism classes of trees with at most vmax vertices, as
    (Tree, automorphism order) pairs; with a budget, only the single vertex
    and the trees whose total deficit is at most budget."""
    if vmax < 1:
        raise ValueError("vmax must be >= 1")
    return [(t, t.aut_order) for m in range(1, vmax + 1)
            for t in _free_trees(m, _clamp(2 * m if budget is None else budget, m))]


# --- the tree-sum oracle --------------------------------------------------------

def _partitions(m: int, largest=None):
    """Partitions of m as {part: multiplicity} dicts."""
    if m == 0:
        yield {}
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - part, part):
            out = dict(rest)
            out[part] = out.get(part, 0) + 1
            yield out


def _falling(m_j: RatFunc, count: int) -> RatFunc:
    return binom_falling(m_j, count) * factorial(count)


@lru_cache(maxsize=None)
def _configurations(n: int) -> RatFunc:
    """[F(P^1, n)] / [PGL_2] = (L)_n / (u**3 - u) for L = [P^1]: the class
    of M_{0,n}, a polynomial, once n >= 3."""
    return _falling(RatFunc(LINE_CLASS), n) / RatFunc(MOEBIUS_CLASS)


def max_vertices(kmax: int, dmax) -> int:
    """The most vertices of a tree that reaches the box (kmax, dmax): B - 2
    for the deficit budget B = kmax + 2|dmax| (see the module docstring)."""
    return kmax + 2 * sum(dmax) - 2


def _contributing_trees(kmax: int, dmax) -> list:
    """The trees with an admissible marking in the box: a vertex needs
    valency + k_v >= 3 unless it carries a class, so the deficits left after
    waiving the |dmax| largest must fit into kmax marks."""
    waived = sum(dmax)
    out = []
    for tree, _ in enum_trees(max(1, max_vertices(kmax, dmax)), kmax + 2 * waived):
        deficits = sorted((max(0, 3 - v) for v in tree.valencies), reverse=True)
        if sum(deficits[waived:]) <= kmax:
            out.append(tree)
    return out


def _root_factors(w: TargetSpace, kmax: int, dmax):
    """The root factors on the box: a function vertex_type(n_fixed, n_base,
    moved_type), cached per vertex type, giving the root factor of a vertex
    with n_fixed fixed and n_base special points in all, whose cycles of
    length j >= 2 are moved_type,

        sum_{beta, k} eps N(W, beta)/k! (M_1)_(n_fixed + k)
                      prod_j (M_j)_(m_j) t**k z**beta,

    with eps zero iff beta = 0 and n_base + k <= 2."""
    grading = w.grading
    zero = (0,) * len(dmax)
    pw = RatFunc(w.pw)
    # [Map_beta] / [W]
    ratios = {beta: w.map_class(beta) / pw for beta in box_vectors(dmax)}

    @cache
    def strata(n: int) -> dict:
        """{beta: N(W, beta) (M_1)_n}, [Map_beta] / [W] times [F(P^1, n)]
        / [PGL_2]: one product per (beta, n), shared by every vertex type."""
        configurations = _configurations(n)
        return {beta: ratio * configurations for beta, ratio in ratios.items()}

    @cache
    def vertex_type(n_fixed: int, n_base: int, moved_type) -> MultiSeries:
        """The strata of n_fixed + k points over k!, held as int rows, the
        unstable cells cut, times the moved product prod_j (M_j)_(m_j)."""
        cells = {(kv, beta): c for kv in range(kmax + 1)
                 for beta, c in strata(n_fixed + kv).items()
                 if beta != zero or n_base + kv > 2}
        factor = MultiSeries.exponential(grading, kmax, dmax, cells)
        if not moved_type:
            return factor
        return factor.scale(prod((_falling(RatFunc(necklace(j)), m_j)
                                  for j, m_j in moved_type), start=RF_ONE))

    return vertex_type


def _tree_sum_cells(w: TargetSpace, kmax: int, dmax, adams: bool) -> MultiSeries:
    """The tree sum before the factor [W], as one recursion over rooted
    subtrees whose caches live for this call only."""
    grading = w.grading
    vertex_type = _root_factors(w, kmax, dmax)

    def type_key(ctype, fixed: int) -> tuple:
        """The vertex type (n_fixed, n_base, moved_type) of a vertex whose
        children have cycle type ctype (a sorted (j, m_j) tuple) and which
        has `fixed` more special points fixed besides its marks: its root
        factor is vertex_type(*type_key(ctype, fixed))."""
        n_fixed = fixed + dict(ctype).get(1, 0)
        n_base = fixed + sum(j * m_j for j, m_j in ctype)
        return n_fixed, n_base, tuple(c for c in ctype if c[0] > 1)

    @cache
    def power(child, j: int, e: int) -> MultiSeries:
        """psi_j(sub)**e, sub the rooted sum of child."""
        if e == 1:
            return series_adams(rooted(child), j)
        return power(child, j, e - 1) * power(child, j, 1)

    @cache
    def children(code) -> dict:
        """{cycle type: series} for the children of a rooted code: per
        combined cycle type of the averaged automorphisms on the children,
        the product of the cycle-index terms of its classes of identical
        children, built from the same code without its last class."""
        if not code:
            return {(): MultiSeries.const(grading, kmax, dmax, RF_ONE)}
        child, m = _runs(code)[-1]
        by_type = children(code[:-m])
        got = {}
        for lam in _partitions(m) if adams else ({1: m},):
            # cycle-index term prod_j psi_j(sub)**e_j / (j**e_j e_j!); the
            # j**e_j is left to the root factor's trace or the central edge
            term = reduce(mul, (power(child, j, e) for j, e in lam.items()))
            if term.is_zero:
                continue
            weight = prod(map(factorial, lam.values()))
            if weight > 1:
                term = term.scale(Fraction(1, weight))
            for ctype, acc in by_type.items():
                cycles = dict(ctype)
                for j, e in lam.items():
                    cycles[j] = cycles.get(j, 0) + e
                merged = tuple(sorted(cycles.items()))
                # the empty cycle type holds the unit series
                product = acc * term if ctype else term
                prev = got.get(merged)
                got[merged] = product if prev is None else prev + product
        return got

    @cache
    def rooted(code) -> MultiSeries:
        """(1/|Aut|) sum_{h in Aut(code)} of the h-fixed weightings of a
        rooted tree hanging below an edge, each a product over h's vertex
        orbits as in the module docstring; every h fixes the root and the
        special point of the edge up at it.  Without adams only h = 1 is
        kept: the sum over all weightings / |Aut|.  A leaf is its root
        factor, one cycle type of the children is one product, and several
        (only with adams) are one packed accumulation."""
        if not code:
            return vertex_type(*type_key((), 1))
        terms = [([acc], [vertex_type(*type_key(ctype, 1))])
                 for ctype, acc in children(code).items()]
        if len(terms) == 1:
            (acc,), (r,) = terms[0]
            return acc * r
        return sum_of_products(terms, grading, kmax, dmax)

    # the top level: a centred tree is its children's series times the root
    # factor of its centre, so the centres of one vertex type share one
    # product; a bicentral tree's halves hang from the central edge as two
    # children from a vertex, with no root factor to take up the j**e_j, so
    # that is divided out
    by_type, edges = {}, []
    try:
        for tree in _contributing_trees(kmax, dmax):
            if tree.centred[0] == "C":
                for ctype, acc in children(tree.centred[1]).items():
                    by_type.setdefault(type_key(ctype, 0), []).append(acc)
                continue
            for ctype, acc in children(tree.centred[1:]).items():
                weight = prod(j ** m_j for j, m_j in ctype)
                edges.append(acc.scale(Fraction(1, weight)) if weight > 1 else acc)
        terms = [(accs, [vertex_type(*key)]) for key, accs in by_type.items()]
        return sum_of_products(terms + [(edges, None)], grading, kmax, dmax)
    finally:
        # the nested functions form a reference cycle: free the series now
        for f in (vertex_type, power, children, rooted):
            f.cache_clear()


def tree_sum_potential(w: TargetSpace, kmax: int, dmax=None,
                       adams: bool = False) -> MultiSeries:
    """Generating series of moduli classes by direct summation over trees.

    The coefficient of t**k z**beta is

        sum_trees 1/|Aut| sum_{(beta_v, k_v): sums (beta, k)}
            [W] * prod_v factor(valency_v, beta_v, k_v)

    over all isomorphism classes of trees within the deficit budget; with
    adams=True each tree's term is instead averaged over its automorphism
    group.  Both are computed by one recursion over rooted subtrees (see
    the module docstring), in one process.  Exact and deterministic.
    """
    dmax = w.box(dmax, kmax)
    # the sum's caches are cleared on its return, before the scale
    return _tree_sum_cells(w, kmax, dmax, adams).scale(RatFunc(w.pw))
