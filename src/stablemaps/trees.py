"""Marked trees: enumeration, stratum classes, and the tree-sum potential.

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
powers psi_j(sub)**e are cached per subtree and the vertex factor
N(W, beta) * (M_1)_n per (beta, n).

Trees are enumerated without isomorphism duplicates and without
re-rooting (the centre construction of Wright, Richmond, Odlyzko and
McKay).  Canonical rooted trees are generated as sorted nested tuples; a
rooted tree is a free tree centred at its root when it is a single vertex
or its two highest children have equal height, and a bicentral free tree
is an ordered pair of rooted halves of equal height joined at their
roots.  Automorphism orders come from the same codes: the automorphisms of
a rooted tree permute identical child subtrees, so |Aut| is a product of
multiplicity factorials times child automorphisms, with the usual factor 2
for a bicentral tree whose halves are isomorphic.  tree_code canonicalises
an arbitrary labelled tree by finding its centre, independently of the
enumeration.

Trees are enumerated under a stability-deficit budget.  The deficit of a
vertex, max(0, 3 - valency), is the number of marks it lacks to be stable
without a class.  A tree reaches the box only if its deficits, less the
|dmax| largest (waived by the classes, each at most 2 once there is an
edge), fit into kmax marks, so its total deficit is at most kmax + 2|dmax|.
The deficit adds up over the rooted-code recursion, a non-root vertex
having its child count + 1 as valency, so rooted trees and forests are
memoised per (size, budget) and no subtree over budget is ever built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import factorial, prod
from operator import mul

from .qfield import LINE_CLASS, RF_ONE, RF_ZERO, RatFunc, binom_falling, necklace
from .series import MultiSeries, box_vectors, series_adams
from .target import TargetSpace, nclass


# --- rooted tree enumeration (canonical nested tuples, children sorted) -------

def _tree_size(code) -> int:
    return 1 + sum(_tree_size(c) for c in code)


def _tree_key(code):
    return (_tree_size(code), code)


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
    out = []
    # a root with one child has deficit 1; with more children it has none
    for first in _rooted_trees(m - 1, _clamp(budget - 1, m - 1)):
        out.append((first,))
    for first_size in range(m - 2, 0, -1):
        for first in _rooted_trees(first_size, _clamp(budget, first_size)):
            rest_total = m - 1 - first_size
            left = _clamp(budget - _deficit(first), rest_total)
            for rest in _forests(rest_total, first_size, first, left):
                out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _forests(total: int, max_size: int, max_tree, budget: int) -> tuple:
    """Multisets of canonical rooted trees with sizes summing to total, each
    at most (max_size, max_tree), and deficits summing to at most budget,
    listed as non-increasing tuples."""
    if total == 0:
        return ((),)
    if budget <= total:
        return ()
    out = []
    for size in range(min(total, max_size), 0, -1):
        for t in _rooted_trees(size, _clamp(budget, size)):
            if size == max_size and t > max_tree:
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
    Carries a concrete representative (vertices 0..vcount-1 with an edge
    list, vertex 0 a centre), the canonical code that identifies the class,
    and the order of the abstract automorphism group.
    """

    __slots__ = ("vcount", "edges", "canonical_code", "aut_order", "valencies",
                 "centred")

    def __init__(self, centred):
        self.centred = centred
        rooted = centred[1] if centred[0] == "C" else centred[1] + (centred[2],)
        self.edges = tuple(_code_to_edges(rooted))
        self.vcount = vcount = len(self.edges) + 1
        self.canonical_code = _code_bytes(centred)
        self.aut_order = _free_aut(centred)
        val = [0] * vcount
        for a, b in self.edges:
            val[a] += 1
            val[b] += 1
        self.valencies = tuple(val)

    def __repr__(self):
        return (f"Tree(vcount={self.vcount}, aut={self.aut_order}, "
                f"code={self.canonical_code.decode('ascii')})")


def tree_code(vcount: int, edges) -> bytes:
    """Canonical code of an arbitrary labelled tree; equal bytes iff the
    trees are isomorphic."""
    adj = _adjacency(vcount, [tuple(e) for e in edges])
    return _code_bytes(_free_code(vcount, adj))


@lru_cache(maxsize=None)
def _free_trees(m: int, budget: int) -> tuple:
    """The free trees on m vertices with total deficit at most budget (the
    single vertex always), each once, sorted by canonical code.

    A canonical rooted tree is centred at its root when it is a single
    vertex or its two highest children have equal height; a bicentral tree
    is a pair of rooted halves of equal height, the larger by _tree_key
    first, as _free_code orders them.
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


# --- markings ------------------------------------------------------------------

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


# --- the tree-sum oracle --------------------------------------------------------

def vertex_bound(kmax: int, dmax) -> int:
    """Largest vertex count a tree can have and still contribute to the box.

    At most |dmax| vertices carry a nonzero class; every other vertex needs
    valency + k_v >= 3, and valencies over a tree sum to 2(vcount - 1), so
    3(vcount - a) <= 2(vcount - 1) + kmax with a <= |dmax| gives the bound.
    """
    return max(1, 3 * sum(dmax) + kmax - 2)


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


def _contributing_trees(kmax: int, dmax) -> list:
    """The trees with an admissible marking in the box: a vertex needs
    valency + k_v >= 3 unless it carries a class, so the deficits left after
    waiving the |dmax| largest must fit into kmax marks."""
    waived = sum(dmax)
    out = []
    for tree, _ in enum_trees(vertex_bound(kmax, dmax), kmax + 2 * waived):
        deficits = sorted((max(0, 3 - v) for v in tree.valencies), reverse=True)
        if sum(deficits[waived:]) <= kmax:
            out.append(tree)
    return out


def _tree_sum_cells(w: TargetSpace, kmax: int, dmax, adams: bool) -> MultiSeries:
    """The tree sum before the factor [W], as one recursion over rooted
    subtrees whose caches live for this call only."""
    grading = w.grading
    zero = (0,) * len(dmax)

    @cache
    def vertex(beta, n: int) -> RatFunc:
        """N(W, beta) * (L)_n for a vertex of class beta with n fixed
        special points, L = [P^1]."""
        return nclass(w, beta) * _falling(RatFunc(LINE_CLASS), n)

    @cache
    def root(ctype, fixed: int) -> MultiSeries:
        """sum_{beta, k} eps N(W, beta)/k! prod_j (M_j)_(m_j) t**k z**beta
        for a vertex whose children have cycle type ctype (a sorted
        (j, m_j) tuple) and which has `fixed` more special points fixed
        besides its k marks."""
        cycles = dict(ctype)
        moved = RF_ONE
        for j, m_j in cycles.items():
            if j > 1:
                moved = moved * _falling(RatFunc(necklace(j)), m_j)
        n_base = fixed + sum(j * m_j for j, m_j in cycles.items())
        n_fixed = cycles.get(1, 0) + fixed
        coeffs = {}
        for kv in range(kmax + 1):
            weight = moved * Fraction(1, factorial(kv))
            for beta in box_vectors(dmax):
                if beta == zero and n_base + kv <= 2:
                    continue
                coeffs[(kv, beta)] = vertex(beta, n_fixed + kv) * weight
        return MultiSeries(grading, kmax, dmax, coeffs)

    @cache
    def power(child, j: int, e: int) -> MultiSeries:
        """psi_j(sub)**e, sub the rooted sum of child with one fixed point
        (the edge up)."""
        if e == 1:
            return series_adams(rooted(child, 1), j)
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
    def rooted(code, fixed: int) -> MultiSeries:
        """(1/|Aut|) sum_{h in Aut(code)} of the h-fixed weightings of a
        rooted tree, each a product over h's vertex orbits as in the module
        docstring; every h fixes the root and `fixed` further special points
        at it.  Without adams only h = 1 is kept: the sum over all
        weightings / |Aut|."""
        total = MultiSeries.zero(grading, kmax, dmax)
        for ctype, acc in children(code).items():
            r = root(ctype, fixed)
            total = total + (acc * r if ctype else r)
        return total

    total = MultiSeries.zero(grading, kmax, dmax)
    try:
        for tree in _contributing_trees(kmax, dmax):
            if tree.centred[0] == "C":
                total = total + rooted(tree.centred[1], 0)
                continue
            # the halves hang from the central edge as two children from a
            # vertex; no root factor takes up the j**e_j, so divide it out
            for ctype, acc in children(tree.centred[1:]).items():
                weight = prod(j ** m_j for j, m_j in ctype)
                total = total + (acc.scale(Fraction(1, weight)) if weight > 1 else acc)
    finally:
        # the nested functions form a reference cycle: free the series now
        for f in (vertex, root, power, children, rooted):
            f.cache_clear()
    return total


def tree_sum_potential(w: TargetSpace, kmax: int, dmax=None,
                       adams: bool = False) -> MultiSeries:
    """Generating series of moduli classes by direct summation over trees.

    The coefficient of t**k z**beta is

        sum_trees 1/|Aut| sum_{(beta_v, k_v): sums (beta, k)}
            [W] * prod_v factor(valency_v, beta_v, k_v)

    over all isomorphism classes of trees up to the vertex bound; with
    adams=True each tree's term is instead averaged over its automorphism
    group.  Both are computed by one recursion over rooted subtrees (see
    the module docstring), in one process.  Exact and deterministic.
    """
    dmax = w.box(dmax, kmax)
    # the sum's caches are cleared on its return, before the scale
    return _tree_sum_cells(w, kmax, dmax, adams).scale(RatFunc(w.pw))
