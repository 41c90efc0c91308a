import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from stablemaps.qfield import RatFunc, UPoly, is_palindromic
from stablemaps.series import MultiSeries
from stablemaps.solver import potential, solve_phi0
from stablemaps.target import point_target, projective_space
from stablemaps import trees
from stablemaps.trees import (MarkedTree, _adjacency, _contributing_trees, _free_aut,
                              _free_code, enum_marked, enum_trees, stratum_class,
                              tree_code, tree_sum_potential, vertex_bound)
from test_solver import p1xp1_target

# free trees by vertex count (OEIS A000055)
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
               11: 235, 12: 551, 13: 1301}


def prufer_to_edges(seq, m):
    """Decode a Pruefer sequence into the edge list of a labelled tree."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    leaves = sorted(v for v in range(m) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def all_labelled_trees(m):
    if m == 1:
        yield []
        return
    if m == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(m), repeat=m - 2):
        yield prufer_to_edges(seq, m)


class TestEnumeration:
    def test_counts(self):
        counts = Counter(t.vcount for t, _ in enum_trees(13))
        assert dict(counts) == TREE_COUNTS

    def test_single_vertex(self):
        (tree, aut), = [(t, a) for t, a in enum_trees(1)]
        assert tree.vcount == 1 and tree.edges == () and aut == 1

    def test_four_vertex_automorphisms(self):
        auts = sorted(a for t, a in enum_trees(4) if t.vcount == 4)
        assert auts == [2, 6]  # path and star

    def test_cayley_formula(self):
        trees = enum_trees(13)
        for m in range(2, 14):
            total = sum(Fraction(factorial(m), a) for t, a in trees if t.vcount == m)
            assert total == m ** (m - 2)

    def test_generated_forms_match_recentring(self):
        # the enumerator builds each tree from its centre; re-centring the
        # representative's edges must give back its code and |Aut|
        for t, aut in enum_trees(13):
            assert tree_code(t.vcount, t.edges) == t.canonical_code
            assert _free_aut(_free_code(t.vcount, _adjacency(t.vcount, t.edges))) == aut

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
    def test_against_labelled_census(self, m):
        # classify every labelled tree by canonical code: the class count
        # must match the enumeration and each orbit must have size m!/|Aut|
        orbits = Counter()
        for edges in all_labelled_trees(m):
            orbits[tree_code(m, edges)] += 1
        reps = {t.canonical_code: a for t, a in enum_trees(m) if t.vcount == m}
        assert set(orbits) == set(reps)
        for code, labelled_count in orbits.items():
            assert labelled_count == factorial(m) // reps[code]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_codes_decide_isomorphism(self, m):
        # distinct representatives admit no edge-preserving bijection, and
        # any relabelling of a representative keeps its code
        reps = [t for t, _ in enum_trees(m) if t.vcount == m]
        for t1, t2 in itertools.combinations(reps, 2):
            e1 = {frozenset(e) for e in t1.edges}
            found = any(
                {frozenset((perm[a], perm[b])) for a, b in t2.edges} == e1
                for perm in itertools.permutations(range(m)))
            assert not found
        rng = random.Random(m)
        for t in reps:
            perm = list(range(m))
            rng.shuffle(perm)
            relabelled = [(perm[a], perm[b]) for a, b in t.edges]
            assert tree_code(m, relabelled) == t.canonical_code

    def test_vmax_validation(self):
        with pytest.raises(ValueError):
            enum_trees(0)


def total_deficit(tree):
    return sum(max(0, 3 - v) for v in tree.valencies)


def waiver_filter(pairs, kmax, dmax):
    """Centred forms of the trees whose deficits, less the |dmax| largest,
    fit into kmax marks."""
    kept = []
    for tree, _ in pairs:
        deficits = sorted((max(0, 3 - v) for v in tree.valencies), reverse=True)
        if sum(deficits[sum(dmax):]) <= kmax:
            kept.append(tree.centred)
    return kept


class TestDeficitBudget:
    def test_budget_bounds_total_deficit(self):
        full = enum_trees(11)
        for budget in range(0, 24):
            expected = [t.canonical_code for t, _ in full
                        if t.vcount == 1 or total_deficit(t) <= budget]
            got = [t.canonical_code for t, _ in enum_trees(11, budget)]
            assert got == expected

    @pytest.mark.parametrize("kmax, dmax", [(k, ()) for k in range(9)] + [
        (4, (3,)), (5, (3,)), (3, (2, 2)),
        (1, (2, 1)),  # reaches the symmetric bicentral trees
    ])
    def test_oracle_visits_the_waived_trees(self, kmax, dmax):
        visited = [t.centred for t in _contributing_trees(kmax, dmax)]
        assert visited == waiver_filter(enum_trees(vertex_bound(kmax, dmax)), kmax, dmax)

    def test_oracle_enumerates_through_the_module_binding(self, monkeypatch):
        # a wrapper of trees.enum_trees sees the one budgeted enumeration
        seen = []

        def recording(*args):
            got = enum_trees(*args)
            seen.append(len(got))
            return got

        monkeypatch.setattr(trees, "enum_trees", recording)
        tree_sum_potential(projective_space(2), 3, (2,))
        full = len(enum_trees(vertex_bound(3, (2,))))
        assert len(seen) == 1 and seen[0] < full


class TestMarkings:
    def one_vertex(self):
        return next(t for t, _ in enum_trees(1))

    def path2(self):
        return next(t for t, _ in enum_trees(2) if t.vcount == 2)

    def test_one_vertex_three_labels(self):
        got = enum_marked(self.one_vertex(), 3, (0,))
        assert len(got) == 1
        assert got[0].labels == (frozenset({1, 2, 3}),)

    def test_one_vertex_two_labels_unstable(self):
        assert enum_marked(self.one_vertex(), 2, (0,)) == []

    def test_path_degree_two_split(self):
        got = enum_marked(self.path2(), 0, (2,))
        assert len(got) == 1
        assert got[0].beta == ((1,), (1,))  # (2,0) and (0,2) are unstable

    def test_partition_validation(self):
        tree = self.path2()
        with pytest.raises(ValueError, match="disjoint"):
            MarkedTree(tree, ((0,), (0,)), ({1, 2}, {2, 3}))
        with pytest.raises(ValueError, match="cover"):
            MarkedTree(tree, ((0,), (0,)), ({1}, {3}))


class TestStratumClass:
    def test_open_cell_of_four_points(self):
        w = projective_space(2)
        tree = next(t for t, _ in enum_trees(1))
        m = MarkedTree(tree, ((0,),), ({1, 2, 3, 4},))
        expected = RatFunc(UPoly((1, 1, 1))) * RatFunc(UPoly((-2, 1)))  # [P^2](u-2)
        assert stratum_class(w, m) == expected

    def test_two_vertex_boundary(self):
        w = projective_space(2)
        tree = next(t for t, _ in enum_trees(2) if t.vcount == 2)
        m = MarkedTree(tree, ((0,), (0,)), ({1, 2}, {3, 4}))
        assert stratum_class(w, m) == RatFunc(w.pw)

    def test_unstable_is_zero(self):
        w = projective_space(2)
        tree = next(t for t, _ in enum_trees(1))
        m = MarkedTree(tree, ((0,),), ({1, 2},))
        assert stratum_class(w, m) == RatFunc(0)


class TestTreeSum:
    def test_unstable_cells_vanish(self, point_run):
        for k in (0, 1, 2):
            assert point_run["oracle"].coeff(k, ()).is_zero

    def test_line_degree_one_is_point(self):
        w = projective_space(1)
        pot = tree_sum_potential(w, 0, (1,))
        assert pot.coeff(0, (1,)) == RatFunc(1)

    def test_four_point_moduli_class(self, point_run):
        # open cell (u-2)/24 plus boundary 3/24
        assert point_run["oracle"].coeff(4, ()) * 24 == RatFunc(UPoly((1, 1)))

    def test_point_classes_palindromic(self, point_run):
        for k in range(3, 8):
            p = (point_run["oracle"].coeff(k, ()) * factorial(k)).as_upoly()
            assert is_palindromic(p, k - 3)

    @pytest.mark.parametrize("adams, parent_count", [
        (False, 140), (True, 174), (False, 102), (True, 130)])
    def test_products_are_shared(self, monkeypatch, adams, parent_count):
        # the children's products are formed once per children tuple and
        # each power once per subtree (140 and 174 products before that
        # sharing, 102 and 130 with it); a central edge now shares them
        # with every vertex that has the same two children (94 and 122)
        w, kmax, dmax = projective_space(2), 5, (3,)
        calls = []
        product = MultiSeries.__mul__

        def counting(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(MultiSeries, "__mul__", counting)
        got = tree_sum_potential(w, kmax, dmax, adams=adams)
        monkeypatch.undo()
        assert len(calls) < parent_count
        assert got == potential(w, solve_phi0(w, kmax, dmax, adams=adams), adams=adams)

    def test_vertex_bound(self):
        assert vertex_bound(4, (2,)) == 8
        assert vertex_bound(0, (1,)) == 1
        assert vertex_bound(2, ()) == 1  # never below one vertex

    @pytest.mark.parametrize("w, kmax, dmax", [
        (projective_space(1), 3, (1,)),
        (point_target(), 6, ()),
        # rank 2; degree 2 in one ruling reaches the symmetric bicentral
        # trees whose halves carry a class, where the swap would add psi_2
        (p1xp1_target(), 1, (2, 1)),
    ], ids=["pn1", "point", "p1xp1"])
    def test_weighted_route_matches_explicit_sum(self, w, kmax, dmax):
        # recompute a small box from scratch with independently written
        # weights over explicit (beta_v, k_v) assignments
        from stablemaps.qfield import LINE_CLASS, binom_falling
        from stablemaps.target import nclass

        zero = (0,) * len(dmax)
        got = tree_sum_potential(w, kmax, dmax)
        cells = {}
        for tree, aut in enum_trees(vertex_bound(kmax, dmax)):
            m, val = tree.vcount, tree.valencies
            for betas in bounded_assignments(m, dmax):
                for kvs in bounded_assignments(m, (kmax,)):
                    kvs = [k for k, in kvs]
                    if any(betas[v] == zero and val[v] + kvs[v] <= 2 for v in range(m)):
                        continue
                    term = RatFunc(w.pw) * Fraction(1, aut)
                    for v in range(m):
                        n_v = val[v] + kvs[v]
                        term = term * nclass(w, betas[v]) \
                            * binom_falling(LINE_CLASS, n_v) \
                            * Fraction(factorial(n_v), factorial(kvs[v]))
                    key = (sum(kvs), tuple(map(sum, zip(*betas))))
                    cells[key] = cells.get(key, RatFunc(0)) + term
        expected = MultiSeries(w.grading, kmax, dmax,
                               {k: v for k, v in cells.items() if not v.is_zero})
        assert got == expected


def bounded_assignments(m, bound):
    """All m-tuples of nonnegative vectors whose sum is at most bound."""
    if m == 0:
        yield ()
        return
    for first in itertools.product(*(range(b + 1) for b in bound)):
        rest = tuple(b - x for b, x in zip(bound, first))
        for tail in bounded_assignments(m - 1, rest):
            yield (first,) + tail


def labelled_cell_sum(w, k, beta):
    """The stratum-class route: sum the class of every labelled marked tree,
    weighted by 1/|Aut|; must equal k! times the tree-sum coefficient."""
    total = RatFunc(0)
    for tree, aut in enum_trees(vertex_bound(k, beta)):
        for marked in enum_marked(tree, k, beta):
            total = total + stratum_class(w, marked) * Fraction(1, aut)
    return total


class TestLabelledWeightedConsistency:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_line_target(self, p1_run, k, b):
        expected = p1_run["oracle"].coeff(k, (b,)) * factorial(k)
        assert labelled_cell_sum(projective_space(1), k, (b,)) == expected

    @pytest.mark.parametrize("k", [3, 4])
    def test_point_target(self, point_run, k):
        expected = point_run["oracle"].coeff(k, ()) * factorial(k)
        assert labelled_cell_sum(point_target(), k, ()) == expected


def _substitute_power(f, k):
    """f(u**k) for a RatFunc f, written out coefficient by coefficient."""
    def stretch(p):
        out = [0] * (k * p.degree + 1)
        for i, c in enumerate(p.coeffs):
            out[k * i] = c
        return UPoly(out)
    return RatFunc(stretch(f.num), stretch(f.den))


def _closed_points(j):
    """M_j(P^1): points of P^1 of exact degree j, from u**j + 1 = sum_{d | j}
    d M_d(P^1) (points over the field with u**j elements)."""
    total = UPoly.monomial(j) + 1
    for d in range(1, j):
        if j % d == 0:
            total = total - _closed_points(d).scale(d)
    return total.scale(Fraction(1, j))


def _config_trace(cycle_lengths):
    """Trace of a permutation with the given cycle lengths on the ordered
    configuration space F(P^1, n): prod_j j**m_j (M_j)_(m_j)."""
    out = RatFunc(1)
    for j in set(cycle_lengths):
        m = RatFunc(_closed_points(j))
        for i in range(cycle_lengths.count(j)):
            out = out * (m - i) * j
    return out


def _automorphisms(tree):
    edges = {frozenset(e) for e in tree.edges}
    for perm in itertools.permutations(range(tree.vcount)):
        if {frozenset((perm[a], perm[b])) for a, b in tree.edges} == edges:
            yield perm


def _orbits(perm):
    seen, out = set(), []
    for v in range(len(perm)):
        if v not in seen:
            orbit = [v]
            while perm[orbit[-1]] != v:
                orbit.append(perm[orbit[-1]])
            seen.update(orbit)
            out.append(orbit)
    return out


def burnside_by_elements(w, kmax, dmax):
    """The orbit-averaged tree sum with every automorphism listed: for each
    g, each g-invariant weighting with marks only on g-fixed vertices
    contributes [W] prod_{orbits} psi_l(N(beta_v)/k_v! tr(g**l | F(P^1, n_v)))."""
    from stablemaps.target import nclass

    zero = (0,) * len(dmax)
    cells = {}
    for tree, aut in enum_trees(vertex_bound(kmax, dmax)):
        nbrs = [[] for _ in range(tree.vcount)]
        for a, b in tree.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        group = list(_automorphisms(tree))
        assert len(group) == aut
        for g in group:
            orbits = _orbits(g)

            def assign(i, kleft, dleft, acc, kused, dused):
                if i == len(orbits):
                    key = (kused, dused)
                    cells[key] = cells.get(key, RatFunc(0)) + acc * Fraction(1, aut)
                    return
                orbit = orbits[i]
                v, l = orbit[0], len(orbit)
                gl = list(range(tree.vcount))
                for _ in range(l):
                    gl = [g[x] for x in gl]
                # cycle lengths of g**l on the edges at v
                lengths, seen = [], set()
                for x in nbrs[v]:
                    if x not in seen:
                        cyc = [x]
                        while gl[cyc[-1]] != x:
                            cyc.append(gl[cyc[-1]])
                        seen.update(cyc)
                        lengths.append(len(cyc))
                for beta in itertools.product(*(range(b // l + 1) for b in dleft)):
                    for kv in range(kleft + 1 if l == 1 else 1):
                        if beta == zero and len(nbrs[v]) + kv <= 2:
                            continue
                        f = nclass(w, beta) * _config_trace(lengths + [1] * kv) \
                            * Fraction(1, factorial(kv))
                        assign(i + 1, kleft - kv,
                               tuple(x - l * y for x, y in zip(dleft, beta)),
                               acc * _substitute_power(f, l), kused + kv,
                               tuple(x + l * y for x, y in zip(dused, beta)))

            assign(0, kmax, tuple(dmax), RatFunc(w.pw), 0, zero)
    return MultiSeries(w.grading, kmax, dmax,
                       {k: v for k, v in cells.items() if not v.is_zero})


class TestBurnside:
    @pytest.mark.parametrize("w, kmax, dmax", [
        (point_target(), 6, ()),
        (projective_space(1), 2, (2,)),
        (projective_space(2), 0, (3,)),
    ])
    def test_matches_element_by_element_sum(self, w, kmax, dmax):
        # the cycle-index grouping against the definition, every group
        # element listed (trees of at most 7 vertices; degree 3 brings the
        # 3-cycles of the star with three degree-one leaves)
        got = tree_sum_potential(w, kmax, dmax, adams=True)
        assert got == burnside_by_elements(w, kmax, dmax)

    def test_degree_two_line(self):
        # Mbar_{0,0}(P^1, 2): u^2 from the open cell and u + 1 from the
        # two-component stratum, (1/2)((u+1) + psi_2 applied to the swap)
        pot = tree_sum_potential(projective_space(1), 0, (2,), adams=True)
        assert pot.coeff(0, (2,)) == RatFunc(UPoly((1, 1, 1)))
