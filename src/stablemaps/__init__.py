"""Exact moduli classes of genus-zero stable maps.

The package computes the virtual Poincare polynomials of the moduli spaces
of genus-zero stable maps to projective spaces (and to user-described
targets with free curve-class semigroup), exactly, in the variable u.  Two
independent routes are implemented and cross-checked coefficient by
coefficient: a closed-form solver built on the unique root of a functional
equation, and a brute-force sum over isomorphism classes of trees, each
weighted by 1/|Aut| (or averaged over Aut) and summed over the curve
classes and marks on its vertices.
A further battery of exact identities (map-space degree recurrence,
finite-field point counts, the universal differential equation, the
derivative identity, the closed form over the whole box, the functional
equation's own residual, the potential expansion, the Euler-characteristic
limit and its own residual) ties every layer to an independent computation.

Every name exported here is used by another module of the package, the
demos or the benchmark; the references that only the tests compare against
(the labelled markings of a tree, a second tree canonicaliser, exact
polynomial division) live with the tests.
"""

from .qfield import (LINE_CLASS, MOEBIUS_CLASS, RatFunc, UPoly, binom_falling,
                     is_palindromic, upoly_gcd)
from .series import (Grading, MultiSeries, box_vectors, series_dt,
                     series_log1p, series_pow_binomial)
from .target import (TargetSpace, count_maps_bruteforce, eisenstein_series,
                     load_target, nclass, parse_target, point_target,
                     projective_space, target_from_json, verify_recurrence)
from .trees import Tree, enum_trees, tree_sum_potential
from .solver import (ClassTable, extract_classes, potential, solve_phi0,
                     verify_dt, verify_functional_equation,
                     verify_implicit_numeric, verify_ode,
                     verify_potential_expansion, verify_quadratic)
from .eulerchi import (chi_agrees, chi_potential, chi_table, crosscheck_chi,
                       is_constant_series, solve_phi0_chi, verify_log_equation,
                       xseries)

__version__ = "0.1.0"

__all__ = [
    "LINE_CLASS", "MOEBIUS_CLASS", "RatFunc", "UPoly",
    "binom_falling", "is_palindromic", "upoly_gcd",
    "Grading", "MultiSeries", "box_vectors", "series_dt", "series_log1p",
    "series_pow_binomial",
    "TargetSpace", "count_maps_bruteforce", "eisenstein_series", "load_target",
    "nclass", "parse_target", "point_target", "projective_space",
    "target_from_json", "verify_recurrence",
    "Tree", "enum_trees", "tree_sum_potential",
    "ClassTable", "extract_classes", "potential", "solve_phi0", "verify_dt",
    "verify_functional_equation", "verify_implicit_numeric", "verify_ode",
    "verify_potential_expansion", "verify_quadratic",
    "chi_agrees", "chi_potential", "chi_table", "crosscheck_chi",
    "is_constant_series", "solve_phi0_chi", "verify_log_equation", "xseries",
]
