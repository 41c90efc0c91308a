"""Stable-map classes for projective targets.

For the projective line and plane this script solves the functional
equation with a z-grading tracking the degree of the map, extracts the
class table, and highlights some recognizable entries: the degree-one
no-marking space is the Grassmannian of lines in the target, whose class
is a Gaussian binomial; degree-zero cells factor as [target] x [k-point
moduli space]; and degree >= 2 cells depend on how the symmetries of
multiple covers are counted: the default (adams=False) divides each
symmetric stratum by its automorphism group, the p_k = 0 specialisation,
which leaves rational coefficients, while adams=True keeps the Adams
operations and gives the Poincare polynomial of the coarse space.
"""

from stablemaps import (extract_classes, point_target, potential,
                        projective_space, solve_phi0)


def classes(w, kmax, dmax=None, adams=False):
    phi0 = solve_phi0(w, kmax, dmax, adams=adams)
    return extract_classes(potential(w, phi0, adams=adams), w)


print("=== target: the projective line, kmax = 4, degrees <= 3 ===")
w = projective_space(1)
table = classes(w, 4, (3,))
for (k, d) in table.cells():
    p = table.entry(k, d)
    if not p.is_zero:
        print(f"  k={k} d={d[0]}:  {p}")
print()

print("=== the Grassmannian of lines, from the degree-one cell ===")
for n in (1, 2, 3):
    wn = projective_space(n)
    tn = classes(wn, 0, (1,))
    print(f"  lines in P^{n}: {tn.entry(0, (1,))}")
print()

print("=== degree-zero cells factor through the point target ===")
point_table = classes(point_target(), 4)
for k in (3, 4):
    product = point_table.entry(k) * w.pw
    print(f"  k={k}: entry {table.entry(k, (0,))}  ==  [P^1] * ({point_table.entry(k)}):",
          table.entry(k, (0,)) == product)
print()

print("=== multiple covers: the Adams operations ===")
print(f"  degree-2 no-marking space of P^1, default:  {table.entry(0, (2,))}")
print("  (the p_k = 0 specialisation: the stratum of two degree-one components")
print("   swapped by Z/2 is divided by 2 instead of taking its invariant part)")
corrected = classes(w, 4, (3,), adams=True)
print(f"  with adams=True:                           {corrected.entry(0, (2,))}")
print("  (the coarse space is the projective plane of binary quadrics)")
w2 = projective_space(2)
conics = classes(w2, 0, (2,), adams=True)
print(f"  complete conics, adams=True: {conics.entry(0, (2,))}")
