"""Euler characteristics through the u -> 1 limit.

Setting u = 1 in a class gives its Euler characteristic, but the functional
equation itself degenerates there: the limit replaces the u-th power by a
logarithm.  This script builds the limiting z-series X (all of whose
coefficients equal n for the projective target P^n), solves the logarithmic
equation over plain rationals, and verifies that the resulting Euler
numbers agree with evaluating the exact polynomial classes at u = 1, also
with the Adams operations kept.
"""

from stablemaps import (chi_table, crosscheck_chi, projective_space,
                        point_target, xseries)

for n in (1, 2, 3):
    xs = xseries(projective_space(n), (5,))
    coeffs = [str(xs.coeff(0, (d,))) for d in range(1, 6)]
    print(f"X series of P^{n}: coefficients {coeffs}  (= n z/(1-z))")
print()

print("Euler characteristics for the line target, kmax = 4, degrees <= 2:")
table = chi_table(projective_space(1), 4, (2,))
for (k, d), value in sorted(table.items()):
    if value:
        print(f"  k={k} d={d[0]}: chi = {value}")
print()

print("cross-check against the exact classes evaluated at u = 1:")
print("  line (4, 2):", crosscheck_chi(projective_space(1), 4, (2,)))
print("  plane (3, 2):", crosscheck_chi(projective_space(2), 3, (2,)))
print()

print("point target: chi of the k-point moduli spaces:")
point_chis = chi_table(point_target(), 7)
print("  ", {k: v for (k, _), v in sorted(point_chis.items()) if v})
print()

# with the Adams operations the limit reads its correction off its own
# slice; the complete conics, 1 + 2u + 3u^2 + 3u^3 + 2u^4 + u^5, give 12
print("with the Adams operations (coarse moduli spaces):")
conics = chi_table(projective_space(2), 0, (2,), adams=True)[(0, (2,))]
print("  complete conics: chi =", conics)
print("  plane (3, 2):", crosscheck_chi(projective_space(2), 3, (2,), adams=True))
