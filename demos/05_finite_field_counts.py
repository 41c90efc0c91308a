"""Point counts over small finite fields against the closed-form classes.

Evaluating the class of the degree-d map space at a prime p counts its
points over F_p.  The brute-force counter counts the (n+1)-tuples of
degree-d binary forms whose homogeneous gcd is a unit, and divides by the
scalars; the closed form comes from a geometric-series expansion.  Along a
tuple the counter keeps only the set of irreducible factors that all its
nonzero forms share so far (t1 and the monic irreducibles of F_p[x] up to
degree d, each one bit of an int, listed once by a sieve): a form
intersects that set with its own factors, and the gcd is a unit exactly
when the set is empty.  The forms of the next slot are not taken one at a
time: they fall into classes by what they keep of the set, and each class
is counted at once, as a popcount of bitsets over the forms, one per
factor.  Every form lies in one class, so the count is the naive one.  The
same numbers also satisfy a degree recurrence obtained by sorting all
nonzero tuples by the degree of their common factor, checked here as an
exact polynomial identity.
"""

from stablemaps import (count_maps_bruteforce, projective_space,
                        verify_recurrence)

print("brute-force counts vs closed-form evaluation:")
for n in (1, 2):
    w = projective_space(n)
    for d in (1, 2):
        for p in (2, 3, 5):
            counted = count_maps_bruteforce(n, d, p)
            expected = int(w.map_class((d,)).eval_at(p))
            marker = "ok" if counted == expected else "MISMATCH"
            print(f"  n={n} d={d} p={p}: counted {counted:>10}  closed form {expected:>10}  {marker}")
print()

print("degree recurrence as an exact polynomial identity:")
for n in (1, 2, 3):
    print(f"  P^{n}, degrees <= 4:", verify_recurrence(n, 4))
print()

w = projective_space(1)
print("the degree-1 map space of the line is the Moebius group:")
print("  class:", w.map_class((1,)))
for p in (2, 3, 5):
    print(f"  |PGL_2(F_{p})| = {count_maps_bruteforce(1, 1, p)}")
