"""The identity battery tying the solver output to independent computations.

The solver solves only the t = 0 slice of phi0 from the functional
equation, cell by cell in total z-degree, and builds the t-layers from the
differential equation.  The root phi0 of the functional equation
satisfies, exactly within truncation:

  * the functional equation itself over the whole box, the check that is
    independent of how the slice and the t-layers were built;
  * the universal differential equation (1 - u phi0) phi0_t = (u+1) phi0 + t,
    whose shape does not depend on the target at all;
  * its shifted form (1 + u t - u psi) psi_t = 1 + psi with psi = phi0 + t;
  * the derivative identity d/dt (potential / [W]) = phi0;
  * the coefficient-wise agreement of the two expansions of the formal
    potential whose critical point phi0 is.

On top of the exact checks, the differential equation has a closed-form
implicit solution whose integration constant may depend on z but not on t;
evaluating it numerically at several t-samples and watching the relative
spread stay at rounding level is a quick sanity test of everything at once.
"""

from stablemaps import (point_target, potential, projective_space, solve_phi0,
                        verify_dt, verify_functional_equation,
                        verify_implicit_numeric, verify_ode,
                        verify_potential_expansion)

for name, w, kmax, dmax in (("point", point_target(), 8, ()),
                            ("line", projective_space(1), 5, (3,)),
                            ("plane", projective_space(2), 4, (2,))):
    phi0 = solve_phi0(w, kmax, dmax)
    pot = potential(w, phi0)
    res_a, res_b = verify_ode(phi0)
    fe = verify_functional_equation(w, phi0)
    print(f"{name}: functional equation residual zero: {fe.is_zero};"
          f" ODE residuals zero: {res_a.is_zero and res_b.is_zero};"
          f" d/dt identity: {verify_dt(pot, phi0, w)};"
          f" potential expansion: {verify_potential_expansion(w, 4, kmax, dmax)}")

print()
print("numeric implicit-solution check (advisory, the only floats anywhere):")
spread = verify_implicit_numeric(point_target(), 4, None,
                                 [0, "1/400", "1/200", "1/100"], kmax=12)
print(f"  point target, u = 4: relative spread {spread:.3e}")
spread = verify_implicit_numeric(projective_space(1), 4, "1/1000",
                                 [0, "1/400", "1/200", "1/100"],
                                 kmax=10, dmax=(3,))
print(f"  line target, u = 4, z = 1/1000: relative spread {spread:.3e}")
