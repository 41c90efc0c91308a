import pytest

from stablemaps import (extract_classes, point_target, potential,
                        projective_space, solve_phi0, tree_sum_potential)

try:
    from hypothesis import settings
except ImportError:  # only the property-test modules need hypothesis
    pass
else:
    # The property tests draw the same examples on every run (derandomize),
    # keep no example database, and stay within the time of the rest of the
    # suite.
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=60, database=None)
    settings.load_profile("tier1")


def _run(w, kmax, dmax, adams=False):
    phi0 = solve_phi0(w, kmax, dmax, adams=adams)
    pot = potential(w, phi0, adams=adams)
    return {
        "w": w,
        "kmax": kmax,
        "dmax": dmax,
        "phi0": phi0,
        "pot": pot,
        "table": extract_classes(pot, w),
        "oracle": tree_sum_potential(w, kmax, dmax, adams=adams),
    }


@pytest.fixture(scope="session")
def point_run():
    return _run(point_target(), 8, ())


@pytest.fixture(scope="session")
def p1_run():
    return _run(projective_space(1), 5, (3,))


@pytest.fixture(scope="session")
def p2_run():
    return _run(projective_space(2), 4, (2,))


# The same boxes with the Adams operations kept (adams=True): the classes are
# the Poincare polynomials of the coarse spaces.  The point target needs no
# such run, since its t = 0 slice R0, on which the correction depends, is 0.

@pytest.fixture(scope="session")
def p1_adams_run():
    return _run(projective_space(1), 5, (3,), adams=True)


@pytest.fixture(scope="session")
def p2_adams_run():
    return _run(projective_space(2), 4, (2,), adams=True)
