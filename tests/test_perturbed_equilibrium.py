"""LeVeque's small-perturbation test of the test-1 equilibrium (ROADMAP item 6's second oracle).

A pressure pulse of size eps, eps * exp(-4 (x + 4)^2) at the cell centres,
is added to the cell means of test 1's stationary jump. The run goes to
t = 3 at h = 0.05, so the pulse's right-going half has passed the origin,
and is compared with the unperturbed run U_eq: max |U - U_eq| / eps over
every cell mean. A well-balanced scheme keeps U_eq bit for bit and
responds to the pulse alone, so the ratio does not depend on eps. A scheme
that moves the equilibrium adds its own defect, a fixed size, and the
ratio grows as 1 / eps (LeVeque, JCP 1998). This is the paper's central
claim, checked without a reference solution.

Every step of a perturbed run is computed: no step of it returns its
input, so ``runner.advance`` never takes its fixed-point shortcut there.
"""

import numpy as np
import pytest

from deltawave.cases import get_case
from deltawave.dg import field_from_states, make_grid
from deltawave.fluxes import Scheme
from deltawave.runner import CFL, advance, initial_states

CASE = get_case(1)
H, T_END, X_PULSE = 0.05, 3.0, -4.0
# max |U - U_eq| / eps as measured (2-core Xeon VM, numpy 2.4.6). Each is
# pinned to 1% relative: the solver and kt read 1.4627-1.4677 at both eps,
# and splitting's eps * ratio, its equilibrium defect, reads 0.1498 at both.
RESPONSE = {
    (Scheme.SOLVER, 1e-4): 1.4677, (Scheme.SOLVER, 1e-6): 1.4627,
    (Scheme.KT, 1e-4): 1.4668, (Scheme.KT, 1e-6): 1.4625,
    (Scheme.SPLITTING, 1e-4): 1.4982e3, (Scheme.SPLITTING, 1e-6): 1.4981e5,
}
MARGIN = 0.01


@pytest.fixture(scope="module")
def equilibrium():
    """Test 1's initial field on [-10, 10] at h = 0.05, and U_eq: its unperturbed solver run."""
    field = field_from_states(make_grid(*CASE.domain, H), *initial_states(CASE))
    u_eq = advance(field, CASE.coeffs, Scheme.SOLVER, T_END, CFL)
    return field, u_eq


def test_unperturbed_run_keeps_every_bit(equilibrium):
    field, u_eq = equilibrium
    assert u_eq.coeffs.tobytes() == field.coeffs.tobytes()
    assert u_eq.time == T_END


@pytest.mark.parametrize("scheme, eps", RESPONSE,
                         ids=lambda v: v.value if isinstance(v, Scheme) else f"{v:g}")
def test_response_to_a_small_pulse(equilibrium, scheme, eps, advance_steps):
    field, u_eq = equilibrium
    x = field.grid.centers
    c = field.coeffs.copy()
    c[:, 0, 2] += eps * np.exp(-4.0 * (x - X_PULSE) ** 2) / (field.gamma - 1.0)  # energy of dp
    out = advance(field.with_coeffs(c), CASE.coeffs, scheme, T_END, CFL)
    ratio = float(np.abs(out.means - u_eq.means).max()) / eps
    assert abs(ratio / RESPONSE[scheme, eps] - 1.0) < MARGIN
    # Each step starts where the one before it ended: none was skipped.
    assert advance_steps[0][0] == 0.0 and len(advance_steps) > 200
    assert all(t1 == t0 + dt for (t0, dt), (t1, _) in zip(advance_steps, advance_steps[1:]))
    assert advance_steps[-1][0] + advance_steps[-1][1] == out.time
