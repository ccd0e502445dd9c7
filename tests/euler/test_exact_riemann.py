"""Exact Riemann solver: star-region physics and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PhysicsError
from repro.euler import exact_riemann as er
from repro.euler.constants import GAMMA

side = st.builds(
    er.RiemannState,
    rho=st.floats(min_value=0.1, max_value=10.0),
    u=st.floats(min_value=-1.5, max_value=1.5),
    p=st.floats(min_value=0.1, max_value=10.0),
)

SOD_LEFT = er.RiemannState(1.0, 0.0, 1.0)
SOD_RIGHT = er.RiemannState(0.125, 0.0, 0.1)


class TestStarRegion:
    def test_sod_star_values(self):
        """Canonical Sod values (Toro, Table 4.2): p* = 0.30313, u* = 0.92745."""
        star = er.solve_star_region(SOD_LEFT, SOD_RIGHT)
        assert star.p == pytest.approx(0.30313, abs=2e-5)
        assert star.u == pytest.approx(0.92745, abs=2e-5)
        assert star.rho_left == pytest.approx(0.42632, abs=2e-5)
        assert star.rho_right == pytest.approx(0.26557, abs=2e-5)

    def test_toro_123_star(self):
        """Toro test 2 (123 problem): p* = 0.00189, u* = 0 by symmetry."""
        left = er.RiemannState(1.0, -2.0, 0.4)
        right = er.RiemannState(1.0, 2.0, 0.4)
        star = er.solve_star_region(left, right)
        assert star.u == pytest.approx(0.0, abs=1e-10)
        assert star.p == pytest.approx(0.00189, abs=1e-4)

    def test_strong_shock_left(self):
        """Toro test 3: p* = 460.894, u* = 19.5975."""
        left = er.RiemannState(1.0, 0.0, 1000.0)
        right = er.RiemannState(1.0, 0.0, 0.01)
        star = er.solve_star_region(left, right)
        assert star.p == pytest.approx(460.894, rel=1e-4)
        assert star.u == pytest.approx(19.5975, rel=1e-4)

    def test_identical_states_give_trivial_star(self):
        same = er.RiemannState(1.0, 0.5, 2.0)
        star = er.solve_star_region(same, same)
        assert star.p == pytest.approx(2.0, rel=1e-10)
        assert star.u == pytest.approx(0.5, rel=1e-10)

    def test_vacuum_detection(self):
        left = er.RiemannState(1.0, -10.0, 0.01)
        right = er.RiemannState(1.0, 10.0, 0.01)
        with pytest.raises(PhysicsError, match="vacuum"):
            er.solve_star_region(left, right)

    def test_nonconvergence_raises_instead_of_returning_garbage(self):
        """An exhausted Newton budget must not hand back the last iterate.

        Toro test 3 needs more than two iterations; the seed code fell
        out of the loop and silently built the star region from an
        unconverged pressure.
        """
        left = er.RiemannState(1.0, 0.0, 1000.0)
        right = er.RiemannState(1.0, 0.0, 0.01)
        with pytest.raises(PhysicsError, match="did not converge") as excinfo:
            er.solve_star_region(left, right, max_iterations=2)
        error = excinfo.value
        assert error.details["iterations"] == 2
        assert error.details["p"] > 0.0
        assert error.details["residual"] > error.details["tolerance"]

    def test_convergence_details_not_triggered_by_easy_problems(self):
        # the default budget solves every standard test (no new raise)
        star = er.solve_star_region(SOD_LEFT, SOD_RIGHT)
        assert star.p > 0.0

    @given(left=side, right=side)
    @settings(max_examples=60, deadline=None)
    def test_star_pressure_positive_and_consistent(self, left, right):
        du = right.u - left.u
        if 2 * left.sound_speed() / (GAMMA - 1) + 2 * right.sound_speed() / (GAMMA - 1) <= du:
            return  # vacuum case, covered separately
        star = er.solve_star_region(left, right)
        assert star.p > 0
        assert star.rho_left > 0
        assert star.rho_right > 0
        # the pressure function must actually vanish at the root
        fl, _ = er._pressure_function(star.p, left, GAMMA)
        fr, _ = er._pressure_function(star.p, right, GAMMA)
        assert fl + fr + du == pytest.approx(0.0, abs=1e-7)


class TestSampling:
    def test_sampling_recovers_far_field(self):
        x = np.array([-10.0, 10.0])
        solution = er.solve(SOD_LEFT, SOD_RIGHT, x, t=0.01)
        np.testing.assert_allclose(solution[0], [1.0, 0.0, 1.0])
        np.testing.assert_allclose(solution[1], [0.125, 0.0, 0.1])

    def test_contact_separates_densities(self):
        star = er.solve_star_region(SOD_LEFT, SOD_RIGHT)
        x = np.array([star.u * 0.2 - 1e-6, star.u * 0.2 + 1e-6])
        solution = er.solve(SOD_LEFT, SOD_RIGHT, x, t=0.2)
        assert solution[0, 0] == pytest.approx(star.rho_left, rel=1e-6)
        assert solution[1, 0] == pytest.approx(star.rho_right, rel=1e-6)
        # pressure and velocity are continuous across the contact
        assert solution[0, 2] == pytest.approx(solution[1, 2], rel=1e-9)
        assert solution[0, 1] == pytest.approx(solution[1, 1], rel=1e-9)

    def test_rarefaction_fan_is_smooth(self):
        x = np.linspace(0.05, 0.45, 200)
        solution = er.solve(SOD_LEFT, SOD_RIGHT, x, t=0.2, x_diaphragm=0.5)
        # inside/around the fan the density varies without jumps
        drho = np.abs(np.diff(solution[:, 0]))
        assert drho.max() < 0.02

    def test_shock_jump_satisfies_rankine_hugoniot(self):
        star = er.solve_star_region(SOD_LEFT, SOD_RIGHT)
        # mass flux through the right shock equals rho * (u - s) on both sides
        a_right = SOD_RIGHT.sound_speed()
        shock_speed = SOD_RIGHT.u + a_right * np.sqrt(
            (GAMMA + 1) / (2 * GAMMA) * star.p / SOD_RIGHT.p
            + (GAMMA - 1) / (2 * GAMMA)
        )
        mass_pre = SOD_RIGHT.rho * (SOD_RIGHT.u - shock_speed)
        mass_post = star.rho_right * (star.u - shock_speed)
        assert mass_pre == pytest.approx(mass_post, rel=1e-8)

    def test_t_zero_rejected(self):
        with pytest.raises(PhysicsError):
            er.solve(SOD_LEFT, SOD_RIGHT, np.array([0.0]), t=0.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_t_rejected(self, t):
        """NaN <= 0 is false: a NaN t used to sample one constant state."""
        with pytest.raises(PhysicsError, match="finite t > 0"):
            er.solve(SOD_LEFT, SOD_RIGHT, np.array([0.0]), t=t)

    def test_solution_is_self_similar(self):
        x1 = np.linspace(-0.4, 0.4, 33)
        s1 = er.solve(SOD_LEFT, SOD_RIGHT, x1, t=0.1)
        s2 = er.solve(SOD_LEFT, SOD_RIGHT, 2 * x1, t=0.2)
        np.testing.assert_allclose(s1, s2, rtol=1e-12)
