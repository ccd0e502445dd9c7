"""GetDT (CFL step) and the TVD Runge-Kutta integrators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.euler import eos, state
from repro.euler.boundary import all_transmissive_2d
from repro.euler.engine import StepEngine
from repro.euler.rk import (
    get_integrator,
    rk1_step,
    rk2_tvd_step,
    rk3_tvd_step,
    run_schedule,
    schedule,
)
from repro.euler.solver import SolverConfig
from repro.euler.timestep import get_dt, max_eigenvalue
from repro.euler.workspace import Workspace
from repro.jit.numpy_eval import numpy_program
from tests.conftest import random_primitive_1d, random_primitive_2d


class TestGetDt:
    def test_matches_fortran_formula_2d(self, rng):
        """DT = CFL / max((|Ux|+C)/Dx + (|Uy|+C)/Dy) — the paper's GetDT."""
        prim = random_primitive_2d(rng, 6, 7)
        dx, dy = 0.5, 0.25
        c = eos.sound_speed(prim[..., 0], prim[..., 3])
        ev = (np.abs(prim[..., 1]) + c) / dx + (np.abs(prim[..., 2]) + c) / dy
        assert get_dt(prim, [dx, dy], cfl=0.5) == pytest.approx(0.5 / ev.max())

    def test_1d_variant(self, rng):
        prim = random_primitive_1d(rng, 9)
        c = eos.sound_speed(prim[:, 0], prim[:, 2])
        ev = (np.abs(prim[:, 1]) + c) / 0.1
        assert get_dt(prim, [0.1], cfl=0.4) == pytest.approx(0.4 / ev.max())

    def test_dt_scales_with_cfl(self, rng):
        prim = random_primitive_1d(rng, 9)
        assert get_dt(prim, [0.1], cfl=1.0) == pytest.approx(
            2 * get_dt(prim, [0.1], cfl=0.5)
        )

    def test_finer_grid_smaller_dt(self, rng):
        prim = random_primitive_2d(rng, 5, 5)
        assert get_dt(prim, [0.1, 0.1]) < get_dt(prim, [0.2, 0.2])

    def test_wrong_spacing_count(self, rng):
        with pytest.raises(ConfigurationError):
            get_dt(random_primitive_2d(rng, 4, 4), [0.1])

    def test_nonpositive_cfl_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            get_dt(random_primitive_1d(rng, 4), [0.1], cfl=0.0)

    def test_max_eigenvalue_positive(self, rng):
        assert max_eigenvalue(random_primitive_1d(rng, 4), [1.0]) > 0


class TestRungeKutta:
    def test_registry(self):
        assert get_integrator(1) is rk1_step
        assert get_integrator(2) is rk2_tvd_step
        assert get_integrator(3) is rk3_tvd_step
        with pytest.raises(ConfigurationError):
            get_integrator(4)

    @pytest.mark.parametrize("order,expected_slope", [(1, 1), (2, 2), (3, 3)])
    def test_convergence_order_on_exponential(self, order, expected_slope):
        """dy/dt = -y: the error should shrink as dt^order."""
        integrator = get_integrator(order)

        def rhs(y):
            return -y

        errors = []
        for steps in (16, 32):
            y = np.array([1.0])
            dt = 1.0 / steps
            for _ in range(steps):
                y = integrator(y, dt, rhs)
            errors.append(abs(float(y[0]) - np.exp(-1.0)))
        observed = np.log2(errors[0] / errors[1])
        assert observed > expected_slope - 0.35

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exact_for_constant_rhs(self, order):
        integrator = get_integrator(order)
        y = integrator(np.array([2.0]), 0.5, lambda _: np.array([3.0]))
        assert y[0] == pytest.approx(2.0 + 1.5)

    @pytest.mark.parametrize("order", [2, 3])
    def test_ssp_convex_combination_preserves_bounds(self, order):
        """For the TVD property the stages are convex combinations of
        forward-Euler steps; with an rhs that keeps FE in [0,1], the
        full step stays in [0,1] too."""
        integrator = get_integrator(order)

        def rhs(y):
            return -y  # FE with dt<=1 maps [0,1] into [0,1]

        y = integrator(np.array([1.0]), 0.9, rhs)
        assert 0.0 <= y[0] <= 1.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_in_place_integrator_is_bit_for_bit(self, order, rng):
        """The order's schedule of stages, each ``k = L(source)`` and the
        combine IR of its kind, reproduces the allocating step exactly —
        the last stage writing ``u`` in place."""
        matrix = rng.normal(0, 0.2, (5, 5))
        u0 = rng.normal(0, 1, (7, 5))

        def rhs(y):
            return y @ matrix

        expected = get_integrator(order)(u0.copy(), 0.07, rhs)
        u = u0.copy()
        work = Workspace()
        k = work.like("k", u)
        dt = np.full((7, 1), 0.07)  # one clock per row, as the engine's members have

        def stage(kind, source, target):
            np.matmul(source, matrix, out=k)
            numpy_program("combine", kind).run([u, source, k, dt], [target], work)

        result = run_schedule(order, u, work, stage)
        assert result is u  # mutates in place
        assert np.max(np.abs(u - expected)) == 0.0

    def test_into_registry_rejects_unknown_order(self):
        with pytest.raises(ConfigurationError):
            schedule(4)

    def test_get_dt_with_workspace_matches(self, rng):
        """The pooled dt pass — the engine's fused dt program on its
        workspace — gives ``get_dt``'s step, bit for bit."""
        config = SolverConfig(cfl=0.5)
        u = state.conservative_from_primitive(random_primitive_2d(rng, 6, 7), config.gamma)
        plain = get_dt(state.primitive_from_conservative(u, config.gamma), [0.5, 0.25], cfl=0.5)
        engine = StepEngine(
            u.shape, [0.5, 0.25], config, [all_transmissive_2d()], backend="numpy"
        )
        (pooled,) = engine.compute_dt(u[None])
        assert plain == pooled

    def test_linearity(self, rng):
        """All three integrators are linear in the state for linear rhs."""
        matrix = rng.normal(0, 0.2, (3, 3))

        def rhs(y):
            return matrix @ y

        for order in (1, 2, 3):
            integrator = get_integrator(order)
            y1 = rng.normal(0, 1, 3)
            y2 = rng.normal(0, 1, 3)
            combined = integrator(y1 + 2 * y2, 0.1, rhs)
            separate = integrator(y1, 0.1, rhs) + 2 * integrator(y2, 0.1, rhs)
            np.testing.assert_allclose(combined, separate, rtol=1e-12)
