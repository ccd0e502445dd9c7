"""End-to-end 2-D solver: the two-channel interaction and invariants."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.euler import diagnostics, problems
from repro.euler.boundary import all_transmissive_2d
from repro.euler.rankine_hugoniot import post_shock_state
from repro.euler.solver import EulerSolver2D, SolverConfig


@pytest.fixture(scope="module")
def small_run(pc_config_module):
    solver, setup = problems.two_channel(
        n_cells=24, h=12.0, mach=2.2, config=pc_config_module
    )
    solver.run(max_steps=15)
    return solver, setup


@pytest.fixture(scope="module")
def pc_config_module():
    return SolverConfig(reconstruction="pc", riemann="rusanov", rk_order=3, cfl=0.5)


class TestSetup:
    def test_geometry_matches_paper(self):
        _, setup = problems.two_channel(n_cells=400, h=200.0)
        assert setup.domain_size == 400.0
        assert setup.dx == pytest.approx(1.0)  # the paper's grid
        assert setup.exit_stop - setup.exit_start == pytest.approx(200.0)

    def test_bad_mach(self):
        with pytest.raises(ConfigurationError):
            problems.two_channel(n_cells=16, h=8.0, mach=0.9)

    def test_exit_outside_wall_rejected(self):
        with pytest.raises(ConfigurationError):
            problems.two_channel(n_cells=16, h=8.0, exit_start=12.0)

    @pytest.mark.parametrize("n_cells", [0, -3])
    def test_empty_grid_rejected(self, n_cells):
        with pytest.raises(ConfigurationError, match="n_cells"):
            problems.two_channel(n_cells=n_cells, h=8.0)
        with pytest.raises(ConfigurationError, match="n_cells"):
            problems.two_channel_ensemble([2.0, 2.5], n_cells=n_cells, h=8.0)

    def test_empty_grid_job_fails_as_a_configuration_error(self):
        """A service job reports the refusal, not a ZeroDivisionError."""
        from contextlib import ExitStack

        from repro.serve.jobs import JobSpec
        from repro.serve.workers import _execute

        spec = JobSpec(problem="two_channel", problem_args={"n_cells": 0}, max_steps=1)
        events = []
        with ExitStack() as cleanup:
            _execute(
                [{"job_id": "empty", "spec": spec.to_dict()}],
                lambda job_id, event: events.append((job_id, event)),
                lambda records: None,
                None,
                cleanup,
            )
        [(job_id, event)] = events
        assert job_id == "empty" and event["event"] == "failed"
        assert event["error"]["type"] == "ConfigurationError"
        assert "n_cells" in event["error"]["message"]

    def test_initial_state_quiescent(self):
        solver, setup = problems.two_channel(n_cells=16, h=8.0)
        prim = solver.primitive
        np.testing.assert_allclose(prim[..., 0], setup.rho0)
        np.testing.assert_allclose(prim[..., 1:3], 0.0, atol=1e-14)
        np.testing.assert_allclose(prim[..., 3], setup.p0)

    def test_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            EulerSolver2D(np.ones((4, 4, 3)), 0.1, 0.1, all_transmissive_2d())
        with pytest.raises(ConfigurationError):
            EulerSolver2D(np.ones((4, 4, 4)), 0.1, 0.0, all_transmissive_2d())


class TestInvariants:
    def test_diagonal_symmetry_preserved(self, small_run):
        solver, _ = small_run
        assert diagnostics.symmetry_error(solver.primitive) < 1e-11

    def test_state_physical(self, small_run):
        solver, _ = small_run
        prim = solver.primitive
        assert prim[..., 0].min() > 0
        assert prim[..., 3].min() > 0

    def test_flow_enters_through_exits(self, small_run):
        solver, setup = small_run
        prim = solver.primitive
        # pressure near the exits is elevated well above ambient
        exit_cells = slice(
            int(setup.exit_start / setup.dx), int(setup.exit_stop / setup.dx)
        )
        assert prim[0, exit_cells, 3].mean() > 2.0 * setup.p0

    def test_disturbance_spreads_over_time(self, pc_config_module):
        solver, setup = problems.two_channel(
            n_cells=24, h=12.0, config=pc_config_module
        )
        solver.run(max_steps=5)
        early = diagnostics.disturbed_fraction(solver.primitive, setup.p0)
        solver.run(max_steps=15)
        late = diagnostics.disturbed_fraction(solver.primitive, setup.p0)
        assert late > early > 0

    def test_far_corner_untouched_early(self, pc_config_module):
        solver, setup = problems.two_channel(
            n_cells=32, h=16.0, config=pc_config_module
        )
        solver.run(max_steps=4)  # causality: waves cannot reach the far corner
        prim = solver.primitive
        assert prim[-1, -1, 3] == pytest.approx(setup.p0, rel=1e-8)

    def test_uniform_gas_all_transmissive_is_steady(self):
        prim = np.zeros((12, 10, 4))
        prim[...] = [1.0, 0.0, 0.0, 1.0]
        solver = EulerSolver2D(prim, 0.5, 0.5, all_transmissive_2d())
        solver.run(max_steps=6)
        np.testing.assert_allclose(solver.primitive, prim, atol=1e-13)

    def test_x_y_equivalence_of_sweeps(self):
        """A y-aligned problem must evolve exactly like its transpose."""
        rng = np.random.default_rng(5)
        profile = rng.uniform(0.8, 1.2, 12)
        prim_x = np.zeros((12, 6, 4))
        prim_x[..., 0] = profile[:, None]
        prim_x[..., 3] = 1.0
        prim_y = np.zeros((6, 12, 4))
        prim_y[..., 0] = profile[None, :]
        prim_y[..., 3] = 1.0
        sx = EulerSolver2D(prim_x, 0.5, 0.5, all_transmissive_2d())
        sy = EulerSolver2D(prim_y, 0.5, 0.5, all_transmissive_2d())
        sx.run(max_steps=5)
        sy.run(max_steps=5)
        transposed = np.transpose(sy.primitive, (1, 0, 2))
        transposed[..., [1, 2]] = transposed[..., [2, 1]]
        np.testing.assert_allclose(sx.primitive, transposed, atol=1e-12)


class TestHigherOrder2D:
    def test_weno_characteristic_runs_two_channel(self):
        config = SolverConfig(reconstruction="weno3", riemann="hllc")
        solver, setup = problems.two_channel(n_cells=20, h=10.0, config=config)
        solver.run(max_steps=8)
        prim = solver.primitive
        assert prim[..., 0].min() > 0
        assert diagnostics.symmetry_error(prim) < 1e-10

    def test_mach_number_field_shape(self, small_run):
        solver, _ = small_run
        mach = diagnostics.mach_number_field(solver.primitive)
        assert mach.shape == solver.primitive.shape[:2]
        assert mach.min() >= 0
