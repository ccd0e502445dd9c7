"""StepEngine: the public ``rhs``, buffer reuse, counters, validation.

The engine's whole claim is that its preallocated, ``out=``-driven
stepping performs the *identical sequence of rounded floating-point
operations* as the allocating seed solver.  The lattice strategy
(``test_single_path.py``) draws that at 0.0; the sweep here holds every
Riemann solver x reconstruction x variables x RK order to it on one
fixed state, and the paper problems and the allocating ``rhs`` wrapper
too.  The workspace tests pin the other half of the contract: engines
share nothing with each other, and a warmed-up engine stops allocating.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import repro.jit
from repro.errors import ConfigurationError
from repro.euler import problems
from repro.euler.boundary import all_transmissive_2d, transmissive_1d
from repro.euler.engine import PHASES, StepEngine
from repro.euler.solver import (
    EulerSolver1D,
    EulerSolver2D,
    SolverConfig,
    _clamped_dt,
    _reached,
    paper_benchmark_config,
)
from repro.euler.workspace import Workspace

from tests.euler.draws import RECONSTRUCTIONS, RIEMANN, VARIABLES, smooth

RK_ORDERS = (1, 2, 3)


def _twin_1d(primitive, config):
    """(engine solver, seed solver) from the same initial condition."""
    engine = EulerSolver1D(primitive.copy(), 0.01, transmissive_1d(), config)
    seed = EulerSolver1D(
        primitive.copy(), 0.01, transmissive_1d(), config, use_engine=False
    )
    return engine, seed


def _twin_2d(primitive, config):
    engine = EulerSolver2D(
        primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config
    )
    seed = EulerSolver2D(
        primitive.copy(), 0.01, 0.012, all_transmissive_2d(), config,
        use_engine=False,
    )
    return engine, seed


class TestBitForBitSweep:
    """Property-style sweep over the full method menu, exact equality."""

    @pytest.mark.parametrize("reconstruction", RECONSTRUCTIONS)
    @pytest.mark.parametrize("riemann", RIEMANN)
    def test_engine_equals_seed_on_random_states(
        self, reconstruction, riemann, rng
    ):
        prim_1d = smooth(rng, (16,), 3)
        prim_2d = smooth(rng, (8, 10), 4)
        for variables, rk_order in itertools.product(VARIABLES, RK_ORDERS):
            config = SolverConfig(
                reconstruction=reconstruction,
                riemann=riemann,
                variables=variables,
                rk_order=rk_order,
            )
            engine, seed = _twin_1d(prim_1d, config)
            for _ in range(2):
                dt_engine = engine.step()
                dt_seed = seed.step()
                assert dt_engine == dt_seed
            assert np.max(np.abs(engine.u - seed.u)) == 0.0, (
                f"1-D {reconstruction}/{riemann}/{variables}/rk{rk_order}"
            )

            engine, seed = _twin_2d(prim_2d, config)
            for _ in range(2):
                assert engine.step() == seed.step()
            assert np.max(np.abs(engine.u - seed.u)) == 0.0, (
                f"2-D {reconstruction}/{riemann}/{variables}/rk{rk_order}"
            )


class TestAcceptanceProblems:
    """The paper problems reproduce the seed path exactly."""

    def test_sod_2d_exact(self):
        engine, _ = problems.sod_2d(nx=32, ny=12)
        seed, _ = problems.sod_2d(nx=32, ny=12)
        seed.engine = None  # seed path, same initial state
        engine.run(max_steps=5)
        seed.run(max_steps=5)
        assert np.max(np.abs(engine.u - seed.u)) == 0.0
        assert engine.time == seed.time

    def test_two_channel_exact(self):
        config = paper_benchmark_config()
        engine, _ = problems.two_channel(n_cells=24, h=12.0, config=config)
        seed, _ = problems.two_channel(n_cells=24, h=12.0, config=config)
        seed.engine = None
        engine.run(max_steps=5)
        seed.run(max_steps=5)
        assert np.max(np.abs(engine.u - seed.u)) == 0.0

    def test_rhs_wrapper_matches_seed(self, rng):
        """The public allocating ``rhs`` returns the seed values."""
        prim = smooth(rng, (8, 9), 4)
        engine, seed = _twin_2d(prim, SolverConfig())
        assert np.max(np.abs(engine.rhs(engine.u) - seed.rhs(seed.u))) == 0.0


class TestWorkspaceIsolation:
    def test_two_engines_share_no_memory(self, rng):
        """Same shape and config — still strictly private buffers."""
        prim = smooth(rng, (8, 9), 4)
        config = SolverConfig(reconstruction="tvd2", variables="primitive")
        a = EulerSolver2D(prim.copy(), 0.01, 0.012, all_transmissive_2d(), config)
        b = EulerSolver2D(prim.copy(), 0.01, 0.012, all_transmissive_2d(), config)
        a.step()
        b.step()
        buffers_a = list(a.engine.workspace.buffers())
        buffers_b = list(b.engine.workspace.buffers())
        assert buffers_a and buffers_b
        for array_a in buffers_a:
            for array_b in buffers_b:
                assert not np.shares_memory(array_a, array_b)

    def test_workspace_buffers_are_stable_across_steps(self, rng):
        """Repeated steps reuse the same arrays — no buffer churn."""
        prim = smooth(rng, (8, 9), 4)
        config = SolverConfig(reconstruction="tvd2", variables="primitive")
        solver = EulerSolver2D(prim, 0.01, 0.012, all_transmissive_2d(), config)
        solver.step()
        before = {key: id(arr) for key, arr in solver.engine.workspace._arrays.items()}
        solver.step()
        solver.step()
        after = {key: id(arr) for key, arr in solver.engine.workspace._arrays.items()}
        assert before == after

    @staticmethod
    def _peak_step_bytes(solver):
        """Tracemalloc peak-over-baseline of one step after warmup."""
        solver.step()  # warmup populates every workspace buffer
        solver.step()
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solver.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak - baseline

    def test_warm_engine_allocates_an_order_less_than_seed(self, rng):
        """After warmup a step allocates no new field arrays.

        A few KB of transients remain (workspace key tuples, ufunc
        buffering for the strided transposed adds), so the assertion is
        the ISSUE's comparative criterion — at least 10x below the seed
        path, which allocates every stage temporary afresh.  Scoped to a
        non-characteristic, non-Roe configuration: those two kernels
        still allocate small internal temporaries even under the engine.
        """
        prim = smooth(rng, (16, 16), 4)
        config = SolverConfig(
            reconstruction="tvd2", variables="primitive", riemann="hll", rk_order=3
        )
        engine_solver = EulerSolver2D(
            prim.copy(), 0.01, 0.012, all_transmissive_2d(), config
        )
        seed_solver = EulerSolver2D(
            prim.copy(), 0.01, 0.012, all_transmissive_2d(), config,
            use_engine=False,
        )
        engine_bytes = self._peak_step_bytes(engine_solver)
        seed_bytes = self._peak_step_bytes(seed_solver)
        assert engine_bytes * 10 <= seed_bytes, (
            f"engine step peaks at {engine_bytes} bytes"
            f" vs seed {seed_bytes} bytes"
        )


class TestCounters:
    def test_one_conversion_per_stage_not_two(self, rng):
        """compute_dt's conversion feeds RK stage 1: 3/step for RK3, not 4."""
        prim = smooth(rng, (8, 9), 4)
        solver = EulerSolver2D(
            prim, 0.01, 0.012, all_transmissive_2d(),
            SolverConfig(reconstruction="pc", variables="primitive", rk_order=3),
        )
        solver.run(max_steps=3)
        engine = solver.engine
        assert engine.steps_taken == 3
        assert engine.rhs_evaluations == 9
        assert engine.primitive_conversions == 9  # 3 per step, not 4

    def test_phase_seconds_cover_all_phases(self, rng):
        # Pin the NumPy backend: this test asserts the *NumPy path's*
        # phase accounting (a jit engine adds jit_sweep/jit_dt keys and
        # leaves the served phases cold).
        prim = smooth(rng, (32,), 3)
        with repro.jit.backend_override("numpy"):
            solver = EulerSolver1D(prim, 0.01, transmissive_1d(), SolverConfig())
        solver.run(max_steps=2)
        seconds = solver.engine.seconds
        assert set(seconds) == set(PHASES)
        assert all(value >= 0.0 for value in seconds.values())
        # "riemann" is the folded face-flux program (reconstruction
        # included: there is no separate "reconstruct" phase to time).
        assert "reconstruct" not in PHASES
        for phase in ("convert", "riemann", "difference", "dt"):
            assert seconds[phase] > 0.0

    def test_scratch_bytes_reported(self, rng):
        prim = smooth(rng, (32,), 3)
        solver = EulerSolver1D(prim, 0.01, transmissive_1d(), SolverConfig())
        assert solver.engine.scratch_bytes == 0
        solver.step()
        counters = solver.engine.counters()
        assert counters["scratch_bytes"] > 0
        assert counters["scratch_bytes"] == solver.engine.workspace.nbytes


class TestEngineValidation:
    def test_bad_field_count_rejected(self):
        with pytest.raises(ConfigurationError):
            StepEngine((10, 5), (0.1,), SolverConfig(), [transmissive_1d()])

    def test_spacing_count_must_match(self):
        with pytest.raises(ConfigurationError):
            StepEngine((10, 3), (0.1, 0.1), SolverConfig(), [transmissive_1d()])

    def test_rhs_without_boundaries_rejected(self):
        """There is no engine without boundaries to call ``rhs`` on: the
        argument is required and an empty member list is refused."""
        with pytest.raises(TypeError, match="boundaries"):
            StepEngine((10, 3), (0.1,), SolverConfig())
        with pytest.raises(ConfigurationError, match="at least one member"):
            StepEngine((10, 3), (0.1,), SolverConfig(), [])


class TestRunLoopStopEpsilon:
    """The one stop rule (:func:`repro.euler.solver._reached`)."""

    def test_stop_tolerance_is_relative_to_t_end(self):
        """At t_end = 1000, a 1e-11 shortfall is below resolution — stop.

        The old absolute 1e-14 epsilon would have scheduled a final
        degenerate 1e-11 step here.
        """
        assert _reached(1000.0 - 1e-11, 0, 1000.0, None)
        assert not _reached(1000.0 - 1e-8, 0, 1000.0, None)

    def test_small_t_end_still_advances(self):
        assert not _reached(0.0, 0, 1e-6, None)
        assert _clamped_dt(1.0, 0.0, 1e-6) == 1e-6  # one clamped step lands on it
        assert _reached(1e-6, 1, 1e-6, None)
        assert _reached(0.0, 3, None, 3)  # the step bound alone


class TestWorkspace:
    def test_same_key_returns_same_array(self):
        ws = Workspace()
        a = ws.array("x", (4, 3))
        b = ws.array("x", (4, 3))
        assert a is b

    def test_shape_or_dtype_changes_key(self):
        ws = Workspace()
        a = ws.array("x", (4, 3))
        assert a is not ws.array("x", (4, 4))
        assert a is not ws.array("x", (4, 3), dtype=np.float32)

    def test_a_key_asked_for_in_any_spelling_is_one_buffer(self):
        """Repeated requests skip normalising the key, but every spelling
        of it — list, generator, NumPy integers, dtype object or string —
        still finds the one buffer, and a new shape still gets its own."""
        ws = Workspace()
        a = ws.array("x", (4, 3))
        spellings = (tuple, list, lambda s: (n for n in s), lambda s: (np.int64(s[0]), s[1]))
        for spell in spellings:
            for dtype in (float, np.float64, np.dtype("f8"), "f8"):
                assert ws.array("x", spell((4, 3)), dtype) is a
        assert ws.array("x", (n for n in (4, 4))).shape == (4, 4)
        assert ws.array("x", (n for n in (4, 3))) is a
        assert len(ws) == 2

    def test_like_and_cell_like(self, rng):
        ws = Workspace()
        reference = np.empty((5, 6, 4))
        assert ws.like("a", reference).shape == (5, 6, 4)
        assert ws.cell_like("b", reference).shape == (5, 6)
        assert ws.cell_like("m", reference, dtype=np.bool_).dtype == np.bool_

    def test_nbytes_counts_all_buffers(self):
        ws = Workspace()
        ws.array("x", (4, 3))
        ws.array("y", (2, 2), dtype=np.bool_)
        assert ws.nbytes == 4 * 3 * 8 + 4
        assert len(ws) == 2
