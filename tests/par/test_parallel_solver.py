"""ParallelSolver2D against the serial golden reference.

The acceptance bar (ISSUE 1): 1, 2 and 4 workers reproduce the serial
two-channel solution to <= 1e-12 max-abs difference.  The solver is the
serial solver's own engine with its sweep strips on a worker team —
each strip writes a proven-disjoint row range from its own padded
window — so these tests assert bitwise agreement, with and without the
compiled kernels, on ragged many-strip plans.  They also pin what a
team may never do silently: fall back, or run serially without a
counted reason.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.jit
from repro.errors import ConfigurationError, PhysicsError
from repro.euler import problems
from repro.euler.boundary import (
    BoundarySet2D,
    EdgeSpec,
    ReflectiveWall,
    SupersonicInflow,
    Transmissive,
)
from repro.euler.solver import EulerSolver2D, SolverConfig
from repro.jit import compile as jit_compile
from repro.par import ParallelSolver2D

#: One-row strips: every sweep is a plan of as many strips as rows.
ONE_ROW_TILE_BYTES = 1

PAPER_BENCH = SolverConfig(
    reconstruction="pc", riemann="rusanov", rk_order=3, cfl=0.5,
    tile_bytes=ONE_ROW_TILE_BYTES,
)

needs_cc = pytest.mark.skipif(not repro.jit.available(), reason="no C compiler on PATH")

#: The two stencil/variable configurations the property test runs: the
#: paper's flow-picture method and a second, structurally different
#: reconstruction path (component-wise MUSCL on primitives).
PROPERTY_CONFIGS = {
    "weno3-characteristic": dict(
        reconstruction="weno3", variables="characteristic", rk_order=2
    ),
    "tvd2-primitive": dict(
        reconstruction="tvd2", limiter="vanleer", variables="primitive", rk_order=2
    ),
}


def random_problem(rng, nx, ny):
    """A smooth random state with a piecewise (wall/inflow/wall) left edge."""
    primitive = np.empty((nx, ny, 4))
    primitive[..., 0] = rng.uniform(0.5, 2.0, (nx, ny))
    primitive[..., 1] = rng.uniform(-0.3, 0.3, (nx, ny))
    primitive[..., 2] = rng.uniform(-0.3, 0.3, (nx, ny))
    primitive[..., 3] = rng.uniform(0.5, 2.0, (nx, ny))
    cut0, cut1 = ny // 3, 2 * ny // 3
    left = (
        EdgeSpec()
        .add(0, cut0, ReflectiveWall())
        .add(cut0, cut1, SupersonicInflow([1.5, 2.0, 0.0, 2.5]))
        .add(cut1, None, ReflectiveWall())
    )
    boundaries = BoundarySet2D(
        left=left,
        right=EdgeSpec.uniform(Transmissive()),
        bottom=EdgeSpec.uniform(ReflectiveWall()),
        top=EdgeSpec.uniform(Transmissive()),
    )
    return primitive, boundaries


@pytest.mark.parametrize("config_name", sorted(PROPERTY_CONFIGS))
@given(
    seed=st.integers(0, 10_000),
    nx=st.integers(8, 24),
    ny=st.integers(9, 24),
    tile_bytes=st.sampled_from([1, 1024, 4096, 16384, 0]),
    workers=st.integers(1, 4),
)
@settings(max_examples=10, deadline=None)
def test_one_step_matches_serial_for_random_partitions(
    config_name, seed, nx, ny, tile_bytes, workers
):
    """A full solver step with the strip plan — whatever the budget cuts
    it into, one strip included — split over the team equals the serial
    one-strip step, piecewise edge and all."""
    method = PROPERTY_CONFIGS[config_name]
    rng = np.random.default_rng(seed)
    primitive, boundaries = random_problem(rng, nx, ny)
    dx, dy = 1.0 / nx, 1.2 / ny

    serial = EulerSolver2D(
        primitive, dx, dy, boundaries, SolverConfig(tile_bytes=0, **method)
    )
    with ParallelSolver2D(
        primitive, dx, dy, boundaries, SolverConfig(tile_bytes=tile_bytes, **method),
        workers=workers,
    ) as parallel:
        assert parallel.compute_dt() == serial.compute_dt()
        dt = 0.2 * serial.compute_dt()
        serial.step(dt)
        parallel.step(dt)
        np.testing.assert_array_equal(parallel.u, serial.u)


@pytest.mark.parametrize("barrier", ["spin", "forkjoin"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_two_channel_acceptance_matrix(workers, barrier):
    """1/2/4 workers x both barriers reproduce the serial two-channel run,
    with the compiled kernels (strips on the team) and without them."""
    for backend in ("jit", "numpy"):
        with repro.jit.backend_override(backend):
            serial, _ = problems.two_channel(n_cells=16, h=8.0, config=PAPER_BENCH)
            with ParallelSolver2D.from_serial(
                serial, workers=workers, barrier=barrier
            ) as parallel:
                serial.run(max_steps=4)
                result = parallel.run(max_steps=4)
                assert result.steps == 4
                assert parallel.time == serial.time
                assert parallel.workers == workers
                difference = np.abs(parallel.u - serial.u).max()
                assert difference <= 1e-12  # the ISSUE bound; in practice exactly 0
                np.testing.assert_array_equal(parallel.u, serial.u)


def test_sod_2d_multi_step_exact():
    config = SolverConfig(tile_bytes=ONE_ROW_TILE_BYTES)
    serial, _ = problems.sod_2d(nx=32, ny=12, config=config)
    with ParallelSolver2D.from_serial(serial, workers=3) as parallel:
        serial.run(max_steps=5)
        parallel.run(max_steps=5)
        np.testing.assert_array_equal(parallel.u, serial.u)
        np.testing.assert_array_equal(parallel.primitive, serial.primitive)


def test_from_serial_copies_clock_and_state():
    serial, _ = problems.sod_2d(nx=16, ny=8)
    serial.run(max_steps=2)
    with ParallelSolver2D.from_serial(serial, workers=2) as parallel:
        assert parallel.time == serial.time
        assert parallel.steps == serial.steps
        np.testing.assert_array_equal(parallel.u, serial.u)
        assert parallel.u is not serial.u


def test_default_barrier_is_forkjoin_and_unknown_kinds_are_rejected():
    serial, _ = problems.sod_2d(nx=16, ny=8)
    with ParallelSolver2D.from_serial(serial, workers=2) as parallel:
        assert parallel.engine.counters()["team"] == {
            "workers": 2, "barrier": "forkjoin", "serialized": {},
        }
    with pytest.raises(ConfigurationError, match="barrier kind"):
        ParallelSolver2D.from_serial(serial, workers=2, barrier="semaphore")
    with pytest.raises(ConfigurationError, match="workers"):
        ParallelSolver2D.from_serial(serial, workers=0)


@pytest.mark.parametrize("barrier", ["spin", "forkjoin"])
def test_unphysical_state_raises_instead_of_deadlocking(barrier):
    serial, _ = problems.sod_2d(nx=16, ny=8, config=PAPER_BENCH)
    healthy = serial.u.copy()
    with ParallelSolver2D.from_serial(serial, workers=4, barrier=barrier) as parallel:
        parallel.u[:4, :, -1] = -1.0  # negative energy -> negative pressure
        with pytest.raises(PhysicsError):
            parallel.step(1e-3)
        # raised on the calling thread, off the team: nothing to unwind
        parallel.u[...] = healthy
        assert parallel.step(1e-3) == 1e-3


# -- never silently serial, never silently NumPy ---------------------------------


def _stepped_pair(workers, config, steps=3):
    serial, _ = problems.two_channel(n_cells=64, h=32.0, config=config)
    parallel = ParallelSolver2D.from_serial(serial, workers=workers)
    for _ in range(steps):
        assert parallel.step() == serial.step()
    return parallel, serial


@needs_cc
@pytest.mark.parametrize("workers", [1, 2])
def test_every_strip_is_served_by_the_compiled_kernel(workers):
    """Fails at the parent: every rank's padded array was a strided
    window of its halo buffer, so half the strips fell back to NumPy."""
    with repro.jit.backend_override("jit"):
        parallel, serial = _stepped_pair(workers, SolverConfig(reconstruction="pc"))
    with parallel:
        np.testing.assert_array_equal(parallel.u, serial.u)
        stats = parallel.engine.counters()["jit"]
        assert stats["fallbacks"] == {}
        assert stats["sweep_calls"] > 0 and stats["dt_calls"] > 0


@needs_cc
@pytest.mark.parametrize("workers", [2, 4])
def test_a_multi_strip_plan_runs_on_the_team(workers):
    config = SolverConfig(reconstruction="pc", tile_bytes=1 << 14)
    with repro.jit.backend_override("jit"):
        parallel, serial = _stepped_pair(workers, config)
    with parallel:
        np.testing.assert_array_equal(parallel.u, serial.u)
        counters = parallel.engine.counters()
        assert counters["tiles"] >= 3 * (1 + 3 * 2 * 4)  # >= 4 strips per sweep
        assert counters["jit"]["strips_threaded"] > 0
        assert counters["jit"]["serialized"] == counters["team"]["serialized"] == {}
        assert counters["jit"]["fallbacks"] == {}
        assert parallel.barrier_wait_seconds > 0.0


@pytest.mark.parametrize("missing", ["REPRO_JIT=0", "failing cc"])
def test_no_compiled_kernel_runs_serially_and_says_so(missing, monkeypatch, tmp_path):
    """Threads apply only to compiled strips; without a kernel the same
    strips run serially, equal to serial at 0.0, with a counted reason."""
    config = SolverConfig(reconstruction="pc", tile_bytes=1 << 14)
    if missing == "failing cc":
        monkeypatch.setenv(jit_compile.CC_ENV, "definitely-not-a-compiler")
        monkeypatch.setenv(jit_compile.CACHE_ENV, str(tmp_path / "cache"))
        monkeypatch.setattr(jit_compile, "_LOADED", {})
    with repro.jit.backend_override("numpy" if missing == "REPRO_JIT=0" else "jit"):
        parallel, serial = _stepped_pair(2, config)
    with parallel:
        np.testing.assert_array_equal(parallel.u, serial.u)
        counters = parallel.engine.counters()
        reasons = counters["team"]["serialized"]
        assert len(reasons) == 1 and sum(reasons.values()) > 0
        assert "no compiled kernel" in next(iter(reasons))
        assert counters.get("jit", {}).get("strips_threaded", 0) == 0
        assert parallel.barrier_wait_seconds == 0.0
