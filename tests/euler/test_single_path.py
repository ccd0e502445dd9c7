"""One solver-level strategy holds the lattice; one run loop; error parity.

Every path a run can take — engine or seed, any strip budget, B members
or one, NumPy executor or compiled C, serial or on a worker team — must
leave each member on the bits (and the dts) of the allocating seed
solver (``use_engine=False``) run on that member alone.  The property
test draws the whole lattice at once: the method tuple and RK order, a
ragged 1-D or 2-D shape, the strip budget, the executor, the driver (a
solo solver, a stack of B members on one engine, or
:class:`~repro.par.solver.ParallelSolver2D` with 1 or 2 workers on
either barrier), per-member edges of every fill kind, smooth or nasty
states (``draws.py``) and the stop (``t_end``, ``max_steps`` or both),
and runs it through ``run()``.  Either every member ends equal to its
seed run at 0.0, stopped where the stop rule says, or the member's path
raises the :class:`PhysicsError` its seed run raises — member-local in
a stack, global on a team — with ``u`` the seed's pre-step state and
the stack's survivors still equal to theirs.  The example count comes
from the hypothesis profile; the per-spec kernel matrix
(``test_kernel_single_source.py``) is what stays exhaustive.

The parity tests pin what a failure looks like from each driver: a solo
blow-up reads exactly as it always did (no ``batch_index``), an
ensemble blow-up stays member-local, and
:class:`~repro.par.solver.ParallelSolver2D` raises the serial solver's.

There is a single run loop (``solver._MemberDriver``): a solver is an
ensemble of one.  The one-loop tests run every stepper it drives —
engine solo, ensemble of one, seed, engine on a team, member k of B = 3 — to
the same clamped ``t_end`` and hold them to the same dts and bits, and
check that any driver can be run again and refuses a stop it can never
meet.
"""

import itertools
import re
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import repro.jit
from repro.errors import ConfigurationError, PhysicsError
from repro.euler import problems, state
from repro.euler.engine import StepEngine
from repro.euler.solver import (
    EnsembleMember,
    EulerEnsemble2D,
    EulerSolver1D,
    EulerSolver2D,
    SolverConfig,
    _MemberDriver,
)
from repro.jit.codegen import PENCIL
from repro.par.solver import ParallelSolver2D
from repro.serve import state_digest

from tests.euler.draws import (
    BACKENDS,
    GAMMA,
    SPACING,
    assert_same_bits,
    boundary_sets,
    edge_codes,
    methods,
    plant,
    smooth,
    state_features,
)

#: A one-byte budget floors every plan at one-row (one-member) strips.
ONE_ROW_TILE_BYTES = 1

Lattice = namedtuple(
    "Lattice",
    "method shape tile_bytes backend driver members workers barrier edges"
    " seed features steps stop max_steps",
)


#: (driver, ndim, members, workers, barrier), richest first: hypothesis
#: favours the head of a sampled_from.
DRIVERS = (
    ("team", 2, 1, 2, "spin"),
    ("stack", 2, 3, None, None),
    ("team", 2, 1, 2, "forkjoin"),
    ("stack", 1, 3, None, None),
    ("team", 2, 1, 1, "spin"),
    ("team", 2, 1, 1, "forkjoin"),
    ("stack", 2, 1, None, None),
    ("stack", 1, 1, None, None),
    ("solo", 2, 1, None, None),
    ("solo", 1, 1, None, None),
)
#: Every path a run can take: a driver, an executor, a strip budget and a
#: stop, the driver varying fastest, so that the favoured head of the list
#: holds every driver on the richest settings.
PATHS = [
    driver + (backend, tile_bytes, stop)
    for stop in ("t_end", "both", "max_steps")
    for tile_bytes in (ONE_ROW_TILE_BYTES, 0, None)
    for backend in BACKENDS
    for driver in DRIVERS
]


@st.composite
def lattices(draw):
    # Hypothesis varies the tail of an example's choices far more often
    # than its head, so the path is drawn last, in one choice.
    seed = draw(st.integers(0, 2**32 - 1))
    edges = draw(edge_codes)
    lengths = draw(st.tuples(st.integers(5, 19), st.integers(5, 11), st.integers(5, 11)))
    method = draw(methods)
    # a drawn t_end falls inside this step of the member that gets there last
    steps = draw(st.integers(1, 3))
    max_steps = draw(st.integers(1, 3))
    nasty = draw(state_features)
    state = draw(st.sampled_from(("smooth", "nasty")))
    driver, ndim, members, workers, barrier, backend, tile_bytes, stop = draw(st.sampled_from(PATHS))
    return Lattice(
        method=method,
        shape=lengths[1:] if ndim == 2 else lengths[:1],
        tile_bytes=tile_bytes,
        backend=backend,
        driver=driver,
        members=members,
        workers=workers,
        barrier=barrier,
        edges=edges[: 2 * ndim * members],
        seed=seed,
        features=nasty if state == "nasty" else frozenset(),
        steps=steps,
        stop=stop,
        max_steps=max_steps,
    )


def _seed_solver(primitive, spacing, boundaries, config):
    cls = EulerSolver1D if len(spacing) == 1 else EulerSolver2D
    return cls(primitive, *spacing, boundaries, config, use_engine=False)


Ran = namedtuple("Ran", "error u dts time steps")


def _ran_solo(solver, t_end, max_steps):
    """What a run of a B = 1 solver left: its error (raised), state,
    dts and clock."""
    error = None
    try:
        solver.run(t_end=t_end, max_steps=max_steps)
    except PhysicsError as raised:
        error = raised
    return Ran(error, solver.u.copy(), list(solver.dt_history[0]), solver.time, solver.steps)


def _ran_stack(driver, t_end, max_steps):
    """What a run of B stacked members left, member by member (an error
    retires its member: the run itself returns)."""
    result = driver.run(t_end=t_end, max_steps=max_steps)
    return [
        Ran(
            member.error, driver.member_u(index), list(driver.dt_history[index]),
            member.time, member.steps,
        )
        for index, member in enumerate(result.members)
    ]


def _drawn_t_end(seeds, steps):
    """A ``t_end`` inside step ``steps`` of the seed run that gets there
    last (every other member gets there in fewer); None if every member
    fails before."""
    ends = []
    for solver in seeds:
        ran = _ran_solo(solver, None, steps)
        if ran.error is None:
            ends.append(ran.time - 0.4 * ran.dts[-1])
    return min(ends) if ends else None


def _path(lattice, primitives, boundaries, config):
    """The driver under test on the drawn executor."""
    spacing = SPACING[len(lattice.shape)]
    with repro.jit.backend_override(lattice.backend):
        if lattice.driver == "team":
            return ParallelSolver2D(
                primitives[0], *spacing, boundaries[0], config,
                workers=lattice.workers, barrier=lattice.barrier,
            )
        if lattice.driver == "solo":
            cls = EulerSolver1D if len(spacing) == 1 else EulerSolver2D
            return cls(primitives[0], *spacing, boundaries[0], config)
        if len(spacing) == 1:
            u = state.conservative_from_primitive(primitives, GAMMA)
            return _Members1D(u, spacing, config, boundaries)
        members = [
            EnsembleMember(f"m{index}", edges, primitive)
            for index, (edges, primitive) in enumerate(zip(boundaries, primitives))
        ]
        return EulerEnsemble2D(members, *spacing, config)


def _pinned(driver, ndim, members, workers, barrier, backend):
    """A smooth, three-step, RK3 draw on one-row strips stopped inside
    its last step by ``t_end``: the paths hypothesis must not miss run
    first, whatever the profile."""
    return Lattice(
        method=dict(riemann="hllc", reconstruction="tvd2", limiter="vanleer",
                    variables="characteristic", rk_order=3),
        shape=(9, 7)[:ndim], tile_bytes=ONE_ROW_TILE_BYTES, backend=backend,
        driver=driver, members=members, workers=workers, barrier=barrier,
        edges=list("PWTIOT" * 2)[: 2 * ndim * members], seed=1, features=frozenset(),
        steps=3, stop="t_end", max_steps=3,
    )


@settings(deadline=None)
@given(lattice=lattices())
@example(lattice=_pinned("team", 2, 1, 2, "forkjoin", BACKENDS[0]))  # threaded strips
@example(lattice=_pinned("stack", 2, 3, None, None, "numpy"))  # member clocks, NumPy strips
@example(  # compiled axis-1 strips across two pencils and a ragged one
    lattice=_pinned("stack", 2, 3, None, None, BACKENDS[0])._replace(shape=(2 * PENCIL + 3, 7))
)
def test_every_member_equals_the_seed_path(lattice):
    """method x RK order x ragged 1-D/2-D shape x strip budget x executor
    x driver (solo, B-member stack, team of 1/2 on spin/fork-join) x
    per-member edges x smooth/nasty state x stop: ``run()`` leaves every
    member where its solo seed run leaves it, value or error."""
    ndim, members = len(lattice.shape), lattice.members
    spacing = SPACING[ndim]
    config = SolverConfig(**lattice.method, tile_bytes=lattice.tile_bytes)
    rng = np.random.default_rng(lattice.seed)
    primitives = smooth(rng, (members,) + lattice.shape, ndim + 2)
    plant(rng, lattice.features, primitives[members // 2])  # member 1 of 3
    boundaries = boundary_sets(lattice.edges, members, ndim)

    def seeds():
        return [
            _seed_solver(primitive, spacing, edges, config)
            for primitive, edges in zip(primitives, boundaries)
        ]

    with np.errstate(all="ignore"):
        t_end = _drawn_t_end(seeds(), lattice.steps) if lattice.stop != "max_steps" else None
        max_steps = lattice.max_steps if lattice.stop != "t_end" or t_end is None else None
        expected = [_ran_solo(solver, t_end, max_steps) for solver in seeds()]
        path = _path(lattice, primitives, boundaries, config)
        if lattice.driver == "team":
            with path:
                ran = [_ran_solo(path, t_end, max_steps)]
            assert path.workers == lattice.workers
        elif lattice.driver == "solo":
            ran = [_ran_solo(path, t_end, max_steps)]
        else:
            ran = _ran_stack(path, t_end, max_steps)

    failed = any(mine.error for mine in ran)
    event(f"{lattice.driver} on {lattice.backend}: {'error' if failed else 'value'}")
    stacked = lattice.driver == "stack"
    for index, (mine, seed) in enumerate(zip(ran, expected)):
        assert mine.dts == seed.dts, f"member {index} of {members}"
        assert_same_bits(mine.u, seed.u)  # the pre-step state, if it failed
        assert (mine.time, mine.steps) == (seed.time, seed.steps)
        assert (mine.error is None) == (seed.error is None)
        if seed.error is not None:
            assert str(mine.error) == str(seed.error)
            assert mine.error.cells == seed.error.cells
            assert mine.error.batch_index == (index if stacked else None)
        else:  # stopped where the stop rule says
            assert len(mine.dts) == max_steps or mine.time == t_end

    counters = path.engine.counters()
    assert counters["batch"] == members
    advanced = any(mine.dts for mine in ran)
    if config.tile_bytes == 0 and not failed:
        # a plan of one strip per sweep and dt pass
        steps = max(len(mine.dts) for mine in ran)
        assert counters["tiles"] == steps * (1 + config.rk_order * ndim)
    if lattice.backend == "jit":
        stats = counters["jit"]
        assert stats["fallbacks"] == {}
        assert (stats["sweep_calls"] > 0 and stats["dt_calls"] > 0) or not advanced
        if lattice.driver == "team":
            assert stats["serialized"] == {}
            if lattice.tile_bytes == ONE_ROW_TILE_BYTES and advanced:
                assert (stats["strips_threaded"] > 0) == (lattice.workers == 2)


# -- error parity ------------------------------------------------------------

BAD_CELL = (7, 3)
GETDT_MESSAGE = "GetDT: non-finite signal speed at cell (7, 3) (1 cells affected)"
STATE_MESSAGE = (
    "2-D solver state: non-positive pressure"
    " (min -4.000e-01 at cell (7, 3), 1 cells affected)"
)


def _poisoned_sod_2d(config=None):
    """12x10 Sod problem with one cell's energy negative (p < 0 there)."""
    solver, _ = problems.sod_2d(nx=12, ny=10, config=config)
    solver.u[BAD_CELL + (-1,)] = -1.0
    return solver


def _seed_twin(solver):
    twin = EulerSolver2D(
        solver.primitive, solver.dx, solver.dy, solver.boundaries, solver.config,
        use_engine=False,
    )
    twin.u[...] = solver.u
    return twin


def _blow_up(action):
    with pytest.raises(PhysicsError) as excinfo:
        action()
    return excinfo.value


class TestSoloErrorsUnchanged:
    """The literals are what the parent commit's two engines raised."""

    def test_getdt_failure_reads_as_before(self):
        solver = _poisoned_sod_2d()
        error = _blow_up(lambda: solver.run(max_steps=2))
        seed_error = _blow_up(lambda: _seed_twin(solver).run(max_steps=2))
        for found in (error, seed_error):
            assert str(found) == GETDT_MESSAGE
            assert found.context == "GetDT"
            assert found.cells == [BAD_CELL]
            assert found.batch_index is None
            report = found.forensics
            assert report.cells == [BAD_CELL]
            assert report.batch_index is None and report.member is None
            assert report.step == 0 and report.time == 0.0
            assert report.neighbourhood.origin == (5, 1)
        assert np.array_equal(
            error.forensics.neighbourhood.values,
            seed_error.forensics.neighbourhood.values,
            equal_nan=True,
        )

    def test_state_validation_failure_reads_as_before(self):
        solver = _poisoned_sod_2d()
        # an explicit dt skips GetDT, so the RK stage's validation trips
        error = _blow_up(lambda: solver.step(dt=1e-4))
        seed_error = _blow_up(lambda: _seed_twin(solver).step(dt=1e-4))
        for found in (error, seed_error):
            assert str(found) == STATE_MESSAGE
            assert found.context == "2-D solver state"
            assert found.cells == [BAD_CELL]
            assert found.details == {"what": "non-positive pressure"}
            assert found.batch_index is None
            assert found.neighbourhood.origin == (5, 1)
        assert np.array_equal(
            error.neighbourhood.values, seed_error.neighbourhood.values
        )

    def test_failed_step_leaves_the_state_untouched(self):
        solver = _poisoned_sod_2d()
        before = solver.u.copy()
        _blow_up(lambda: solver.step(dt=1e-4))
        assert np.array_equal(solver.u, before)
        assert solver.steps == 0 and solver.time == 0.0


class TestEnsembleErrorsStayMemberLocal:
    def _ensemble(self):
        solvers = [problems.sod_2d(nx=12, ny=10)[0] for _ in range(3)]
        solvers[1].u[BAD_CELL + (-1,)] = -1.0
        return EulerEnsemble2D.from_solvers(solvers), solvers

    def test_retired_member_carries_index_and_member_local_cells(self):
        ensemble, solvers = self._ensemble()
        assert ensemble.step() == [0, 2]
        error = ensemble.errors[1]
        assert error.batch_index == 1
        assert error.member["index"] == 1
        # exactly what that member's solo run raises, plus its index
        assert str(error) == GETDT_MESSAGE
        assert error.cells == [BAD_CELL]
        assert error.forensics.batch_index == 1
        assert error.forensics.cells == [BAD_CELL]
        for index in (0, 2):
            solvers[index].step()
            assert np.array_equal(ensemble.member_u(index), solvers[index].u)
            assert ensemble.times[index] == solvers[index].time
            assert type(ensemble.times[index]) is float
            assert type(ensemble.dt_history[index][0]) is float

    def test_ensemble_of_one_still_attributes_its_member(self):
        solver = _poisoned_sod_2d()
        ensemble = EulerEnsemble2D.from_solvers([solver])
        assert ensemble.step() == []
        assert ensemble.errors[0].batch_index == 0
        assert ensemble.errors[0].cells == [BAD_CELL]


class TestParallelErrorsStayGlobal:
    @pytest.mark.parametrize("explicit_dt", [None, 1e-4])
    def test_global_cells_and_no_batch_index(self, explicit_dt):
        """A team is an annotation on the serial solver's engine, so the
        error is the serial solver's — message, grid cells, window, no
        ``batch_index``, no rank detail — for 1/2/4 workers and both
        barriers, on the GetDT path and on the RK-stage validation path
        alike; it is raised off the team, which stays usable (one-row
        strips, so the healed step does run on it)."""
        serial_error = _blow_up(lambda: _poisoned_sod_2d().step(explicit_dt))
        assert serial_error.cells == [BAD_CELL]
        healthy = problems.sod_2d(nx=12, ny=10)[0].u
        strips = SolverConfig(tile_bytes=ONE_ROW_TILE_BYTES)
        for workers, barrier in itertools.product((1, 2, 4), ("forkjoin", "spin")):
            with ParallelSolver2D.from_serial(
                _poisoned_sod_2d(strips), workers=workers, barrier=barrier
            ) as parallel:
                error = _blow_up(lambda: parallel.step(explicit_dt))
                assert str(error) == str(serial_error)
                assert error.cells == serial_error.cells
                assert sorted(error.details) == sorted(serial_error.details)  # no "rank"
                assert error.batch_index is None
                assert error.forensics.cells == [BAD_CELL]
                if explicit_dt is not None:
                    assert error.neighbourhood.origin == serial_error.neighbourhood.origin
                    assert np.array_equal(
                        error.neighbourhood.values, serial_error.neighbourhood.values
                    )
                parallel.u[...] = healthy
                assert parallel.step() > 0.0 and parallel.steps == 1


# -- one run loop --------------------------------------------------------------


class _Members1D(_MemberDriver):
    """The driver is dimension-generic: B 1-D members on one engine."""

    def __init__(self, u, spacing, config, boundaries):
        self.config = config
        self.u = u
        self.engine = StepEngine(u.shape[1:], spacing, config, boundaries)
        self._init_clocks(len(boundaries), placeholder=self.engine.placeholder_member())

    @classmethod
    def of(cls, solvers):
        return cls(
            np.stack([solver.u for solver in solvers]), solvers[0].spacing,
            solvers[0].config, [solver.boundaries for solver in solvers],
        )

    def step(self):
        return self._step_members(self._t_end)


def _tubes():
    """Three 1-D tubes on one grid whose clocks differ."""
    return [
        problems.riemann_problem_solver(problem, n_cells=48)[0]
        for problem in (problems.SOD, problems.LAX, problems.TORO_123)
    ]


def _channels():
    """Three 16x16 two-channel problems whose clocks differ."""
    return [
        problems.two_channel(n_cells=16, h=8.0, mach=mach)[0]
        for mach in (2.2, 1.6, 3.0)
    ]


def _seed_of(solver):
    args = (solver.boundaries, solver.config)
    if solver.u.shape[-1] == 3:
        return EulerSolver1D(solver.primitive, solver.dx, *args, use_engine=False)
    return _seed_twin(solver)


def _clamped_t_end(solver, steps=4):
    """A ``t_end`` inside step ``steps + 1`` of ``solver``'s own run."""
    result = solver.run(max_steps=steps + 1)
    assert len(result.dt_history) == steps + 1
    return result.time - 0.4 * result.dt_history[-1]


def _solo_outcome(solver, t_end):
    result = solver.run(t_end=t_end)
    assert solver.time == t_end and result.time == t_end
    assert result.dt_history[-1] < 0.9 * result.dt_history[-2]  # clamped
    return result.dt_history, state_digest(solver.u)


def _member_outcome(driver, index, t_end):
    result = driver.run(t_end=t_end).members[index]
    assert not result.failed and result.time == t_end
    return result.dt_history, state_digest(driver.member_u(index))


class TestOneRunLoop:
    def test_1d_steppers_share_dts_and_bits(self):
        t_end = _clamped_t_end(_tubes()[0])
        reference = _solo_outcome(_tubes()[0], t_end)
        assert _solo_outcome(_seed_of(_tubes()[0]), t_end) == reference
        assert _member_outcome(_Members1D.of(_tubes()[:1]), 0, t_end) == reference
        rotated = _tubes()[1:] + _tubes()[:1]  # sod is member 2 of B = 3
        driver = _Members1D.of(rotated)
        assert _member_outcome(driver, 2, t_end) == reference
        # members stop on their own clocks: they took different step counts
        assert len(set(driver.step_counts)) > 1
        assert driver.times == [t_end] * 3

    def test_2d_steppers_share_dts_and_bits(self):
        t_end = _clamped_t_end(_channels()[0])
        reference = _solo_outcome(_channels()[0], t_end)
        assert _solo_outcome(_seed_of(_channels()[0]), t_end) == reference
        for workers in (1, 2):
            with ParallelSolver2D.from_serial(
                _channels()[0], workers=workers, barrier="forkjoin"
            ) as parallel:
                assert _solo_outcome(parallel, t_end) == reference
        one = EulerEnsemble2D.from_solvers(_channels()[:1])
        assert _member_outcome(one, 0, t_end) == reference
        rotated = _channels()[1:] + _channels()[:1]
        three = EulerEnsemble2D.from_solvers(rotated)
        assert _member_outcome(three, 2, t_end) == reference
        assert len(set(three.steps)) > 1 and three.times == [t_end] * 3

    @pytest.mark.parametrize("build", [_tubes, _channels], ids=["1d", "2d"])
    def test_a_solver_can_be_run_again(self, build):
        for make in (lambda: build()[0], lambda: _seed_of(build()[0])):
            once, twice = make(), make()
            whole = once.run(max_steps=6)
            first = twice.run(max_steps=3)
            second = twice.run(max_steps=6)
            assert (second.steps, second.time) == (whole.steps, whole.time) == (6, once.time)
            # the result holds this call's steps, the driver's history all of them
            assert first.dt_history + second.dt_history == whole.dt_history
            assert twice.dt_history == once.dt_history == [whole.dt_history]
            assert np.array_equal(twice.u, once.u)

    def test_a_parallel_solver_can_be_run_again(self):
        serial = _channels()[0]
        serial.run(max_steps=6)
        with ParallelSolver2D.from_serial(
            _channels()[0], workers=2, barrier="forkjoin"
        ) as parallel:
            assert parallel.run(max_steps=3).steps == 3
            assert len(parallel.run(max_steps=6).dt_history) == 3
            assert np.array_equal(parallel.u, serial.u)

    @pytest.mark.parametrize("retire", [False, True], ids=["all-live", "one-retired"])
    def test_an_ensemble_can_be_run_again(self, retire):
        def ensemble():
            solvers = _channels()
            if retire:
                solvers[1].u[BAD_CELL + (-1,)] = -1.0
            return EulerEnsemble2D.from_solvers(solvers)

        once, twice = ensemble(), ensemble()
        whole = once.run(max_steps=6)
        first = twice.run(max_steps=3)
        second = twice.run(max_steps=6)
        for index in range(3):
            a, b, c = first.members[index], second.members[index], whole.members[index]
            assert (c.steps, c.time) == (b.steps, b.time)
            assert a.dt_history + b.dt_history == c.dt_history
            assert np.array_equal(twice.member_u(index), once.member_u(index))
            if retire and index == 1:  # retired in the first call: stays retired
                assert a.failed and b.failed and b.error is a.error
                assert b.steps == 0 and not twice.live(1)
            else:
                assert c.steps == 6 and not c.failed
        assert twice.dt_history == once.dt_history

    def test_members_parked_early_are_thawed_by_the_next_run(self):
        """Under ``t_end`` the members finish at different steps, so the
        early ones are parked on the placeholder; a second call thaws
        them and every member does what its solo solver does."""
        t_mid = _clamped_t_end(_channels()[0])
        t_end = 1.7 * t_mid
        ensemble = EulerEnsemble2D.from_solvers(_channels())
        ensemble.run(t_end=t_mid)
        placeholder = ensemble.engine.placeholder_member()
        parked = [
            index for index in range(3)
            if np.array_equal(ensemble.u[index], placeholder)
        ]
        assert parked and len(parked) < 3  # the last to finish is not parked
        result = ensemble.run(t_end=t_end)
        for index, solo in enumerate(_channels()):
            solo.run(t_end=t_mid)
            again = solo.run(t_end=t_end)
            assert result.members[index].dt_history == again.dt_history
            assert np.array_equal(ensemble.member_u(index), solo.u)
            assert ensemble.times[index] == solo.time == t_end

    def test_a_direct_step_after_run_still_steps(self):
        solver = _tubes()[0]
        solver.run(max_steps=2)
        assert solver.step() > 0.0 and solver.steps == 3

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_a_non_finite_t_end_is_refused_by_every_driver(self, t_end):
        """NaN never meets the stop rule and infinity meets it at once."""
        for driver in (_tubes()[0], EulerEnsemble2D.from_solvers(_channels())):
            with pytest.raises(ConfigurationError, match="finite t_end"):
                driver.run(t_end=t_end, max_steps=3)
            assert driver.step_counts == [0] * driver.batch

    @pytest.mark.parametrize("max_steps", [float("nan"), 2.5, -1], ids=["nan", "fraction", "negative"])
    def test_a_max_steps_that_is_no_step_count_is_refused_by_every_driver(self, max_steps):
        """NaN never meets the stop rule (the run never returned) and 2.5
        took 3 steps; the guard fails a run that steps at all."""

        def guard(driver):
            pytest.fail(f"run(max_steps={max_steps!r}) stepped")

        drivers = (_tubes()[0], _channels()[0], EulerEnsemble2D.from_solvers(_channels()))
        for driver in drivers:
            with pytest.raises(ConfigurationError, match="integer max_steps"):
                driver.run(max_steps=max_steps, callback=guard)
            assert driver.step_counts == [0] * driver.batch

    def test_one_stop_rule_and_one_forensics_call_site(self):
        """Structural: under ``euler/`` and ``par/`` the stop rule and
        the forensics hook are each *called* in exactly one place."""
        import repro

        root = Path(repro.__file__).parent
        text = "".join(
            path.read_text(encoding="utf-8")
            for package in ("euler", "par")
            for path in sorted((root / package).rglob("*.py"))
        )
        for name in ("_reached", "attach_forensics"):
            assert len(re.findall(rf"(?<!def ){name}\(", text)) == 1, name
