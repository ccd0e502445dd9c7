"""The stage plan: one program per RK stage, two executors, one answer.

One generated differential holds the whole lattice over the plan —
compiled stage == NumPy-interpreted stage == allocating seed step at 0.0
— on drawn (method tuple, RK order, 1-D / 2-D ragged shapes, B, strip
budget, team size, uniform, piecewise and overlapping edges of every
fill kind), on smooth states and on the nasty-state corpus of
``test_kernel_single_source.py`` (a nasty state may make a step *raise*:
then every executor raises the same error).  The rest pins what the plan
promises beside the bits: the same :class:`PhysicsError` from both
executors when a state goes bad in RK stage 2, ``u`` untouched; one
crossing per serial RK step (the step program), bound once per
state-buffer set; scratch per worker, not per strip; a boundary
condition without a fill record degrading loudly; a mirror wider than
its axis refused by every constructor; phase seconds that still add up
when they come from C.
"""

import hashlib
from collections import namedtuple
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.euler import state, tiling
from repro.euler.boundary import (
    BoundaryCondition,
    BoundarySet1D,
    BoundarySet2D,
    EdgeSpec,
    ReflectiveWall,
    SupersonicInflow,
    Transmissive,
    all_transmissive_2d,
)
from repro.euler.engine import StepEngine
from repro.euler.reconstruction import get_scheme
from repro.euler.riemann import RIEMANN_SOLVERS
from repro.euler.solver import (
    EnsembleMember,
    EulerEnsemble2D,
    EulerSolver1D,
    EulerSolver2D,
    SolverConfig,
)
from repro.jit.plan import fill_tables
from repro.jit.kernels import spec_from_config

from tests.euler.test_kernel_single_source import (
    LIMITERS,
    assert_same_bits,
    needs_cc,
    outcome,
    plant,
)

GAMMA = 1.4
SHAPES = {1: (17,), 2: (9, 13)}  # ragged: no strip height divides them
SPACING = {1: (0.01,), 2: (0.01, 0.012)}
INFLOW = {1: (1.2, 0.3, 1.1), 2: (1.2, 0.3, 0.1, 1.1)}  # sweep layout

Draw = namedtuple(
    "Draw",
    "riemann reconstruction limiter variables rk_order ndim members strip_rows"
    " workers edges seed features",
)

draws = st.builds(
    Draw,
    riemann=st.sampled_from(sorted(RIEMANN_SOLVERS)),
    reconstruction=st.sampled_from(("pc", "tvd2", "tvd3", "weno3")),
    limiter=st.sampled_from(LIMITERS),
    variables=st.sampled_from(("primitive", "conservative", "characteristic")),
    rk_order=st.sampled_from((1, 2, 3)),
    ndim=st.sampled_from((1, 2)),
    members=st.sampled_from((1, 3)),
    # rows per compiled strip: 1 and 3 cut 17 and 9 rows into >= 3 strips,
    # 0 is "no budget" (one strip)
    strip_rows=st.sampled_from((1, 3, 0)),
    workers=st.sampled_from((1, 2)),
    # per member and edge: a uniform kind, the piecewise mix of all three
    # or two overlapping segments
    edges=st.lists(st.sampled_from("TWIPO"), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    features=st.sets(
        st.sampled_from(("vacuum", "thin", "cold", "jump", "still", "nan", "inf")),
        max_size=2,
    ),
)


def condition(code, ndim):
    return {"T": Transmissive(), "W": ReflectiveWall(), "I": SupersonicInflow(INFLOW[ndim])}[code]


def edge_spec(code, ndim):
    """``P`` is inflow | wall | open along the edge, the wall's end left
    to Python's slice semantics; ``O`` a wall on ``[0, 5)`` overlapped by
    inflow from 3 on, the later segment winning ``[3, 5)``."""
    if code == "O":
        return EdgeSpec().add(0, 5, condition("W", ndim)).add(3, None, condition("I", ndim))
    if code != "P":
        return EdgeSpec.uniform(condition(code, ndim))
    return (
        EdgeSpec()
        .add(0, 3, condition("I", ndim))
        .add(3, -2, condition("W", ndim))
        .add(-2, None, condition("T", ndim))
    )


def boundary_sets(draw):
    codes = iter(draw.edges)
    sets = []
    for _ in range(draw.members):
        if draw.ndim == 1:
            low, high = (next(codes).replace("P", "W").replace("O", "I") for _ in range(2))
            # a bare condition on one end, a uniform EdgeSpec on the other
            sets.append(BoundarySet1D(condition(low, 1), edge_spec(high, 1)))
        else:
            sets.append(BoundarySet2D(*(edge_spec(next(codes), 2) for _ in range(4))))
    return sets


def smooth(rng, shape, nfields):
    p = np.empty(shape + (nfields,))
    p[..., 0] = rng.uniform(1.0, 1.4, shape)
    p[..., 1:-1] = rng.normal(0.0, 0.3, shape + (nfields - 2,))
    p[..., -1] = rng.uniform(1.0, 1.4, shape)
    return p


def engine_for(draw, config, boundaries, backend, workers=1):
    shape = SHAPES[draw.ndim] + (draw.ndim + 2,)
    return StepEngine(
        shape, SPACING[draw.ndim], config, boundaries, backend=backend, workers=workers
    )


def stepped(engine, u0, steps=2):
    u = u0.copy()
    dts = [engine.step(u).copy() for _ in range(steps)]
    return u, np.array(dts)


def seed_member(draw, config, boundaries, primitive, steps=2):
    """One member through the allocating seed stepper."""
    if draw.ndim == 1:
        solver = EulerSolver1D(primitive, *SPACING[1], boundaries, config, use_engine=False)
    else:
        solver = EulerSolver2D(primitive, *SPACING[2], boundaries, config, use_engine=False)
    dts = [solver.step() for _ in range(steps)]
    return solver.u, np.array(dts)


@needs_cc
@settings(deadline=None)
@given(draw=draws)
def test_compiled_stage_equals_interpreted_stage_equals_seed_step(draw):
    ndim, members = draw.ndim, draw.members
    nfields = ndim + 2
    ghost = get_scheme(draw.reconstruction, draw.limiter).ghost_cells
    row_bytes = tiling.jit_sweep_row_bytes(
        members * int(np.prod(SHAPES[ndim][1:], dtype=int)), nfields, ghost
    )
    config = SolverConfig(
        riemann=draw.riemann,
        reconstruction=draw.reconstruction,
        limiter=draw.limiter,
        variables=draw.variables,
        rk_order=draw.rk_order,
        tile_bytes=draw.strip_rows * row_bytes,
    )
    rng = np.random.default_rng(draw.seed)
    p = smooth(rng, (members,) + SHAPES[ndim], nfields)
    plant(rng, draw.features, p[members // 2])  # member 1 of 3
    boundaries = boundary_sets(draw)
    with np.errstate(all="ignore"):
        u0 = state.conservative_from_primitive(p, GAMMA)

    interpreted = engine_for(draw, config, boundaries, "numpy")
    compiled = engine_for(draw, config, boundaries, "jit", draw.workers)
    results = [outcome(lambda: stepped(engine, u0)) for engine in (interpreted, compiled)]
    stats = compiled.counters()["jit"]
    assert stats["fallbacks"] == {} and stats["serialized"] == {}
    if draw.strip_rows == 1 and results[1][0] == "value":
        assert len(compiled.stage_plan().sweeps[0].tiles) >= 3
        assert (stats["strips_threaded"] > 0) == (draw.workers == 2)

    assert results[0][0] == results[1][0]
    if results[0][0] == "error":
        assert results[0] == results[1]
        index = results[0][2]
        seed = outcome(lambda: seed_member(draw, config, boundaries[index], p[index]))
        assert seed[0] == "error" and (seed[1], seed[3]) == (results[0][1], results[0][3])
        return
    for mine, theirs in zip(results[0][1], results[1][1]):
        assert_same_bits(theirs, mine)
    for index in range(members):
        seed = outcome(lambda: seed_member(draw, config, boundaries[index], p[index]))
        assert seed[0] == "value"
        assert_same_bits(results[1][1][0][index], seed[1][0])
        assert_same_bits(results[1][1][1][:, index], seed[1][1])


# -- error parity ---------------------------------------------------------


def pressure_hills(rng, shape):
    """rho = 1, v = 0, p varying: a huge dt drives p negative (the kinetic
    energy grows with dt squared) while rho stays exactly 1."""
    p = np.zeros(shape + (4,))
    p[..., 0] = 1.0
    p[..., 3] = rng.uniform(1.0, 2.0, shape)
    return p


@needs_cc
@pytest.mark.parametrize(
    "what,dt,make",
    [
        ("non-finite values detected", np.nan, None),
        ("non-positive density", 40.0, None),
        ("non-positive pressure", 40.0, pressure_hills),
    ],
)
@pytest.mark.parametrize("workers", (1, 2))
def test_a_state_going_bad_in_stage_2_raises_the_same_error_and_leaves_u(
    what, dt, make, workers
):
    """Member 1 of 3 is stepped with a dt that wrecks ``stage1 = u + dt
    L(u)``: the conversion of RK stage 2 finds it.  Both executors raise
    the error a solo run of that member raises — message, member-local
    cells, neighbourhood — with ``batch_index == 1``, after exactly two
    stages, and ``u`` is the pre-step state to the bit."""
    rng = np.random.default_rng(24)
    shape = (9, 13)
    p = np.stack([(make or (lambda r, s: smooth(r, s, 4)))(rng, shape) for _ in range(3)])
    u0 = state.conservative_from_primitive(p, GAMMA)
    config = SolverConfig(reconstruction="pc", riemann="rusanov", rk_order=3, tile_bytes=4000)
    errors = []
    for backend in ("numpy", "jit"):
        engine = StepEngine(
            shape + (4,), SPACING[2], config, [all_transmissive_2d()] * 3,
            backend=backend, workers=workers,
        )
        u = u0.copy()
        dts = engine.compute_dt(u).copy()
        dts[1] = dt
        with pytest.raises(Exception) as raised, np.errstate(all="ignore"):
            engine.integrate(u, dts)
        errors.append(raised.value)
        assert engine.rhs_evaluations == 2
        assert_same_bits(u, u0)
        if backend == "jit":
            stats = engine.counters()["jit"]
            assert stats["fallbacks"] == {}
            # the step program stopped at stage 2's conversion: one
            # crossing, stage 1's sweeps the only ones served
            assert stats["step_calls"] == (1 if workers == 1 else 0)
            assert stats["sweep_calls"] == engine.stage_plan().sweep_strips
    for error in errors:
        assert error.details["what"] == what and error.batch_index == 1
    interpreted, compiled = errors
    assert str(compiled) == str(interpreted)
    assert compiled.cells == interpreted.cells and len(compiled.cells[0]) == 2
    assert compiled.neighbourhood.origin == interpreted.neighbourhood.origin
    assert_same_bits(compiled.neighbourhood.values, interpreted.neighbourhood.values)


# -- the step program: one crossing per RK step ---------------------------


def seed_step(ndim, config, boundaries, primitive, dt=None):
    """One member through one step of the allocating seed stepper."""
    solver_class = EulerSolver1D if ndim == 1 else EulerSolver2D
    solver = solver_class(primitive, *SPACING[ndim], boundaries, config, use_engine=False)
    dt = solver.step(dt)
    return solver.u, dt


@needs_cc
@settings(deadline=None, max_examples=60)
@given(
    rk_order=st.sampled_from((1, 2, 3)),
    ndim=st.sampled_from((1, 2)),
    members=st.sampled_from((1, 3)),
    fresh=st.booleans(),
    reconstruction=st.sampled_from(("pc", "tvd2", "weno3")),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_one_crossing_step_equals_the_numpy_executor_and_the_seed_step(
    rk_order, ndim, members, fresh, reconstruction, seed
):
    """A compiled step is one ``repro_jit_step`` crossing, bit for bit the
    NumPy executor's stage-by-stage step and the allocating seed step.
    ``fresh``: the step follows its dt pass, so RK stage 1 only flags the
    conversion the pass left; stale: it follows a step of another state,
    with a dt given, so stage 1 converts.  Either way the per-step
    counters are the order's: one rhs evaluation and one strip set per
    stage, one conversion per stage (stage 1's being the dt pass's)."""
    config = SolverConfig(reconstruction=reconstruction, rk_order=rk_order)
    nfields = ndim + 2
    rng = np.random.default_rng(seed)
    p = smooth(rng, (members,) + SHAPES[ndim], nfields)
    u0 = state.conservative_from_primitive(p, GAMMA)
    other = state.conservative_from_primitive(smooth(rng, p.shape[:-1], nfields), GAMMA)
    boundaries = [
        BoundarySet1D(Transmissive(), ReflectiveWall()) if ndim == 1 else all_transmissive_2d()
        for _ in range(members)
    ]
    given_dts = 0.8 * StepEngine(
        SHAPES[ndim] + (nfields,), SPACING[ndim], config, boundaries, backend="numpy"
    ).compute_dt(u0)
    results = []
    for backend in ("numpy", "jit"):
        engine = StepEngine(
            SHAPES[ndim] + (nfields,), SPACING[ndim], config, boundaries,
            backend=backend, workers=1,
        )
        u = u0.copy()
        if fresh:
            dts = engine.compute_dt(u).copy()
        else:
            engine.step(other.copy())
            dts = given_dts
        before = engine.counters()
        engine.integrate(u, dts)
        after = engine.counters()
        plan = engine.stage_plan()
        assert after["rhs_evaluations"] - before["rhs_evaluations"] == rk_order
        assert after["primitive_conversions"] - before["primitive_conversions"] == rk_order - fresh
        assert after["tiles"] - before["tiles"] == rk_order * plan.sweep_strips
        if backend == "jit":
            calls = [stats["jit"]["step_calls"] for stats in (before, after)]
            assert calls == [int(not fresh), int(not fresh) + 1]
            assert after["jit"]["stage_calls"] == 0 and after["jit"]["fallbacks"] == {}
        results.append((u, dts))
    (expected, dts), (actual, jit_dts) = results
    assert_same_bits(actual, expected)
    assert_same_bits(jit_dts, dts)
    for index in range(members):
        seed_u, seed_dt = seed_step(
            ndim, config, boundaries[index], p[index], None if fresh else dts[index]
        )
        assert_same_bits(actual[index], seed_u)
        assert seed_dt == dts[index]


@needs_cc
@pytest.mark.parametrize("ndim", (1, 2))
@pytest.mark.parametrize("rk_order", (1, 2, 3))
def test_a_serial_step_is_two_crossings_for_every_order(rk_order, ndim, monkeypatch):
    """``step`` + ``dt``: two compiled crossings per serial RK step, with
    the step's rhs evaluations, conversions and strips what they were
    when every stage was a crossing of its own."""
    import repro.jit

    monkeypatch.delenv(repro.jit.THREADS_ENV, raising=False)
    ghost = spec_from_config(SolverConfig(reconstruction="tvd2"), ndim).ghost_cells
    row_bytes = tiling.jit_sweep_row_bytes(int(np.prod(SHAPES[ndim][1:])), ndim + 2, ghost)
    config = SolverConfig(reconstruction="tvd2", rk_order=rk_order, tile_bytes=3 * row_bytes)
    rng = np.random.default_rng(rk_order)
    boundaries = (
        BoundarySet1D(Transmissive(), Transmissive()) if ndim == 1 else all_transmissive_2d()
    )
    solver_class = EulerSolver1D if ndim == 1 else EulerSolver2D
    with repro.jit.backend_override("jit"):
        solver = solver_class(
            smooth(rng, SHAPES[ndim], ndim + 2), *SPACING[ndim], boundaries, config
        )
    engine = solver.engine
    solver.step()
    before = engine.counters()
    solver.step()
    after = engine.counters()
    delta = {
        key: after["jit"][key] - before["jit"][key]
        for key in ("step_calls", "stage_calls", "dt_calls")
    }
    assert delta == {"step_calls": 1, "stage_calls": 0, "dt_calls": 1}
    strips = engine.stage_plan().sweep_strips
    assert strips >= 2  # the strip loop is inside the one crossing
    assert after["rhs_evaluations"] - before["rhs_evaluations"] == rk_order
    assert after["primitive_conversions"] - before["primitive_conversions"] == rk_order
    assert after["tiles"] - before["tiles"] == rk_order * strips + 1  # + the dt strip
    assert after["jit"]["sweep_calls"] - before["jit"]["sweep_calls"] == rk_order * strips


@needs_cc
@pytest.mark.parametrize("workers", (1, 2))
def test_a_step_on_another_array_rebinds_and_never_writes_through_a_stale_pointer(workers):
    """The stage array is bound once per state-buffer set: a step on a
    fresh array of the same shape rebinds to it (the original is not
    written), a step on the original binds back, and while bound the
    engine holds the array it points into — so no pointer can dangle.
    Serial steps and a team's per-phase rounds read the same array."""
    import gc
    import weakref

    rng = np.random.default_rng(25)
    shape = (9, 13)
    config = SolverConfig(reconstruction="tvd2", tile_bytes=4000)
    a0, b0 = (
        state.conservative_from_primitive(smooth(rng, (3,) + shape, 4), GAMMA) for _ in range(2)
    )
    finals = []
    for backend in ("numpy", "jit"):
        engine = StepEngine(
            shape + (4,), SPACING[2], config, [all_transmissive_2d()] * 3,
            backend=backend, workers=workers,
        )
        a, b = a0.copy(), b0.copy()
        engine.step(a)
        a1 = a.copy()
        engine.step(b)
        assert_same_bits(a, a1)  # the step of b did not write a
        b1 = b.copy()
        held = weakref.ref(b)
        del b
        gc.collect()
        assert (held() is not None) == (backend == "jit")  # bound: kept alive
        engine.step(a)
        gc.collect()
        assert held() is None  # bound to a again: b is let go
        finals.append((a, a1, b1))
    for expected, actual in zip(*finals):
        assert_same_bits(actual, expected)
    stats = engine.counters()["jit"]
    assert stats["fallbacks"] == {} and stats["serialized"] == {}
    assert stats["step_calls"] == (3 if workers == 1 else 0)
    assert (stats["strips_threaded"] > 0) == (workers == 2)


# -- counted: crossings, scratch, fallbacks -------------------------------


def digest(u):
    return hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()


@needs_cc
def test_an_rk3_step_at_400x400_is_two_crossings_serial_and_threaded_on_a_team(monkeypatch):
    from repro.euler import problems
    from repro.euler.solver import paper_benchmark_config
    from repro.par import ParallelSolver2D

    import repro.jit

    monkeypatch.delenv(repro.jit.THREADS_ENV, raising=False)  # "serial" means it
    with repro.jit.backend_override("jit"):
        serial, _ = problems.two_channel(n_cells=400, h=200.0, config=paper_benchmark_config())
    serial.step()
    before = serial.engine.counters()["jit"]
    serial.step()
    after = serial.engine.counters()["jit"]
    assert after["step_calls"] - before["step_calls"] == 1
    assert after["stage_calls"] == 0
    assert after["dt_calls"] - before["dt_calls"] == 1
    assert after["fallbacks"] == {} and after["serialized"] == {}
    strips = serial.engine.stage_plan().sweep_strips
    assert after["sweep_calls"] - before["sweep_calls"] == 3 * strips
    assert not {"engine.padded_x", "engine.padded_y", "engine.contribution_y_full"} & {
        key[0] for key in serial.engine.workspace._arrays
    }
    with repro.jit.backend_override("jit"):
        start, _ = problems.two_channel(n_cells=400, h=200.0, config=paper_benchmark_config())
        team = ParallelSolver2D.from_serial(start, workers=2)
    with team:
        team.step()
        team.step()
        stats = team.engine.counters()["jit"]
        assert stats["strips_threaded"] > 0 and stats["serialized"] == {}
        assert digest(team.u) == digest(serial.u)
        # scratch per worker, not per strip: one more window set, no more
        assert len(team.engine.stage_plan().sweeps[0].tiles) > 2
        scratch = next(
            array
            for key, array in team.engine.workspace._arrays.items()
            if key[0] == "jit.stage_scratch"
        )
        assert scratch.shape[0] == 2
        assert team.engine.scratch_bytes == serial.engine.scratch_bytes + scratch[0].nbytes


class Sponge(BoundaryCondition):
    """A user condition with its own ``fill`` and no fill record."""

    def fill(self, padded, ghost_cells):
        for layer in range(ghost_cells):
            padded[layer] = 0.5 * (padded[ghost_cells] + padded[ghost_cells + 1])


@needs_cc
def test_a_boundary_kind_without_a_fill_record_degrades_loudly(rng):
    """The plan runs on the NumPy executor through the condition's own
    ``fill`` — counted under a reason naming the class, equal at 0.0 to
    the all-NumPy run and to the seed stepper member by member — never a
    silently skipped ghost fill.  Three members, the sponge on member 1's
    left edge only; then again on a strip plan whose first strip is
    shorter than the ghost width, so the next strip's window still takes
    a ghost row.  No whole-grid sweep buffer is held either way."""
    shape = (9, 13)
    sponged = EdgeSpec().add(0, 4, ReflectiveWall()).add(4, None, Sponge())
    rest = [EdgeSpec.uniform(Transmissive()) for _ in range(3)]
    walled = BoundarySet2D(EdgeSpec.uniform(ReflectiveWall()), *rest)
    boundaries = [walled, BoundarySet2D(sponged, *rest), walled]
    p = smooth(rng, (3,) + shape, 4)
    u0 = state.conservative_from_primitive(p, GAMMA)
    for tile_bytes in (4000, 1):
        config = SolverConfig(reconstruction="tvd2", tile_bytes=tile_bytes)
        engines = [
            StepEngine(shape + (4,), SPACING[2], config, boundaries, backend=backend)
            for backend in ("numpy", "jit")
        ]
        (expected, _), (actual, _) = (stepped(engine, u0) for engine in engines)
        assert_same_bits(actual, expected)
        for index in range(3):
            seed = EulerSolver2D(
                p[index], *SPACING[2], boundaries[index], config, use_engine=False
            )
            seed.step()
            seed.step()
            assert_same_bits(expected[index], seed.u)
        stats = engines[1].counters()["jit"]
        assert stats["stage_calls"] == 0
        (reason, count), = stats["fallbacks"].items()
        assert "Sponge" in reason and count > 0
        # ... and it sized its strips for the NumPy program that ran
        sweeps = [[phase.tiles for phase in engine.stage_plan().sweeps] for engine in engines]
        assert sweeps[1] == sweeps[0]
        names = {key[0] for key in engines[0].workspace._arrays}
        assert not [name for name in names if name.startswith(("engine.padded", "engine.contrib"))]
    first = engines[0].stage_plan().sweeps[0].tiles.tiles[0]
    assert first.cells < engines[0].ghost_cells
    # with the sponge gone the same edge is served, so the fill mattered
    plain = [walled] * 3
    config = SolverConfig(reconstruction="tvd2", tile_bytes=4000)
    other = StepEngine(shape + (4,), SPACING[2], config, plain, backend="jit")
    assert np.max(np.abs(stepped(other, u0)[0] - expected)) > 0.0


def test_fill_tables_hold_one_record_per_segment_in_application_order():
    spec = spec_from_config(SolverConfig(reconstruction="tvd2"), 2)
    edge = edge_spec("P", 2)
    tables, declined = fill_tables(
        spec, (9, 13, 4), [BoundarySet2D(edge, edge_spec("T", 2), edge, edge_spec("W", 2))] * 2
    )
    assert declined is None and len(tables) == 2
    along_y = [(r.member, r.side, r.start, r.stop, r.kind) for r in tables[0]]
    assert along_y[:4] == [
        (0, 0, 0, 3, "constant"), (0, 0, 3, 11, "mirror"), (0, 0, 11, 13, "copy"),
        (0, 1, 0, 13, "copy"),
    ]
    assert along_y[4:] == [(1,) + record[1:] for record in along_y[:4]]
    assert [(r.start, r.stop) for r in tables[1][:3]] == [(0, 3), (3, 7), (7, 9)]
    assert tables[0][0].state == INFLOW[2]
    # a mirror image must fit the axis it reflects
    with pytest.raises(ConfigurationError, match="axis 0 mirrors 2 ghost rows .* only 1 cell"):
        fill_tables(spec, (1, 13, 4), [BoundarySet2D(*(edge_spec("W", 2) for _ in range(4)))])
    with pytest.raises(ConfigurationError, match="1-D"):
        fill_tables(
            spec_from_config(SolverConfig(), 1), (17, 3),
            [BoundarySet1D(edge_spec("P", 1), Transmissive())],
        )


def test_a_mirror_wider_than_its_axis_is_refused_by_every_constructor():
    """A ``(1, 8)`` grid under weno3 (two ghost rows) with reflective left
    and right walls: the mirror along axis 0 would read ghost rows nothing
    wrote.  The engine, a solo solver on it or on the seed stepper, and
    an ensemble all refuse it when built, naming the axis, its extent and
    the ghost width; with zero-gradient left and right edges the same
    grid steps, engine and seed alike."""
    p = smooth(np.random.default_rng(8), (1, 8), 4)
    edges = {code: EdgeSpec.uniform(condition(code, 2)) for code in "TW"}
    walls = BoundarySet2D(edges["W"], edges["W"], edges["T"], edges["T"])
    config = SolverConfig()
    members = [EnsembleMember(f"m{b}", walls, p) for b in range(2)]
    tube = BoundarySet1D(ReflectiveWall(), Transmissive())
    builders = [
        lambda: StepEngine((1, 8, 4), SPACING[2], config, [walls]),
        lambda: EulerSolver2D(p, *SPACING[2], walls, config),
        lambda: EulerSolver2D(p, *SPACING[2], walls, config, use_engine=False),
        lambda: EulerEnsemble2D(members, *SPACING[2], config),
        lambda: EulerSolver1D(p[:, 0, [0, 1, 3]], *SPACING[1], tube, config),
        lambda: EulerSolver1D(p[:, 0, [0, 1, 3]], *SPACING[1], tube, config, use_engine=False),
    ]
    message = r"axis 0 mirrors 2 ghost rows \(the ghost width of weno3\) but the axis has only 1 "
    for build in builders:
        with pytest.raises(ConfigurationError, match=message):
            build()
    open_sides = BoundarySet2D(edges["T"], edges["T"], edges["W"], edges["W"])
    stepped_states = []
    for use_engine in (True, False):
        solver = EulerSolver2D(p, *SPACING[2], open_sides, config, use_engine=use_engine)
        for _ in range(2):
            solver.step(1e-3)
        stepped_states.append(solver.u)
    assert_same_bits(*stepped_states)


# -- seconds from C still add up ------------------------------------------


@needs_cc
def test_phase_seconds_from_c_sum_to_the_integrate_wall(rng):
    shape = (96, 96)
    u = state.conservative_from_primitive(smooth(rng, (1,) + shape, 4), GAMMA)
    engine = StepEngine(
        shape + (4,), SPACING[2], SolverConfig(reconstruction="pc"),
        [all_transmissive_2d()], backend="jit",
    )
    engine.step(u)  # compile, allocate
    dts = engine.compute_dt(u)
    before = dict(engine.seconds)
    started = perf_counter()
    engine.integrate(u, dts)
    wall = perf_counter() - started
    spent = {phase: engine.seconds[phase] - before[phase] for phase in before}
    assert all(seconds >= 0.0 for seconds in spent.values())
    for phase in ("convert", "bc", "jit_sweep", "rk"):  # what C reports, and the rest
        assert spent[phase] > 0.0
    assert spent["riemann"] == spent["difference"] == spent["dt"] == 0.0
    assert sum(spent.values()) == pytest.approx(wall, rel=0.05)
