"""Bit-identity of the batched engine across the numerical-option sweep.

The batching contract (ISSUE 7) is absolute: member ``b`` of an
ensemble stepped through :class:`~repro.euler.engine.StepEngine` must
produce **bit-for-bit** the state, dt history and clock of running that
member alone through a standalone :class:`EulerSolver2D`.  Every kernel
in the pipeline is elementwise over the leading batch axis, so this
must hold for every Riemann solver x reconstruction x limiter
combination — and it must keep holding for the survivors after another
member is retired mid-run, because the retire-and-redo loop restarts
the interrupted step from the identical pre-step bits.
"""

import numpy as np
import pytest

from dataclasses import replace

from repro.euler import problems
from repro.euler.solver import EulerEnsemble2D, SolverConfig

N_CELLS = 16
H = 8.0
MACHS = (1.6, 2.4, 3.2)
MAX_STEPS = 6

RIEMANN = ("rusanov", "hll", "hllc", "roe")
RECONSTRUCTIONS = ("pc", "tvd2", "tvd3", "weno3")
LIMITERS = ("minmod", "superbee", "vanleer", "mc")

#: The sweep matrix: every Riemann solver against every reconstruction
#: (default limiter), plus every limiter through tvd2 (the one scheme
#: whose limiter is a free choice).
SWEEP = [
    SolverConfig(riemann=riemann, reconstruction=reconstruction)
    for riemann in RIEMANN
    for reconstruction in RECONSTRUCTIONS
] + [
    SolverConfig(reconstruction="tvd2", limiter=limiter)
    for limiter in LIMITERS
    if limiter != "minmod"  # minmod is already in the matrix above
]

#: Subset for the (costlier) failure-mid-run sweep: every Riemann
#: solver on the default reconstruction, every reconstruction on the
#: default Riemann solver.
FAILURE_SWEEP = [SolverConfig(riemann=riemann) for riemann in RIEMANN] + [
    SolverConfig(reconstruction=reconstruction)
    for reconstruction in RECONSTRUCTIONS
    if reconstruction != SolverConfig().reconstruction
]


def _config_id(config):
    return f"{config.riemann}-{config.reconstruction}-{config.limiter}"


def _solo(mach, config):
    solver, _ = problems.two_channel(n_cells=N_CELLS, h=H, mach=mach, config=config)
    return solver


def _ensemble(machs, config):
    return EulerEnsemble2D.from_solvers(
        [_solo(mach, config) for mach in machs],
        names=[f"Ms={mach:g}" for mach in machs],
        params=[{"mach": mach} for mach in machs],
    )


def _assert_member_matches_solo(ensemble, index, solo):
    assert ensemble.steps[index] == solo.steps
    assert ensemble.times[index] == solo.time  # exact float equality
    assert np.array_equal(ensemble.member_u(index), solo.u)


@pytest.mark.parametrize("config", SWEEP, ids=_config_id)
def test_batched_matches_serial_bit_for_bit(config):
    solos = []
    for mach in MACHS:
        solver = _solo(mach, config)
        solver.run(max_steps=MAX_STEPS)
        solos.append(solver)

    ensemble = _ensemble(MACHS, config)
    result = ensemble.run(max_steps=MAX_STEPS)

    assert not result.failed
    for index, solo in enumerate(solos):
        _assert_member_matches_solo(ensemble, index, solo)
        member = result.members[index]
        # every dt the member took is the dt its solo run took, bit for bit
        assert member.dt_history == [float(dt) for dt in member.dt_history]
        assert len(member.dt_history) == solo.steps


@pytest.mark.parametrize("config", SWEEP, ids=_config_id)
def test_per_member_dt_matches_solo(config):
    """compute_dt is a per-member reduction, not a global min: each
    entry of the dt vector is the solo solver's dt, bit for bit."""
    ensemble = _ensemble(MACHS, config)
    dts = ensemble.engine.compute_dt(ensemble.u)
    assert dts.shape == (len(MACHS),)
    for index, mach in enumerate(MACHS):
        assert float(dts[index]) == _solo(mach, config).compute_dt()


@pytest.mark.parametrize("config", FAILURE_SWEEP, ids=_config_id)
def test_survivors_bit_identical_after_member_failure(config):
    """Detonate the middle member mid-run; the survivors must be
    bit-for-bit the states of running without it."""
    survivors = {}
    for mach in (MACHS[0], MACHS[2]):
        solver = _solo(mach, config)
        solver.run(max_steps=MAX_STEPS)
        survivors[mach] = solver

    ensemble = _ensemble(MACHS, config)
    for _ in range(2):
        ensemble.step()
    # Corrupt the middle member's slot: the next compute_dt sees a
    # non-finite signal speed in member 1 only.
    ensemble.u[1, 4:8, 4:8, :] = np.nan
    result = ensemble.run(max_steps=MAX_STEPS)

    failed = result.members[1]
    assert failed.failed
    assert failed.error.batch_index == 1
    assert failed.error.member["name"] == f"Ms={MACHS[1]:g}"
    assert failed.error.member["params"] == {"mach": MACHS[1]}
    # the survivors never noticed
    assert not result.members[0].failed and not result.members[2].failed
    _assert_member_matches_solo(ensemble, 0, survivors[MACHS[0]])
    _assert_member_matches_solo(ensemble, 2, survivors[MACHS[2]])


@pytest.mark.parametrize("tile_bytes", [0, 32768])
def test_batched_tiling_is_bit_for_bit(tile_bytes):
    """Cache-blocked batched sweeps agree with the untiled batch (and
    therefore with the solo runs) bit for bit."""
    reference = _ensemble(MACHS, SolverConfig())
    reference.run(max_steps=MAX_STEPS)

    config = replace(SolverConfig(), tile_bytes=tile_bytes)
    tiled = _ensemble(MACHS, config)
    tiled.run(max_steps=MAX_STEPS)

    for index in range(len(MACHS)):
        assert np.array_equal(tiled.member_u(index), reference.member_u(index))
        assert tiled.dt_history[index] == reference.dt_history[index]


def test_batch_engine_counters_and_shapes():
    ensemble = _ensemble(MACHS, SolverConfig())
    engine = ensemble.engine
    assert engine.grid_shape == (len(MACHS), N_CELLS, N_CELLS, 4)
    column = engine.dt_column(np.ones(len(MACHS)))
    assert column.shape == (len(MACHS), 1, 1, 1)
    ensemble.step()
    counters = engine.counters()
    assert counters["batch"] == len(MACHS)
    assert counters["steps"] == 1
    assert counters["rhs_evaluations"] > 0


def test_t_end_clamp_matches_solo():
    """Per-member t_end clamping and the stop tolerance replicate the
    standalone run loop exactly."""
    config = SolverConfig()
    t_end = 2.5
    solos = []
    for mach in MACHS:
        solver = _solo(mach, config)
        solver.run(t_end=t_end)
        solos.append(solver)
    ensemble = _ensemble(MACHS, config)
    result = ensemble.run(t_end=t_end)
    assert not result.failed
    for index, solo in enumerate(solos):
        _assert_member_matches_solo(ensemble, index, solo)
