"""F4b — the Fig. 4 workload *measured* on the worker team.

The modeled experiment (``test_fig4_scaling.py``) replays traces on a
simulated 2009 Opteron; this one runs the same two-channel problem for
real: the serial solver's engine with every sweep's strip plan on the
one persistent worker team (``repro.par``), 1/2/4 workers, fork/join vs
spin barriers.  It is the only timing of that runtime outside
``bench/`` (``grid400_jit_t2`` is its 2-worker fork/join point), so what
it asserts is what must hold on any host:

* every parallel run is **exactly 0.0** away from the serial reference —
  a team may only change speed, never results;
* with compiled kernels the strips really ran on the team
  (``strips_threaded > 0``) with nothing serialized and nothing fallen
  back to NumPy — a measurement of a silently serial run is a lie;
  without them (no ``cc``, ``REPRO_JIT=0``) every team run says why
  it was serial;
* a point with more workers than usable CPUs is reported as ``skipped``,
  never as a speed-up (its bits are still checked): threads that
  time-slice one core measure the scheduler, not the runtime.

The grid's strip budget is chosen so that every sweep is a plan of 8
strips (the plan is the decomposition and is not re-cut for the team).
The measured series lands in ``BENCH_fig4_measured.json`` at the repo
root.  Grid and step count shrink for CI smoke runs via
``REPRO_BENCH_GRID`` / ``REPRO_BENCH_STEPS``.
"""

import dataclasses
import math
import os

import pytest

import repro.jit
from repro.euler import tiling
from repro.euler.solver import paper_benchmark_config
from repro.figures import render_figure4
from repro.perf.scaling import figure4_measured, format_measured_table

from conftest import write_bench_json

GRID = int(os.environ.get("REPRO_BENCH_GRID", "400"))
STEPS = int(os.environ.get("REPRO_BENCH_STEPS", "10"))
WORKER_COUNTS = (1, 2, 4)
BARRIERS = ("forkjoin", "spin")
STRIPS_PER_SWEEP = 8
#: The paper method with a budget of GRID/8 compiled-sweep rows per strip.
CONFIG = dataclasses.replace(
    paper_benchmark_config(),
    tile_bytes=tiling.jit_sweep_row_bytes(GRID, 4, 1)
    * math.ceil(GRID / STRIPS_PER_SWEEP),
)
#: Whether strips are served by compiled kernels in this run.
COMPILED = repro.jit.resolve_backend_name() == "jit" and repro.jit.available()
USABLE_CPUS = len(os.sched_getaffinity(0))


def skipped(workers):
    """Why a timing with this many workers is no scaling evidence here."""
    if workers > USABLE_CPUS:
        return f"{workers} workers on {USABLE_CPUS} usable CPU(s): they time-slice"
    return None


def host_speedups(measured, barrier):
    """workers -> speed-up over serial, for the points this host can testify to."""
    return {w: s for w, s in measured.speedups(barrier) if not skipped(w)}


@pytest.fixture(scope="module")
def measured():
    return figure4_measured(
        grid=GRID, steps=STEPS, workers=WORKER_COUNTS, barriers=BARRIERS, config=CONFIG
    )


def test_fig4_measured_series_and_json(benchmark, measured):
    """Regenerate the measured series; emit the cross-PR JSON record."""
    benchmark.pedantic(
        lambda: figure4_measured(
            grid=GRID, steps=STEPS, workers=(1, 2), barriers=("forkjoin",),
            config=CONFIG, validate=False,
        ),
        rounds=1, iterations=1,
    )
    print()
    print(format_measured_table(measured))
    for workers in WORKER_COUNTS:
        if skipped(workers):
            print(f"skipped: {skipped(workers)}")
    print()
    print(render_figure4(measured.to_scaling_result()))
    payload = {
        "grid": measured.grid,
        "steps": measured.steps,
        "usable_cpus": USABLE_CPUS,
        "compiled": COMPILED,
        "strips_per_sweep": STRIPS_PER_SWEEP,
        "serial_seconds": measured.serial_seconds,
        "max_abs_error": measured.max_error(),
        "points": [
            {
                "workers": p.workers,
                "barrier": p.barrier,
                "skipped": skipped(p.workers),
                "seconds": p.seconds,
                "step_rate": p.step_rate,
                "barrier_wait_seconds": p.barrier_wait_seconds,
                "max_abs_error": p.max_abs_error,
                "phase_seconds": p.phase_seconds,
                "tiles": p.tiles,
                "tile_bytes": p.tile_bytes,
                "strips_threaded": p.strips_threaded,
                "serialized": p.serialized,
                "fallbacks": p.fallbacks,
                "trace": p.trace,
            }
            for p in measured.points
        ],
        "speedups": {
            barrier: host_speedups(measured, barrier) for barrier in BARRIERS
        },
    }
    path = write_bench_json("fig4_measured", payload)
    print(f"wrote {path}")
    benchmark.extra_info["speedups"] = payload["speedups"]


def test_measured_matches_serial_reference(measured):
    """Acceptance: 1/2/4 workers x both barriers, at 0.0 — skipped points too."""
    assert len(measured.points) == len(WORKER_COUNTS) * len(BARRIERS)
    for point in measured.points:
        assert point.max_abs_error == 0.0, (
            f"{point.workers} workers / {point.barrier}: error {point.max_abs_error}"
        )


def test_strips_ran_on_the_team_or_say_why_not(measured):
    """The measurement must be of proof-licensed strips on the team — not
    a silently serial (or silently NumPy) run dressed up as one."""
    for point in measured.points:
        assert point.tiles >= STEPS * 6 * STRIPS_PER_SWEEP  # 3 stages x 2 sweeps
        if point.workers == 1:
            assert point.strips_threaded == 0 and point.serialized == {}
        elif COMPILED:
            assert point.strips_threaded == STEPS * 6 * STRIPS_PER_SWEEP
            assert point.serialized == {} and point.fallbacks == {}
        else:
            assert point.strips_threaded == 0
            assert any("no compiled kernel" in reason for reason in point.serialized)


def test_measured_points_carry_step_telemetry(measured):
    """Every point records one trace entry per step, with the worker
    count and the barrier-wait seconds the spin/fork-join comparison
    rests on."""
    for point in measured.points:
        assert point.trace is not None and len(point.trace) == STEPS
        assert all(r["dt"] > 0.0 for r in point.trace)
        assert all(r["workers"] == point.workers for r in point.trace)
        assert sum(r["tiles"] for r in point.trace) == point.tiles
        assert point.tile_bytes == CONFIG.tile_bytes
        waited = sum(r["barrier_wait_seconds"] for r in point.trace)
        assert waited == pytest.approx(point.barrier_wait_seconds)
        assert (waited > 0.0) == (point.strips_threaded > 0)


def test_measured_speedup_trend_is_sane(measured):
    """Rates are finite and positive everywhere; on the points this host
    can testify to, fork/join stays within sight of serial."""
    for point in measured.points:
        assert point.seconds > 0
        assert math.isfinite(point.step_rate) and point.step_rate > 0
    for barrier in BARRIERS:
        assert [w for w, _ in measured.speedups(barrier)] == list(WORKER_COUNTS)
    # catastrophic serialisation (e.g. a barrier livelock) would push the
    # kernel-sleeping barrier far below this, on any host
    assert max(host_speedups(measured, "forkjoin").values()) > 0.4
