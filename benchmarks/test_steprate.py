"""Step-rate benchmark: tiled engine vs untiled engine vs allocating seed.

The paper credits much of SaC's edge to compiler-managed memory reuse
and with-loop folding; this benchmark measures what the
:class:`~repro.euler.engine.StepEngine` buys the NumPy solver in the
same currency — steps per second and bytes allocated per step — on the
paper's benchmark method (RK3 + piecewise constant reconstruction) and
the two-channel workload.

Three variants take identical steps from identical states:

* **tiled** — the engine with its resolved cache-blocking budget
  (``REPRO_TILE_BYTES`` or the built-in default);
* **untiled** — the same engine with ``tile_bytes=0``: every sweep and
  dt pass is a plan of one strip (the whole-grid reference);
* **seed** — the allocating reference path (``use_engine=False``).

Acceptance: the engine stays bit-for-bit with the seed and >= 1.3x its
step rate with >= 10x less allocation (ISSUE 2), and the tiled path is
bit-for-bit with the untiled path, never slower (generous tolerance on
small grids), at least 1.3x faster from 320 cells up, and
``tile_bytes=0`` runs exactly one strip per sweep and per dt pass
where the default budget cuts many.  The series
lands in ``BENCH_steprate.json`` (tiled) and
``BENCH_steprate_untiled.json`` at the repo root so the trajectory is
tracked across PRs.  Grid and step count can be shrunk for CI smoke
runs via ``REPRO_STEPRATE_GRID`` / ``REPRO_STEPRATE_STEPS`` (the hard
speedup bars only apply on big grids — tiny grids are dominated by
Python dispatch, not memory traffic).
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from repro.euler import problems
from repro.euler.solver import paper_benchmark_config
from repro.obs import StepTrace, write_jsonl

from conftest import REPO_ROOT, write_bench_json

GRID = int(os.environ.get("REPRO_STEPRATE_GRID", "96"))
STEPS = int(os.environ.get("REPRO_STEPRATE_STEPS", "10"))
SPEEDUP_FLOOR = 1.3
ALLOCATION_RATIO_FLOOR = 10.0
#: Tiled-vs-untiled no-regression gate: hard 1.3x on big grids (the
#: ISSUE 5 acceptance), parity from 128 cells, generous below (single
#: strip + timer noise).
TILED_SPEEDUP_FLOOR = 1.3
TILED_SPEEDUP_GRID = 320
#: Telemetry must stay near-free: < 5% steps/s cost with watch= enabled
#: (ISSUE 3).  Asserted from 128 cells up, like the speedup floor.
TRACE_OVERHEAD_CEILING = 0.05


def _solver(variant):
    """One benchmark solver: ``variant`` is tiled / untiled / seed.

    Pinned to the NumPy backend: this benchmark measures what cache
    blocking buys the *ufunc* path (its speedup bars and phase-share
    assertions are about NumPy memory traffic); the compiled path has
    its own benchmark and gates in ``test_jit.py``.
    """
    import repro.jit

    config = paper_benchmark_config()
    if variant != "tiled":
        config = replace(config, tile_bytes=0)
    with repro.jit.backend_override("numpy"):
        solver, _ = problems.two_channel(
            n_cells=GRID, h=GRID / 2.0, config=config
        )
    if variant == "seed":
        solver.engine = None
    return solver


def _timed_steps(solver, steps):
    """Steps/s over ``steps`` steps after one warmup step (no tracemalloc)."""
    solver.step()
    start = time.perf_counter()
    for _ in range(steps):
        solver.step()
    return steps / (time.perf_counter() - start)


def _step_allocation(solver):
    """Tracemalloc peak-over-baseline of one step after two warmup steps."""
    solver.step()
    solver.step()
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    solver.step()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - baseline


def _inner_share(counters, phases=("riemann", "difference")):
    """Fraction of inner-step seconds spent in the given phases."""
    seconds = counters["seconds"]
    total = sum(seconds.values())
    return sum(seconds[p] for p in phases) / total if total > 0 else 0.0


@pytest.fixture(scope="module")
def steprate():
    tiled_solver = _solver("tiled")
    untiled_solver = _solver("untiled")
    seed_solver = _solver("seed")
    tiled_rate = _timed_steps(tiled_solver, STEPS)
    untiled_rate = _timed_steps(untiled_solver, STEPS)
    seed_rate = _timed_steps(seed_solver, STEPS)
    # all solvers took the same steps from the same state, dt=None each
    diff_vs_seed = float(np.max(np.abs(tiled_solver.u - seed_solver.u)))
    diff_vs_untiled = float(np.max(np.abs(tiled_solver.u - untiled_solver.u)))
    engine_bytes = _step_allocation(tiled_solver)
    seed_bytes = _step_allocation(seed_solver)
    # Telemetry overhead on a SEPARATE instance (its counters are not
    # part of the consistency assertions below): the same timed loop
    # with a StepTrace watching every step.
    traced_solver = _solver("tiled")
    trace = StepTrace(capacity=STEPS + 1)
    traced_solver.watch = trace
    traced_rate = _timed_steps(traced_solver, STEPS)
    trace_path = write_jsonl(trace, REPO_ROOT / "BENCH_steprate_trace.jsonl")
    tiled_counters = tiled_solver.engine.counters()
    untiled_counters = untiled_solver.engine.counters()
    return {
        "grid": GRID,
        "steps": STEPS,
        "engine_steps_per_second": tiled_rate,
        "untiled_steps_per_second": untiled_rate,
        "seed_steps_per_second": seed_rate,
        "speedup": tiled_rate / seed_rate,
        "tiled_speedup": tiled_rate / untiled_rate,
        "tile_bytes": tiled_solver.engine.tile_bytes,
        "engine_step_bytes": engine_bytes,
        "seed_step_bytes": seed_bytes,
        "allocation_ratio": seed_bytes / max(engine_bytes, 1),
        "max_abs_difference": diff_vs_seed,
        "max_abs_difference_tiled_vs_untiled": diff_vs_untiled,
        "engine_counters": tiled_counters,
        "untiled_counters": untiled_counters,
        "riemann_difference_share": _inner_share(tiled_counters),
        "untiled_riemann_difference_share": _inner_share(untiled_counters),
        "traced_steps_per_second": traced_rate,
        "trace_overhead": 1.0 - traced_rate / tiled_rate,
        "trace_jsonl": trace_path.name,
    }


def test_steprate_json(benchmark, steprate):
    """Emit the cross-PR records; benchmark one tiled step for the harness."""
    solver = _solver("tiled")
    solver.step()
    benchmark.pedantic(solver.step, rounds=1, iterations=max(1, STEPS // 2))
    print()
    print(
        f"steprate {GRID}x{GRID}: tiled"
        f" {steprate['engine_steps_per_second']:.2f} steps/s, untiled"
        f" {steprate['untiled_steps_per_second']:.2f}"
        f" ({steprate['tiled_speedup']:.2f}x), seed"
        f" {steprate['seed_steps_per_second']:.2f}"
        f" ({steprate['speedup']:.2f}x); allocation"
        f" {steprate['engine_step_bytes']} vs {steprate['seed_step_bytes']}"
        f" bytes/step ({steprate['allocation_ratio']:.0f}x less); traced"
        f" {steprate['traced_steps_per_second']:.2f} steps/s"
        f" ({steprate['trace_overhead']:+.1%} overhead)"
    )
    path = write_bench_json("steprate", steprate)
    untiled_path = write_bench_json(
        "steprate_untiled",
        {
            "grid": GRID,
            "steps": STEPS,
            "engine_steps_per_second": steprate["untiled_steps_per_second"],
            "engine_counters": steprate["untiled_counters"],
        },
    )
    print(f"wrote {path} and {untiled_path}")
    benchmark.extra_info["speedup"] = steprate["speedup"]
    benchmark.extra_info["tiled_speedup"] = steprate["tiled_speedup"]
    benchmark.extra_info["allocation_ratio"] = steprate["allocation_ratio"]


def test_engine_path_is_bit_for_bit(steprate):
    assert steprate["max_abs_difference"] == 0.0


def test_tiled_path_matches_untiled_bit_for_bit(steprate):
    assert steprate["max_abs_difference_tiled_vs_untiled"] == 0.0


def test_engine_allocates_an_order_less(steprate):
    assert steprate["allocation_ratio"] >= ALLOCATION_RATIO_FLOOR, (
        f"engine allocates {steprate['engine_step_bytes']} bytes/step,"
        f" seed {steprate['seed_step_bytes']} — ratio below 10x"
    )


def test_engine_step_rate(steprate):
    """>= 1.3x over the seed from 128 cells up; tiny grids need sanity only."""
    if GRID >= 128:
        assert steprate["speedup"] >= SPEEDUP_FLOOR
    else:
        assert steprate["speedup"] > 0.5


def test_tiled_not_slower_than_untiled(steprate):
    """The ISSUE 5 no-regression gate: hard 1.3x on big grids, parity at
    128+, generous below (single-strip plans + timer noise)."""
    if GRID >= TILED_SPEEDUP_GRID:
        assert steprate["tiled_speedup"] >= TILED_SPEEDUP_FLOOR
        # Cache blocking must shrink the memory-bound share, not just
        # the total: riemann+difference seconds as a fraction of the
        # inner step drop when the intermediates stay cache-resident.
        assert (
            steprate["riemann_difference_share"]
            < steprate["untiled_riemann_difference_share"]
        )
    elif GRID >= 128:
        assert steprate["tiled_speedup"] >= 1.0
    else:
        assert steprate["tiled_speedup"] > 0.7


def test_zero_budget_is_a_plan_of_one_strip(steprate):
    """``tile_bytes=0`` selects no other code: one strip per sweep and
    per dt pass; the default budget cuts the sweeps into many."""
    tiled = steprate["engine_counters"]
    untiled = steprate["untiled_counters"]
    assert tiled["tile_bytes"] > 0
    assert untiled["tile_bytes"] == 0
    # per step: one dt pass (a strip of one member) + RK stages x 2 sweeps
    per_step = 1 + untiled["rhs_evaluations"] // untiled["steps"] * 2
    assert untiled["dt_fused_strips"] == untiled["steps"]
    assert untiled["tiles"] == untiled["steps"] * per_step
    assert tiled["dt_fused_strips"] == tiled["steps"]
    if GRID >= TILED_SPEEDUP_GRID:
        assert tiled["tiles"] > untiled["tiles"]
    else:
        assert tiled["tiles"] >= untiled["tiles"]


def test_trace_overhead_under_five_percent(steprate):
    """watch= must be near-free; enforced from 128 cells up (tiny grids
    are dominated by Python dispatch and timer noise)."""
    assert steprate["traced_steps_per_second"] > 0.0
    if GRID >= 128:
        assert steprate["trace_overhead"] < TRACE_OVERHEAD_CEILING, (
            f"telemetry costs {steprate['trace_overhead']:.1%} steps/s"
            f" (ceiling {TRACE_OVERHEAD_CEILING:.0%})"
        )


def test_trace_jsonl_written_with_run_telemetry(steprate):
    from repro.obs import read_jsonl

    records = read_jsonl(REPO_ROOT / steprate["trace_jsonl"])
    # capacity STEPS+1 covers the warmup step plus the timed loop
    assert len(records) == STEPS + 1
    assert all(r.dt > 0.0 for r in records)
    assert all(r.phase_seconds is not None for r in records)
    assert all(r.tiles > 0 for r in records)
    assert all(r.tile_bytes > 0 for r in records)


def test_counters_consistent_with_run(steprate):
    counters = steprate["engine_counters"]
    # 1 warmup + STEPS timed + 2 allocation warmups + 1 measured step
    assert counters["steps"] == STEPS + 4
    assert counters["rhs_evaluations"] == 3 * (STEPS + 4)
    assert counters["primitive_conversions"] == 3 * (STEPS + 4)
    assert counters["scratch_bytes"] > 0
    assert all(value >= 0.0 for value in counters["seconds"].values())
