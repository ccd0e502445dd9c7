"""Step-rate measurement without pytest: ``python -m repro.steprate``.

Runs the two-channel benchmark workload through the cache-blocked
engine, the same engine on one-strip plans (``tile_bytes=0``, reported
as "untiled") and optionally the allocating seed path, and reports
steps/s, the tiled speedup, the per-phase second split and the
bit-for-bit checks, so perf investigation loops are one command.  The
exit status is 0 only if the tiled state equals the untiled one (and,
with ``--seed-baseline``, the seed one) at 0.0::

    python -m repro.steprate --grid 400 --steps 10
    python -m repro.steprate --grid 200 --riemann roe --tile-bytes 1048576
    python -m repro.steprate --grid 96 --seed-baseline --json out.json
    python -m repro.steprate --grid 32 --steps 8 --batch 16
    python -m repro.steprate --grid 400 --backend jit

``--backend`` pins the kernel backend: ``numpy`` is the ufunc oracle,
``jit`` the native-compiled path (:mod:`repro.jit`), ``auto`` (default)
resolves via ``REPRO_JIT``/compiler availability.

``--batch B`` switches to the batched-ensemble measurement: B Mach
variants of the workload advance in lockstep through one
:class:`~repro.euler.engine.StepEngine` and the figure of merit is
*aggregate member-steps per second* versus the same engine at B = 1;
the exit status is 0 only if member 0 equals a standalone solver at 0.0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Optional

import numpy as np

import repro.jit
from repro.euler import problems
from repro.euler.solver import SolverConfig, paper_benchmark_config

__all__ = ["measure_steprate", "measure_batch_steprate", "main"]


def _build_solver(
    grid: int,
    config: SolverConfig,
    use_engine: bool = True,
    backend: Optional[str] = None,
):
    with repro.jit.backend_override(backend) if backend else _no_override():
        solver, _ = problems.two_channel(
            n_cells=grid, h=grid / 2.0, config=config
        )
    if not use_engine:
        solver.engine = None
    return solver


@contextmanager
def _no_override():
    yield


def _timed_steps(solver, steps: int) -> float:
    """Steps/s over ``steps`` steps after one warmup step."""
    solver.step()
    start = time.perf_counter()
    for _ in range(steps):
        solver.step()
    return steps / (time.perf_counter() - start)


def measure_steprate(
    grid: int = 200,
    steps: int = 10,
    config: Optional[SolverConfig] = None,
    tile_bytes: Optional[int] = None,
    seed_baseline: bool = False,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """Measure tiled vs untiled (vs seed) step rates on one workload.

    ``tile_bytes=None`` lets the engine resolve its budget (config/env/
    default); the untiled reference always runs with ``tile_bytes=0``.
    All variants take identical steps from identical initial states, so
    the ``max_abs_difference`` entries are exact bit-identity checks.
    ``backend`` pins the kernel backend ("numpy" or "jit") for both
    engine variants; None keeps the session's resolution (env/auto).
    """
    config = config or paper_benchmark_config()
    tiled = _build_solver(grid, replace(config, tile_bytes=tile_bytes), backend=backend)
    untiled = _build_solver(grid, replace(config, tile_bytes=0), backend=backend)
    tiled_rate = _timed_steps(tiled, steps)
    untiled_rate = _timed_steps(untiled, steps)
    result: Dict[str, object] = {
        "grid": grid,
        "steps": steps,
        "backend": tiled.engine.counters()["backend"],
        "tile_bytes": tiled.engine.tile_bytes,
        "engine_steps_per_second": tiled_rate,
        "untiled_steps_per_second": untiled_rate,
        "tiled_speedup": tiled_rate / untiled_rate,
        "max_abs_difference_tiled_vs_untiled": float(
            np.max(np.abs(tiled.u - untiled.u))
        ),
        "tiled_counters": tiled.engine.counters(),
        "untiled_counters": untiled.engine.counters(),
    }
    if seed_baseline:
        seed = _build_solver(grid, replace(config, tile_bytes=0), use_engine=False)
        seed_rate = _timed_steps(seed, steps)
        result["seed_steps_per_second"] = seed_rate
        result["speedup"] = tiled_rate / seed_rate
        result["max_abs_difference_tiled_vs_seed"] = float(
            np.max(np.abs(tiled.u - seed.u))
        )
    return result


def batch_machs(batch: int):
    """B shock Mach numbers spread over [1.5, 3.0] — distinct members,
    same grid/config, so they batch into one ensemble."""
    if batch == 1:
        return [1.5]
    return [1.5 + 1.5 * index / (batch - 1) for index in range(batch)]


def measure_batch_steprate(
    grid: int = 32,
    steps: int = 8,
    batch: int = 16,
    config: Optional[SolverConfig] = None,
    tile_bytes: Optional[int] = None,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """Aggregate throughput of a B-member ensemble on the benchmark workload.

    The figure of merit is **member-steps per second**: a batch step
    advances every member by one (per-member CFL) step, so B members x
    ``steps`` batch steps is ``B * steps`` member-steps.  The
    ``max_abs_difference_vs_solo`` entry is the exact bit-identity check
    of the batching contract: member 0's state after the run versus a
    standalone solver taking the same steps.
    """
    config = config or paper_benchmark_config()
    if tile_bytes is not None:
        config = replace(config, tile_bytes=tile_bytes)
    machs = batch_machs(batch)
    with repro.jit.backend_override(backend) if backend else _no_override():
        ensemble, _ = problems.two_channel_ensemble(
            machs, n_cells=grid, h=grid / 2.0, config=config
        )
    ensemble.step()  # warmup
    start = time.perf_counter()
    for _ in range(steps):
        ensemble.step()
    elapsed = time.perf_counter() - start

    with repro.jit.backend_override(backend) if backend else _no_override():
        solo, _ = problems.two_channel(
            n_cells=grid, h=grid / 2.0, mach=machs[0], config=config
        )
    for _ in range(steps + 1):
        solo.step()
    return {
        "grid": grid,
        "steps": steps,
        "batch": batch,
        "backend": ensemble.engine.counters()["backend"],
        "batch_steps_per_second": steps / elapsed,
        "member_steps_per_second": batch * steps / elapsed,
        "max_abs_difference_vs_solo": float(
            np.max(np.abs(ensemble.member_u(0) - solo.u))
        ),
        "counters": ensemble.engine.counters(),
    }


def _jit_summary(counters: Dict[str, object]) -> str:
    """Lines making a degraded jit run visible from the CLI.

    Reports worker threads, compiled crossings per step (step, stage
    and dt calls; 2 for a serial step of any order, a team's stage
    rounds instead of the step) next to the strips those served,
    threaded-strip counts, the pencil width of the axis-1 sweep
    (``None`` in 1-D), the values per cell hoisted into cell rows (0:
    none) and what the compiler reported for the kernel's sweep / dt /
    cell-row loops (bytes per vector, ``scalar``, or ``not
    reported``), then every *counted reason* the
    backend served strips outside the fast path: NumPy
    fallbacks, proof-failure serializations and rejected compiler
    flags.  Empty string when the engine carries no jit backend.
    """
    stats = counters.get("jit")
    if not isinstance(stats, dict):
        return ""
    crossings = sum(stats.get(key, 0) for key in ("step_calls", "stage_calls", "dt_calls"))
    lines = [
        f"  jit: threads={stats.get('threads', 1)}"
        f" crossings/step={crossings / max(1, counters.get('steps', 0)):.1f}"
        f" sweep_calls={stats.get('sweep_calls', 0)}"
        f" strips_threaded={stats.get('strips_threaded', 0)}"
        f" pencil={stats.get('pencil')}"
        f" hoisted={stats.get('hoisted')}"
    ]
    vector = stats.get("vector")
    if vector is not None:
        words = {None: "unreported", 0: "scalar"}
        lines[0] += " vector: " + " ".join(
            f"{loop}={words.get(width, f'{width}B')}"
            for loop, width in sorted(vector.items())
        )
    fallbacks = stats.get("fallbacks") or {}
    for reason, count in sorted(fallbacks.items()):
        lines.append(f"  jit fallback ({count} strip(s)): {reason}")
    serialized = stats.get("serialized") or {}
    for reason, count in sorted(serialized.items()):
        lines.append(f"  jit serialized ({count} strip(s)): {reason}")
    for reason, count in sorted((stats.get("flag_fallbacks") or {}).items()):
        lines.append(f"  jit {reason} ({count}x)")
    return "\n".join(lines)


def _phase_table(result: Dict[str, object]) -> str:
    tiled = result["tiled_counters"]["seconds"]
    untiled = result["untiled_counters"]["seconds"]
    lines = [f"  {'phase':<12} {'tiled s':>10} {'untiled s':>10}"]
    # Union of both phase sets: the two engines need not agree (a jit
    # engine carries jit_sweep/jit_dt phases the NumPy engine lacks);
    # iterating only the tiled keys used to KeyError on the other side.
    for phase in sorted(set(tiled) | set(untiled)):
        lines.append(
            f"  {phase:<12} {tiled.get(phase, 0.0):>10.3f}"
            f" {untiled.get(phase, 0.0):>10.3f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.steprate",
        description="Tiled vs untiled StepEngine step-rate measurement.",
    )
    parser.add_argument("--grid", type=int, default=200, help="cells per side")
    parser.add_argument("--steps", type=int, default=10, help="timed steps")
    parser.add_argument(
        "--tile-bytes",
        type=int,
        default=None,
        help="cache budget in bytes (default: REPRO_TILE_BYTES or built-in)",
    )
    parser.add_argument("--riemann", default=None, help="rusanov|hll|hllc|roe")
    parser.add_argument("--reconstruction", default=None, help="pc|tvd2|tvd3|weno3")
    parser.add_argument("--limiter", default=None, help="minmod|superbee|vanleer|mc")
    parser.add_argument(
        "--variables", default=None, help="characteristic|primitive|conservative"
    )
    parser.add_argument("--rk-order", type=int, default=None)
    parser.add_argument(
        "--backend",
        choices=("auto", "numpy", "jit"),
        default="auto",
        help="kernel backend: numpy (oracle), jit (compiled), or auto"
        " (jit when a C compiler is available, REPRO_JIT overrides)",
    )
    parser.add_argument(
        "--seed-baseline",
        action="store_true",
        help="also time the allocating seed path (no engine)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="B",
        help="measure a B-member batched ensemble (aggregate member-steps/s"
        " vs the same engine at B=1) instead of the tiled/untiled split",
    )
    parser.add_argument("--json", default=None, help="write the result dict here")
    args = parser.parse_args(argv)
    if args.grid < 1:
        parser.error("--grid must be >= 1")
    if args.steps < 1:
        parser.error("--steps must be >= 1")

    config = paper_benchmark_config()
    overrides = {
        key: value
        for key, value in (
            ("riemann", args.riemann),
            ("reconstruction", args.reconstruction),
            ("limiter", args.limiter),
            ("variables", args.variables),
            ("rk_order", args.rk_order),
        )
        if value is not None
    }
    if overrides:
        config = replace(config, **overrides)
    backend = None if args.backend == "auto" else args.backend

    if args.batch is not None:
        if args.batch < 1:
            parser.error("--batch must be >= 1")
        result = measure_batch_steprate(
            grid=args.grid,
            steps=args.steps,
            batch=args.batch,
            config=config,
            tile_bytes=args.tile_bytes,
            backend=backend,
        )
        baseline = measure_batch_steprate(
            grid=args.grid,
            steps=args.steps,
            batch=1,
            config=config,
            tile_bytes=args.tile_bytes,
            backend=backend,
        )
        result["baseline_member_steps_per_second"] = baseline[
            "member_steps_per_second"
        ]
        result["batch_speedup"] = (
            result["member_steps_per_second"]
            / baseline["member_steps_per_second"]
        )
        print(
            f"batch steprate {args.grid}x{args.grid} x B={args.batch}"
            f" ({config.reconstruction}+{config.riemann}, rk{config.rk_order}):"
        )
        print(
            f"  B={args.batch:<3d} {result['member_steps_per_second']:.3f}"
            f" member-steps/s ({result['batch_steps_per_second']:.3f} batch"
            f" steps/s)"
        )
        print(
            f"  B=1   {baseline['member_steps_per_second']:.3f}"
            f" member-steps/s -> batch speedup {result['batch_speedup']:.2f}x"
        )
        summary = _jit_summary(result["counters"])
        if summary:
            print(summary)
        difference = result["max_abs_difference_vs_solo"]
        print(f"  max |member 0 - solo| = {difference}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
            print(f"  wrote {args.json}")
        return 0 if difference == 0.0 else 1

    result = measure_steprate(
        grid=args.grid,
        steps=args.steps,
        config=config,
        tile_bytes=args.tile_bytes,
        seed_baseline=args.seed_baseline,
        backend=backend,
    )
    counters = result["tiled_counters"]
    print(
        f"steprate {args.grid}x{args.grid} ({config.reconstruction}+"
        f"{config.riemann}, rk{config.rk_order},"
        f" backend={result['backend']}):"
    )
    print(
        f"  tiled   {result['engine_steps_per_second']:.3f} steps/s"
        f"  (tile_bytes={result['tile_bytes']}, tiles={counters['tiles']})"
    )
    print(
        f"  untiled {result['untiled_steps_per_second']:.3f} steps/s"
        f"  -> tiled speedup {result['tiled_speedup']:.2f}x"
    )
    if "seed_steps_per_second" in result:
        print(
            f"  seed    {result['seed_steps_per_second']:.3f} steps/s"
            f"  -> engine speedup {result['speedup']:.2f}x"
        )
    print(_phase_table(result))
    summary = _jit_summary(counters)
    if summary:
        print(summary)
    difference = result["max_abs_difference_tiled_vs_untiled"]
    print(f"  max |tiled - untiled| = {difference}")
    seed_difference = result.get("max_abs_difference_tiled_vs_seed", 0.0)
    if args.seed_baseline:
        print(f"  max |tiled - seed| = {seed_difference}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"  wrote {args.json}")
    return 0 if difference == 0.0 and seed_difference == 0.0 else 1


if __name__ == "__main__":
    sys.exit(main())
