"""The paper's Fig. 4 experiment: wall clock vs. core count.

Two modes regenerate the figure, one modeled and one measured.

Modeled mode (:func:`figure4_experiment`)
-----------------------------------------
The paper times 1000 steps of the 2-D simulation on a 400x400 grid for
1..16 cores, for SaC and auto-parallelised Fortran.  We cannot run 2009
binaries, so the experiment is *measure structure, model hardware*:

1. run the real SaC pipeline (compile + vectorised backend) and the
   real Fortran pipeline (parse + autopar + interpreter) on a small
   instance of the same workload, recording an execution trace —
   the per-step sequence of parallel regions with their work;
2. scale the per-step trace to the target grid and step count (the
   region *structure* per step is grid-size independent; region sizes
   scale with the cell count);
3. replay the scaled trace on the simulated 16-core Opteron under each
   language's runtime model (spin-lock vs fork/join, locality).

The result reproduces the figure's shape: Fortran fastest on one core,
degrading as cores are added; SaC slower on one core but scaling, with
a crossover at a few cores.  ``grid=2000`` reproduces the Section 5
text (Fortran scales slightly to ~5 cores, then degrades).

Measured mode (:func:`figure4_measured`)
----------------------------------------
Since the :mod:`repro.par` runtime exists, the same workload can also be
*run for real*: the two-channel problem with each sweep's strip plan on
the worker team, once per worker count and once per barrier flavour
(``spin`` — the SaC runtime style, vs ``forkjoin`` — the OpenMP style).
Wall clock, step rate and threaded-strip counts come from actual
execution on the host, not from the machine model; results are
validated against the serial golden reference before timing.  The
numbers depend on the host's core count and the GIL (only the compiled
strip kernels overlap), so the *shape* is the reproducible part, exactly
as with the paper's own hardware-bound figure.  ``to_scaling_result()`` maps the spin curve to
the figure's SaC column and the fork/join curve to the Fortran column,
so every modeled-mode renderer also accepts measured data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.euler.rankine_hugoniot import post_shock_state
from repro.f90 import FortranOptions
from repro.f90 import api as f90_api
from repro.perf.machine import (
    LanguageRuntime,
    MachineModel,
    fortran_runtime,
    sac_runtime,
)
from repro.sac import CompilerOptions
from repro.sac import api as sac_api
from repro.sac.runtime.profiler import ExecutionTrace


@dataclass
class ScalingPoint:
    cores: int
    sac_seconds: float
    fortran_seconds: float


@dataclass
class ScalingResult:
    """One Fig.-4-style experiment."""

    grid: int
    steps: int
    points: List[ScalingPoint]
    sac_regions_per_step: float
    fortran_regions_per_step: float

    def crossover_cores(self) -> Optional[int]:
        """Smallest core count at which SaC beats Fortran, if any."""
        for point in self.points:
            if point.sac_seconds < point.fortran_seconds:
                return point.cores
        return None


@dataclass
class TwoChannelWorkload:
    """The Fig. 4 workload at measurement scale."""

    measure_grid: int = 24
    measure_steps: int = 2
    mach: float = 2.2
    cfl: float = 0.5

    def host_setup(self):
        """Initial state and boundary parameters on the measurement grid."""
        n = self.measure_grid
        h = n / 2.0  # dx = 1, like the paper's h = 200 on 400 cells
        dx = 2.0 * h / n
        post = post_shock_state(self.mach)
        e0 = int(round(0.5 * h / dx))
        e1 = int(round(1.5 * h / dx))
        qin_left = np.array([post.rho, post.velocity, 0.0, post.p])
        qin_bottom = np.array([post.rho, 0.0, post.velocity, post.p])
        rho0, p0 = 1.0, 1.0
        energy0 = p0 / 0.4
        q0 = np.zeros((n, n, 4))
        q0[..., 0] = rho0
        q0[..., 3] = energy0
        return q0, dx, e0, e1, qin_left, qin_bottom


def measure_sac_trace(workload: TwoChannelWorkload, optimize: bool = True) -> ExecutionTrace:
    """Per-measured-run trace of the SaC 2-D solver."""
    options = CompilerOptions(optimize=optimize, trace=True)
    program = sac_api.compile_file("euler2d.sac", options)
    q0, dx, e0, e1, qin_left, qin_bottom = workload.host_setup()
    program.run(
        "simulate", q0, workload.measure_steps, dx, dx, workload.cfl,
        e0, e1, qin_left, qin_bottom,
    )
    return program.trace


def measure_fortran_trace(workload: TwoChannelWorkload, autopar: bool = True) -> ExecutionTrace:
    """Per-measured-run trace of the Fortran 2-D solver."""
    options = FortranOptions(autopar=autopar, trace=True)
    program = f90_api.compile_file("euler2d.f90", options)
    q0, dx, e0, e1, qin_left, qin_bottom = workload.host_setup()
    q_fortran = np.ascontiguousarray(np.moveaxis(q0, -1, 0))
    n = workload.measure_grid
    program.call(
        "SIMULATE", q_fortran, n, n, workload.measure_steps, dx, dx,
        workload.cfl, e0, e1, qin_left, qin_bottom,
    )
    return program.trace


def figure4_experiment(
    grid: int = 400,
    steps: int = 1000,
    cores: Optional[List[int]] = None,
    workload: Optional[TwoChannelWorkload] = None,
    machine: Optional[MachineModel] = None,
    sac: Optional[LanguageRuntime] = None,
    fortran: Optional[LanguageRuntime] = None,
    sac_trace: Optional[ExecutionTrace] = None,
    fortran_trace: Optional[ExecutionTrace] = None,
) -> ScalingResult:
    """Regenerate the paper's Fig. 4 data (or the 2000x2000 variant).

    Pre-measured traces can be passed in to sweep several grids from
    one measurement.
    """
    workload = workload or TwoChannelWorkload()
    machine = machine or MachineModel()
    sac = sac or sac_runtime()
    fortran = fortran or fortran_runtime()
    cores = cores or list(range(1, machine.cores + 1))
    if grid < workload.measure_grid:
        raise ConfigurationError("target grid smaller than the measured grid")

    if sac_trace is None:
        sac_trace = measure_sac_trace(workload)
    if fortran_trace is None:
        fortran_trace = measure_fortran_trace(workload)

    element_factor = (grid / workload.measure_grid) ** 2
    repetitions = max(1, round(steps / workload.measure_steps))
    sac_scaled = sac_trace.scaled(element_factor, repetitions)
    fortran_scaled = fortran_trace.scaled(element_factor, repetitions)

    points = [
        ScalingPoint(
            cores=count,
            sac_seconds=machine.run_trace(sac_scaled, sac, count).total,
            fortran_seconds=machine.run_trace(fortran_scaled, fortran, count).total,
        )
        for count in cores
    ]
    return ScalingResult(
        grid=grid,
        steps=steps,
        points=points,
        sac_regions_per_step=sac_trace.parallel_region_count / workload.measure_steps,
        fortran_regions_per_step=fortran_trace.parallel_region_count / workload.measure_steps,
    )


@dataclass
class MeasuredPoint:
    """One really-executed scaling run (one worker count, one barrier)."""

    workers: int
    barrier: str
    seconds: float
    steps: int
    max_abs_error: float  # vs the serial golden reference
    #: Per-phase engine seconds (bc/jit_sweep/rk/...) over the run.
    phase_seconds: Optional[Dict[str, float]] = None
    #: Seconds the run's sweep rounds spent in the team's barriers.
    barrier_wait_seconds: float = 0.0
    #: Strips processed over the run and the engine's tile budget (0 =
    #: one-strip plans; see repro.euler.tiling) — and of those strips,
    #: how many ran on the team, with the counted reasons for any that
    #: did not (serialized plans, strips that fell back to NumPy).
    tiles: int = 0
    tile_bytes: int = 0
    strips_threaded: int = 0
    serialized: Dict[str, int] = field(default_factory=dict)
    fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Per-step trace records in JSON form (see repro.obs.trace), kept
    #: only when the run was traced.
    trace: Optional[List[Dict[str, object]]] = None

    @property
    def step_rate(self) -> float:
        return self.steps / self.seconds if self.seconds > 0 else float("inf")


@dataclass
class MeasuredScalingResult:
    """A measured Fig.-4 analogue: wall clock vs worker count, per barrier."""

    grid: int
    steps: int
    points: List[MeasuredPoint]
    serial_seconds: float
    mode: str = "measured"

    def curve(self, barrier: str) -> List[Tuple[int, float]]:
        return [
            (p.workers, p.seconds) for p in self.points if p.barrier == barrier
        ]

    def speedups(self, barrier: str) -> List[Tuple[int, float]]:
        """Speedup of each worker count over the serial reference run."""
        return [
            (p.workers, self.serial_seconds / p.seconds)
            for p in self.points
            if p.barrier == barrier and p.seconds > 0
        ]

    def barriers(self) -> List[str]:
        seen: List[str] = []
        for point in self.points:
            if point.barrier not in seen:
                seen.append(point.barrier)
        return seen

    def max_error(self) -> float:
        return max((p.max_abs_error for p in self.points), default=0.0)

    def to_scaling_result(self) -> ScalingResult:
        """The modeled-mode schema: spin -> SaC column, forkjoin -> Fortran.

        The mapping mirrors the paper's pairing — SaC synchronises by
        spinning, the OpenMP baseline by kernel fork/join — so the
        existing table/figure renderers apply unchanged.
        """
        by_barrier: Dict[str, Dict[int, float]] = {}
        for point in self.points:
            by_barrier.setdefault(point.barrier, {})[point.workers] = point.seconds
        spin = by_barrier.get("spin", {})
        forkjoin = by_barrier.get("forkjoin", {})
        workers = sorted(set(spin) | set(forkjoin))
        threaded = {p.workers: p.strips_threaded for p in self.points}
        points = [
            ScalingPoint(
                cores=count,
                sac_seconds=spin.get(count, float("nan")),
                fortran_seconds=forkjoin.get(count, float("nan")),
            )
            for count in workers
        ]
        regions = (
            threaded[workers[-1]] / self.steps if workers and self.steps else 0.0
        )
        return ScalingResult(
            grid=self.grid,
            steps=self.steps,
            points=points,
            sac_regions_per_step=regions,
            fortran_regions_per_step=regions,
        )


def _measured_workload_solver(grid: int, config=None):
    """The two-channel problem at measurement scale (paper benchmark method)."""
    from repro.euler import problems
    from repro.euler.solver import SolverConfig

    config = config or SolverConfig(
        reconstruction="pc", riemann="rusanov", rk_order=3, cfl=0.5
    )
    solver, _ = problems.two_channel(n_cells=grid, h=grid / 2.0, config=config)
    return solver


def figure4_measured(
    grid: int = 48,
    steps: int = 10,
    workers: Sequence[int] = (1, 2, 4),
    barriers: Sequence[str] = ("spin", "forkjoin"),
    config=None,
    validate: bool = True,
    traced: bool = True,
) -> MeasuredScalingResult:
    """Run the Fig. 4 workload for real on the repro.par runtime.

    For each worker count and barrier flavour the two-channel problem is
    advanced ``steps`` steps with every sweep's strip plan on the worker
    team, and the wall clock is measured on the host.  The plan is not
    re-cut for the team: pass a ``config`` whose ``tile_bytes`` gives a
    sweep at least as many strips as workers, or there is nothing to
    overlap.  When ``validate`` is set (the default) every parallel
    field is compared against a serial reference run of the same length;
    the maximum absolute difference is recorded per point (and is 0.0).

    With ``traced`` (the default) each parallel run is watched by a
    :class:`repro.obs.trace.StepTrace` and the point carries the
    per-step records plus the run's barrier-wait seconds — the
    synchronisation share the paper could only speculate about.  Pass
    ``traced=False`` for a pristine timing loop.
    """
    from repro.obs.trace import StepTrace
    from repro.par.solver import ParallelSolver2D

    if grid < 8:
        raise ConfigurationError(f"measured grid must be at least 8, got {grid}")
    if steps < 1:
        raise ConfigurationError(f"need at least one step, got {steps}")

    serial = _measured_workload_solver(grid, config)
    reference_state: Optional[np.ndarray] = None
    start = time.perf_counter()
    serial.run(max_steps=steps)
    serial_seconds = time.perf_counter() - start
    if validate:
        reference_state = serial.u

    points: List[MeasuredPoint] = []
    for barrier in barriers:
        for count in workers:
            fresh = _measured_workload_solver(grid, config)
            with ParallelSolver2D.from_serial(
                fresh, workers=count, barrier=barrier
            ) as parallel:
                trace = StepTrace(capacity=max(steps, 1)) if traced else None
                start = time.perf_counter()
                parallel.run(max_steps=steps, watch=trace)
                seconds = time.perf_counter() - start
                error = (
                    float(np.abs(parallel.u - reference_state).max())
                    if reference_state is not None
                    else float("nan")
                )
                counters = parallel.engine.counters()
                jit = counters.get("jit", {})
                points.append(
                    MeasuredPoint(
                        workers=count,
                        barrier=barrier,
                        seconds=seconds,
                        steps=steps,
                        max_abs_error=error,
                        phase_seconds=parallel.phase_seconds,
                        barrier_wait_seconds=parallel.barrier_wait_seconds,
                        tiles=parallel.tiles,
                        tile_bytes=parallel.tile_bytes,
                        strips_threaded=jit.get("strips_threaded", 0),
                        serialized=counters["team"]["serialized"],
                        fallbacks=jit.get("fallbacks", {}),
                        trace=(
                            [r.to_json() for r in trace.records()]
                            if trace is not None
                            else None
                        ),
                    )
                )
    return MeasuredScalingResult(
        grid=grid, steps=steps, points=points, serial_seconds=serial_seconds
    )


def format_measured_table(result: MeasuredScalingResult) -> str:
    """The measured series as a printable table (one row per point)."""
    lines = [
        f"measured wall clock (host seconds), {result.grid}x{result.grid} grid,"
        f" {result.steps} time steps, serial reference {result.serial_seconds:.3f}s",
        f"{'workers':>7}  {'barrier':>8}  {'seconds':>9}  {'steps/s':>9}"
        f"  {'sweep (s)':>9}  {'strips threaded':>15}  {'max |err|':>9}",
    ]
    for point in result.points:
        lines.append(
            f"{point.workers:>7}  {point.barrier:>8}  {point.seconds:>9.3f}"
            f"  {point.step_rate:>9.2f}"
            f"  {(point.phase_seconds or {}).get('jit_sweep', 0.0):>9.3f}"
            f"  {point.strips_threaded:>15}  {point.max_abs_error:>9.2e}"
        )
    return "\n".join(lines)


def format_scaling_table(result: ScalingResult) -> str:
    """The Fig. 4 series as a printable table."""
    lines = [
        f"wall clock (simulated seconds), {result.grid}x{result.grid} grid,"
        f" {result.steps} time steps",
        f"{'cores':>5}  {'SaC':>12}  {'Fortran-90':>12}",
    ]
    for point in result.points:
        lines.append(
            f"{point.cores:>5}  {point.sac_seconds:>12.2f}  {point.fortran_seconds:>12.2f}"
        )
    crossover = result.crossover_cores()
    lines.append(
        f"crossover: SaC overtakes Fortran at {crossover} cores"
        if crossover
        else "crossover: none in range"
    )
    return "\n".join(lines)
