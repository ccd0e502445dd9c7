"""A 2-D Euler solver that runs on real workers via domain decomposition.

:class:`ParallelSolver2D` reproduces :class:`repro.euler.solver.EulerSolver2D`
*bit for bit* while executing on a persistent thread team:

* the grid is block-decomposed (:mod:`repro.par.partition`); each worker
  owns one subdomain's conservative state;
* per Runge-Kutta stage, each worker converts its block to primitive
  variables, publishes it into a padded buffer, and after a team
  barrier pulls ghost strips from its neighbours
  (:mod:`repro.par.halo`); exterior edges are filled per sweep with the
  windowed physical boundary conditions, exactly as the serial sweeps
  do on the full grid;
* the CFL ``GetDT`` is a slot min-reduction (:mod:`repro.par.reduce`);
* workers synchronise through either spin barriers (the SaC runtime
  style) or condvar fork/join barriers (the OpenMP style) — the
  :mod:`repro.par.pool` toggle that turns the paper's modeled sync
  asymmetry into something you can time.

Bit-for-bit equality holds because every kernel in the serial solver is
stencil-local along the sweep axis and element-local across it: a
subdomain whose padded sweep array holds the same floating-point values
as the corresponding window of the serial padded array performs the
identical sequence of rounded operations per cell.  The validation
tests assert exact equality; the acceptance bound of 1e-12 in the
benchmarks is slack for exotic libm/compiler combinations only.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, PhysicsError
from repro.euler import state
from repro.euler.boundary import BoundarySet2D
from repro.euler.engine import PHASES, StepEngine
from repro.euler.solver import EulerSolver2D, RunResult, SolverConfig, _SoleMember, _SweepKernel
from repro.par import halo as halo_mod
from repro.par.partition import DEFAULT_HALO, decompose
from repro.par.pool import BarrierAborted, WorkerPool
from repro.par.reduce import SlotReduction

__all__ = ["ParallelSolver2D"]


class ParallelSolver2D(_SoleMember):
    """Domain-decomposed drop-in for :class:`EulerSolver2D`.

    Accepts the serial constructor signature plus the parallel knobs:
    ``workers`` (or an explicit ``px``/``py`` process grid), the halo
    width (default 2, must cover the reconstruction stencil), and the
    ``barrier`` kind (``"spin"`` or ``"forkjoin"``).  Clock, watch,
    ``step``/``run`` and forensics are the member driver's
    (:class:`~repro.euler.solver._MemberDriver`, B = 1); this class is
    the stepper it drives — the rank team's GetDT reduction and
    Runge-Kutta step.
    """

    def __init__(
        self,
        primitive: np.ndarray,
        dx: float,
        dy: float,
        boundaries: BoundarySet2D,
        config: Optional[SolverConfig] = None,
        *,
        workers: int = 1,
        px: Optional[int] = None,
        py: Optional[int] = None,
        halo: Optional[int] = None,
        barrier: str = "spin",
        watch=None,
    ):
        primitive = np.asarray(primitive, dtype=float)
        if primitive.ndim != 3 or primitive.shape[-1] != 4:
            raise ConfigurationError("2-D initial condition must have shape (Nx, Ny, 4)")
        if dx <= 0 or dy <= 0:
            raise ConfigurationError(f"dx and dy must be positive, got {dx}, {dy}")
        self.config = config or SolverConfig()
        self.dx = float(dx)
        self.dy = float(dy)
        self.boundaries = boundaries
        self.kernel = _SweepKernel(self.config)
        ng = self.kernel.ghost_cells
        if halo is None:
            halo = max(DEFAULT_HALO, ng)
        if halo < ng:
            raise ConfigurationError(
                f"halo width {halo} narrower than the {self.config.reconstruction}"
                f" stencil ({ng} ghost cells)"
            )

        nx, ny = primitive.shape[:2]
        self.decomposition = decompose(
            nx, ny, workers=workers, px=px, py=py, halo=halo
        )
        self.halo = halo
        self._init_clocks(1, watch)

        u_global = state.conservative_from_primitive(primitive, self.config.gamma)
        self._locals: List[np.ndarray] = [
            u_global[sd.xslice, sd.yslice].copy()
            for sd in self.decomposition.subdomains
        ]
        self._buffers = halo_mod.allocate_buffers(self.decomposition)
        self.exchanger = halo_mod.HaloExchanger(self.decomposition, self._buffers)
        self.pool = WorkerPool(
            self.decomposition.workers, barrier=barrier, name="euler-par"
        )
        self._team = self.pool.team_barrier()
        self._dt_slots = SlotReduction(self.decomposition.workers)
        # Physical edge specs pre-windowed per subdomain (None on interior
        # edges), each as the one-member list the engine's sweeps take.
        def windowed(neighbour, spec, low, high):
            if neighbour is not None:
                return [None]
            return [halo_mod.restrict_edge_spec(spec, low, high)]

        self._edge_specs = [
            {
                "left": windowed(sd.left, boundaries.left, sd.y0, sd.y1),
                "right": windowed(sd.right, boundaries.right, sd.y0, sd.y1),
                "bottom": windowed(sd.bottom, boundaries.bottom, sd.x0, sd.x1),
                "top": windowed(sd.top, boundaries.top, sd.x0, sd.x1),
            }
            for sd in self.decomposition.subdomains
        ]
        # One StepEngine (thus one workspace) per rank: workers share no
        # scratch memory.  Each is a batch of one run without physical
        # boundaries — exterior edges are filled through the windowed
        # specs above.
        h = self.halo
        self._engines: List[StepEngine] = [
            StepEngine(block.shape, (self.dx, self.dy), self.config)
            for block in self._locals
        ]
        # Interior windows of the halo buffers and the one-member views
        # the engines take, all precomputed once so the
        # primitive-freshness check in StepEngine.primitive_into (an
        # ``is`` identity on the target array) holds across calls.
        self._interiors: List[np.ndarray] = [
            buffer[h : h + sd.nx, h : h + sd.ny]
            for sd, buffer in zip(self.decomposition.subdomains, self._buffers)
        ]
        self._local_stacks = [block[None] for block in self._locals]
        self._interior_stacks = [interior[None] for interior in self._interiors]

    @classmethod
    def from_serial(
        cls,
        serial: EulerSolver2D,
        *,
        workers: int = 1,
        px: Optional[int] = None,
        py: Optional[int] = None,
        halo: Optional[int] = None,
        barrier: str = "spin",
    ) -> "ParallelSolver2D":
        """Wrap a serial solver's current state and configuration."""
        solver = cls(
            serial.primitive,
            serial.dx,
            serial.dy,
            serial.boundaries,
            serial.config,
            workers=workers,
            px=px,
            py=py,
            halo=halo,
            barrier=barrier,
        )
        # Adopt the conservative state directly: the primitive round trip
        # through the constructor is 1 ulp lossy on evolved states.
        for sd, block in zip(solver.decomposition.subdomains, solver._locals):
            block[...] = serial.u[sd.xslice, sd.yslice]
        solver.time = serial.time
        solver.steps = serial.steps
        return solver

    # -- state access --------------------------------------------------

    @property
    def workers(self) -> int:
        return self.decomposition.workers

    @property
    def u(self) -> np.ndarray:
        """Global conservative state, gathered from the subdomains."""
        nx, ny = self.decomposition.nx, self.decomposition.ny
        # Field count and dtype come from the local blocks, not a
        # hardcoded (nx, ny, 4) float64 — the gather must not silently
        # cast or assume the component count.
        reference = self._locals[0]
        gathered = np.empty((nx, ny, reference.shape[-1]), dtype=reference.dtype)
        for sd, block in zip(self.decomposition.subdomains, self._locals):
            gathered[sd.xslice, sd.yslice] = block
        return gathered

    @property
    def halo_exchanges(self) -> int:
        """Neighbour strips copied since construction."""
        return self.exchanger.total_copies

    @property
    def halo_bytes(self) -> int:
        """Halo bytes copied since construction (telemetry)."""
        return self.exchanger.total_bytes

    @property
    def barrier_wait_seconds(self) -> float:
        """Seconds spent waiting in the pool's barriers (telemetry)."""
        return self.pool.barrier_wait_seconds

    @property
    def engine_seconds(self) -> Dict[str, float]:
        """Per-phase wall-clock seconds summed over the rank engines."""
        totals = {phase: 0.0 for phase in PHASES}
        for engine in self._engines:
            for phase, elapsed in engine.seconds.items():
                # Jit engines carry extra phases (jit_sweep/jit_dt)
                # beyond the static PHASES tuple.
                totals[phase] = totals.get(phase, 0.0) + elapsed
        return totals

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Alias of :attr:`engine_seconds` (the serial solvers' name)."""
        return self.engine_seconds

    @property
    def scratch_bytes(self) -> int:
        """Workspace bytes summed over the rank engines."""
        return sum(engine.scratch_bytes for engine in self._engines)

    @property
    def tiles(self) -> int:
        """Cumulative sweep/dt strips summed over the rank engines."""
        return sum(engine.tiles_processed for engine in self._engines)

    @property
    def tile_bytes(self) -> int:
        """The ranks' cache-blocking budget (identical on every engine)."""
        return self._engines[0].tile_bytes if self._engines else 0

    def engine_counters(self) -> List[Dict[str, object]]:
        """Per-rank counter snapshots (see :meth:`StepEngine.counters`)."""
        return [engine.counters() for engine in self._engines]

    def close(self) -> None:
        """Shut down the worker team (idempotent)."""
        self.pool.shutdown()

    def __enter__(self) -> "ParallelSolver2D":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the parallel step ---------------------------------------------

    def _compute_dts(self) -> List[float]:
        """CFL time step via the parallel GetDT min-reduction.

        Each rank converts its block straight into the interior window
        of its halo buffer; the conversion stays fresh, so the first
        Runge-Kutta stage of the following step reuses it instead of
        converting again.
        """

        def deposit_local_dt(rank: int) -> None:
            with self._global_cells(rank):
                self._dt_slots.deposit(
                    rank,
                    self._engines[rank].compute_dt(
                        self._local_stacks[rank], target=self._interior_stacks[rank]
                    )[0],
                )

        self.pool.run(deposit_local_dt)
        return [self._dt_slots.combine("min")]

    def _advance(self, dts) -> None:
        """One Runge-Kutta step on the worker team."""

        def advance(rank: int) -> None:
            self._engines[rank].integrate(
                self._local_stacks[rank],
                dts[0],
                lambda v, out, first: self._local_rhs_into(rank, v, out, first),
            )

        self.pool.run(advance)

    def run(
        self,
        t_end: Optional[float] = None,
        max_steps: Optional[int] = None,
        callback: Optional[Callable[["ParallelSolver2D"], None]] = None,
        watch=None,
    ) -> RunResult:
        """Advance until ``t_end`` and/or for ``max_steps`` steps.

        A :class:`KeyboardInterrupt` (or a barrier poisoned by one)
        tears the worker team down before propagating: an interrupted
        run must not leave threads spinning in a barrier that will
        never release.  A PhysicsError abort already shuts the pool
        down through the broken-round path; this covers interrupts that
        land *between* pool rounds (dt bookkeeping, callbacks, trace
        recording), where the team is healthy but idle.
        """
        try:
            return super().run(t_end, max_steps, callback, watch)
        except (KeyboardInterrupt, BarrierAborted):
            self.close()
            raise

    # -- internals -----------------------------------------------------

    @contextmanager
    def _global_cells(self, rank: int):
        """Rebase a rank-local :class:`PhysicsError` to global grid indices.

        Validation inside a subdomain reports cells in block coordinates;
        without the ``(x0, y0)`` offset the "offending cell" would point
        at the wrong place on every rank but 0.
        """
        try:
            yield
        except PhysicsError as error:
            if not error.details.get("global_cells"):
                sd = self.decomposition.subdomains[rank]
                error.cells = [
                    (cell[0] + sd.x0, cell[1] + sd.y0) if len(cell) == 2 else cell
                    for cell in error.cells
                ]
                if (
                    error.neighbourhood is not None
                    and len(error.neighbourhood.origin) == 2
                ):
                    error.neighbourhood.origin = (
                        error.neighbourhood.origin[0] + sd.x0,
                        error.neighbourhood.origin[1] + sd.y0,
                    )
                error.details["global_cells"] = True
                error.details["rank"] = rank
            raise

    def _local_rhs_into(
        self, rank: int, u_block: np.ndarray, out: np.ndarray, first_stage: bool
    ) -> None:
        """Spatial operator on one subdomain; barriers keep the team in step.

        Every worker calls this the same number of times per stage (the
        integrator structure is identical across workers), so the two
        team barriers line up: the first makes all interior writes
        visible before any halo pull, the second keeps a fast worker
        from overwriting its interior while a sibling still reads it.

        The primitive conversion lands directly in the interior window
        of this rank's halo buffer (no staging copy); on the first stage
        after :meth:`compute_dt` the conversion already there is reused.
        ``u_block`` and ``out`` are the engine's one-member stacks
        ``(1, nx, ny, 4)``; the padded sweep arrays get the member axis
        second, as views.
        """
        sd = self.decomposition.subdomains[rank]
        engine = self._engines[rank]
        h = self.halo
        ng = engine.ghost_cells
        engine.rhs_evaluations += 1
        engine.primitive_into(
            u_block, target=self._interior_stacks[rank], reuse=first_stage
        )
        started = perf_counter()
        with self._global_cells(rank):
            state.validate_state(
                self._interiors[rank],
                f"parallel solver subdomain {rank}",
                work=engine.workspace,
            )
        engine.seconds["convert"] += perf_counter() - started
        self._team.wait()
        self.exchanger.exchange(rank)
        self._team.wait()

        buffer = self._buffers[rank]
        specs = self._edge_specs[rank]
        padded_x = buffer[h - ng : h + sd.nx + ng, None, h : h + sd.ny]
        engine.sweep_axis0(
            padded_x, specs["left"], specs["right"], self.dx, out.swapaxes(0, 1)
        )
        window = buffer[None, h : h + sd.nx, h - ng : h + sd.ny + ng]
        padded_y = engine.workspace.array(
            "engine.padded_y", (sd.ny + 2 * ng, 1, sd.nx, window.shape[-1])
        )
        started = perf_counter()
        engine.orient_into(window, padded_y)
        engine.seconds["bc"] += perf_counter() - started
        engine.sweep_axis1(padded_y, specs["bottom"], specs["top"], self.dy, out)
