"""StepEngine — the one preallocated stepping core under all the solvers.

The paper attributes much of SaC's performance to compiler-managed
memory reuse; the golden NumPy solver originally allocated ~10 fresh
arrays per Runge-Kutta stage (integrator temporaries, padded sweep
buffers, face fluxes, primitive round trips).  :class:`StepEngine`
owns, per (grid shape, :class:`~repro.euler.solver.SolverConfig`), a
:class:`~repro.euler.workspace.Workspace` of preallocated buffers and
advances the conservative state by running *one program per RK stage* —
its :class:`~repro.jit.plan.StagePlan`: conversion, both strip sweeps
and the Runge-Kutta combine, whose pointwise bodies are the IR of its
:class:`~repro.jit.kernels.KernelSpec` (the folded ``reconstruct ->
riemann`` flux IR, the conversion, the combines), assembled from the
``emit_*`` definitions beside the allocating reference functions, and
whose ghost fill is the boundary conditions' fill records.  A stage is
executed by one of two executors of that same plan: the compiled
``repro_jit_stage`` (:class:`~repro.jit.backend.JitBackend`, one
crossing per stage) or :func:`repro.jit.numpy_eval.run_stage`, whose
phase handlers are the methods here.  Either performs the identical
sequence of rounded floating-point operations as the allocating seed
path: results are bit-for-bit equal, only the allocator traffic is gone.

There is one engine and it has three annotations, none of which
selects different code:

* **the member axis.**  The state always carries a leading member axis,
  ``(B, N, 3)`` in 1-D or ``(B, Nx, Ny, 4)`` in 2-D.  A solo run is a
  batch of one: `EulerSolver1D`/`EulerSolver2D` (and
  :class:`~repro.par.solver.ParallelSolver2D`, which is one) hand the
  engine a ``u[None]`` view, `EulerEnsemble2D` a stack of B scenarios.
* **the strip plan.**  Every sweep and every dt pass runs over a
  :class:`~repro.euler.tiling.TilePlan` whose strips keep the whole
  ``reconstruct -> riemann -> difference`` (or ``convert -> eigenvalue``)
  working set inside the ``tile_bytes`` budget, so intermediates stay
  cache-resident instead of round-tripping DRAM once per ufunc.
  ``tile_bytes=0`` means "no budget": the same code runs a plan of one
  strip, which is the whole-grid reference the differential tests pin.
* **the team.**  The strip plan is also the only decomposition: with
  ``workers >= 2`` the compiled backend runs each phase's strips as a
  round of the process's worker team (:mod:`repro.par.pool`), licensed
  per plan by the dependence prover.  Threads apply only where the
  compiled stage serves; without it the same strips run serially here,
  with a counted reason.

All are bit-for-bit neutral: every kernel in the chain is elementwise
over its leading axes, so neither stacking members nor cutting strips
nor running them side by side changes the rounded operations any cell
sees.

The engine also keeps per-phase wall-clock counters (boundary fill,
the folded face-flux program — booked as ``riemann`` — flux
differencing, Runge-Kutta combine, primitive conversion, the fused dt
program; the compiled stage reports its own per phase) plus
conversion/step/strip counts and the scratch footprint in bytes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, PhysicsError
from repro.euler import rk, state, tiling
from repro.euler.boundary import apply_fill
from repro.euler.reconstruction import stencil_views
from repro.euler.timestep import max_eigenvalue
from repro.euler.workspace import Workspace
import repro.jit as repro_jit
from repro.jit.numpy_eval import field_views, kernel_programs, numpy_program, run_stage

__all__ = ["StepEngine", "PHASES"]

#: Phase keys of the engine's wall-clock counters.
PHASES = ("convert", "bc", "riemann", "difference", "rk", "dt")

#: Field permutation of ``swap_velocity_axes`` for 4-field states.
_SWAP_FIELDS = ((0, 0), (1, 2), (2, 1), (3, 3))

#: Why a multi-strip plan ran serially on an engine with a team but no
#: backend (the backend counts its own reasons, see ``JitBackend``).
NO_KERNEL = "no compiled kernel (NumPy backend)"


class StepEngine:
    """Preallocated Godunov stepping core for B members of one grid shape.

    ``grid_shape`` is *one member's* state shape — ``(N, 3)`` in 1-D or
    ``(Nx, Ny, 4)`` in 2-D; ``spacing`` the matching cell sizes.
    ``boundaries`` is a sequence of one ``BoundarySet1D``/``BoundarySet2D``
    per member and fixes the batch size B.  The attribute ``grid_shape``
    is the full stack shape ``(B,) + member_shape``.  ``workers`` and
    ``barrier`` size the team a compiled backend runs sweep strips on
    (``workers=None`` reads ``REPRO_JIT_THREADS``, here, once).

    **Bit-identity contract.**  Every kernel call — conversion,
    reconstruction, Riemann solve, flux differencing, Runge-Kutta
    combine — processes the whole stack at once and is elementwise over
    its leading axes (the same property the strip tiling relies on), so
    member ``b`` of a batched step is bit-for-bit the state a one-member
    step of that member produces, which in turn is bit-for-bit the
    allocating seed path.  The only non-elementwise operations are the
    reductions, and those are per member: :meth:`compute_dt` returns a
    ``(B,)`` vector of per-member CFL steps (``max`` is exact, so each
    entry equals the member's standalone dt — members advance on their
    own clocks, there is *no* global ``min``), and state validation
    attributes failures to a member via
    :func:`repro.euler.state.validate_members`, raising a member-local
    :class:`PhysicsError` carrying ``batch_index``.

    **Layouts.**  Sweeps pad to ``(n + 2 ng, B, cross..., fields)`` —
    the sweep axis out front, members next.  A member's slab
    ``padded[:, b]`` therefore has exactly the one-member padded layout,
    so per-member boundary sets (different geometry per member,
    piecewise :class:`~repro.euler.boundary.EdgeSpec` segments included)
    are plain per-member fill records.

    **Tiling.**  The sweep strip planner sees the batch in its cross
    size (``B × ny`` cells of work per sweep row), so strips shrink
    automatically to keep the per-strip working set in cache; the fused
    dt pass strips over *members* and reduces each strip's members
    separately.
    """

    def __init__(
        self,
        grid_shape: Sequence[int],
        spacing: Sequence[float],
        config,
        boundaries,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        barrier: str = "forkjoin",
    ):
        #: Shape of one member's state; ``grid_shape`` is the full stack.
        self.member_shape = tuple(int(extent) for extent in grid_shape)
        nfields = self.member_shape[-1]
        if nfields == 3:
            self.ndim = 1
        elif nfields == 4:
            self.ndim = 2
        else:
            raise ConfigurationError(
                f"state arrays must have 3 or 4 fields, got {nfields}"
            )
        if len(self.member_shape) != self.ndim + 1:
            raise ConfigurationError(
                f"grid shape {self.member_shape} inconsistent with {self.ndim}-D state"
            )
        self.spacing = tuple(float(s) for s in spacing)
        if len(self.spacing) != self.ndim:
            raise ConfigurationError(
                f"{self.ndim}-D engine needs {self.ndim} spacings, got {len(self.spacing)}"
            )
        self.config = config
        self.boundaries = list(boundaries)
        self.batch = len(self.boundaries)
        if self.batch < 1:
            raise ConfigurationError("an engine needs at least one member")
        self.grid_shape = (self.batch,) + self.member_shape
        self._where = f"{self.ndim}-D solver state"
        # Deferred: repro.jit.kernels and .plan import repro.euler.
        from repro.jit.kernels import spec_from_config
        from repro.jit.plan import fill_tables

        #: The specialization both executors run (see the module docstring).
        self.spec = spec_from_config(config, self.ndim)
        self.ghost_cells = self.spec.ghost_cells
        #: Per sweep axis, every member's ghost fill as records, and why
        #: the compiled stage cannot run them (None if it can).
        self._fills, self._declined = fill_tables(
            self.spec, self.member_shape, self.boundaries
        )
        self.workspace = Workspace()
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.steps_taken = 0
        self.rhs_evaluations = 0
        self.primitive_conversions = 0
        #: Effective cache-blocking budget; 0 is "no budget": the planner
        #: is handed an unbounded one, under which every plan is one strip.
        self.tile_bytes = tiling.resolve_tile_bytes(
            getattr(config, "tile_bytes", None)
        )
        self._strip_budget = self.tile_bytes or tiling.UNBOUNDED_TILE_BYTES
        #: Strips processed, cumulative over sweeps and fused dt passes.
        self.tiles_processed = 0
        #: Strips of the fused convert+eigenvalue dt passes alone.
        self.dt_fused_strips = 0
        self._tile_plans: Dict[Tuple[int, ...], tiling.TilePlan] = {}
        self._plan = None
        self._fresh_primitive = False
        #: Team size and barrier kind, and — for an engine without a
        #: backend — the strips its multi-strip plans ran serially.
        self.workers = repro_jit.resolve_jit_threads(workers)
        self.barrier = barrier
        self.serialized: Dict[str, int] = {}
        #: Compiled-kernel backend (None = plain NumPy path), resolved as
        #: :mod:`repro.jit` documents.  It serves whole stages and
        #: declines, counted, what it cannot — the NumPy interpreter then
        #: runs the same plan, bit-for-bit identical either way.
        self.backend = repro_jit.create_backend(
            config, self.ndim, backend, self.workers, barrier
        )
        if self.backend is not None:
            self.seconds["jit_sweep"] = 0.0
            self.seconds["jit_dt"] = 0.0
        #: The dt pass partitions the *member* axis into strips whose
        #: convert+eigenvalue working set fits the budget.
        self._dt_plan = tiling.plan_tiles(
            self.batch,
            tiling.dt_row_bytes(
                int(np.prod(self.member_shape[:-1], dtype=int)), nfields
            ),
            self._strip_budget,
        )

    # -- counters -------------------------------------------------------

    @property
    def scratch_bytes(self) -> int:
        """Bytes currently held by this engine's workspace."""
        return self.workspace.nbytes

    def counters(self) -> Dict[str, object]:
        """Snapshot of all phase/operation counters (JSON-friendly)."""
        counters: Dict[str, object] = {
            "batch": self.batch,
            "steps": self.steps_taken,
            "rhs_evaluations": self.rhs_evaluations,
            "primitive_conversions": self.primitive_conversions,
            "scratch_bytes": self.scratch_bytes,
            "tiles": self.tiles_processed,
            "tile_bytes": self.tile_bytes,
            "dt_fused_strips": self.dt_fused_strips,
            "seconds": dict(self.seconds),
            "backend": "numpy" if self.backend is None else self.backend.name,
            "team": {
                "workers": self.workers,
                "barrier": self.barrier,
                "serialized": dict(
                    self.serialized if self.backend is None else self.backend.serialized
                ),
            },
        }
        if self.backend is not None:
            counters["jit"] = self.backend.stats()
        return counters

    # -- the plan -------------------------------------------------------

    def _sweep_plan(self, padded_shape: Tuple[int, ...]) -> tiling.TilePlan:
        """The (cached) strip plan for a sweep over ``padded_shape``."""
        if padded_shape not in self._tile_plans:
            n_cells = padded_shape[0] - 2 * self.ghost_cells
            cross = int(np.prod(padded_shape[1:-1], dtype=int))
            backend = self.backend
            if backend is not None and self._declined is None and backend.ready():
                # The compiled sweep holds no per-ufunc intermediates, so
                # strips grow to fill the same budget.  A backend that
                # will serve no stage (kernel failed to build, plan
                # declined) must not size them: the NumPy program's row
                # size plans what the NumPy program runs.
                row_bytes = tiling.jit_sweep_row_bytes(
                    cross, padded_shape[-1], self.ghost_cells
                )
            else:
                flux_program, _ = kernel_programs(self.spec)
                row_bytes = tiling.sweep_row_bytes(
                    cross, padded_shape[-1], flux_program, self.ghost_cells
                )
            self._tile_plans[padded_shape] = tiling.plan_tiles(
                n_cells, row_bytes, self._strip_budget
            )
        return self._tile_plans[padded_shape]

    def stage_plan(self):
        """The engine's :class:`~repro.jit.plan.StagePlan`, built on first
        use: the phases of one RK stage over this engine's strip plans
        and its members' boundary fill records."""
        if self._plan is None:
            from repro.jit.plan import build_stage_plan

            shape, ng = self.member_shape, self.ghost_cells
            padded = [(shape[0] + 2 * ng, self.batch) + shape[1:]]
            if self.ndim == 2:
                padded.append((shape[1] + 2 * ng, self.batch, shape[0], 4))
            self._plan = build_stage_plan(
                self.spec, shape, self.batch, self._fills, self._declined, self.spacing,
                [self._sweep_plan(padded_shape) for padded_shape in padded],
            )
        return self._plan

    # -- primitive scratch and dt ----------------------------------------

    def primitive_into(self, u: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Convert ``u`` to primitive variables in the engine's buffer.
        With ``reuse=True`` a conversion freshly produced by
        :meth:`compute_dt` is consumed instead of recomputed — one
        conversion per RK stage, not two, as the counter verifies."""
        target = self.workspace.array("engine.primitive", self.grid_shape)
        fresh, self._fresh_primitive = self._fresh_primitive, False
        if reuse and fresh:
            return target
        started = perf_counter()
        state.primitive_from_conservative(
            u, self.config.gamma, out=target, work=self.workspace
        )
        self.seconds["convert"] += perf_counter() - started
        self.primitive_conversions += 1
        return target

    def validate(self, primitive: np.ndarray) -> None:
        """Raise an inadmissible stack's member-local :class:`PhysicsError`."""
        started = perf_counter()
        state.validate_members(primitive, self._where, work=self.workspace)
        self.seconds["convert"] += perf_counter() - started

    def compute_dt(self, u: np.ndarray) -> np.ndarray:
        """Per-member CFL steps as a ``(B,)`` vector (member clocks).

        The primitive conversion and the GetDT eigenvalue pass run
        fused — one dt program, compiled or interpreted — strip of
        members by strip of members, each strip reduced to its members'
        max signal speeds while still cache-resident.  ``max`` is exact
        and order-independent, so entry ``b`` is bit-for-bit the seed
        path's ``get_dt`` of member ``b`` whatever the plan; the
        conversion stays fresh for the first RK stage.  A non-finite
        member raises a member-local :class:`PhysicsError` with
        ``batch_index`` set, naming the cells a whole-grid pass over
        that member names.
        """
        cfl = self.config.cfl
        if cfl <= 0.0:
            raise ConfigurationError(f"CFL number must be positive, got {cfl}")
        ws = self.workspace
        gamma = self.config.gamma
        backend = self.backend
        target = ws.array("engine.primitive", self.grid_shape)
        maxima = ws.array("engine.dt_member_max", (self.batch,))
        for tile in self._dt_plan.tiles:
            rows = slice(tile.start, tile.stop)
            # One group per member: the compiled reduction is the
            # per-member np.max below, exactly.
            if backend is not None and backend.dt_strip(
                self, u[rows], target[rows], maxima[rows]
            ):
                continue
            started = perf_counter()
            ev = ws.array("engine.ev", target[rows].shape[:-1])
            # Non-finite members are reported below, by member: the
            # program itself must not warn about them.
            _, dt_program = kernel_programs(self.spec)
            with np.errstate(invalid="ignore", divide="ignore"):
                dt_program.run(
                    field_views(u[rows]) + [gamma, *self.spacing],
                    field_views(target[rows]) + [ev],
                    ws,
                )
            np.max(ev.reshape(tile.cells, -1), axis=1, out=maxima[rows])
            self.seconds["dt"] += perf_counter() - started
        self.tiles_processed += len(self._dt_plan.tiles)
        self.dt_fused_strips += len(self._dt_plan.tiles)
        self.primitive_conversions += 1
        self._fresh_primitive = True
        started = perf_counter()
        finite = np.isfinite(maxima)
        if not finite.all():
            index = int(np.argmin(finite))
            try:
                # Member-local diagnostic pass: always raises, naming the
                # member's own offending cells.
                max_eigenvalue(target[index], self.spacing, gamma)
            except PhysicsError as error:
                error.batch_index = index
                raise
        dt = ws.array("engine.dt_members", (self.batch,))
        np.divide(cfl, maxima, out=dt)
        self.seconds["dt"] += perf_counter() - started
        return dt

    # -- sweeps: the NumPy phase handlers ---------------------------------

    def riemann(self, padded: np.ndarray) -> np.ndarray:
        """Riemann fluxes at the interior faces of a padded strip: the
        spec's folded flux program over the strip's stencil views."""
        ng = self.ghost_cells
        flux = self.workspace.array(
            "engine.flux", (padded.shape[0] - 2 * ng + 1,) + padded.shape[1:]
        )
        flux_program, _ = kernel_programs(self.spec)
        started = perf_counter()
        flux_program.run(
            [plane for view in stencil_views(padded, ng) for plane in field_views(view)]
            + [self.config.gamma],
            field_views(flux),
            self.workspace,
        )
        self.seconds["riemann"] += perf_counter() - started
        return flux

    def _difference_into(
        self, padded_strip: np.ndarray, spacing: float, target: np.ndarray
    ) -> None:
        """One strip's ``-(F[i+1] - F[i]) / spacing`` into ``target``: the
        flux program interpreted (:meth:`riemann`) and three ufuncs."""
        flux = self.riemann(padded_strip)
        started = perf_counter()
        np.subtract(flux[1:], flux[:-1], out=target)
        np.negative(target, out=target)
        np.divide(target, spacing, out=target)
        self.seconds["difference"] += perf_counter() - started

    def _fill_ghosts(self, padded: np.ndarray, phase) -> None:
        """Fill the ghost layers of a sweep from the phase's fill records:
        ``padded[:, b]`` is one member's own padded array and its reverse
        puts the high edge at the low end, so every record is one
        :func:`~repro.euler.boundary.apply_fill` over its along-edge
        segment; a foreign record runs its condition's own ``fill``."""
        ng = self.ghost_cells
        for record in phase.fills:
            slab = padded[:, record.member]
            if record.side:
                slab = slab[::-1]
            window = slab if slab.ndim == 2 else slab[:, record.start : record.stop]
            if record.condition is not None:
                record.condition.fill(window, ng)
            else:
                apply_fill(window, ng, record.kind, record.state)

    def sweep_axis0(self, phase, primitive: np.ndarray, out: np.ndarray) -> None:
        """Axis-0 sweep phase: pad, fill edges, flux, difference — *writes*
        ``out``.

        The whole reconstruct/riemann/difference chain runs strip by
        strip: a strip owning output rows ``[start, stop)`` reads padded
        rows ``[start, stop + 2 ng)`` — its window — and produces faces
        ``[start, stop + 1)``.  Every kernel in the chain is elementwise
        per face, so each strip's values are bit-for-bit the rows a
        one-strip pass would produce (adjacent strips just recompute one
        shared face).
        """
        ng, nx = self.ghost_cells, self.member_shape[0]
        padded = self.workspace.array(
            "engine.padded_x", (nx + 2 * ng, self.batch) + self.member_shape[1:]
        )
        started = perf_counter()
        padded[ng : ng + nx] = primitive.swapaxes(0, 1)
        self._fill_ghosts(padded, phase)
        self.seconds["bc"] += perf_counter() - started
        target = out.swapaxes(0, 1)
        for tile in phase.tiles.tiles:
            self._difference_into(
                padded[tile.start : tile.stop + 2 * ng],
                phase.spacing,
                target[tile.start : tile.stop],
            )

    def sweep_axis1(self, phase, primitive: np.ndarray, out: np.ndarray) -> None:
        """Axis-1 sweep phase — *accumulates* into ``out``.

        The padded array is in sweep layout (axis 1 of the grid along its
        axis 0, velocity fields swapped, see :meth:`orient_into`); a strip
        of oriented rows ``[start, stop)`` is added back into the
        global-layout ``out`` *columns* ``[..., start:stop, :]`` with the
        swap undone, without materialising the un-oriented copy the seed
        path makes.
        """
        ng, (nx, ny) = self.ghost_cells, self.member_shape[:2]
        ws = self.workspace
        padded = ws.array("engine.padded_y", (ny + 2 * ng, self.batch, nx, 4))
        started = perf_counter()
        self.orient_into(primitive, padded[ng : ng + ny])
        self._fill_ghosts(padded, phase)
        self.seconds["bc"] += perf_counter() - started
        for tile in phase.tiles.tiles:
            contribution = ws.array(
                "engine.contribution_y", (tile.cells,) + padded.shape[1:]
            )
            self._difference_into(
                padded[tile.start : tile.stop + 2 * ng], phase.spacing, contribution
            )
            started = perf_counter()
            # (rows, B, nx, 4) viewed as (B, nx, rows, 4), like ``out``
            transposed = contribution.transpose(1, 2, 0, 3)
            columns = out[..., tile.start : tile.stop, :]
            for field_out, field_src in _SWAP_FIELDS:
                np.add(
                    columns[..., field_out],
                    transposed[..., field_src],
                    out=columns[..., field_out],
                )
            self.seconds["difference"] += perf_counter() - started

    @staticmethod
    def orient_into(window: np.ndarray, target: np.ndarray) -> None:
        """``target[j, b, i, f] = window[b, i, j, swap(f)]``: a ``(B, nx,
        ny, 4)`` window in the y-sweep layout ``(ny, B, nx, 4)``."""
        transposed = window.transpose(2, 0, 1, 3)
        for field_out, field_src in _SWAP_FIELDS:
            np.copyto(target[..., field_out], transposed[..., field_src])

    def combine(self, phase, kind: str, u, v, k, dts, out) -> None:
        """The stage's Runge-Kutta combine: the combine IR of ``kind``
        interpreted strip by strip (elementwise, so the cut is free and
        bounds the program's scratch), each member on its own ``dt``."""
        program = numpy_program("combine", kind)
        column = self.dt_column(dts)
        for tile in phase.tiles.tiles:
            rows = (slice(None), slice(tile.start, tile.stop))
            program.run(
                [u[rows], v[rows], k[rows], column], [out[rows]], self.workspace
            )

    # -- driver interface -------------------------------------------------

    def stage(self, v, u, k, out=None, dts=None, kind=None, reuse=False) -> None:
        """One Runge-Kutta stage of the plan: ``k = L(v)`` and, with a
        combine ``kind`` (:data:`repro.euler.rk.COMBINES`), the stage
        target ``out = combine(u, v, k, dts)``.

        The compiled stage runs it in one crossing and returns the
        primitive state's admissibility flags; the flags only detect —
        the error raised is :func:`~repro.euler.state.validate_members`'
        on the primitive buffer, the one the NumPy interpreter raises.
        """
        plan = self.stage_plan()
        self.rhs_evaluations += 1
        self.tiles_processed += plan.sweep_strips
        backend = self.backend
        if backend is not None:
            convert = not (reuse and self._fresh_primitive)
            flags = backend.stage(
                self, plan, v, u, k, out, dts, convert,
                rk.COMBINES.index(kind) + 1 if kind else 0,
            )
            if flags is not None:
                self._fresh_primitive = False
                self.primitive_conversions += convert
                if flags:
                    state.validate_members(
                        self.workspace.array("engine.primitive", self.grid_shape),
                        self._where,
                    )
                    raise PhysicsError(  # the sweeps did not run: never carry on
                        f"{self._where}: compiled stage flagged ({flags}) a state"
                        " that validation accepts"
                    )
                return
        elif self.workers >= 2 and plan.team_strips:
            # A team was asked for, but threads apply only to the
            # compiled stage: the strips run serially, and say so.
            self.serialized[NO_KERNEL] = (
                self.serialized.get(NO_KERNEL, 0) + plan.team_strips
            )
        run_stage(plan, self, v, u, k, out, dts, kind, reuse)

    def rhs(
        self, u: np.ndarray, out: np.ndarray, use_cached_primitive: bool = False
    ) -> np.ndarray:
        """Spatial operator L(U) over the stack, into ``out``: a bare stage."""
        self.stage(u, u, out, reuse=use_cached_primitive)
        return out

    def integrate(self, u: np.ndarray, dt) -> np.ndarray:
        """Advance ``u`` in place by one Runge-Kutta step: one
        :meth:`stage` per entry of the order's schedule.

        ``dt`` is a scalar or a ``(B,)`` vector (any shape of B
        elements).  Every stage asks for the cached primitive
        conversion, but only the first can find :meth:`compute_dt`'s
        still fresh.  Time not booked by a phase is booked as the
        Runge-Kutta combine ("rk").
        """
        ws = self.workspace
        dts = ws.array("engine.stage_dt", (self.batch,))
        dts[...] = np.asarray(dt, dtype=float).reshape(-1)
        k = ws.like("rk.k", u)

        def stage(kind: str, v: np.ndarray, out: np.ndarray) -> None:
            self.stage(v, u, k, out, dts, kind, reuse=True)

        booked = sum(self.seconds.values())
        started = perf_counter()
        rk.run_schedule(self.config.rk_order, u, ws, stage)
        elapsed = perf_counter() - started
        self.seconds["rk"] += elapsed - (sum(self.seconds.values()) - booked)
        self.steps_taken += 1
        self._fresh_primitive = False
        return u

    def step(self, u: np.ndarray, dt=None):
        """One lockstep time step in place on the stack: every member
        advances by its *own* dt — the ``(B,)`` vector given, or
        :meth:`compute_dt`'s; returns the dts used.  A failing member
        leaves ``u`` untouched (only the last stage's combine writes it)."""
        if dt is None:
            dt = self.compute_dt(u)
        self.integrate(u, dt)
        return dt

    def dt_column(self, dt) -> np.ndarray:
        """Reshape a ``(B,)`` dt vector to broadcast over member states,
        so a combine scales each member's stage by its own clock —
        identical rounding to the seed path's scalar multiply."""
        return np.asarray(dt, dtype=float).reshape(
            (self.batch,) + (1,) * len(self.member_shape)
        )

    def placeholder_member(self) -> np.ndarray:
        """A benign uniform conservative member state (rho=1, v=0, p=1).
        Retired and finished members are parked on it so the lockstep
        step stays valid for them (elementwise kernels never mix
        members); their real states live in the driver's frozen store."""
        primitive = np.zeros(self.member_shape)
        primitive[..., 0] = 1.0
        primitive[..., -1] = 1.0
        return state.conservative_from_primitive(primitive, self.config.gamma)
