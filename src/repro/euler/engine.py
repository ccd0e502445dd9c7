"""StepEngine — the one preallocated stepping core under all the solvers.

The paper attributes much of SaC's performance to compiler-managed
memory reuse; the golden NumPy solver originally allocated ~10 fresh
arrays per Runge-Kutta stage.  :class:`StepEngine` owns, per (grid
shape, :class:`~repro.euler.solver.SolverConfig`), a
:class:`~repro.euler.workspace.Workspace` of preallocated buffers and
advances the conservative state by running *one program per RK stage* —
its :class:`~repro.jit.plan.StagePlan`: conversion, both strip sweeps
and the Runge-Kutta combine, whose pointwise bodies are IR (the spec's
folded ``reconstruct -> riemann`` flux program, the conversion, the flux
differences, the combines, assembled from the ``emit_*`` definitions
beside the allocating reference functions) and whose ghost fill is the
boundary conditions' fill records.  Two executors walk that plan strip
by strip, every sweep strip on a strip-private window of its rows plus
``ghost_cells`` either side — no engine holds a whole-grid sweep
buffer: the compiled ``repro_jit_step``
(:class:`~repro.jit.backend.JitBackend`, one crossing per step) and
:func:`repro.jit.numpy_eval.run_stage`, which fills the windows itself
and calls the strip entries here (:meth:`StepEngine.primitive_into`,
:meth:`StepEngine.sweep_axis0`).  Either performs the identical sequence
of rounded floating-point operations as the allocating seed path:
results are bit-for-bit equal, only the allocator traffic is gone.

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
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, PhysicsError
from repro.euler import rk, state, tiling
from repro.euler.reconstruction import stencil_views
from repro.euler.timestep import max_eigenvalue
from repro.euler.workspace import Workspace
import repro.jit as repro_jit
from repro.jit.numpy_eval import field_views, kernel_programs, numpy_program, run_stage

__all__ = ["StepEngine", "PHASES"]

#: Phase keys of the engine's wall-clock counters.
PHASES = ("convert", "bc", "riemann", "difference", "rk", "dt")

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

    **Layouts.**  A sweep window is ``(rows + 2 ng, B, cross...,
    fields)`` — the sweep axis out front, members next.  A member's slab
    ``window[:, b]`` therefore has exactly the one-member padded layout,
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

    def stage_plan(self):
        """The engine's :class:`~repro.jit.plan.StagePlan`, built on first
        use: the phases of one RK stage over its members' boundary fill
        records and one strip plan per sweep axis, sized for the executor
        that will run it."""
        if self._plan is None:
            from repro.jit.plan import build_stage_plan

            shape, ng, backend = self.member_shape, self.ghost_cells, self.backend
            # The compiled sweep holds no per-ufunc intermediates, so its
            # strips grow to fill the same budget.  A backend that will
            # serve no stage (kernel failed to build, plan declined) must
            # not size them: the NumPy program's row size plans what runs.
            compiled = backend is not None and self._declined is None and backend.ready()
            plans = []
            for axis in range(self.ndim):
                cross = self.batch * int(np.prod(shape[:-1])) // shape[axis]
                if compiled:
                    row_bytes = tiling.jit_sweep_row_bytes(cross, shape[-1], ng)
                else:
                    flux_program, _ = kernel_programs(self.spec)
                    row_bytes = tiling.sweep_row_bytes(cross, shape[-1], flux_program, ng)
                plans.append(tiling.plan_tiles(shape[axis], row_bytes, self._strip_budget))
            self._plan = build_stage_plan(
                self.spec, shape, self.batch, self._fills, self._declined, self.spacing, plans
            )
        return self._plan

    # -- primitive scratch and dt ----------------------------------------

    def primitive_into(self, u: np.ndarray, target: np.ndarray) -> None:
        """One strip of the convert phase: the conversion IR from rows
        ``u`` of a state into ``target``, their rows of the primitive
        buffer."""
        started = perf_counter()
        numpy_program("convert", "primitive", u.shape[-1]).run(
            field_views(u) + [self.config.gamma], field_views(target), self.workspace
        )
        self.seconds["convert"] += perf_counter() - started

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
            # One group per member: the compiled reduction is the
            # per-member np.max below, exactly.
            if backend is not None and backend.dt_strip(self, u, tile):
                continue
            rows = slice(tile.start, tile.stop)
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

    # -- sweeps: the NumPy strip entry -----------------------------------

    def riemann(self, window: np.ndarray) -> np.ndarray:
        """Riemann fluxes at the interior faces of a strip window: the
        spec's folded flux program over the window's stencil views."""
        ng = self.ghost_cells
        flux = self.workspace.array(
            "engine.flux", (window.shape[0] - 2 * ng + 1,) + window.shape[1:]
        )
        flux_program, _ = kernel_programs(self.spec)
        started = perf_counter()
        flux_program.run(
            [plane for view in stencil_views(window, ng) for plane in field_views(view)]
            + [self.config.gamma],
            field_views(flux),
            self.workspace,
        )
        self.seconds["riemann"] += perf_counter() - started
        return flux

    def sweep_axis0(self, window, spacing: float, targets, kind: str = "write") -> None:
        """One sweep strip, either axis (``sweep_axis1`` is this method):
        the flux program over a filled ``window`` (:meth:`riemann`), then
        the flux difference IR of ``kind`` — ``"write"`` or
        ``"accumulate"`` — per field into ``targets``, the strip's field
        planes of ``k`` in sweep layout
        (:func:`~repro.jit.numpy_eval.sweep_planes`)."""
        flux = self.riemann(window)
        started = perf_counter()
        program = numpy_program("difference", kind)
        for target, plane in zip(targets, field_views(flux)):
            faces = [plane[1:], plane[:-1], spacing]
            program.run(
                [target] + faces if kind == "accumulate" else faces, [target], self.workspace
            )
        self.seconds["difference"] += perf_counter() - started

    sweep_axis1 = sweep_axis0

    # -- driver interface -------------------------------------------------

    def run_stages(self, u, k, stages, dts=None, reuse=False) -> None:
        """Runge-Kutta stages of the plan, in order: per ``(kind, v,
        out)`` of ``stages``, ``k = L(v)`` and, with a combine ``kind``
        (:data:`repro.euler.rk.COMBINES`; None for none), the stage
        target ``out = combine(u, v, k, dts)``.

        The compiled step runs them all in one crossing and returns the
        admissibility flags of the stage that raised any; the flags only
        detect — the error raised is
        :func:`~repro.euler.state.validate_members`' on the primitive
        buffer, the one the NumPy interpreter raises after the same
        number of stage evaluations.
        """
        plan = self.stage_plan()
        backend = self.backend
        fresh, self._fresh_primitive = reuse and self._fresh_primitive, False
        if backend is not None:
            ran = backend.step(self, plan, u, k, stages, dts, fresh)
            if ran is not None:
                flags, count = ran
                self.rhs_evaluations += count
                self.tiles_processed += count * plan.sweep_strips
                self.primitive_conversions += count - fresh
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
        for kind, v, out in stages:
            self.rhs_evaluations += 1
            self.primitive_conversions += not fresh
            self.tiles_processed += plan.sweep_strips
            if backend is None and self.workers >= 2 and plan.team_strips:
                # A team was asked for, but threads apply only to the
                # compiled stage: the strips run serially, and say so.
                self.serialized[NO_KERNEL] = (
                    self.serialized.get(NO_KERNEL, 0) + plan.team_strips
                )
            run_stage(plan, self, v, u, k, out, dts, kind, fresh)
            fresh = False

    def rhs(
        self, u: np.ndarray, out: np.ndarray, use_cached_primitive: bool = False
    ) -> np.ndarray:
        """Spatial operator L(U) over the stack, into ``out``: a step of
        one stage, with no combine."""
        self.run_stages(u, out, [(None, u, None)], reuse=use_cached_primitive)
        return out

    def integrate(self, u: np.ndarray, dt) -> np.ndarray:
        """Advance ``u`` in place by one Runge-Kutta step: the order's
        schedule of stages (:func:`repro.euler.rk.schedule_buffers`) run
        by :meth:`run_stages`.

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
        booked = sum(self.seconds.values())
        started = perf_counter()
        self.run_stages(
            u, k, rk.schedule_buffers(self.config.rk_order, u, ws), dts, reuse=True
        )
        elapsed = perf_counter() - started
        self.seconds["rk"] += elapsed - (sum(self.seconds.values()) - booked)
        self.steps_taken += 1
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
