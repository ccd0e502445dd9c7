"""The ``KernelBackend`` the StepEngine dispatches through.

A :class:`JitBackend` owns the compiled translation unit of one engine's
specialization and serves:

* :meth:`stage` — one whole Runge-Kutta stage from the engine's
  :class:`~repro.jit.plan.StagePlan`: conversion with admissibility
  flags, both sweeps strip by strip (window, ghost fill, flux,
  difference, write or accumulate) and the RK combine, inside C.  The
  plan is marshalled once per engine into the ``repro_stage`` struct the
  generated ``repro_jit_stage`` reads (:data:`repro.jit.codegen.
  STAGE_FIELDS`); a stage is then **one** ctypes crossing;
* :meth:`dt_strip` — the fused ``convert -> eigenvalue`` GetDT pass over
  one strip of members;
* :meth:`sweep` — the flux-difference kernel over one padded strip, the
  unit the kernel-level differential tests hold against NumPy.

:meth:`stage` returns ``None`` and :meth:`dt_strip` ``False`` when they
cannot serve the call — no compiler, a boundary condition without a
fill record, unexpected dtype/layout — and the engine runs the same plan
through :func:`repro.jit.numpy_eval.run_stage`.  Every fallback is
counted by reason (:attr:`fallbacks`), so "silently slower" is at least
never "silently unexplained".  An IR verification failure is *not* a
fallback: it means an emitter produced malformed IR (a bug), and the
:class:`~repro.errors.AnalysisError` propagates with the specialization
named.

The IR pair and its C text are acquired once per spec per process
(:func:`repro.jit.kernels.kernel_irs`/:func:`~repro.jit.kernels.
kernel_source`); compilation happens lazily on the first served call
and is cached across engines and processes (see
:mod:`repro.jit.compile`).  The seconds C reports per phase are booked
to the engine's ``convert``/``bc``/``jit_sweep`` counters, the dt pass
to ``jit_dt``.

**Phases on the team.**  With two or more workers (``workers=`` of a
:class:`~repro.par.solver.ParallelSolver2D`, else ``REPRO_JIT_THREADS``)
a stage is one round of the process's worker team
(:func:`repro.par.pool.shared_team`) *per phase*: every worker calls the
same entry point for its share of the phase's strips — a pure C function
called through :mod:`ctypes`, which releases the GIL, so strips
genuinely run in parallel — and the end of the round is the phase
barrier.  The licence is the dependence prover's
(:func:`repro.jit.plan.prove_stage`): every phase's strips independent,
every cross-phase dependence between different strips behind a barrier.
A failing or unavailable proof serialises the stage to the single
crossing with a counted reason (:attr:`serialized`) — never silently.
Strips write proven-disjoint rows from strip-private windows, one
window set per *worker*, so the result is bit-for-bit serial
(``tests/euler/test_jit_threads.py``).
"""

from __future__ import annotations

import ctypes
from time import perf_counter
from typing import Dict, Optional

import numpy as np

from repro.euler.boundary import FILL_KINDS
from repro.jit import codegen
from repro.jit import compile as jit_compile
from repro.jit.kernels import kernel_source, spec_from_config
from repro.jit.plan import StagePlan, prove_stage
from repro.par.pool import shared_team

__all__ = ["JitBackend"]

_ALL_PHASES = sum(codegen.STAGE_PHASES.values())


class _Stage(ctypes.Structure):
    """``repro_stage`` as :mod:`ctypes` sees it (pointers as addresses)."""

    _fields_ = [
        (name, {"long": ctypes.c_long, "double": ctypes.c_double}.get(ctype, ctypes.c_void_p))
        for name, ctype in codegen.STAGE_FIELDS
    ]


def _ptr(array: np.ndarray) -> int:
    """The buffer's address (the kernels take ``void*``).  Not
    ``ctypes.data_as``: its ``cast`` leaves a reference cycle behind on
    every call, i.e. collector work per strip."""
    return array.ctypes.data


class JitBackend:
    """Compiled-kernel server for one ``(config, ndim)`` engine."""

    name = "jit"

    def __init__(self, config, ndim: int, threads: int, barrier: str):
        self.config = config
        self.ndim = int(ndim)
        self.spec = spec_from_config(config, ndim)
        #: Stage crossings, strips served by the compiled sweep, dt strips.
        self.stage_calls = 0
        self.sweep_calls = 0
        self.dt_calls = 0
        #: Fallback reason -> count of strips the NumPy path served.
        self.fallbacks: Dict[str, int] = {}
        #: Workers and barrier kind of the team a stage's phases run on,
        #: seconds its rounds waited in barriers, sweep strips it served.
        self.threads = threads
        self.barrier = barrier
        self.barrier_wait_seconds = 0.0
        self.strips_threaded = 0
        #: Serialization reason -> count of strips that ran serially: the
        #: dependence proof failed or was unavailable.
        self.serialized: Dict[str, int] = {}
        self._kernel: Optional[jit_compile.CompiledKernel] = None
        self._compile_failure: Optional[str] = None
        #: The engine's plan as marshalled for C: (plan, struct, its team
        #: proof or None, what the struct points into), and per-worker
        #: phase seconds.
        self._bound = None
        self._seconds = np.zeros((threads, 4))

    # -- kernel acquisition ---------------------------------------------

    def _fallback(self, reason: str, strips: int = 1) -> bool:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + strips
        return False

    def _ensure_kernel(self) -> Optional[jit_compile.CompiledKernel]:
        if self._kernel is not None:
            return self._kernel
        if self._compile_failure is not None:
            return None
        # Emitter bugs surface here, by specialization — see module doc.
        source = kernel_source(self.spec)
        try:
            self._kernel = jit_compile.load_kernel(source, self.spec.ndim)
        except jit_compile.CompileError as error:
            self._compile_failure = f"compile failed: {error}"
            return None
        return self._kernel

    def ready(self) -> bool:
        """Whether the compiled kernel will serve, building it on the
        first ask; False once compilation has failed (the engine then
        sizes its strips for the NumPy program that runs instead)."""
        return self._ensure_kernel() is not None

    # -- the stage --------------------------------------------------------

    def _bind(self, engine, plan: StagePlan):
        """``plan`` as the ``repro_stage`` struct and its team proof (None
        with nothing to overlap), made once per engine.  Scratch is one
        window set per *worker* — the largest strip window of either
        sweep plus two flux rows — whatever the strip count."""
        if self._bound is not None and self._bound[0] is plan:
            return self._bound[1:3]
        nfields = self.spec.nfields
        ghost = self.spec.ghost_cells
        nx, ny = (plan.member_shape[:-1] + (1,))[:2]
        stage = _Stage(
            members=plan.batch, nx=nx, ny=ny, ng=ghost,
            gamma=float(self.config.gamma),
        )
        keep = []
        states = []  # of the constant records, in table order
        window = flux = 0
        for phase in plan.sweeps:
            axis = phase.axis
            strips = np.array(phase.layout, dtype=ctypes.c_long).reshape(-1)
            fills = np.zeros((len(phase.fills), codegen.FILL_RECORD_LONGS), dtype=ctypes.c_long)
            for row, record in zip(fills, phase.fills):
                row[:5] = (
                    record.member, record.side, record.start, record.stop,
                    FILL_KINDS.index(record.kind),
                )
                if record.state is not None:
                    row[5] = len(states)
                    states.append(record.state)
            keep += [strips, fills]
            setattr(stage, f"nstrips{axis}", len(phase.tiles))
            setattr(stage, f"strips{axis}", _ptr(strips))
            setattr(stage, f"nfills{axis}", len(phase.fills))
            setattr(stage, f"fills{axis}", _ptr(fills))
            setattr(stage, ("dx", "dy")[axis], phase.spacing)
            cross = plan.batch * (ny if axis == 0 else nx) * nfields
            window = max(window, (phase.tiles.strip_rows + 2 * ghost) * cross)
            flux = max(flux, 2 * cross)
        fill_states = np.array(states or [(0.0,) * nfields], dtype=float)
        scratch = engine.workspace.array("jit.stage_scratch", (self.threads, window + flux))
        stage.fill_states = _ptr(fill_states)
        stage.prim = _ptr(engine.workspace.array("engine.primitive", engine.grid_shape))
        stage.scratch = _ptr(scratch)
        stage.scratch_stride = window + flux
        stage.window_doubles = window
        proof = None
        if self.threads >= 2 and plan.team_strips:
            proof = prove_stage(self.spec, tuple(phase.layout for phase in plan.phases))
        self._bound = (plan, stage, proof, keep + [fill_states])
        return stage, proof

    def _serialize(self, reason: str, strips: int) -> None:
        self.serialized[reason] = self.serialized.get(reason, 0) + strips

    def stage(self, engine, plan: StagePlan, v, u, k, out, dts, convert: bool, combine: int):
        """One RK stage in C: ``k = L(v)`` and, with ``combine`` (a
        position in :data:`repro.euler.rk.COMBINES` + 1), the stage's
        target ``out``.  Returns the admissibility flags of the primitive
        state (nonzero: nothing past the conversion ran), or None when
        the NumPy interpreter has to run the plan, counted by reason.
        """
        kernel = self._ensure_kernel()
        arrays = (v, u, k, out) if combine else (v, k)
        reason = None
        if kernel is None:
            reason = self._compile_failure
        elif plan.declined is not None:
            reason = plan.declined
        elif any(array.dtype != np.float64 for array in arrays):
            reason = "non-float64 state"
        elif not all(array.flags.c_contiguous for array in arrays):
            reason = "non-contiguous state"
        elif any(array.shape != engine.grid_shape for array in arrays):
            reason = "unexpected state shape"
        if reason is not None:
            self._fallback(reason, plan.sweep_strips)
            if self.threads >= 2 and plan.team_strips:
                self._serialize(f"no compiled kernel ({reason})", plan.team_strips)
            return None
        stage, proof = self._bind(engine, plan)
        stage.v, stage.u, stage.k = _ptr(v), _ptr(u), _ptr(k)
        stage.out, stage.dt = (_ptr(out), _ptr(dts)) if combine else (0, 0)
        stage.convert, stage.combine = int(convert), combine
        seconds = self._seconds
        seconds[...] = 0.0
        booked = engine.seconds
        if proof is not None and not proof.licensed:
            # Counted per stage, by the strips the team would have shared.
            self._serialize(proof.reason or "DEP004: proof unavailable", plan.team_strips)
        if proof is not None and proof.licensed:
            flags = self._team_stage(kernel, ctypes.addressof(stage), plan, combine, booked)
        else:
            flags = kernel.stage(ctypes.addressof(stage), _ALL_PHASES, 0, 1, _ptr(seconds))
            for phase, spent in zip(("convert", "bc", "jit_sweep", "rk"), seconds[0].tolist()):
                booked[phase] += spent
            self.stage_calls += 1
        if not flags:
            self.sweep_calls += plan.sweep_strips
        return flags

    # -- phases on the team -----------------------------------------------

    def _round(self, kernel, address: int, phase: int) -> int:
        """One team round of one phase: the caller is worker 0, worker
        ``w`` takes the phase's strips ``w, w + workers, ...``; returns
        the workers' flags, or-ed."""
        found = [0] * self.threads
        seconds = self._seconds

        def share(worker: int) -> None:
            found[worker] = kernel.stage(
                address, phase, worker, self.threads, _ptr(seconds[worker])
            )

        team = shared_team(self.threads, self.barrier)
        waited = team.barrier_wait_seconds
        team.run(share)
        self.barrier_wait_seconds += team.barrier_wait_seconds - waited
        self.stage_calls += self.threads
        flags = 0
        for worker_flags in found:
            flags |= worker_flags
        return flags

    def sweep_tiled(self, kernel, address: int, phase, booked) -> None:
        """One sweep phase as a team round; its wall time is split
        between ``bc`` and ``jit_sweep`` as the workers' window-fill and
        sweep seconds are."""
        seconds = self._seconds
        before = seconds.sum(axis=0)
        started = perf_counter()
        self._round(kernel, address, codegen.STAGE_PHASES[phase.name])
        wall = perf_counter() - started
        fill, sweep = (seconds.sum(axis=0) - before)[1:3].tolist()
        share = fill / (fill + sweep) if fill + sweep > 0.0 else 0.0
        booked["bc"] += wall * share
        booked["jit_sweep"] += wall * (1.0 - share)
        self.strips_threaded += len(phase.tiles)

    def _team_stage(self, kernel, address: int, plan: StagePlan, combine: int, booked) -> int:
        """A licensed stage: one round per phase, the round's end being
        the barrier the proof demanded."""
        for phase in plan.phases:
            if phase.kind == "combine" and not combine:
                continue
            if phase.kind == "sweep":
                self.sweep_tiled(kernel, address, phase, booked)
                continue
            started = perf_counter()
            flags = self._round(kernel, address, codegen.STAGE_PHASES[phase.name])
            booked["convert" if phase.kind == "convert" else "rk"] += perf_counter() - started
            if flags:
                return flags
        return 0

    # -- strip operations -----------------------------------------------

    def sweep(self, engine, padded: np.ndarray, spacing: float, out: np.ndarray) -> bool:
        """The flux-difference kernel over one padded strip into ``out``
        (both C-contiguous float64); False = not served, counted.

        ``padded`` is ``(cells + 2 ng, cross..., F)`` in sweep layout;
        ``out`` receives the ``cells`` difference rows.  The stage runs
        the same ``flux_row`` skeleton on its strip windows.
        """
        kernel = self._ensure_kernel()
        if kernel is None:
            return self._fallback(self._compile_failure)
        nfields = self.spec.nfields
        cells = padded.shape[0] - 2 * self.spec.ghost_cells
        if padded.dtype != np.float64 or out.dtype != np.float64:
            return self._fallback("non-float64 state")
        if not (padded.flags.c_contiguous and out.flags.c_contiguous):
            return self._fallback("non-contiguous strip")
        if (
            padded.shape[-1] != nfields
            or cells < 1
            or out.shape != (cells,) + padded.shape[1:]
        ):
            return self._fallback("unexpected strip geometry")
        cross = padded.size // (padded.shape[0] * nfields)
        started = perf_counter()
        scratch = engine.workspace.array("jit.flux_rows", (2, cross, nfields))
        kernel.sweep(
            _ptr(padded),
            _ptr(out),
            _ptr(scratch),
            cells,
            cross,
            float(self.config.gamma),
            float(spacing),
        )
        engine.seconds["jit_sweep"] += perf_counter() - started
        self.sweep_calls += 1
        return True

    def dt_strip(
        self,
        engine,
        u_strip: np.ndarray,
        prim_strip: np.ndarray,
        maxima_out: np.ndarray,
    ) -> bool:
        """Fused convert+GetDT over one strip; False = use NumPy.

        Writes the primitive conversion into ``prim_strip`` (kept fresh
        for RK stage 1, exactly like the NumPy path) and one max per
        group into ``maxima_out`` — one group per member of the strip.
        """
        kernel = self._ensure_kernel()
        if kernel is None:
            return self._fallback(self._compile_failure)
        nfields = self.spec.nfields
        if (
            u_strip.dtype != np.float64
            or prim_strip.dtype != np.float64
            or maxima_out.dtype != np.float64
        ):
            return self._fallback("non-float64 state")
        if not (
            u_strip.flags.c_contiguous
            and prim_strip.flags.c_contiguous
            and maxima_out.flags.c_contiguous
        ):
            return self._fallback("non-contiguous dt strip")
        groups = maxima_out.shape[0] if maxima_out.ndim == 1 else 0
        cells = u_strip.size // nfields
        if (
            u_strip.shape != prim_strip.shape
            or u_strip.shape[-1] != nfields
            or groups < 1
            or cells % groups != 0
        ):
            return self._fallback("unexpected strip geometry")

        started = perf_counter()
        kernel.dt(
            _ptr(u_strip),
            _ptr(prim_strip),
            _ptr(maxima_out),
            groups,
            cells // groups,
            float(self.config.gamma),
            *(float(s) for s in engine.spacing),
        )
        engine.seconds["jit_dt"] += perf_counter() - started
        self.dt_calls += 1
        return True

    # -- observability ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counter snapshot (engine counters / step trace)."""
        kernel = self._kernel
        snapshot: Dict[str, object] = {
            "spec": self.spec.label(),
            "compiled": kernel is not None,
            # What the compiler reported for this kernel's two point
            # loops: bytes per vector, 0 = scalar, None = not reported.
            "vector": None if kernel is None else dict(kernel.vector),
            "stage_calls": self.stage_calls,
            "sweep_calls": self.sweep_calls,
            "dt_calls": self.dt_calls,
            "fallbacks": dict(self.fallbacks),
            "threads": self.threads,
            "strips_threaded": self.strips_threaded,
            "serialized": dict(self.serialized),
        }
        snapshot.update(jit_compile.compile_stats())
        return snapshot
