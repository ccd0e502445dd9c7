"""The ``KernelBackend`` the StepEngine dispatches through.

A :class:`JitBackend` owns the compiled translation unit of one engine's
specialization and serves:

* :meth:`step` — the stages of one Runge-Kutta step from the engine's
  :class:`~repro.jit.plan.StagePlan`, each one conversion with
  admissibility flags, both sweeps strip by strip (window, ghost fill,
  flux, difference, write or accumulate) and the RK combine, inside C.
  The plan is marshalled once per engine into the ``repro_stage`` struct
  the generated entry points read (:data:`repro.jit.codegen.
  STAGE_FIELDS`), and the schedule into an array of them — one per
  stage, pointing at that stage's buffers — once per state-buffer set;
  a serial step is then **one** ctypes crossing of ``repro_jit_step``
  (a bare ``L(U)`` is a step of one stage);
* :meth:`dt_strip` — the fused ``convert -> eigenvalue`` GetDT pass over
  one strip of members, its arguments bound the same way;
* :meth:`sweep` — the flux-difference kernel over one padded strip, the
  unit the kernel-level differential tests hold against NumPy.

:meth:`step` returns ``None`` and :meth:`dt_strip` ``False`` when they
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
each stage of a step is one round of the process's worker team
(:func:`repro.par.pool.shared_team`) *per phase*: every worker calls
``repro_jit_stage`` for its share of the phase's strips — a pure C
function called through :mod:`ctypes`, which releases the GIL, so strips
genuinely run in parallel — and the end of the round is the phase
barrier.  The licence is the dependence prover's
(:func:`repro.jit.plan.prove_stage`): every phase's strips independent,
every cross-phase dependence between different strips behind a barrier.
A failing or unavailable proof serialises the step to the single
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
from repro.euler.rk import COMBINES
from repro.jit import codegen
from repro.jit import compile as jit_compile
from repro.jit.kernels import kernel_source, spec_from_config
from repro.jit.plan import StagePlan, prove_stage
from repro.par.pool import shared_team

__all__ = ["JitBackend"]


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


class _Binding:
    """The addresses of a list of arrays (None: address 0), holding every
    array so no address it hands to C can dangle.  :meth:`update` looks
    an address up only for an array that is not the one held — by
    identity, which a solver's fresh ``u[None]`` view per step is not —
    and says whether any address changed, i.e. whether what was
    marshalled from them must be rewritten."""

    def __init__(self, size: int):
        self.arrays = [None] * size
        self.addresses = [-1] * size  # nothing bound yet

    def update(self, arrays) -> bool:
        moved = False
        for index, array in enumerate(arrays):
            if array is self.arrays[index] and self.addresses[index] >= 0:
                continue
            self.arrays[index] = array
            for earlier in range(index):  # an array listed twice: one look-up
                if arrays[earlier] is array:
                    address = self.addresses[earlier]
                    break
            else:
                address = 0 if array is None else _ptr(array)
            if address != self.addresses[index]:
                self.addresses[index] = address
                moved = True
        return moved


def _state_problem(engine, arrays) -> Optional[str]:
    """Why the compiled kernels cannot take ``arrays`` as state buffers of
    ``engine`` (None if they can)."""
    for array in arrays:
        if array.dtype != np.float64:
            return "non-float64 state"
        if not array.flags.c_contiguous:
            return "non-contiguous state"
        if array.shape != engine.grid_shape:
            return "unexpected state shape"
    return None


class JitBackend:
    """Compiled-kernel server for one ``(config, ndim)`` engine."""

    name = "jit"

    def __init__(self, config, ndim: int, threads: int, barrier: str):
        self.config = config
        self.ndim = int(ndim)
        self.spec = spec_from_config(config, ndim)
        #: Crossings of the step program, of the stage program (a team's
        #: rounds: one per worker and phase), strips served by the
        #: compiled sweep, dt strips.
        self.step_calls = 0
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
        #: proof or None, what the struct points into); per schedule (its
        #: combine kinds) the stage array and its buffers' binding; the dt
        #: pass's arguments per strip and their binding; per-worker phase
        #: seconds and the stage a step stopped at, with their addresses.
        self._bound = None
        self._steps: Dict[tuple, tuple] = {}
        self._dt_args: Dict[int, tuple] = {}
        self._dt_binding = _Binding(1)
        self._seconds = np.zeros((threads, 4))
        self._flagged = ctypes.c_long(0)
        self._out = (_ptr(self._seconds), ctypes.addressof(self._flagged))

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
        self._steps.clear()  # copies of the previous plan's struct
        return stage, proof

    def _stage_array(self, stage, stages, u, k, dts):
        """The schedule ``stages`` as an array of ``repro_stage`` — copies
        of the plan's struct, each with its stage's combine and buffers —
        made once per schedule; the buffer fields are rewritten only when
        one of ``u``, ``k``, ``dts`` or a stage's source or target has
        moved (see :class:`_Binding`)."""
        kinds = tuple(kind for kind, _, _ in stages)
        bound = self._steps.get(kinds)
        if bound is None:
            structs = (_Stage * len(stages))()
            for index, kind in enumerate(kinds):
                structs[index] = stage
                structs[index].convert = 1
                structs[index].combine = COMBINES.index(kind) + 1 if kind else 0
            bound = self._steps[kinds] = (structs, _Binding(3 + 2 * len(stages)))
        structs, binding = bound
        if binding.update([u, k, dts] + [array for _, v, out in stages for array in (v, out)]):
            addresses = binding.addresses
            for index, struct in enumerate(structs):
                struct.u, struct.k, struct.dt = addresses[:3]
                struct.v, struct.out = addresses[3 + 2 * index : 5 + 2 * index]
        return structs

    def _serialize(self, reason: str, strips: int) -> None:
        self.serialized[reason] = self.serialized.get(reason, 0) + strips

    def step(self, engine, plan: StagePlan, u, k, stages, dts, fresh: bool):
        """The ``stages`` of one RK step in C: per ``(kind, v, out)``,
        ``k = L(v)`` and, with a combine ``kind`` of
        :data:`repro.euler.rk.COMBINES` (None: no combine, no ``out``),
        ``out = combine(u, v, k, dts)``.  With ``fresh`` the primitive
        buffer already holds the first stage's conversion (the dt pass
        left it), so that stage only flags it.

        Returns ``(flags, ran)``: the admissibility flags of the stage
        that raised any (0 if none did; nothing past that stage's
        conversion ran) and the stages that ran, that one included — or
        None when the NumPy interpreter has to run the plan, counted by
        reason.  Serially the whole step is one crossing; with a licensed
        team each stage is one round per phase.
        """
        kernel = self._ensure_kernel()
        if kernel is None:
            reason = self._compile_failure
        else:
            arrays = {
                id(array): array
                for _, v, out in stages
                for array in (v, out)
                if array is not None
            }
            reason = plan.declined or _state_problem(engine, [u, k, *arrays.values()])
        if reason is not None:
            self._fallback(reason, plan.sweep_strips * len(stages))
            if self.threads >= 2 and plan.team_strips:
                self._serialize(
                    f"no compiled kernel ({reason})", plan.team_strips * len(stages)
                )
            return None
        stage, proof = self._bind(engine, plan)
        structs = self._stage_array(stage, stages, u, k, dts)
        structs[0].convert = int(not fresh)
        booked = engine.seconds
        if proof is not None and proof.licensed:
            flags, ran = 0, 0
            for struct in structs:
                ran += 1
                flags = self._team_stage(
                    kernel, ctypes.addressof(struct), plan, struct.combine, booked
                )
                if flags:
                    break
        else:
            if proof is not None:
                # Counted per stage, by the strips the team would have shared.
                self._serialize(
                    proof.reason or "DEP004: proof unavailable",
                    plan.team_strips * len(stages),
                )
            seconds = self._seconds
            seconds[0] = 0.0
            flags = kernel.step(ctypes.addressof(structs), len(structs), *self._out)
            ran = self._flagged.value + 1 if flags else len(structs)
            for phase, spent in zip(("convert", "bc", "jit_sweep", "rk"), seconds[0].tolist()):
                booked[phase] += spent
            self.step_calls += 1
        self.sweep_calls += plan.sweep_strips * (ran - bool(flags))
        return flags, ran

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

    def dt_strip(self, engine, u: np.ndarray, tile) -> bool:
        """Fused convert+GetDT over the members ``[tile.start, tile.stop)``
        of the state ``u``; False = use NumPy.

        Writes their primitive conversion into the engine's primitive
        buffer (kept fresh for RK stage 1, exactly like the NumPy path)
        and one max per member into its ``engine.dt_member_max``.  A
        strip's arguments are made once per state buffer, bound like a
        step's (:class:`_Binding`).
        """
        kernel = self._ensure_kernel()
        if kernel is None:
            return self._fallback(self._compile_failure)
        reason = _state_problem(engine, (u,))
        if reason is not None:
            return self._fallback(reason)
        if self._dt_binding.update((u,)):
            self._dt_args.clear()
        args = self._dt_args.get(tile.start)
        if args is None:
            args = self._dt_args[tile.start] = self._dt_strip_args(engine, tile)
        started = perf_counter()
        kernel.dt(*args)
        engine.seconds["jit_dt"] += perf_counter() - started
        self.dt_calls += 1
        return True

    def _dt_strip_args(self, engine, tile) -> tuple:
        """``repro_jit_dt``'s arguments for one strip of members: one group
        per member, so the compiled reduction is the per-member max."""
        member = int(np.prod(engine.member_shape))  # doubles per member
        prim = engine.workspace.array("engine.primitive", engine.grid_shape)
        maxima = engine.workspace.array("engine.dt_member_max", (engine.batch,))
        offset = tile.start * member * prim.itemsize
        return (
            self._dt_binding.addresses[0] + offset,
            _ptr(prim) + offset,
            _ptr(maxima) + tile.start * maxima.itemsize,
            tile.cells,
            member // self.spec.nfields,
            float(self.config.gamma),
            *(float(s) for s in engine.spacing),
        )

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
            "step_calls": self.step_calls,
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
