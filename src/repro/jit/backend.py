"""The ``KernelBackend`` the StepEngine dispatches through.

A :class:`JitBackend` owns the compiled kernels for one engine's
specialization and serves two strip-level operations:

* :meth:`sweep` — the fused ``reconstruct -> riemann -> difference``
  pass over one padded strip, writing the flux-difference rows;
* :meth:`dt_strip` — the fused ``convert -> eigenvalue`` GetDT pass
  over one strip, writing the primitive conversion and per-group
  maxima.

Both return ``False`` when they cannot serve the call — no compiler,
unexpected dtype/layout — and the engine runs the same IR pair through
:class:`~repro.jit.numpy_eval.NumpyProgram` for exactly that strip.  Every fallback is
counted by reason (:attr:`fallbacks`), so "silently slower" is at
least never "silently unexplained".  An IR verification failure is
*not* a fallback: it means an emitter produced malformed IR (a bug),
and the :class:`~repro.errors.AnalysisError` propagates with the
specialization named.

The IR pair and its C text are acquired once per spec per process
(:func:`repro.jit.kernels.kernel_irs`/:func:`~repro.jit.kernels.
kernel_source`); compilation happens lazily on the first served call
and is cached across engines and processes (see
:mod:`repro.jit.compile`); time spent is booked to the engine's
``jit_sweep``/``jit_dt`` phase counters.

**Strips on the team.**  With two or more workers (``workers=`` of a
:class:`~repro.par.solver.ParallelSolver2D`, else ``REPRO_JIT_THREADS``),
:meth:`sweep_tiled` runs a whole tile plan's strips as one round of the
process's worker team (:func:`repro.par.pool.shared_team`) — the compiled
sweep is a pure C function called through :mod:`ctypes`, which releases
the GIL, so strips genuinely run in parallel.  The plan is the
decomposition and the dependence prover (:mod:`repro.analysis.deps`) its
licence, *per plan*: the kernel's access map must prove every strip in
bounds for the declared ghost width and all strips' shared writes
disjoint.  A failing or unavailable proof, or no compiled kernel,
serializes the plan with a counted reason (:attr:`serialized`) — never
silently — and the engine's per-strip loop runs instead.  Each strip
writes a disjoint row range of ``out`` from its own padded window, so
the result is bit-for-bit serial (``tests/euler/test_jit_threads.py``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from repro.jit import codegen
from repro.jit import compile as jit_compile
from repro.jit.kernels import kernel_irs, kernel_source, spec_from_config
from repro.par.pool import shared_team

__all__ = ["JitBackend"]


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
        self.sweep_calls = 0
        self.dt_calls = 0
        #: Fallback reason -> count of strip calls the NumPy path served.
        self.fallbacks: Dict[str, int] = {}
        #: Workers and barrier kind of the team :meth:`sweep_tiled` runs
        #: on, seconds its rounds waited in barriers, strips it served.
        self.threads = threads
        self.barrier = barrier
        self.barrier_wait_seconds = 0.0
        self.strips_threaded = 0
        #: Serialization reason -> count of strips that ran serially: the
        #: dependence proof failed or was unavailable, or no kernel built.
        self.serialized: Dict[str, int] = {}
        self._kernel: Optional[jit_compile.CompiledKernel] = None
        self._compile_failure: Optional[str] = None
        #: Strip-layout key -> StripProof; proofs depend only on the
        #: kernel's access map and the strip boundaries, so one proof
        #: per tile plan layout suffices.
        self._strip_proofs: Dict[Tuple[Tuple[int, int], ...], object] = {}

    # -- kernel acquisition ---------------------------------------------

    def _fallback(self, reason: str) -> bool:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
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
        """Whether strips will be served by the compiled kernel, building
        it on the first ask; False once compilation has failed (the engine
        then sizes its strips for the NumPy program that runs instead)."""
        return self._ensure_kernel() is not None

    # -- strip operations -----------------------------------------------

    def _strip_geometry(self, padded: np.ndarray, out: np.ndarray):
        """``(cells, cross)`` of a padded strip the compiled sweep can
        serve into ``out``, or the reason (a string) it cannot."""
        cells = padded.shape[0] - 2 * self.spec.ghost_cells
        if padded.dtype != np.float64 or out.dtype != np.float64:
            return "non-float64 state"
        if not padded.flags.c_contiguous:
            return "non-contiguous padded strip"
        if (
            padded.shape[-1] != self.spec.nfields
            or cells < 1
            or out.shape != (cells,) + padded.shape[1:]
        ):
            return "unexpected strip geometry"
        cross = 1
        for extent in padded.shape[1:-1]:
            cross *= extent
        return cells, cross

    def sweep(self, engine, padded: np.ndarray, spacing: float, out: np.ndarray) -> bool:
        """Fused sweep over one padded strip into ``out``; False = use NumPy.

        ``padded`` is ``(cells + 2 ng, cross..., F)`` in sweep layout;
        ``out`` receives the ``cells`` flux-difference rows (any layout —
        a non-contiguous target goes through contiguous scratch and one
        exact ``copyto``).
        """
        kernel = self._ensure_kernel()
        if kernel is None:
            return self._fallback(self._compile_failure)
        geometry = self._strip_geometry(padded, out)
        if isinstance(geometry, str):
            return self._fallback(geometry)
        cells, cross = geometry
        nfields = self.spec.nfields

        started = perf_counter()
        workspace = engine.workspace
        scratch = workspace.array("jit.flux_rows", (2, cross, nfields))
        target = (
            out
            if out.flags.c_contiguous
            else workspace.array("jit.sweep_out", (cells, cross, nfields))
        )
        kernel.sweep(
            _ptr(padded),
            _ptr(target),
            _ptr(scratch),
            cells,
            cross,
            float(self.config.gamma),
            float(spacing),
        )
        if target is not out:
            np.copyto(out, target.reshape(out.shape))
        engine.seconds["jit_sweep"] += perf_counter() - started
        self.sweep_calls += 1
        return True

    # -- threaded strip dispatch ----------------------------------------

    def _serialize(self, reason: str, strips: int) -> bool:
        """Count ``strips`` serialized strips under ``reason``; False."""
        self.serialized[reason] = self.serialized.get(reason, 0) + strips
        return False

    def _strip_proof(self, plan):
        """The (cached) dependence proof for this plan's strip layout.

        Proofs depend only on the kernel's access map, the ghost width,
        and the strip boundaries, so one verdict per layout suffices.  A
        prover *crash* is itself an unavailable proof (DEP004-shaped
        reason) — it must serialize the plan, never take the engine down.
        """
        key = tuple((tile.start, tile.stop) for tile in plan.tiles)
        proof = self._strip_proofs.get(key)
        if proof is None:
            from repro.analysis import deps

            try:
                amap = codegen.sweep_access_map(self.spec, kernel_irs(self.spec)[0])
                proof = deps.prove_strips(
                    amap,
                    key,
                    self.spec.ghost_cells,
                    where=self.spec.label(),
                )
            except Exception as error:
                proof = deps.StripProof(
                    licensed=False, reason=f"DEP004: prover failed: {error}"
                )
            self._strip_proofs[key] = proof
        return proof

    def sweep_tiled(self, engine, padded, plan, spacing: float, out) -> bool:
        """Serve a whole tile plan's sweep on the worker team; False = serial.

        Licensed *only* by a passing dependence proof over the plan's
        strip layout (DEP001/002/003 clean, proof available): each strip
        then writes a proven-disjoint row range of ``out`` from its own
        padded window through a GIL-releasing ctypes call, so the result
        is bit-for-bit the serial per-strip dispatch.  The plan is one
        :meth:`~repro.par.pool.WorkerPool.run` round: the caller is
        worker 0, worker ``w`` takes strips ``w, w + workers, ...``.  A
        failing or unavailable proof, or a kernel that failed to build,
        serializes with a per-strip counted reason in :attr:`serialized`;
        nothing to overlap (1 worker, one strip) or a dtype/geometry the
        serial path counts itself is a silent False.
        """
        tiles = plan.tiles
        if self.threads < 2 or len(tiles) < 2:
            return False
        kernel = self._ensure_kernel()
        if kernel is None:
            reason = f"no compiled kernel ({self._compile_failure})"
            return self._serialize(reason, len(tiles))
        geometry = self._strip_geometry(padded, out)
        if isinstance(geometry, str) or geometry[0] != plan.n_cells:
            return False
        cells, cross = geometry
        ng = self.spec.ghost_cells
        nfields = self.spec.nfields
        proof = self._strip_proof(plan)
        if not proof.licensed:
            reason = proof.reason or "DEP004: proof unavailable"
            return self._serialize(reason, len(tiles))

        started = perf_counter()
        workspace = engine.workspace
        target = (
            out
            if out.flags.c_contiguous
            else workspace.array("jit.sweep_out_full", (cells, cross, nfields))
        )
        # Workspace buffers are not thread-safe: allocate every strip's
        # flux scratch up front on this thread, under distinct keys.
        scratches = [
            workspace.array(f"jit.flux_rows.t{index}", (2, cross, nfields))
            for index in range(len(tiles))
        ]
        gamma = float(self.config.gamma)
        dx = float(spacing)

        def share(worker: int) -> None:
            for index in range(worker, len(tiles), self.threads):
                tile = tiles[index]
                kernel.sweep(
                    _ptr(padded[tile.start : tile.stop + 2 * ng]),
                    _ptr(target[tile.start : tile.stop]),
                    _ptr(scratches[index]),
                    tile.cells,
                    cross,
                    gamma,
                    dx,
                )

        team = shared_team(self.threads, self.barrier)
        waited = team.barrier_wait_seconds
        team.run(share)
        self.barrier_wait_seconds += team.barrier_wait_seconds - waited
        if target is not out:
            np.copyto(out, target.reshape(out.shape))
        engine.seconds["jit_sweep"] += perf_counter() - started
        self.sweep_calls += len(tiles)
        self.strips_threaded += len(tiles)
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
            "sweep_calls": self.sweep_calls,
            "dt_calls": self.dt_calls,
            "fallbacks": dict(self.fallbacks),
            "threads": self.threads,
            "strips_threaded": self.strips_threaded,
            "serialized": dict(self.serialized),
        }
        snapshot.update(jit_compile.compile_stats())
        return snapshot
