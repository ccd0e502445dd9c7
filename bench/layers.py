"""Per-layer accounting of a solver's steps, from spans and engine counters.

:func:`trace_solver` installs the span wrappers on one solver (or
ensemble) and on the objects below it; :func:`solver_layers` turns the
recorded spans plus the engine's own counter deltas into the ``euler.*``
and ``jit.*`` per-layer metrics.  The same two functions serve the four
solver workloads and the in-process twins of the service jobs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.jit import codegen
from repro.jit import compile as jit_compile
from repro.jit.kernels import build_dt_ir, build_flux_ir

from bench import spans as span_store
from bench.spans import NAME, NOTE, Tracer
from bench.stats import ratio

ENGINE_CALLS = (
    "compute_dt",
    "integrate",
    "rhs",
    "primitive_into",
    "sweep_axis0",
    "sweep_axis1",
    "riemann",
)
BACKEND_CALLS = ("sweep", "sweep_tiled", "dt_strip")

#: Span name -> the share metric its self time is booked to.  Together
#: the groups tile the "block" root span, so the shares add up to one.
SHARE_OF = {
    "block": "euler.solver.loop_share",
    "solver.step": "euler.solver.loop_share",
    "engine.compute_dt": "euler.engine.compute_dt_share",
    "engine.integrate": "euler.engine.rk_share",
    "engine.rhs": "euler.engine.rhs_share",
    "engine.primitive_into": "euler.engine.convert_share",
    "engine.sweep_axis0": "euler.engine.sweep_share",
    "engine.sweep_axis1": "euler.engine.sweep_share",
    "engine.riemann": "euler.riemann.share",
    "backend.sweep": "jit.backend.dispatch_share",
    "backend.sweep_tiled": "jit.backend.dispatch_share",
    "backend.dt_strip": "jit.backend.dispatch_share",
    "kernel.sweep": "jit.kernel.inside_c_share",
    "kernel.dt": "jit.kernel.inside_c_share",
}


def compiled_kernel(backend) -> Optional[jit_compile.CompiledKernel]:
    """The loaded kernel object ``backend`` calls into, or None.

    ``load_kernel`` keeps one object per source text in the process, so
    regenerating the source of the backend's spec returns the very
    object the backend holds.
    """
    if backend is None or backend.spec is None:
        return None
    spec = backend.spec
    source = codegen.generate_source(spec, build_flux_ir(spec), build_dt_ir(spec))
    try:
        return jit_compile.load_kernel(source, spec.ndim)
    except jit_compile.CompileError:
        return None


def trace_solver(tracer: Tracer, solver) -> None:
    """Wrap ``solver.step`` and the engine, backend and kernel calls under
    it; ``tracer.uninstall()`` removes every wrapper again."""
    engine = solver.engine
    tracer.install(solver, "step", "solver.step")
    for call in ENGINE_CALLS:
        tracer.install(engine, call, f"engine.{call}")
    backend = engine.backend
    if backend is None:
        return
    for call in BACKEND_CALLS:
        tracer.install(backend, call, f"backend.{call}")
    kernel = compiled_kernel(backend)
    if kernel is not None:
        # note = (rows or groups, row length): what the computed byte
        # count of a crossing is derived from.
        tracer.install(kernel, "sweep", "kernel.sweep", note=lambda a: (a[3], a[4]))
        tracer.install(kernel, "dt", "kernel.dt", note=lambda a: (a[3], a[4]))


def counter_delta(pairs: List[Tuple[dict, dict]]) -> Dict[str, float]:
    """Sum of ``after - before`` over blocks, for every numeric engine
    counter; the JIT's per-reason dicts are summed over reasons."""
    delta: Dict[str, float] = {}

    def add(name: str, before, after) -> None:
        delta[name] = delta.get(name, 0.0) + (after - before)

    for before, after in pairs:
        for name in ("steps", "rhs_evaluations", "primitive_conversions", "tiles"):
            add(name, before[name], after[name])
        for phase, value in after["seconds"].items():
            add(f"seconds.{phase}", before["seconds"].get(phase, 0.0), value)
        if "jit" in after:
            for name in ("sweep_calls", "dt_calls", "strips_threaded"):
                add(f"jit.{name}", before["jit"][name], after["jit"][name])
            for name in ("fallbacks", "serialized"):
                add(
                    f"jit.{name}",
                    sum(before["jit"][name].values()),
                    sum(after["jit"][name].values()),
                )
    return delta


def solver_layers(
    spans: List[list], pairs: List[Tuple[dict, dict]], engine
) -> Dict[str, float]:
    """The ``euler.*``/``jit.*`` metrics of the traced blocks in ``spans``."""
    own = span_store.self_times(spans)
    by_share: Dict[str, float] = {name: 0.0 for name in SHARE_OF.values()}
    whole = 0.0
    steps = crossings = 0
    moved = 0
    fields = engine.grid_shape[-1]
    ghost = engine.ghost_cells
    for span, self_time in zip(spans, own):
        name = span[NAME]
        if name not in SHARE_OF:  # the service-side spans of a serve run
            continue
        by_share[SHARE_OF[name]] += self_time
        if name == "block":
            whole += span[2] - span[1]
        elif name == "solver.step":
            steps += 1
        elif name == "kernel.sweep":
            crossings += 1
            rows, cross = span[NOTE]
            moved += (2 * rows + 2 * ghost) * cross * fields * 8
        elif name == "kernel.dt":
            crossings += 1
            groups, cells = span[NOTE]
            moved += (2 * groups * cells * fields + groups) * 8
    delta = counter_delta(pairs)
    clocks = sum(value for name, value in delta.items() if name.startswith("seconds."))
    metrics = {name: ratio(value, whole) for name, value in by_share.items()}
    counters = engine.counters()
    spec = engine.backend.spec if engine.backend is not None else None
    metrics.update(
        {
            "euler.block_s_per_step": ratio(whole, steps),
            "euler.reconstruction.clock_share": ratio(
                delta.get("seconds.reconstruct", 0.0), whole
            ),
            "euler.difference.clock_share": ratio(
                delta.get("seconds.difference", 0.0), whole
            ),
            "euler.boundary.clock_share": ratio(delta.get("seconds.bc", 0.0), whole),
            "euler.engine.clock_residual": ratio(abs(clocks - whole), whole),
            "jit.kernel.crossings_per_step": ratio(crossings, steps),
            "jit.backend.fallback_strips_per_step": ratio(
                delta.get("jit.fallbacks", 0.0), steps
            ),
            "jit.backend.strips_threaded_per_step": ratio(
                delta.get("jit.strips_threaded", 0.0), steps
            ),
            "jit.backend.serialized_strips": delta.get("jit.serialized", 0.0),
            "jit.kernel.ir_ops_per_face": (
                sum(
                    op.opcode not in ("const", "param")
                    for op in build_flux_ir(spec).ops
                )
                if spec is not None
                else 0
            ),
            "jit.kernel.computed_bytes_per_step": ratio(moved, steps),
            "euler.tiling.strips_per_step": ratio(delta["tiles"], steps),
            "euler.tiling.tile_bytes": counters["tile_bytes"],
            "euler.engine.rhs_evals_per_step": ratio(delta["rhs_evaluations"], steps),
            "euler.engine.conversions_per_step": ratio(
                delta["primitive_conversions"], steps
            ),
            "euler.workspace.scratch_bytes": counters["scratch_bytes"],
        }
    )
    return metrics
