"""NumPy evaluator for :class:`~repro.jit.ir.KernelIR` — the second executor.

The engine's NumPy arm runs the IR pair the C path compiles
(:func:`repro.jit.kernels.kernel_irs`: the folded face-flux program and
the fused convert+eigenvalue dt program of its spec) through
:class:`NumpyProgram`; there is no hand-kept composition of the unfolded
chain beside it (DESIGN.md, "Single-source kernels").  The contract:

* **one IEEE operation per IR op**, in IR order — one ufunc application
  each; ``select`` is a copy of the else-operand plus a masked ``copyto``
  of the then-operand — so a run produces the bits of the generated C
  and of the allocating reference functions;
* **slot liveness** — an array value lives in a scratch *slot* that is
  handed on once its last reader has run (straight-line SSA: a last-use
  table).  An elementwise op may write the slot of an operand that dies
  there; a ``select`` may take over its else-operand's slot (no copy)
  but never its then-operand's; masks have slots of their own.  The
  slot counts are what a strip of the program holds, and what the strip
  planner budgets (:func:`repro.euler.tiling.sweep_row_bytes`);
* **scratch from the caller** — one f64 and one bool block per (program,
  shape) from the caller's :class:`~repro.euler.workspace.Workspace`;
* **scalar folding** — constants, scalar parameters and ops over scalars
  only are floats, evaluated by the same ufunc.

A program is immutable once built: threads may share it, each running
on its own workspace.

:func:`run_stage` is the same executor one level up: it walks a
:class:`~repro.jit.plan.StagePlan` — the plan the compiled
``repro_jit_stage`` runs inside C — phase by phase and strip by strip,
each sweep strip on a strip-private window (:func:`fill_window`).
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.jit.ir import BOOL, F64, KernelIR

__all__ = [
    "NumpyProgram",
    "kernel_programs",
    "numpy_program",
    "field_views",
    "sweep_planes",
    "ghost_table",
    "fill_window",
    "run_stage",
]

_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "neg": np.negative,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "sign": np.sign,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "eq": np.equal,
    "lt": np.less,
    "gt": np.greater,
    "ge": np.greater_equal,
    "le": np.less_equal,
    "and_": np.logical_and,
}

_DTYPES = {F64: np.float64, BOOL: np.bool_}

_SCALAR, _UNARY, _BINARY, _SELECT = range(4)


@lru_cache(maxsize=None)
def kernel_programs(spec) -> Tuple["NumpyProgram", "NumpyProgram"]:
    """The process-wide ``(flux, dt)`` programs of a
    :class:`~repro.jit.kernels.KernelSpec`, scheduled on first use from
    the verified IR pair the compiled kernel is generated from.
    (Imported on a miss only: :mod:`repro.euler` imports this module.)"""
    from repro.jit.kernels import SCALAR_PARAMS, kernel_irs

    flux_ir, dt_ir = kernel_irs(spec)
    return NumpyProgram(flux_ir, SCALAR_PARAMS), NumpyProgram(dt_ir, SCALAR_PARAMS)


@lru_cache(maxsize=None)
def numpy_program(kind: str, *key) -> "NumpyProgram":
    """The process-wide program of the standalone kernel
    (:func:`repro.jit.kernels.build_standalone_ir`), built on first use.
    The IR passes :func:`~repro.analysis.jit_verify.verify_kernel` first,
    so a malformed emitter fails by name here exactly as on the C path.
    (Imported on a miss only, like :func:`kernel_programs`.)"""
    from repro.analysis.jit_verify import verify_kernel
    from repro.jit.kernels import SCALAR_PARAMS, build_standalone_ir

    ir = build_standalone_ir(kind, *key)
    verify_kernel(ir, "numpy")
    return NumpyProgram(ir, SCALAR_PARAMS)


def run_stage(plan, engine, v, u, k, out, dts, combine, fresh) -> None:
    """Interpret one Runge-Kutta stage of ``plan`` phase by phase and strip
    by strip, as ``repro_jit_stage`` runs it in C: ``k = L(v)`` and, with
    ``combine`` a kind of :data:`repro.euler.rk.COMBINES`, ``out =
    combine(u, v, k, dts)``.  The conversion (the dt pass's when
    ``fresh``) is validated over the whole primitive buffer; each sweep
    strip's window is filled here and run by the engine's strip entry
    (``sweep_axis0``, also named ``sweep_axis1``)."""
    ws, ng = engine.workspace, plan.spec.ghost_cells
    primitive = ws.array("engine.primitive", engine.grid_shape)
    seconds = engine.seconds
    for phase in plan.phases:
        if phase.kind == "convert":
            if not fresh:
                for s, e in phase.layout:
                    engine.primitive_into(v[:, s:e], primitive[:, s:e])
            engine.validate(primitive)
        elif phase.kind == "sweep":
            started = perf_counter()
            sources = sweep_planes(primitive, phase.axis)
            ghosts = ghost_table(ws, phase, sources, ng)
            targets = sweep_planes(k, phase.axis)
            seconds["bc"] += perf_counter() - started
            sweep = engine.sweep_axis1 if phase.axis else engine.sweep_axis0
            kind = "accumulate" if phase.axis else "write"
            for s, e in phase.layout:
                started = perf_counter()
                window = ws.array("engine.window", (e - s + 2 * ng,) + ghosts.shape[2:])
                fill_window(window, sources, ghosts, s, ng)
                seconds["bc"] += perf_counter() - started
                sweep(window, phase.spacing, [plane[s:e] for plane in targets], kind)
        elif combine is not None:
            program = numpy_program("combine", combine)
            column = engine.dt_column(dts)
            for s, e in phase.layout:
                rows = (slice(None), slice(s, e))
                program.run([u[rows], v[rows], k[rows], column], [out[rows]], ws)


def sweep_planes(array: np.ndarray, axis: int) -> List[np.ndarray]:
    """The field planes of a ``(B, cells..., F)`` stack in the sweep layout
    of ``axis``, as views: the sweep axis first, members next — on axis 1
    the grid transposed and ``u``, ``v`` exchanged."""
    if axis == 0:
        return [plane.swapaxes(0, 1) for plane in field_views(array)]
    return [array[..., field].transpose(2, 0, 1) for field in (0, 2, 1, 3)]


def ghost_table(work, phase, sources, ng: int) -> np.ndarray:
    """One sweep's ghost layers from its fill records, in table order:
    ``table[side]`` is an edge at the low end (the high edge reversed),
    ghost rows ``[0, ng)`` then the interior rows they are filled from.
    A record is one :func:`~repro.euler.boundary.apply_fill` on its
    member's along-edge segment; a foreign one runs its condition's own
    ``fill`` on the member's padded column along that segment.
    (Imported here: :mod:`repro.euler` imports this module.)"""
    from repro.euler.boundary import apply_fill

    n, row = len(sources[0]), sources[0].shape[1:] + (len(sources),)
    table = work.array("engine.ghosts", (2, 2 * ng) + row)
    inner = min(n, ng)  # a copy reads one interior row, a mirror ng (fill_tables)
    for field, plane in enumerate(sources):
        table[0, ng : ng + inner, ..., field] = plane[:inner]
        table[1, ng : ng + inner, ..., field] = plane[::-1][:inner]
    for record in phase.fills:
        along = (slice(record.start, record.stop),) if len(row) > 2 else ()
        end = table[(record.side, slice(None), record.member) + along]
        if record.condition is None:
            apply_fill(end, ng, record.kind, record.state)
            continue
        member = slice(record.member, record.member + 1)
        column = np.empty((n + 2 * ng, 1) + row[1:])
        fill_window(column, [plane[:, member] for plane in sources], table[:, :, member], 0, ng)
        column = column[(slice(None), 0) + along][:: -1 if record.side else 1]
        record.condition.fill(column, ng)
        end[:ng] = column[:ng]
    return table


def fill_window(window, sources, ghosts, s: int, ng: int) -> None:
    """Padded rows ``[s, s + len(window))`` of a sweep: the primitive rows
    on the grid from its :func:`sweep_planes`, the ghost layers off it
    from its :func:`ghost_table`."""
    n, e = len(sources[0]), s + len(window) - 2 * ng
    lo, hi = max(s - ng, 0), min(e + ng, n)
    for field, plane in enumerate(sources):
        np.copyto(window[lo - s + ng : hi - s + ng, ..., field], plane[lo:hi])
    if s < ng:  # low ghost layers: padded rows [s, ng)
        window[: ng - s] = ghosts[0, s:ng]
    if e + ng > n:  # high ghost layers: padded rows [n + ng, e + 2 ng)
        window[n + ng - s :] = ghosts[1, ng - 1 :: -1][: e + ng - n]


def field_views(array: np.ndarray) -> List[np.ndarray]:
    """The per-field planes ``array[..., f]`` of a state array, as views."""
    return [array[..., field] for field in range(array.shape[-1])]


class NumpyProgram:
    """A verified kernel IR, scheduled onto registers once, run many times.

    ``scalars`` names the parameters the caller binds to floats; every
    other parameter and every output is an array of one common shape.
    The register file is ``[params | outputs | scalars and slots]``;
    ``registers`` maps each SSA value to the register it occupies while
    live and ``slots`` lists the scratch registers per dtype — the
    evaluator tests replay the liveness rules on exactly these.
    """

    def __init__(self, ir: KernelIR, scalars: Sequence[str] = ()):
        self.ir = ir
        self.name = ir.name
        n_params = len(ir.params)
        last_use = {arg: index for index, op in enumerate(ir.ops) for arg in op.args}
        self.registers = reg = {value: i for i, (_, value) in enumerate(ir.params)}
        # An output an op computes is written in place; a second label of
        # the same value, a passed-through parameter or a scalar is copied.
        in_place: Dict[str, int] = {}
        for position, (_, value) in enumerate(ir.outputs):
            if value not in reg:
                in_place.setdefault(value, n_params + position)
        scalar = {value for name, value in ir.params if name in scalars}
        self.slots: Dict[str, List[int]] = {F64: [], BOOL: []}
        slot_dtype: Dict[int, str] = {}
        free: Dict[str, List[int]] = {F64: [], BOOL: []}
        self._template: List[object] = [None] * (n_params + len(ir.outputs))
        #: (kind, ufunc, destination, a, b, c) over register numbers; a
        #: select's operands are (then, else, condition).
        self._steps = []
        for index, op in enumerate(ir.ops):
            if op.opcode == "param":
                continue
            operands = tuple(reg[arg] for arg in op.args)
            if all(arg in scalar for arg in op.args):  # a const has no args
                scalar.add(op.name)
                reg[op.name] = len(self._template)
                self._template.append(op.payload)
                if op.opcode != "const":
                    self._steps.append(
                        (_SCALAR, _UFUNCS[op.opcode], reg[op.name], operands, -1, -1)
                    )
                continue
            # A slot whose value dies here may be rewritten by this very
            # op — except a select's then-operand, which the copy of the
            # else-operand must not destroy.
            held = reg[op.args[1]] if op.opcode == "select" else None
            dying = [
                reg[arg]
                for arg in dict.fromkeys(op.args)
                if last_use[arg] == index and reg[arg] in slot_dtype
            ]
            for slot in dying:
                if slot != held:
                    free[slot_dtype[slot]].append(slot)
            if op.name in in_place:
                reg[op.name] = in_place[op.name]
            elif free[op.dtype]:
                reg[op.name] = free[op.dtype].pop()
            else:
                reg[op.name] = len(self._template)
                self._template.append(None)
                self.slots[op.dtype].append(reg[op.name])
                slot_dtype[reg[op.name]] = op.dtype
            if held in dying:
                free[slot_dtype[held]].append(held)
            if op.opcode == "select":
                cond, then, other = operands
                self._steps.append((_SELECT, None, reg[op.name], then, other, cond))
            else:
                kind = _BINARY if len(operands) == 2 else _UNARY
                self._steps.append(
                    (kind, _UFUNCS[op.opcode], reg[op.name]) + (operands + (-1, -1))[:3]
                )
        self._blocks = [(dtype, slots) for dtype, slots in self.slots.items() if slots]
        self._copies = [
            (n_params + position, reg[value])
            for position, (_, value) in enumerate(ir.outputs)
            if reg[value] != n_params + position
        ]

    def run(self, params: Sequence, outputs: Sequence[np.ndarray], work=None) -> None:
        """Evaluate into ``outputs`` (IR output order) from ``params`` (IR
        parameter order); scratch comes from ``work``, or is allocated
        for this call when there is none.  An output may be an array
        parameter itself (the same elements, as the Runge-Kutta combines'
        target is ``u``) only when the op computing it comes last;
        partial overlap is never allowed."""
        n_params = len(self.ir.params)
        if len(params) != n_params or len(outputs) != len(self.ir.outputs):
            raise ValueError(
                f"{self.name}: expected {n_params} params and "
                f"{len(self.ir.outputs)} outputs, got {len(params)} and {len(outputs)}"
            )
        regs = list(self._template)
        regs[:n_params] = params
        regs[n_params : n_params + len(outputs)] = outputs
        for dtype, slots in self._blocks:
            shape = (len(slots),) + outputs[0].shape
            block = (
                np.empty(shape, _DTYPES[dtype])
                if work is None
                else work.array(f"{self.name}.{dtype}", shape, _DTYPES[dtype])
            )
            for slot, plane in zip(slots, block):
                regs[slot] = plane
        copyto = np.copyto
        for kind, fn, d, a, b, c in self._steps:
            if kind == _BINARY:
                fn(regs[a], regs[b], out=regs[d])
            elif kind == _UNARY:
                fn(regs[a], out=regs[d])
            elif kind == _SELECT:
                target = regs[d]
                if b != d:
                    copyto(target, regs[b])
                copyto(target, regs[a], where=regs[c])
            else:
                regs[d] = fn(*[regs[i] for i in a])
        for d, a in self._copies:
            copyto(regs[d], regs[a])
