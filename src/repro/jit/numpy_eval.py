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

:func:`run_stage` is the same executor one level up: it interprets a
:class:`~repro.jit.plan.StagePlan` — the plan the compiled
``repro_jit_stage`` runs inside C — phase by phase.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.jit.ir import BOOL, F64, KernelIR

__all__ = [
    "NumpyProgram",
    "kernel_programs",
    "numpy_program",
    "field_views",
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


def run_stage(plan, handlers, v, u, k, out, dts, combine, reuse) -> None:
    """Interpret one Runge-Kutta stage of ``plan``, phase by phase.

    ``handlers`` (the engine) supplies one method per phase kind:
    ``primitive_into`` + ``validate`` for the conversion and its
    admissibility check, ``sweep_axis0``/``sweep_axis1`` for the strip
    sweeps into ``k`` and ``combine`` for the stage's target ``out``
    (``combine`` is a kind of :data:`repro.euler.rk.COMBINES`, or None
    for a bare ``k = L(v)``; ``reuse`` lets the conversion consume one the
    dt pass left fresh).  The phase order, the strips and the fill
    records are the plan's — what the compiled stage reads.
    """
    primitive = None
    for phase in plan.phases:
        if phase.kind == "convert":
            primitive = handlers.primitive_into(v, reuse=reuse)
            handlers.validate(primitive)
        elif phase.kind == "sweep":
            sweep = handlers.sweep_axis1 if phase.axis else handlers.sweep_axis0
            sweep(phase, primitive, k)
        elif combine is not None:
            handlers.combine(phase, combine, u, v, k, dts, out)


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
