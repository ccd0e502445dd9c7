"""Cell rows: a flux program split into a per-cell and a per-face program.

A face's flux reads the ``2 * ghost_cells`` stencil cells around it.  With
a two-cell stencil (piecewise-constant: the face states *are* the cells)
a cell's energy, sound speed and the like are computed once for the face
on its left and once more for the face on its right.  :func:`split_flux`
takes that work out of the face program:

* the **cell program** holds the ops that read a single stencil cell
  (and uniform parameters such as ``gamma``), keyed by *form* — the op
  tree with its cell offset erased — so the left-cell op and the
  right-cell op become one entry.  Its parameters are one cell's fields
  ``cell0..`` and the uniform ones, its outputs ``h0..`` one value per
  form;
* the **face program** is the flux program reading those values as
  parameters ``h{k}_{m}`` (form ``m`` of stencil cell ``k``) beside the
  raw cells; the ops they replace, and what only those read, are gone.

A form is hoisted when it *escapes* — an op reading two or more cells,
or an output, reads it — at two or more offsets, is f64-valued, and has a
division or square root in its tree: hoisting the cheap forms as well
measured no better.  The pass applies only where the stencil is two
cells; a wider stencil keeps an empty hoist set, the face program is the
flux program, since hoisting there measured slower (EXPERIMENTS "SR
(cont.) — cell rows").

Bits: a hoisted value is the same op tree on the same cell values as the
op it replaces, one IEEE operation per op (``-ffp-contract=off`` in C),
operands never reordered — the same double, NaN, infinity and signed
zero included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.jit.ir import F64, IRBuilder, KernelIR, Op

__all__ = ["FluxSplit", "split_flux", "STENCIL"]

#: The stencil width the pass applies to: two cells.
STENCIL = 2

_CELL = re.compile(r"c(\d+)_(\d+)$")
_COSTLY = frozenset({"div", "sqrt"})
_UNIFORM, _MIXED = -1, -2


@dataclass(frozen=True)
class FluxSplit:
    """A flux program as ``cell`` (None: nothing hoisted) and ``face``."""

    cell: Optional[KernelIR]
    face: KernelIR

    @property
    def forms(self) -> int:
        """Values per cell of the cell program (0: nothing hoisted)."""
        return 0 if self.cell is None else len(self.cell.outputs)


def split_flux(ir: KernelIR, stencil: int) -> FluxSplit:
    """Split the flux program ``ir`` of a ``stencil``-cell stencil (see
    the module doc); ``FluxSplit(None, ir)`` when nothing is hoisted."""
    if stencil != STENCIL:
        return FluxSplit(None, ir)
    ops = {op.name: op for op in ir.ops}
    # where[v]: the stencil offset of the one cell v reads, else _UNIFORM
    # (none) or _MIXED (two or more); form[v] for the first two kinds.
    where: Dict[str, int] = {}
    form: Dict[str, int] = {}
    costly: List[bool] = []  # per form: a div or sqrt in its tree
    forms: Dict[tuple, int] = {}
    for op in ir.ops:
        if op.opcode == "param":
            cell = _CELL.match(op.payload)
            where[op.name] = int(cell.group(1)) if cell else _UNIFORM
            key = ("cell", int(cell.group(2))) if cell else ("param", op.payload)
        else:
            reads = {where[arg] for arg in op.args} - {_UNIFORM}
            if _MIXED in reads or len(reads) > 1:
                where[op.name] = _MIXED
                continue
            where[op.name] = reads.pop() if reads else _UNIFORM
            payload = float(op.payload).hex() if op.opcode == "const" else None
            key = (op.opcode, payload) + tuple(form[arg] for arg in op.args)
        found = forms.setdefault(key, len(forms))
        if found == len(costly):
            costly.append(
                op.opcode in _COSTLY or any(costly[form[arg]] for arg in op.args)
            )
        form[op.name] = found

    escapes: Dict[int, set] = {}  # form -> offsets it escapes at

    def escape(value: str) -> None:
        op = ops[value]
        if where[value] >= 0 and op.opcode != "param" and op.dtype == F64:
            if costly[form[value]]:
                escapes.setdefault(form[value], set()).add(where[value])

    for op in ir.ops:
        if where[op.name] == _MIXED:
            for arg in op.args:
                escape(arg)
    for _, value in ir.outputs:
        escape(value)
    hoisted = {f: m for m, f in enumerate(f for f, at in escapes.items() if len(at) >= 2)}
    if not hoisted:
        return FluxSplit(None, ir)
    return FluxSplit(
        _cell_program(ir, ops, form, hoisted),
        _face_program(ir, stencil, where, form, hoisted),
    )


def _cell_program(ir, ops, form, hoisted) -> KernelIR:
    """The hoisted forms over one cell, each op tree emitted once (a
    subtree two forms share is one value)."""
    b = IRBuilder("cell" + ir.name[len("flux") :])
    fields, uniform = {}, {}  # one cell's fields by number, the rest by name
    for c_name, _ in ir.params:
        cell = _CELL.match(c_name)
        if cell is None:
            uniform[c_name] = b.param(c_name)
        elif cell.group(1) == "0":
            fields[cell.group(2)] = b.param(f"cell{cell.group(2)}")
    emitted: Dict[int, str] = {}

    def emit(value: str) -> str:
        found = emitted.get(form[value])
        if found is None:
            op = ops[value]
            if op.opcode == "param":
                cell = _CELL.match(op.payload)
                found = uniform[op.payload] if cell is None else fields[cell.group(2)]
            elif op.opcode == "const":
                found = b.const(op.payload)
            else:
                found = b.apply(op.opcode, *(emit(arg) for arg in op.args))
            emitted[form[value]] = found
        return found

    representative = {}
    for op in ir.ops:
        if op.name in form and form[op.name] in hoisted:
            representative.setdefault(form[op.name], op.name)
    for f, m in hoisted.items():
        b.output(f"h{m}", emit(representative[f]))
    return b.finish()


def _face_program(ir, stencil, where, form, hoisted) -> KernelIR:
    """``ir`` reading every hoisted value as a parameter, with what only
    the replaced ops read dropped."""
    replaced = {
        op.name: f"hv{where[op.name]}_{hoisted[form[op.name]]}"
        for op in ir.ops
        if where[op.name] >= 0 and form[op.name] in hoisted
    }
    live = {value for _, value in ir.outputs}
    for op in reversed(ir.ops):
        if op.name in live and op.name not in replaced:
            live.update(op.args)
    extra = [
        (f"h{k}_{m}", f"hv{k}_{m}") for k in range(stencil) for m in range(len(hoisted))
    ]
    face = KernelIR("face" + ir.name[len("flux") :], params=list(ir.params) + extra)
    face.ops = [op for op in ir.ops if op.opcode == "param"]
    face.ops += [Op(value, "param", payload=c_name) for c_name, value in extra]
    face.ops += [
        replace(op, args=tuple(replaced.get(arg, arg) for arg in op.args))
        for op in ir.ops
        if op.opcode != "param" and op.name in live and op.name not in replaced
    ]
    face.outputs = [(label, replaced.get(value, value)) for label, value in ir.outputs]
    return face
