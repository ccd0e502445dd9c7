"""Straight-line SSA IR for the compiled kernels.

A kernel body is a list of :class:`Op` in SSA form: every op defines one
new value, consumes previously defined values (or float immediates,
which the builder materialises as ``const`` ops), and carries a dtype of
``"f64"`` or ``"bool"``.  There is deliberately no control flow — the
kernels are pure elementwise chains (a Riemann solver, a reconstruction
scheme, a conversion, the per-face flux and per-cell dt compositions);
masks become ``select`` ops.  Two backends read this IR: the C code
generator (:mod:`repro.jit.codegen`) and the NumPy evaluator
(:mod:`repro.jit.numpy_eval`), one ufunc per op.

The opcodes are exactly NumPy ufuncs.  Semantics the C backend must
honour (and :mod:`repro.analysis.jit_verify` checks structurally):

``minimum``/``maximum``
    NumPy NaN-propagating semantics — ``(a < b || isnan(a)) ? a : b`` —
    **not** C ``fmin``/``fmax`` (which drop NaNs).
``sign``
    ``+1``/``-1`` for nonzero, ``0`` for zero, NaN propagates.
``select(cond, a, b)``
    ``cond ? a : b`` — elementwise
    ``out[...] = b; np.copyto(out, a, where=cond)``.
``and_``
    logical AND of two bool values (mirrors ``np.logical_and`` /
    in-place ``&=`` on bool masks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

__all__ = ["Op", "KernelIR", "IRBuilder", "OPCODES", "F64", "BOOL"]

F64 = "f64"
BOOL = "bool"

#: opcode -> (arity, argument dtype, result dtype)
OPCODES: Dict[str, Tuple[int, str, str]] = {
    "const": (0, F64, F64),
    "param": (0, F64, F64),
    "add": (2, F64, F64),
    "sub": (2, F64, F64),
    "mul": (2, F64, F64),
    "div": (2, F64, F64),
    "neg": (1, F64, F64),
    "abs": (1, F64, F64),
    "sqrt": (1, F64, F64),
    "sign": (1, F64, F64),
    "minimum": (2, F64, F64),
    "maximum": (2, F64, F64),
    "eq": (2, F64, BOOL),
    "lt": (2, F64, BOOL),
    "gt": (2, F64, BOOL),
    "ge": (2, F64, BOOL),
    "le": (2, F64, BOOL),
    "and_": (2, BOOL, BOOL),
    # select is special-cased: (bool, f64, f64) -> f64
    "select": (3, F64, F64),
}

Value = str  # SSA value name, e.g. "v17"


@dataclass(frozen=True)
class Op:
    """One SSA definition: ``name = opcode(*args)``."""

    name: Value
    opcode: str
    args: Tuple[Value, ...] = ()
    #: payload for ``const`` (the float) / ``param`` (the C parameter name)
    payload: object = None
    dtype: str = F64


@dataclass
class KernelIR:
    """A verified-before-codegen straight-line kernel.

    ``params`` maps C-level input names to their SSA values; ``outputs``
    is the ordered list of SSA values the kernel stores, labelled so the
    codegen skeleton knows where each lands.
    """

    name: str
    ops: List[Op] = field(default_factory=list)
    params: List[Tuple[str, Value]] = field(default_factory=list)
    outputs: List[Tuple[str, Value]] = field(default_factory=list)


class IRBuilder:
    """Builds :class:`KernelIR` one ufunc application at a time.

    Arithmetic methods accept SSA value names or Python floats; floats
    are materialised as (deduplicated) ``const`` ops, mirroring NumPy
    scalar operands.
    """

    def __init__(self, name: str):
        self.ir = KernelIR(name)
        self._counter = 0
        self._consts: Dict[str, Value] = {}

    # -- plumbing --------------------------------------------------------

    def _fresh(self) -> Value:
        self._counter += 1
        return f"v{self._counter}"

    def _as_value(self, arg: Union[Value, float, int]) -> Value:
        if isinstance(arg, str):
            return arg
        return self.const(float(arg))

    def _emit(self, opcode: str, args: Sequence, dtype: str) -> Value:
        name = self._fresh()
        values = tuple(self._as_value(a) for a in args)
        self.ir.ops.append(Op(name, opcode, values, dtype=dtype))
        return name

    # -- inputs / outputs ------------------------------------------------

    def param(self, c_name: str) -> Value:
        """Declare a kernel input (a stencil cell field, gamma, ...)."""
        name = self._fresh()
        self.ir.ops.append(Op(name, "param", payload=c_name))
        self.ir.params.append((c_name, name))
        return name

    def const(self, value: float) -> Value:
        key = float(value).hex()
        found = self._consts.get(key)
        if found is not None:
            return found
        name = self._fresh()
        self.ir.ops.append(Op(name, "const", payload=float(value)))
        self._consts[key] = name
        return name

    def output(self, label: str, value: Value) -> None:
        self.ir.outputs.append((label, value))

    def finish(self) -> KernelIR:
        return self.ir

    # -- ufuncs ----------------------------------------------------------

    def add(self, a, b) -> Value:
        return self._emit("add", (a, b), F64)

    def sub(self, a, b) -> Value:
        return self._emit("sub", (a, b), F64)

    def mul(self, a, b) -> Value:
        return self._emit("mul", (a, b), F64)

    def div(self, a, b) -> Value:
        return self._emit("div", (a, b), F64)

    def neg(self, a) -> Value:
        return self._emit("neg", (a,), F64)

    def abs_(self, a) -> Value:
        return self._emit("abs", (a,), F64)

    def sqrt(self, a) -> Value:
        return self._emit("sqrt", (a,), F64)

    def sign(self, a) -> Value:
        return self._emit("sign", (a,), F64)

    def minimum(self, a, b) -> Value:
        return self._emit("minimum", (a, b), F64)

    def maximum(self, a, b) -> Value:
        return self._emit("maximum", (a, b), F64)

    def eq(self, a, b) -> Value:
        return self._emit("eq", (a, b), BOOL)

    def lt(self, a, b) -> Value:
        return self._emit("lt", (a, b), BOOL)

    def gt(self, a, b) -> Value:
        return self._emit("gt", (a, b), BOOL)

    def ge(self, a, b) -> Value:
        return self._emit("ge", (a, b), BOOL)

    def le(self, a, b) -> Value:
        return self._emit("le", (a, b), BOOL)

    def and_(self, a, b) -> Value:
        return self._emit("and_", (a, b), BOOL)

    def select(self, cond, a, b) -> Value:
        """``cond ? a : b`` — mirrors masked ``np.copyto``."""
        return self._emit("select", (cond, a, b), F64)
