"""Vectorising NumPy backend — the "compiled" SaC executor.

With-loop bodies are evaluated *for all indices at once*: index
variables become index grids, selections become gathers (or, after the
optimiser has done its work, contiguous slices), and scalar arithmetic
becomes whole-array arithmetic.  Anything the vectoriser cannot handle
(user calls on index-dependent data, nested index-dependent
with-loops) falls back to the reference interpreter's element loop, so
the backend is *always* semantically equivalent — just faster where it
matters.

Every array operation and with-loop execution is recorded in an
:class:`ExecutionTrace`; the multithreaded scheduler really does run
chunks on the process's fork/join worker team
(:func:`repro.par.pool.shared_team`).

Batched values
--------------
A :class:`Batched` wraps an ndarray whose leading ``box_rank`` axes
range over the with-loop's index space and whose trailing axes are the
per-element value (SaC values can be arrays themselves — ``fluid_cv``
elements are 4-vectors).  Mixed batched/plain arithmetic aligns the
element axes explicitly, which is what makes expressions like
``(d[iv] + c[iv]) / DELTA`` from the paper's ``getDt`` vectorise even
though ``d[iv]`` is a 2-vector and ``c[iv]`` a scalar.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SacRuntimeError
from repro.sac import ast
from repro.sac import stdlib
from repro.sac.interp import Interpreter, binary_op, unary_op
from repro.sac.runtime.profiler import ExecutionTrace
from repro.sac.eval.scheduler import (
    SchedulerOptions,
    WithLoopScheduler,
    box_elements,
)

_ELEMENTWISE_BUILTINS = {
    "fabs", "sqrt", "exp", "log", "sin", "cos", "abs", "sign",
    "min", "max", "pow", "tod", "toi",
}
_REDUCTION_BUILTINS = {"sum", "prod", "maxval", "minval"}

_REDUCERS = {
    "sum": np.add.reduce,
    "prod": np.multiply.reduce,
    "maxval": np.maximum.reduce,
    "minval": np.minimum.reduce,
}


class VectorEvalError(Exception):
    """Internal: the vectoriser met a construct it cannot handle."""


class Batched:
    """An array of per-index values over a with-loop box."""

    __slots__ = ("data", "box_rank")

    def __init__(self, data: np.ndarray, box_rank: int):
        self.data = np.asarray(data)
        self.box_rank = box_rank

    @property
    def element_rank(self) -> int:
        return self.data.ndim - self.box_rank

    def expanded(self, element_rank: int) -> np.ndarray:
        """Data with element axes padded (after the box axes) to a rank."""
        missing = element_rank - self.element_rank
        if missing <= 0:
            return self.data
        index: List[object] = [slice(None)] * self.box_rank
        index += [None] * missing
        index += [slice(None)] * self.element_rank
        return self.data[tuple(index)]


def _count_ops(expr: ast.Expr) -> int:
    """Operation-count proxy for a with-loop body (for the cost model)."""
    count = 0
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.BinOp, ast.UnOp, ast.Cond)):
            count += 1
        elif isinstance(node, ast.Call):
            count += 2
        elif isinstance(node, ast.Index):
            count += 1
    return max(count, 1)


def _count_reads(expr: ast.Expr) -> int:
    return sum(1 for node in ast.walk_expr(expr) if isinstance(node, ast.Index))


class NumpyEvaluator(Interpreter):
    """Interpreter subclass with vectorised with-loops and trace recording."""

    def __init__(
        self,
        module: ast.Module,
        defines: Optional[Dict[str, object]] = None,
        trace: Optional[ExecutionTrace] = None,
        scheduler: Optional[SchedulerOptions] = None,
    ):
        self.trace = trace if trace is not None else ExecutionTrace(enabled=False)
        self.scheduler = WithLoopScheduler(scheduler)
        self._suppress_elementwise = 0
        self._body_ops_cache: Dict[int, Tuple[int, int]] = {}
        super().__init__(module, defines)

    # ------------------------------------------------------------------
    # operator hooks: record array operations as parallel regions
    # ------------------------------------------------------------------

    def apply_binop(self, op: str, left, right):
        result = binary_op(op, left, right)
        self._record_elementwise(result, operands=2, label=f"binop:{op}")
        return result

    def apply_unop(self, op: str, operand):
        result = unary_op(op, operand)
        self._record_elementwise(result, operands=1, label=f"unop:{op}")
        return result

    def apply_builtin(self, builtin, args):
        result = builtin(*args)
        if builtin.name in _ELEMENTWISE_BUILTINS:
            self._record_elementwise(result, operands=len(args), label=builtin.name)
        elif builtin.name in _REDUCTION_BUILTINS and self._suppress_elementwise == 0:
            size = int(np.asarray(args[0]).size)
            if size > 1:
                self.trace.record(
                    "reduction", size, 1.0, size * 8, label=builtin.name
                )
        return result

    def _record_elementwise(self, result, operands: int, label: str) -> None:
        if self._suppress_elementwise:
            return
        array = np.asarray(result)
        if array.ndim == 0 or array.size <= 1:
            return
        self.trace.record(
            "elementwise",
            array.size,
            1.0,
            array.size * 8 * (operands + 1),
            label=label,
        )

    # ------------------------------------------------------------------
    # with-loops
    # ------------------------------------------------------------------

    def eval_with_loop(self, expr: ast.WithLoop, env: Dict):
        try:
            return self._vectorised_with_loop(expr, env)
        except VectorEvalError:
            return self._fallback_with_loop(expr, env)

    def _fallback_with_loop(self, expr: ast.WithLoop, env: Dict):
        self._suppress_elementwise += 1
        try:
            result = super().eval_with_loop(expr, env)
        finally:
            self._suppress_elementwise -= 1
        array = np.asarray(result)
        self.trace.record(
            "with_loop",
            max(array.size, 1),
            4.0,
            array.size * 8 * 2,
            label="with_loop(fallback)",
        )
        return result

    def _vectorised_with_loop(self, expr: ast.WithLoop, env: Dict):
        operation = expr.operation
        if isinstance(operation, ast.GenArray):
            frame = self._index_vector(operation.shape, env, "genarray shape")
            default = (
                self.eval_expr(operation.default, env)
                if operation.default is not None
                else None
            )
            return self._vector_genarray(expr, frame, default, env)
        if isinstance(operation, ast.ModArray):
            source = np.asarray(self.eval_expr(operation.array, env))
            if getattr(expr, "reuse_in_place", False) and source.flags.writeable:
                result = source
            else:
                result = source.copy()
            rank = self._generator_rank(expr.generators, default=source.ndim)
            for generator in expr.generators:
                lower, upper = self._bounds(generator, source.shape[:rank], env)
                self._run_generator(generator, lower, upper, result, env)
            return result
        if isinstance(operation, ast.Fold):
            return self._vector_fold(expr, operation, env)
        raise SacRuntimeError("unknown with-loop operation")

    def _index_vector(self, expr: ast.Expr, env, context: str) -> Tuple[int, ...]:
        from repro.sac import values as V

        return V.as_index_vector(self.eval_expr(expr, env), context)

    # -- genarray ---------------------------------------------------------

    def _vector_genarray(self, expr, frame, default, env):
        result: Optional[np.ndarray] = None
        for generator in expr.generators:
            lower, upper = self._bounds(generator, frame, env)
            if result is None:
                element = self._probe_element(generator, lower, upper, env, default)
                if element is None:
                    raise SacRuntimeError(f"{expr.span}: empty genarray with no default")
                shape = tuple(frame) + element.shape
                if default is not None:
                    result = (
                        np.broadcast_to(np.asarray(default), shape)
                        .astype(element.dtype)
                        .copy()
                    )
                else:
                    result = np.zeros(shape, dtype=element.dtype)
            self._run_generator(generator, lower, upper, result, env)
        if result is None:  # no generators at all
            if default is None:
                raise SacRuntimeError(f"{expr.span}: empty genarray with no default")
            element = np.asarray(default)
            return np.broadcast_to(element, tuple(frame) + element.shape).copy()
        return result

    def _probe_element(self, generator, lower, upper, env, default):
        """Element dtype/shape from a single-index evaluation (or default)."""
        if box_elements(lower, upper) == 0:
            return None if default is None else np.asarray(default)
        probe_upper = tuple(l + 1 for l in lower)
        value = self._eval_body_over_box(generator, lower, probe_upper, env)
        element = np.asarray(value.data)[(0,) * value.box_rank]
        return np.asarray(element)

    def _run_generator(self, generator, lower, upper, result, env) -> None:
        """Vector-evaluate one generator and write it into ``result``."""
        ops, reads = self._body_costs(generator.body)
        elements = box_elements(lower, upper)
        if elements == 0:
            return
        element_size = int(np.prod(result.shape[len(lower):], dtype=np.int64)) or 1

        def chunk(chunk_lower, chunk_upper):
            value = self._eval_body_over_box(generator, chunk_lower, chunk_upper, env)
            window = tuple(
                slice(low, high) for low, high in zip(chunk_lower, chunk_upper)
            )
            data = value.expanded(result.ndim - len(lower))
            result[window] = data

        self.scheduler.run(tuple(lower), tuple(upper), chunk)
        self.trace.record(
            "with_loop",
            elements,
            float(ops),
            elements * element_size * 8 * (reads + 1),
            label="with_loop",
        )

    # -- fold ---------------------------------------------------------------

    def _vector_fold(self, expr, operation: ast.Fold, env):
        accumulator = np.asarray(self.eval_expr(operation.neutral, env))
        for generator in expr.generators:
            if generator.upper is None:
                raise SacRuntimeError(
                    f"{generator.span}: fold generators need explicit bounds"
                )
            lower, upper = self._bounds(generator, (), env)
            elements = box_elements(lower, upper)
            if elements == 0:
                continue
            value = self._eval_body_over_box(generator, lower, upper, env)
            box_axes = tuple(range(value.box_rank))
            reducer_name = {"+": "sum", "*": "prod", "max": "maxval", "min": "minval"}[
                operation.op
            ]
            reducer = _REDUCERS[reducer_name]
            reduced = reducer(value.data, axis=box_axes) if box_axes else value.data
            if operation.op == "+":
                accumulator = accumulator + reduced
            elif operation.op == "*":
                accumulator = accumulator * reduced
            elif operation.op == "max":
                accumulator = np.maximum(accumulator, reduced)
            else:
                accumulator = np.minimum(accumulator, reduced)
            ops, _ = self._body_costs(generator.body)
            self.trace.record(
                "reduction", elements, float(ops), elements * 8, label=f"fold:{operation.op}"
            )
        return accumulator

    def _body_costs(self, body: ast.Expr) -> Tuple[int, int]:
        key = id(body)
        cached = self._body_ops_cache.get(key)
        if cached is None:
            cached = (_count_ops(body), _count_reads(body))
            self._body_ops_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    # the vectoriser proper
    # ------------------------------------------------------------------

    def _eval_body_over_box(self, generator, lower, upper, env) -> Batched:
        box_rank = len(lower)
        axes = [np.arange(low, high, dtype=np.int64) for low, high in zip(lower, upper)]
        grids = np.meshgrid(*axes, indexing="ij") if axes else []
        index_env: Dict[str, Batched] = {}
        if generator.vector_var:
            stacked = (
                np.stack(grids, axis=-1)
                if grids
                else np.zeros((0,), dtype=np.int64)
            )
            index_env[generator.index_vars[0]] = Batched(stacked, box_rank)
        else:
            for name, grid in zip(generator.index_vars, grids):
                index_env[name] = Batched(grid, box_rank)
        value = self._vec(generator.body, env, index_env, box_rank)
        if not isinstance(value, Batched):
            data = np.broadcast_to(
                np.asarray(value),
                tuple(high - low for low, high in zip(lower, upper))
                + np.asarray(value).shape,
            )
            value = Batched(data, box_rank)
        return value

    def _vec(self, expr: ast.Expr, env, index_env: Dict[str, Batched], box_rank: int):
        """Evaluate ``expr`` under a batched index environment.

        Returns a plain value (index-independent) or a :class:`Batched`.
        """
        if isinstance(expr, ast.IntLit):
            return np.int64(expr.value)
        if isinstance(expr, ast.DoubleLit):
            return np.float64(expr.value)
        if isinstance(expr, ast.BoolLit):
            return np.bool_(expr.value)
        if isinstance(expr, ast.Var):
            if expr.name in index_env:
                return index_env[expr.name]
            try:
                return env[expr.name]
            except KeyError:
                raise SacRuntimeError(
                    f"{expr.span}: undefined variable {expr.name!r}"
                ) from None
        if isinstance(expr, ast.ArrayLit):
            elements = [self._vec(e, env, index_env, box_rank) for e in expr.elements]
            if not any(isinstance(e, Batched) for e in elements):
                if not elements:
                    return np.zeros(0, dtype=np.int64)
                return np.stack([np.asarray(e) for e in elements])
            return self._stack_batched(elements, box_rank)
        if isinstance(expr, ast.BinOp):
            left = self._vec(expr.left, env, index_env, box_rank)
            right = self._vec(expr.right, env, index_env, box_rank)
            return self._vec_binop(expr.op, left, right, box_rank)
        if isinstance(expr, ast.UnOp):
            operand = self._vec(expr.operand, env, index_env, box_rank)
            if isinstance(operand, Batched):
                return Batched(unary_op(expr.op, operand.data), operand.box_rank)
            return unary_op(expr.op, operand)
        if isinstance(expr, ast.Cond):
            return self._vec_cond(expr, env, index_env, box_rank)
        if isinstance(expr, ast.Index):
            array = self._vec(expr.array, env, index_env, box_rank)
            indices = [self._vec(i, env, index_env, box_rank) for i in expr.indices]
            return self._vec_select(expr, array, indices, box_rank)
        if isinstance(expr, ast.Call):
            return self._vec_call(expr, env, index_env, box_rank)
        if isinstance(expr, (ast.WithLoop, ast.SetComprehension)):
            from repro.sac.opt.util import free_vars

            if free_vars(expr) & set(index_env):
                raise VectorEvalError("index-dependent nested with-loop")
            return self.eval_expr(expr, env)
        raise VectorEvalError(f"unsupported construct {type(expr).__name__}")

    # -- batched combinators ------------------------------------------------

    @staticmethod
    def _element_rank(value, box_rank: int) -> int:
        if isinstance(value, Batched):
            return value.element_rank
        return np.asarray(value).ndim

    def _vec_binop(self, op: str, left, right, box_rank: int):
        if not isinstance(left, Batched) and not isinstance(right, Batched):
            return binary_op(op, left, right)
        target = max(self._element_rank(left, box_rank), self._element_rank(right, box_rank))
        left_data = left.expanded(target) if isinstance(left, Batched) else np.asarray(left)
        right_data = right.expanded(target) if isinstance(right, Batched) else np.asarray(right)
        return Batched(binary_op(op, left_data, right_data), box_rank)

    def _vec_cond(self, expr: ast.Cond, env, index_env, box_rank: int):
        condition = self._vec(expr.condition, env, index_env, box_rank)
        if not isinstance(condition, Batched):
            branch = expr.then if bool(np.asarray(condition)) else expr.otherwise
            return self._vec(branch, env, index_env, box_rank)
        then = self._vec(expr.then, env, index_env, box_rank)
        otherwise = self._vec(expr.otherwise, env, index_env, box_rank)
        target = max(
            self._element_rank(then, box_rank), self._element_rank(otherwise, box_rank)
        )
        then_data = then.expanded(target) if isinstance(then, Batched) else np.asarray(then)
        other_data = (
            otherwise.expanded(target) if isinstance(otherwise, Batched) else np.asarray(otherwise)
        )
        condition_data = condition.expanded(target)
        return Batched(np.where(condition_data, then_data, other_data), box_rank)

    def _stack_batched(self, elements: List, box_rank: int) -> Batched:
        target = max(self._element_rank(e, box_rank) for e in elements)
        box_shape: Optional[Tuple[int, ...]] = None
        for element in elements:
            if isinstance(element, Batched):
                box_shape = element.data.shape[: element.box_rank]
                break
        assert box_shape is not None
        arrays = []
        for element in elements:
            if isinstance(element, Batched):
                arrays.append(element.expanded(target))
            else:
                data = np.asarray(element)
                arrays.append(
                    np.broadcast_to(data, box_shape + data.shape)
                    if data.ndim == target
                    else np.broadcast_to(data, box_shape + (1,) * (target - data.ndim) + data.shape)
                )
        stacked = np.stack(arrays, axis=box_rank)  # new element axis first
        return Batched(stacked, box_rank)

    def _vec_select(self, expr: ast.Index, array, indices: List, box_rank: int):
        if isinstance(array, Batched):
            # selection *into the element part* of a batched value, e.g. iv[0]
            if all(not isinstance(i, Batched) for i in indices):
                element_index = tuple(int(np.asarray(i)) for i in indices)
                selector = (slice(None),) * array.box_rank + element_index
                try:
                    return Batched(array.data[selector], array.box_rank)
                except IndexError as error:
                    raise SacRuntimeError(f"{expr.span}: {error}") from None
            raise VectorEvalError("batched index into batched value")

        base = np.asarray(array)
        if all(not isinstance(i, Batched) for i in indices):
            # fully index-independent: plain sel
            if len(indices) == 1:
                iv = indices[0]
            else:
                iv = np.asarray([int(np.asarray(i)) for i in indices], dtype=np.int64)
            return stdlib.BUILTINS["sel"](iv, base)

        # gather: build one integer grid per indexed axis
        grids: List[np.ndarray] = []
        if len(indices) == 1 and isinstance(indices[0], Batched) and indices[0].element_rank == 1:
            vector = indices[0]
            depth = vector.data.shape[-1]
            for axis in range(depth):
                grids.append(vector.data[..., axis])
        else:
            for index in indices:
                if isinstance(index, Batched):
                    if index.element_rank != 0:
                        raise VectorEvalError("non-scalar batched index component")
                    grids.append(index.data)
                else:
                    grids.append(np.asarray(index))
        if len(grids) > base.ndim:
            raise SacRuntimeError(
                f"{expr.span}: rank-{len(grids)} index into rank-{base.ndim} array"
            )
        for axis, grid in enumerate(grids):
            extent = base.shape[axis]
            low = int(grid.min()) if grid.size else 0
            high = int(grid.max()) if grid.size else -1
            if grid.size and (low < 0 or high >= extent):
                raise SacRuntimeError(
                    f"{expr.span}: sel: index {low if low < 0 else high} out of"
                    f" bounds for axis {axis} (extent {extent})"
                )
        try:
            gathered = base[tuple(grids)]
        except IndexError as error:
            raise SacRuntimeError(f"{expr.span}: {error}") from None
        return Batched(gathered, box_rank)

    def _vec_call(self, expr: ast.Call, env, index_env, box_rank: int):
        args = [self._vec(a, env, index_env, box_rank) for a in expr.args]
        any_batched = any(isinstance(a, Batched) for a in args)
        function = self.functions.get(expr.name)
        if function is not None and expr.module is None:
            if any_batched:
                raise VectorEvalError("user call on index-dependent data")
            return self.call_function(function, list(args))
        builtin = stdlib.lookup(expr.name, expr.module)
        if builtin is None:
            raise SacRuntimeError(f"{expr.span}: unknown function {expr.name!r}")
        if not any_batched:
            return builtin(*args)
        if builtin.name in _ELEMENTWISE_BUILTINS:
            if builtin.arity == 1:
                value = args[0]
                assert isinstance(value, Batched)
                return Batched(builtin.impl(value.data), value.box_rank)
            target = max(self._element_rank(a, box_rank) for a in args)
            datas = [
                a.expanded(target) if isinstance(a, Batched) else np.asarray(a)
                for a in args
            ]
            return Batched(builtin.impl(*datas), box_rank)
        if builtin.name in _REDUCTION_BUILTINS:
            value = args[0]
            assert isinstance(value, Batched)
            if value.element_rank == 0:
                return value  # reducing a scalar is the identity
            element_axes = tuple(
                range(value.box_rank, value.box_rank + value.element_rank)
            )
            reduced = _REDUCERS[builtin.name](value.data, axis=element_axes)
            return Batched(reduced, value.box_rank)
        if builtin.name in ("drop", "take") and isinstance(args[1], Batched) and not isinstance(args[0], Batched):
            value = args[1]
            counts = np.asarray(args[0]).reshape(-1)
            if len(counts) > value.element_rank:
                raise SacRuntimeError(
                    f"{expr.span}: {builtin.name}: too many counts for element rank"
                )
            slices: List[slice] = [slice(None)] * value.box_rank
            element_shape = value.data.shape[value.box_rank:]
            for count, extent in zip(counts, element_shape):
                count = int(count)
                if abs(count) > extent:
                    raise SacRuntimeError(
                        f"{expr.span}: {builtin.name}: count {count} exceeds extent {extent}"
                    )
                if builtin.name == "drop":
                    slices.append(slice(count, None) if count >= 0 else slice(None, extent + count))
                else:
                    slices.append(slice(None, count) if count >= 0 else slice(extent + count, None))
            return Batched(value.data[tuple(slices)], value.box_rank)
        if builtin.name == "shape":
            value = args[0]
            assert isinstance(value, Batched)
            element_shape = np.asarray(
                value.data.shape[value.box_rank:], dtype=np.int64
            )
            return element_shape
        if builtin.name == "dim":
            value = args[0]
            assert isinstance(value, Batched)
            return np.int64(value.element_rank)
        raise VectorEvalError(f"builtin {builtin.name} on index-dependent data")
