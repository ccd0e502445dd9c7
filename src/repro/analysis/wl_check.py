"""With-loop write-disjointness and index-bounds checking.

The paper's claim that the SaC compiler "may parallelise every
with-loop" rests on partitions being *disjoint* (no two generators
write the same cell) and *in bounds* (every write lands inside the
result frame).  Each generator becomes one box with affine
:class:`~repro.analysis.deps.LinExpr` sides — constants, defines and
*symbols* (a scalar ``int`` parameter like ``n`` in
``[0] <= [i] < [n]``) — and the shared dependence prover
(:func:`repro.analysis.deps.box_relation`) decides every generator
pair: a constant box is the zero-symbol case, decided exactly; with
symbols a verdict is proven disjoint under the symbols-nonnegative
assumption, or proven overlapping with a concrete witness.  The frame,
body-offset and coverage checks read a box without symbols.  Anything
undecidable stays silent: zero false positives.

Codes:

``SAC-WL001``
    A generator's box sticks out of the result frame, or an indexing
    in a generator body provably reads outside a known array extent
    for some index in the box (NumPy would wrap negative indices
    silently — the classic silent wrong answer).
``SAC-WL002``
    Two generators of one with-loop overlap: the same cell is written
    twice, so parallel execution of the partitions would race (the
    serial interpreter hides this — last generator wins).  With
    symbolic bounds the diagnostic names a concrete witness assignment.
``SAC-WL003``
    A ``genarray`` without a default whose generators provably do not
    cover the frame (warning: this implementation zero-fills the gap,
    real SaC rejects the program).
``SAC-WL004``
    Note: every generator pair of a with-loop with *symbolic* bounds
    was proven disjoint, assuming the size symbols are nonnegative
    integers — the positive verdict the paper's parallelization story
    needs, made visible.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis import deps
from repro.analysis.diag import DiagnosticEngine
from repro.sac import ast

__all__ = ["check_with_loops"]

SOURCE = "wl-check"

#: (lower, upper) integer vectors of a half-open box without symbols
Corners = Tuple[Tuple[int, ...], Tuple[int, ...]]


def check_with_loops(
    module: ast.Module,
    defines: Optional[Dict[str, object]] = None,
    *,
    engine: Optional[DiagnosticEngine] = None,
    stage: Optional[str] = None,
) -> DiagnosticEngine:
    """Check every with-loop in ``module``; returns the engine."""
    engine = engine if engine is not None else DiagnosticEngine()
    consts: Dict[str, np.ndarray] = {}
    for name, value in (defines or {}).items():
        consts[name] = np.asarray(value)
    for definition in module.globals:
        value = _const_eval(definition.expr, consts)
        if value is not None:
            consts[definition.name] = value
    for function in module.functions:
        _check_block(function.body, dict(consts), function.name, engine, stage)
    return engine


def _check_block(
    statements: List[ast.Stmt],
    consts: Dict[str, np.ndarray],
    where: str,
    engine: DiagnosticEngine,
    stage: Optional[str],
) -> None:
    for statement in statements:
        if isinstance(statement, (ast.Assign, ast.Return)):
            _check_expr(statement.expr, consts, where, engine, stage)
            if isinstance(statement, ast.Assign):
                value = _const_eval(statement.expr, consts)
                if value is not None:
                    consts[statement.name] = value
                else:
                    consts.pop(statement.name, None)
        elif isinstance(statement, ast.If):
            _check_expr(statement.condition, consts, where, engine, stage)
            _check_block(statement.then_body, dict(consts), where, engine, stage)
            _check_block(statement.else_body, dict(consts), where, engine, stage)
            # branch assignments invalidate straight-line constants
            for name in _assigned_names(statement.then_body):
                consts.pop(name, None)
            for name in _assigned_names(statement.else_body):
                consts.pop(name, None)
        elif isinstance(statement, (ast.For, ast.While)):
            # nothing assigned in the body is constant across iterations
            body = list(statement.body)
            if isinstance(statement, ast.For):
                body += [statement.init, statement.update]
            loop_consts = dict(consts)
            for name in _assigned_names(body):
                loop_consts.pop(name, None)
            _check_expr(statement.condition, loop_consts, where, engine, stage)
            _check_block(statement.body, dict(loop_consts), where, engine, stage)
            for name in _assigned_names(body):
                consts.pop(name, None)


def _assigned_names(statements: Iterable[ast.Stmt]) -> List[str]:
    names: List[str] = []
    for statement in statements:
        if isinstance(statement, ast.Assign):
            names.append(statement.name)
        elif isinstance(statement, ast.If):
            names += _assigned_names(statement.then_body)
            names += _assigned_names(statement.else_body)
        elif isinstance(statement, ast.For):
            names.append(statement.init.name)
            names.append(statement.update.name)
            names += _assigned_names(statement.body)
        elif isinstance(statement, ast.While):
            names += _assigned_names(statement.body)
    return names


def _check_expr(
    expr: ast.Expr,
    consts: Dict[str, np.ndarray],
    where: str,
    engine: DiagnosticEngine,
    stage: Optional[str],
) -> None:
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.WithLoop):
            _check_with_loop(node, consts, where, engine, stage)
        elif isinstance(node, ast.SetComprehension):
            _check_set_comprehension(node, consts, where, engine, stage)


# --------------------------------------------------------------------------
# one with-loop
# --------------------------------------------------------------------------


def _check_with_loop(
    loop: ast.WithLoop,
    consts: Dict[str, np.ndarray],
    where: str,
    engine: DiagnosticEngine,
    stage: Optional[str],
) -> None:
    frame = _frame_of(loop, consts)
    boxes = [
        _generator_box(generator, frame, consts)
        for generator in loop.generators
    ]
    corners = [_corners(box) for box in boxes]

    for generator, corner in zip(loop.generators, corners):
        if corner is None:
            continue
        lower, upper = corner
        if frame is not None:
            rank = len(lower)
            if rank > len(frame):
                engine.error(
                    "SAC-WL001",
                    f"rank-{rank} generator over a rank-{len(frame)} frame",
                    source=SOURCE,
                    where=where,
                    span=generator.span,
                    stage=stage,
                )
                continue
            if any(lo < 0 for lo in lower) or any(
                hi > extent for hi, extent in zip(upper, frame)
            ):
                engine.error(
                    "SAC-WL001",
                    f"generator box {list(lower)}..{list(upper)} exceeds "
                    f"the result frame {list(frame[:rank])}",
                    source=SOURCE,
                    where=where,
                    span=generator.span,
                    stage=stage,
                )
        if not generator.vector_var:
            _check_offsets(
                generator.index_vars, generator.body, corner, where, engine, stage
            )

    # pairwise disjointness: the shared dependence prover decides every
    # pair — a constant pair exactly, a pair with symbols for all
    # nonnegative values of the size symbols.
    symbolic = False
    proven_pairs = 0
    total_pairs = 0
    for first in range(len(boxes)):
        for second in range(first + 1, len(boxes)):
            total_pairs += 1
            one, two = boxes[first], boxes[second]
            if one is None or two is None or len(one[0]) != len(two[0]):
                continue
            symbolic = symbolic or None in (corners[first], corners[second])
            verdict, witness = deps.box_relation(one, two)
            if verdict == "overlap":
                at = ""
                if witness:
                    values = ", ".join(
                        f"{name} = {value}"
                        for name, value in sorted(witness.items())
                    )
                    at = f" (e.g. at {values})"
                engine.error(
                    "SAC-WL002",
                    f"generators {first + 1} and {second + 1} overlap{at}: "
                    f"{_box_text(one)} intersects {_box_text(two)} "
                    "(the partitions are not disjoint, so they cannot "
                    "be run in parallel)",
                    source=SOURCE,
                    where=where,
                    span=loop.generators[second].span,
                    stage=stage,
                )
            elif verdict == "disjoint":
                proven_pairs += 1
    if symbolic and proven_pairs == total_pairs:
        engine.note(
            "SAC-WL004",
            f"all {total_pairs} generator pair(s) proven disjoint with "
            "symbolic bounds, assuming the size symbols are nonnegative "
            "integers — the partitions may run in parallel",
            source=SOURCE,
            where=where,
            span=loop.span,
            stage=stage,
        )

    _check_coverage(loop, frame, corners, where, engine, stage)


def _frame_of(
    loop: ast.WithLoop, consts: Dict[str, np.ndarray]
) -> Optional[Tuple[int, ...]]:
    operation = loop.operation
    if isinstance(operation, ast.GenArray):
        shape = _const_eval(operation.shape, consts)
        if shape is None:
            return None
        vector = np.atleast_1d(shape)
        if vector.ndim != 1 or not np.issubdtype(vector.dtype, np.integer):
            return None
        return tuple(int(v) for v in vector)
    if isinstance(operation, ast.ModArray):
        sac_type = getattr(operation.array, "sac_type", None)
        dims = getattr(sac_type, "dims", None)
        if dims is None or any(d is None for d in dims):
            return None
        return tuple(dims) + tuple(getattr(sac_type, "suffix", ()))
    return None  # fold: no frame, bounds are explicit


def _sym_scalar(
    expr: ast.Expr, name: Callable[[ast.Var], Optional[deps.LinExpr]]
) -> Optional[deps.LinExpr]:
    """``expr`` as an affine expression; None when it is not one.

    ``name`` says what a variable means — a constant, a symbol, or
    (None) something the expression cannot be affine in.
    """
    if isinstance(expr, ast.IntLit):
        return deps.LinExpr.of(expr.value)
    if isinstance(expr, ast.Var):
        return name(expr)
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        inner = _sym_scalar(expr.operand, name)
        return None if inner is None else -inner
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-", "*"):
        left = _sym_scalar(expr.left, name)
        right = _sym_scalar(expr.right, name)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        for scalar, other in ((left, right), (right, left)):
            if scalar.is_const:
                return other * scalar.const
    return None


def _bound_name(
    var: ast.Var, consts: Dict[str, np.ndarray]
) -> Optional[deps.LinExpr]:
    """A name in a generator bound: a define or constant is its value,
    and an unknown name is a symbol only when the type checker annotated
    it as a scalar ``int`` — an unannotated or non-scalar name stays
    unprovable (None) rather than guessed."""
    known = consts.get(var.name)
    if known is not None:
        if known.ndim == 0 and np.issubdtype(known.dtype, np.integer):
            return deps.LinExpr.of(int(known))
        return None
    sac_type = getattr(var, "sac_type", None)
    if (
        sac_type is not None
        and getattr(sac_type, "base", None) == "int"
        and getattr(sac_type, "dims", None) == ()
        and getattr(sac_type, "suffix", ()) == ()
    ):
        return deps.LinExpr.var(var.name)
    return None


def _sym_bound(
    expr: ast.Expr, consts: Dict[str, np.ndarray]
) -> Optional[Tuple[deps.LinExpr, ...]]:
    """A bound vector with affine (possibly symbolic) components."""
    value = _const_eval(expr, consts)
    if value is not None:
        vector = np.atleast_1d(value)
        if vector.ndim != 1 or not np.issubdtype(vector.dtype, np.integer):
            return None
        return tuple(deps.LinExpr.of(int(v)) for v in vector)
    if isinstance(expr, ast.ArrayLit):
        elements = [
            _sym_scalar(e, lambda var: _bound_name(var, consts))
            for e in expr.elements
        ]
        if any(e is None for e in elements):
            return None
        return tuple(elements)  # type: ignore[arg-type]
    return None


def _generator_box(
    generator: ast.Generator,
    frame: Optional[Tuple[int, ...]],
    consts: Dict[str, np.ndarray],
) -> Optional[deps.SymBox]:
    """The generator's half-open box with affine sides; None = unprovable."""
    rank = None if generator.vector_var else len(generator.index_vars)
    lower = (
        _sym_bound(generator.lower, consts)
        if generator.lower is not None
        else None
    )
    upper = (
        _sym_bound(generator.upper, consts)
        if generator.upper is not None
        else None
    )
    if generator.lower is not None and lower is None:
        return None
    if generator.upper is not None and upper is None:
        return None
    if upper is None and frame is None:
        return None
    if rank is None:
        for candidate in (lower, upper):
            if candidate is not None:
                rank = len(candidate)
                break
        else:
            rank = len(frame)  # type: ignore[arg-type]
    if lower is None:
        lower = tuple(deps.LinExpr() for _ in range(rank))
    if upper is None:
        upper = tuple(deps.LinExpr.of(int(v)) for v in frame[:rank])
        inclusive_upper = False
    else:
        inclusive_upper = generator.upper_inclusive
    if len(lower) != rank or len(upper) != rank:
        return None
    low_shift = 0 if generator.lower_inclusive or generator.lower is None else 1
    low = tuple(lo + low_shift for lo in lower)
    high = tuple(hi + (1 if inclusive_upper else 0) for hi in upper)
    return low, high


def _corners(box: Optional[deps.SymBox]) -> Optional[Corners]:
    """The integer corners of a box without symbols, else None."""
    if box is None or not all(side.is_const for side in box[0] + box[1]):
        return None
    return tuple(s.const for s in box[0]), tuple(s.const for s in box[1])


def _box_text(box: deps.SymBox) -> str:
    lowers = ", ".join(str(e) for e in box[0])
    uppers = ", ".join(str(e) for e in box[1])
    return f"[{lowers}]..[{uppers}]"


def _boxes_overlap(one: Corners, two: Corners) -> bool:
    if _box_volume(one) == 0 or _box_volume(two) == 0:
        return False
    return all(
        max(lo1, lo2) < min(hi1, hi2)
        for lo1, lo2, hi1, hi2 in zip(one[0], two[0], one[1], two[1])
    )


def _box_volume(box: Corners) -> int:
    return math.prod(max(0, hi - lo) for lo, hi in zip(box[0], box[1]))


def _check_coverage(
    loop: ast.WithLoop,
    frame: Optional[Tuple[int, ...]],
    boxes: List[Optional[Corners]],
    where: str,
    engine: DiagnosticEngine,
    stage: Optional[str],
) -> None:
    operation = loop.operation
    if not isinstance(operation, ast.GenArray) or operation.default is not None:
        return
    if frame is None or any(box is None for box in boxes):
        return
    ranks = {len(box[0]) for box in boxes}  # type: ignore[index]
    if len(ranks) != 1:
        return
    rank = ranks.pop()
    if rank > len(frame):
        return  # already a SAC-WL001
    clipped = [
        (
            tuple(max(0, lo) for lo in box[0]),  # type: ignore[index]
            tuple(min(hi, extent) for hi, extent in zip(box[1], frame)),  # type: ignore[index]
        )
        for box in boxes
    ]
    for first in range(len(clipped)):
        for second in range(first + 1, len(clipped)):
            if _boxes_overlap(clipped[first], clipped[second]):
                return  # volumes would double count; SAC-WL002 already fired
    covered = sum(_box_volume(box) for box in clipped)
    total = math.prod(frame[:rank])
    if covered < total:
        engine.warning(
            "SAC-WL003",
            f"generators cover {covered} of {total} cells and the genarray "
            "has no default (this implementation zero-fills the gap; "
            "real SaC rejects non-covering partitions)",
            source=SOURCE,
            where=where,
            span=loop.span,
            stage=stage,
        )


# --------------------------------------------------------------------------
# body indexings (offsets must stay in shape)
# --------------------------------------------------------------------------


def _check_set_comprehension(
    comp: ast.SetComprehension,
    consts: Dict[str, np.ndarray],
    where: str,
    engine: DiagnosticEngine,
    stage: Optional[str],
) -> None:
    """``{ [i] -> e | [i] < shape }`` is a one-generator genarray over
    ``[0, shape)`` — its body indexings get the same offset check."""
    if comp.vector_var or comp.bound is None:
        return
    bound = _const_eval(comp.bound, consts)
    if bound is None:
        return
    vector = np.atleast_1d(bound)
    if vector.ndim != 1 or not np.issubdtype(vector.dtype, np.integer):
        return
    if len(vector) != len(comp.index_vars):
        return
    box = (
        tuple(0 for _ in comp.index_vars),
        tuple(int(v) for v in vector),
    )
    _check_offsets(comp.index_vars, comp.body, box, where, engine, stage)


def _check_offsets(
    index_vars: List[str],
    body: ast.Expr,
    box: Corners,
    where: str,
    engine: DiagnosticEngine,
    stage: Optional[str],
) -> None:
    lower, upper = box
    if _box_volume(box) == 0:
        return
    axis_of = {name: axis for axis, name in enumerate(index_vars)}

    def index_var(var: ast.Var) -> Optional[deps.LinExpr]:
        # a body index is affine in the generator's index variables only
        return deps.LinExpr.var(var.name) if var.name in axis_of else None

    for node in ast.walk_expr(body):
        if not isinstance(node, ast.Index) or not isinstance(node.array, ast.Var):
            continue
        sac_type = getattr(node.array, "sac_type", None)
        dims = getattr(sac_type, "dims", None)
        if dims is None or any(d is None for d in dims):
            continue
        extents = tuple(dims) + tuple(getattr(sac_type, "suffix", ()))
        for position, index_expr in enumerate(node.indices):
            if position >= len(extents):
                break
            affine = _sym_scalar(index_expr, index_var)
            if affine is None:
                continue
            smallest = largest = affine.const
            for name, coefficient in affine.terms:
                lo, hi = lower[axis_of[name]], upper[axis_of[name]] - 1
                smallest += min(coefficient * lo, coefficient * hi)
                largest += max(coefficient * lo, coefficient * hi)
            if smallest < 0 or largest >= extents[position]:
                engine.error(
                    "SAC-WL001",
                    f"index into '{node.array.name}' spans "
                    f"[{smallest}, {largest}] over the generator box but "
                    f"dimension {position} has extent {extents[position]}",
                    source=SOURCE,
                    where=where,
                    span=node.span,
                    stage=stage,
                )


# --------------------------------------------------------------------------
# constant evaluation
# --------------------------------------------------------------------------


def _const_eval(
    expr: ast.Expr, consts: Dict[str, np.ndarray]
) -> Optional[np.ndarray]:
    """Evaluate compile-time constants (literals, defines, arithmetic)."""
    if isinstance(expr, ast.IntLit):
        return np.asarray(expr.value)
    if isinstance(expr, ast.DoubleLit):
        return np.asarray(expr.value)
    if isinstance(expr, ast.BoolLit):
        return np.asarray(expr.value)
    if isinstance(expr, ast.Var):
        return consts.get(expr.name)
    if isinstance(expr, ast.ArrayLit):
        elements = [_const_eval(e, consts) for e in expr.elements]
        if any(e is None for e in elements):
            return None
        try:
            return np.stack(elements)  # type: ignore[arg-type]
        except ValueError:
            return None
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        operand = _const_eval(expr.operand, consts)
        return None if operand is None else -operand
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-", "*", "/", "%"):
        left = _const_eval(expr.left, consts)
        right = _const_eval(expr.right, consts)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "%":
                return left % right
            if np.issubdtype(left.dtype, np.integer) and np.issubdtype(
                right.dtype, np.integer
            ):
                return left // right
            return left / right
        except (ValueError, ZeroDivisionError, FloatingPointError):
            return None
    return None
