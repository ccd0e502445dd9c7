"""Independent may-race analysis for Fortran DO loops.

:mod:`repro.f90.depend` decides which loops the auto-paralleliser may
distribute; this module re-decides the question with a *different*
algorithm — affine cross-iteration subscript analysis instead of
plain-subscript matching — and :func:`cross_check_autopar` compares
the two verdicts loop by loop:

* a loop autopar marked ``parallel`` that this checker finds racy is
  a hard error (``F90-RACE001``): the annotation would let the
  runtime execute a racy loop concurrently — a miscompile;
* a loop autopar serialised that this checker proves independent is
  reported as missed parallelism (``F90-RACE002``, warning) together
  with autopar's own reason — the paper's "the compiler can not
  always work out the data dependences in complete detail" made
  visible.

The race test per array pair (write/write or write/read): subscripts
become :class:`~repro.analysis.deps.LinExpr` over the loop variable
and the loop-invariant scalars — the prover's algebra, but not
:mod:`repro.f90.depend`'s decision procedure, which this check must
stay independent of.  Two accesses may touch the same element in
*different* iterations only if every dimension may be equal under
``i1 != i2``; one protected dimension (same coefficient,
same terms, same constant, nonzero coefficient — or a constant offset
not divisible by the coefficient) proves disjointness.  Scalars must
be private (written before read, every iteration) or match a
reduction pattern; anything else is carried across iterations.  A
``CALL`` defeats the analysis, exactly as it defeats autopar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.deps import LinExpr
from repro.analysis.diag import DiagnosticEngine
from repro.f90 import ast
from repro.f90.depend import INTRINSIC_NAMES
from repro.sac.source import Span

__all__ = ["Race", "find_races", "cross_check_autopar"]

SOURCE = "f90-races"

_REDUCTION_INTRINSICS = {"MAX", "MIN"}


@dataclass(frozen=True)
class Race:
    """One may-race found in a DO loop."""

    variable: str
    kind: str  # 'array' | 'scalar' | 'call'
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind} {self.variable}: {self.detail}"


@dataclass
class _Access:
    name: str
    is_write: bool
    subscripts: Optional[List[ast.Section]]  # None = scalar access
    statement: ast.Stmt
    order: int


# --------------------------------------------------------------------------
# race detection
# --------------------------------------------------------------------------


def find_races(loop: ast.Do) -> List[Race]:
    """May-races between iterations of ``loop`` (empty = independent)."""
    accesses, inner_loop_vars, calls = _collect(loop.body)
    if calls:
        return [
            Race(name, "call", "CALL with unknown side effects inside the loop")
            for name in sorted(set(calls))
        ]
    races: List[Race] = []
    written_scalars = {
        a.name for a in accesses if a.is_write and a.subscripts is None
    }
    # Inner loop variables and written scalars change within one outer
    # iteration — subscripts through them are not loop-invariant.
    varying = written_scalars | set(inner_loop_vars) | {loop.var}
    races += _scalar_races(loop.var, accesses, inner_loop_vars)
    races += _array_races(loop.var, accesses, varying)
    return races


def _collect(
    statements: List[ast.Stmt],
) -> Tuple[List[_Access], List[str], List[str]]:
    accesses: List[_Access] = []
    inner_loop_vars: List[str] = []
    calls: List[str] = []
    counter = [0]

    def read_expr(expr: Optional[ast.Expr], statement: ast.Stmt) -> None:
        if expr is None:
            return
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.Ref):
                if node.has_parens and node.name in INTRINSIC_NAMES:
                    continue
                counter[0] += 1
                accesses.append(
                    _Access(
                        node.name,
                        False,
                        node.subscripts if node.has_parens else None,
                        statement,
                        counter[0],
                    )
                )

    def visit(statements: List[ast.Stmt]) -> None:
        for statement in statements:
            if isinstance(statement, ast.Assign):
                read_expr(statement.expr, statement)
                for section in statement.target.subscripts:
                    for child in (section.index, section.lower, section.upper):
                        read_expr(child, statement)
                counter[0] += 1
                accesses.append(
                    _Access(
                        statement.target.name,
                        True,
                        statement.target.subscripts
                        if statement.target.has_parens
                        else None,
                        statement,
                        counter[0],
                    )
                )
            elif isinstance(statement, ast.If):
                read_expr(statement.condition, statement)
                visit(statement.then_body)
                for condition, block in statement.elif_blocks:
                    read_expr(condition, statement)
                    visit(block)
                visit(statement.else_body)
            elif isinstance(statement, ast.Do):
                inner_loop_vars.append(statement.var)
                read_expr(statement.lower, statement)
                read_expr(statement.upper, statement)
                read_expr(statement.step, statement)
                visit(statement.body)
            elif isinstance(statement, ast.DoWhile):
                read_expr(statement.condition, statement)
                visit(statement.body)
            elif isinstance(statement, ast.Call):
                calls.append(statement.name)
            elif isinstance(statement, ast.Print):
                for item in statement.items:
                    read_expr(item, statement)

    visit(statements)
    return accesses, inner_loop_vars, calls


def _scalar_races(
    var: str, accesses: List[_Access], inner_loop_vars: List[str]
) -> List[Race]:
    races: List[Race] = []
    scalar_names = {a.name for a in accesses if a.subscripts is None}
    scalar_names.discard(var)
    for name in sorted(scalar_names):
        if name in inner_loop_vars:
            continue  # each iteration re-initialises its inner loop counter
        touching = [a for a in accesses if a.name == name and a.subscripts is None]
        writes = [a for a in touching if a.is_write]
        if not writes:
            continue  # read-only shared scalar
        if _is_reduction(name, touching, writes):
            continue
        first = min(touching, key=lambda a: a.order)
        if (
            first.is_write
            and isinstance(first.statement, ast.Assign)
            and not _mentions(first.statement.expr, name)
        ):
            continue  # private: defined before use every iteration
        races.append(
            Race(
                name,
                "scalar",
                "written and read across iterations without a private "
                "definition or reduction pattern",
            )
        )
    return races


def _is_reduction(
    name: str, touching: List[_Access], writes: List[_Access]
) -> bool:
    operators = set()
    for write in writes:
        statement = write.statement
        if not isinstance(statement, ast.Assign):
            return False
        operator = _reduction_operator(statement)
        if operator is None:
            return False
        operators.add(operator)
    if len(operators) != 1:
        return False
    write_statements = {id(w.statement) for w in writes}
    reads_elsewhere = [
        a
        for a in touching
        if not a.is_write and id(a.statement) not in write_statements
    ]
    return not reads_elsewhere


def _reduction_operator(statement: ast.Assign) -> Optional[str]:
    name = statement.target.name
    expr = statement.expr
    if (
        isinstance(expr, ast.Ref)
        and expr.has_parens
        and expr.name in _REDUCTION_INTRINSICS
    ):
        operands = [s.index for s in expr.subscripts]
        if any(_is_plain(operand, name) for operand in operands):
            return expr.name
        return None
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "*"):
        if _is_plain(expr.left, name) or _is_plain(expr.right, name):
            return expr.op
    return None


def _array_races(
    var: str, accesses: List[_Access], varying_scalars: set
) -> List[Race]:
    """Write/write and write/read conflicts between iterations."""
    races: List[Race] = []
    array_names = {a.name for a in accesses if a.subscripts is not None}
    for name in sorted(array_names):
        touching = [
            a for a in accesses if a.name == name and a.subscripts is not None
        ]
        writes = [a for a in touching if a.is_write]
        if not writes:
            continue
        conflict = None
        for write in writes:
            # every access (the write itself included — a write/write
            # self-conflict means two iterations hit the same element)
            for other in touching:
                if _may_conflict(
                    var, write.subscripts, other.subscripts, varying_scalars
                ):
                    role = "write" if other.is_write else "read"
                    conflict = (
                        f"a {role} may hit an element written in a "
                        "different iteration"
                    )
                    break
            if conflict:
                break
        if conflict:
            races.append(Race(name, "array", conflict))
    return races


def _may_conflict(
    var: str,
    write_subscripts: Optional[List[ast.Section]],
    other_subscripts: Optional[List[ast.Section]],
    varying_scalars: set,
) -> bool:
    """Can the two accesses touch the same element with ``i1 != i2``?"""
    if write_subscripts is None or other_subscripts is None:
        return True
    if len(write_subscripts) != len(other_subscripts):
        return True  # rank mismatch — stay conservative
    for one, two in zip(write_subscripts, other_subscripts):
        if not _dim_may_equal_across_iterations(var, one, two, varying_scalars):
            return False  # this dimension proves disjointness
    return True


def _dim_may_equal_across_iterations(
    var: str,
    one: ast.Section,
    two: ast.Section,
    varying_scalars: set,
) -> bool:
    if one.is_range or two.is_range:
        return True
    first = _affine(one.index, var, varying_scalars)
    second = _affine(two.index, var, varying_scalars)
    if first is None or second is None:
        return True
    coef1, coef2 = first.coef(var), second.coef(var)
    rest1, rest2 = first.subst(var, 0), second.subst(var, 0)
    if rest1.terms != rest2.terms:
        return True  # different invariant symbols — can't compare
    if coef1 != coef2:
        # e.g. A(i) vs A(2*i): equal whenever (coef1-coef2) divides
        # the constant gap — almost always satisfiable somewhere
        return True
    if coef1 == 0:
        # iteration-invariant on both sides: the same element every
        # iteration iff the constants agree
        return rest1.const == rest2.const
    # same nonzero coefficient: i1 - i2 == (const2 - const1) / coef
    delta = rest2.const - rest1.const
    return delta != 0 and delta % coef1 == 0


def _affine(
    expr: Optional[ast.Expr], var: str, varying_scalars: set
) -> Optional[LinExpr]:
    """``expr`` over the loop variable and loop-invariant scalars."""
    if expr is None:
        return None
    if isinstance(expr, ast.IntLit):
        return LinExpr.of(expr.value)
    if isinstance(expr, ast.Ref) and not expr.has_parens:
        if expr.name != var and expr.name in varying_scalars:
            return None  # value changes between iterations
        return LinExpr.var(expr.name)
    if isinstance(expr, ast.UnOp) and expr.op in ("+", "-"):
        inner = _affine(expr.operand, var, varying_scalars)
        if inner is None or expr.op == "+":
            return inner
        return -inner
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-", "*"):
        left = _affine(expr.left, var, varying_scalars)
        right = _affine(expr.right, var, varying_scalars)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        for scalar, other in ((left, right), (right, left)):
            if scalar.is_const:  # pure integer constant
                return other * scalar.const
    return None


def _is_plain(expr: Optional[ast.Expr], name: str) -> bool:
    return isinstance(expr, ast.Ref) and expr.name == name and not expr.has_parens


def _mentions(expr: Optional[ast.Expr], name: str) -> bool:
    if expr is None:
        return False
    return any(
        isinstance(node, ast.Ref) and node.name == name and not node.has_parens
        for node in ast.walk_expr(expr)
    )


# --------------------------------------------------------------------------
# cross-check against autopar
# --------------------------------------------------------------------------


def cross_check_autopar(
    unit: ast.ProgramUnit,
    *,
    engine: Optional[DiagnosticEngine] = None,
) -> DiagnosticEngine:
    """Compare this checker's verdicts with autopar's annotations.

    ``unit`` must already be annotated by
    :func:`repro.f90.autopar.autoparallelize`.  Loop labels match the
    :class:`~repro.f90.autopar.AutoparReport` format
    (``SUBROUTINE:var@line``).
    """
    engine = engine if engine is not None else DiagnosticEngine()
    for subroutine in unit.subroutines.values():
        for statement in ast.walk_stmts(subroutine.body):
            if isinstance(statement, ast.Do):
                _check_loop(statement, subroutine.name, engine)
    return engine


def _check_loop(loop: ast.Do, where: str, engine: DiagnosticEngine) -> None:
    label = f"{where}:{loop.var}@{loop.line}"
    races = find_races(loop)
    span = Span(loop.line, 0)
    if loop.parallel and races:
        engine.error(
            "F90-RACE001",
            f"autopar marked loop {label} parallel but it may race",
            source=SOURCE,
            where=label,
            span=span,
            notes=tuple(str(race) for race in races),
        )
    elif not loop.parallel and not races:
        reason = loop.serial_reason or "no reason recorded"
        if reason == "auto-parallelisation disabled":
            return  # the whole pass was off; not a dependence disagreement
        engine.warning(
            "F90-RACE002",
            f"loop {label} is provably independent but autopar "
            "serialised it",
            source=SOURCE,
            where=label,
            span=span,
            notes=(f"autopar's reason: {reason}",),
        )
