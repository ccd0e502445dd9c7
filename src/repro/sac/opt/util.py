"""Shared utilities for the AST-level optimisation passes.

All SaC expressions are pure (the language is side-effect free — the
property the paper credits for the compiler's freedom to reorganise
code), so passes may freely deduplicate, substitute and delete
expressions as long as data dependencies are respected.  The helpers
here provide structural keys, substitution with capture avoidance for
with-loop index variables, use counting and fresh-name generation.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sac import ast

_fresh_counter = itertools.count()


def fresh_name(hint: str = "tmp") -> str:
    """A name no source program can contain (dots are not identifier chars)."""
    return f"_{hint}.{next(_fresh_counter)}"


# --------------------------------------------------------------------------
# structural keys (for CSE and fixpoint detection)
# --------------------------------------------------------------------------


def expr_key(expr: ast.Expr) -> Tuple:
    """Hashable structural key; alpha-insensitive to spans, not to names."""
    if isinstance(expr, ast.IntLit):
        return ("int", expr.value)
    if isinstance(expr, ast.DoubleLit):
        return ("double", expr.value)
    if isinstance(expr, ast.BoolLit):
        return ("bool", expr.value)
    if isinstance(expr, ast.Var):
        return ("var", expr.name)
    if isinstance(expr, ast.ArrayLit):
        return ("array",) + tuple(expr_key(e) for e in expr.elements)
    if isinstance(expr, ast.BinOp):
        return ("bin", expr.op, expr_key(expr.left), expr_key(expr.right))
    if isinstance(expr, ast.UnOp):
        return ("un", expr.op, expr_key(expr.operand))
    if isinstance(expr, ast.Cond):
        return (
            "cond",
            expr_key(expr.condition),
            expr_key(expr.then),
            expr_key(expr.otherwise),
        )
    if isinstance(expr, ast.Call):
        return ("call", expr.module, expr.name) + tuple(expr_key(a) for a in expr.args)
    if isinstance(expr, ast.Index):
        return ("index", expr_key(expr.array)) + tuple(expr_key(i) for i in expr.indices)
    if isinstance(expr, ast.WithLoop):
        generators = tuple(
            (
                tuple(g.index_vars),
                g.vector_var,
                None if g.lower is None else expr_key(g.lower),
                None if g.upper is None else expr_key(g.upper),
                g.lower_inclusive,
                g.upper_inclusive,
                expr_key(g.body),
            )
            for g in expr.generators
        )
        operation = expr.operation
        if isinstance(operation, ast.GenArray):
            op_key = (
                "genarray",
                expr_key(operation.shape),
                None if operation.default is None else expr_key(operation.default),
            )
        elif isinstance(operation, ast.ModArray):
            op_key = ("modarray", expr_key(operation.array))
        else:
            op_key = ("fold", operation.op, expr_key(operation.neutral))
        return ("with", generators, op_key)
    if isinstance(expr, ast.SetComprehension):
        return (
            "set",
            tuple(expr.index_vars),
            expr.vector_var,
            expr_key(expr.body),
            None if expr.bound is None else expr_key(expr.bound),
        )
    raise TypeError(f"unknown expression {type(expr).__name__}")


def stmt_key(statement: ast.Stmt) -> Tuple:
    if isinstance(statement, ast.Assign):
        return ("assign", statement.name, expr_key(statement.expr))
    if isinstance(statement, ast.Return):
        return ("return", expr_key(statement.expr))
    if isinstance(statement, ast.If):
        return (
            "if",
            expr_key(statement.condition),
            tuple(stmt_key(s) for s in statement.then_body),
            tuple(stmt_key(s) for s in statement.else_body),
        )
    if isinstance(statement, ast.For):
        return (
            "for",
            stmt_key(statement.init),
            expr_key(statement.condition),
            stmt_key(statement.update),
            tuple(stmt_key(s) for s in statement.body),
        )
    if isinstance(statement, ast.While):
        return (
            "while",
            expr_key(statement.condition),
            tuple(stmt_key(s) for s in statement.body),
        )
    raise TypeError(f"unknown statement {type(statement).__name__}")


def block_key(statements: Iterable[ast.Stmt]) -> Tuple:
    return tuple(stmt_key(s) for s in statements)


# --------------------------------------------------------------------------
# variable analysis
# --------------------------------------------------------------------------


def free_vars(expr: ast.Expr, bound: Optional[Set[str]] = None) -> Set[str]:
    """Free variables of an expression (respects with-loop binders)."""
    bound = bound or set()
    result: Set[str] = set()

    def visit(node: ast.Expr, bound: Set[str]) -> None:
        if isinstance(node, ast.Var):
            if node.name not in bound:
                result.add(node.name)
            return
        if isinstance(node, ast.WithLoop):
            for generator in node.generators:
                if generator.lower is not None:
                    visit(generator.lower, bound)
                if generator.upper is not None:
                    visit(generator.upper, bound)
                visit(generator.body, bound | set(generator.index_vars))
            operation = node.operation
            if isinstance(operation, ast.GenArray):
                visit(operation.shape, bound)
                if operation.default is not None:
                    visit(operation.default, bound)
            elif isinstance(operation, ast.ModArray):
                visit(operation.array, bound)
            else:
                visit(operation.neutral, bound)
            return
        if isinstance(node, ast.SetComprehension):
            visit(node.body, bound | set(node.index_vars))
            if node.bound is not None:
                visit(node.bound, bound)
            return
        if isinstance(node, ast.ArrayLit):
            children = node.elements
        elif isinstance(node, ast.BinOp):
            children = [node.left, node.right]
        elif isinstance(node, ast.UnOp):
            children = [node.operand]
        elif isinstance(node, ast.Cond):
            children = [node.condition, node.then, node.otherwise]
        elif isinstance(node, ast.Call):
            children = node.args
        elif isinstance(node, ast.Index):
            children = [node.array] + node.indices
        else:
            children = []
        for child in children:
            visit(child, bound)

    visit(expr, set(bound))
    return result


def count_uses(statements: List[ast.Stmt]) -> Dict[str, int]:
    """How many times each variable is *read* in a statement list."""
    counts: Dict[str, int] = {}

    def add_expr(expr: ast.Expr) -> None:
        for name in _read_occurrences(expr):
            counts[name] = counts.get(name, 0) + 1

    def walk(statements: List[ast.Stmt]) -> None:
        for statement in statements:
            if isinstance(statement, ast.Assign):
                add_expr(statement.expr)
            elif isinstance(statement, ast.Return):
                add_expr(statement.expr)
            elif isinstance(statement, ast.If):
                add_expr(statement.condition)
                walk(statement.then_body)
                walk(statement.else_body)
            elif isinstance(statement, ast.For):
                add_expr(statement.init.expr)
                add_expr(statement.condition)
                add_expr(statement.update.expr)
                walk(statement.body)
            elif isinstance(statement, ast.While):
                add_expr(statement.condition)
                walk(statement.body)

    walk(statements)
    return counts


def _read_occurrences(expr: ast.Expr) -> List[str]:
    """Variable read occurrences, counting multiplicity, binder-aware."""
    names: List[str] = []

    def visit(node: ast.Expr, bound: Set[str]) -> None:
        if isinstance(node, ast.Var):
            if node.name not in bound:
                names.append(node.name)
            return
        if isinstance(node, ast.WithLoop):
            for generator in node.generators:
                if generator.lower is not None:
                    visit(generator.lower, bound)
                if generator.upper is not None:
                    visit(generator.upper, bound)
                visit(generator.body, bound | set(generator.index_vars))
            operation = node.operation
            if isinstance(operation, ast.GenArray):
                visit(operation.shape, bound)
                if operation.default is not None:
                    visit(operation.default, bound)
            elif isinstance(operation, ast.ModArray):
                visit(operation.array, bound)
            else:
                visit(operation.neutral, bound)
            return
        if isinstance(node, ast.SetComprehension):
            visit(node.body, bound | set(node.index_vars))
            if node.bound is not None:
                visit(node.bound, bound)
            return
        if isinstance(node, ast.ArrayLit):
            children = node.elements
        elif isinstance(node, ast.BinOp):
            children = [node.left, node.right]
        elif isinstance(node, ast.UnOp):
            children = [node.operand]
        elif isinstance(node, ast.Cond):
            children = [node.condition, node.then, node.otherwise]
        elif isinstance(node, ast.Call):
            children = node.args
        elif isinstance(node, ast.Index):
            children = [node.array] + node.indices
        else:
            children = []
        for child in children:
            visit(child, bound)

    visit(expr, set())
    return names


# --------------------------------------------------------------------------
# substitution / renaming
# --------------------------------------------------------------------------


def substitute(expr: ast.Expr, mapping: Dict[str, ast.Expr]) -> ast.Expr:
    """Replace free variables by expressions, avoiding index-var capture.

    When a with-loop binds an index variable that appears free in a
    replacement, the binder is renamed first.
    """
    if not mapping:
        return expr
    replacement_frees: Set[str] = set()
    for replacement in mapping.values():
        replacement_frees |= free_vars(replacement)

    def visit(node: ast.Expr, mapping: Dict[str, ast.Expr]) -> ast.Expr:
        return _annotated(_visit(node, mapping), node)

    def _visit(node: ast.Expr, mapping: Dict[str, ast.Expr]) -> ast.Expr:
        if isinstance(node, ast.Var):
            if node.name in mapping:
                return copy_expr(mapping[node.name])
            return node
        if isinstance(node, ast.IntLit) or isinstance(node, ast.DoubleLit) or isinstance(node, ast.BoolLit):
            return node
        if isinstance(node, ast.ArrayLit):
            return ast.ArrayLit([visit(e, mapping) for e in node.elements], node.span)
        if isinstance(node, ast.BinOp):
            return ast.BinOp(node.op, visit(node.left, mapping), visit(node.right, mapping), node.span)
        if isinstance(node, ast.UnOp):
            return ast.UnOp(node.op, visit(node.operand, mapping), node.span)
        if isinstance(node, ast.Cond):
            return ast.Cond(
                visit(node.condition, mapping),
                visit(node.then, mapping),
                visit(node.otherwise, mapping),
                node.span,
            )
        if isinstance(node, ast.Call):
            return ast.Call(node.name, [visit(a, mapping) for a in node.args], node.module, node.span)
        if isinstance(node, ast.Index):
            return ast.Index(
                visit(node.array, mapping),
                [visit(i, mapping) for i in node.indices],
                node.span,
            )
        if isinstance(node, ast.WithLoop):
            generators = []
            for generator in node.generators:
                generator = _freshen_generator(generator, replacement_frees)
                inner = {
                    k: v for k, v in mapping.items() if k not in generator.index_vars
                }
                generators.append(
                    ast.Generator(
                        list(generator.index_vars),
                        generator.vector_var,
                        None if generator.lower is None else visit(generator.lower, mapping),
                        None if generator.upper is None else visit(generator.upper, mapping),
                        generator.lower_inclusive,
                        generator.upper_inclusive,
                        visit(generator.body, inner),
                        generator.span,
                    )
                )
            operation = node.operation
            if isinstance(operation, ast.GenArray):
                new_operation: ast.WithOperation = ast.GenArray(
                    visit(operation.shape, mapping),
                    None if operation.default is None else visit(operation.default, mapping),
                    operation.span,
                )
            elif isinstance(operation, ast.ModArray):
                new_operation = ast.ModArray(visit(operation.array, mapping), operation.span)
            else:
                new_operation = ast.Fold(operation.op, visit(operation.neutral, mapping), operation.span)
            return ast.WithLoop(generators, new_operation, node.span)
        if isinstance(node, ast.SetComprehension):
            node2 = _freshen_set(node, replacement_frees)
            inner = {k: v for k, v in mapping.items() if k not in node2.index_vars}
            return ast.SetComprehension(
                list(node2.index_vars),
                node2.vector_var,
                visit(node2.body, inner),
                None if node2.bound is None else visit(node2.bound, mapping),
                node2.span,
            )
        raise TypeError(f"unknown expression {type(node).__name__}")

    return visit(expr, mapping)


def _freshen_generator(generator: ast.Generator, avoid: Set[str]) -> ast.Generator:
    clashes = [name for name in generator.index_vars if name in avoid]
    if not clashes:
        return generator
    renaming = {name: fresh_name(name.strip("_").replace(".", "")) for name in clashes}
    new_names = [renaming.get(name, name) for name in generator.index_vars]
    body = substitute(
        generator.body, {old: ast.Var(new) for old, new in renaming.items()}
    )
    return ast.Generator(
        new_names,
        generator.vector_var,
        generator.lower,
        generator.upper,
        generator.lower_inclusive,
        generator.upper_inclusive,
        body,
        generator.span,
    )


def _freshen_set(node: ast.SetComprehension, avoid: Set[str]) -> ast.SetComprehension:
    clashes = [name for name in node.index_vars if name in avoid]
    if not clashes:
        return node
    renaming = {name: fresh_name(name.strip("_").replace(".", "")) for name in clashes}
    new_names = [renaming.get(name, name) for name in node.index_vars]
    body = substitute(node.body, {old: ast.Var(new) for old, new in renaming.items()})
    return ast.SetComprehension(new_names, node.vector_var, body, node.bound, node.span)


def copy_expr(expr: ast.Expr) -> ast.Expr:
    """Deep structural copy (keeps spans)."""
    return _copy(expr)


def _annotated(new: ast.Expr, old: ast.Expr) -> ast.Expr:
    """Carry checker annotations across a structural copy."""
    sac_type = getattr(old, "sac_type", None)
    if sac_type is not None and getattr(new, "sac_type", None) is None:
        new.sac_type = sac_type  # type: ignore[attr-defined]
    if getattr(old, "reuse_in_place", False):
        new.reuse_in_place = True  # type: ignore[attr-defined]
    return new


def _copy(expr: ast.Expr) -> ast.Expr:
    return _annotated(_copy_raw(expr), expr)


def _copy_raw(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, (ast.IntLit, ast.DoubleLit, ast.BoolLit)):
        return type(expr)(expr.value, expr.span)
    if isinstance(expr, ast.Var):
        return ast.Var(expr.name, expr.span)
    if isinstance(expr, ast.ArrayLit):
        return ast.ArrayLit([_copy(e) for e in expr.elements], expr.span)
    if isinstance(expr, ast.BinOp):
        return ast.BinOp(expr.op, _copy(expr.left), _copy(expr.right), expr.span)
    if isinstance(expr, ast.UnOp):
        return ast.UnOp(expr.op, _copy(expr.operand), expr.span)
    if isinstance(expr, ast.Cond):
        return ast.Cond(_copy(expr.condition), _copy(expr.then), _copy(expr.otherwise), expr.span)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.name, [_copy(a) for a in expr.args], expr.module, expr.span)
    if isinstance(expr, ast.Index):
        return ast.Index(_copy(expr.array), [_copy(i) for i in expr.indices], expr.span)
    if isinstance(expr, ast.WithLoop):
        generators = [
            ast.Generator(
                list(g.index_vars),
                g.vector_var,
                None if g.lower is None else _copy(g.lower),
                None if g.upper is None else _copy(g.upper),
                g.lower_inclusive,
                g.upper_inclusive,
                _copy(g.body),
                g.span,
            )
            for g in expr.generators
        ]
        operation = expr.operation
        if isinstance(operation, ast.GenArray):
            new_operation: ast.WithOperation = ast.GenArray(
                _copy(operation.shape),
                None if operation.default is None else _copy(operation.default),
                operation.span,
            )
        elif isinstance(operation, ast.ModArray):
            new_operation = ast.ModArray(_copy(operation.array), operation.span)
        else:
            new_operation = ast.Fold(operation.op, _copy(operation.neutral), operation.span)
        return ast.WithLoop(generators, new_operation, expr.span)
    if isinstance(expr, ast.SetComprehension):
        return ast.SetComprehension(
            list(expr.index_vars),
            expr.vector_var,
            _copy(expr.body),
            None if expr.bound is None else _copy(expr.bound),
            expr.span,
        )
    raise TypeError(f"unknown expression {type(expr).__name__}")


def copy_stmt(statement: ast.Stmt) -> ast.Stmt:
    if isinstance(statement, ast.Assign):
        return ast.Assign(statement.name, _copy(statement.expr), statement.span)
    if isinstance(statement, ast.Return):
        return ast.Return(_copy(statement.expr), statement.span)
    if isinstance(statement, ast.If):
        return ast.If(
            _copy(statement.condition),
            [copy_stmt(s) for s in statement.then_body],
            [copy_stmt(s) for s in statement.else_body],
            statement.span,
        )
    if isinstance(statement, ast.For):
        return ast.For(
            copy_stmt(statement.init),
            _copy(statement.condition),
            copy_stmt(statement.update),
            [copy_stmt(s) for s in statement.body],
            statement.span,
        )
    if isinstance(statement, ast.While):
        return ast.While(
            _copy(statement.condition),
            [copy_stmt(s) for s in statement.body],
            statement.span,
        )
    raise TypeError(f"unknown statement {type(statement).__name__}")
