"""Parser for the mini Fortran-90 (free form).

Covers the constructs the paper's code uses: MODULEs with
declarations and PARAMETERs, SUBROUTINEs with ``USE`` and ``IMPLICIT
REAL*8 (A-H,O-Z)``, DO / DO WHILE loops, block and logical IFs, CALL,
whole-array assignments and array sections, and the classic dotted
operators.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import FortranSyntaxError
from repro.f90 import ast
from repro.f90.lexer import LogicalLine, Token, logical_lines

_TYPE_KEYWORDS = {"REAL", "INTEGER", "LOGICAL", "DOUBLE"}


class _LineParser:
    """Token cursor over one logical line."""

    def __init__(self, line: LogicalLine):
        self.tokens = line.tokens
        self.line = line.line
        self.position = 0

    @property
    def current(self) -> Token:
        return self.tokens[min(self.position, len(self.tokens) - 1)]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.position + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
        return token

    def accept_op(self, text: str) -> bool:
        if self.current.is_op(text):
            self.advance()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        if not self.current.is_op(text):
            raise FortranSyntaxError(
                f"expected {text!r}, found {self.current.text!r}", self.line
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise FortranSyntaxError(
                f"expected identifier, found {self.current.text!r}", self.line
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind == "eof"

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.current.is_op("OR"):
            self.advance()
            left = ast.BinOp("OR", left, self._parse_and(), self.line)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.current.is_op("AND"):
            self.advance()
            left = ast.BinOp("AND", left, self._parse_not(), self.line)
        return left

    def _parse_not(self) -> ast.Expr:
        if self.current.is_op("NOT"):
            self.advance()
            return ast.UnOp("NOT", self._parse_not(), self.line)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        for op in ("==", "/=", "<=", ">=", "<", ">"):
            if self.current.is_op(op):
                self.advance()
                return ast.BinOp(op, left, self._parse_additive(), self.line)
        return left

    def _parse_additive(self) -> ast.Expr:
        # leading sign
        if self.current.is_op("-"):
            self.advance()
            left: ast.Expr = ast.UnOp("-", self._parse_multiplicative(), self.line)
        elif self.current.is_op("+"):
            self.advance()
            left = self._parse_multiplicative()
        else:
            left = self._parse_multiplicative()
        while self.current.is_op("+") or self.current.is_op("-"):
            op = self.advance().text
            left = ast.BinOp(op, left, self._parse_multiplicative(), self.line)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_power()
        while self.current.is_op("*") or self.current.is_op("/"):
            op = self.advance().text
            left = ast.BinOp(op, left, self._parse_power(), self.line)
        return left

    def _parse_power(self) -> ast.Expr:
        base = self._parse_unary()
        if self.current.is_op("**"):
            self.advance()
            return ast.BinOp("**", base, self._parse_power(), self.line)  # right assoc
        return base

    def _parse_unary(self) -> ast.Expr:
        if self.current.is_op("-"):
            self.advance()
            return ast.UnOp("-", self._parse_unary(), self.line)
        if self.current.is_op("+"):
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "int":
            self.advance()
            return ast.IntLit(int(token.text), self.line)
        if token.kind == "real":
            self.advance()
            return ast.RealLit(float(token.text), self.line)
        if token.kind == "ident" and token.text in ("TRUE", "FALSE"):
            self.advance()
            return ast.LogicalLit(token.text == "TRUE", self.line)
        if token.is_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.kind == "ident":
            return self.parse_ref()
        raise FortranSyntaxError(f"expected an expression, found {token.text!r}", self.line)

    def parse_ref(self) -> ast.Ref:
        name = self.expect_ident().text
        subscripts: List[ast.Section] = []
        has_parens = False
        if self.accept_op("("):
            has_parens = True
            if not self.current.is_op(")"):
                subscripts.append(self._parse_section())
                while self.accept_op(","):
                    subscripts.append(self._parse_section())
            self.expect_op(")")
        return ast.Ref(name, subscripts, has_parens, self.line)

    def _parse_section(self) -> ast.Section:
        if self.current.is_op(":"):
            self.advance()
            if self.current.is_op(",") or self.current.is_op(")"):
                return ast.Section(is_range=True)
            return ast.Section(upper=self.parse_expr(), is_range=True)
        first = self.parse_expr()
        if self.accept_op(":"):
            if self.current.is_op(",") or self.current.is_op(")"):
                return ast.Section(lower=first, is_range=True)
            return ast.Section(lower=first, upper=self.parse_expr(), is_range=True)
        return ast.Section(index=first)


class Parser:
    """Parses a whole source file into a :class:`ProgramUnit`."""

    def __init__(self, source: str):
        self.lines = logical_lines(source)
        self.position = 0

    def _current(self) -> Optional[_LineParser]:
        if self.position >= len(self.lines):
            return None
        return _LineParser(self.lines[self.position])

    def _advance(self) -> _LineParser:
        line = self._current()
        if line is None:
            raise FortranSyntaxError("unexpected end of file")
        self.position += 1
        return line

    def parse(self) -> ast.ProgramUnit:
        program = ast.ProgramUnit()
        while self.position < len(self.lines):
            line = _LineParser(self.lines[self.position])
            if line.current.is_ident("MODULE"):
                module = self._parse_module()
                program.modules[module.name] = module
            elif line.current.is_ident("SUBROUTINE"):
                subroutine = self._parse_subroutine()
                program.subroutines[subroutine.name] = subroutine
            else:
                raise FortranSyntaxError(
                    f"expected MODULE or SUBROUTINE, found {line.current.text!r}",
                    line.line,
                )
        return program

    # -- units ---------------------------------------------------------------

    def _parse_module(self) -> ast.ModuleDef:
        header = self._advance()
        header.expect_ident()  # MODULE
        name = header.expect_ident().text
        module = ast.ModuleDef(name)
        while True:
            line = self._advance()
            if line.current.is_ident("END"):
                break
            if line.current.is_ident("IMPLICIT"):
                rule = _parse_implicit(line)
                if rule is not None:
                    module.implicits.append(rule)
                continue
            if line.current.is_ident("PARAMETER"):
                _parse_parameter_stmt(line, module.decls)
                continue
            if line.current.kind == "ident" and line.current.text in _TYPE_KEYWORDS:
                module.decls.extend(_parse_declaration(line))
                continue
            raise FortranSyntaxError(
                f"unexpected statement in module: {line.current.text!r}", line.line
            )
        return module

    def _parse_subroutine(self) -> ast.SubroutineDef:
        header = self._advance()
        header.expect_ident()  # SUBROUTINE
        name = header.expect_ident().text
        args: List[str] = []
        if header.accept_op("("):
            if not header.current.is_op(")"):
                args.append(header.expect_ident().text)
                while header.accept_op(","):
                    args.append(header.expect_ident().text)
            header.expect_op(")")
        subroutine = ast.SubroutineDef(name, args)

        # specification part
        while True:
            line = self._current()
            if line is None:
                raise FortranSyntaxError(f"unterminated subroutine {name}")
            if line.current.is_ident("USE"):
                self._advance()
                line.expect_ident()
                subroutine.uses.append(line.expect_ident().text)
                continue
            if line.current.is_ident("IMPLICIT"):
                self._advance()
                rule = _parse_implicit(line)
                if rule is not None:
                    subroutine.implicits.append(rule)
                continue
            if line.current.is_ident("PARAMETER"):
                self._advance()
                _parse_parameter_stmt(line, subroutine.decls)
                continue
            if (
                line.current.kind == "ident"
                and line.current.text in _TYPE_KEYWORDS
                and not line.peek().is_op("=")
            ):
                self._advance()
                subroutine.decls.extend(_parse_declaration(line))
                continue
            break

        subroutine.body = self._parse_block(("END",))
        end_line = self._advance()
        end_line.expect_ident()  # END
        return subroutine

    # -- statements ------------------------------------------------------------

    def _parse_block(self, terminators: Tuple[str, ...]) -> List[ast.Stmt]:
        body: List[ast.Stmt] = []
        while True:
            line = self._current()
            if line is None:
                raise FortranSyntaxError("unexpected end of file in block")
            first = line.current.text
            if first in terminators or (
                first == "END" and line.peek().kind == "ident"
                and f"END{line.peek().text}" in terminators
            ) or (first in ("ENDDO", "ENDIF") and first in terminators):
                return body
            if first == "ELSE" and "ELSE" in terminators:
                return body
            body.append(self._parse_stmt())

    def _parse_stmt(self) -> ast.Stmt:
        line = self._advance()
        token = line.current
        if token.is_ident("DO"):
            return self._parse_do(line)
        if token.is_ident("IF"):
            return self._parse_if(line)
        if token.is_ident("CALL"):
            line.advance()
            ref = line.parse_ref()
            return ast.Call(ref.name, [s.index for s in ref.subscripts], line.line)
        if token.is_ident("RETURN"):
            return ast.Return(line.line)
        if token.is_ident("PRINT"):
            line.advance()
            line.expect_op("*")
            items: List[ast.Expr] = []
            while line.accept_op(","):
                items.append(line.parse_expr())
            return ast.Print(items, line.line)
        if token.is_ident("CYCLE") or token.is_ident("EXIT"):
            raise FortranSyntaxError(
                f"{token.text} is not supported by this subset", line.line
            )
        # assignment
        target = line.parse_ref()
        line.expect_op("=")
        expr = line.parse_expr()
        if not line.at_end():
            raise FortranSyntaxError(
                f"trailing tokens after assignment: {line.current.text!r}", line.line
            )
        return ast.Assign(target, expr, line.line)

    def _parse_do(self, line: _LineParser) -> ast.Stmt:
        line.advance()  # DO
        if line.current.is_ident("WHILE"):
            line.advance()
            line.expect_op("(")
            condition = line.parse_expr()
            line.expect_op(")")
            body = self._parse_block(("ENDDO",))
            self._expect_end(("DO",))
            return ast.DoWhile(condition, body, line.line)
        var = line.expect_ident().text
        line.expect_op("=")
        lower = line.parse_expr()
        line.expect_op(",")
        upper = line.parse_expr()
        step = None
        if line.accept_op(","):
            step = line.parse_expr()
        body = self._parse_block(("ENDDO",))
        self._expect_end(("DO",))
        return ast.Do(var, lower, upper, step, body, line.line)

    def _parse_if(self, line: _LineParser) -> ast.Stmt:
        line.advance()  # IF
        line.expect_op("(")
        condition = line.parse_expr()
        line.expect_op(")")
        if line.current.is_ident("THEN"):
            node = ast.If(condition, line=line.line)
            node.then_body = self._parse_block(("ELSEIF", "ELSE", "ENDIF"))
            while True:
                peek = self._current()
                assert peek is not None
                if peek.current.is_ident("ELSEIF") or (
                    peek.current.is_ident("ELSE") and peek.peek().is_ident("IF")
                ):
                    elif_line = self._advance()
                    elif_line.advance()  # ELSEIF or ELSE
                    if elif_line.current.is_ident("IF"):
                        elif_line.advance()
                    elif_line.expect_op("(")
                    elif_condition = elif_line.parse_expr()
                    elif_line.expect_op(")")
                    if not elif_line.current.is_ident("THEN"):
                        raise FortranSyntaxError("ELSE IF needs THEN", elif_line.line)
                    block = self._parse_block(("ELSEIF", "ELSE", "ENDIF"))
                    node.elif_blocks.append((elif_condition, block))
                    continue
                if peek.current.is_ident("ELSE"):
                    self._advance()
                    node.else_body = self._parse_block(("ENDIF",))
                break
            self._expect_end(("IF",))
            return node
        # logical IF: single statement on the same line
        rest_tokens = line.tokens[line.position:]
        inner = _LineParser(LogicalLine(rest_tokens, line.line))
        saved_lines, saved_position = self.lines, self.position
        try:
            # reuse the statement parser on the remainder of this line
            self.lines = [LogicalLine(rest_tokens, line.line)]
            self.position = 0
            statement = self._parse_stmt()
        finally:
            self.lines, self.position = saved_lines, saved_position
        del inner
        return ast.If(condition, [statement], [], [], line.line)

    def _expect_end(self, what: Tuple[str, ...]) -> None:
        line = self._advance()
        first = line.advance().text
        if first in tuple(f"END{w}" for w in what):
            return
        if first == "END":
            if line.current.kind == "ident" and line.current.text in what:
                return
            if line.at_end():
                return
        raise FortranSyntaxError(f"expected END {what[0]}, found {first!r}", line.line)


# -- declarations ------------------------------------------------------------


def _parse_implicit(line: _LineParser) -> Optional[ast.ImplicitRule]:
    line.advance()  # IMPLICIT
    if line.current.is_ident("NONE"):
        return None
    base = _parse_type_spec(line)
    line.expect_op("(")
    ranges: List[Tuple[str, str]] = []
    while True:
        start = line.expect_ident().text
        if line.accept_op("-"):
            stop = line.expect_ident().text
        else:
            stop = start
        ranges.append((start[0], stop[0]))
        if not line.accept_op(","):
            break
    line.expect_op(")")
    return ast.ImplicitRule(base, ranges)


def _parse_type_spec(line: _LineParser) -> str:
    token = line.expect_ident()
    base = token.text
    if base == "DOUBLE":
        if not line.current.is_ident("PRECISION"):
            raise FortranSyntaxError("DOUBLE must be DOUBLE PRECISION", line.line)
        line.advance()
        return "REAL"
    if base == "REAL":
        if line.accept_op("*"):
            line.advance()  # kind digits (8)
        elif line.current.is_op("("):
            line.advance()
            while not line.current.is_op(")"):
                line.advance()
            line.expect_op(")")
        return "REAL"
    if base == "INTEGER":
        if line.accept_op("*"):
            line.advance()
        return "INTEGER"
    if base == "LOGICAL":
        return "LOGICAL"
    raise FortranSyntaxError(f"unknown type {base!r}", line.line)


def _parse_declaration(line: _LineParser) -> List[ast.VarDecl]:
    base = _parse_type_spec(line)
    is_parameter = False
    while line.accept_op(","):
        attribute = line.expect_ident().text
        if attribute == "PARAMETER":
            is_parameter = True
        elif attribute in ("DIMENSION",):
            raise FortranSyntaxError(
                "DIMENSION attribute is not supported; put dims on the name",
                line.line,
            )
        # other attributes (INTENT, SAVE, ...) are accepted and ignored
        if line.current.is_op("("):
            depth = 0
            while True:
                if line.current.is_op("("):
                    depth += 1
                elif line.current.is_op(")"):
                    depth -= 1
                    if depth == 0:
                        line.advance()
                        break
                line.advance()
    line.accept_op("::")
    decls: List[ast.VarDecl] = []
    while True:
        name = line.expect_ident().text
        dims: List[ast.Dim] = []
        if line.accept_op("("):
            while True:
                dims.append(_parse_dim(line))
                if not line.accept_op(","):
                    break
            line.expect_op(")")
        parameter_value: Optional[ast.Expr] = None
        if line.accept_op("="):
            parameter_value = line.parse_expr()
            if not is_parameter:
                is_parameter = True  # initialised module constant
        decls.append(ast.VarDecl(name, base, dims, parameter_value, line.line))
        if not line.accept_op(","):
            break
    return decls


def _parse_dim(line: _LineParser) -> ast.Dim:
    first = line.parse_expr()
    if line.accept_op(":"):
        return ast.Dim(first, line.parse_expr())
    return ast.Dim(None, first)


def _parse_parameter_stmt(line: _LineParser, decls: List[ast.VarDecl]) -> None:
    """F77-style ``PARAMETER (Gam = 1.4d0, CFL = 0.5d0)``."""
    line.advance()  # PARAMETER
    line.expect_op("(")
    while True:
        name = line.expect_ident().text
        line.expect_op("=")
        value = line.parse_expr()
        decls.append(ast.VarDecl(name, "REAL", [], value, line.line))
        if not line.accept_op(","):
            break
    line.expect_op(")")


def parse_program(source: str) -> ast.ProgramUnit:
    return Parser(source).parse()
