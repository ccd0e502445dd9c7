"""Light semantic layer: implicit typing and program validation.

The paper's code leans on ``IMPLICIT REAL*8 (A-H,O-Z)`` — undeclared
names get their type from their first letter.  The default Fortran
rule (I-N integer, everything else real) applies underneath any
explicit IMPLICIT statements.
"""

from __future__ import annotations

from typing import List

from repro.errors import FortranSemanticError
from repro.f90 import ast


def implicit_base(name: str, rules: List[ast.ImplicitRule]) -> str:
    """Base type of an undeclared name under the active IMPLICIT rules."""
    letter = name[0].upper()
    for rule in rules:
        if rule.covers(letter):
            return rule.base
    return "INTEGER" if "I" <= letter <= "N" else "REAL"


def validate_program(program: ast.ProgramUnit) -> None:
    """Cross-unit checks: USE targets exist, no module/subroutine clashes."""
    for subroutine in program.subroutines.values():
        for used in subroutine.uses:
            if used not in program.modules:
                raise FortranSemanticError(
                    f"subroutine {subroutine.name} uses unknown module {used!r}"
                )
        seen = set()
        for decl in subroutine.decls:
            if decl.name in seen:
                raise FortranSemanticError(
                    f"{subroutine.name}: duplicate declaration of {decl.name}"
                )
            seen.add(decl.name)
    for module in program.modules.values():
        seen = set()
        for decl in module.decls:
            if decl.name in seen:
                raise FortranSemanticError(
                    f"module {module.name}: duplicate declaration of {decl.name}"
                )
            seen.add(decl.name)
