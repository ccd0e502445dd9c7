"""The independent Fortran race checker and the autopar cross-check."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.f90_races import cross_check_autopar, find_races
from repro.f90 import ast
from repro.f90.autopar import AutoparOptions, autoparallelize
from repro.f90.parser import parse_program


def _loops(source):
    unit = parse_program(source)
    subroutine = next(iter(unit.subroutines.values()))
    loops = [s for s in subroutine.body if isinstance(s, ast.Do)]
    return loops, unit


def _first_loop(source):
    loops, unit = _loops(source)
    assert loops, "no DO loop in source"
    return loops[0], unit


class TestFindRaces:
    def test_elementwise_loop_is_independent(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, B, N)
              INTEGER N
              REAL*8 A(N), B(N)
              DO i = 1, N
                A(i) = B(i) * 2.D0
              END DO
            END
            """
        )
        assert find_races(loop) == []

    def test_loop_carried_array_read(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, N)
              INTEGER N
              REAL*8 A(N)
              DO i = 2, N
                A(i) = A(i - 1) + 1.D0
              END DO
            END
            """
        )
        races = find_races(loop)
        assert [r.kind for r in races] == ["array"]
        assert races[0].variable == "A"

    def test_constant_subscript_write_is_a_race(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, B, N)
              INTEGER N
              REAL*8 A(N), B(N)
              DO i = 1, N
                A(1) = A(1) + B(i)
              END DO
            END
            """
        )
        assert [r.kind for r in find_races(loop)] == ["array"]

    def test_divisibility_proves_disjointness(self):
        """A(2i) vs A(2i+1): equal only if 1 is divisible by 2 — never."""
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, N)
              INTEGER N
              REAL*8 A(N)
              DO i = 1, N / 2
                A(2 * i) = A(2 * i + 1)
              END DO
            END
            """
        )
        assert find_races(loop) == []

    def test_scalar_read_before_write_races(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, B, N)
              INTEGER N
              REAL*8 A(N), B(N), T
              DO i = 1, N
                B(i) = T
                T = A(i)
              END DO
            END
            """
        )
        races = find_races(loop)
        assert [(r.kind, r.variable) for r in races] == [("scalar", "T")]

    def test_private_scalar_is_fine(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, B, N)
              INTEGER N
              REAL*8 A(N), B(N), T
              DO i = 1, N
                T = A(i) * 2.D0
                B(i) = T + 1.D0
              END DO
            END
            """
        )
        assert find_races(loop) == []

    def test_sum_reduction_is_fine(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, S, N)
              INTEGER N
              REAL*8 A(N), S
              DO i = 1, N
                S = S + A(i)
              END DO
            END
            """
        )
        assert find_races(loop) == []

    def test_max_reduction_is_fine(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, M, N)
              INTEGER N
              REAL*8 A(N), M
              DO i = 1, N
                M = MAX(M, A(i))
              END DO
            END
            """
        )
        assert find_races(loop) == []

    def test_call_defeats_the_analysis(self):
        loop, _ = _first_loop(
            """
            SUBROUTINE F(A, N)
              INTEGER N
              REAL*8 A(N)
              DO i = 1, N
                CALL HELPER(A, i)
              END DO
            END
            """
        )
        races = find_races(loop)
        assert [r.kind for r in races] == ["call"]
        assert races[0].variable == "HELPER"


class TestCrossCheck:
    def test_clean_unit_has_no_findings(self):
        _, unit = _first_loop(
            """
            SUBROUTINE F(A, B, N)
              INTEGER N
              REAL*8 A(N), B(N)
              DO i = 1, N
                A(i) = B(i) * 2.D0
              END DO
            END
            """
        )
        autoparallelize(unit)
        assert cross_check_autopar(unit).codes() == []

    def test_forged_parallel_annotation_is_race001(self):
        """A racy loop hand-annotated parallel — the miscompile the
        cross-checker exists to catch."""
        loop, unit = _first_loop(
            """
            SUBROUTINE F(A, N)
              INTEGER N
              REAL*8 A(N)
              DO i = 2, N
                A(i) = A(i - 1) + 1.D0
              END DO
            END
            """
        )
        autoparallelize(unit)
        assert not loop.parallel
        loop.parallel = True
        engine = cross_check_autopar(unit)
        assert engine.codes() == ["F90-RACE001"]
        finding = engine.errors[0]
        assert "F:I@" in finding.where
        assert any("array A" in note for note in finding.notes)

    def test_missed_parallelism_is_race002(self):
        """autopar's plain-subscript matcher gives up on A(2i)/A(2i+1);
        the affine checker proves independence — reported as a warning
        with autopar's own reason attached."""
        loop, unit = _first_loop(
            """
            SUBROUTINE F(A, N)
              INTEGER N
              REAL*8 A(N)
              DO i = 1, N / 2
                A(2 * i) = A(2 * i + 1)
              END DO
            END
            """
        )
        autoparallelize(unit)
        if loop.parallel:
            pytest.skip("autopar already parallelises this shape")
        engine = cross_check_autopar(unit)
        assert engine.codes() == ["F90-RACE002"]
        assert not engine.has_errors()
        assert any("autopar's reason" in n for n in engine.warnings[0].notes)

    def test_disabled_autopar_is_not_a_disagreement(self):
        _, unit = _first_loop(
            """
            SUBROUTINE F(A, B, N)
              INTEGER N
              REAL*8 A(N), B(N)
              DO i = 1, N
                A(i) = B(i) * 2.D0
              END DO
            END
            """
        )
        autoparallelize(unit, AutoparOptions(enabled=False))
        assert cross_check_autopar(unit).codes() == []

    @pytest.mark.parametrize("name", ["euler2d.f90", "getdt.f90"])
    def test_bundled_programs_have_no_race_errors(self, name):
        from repro.f90.api import load_program_source

        unit = parse_program(load_program_source(name))
        autoparallelize(unit)
        engine = cross_check_autopar(unit)
        assert not engine.has_errors()


def _affine_text(coefficient, offset):
    return f"{coefficient}*I" + (f" + {offset}" if offset >= 0 else f" - {-offset}")


class TestSoundnessByBruteForce:
    @given(*(st.integers(-3, 3) for _ in range(4)))
    def test_every_cross_iteration_collision_is_a_race(self, a, b, c, d):
        """``A(a*I+b) = A(c*I+d) + 1`` over ``I = 1..8``: whenever two
        different iterations touch one element, an array race is reported."""
        loop, _ = _first_loop(
            f"""
            SUBROUTINE F(A)
              REAL*8 A(100)
              DO I = 1, 8
                A({_affine_text(a, b)}) = A({_affine_text(c, d)}) + 1.D0
              END DO
            END
            """
        )
        iterations = range(1, 9)
        collides = any(
            i1 != i2 and a * i1 + b in (a * i2 + b, c * i2 + d)
            for i1 in iterations
            for i2 in iterations
        )
        if collides:
            assert ("A", "array") in [(r.variable, r.kind) for r in find_races(loop)]
