"""Seeded-bug tests for the with-loop disjointness/bounds checker."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.diag import Severity
from repro.analysis.wl_check import check_with_loops
from repro.sac.parser import parse_module
from repro.sac.typecheck import TypeChecker

from tests.analysis.corpus import CORPUS


def _check(source, defines=None, typecheck=True):
    module = parse_module(source)
    if typecheck:
        TypeChecker(module, defines).check_all()
    return check_with_loops(module, defines)


class TestCleanPrograms:
    @pytest.mark.parametrize("program", CORPUS, ids=lambda p: p.name)
    def test_corpus_is_clean(self, program):
        engine = _check(program.source, dict(program.defines))
        assert engine.codes() == []

    def test_symbolic_bounds_stay_silent(self):
        """Conservative policy: nothing provable, nothing reported."""
        engine = _check(
            """
            double[.] f(double[.] a, int n) {
              return( with { ([0] <= [i] < [n]) : a[i]; } : modarray(a) );
            }
            """
        )
        assert engine.codes() == []


class TestBounds:
    def test_generator_box_exceeds_frame(self):
        engine = _check(
            """
            double[.] f(double s) {
              return( with { ([0] <= [i] < [12]) : s; } : genarray([10], 0.0) );
            }
            """
        )
        assert engine.codes() == ["SAC-WL001"]
        assert "exceeds" in engine.errors[0].message

    def test_negative_lower_bound(self):
        engine = _check(
            """
            double[.] f(double s) {
              return( with { ([0 - 2] <= [i] < [5]) : s; } : genarray([10], 0.0) );
            }
            """,
            typecheck=False,
        )
        assert engine.codes() == ["SAC-WL001"]

    def test_body_offset_reads_past_extent(self):
        """The classic stencil off-by-one: g[i+1] over i in [0, 10)
        reads g[10] of a 10-element array.  NumPy would not even fail
        on g[i-1] (negative wraps) — this must be caught statically."""
        engine = _check(
            """
            double[.] f(double[.] q) {
              g = { [i] -> q[i] * q[i] | [i] < [10] };
              return( { [i] -> g[i + 1] | [i] < [10] } );
            }
            """
        )
        assert engine.codes() == ["SAC-WL001"]
        assert "extent 10" in engine.errors[0].message

    def test_body_offset_negative_wrap(self):
        engine = _check(
            """
            double[.] f(double[.] q) {
              g = { [i] -> q[i] + 1.0 | [i] < [10] };
              return( { [i] -> g[i - 1] | [i] < [10] } );
            }
            """
        )
        assert engine.codes() == ["SAC-WL001"]

    def test_correct_stencil_is_clean(self):
        """Shrinking the result frame by one makes the offsets legal."""
        engine = _check(
            """
            double[.] f(double[.] q) {
              g = { [i] -> q[i] * q[i] | [i] < [10] };
              return( { [i] -> g[i + 1] - g[i] | [i] < [9] } );
            }
            """
        )
        assert engine.codes() == []


class TestDisjointness:
    def test_overlapping_generators(self):
        engine = _check(
            """
            double[.] f(double s) {
              return( with {
                ([0] <= [i] < [6]) : s;
                ([4] <= [i] < [10]) : s + 1.0;
              } : genarray([10], 0.0) );
            }
            """
        )
        assert engine.codes() == ["SAC-WL002"]
        assert "overlap" in engine.errors[0].message

    def test_disjoint_generators_are_clean(self):
        engine = _check(
            """
            double[.] f(double s) {
              return( with {
                ([0] <= [i] < [5]) : s;
                ([5] <= [i] < [10]) : s + 1.0;
              } : genarray([10], 0.0) );
            }
            """
        )
        assert engine.codes() == []


class TestCoverage:
    def test_gap_without_default_is_warning(self):
        engine = _check(
            """
            double[.] f(double s) {
              return( with { ([2] <= [i] < [8]) : s; } : genarray([10]) );
            }
            """
        )
        assert engine.codes() == ["SAC-WL003"]
        assert engine.diagnostics[0].severity is Severity.WARNING
        assert not engine.has_errors()

    def test_full_cover_without_default_is_clean(self):
        engine = _check(
            """
            double[.] f(double s) {
              return( with { ([0] <= [i] < [10]) : s; } : genarray([10]) );
            }
            """
        )
        assert engine.codes() == []

    def test_gap_with_default_is_clean(self):
        engine = _check(
            """
            double[.] f(double s) {
              return( with { ([2] <= [i] < [8]) : s; } : genarray([10], 0.0) );
            }
            """
        )
        assert engine.codes() == []


class TestDefines:
    def test_define_driven_bounds_are_evaluated(self):
        source = """
        double[.] f(double s) {
          return( with { ([0] <= [i] < [N + 2]) : s; } : genarray([N], 0.0) );
        }
        """
        engine = _check(source, {"N": 8})
        assert engine.codes() == ["SAC-WL001"]


class TestSymbolicDisjointness:
    """Symbolic bounds get real verdicts via the dependence prover
    (repro.analysis.deps), the one that decides constant pairs too."""

    def test_adjacent_symbolic_halves_proven_disjoint(self):
        engine = _check(
            """
            double[.] halves(double[.] u, int n) {
              return( with {
                    ([0] <= [i] < [n]) : u[i];
                    ([n] <= [i] < [2 * n]) : 2.0 * u[i];
                  } : modarray(u) );
            }
            """
        )
        assert engine.codes() == ["SAC-WL004"]
        note = engine.diagnostics[0]
        assert note.severity is Severity.NOTE
        assert "nonnegative" in note.message

    def test_symbolic_overlap_names_a_witness(self):
        engine = _check(
            """
            double[.] halves(double[.] u, int n) {
              return( with {
                    ([0] <= [i] < [n + 1]) : u[i];
                    ([n] <= [i] < [2 * n]) : 2.0 * u[i];
                  } : modarray(u) );
            }
            """
        )
        assert engine.codes() == ["SAC-WL002"]
        message = engine.diagnostics[0].message
        assert "n = " in message  # concrete witness, not just "maybe"

    def test_symbolic_vs_constant_pair_gets_a_verdict(self):
        engine = _check(
            """
            double[.] f(double[.] u, int n) {
              return( with {
                    ([0] <= [i] < [4]) : u[i];
                    ([4 + n] <= [i] < [8 + n]) : 2.0 * u[i];
                  } : modarray(u) );
            }
            """
        )
        assert engine.codes() == ["SAC-WL004"]

    def test_undecidable_pair_stays_silent(self):
        """Two unrelated symbols: no proof either way, no noise."""
        engine = _check(
            """
            double[.] f(double[.] u, int n, int m) {
              return( with {
                    ([0] <= [i] < [n]) : u[i];
                    ([m] <= [i] < [m + n]) : 2.0 * u[i];
                  } : modarray(u) );
            }
            """
        )
        assert engine.codes() == []

    def test_without_typecheck_stays_silent(self):
        """No scalar-int annotation on n -> not a symbol -> no verdict
        (the conservative policy survives the upgrade)."""
        engine = _check(
            """
            double[.] halves(double[.] u, int n) {
              return( with {
                    ([0] <= [i] < [n]) : u[i];
                    ([n] <= [i] < [2 * n]) : 2.0 * u[i];
                  } : modarray(u) );
            }
            """,
            typecheck=False,
        )
        assert engine.codes() == []


@st.composite
def constant_generators(draw):
    """Two or three constant boxes of rank 1-2 inside [0, 8], empty and
    inverted sides included."""
    rank = draw(st.integers(1, 2))
    corner = st.lists(st.integers(0, 8), min_size=rank, max_size=rank)
    count = draw(st.integers(2, 3))
    return rank, [(draw(corner), draw(corner)) for _ in range(count)]


def _cells(lower, upper):
    return set(itertools.product(*(range(lo, hi) for lo, hi in zip(lower, upper))))


class TestConstantPairsByBruteForce:
    @given(constant_generators())
    def test_overlap_is_reported_iff_the_cell_sets_meet(self, drawn):
        rank, boxes = drawn
        index = ", ".join("ij"[:rank])
        generators = "\n".join(
            f"({lower} <= [{index}] < {upper}) : s;" for lower, upper in boxes
        )
        frame = [8] * rank
        engine = _check(
            f"""
            double[{",".join("." * rank)}] f(double s) {{
              return( with {{
                {generators}
              }} : genarray({frame}, 0.0) );
            }}
            """
        )
        assert "SAC-WL004" not in engine.codes()
        reported = [d.message for d in engine.diagnostics if d.code == "SAC-WL002"]
        for (a, one), (b, two) in itertools.combinations(enumerate(boxes), 2):
            named = any(
                message.startswith(f"generators {a + 1} and {b + 1} overlap")
                for message in reported
            )
            assert named == bool(_cells(*one) & _cells(*two)), (one, two)
