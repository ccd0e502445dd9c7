"""Vectorising NumPy backend: equivalence with the reference
interpreter, trace recording, fallback behaviour, thread scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SacRuntimeError
from repro.par.pool import Barrier, make_barrier
from repro.sac.interp import Interpreter
from repro.sac.eval.numpy_backend import Batched, NumpyEvaluator
from repro.sac.eval.scheduler import (
    SchedulerOptions,
    WithLoopScheduler,
    box_elements,
    split_bounds,
)
from repro.sac.parser import parse_module
from repro.sac.runtime.profiler import ExecutionTrace


def both(source, function, *args, defines=None):
    """(reference, backend) results for one program."""
    module = parse_module(source)
    reference = Interpreter(module, defines).call(function, *args)
    backend = NumpyEvaluator(parse_module(source), defines).call(function, *args)
    return reference, backend


class TestEquivalence:
    def test_genarray(self):
        source = """double[.,.] f(int n) {
            return( with { ([0,0] <= [i,j] < [n,n]) : tod(i) * 10.0 + tod(j); }
                    : genarray([n, n], 0.0) );
        }"""
        ref, got = both(source, "f", 5)
        np.testing.assert_array_equal(ref, got)

    def test_partial_generator_with_default(self):
        source = """double[.] f() {
            return( with { ([2] <= [i] < [5]) : 7.0; } : genarray([8], 1.5) );
        }"""
        ref, got = both(source, "f")
        np.testing.assert_array_equal(ref, got)

    def test_multiple_generators(self):
        source = """double[.] f() {
            return( with { ([0] <= [i] < [3]) : 1.0;
                           ([5] <= [i] < [8]) : 2.0; } : genarray([8], 0.0) );
        }"""
        ref, got = both(source, "f")
        np.testing.assert_array_equal(ref, got)

    def test_modarray(self):
        source = """double[.,.] f(double[.,.] a) {
            n = shape(a)[0];
            return( with { ([0,0] <= [i,j] < [1, shape(a)[1]]) : a[i,j] * -1.0; }
                    : modarray(a) );
        }"""
        arg = np.arange(12.0).reshape(3, 4)
        ref, got = both(source, "f", arg)
        np.testing.assert_array_equal(ref, got)

    def test_fold_max_exact(self):
        source = """double f(double[.] a) {
            n = shape(a)[0];
            return( with { ([0] <= [i] < [n]) : a[i]; } : fold(max, -100.0) );
        }"""
        arg = np.random.default_rng(0).normal(0, 1, 101)
        ref, got = both(source, "f", arg)
        assert ref == got

    def test_fold_sum_close(self):
        """Vectorised reduction order differs: equal to tolerance."""
        source = """double f(double[.] a) {
            n = shape(a)[0];
            return( with { ([0] <= [i] < [n]) : a[i]; } : fold(+, 0.0) );
        }"""
        arg = np.random.default_rng(1).normal(0, 1, 257)
        ref, got = both(source, "f", arg)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_gather_with_index_arithmetic(self):
        source = """double[.] f(double[.] a) {
            return( { [i] -> a[i + 2] - a[i] | [i] < [6] } );
        }"""
        arg = np.arange(8.0) ** 2
        ref, got = both(source, "f", arg)
        np.testing.assert_array_equal(ref, got)

    def test_vector_index_var(self):
        source = """double[.,.] f(double[.,.] a) {
            return( { iv -> a[iv] * 2.0 | iv < shape(a) } );
        }"""
        arg = np.arange(6.0).reshape(2, 3)
        ref, got = both(source, "f", arg)
        np.testing.assert_array_equal(ref, got)

    def test_element_vectors(self):
        """Bodies producing non-scalar elements (fluid_cv style)."""
        source = """
        typedef double[2] vec2;
        vec2[.] f(double[.] a) {
            return( { [i] -> [a[i], -a[i]] | [i] < [5] } );
        }"""
        arg = np.arange(5.0)
        ref, got = both(source, "f", arg)
        np.testing.assert_array_equal(ref, got)

    def test_mixed_element_ranks(self):
        """The getDt pattern: vector + scalar per cell, over DELTA."""
        source = """double[.,.] f(double[+] d, double[+] c, double[.] delta) {
            return( { iv -> sum((d[iv] + c[iv]) / delta) | iv < shape(c) } );
        }"""
        d = np.random.default_rng(2).uniform(1, 2, (4, 5, 2))
        c = np.random.default_rng(3).uniform(1, 2, (4, 5))
        delta = np.array([0.5, 0.25])
        ref, got = both(source, "f", d, c, delta)
        np.testing.assert_allclose(got, ref, rtol=1e-14)

    def test_conditional_in_body(self):
        source = """double[.] f(double[.] a) {
            return( { [i] -> a[i] > 0.0 ? a[i] : 0.0 | [i] < [7] } );
        }"""
        arg = np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0])
        ref, got = both(source, "f", arg)
        np.testing.assert_array_equal(ref, got)

    def test_index_dependent_user_call_falls_back(self):
        """Non-inline user calls in bodies can't vectorise; results agree."""
        source = """
        double helper(double x) { y = x * 2.0; z = y + 1.0; return( z ); }
        double[.] f(double[.] a) { return( { [i] -> helper(a[i]) | [i] < [4] } ); }
        """
        arg = np.arange(4.0)
        ref, got = both(source, "f", arg)
        np.testing.assert_array_equal(ref, got)

    def test_take_drop_on_batched_elements(self):
        source = """double[.] f(double[.,.] qp) {
            return( { [i] -> sum(take([2], qp[i])) | [i] < [3] } );
        }"""
        arg = np.arange(12.0).reshape(3, 4)
        ref, got = both(source, "f", arg)
        np.testing.assert_array_equal(ref, got)

    def test_out_of_bounds_gather_raises(self):
        source = """double[.] f(double[.] a) {
            return( { [i] -> a[i + 2] | [i] < [4] } );
        }"""
        with pytest.raises(SacRuntimeError, match="out of bounds"):
            NumpyEvaluator(parse_module(source)).call("f", np.zeros(4))

    @given(
        data=arrays(
            np.float64,
            st.integers(min_value=4, max_value=12),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_stencil_property(self, data):
        source = """double[.] f(double[.] a) {
            n = shape(a)[0];
            return( { [i] -> (a[i + 1] - a[i]) * 0.5 | [i] < [n - 1] } );
        }"""
        ref = Interpreter(parse_module(source)).call("f", data)
        got = NumpyEvaluator(parse_module(source)).call("f", data)
        np.testing.assert_array_equal(ref, got)


class TestTrace:
    def test_regions_recorded(self):
        source = """double f(double[.,.] a) {
            b = a * 2.0 + 1.0;
            c = { [i,j] -> b[i,j] * b[i,j] };
            return( sum(c) );
        }"""
        trace = ExecutionTrace()
        NumpyEvaluator(parse_module(source), trace=trace).call(
            "f", np.ones((20, 30))
        )
        assert trace.parallel_region_count >= 3  # 2 elementwise + wl + reduce
        assert trace.total_work > 0
        assert trace.total_bytes > 0

    def test_scalar_ops_not_recorded(self):
        source = "double f(double x) { return( x * 2.0 + 1.0 ); }"
        trace = ExecutionTrace()
        NumpyEvaluator(parse_module(source), trace=trace).call("f", 3.0)
        assert len(trace) == 0

    def test_trace_disabled_by_default(self):
        source = "double[.] f(double[.] a) { return( a + 1.0 ); }"
        evaluator = NumpyEvaluator(parse_module(source))
        evaluator.call("f", np.ones(10))
        assert len(evaluator.trace) == 0


class TestScheduler:
    def test_split_bounds_partitions_exactly(self):
        chunks = split_bounds((0, 0), (10, 7), 3)
        assert len(chunks) == 3
        covered = sum(hi[0] - lo[0] for lo, hi in chunks)
        assert covered == 10
        assert chunks[0][0] == (0, 0)
        assert chunks[-1][1] == (10, 7)

    @given(
        extent=st.integers(min_value=1, max_value=50),
        parts=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_split_property(self, extent, parts):
        chunks = split_bounds((0,), (extent,), parts)
        # contiguous, disjoint, covering
        position = 0
        for lo, hi in chunks:
            assert lo[0] == position
            assert hi[0] > lo[0]
            position = hi[0]
        assert position == extent

    def test_empty_box(self):
        assert split_bounds((3,), (3,), 4) == []

    def test_box_elements(self):
        assert box_elements((0, 0), (3, 4)) == 12
        assert box_elements((2,), (2,)) == 0

    def test_threaded_execution_matches_serial(self):
        source = """double[.,.] f(double[.,.] a) {
            return( { [i,j] -> a[i,j] * 3.0 + 1.0 } );
        }"""
        arg = np.random.default_rng(4).normal(0, 1, (64, 64))
        serial = NumpyEvaluator(parse_module(source)).call("f", arg)
        threaded = NumpyEvaluator(
            parse_module(source),
            scheduler=SchedulerOptions(threads=4, min_elements_per_thread=16),
        ).call("f", arg)
        np.testing.assert_array_equal(serial, threaded)

    def test_small_loops_run_inline(self):
        used = WithLoopScheduler(
            SchedulerOptions(threads=8, min_elements_per_thread=1000)
        ).run((0,), (10,), lambda lo, hi: None)
        assert used == 1

    def test_worker_errors_propagate(self):
        def boom(lo, hi):
            raise SacRuntimeError("kaboom")

        scheduler = WithLoopScheduler(
            SchedulerOptions(threads=4, min_elements_per_thread=1)
        )
        with pytest.raises(SacRuntimeError, match="kaboom"):
            scheduler.run((0,), (100,), boom)

    def test_with_loops_share_one_persistent_team(self):
        """Chunks are rounds of the process's team: 50 parallel
        with-loops add no thread, and equal the 1-thread evaluation."""
        import threading

        source = """double[.,.] f(double[.,.] a) {
            b = { [i,j] -> a[i,j] * 3.0 + 1.0 };
            return( { [i,j] -> b[i,j] / 7.0 - a[i,j] } );
        }"""
        arg = np.random.default_rng(11).normal(0, 1, (64, 64))
        serial = NumpyEvaluator(parse_module(source)).call("f", arg)
        evaluator = NumpyEvaluator(
            parse_module(source),
            scheduler=SchedulerOptions(threads=3, min_elements_per_thread=16),
        )
        np.testing.assert_array_equal(evaluator.call("f", arg), serial)
        threads = threading.active_count()
        for _ in range(25):  # two with-loops a call
            np.testing.assert_array_equal(evaluator.call("f", arg), serial)
        assert threading.active_count() == threads
        assert evaluator.scheduler.run((0,), (96,), lambda lo, hi: None) == 3

    def test_nested_with_loop_runs_inline_in_its_worker(self):
        """The team is flat: a with-loop met inside a chunk does not wait
        for the round it is part of."""
        scheduler = WithLoopScheduler(
            SchedulerOptions(threads=2, min_elements_per_thread=1)
        )
        inner_workers = []

        def chunk(lo, hi):
            inner_workers.append(scheduler.run((0,), (8,), lambda lo, hi: None))

        assert scheduler.run((0,), (8,), chunk) == 2
        assert inner_workers == [1, 1]
        assert scheduler.run((0,), (8,), lambda lo, hi: None) == 2

    def test_spin_barrier(self):
        import threading

        barrier = make_barrier("spin", 4)
        counter = {"n": 0}
        lock = threading.Lock()

        def worker():
            with lock:
                counter["n"] += 1
            barrier.wait()

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        worker()
        for t in threads:
            t.join()
        assert counter["n"] == 4

    def test_spin_barrier_needs_parties(self):
        with pytest.raises(ValueError):
            Barrier(0)


class TestBatched:
    def test_expanded_inserts_axes_after_box(self):
        value = Batched(np.zeros((4, 5)), box_rank=2)
        assert value.element_rank == 0
        assert value.expanded(2).shape == (4, 5, 1, 1)

    def test_expanded_noop_when_rank_matches(self):
        value = Batched(np.zeros((4, 5, 3)), box_rank=2)
        assert value.expanded(1).shape == (4, 5, 3)
