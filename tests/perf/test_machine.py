"""Simulated machine model and the sync models."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.machine import (
    ForkJoinSyncModel,
    MachineModel,
    SpinSyncModel,
    TimeBreakdown,
    fortran_runtime,
    sac_runtime,
)
from repro.sac.runtime.profiler import ExecutionTrace, Region


def make_trace(*regions):
    trace = ExecutionTrace()
    trace.regions.extend(regions)
    return trace


class TestSyncModels:
    def test_spin_cheap_and_flat(self):
        spin = SpinSyncModel()
        assert spin.region_overhead(1) == 0.0
        assert spin.region_overhead(16) < 2e-6
        assert spin.nested_overhead(16, 1000) == 0.0

    def test_fork_join_grows_with_threads(self):
        fork = ForkJoinSyncModel()
        assert fork.region_overhead(2) < fork.region_overhead(16)
        assert fork.region_overhead(1) == 0.0

    def test_nested_churn_scales_with_outer_iterations(self):
        fork = ForkJoinSyncModel()
        assert fork.nested_overhead(4, 400) == pytest.approx(
            2 * fork.nested_overhead(4, 200)
        )
        assert fork.nested_overhead(1, 400) == 0.0

    def test_nested_disabled_removes_churn(self):
        flat = ForkJoinSyncModel(nested_penalty=1.0)
        assert flat.nested_overhead(8, 400) == 0.0

    def test_spin_vs_fork_asymmetry(self):
        """The paper's mechanism: spin sync orders of magnitude cheaper."""
        assert ForkJoinSyncModel().region_overhead(8) > 20 * SpinSyncModel().region_overhead(8)


class TestMachineModel:
    def test_compute_bound_region_scales(self):
        machine = MachineModel()
        trace = make_trace(Region("with_loop", 1_000_000, 10.0, 0))
        runtime = sac_runtime()
        t1 = machine.run_trace(trace, runtime, 1).total
        t4 = machine.run_trace(trace, runtime, 4).total
        assert t4 == pytest.approx(t1 / 4, rel=0.05)

    def test_serial_region_unaffected_by_threads(self):
        machine = MachineModel()
        trace = make_trace(Region("serial", 1000, 5.0, 0))
        runtime = fortran_runtime()
        assert machine.run_trace(trace, runtime, 1).total == pytest.approx(
            machine.run_trace(trace, runtime, 16).total
        )

    def test_memory_bound_region_does_not_scale(self):
        machine = MachineModel(memory_bandwidth=1e9)
        trace = make_trace(Region("with_loop", 1000, 1.0, 10_000_000_000))
        runtime = sac_runtime()
        t1 = machine.run_trace(trace, runtime, 1)
        t8 = machine.run_trace(trace, runtime, 8)
        assert t8.memory >= t1.memory  # bandwidth, not cores, is the wall

    def test_locality_contention_grows(self):
        machine = MachineModel(memory_bandwidth=1e9)
        trace = make_trace(Region("with_loop", 1000, 1.0, 10_000_000_000))
        runtime = fortran_runtime()  # locality_factor > 0
        t2 = machine.run_trace(trace, runtime, 2).memory
        t16 = machine.run_trace(trace, runtime, 16).memory
        assert t16 > t2

    def test_thread_bounds_checked(self):
        machine = MachineModel(cores=16)
        trace = make_trace(Region("with_loop", 10, 1.0, 0))
        with pytest.raises(ConfigurationError):
            machine.run_trace(trace, sac_runtime(), 17)
        with pytest.raises(ConfigurationError):
            machine.run_trace(trace, sac_runtime(), 0)

    def test_breakdown_adds_up(self):
        breakdown = TimeBreakdown(1.0, 2.0, 3.0, 4.0)
        assert breakdown.total == 10.0
        combined = breakdown + TimeBreakdown(1.0, 0.0, 0.0, 0.0)
        assert combined.compute == 2.0

    def test_speedup_curve_length(self):
        machine = MachineModel(cores=4)
        trace = make_trace(Region("with_loop", 1000, 1.0, 0))
        curve = machine.speedup_curve(trace, sac_runtime())
        assert [threads for threads, _ in curve] == [1, 2, 3, 4]


class TestTraceScaling:
    def test_scaled_elements_and_outer(self):
        trace = make_trace(
            Region("parallel_do", 16, 30.0, 128, "do:IY@1", outer_iterations=16),
            Region("serial", 10, 1.0, 0),
        )
        scaled = trace.scaled(element_factor=625.0, repetitions=2)
        assert len(scaled) == 4
        parallel = scaled.regions[0]
        assert parallel.elements == 16 * 625
        assert parallel.outer_iterations == 16 * 25  # sqrt(625)
        serial = scaled.regions[1]
        assert serial.elements == 10  # serial work does not scale

    def test_summary_string(self):
        trace = make_trace(Region("with_loop", 10, 2.0, 80))
        assert "1 regions" in trace.summary() or "regions" in trace.summary()

    def test_record_respects_enabled_flag(self):
        trace = ExecutionTrace(enabled=False)
        trace.record("with_loop", 100)
        assert len(trace) == 0
