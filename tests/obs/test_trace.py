"""StepTrace: record schema, ring semantics, JSONL round trip, cost."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.euler import problems
from repro.obs import StepTrace, TraceRecord, read_jsonl, write_jsonl


def _record(step=0, **overrides):
    base = dict(
        step=step, time=0.1 * step, dt=0.1, cfl=0.5,
        mass=1.0, momentum_x=0.0, momentum_y=0.0, energy=2.5,
        mass_drift=0.0, energy_drift=0.0,
        min_density=0.125, min_pressure=0.1,
    )
    base.update(overrides)
    return TraceRecord(**base)


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            StepTrace(capacity=0)

    def test_records_in_order_before_wrap(self):
        trace = StepTrace(capacity=8)
        for step in range(5):
            trace.append(_record(step))
        assert [r.step for r in trace.records()] == [0, 1, 2, 3, 4]
        assert len(trace) == 5
        assert trace.total_recorded == 5

    def test_wraparound_keeps_newest_in_order(self):
        trace = StepTrace(capacity=4)
        for step in range(11):
            trace.append(_record(step))
        assert [r.step for r in trace.records()] == [7, 8, 9, 10]
        assert len(trace) == 4
        assert trace.total_recorded == 11

    def test_exactly_full_ring_returns_all_records(self):
        # Boundary case: after exactly ``capacity`` appends the write
        # cursor has wrapped to 0 but nothing has been evicted yet; a
        # naive unwrapped slice silently returns an empty list here.
        trace = StepTrace(capacity=4)
        for step in range(4):
            trace.append(_record(step))
        assert [r.step for r in trace.records()] == [0, 1, 2, 3]
        assert len(trace) == 4

    def test_last_n(self):
        trace = StepTrace(capacity=4)
        for step in range(6):
            trace.append(_record(step))
        assert [r.step for r in trace.last(2)] == [4, 5]
        assert trace.last(0) == []
        # asking for more than retained returns what is retained
        assert [r.step for r in trace.last(99)] == [2, 3, 4, 5]

    def test_clear_resets_everything(self):
        trace = StepTrace(capacity=4)
        for step in range(6):
            trace.append(_record(step))
        trace.clear()
        assert trace.records() == []
        assert trace.total_recorded == 0


class TestRecordedRun:
    def test_serial_run_records_every_step(self):
        solver, _ = problems.sod(n_cells=64)
        trace = StepTrace(capacity=64)
        result = solver.run(max_steps=10, watch=trace)
        assert result.steps == 10
        assert [r.step for r in trace.records()] == list(range(1, 11))
        first = trace.records()[0]
        assert first.dt > 0.0
        assert first.cfl == solver.config.cfl
        assert first.min_density > 0.0
        assert first.min_pressure > 0.0
        assert first.phase_seconds is not None
        assert set(first.phase_seconds) >= {"riemann", "rk", "dt"}
        assert first.workers == 1
        assert first.barrier_wait_seconds == 0.0

    def test_conservation_drift_is_relative_to_first_record(self):
        solver, _ = problems.sod(n_cells=64)
        trace = StepTrace()
        solver.run(max_steps=8, watch=trace)
        records = trace.records()
        # transmissive ends leak mass eventually, but over 8 early steps
        # of Sod the totals are conserved to rounding
        assert abs(records[0].mass_drift) == 0.0
        assert all(abs(r.mass_drift) < 1e-12 for r in records)
        assert all(abs(r.energy_drift) < 1e-12 for r in records)

    def test_phase_seconds_are_per_step_deltas(self):
        solver, _ = problems.sod(n_cells=64)
        trace = StepTrace()
        solver.run(max_steps=6, watch=trace)
        per_step = sum(r.phase_seconds["riemann"] for r in trace.records())
        cumulative = solver.phase_seconds["riemann"]
        assert per_step == pytest.approx(cumulative, rel=1e-9)

    def test_watch_installed_by_run_is_removed_after(self):
        solver, _ = problems.sod(n_cells=32)
        trace = StepTrace()
        solver.run(max_steps=2, watch=trace)
        assert solver.watch is None
        solver.step()
        assert trace.total_recorded == 2  # the extra step was not recorded

    def test_watch_none_steps_allocate_nothing(self):
        """The telemetry hook must be free when disabled."""
        solver, _ = problems.sod(n_cells=64)
        for _ in range(3):
            solver.step()  # warm every lazy buffer
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(3):
                solver.step()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        grown = sum(
            s.size_diff
            for s in after.compare_to(before, "filename")
            if s.size_diff > 0
        )
        assert grown < 4096  # tracemalloc bookkeeping noise only


class TestJsonl:
    def test_round_trip(self, tmp_path):
        solver, _ = problems.sod(n_cells=48)
        trace = StepTrace()
        solver.run(max_steps=5, watch=trace)
        path = write_jsonl(trace, tmp_path / "trace.jsonl")
        back = read_jsonl(path)
        assert [r.to_json() for r in back] == [
            r.to_json() for r in trace.records()
        ]

    def test_plain_record_list_round_trip(self, tmp_path):
        records = [_record(step) for step in range(3)]
        path = write_jsonl(records, tmp_path / "records.jsonl")
        assert [r.step for r in read_jsonl(path)] == [0, 1, 2]

    def test_unknown_fields_rejected(self):
        payload = _record(0).to_json()
        payload["bogus"] = 1
        with pytest.raises(ConfigurationError, match="bogus"):
            TraceRecord.from_json(payload)

    def test_retired_halo_fields_still_load(self, tmp_path):
        """Exports written while ``repro.par`` copied halos (old spool
        files, the committed BENCH_steprate_trace.jsonl) read back as
        the same records without the two retired keys."""
        import json

        payload = _record(3).to_json()
        payload.update(halo_copies=24, halo_bytes=4096)
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        assert read_jsonl(path) == [_record(3)]

    def test_only_the_retired_fields_are_let_through(self):
        payload = _record(0).to_json()
        payload.update(halo_copies=24, halo_bytes=4096, halo_strips=3)
        with pytest.raises(ConfigurationError, match=r"\['halo_strips'\]"):
            TraceRecord.from_json(payload)

    def test_pre_backend_payloads_still_parse(self):
        """Spool files written before the backend fields existed load
        with the defaults (from_json rejects unknown keys, so the new
        fields must be declared, defaulted dataclass fields)."""
        payload = _record(0).to_json()
        for key in (
            "backend",
            "jit_compile_seconds",
            "jit_cache_hits",
            "jit_cache_misses",
            "jit_vector",
        ):
            payload.pop(key)
        record = TraceRecord.from_json(payload)
        assert record.backend == "numpy" and record.jit_vector is None
        assert record.jit_compile_seconds == 0.0
        assert record.jit_cache_hits == 0 and record.jit_cache_misses == 0


class TestBackendTelemetry:
    def test_numpy_solver_records_numpy_backend(self):
        import repro.jit

        with repro.jit.backend_override("numpy"):
            solver, _ = problems.sod(n_cells=48)
        trace = StepTrace()
        solver.run(max_steps=2, watch=trace)
        record = trace.records()[-1]
        assert record.backend == "numpy"
        assert record.jit_cache_hits == 0 and record.jit_cache_misses == 0

    def test_jit_solver_records_backend_and_cache_counters(self):
        import repro.jit

        from repro.euler.solver import SolverConfig

        if not repro.jit.available():
            pytest.skip("no C compiler in this environment")
        # A lowerable specialization (the default weno3+characteristic
        # falls back to NumPy by design).
        config = SolverConfig(
            reconstruction="weno3", variables="primitive", riemann="hllc"
        )
        with repro.jit.backend_override("jit"):
            solver, _ = problems.sod(n_cells=48, config=config)
        trace = StepTrace()
        solver.run(max_steps=2, watch=trace)
        record = trace.records()[-1]
        assert record.backend == "jit"
        # The specialization was compiled (or dlopen'd from a warm
        # cache) exactly once — either way one of the counters moved.
        assert record.jit_cache_hits + record.jit_cache_misses >= 1
        assert record.to_json()["backend"] == "jit"
        # what the compiler said about this kernel's loops rides along,
        # the same numbers the backend reports, and round-trips
        vector = solver.engine.backend.stats()["vector"]
        assert set(vector) == {"sweep", "dt"} and record.jit_vector == vector
        assert TraceRecord.from_json(record.to_json()).jit_vector == vector
