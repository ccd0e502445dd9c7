"""Forensic reports: a blown-up run must say where and why it died."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.euler import problems
from repro.euler.solver import EulerEnsemble2D, EulerSolver2D, SolverConfig
from repro.obs import StepTrace, attach_forensics, build_report, format_report
from repro.par.solver import ParallelSolver2D


def _poisoned_sod(n_cells=64, cell=40):
    """A Sod tube with one cell's energy made negative (p < 0 there)."""
    solver, _ = problems.sod(n_cells=n_cells)
    solver.u[cell, 2] = -5.0
    return solver


class TestSerialForensics:
    def test_run_attaches_report_with_cells(self):
        solver = _poisoned_sod()
        trace = StepTrace()
        with pytest.raises(PhysicsError) as excinfo:
            solver.run(max_steps=5, watch=trace)
        error = excinfo.value
        assert error.forensics is not None
        report = error.forensics
        assert (40,) in report.cells
        assert report.config is not None
        assert report.config["riemann"] == solver.config.riemann
        assert report.step == 0

    def test_neighbourhood_window_centres_on_bad_cell(self):
        solver = _poisoned_sod()
        with pytest.raises(PhysicsError) as excinfo:
            solver.run(max_steps=5)
        hood = excinfo.value.forensics.neighbourhood
        assert hood is not None
        assert hood.origin == (38,)
        assert hood.values.shape == (5, 3)
        # the pressure of the poisoned cell is negative in the dump
        assert hood.values[40 - hood.origin[0], -1] < 0.0

    def test_report_keeps_trace_tail(self):
        solver, _ = problems.sod(n_cells=64)
        trace = StepTrace()
        solver.run(max_steps=6, watch=trace)  # healthy prefix
        solver.u[30, 2] = -5.0
        with pytest.raises(PhysicsError) as excinfo:
            solver.run(max_steps=12, watch=trace)
        tail = excinfo.value.forensics.trace_tail
        assert len(tail) == 6
        assert tail[-1].step == 6

    def test_format_report_is_printable(self):
        solver = _poisoned_sod()
        trace = StepTrace()
        with pytest.raises(PhysicsError) as excinfo:
            solver.run(max_steps=5, watch=trace)
        text = format_report(excinfo.value.forensics)
        assert "bad cells" in text
        assert "(40,)" in text
        assert "config" in text

    def test_attach_is_idempotent(self):
        error = PhysicsError("boom", cells=[(1,)])
        first = attach_forensics(error).forensics
        again = attach_forensics(error).forensics
        assert again is first

    def test_build_report_reconstructs_neighbourhood_from_solver(self):
        solver, _ = problems.sod(n_cells=32)
        error = PhysicsError("synthetic", cells=[(10,)])
        report = build_report(error, solver=solver)
        assert report.neighbourhood is not None
        assert report.neighbourhood.origin == (8,)

    def test_report_serialises_to_json(self):
        import json

        solver = _poisoned_sod()
        with pytest.raises(PhysicsError) as excinfo:
            solver.run(max_steps=5)
        payload = excinfo.value.forensics.to_json()
        text = json.dumps(payload)  # must not raise on numpy leftovers
        assert "cells" in payload and json.loads(text)["cells"] == [[40]]


class TestParallelForensics:
    """A team is an annotation on the serial engine, so the parallel
    report is the serial report: same grid cells, same window."""

    BAD = (14, 15)

    def _reports(self):
        """(serial, 4-worker) forensic reports of one poisoned run."""
        found = []
        for build in (
            lambda s: s,
            lambda s: ParallelSolver2D.from_serial(s, workers=4, barrier="spin"),
        ):
            serial, _ = problems.sod_2d(nx=24, ny=24)
            serial.u[self.BAD + (-1,)] = -1.0
            solver = build(serial)
            with pytest.raises(PhysicsError) as excinfo:
                solver.run(max_steps=3)
            found.append(excinfo.value)
            if solver is not serial:
                solver.close()
        return found

    def test_parallel_blowup_names_global_cells(self):
        serial_error, error = self._reports()
        assert error.cells == serial_error.cells == [self.BAD]
        assert "rank" not in error.details and error.batch_index is None
        assert error.forensics.cells == serial_error.forensics.cells == [self.BAD]

    def test_parallel_neighbourhood_origin_is_global(self):
        serial_error, error = self._reports()
        # GetDT failures carry cells but no window; the report rebuilds
        # one from the solver's (global) state.
        hood = error.forensics.neighbourhood
        assert hood is not None
        assert hood.origin == serial_error.forensics.neighbourhood.origin == (12, 13)
        assert np.array_equal(
            hood.values, serial_error.forensics.neighbourhood.values, equal_nan=True
        )

    def test_parallel_trace_records_team_telemetry(self):
        config = SolverConfig(tile_bytes=1)  # one-row strips: work for the team
        serial, _ = problems.sod_2d(nx=24, ny=24, config=config)
        with ParallelSolver2D.from_serial(
            serial, workers=4, barrier="forkjoin"
        ) as parallel:
            trace = StepTrace()
            parallel.run(max_steps=3, watch=trace)
            record = trace.records()[-1]
            assert record.workers == 4
            assert record.barrier_wait_seconds >= 0.0
            if record.jit_strips_threaded:
                assert record.jit_threads == 4
                assert sum(r.barrier_wait_seconds for r in trace.records()) == (
                    pytest.approx(parallel.barrier_wait_seconds)
                )
                assert parallel.barrier_wait_seconds > 0.0
            assert record.phase_seconds is not None


class TestEnsembleForensics:
    """``watch=`` works on any driver: one trace per member."""

    MAX_STEPS = 40

    def _ensemble(self):
        """Two healthy two-channel members around one that detonates a
        few steps in (a near-vacuum pocket with opposing velocities)."""
        def solo(mach):
            return problems.two_channel(n_cells=24, h=12.0, mach=mach)[0]

        template = solo(2.2)
        primitive = template.primitive
        primitive[8:16, 8:16, 1] = 6.0
        primitive[8:16, 8:16, 2] = -6.0
        primitive[8:16, 8:16, 3] = 0.01
        detonator = EulerSolver2D(
            primitive, template.dx, template.dy, template.boundaries,
            config=template.config,
        )
        return EulerEnsemble2D.from_solvers([solo(1.8), detonator, solo(2.6)])

    def test_retired_member_trace_tail_is_its_own_records(self):
        ensemble = self._ensemble()
        traces = [StepTrace() for _ in range(3)]
        result = ensemble.run(max_steps=self.MAX_STEPS, watch=traces)
        retired = result.members[1]
        assert retired.failed and 0 < retired.steps < self.MAX_STEPS
        tail = retired.error.forensics.trace_tail
        assert tail and tail == traces[1].last(len(tail))
        assert [record.step for record in tail][-1] == retired.steps
        assert tail[-1].time == retired.time
        assert [record.dt for record in tail] == retired.dt_history[-len(tail):]
        # each trace watched one member: the survivors' ran to the end,
        # the retired member's stopped with it
        assert traces[1].total_recorded == retired.steps
        assert traces[0].total_recorded == traces[2].total_recorded == self.MAX_STEPS
        assert traces[0].records()[-1].time == result.members[0].time
        assert ensemble.watch is None  # installed for the call only

    def test_unwatched_ensemble_reports_without_a_tail(self):
        result = self._ensemble().run(max_steps=self.MAX_STEPS)
        report = result.members[1].error.forensics
        assert report.cells and report.trace_tail == []

    def test_partly_watched_ensemble(self):
        trace = StepTrace()
        result = self._ensemble().run(max_steps=5, watch=[None, None, trace])
        assert [record.step for record in trace.records()] == [1, 2, 3, 4, 5]
        assert trace.records()[-1].dt == result.members[2].dt_history[-1]
