"""Debugging a blown-up run: step telemetry and failure forensics.

1. watch a healthy Sod run with a :class:`repro.obs.StepTrace` and
   export the per-step telemetry (dt, conservation drift, min
   density/pressure, per-phase seconds) to JSONL;
2. poison one cell's energy mid-run so the next step goes unphysical,
   and show the forensic report the raised
   :class:`~repro.errors.PhysicsError` carries — the offending cells,
   a primitive-variable neighbourhood dump, the last trace records,
   and the active solver configuration;
3. repeat the blow-up on the 4-worker parallel solver and show that it
   is the serial solver's report — same grid cell, same window — because
   a worker team is an annotation on the same engine, not another one.

Run:  python examples/debug_blowup.py
"""

import tempfile
from pathlib import Path

from repro.errors import PhysicsError
from repro.euler import problems
from repro.obs import StepTrace, format_report, read_jsonl, write_jsonl
from repro.par import ParallelSolver2D


def traced_healthy_run() -> None:
    print("=== 1. a watched run exports per-step telemetry ===")
    solver, _ = problems.sod(n_cells=128)
    trace = StepTrace(capacity=64)
    solver.run(max_steps=20, watch=trace)
    records = trace.records()
    last = records[-1]
    print(f"recorded {len(records)} steps; last: step={last.step}"
          f" dt={last.dt:.3e} mass_drift={last.mass_drift:.2e}"
          f" min_pressure={last.min_pressure:.4f}")
    path = Path(tempfile.gettempdir()) / "sod_trace.jsonl"
    write_jsonl(trace, path)
    assert len(read_jsonl(path)) == len(records)
    print(f"JSONL round trip OK: {path}")


def serial_blowup() -> None:
    print("\n=== 2. a poisoned serial run fails loudly, with forensics ===")
    solver, _ = problems.sod(n_cells=128)
    trace = StepTrace(capacity=64)
    solver.watch = trace
    for _ in range(5):
        solver.step()
    solver.u[70, 2] = -4.0  # negative total energy: unphysical
    try:
        solver.run(max_steps=10)  # max_steps bounds the TOTAL step count
    except PhysicsError as error:
        assert error.forensics is not None
        assert (70,) in error.forensics.cells
        print(format_report(error.forensics))
    else:
        raise SystemExit("poisoned run did not raise")


def parallel_blowup() -> None:
    print("\n=== 3. the parallel solver raises the serial solver's error ===")
    bad = (14, 15)
    reports = []
    for workers in (None, 4):
        solver, _ = problems.sod_2d(nx=24, ny=24)
        if workers is not None:
            solver = ParallelSolver2D.from_serial(solver, workers=workers)
        for _ in range(2):
            solver.step()
        solver.u[bad + (-1,)] = -1.0  # negative total energy: unphysical
        try:
            solver.run(max_steps=5)
        except PhysicsError as error:
            assert error.cells == [bad], error.cells
            assert "rank" not in error.details
            reports.append(format_report(error.forensics))
        else:
            raise SystemExit("poisoned run did not raise")
        if workers is not None:
            solver.close()
    assert reports[0] == reports[1]
    print(f"serial and 4-worker reports are identical, naming cell {bad}:")
    print(reports[1])


if __name__ == "__main__":
    traced_healthy_run()
    serial_blowup()
    parallel_blowup()
    print("\nall three demonstrations passed")
