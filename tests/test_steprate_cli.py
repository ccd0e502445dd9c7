"""Unit tests for the steprate CLI helpers (no timing, tiny grids)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.jit
from repro.steprate import _phase_table, main, measure_steprate


def _result_with(tiled_seconds, untiled_seconds):
    return {
        "tiled_counters": {"seconds": tiled_seconds},
        "untiled_counters": {"seconds": untiled_seconds},
    }


def test_phase_table_handles_disjoint_phase_sets():
    """A jit engine carries jit_sweep/jit_dt phases the NumPy engine
    lacks; the table must iterate the union, not KeyError.

    Regression: iterating only the tiled keys raised KeyError on
    untiled[phase] whenever the two engines resolved to different
    backends (e.g. --backend jit with an untiled NumPy fallback).
    """
    table = _phase_table(
        _result_with(
            {"rk": 0.5, "jit_sweep": 1.25},
            {"rk": 0.75, "riemann": 2.0},
        )
    )
    lines = table.splitlines()
    assert len(lines) == 1 + 3  # header + union of three phases
    body = "\n".join(lines[1:])
    assert "jit_sweep" in body and "riemann" in body and "rk" in body
    # Absent phases print as 0.000 instead of raising.
    jit_line = next(line for line in lines if "jit_sweep" in line)
    assert jit_line.split() == ["jit_sweep", "1.250", "0.000"]
    riemann_line = next(line for line in lines if "riemann" in line)
    assert riemann_line.split() == ["riemann", "0.000", "2.000"]


def test_phase_table_identical_sets_unchanged():
    table = _phase_table(
        _result_with({"rk": 1.0, "dt": 2.0}, {"rk": 3.0, "dt": 4.0})
    )
    assert len(table.splitlines()) == 3


def test_measure_steprate_backend_pin_is_exact():
    """Pinned-numpy and default measurements agree bitwise and report
    their backend."""
    numpy_result = measure_steprate(grid=12, steps=1, backend="numpy")
    assert numpy_result["backend"] == "numpy"
    assert numpy_result["max_abs_difference_tiled_vs_untiled"] == 0.0
    if repro.jit.available():
        jit_result = measure_steprate(grid=12, steps=1, backend="jit")
        assert jit_result["backend"] == "jit"
        assert jit_result["max_abs_difference_tiled_vs_untiled"] == 0.0


def test_cli_backend_flag(tmp_path, capsys):
    out = tmp_path / "rate.json"
    code = main(
        ["--grid", "12", "--steps", "1", "--backend", "numpy", "--json", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "backend=numpy" in printed
    assert "jit_sweep" not in printed  # numpy engines carry no jit phases
    assert out.exists()


def test_jit_summary_surfaces_fallbacks_and_serializations():
    from repro.steprate import _jit_summary

    counters = {
        "steps": 2,
        "jit": {
            "threads": 2,
            "stage_calls": 6,
            "dt_calls": 2,
            "sweep_calls": 10,
            "strips_threaded": 6,
            "pencil": 16,
            "vector": {"sweep": 64, "dt": 0},
            "fallbacks": {"non-float64 state": 3},
            "serialized": {"DEP002: seeded overlap": 4},
            "flag_fallbacks": {"flag fallback: cc -O3 failed (1)": 1},
        }
    }
    summary = _jit_summary(counters)
    assert "threads=2" in summary
    assert "crossings/step=4.0 sweep_calls=10" in summary
    assert "vector: dt=scalar sweep=64B" in summary
    assert "jit flag fallback: cc -O3 failed (1) (1x)" in summary
    assert "strips_threaded=6 pencil=16" in summary
    assert "jit fallback (3 strip(s)): non-float64 state" in summary
    assert "jit serialized (4 strip(s)): DEP002: seeded overlap" in summary


def test_jit_summary_silent_without_backend():
    from repro.steprate import _jit_summary

    assert _jit_summary({"backend": "numpy"}) == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", "12", "--steps", "0"],
        ["--grid", "0", "--steps", "1"],
        ["--grid", "12", "--steps", "0", "--batch", "2"],
    ],
)
def test_cli_refuses_an_empty_run(argv, capsys):
    """No steps or no cells: a usage error (exit 2), not a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_cli_seed_baseline_prints_and_gates_the_seed_difference(
    monkeypatch, capsys
):
    """``--seed-baseline`` prints max |tiled - seed| and exits 1 unless it
    is 0.0, even when the tiled and untiled states agree."""
    import repro.steprate

    argv = ["--grid", "12", "--steps", "1", "--backend", "numpy", "--seed-baseline"]
    assert main(argv) == 0
    assert "max |tiled - seed| = 0.0" in capsys.readouterr().out

    measured = repro.steprate.measure_steprate

    def drifted(**kwargs):
        result = measured(**kwargs)
        result["max_abs_difference_tiled_vs_seed"] = 2.0**-52
        return result

    monkeypatch.setattr(repro.steprate, "measure_steprate", drifted)
    assert main(argv) == 1
    printed = capsys.readouterr().out
    assert "max |tiled - untiled| = 0.0" in printed
    assert f"max |tiled - seed| = {2.0**-52}" in printed
