"""Simulated-machine performance experiments (the paper's Fig. 4)."""

from repro.perf.machine import (
    LanguageRuntime,
    MachineModel,
    TimeBreakdown,
    fortran_runtime,
    sac_runtime,
)
from repro.perf.scaling import (
    MeasuredPoint,
    MeasuredScalingResult,
    ScalingPoint,
    ScalingResult,
    TwoChannelWorkload,
    figure4_experiment,
    figure4_measured,
    format_measured_table,
    format_scaling_table,
    measure_fortran_trace,
    measure_sac_trace,
)

__all__ = [
    "LanguageRuntime",
    "MachineModel",
    "TimeBreakdown",
    "fortran_runtime",
    "sac_runtime",
    "MeasuredPoint",
    "MeasuredScalingResult",
    "ScalingPoint",
    "ScalingResult",
    "TwoChannelWorkload",
    "figure4_experiment",
    "figure4_measured",
    "format_measured_table",
    "format_scaling_table",
    "measure_fortran_trace",
    "measure_sac_trace",
]
