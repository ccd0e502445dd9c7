"""Reproduction of Rolls et al., "Numerical Simulations of Unsteady
Shock Wave Interactions Using SaC and Fortran-90" (PaCT 2009).

Subpackages
-----------
``repro.euler``
    NumPy reference Euler solver (the physics).
``repro.sac``
    A miniature SaC: front end, type/shape checker, optimising
    pipeline, interpreter, NumPy backend and threaded-runtime model.
``repro.f90``
    A mini Fortran-90: front end, loop dependence analysis,
    auto-paralleliser and interpreter with an OpenMP cost model.
``repro.perf``
    Simulated shared-memory multicore machine and the scaling
    experiments behind the paper's Fig. 4.
``repro.par``
    The worker team (spin vs fork/join barriers) the engine runs its
    sweep strips on, and the parallel solver behind the measured
    Fig. 4 mode.
``repro.obs``
    Step telemetry (ring-buffer traces, JSONL export) and
    physics-failure forensics.
"""

__version__ = "1.0.0"

__all__ = ["euler", "sac", "f90", "perf", "par", "obs"]
