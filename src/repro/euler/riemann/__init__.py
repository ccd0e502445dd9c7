"""Approximate Riemann solvers.

The paper's code "includes a few options for the approximate Riemann
solver"; this package provides four standard ones and a registry so
solver configurations can name them:

* ``rusanov`` — local Lax-Friedrichs, the most dissipative and robust
* ``hll``     — Harten-Lax-van Leer two-wave solver
* ``hllc``    — HLL with a restored contact wave
* ``roe``     — Roe's linearised solver with a Harten entropy fix

Every solver consumes left/right *primitive* interface states in sweep
layout (field 1 is the velocity normal to the face) and returns the
numerical flux in the matching conservative layout.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.euler.riemann.rusanov import rusanov_flux, emit_rusanov
from repro.euler.riemann.hll import hll_flux, emit_hll
from repro.euler.riemann.hllc import hllc_flux, emit_hllc
from repro.euler.riemann.roe import roe_flux, emit_roe

RIEMANN_SOLVERS = {
    "rusanov": rusanov_flux,
    "hll": hll_flux,
    "hllc": hllc_flux,
    "roe": roe_flux,
}

# Kernel-IR definitions, keyed by the same names: what the engine runs —
# interpreted by NumPy or compiled to C — is derived from these; the
# functions above are the allocating references they are held to.
RIEMANN_EMITTERS = {
    "rusanov": emit_rusanov,
    "hll": emit_hll,
    "hllc": emit_hllc,
    "roe": emit_roe,
}


def get_riemann_solver(name: str):
    """Look up a Riemann solver by name; raises ConfigurationError for unknown names."""
    try:
        return RIEMANN_SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(RIEMANN_SOLVERS))
        raise ConfigurationError(
            f"unknown Riemann solver {name!r} (known: {known})"
        ) from None


def get_riemann_emitter(name: str):
    """Kernel-IR emitter matching :func:`get_riemann_solver`."""
    try:
        return RIEMANN_EMITTERS[name]
    except KeyError:
        known = ", ".join(sorted(RIEMANN_EMITTERS))
        raise ConfigurationError(
            f"unknown Riemann solver {name!r} (known: {known})"
        ) from None


__all__ = [
    "RIEMANN_SOLVERS",
    "RIEMANN_EMITTERS",
    "get_riemann_solver",
    "get_riemann_emitter",
    "rusanov_flux",
    "hll_flux",
    "hllc_flux",
    "roe_flux",
]
