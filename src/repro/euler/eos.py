"""Ideal-gas equation of state.

The paper closes the Euler system with a perfect gas law (its Eq. 3):

    p = (gamma - 1) * (E - rho * (u^2 + v^2) / 2)

All functions here are elementwise and accept scalars or NumPy arrays;
they are the allocating reference.  The ``emit_*`` functions below define
the same formulas, one IR op per rounded operation in the same order, for
the in-place NumPy programs and the compiled kernels (:mod:`repro.jit`).
"""

from __future__ import annotations

import numpy as np

from repro.euler.constants import GAMMA


def pressure(rho, kinetic_energy_density, total_energy, gamma: float = GAMMA):
    """Pressure from total energy density.

    ``kinetic_energy_density`` is ``rho * |velocity|^2 / 2``.
    """
    return (gamma - 1.0) * (total_energy - kinetic_energy_density)


def total_energy(rho, velocity_squared, p, gamma: float = GAMMA):
    """Total energy density E from primitive variables.

    ``velocity_squared`` is ``u^2`` in 1-D or ``u^2 + v^2`` in 2-D.
    """
    return p / (gamma - 1.0) + 0.5 * rho * velocity_squared


def sound_speed(rho, p, gamma: float = GAMMA):
    """Speed of sound ``c = sqrt(gamma * p / rho)`` (the paper's ``C``)."""
    return np.sqrt(gamma * p / rho)


def enthalpy(rho, velocity_squared, p, gamma: float = GAMMA):
    """Specific total enthalpy ``H = (E + p) / rho``."""
    energy = total_energy(rho, velocity_squared, p, gamma)
    return (energy + p) / rho


def internal_energy(rho, p, gamma: float = GAMMA):
    """Specific internal energy ``e = p / ((gamma - 1) rho)``."""
    return p / ((gamma - 1.0) * rho)


def entropy(rho, p, gamma: float = GAMMA):
    """Entropy function ``s = p / rho^gamma`` (constant across rarefactions)."""
    return p / rho**gamma


# -- kernel-IR definitions (repro.jit) ----------------------------------
#
# One IR op per rounded operation of the expressions above, in their
# evaluation order.  ``b`` is a :class:`repro.jit.ir.IRBuilder`;
# arguments and returns are SSA values.  ``gm1`` is the prebuilt
# ``gamma - 1.0`` value (a folded float in a NumPy program, computed
# once per kernel in C).


def emit_pressure(b, kinetic, total_energy_value, gm1):
    """IR definition of :func:`pressure`."""
    out = b.sub(total_energy_value, kinetic)
    return b.mul(out, gm1)


def emit_total_energy(b, rho, velocity_squared, p, gm1):
    """IR definition of :func:`total_energy`."""
    out = b.div(p, gm1)
    scratch = b.mul(rho, 0.5)
    scratch = b.mul(scratch, velocity_squared)
    return b.add(out, scratch)


def emit_sound_speed(b, rho, p, gamma):
    """IR definition of :func:`sound_speed`."""
    out = b.mul(p, gamma)
    out = b.div(out, rho)
    return b.sqrt(out)
