"""Rusanov (local Lax-Friedrichs) flux.

The simplest of the shipped approximate Riemann solvers:

    F = 0.5 (F(L) + F(R)) - 0.5 smax (U(R) - U(L))

with ``smax`` the largest local signal speed.  Heavily dissipative but
positivity-friendly; useful both as a production fallback and as the
reference the fancier solvers are regression-tested against.
"""

from __future__ import annotations

import numpy as np

from repro.euler.constants import GAMMA
from repro.euler import eos, state
from repro.euler.riemann.fused import emit_signal_speeds


def rusanov_flux(
    left: np.ndarray,
    right: np.ndarray,
    gamma: float = GAMMA,
) -> np.ndarray:
    """Numerical flux from primitive left/right states in sweep layout."""
    flux_left = state.physical_flux(left, axis_field=1, gamma=gamma)
    flux_right = state.physical_flux(right, axis_field=1, gamma=gamma)
    u_left = state.conservative_from_primitive(left, gamma)
    u_right = state.conservative_from_primitive(right, gamma)

    c_left = eos.sound_speed(left[..., 0], left[..., -1], gamma)
    c_right = eos.sound_speed(right[..., 0], right[..., -1], gamma)
    smax = np.maximum(
        np.abs(left[..., 1]) + c_left, np.abs(right[..., 1]) + c_right
    )
    return 0.5 * (flux_left + flux_right) - 0.5 * smax[..., None] * (u_right - u_left)


def emit_rusanov(b, left, right, gamma, gm1):
    """Kernel-IR definition of :func:`rusanov_flux` (repro.jit).

    ``left``/``right`` are lists of primitive field SSA values; returns
    the flux field values, one IR op per rounded operation.
    """
    flux_left = state.emit_physical_flux(b, left, gm1)
    flux_right = state.emit_physical_flux(b, right, gm1)
    u_left = state.emit_conservative_from_primitive(b, left, gm1)
    u_right = state.emit_conservative_from_primitive(b, right, gm1)
    smax = emit_signal_speeds(b, left, right, gamma, smax=True)

    out = [b.add(fl, fr) for fl, fr in zip(flux_left, flux_right)]
    out = [b.mul(f, 0.5) for f in out]
    smax = b.mul(smax, 0.5)
    du = [b.sub(ur, ul) for ul, ur in zip(u_left, u_right)]
    du = [b.mul(smax, d) for d in du]
    return [b.sub(f, d) for f, d in zip(out, du)]
