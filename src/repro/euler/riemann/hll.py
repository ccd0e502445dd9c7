"""HLL two-wave approximate Riemann solver.

Uses Davis-style wave-speed estimates:

    sL = min(uL - cL, uR - cR),   sR = max(uL + cL, uR + cR)

and the standard HLL average flux in the subsonic wedge.
"""

from __future__ import annotations

import numpy as np

from repro.euler.constants import GAMMA
from repro.euler import eos, state
from repro.euler.riemann.fused import emit_signal_speeds


def wave_speed_estimates(left, right, gamma: float = GAMMA):
    """Davis estimates (sL, sR) for the outermost wave speeds."""
    c_left = eos.sound_speed(left[..., 0], left[..., -1], gamma)
    c_right = eos.sound_speed(right[..., 0], right[..., -1], gamma)
    s_left = np.minimum(left[..., 1] - c_left, right[..., 1] - c_right)
    s_right = np.maximum(left[..., 1] + c_left, right[..., 1] + c_right)
    return s_left, s_right


def hll_flux(
    left: np.ndarray,
    right: np.ndarray,
    gamma: float = GAMMA,
) -> np.ndarray:
    """Numerical flux from primitive left/right states in sweep layout."""
    flux_left = state.physical_flux(left, axis_field=1, gamma=gamma)
    flux_right = state.physical_flux(right, axis_field=1, gamma=gamma)
    u_left = state.conservative_from_primitive(left, gamma)
    u_right = state.conservative_from_primitive(right, gamma)
    s_left, s_right = wave_speed_estimates(left, right, gamma)

    sl = s_left[..., None]
    sr = s_right[..., None]
    denominator = np.where(sr - sl == 0.0, 1.0, sr - sl)
    hll = (sr * flux_left - sl * flux_right + sl * sr * (u_right - u_left)) / denominator

    flux = np.where(sl >= 0.0, flux_left, hll)
    flux = np.where(sr <= 0.0, flux_right, flux)
    return flux


def emit_hll(b, left, right, gamma, gm1):
    """Kernel-IR definition of :func:`hll_flux` (repro.jit)."""
    flux_left = state.emit_physical_flux(b, left, gm1)
    flux_right = state.emit_physical_flux(b, right, gm1)
    u_left = state.emit_conservative_from_primitive(b, left, gm1)
    u_right = state.emit_conservative_from_primitive(b, right, gm1)
    s_left, s_right = emit_davis(b, left, right, gamma)

    denominator = b.sub(s_right, s_left)
    mask = b.eq(denominator, 0.0)
    denominator = b.select(mask, 1.0, denominator)

    hll = [b.mul(s_right, fl) for fl in flux_left]
    scaled = [b.mul(s_left, fr) for fr in flux_right]
    hll = [b.sub(h, sc) for h, sc in zip(hll, scaled)]
    slsr = b.mul(s_left, s_right)
    du = [b.sub(ur, ul) for ul, ur in zip(u_left, u_right)]
    du = [b.mul(slsr, d) for d in du]
    hll = [b.add(h, d) for h, d in zip(hll, du)]
    hll = [b.div(h, denominator) for h in hll]

    left_mask = b.ge(s_left, 0.0)
    right_mask = b.le(s_right, 0.0)
    out = [b.select(left_mask, fl, h) for fl, h in zip(flux_left, hll)]
    return [b.select(right_mask, fr, f) for fr, f in zip(flux_right, out)]


def emit_davis(b, left, right, gamma):
    """Kernel-IR definition of :func:`wave_speed_estimates`."""
    return emit_signal_speeds(b, left, right, gamma, davis=True)
