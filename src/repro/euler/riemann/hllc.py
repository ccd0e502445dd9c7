"""HLLC approximate Riemann solver (HLL with contact restoration).

Follows Toro ch. 10: the contact-wave speed ``s*`` is recovered from
the HLL momentum balance, and star states are built on each side.  The
contact and shear waves the plain HLL solver smears are resolved
exactly, which matters for the paper's 2-D problem whose late-time
structure is dominated by contact surfaces ("mushroom-like" curl-ups).
"""

from __future__ import annotations

import numpy as np

from repro.euler.constants import GAMMA
from repro.euler import state
from repro.euler.riemann.hll import emit_davis, wave_speed_estimates


def _star_state(prim, u_cons, s_wave, s_star, gamma):
    """Conservative star-region state on one side (Toro eq. 10.39)."""
    rho = prim[..., 0]
    vn = prim[..., 1]
    p = prim[..., -1]
    nfields = prim.shape[-1]

    relative = s_wave - vn
    gap = s_wave - s_star
    factor = rho * relative / np.where(gap == 0.0, 1.0, gap)
    star = np.empty_like(u_cons)
    star[..., 0] = factor
    star[..., 1] = factor * s_star
    if nfields == 4:
        star[..., 2] = factor * prim[..., 2]
    energy = u_cons[..., -1]
    star[..., -1] = factor * (
        energy / rho
        + (s_star - vn) * (s_star + p / (rho * np.where(relative == 0.0, 1.0, relative)))
    )
    return star


def hllc_flux(
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

    rho_l, vn_l, p_l = left[..., 0], left[..., 1], left[..., -1]
    rho_r, vn_r, p_r = right[..., 0], right[..., 1], right[..., -1]

    rel_l = s_left - vn_l
    rel_r = s_right - vn_r
    numerator = p_r - p_l + rho_l * vn_l * rel_l - rho_r * vn_r * rel_r
    denominator = rho_l * rel_l - rho_r * rel_r
    s_star = numerator / np.where(denominator == 0.0, 1.0, denominator)

    star_left = _star_state(left, u_left, s_left, s_star, gamma)
    star_right = _star_state(right, u_right, s_right, s_star, gamma)

    flux_star_left = flux_left + s_left[..., None] * (star_left - u_left)
    flux_star_right = flux_right + s_right[..., None] * (star_right - u_right)

    sl = s_left[..., None]
    sr = s_right[..., None]
    ss = s_star[..., None]
    flux = np.where(ss >= 0.0, flux_star_left, flux_star_right)
    flux = np.where(sl >= 0.0, flux_left, flux)
    flux = np.where(sr <= 0.0, flux_right, flux)
    return flux


def _emit_star_state(b, prim, u_cons, s_wave, s_star):
    """Kernel-IR definition of :func:`_star_state` (repro.jit)."""
    rho = prim[0]
    vn = prim[1]
    p = prim[-1]
    relative = b.sub(s_wave, vn)
    factor = b.mul(rho, relative)
    scratch = b.sub(s_wave, s_star)
    mask = b.eq(scratch, 0.0)
    scratch = b.select(mask, 1.0, scratch)
    factor = b.div(factor, scratch)
    star = [factor, b.mul(factor, s_star)]
    if len(prim) == 4:
        star.append(b.mul(factor, prim[2]))
    term = b.div(u_cons[-1], rho)
    mask = b.eq(relative, 0.0)
    fixed = b.select(mask, 1.0, relative)
    fixed = b.mul(rho, fixed)
    fixed = b.div(p, fixed)
    fixed = b.add(s_star, fixed)
    scratch = b.sub(s_star, vn)
    fixed = b.mul(scratch, fixed)
    term = b.add(term, fixed)
    star.append(b.mul(factor, term))
    return star


def emit_hllc(b, left, right, gamma, gm1):
    """Kernel-IR definition of :func:`hllc_flux` (repro.jit)."""
    flux_left = state.emit_physical_flux(b, left, gm1)
    flux_right = state.emit_physical_flux(b, right, gm1)
    u_left = state.emit_conservative_from_primitive(b, left, gm1)
    u_right = state.emit_conservative_from_primitive(b, right, gm1)
    s_left, s_right = emit_davis(b, left, right, gamma)

    rho_l, vn_l, p_l = left[0], left[1], left[-1]
    rho_r, vn_r, p_r = right[0], right[1], right[-1]

    rel_l = b.sub(s_left, vn_l)
    rel_r = b.sub(s_right, vn_r)
    numerator = b.sub(p_r, p_l)
    scratch = b.mul(rho_l, vn_l)
    scratch = b.mul(scratch, rel_l)
    numerator = b.add(numerator, scratch)
    scratch = b.mul(rho_r, vn_r)
    scratch = b.mul(scratch, rel_r)
    numerator = b.sub(numerator, scratch)
    rel_l = b.mul(rho_l, rel_l)
    rel_r = b.mul(rho_r, rel_r)
    denominator = b.sub(rel_l, rel_r)
    mask = b.eq(denominator, 0.0)
    denominator = b.select(mask, 1.0, denominator)
    s_star = b.div(numerator, denominator)

    star_left = _emit_star_state(b, left, u_left, s_left, s_star)
    star_right = _emit_star_state(b, right, u_right, s_right, s_star)

    flux_star_left = []
    for flux, star, u_side in zip(flux_left, star_left, u_left):
        d = b.sub(star, u_side)
        d = b.mul(s_left, d)
        flux_star_left.append(b.add(flux, d))
    flux_star_right = []
    for flux, star, u_side in zip(flux_right, star_right, u_right):
        d = b.sub(star, u_side)
        d = b.mul(s_right, d)
        flux_star_right.append(b.add(flux, d))

    star_mask = b.ge(s_star, 0.0)
    left_mask = b.ge(s_left, 0.0)
    right_mask = b.le(s_right, 0.0)
    out = [
        b.select(star_mask, fsl, fsr)
        for fsl, fsr in zip(flux_star_left, flux_star_right)
    ]
    out = [b.select(left_mask, fl, f) for fl, f in zip(flux_left, out)]
    return [b.select(right_mask, fr, f) for fr, f in zip(flux_right, out)]
