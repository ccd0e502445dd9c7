"""Roe's approximate Riemann solver with a Harten entropy fix.

Linearises the Euler equations about the Roe-averaged state and
upwinds each characteristic field:

    F = 0.5 (F(L) + F(R)) - 0.5 sum_k |lambda_k| alpha_k r_k

Wave strengths follow Toro (eqs. 11.68-11.70 in 1-D; the split
three-dimensional form, specialised to 2-D, for the x-sweep).  The
Harten entropy fix fattens the acoustic eigenvalues near sonic points
so expansion shocks cannot form.
"""

from __future__ import annotations

import numpy as np

from repro.euler.constants import GAMMA
from repro.euler import eos, state


def roe_average(left: np.ndarray, right: np.ndarray, gamma: float = GAMMA):
    """Roe-averaged (velocities..., enthalpy, sound speed) of two primitive states."""
    nfields = left.shape[-1]
    sqrt_l = np.sqrt(left[..., 0])
    sqrt_r = np.sqrt(right[..., 0])
    weight = 1.0 / (sqrt_l + sqrt_r)

    velocities = []
    for field in range(1, nfields - 1):
        velocities.append(
            (sqrt_l * left[..., field] + sqrt_r * right[..., field]) * weight
        )
    q2_l = sum(left[..., f] ** 2 for f in range(1, nfields - 1))
    q2_r = sum(right[..., f] ** 2 for f in range(1, nfields - 1))
    h_l = eos.enthalpy(left[..., 0], q2_l, left[..., -1], gamma)
    h_r = eos.enthalpy(right[..., 0], q2_r, right[..., -1], gamma)
    enthalpy = (sqrt_l * h_l + sqrt_r * h_r) * weight
    q2 = sum(v * v for v in velocities)
    sound = np.sqrt(np.maximum((gamma - 1.0) * (enthalpy - 0.5 * q2), 1e-14))
    return velocities, enthalpy, sound


def _entropy_fix(eigenvalue: np.ndarray, sound: np.ndarray) -> np.ndarray:
    """Harten's fix: |lambda| below delta is replaced by a smooth parabola."""
    delta = 0.1 * sound
    magnitude = np.abs(eigenvalue)
    fixed = 0.5 * (eigenvalue * eigenvalue / delta + delta)
    return np.where(magnitude < delta, fixed, magnitude)


def roe_flux(
    left: np.ndarray,
    right: np.ndarray,
    gamma: float = GAMMA,
) -> np.ndarray:
    """Numerical flux from primitive left/right states in sweep layout."""
    nfields = left.shape[-1]
    flux_left = state.physical_flux(left, axis_field=1, gamma=gamma)
    flux_right = state.physical_flux(right, axis_field=1, gamma=gamma)
    u_left = state.conservative_from_primitive(left, gamma)
    u_right = state.conservative_from_primitive(right, gamma)
    du = u_right - u_left
    dissipation = np.zeros_like(du)

    velocities, enthalpy, sound = roe_average(left, right, gamma)
    u_hat = velocities[0]
    q2 = sum(v * v for v in velocities)

    # (eigenvalue, strength, eigenvector, genuinely_nonlinear); the Harten
    # fix applies only to the acoustic (genuinely nonlinear) waves — the
    # contact and shear waves are linearly degenerate and need none
    if nfields == 3:
        alpha2 = (gamma - 1.0) / sound**2 * (
            du[..., 0] * (enthalpy - u_hat * u_hat) + u_hat * du[..., 1] - du[..., 2]
        )
        alpha1 = (du[..., 0] * (u_hat + sound) - du[..., 1] - sound * alpha2) / (2.0 * sound)
        alpha3 = du[..., 0] - (alpha1 + alpha2)

        waves = [
            (u_hat - sound, alpha1, [np.ones_like(u_hat), u_hat - sound, enthalpy - u_hat * sound], True),
            (u_hat, alpha2, [np.ones_like(u_hat), u_hat, 0.5 * q2], False),
            (u_hat + sound, alpha3, [np.ones_like(u_hat), u_hat + sound, enthalpy + u_hat * sound], True),
        ]
    else:
        v_hat = velocities[1]
        alpha_shear = du[..., 2] - v_hat * du[..., 0]
        du4_bar = du[..., 3] - alpha_shear * v_hat
        alpha2 = (gamma - 1.0) / sound**2 * (
            du[..., 0] * (enthalpy - u_hat * u_hat) + u_hat * du[..., 1] - du4_bar
        )
        alpha1 = (du[..., 0] * (u_hat + sound) - du[..., 1] - sound * alpha2) / (2.0 * sound)
        alpha4 = du[..., 0] - (alpha1 + alpha2)

        ones = np.ones_like(u_hat)
        zeros = np.zeros_like(u_hat)
        waves = [
            (u_hat - sound, alpha1, [ones, u_hat - sound, v_hat, enthalpy - u_hat * sound], True),
            (u_hat, alpha2, [ones, u_hat, v_hat, 0.5 * q2], False),
            (u_hat, alpha_shear, [zeros, zeros, ones, v_hat], False),
            (u_hat + sound, alpha4, [ones, u_hat + sound, v_hat, enthalpy + u_hat * sound], True),
        ]

    for eigenvalue, strength, eigenvector, nonlinear in waves:
        magnitude = _entropy_fix(eigenvalue, sound) if nonlinear else np.abs(eigenvalue)
        scale = magnitude * strength
        for field, component in enumerate(eigenvector):
            dissipation[..., field] += scale * component

    return 0.5 * (flux_left + flux_right) - 0.5 * dissipation


# -- kernel-IR definition (repro.jit) -----------------------------------
#
# One IR op per rounded operation of :func:`roe_flux` above, in its
# evaluation order.  ``x ** 2`` is ``x * x`` (NumPy's own fast path);
# the eigenvector entries ``ones``/``zeros`` are the scalars 1.0/0.0 —
# ``x * 1.0`` and ``x * 0.0`` are bitwise the elementwise array products.


def _emit_side_enthalpy(b, prim, gm1):
    """Kernel-IR definition of :func:`eos.enthalpy` of one primitive side."""
    rho = prim[0]
    p = prim[-1]
    q2 = b.mul(prim[1], prim[1])
    if len(prim) == 4:
        scratch = b.mul(prim[2], prim[2])
        q2 = b.add(q2, scratch)
    scratch = b.mul(rho, 0.5)
    scratch = b.mul(scratch, q2)
    out = b.div(p, gm1)
    out = b.add(out, scratch)
    out = b.add(out, p)
    return b.div(out, rho)


def _emit_roe_average(b, left, right, gm1):
    """Kernel-IR definition of :func:`roe_average`; also returns ``q2``,
    the Roe-averaged velocity-squared sum the caller needs again."""
    nfields = len(left)
    sqrt_l = b.sqrt(left[0])
    sqrt_r = b.sqrt(right[0])
    weight = b.add(sqrt_l, sqrt_r)
    weight = b.div(1.0, weight)

    velocities = []
    for field in range(1, nfields - 1):
        v = b.mul(sqrt_l, left[field])
        scratch = b.mul(sqrt_r, right[field])
        v = b.add(v, scratch)
        velocities.append(b.mul(v, weight))

    h_side = _emit_side_enthalpy(b, left, gm1)
    enthalpy = b.mul(sqrt_l, h_side)
    h_side = _emit_side_enthalpy(b, right, gm1)
    h_side = b.mul(sqrt_r, h_side)
    enthalpy = b.add(enthalpy, h_side)
    enthalpy = b.mul(enthalpy, weight)

    q2 = b.mul(velocities[0], velocities[0])
    if len(velocities) == 2:
        scratch = b.mul(velocities[1], velocities[1])
        q2 = b.add(q2, scratch)
    sound = b.mul(q2, 0.5)
    sound = b.sub(enthalpy, sound)
    sound = b.mul(sound, gm1)
    sound = b.maximum(sound, 1e-14)
    sound = b.sqrt(sound)
    return velocities, enthalpy, sound, q2


def _emit_entropy_fix(b, eigenvalue, sound):
    """Kernel-IR definition of :func:`_entropy_fix`."""
    delta = b.mul(sound, 0.1)
    fixed = b.mul(eigenvalue, eigenvalue)
    fixed = b.div(fixed, delta)
    fixed = b.add(fixed, delta)
    fixed = b.mul(fixed, 0.5)
    magnitude = b.abs_(eigenvalue)
    mask = b.lt(magnitude, delta)
    return b.select(mask, fixed, magnitude)


def _emit_add_wave(b, dissipation, magnitude, strength, components):
    """Accumulate one wave, ``dissipation[f] += |lambda| alpha r_f`` —
    scalar eigenvector entries (1.0/0.0) keep their multiply."""
    scale = b.mul(magnitude, strength)
    for field, component in enumerate(components):
        term = b.mul(scale, component)
        dissipation[field] = b.add(dissipation[field], term)


def emit_roe(b, left, right, gamma, gm1):
    """Kernel-IR definition of :func:`roe_flux` (repro.jit)."""
    nfields = len(left)
    flux_left = state.emit_physical_flux(b, left, gm1)
    flux_right = state.emit_physical_flux(b, right, gm1)
    u_left = state.emit_conservative_from_primitive(b, left, gm1)
    u_right = state.emit_conservative_from_primitive(b, right, gm1)
    du = [b.sub(ur, ul) for ul, ur in zip(u_left, u_right)]
    dissipation = [b.const(0.0) for _ in range(nfields)]

    velocities, enthalpy, sound, q2 = _emit_roe_average(b, left, right, gm1)
    u_hat = velocities[0]

    coeff = b.mul(sound, sound)
    coeff = b.div(gm1, coeff)
    um = b.sub(u_hat, sound)
    up = b.add(u_hat, sound)
    t = b.mul(u_hat, sound)
    hm = b.sub(enthalpy, t)
    hp = b.add(enthalpy, t)
    halfq2 = b.mul(q2, 0.5)

    if nfields == 4:
        v_hat = velocities[1]
        t = b.mul(v_hat, du[0])
        alpha_shear = b.sub(du[2], t)
        t = b.mul(alpha_shear, v_hat)
        last_delta = b.sub(du[3], t)
    else:
        last_delta = du[2]

    t = b.mul(u_hat, u_hat)
    t = b.sub(enthalpy, t)
    t = b.mul(du[0], t)
    s = b.mul(u_hat, du[1])
    t = b.add(t, s)
    t = b.sub(t, last_delta)
    alpha2 = b.mul(coeff, t)
    t = b.mul(du[0], up)
    t = b.sub(t, du[1])
    s = b.mul(sound, alpha2)
    t = b.sub(t, s)
    s = b.mul(sound, 2.0)
    alpha1 = b.div(t, s)
    t = b.add(alpha1, alpha2)
    alpha_last = b.sub(du[0], t)

    if nfields == 3:
        magnitude = _emit_entropy_fix(b, um, sound)
        _emit_add_wave(b, dissipation, magnitude, alpha1, [1.0, um, hm])
        magnitude = b.abs_(u_hat)
        _emit_add_wave(b, dissipation, magnitude, alpha2, [1.0, u_hat, halfq2])
        magnitude = _emit_entropy_fix(b, up, sound)
        _emit_add_wave(b, dissipation, magnitude, alpha_last, [1.0, up, hp])
    else:
        magnitude = _emit_entropy_fix(b, um, sound)
        _emit_add_wave(
            b, dissipation, magnitude, alpha1, [1.0, um, v_hat, hm]
        )
        magnitude = b.abs_(u_hat)
        _emit_add_wave(
            b, dissipation, magnitude, alpha2, [1.0, u_hat, v_hat, halfq2]
        )
        magnitude = b.abs_(u_hat)
        _emit_add_wave(
            b, dissipation, magnitude, alpha_shear, [0.0, 0.0, 1.0, v_hat]
        )
        magnitude = _emit_entropy_fix(b, up, sound)
        _emit_add_wave(
            b, dissipation, magnitude, alpha_last, [1.0, up, v_hat, hp]
        )

    out = [b.add(fl, fr) for fl, fr in zip(flux_left, flux_right)]
    out = [b.mul(f, 0.5) for f in out]
    diss = [b.mul(d, 0.5) for d in dissipation]
    return [b.sub(f, d) for f, d in zip(out, diss)]
