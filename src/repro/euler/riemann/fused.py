"""What the solvers' IR definitions share: the signal speeds.

Rusanov needs ``smax = max(|uL| + cL, |uR| + cR)`` and HLL/HLLC need the
Davis estimates ``sL = min(uL - cL, uR - cR)``, ``sR = max(uL + cL,
uR + cR)``; both start from the same two sound speeds.
:func:`emit_signal_speeds` computes ``cL``/``cR`` exactly once and
derives whichever outputs the caller asks for, in the rounded sequence
of the solvers' allocating formulations, so fluxes stay bit-for-bit
identical.  The solvers' ``emit_*`` definitions are never run alone:
the engine runs them folded behind the reconstruction, as the flux
program of its spec (:func:`repro.jit.kernels.build_flux_ir`).
"""

from __future__ import annotations

from repro.euler import eos

__all__ = ["emit_signal_speeds"]


def emit_signal_speeds(b, left, right, gamma, *, davis=False, smax=False):
    """Kernel-IR definition of the signal-speed estimates (repro.jit).

    ``left``/``right`` are lists of primitive field SSA values; returns
    ``(s_left, s_right)``, ``smax_value`` or ``((s_left, s_right),
    smax_value)`` depending on what was requested, from one pair of
    sound speeds.
    """
    if not davis and not smax:
        raise ValueError("emit_signal_speeds needs davis and/or smax")
    c_left = eos.emit_sound_speed(b, left[0], left[-1], gamma)
    c_right = eos.emit_sound_speed(b, right[0], right[-1], gamma)
    davis_out = None
    if davis:
        s_left = b.sub(left[1], c_left)
        scratch = b.sub(right[1], c_right)
        s_left = b.minimum(s_left, scratch)
        s_right = b.add(left[1], c_left)
        scratch = b.add(right[1], c_right)
        s_right = b.maximum(s_right, scratch)
        davis_out = (s_left, s_right)
    smax_out = None
    if smax:
        smax_out = b.abs_(left[1])
        smax_out = b.add(smax_out, c_left)
        scratch = b.abs_(right[1])
        scratch = b.add(scratch, c_right)
        smax_out = b.maximum(smax_out, scratch)
    if davis and smax:
        return davis_out, smax_out
    return davis_out if davis else smax_out
