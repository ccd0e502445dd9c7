"""CFL-limited time-step selection (the paper's ``GetDT``).

The Fortran routine reproduced verbatim in the paper's Section 4.2
computes, over every cell,

    EV = (|Ux| + C)/Dx + (|Uy| + C)/Dy,   DT = CFL / max(EV)

and the SaC version is the rank-generic one-liner ``getDt``.  This
module is the NumPy equivalent, dimension-generic in the same spirit:
the same function body serves 1-D and 2-D states.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, PhysicsError
from repro.euler.constants import DEFAULT_CFL, GAMMA
from repro.euler import eos, state


def emit_eigenvalue_sum(b, prim, gamma, spacings):
    """IR definition of the GetDT integrand ``sum_axis (|u_axis| + c) /
    d_axis`` over primitive field values — the tail of the fused dt
    program (:func:`repro.jit.kernels.build_dt_ir`), whichever executor
    runs it.  Every operation is elementwise per cell, so a strip of
    members produces bit-for-bit the values a full-stack pass would."""
    sound = eos.emit_sound_speed(b, prim[0], prim[-1], gamma)
    ev = b.const(0.0)
    for axis, spacing in enumerate(spacings):
        scratch = b.abs_(prim[1 + axis])
        scratch = b.add(scratch, sound)
        scratch = b.div(scratch, spacing)
        ev = b.add(ev, scratch)
    return ev


def max_eigenvalue(
    primitive: np.ndarray, spacing: Sequence[float], gamma: float = GAMMA
) -> float:
    """Largest cell-wise sum of directional signal speeds over cell sizes."""
    ndim = state.ndim_of(primitive)
    if len(spacing) != ndim:
        raise ConfigurationError(
            f"{ndim}-D state needs {ndim} spacings, got {len(spacing)}"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        sound = eos.sound_speed(primitive[..., 0], primitive[..., -1], gamma)
        ev = np.zeros_like(sound)
        for axis in range(ndim):
            ev += (np.abs(primitive[..., 1 + axis]) + sound) / spacing[axis]
    largest = float(ev.max())
    if not np.isfinite(largest):
        # A NaN sound speed (negative pressure under the sqrt) or an
        # infinite velocity would silently propagate into dt; name the
        # cells instead of letting the run loop report a bare bad dt.
        cells = state.bad_cells(~np.isfinite(ev))
        raise PhysicsError(
            f"GetDT: non-finite signal speed"
            f"{f' at cell {cells[0]}' if cells else ''}"
            f" ({int(np.count_nonzero(~np.isfinite(ev)))} cells affected)",
            context="GetDT",
            cells=cells,
            details={"max_eigenvalue": largest},
        )
    return largest


def get_dt(
    primitive: np.ndarray,
    spacing: Sequence[float],
    cfl: float = DEFAULT_CFL,
    gamma: float = GAMMA,
) -> float:
    """CFL time step ``DT = CFL / EVmax`` exactly as in the paper's GetDT."""
    if cfl <= 0.0:
        raise ConfigurationError(f"CFL number must be positive, got {cfl}")
    return cfl / max_eigenvalue(primitive, spacing, gamma)
