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
from repro.jit.numpy_eval import field_views, numpy_program


def eigenvalues_into(
    primitive: np.ndarray, spacing: Sequence[float], gamma: float = GAMMA, work=None
) -> np.ndarray:
    """Per-cell sum of directional signal speeds over cell sizes (the
    GetDT integrand), written into workspace scratch: the NumPy program
    of :func:`emit_eigenvalue_sum`.

    Every operation is elementwise per cell, so calling this on a strip
    of rows produces bit-for-bit the values a full-grid pass would — the
    engine's fused, cache-blocked ``compute_dt`` relies on that.
    """
    ndim = state.ndim_of(primitive)
    if len(spacing) != ndim:
        raise ConfigurationError(
            f"{ndim}-D state needs {ndim} spacings, got {len(spacing)}"
        )
    ev = work.cell_like("dt.ev", primitive)
    with np.errstate(invalid="ignore", divide="ignore"):
        numpy_program("eigenvalues", ndim).run(
            field_views(primitive) + [gamma, *spacing], [ev], work
        )
    return ev


def emit_eigenvalue_sum(b, prim, gamma, spacings):
    """IR definition of the GetDT integrand ``sum_axis (|u_axis| + c) /
    d_axis`` over primitive field values — shared by the in-place NumPy
    program and the compiled dt kernel."""
    sound = eos.emit_sound_speed(b, prim[0], prim[-1], gamma)
    ev = b.const(0.0)
    for axis, spacing in enumerate(spacings):
        scratch = b.abs_(prim[1 + axis])
        scratch = b.add(scratch, sound)
        scratch = b.div(scratch, spacing)
        ev = b.add(ev, scratch)
    return ev


def max_eigenvalue(
    primitive: np.ndarray, spacing: Sequence[float], gamma: float = GAMMA, work=None
) -> float:
    """Largest cell-wise sum of directional signal speeds over cell sizes."""
    if work is None:
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
    else:
        ev = eigenvalues_into(primitive, spacing, gamma, work=work)
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


def member_max_eigenvalues(
    primitive: np.ndarray,
    spacing: Sequence[float],
    gamma: float = GAMMA,
    out: np.ndarray = None,
    work=None,
) -> np.ndarray:
    """Per-member GetDT maxima over a batched ``(B, ...)`` primitive stack.

    One eigenvalue pass over the whole stack, reduced per member: entry
    ``b`` is exactly ``max_eigenvalue(primitive[b], ...)`` — ``max`` is
    exact and order-independent, so each member's value is bit-for-bit
    its standalone one.  Non-finite entries are *returned*, not raised;
    the caller owns member attribution (see ``StepEngine.compute_dt``).
    """
    members = primitive.shape[0]
    ev = eigenvalues_into(primitive, spacing, gamma, work=work)
    if out is None:
        out = np.empty(members)
    np.max(ev.reshape(members, -1), axis=1, out=out)
    return out


def get_dt(
    primitive: np.ndarray,
    spacing: Sequence[float],
    cfl: float = DEFAULT_CFL,
    gamma: float = GAMMA,
    work=None,
) -> float:
    """CFL time step ``DT = CFL / EVmax`` exactly as in the paper's GetDT."""
    if cfl <= 0.0:
        raise ConfigurationError(f"CFL number must be positive, got {cfl}")
    return cfl / max_eigenvalue(primitive, spacing, gamma, work=work)
