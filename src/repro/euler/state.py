"""Conversions between conservative and primitive Euler variables.

Layout convention
-----------------
Fields are stored in the **last** axis of a NumPy array so that a state
array broadcasts naturally over any grid shape:

* 1-D: ``U[..., 0:3] = (rho, rho*u, E)``; ``P[..., 0:3] = (rho, u, p)``
* 2-D: ``U[..., 0:4] = (rho, rho*u, rho*v, E)``;
  ``P[..., 0:4] = (rho, u, v, p)``

These match the paper's ``Q`` vector (its Eq. 2) and its primitive
vector ``QP`` (which the Fortran ``GetDT`` indexes as Ux, Uy, Pc, Rc).
The number of fields (3 vs 4) selects the dimensionality; helper
:func:`ndim_of` recovers it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import Neighbourhood, PhysicsError
from repro.euler.constants import FLOOR, GAMMA
from repro.euler import eos

#: At most this many offending cells are listed in a PhysicsError.
MAX_REPORTED_CELLS = 8

#: Half-width of the primitive neighbourhood dumped around a bad cell.
NEIGHBOURHOOD_RADIUS = 2


def ndim_of(state: np.ndarray) -> int:
    """Spatial dimensionality implied by the number of fields (3 -> 1-D, 4 -> 2-D)."""
    nfields = state.shape[-1]
    if nfields == 3:
        return 1
    if nfields == 4:
        return 2
    raise PhysicsError(f"state arrays must have 3 or 4 fields, got {nfields}")


def primitive_from_conservative(u: np.ndarray, gamma: float = GAMMA) -> np.ndarray:
    """Convert conservative ``(rho, rho*u[, rho*v], E)`` to primitive ``(rho, u[, v], p)``."""
    ndim = ndim_of(u)
    rho = u[..., 0]
    p_out = np.empty_like(u)
    p_out[..., 0] = rho
    if ndim == 1:
        vel = u[..., 1] / rho
        kinetic = 0.5 * rho * vel * vel
        p_out[..., 1] = vel
        p_out[..., 2] = eos.pressure(rho, kinetic, u[..., 2], gamma)
    else:
        vx = u[..., 1] / rho
        vy = u[..., 2] / rho
        kinetic = 0.5 * rho * (vx * vx + vy * vy)
        p_out[..., 1] = vx
        p_out[..., 2] = vy
        p_out[..., 3] = eos.pressure(rho, kinetic, u[..., 3], gamma)
    return p_out


def conservative_from_primitive(p: np.ndarray, gamma: float = GAMMA) -> np.ndarray:
    """Convert primitive ``(rho, u[, v], p)`` to conservative ``(rho, rho*u[, rho*v], E)``."""
    ndim = ndim_of(p)
    rho = p[..., 0]
    u_out = np.empty_like(p)
    u_out[..., 0] = rho
    if ndim == 1:
        vel = p[..., 1]
        u_out[..., 1] = rho * vel
        u_out[..., 2] = eos.total_energy(rho, vel * vel, p[..., 2], gamma)
    else:
        vx = p[..., 1]
        vy = p[..., 2]
        u_out[..., 1] = rho * vx
        u_out[..., 2] = rho * vy
        u_out[..., 3] = eos.total_energy(rho, vx * vx + vy * vy, p[..., 3], gamma)
    return u_out


def physical_flux(
    p: np.ndarray, axis_field: int = 1, gamma: float = GAMMA
) -> np.ndarray:
    """Physical flux of the Euler equations through faces normal to one axis.

    ``axis_field`` selects the normal velocity field in the primitive
    array: 1 for the x-flux ``F``, 2 for the y-flux ``G`` (2-D only),
    matching the paper's Eq. 2.
    """
    ndim = ndim_of(p)
    rho = p[..., 0]
    pressure = p[..., -1]
    flux = np.empty_like(p)
    if ndim == 1:
        vel = p[..., 1]
        energy = eos.total_energy(rho, vel * vel, pressure, gamma)
        flux[..., 0] = rho * vel
        flux[..., 1] = rho * vel * vel + pressure
        flux[..., 2] = vel * (energy + pressure)
        return flux
    if axis_field not in (1, 2):
        raise PhysicsError(f"axis_field must be 1 (x) or 2 (y), got {axis_field}")
    vx = p[..., 1]
    vy = p[..., 2]
    vn = p[..., axis_field]
    energy = eos.total_energy(rho, vx * vx + vy * vy, pressure, gamma)
    flux[..., 0] = rho * vn
    flux[..., 1] = rho * vn * vx
    flux[..., 2] = rho * vn * vy
    flux[..., axis_field] += pressure
    flux[..., 3] = vn * (energy + pressure)
    return flux


# -- kernel-IR definitions (repro.jit) ----------------------------------
#
# One IR op per rounded operation of the functions above, in their
# evaluation order; the NumPy programs and the compiled kernels are both
# derived from these.  Each takes/returns lists of SSA field
# values (length 3 in 1-D, 4 in 2-D); ``gm1`` is the prebuilt
# ``gamma - 1.0``.


def emit_primitive_from_conservative(b, u, gm1):
    """IR definition of :func:`primitive_from_conservative`; the kinetic
    energy associates left to right, ``((0.5 * rho) * vel) * vel``."""
    rho = u[0]
    if len(u) == 3:
        vel = b.div(u[1], rho)
        kinetic = b.mul(rho, 0.5)
        kinetic = b.mul(kinetic, vel)
        kinetic = b.mul(kinetic, vel)
        p = eos.emit_pressure(b, kinetic, u[2], gm1)
        return [rho, vel, p]
    vx = b.div(u[1], rho)
    vy = b.div(u[2], rho)
    v2 = b.mul(vx, vx)
    kinetic = b.mul(vy, vy)
    v2 = b.add(v2, kinetic)
    kinetic = b.mul(rho, 0.5)
    kinetic = b.mul(kinetic, v2)
    p = eos.emit_pressure(b, kinetic, u[3], gm1)
    return [rho, vx, vy, p]


def emit_conservative_from_primitive(b, p, gm1):
    """IR definition of :func:`conservative_from_primitive`."""
    rho = p[0]
    if len(p) == 3:
        momentum = b.mul(rho, p[1])
        v2 = b.mul(p[1], p[1])
        energy = eos.emit_total_energy(b, rho, v2, p[2], gm1)
        return [rho, momentum, energy]
    mx = b.mul(rho, p[1])
    my = b.mul(rho, p[2])
    v2 = b.mul(p[1], p[1])
    scratch = b.mul(p[2], p[2])
    v2 = b.add(v2, scratch)
    energy = eos.emit_total_energy(b, rho, v2, p[3], gm1)
    return [rho, mx, my, energy]


def emit_physical_flux(b, p, gm1):
    """IR definition of :func:`physical_flux` with ``axis_field=1`` — the
    sweeps always orient the state so field 1 is the normal velocity;
    ``rho*vn*v`` associates left to right, so ``f0`` feeds ``f1``/``f2``."""
    rho = p[0]
    pressure_value = p[-1]
    if len(p) == 3:
        vel = p[1]
        v2 = b.mul(vel, vel)
        energy = eos.emit_total_energy(b, rho, v2, pressure_value, gm1)
        f0 = b.mul(rho, vel)
        f1 = b.mul(f0, vel)
        f1 = b.add(f1, pressure_value)
        scratch = b.add(energy, pressure_value)
        f2 = b.mul(vel, scratch)
        return [f0, f1, f2]
    vx = p[1]
    vy = p[2]
    v2 = b.mul(vx, vx)
    scratch = b.mul(vy, vy)
    v2 = b.add(v2, scratch)
    energy = eos.emit_total_energy(b, rho, v2, pressure_value, gm1)
    f0 = b.mul(rho, vx)
    f1 = b.mul(f0, vx)
    f2 = b.mul(f0, vy)
    f1 = b.add(f1, pressure_value)
    scratch = b.add(energy, pressure_value)
    f3 = b.mul(vx, scratch)
    return [f0, f1, f2, f3]


def bad_cells(cell_mask: np.ndarray, limit: int = MAX_REPORTED_CELLS):
    """First ``limit`` grid indices where a per-cell boolean mask is set."""
    return [tuple(int(v) for v in row) for row in np.argwhere(cell_mask)[:limit]]


def neighbourhood_of(
    p: np.ndarray, cell, radius: int = NEIGHBOURHOOD_RADIUS
) -> Neighbourhood:
    """A copied primitive window of half-width ``radius`` around ``cell``."""
    slices = tuple(
        slice(max(0, int(c) - radius), min(extent, int(c) + radius + 1))
        for c, extent in zip(cell, p.shape[:-1])
    )
    return Neighbourhood(
        origin=tuple(s.start for s in slices), values=p[slices].copy()
    )


def _raise_unphysical(p: np.ndarray, where: str, what: str, cell_mask, value) -> None:
    """Failure path of :func:`validate_state` — attach location forensics.

    Only runs when the state is already known bad, so the argwhere /
    window copies cost nothing on the hot path.
    """
    cells = bad_cells(cell_mask)
    neighbourhood = neighbourhood_of(p, cells[0]) if cells else None
    at = f" at cell {cells[0]}" if cells else ""
    raise PhysicsError(
        f"{where}: {what} ({value}{at},"
        f" {int(np.count_nonzero(cell_mask))} cells affected)",
        context=where,
        cells=cells,
        neighbourhood=neighbourhood,
        details={"what": what},
    )


def validate_state(p: np.ndarray, where: str = "state", work=None) -> None:
    """Raise :class:`PhysicsError` if a primitive state is unphysical.

    The raised error names the offending cell indices and carries a
    copied neighbourhood of the primitive values around the first bad
    cell (see :mod:`repro.obs.forensics`).
    """
    rho = p[..., 0]
    pressure = p[..., -1]
    if work is None:
        if not np.all(np.isfinite(p)):
            _raise_unphysical(
                p, where, "non-finite values detected",
                ~np.all(np.isfinite(p), axis=-1), "NaN/Inf",
            )
        if np.any(rho < FLOOR):
            _raise_unphysical(
                p, where, "non-positive density", rho < FLOOR,
                f"min {rho.min():.3e}",
            )
        if np.any(pressure < FLOOR):
            _raise_unphysical(
                p, where, "non-positive pressure", pressure < FLOOR,
                f"min {pressure.min():.3e}",
            )
        return
    finite = work.array("validate.finite", p.shape, np.bool_)
    np.isfinite(p, out=finite)
    if not np.all(finite):
        _raise_unphysical(
            p, where, "non-finite values detected",
            ~np.all(finite, axis=-1), "NaN/Inf",
        )
    cell_mask = work.array("validate.cell", p.shape[:-1], np.bool_)
    np.less(rho, FLOOR, out=cell_mask)
    if np.any(cell_mask):
        _raise_unphysical(
            p, where, "non-positive density", cell_mask, f"min {rho.min():.3e}"
        )
    np.less(pressure, FLOOR, out=cell_mask)
    if np.any(cell_mask):
        _raise_unphysical(
            p, where, "non-positive pressure", cell_mask,
            f"min {pressure.min():.3e}",
        )


def validate_members(p: np.ndarray, where: str = "state", work=None) -> None:
    """Validate a batched ``(B, ...)`` stack of primitive states.

    The fast path is one full-stack :func:`validate_state` (every check
    is elementwise, so stacking members changes nothing).  On failure
    the member that owns the first offending cell is re-validated alone,
    so the raised :class:`PhysicsError` carries *member-local* cell
    indices and neighbourhood plus ``batch_index`` — exactly what a
    standalone run of that member would have raised, with its position
    in the stack attached.
    """
    try:
        validate_state(p, where, work=work)
    except PhysicsError as error:
        if not error.cells:  # pragma: no cover - validators always name cells
            raise
        index = int(error.cells[0][0])
        try:
            validate_state(p[index], where)
        except PhysicsError as member_error:
            member_error.batch_index = index
            raise member_error from None
        # The stacked check tripped but the member alone passes — cannot
        # happen for these elementwise validators; re-raise the original.
        error.batch_index = index  # pragma: no cover - defensive
        raise  # pragma: no cover - defensive


def swap_velocity_axes(p: np.ndarray) -> np.ndarray:
    """Return a copy of a 2-D state array with u and v exchanged.

    Used by the dimension-sweep machinery so every 1-D kernel can treat
    field 1 as the normal velocity.
    """
    if ndim_of(p) != 2:
        raise PhysicsError("swap_velocity_axes needs a 4-field (2-D) state")
    out = p.copy()
    out[..., 1] = p[..., 2]
    out[..., 2] = p[..., 1]
    return out


def total_mass(u: np.ndarray) -> float:
    """Total mass in the domain (sum of cell densities; used by conservation tests)."""
    return float(np.sum(u[..., 0]))


def total_energy_sum(u: np.ndarray) -> float:
    """Total energy in the domain (conservation diagnostics)."""
    return float(np.sum(u[..., -1]))


def total_momentum(u: np.ndarray) -> np.ndarray:
    """Total momentum vector (length 1 in 1-D, 2 in 2-D)."""
    ndim = ndim_of(u)
    if ndim == 1:
        return np.array([np.sum(u[..., 1])])
    return np.array([np.sum(u[..., 1]), np.sum(u[..., 2])])
