"""Reconstruction in local characteristic variables.

The paper (Section 3): "The reconstruction is applied to the so-called
(local) characteristic variables rather than to the primitive variables
rho, u, v and p or the conservative variables Q."

For every face we build the left/right eigenvector matrices of the Roe-
averaged flux Jacobian, project the whole stencil of *conservative*
values into characteristic space, run any stencil-form scheme there,
and project the reconstructed states back.  Cells where the projected
state comes back unphysical (possible at very strong gradients) fall
back to the 1st-order value, which is always physical.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.euler.constants import FLOOR, GAMMA
from repro.euler import state
from repro.euler.reconstruction.base import StencilScheme, stencil_views
from repro.euler.riemann.roe import _emit_roe_average, roe_average


def eigen_matrices(
    prim_left: np.ndarray, prim_right: np.ndarray, gamma: float = GAMMA
) -> Tuple[np.ndarray, np.ndarray]:
    """Left/right eigenvector matrices of the Roe-averaged Jacobian at faces.

    Returns ``(L, R)`` with shape ``(..., nv, nv)`` such that
    ``L @ R == I`` and ``R`` has the right eigenvectors as columns,
    ordered (u-c, u, [shear,] u+c).  Sweep layout: field 1 is the
    normal velocity.
    """
    nfields = prim_left.shape[-1]
    velocities, enthalpy, sound = roe_average(prim_left, prim_right, gamma)
    u = velocities[0]
    q2 = sum(v * v for v in velocities)
    b2 = (gamma - 1.0) / (sound * sound)
    b1 = 0.5 * b2 * q2
    ones = np.ones_like(u)
    zeros = np.zeros_like(u)

    if nfields == 3:
        right_rows = [
            [ones, ones, ones],
            [u - sound, u, u + sound],
            [enthalpy - u * sound, 0.5 * q2, enthalpy + u * sound],
        ]
        left_rows = [
            [0.5 * (b1 + u / sound), 0.5 * (-b2 * u - 1.0 / sound), 0.5 * b2 * ones],
            [1.0 - b1, b2 * u, -b2 * ones],
            [0.5 * (b1 - u / sound), 0.5 * (-b2 * u + 1.0 / sound), 0.5 * b2 * ones],
        ]
    else:
        v = velocities[1]
        right_rows = [
            [ones, ones, zeros, ones],
            [u - sound, u, zeros, u + sound],
            [v, v, ones, v],
            [enthalpy - u * sound, 0.5 * q2, v, enthalpy + u * sound],
        ]
        left_rows = [
            [
                0.5 * (b1 + u / sound),
                0.5 * (-b2 * u - 1.0 / sound),
                0.5 * (-b2 * v),
                0.5 * b2 * ones,
            ],
            [1.0 - b1, b2 * u, b2 * v, -b2 * ones],
            [-v, zeros, ones, zeros],
            [
                0.5 * (b1 - u / sound),
                0.5 * (-b2 * u + 1.0 / sound),
                0.5 * (-b2 * v),
                0.5 * b2 * ones,
            ],
        ]

    right = np.stack([np.stack(row, axis=-1) for row in right_rows], axis=-2)
    left = np.stack([np.stack(row, axis=-1) for row in left_rows], axis=-2)
    return left, right


def _project(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Apply a per-face matrix to a per-face field vector.

    The row sum is stated, not left to the library: products 0 and 2,
    then 1 (and 3), then the two halves — ``(p0 + p2) + (p1 + p3)``, or
    ``(p0 + p2) + p1`` for three fields.  That is the order
    ``np.einsum("...ij,...j->...i")`` happened to use on the NumPy build
    this was written against (two SIMD lanes); :func:`_emit_matvec` is
    the same order in IR, so every backend sums alike on any build.
    """
    products = matrix * vector[..., None, :]
    total = products[..., 0] + products[..., 2]
    if vector.shape[-1] == 3:
        return total + products[..., 1]
    return total + (products[..., 1] + products[..., 3])


def reconstruct_characteristic(
    scheme: StencilScheme, padded_primitive: np.ndarray, gamma: float = GAMMA
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a stencil scheme on local characteristic variables.

    ``padded_primitive`` holds N + 2*ghost_cells cells along axis 0 in
    primitive sweep layout; the result is primitive left/right states
    at the N + 1 interior faces.
    """
    ghost_cells = scheme.ghost_cells
    views = stencil_views(padded_primitive, ghost_cells)
    adjacent_left = views[ghost_cells - 1]
    adjacent_right = views[ghost_cells]

    if ghost_cells == 1:
        # Piecewise-constant is basis-independent; skip the projection.
        return scheme(views)

    left_matrix, right_matrix = eigen_matrices(adjacent_left, adjacent_right, gamma)
    conservative = [state.conservative_from_primitive(v, gamma) for v in views]
    characteristic = [_project(left_matrix, u) for u in conservative]

    char_left, char_right = scheme(characteristic)
    cons_left = _project(right_matrix, char_left)
    cons_right = _project(right_matrix, char_right)
    prim_left = state.primitive_from_conservative(cons_left, gamma)
    prim_right = state.primitive_from_conservative(cons_right, gamma)

    prim_left = _fallback_unphysical(prim_left, adjacent_left)
    prim_right = _fallback_unphysical(prim_right, adjacent_right)
    return prim_left, prim_right


def _fallback_unphysical(reconstructed: np.ndarray, first_order: np.ndarray) -> np.ndarray:
    """Replace faces whose high-order state is unphysical with the cell average."""
    bad = (
        (reconstructed[..., 0] <= FLOOR)
        | (reconstructed[..., -1] <= FLOOR)
        | ~np.all(np.isfinite(reconstructed), axis=-1)
    )
    if not np.any(bad):
        return reconstructed
    return np.where(bad[..., None], first_order, reconstructed)


# -- kernel-IR definitions (repro.jit) ----------------------------------
#
# One IR op per rounded operation of the functions above.  A matrix is a
# list of rows of SSA values; the eigenvector entries ``ones``/``zeros``
# are the scalars 1.0/0.0 and keep their multiply in the mat-vec —
# ``0.0 * inf`` must stay NaN, as in the array product.

#: Largest finite double: ``abs(x) <= DBL_MAX`` is ``np.isfinite(x)``.
_DBL_MAX = float(np.finfo(np.float64).max)


def _emit_left_eigenvectors(b, velocities, sound, q2, gm1):
    """The rows of ``L`` (:func:`eigen_matrices`' ``left_rows``)."""
    u = velocities[0]
    b2 = b.mul(sound, sound)
    b2 = b.div(gm1, b2)
    half_b2 = b.mul(b2, 0.5)
    b1 = b.mul(half_b2, q2)
    neg_b2 = b.neg(b2)
    u_over_c = b.div(u, sound)
    neg_b2_u = b.mul(neg_b2, u)
    inverse_c = b.div(1.0, sound)
    last = b.mul(half_b2, 1.0)

    minus = [b.mul(b.add(b1, u_over_c), 0.5), b.mul(b.sub(neg_b2_u, inverse_c), 0.5)]
    entropy = [b.sub(1.0, b1), b.mul(b2, u)]
    plus = [b.mul(b.sub(b1, u_over_c), 0.5), b.mul(b.add(neg_b2_u, inverse_c), 0.5)]
    if len(velocities) == 2:
        v = velocities[1]
        neg_b2_v = b.mul(neg_b2, v)
        minus.append(b.mul(neg_b2_v, 0.5))
        entropy.append(b.mul(b2, v))
        plus.append(b.mul(neg_b2_v, 0.5))
    minus.append(last)
    entropy.append(b.mul(neg_b2, 1.0))
    plus.append(last)
    if len(velocities) == 1:
        return [minus, entropy, plus]
    return [minus, entropy, [b.neg(v), 0.0, 1.0, 0.0], plus]


def _emit_right_eigenvectors(b, velocities, enthalpy, sound, q2):
    """The rows of ``R`` (:func:`eigen_matrices`' ``right_rows``)."""
    u = velocities[0]
    u_c = b.mul(u, sound)
    half_q2 = b.mul(q2, 0.5)
    normal = [b.sub(u, sound), u, b.add(u, sound)]
    energy = [b.sub(enthalpy, u_c), half_q2, b.add(enthalpy, u_c)]
    if len(velocities) == 1:
        return [[1.0, 1.0, 1.0], normal, energy]
    v = velocities[1]
    return [
        [1.0, 1.0, 0.0, 1.0],
        normal[:2] + [0.0] + normal[2:],
        [v, v, 1.0, v],
        energy[:2] + [v] + energy[2:],
    ]


def emit_eigen_matrices(b, left, right, gm1, sides="LR"):
    """Kernel-IR definition of :func:`eigen_matrices`: the matrices named
    in ``sides`` (``L``, ``R``), each a list of rows, off one Roe average."""
    velocities, enthalpy, sound, q2 = _emit_roe_average(b, left, right, gm1)
    return tuple(
        _emit_left_eigenvectors(b, velocities, sound, q2, gm1)
        if side == "L"
        else _emit_right_eigenvectors(b, velocities, enthalpy, sound, q2)
        for side in sides
    )


def _emit_matvec(b, rows, vector):
    """Kernel-IR definition of :func:`_project`, in its stated order."""
    result = []
    for row in rows:
        products = [b.mul(entry, value) for entry, value in zip(row, vector)]
        total = b.add(products[0], products[2])
        if len(products) == 3:
            result.append(b.add(total, products[1]))
        else:
            result.append(b.add(total, b.add(products[1], products[3])))
    return result


def emit_project_stencil(b, left_matrix, cells, gm1):
    """Every stencil cell's characteristic variables: ``L @ U(cell)``."""
    return [
        _emit_matvec(b, left_matrix, state.emit_conservative_from_primitive(b, cell, gm1))
        for cell in cells
    ]


def _emit_fallback_unphysical(b, reconstructed, first_order):
    """Kernel-IR definition of :func:`_fallback_unphysical`: the face keeps
    the reconstructed state only where it is physical and finite."""
    good = b.and_(b.gt(reconstructed[0], FLOOR), b.gt(reconstructed[-1], FLOOR))
    for value in reconstructed:
        good = b.and_(good, b.le(b.abs_(value), _DBL_MAX))
    return [b.select(good, high, low) for high, low in zip(reconstructed, first_order)]


def emit_unproject_faces(b, right_matrix, char_left, char_right, adjacent, gm1):
    """Primitive face states from reconstructed characteristic ones:
    ``R @ w``, the conversion, and the first-order fallback per side
    (``adjacent`` is the face's (left, right) cell pair)."""
    return tuple(
        _emit_fallback_unphysical(
            b,
            state.emit_primitive_from_conservative(
                b, _emit_matvec(b, right_matrix, characteristic), gm1
            ),
            first_order,
        )
        for characteristic, first_order in zip((char_left, char_right), adjacent)
    )


def emit_reconstruct_characteristic(b, scheme_emit, cells, gm1):
    """Kernel-IR definition of :func:`reconstruct_characteristic` for one
    face: ``cells`` are its ``2 * ghost_cells`` primitive stencil cells
    (wide stencils only — a one-cell stencil skips the projection)."""
    ghost_cells = len(cells) // 2
    adjacent = cells[ghost_cells - 1], cells[ghost_cells]
    left_matrix, right_matrix = emit_eigen_matrices(b, *adjacent, gm1)
    characteristic = emit_project_stencil(b, left_matrix, cells, gm1)
    sides = [
        scheme_emit(b, [cell[field] for cell in characteristic])
        for field in range(len(cells[0]))
    ]
    char_left, char_right = zip(*sides)
    return emit_unproject_faces(b, right_matrix, char_left, char_right, adjacent, gm1)
