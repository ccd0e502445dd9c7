"""The four reconstruction schemes of the paper's Fortran code.

* ``pc``    — 1st-order piecewise-constant (used in the paper's Fig. 4
  benchmark together with RK3)
* ``tvd2``  — 2nd-order MUSCL with a selectable slope limiter
* ``tvd3``  — 3rd-order limited kappa = 1/3 scheme
* ``weno3`` — 3rd-order weighted essentially non-oscillatory scheme
  (used for the paper's flow pictures; assigns zero weight to stencils
  crossing a discontinuity)

All schemes are in stencil form (see ``reconstruction.base``) and are
returned by :func:`get_scheme` as callables carrying a ``ghost_cells``
attribute.  These allocating functions are the references; what the
engine runs is each scheme's ``emit_*`` definition below — the same
rounded operations in the same order, folded into the flux program of
the engine's spec (:func:`repro.jit.kernels.build_flux_ir`) and held to
the reference at 0.0 by ``tests/euler/test_kernel_single_source.py``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.euler.reconstruction import limiters as _limiters

#: Small number keeping WENO weights finite on perfectly flat data.
WENO_EPSILON = 1e-6


def piecewise_constant(cells: Sequence[np.ndarray]):
    """First-order reconstruction: the face states are the cell averages."""
    return cells[0].copy(), cells[1].copy()


piecewise_constant.ghost_cells = 1


def _muscl_states(cells, limiter):
    """Shared MUSCL logic: limited slopes in the two cells adjacent to the face."""
    ng = len(cells) // 2
    left_cell = cells[ng - 1]
    right_cell = cells[ng]
    slope_left = limiter(left_cell - cells[ng - 2], right_cell - left_cell)
    slope_right = limiter(right_cell - left_cell, cells[ng + 1] - right_cell)
    return left_cell + 0.5 * slope_left, right_cell - 0.5 * slope_right


def make_tvd2(limiter_name: str = "minmod"):
    """Build a 2nd-order MUSCL scheme with the named slope limiter."""
    limiter = _limiters.get_limiter(limiter_name)

    def tvd2(cells: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        return _muscl_states(cells, limiter)

    tvd2.ghost_cells = 2
    tvd2.__name__ = f"tvd2_{limiter_name}"
    return tvd2


#: TVD-3 coefficients (kappa-scheme with kappa = 1/3, compression b = 4).
_TVD3_KAPPA = 1.0 / 3.0
_TVD3_B = (3.0 - _TVD3_KAPPA) / (1.0 - _TVD3_KAPPA)


def tvd3(cells: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """3rd-order limited kappa-scheme (kappa = 1/3, compression b = 4).

    For the cell left of the face (extrapolating rightwards):

        vL = v + 1/4 [ (1 - k) minmod(d-, b d+) + (1 + k) minmod(d+, b d-) ]

    and the mirrored expression for the cell right of the face.
    """
    kappa = _TVD3_KAPPA
    b = _TVD3_B
    ng = len(cells) // 2
    left_cell = cells[ng - 1]
    right_cell = cells[ng]
    minmod = _limiters.minmod
    dm_left = left_cell - cells[ng - 2]
    dp_left = right_cell - left_cell
    left = left_cell + 0.25 * (
        (1.0 - kappa) * minmod(dm_left, b * dp_left)
        + (1.0 + kappa) * minmod(dp_left, b * dm_left)
    )

    dm_right = right_cell - left_cell
    dp_right = cells[ng + 1] - right_cell
    right = right_cell - 0.25 * (
        (1.0 - kappa) * minmod(dp_right, b * dm_right)
        + (1.0 + kappa) * minmod(dm_right, b * dp_right)
    )
    return left, right


tvd3.ghost_cells = 2


def weno3(cells: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """3rd-order WENO reconstruction (two 2-point stencils per side).

    Smoothness indicators are squared one-sided differences; a stencil
    crossing a discontinuity gets a huge indicator and hence (as the
    paper puts it) "automatically ... zero weight".
    """
    ng = len(cells) // 2
    far_left, left_cell, right_cell, far_right = (
        cells[ng - 2],
        cells[ng - 1],
        cells[ng],
        cells[ng + 1],
    )
    left = _weno3_one_side(far_left, left_cell, right_cell)
    right = _weno3_one_side(far_right, right_cell, left_cell)
    return left, right


weno3.ghost_cells = 2


def _weno3_one_side(upwind, centre, downwind):
    """WENO-3 extrapolation from ``centre`` towards the face shared with ``downwind``."""
    beta0 = (centre - upwind) ** 2
    beta1 = (downwind - centre) ** 2
    alpha0 = (1.0 / 3.0) / (WENO_EPSILON + beta0) ** 2
    alpha1 = (2.0 / 3.0) / (WENO_EPSILON + beta1) ** 2
    weight0 = alpha0 / (alpha0 + alpha1)
    weight1 = 1.0 - weight0
    candidate0 = 1.5 * centre - 0.5 * upwind
    candidate1 = 0.5 * centre + 0.5 * downwind
    return weight0 * candidate0 + weight1 * candidate1


# -- kernel-IR definitions (repro.jit) ----------------------------------
#
# The schemes above for one field at one face: ``cells`` is the list of
# 2*ghost_cells stencil values (SSA names), ordered like the stencil
# views; each emitter returns ``(left, right)``.  One IR op per rounded
# operation of the allocating expressions, in their evaluation order;
# the NumPy programs and the compiled kernels are both derived from these.


def emit_piecewise_constant(b, cells):
    """IR definition of :func:`piecewise_constant` (a pure copy)."""
    return cells[0], cells[1]


def _emit_muscl_states(b, cells, limiter_emit):
    """IR definition of :func:`_muscl_states`."""
    ng = len(cells) // 2
    left_cell = cells[ng - 1]
    right_cell = cells[ng]
    backward = b.sub(left_cell, cells[ng - 2])
    central = b.sub(right_cell, left_cell)
    left = limiter_emit(b, backward, central)
    left = b.mul(left, 0.5)
    left = b.add(left_cell, left)
    backward = b.sub(cells[ng + 1], right_cell)
    right = limiter_emit(b, central, backward)
    right = b.mul(right, 0.5)
    right = b.sub(right_cell, right)
    return left, right


def make_emit_tvd2(limiter_name: str = "minmod"):
    """IR definition of :func:`make_tvd2`: bind the named limiter's emitter."""
    limiter_emit = _limiters.LIMITER_EMITTERS[limiter_name]

    def emit_tvd2(b, cells):
        return _emit_muscl_states(b, cells, limiter_emit)

    return emit_tvd2


def emit_tvd3(b, cells):
    """IR definition of :func:`tvd3` (``dm_right`` is bitwise ``dp_left``,
    so ``central`` serves both sides)."""
    kappa = _TVD3_KAPPA
    compression = _TVD3_B
    ng = len(cells) // 2
    left_cell = cells[ng - 1]
    right_cell = cells[ng]
    backward = b.sub(left_cell, cells[ng - 2])   # dm_left
    central = b.sub(right_cell, left_cell)       # dp_left (== dm_right)
    scaled = b.mul(central, compression)
    left = _limiters.emit_minmod(b, backward, scaled)
    left = b.mul(left, 1.0 - kappa)
    scaled = b.mul(backward, compression)
    slope = _limiters.emit_minmod(b, central, scaled)
    slope = b.mul(slope, 1.0 + kappa)
    left = b.add(left, slope)
    left = b.mul(left, 0.25)
    left = b.add(left_cell, left)

    backward = b.sub(cells[ng + 1], right_cell)  # dp_right
    scaled = b.mul(central, compression)
    right = _limiters.emit_minmod(b, backward, scaled)
    right = b.mul(right, 1.0 - kappa)
    scaled = b.mul(backward, compression)
    slope = _limiters.emit_minmod(b, central, scaled)
    slope = b.mul(slope, 1.0 + kappa)
    right = b.add(right, slope)
    right = b.mul(right, 0.25)
    right = b.sub(right_cell, right)
    return left, right


def _emit_weno3_one_side(b, upwind, centre, downwind):
    """IR definition of :func:`_weno3_one_side` (``x ** 2`` is NumPy's
    ``x * x`` fast path, hence a multiply)."""
    weight0 = b.sub(centre, upwind)
    weight0 = b.mul(weight0, weight0)            # beta0
    weight1 = b.sub(downwind, centre)
    weight1 = b.mul(weight1, weight1)            # beta1
    weight0 = b.add(weight0, WENO_EPSILON)
    weight0 = b.mul(weight0, weight0)
    weight0 = b.div(1.0 / 3.0, weight0)          # alpha0
    weight1 = b.add(weight1, WENO_EPSILON)
    weight1 = b.mul(weight1, weight1)
    weight1 = b.div(2.0 / 3.0, weight1)          # alpha1
    scratch = b.add(weight0, weight1)
    weight0 = b.div(weight0, scratch)            # weight0
    weight1 = b.sub(1.0, weight0)                # weight1
    candidate = b.mul(centre, 1.5)
    scratch = b.mul(upwind, 0.5)
    candidate = b.sub(candidate, scratch)        # candidate0
    out = b.mul(weight0, candidate)
    candidate = b.mul(centre, 0.5)
    scratch = b.mul(downwind, 0.5)
    candidate = b.add(candidate, scratch)        # candidate1
    candidate = b.mul(weight1, candidate)
    return b.add(out, candidate)


def emit_weno3(b, cells):
    """IR definition of :func:`weno3`."""
    ng = len(cells) // 2
    far_left, left_cell, right_cell, far_right = (
        cells[ng - 2],
        cells[ng - 1],
        cells[ng],
        cells[ng + 1],
    )
    left = _emit_weno3_one_side(b, far_left, left_cell, right_cell)
    right = _emit_weno3_one_side(b, far_right, right_cell, left_cell)
    return left, right


def get_scheme_emitter(name: str, limiter: str = "minmod"):
    """The IR definition of the scheme :func:`get_scheme` returns — same
    names, same limiter rule (only ``tvd2`` consults it)."""
    if name == "pc":
        return emit_piecewise_constant
    if name == "tvd2":
        return make_emit_tvd2(limiter)
    if name == "tvd3":
        return emit_tvd3
    if name == "weno3":
        return emit_weno3
    raise ConfigurationError(
        f"unknown reconstruction {name!r} (known: pc, tvd2, tvd3, weno3)"
    )


def get_scheme(name: str, limiter: str = "minmod"):
    """Look up a reconstruction scheme by name.

    ``limiter`` only affects ``tvd2``; the other schemes have fixed
    internal limiting, matching the paper's menu of options.
    """
    if name == "pc":
        return piecewise_constant
    if name == "tvd2":
        return make_tvd2(limiter)
    if name == "tvd3":
        return tvd3
    if name == "weno3":
        return weno3
    raise ConfigurationError(
        f"unknown reconstruction {name!r} (known: pc, tvd2, tvd3, weno3)"
    )
