"""TVD (strong-stability-preserving) Runge-Kutta integrators.

The paper uses "the 2nd or 3rd order TVD Runge-Kutta schemes" (Shu &
Osher) for stage 3 of the Godunov pipeline; forward Euler is included
as the building block and for cheap smoke tests.  Each integrator is a
convex combination of forward-Euler substeps, which is what preserves
the TVD property of the spatial operator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

#: Right-hand side: conservative state -> time derivative, same shape.
RhsFunction = Callable[[np.ndarray], np.ndarray]


def rk1_step(u: np.ndarray, dt: float, rhs: RhsFunction) -> np.ndarray:
    """Forward Euler: U + dt L(U)."""
    return u + dt * rhs(u)


def rk2_tvd_step(u: np.ndarray, dt: float, rhs: RhsFunction) -> np.ndarray:
    """Shu-Osher SSP-RK2 (Heun form as convex Euler combinations)."""
    stage1 = u + dt * rhs(u)
    return 0.5 * u + 0.5 * (stage1 + dt * rhs(stage1))


def rk3_tvd_step(u: np.ndarray, dt: float, rhs: RhsFunction) -> np.ndarray:
    """Shu-Osher SSP-RK3, the scheme used for the paper's benchmark runs."""
    stage1 = u + dt * rhs(u)
    stage2 = 0.75 * u + 0.25 * (stage1 + dt * rhs(stage1))
    return u / 3.0 + 2.0 / 3.0 * (stage2 + dt * rhs(stage2))


# -- the in-place form: a schedule of stages and one combine IR per kind --
#
# Each order is a list of stages ``(combine kind, source, target)``: the
# stage evaluates ``k = L(source)`` and writes ``combine(u, source, k, dt)``
# into ``target``.  ``u`` itself is written only by the last stage, so a
# failing stage leaves it untouched.  The combines are IR definitions
# (one op per rounded operation of the allocating functions above, in
# their order); :mod:`repro.jit` compiles them into the stage entry point
# — a whole schedule is one call of the step entry point — and
# :class:`~repro.jit.numpy_eval.NumpyProgram` interprets them.

SCHEDULES = {
    1: (("euler", "u", "u"),),
    2: (("euler", "u", "stage1"), ("rk2_final", "stage1", "u")),
    3: (
        ("euler", "u", "stage1"),
        ("rk3_mid", "stage1", "stage2"),
        ("rk3_final", "stage2", "u"),
    ),
}

#: Combine kinds in a fixed order: a kind's position + 1 is the id the
#: compiled stage switches on (0 = no combine, a bare ``L(U)``).
COMBINES = ("euler", "rk2_final", "rk3_mid", "rk3_final")


def emit_combine(b, kind: str, u, v, k, dt):
    """IR definition of one stage's convex combination: ``v + dt k`` is
    the forward-Euler substep from the stage's source ``v``."""
    substep = b.add(v, b.mul(k, dt))
    if kind == "euler":
        return substep
    if kind == "rk2_final":
        return b.add(b.mul(u, 0.5), b.mul(substep, 0.5))
    if kind == "rk3_mid":
        weighted = b.mul(substep, 0.25)
        return b.add(b.mul(u, 0.75), weighted)
    if kind == "rk3_final":
        weighted = b.mul(substep, 2.0 / 3.0)
        return b.add(b.div(u, 3.0), weighted)
    raise ConfigurationError(f"unknown Runge-Kutta combine {kind!r}")


def schedule(order: int):
    """The stage list of the requested order; ConfigurationError otherwise."""
    try:
        return SCHEDULES[order]
    except KeyError:
        raise ConfigurationError(
            f"no TVD Runge-Kutta scheme of order {order} (have 1, 2, 3)"
        ) from None


def schedule_buffers(order: int, u: np.ndarray, work):
    """The order's schedule over arrays: ``(kind, source, target)`` per
    stage, ``u`` itself where the schedule names it and the stage buffers
    from ``work``.  Running the stages in order is one in-place step."""
    buffers = {"u": u}
    stages = []
    for kind, source, target in schedule(order):
        if target not in buffers:
            buffers[target] = work.like(f"rk.{target}", u)
        stages.append((kind, buffers[source], buffers[target]))
    return stages


INTEGRATORS = {
    1: rk1_step,
    2: rk2_tvd_step,
    3: rk3_tvd_step,
}


def get_integrator(order: int):
    """Integrator of the requested order; raises ConfigurationError otherwise."""
    try:
        return INTEGRATORS[order]
    except KeyError:
        raise ConfigurationError(
            f"no TVD Runge-Kutta scheme of order {order} (have 1, 2, 3)"
        ) from None
