"""Ready-made problem setups.

* :func:`sod` — the 1-D Sod shock tube of the paper's Section 3.1 /
  Fig. 1 (also Lax and Toro's 123 problem as extra validation cases);
* :func:`two_channel` — the 2-D unsteady shock-interaction problem of
  Section 3.2 / Figs. 2-3: a square domain of side ``2 h`` filled with
  quiescent gas, with the exit sections of two perpendicular channels
  (width ``h``) on the left and bottom walls blowing in the post-shock
  state of an Ms = 2.2 shock computed from the Rankine-Hugoniot
  relations.

Each setup returns a fully configured solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.euler.constants import GAMMA
from repro.euler.boundary import (
    BoundarySet1D,
    BoundarySet2D,
    EdgeSpec,
    ReflectiveWall,
    SupersonicInflow,
    Transmissive,
)
from repro.euler.exact_riemann import RiemannState
from repro.euler.rankine_hugoniot import post_shock_state
from repro.euler.solver import EulerSolver1D, EulerSolver2D, SolverConfig


@dataclass(frozen=True)
class RiemannProblemSpec:
    """A named 1-D Riemann problem with its customary final time."""

    name: str
    left: RiemannState
    right: RiemannState
    t_end: float
    x_diaphragm: float = 0.5


#: The paper's 1-D case: "top state (1, 0, 1) ... bottom (0.125, 0, 0.1)".
SOD = RiemannProblemSpec(
    name="sod",
    left=RiemannState(rho=1.0, u=0.0, p=1.0),
    right=RiemannState(rho=0.125, u=0.0, p=0.1),
    t_end=0.2,
)

#: Lax's problem: a stronger shock and a travelling contact.
LAX = RiemannProblemSpec(
    name="lax",
    left=RiemannState(rho=0.445, u=0.698, p=3.528),
    right=RiemannState(rho=0.5, u=0.0, p=0.571),
    t_end=0.14,
)

#: Toro's 123 problem: two strong rarefactions, near-vacuum centre.
TORO_123 = RiemannProblemSpec(
    name="toro123",
    left=RiemannState(rho=1.0, u=-2.0, p=0.4),
    right=RiemannState(rho=1.0, u=2.0, p=0.4),
    t_end=0.15,
)

RIEMANN_PROBLEMS = {spec.name: spec for spec in (SOD, LAX, TORO_123)}


def riemann_problem_solver(
    spec: RiemannProblemSpec,
    n_cells: int = 400,
    config: Optional[SolverConfig] = None,
) -> Tuple[EulerSolver1D, np.ndarray]:
    """Solver + cell-centre coordinates for a 1-D Riemann problem on [0, 1]."""
    if n_cells < 8:
        raise ConfigurationError("need at least 8 cells for a Riemann problem")
    dx = 1.0 / n_cells
    x = (np.arange(n_cells) + 0.5) * dx
    primitive = np.empty((n_cells, 3))
    left_mask = x < spec.x_diaphragm
    primitive[left_mask] = [spec.left.rho, spec.left.u, spec.left.p]
    primitive[~left_mask] = [spec.right.rho, spec.right.u, spec.right.p]
    solver = EulerSolver1D(
        primitive,
        dx,
        BoundarySet1D(low=Transmissive(), high=Transmissive()),
        config,
    )
    return solver, x


def sod(n_cells: int = 400, config: Optional[SolverConfig] = None):
    """The Sod shock tube (paper Fig. 1)."""
    return riemann_problem_solver(SOD, n_cells, config)


def sod_2d(
    nx: int = 64,
    ny: int = 16,
    spec: RiemannProblemSpec = SOD,
    config: Optional[SolverConfig] = None,
) -> Tuple[EulerSolver2D, np.ndarray]:
    """A planar Riemann problem on a 2-D grid (Sod by default).

    The diaphragm is normal to x at ``x = x_diaphragm`` and the state is
    uniform in y, so every row reproduces the 1-D solution — the 2-D
    validation case used by the parallel-runtime tests (any y-coupling
    or halo bug breaks the row-wise agreement immediately).  Returns the
    solver and the x cell centres.
    """
    if nx < 8 or ny < 4:
        raise ConfigurationError("sod_2d needs at least an 8x4 grid")
    dx = 1.0 / nx
    dy = 1.0 / ny
    x = (np.arange(nx) + 0.5) * dx
    primitive = np.empty((nx, ny, 4))
    left_mask = x < spec.x_diaphragm
    primitive[left_mask] = [spec.left.rho, spec.left.u, 0.0, spec.left.p]
    primitive[~left_mask] = [spec.right.rho, spec.right.u, 0.0, spec.right.p]
    boundaries = BoundarySet2D(
        left=EdgeSpec.uniform(Transmissive()),
        right=EdgeSpec.uniform(Transmissive()),
        bottom=EdgeSpec.uniform(Transmissive()),
        top=EdgeSpec.uniform(Transmissive()),
    )
    solver = EulerSolver2D(primitive, dx, dy, boundaries, config)
    return solver, x


@dataclass(frozen=True)
class TwoChannelSetup:
    """Geometry and gas states of the 2-D problem (paper Fig. 2)."""

    n_cells: int
    h: float
    mach: float
    exit_start: float
    exit_stop: float
    rho0: float
    p0: float

    @property
    def domain_size(self) -> float:
        return 2.0 * self.h

    @property
    def dx(self) -> float:
        return self.domain_size / self.n_cells


def two_channel(
    n_cells: int = 400,
    h: float = 200.0,
    mach: float = 2.2,
    exit_start: Optional[float] = None,
    rho0: float = 1.0,
    p0: float = 1.0,
    config: Optional[SolverConfig] = None,
) -> Tuple[EulerSolver2D, TwoChannelSetup]:
    """The two-channel shock-interaction problem (paper Figs. 2-3).

    Domain ``[0, 2h] x [0, 2h]`` on an ``n_cells x n_cells`` grid
    (the paper: h = 200, 400x400, so dx = dy = 1).  The channel exits
    of width ``h`` are centred on their walls unless ``exit_start``
    overrides the placement; both are placed symmetrically about the
    diagonal, which is what makes the flow diagonal-symmetric (a
    property the tests exploit).
    """
    if n_cells < 1:
        raise ConfigurationError(f"two_channel needs n_cells >= 1, got {n_cells}")
    if mach <= 1.0:
        raise ConfigurationError(f"shock Mach number must exceed 1, got {mach}")
    if exit_start is None:
        exit_start = 0.5 * h  # centred exit section
    exit_stop = exit_start + h
    if exit_start < 0 or exit_stop > 2.0 * h:
        raise ConfigurationError("channel exit section lies outside the wall")

    setup = TwoChannelSetup(
        n_cells=n_cells,
        h=h,
        mach=mach,
        exit_start=exit_start,
        exit_stop=exit_stop,
        rho0=rho0,
        p0=p0,
    )

    post = post_shock_state(mach, rho0, p0)
    dx = setup.dx
    start_index = int(round(exit_start / dx))
    stop_index = int(round(exit_stop / dx))

    # Sweep layout: field 1 is the velocity normal to the edge, so the
    # left exit blows (rho2, u2, 0, p2) and the bottom exit, seen by the
    # y-sweep with u/v swapped, uses the same numbers.
    inflow = SupersonicInflow([post.rho, post.velocity, 0.0, post.p])

    def wall_edge_with_exit() -> EdgeSpec:
        spec = EdgeSpec()
        if start_index > 0:
            spec.add(0, start_index, ReflectiveWall())
        spec.add(start_index, stop_index, inflow)
        if stop_index < n_cells:
            spec.add(stop_index, None, ReflectiveWall())
        return spec

    boundaries = BoundarySet2D(
        left=wall_edge_with_exit(),
        bottom=wall_edge_with_exit(),
        right=EdgeSpec.uniform(Transmissive()),
        top=EdgeSpec.uniform(Transmissive()),
    )

    primitive = np.empty((n_cells, n_cells, 4))
    primitive[...] = [rho0, 0.0, 0.0, p0]
    solver = EulerSolver2D(primitive, dx, dx, boundaries, config)
    return solver, setup


def two_channel_ensemble(
    machs,
    n_cells: int = 400,
    h: float = 200.0,
    config: Optional[SolverConfig] = None,
    **kwargs,
):
    """A Mach-number sweep of :func:`two_channel` as one batched ensemble.

    Builds one standalone solver per shock Mach number and stacks them
    with :meth:`EulerEnsemble2D.from_solvers` (so each member starts
    from exactly the bits its solo run would); returns the ensemble and
    the per-member :class:`TwoChannelSetup` list.  Geometry keywords
    (``exit_start``, ``rho0``, ``p0``) apply to every member.
    """
    from repro.euler.solver import EulerEnsemble2D

    machs = [float(mach) for mach in machs]
    if not machs:
        raise ConfigurationError("a Mach sweep needs at least one Mach number")
    solvers = []
    setups = []
    for mach in machs:
        solver, setup = two_channel(
            n_cells=n_cells, h=h, mach=mach, config=config, **kwargs
        )
        solvers.append(solver)
        setups.append(setup)
    ensemble = EulerEnsemble2D.from_solvers(
        solvers,
        names=[f"Ms={mach:g}" for mach in machs],
        params=[{"mach": mach} for mach in machs],
    )
    return ensemble, setups
