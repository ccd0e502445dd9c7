"""Finite-volume Euler solvers (1-D and 2-D) — the golden reference.

The three-stage Godunov pipeline of the paper's Section 3:

1. **reconstruction** of face states from cell averages (in local
   characteristic, primitive or conservative variables),
2. **numerical fluxes** from an approximate Riemann solver,
3. **advancement** with a TVD Runge-Kutta scheme and a CFL-limited
   ``GetDT`` time step.

The 2-D solver is dimensionally unsplit (the sweeps' flux differences
are summed into one right-hand side and handed to the Runge-Kutta
stage as a single operator), sweeping x and y with the same 1-D
kernels — the dimension reuse the paper credits SaC for is expressed
here through array orientation instead of subtyping.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, PhysicsError
from repro.euler.constants import DEFAULT_CFL, GAMMA
from repro.euler import state
from repro.euler.engine import StepEngine
from repro.euler.boundary import (
    BoundarySet1D,
    BoundarySet2D,
    EdgeSpec,
)
from repro.euler.reconstruction import (
    get_scheme,
    reconstruct_component,
    reconstruct_characteristic,
)
from repro.euler.riemann import get_riemann_solver
from repro.euler.rk import get_integrator
from repro.euler.timestep import get_dt


@dataclass(frozen=True)
class SolverConfig:
    """Numerical options, mirroring the paper's menu.

    The defaults reproduce the paper's flow pictures (WENO-3 on local
    characteristic variables, RK3); the Fig. 4 benchmark configuration
    is ``SolverConfig(reconstruction="pc", rk_order=3)``.

    ``tile_bytes`` is the engine's cache-blocking budget (see
    :mod:`repro.euler.tiling`): ``None`` defers to the
    ``REPRO_TILE_BYTES`` environment variable and then the built-in
    default, ``0`` means no budget (every sweep is a plan of one strip,
    the whole-grid reference), any positive value is the per-strip
    working-set target in bytes.  Results are bit-for-bit independent
    of the strip plan.
    """

    reconstruction: str = "weno3"
    limiter: str = "minmod"
    riemann: str = "hllc"
    variables: str = "characteristic"  # characteristic | primitive | conservative
    rk_order: int = 3
    cfl: float = DEFAULT_CFL
    gamma: float = GAMMA
    tile_bytes: Optional[int] = None

    def __post_init__(self):
        if self.variables not in ("characteristic", "primitive", "conservative"):
            raise ConfigurationError(
                f"variables must be characteristic/primitive/conservative,"
                f" got {self.variables!r}"
            )
        if self.tile_bytes is not None and self.tile_bytes < 0:
            raise ConfigurationError(
                f"tile_bytes must be >= 0 (0 disables tiling), got {self.tile_bytes}"
            )

    # -- canonical serialization ----------------------------------------
    #
    # The service's result cache keys on a *content hash* of the
    # configuration, so the dict form must be canonical: every field
    # materialized (defaults included), floats repr-normalized (the
    # shortest round-tripping decimal — `float(repr(x)) == x`), ints
    # kept as ints, names as plain strings.  Two configs compare equal
    # iff their hashes match.

    def to_dict(self) -> Dict[str, object]:
        """All fields as JSON-ready values, defaults materialized.

        Field-aware coercion makes the output canonical regardless of
        how the config was built: ``cfl=1`` and ``cfl=1.0`` (or a numpy
        scalar) produce the same dict, hence the same hash.
        """
        out: Dict[str, object] = {
            "reconstruction": str(self.reconstruction),
            "limiter": str(self.limiter),
            "riemann": str(self.riemann),
            "variables": str(self.variables),
            "rk_order": int(self.rk_order),
            "cfl": float(self.cfl),
            "gamma": float(self.gamma),
            "tile_bytes": None if self.tile_bytes is None else int(self.tile_bytes),
        }
        if set(out) != {spec.name for spec in fields(self)}:
            raise ConfigurationError(
                "SolverConfig.to_dict is out of sync with the dataclass"
                " fields — update the canonical serialization"
            )
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SolverConfig":
        """Inverse of :meth:`to_dict`; missing fields take their defaults,
        unknown fields are rejected loudly (a typo'd key silently falling
        back to a default would poison every cache keyed on the hash)."""
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"SolverConfig has no fields {sorted(unknown)}"
                f" (known: {sorted(known)})"
            )
        return cls(**{key: _canonical_value(value) for key, value in payload.items()})

    def canonical_json(self) -> str:
        """The canonical single-line JSON form (sorted keys, no spaces)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable sha256 hex digest of :meth:`canonical_json`.

        Stable across processes and Python versions: the canonical JSON
        uses sorted keys and repr-normalized floats, and sha256 depends
        on nothing else.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def _canonical_value(value):
    """Normalize one incoming config value (``from_dict``): numpy
    scalars become Python numbers, enums collapse to their name."""
    import enum

    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, np.generic):
        return value.item()
    return value


def paper_benchmark_config() -> SolverConfig:
    """The exact method of the paper's Section 5 benchmark:

    "the third order Runge-Kutta TVD method and first order piecewise
    constant reconstruction".
    """
    return SolverConfig(reconstruction="pc", rk_order=3)


class _SweepKernel:
    """Shared per-axis flux machinery for both solvers."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.scheme = get_scheme(config.reconstruction, config.limiter)
        self.riemann = get_riemann_solver(config.riemann)
        self.ghost_cells = self.scheme.ghost_cells

    def face_fluxes(self, padded_primitive: np.ndarray) -> np.ndarray:
        """Fluxes at the N+1 interior faces of a padded sweep array."""
        gamma = self.config.gamma
        mode = self.config.variables
        if mode == "characteristic":
            left, right = reconstruct_characteristic(
                self.scheme, padded_primitive, gamma
            )
        elif mode == "primitive":
            left, right = reconstruct_component(
                self.scheme, padded_primitive, self.ghost_cells
            )
        else:  # conservative
            padded_cons = state.conservative_from_primitive(padded_primitive, gamma)
            cons_left, cons_right = reconstruct_component(
                self.scheme, padded_cons, self.ghost_cells
            )
            left = state.primitive_from_conservative(cons_left, gamma)
            right = state.primitive_from_conservative(cons_right, gamma)
        return self.riemann(left, right, gamma)


@dataclass
class RunResult:
    """One member's summary of a ``run()`` call.

    A solo solver's ``run()`` returns one; an ensemble's returns one per
    member inside an :class:`EnsembleResult`, carrying the member's
    identity and, for a retired member, the
    :class:`~repro.errors.PhysicsError` (forensics attached) that took
    it out.  ``dt_history`` is the steps *this call* took; the driver's
    own ``dt_history`` is cumulative over every call.
    """

    steps: int
    time: float
    dt_history: List[float] = field(default_factory=list)
    index: int = 0
    name: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    error: Optional[PhysicsError] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class EnsembleResult:
    """Summary of an ensemble ``run()`` call, one entry per member."""

    members: List[RunResult]

    @property
    def finished(self) -> List[RunResult]:
        return [member for member in self.members if not member.failed]

    @property
    def failed(self) -> List[RunResult]:
        return [member for member in self.members if member.failed]


def _reached(time: float, steps: int, t_end, max_steps) -> bool:
    """The one stop rule, applied per member.

    The ``t_end`` tolerance scales with ``t_end``: an absolute 1e-14
    epsilon is meaningless for large end times (t_end = 1000 sits ~1e-13
    ulp apart) and overly strict for tiny ones.
    """
    if max_steps is not None and steps >= max_steps:
        return True
    return t_end is not None and t_end - time <= 1e-12 * abs(t_end)


def _clamped_dt(dt, time: float, t_end, batch_index: Optional[int] = None) -> float:
    """``dt`` as a plain float, clamped so the clock lands on ``t_end``;
    a collapsed or non-finite step is a :class:`PhysicsError`."""
    dt = float(dt)
    if t_end is not None:
        dt = min(dt, t_end - time)
    if dt <= 0.0 or not np.isfinite(dt):
        raise PhysicsError(
            f"non-positive or non-finite time step {dt}", batch_index=batch_index
        )
    return dt


class _MemberDriver:
    """The one run loop: B member clocks over any stepper.

    What a run needs exists here once: per-member ``times`` /
    ``step_counts`` / ``dt_history`` (plain lists, so the clock
    arithmetic is Python floats whatever B is), the stop rule and dt
    clamp (:func:`_reached`, :func:`_clamped_dt`), per-member
    :class:`~repro.obs.trace.StepTrace` recording, retire-and-redo,
    forensics and thaw-on-rerun.  It drives a *stepper* — the two calls
    ``_compute_dts() -> (B,)`` and ``_advance(dts)`` — of which there
    are two: the :class:`~repro.euler.engine.StepEngine` over the
    member stack (B >= 1, the default below) and the allocating seed
    reference (``use_engine=False``, B = 1).

    Members advance on their own clocks (dt is per member, never a
    global minimum) and leave the lockstep one by one.  A member that
    *fails* mid-step — non-finite signal speed, collapsed dt, unphysical
    state in any RK stage — is retired: forensics are attached while its
    slot still holds the last good state (the integrators write ``u``
    only after their final rhs evaluation), the slot is parked, and the
    step is redone for the survivors from the identical pre-step bits.
    A member that *finishes* is parked only while a sibling is still
    live, so a B = 1 stepper never parks, and is thawed by the next
    ``run()``; a retired member stays retired.  Parking saves the state
    and puts a benign placeholder in the member's slot of ``_stack``
    (the state, member axis leading): every kernel is elementwise over
    members, so no sibling can tell.
    """

    def _init_clocks(self, batch: int, watch=None, placeholder=None) -> None:
        self.batch = batch
        self.times: List[float] = [0.0] * batch
        self.step_counts: List[int] = [0] * batch
        self.dt_history: List[List[float]] = [[] for _ in range(batch)]
        #: terminal PhysicsError per retired member index
        self.errors: Dict[int, PhysicsError] = {}
        self.finished: List[bool] = [False] * batch
        #: saved state of every parked (retired or finished-early) member
        self._frozen: Dict[int, np.ndarray] = {}
        self._placeholder = placeholder
        #: a :class:`~repro.obs.trace.StepTrace` (B = 1) or a sequence of
        #: one per member (``None`` entries allowed), recording each step
        self.watch = watch
        #: ``t_end`` of the ``run()`` in progress: what a bare ``step()``
        #: clamps to (``None`` outside a run)
        self._t_end: Optional[float] = None

    # -- the stepper: by default the engine over the member stack --------

    @property
    def _stack(self) -> np.ndarray:
        return self.u

    def _compute_dts(self):
        return self.engine.compute_dt(self._stack)

    def _advance(self, dts) -> None:
        self.engine.step(self._stack, dts)

    # -- member access ----------------------------------------------------

    def live(self, index: int) -> bool:
        """True while the member is still advancing (not retired/finished)."""
        return index not in self.errors and not self.finished[index]

    def member_u(self, index: int) -> np.ndarray:
        """Member's conservative state: the saved one if it is parked,
        its live stack slot otherwise (a copy either way)."""
        frozen = self._frozen.get(index)
        return (frozen if frozen is not None else self._stack[index]).copy()

    def member_primitive(self, index: int) -> np.ndarray:
        """Member's primitive state, parked-or-live."""
        return state.primitive_from_conservative(
            self.member_u(index), self.config.gamma
        )

    def _member(self, index: int):
        """Member ``index`` as the solver-shaped object traces and
        forensics read (``config``/``steps``/``time``/``u``)."""
        return SimpleNamespace(
            config=self.config,
            engine=self.engine,
            steps=self.step_counts[index],
            time=self.times[index],
            u=self._stack[index],
        )

    def _trace(self, index: int):
        watch = self.watch
        return watch[index] if isinstance(watch, (list, tuple)) else watch

    # -- one step ---------------------------------------------------------

    def _step_members(self, t_end=None, dts=None) -> List[int]:
        """Advance every live member by its own CFL step clamped to
        ``t_end`` (or by the ``dts`` given); returns who advanced."""
        active = [index for index in range(self.batch) if self.live(index)]
        if not active:
            return active
        try:
            if dts is None:
                raw = self._compute_dts()
                dts = [0.0] * self.batch
                for index in active:
                    dts[index] = _clamped_dt(raw[index], self.times[index], t_end, index)
            self._advance(dts)
        except PhysicsError as error:
            if not self._retire(error):
                raise
            return self._step_members(t_end)  # the redo, for the survivors
        for index in active:
            self.times[index] += dts[index]
            self.step_counts[index] += 1
            self.dt_history[index].append(dts[index])
        if self.watch is not None:
            for index in active:
                trace = self._trace(index)
                if trace is not None:
                    trace.record_step(self._member(index), dts[index])
        # dt = 0 holds a parked slot for one step but is not a bitwise
        # freeze (the RK convex combinations re-round): pin it back.
        for index in self._frozen:
            self._stack[index] = self._placeholder
        return active

    def _identity(self, index: int) -> Dict[str, object]:
        """What names member ``index`` in results and forensics."""
        return {}

    def _retire(self, error: PhysicsError) -> bool:
        """Retire the member ``error`` names; False if it names none."""
        index = error.batch_index
        if index is None:
            return False
        error.member = {"index": index, **self._identity(index)}
        self._report(error, index)
        self.errors[index] = error
        self._park(index)
        return True

    def _report(self, error: PhysicsError, index: int) -> None:
        # obs is an optional layer above the solvers and this is the one
        # cold path that needs it.
        from repro.obs.forensics import attach_forensics

        attach_forensics(error, solver=self._member(index), trace=self._trace(index))

    def _park(self, index: int) -> None:
        self._frozen[index] = self._stack[index].copy()
        self._stack[index] = self._placeholder

    # -- the loop ---------------------------------------------------------

    def _still_running(self, t_end, max_steps) -> bool:
        """Finish every live member that reached its bound; True while
        another is still live (and then the finished ones are parked)."""
        done = []
        still_live = False
        for index in range(self.batch):
            if not self.live(index):
                continue
            if _reached(self.times[index], self.step_counts[index], t_end, max_steps):
                self.finished[index] = True
                done.append(index)
            else:
                still_live = True
        if still_live:
            for index in done:
                self._park(index)
        return still_live

    def run(
        self,
        t_end: Optional[float] = None,
        max_steps: Optional[int] = None,
        callback: Optional[Callable] = None,
        watch=None,
    ):
        """Advance every member until ``t_end`` and/or for ``max_steps``.

        Each member stops on its own clock.  The loop advances through
        the object's own ``step``; ``callback(self)`` runs after every
        step in which a member advanced.  ``watch`` is installed for the
        duration of the call.  A call continues where the last one
        stopped: ``run(max_steps=3); run(max_steps=6)`` is
        ``run(max_steps=6)`` bit for bit.
        """
        if t_end is None and max_steps is None:
            raise ConfigurationError("run() needs t_end and/or max_steps")
        if t_end is not None and not np.isfinite(t_end):
            # NaN never reaches the stop rule; infinity reaches it at once
            raise ConfigurationError(f"run() needs a finite t_end, got {t_end}")
        for index in range(self.batch):
            if self.finished[index]:  # thaw
                self.finished[index] = False
                if index in self._frozen:
                    self._stack[index] = self._frozen.pop(index)
        first = [len(history) for history in self.dt_history]
        installed = self.watch
        if watch is not None:
            self.watch = watch
        self._t_end = t_end
        try:
            while self._still_running(t_end, max_steps):
                if self.step() and callback is not None:
                    callback(self)
        finally:
            self._t_end = None
            self.watch = installed
        return self._result(first)

    def _result(self, first: Sequence[int]) -> EnsembleResult:
        """Per-member summaries, ``dt_history`` from entry ``first[b]`` on."""
        return EnsembleResult(
            members=[
                RunResult(
                    steps=self.step_counts[index],
                    time=self.times[index],
                    dt_history=self.dt_history[index][first[index]:],
                    index=index,
                    error=self.errors.get(index),
                    **self._identity(index),
                )
                for index in range(self.batch)
            ]
        )


class _SoleMember(_MemberDriver):
    """The B = 1 view of the driver: what a solver *is*.

    ``time``/``steps`` are the sole member's clock, ``step(dt=None)``
    and ``run()`` its scalar forms, and its failure is not retired but
    propagates, reading as a solo error always did (no ``batch_index``)
    with forensics attached.  Subclasses provide ``u`` and ``config``.
    """

    @property
    def time(self) -> float:
        return self.times[0]

    @time.setter
    def time(self, value: float) -> None:
        self.times[0] = value

    @property
    def steps(self) -> int:
        return self.step_counts[0]

    @steps.setter
    def steps(self, value: int) -> None:
        self.step_counts[0] = value

    @property
    def primitive(self) -> np.ndarray:
        """Current primitive state per cell."""
        return state.primitive_from_conservative(self.u, self.config.gamma)

    @property
    def _stack(self) -> np.ndarray:
        return self.u[None]

    def _member(self, index: int):
        return self

    def _retire(self, error: PhysicsError) -> bool:
        error.batch_index = None
        self._report(error, 0)
        return False

    def _result(self, first: Sequence[int]) -> RunResult:
        return super()._result(first).members[0]

    def compute_dt(self) -> float:
        try:
            return float(self._compute_dts()[0])
        except PhysicsError as error:
            error.batch_index = None
            raise

    def step(self, dt: Optional[float] = None) -> float:
        """Advance one time step; returns the dt used."""
        # a direct step is not bound by the stop rule of an earlier run()
        self.finished[0] = False
        self._step_members(self._t_end, None if dt is None else [dt])
        return self.dt_history[0][-1]


class _GodunovSolver(_SoleMember):
    """What :class:`EulerSolver1D` and :class:`EulerSolver2D` share.

    With ``use_engine=True`` (the default) the stepper is a preallocated
    :class:`~repro.euler.engine.StepEngine` run as a batch of one on the
    ``u[None]`` view.  The results are bit-for-bit identical to the
    allocating seed stepper (``_seed_rhs`` and the allocating
    integrator), which ``use_engine=False`` keeps available as the
    reference every equality test compares against.
    """

    #: ``workers=``/``barrier=`` of the engine's strip team; empty means
    #: ``REPRO_JIT_THREADS`` workers on fork/join barriers.  Set by
    #: :class:`~repro.par.solver.ParallelSolver2D` ahead of ``__init__``.
    _team: Dict[str, object] = {}

    def __init__(self, primitive, spacing, boundaries, config, use_engine, watch):
        self.config = config or SolverConfig()
        self.spacing = tuple(float(s) for s in spacing)
        self.boundaries = boundaries
        self.kernel = _SweepKernel(self.config)
        self.integrator = get_integrator(self.config.rk_order)
        self.u = state.conservative_from_primitive(
            np.asarray(primitive, dtype=float), self.config.gamma
        )
        self.engine: Optional[StepEngine] = (
            StepEngine(
                self.u.shape, self.spacing, self.config, [boundaries], **self._team
            )
            if use_engine
            else None
        )
        if self.engine is None:  # refuse what the engine refuses (a mirror wider than its axis)
            from repro.jit.kernels import spec_from_config
            from repro.jit.plan import fill_tables

            fill_tables(spec_from_config(self.config, len(self.spacing)), self.u.shape, [boundaries])
        self._init_clocks(1, watch)

    @property
    def phase_seconds(self):
        """Cumulative per-phase seconds from the engine (None without one)."""
        return dict(self.engine.seconds) if self.engine is not None else None

    @property
    def tiles(self) -> int:
        """Cumulative sweep/dt strips processed by the engine."""
        return self.engine.tiles_processed if self.engine is not None else 0

    @property
    def tile_bytes(self) -> int:
        """The engine's effective cache-blocking budget (0 = one-strip plans)."""
        return self.engine.tile_bytes if self.engine is not None else 0

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """Spatial operator L(U) (unsplit: the sweeps' differences summed)."""
        if self.engine is None:
            return self._seed_rhs(u)
        try:
            return self.engine.rhs(u[None], np.empty_like(u)[None])[0]
        except PhysicsError as error:
            error.batch_index = None
            raise

    def _compute_dts(self):
        if self.engine is not None:
            return super()._compute_dts()
        return [get_dt(self.primitive, self.spacing, self.config.cfl, self.config.gamma)]

    def _advance(self, dts) -> None:
        if self.engine is not None:
            super()._advance(dts)
        else:
            self.u = self.integrator(self.u, dts[0], self.rhs)


class EulerSolver1D(_GodunovSolver):
    """Method-of-lines Euler solver on a uniform 1-D grid.

    ``primitive`` is the initial condition as an ``(N, 3)`` array of
    (rho, u, p); the solver advances the conservative state in place.
    See :class:`_GodunovSolver` for ``use_engine``.
    """

    def __init__(
        self,
        primitive: np.ndarray,
        dx: float,
        boundaries: BoundarySet1D,
        config: Optional[SolverConfig] = None,
        use_engine: bool = True,
        watch=None,
    ):
        if primitive.ndim != 2 or primitive.shape[-1] != 3:
            raise ConfigurationError("1-D initial condition must have shape (N, 3)")
        if dx <= 0:
            raise ConfigurationError(f"dx must be positive, got {dx}")
        self.dx = float(dx)
        super().__init__(primitive, (dx,), boundaries, config, use_engine, watch)

    def _pad(self, primitive: np.ndarray) -> np.ndarray:
        ng = self.kernel.ghost_cells
        n = primitive.shape[0]
        padded = np.empty((n + 2 * ng,) + primitive.shape[1:], dtype=primitive.dtype)
        padded[ng : ng + n] = primitive
        self.boundaries.low.fill(padded, ng)
        self.boundaries.high.fill(padded[::-1], ng)
        return padded

    def _seed_rhs(self, u: np.ndarray) -> np.ndarray:
        """L(U) = -dF/dx, allocating."""
        primitive = state.primitive_from_conservative(u, self.config.gamma)
        state.validate_state(primitive, "1-D solver state")
        padded = self._pad(primitive)
        flux = self.kernel.face_fluxes(padded)
        return -(flux[1:] - flux[:-1]) / self.dx


class EulerSolver2D(_GodunovSolver):
    """Method-of-lines Euler solver on a uniform 2-D grid.

    ``primitive`` is ``(Nx, Ny, 4)`` of (rho, u, v, p); index ``[i, j]``
    is the cell at ``x = (i + 1/2) dx, y = (j + 1/2) dy``.
    See :class:`_GodunovSolver` for ``use_engine``.
    """

    def __init__(
        self,
        primitive: np.ndarray,
        dx: float,
        dy: float,
        boundaries: BoundarySet2D,
        config: Optional[SolverConfig] = None,
        use_engine: bool = True,
        watch=None,
    ):
        if primitive.ndim != 3 or primitive.shape[-1] != 4:
            raise ConfigurationError("2-D initial condition must have shape (Nx, Ny, 4)")
        if dx <= 0 or dy <= 0:
            raise ConfigurationError(f"dx and dy must be positive, got {dx}, {dy}")
        self.dx = float(dx)
        self.dy = float(dy)
        super().__init__(primitive, (dx, dy), boundaries, config, use_engine, watch)

    def _sweep(self, primitive: np.ndarray, axis: int) -> np.ndarray:
        """Flux-difference contribution of one sweep, in global layout."""
        ng = self.kernel.ghost_cells
        low_spec, high_spec = self.boundaries.for_axis(axis)
        spacing = self.dx if axis == 0 else self.dy

        oriented = primitive if axis == 0 else state.swap_velocity_axes(
            np.transpose(primitive, (1, 0, 2))
        )
        n = oriented.shape[0]
        padded = np.empty((n + 2 * ng,) + oriented.shape[1:], dtype=oriented.dtype)
        padded[ng : ng + n] = oriented
        low_spec.fill(padded, ng)
        high_spec.fill(padded[::-1], ng)

        flux = self.kernel.face_fluxes(padded)
        contribution = -(flux[1:] - flux[:-1]) / spacing
        if axis == 1:
            contribution = np.transpose(
                state.swap_velocity_axes(contribution), (1, 0, 2)
            )
        return contribution

    def _seed_rhs(self, u: np.ndarray) -> np.ndarray:
        """L(U) = -dF/dx - dG/dy (unsplit), allocating."""
        primitive = state.primitive_from_conservative(u, self.config.gamma)
        state.validate_state(primitive, "2-D solver state")
        return self._sweep(primitive, 0) + self._sweep(primitive, 1)


# ---------------------------------------------------------------------------
# Batched ensembles
# ---------------------------------------------------------------------------


@dataclass
class EnsembleMember:
    """One scenario of a batched ensemble.

    ``primitive`` is the ``(Nx, Ny, 4)`` initial condition (``None``
    when the ensemble is assembled from already-built solvers, see
    :meth:`EnsembleSolver2D.from_solvers`).  ``boundaries`` may differ
    per member — geometry is a per-member degree of freedom — but the
    grid shape, spacing and numerical config are batch-wide, because
    they enter the kernels as scalars.  ``params`` is free-form sweep
    metadata (Mach number, label...) that rides into the forensic
    report when the member blows up.
    """

    name: str
    boundaries: BoundarySet2D
    primitive: Optional[np.ndarray] = None
    params: Dict[str, object] = field(default_factory=dict)


class EulerEnsemble2D(_MemberDriver):
    """B independent 2-D Euler problems advanced in lockstep.

    The member states are stacked into one ``(B, Nx, Ny, 4)``
    conservative array and stepped through the same
    :class:`~repro.euler.engine.StepEngine` the solo solvers use with
    B = 1, so the per-step Python and dispatch overhead is paid once
    per batch instead of once per scenario.  Every kernel in the
    pipeline is elementwise over the leading batch axis (boundaries are
    filled per member slab), which gives the load-bearing guarantee:
    **member b's state is bit-for-bit the state of running that member
    alone**.

    Clocks, retirement and reruns are :class:`_MemberDriver`'s; a
    retired member's :class:`PhysicsError` names its batch index, name
    and params (B = 1 included — an ensemble of one still retires and
    attributes its member).

    Members must share the grid shape, spacing and
    :class:`SolverConfig`; use :func:`build_ensembles` to group a
    heterogeneous sweep (limiter/solver matrices) into batchable
    ensembles.
    """

    def __init__(
        self,
        members: Sequence[EnsembleMember],
        dx: float,
        dy: float,
        config: Optional[SolverConfig] = None,
        _conservative: Optional[np.ndarray] = None,
    ):
        members = list(members)
        if not members:
            raise ConfigurationError("an ensemble needs at least one member")
        if dx <= 0 or dy <= 0:
            raise ConfigurationError(f"dx and dy must be positive, got {dx}, {dy}")
        self.config = config or SolverConfig()
        self.members = members
        self.dx = float(dx)
        self.dy = float(dy)
        if _conservative is None:
            stack = []
            for member in members:
                primitive = np.asarray(member.primitive, dtype=float)
                if primitive.ndim != 3 or primitive.shape[-1] != 4:
                    raise ConfigurationError(
                        f"member {member.name!r}: initial condition must have"
                        f" shape (Nx, Ny, 4)"
                    )
                stack.append(
                    state.conservative_from_primitive(primitive, self.config.gamma)
                )
            shapes = {array.shape for array in stack}
            if len(shapes) != 1:
                raise ConfigurationError(
                    f"ensemble members must share the grid shape,"
                    f" got {sorted(shapes)}"
                )
            self.u = np.stack(stack)
        else:
            self.u = np.ascontiguousarray(_conservative, dtype=float)
        self.engine = StepEngine(
            self.u.shape[1:],
            (self.dx, self.dy),
            self.config,
            [member.boundaries for member in members],
        )
        self._init_clocks(len(members), placeholder=self.engine.placeholder_member())

    @classmethod
    def from_solvers(
        cls,
        solvers: Sequence[EulerSolver2D],
        names: Optional[Sequence[str]] = None,
        params: Optional[Sequence[Dict[str, object]]] = None,
    ) -> "EulerEnsemble2D":
        """Batch freshly-built standalone solvers into one ensemble.

        The solvers' conservative states are stacked *directly* — no
        primitive round trip — so the ensemble starts from exactly the
        bits each solver would step on its own.  All solvers must share
        config, grid shape and spacing, and must not have stepped yet.
        """
        solvers = list(solvers)
        if not solvers:
            raise ConfigurationError("from_solvers needs at least one solver")
        base = solvers[0]
        for solver in solvers:
            if solver.config != base.config:
                raise ConfigurationError(
                    "ensemble members must share the numerical config"
                )
            if solver.u.shape != base.u.shape:
                raise ConfigurationError("ensemble members must share the grid shape")
            if (solver.dx, solver.dy) != (base.dx, base.dy):
                raise ConfigurationError(
                    "ensemble members must share the grid spacing"
                )
            if solver.steps != 0 or solver.time != 0.0:
                raise ConfigurationError(
                    "ensemble members must be unstarted solvers"
                )
        if names is None:
            names = [f"member-{index}" for index in range(len(solvers))]
        if params is None:
            params = [{} for _ in solvers]
        members = [
            EnsembleMember(name=name, boundaries=solver.boundaries, params=dict(p))
            for name, solver, p in zip(names, solvers, params)
        ]
        return cls(
            members,
            base.dx,
            base.dy,
            config=base.config,
            _conservative=np.stack([solver.u for solver in solvers]),
        )

    @property
    def steps(self) -> List[int]:
        """Per-member step counters."""
        return self.step_counts

    def step(self, t_end: Optional[float] = None) -> List[int]:
        """Advance every live member by its own CFL step (clamped to
        ``t_end`` per member); returns the indices that advanced."""
        return self._step_members(self._t_end if t_end is None else t_end)

    def result(self) -> EnsembleResult:
        """Per-member summaries at the current point of the run."""
        return self._result([0] * self.batch)

    def _identity(self, index: int) -> Dict[str, object]:
        member = self.members[index]
        return {"name": member.name, "params": dict(member.params)}


#: Public name mirroring ``EulerSolver2D`` (the issue calls the batched
#: solver an "ensemble solver"); ``EulerEnsemble2D`` is the descriptive
#: class name.
EnsembleSolver2D = EulerEnsemble2D


def build_ensembles(
    entries: Sequence[Tuple[EnsembleMember, SolverConfig]],
    dx: float,
    dy: float,
) -> List[EulerEnsemble2D]:
    """Group a parameter sweep into batchable ensembles.

    A batch shares the numerical config and the grid shape (both enter
    the kernels as scalars/static shapes), so a sweep matrix that also
    varies limiter/riemann/reconstruction splits into one ensemble per
    distinct ``(config hash, shape)`` pair — members within a group
    vary freely in IC, geometry (boundaries) and sweep params.  Groups
    come back in first-appearance order.
    """
    groups: Dict[Tuple[str, Tuple[int, ...]], Tuple[SolverConfig, List[EnsembleMember]]] = {}
    order: List[Tuple[str, Tuple[int, ...]]] = []
    for member, config in entries:
        key = (config.content_hash(), tuple(np.asarray(member.primitive).shape))
        if key not in groups:
            groups[key] = (config, [])
            order.append(key)
        groups[key][1].append(member)
    return [
        EulerEnsemble2D(groups[key][1], dx, dy, config=groups[key][0])
        for key in order
    ]
