"""The stage plan — one program per Runge-Kutta stage.

A :class:`StagePlan` is the second IR level, above
:class:`~repro.jit.ir.KernelIR`: the ordered phases one RK stage runs
for one engine (spec x member shape x B x boundary sets x strip plans)::

    convert(+admissibility flags)
      -> sweep 0  [strip: window + ghost rows -> flux -> difference -> write]
      -> sweep 1  [strip: window + ghost rows -> flux -> difference -> accumulate]
      -> combine

Its pointwise bodies are kernel IR written once (the conversion,
:func:`repro.euler.state.emit_primitive_from_conservative`; the spec's
flux program; the flux differences,
:func:`repro.jit.kernels.build_difference_ir`; the TVD-RK combines,
:func:`repro.euler.rk.emit_combine`) and its ghost fill is data: a table
of :class:`FillRecord` the boundary conditions *produce*
(:func:`repro.euler.boundary.record_of`).  Two executors walk the same
plan strip by strip, a sweep strip ``[s, e)`` on a strip-private window
of the primitive rows ``[s - ng, e + ng)`` in sweep layout:
:class:`~repro.jit.backend.JitBackend` marshals it into the generated
``repro_jit_stage`` entry point — a whole RK step one crossing of
``repro_jit_step`` — and :func:`repro.jit.numpy_eval.run_stage` runs
the same bodies as NumPy programs.

Every phase is cut along the strips of a tile plan (convert and combine
along sweep 0's), so a phase is also a unit of team work: with two or
more workers each phase is one round of the worker team, worker ``w``
taking strips ``w, w + workers, ...``.  What makes that legal is stated
here as access maps (:func:`phase_access_maps`) and proved by
:func:`repro.analysis.deps.prove_phases`: the strips of a phase are
independent, and every cross-phase dependence between *different* strips
(``convert`` writes primitive rows a neighbouring strip's sweep reads)
is covered by one of the plan's :func:`barriers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.euler.boundary import EdgeSpec, record_of
from repro.euler.tiling import TilePlan

__all__ = [
    "FillRecord",
    "Phase",
    "StagePlan",
    "barriers",
    "fill_tables",
    "build_stage_plan",
    "phase_access_maps",
    "prove_stage",
]

#: Kind of a record whose condition has no fill record: only its own
#: ``fill`` can serve it, so the plan runs on the NumPy executor.
FOREIGN = "foreign"


def barriers(names: Sequence[str]) -> frozenset:
    """The phase boundaries a team synchronises at, as (earlier, later)
    pairs of adjacent phase names — all of them: each phase is its own
    team round, the round's end the barrier."""
    return frozenset(zip(names, names[1:]))


@dataclass(frozen=True)
class FillRecord:
    """One ghost fill: ``kind`` over the along-edge cells ``[start, stop)``
    of one member's low (``side=0``) or high (``side=1``) edge of the
    phase's sweep axis.  ``state`` is the pinned primitive state of a
    ``constant`` record, ``condition`` the object of a foreign one."""

    member: int
    side: int
    start: int
    stop: int
    kind: str
    state: Optional[Tuple[float, ...]] = None
    condition: object = None


@dataclass(frozen=True)
class Phase:
    """One phase of a stage: ``convert``, ``sweep`` (along ``axis``, with
    its ``spacing`` and ghost ``fills``) or ``combine``, cut into the
    strips of ``tiles``."""

    kind: str
    tiles: TilePlan
    axis: int = 0
    spacing: float = 0.0
    fills: Tuple[FillRecord, ...] = ()

    @property
    def name(self) -> str:
        return f"sweep{self.axis}" if self.kind == "sweep" else self.kind

    @cached_property
    def layout(self) -> Tuple[Tuple[int, int], ...]:
        return tuple((tile.start, tile.stop) for tile in self.tiles.tiles)


@dataclass(frozen=True)
class StagePlan:
    """The phases of one RK stage of one engine, in execution order.

    ``declined`` is why the compiled executor cannot run this plan (a
    boundary condition without a fill record) — the NumPy executor then
    serves every stage, counted under that reason — or None.
    """

    spec: object
    member_shape: Tuple[int, ...]
    batch: int
    phases: Tuple[Phase, ...]
    declined: Optional[str] = None

    @cached_property
    def sweeps(self) -> Tuple[Phase, ...]:
        return tuple(phase for phase in self.phases if phase.kind == "sweep")

    @cached_property
    def sweep_strips(self) -> int:
        """Strips one stage's sweeps process (the engine's tile count)."""
        return sum(len(phase.tiles) for phase in self.sweeps)

    @cached_property
    def team_strips(self) -> int:
        """Sweep strips a team could overlap: those of multi-strip sweeps."""
        return sum(len(p.tiles) for p in self.sweeps if len(p.tiles) >= 2)


def fill_tables(spec, member_shape: Sequence[int], boundaries):
    """Per sweep axis, the members' fill records in application order
    (member by member, low edge before high, segment by segment), and why
    the compiled fill cannot serve them (None if it can).

    ``boundaries`` holds one ``BoundarySet1D``/``BoundarySet2D`` per
    member.  A condition that offers no record becomes a foreign one; a
    mirror on an axis narrower than the ghost width is refused.
    """
    tables = []
    declined = None
    for axis in range(spec.ndim):
        extent = None if spec.ndim == 1 else member_shape[1 - axis]
        records = []
        for member, bset in enumerate(boundaries):
            edges = (bset.low, bset.high) if spec.ndim == 1 else bset.for_axis(axis)
            for side, edge in enumerate(edges):
                if isinstance(edge, EdgeSpec):
                    segments = edge.segments_over(extent)
                else:
                    segments = [(0, extent or 1, edge)]
                for start, stop, condition in segments:
                    kind, state = record_of(condition) or (FOREIGN, None)
                    if kind == FOREIGN:
                        declined = declined or (
                            f"boundary condition {type(condition).__name__}"
                            " has no fill record"
                        )
                    elif kind == "mirror" and member_shape[axis] < spec.ghost_cells:
                        raise ConfigurationError(  # its image would pass the far edge
                            f"{type(condition).__name__} on axis {axis} mirrors {spec.ghost_cells}"
                            f" ghost rows (the ghost width of {spec.reconstruction}) but the"
                            f" axis has only {member_shape[axis]} cell(s)"
                        )
                    records.append(
                        FillRecord(
                            member, side, start, stop, kind,
                            None if state is None else tuple(float(x) for x in state),
                            condition if kind == FOREIGN else None,
                        )
                    )
        tables.append(tuple(records))
    return tables, declined


def build_stage_plan(
    spec, member_shape: Sequence[int], batch: int, fills, declined, spacing, sweep_plans
) -> StagePlan:
    """The stage plan of one engine from its :func:`fill_tables` and
    ``sweep_plans[axis]``, the strip plan of the sweep along ``axis``;
    convert and combine are cut along sweep 0's strips (rows of grid
    axis 0, every member)."""
    phases = [Phase("convert", sweep_plans[0])]
    phases += [
        Phase("sweep", sweep_plans[axis], axis, float(spacing[axis]), fills[axis])
        for axis in range(spec.ndim)
    ]
    phases.append(Phase("combine", sweep_plans[0]))
    return StagePlan(spec, tuple(member_shape), int(batch), tuple(phases), declined)


# -- what the team may do: access maps and their proof -------------------


def phase_access_maps(spec, flux_ir=None, forms=None):
    """``[(phase name, AccessMap)]`` of a stage of ``spec``, in order.

    Rows are the unit, along the grid axis the phase's strips cut
    (``axes``): convert and combine touch their own rows only; a sweep
    strip reads the primitive rows of its window — its cells plus
    ``ghost_cells`` on either side, which is what reaches into the rows a
    *neighbouring* convert strip wrote — and writes (sweep 1: adds to)
    its own rows of ``k``.  The combine's target is named ``u``: it *is*
    ``u`` in an order's last stage, the worst aliasing there is.  Windows
    and flux rows are strip-private scratch, one set per worker, and so
    are a sweep's ``2 * ghost_cells`` rolling cell rows when ``forms``
    values per cell are hoisted (default: as the spec's
    :func:`~repro.jit.kernels.flux_split`, or :func:`~repro.jit.hoist.
    split_flux` of a given ``flux_ir``, finds).
    """
    from repro.analysis import deps
    from repro.euler.rk import COMBINES
    from repro.jit.hoist import split_flux
    from repro.jit.kernels import (
        DIFFERENCES,
        build_combine_ir,
        build_standalone_ir,
        flux_split,
        kernel_irs,
    )

    cells = deps.LinExpr.var("cells")
    r = deps.LinExpr.var("r")
    zero = deps.LinExpr.of(0)
    ng = spec.ghost_cells

    def rows(array, mode, row=r, lower=zero, upper=cells, scope="shared"):
        return deps.Access(array, mode, row, "r", lower, upper, scope=scope)

    def opcodes(*irs):
        return frozenset(op.opcode for ir in irs for op in ir.ops)

    convert_ir = build_standalone_ir("convert", "primitive", spec.nfields)
    if flux_ir is None:
        flux_ir, forms = kernel_irs(spec)[0], flux_split(spec).forms
    elif forms is None:
        forms = split_flux(flux_ir, 2 * ng).forms
    maps = [
        (
            "convert",
            deps.AccessMap(
                kernel=f"stage_convert_{spec.symbol()}",
                accesses=(rows("v", "read"), rows("prim", "write")),
                extents={"v": cells, "prim": cells},
                opcodes=opcodes(convert_ir),
            ),
        )
    ]
    for axis in range(spec.ndim):
        accesses = [
            # window row w holds primitive row start + w - ng (or a ghost
            # layer where that falls off the grid: no extent is declared)
            rows("prim", "read", r - ng, zero, cells + 2 * ng),
            rows("window", "write", upper=cells + 2 * ng, scope="strip"),
            rows("window", "read", upper=cells + 2 * ng, scope="strip"),
            rows("k", "write"),
        ]
        if forms:
            # the rolling cell rows: slots [0, 2 ng), each written and read
            accesses += [
                rows("cells", mode, deps.LinExpr.of(slot), upper=cells + 1, scope="strip")
                for slot in range(2 * ng)
                for mode in ("write", "read")
            ]
        if axis == 1:
            accesses.append(rows("k", "read"))  # the accumulate
        maps.append(
            (
                f"sweep{axis}",
                deps.AccessMap(
                    kernel=f"stage_sweep{axis}_{spec.symbol()}",
                    accesses=tuple(accesses),
                    extents={"k": cells, "window": cells + 2 * ng}
                    | ({"cells": deps.LinExpr.of(2 * ng)} if forms else {}),
                    opcodes=opcodes(flux_ir, build_standalone_ir("difference", DIFFERENCES[axis])),
                    strip_bases={"window": "zero"} | ({"cells": "zero"} if forms else {}),
                    axes={"prim": axis, "k": axis},
                ),
            )
        )
    maps.append(
        (
            "combine",
            deps.AccessMap(
                kernel=f"stage_combine_{spec.symbol()}",
                accesses=(
                    rows("u", "read"), rows("v", "read"), rows("k", "read"), rows("u", "write"),
                ),
                extents={"u": cells, "v": cells, "k": cells},
                opcodes=opcodes(*(build_combine_ir(kind) for kind in COMBINES)),
            ),
        )
    )
    return maps


@lru_cache(maxsize=256)
def prove_stage(spec, layouts: Tuple[Tuple[Tuple[int, int], ...], ...]):
    """The (process-wide cached) proof that a stage of ``spec`` whose
    phases are cut into ``layouts`` — one strip layout per phase of
    :func:`phase_access_maps` — may run one phase per team round.

    A proof depends only on the access maps, the ghost width and the
    strip boundaries, so one verdict per (spec, layouts) serves every
    engine of the process.  A prover *crash* is itself an unavailable
    proof (a DEP004-shaped reason): it must serialise the plan, never
    take the engine down.
    """
    from repro.analysis import deps

    try:
        phases = [
            (name, amap, layout)
            for (name, amap), layout in zip(phase_access_maps(spec), layouts)
        ]
        names = [name for name, _, _ in phases]
        return deps.prove_phases(
            phases, barriers(names), spec.ghost_cells, where=spec.label()
        )
    except Exception as error:
        return deps.StripProof(licensed=False, reason=f"DEP004: prover failed: {error}")
