"""Boundary conditions as ghost-cell fills.

The solver stores only interior cells; before every right-hand-side
evaluation the state is padded with ``ghost_cells`` layers per side and
each edge's :class:`BoundaryCondition` fills its layers.

Three kinds cover everything in the paper:

* :class:`Transmissive` — zero-gradient outflow (the open edges of the
  2-D computational domain, both ends of the shock tube),
* :class:`ReflectiveWall` — solid wall, normal velocity mirrored with
  opposite sign (the "solid walls" around the channel exits),
* :class:`SupersonicInflow` — frozen post-shock state (the channel
  exit sections; valid because at Ms = 2.2 the flow behind the shock is
  supersonic, as the paper notes).

:class:`EdgeSpec` composes several conditions along one edge through
index intervals, which is how the 2-D problem's part-wall/part-inflow
edges (Fig. 2) are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


#: What a ghost fill can be, as data.  A position here is the id the
#: compiled stage switches on (:mod:`repro.jit.codegen`).
FILL_KINDS = ("copy", "mirror", "constant")


def apply_fill(padded: np.ndarray, ghost_cells: int, kind: str, state=None) -> None:
    """Fill the low-end ghost layers of ``padded`` as one fill record says
    — the one interpreter of :data:`FILL_KINDS` on the NumPy side.

    ``copy`` repeats the first interior layer (zero gradient), ``mirror``
    reflects the interior and negates field 1 (the wall-normal velocity
    in sweep layout), ``constant`` pins every layer to ``state``.
    """
    if kind == "copy":
        for layer in range(ghost_cells):
            padded[layer] = padded[ghost_cells]
    elif kind == "mirror":
        for layer in range(ghost_cells):
            mirror = 2 * ghost_cells - 1 - layer
            padded[layer] = padded[mirror]
            padded[layer, ..., 1] = -padded[mirror, ..., 1]
    elif kind == "constant":
        padded[:ghost_cells] = state
    else:
        raise ConfigurationError(f"unknown fill kind {kind!r}; have {FILL_KINDS}")


class BoundaryCondition:
    """Fills ghost layers on one edge of a padded primitive sweep array.

    A condition *produces a fill record* — ``(kind, state)`` with ``kind``
    in :data:`FILL_KINDS` — and :meth:`fill` applies it
    (:func:`apply_fill`); the stage plan carries the same records into
    the compiled ghost fill.  ``fill`` receives the padded array with
    axis 0 being the sweep axis in *sweep layout* (field 1 normal to the
    edge) and writes the ``ghost_cells`` layers at the low end; the
    solver orients the array so every condition only ever fills the low
    end.  A subclass may override ``fill`` instead of producing a record:
    it then runs on the NumPy executor only (:func:`record_of`).
    """

    def fill_record(self):
        return None

    def fill(self, padded: np.ndarray, ghost_cells: int) -> None:
        record = self.fill_record()
        if record is None:
            raise NotImplementedError
        apply_fill(padded, ghost_cells, *record)


def record_of(condition: BoundaryCondition):
    """``condition``'s fill record, or None when it has none to offer or
    overrides :meth:`~BoundaryCondition.fill` (its own code is then the
    only statement of what it does)."""
    if type(condition).fill is not BoundaryCondition.fill:
        return None
    return condition.fill_record()


class Transmissive(BoundaryCondition):
    """Zero-gradient (outflow/continuative) boundary."""

    def fill_record(self):
        return ("copy", None)


class ReflectiveWall(BoundaryCondition):
    """Solid wall: interior mirrored, normal velocity (field 1) negated."""

    def fill_record(self):
        return ("mirror", None)


class SupersonicInflow(BoundaryCondition):
    """All ghost layers pinned to a fixed primitive state (sweep layout)."""

    def __init__(self, prim_state: Sequence[float]):
        self.state = np.asarray(prim_state, dtype=float)

    def fill_record(self):
        return ("constant", self.state)


@dataclass
class EdgeSegment:
    """One boundary condition applied to a half-open index interval of an edge."""

    start: int
    stop: Optional[int]
    condition: BoundaryCondition


@dataclass
class EdgeSpec:
    """A (possibly piecewise) boundary specification for one domain edge."""

    segments: List[EdgeSegment] = field(default_factory=list)

    @classmethod
    def uniform(cls, condition: BoundaryCondition) -> "EdgeSpec":
        return cls(segments=[EdgeSegment(0, None, condition)])

    def add(self, start: int, stop: Optional[int], condition: BoundaryCondition) -> "EdgeSpec":
        self.segments.append(EdgeSegment(start, stop, condition))
        return self

    def segments_over(self, extent: Optional[int]) -> List[Tuple[int, int, BoundaryCondition]]:
        """``(start, stop, condition)`` per segment, clipped to an edge of
        ``extent`` cells; ``extent=None`` is a 1-D sweep, which has no
        along-edge axis and takes one uniform segment only."""
        if not self.segments:
            raise ConfigurationError("EdgeSpec has no segments")
        if extent is None:
            # A piecewise spec cannot be honoured on a 1-D sweep; quietly
            # applying segments[0] to the whole edge would silently compute
            # the wrong physics.
            only = self.segments[0]
            if len(self.segments) > 1 or only.start != 0 or only.stop is not None:
                raise ConfigurationError(
                    "piecewise EdgeSpec cannot apply to a 1-D sweep: a"
                    " (cells, fields) array has no along-edge axis for the"
                    f" {len(self.segments)} segment(s) to partition; use a"
                    " single uniform segment (EdgeSpec.uniform)"
                )
            return [(0, 1, only.condition)]
        return [
            (*slice(segment.start, segment.stop).indices(extent)[:2], segment.condition)
            for segment in self.segments
        ]

    def fill(self, padded: np.ndarray, ghost_cells: int) -> None:
        """Fill the low-end ghost layers, segment by segment.

        Axis 0 of ``padded`` is the sweep axis; axis 1 (when present)
        runs along the edge and is what the segments partition.
        """
        if padded.ndim == 2:  # 1-D problem: (cells, fields)
            self.segments_over(None)[0][2].fill(padded, ghost_cells)
            return
        for start, stop, condition in self.segments_over(padded.shape[1]):
            condition.fill(padded[:, start:stop], ghost_cells)


@dataclass
class BoundarySet1D:
    """Boundary pair for a 1-D domain."""

    low: BoundaryCondition
    high: BoundaryCondition


@dataclass
class BoundarySet2D:
    """Boundary conditions for the four edges of a 2-D rectangle.

    Names follow the paper's Fig. 2 orientation: x grows rightward,
    y grows upward; ``left``/``bottom`` are where the channels exhaust.
    """

    left: EdgeSpec
    right: EdgeSpec
    bottom: EdgeSpec
    top: EdgeSpec

    def for_axis(self, axis: int) -> Tuple[EdgeSpec, EdgeSpec]:
        """(low, high) edge specs for a sweep along ``axis`` (0 = x, 1 = y)."""
        if axis == 0:
            return self.left, self.right
        if axis == 1:
            return self.bottom, self.top
        raise ConfigurationError(f"axis must be 0 or 1, got {axis}")


def transmissive_1d() -> BoundarySet1D:
    """Open tube: both ends transmissive (the Sod problem's far fields)."""
    return BoundarySet1D(low=Transmissive(), high=Transmissive())


def all_transmissive_2d() -> BoundarySet2D:
    """All four edges open (useful for isolated-blast tests)."""
    return BoundarySet2D(
        left=EdgeSpec.uniform(Transmissive()),
        right=EdgeSpec.uniform(Transmissive()),
        bottom=EdgeSpec.uniform(Transmissive()),
        top=EdgeSpec.uniform(Transmissive()),
    )
