"""Strip plans for the StepEngine's sweep and dt passes.

The paper attributes much of SaC's performance to *with-loop folding* —
fusing producer/consumer array operations so intermediates never travel
through memory.  NumPy cannot fuse ufuncs, but it can be handed smaller
arrays: this module partitions a sweep into strips of rows sized so that
the whole ``reconstruct -> riemann -> difference`` chain for one strip
(reconstructed faces, wave speeds, star states, fluxes — every
intermediate) fits in the last-level *private* cache.  Each ufunc pass
then re-reads operands from cache instead of DRAM, which is where the
engine's step rate was going.

A :class:`TilePlan` is geometry only — which output rows each strip
owns.  Because every kernel in the pipeline is elementwise per face (or
per cell), running it strip-by-strip performs the *identical rounded
operations* on each element as one full-grid pass: a plan of many
strips is bit-for-bit equal to a plan of one, which the differential
tests enforce.  A strip of output cells ``[start, stop)`` reads padded
cells ``[start, stop + 2*ghost_cells)`` and produces faces
``[start, stop + 1)``; adjacent strips recompute one shared face each,
the only redundant work.

``tile_bytes`` selects the cache budget: ``SolverConfig.tile_bytes``
wins, then the ``REPRO_TILE_BYTES`` environment variable, then
:data:`DEFAULT_TILE_BYTES`.  ``0`` means "no budget": the engine plans
with :data:`UNBOUNDED_TILE_BYTES`, so the same code runs a plan of one
strip — the seed's one-pass-per-ufunc behaviour, and the whole-grid
reference of the differential tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.jit.ir import BOOL, F64

__all__ = [
    "DEFAULT_TILE_BYTES",
    "UNBOUNDED_TILE_BYTES",
    "TILE_BYTES_ENV",
    "TileSpec",
    "TilePlan",
    "plan_tiles",
    "resolve_tile_bytes",
    "sweep_row_bytes",
    "jit_sweep_row_bytes",
    "dt_row_bytes",
]

#: Default cache budget for one strip's working set.  The row sizes
#: below count every buffer a strip holds, not only the ones an op is
#: touching, so a nominal 4 MiB budget keeps the actually-hot fraction
#: of a strip around a ~2 MiB private L2; measured on the 400x400 benchmark the step rate is flat
#: within a few percent from 2x to 8x this value and falls off on both
#: sides (too-small strips pay Python dispatch per ufunc call, too-large
#: strips spill the working set back to DRAM).
DEFAULT_TILE_BYTES = 1 << 22

#: The budget the engine plans with when ``tile_bytes`` is 0: larger than
#: any working set, so every plan is a single strip.
UNBOUNDED_TILE_BYTES = 1 << 62

#: Environment override consulted when ``SolverConfig.tile_bytes`` is None.
TILE_BYTES_ENV = "REPRO_TILE_BYTES"


@dataclass(frozen=True)
class TileSpec:
    """One strip of a sweep: the half-open row range it owns.

    ``start``/``stop`` index *output* cells along the sweep axis; the
    strip reads padded rows ``[start, stop + 2*ghost_cells)`` and
    computes the ``stop - start + 1`` faces ``[start, stop + 1)``.
    """

    start: int
    stop: int

    @property
    def cells(self) -> int:
        return self.stop - self.start

    @property
    def faces(self) -> int:
        return self.cells + 1


@dataclass(frozen=True)
class TilePlan:
    """A full partition of ``n_cells`` sweep rows into strips."""

    n_cells: int
    strip_rows: int
    row_bytes: int
    tile_bytes: int
    tiles: Tuple[TileSpec, ...]

    def __len__(self) -> int:
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)


def plan_tiles(n_cells: int, row_bytes: int, tile_bytes: int) -> TilePlan:
    """Partition ``n_cells`` rows into strips of ~``tile_bytes`` working set.

    The strip height is ``tile_bytes // row_bytes``, floored at one row
    (a pipeline whose single-row working set exceeds the budget still
    has to run); the last strip is ragged when the height does not
    divide ``n_cells``.
    """
    if n_cells < 1:
        raise ConfigurationError(f"cannot tile a sweep of {n_cells} cells")
    if row_bytes < 1:
        raise ConfigurationError(f"row_bytes must be positive, got {row_bytes}")
    if tile_bytes < 1:
        raise ConfigurationError(
            f"plan_tiles needs a positive tile_bytes, got {tile_bytes}"
            " (the engine maps 0 to UNBOUNDED_TILE_BYTES)"
        )
    strip_rows = max(1, min(n_cells, tile_bytes // row_bytes))
    tiles = tuple(
        TileSpec(start, min(start + strip_rows, n_cells))
        for start in range(0, n_cells, strip_rows)
    )
    return TilePlan(
        n_cells=n_cells,
        strip_rows=strip_rows,
        row_bytes=row_bytes,
        tile_bytes=tile_bytes,
        tiles=tiles,
    )


def resolve_tile_bytes(configured: Optional[int]) -> int:
    """The effective cache budget: config wins, then env, then default."""
    if configured is not None:
        if configured < 0:
            raise ConfigurationError(
                f"tile_bytes must be >= 0 (0 disables tiling), got {configured}"
            )
        return int(configured)
    raw = os.environ.get(TILE_BYTES_ENV)
    if raw is None:
        return DEFAULT_TILE_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{TILE_BYTES_ENV} must be an integer byte count, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(
            f"{TILE_BYTES_ENV} must be >= 0 (0 disables tiling), got {value}"
        )
    return value


def sweep_row_bytes(
    cross_cells: int,
    nfields: int,
    program,
    ghost_cells: int,
    itemsize: int = 8,
) -> int:
    """Live working-set bytes per sweep row of the NumPy executor.

    ``cross_cells`` is the product of the non-sweep grid extents (the
    row length) and ``program`` the spec's flux program
    (:func:`repro.jit.numpy_eval.kernel_programs`).  A row holds what a
    compiled row holds (:func:`jit_sweep_row_bytes`: the padded stencil,
    the flux rows, the output row) plus one plane per scratch slot of
    the program — the slot counts are read off the schedule the
    evaluator runs, so the plan moves with the emitters.  A strip
    computes one face row more than it owns cells; counting the whole
    stencil against every row covers that row's planes from four rows
    up.
    """
    planes = len(program.slots[F64]) * itemsize + len(program.slots[BOOL])
    return planes * max(1, cross_cells) + jit_sweep_row_bytes(
        cross_cells, nfields, ghost_cells, itemsize
    )


def jit_sweep_row_bytes(
    cross_cells: int,
    nfields: int,
    ghost_cells: int,
    itemsize: int = 8,
) -> int:
    """Estimated live working-set bytes per sweep row for the compiled path.

    The :class:`~repro.jit.backend.JitBackend` fuses the whole
    ``reconstruct -> riemann -> difference`` chain into one pass per
    face, so the only live rows are the ``2 * ghost_cells + 1`` padded
    stencil rows, the streamed output row, and the two rolling flux-row
    buffers — none of the NumPy executor's per-op planes exist.
    Strips therefore grow to fill the same ``tile_bytes`` budget, and
    tiling still bounds the working set (results are independent of the
    strip decomposition either way; only locality changes).
    """
    field_row = max(1, cross_cells) * nfields * itemsize
    return (2 * ghost_cells + 1 + 1 + 2) * field_row


def dt_row_bytes(cross_cells: int, nfields: int, itemsize: int = 8) -> int:
    """Estimated live bytes per row of the fused convert+GetDT pass."""
    field_row = max(1, cross_cells) * nfields * itemsize
    cell_row = max(1, cross_cells) * itemsize
    # conservative row in, primitive row out, plus the sound/ev/scratch
    # cell strips and the conversion's kinetic-energy scratch.
    return 2 * field_row + 6 * cell_row
